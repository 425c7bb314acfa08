// Package sim provides a deterministic discrete-event simulation engine
// with picosecond time resolution.
//
// The engine is single-threaded: events execute in nondecreasing time
// order, with ties broken by scheduling order, so a simulation driven by a
// fixed seed always produces identical results.
package sim

import "fmt"

// Time is a point in simulated time, measured in integer picoseconds from
// the start of the simulation. Picosecond resolution makes the
// serialization delay of an MTU packet exact on both 100 Gb/s and 400 Gb/s
// links (1000 B at 100 Gb/s is exactly 80,000 ps), so no rounding error
// accumulates over long runs.
type Time int64

// Duration constants. A Time is also used to express durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds returns t expressed in nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t expressed in microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "12.5us".
func (t Time) String() string {
	switch {
	case t < 0:
		if -t < 0 { // the minimum has no negation: a wrapped sum in a panic message must still print
			return fmt.Sprintf("%.4gs", t.Seconds())
		}
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// TransmitTime returns the serialization delay of size bytes on a link of
// the given bandwidth in bits per second. The result is rounded to the
// nearest picosecond. A rate that is NaN, not positive, or too low for the
// delay to fit a Time panics: converted, it is the most negative Time.
func TransmitTime(sizeBytes int, bps float64) Time {
	ps := float64(sizeBytes)*8*1e12/bps + 0.5
	if !(bps > 0) || ps >= 1<<63 {
		panic(fmt.Sprintf("sim: TransmitTime of %d bytes at %g b/s is not a representable delay", sizeBytes, bps))
	}
	return Time(ps)
}

// BytesOver returns how many bytes a rate of bps transfers in d.
func BytesOver(bps float64, d Time) float64 {
	return bps / 8 * d.Seconds()
}

// Every calls fn at start and then every period for as long as the next
// call would come at or before until: a sampler's tick chain. Each tick is
// an At event, and its successor is scheduled after fn returns, so a chain
// takes its place in the (time, seq) order exactly as a hand-rolled
// re-arming callback would. A non-positive period panics: a zero period
// would re-arm at the same instant forever.
func (e *Engine) Every(start, period, until Time, fn func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	var tick func()
	tick = func() {
		fn()
		if until-e.now >= period {
			e.After(period, tick)
		}
	}
	e.At(start, tick)
}
