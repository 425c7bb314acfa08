package exp

import (
	"fmt"
	"math"
	"time"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
)

// simulate is the one path from a Config to a checked, counted run; every
// simulation of every experiment goes through it. It makes the engine and
// the network from cfg.Seed, hands the network to build — topology, flows,
// samplers and collectors, in the caller's order — and drives it with the
// sequential step loop. The RunStats go to the observer once, and a run
// that left a flow unfinished (stalled or not), broke a conservation
// invariant, or tail-dropped with PFC engaged is an error, so no experiment
// can report numbers from such a run.
func simulate(cfg Config, label string, build func(*net.Network)) (*net.Network, error) {
	nw := net.New(sim.NewEngine(), cfg.Seed)
	build(nw)
	stalled := runSequential(cfg, label, nw)
	if cfg.obs != nil {
		cfg.obs.add(metrics.CollectRun(nw))
	}
	if !nw.AllFinished() {
		st := nw.Stats()
		return nil, fmt.Errorf("%s: %d of %d flows did not finish (%d drops, %d retransmits, %d RTO fires)%s",
			label, st.FlowsTotal-st.FlowsFinished, st.FlowsTotal, st.Drops(), st.Retransmits, st.RTOFires, stalled)
	}
	if err := nw.CheckConservation(); err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	if nw.PFCPauseBytes > 0 {
		if d := nw.Stats().BufferDrops; d > 0 {
			return nil, fmt.Errorf("%s: losslessness violated: %d tail drops with PFC engaged", label, d)
		}
	}
	return nw, nil
}

// progress turns (events, sim time) readings of one run into
// ProgressUpdates: the rate over the interval since the last report while
// the run is going, the whole run's rate in the final one.
type progress struct {
	emit            func(ProgressUpdate)
	every           time.Duration
	label           string
	start, lastWall time.Time
	lastEvents      uint64
}

func (p *progress) report(now time.Time, events uint64, simNow sim.Time, done bool) {
	since, n := now.Sub(p.lastWall), events-p.lastEvents
	if done {
		since, n = now.Sub(p.start), events
	}
	rate := 0.0
	if s := since.Seconds(); s > 0 {
		rate = float64(n) / s
	}
	p.emit(ProgressUpdate{Label: p.label, SimTime: simNow, Events: events,
		Wall: now.Sub(p.start), EventsPerSec: rate, Done: done})
	p.lastWall, p.lastEvents = now, events
}

// progressCheckMask amortizes the wall-clock read and the stall check: both
// run once per (mask+1) events, which at the engine's typical multi-M ev/s
// rate is a sub-millisecond reporting resolution at negligible cost.
const progressCheckMask = 1<<14 - 1

// stallWindow is the watchdog's W: max(1 ms, 1000 x the largest base RTT
// any flow added so far can have, see net.Network.MaxBaseRTT), plus RTOMax
// under LossRecovery (DESIGN.md, "What ends a run"). It saturates rather
// than wrap on an hours-long RTT.
func stallWindow(nw *net.Network) sim.Time {
	w := max(sim.Millisecond, 1000*min(nw.MaxBaseRTT(), math.MaxInt64/2000))
	if nw.LossRecovery {
		w += nw.RTOMax
	}
	return w
}

// runSequential is the sequential drive: step until every flow has
// finished, nothing is pending, or the run has stalled — some flow was
// active at the previous check and no byte has been acknowledged in the
// window W since. It returns what stalled the run (the window and the first
// active flows) as a suffix for simulate's error, or "". W comes from the
// network (see stallWindow). ProgressUpdates go out if Config asks for
// them. The stepping sequence is identical with and without them, so
// observability can never perturb simulation results. Progress is
// reported from the stepping goroutine itself, which is what makes reading
// eng.Steps mid-run safe.
func runSequential(cfg Config, label string, nw *net.Network) (stalled string) {
	eng := nw.Eng
	var p *progress
	if cfg.Progress != nil {
		every := cfg.ProgressEvery
		if every <= 0 {
			every = time.Second
		}
		now := time.Now()
		p = &progress{emit: cfg.Progress, every: every, label: label, start: now, lastWall: now}
	}
	var acked int64         // bytes acknowledged over all flows at the last check
	var active bool         // some flow was active at the last check
	var checked, w sim.Time // when the last check ran, and W as of it
	for n := uint64(1); !nw.AllFinished() && eng.Step(); n++ {
		if n&progressCheckMask != 0 {
			continue
		}
		if now := eng.Now(); now-checked >= w {
			sum := int64(0)
			var ids []int // the first few active flows
			for _, f := range nw.Flows() {
				sum += f.Acked()
				if f.Active() && len(ids) < 5 {
					ids = append(ids, f.Spec.ID)
				}
			}
			if active && sum == acked {
				stalled = fmt.Sprintf("; stalled: no byte acknowledged in a %v window, flows %v still active", w, ids)
				break
			}
			acked, active, checked = sum, len(ids) > 0, now
			w = stallWindow(nw)
		}
		if p != nil && time.Since(p.lastWall) >= p.every {
			p.report(time.Now(), eng.Steps(), eng.Now(), false)
		}
	}
	if p != nil {
		p.report(time.Now(), eng.Steps(), eng.Now(), true)
	}
	return stalled
}
