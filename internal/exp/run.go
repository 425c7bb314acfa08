package exp

import (
	"fmt"
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
// that left a flow unfinished, broke a conservation invariant, or
// tail-dropped with PFC engaged is an error, so no experiment can report
// numbers from such a run.
func simulate(cfg Config, label string, build func(*net.Network)) (*net.Network, error) {
	eng := sim.NewEngine()
	nw := net.New(eng, cfg.Seed)
	build(nw)
	runSequential(cfg, label, eng, nw)
	if cfg.obs != nil {
		cfg.obs.add(metrics.CollectRun(nw))
	}
	if !nw.AllFinished() {
		st := nw.Stats()
		return nil, fmt.Errorf("%s: %d of %d flows did not finish (%d drops, %d retransmits, %d RTO fires)",
			label, st.FlowsTotal-st.FlowsFinished, st.FlowsTotal, st.Drops(), st.Retransmits, st.RTOFires)
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

// progressCheckMask amortizes the wall-clock read: time.Now is consulted
// once per (mask+1) events, which at the engine's typical multi-M ev/s
// rate is a sub-millisecond reporting resolution at negligible cost.
const progressCheckMask = 1<<14 - 1

// runSequential is the sequential drive: step until every flow has finished
// or nothing is pending but the next ticks of the samplers' Every chains
// (sim.Engine.Periodic), which re-arm for as long as the run lasts so that a
// series ends with its run. ProgressUpdates go out if Config asks for them.
// The stepping sequence is identical with and without them (the same
// condition is checked before every Step), so observability can never
// perturb simulation results. Progress is reported from the stepping
// goroutine itself, which is what makes reading eng.Steps mid-run safe.
func runSequential(cfg Config, label string, eng *sim.Engine, nw *net.Network) {
	var p *progress
	var next time.Time
	if cfg.Progress != nil {
		every := cfg.ProgressEvery
		if every <= 0 {
			every = time.Second
		}
		now := time.Now()
		p = &progress{emit: cfg.Progress, every: every, label: label, start: now, lastWall: now}
		next = now.Add(every)
	}
	var n uint64
	for !nw.AllFinished() && eng.Pending() > eng.Periodic() && eng.Step() {
		n++
		if p == nil || n&progressCheckMask != 0 {
			continue
		}
		if now := time.Now(); !now.Before(next) {
			p.report(now, eng.Steps(), eng.Now(), false)
			next = now.Add(p.every)
		}
	}
	if p != nil {
		p.report(time.Now(), eng.Steps(), eng.Now(), true)
	}
}
