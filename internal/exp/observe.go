package exp

import (
	"sync"
	"time"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
)

// ProgressUpdate is one periodic report from a running simulation. For
// paper-scale runs (320 hosts, 50 ms — hundreds of millions of events) it
// is the only sign of life a sweep gives; updates come roughly once per
// Config.ProgressEvery of wall time per concurrent variant.
type ProgressUpdate struct {
	Label        string        // variant or run label ("HPCC VAI SF", "seed 3")
	SimTime      sim.Time      // simulated clock
	Events       uint64        // events executed so far in this run
	Wall         time.Duration // wall time since this run started
	EventsPerSec float64       // rate over the most recent reporting interval
	Done         bool          // final update for this run
}

// runObserver accumulates RunStats across the (possibly parallel)
// simulations of one experiment. It is attached via RunWithStats.
type runObserver struct {
	mu    sync.Mutex
	stats metrics.RunStats
}

func (o *runObserver) add(s metrics.RunStats) {
	o.mu.Lock()
	o.stats.Add(s)
	o.mu.Unlock()
}

// notePeakFCT records a per-flow-record high-water mark: len(records) on
// the collect-at-end path, ClassCollector.PeakRetained on the streaming
// path. RunStats keeps the max across an experiment's runs.
func (o *runObserver) notePeakFCT(n int) {
	o.mu.Lock()
	if n > o.stats.PeakFCTRecords {
		o.stats.PeakFCTRecords = n
	}
	o.mu.Unlock()
}

// notePeakFCT is the Config-level wrapper (no-op without an observer).
func (cfg Config) notePeakFCT(n int) {
	if cfg.obs != nil {
		cfg.obs.notePeakFCT(n)
	}
}

func (o *runObserver) finish(wall time.Duration) metrics.RunStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.stats
	s.Finish(wall)
	return s
}

// progressCheckMask amortizes the wall-clock read: time.Now is consulted
// once per (mask+1) events, which at the engine's typical multi-M ev/s
// rate is a sub-millisecond reporting resolution at negligible cost.
const progressCheckMask = 1<<14 - 1

// runSim executes the standard experiment loop — step until every flow has
// finished or the queue drains — with the observability hooks Config may
// carry: periodic ProgressUpdates and RunStats collection. The stepping
// sequence is identical with and without hooks (AllFinished is checked
// before every Step, exactly as the bare loop did), so observability can
// never perturb simulation results.
func runSim(cfg Config, label string, eng *sim.Engine, nw *net.Network) {
	if cfg.Progress == nil {
		for !nw.AllFinished() && eng.Step() {
		}
		if cfg.obs != nil {
			cfg.obs.add(metrics.CollectRun(eng, nw))
		}
		return
	}
	every := cfg.ProgressEvery
	if every <= 0 {
		every = time.Second
	}
	var (
		start      = time.Now()
		next       = start.Add(every)
		lastWall   = start
		lastEvents = eng.Steps()
		n          uint64
	)
	for !nw.AllFinished() && eng.Step() {
		n++
		if n&progressCheckMask != 0 {
			continue
		}
		now := time.Now()
		if now.Before(next) {
			continue
		}
		events := eng.Steps()
		rate := float64(events-lastEvents) / now.Sub(lastWall).Seconds()
		cfg.Progress(ProgressUpdate{
			Label:        label,
			SimTime:      eng.Now(),
			Events:       events,
			Wall:         now.Sub(start),
			EventsPerSec: rate,
		})
		lastWall, lastEvents = now, events
		next = now.Add(every)
	}
	wall := time.Since(start)
	rate := 0.0
	if s := wall.Seconds(); s > 0 {
		rate = float64(eng.Steps()) / s
	}
	cfg.Progress(ProgressUpdate{
		Label:        label,
		SimTime:      eng.Now(),
		Events:       eng.Steps(),
		Wall:         wall,
		EventsPerSec: rate,
		Done:         true,
	})
	if cfg.obs != nil {
		cfg.obs.add(metrics.CollectRun(eng, nw))
	}
}

// runSimSharded is runSim for a sharded network: it drives the epochs
// through nw.NewParallel and, when Config.Progress is set, watches the
// run from a separate observer goroutine. The observer reads only the
// runner's atomically published counters (sim.Parallel.Progress: event
// batches mid-epoch, exact totals and sim time at each barrier) — never
// EngineStats or NetworkStats of live shards — so progress reporting is
// race-clean at any shard count, moves even while a long epoch is still
// running, and cannot perturb the workers. (The sequential runSim reads eng.Steps mid-run, which is safe
// there only because its progress calls run on the stepping goroutine.)
func runSimSharded(cfg Config, label string, nw *net.Network) error {
	pr := nw.NewParallel()
	start := time.Now()
	var stop chan struct{}
	var wg sync.WaitGroup
	if cfg.Progress != nil {
		every := cfg.ProgressEvery
		if every <= 0 {
			every = time.Second
		}
		stop = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(every)
			defer ticker.Stop()
			lastWall, lastEvents := start, uint64(0)
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				events, simNow, _ := pr.Progress()
				now := time.Now()
				rate := float64(events-lastEvents) / now.Sub(lastWall).Seconds()
				cfg.Progress(ProgressUpdate{
					Label:        label,
					SimTime:      simNow,
					Events:       events,
					Wall:         now.Sub(start),
					EventsPerSec: rate,
				})
				lastWall, lastEvents = now, events
			}
		}()
	}
	err := pr.Run()
	if stop != nil {
		close(stop)
		wg.Wait()
	}
	if err != nil {
		return err
	}
	if cfg.Progress != nil {
		// Run has returned, so reading the shard engines directly is safe
		// (the workers' exits happen-before Run's return).
		var events uint64
		var simNow sim.Time
		for _, eng := range nw.ShardEngines() {
			events += eng.Steps()
			if t := eng.Now(); t > simNow {
				simNow = t
			}
		}
		wall := time.Since(start)
		rate := 0.0
		if s := wall.Seconds(); s > 0 {
			rate = float64(events) / s
		}
		cfg.Progress(ProgressUpdate{
			Label:        label,
			SimTime:      simNow,
			Events:       events,
			Wall:         wall,
			EventsPerSec: rate,
			Done:         true,
		})
	}
	if cfg.obs != nil {
		cfg.obs.add(metrics.CollectSharded(nw, pr.Epochs()))
	}
	return nil
}

// RunWithStats runs an experiment like Run and additionally returns the
// aggregated RunStats of every simulation the experiment executed —
// events, events/sec, packet and pool counters, wall time, and process
// memory. Experiments that run no packet simulation (the fluid model)
// return a zero-run snapshot.
func RunWithStats(name string, cfg Config) (*Result, *metrics.RunStats, error) {
	e, err := Get(name)
	if err != nil {
		return nil, nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	obs := &runObserver{}
	cfg.obs = obs
	start := time.Now()
	res, err := e.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	stats := obs.finish(time.Since(start))
	return res, &stats, nil
}
