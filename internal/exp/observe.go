package exp

import (
	"slices"
	"sync"
	"time"

	"faircc/internal/metrics"
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

func (o *runObserver) finish(wall time.Duration) metrics.RunStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.stats
	s.Finish(wall)
	return s
}

// RunWithStats runs the experiment's simulations once, after validating
// cfg, and returns every figure read off them (in Figures order) with the
// aggregated RunStats of those simulations — events, events/sec, packet
// and pool counters, wall time, and process memory. Experiments that run
// no packet simulation (the fluid model) return a zero-run snapshot.
func (e *Experiment) RunWithStats(cfg Config) ([]*Result, *metrics.RunStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	obs := &runObserver{}
	cfg.obs = obs
	start := time.Now()
	results, _, err := e.run(cfg)
	if err != nil {
		return nil, nil, err
	}
	stats := obs.finish(time.Since(start))
	return results, &stats, nil
}

// RunWithStats runs an experiment like Run and additionally returns the
// RunStats of the run the named figure was read off.
func RunWithStats(name string, cfg Config) (*Result, *metrics.RunStats, error) {
	e, err := Get(name)
	if err != nil {
		return nil, nil, err
	}
	results, stats, err := e.RunWithStats(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Get found name among e.Figures, and run returns one Result per
	// declared figure, in that order (TestEveryExperimentRuns).
	i := slices.IndexFunc(e.Figures, func(f Figure) bool { return f.Name == name })
	return results[i], stats, nil
}
