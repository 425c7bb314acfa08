package exp

import (
	"runtime"
	rtmetrics "runtime/metrics"
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
	// heap is where sampleHeap reads the heap's object bytes and its
	// unused bytes: their sum is MemStats.HeapInuse.
	heap  [2]rtmetrics.Sample
	begin runtime.MemStats // the process's memory when the experiment began
}

// add merges one finished simulation, sampling the heap while its network
// is still live.
func (o *runObserver) add(s metrics.RunStats) {
	o.mu.Lock()
	o.stats.Add(s)
	o.mu.Unlock()
	o.sampleHeap()
}

// sampleHeap raises the experiment's PeakHeapBytes to the heap in use now,
// read without stopping the world. runSequential calls it at its periodic
// check.
func (o *runObserver) sampleHeap() {
	o.mu.Lock()
	o.heap[0].Name, o.heap[1].Name = "/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"
	rtmetrics.Read(o.heap[:])
	o.stats.PeakHeapBytes = max(o.stats.PeakHeapBytes, o.heap[0].Value.Uint64()+o.heap[1].Value.Uint64())
	o.mu.Unlock()
}

func (o *runObserver) finish(wall time.Duration) metrics.RunStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.stats
	s.Finish(wall, &o.begin)
	return s
}

// RunWithStats runs the experiment's simulations once, after validating
// cfg, and returns every figure read off them (in Figures order) with the
// aggregated RunStats of those simulations — events, events/sec, packet
// and pool counters, wall time, and memory. Experiments that run
// no packet simulation (the fluid model) return a zero-run snapshot.
func (e *Experiment) RunWithStats(cfg Config) ([]*Result, *metrics.RunStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	// Collect what earlier runs in this process left, so the peak heap is
	// this experiment's own, and count allocation from here.
	runtime.GC()
	obs := &runObserver{}
	runtime.ReadMemStats(&obs.begin)
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
