package metrics

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"faircc/internal/net"
	"faircc/internal/sim"
)

// RunStats is the run-level observability snapshot: the engine and network
// counters of one or more simulations (an experiment typically runs one
// simulation per protocol variant or seed), plus wall-clock rates and
// process memory filled in by Finish. It is the record future performance
// PRs compare against — "measurably faster" means a higher EventsPerSec on
// the same experiment and scale.
type RunStats struct {
	Runs int `json:"runs"` // simulations aggregated into this snapshot

	// Engine counters (summed across runs).
	Events          uint64 `json:"events"` // events executed
	EventsScheduled uint64 `json:"events_scheduled"`
	PeakPending     int    `json:"peak_events_pending"` // max over runs
	// EventsLaned is how many of Events came off the engines' delay lanes
	// (sim.Lane: link arrivals and standard-size serialization ends) and
	// never entered the engines' heaps, summed across runs. Lanes splits it
	// by delay, summed over runs, in ascending delay order. Events -
	// EventsLaned is the heaps' load.
	EventsLaned uint64          `json:"events_laned"`
	Lanes       []sim.LaneStats `json:"lanes,omitempty"`

	// Simulated time covered, summed across runs.
	SimSeconds float64 `json:"sim_seconds"`

	// Network counters (net.Counters.Add across runs), and the packet-pool
	// reuse rate Finish derives from them.
	net.Counters
	PoolReuseRate float64 `json:"pool_reuse_rate"`

	// Wall-clock figures, filled in by Finish.
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`

	// Process heap (runtime.MemStats), filled in by Finish: HeapAlloc at
	// snapshot time, TotalAlloc and NumGC since the runs began.
	// PeakHeapBytes is the largest heap in use (HeapInuse) seen while the
	// runs went: the caller raises it from samples taken as the runs step,
	// and Finish from the heap at its own call.
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	PeakHeapBytes   uint64 `json:"peak_heap_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
}

// CollectRun snapshots one finished simulation as a single-run RunStats:
// the counters of the network and of its engine, and the simulated time
// the engine's clock reached. It merges them into an empty snapshot with
// Add, so one run's lanes are sorted by the same rule as many runs'.
func CollectRun(nw *net.Network) RunStats {
	es := nw.Eng.Stats()
	var s RunStats
	s.Add(RunStats{Runs: 1, Events: es.Steps, EventsScheduled: es.Scheduled,
		PeakPending: es.PeakPending, EventsLaned: es.Laned, Lanes: es.Lanes,
		SimSeconds: nw.Eng.Now().Seconds(), Counters: nw.Stats().Counters})
	return s
}

// addLanes folds per-lane counts into s.Lanes, one row per delay, sorted.
func (s *RunStats) addLanes(lanes []sim.LaneStats) {
	for _, l := range lanes {
		i := 0
		for i < len(s.Lanes) && s.Lanes[i].Delay < l.Delay {
			i++
		}
		if i == len(s.Lanes) || s.Lanes[i].Delay != l.Delay {
			s.Lanes = slices.Insert(s.Lanes, i, sim.LaneStats{Delay: l.Delay})
		}
		s.Lanes[i].Events += l.Events
	}
}

// Add merges another snapshot into s (summing counters, taking the max of
// per-run peaks). Rates are recomputed by Finish.
func (s *RunStats) Add(o RunStats) {
	s.Runs += o.Runs
	s.Events += o.Events
	s.EventsScheduled += o.EventsScheduled
	if o.PeakPending > s.PeakPending {
		s.PeakPending = o.PeakPending
	}
	s.EventsLaned += o.EventsLaned
	s.addLanes(o.Lanes)
	s.SimSeconds += o.SimSeconds
	s.Counters.Add(o.Counters)
}

// Finish records the wall-clock duration the runs took, derives the rates,
// and captures process memory against begin, read when the runs began.
// Call it once, after the last Add.
func (s *RunStats) Finish(wall time.Duration, begin *runtime.MemStats) {
	s.WallSeconds = wall.Seconds()
	if s.WallSeconds > 0 {
		s.EventsPerSec = float64(s.Events) / s.WallSeconds
	}
	if s.PoolGets > 0 {
		s.PoolReuseRate = 1 - float64(s.PoolAllocs)/float64(s.PoolGets)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.HeapAllocBytes = m.HeapAlloc
	s.PeakHeapBytes = max(s.PeakHeapBytes, m.HeapInuse)
	s.TotalAllocBytes = m.TotalAlloc - begin.TotalAlloc
	s.NumGC = m.NumGC - begin.NumGC
}

// String renders the headline numbers for terminal output. Loss-path
// counters are appended only when the run actually dropped or recovered
// anything, so lossless output is unchanged.
func (s RunStats) String() string {
	out := fmt.Sprintf(
		"%d run(s): %d events (%d laned, %d queued) in %.2fs (%.2fM ev/s), %d data pkts, %d acks, "+
			"pool reuse %.1f%%, peak heap %.1f MB",
		s.Runs, s.Events, s.EventsLaned, s.Events-s.EventsLaned,
		s.WallSeconds, s.EventsPerSec/1e6,
		s.DataSent, s.AcksSent,
		100*s.PoolReuseRate, float64(s.PeakHeapBytes)/1e6)
	if drops := s.Drops(); drops > 0 || s.Retransmits > 0 {
		out += fmt.Sprintf(", %d drops (%d buffer, %d wire), %d retransmits, %d RTOs",
			drops, s.BufferDrops, s.WireDrops, s.Retransmits, s.RTOFires)
	}
	return out
}
