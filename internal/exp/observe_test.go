package exp

import (
	"slices"
	"sync"
	"testing"
	"time"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// Observability must be a pure read: enabling progress reporting and
// RunStats collection on a run cannot change any simulation result. The
// golden incast values are exact, so even a single extra or reordered event
// would fail this.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	p := starParams(16)
	v := hpccVAISF(p)

	bare, err := runIncast(Config{Seed: 1}, v, paperIncast(16), nil)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		updates []ProgressUpdate
	)
	obs := &runObserver{}
	cfg := Config{
		Seed:          1,
		ProgressEvery: time.Nanosecond, // report at every amortized check
		Progress: func(u ProgressUpdate) {
			mu.Lock()
			updates = append(updates, u)
			mu.Unlock()
		},
		obs: obs,
	}
	observed, err := runIncast(cfg, v, paperIncast(16), nil)
	if err != nil {
		t.Fatal(err)
	}

	if observed.convergeUs != bare.convergeUs {
		t.Errorf("convergeUs perturbed: %v vs %v", observed.convergeUs, bare.convergeUs)
	}
	if observed.maxQueueKB != bare.maxQueueKB {
		t.Errorf("maxQueueKB perturbed: %v vs %v", observed.maxQueueKB, bare.maxQueueKB)
	}
	if len(observed.jain.Y) != len(bare.jain.Y) {
		t.Fatalf("jain series length perturbed: %d vs %d", len(observed.jain.Y), len(bare.jain.Y))
	}
	for i := range bare.jain.Y {
		if observed.jain.Y[i] != bare.jain.Y[i] {
			t.Fatalf("jain[%d] perturbed: %v vs %v", i, observed.jain.Y[i], bare.jain.Y[i])
		}
	}
	for i := range bare.startFinish.Y {
		if observed.startFinish.Y[i] != bare.startFinish.Y[i] {
			t.Fatalf("startFinish[%d] perturbed: %v vs %v",
				i, observed.startFinish.Y[i], bare.startFinish.Y[i])
		}
	}

	if len(updates) == 0 {
		t.Fatal("no progress updates delivered")
	}
	final := updates[len(updates)-1]
	if !final.Done {
		t.Error("last progress update not marked Done")
	}
	if final.Label != v.label {
		t.Errorf("progress label = %q, want %q", final.Label, v.label)
	}
	if final.Events == 0 || final.SimTime == 0 {
		t.Errorf("final update has zero events (%d) or sim time (%v)", final.Events, final.SimTime)
	}

	stats := obs.finish(time.Second)
	if stats.Runs != 1 {
		t.Fatalf("observer aggregated %d runs, want 1", stats.Runs)
	}
	if stats.Events != final.Events {
		t.Errorf("RunStats events %d != final progress events %d", stats.Events, final.Events)
	}
	if stats.DataSent == 0 || stats.DataDelivered == 0 || stats.AcksSent == 0 {
		t.Errorf("packet counters empty: sent=%d delivered=%d acks=%d",
			stats.DataSent, stats.DataDelivered, stats.AcksSent)
	}
	if stats.DataDelivered > stats.DataSent {
		t.Errorf("delivered %d > sent %d", stats.DataDelivered, stats.DataSent)
	}
	// Every packet crosses the star's two links, and each crossing is one
	// laned serialization end and one laned arrival (every packet here is a
	// standard size): the lane count is exactly that, not an estimate, and
	// so is its split over the star's three constant delays — an ACK's and
	// a full data packet's time on a 100 Gb/s link, and the link delay.
	data, acks := uint64(stats.DataSent), uint64(stats.AcksSent)
	if want := 4 * (data + acks); stats.EventsLaned != want {
		t.Errorf("events_laned = %d, want %d (two serialization ends and two link arrivals per packet)", stats.EventsLaned, want)
	}
	wantLanes := []sim.LaneStats{
		{Delay: 5120 * sim.Picosecond, Events: 2 * acks},
		{Delay: 83840 * sim.Picosecond, Events: 2 * data},
		{Delay: sim.Microsecond, Events: 2 * (data + acks)},
	}
	if !slices.Equal(stats.Lanes, wantLanes) {
		t.Errorf("lanes = %+v, want %+v", stats.Lanes, wantLanes)
	}
	// The incast's flows are added in start order, so once they are set up
	// one start is pending, beside the two samplers' first ticks: the
	// network's one start event for the first flow, not one per flow.
	star := net.New(sim.NewEngine(), 1)
	buildIncast(star, v, paperIncast(16), nil, 16)
	if got := star.Eng.Pending(); got != 3 {
		t.Errorf("incast: %d events pending after set-up, want 3 (one start, two sampler ticks)", got)
	}
	// So are a mix workload's, whose two Poisson streams workload.Arrivals
	// merges, on the run path every datacenter experiment shares.
	mix := Config{Seed: 1, Scale: "small", DCWorkload: "mix"}
	plan, err := planDC(mix)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := dcTraffic(mix, plan.ftCfg, plan.duration, plan.workload, plan.load)
	if err != nil {
		t.Fatal(err)
	}
	dc := net.New(sim.NewEngine(), 1)
	topo.NewFatTree(dc, plan.ftCfg)
	src := traffic()
	for spec, ok := src.Next(); ok; spec, ok = src.Next() {
		dc.AddFlow(spec, plan.vs[0].make())
	}
	if got := dc.Eng.Pending(); got != 1 || dc.NumFlows() < 2 {
		t.Errorf("mix: %d events pending after adding %d flows, want 1", got, dc.NumFlows())
	}
}

// RunWithStats must aggregate every simulation an experiment executes, and
// the experiment's results must match a plain Run bit for bit.
func TestRunWithStatsMatchesRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = "small"
	cfg.Workers = 2

	plain, err := Run("fig1a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := RunWithStats("fig1a", cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Series) != len(plain.Series) {
		t.Fatalf("series count %d vs %d", len(res.Series), len(plain.Series))
	}
	for si := range plain.Series {
		if res.Series[si].Label != plain.Series[si].Label {
			t.Fatalf("series %d label %q vs %q", si, res.Series[si].Label, plain.Series[si].Label)
		}
		for i := range plain.Series[si].Y {
			if res.Series[si].Y[i] != plain.Series[si].Y[i] {
				t.Fatalf("series %q point %d: %v vs %v", plain.Series[si].Label, i,
					res.Series[si].Y[i], plain.Series[si].Y[i])
			}
		}
	}

	// fig1a shows the three HPCC baselines of a run that also simulates
	// HPCC VAI SF (for fig5a, fig5b and fig8): the stats are the run's.
	if len(res.Series) != 3 || stats.Runs != 4 {
		t.Errorf("%d series from %d simulations, want 3 from 4", len(res.Series), stats.Runs)
	}
	if stats.Events == 0 || stats.EventsScheduled < stats.Events {
		t.Errorf("implausible event counts: executed=%d scheduled=%d",
			stats.Events, stats.EventsScheduled)
	}
	if stats.WallSeconds <= 0 || stats.EventsPerSec <= 0 {
		t.Errorf("Finish not applied: wall=%v rate=%v", stats.WallSeconds, stats.EventsPerSec)
	}
	if stats.SimSeconds <= 0 {
		t.Errorf("SimSeconds = %v, want > 0", stats.SimSeconds)
	}
	if stats.PoolGets > 0 && (stats.PoolReuseRate < 0 || stats.PoolReuseRate > 1) {
		t.Errorf("PoolReuseRate = %v out of [0,1]", stats.PoolReuseRate)
	}
}

// Experiments with no packet simulation (the fluid model) report zero runs
// rather than failing.
func TestRunWithStatsFluidModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = "small"
	_, stats, err := RunWithStats("fig4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 0 {
		t.Errorf("fluid model reported %d packet runs, want 0", stats.Runs)
	}
}

// Each experiment's peak heap, allocation and collection count are its own:
// fig1a run after a larger experiment in the same process, as fairsim -all
// runs them, reads what it read before it, not the larger one's high-water
// mark or the process's running totals.
func TestPeakHeapIsEachExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 256-host fat-tree")
	}
	small := DefaultConfig()
	small.Scale = "small"
	large := DefaultConfig()
	large.DCPods, large.DCToRs, large.DCHostsPerToR = 8, 4, 8
	large.DCDuration, large.DCProtocol = 200*sim.Microsecond, "hpcc"
	run := func(name string, cfg Config) *metrics.RunStats {
		t.Helper()
		_, stats, err := RunWithStats(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	before := run("fig1a", small)
	big := run("dc", large)
	after := run("fig1a", small)
	t.Logf("fig1a alone: peak %d B, %d B allocated, %d collections; after dc (peak %d B, %d B, %d): %d B, %d B, %d",
		before.PeakHeapBytes, before.TotalAllocBytes, before.NumGC, big.PeakHeapBytes, big.TotalAllocBytes, big.NumGC,
		after.PeakHeapBytes, after.TotalAllocBytes, after.NumGC)
	if after.PeakHeapBytes > before.PeakHeapBytes*3/2 {
		t.Errorf("fig1a peaked at %d B after a run that peaked at %d B, and at %d B before it: the peak is not the experiment's own",
			after.PeakHeapBytes, big.PeakHeapBytes, before.PeakHeapBytes)
	}
	if big.PeakHeapBytes < 2*before.PeakHeapBytes {
		t.Errorf("the larger experiment peaked at %d B, fig1a at %d B: too close for this test to tell",
			big.PeakHeapBytes, before.PeakHeapBytes)
	}
	if after.TotalAllocBytes > before.TotalAllocBytes*3/2 || after.NumGC > before.NumGC*3/2+2 {
		t.Errorf("fig1a allocated %d B in %d collections after a run that allocated %d B in %d, and %d B in %d before it: the counts are not the experiment's own",
			after.TotalAllocBytes, after.NumGC, big.TotalAllocBytes, big.NumGC, before.TotalAllocBytes, before.NumGC)
	}
	if big.TotalAllocBytes < 2*before.TotalAllocBytes || big.NumGC <= before.NumGC {
		t.Errorf("the larger experiment allocated %d B in %d collections, fig1a %d B in %d: too close for this test to tell",
			big.TotalAllocBytes, big.NumGC, before.TotalAllocBytes, before.NumGC)
	}
}
