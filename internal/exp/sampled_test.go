package exp

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
	"faircc/internal/workload"
)

// A run's sampled series last as long as the run, however long that is: a
// 2-1 incast of 1.3 GB flows finishes at 232 ms, past the 200 ms at which
// the samplers used to stop, and its queue series (one sample per
// microsecond) must reach the last finish, its Jain series the time both
// flows were last active together.
func TestSampledSeriesCoverTheWholeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("23M-event run")
	}
	in := incastShape{senders: 2, size: 1_300_000_000, group: 2}
	out, err := runIncast(Config{Seed: 1}, hpccBaselines()[0], in, nil)
	if err != nil {
		t.Fatal(err)
	}
	finish := out.lastFinish.Microseconds()
	if finish < 200_000 {
		t.Fatalf("last finish %.0f us: the run no longer outlasts 200 ms, lengthen it", finish)
	}
	if last := out.queue.X[len(out.queue.X)-1]; finish-last >= 1 {
		t.Errorf("queue series ends at %.1f us, last finish is %.1f us: more than one 1 us interval short", last, finish)
	}
	firstFinish := min(out.startFinish.Y[0], out.startFinish.Y[1])
	if last := out.jain.X[len(out.jain.X)-1]; firstFinish-last >= 5 {
		t.Errorf("Jain series ends at %.1f us, two flows were active until %.1f us: more than one 5 us interval short",
			last, firstFinish)
	}
}

// loseAcks is a WireLoss rule that loses every ACK.
func loseAcks(_ *rand.Rand, kind net.Kind, _ int, _ int64) bool { return kind == net.Ack }

// A run in which one flow can make no progress — every ACK of flow 1 is
// lost, so its loss recovery retransmits forever while the other flows
// finish — ends with that flow, and only that flow, as its error.
func TestStuckRunEndsWithUnfinishedFlows(t *testing.T) {
	dropFlow1Acks := func(nw *net.Network, _ *topo.Star) {
		nw.WireLoss = func(_ *rand.Rand, kind net.Kind, flowID int, _ int64) bool {
			return kind == net.Ack && flowID == 1
		}
	}
	_, err := runIncast(Config{Seed: 1}, hpccBaselines()[0], paperIncast(4), dropFlow1Acks)
	if err == nil || !strings.Contains(err.Error(), "1 of 4 flows did not finish") ||
		!strings.Contains(err.Error(), "flows [1] still active") {
		t.Fatalf("err = %v, want flow 1 alone unfinished", err)
	}
}

// Whatever re-arms itself in a stalled run, the watchdog ends it: here the
// go-back-N timeout chain of loss recovery on a network that loses every
// ACK, so no retransmission is ever acknowledged. The samplers that tick
// for as long as a run lasts must not keep it alive either. The run fails
// as stalled, naming its unfinished flows, its window and its active
// flows, within a second of wall time.
func TestStalledRunEnds(t *testing.T) {
	t.Run("HPCC LossRecovery", func(t *testing.T) {
		dropAcks := func(nw *net.Network, _ *topo.Star) {
			nw.WireLoss = loseAcks
		}
		start := time.Now()
		_, err := runIncast(Config{Seed: 1}, hpccBaselines()[0], paperIncast(4), dropAcks)
		if wall := time.Since(start); wall > time.Second {
			t.Errorf("the stalled run took %v of wall time to end, want under 1s", wall)
		}
		if err == nil || !strings.Contains(err.Error(), "4 of 4 flows did not finish") ||
			!strings.Contains(err.Error(), "stalled: no byte acknowledged in a") ||
			!strings.Contains(err.Error(), "flows [1 2 3 4] still active") {
			t.Fatalf("err = %v, want the stalled-flows error", err)
		}
	})
}

// The same holds whatever samplers the build started, because the watchdog
// reads the flows, not the pending events, and no caller declares its
// samplers: here a queue sampler and a Jain sampler that tick for as long as
// the run lasts, and a queue sampler whose chain ends mid-run. A run that
// never ends reaches the deadline in simulated time and fails there, before
// its series outgrow memory.
func TestStuckRunEndsWhateverItsSamplers(t *testing.T) {
	type pastDeadline struct{}
	cfg := Config{Seed: 1, ProgressEvery: time.Nanosecond, Progress: func(u ProgressUpdate) {
		if u.SimTime > 100*sim.Millisecond {
			panic(pastDeadline{})
		}
	}}
	defer func() {
		if r := recover(); r == (pastDeadline{}) {
			t.Fatal("the run was still going at 100 ms of simulated time: only sampler ticks kept it alive")
		} else if r != nil {
			panic(r)
		}
	}()
	in := paperIncast(4)
	var early *metrics.Series
	_, err := simulate(cfg, "stuck", func(nw *net.Network) {
		st := topo.NewStar(nw, in.senders+1, hostRate, linkDelay)
		nw.WireLoss = loseAcks
		srcs := []int{0, 1, 2, 3} // hosts are numbered in creation order; host 4 receives
		for _, spec := range workload.StaggeredIncast(srcs, in.senders, in.size, in.group, in.every, 0) {
			nw.AddFlow(spec, hpccBaselines()[0].make())
		}
		metrics.SampleQueue(nw.Eng, st.HostPorts[in.senders], "queue", sim.Microsecond, 0, forever)
		metrics.SampleJain(nw, "jain", 5*sim.Microsecond, 0, forever)
		early = metrics.SampleQueue(nw.Eng, st.HostPorts[0], "early", sim.Microsecond, 0, 10*sim.Microsecond)
	})
	if err == nil || !strings.Contains(err.Error(), "4 of 4 flows did not finish") {
		t.Fatalf("err = %v, want the flows-did-not-finish error", err)
	}
	if n := len(early.Points); n != 11 {
		t.Errorf("the chain ending at 10 us ticked %d times, want 11", n)
	}
}

// TestStallWindowFromRecordedMaximum: the watchdog's W reads the largest
// base RTT any added flow can have, which AddFlow records from the route
// summaries, where it used to read the handles' BaseRTT. On fig10-small's
// fat-tree and on the 16-1 star the two agree, so W is the window it was.
func TestStallWindowFromRecordedMaximum(t *testing.T) {
	cfg := Config{Seed: 1, Scale: "small"}
	ftCfg, duration, err := dcScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := dcTraffic(cfg, ftCfg, duration, "hadoop", dcLoad)
	if err != nil {
		t.Fatal(err)
	}
	dcHPCC := dcVariants(dcParams(ftCfg))[0]
	starHPCC := dcVariants(starParams(16))[0]
	builds := map[string]func(*net.Network){
		"fig10-small": func(nw *net.Network) {
			topo.NewFatTree(nw, ftCfg)
			src := traffic()
			for spec, ok := src.Next(); ok; spec, ok = src.Next() {
				nw.AddFlow(spec, dcHPCC.make())
			}
		},
		"16-1 star": func(nw *net.Network) { buildIncast(nw, starHPCC, paperIncast(16), nil, 16) },
	}
	for name, build := range builds {
		nw, err := simulate(cfg, name, build)
		if err != nil {
			t.Fatal(err)
		}
		var handles sim.Time // every flow has started, so every BaseRTT is set
		for i := range nw.NumFlows() {
			handles = max(handles, nw.Flow(i).BaseRTT())
		}
		old := max(sim.Millisecond, 1000*handles)
		if got := nw.StallWindow(); got != old {
			t.Errorf("%s: W %v, want %v from the handles' largest base RTT %v", name, got, old, handles)
		}
	}
}
