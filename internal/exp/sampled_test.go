package exp

import (
	"strings"
	"testing"

	"faircc/internal/net"
	"faircc/internal/topo"
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

// A run that can make no progress — every ACK is lost and nothing
// retransmits — ends as soon as only sampler ticks are left to execute, with
// the unfinished flows as its error: samplers that tick for as long as a run
// lasts must not keep a dead run alive.
func TestStuckRunEndsWithUnfinishedFlows(t *testing.T) {
	dropAcks := func(nw *net.Network, _ *topo.Star) {
		nw.DropFilter = func(kind net.Kind, _ int, _ int64) bool { return kind == net.Ack }
	}
	_, err := runIncast(Config{Seed: 1}, hpccBaselines()[0], paperIncast(4), dropAcks)
	if err == nil || !strings.Contains(err.Error(), "4 of 4 flows did not finish") {
		t.Fatalf("err = %v, want the flows-did-not-finish error", err)
	}
}
