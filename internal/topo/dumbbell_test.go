package topo

import (
	"testing"

	"faircc/internal/net"
	"faircc/internal/sim"
)

func TestDumbbellShape(t *testing.T) {
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	cfg := DefaultDumbbell()
	d := NewDumbbell(nw, cfg)
	if got := len(d.Senders); got != cfg.NumSenders() {
		t.Fatalf("senders = %d, want %d", got, cfg.NumSenders())
	}
	if len(d.Receivers) != len(d.Senders) || len(d.Class) != len(d.Senders) {
		t.Fatalf("receivers=%d classes=%d, want %d of each",
			len(d.Receivers), len(d.Class), len(d.Senders))
	}
	// Class runs group-major: the first group's Count senders are class 0.
	want := 0
	idx := 0
	for gi, g := range cfg.Groups {
		for i := 0; i < g.Count; i++ {
			if d.Class[idx] != gi {
				t.Fatalf("Class[%d] = %d, want %d", idx, d.Class[idx], gi)
			}
			idx++
		}
		want += g.Count
	}
	// Bottleneck port belongs to the left switch and peers with the right.
	if d.BottleneckPort.Owner().NodeID() != d.Left.NodeID() {
		t.Fatal("BottleneckPort not owned by the left switch")
	}
	if d.BottleneckPort.Peer().Owner().NodeID() != d.Right.NodeID() {
		t.Fatal("BottleneckPort does not peer with the right switch")
	}
}

func TestDumbbellHopsAndClassBaseRTT(t *testing.T) {
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	cfg := DefaultDumbbell()
	d := NewDumbbell(nw, cfg)

	// Every sender->receiver path crosses exactly the two switches.
	for i, s := range d.Senders {
		hops, _, _, err := nw.ProbePath(net.FlowSpec{
			ID: i + 1, Src: s.NodeID(), Dst: d.Receivers[i].NodeID(), Size: 1})
		if err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
		if hops != 2 {
			t.Fatalf("sender %d: hops = %d, want 2", i, hops)
		}
	}

	rtts := d.ClassBaseRTT(nw)
	if len(rtts) != 2 {
		t.Fatalf("classes = %d, want 2", len(rtts))
	}
	fast, slow := rtts[0], rtts[1]
	if fast >= slow {
		t.Fatalf("fast RTT %v not below slow RTT %v", fast, slow)
	}
	// One-way propagation: fast 3 us, slow 27 us; round trip doubles it and
	// serialization adds a little. The heterogeneity the class split is
	// meant to model must actually be there: slow/fast well above 5x.
	if fast < 6*sim.Microsecond || fast > 7*sim.Microsecond {
		t.Fatalf("fast class base RTT = %v, want 6-7 us", fast)
	}
	if slow < 54*sim.Microsecond || slow > 55*sim.Microsecond {
		t.Fatalf("slow class base RTT = %v, want 54-55 us", slow)
	}
}

func TestDumbbellTrafficDelivers(t *testing.T) {
	eng := sim.NewEngine()
	nw := net.New(eng, 3)
	d := NewDumbbell(nw, DefaultDumbbell())
	for i, s := range d.Senders {
		nw.AddFlow(net.FlowSpec{ID: i + 1, Src: s.NodeID(),
			Dst: d.Receivers[i].NodeID(), Size: 100_000,
			Start: sim.Time(i) * sim.Microsecond}, lineRateAlgo())
	}
	eng.Run()
	if !nw.AllFinished() {
		t.Fatal("not all flows finished")
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestDumbbellValidate(t *testing.T) {
	if err := (DumbbellConfig{}).Validate(); err == nil {
		t.Fatal("empty config must not validate")
	}
	bad := DefaultDumbbell()
	bad.Groups[0].Count = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-count group must not validate")
	}
	bad = DefaultDumbbell()
	bad.Groups[1].AccessDelay = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero access delay must not validate")
	}
	bad = DefaultDumbbell()
	bad.BottleneckBps = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bottleneck rate must not validate")
	}
	if err := DefaultDumbbell().Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
}
