package topo

import (
	"math"
	"strings"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/net"
	"faircc/internal/sim"
)

type fixedAlgo struct{ ctl cc.Control }

func (a *fixedAlgo) Init(*cc.Env) cc.Control      { return a.ctl }
func (a *fixedAlgo) OnAck(cc.Feedback) cc.Control { return a.ctl }

func lineRateAlgo() cc.Algorithm {
	return &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: 100e9}}
}

func TestStarShape(t *testing.T) {
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	st := NewStar(nw, 17, 100e9, sim.Microsecond)
	if len(st.Hosts) != 17 || len(st.HostPorts) != 17 {
		t.Fatalf("hosts=%d ports=%d, want 17", len(st.Hosts), len(st.HostPorts))
	}
	hops, _, _, err := nw.ProbePath(net.FlowSpec{ID: 1, Src: st.Hosts[0].NodeID(),
		Dst: st.Hosts[16].NodeID(), Size: 1000})
	if err != nil || hops != 1 {
		t.Fatalf("star path hops = %d (%v), want 1", hops, err)
	}
}

func TestDefaultFatTreeMatchesPaper(t *testing.T) {
	cfg := DefaultFatTree()
	if cfg.NumHosts() != 320 {
		t.Fatalf("hosts = %d, want 320", cfg.NumHosts())
	}
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	ft := NewFatTree(nw, cfg)
	if len(ft.ToRs) != 20 {
		t.Fatalf("ToRs = %d, want 20", len(ft.ToRs))
	}
	if len(ft.Aggs) != 20 {
		t.Fatalf("Aggs = %d, want 20", len(ft.Aggs))
	}
	if len(ft.Spines) != 16 {
		t.Fatalf("Spines = %d, want 16", len(ft.Spines))
	}
	if len(ft.Hosts) != 320 {
		t.Fatalf("hosts = %d, want 320", len(ft.Hosts))
	}
	// Each agg has ToRsPerPod downlinks + Spines/AggsPerPod uplinks = 8.
	for i, agg := range ft.Aggs {
		if got := len(agg.Ports()); got != 8 {
			t.Fatalf("agg %d has %d ports, want 8", i, got)
		}
	}
	// Each spine connects once per pod.
	for i, sp := range ft.Spines {
		if got := len(sp.Ports()); got != 5 {
			t.Fatalf("spine %d has %d ports, want 5", i, got)
		}
	}
	// Each ToR: 16 host ports + 4 agg uplinks.
	for i, tor := range ft.ToRs {
		if got := len(tor.Ports()); got != 20 {
			t.Fatalf("ToR %d has %d ports, want 20", i, got)
		}
	}
}

func TestFatTreeHopCounts(t *testing.T) {
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	ft := NewFatTree(nw, DefaultFatTree())
	cases := []struct {
		name     string
		src, dst int
		hops     int
	}{
		{"same ToR", 0, 1, 1},
		{"same pod, different ToR", 0, 16, 3},
		{"cross pod", 0, 64, 5}, // pod 0 -> pod 1
		{"far cross pod", 5, 319, 5},
	}
	for _, c := range cases {
		hops, _, _, err := nw.ProbePath(net.FlowSpec{ID: c.src*1000 + c.dst,
			Src: ft.Hosts[c.src].NodeID(), Dst: ft.Hosts[c.dst].NodeID(), Size: 1000})
		if err != nil || hops != c.hops {
			t.Errorf("%s: hops = %d (%v), want %d (max 5 per the paper)", c.name, hops, err, c.hops)
		}
	}
}

func TestFatTreeAllPairsRoutable(t *testing.T) {
	// A scaled-down tree, every ordered pair: AddFlow panics on any broken
	// route, so AddFlow across all pairs is the connectivity check; the
	// hops are the path a probe walks.
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	ft := NewFatTree(nw, DefaultFatTree().Scaled(2, 2, 2))
	n := len(ft.Hosts)
	if n != 8 {
		t.Fatalf("scaled hosts = %d, want 8", n)
	}
	id := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			id++
			spec := net.FlowSpec{ID: id, Src: ft.Hosts[i].NodeID(), Dst: ft.Hosts[j].NodeID(), Size: 1000}
			nw.AddFlow(spec, lineRateAlgo())
			if hops, _, _, err := nw.ProbePath(spec); err != nil || hops > 5 || hops < 1 {
				t.Fatalf("pair (%d,%d): hops = %d (%v)", i, j, hops, err)
			}
		}
	}
}

func TestFatTreeTrafficDelivers(t *testing.T) {
	// End-to-end: a mesh of flows across a scaled tree all complete and
	// conserve bytes.
	eng := sim.NewEngine()
	nw := net.New(eng, 7)
	ft := NewFatTree(nw, DefaultFatTree().Scaled(2, 2, 2))
	n := len(ft.Hosts)
	for i := 0; i < n; i++ {
		dst := (i + 3) % n
		nw.AddFlow(net.FlowSpec{ID: i + 1, Src: ft.Hosts[i].NodeID(),
			Dst: ft.Hosts[dst].NodeID(), Size: 200_000,
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

func TestFatTreeECMPUsesMultiplePaths(t *testing.T) {
	// Many cross-pod flows from one host: spine downlink tx counters show
	// that more than one spine carried traffic.
	eng := sim.NewEngine()
	nw := net.New(eng, 3)
	ft := NewFatTree(nw, DefaultFatTree().Scaled(2, 2, 2))
	for i := 0; i < 16; i++ {
		src := i % 4 // hosts in pod 0
		nw.AddFlow(net.FlowSpec{ID: 100 + i, Src: ft.Hosts[src].NodeID(),
			Dst: ft.Hosts[4+(i%4)].NodeID(), Size: 50_000}, lineRateAlgo())
	}
	eng.Run()
	used := 0
	for _, sp := range ft.Spines {
		var tx int64
		for _, p := range sp.Ports() {
			tx += p.TxBytes()
		}
		if tx > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d spines carried traffic; ECMP not spreading", used)
	}
}

func TestFatTreeValidate(t *testing.T) {
	bad := DefaultFatTree()
	bad.Spines = 15 // not a multiple of AggsPerPod
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for spines not multiple of aggs")
	}
	bad = DefaultFatTree()
	bad.Pods = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for zero pods")
	}
	// Regression: Spines: 0 used to slip through — it was absent from the
	// positive-count check and 0 % AggsPerPod == 0 satisfied the
	// multiple-of check, so NewFatTree built a spineless tree whose
	// cross-pod routes were empty and AddFlow failed with "no route".
	bad = DefaultFatTree()
	bad.Spines = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for zero spines")
	}
	bad = DefaultFatTree()
	bad.ToRUplinkBps = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for negative ToR uplink rate")
	}
	// A ToR uplink rate nothing can serialize on: below 1 b/s a packet's
	// transmit time overflows sim.Time, and at +Inf it is zero.
	for _, bps := range []float64{1e-289, math.Inf(1)} {
		bad = DefaultFatTree()
		bad.ToRUplinkBps = bps
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "ToR uplink") {
			t.Fatalf("ToR uplink rate %g: err = %v, want the rate named", bps, err)
		}
	}
	if err := DefaultFatTree().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestFatTreeOversubscribed(t *testing.T) {
	// Ratio math: Oversubscribed(r) must make OversubscriptionRatio
	// report r, and the default tree is 1:1.
	if got := DefaultFatTree().OversubscriptionRatio(); got != 1 {
		t.Fatalf("default ratio = %v, want 1", got)
	}
	cfg := DefaultFatTree().Oversubscribed(4)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.OversubscriptionRatio(); got != 4 {
		t.Fatalf("ratio = %v, want 4", got)
	}
	// 16 hosts x 100G over 4 uplinks at ratio 4 -> 100G per uplink.
	if cfg.ToRUplinkBps != 100e9 {
		t.Fatalf("uplink = %v, want 100e9", cfg.ToRUplinkBps)
	}

	// The uplink rate must reach the wire: a cross-ToR path through a
	// 2:1-oversubscribed scaled tree bottlenecks at the ToR uplink, not
	// the host link.
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	scfg := DefaultFatTree().Scaled(2, 2, 2).Oversubscribed(2)
	ft := NewFatTree(nw, scfg)
	_, _, minBw, err := nw.ProbePath(net.FlowSpec{ID: 1,
		Src: ft.Hosts[0].NodeID(), Dst: ft.Hosts[2].NodeID(), Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantUplink := float64(scfg.HostsPerToR) * scfg.HostBps / (float64(scfg.AggsPerPod) * 2)
	if minBw != wantUplink {
		t.Fatalf("cross-ToR bottleneck = %v, want ToR uplink %v", minBw, wantUplink)
	}
	// Same-ToR paths never cross an uplink and stay at host rate.
	_, _, minBw, err = nw.ProbePath(net.FlowSpec{ID: 2,
		Src: ft.Hosts[0].NodeID(), Dst: ft.Hosts[1].NodeID(), Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if minBw != scfg.HostBps {
		t.Fatalf("same-ToR bottleneck = %v, want host rate %v", minBw, scfg.HostBps)
	}
}

// TestK16FatTree checks the k=16-style two-tier-pod Clos that -pods 16
// -tors 8 -hosts 32 scales the paper's fabric to: 16 pods of 8 ToRs and 8
// Aggs, 64 spines, 4096 hosts.
func TestK16FatTree(t *testing.T) {
	cfg := DefaultFatTree().Scaled(16, 8, 32)
	if cfg.Spines != 64 {
		t.Fatalf("spines = %d, want 64", cfg.Spines)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumHosts() != 4096 {
		t.Fatalf("hosts = %d, want 4096", cfg.NumHosts())
	}
	if got := cfg.OversubscriptionRatio(); got != 1 {
		t.Fatalf("base ratio = %v, want 1 (non-blocking)", got)
	}
	over := cfg.Oversubscribed(4)
	if got := over.OversubscriptionRatio(); got != 4 {
		t.Fatalf("oversubscribed ratio = %v, want 4", got)
	}
	// 32 hosts x 100G over 8 uplinks at 4:1 -> 100G uplinks.
	if over.ToRUplinkBps != 100e9 {
		t.Fatalf("uplink = %v, want 100e9", over.ToRUplinkBps)
	}
}

func TestFatTreeBaseRTT(t *testing.T) {
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	ft := NewFatTree(nw, DefaultFatTree())
	// Cross-pod flow: 6 links, 12 us of propagation round trip, plus
	// serialization on each hop. Base RTT must be a bit above 12 us.
	_, rtt, _, err := nw.ProbePath(net.FlowSpec{ID: 1, Src: ft.Hosts[0].NodeID(),
		Dst: ft.Hosts[319].NodeID(), Size: 1000})
	if err != nil || rtt < 12*sim.Microsecond || rtt > 13*sim.Microsecond {
		t.Fatalf("cross-pod base RTT = %v (%v), want 12-13us", rtt, err)
	}
}

func TestScaledConfigurations(t *testing.T) {
	cases := []struct {
		pods, tors, hosts int
		wantHosts         int
	}{
		{2, 2, 2, 8},
		{2, 2, 8, 32},
		{3, 2, 4, 24},
		{5, 4, 16, 320}, // scaling back up to the paper's size
	}
	for _, c := range cases {
		cfg := DefaultFatTree().Scaled(c.pods, c.tors, c.hosts)
		if err := cfg.Validate(); err != nil {
			t.Errorf("Scaled(%d,%d,%d) invalid: %v", c.pods, c.tors, c.hosts, err)
			continue
		}
		if cfg.NumHosts() != c.wantHosts {
			t.Errorf("Scaled(%d,%d,%d) hosts = %d, want %d",
				c.pods, c.tors, c.hosts, cfg.NumHosts(), c.wantHosts)
		}
		// Build it and check a cross-pod flow routes.
		eng := sim.NewEngine()
		nw := net.New(eng, 1)
		ft := NewFatTree(nw, cfg)
		hops, _, _, err := nw.ProbePath(net.FlowSpec{ID: 1, Src: ft.Hosts[0].NodeID(),
			Dst: ft.Hosts[len(ft.Hosts)-1].NodeID(), Size: 1000})
		if err != nil || hops != 5 {
			t.Errorf("Scaled(%d,%d,%d) cross-pod hops = %d (%v), want 5",
				c.pods, c.tors, c.hosts, hops, err)
		}
	}
}

func TestFatTreeNonOversubscribed(t *testing.T) {
	// The paper's fat-tree is 1:1 at every layer: per-ToR host capacity
	// (16 x 100G) equals its uplink capacity (4 x 400G), and per-Agg
	// downlink capacity equals its spine uplinks.
	cfg := DefaultFatTree()
	hostCap := float64(cfg.HostsPerToR) * cfg.HostBps
	torUp := float64(cfg.AggsPerPod) * cfg.FabricBps
	if hostCap != torUp {
		t.Fatalf("ToR oversubscribed: hosts %v vs uplinks %v", hostCap, torUp)
	}
	aggDown := float64(cfg.ToRsPerPod) * cfg.FabricBps
	aggUp := float64(cfg.Spines/cfg.AggsPerPod) * cfg.FabricBps
	if aggDown != aggUp {
		t.Fatalf("Agg oversubscribed: down %v vs up %v", aggDown, aggUp)
	}
}

func TestFatTreeECMPBalanceAcrossAggs(t *testing.T) {
	// Many same-pod cross-ToR flows from varied sources: all four Aggs of
	// the pod should carry traffic.
	eng := sim.NewEngine()
	nw := net.New(eng, 5)
	ft := NewFatTree(nw, DefaultFatTree())
	id := 0
	for src := 0; src < 16; src++ { // ToR 0 hosts
		for k := 0; k < 4; k++ {
			id++
			dst := 16 + (id % 16) // ToR 1 hosts, same pod
			nw.AddFlow(net.FlowSpec{ID: id, Src: ft.Hosts[src].NodeID(),
				Dst: ft.Hosts[dst].NodeID(), Size: 20_000}, lineRateAlgo())
		}
	}
	eng.Run()
	used := 0
	for a := 0; a < 4; a++ { // pod 0 aggs
		for _, p := range ft.Aggs[a].Ports() {
			if p.TxBytes() > 0 {
				used++
				break
			}
		}
	}
	if used < 3 {
		t.Fatalf("only %d of 4 pod aggs carried traffic; ECMP skewed", used)
	}
}

func TestStarHostPortIdentity(t *testing.T) {
	eng := sim.NewEngine()
	nw := net.New(eng, 1)
	st := NewStar(nw, 4, 100e9, sim.Microsecond)
	// HostPorts[i] must be the switch-side port whose peer is host i.
	for i, p := range st.HostPorts {
		if p.Peer().Owner().NodeID() != st.Hosts[i].NodeID() {
			t.Fatalf("HostPorts[%d] peers with node %d, want host %d",
				i, p.Peer().Owner().NodeID(), st.Hosts[i].NodeID())
		}
		if p.Owner().NodeID() != st.Switch.NodeID() {
			t.Fatalf("HostPorts[%d] not owned by the switch", i)
		}
	}
}

// TestNewFatTreeAllocations pins the cost of building the paper's 320-host
// tree: nodes, ports, forwarding rows and the builder's own slices, and
// nothing per single-port route. When each of those routes allocated its
// one-element variadic slice, a build made 8 659 allocations.
func TestNewFatTreeAllocations(t *testing.T) {
	cfg := DefaultFatTree()
	allocs := testing.AllocsPerRun(3, func() { NewFatTree(net.New(sim.NewEngine(), 1), cfg) })
	t.Logf("%.0f allocations per 320-host fat-tree", allocs)
	if allocs > 2200 {
		t.Errorf("building the 320-host fat-tree made %.0f allocations, want at most 2200", allocs)
	}
}

// BenchmarkNewFatTree times building the paper's 320-host fat-tree, routes
// included, on a fresh network.
func BenchmarkNewFatTree(b *testing.B) {
	cfg := DefaultFatTree()
	b.ReportAllocs()
	for range b.N {
		NewFatTree(net.New(sim.NewEngine(), 1), cfg)
	}
}
