package net

import (
	"fmt"
	"strings"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// leafSpine builds a two-tier Clos: nTors ToRs with hostsPerTor hosts
// each, fully meshed to nSpines spines. ToRs reach remote hosts through an
// ECMP group over every uplink; spines reach each host through the one
// downlink to its ToR.
func leafSpine(t *testing.T, nTors, hostsPerTor, nSpines int) (*sim.Engine, *Network, []*Host, []*Switch, []*Switch) {
	t.Helper()
	eng := sim.NewEngine()
	nw := New(eng, 1)
	tors := make([]*Switch, nTors)
	spines := make([]*Switch, nSpines)
	var hosts []*Host
	hostPorts := make(map[int]*Port) // host id -> its ToR's downlink
	for i := range tors {
		tors[i] = nw.AddSwitch()
	}
	for i := range spines {
		spines[i] = nw.AddSwitch()
	}
	uplinks := make([][]*Port, nTors)     // tor -> spine-facing ports
	downlinks := make([][]*Port, nSpines) // spine -> tor-facing ports, by tor
	for ti, tor := range tors {
		for _, sp := range spines {
			up, down := nw.Connect(tor, sp, gbps100, usec)
			uplinks[ti] = append(uplinks[ti], up)
			downlinks[ti] = append(downlinks[ti], down)
		}
	}
	for ti, tor := range tors {
		for h := 0; h < hostsPerTor; h++ {
			host := nw.AddHost()
			hosts = append(hosts, host)
			tp, _ := nw.Connect(tor, host, gbps100, usec)
			hostPorts[host.NodeID()] = tp
			tor.AddRoute(host.NodeID(), tp)
			for si := range spines {
				spines[si].AddRoute(host.NodeID(), downlinks[ti][si])
			}
		}
	}
	// Remote-host ECMP groups, installed after every host exists.
	for ti, tor := range tors {
		for _, host := range hosts {
			if hostPorts[host.NodeID()].owner == tor {
				continue
			}
			_ = ti
			tor.AddRoute(host.NodeID(), uplinks[ti]...)
		}
	}
	return eng, nw, hosts, tors, spines
}

// TestECMPHashUniformity bounds the per-port deviation of the flow hash:
// over many flow ids each group member must receive close to its fair
// share, or paper-scale fat-trees would systematically overload links.
func TestECMPHashUniformity(t *testing.T) {
	const flows = 100_000
	for _, n := range []int{2, 4, 8, 16} {
		for _, swID := range []int{0, 7, 129} {
			counts := make([]int, n)
			for id := 0; id < flows; id++ {
				j := ecmpHash(id, swID, n)
				if j < 0 || j >= n {
					t.Fatalf("ecmpHash(%d,%d,%d) = %d out of range", id, swID, n, j)
				}
				counts[j]++
			}
			mean := float64(flows) / float64(n)
			for j, c := range counts {
				dev := (float64(c) - mean) / mean
				if dev < -0.05 || dev > 0.05 {
					t.Fatalf("n=%d sw=%d port %d: count %d deviates %.1f%% from mean %.0f",
						n, swID, j, c, dev*100, mean)
				}
			}
		}
	}
}

// TestECMPHashLayerDecorrelation checks that consecutive switch layers make
// independent choices for the same flow: if layer choices were correlated,
// a fat-tree's spine layer would see only a fraction of its paths used.
func TestECMPHashLayerDecorrelation(t *testing.T) {
	const flows = 80_000
	const n = 4
	joint := make([]int, n*n)
	for id := 0; id < flows; id++ {
		a := ecmpHash(id, 3, n)
		b := ecmpHash(id, 11, n)
		joint[a*n+b]++
	}
	mean := float64(flows) / float64(n*n)
	for k, c := range joint {
		dev := (float64(c) - mean) / mean
		if dev < -0.10 || dev > 0.10 {
			t.Fatalf("combo (%d,%d): count %d deviates %.1f%% from mean %.0f",
				k/n, k%n, c, dev*100, mean)
		}
	}
}

// walkRoute replays the per-hop reference lookup from src toward dst and
// returns the egress port chosen at every switch.
func walkRoute(t *testing.T, from *Host, dst, flowID int) []*Port {
	t.Helper()
	var path []*Port
	port := from.port
	for steps := 0; ; steps++ {
		if steps > 64 {
			t.Fatalf("routing loop toward host %d", dst)
		}
		switch node := port.peer.owner.(type) {
		case *Host:
			if node.id != dst {
				t.Fatalf("walk reached host %d, want %d", node.id, dst)
			}
			return path
		case *Switch:
			out := node.lookupRoute(dst, flowID)
			if out == nil {
				t.Fatalf("switch %d: no route to host %d", node.id, dst)
			}
			path = append(path, out)
			port = out
		}
	}
}

// TestFlatPathMatchesRoute ties forwarding to the routes: the path a
// flow's start walks (and stamps onto every packet) must be bit-identical
// to what the per-hop reference lookup would choose, for data and for ACKs,
// across many flow ids.
func TestFlatPathMatchesRoute(t *testing.T) {
	eng, nw, hosts, _, _ := leafSpine(t, 4, 4, 4)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	var flows []*Flow
	for id := 1; id <= 200; id++ {
		src := hosts[id%len(hosts)]
		dst := hosts[(id*7+5)%len(hosts)]
		if src == dst {
			continue
		}
		flows = append(flows, nw.AddFlow(FlowSpec{
			ID: id, Src: src.NodeID(), Dst: dst.NodeID(), Size: 4000,
		}, algo))
	}
	for _, f := range flows {
		src, dst := nw.hostByID(f.Spec.Src), nw.hostByID(f.Spec.Dst)
		wantFwd := walkRoute(t, src, f.Spec.Dst, f.Spec.ID)
		wantRev := walkRoute(t, dst, f.Spec.Src, f.Spec.ID)
		path, hops, err := nw.walkPath(src, f.Spec, nil)
		if err != nil || hops != f.Hops() {
			t.Fatalf("flow %d: the start's walk found %d hops (%v), AddFlow %d", f.Spec.ID, hops, err, f.Hops())
		}
		fwd, rev := path[:hops], path[hops:]
		if len(fwd) != len(wantFwd) {
			t.Fatalf("flow %d: forward path len %d, want %d", f.Spec.ID, len(fwd), len(wantFwd))
		}
		for i := range wantFwd {
			if fwd[i] != wantFwd[i] {
				t.Fatalf("flow %d: forward path[%d] differs from reference route()", f.Spec.ID, i)
			}
		}
		if len(rev) != len(wantRev) {
			t.Fatalf("flow %d: reverse path len %d, want %d", f.Spec.ID, len(rev), len(wantRev))
		}
		for i := range wantRev {
			if rev[i] != wantRev[i] {
				t.Fatalf("flow %d: reverse path[%d] differs from reference route()", f.Spec.ID, i)
			}
		}
	}
	// The paths must also deliver: run the traffic to completion.
	eng.Run()
	for _, f := range flows {
		if !f.Finished() {
			t.Fatalf("flow %d did not finish over its flat path", f.Spec.ID)
		}
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestAddRouteAfterAddFlowPanics: routes are fixed at the first flow,
// because every flow forwards by the path resolved when it was added.
func TestAddRouteAfterAddFlowPanics(t *testing.T) {
	_, nw, hosts, tors, _ := leafSpine(t, 2, 2, 2)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	nw.AddFlow(FlowSpec{ID: 1, Src: hosts[0].NodeID(), Dst: hosts[2].NodeID(), Size: 20_000}, algo)
	defer func() {
		if recover() == nil {
			t.Fatal("AddRoute after AddFlow did not panic")
		}
	}()
	tors[0].AddRoute(hosts[0].NodeID(), hosts[0].port.peer)
}

// TestAddFlowRejectsMissingAckRoute: a flow whose ACKs have no route back
// is refused when it is added, not at its first ACK.
func TestAddFlowRejectsMissingAckRoute(t *testing.T) {
	nw := New(sim.NewEngine(), 1)
	h0, h1 := nw.AddHost(), nw.AddHost()
	sw := nw.AddSwitch()
	nw.Connect(h0, sw, gbps100, usec)
	_, toH1 := nw.Connect(h1, sw, gbps100, usec)
	sw.AddRoute(h1.NodeID(), toH1) // and none back to h0
	spec := FlowSpec{ID: 1, Src: h0.NodeID(), Dst: h1.NodeID(), Size: 1000}

	want := fmt.Sprintf("switch %d has no route to host %d", sw.NodeID(), h0.NodeID())
	if _, _, _, err := nw.ProbePath(spec); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ProbePath error = %v, want one containing %q", err, want)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("AddFlow panic = %v, want one containing %q", r, want)
		}
	}()
	nw.AddFlow(spec, &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
}

func TestHostByID(t *testing.T) {
	_, nw, hosts, tors, _ := leafSpine(t, 2, 2, 2)
	for _, h := range hosts {
		if got := nw.hostByID(h.NodeID()); got != h {
			t.Fatalf("hostByID(%d) returned wrong host", h.NodeID())
		}
	}
	for _, bad := range []int{-1, tors[0].NodeID(), 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("hostByID(%d) did not panic", bad)
				}
			}()
			nw.hostByID(bad)
		}()
	}
}

func TestProbePath(t *testing.T) {
	_, nw, hosts, _, _ := leafSpine(t, 2, 2, 2)
	src, dst := hosts[0], hosts[3]
	hops, baseRTT, minBw, err := nw.ProbePath(FlowSpec{ID: 9, Src: src.NodeID(), Dst: dst.NodeID()})
	if err != nil {
		t.Fatalf("ProbePath: %v", err)
	}
	if hops != 3 { // tor - spine - tor
		t.Fatalf("hops = %d, want 3", hops)
	}
	if baseRTT <= 0 || minBw != gbps100 {
		t.Fatalf("baseRTT=%v minBw=%v", baseRTT, minBw)
	}

	// Unknown source host: an error, not a panic.
	if _, _, _, err := nw.ProbePath(FlowSpec{ID: 9, Src: 1 << 20, Dst: dst.NodeID()}); err == nil {
		t.Fatal("ProbePath with unknown src did not error")
	}
	// Unroutable destination (a switch id): an error, not a panic.
	if _, _, _, err := nw.ProbePath(FlowSpec{ID: 9, Src: src.NodeID(), Dst: 1 << 20}); err == nil {
		t.Fatal("ProbePath with unroutable dst did not error")
	}

	// Probing reuses the network-owned scratch flow: steady state
	// allocates nothing.
	spec := FlowSpec{ID: 9, Src: src.NodeID(), Dst: dst.NodeID()}
	nw.ProbePath(spec) // warm the path scratch
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := nw.ProbePath(spec); err != nil {
			t.Fatalf("ProbePath: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ProbePath allocates %v objects per probe, want 0", allocs)
	}
}
