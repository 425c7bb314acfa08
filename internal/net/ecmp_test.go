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
			if hostPorts[host.NodeID()].ownSw == tor {
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

// walkRoute replays the per-hop reference lookup from src toward dst — the
// flow hash over each switch's members, picked here rather than by the
// walk under test — and returns the egress port chosen at every switch.
func walkRoute(t *testing.T, from *Host, dst, flowID int) []*Port {
	t.Helper()
	var path []*Port
	port := from.port
	for steps := 0; ; steps++ {
		if steps > 64 {
			t.Fatalf("routing loop toward host %d", dst)
		}
		switch node := port.peer.Owner().(type) {
		case *Host:
			if node.id != dst {
				t.Fatalf("walk reached host %d, want %d", node.id, dst)
			}
			return path
		case *Switch:
			g := node.members(dst)
			if len(g) == 0 {
				t.Fatalf("switch %d: no route to host %d", node.id, dst)
			}
			out := g[ecmpHash(flowID, node.id, len(g))]
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
	// The paths must also deliver: run the traffic to completion. The
	// starts derive each flow's hops.
	eng.Run()
	for _, f := range flows {
		if !f.Finished() {
			t.Fatalf("flow %d did not finish over its flat path", f.Spec.ID)
		}
		src, dst := nw.findHost(f.Spec.Src), nw.findHost(f.Spec.Dst)
		wantFwd := walkRoute(t, src, f.Spec.Dst, f.Spec.ID)
		wantRev := walkRoute(t, dst, f.Spec.Src, f.Spec.ID)
		probe := &Flow{Spec: f.Spec, net: nw}
		path, _ := probe.walk(src, nil)
		hops := probe.Hops()
		if hops != f.Hops() {
			t.Fatalf("flow %d: a walk found %d hops, the start %d", f.Spec.ID, hops, f.Hops())
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
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestAddRouteAfterAddFlowPanics: routes are fixed at the first flow or
// probe, because both check routes against summaries made then, and every
// flow forwards by the path its start resolves.
func TestAddRouteAfterAddFlowPanics(t *testing.T) {
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	for name, check := range map[string]func(*Network, FlowSpec){
		"AddFlow":   func(nw *Network, spec FlowSpec) { nw.AddFlow(spec, algo) },
		"ProbePath": func(nw *Network, spec FlowSpec) { nw.ProbePath(spec) },
	} {
		_, nw, hosts, tors, _ := leafSpine(t, 2, 2, 2)
		check(nw, FlowSpec{ID: 1, Src: hosts[0].NodeID(), Dst: hosts[2].NodeID(), Size: 20_000})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddRoute after %s did not panic", name)
				}
			}()
			tors[0].AddRoute(hosts[0].NodeID(), hosts[0].port.peer)
		}()
	}
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

// TestFindHost: findHost maps a host's id to it and any other id to nil,
// and AddFlow from an id that is not a host panics, naming the id.
func TestFindHost(t *testing.T) {
	_, nw, hosts, tors, _ := leafSpine(t, 2, 2, 2)
	for _, h := range hosts {
		if got := nw.findHost(h.NodeID()); got != h {
			t.Fatalf("findHost(%d) returned wrong host", h.NodeID())
		}
	}
	for _, bad := range []int{-1, tors[0].NodeID(), 1 << 20} {
		if got := nw.findHost(bad); got != nil {
			t.Fatalf("findHost(%d) = host %d, want nil", bad, got.id)
		}
		func() {
			want := fmt.Sprintf("net: no host with id %d", bad)
			defer func() {
				if r := recover(); fmt.Sprint(r) != want {
					t.Fatalf("AddFlow from %d panicked with %v, want %q", bad, r, want)
				}
			}()
			nw.AddFlow(FlowSpec{ID: 1, Src: bad, Dst: hosts[0].NodeID(), Size: 1000}, &fixedAlgo{})
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

// TestAddFlowRefusesBrokenRoutes: AddFlow reads the route summaries, which
// hold a route to every ECMP member below it, so a broken member refuses
// every flow toward its host — also one whose hash avoids it, as each row
// but the two missing routes checks — and it does so inside AddFlow, before
// any event runs, with the error ProbePath returns. The fabric is a
// diamond, h0 - s1 - {s2, s3} - s4 - h1, with h2 on s3; each row breaks it
// in one way.
func TestAddFlowRefusesBrokenRoutes(t *testing.T) {
	const hour = 3600 * sim.Second
	type diamond struct {
		nw         *Network
		h0, h1, h2 *Host
		s1, s2     *Switch
		s3, s4     *Switch
		up         [2]*Port // s1 toward s2 and s3
		back       [4]*Port // s2 and s3 toward s1, s4 toward s3 and s2
		down       [3]*Port // s2 and s3 toward s4, s4 toward h1
		toH0, toH2 *Port    // s1 toward h0, s3 toward h2
	}
	build := func(uplink, viaS3 sim.Time) *diamond {
		nw := New(sim.NewEngine(), 1)
		d := &diamond{nw: nw, h0: nw.AddHost(), h1: nw.AddHost(), h2: nw.AddHost()}
		d.s1, d.s2, d.s3, d.s4 = nw.AddSwitch(), nw.AddSwitch(), nw.AddSwitch(), nw.AddSwitch()
		d.toH0, _ = nw.Connect(d.s1, d.h0, gbps100, uplink)
		d.up[0], d.back[0] = nw.Connect(d.s1, d.s2, gbps100, usec)
		d.up[1], d.back[1] = nw.Connect(d.s1, d.s3, gbps100, usec)
		d.down[0], d.back[3] = nw.Connect(d.s2, d.s4, gbps100, usec)
		d.down[1], d.back[2] = nw.Connect(d.s3, d.s4, gbps100, viaS3)
		d.down[2], _ = nw.Connect(d.s4, d.h1, gbps100, usec)
		d.toH2, _ = nw.Connect(d.s3, d.h2, gbps100, usec)
		return d
	}
	// routes installs every route toward h1 but noFwd's and every route
	// back to h0 but noBack's.
	routes := func(d *diamond, noFwd, noBack *Switch) {
		for _, r := range []struct {
			sw    *Switch
			dst   *Host
			ports []*Port
		}{
			{d.s1, d.h1, d.up[:]}, {d.s2, d.h1, d.down[0:1]}, {d.s3, d.h1, d.down[1:2]}, {d.s4, d.h1, d.down[2:3]},
			{d.s4, d.h0, d.back[3:4]}, {d.s2, d.h0, d.back[0:1]}, {d.s3, d.h0, d.back[1:2]}, {d.s1, d.h0, []*Port{d.toH0}},
		} {
			if r.dst == d.h1 && r.sw != noFwd || r.dst == d.h0 && r.sw != noBack {
				r.sw.AddRoute(r.dst.NodeID(), r.ports...)
			}
		}
	}
	rows := []struct {
		name    string
		avoided bool // the flow's own hashed path is sound
		broken  func() (*diamond, string)
	}{
		{"missing forward route", false, func() (*diamond, string) {
			d := build(usec, usec)
			routes(d, d.s4, nil)
			return d, fmt.Sprintf("switch %d has no route to host %d", d.s4.NodeID(), d.h1.NodeID())
		}},
		{"missing ack route", false, func() (*diamond, string) {
			d := build(usec, usec)
			routes(d, nil, d.s4)
			return d, fmt.Sprintf("ack switch %d has no route to host %d", d.s4.NodeID(), d.h0.NodeID())
		}},
		{"loop behind one member", true, func() (*diamond, string) {
			d := build(usec, usec)
			routes(d, d.s3, nil)
			d.s3.AddRoute(d.h1.NodeID(), d.back[1]) // back up to s1
			return d, fmt.Sprintf("routing loop toward host %d", d.h1.NodeID())
		}},
		{"member reaches another host", true, func() (*diamond, string) {
			d := build(usec, usec)
			routes(d, d.s3, nil)
			d.s3.AddRoute(d.h1.NodeID(), d.toH2)
			return d, fmt.Sprintf("switch %d routes traffic for host %d to host %d", d.s3.NodeID(), d.h1.NodeID(), d.h2.NodeID())
		}},
		{"1000 h link behind one member", true, func() (*diamond, string) {
			d := build(1000*hour, 1000*hour)
			routes(d, nil, nil)
			return d, "base RTT beyond the simulator's clock"
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			d, want := row.broken()
			// The first flow id whose hash at s1 picks s2, avoiding s3.
			id := 1
			for g := d.s1.members(d.h1.NodeID()); g[ecmpHash(id, d.s1.id, len(g))] != d.up[0]; {
				id++
			}
			spec := FlowSpec{ID: id, Src: d.h0.NodeID(), Dst: d.h1.NodeID(), Size: 1000}
			if row.avoided {
				// Its own path walks, and its round trip fits the clock.
				f := &Flow{Spec: spec, net: d.nw}
				if f.walk(d.h0, nil); f.baseRTT <= 0 {
					t.Fatalf("flow %d's own path has base RTT %v", id, f.baseRTT)
				}
			}
			if _, _, _, err := d.nw.ProbePath(spec); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("ProbePath error = %v, want one containing %q", err, want)
			}
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
						t.Errorf("AddFlow panic = %v, want one containing %q", r, want)
					}
				}()
				d.nw.AddFlow(spec, &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}})
			}()
			if n, pending := d.nw.NumFlows(), d.nw.Eng.Pending(); n != 0 || pending != 0 {
				t.Errorf("refused flow left %d flows and %d pending events", n, pending)
			}
		})
	}
}

// TestAddRouteGroupsAcrossCalls: ports added toward one host by two calls,
// one port and then two more, form one three-member ECMP group in call
// order, and a flow's walk takes the member its hash picks. The fabric is
// h0 - s0 - {m0, m1, m2} - s1 - h1.
func TestAddRouteGroupsAcrossCalls(t *testing.T) {
	nw := New(sim.NewEngine(), 1)
	h0, h1 := nw.AddHost(), nw.AddHost()
	s0, s1 := nw.AddSwitch(), nw.AddSwitch()
	toH0, _ := nw.Connect(s0, h0, gbps100, usec)
	toH1, _ := nw.Connect(s1, h1, gbps100, usec)
	var up, back [3]*Port
	for i := range up {
		m := nw.AddSwitch()
		var down, mBack *Port
		up[i], mBack = nw.Connect(s0, m, gbps100, usec)
		down, back[i] = nw.Connect(m, s1, gbps100, usec)
		m.AddRoute(h1.NodeID(), down)
		m.AddRoute(h0.NodeID(), mBack)
	}
	s0.AddRoute(h0.NodeID(), toH0)
	s0.AddRoute(h1.NodeID(), up[:1]...)
	s0.AddRoute(h1.NodeID(), up[1:]...)
	s1.AddRoute(h1.NodeID(), toH1)
	s1.AddRoute(h0.NodeID(), back[:]...)

	g := s0.members(h1.NodeID())
	if len(g) != 3 || g[0] != up[0] || g[1] != up[1] || g[2] != up[2] {
		t.Fatalf("s0's group toward h1 is %v, want the three uplinks in call order", g)
	}
	picked := map[*Port]int{}
	for id := 1; id <= 64; id++ {
		spec := FlowSpec{ID: id, Src: h0.NodeID(), Dst: h1.NodeID(), Size: 1000}
		if _, _, _, err := nw.ProbePath(spec); err != nil {
			t.Fatal(err)
		}
		path, _ := (&Flow{Spec: spec, net: nw}).walk(h0, nil)
		if want := g[ecmpHash(id, s0.id, len(g))]; path[0] != want {
			t.Fatalf("flow %d left s0 by another port than its hash picks", id)
		}
		picked[path[0]]++
	}
	if len(picked) != 3 {
		t.Fatalf("64 flows took %d of the 3 members", len(picked))
	}
}

// TestAddRouteKeepsCallerSlice: AddRoute keeps a caller's slice that
// several destinations share, and extending one destination's group
// writes neither into that slice's spare capacity nor into any other
// destination's group.
func TestAddRouteKeepsCallerSlice(t *testing.T) {
	nw := New(sim.NewEngine(), 1)
	h0, h1, h2 := nw.AddHost(), nw.AddHost(), nw.AddHost()
	sw := nw.AddSwitch()
	p0, _ := nw.Connect(sw, h0, gbps100, usec)
	p1, _ := nw.Connect(sw, h1, gbps100, usec)
	p2, _ := nw.Connect(sw, h2, gbps100, usec)
	shared := make([]*Port, 2, 4)
	shared[0], shared[1] = p0, p1
	sw.AddRoute(h0.NodeID(), shared...)
	sw.AddRoute(h1.NodeID(), shared...)
	sw.AddRoute(h0.NodeID(), p2)
	sw.AddRoute(h1.NodeID(), p0)

	same := func(got []*Port, want ...*Port) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if !same(shared[:cap(shared)], p0, p1, nil, nil) {
		t.Errorf("the caller's slice became %v", shared[:cap(shared)])
	}
	if g := sw.members(h0.NodeID()); !same(g, p0, p1, p2) {
		t.Errorf("group toward h0 is %v, want [p0 p1 p2]", g)
	}
	if g := sw.members(h1.NodeID()); !same(g, p0, p1, p0) {
		t.Errorf("group toward h1 is %v, want [p0 p1 p0]", g)
	}
	if g := sw.members(h2.NodeID()); g != nil {
		t.Errorf("h2 has no route, yet its group is %v", g)
	}
}
