package net

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

// TestInitialRTOClamped pins the initial-RTO derivation across the three
// regimes of 4*baseRTT relative to [RTOMin, RTOMax]. The high-delay case
// is the regression for the missing RTOMax clamp: on a 10 ms WAN-edge
// link 4*baseRTT is ~80 ms, and only post-backoff doubling was capped, so
// a first loss waited 8x longer than any later one.
func TestInitialRTOClamped(t *testing.T) {
	cases := []struct {
		name  string
		delay sim.Time
		want  func(nw *Network, f *Flow) sim.Time
	}{
		{"below-min", 1 * usec, func(nw *Network, f *Flow) sim.Time { return nw.RTOMin }},
		{"in-range", 100 * usec, func(nw *Network, f *Flow) sim.Time { return 4 * f.baseRTT }},
		{"above-max", 10 * sim.Millisecond, func(nw *Network, f *Flow) sim.Time { return nw.RTOMax }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			nw := New(eng, 1)
			h0, h1 := nw.AddHost(), nw.AddHost()
			nw.Connect(h0, h1, gbps100, tc.delay)
			algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
			f := nw.AddFlow(FlowSpec{ID: 1, Src: h0.NodeID(), Dst: h1.NodeID(),
				Size: 1000}, algo)
			eng.Step() // the start
			if want := tc.want(nw, f); f.run.rtoBase != want || f.run.rto != want {
				t.Fatalf("delay %v: rtoBase=%v rto=%v, want %v (baseRTT=%v RTOMin=%v RTOMax=%v)",
					tc.delay, f.run.rtoBase, f.run.rto, want, f.baseRTT, nw.RTOMin, nw.RTOMax)
			}
		})
	}

	// Sanity-check the above-max case really is above: the clamp test is
	// vacuous if 4*baseRTT were inside the band.
	eng := sim.NewEngine()
	nw := New(eng, 1)
	h0, h1 := nw.AddHost(), nw.AddHost()
	nw.Connect(h0, h1, gbps100, 10*sim.Millisecond)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: h0.NodeID(), Dst: h1.NodeID(), Size: 1000}, algo)
	eng.Step() // the start
	if 4*f.baseRTT <= nw.RTOMax {
		t.Fatalf("precondition: 4*baseRTT=%v should exceed RTOMax=%v", 4*f.baseRTT, nw.RTOMax)
	}
}

// TestHoursLongPaths: a 1000 h link's round trip fits the clock, but four
// of them do not; the first timeout then saturates into the RTOMax clamp,
// where a wrapped 4*baseRTT went negative and clamped to RTOMin. Two such
// links in a row do not fit at all, and the path is refused: ProbePath
// returns an error and AddFlow panics naming the flow, instead of summing
// the base RTT past the end of the clock.
func TestHoursLongPaths(t *testing.T) {
	const hour = 3600 * sim.Second
	nw := New(sim.NewEngine(), 1)
	h0, h1 := nw.AddHost(), nw.AddHost()
	nw.Connect(h0, h1, gbps100, 1000*hour)
	spec := FlowSpec{ID: 7, Src: h0.NodeID(), Dst: h1.NodeID(), Size: 1000}
	_, rtt, _, err := nw.ProbePath(spec)
	if err != nil || rtt < 2000*hour {
		t.Fatalf("1000 h link: ProbePath = (%v, %v), want a base RTT over 2000 h", rtt, err)
	}
	if got := nw.initialRTO(rtt); got != nw.RTOMax {
		t.Errorf("initial RTO on a %v round trip is %v, want RTOMax %v", rtt, got, nw.RTOMax)
	}
	nw.RTOMax = 0
	if got, want := nw.initialRTO(rtt), sim.Time(4*(math.MaxInt64/4)); got != want {
		t.Errorf("initial RTO without RTOMax on a %v round trip is %v, want it saturated at %v", rtt, got, want)
	}

	nw = New(sim.NewEngine(), 1)
	h0, h1 = nw.AddHost(), nw.AddHost()
	sw := nw.AddSwitch()
	nw.Connect(h0, sw, gbps100, 1000*hour)
	nw.Connect(sw, h1, gbps100, 1000*hour)
	sw.AddRoute(h1.NodeID(), sw.ports[1])
	sw.AddRoute(h0.NodeID(), sw.ports[0])
	spec = FlowSpec{ID: 7, Src: h0.NodeID(), Dst: h1.NodeID(), Size: 1000}
	if _, rtt, _, err := nw.ProbePath(spec); err == nil || !strings.Contains(err.Error(), "flow 7") {
		t.Fatalf("two 1000 h links: ProbePath = (%v, %v), want an error naming flow 7", rtt, err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "flow 7") {
			t.Fatalf("AddFlow on two 1000 h links: panic %v, want one naming flow 7", r)
		}
	}()
	nw.AddFlow(spec, &fixedAlgo{})
}

// TestRTORecoveryOnHighDelayPath drops one mid-flow data packet on a path
// whose 4*baseRTT exceeds RTOMax and checks the flow still completes —
// i.e. the clamped timeout actually fires and go-back-N refills the gap
// within a horizon that the unclamped ~80 ms timeout would bust less
// comfortably.
func TestRTORecoveryOnHighDelayPath(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, 1)
	nw.LossRecovery = true
	dropped := false
	nw.DropFilter = func(kind Kind, flowID int, seq int64) bool {
		if kind == Data && seq == 5000 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	h0, h1 := nw.AddHost(), nw.AddHost()
	nw.Connect(h0, h1, gbps100, 10*sim.Millisecond)
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: h0.NodeID(), Dst: h1.NodeID(),
		Size: 20_000}, algo)

	deadline := 200 * sim.Millisecond
	for eng.Step() && eng.Now() < deadline {
	}
	if !f.finished {
		t.Fatalf("flow not finished by %v after one drop (rto=%v)", deadline, f.run.rto)
	}
	if !dropped {
		t.Fatal("drop filter never matched; test exercised nothing")
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// The recovery must have used the clamped timeout: a single RTO fire
	// at ~80 ms plus the ~20 ms baseRTT redelivery would land near 100 ms;
	// with the 10 ms clamp the finish time stays well under 60 ms.
	if fct := f.FCT(); fct > 60*sim.Millisecond {
		t.Fatalf("FCT %v suggests the unclamped RTO fired (want < 60 ms)", fct)
	}
}

// TestRTOBackoffNoOverflow is the regression test for unbounded backoff
// with RTOMax unset: f.rto used to double unconditionally, so ~37
// consecutive timeouts (from a 100 us base, in picoseconds) wrapped it
// negative and the next deadline was scheduled in the past. A permanently
// down link forces timeouts indefinitely; the backoff must plateau at
// rtoBackoffCeiling with deadlines strictly in the future throughout.
func TestRTOBackoffNoOverflow(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, 1)
	nw.LossRecovery = true
	nw.RTOMax = 0 // explicitly unset: only the ceiling bounds the doubling
	h0, h1 := nw.AddHost(), nw.AddHost()
	nw.Connect(h0, h1, gbps100, usec)
	h0.Port().SetLinkDown(true) // never comes back: every retransmission is lost
	algo := &fixedAlgo{ctl: cc.Control{WindowBytes: 1e9, RateBps: gbps100}}
	f := nw.AddFlow(FlowSpec{ID: 1, Src: h0.NodeID(), Dst: h1.NodeID(),
		Size: 10_000}, algo)

	const wantTimeouts = 80 // well past the ~37 that used to overflow
	prevDeadline := sim.Time(0)
	for eng.Step() && f.Timeouts < wantTimeouts {
		if f.run.rto <= 0 {
			t.Fatalf("rto wrapped to %v after %d timeouts", f.run.rto, f.Timeouts)
		}
		if f.run.rto > rtoBackoffCeiling {
			t.Fatalf("rto %v exceeds ceiling %v", f.run.rto, sim.Time(rtoBackoffCeiling))
		}
		if f.run.rtoDeadline < prevDeadline {
			t.Fatalf("rto deadline moved backwards: %v -> %v after %d timeouts",
				prevDeadline, f.run.rtoDeadline, f.Timeouts)
		}
		prevDeadline = f.run.rtoDeadline
		if f.run.rtoDeadline < eng.Now() {
			t.Fatalf("rto deadline %v in the past (now %v) after %d timeouts",
				f.run.rtoDeadline, eng.Now(), f.Timeouts)
		}
	}
	if f.Timeouts < wantTimeouts {
		t.Fatalf("engine drained after %d timeouts, want %d (RTO chain broke)",
			f.Timeouts, wantTimeouts)
	}
	if f.run.rto != rtoBackoffCeiling {
		t.Fatalf("rto = %v after %d timeouts, want plateau at ceiling %v",
			f.run.rto, f.Timeouts, sim.Time(rtoBackoffCeiling))
	}
}
