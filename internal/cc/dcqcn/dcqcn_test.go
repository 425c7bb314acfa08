package dcqcn

import (
	"math"
	"math/rand"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/sim"
)

const (
	lineRate = 100e9
	baseRTT  = 5 * sim.Microsecond
	mtu      = 1000
)

// fakeClock provides Env scheduling backed by a manual event list so the
// algorithm's timers can be driven without the full simulator.
type fakeClock struct {
	now    sim.Time
	events []fakeEvent
	ctl    cc.Control
}

type fakeEvent struct {
	at sim.Time
	fn func()
}

func (f *fakeClock) env() *cc.Env {
	return &cc.Env{
		LineRateBps: lineRate,
		BaseRTT:     baseRTT,
		MTU:         mtu,
		HopBps:      []float64{lineRate},
		Rand:        rand.New(rand.NewSource(1)),
		Timers:      f,
	}
}

// Schedule implements cc.Timers.
func (f *fakeClock) Schedule(d sim.Time, fn func()) {
	f.events = append(f.events, fakeEvent{f.now + d, fn})
}

// SetControl implements cc.Timers.
func (f *fakeClock) SetControl(c cc.Control) { f.ctl = c }

// advance runs timers up to t in order.
func (f *fakeClock) advance(t sim.Time) {
	for {
		best := -1
		for i, ev := range f.events {
			if ev.at <= t && (best == -1 || ev.at < f.events[best].at) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		ev := f.events[best]
		f.events = append(f.events[:best], f.events[best+1:]...)
		f.now = ev.at
		ev.fn()
	}
	f.now = t
}

func TestInitLineRate(t *testing.T) {
	fc := &fakeClock{}
	d := New(DefaultConfig())
	ctl := d.Init(fc.env())
	if ctl.RateBps != lineRate {
		t.Fatalf("initial rate = %v, want line rate", ctl.RateBps)
	}
	if d.Alpha() != 1 {
		t.Fatalf("initial alpha = %v, want 1", d.Alpha())
	}
}

func TestCNPCutsRate(t *testing.T) {
	fc := &fakeClock{}
	d := New(DefaultConfig())
	d.Init(fc.env())
	ctl := d.OnAck(cc.Feedback{Now: 0, NewlyAcked: mtu, ECE: true})
	// alpha was 1: Rc = Rc*(1 - 1/2) = 50G; alpha = (1-g)+g = 1.
	if math.Abs(ctl.RateBps-50e9) > 1 {
		t.Fatalf("rate after first CNP = %v, want 50G", ctl.RateBps)
	}
	ctl = d.OnAck(cc.Feedback{Now: 1, NewlyAcked: mtu, ECE: true})
	if math.Abs(ctl.RateBps-25e9) > 1 {
		t.Fatalf("rate after second CNP = %v, want 25G", ctl.RateBps)
	}
}

func TestAlphaDecaysWithoutCNPs(t *testing.T) {
	fc := &fakeClock{}
	d := New(DefaultConfig())
	d.Init(fc.env())
	d.OnAck(cc.Feedback{Now: 0, NewlyAcked: mtu, ECE: true})
	a0 := d.Alpha()
	fc.advance(10 * 55 * sim.Microsecond)
	if d.Alpha() >= a0 {
		t.Fatalf("alpha did not decay: %v -> %v", a0, d.Alpha())
	}
	// Roughly (1-g)^9..10 decay (first timer may coincide with the CNP window).
	lo := a0 * math.Pow(1-1.0/256, 11)
	if d.Alpha() < lo {
		t.Fatalf("alpha decayed too much: %v < %v", d.Alpha(), lo)
	}
}

func TestFastRecoveryHalvesGap(t *testing.T) {
	fc := &fakeClock{}
	d := New(DefaultConfig())
	d.Init(fc.env())
	d.OnAck(cc.Feedback{Now: 0, NewlyAcked: mtu, ECE: true}) // Rt=100G, Rc=50G
	rt, rc := d.rt, d.rc
	fc.advance(55 * sim.Microsecond) // one rate-timer: fast recovery
	want := (rt + rc) / 2
	if math.Abs(d.Rate()-want) > 1 {
		t.Fatalf("rate after fast recovery = %v, want %v", d.Rate(), want)
	}
	if d.rt != rt {
		t.Fatalf("target rate moved during fast recovery: %v -> %v", rt, d.rt)
	}
}

func TestAdditiveThenHyperIncrease(t *testing.T) {
	fc := &fakeClock{}
	cfg := DefaultConfig()
	d := New(cfg)
	d.Init(fc.env())
	d.OnAck(cc.Feedback{Now: 0, NewlyAcked: mtu, ECE: true})
	// After F timer expirations fast recovery ends; the next expirations
	// do additive increase (byte counter stays at 0 here).
	fc.advance(sim.Time(cfg.F+1) * cfg.RateTimer)
	rtBefore := d.rt
	fc.advance(sim.Time(cfg.F+2) * cfg.RateTimer)
	if math.Abs(d.rt-rtBefore) > cfg.RAIBps+1 {
		t.Fatalf("additive step = %v, want <= RAI %v", d.rt-rtBefore, cfg.RAIBps)
	}
	// Now drive the byte counter past F too: hyper increase engages.
	// (Rates are clamped to line rate, so watch rt only via the floor.)
	for i := 0; i < cfg.F+2; i++ {
		d.OnAck(cc.Feedback{Now: fc.now, NewlyAcked: int(cfg.ByteCounter)})
	}
	rt2 := d.rt
	fc.advance(fc.now + cfg.RateTimer)
	if d.rt < rt2 {
		t.Fatalf("hyper increase decreased rt: %v -> %v", rt2, d.rt)
	}
}

func TestRateFloorAndCeiling(t *testing.T) {
	fc := &fakeClock{}
	cfg := DefaultConfig()
	d := New(cfg)
	d.Init(fc.env())
	for i := 0; i < 200; i++ {
		d.OnAck(cc.Feedback{Now: sim.Time(i), NewlyAcked: mtu, ECE: true})
	}
	if d.Rate() < cfg.MinRateBps {
		t.Fatalf("rate %v below floor %v", d.Rate(), cfg.MinRateBps)
	}
	fc.advance(fc.now + sim.Second)
	if d.Rate() > lineRate {
		t.Fatalf("rate %v above line rate", d.Rate())
	}
}

func TestCNPResetsIncreaseState(t *testing.T) {
	fc := &fakeClock{}
	cfg := DefaultConfig()
	d := New(cfg)
	d.Init(fc.env())
	d.OnAck(cc.Feedback{Now: 0, NewlyAcked: mtu, ECE: true})
	fc.advance(sim.Time(cfg.F+3) * cfg.RateTimer) // into additive increase
	if d.timerCnt <= cfg.F {
		t.Fatalf("timerCnt = %d, want > F", d.timerCnt)
	}
	d.OnAck(cc.Feedback{Now: fc.now, NewlyAcked: mtu, ECE: true})
	if d.timerCnt != 0 || d.byteCnt != 0 {
		t.Fatalf("counters not reset: timer=%d byte=%d", d.timerCnt, d.byteCnt)
	}
}
