package timely

import (
	"math"
	"math/rand"
	"testing"

	"faircc/internal/cc"
	"faircc/internal/core"
	"faircc/internal/sim"
)

const (
	lineRate = 100e9
	baseRTT  = 5 * sim.Microsecond
	mtu      = 1000
)

func env() *cc.Env {
	return &cc.Env{
		LineRateBps: lineRate,
		BaseRTT:     baseRTT,
		MTU:         mtu,
		HopBps:      []float64{lineRate},
		Rand:        rand.New(rand.NewSource(5)),
	}
}

// ackUntilChange feeds ACKs with the given measured RTT until the rate
// changes once (or 100 ACKs pass), returning the rate delta.
func ackUntilChange(tl *Timely, acked *int64, rtt sim.Time) float64 {
	before := tl.Rate()
	for i := 0; i < 100; i++ {
		*acked += mtu
		tl.OnAck(cc.Feedback{Now: 0, RTT: rtt, AckedBytes: *acked,
			SentBytes: *acked + 10*mtu, NewlyAcked: mtu})
		if tl.Rate() != before {
			break
		}
	}
	return tl.Rate() - before
}

// ackRTT feeds a window's worth of ACKs (one nominal RTT).
func ackRTT(tl *Timely, acked *int64, rtt sim.Time) cc.Control {
	var ctl cc.Control
	for i := 0; i < 11; i++ {
		*acked += mtu
		ctl = tl.OnAck(cc.Feedback{Now: 0, RTT: rtt, AckedBytes: *acked,
			SentBytes: *acked + 10*mtu, NewlyAcked: mtu})
	}
	return ctl
}

func TestInitLineRate(t *testing.T) {
	tl := New(Config{})
	ctl := tl.Init(env())
	if ctl.RateBps != lineRate {
		t.Fatalf("initial rate = %v, want line rate", ctl.RateBps)
	}
}

func TestAdditiveIncreaseBelowTLow(t *testing.T) {
	tl := New(Config{})
	tl.Init(env())
	tl.rate = 50e9
	var acked int64
	step := ackUntilChange(tl, &acked, baseRTT) // rtt < tLow = base + 1us
	if math.Abs(step-50e6) > 1 {
		t.Fatalf("AI step = %v, want one delta (50e6)", step)
	}
}

func TestMultiplicativeDecreaseAboveTHigh(t *testing.T) {
	tl := New(Config{})
	tl.Init(env())
	var acked int64
	rtt := baseRTT + 100*sim.Microsecond // way above tHigh
	ackUntilChange(tl, &acked, rtt)
	// rate *= 1 - beta*(1 - tHigh/rtt) applied once
	factor := 1 - 0.8*(1-float64(baseRTT+20*sim.Microsecond)/float64(rtt))
	want := lineRate * factor
	if math.Abs(tl.Rate()-want) > want*1e-9 {
		t.Fatalf("rate = %v, want %v", tl.Rate(), want)
	}
}

func TestGradientDecrease(t *testing.T) {
	tl := New(Config{})
	tl.Init(env())
	var acked int64
	// Rising RTTs between tLow and tHigh: positive gradient, decrease.
	r0 := tl.Rate()
	for _, us := range []int{7, 8, 9, 10, 11, 12} {
		ackRTT(tl, &acked, sim.Time(us)*sim.Microsecond)
	}
	if tl.Rate() >= r0 {
		t.Fatalf("rate did not decrease under rising RTT: %v -> %v", r0, tl.Rate())
	}
}

func TestHyperactiveIncreaseAfterNegativeGradients(t *testing.T) {
	tl := New(Config{})
	tl.Init(env())
	tl.rate = 10e9
	var acked int64
	// Falling RTTs in the gradient band: negative gradient; after
	// haiAfter RTTs the step must be haiMult * delta.
	rtts := []int{12, 11, 10, 9, 8, 7}
	var before float64
	for i, us := range rtts {
		if i == len(rtts)-1 {
			before = tl.Rate()
		}
		ackRTT(tl, &acked, sim.Time(us)*sim.Microsecond+baseRTT)
	}
	step := tl.Rate() - before
	if math.Abs(step-5*50e6) > 1 {
		t.Fatalf("HAI step = %v, want 5*delta", step)
	}
}

func TestRateBounds(t *testing.T) {
	tl := New(Config{})
	tl.Init(env())
	var acked int64
	for i := 0; i < 100; i++ {
		ackRTT(tl, &acked, baseRTT+500*sim.Microsecond)
		if tl.Rate() < minRate {
			t.Fatalf("rate %v below floor", tl.Rate())
		}
	}
	for i := 0; i < 100000; i++ {
		ackRTT(tl, &acked, baseRTT)
	}
	if tl.Rate() > lineRate {
		t.Fatalf("rate %v above line rate", tl.Rate())
	}
}

func TestSFDecreasesMoreOftenForMoreAcks(t *testing.T) {
	// With SF, decreases fire every 30 ACKs: a flow receiving 60 ACKs per
	// RTT decreases twice as often as one receiving 30, for equal RTTs.
	count := func(acksPerRTT int) int {
		cfg := VAISFConfig(4 * sim.Microsecond)
		cfg.VAI = core.VAIConfig{}
		tl := New(cfg)
		tl.Init(env())
		var acked int64
		decreases := 0
		// Just above tHigh: each decrease is mild, so the rate never
		// hits the floor and every firing is observable.
		rtt := baseRTT + 22*sim.Microsecond
		for r := 0; r < 10; r++ {
			for i := 0; i < acksPerRTT; i++ {
				acked += mtu
				before := tl.Rate()
				tl.OnAck(cc.Feedback{RTT: rtt, AckedBytes: acked,
					SentBytes: acked + int64(acksPerRTT)*mtu, NewlyAcked: mtu})
				if tl.Rate() < before {
					decreases++
				}
			}
		}
		return decreases
	}
	few, many := count(30), count(60)
	if many < 2*few-2 {
		t.Fatalf("decreases: 30 acks/RTT -> %d, 60 acks/RTT -> %d; want ~2x", few, many)
	}
}

func TestVAITokensOnBigCongestion(t *testing.T) {
	tl := New(VAISFConfig(4 * sim.Microsecond))
	tl.Init(env())
	var acked int64
	// RTT far above tLow + 4us threshold mints tokens.
	ackRTT(tl, &acked, baseRTT+50*sim.Microsecond)
	if vai := tl.att.VAI(); vai.Bank() == 0 && vai.Multiplier() == 1 {
		t.Fatal("no tokens minted under heavy congestion")
	}
}
