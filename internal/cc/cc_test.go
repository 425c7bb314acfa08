package cc

import (
	"testing"

	"faircc/internal/sim"
)

func TestBDPBytes(t *testing.T) {
	cases := []struct {
		bps  float64
		rtt  sim.Time
		want float64
	}{
		{100e9, 5 * sim.Microsecond, 62_500},
		{100e9, 4 * sim.Microsecond, 50_000}, // the paper's ~50KB min BDP
		{400e9, sim.Microsecond, 50_000},
		{10e9, sim.Millisecond, 1_250_000},
	}
	for _, c := range cases {
		got := BDPBytes(c.bps, c.rtt)
		if got < c.want*(1-1e-12) || got > c.want*(1+1e-12) {
			t.Errorf("BDPBytes(%v, %v) = %v, want %v", c.bps, c.rtt, got, c.want)
		}
	}
}

func TestTelemetryZeroValueUsable(t *testing.T) {
	// Packets carry empty INT stacks before any switch stamps them; the
	// zero Telemetry must be inert.
	var tel Telemetry
	if tel.QueueBytes != 0 || tel.TxBytes != 0 || tel.TS != 0 {
		t.Fatal("zero Telemetry not zero")
	}
}
