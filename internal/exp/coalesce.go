package exp

import (
	"fmt"

	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/par"
)

// The ack-coalesce experiment measures the controlled divergence that
// receiver-side ACK coalescing (net.Network.AckCoalesce) introduces: the
// same fig10 scenario — Hadoop traffic on the fat-tree under all four
// protocols — run with per-packet ACKs (the paper's model, the recorded
// goldens) and with coalescing on, side by side. The interesting outputs
// are the FCT-slowdown percentiles per mode (how much the coarser ACK
// cadence costs the congestion-control loops) and the ACK counters (how
// much reverse-path event traffic disappears). EXPERIMENTS.md records the
// divergence table this produces.

func init() {
	register(&Experiment{
		Name: "ack-coalesce",
		Title: "Receiver ACK coalescing: FCT divergence vs reverse-path savings, " +
			"Hadoop traffic on the fat-tree",
		Run: runAckCoalesce,
	})
}

// coalesceOut is one (variant, mode) run's output.
type coalesceOut struct {
	records []metrics.FlowRecord
	stats   net.NetworkStats
}

// coalesceModeLabel names the two ACK models in series labels and notes.
func coalesceModeLabel(coalesce bool) string {
	if coalesce {
		return "coalesced"
	}
	return "per-packet"
}

func runAckCoalesce(cfg Config) (*Result, error) {
	ftCfg, duration, err := dcScale(cfg)
	if err != nil {
		return nil, err
	}
	specs, err := dcTraffic(cfg, ftCfg, duration, "hadoop", dcLoad)
	if err != nil {
		return nil, err
	}
	p := dcParams(dcMinBDP(ftCfg), ftCfg.HostBps)
	vs := dcVariants(p)

	// All (variant, mode) pairs in parallel: i%len(vs) picks the variant,
	// i/len(vs) the mode, so the two modes of one variant share identical
	// traffic and differ only in the receiver's ACK model.
	outs, err := par.MapErr(2*len(vs), cfg.Workers, func(i int) (coalesceOut, error) {
		c := cfg
		c.AckCoalesce = i >= len(vs)
		records, stats, err := runDC(c, vs[i%len(vs)], ftCfg, specs)
		if err != nil {
			return coalesceOut{}, fmt.Errorf("%s: %w", coalesceModeLabel(c.AckCoalesce), err)
		}
		return coalesceOut{records: records, stats: stats}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Name: "ack-coalesce",
		Title:  "FCT slowdown, per-packet vs coalesced ACKs",
		XLabel: "flow size (bytes)",
		YLabel: "p99.9 FCT slowdown"}
	res.Notef("scale=%s hosts=%d duration=%v load=%.0f%% flows=%d",
		cfg.Scale, ftCfg.NumHosts(), duration, dcLoad*100, len(specs))

	for i, o := range outs {
		label := fmt.Sprintf("%s (%s)", vs[i%len(vs)].label, coalesceModeLabel(i >= len(vs)))
		res.Series = append(res.Series, slowdownSeries(label, o.records, 100, 99.9))
		note := label + ":"
		for _, pct := range []float64{50, 99, 99.9} {
			if sd, err := metrics.SlowdownAbove(o.records, 0, pct); err == nil {
				note += fmt.Sprintf(" p%v=%.2fx", pct, sd)
			}
		}
		if sd, err := metrics.SlowdownAbove(o.records, 1_000_000, 99.9); err == nil {
			note += fmt.Sprintf(" long(>1MB)p99.9=%.1fx", sd)
		}
		res.Notes = append(res.Notes, note)
	}

	// Pair the modes per variant: reverse-path savings and conservation.
	for i, v := range vs {
		off, on := outs[i], outs[i+len(vs)]
		merged := on.stats.AcksSent + on.stats.AcksCoalesced
		if merged != on.stats.DataDelivered+on.stats.DataOutOfSeq {
			return nil, fmt.Errorf("%s: ack conservation broke: sent %d + coalesced %d != delivered %d + outOfSeq %d",
				v.label, on.stats.AcksSent, on.stats.AcksCoalesced,
				on.stats.DataDelivered, on.stats.DataOutOfSeq)
		}
		rate := 0.0
		if merged > 0 {
			rate = 100 * float64(on.stats.AcksCoalesced) / float64(merged)
		}
		res.Notef("%s: acks on the wire %d -> %d (%d merged, %.1f%% of acknowledgements)",
			v.label, off.stats.AcksSent, on.stats.AcksSent, on.stats.AcksCoalesced, rate)
	}
	return res, nil
}
