package exp

import (
	"faircc/internal/net"
	"faircc/internal/topo"
)

// The PFC experiment runs the 16-1 incast with finite switch buffers and
// priority flow control — the lossless-Ethernet setting the paper's
// introduction describes (PFC prevents drops but causes head-of-line
// blocking when buffers fill). It checks that congestion control keeps
// the network out of the PFC regime: with HPCC or its VAI SF variant the
// bottleneck queue should stay below a datacenter-realistic pause
// threshold, so PFC never engages and behaviour matches the
// infinite-buffer runs.

func init() {
	register(single("incast-pfc", "16-1 incast with finite buffers and PFC: congestion "+
		"control must avoid the pause regime", runPFCIncast))
}

func runPFCIncast(cfg Config) (*Result, error) {
	p := starParams(starMinBDP(16), hostRate)
	// A realistic per-ingress pause threshold for a shallow-buffer
	// switch: 512 KB, far above what HPCC-family control lets the 16-1
	// incast accumulate, but finite.
	pfc := func(nw *net.Network, _ *topo.Star) {
		nw.PFCPauseBytes = 512_000
		nw.PFCResumeBytes = 256_000
	}
	outs, err := runIncastSet(cfg, dcVariants(p), paperIncast(16), pfc)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: "incast-pfc", Title: "Incast under PFC",
		XLabel: "time (us)", YLabel: "bottleneck queue (KB)"}
	for _, out := range outs {
		res.Series = append(res.Series, out.queue)
		regime := "below"
		if out.stats.PFCPauses > 0 {
			regime = "REACHED"
		}
		res.Notef("%s: max queue %.0f KB, %d PFC pauses (%s the 512 KB pause threshold); converge %.0f us",
			out.label, out.maxQueueKB, out.stats.PFCPauses, regime, out.convergeUs)
	}
	return res, nil
}
