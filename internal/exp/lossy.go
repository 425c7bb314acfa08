package exp

import (
	"fmt"

	"faircc/internal/net"
	"faircc/internal/topo"
)

// The lossy experiments exercise the robustness subsystem: finite switch
// buffers with tail drop, random wire loss, and the sender-side RTO /
// go-back-N recovery path. Swift — one of the paper's two substrate
// protocols — targets exactly this kind of lossy, PFC-free fabric, so
// the interesting question is how the VAI SF mechanism behaves when the
// network can actually lose its packets.

const (
	// lossyBufferBytes is the per-egress buffer of the lossy runs:
	// 150 KB, below the ~240 KB the unbounded 16-1 incast peaks at, so
	// the buffer genuinely binds.
	lossyBufferBytes = 150_000
	// lossyDropProb is the random per-packet wire-loss probability
	// applied to data and ACKs alike (5e-4 ≈ a handful of losses per
	// 16 MB incast wave).
	lossyDropProb = 5e-4
)

// lossyKnobs resolves the experiment's defaults against any -buffer-bytes
// / -drop-* overrides in the config.
func lossyKnobs(cfg Config) (buf int64, pData, pAck float64) {
	buf, pData, pAck = int64(lossyBufferBytes), lossyDropProb, lossyDropProb
	if cfg.BufferBytes > 0 {
		buf = cfg.BufferBytes
	}
	if cfg.DropDataProb > 0 {
		pData = cfg.DropDataProb
	}
	if cfg.DropAckProb > 0 {
		pAck = cfg.DropAckProb
	}
	return buf, pData, pAck
}

func init() {
	register(single("incast-lossy", "16-1 incast on a lossy fabric: finite buffers, random "+
		"wire loss, RTO/go-back-N recovery", runLossyIncast))
	register(single("incast-pfc-vs-lossy", "16-1 incast, lossless (PFC) vs lossy (tail drop + RTO) "+
		"fabric, Swift variants", runPFCVsLossy))
}

func runLossyIncast(cfg Config) (*Result, error) {
	p := starParams(starMinBDP(16), hostRate)
	buf, pData, pAck := lossyKnobs(cfg)
	lossy := func(nw *net.Network, st *topo.Star) {
		nw.LossRecovery = true
		nw.DropDataProb = pData
		nw.DropAckProb = pAck
		for _, sp := range st.Switch.Ports() {
			sp.SetBuffer(buf)
		}
	}
	outs, err := runIncastSet(cfg, dcVariants(p), paperIncast(16), lossy)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: "incast-lossy", Title: "Incast on a lossy fabric",
		XLabel: "time (us)", YLabel: "bottleneck queue (KB)"}
	for _, out := range outs {
		res.Series = append(res.Series, out.queue)
		res.Notef("%s: %d drops (%d buffer, %d wire), %d retransmits, %d RTOs, %d dup ACKs; "+
			"max queue %.0f KB, last finish %.0f us",
			out.label, out.stats.Drops(), out.stats.BufferDrops, out.stats.WireDrops,
			out.stats.Retransmits, out.stats.RTOFires, out.stats.DupAcks,
			out.maxQueueKB, out.lastFinish.Microseconds())
	}
	return res, nil
}

// runPFCVsLossy contrasts the two ways a fabric survives congestion with
// the same finite buffers: PFC backpressure (lossless — pauses instead of
// drops) versus tail drop with end-to-end recovery. The PFC arm doubles
// as a live losslessness check: any drop there is an error.
func runPFCVsLossy(cfg Config) (*Result, error) {
	p := starParams(starMinBDP(16), hostRate)
	buf, pData, pAck := lossyKnobs(cfg)
	modes := []struct {
		name  string
		setup func(*net.Network, *topo.Star)
	}{
		// Aggressive pause thresholds: PFC engages well before the buffer
		// fills, so finite buffers cannot drop (the headroom invariant the
		// losslessness property test checks at the unit level).
		{"PFC", func(nw *net.Network, st *topo.Star) {
			nw.PFCPauseBytes = 24_000
			nw.PFCResumeBytes = 12_000
			for _, sp := range st.Switch.Ports() {
				sp.SetBuffer(1_000_000)
			}
		}},
		{"lossy", func(nw *net.Network, st *topo.Star) {
			nw.LossRecovery = true
			nw.DropDataProb = pData
			nw.DropAckProb = pAck
			for _, sp := range st.Switch.Ports() {
				sp.SetBuffer(buf)
			}
		}},
	}
	vs := []variant{swiftBaselines(p)[0], swiftVAISF(p)}
	res := &Result{Name: "incast-pfc-vs-lossy", Title: "PFC vs lossy fabric",
		XLabel: "time (us)", YLabel: "bottleneck queue (KB)"}
	for _, mode := range modes {
		outs, err := runIncastSet(cfg, vs, paperIncast(16), mode.setup)
		if err != nil {
			return nil, fmt.Errorf("%s/%w", mode.name, err)
		}
		for _, out := range outs {
			if mode.name == "PFC" && out.stats.Drops() > 0 {
				return nil, fmt.Errorf("%s/%s: losslessness violated: %d drops with PFC engaged",
					mode.name, out.label, out.stats.Drops())
			}
			s := out.queue
			s.Label = mode.name + " " + out.label
			res.Series = append(res.Series, s)
			res.Notef("%s %s: %d drops, %d PFC pauses, %d retransmits; max queue %.0f KB, last finish %.0f us",
				mode.name, out.label, out.stats.Drops(), out.stats.PFCPauses,
				out.stats.Retransmits, out.maxQueueKB, out.lastFinish.Microseconds())
		}
	}
	return res, nil
}
