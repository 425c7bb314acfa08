package net

import "faircc/internal/sim"

// PooledStackCaps returns the INT stack capacity of every packet in the
// network's packet pools, shard by shard.
func PooledStackCaps(n *Network) []int {
	var caps []int
	for _, sh := range n.shards {
		for _, p := range sh.pool {
			caps = append(caps, int(p.intCap))
		}
	}
	return caps
}

// QueueRings returns the ring length of every egress queue, host uplinks
// first, then switch ports.
func QueueRings(n *Network) []int {
	var rings []int
	for _, h := range n.hosts {
		if h.port != nil {
			rings = append(rings, len(h.port.q.buf))
		}
	}
	for _, s := range n.switches {
		for _, pt := range s.ports {
			rings = append(rings, len(pt.q.buf))
		}
	}
	return rings
}

// RetireRuns makes n retire every finished flow's run slot instead of
// reusing it: the no-reuse reference a reusing run must reproduce.
func RetireRuns(n *Network) { n.retireRuns = true }

// MaxBaseRTT returns the largest base RTT any flow added so far can have,
// as AddFlow recorded it from the route summaries.
func MaxBaseRTT(n *Network) sim.Time { return n.maxRTT }
