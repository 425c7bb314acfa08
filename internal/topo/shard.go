package topo

// ShardMap partitions the fat-tree for parallel execution, returning a
// node-id -> shard assignment (suitable for Network.Shard) and the shard
// count actually used: k clamped to [1, min(Pods, ToRsPerPod)], ToRsPerPod
// being also the Aggs per pod.
//
// Pods stay whole (every host-ToR and ToR-Agg link is shard-local) and go
// round-robin over the k shards. The spine layer splits by spine group —
// group g holds the spines that attach to Agg index g of every pod — and
// group g goes to shard g mod k. With k clamped so, every shard owns a pod
// and a spine group: each shard's Aggs link to every other shard's spines,
// so the shard graph is complete and every cross-shard link is an
// Agg-Spine link of delay linkDelay. That is what makes sim.Parallel's
// one-number lookahead exact rather than merely safe; a larger k would
// need a shard without a pod or without a spine group, and there it is not.
//
// The assignment is a pure function of (cfg, k): deterministic, so a
// sharded run's partition never varies between repetitions.
func (ft *FatTree) ShardMap(k int) ([]int, int) {
	cfg := ft.Config
	aggs := cfg.ToRsPerPod
	k = max(1, min(k, cfg.Pods, aggs))
	assign := make([]int, len(ft.Hosts)+len(ft.ToRs)+len(ft.Aggs)+len(ft.Spines))
	for i, h := range ft.Hosts {
		assign[h.NodeID()] = i / (cfg.ToRsPerPod * cfg.HostsPerToR) % k
	}
	for i, t := range ft.ToRs {
		assign[t.NodeID()] = i / cfg.ToRsPerPod % k
	}
	for i, a := range ft.Aggs {
		assign[a.NodeID()] = i / aggs % k
	}
	for i, s := range ft.Spines {
		// Spine i attaches to Agg index i/aggs in every pod (see
		// NewFatTree), so its group is that Agg index.
		assign[s.NodeID()] = i / aggs % k
	}
	return assign, k
}
