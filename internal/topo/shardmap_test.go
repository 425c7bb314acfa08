package topo

import (
	"reflect"
	"slices"
	"testing"

	"faircc/internal/net"
	"faircc/internal/sim"
)

func buildFT(t *testing.T, pods, tors, hosts int) (*net.Network, *FatTree) {
	t.Helper()
	nw := net.New(sim.NewEngine(), 1)
	return nw, NewFatTree(nw, DefaultFatTree().Scaled(pods, tors, hosts))
}

// checkPodLocal asserts every pod's hosts, ToRs and Aggs share one shard
// (the pod-local invariant: all intra-pod links stay shard-local).
func checkPodLocal(t *testing.T, ft *FatTree, assign []int, k int) {
	t.Helper()
	cfg := ft.Config
	for p := 0; p < cfg.Pods; p++ {
		want := assign[ft.ToRs[p*cfg.ToRsPerPod].NodeID()]
		for i := 0; i < cfg.ToRsPerPod; i++ {
			tor := ft.ToRs[p*cfg.ToRsPerPod+i]
			if assign[tor.NodeID()] != want {
				t.Fatalf("k=%d pod %d: ToR %d off-pod shard", k, p, i)
			}
			for h := 0; h < cfg.HostsPerToR; h++ {
				host := ft.Hosts[(p*cfg.ToRsPerPod+i)*cfg.HostsPerToR+h]
				if assign[host.NodeID()] != want {
					t.Fatalf("k=%d pod %d: host under ToR %d on shard %d, want %d",
						k, p, i, assign[host.NodeID()], want)
				}
			}
		}
		for i := 0; i < cfg.ToRsPerPod; i++ { // as many Aggs as ToRs
			agg := ft.Aggs[p*cfg.ToRsPerPod+i]
			if assign[agg.NodeID()] != want {
				t.Fatalf("k=%d pod %d: Agg %d off-pod shard", k, p, i)
			}
		}
	}
}

// shardMaps calls f with FatTree.ShardMap(k) for k = 0..Pods+3 on every
// fabric the repo runs: small, medium, DefaultFatTree and the
// 4096-host k=16-style Clos.
func shardMaps(t *testing.T, f func(name string, nw *net.Network, ft *FatTree, k int, assign []int, got int)) {
	t.Helper()
	for name, cfg := range map[string]FatTreeConfig{
		"small":   DefaultFatTree().Scaled(2, 2, 2),
		"medium":  DefaultFatTree().Scaled(2, 2, 8),
		"default": DefaultFatTree(),
		"k16":     DefaultFatTree().Scaled(16, 8, 32),
	} {
		nw := net.New(sim.NewEngine(), 1)
		ft := NewFatTree(nw, cfg)
		for k := 0; k <= cfg.Pods+3; k++ {
			assign, got := ft.ShardMap(k)
			f(name, nw, ft, k, assign, got)
		}
	}
}

// TestShardMapFatTreeClamps checks the shard count is
// min(max(k,1), Pods, ToRsPerPod) (as many Aggs per pod as ToRs), that
// k <= 1 is the identity partition, and that every assignment lies in
// [0, count).
func TestShardMapFatTreeClamps(t *testing.T) {
	shardMaps(t, func(name string, _ *net.Network, ft *FatTree, k int, assign []int, got int) {
		if want := min(max(k, 1), ft.Config.Pods, ft.Config.ToRsPerPod); got != want {
			t.Fatalf("%s k=%d: ShardMap used %d shards, want %d", name, k, got, want)
		}
		for _, s := range assign {
			if s < 0 || s >= got || k <= 1 && s != 0 {
				t.Fatalf("%s k=%d: assignment %d out of range [0,%d)", name, k, s, got)
			}
		}
	})
}

// TestShardMapFatTreePods checks pods stay whole and go round-robin over
// the shards, spine group g (the spines on Agg index g of every pod) stays
// whole on shard g mod k, and so every shard holds a pod and a spine group.
func TestShardMapFatTreePods(t *testing.T) {
	shardMaps(t, func(name string, _ *net.Network, ft *FatTree, k int, assign []int, got int) {
		cfg := ft.Config
		checkPodLocal(t, ft, assign, k)
		hasPod, hasGroup := make([]bool, got), make([]bool, got)
		for p := 0; p < cfg.Pods; p++ {
			s := assign[ft.ToRs[p*cfg.ToRsPerPod].NodeID()]
			if s != p%got {
				t.Fatalf("%s k=%d: pod %d on shard %d, want %d", name, k, p, s, p%got)
			}
			hasPod[s] = true
		}
		perGroup := cfg.ToRsPerPod // spines per Agg index
		for i, sp := range ft.Spines {
			g := i / perGroup
			if s := assign[sp.NodeID()]; s != g%got {
				t.Fatalf("%s k=%d: spine %d of group %d on shard %d, want %d", name, k, i, g, s, g%got)
			}
			hasGroup[g%got] = true
		}
		if slices.Contains(hasPod, false) || slices.Contains(hasGroup, false) {
			t.Fatalf("%s k=%d: a shard lacks a pod (%v) or a spine group (%v)", name, k, hasPod, hasGroup)
		}
	})
}

// TestShardMapFatTreeBalance pins the load spread: no shard is empty and
// per-shard node counts differ by at most one pod's worth of nodes plus
// one spine group (pods and groups round-robin independently).
func TestShardMapFatTreeBalance(t *testing.T) {
	shardMaps(t, func(name string, _ *net.Network, ft *FatTree, k int, assign []int, got int) {
		cfg := ft.Config
		podNodes := cfg.ToRsPerPod*cfg.HostsPerToR + 2*cfg.ToRsPerPod // hosts, ToRs, Aggs
		groupNodes := cfg.ToRsPerPod
		load := make([]int, got)
		for _, s := range assign {
			load[s]++
		}
		if lo, hi := slices.Min(load), slices.Max(load); lo == 0 || hi-lo > podNodes+groupNodes {
			t.Fatalf("%s k=%d: unbalanced partition: loads %v", name, k, load)
		}
	})
}

// TestShardMapFatTreeFine checks the cut at every k, including the k above
// min(Pods, AggsPerPod) that once got finer cells and now clamps: only
// Agg-Spine links cross shards, all with delay LinkDelay (so a host never
// leaves its ToR), and every ordered pair of shards is joined by a link.
// Those facts make sim.Parallel's one-number lookahead exact. The walk
// goes over the built network's Ports / Peer / Owner.
func TestShardMapFatTreeFine(t *testing.T) {
	shardMaps(t, func(name string, nw *net.Network, ft *FatTree, k int, assign []int, got int) {
		aggs, spines := map[int]bool{}, map[int]bool{}
		for _, a := range ft.Aggs {
			aggs[a.NodeID()] = true
		}
		for _, s := range ft.Spines {
			spines[s.NodeID()] = true
		}
		joined := make([]bool, got*got)
		for _, sw := range nw.Switches() {
			for _, pt := range sw.Ports() {
				a, b := pt.Owner().NodeID(), pt.Peer().Owner().NodeID()
				if assign[a] == assign[b] {
					continue
				}
				if !(aggs[a] && spines[b] || spines[a] && aggs[b]) || pt.Delay() != linkDelay {
					t.Fatalf("%s k=%d: link %d-%d (delay %v) crosses shards; only Agg-Spine links of delay %v may",
						name, k, a, b, pt.Delay(), linkDelay)
				}
				joined[assign[a]*got+assign[b]] = true
			}
		}
		for src := 0; src < got; src++ {
			for dst := 0; dst < got; dst++ {
				if src != dst && !joined[src*got+dst] {
					t.Fatalf("%s k=%d: no link from shard %d to shard %d", name, k, src, dst)
				}
			}
		}
	})
}

// TestShardMapDeterministic checks the assignment is a pure function of
// (cfg, k) — the partition half of the determinism contract.
func TestShardMapDeterministic(t *testing.T) {
	_, ft1 := buildFT(t, 2, 2, 8)
	_, ft2 := buildFT(t, 2, 2, 8)
	for _, k := range []int{2, 3, 7, 40} {
		a1, k1 := ft1.ShardMap(k)
		a2, k2 := ft2.ShardMap(k)
		if k1 != k2 || !reflect.DeepEqual(a1, a2) {
			t.Fatalf("k=%d: assignment differs between identical topologies", k)
		}
	}
}
