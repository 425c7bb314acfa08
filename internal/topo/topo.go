// Package topo builds the two topologies the paper evaluates on: the
// single-switch star used for the incast microbenchmarks (Sec. III-D) and
// the 320-host three-layer fat-tree used for the datacenter simulations
// (Sec. VI-A, Fig. 7).
package topo

import (
	"fmt"
	"math"

	"faircc/internal/net"
	"faircc/internal/sim"
)

// Star is a single switch with n directly attached hosts — the incast
// topology: 17 hosts, 100 Gb/s links, 1 us propagation in the paper.
type Star struct {
	Switch *net.Switch
	Hosts  []*net.Host
	// HostPorts[i] is the switch port toward Hosts[i], whose egress queue
	// is the incast bottleneck when host i is the receiver.
	HostPorts []*net.Port
}

// NewStar builds a star over nw.
func NewStar(nw *net.Network, hosts int, hostBps float64, delay sim.Time) *Star {
	s := &Star{}
	for i := 0; i < hosts; i++ {
		s.Hosts = append(s.Hosts, nw.AddHost())
	}
	s.Switch = nw.AddSwitch()
	s.HostPorts = make([]*net.Port, hosts)
	for i, h := range s.Hosts {
		s.HostPorts[i], _ = nw.Connect(s.Switch, h, hostBps, delay)
		// A sub-slice of an array already held: AddRoute's variadic
		// argument escapes, so a lone port would cost an allocation.
		s.Switch.AddRoute(h.NodeID(), s.HostPorts[i:i+1]...)
	}
	return s
}

// FatTreeConfig sizes a three-layer fat-tree. The paper's instance
// (Fig. 7) is the zero-argument DefaultFatTree: 5 pods, each with 4 ToR
// and 4 Agg switches, 16 hosts per ToR (320 total), 16 spines, 100 Gb/s
// host links and 400 Gb/s fabric links, 1 us propagation per link.
type FatTreeConfig struct {
	Pods        int
	ToRsPerPod  int
	AggsPerPod  int
	Spines      int // must be a multiple of AggsPerPod
	HostsPerToR int
	HostBps     float64
	FabricBps   float64
	// ToRUplinkBps, when positive, overrides FabricBps on the ToR<->Agg
	// links only — the knob that makes the tree oversubscribed at the ToR
	// layer (the one place real Clos fabrics economize). Zero keeps the
	// paper's 1:1 fabric.
	ToRUplinkBps float64
	LinkDelay    sim.Time
}

// DefaultFatTree returns the paper's datacenter topology parameters.
func DefaultFatTree() FatTreeConfig {
	return FatTreeConfig{
		Pods:        5,
		ToRsPerPod:  4,
		AggsPerPod:  4,
		Spines:      16,
		HostsPerToR: 16,
		HostBps:     100e9,
		FabricBps:   400e9,
		LinkDelay:   1 * sim.Microsecond,
	}
}

// Scaled returns the configuration shrunk by dividing pods/hosts counts,
// for fast tests and benchmarks, keeping link speeds and layering.
func (c FatTreeConfig) Scaled(pods, torsPerPod, hostsPerToR int) FatTreeConfig {
	c.Pods = pods
	c.ToRsPerPod = torsPerPod
	c.AggsPerPod = torsPerPod
	c.Spines = torsPerPod * torsPerPod
	c.HostsPerToR = hostsPerToR
	return c
}

// Validate reports configuration errors.
func (c FatTreeConfig) Validate() error {
	switch {
	case c.Pods < 1 || c.ToRsPerPod < 1 || c.AggsPerPod < 1 || c.HostsPerToR < 1 || c.Spines < 1:
		// Spines must be checked here explicitly: 0 % AggsPerPod == 0, so
		// the multiple-of check below would wave a spineless tree through
		// and cross-pod routes would silently come out empty.
		return fmt.Errorf("topo: all counts must be positive: %+v", c)
	case c.Spines%c.AggsPerPod != 0:
		return fmt.Errorf("topo: spines (%d) must be a multiple of aggs per pod (%d)",
			c.Spines, c.AggsPerPod)
	}
	// At 1 b/s and above, every packet's serialization time fits a sim.Time.
	for _, r := range []struct {
		name string
		bps  float64
	}{{"host link", c.HostBps}, {"fabric link", c.FabricBps}, {"ToR uplink", c.torUplinkBps()}} {
		if !(r.bps >= 1 && r.bps <= math.MaxFloat64) { // also rejects NaN
			return fmt.Errorf("topo: %s rate must be finite and at least 1 b/s, got %g", r.name, r.bps)
		}
	}
	return nil
}

// torUplinkBps is the effective ToR<->Agg link rate.
func (c FatTreeConfig) torUplinkBps() float64 {
	if c.ToRUplinkBps != 0 {
		return c.ToRUplinkBps
	}
	return c.FabricBps
}

// Oversubscribed returns the configuration with ToR uplinks sized so that
// per-ToR host capacity is ratio times its uplink capacity (ratio 1 = the
// paper's 1:1; ratio 4 = a typical production 4:1 ToR layer).
func (c FatTreeConfig) Oversubscribed(ratio float64) FatTreeConfig {
	if ratio <= 0 {
		panic("topo: oversubscription ratio must be positive")
	}
	c.ToRUplinkBps = float64(c.HostsPerToR) * c.HostBps / (float64(c.AggsPerPod) * ratio)
	return c
}

// OversubscriptionRatio reports per-ToR host capacity over uplink
// capacity (1 means non-blocking).
func (c FatTreeConfig) OversubscriptionRatio() float64 {
	return float64(c.HostsPerToR) * c.HostBps /
		(float64(c.AggsPerPod) * c.torUplinkBps())
}

// FatTree is a built fat-tree: hosts in pod-major order plus the switch
// layers. Host i's position: pod i/(ToRsPerPod*HostsPerToR), ToR within
// pod (i/HostsPerToR)%ToRsPerPod.
type FatTree struct {
	Config FatTreeConfig
	Hosts  []*net.Host
	ToRs   []*net.Switch // pod-major
	Aggs   []*net.Switch // pod-major
	Spines []*net.Switch
	// HostPorts[i] is the ToR port toward Hosts[i] (the host's downlink
	// queue — where incast congestion to host i appears).
	HostPorts []*net.Port
}

// NewFatTree builds the topology and installs up/down ECMP routing:
// packets ascend only as far as needed (same-ToR: 1 hop; same-pod: via any
// of the pod's Aggs, 3 hops; cross-pod: via an Agg and one of its Spines,
// 5 hops) and descend on the unique downward path.
func NewFatTree(nw *net.Network, cfg FatTreeConfig) *FatTree {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ft := &FatTree{Config: cfg}
	nHosts := cfg.Pods * cfg.ToRsPerPod * cfg.HostsPerToR
	for i := 0; i < nHosts; i++ {
		ft.Hosts = append(ft.Hosts, nw.AddHost())
	}
	for i := 0; i < cfg.Pods*cfg.ToRsPerPod; i++ {
		ft.ToRs = append(ft.ToRs, nw.AddSwitch())
	}
	for i := 0; i < cfg.Pods*cfg.AggsPerPod; i++ {
		ft.Aggs = append(ft.Aggs, nw.AddSwitch())
	}
	for i := 0; i < cfg.Spines; i++ {
		ft.Spines = append(ft.Spines, nw.AddSwitch())
	}

	// Host <-> ToR links.
	ft.HostPorts = make([]*net.Port, nHosts)
	for i, h := range ft.Hosts {
		tor := ft.ToRs[i/cfg.HostsPerToR]
		tp, _ := nw.Connect(tor, h, cfg.HostBps, cfg.LinkDelay)
		ft.HostPorts[i] = tp
	}

	// ToR <-> Agg links (full bipartite within each pod). These run at
	// torUplinkBps — FabricBps unless the config oversubscribes the ToR
	// layer.
	torUp := make([][]*net.Port, len(ft.ToRs))   // ToR -> its Agg uplinks
	aggDown := make([][]*net.Port, len(ft.Aggs)) // Agg -> ToR downlinks, by ToR index in pod
	uplinkBps := cfg.torUplinkBps()
	for p := 0; p < cfg.Pods; p++ {
		for t := 0; t < cfg.ToRsPerPod; t++ {
			tor := ft.ToRs[p*cfg.ToRsPerPod+t]
			for a := 0; a < cfg.AggsPerPod; a++ {
				agg := ft.Aggs[p*cfg.AggsPerPod+a]
				tp, ap := nw.Connect(tor, agg, uplinkBps, cfg.LinkDelay)
				torUp[p*cfg.ToRsPerPod+t] = append(torUp[p*cfg.ToRsPerPod+t], tp)
				if aggDown[p*cfg.AggsPerPod+a] == nil {
					aggDown[p*cfg.AggsPerPod+a] = make([]*net.Port, cfg.ToRsPerPod)
				}
				aggDown[p*cfg.AggsPerPod+a][t] = ap
			}
		}
	}

	// Agg <-> Spine links: spine s attaches to agg index s/(Spines/AggsPerPod)
	// in every pod, giving each agg Spines/AggsPerPod uplinks.
	group := cfg.Spines / cfg.AggsPerPod
	aggUp := make([][]*net.Port, len(ft.Aggs))
	spineDown := make([][]*net.Port, cfg.Spines) // spine -> per-pod downlink
	for s := 0; s < cfg.Spines; s++ {
		aggIdx := s / group
		spineDown[s] = make([]*net.Port, cfg.Pods)
		for p := 0; p < cfg.Pods; p++ {
			agg := ft.Aggs[p*cfg.AggsPerPod+aggIdx]
			ap, sp := nw.Connect(agg, ft.Spines[s], cfg.FabricBps, cfg.LinkDelay)
			aggUp[p*cfg.AggsPerPod+aggIdx] = append(aggUp[p*cfg.AggsPerPod+aggIdx], ap)
			spineDown[s][p] = sp
		}
	}

	// Routing tables. Single ports go in as sub-slices of the arrays above:
	// AddRoute's variadic argument escapes, so a lone port would cost an
	// allocation per route.
	pod := func(host int) int { return host / (cfg.ToRsPerPod * cfg.HostsPerToR) }
	torOf := func(host int) int { return host / cfg.HostsPerToR } // global ToR index
	for i := range ft.Hosts {
		hostID := ft.Hosts[i].NodeID()
		hp, ht := pod(i), torOf(i)
		// ToRs: the attached ToR delivers directly; every other ToR sends
		// up across all its Agg uplinks — same-pod and cross-pod paths
		// only diverge at the Agg layer, so the ToR rule is identical.
		for tIdx, tor := range ft.ToRs {
			if tIdx == ht {
				tor.AddRoute(hostID, ft.HostPorts[i:i+1]...)
			} else {
				tor.AddRoute(hostID, torUp[tIdx]...)
			}
		}
		// Aggs.
		for aIdx, agg := range ft.Aggs {
			if aIdx/cfg.AggsPerPod == hp {
				t := ht % cfg.ToRsPerPod
				agg.AddRoute(hostID, aggDown[aIdx][t:t+1]...)
			} else {
				agg.AddRoute(hostID, aggUp[aIdx]...) // up to this agg's spines
			}
		}
		// Spines: descend into the host's pod.
		for s, spine := range ft.Spines {
			spine.AddRoute(hostID, spineDown[s][hp:hp+1]...)
		}
	}
	return ft
}

// NumHosts returns the number of hosts in the configuration.
func (c FatTreeConfig) NumHosts() int { return c.Pods * c.ToRsPerPod * c.HostsPerToR }
