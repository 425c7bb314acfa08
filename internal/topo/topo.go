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
// host links and 400 Gb/s fabric links, 1 us propagation per link. A pod
// has as many Aggs as ToRs, and each Agg as many spine uplinks, so there
// are ToRsPerPod² spines.
type FatTreeConfig struct {
	Pods        int
	ToRsPerPod  int
	HostsPerToR int
	HostBps     float64
}

// The fabric's link constants (Fig. 7): every ToR-Agg and Agg-Spine link
// runs at fabricBps, and every link propagates in linkDelay.
const (
	fabricBps float64 = 400e9
	linkDelay         = 1 * sim.Microsecond
)

// DefaultFatTree returns the paper's datacenter topology parameters.
func DefaultFatTree() FatTreeConfig {
	return FatTreeConfig{Pods: 5, ToRsPerPod: 4, HostsPerToR: 16, HostBps: 100e9}
}

// Scaled returns the configuration shrunk by dividing pods/hosts counts,
// for fast tests and benchmarks, keeping link speeds and layering.
func (c FatTreeConfig) Scaled(pods, torsPerPod, hostsPerToR int) FatTreeConfig {
	c.Pods, c.ToRsPerPod, c.HostsPerToR = pods, torsPerPod, hostsPerToR
	return c
}

// Validate reports configuration errors.
func (c FatTreeConfig) Validate() error {
	if c.Pods < 1 || c.ToRsPerPod < 1 || c.HostsPerToR < 1 {
		return fmt.Errorf("topo: all counts must be positive: %+v", c)
	}
	// At 1 b/s and above, every packet's serialization time fits a sim.Time.
	if !(c.HostBps >= 1 && c.HostBps <= math.MaxFloat64) { // also rejects NaN
		return fmt.Errorf("topo: host link rate must be finite and at least 1 b/s, got %g", c.HostBps)
	}
	return nil
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
	aggs := cfg.ToRsPerPod // per pod, and spine uplinks per Agg
	nHosts := cfg.Pods * cfg.ToRsPerPod * cfg.HostsPerToR
	for i := 0; i < nHosts; i++ {
		ft.Hosts = append(ft.Hosts, nw.AddHost())
	}
	for i := 0; i < cfg.Pods*cfg.ToRsPerPod; i++ {
		ft.ToRs = append(ft.ToRs, nw.AddSwitch())
	}
	for i := 0; i < cfg.Pods*aggs; i++ {
		ft.Aggs = append(ft.Aggs, nw.AddSwitch())
	}
	for i := 0; i < aggs*aggs; i++ {
		ft.Spines = append(ft.Spines, nw.AddSwitch())
	}

	// Host <-> ToR links.
	ft.HostPorts = make([]*net.Port, nHosts)
	for i, h := range ft.Hosts {
		tor := ft.ToRs[i/cfg.HostsPerToR]
		tp, _ := nw.Connect(tor, h, cfg.HostBps, linkDelay)
		ft.HostPorts[i] = tp
	}

	// ToR <-> Agg links (full bipartite within each pod).
	torUp := make([][]*net.Port, len(ft.ToRs))   // ToR -> its Agg uplinks
	aggDown := make([][]*net.Port, len(ft.Aggs)) // Agg -> ToR downlinks, by ToR index in pod
	for p := 0; p < cfg.Pods; p++ {
		for t := 0; t < cfg.ToRsPerPod; t++ {
			tor := ft.ToRs[p*cfg.ToRsPerPod+t]
			for a := 0; a < aggs; a++ {
				agg := ft.Aggs[p*aggs+a]
				tp, ap := nw.Connect(tor, agg, fabricBps, linkDelay)
				torUp[p*cfg.ToRsPerPod+t] = append(torUp[p*cfg.ToRsPerPod+t], tp)
				if aggDown[p*aggs+a] == nil {
					aggDown[p*aggs+a] = make([]*net.Port, cfg.ToRsPerPod)
				}
				aggDown[p*aggs+a][t] = ap
			}
		}
	}

	// Agg <-> Spine links: spine s attaches to agg index s/aggs in every
	// pod, giving each agg aggs uplinks.
	aggUp := make([][]*net.Port, len(ft.Aggs))
	spineDown := make([][]*net.Port, len(ft.Spines)) // spine -> per-pod downlink
	for s := range ft.Spines {
		aggIdx := s / aggs
		spineDown[s] = make([]*net.Port, cfg.Pods)
		for p := 0; p < cfg.Pods; p++ {
			agg := ft.Aggs[p*aggs+aggIdx]
			ap, sp := nw.Connect(agg, ft.Spines[s], fabricBps, linkDelay)
			aggUp[p*aggs+aggIdx] = append(aggUp[p*aggs+aggIdx], ap)
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
			if aIdx/aggs == hp {
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
