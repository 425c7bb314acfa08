package topo

import (
	"fmt"

	"faircc/internal/net"
	"faircc/internal/sim"
)

// SenderGroup describes one RTT class of dumbbell senders: Count hosts
// whose access links share a bandwidth and propagation delay. Groups with
// different AccessDelay values are what make the topology heterogeneous in
// base RTT — the scenario axis the paper never evaluates (it stops at
// uniform 1 us hops).
type SenderGroup struct {
	Name        string
	Count       int
	AccessBps   float64
	AccessDelay sim.Time
}

// DumbbellConfig sizes a dumbbell: sender groups on a left switch, one
// receiver per sender on a right switch, and a single bottleneck link
// between the switches that every flow crosses. Per-link delay is fully
// configurable, so the same builder covers datacenter-scale heterogeneity
// (1 us vs 25 us access links) and longer-delay edges, the setups of the
// FaiRTT / BBR RTT-fairness studies.
type DumbbellConfig struct {
	Groups []SenderGroup

	// BottleneckBps / BottleneckDelay size the inter-switch link — the
	// shared congestion point.
	BottleneckBps   float64
	BottleneckDelay sim.Time

	// ReceiverBps / ReceiverDelay size every receiver's access link.
	ReceiverBps   float64
	ReceiverDelay sim.Time
}

// DefaultDumbbell returns the datacenter-heterogeneity instance: a fast
// group and a slow group of 4 senders each (100 Gb/s access at 1 us and
// 25 us), a 100 Gb/s / 1 us bottleneck, 100 Gb/s / 1 us receiver links.
// The slow class's base RTT is ~13x the fast class's, while 8 senders
// share one bottleneck link.
func DefaultDumbbell() DumbbellConfig {
	return DumbbellConfig{
		Groups: []SenderGroup{
			{Name: "fast", Count: 4, AccessBps: 100e9, AccessDelay: 1 * sim.Microsecond},
			{Name: "slow", Count: 4, AccessBps: 100e9, AccessDelay: 25 * sim.Microsecond},
		},
		BottleneckBps:   100e9,
		BottleneckDelay: 1 * sim.Microsecond,
		ReceiverBps:     100e9,
		ReceiverDelay:   1 * sim.Microsecond,
	}
}

// Validate reports configuration errors.
func (c DumbbellConfig) Validate() error {
	if len(c.Groups) == 0 {
		return fmt.Errorf("topo: dumbbell needs at least one sender group")
	}
	for i, g := range c.Groups {
		if g.Count < 1 {
			return fmt.Errorf("topo: dumbbell group %d (%s) count must be positive", i, g.Name)
		}
		if g.AccessBps <= 0 {
			return fmt.Errorf("topo: dumbbell group %d (%s) access rate must be positive", i, g.Name)
		}
		if g.AccessDelay <= 0 {
			return fmt.Errorf("topo: dumbbell group %d (%s) access delay must be positive", i, g.Name)
		}
	}
	if c.BottleneckBps <= 0 || c.ReceiverBps <= 0 {
		return fmt.Errorf("topo: dumbbell link rates must be positive")
	}
	if c.BottleneckDelay <= 0 || c.ReceiverDelay <= 0 {
		return fmt.Errorf("topo: dumbbell link delays must be positive")
	}
	return nil
}

// NumSenders returns the total sender count across groups.
func (c DumbbellConfig) NumSenders() int {
	n := 0
	for _, g := range c.Groups {
		n += g.Count
	}
	return n
}

// Dumbbell is a built dumbbell. Senders[i] pairs with Receivers[i];
// Class[i] is the index into Config.Groups of sender i's RTT class.
type Dumbbell struct {
	Config    DumbbellConfig
	Senders   []*net.Host
	Receivers []*net.Host
	Class     []int
	Left      *net.Switch // sender-side switch
	Right     *net.Switch // receiver-side switch
	// BottleneckPort is the left switch's egress toward the right switch
	// — the queue where cross-class congestion appears.
	BottleneckPort *net.Port
}

// NewDumbbell builds the topology over nw and installs routes: the left
// switch delivers to its senders directly and forwards everything else
// across the bottleneck; the right switch mirrors that for receivers.
func NewDumbbell(nw *net.Network, cfg DumbbellConfig) *Dumbbell {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Dumbbell{Config: cfg}
	for gi, g := range cfg.Groups {
		for i := 0; i < g.Count; i++ {
			d.Senders = append(d.Senders, nw.AddHost())
			d.Class = append(d.Class, gi)
		}
	}
	for range d.Senders {
		d.Receivers = append(d.Receivers, nw.AddHost())
	}
	d.Left = nw.AddSwitch()
	d.Right = nw.AddSwitch()

	lp, rp := nw.Connect(d.Left, d.Right, cfg.BottleneckBps, cfg.BottleneckDelay)
	d.BottleneckPort = lp

	si := 0
	for _, g := range cfg.Groups {
		for i := 0; i < g.Count; i++ {
			sp, _ := nw.Connect(d.Left, d.Senders[si], g.AccessBps, g.AccessDelay)
			d.Left.AddRoute(d.Senders[si].NodeID(), sp)
			d.Right.AddRoute(d.Senders[si].NodeID(), rp)
			si++
		}
	}
	for _, r := range d.Receivers {
		rp2, _ := nw.Connect(d.Right, r, cfg.ReceiverBps, cfg.ReceiverDelay)
		d.Right.AddRoute(r.NodeID(), rp2)
		d.Left.AddRoute(r.NodeID(), lp)
	}
	return d
}

// ClassBaseRTT probes the unloaded round-trip time of each class's
// sender-to-receiver path, in group order.
func (d *Dumbbell) ClassBaseRTT(nw *net.Network) []sim.Time {
	rtts := make([]sim.Time, len(d.Config.Groups))
	seen := make([]bool, len(d.Config.Groups))
	for i, s := range d.Senders {
		g := d.Class[i]
		if seen[g] {
			continue
		}
		_, rtt, _, err := nw.ProbePath(net.FlowSpec{
			ID: -1, Src: s.NodeID(), Dst: d.Receivers[i].NodeID(), Size: 1})
		if err != nil {
			panic(err) // the dumbbell we just built is always probeable
		}
		rtts[g] = rtt
		seen[g] = true
	}
	return rtts
}
