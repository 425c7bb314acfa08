package core

// Mechanisms selects which of the paper's mechanisms a protocol runs with.
// Each protocol's Config embeds it, so c.VAI and c.SFEvery select them. Both
// are values whose zero means off, so the zero Mechanisms attaches neither,
// and a config that carries them copies like any value and costs no
// allocation to build.
type Mechanisms struct {
	// VAI enables Variable Additive Increase unless it is the zero
	// VAIConfig.
	VAI VAIConfig
	// SFEvery enables Sampling Frequency: decrease-side reference updates
	// every SFEvery ACKs instead of once per RTT. Zero keeps the default
	// once-per-RTT behaviour.
	SFEvery int
}

// PaperVAISF returns both mechanisms with the constants of Sec. VI-A: spend
// cap 100, dampener constant 8, decreases every 30 ACKs (and the bank cap,
// bankCap). tokenThresh and aiDiv are in the protocol's congestion unit.
func PaperVAISF(tokenThresh, aiDiv float64) Mechanisms {
	return Mechanisms{
		VAI: VAIConfig{
			TokenThresh:   tokenThresh,
			AIDiv:         aiDiv,
			AICap:         100,
			DampenerConst: 8,
		},
		SFEvery: 30,
	}
}

// Attachment is one flow's state of the mechanisms: the VAI bank, the SF
// sampler, the round-trip marker, and the per-RTT congestion bookkeeping
// Algorithm 1 consumes. A protocol supplies only its congestion measure
// and its congested predicate, through Ack, and reads the additive-
// increase multiplier through Multiplier and Spend. The VAI state is inline
// and reads its constants from the Mechanisms it was attached from, so an
// attachment allocates nothing.
type Attachment struct {
	vai       VAI // vai.cfg is nil when VAI is off
	sampler   Sampler
	marker    RTTMarker
	maxCong   float64 // maximum congestion measured this round trip
	congested bool    // any congested ACK this round trip
	clean     bool    // the last ended round trip had no congested ACK
}

// Attach returns a flow's attachment of m. thresholdOffset is added to
// VAI's token threshold: the congestion level the protocol itself treats
// as none (its target delay for Swift, TLow for TIMELY, 0 for HPCC). The
// attachment reads VAI's constants through m, so m must outlive it and stay
// put: the protocol's per-flow Config, which holds both. It panics on an
// invalid non-zero VAI configuration, like NewVAI.
func (m *Mechanisms) Attach(thresholdOffset float64) Attachment {
	a := Attachment{sampler: Sampler{Every: m.SFEvery}}
	if !m.VAI.IsZero() {
		a.vai = newVAI(&m.VAI, thresholdOffset)
	}
	return a
}

// Ack records one acknowledgement: congestion is the protocol's measure
// (deepest INT queue for HPCC, delay for Swift and TIMELY) and congested
// its predicate. ended reports that the ACK closed a round trip; update
// that a decrease may move the protocol's reference now — every SFEvery
// ACKs with SF, at round-trip ends without. At each end Algorithm 1 runs
// on the round trip's maximum congestion and the marker restarts from
// sentBytes.
func (a *Attachment) Ack(ackedBytes, sentBytes int64, congestion float64, congested bool) (ended, update bool) {
	if congestion > a.maxCong {
		a.maxCong = congestion
	}
	a.congested = a.congested || congested
	ended = a.marker.Passed(ackedBytes)
	update = ended
	if a.sampler.Every > 0 {
		update = a.sampler.Tick()
	}
	if ended {
		if a.vai.cfg != nil {
			a.vai.OnRTTEnd(a.maxCong, !a.congested)
		}
		a.clean = !a.congested
		a.maxCong, a.congested = 0, false
		a.marker.Reset(sentBytes)
	}
	return ended, update
}

// Clean reports whether the last ended round trip was congestion-free.
func (a *Attachment) Clean() bool { return a.clean }

// Multiplier returns the additive-increase multiplier of the last Spend,
// 1 when VAI is off.
func (a *Attachment) Multiplier() float64 {
	if a.vai.cfg == nil {
		return 1
	}
	return a.vai.Multiplier()
}

// Spend runs Algorithm 2 once per rate-update period and returns the new
// multiplier, 1 when VAI is off.
func (a *Attachment) Spend() float64 {
	if a.vai.cfg == nil {
		return 1
	}
	return a.vai.Spend()
}

// VAI returns the flow's VAI state, nil when VAI is off.
func (a *Attachment) VAI() *VAI {
	if a.vai.cfg == nil {
		return nil
	}
	return &a.vai
}
