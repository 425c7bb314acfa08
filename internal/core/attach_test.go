package core

import "testing"

func TestPaperVAISF(t *testing.T) {
	m := PaperVAISF(50_000, 1000)
	want := VAIConfig{TokenThresh: 50_000, AIDiv: 1000, AICap: 100, DampenerConst: 8}
	if m.VAI != want || m.SFEvery != 30 {
		t.Fatalf("PaperVAISF = %+v SFEvery %d, want Sec. VI-A's %+v and 30", m.VAI, m.SFEvery, want)
	}
	// The ablation sweeps edit one result in place, point by point; the
	// next result must not see the edit.
	m.VAI.AICap, m.VAI.DampenerConst = 7, 9
	if next := PaperVAISF(50_000, 1000); next.VAI != want {
		t.Fatalf("after editing one result, PaperVAISF = %+v, want %+v", next.VAI, want)
	}
}

// TestAttachmentOff: the zero Mechanisms attaches nothing, and a zero
// VAIConfig is VAI off even beside SF.
func TestAttachmentOff(t *testing.T) {
	sfOnly := PaperVAISF(50_000, 1000)
	sfOnly.VAI = VAIConfig{}
	if a := sfOnly.Attach(0); a.VAI() != nil || a.sampler.Every != 30 {
		t.Fatalf("a zero VAIConfig beside SF attached VAI %v, SF every %d", a.VAI(), a.sampler.Every)
	}
	var m Mechanisms
	a := m.Attach(123)
	if a.VAI() != nil {
		t.Fatal("zero Mechanisms attached VAI")
	}
	for acked := int64(1); acked <= 100; acked++ {
		ended, update := a.Ack(acked, acked+10, 1e9, true)
		if update != ended {
			t.Fatalf("ACK %d: update %v without SF, want the round-trip end %v", acked, update, ended)
		}
		if a.Multiplier() != 1 || a.Spend() != 1 {
			t.Fatal("multiplier without VAI must be 1")
		}
	}
}

func TestAttachmentSFCadence(t *testing.T) {
	m := Mechanisms{SFEvery: 5}
	a := m.Attach(0)
	for i := int64(1); i <= 20; i++ {
		// sentBytes far ahead: no round trip ends in these 20 ACKs but
		// the first, and SF must not care.
		_, update := a.Ack(i, 1000, 0, false)
		if update != (i%5 == 0) {
			t.Fatalf("ACK %d: update %v, want every 5th ACK", i, update)
		}
	}
}

// TestAttachmentRoundTrips: a round trip ends once acked bytes pass the
// sent bytes of the last end, and Algorithm 1 then runs once on the round
// trip's maximum congestion against the offset threshold.
func TestAttachmentRoundTrips(t *testing.T) {
	m := PaperVAISF(50_000, 1000)
	a := m.Attach(10_000) // threshold 60 KB
	ack := func(acked, sent int64, cong float64, congested bool) bool {
		ended, _ := a.Ack(acked, sent, cong, congested)
		return ended
	}
	if !ack(1, 10, 0, false) { // the first ACK passes the initial mark 0
		t.Fatal("first ACK did not end the initial round trip")
	}
	if !a.Clean() {
		t.Fatal("congestion-free round trip not clean")
	}
	for _, c := range []struct {
		acked int64
		cong  float64
	}{{5, 80_000}, {9, 20_000}, {10, 30_000}} {
		if ack(c.acked, 20, c.cong, true) {
			t.Fatalf("round trip ended at acked %d, before passing the mark 10", c.acked)
		}
	}
	if a.VAI().Bank() != 0 {
		t.Fatal("Algorithm 1 ran before the round trip ended")
	}
	if !ack(11, 20, 0, false) {
		t.Fatal("round trip did not end past the mark")
	}
	// The maximum 80 KB is 20 KB above the threshold: 20 tokens.
	if got := a.VAI().Bank(); got != 20 {
		t.Fatalf("bank = %v, want 20", got)
	}
	if a.Clean() {
		t.Fatal("congested round trip reported clean")
	}
	if ack(20, 30, 0, false) || !ack(21, 30, 0, false) {
		t.Fatal("marker did not restart from the sent bytes of the last end")
	}
}
