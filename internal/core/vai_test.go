package core

import (
	"math"
	"testing"
	"testing/quick"
)

func testCfg() VAIConfig {
	return VAIConfig{
		TokenThresh:   50_000, // 50 KB, the paper's min-BDP threshold
		AIDiv:         1_000,  // 1 token per KB of queue
		AICap:         100,
		DampenerConst: 8,
	}
}

func TestVAIConfigValid(t *testing.T) {
	if !testCfg().Valid() {
		t.Fatal("test config should be valid")
	}
	bad := testCfg()
	bad.AIDiv = 0
	if bad.Valid() {
		t.Fatal("zero AIDiv should be invalid")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewVAI should panic on invalid config")
		}
	}()
	NewVAI(bad)
}

func TestVAIInitialState(t *testing.T) {
	v := NewVAI(testCfg())
	if v.Bank() != 0 || v.Dampener() != 0 {
		t.Fatalf("fresh VAI bank=%v dampener=%v, want 0,0", v.Bank(), v.Dampener())
	}
	if v.Multiplier() != 1 {
		t.Fatalf("fresh multiplier = %v, want 1", v.Multiplier())
	}
	if got := v.Spend(); got != 1 {
		t.Fatalf("Spend with empty bank = %v, want 1 (AI never below base)", got)
	}
}

func TestVAITokenMinting(t *testing.T) {
	v := NewVAI(testCfg())
	// 100 KB of queue: 50 KB above the threshold, mints 50 tokens (one
	// per KB of excess) and raises the dampener by 100/50 = 2.
	v.OnRTTEnd(100_000, false)
	if v.Bank() != 50 {
		t.Fatalf("bank = %v, want 50", v.Bank())
	}
	if v.Dampener() != 2 {
		t.Fatalf("dampener = %v, want 2", v.Dampener())
	}
}

func TestVAINoTokensBelowThreshold(t *testing.T) {
	v := NewVAI(testCfg())
	v.OnRTTEnd(49_999, false)
	if v.Bank() != 0 {
		t.Fatalf("bank = %v, want 0 (congestion below threshold)", v.Bank())
	}
	// Exactly at threshold: Algorithm 1 uses strict >, so no tokens.
	v.OnRTTEnd(50_000, false)
	if v.Bank() != 0 {
		t.Fatalf("bank = %v, want 0 at exact threshold", v.Bank())
	}
}

func TestVAIBankCap(t *testing.T) {
	v := NewVAI(testCfg())
	for i := 0; i < 50; i++ {
		v.OnRTTEnd(500_000, false) // 500 tokens per RTT
	}
	if v.Bank() != 1000 {
		t.Fatalf("bank = %v, want capped at 1000", v.Bank())
	}
}

func TestVAISpend(t *testing.T) {
	v := NewVAI(testCfg())
	v.OnRTTEnd(300_000, false) // (300-50)KB excess -> 250 tokens, dampener 6
	// Spend: tokens = min(100, 250) = 100; divisor = 6/8+1 = 1.75;
	// multiplier = 100/1.75 ≈ 57.1; bank = 150.
	got := v.Spend()
	want := 100 / (6.0/8 + 1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("multiplier = %v, want %v", got, want)
	}
	if v.Bank() != 150 {
		t.Fatalf("bank after spend = %v, want 150", v.Bank())
	}
	if v.Multiplier() != got {
		t.Fatalf("Multiplier() = %v, want last Spend %v", v.Multiplier(), got)
	}
	// Two more spends drain the bank: 150 -> 50 -> 0.
	v.Spend()
	if v.Bank() != 50 {
		t.Fatalf("bank = %v, want 50", v.Bank())
	}
	v.Spend()
	if v.Bank() != 0 {
		t.Fatalf("bank = %v, want 0", v.Bank())
	}
	if got := v.Spend(); got != 1 {
		t.Fatalf("spend on empty bank = %v, want 1", got)
	}
}

func TestVAIMultiplierFloorsAtOne(t *testing.T) {
	v := NewVAI(testCfg())
	// Huge dampener: divisor large, multiplier would be < 1 without floor.
	for i := 0; i < 100; i++ {
		v.OnRTTEnd(1_000_000, false) // dampener += 20 each
	}
	if got := v.Spend(); got < 1 {
		t.Fatalf("multiplier = %v, must never drop below 1", got)
	}
}

func TestVAIDampenerResetRequiresEmptyBankAndNoCongestion(t *testing.T) {
	v := NewVAI(testCfg())
	v.OnRTTEnd(100_000, false) // bank 100, dampener 2

	// Congestion-free RTT but bank not empty: no reset (tokens are still
	// input into the system, a feedback loop is still possible).
	v.OnRTTEnd(0, true)
	if v.Dampener() != 2 {
		t.Fatalf("dampener = %v, want 2 (bank non-empty blocks reset)", v.Dampener())
	}

	v.Spend() // bank 0
	if v.Bank() != 0 {
		t.Fatalf("bank = %v, want 0", v.Bank())
	}
	// Mild congestion below threshold with empty bank: decrement by 1.
	v.OnRTTEnd(10_000, false)
	if v.Dampener() != 1 {
		t.Fatalf("dampener = %v, want 2-1=1", v.Dampener())
	}
	// Fully congestion-free RTT with empty bank: reset to 0.
	v.OnRTTEnd(0, true)
	if v.Dampener() != 0 {
		t.Fatalf("dampener = %v, want 0 after reset", v.Dampener())
	}
}

func TestVAIDampenerNeverNegative(t *testing.T) {
	v := NewVAI(testCfg())
	for i := 0; i < 5; i++ {
		v.OnRTTEnd(10_000, false)
	}
	if v.Dampener() != 0 {
		t.Fatalf("dampener = %v, want clamped at 0", v.Dampener())
	}
}

func TestVAIIncastDampenerGrowth(t *testing.T) {
	// Under a large incast the dampener must grow fast so the elevated AI
	// creates less congestion (Sec. IV-A).
	v := NewVAI(testCfg())
	v.OnRTTEnd(1_000_000, false) // 20x threshold, e.g. 96-1 incast queue
	if v.Dampener() != 20 {
		t.Fatalf("dampener = %v, want 20 (cong/thresh)", v.Dampener())
	}
	mult := v.Spend()
	// divisor = 20/8 + 1 = 3.5; tokens = 100 -> multiplier ≈ 28.6, far
	// below the undampened 100.
	if mult >= 100/1.0 || mult <= 1 {
		t.Fatalf("multiplier = %v, want dampened into (1, 100)", mult)
	}
}

// Property: bank stays within [0, BankCap] and dampener >= 0 and
// multiplier >= 1 under arbitrary interleavings of OnRTTEnd and Spend.
func TestVAIInvariantsProperty(t *testing.T) {
	cfg := testCfg()
	prop := func(ops []struct {
		Measured uint32
		NoCong   bool
		Spend    bool
	}) bool {
		v := NewVAI(cfg)
		for _, op := range ops {
			if op.Spend {
				if v.Spend() < 1 {
					return false
				}
			} else {
				v.OnRTTEnd(float64(op.Measured), op.NoCong)
			}
			if v.Bank() < 0 || v.Bank() > bankCap || v.Dampener() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerDisabled(t *testing.T) {
	var s Sampler // Every == 0
	for i := 0; i < 1000; i++ {
		if s.Tick() {
			t.Fatal("disabled sampler fired")
		}
	}
}

func TestSamplerCadence(t *testing.T) {
	s := Sampler{Every: 30}
	fires := 0
	for i := 1; i <= 90; i++ {
		if s.Tick() {
			fires++
			if i%30 != 0 {
				t.Fatalf("fired at tick %d, want multiples of 30", i)
			}
		}
	}
	if fires != 3 {
		t.Fatalf("fired %d times in 90 ticks, want 3", fires)
	}
}

func TestSamplerEveryOne(t *testing.T) {
	s := Sampler{Every: 1}
	for i := 0; i < 10; i++ {
		if !s.Tick() {
			t.Fatal("Every=1 sampler must fire each tick")
		}
	}
}

func TestRTTMarker(t *testing.T) {
	var m RTTMarker
	m.Reset(10_000) // 10 KB in flight when marked
	if m.Passed(10_000) {
		t.Fatal("RTT not passed at exactly the mark (strict >)")
	}
	if !m.Passed(10_001) {
		t.Fatal("RTT passed once acked exceeds mark")
	}
	m.Reset(25_000)
	if m.Passed(20_000) {
		t.Fatal("new mark should not have passed")
	}
}
