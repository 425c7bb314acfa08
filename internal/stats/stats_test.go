package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJainKnownValues(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{10, 10, 10, 10}, 1},
		{[]float64{1}, 1},
		{[]float64{1, 0, 0, 0}, 0.25}, // one flow hogs: 1/n
		{[]float64{2, 1}, 9.0 / 10},   // (3)^2/(2*5)
		{[]float64{}, 1},              // vacuous
		{[]float64{0, 0}, 1},          // all idle
		{[]float64{100, 50, 50, 50}, 62500.0 / 70000},
	}
	for _, c := range cases {
		if got := Jain(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// Property: Jain index always lies in [1/n, 1] for non-negative inputs
// with at least one positive value.
func TestJainBoundsProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		pos := false
		for _, v := range raw {
			xs = append(xs, float64(v))
			if v > 0 {
				pos = true
			}
		}
		j := Jain(xs)
		if !pos {
			return j == 1
		}
		n := float64(len(xs))
		return j >= 1/n-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {62.5, 3.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must be untouched.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{7}, 99.9); got != 7 {
		t.Fatalf("got %v, want 7", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	s := Summarize(xs)
	if s.N != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Mean-500.5) > 1e-9 {
		t.Fatalf("mean = %v, want 500.5", s.Mean)
	}
	if math.Abs(s.P50-500.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 500.5", s.P50)
	}
	if s.P999 < 999 || s.P999 > 1000 {
		t.Fatalf("p99.9 = %v, want ~999", s.P999)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestCDFValidation(t *testing.T) {
	bad := [][]CDFPoint{
		{{1, 1}},                              // too few
		{{1, 0.5}, {2, 0.4}},                  // decreasing frac
		{{1, 0.5}, {1, 1}},                    // non-increasing value
		{{1, 0.5}, {2, 0.9}},                  // doesn't reach 1
		{{1, -0.1}, {2, 1}},                   // frac below 0
		{{1, 0.5}, {math.NaN(), 0.7}, {3, 1}}, // NaN value
		{{1, 0.5}, {math.Inf(1), 1}},          // infinite value
		{{1, 0.5}, {2, math.NaN()}, {3, 1}},   // NaN frac
		{{math.Inf(-1), 0}, {1, 0.5}, {2, 1}}, // -Inf value
	}
	for i, pts := range bad {
		if _, err := NewCDF(pts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := NewCDF([]CDFPoint{{100, 0}, {1000, 0.5}, {10000, 1}}); err != nil {
		t.Fatalf("valid CDF rejected: %v", err)
	}
}

func TestCDFQuantileInterpolation(t *testing.T) {
	c := MustCDF([]CDFPoint{{0, 0}, {100, 0.5}, {1100, 1}})
	cases := []struct{ u, want float64 }{
		{0, 0}, {0.25, 50}, {0.5, 100}, {0.75, 600}, {1, 1100},
	}
	for _, tc := range cases {
		if got := c.Quantile(tc.u); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.u, got, tc.want)
		}
	}
}

func TestCDFSampleMatchesMean(t *testing.T) {
	c := MustCDF([]CDFPoint{{0, 0}, {100, 0.5}, {1100, 1}})
	r := rand.New(rand.NewSource(1))
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		sum += c.Sample(r)
	}
	got := sum / n
	want := c.Mean() // 0.5*50 + 0.5*600 = 325
	if math.Abs(want-325) > 1e-9 {
		t.Fatalf("Mean() = %v, want 325", want)
	}
	if math.Abs(got-want) > want*0.02 {
		t.Fatalf("sample mean %v, analytic %v", got, want)
	}
}

func TestCDFFracAbove(t *testing.T) {
	c := MustCDF([]CDFPoint{{0, 0}, {100, 0.5}, {1100, 1}})
	cases := []struct{ x, want float64 }{
		{-5, 1}, {0, 1}, {50, 0.75}, {100, 0.5}, {600, 0.25}, {1100, 0}, {5000, 0},
	}
	for _, tc := range cases {
		if got := c.FracAbove(tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("FracAbove(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

// Property: quantile is nondecreasing in u and within [min, max].
func TestCDFQuantileMonotoneProperty(t *testing.T) {
	c := MustCDF([]CDFPoint{{10, 0.1}, {100, 0.4}, {1000, 0.9}, {30000, 1}})
	prop := func(a, b float64) bool {
		u1 := math.Abs(math.Mod(a, 1))
		u2 := math.Abs(math.Mod(b, 1))
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		q1, q2 := c.Quantile(u1), c.Quantile(u2)
		return q1 <= q2+1e-9 && q1 >= 10 && q2 <= 30000
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFSampleBelowFirstKnot(t *testing.T) {
	// A CDF with mass at the first knot (Frac > 0) returns that value for
	// small u.
	c := MustCDF([]CDFPoint{{100, 0.3}, {200, 1}})
	if got := c.Quantile(0.1); got != 100 {
		t.Fatalf("Quantile(0.1) = %v, want 100", got)
	}
	if got := c.Max(); got != 200 {
		t.Fatalf("Max = %v, want 200", got)
	}
}

func TestJainByClass(t *testing.T) {
	xs := []float64{10, 10, 2, 1, 5}
	class := []int{0, 0, 1, 1, 2}
	got := JainByClass(xs, class, 4)
	want := []float64{
		1,        // equal pair
		9.0 / 10, // (3)^2 / (2*5)
		1,        // singleton: fair by convention
		1,        // empty class: vacuous, matches Jain(nil)
	}
	if len(got) != len(want) {
		t.Fatalf("classes = %d, want %d", len(got), len(want))
	}
	for c := range want {
		if math.Abs(got[c]-want[c]) > 1e-12 {
			t.Errorf("class %d: %v, want %v", c, got[c], want[c])
		}
	}
}

func TestJainByClassMatchesJainPerClass(t *testing.T) {
	// Each class's index must equal Jain restricted to that class's
	// members — the definition JainByClass is a single-pass version of.
	r := rand.New(rand.NewSource(42))
	const nClasses = 3
	xs := make([]float64, 50)
	class := make([]int, 50)
	byClass := make([][]float64, nClasses)
	for i := range xs {
		xs[i] = r.Float64() * 100
		class[i] = r.Intn(nClasses)
		byClass[class[i]] = append(byClass[class[i]], xs[i])
	}
	got := JainByClass(xs, class, nClasses)
	for c := 0; c < nClasses; c++ {
		if want := Jain(byClass[c]); math.Abs(got[c]-want) > 1e-12 {
			t.Errorf("class %d: %v, want Jain(%d members) = %v",
				c, got[c], len(byClass[c]), want)
		}
	}
}

func TestJainByClassPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() {
		JainByClass([]float64{1, 2}, []int{0}, 1)
	})
	mustPanic("class out of range", func() {
		JainByClass([]float64{1}, []int{1}, 1)
	})
	mustPanic("negative class", func() {
		JainByClass([]float64{1}, []int{-1}, 1)
	})
}

func TestJainByClassAllZeroClass(t *testing.T) {
	// A class whose members are all zero (e.g. an RTT class whose flows
	// delivered nothing in the sample window) reports 1, like Jain.
	got := JainByClass([]float64{0, 0, 5, 5}, []int{0, 0, 1, 1}, 2)
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("got %v, want [1 1]", got)
	}
}
