package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faircc/internal/sim"
)

// webSearchFile is a WebSearch-style distribution file.
const webSearchFile = `# WebSearch-style distribution
10000 15

20000 20
1000000 70
30000000 100
`

func TestParseCDF(t *testing.T) {
	cdf, err := ParseCDF(strings.NewReader(webSearchFile))
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Max() != 30_000_000 {
		t.Fatalf("max = %v, want 30MB", cdf.Max())
	}
	if got := cdf.FracAbove(1_000_000); got < 0.2999 || got > 0.3001 {
		t.Fatalf("P(>1MB) = %v, want 0.30", got)
	}
	if got := cdf.Quantile(0.15); got != 10_000 {
		t.Fatalf("Quantile(0.15) = %v, want 10000", got)
	}
}

// badCDFFiles are distribution files nothing can be generated from.
var badCDFFiles = map[string]string{
	"three fields":       "100 50 extra\n200 100\n",
	"bad size":           "abc 50\n200 100\n",
	"bad percent":        "100 x\n200 100\n",
	"doesn't reach 100":  "100 50\n200 90\n",
	"decreasing percent": "100 60\n200 40\n300 100\n",
	"empty":              "# only comments\n",
	// strconv.ParseFloat accepts these; a NaN or infinite knot made
	// Poisson's mean gap NaN or zero and generation never ended.
	"nan size":    "100 50\nnan 70\n300 100\n",
	"inf size":    "100 50\ninf 100\n",
	"nan percent": "100 50\n200 nan\n300 100\n",
	// A negative mean made every Poisson gap negative, so the clock ran
	// backwards and generation appended flows until the OOM killer came; a
	// zero mean made every gap zero and the clock stood still. A size past
	// int64 would convert to a negative flow size.
	"negative sizes":  "-1000 50\n-1 100\n",
	"zero mean":       "0 100\n5 100\n",
	"size over int64": "0 50\n1e19 100\n",
}

// A bad file is refused by ParseCDF or, once parsed, by CheckSizes, which
// NewArrivals applies.
func TestParseCDFErrors(t *testing.T) {
	for name, src := range badCDFFiles {
		if cdf, err := ParseCDF(strings.NewReader(src)); err == nil && CheckSizes(cdf) == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// FuzzArrivals: whatever distribution file ParseCDF and CheckSizes accept,
// a microsecond of traffic on two hosts ends, in start order, inside the
// window, with positive sizes and unique ids; whatever CheckSizes refuses,
// NewArrivals refuses too.
func FuzzArrivals(f *testing.F) {
	f.Add(webSearchFile)
	for _, src := range badCDFFiles {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sizes, err := ParseCDF(strings.NewReader(src))
		if err != nil {
			return
		}
		cfg := PoissonConfig{Hosts: []int{0, 1}, Load: 0.5, LinkBps: 100e9, Duration: sim.Microsecond, Seed: 1}
		if err := CheckSizes(sizes); err != nil {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewArrivals accepted sizes CheckSizes refuses: %v", err)
				}
			}()
			NewArrivals(cfg, sizes)
			return
		}
		a := NewArrivals(cfg, sizes, sizes)
		seen := map[int]bool{}
		var last sim.Time
		for spec, ok := a.Next(); ok; spec, ok = a.Next() {
			if len(seen) == 1_000_000 {
				t.Fatal("more than 10^6 flows in 1 us")
			}
			if spec.Start < last || spec.Start >= cfg.Duration || spec.Size < 1 || seen[spec.ID] {
				t.Fatalf("flow %+v after start %v: out of order, outside the window, empty or a repeated id", spec, last)
			}
			seen[spec.ID], last = true, spec.Start
		}
	})
}

func TestLoadCDF(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dist.txt")
	if err := os.WriteFile(path, []byte("1000 50\n2000 100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cdf, err := LoadCDF(path)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Mean() != 1500*0.5+500*0.5+250 { // sanity: mean in (1000, 2000)
		// Just check the range rather than the exact trapezoid value.
		if m := cdf.Mean(); m < 1000 || m > 2000 {
			t.Fatalf("mean = %v, want within support", m)
		}
	}
	if _, err := LoadCDF(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("expected error for missing file")
	}
	bad := filepath.Join(dir, "bad.txt")
	os.WriteFile(bad, []byte("zzz\n"), 0o644)
	if _, err := LoadCDF(bad); err == nil {
		t.Fatal("expected parse error surfaced from LoadCDF")
	}
}
