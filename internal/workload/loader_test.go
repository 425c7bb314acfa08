package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseCDF(t *testing.T) {
	src := `# WebSearch-style distribution
10000 15

20000 20
1000000 70
30000000 100
`
	cdf, err := ParseCDF(strings.NewReader(src))
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

func TestParseCDFErrors(t *testing.T) {
	cases := map[string]string{
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
	}
	for name, src := range cases {
		if _, err := ParseCDF(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
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
