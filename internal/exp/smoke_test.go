package exp

import (
	"strings"
	"testing"
)

// TestEveryExperimentRuns executes the full registry at small scale: every
// registered experiment must complete, produce at least one non-empty
// series, and pass the network conservation checks its runner performs.
// This is the repository's broadest integration test.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale = "small"
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(name, cfg)
			if err != nil {
				t.Fatalf("%s failed: %v", name, err)
			}
			if len(res.Series) == 0 {
				t.Fatalf("%s produced no series", name)
			}
			for _, s := range res.Series {
				if len(s.X) == 0 {
					t.Fatalf("%s series %q is empty", name, s.Label)
				}
				if len(s.X) != len(s.Y) {
					t.Fatalf("%s series %q has mismatched X/Y", name, s.Label)
				}
			}
			if res.Name != name {
				t.Fatalf("result name %q != experiment %q", res.Name, name)
			}
			// Every experiment must also round-trip through CSV.
			var b strings.Builder
			if err := res.WriteCSV(&b); err != nil {
				t.Fatalf("%s CSV: %v", name, err)
			}
			if !strings.HasPrefix(b.String(), "series,") {
				t.Fatalf("%s CSV missing header", name)
			}
		})
	}
}

// TestExperimentTitlesUnique guards against copy-paste registration
// mistakes.
func TestExperimentTitlesUnique(t *testing.T) {
	seen := map[string]string{}
	for _, name := range Names() {
		e, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Title == "" {
			t.Errorf("%s has no title", name)
		}
		// Titles are printed verbatim, never used as a format string.
		if strings.Contains(e.Title, "%%") {
			t.Errorf("%s: title %q carries a printf escape", name, e.Title)
		}
		if prev, dup := seen[e.Title]; dup {
			t.Errorf("title %q shared by %s and %s", e.Title, prev, name)
		}
		seen[e.Title] = name
	}
}

// TestClaims runs the artifact-evaluation self-check at small scale.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("claims sweep in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale = "small"
	claims := Claims()
	if len(claims) < 8 {
		t.Fatalf("only %d claims registered", len(claims))
	}
	seen := map[string]bool{}
	for _, c := range claims {
		c := c
		if seen[c.Name] {
			t.Fatalf("duplicate claim %q", c.Name)
		}
		seen[c.Name] = true
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			ok, detail, err := c.Check(cfg)
			if err != nil {
				t.Fatalf("%s errored: %v", c.Name, err)
			}
			if !ok {
				t.Errorf("%s not reproduced: %s", c.Name, detail)
			}
		})
	}
}
