package exp

import (
	"strings"
	"sync"
	"testing"
)

// TestEveryExperimentRuns executes the full registry at small scale: every
// registered experiment must complete, return exactly the figures it
// declares, each under its registered name and title (which -list, the
// terminal summary and the manifest all print), each with at least one
// non-empty series, and pass the network
// conservation checks its runner performs. There is one subtest per
// figure, but figures that share an experiment share its one execution.
// This is the repository's broadest integration test.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale = "small"
	type outcome struct {
		once    sync.Once
		results []*Result
		err     error
	}
	for _, e := range Experiments() {
		e, o := e, &outcome{}
		for i, f := range e.Figures {
			i, name := i, f.Name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				o.once.Do(func() { o.results, _, o.err = e.RunWithStats(cfg) })
				if o.err != nil {
					t.Fatalf("%s failed: %v", name, o.err)
				}
				if len(o.results) != len(e.Figures) {
					t.Fatalf("%d results for %d declared figures", len(o.results), len(e.Figures))
				}
				res := o.results[i]
				if res.Name != name || res.Title != f.Title {
					t.Fatalf("result %d is %q: %q, declared %q: %q", i, res.Name, res.Title, name, f.Title)
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
				// Every figure must also round-trip through CSV.
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
}

// TestEveryFigureHasOneExperiment: the registry's figure names are unique,
// each is reachable through Get, and the experiments partition them.
func TestEveryFigureHasOneExperiment(t *testing.T) {
	owners := map[string]int{}
	for _, e := range Experiments() {
		for _, f := range e.Figures {
			owners[f.Name]++
			if got, err := Get(f.Name); err != nil || got != e {
				t.Errorf("Get(%q) = %p, %v; want the experiment declaring it", f.Name, got, err)
			}
		}
	}
	names := Names()
	if len(names) != 33 {
		t.Errorf("%d figure names registered, want 33", len(names))
	}
	for _, n := range names {
		if owners[n] != 1 {
			t.Errorf("%s is declared by %d experiments, want 1", n, owners[n])
		}
	}
	if len(owners) != len(names) {
		t.Errorf("experiments declare %d figures, Names() has %d", len(owners), len(names))
	}
}

// TestExperimentTitlesUnique guards against copy-paste registration
// mistakes.
func TestExperimentTitlesUnique(t *testing.T) {
	seen := map[string]string{}
	for _, f := range Figures() {
		name := f.Name
		if f.Title == "" {
			t.Errorf("%s has no title", name)
		}
		// Titles are printed verbatim, never used as a format string.
		if strings.Contains(f.Title, "%%") {
			t.Errorf("%s: title %q carries a printf escape", name, f.Title)
		}
		if prev, dup := seen[f.Title]; dup {
			t.Errorf("title %q shared by %s and %s", f.Title, prev, name)
		}
		seen[f.Title] = name
	}
}

// TestClaims runs the artifact-evaluation self-check at small scale, with
// every figure's notes dropped: a claim reads the typed output of the run
// it calls, so no rewording (or absence) of a note can turn it into a FAIL.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("claims sweep in -short mode")
	}
	for _, e := range registry {
		e, run := e, e.run
		e.run = func(cfg Config) ([]*Result, error) {
			results, err := run(cfg)
			for _, res := range results {
				res.Notes = nil
			}
			return results, err
		}
		t.Cleanup(func() { e.run = run }) // after the parallel subtests
	}
	cfg := DefaultConfig()
	cfg.Scale = "small"
	claims := Claims()
	if len(claims) < 12 {
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
