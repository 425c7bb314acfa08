package exp

import (
	"strings"
	"sync"
	"testing"
)

// smallRun is one experiment's one execution at small scale, shared by
// TestEveryExperimentRuns, which reads its figures, and TestClaims, which
// reads its verdicts.
type smallRun struct {
	once     sync.Once
	results  []*Result
	verdicts []Verdict
	err      error
}

var smallRuns sync.Map // *Experiment -> *smallRun

// runSmall executes e at small scale the first time any test asks for it.
func runSmall(e *Experiment) *smallRun {
	v, _ := smallRuns.LoadOrStore(e, &smallRun{})
	o := v.(*smallRun)
	o.once.Do(func() {
		cfg := DefaultConfig()
		cfg.Scale = "small"
		cfg.obs = &runObserver{} // collect each simulation's RunStats, as RunWithStats does
		o.results, o.verdicts, o.err = e.run(cfg)
	})
	return o
}

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
	for _, e := range Experiments() {
		for i, f := range e.Figures {
			name := f.Name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				o := runSmall(e)
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

// TestClaims is the artifact-evaluation self-check at small scale: every
// claim's verdict, read off the one execution of the experiment that
// declares it (the execution TestEveryExperimentRuns reads figures off),
// must PASS. A check reads its run's typed output, never a figure's notes.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("claims sweep in -short mode")
	}
	if n := len(Claims()); n < 12 {
		t.Fatalf("only %d claims registered", n)
	}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		for i, c := range e.Claims {
			if seen[c.Name] {
				t.Fatalf("duplicate claim %q", c.Name)
			}
			seen[c.Name] = true
			t.Run(c.Name, func(t *testing.T) {
				t.Parallel()
				o := runSmall(e)
				if o.err != nil {
					t.Fatalf("%s errored: %v", c.Name, o.err)
				}
				if len(o.verdicts) != len(e.Claims) {
					t.Fatalf("%d verdicts for %d declared claims", len(o.verdicts), len(e.Claims))
				}
				if v := o.verdicts[i]; v.Claim != c || !v.OK {
					t.Errorf("%s not reproduced: %s", v.Name, v.Detail)
				}
			})
		}
	}
}
