// Package exp contains the experiment registry: one named, runnable
// experiment per figure of the paper (Figs. 1-6 and 8-13; Fig. 7 is the
// topology diagram, realized by internal/topo), plus ablations of the
// mechanisms' parameters. Each experiment builds its simulations, runs the
// protocol variants in parallel, and returns labeled data series that
// regenerate the figure.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"faircc/internal/sim"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Seed drives all randomness (traffic generation, probabilistic
	// feedback, RED). Two runs with equal Seed and scale are identical.
	Seed int64
	// Workers bounds the parallelism across protocol variants and sweeps
	// (0 = GOMAXPROCS). It never changes results.
	Workers int
	// Shards partitions each datacenter fat-tree simulation into this
	// many execution shards driven in parallel by sim.Parallel (see
	// Network.Shard). 0 or 1 keeps the sequential engine. A fixed shard
	// count is deterministic across repetitions, but different counts
	// yield statistically equivalent — not identical — results, so the
	// recorded figures use the sequential engine. Experiments without a
	// fat-tree (incast star, fluid model) ignore the setting.
	Shards int
	// Scale picks the experiment size: "small" for tests and benches,
	// "medium" for the recorded results in EXPERIMENTS.md, "full" for the
	// paper-scale setup (320 hosts, 50 ms datacenter runs).
	Scale string

	// Progress, when non-nil, receives periodic updates from every
	// simulation the experiment runs (roughly once per ProgressEvery of
	// wall time per run, plus a final Done update). It may be called
	// concurrently from parallel variant runs and must be safe for that.
	// Observation never changes results.
	Progress func(ProgressUpdate)
	// ProgressEvery is the target wall-time interval between updates
	// (default 1s).
	ProgressEvery time.Duration

	// Lossy-mode knobs for the incast-lossy / incast-pfc-vs-lossy
	// experiments (zero = each experiment's defaults; other experiments
	// ignore them). BufferBytes caps every switch egress queue;
	// DropDataProb / DropAckProb inject random per-packet wire loss.
	BufferBytes  int64
	DropDataProb float64
	DropAckProb  float64

	// AckCoalesce enables receiver-side ACK coalescing in every simulation
	// the experiment runs (net.Network.AckCoalesce). Off by default: the
	// recorded figures use the paper-faithful per-packet ACK model, and
	// the ack-coalesce experiment measures the divergence explicitly.
	AckCoalesce bool

	// RTT-heterogeneity knobs for the rtt-unfairness experiments (zero =
	// each scenario's preset; other experiments ignore them).
	// RTTSlowDelay overrides the slow group's access-link propagation
	// delay; RTTSenders overrides the per-group sender count.
	RTTSlowDelay sim.Time
	RTTSenders   int

	// obs accumulates RunStats across the experiment's simulations; set by
	// RunWithStats.
	obs *runObserver
}

// DefaultConfig returns a medium-scale configuration with seed 1.
func DefaultConfig() Config { return Config{Seed: 1, Scale: "medium"} }

// validate rejects a configuration before any experiment builds a
// simulation from it: an unknown scale (which star experiments would
// otherwise ignore), a negative count or size, or a drop probability
// outside [0,1) — at 1 and above no packet is ever delivered and the run
// never ends, and a negative value would silently select the default.
func (cfg Config) validate() error {
	if _, _, err := dcScale(cfg); err != nil { // the one list of scale names
		return err
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"Shards", int64(cfg.Shards)},
		{"Workers", int64(cfg.Workers)},
		{"BufferBytes", cfg.BufferBytes},
		{"RTTSenders", int64(cfg.RTTSenders)},
		{"RTTSlowDelay", int64(cfg.RTTSlowDelay)},
	} {
		if c.v < 0 {
			return fmt.Errorf("exp: %s must not be negative, got %d", c.name, c.v)
		}
	}
	for _, c := range []struct {
		name string
		p    float64
	}{
		{"DropDataProb", cfg.DropDataProb},
		{"DropAckProb", cfg.DropAckProb},
	} {
		if !(c.p >= 0 && c.p < 1) { // also rejects NaN
			return fmt.Errorf("exp: %s must be in [0,1), got %v", c.name, c.p)
		}
	}
	return nil
}

// Series is one curve: paired X/Y samples with a legend label.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Add appends a sample.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Result is an experiment's output: the figure's curves plus notes about
// scale and derived headline numbers.
type Result struct {
	Name   string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteCSV emits all series as label,x,y rows with a header.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "series,%s,%s\n", csvEscape(r.XLabel), csvEscape(r.YLabel)); err != nil {
		return err
	}
	for _, s := range r.Series {
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", csvEscape(s.Label), s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary renders the notes and per-series sample counts for terminal
// output.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", r.Name, r.Title)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  series %-24s %d points\n", s.Label, len(s.X))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Experiment is a named, runnable reproduction of one figure.
type Experiment struct {
	Name  string
	Title string
	Run   func(Config) (*Result, error)
}

var (
	mu       sync.Mutex
	registry = map[string]*Experiment{}
)

// register adds an experiment at init time; duplicate names are
// programming errors.
func register(e *Experiment) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[e.Name]; dup {
		panic("exp: duplicate experiment " + e.Name)
	}
	registry[e.Name] = e
}

// Get looks up an experiment by name.
func Get(name string) (*Experiment, error) {
	mu.Lock()
	defer mu.Unlock()
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (see Names())", name)
	}
	return e, nil
}

// Names returns all registered experiment names, sorted.
func Names() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run looks up and runs an experiment, after validating cfg.
func Run(name string, cfg Config) (*Result, error) {
	e, err := Get(name)
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return e.Run(cfg)
}

// horizon bounds sampler scheduling; simulations stop as soon as all flows
// finish, so a generous horizon costs nothing.
const horizon = 200 * sim.Millisecond
