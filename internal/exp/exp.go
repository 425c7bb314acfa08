// Package exp contains the experiment registry: every figure of the paper
// by name (Figs. 1-6 and 8-13; Fig. 7 is the topology diagram, realized by
// internal/topo), plus ablations of the mechanisms' parameters. An
// experiment builds its simulations, runs the protocol variants in
// parallel, and returns the labeled data series of each figure read off
// them.
package exp

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"faircc/internal/sim"
)

// Config controls experiment scale and reproducibility. The JSON tags are
// the run manifest's: Manifest embeds the Config it ran, so every
// parameter that changes a result is recorded there by construction. The
// parameters are omitted at their zero values, which keeps the key set of
// a default-config manifest fixed as parameters are added.
type Config struct {
	// Seed drives all randomness (traffic generation, probabilistic
	// feedback, wire loss). Two runs with equal Seed and scale are identical.
	Seed int64 `json:"seed"`
	// Workers bounds the parallelism across protocol variants and sweeps
	// (0 = GOMAXPROCS). It never changes results.
	Workers int `json:"workers"`
	// Scale picks the experiment size: "small" for tests and benches,
	// "medium" for the recorded results in EXPERIMENTS.md, "full" for the
	// paper-scale setup (320 hosts, 50 ms datacenter runs).
	Scale string `json:"scale"`

	// Progress, when non-nil, receives periodic updates from every
	// simulation the experiment runs (roughly once per ProgressEvery of
	// wall time per run, plus a final Done update). It may be called
	// concurrently from parallel variant runs and must be safe for that.
	// Observation never changes results.
	Progress func(ProgressUpdate) `json:"-"`
	// ProgressEvery is the target wall-time interval between updates
	// (default 1s).
	ProgressEvery time.Duration `json:"-"`

	// Parameters of the dc experiment (zero = the Scale preset's fabric
	// and window, Hadoop traffic at 50% load, HPCC; other experiments
	// ignore them). DCWorkload is hadoop, websearch, storage, mix, or the
	// path of a distribution file; DCProtocol, hpcc or swift, is compared
	// with and without VAI SF. DCPods, DCToRs (ToR and Agg switches per
	// pod) and DCHostsPerToR resize the paper's 1:1 fat-tree. DCDuration
	// is the traffic window, DCLoad the offered load as a fraction of host
	// line rate.
	DCWorkload    string   `json:"dc_workload,omitempty"`
	DCProtocol    string   `json:"dc_protocol,omitempty"`
	DCPods        int      `json:"dc_pods,omitempty"`
	DCToRs        int      `json:"dc_tors,omitempty"`
	DCHostsPerToR int      `json:"dc_hosts_per_tor,omitempty"`
	DCDuration    sim.Time `json:"dc_duration_ps,omitempty"`
	DCLoad        float64  `json:"dc_load,omitempty"`

	// Parameters of the incast experiment (zero = the paper's 16-1
	// pattern under HPCC: 1 MB flows, two starting every 20 us; other
	// experiments ignore them). IncastAlgo is a variantsByKey name.
	IncastAlgo      string   `json:"incast_algo,omitempty"`
	IncastSenders   int      `json:"incast_senders,omitempty"`
	IncastFlowBytes int64    `json:"incast_flow_bytes,omitempty"`
	IncastGroup     int      `json:"incast_group,omitempty"`
	IncastEvery     sim.Time `json:"incast_every_ps,omitempty"`

	// obs accumulates RunStats across the experiment's simulations; set by
	// RunWithStats.
	obs *runObserver
}

// DefaultConfig returns a medium-scale configuration with seed 1.
func DefaultConfig() Config { return Config{Seed: 1, Scale: "medium"} }

// Validate rejects a configuration before any experiment builds a
// simulation from it, whichever experiment it is meant for: an unknown
// scale (which star experiments would otherwise ignore), workload,
// protocol or algorithm; a negative count, size or time; an incast whose
// last flows would start beyond the clock; a fat-tree nothing can run on;
// a load that is negative, NaN or infinite (an infinite arrival rate never
// reaches the end of the traffic window); or a dc traffic window no flow
// arrives in. Zero always means "the preset", so a negative value must not
// silently select it either.
func (cfg Config) Validate() error {
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"Workers", int64(cfg.Workers)},
		{"DCPods", int64(cfg.DCPods)},
		{"DCToRs", int64(cfg.DCToRs)},
		{"DCHostsPerToR", int64(cfg.DCHostsPerToR)},
		{"DCDuration", int64(cfg.DCDuration)},
		{"IncastSenders", int64(cfg.IncastSenders)},
		{"IncastFlowBytes", cfg.IncastFlowBytes},
		{"IncastGroup", int64(cfg.IncastGroup)},
		{"IncastEvery", int64(cfg.IncastEvery)},
	} {
		if c.v < 0 {
			return fmt.Errorf("exp: %s must not be negative, got %d", c.name, c.v)
		}
	}
	// -0 too: it equals 0, so it would select the preset.
	if math.Signbit(cfg.DCLoad) || !(cfg.DCLoad < math.Inf(1)) { // also rejects NaN
		return fmt.Errorf("exp: DCLoad must be in [0,+Inf), got %v", cfg.DCLoad)
	}
	// A last start group beyond the picosecond clock wraps into the past,
	// where the engine refuses to schedule it.
	if in := customShape(cfg); sim.Time((in.senders-1)/in.group) > sim.Time(math.MaxInt64)/in.every {
		return fmt.Errorf("exp: IncastEvery %v puts the last of %d start groups beyond the simulator's clock (at most %v)",
			in.every, (in.senders-1)/in.group+1, sim.Time(math.MaxInt64))
	}
	ftCfg, duration, err := dcSetup(cfg) // dcScale's is the one list of scale names
	if err != nil {
		return err
	}
	if _, err := dcTraffic(cfg, ftCfg, duration, cmp.Or(cfg.DCWorkload, "hadoop"), cmp.Or(cfg.DCLoad, dcLoad)); err != nil {
		return err
	}
	if p := cfg.DCProtocol; p != "" && p != "hpcc" && p != "swift" {
		return fmt.Errorf("exp: unknown protocol %q (hpcc or swift)", p)
	}
	if vs := variantsByKey(pathParams{}); vs[cmp.Or(cfg.IncastAlgo, "hpcc")].make == nil {
		var names []string
		for name := range vs {
			names = append(names, name)
		}
		slices.Sort(names)
		return fmt.Errorf("exp: unknown algorithm %q (one of %s)", cfg.IncastAlgo, strings.Join(names, ", "))
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

// WriteNotes emits the notes, one per line: the headline numbers the
// CSV's curves do not carry.
func (r *Result) WriteNotes(w io.Writer) error {
	for _, n := range r.Notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
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

// Figure names one registered output: a figure of the paper or an
// extension experiment.
type Figure struct {
	Name  string
	Title string
}

// Experiment is the registry's unit: one set of simulations plus the
// figures read off it and the claims checked on it. Several of the paper's
// figures are different plots of the same simulations (Figs. 10 and 12 are
// the tail and the median of one traffic run), so a figure is a view of a
// run, a claim a check on it, and the run executes once for all of them.
type Experiment struct {
	// Figures declares, in order, the Results run returns.
	Figures []Figure
	// Claims declares, in order, the verdicts run returns.
	Claims []Claim
	run    func(Config) ([]*Result, []Verdict, error)
}

// A view is one figure of a run, read off the run's typed output;
// experiment stamps the Result with the Figure's Name and Title.
type view[T any] struct {
	Figure
	show func(Config, T) *Result
}

// A check is one claim on a run: whether the run's typed output bears it
// out, and the numbers that say so. It reads no Result, so no rewording of
// a note can change a verdict.
type check[T any] struct {
	Claim
	holds func(T) (ok bool, detail string)
}

// experiment is the one way to register a run: run executes the
// simulations, and every view and check reads the same output.
func experiment[T any](run func(Config) (T, error), views []view[T], checks ...check[T]) *Experiment {
	e := &Experiment{}
	for _, v := range views {
		e.Figures = append(e.Figures, v.Figure)
	}
	for _, c := range checks {
		e.Claims = append(e.Claims, c.Claim)
	}
	e.run = func(cfg Config) ([]*Result, []Verdict, error) {
		out, err := run(cfg)
		if err != nil {
			return nil, nil, err
		}
		results := make([]*Result, len(views))
		for i, v := range views {
			results[i] = v.show(cfg, out)
			results[i].Name, results[i].Title = v.Name, v.Title
		}
		verdicts := make([]Verdict, len(checks))
		for i, c := range checks {
			ok, detail := c.holds(out)
			verdicts[i] = Verdict{c.Claim, ok, detail}
		}
		return results, verdicts, nil
	}
	return e
}

// registry is filled by register at init time and only read afterwards.
var registry []*Experiment

// register adds an experiment at init time; duplicate figure names are
// programming errors.
func register(e *Experiment) {
	for _, f := range e.Figures {
		if _, err := Get(f.Name); err == nil {
			panic("exp: duplicate experiment " + f.Name)
		}
	}
	registry = append(registry, e)
}

// Get looks up the experiment that produces the named figure.
func Get(name string) (*Experiment, error) {
	for _, e := range registry {
		for _, f := range e.Figures {
			if f.Name == name {
				return e, nil
			}
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (see Names())", name)
}

// Experiments returns every registered experiment once, ordered by the
// name of its first figure.
func Experiments() []*Experiment {
	es := slices.Clone(registry)
	slices.SortFunc(es, func(a, b *Experiment) int { return cmp.Compare(a.Figures[0].Name, b.Figures[0].Name) })
	return es
}

// Figures returns all registered figures, sorted by name.
func Figures() []Figure {
	var fs []Figure
	for _, e := range registry {
		fs = append(fs, e.Figures...)
	}
	slices.SortFunc(fs, func(a, b Figure) int { return cmp.Compare(a.Name, b.Name) })
	return fs
}

// Names returns all registered figure names, sorted.
func Names() []string {
	var names []string
	for _, f := range Figures() {
		names = append(names, f.Name)
	}
	return names
}

// Run runs the experiment that owns the named figure, after validating
// cfg, and returns that figure.
func Run(name string, cfg Config) (*Result, error) {
	res, _, err := RunWithStats(name, cfg)
	return res, err
}

// forever is the until of every sampler an experiment starts: a series ends
// when its run does (see runSequential), however long that takes.
const forever = sim.Time(math.MaxInt64)
