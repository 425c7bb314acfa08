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

	"faircc/internal/net"
	"faircc/internal/sim"
)

// Config controls experiment scale and reproducibility. The JSON tags are
// the run manifest's: Manifest embeds the Config it ran, so every
// parameter that changes a result is recorded there by construction. The
// parameters are omitted at their zero values, which keeps the key set of
// a default-config manifest fixed as parameters are added.
type Config struct {
	// Seed drives all randomness (traffic generation, probabilistic
	// feedback, RED). Two runs with equal Seed and scale are identical.
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

	// Lossy-mode knobs for the incast-lossy / incast-pfc-vs-lossy
	// experiments (zero = each experiment's defaults; other experiments
	// ignore them). BufferBytes caps every switch egress queue;
	// DropDataProb / DropAckProb inject random per-packet wire loss.
	BufferBytes  int64   `json:"buffer_bytes,omitempty"`
	DropDataProb float64 `json:"drop_data_prob,omitempty"`
	DropAckProb  float64 `json:"drop_ack_prob,omitempty"`

	// RTT-heterogeneity knobs for the rtt-unfairness experiments (zero =
	// each scenario's preset; other experiments ignore them).
	// RTTSlowDelay overrides the slow group's access-link propagation
	// delay; RTTSenders overrides the per-group sender count.
	RTTSlowDelay sim.Time `json:"rtt_slow_delay_ps,omitempty"`
	RTTSenders   int      `json:"rtt_senders,omitempty"`

	// Parameters of the dc experiment (zero = the Scale preset's fabric
	// and window, Hadoop traffic at 50% load, HPCC; other experiments
	// ignore them). DCWorkload is hadoop, websearch, storage, mix, or the
	// path of a distribution file; DCProtocol, hpcc or swift, is compared
	// with and without VAI SF. DCPods, DCToRs (ToR and Agg switches per
	// pod) and DCHostsPerToR resize the fat-tree, and DCOversub thins
	// the ToR uplinks to an N:1 host-to-fabric ratio (zero = the paper's
	// 1:1). DCDuration is the traffic window, DCLoad the offered load as a
	// fraction of host line rate.
	DCWorkload    string   `json:"dc_workload,omitempty"`
	DCProtocol    string   `json:"dc_protocol,omitempty"`
	DCPods        int      `json:"dc_pods,omitempty"`
	DCToRs        int      `json:"dc_tors,omitempty"`
	DCHostsPerToR int      `json:"dc_hosts_per_tor,omitempty"`
	DCOversub     float64  `json:"dc_oversub,omitempty"`
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
// a load or ratio that is negative, NaN or infinite (an infinite arrival
// rate never reaches the end of the traffic window);
// a switch buffer smaller than one data packet; a drop probability
// outside [0,1) — at 1 and above no packet is ever delivered and the run
// can only stall; a dc traffic window no flow arrives in; or an RTT
// dumbbell whose slow group's round trip does not fit the clock. Zero always
// means "the preset", so a negative value must not silently select it either.
func (cfg Config) Validate() error {
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"Workers", int64(cfg.Workers)},
		{"BufferBytes", cfg.BufferBytes},
		{"RTTSenders", int64(cfg.RTTSenders)},
		{"RTTSlowDelay", int64(cfg.RTTSlowDelay)},
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
	for _, c := range []struct {
		name string
		v    float64
		max  float64 // exclusive
	}{
		{"DropDataProb", cfg.DropDataProb, 1},
		{"DropAckProb", cfg.DropAckProb, 1},
		{"DCLoad", cfg.DCLoad, math.Inf(1)},
		{"DCOversub", cfg.DCOversub, math.Inf(1)},
	} {
		if !(c.v >= 0 && c.v < c.max) { // also rejects NaN
			return fmt.Errorf("exp: %s must be in [0,%v), got %v", c.name, c.max, c.v)
		}
	}
	// A last start group beyond the picosecond clock wraps into the past,
	// where the engine refuses to schedule it.
	if in := customShape(cfg); sim.Time((in.senders-1)/in.group) > sim.Time(math.MaxInt64)/in.every {
		return fmt.Errorf("exp: IncastEvery %v puts the last of %d start groups beyond the simulator's clock (at most %v)",
			in.every, (in.senders-1)/in.group+1, sim.Time(math.MaxInt64))
	}
	// A switch buffer that cannot hold one data packet tail-drops every one
	// of them, even into an empty queue, and go-back-N retries until the
	// run stalls.
	nw := net.New(sim.NewEngine(), 0)
	if pkt := int64(nw.MTU + nw.HeaderBytes); cfg.BufferBytes > 0 && cfg.BufferBytes < pkt {
		return fmt.Errorf("exp: BufferBytes must be 0 or hold one %d-byte data packet, got %d", pkt, cfg.BufferBytes)
	}
	ftCfg, duration, err := dcSetup(cfg) // dcScale's is the one list of scale names
	if err != nil {
		return err
	}
	if _, err := dcTraffic(cfg, ftCfg, duration, cmp.Or(cfg.DCWorkload, "hadoop"), cmp.Or(cfg.DCLoad, dcLoad)); err != nil {
		return err
	}
	for _, rtt := range []func(Config) (rttSetup, error){rttScale, rttScaleWAN} {
		if _, err := rtt(cfg); err != nil {
			return err
		}
	}
	if p := cfg.DCProtocol; p != "" && p != "hpcc" && p != "swift" {
		return fmt.Errorf("exp: unknown protocol %q (hpcc or swift)", p)
	}
	if _, ok := variantsByKey(pathParams{})[cmp.Or(cfg.IncastAlgo, "hpcc")]; !ok {
		return fmt.Errorf("exp: unknown algorithm %q", cfg.IncastAlgo)
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

// Figure names one registered output: a figure of the paper or an
// extension experiment.
type Figure struct {
	Name  string
	Title string
}

// Experiment is the registry's unit: one set of simulations plus the
// figures read off it. Several of the paper's figures are different plots
// of the same simulations (Figs. 10 and 12 are the tail and the median of
// one traffic run), so a figure is a view of a run, and asking for any of
// a run's figures executes its simulations once.
type Experiment struct {
	// Figures declares, in order, the Results run returns.
	Figures []Figure
	// Reads is the parameter groups the run reads; it ignores the others.
	Reads Params
	run   func(Config) ([]*Result, error)
}

// Params is a set of Config's parameter groups: the fields beyond Seed,
// Workers and Scale, which only some experiments read.
type Params uint8

const (
	LossyParams  Params = 1 << iota // BufferBytes, DropDataProb, DropAckProb
	RTTParams                       // RTTSlowDelay, RTTSenders
	DCParams                        // the DC* fields
	IncastParams                    // the Incast* fields
)

// single is the Experiment of a run that only one figure reads.
func single(name, title string, run func(Config) (*Result, error)) *Experiment {
	return &Experiment{
		Figures: []Figure{{name, title}},
		run: func(cfg Config) ([]*Result, error) {
			res, err := run(cfg)
			return []*Result{res}, err
		},
	}
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
