package exp

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// TestRegistryComplete: every registered experiment is read by a figure of
// the paper, a -verify claim that can fail and is checked on its run, or an
// open item of ROADMAP.md, and every row of the table names a registered
// experiment. An experiment
// nothing reads goes, with its CSV, tests and docs; one that gains or loses
// a reader changes its row here.
func TestRegistryComplete(t *testing.T) {
	readers := map[string]string{
		"fig1a": "Fig. 1a", "fig1b": "Fig. 1b", "fig1c": "Fig. 1c", "fig1d": "Fig. 1d",
		"fig2": "Fig. 2", "fig3": "Fig. 3", "fig4": "Fig. 4",
		"fig5a": "Fig. 5a", "fig5b": "Fig. 5b", "fig5c": "Fig. 5c", "fig5d": "Fig. 5d",
		"fig6a": "Fig. 6a", "fig6b": "Fig. 6b", "fig6c": "Fig. 6c", "fig6d": "Fig. 6d",
		"fig8": "Fig. 8", "fig9": "Fig. 9", // Fig. 7 is the topology diagram
		"fig10": "Fig. 10", "fig11": "Fig. 11", "fig12": "Fig. 12", "fig13": "Fig. 13",

		"ablate-aicap":    "claim aicap-latency-fairness",
		"ablate-sf":       "claim sf-bandwidth-fairness",
		"ablate-dampener": "claim dampener-protection",
		"ablate-newflow":  "claim newflow-corner-case",
		"incast-timely":   "claim vaisf-convergence-timely",
		"incast-lossy":    "claim lossy-fewer-drops",

		"ablate-swift-hai": "ROADMAP item 2: the hyper-AI bullet is rewritten, or the experiment goes",
		"dc":               "ROADMAP item 2: default Swift's backlog on `dc -scale large -ms 50`",
		"rtt-unfairness":   "ROADMAP item 6: fair and slow, or fair and underused",
		"robustness":       "ROADMAP item 10: the seed sweep",
		"incast":           "ROADMAP item 12: the configurable incast of fairsim and the library",
	}
	roadmap, err := os.ReadFile(filepath.Join("..", "..", "ROADMAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, name := range Names() {
		registered[name] = true
		if _, ok := readers[name]; !ok {
			t.Errorf("experiment %q is registered, but no figure, claim or open item reads it", name)
		}
	}
	for name, reader := range readers {
		if !registered[name] {
			t.Errorf("experiment %q has a reader (%s) but is not registered", name, reader)
		}
		switch {
		case strings.HasPrefix(reader, "Fig. "):
			if reader != "Fig. "+strings.TrimPrefix(name, "fig") {
				t.Errorf("experiment %q is not %s", name, reader)
			}
		case strings.HasPrefix(reader, "claim "):
			e, err := Get(name)
			if err == nil && !slices.ContainsFunc(e.Claims, func(c Claim) bool { return "claim "+c.Name == reader }) {
				t.Errorf("experiment %q declares no %s", name, reader)
			}
		case strings.HasPrefix(reader, "ROADMAP item "):
			if !regexp.MustCompile("`" + regexp.QuoteMeta(name) + "[` ]").Match(roadmap) {
				t.Errorf("experiment %q: ROADMAP.md does not name it in backticks (%s)", name, reader)
			}
		default:
			t.Errorf("experiment %q: %q is not a figure, a claim or a ROADMAP item", name, reader)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("Get should fail for unknown experiments")
	}
}

// TestEveryNetworkSettingIsRead holds net.Network to the reader rule:
// every exported field but Eng, New's argument, is set by the fabric of an
// experiment's run, or by the bench until ROADMAP item 16 makes it run
// exp's runs, and every row of the table names a field that exists. A
// setting nothing sets goes; one that gains or loses a reader changes its
// row here.
func TestEveryNetworkSettingIsRead(t *testing.T) {
	const bench = "bench: ROADMAP item 16"
	readers := map[string]string{
		"MTU": bench, "HeaderBytes": bench,
		"WireLoss": "incast-lossy",
	}
	roadmap, err := os.ReadFile(filepath.Join("..", "..", "ROADMAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, item16, _ := strings.Cut(string(roadmap), "\n16. **")
	item16, _, _ = strings.Cut(item16, "\n**")
	settable := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(net.Network{})) {
		if f.IsExported() && f.Name != "Eng" {
			settable[f.Name] = true
			if _, ok := readers[f.Name]; !ok {
				t.Errorf("net.Network.%s is settable, but no experiment or bench sets it", f.Name)
			}
		}
	}
	for name, reader := range readers {
		if !settable[name] {
			t.Errorf("net.Network.%s has a reader (%s) but is not a settable field", name, reader)
			continue
		}
		if reader == bench {
			if !regexp.MustCompile("`(Network\\.)?" + name + "`").MatchString(item16) {
				t.Errorf("net.Network.%s: ROADMAP item 16 does not name it in backticks", name)
			}
			continue
		}
		if _, err := Get(reader); err != nil {
			t.Errorf("net.Network.%s: %v", name, err)
			continue
		}
		set := false
		for _, r := range starRuns {
			if r.fabric != nil && slices.ContainsFunc(r.views, func(v starView) bool { return v.Name == reader }) {
				nw := net.New(sim.NewEngine(), 1)
				r.fabric(nw, topo.NewStar(nw, 2, hostRate, linkDelay))
				set = set || !reflect.ValueOf(nw).Elem().FieldByName(name).IsZero()
			}
		}
		if !set {
			t.Errorf("net.Network.%s: no fabric of experiment %s sets it", name, reader)
		}
	}
}

func TestFig4(t *testing.T) {
	res, err := Run("fig4", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].X) < 100 {
		t.Fatalf("fig4 series malformed: %d series", len(res.Series))
	}
	// The gap curve starts at zero, rises, and ends low.
	y := res.Series[0].Y
	if y[0] != 0 {
		t.Fatalf("gap at t=0 is %v", y[0])
	}
	peak := 0.0
	for _, v := range y {
		if v > peak {
			peak = v
		}
	}
	if peak < 1 {
		t.Fatalf("gap peak %v too small", peak)
	}
	if y[len(y)-1] > peak/4 {
		t.Fatalf("gap did not diminish: peak %v, end %v", peak, y[len(y)-1])
	}
}

func TestFig1aConvergenceOrdering(t *testing.T) {
	res, err := Run("fig1a", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3 baselines", len(res.Series))
	}
	conv := convergenceFromNotes(t, res)
	// The paper's Fig. 1a: default HPCC takes several hundred us; the
	// high-AI variant converges much faster.
	if conv["HPCC"] < 0 {
		t.Fatal("default HPCC never converged")
	}
	if conv["HPCC 1Gbps"] < 0 || conv["HPCC 1Gbps"] >= conv["HPCC"] {
		t.Fatalf("HPCC 1Gbps (%v us) should converge before default (%v us)",
			conv["HPCC 1Gbps"], conv["HPCC"])
	}
}

func TestFig5aVAISFConvergesFaster(t *testing.T) {
	res, err := Run("fig5a", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	conv := convergenceFromNotes(t, res)
	// The paper's headline incast claim: VAI SF converges to fairness
	// much faster than default HPCC (about as fast as the high-AI
	// variant).
	if conv["HPCC VAI SF"] < 0 || conv["HPCC"] < 0 {
		t.Fatalf("missing convergence: %v", conv)
	}
	if conv["HPCC VAI SF"] >= conv["HPCC"]/2 {
		t.Fatalf("HPCC VAI SF converged at %v us, default at %v us; want at least 2x faster",
			conv["HPCC VAI SF"], conv["HPCC"])
	}
}

func TestFig6aSwiftVAISFConvergesFaster(t *testing.T) {
	res, err := Run("fig6a", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	conv := convergenceFromNotes(t, res)
	if conv["Swift VAI SF"] < 0 || conv["Swift"] < 0 {
		t.Fatalf("missing convergence: %v", conv)
	}
	if conv["Swift VAI SF"] >= conv["Swift"] {
		t.Fatalf("Swift VAI SF converged at %v us, default at %v us; want faster",
			conv["Swift VAI SF"], conv["Swift"])
	}
}

func TestFig8StartFinishShape(t *testing.T) {
	res, err := Run("fig8", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Series{}
	for _, s := range res.Series {
		byLabel[s.Label] = s
	}
	def, vai := byLabel["HPCC"], byLabel["HPCC VAI SF"]
	if len(def.Y) != 16 || len(vai.Y) != 16 {
		t.Fatalf("want 16 flows per series, got %d and %d", len(def.Y), len(vai.Y))
	}
	// Default HPCC: flows that begin last finish first (Sec. III-E).
	if def.Y[len(def.Y)-1] >= def.Y[0] {
		t.Fatalf("default HPCC: last-started (%.0f us) should finish before first-started (%.0f us)",
			def.Y[len(def.Y)-1], def.Y[0])
	}
	// VAI SF: finish times are much closer together.
	if spread(vai.Y) >= spread(def.Y)/2 {
		t.Fatalf("VAI SF finish spread %.0f us not well below default %.0f us",
			spread(vai.Y), spread(def.Y))
	}
}

func TestFig10SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter run in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale = "small"
	res, err := Run("fig10", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d, want 4 protocols", len(res.Series))
	}
	imp := improvementsFromNotes(res, "tail")
	// The paper's headline: VAI SF halves the 99.9% tail FCT of long
	// flows. At test scale we require a clear improvement (> 1.2x) for
	// both protocols.
	for _, proto := range []string{"HPCC", "Swift"} {
		v, ok := imp[proto]
		if !ok {
			t.Fatalf("no improvement note for %s: %v", proto, res.Notes)
		}
		if v <= 1.2 {
			t.Errorf("%s long-flow tail improvement = %.2fx, want > 1.2x", proto, v)
		}
	}
}

// TestFig10AndFig12AreOneRun: asking for either figure executes the
// Hadoop run's four simulations once, the experiment yields both, and each
// is what asking for it by name returns.
func TestFig10AndFig12AreOneRun(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter run in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale = "small"
	fig10, stats, err := RunWithStats("fig10", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 4 {
		t.Errorf("fig10 executed %d simulations, want 4 (one per variant)", stats.Runs)
	}
	fig12, err := Run("fig12", cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Get("fig12")
	if err != nil {
		t.Fatal(err)
	}
	both, bothStats, err := e.RunWithStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bothStats.Runs != 4 || bothStats.Events != stats.Events {
		t.Errorf("the experiment executed %d simulations / %d events, fig10 alone %d / %d",
			bothStats.Runs, bothStats.Events, stats.Runs, stats.Events)
	}
	if len(both) != 2 {
		t.Fatalf("experiment returned %d figures, want fig10 and fig12", len(both))
	}
	for i, want := range []*Result{fig10, fig12} {
		if !reflect.DeepEqual(both[i], want) {
			t.Errorf("figure %d of the run differs from Run(%q)", i, want.Name)
		}
	}
	if fig10.YLabel != "p99.9 FCT slowdown" || fig12.YLabel != "p50 FCT slowdown" ||
		reflect.DeepEqual(fig10.Series, fig12.Series) {
		t.Errorf("fig10 (%s) and fig12 (%s) are not the tail and the median of the run", fig10.YLabel, fig12.YLabel)
	}
}

func TestWriteCSV(t *testing.T) {
	res := &Result{Name: "x", XLabel: "time, (us)", YLabel: "y"}
	s := Series{Label: "a"}
	s.Add(1, 2)
	s.Add(3, 4)
	res.Series = append(res.Series, s)
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "series,\"time, (us)\",y\na,1,2\na,3,4\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestSmoothedReach(t *testing.T) {
	var s Series
	for i, y := range []float64{0, 0.5, 1.0, 1.0, 0.2, 1.0} {
		s.Add(float64(i), y)
	}
	// Window 2 moving averages: 0, .25, .75, 1.0, .6, .6 -> first >= 0.9
	// at x=3.
	if got := smoothedReach(s, 2, 0.9); got != 3 {
		t.Fatalf("smoothedReach = %v, want 3", got)
	}
	if got := smoothedReach(s, 2, 2.0); got != -1 {
		t.Fatalf("unreachable threshold = %v, want -1", got)
	}
	if got := smoothedReach(Series{}, 3, 0.5); got != -1 {
		t.Fatalf("empty series = %v, want -1", got)
	}
}

func TestDCScaleValidation(t *testing.T) {
	_, _, err := dcScale(Config{Scale: "gigantic"})
	if err == nil {
		t.Fatal("unknown scale must error")
	}
	for _, s := range []string{"small", "medium", "large", "full", ""} {
		if _, _, err := dcScale(Config{Scale: s}); err != nil {
			t.Fatalf("scale %q rejected: %v", s, err)
		}
	}
}

// TestConfigValidation: Run and RunWithStats reject a hostile Config on
// every experiment before building anything — including experiments that
// never read the offending field, which used to run (or spin) regardless.
func TestConfigValidation(t *testing.T) {
	bad := []struct {
		name string
		cfg  Config
	}{
		{"unknown scale", Config{Scale: "bogus"}},
		{"negative workers", Config{Workers: -1}},
		// The dc parameters: what dcsim rejected, plus names it only
		// noticed after building the fat-tree.
		{"negative pods", Config{DCPods: -1}},
		{"one host", Config{DCPods: 1, DCToRs: 1, DCHostsPerToR: 1}},
		{"negative duration", Config{DCDuration: -sim.Millisecond}},
		{"negative load", Config{DCLoad: -0.5}},
		{"negative zero load", Config{DCLoad: math.Copysign(0, -1)}},
		{"load NaN", Config{DCLoad: math.NaN()}},
		{"load infinite", Config{DCLoad: math.Inf(1)}},
		{"unknown protocol", Config{DCProtocol: "timely"}},
		{"unknown workload", Config{DCWorkload: "no-such-workload-or-file"}},
		// The first arrival falls past the 1 ms window: the run started no
		// flow and wrote a header-only CSV.
		{"no flow in the window", Config{Scale: "small", DCLoad: 1e-9}},
		// The incast parameters: each of these crashed cmd/incast with a
		// goroutine trace.
		{"negative senders", Config{IncastSenders: -1}},
		{"negative flow size", Config{IncastFlowBytes: -1}},
		{"negative group", Config{IncastGroup: -1}},
		{"negative start interval", Config{IncastEvery: -5 * sim.Microsecond}},
		// The last start group, the fifth sender's, starts at 2 x 9e18 ps,
		// which wrapped into the past and panicked the engine.
		{"last start beyond the clock", Config{IncastSenders: 5, IncastEvery: 9_000_000 * sim.Second}},
		{"unknown algorithm", Config{IncastAlgo: "reno"}},
		{"deleted algorithm", Config{IncastAlgo: "dcqcn"}},
	}
	for _, c := range bad {
		for _, name := range Names() {
			if _, err := Run(name, c.cfg); err == nil {
				t.Errorf("%s: Run(%s) accepted %+v", c.name, name, c.cfg)
			}
		}
		if _, _, err := RunWithStats("fig1a", c.cfg); err == nil {
			t.Errorf("%s: RunWithStats accepted %+v", c.name, c.cfg)
		}
	}
	ok := Config{Seed: 1, Scale: "small", Workers: 1,
		DCWorkload: "mix", DCProtocol: "swift", DCPods: 1, DCToRs: 2, DCHostsPerToR: 2,
		DCDuration: sim.Millisecond, DCLoad: 0.3,
		IncastAlgo: "timely", IncastSenders: 1, IncastFlowBytes: 1, IncastGroup: 1, IncastEvery: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	// Three senders in pairs: the last group starts at the clock's end.
	if err := (Config{IncastSenders: 3, IncastEvery: math.MaxInt64}).Validate(); err != nil {
		t.Errorf("last start at the clock's end rejected: %v", err)
	}
}

func TestIncastDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	run := func() string {
		res, err := Run("fig2", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if run() != run() {
		t.Fatal("fig2 not deterministic for a fixed seed")
	}
}

// leadingFloat parses the float prefix of s ("-1 us" -> -1).
func leadingFloat(s string) (float64, error) {
	s = strings.TrimSpace(s)
	end := 0
	for end < len(s) && (s[end] == '-' || s[end] == '.' || (s[end] >= '0' && s[end] <= '9')) {
		end++
	}
	return strconv.ParseFloat(s[:end], 64)
}

// convergenceFromNotes parses "LABEL: smoothed Jain reaches 0.9 at N us".
func convergenceFromNotes(t *testing.T, res *Result) map[string]float64 {
	t.Helper()
	const marker = ": smoothed Jain reaches 0.9 at "
	out := map[string]float64{}
	for _, n := range res.Notes {
		idx := strings.Index(n, marker)
		if idx < 0 {
			continue
		}
		v, err := leadingFloat(n[idx+len(marker):])
		if err != nil {
			t.Fatalf("bad note %q: %v", n, err)
		}
		out[n[:idx]] = v
	}
	return out
}

// improvementsFromNotes parses "PROTO long-flow STAT improvement: N.NNx",
// where stat is "tail" (the p99.9 figures) or "median" (the p50 ones).
func improvementsFromNotes(res *Result, stat string) map[string]float64 {
	marker := " long-flow " + stat + " improvement: "
	out := map[string]float64{}
	for _, n := range res.Notes {
		idx := strings.Index(n, marker)
		if idx < 0 {
			continue
		}
		if v, err := leadingFloat(n[idx+len(marker):]); err == nil {
			out[n[:idx]] = v
		}
	}
	return out
}

// spread is max - min.
func spread(ys []float64) float64 {
	lo, hi := ys[0], ys[0]
	for _, y := range ys {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	return hi - lo
}

func TestFig9SwiftStartFinishShape(t *testing.T) {
	res, err := Run("fig9", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Series{}
	for _, s := range res.Series {
		byLabel[s.Label] = s
	}
	def, vai := byLabel["Swift"], byLabel["Swift VAI SF"]
	if def.Y[len(def.Y)-1] >= def.Y[0] {
		t.Fatalf("default Swift: last-started (%.0f us) should finish before first-started (%.0f us)",
			def.Y[len(def.Y)-1], def.Y[0])
	}
	if spread(vai.Y) >= spread(def.Y)/2 {
		t.Fatalf("Swift VAI SF spread %.0f us not well below default %.0f us",
			spread(vai.Y), spread(def.Y))
	}
}

func TestFig2HighAIEqualizesFinish(t *testing.T) {
	res, err := Run("fig2", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Label != "HPCC 1Gbps" {
			continue
		}
		// The high-AI variant's 16 flows finish within a tight band.
		if spread(s.Y) > 100 {
			t.Fatalf("HPCC 1Gbps finish spread = %.0f us, want < 100", spread(s.Y))
		}
		return
	}
	t.Fatal("HPCC 1Gbps series missing")
}

func TestRobustnessSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale = "small"
	res, err := Run("robustness", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want HPCC and Swift", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.X) != 5 {
			t.Fatalf("%s has %d seeds, want 5", s.Label, len(s.X))
		}
		for _, v := range s.Y {
			if v <= 0 {
				t.Fatalf("%s non-positive improvement %v", s.Label, v)
			}
		}
	}
}
