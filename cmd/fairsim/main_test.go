package main

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"faircc/internal/exp"
)

// TestRejectsUnrunnableFlags drives the built binary: configurations that
// hang traffic generation forever (zero arrival rate, a single host),
// crash the incast with a goroutine trace, or would be silently ignored
// must exit 2 with a message, a run that stalls must exit 1 with one, and
// a sane small run must still exit 0. The timeout is what catches a
// regression to the hang.
func TestRejectsUnrunnableFlags(t *testing.T) {
	bin := buildFairsim(t)
	// Distribution files whose mean is negative or zero: every Poisson gap
	// was negative or zero, so generation never reached the end of the
	// traffic window.
	dists := t.TempDir()
	negative, zeroMean := filepath.Join(dists, "negative.txt"), filepath.Join(dists, "zero-mean.txt")
	for path, src := range map[string]string{negative: "-1000 50\n-1 100\n", zeroMean: "0 100\n5 100\n"} {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dc := func(args ...string) []string { return append([]string{"-exp", "dc"}, args...) }
	incast := func(args ...string) []string { return append([]string{"-exp", "incast"}, args...) }
	small := []string{"-pods", "1", "-tors", "2", "-hosts", "2", "-ms", "1"}
	cases := []struct {
		name string
		args []string
		exit int
		msg  string // required substring of stderr
	}{
		{"ok", dc(small...), 0, ""},
		{"zero load", dc(append([]string{"-load", "0"}, small...)...), 2, "-load"},
		{"negative load", dc(append([]string{"-load", "-0.5"}, small...)...), 2, "DCLoad"},
		{"negative zero load", dc(append([]string{"-load", "-0"}, small...)...), 2, "DCLoad"},
		{"one host", dc("-pods", "1", "-tors", "1", "-hosts", "1"), 2, "2 hosts"},
		{"zero pods", dc("-pods", "0"), 2, "-pods"},
		{"negative pods", dc("-pods", "-1"), 2, "DCPods"},
		{"zero ms", dc("-pods", "1", "-tors", "2", "-hosts", "2", "-ms", "0"), 2, "-ms"},
		{"unknown protocol", dc(append([]string{"-protocol", "reno"}, small...)...), 2, "reno"},
		{"unknown workload", dc(append([]string{"-workload", "no-such-file"}, small...)...), 2, "no-such-file"},
		// An empty name is the default, which selected the preset.
		{"empty protocol", dc(append([]string{"-protocol", ""}, small...)...), 2, "-protocol"},
		{"empty workload", dc(append([]string{"-workload", ""}, small...)...), 2, "-workload"},
		{"negative sizes", dc(append([]string{"-workload", negative}, small...)...), 2, "not a byte count"},
		{"zero mean size", dc(append([]string{"-workload", zeroMean}, small...)...), 2, "below 1 B"},
		// The first arrival falls past the window: the run started no flow
		// and wrote a header-only CSV.
		{"no flow in the window", dc(append([]string{"-load", "0.001"}, small...)...), 2, "no flow in the window"},

		{"incast ok", incast("-senders", "4", "-size", "100000"), 0, ""},
		{"negative senders", incast("-senders", "-1"), 2, "IncastSenders"},
		{"zero senders", incast("-senders", "0"), 2, "-senders"},
		{"zero group", incast("-group", "0"), 2, "-group"},
		{"zero size", incast("-size", "0"), 2, "-size"},
		{"negative every", incast("-every", "-5"), 2, "IncastEvery"},
		{"unknown algo", incast("-algo", "reno"), 2, "reno"},
		{"removed algo", incast("-algo", "dcqcn"), 2, "(one of hpcc, hpcc-1g,"},
		{"empty algo", incast("-algo", ""), 2, "-algo"},
		// Each -every fits the clock, but the last of three start groups
		// does not: it wrapped into the past and panicked the engine.
		{"every overflows last start", incast("-senders", "5", "-every", "9000000000000"), 2, "IncastEvery"},

		// Durations whose picosecond value does not fit a sim.Time must not
		// wrap into a different run (18446744074 ms wraps to 290 us).
		{"ms overflow", dc("-pods", "1", "-tors", "2", "-hosts", "2", "-ms", "18446744074"), 2, "-ms"},
		{"every overflow", incast("-every", "18446744073710"), 2, "-every"},

		// A removed flag fails loudly, it is not ignored.
		{"removed ack-coalesce", incast("-ack-coalesce"), 2, "flag provided but not defined: -ack-coalesce"},
		{"removed shards", dc(append([]string{"-shards", "2"}, small...)...), 2, "flag provided but not defined: -shards"},
		{"removed k16", dc(append([]string{"-k16"}, small...)...), 2, "flag provided but not defined: -k16"},
		{"removed plot", incast("-plot"), 2, "flag provided but not defined: -plot"},
		{"removed drop-data", []string{"-exp", "incast-lossy", "-drop-data", "0.1"}, 2, "flag provided but not defined: -drop-data"},
		{"removed rtt-senders", []string{"-exp", "rtt-unfairness", "-rtt-senders", "8"}, 2, "flag provided but not defined: -rtt-senders"},
		{"removed oversub", dc(append([]string{"-oversub", "4"}, small...)...), 2, "flag provided but not defined: -oversub"},

		// A scoped flag the experiment does not read: the run would have
		// been the one without it.
		{"dc ignores algo", dc("-scale", "small", "-ms", "1", "-algo", "swift"), 2, "experiment dc does not read -algo"},
		{"fig5a ignores senders", []string{"-exp", "fig5a", "-senders", "300", "-size", "5"}, 2, "experiment fig5a does not read -senders"},
		// No run that carries a claim reads a scoped flag, -verify writes
		// no figure, and -list runs nothing.
		{"verify ignores scoped flags", []string{"-verify", "-scale", "small", "-senders", "4", "-pods", "3"}, 2, "-verify does not read -pods"},
		{"verify ignores output flags", []string{"-verify", "-manifest", "-out", filepath.Join(t.TempDir(), "vout")}, 2, "-verify does not read -manifest"},
		{"list ignores scoped flags", []string{"-list", "-pods", "3"}, 2, "-list does not read -pods"},
		// -all runs no dc: fig10 runs and records its preset.
		{"all ignores dc flags", []string{"-all", "-scale", "small", "-pods", "2"}, 2, "-all does not read -pods"},

		// The modes are exclusive: one mode does not read another's flag.
		{"verify and exp", []string{"-verify", "-exp", "fig1a"}, 2, "experiment fig1a does not read -verify"},
		{"exp and all", []string{"-exp", "fig4", "-all"}, 2, "experiment fig4 does not read -all"},

		// A progress interval that no progress line would follow, or that
		// the run would replace with the default.
		{"progress-every without progress", []string{"-exp", "fig4", "-progress-every", "5s"}, 2, "-progress-every"},
		{"negative progress-every", incast("-scale", "small", "-senders", "2", "-progress", "-progress-every", "-3s"), 2, "-progress-every"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, c.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("fairsim %v did not exit within the timeout", c.args)
			}
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != c.exit {
				t.Fatalf("fairsim %v: exit %d, want %d (stderr: %s)", c.args, exit, c.exit, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.msg) {
				t.Errorf("fairsim %v: stderr %q lacks %q", c.args, stderr.String(), c.msg)
			}
		})
	}
}

// TestVerifyRunsEachSimulationOnce drives -verify through the built
// binary: every claim passes at small scale, and each of the 39
// simulations behind the claims runs once, whichever claims read it.
func TestVerifyRunsEachSimulationOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("claims sweep in -short mode")
	}
	cmd := exec.Command(buildFairsim(t), "-verify", "-scale", "small", "-progress")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("fairsim -verify: %v\n%s%s", err, out, stderr.String())
	}
	if n := strings.Count("\n"+string(out), "\nPASS "); n != 13 || !strings.HasSuffix(string(out), "\nall claims reproduced\n") {
		t.Errorf("fairsim -verify printed %d PASS lines, want 13 and \"all claims reproduced\":\n%s", n, out)
	}
	if n := strings.Count(stderr.String(), " (done)\n"); n != 39 {
		t.Errorf("fairsim -verify ran %d simulations, want 39", n)
	}
}

// TestAllRunsEachSimulationOnce drives -all through the built binary:
// dc's preset, fig10's HPCC pair, does not run, and robustness sweeps only
// the seeds after fig10's, so each of the 70 simulations runs once.
func TestAllRunsEachSimulationOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment in -short mode")
	}
	cmd := exec.Command(buildFairsim(t), "-all", "-scale", "small", "-progress")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("fairsim -all: %v\n%s%s", err, out, stderr.String())
	}
	if strings.Contains("\n"+string(out), "\ndc: ") {
		t.Error("fairsim -all ran dc, whose preset is fig10's HPCC pair")
	}
	if n := strings.Count(stderr.String(), " (done)\n"); n != 70 {
		t.Errorf("fairsim -all ran %d simulations, want 70", n)
	}
}

// TestOutWritesNotes: -out writes <name>.notes beside <name>.csv, holding
// exactly the result's notes, one per line. fig4 is the fluid model, so it
// runs no packet simulation.
func TestOutWritesNotes(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command(buildFairsim(t), "-exp", "fig4", "-out", dir).CombinedOutput(); err != nil {
		t.Fatalf("fairsim -exp fig4 -out: %v\n%s", err, out)
	}
	res, err := exp.Run("fig4", exp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4.csv")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig4.notes"))
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(res.Notes, "\n") + "\n"; len(res.Notes) == 0 || string(got) != want {
		t.Errorf("fig4.notes holds %q, want the result's %d notes, one per line: %q", got, len(res.Notes), want)
	}
}

// buildFairsim builds the command into a temporary directory and returns
// the binary's path.
func buildFairsim(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "fairsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestEveryFlagIsRead holds ROADMAP item 12's rule over fairsim's flags:
// every declared flag is read by the run path, by observability (aim 4),
// or by a kept experiment whose ROADMAP item names it in backticks, and
// every row here names a declared flag. A scoped flag's row names the
// experiment scoped gives it. A flag nothing reads goes, with its Config
// field, validation and docs; one that gains or loses a reader changes its
// row here.
func TestEveryFlagIsRead(t *testing.T) {
	const (
		run, obs = "run path", "observability"
		dc       = "dc: ROADMAP item 2"      // default Swift's backlog on `dc -scale large -ms 50`
		incast   = "incast: ROADMAP item 12" // the configurable incast of fairsim and the library
	)
	readers := map[string]string{
		"list": run, "exp": run, "all": run, "verify": run, "scale": run, "seed": run, "out": run, "workers": run,
		"progress": obs, "progress-every": obs, "manifest": obs, "pprof": obs,
		"workload": dc, "protocol": dc, "pods": dc, "tors": dc, "hosts": dc, "ms": dc, "load": dc,
		"algo": incast, "senders": incast, "size": incast, "group": incast, "every": incast,
	}
	roadmap, err := os.ReadFile(filepath.Join("..", "..", "ROADMAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	declared := declaredFlags(t)
	for name := range declared {
		if _, ok := readers[name]; !ok {
			t.Errorf("fairsim declares -%s, but nothing reads it", name)
		}
	}
	for name, reader := range readers {
		if !declared[name] {
			t.Errorf("-%s has a reader (%s) but fairsim does not declare it", name, reader)
		}
		expName, item, isExp := strings.Cut(reader, ": ROADMAP item ")
		if reader == run || reader == obs {
			if _, ok := scoped[name]; ok {
				t.Errorf("-%s is scoped to %s, but its reader is the %s", name, scoped[name], reader)
			}
			continue
		}
		if !isExp {
			t.Errorf("-%s: %q is not the run path, observability or an experiment's ROADMAP item", name, reader)
			continue
		}
		if scoped[name] != expName {
			t.Errorf("-%s is read by experiment %s, but scoped gives it %q", name, expName, scoped[name])
		}
		if _, err := exp.Get(expName); err != nil {
			t.Errorf("-%s: %v", name, err)
		}
		if text := roadmapItem(roadmap, item); !regexp.MustCompile("`" + regexp.QuoteMeta(expName) + "[` ]").MatchString(text) {
			t.Errorf("-%s: ROADMAP item %s does not name experiment %s in backticks", name, item, expName)
		}
	}
}

// roadmapItem returns the text of ROADMAP.md's open item n: its "n. **"
// line and the indented lines that follow it.
func roadmapItem(roadmap []byte, n string) string {
	_, items, _ := strings.Cut(string(roadmap), "\n## Open items\n")
	_, rest, ok := strings.Cut(items, "\n"+n+". **")
	if !ok {
		return ""
	}
	lines := strings.Split(rest, "\n")
	for i, line := range lines[1:] {
		if line != "" && line[0] != ' ' {
			return strings.Join(lines[:i+1], "\n")
		}
	}
	return rest
}

// TestDocumentedCommandsUseDeclaredFlags holds the docs to the CLI: every
// `go run ./cmd/fairsim` line in README.md, DESIGN.md and EXPERIMENTS.md
// may use only flags main.go declares, so a removed flag cannot linger in
// an example, a line with -exp only the scoped flags its experiment
// reads, a line with -all no dc flag, and -progress-every only beside
// -progress, so no example exits 2.
func TestDocumentedCommandsUseDeclaredFlags(t *testing.T) {
	declared := declaredFlags(t)
	const cmd = "go run ./cmd/fairsim"
	lines := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			_, args, ok := strings.Cut(line, cmd)
			if !ok {
				continue
			}
			lines++
			// The command ends at an inline-code backtick or a shell comment.
			args, _, _ = strings.Cut(args, "`")
			args, _, _ = strings.Cut(args, " #")
			var expName string
			if _, rest, ok := strings.Cut(args, "-exp "); ok && !strings.HasPrefix(strings.TrimSpace(rest), "<") {
				expName, _, _ = strings.Cut(strings.TrimSpace(rest), " ")
				if _, err := exp.Get(expName); err != nil {
					t.Errorf("%s:%d: %v: %s", doc, i+1, err, strings.TrimSpace(line))
				}
			}
			all := slices.Contains(strings.Fields(args), "-all")
			if strings.Contains(args, "-progress-every") && !slices.Contains(strings.Fields(args), "-progress") {
				t.Errorf("%s:%d: -progress-every without -progress exits 2: %s", doc, i+1, strings.TrimSpace(line))
			}
			for _, tok := range strings.Fields(args) {
				name, isFlag := strings.CutPrefix(tok, "-")
				name, _, _ = strings.Cut(name, "=")
				if !isFlag || name == "" || name[0] < 'a' || name[0] > 'z' {
					continue // a value, such as a negative number
				}
				if !declared[name] {
					t.Errorf("%s:%d: fairsim declares no flag -%s: %s", doc, i+1, name, strings.TrimSpace(line))
				}
				if reader, ok := scoped[name]; ok && expName != "" && reader != expName {
					t.Errorf("%s:%d: the experiment does not read -%s: %s", doc, i+1, name, strings.TrimSpace(line))
				}
				if all && scoped[name] == "dc" {
					t.Errorf("%s:%d: -all runs no dc, so it does not read -%s: %s", doc, i+1, name, strings.TrimSpace(line))
				}
			}
		}
	}
	if lines == 0 {
		t.Fatalf("no %q line found in the docs", cmd)
	}
}

// declaredFlags returns the names of the flags main.go declares: the first
// argument of every flag.Bool, flag.String, ... call.
func declaredFlags(t *testing.T) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			names[strings.Trim(lit.Value, `"`)] = true
		}
		return true
	})
	if len(names) == 0 {
		t.Fatal("no flag declaration found in main.go")
	}
	return names
}
