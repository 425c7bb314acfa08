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
	bin := filepath.Join(t.TempDir(), "fairsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
		{"one host", dc("-pods", "1", "-tors", "1", "-hosts", "1"), 2, "2 hosts"},
		{"zero pods", dc("-pods", "0"), 2, "-pods"},
		{"negative pods", dc("-pods", "-1"), 2, "DCPods"},
		{"zero ms", dc("-pods", "1", "-tors", "2", "-hosts", "2", "-ms", "0"), 2, "-ms"},
		{"negative oversub", dc(append([]string{"-oversub", "-4"}, small...)...), 2, "DCOversub"},
		{"oversub 1e300", dc("-scale", "small", "-oversub", "1e300"), 2, "ToR uplink"},
		{"oversub 1e-300", dc("-scale", "small", "-oversub", "1e-300"), 2, "ToR uplink"},
		{"oversub 4", dc(append([]string{"-oversub", "4"}, small...)...), 0, ""},
		{"unknown protocol", dc(append([]string{"-protocol", "reno"}, small...)...), 2, "reno"},
		{"unknown workload", dc(append([]string{"-workload", "no-such-file"}, small...)...), 2, "no-such-file"},
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
		// Each -every fits the clock, but the last of three start groups
		// does not: it wrapped into the past and panicked the engine.
		{"every overflows last start", incast("-senders", "5", "-every", "9000000000000"), 2, "IncastEvery"},

		// A switch buffer no data packet fits tail-drops every one of them
		// and go-back-N retransmits forever.
		{"buffer 1", []string{"-exp", "incast-lossy", "-buffer-bytes", "1"}, 2, "BufferBytes"},
		{"buffer 1000", []string{"-exp", "incast-lossy", "-buffer-bytes", "1000"}, 2, "BufferBytes"},
		{"buffer 1047", []string{"-exp", "incast-lossy", "-buffer-bytes", "1047"}, 2, "BufferBytes"},

		// Every ACK lost: the flows time out and go back N forever without
		// a byte acknowledged, and the watchdog ends the run as stalled.
		{"every ack lost", []string{"-exp", "incast-lossy", "-drop-ack", "0.9999999999"}, 1, "stalled: no byte acknowledged"},

		// Durations whose picosecond value does not fit a sim.Time must not
		// wrap into a different run (18446744074 ms wraps to 290 us).
		{"ms overflow", dc("-pods", "1", "-tors", "2", "-hosts", "2", "-ms", "18446744074"), 2, "-ms"},
		{"every overflow", incast("-every", "18446744073710"), 2, "-every"},
		{"rtt-slow-delay overflow", []string{"-exp", "rtt-unfairness", "-rtt-slow-delay", "5124h"}, 2, "-rtt-slow-delay"},
		// A delay that fits the clock, but the slow group's round trip does
		// not: it wrapped negative and panicked the first serialization.
		{"rtt slow delay beyond the clock", []string{"-exp", "rtt-unfairness", "-scale", "small", "-rtt-slow-delay", "1290h"}, 2, "RTTSlowDelay"},

		// A removed flag fails loudly, it is not ignored.
		{"removed ack-coalesce", incast("-ack-coalesce"), 2, "flag provided but not defined: -ack-coalesce"},
		{"removed shards", dc(append([]string{"-shards", "2"}, small...)...), 2, "flag provided but not defined: -shards"},
		{"removed k16", dc(append([]string{"-k16"}, small...)...), 2, "flag provided but not defined: -k16"},
		{"removed plot", incast("-plot"), 2, "flag provided but not defined: -plot"},

		// A scoped flag the experiment does not read: the run would have
		// been the one without it.
		{"dc ignores drop-data", dc("-scale", "small", "-ms", "1", "-drop-data", "0.1"), 2, "experiment dc does not read -drop-data"},
		{"fig5a ignores senders", []string{"-exp", "fig5a", "-senders", "300", "-size", "5"}, 2, "experiment fig5a does not read -senders"},
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

// TestDocumentedCommandsUseDeclaredFlags holds the docs to the CLI: every
// `go run ./cmd/fairsim` line in README.md, DESIGN.md and EXPERIMENTS.md
// may use only flags main.go declares, so a removed flag cannot linger in
// an example, and a line with -exp only the scoped flags its experiment
// reads, so no example exits 2.
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
			var e *exp.Experiment
			if _, rest, ok := strings.Cut(args, "-exp "); ok && !strings.HasPrefix(strings.TrimSpace(rest), "<") {
				name, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				var err error
				if e, err = exp.Get(name); err != nil {
					t.Errorf("%s:%d: %v: %s", doc, i+1, err, strings.TrimSpace(line))
				}
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
				if p, ok := scoped[name]; ok && e != nil && e.Reads&p == 0 {
					t.Errorf("%s:%d: the experiment does not read -%s: %s", doc, i+1, name, strings.TrimSpace(line))
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
