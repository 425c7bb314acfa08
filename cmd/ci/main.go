// Command ci is the repository's verification gate, runnable anywhere Go
// is installed (no make required):
//
//	go run ./cmd/ci    # 17 steps: build, vet, 7 cross, gofmt, test, alloc-repeat, race, race-parallel, bench-smoke, 2 fuzz-smoke
//
// The test step is the repository's tier-1 gate (`go test ./...`), so a
// PR cannot pass ci with a broken unit or experiment test. The
// alloc-repeat step runs the tests that read process-wide allocation
// counters 50 times each (TestBytesPerPacket, TestAddFlowCarvesOnlySlabs,
// TestNewFatTreeBytes, TestNewFatTreeAllocations), so one that depends on
// the collector or another goroutine fails the change that makes it so. The race step
// re-runs the whole tree under the race detector in -short mode: -short
// skips only the long datacenter-scale runs, which are single-variant
// re-executions of code the concurrency-heavy packages (internal/par,
// internal/sim) already exercise at full length. A second race step
// re-runs the sharded-engine tests (Parallel|Mailbox|Shard) without
// -short, since those are the tests that actually spin up shard worker
// goroutines. The bench-smoke step
// runs every scheduler, network and topology benchmark for exactly one
// iteration, so a benchmark that panics or trips its own invariant checks
// fails the gate without paying measurement time; with -benchmem every log
// prints each benchmark's B/op and allocs/op, BenchmarkAddFlows' bytes per
// flow and BenchmarkNewFatTree's allocations per build among them. The fuzz-smoke steps mutate the scheduler's
// order-contract corpus and distribution files for five seconds each.
//
// The cross steps build the tree for GOARCH=arm64 (offline, from GOROOT) and
// vet the packages around its one assembly file there, so the non-amd64
// fallback of sim.Prefetch cannot rot on a box that only runs amd64. The
// arm64 build also fails on any fused multiply-add in internal/...: arm64
// fuses x*y + z into one instruction that rounds once where amd64 rounds
// twice, and an explicit float64(...) conversion, which rounds, is what
// keeps the two computing the same numbers. The same build for riscv64,
// ppc64le and s390x, which fuse too under mnemonics of their own, fails the
// same way. Then the cross steps build and vet the same two packages for
// GOARCH=386, so the packed packet and its unsafe indexing also compile
// where a pointer is 4 bytes.
//
// ci verifies; it does not measure. Performance is measured in one place,
// `go run ./bench` (BENCHMARK.json), which reports run-to-run spread.
//
// Its last line is the tracked size number (ROADMAP aim 2), the figure a
// PR's CHANGES.md entry quotes; `go run ./cmd/ci -loc` (`make loc`) prints
// that number on its first line, then the same count per directory, then
// the other tracked counts: registered experiments, -verify claims, the
// flags fairsim declares, and the exported fields of exp.Config, of
// net.Network (its constructor argument Eng aside) and of the protocol and
// fabric configs (hpcc.Config, swift.Config, timely.Config, core.VAIConfig
// and topo.FatTreeConfig), the parameters and model settings a library
// caller can set.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"

	"faircc/internal/cc/hpcc"
	"faircc/internal/cc/swift"
	"faircc/internal/cc/timely"
	"faircc/internal/core"
	"faircc/internal/exp"
	"faircc/internal/net"
	"faircc/internal/topo"
)

// loc is the tracked size number: the lines of every non-test Go file and
// assembly file under the current directory, bench/ excluded. byDir splits
// it by the directory holding each file.
func loc() (n int, byDir map[string]int, err error) {
	byDir = map[string]int{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == ".git" {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".s") || strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			lines := bytes.Count(src, []byte("\n"))
			n += lines
			byDir[filepath.Dir(path)] += lines
			return err
		}
		return nil
	})
	return n, byDir, err
}

// fairsimFlags counts the flags cmd/fairsim declares: the calls in its
// main.go to the flag package's defining functions (Int, StringVar, Func,
// Var, ...).
func fairsimFlags() (int, error) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "fairsim", "main.go"), nil, 0)
	if err != nil {
		return 0, err
	}
	defines := map[string]bool{"Bool": true, "Duration": true, "Float64": true, "Int": true, "Int64": true,
		"String": true, "Uint": true, "Uint64": true, "Text": true, "": true}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" &&
					(defines[strings.TrimSuffix(name, "Var")] || name == "Func" || name == "BoolFunc") {
					n++
				}
			}
		}
		return true
	})
	return n, nil
}

// exported counts the exported fields of a struct: the ones a library
// caller can set.
func exported(v any) int {
	n := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
		if f.IsExported() {
			n++
		}
	}
	return n
}

func main() {
	locOnly := flag.Bool("loc", false, "print the tracked size number, one line per directory, the experiment, claim, fairsim flag, Config parameter, Network setting and protocol and fabric parameter counts, and exit")
	flag.Parse()
	size, byDir, err := loc()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ci: loc:", err)
		os.Exit(1)
	}
	if *locOnly {
		fmt.Println(size)
		dirs := make([]string, 0, len(byDir))
		for dir := range byDir {
			dirs = append(dirs, dir)
		}
		sort.Strings(dirs)
		for _, dir := range dirs {
			fmt.Printf("%6d %s\n", byDir[dir], dir)
		}
		flags, err := fairsimFlags()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ci: flags:", err)
			os.Exit(1)
		}
		fmt.Printf("%6d registered experiments\n%6d -verify claims\n%6d fairsim flags\n%6d exp.Config parameters\n%6d net.Network settings\n%6d protocol and fabric parameters\n",
			len(exp.Names()), len(exp.Claims()), flags, exported(exp.Config{}), exported(net.Network{})-1, // Network.Eng is New's argument
			exported(hpcc.Config{})+exported(swift.Config{})+exported(timely.Config{})+exported(core.VAIConfig{})+exported(topo.FatTreeConfig{}))
		return
	}

	steps := []struct {
		name string
		args []string
		env  []string // added to the environment
		show bool     // print the output on success too
		// forbid fails the step on any output line it matches; the failure
		// shows those lines.
		forbid *regexp.Regexp
	}{
		{name: "build", args: []string{"go", "build", "./..."}},
		{name: "vet", args: []string{"go", "vet", "./..."}},
		{name: "cross", args: []string{"go", "build", "-gcflags=faircc/internal/...=-S", "./..."}, env: []string{"GOARCH=arm64"},
			forbid: regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)},
		{name: "cross-vet", args: []string{"go", "vet", "./internal/sim", "./internal/net"}, env: []string{"GOARCH=arm64"}},
		{name: "cross-riscv64", args: []string{"go", "build", "-gcflags=faircc/internal/...=-S", "./..."}, env: []string{"GOARCH=riscv64"},
			forbid: regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)},
		{name: "cross-ppc64le", args: []string{"go", "build", "-gcflags=faircc/internal/...=-S", "./..."}, env: []string{"GOARCH=ppc64le"},
			forbid: regexp.MustCompile(`\b(FMADD|FMSUB|FNMADD|FNMSUB)\b`)},
		{name: "cross-s390x", args: []string{"go", "build", "-gcflags=faircc/internal/...=-S", "./..."}, env: []string{"GOARCH=s390x"},
			forbid: regexp.MustCompile(`\b(FMADD|FMSUB|FNMADD|FNMSUB)\b`)},
		{name: "cross-386", args: []string{"go", "build", "./internal/sim", "./internal/net"}, env: []string{"GOARCH=386"}},
		{name: "cross-386-vet", args: []string{"go", "vet", "./internal/sim", "./internal/net"}, env: []string{"GOARCH=386"}},
		// gofmt -l exits 0 even when files need formatting.
		{name: "gofmt", args: []string{"gofmt", "-l", "."}, forbid: regexp.MustCompile(".")},
		{name: "test", args: []string{"go", "test", "./..."}},
		{name: "alloc-repeat", args: []string{"go", "test", "-count", "50", "-run",
			"^(TestBytesPerPacket|TestAddFlowCarvesOnlySlabs|TestNewFatTreeBytes|TestNewFatTreeAllocations)$", "./internal/net", "./internal/topo"}},
		{name: "race", args: []string{"go", "test", "-race", "-short", "./..."}},
		// The parallel-engine tests are the one place -short would hide real
		// concurrency: cross-shard mailboxes, epoch barriers, and the worker
		// goroutines only run at shards > 1. Re-run them un-shortened under
		// the race detector.
		{name: "race-parallel", args: []string{"go", "test", "-race", "-run", "Parallel|Mailbox|Shard",
			"./internal/sim", "./internal/net", "./internal/topo", "./internal/exp"}},
		{name: "bench-smoke", args: []string{"go", "test", "-run", "^$", "-bench", ".", "-benchtime", "1x", "-benchmem", "./internal/sim", "./internal/net", "./internal/topo"}, show: true},
		// Minimizing each new 9 KB corpus entry (60 s by default) would eat
		// the whole budget; a failing input is kept whole instead.
		{name: "fuzz-smoke", args: []string{"go", "test", "-run", "^$", "-fuzz", "FuzzEngineOrder", "-fuzztime", "5s", "-fuzzminimizetime", "0s", "./internal/sim"}},
		{name: "fuzz-smoke", args: []string{"go", "test", "-run", "^$", "-fuzz", "FuzzArrivals", "-fuzztime", "5s", "-fuzzminimizetime", "0s", "./internal/workload"}},
	}
	failed := 0
	for _, s := range steps {
		fmt.Printf("== %s: %s\n", s.name, strings.Join(append(s.env, s.args...), " "))
		cmd := exec.Command(s.args[0], s.args[1:]...)
		cmd.Env = append(os.Environ(), s.env...)
		out, err := cmd.CombinedOutput()
		text := strings.TrimSpace(string(out))
		var forbidden []string
		for _, line := range strings.Split(text, "\n") {
			if s.forbid != nil && s.forbid.MatchString(line) {
				forbidden = append(forbidden, line)
			}
		}
		if err != nil || len(forbidden) > 0 {
			failed++
			if len(forbidden) > 0 {
				text = strings.Join(forbidden, "\n")
			}
			fmt.Printf("FAIL %s\n%s\n", s.name, text)
			if err != nil {
				fmt.Println(err)
			}
			continue
		}
		fmt.Printf("ok   %s\n", s.name)
		if s.show {
			fmt.Println(text)
		}
	}
	verdict := "all checks passed"
	if failed > 0 {
		verdict = fmt.Sprintf("%d step(s) failed", failed)
	}
	fmt.Printf("\n%s\nloc %d (non-test Go and assembly lines, bench/ excluded)\n", verdict, size)
	if failed > 0 {
		os.Exit(1)
	}
}
