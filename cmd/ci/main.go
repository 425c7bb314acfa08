// Command ci is the repository's verification gate, runnable anywhere Go
// is installed (no make required):
//
//	go run ./cmd/ci    # 14 steps: build, vet, 4 cross, gofmt, test, alloc-repeat, race, race-parallel, bench-smoke, 2 fuzz-smoke
//
// The test step is the repository's tier-1 gate (`go test ./...`), so a
// PR cannot pass ci with a broken unit or experiment test. The
// alloc-repeat step runs the tests that read process-wide allocation
// counters 50 times each, so one that depends on when the collector or
// another goroutine runs fails the change that makes it so, not a later
// one by chance. The race step
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
// fallback of sim.Prefetch cannot rot on a box that only runs amd64; then
// build and vet the same two packages for GOARCH=386, so the packed packet
// and its unsafe indexing also compile where a pointer is 4 bytes.
//
// ci verifies; it does not measure. Performance is measured in one place,
// `go run ./bench` (BENCHMARK.json), which reports run-to-run spread.
//
// Its last line is the tracked size number (ROADMAP aim 2), the figure a
// PR's CHANGES.md entry quotes; `go run ./cmd/ci -loc` (`make loc`) prints
// that number on its first line, then the same count per directory, then
// the other tracked counts: registered experiments, -verify claims, the
// flags fairsim declares and the exported fields of exp.Config, the
// parameters a library caller can set.
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
	"sort"
	"strings"

	"faircc/internal/exp"
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

func main() {
	locOnly := flag.Bool("loc", false, "print the tracked size number, one line per directory, the experiment, claim, fairsim flag and Config parameter counts, and exit")
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
		params := 0
		for _, f := range reflect.VisibleFields(reflect.TypeOf(exp.Config{})) {
			if f.IsExported() {
				params++
			}
		}
		fmt.Printf("%6d registered experiments\n%6d -verify claims\n%6d fairsim flags\n%6d exp.Config parameters\n",
			len(exp.Names()), len(exp.Claims()), flags, params)
		return
	}

	steps := []struct {
		name string
		args []string
		env  []string // added to the environment
		show bool     // print the output on success too
	}{
		{name: "build", args: []string{"go", "build", "./..."}},
		{name: "vet", args: []string{"go", "vet", "./..."}},
		{name: "cross", args: []string{"go", "build", "./..."}, env: []string{"GOARCH=arm64"}},
		{name: "cross-vet", args: []string{"go", "vet", "./internal/sim", "./internal/net"}, env: []string{"GOARCH=arm64"}},
		{name: "cross-386", args: []string{"go", "build", "./internal/sim", "./internal/net"}, env: []string{"GOARCH=386"}},
		{name: "cross-386-vet", args: []string{"go", "vet", "./internal/sim", "./internal/net"}, env: []string{"GOARCH=386"}},
		{name: "gofmt", args: []string{"gofmt", "-l", "."}},
		{name: "test", args: []string{"go", "test", "./..."}},
		{name: "alloc-repeat", args: []string{"go", "test", "-count", "50", "-run",
			"^(TestBytesPerPacket|TestNewFatTreeBytes|TestNewFatTreeAllocations)$", "./internal/net", "./internal/topo"}},
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
		// gofmt -l exits 0 even when files need formatting; any output is
		// a failure.
		if err != nil || (s.name == "gofmt" && text != "") {
			failed++
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
