# Convenience wrappers around the Go-native CI gate (cmd/ci), so the same
# checks run with or without make installed.

.PHONY: verify test bench bench-compare loc profile

# The verification gate every PR must keep green: build, vet, gofmt, tests,
# race-enabled tests, a 1-iteration smoke run of the scheduler benchmarks,
# and a 5 s fuzz smoke. It verifies; it does not measure.
verify:
	go run ./cmd/ci

test:
	go build ./... && go test ./...

# The repository's one benchmark (BENCHMARK.json, bench/README.md): all
# four workloads, results with their run-to-run spread into bench/out/.
bench:
	go run ./bench

# Judge two result files of `make bench`: make bench-compare A=old.json B=new.json
bench-compare:
	go run ./bench -compare $(A) $(B)

# The tracked size number (ROADMAP aim 2): non-test Go lines and assembly,
# bench/ excluded.
loc:
	@find . \( -name '*.go' -not -name '*_test.go' -o -name '*.s' \) -not -path './bench/*' | xargs cat | wc -l

# Profile the reference workload (fig10-medium): cpu.pprof + heap.pprof into
# results/profiles/, the pair the perf notes come from, and the CPU profile
# again as cmd/fairsim/default.pgo, which `go build ./cmd/fairsim` optimizes
# from; commit them together so the PGO input follows the hot path. (`go run
# ./bench` is its own main package and builds without PGO.) Inspect with
# `go tool pprof results/profiles/cpu.pprof`.
profile:
	go build -o /tmp/fairsim-profile ./cmd/fairsim
	/tmp/fairsim-profile -exp fig10 -scale medium -seed 1 -pprof results/profiles -out /tmp/fairsim-profile-out
	cp results/profiles/cpu.pprof cmd/fairsim/default.pgo
	rm -rf /tmp/fairsim-profile /tmp/fairsim-profile-out
