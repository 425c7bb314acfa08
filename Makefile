# Convenience wrappers around the Go-native CI gate (cmd/ci), so the same
# checks run with or without make installed.

.PHONY: verify test bench bench-compare loc profile

# The verification gate every PR must keep green, in cmd/ci's order: build,
# vet, an arm64 cross build and an arm64 vet of internal/sim and
# internal/net, a 386 cross build and vet of the same two (4-byte
# pointers), gofmt, tests, race-enabled short tests, race-enabled
# parallel-engine tests, a 1-iteration smoke run of the sim, net and topo
# benchmarks, and two 5 s fuzz smokes (FuzzEngineOrder, FuzzArrivals). It
# verifies; it does not measure.
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
# bench/ excluded, then the same count per directory. cmd/ci holds its one
# definition and prints the total as the gate's last line.
loc:
	@go run ./cmd/ci -loc

# Profile the reference workload (fig10-medium) and install the result: the
# CPU profile as cmd/fairsim/default.pgo — its one committed copy, which
# `go build ./cmd/fairsim` optimizes from, so the PGO input follows the hot
# path — and the heap profile as results/profiles/heap.pprof; commit both or
# neither. Builds and runs in a temporary directory it removes. (`go run
# ./bench` is its own main package and builds without PGO.) Inspect with
# `go tool pprof cmd/fairsim/default.pgo`.
profile:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	go build -o "$$dir/fairsim" ./cmd/fairsim; \
	"$$dir/fairsim" -exp fig10 -scale medium -seed 1 -pprof "$$dir" -out "$$dir/out"; \
	cp "$$dir/cpu.pprof" cmd/fairsim/default.pgo; \
	cp "$$dir/heap.pprof" results/profiles/heap.pprof
