# Convenience wrappers around the Go-native CI gate (cmd/ci), so the same
# checks run with or without make installed.

.PHONY: verify test bench bench-compare loc

# The verification gate every PR must keep green, 17 steps in cmd/ci's
# order: build, vet, an arm64 cross build (failing on any fused
# multiply-add in internal/..., so arm64 computes what amd64 does) and an
# arm64 vet of internal/sim and internal/net, the same failing cross build
# for riscv64, ppc64le and s390x, a 386 cross build and vet of the same two
# packages (4-byte pointers), gofmt, tests, 50 runs of each test that reads process-wide
# allocation counters (TestBytesPerPacket, TestAddFlowCarvesOnlySlabs,
# TestNewFatTreeBytes, TestNewFatTreeAllocations), race-enabled short
# tests, race-enabled parallel-engine tests, a 1-iteration smoke run of the
# sim, net and topo benchmarks, and two 5 s fuzz smokes (FuzzEngineOrder,
# FuzzArrivals). It verifies; it does not measure.
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
# bench/ excluded, then the same count per directory, then the counts of
# registered experiments, -verify claims, fairsim flags, exported
# exp.Config fields, settable net.Network fields and the exported fields
# of the protocol and fabric configs (hpcc.Config, swift.Config,
# timely.Config, core.VAIConfig, topo.FatTreeConfig). cmd/ci holds its one
# definition and prints the total as the gate's last line.
loc:
	@go run ./cmd/ci -loc
