.PHONY: verify test bench bench-runtime bench-gate difftest fuzz

verify:
	sh scripts/verify.sh

test:
	go test ./...

# Round-trip differential sweep over generated programs; exit 1 on any
# divergence. Override SEEDS/START for longer or shifted sweeps.
START ?= 1
SEEDS ?= 500
difftest:
	go run ./cmd/difftest -seed $(START) -n $(SEEDS)

# Short native-fuzzing smoke of the harnesses: the IR text round trip,
# raw bytes into the C frontend, and the full differential round trip.
fuzz:
	go test -run '^$$' -fuzz='^FuzzIRParseRoundTrip$$' -fuzztime=10s ./internal/ir/
	go test -run '^$$' -fuzz='^FuzzCompileSource$$' -fuzztime=10s ./internal/cfront/
	go test -run '^$$' -fuzz='^FuzzRoundTripExec$$' -fuzztime=10s ./internal/difftest/

# Full benchmark sweep: one benchmark per paper table and figure.
bench:
	go test -bench=. -benchtime=1x .

# Runtime observability sweep: runs the PolyBench suite under the
# parallel-region profiler and the dynamic DOALL conflict checker,
# leaving the per-kernel profile table (including the tree-vs-bytecode
# engine speedups) in BENCH_runtime.json and a Chrome trace of one
# profiled execution in BENCH_runtime_trace.json. SIZE scales the
# problem dimensions; std makes the engine comparison meaningful.
SIZE ?= std
bench-runtime:
	POLYBENCH_SIZE=$(SIZE) go test -run '^$$' -bench=RuntimeProfile -benchtime=1x -timeout 60m .

# Perf-regression gate: re-measure the runtime profile at the
# baseline's size and fail if the engine geomean or any kernel's
# parallel speedup regressed beyond tolerance vs the checked-in
# BENCH_runtime.json (see scripts/bench_gate.sh for the knobs).
bench-gate:
	sh scripts/bench_gate.sh
