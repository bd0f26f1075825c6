#!/bin/sh
# verify.sh — the checks a PR must pass, in cheapest-first order:
# formatting, vet, build, then the full test suite under the race
# detector (the telemetry counter registry is exercised concurrently).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== driver: -j determinism + -verify-each over PolyBench"
go test -race -count=1 -run 'TestDeterminismGolden|TestVerifyEachPolyBench' ./internal/driver/

echo "== interp: observability + goroutine runtime under the race detector"
go test -race -count=1 ./internal/interp/

echo "== differential oracle sweep (25 generated programs)"
go run ./cmd/difftest -seed 1 -n 25

echo "== differential fleet: sharded sweep, SIGKILL, resume (journal + summary)"
sh scripts/fleet_smoke.sh 1 200 4

echo "== fuzz smoke: IR text round trip + raw-byte C frontend + raw-byte IR decompile + differential round trip"
go test -run '^$' -fuzz='^FuzzIRParseRoundTrip$' -fuzztime=10s ./internal/ir/
go test -run '^$' -fuzz='^FuzzCompileSource$' -fuzztime=10s ./internal/cfront/
go test -run '^$' -fuzz='^FuzzParseIR$' -fuzztime=10s ./internal/splendid/
go test -run '^$' -fuzz='^FuzzRoundTripExec$' -fuzztime=10s ./internal/difftest/

echo "== runtime observability smoke (writes BENCH_runtime.json + BENCH_runtime_trace.json)"
basecopy=$(mktemp)
cp BENCH_runtime.json "$basecopy"
go test -run '^$' -bench=RuntimeProfile -benchtime=1x .
grep -q '"schema": "splendid-runtime-profile/v1"' BENCH_runtime.json
grep -q '"traceEvents"' BENCH_runtime_trace.json
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool BENCH_runtime.json >/dev/null
    python3 -m json.tool BENCH_runtime_trace.json >/dev/null
fi

echo "== perf-regression gate (fresh profile vs checked-in baseline)"
go run ./cmd/benchgate -baseline "$basecopy" -candidate BENCH_runtime.json
rm -f "$basecopy"

echo "== engine parity smoke (irrun default bytecode engine vs -engine tree)"
engdir=$(mktemp -d)
cat > "$engdir/eng.c" <<'EOF'
double A[256];

void kernel() {
  for (long i = 0; i < 256; i++) {
    A[i] = i * 1.5 + 2.0;
  }
}
EOF
go run ./cmd/ccomp -polly -o "$engdir/eng.ll" "$engdir/eng.c"
go build -o "$engdir/irrun" ./cmd/irrun
"$engdir/irrun" -entry kernel -threads 4 -steps -engine tree "$engdir/eng.ll" > "$engdir/tree.out"
"$engdir/irrun" -entry kernel -threads 4 -steps "$engdir/eng.ll" > "$engdir/bytecode.out"
# Same return, same printed output, same work/span totals.
cmp "$engdir/tree.out" "$engdir/bytecode.out"
rm -rf "$engdir"

echo "== live metrics smoke (irrun -metrics-addr: /metrics, /healthz, /debug/jobs, /debug/pprof)"
if command -v curl >/dev/null 2>&1; then
    smokedir=$(mktemp -d)
    cat > "$smokedir/smoke.c" <<'EOF'
double A[512];

void kernel() {
  for (long i = 0; i < 512; i++) {
    A[i] = i * 2.0;
  }
}
EOF
    go run ./cmd/ccomp -polly -o "$smokedir/smoke.ll" "$smokedir/smoke.c"
    go build -o "$smokedir/irrun" ./cmd/irrun
    "$smokedir/irrun" -entry kernel -threads 4 -check-races \
        -metrics-addr 127.0.0.1:0 -linger 30s \
        "$smokedir/smoke.ll" >/dev/null 2> "$smokedir/irrun.log" &
    irrun_pid=$!
    # The server binds :0; poll stderr for the resolved address.
    base=""
    for _ in $(seq 1 50); do
        base=$(sed -n 's/^irrun: serving debug endpoints at //p' "$smokedir/irrun.log")
        [ -n "$base" ] && break
        sleep 0.1
    done
    if [ -z "$base" ]; then
        echo "irrun never announced its debug address:" >&2
        cat "$smokedir/irrun.log" >&2
        kill "$irrun_pid" 2>/dev/null || true
        exit 1
    fi
    curl -fsS "$base/metrics" > "$smokedir/metrics.txt"
    grep -q 'splendid_driver_jobs_completed_total{kind="execute"} 1' "$smokedir/metrics.txt"
    grep -q 'splendid_interp_runs_total{engine="bytecode"} 1' "$smokedir/metrics.txt"
    grep -q 'splendid_interp_regions_total{engine="bytecode"} 1' "$smokedir/metrics.txt"
    grep -q 'splendid_build_info{' "$smokedir/metrics.txt"
    curl -fsS "$base/healthz" | grep -q '"splendid-health/v1"'
    curl -fsS "$base/debug/jobs" > "$smokedir/jobs.json"
    grep -q '"splendid-flight-record/v1"' "$smokedir/jobs.json"
    grep -q '"kind": "execute"' "$smokedir/jobs.json"
    curl -fsS "$base/debug/events" | grep -q '"splendid-evlog/v1"'
    curl -fsS "$base/debug/pprof/cmdline" >/dev/null
    kill "$irrun_pid" 2>/dev/null || true
    wait "$irrun_pid" 2>/dev/null || true
    rm -rf "$smokedir"
else
    echo "curl not found; skipping the endpoint smoke" >&2
fi

echo "verify: OK"
