#!/usr/bin/env bash
# The tier-1 gate as one command: build, test, and (when the tools are
# installed) format + lint checks. Everything runs offline — the
# workspace has no external dependencies by design.
#
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> build and run all examples"
cargo build --release --examples
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "--> example: $name"
    cargo run --release -q -p mseh --example "$name" >/dev/null
done

echo "==> serve smoke (release daemon on an ephemeral port, driven by the example client)"
# The daemon prints its bound address on the first stdout line; the
# client submits, streams, cancels a running fleet job, then sends the
# wire shutdown verb — the daemon must exit 0 on its own.
serve_log="$(mktemp)"
./target/release/mseh serve --addr 127.0.0.1:0 --queue 4 --workers 1 > "$serve_log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(awk '/listening on/ { print $NF; exit }' "$serve_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: daemon never reported its listening address"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
if ! cargo run --release -q -p mseh --example serve_client -- "$addr" >/dev/null; then
    echo "FAIL: serve client session failed against $addr"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
if ! wait "$serve_pid"; then
    echo "FAIL: daemon exited non-zero after wire shutdown"
    exit 1
fi
rm -f "$serve_log"
echo "ok: serve smoke — submit, stream, cancel, shutdown, clean exit"

echo "==> perf smoke (reduced budget, perf profile, writes target/BENCH_sim_quick.json)"
# The perf profile matches the committed baseline's host.profile, so the
# regression gate below compares like with like.
cargo run --profile perf -q -p mseh-bench --bin perf -- --quick

# First value of "key" in a perf JSON file (the same first-match read
# every gate below has always made). Fails the run with a message when
# the key is missing or its value is not a number, so a renamed or
# dropped key can never pass a gate against an empty (zero) floor.
perf_value() {
    local key="$1" file="$2" value
    value="$(awk -F': ' -v k="\"$key\"" 'index($0, k) { gsub(/[ ,]/, "", $2); print $2; exit }' "$file")"
    if ! [[ "$value" =~ ^[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$ ]]; then
        echo "FAIL: \"$key\" in $file is missing or not a number (got '$value')" >&2
        return 1
    fi
    printf '%s\n' "$value"
}

# Fails unless the quick run's "key" is at least `keep` times the
# committed baseline's.
floor_gate() {
    local key="$1" keep="$2" quick baseline
    baseline="$(perf_value "$key" BENCH_sim.json)"
    quick="$(perf_value "$key" target/BENCH_sim_quick.json)"
    awk -v q="$quick" -v b="$baseline" -v keep="$keep" -v k="$key" 'BEGIN {
        floor = b * keep
        if (q + 0 < floor) {
            printf "FAIL: %s %.1f is >%d%% below committed baseline %.1f (floor %.1f)\n", k, q, (1 - keep) * 100 + 0.5, b, floor
            exit 1
        }
        printf "ok: %s %.1f vs committed %.1f (floor %.1f)\n", k, q, b, floor
    }'
}

echo "==> perf regression gate (quick steps/s vs committed BENCH_sim.json)"
floor_gate steps_per_sec 0.8

echo "==> fleet regression gate (quick node-steps/s vs committed BENCH_sim.json)"
# First "node_steps_per_sec" in both files is the dense battery-class
# headline row, so the gate compares the same lane at quick vs full
# scale. The floor is 30% (vs 20% for the hot loop): the quick fleet
# row is seconds long and its rate swings ~±15% with host load, while
# a real dense-lane regression (losing the shared table or the store
# monomorphization) costs 5-8x.
floor_gate node_steps_per_sec 0.7

echo "==> dense-supercap regression gate (quick batched node-steps/s vs committed BENCH_sim.json)"
# The batched struct-of-arrays tier's headline. Same 30% floor and
# rationale as the fleet gate above; a real regression (losing the
# batched tier and falling back to per-lane scalar Newton) costs ~10x.
floor_gate dense_supercap_node_steps_per_sec 0.7

echo "==> dense-battery regression gate (quick batched node-steps/s vs committed BENCH_sim.json)"
# The battery-store batched lane (lane-shared keep-fraction powf plus
# the uniform fast path). Same 30% floor and rationale as the gates
# above; a real regression (losing the batched gate and falling back to
# per-node scalar stepping) costs >10x.
floor_gate dense_battery_batched_node_steps_per_sec 0.7

echo "==> arena regression gate (quick policy-evals/s vs committed BENCH_sim.json)"
# The policy-arena throughput headline. The arena times a fixed spec
# (32 contenders, 7 days) in both modes, so quick and committed compare
# identically; same 30% floor rationale as the fleet gates — a real
# regression (losing the shared harvest table and re-solving per lane)
# costs ~6x.
floor_gate policy_evals_per_sec 0.7

echo "==> arena amortization gate (32 lanes vs one standalone run)"
# The tentpole claim: 32 policy lanes over one shared trace must cost
# no more than 6x a single run — i.e. the shared-environment lockstep
# amortization factor (32 x single / arena) stays >= 5.
arena_amort="$(perf_value amortization_factor target/BENCH_sim_quick.json)"
awk -v a="$arena_amort" 'BEGIN {
    if (a + 0 < 5.0) {
        printf "FAIL: arena amortization factor %.2f below the 5x floor\n", a
        exit 1
    }
    printf "ok: arena amortization factor %.2f (floor 5.0)\n", a
}'

echo "==> arena bit-identity smoke (every lane vs its independent run)"
# The harness asserts full SimResult equality for all 32 lanes against
# fresh run_simulation runs before writing the flag.
grep -q '"arena_lanes_match_independent_runs": true' target/BENCH_sim_quick.json || {
    echo "FAIL: arena lanes diverged from independent runs"
    exit 1
}
echo "ok: all arena lanes bit-identical to independent runs"

echo "==> batched-solve bit-identity smoke (supercap lane, batched vs scalar tier)"
# The harness asserts full summary equality before writing the flag.
grep -q '"dense_supercap_batched_matches_scalar": true' target/BENCH_sim_quick.json || {
    echo "FAIL: batched supercap tier diverged from the scalar reference"
    exit 1
}
echo "ok: batched supercap tier bit-identical to scalar tier"

echo "==> batched-solve bit-identity smoke (battery lane, batched vs scalar tier)"
grep -q '"dense_battery_batched_matches_scalar": true' target/BENCH_sim_quick.json || {
    echo "FAIL: batched battery tier diverged from the scalar reference"
    exit 1
}
grep -q '"matches_plain_boxed": true' target/BENCH_sim_quick.json || {
    echo "FAIL: opted-in boxed group diverged from the plain boxed path"
    exit 1
}
echo "ok: batched battery tier bit-identical to scalar tier; boxed opt-in matches plain boxed"

echo "==> fleet bit-identity smoke (one-node fleet vs run_simulation)"
# The harness asserts the equality before writing the flag, alongside
# the thread x shard invariance gate.
grep -q '"one_node_matches_single_run": true' target/BENCH_sim_quick.json || {
    echo "FAIL: one-node fleet diverged from the single-run kernel"
    exit 1
}
grep -q '"thread_shard_invariant": true' target/BENCH_sim_quick.json || {
    echo "FAIL: fleet summary not invariant across threads and shard sizes"
    exit 1
}
echo "ok: one-node fleet bit-identical to run_simulation; geometry invariant"

echo "==> benchmark tests (perfbench package, built under .bench_build)"
CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> fleet-mixed correctness smoke (seed 4242, 2 s, untraced)"
# The benchmark checks every fleet variant's reruns bit-identical and
# closes each variant's energy books before it reports "correct": true,
# so this exercises the fleet engine's shard dispatch end to end.
fleet_smoke="$(CARGO_TARGET_DIR=.bench_build python3 perfbench/run.py --workload fleet-mixed --seed 4242 --seconds 2 --trace 0)"
printf '%s\n' "$fleet_smoke" | tail -n 1 | grep -q '"correct": true' || {
    echo "FAIL: fleet-mixed benchmark run reported incorrect results"
    printf '%s\n' "$fleet_smoke"
    exit 1
}
echo "ok: fleet-mixed reruns bit-identical, books closed"

echo "==> survey-sweep correctness smoke (seed 4242, 2 s, traced)"
# The traced half runs the boxed arenas through the benchmark's
# forwarding platform, which cannot split its step, so every lane solves
# its own harvest; the untraced half replays one driver's harvest table
# per seed. The benchmark checks the two halves bit-identical before it
# reports "correct": true, so this cross-checks both arena paths.
survey_smoke="$(CARGO_TARGET_DIR=.bench_build python3 perfbench/run.py --workload survey-sweep --seed 4242 --seconds 2 --trace 1)"
printf '%s\n' "$survey_smoke" | tail -n 1 | grep -q '"correct": true' || {
    echo "FAIL: survey-sweep benchmark run reported incorrect results"
    printf '%s\n' "$survey_smoke"
    exit 1
}
echo "ok: survey-sweep traced and untraced halves bit-identical, books closed"

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check
else
    echo "==> cargo fmt not installed; skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping"
fi

echo "==> all checks passed"
