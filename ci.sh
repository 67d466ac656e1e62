#!/usr/bin/env bash
# CI entry point: formatting, lints on every workspace target (crates,
# tests, benches, examples), release build, the full workspace
# test suite (tier-1 verify is those two steps; the suite includes the
# committed golden-v1-spec memo-key assertions and the v2 spec
# round-trip property test), the perfbench package's tests (they compile
# against the public API perfbench uses), an end-to-end loas-serve smoke test
# (enqueue -> run two shard processes -> merge -> verify byte-identical
# to a single-process run -> warm-store replay with zero simulations), a
# v1-vs-v2 spec A/B against the committed pre-redesign report, a served
# baseline-config sweep (Gamma FiberCache), smokes for the queue admin
# commands (batch enqueue, requeue, fsck, models), a perf smoke emitting
# a quick-grid BENCH_PR5.json, a bench-trajectory gate comparing the
# committed BENCH_PR5.json against BENCH_PR3.json (fails on a >20%
# regression in kernel pairs/s or end-to-end wall time, and requires
# BENCH_PR5.json's >=1.3x end-to-end gain). Every model's fast walk is
# A/B'd against its oracle walk (`run_layer_reference`) by the test
# suite, including a golden test that runs the committed headline
# campaign on the oracle walks against the committed report.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (whole workspace, all targets; deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== perfbench tests (the benchmark's use of the public API)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== loas-serve smoke test (2 shard processes vs 1 process, then warm replay)"
SERVE=target/release/loas-serve
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
export LOAS_WORKERS=2  # pin engine parallelism for the smoke run

"$SERVE" spec --headline --quick > "$SMOKE/headline.json"

# Two separate runner processes, one shard each, sharing a queue directory.
"$SERVE" init "$SMOKE/sharded"
"$SERVE" enqueue "$SMOKE/sharded" "$SMOKE/headline.json"
"$SERVE" run "$SMOKE/sharded" --shard 0/2
"$SERVE" run "$SMOKE/sharded" --shard 1/2
"$SERVE" merge "$SMOKE/sharded" 1 --shards 2

# The single-process reference.
"$SERVE" init "$SMOKE/single"
"$SERVE" enqueue "$SMOKE/single" "$SMOKE/headline.json"
"$SERVE" run "$SMOKE/single"

echo "-- merged 2-shard report vs 1-process report"
cmp "$SMOKE/sharded/reports/00001/report.jsonl" "$SMOKE/single/reports/00001/report.jsonl"

# Resubmitting against the warm memo store must simulate nothing and
# reproduce the identical report.
"$SERVE" enqueue "$SMOKE/single" "$SMOKE/headline.json"
"$SERVE" run "$SMOKE/single" | tee "$SMOKE/warm.out"
grep -q "28 memo hits, 0 simulated" "$SMOKE/warm.out"
echo "-- warm replay vs original report"
cmp "$SMOKE/single/reports/00001/report.jsonl" "$SMOKE/single/reports/00002/report.jsonl"
"$SERVE" status "$SMOKE/single"

echo "== golden v1 spec A/B (pre-redesign schema through the catalog)"
# The committed pre-redesign v1 spec must drive the catalog-dispatched
# models to the committed pre-redesign report, byte for byte — and the v2
# spec of the same campaign ("$SMOKE/single" ran the emitted --headline
# spec, which is v2) must agree with both.
"$SERVE" init "$SMOKE/golden"
"$SERVE" enqueue "$SMOKE/golden" crates/serve/tests/golden/headline-v1.spec.json
"$SERVE" run "$SMOKE/golden"
cmp "$SMOKE/golden/reports/00001/report.jsonl" crates/serve/tests/golden/headline-v1.report.jsonl
grep -q '"version": 2' "$SMOKE/headline.json"
cmp "$SMOKE/golden/reports/00001/report.jsonl" "$SMOKE/single/reports/00001/report.jsonl"

echo "== served baseline-config sweep (Gamma FiberCache campaign)"
"$SERVE" enqueue "$SMOKE/single" --gamma-cache --quick
"$SERVE" run "$SMOKE/single"
"$SERVE" status "$SMOKE/single" | grep "gamma-cache-sweep" | grep -q "done"
test -s "$SMOKE/single/reports/00003/report.jsonl"

echo "== queue admin smoke: batch enqueue, requeue, fsck"
mkdir "$SMOKE/batch"
"$SERVE" spec --headline --quick > "$SMOKE/batch/a-headline.json"
"$SERVE" spec --gamma-cache --quick > "$SMOKE/batch/b-gamma.json"
"$SERVE" init "$SMOKE/batchq"
"$SERVE" enqueue "$SMOKE/batchq" "$SMOKE/batch" | grep -q "batch: 2 campaigns submitted"

cat > "$SMOKE/infeasible.json" <<'SPEC'
{"name": "infeasible", "jobs": [{
  "workload": {"name": "w", "shape": {"t": 2, "m": 4, "n": 4, "k": 16},
               "profile": {"spike_origin": 0.01, "silent": 0.5,
                           "silent_ft": 0.55, "weight": 0.98},
               "seed": 7},
  "accelerator": "loas"}]}
SPEC
"$SERVE" enqueue "$SMOKE/single" "$SMOKE/infeasible.json"
"$SERVE" run "$SMOKE/single"
"$SERVE" status "$SMOKE/single" | grep "00004" | grep -q "failed"
"$SERVE" requeue "$SMOKE/single" 4
"$SERVE" status "$SMOKE/single" | grep "00004" | grep -q "queued"

"$SERVE" fsck "$SMOKE/single"
echo "garbage" > "$SMOKE/single/memo/00000000deadbeef.report"
if "$SERVE" fsck "$SMOKE/single" > /dev/null 2>&1; then
  echo "fsck missed an injected corrupt memo entry"; exit 1
fi
"$SERVE" fsck "$SMOKE/single" --prune | grep -q "1 pruned"
"$SERVE" fsck "$SMOKE/single"

echo "== accelerator catalog listing (loas-serve models)"
"$SERVE" models > "$SMOKE/models.out"
for model in loas sparten gospa gamma ptb stellar; do
  grep -q "^$model\$" "$SMOKE/models.out"
done
grep -q "cache_ways" "$SMOKE/models.out"
grep -q "default 262144" "$SMOKE/models.out"

echo "== perf smoke: bench experiment on the quick fig13 grid"
LOAS_BENCH_OUT="$SMOKE/BENCH_PR5.json" target/release/repro --quick --workers 1 bench
grep -q '"format": "loas-bench/1"' "$SMOKE/BENCH_PR5.json"
grep -q '"speedup"' "$SMOKE/BENCH_PR5.json"
echo "-- $(grep -o '"speedup": [0-9.]*' "$SMOKE/BENCH_PR5.json" | tail -1) (quick grid; the tracked full-grid record is BENCH_PR5.json at the repo root)"

echo "== bench trajectory gate (committed BENCH_PR5.json vs BENCH_PR3.json)"
# Both records are full-fidelity, 1-thread, cold-store measurements from
# the same environment; the trajectory invariant is that each perf PR's
# record neither regresses its predecessor by >20% (pairs/s down or wall
# time up) nor falls short of the >=1.3x end-to-end gain PR 5 landed.
bench_field() { grep -o "^  \"$2\": [0-9.]*" "$1" | awk '{print $2}'; }
pr3_pairs=$(bench_field BENCH_PR3.json kernel_pairs_per_sec)
pr5_pairs=$(bench_field BENCH_PR5.json kernel_pairs_per_sec)
pr3_wall=$(bench_field BENCH_PR3.json kernel_seconds)
pr5_wall=$(bench_field BENCH_PR5.json kernel_seconds)
echo "-- kernel sweep: $pr3_pairs -> $pr5_pairs pairs/s; end-to-end: ${pr3_wall}s -> ${pr5_wall}s"
awk -v old="$pr3_pairs" -v new="$pr5_pairs" 'BEGIN { exit !(new >= 0.8 * old) }' \
  || { echo "kernel pairs/s regressed >20% against BENCH_PR3.json"; exit 1; }
awk -v old="$pr3_wall" -v new="$pr5_wall" 'BEGIN { exit !(new <= 1.2 * old) }' \
  || { echo "end-to-end wall time regressed >20% against BENCH_PR3.json"; exit 1; }
awk -v old="$pr3_wall" -v new="$pr5_wall" 'BEGIN { exit !(old >= 1.3 * new) }' \
  || { echo "BENCH_PR5.json no longer shows the >=1.3x end-to-end gain"; exit 1; }

echo "CI OK"
