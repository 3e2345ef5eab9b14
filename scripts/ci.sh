#!/usr/bin/env bash
# Tier-1 verification: everything CI runs, runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy"
cargo clippy --workspace -- -D warnings

echo "==> xlint (static analysis: 8 rules on the token-tree lexer; DESIGN.md §14)"
# Violations print as file:line: rule: message and fail the build. The JSON
# report (including the model-coverage table) lands in target/ for CI to
# archive; in --json mode stdout carries the same bytes the tool writes.
mkdir -p target
cargo run -q --release -p xlint -- --json . > target/XLINT_REPORT.json
covered=$(grep -o '"covered": [0-9]*' target/XLINT_REPORT.json | grep -o '[0-9]*$')
baseline=$(cat scripts/xlint_coverage_baseline)
if [ "$covered" -lt "$baseline" ]; then
  echo "xlint: model coverage regressed: $covered covered modules < baseline $baseline" >&2
  exit 1
elif [ "$covered" -gt "$baseline" ]; then
  # Coverage may only grow: ratchet the checked-in baseline forward.
  echo "$covered" > scripts/xlint_coverage_baseline
  echo "xlint: model coverage grew to $covered modules (baseline ratcheted)"
fi

echo "==> vscheck + xlint self-tests (seeded mutations + replay on both checkers)"
cargo test -q -p vscheck
cargo test -q -p xlint

echo "==> vscheck model tests (exhaustive interleavings of the concurrency cores)"
# Bounded by each test's Config (preemption bound + schedule budget) so the
# three suites together stay well under a minute.
cargo test -q -p vsscore --features vscheck-model model_
cargo test -q -p vsched --features vscheck-model model_
cargo test -q -p vstrace --features vscheck-model model_
cargo test -q -p metaheur --features vscheck-model model_
cargo test -q -p vscluster --features vscheck-model model_

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

# Virtual-time outputs are deterministic, so each regenerated copy must
# match its committed golden byte for byte; a difference is a behaviour
# change that has to be committed deliberately.
golden() {
  local committed="$1" fresh="$2"
  if ! cmp -s "$committed" "$fresh"; then
    echo "golden: $fresh differs from the committed $committed:" >&2
    diff "$committed" "$fresh" >&2 || true
    exit 1
  fi
}

echo "==> scheduler snapshot cell (Percent split vs work stealing; gates the steal-gain bars)"
cargo run -q --release -p vs-bench --bin sched_snapshot -- target/BENCH_sched.json
golden BENCH_sched.json target/BENCH_sched.json

echo "==> paper tables (tables --scale quick, golden stdout)"
(cd target && ./release/tables --scale quick) > target/tables_quick.txt
golden scripts/golden/tables_quick.txt target/tables_quick.txt

echo "==> trace report"
scripts/trace_report.sh

echo "==> steal report (work-stealing runtime under a mid-run fault)"
scripts/steal_report.sh

echo "==> grid report (potential-grid accuracy + speedup gates)"
scripts/grid_report.sh

echo "==> pipeline report (lockstep vs pipelined engine; gates the idle-fraction drop)"
scripts/pipeline_report.sh
golden BENCH_pipeline.json target/BENCH_pipeline.json

echo "==> campaign report (multi-tenant service under bursty traffic; gates latency, utilization, cache)"
scripts/campaign_report.sh

echo "==> OK"
