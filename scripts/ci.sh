#!/usr/bin/env bash
# Tier-1 verification for the whole workspace, entirely offline.
#
#   scripts/ci.sh          full run
#
# The repo has no external dependencies (see README "Offline,
# zero-dependency build"), so --offline must always succeed; if it does
# not, a dependency crept back in and the build should fail loudly.
set -euo pipefail
cd "$(dirname "$0")/.."

# Each phase header closes the previous phase with its elapsed wall time
# (bash SECONDS), so the cost of every tier-1 step is visible.
phase_name=""
phase_start=0
phase() {
  if [ -n "$phase_name" ]; then
    echo "-- $phase_name: $((SECONDS - phase_start)) s"
  fi
  phase_name=$1
  phase_start=$SECONDS
  if [ -n "$1" ]; then
    echo "== $1 =="
  fi
}

phase "cargo fmt --check"
cargo fmt --all -- --check

phase "cargo clippy (offline, warnings are errors)"
cargo clippy --workspace --offline --all-targets -- -D warnings

phase "cargo build --release (offline)"
cargo build --release --workspace --offline

phase "cargo doc (offline, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

phase "cargo test (offline)"
cargo test -q --workspace --offline

phase "perfbench self-test (release, offline)"
# The benchmark is a separate workspace that drives the crates' public
# API; building and self-testing it here catches an API change that
# would break it.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

phase "quickstart example (offline)"
cargo run -q --release --offline -p minimal-tcb --example quickstart

phase "unified-engine guardrails"
# sea-core's public API must stay fully documented (the crate-level
# lint is load-bearing: rustdoc warnings above only catch broken links).
grep -q '^#!\[deny(missing_docs)\]' crates/core/src/lib.rs \
  || { echo "ci.sh: crates/core/src/lib.rs must keep #![deny(missing_docs)]" >&2; exit 1; }
# Engine state is single-owner: the discrete-event executor steps every
# session on one OS thread, and exclusive access to the runtime, the
# journal and the TPM arbiter comes from `&mut` borrows. Any `std::sync`
# or `std::thread` use in sea-core or sea-tpm would reintroduce shared
# state that nothing needs (host parallelism lives above the engine, in
# suite workers and fleet shards that each build their own engines).
threads=$(grep -rn 'std::sync\|std::thread' crates/core/src crates/tpm/src \
  --include='*.rs' || true)
if [ -n "$threads" ]; then
  echo "ci.sh: std::sync or std::thread in sea-core/sea-tpm (engine state is single-owner):" >&2
  echo "$threads" >&2
  exit 1
fi
# The remote verifier is the relying party: it re-implements the
# attestation chain from wire bytes and sea-crypto alone, and must
# never reach into the platform stack it is auditing (that independence
# is what tests/verifier_differential.rs is pinning).
leaks=$(grep -n 'sea_hw::Machine\|sea_tpm::Tpm\|use sea_hw\|use sea_tpm\|use sea_os' \
  crates/fleet/src/verifier.rs || true)
if [ -n "$leaks" ]; then
  echo "ci.sh: crates/fleet/src/verifier.rs must not import the platform stack:" >&2
  echo "$leaks" >&2
  exit 1
fi
# Everything the fleet decides — churn, retries, adversarial schedules —
# must derive from explicit seeds: any ambient entropy or wall-clock
# read would break the byte-identity contract across shards, worker
# counts, and submission orders.
entropy=$(grep -rn 'thread_rng\|rand::\|SystemTime\|Instant::now\|RandomState' \
  crates/fleet/src --include='*.rs' || true)
if [ -n "$entropy" ]; then
  echo "ci.sh: unseeded randomness or wall-clock reads in crates/fleet/src:" >&2
  echo "$entropy" >&2
  exit 1
fi
# PAL logic is executed bytecode now: its runtime is charged by the VM's
# gas accounting, not hand-modelled. New `ctx.work(` charges in
# sea-pals belong only to the feature-gated cost-model twins.
costs=$(grep -rn 'ctx\.work(' crates/pals/src --include='*.rs' \
  | grep -v 'crates/pals/src/cost_model/' || true)
if [ -n "$costs" ]; then
  echo "ci.sh: ctx.work( in crates/pals/src outside the cost-model twins:" >&2
  echo "$costs" >&2
  exit 1
fi

phase "engine examples (offline)"
cargo run -q --release --offline -p minimal-tcb --example multi_pal_server > /dev/null
cargo run -q --release --offline -p minimal-tcb --example full_system > /dev/null

phase "chaos suite (fixed fault seed, offline)"
SEA_CHAOS_SEED=20080317 cargo test -q -p minimal-tcb --offline --test fault_recovery

phase "crash suite (fixed crash seed, offline)"
SEA_CRASH_SEED=20080317 cargo test -q -p minimal-tcb --offline --test crash_recovery

phase "benches (smoke mode, offline)"
SEA_BENCH_SMOKE=1 cargo bench -q -p sea-bench --offline

phase "fault-sweep bench (smoke mode, offline)"
SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin fault_sweep

phase "scale bench: 1024 virtual CPUs on the event queue (smoke mode, offline)"
SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin scale

phase "fleet bench: sharded attestation fleet + remote verifier (smoke mode, offline)"
SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin fleet
# Per-platform worker count must not change any request's wire or
# verdict (the debug test binary is already built by the test phase).
cargo test -q -p minimal-tcb --offline --test verifier_differential \
  fleet_outcome_is_executor_invariant

phase "churn bench: fleet under faults, rotation, and adversaries (smoke mode, offline)"
SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin churn
# Churned outcomes must stay byte-identical across shard counts and
# submission permutations, and every adversarial wire must be rejected
# with a typed reason.
cargo test -q -p minimal-tcb --offline --test verifier_differential \
  churned_fleet_is_byte_identical_across_shards_executors_and_orders
cargo test -q -p minimal-tcb --offline --test verifier_differential \
  every_adversarial_wire_is_rejected_with_a_typed_reason

phase "vm bench: measured bytecode PALs, chained vs lookup dispatch (offline)"
# The artifact itself asserts chained and lookup runs produce identical
# outputs and retire identical instruction counts, and reports whether
# the quote set is byte-identical at 1 and 4 workers.
cargo run -q --release -p sea-bench --offline --bin vm > /dev/null
# The executed-bytecode PALs must stay behaviourally pinned to their
# cost-model twins (the debug test binary is built by the test phase).
cargo test -q -p minimal-tcb --offline --test vm_differential
# And sea-pals must stand alone without the twins: the VM programs are
# the product, the cost-model feature is optional.
cargo build -q -p sea-pals --offline --no-default-features

phase "suite + BENCH_suite.json (smoke mode, offline)"
SUITE_JSON=target/BENCH_suite.json
rm -f "$SUITE_JSON"
SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin suite -- 2 --json "$SUITE_JSON" > /dev/null
[ -s "$SUITE_JSON" ] || { echo "ci.sh: $SUITE_JSON missing or empty" >&2; exit 1; }
cargo run -q --release -p sea-bench --offline --bin suite -- --validate "$SUITE_JSON"

phase "suite worker-count invariance: 1 vs 8 vs 16 workers (smoke mode, offline)"
# Suite workers are real OS threads, each building its own engines;
# how they are scheduled must not leak into any output: the whole suite
# — rendered report and BENCH_suite.json alike — is byte-identical at
# every worker count.
for w in 1 8 16; do
  SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin suite \
    -- "$w" --json "target/BENCH_suite.w$w.json" > "target/BENCH_suite.w$w.txt"
done
for w in 8 16; do
  cmp -s "target/BENCH_suite.w1.json" "target/BENCH_suite.w$w.json" \
    || { echo "ci.sh: BENCH_suite.json differs between 1 and $w workers" >&2; exit 1; }
  # The report's first line names the worker count; everything after it
  # must match byte for byte.
  cmp -s <(tail -n +2 "target/BENCH_suite.w1.txt") <(tail -n +2 "target/BENCH_suite.w$w.txt") \
    || { echo "ci.sh: suite report differs between 1 and $w workers" >&2; exit 1; }
done

phase ""
echo "== ci.sh: all green in $SECONDS s =="
