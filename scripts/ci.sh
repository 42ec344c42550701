#!/usr/bin/env bash
# CI entry point. Everything here must pass offline: the workspace has a
# zero-third-party-dependency policy (DESIGN.md §5), so no step may touch
# the network or a registry cache.
#
# Usage:
#   scripts/ci.sh            # run every check in both profiles
#   scripts/ci.sh debug      # build/test the debug profile only
#   scripts/ci.sh release    # build/test the release profile only
#   scripts/ci.sh fuzz       # leak-search: corpus replay + budgeted fuzz
#
# Steps:
#   1. dependency purity    - Cargo.lock and `cargo tree` contain only
#                             workspace members (no `source =` lines, no
#                             paths outside the repo)
#   2. unsafe census        - `unsafe` appears in no `.rs` file but the
#                             AES-NI module (crates/crypto/src/aes.rs) and
#                             the benchmark's timestamp-counter read
#                             (crates/bench/src/bin/benchmark/src/traced.rs)
#   3. formatting           - cargo fmt --check
#   4. lints                - cargo clippy --all-targets -D warnings
#   5. build + test         - --locked --offline, per profile
#   6. leak corpus replay   - every profile: `leakfuzz replay` re-runs the
#                             checked-in counterexample corpus; the Baseline
#                             must keep flagging and every protected scheme
#                             must stay clean (drift detector both ways)
#   7. bench smoke + gate   - one quick ivl-bench micro run, diffed against
#                             the quick-mode BENCH_pr12.json by bench_compare;
#                             fails on a median regression beyond the
#                             threshold (IVL_BENCH_GATE_THRESHOLD, default
#                             1.5 = 2.5x)
#   8. observability smoke  - obs_run writes + self-validates a trace
#                             (JSONL) and stats registry (JSON) for a quick
#                             mix and a short attack, including a nonzero
#                             dram.idle_cycles (idle-cycle accounting)
#   9. timeline smoke       - timeline_report reconciles windowed series
#                             against registry deltas and round-trips the
#                             timeline JSONL
#  10. figures wall-clock   - all_figures --quick (release only) must finish
#                             within IVL_FIGURES_BUDGET_SECS (default 240);
#                             catches campaign-layer slowdowns the per-bench
#                             medians cannot see
#  11. benchmark goldens   - the end-to-end benchmark (release only) runs
#                             its four workloads untraced; each must
#                             reproduce its seed-2024 golden outputs exactly
#  12. benchmark memory    - the same run's steady-large peak_rss_mib must
#                             stay within 45 MiB (release only); peak RSS
#                             repeats across runs, unlike wall time, so a
#                             memory regression fails here on any runner
#  13. benchmark tests     - the benchmark's own test suite (release only),
#                             among them the check that its traced driver
#                             still reproduces `run_mix` bit for bit
#
# The fuzz profile builds only leakfuzz in step 5 and replaces steps 7-13
# with a budgeted leak-search run (IVL_FUZZ_BUDGET_SECS, default 60):
# `leakfuzz fuzz` exits 2 — failing this script — if any protected scheme
# shows a distinguishable timing signal. Findings land in target/leakfuzz/
# as corpus entries plus trace dumps for upload.
#
# Every run ends with a one-line PASS summary listing the steps executed.

set -euo pipefail

cd "$(dirname "$0")/.."
PROFILE_FILTER="${1:-all}"
case "$PROFILE_FILTER" in
all | debug | release | fuzz) ;;
*)
    echo "unknown profile '$PROFILE_FILTER' (expected all|debug|release|fuzz)" >&2
    exit 2
    ;;
esac

STEPS_RUN=()
step() {
    STEPS_RUN+=("$*")
    printf '\n=== %s ===\n' "$*"
}

step "dependency purity"
if grep -q '^source = ' Cargo.lock; then
    echo "FAIL: Cargo.lock references a registry source:" >&2
    grep -n '^source = ' Cargo.lock >&2
    exit 1
fi
# Every node in the full dependency graph (normal, build, and dev edges)
# must live inside this repository.
BAD_DEPS=$(cargo tree --workspace --locked --offline \
    --edges normal,build,dev --prefix none --format '{p}' \
    | sort -u | grep -v "($(pwd)" || true)
if [ -n "$BAD_DEPS" ]; then
    echo "FAIL: dependency graph reaches outside the workspace:" >&2
    echo "$BAD_DEPS" >&2
    exit 1
fi
echo "OK: dependency graph is workspace-only"

step "unsafe census"
# DESIGN.md §6 ("AES tiers") lists every `unsafe` site: six in the AES-NI
# module and one in the benchmark's timestamp-counter read. Any other file
# that so much as mentions the word fails here, so the census cannot drift.
UNSAFE_ALLOWED='^(crates/crypto/src/aes\.rs|crates/bench/src/bin/benchmark/src/traced\.rs)$'
UNSAFE_FILES=$(grep -rlw --include='*.rs' --exclude-dir=target unsafe src crates examples tests \
    | grep -Ev "$UNSAFE_ALLOWED" || true)
if [ -n "$UNSAFE_FILES" ]; then
    echo "FAIL: \`unsafe\` outside the AES-NI module and the benchmark's TSC read:" >&2
    echo "$UNSAFE_FILES" | xargs grep -nw unsafe >&2
    exit 1
fi
echo "OK: unsafe only in the AES-NI module and the benchmark's TSC read"

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --locked --offline -- -D warnings

run_profile() {
    local name="$1"
    shift
    step "build ($name)"
    cargo build --workspace --all-targets --locked --offline "$@"
    step "test ($name)"
    cargo test -q --workspace --locked --offline "$@"
}

case "$PROFILE_FILTER" in
all)
    run_profile debug
    run_profile release --release
    ;;
debug)
    run_profile debug
    ;;
release)
    run_profile release --release
    ;;
fuzz)
    step "build (release: leakfuzz)"
    cargo build --release -p ivl-leakfuzz --locked --offline
    ;;
esac

# The leak corpus is a cross-profile invariant: replay it in every mode.
# Debug reuses the debug build; everything else the release build.
LEAKFUZZ_PROFILE_ARGS=(--release)
if [ "$PROFILE_FILTER" = "debug" ]; then
    LEAKFUZZ_PROFILE_ARGS=()
fi
step "leak corpus replay"
cargo run -q "${LEAKFUZZ_PROFILE_ARGS[@]}" -p ivl-leakfuzz --bin leakfuzz \
    --locked --offline -- replay

if [ "$PROFILE_FILTER" = "fuzz" ]; then
    FUZZ_BUDGET="${IVL_FUZZ_BUDGET_SECS:-60}"
    step "leak-search fuzz (budget ${FUZZ_BUDGET}s)"
    # Exits 2 (failing the script) if any protected scheme flags.
    cargo run -q --release -p ivl-leakfuzz --bin leakfuzz --locked --offline -- \
        fuzz --budget-secs "$FUZZ_BUDGET" --out "$(pwd)/target/leakfuzz"
fi

if [ "$PROFILE_FILTER" != "fuzz" ]; then

step "bench smoke (IVL_BENCH_QUICK=1)"
# Absolute path: the bench binary's working directory is the bench package,
# not the workspace root, so a relative IVL_BENCH_JSON would land elsewhere.
BENCH_JSON="$(pwd)/target/bench_quick.json"
IVL_BENCH_QUICK=1 IVL_BENCH_JSON="$BENCH_JSON" \
    cargo bench -p ivl-bench --locked --offline

step "bench regression gate (vs BENCH_pr12.json)"
# The snapshot was recorded with the same quick-mode invocation as the leg
# above, so the gate compares quick mode with quick mode. Quick-mode
# medians are still noisy on a shared runner straight after a long build
# (short warm-up, hot machine), so the generous default threshold only
# catches order-of-magnitude mistakes, not percent-level drift.
cargo run -q -p ivl-bench --bin bench_compare --locked --offline -- \
    BENCH_pr12.json "$BENCH_JSON" \
    --threshold "${IVL_BENCH_GATE_THRESHOLD:-1.5}"

step "observability smoke (obs_run --quick)"
# The binary validates its own artifacts (JSONL parses, event families
# present, monotonic cycles, stats reconcile) and exits nonzero otherwise.
# Cap the ring so the uploaded JSONL stays a few MB (drop-oldest keeps the
# most recent window, which is what a forensics reader wants anyway).
IVL_TRACE="$(pwd)/target/obs_trace.jsonl" \
    IVL_STATS_JSON="$(pwd)/target/obs_stats.json" \
    IVL_TRACE_CAP=50000 \
    cargo run -q -p ivl-bench --bin obs_run --locked --offline -- S-1 IvPro --quick

step "timeline smoke (timeline_report --quick)"
# With the windowed timeline live, the binary reconciles window sums
# against registry deltas and round-trips the JSONL it writes (uploaded as
# an artifact alongside the trace).
IVL_TIMELINE="$(pwd)/target/obs_timeline.jsonl" \
    cargo run -q -p ivl-bench --bin timeline_report --locked --offline -- S-1 IvPro --quick

if [ "$PROFILE_FILTER" != "debug" ]; then
    step "figures wall-clock smoke (all_figures --quick)"
    # Runs the full figure campaign in quick mode against a wall-clock
    # budget. The budget leaves generous headroom over the ~51 s a single
    # quiet core needs after the event-calendar/dense-table work (it was
    # 900 s before that landed) and stays env-overridable because CI cores
    # vary; it exists to catch campaign-layer slowdowns — a serialized
    # sweep, a lost parallel runner — that the micro-bench medians cannot
    # see. Debug-only runs skip it: the budget is calibrated for the
    # release profile.
    FIGURES_BUDGET="${IVL_FIGURES_BUDGET_SECS:-240}"
    FIGURES_START=$(date +%s)
    cargo run -q --release -p ivl-bench --bin all_figures --locked --offline -- --quick
    FIGURES_ELAPSED=$(($(date +%s) - FIGURES_START))
    echo "all_figures --quick took ${FIGURES_ELAPSED}s (budget ${FIGURES_BUDGET}s)"
    if [ "$FIGURES_ELAPSED" -gt "$FIGURES_BUDGET" ]; then
        echo "FAIL: figure campaign exceeded its wall-clock budget" >&2
        exit 1
    fi

    step "benchmark golden check"
    # Every workload's simulated outputs must match the checked-in
    # seed-2024 goldens (exit 1 otherwise). `--trace 0` skips the traced
    # pass: its per-point layer split depends on host timing, not on the
    # simulator's outputs.
    GOLDEN_LOG="$(pwd)/target/benchmark_goldens.log"
    cargo run --release --offline --quiet \
        --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
        --seconds 2 --trace 0 | tee "$GOLDEN_LOG"

    step "benchmark memory gate (steady-large peak RSS)"
    # The run's last stdout line is its JSON summary. L-1 under Baseline
    # then IvLeague-Pro peaks at about 34-36 MiB (1-2 CPUs); it peaked at
    # 52-54 MiB while every TreeLing allocated its level-1 slot words up
    # front (DESIGN §6, "One word per slot").
    RSS_LIMIT_MIB=45
    STEADY_LARGE_RSS=$(tail -n 1 "$GOLDEN_LOG" \
        | grep -o '"steady-large\.peak_rss_mib": {"value": [0-9.eE+-]*' \
        | awk '{ print $NF }')
    if [ -z "$STEADY_LARGE_RSS" ]; then
        echo "FAIL: no steady-large.peak_rss_mib in the benchmark's summary line" >&2
        exit 1
    fi
    echo "steady-large peak_rss_mib ${STEADY_LARGE_RSS} MiB (limit ${RSS_LIMIT_MIB} MiB)"
    if awk -v v="$STEADY_LARGE_RSS" -v l="$RSS_LIMIT_MIB" 'BEGIN { exit !(v > l) }'; then
        echo "FAIL: steady-large peak RSS exceeds ${RSS_LIMIT_MIB} MiB" >&2
        exit 1
    fi

    step "benchmark tests"
    # The benchmark is a workspace of its own, so step 5 does not reach its
    # tests; `traced_driver_is_bit_identical_to_run_mix` holds its copy of
    # the run loop to the program's.
    cargo test --release --offline \
        --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
fi

fi # PROFILE_FILTER != fuzz

SUMMARY=$(printf '%s; ' "${STEPS_RUN[@]}")
printf '\nPASS (%s): %s\n' "$PROFILE_FILTER" "${SUMMARY%; }"
