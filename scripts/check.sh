#!/usr/bin/env sh
# Repo-wide sanity gate: formatting, lints, build, tests.
#
# Everything runs with --offline: the container has no crates.io access and
# all dependencies are workspace-local (see DESIGN.md §8).
#
# With --lint, runs only the borg-lint stage (fast pre-commit loop).
# Set LINT_BASELINE=<file> to grandfather known findings during an
# incremental cleanup; `borg-lint --write-baseline <file>` creates one.
# Every lint run writes machine-readable findings to
# target/lint-findings.json (the CI artifact) and enforces a 5-second
# wall-time budget over the analysis itself (total_ms in the JSON):
# the linter sits on the pre-commit path, so its cost is a contract.
#
# With --lint-graph, dumps the contract/pool reachability set computed
# from the call graph (one `file:line  fn  tag` row per policed
# function) — the review surface for "what does the contract cover?".
#
# With --bench, also smoke-runs every criterion benchmark once
# (CRITERION_SMOKE=1): proves the bench suite builds and executes without
# paying for real measurements.
#
# With --chaos, runs only the chaos roundtrip suite (fault injection →
# lossy write → lenient read → repair → validate), the fast loop when
# working on the fault subsystem.
#
# With --serve, runs only the borg-serve fast loop: the crate's unit
# tests plus the wall-clock chaos smoke (200 mixed-tier queries through
# a real ServePool with injected stalls and panics; asserts clean drain
# and zero prod deadline misses, DESIGN.md §16). Budgeted under 10 s
# after the build.
#
# With --slo, runs only the observability fast loop: the witness / SLO
# / flight-recorder unit tests plus the serve_slo experiment at tiny
# scale (incident replay byte-identity, exemplar drill-down, chaos-off
# control; DESIGN.md §17).
#
# With --profile, runs only the borg-telemetry profile report
# (experiments/profile): the per-event-kind breakdown of a 512-machine
# cell-day, with the query-engine round-trip and chrome-trace JSON
# checks asserted in-process. A small smoke run of the same binary is
# part of the default path so the exporters can't rot.
#
# Both profile runs enforce the phase-fraction regression guard: the
# binary prints a machine-readable "guard: dispatch+usage_tick share"
# line, and the run fails if that share exceeds the stored baseline
# (scripts/profile_baseline) by more than 10 percentage points — the
# event-loop hot paths (DESIGN.md §13) must not quietly regress back
# toward the pre-batching profile.
set -eu

cd "$(dirname "$0")/.."

usage() {
    cat <<'EOF'
usage: scripts/check.sh [MODE]

Default (no flag): lint, fmt, clippy, build, tests, profile smoke.

Modes:
  --lint        borg-lint only (fast pre-commit loop; honors $LINT_BASELINE)
  --lint-graph  dump the computed contract/pool reachability set and exit
  --chaos    chaos roundtrip suite only (fault injection & trace repair)
  --serve    borg-serve fast loop only (unit tests + wall-clock chaos smoke)
  --slo      observability fast loop only (witness/SLO/recorder tests + serve_slo)
  --profile  telemetry profile report only (512-machine cell-day breakdown)
  --bench    default path plus a one-pass smoke of every criterion bench
  --help     this text
EOF
}

run_bench=0
lint_only=0
lint_graph=0
chaos_only=0
profile_only=0
serve_only=0
slo_only=0
for arg in "$@"; do
    case "$arg" in
    --bench) run_bench=1 ;;
    --lint) lint_only=1 ;;
    --lint-graph) lint_graph=1 ;;
    --chaos) chaos_only=1 ;;
    --serve) serve_only=1 ;;
    --slo) slo_only=1 ;;
    --profile) profile_only=1 ;;
    --help | -h)
        usage
        exit 0
        ;;
    *)
        echo "unknown flag: $arg" >&2
        usage >&2
        exit 2
        ;;
    esac
done

# Phase-fraction regression guard over one profile run's output:
# extract the "guard: dispatch+usage_tick share = NN.N%" line and fail
# if it exceeds the stored baseline ($2: a key in
# scripts/profile_baseline) by more than 10 points.
profile_guard() {
    share=$(sed -n 's/^guard: dispatch+usage_tick share = \([0-9.]*\)%.*/\1/p' "$1")
    key=$2
    if [ -z "$share" ]; then
        echo "profile guard: share line missing from profile output" >&2
        exit 1
    fi
    baseline=$(sed -n "s/^${key}=//p" scripts/profile_baseline)
    if [ -z "$baseline" ]; then
        echo "profile guard: key ${key} missing from scripts/profile_baseline" >&2
        exit 1
    fi
    if ! awk -v s="$share" -v b="$baseline" 'BEGIN { exit !(s <= b + 10.0) }'; then
        echo "profile guard: dispatch+usage_tick share ${share}% exceeds" \
            "${key} baseline ${baseline}% by more than 10 points" >&2
        exit 1
    fi
    echo "profile guard: dispatch+usage_tick share ${share}%" \
        "(${key} baseline ${baseline}%, limit +10 points)"
}

if [ "$profile_only" -eq 1 ]; then
    echo "==> telemetry profile (512-machine cell-day)"
    profile_out=$(mktemp)
    cargo run -q --release -p borg-experiments --offline --bin profile >"$profile_out"
    cat "$profile_out"
    profile_guard "$profile_out" dispatch_share
    rm -f "$profile_out"
    echo "Profile check passed."
    exit 0
fi

if [ "$serve_only" -eq 1 ]; then
    echo "==> borg-serve unit tests"
    cargo test -p borg-serve --offline -q
    echo "==> serve smoke (wall-clock chaos: stalls, panics, tiered deadlines)"
    cargo run -q -p borg-experiments --offline --bin serve_smoke -- --scale tiny
    echo "Serve check passed."
    exit 0
fi

if [ "$slo_only" -eq 1 ]; then
    echo "==> observability unit tests (witness, slo, recorder)"
    cargo test -p borg-serve --offline -q --lib witness::
    cargo test -p borg-serve --offline -q --lib slo::
    cargo test -p borg-serve --offline -q --lib recorder::
    echo "==> witness determinism suite"
    cargo test -p borg2019 --test serve_witness --offline -q
    echo "==> serve_slo (incident replay, exemplar drill-down, control)"
    cargo run -q --release -p borg-experiments --offline --bin serve_slo -- --scale tiny
    echo "SLO check passed."
    exit 0
fi

if [ "$chaos_only" -eq 1 ]; then
    echo "==> chaos roundtrip (fault injection & trace repair)"
    cargo test -p borg2019 --test chaos_roundtrip --offline -q
    echo "Chaos check passed."
    exit 0
fi

# borg-lint: workspace determinism & soundness rules (DESIGN.md §10,
# §15). Runs first — it needs only `cargo build -p borg-lint`, so it
# reports before the full workspace compiles. Honors $LINT_BASELINE if
# set. Always leaves target/lint-findings.json behind as the CI
# artifact, and budgets the analysis at 5 s of wall time (total_ms as
# the linter itself measures it, so the guard is independent of cargo's
# compile time on a cold target dir).
LINT_JSON=target/lint-findings.json
LINT_BUDGET_MS=5000
run_lint() {
    echo "==> borg-lint (determinism & soundness rules)"
    mkdir -p target
    cargo run -q --release -p borg-lint --offline -- --root . --json "$LINT_JSON"
    total_ms=$(sed -n 's/.*"total_ms": \([0-9.]*\).*/\1/p' "$LINT_JSON")
    if [ -z "$total_ms" ]; then
        echo "lint budget: total_ms missing from $LINT_JSON" >&2
        exit 1
    fi
    if ! awk -v t="$total_ms" -v b="$LINT_BUDGET_MS" 'BEGIN { exit !(t <= b) }'; then
        echo "lint budget: analysis took ${total_ms} ms, budget ${LINT_BUDGET_MS} ms —" \
            "check the per-rule timings_ms split in $LINT_JSON" >&2
        exit 1
    fi
    echo "lint budget: ${total_ms} ms of ${LINT_BUDGET_MS} ms; findings artifact at $LINT_JSON"
}

if [ "$lint_graph" -eq 1 ]; then
    echo "==> borg-lint --dump-graph (contract/pool reachability set)"
    cargo run -q --release -p borg-lint --offline -- --root . --dump-graph
    exit 0
fi

if [ "$lint_only" -eq 1 ]; then
    run_lint
    echo "Lint check passed."
    exit 0
fi

run_lint

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> telemetry profile smoke (64-machine cell-day)"
profile_out=$(mktemp)
cargo run -q --release -p borg-experiments --offline --bin profile -- --machines 64 >"$profile_out"
profile_guard "$profile_out" dispatch_share
rm -f "$profile_out"

if [ "$run_bench" -eq 1 ]; then
    echo "==> cargo bench (smoke: one pass per benchmark)"
    CRITERION_SMOKE=1 cargo bench --workspace --offline
fi

echo "All checks passed."
