#!/bin/sh
# Repository CI gate. Run before every push; everything must pass offline.
#
#   ./ci.sh
#
# Steps (in order, failing fast):
#   1. cargo fmt --check     — formatting is canonical
#   2. cargo clippy          — every workspace crate, all targets, zero warnings
#   3. cargo build --release — the tier-1 build
#   4. cargo test -q         — the tier-1 test suite (root crate + deps)
#   5. cargo test --workspace -q — every crate's unit tests
#   6. chaos suite           — fault-injection gate (pinned seeds)
#   7. fig_scale --smoke     — comparison-scaling gate (writes BENCH_scan.json)
#   8. fig7_runtime_idle     — the paper's Fig. 7 shape (linear series,
#                              Module-Searcher dominant at every N) plus
#                              the ABL-5 fast-vs-paper capture check
#   9. observability gate    — metrics/trace export + schema validation + mc-obs clippy
#  10. fleet gate            — randomized sim smoke + golden snapshots +
#                              fig_fleet sub-linear scaling (writes BENCH_fleet.json)
#  11. static-analysis gate  — sweep-vs-CFG differential suite + analyzer
#                              metric exports validated against the schema
#  12. serve gate            — attestation-daemon sim suite + goldens +
#                              fig_serve fault sweep (writes BENCH_serve.json)
#  13. capture gate          — fast-path equivalence suite + fig_capture,
#                              which asserts the >= 4x steady-state capture
#                              speedup and fast-path on/off verdict
#                              byte-identity (writes BENCH_capture.json)
#  14. events gate           — push-vs-pull equivalence suite + fig_events,
#                              which asserts the >= 10x clean-round
#                              read/walk cut, sub-round median detection
#                              latency and push/poll verdict byte-identity
#                              (writes BENCH_events.json)
#  15. adversary gate        — active-adversary matrix suite (DKOM unlink,
#                              scrub race, checker blinding vs cross-view,
#                              scan-phase jitter, tamper evidence) + the
#                              crossview_*/adversary_* metric exports
#                              validated against the schema; the 200-seed
#                              detection-rate sweep rides in the fleet gate
#  16. exit-code gate        — fleet-check's typed exit status contract,
#                              and unknown options as usage errors
#  17. test-count floor      — the suite must never silently shrink
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Chaos gate: re-run the fault-injection suite on its own so a chaos
# regression is named in the CI log. Fault seeds are pinned inside the
# tests and the property sweeps are bounded (16 cases), so this step is
# deterministic and cheap.
echo "==> chaos suite (pinned seeds, bounded cases)"
cargo test -q --test chaos

# Scaling gate: the canonical comparison path must stay sub-quadratic and
# undercut the pairwise matrix by >= 4x at the top of the sweep. The smoke
# sweep stops at t=16; the binary asserts both bounds itself and emits the
# measured series as BENCH_scan.json at the repo root.
echo "==> fig_scale --smoke (comparison scaling gate)"
cargo run --release -q -p mc-bench --bin fig_scale -- --smoke --out BENCH_scan.json

# Fig. 7 gate: the paper's idle-cloud runtime figure, on the paper's
# page-by-page capture. The binary asserts every series is linear in N
# and that Module-Searcher dominates at every N from 2 to 15; `--cache`
# adds ABL-5, asserting the fast capture path's searcher time undercuts
# the paper path's at N=15 with the vote unchanged.
echo "==> fig7_runtime_idle --cache (paper Fig. 7 shape + ABL-5)"
cargo run --release -q -p mc-bench --bin fig7_runtime_idle -- --cache > /dev/null

# Observability gate: a real 4-VM scan must export metrics that validate
# against the checked-in schema and a non-empty span trace, and the
# mc-obs crate must be clippy-clean on its own (it is the one crate every
# layer records into, so its API surface stays warning-free).
echo "==> observability gate (metrics export + schema + trace)"
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    check --vms 4 --module hal.dll \
    --metrics-out target/ci-metrics.json --trace-out target/ci-trace.jsonl \
    > /dev/null
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    validate-metrics --file target/ci-metrics.json --schema schemas/metrics-schema.json
test -s target/ci-trace.jsonl || { echo "ci: trace export is empty" >&2; exit 1; }
cargo clippy -q -p mc-obs --all-targets -- -D warnings

# Fleet gate: the randomized cloud-simulation suite (its default 200
# seeded topologies, oracle-checked in all four compare × sharding mode
# combinations, plus the 200-seed active-adversary detection-rate sweep —
# every ground-truth-detectable instance caught via its intended channel,
# clean pools flag nothing), the byte-pinned golden snapshots, and the fig_fleet
# scaling bench, which itself asserts that sharded makespan shrinks
# monotonically and sub-linearly and that the report bytes never depend
# on the shard count.
echo "==> fleet gate (sim smoke + golden snapshots + fig_fleet scaling)"
cargo test -q --release --test fleet_sim --test golden_fleet --test pe_fuzz
cargo run --release -q -p mc-bench --bin fig_fleet -- --smoke --out BENCH_fleet.json

# Static-analysis gate: the differential sweep-vs-CFG suite (clean corpus
# silent in both modes, every attack row holds), then the CLI path end to
# end — the vote-invisible IAT pivot must be statically flagged, and both
# analyzer metric exports (analyze --metrics-out and the fleet pre-pass,
# which carry the analysis_* series) must validate against the schema.
echo "==> static-analysis gate (cfg suite + analyzer exports + schema)"
cargo test -q --release --test cfg_analysis
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    analyze --vms 3 --infect iat-pivot@1 \
    --metrics-out target/ci-analyze-metrics.json \
    | grep -q 'flagged VMs:' || { echo "ci: iat-pivot not statically flagged" >&2; exit 1; }
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    validate-metrics --file target/ci-analyze-metrics.json --schema schemas/metrics-schema.json
# Seed 11 is an infected fleet, so fleet-check's typed exit status is 2
# ("integrity findings") — anything else is a regression in either the
# detector or the exit-code contract.
rc=0
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    fleet-check --seed 11 --compare canonical --static-prepass \
    --metrics-out target/ci-prepass-metrics.json > /dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "ci: infected fleet-check exited $rc, want 2" >&2; exit 1; }
grep -q '"analysis_flagged_vms_total"' target/ci-prepass-metrics.json \
    || { echo "ci: pre-pass export is missing the analysis_* series" >&2; exit 1; }
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    validate-metrics --file target/ci-prepass-metrics.json --schema schemas/metrics-schema.json

# Serve gate: the attestation daemon's robustness contract. The 120-seed
# simulation suite (typed outcome for every query, deadlines honored,
# bounded queue, quarantine routing, byte-identity across worker layouts),
# the pinned ServeReport goldens, the fig_serve fault-rate sweep (which
# itself asserts bounded p99 staleness and no silent drops, writing
# BENCH_serve.json), and the serve_* metrics/trace exports validated
# against the schema.
echo "==> serve gate (sim suite + goldens + fig_serve + serve_* exports)"
cargo test -q --release --test serve_sim --test golden_serve
cargo run --release -q -p mc-bench --bin fig_serve -- --smoke --out BENCH_serve.json
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    serve --queries 200 --metrics-out target/ci-serve-metrics.json \
    --trace-out target/ci-serve-trace.jsonl > /dev/null
grep -q '"serve_queries_total"' target/ci-serve-metrics.json \
    || { echo "ci: serve export is missing the serve_* series" >&2; exit 1; }
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    validate-metrics --file target/ci-serve-metrics.json --schema schemas/metrics-schema.json
test -s target/ci-serve-trace.jsonl || { echo "ci: serve trace export is empty" >&2; exit 1; }

# Capture gate: the fast-path equivalence suite (translate-cache walk
# accounting, torn/paged-out fault plans, partially refreshed caches
# voting like cold scans, fast path on/off byte-identity), then
# fig_capture, which itself asserts the >= 4x steady-state capture
# speedup at t=16 and that reports are byte-identical with the fast path
# on and off (simulated times and VMI counters stripped), writing
# BENCH_capture.json.
echo "==> capture gate (equivalence suite + fig_capture fast-path bench)"
cargo test -q --release --test capture_fastpath
cargo run --release -q -p mc-bench --bin fig_capture -- --smoke --out BENCH_capture.json

# Events gate: the push pipeline's equivalence contract. The push-vs-pull
# suite (verdict byte-identity across the attack corpus, zero-read quiet
# rounds, targeted dirty rescans, event-mode chaos determinism, the
# fleet-scale read/walk cut), then fig_events, which asserts the >= 10x
# clean-round guest-read and page-walk reduction, sub-round median
# detection latency and push/poll verdict byte-identity, writing
# BENCH_events.json. Finally the CLI event path end to end: a push-mode
# monitor run must export the event_* series and validate against the
# schema.
echo "==> events gate (equivalence suite + fig_events push bench)"
cargo test -q --release --test event_mode
cargo run --release -q -p mc-bench --bin fig_events -- --smoke --out BENCH_events.json
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    monitor --vms 5 --rounds 2 --events \
    --metrics-out target/ci-events-metrics.json > /dev/null
grep -q '"event_trusted_pairs_total"' target/ci-events-metrics.json \
    || { echo "ci: push-mode export is missing the event_* series" >&2; exit 1; }
grep -q '"trap_watched_frames"' target/ci-events-metrics.json \
    || { echo "ci: push-mode export is missing the trap_* series" >&2; exit 1; }
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    validate-metrics --file target/ci-events-metrics.json --schema schemas/metrics-schema.json

# Adversary gate: the active-adversary corpus (DKOM unlinking, scrub-race
# restorers, checker blinding) against its counter-defenses. The matrix
# suite asserts each adversary evades exactly the channels it should and
# is caught by its intended one (cross-view for unlinking and blinding,
# scan-phase jitter / tamper evidence for the scrub race) and that
# jittered verdicts are mode- and shard-invariant. Then the CLI surface:
# a cross-view fleet pass and a jittered monitor run must export the
# crossview_* / adversary_* / monitor_* series and validate against the
# schema.
echo "==> adversary gate (matrix suite + cross-view/jitter exports)"
cargo test -q --release --test active_adversaries
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    fleet-check --pools 2 --cross-view \
    --metrics-out target/ci-crossview-metrics.json > /dev/null
grep -q '"crossview_scans_total"' target/ci-crossview-metrics.json \
    || { echo "ci: cross-view export is missing the crossview_* series" >&2; exit 1; }
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    validate-metrics --file target/ci-crossview-metrics.json --schema schemas/metrics-schema.json
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    monitor --vms 4 --rounds 2 --scan-jitter 1000000 \
    --metrics-out target/ci-jitter-metrics.json > /dev/null 2>&1
grep -q '"monitor_jittered_rounds_total"' target/ci-jitter-metrics.json \
    || { echo "ci: jittered monitor export is missing the monitor_* series" >&2; exit 1; }
grep -q '"adversary_silent_restores"' target/ci-jitter-metrics.json \
    || { echo "ci: monitor export is missing the adversary_* series" >&2; exit 1; }
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    validate-metrics --file target/ci-jitter-metrics.json --schema schemas/metrics-schema.json

# Exit-code gate: fleet-check's typed exit status is API. A clean uniform
# fleet must exit 0; the infected seed-11 case (exit 2) is asserted in the
# static-analysis gate above. An option the command does not accept (here,
# two retired ones) is a usage error: exit 1 with nothing on stdout.
echo "==> fleet-check exit-code gate"
cargo run --release -q -p modchecker-cli --bin modchecker -- \
    fleet-check --pools 2 > /dev/null \
    || { echo "ci: clean fleet-check did not exit 0" >&2; exit 1; }
for bad in "check --vms 4 --module hal.dll --parallel" "fleet-check --max-inflight-per-vm 4"; do
    rc=0
    # shellcheck disable=SC2086 # $bad is a word list on purpose
    out=$(cargo run --release -q -p modchecker-cli --bin modchecker -- $bad 2>/dev/null) || rc=$?
    [ "$rc" -eq 1 ] && [ -z "$out" ] \
        || { echo "ci: '$bad' exited $rc with stdout '$out', want 1 and none" >&2; exit 1; }
done

# Test-count floor: the workspace suite must never silently shrink. Bump
# the floor when tests are added; lowering it is a reviewed decision.
TEST_FLOOR=571
echo "==> test-count floor (>= $TEST_FLOOR)"
TEST_COUNT=$(cargo test --workspace -q -- --list 2>/dev/null | grep -c ': test$')
echo "    $TEST_COUNT tests listed"
if [ "$TEST_COUNT" -lt "$TEST_FLOOR" ]; then
    echo "ci: test count $TEST_COUNT fell below the floor of $TEST_FLOOR" >&2
    exit 1
fi

echo "ci: all green"
