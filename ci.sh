#!/usr/bin/env bash
# Tier-1 gate for the FTSPM reproduction.
#
# The workspace is fully self-contained: every dependency is a local
# `path = "crates/..."` crate, so `--offline` must always succeed. If
# cargo ever tries to reach a registry here, a crate has grown an
# external dependency — that is a CI failure by policy, not a network
# hiccup (see DESIGN.md, "Zero external dependencies").

set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo fmt --check

# Determinism gate: campaign tallies, repro sweeps, and the obs
# exporters must be bit-identical at every thread count (DESIGN.md,
# "Deterministic parallelism" and "Observability"). Run the determinism
# suites and the exporter golden files pinned to one thread and to the
# machine's core count; FTSPM_THREADS only sizes the executor, so both
# runs must produce the same bytes.
for threads in 1 "$(nproc)"; do
    FTSPM_THREADS="$threads" cargo test -q --offline \
        -p ftspm-faults --test determinism \
        -p ftspm-bench --test repro_determinism \
        -p ftspm-obs --test golden
done

# Serve smoke: boot the evaluation service on an ephemeral port and pin
# its determinism contract differentially — served bodies byte-identical
# to in-process runs, batches equal to concatenated singles — at a
# 1-thread and an nproc-sized worker pool. `timeout` bounds the stage so
# a hung connection can never wedge CI (the suites also run under the
# workspace test sweep above; this stage re-runs them pinned to each
# pool size).
SERVE_TIMEOUT=""
if command -v timeout >/dev/null 2>&1; then
    SERVE_TIMEOUT="timeout 600"
fi
for threads in 1 "$(nproc)"; do
    FTSPM_THREADS="$threads" $SERVE_TIMEOUT cargo test -q --offline \
        -p ftspm-serve --test differential --test parser_props
done

# Production-serve gate (DESIGN.md §14): the keep-alive and cache
# contracts, re-pinned at a 1-thread and an nproc worker pool —
# N pipelined requests byte-identical to N fresh-connection requests,
# cache hits byte-identical to their original miss (with the hit
# counted), and the async job API's lifecycle/eviction semantics.
for threads in 1 "$(nproc)"; do
    FTSPM_THREADS="$threads" $SERVE_TIMEOUT cargo test -q --offline \
        -p ftspm-serve --test keepalive --test jobs_cache
done

# Trace gate (DESIGN.md §15): the FTSPMTRC round-trip/torn-tail
# property suites, refit stability, and the upload→replay differential
# (served replay byte-identical to the in-process run of the same
# trace-backed spec), re-pinned at a 1-thread and an nproc worker
# pool. Then a `repro trace` smoke: record a kernel, and `diff` proves
# the replay fixed point and bounds refit drift (exits nonzero on
# either).
for threads in 1 "$(nproc)"; do
    FTSPM_THREADS="$threads" $SERVE_TIMEOUT cargo test -q --offline \
        -p ftspm-trace --test trace_props --test fit_props \
        -p ftspm-serve --test trace_differential --test spec_goldens
done
TRACE_DIR="$(mktemp -d)"
"$PWD/target/release/repro" trace record bitcount --out "$TRACE_DIR/k.trc" > /dev/null
"$PWD/target/release/repro" trace diff "$TRACE_DIR/k.trc" > /dev/null
rm -rf "$TRACE_DIR"

# Crash-only gate (DESIGN.md §13). Two halves, both timeout-bounded:
#
# 1. Chaos battery: the seeded transport-chaos soak (stalls, torn
#    requests, mid-body cuts, dropped connections, injected worker
#    panics) and the journal decoder fuzz, re-pinned at a 1-thread and
#    an nproc worker pool.
# 2. Kill-then-resume byte-identity: run the journaled recovery sweep,
#    abort it after 3 durable appends (FTSPM_JOURNAL_CRASH_AFTER is a
#    SIGKILL stand-in: std::process::abort, no unwinding), resume, and
#    require stdout + every artifact byte-identical to an uninterrupted
#    journaled run at the same thread count.
CHAOS_TIMEOUT=""
if command -v timeout >/dev/null 2>&1; then
    CHAOS_TIMEOUT="timeout 600"
fi
for threads in 1 "$(nproc)"; do
    FTSPM_THREADS="$threads" $CHAOS_TIMEOUT cargo test -q --offline \
        -p ftspm-serve --test chaos_soak \
        -p ftspm-harness --test journal_props
done

REPRO="$PWD/target/release/repro"
for threads in 1 "$(nproc)"; do
    CRASH_DIR="$(mktemp -d)"
    (
        cd "$CRASH_DIR"
        mkdir ref killed
        cd ref
        FTSPM_THREADS="$threads" $CHAOS_TIMEOUT "$REPRO" recovery \
            --journal j.jnl --metrics m.csv --trace t.json \
            > stdout.txt 2> /dev/null
        cd ../killed
        # The mid-campaign abort exits non-zero by design.
        FTSPM_THREADS="$threads" FTSPM_JOURNAL_CRASH_AFTER=3 $CHAOS_TIMEOUT \
            "$REPRO" recovery --journal j.jnl --metrics m.csv --trace t.json \
            > /dev/null 2>&1 || true
        test -s j.jnl   # the kill landed after durable appends
        FTSPM_THREADS="$threads" $CHAOS_TIMEOUT "$REPRO" recovery \
            --journal j.jnl --metrics m.csv --trace t.json \
            > stdout.txt 2> resume.log
        grep -q "resumed" resume.log
        cmp stdout.txt ../ref/stdout.txt
        cmp m.csv ../ref/m.csv
        cmp t.json ../ref/t.json
        cmp results/recovery.csv ../ref/results/recovery.csv
    )
    rm -rf "$CRASH_DIR"
done

# Fault fast-path gate (DESIGN.md §12). Two halves:
#
# 1. Differential battery: the event-gated hot path must stay observably
#    byte-identical to the per-access reference path, re-pinned at a
#    1-thread and an nproc-sized pool. The full kernel matrix already ran
#    once under the workspace sweep above; these re-runs use the
#    FTSPM_DIFF_KERNELS smoke mode (4 kernels x 3 schemes x 3 modes) so
#    the stage stays timeout-bounded.
# 2. Armed-idle budget: a run with the injector armed but idle must cost
#    within 5% of a clean run. Timing-sensitive, so it is `#[ignore]`d
#    under plain `cargo test` and runs release-mode here.
FASTPATH_TIMEOUT=""
if command -v timeout >/dev/null 2>&1; then
    FASTPATH_TIMEOUT="timeout 600"
fi
for threads in 1 "$(nproc)"; do
    FTSPM_THREADS="$threads" FTSPM_DIFF_KERNELS=4 $FASTPATH_TIMEOUT \
        cargo test -q --offline \
        -p ftspm-harness --test fastpath_differential
done
$FASTPATH_TIMEOUT cargo test -q --offline --release \
    -p ftspm-bench --test armed_idle_guard -- --ignored

# Multi-core gate (DESIGN.md §16). The three batteries, re-pinned at a
# 1-thread and an nproc-sized executor — host threads only shard
# campaign cells, so everything must be byte-identical at both:
#
# 1. Litmus: SWMR / data-value / no-lost-invalidation invariants under
#    the persisted-seed property runner, plus the named
#    message-passing and store-buffering shapes.
# 2. 1-core differential: `MultiMachine` with cores=1 byte-identical
#    to the plain `Machine` across kernel × scheme × fault mode
#    (FTSPM_DIFF_KERNELS smoke mode keeps the stage timeout-bounded;
#    the full matrix already ran under the workspace sweep above).
# 3. Shared-block propagation: strikes in shared blocks counted once /
#    observed by every sharer, coherent quarantine/remap, fast path ≡
#    reference path on multi-core campaigns.
MULTICORE_TIMEOUT=""
if command -v timeout >/dev/null 2>&1; then
    MULTICORE_TIMEOUT="timeout 600"
fi
for threads in 1 "$(nproc)"; do
    FTSPM_THREADS="$threads" FTSPM_DIFF_KERNELS=4 $MULTICORE_TIMEOUT \
        cargo test -q --offline \
        -p ftspm-sim --test coherence_litmus \
        -p ftspm-harness --test multicore_differential \
        -p ftspm-faults --test shared_block_propagation
done

# The multicore bench case must land its JSON artifact (the hub's cost
# is tracked, not guessed).
$MULTICORE_TIMEOUT cargo bench -q --offline -p ftspm-bench --bench multicore
test -s results/BENCH_multicore.json

# Committed-artifact gate: `repro all` stdout must equal the committed
# results/repro_all.txt byte for byte. The output is thread-count
# invariant (pinned by repro_determinism above), so one run suffices; it
# runs in a temp dir so the CSVs it writes cannot touch results/.
ARTIFACT_DIR="$(mktemp -d)"
(cd "$ARTIFACT_DIR" && "$REPRO" all > stdout.txt)
cmp "$ARTIFACT_DIR/stdout.txt" results/repro_all.txt
rm -rf "$ARTIFACT_DIR"

# Benchmark gate: the benchmark package's own tests, then one short
# paper_suite run from the repo root. The run exits 1 if the suite CSV
# drifts by one byte from results/suite.csv or if the split
# profile/MDA/run pipeline disagrees with evaluate_workload.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload paper_suite --seed 0 --seconds 1 --trace 0 > /dev/null

# Doc gate: the public API is documented; rustdoc warnings (broken
# intra-doc links, missing docs on re-exports) fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Lint gate: -D warnings keeps the tree clippy-clean. Toolchains without
# the clippy component skip it rather than failing the whole gate.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "ci.sh: cargo clippy unavailable, skipping lint gate" >&2
fi
