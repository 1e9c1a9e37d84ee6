#!/usr/bin/env bash
# Repo gate: formatting, lints, and the full test suite.
#
# Usage:
#   scripts/check.sh              # full gate (fmt, clippy, doc, tests)
#   M3XU_SOAK=1 scripts/check.sh  # + release soak of the differential and
#                                 #   stress suites with a longer shape sweep
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Every package's suites, not just the root package's: the crate-level
# unit and integration tests (m3xu-mxu's checked-panel residue and fault
# detection at every SIMD level, SIMD-panel parity, m3xu-kernels'
# robustness, m3xu-serve's service tests) gate too.
echo "== cargo test --workspace -q"
cargo test --workspace -q

echo "== cargo test --workspace --release -q"
cargo test --workspace --release -q

# Sanitizer gate: the `unsafe` SIMD panel kernels, `SendPtr` tile stores
# and worker pool under AddressSanitizer. Nightly-only; doctests are left
# out because they fail to link under ASan.
echo "== AddressSanitizer: m3xu-mxu + m3xu-kernels lib and integration tests (nightly)"
if cargo +nightly --version >/dev/null 2>&1; then
    RUSTFLAGS=-Zsanitizer=address cargo +nightly test --target x86_64-unknown-linux-gnu \
        -p m3xu-mxu -p m3xu-kernels --lib --tests
else
    echo "SKIPPED: AddressSanitizer step (cargo +nightly unavailable)"
fi

echo "== cross-validation: functional ExecStats vs analytical model (release)"
cargo test --release -q --test cross_validation

# SIMD gate: the parity and differential suites with the vector pipeline
# at the auto-detected level and forced off (`M3XU_SIMD=0`, the scalar
# oracle standing alone). The level is resolved once per process, hence
# one cargo invocation per setting.
for simd in 1 0; do
    echo "== SIMD parity + differential suites under M3XU_SIMD=${simd}"
    M3XU_SIMD=${simd} cargo test -q \
        --test simd_parity --test simd_env --test differential_props
    echo "== BLAS-3 differential suite under M3XU_SIMD=${simd}"
    M3XU_SIMD=${simd} M3XU_PROP_CASES=4 cargo test -q \
        --test blas3_differential
done

# Perf smoke gate (release): proves the vector path is engaged and still
# clears a conservative speedup floor over the forced-scalar packed path.
echo "== release perf smoke gate (M3XU_PERF_GATE=1)"
M3XU_PERF_GATE=1 cargo test --release -q --test perf_smoke -- --nocapture

# The differential property suite and the concurrency stress tests must
# hold regardless of how the process-wide pool is sized, so run them at
# both ends of the thread-count range (M3XU_THREADS is resolved once per
# process, hence one cargo invocation per setting).
for threads in 1 8; do
    echo "== differential + stress suites under M3XU_THREADS=${threads}"
    M3XU_THREADS=${threads} cargo test -q \
        --test differential_props --test cross_validation
    echo "== BLAS-3 differential suite under M3XU_THREADS=${threads}"
    M3XU_THREADS=${threads} M3XU_PROP_CASES=4 cargo test -q \
        --test blas3_differential
done

# Chaos gate: the fault-injection suite, debug and release. The first
# run (no env arming) includes the zero-fault differential gate, the
# universal-ABFT BLAS-3/f64 sweeps, and the shard self-healing tests
# (watchdog kill + poison quarantine); the seed x rate grid then re-runs
# the whole suite with every process-wide context armed — recoverable by
# construction, so everything must still be bit-identical.
for profile in "" "--release"; do
    echo "== chaos suite ${profile:-debug} (zero-fault gate + armed sweeps)"
    cargo test -q ${profile} --test chaos_faults --test chaos_env --test serve_edge
    echo "== universal-ABFT gate ${profile:-debug} (BLAS-3/f64 sweeps + self-healing, named)"
    cargo test -q ${profile} --test chaos_faults -- \
        armed_blas3_and_f64_sweep_recovers_bit_identically \
        serve_blas3_chaos_single_shard_reconciles \
        serve_blas3_chaos_four_shards_reconcile \
        watchdog_respawns_a_killed_shard_and_conserves_accounting \
        poison_request_quarantines_alone_without_tripping_the_breaker
    for seed in 1 7 23; do
        for rate in 1e-3 2e-2; do
            echo "== chaos suite ${profile:-debug} under M3XU_FAULT_SEED=${seed} M3XU_FAULT_RATE=${rate}"
            M3XU_FAULT_SEED=${seed} M3XU_FAULT_RATE=${rate} cargo test -q ${profile} \
                --test chaos_faults
        done
    done
done

# Serve gate: the serve edge + regression suites at shard counts 1 and 4
# (M3XU_SERVE_SHARDS is resolved per process), then a fresh small-mode
# run of the serve benchmark — the regenerated headline wall_speedup must
# not fall below 1.0 (the adaptive-batching regression this gate pins).
for shards in 1 4; do
    echo "== serve suites under M3XU_SERVE_SHARDS=${shards}"
    M3XU_SERVE_SHARDS=${shards} cargo test -q \
        --test serve_edge --test serve_regressions
done
echo "== serve bench headline gate (M3XU_BENCH_SERVE_SMALL=1)"
M3XU_BENCH_SERVE_SMALL=1 cargo run --release -q -p m3xu-bench --bin bench_serve
awk '
    /"wall_speedup"/ && !found {
        found = 1
        v = $0
        gsub(/.*"wall_speedup": */, "", v)
        gsub(/[,} ].*/, "", v)
        if (v + 0 < 1.0) {
            printf "FAIL: serve headline wall_speedup %s < 1.0\n", v
            exit 1
        }
        printf "serve headline wall_speedup %s >= 1.0\n", v
    }
    END { if (!found) { print "FAIL: no wall_speedup in results/BENCH_serve.json"; exit 1 } }
' results/BENCH_serve.json

# Precision gate (release): the emulated-FP64 engine must stay inside
# its documented ULP envelope versus a sequential correctly-rounded
# softfloat FMA reference. The envelope is pinned at zero ULPs
# (bit-exact) in tests/differential_props.rs — any rounding regression
# in the slice/Kulisch pipeline trips this test before anything else.
# (The serve-side precision dial is covered by serve_regressions above,
# which the shard loop already runs at both shard counts.)
echo "== precision gate: emulated FP64 vs softfloat FMA reference (release)"
cargo test --release -q --test differential_props \
    fp64_emulated_matches_softfloat_fma_reference_within_envelope -- --exact

# BLAS-3 rank-k gate (release): SYRK/HERK must schedule exactly the
# T(T+1)/2 triangle of the T^2 output-tile grid — the executed counts
# match exact_counts_rank_k field-for-field, the instruction ratio
# clears its flop-saving floor, and in-triangle bits equal the full
# rank-k op-GEMM's.
echo "== BLAS-3 rank-k flop-saving gate (release)"
cargo test --release -q --test cross_validation \
    rank_k_updates_match_analytical_counts_and_halve_the_grid_executed -- --exact

# Soak mode: the same suites in release with a much longer random-shape
# sweep. Slow by design; not part of the default gate.
if [[ "${M3XU_SOAK:-0}" == "1" ]]; then
    for threads in 1 8; do
        echo "== SOAK: release, M3XU_PROP_CASES=200, M3XU_THREADS=${threads}"
        M3XU_THREADS=${threads} M3XU_PROP_CASES=200 cargo test --release -q \
            --test differential_props --test cross_validation \
            --test blas3_differential
    done
fi

echo "== OK"
