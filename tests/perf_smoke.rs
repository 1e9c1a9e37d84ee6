//! Release-build performance smoke gate for the SIMD fragment pipeline.
//!
//! Opt-in: runs only with `M3XU_PERF_GATE=1` (and never in debug builds,
//! where the floors are meaningless). The floors are set far below the
//! measured release numbers — 256³ M3XU-FP32 runs ~6.5x faster than the
//! forced-scalar packed path on the reference AVX2 host, and 256³ Fp32Fast
//! 4.5–5.1x on a 2-CPU AVX2 host — so only a real regression (or a
//! Scalar-only host, which the gate skips) trips them.

use std::time::Instant;

use m3xu::kernels::gemm::{self, GemmPrecision};
use m3xu::mxu::packed::simd::{self, SimdLevel};
use m3xu::Matrix;

#[test]
fn simd_pipeline_beats_scalar_floor() {
    if std::env::var("M3XU_PERF_GATE").map(|v| v == "1") != Ok(true) {
        eprintln!("skipped: set M3XU_PERF_GATE=1 to run the perf smoke gate");
        return;
    }
    if cfg!(debug_assertions) {
        eprintln!("skipped: perf smoke gate only measures release builds");
        return;
    }
    let entry = simd::level();
    if entry == SimdLevel::Scalar {
        eprintln!("skipped: host resolves to the scalar path; nothing to gate");
        return;
    }

    let n = 256;
    let a = Matrix::<f32>::random(n, n, 0x51);
    let b = Matrix::<f32>::random(n, n, 0x52);
    let c = Matrix::<f32>::zeros(n, n);
    // Best-of-2 per path to shave scheduler noise.
    let best = |reps: usize, f: &dyn Fn()| {
        let mut best = f64::MAX;
        for _ in 0..reps {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    // Same-run scalar/SIMD wall-time ratio of one 256³ GEMM.
    let speedup = |precision: GemmPrecision| {
        let run = || {
            std::hint::black_box(gemm::gemm_f32(precision, &a, &b, &c));
        };
        let simd_s = best(2, &run);
        simd::set_level(SimdLevel::Scalar);
        let scalar_s = best(2, &run);
        simd::set_level(entry);
        eprintln!(
            "perf smoke: {n}^3 {precision:?} scalar {:.0} ms, simd {:.0} ms, speedup {:.2}x at {entry:?}",
            scalar_s * 1e3,
            simd_s * 1e3,
            scalar_s / simd_s
        );
        scalar_s / simd_s
    };

    // Floor at 3x: measured ~6.5x on the reference host; anything under
    // 3x means the vector pipeline effectively stopped working.
    let exact = speedup(GemmPrecision::M3xuFp32);
    assert!(
        exact >= 3.0,
        "SIMD pipeline speedup {exact:.2}x fell below the 3x floor at {entry:?}"
    );
    // The truncated fast schedule runs on the same row kernels (lanes
    // `a·b − a_lo·b_lo`). Floor at 2x: measured 4.5–5.1x on a 2-CPU AVX2
    // host; a ratio near 1x means fast mode fell back to the scalar
    // schedule.
    let fast = speedup(GemmPrecision::Fp32Fast);
    assert!(
        fast >= 2.0,
        "Fp32Fast SIMD speedup {fast:.2}x fell below the 2x floor at {entry:?}"
    );
}
