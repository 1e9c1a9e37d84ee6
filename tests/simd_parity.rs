//! SIMD ≡ scalar differential parity: the packed pipeline must produce
//! **bit-identical** output at every dispatch level the host supports —
//! `Scalar` (the oracle path), `Sse2`, and `Avx2` — across awkward
//! shapes, all five precisions, and operand payloads full of specials
//! (NaN, ±Inf, ±0, subnormals) that force the per-element-chunk
//! fallback.
//!
//! Armed ABFT runs are held to the same standard: the fault schedule,
//! detection counters and recovered bits do not depend on the level.
//!
//! The dispatch level is a process-wide atomic, so every test that
//! flips it serializes on [`LEVEL_LOCK`] and restores the entry level
//! before releasing it.

use std::sync::{Arc, Mutex};

use m3xu::kernels::gemm::{self, baseline, GemmPrecision};
use m3xu::kernels::{Blas3Call, FaultPlan, FaultyExecutor, M3xuContext};
use m3xu::mxu::packed::simd::{self, SimdLevel};
use m3xu::{M3xuError, MatOp, Matrix, Side, Triangle, C32};

/// Serializes tests that override the process-wide dispatch level.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Every level the host can actually run (always includes `Scalar`).
fn host_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    for lvl in [SimdLevel::Sse2, SimdLevel::Avx2] {
        simd::set_level(lvl);
        if simd::level() == lvl {
            levels.push(lvl);
        }
    }
    levels
}

fn assert_bits_f32(got: &Matrix<f32>, want: &Matrix<f32>, what: &str) {
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            assert_eq!(
                got.get(i, j).to_bits(),
                want.get(i, j).to_bits(),
                "{what}: ({i},{j}) {} vs {}",
                got.get(i, j),
                want.get(i, j),
            );
        }
    }
}

fn assert_bits_c32(got: &Matrix<C32>, want: &Matrix<C32>, what: &str) {
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            let (g, w) = (got.get(i, j), want.get(i, j));
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits()),
                "{what}: ({i},{j})"
            );
        }
    }
}

/// Shapes chosen against the kernel's geometry: unit and zero edges,
/// primes, k below/straddling the fragment depth, and n off the 8-wide
/// row kernel.
const SHAPES: [(usize, usize, usize); 10] = [
    (1, 1, 1),
    (0, 5, 3),
    (3, 0, 4),
    (5, 7, 0),
    (1, 9, 2),
    (7, 11, 13),
    (8, 8, 3),
    (13, 17, 19),
    (9, 23, 31),
    (16, 15, 129),
];

/// Special payloads that must trip the fallback without breaking parity.
const SPECIALS: [f32; 10] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    1.0e-44, // subnormal
    -f32::MIN_POSITIVE,
    f32::MAX,
    -1.0e-38,
    2.5,
];

#[test]
fn gemm_bitwise_identical_across_levels_and_shapes() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    for (case, &(m, n, k)) in SHAPES.iter().enumerate() {
        let a = Matrix::<f32>::random(m, k, 0x5EED + case as u64);
        let b = Matrix::<f32>::random(k, n, 0xB0B + case as u64);
        let c = Matrix::<f32>::random(m, n, 0xACC + case as u64);
        for precision in [
            GemmPrecision::M3xuFp32,
            GemmPrecision::Tf32,
            GemmPrecision::Fp16,
            GemmPrecision::Bf16,
        ] {
            let want = baseline::gemm_f32(precision, &a, &b, &c);
            for &lvl in &levels {
                simd::set_level(lvl);
                let got = gemm::gemm_f32(precision, &a, &b, &c);
                assert_bits_f32(
                    &got.d,
                    &want.d,
                    &format!("{precision:?} {m}x{n}x{k} at {lvl:?}"),
                );
            }
        }
    }
    simd::set_level(entry);
}

#[test]
fn cgemm_bitwise_identical_across_levels_and_shapes() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    for (case, &(m, n, k)) in SHAPES.iter().enumerate() {
        let a = Matrix::random_c32(m, k, 0xC5EED + case as u64);
        let b = Matrix::random_c32(k, n, 0xCB0B + case as u64);
        let c = Matrix::random_c32(m, n, 0xCACC + case as u64);
        let want = baseline::cgemm_c32(&a, &b, &c);
        for &lvl in &levels {
            simd::set_level(lvl);
            let got = gemm::cgemm_c32(&a, &b, &c);
            assert_bits_c32(&got.d, &want.d, &format!("c32 {m}x{n}x{k} at {lvl:?}"));
        }
    }
    simd::set_level(entry);
}

#[test]
fn specials_and_subnormals_force_identical_fallbacks() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    let a = Matrix::from_fn(13, 9, |i, j| SPECIALS[(i * 7 + j) % SPECIALS.len()]);
    let b = Matrix::from_fn(9, 17, |i, j| SPECIALS[(i + j * 3) % SPECIALS.len()]);
    let c = Matrix::from_fn(13, 17, |i, j| SPECIALS[(i + j) % SPECIALS.len()]);
    for precision in [GemmPrecision::M3xuFp32, GemmPrecision::Tf32] {
        let want = baseline::gemm_f32(precision, &a, &b, &c);
        for &lvl in &levels {
            simd::set_level(lvl);
            let got = gemm::gemm_f32(precision, &a, &b, &c);
            assert_bits_f32(
                &got.d,
                &want.d,
                &format!("{precision:?} specials at {lvl:?}"),
            );
        }
    }
    let ca = Matrix::from_fn(9, 6, |i, j| {
        C32::new(
            SPECIALS[(i + j) % SPECIALS.len()],
            SPECIALS[(i * 3 + j) % SPECIALS.len()],
        )
    });
    let cb = Matrix::from_fn(6, 11, |i, j| {
        C32::new(
            SPECIALS[(i * 5 + j) % SPECIALS.len()],
            SPECIALS[(i + 2 * j) % SPECIALS.len()],
        )
    });
    let cc = Matrix::<C32>::zeros(9, 11);
    let want = baseline::cgemm_c32(&ca, &cb, &cc);
    for &lvl in &levels {
        simd::set_level(lvl);
        let got = gemm::cgemm_c32(&ca, &cb, &cc);
        assert_bits_c32(&got.d, &want.d, &format!("c32 specials at {lvl:?}"));
    }
    simd::set_level(entry);
}

/// Exponent spreads wider than the SIMD window (`~2^70`) must abort to
/// the scalar oracle per element-chunk — mix tiny and huge magnitudes so
/// both the spread abort and the in-window path occur within one GEMM.
#[test]
fn wide_exponent_spreads_stay_bitwise_identical() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    let mags = [1.0e30f32, 1.0e-30, 3.0, 1.0e20, 5.0e-39, -2.0e25, 1.0e-10];
    let a = Matrix::from_fn(11, 14, |i, j| mags[(i * 5 + j) % mags.len()]);
    let b = Matrix::from_fn(14, 10, |i, j| mags[(i + j * 7) % mags.len()]);
    let c = Matrix::<f32>::zeros(11, 10);
    let want = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
    for &lvl in &levels {
        simd::set_level(lvl);
        let got = gemm::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_bits_f32(&got.d, &want.d, &format!("wide spread at {lvl:?}"));
    }
    simd::set_level(entry);
}

/// FNV-1a over a stream of output bit patterns.
fn fingerprint(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One armed call's outcome: the output fingerprint (0 for a typed
/// fault error) and its `(detected, corrected, retries)`.
type Outcome = (u64, (u64, u64, u64));

fn outcome<T: Copy + Default>(
    r: Result<(gemm::GemmResult<T>, m3xu::kernels::FaultSummary), M3xuError>,
    bits: impl Fn(&T) -> u64,
) -> Outcome {
    match r {
        Ok((r, s)) => (
            fingerprint(r.d.as_slice().iter().map(&bits)),
            (s.detected, s.corrected, s.retries),
        ),
        Err(M3xuError::FaultDetected {
            detected,
            corrected,
            retries,
            ..
        }) => (0, (detected, corrected, retries)),
        Err(e) => panic!("unexpected error {e}"),
    }
}

/// The armed chaos schedule at one dispatch level: `FaultyExecutor` GEMMs
/// (exact FP32, FP16, the truncated fast schedule, and one payload with
/// NaN/Inf operands so some chunks are unverifiable) plus CGEMM, then
/// SYRK, emulated-FP64 GEMM and the rest of the BLAS-3 surface on an
/// armed context, read through its `ExecStats` fault counters. Every
/// plan is fresh, so the schedule replays identically at each level.
fn armed_schedule() -> Vec<Outcome> {
    let (m, k, n) = (40, 24, 33);
    let a = Matrix::<f32>::random(m, k, 0xFA1);
    let b = Matrix::<f32>::random(k, n, 0xFA2);
    let c = Matrix::<f32>::random(m, n, 0xFA3);
    let mut specials = a.clone();
    for (i, j) in [(0, 0), (9, 5), (17, 13), (31, 22)] {
        specials.set(i, j, SPECIALS[(i + j) % 3]);
    }
    let ctx = M3xuContext::with_threads(2);
    let exec = FaultyExecutor::armed(&ctx, Arc::new(FaultPlan::new(0x5EED, 2e-2)));
    let f32_bits = |x: &f32| x.to_bits() as u64;
    let mut out = Vec::new();
    for p in [
        GemmPrecision::M3xuFp32,
        GemmPrecision::Fp16,
        GemmPrecision::Fp32Fast,
    ] {
        out.push(outcome(
            exec.run(&Blas3Call::gemm(&a, &b, &c).with_precision(p)),
            f32_bits,
        ));
    }
    out.push(outcome(
        exec.run(&Blas3Call::gemm(&specials, &b, &c).with_precision(GemmPrecision::M3xuFp32)),
        f32_bits,
    ));
    let ca = Matrix::random_c32(m, k, 0xFA4);
    let cb = Matrix::random_c32(k, n, 0xFA5);
    let cc = Matrix::random_c32(m, n, 0xFA6);
    out.push(outcome(
        exec.run(&Blas3Call::gemm(&ca, &cb, &cc)),
        |z: &C32| (z.re.to_bits() as u64) << 32 | z.im.to_bits() as u64,
    ));

    let armed = M3xuContext::with_threads(2).with_fault_plan(Arc::new(FaultPlan::new(0xA11, 2e-2)));
    let counters = |ctx: &M3xuContext| {
        let s = ctx.stats();
        (s.faults_detected, s.faults_corrected, s.fault_retries)
    };
    // The BLAS-3 surface on the armed context, one call at a time: the
    // output fingerprint (0 for a typed fault error) and the counters.
    let mut record = |call_fp: u64| {
        out.push((call_fp, counters(&armed)));
        armed.reset_stats();
    };
    let f32_fp = |r: Result<(gemm::GemmResult<f32>, _), M3xuError>| {
        r.map_or(0, |(r, _)| fingerprint(r.d.as_slice().iter().map(f32_bits)))
    };
    let f64_fp = |r: Result<(gemm::GemmResult<f64>, _), M3xuError>| {
        r.map_or(0, |(r, _)| {
            fingerprint(r.d.as_slice().iter().map(|x| x.to_bits()))
        })
    };
    let c32_fp = |r: Result<(gemm::GemmResult<C32>, _), M3xuError>| {
        r.map_or(0, |(r, _)| {
            fingerprint(
                r.d.as_slice()
                    .iter()
                    .map(|z| (z.re.to_bits() as u64) << 32 | z.im.to_bits() as u64),
            )
        })
    };
    let sc = Matrix::<f32>::random(n, n, 0xFA7);
    let bt = b.transpose();
    let syrk = Blas3Call::syrk(Triangle::Lower, MatOp::N, &bt, 0.5, 1.0, &sc);
    record(f32_fp(armed.run(&syrk)));
    let da = Matrix::random_f64(17, 9, 0xFA8);
    let db = Matrix::random_f64(9, 19, 0xFA9);
    let dc = Matrix::random_f64(17, 19, 0xFAA);
    record(f64_fp(armed.run(&Blas3Call::gemm(&da, &db, &dc))));

    // The rest of the surface, appended after the recorded seven.
    let (z_alpha, z_beta) = (C32::new(0.5, -0.25), C32::new(1.0, 0.5));
    let at = a.transpose();
    let call = Blas3Call::gemm_op(MatOp::T, &at, MatOp::N, &b, 0.75, -1.25, &c);
    record(f32_fp(armed.run(&call)));
    let ah = Matrix::random_c32(k, m, 0xFAB);
    let call = Blas3Call::gemm_op(MatOp::H, &ah, MatOp::N, &cb, z_alpha, z_beta, &cc);
    record(c32_fp(armed.run(&call)));
    let dbt = db.transpose();
    let call = Blas3Call::gemm_op(MatOp::N, &da, MatOp::T, &dbt, 0.75, -1.25, &dc);
    record(f64_fp(armed.run(&call)));
    let hc = Matrix::random_c32(m, m, 0xFAC);
    let call = Blas3Call::herk(Triangle::Upper, MatOp::N, &ca, 0.75, -0.5, &hc);
    record(c32_fp(armed.run(&call)));
    let sa = Matrix::<f32>::random(m, m, 0xFAD);
    let sb = Matrix::<f32>::random(m, n, 0xFAE);
    let call = Blas3Call::symm(Side::Left, Triangle::Upper, &sa, &sb, -0.5, 1.25, &c);
    record(f32_fp(armed.run(&call)));
    let sa = Matrix::<f32>::random(n, n, 0xFAF);
    let call = Blas3Call::symm(Side::Right, Triangle::Lower, &sa, &sb, -0.5, 1.25, &c);
    record(f32_fp(armed.run(&call)));
    let ha = Matrix::random_c32(m, m, 0xFB0);
    let hb = Matrix::random_c32(m, n, 0xFB1);
    let call = Blas3Call::hemm(Side::Left, Triangle::Lower, &ha, &hb, z_alpha, z_beta, &cc);
    record(c32_fp(armed.run(&call)));
    out
}

/// [`armed_schedule`]'s outcomes. The first seven were recorded when the
/// checked residues came from a separate scalar checked pipeline that
/// also injected the faults: the fused kernels must reproduce that
/// schedule and detection exactly. The other seven (op-GEMM f32, op-CGEMM
/// `H,N`, op-GEMM f64, HERK, SYMM Left and Right, HEMM) were recorded
/// through the per-op entry points `Blas3Call` replaced.
const ARMED_SCHEDULE_OUTCOMES: [Outcome; 14] = [
    (0x6947_f164_5664_21f0, (4, 4, 4)),
    (0x74e5_8236_51e9_cff1, (1, 1, 1)),
    (0xfac2_b2ec_8769_0bf1, (5, 5, 5)),
    (0x6909_1318_2be6_2c1f, (3, 3, 3)),
    (0x3d02_0faf_4368_adc2, (16, 16, 16)),
    (0x8e92_d554_52a2_b3d3, (6, 6, 6)),
    (0xbe24_36c3_da99_0e54, (2, 2, 2)),
    (0x3c1b_476e_58b0_84f0, (3, 3, 3)),
    (0x62cc_cce3_d3bb_6479, (8, 8, 8)),
    (0x4823_541e_e2a2_1f1d, (0, 0, 0)),
    (0xf247_1d03_fec8_8e28, (5, 5, 5)),
    (0x1d3a_301d_a35e_1898, (12, 12, 12)),
    (0xa404_808c_bb9a_8230, (21, 21, 21)),
    (0x299f_b447_f2dd_74f1, (24, 24, 24)),
];

/// Armed ABFT runs are level-independent: the output bits and the
/// `(detected, corrected, retries)` of every call are identical at every
/// host dispatch level and equal the recorded schedule — relocating where
/// the checked residue comes from or where a fault lands must change
/// neither the fault schedule nor the detection outcome.
#[test]
fn armed_fault_outcomes_identical_across_levels() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    let mut runs = Vec::new();
    for &lvl in &levels {
        simd::set_level(lvl);
        runs.push((lvl, armed_schedule()));
    }
    simd::set_level(entry);
    for (lvl, run) in &runs {
        assert_eq!(run, &ARMED_SCHEDULE_OUTCOMES, "armed outcomes at {lvl:?}");
    }
}
