//! `M3XU_FAULT_SEED` / `M3XU_FAULT_RATE` arming, in its own test binary:
//! the env mutation below must not race other tests constructing contexts,
//! and integration-test binaries are separate processes, so this file
//! holds exactly one test.
//!
//! (`scripts/check.sh` additionally runs the whole `chaos_faults` suite
//! under an env seed grid, which exercises env-armed *process-wide*
//! contexts; this test pins the per-context resolution semantics.)

use m3xu::kernels::gemm::{self, GemmPrecision};
use m3xu::kernels::{Blas3Call, M3xuContext};
use m3xu::Matrix;

#[test]
fn env_armed_context_recovers_bit_identically() {
    // Before arming: contexts resolve no plan.
    std::env::remove_var("M3XU_FAULT_SEED");
    std::env::remove_var("M3XU_FAULT_RATE");
    assert!(M3xuContext::with_threads(2).fault_plan().is_none());

    std::env::set_var("M3XU_FAULT_SEED", "5");
    std::env::set_var("M3XU_FAULT_RATE", "0.05");
    let ctx = M3xuContext::with_threads(2);
    std::env::remove_var("M3XU_FAULT_SEED");
    std::env::remove_var("M3XU_FAULT_RATE");
    assert!(
        ctx.fault_plan().is_some(),
        "env arming resolves at context construction"
    );

    let a = Matrix::<f32>::random(33, 17, 1);
    let b = Matrix::<f32>::random(17, 29, 2);
    let c = Matrix::<f32>::random(33, 29, 3);
    let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
    let mut detected = 0;
    for _ in 0..8 {
        let (r, summary) = ctx
            .run(&Blas3Call::gemm(&a, &b, &c).with_precision(GemmPrecision::M3xuFp32))
            .expect("recoverable at 5%");
        for (x, y) in r.d.as_slice().iter().zip(want.d.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(summary.detected, summary.corrected);
        detected += summary.detected;
    }
    assert!(detected > 0, "the 5% plan must fire across 8 runs");
    let stats = ctx.stats();
    assert_eq!(stats.faults_detected, detected);
    assert_eq!(stats.faults_corrected, detected);

    // A context constructed after the vars were removed is unarmed again.
    assert!(M3xuContext::with_threads(2).fault_plan().is_none());

    // Invalid rates must *disarm* (with a one-time warning), never
    // silently clamp into an armed plan: a NaN, a negative, an
    // out-of-range probability, or garbage all leave the context
    // unarmed. (Same test function: env mutation must stay serial.)
    for bad in ["NaN", "-0.5", "1.5", "inf", "bogus"] {
        std::env::set_var("M3XU_FAULT_SEED", "5");
        std::env::set_var("M3XU_FAULT_RATE", bad);
        let ctx = M3xuContext::with_threads(1);
        assert!(
            ctx.fault_plan().is_none(),
            "M3XU_FAULT_RATE={bad:?} must disarm, not clamp"
        );
    }
    // A valid rate with the same seed still arms — the disarm above was
    // the rate's doing, not a stuck state.
    std::env::set_var("M3XU_FAULT_RATE", "0.5");
    assert!(M3xuContext::with_threads(1).fault_plan().is_some());
    std::env::remove_var("M3XU_FAULT_SEED");
    std::env::remove_var("M3XU_FAULT_RATE");
    assert!(M3xuContext::with_threads(1).fault_plan().is_none());
}
