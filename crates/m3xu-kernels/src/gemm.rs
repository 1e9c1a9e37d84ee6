//! Plain tiled GEMM `D = A·B + C` over the functional M3XU.
//!
//! Real, complex, and emulated-FP64 GEMM share one generic driver —
//! exactly the paper's point that "the programming model … remain\[s\]
//! the same as the existing Tensor Cores". Every entry point here is the
//! instance `op = N`, `alpha = beta = 1`, full output region of the
//! packed BLAS-3 driver in [`crate::blas3`]: operands decode into
//! [`PackedOperand`](m3xu_mxu::packed::PackedOperand) planes once per
//! call, fragments execute in place out of those planes, and the output
//! tiles distribute over the persistent [`WorkerPool`]. An armed
//! [`FaultPlan`] runs the same pipeline — the same panel kernels, which
//! then also emit each chunk's computed checksum — with per-chunk ABFT
//! verification.
//!
//! The original per-tile path is kept alive in [`baseline`] as the
//! differential-test and benchmark reference; the packed driver is
//! bit-identical to it.

use crate::blas3::{self, PackedCall};
use crate::context::{self, M3xuContext};
use crate::pool::WorkerPool;
use m3xu_fp::complex::Complex;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::fault::{FaultPlan, FaultSummary};
use m3xu_mxu::matrix::{MatSource, Matrix};
use m3xu_mxu::mma::MmaStats;
use m3xu_mxu::modes::MxuMode;

/// Validate the `D = alpha·A·B + beta·C` operand shapes shared by every
/// driver (`a` and `b` at their logical, post-op dimensions).
pub(crate) fn validate_gemm_shapes<E, SA, SB>(
    a: &SA,
    b: &SB,
    c: &Matrix<E>,
) -> Result<(), M3xuError>
where
    SA: MatSource<E>,
    SB: MatSource<E>,
{
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if b.rows() != k {
        return Err(M3xuError::ShapeMismatch {
            context: "gemm(B): inner dimensions must agree",
            expected: (k, n),
            got: (b.rows(), n),
        });
    }
    if (c.rows(), c.cols()) != (m, n) {
        return Err(M3xuError::ShapeMismatch {
            context: "gemm(C): C must be m x n",
            expected: (m, n),
            got: (c.rows(), c.cols()),
        });
    }
    Ok(())
}

/// Which GEMM engine/precision the driver runs — the serve API's
/// per-request **precision dial**, from the fastest lossy narrow modes up
/// to emulated FP64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmPrecision {
    /// M3XU true FP32 (bit-exact, 2-step MMAs).
    M3xuFp32,
    /// M3XU fast FP32: the truncated 3-term slice schedule (drops the
    /// lo·lo cross term, 3xTF32-style). Same 2-step issue shape as
    /// [`GemmPrecision::M3xuFp32`] with 25% fewer lane products; the
    /// result is no longer the exactly-rounded dot product.
    Fp32Fast,
    /// Emulated FP64: `f64` operands sliced into five ≤12-bit mantissa
    /// slices, all 25 cross products accumulated exactly, rounded to
    /// `f64` once per fragment chunk. Runs on [`try_gemm_f64`]-family
    /// entry points (the operands are `Matrix<f64>`).
    Fp64Emulated,
    /// TF32 Tensor-Core mode (precision-lossy baseline).
    Tf32,
    /// FP16 inputs (values quantised at the buffers).
    Fp16,
    /// BF16 inputs.
    Bf16,
}

impl GemmPrecision {
    /// Every precision the dial exposes, fastest-narrow to widest.
    pub const ALL: [GemmPrecision; 6] = [
        GemmPrecision::Fp16,
        GemmPrecision::Bf16,
        GemmPrecision::Tf32,
        GemmPrecision::Fp32Fast,
        GemmPrecision::M3xuFp32,
        GemmPrecision::Fp64Emulated,
    ];

    /// The [`MxuMode`] this engine executes in — the key into per-mode
    /// [`ExecStats`](crate::context::ExecStats) counters and the element
    /// width behind the rule-(c) operand-traffic formula.
    pub fn mode(self) -> MxuMode {
        match self {
            GemmPrecision::M3xuFp32 => MxuMode::M3xuFp32,
            GemmPrecision::Fp32Fast => MxuMode::M3xuFp32Fast,
            GemmPrecision::Fp64Emulated => MxuMode::M3xuFp64Emu,
            GemmPrecision::Tf32 => MxuMode::Tf32,
            GemmPrecision::Fp16 => MxuMode::Fp16,
            GemmPrecision::Bf16 => MxuMode::Bf16,
        }
    }

    /// True for the precisions the `f32` GEMM entry points accept; only
    /// [`GemmPrecision::Fp64Emulated`] takes `Matrix<f64>` operands.
    pub fn is_f32(self) -> bool {
        !matches!(self, GemmPrecision::Fp64Emulated)
    }
}

/// Reject an `f32` entry point called with the FP64 precision (or vice
/// versa) with a typed error instead of a packing panic.
pub(crate) fn check_precision(
    precision: GemmPrecision,
    want_f32: bool,
    context: &'static str,
) -> Result<(), M3xuError> {
    if precision.is_f32() != want_f32 {
        return Err(M3xuError::ModeMismatch {
            context,
            got: precision.mode(),
        });
    }
    Ok(())
}

/// Result of a tiled GEMM: the output matrix plus MMA statistics.
#[derive(Debug, Clone)]
pub struct GemmResult<T> {
    /// `D = A·B + C`.
    pub d: Matrix<T>,
    /// Aggregated MMA statistics across all tiles and threads.
    pub stats: MmaStats,
}

/// Number of worker threads the drivers use: `M3XU_THREADS` when set,
/// otherwise the machine's available parallelism — resolved exactly once,
/// at the default context's construction (see
/// [`context::default_context`]).
pub fn workers() -> usize {
    context::default_context().threads()
}

/// Context-attached real GEMM with the invocation's [`FaultSummary`]: the
/// body of [`M3xuContext::try_gemm_f32_faulted`] and of an armed
/// [`FaultyExecutor`](crate::faulty::FaultyExecutor), which passes its
/// own `plan`. Every f32 precision is checkable under a plan: the
/// expected checksums read the packed buffer entries, so quantising
/// narrow engines (FP16/BF16/TF32) and the truncated fast schedule verify
/// exactly alongside true FP32.
pub(crate) fn try_gemm_f32_faulted_ctx(
    ctx: &M3xuContext,
    plan: Option<&FaultPlan>,
    precision: GemmPrecision,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
) -> Result<(GemmResult<f32>, FaultSummary), M3xuError> {
    check_precision(precision, true, "gemm_f32")?;
    blas3::run_on(
        ctx,
        plan,
        PackedCall::gemm("gemm", precision.mode(), a, b, c),
    )
}

/// Context-attached FP32C GEMM with the invocation's [`FaultSummary`];
/// see [`try_gemm_f32_faulted_ctx`].
pub(crate) fn try_cgemm_c32_faulted_ctx(
    ctx: &M3xuContext,
    plan: Option<&FaultPlan>,
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    c: &Matrix<Complex<f32>>,
) -> Result<(GemmResult<Complex<f32>>, FaultSummary), M3xuError> {
    blas3::run_on(
        ctx,
        plan,
        PackedCall::gemm("cgemm", MxuMode::M3xuFp32c, a, b, c),
    )
}

/// Context-attached emulated-FP64 GEMM with the invocation's
/// [`FaultSummary`]. The residue homomorphism extends to every f64
/// dyadic rational, so a checked run's expected side reads the five
/// packed mantissa slices directly.
pub(crate) fn try_gemm_f64_faulted_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &Matrix<f64>,
) -> Result<(GemmResult<f64>, FaultSummary), M3xuError> {
    check_precision(precision, false, "gemm_f64")?;
    blas3::run_on(
        ctx,
        None,
        PackedCall::gemm("gemm_f64", precision.mode(), a, b, c),
    )
}

/// Fallible tiled FP32 GEMM `D = A·B + C` on an explicit worker pool —
/// the entry point for determinism tests and embedders that manage their
/// own pools. Returns [`M3xuError::ShapeMismatch`] on inconsistent
/// operands instead of panicking.
pub fn try_gemm_f32_on(
    pool: &WorkerPool,
    precision: GemmPrecision,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    check_precision(precision, true, "gemm_f32")?;
    let call = PackedCall::gemm("gemm", precision.mode(), a, b, c);
    Ok(blas3::run(pool, None, None, call)?.0)
}

/// Tiled FP32 GEMM `D = A·B + C` on the M3XU (or a baseline mode), using
/// an explicit worker pool. Panics on shape mismatch; see
/// [`try_gemm_f32_on`] for the fallible form.
pub fn gemm_f32_on(
    pool: &WorkerPool,
    precision: GemmPrecision,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
) -> GemmResult<f32> {
    try_gemm_f32_on(pool, precision, a, b, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible tiled FP32 GEMM `D = A·B + C` on the process-wide default
/// context (the call is recorded into its
/// [`ExecStats`](crate::context::ExecStats) counters).
///
/// `a` is `m x k`, `b` is `k x n`, `c` is `m x n`. Any sizes are accepted;
/// edges are zero-padded into fragments exactly like predicated loads.
pub fn try_gemm_f32(
    precision: GemmPrecision,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    context::default_context().try_gemm_f32(precision, a, b, c)
}

/// Tiled FP32 GEMM `D = A·B + C` on the M3XU (or a baseline mode).
///
/// Panics on shape mismatch; see [`try_gemm_f32`] for the fallible form.
pub fn gemm_f32(
    precision: GemmPrecision,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
) -> GemmResult<f32> {
    try_gemm_f32(precision, a, b, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible tiled FP32C GEMM on the M3XU's four-step complex mode, using
/// an explicit worker pool.
pub fn try_cgemm_c32_on(
    pool: &WorkerPool,
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    let call = PackedCall::gemm("cgemm", MxuMode::M3xuFp32c, a, b, c);
    Ok(blas3::run(pool, None, None, call)?.0)
}

/// Tiled FP32C GEMM on the M3XU's four-step complex mode, using an
/// explicit worker pool. Panics on shape mismatch; see
/// [`try_cgemm_c32_on`] for the fallible form.
pub fn cgemm_c32_on(
    pool: &WorkerPool,
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    c: &Matrix<Complex<f32>>,
) -> GemmResult<Complex<f32>> {
    try_cgemm_c32_on(pool, a, b, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible tiled FP32C GEMM on the process-wide default context (the
/// call is recorded into its counters).
pub fn try_cgemm_c32(
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    context::default_context().try_cgemm_c32(a, b, c)
}

/// Tiled FP32C GEMM on the M3XU's four-step complex mode.
///
/// Panics on shape mismatch; see [`try_cgemm_c32`] for the fallible form.
pub fn cgemm_c32(
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    c: &Matrix<Complex<f32>>,
) -> GemmResult<Complex<f32>> {
    try_cgemm_c32(a, b, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible convenience: `A·B` with a zero C.
pub fn try_matmul_f32(
    precision: GemmPrecision,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
) -> Result<Matrix<f32>, M3xuError> {
    let c = Matrix::zeros(a.rows(), b.cols());
    Ok(try_gemm_f32(precision, a, b, &c)?.d)
}

/// Convenience: `A·B` with a zero C. Panics on shape mismatch; see
/// [`try_matmul_f32`] for the fallible form.
pub fn matmul_f32(precision: GemmPrecision, a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
    try_matmul_f32(precision, a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible tiled emulated-FP64 GEMM `D = A·B + C` on an explicit worker
/// pool. Only [`GemmPrecision::Fp64Emulated`] is accepted — every other
/// precision returns [`M3xuError::ModeMismatch`] (the `f64` operands have
/// no decode path on the f32 engines).
pub fn try_gemm_f64_on(
    pool: &WorkerPool,
    precision: GemmPrecision,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &Matrix<f64>,
) -> Result<GemmResult<f64>, M3xuError> {
    check_precision(precision, false, "gemm_f64")?;
    let call = PackedCall::gemm("gemm_f64", precision.mode(), a, b, c);
    Ok(blas3::run(pool, None, None, call)?.0)
}

/// Tiled emulated-FP64 GEMM `D = A·B + C` using an explicit worker pool.
/// Panics on shape or precision mismatch; see [`try_gemm_f64_on`] for the
/// fallible form.
pub fn gemm_f64_on(
    pool: &WorkerPool,
    precision: GemmPrecision,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &Matrix<f64>,
) -> GemmResult<f64> {
    try_gemm_f64_on(pool, precision, a, b, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible tiled emulated-FP64 GEMM `D = A·B + C` on the process-wide
/// default context (the call is recorded into its
/// [`ExecStats`](crate::context::ExecStats) counters).
pub fn try_gemm_f64(
    precision: GemmPrecision,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &Matrix<f64>,
) -> Result<GemmResult<f64>, M3xuError> {
    context::default_context().try_gemm_f64(precision, a, b, c)
}

/// Tiled emulated-FP64 GEMM `D = A·B + C`.
///
/// Panics on shape or precision mismatch; see [`try_gemm_f64`] for the
/// fallible form.
pub fn gemm_f64(
    precision: GemmPrecision,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &Matrix<f64>,
) -> GemmResult<f64> {
    try_gemm_f64(precision, a, b, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible convenience: emulated-FP64 `A·B` with a zero C.
pub fn try_matmul_f64(a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>, M3xuError> {
    let c = Matrix::zeros(a.rows(), b.cols());
    Ok(try_gemm_f64(GemmPrecision::Fp64Emulated, a, b, &c)?.d)
}

/// Convenience: emulated-FP64 `A·B` with a zero C. Panics on shape
/// mismatch; see [`try_matmul_f64`] for the fallible form.
pub fn matmul_f64(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    try_matmul_f64(a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible convenience: complex `A·B` with a zero C.
pub fn try_cmatmul_c32(
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
) -> Result<Matrix<Complex<f32>>, M3xuError> {
    let c = Matrix::zeros(a.rows(), b.cols());
    Ok(try_cgemm_c32(a, b, &c)?.d)
}

/// Convenience: complex `A·B` with a zero C. Panics on shape mismatch;
/// see [`try_cmatmul_c32`] for the fallible form.
pub fn cmatmul_c32(a: &Matrix<Complex<f32>>, b: &Matrix<Complex<f32>>) -> Matrix<Complex<f32>> {
    try_cmatmul_c32(a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// The original per-tile drivers: copy each fragment tile, re-decode it
/// through the [`Mxu`](m3xu_mxu::unit::Mxu) entry points, spawn a scoped
/// thread team per call. Kept as the differential-test oracle and the
/// benchmark baseline; the packed drivers above are bit-identical to it.
pub mod baseline {
    use super::{GemmPrecision, GemmResult};
    use m3xu_fp::complex::Complex;
    use m3xu_mxu::matrix::Matrix;
    use m3xu_mxu::mma::{MmaShape, MmaStats};
    use m3xu_mxu::modes::MxuMode;
    use m3xu_mxu::unit::{Mxu, MxuConfig};

    /// Per-thread partial result: owned output row-stripes plus counters.
    type StripeResult<T> = (Vec<(usize, Matrix<T>)>, MmaStats);

    fn workers() -> usize {
        super::workers().min(8)
    }

    /// The one generic row-stripe driver behind both baseline entry
    /// points: shard output row-stripes over scoped threads, accumulate
    /// each tile's `K` loop through the per-fragment `mma` dispatch.
    /// Real and complex GEMM differ only in that closure.
    fn stripe_gemm<T, F>(
        mode: MxuMode,
        a: &Matrix<T>,
        b: &Matrix<T>,
        c: &Matrix<T>,
        mma: F,
    ) -> GemmResult<T>
    where
        T: Copy + Default + Send + Sync,
        F: Fn(&mut Mxu, &Matrix<T>, &Matrix<T>, &Matrix<T>) -> Matrix<T> + Sync,
    {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        super::validate_gemm_shapes(a, b, c).unwrap_or_else(|e| panic!("{e}"));

        let frag = MmaShape::BASELINE_FP16.for_mode(mode);
        let row_tiles: Vec<usize> = (0..m).step_by(frag.m).collect();
        let mut d = Matrix::<T>::zeros(m, n);
        let mut total = MmaStats::default();

        // Shard output row-stripes across threads; each thread owns a
        // disjoint set of output rows, so the writes below never alias.
        let nw = workers().min(row_tiles.len().max(1));
        let chunks: Vec<&[usize]> = row_tiles
            .chunks(row_tiles.len().div_ceil(nw.max(1)).max(1))
            .collect();

        let mma = &mma;
        let results: Vec<StripeResult<T>> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    s.spawn(move || {
                        let mut mxu = Mxu::new(MxuConfig::default());
                        let mut out = Vec::new();
                        for &i0 in chunk.iter() {
                            let mut stripe = Matrix::<T>::zeros(frag.m, n);
                            for j0 in (0..n).step_by(frag.n) {
                                // Accumulate over K in fragment steps.
                                let mut acc = c.tile(i0, j0, frag.m, frag.n);
                                for k0 in (0..k).step_by(frag.k) {
                                    let at = a.tile(i0, k0, frag.m, frag.k);
                                    let bt = b.tile(k0, j0, frag.k, frag.n);
                                    acc = mma(&mut mxu, &at, &bt, &acc);
                                }
                                stripe.store_tile(0, j0, &acc);
                            }
                            out.push((i0, stripe));
                        }
                        let stats = mxu.counters.for_mode(mode);
                        (out, stats)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (stripes, stats) in results {
            total.merge(&stats);
            for (i0, stripe) in stripes {
                d.store_tile(i0, 0, &stripe);
            }
        }
        GemmResult { d, stats: total }
    }

    /// The seed tiled FP32 GEMM: row-stripe sharding over scoped threads.
    pub fn gemm_f32(
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> GemmResult<f32> {
        stripe_gemm(
            precision.mode(),
            a,
            b,
            c,
            move |mxu, at, bt, acc| match precision {
                GemmPrecision::M3xuFp32 => mxu.mma_fp32(at, bt, acc),
                GemmPrecision::Tf32 => mxu.mma_tf32(at, bt, acc),
                GemmPrecision::Fp16 => mxu.mma_fp16(at, bt, acc),
                GemmPrecision::Bf16 => mxu.mma_bf16(at, bt, acc),
                GemmPrecision::Fp32Fast | GemmPrecision::Fp64Emulated => panic!(
                    "no baseline tile executor for {:?}; the packed driver is \
                     the only engine for this precision",
                    precision
                ),
            },
        )
    }

    /// The seed tiled FP32C CGEMM.
    pub fn cgemm_c32(
        a: &Matrix<Complex<f32>>,
        b: &Matrix<Complex<f32>>,
        c: &Matrix<Complex<f32>>,
    ) -> GemmResult<Complex<f32>> {
        stripe_gemm(MxuMode::M3xuFp32c, a, b, c, |mxu, at, bt, acc| {
            mxu.mma_fp32c(at, bt, acc)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3xu_fp::ulp::ErrorStats;

    /// Per-fragment exact-accumulation reference with the same K-chunking
    /// order as the driver (round once per fragment).
    fn fragment_reference(
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
        frag_k: usize,
    ) -> Matrix<f32> {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = c.get(i, j);
            for k0 in (0..a.cols()).step_by(frag_k) {
                let mut kul = m3xu_fp::Kulisch::new();
                kul.add_f64(acc as f64);
                for kk in k0..(k0 + frag_k).min(a.cols()) {
                    kul.add_product_f32(a.get(i, kk), b.get(kk, j));
                }
                acc = kul.to_f32();
            }
            acc
        })
    }

    /// Per-fragment truncated-schedule reference for
    /// [`GemmPrecision::Fp32Fast`]: the 12+12 slice split with the lo·lo
    /// cross term dropped, accumulated exactly per K-chunk.
    fn fast_fragment_reference(
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
        frag_k: usize,
    ) -> Matrix<f32> {
        let cfg = m3xu_fp::split::FP32_SLICES_EXACT;
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = c.get(i, j);
            for k0 in (0..a.cols()).step_by(frag_k) {
                let mut kul = m3xu_fp::Kulisch::new();
                kul.add_f64(acc as f64);
                for kk in k0..(k0 + frag_k).min(a.cols()) {
                    let sa = cfg.split_f32(a.get(i, kk));
                    let sb = cfg.split_f32(b.get(kk, j));
                    kul.add_product_f64(sa.get(0), sb.get(0));
                    kul.add_product_f64(sa.get(0), sb.get(1));
                    kul.add_product_f64(sa.get(1), sb.get(0));
                }
                acc = kul.to_f32();
            }
            acc
        })
    }

    /// Per-fragment exact reference for [`GemmPrecision::Fp64Emulated`]:
    /// all 25 slice cross products of the 5-slice `f64` split, rounded to
    /// `f64` once per K-chunk.
    fn f64_fragment_reference(
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        c: &Matrix<f64>,
        frag_k: usize,
    ) -> Matrix<f64> {
        let cfg = m3xu_fp::split::FP64_SLICES_EMULATED;
        let n = cfg.slices() as usize;
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = c.get(i, j);
            for k0 in (0..a.cols()).step_by(frag_k) {
                let mut kul = m3xu_fp::Kulisch::new();
                kul.add_f64(acc);
                for kk in k0..(k0 + frag_k).min(a.cols()) {
                    let sa = cfg.split_f64(a.get(i, kk));
                    let sb = cfg.split_f64(b.get(kk, j));
                    for si in 0..n {
                        for sj in 0..n {
                            kul.add_product_f64(sa.get(si), sb.get(sj));
                        }
                    }
                }
                acc = kul.to_f64();
            }
            acc
        })
    }

    #[test]
    fn fp32_fast_gemm_bit_exact_vs_truncated_fragment_reference() {
        let a = Matrix::<f32>::random(37, 19, 11);
        let b = Matrix::<f32>::random(19, 23, 12);
        let c = Matrix::<f32>::random(37, 23, 13);
        let r = gemm_f32(GemmPrecision::Fp32Fast, &a, &b, &c);
        let expect = fast_fragment_reference(&a, &b, &c, 2);
        assert_eq!(r.d, expect);
        // The truncation is real: the fast engine must not silently run
        // the full 4-term schedule.
        let exact = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_ne!(r.d, exact.d);
    }

    #[test]
    fn fp64_emulated_gemm_bit_exact_vs_fragment_reference() {
        let a = Matrix::<f64>::random_f64(37, 19, 21);
        let b = Matrix::<f64>::random_f64(19, 23, 22);
        let c = Matrix::<f64>::random_f64(37, 23, 23);
        let r = gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c);
        let expect = f64_fragment_reference(&a, &b, &c, 1);
        assert_eq!(r.d, expect);
    }

    #[test]
    fn fp64_emulated_identity_passthrough() {
        let a = Matrix::<f64>::random_f64(16, 16, 31);
        let i = Matrix::<f64>::identity_f64(16);
        let d = matmul_f64(&a, &i);
        assert_eq!(d, a);
    }

    #[test]
    fn precision_guards_reject_mismatched_element_types() {
        let a32 = Matrix::<f32>::random(4, 4, 1);
        let c32 = Matrix::<f32>::zeros(4, 4);
        let err = try_gemm_f32(GemmPrecision::Fp64Emulated, &a32, &a32, &c32).unwrap_err();
        assert!(matches!(
            err,
            M3xuError::ModeMismatch {
                got: MxuMode::M3xuFp64Emu,
                ..
            }
        ));

        let a64 = Matrix::<f64>::random_f64(4, 4, 1);
        let c64 = Matrix::<f64>::zeros(4, 4);
        for precision in GemmPrecision::ALL {
            if precision == GemmPrecision::Fp64Emulated {
                assert!(try_gemm_f64(precision, &a64, &a64, &c64).is_ok());
            } else {
                let err = try_gemm_f64(precision, &a64, &a64, &c64).unwrap_err();
                assert!(
                    matches!(err, M3xuError::ModeMismatch { got, .. } if got == precision.mode())
                );
            }
        }
    }

    #[test]
    fn fp64_emulated_stats_follow_the_lane_law() {
        let ctx = crate::context::M3xuContext::with_threads(2);
        let a = Matrix::<f64>::random_f64(64, 64, 41);
        let b = Matrix::<f64>::random_f64(64, 64, 42);
        let c = Matrix::<f64>::zeros(64, 64);
        ctx.gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c);
        let stats = ctx.stats();
        let per = stats.mode(MxuMode::M3xuFp64Emu);
        // 8x8 tiles, frag_k = 1: (64/8) * (64/8) * 64 fragments.
        assert_eq!(per.instructions, 8 * 8 * 64);
        assert_eq!(
            per.steps,
            per.instructions * MxuMode::M3xuFp64Emu.steps() as u64
        );
        // 25 slice products per scalar MAC; 8*8*1 MACs per fragment.
        assert_eq!(per.lane_products, per.instructions * 8 * 8 * 25);
        // Operand traffic at the f64 storage width.
        assert_eq!(stats.operand_bytes, (64 * 64 + 64 * 64) * 8);
    }

    #[test]
    fn m3xu_gemm_bit_exact_vs_fragment_reference() {
        let a = Matrix::<f32>::random(37, 19, 1); // awkward sizes: padding paths
        let b = Matrix::<f32>::random(19, 23, 2);
        let c = Matrix::<f32>::random(37, 23, 3);
        let r = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        let expect = fragment_reference(&a, &b, &c, 2);
        assert_eq!(r.d, expect);
    }

    #[test]
    fn m3xu_gemm_matches_simt_within_rounding() {
        let a = Matrix::<f32>::random(64, 64, 4);
        let b = Matrix::<f32>::random(64, 64, 5);
        let c = Matrix::<f32>::zeros(64, 64);
        let m3xu = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c).d;
        let gold = Matrix::reference_gemm_f64(&a, &b, &c);
        // One rounding per 2-wide fragment: the absolute error stays within
        // a few units of the dot product's own rounding scale. (Raw ULP
        // distance is meaningless near cancellation-induced zeros.)
        let scale = 64.0f32.sqrt() * f32::EPSILON; // ~||row|| * eps
        for (x, g) in m3xu.as_slice().iter().zip(gold.as_slice()) {
            assert!((x - g).abs() <= 8.0 * scale, "{x} vs {g}");
        }
        let stats = ErrorStats::compare_f32(m3xu.as_slice(), gold.as_slice());
        assert!(stats.mean_ulp < 16.0, "mean ulp = {}", stats.mean_ulp);
    }

    #[test]
    fn tf32_gemm_is_visibly_less_accurate() {
        let a = Matrix::<f32>::random(48, 48, 6);
        let b = Matrix::<f32>::random(48, 48, 7);
        let c = Matrix::<f32>::zeros(48, 48);
        let gold = Matrix::reference_gemm_f64(&a, &b, &c);
        let m3xu = ErrorStats::compare_f32(
            gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c).d.as_slice(),
            gold.as_slice(),
        );
        let tf32 = ErrorStats::compare_f32(
            gemm_f32(GemmPrecision::Tf32, &a, &b, &c).d.as_slice(),
            gold.as_slice(),
        );
        assert!(
            tf32.mean_ulp > 50.0 * (m3xu.mean_ulp + 1.0),
            "tf32 mean ulp {} vs m3xu {}",
            tf32.mean_ulp,
            m3xu.mean_ulp
        );
    }

    #[test]
    fn instruction_count_follows_rule_b() {
        // §V-B1(b): FP32 GEMM of the same shape issues 2x the MMA count of
        // ... in our model: (m/8)(n/8)(k/2) fragments, each a 2-step MMA.
        let a = Matrix::<f32>::random(16, 8, 8);
        let b = Matrix::<f32>::random(8, 16, 9);
        let c = Matrix::<f32>::zeros(16, 16);
        let r = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_eq!(r.stats.instructions, (16 / 8) * (16 / 8) * (8 / 2));
        assert_eq!(r.stats.steps, r.stats.instructions * 2);
    }

    #[test]
    fn cgemm_matches_f64_reference_closely() {
        let a = Matrix::random_c32(24, 16, 10);
        let b = Matrix::random_c32(16, 24, 11);
        let c = Matrix::random_c32(24, 24, 12);
        let r = cgemm_c32(&a, &b, &c);
        let gold = Matrix::reference_cgemm_f64(&a, &b, &c);
        for i in 0..24 {
            for j in 0..24 {
                let d = r.d.get(i, j);
                let g = gold.get(i, j);
                assert!((d.re - g.re).abs() <= 4.0 * f32::EPSILON * g.re.abs().max(1.0));
                assert!((d.im - g.im).abs() <= 4.0 * f32::EPSILON * g.im.abs().max(1.0));
            }
        }
    }

    #[test]
    fn cgemm_identity_roundtrip() {
        let a = Matrix::random_c32(16, 16, 13);
        let i = Matrix::identity_c32(16);
        let d = cmatmul_c32(&a, &i);
        assert_eq!(d, a);
    }

    #[test]
    fn gemm_identity_roundtrip() {
        let a = Matrix::<f32>::random(32, 32, 14);
        let i = Matrix::<f32>::identity(32);
        assert_eq!(matmul_f32(GemmPrecision::M3xuFp32, &a, &i), a);
    }

    #[test]
    fn parallel_and_serial_agree() {
        // Determinism across thread counts: tiles are independent, so the
        // result cannot depend on scheduling.
        let a = Matrix::<f32>::random(96, 40, 15);
        let b = Matrix::<f32>::random(40, 72, 16);
        let c = Matrix::<f32>::random(96, 72, 17);
        let r1 = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c).d;
        let r2 = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c).d;
        assert_eq!(r1, r2);
    }

    #[test]
    fn empty_k_returns_c() {
        let a = Matrix::<f32>::zeros(8, 0);
        let b = Matrix::<f32>::zeros(0, 8);
        let c = Matrix::<f32>::random(8, 8, 18);
        let r = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_eq!(r.d, c);
    }

    // ---- packed-vs-baseline differential coverage ----------------------

    /// Byte-level equality, distinguishing NaN payloads and signed zeros.
    fn assert_bits_f32(got: &Matrix<f32>, want: &Matrix<f32>, ctx: &str) {
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
        }
    }

    fn assert_bits_c32(got: &Matrix<Complex<f32>>, want: &Matrix<Complex<f32>>, ctx: &str) {
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ctx}: element {i} (re)");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ctx}: element {i} (im)");
        }
    }

    #[test]
    fn packed_matches_baseline_all_modes_awkward_shapes() {
        let shapes = [
            (1, 1, 1),
            (8, 8, 8),
            (37, 19, 23),
            (5, 64, 3),
            (64, 1, 64),
            (9, 7, 17),
        ];
        for &(m, k, n) in &shapes {
            for (si, precision) in [
                GemmPrecision::M3xuFp32,
                GemmPrecision::Tf32,
                GemmPrecision::Fp16,
                GemmPrecision::Bf16,
            ]
            .into_iter()
            .enumerate()
            {
                let seed = (100 * m + 10 * k + n + si) as u64;
                let a = Matrix::<f32>::random(m, k, seed);
                let b = Matrix::<f32>::random(k, n, seed + 1);
                let c = Matrix::<f32>::random(m, n, seed + 2);
                let packed = gemm_f32(precision, &a, &b, &c);
                let base = baseline::gemm_f32(precision, &a, &b, &c);
                assert_bits_f32(&packed.d, &base.d, &format!("{precision:?} {m}x{k}x{n}"));
                assert_eq!(packed.stats, base.stats, "{precision:?} {m}x{k}x{n} stats");
            }
        }
    }

    #[test]
    fn packed_cgemm_matches_baseline_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (8, 4, 8), (13, 9, 21), (24, 16, 24)] {
            let seed = (1000 + m * 31 + k * 7 + n) as u64;
            let a = Matrix::random_c32(m, k, seed);
            let b = Matrix::random_c32(k, n, seed + 1);
            let c = Matrix::random_c32(m, n, seed + 2);
            let packed = cgemm_c32(&a, &b, &c);
            let base = baseline::cgemm_c32(&a, &b, &c);
            assert_bits_c32(&packed.d, &base.d, &format!("cgemm {m}x{k}x{n}"));
            assert_eq!(packed.stats, base.stats, "cgemm {m}x{k}x{n} stats");
        }
    }

    #[test]
    fn packed_matches_baseline_on_specials_and_subnormals() {
        let vals = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0e-44, // subnormal
            -f32::MIN_POSITIVE,
            f32::MAX,
            -1.5,
            3.0e-39, // subnormal-adjacent
        ];
        let a = Matrix::from_fn(11, 6, |i, j| vals[(i * 7 + j) % vals.len()]);
        let b = Matrix::from_fn(6, 13, |i, j| vals[(i + j * 3) % vals.len()]);
        let c = Matrix::from_fn(11, 13, |i, j| vals[(i + j) % vals.len()]);
        for precision in [GemmPrecision::M3xuFp32, GemmPrecision::Tf32] {
            let packed = gemm_f32(precision, &a, &b, &c);
            let base = baseline::gemm_f32(precision, &a, &b, &c);
            assert_bits_f32(&packed.d, &base.d, &format!("{precision:?} specials"));
        }
        let ca = Matrix::from_fn(9, 5, |i, j| {
            Complex::new(vals[(i + j) % vals.len()], vals[(i * 3 + j) % vals.len()])
        });
        let cb = Matrix::from_fn(5, 9, |i, j| {
            Complex::new(
                vals[(i * 5 + j) % vals.len()],
                vals[(i + 2 * j) % vals.len()],
            )
        });
        let cc = Matrix::<Complex<f32>>::zeros(9, 9);
        let packed = cgemm_c32(&ca, &cb, &cc);
        let base = baseline::cgemm_c32(&ca, &cb, &cc);
        assert_bits_c32(&packed.d, &base.d, "cgemm specials");
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let a = Matrix::<f32>::random(41, 27, 90);
        let b = Matrix::<f32>::random(27, 33, 91);
        let c = Matrix::<f32>::random(41, 33, 92);
        let ca = Matrix::random_c32(17, 9, 93);
        let cb = Matrix::random_c32(9, 19, 94);
        let cc = Matrix::random_c32(17, 19, 95);
        let mut real: Vec<Matrix<f32>> = Vec::new();
        let mut cplx: Vec<Matrix<Complex<f32>>> = Vec::new();
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            real.push(gemm_f32_on(&pool, GemmPrecision::M3xuFp32, &a, &b, &c).d);
            cplx.push(cgemm_c32_on(&pool, &ca, &cb, &cc).d);
        }
        for r in &real[1..] {
            assert_bits_f32(r, &real[0], "pool-size determinism (real)");
        }
        for r in &cplx[1..] {
            assert_bits_c32(r, &cplx[0], "pool-size determinism (complex)");
        }
    }

    #[test]
    fn workers_respects_env_contract() {
        // `workers()` delegates to the pool sizing; it must be positive.
        assert!(workers() >= 1);
    }

    // ---- ABFT-checked driver -------------------------------------------

    #[test]
    fn abft_zero_rate_verifies_and_stays_bit_identical() {
        // A rate-0 plan runs the full checksum machinery with no
        // injection: every chunk verifies and the result is bit-identical
        // to the oracle, summary all-zero.
        let pool = WorkerPool::new(2);
        let plan = FaultPlan::new(1, 0.0);
        let a = Matrix::<f32>::random(23, 11, 40);
        let b = Matrix::<f32>::random(11, 19, 41);
        let c = Matrix::<f32>::random(23, 19, 42);
        let (r, s) = blas3::run(
            &pool,
            None,
            Some(&plan),
            PackedCall::gemm("gemm", MxuMode::M3xuFp32, &a, &b, &c),
        )
        .unwrap();
        let oracle = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_bits_f32(&r.d, &oracle.d, "abft zero-rate");
        assert_eq!(r.stats, oracle.stats);
        assert_eq!(s, FaultSummary::default());
    }

    #[test]
    fn abft_recovers_injected_faults_bit_identically() {
        let pool = WorkerPool::new(2);
        let a = Matrix::<f32>::random(33, 17, 50);
        let b = Matrix::<f32>::random(17, 29, 51);
        let c = Matrix::<f32>::random(33, 29, 52);
        let oracle = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        let mut saw_faults = false;
        for seed in 0..8u64 {
            let plan = FaultPlan::new(seed, 0.05);
            let (r, s) = blas3::run(
                &pool,
                None,
                Some(&plan),
                PackedCall::gemm("gemm", MxuMode::M3xuFp32, &a, &b, &c),
            )
            .unwrap();
            assert_bits_f32(&r.d, &oracle.d, &format!("abft recovery seed {seed}"));
            assert_eq!(s.detected, s.corrected, "seed {seed}: {s:?}");
            saw_faults |= s.detected > 0;
        }
        assert!(saw_faults, "rate 0.05 across 8 seeds must inject something");
    }

    #[test]
    fn abft_complex_recovery_matches_oracle() {
        let pool = WorkerPool::new(2);
        let a = Matrix::random_c32(17, 9, 60);
        let b = Matrix::random_c32(9, 13, 61);
        let c = Matrix::random_c32(17, 13, 62);
        let oracle = baseline::cgemm_c32(&a, &b, &c);
        let plan = FaultPlan::new(3, 0.05);
        let (r, s) = blas3::run(
            &pool,
            None,
            Some(&plan),
            PackedCall::gemm("cgemm", MxuMode::M3xuFp32c, &a, &b, &c),
        )
        .unwrap();
        assert_bits_c32(&r.d, &oracle.d, "abft complex recovery");
        assert_eq!(s.detected, s.corrected);
    }

    #[test]
    fn abft_rate_one_is_a_typed_error_not_a_panic() {
        let pool = WorkerPool::new(2);
        let plan = FaultPlan::new(9, 1.0);
        let a = Matrix::<f32>::random(16, 8, 70);
        let b = Matrix::<f32>::random(8, 16, 71);
        let c = Matrix::<f32>::zeros(16, 16);
        match blas3::run(
            &pool,
            None,
            Some(&plan),
            PackedCall::gemm("gemm", MxuMode::M3xuFp32, &a, &b, &c),
        ) {
            Err(M3xuError::FaultDetected {
                op,
                mode,
                tiles,
                detected,
                corrected,
                retries,
            }) => {
                assert_eq!(op, "gemm");
                assert_eq!(mode, MxuMode::M3xuFp32);
                assert!(tiles > 0);
                assert!(detected > corrected);
                assert!(retries > 0);
            }
            other => panic!("expected FaultDetected, got {other:?}"),
        }
        // The pool (and its supervisor) must stay usable afterwards.
        let clean = gemm_f32_on(&pool, GemmPrecision::M3xuFp32, &a, &b, &c);
        let oracle = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_bits_f32(&clean.d, &oracle.d, "pool reuse after rate-1.0 abft");
    }

    #[test]
    fn abft_specials_fall_back_to_unverified_execution() {
        // Chunks poisoned by NaN/Inf are unverifiable: the checked driver
        // must execute them un-checked (and un-faulted) and still match
        // the oracle bit-for-bit.
        let pool = WorkerPool::new(2);
        let mut a = Matrix::<f32>::random(19, 7, 80);
        a.set(0, 0, f32::NAN);
        a.set(5, 3, f32::INFINITY);
        let b = Matrix::<f32>::random(7, 11, 81);
        let c = Matrix::<f32>::random(19, 11, 82);
        let oracle = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        let plan = FaultPlan::new(4, 0.2);
        let (r, _) = blas3::run(
            &pool,
            None,
            Some(&plan),
            PackedCall::gemm("gemm", MxuMode::M3xuFp32, &a, &b, &c),
        )
        .unwrap();
        assert_bits_f32(&r.d, &oracle.d, "abft specials");
    }
}
