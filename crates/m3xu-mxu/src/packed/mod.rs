//! Packed-operand fragment pipeline — decode once, execute in place.
//!
//! The per-fragment MMA entry points in [`crate::mma`] re-decode their
//! operand tiles on every call: a tiled GEMM decodes each element of `A`
//! once per *column tile* of `B` (and vice versa), and every fragment heap-
//! allocates its `StepPlan`. This module removes both costs:
//!
//! * [`PackedOperand`] decodes a whole GEMM operand into [`BufferEntry`]
//!   planes **once per GEMM** — per mode, including the FP32 hi/lo split
//!   and the FP32C `[re_hi, re_lo, im_hi, im_lo]` planes;
//! * [`DotProductUnit::mma_f32_into`] / [`DotProductUnit::mma_c32_into`]
//!   execute one fragment straight out of the packed planes into a
//!   caller-owned accumulator slice — no allocation on the hot path.
//!
//! ## Bit-exactness
//!
//! The packed executors fuse a fragment's 2 (FP32) or 4 (FP32C) plan steps
//! into a single lane stream per output element. This is bit-identical to
//! the step-ordered execution of [`crate::assign`]'s plans because
//!
//! 1. finite lanes accumulate *exactly* in the Kulisch register — integer
//!    addition is commutative and associative, so lane order is irrelevant;
//! 2. the special-value state machine's final *value* is a pure function of
//!    the lane multiset (any NaN input or Inf·0 poisons; otherwise opposing
//!    infinities poison; otherwise a single infinity sign wins); and
//! 3. the rounding boundary is preserved: each output element is drained to
//!    its output format exactly once per fragment, and the rounded value
//!    re-seeds the next fragment of the `K`-loop — the same once-per-MMA
//!    rounding contract as [`crate::mma`].
//!
//! ## The SIMD row pipeline
//!
//! On top of the per-chunk executors, the panel entry points
//! ([`DotProductUnit::mma_f32_panel_into`] /
//! [`DotProductUnit::mma_c32_panel_into`]) run a whole `K`-panel per
//! call and, where a full 8-column fragment row is available, dispatch to
//! the vectorized row kernels in [`simd`] — see that module for the
//! exactness argument and the `M3XU_SIMD` kill switch. The per-chunk
//! scalar executors stay intact as the differential oracle and the
//! fallback for partial rows, specials, and wide exponent spreads.
//!
//! ## Checked runs use the same kernels
//!
//! Each element type has one panel body, generic over a
//! [`ResidueSink`]: the `*_panel_into` entry points instantiate it with
//! the no-op [`NoResidue`], the `*_panel_sink_into` entry points let the
//! ABFT-checked driver pass a [`crate::abft::Checksum`] instead. Every
//! tier reports the residue of the exact value it rounds, so a checked
//! chunk takes whichever tier an unchecked one would, and pays only the
//! residue fold on top.

pub mod simd;

use crate::abft::{NoResidue, ResidueSink};
use crate::buffer::{
    decode_fp32, decode_fp64_slices, decode_narrow, decode_tf32_truncating, BufferEntry,
};
use crate::dpu::{DotProductUnit, LaneOp, Target};
use crate::error::M3xuError;
use crate::matrix::{MatSource, Matrix};
use crate::mma::{MmaShape, MmaStats};
use crate::modes::MxuMode;
use crate::unit::Mxu;
use m3xu_fp::complex::Complex;
use m3xu_fp::format::{BF16, FP16, TF32};
use m3xu_fp::residue::residue_i128;
use m3xu_fp::softfloat::round_to_format;
use std::ops::Range;

/// Buffer entries the data-assignment stage provisions per operand element
/// in `mode` — 1 for the narrow formats, 2 for the hi/lo split of the FP32
/// and FP64 modes (the fast FP32 variant packs the identical two slices;
/// truncation happens at term scheduling, not at decode), 5 for the
/// emulated-FP64 mantissa slices, 4 for the complex modes' component-half
/// planes.
pub const fn entries_per_element(mode: MxuMode) -> usize {
    match mode {
        MxuMode::Fp16 | MxuMode::Bf16 | MxuMode::Tf32 => 1,
        MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast | MxuMode::M3xuFp64 => 2,
        MxuMode::M3xuFp64Emu => 5,
        MxuMode::M3xuFp32c | MxuMode::M3xuFp64c => 4,
    }
}

/// The statistics one full fragment of `shape` contributes in `mode` —
/// identical to what the per-fragment [`crate::mma`] executors count on
/// zero-padded tiles (padded lanes are provisioned by the hardware whether
/// or not their products are useful, so they are charged either way).
///
/// A MAC costs [`MxuMode::terms_per_mac`] lane products — for the legacy
/// modes that equals `steps * entries_per_element` (pinned by
/// `fragment_stats_match_tile_counters` below), while the truncated fast
/// schedule charges only the terms it actually issues.
pub fn fragment_stats(mode: MxuMode, shape: MmaShape) -> MmaStats {
    MmaStats {
        instructions: 1,
        steps: mode.steps() as u64,
        lane_products: shape.macs() * mode.terms_per_mac(),
    }
}

/// One GEMM operand decoded into buffer-entry planes, ready for any number
/// of fragment executions.
///
/// Layout: `vecs` dot-product operand vectors (the rows of `A`, or the
/// columns of `B`), each `len` elements long, each element expanded to
/// [`entries_per_element`] consecutive entries. For `A` pack by rows; for
/// `B` pack by columns — fragment execution then reads two contiguous
/// slices.
/// In addition to the entry planes, packing mirrors each element's
/// *value* (the exact `f32` the entries denote — the original input for
/// the lossless FP32/FP32C modes, the quantised value for the narrow
/// modes, specials kept as themselves) into a planar `f32` buffer for
/// the [`simd`] row kernels: row-major `[vec][k]` on the rows side,
/// k-major `[k][vec]` on the columns side so one vector load covers 8
/// consecutive output columns (FP32C stores separate re/im planes).
#[derive(Debug, Clone)]
pub struct PackedOperand {
    mode: MxuMode,
    epe: usize,
    len: usize,
    vecs: usize,
    entries: Vec<BufferEntry>,
    vals: Vec<f32>,
    /// True for column packing (`B` side): `vals` is k-major.
    transposed: bool,
}

/// Reusable backing buffers for a [`PackedOperand`] — the unit the
/// context scratch arena recycles so repeated GEMMs stop visiting the
/// allocator for their entry planes *and* their SIMD value planes.
#[derive(Debug, Default)]
pub struct PackedStorage {
    /// Buffer-entry planes.
    pub entries: Vec<BufferEntry>,
    /// Planar `f32` value mirror for the SIMD row kernels.
    pub vals: Vec<f32>,
}

impl PackedStorage {
    /// Clear and pre-size both buffers for `elems` operand elements at
    /// `epe` entries and `vpe` value-plane slots each.
    fn prepared(mut self, elems: usize, epe: usize, vpe: usize) -> (Vec<BufferEntry>, Vec<f32>) {
        self.entries.clear();
        self.entries.reserve(elems * epe);
        self.vals.clear();
        self.vals.reserve(elems * vpe);
        (self.entries, self.vals)
    }
}

/// True for the modes a real `f32` operand can be packed for.
const fn is_real_f32_mode(mode: MxuMode) -> bool {
    matches!(
        mode,
        MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast | MxuMode::Tf32 | MxuMode::Fp16 | MxuMode::Bf16
    )
}

#[inline]
fn push_f32(entries: &mut Vec<BufferEntry>, x: f32, mode: MxuMode) {
    match mode {
        MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast => {
            let (hi, lo) = decode_fp32(x);
            entries.push(hi);
            entries.push(lo);
        }
        MxuMode::Tf32 => entries.push(decode_tf32_truncating(x)),
        MxuMode::Fp16 => entries.push(decode_narrow(round_to_format(x as f64, FP16), FP16)),
        MxuMode::Bf16 => entries.push(decode_narrow(round_to_format(x as f64, BF16), BF16)),
        // Checked by the `try_pack_*` entry gates before any decode work.
        _ => unreachable!("mode gate admitted a non-real packing mode"),
    }
}

/// The exact `f32` value the packed entries of element `x` denote in
/// `mode` — what the SIMD value planes mirror. Lossless for FP32 (hi+lo
/// reconstruct `x`); the quantised value for the narrow modes (every
/// TF32/FP16/BF16 value, including a rounded-to-infinity overflow, is
/// representable in `f32`); specials pass through as themselves so the
/// row kernels' non-finite-product abort routes them to the oracle path.
#[inline]
fn val_f32(x: f32, mode: MxuMode) -> f32 {
    if !x.is_finite() {
        return x;
    }
    // Each narrow value (a finite overflow rounds to infinity, which the
    // row kernels likewise abort on) is exactly representable in `f32`,
    // so the cast never re-rounds.
    match mode {
        MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast => x,
        MxuMode::Tf32 => round_to_format(x as f64, TF32) as f32,
        MxuMode::Fp16 => round_to_format(x as f64, FP16) as f32,
        MxuMode::Bf16 => round_to_format(x as f64, BF16) as f32,
        _ => unreachable!("mode gate admitted a non-real packing mode"),
    }
}

/// Fold the scalar `alpha` into an element before decode. A bitwise check
/// against `1.0` skips the multiply entirely, so an `alpha = 1` pack is
/// instruction-for-instruction (and therefore bit-for-bit) identical to
/// the unscaled packers — the contract the op/alpha differential suite
/// pins against the plain GEMM path.
#[inline]
fn scale_f32(alpha: f32, x: f32) -> f32 {
    if alpha.to_bits() == 1.0f32.to_bits() {
        x
    } else {
        alpha * x
    }
}

/// [`scale_f32`] for complex elements (bitwise skip at `alpha = 1 + 0i`).
#[inline]
fn scale_c32(alpha: Complex<f32>, x: Complex<f32>) -> Complex<f32> {
    if alpha.re.to_bits() == 1.0f32.to_bits() && alpha.im.to_bits() == 0.0f32.to_bits() {
        x
    } else {
        alpha * x
    }
}

/// [`scale_f32`] for `f64` elements (bitwise skip at `alpha = 1.0`).
#[inline]
fn scale_f64(alpha: f64, x: f64) -> f64 {
    if alpha.to_bits() == 1.0f64.to_bits() {
        x
    } else {
        alpha * x
    }
}

#[inline]
fn push_c32(entries: &mut Vec<BufferEntry>, x: Complex<f32>) {
    let (rh, rl) = decode_fp32(x.re);
    let (ih, il) = decode_fp32(x.im);
    entries.push(rh);
    entries.push(rl);
    entries.push(ih);
    entries.push(il);
}

impl PackedOperand {
    /// Fallible [`PackedOperand::pack_rows_f32`]: rejects the complex and
    /// FP64 modes (whose operands are not plain `f32` planes) with
    /// [`M3xuError::ModeMismatch`] instead of aborting.
    pub fn try_pack_rows_f32(m: &Matrix<f32>, mode: MxuMode) -> Result<Self, M3xuError> {
        Self::try_pack_rows_f32_src_in(m, 1.0, mode, PackedStorage::default())
    }

    /// Pack a real operand by rows (the `A` side of `A·B`).
    ///
    /// Panics on a non-real packing mode; see
    /// [`PackedOperand::try_pack_rows_f32`] for the fallible form.
    pub fn pack_rows_f32(m: &Matrix<f32>, mode: MxuMode) -> Self {
        Self::try_pack_rows_f32(m, mode).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PackedOperand::pack_cols_f32`].
    pub fn try_pack_cols_f32(m: &Matrix<f32>, mode: MxuMode) -> Result<Self, M3xuError> {
        Self::try_pack_cols_f32_src_in(m, 1.0, mode, PackedStorage::default())
    }

    /// Pack a real operand by columns (the `B` side of `A·B`).
    ///
    /// Panics on a non-real packing mode; see
    /// [`PackedOperand::try_pack_cols_f32`] for the fallible form.
    pub fn pack_cols_f32(m: &Matrix<f32>, mode: MxuMode) -> Self {
        Self::try_pack_cols_f32(m, mode).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pack a complex operand by rows (FP32C mode).
    pub fn pack_rows_c32(m: &Matrix<Complex<f32>>) -> Self {
        Self::pack_rows_c32_src_in(m, Complex::<f32>::ONE, PackedStorage::default())
    }

    /// Pack a complex operand by columns (FP32C mode).
    pub fn pack_cols_c32(m: &Matrix<Complex<f32>>) -> Self {
        Self::pack_cols_c32_src_in(m, Complex::<f32>::ONE, PackedStorage::default())
    }

    /// Fallible pack of an FP64 operand by rows for the emulated-FP64
    /// mode: each element expands to its `N` mantissa slices (see
    /// [`decode_fp64_slices`]), every slice within the 12-bit multiplier
    /// field. Rejects every other mode with [`M3xuError::ModeMismatch`].
    ///
    /// The emulated mode has no SIMD value mirror (the row kernels round
    /// to `f32`; the emulated pipeline drains to `f64`), so the value
    /// plane stays empty and execution is scalar per element.
    pub fn try_pack_rows_f64(m: &Matrix<f64>, mode: MxuMode) -> Result<Self, M3xuError> {
        Self::try_pack_rows_f64_src_in(m, 1.0, mode, PackedStorage::default())
    }

    /// Fallible pack of an FP64 operand by columns for the emulated-FP64
    /// mode (the `B` side); see [`PackedOperand::try_pack_rows_f64`].
    pub fn try_pack_cols_f64(m: &Matrix<f64>, mode: MxuMode) -> Result<Self, M3xuError> {
        Self::try_pack_cols_f64_src_in(m, 1.0, mode, PackedStorage::default())
    }

    /// Pack a real operand by rows from any logical [`MatSource`] — an
    /// [`crate::matrix::OpView`] for `op(A)` iteration, a
    /// [`crate::matrix::MirrorView`] for a triangle-stored SYMM operand, or
    /// a plain [`Matrix`] — folding `alpha` into every element *before*
    /// mode quantisation (a bitwise `alpha = 1` skips the multiply, so a
    /// plain matrix packs with no extra arithmetic). `storage` is cleared
    /// and its capacity reused, so an arena that round-trips storage
    /// through [`PackedOperand::into_storage`] packs repeated GEMMs
    /// without touching the allocator.
    pub fn try_pack_rows_f32_src_in<S: MatSource<f32>>(
        src: &S,
        alpha: f32,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<Self, M3xuError> {
        if !is_real_f32_mode(mode) {
            return Err(M3xuError::ModeMismatch {
                context: "PackedOperand::pack_rows_f32",
                got: mode,
            });
        }
        let (rows, cols) = (src.rows(), src.cols());
        let epe = entries_per_element(mode);
        let (mut entries, mut vals) = storage.prepared(rows * cols, epe, 1);
        for i in 0..rows {
            for k in 0..cols {
                let x = scale_f32(alpha, src.at(i, k));
                push_f32(&mut entries, x, mode);
                vals.push(val_f32(x, mode));
            }
        }
        Ok(PackedOperand {
            mode,
            epe,
            len: cols,
            vecs: rows,
            entries,
            vals,
            transposed: false,
        })
    }

    /// Pack a real operand by columns from any logical [`MatSource`] (the
    /// `B` side), folding `alpha` before quantisation; see
    /// [`PackedOperand::try_pack_rows_f32_src_in`].
    pub fn try_pack_cols_f32_src_in<S: MatSource<f32>>(
        src: &S,
        alpha: f32,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<Self, M3xuError> {
        if !is_real_f32_mode(mode) {
            return Err(M3xuError::ModeMismatch {
                context: "PackedOperand::pack_cols_f32",
                got: mode,
            });
        }
        let (rows, cols) = (src.rows(), src.cols());
        let epe = entries_per_element(mode);
        let (mut entries, mut vals) = storage.prepared(rows * cols, epe, 1);
        for j in 0..cols {
            for i in 0..rows {
                push_f32(&mut entries, scale_f32(alpha, src.at(i, j)), mode);
            }
        }
        // The k-major value plane, in the source's logical row-major order
        // (vals[k * vecs + v] = src[k][v]).
        for i in 0..rows {
            for j in 0..cols {
                vals.push(val_f32(scale_f32(alpha, src.at(i, j)), mode));
            }
        }
        Ok(PackedOperand {
            mode,
            epe,
            len: rows,
            vecs: cols,
            entries,
            vals,
            transposed: true,
        })
    }

    /// Pack a complex operand by rows from any logical [`MatSource`]
    /// (FP32C mode), folding `alpha` before the hi/lo split; see
    /// [`PackedOperand::try_pack_rows_f32_src_in`].
    pub fn pack_rows_c32_src_in<S: MatSource<Complex<f32>>>(
        src: &S,
        alpha: Complex<f32>,
        storage: PackedStorage,
    ) -> Self {
        let (rows, cols) = (src.rows(), src.cols());
        let (mut entries, mut vals) = storage.prepared(rows * cols, 4, 2);
        for i in 0..rows {
            for k in 0..cols {
                let x = scale_c32(alpha, src.at(i, k));
                push_c32(&mut entries, x);
                vals.push(x.re);
                vals.push(x.im);
            }
        }
        PackedOperand {
            mode: MxuMode::M3xuFp32c,
            epe: 4,
            len: cols,
            vecs: rows,
            entries,
            vals,
            transposed: false,
        }
    }

    /// Pack a complex operand by columns from any logical [`MatSource`]
    /// (FP32C mode, the `B` side); see
    /// [`PackedOperand::pack_rows_c32_src_in`].
    pub fn pack_cols_c32_src_in<S: MatSource<Complex<f32>>>(
        src: &S,
        alpha: Complex<f32>,
        storage: PackedStorage,
    ) -> Self {
        let (rows, cols) = (src.rows(), src.cols());
        let (mut entries, mut vals) = storage.prepared(rows * cols, 4, 2);
        for j in 0..cols {
            for i in 0..rows {
                push_c32(&mut entries, scale_c32(alpha, src.at(i, j)));
            }
        }
        // Planar k-major component planes in the source's logical
        // row-major order: the re plane, then the im plane.
        for i in 0..rows {
            for j in 0..cols {
                vals.push(scale_c32(alpha, src.at(i, j)).re);
            }
        }
        for i in 0..rows {
            for j in 0..cols {
                vals.push(scale_c32(alpha, src.at(i, j)).im);
            }
        }
        PackedOperand {
            mode: MxuMode::M3xuFp32c,
            epe: 4,
            len: rows,
            vecs: cols,
            entries,
            vals,
            transposed: true,
        }
    }

    /// Pack an FP64 operand by rows from any logical [`MatSource`] for the
    /// emulated-FP64 mode, folding `alpha` before slice decode; see
    /// [`PackedOperand::try_pack_rows_f64`].
    pub fn try_pack_rows_f64_src_in<S: MatSource<f64>>(
        src: &S,
        alpha: f64,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<Self, M3xuError> {
        if mode != MxuMode::M3xuFp64Emu {
            return Err(M3xuError::ModeMismatch {
                context: "PackedOperand::pack_rows_f64",
                got: mode,
            });
        }
        let cfg = mode
            .slice_config()
            .expect("emulated FP64 has a slice config");
        let (rows, cols) = (src.rows(), src.cols());
        let epe = entries_per_element(mode);
        let (mut entries, vals) = storage.prepared(rows * cols, epe, 0);
        let mut buf = [BufferEntry::ZERO; m3xu_fp::split::MAX_SLICES];
        for i in 0..rows {
            for k in 0..cols {
                let n = decode_fp64_slices(scale_f64(alpha, src.at(i, k)), cfg, &mut buf);
                entries.extend_from_slice(&buf[..n]);
            }
        }
        Ok(PackedOperand {
            mode,
            epe,
            len: cols,
            vecs: rows,
            entries,
            vals,
            transposed: false,
        })
    }

    /// Pack an FP64 operand by columns from any logical [`MatSource`] for
    /// the emulated-FP64 mode (the `B` side); see
    /// [`PackedOperand::try_pack_rows_f64_src_in`].
    pub fn try_pack_cols_f64_src_in<S: MatSource<f64>>(
        src: &S,
        alpha: f64,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<Self, M3xuError> {
        if mode != MxuMode::M3xuFp64Emu {
            return Err(M3xuError::ModeMismatch {
                context: "PackedOperand::pack_cols_f64",
                got: mode,
            });
        }
        let cfg = mode
            .slice_config()
            .expect("emulated FP64 has a slice config");
        let (rows, cols) = (src.rows(), src.cols());
        let epe = entries_per_element(mode);
        let (mut entries, vals) = storage.prepared(rows * cols, epe, 0);
        let mut buf = [BufferEntry::ZERO; m3xu_fp::split::MAX_SLICES];
        for j in 0..cols {
            for i in 0..rows {
                let n = decode_fp64_slices(scale_f64(alpha, src.at(i, j)), cfg, &mut buf);
                entries.extend_from_slice(&buf[..n]);
            }
        }
        Ok(PackedOperand {
            mode,
            epe,
            len: rows,
            vecs: cols,
            entries,
            vals,
            transposed: true,
        })
    }

    /// Reclaim the backing buffers for reuse by a later `*_src_in` pack call —
    /// the other half of the arena round-trip.
    pub fn into_storage(self) -> PackedStorage {
        PackedStorage {
            entries: self.entries,
            vals: self.vals,
        }
    }

    /// The mode this operand was decoded for.
    #[inline]
    pub fn mode(&self) -> MxuMode {
        self.mode
    }

    /// Entries per element.
    #[inline]
    pub fn epe(&self) -> usize {
        self.epe
    }

    /// Elements per operand vector (the reduction length `K`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the reduction dimension is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of operand vectors packed.
    #[inline]
    pub fn vecs(&self) -> usize {
        self.vecs
    }

    /// The entry plane of vector `v`: `len * epe` consecutive entries.
    #[inline]
    pub fn vec(&self, v: usize) -> &[BufferEntry] {
        &self.entries[v * self.len * self.epe..(v + 1) * self.len * self.epe]
    }
}

#[inline]
fn lane(a: BufferEntry, b: BufferEntry, negate: bool, target: Target) -> LaneOp {
    LaneOp {
        a,
        b,
        negate,
        target,
    }
}

/// One finite dot-product contribution `±mant · 2^pow` with `mant < 2^24`
/// (a 12x12-bit lane product, or the seeded `C` element's significand).
type Contrib = (u64, i32, bool);

/// Capacity of the fast-path contribution window: covers every fragment
/// shape the drivers issue (at most 9 contributions per output element).
/// Larger `klen` requests simply take the general Kulisch path.
const FAST_CONTRIB_CAP: usize = 12;

/// Maximum exponent spread the 128-bit fast window accepts. The exact sum
/// of at most `FAST_CONTRIB_CAP` terms below `2^24` then stays below
/// `2^(24 + 96 + 4) < 2^127`, so the `i128` accumulation cannot overflow.
const FAST_POW_RANGE: i32 = 96;

/// Round the exact value `sum * 2^pmin` to FP32 — round-to-nearest,
/// ties-to-even, gradual underflow, overflow to infinity. This is
/// [`m3xu_fp::fixed::Kulisch::round_to`] specialised to a 128-bit window
/// (same kept-bit / round-bit / sticky-bit selection, same tie and
/// boundary handling), verified bit-identical by `fast_rounding_matches_
/// kulisch` below and by the end-to-end differential GEMM tests.
#[inline(always)]
fn fast_round_f32(sum: i128, pmin: i32) -> f32 {
    let (sign, frac, weight, finite) = fast_round_parts(sum, pmin);
    fast_round_assemble(sign, frac, weight, finite)
}

/// The rounding core of [`fast_round_f32`], returning the result in
/// decoded form: value = `±frac · 2^weight` with `frac < 2^24`, or a
/// signed infinity when `finite` is false. Panel kernels keep this form
/// as the next chunk's seed (see [`simd::ChunkSeed`]) so the f32
/// assemble/decode round-trip stays off the per-column dependency chain;
/// [`fast_round_assemble`] turns it into the identical f32 bits.
#[inline(always)]
fn fast_round_parts(sum: i128, pmin: i32) -> (u32, u64, i32, bool) {
    if sum == 0 {
        return (0, 0, -149, true);
    }
    let negative = sum < 0;
    let sign = (negative as u32) << 31;
    let m = sum.unsigned_abs();
    let h = 127 - m.leading_zeros() as i32; // position of the leading bit
    let e = h + pmin; // exponent of the leading bit
                      // Fast path for the overwhelmingly common shape: the round and
                      // sticky probes sit entirely below the kept bits (h >= 25) and the
                      // result is strictly normal with no overflow possible even after a
                      // rounding carry (-126 <= e <= 126). One funnel shift yields the
                      // kept fraction and the round bit together; everything the general
                      // path guards against (subnormals, ties at the subnormal boundary,
                      // overflow) is unreachable here.
    if h >= 25 && e > -127 && e < 127 {
        let lowbit = h - 24;
        let r2 = (m >> lowbit) as u64; // frac:24 | round:1
        let sticky = m & ((1u128 << lowbit) - 1) != 0;
        let mut frac = r2 >> 1;
        let round = r2 & 1 == 1;
        frac += (round & (sticky | (frac & 1 == 1))) as u64;
        let carry = (frac >> 24) as i32 & 1;
        frac >>= carry;
        return (sign, frac, e - 23 + carry, true);
    }
    if e > 128 {
        // Magnitude at least 2^129 > 2 * f32::MAX: overflow regardless of
        // the rounding bits.
        return (sign, 0, 0, false);
    }
    // FP32: 24 bits of precision, minimum normal exponent -126.
    let keep = if e < -126 { 24 - (-126 - e) } else { 24 };
    if keep <= 0 {
        // At or below half of the least subnormal 2^-149: e < -150 is a
        // signed zero; e == -150 is exactly half (rounds to even, zero)
        // unless any lower bit is set (rounds away to the least
        // subnormal).
        let away = e == -150 && m != 1u128 << h;
        return (sign, away as u64, -149, true);
    }
    let lowbit = h - keep + 1; // position of the kept LSB
    let (mut frac, round, sticky);
    if lowbit >= 0 {
        // `lb1` clamps the below-LSB probes so they are well-defined at
        // lowbit 0/1, where the `lowbit > _` factors zero them anyway.
        let lb1 = (lowbit - 1).max(0) as u32;
        frac = (m >> lowbit) as u64;
        round = (lowbit > 0) & ((m >> lb1) & 1 == 1);
        sticky = (lowbit > 1) & (m & ((1u128 << lb1) - 1) != 0);
    } else {
        frac = (m as u64) << (-lowbit) as u32;
        round = false;
        sticky = false;
    }
    let mut weight = e - keep + 1;
    // Branchless round-to-nearest-even: increment, then renormalise a
    // carry out of the full 24-bit width (frac can only reach exactly
    // 2^keep). A carry at a narrower kept width stays subnormal — it
    // merely sets the next mantissa bit at the same weight -149, which
    // the bit assembly encodes directly.
    frac += (round & (sticky | (frac & 1 == 1))) as u64;
    let carry = (frac >> 24) as u32 & 1;
    frac >>= carry;
    weight += carry as i32;
    // Rounding can push the magnitude past f32::MAX (biased exponent
    // field 255): `weight + 23` is the result's exponent, and frac's top
    // bit is necessarily set whenever the exponent is anywhere near the
    // overflow boundary.
    if weight + 23 >= 128 {
        return (sign, 0, 0, false);
    }
    (sign, frac, weight, true)
}

/// Assemble the FP32 bits of a [`fast_round_parts`] result. A kept width
/// below 24 pins `weight` to -149, so `frac`'s bit 23 cleanly separates
/// subnormals (biased exponent 0, mantissa = frac) from normals (biased
/// exponent `weight + 150`, implicit bit masked off) — including a
/// subnormal that a rounding carry just promoted to the least normal.
#[inline(always)]
fn fast_round_assemble(sign: u32, frac: u64, weight: i32, finite: bool) -> f32 {
    if !finite {
        return f32::from_bits(sign | 0x7f80_0000);
    }
    let hi = (frac >> 23) as u32;
    let ebits = (weight + 23 + 127) as u32;
    f32::from_bits(sign | ((ebits * hi) << 23) | (frac as u32 & 0x007f_ffff))
}

/// Fast-path exact reduction of one output element: collects the lane
/// products of a fragment as integer contributions and rounds their exact
/// sum once. Aborts to the general Kulisch path (`None`) on any special
/// operand, capacity overflow, or an exponent spread beyond the 128-bit
/// window — the fallback is bit-identical, only slower.
struct FastDot {
    contrib: [Contrib; FAST_CONTRIB_CAP],
    n: usize,
}

impl FastDot {
    #[inline]
    fn new(seed: f32) -> Option<FastDot> {
        if !seed.is_finite() {
            return None;
        }
        let mut dot = FastDot {
            contrib: [(0, 0, false); FAST_CONTRIB_CAP],
            n: 0,
        };
        let bits = seed.to_bits();
        let exp = ((bits >> 23) & 0xff) as i32;
        let mant = (bits & 0x7f_ffff) as u64;
        if exp != 0 {
            dot.contrib[0] = (mant | 0x80_0000, exp - 127 - 23, bits >> 31 == 1);
            dot.n = 1;
        } else if mant != 0 {
            dot.contrib[0] = (mant, -149, bits >> 31 == 1);
            dot.n = 1;
        }
        Some(dot)
    }

    /// Add one lane's product; `None` aborts to the Kulisch fallback.
    #[inline]
    fn push_pair(&mut self, x: &BufferEntry, y: &BufferEntry, negate: bool) -> Option<()> {
        if x.special.is_some() || y.special.is_some() {
            return None;
        }
        let p = x.mant as u64 * y.mant as u64;
        if p == 0 {
            return Some(()); // same skip as the DPU's zero-product lanes
        }
        if self.n == FAST_CONTRIB_CAP {
            return None;
        }
        self.contrib[self.n] = (p, x.pow + y.pow, x.sign ^ y.sign ^ negate);
        self.n += 1;
        Some(())
    }

    #[inline]
    fn reduce(&self) -> Option<f32> {
        let c = &self.contrib[..self.n];
        if c.is_empty() {
            return Some(0.0);
        }
        let mut pmin = i32::MAX;
        let mut pmax = i32::MIN;
        for &(_, p, _) in c {
            pmin = pmin.min(p);
            pmax = pmax.max(p);
        }
        if pmax - pmin > FAST_POW_RANGE {
            return None;
        }
        let mut sum = 0i128;
        for &(m, p, neg) in c {
            let t = (m as i128) << (p - pmin) as u32;
            sum += if neg { -t } else { t };
        }
        Some(fast_round_f32(sum, pmin))
    }
}

impl FastDot {
    /// `F_p` residue (`p = 2^61 - 1`) of the exact pre-rounding sum: the
    /// contribution list *is* the dyadic value, so the residue is the
    /// signed sum of the homomorphic images — no shifting, no window.
    fn residue_m61(&self) -> u64 {
        use m3xu_fp::residue::{add_m61, mul_m61, pow2_m61, reduce_u64, sub_m61};
        let mut r = 0u64;
        for &(m, p, neg) in &self.contrib[..self.n] {
            let t = mul_m61(reduce_u64(m), pow2_m61(p as i64));
            r = if neg { sub_m61(r, t) } else { add_m61(r, t) };
        }
        r
    }
}

/// Collect one real-mode output element's contributions for the fast path.
///
/// The term schedule is the N-slice cross-product: every `(i, j)` slice
/// pair for the full modes, only the pairs with `i + j < N` when
/// `truncated` (the fast schedule — for N = 2 that drops the lo·lo term,
/// whose magnitude sits below the FP32 rounding boundary of the leading
/// term). The specialised `epe` 1 and full-2 loops are the historical
/// unrolls, kept verbatim for the legacy modes' bit-parity tests.
#[inline]
fn build_fast_real(
    seed: f32,
    av: &[BufferEntry],
    bv: &[BufferEntry],
    k0: usize,
    kend: usize,
    epe: usize,
    truncated: bool,
) -> Option<FastDot> {
    let mut dot = FastDot::new(seed)?;
    match (epe, truncated) {
        (1, _) => {
            for k in k0..kend {
                dot.push_pair(&av[k], &bv[k], false)?;
            }
        }
        (2, false) => {
            for k in k0..kend {
                let (ah, al) = (&av[2 * k], &av[2 * k + 1]);
                let (bh, bl) = (&bv[2 * k], &bv[2 * k + 1]);
                dot.push_pair(ah, bh, false)?;
                dot.push_pair(al, bl, false)?;
                dot.push_pair(ah, bl, false)?;
                dot.push_pair(al, bh, false)?;
            }
        }
        (2, true) => {
            // The 3-term fast schedule: HH, HL, LH — LL is dropped.
            for k in k0..kend {
                let (ah, al) = (&av[2 * k], &av[2 * k + 1]);
                let (bh, bl) = (&bv[2 * k], &bv[2 * k + 1]);
                dot.push_pair(ah, bh, false)?;
                dot.push_pair(ah, bl, false)?;
                dot.push_pair(al, bh, false)?;
            }
        }
        (n, truncated) => {
            for k in k0..kend {
                let a = &av[n * k..n * k + n];
                let b = &bv[n * k..n * k + n];
                for (i, ai) in a.iter().enumerate() {
                    for (j, bj) in b.iter().enumerate() {
                        if truncated && i + j >= n {
                            continue;
                        }
                        dot.push_pair(ai, bj, false)?;
                    }
                }
            }
        }
    }
    Some(dot)
}

/// Collect one FP32C output element's contributions for the fast path.
#[inline]
fn build_fast_c32(
    seed: Complex<f32>,
    av: &[BufferEntry],
    bv: &[BufferEntry],
    k0: usize,
    kend: usize,
) -> Option<(FastDot, FastDot)> {
    let mut re = FastDot::new(seed.re)?;
    let mut im = FastDot::new(seed.im)?;
    for k in k0..kend {
        let (xrh, xrl, xih, xil) = (&av[4 * k], &av[4 * k + 1], &av[4 * k + 2], &av[4 * k + 3]);
        let (yrh, yrl, yih, yil) = (&bv[4 * k], &bv[4 * k + 1], &bv[4 * k + 2], &bv[4 * k + 3]);
        re.push_pair(xrh, yrh, false)?;
        re.push_pair(xrl, yrl, false)?;
        re.push_pair(xih, yih, true)?;
        re.push_pair(xil, yil, true)?;
        re.push_pair(xrh, yrl, false)?;
        re.push_pair(xrl, yrh, false)?;
        re.push_pair(xih, yil, true)?;
        re.push_pair(xil, yih, true)?;
        im.push_pair(xrh, yih, false)?;
        im.push_pair(xrl, yil, false)?;
        im.push_pair(xih, yrh, false)?;
        im.push_pair(xil, yrl, false)?;
        im.push_pair(xrh, yil, false)?;
        im.push_pair(xrl, yih, false)?;
        im.push_pair(xih, yrl, false)?;
        im.push_pair(xil, yrh, false)?;
    }
    Some((re, im))
}

/// One real-mode output element over chunk `[k0, kend)`: the fast exact
/// window, else the Kulisch drain. The single definition shared by the
/// per-chunk executor and the SIMD panel's fallback — both paths are the
/// same code, not merely equivalent code. The residue `sink` receives is
/// of whatever term schedule ran — truncated or full — because the
/// contribution list and the register *are* that schedule.
#[allow(clippy::too_many_arguments)]
#[inline]
fn scalar_element_real<S: ResidueSink>(
    dpu: &mut DotProductUnit,
    seed: f32,
    av: &[BufferEntry],
    bv: &[BufferEntry],
    k0: usize,
    kend: usize,
    epe: usize,
    truncated: bool,
    lanes_per_element: u64,
    sink: &mut S,
) -> f32 {
    // Fast path: exact integer reduction in a 128-bit window, bit-
    // identical to the Kulisch drain below (see `fast_round_f32`).
    // Specials, wide exponent spreads, and oversized reductions fall
    // through to the general path.
    if let Some(dot) = build_fast_real(seed, av, bv, k0, kend, epe, truncated) {
        if let Some(v) = dot.reduce() {
            dpu.lane_ops += lanes_per_element;
            sink.absorb_re(|| Some(dot.residue_m61()));
            return v;
        }
    }
    dpu.clear_real();
    dpu.seed_real(seed as f64);
    match (epe, truncated) {
        (1, _) => {
            for k in k0..kend {
                dpu.execute_lane_op(&lane(av[k], bv[k], false, Target::Real));
            }
        }
        (2, false) => {
            // The fused 2-step FP32 stream: HH, LL (step 1) then HL, LH
            // (step 2) for each element.
            for k in k0..kend {
                let (ah, al) = (av[2 * k], av[2 * k + 1]);
                let (bh, bl) = (bv[2 * k], bv[2 * k + 1]);
                dpu.execute_lane_op(&lane(ah, bh, false, Target::Real));
                dpu.execute_lane_op(&lane(al, bl, false, Target::Real));
                dpu.execute_lane_op(&lane(ah, bl, false, Target::Real));
                dpu.execute_lane_op(&lane(al, bh, false, Target::Real));
            }
        }
        (2, true) => {
            // The fast 3-term schedule: HH (step 1), HL, LH (step 2).
            for k in k0..kend {
                let (ah, al) = (av[2 * k], av[2 * k + 1]);
                let (bh, bl) = (bv[2 * k], bv[2 * k + 1]);
                dpu.execute_lane_op(&lane(ah, bh, false, Target::Real));
                dpu.execute_lane_op(&lane(ah, bl, false, Target::Real));
                dpu.execute_lane_op(&lane(al, bh, false, Target::Real));
            }
        }
        (n, truncated) => {
            // General N-slice cross product, truncated to i + j < N when
            // requested. Lane order is irrelevant: the Kulisch register is
            // exact and the specials state machine's final value is a pure
            // function of the lane multiset.
            for k in k0..kend {
                for i in 0..n {
                    for j in 0..n {
                        if truncated && i + j >= n {
                            continue;
                        }
                        dpu.execute_lane_op(&lane(
                            av[n * k + i],
                            bv[n * k + j],
                            false,
                            Target::Real,
                        ));
                    }
                }
            }
        }
    }
    sink.absorb_re(|| dpu.real_residue_m61());
    dpu.read_real_f32()
}

/// One FP32C output element over chunk `[k0, kend)` — the complex
/// counterpart of [`scalar_element_real`].
#[inline]
fn scalar_element_c32<S: ResidueSink>(
    dpu: &mut DotProductUnit,
    seed: Complex<f32>,
    av: &[BufferEntry],
    bv: &[BufferEntry],
    k0: usize,
    kend: usize,
    sink: &mut S,
) -> Complex<f32> {
    // Fast path (see `scalar_element_real`): both components reduced
    // exactly in 128-bit windows, or the whole element falls back to the
    // Kulisch pipeline.
    if let Some((re, im)) = build_fast_c32(seed, av, bv, k0, kend) {
        if let (Some(vr), Some(vi)) = (re.reduce(), im.reduce()) {
            dpu.lane_ops += (kend.saturating_sub(k0) * 16) as u64;
            sink.absorb_pair(|| Some((re.residue_m61(), im.residue_m61())));
            return Complex::new(vr, vi);
        }
    }
    dpu.clear();
    dpu.seed_real(seed.re as f64);
    dpu.seed_imag(seed.im as f64);
    for k in k0..kend {
        let (xrh, xrl, xih, xil) = (av[4 * k], av[4 * k + 1], av[4 * k + 2], av[4 * k + 3]);
        let (yrh, yrl, yih, yil) = (bv[4 * k], bv[4 * k + 1], bv[4 * k + 2], bv[4 * k + 3]);
        // Steps 1-2 (real): a_R·b_R - a_I·b_I, matching then crossed
        // halves; the subtraction is the flipped sign bit on the
        // imaginary-imaginary lanes.
        dpu.execute_lane_op(&lane(xrh, yrh, false, Target::Real));
        dpu.execute_lane_op(&lane(xrl, yrl, false, Target::Real));
        dpu.execute_lane_op(&lane(xih, yih, true, Target::Real));
        dpu.execute_lane_op(&lane(xil, yil, true, Target::Real));
        dpu.execute_lane_op(&lane(xrh, yrl, false, Target::Real));
        dpu.execute_lane_op(&lane(xrl, yrh, false, Target::Real));
        dpu.execute_lane_op(&lane(xih, yil, true, Target::Real));
        dpu.execute_lane_op(&lane(xil, yih, true, Target::Real));
        // Steps 3-4 (imag): a_R·b_I + a_I·b_R.
        dpu.execute_lane_op(&lane(xrh, yih, false, Target::Imag));
        dpu.execute_lane_op(&lane(xrl, yil, false, Target::Imag));
        dpu.execute_lane_op(&lane(xih, yrh, false, Target::Imag));
        dpu.execute_lane_op(&lane(xil, yrl, false, Target::Imag));
        dpu.execute_lane_op(&lane(xrh, yil, false, Target::Imag));
        dpu.execute_lane_op(&lane(xrl, yih, false, Target::Imag));
        dpu.execute_lane_op(&lane(xih, yrl, false, Target::Imag));
        dpu.execute_lane_op(&lane(xil, yrh, false, Target::Imag));
    }
    sink.absorb_pair(|| Some((dpu.real_residue_m61()?, dpu.imag_residue_m61()?)));
    Complex::new(dpu.read_real_f32(), dpu.read_imag_f32())
}

/// One panel call's operands and output block: rows `r0..r0 + rows` of
/// the row-packed `a` against columns `c0..c0 + cols` of the
/// column-packed `b`.
#[derive(Clone, Copy)]
struct Panel<'p> {
    a: &'p PackedOperand,
    b: &'p PackedOperand,
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
}

impl Panel<'_> {
    /// Operand vectors of output element `(i, j)`.
    #[inline]
    fn vecs(&self, i: usize, j: usize) -> (&[BufferEntry], &[BufferEntry]) {
        (self.a.vec(self.r0 + i), self.b.vec(self.c0 + j))
    }
}

impl DotProductUnit {
    /// Execute one real-mode fragment out of packed planes, in place.
    ///
    /// Computes `acc[i*cols + j] = round(Σ_k a[r0+i][k]·b[c0+j][k] +
    /// acc[i*cols + j])` for the `rows x cols` output block at `(r0, c0)`,
    /// reducing over packed elements `k0 .. min(k0 + klen, K)`. `acc` is
    /// both the `C` input and the `D` output (row-major, `rows * cols`);
    /// nothing is allocated.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f32_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [f32],
    ) {
        assert_eq!(a.mode, b.mode, "operand modes disagree");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        let p = Panel {
            a,
            b,
            r0,
            rows,
            c0,
            cols,
        };
        self.chunk_f32(p, k0..(k0 + klen).min(a.len), acc, &mut NoResidue);
    }

    /// The scalar body of one real-mode chunk: every element through
    /// [`scalar_element_real`]. Shared by
    /// [`mma_f32_into`](DotProductUnit::mma_f32_into) and the panel's
    /// non-SIMD path.
    fn chunk_f32<S: ResidueSink>(
        &mut self,
        p: Panel,
        k: Range<usize>,
        acc: &mut [f32],
        sink: &mut S,
    ) {
        let epe = p.a.epe;
        let truncated = p.a.mode == MxuMode::M3xuFp32Fast;
        let lanes_per_element = k.len() as u64 * p.a.mode.terms_per_mac();
        for i in 0..p.rows {
            let av = p.a.vec(p.r0 + i);
            for j in 0..p.cols {
                let bv = p.b.vec(p.c0 + j);
                let d = &mut acc[i * p.cols + j];
                *d = scalar_element_real(
                    self,
                    *d,
                    av,
                    bv,
                    k.start,
                    k.end,
                    epe,
                    truncated,
                    lanes_per_element,
                    sink,
                );
            }
        }
    }

    /// Execute one FP32C fragment out of packed planes, in place — the
    /// four-step complex schedule fused per element, both components
    /// rounded once at drain.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_c32_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [Complex<f32>],
    ) {
        assert_eq!(a.mode, MxuMode::M3xuFp32c, "a is not FP32C-packed");
        assert_eq!(b.mode, MxuMode::M3xuFp32c, "b is not FP32C-packed");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        let p = Panel {
            a,
            b,
            r0,
            rows,
            c0,
            cols,
        };
        self.chunk_c32(p, k0..(k0 + klen).min(a.len), acc, &mut NoResidue);
    }

    /// The scalar body of one FP32C chunk; see
    /// [`chunk_f32`](DotProductUnit::chunk_f32).
    fn chunk_c32<S: ResidueSink>(
        &mut self,
        p: Panel,
        k: Range<usize>,
        acc: &mut [Complex<f32>],
        sink: &mut S,
    ) {
        for i in 0..p.rows {
            let av = p.a.vec(p.r0 + i);
            for j in 0..p.cols {
                let bv = p.b.vec(p.c0 + j);
                let d = &mut acc[i * p.cols + j];
                *d = scalar_element_c32(self, *d, av, bv, k.start, k.end, sink);
            }
        }
    }

    /// Execute one emulated-FP64 fragment out of packed slice planes, in
    /// place — the `f64` counterpart of
    /// [`mma_f32_into`](DotProductUnit::mma_f32_into). Each output element
    /// accumulates the full `N x N` slice cross product exactly and rounds
    /// to `f64` once per fragment chunk.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f64_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [f64],
    ) {
        assert_eq!(a.mode, MxuMode::M3xuFp64Emu, "a is not FP64-slice-packed");
        assert_eq!(b.mode, MxuMode::M3xuFp64Emu, "b is not FP64-slice-packed");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        let p = Panel {
            a,
            b,
            r0,
            rows,
            c0,
            cols,
        };
        self.chunk_f64(p, k0..(k0 + klen).min(a.len), acc, &mut NoResidue);
    }

    /// The body of one emulated-FP64 chunk. Per element: the full `N x N`
    /// slice cross product accumulated exactly in the Kulisch register,
    /// seeded with the incoming `f64` accumulator (exact — no narrowing)
    /// and drained back to `f64` once per chunk. There is no 128-bit fast
    /// window here: the 53-bit seed and the wider slice family exceed its
    /// design envelope, and the emulated mode is the precision dial's
    /// accuracy endpoint, not its speed endpoint.
    fn chunk_f64<S: ResidueSink>(
        &mut self,
        p: Panel,
        k: Range<usize>,
        acc: &mut [f64],
        sink: &mut S,
    ) {
        let epe = p.a.epe;
        for i in 0..p.rows {
            let av = p.a.vec(p.r0 + i);
            for j in 0..p.cols {
                let bv = p.b.vec(p.c0 + j);
                let d = &mut acc[i * p.cols + j];
                self.clear_real();
                self.seed_real(*d);
                for kk in k.clone() {
                    for si in 0..epe {
                        for sj in 0..epe {
                            self.execute_lane_op(&lane(
                                av[epe * kk + si],
                                bv[epe * kk + sj],
                                false,
                                Target::Real,
                            ));
                        }
                    }
                }
                sink.absorb_re(|| self.real_residue_m61());
                *d = self.read_real_f64();
            }
        }
    }

    /// Execute a whole `K`-panel `[k0, kend)` of one emulated-FP64 output
    /// tile, chunked at the fragment depth `frag_k` — bit-identical to
    /// looping [`mma_f64_into`](DotProductUnit::mma_f64_into) over the
    /// same chunks (it *is* that loop; the emulated mode has no SIMD row
    /// kernel).
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f64_panel_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [f64],
    ) {
        let sink = &mut NoResidue;
        self.mma_f64_panel_sink_into(a, b, r0, rows, c0, cols, k0, kend, frag_k, acc, sink);
    }

    /// [`mma_f64_panel_into`](DotProductUnit::mma_f64_panel_into),
    /// reporting every element's exact pre-rounding residue into `sink`
    /// (drained from the same Kulisch register as the rounded value); see
    /// [`mma_f32_panel_sink_into`](DotProductUnit::mma_f32_panel_sink_into).
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f64_panel_sink_into<S: ResidueSink>(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [f64],
        sink: &mut S,
    ) {
        assert_eq!(a.mode, MxuMode::M3xuFp64Emu, "a is not FP64-slice-packed");
        assert_eq!(b.mode, MxuMode::M3xuFp64Emu, "b is not FP64-slice-packed");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        assert!(frag_k > 0, "fragment depth must be positive");
        let p = Panel {
            a,
            b,
            r0,
            rows,
            c0,
            cols,
        };
        let kend = kend.min(a.len);
        for ck0 in (k0..kend).step_by(frag_k) {
            self.chunk_f64(p, ck0..(ck0 + frag_k).min(kend), acc, sink);
        }
    }

    /// Execute a whole `K`-panel `[k0, kend)` of one real-mode output
    /// tile, chunked at the fragment depth `frag_k`.
    ///
    /// Rounding stays per fragment chunk — each chunk's rounded result
    /// seeds the next — so this is bit-identical to looping
    /// [`mma_f32_into`](DotProductUnit::mma_f32_into) over the same
    /// chunks. What changes is the instruction mix: full 8-column rows
    /// of row-major `A` against k-major `B` dispatch to the
    /// [`simd`] row kernels when a vector level is active, forming each
    /// chunk's exact value from whole-product `f64` lanes instead of
    /// split-mantissa buffer entries.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f32_panel_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [f32],
    ) {
        let sink = &mut NoResidue;
        self.mma_f32_panel_sink_into(a, b, r0, rows, c0, cols, k0, kend, frag_k, acc, sink);
    }

    /// [`mma_f32_panel_into`](DotProductUnit::mma_f32_panel_into), also
    /// reporting into `sink` the `F_p` residue of every output element's
    /// exact pre-rounding value in every chunk. Each residue is taken from
    /// the same exact value the rounder consumes, on whichever tier ran
    /// the element: the SIMD row kernels' 128-bit window, the scalar fast
    /// path's contribution list, or the Kulisch register.
    ///
    /// With [`NoResidue`] this *is* the unchecked panel. The ABFT-checked
    /// driver runs one chunk per call into a [`crate::abft::Checksum`] —
    /// the chunk's computed checksum — so a checked chunk takes the SIMD
    /// row kernels whenever an unchecked one would.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f32_panel_sink_into<S: ResidueSink>(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [f32],
        sink: &mut S,
    ) {
        assert_eq!(a.mode, b.mode, "operand modes disagree");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        assert!(frag_k > 0, "fragment depth must be positive");
        let p = Panel {
            a,
            b,
            r0,
            rows,
            c0,
            cols,
        };
        let kend = kend.min(a.len);
        let level = simd::level();
        // The fast truncated mode is excluded from the SIMD row kernels:
        // they form whole `f64` products per element (the exact a·b, i.e.
        // all four slice terms fused), which would silently restore the
        // dropped lo·lo term. Fast fragments stay on the scalar schedule.
        if level != simd::SimdLevel::Scalar
            && cols == simd::COLS
            && frag_k <= simd::MAX_KLEN
            && !a.transposed
            && b.transposed
            && a.mode != MxuMode::M3xuFp32Fast
        {
            match level {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `level` is clamped to the host's detected
                // capability, so Avx2 here implies the CPU supports it.
                simd::SimdLevel::Avx2 => unsafe {
                    self.simd_panel_f32_avx2(p, k0..kend, frag_k, acc, sink)
                },
                _ => self.simd_panel_f32(level, p, k0..kend, frag_k, acc, sink),
            }
            return;
        }
        for ck0 in (k0..kend).step_by(frag_k) {
            self.chunk_f32(p, ck0..(ck0 + frag_k).min(kend), acc, sink);
        }
    }

    /// The FP32C counterpart of
    /// [`mma_f32_panel_into`](DotProductUnit::mma_f32_panel_into):
    /// executes `[k0, kend)` in `frag_k`-deep chunks, bit-identical to
    /// the per-chunk loop, with full 8-column rows dispatched to the
    /// complex SIMD row kernels when a vector level is active.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_c32_panel_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [Complex<f32>],
    ) {
        let sink = &mut NoResidue;
        self.mma_c32_panel_sink_into(a, b, r0, rows, c0, cols, k0, kend, frag_k, acc, sink);
    }

    /// [`mma_c32_panel_into`](DotProductUnit::mma_c32_panel_into),
    /// reporting every element's residue pair into `sink`; see
    /// [`mma_f32_panel_sink_into`](DotProductUnit::mma_f32_panel_sink_into).
    #[allow(clippy::too_many_arguments)]
    pub fn mma_c32_panel_sink_into<S: ResidueSink>(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [Complex<f32>],
        sink: &mut S,
    ) {
        assert_eq!(a.mode, MxuMode::M3xuFp32c, "a is not FP32C-packed");
        assert_eq!(b.mode, MxuMode::M3xuFp32c, "b is not FP32C-packed");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        assert!(frag_k > 0, "fragment depth must be positive");
        let p = Panel {
            a,
            b,
            r0,
            rows,
            c0,
            cols,
        };
        let kend = kend.min(a.len);
        let level = simd::level();
        if level != simd::SimdLevel::Scalar
            && cols == simd::COLS
            && frag_k == 1
            && !a.transposed
            && b.transposed
        {
            match level {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `level` is clamped to the host's detected
                // capability, so Avx2 here implies the CPU supports it.
                simd::SimdLevel::Avx2 => unsafe {
                    self.simd_panel_c32_avx2(p, k0..kend, acc, sink)
                },
                _ => self.simd_panel_c32(level, p, k0..kend, acc, sink),
            }
            return;
        }
        for ck0 in (k0..kend).step_by(frag_k) {
            self.chunk_c32(p, ck0..(ck0 + frag_k).min(kend), acc, sink);
        }
    }

    /// The AVX2 build of [`simd_panel_f32`](DotProductUnit::simd_panel_f32):
    /// `#[target_feature]` lets the row-product kernel inline into the
    /// panel loop instead of paying a call and a product store/reload per
    /// chunk.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn simd_panel_f32_avx2<S: ResidueSink>(
        &mut self,
        p: Panel,
        k: Range<usize>,
        frag_k: usize,
        acc: &mut [f32],
        sink: &mut S,
    ) {
        self.simd_panel_f32(simd::SimdLevel::Avx2, p, k, frag_k, acc, sink)
    }

    /// SIMD body of the real-mode panel: per row, per chunk, form the
    /// `klen` whole products for all 8 columns with one vector pass, then
    /// round each column's exact chunk value. Any column the exact window
    /// cannot absorb (specials, wide exponent spread) falls back to the
    /// scalar element path for that one (element, chunk) — the shared
    /// [`scalar_element_real`] — so results match the scalar pipeline bit
    /// for bit no matter which path each element took.
    #[inline(always)]
    fn simd_panel_f32<S: ResidueSink>(
        &mut self,
        level: simd::SimdLevel,
        p: Panel,
        k: Range<usize>,
        frag_k: usize,
        acc: &mut [f32],
        sink: &mut S,
    ) {
        let (n, alen) = (p.b.vecs, p.a.len);
        let mut prods = [[0f64; simd::COLS]; simd::MAX_KLEN];
        for i in 0..p.rows {
            let arow = &p.a.vals[(p.r0 + i) * alen..(p.r0 + i) * alen + alen];
            let row_acc: &mut [f32; simd::COLS] = (&mut acc[i * simd::COLS..(i + 1) * simd::COLS])
                .try_into()
                .expect("panel accumulator row is exactly one fragment row");
            let mut seeds = simd::RowSeeds::load(row_acc);
            for ck0 in k.clone().step_by(frag_k) {
                let klen = frag_k.min(k.end - ck0);
                simd::row_products(level, arow, &p.b.vals, n, p.c0, ck0, klen, &mut prods);
                // Constant-depth dispatch: the rounding kernel fully
                // unrolls for each chunk depth.
                match klen {
                    1 => self.simd_row_chunk::<1, S>(
                        level, p, i, ck0, &prods, row_acc, &mut seeds, sink,
                    ),
                    2 => self.simd_row_chunk::<2, S>(
                        level, p, i, ck0, &prods, row_acc, &mut seeds, sink,
                    ),
                    3 => self.simd_row_chunk::<3, S>(
                        level, p, i, ck0, &prods, row_acc, &mut seeds, sink,
                    ),
                    4 => self.simd_row_chunk::<4, S>(
                        level, p, i, ck0, &prods, row_acc, &mut seeds, sink,
                    ),
                    _ => unreachable!("fragment depth exceeds the SIMD kernel maximum"),
                }
            }
        }
    }

    /// One `T`-deep chunk across fragment row `i`'s 8 columns: exact
    /// rounding of each column's chunk value, with the per-(element,
    /// chunk) scalar fallback.
    ///
    /// At the AVX2 level the whole accumulate — operand decode, window
    /// anchoring, spread check, and the 128-bit shifted sum — runs
    /// vectorised four columns per register; only the final
    /// round-to-f32 (a handful of scalar ops per column) and any
    /// fallback columns run scalar. Below AVX2 the per-column scalar
    /// accumulate is used unchanged. Either way the residue `sink`
    /// receives is of the exact window the rounder consumed.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn simd_row_chunk<const T: usize, S: ResidueSink>(
        &mut self,
        level: simd::SimdLevel,
        p: Panel,
        i: usize,
        ck0: usize,
        prods: &[[f64; simd::COLS]; simd::MAX_KLEN],
        acc: &mut [f32; simd::COLS],
        seeds: &mut simd::RowSeeds,
        sink: &mut S,
    ) {
        let epe = p.a.epe;
        let lanes = (T * epe * epe) as u64;
        #[cfg(not(target_arch = "x86_64"))]
        let _ = level;
        // Each column's accumulator threads through consecutive chunks in
        // decoded form (`seeds`): the rounded result's mantissa/power feed
        // the next chunk's accumulate directly, and the f32 stores into
        // `acc` sit off that loop-carried chain. The f32 value and the
        // decoded form denote the same number, so the fallback arm (which
        // reads and writes the f32) re-synchronises losslessly.
        #[cfg(target_arch = "x86_64")]
        if level == simd::SimdLevel::Avx2 {
            let mut lo = [0u64; simd::COLS];
            let mut hi = [0u64; simd::COLS];
            let mut base = [0i64; simd::COLS];
            // SAFETY: Avx2 here implies detected host support (levels are
            // clamped at resolve/set time).
            let okm = unsafe {
                simd::x86::accumulate_chunk_avx2(T, prods, seeds, &mut lo, &mut hi, &mut base)
            } & seeds.finite;
            for (j, d) in acc.iter_mut().enumerate() {
                if okm >> j & 1 == 1 {
                    self.lane_ops += lanes;
                    let sum = (((hi[j] as u128) << 64) | lo[j] as u128) as i128;
                    let (sign, frac, weight, finite) = fast_round_parts(sum, base[j] as i32);
                    *d = fast_round_assemble(sign, frac, weight, finite);
                    sink.absorb_re(|| Some(residue_i128(sum, base[j])));
                    seeds.set(
                        j,
                        simd::ChunkSeed {
                            mant: frac,
                            pow: weight,
                            neg: sign != 0,
                            finite,
                        },
                    );
                } else {
                    let (av, bv) = p.vecs(i, j);
                    *d = scalar_element_real(
                        self,
                        *d,
                        av,
                        bv,
                        ck0,
                        ck0 + T,
                        epe,
                        false,
                        lanes,
                        sink,
                    );
                    seeds.set(j, simd::ChunkSeed::decode(*d));
                }
            }
            return;
        }
        for (j, d) in acc.iter_mut().enumerate() {
            let mut terms = [0f64; T];
            for (t, term) in terms.iter_mut().enumerate() {
                *term = prods[t][j];
            }
            let (sum, pmin, o) = simd::exact_chunk_accumulate_seeded(seeds.get(j), &terms);
            if o {
                self.lane_ops += lanes;
                let (sign, frac, weight, finite) = fast_round_parts(sum, pmin);
                *d = fast_round_assemble(sign, frac, weight, finite);
                sink.absorb_re(|| Some(residue_i128(sum, pmin as i64)));
                seeds.set(
                    j,
                    simd::ChunkSeed {
                        mant: frac,
                        pow: weight,
                        neg: sign != 0,
                        finite,
                    },
                );
            } else {
                let (av, bv) = p.vecs(i, j);
                *d = scalar_element_real(self, *d, av, bv, ck0, ck0 + T, epe, false, lanes, sink);
                seeds.set(j, simd::ChunkSeed::decode(*d));
            }
        }
    }

    /// The AVX2 build of [`simd_panel_c32`](DotProductUnit::simd_panel_c32).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn simd_panel_c32_avx2<S: ResidueSink>(
        &mut self,
        p: Panel,
        k: Range<usize>,
        acc: &mut [Complex<f32>],
        sink: &mut S,
    ) {
        self.simd_panel_c32(simd::SimdLevel::Avx2, p, k, acc, sink)
    }

    /// SIMD body of the FP32C panel (`frag_k == 1`): per row, per packed
    /// element, form the four component product rows `a_R·b_R`, `a_I·b_I`,
    /// `a_R·b_I`, `a_I·b_R` for all 8 columns, then round
    /// `re + a_R·b_R - a_I·b_I` and `im + a_R·b_I + a_I·b_R` exactly.
    /// Either component failing the exact window sends that (element,
    /// chunk) to the shared [`scalar_element_c32`] fallback.
    #[inline(always)]
    fn simd_panel_c32<S: ResidueSink>(
        &mut self,
        level: simd::SimdLevel,
        p: Panel,
        k: Range<usize>,
        acc: &mut [Complex<f32>],
        sink: &mut S,
    ) {
        let (n, alen) = (p.b.vecs, p.a.len);
        // B's value planes: real plane then imaginary plane, each k-major.
        let (bre_plane, bim_plane) = p.b.vals.split_at(alen * n);
        let mut prods = [[0f64; simd::COLS]; 4];
        for i in 0..p.rows {
            #[cfg(target_arch = "x86_64")]
            if level == simd::SimdLevel::Avx2 {
                self.simd_c32_row_avx2(p, i, k.clone(), acc, sink);
                continue;
            }
            let arow = &p.a.vals[(p.r0 + i) * 2 * alen..(p.r0 + i + 1) * 2 * alen];
            for kk in k.clone() {
                let (ar, ai) = (arow[2 * kk], arow[2 * kk + 1]);
                let bre = &bre_plane[kk * n + p.c0..kk * n + p.c0 + simd::COLS];
                let bim = &bim_plane[kk * n + p.c0..kk * n + p.c0 + simd::COLS];
                simd::row_products_c32(level, ar, ai, bre, bim, &mut prods);
                for j in 0..simd::COLS {
                    let d = &mut acc[i * simd::COLS + j];
                    let (sr, pr, okr) =
                        simd::exact_chunk_accumulate(d.re, &[prods[0][j], prods[1][j]]);
                    let (si, pi, oki) =
                        simd::exact_chunk_accumulate(d.im, &[prods[2][j], prods[3][j]]);
                    if okr && oki {
                        self.lane_ops += 16;
                        *d = Complex::new(fast_round_f32(sr, pr), fast_round_f32(si, pi));
                        sink.absorb_pair(|| {
                            Some((residue_i128(sr, pr as i64), residue_i128(si, pi as i64)))
                        });
                    } else {
                        let (av, bv) = p.vecs(i, j);
                        *d = scalar_element_c32(self, *d, av, bv, kk, kk + 1, sink);
                    }
                }
            }
        }
    }

    /// One FP32C fragment row of the AVX2 panel: both components'
    /// accumulates run through the vectorised 128-bit window kernel
    /// (`prods[0..2]` are the real component's terms — the product
    /// kernel emits `-a_I·b_I` pre-negated — and `prods[2..4]` the
    /// imaginary's), with the accumulator threaded across the `K`-loop
    /// in decoded [`simd::RowSeeds`] form exactly like the FP32 panel.
    /// Either component failing its window sends that (element, k) to
    /// the whole-element scalar fallback, as in the scalar-accumulate
    /// body.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn simd_c32_row_avx2<S: ResidueSink>(
        &mut self,
        p: Panel,
        i: usize,
        k: Range<usize>,
        acc: &mut [Complex<f32>],
        sink: &mut S,
    ) {
        let (n, alen) = (p.b.vecs, p.a.len);
        let (bre_plane, bim_plane) = p.b.vals.split_at(alen * n);
        let arow = &p.a.vals[(p.r0 + i) * 2 * alen..(p.r0 + i + 1) * 2 * alen];
        let row = &mut acc[i * simd::COLS..(i + 1) * simd::COLS];
        let mut re_acc = [0f32; simd::COLS];
        let mut im_acc = [0f32; simd::COLS];
        for (j, d) in row.iter().enumerate() {
            re_acc[j] = d.re;
            im_acc[j] = d.im;
        }
        let mut sre = simd::RowSeeds::load(&re_acc);
        let mut sim = simd::RowSeeds::load(&im_acc);
        let mut prods = [[0f64; simd::COLS]; 4];
        let (mut lo_r, mut hi_r, mut base_r) =
            ([0u64; simd::COLS], [0u64; simd::COLS], [0i64; simd::COLS]);
        let (mut lo_i, mut hi_i, mut base_i) =
            ([0u64; simd::COLS], [0u64; simd::COLS], [0i64; simd::COLS]);
        for kk in k {
            let (ar, ai) = (arow[2 * kk], arow[2 * kk + 1]);
            let bre = &bre_plane[kk * n + p.c0..kk * n + p.c0 + simd::COLS];
            let bim = &bim_plane[kk * n + p.c0..kk * n + p.c0 + simd::COLS];
            simd::row_products_c32(simd::SimdLevel::Avx2, ar, ai, bre, bim, &mut prods);
            // SAFETY: this path is only entered at the Avx2 level, which
            // is clamped to detected host capability.
            let okm = unsafe {
                let okr = simd::x86::accumulate_chunk_avx2(
                    2,
                    &prods[0..2],
                    &sre,
                    &mut lo_r,
                    &mut hi_r,
                    &mut base_r,
                );
                let oki = simd::x86::accumulate_chunk_avx2(
                    2,
                    &prods[2..4],
                    &sim,
                    &mut lo_i,
                    &mut hi_i,
                    &mut base_i,
                );
                okr & oki
            } & sre.finite
                & sim.finite;
            for j in 0..simd::COLS {
                if okm >> j & 1 == 1 {
                    self.lane_ops += 16;
                    let sr = (((hi_r[j] as u128) << 64) | lo_r[j] as u128) as i128;
                    let (sg, fr, w, fin) = fast_round_parts(sr, base_r[j] as i32);
                    re_acc[j] = fast_round_assemble(sg, fr, w, fin);
                    sre.set(
                        j,
                        simd::ChunkSeed {
                            mant: fr,
                            pow: w,
                            neg: sg != 0,
                            finite: fin,
                        },
                    );
                    let si = (((hi_i[j] as u128) << 64) | lo_i[j] as u128) as i128;
                    let (sg, fr, w, fin) = fast_round_parts(si, base_i[j] as i32);
                    im_acc[j] = fast_round_assemble(sg, fr, w, fin);
                    sim.set(
                        j,
                        simd::ChunkSeed {
                            mant: fr,
                            pow: w,
                            neg: sg != 0,
                            finite: fin,
                        },
                    );
                    sink.absorb_pair(|| {
                        Some((residue_i128(sr, base_r[j]), residue_i128(si, base_i[j])))
                    });
                } else {
                    let (av, bv) = p.vecs(i, j);
                    let seed = Complex::new(re_acc[j], im_acc[j]);
                    let d = scalar_element_c32(self, seed, av, bv, kk, kk + 1, sink);
                    re_acc[j] = d.re;
                    im_acc[j] = d.im;
                    sre.set(j, simd::ChunkSeed::decode(d.re));
                    sim.set(j, simd::ChunkSeed::decode(d.im));
                }
            }
        }
        for (j, d) in row.iter_mut().enumerate() {
            *d = Complex::new(re_acc[j], im_acc[j]);
        }
    }
}

impl Mxu {
    /// One packed real-mode fragment MMA on this unit's fragment shape,
    /// recording the same per-fragment counters as the tile-based entry
    /// points. `dpu` is caller-owned scratch (reusing it across fragments
    /// keeps the wide accumulation registers off the allocator). Returns
    /// the `(rows, cols)` of the output block actually written.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f32_into(
        &mut self,
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        c0: usize,
        k0: usize,
        acc: &mut [f32],
    ) -> (usize, usize) {
        let mode = a.mode();
        let shape = self.shape(mode);
        let rows = shape.m.min(a.vecs().saturating_sub(r0));
        let cols = shape.n.min(b.vecs().saturating_sub(c0));
        dpu.mma_f32_into(a, b, r0, rows, c0, cols, k0, shape.k, acc);
        self.counters.record(mode, &fragment_stats(mode, shape));
        (rows, cols)
    }

    /// One packed emulated-FP64 fragment MMA, mirroring
    /// [`Mxu::mma_f32_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f64_into(
        &mut self,
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        c0: usize,
        k0: usize,
        acc: &mut [f64],
    ) -> (usize, usize) {
        let mode = a.mode();
        let shape = self.shape(mode);
        let rows = shape.m.min(a.vecs().saturating_sub(r0));
        let cols = shape.n.min(b.vecs().saturating_sub(c0));
        dpu.mma_f64_into(a, b, r0, rows, c0, cols, k0, shape.k, acc);
        self.counters.record(mode, &fragment_stats(mode, shape));
        (rows, cols)
    }

    /// One packed FP32C fragment MMA, mirroring [`Mxu::mma_f32_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn mma_c32_into(
        &mut self,
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        c0: usize,
        k0: usize,
        acc: &mut [Complex<f32>],
    ) -> (usize, usize) {
        let mode = MxuMode::M3xuFp32c;
        let shape = self.shape(mode);
        let rows = shape.m.min(a.vecs().saturating_sub(r0));
        let cols = shape.n.min(b.vecs().saturating_sub(c0));
        dpu.mma_c32_into(a, b, r0, rows, c0, cols, k0, shape.k, acc);
        self.counters.record(mode, &fragment_stats(mode, shape));
        (rows, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abft::Checksum;
    use crate::mma;
    use crate::unit::MxuConfig;

    #[test]
    fn packing_rejects_non_real_modes_without_panicking() {
        let m = Matrix::<f32>::random(4, 4, 1);
        for mode in [
            MxuMode::M3xuFp32c,
            MxuMode::M3xuFp64,
            MxuMode::M3xuFp64Emu,
            MxuMode::M3xuFp64c,
        ] {
            let row_err = PackedOperand::try_pack_rows_f32(&m, mode).unwrap_err();
            assert!(matches!(row_err, M3xuError::ModeMismatch { got, .. } if got == mode));
            let col_err = PackedOperand::try_pack_cols_f32(&m, mode).unwrap_err();
            assert!(matches!(col_err, M3xuError::ModeMismatch { got, .. } if got == mode));
        }
    }

    #[test]
    fn f64_packing_rejects_every_other_mode() {
        let m = Matrix::from_fn(2, 2, |i, j| (1 + i * 2 + j) as f64 / 3.0);
        for mode in MxuMode::ALL {
            if mode == MxuMode::M3xuFp64Emu {
                assert!(PackedOperand::try_pack_rows_f64(&m, mode).is_ok());
                assert!(PackedOperand::try_pack_cols_f64(&m, mode).is_ok());
            } else {
                let err = PackedOperand::try_pack_rows_f64(&m, mode).unwrap_err();
                assert!(matches!(err, M3xuError::ModeMismatch { got, .. } if got == mode));
                let err = PackedOperand::try_pack_cols_f64(&m, mode).unwrap_err();
                assert!(matches!(err, M3xuError::ModeMismatch { got, .. } if got == mode));
            }
        }
    }

    #[test]
    fn packed_fp32_fast_matches_truncated_kulisch_reference() {
        use m3xu_fp::split::split_fp32;
        // One 8x8x2 fragment: the fast schedule's chunk value is the exact
        // sum of seed + HH + HL + LH over the chunk, rounded once.
        let a = Matrix::<f32>::random(8, 2, 141);
        let b = Matrix::<f32>::random(2, 8, 142);
        let c = Matrix::<f32>::random(8, 8, 143);
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32Fast);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32Fast);
        assert_eq!(pa.epe(), 2);
        let mut acc: Vec<f32> = c.as_slice().to_vec();
        let mut dpu = DotProductUnit::new();
        dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut acc);
        for i in 0..8 {
            for j in 0..8 {
                let mut kul = m3xu_fp::Kulisch::new();
                kul.add_f64(c.get(i, j) as f64);
                for k in 0..2 {
                    let (ah, al) = split_fp32(a.get(i, k));
                    let (bh, bl) = split_fp32(b.get(k, j));
                    kul.add_product_f32(ah, bh);
                    kul.add_product_f32(ah, bl);
                    kul.add_product_f32(al, bh);
                }
                assert_eq!(
                    acc[i * 8 + j].to_bits(),
                    kul.to_f32().to_bits(),
                    "fast-schedule mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn fast_mode_panel_never_takes_the_simd_row_kernels() {
        // The SIMD row kernels form whole products, which would restore
        // the dropped lo.lo term; the panel must produce the truncated
        // scalar result whatever the active SIMD level.
        let a = Matrix::<f32>::random(8, 8, 151);
        let b = Matrix::<f32>::random(8, 8, 152);
        let c = Matrix::<f32>::random(8, 8, 153);
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32Fast);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32Fast);
        let mut dpu = DotProductUnit::new();
        let mut panel: Vec<f32> = c.as_slice().to_vec();
        dpu.mma_f32_panel_into(&pa, &pb, 0, 8, 0, 8, 0, 8, 2, &mut panel);
        let mut chunked: Vec<f32> = c.as_slice().to_vec();
        for ck0 in (0..8).step_by(2) {
            dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, ck0, 2, &mut chunked);
        }
        for (x, y) in panel.iter().zip(&chunked) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // And the full mode on the same data differs (lo.lo matters for
        // generic inputs) — the truncation is real, not a no-op.
        let paf = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pbf = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let mut full: Vec<f32> = c.as_slice().to_vec();
        dpu.mma_f32_panel_into(&paf, &pbf, 0, 8, 0, 8, 0, 8, 2, &mut full);
        assert!(
            panel
                .iter()
                .zip(&full)
                .any(|(x, y)| x.to_bits() != y.to_bits()),
            "truncated and full schedules coincided on random data"
        );
    }

    #[test]
    fn packed_fp64_emu_fragment_matches_kulisch_reference() {
        // One fragment chunk accumulates all 25 slice products per k plus
        // the f64 seed exactly, rounding once to f64 at drain.
        let a = Matrix::from_fn(8, 3, |i, j| ((1 + i * 3 + j) as f64 / 7.0).sin());
        let b = Matrix::from_fn(3, 8, |i, j| ((2 + i * 8 + j) as f64 / 11.0).cos());
        let c = Matrix::from_fn(8, 8, |i, j| (i as f64 - j as f64) / 13.0);
        let pa = PackedOperand::try_pack_rows_f64(&a, MxuMode::M3xuFp64Emu).unwrap();
        let pb = PackedOperand::try_pack_cols_f64(&b, MxuMode::M3xuFp64Emu).unwrap();
        assert_eq!((pa.epe(), pa.len(), pa.vecs()), (5, 3, 8));
        let mut acc: Vec<f64> = c.as_slice().to_vec();
        let mut dpu = DotProductUnit::new();
        dpu.mma_f64_into(&pa, &pb, 0, 8, 0, 8, 0, 3, &mut acc);
        let cfg = m3xu_fp::split::FP64_SLICES_EMULATED;
        for i in 0..8 {
            for j in 0..8 {
                let mut kul = m3xu_fp::Kulisch::new();
                kul.add_f64(c.get(i, j));
                for k in 0..3 {
                    let sa = cfg.split_f64(a.get(i, k));
                    let sb = cfg.split_f64(b.get(k, j));
                    for si in 0..5 {
                        for sj in 0..5 {
                            kul.add_product_f64(sa.get(si), sb.get(sj));
                        }
                    }
                }
                assert_eq!(
                    acc[i * 8 + j].to_bits(),
                    kul.to_f64().to_bits(),
                    "emulated-FP64 mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn packed_fp64_emu_specials_propagate() {
        let vals = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5e-300,
            2.0,
            -3.25,
        ];
        let a = Matrix::from_fn(4, 2, |i, j| vals[(i + j) % vals.len()]);
        let b = Matrix::from_fn(2, 4, |i, j| vals[(3 * i + j + 1) % vals.len()]);
        let pa = PackedOperand::try_pack_rows_f64(&a, MxuMode::M3xuFp64Emu).unwrap();
        let pb = PackedOperand::try_pack_cols_f64(&b, MxuMode::M3xuFp64Emu).unwrap();
        let mut acc = vec![0.0f64; 16];
        let mut dpu = DotProductUnit::new();
        dpu.mma_f64_panel_into(&pa, &pb, 0, 4, 0, 4, 0, 2, 1, &mut acc);
        // IEEE reference with per-chunk (frag_k = 1) rounding, the specials
        // resolved as the accumulator state machine does: any NaN input or
        // Inf*0 poisons, opposing infinities poison, a single infinity sign
        // wins, finite chunks accumulate exactly and round once.
        let chunk = |seed: f64, x: f64, y: f64| -> f64 {
            if seed.is_nan() || x.is_nan() || y.is_nan() {
                return f64::NAN;
            }
            if (x.is_infinite() && y == 0.0) || (y.is_infinite() && x == 0.0) {
                return f64::NAN;
            }
            if x.is_infinite() || y.is_infinite() {
                let p = x * y; // +-Inf with the product sign
                if seed.is_infinite() && seed != p {
                    return f64::NAN;
                }
                return p;
            }
            if seed.is_infinite() {
                return seed;
            }
            let mut kul = m3xu_fp::Kulisch::new();
            kul.add_f64(seed);
            kul.add_product_f64(x, y);
            kul.to_f64()
        };
        for i in 0..4 {
            for j in 0..4 {
                let mut want = 0.0f64;
                for k in 0..2 {
                    want = chunk(want, a.get(i, k), b.get(k, j));
                }
                let got = acc[i * 4 + j];
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "specials mismatch at ({i},{j}): got {got:?} want {want:?}"
                );
            }
        }
    }

    #[test]
    fn pack_layout_and_values() {
        let m = Matrix::from_fn(2, 3, |i, j| (1 + i * 3 + j) as f32 * 1.5);
        let rows = PackedOperand::pack_rows_f32(&m, MxuMode::M3xuFp32);
        assert_eq!((rows.vecs(), rows.len(), rows.epe()), (2, 3, 2));
        // Each element's hi+lo halves reconstruct it exactly.
        for i in 0..2 {
            let v = rows.vec(i);
            for j in 0..3 {
                assert_eq!(v[2 * j].value() + v[2 * j + 1].value(), m.get(i, j) as f64);
            }
        }
        let cols = PackedOperand::pack_cols_f32(&m, MxuMode::M3xuFp32);
        assert_eq!((cols.vecs(), cols.len()), (3, 2));
        assert_eq!(
            cols.vec(1)[0].value() + cols.vec(1)[1].value(),
            m.get(0, 1) as f64
        );
    }

    #[test]
    fn packed_fp32_fragment_matches_tile_mma_bitwise() {
        let a = Matrix::<f32>::random(8, 2, 41);
        let b = Matrix::<f32>::random(2, 8, 42);
        let c = Matrix::<f32>::random(8, 8, 43);
        let mut stats = MmaStats::default();
        let want = mma::mma_fp32(&a, &b, &c, &mut stats);

        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let mut acc: Vec<f32> = c.as_slice().to_vec();
        let mut dpu = DotProductUnit::new();
        dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut acc);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(acc[i * 8 + j].to_bits(), want.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn packed_narrow_and_tf32_match_tile_mma() {
        for mode in [MxuMode::Fp16, MxuMode::Bf16, MxuMode::Tf32] {
            let a = Matrix::<f32>::random(8, 4, 7);
            let b = Matrix::<f32>::random(4, 8, 8);
            let c = Matrix::<f32>::random(8, 8, 9);
            let mut stats = MmaStats::default();
            let want = match mode {
                MxuMode::Fp16 => {
                    // The tile path quantises at the buffers; feed raw f32.
                    mma::mma_narrow(m3xu_fp::format::FP16, &a, &b, &c, &mut stats)
                }
                MxuMode::Bf16 => mma::mma_narrow(m3xu_fp::format::BF16, &a, &b, &c, &mut stats),
                _ => mma::mma_tf32(&a, &b, &c, &mut stats),
            };
            let pa = PackedOperand::pack_rows_f32(&a, mode);
            let pb = PackedOperand::pack_cols_f32(&b, mode);
            let mut acc: Vec<f32> = c.as_slice().to_vec();
            let mut dpu = DotProductUnit::new();
            dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 4, &mut acc);
            for i in 0..8 {
                for j in 0..8 {
                    assert_eq!(
                        acc[i * 8 + j].to_bits(),
                        want.get(i, j).to_bits(),
                        "mismatch at ({i},{j}) in {mode}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_c32_fragment_matches_tile_mma_bitwise() {
        let a = Matrix::random_c32(8, 1, 51);
        let b = Matrix::random_c32(1, 8, 52);
        let c = Matrix::random_c32(8, 8, 53);
        let mut stats = MmaStats::default();
        let want = mma::mma_fp32c(&a, &b, &c, &mut stats);

        let pa = PackedOperand::pack_rows_c32(&a);
        let pb = PackedOperand::pack_cols_c32(&b);
        let mut acc: Vec<Complex<f32>> = c.as_slice().to_vec();
        let mut dpu = DotProductUnit::new();
        dpu.mma_c32_into(&pa, &pb, 0, 8, 0, 8, 0, 1, &mut acc);
        for i in 0..8 {
            for j in 0..8 {
                let (got, w) = (acc[i * 8 + j], want.get(i, j));
                assert_eq!(got.re.to_bits(), w.re.to_bits());
                assert_eq!(got.im.to_bits(), w.im.to_bits());
            }
        }
    }

    #[test]
    fn packed_specials_match_tile_mma() {
        // NaN, infinities of both signs, subnormals, and Inf x 0 lanes.
        let vals = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0e-44,
            f32::MAX,
            1.5,
        ];
        let a = Matrix::from_fn(8, 2, |i, j| vals[(i + j) % vals.len()]);
        let b = Matrix::from_fn(2, 8, |i, j| vals[(3 * i + j) % vals.len()]);
        let c = Matrix::<f32>::zeros(8, 8);
        let mut stats = MmaStats::default();
        let want = mma::mma_fp32(&a, &b, &c, &mut stats);
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let mut acc = vec![0.0f32; 64];
        let mut dpu = DotProductUnit::new();
        dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut acc);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(
                    acc[i * 8 + j].to_bits(),
                    want.get(i, j).to_bits(),
                    "special-value mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn fragment_stats_match_tile_counters() {
        // FP32: one 8x8x2 fragment on the tile path.
        let a = Matrix::<f32>::random(8, 2, 1);
        let b = Matrix::<f32>::random(2, 8, 2);
        let c = Matrix::<f32>::zeros(8, 8);
        let mut tile = MmaStats::default();
        let _ = mma::mma_fp32(&a, &b, &c, &mut tile);
        let shape = MmaShape::BASELINE_FP16.for_mode(MxuMode::M3xuFp32);
        assert_eq!(fragment_stats(MxuMode::M3xuFp32, shape), tile);

        // FP32C: one 8x8x1 fragment.
        let a = Matrix::random_c32(8, 1, 3);
        let b = Matrix::random_c32(1, 8, 4);
        let c = Matrix::random_c32(8, 8, 5);
        let mut tile = MmaStats::default();
        let _ = mma::mma_fp32c(&a, &b, &c, &mut tile);
        let shape = MmaShape::BASELINE_FP16.for_mode(MxuMode::M3xuFp32c);
        assert_eq!(fragment_stats(MxuMode::M3xuFp32c, shape), tile);

        // Narrow + TF32.
        for (mode, k) in [(MxuMode::Fp16, 4), (MxuMode::Bf16, 4), (MxuMode::Tf32, 2)] {
            let a = Matrix::<f32>::random(8, k, 6);
            let b = Matrix::<f32>::random(k, 8, 7);
            let c = Matrix::<f32>::zeros(8, 8);
            let mut tile = MmaStats::default();
            let _ = match mode {
                MxuMode::Fp16 => mma::mma_narrow(m3xu_fp::format::FP16, &a, &b, &c, &mut tile),
                MxuMode::Bf16 => mma::mma_narrow(m3xu_fp::format::BF16, &a, &b, &c, &mut tile),
                _ => mma::mma_tf32(&a, &b, &c, &mut tile),
            };
            let shape = MmaShape::BASELINE_FP16.for_mode(mode);
            assert_eq!(
                fragment_stats(mode, shape),
                tile,
                "stats mismatch in {mode}"
            );
        }
    }

    #[test]
    fn fast_rounding_matches_kulisch() {
        // The fast 128-bit reduction must round exactly like the Kulisch
        // register for every contribution multiset it accepts: random
        // mantissas/signs with exponent windows swept across the FP32
        // overflow, normal, subnormal, and total-underflow ranges.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..4000 {
            let n = 1 + (next() % 9) as usize;
            let base = -260 + (case % 420); // sweep pmin over all regimes
            let mut dot = FastDot {
                contrib: [(0, 0, false); FAST_CONTRIB_CAP],
                n: 0,
            };
            let mut kul = m3xu_fp::Kulisch::new();
            for _ in 0..n {
                let mant = next() % (1 << 24);
                let pow = base + (next() % (FAST_POW_RANGE as u64 + 1)) as i32;
                let neg = next() & 1 == 1;
                if mant == 0 {
                    continue;
                }
                dot.contrib[dot.n] = (mant, pow, neg);
                dot.n += 1;
                kul.add_scaled(mant, pow, neg);
            }
            let fast = dot.reduce().expect("window fits by construction");
            assert_eq!(
                fast.to_bits(),
                kul.to_f32().to_bits(),
                "case {case}: fast {fast:e} vs kulisch {:e}",
                kul.to_f32()
            );
        }
        // Deterministic boundary cases: exact ties at the subnormal floor
        // and the largest-normal overflow boundary.
        for &(mant, pow, neg) in &[
            (1u64, -150, false),     // half the least subnormal: tie to zero
            (3, -151, false),        // just above half: least subnormal
            (1, -149, true),         // negative least subnormal
            (0xff_ffff, 104, false), // just under f32::MAX
            (0xff_ffff, 105, false), // overflow to infinity
            (1 << 23, -173, false),  // deep underflow to zero
        ] {
            let mut dot = FastDot {
                contrib: [(0, 0, false); FAST_CONTRIB_CAP],
                n: 1,
            };
            dot.contrib[0] = (mant, pow, neg);
            let mut kul = m3xu_fp::Kulisch::new();
            kul.add_scaled(mant, pow, neg);
            assert_eq!(dot.reduce().unwrap().to_bits(), kul.to_f32().to_bits());
        }
    }

    #[test]
    fn mxu_packed_entry_points_record_counters_and_clip() {
        let mut mxu = Mxu::new(MxuConfig::default());
        let a = Matrix::<f32>::random(5, 3, 11); // awkward: clips rows and k
        let b = Matrix::<f32>::random(3, 6, 12); // clips cols
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let mut dpu = DotProductUnit::new();
        let mut acc = [0.0f32; 64];
        let (r, c) = mxu.mma_f32_into(&mut dpu, &pa, &pb, 0, 0, 2, &mut acc);
        assert_eq!((r, c), (5, 6));
        let s = mxu.counters.for_mode(MxuMode::M3xuFp32);
        assert_eq!(s.instructions, 1);
        assert_eq!(s.steps, 2);
        assert_eq!(s.lane_products, 512);

        // The k0=2 chunk covers only packed element 2 (klen 2 clipped at 3):
        // the result equals the exact one-product dot against acc = 0.
        let mut acc2 = [0.0f32; 64];
        let mut dpu2 = DotProductUnit::new();
        dpu2.mma_f32_into(&pa, &pb, 0, 5, 0, 6, 2, 2, &mut acc2);
        for i in 0..5 {
            for j in 0..6 {
                let mut k = m3xu_fp::Kulisch::new();
                k.add_product_f32(a.get(i, 2), b.get(2, j));
                assert_eq!(acc2[i * 6 + j].to_bits(), k.to_f32().to_bits());
            }
        }
    }

    /// One checked chunk `[0, klen)` of an 8x8 tile through the unified
    /// panel entry, with `fault` (if any) injected after it — what the
    /// checked BLAS-3 driver does per chunk.
    fn checked_chunk_f32(
        pa: &PackedOperand,
        pb: &PackedOperand,
        klen: usize,
        acc: &mut [f32],
        fault: Option<&crate::fault::MmaFault>,
    ) -> Checksum {
        let mut computed = Checksum::ZERO;
        DotProductUnit::new().mma_f32_panel_sink_into(
            pa,
            pb,
            0,
            8,
            0,
            8,
            0,
            klen,
            klen,
            acc,
            &mut computed,
        );
        if let Some(f) = fault {
            crate::fault::inject(f, acc, &mut computed);
        }
        computed
    }

    /// [`checked_chunk_f32`] for emulated FP64.
    fn checked_chunk_f64(
        pa: &PackedOperand,
        pb: &PackedOperand,
        klen: usize,
        acc: &mut [f64],
        fault: Option<&crate::fault::MmaFault>,
    ) -> Checksum {
        let mut computed = Checksum::ZERO;
        DotProductUnit::new().mma_f64_panel_sink_into(
            pa,
            pb,
            0,
            8,
            0,
            8,
            0,
            klen,
            klen,
            acc,
            &mut computed,
        );
        if let Some(f) = fault {
            crate::fault::inject(f, acc, &mut computed);
        }
        computed
    }

    /// [`checked_chunk_f32`] for FP32C.
    fn checked_chunk_c32(
        pa: &PackedOperand,
        pb: &PackedOperand,
        klen: usize,
        acc: &mut [Complex<f32>],
        fault: Option<&crate::fault::MmaFault>,
    ) -> Checksum {
        let mut computed = Checksum::ZERO;
        DotProductUnit::new().mma_c32_panel_sink_into(
            pa,
            pb,
            0,
            8,
            0,
            8,
            0,
            klen,
            klen,
            acc,
            &mut computed,
        );
        if let Some(f) = fault {
            crate::fault::inject(f, acc, &mut computed);
        }
        computed
    }

    #[test]
    fn checked_mma_f32_is_bit_identical_and_checksum_verifies() {
        use crate::abft::expected_chunk_packed_f32;
        // Every real f32 mode — including the truncated fast schedule and
        // the narrow formats — plus a wide-exponent-spread case that
        // forces the Kulisch fallback; all must verify, at every level
        // (the 8-column tile takes the SIMD row kernels above Scalar).
        simd::at_every_level(|lvl| {
            for mode in [
                MxuMode::M3xuFp32,
                MxuMode::M3xuFp32Fast,
                MxuMode::Tf32,
                MxuMode::Fp16,
                MxuMode::Bf16,
            ] {
                for (sa, scale) in [(21u64, 1.0f32), (22, 1.0e30)] {
                    let mut a = Matrix::<f32>::random(8, 2, sa);
                    if scale != 1.0 {
                        a.set(0, 0, a.get(0, 0) * scale);
                        a.set(0, 1, a.get(0, 1) / scale);
                    }
                    let b = Matrix::<f32>::random(2, 8, sa + 1);
                    let c = Matrix::<f32>::random(8, 8, sa + 2);
                    let pa = PackedOperand::pack_rows_f32(&a, mode);
                    let pb = PackedOperand::pack_cols_f32(&b, mode);
                    let mut dpu = DotProductUnit::new();
                    let mut plain: Vec<f32> = c.as_slice().to_vec();
                    dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut plain);
                    let mut checked: Vec<f32> = c.as_slice().to_vec();
                    let expected = expected_chunk_packed_f32(&pa, &pb, &checked, 0, 8, 0, 8, 0, 2);
                    let computed = checked_chunk_f32(&pa, &pb, 2, &mut checked, None);
                    for (x, y) in checked.iter().zip(&plain) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{mode:?} at {lvl:?}");
                    }
                    // The scaled case overflows the narrow formats to Inf at
                    // quantisation — those chunks are correctly unverifiable;
                    // a special-free band must always verify.
                    if scale == 1.0 {
                        assert!(expected.ok, "{mode:?}: finite inputs must be verifiable");
                    }
                    assert!(
                        expected.matches(&computed),
                        "{mode:?} at {lvl:?}: honest run must verify"
                    );
                }
            }
        });
    }

    #[test]
    fn checked_mma_f64_is_bit_identical_and_checksum_verifies() {
        use crate::abft::expected_chunk_packed_f64;
        let a = Matrix::from_fn(8, 2, |i, j| ((i * 2 + j) as f64 - 7.5) / 3.0);
        let b = Matrix::from_fn(2, 8, |i, j| ((i * 8 + j) as f64 - 6.5) / 7.0);
        let c = Matrix::from_fn(8, 8, |i, j| ((i * 8 + j) as f64 - 31.5) / 11.0);
        let pa = PackedOperand::try_pack_rows_f64(&a, MxuMode::M3xuFp64Emu).unwrap();
        let pb = PackedOperand::try_pack_cols_f64(&b, MxuMode::M3xuFp64Emu).unwrap();
        simd::at_every_level(|lvl| {
            let mut dpu = DotProductUnit::new();
            let mut plain: Vec<f64> = c.as_slice().to_vec();
            dpu.mma_f64_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut plain);
            let mut checked: Vec<f64> = c.as_slice().to_vec();
            let expected = expected_chunk_packed_f64(&pa, &pb, &checked, 0, 8, 0, 8, 0, 2);
            let computed = checked_chunk_f64(&pa, &pb, 2, &mut checked, None);
            for (x, y) in checked.iter().zip(&plain) {
                assert_eq!(x.to_bits(), y.to_bits(), "at {lvl:?}");
            }
            assert!(expected.ok, "finite inputs must be verifiable");
            assert!(expected.matches(&computed), "honest run must verify");
        });
    }

    #[test]
    fn checked_mma_c32_is_bit_identical_and_checksum_verifies() {
        use crate::abft::expected_chunk_packed_c32;
        let a = Matrix::random_c32(8, 1, 61);
        let b = Matrix::random_c32(1, 8, 62);
        let c = Matrix::random_c32(8, 8, 63);
        let pa = PackedOperand::pack_rows_c32(&a);
        let pb = PackedOperand::pack_cols_c32(&b);
        simd::at_every_level(|lvl| {
            let mut dpu = DotProductUnit::new();
            let mut plain: Vec<Complex<f32>> = c.as_slice().to_vec();
            dpu.mma_c32_into(&pa, &pb, 0, 8, 0, 8, 0, 1, &mut plain);
            let mut checked: Vec<Complex<f32>> = c.as_slice().to_vec();
            let expected = expected_chunk_packed_c32(&pa, &pb, &checked, 0, 8, 0, 8, 0, 1);
            let computed = checked_chunk_c32(&pa, &pb, 1, &mut checked, None);
            for (x, y) in checked.iter().zip(&plain) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "at {lvl:?}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "at {lvl:?}");
            }
            assert!(expected.ok && expected.matches(&computed), "at {lvl:?}");
        });
    }

    #[test]
    fn injected_faults_are_always_detected() {
        use crate::abft::{
            expected_chunk_packed_c32, expected_chunk_packed_f32, expected_chunk_packed_f64,
        };
        use crate::fault::MmaFault;
        let faults = [
            MmaFault::FlipBit { lane: 5, bit: 31 },
            MmaFault::FlipBit { lane: 63, bit: 0 },
            MmaFault::FlipBit { lane: 17, bit: 23 },
            MmaFault::CorruptValue {
                lane: 40,
                mask: 0xdead_beef,
            },
            MmaFault::CorruptValue {
                lane: 9,
                mask: 0x7f80_0000, // would create a special: retargeted
            },
        ];
        simd::at_every_level(|lvl| {
            // Every real f32 mode, including the truncated fast schedule.
            for mode in [
                MxuMode::M3xuFp32,
                MxuMode::M3xuFp32Fast,
                MxuMode::Tf32,
                MxuMode::Fp16,
                MxuMode::Bf16,
            ] {
                let a = Matrix::<f32>::random(8, 2, 71);
                let b = Matrix::<f32>::random(2, 8, 72);
                let c = Matrix::<f32>::random(8, 8, 73);
                let pa = PackedOperand::pack_rows_f32(&a, mode);
                let pb = PackedOperand::pack_cols_f32(&b, mode);
                for f in &faults {
                    let mut acc: Vec<f32> = c.as_slice().to_vec();
                    let expected = expected_chunk_packed_f32(&pa, &pb, &acc, 0, 8, 0, 8, 0, 2);
                    let computed = checked_chunk_f32(&pa, &pb, 2, &mut acc, Some(f));
                    assert!(
                        !expected.matches(&computed),
                        "{mode:?} at {lvl:?}: fault {f:?} must be detected"
                    );
                }
            }

            // Emulated FP64.
            let a = Matrix::from_fn(8, 2, |i, j| ((i * 2 + j) as f64 - 7.5) / 3.0);
            let b = Matrix::from_fn(2, 8, |i, j| ((i * 8 + j) as f64 - 6.5) / 7.0);
            let c = Matrix::from_fn(8, 8, |i, j| ((i * 8 + j) as f64 - 31.5) / 11.0);
            let pa = PackedOperand::try_pack_rows_f64(&a, MxuMode::M3xuFp64Emu).unwrap();
            let pb = PackedOperand::try_pack_cols_f64(&b, MxuMode::M3xuFp64Emu).unwrap();
            for f in &faults {
                let mut acc: Vec<f64> = c.as_slice().to_vec();
                let expected = expected_chunk_packed_f64(&pa, &pb, &acc, 0, 8, 0, 8, 0, 2);
                let computed = checked_chunk_f64(&pa, &pb, 2, &mut acc, Some(f));
                assert!(
                    !expected.matches(&computed),
                    "f64 fault {f:?} at {lvl:?} must be detected"
                );
            }

            // FP32C.
            let a = Matrix::random_c32(8, 1, 81);
            let b = Matrix::random_c32(1, 8, 82);
            let c = Matrix::random_c32(8, 8, 83);
            let pa = PackedOperand::pack_rows_c32(&a);
            let pb = PackedOperand::pack_cols_c32(&b);
            for f in &faults {
                let mut acc: Vec<Complex<f32>> = c.as_slice().to_vec();
                let expected = expected_chunk_packed_c32(&pa, &pb, &acc, 0, 8, 0, 8, 0, 1);
                let computed = checked_chunk_c32(&pa, &pb, 1, &mut acc, Some(f));
                assert!(
                    !expected.matches(&computed),
                    "complex fault {f:?} at {lvl:?} must be detected"
                );
            }
        });
    }
}
