//! Algorithm-based fault tolerance (ABFT) checksums for the tiled GEMM
//! drivers, in the style of Huang & Abraham's row/column checksum scheme
//! — adapted to the M3XU execution model where rounding happens once per
//! k-chunk.
//!
//! ## The identity
//!
//! Within one k-chunk of one output tile, the MXU datapath computes, for
//! every element `(i, j)`, the *exact* dyadic value
//!
//! ```text
//! pre_round(i, j) = seed(i, j) + Σ_k a[i][k] · b[k][j]
//! ```
//!
//! (the hi/lo 12-bit split is error-free and the Kulisch register is
//! exact), then rounds it once to FP32. Summing over the tile and
//! swapping the summation order gives the checksum identity
//!
//! ```text
//! Σ_(i,j) pre_round(i, j) = Σ_(i,j) seed(i, j) + Σ_k (Σ_i a[i][k]) · (Σ_j b[k][j])
//! ```
//!
//! which holds *exactly* in the dyadic rationals — and therefore exactly
//! in their homomorphic image mod `p = 2^61 - 1` ([`m3xu_fp::residue`]).
//! The right-hand side (the **expected** checksum) costs `O(rows·cols +
//! klen·(rows + cols))`; the left-hand side (the **computed** checksum)
//! falls out of the exact accumulator state the packed panel kernels
//! already hold, through a [`ResidueSink`]. A
//! corrupted product shifts the computed side by a nonzero dyadic delta,
//! whose residue is nonzero because `p` is prime — detection of a single
//! corrupted product is *certain*, not probabilistic.
//!
//! The identity must be checked per k-chunk: each chunk rounds its
//! results and re-seeds the next one, and rounding is not additive.
//!
//! ## Expected checksums come from the packed planes
//!
//! The expected side is computed from the [`PackedOperand`] buffer
//! entries — the quantised, alpha-folded, slice-split values the
//! multiplier array *actually* consumes — not from the source matrices.
//! That one choice is what makes the whole op × precision surface
//! checkable with a single algebra:
//!
//! * narrow modes (FP16/BF16/TF32): the entries *are* the quantised
//!   values, so quantisation needs no modelling;
//! * the BLAS-3 driver's `alpha` fold and `op(X)` views: packing already
//!   applied them, so the checksum algebra inherits them for free;
//! * emulated FP64: the 5 mantissa slices per element are entries like
//!   any other, and the 53-bit/2^-1074 dyadic range is inside `F_p`'s
//!   image ([`m3xu_fp::residue::residue_f64`]);
//! * the truncated fast-FP32 schedule: the per-slice column sums
//!   `S_A[s]`, `S_B[t]` are combined term-by-term, skipping exactly the
//!   `s + t >= N` products the datapath skips.
//!
//! ## Special values
//!
//! NaN/Inf have no dyadic value. A chunk whose seeds or operand band
//! contain specials is *unverifiable* ([`Checksum::ok`] is false) and is
//! skipped by the verifier — ABFT coverage extends exactly as far as the
//! arithmetic the checksum algebra models, matching the fault injector,
//! which never targets special-valued lanes (they bypass the multiplier
//! array).

use crate::buffer::BufferEntry;
use crate::modes::MxuMode;
use crate::packed::PackedOperand;
use m3xu_fp::residue::{
    add_m61, mul_m61, neg_m61, pow2_m61, reduce_u64, residue_f32, residue_f64, sub_m61,
};
use m3xu_fp::C32;

/// A per-chunk checksum: the residue pair (imaginary part zero for real
/// GEMMs) plus a verifiability flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    /// Residue of the real part, mod `2^61 - 1`.
    pub re: u64,
    /// Residue of the imaginary part, mod `2^61 - 1`.
    pub im: u64,
    /// False when special values make the chunk unverifiable.
    pub ok: bool,
}

impl Checksum {
    /// The additive identity of a verifiable checksum.
    pub const ZERO: Checksum = Checksum {
        re: 0,
        im: 0,
        ok: true,
    };

    /// A checksum poisoned by special values.
    pub const UNVERIFIABLE: Checksum = Checksum {
        re: 0,
        im: 0,
        ok: false,
    };

    /// Does a computed checksum agree with this expected one?
    ///
    /// An unverifiable *expected* side always matches (no claim is made);
    /// a verifiable expected side with an unverifiable computed side is a
    /// mismatch — honest execution of a special-free chunk always yields
    /// a finite, extractable accumulator state.
    pub fn matches(&self, computed: &Checksum) -> bool {
        !self.ok || (computed.ok && self.re == computed.re && self.im == computed.im)
    }
}

/// Where the packed panel kernels report the `F_p` residue of each output
/// element's exact pre-rounding value, taken from the same state the
/// rounder consumes on whichever tier ran the element — the SIMD 128-bit
/// window, the scalar fast path's contribution list, or the Kulisch
/// register. The residue is passed lazily: the unchecked pipeline's
/// [`NoResidue`] never evaluates it, so that instantiation is the plain
/// kernel, while a [`Checksum`] sums it into the chunk's computed side.
pub trait ResidueSink {
    /// Absorb a real element's residue (`None`: specials poisoned it).
    fn absorb_re(&mut self, r: impl FnOnce() -> Option<u64>);
    /// Absorb a complex element's residue pair.
    fn absorb_pair(&mut self, r: impl FnOnce() -> Option<(u64, u64)>);
}

/// The unchecked pipeline's sink: keeps nothing, computes nothing.
pub struct NoResidue;

impl ResidueSink for NoResidue {
    #[inline(always)]
    fn absorb_re(&mut self, _: impl FnOnce() -> Option<u64>) {}
    #[inline(always)]
    fn absorb_pair(&mut self, _: impl FnOnce() -> Option<(u64, u64)>) {}
}

/// A `None` residue poisons the checksum (it becomes unverifiable).
impl ResidueSink for Checksum {
    #[inline]
    fn absorb_re(&mut self, r: impl FnOnce() -> Option<u64>) {
        match r() {
            Some(r) if self.ok => self.re = add_m61(self.re, r),
            _ => self.ok = false,
        }
    }
    #[inline]
    fn absorb_pair(&mut self, r: impl FnOnce() -> Option<(u64, u64)>) {
        match r() {
            Some((re, im)) if self.ok => {
                self.re = add_m61(self.re, re);
                self.im = add_m61(self.im, im);
            }
            _ => self.ok = false,
        }
    }
}

/// Residue pair of a complex value; `None` if either component is
/// non-finite.
pub fn residue_c32(z: C32) -> Option<(u64, u64)> {
    Some((residue_f32(z.re)?, residue_f32(z.im)?))
}

/// Complex product in `F_p × F_p`:
/// `(ar·br − ai·bi, ar·bi + ai·br)`.
fn cmul_m61(a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
    (
        sub_m61(mul_m61(a.0, b.0), mul_m61(a.1, b.1)),
        add_m61(mul_m61(a.0, b.1), mul_m61(a.1, b.0)),
    )
}

/// `F_p` residue of the exact dyadic value one [`BufferEntry`] denotes
/// (`±mant · 2^pow`); `None` for a special-valued entry, which has no
/// dyadic value. This is the same map the panel kernels apply to their
/// exact chunk values, so expected and computed sides agree
/// definitionally on what each lane is worth.
pub fn entry_residue(e: &BufferEntry) -> Option<u64> {
    if e.special.is_some() {
        return None;
    }
    let r = mul_m61(reduce_u64(e.mant as u64), pow2_m61(e.pow as i64));
    Some(if e.sign { neg_m61(r) } else { r })
}

/// Per-slice column sums of one packed operand at reduction index `k`:
/// `out[s] = Σ_v residue(entry_s(vec v, k))` over vectors
/// `v0 .. v0 + n`. `None` when any entry in the band is special.
fn slice_sums(p: &PackedOperand, v0: usize, n: usize, k: usize, out: &mut [u64]) -> Option<()> {
    out.fill(0);
    let epe = p.epe();
    for v in 0..n {
        let elem = &p.vec(v0 + v)[k * epe..(k + 1) * epe];
        for (slot, e) in out.iter_mut().zip(elem) {
            *slot = add_m61(*slot, entry_residue(e)?);
        }
    }
    Some(())
}

/// The shared real-mode core: seeds are already absorbed into `sum`;
/// accumulate the per-k slice-product terms. For the full modes every
/// `(s, t)` slice pair is issued; the truncated fast-FP32 schedule skips
/// `s + t >= N`, mirroring the datapath's term schedule exactly.
#[allow(clippy::too_many_arguments)]
fn expected_real_core(
    a: &PackedOperand,
    b: &PackedOperand,
    mut sum: Checksum,
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
    k0: usize,
    kend: usize,
) -> Checksum {
    debug_assert_eq!(a.mode(), b.mode(), "operand modes disagree");
    let epe = a.epe();
    let truncated = a.mode() == MxuMode::M3xuFp32Fast;
    let mut sa = [0u64; m3xu_fp::split::MAX_SLICES];
    let mut sb = [0u64; m3xu_fp::split::MAX_SLICES];
    for k in k0..kend {
        if slice_sums(a, r0, rows, k, &mut sa[..epe]).is_none()
            || slice_sums(b, c0, cols, k, &mut sb[..epe]).is_none()
        {
            return Checksum::UNVERIFIABLE;
        }
        for (s, &va) in sa[..epe].iter().enumerate() {
            for (t, &vb) in sb[..epe].iter().enumerate() {
                if truncated && s + t >= epe {
                    continue;
                }
                sum.re = add_m61(sum.re, mul_m61(va, vb));
            }
        }
    }
    sum
}

/// Expected checksum of one real k-chunk, from the **packed** operand
/// planes: `Σ seeds + Σ_k Σ_(s,t) S_A[s][k]·S_B[t][k]` over the tile
/// `(r0.., c0..) × (k0..kend)`, where `S_A[s][k]` sums slice `s` of
/// packed element `k` over the tile's A vectors (rows) and `S_B[t][k]`
/// does the same over the B vectors (columns). `seeds` is the tile's
/// accumulator *before* the chunk runs, row-major `rows × cols`.
///
/// Because the entries are the values the multiplier array consumes —
/// quantised, alpha-folded, op-viewed — this one function covers every
/// real f32 mode, including the truncated fast schedule.
#[allow(clippy::too_many_arguments)]
pub fn expected_chunk_packed_f32(
    a: &PackedOperand,
    b: &PackedOperand,
    seeds: &[f32],
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
    k0: usize,
    kend: usize,
) -> Checksum {
    let mut sum = Checksum::ZERO;
    for &s in &seeds[..rows * cols] {
        sum.absorb_re(|| residue_f32(s));
        if !sum.ok {
            return Checksum::UNVERIFIABLE;
        }
    }
    expected_real_core(a, b, sum, r0, rows, c0, cols, k0, kend)
}

/// [`expected_chunk_packed_f32`] for the emulated-FP64 pipeline: `f64`
/// seeds (the accumulator is `f64` end-to-end) and the full `N × N`
/// slice cross product per element.
#[allow(clippy::too_many_arguments)]
pub fn expected_chunk_packed_f64(
    a: &PackedOperand,
    b: &PackedOperand,
    seeds: &[f64],
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
    k0: usize,
    kend: usize,
) -> Checksum {
    let mut sum = Checksum::ZERO;
    for &s in &seeds[..rows * cols] {
        sum.absorb_re(|| residue_f64(s));
        if !sum.ok {
            return Checksum::UNVERIFIABLE;
        }
    }
    expected_real_core(a, b, sum, r0, rows, c0, cols, k0, kend)
}

/// Expected checksum of one complex k-chunk from the packed component
/// planes. Each packed element holds `[re_hi, re_lo, im_hi, im_lo]`;
/// the element's residue pair is the half sums, and the per-k outer
/// product uses the complex field structure of `F_p × F_p` — which
/// absorbs the 16-lane component schedule in one multiplication.
#[allow(clippy::too_many_arguments)]
pub fn expected_chunk_packed_c32(
    a: &PackedOperand,
    b: &PackedOperand,
    seeds: &[C32],
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
    k0: usize,
    kend: usize,
) -> Checksum {
    let mut sum = Checksum::ZERO;
    for &s in &seeds[..rows * cols] {
        sum.absorb_pair(|| residue_c32(s));
        if !sum.ok {
            return Checksum::UNVERIFIABLE;
        }
    }
    let pair_sum = |p: &PackedOperand, v0: usize, n: usize, k: usize| -> Option<(u64, u64)> {
        let mut acc = (0u64, 0u64);
        for v in 0..n {
            let e = &p.vec(v0 + v)[k * 4..(k + 1) * 4];
            let re = add_m61(entry_residue(&e[0])?, entry_residue(&e[1])?);
            let im = add_m61(entry_residue(&e[2])?, entry_residue(&e[3])?);
            acc = (add_m61(acc.0, re), add_m61(acc.1, im));
        }
        Some(acc)
    };
    for k in k0..kend {
        let (sa, sb) = match (pair_sum(a, r0, rows, k), pair_sum(b, c0, cols, k)) {
            (Some(sa), Some(sb)) => (sa, sb),
            _ => return Checksum::UNVERIFIABLE,
        };
        let prod = cmul_m61(sa, sb);
        sum.re = add_m61(sum.re, prod.0);
        sum.im = add_m61(sum.im, prod.1);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unverifiable_expected_matches_anything() {
        let e = Checksum::UNVERIFIABLE;
        assert!(e.matches(&Checksum::ZERO));
        assert!(e.matches(&Checksum::UNVERIFIABLE));
    }

    #[test]
    fn verifiable_expected_rejects_unverifiable_computed() {
        let e = Checksum::ZERO;
        assert!(!e.matches(&Checksum::UNVERIFIABLE));
        assert!(e.matches(&Checksum::ZERO));
        let other = Checksum {
            re: 1,
            im: 0,
            ok: true,
        };
        assert!(!e.matches(&other));
    }

    #[test]
    fn specials_anywhere_poison_the_expected_side() {
        use crate::matrix::Matrix;
        let mut a = Matrix::<f32>::random(4, 4, 1);
        let b = Matrix::<f32>::random(4, 4, 2);
        let seeds = [0.0f32; 16];
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let pack = |m: &Matrix<f32>| PackedOperand::pack_rows_f32(m, MxuMode::M3xuFp32);
        assert!(expected_chunk_packed_f32(&pack(&a), &pb, &seeds, 0, 4, 0, 4, 0, 4).ok);
        a.set(2, 3, f32::NAN);
        assert!(!expected_chunk_packed_f32(&pack(&a), &pb, &seeds, 0, 4, 0, 4, 0, 4).ok);
        // A NaN outside the chunk's k-range does not poison it.
        assert!(expected_chunk_packed_f32(&pack(&a), &pb, &seeds, 0, 4, 0, 4, 0, 3).ok);
        // A NaN seed does, regardless of the operands.
        let mut bad_seeds = seeds;
        bad_seeds[5] = f32::NAN;
        assert!(!expected_chunk_packed_f32(&pack(&b), &pb, &bad_seeds, 0, 4, 0, 4, 0, 3).ok);
    }

    #[test]
    fn entry_residue_matches_the_value_residue_for_lossless_packs() {
        // An FP32-mode hi/lo pair denotes the exact input value, so the
        // entry residues must sum to the value's residue.
        for &x in &[1.5f32, -3.25, 0.1, 123456.78, f32::MIN_POSITIVE, 0.0] {
            let (hi, lo) = crate::buffer::decode_fp32(x);
            let r = add_m61(entry_residue(&hi).unwrap(), entry_residue(&lo).unwrap());
            assert_eq!(r, residue_f32(x).unwrap(), "{x}");
        }
    }

    #[test]
    fn packed_expected_agrees_across_pack_flavours() {
        use crate::matrix::Matrix;
        // alpha = 1 (bitwise) src packing must produce the same expected
        // checksum as the plain packers — same planes, same algebra.
        let a = Matrix::<f32>::random(4, 6, 31);
        let b = Matrix::<f32>::random(6, 4, 32);
        let seeds = [0.25f32; 16];
        for mode in [MxuMode::M3xuFp32, MxuMode::M3xuFp32Fast, MxuMode::Bf16] {
            let pa = PackedOperand::pack_rows_f32(&a, mode);
            let pb = PackedOperand::pack_cols_f32(&b, mode);
            let sa =
                PackedOperand::try_pack_rows_f32_src_in(&a, 1.0, mode, Default::default()).unwrap();
            let sb =
                PackedOperand::try_pack_cols_f32_src_in(&b, 1.0, mode, Default::default()).unwrap();
            let want = expected_chunk_packed_f32(&pa, &pb, &seeds, 0, 4, 0, 4, 0, 6);
            let got = expected_chunk_packed_f32(&sa, &sb, &seeds, 0, 4, 0, 4, 0, 6);
            assert!(want.ok);
            assert_eq!(want, got, "{mode:?}");
        }
    }

    #[test]
    fn complex_product_structure() {
        // (1 + 2i)(3 + 4i) = -5 + 10i.
        let p = cmul_m61((1, 2), (3, 4));
        assert_eq!(p.0, m3xu_fp::residue::M61 - 5);
        assert_eq!(p.1, 10);
    }
}
