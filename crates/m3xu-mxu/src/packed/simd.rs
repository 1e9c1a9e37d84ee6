//! SIMD fragment pipeline for the packed executors.
//!
//! The scalar fast path in [`super`] walks one `BufferEntry` pair at a
//! time: per element-chunk it multiplies up to nine 24-bit half-product
//! mantissas and reduces them in a 128-bit window. This module replaces
//! that inner loop with a vectorized pipeline that processes a whole
//! fragment row (8 output columns) per step, built on two observations:
//!
//! 1. **The hi/lo split is exact reassociation.** For finite operands the
//!    four half-products of one FP32 element pair sum to exactly
//!    `a·b = (a_hi + a_lo)(b_hi + b_lo)` — and the full product of two
//!    `f32` values (at most 24-bit significands) is *exactly*
//!    representable in `f64` (48 < 53 bits, exponents in ±298 ⊂ f64
//!    range). The same holds per quantised element in the narrow modes
//!    (≤ 12-bit mantissas) and per component product in FP32C. So the
//!    exact pre-rounding chunk value `seed + Σ_k a_k·b_k` can be formed
//!    from a handful of exact `f64` products instead of 2–4x as many
//!    split-mantissa integer products.
//! 2. **Rounding is per fragment, not per lane.** The bit-exactness
//!    contract fixes *what* each fragment drain must round — the exact
//!    real value above — not *how* the products are produced. Any
//!    pipeline that reduces the same exact value through the shared
//!    `fast_round_f32` is bit-identical by construction.
//!
//! The row kernels below compute the `f64` products with explicit
//! `core::arch::x86_64` intrinsics — AVX2 (`vcvtps2pd` + `vmulpd`, four
//! lanes per instruction) with an SSE2 two-lane fallback — out of planar
//! `f32` value mirrors built at pack time ([`super::PackedOperand`]
//! stores the `B` side k-major so one load touches 8 consecutive
//! columns). Each column's products are then decoded and reduced exactly
//! in the same 128-bit window / rounder as the scalar path.
//!
//! Anything the window cannot prove exact — a non-finite product (which
//! subsumes every special-operand case), or an exponent spread beyond
//! `SIMD_POW_RANGE` — falls back **per element-chunk** to the scalar
//! executor, which remains the differential oracle. The kill switch
//! `M3XU_SIMD=0` (or [`set_level`]`(SimdLevel::Scalar)`) routes every
//! element through that oracle path.

use std::sync::atomic::{AtomicU8, Ordering};

/// Vector width class the packed executors dispatch to, resolved once per
/// process from `M3XU_SIMD` and runtime CPU feature detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// The original entry-at-a-time executors (the differential oracle).
    Scalar,
    /// 2-lane `f64` row kernels (baseline on every `x86_64`).
    Sse2,
    /// 4-lane `f64` row kernels (runtime-detected).
    Avx2,
}

impl SimdLevel {
    fn from_u8(v: u8) -> SimdLevel {
        match v {
            2 => SimdLevel::Avx2,
            1 => SimdLevel::Sse2,
            _ => SimdLevel::Scalar,
        }
    }
}

/// Unresolved sentinel for the process-wide level cell.
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The widest level this build/host can execute.
fn detected() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is architecturally guaranteed on x86_64.
        if std::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// Resolve the level from the environment: `M3XU_SIMD=0`/`scalar` kills
/// the vector path, `sse2`/`avx2` force a specific width (clamped to what
/// the host supports), anything else auto-detects.
fn resolve() -> SimdLevel {
    let cap = detected();
    let req = match std::env::var("M3XU_SIMD") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "0" | "scalar" | "off" => SimdLevel::Scalar,
            "sse2" => SimdLevel::Sse2,
            "avx2" => SimdLevel::Avx2,
            _ => cap,
        },
        Err(_) => cap,
    };
    clamp(req, cap)
}

fn clamp(req: SimdLevel, cap: SimdLevel) -> SimdLevel {
    match (req, cap) {
        (SimdLevel::Avx2, SimdLevel::Avx2) => SimdLevel::Avx2,
        (SimdLevel::Scalar, _) => SimdLevel::Scalar,
        (_, SimdLevel::Scalar) => SimdLevel::Scalar,
        _ => SimdLevel::Sse2,
    }
}

/// The active dispatch level (resolved on first use).
pub fn level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let l = resolve();
            LEVEL.store(l as u8, Ordering::Relaxed);
            l
        }
        v => SimdLevel::from_u8(v),
    }
}

/// Override the dispatch level (clamped to the host's capability) — for
/// benchmarks and tests that compare the paths within one process. Every
/// level produces bit-identical results; only the instruction mix
/// changes.
pub fn set_level(l: SimdLevel) {
    LEVEL.store(clamp(l, detected()) as u8, Ordering::Relaxed);
}

/// Serialises the unit tests that override the process-wide level.
#[cfg(test)]
static LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` at every dispatch level the host supports (always including
/// `Scalar`), holding [`LEVEL_LOCK`], then restore the entry level.
#[cfg(test)]
pub(crate) fn at_every_level(mut f: impl FnMut(SimdLevel)) {
    let _guard = LEVEL_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let entry = level();
    for lvl in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
        if clamp(lvl, detected()) == lvl {
            set_level(lvl);
            f(lvl);
        }
    }
    set_level(entry);
}

/// Output columns each row kernel covers — one fragment row.
pub(crate) const COLS: usize = 8;

/// Largest `frag.k` any mode's fragment shape reaches (FP16/BF16).
pub(crate) const MAX_KLEN: usize = 4;

/// Maximum exponent spread the f64-product reduction accepts: at most 5
/// contributions (4 products + seed) below `2^53`, so the exact sum stays
/// below `2^(53 + 70 + 3) < 2^127` and the `i128` window cannot
/// overflow.
const SIMD_POW_RANGE: i32 = 70;

/// Round-to-nearest-even FP32 of the exact value `seed + Σ terms`, where
/// `seed` is the fragment's accumulator element and every term is an
/// *exact* product in `f64`. Returns `None` — abort to the scalar oracle
/// — on any non-finite input (which covers every special-operand case:
/// a NaN/Inf operand always surfaces as a NaN/Inf product) or when the
/// exponent spread exceeds the 128-bit window.
///
/// Bit-identical to the scalar fast path / Kulisch drain because the
/// decoded contribution list denotes exactly the same real number (the
/// half-products of one element pair sum exactly to its full product)
/// and the final rounding is the shared [`super::fast_round_f32`]. The
/// panel kernels run the two halves separately — the exact window also
/// feeds the ABFT residue — so this composition is what the tests pin
/// against the Kulisch register.
#[cfg(test)]
fn exact_chunk_round<const T: usize>(seed: f32, terms: &[f64; T]) -> Option<f32> {
    let (sum, pmin, ok) = exact_chunk_accumulate(seed, terms);
    ok.then(|| super::fast_round_f32(sum, pmin))
}

/// A fragment accumulator element in decoded form: the exact value is
/// `±mant · 2^pow` (`mant` is at most 2^24 — an f32 significand — or a
/// rounder's kept fraction). Panel kernels thread this through the
/// per-column chunk chain so consecutive chunks hand off
/// mantissa/power/sign directly instead of assembling an f32 and
/// re-decoding it — the assemble/decode pair sits on the loop-carried
/// dependency path and costs more than the whole shift-and-add window.
#[derive(Clone, Copy)]
pub(crate) struct ChunkSeed {
    /// Significand of the seed value (0 for a signed zero).
    pub(crate) mant: u64,
    /// Weight of the significand's least bit: value = mant * 2^pow.
    pub(crate) pow: i32,
    /// Sign of the seed value.
    pub(crate) neg: bool,
    /// False once the accumulator has hit a NaN or infinity — the next
    /// accumulate aborts to the scalar oracle, like a non-finite f32
    /// seed would.
    pub(crate) finite: bool,
}

impl ChunkSeed {
    /// Decode an f32 accumulator element (same value decomposition as
    /// the f64 decode below, 29 powers higher on a 24-bit significand).
    #[inline(always)]
    pub(crate) fn decode(v: f32) -> Self {
        let bits = v.to_bits();
        let exp = ((bits >> 23) & 0xff) as i32;
        let mant = ((bits & 0x007f_ffff) | (((exp != 0) as u32) << 23)) as u64;
        Self {
            mant,
            pow: exp.max(1) - 150,
            neg: bits >> 31 == 1,
            finite: exp != 0xff,
        }
    }
}

/// One fragment row's accumulator seeds in structure-of-arrays form —
/// the layout the AVX2 accumulate kernel loads directly (64-bit lanes:
/// significand, power, sign mask). `finite` is a per-column bitset kept
/// scalar-side; a non-finite column stores a zero contribution and its
/// cleared bit forces the fallback regardless of what the vector window
/// computes.
pub(crate) struct RowSeeds {
    /// Significand per column (0 for signed zeros and non-finite seeds).
    pub(crate) mant: [u64; COLS],
    /// Weight of the significand's least bit per column.
    pub(crate) pow: [i64; COLS],
    /// Sign as a full 64-bit lane mask (0 or all-ones) per column.
    pub(crate) neg: [u64; COLS],
    /// Bit j set = column j's seed is finite.
    pub(crate) finite: u32,
}

impl RowSeeds {
    /// Decode a fragment row of f32 accumulator elements.
    #[inline(always)]
    pub(crate) fn load(acc: &[f32; COLS]) -> Self {
        let mut s = RowSeeds {
            mant: [0; COLS],
            pow: [0; COLS],
            neg: [0; COLS],
            finite: 0,
        };
        for (j, &v) in acc.iter().enumerate() {
            s.set(j, ChunkSeed::decode(v));
        }
        s
    }

    /// Install column `j`'s seed.
    #[inline(always)]
    pub(crate) fn set(&mut self, j: usize, c: ChunkSeed) {
        self.mant[j] = if c.finite { c.mant } else { 0 };
        self.pow[j] = c.pow as i64;
        self.neg[j] = if c.neg { u64::MAX } else { 0 };
        self.finite = (self.finite & !(1 << j)) | ((c.finite as u32) << j);
    }

    /// Column `j`'s seed for the scalar accumulate path.
    #[inline(always)]
    pub(crate) fn get(&self, j: usize) -> ChunkSeed {
        ChunkSeed {
            mant: self.mant[j],
            pow: self.pow[j] as i32,
            neg: self.neg[j] != 0,
            finite: self.finite >> j & 1 == 1,
        }
    }
}

/// The reduction half of `exact_chunk_round`: decode `seed + Σ terms`
/// into an exact `i128` window anchored at `pmin`, without rounding.
/// Returns `(sum, pmin, ok)`; when `ok` is false (non-finite input or
/// exponent spread beyond the window) `sum`/`pmin` are meaningless and
/// the caller must take the scalar oracle path. Split out so panel
/// kernels can run the accumulate and rounding phases as two short-chain
/// passes over a row — the combined body is too long a dependency chain
/// for the out-of-order window to overlap across columns.
#[inline(always)]
pub(crate) fn exact_chunk_accumulate<const T: usize>(
    seed: f32,
    terms: &[f64; T],
) -> (i128, i32, bool) {
    exact_chunk_accumulate_seeded(ChunkSeed::decode(seed), terms)
}

/// [`exact_chunk_accumulate`] over an already-decoded seed. The seed's
/// 24-bit-significand decomposition denotes exactly the same real value
/// as the f64 route (only `pmin` anchors differently, which both the
/// window bound and [`super::fast_round_f32`] absorb), so the rounded
/// result is bit-identical either way.
#[inline(always)]
pub(crate) fn exact_chunk_accumulate_seeded<const T: usize>(
    seed: ChunkSeed,
    terms: &[f64; T],
) -> (i128, i32, bool) {
    const M52: u64 = (1u64 << 52) - 1;
    // Decode all contributions branchlessly: a subnormal keeps its raw
    // mantissa at the fixed power -1074 (`exp.max(1) - 1075`), a normal
    // gains the implicit bit, and a ±0.0 decodes to mantissa 0. Zero
    // contributions stay in the arrays (they add nothing to the window)
    // but are masked out of the pmin/pmax reduction with sentinels so
    // they cannot widen the spread — the only data-dependent branches
    // left are the two rare aborts. `T` is a compile-time constant at
    // every call site, so these loops fully unroll.
    let mut mants = [0u64; 1 + MAX_KLEN];
    let mut pows = [0i32; 1 + MAX_KLEN];
    let mut negs = [false; 1 + MAX_KLEN];
    mants[0] = seed.mant;
    pows[0] = seed.pow;
    negs[0] = seed.neg;
    let seed_nz = seed.mant != 0;
    let mut nonfinite = !seed.finite;
    let mut pmin = if seed_nz { seed.pow } else { i32::MAX };
    let mut pmax = if seed_nz { seed.pow } else { i32::MIN };
    for (t, &v) in terms.iter().enumerate() {
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32;
        nonfinite |= exp == 0x7ff;
        let mant = (bits & M52) | (((exp != 0) as u64) << 52);
        let pow = exp.max(1) - 1075;
        let nz = mant != 0;
        pmin = pmin.min(if nz { pow } else { i32::MAX });
        pmax = pmax.max(if nz { pow } else { i32::MIN });
        mants[1 + t] = mant;
        pows[1 + t] = pow;
        negs[1 + t] = bits >> 63 == 1;
    }
    // `empty` (every contribution a signed zero) short-circuits the
    // spread test — the sentinels would overflow `pmax - pmin` — and
    // yields sum 0, which rounds to +0.0 like the scalar zero-skip.
    let empty = pmin == i32::MAX;
    let ok = !nonfinite && (empty || pmax - pmin <= SIMD_POW_RANGE);
    let base = if empty { 0 } else { pmin };
    // An invalid window is never read — skip the reduction entirely
    // rather than sum clamped-shift garbage (whose magnitudes could
    // overflow the i128 in debug builds).
    if !ok {
        return (0, base, false);
    }
    // Accumulate the exact window. Zero entries shift garbage distances
    // (their -1074 power can sit below the base) — clamp into [0, 127]
    // so the shift is always defined; a zero mantissa contributes
    // nothing at any distance. The conditional negation is xor/add, not
    // a branch.
    let mut sum = 0i128;
    for t in 0..1 + T {
        let v = (mants[t] as i128) << (pows[t] - base).clamp(0, 127) as u32;
        let s = -(negs[t] as i128);
        sum += (v ^ s) - s;
    }
    (sum, base, ok)
}

/// One chunk's products for a real-mode fragment row: `out[t][j] =
/// a[k0 + t] · bt[(k0 + t) * bstride + c0 + j]` as exact `f64`, for
/// `t < klen`, `j < 8`.
///
/// # Safety
/// Caller guarantees the slice windows are in bounds (`k0 + klen` rows of
/// `bt` with `c0 + 8 <= bstride`, `k0 + klen <= a.len()`) and that the
/// CPU supports the instruction set of the variant invoked.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    use super::{RowSeeds, COLS, MAX_KLEN, SIMD_POW_RANGE};

    /// Out-of-window power sentinel for the vector min/max reductions.
    /// Far outside any real f64/seed power (|pow| ≤ ~1100) yet small
    /// enough that sentinel arithmetic can't wrap an i64 lane.
    const POW_CAP: i64 = 1 << 40;

    /// Per-lane select: `b` where `mask`'s sign bit is set, else `a`.
    /// Masks are full-lane 0/−1 compare results, so the sign bit carries
    /// the whole lane's verdict.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn blendv64(a: __m256i, b: __m256i, mask: __m256i) -> __m256i {
        _mm256_castpd_si256(_mm256_blendv_pd(
            _mm256_castsi256_pd(a),
            _mm256_castsi256_pd(b),
            _mm256_castsi256_pd(mask),
        ))
    }

    /// Vectorised [`super::exact_chunk_accumulate_seeded`] across all 8
    /// columns of a fragment row: decode `seed[j] + Σ_t prods[t][j]` into
    /// exact 128-bit windows (`hi`/`lo` 64-bit halves, two's complement)
    /// anchored at per-column `base` powers.
    ///
    /// Returns a bitmask with bit `j` set when column `j`'s window is
    /// valid — all inputs finite and the power spread within
    /// [`SIMD_POW_RANGE`]. Lanes with a cleared bit hold garbage and the
    /// caller must take the scalar fallback for them. The caller also
    /// ANDs in `seeds.finite`, which this kernel does not see (non-finite
    /// seeds are stored as zero contributions).
    ///
    /// For valid lanes the result is bit-for-bit the scalar reduction:
    /// the shift split `lo = mant << s`, `hi = (mant >> (64-s)) |
    /// (mant << (s-64))` is branchless because `vpsllvq`/`vpsrlvq` yield
    /// zero for any count ≥ 64 (including negative counts viewed as
    /// unsigned), and the 128-bit add carries via the sign-bias unsigned
    /// compare.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available and `prods.len() >= klen`
    /// (with `klen <= MAX_KLEN`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_chunk_avx2(
        klen: usize,
        prods: &[[f64; COLS]],
        seeds: &RowSeeds,
        lo: &mut [u64; COLS],
        hi: &mut [u64; COLS],
        base: &mut [i64; COLS],
    ) -> u32 {
        debug_assert!(klen <= MAX_KLEN && prods.len() >= klen);
        let zero = _mm256_setzero_si256();
        let ones = _mm256_set1_epi64x(-1);
        let m52 = _mm256_set1_epi64x((1i64 << 52) - 1);
        let bit52 = _mm256_set1_epi64x(1i64 << 52);
        let emask = _mm256_set1_epi64x(0x7ff);
        let c1075 = _mm256_set1_epi64x(1075);
        let onev = _mm256_set1_epi64x(1);
        let bigv = _mm256_set1_epi64x(POW_CAP);
        let smallv = _mm256_set1_epi64x(-POW_CAP);
        let c64 = _mm256_set1_epi64x(64);
        let range = _mm256_set1_epi64x(SIMD_POW_RANGE as i64);
        let topbit = _mm256_set1_epi64x(i64::MIN);
        let mut okbits = 0u32;
        for g in 0..COLS / 4 {
            let o = 4 * g;
            let smant = _mm256_loadu_si256(seeds.mant.as_ptr().add(o) as *const __m256i);
            let spow = _mm256_loadu_si256(seeds.pow.as_ptr().add(o) as *const __m256i);
            let sneg = _mm256_loadu_si256(seeds.neg.as_ptr().add(o) as *const __m256i);
            // Zero contributions must not anchor the window: substitute
            // sentinels so min/max skip them (same rule as the scalar
            // `if nz` guards).
            let sz = _mm256_cmpeq_epi64(smant, zero);
            let mut pmin = blendv64(spow, bigv, sz);
            let mut pmax = blendv64(spow, smallv, sz);
            let mut nonfin = zero;
            let mut tmant = [zero; MAX_KLEN];
            let mut tpow = [zero; MAX_KLEN];
            let mut tneg = [zero; MAX_KLEN];
            for t in 0..klen {
                let bits =
                    _mm256_loadu_si256(prods.get_unchecked(t).as_ptr().add(o) as *const __m256i);
                let exp = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), emask);
                nonfin = _mm256_or_si256(nonfin, _mm256_cmpeq_epi64(exp, emask));
                let ez = _mm256_cmpeq_epi64(exp, zero);
                let mant =
                    _mm256_or_si256(_mm256_and_si256(bits, m52), _mm256_andnot_si256(ez, bit52));
                // pow = exp.max(1) - 1075 (subnormals share the min
                // exponent's weight).
                let pow = _mm256_sub_epi64(_mm256_or_si256(exp, _mm256_and_si256(ez, onev)), c1075);
                let mz = _mm256_cmpeq_epi64(mant, zero);
                let cmin = blendv64(pow, bigv, mz);
                let cmax = blendv64(pow, smallv, mz);
                pmin = blendv64(pmin, cmin, _mm256_cmpgt_epi64(pmin, cmin));
                pmax = blendv64(pmax, cmax, _mm256_cmpgt_epi64(cmax, pmax));
                tmant[t] = mant;
                tpow[t] = pow;
                tneg[t] = _mm256_cmpgt_epi64(zero, bits);
            }
            let empty = _mm256_cmpeq_epi64(pmin, bigv);
            let basev = _mm256_andnot_si256(empty, pmin);
            let spreadbad = _mm256_cmpgt_epi64(_mm256_sub_epi64(pmax, pmin), range);
            let okv = _mm256_andnot_si256(
                nonfin,
                _mm256_or_si256(_mm256_andnot_si256(spreadbad, ones), empty),
            );
            let mut slo = zero;
            let mut shi = zero;
            let (mut cm, mut cp, mut cn) = (smant, spow, sneg);
            let mut t = 0usize;
            loop {
                let s = _mm256_sub_epi64(cp, basev);
                let l = _mm256_sllv_epi64(cm, s);
                let h = _mm256_or_si256(
                    _mm256_srlv_epi64(cm, _mm256_sub_epi64(c64, s)),
                    _mm256_sllv_epi64(cm, _mm256_sub_epi64(s, c64)),
                );
                // Two's-complement negate of (h,l) where cn is set:
                // low half -l, high half ~h + (l == 0).
                let nl = _mm256_sub_epi64(zero, l);
                let lz = _mm256_cmpeq_epi64(l, zero);
                let nh = _mm256_sub_epi64(_mm256_xor_si256(h, ones), lz);
                let cl = blendv64(l, nl, cn);
                let ch = blendv64(h, nh, cn);
                // 128-bit add: unsigned carry out of the low half via the
                // sign-bias compare (new_lo <u addend ⇔ carry).
                let nlo = _mm256_add_epi64(slo, cl);
                let carry =
                    _mm256_cmpgt_epi64(_mm256_xor_si256(cl, topbit), _mm256_xor_si256(nlo, topbit));
                shi = _mm256_sub_epi64(_mm256_add_epi64(shi, ch), carry);
                slo = nlo;
                if t == klen {
                    break;
                }
                cm = tmant[t];
                cp = tpow[t];
                cn = tneg[t];
                t += 1;
            }
            _mm256_storeu_si256(lo.as_mut_ptr().add(o) as *mut __m256i, slo);
            _mm256_storeu_si256(hi.as_mut_ptr().add(o) as *mut __m256i, shi);
            _mm256_storeu_si256(base.as_mut_ptr().add(o) as *mut __m256i, basev);
            okbits |= (_mm256_movemask_pd(_mm256_castsi256_pd(okv)) as u32) << (4 * g);
        }
        okbits
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn row_products_avx2(
        a: &[f32],
        bt: &[f32],
        bstride: usize,
        c0: usize,
        k0: usize,
        klen: usize,
        out: &mut [[f64; COLS]; MAX_KLEN],
    ) {
        for t in 0..klen {
            let av = _mm256_set1_pd(*a.get_unchecked(k0 + t) as f64);
            let bp = bt.as_ptr().add((k0 + t) * bstride + c0);
            let lo = _mm256_cvtps_pd(_mm_loadu_ps(bp));
            let hi = _mm256_cvtps_pd(_mm_loadu_ps(bp.add(4)));
            let op = out.get_unchecked_mut(t).as_mut_ptr();
            _mm256_storeu_pd(op, _mm256_mul_pd(av, lo));
            _mm256_storeu_pd(op.add(4), _mm256_mul_pd(av, hi));
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn row_products_c32_avx2(
        ar: f64,
        ai: f64,
        bre: &[f32],
        bim: &[f32],
        out: &mut [[f64; COLS]; 4],
    ) {
        let arv = _mm256_set1_pd(ar);
        let aiv = _mm256_set1_pd(ai);
        let naiv = _mm256_set1_pd(-ai);
        let (brp, bip) = (bre.as_ptr(), bim.as_ptr());
        let (op0, op1, op2, op3) = {
            let [o0, o1, o2, o3] = out;
            (
                o0.as_mut_ptr(),
                o1.as_mut_ptr(),
                o2.as_mut_ptr(),
                o3.as_mut_ptr(),
            )
        };
        for h in 0..2 {
            let br = _mm256_cvtps_pd(_mm_loadu_ps(brp.add(4 * h)));
            let bi = _mm256_cvtps_pd(_mm_loadu_ps(bip.add(4 * h)));
            _mm256_storeu_pd(op0.add(4 * h), _mm256_mul_pd(arv, br));
            _mm256_storeu_pd(op1.add(4 * h), _mm256_mul_pd(naiv, bi));
            _mm256_storeu_pd(op2.add(4 * h), _mm256_mul_pd(arv, bi));
            _mm256_storeu_pd(op3.add(4 * h), _mm256_mul_pd(aiv, br));
        }
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn row_products_c32_sse2(
        ar: f64,
        ai: f64,
        bre: &[f32],
        bim: &[f32],
        out: &mut [[f64; COLS]; 4],
    ) {
        let arv = _mm_set1_pd(ar);
        let aiv = _mm_set1_pd(ai);
        let naiv = _mm_set1_pd(-ai);
        let (brp, bip) = (bre.as_ptr(), bim.as_ptr());
        let (op0, op1, op2, op3) = {
            let [o0, o1, o2, o3] = out;
            (
                o0.as_mut_ptr(),
                o1.as_mut_ptr(),
                o2.as_mut_ptr(),
                o3.as_mut_ptr(),
            )
        };
        for h in 0..4 {
            let br = _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
                brp.add(2 * h) as *const __m128i
            )));
            let bi = _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
                bip.add(2 * h) as *const __m128i
            )));
            _mm_storeu_pd(op0.add(2 * h), _mm_mul_pd(arv, br));
            _mm_storeu_pd(op1.add(2 * h), _mm_mul_pd(naiv, bi));
            _mm_storeu_pd(op2.add(2 * h), _mm_mul_pd(arv, bi));
            _mm_storeu_pd(op3.add(2 * h), _mm_mul_pd(aiv, br));
        }
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn row_products_sse2(
        a: &[f32],
        bt: &[f32],
        bstride: usize,
        c0: usize,
        k0: usize,
        klen: usize,
        out: &mut [[f64; COLS]; MAX_KLEN],
    ) {
        for t in 0..klen {
            let av = _mm_set1_pd(*a.get_unchecked(k0 + t) as f64);
            let bp = bt.as_ptr().add((k0 + t) * bstride + c0);
            let op = out.get_unchecked_mut(t).as_mut_ptr();
            for h in 0..4 {
                // cvtps2pd widens the low two f32 lanes of its source.
                let pair = _mm_castsi128_ps(_mm_loadl_epi64(bp.add(2 * h) as *const __m128i));
                _mm_storeu_pd(op.add(2 * h), _mm_mul_pd(av, _mm_cvtps_pd(pair)));
            }
        }
    }
}

/// Dispatch one chunk's row products to the active vector kernel.
///
/// `level` must not be `Scalar`; bounds per [`x86::row_products_avx2`].
#[inline]
#[allow(unused_variables, clippy::too_many_arguments)]
pub(crate) fn row_products(
    level: SimdLevel,
    a: &[f32],
    bt: &[f32],
    bstride: usize,
    c0: usize,
    k0: usize,
    klen: usize,
    out: &mut [[f64; COLS]; MAX_KLEN],
) {
    debug_assert!(k0 + klen <= a.len());
    debug_assert!((k0 + klen - 1) * bstride + c0 + COLS <= bt.len());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the debug asserts above state the bounds contract the
    // callers uphold (release builds rely on the same packing
    // invariants), and `level()`/`set_level()` only ever hand out levels
    // clamped to the host's detected capability.
    unsafe {
        match level {
            SimdLevel::Avx2 => x86::row_products_avx2(a, bt, bstride, c0, k0, klen, out),
            _ => x86::row_products_sse2(a, bt, bstride, c0, k0, klen, out),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("vector dispatch is x86_64-only; level() is Scalar elsewhere")
}

/// One FP32C element's four component product rows for a fragment row:
/// `out[0] = a_R·b_R`, `out[1] = -a_I·b_I`, `out[2] = a_R·b_I`,
/// `out[3] = a_I·b_R` across 8 columns, each an exact `f64` product.
/// The second row carries the real component's subtraction sign so
/// `out[0..2]` and `out[2..4]` are directly the re/im term rows.
///
/// `level` must not be `Scalar`; `bre`/`bim` must hold at least 8 values.
#[inline]
#[allow(unused_variables)]
pub(crate) fn row_products_c32(
    level: SimdLevel,
    ar: f32,
    ai: f32,
    bre: &[f32],
    bim: &[f32],
    out: &mut [[f64; COLS]; 4],
) {
    debug_assert!(bre.len() >= COLS && bim.len() >= COLS);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the slice windows are COLS wide by the debug-asserted
    // contract, and the level is clamped to detected capability (see
    // `row_products`).
    unsafe {
        match level {
            SimdLevel::Avx2 => x86::row_products_c32_avx2(ar as f64, ai as f64, bre, bim, out),
            _ => x86::row_products_c32_sse2(ar as f64, ai as f64, bre, bim, out),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("vector dispatch is x86_64-only; level() is Scalar elsewhere")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_clamps_to_capability() {
        let _guard = LEVEL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Whatever the host supports, Scalar is always honoured and the
        // clamp never exceeds the detected capability.
        assert_eq!(clamp(SimdLevel::Scalar, detected()), SimdLevel::Scalar);
        let c = clamp(SimdLevel::Avx2, detected());
        assert!(c == detected() || c == SimdLevel::Sse2 || c == SimdLevel::Scalar);
        // set_level round-trips through the atomic cell.
        let prev = level();
        set_level(SimdLevel::Scalar);
        assert_eq!(level(), SimdLevel::Scalar);
        set_level(prev);
        assert_eq!(level(), prev);
    }

    #[test]
    fn exact_chunk_round_matches_kulisch_on_f64_products() {
        // The f64-product reduction must round exactly like the Kulisch
        // register: random f32 pairs (normals, subnormals, huge/tiny
        // magnitudes) as exact products plus a seed, versus a Kulisch
        // drain of the same values.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut accepted = 0u32;
        for case in 0..6000 {
            let klen = 1 + (next() % 4) as usize;
            // Sweep pair magnitudes across normal, tiny, huge, and
            // subnormal-result regimes so pmin crosses every rounding
            // regime. Each class centres the seed on the product
            // magnitude (per-class seed shift) so a case's exponent
            // spread reflects its operands, not an artificial
            // seed/product gap.
            let rf32 = |r: u64, shift: i32| -> f32 {
                let mant = (r & 0x7f_ffff) as u32;
                let exp = ((100 + (r >> 40) % 24) as i32 + shift).clamp(0, 254) as u32;
                let sign = ((r >> 63) as u32) << 31;
                f32::from_bits(sign | (exp << 23) | mant)
            };
            // The last class seeds +0.0 and lands its sums astride the
            // f32 subnormal boundary (gradual underflow rounding).
            let classes: [(i32, i32, Option<i32>); 4] = [
                (0, 0, Some(-15)),
                (-40, 0, Some(-55)),
                (60, 60, Some(105)),
                (-60, -55, None),
            ];
            let (s0, s1, ss) = classes[case % 4];
            let seed = match ss {
                Some(ss) => rf32(next(), ss),
                None => 0.0,
            };
            let mut terms = [0f64; 4];
            let mut kul = m3xu_fp::Kulisch::new();
            kul.add_f64(seed as f64);
            for t in terms.iter_mut().take(klen) {
                let (x, y) = (rf32(next(), s0), rf32(next(), s1));
                *t = x as f64 * y as f64; // exact: 24+24 bits
                kul.add_product_f32(x, y);
            }
            let fast = match klen {
                1 => exact_chunk_round(seed, &[terms[0]]),
                2 => exact_chunk_round(seed, &[terms[0], terms[1]]),
                3 => exact_chunk_round(seed, &[terms[0], terms[1], terms[2]]),
                _ => exact_chunk_round(seed, &terms),
            };
            if let Some(fast) = fast {
                accepted += 1;
                assert_eq!(
                    fast.to_bits(),
                    kul.to_f32().to_bits(),
                    "case {case}: fast {fast:e} vs kulisch {:e}",
                    kul.to_f32()
                );
            }
        }
        // The window must actually cover the bulk of the sweep, not
        // vacuously abort everything.
        assert!(accepted > 4000, "only {accepted}/6000 cases accepted");
    }

    #[test]
    fn exact_chunk_round_aborts_on_specials_and_wide_spreads() {
        assert_eq!(exact_chunk_round(f32::NAN, &[1.0]), None);
        assert_eq!(exact_chunk_round(1.0, &[f64::INFINITY]), None);
        assert_eq!(exact_chunk_round(1.0, &[f64::NAN]), None);
        // Spread beyond the window: 2^100 vs 2^-100.
        assert_eq!(exact_chunk_round(1.0, &[1e30f64.powi(2), 1e-60]), None);
        // All-zero contributions collapse to +0.0 like the scalar path.
        assert_eq!(exact_chunk_round(0.0, &[0.0, -0.0]).unwrap().to_bits(), 0);
        assert_eq!(exact_chunk_round(-0.0, &[0.0]).unwrap().to_bits(), 0);
        // A finite exact sum beyond the f32 range overflows to ±Inf in
        // the rounder itself (the exponent guard, not a special input).
        let huge = f32::MAX as f64 * f32::MAX as f64;
        assert_eq!(exact_chunk_round(0.0, &[huge]), Some(f32::INFINITY));
        assert_eq!(exact_chunk_round(0.0, &[-huge]), Some(f32::NEG_INFINITY));
        assert_eq!(
            exact_chunk_round(f32::MAX, &[f32::MAX as f64 * 16.0]),
            Some(f32::INFINITY)
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn row_products_match_scalar_on_every_level() {
        let a: Vec<f32> = (0..16).map(|i| (i as f32 - 7.5) * 1.25e-3).collect();
        let bt: Vec<f32> = (0..160).map(|i| (i as f32 * 0.37).sin()).collect();
        let (bstride, c0, k0, klen) = (10, 1, 3, 4);
        let mut want = [[0f64; COLS]; MAX_KLEN];
        for t in 0..klen {
            for j in 0..COLS {
                want[t][j] = a[k0 + t] as f64 * bt[(k0 + t) * bstride + c0 + j] as f64;
            }
        }
        for lvl in [SimdLevel::Sse2, SimdLevel::Avx2] {
            if clamp(lvl, detected()) != lvl {
                continue;
            }
            let mut got = [[0f64; COLS]; MAX_KLEN];
            row_products(lvl, &a, &bt, bstride, c0, k0, klen, &mut got);
            assert_eq!(got, want, "{lvl:?}");
        }
    }

    #[test]
    #[ignore = "micro-profile; run with --release -- --ignored --nocapture"]
    fn micro_profile_panel_components() {
        use crate::matrix::Matrix;
        use crate::modes::MxuMode;
        use crate::packed::PackedOperand;
        use std::time::Instant;
        let k = 4096usize;
        let a = Matrix::<f32>::random(8, k, 1);
        let b = Matrix::<f32>::random(k, 8, 2);
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let lvl = level();
        let reps = 64;
        let chunks = k / 2;
        let elems = (8 * chunks * 8 * reps) as f64;

        // The host's clock drifts run to run; report the best of several
        // timed blocks so comparisons across builds are noise-resistant.
        let mut dpu = crate::dpu::DotProductUnit::new();
        let mut acc = [0f32; 64];
        let mut best = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            for _ in 0..reps {
                dpu.mma_f32_panel_into(&pa, &pb, 0, 8, 0, 8, 0, k, 2, &mut acc);
            }
            best = best.min(t.elapsed().as_nanos() as f64 / elems);
        }
        println!("panel total: {best:.1} ns/element-chunk ({lvl:?})");

        let mut out = [[0f64; COLS]; MAX_KLEN];
        let av: Vec<f32> = (0..k).map(|i| (i as f32).sin()).collect();
        let bt: Vec<f32> = (0..k * 8).map(|i| (i as f32).cos()).collect();
        let t = Instant::now();
        for _ in 0..reps * 8 {
            for c in 0..chunks {
                row_products(lvl, &av, &bt, 8, 0, c * 2, 2, &mut out);
            }
        }
        println!(
            "row_products: {:.1} ns/element-chunk",
            t.elapsed().as_nanos() as f64 / elems
        );
        std::hint::black_box(&out);

        let terms = [0.37f64, -0.11];
        let t = Instant::now();
        let mut s = 0f32;
        for _ in 0..(elems as usize) {
            s = exact_chunk_round(std::hint::black_box(s) * 1e-3, &terms).unwrap_or(0.0);
        }
        println!(
            "exact_chunk_round: {:.1} ns/element-chunk",
            t.elapsed().as_nanos() as f64 / elems
        );
        std::hint::black_box(s);

        let mut sum = 0x001f_3a5c_9b71_0042_i128 << 9;
        let mut best = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            for _ in 0..(elems as usize) / 8 {
                let r = super::super::fast_round_f32(std::hint::black_box(sum), -80);
                sum ^= (r.to_bits() & 1) as i128;
            }
            best = best.min(t.elapsed().as_nanos() as f64 / (elems / 8.0));
        }
        println!("fast_round_f32: {best:.1} ns/call (latency-chained)");
        std::hint::black_box(sum);

        // Throughput (8 independent streams) of the two halves of the
        // exact path — where the panel budget actually goes.
        let mut seeds = [0.1f32, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8];
        let term_pool: Vec<[f64; 2]> = (0..64)
            .map(|i| [(i as f64 * 0.37).sin(), -(i as f64 * 0.11).cos()])
            .collect();
        let mut best = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            for r in 0..(elems as usize) / 8 {
                let terms2 = std::hint::black_box(&term_pool[r & 63]);
                for s in &mut seeds {
                    let (sum, pmin, ok) = exact_chunk_accumulate(std::hint::black_box(*s), terms2);
                    *s = f32::from_bits(s.to_bits() ^ ((sum as u32 ^ pmin as u32 ^ ok as u32) & 1));
                }
            }
            best = best.min(t.elapsed().as_nanos() as f64 / elems);
        }
        println!("accumulate throughput: {best:.1} ns/element-chunk");
        std::hint::black_box(&seeds);

        // The full per-chunk composition (products + accumulate + round)
        // over bare local state — isolates the algorithmic cost from the
        // panel's operand/dispatch plumbing.
        let mut out = [[0f64; COLS]; MAX_KLEN];
        let mut accs = [0f32; COLS];
        let mut best = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            for _ in 0..reps * 8 {
                let mut cs = [ChunkSeed::decode(0.0); COLS];
                for (c, a) in cs.iter_mut().zip(accs.iter()) {
                    *c = ChunkSeed::decode(*a);
                }
                for c in 0..chunks {
                    row_products(lvl, &av, &bt, 8, 0, c * 2, 2, &mut out);
                    for j in 0..COLS {
                        let terms = [out[0][j], out[1][j]];
                        let (sum, pmin, ok) = exact_chunk_accumulate_seeded(cs[j], &terms);
                        if ok {
                            let (sign, frac, weight, finite) =
                                super::super::fast_round_parts(sum, pmin);
                            accs[j] = super::super::fast_round_assemble(sign, frac, weight, finite);
                            cs[j] = ChunkSeed {
                                mant: frac,
                                pow: weight,
                                neg: sign != 0,
                                finite,
                            };
                        } else {
                            accs[j] = 0.0;
                            cs[j] = ChunkSeed::decode(0.0);
                        }
                    }
                }
            }
            best = best.min(t.elapsed().as_nanos() as f64 / elems);
        }
        println!("mini-panel (no plumbing): {best:.1} ns/element-chunk");
        std::hint::black_box(&accs);

        let mut sums = [
            0x001f_3a5c_9b71_0042_i128 << 9,
            0x000a_1111_2222_3333_i128 << 11,
            0x001c_4444_5555_6666_i128 << 7,
            0x0013_7777_8888_9999_i128 << 13,
            0x001e_aaaa_bbbb_cccc_i128 << 5,
            0x0009_dddd_eeee_ffff_i128 << 15,
            0x0016_1234_5678_9abc_i128 << 3,
            0x001b_def0_1234_5678_i128 << 17,
        ];
        let mut best = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            for _ in 0..(elems as usize) / 8 {
                for s in &mut sums {
                    let r = super::super::fast_round_f32(std::hint::black_box(*s), -80);
                    *s ^= (r.to_bits() & 1) as i128;
                }
            }
            best = best.min(t.elapsed().as_nanos() as f64 / elems);
        }
        println!("fast_round_f32 throughput: {best:.1} ns/call");
        std::hint::black_box(&sums);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn row_products_c32_match_scalar_on_every_level() {
        let (ar, ai) = (0.713f32, -1.375e-2f32);
        let bre: Vec<f32> = (0..8).map(|i| (i as f32 * 0.61).cos()).collect();
        let bim: Vec<f32> = (0..8).map(|i| (i as f32 * 0.23 - 1.0).tan()).collect();
        let mut want = [[0f64; COLS]; 4];
        for j in 0..COLS {
            want[0][j] = ar as f64 * bre[j] as f64;
            want[1][j] = -ai as f64 * bim[j] as f64;
            want[2][j] = ar as f64 * bim[j] as f64;
            want[3][j] = ai as f64 * bre[j] as f64;
        }
        for lvl in [SimdLevel::Sse2, SimdLevel::Avx2] {
            if clamp(lvl, detected()) != lvl {
                continue;
            }
            let mut got = [[0f64; COLS]; 4];
            row_products_c32(lvl, ar, ai, &bre, &bim, &mut got);
            assert_eq!(got, want, "{lvl:?}");
        }
    }
}
