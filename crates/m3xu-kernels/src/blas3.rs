//! The packed GEMM-family driver: one pipeline behind plain GEMM, the
//! full BLAS-3 surface, and the ABFT-checked runs of both.
//!
//! Every call is `D = alpha·op(A)·op(B) + beta·C` over an output region,
//! described by one `PackedCall` whose fields are the only thing that
//! distinguishes GEMM, SYMM/HEMM, and SYRK/HERK:
//!
//! * **plain GEMM** ([`crate::gemm`]) is the instance `op = N`,
//!   `alpha = beta = 1` over the full region — both folds below are
//!   bitwise skips at unit scalars, so it is bit- and stats-identical to
//!   op-GEMM with those parameters;
//! * **`op(X)` operands** — `X`, `X^T`, `X^H` iterate straight out of the
//!   stored buffer through [`OpView`] (no transposed or conjugated copy is
//!   ever materialized; see [`m3xu_mxu::matrix`]);
//! * **alpha/beta accumulate** — alpha folds into `op(A)`'s elements
//!   *before* buffer quantisation (bitwise-skipped when `alpha == 1`);
//!   beta folds into the tile seeds (`beta == 1` seeds from `C` itself;
//!   `beta == +0.0` seeds zeros without reading `C`, so an
//!   uninitialised/NaN `C` never leaks);
//! * **SYMM/HEMM** — a triangle-stored symmetric/Hermitian operand
//!   expands on the fly through [`MirrorView`];
//! * **SYRK/HERK** — rank-k updates schedule **only the output tiles that
//!   intersect the requested triangle**: `T(T+1)/2` of the full `T²` tile
//!   grid (`T = n/8` tiles per side), an asymptotic 2x saving in MMA
//!   instructions, steps, and wall time that
//!   [`m3xu_gpu::validate`] predicts exactly. Off-diagonal tiles store
//!   their full 8x8 block (it lies entirely inside the triangle);
//!   diagonal tiles store element-predicated, so the unreferenced
//!   triangle of `C` passes through **byte-for-byte untouched**.
//!
//! ## The pipeline
//!
//! The driver validates the shapes, decodes both operands into
//! [`PackedOperand`] planes once per call (borrowing the context's
//! scratch arena), and distributes the output tiles over the persistent
//! [`WorkerPool`]. Each tile seeds its accumulator, runs its reduction,
//! and stores its disjoint region of `D`; the recorded sample is a pure
//! function of the fragment grid.
//!
//! Only the per-tile reduction depends on whether a [`FaultPlan`] is
//! armed. Unarmed, tiles run the cache-blocked panel epochs of
//! [`KPlan`] through the SIMD row pipeline. Armed, tiles run the *same*
//! panel kernels one k-chunk per call, with a [`Checksum`] residue sink in
//! place of the no-op one: the chunk's computed checksum comes out of the
//! kernel pass itself (see [`m3xu_mxu::abft::ResidueSink`]), and an
//! injected fault lands in the rounded tile afterwards
//! ([`m3xu_mxu::fault::inject`]). Every chunk is verified against
//! Huang–Abraham checksums expected from the **packed** planes (after
//! alpha folding, op/mirror views, and quantisation, so every precision
//! is checkable), and recovery is hierarchical:
//!
//! * a **checksum mismatch** restores the chunk's seeds and re-executes
//!   only that chunk (each attempt is a fresh fault site) — up to
//!   `MAX_TILE_ATTEMPTS` executions per chunk;
//! * a **lost pool epoch** (injected task panic, killed worker) is caught
//!   with `catch_unwind` and the whole tile grid re-submitted — tiles
//!   seed from the inputs, never from `D`, so every rerun is idempotent —
//!   up to `MAX_EPOCH_ATTEMPTS`;
//! * anything that survives both loops surfaces as
//!   [`M3xuError::FaultDetected`]. The driver never panics and never
//!   returns silently-corrupt data the checksums can see.
//!
//! A checked success records the same production sample as an unchecked
//! run; verification work and re-executions are reported in the
//! [`FaultSummary`] and the context's fault counters instead.

use crate::blocking::KPlan;
use crate::context::{self, GemmSample, M3xuContext};
use crate::gemm::{check_precision, validate_gemm_shapes, GemmPrecision, GemmResult};
use crate::pool::WorkerPool;
use m3xu_fp::complex::Complex;
use m3xu_mxu::abft::{self, Checksum, NoResidue, ResidueSink};
use m3xu_mxu::dpu::DotProductUnit;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::fault::{self, FaultPlan, FaultSummary, FaultTarget, TaskFault};
use m3xu_mxu::matrix::{MatOp, MatSource, Matrix, MirrorView, OpView, Triangle};
use m3xu_mxu::mma::{MmaShape, MmaStats};
use m3xu_mxu::modes::MxuMode;
use m3xu_mxu::packed::{fragment_stats, PackedOperand, PackedStorage};
use std::borrow::Cow;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Fixed per-tile accumulator scratch (one full fragment,
/// `frag.m * frag.n` elements). Validated against each mode's fragment
/// shape at entry so a future shape cannot silently truncate a tile or
/// panic mid-epoch inside a pooled task.
const ACC_SCRATCH: usize = 64;

/// Executions a checked run grants one k-chunk before declaring its tile
/// unrecoverable. Sites include the attempt number, so a fault plan with
/// rate < 1 usually clears within a retry or two (the residual failure
/// probability is `rate^4` per chunk); a plan with rate 1.0 exhausts them
/// and exercises the error path.
const MAX_TILE_ATTEMPTS: u64 = 4;

/// Pool-epoch re-submissions a checked run performs when an injected task
/// panic (or an abruptly-killed worker) loses a whole epoch.
const MAX_EPOCH_ATTEMPTS: u64 = 4;

thread_local! {
    /// One dot-product unit per thread, reused across every fragment of
    /// every call — its wide Kulisch registers never hit the allocator on
    /// the hot path.
    static DPU: RefCell<DotProductUnit> = RefCell::new(DotProductUnit::new());
}

/// Which side a SYMM/HEMM's symmetric operand multiplies from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// `C = alpha·A·B + beta·C` (A is the symmetric/Hermitian operand).
    Left,
    /// `C = alpha·B·A + beta·C`.
    Right,
}

/// The output region a call writes.
#[derive(Debug, Clone, Copy)]
enum OutRegion {
    /// Every output tile (GEMM/SYMM/HEMM).
    Full,
    /// Only tiles intersecting the triangle (SYRK/HERK).
    Tri(Triangle),
}

impl OutRegion {
    /// True if logical output element `(i, j)` is written by this region.
    #[inline]
    fn writes(self, i: usize, j: usize) -> bool {
        match self {
            OutRegion::Full => true,
            OutRegion::Tri(t) => t.contains(i, j),
        }
    }
}

/// An element type the packed driver runs: the alpha/beta scalar
/// algebra, the source-generic (op/alpha-aware) packers, the panel
/// executor, and the expected per-k-chunk checksum of a checked run (the
/// computed side comes out of the panel executor itself, and
/// [`FaultTarget`] is where an injected fault lands).
pub(crate) trait PackedElem: FaultTarget + Default + Send + Sync + 'static {
    /// Bytes per reduction element in the packed value plane (`B` side) —
    /// what the cache-blocking plan sizes its panels around.
    const VAL_BYTES: usize;
    /// The alpha/beta scalar type (`f32`, [`Complex<f32>`], `f64`).
    type Scalar: Copy + Send + Sync + 'static;
    /// The unit scalar: plain GEMM's alpha and beta.
    const ONE: Self::Scalar;
    /// Bitwise `== 1` — the multiplication skip the bit-exactness
    /// contract between plain GEMM and op-GEMM hangs on.
    fn is_unit(s: Self::Scalar) -> bool;
    /// Bitwise `== +0.0` — the "never read C" overwrite fast path.
    fn is_zero(s: Self::Scalar) -> bool;
    /// `s * x` (the plain IEEE multiply the reference oracle mirrors).
    fn scale(s: Self::Scalar, x: Self) -> Self;
    /// The HERK diagonal seed `beta·Re(c)` — imaginary parts of a
    /// Hermitian diagonal are never referenced (BLAS convention).
    fn real_diag_seed(beta: Self::Scalar, c: Self) -> Self;
    /// The value with any imaginary component forced to `+0.0`.
    fn force_real(x: Self) -> Self;
    /// Pack rows (the first operand) from any logical source, folding
    /// `alpha` before quantisation.
    fn pack_rows<S: MatSource<Self>>(
        src: &S,
        alpha: Self::Scalar,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<PackedOperand, M3xuError>;
    /// Pack columns (the second operand) from any logical source.
    fn pack_cols<S: MatSource<Self>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<PackedOperand, M3xuError>;
    /// Execute a whole `[k0, kend)` reduction panel on one tile
    /// (row-major `rows x cols` in `acc`), chunked at `frag_k`, through
    /// the SIMD row pipeline where eligible, reporting every element's
    /// exact pre-rounding residue into `sink`.
    #[allow(clippy::too_many_arguments)]
    fn execute_panel<S: ResidueSink>(
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [Self],
        sink: &mut S,
    );
    /// Expected checksum of one k-chunk, from the tile's **packed**
    /// operand bands and its pre-chunk accumulator (`seeds`, row-major
    /// `rows × cols`): the expected side predicts exactly what the MMA
    /// multiplies.
    #[allow(clippy::too_many_arguments)]
    fn expected_chunk(
        a: &PackedOperand,
        b: &PackedOperand,
        seeds: &[Self],
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
    ) -> Checksum;
}

impl PackedElem for f32 {
    const VAL_BYTES: usize = std::mem::size_of::<f32>();
    type Scalar = f32;
    const ONE: f32 = 1.0;
    #[inline]
    fn is_unit(s: f32) -> bool {
        s.to_bits() == 1.0f32.to_bits()
    }
    #[inline]
    fn is_zero(s: f32) -> bool {
        s.to_bits() == 0.0f32.to_bits()
    }
    #[inline]
    fn scale(s: f32, x: f32) -> f32 {
        s * x
    }
    #[inline]
    fn real_diag_seed(beta: f32, c: f32) -> f32 {
        if Self::is_zero(beta) {
            0.0
        } else if Self::is_unit(beta) {
            c
        } else {
            beta * c
        }
    }
    #[inline]
    fn force_real(x: f32) -> f32 {
        x
    }
    fn pack_rows<S: MatSource<f32>>(
        src: &S,
        alpha: f32,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<PackedOperand, M3xuError> {
        PackedOperand::try_pack_rows_f32_src_in(src, alpha, mode, storage)
    }
    fn pack_cols<S: MatSource<f32>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<PackedOperand, M3xuError> {
        PackedOperand::try_pack_cols_f32_src_in(src, 1.0, mode, storage)
    }
    fn execute_panel<S: ResidueSink>(
        dpu: &mut DotProductUnit,
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
        dpu.mma_f32_panel_sink_into(a, b, r0, rows, c0, cols, k0, kend, frag_k, acc, sink);
    }
    fn expected_chunk(
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
        abft::expected_chunk_packed_f32(a, b, seeds, r0, rows, c0, cols, k0, kend)
    }
}

impl PackedElem for Complex<f32> {
    const VAL_BYTES: usize = std::mem::size_of::<Complex<f32>>();
    type Scalar = Complex<f32>;
    const ONE: Complex<f32> = Complex::<f32>::ONE;
    #[inline]
    fn is_unit(s: Complex<f32>) -> bool {
        s.re.to_bits() == 1.0f32.to_bits() && s.im.to_bits() == 0.0f32.to_bits()
    }
    #[inline]
    fn is_zero(s: Complex<f32>) -> bool {
        s.re.to_bits() == 0.0f32.to_bits() && s.im.to_bits() == 0.0f32.to_bits()
    }
    #[inline]
    fn scale(s: Complex<f32>, x: Complex<f32>) -> Complex<f32> {
        s * x
    }
    #[inline]
    fn real_diag_seed(beta: Complex<f32>, c: Complex<f32>) -> Complex<f32> {
        // HERK's beta is real by signature; only its real part and C's
        // real part participate on the diagonal.
        if Self::is_zero(beta) {
            Complex::<f32>::ZERO
        } else if Self::is_unit(beta) {
            Complex::new(c.re, 0.0)
        } else {
            Complex::new(beta.re * c.re, 0.0)
        }
    }
    #[inline]
    fn force_real(x: Complex<f32>) -> Complex<f32> {
        Complex::new(x.re, 0.0)
    }
    fn pack_rows<S: MatSource<Complex<f32>>>(
        src: &S,
        alpha: Complex<f32>,
        _mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<PackedOperand, M3xuError> {
        Ok(PackedOperand::pack_rows_c32_src_in(src, alpha, storage))
    }
    fn pack_cols<S: MatSource<Complex<f32>>>(
        src: &S,
        _mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<PackedOperand, M3xuError> {
        Ok(PackedOperand::pack_cols_c32_src_in(
            src,
            Complex::<f32>::ONE,
            storage,
        ))
    }
    fn execute_panel<S: ResidueSink>(
        dpu: &mut DotProductUnit,
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
        dpu.mma_c32_panel_sink_into(a, b, r0, rows, c0, cols, k0, kend, frag_k, acc, sink);
    }
    fn expected_chunk(
        a: &PackedOperand,
        b: &PackedOperand,
        seeds: &[Complex<f32>],
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
    ) -> Checksum {
        abft::expected_chunk_packed_c32(a, b, seeds, r0, rows, c0, cols, k0, kend)
    }
}

impl PackedElem for f64 {
    const VAL_BYTES: usize = std::mem::size_of::<f64>();
    type Scalar = f64;
    const ONE: f64 = 1.0;
    #[inline]
    fn is_unit(s: f64) -> bool {
        s.to_bits() == 1.0f64.to_bits()
    }
    #[inline]
    fn is_zero(s: f64) -> bool {
        s.to_bits() == 0.0f64.to_bits()
    }
    #[inline]
    fn scale(s: f64, x: f64) -> f64 {
        s * x
    }
    #[inline]
    fn real_diag_seed(beta: f64, c: f64) -> f64 {
        if Self::is_zero(beta) {
            0.0
        } else if Self::is_unit(beta) {
            c
        } else {
            beta * c
        }
    }
    #[inline]
    fn force_real(x: f64) -> f64 {
        x
    }
    fn pack_rows<S: MatSource<f64>>(
        src: &S,
        alpha: f64,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<PackedOperand, M3xuError> {
        PackedOperand::try_pack_rows_f64_src_in(src, alpha, mode, storage)
    }
    fn pack_cols<S: MatSource<f64>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<PackedOperand, M3xuError> {
        PackedOperand::try_pack_cols_f64_src_in(src, 1.0, mode, storage)
    }
    fn execute_panel<S: ResidueSink>(
        dpu: &mut DotProductUnit,
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
        dpu.mma_f64_panel_sink_into(a, b, r0, rows, c0, cols, k0, kend, frag_k, acc, sink);
    }
    fn expected_chunk(
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
        abft::expected_chunk_packed_f64(a, b, seeds, r0, rows, c0, cols, k0, kend)
    }
}

/// One call of the packed driver: `D = alpha·a·b + beta·C` over
/// `region`, where `a` and `b` are *logical* sources (op views, mirror
/// views, or plain matrices) and alpha folds into `a` at pack time.
pub(crate) struct PackedCall<'a, E: PackedElem, SA, SB> {
    /// The op name a [`M3xuError::FaultDetected`] reports.
    op: &'static str,
    mode: MxuMode,
    a: &'a SA,
    b: &'a SB,
    alpha: E::Scalar,
    beta: E::Scalar,
    c: &'a Matrix<E>,
    region: OutRegion,
    /// HERK: diagonal entries seed from `beta·Re(c)` and store exactly
    /// real.
    real_diag: bool,
}

impl<'a, E: PackedElem, SA, SB> PackedCall<'a, E, SA, SB> {
    /// A full-output call `D = alpha·a·b + beta·C`; SYRK/HERK narrow the
    /// region (and HERK the diagonal) with struct-update syntax.
    pub(crate) fn full(
        op: &'static str,
        mode: MxuMode,
        a: &'a SA,
        b: &'a SB,
        alpha: E::Scalar,
        beta: E::Scalar,
        c: &'a Matrix<E>,
    ) -> Self {
        PackedCall {
            op,
            mode,
            a,
            b,
            alpha,
            beta,
            c,
            region: OutRegion::Full,
            real_diag: false,
        }
    }
}

impl<'a, E: PackedElem> PackedCall<'a, E, Matrix<E>, Matrix<E>> {
    /// Plain `D = A·B + C`: op-GEMM at `op = N`, `alpha = beta = 1` over
    /// the full output.
    pub(crate) fn gemm(
        op: &'static str,
        mode: MxuMode,
        a: &'a Matrix<E>,
        b: &'a Matrix<E>,
        c: &'a Matrix<E>,
    ) -> Self {
        Self::full(op, mode, a, b, E::ONE, E::ONE, c)
    }
}

/// The beta-folded seed of every output element: `C` itself at unit beta
/// (no copy — the plain accumulate path), otherwise a copy of `C` with the
/// written region folded (`+0.0` beta never reads `C`'s values there;
/// HERK diagonals seed `beta·Re(c)`). A pure function of the inputs, so a
/// checked epoch rerun seeds from identical state.
fn seed_base<E: PackedElem>(
    c: &Matrix<E>,
    beta: E::Scalar,
    region: OutRegion,
    real_diag: bool,
) -> Cow<'_, Matrix<E>> {
    let beta_unit = E::is_unit(beta);
    if beta_unit && !real_diag {
        return Cow::Borrowed(c);
    }
    let beta_zero = E::is_zero(beta);
    let mut base = c.clone();
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            if !region.writes(i, j) {
                continue;
            }
            let seed = if real_diag && i == j {
                E::real_diag_seed(beta, c.get(i, j))
            } else if beta_zero {
                E::default()
            } else if beta_unit {
                continue;
            } else {
                E::scale(beta, c.get(i, j))
            };
            base.set(i, j, seed);
        }
    }
    Cow::Owned(base)
}

/// A raw output pointer the tile tasks write through. Tiles are disjoint
/// regions of the output, so concurrent writes never alias.
struct SendPtr<T>(*mut T);
// SAFETY: the one field points into the call's output matrix, which
// outlives every pool epoch that uses it; tasks only write `T` values
// (hence `T: Send`) into their own disjoint tiles through it.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — shared access never aliases a write, because each
// task touches only its own tile's region.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// One output tile: its origin, its (edge-clipped) extent, and whether it
/// sits on the tile-grid diagonal.
struct Tile {
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    diag: bool,
}

/// The output-tile schedule of one call: the row-major run of tiles the
/// region intersects — the whole `tiles_m x tiles_n` grid, or the
/// `T(T+1)/2` tiles meeting a triangle. Tile ids map to coordinates
/// arithmetically; no per-call tile list is built.
struct TileGrid {
    frag: MmaShape,
    m: usize,
    n: usize,
    tiles_n: usize,
    region: OutRegion,
    len: usize,
}

impl TileGrid {
    fn new(frag: MmaShape, m: usize, n: usize, region: OutRegion) -> Self {
        let (tiles_m, tiles_n, _) = frag.grid(m, n, 0);
        let mut grid = TileGrid {
            frag,
            m,
            n,
            tiles_n,
            region,
            len: 0,
        };
        grid.len = (0..tiles_m).map(|ti| grid.row_span(ti).1).sum();
        grid
    }

    /// The scheduled tile columns `[first, first + count)` of tile row
    /// `ti`.
    fn row_span(&self, ti: usize) -> (usize, usize) {
        match self.region {
            OutRegion::Full => (0, self.tiles_n),
            OutRegion::Tri(Triangle::Lower) => (0, (ti + 1).min(self.tiles_n)),
            OutRegion::Tri(Triangle::Upper) => (ti, self.tiles_n.saturating_sub(ti)),
        }
    }

    fn tile(&self, tid: usize) -> Tile {
        let (ti, tj) = match self.region {
            OutRegion::Full => (tid / self.tiles_n, tid % self.tiles_n),
            OutRegion::Tri(_) => {
                let (mut ti, mut rest) = (0, tid);
                loop {
                    let (first, count) = self.row_span(ti);
                    if rest < count {
                        break (ti, first + rest);
                    }
                    rest -= count;
                    ti += 1;
                }
            }
        };
        let (i0, j0) = (ti * self.frag.m, tj * self.frag.n);
        Tile {
            i0,
            j0,
            rows: self.frag.m.min(self.m - i0),
            cols: self.frag.n.min(self.n - j0),
            diag: ti == tj,
        }
    }
}

/// What every tile task shares: the schedule, the packed operands, the
/// seed base, and the output.
struct Pass<'a, E> {
    grid: TileGrid,
    pa: &'a PackedOperand,
    pb: &'a PackedOperand,
    k: usize,
    base: &'a Matrix<E>,
    d: SendPtr<E>,
    real_diag: bool,
}

impl<E: PackedElem> Pass<'_, E> {
    /// Seed `acc` with tile `t`: from the seed base on the tile's first
    /// k-epoch (a row copy), from `D`'s partial sums on later epochs. On
    /// a triangular region's diagonal tiles the out-of-triangle positions
    /// seed the untouched `C` values — their accumulations are discarded
    /// by the predicated store.
    fn seed(&self, t: &Tile, acc: &mut [E], first: bool) {
        if first {
            self.base.view(t.i0, t.j0, t.rows, t.cols).copy_into(acc);
            return;
        }
        for (i, row) in acc.chunks_exact_mut(t.cols).enumerate() {
            // SAFETY: this tile owns its disjoint output region, epochs
            // run sequentially, and the pointer outlives the pool run —
            // the reads see exactly what the previous epoch's store wrote.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.d.get().add((t.i0 + i) * self.grid.n + t.j0) as *const E,
                    row.as_mut_ptr(),
                    t.cols,
                );
            }
        }
    }

    /// Store tile `t`. Full-region tiles and off-diagonal triangular
    /// tiles (which lie entirely inside the triangle) bulk-store; only
    /// diagonal tiles of a triangle pay per-element predication.
    fn store(&self, t: &Tile, acc: &[E]) {
        let n = self.grid.n;
        if matches!(self.grid.region, OutRegion::Full) || !t.diag {
            for (i, row) in acc.chunks_exact(t.cols).enumerate() {
                // SAFETY: this tile's disjoint output region; a checked
                // epoch rerun rewrites the same bytes.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        row.as_ptr(),
                        self.d.get().add((t.i0 + i) * n + t.j0),
                        t.cols,
                    );
                }
            }
            return;
        }
        for i in 0..t.rows {
            for j in 0..t.cols {
                let (gi, gj) = (t.i0 + i, t.j0 + j);
                if !self.grid.region.writes(gi, gj) {
                    continue;
                }
                let mut v = acc[i * t.cols + j];
                if self.real_diag && gi == gj {
                    v = E::force_real(v);
                }
                // SAFETY: as above — disjoint predicated store.
                unsafe {
                    *self.d.get().add(gi * n + gj) = v;
                }
            }
        }
    }

    /// One pool epoch: `body(tid, tile)` for every scheduled output tile.
    fn epoch(&self, pool: &WorkerPool, body: impl Fn(usize, Tile) + Sync) {
        pool.run(self.grid.len, |tid| body(tid, self.grid.tile(tid)));
    }

    /// The unchecked reduction. L2 epochs: one pool dispatch per
    /// `kc2`-deep reduction slice, so the whole tile grid consumes one
    /// L2-resident band of `B`'s planes before the next band is touched;
    /// L1 panels inside keep one 8-column slice of `B` resident across a
    /// tile's rows. Epoch and panel boundaries are fragment boundaries,
    /// so each tile's chunk sequence is identical to the unblocked loop.
    fn unchecked(&self, pool: &WorkerPool) {
        let frag_k = self.grid.frag.k;
        let plan = KPlan::new(frag_k, self.k, self.grid.n, E::VAL_BYTES);
        let mut ke0 = 0usize;
        while ke0 < self.k {
            let ke1 = (ke0 + plan.kc2).min(self.k);
            self.epoch(pool, |_, t| {
                let mut acc = [E::default(); ACC_SCRATCH]; // >= frag.m * frag.n, checked at entry
                let acc = &mut acc[..t.rows * t.cols];
                self.seed(&t, acc, ke0 == 0);
                DPU.with(|dpu| {
                    let mut dpu = dpu.borrow_mut();
                    let mut kb = ke0;
                    while kb < ke1 {
                        let kbend = (kb + plan.kc1).min(ke1);
                        E::execute_panel(
                            &mut dpu,
                            self.pa,
                            self.pb,
                            t.i0,
                            t.rows,
                            t.j0,
                            t.cols,
                            kb,
                            kbend,
                            frag_k,
                            acc,
                            &mut NoResidue,
                        );
                        kb = kbend;
                    }
                });
                self.store(&t, acc);
            });
            ke0 = ke1;
        }
    }

    /// The checked reduction under `plan`: one pool epoch over the whole
    /// `K` loop, each k-chunk verified and rolled back on mismatch, lost
    /// epochs re-submitted (see the [module docs](self)). Returns the
    /// call's fault summary and the number of tiles left unrecovered.
    fn checked(&self, pool: &WorkerPool, plan: &FaultPlan) -> (FaultSummary, u64) {
        let frag_k = self.grid.frag.k;
        // One salt per driver invocation: a serve-layer retry of this
        // whole call draws an independent fault schedule.
        let salt = plan.next_call();
        // Cumulative telemetry across every epoch attempt.
        let detected = AtomicU64::new(0);
        let retries = AtomicU64::new(0);
        // Per-epoch outcome: tiles that exhausted their attempts, and the
        // mismatches those tiles could not repair. Reset before each
        // epoch — a lost epoch's failures get fresh attempts on the
        // rerun, so only the final epoch's failures count as uncorrected.
        let failed_tiles = AtomicU64::new(0);
        let epoch_uncorrected = AtomicU64::new(0);
        let mut epoch_ok = false;
        for epoch_attempt in 0..MAX_EPOCH_ATTEMPTS {
            failed_tiles.store(0, Ordering::Relaxed);
            epoch_uncorrected.store(0, Ordering::Relaxed);
            let task = |tid: usize, t: Tile| {
                match plan.task_fault(salt, epoch_attempt, tid as u64) {
                    Some(TaskFault::Stall { millis }) => {
                        std::thread::sleep(std::time::Duration::from_millis(millis));
                    }
                    Some(TaskFault::Panic) => {
                        panic!("m3xu fault injection: task panic (tile {tid})");
                    }
                    None => {}
                }
                let mut acc = [E::default(); ACC_SCRATCH]; // >= frag.m * frag.n, checked at entry
                let acc = &mut acc[..t.rows * t.cols];
                // Snapshot of the accumulator at each chunk's entry:
                // restoring it makes a chunk re-execution exactly
                // idempotent, so a mismatch re-runs only that chunk.
                let mut seeds = [E::default(); ACC_SCRATCH];
                let seeds = &mut seeds[..t.rows * t.cols];
                self.seed(&t, acc, true);
                let mut tile_detected = 0u64;
                let mut tile_retries = 0u64;
                let mut tile_uncorrected = 0u64;
                let mut tile_failed = false;
                DPU.with(|dpu| {
                    let mut dpu = dpu.borrow_mut();
                    for (ci, k0) in (0..self.k).step_by(frag_k).enumerate() {
                        let kend = (k0 + frag_k).min(self.k);
                        seeds.copy_from_slice(acc);
                        let expected = E::expected_chunk(
                            self.pa, self.pb, seeds, t.i0, t.rows, t.j0, t.cols, k0, kend,
                        );
                        let mut chunk_fails = 0u64;
                        let mut chunk_ok = false;
                        for attempt in 0..MAX_TILE_ATTEMPTS {
                            if attempt > 0 {
                                acc.copy_from_slice(seeds);
                            }
                            // Specials bypass the multiplier array: an
                            // unverifiable chunk is not a fault target.
                            let fault = if expected.ok {
                                plan.mma_fault(salt, epoch_attempt, tid as u64, ci as u64, attempt)
                            } else {
                                None
                            };
                            let mut computed = Checksum::ZERO;
                            E::execute_panel(
                                &mut dpu,
                                self.pa,
                                self.pb,
                                t.i0,
                                t.rows,
                                t.j0,
                                t.cols,
                                k0,
                                kend,
                                frag_k,
                                acc,
                                &mut computed,
                            );
                            if let Some(f) = &fault {
                                fault::inject(f, acc, &mut computed);
                            }
                            if expected.matches(&computed) {
                                chunk_ok = true;
                                break;
                            }
                            chunk_fails += 1;
                        }
                        tile_detected += chunk_fails;
                        if chunk_ok {
                            // Every detection triggered one repairing rerun.
                            tile_retries += chunk_fails;
                        } else {
                            tile_retries += chunk_fails.saturating_sub(1);
                            tile_uncorrected += chunk_fails;
                            tile_failed = true;
                            break;
                        }
                    }
                });
                detected.fetch_add(tile_detected, Ordering::Relaxed);
                retries.fetch_add(tile_retries, Ordering::Relaxed);
                if tile_failed {
                    epoch_uncorrected.fetch_add(tile_uncorrected, Ordering::Relaxed);
                    failed_tiles.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.store(&t, acc);
                }
            };
            // An injected task panic (or a worker killed mid-epoch)
            // surfaces as a panic out of `run` once the epoch has
            // drained; catch it and re-submit rather than unwinding
            // through the caller.
            match catch_unwind(AssertUnwindSafe(|| self.epoch(pool, task))) {
                Ok(()) => {
                    epoch_ok = true;
                    break;
                }
                Err(_) => {
                    detected.fetch_add(1, Ordering::Relaxed);
                    if epoch_attempt + 1 < MAX_EPOCH_ATTEMPTS {
                        retries.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        let detected = detected.load(Ordering::Relaxed);
        let (failed, uncorrected) = if epoch_ok {
            (
                failed_tiles.load(Ordering::Relaxed),
                epoch_uncorrected.load(Ordering::Relaxed),
            )
        } else {
            // Epochs exhausted: the whole grid is suspect, and the final
            // lost epoch is the one detection nothing repaired.
            (self.grid.len as u64, 1)
        };
        let summary = FaultSummary {
            detected,
            corrected: detected - uncorrected,
            retries: retries.load(Ordering::Relaxed),
        };
        (summary, failed)
    }
}

/// The packed driver: run `call` on `pool`, checked under `plan` when one
/// is given. With a context attached, the packed operands borrow its
/// scratch arena and the call's accounting (fragment grid, operand
/// traffic, per-phase wall time, fault telemetry) lands in its counters.
pub(crate) fn run<E, SA, SB>(
    pool: &WorkerPool,
    ctx: Option<&M3xuContext>,
    plan: Option<&FaultPlan>,
    call: PackedCall<'_, E, SA, SB>,
) -> Result<(GemmResult<E>, FaultSummary), M3xuError>
where
    E: PackedElem,
    SA: MatSource<E>,
    SB: MatSource<E>,
{
    let PackedCall {
        op,
        mode,
        a,
        b,
        alpha,
        beta,
        c,
        region,
        real_diag,
    } = call;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    validate_gemm_shapes(a, b, c)?;
    let frag = MmaShape::BASELINE_FP16.for_mode(mode);
    if frag.m * frag.n > ACC_SCRATCH {
        // The per-tile accumulator is a fixed stack array; a fragment
        // shape that outgrows it must be rejected up front, not trusted
        // to a slice-bounds panic inside a pooled task.
        return Err(M3xuError::FragmentOverflow {
            needed: frag.m * frag.n,
            capacity: ACC_SCRATCH,
        });
    }
    let k_chunks = k.div_ceil(frag.k);
    let base = seed_base(c, beta, region, real_diag);
    let mut d = base.clone().into_owned();
    if k_chunks == 0 || m == 0 || n == 0 {
        // A degenerate call still counts as a call; it moves no operand
        // bytes and issues no fragments. `D` is the beta-folded `C`.
        if let Some(cx) = ctx {
            cx.counters().record(&GemmSample {
                mode,
                stats: MmaStats::default(),
                tiles: 0,
                fragments: 0,
                operand_bytes: 0,
                pack_ns: 0,
                exec_ns: 0,
            });
        }
        return Ok((
            GemmResult {
                d,
                stats: MmaStats::default(),
            },
            FaultSummary::default(),
        ));
    }

    // Decode each operand exactly once for the whole call — entry planes
    // *and* the value mirrors the SIMD row kernels read — reusing the
    // context's packed-operand arena when one is attached.
    let (sa, sb) = ctx.map_or_else(Default::default, M3xuContext::take_scratch);
    let t_pack = Instant::now();
    let pa = E::pack_rows(a, alpha, mode, sa)?;
    let pb = E::pack_cols(b, mode, sb)?;
    let pack_ns = t_pack.elapsed().as_nanos() as u64;

    let pass = Pass {
        grid: TileGrid::new(frag, m, n, region),
        pa: &pa,
        pb: &pb,
        k,
        base: &base,
        d: SendPtr(d.as_mut_slice().as_mut_ptr()),
        real_diag,
    };
    let t_exec = Instant::now();
    let (summary, failed) = match plan {
        None => {
            pass.unchecked(pool);
            (FaultSummary::default(), 0)
        }
        Some(plan) => pass.checked(pool, plan),
    };
    let exec_ns = t_exec.elapsed().as_nanos() as u64;

    // Statistics are a pure function of the fragment grid — identical to
    // what per-fragment counters would sum to, and not inflated by
    // checked re-executions.
    let tiles = pass.grid.len;
    let frags = (tiles * k_chunks) as u64;
    let stats = fragment_stats(mode, frag).scaled(frags);
    if let Some(cx) = ctx {
        if plan.is_some() {
            cx.counters().record_faults(&summary);
        }
        if failed == 0 {
            cx.counters().record(&GemmSample {
                mode,
                stats,
                tiles: tiles as u64,
                fragments: frags,
                // Rule (c) operand traffic at logical dimensions and the
                // mode's storage width (2 bytes FP16/BF16, 4 bytes
                // TF32/FP32, 8 bytes FP32C), not at `size_of::<E>()`: a
                // rank-k update reads op(A) twice, a SYMM reads the
                // expanded square operand.
                operand_bytes: ((m * k + k * n) * mode.element_bytes()) as u64,
                pack_ns,
                exec_ns,
            });
        }
        cx.put_scratch(pa.into_storage(), pb.into_storage());
    }
    if failed > 0 {
        return Err(M3xuError::FaultDetected {
            op,
            mode,
            tiles: failed as usize,
            detected: summary.detected,
            corrected: summary.corrected,
            retries: summary.retries,
        });
    }
    Ok((GemmResult { d, stats }, summary))
}

/// Run `call` on `ctx`, checked under `plan` when one is given and
/// otherwise under the context's own armed plan, if any — the one place
/// a GEMM-family call picks its fault plan.
pub(crate) fn run_on<E, SA, SB>(
    ctx: &M3xuContext,
    plan: Option<&FaultPlan>,
    call: PackedCall<'_, E, SA, SB>,
) -> Result<(GemmResult<E>, FaultSummary), M3xuError>
where
    E: PackedElem,
    SA: MatSource<E>,
    SB: MatSource<E>,
{
    let plan = plan.or(ctx.fault_plan().map(|p| &**p));
    run(ctx.pool(), Some(ctx), plan, call)
}

/// The transpose of `op(A)` for a real rank-k update's second operand
/// (`H` collapses to `T` on real elements).
fn syrk_b_op(op: MatOp) -> MatOp {
    match op {
        MatOp::N => MatOp::T,
        MatOp::T | MatOp::H => MatOp::N,
    }
}

// ---------------------------------------------------------------------------
// Context-attached bodies (the `M3xuContext` methods delegate here), each
// returning the invocation's `FaultSummary`.
// ---------------------------------------------------------------------------

/// Context-attached op-GEMM `D = alpha·op(A)·op(B) + beta·C` on an f32
/// engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_gemm_op_f32_faulted_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    op_a: MatOp,
    a: &Matrix<f32>,
    op_b: MatOp,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<(GemmResult<f32>, FaultSummary), M3xuError> {
    check_precision(precision, true, "gemm_op_f32")?;
    let (a, b) = (&OpView::new(a, op_a), &OpView::new(b, op_b));
    let call = PackedCall::full("gemm_op", precision.mode(), a, b, alpha, beta, c);
    run_on(ctx, None, call)
}

/// Context-attached complex op-GEMM on the FP32C engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_cgemm_op_c32_faulted_ctx(
    ctx: &M3xuContext,
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    op_b: MatOp,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> Result<(GemmResult<Complex<f32>>, FaultSummary), M3xuError> {
    let (a, b) = (&OpView::new(a, op_a), &OpView::new(b, op_b));
    let call = PackedCall::full("cgemm_op", MxuMode::M3xuFp32c, a, b, alpha, beta, c);
    run_on(ctx, None, call)
}

/// Context-attached emulated-FP64 op-GEMM.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_gemm_op_f64_faulted_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    op_a: MatOp,
    a: &Matrix<f64>,
    op_b: MatOp,
    b: &Matrix<f64>,
    alpha: f64,
    beta: f64,
    c: &Matrix<f64>,
) -> Result<(GemmResult<f64>, FaultSummary), M3xuError> {
    check_precision(precision, false, "gemm_op_f64")?;
    let (a, b) = (&OpView::new(a, op_a), &OpView::new(b, op_b));
    let call = PackedCall::full("gemm_op_f64", precision.mode(), a, b, alpha, beta, c);
    run_on(ctx, None, call)
}

/// Context-attached SYRK `C := alpha·op(A)·op(A)^T + beta·C`, writing
/// only the `tri` triangle of `C`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_syrk_f32_faulted_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<(GemmResult<f32>, FaultSummary), M3xuError> {
    check_precision(precision, true, "syrk_f32")?;
    let (a, b) = (&OpView::new(a, op_a), &OpView::new(a, syrk_b_op(op_a)));
    let call = PackedCall {
        region: OutRegion::Tri(tri),
        ..PackedCall::full("syrk", precision.mode(), a, b, alpha, beta, c)
    };
    run_on(ctx, None, call)
}

/// Context-attached HERK `C := alpha·op(A)·op(A)^H + beta·C` with real
/// `alpha`/`beta`, writing only the `tri` triangle; diagonal entries are
/// exactly real on output (BLAS convention). `op_a` must be `N` or `H` —
/// `T` has no Hermitian-rank-k meaning and is rejected.
pub(crate) fn try_herk_c32_faulted_ctx(
    ctx: &M3xuContext,
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    alpha: f32,
    beta: f32,
    c: &Matrix<Complex<f32>>,
) -> Result<(GemmResult<Complex<f32>>, FaultSummary), M3xuError> {
    let b_op = match op_a {
        MatOp::N => MatOp::H,
        MatOp::H => MatOp::N,
        MatOp::T => {
            return Err(M3xuError::ModeMismatch {
                context: "herk(op): op(A) must be N or H",
                got: MxuMode::M3xuFp32c,
            })
        }
    };
    let (a, b) = (&OpView::new(a, op_a), &OpView::new(a, b_op));
    let (alpha, beta) = (Complex::new(alpha, 0.0), Complex::new(beta, 0.0));
    let call = PackedCall {
        region: OutRegion::Tri(tri),
        real_diag: true,
        ..PackedCall::full("herk", MxuMode::M3xuFp32c, a, b, alpha, beta, c)
    };
    run_on(ctx, None, call)
}

/// Context-attached SYMM: `C := alpha·sym(A)·B + beta·C` (Left) or
/// `C := alpha·B·sym(A) + beta·C` (Right), where `sym(A)` expands the
/// `tri`-stored triangle of the square matrix `A` on the fly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_symm_f32_faulted_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    side: Side,
    tri: Triangle,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<(GemmResult<f32>, FaultSummary), M3xuError> {
    check_precision(precision, true, "symm_f32")?;
    if a.rows() != a.cols() {
        return Err(M3xuError::ShapeMismatch {
            context: "symm(A): A must be square",
            expected: (a.rows(), a.rows()),
            got: (a.rows(), a.cols()),
        });
    }
    let sym = &MirrorView::new(a, tri, false);
    let mode = precision.mode();
    match side {
        Side::Left => run_on(
            ctx,
            None,
            PackedCall::full("symm", mode, sym, b, alpha, beta, c),
        ),
        Side::Right => run_on(
            ctx,
            None,
            PackedCall::full("symm", mode, b, sym, alpha, beta, c),
        ),
    }
}

/// Context-attached HEMM: the Hermitian counterpart of
/// [`try_symm_f32_faulted_ctx`] on the FP32C engine. The mirror
/// conjugates across the diagonal and reads diagonal entries as real
/// (BLAS convention).
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_hemm_c32_faulted_ctx(
    ctx: &M3xuContext,
    side: Side,
    tri: Triangle,
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> Result<(GemmResult<Complex<f32>>, FaultSummary), M3xuError> {
    if a.rows() != a.cols() {
        return Err(M3xuError::ShapeMismatch {
            context: "hemm(A): A must be square",
            expected: (a.rows(), a.rows()),
            got: (a.rows(), a.cols()),
        });
    }
    let herm = &MirrorView::new(a, tri, true);
    let mode = MxuMode::M3xuFp32c;
    match side {
        Side::Left => run_on(
            ctx,
            None,
            PackedCall::full("hemm", mode, herm, b, alpha, beta, c),
        ),
        Side::Right => run_on(
            ctx,
            None,
            PackedCall::full("hemm", mode, b, herm, alpha, beta, c),
        ),
    }
}

// ---------------------------------------------------------------------------
// Free functions on the process-wide default context.
// ---------------------------------------------------------------------------

/// Fallible op-GEMM `D = alpha·op(A)·op(B) + beta·C` on the default
/// context. `op = N`, `alpha = 1`, `beta = 1` is bit-identical to
/// [`crate::gemm::try_gemm_f32`].
#[allow(clippy::too_many_arguments)]
pub fn try_gemm_op_f32(
    precision: GemmPrecision,
    op_a: MatOp,
    a: &Matrix<f32>,
    op_b: MatOp,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    context::default_context().try_gemm_op_f32(precision, op_a, a, op_b, b, alpha, beta, c)
}

/// Op-GEMM `D = alpha·op(A)·op(B) + beta·C`. Panics on shape/precision
/// mismatch; see [`try_gemm_op_f32`] for the fallible form.
#[allow(clippy::too_many_arguments)]
pub fn gemm_op_f32(
    precision: GemmPrecision,
    op_a: MatOp,
    a: &Matrix<f32>,
    op_b: MatOp,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> GemmResult<f32> {
    try_gemm_op_f32(precision, op_a, a, op_b, b, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible complex op-GEMM on the default context.
#[allow(clippy::too_many_arguments)]
pub fn try_cgemm_op_c32(
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    op_b: MatOp,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    context::default_context().try_cgemm_op_c32(op_a, a, op_b, b, alpha, beta, c)
}

/// Complex op-GEMM. Panics on shape mismatch; see [`try_cgemm_op_c32`].
#[allow(clippy::too_many_arguments)]
pub fn cgemm_op_c32(
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    op_b: MatOp,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> GemmResult<Complex<f32>> {
    try_cgemm_op_c32(op_a, a, op_b, b, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible emulated-FP64 op-GEMM on the default context.
#[allow(clippy::too_many_arguments)]
pub fn try_gemm_op_f64(
    op_a: MatOp,
    a: &Matrix<f64>,
    op_b: MatOp,
    b: &Matrix<f64>,
    alpha: f64,
    beta: f64,
    c: &Matrix<f64>,
) -> Result<GemmResult<f64>, M3xuError> {
    context::default_context().try_gemm_op_f64(
        GemmPrecision::Fp64Emulated,
        op_a,
        a,
        op_b,
        b,
        alpha,
        beta,
        c,
    )
}

/// Emulated-FP64 op-GEMM. Panics on shape mismatch; see
/// [`try_gemm_op_f64`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_op_f64(
    op_a: MatOp,
    a: &Matrix<f64>,
    op_b: MatOp,
    b: &Matrix<f64>,
    alpha: f64,
    beta: f64,
    c: &Matrix<f64>,
) -> GemmResult<f64> {
    try_gemm_op_f64(op_a, a, op_b, b, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible SYRK `C := alpha·op(A)·op(A)^T + beta·C` on the default
/// context, writing only the `tri` triangle.
pub fn try_syrk_f32(
    precision: GemmPrecision,
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    context::default_context().try_syrk_f32(precision, tri, op_a, a, alpha, beta, c)
}

/// SYRK. Panics on shape/precision mismatch; see [`try_syrk_f32`].
pub fn syrk_f32(
    precision: GemmPrecision,
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> GemmResult<f32> {
    try_syrk_f32(precision, tri, op_a, a, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible HERK `C := alpha·op(A)·op(A)^H + beta·C` (real alpha/beta) on
/// the default context, writing only the `tri` triangle.
pub fn try_herk_c32(
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    alpha: f32,
    beta: f32,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    context::default_context().try_herk_c32(tri, op_a, a, alpha, beta, c)
}

/// HERK. Panics on shape mismatch; see [`try_herk_c32`].
pub fn herk_c32(
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    alpha: f32,
    beta: f32,
    c: &Matrix<Complex<f32>>,
) -> GemmResult<Complex<f32>> {
    try_herk_c32(tri, op_a, a, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible SYMM on the default context.
#[allow(clippy::too_many_arguments)]
pub fn try_symm_f32(
    precision: GemmPrecision,
    side: Side,
    tri: Triangle,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    context::default_context().try_symm_f32(precision, side, tri, a, b, alpha, beta, c)
}

/// SYMM. Panics on shape/precision mismatch; see [`try_symm_f32`].
#[allow(clippy::too_many_arguments)]
pub fn symm_f32(
    precision: GemmPrecision,
    side: Side,
    tri: Triangle,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> GemmResult<f32> {
    try_symm_f32(precision, side, tri, a, b, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible HEMM on the default context.
#[allow(clippy::too_many_arguments)]
pub fn try_hemm_c32(
    side: Side,
    tri: Triangle,
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    context::default_context().try_hemm_c32(side, tri, a, b, alpha, beta, c)
}

/// HEMM. Panics on shape mismatch; see [`try_hemm_c32`].
#[allow(clippy::too_many_arguments)]
pub fn hemm_c32(
    side: Side,
    tri: Triangle,
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> GemmResult<Complex<f32>> {
    try_hemm_c32(side, tri, a, b, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{try_cgemm_c32, try_gemm_f32, try_gemm_f64 as plain_gemm_f64};

    type C32 = Complex<f32>;

    fn bits_f32(m: &Matrix<f32>) -> Vec<u32> {
        (0..m.rows())
            .flat_map(|i| (0..m.cols()).map(move |j| m.get(i, j).to_bits()))
            .collect()
    }

    fn bits_c32(m: &Matrix<C32>) -> Vec<(u32, u32)> {
        (0..m.rows())
            .flat_map(|i| {
                (0..m.cols()).map(move |j| {
                    let v = m.get(i, j);
                    (v.re.to_bits(), v.im.to_bits())
                })
            })
            .collect()
    }

    #[test]
    fn op_n_unit_scalars_bit_identical_to_plain_gemm() {
        let (m, k, n) = (23, 14, 17);
        let a = Matrix::<f32>::random(m, k, 1);
        let b = Matrix::<f32>::random(k, n, 2);
        let c = Matrix::<f32>::random(m, n, 3);
        for p in GemmPrecision::ALL {
            if !p.is_f32() {
                continue;
            }
            let plain = try_gemm_f32(p, &a, &b, &c).unwrap();
            let op = try_gemm_op_f32(p, MatOp::N, &a, MatOp::N, &b, 1.0, 1.0, &c).unwrap();
            assert_eq!(bits_f32(&plain.d), bits_f32(&op.d), "{p:?}");
            assert_eq!(plain.stats, op.stats, "{p:?}");
        }
        let ac = Matrix::random_c32(m, k, 4);
        let bc = Matrix::random_c32(k, n, 5);
        let cc = Matrix::random_c32(m, n, 6);
        let plain = try_cgemm_c32(&ac, &bc, &cc).unwrap();
        let op = try_cgemm_op_c32(MatOp::N, &ac, MatOp::N, &bc, C32::ONE, C32::ONE, &cc).unwrap();
        assert_eq!(bits_c32(&plain.d), bits_c32(&op.d));
        assert_eq!(plain.stats, op.stats);

        let ad = Matrix::random_f64(m, k, 7);
        let bd = Matrix::random_f64(k, n, 8);
        let cd = Matrix::random_f64(m, n, 9);
        let plain = plain_gemm_f64(GemmPrecision::Fp64Emulated, &ad, &bd, &cd).unwrap();
        let op = try_gemm_op_f64(MatOp::N, &ad, MatOp::N, &bd, 1.0, 1.0, &cd).unwrap();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(plain.d.get(i, j).to_bits(), op.d.get(i, j).to_bits());
            }
        }
        assert_eq!(plain.stats, op.stats);
    }

    #[test]
    fn op_views_match_materialized_operands() {
        let (m, k, n) = (13, 9, 21);
        // Stored transposed: op(X) = X^T recovers the logical operand.
        let at = Matrix::<f32>::random(k, m, 11);
        let bt = Matrix::<f32>::random(n, k, 12);
        let c = Matrix::<f32>::random(m, n, 13);
        let via_view = try_gemm_op_f32(
            GemmPrecision::M3xuFp32,
            MatOp::T,
            &at,
            MatOp::T,
            &bt,
            1.0,
            1.0,
            &c,
        )
        .unwrap();
        let am = OpView::new(&at, MatOp::T).materialize();
        let bm = OpView::new(&bt, MatOp::T).materialize();
        let via_copy = try_gemm_f32(GemmPrecision::M3xuFp32, &am, &bm, &c).unwrap();
        assert_eq!(bits_f32(&via_view.d), bits_f32(&via_copy.d));

        // Complex: conjugate-transpose against its materialization.
        let ah = Matrix::random_c32(k, m, 14);
        let bh = Matrix::random_c32(n, k, 15);
        let cc = Matrix::random_c32(m, n, 16);
        let via_view =
            try_cgemm_op_c32(MatOp::H, &ah, MatOp::H, &bh, C32::ONE, C32::ONE, &cc).unwrap();
        let am = OpView::new(&ah, MatOp::H).materialize();
        let bm = OpView::new(&bh, MatOp::H).materialize();
        let via_copy = try_cgemm_c32(&am, &bm, &cc).unwrap();
        assert_eq!(bits_c32(&via_view.d), bits_c32(&via_copy.d));
    }

    #[test]
    fn alpha_beta_fold_matches_elementwise_prefold() {
        let (m, k, n) = (11, 6, 10);
        let a = Matrix::<f32>::random(m, k, 21);
        let b = Matrix::<f32>::random(k, n, 22);
        let c = Matrix::<f32>::random(m, n, 23);
        for (alpha, beta) in [(0.5f32, -1.0f32), (-1.0, 0.5), (0.0, 2.0), (2.0, 0.0)] {
            let folded = try_gemm_op_f32(
                GemmPrecision::M3xuFp32,
                MatOp::N,
                &a,
                MatOp::N,
                &b,
                alpha,
                beta,
                &c,
            )
            .unwrap();
            let am = Matrix::from_fn(m, k, |i, j| alpha * a.get(i, j));
            let cm = Matrix::from_fn(m, n, |i, j| beta * c.get(i, j));
            let pre = try_gemm_f32(GemmPrecision::M3xuFp32, &am, &b, &cm).unwrap();
            assert_eq!(
                bits_f32(&folded.d),
                bits_f32(&pre.d),
                "alpha={alpha} beta={beta}"
            );
        }
    }

    #[test]
    fn beta_zero_never_reads_c() {
        let (m, k, n) = (9, 5, 9);
        let a = Matrix::<f32>::random(m, k, 31);
        let b = Matrix::<f32>::random(k, n, 32);
        let poison = Matrix::from_fn(m, n, |_, _| f32::NAN);
        let r = try_gemm_op_f32(
            GemmPrecision::M3xuFp32,
            MatOp::N,
            &a,
            MatOp::N,
            &b,
            1.0,
            0.0,
            &poison,
        )
        .unwrap();
        let zero = Matrix::zeros(m, n);
        let want = try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &zero).unwrap();
        assert_eq!(bits_f32(&r.d), bits_f32(&want.d));
    }

    #[test]
    fn syrk_writes_one_triangle_and_halves_the_tile_grid() {
        let (n, k) = (33, 12);
        let a = Matrix::<f32>::random(n, k, 41);
        let canary = Matrix::from_fn(n, n, |i, j| (i * 131 + j) as f32 * 0.5 - 3.0);
        let ctx = M3xuContext::with_threads(2);
        let r = ctx
            .try_syrk_f32(
                GemmPrecision::M3xuFp32,
                Triangle::Lower,
                MatOp::N,
                &a,
                1.0,
                1.0,
                &canary,
            )
            .unwrap();
        // The full-output reference: op-GEMM with B = A^T.
        let full = ctx
            .try_gemm_op_f32(
                GemmPrecision::M3xuFp32,
                MatOp::N,
                &a,
                MatOp::T,
                &a,
                1.0,
                1.0,
                &canary,
            )
            .unwrap();
        for i in 0..n {
            for j in 0..n {
                if Triangle::Lower.contains(i, j) {
                    assert_eq!(r.d.get(i, j).to_bits(), full.d.get(i, j).to_bits());
                } else {
                    assert_eq!(r.d.get(i, j).to_bits(), canary.get(i, j).to_bits());
                }
            }
        }
        // 5 tiles per side: 15 of 25 scheduled, 6 k-chunks each.
        let t = n.div_ceil(8) as u64;
        let tri_tiles = t * (t + 1) / 2;
        assert_eq!(r.stats.instructions, tri_tiles * (k as u64).div_ceil(2));
        assert_eq!(full.stats.instructions, t * t * (k as u64).div_ceil(2));
    }

    #[test]
    fn herk_diagonal_is_exactly_real_and_upper_triangle_untouched() {
        let (n, k) = (19, 7);
        let a = Matrix::random_c32(n, k, 51);
        let canary = Matrix::from_fn(n, n, |i, j| C32::new(i as f32, j as f32 + 0.25));
        let r = try_herk_c32(Triangle::Upper, MatOp::N, &a, 0.75, -0.5, &canary).unwrap();
        for i in 0..n {
            assert_eq!(r.d.get(i, i).im.to_bits(), 0.0f32.to_bits(), "diag {i}");
            for j in 0..n {
                if !Triangle::Upper.contains(i, j) {
                    let (got, want) = (r.d.get(i, j), canary.get(i, j));
                    assert_eq!(got.re.to_bits(), want.re.to_bits());
                    assert_eq!(got.im.to_bits(), want.im.to_bits());
                }
            }
        }
        // op = T is meaningless for a Hermitian update.
        assert!(matches!(
            try_herk_c32(Triangle::Upper, MatOp::T, &a, 1.0, 1.0, &canary),
            Err(M3xuError::ModeMismatch { .. })
        ));
    }

    #[test]
    fn symm_and_hemm_match_mirror_materialization() {
        let (n, m) = (12, 15);
        let a = Matrix::<f32>::random(n, n, 61);
        let b = Matrix::<f32>::random(n, m, 62);
        let c = Matrix::<f32>::random(n, m, 63);
        let via_mirror = try_symm_f32(
            GemmPrecision::M3xuFp32,
            Side::Left,
            Triangle::Lower,
            &a,
            &b,
            0.5,
            2.0,
            &c,
        )
        .unwrap();
        let sym = MirrorView::new(&a, Triangle::Lower, false).materialize();
        let want = try_gemm_op_f32(
            GemmPrecision::M3xuFp32,
            MatOp::N,
            &sym,
            MatOp::N,
            &b,
            0.5,
            2.0,
            &c,
        )
        .unwrap();
        assert_eq!(bits_f32(&via_mirror.d), bits_f32(&want.d));

        // Right side: C = alpha·B'·herm(A) + beta·C on the complex engine.
        let ah = Matrix::random_c32(n, n, 64);
        let bh = Matrix::random_c32(m, n, 65);
        let ch = Matrix::random_c32(m, n, 66);
        let alpha = C32::new(0.5, -0.25);
        let beta = C32::new(-1.0, 0.0);
        let via_mirror =
            try_hemm_c32(Side::Right, Triangle::Upper, &ah, &bh, alpha, beta, &ch).unwrap();
        let herm = MirrorView::new(&ah, Triangle::Upper, true).materialize();
        let want = try_cgemm_op_c32(MatOp::N, &bh, MatOp::N, &herm, alpha, beta, &ch).unwrap();
        assert_eq!(bits_c32(&via_mirror.d), bits_c32(&want.d));
    }

    #[test]
    fn shape_and_precision_errors_are_typed() {
        let a = Matrix::<f32>::random(4, 6, 71);
        let b = Matrix::<f32>::random(5, 3, 72);
        let c = Matrix::<f32>::random(4, 3, 73);
        assert!(matches!(
            try_gemm_op_f32(
                GemmPrecision::M3xuFp32,
                MatOp::N,
                &a,
                MatOp::N,
                &b,
                1.0,
                1.0,
                &c
            ),
            Err(M3xuError::ShapeMismatch { .. })
        ));
        // Transposing B fixes the inner dimension but breaks C's width.
        assert!(matches!(
            try_gemm_op_f32(
                GemmPrecision::M3xuFp32,
                MatOp::N,
                &a,
                MatOp::T,
                &b,
                1.0,
                1.0,
                &c
            ),
            Err(M3xuError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            try_syrk_f32(
                GemmPrecision::Fp64Emulated,
                Triangle::Lower,
                MatOp::N,
                &a,
                1.0,
                1.0,
                &c
            ),
            Err(M3xuError::ModeMismatch { .. })
        ));
        let nsq = Matrix::<f32>::random(4, 5, 74);
        let b2 = Matrix::<f32>::random(5, 3, 75);
        let c2 = Matrix::<f32>::random(4, 3, 76);
        assert!(matches!(
            try_symm_f32(
                GemmPrecision::M3xuFp32,
                Side::Left,
                Triangle::Lower,
                &nsq,
                &b2,
                1.0,
                1.0,
                &c2
            ),
            Err(M3xuError::ShapeMismatch { .. })
        ));
    }
}
