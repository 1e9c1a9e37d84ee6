//! The one place the benchmark calls into the workspace.
//!
//! Every call into `m3xu-kernels`, `m3xu-mxu`, `m3xu-serve` and
//! `m3xu-gpu` goes through this file, so an API migration edits this file
//! and nothing else. Nothing here calls an entry point the roadmap
//! schedules for deletion (`mma_*_checked_into`, `try_fast_*_checked`,
//! `gemm::try_gemm_packed`, `try_gemm_abft`, `m3xu_serve::openloop`):
//! armed contexts reach the checked drivers through the ordinary `try_*`
//! context methods. `Matrix`, `C32` and `GemmPrecision` are used
//! directly as data types; the counters the program keeps are read here
//! into the benchmark's own `Counts` and `Totals`.

use std::sync::Arc;
use std::time::{Duration, Instant};

pub use m3xu_fp::C32;
pub use m3xu_kernels::gemm::GemmPrecision;
pub use m3xu_kernels::M3xuContext;
pub use m3xu_mxu::matrix::Matrix;
pub use m3xu_serve::M3xuServe;

use m3xu_gpu::kernel::{Engine, Problem};
use m3xu_gpu::validate::{exact_counts, exact_counts_rank_k, ExactCounts};
use m3xu_kernels::blas3::Side;
use m3xu_kernels::gemm::{baseline, GemmResult};
use m3xu_kernels::{fft, ExecStats, FaultPlan, WorkerPool};
use m3xu_mxu::dpu::DotProductUnit;
use m3xu_mxu::matrix::{MatOp, Triangle};
use m3xu_mxu::mma::{MmaShape, MmaStats};
use m3xu_mxu::modes::MxuMode;
use m3xu_mxu::packed::{simd, PackedOperand};
use m3xu_serve::{ServeConfig, ServeError, SubmitOpts, TenantStats, Ticket};

/// One operation with its operands: the unit both the kernel workloads
/// and the serve mix issue. Scalars and triangles are fixed per variant
/// so a direct call and a served call of the same descriptor compute the
/// same bits.
#[derive(Clone)]
pub enum Call {
    /// `D = A·B + C` on an `f32` entry point in `prec`.
    Gemm {
        prec: GemmPrecision,
        a: Matrix<f32>,
        b: Matrix<f32>,
        c: Matrix<f32>,
    },
    /// `D = A·B + C` in emulated FP64.
    GemmF64 {
        a: Matrix<f64>,
        b: Matrix<f64>,
        c: Matrix<f64>,
    },
    /// FP32C `D = A·B + C`.
    Cgemm {
        a: Matrix<C32>,
        b: Matrix<C32>,
        c: Matrix<C32>,
    },
    /// M3xuFp32 SYRK, lower triangle, `op(A) = A`, `alpha = 1`, `beta = 0`.
    Syrk { a: Matrix<f32>, c: Matrix<f32> },
    /// HERK, upper triangle, `op(A) = A`, `alpha = 0.75`, `beta = -0.5`.
    Herk { a: Matrix<C32>, c: Matrix<C32> },
    /// M3xuFp32 SYMM, left side, upper triangle stored, `alpha = -0.5`,
    /// `beta = 1.25`.
    Symm {
        a: Matrix<f32>,
        b: Matrix<f32>,
        c: Matrix<f32>,
    },
    /// HEMM, right side, lower triangle stored.
    Hemm {
        a: Matrix<C32>,
        b: Matrix<C32>,
        c: Matrix<C32>,
    },
    /// M3xuFp32 `D = 0.75·Aᵀ·B - 1.25·C`.
    GemmOp {
        a: Matrix<f32>,
        b: Matrix<f32>,
        c: Matrix<f32>,
    },
    /// GEMM-formulated forward FFT.
    Fft { x: Vec<C32> },
}

const SYMM_ALPHA: f32 = -0.5;
const SYMM_BETA: f32 = 1.25;
const HERK_ALPHA: f32 = 0.75;
const HERK_BETA: f32 = -0.5;
const GEMM_OP_ALPHA: f32 = 0.75;
const GEMM_OP_BETA: f32 = -1.25;

fn hemm_alpha() -> C32 {
    C32::new(0.5, -0.25)
}

fn hemm_beta() -> C32 {
    C32::new(1.0, 0.5)
}

/// The result of one call, reduced to what the oracles compare.
pub enum Output {
    F32(Matrix<f32>),
    F64(Matrix<f64>),
    C32(Matrix<C32>),
    Spectrum(Vec<C32>),
}

impl Output {
    /// The raw bits of every output element, in row-major order
    /// (complex values as re then im).
    pub fn bits(&self) -> Vec<u64> {
        match self {
            Output::F32(m) => m.as_slice().iter().map(|x| x.to_bits() as u64).collect(),
            Output::F64(m) => m.as_slice().iter().map(|x| x.to_bits()).collect(),
            Output::C32(m) => c32_bits(m.as_slice()),
            Output::Spectrum(v) => c32_bits(v),
        }
    }
}

fn c32_bits(xs: &[C32]) -> Vec<u64> {
    xs.iter()
        .flat_map(|x| [x.re.to_bits() as u64, x.im.to_bits() as u64])
        .collect()
}

// ---- host fingerprint ---------------------------------------------------

/// The SIMD level the packed row kernels dispatch to.
pub fn simd_level() -> String {
    format!("{:?}", simd::level())
}

// ---- contexts and direct calls -----------------------------------------

/// A context with its own `threads`-thread pool; `armed_seed` arms it
/// with a zero-rate fault plan, so every call takes the ABFT-checked
/// drivers and no fault ever fires.
pub fn context(threads: usize, armed_seed: Option<u64>) -> M3xuContext {
    let ctx = M3xuContext::with_threads(threads);
    match armed_seed {
        Some(seed) => ctx.with_fault_plan(Arc::new(FaultPlan::new(seed, 0.0))),
        None => ctx,
    }
}

/// Execute `call` on `ctx` (the direct, unserved path).
pub fn run_direct(ctx: &M3xuContext, call: &Call) -> Result<Output, String> {
    let e = |e: m3xu_kernels::M3xuError| e.to_string();
    Ok(match call {
        Call::Gemm { prec, a, b, c } => Output::F32(ctx.try_gemm_f32(*prec, a, b, c).map_err(e)?.d),
        Call::GemmF64 { a, b, c } => Output::F64(
            ctx.try_gemm_f64(GemmPrecision::Fp64Emulated, a, b, c)
                .map_err(e)?
                .d,
        ),
        Call::Cgemm { a, b, c } => Output::C32(ctx.try_cgemm_c32(a, b, c).map_err(e)?.d),
        Call::Syrk { a, c } => Output::F32(
            ctx.try_syrk_f32(
                GemmPrecision::M3xuFp32,
                Triangle::Lower,
                MatOp::N,
                a,
                1.0,
                0.0,
                c,
            )
            .map_err(e)?
            .d,
        ),
        Call::Herk { a, c } => Output::C32(
            ctx.try_herk_c32(Triangle::Upper, MatOp::N, a, HERK_ALPHA, HERK_BETA, c)
                .map_err(e)?
                .d,
        ),
        Call::Symm { a, b, c } => Output::F32(
            ctx.try_symm_f32(
                GemmPrecision::M3xuFp32,
                Side::Left,
                Triangle::Upper,
                a,
                b,
                SYMM_ALPHA,
                SYMM_BETA,
                c,
            )
            .map_err(e)?
            .d,
        ),
        Call::Hemm { a, b, c } => Output::C32(
            ctx.try_hemm_c32(
                Side::Right,
                Triangle::Lower,
                a,
                b,
                hemm_alpha(),
                hemm_beta(),
                c,
            )
            .map_err(e)?
            .d,
        ),
        Call::GemmOp { a, b, c } => Output::F32(
            ctx.try_gemm_op_f32(
                GemmPrecision::M3xuFp32,
                MatOp::T,
                a,
                MatOp::N,
                b,
                GEMM_OP_ALPHA,
                GEMM_OP_BETA,
                c,
            )
            .map_err(e)?
            .d,
        ),
        Call::Fft { x } => Output::Spectrum(ctx.try_gemm_fft(x).map_err(e)?.0),
    })
}

/// Worker threads `ctx` executes on.
pub fn threads(ctx: &M3xuContext) -> usize {
    ctx.threads()
}

/// One call's kernel accounting: the delta of the context's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub pack_ns: u64,
    pub exec_ns: u64,
    pub tiles: u64,
    pub fragments: u64,
    pub instructions: u64,
    pub steps: u64,
    pub lane_products: u64,
    pub operand_bytes: u64,
    pub faults_detected: u64,
    pub faults_corrected: u64,
    pub retries: u64,
}

impl Counts {
    fn between(after: &ExecStats, before: &ExecStats) -> Counts {
        let d = after.delta_since(before);
        let t: MmaStats = d.total();
        Counts {
            pack_ns: d.pack_ns,
            exec_ns: d.exec_ns,
            tiles: d.tiles,
            fragments: d.fragments,
            instructions: t.instructions,
            steps: t.steps,
            lane_products: t.lane_products,
            operand_bytes: d.operand_bytes,
            faults_detected: d.faults_detected,
            faults_corrected: d.faults_corrected,
            retries: d.fault_retries,
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.pack_ns += o.pack_ns;
        self.exec_ns += o.exec_ns;
        self.tiles += o.tiles;
        self.fragments += o.fragments;
        self.instructions += o.instructions;
        self.steps += o.steps;
        self.lane_products += o.lane_products;
        self.operand_bytes += o.operand_bytes;
        self.faults_detected += o.faults_detected;
        self.faults_corrected += o.faults_corrected;
        self.retries += o.retries;
    }
}

/// [`run_direct`] timed: the output, the counts the call recorded, and
/// the instants just before and just after the call.
pub fn run_timed(
    ctx: &M3xuContext,
    call: &Call,
) -> (Result<Output, String>, Counts, Instant, Instant) {
    let before = ctx.stats();
    let t0 = Instant::now();
    let res = run_direct(ctx, call);
    let t1 = Instant::now();
    (res, Counts::between(&ctx.stats(), &before), t0, t1)
}

// ---- oracles ------------------------------------------------------------

/// The seed per-fragment GEMM driver (`gemm::baseline::gemm_f32`).
pub fn baseline_gemm_f32(
    prec: GemmPrecision,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
) -> Matrix<f32> {
    baseline::gemm_f32(prec, a, b, c).d
}

/// The seed per-fragment FP32C driver (`gemm::baseline::cgemm_c32`).
pub fn baseline_cgemm_c32(a: &Matrix<C32>, b: &Matrix<C32>, c: &Matrix<C32>) -> Matrix<C32> {
    baseline::cgemm_c32(a, b, c).d
}

/// Sequential-FMA FP64 reference GEMM.
pub fn reference_gemm_f64(a: &Matrix<f64>, b: &Matrix<f64>, c: &Matrix<f64>) -> Matrix<f64> {
    Matrix::reference_gemm_f64_native(a, b, c)
}

/// The direct `O(n²)` DFT in `f64`, rounded to FP32C.
pub fn dft(x: &[C32]) -> Vec<C32> {
    fft::dft(x)
}

/// Relative L2 error between two spectra.
pub fn spectrum_rel_error(got: &[C32], reference: &[C32]) -> f64 {
    fft::spectrum_rel_error(got, reference)
}

// ---- the count model ----------------------------------------------------

/// The analytical `(instructions, steps, operand_bytes)` of
/// `m3xu_gpu::validate` for one call, or `None` for a call the model does
/// not price.
pub fn model_counts(call: &Call) -> Option<(u64, u64, u64)> {
    exact_model(call).map(|m| (m.instructions, m.steps, m.operand_bytes))
}

fn exact_model(call: &Call) -> Option<ExactCounts> {
    let real = |m: usize, n: usize, k: usize| Problem {
        m,
        n,
        k,
        complex: false,
    };
    match call {
        Call::Gemm { prec, a, b, .. } => {
            let engine = match prec {
                GemmPrecision::M3xuFp32 => Engine::M3xuFp32,
                GemmPrecision::Fp32Fast => Engine::M3xuFp32Fast,
                GemmPrecision::Fp16 => Engine::TensorFp16,
                GemmPrecision::Bf16 => Engine::TensorBf16,
                GemmPrecision::Tf32 => Engine::TensorTf32,
                GemmPrecision::Fp64Emulated => return None,
            };
            exact_counts(real(a.rows(), b.cols(), a.cols()), engine)
        }
        Call::GemmF64 { a, b, .. } => {
            exact_counts(real(a.rows(), b.cols(), a.cols()), Engine::M3xuFp64Emu)
        }
        Call::Cgemm { a, b, .. } => exact_counts(
            Problem {
                m: a.rows(),
                n: b.cols(),
                k: a.cols(),
                complex: true,
            },
            Engine::M3xuFp32c,
        ),
        Call::Syrk { a, .. } => {
            exact_counts_rank_k(real(a.rows(), a.rows(), a.cols()), Engine::M3xuFp32)
        }
        Call::Fft { x } => Some(fft_counts(x.len())),
        _ => None,
    }
}

/// The model's counts for one GEMM-formulated FFT of `n` points: the sum
/// over its Cooley–Tukey recursion of one `r x r` by `r x (n/r)` CGEMM per
/// level (radix `r = fft::GEMM_RADIX`) and `r` sub-transforms of `n/r`
/// points, down to one `n x n` by `n x 1` CGEMM at `n <= r`.
fn fft_counts(n: usize) -> ExactCounts {
    let radix = fft::GEMM_RADIX;
    let cgemm = |m: usize, cols: usize, k: usize| {
        exact_counts(
            Problem {
                m,
                n: cols,
                k,
                complex: true,
            },
            Engine::M3xuFp32c,
        )
        .expect("the model prices FP32C CGEMMs")
    };
    if n <= radix {
        return cgemm(n, 1, n);
    }
    let top = cgemm(radix, n / radix, radix);
    let sub = fft_counts(n / radix);
    let r = radix as u64;
    ExactCounts {
        instructions: top.instructions + r * sub.instructions,
        steps: top.steps + r * sub.steps,
        operand_bytes: top.operand_bytes + r * sub.operand_bytes,
    }
}

// ---- packed layer -------------------------------------------------------

/// Operands packed once for the panel probe, with the mode's fragment
/// depth.
pub struct Packed {
    a: PackedOperand,
    b: PackedOperand,
    frag_k: usize,
    m: usize,
    n: usize,
    k: usize,
}

impl Packed {
    /// Fragments per full-depth tile panel.
    pub fn frags_per_tile(&self) -> usize {
        self.k.div_ceil(self.frag_k)
    }

    /// Output tiles of the fragment grid.
    pub fn tiles(&self) -> usize {
        self.m.div_ceil(TILE) * self.n.div_ceil(TILE)
    }

    /// `(r0, rows, c0, cols)` of output tile `tile`, in row-major tile
    /// order.
    fn tile_rect(&self, tile: usize) -> (usize, usize, usize, usize) {
        let tiles_n = self.n.div_ceil(TILE);
        let (r0, c0) = ((tile / tiles_n) * TILE, (tile % tiles_n) * TILE);
        (r0, TILE.min(self.m - r0), c0, TILE.min(self.n - c0))
    }
}

/// The fragment edge (`MmaShape::BASELINE_FP16` is `8 x 8`) shared by
/// every mode.
const TILE: usize = 8;

/// Pack `call`'s `A` as rows and `B` as columns, the layout the packed
/// drivers use. `None` for calls without a plain `A·B` operand pair.
pub fn pack(call: &Call) -> Option<Result<Packed, String>> {
    let e = |e: m3xu_kernels::M3xuError| e.to_string();
    let (a, b, mode, m, n, k) = match call {
        Call::Gemm { prec, a, b, .. } => {
            let mode = prec.mode();
            let pa = PackedOperand::try_pack_rows_f32(a, mode).map_err(e);
            let pb = PackedOperand::try_pack_cols_f32(b, mode).map_err(e);
            (pa, pb, mode, a.rows(), b.cols(), a.cols())
        }
        Call::GemmF64 { a, b, .. } => {
            let mode = MxuMode::M3xuFp64Emu;
            let pa = PackedOperand::try_pack_rows_f64(a, mode).map_err(e);
            let pb = PackedOperand::try_pack_cols_f64(b, mode).map_err(e);
            (pa, pb, mode, a.rows(), b.cols(), a.cols())
        }
        Call::Cgemm { a, b, .. } => (
            Ok(PackedOperand::pack_rows_c32(a)),
            Ok(PackedOperand::pack_cols_c32(b)),
            MxuMode::M3xuFp32c,
            a.rows(),
            b.cols(),
            a.cols(),
        ),
        _ => return None,
    };
    let frag_k = MmaShape::BASELINE_FP16.for_mode(mode).k;
    Some(a.and_then(|a| {
        b.map(|b| Packed {
            a,
            b,
            frag_k,
            m,
            n,
            k,
        })
    }))
}

/// Run the full-depth panel kernel of output tile `tile` (row-major tile
/// order) on `dpu`, seeded from `call`'s `C`, and return the tile's
/// output bits (row-major within the tile).
pub fn panel_tile(dpu: &mut DotProductUnit, call: &Call, p: &Packed, tile: usize) -> Vec<u64> {
    let (r0, rows, c0, cols) = p.tile_rect(tile);
    match call {
        Call::Gemm { c, .. } => {
            let mut acc = vec![0f32; rows * cols];
            c.view(r0, c0, rows, cols).copy_into(&mut acc);
            dpu.mma_f32_panel_into(&p.a, &p.b, r0, rows, c0, cols, 0, p.k, p.frag_k, &mut acc);
            acc.iter().map(|x| x.to_bits() as u64).collect()
        }
        Call::GemmF64 { c, .. } => {
            let mut acc = vec![0f64; rows * cols];
            c.view(r0, c0, rows, cols).copy_into(&mut acc);
            dpu.mma_f64_panel_into(&p.a, &p.b, r0, rows, c0, cols, 0, p.k, p.frag_k, &mut acc);
            acc.iter().map(|x| x.to_bits()).collect()
        }
        Call::Cgemm { c, .. } => {
            let mut acc = vec![C32::ZERO; rows * cols];
            c.view(r0, c0, rows, cols).copy_into(&mut acc);
            dpu.mma_c32_panel_into(&p.a, &p.b, r0, rows, c0, cols, 0, p.k, p.frag_k, &mut acc);
            c32_bits(&acc)
        }
        _ => unreachable!("pack() only packs GEMM-shaped calls"),
    }
}

/// The same tile's bits cut out of a full output's bits (`complex`
/// outputs carry two words per element).
pub fn tile_bits(all: &[u64], complex: bool, p: &Packed, tile: usize) -> Vec<u64> {
    let (r0, rows, c0, cols) = p.tile_rect(tile);
    let per = if complex { 2 } else { 1 };
    (r0..r0 + rows)
        .flat_map(|i| {
            let start = (i * p.n + c0) * per;
            all[start..start + cols * per].iter().copied()
        })
        .collect()
}

/// A fresh dot-product unit for the single-threaded panel probe.
pub fn dot_product_unit() -> DotProductUnit {
    DotProductUnit::new()
}

// ---- worker pool --------------------------------------------------------

/// A standalone worker pool of `threads` threads.
pub fn worker_pool(threads: usize) -> WorkerPool {
    WorkerPool::new(threads)
}

/// One pool epoch of `tasks` no-op tasks.
pub fn pool_noop_epoch(pool: &WorkerPool, tasks: usize) {
    pool.run(tasks, |i| {
        std::hint::black_box(i);
    });
}

// ---- serve --------------------------------------------------------------

/// A service of `shards` shards on the process-wide shared pool.
pub fn service(shards: usize, queue_capacity: usize, max_batch: usize) -> M3xuServe {
    M3xuServe::new(ServeConfig {
        shards,
        workers: 0,
        queue_capacity,
        max_batch,
        ..ServeConfig::default()
    })
}

/// An in-flight served request.
pub enum Pending {
    F32(Ticket<GemmResult<f32>>),
    F64(Ticket<GemmResult<f64>>),
    C32(Ticket<GemmResult<C32>>),
    Spectrum(Ticket<(Vec<C32>, MmaStats)>),
}

impl Pending {
    /// `None` while in flight; the output or the typed rejection once
    /// resolved.
    pub fn poll(&self) -> Option<Result<Output, ServeError>> {
        match self {
            Pending::F32(t) => t.try_wait().map(|r| r.map(|g| Output::F32(g.d))),
            Pending::F64(t) => t.try_wait().map(|r| r.map(|g| Output::F64(g.d))),
            Pending::C32(t) => t.try_wait().map(|r| r.map(|g| Output::C32(g.d))),
            Pending::Spectrum(t) => t.try_wait().map(|r| r.map(|(y, _)| Output::Spectrum(y))),
        }
    }
}

/// Non-blocking submission of `call` for `tenant` with `deadline`. The
/// Fp16 / Fp32Fast / Fp64Emulated GEMMs go through the precision dial
/// (`SubmitOpts::precision`), not the positional precision argument.
pub fn try_submit(
    serve: &M3xuServe,
    tenant: &str,
    call: Call,
    deadline: Duration,
) -> Result<Pending, ServeError> {
    let mut opts = SubmitOpts {
        deadline: Some(deadline),
        ..SubmitOpts::default()
    };
    let fp32 = GemmPrecision::M3xuFp32;
    Ok(match call {
        Call::Gemm { prec, a, b, c } => {
            if prec != fp32 {
                opts.precision = Some(prec);
            }
            Pending::F32(serve.try_submit_gemm_f32(tenant, fp32, a, b, c, opts)?)
        }
        Call::GemmF64 { a, b, c } => {
            opts.precision = Some(GemmPrecision::Fp64Emulated);
            Pending::F64(serve.try_submit_gemm_f64(tenant, a, b, c, opts)?)
        }
        Call::Cgemm { a, b, c } => Pending::C32(serve.try_submit_cgemm_c32(tenant, a, b, c, opts)?),
        Call::Syrk { a, c } => Pending::F32(serve.try_submit_syrk_f32(
            tenant,
            fp32,
            Triangle::Lower,
            MatOp::N,
            a,
            1.0,
            0.0,
            c,
            opts,
        )?),
        Call::Herk { a, c } => Pending::C32(serve.try_submit_herk_c32(
            tenant,
            Triangle::Upper,
            MatOp::N,
            a,
            HERK_ALPHA,
            HERK_BETA,
            c,
            opts,
        )?),
        Call::Symm { a, b, c } => Pending::F32(serve.try_submit_symm_f32(
            tenant,
            fp32,
            Side::Left,
            Triangle::Upper,
            a,
            b,
            SYMM_ALPHA,
            SYMM_BETA,
            c,
            opts,
        )?),
        Call::Hemm { a, b, c } => Pending::C32(serve.try_submit_hemm_c32(
            tenant,
            Side::Right,
            Triangle::Lower,
            a,
            b,
            hemm_alpha(),
            hemm_beta(),
            c,
            opts,
        )?),
        Call::GemmOp { a, b, c } => Pending::F32(serve.try_submit_gemm_op_f32(
            tenant,
            fp32,
            MatOp::T,
            a,
            MatOp::N,
            b,
            GEMM_OP_ALPHA,
            GEMM_OP_BETA,
            c,
            opts,
        )?),
        Call::Fft { x } => Pending::Spectrum(serve.try_submit_fft(tenant, x, opts)?),
    })
}

/// The service's request ledger, summed over tenants.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub deadline_missed: u64,
    pub exec_errors: u64,
    pub queue_wait_ns: u64,
    pub exec_ns: u64,
    /// Requests executed: completions plus executed-but-late misses.
    pub executed: u64,
}

impl Totals {
    /// The ledger of what happened between `before` and this snapshot.
    pub fn since(&self, before: &Totals) -> Totals {
        Totals {
            submitted: self.submitted - before.submitted,
            completed: self.completed - before.completed,
            rejected: self.rejected - before.rejected,
            deadline_missed: self.deadline_missed - before.deadline_missed,
            exec_errors: self.exec_errors - before.exec_errors,
            queue_wait_ns: self.queue_wait_ns - before.queue_wait_ns,
            exec_ns: self.exec_ns - before.exec_ns,
            executed: self.executed - before.executed,
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Totals) {
        self.submitted += o.submitted;
        self.completed += o.completed;
        self.rejected += o.rejected;
        self.deadline_missed += o.deadline_missed;
        self.exec_errors += o.exec_errors;
        self.queue_wait_ns += o.queue_wait_ns;
        self.exec_ns += o.exec_ns;
        self.executed += o.executed;
    }
}

/// A snapshot of `serve`'s [`Totals`].
pub fn totals(serve: &M3xuServe) -> Totals {
    let t = serve.total_stats();
    Totals {
        submitted: t.submitted,
        completed: t.completed,
        rejected: t.rejected,
        deadline_missed: t.deadline_missed,
        exec_errors: t.exec_errors,
        queue_wait_ns: t.queue_wait_ns,
        exec_ns: t.exec_ns,
        executed: MxuMode::ALL.iter().map(|m| t.mode(*m).requests).sum(),
    }
}

/// Requests queued across the service's shards.
pub fn queue_len(serve: &M3xuServe) -> usize {
    serve.queue_len()
}

/// Shard schedulers the watchdog has respawned.
pub fn respawns(serve: &M3xuServe) -> u64 {
    serve.respawn_count()
}

/// Threads of the pool the shards execute on.
pub fn serve_threads(serve: &M3xuServe) -> usize {
    serve.workers()
}

/// Check that Σ tenant stats equal Σ per-shard `ExecStats`: per-mode
/// instructions, steps and lane products, the flat instruction and step
/// totals, and the fault counters.
pub fn reconcile(serve: &M3xuServe) -> Result<(), String> {
    let tenants: TenantStats = serve.total_stats();
    let shards = (0..serve.shard_count()).fold(ExecStats::default(), |acc, s| {
        acc.merged(&serve.shard_stats(s).expect("shard index in range"))
    });
    let (mut instr, mut steps) = (0, 0);
    for mode in MxuMode::ALL {
        let t = tenants.mode(mode);
        let e = shards.mode(mode);
        let (t, e) = (
            (t.mma_instructions, t.mma_steps, t.mma_lane_products),
            (e.instructions, e.steps, e.lane_products),
        );
        if t != e {
            return Err(format!("{mode:?}: tenants {t:?} vs shards {e:?}"));
        }
        instr += e.0;
        steps += e.1;
    }
    if (tenants.mma_instructions, tenants.mma_steps) != (instr, steps)
        || tenants.faults_detected != shards.faults_detected
    {
        return Err("flat totals or fault counters differ".into());
    }
    Ok(())
}

/// `gemm_calls` of every shard, in shard order.
pub fn shard_calls(serve: &M3xuServe) -> Vec<u64> {
    (0..serve.shard_count())
        .map(|s| {
            serve
                .shard_stats(s)
                .expect("shard index in range")
                .gemm_calls
        })
        .collect()
}
