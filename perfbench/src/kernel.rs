//! The kernel workloads (`kernel-dial`, `kernel-abft`) and the per-op
//! machinery the serve workload shares: the seven ops, their oracles, a
//! metered round of direct calls, and the per-layer probes of the packed
//! layer, the drivers and the worker pool.

use crate::adapter::{self, Call, Counts, GemmPrecision, M3xuContext, Matrix, Output};
use crate::inputs::{self, Rng};
use crate::reference::{self, HostSpeed};
use crate::report::{self, median, Report, SpanId, Tracer};
use std::time::{Duration, Instant};

/// Operand sizes of one op set.
pub struct Sizes {
    pub gemm: usize,
    pub gemm_fp64e: usize,
    pub cgemm: usize,
    pub syrk: usize,
    pub fft: usize,
}

/// The kernel workloads' shapes (see README.md for why).
pub const KERNEL_SIZES: Sizes = Sizes {
    gemm: 128,
    gemm_fp64e: 64,
    cgemm: 64,
    syrk: 128,
    fft: 16384,
};

/// One op of a set: its call and the useful work one call does.
pub struct Op {
    pub name: &'static str,
    pub call: Call,
    /// Flops (GEMM family) or points (FFT) per call.
    pub work: f64,
}

impl Op {
    /// The end-to-end metric name and its throughput for one call time.
    pub fn throughput(&self, seconds: f64) -> (String, f64, &'static str) {
        if self.name == "fft" {
            ("fft_mpts_s".into(), self.work / seconds / 1e6, "Mpts/s")
        } else {
            (
                format!("{}_gflops", self.name),
                self.work / seconds / 1e9,
                "GFLOP/s",
            )
        }
    }
}

/// The seven ops at `sizes`, operands drawn from `seed`.
pub fn op_set(seed: u64, sizes: &Sizes) -> Vec<Op> {
    let mut rng = Rng::new(seed, "kernel-operands");
    let mut gemm = |prec| {
        let n = sizes.gemm;
        Call::Gemm {
            prec,
            a: inputs::mat_f32(&mut rng, n, n),
            b: inputs::mat_f32(&mut rng, n, n),
            c: inputs::mat_f32(&mut rng, n, n),
        }
    };
    let g32 = gemm(GemmPrecision::M3xuFp32);
    let g32f = gemm(GemmPrecision::Fp32Fast);
    let g16 = gemm(GemmPrecision::Fp16);
    let n3 = |n: usize| (n * n * n) as f64;
    let (nf, nc, ns) = (sizes.gemm_fp64e, sizes.cgemm, sizes.syrk);
    vec![
        Op {
            name: "gemm_fp32",
            call: g32,
            work: 2.0 * n3(sizes.gemm),
        },
        Op {
            name: "gemm_fp32fast",
            call: g32f,
            work: 2.0 * n3(sizes.gemm),
        },
        Op {
            name: "gemm_fp16",
            call: g16,
            work: 2.0 * n3(sizes.gemm),
        },
        Op {
            name: "gemm_fp64e",
            call: Call::GemmF64 {
                a: inputs::mat_f64(&mut rng, nf, nf),
                b: inputs::mat_f64(&mut rng, nf, nf),
                c: inputs::mat_f64(&mut rng, nf, nf),
            },
            work: 2.0 * n3(nf),
        },
        Op {
            name: "cgemm",
            call: Call::Cgemm {
                a: inputs::mat_c32(&mut rng, nc, nc),
                b: inputs::mat_c32(&mut rng, nc, nc),
                c: inputs::mat_c32(&mut rng, nc, nc),
            },
            work: 8.0 * n3(nc),
        },
        Op {
            name: "syrk",
            call: Call::Syrk {
                a: inputs::mat_f32(&mut rng, ns, ns),
                c: inputs::mat_f32(&mut rng, ns, ns),
            },
            // The useful triangle: n(n+1)k flops.
            work: (ns * (ns + 1) * ns) as f64,
        },
        Op {
            name: "fft",
            call: Call::Fft {
                x: inputs::signal(&mut rng, sizes.fft),
            },
            work: sizes.fft as f64,
        },
    ]
}

// ---- oracles ------------------------------------------------------------

/// Check `out` against the op's oracle (see README.md, "Correctness").
/// Returns `Err(reason)` on a mismatch.
pub fn oracle_check(call: &Call, out: &Output) -> Result<(), String> {
    match (call, out) {
        (Call::Gemm { prec, a, b, c }, Output::F32(d)) => match prec {
            GemmPrecision::Fp32Fast => {
                // Truncated schedule: the dropped lo·lo term plus one
                // rounding per fragment chunk (depth 2).
                let chunks = a.cols().div_ceil(2) as f64;
                bound_check_f32(a, b, c, d, (chunks + 4.0) * 2f64.powi(-23))
            }
            _ => bits_equal(&adapter::baseline_gemm_f32(*prec, a, b, c), d),
        },
        (Call::GemmF64 { a, b, c }, Output::F64(d)) => {
            let reference = adapter::reference_gemm_f64(a, b, c);
            let tol = (a.cols() as f64 + 2.0) * 2f64.powi(-52);
            let k = a.cols();
            for i in 0..d.rows() {
                for j in 0..d.cols() {
                    let scale: f64 = (0..k)
                        .map(|l| (a.get(i, l) * b.get(l, j)).abs())
                        .sum::<f64>()
                        + c.get(i, j).abs();
                    let err = (d.get(i, j) - reference.get(i, j)).abs();
                    if err.is_nan() || err > tol * scale {
                        return Err(format!(
                            "fp64e ({i},{j}) error {err:e} over {:e}",
                            tol * scale
                        ));
                    }
                }
            }
            Ok(())
        }
        (Call::Cgemm { a, b, c }, Output::C32(_)) => {
            let want = adapter::baseline_cgemm_c32(a, b, c);
            if Output::C32(want).bits() == out.bits() {
                Ok(())
            } else {
                Err("cgemm differs from the baseline driver".into())
            }
        }
        (Call::Syrk { a, c }, Output::F32(d)) => {
            // Lower triangle: bit-identical to the baseline A·Aᵀ with a
            // zero C (beta = 0 never reads C); upper: C passes through.
            let n = a.rows();
            let zero = Matrix::zeros(n, n);
            let full =
                adapter::baseline_gemm_f32(GemmPrecision::M3xuFp32, a, &a.transpose(), &zero);
            let want = Matrix::from_fn(
                n,
                n,
                |i, j| if i >= j { full.get(i, j) } else { c.get(i, j) },
            );
            bits_equal(&want, d)
        }
        (Call::Fft { x }, Output::Spectrum(y)) => {
            let err = adapter::spectrum_rel_error(y, &reference::reference_fft(x));
            if err <= FFT_TOL {
                Ok(())
            } else {
                Err(format!("fft relative error {err:e} over {FFT_TOL:e}"))
            }
        }
        _ => Err("no oracle for this call".into()),
    }
}

/// Spectrum tolerance of the GEMM-formulated FFT against the exact
/// transform (the repository's own multi-level FFT test bound).
const FFT_TOL: f64 = 1e-5;

fn bits_equal(want: &Matrix<f32>, got: &Matrix<f32>) -> Result<(), String> {
    let bad = want
        .as_slice()
        .iter()
        .zip(got.as_slice())
        .filter(|(w, g)| w.to_bits() != g.to_bits())
        .count();
    if bad == 0 && want.as_slice().len() == got.as_slice().len() {
        Ok(())
    } else {
        Err(format!("{bad} elements differ from the baseline driver"))
    }
}

/// `|d - (A·B + C)| <= rel · (Σ|a·b| + |c|)` element-wise, with the
/// reference in `f64` (every `f32` product is exact there).
fn bound_check_f32(
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
    d: &Matrix<f32>,
    rel: f64,
) -> Result<(), String> {
    let k = a.cols();
    for i in 0..d.rows() {
        for j in 0..d.cols() {
            let (mut exact, mut scale) = (c.get(i, j) as f64, c.get(i, j).abs() as f64);
            for l in 0..k {
                let p = a.get(i, l) as f64 * b.get(l, j) as f64;
                exact += p;
                scale += p.abs();
            }
            let err = (d.get(i, j) as f64 - exact).abs();
            if err.is_nan() || err > rel * scale {
                return Err(format!(
                    "fp32fast ({i},{j}) error {err:e} over {:e}",
                    rel * scale
                ));
            }
        }
    }
    Ok(())
}

/// Expected output bits per op: the oracle's bits where the oracle is
/// exact, otherwise the bits of a first direct output that passed its
/// bound (every later call must reproduce them: the drivers are
/// deterministic). Each verdict is counted in `report`.
pub fn expected_bits(ctx: &M3xuContext, ops: &[Op], report: &mut Report) -> Vec<Vec<u64>> {
    ops.iter()
        .map(|op| match adapter::run_direct(ctx, &op.call) {
            Ok(out) => {
                let verdict = oracle_check(&op.call, &out);
                report.check(verdict.is_ok(), &format!("{} oracle: {verdict:?}", op.name));
                out.bits()
            }
            Err(e) => {
                report.check(false, &format!("{} failed: {e}", op.name));
                Vec::new()
            }
        })
        .collect()
}

// ---- metered calls ------------------------------------------------------

/// One timed direct call.
pub struct CallRecord {
    pub op: usize,
    pub wall_s: f64,
    pub counts: Counts,
    pub ok: bool,
}

/// Issue each op in turn on `ctx`, repeating it until `slice` has passed
/// (at least once), timing each call and comparing its bits with
/// `expected`. Each turn starts with a `host` gauge sample. Spans go under
/// `parent` when `tracer` is on.
pub fn round(
    ctx: &M3xuContext,
    ops: &[Op],
    expected: &[Vec<u64>],
    slice: Duration,
    host: &mut HostSpeed,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Vec<CallRecord> {
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        host.sample();
        let slice_end = Instant::now() + slice;
        loop {
            let (res, counts, t0, t1) = adapter::run_timed(ctx, &op.call);
            tracer.record(&format!("kernels.{}", op.name), t0, t1, parent, None);
            let ok = matches!(&res, Ok(o) if o.bits() == expected[i]);
            out.push(CallRecord {
                op: i,
                wall_s: (t1 - t0).as_secs_f64(),
                counts,
                ok,
            });
            if t1 >= slice_end {
                break;
            }
        }
    }
    out
}

// ---- the kernel workloads ----------------------------------------------

/// Fixed latency limit of one kernel call for `serve_slo_share` on the
/// kernel workloads (see README.md).
const CALL_LIMIT_S: f64 = 5.0;

/// How long each op repeats before the round moves to the next op.
const SLICE: Duration = Duration::from_millis(250);

/// How long the single-threaded FP32 GEMM of the scaling probe repeats.
const T1_TURN: Duration = Duration::from_secs(1);

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Run `kernel-dial` (`armed == false`) or `kernel-abft`.
pub fn run(seed: u64, seconds: f64, trace: bool, armed: bool, report: &mut Report) -> Tracer {
    let threads = report::nproc();
    let armed_seed = armed.then_some(seed);
    let ops = op_set(seed, &KERNEL_SIZES);
    let mut tracer = Tracer::new(trace);

    // Oracles first, off every clock. The reference context is unarmed:
    // an armed run must reproduce the unchecked bits.
    let reference = adapter::context(threads, None);
    if let Err(e) = reference::check_reference_fft(seed) {
        report.check(false, &e);
    }
    let expected = expected_bits(&reference, &ops, report);
    drop(reference);

    // Set-up: build the context and make one warm call per op.
    let mut setups = Vec::new();
    let mut ctx = None;
    for _ in 0..SETUP_REPS {
        drop(ctx.take());
        let t0 = Instant::now();
        let c = adapter::context(threads, armed_seed);
        let warm = round(
            &c,
            &ops,
            &expected,
            Duration::ZERO,
            &mut HostSpeed::new(),
            &mut Tracer::new(false),
            SpanId::NONE,
        );
        setups.push(t0.elapsed().as_secs_f64());
        for r in &warm {
            report.check(r.ok, &format!("{} warm call output", ops[r.op].name));
        }
        ctx = Some(c);
    }
    let ctx = ctx.expect("at least one set-up");
    println!(
        "host: nproc {threads}, simd {}, context threads {}, git {}",
        adapter::simd_level(),
        adapter::threads(&ctx),
        report::git_sha()
    );

    // Measured rounds: each op in turn for `SLICE`, cycling until the
    // budget is spent, so every op samples the whole run. A traced run
    // spends half its time untraced, for the overhead comparison, then
    // half traced.
    let mut host = HostSpeed::new();
    let mut untraced: Vec<CallRecord> = Vec::new();
    let mut records: Vec<CallRecord> = Vec::new();
    let halves: &[(bool, f64)] = if trace {
        &[(false, seconds / 2.0), (true, seconds / 2.0)]
    } else {
        &[(false, seconds)]
    };
    for &(traced, budget) in halves {
        let mut sink = Tracer::new(false);
        let tr = if traced { &mut tracer } else { &mut sink };
        let t_end = Instant::now() + Duration::from_secs_f64(budget);
        while Instant::now() < t_end {
            let span = tr.open("round", SpanId::NONE);
            let recs = round(&ctx, &ops, &expected, SLICE, &mut host, tr, span);
            tr.close(span);
            if traced || !trace {
                records.extend(recs);
            } else {
                untraced.extend(recs);
            }
        }
    }
    for r in records.iter().chain(&untraced) {
        report.check(r.ok, &format!("{} timed call output", ops[r.op].name));
    }

    if !trace {
        end_to_end(&ops, &records, &setups, &host, report);
    } else {
        layer_metrics(&ops, &records, threads, armed_seed, &expected, report);
        crate::serve::idle_layer_metrics(report);
        report.metric(
            "trace.overhead_share",
            overhead(&records, &untraced),
            "share",
        );
        report.metric("host.gauge_ms", host.gauge_ms(), "ms");
    }
    tracer
}

/// Σ over ops of the median traced call time against the same sum
/// untraced, minus one.
fn overhead(traced: &[CallRecord], untraced: &[CallRecord]) -> f64 {
    let total = |recs: &[CallRecord]| -> f64 {
        let ops = recs.iter().map(|r| r.op).max().map_or(0, |m| m + 1);
        (0..ops)
            .map(|i| {
                median(
                    &recs
                        .iter()
                        .filter(|r| r.op == i)
                        .map(|r| r.wall_s)
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    };
    total(traced) / total(untraced) - 1.0
}

/// The end-to-end metrics of a kernel workload, at the nominal host
/// speed (`host`).
fn end_to_end(
    ops: &[Op],
    records: &[CallRecord],
    setups: &[f64],
    host: &HostSpeed,
    report: &mut Report,
) {
    let f = host.factor();
    for (i, op) in ops.iter().enumerate() {
        let walls: Vec<f64> = records
            .iter()
            .filter(|r| r.op == i)
            .map(|r| r.wall_s)
            .collect();
        let (name, value, unit) = op.throughput(median(&walls));
        report.metric(&name, value / f, unit);
        eprintln!("{name}: {} calls, measured {value:.6} {unit}", walls.len());
    }
    // The kernel calls as a one-client closed loop: each call is due when
    // the previous one returns, so its latency is its wall time.
    let good = records
        .iter()
        .filter(|r| r.ok && r.wall_s <= CALL_LIMIT_S)
        .count() as f64;
    report.metric("serve_slo_share", good / records.len() as f64, "share");
    let busy: f64 = records.iter().map(|r| r.wall_s).sum();
    report.metric("serve_goodput_rps", good / busy / f, "1/s");
    report.metric("setup_s", median(setups) * f, "s");
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
    eprintln!(
        "host gauge {:.4} ms: speed {f:.3} of nominal",
        host.gauge_ms()
    );
}

/// The per-layer metrics of the packed layer, the drivers and the pool,
/// from the traced calls `records` of `ops` on a `threads`-thread context,
/// plus single-threaded probes.
pub fn layer_metrics(
    ops: &[Op],
    records: &[CallRecord],
    threads: usize,
    armed_seed: Option<u64>,
    expected: &[Vec<u64>],
    report: &mut Report,
) {
    for (i, op) in ops.iter().enumerate() {
        let recs: Vec<&CallRecord> = records.iter().filter(|r| r.op == i).collect();
        let wall_ns: f64 = recs.iter().map(|r| r.wall_s * 1e9).sum();
        let mut sum = Counts::default();
        for r in &recs {
            sum.add(&r.counts);
        }
        let calls = recs.len().max(1) as f64;
        let p = |f: &str| format!("kernels.{}.{f}", op.name);
        report.metric(&p("pack_share"), sum.pack_ns as f64 / wall_ns, "share");
        report.metric(&p("exec_share"), sum.exec_ns as f64 / wall_ns, "share");
        let driver_ns = wall_ns - sum.pack_ns as f64 - sum.exec_ns as f64;
        report.metric(&p("driver_ms"), driver_ns / calls / 1e6, "ms");
        // Exact per-call counts: every call of an op must count the same
        // work (timings and fault telemetry aside).
        let work = |c: &Counts| Counts {
            pack_ns: 0,
            exec_ns: 0,
            faults_detected: 0,
            faults_corrected: 0,
            retries: 0,
            ..*c
        };
        let one = recs.first().map(|r| work(&r.counts)).unwrap_or_default();
        let same = recs.iter().all(|r| work(&r.counts) == one);
        report.check(same, &format!("{} counts repeat exactly per call", op.name));
        report.metric(&p("fragments"), one.fragments as f64, "count");
        report.metric(&p("tiles"), one.tiles as f64, "count");
        report.metric(&p("steps"), one.steps as f64, "count");
        report.metric(&p("lane_products"), one.lane_products as f64, "count");
        report.metric(&p("operand_bytes"), one.operand_bytes as f64, "B");
        let observed = (one.instructions, one.steps, one.operand_bytes);
        let model = adapter::model_counts(&op.call);
        let exact = model == Some(observed) && one.fragments == one.instructions;
        report.check(
            exact,
            &format!("{} counts {observed:?} vs model {model:?}", op.name),
        );
        let ratio = model.map_or(f64::NAN, |m| one.instructions as f64 / m.0 as f64);
        report.metric(&p("count_vs_model"), ratio, "ratio");
        report.metric(&p("faults_detected"), sum.faults_detected as f64, "count");
        report.metric(&p("faults_corrected"), sum.faults_corrected as f64, "count");
        report.metric(&p("retries"), sum.retries as f64, "count");
    }

    // Thread scaling of the FP32 GEMM: the same call on one thread.
    let t1_ctx = adapter::context(1, armed_seed);
    let t1_recs = round(
        &t1_ctx,
        &ops[..1],
        &expected[..1],
        T1_TURN,
        &mut HostSpeed::new(),
        &mut Tracer::new(false),
        SpanId::NONE,
    );
    for r in &t1_recs {
        report.check(r.ok, "single-thread gemm_fp32 output");
    }
    let walls = |recs: &[CallRecord]| -> Vec<f64> {
        recs.iter()
            .filter(|r| r.op == 0)
            .map(|r| r.wall_s)
            .collect()
    };
    let t1_gflops = ops[0].work / median(&walls(&t1_recs)) / 1e9;
    let tn_gflops = ops[0].work / median(&walls(records)) / 1e9;
    report.metric("kernels.gemm_fp32.t1_gflops", t1_gflops, "GFLOP/s");
    report.metric(
        "kernels.gemm_fp32.scaling_eff",
        tn_gflops / (threads as f64 * t1_gflops),
        "share",
    );

    packed_metrics(ops, expected, report);

    let pool = adapter::worker_pool(report::nproc());
    let mut epochs = Vec::new();
    for _ in 0..2000 {
        let t0 = Instant::now();
        adapter::pool_noop_epoch(&pool, report::nproc());
        epochs.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    report.metric("pool.epoch_us", median(&epochs), "us");
}

/// Packing and panel-kernel cost per mode, single-threaded, on the ops'
/// own operands. Each probed tile's panel output must equal the same tile
/// of the driver's (verified) output.
fn packed_metrics(ops: &[Op], expected: &[Vec<u64>], report: &mut Report) {
    const MODES: [(&str, usize); 5] = [
        ("fp32", 0),
        ("fp32fast", 1),
        ("fp16", 2),
        ("fp64e", 3),
        ("fp32c", 4),
    ];
    let mut dpu = adapter::dot_product_unit();
    for (mode, i) in MODES {
        let call = &ops[i].call;
        let elems = match call {
            Call::Gemm { a, b, .. } => a.as_slice().len() + b.as_slice().len(),
            Call::GemmF64 { a, b, .. } => a.as_slice().len() + b.as_slice().len(),
            Call::Cgemm { a, b, .. } => a.as_slice().len() + b.as_slice().len(),
            _ => unreachable!("the first five ops are plain GEMMs"),
        };
        let mut pack_ns = Vec::new();
        let mut packed = None;
        for _ in 0..5 {
            let t0 = Instant::now();
            let p = adapter::pack(call).expect("GEMM-shaped call");
            pack_ns.push(t0.elapsed().as_nanos() as f64);
            packed = Some(p);
        }
        let packed = match packed.expect("five packs") {
            Ok(p) => p,
            Err(e) => {
                report.check(false, &format!("pack {mode}: {e}"));
                continue;
            }
        };
        report.metric(
            &format!("packed.pack_ns_per_elem.{mode}"),
            median(&pack_ns) / elems as f64,
            "ns",
        );
        let complex = matches!(call, Call::Cgemm { .. });
        let tiles = packed.tiles();
        let sample = tiles.min(24);
        let t0 = Instant::now();
        let mut ok = true;
        for s in 0..sample {
            let tile = s * tiles / sample;
            let got = adapter::panel_tile(&mut dpu, call, &packed, tile);
            ok &= got == adapter::tile_bits(&expected[i], complex, &packed, tile);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        report.check(ok, &format!("{mode} panel tiles match the driver"));
        report.metric(
            &format!("packed.panel_ns_per_frag.{mode}"),
            ns / (sample * packed.frags_per_tile()) as f64,
            "ns",
        );
    }
}
