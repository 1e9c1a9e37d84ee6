//! The `serve-openloop` workload: a seeded Poisson schedule replayed into
//! `M3xuServe` by one generator thread with non-blocking submissions, in a
//! `steady` phase and an `overload` phase at fixed offered rates.

use crate::adapter::{self, Call, GemmPrecision, M3xuServe, Output, Pending, Totals};
use crate::inputs::{self, Arrival, Rng};
use crate::kernel::{self, Sizes};
use crate::reference::{self, HostSpeed};
use crate::report::{self, mean, median, quantile, Report, SpanId, Tracer};
use std::time::{Duration, Instant};

/// Shards of the service; they share the process-wide pool.
const SHARDS: usize = 2;
/// Queue capacity per shard: past it `try_submit_*` sheds.
const QUEUE_CAPACITY: usize = 32;
/// Most requests a shard drains per batch.
const MAX_BATCH: usize = 16;
/// Per-request deadline carried in `SubmitOpts`, and the latency limit of
/// `serve_slo_share` and `serve_goodput_rps`, from the due time.
const DEADLINE: Duration = Duration::from_millis(50);
/// Operand variants per request kind.
const VARIANTS: usize = 4;
/// Shares of `--seconds` spent in `steady` and in `overload`; the rest
/// goes to direct calls.
const STEADY_SHARE: f64 = 0.45;
const OVERLOAD_SHARE: f64 = 0.2;
/// Cycles of direct calls, `steady` chunk and `overload` chunk per run.
const CYCLES: usize = 6;
/// Rounds and turn length of the traced run's direct calls at the menu's
/// sizes.
const SMALL_ROUNDS: usize = 3;
const SMALL_TURN: Duration = Duration::from_millis(50);
/// Longest the generator sleeps between polls of in-flight tickets.
const POLL: Duration = Duration::from_micros(100);

/// The op set the serve workload's direct probes and per-layer
/// kernel metrics use: the largest size of each kind in the menu.
const SERVE_SIZES: Sizes = Sizes {
    gemm: 64,
    gemm_fp64e: 16,
    cgemm: 32,
    syrk: 32,
    fft: 256,
};

/// One request kind of the mix.
struct Kind {
    name: String,
    weight: f64,
    variants: Vec<Call>,
    /// Bits of the direct-context result of each variant.
    expected: Vec<Vec<u64>>,
}

/// The request menu: every serve entry family, small sizes.
fn menu(seed: u64) -> Vec<Kind> {
    let mut rng = Rng::new(seed, "serve-operands");
    let r = &mut rng;
    let mut kinds = Vec::new();
    let mut add = |name: String, weight: f64, make: &mut dyn FnMut() -> Call| {
        kinds.push(Kind {
            name,
            weight,
            variants: (0..VARIANTS).map(|_| make()).collect(),
            expected: Vec::new(),
        });
    };
    let f32m = |r: &mut Rng, m, n| inputs::mat_f32(r, m, n);
    let c32m = |r: &mut Rng, m, n| inputs::mat_c32(r, m, n);
    for (prec, label, sizes, w) in [
        (
            GemmPrecision::M3xuFp32,
            "fp32",
            &[16usize, 32, 64][..],
            0.12,
        ),
        (GemmPrecision::Fp16, "fp16", &[32, 64][..], 0.04),
        (GemmPrecision::Fp32Fast, "fp32fast", &[16, 32][..], 0.04),
    ] {
        for &n in sizes {
            add(format!("gemm_{label}_{n}"), w, &mut || Call::Gemm {
                prec,
                a: f32m(r, n, n),
                b: f32m(r, n, n),
                c: f32m(r, n, n),
            });
        }
    }
    add("gemm_fp64e_16".into(), 0.04, &mut || Call::GemmF64 {
        a: inputs::mat_f64(r, 16, 16),
        b: inputs::mat_f64(r, 16, 16),
        c: inputs::mat_f64(r, 16, 16),
    });
    for n in [16, 32] {
        add(format!("cgemm_{n}"), 0.08, &mut || Call::Cgemm {
            a: c32m(r, n, n),
            b: c32m(r, n, n),
            c: c32m(r, n, n),
        });
    }
    add("syrk_32".into(), 0.04, &mut || Call::Syrk {
        a: f32m(r, 32, 32),
        c: f32m(r, 32, 32),
    });
    add("herk_16".into(), 0.03, &mut || Call::Herk {
        a: c32m(r, 16, 16),
        c: c32m(r, 16, 16),
    });
    add("symm_32".into(), 0.03, &mut || Call::Symm {
        a: f32m(r, 32, 32),
        b: f32m(r, 32, 32),
        c: f32m(r, 32, 32),
    });
    add("hemm_16".into(), 0.03, &mut || Call::Hemm {
        a: c32m(r, 16, 16),
        b: c32m(r, 16, 16),
        c: c32m(r, 16, 16),
    });
    add("gemm_op_32".into(), 0.03, &mut || Call::GemmOp {
        a: f32m(r, 32, 32),
        b: f32m(r, 32, 32),
        c: f32m(r, 32, 32),
    });
    for n in [64, 256] {
        add(format!("fft_{n}"), 0.065, &mut || Call::Fft {
            x: inputs::signal(r, n),
        });
    }
    kinds
}

/// The outcome of one phase.
#[derive(Default)]
struct Phase {
    sent: u64,
    shed: u64,
    /// Latency from the due time of every bit-correct completion, ms.
    latency_ms: Vec<f64>,
    /// Σ over chunks of completions within the deadline, at the chunk's
    /// nominal host speed.
    in_deadline_nominal: f64,
    wrong: u64,
    admit_us: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    /// Per chunk: mean sampled queue length of its last quarter minus
    /// that of its first quarter.
    backlog_growth: Vec<f64>,
    backlog_max: f64,
    /// Queue length at the last sample of the last chunk.
    backlog_end: f64,
    stats: Totals,
}

impl Phase {
    /// Fill in the chunk's nominal-speed figures for host speed `f`.
    fn at_host_speed(mut self, f: f64) -> Phase {
        let deadline_ms = DEADLINE.as_secs_f64() * 1e3;
        self.in_deadline_nominal = self
            .latency_ms
            .iter()
            .filter(|l| **l <= deadline_ms)
            .count() as f64
            / f;
        self
    }

    /// Fold one chunk of the phase into the whole.
    fn absorb(&mut self, chunk: Phase) {
        self.sent += chunk.sent;
        self.shed += chunk.shed;
        self.latency_ms.extend(chunk.latency_ms);
        self.in_deadline_nominal += chunk.in_deadline_nominal;
        self.wrong += chunk.wrong;
        self.admit_us.extend(chunk.admit_us);
        self.gen_lag_ms.extend(chunk.gen_lag_ms);
        self.backlog_growth.extend(chunk.backlog_growth);
        self.backlog_max = self.backlog_max.max(chunk.backlog_max);
        self.backlog_end = chunk.backlog_end;
        self.stats.add(&chunk.stats);
    }
}

/// Replay `schedule` into `serve` and wait for every ticket.
fn run_phase(
    serve: &M3xuServe,
    kinds: &[Kind],
    schedule: &[Arrival],
    tracer: &mut Tracer,
    name: &str,
    first_request: u64,
) -> Phase {
    let tenants: Vec<String> = (0..inputs::TENANTS)
        .map(|t| format!("tenant-{t}"))
        .collect();
    let before = adapter::totals(serve);
    let mut ph = Phase::default();
    let phase_span = tracer.open(name, SpanId::NONE);
    let mut pending: Vec<(u64, Instant, Instant, Instant, &Arrival, Pending)> = Vec::new();
    let mut next = 0usize;
    let mut next_sample = Instant::now();
    let mut backlog = Vec::new();
    let start = Instant::now();
    loop {
        let now = Instant::now();
        while next < schedule.len() {
            let a = &schedule[next];
            let due = start + Duration::from_nanos(a.due_ns);
            if due > Instant::now() {
                break;
            }
            let call = kinds[a.kind].variants[a.variant].clone();
            let t_sub = Instant::now();
            let res = adapter::try_submit(serve, &tenants[a.tenant], call, DEADLINE);
            let t_ret = Instant::now();
            ph.sent += 1;
            ph.gen_lag_ms.push((t_sub - due).as_secs_f64() * 1e3);
            ph.admit_us.push((t_ret - t_sub).as_secs_f64() * 1e6);
            match res {
                Ok(p) => pending.push((first_request + next as u64, due, t_sub, t_ret, a, p)),
                Err(_) => ph.shed += 1,
            }
            next += 1;
        }
        pending.retain(|(id, due, t_sub, t_ret, a, p)| {
            let Some(res) = p.poll() else { return true };
            let done = Instant::now();
            let req = tracer.record("serve.request", *due, done, phase_span, Some(*id));
            tracer.record("serve.admit", *t_sub, *t_ret, req, Some(*id));
            if let Ok(out) = res {
                if out.bits() == kinds[a.kind].expected[a.variant] {
                    ph.latency_ms.push((done - *due).as_secs_f64() * 1e3);
                } else {
                    ph.wrong += 1;
                    eprintln!(
                        "FAILED: served {} differs from the direct result",
                        kinds[a.kind].name
                    );
                }
            }
            false
        });
        if now >= next_sample {
            backlog.push(adapter::queue_len(serve) as f64);
            next_sample = now + Duration::from_millis(1);
        }
        if next >= schedule.len() && pending.is_empty() {
            break;
        }
        let mut wait = POLL;
        if let Some(a) = schedule.get(next) {
            let due = start + Duration::from_nanos(a.due_ns);
            wait = wait.min(due.saturating_duration_since(Instant::now()));
        }
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
    tracer.close(phase_span);
    ph.stats = adapter::totals(serve).since(&before);
    let q = backlog.len() / 4;
    if q > 0 {
        ph.backlog_growth
            .push(mean(&backlog[backlog.len() - q..]) - mean(&backlog[..q]));
    }
    ph.backlog_max = backlog.iter().copied().fold(0.0, f64::max);
    ph.backlog_end = backlog.last().copied().unwrap_or(0.0);
    ph
}

/// Check the phase's request ledger: every send is accounted once, and
/// `submitted == completed + rejected + deadline_missed + exec_errors`.
fn check_conservation(ph: &Phase, name: &str, report: &mut Report) {
    let s = &ph.stats;
    let ok = s.submitted == ph.sent
        && s.submitted == s.completed + s.rejected + s.deadline_missed + s.exec_errors
        && s.rejected == ph.shed;
    report.check(
        ok,
        &format!(
            "{name} conservation: sent {} submitted {} completed {} rejected {} missed {} errors {} (shed seen {})",
            ph.sent, s.submitted, s.completed, s.rejected, s.deadline_missed, s.exec_errors, ph.shed
        ),
    );
}

/// Σ tenant stats against Σ per-shard `ExecStats`, per mode.
fn check_reconciliation(serve: &M3xuServe, report: &mut Report) {
    let verdict = adapter::reconcile(serve);
    report.check(
        verdict.is_ok(),
        &format!("Σ tenant stats == Σ per-shard ExecStats: {verdict:?}"),
    );
}

/// Flag a `steady` phase whose backlog grows: on average over its chunks,
/// the last quarter's mean queue length well above the first quarter's.
fn backlog_grows(ph: &Phase) -> bool {
    !ph.backlog_growth.is_empty() && mean(&ph.backlog_growth) > 4.0
}

/// Run `serve-openloop`.
pub fn run(seed: u64, seconds: f64, trace: bool, rates: (f64, f64), report: &mut Report) -> Tracer {
    let mut tracer = Tracer::new(trace);
    let mut kinds = menu(seed);
    let ops = kernel::op_set(seed, &SERVE_SIZES);

    // Oracles, off every clock: the direct-context result of every
    // variant, with the kernel oracles applied where the op has one.
    let direct = adapter::context(1, None);
    if let Err(e) = reference::check_reference_fft(seed) {
        report.check(false, &e);
    }
    for k in kinds.iter_mut() {
        for call in &k.variants {
            match adapter::run_direct(&direct, call) {
                Ok(out) => {
                    if !matches!(
                        call,
                        Call::Herk { .. }
                            | Call::Symm { .. }
                            | Call::Hemm { .. }
                            | Call::GemmOp { .. }
                    ) {
                        let v = kernel::oracle_check(call, &out);
                        report.check(v.is_ok(), &format!("{} oracle: {v:?}", k.name));
                    }
                    k.expected.push(out.bits());
                }
                Err(e) => {
                    report.check(false, &format!("{} direct call failed: {e}", k.name));
                    k.expected.push(Vec::new());
                }
            }
        }
    }
    let op_expected = kernel::expected_bits(&direct, &ops, report);

    // Set-up: build the service and make one warm call per kind.
    let mut setups = Vec::new();
    let mut service = None;
    for _ in 0..kernel::SETUP_REPS {
        drop(service.take());
        let t0 = Instant::now();
        let serve = adapter::service(SHARDS, QUEUE_CAPACITY, MAX_BATCH);
        for k in &kinds {
            let p = adapter::try_submit(
                &serve,
                "warm",
                k.variants[0].clone(),
                Duration::from_secs(60),
            );
            let out = p.map_err(|e| e.to_string()).and_then(|p| wait(&p));
            report.check(
                matches!(&out, Ok(o) if o.bits() == k.expected[0]),
                &format!("{} warm served output", k.name),
            );
        }
        setups.push(t0.elapsed().as_secs_f64());
        service = Some(serve);
    }
    let serve = service.expect("at least one set-up");
    println!(
        "host: nproc {}, simd {}, shards {SHARDS} on the shared pool ({} threads), git {}",
        report::nproc(),
        adapter::simd_level(),
        adapter::serve_threads(&serve),
        report::git_sha()
    );

    // The run is `CYCLES` cycles of: a turn of each kernel-workload op on
    // an idle service, a chunk of `steady`, a chunk of `overload`.
    // Interleaving makes every metric sample the whole run rather than one
    // stretch of it; the kernel turns also gauge the host's speed around
    // each chunk.
    let kernel_ops = kernel::op_set(seed, &kernel::KERNEL_SIZES);
    let kernel_ctx = adapter::context(report::nproc(), None);
    let kernel_expected = kernel::expected_bits(&kernel_ctx, &kernel_ops, report);
    let weights: Vec<f64> = kinds.iter().map(|k| k.weight).collect();
    let mut rng = Rng::new(seed, "serve-schedule");
    let (steady_rps, overload_rps) = rates;
    let steady_s = seconds * STEADY_SHARE;
    let overload_s = seconds * OVERLOAD_SHARE;
    let turn = Duration::from_secs_f64(
        seconds * (1.0 - STEADY_SHARE - OVERLOAD_SHARE) / (CYCLES * kernel_ops.len()) as f64,
    );
    let steady_sched = inputs::schedule(&mut rng, steady_rps, steady_s, &weights, VARIANTS);
    let overload_sched = inputs::schedule(&mut rng, overload_rps, overload_s, &weights, VARIANTS);
    let steady_chunks = chunks(&steady_sched, steady_s);
    let overload_chunks = chunks(&overload_sched, overload_s);

    let mut records = Vec::new();
    let mut host = HostSpeed::new();
    let (mut steady, mut overload, mut untraced) =
        (Phase::default(), Phase::default(), Phase::default());
    let mut first_request = 0u64;
    for c in 0..CYCLES {
        let mark = host.mark();
        let span = tracer.open("kernel-turns", SpanId::NONE);
        records.extend(kernel::round(
            &kernel_ctx,
            &kernel_ops,
            &kernel_expected,
            turn,
            &mut host,
            &mut tracer,
            span,
        ));
        tracer.close(span);
        let f = host.factor_since(mark);
        // A traced run also replays each steady chunk untraced, for the
        // overhead comparison.
        if trace {
            let chunk = run_phase(
                &serve,
                &kinds,
                &steady_chunks[c],
                &mut Tracer::new(false),
                "steady",
                first_request,
            );
            check_conservation(&chunk, "steady-untraced", report);
            untraced.absorb(chunk.at_host_speed(f));
        }
        for (sched, phase, name) in [
            (&steady_chunks[c], &mut steady, "steady"),
            (&overload_chunks[c], &mut overload, "overload"),
        ] {
            let chunk = run_phase(&serve, &kinds, sched, &mut tracer, name, first_request);
            first_request += sched.len() as u64;
            check_conservation(&chunk, name, report);
            phase.absorb(chunk.at_host_speed(f));
        }
    }
    for r in &records {
        report.check(
            r.ok,
            &format!("{} kernel turn output", kernel_ops[r.op].name),
        );
    }

    for (ph, name) in [
        (&steady, "steady"),
        (&overload, "overload"),
        (&untraced, "steady-untraced"),
    ] {
        report.attempted += ph.sent;
        report.failed += ph.wrong;
        eprintln!(
            "{name}: sent {} shed {} completed {} missed {} p50 {:.3} ms p99 {:.3} ms",
            ph.sent,
            ph.shed,
            ph.stats.completed,
            ph.stats.deadline_missed,
            quantile(&ph.latency_ms, 0.5),
            quantile(&ph.latency_ms, 0.99)
        );
    }
    check_reconciliation(&serve, report);
    let grows = backlog_grows(&steady);
    if grows {
        eprintln!("WARNING: the steady phase's backlog grows; its offered rate is past capacity");
    }

    if !trace {
        // Timings at the nominal host speed (see README.md).
        let f = host.factor();
        for (i, op) in kernel_ops.iter().enumerate() {
            let walls: Vec<f64> = records
                .iter()
                .filter(|r| r.op == i)
                .map(|r| r.wall_s)
                .collect();
            let (name, value, unit) = op.throughput(median(&walls));
            report.metric(&name, value / f, unit);
            eprintln!("{name}: {} calls, measured {value:.6} {unit}", walls.len());
        }
        let deadline_ms = DEADLINE.as_secs_f64() * 1e3;
        let in_slo = steady
            .latency_ms
            .iter()
            .filter(|l| **l <= deadline_ms)
            .count();
        report.metric(
            "serve_slo_share",
            in_slo as f64 / steady.sent as f64,
            "share",
        );
        report.metric(
            "serve_goodput_rps",
            overload.in_deadline_nominal / overload_s,
            "1/s",
        );
        report.metric("setup_s", median(&setups) * f, "s");
        report.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
        eprintln!(
            "host gauge {:.4} ms: speed {f:.3} of nominal",
            host.gauge_ms()
        );
    } else {
        // Per-layer kernel figures at the menu's sizes, on the direct
        // single-threaded context the oracles used.
        let mut small = Vec::new();
        for _ in 0..SMALL_ROUNDS {
            small.extend(kernel::round(
                &direct,
                &ops,
                &op_expected,
                SMALL_TURN,
                &mut host,
                &mut tracer,
                SpanId::NONE,
            ));
        }
        for r in &small {
            report.check(r.ok, &format!("{} direct call output", ops[r.op].name));
        }
        kernel::layer_metrics(
            &ops,
            &small,
            adapter::threads(&direct),
            None,
            &op_expected,
            report,
        );
        serve_layer_metrics(&serve, &steady, &overload, grows, report);
        let overhead = mean(&steady.latency_ms) / mean(&untraced.latency_ms) - 1.0;
        report.metric("trace.overhead_share", overhead, "share");
        report.metric("host.gauge_ms", host.gauge_ms(), "ms");
    }
    tracer
}

/// Block (by polling) until `p` resolves.
fn wait(p: &Pending) -> Result<Output, String> {
    loop {
        if let Some(r) = p.poll() {
            return r.map_err(|e| e.to_string());
        }
        std::thread::sleep(POLL);
    }
}

/// Split `sched` (spanning `seconds`) into `CYCLES` consecutive chunks of
/// equal length, each re-based to start at zero.
fn chunks(sched: &[Arrival], seconds: f64) -> Vec<Vec<Arrival>> {
    let len_ns = (seconds * 1e9 / CYCLES as f64) as u64;
    let mut out: Vec<Vec<Arrival>> = (0..CYCLES).map(|_| Vec::new()).collect();
    for a in sched {
        let c = ((a.due_ns / len_ns.max(1)) as usize).min(CYCLES - 1);
        out[c].push(Arrival {
            due_ns: a.due_ns - c as u64 * len_ns,
            ..*a
        });
    }
    out
}

/// The serve layer's per-layer metrics.
fn serve_layer_metrics(
    serve: &M3xuServe,
    steady: &Phase,
    overload: &Phase,
    grows: bool,
    report: &mut Report,
) {
    report.metric("serve.p50_ms", quantile(&steady.latency_ms, 0.50), "ms");
    report.metric("serve.p99_ms", quantile(&steady.latency_ms, 0.99), "ms");
    let admit: Vec<f64> = steady
        .admit_us
        .iter()
        .chain(&overload.admit_us)
        .copied()
        .collect();
    report.metric("serve.admit_us_p50", quantile(&admit, 0.50), "us");
    report.metric("serve.admit_us_p99", quantile(&admit, 0.99), "us");
    let s = &steady.stats;
    let executed = s.executed.max(1) as f64;
    let queue_ms = s.queue_wait_ns as f64 / executed / 1e6;
    let exec_ms = s.exec_ns as f64 / executed / 1e6;
    report.metric("serve.queue_wait_ms_mean", queue_ms, "ms");
    report.metric("serve.exec_ms_mean", exec_ms, "ms");
    report.metric(
        "serve.reply_ms_mean",
        mean(&steady.latency_ms) - queue_ms - exec_ms,
        "ms",
    );
    let o = &overload.stats;
    let sent = overload.sent.max(1) as f64;
    report.metric("serve.shed_share", o.rejected as f64 / sent, "share");
    report.metric(
        "serve.deadline_miss_share",
        o.deadline_missed as f64 / sent,
        "share",
    );
    report.metric(
        "serve.exec_error_share",
        o.exec_errors as f64 / sent,
        "share",
    );
    let calls: Vec<f64> = adapter::shard_calls(serve)
        .iter()
        .map(|c| *c as f64)
        .collect();
    let max = calls.iter().copied().fold(0.0, f64::max);
    report.metric("serve.shard_imbalance", max / mean(&calls), "ratio");
    report.metric("serve.backlog_max", steady.backlog_max, "count");
    report.metric("serve.backlog_end", steady.backlog_end, "count");
    report.metric("serve.backlog_grows", grows as u8 as f64, "flag");
    report.metric("serve.respawns", adapter::respawns(serve) as f64, "count");
    let lag: Vec<f64> = steady
        .gen_lag_ms
        .iter()
        .chain(&overload.gen_lag_ms)
        .copied()
        .collect();
    report.metric("serve.gen_lag_ms_p99", quantile(&lag, 0.99), "ms");
}

/// The serve-layer metrics of a workload that never reaches the serve
/// layer: zero by construction.
pub fn idle_layer_metrics(report: &mut Report) {
    for (name, unit) in SERVE_LAYER_METRICS {
        report.metric(name, 0.0, unit);
    }
}

/// Every serve-layer metric name with its unit.
pub const SERVE_LAYER_METRICS: [(&str, &str); 16] = [
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.admit_us_p50", "us"),
    ("serve.admit_us_p99", "us"),
    ("serve.queue_wait_ms_mean", "ms"),
    ("serve.exec_ms_mean", "ms"),
    ("serve.reply_ms_mean", "ms"),
    ("serve.shed_share", "share"),
    ("serve.deadline_miss_share", "share"),
    ("serve.exec_error_share", "share"),
    ("serve.shard_imbalance", "ratio"),
    ("serve.backlog_max", "count"),
    ("serve.backlog_end", "count"),
    ("serve.backlog_grows", "flag"),
    ("serve.respawns", "count"),
    ("serve.gen_lag_ms_p99", "ms"),
];
