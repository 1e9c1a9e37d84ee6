//! Seeded inputs: operand matrices, signals, and the open-loop arrival
//! schedule. Everything a workload feeds the program is a pure function of
//! the `--seed` argument and is generated here, not by the program.

use crate::adapter::{Matrix, C32};

/// splitmix64: a small, well-mixed, seedable generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed`, so adding a stream
    /// never shifts another stream's draws.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn sym(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub fn mat_f32(rng: &mut Rng, rows: usize, cols: usize) -> Matrix<f32> {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.sym() as f32).collect(),
    )
}

pub fn mat_f64(rng: &mut Rng, rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.sym()).collect())
}

pub fn mat_c32(rng: &mut Rng, rows: usize, cols: usize) -> Matrix<C32> {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| C32::new(rng.sym() as f32, rng.sym() as f32))
            .collect(),
    )
}

pub fn signal(rng: &mut Rng, n: usize) -> Vec<C32> {
    (0..n)
        .map(|_| C32::new(rng.sym() as f32, rng.sym() as f32))
        .collect()
}

/// One scheduled open-loop arrival.
#[derive(Clone, Copy)]
pub struct Arrival {
    /// Due time, from the phase start, ns.
    pub due_ns: u64,
    /// Tenant rank (`tenant-{rank}`).
    pub tenant: usize,
    /// Index into the request menu.
    pub kind: usize,
    /// Which of the kind's operand variants to send.
    pub variant: usize,
}

/// Tenants the Zipf draw spans.
pub const TENANTS: usize = 16;
/// Zipf exponent over tenant ranks.
pub const ZIPF_S: f64 = 1.0;

/// A Poisson arrival schedule at `rps` for `seconds`, tenants drawn
/// Zipf(`ZIPF_S`) over `TENANTS`, request kinds drawn by `weights`.
pub fn schedule(
    rng: &mut Rng,
    rps: f64,
    seconds: f64,
    weights: &[f64],
    variants: usize,
) -> Vec<Arrival> {
    let zipf: Vec<f64> = (0..TENANTS)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let tenant_cdf = cdf(&zipf);
    let kind_cdf = cdf(weights);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential gap; `1 - unit()` is in (0, 1], so `ln` is finite.
        t += -(1.0 - rng.unit()).ln() / rps;
        if t >= seconds {
            return out;
        }
        let tenant = pick(&tenant_cdf, rng.unit());
        let kind = pick(&kind_cdf, rng.unit());
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            tenant,
            kind,
            variant: rng.below(variants),
        });
    }
}

fn cdf(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|c| *c <= u).min(cdf.len() - 1)
}
