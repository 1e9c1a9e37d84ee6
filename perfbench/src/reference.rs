//! Benchmark-owned reference computations: the exact FFT the FFT oracle
//! compares against, and the host-speed gauge built on it.

use crate::adapter::{self, C32};
use crate::inputs::{self, Rng};
use crate::report::median;
use std::time::Instant;

/// Exact-in-`f64` radix-2 FFT, rounded to FP32C: the reference for
/// transforms too long for the direct `O(n²)` DFT. `check_reference_fft`
/// ties it to `fft::dft` each run.
pub fn reference_fft(x: &[C32]) -> Vec<C32> {
    let n = x.len();
    let bits = n.trailing_zeros();
    let mut re = vec![0f64; n];
    let mut im = vec![0f64; n];
    for (i, v) in x.iter().enumerate() {
        let j = if n > 1 {
            i.reverse_bits() >> (usize::BITS - bits)
        } else {
            0
        };
        re[j] = v.re as f64;
        im[j] = v.im as f64;
    }
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        for k in 0..half {
            let (s, c) = (-2.0 * std::f64::consts::PI * k as f64 / len as f64).sin_cos();
            for start in (0..n).step_by(len) {
                let (p, q) = (start + k, start + k + half);
                let tr = re[q] * c - im[q] * s;
                let ti = re[q] * s + im[q] * c;
                re[q] = re[p] - tr;
                im[q] = im[p] - ti;
                re[p] += tr;
                im[p] += ti;
            }
        }
        len *= 2;
    }
    re.iter()
        .zip(&im)
        .map(|(r, i)| C32::new(*r as f32, *i as f32))
        .collect()
}

/// Validate the `f64` reference FFT against the repository's direct DFT
/// on a seeded 1024-point signal.
pub fn check_reference_fft(seed: u64) -> Result<(), String> {
    let x = inputs::signal(&mut Rng::new(seed, "fft-reference"), 1024);
    let err = adapter::spectrum_rel_error(&reference_fft(&x), &adapter::dft(&x));
    if err <= 1e-6 {
        Ok(())
    } else {
        Err(format!("reference FFT differs from fft::dft by {err:e}"))
    }
}

/// Points of the gauge's transform.
const GAUGE_POINTS: usize = 4096;
/// The gauge's median time on the nominal host, s: a 2-vCPU x86-64 VM
/// (AVX2) with no competing load.
const NOMINAL_S: f64 = 2.0e-4;

/// A host-speed gauge: the benchmark's own `f64` FFT of a fixed signal,
/// timed between turns of measured work. Its median time over a run,
/// against `NOMINAL_S`, is the host's speed during that run; end-to-end
/// timings are reported at the nominal speed (see README.md, "Host-speed
/// normalisation"). The gauge is not program code, so no change to the
/// program can move it.
pub struct HostSpeed {
    signal: Vec<C32>,
    samples_s: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            signal: inputs::signal(&mut Rng::new(0, "host-gauge"), GAUGE_POINTS),
            samples_s: Vec::new(),
        }
    }

    /// Time one gauge transform.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(reference_fft(std::hint::black_box(&self.signal)));
        self.samples_s.push(t0.elapsed().as_secs_f64());
    }

    /// Median gauge time, ms.
    pub fn gauge_ms(&self) -> f64 {
        median(&self.samples_s) * 1e3
    }

    /// This run's host speed against the nominal host (`< 1` is slower):
    /// divide a throughput by it, multiply a duration by it.
    pub fn factor(&self) -> f64 {
        NOMINAL_S / median(&self.samples_s)
    }

    /// Samples taken so far, to pass to [`HostSpeed::factor_since`].
    pub fn mark(&self) -> usize {
        self.samples_s.len()
    }

    /// [`HostSpeed::factor`] over the samples taken since `mark`.
    pub fn factor_since(&self, mark: usize) -> f64 {
        NOMINAL_S / median(&self.samples_s[mark..])
    }
}
