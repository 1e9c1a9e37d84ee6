//! Deterministic fault injection for the M3XU execution stack.
//!
//! A [`FaultPlan`] decides — as a pure function of a seed and a *fault
//! site* — whether a given MMA product gets corrupted or a given pool
//! task stalls/panics. Determinism is the point: a chaos test can replay
//! the exact same fault schedule at any thread count, and the ABFT layer
//! can prove that every injected-and-corrected run is bit-identical to
//! the oracle.
//!
//! Two details matter for the self-healing story:
//!
//! * **Sites include the attempt number.** A tile re-execution is a new
//!   site, so a corrupted tile usually comes back clean on retry — but a
//!   plan with rate 1.0 faults every attempt, exercising the genuine
//!   unrecoverable path ([`M3xuError::FaultDetected`]).
//! * **Every driver invocation draws a fresh salt** ([`FaultPlan::next_call`]).
//!   Without it, a serve-layer retry would replay the identical fault
//!   schedule and could never succeed.
//!
//! The plan is resolved from the environment once per context, mirroring
//! `M3XU_THREADS`: `M3XU_FAULT_SEED` arms it (any `u64`), and
//! `M3XU_FAULT_RATE` sets the per-product fault probability (default
//! `1e-3`; values outside `[0, 1]`, NaN included, warn once and disarm
//! the injector rather than arming it at some rate the operator did not
//! ask for).
//!
//! [`M3xuError::FaultDetected`]: crate::error::M3xuError::FaultDetected

use crate::abft::Checksum;
use m3xu_fp::complex::Complex;
use m3xu_fp::residue::{add_m61, residue_f32, residue_f64, sub_m61};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Fraction of a plan's MMA fault rate applied to whole-task faults
/// (stalls/panics); task faults are far more disruptive per event, so a
/// plan keeps them correspondingly rarer.
const TASK_FAULT_DIVISOR: u64 = 8;

/// Upper bound on an injected stall, in milliseconds (keeps chaos suites
/// fast while still exercising the supervisor's timeout path).
const MAX_STALL_MS: u64 = 5;

/// A corruption applied to one rounded MMA product of a fragment.
///
/// The corruption is modelled *inside* the accumulator state: [`inject`]
/// corrupts both the drained value and the chunk's computed residue,
/// exactly as a flipped storage bit would. Detection then follows from the
/// checksum identity, not from the injector cooperating with the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmaFault {
    /// Flip a single bit of the rounded product's IEEE encoding.
    FlipBit {
        /// Selects the target element (and, for complex, the component).
        lane: u64,
        /// Bit index in `0..32`.
        bit: u8,
    },
    /// XOR a multi-bit pattern into the rounded product's encoding (a
    /// burst error).
    CorruptValue {
        /// Selects the target element (and, for complex, the component).
        lane: u64,
        /// Nonzero XOR mask.
        mask: u32,
    },
}

impl MmaFault {
    /// The element/component selector.
    pub fn lane(&self) -> u64 {
        match *self {
            MmaFault::FlipBit { lane, .. } | MmaFault::CorruptValue { lane, .. } => lane,
        }
    }

    /// The XOR mask this fault applies to an IEEE-754 single encoding.
    pub fn mask32(&self) -> u32 {
        match *self {
            MmaFault::FlipBit { bit, .. } => 1u32 << (bit % 32),
            MmaFault::CorruptValue { mask, .. } => mask | 1,
        }
    }

    /// The XOR mask this fault applies to an IEEE-754 double encoding.
    ///
    /// The 32-bit site mask lands in the low half of the double — a
    /// mantissa-burst corruption that always keeps the value finite and,
    /// thanks to the guaranteed LSB, always changes it.
    pub fn mask64(&self) -> u64 {
        self.mask32() as u64
    }
}

/// A fault applied to a whole worker-pool task rather than one product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFault {
    /// Sleep before doing the work (a wedged/slow worker).
    Stall {
        /// Stall duration in milliseconds (bounded by the plan).
        millis: u64,
    },
    /// Panic at task start (a crashed worker).
    Panic,
}

/// Telemetry from one checked driver invocation: what was detected, what
/// a re-execution repaired, and how many re-executions that took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Checksum mismatches (plus lost pool epochs) observed.
    pub detected: u64,
    /// Detected faults subsequently repaired by re-execution.
    pub corrected: u64,
    /// Tile re-executions plus epoch re-submissions performed.
    pub retries: u64,
}

impl FaultSummary {
    /// Accumulate another summary into this one.
    pub fn absorb(&mut self, other: FaultSummary) {
        self.detected += other.detected;
        self.corrected += other.corrected;
        self.retries += other.retries;
    }
}

/// A seeded, deterministic fault-injection policy.
///
/// Decisions are pure functions of `(seed, domain, salt, site)` via a
/// splitmix64-style mixer, so a schedule replays identically at any
/// thread count or interleaving. The only mutable state is the salt
/// counter that makes distinct driver invocations draw distinct
/// schedules.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Fault iff `hash <= threshold` (and `threshold > 0`); `u64::MAX`
    /// means always.
    threshold: u64,
    task_threshold: u64,
    calls: AtomicU64,
}

/// Domain separators: the same site must draw independent decisions for
/// "corrupt a product" vs "kill the task" vs "which corruption".
const DOMAIN_MMA: u64 = 0x4d4d_4121;
const DOMAIN_MMA_KIND: u64 = 0x4d4d_4b49;
const DOMAIN_TASK: u64 = 0x5441_534b;
const DOMAIN_TASK_KIND: u64 = 0x544b_4b49;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rate_to_threshold(rate: f64) -> u64 {
    let r = rate.clamp(0.0, 1.0);
    if r <= 0.0 {
        0
    } else if r >= 1.0 {
        u64::MAX
    } else {
        (r * u64::MAX as f64) as u64
    }
}

impl FaultPlan {
    /// A plan that faults each MMA product with probability `rate`
    /// (clamped to `[0, 1]`; `1.0` faults every site, `0.0` never), with
    /// whole-task faults at `rate / 8`.
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        let threshold = rate_to_threshold(rate);
        FaultPlan {
            seed,
            threshold,
            task_threshold: threshold / TASK_FAULT_DIVISOR,
            calls: AtomicU64::new(0),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan can ever fire (rate > 0).
    pub fn is_active(&self) -> bool {
        self.threshold > 0
    }

    /// Resolve a plan from `M3XU_FAULT_SEED` / `M3XU_FAULT_RATE`.
    ///
    /// `None` when `M3XU_FAULT_SEED` is absent (the production case: no
    /// plan is even allocated). Unparseable or out-of-range values warn
    /// once on stderr and **disarm** the injector entirely — a chaos run
    /// configured with `M3XU_FAULT_RATE=NaN` (or `-1`, or `2.0`) must not
    /// silently run at some other rate and report misleading fault
    /// counters.
    pub fn from_env() -> Option<FaultPlan> {
        static WARN_SEED: Once = Once::new();
        static WARN_RATE: Once = Once::new();
        let seed = match std::env::var("M3XU_FAULT_SEED") {
            Err(_) => return None,
            Ok(raw) => match raw.trim().parse::<u64>() {
                Ok(s) => s,
                Err(_) => {
                    WARN_SEED.call_once(|| {
                        eprintln!(
                            "m3xu: ignoring unparseable M3XU_FAULT_SEED={raw:?} (want a u64)"
                        );
                    });
                    return None;
                }
            },
        };
        let rate = match std::env::var("M3XU_FAULT_RATE") {
            Err(_) => 1e-3,
            Ok(raw) => match raw.trim().parse::<f64>() {
                Ok(r) if r.is_finite() && (0.0..=1.0).contains(&r) => r,
                _ => {
                    WARN_RATE.call_once(|| {
                        eprintln!(
                            "m3xu: disarming fault injection: out-of-range \
                             M3XU_FAULT_RATE={raw:?} (want a probability in [0, 1])"
                        );
                    });
                    return None;
                }
            },
        };
        Some(FaultPlan::new(seed, rate))
    }

    /// Draw the salt for one driver invocation. Each invocation — and in
    /// particular each serve-layer retry — gets an independent schedule.
    pub fn next_call(&self) -> u64 {
        self.calls.fetch_add(1, Ordering::Relaxed)
    }

    fn hash(&self, domain: u64, salt: u64, site: [u64; 4]) -> u64 {
        let mut h = mix(self.seed ^ domain);
        h = mix(h ^ salt);
        for s in site {
            h = mix(h ^ s);
        }
        h
    }

    /// Should the product at this site be corrupted, and how?
    ///
    /// Site coordinates: driver salt, epoch attempt, tile id, k-chunk
    /// index, tile attempt. The returned fault's `lane` selects the
    /// element within the fragment.
    pub fn mma_fault(
        &self,
        salt: u64,
        epoch_attempt: u64,
        tile: u64,
        chunk: u64,
        attempt: u64,
    ) -> Option<MmaFault> {
        if self.threshold == 0 {
            return None;
        }
        let site = [(epoch_attempt << 32) | attempt, tile, chunk, 0];
        if self.hash(DOMAIN_MMA, salt, site) > self.threshold {
            return None;
        }
        let pick = self.hash(DOMAIN_MMA_KIND, salt, site);
        let lane = pick >> 8;
        Some(if pick & 1 == 0 {
            MmaFault::FlipBit {
                lane,
                bit: ((pick >> 1) % 32) as u8,
            }
        } else {
            MmaFault::CorruptValue {
                lane,
                mask: (pick >> 32) as u32 | 1,
            }
        })
    }

    /// Should the whole task for this tile stall or panic?
    pub fn task_fault(&self, salt: u64, epoch_attempt: u64, tile: u64) -> Option<TaskFault> {
        if self.task_threshold == 0 {
            return None;
        }
        let site = [epoch_attempt, tile, 0, 1];
        if self.hash(DOMAIN_TASK, salt, site) > self.task_threshold {
            return None;
        }
        let pick = self.hash(DOMAIN_TASK_KIND, salt, site);
        Some(if pick & 1 == 0 {
            TaskFault::Stall {
                millis: 1 + (pick >> 1) % MAX_STALL_MS,
            }
        } else {
            TaskFault::Panic
        })
    }
}

/// Apply `fault` to a rounded product `v`, returning the corrupted value,
/// or `None` when the lane bypasses the arithmetic datapath (special
/// values never enter the multiplier array, so they are not fault
/// targets).
///
/// The corrupted value is always finite and numerically distinct from
/// `v` — when the raw mask would produce a special value or a mere sign
/// flip of zero, the fault is retargeted to the mantissa LSB. This keeps
/// the invariant the detection proof rests on: a corrupted product always
/// has a different `F_p` residue than the honest one.
pub(crate) fn corrupt_f32(v: f32, fault: &MmaFault) -> Option<f32> {
    if !v.is_finite() {
        return None;
    }
    let bits = v.to_bits();
    let candidate = f32::from_bits(bits ^ fault.mask32());
    // `candidate == v` only for -0.0 vs 0.0 — bit-different but residue-
    // identical, so it would corrupt output bits undetectably.
    if candidate.is_finite() && candidate != v {
        Some(candidate)
    } else {
        Some(f32::from_bits(bits ^ 1))
    }
}

/// Apply `fault` to a rounded `f64` product. Same contract as
/// [`corrupt_f32`]: `None` for specials (not fault targets), otherwise a
/// finite value numerically distinct from `v`. The 32-bit site mask lands
/// in the mantissa's low half, so the exponent field is never touched and
/// the defensive retarget only matters in principle.
pub(crate) fn corrupt_f64(v: f64, fault: &MmaFault) -> Option<f64> {
    if !v.is_finite() {
        return None;
    }
    let bits = v.to_bits();
    let candidate = f64::from_bits(bits ^ fault.mask64());
    if candidate.is_finite() && candidate != v {
        Some(candidate)
    } else {
        Some(f64::from_bits(bits ^ 1))
    }
}

/// An accumulator element a fault can land in: its component slots (one
/// for a real value, re then im for a complex one) and how each corrupts.
pub trait FaultTarget: Copy {
    /// Component slots per element.
    const SLOTS: usize;
    /// Apply `fault` to component `slot`, returning the residues of the
    /// honest and the corrupted value, or `None` when the component is
    /// not a fault target (specials bypass the multiplier array).
    fn corrupt(&mut self, slot: usize, fault: &MmaFault) -> Option<(Option<u64>, Option<u64>)>;
}

impl FaultTarget for f32 {
    const SLOTS: usize = 1;
    fn corrupt(&mut self, _slot: usize, fault: &MmaFault) -> Option<(Option<u64>, Option<u64>)> {
        let cv = corrupt_f32(*self, fault)?;
        let old = std::mem::replace(self, cv);
        Some((residue_f32(old), residue_f32(cv)))
    }
}

impl FaultTarget for f64 {
    const SLOTS: usize = 1;
    fn corrupt(&mut self, _slot: usize, fault: &MmaFault) -> Option<(Option<u64>, Option<u64>)> {
        let cv = corrupt_f64(*self, fault)?;
        let old = std::mem::replace(self, cv);
        Some((residue_f64(old), residue_f64(cv)))
    }
}

impl FaultTarget for Complex<f32> {
    const SLOTS: usize = 2;
    fn corrupt(&mut self, slot: usize, fault: &MmaFault) -> Option<(Option<u64>, Option<u64>)> {
        let part = if slot == 0 {
            &mut self.re
        } else {
            &mut self.im
        };
        part.corrupt(0, fault)
    }
}

/// Inject `fault` into one just-executed k-chunk: corrupt one rounded
/// product of the row-major tile `acc` and shift the chunk's `computed`
/// checksum by the corruption, exactly as a flipped storage bit in the
/// accumulator would shift both the drained value and its residue. The
/// fault's lane selects component slot `lane % (elements · SLOTS)`; the
/// checksum identity then exposes the corruption against the expected
/// side.
pub fn inject<E: FaultTarget>(fault: &MmaFault, acc: &mut [E], computed: &mut Checksum) {
    let slots = (acc.len() * E::SLOTS) as u64;
    if slots == 0 {
        return;
    }
    let slot = (fault.lane() % slots) as usize;
    let component = slot % E::SLOTS;
    let Some(shift) = acc[slot / E::SLOTS].corrupt(component, fault) else {
        return;
    };
    let part = if component == 0 {
        &mut computed.re
    } else {
        &mut computed.im
    };
    match shift {
        (Some(old), Some(new)) if computed.ok => *part = add_m61(sub_m61(*part, old), new),
        _ => computed.ok = false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let p1 = FaultPlan::new(7, 0.5);
        let p2 = FaultPlan::new(7, 0.5);
        let p3 = FaultPlan::new(8, 0.5);
        let mut diverged = false;
        for tile in 0..64 {
            assert_eq!(
                p1.mma_fault(0, 0, tile, 0, 0),
                p2.mma_fault(0, 0, tile, 0, 0)
            );
            if p1.mma_fault(0, 0, tile, 0, 0) != p3.mma_fault(0, 0, tile, 0, 0) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must draw different schedules");
    }

    #[test]
    fn rate_extremes() {
        let never = FaultPlan::new(3, 0.0);
        let always = FaultPlan::new(3, 1.0);
        assert!(!never.is_active());
        assert!(always.is_active());
        for tile in 0..32 {
            assert!(never.mma_fault(0, 0, tile, 0, 0).is_none());
            assert!(never.task_fault(0, 0, tile).is_none());
            assert!(always.mma_fault(0, 0, tile, 0, 0).is_some());
        }
    }

    #[test]
    fn attempts_draw_independent_decisions() {
        // At rate 0.5 the same tile must not fault on every attempt.
        let p = FaultPlan::new(11, 0.5);
        let clean_attempt_exists = (0..32).any(|a| p.mma_fault(0, 0, 5, 0, a).is_none());
        assert!(clean_attempt_exists);
    }

    #[test]
    fn salts_decorrelate_invocations() {
        let p = FaultPlan::new(11, 0.5);
        let s1 = p.next_call();
        let s2 = p.next_call();
        assert_ne!(s1, s2);
        let schedule = |salt| {
            (0..64)
                .map(|t| p.mma_fault(salt, 0, t, 0, 0).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule(s1), schedule(s2));
    }

    #[test]
    fn empirical_rate_is_in_the_right_ballpark() {
        let p = FaultPlan::new(5, 0.1);
        let hits = (0..10_000)
            .filter(|&t| p.mma_fault(0, 0, t, 0, 0).is_some())
            .count();
        assert!((600..1600).contains(&hits), "got {hits} / 10000 at 0.1");
    }

    #[test]
    fn corrupt_always_changes_the_value_and_stays_finite() {
        let faults = [
            MmaFault::FlipBit { lane: 0, bit: 31 },
            MmaFault::FlipBit { lane: 0, bit: 30 },
            MmaFault::FlipBit { lane: 0, bit: 0 },
            MmaFault::CorruptValue {
                lane: 0,
                mask: 0x7f80_0000, // would make an Inf/NaN from a normal
            },
            MmaFault::CorruptValue {
                lane: 0,
                mask: 0x8000_0000, // sign-only: must retarget on zero
            },
        ];
        for v in [0.0f32, -0.0, 1.5, -123.25, f32::MAX, f32::from_bits(1)] {
            for f in &faults {
                let c = corrupt_f32(v, f).unwrap();
                assert!(c.is_finite(), "{v} {f:?}");
                assert_ne!(c, v, "{v} {f:?}");
            }
        }
        assert!(corrupt_f32(f32::NAN, &faults[0]).is_none());
        assert!(corrupt_f32(f32::INFINITY, &faults[0]).is_none());
    }

    #[test]
    fn from_env_absent_is_none() {
        // The test runner may set the variable globally; only assert the
        // parse contract when it is absent.
        if std::env::var("M3XU_FAULT_SEED").is_err() {
            assert!(FaultPlan::from_env().is_none());
        } else {
            assert!(FaultPlan::from_env().is_some());
        }
    }
}
