//! Typed service-layer errors, layered on the kernel crate's
//! [`M3xuError`].
//!
//! The service boundary adds failure modes the kernels cannot have: a
//! bounded queue that is full, a deadline that expired while the request
//! was still queued, and a service that is shutting down. Execution-time
//! rejections (shape mismatches, fragment overflows, …) pass through
//! verbatim inside [`ServeError::Exec`], so a client can route on the
//! same typed kernel errors it would see calling the context directly.

use m3xu_mxu::error::M3xuError;
use std::fmt;

/// The error type of every fallible `m3xu-serve` entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The bounded submission queue was full and the request was not
    /// enqueued. Backpressure, not failure: retry, shed, or switch to the
    /// blocking [`M3xuServe::submit`](crate::M3xuServe::submit).
    QueueFull {
        /// The queue's configured capacity at rejection time.
        capacity: usize,
    },
    /// The request's deadline passed before execution began; the request
    /// was dropped without running.
    Deadline {
        /// How far past the deadline the scheduler was when it checked,
        /// in nanoseconds.
        late_ns: u64,
    },
    /// The service is shutting down (or already shut down); the request
    /// was not (or will not be) executed.
    ShuttingDown,
    /// The tenant's circuit breaker is open after repeated unrecoverable
    /// fault detections; the request was shed at admission without
    /// queueing. Back off for at least the indicated cooldown.
    BreakerOpen {
        /// Remaining cooldown when the request was shed, in nanoseconds.
        retry_after_ns: u64,
    },
    /// The tenant's token bucket was empty ([`RateLimit`]); the request
    /// was shed at admission without queueing. Counts as a rejection in
    /// the tenant's conservation law.
    ///
    /// [`RateLimit`]: crate::RateLimit
    RateLimited {
        /// Time until the bucket refills one token, in nanoseconds.
        retry_after_ns: u64,
    },
    /// The service could not spawn a shard scheduler thread at
    /// construction time ([`M3xuServe::try_new`]) — typically resource
    /// exhaustion. The service was torn down; nothing was started.
    ///
    /// [`M3xuServe::try_new`]: crate::M3xuServe::try_new
    SpawnFailed {
        /// The OS error, stringified.
        reason: String,
    },
    /// The request panicked the worker executing it (a *poison* request)
    /// on every quarantined re-execution, so it was failed alone. The
    /// scheduler catches the panic, isolates the request (it re-runs
    /// serially, never pooled with batch-mates), and resolves its ticket
    /// with this error after the attempt budget — without advancing the
    /// tenant's circuit breaker, which tracks hardware fault health, not
    /// request toxicity.
    Quarantined {
        /// Executions that ended in a panic before the request was
        /// failed.
        attempts: u32,
    },
    /// The kernel rejected the request at execution time; the inner
    /// [`M3xuError`] is exactly what a direct context call would return.
    Exec(M3xuError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            ServeError::Deadline { late_ns } => {
                write!(f, "deadline exceeded {late_ns} ns before execution began")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::BreakerOpen { retry_after_ns } => {
                write!(
                    f,
                    "tenant circuit breaker open (retry after {retry_after_ns} ns)"
                )
            }
            ServeError::RateLimited { retry_after_ns } => {
                write!(
                    f,
                    "tenant rate limit exceeded (retry after {retry_after_ns} ns)"
                )
            }
            ServeError::SpawnFailed { reason } => {
                write!(f, "failed to spawn a shard scheduler thread: {reason}")
            }
            ServeError::Quarantined { attempts } => {
                write!(
                    f,
                    "poison request quarantined after {attempts} panicking execution attempt(s)"
                )
            }
            ServeError::Exec(e) => write!(f, "execution rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<M3xuError> for ServeError {
    fn from(e: M3xuError) -> Self {
        ServeError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        assert!(ServeError::QueueFull { capacity: 4 }
            .to_string()
            .contains('4'));
        assert!(ServeError::Deadline { late_ns: 17 }
            .to_string()
            .contains("17"));
        let inner = M3xuError::ShapeMismatch {
            context: "gemm(B)",
            expected: (2, 3),
            got: (4, 3),
        };
        let e = ServeError::from(inner.clone());
        assert!(e.to_string().contains("gemm(B)"));
        assert_eq!(e, ServeError::Exec(inner));
        assert!(ServeError::BreakerOpen { retry_after_ns: 99 }
            .to_string()
            .contains("99"));
        assert!(ServeError::RateLimited { retry_after_ns: 55 }
            .to_string()
            .contains("55"));
        assert!(ServeError::SpawnFailed {
            reason: "out of threads".into()
        }
        .to_string()
        .contains("out of threads"));
        assert!(ServeError::Quarantined { attempts: 3 }
            .to_string()
            .contains('3'));
    }

    #[test]
    fn fault_detected_carries_op_and_mode_through_the_conversion() {
        use m3xu_mxu::modes::MxuMode;
        let inner = M3xuError::FaultDetected {
            op: "syrk",
            mode: MxuMode::M3xuFp32,
            tiles: 2,
            detected: 5,
            corrected: 3,
            retries: 7,
        };
        let e = ServeError::from(inner.clone());
        match &e {
            ServeError::Exec(M3xuError::FaultDetected { op, mode, .. }) => {
                assert_eq!(*op, "syrk");
                assert_eq!(*mode, MxuMode::M3xuFp32);
            }
            other => panic!("expected Exec(FaultDetected), got {other:?}"),
        }
        // The display names the failing op so a serve log line is
        // attributable without structured access.
        assert!(e.to_string().contains("syrk"));
    }

    #[test]
    fn exec_source_is_the_kernel_error() {
        use std::error::Error;
        let e = ServeError::Exec(M3xuError::InvalidArgument { context: "x" });
        assert!(e.source().is_some());
        assert!(ServeError::ShuttingDown.source().is_none());
    }
}
