//! Bounded retry-with-backoff for artifact IO.
//!
//! Storage faults (torn writes, transient filesystem errors, bit rot)
//! surface from this crate as typed [`CheckpointError`]s. The retry layer
//! classifies them: *transient* failures (`Io`, `Truncated`,
//! `ChecksumMismatch`) are retried a bounded number of times with
//! exponential backoff, everything else (wrong kind, bad magic, shape
//! mismatch — redoing the read cannot help) fails immediately.
//!
//! Time is injected through the [`Clock`] trait so the fault-injection
//! suite can run thousands of retry cycles without sleeping: production
//! code passes [`SystemClock`], tests pass a recording stub. The backoff
//! schedule itself is a pure function of the policy and the attempt
//! index, so retry behaviour is bit-identical across runs and thread
//! counts — the determinism contract of DESIGN.md §10.

use crate::{CheckpointError, Result};

/// Injectable time source for retry backoff.
///
/// The only operation retries need is "wait this long"; wall-clock reads
/// stay out of the interface so nothing time-dependent can leak into
/// deterministic state.
pub trait Clock {
    /// Sleeps for `ms` milliseconds (or records that it would have).
    fn sleep_ms(&self, ms: u64);
}

/// Real wall-clock sleeping, for production use.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep_ms(&self, ms: u64) {
        // lint: allow(determinism) — backoff sleep only; duration is a
        // pure function of the policy and never read back into state.
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Test clock that records requested sleeps instead of performing them.
#[derive(Debug, Default)]
pub struct RecordingClock {
    sleeps: std::sync::Mutex<Vec<u64>>,
}

impl RecordingClock {
    /// A fresh recording clock with no sleeps recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sleep durations requested so far, in order.
    // lint: allow(dead_api) — the probe of a test fake: tests read it to check the backoff schedule
    pub fn sleeps(&self) -> Vec<u64> {
        // A poisoned lock still holds valid data (u64 pushes can't leave
        // it half-written); recover the guard instead of panicking.
        self.sleeps
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }
}

impl Clock for RecordingClock {
    fn sleep_ms(&self, ms: u64) {
        self.sleeps
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(ms);
    }
}

/// Bounded-retry policy: how many attempts, and the backoff base.
///
/// Attempt `k` (zero-based) that fails transiently is followed by a
/// `base_backoff_ms << k` millisecond sleep before the next attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`0` is treated as `1`).
    pub attempts: u32,
    /// Backoff after the first failed attempt, in milliseconds.
    pub base_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base_backoff_ms: 10,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (zero-based failure
    /// index): exponential doubling from the base.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.base_backoff_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
    }
}

/// True when retrying the operation could plausibly succeed: transient
/// IO failures and corruption that a concurrent writer may be repairing.
pub fn is_transient(e: &CheckpointError) -> bool {
    matches!(
        e,
        CheckpointError::Io(_)
            | CheckpointError::Truncated { .. }
            | CheckpointError::ChecksumMismatch { .. }
    )
}

/// Runs `op` under the retry policy: transient failures are retried with
/// exponential backoff until the attempt budget is exhausted, permanent
/// failures return immediately. The final error is returned unchanged.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    clock: &dyn Clock,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let attempts = policy.attempts.max(1);
    let mut failure = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && failure + 1 < attempts => {
                obs::global().counter("store_retries_total").inc();
                clock.sleep_ms(policy.backoff_ms(failure));
                failure += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io_err() -> CheckpointError {
        CheckpointError::Io(std::io::Error::other("flaky"))
    }

    #[test]
    fn succeeds_first_try_without_sleeping() {
        let clock = RecordingClock::new();
        let out: Result<i32> = with_retry(&RetryPolicy::default(), &clock, || Ok(7));
        assert_eq!(out.unwrap(), 7);
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn transient_failures_back_off_exponentially_then_give_up() {
        let clock = RecordingClock::new();
        let policy = RetryPolicy {
            attempts: 4,
            base_backoff_ms: 5,
        };
        let mut calls = 0;
        let out: Result<()> = with_retry(&policy, &clock, || {
            calls += 1;
            Err(io_err())
        });
        assert!(out.is_err());
        assert_eq!(calls, 4);
        assert_eq!(clock.sleeps(), vec![5, 10, 20]);
    }

    #[test]
    fn recovers_after_transient_failures() {
        let clock = RecordingClock::new();
        let mut calls = 0;
        let out = with_retry(&RetryPolicy::default(), &clock, || {
            calls += 1;
            if calls < 3 {
                Err(io_err())
            } else {
                Ok("fine")
            }
        });
        assert_eq!(out.unwrap(), "fine");
        assert_eq!(clock.sleeps().len(), 2);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let clock = RecordingClock::new();
        let mut calls = 0;
        let out: Result<()> = with_retry(&RetryPolicy::default(), &clock, || {
            calls += 1;
            Err(CheckpointError::WrongKind {
                expected: "a".into(),
                actual: "b".into(),
            })
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            attempts: 80,
            base_backoff_ms: u64::MAX / 2,
        };
        assert_eq!(p.backoff_ms(70), u64::MAX);
    }
}
