//! Cooperative cancellation for long-running partitioning runs.
//!
//! A [`CancelToken`] is a shared, latched stop flag: any holder of a clone
//! may trip it, and the engine polls it at the same multilevel checkpoints
//! as the wall-clock budget (between coarsening levels, before initial
//! partitioning, between refinement levels). Cancellation degrades
//! gracefully exactly like an exhausted budget — the run keeps the best
//! partition found so far and records the truncation in
//! [`crate::EngineStats::cancel_truncations`] rather than failing — so a
//! server whose client disconnected stops burning CPU within one
//! checkpoint interval and still returns a valid (degraded) partial.
//!
//! The wall-clock deadline itself is built on the same latch: the
//! engine-internal `SharedDeadline` is a `CancelToken` that trips itself
//! the first time any thread observes the clock past the deadline, so all
//! forked workers agree the budget is gone without further clock reads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared cancellation flag for one partitioning run.
///
/// Clones share the flag (`Arc` inside); [`CancelToken::cancel`] latches
/// it permanently. Checking is a relaxed atomic load — cheap enough for
/// the engine to poll between every coarsening level and FM pass batch.
///
/// ```
/// use fgh_partition::CancelToken;
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    tripped: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Latches: there is no way to un-cancel, so
    /// every thread of the run converges on stopping.
    pub fn cancel(&self) {
        self.tripped.store(true, Ordering::Relaxed); // lint: atomic — relaxed: latched flag; checkpoints poll it, no data guarded
    }

    /// `true` once any clone of this token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.tripped.load(Ordering::Relaxed) // lint: atomic — relaxed: poll; a stale read only delays the stop by one checkpoint
    }
}

/// A wall-clock deadline shared by every thread of a run (forked workers
/// clone the `Arc` holding it). Built on [`CancelToken`]: the first
/// checkpoint poll — on any thread — that observes the clock past `at`
/// trips the token, so later polls are a relaxed atomic load instead of a
/// clock read and all domains agree the budget is gone.
#[derive(Debug)]
pub(crate) struct SharedDeadline {
    at: Instant,
    token: CancelToken,
}

impl SharedDeadline {
    pub(crate) fn new(at: Instant) -> Self {
        SharedDeadline {
            at,
            token: CancelToken::new(),
        }
    }

    pub(crate) fn exhausted(&self) -> bool {
        if self.token.is_cancelled() {
            return true;
        }
        let hit = Instant::now() >= self.at;
        if hit {
            self.token.cancel();
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_latches_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        c.cancel(); // idempotent
        assert!(c.is_cancelled());
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn deadline_trips_once_past_due() {
        let d = SharedDeadline::new(Instant::now() - Duration::from_millis(1));
        assert!(d.exhausted());
        assert!(d.exhausted(), "latched");
        let future = SharedDeadline::new(Instant::now() + Duration::from_secs(3600));
        assert!(!future.exhausted());
    }
}
