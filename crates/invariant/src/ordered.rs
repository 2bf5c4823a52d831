//! `OrderedMutex` — a `std::sync::Mutex` that knows its place in the
//! workspace's declared lock hierarchy.
//!
//! The static side of deadlock freedom is `cargo xtask lint` rule
//! FGH006, which checks the *textual* nesting of `.lock()` calls
//! against the `[locks] order` list in `xtask/lint.toml`. This module
//! is the dynamic side: under the `paranoid` cargo feature every
//! [`OrderedMutex::lock`] pushes onto a thread-local acquisition stack
//! and panics the moment a thread tries to acquire a lock whose rank is
//! not strictly greater than everything it already holds — the
//! interleaving that *could* deadlock is reported on the first run that
//! reaches it, whether or not the other thread shows up. Without the
//! feature the wrapper compiles down to a plain `Mutex` plus two copies
//! of a `&'static str` and a `u16`; there is no thread-local traffic.
//!
//! The rank constants in [`lock_order`] mirror `[locks] order` in
//! `xtask/lint.toml`; keep the two lists in sync (each names the other).
//!
//! A condvar wait through [`OrderedMutexGuard::wait_timeout`] keeps the
//! lock on the acquisition stack even though the mutex is released
//! while blocked. That is deliberately conservative and matches the
//! textual model: a scope written to hold rank N across a wait must not
//! acquire ≤ N afterwards either.

use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Ranks of the workspace's long-lived locks, in required acquisition
/// order. Mirror of `[locks] order` in `xtask/lint.toml` — keep in sync.
pub mod lock_order {
    /// `fgh-partition`'s `ArenaPool` free-list.
    pub const ARENA_POOL: u16 = 0;
    /// `fgh-serve`'s bounded job queue.
    pub const JOB_QUEUE: u16 = 1;
    /// `fgh-serve`'s LRU plan cache.
    pub const PLAN_CACHE: u16 = 2;
    /// `fgh-serve`'s in-flight cancellation-token table.
    pub const IN_FLIGHT_TABLE: u16 = 3;
    /// `fgh-serve`'s worker join-handle list.
    pub const WORKER_HANDLES: u16 = 4;
    /// `fgh-trace`'s collecting-sink span/counter buffers.
    pub const TRACE_SINK: u16 = 5;
}

#[cfg(feature = "paranoid")]
mod held {
    //! The per-thread acquisition stack. Entries carry a unique id so a
    //! guard's release finds *its* entry even when guards are dropped
    //! out of acquisition order (which is legal — only acquisition is
    //! ranked).

    use std::cell::{Cell, RefCell};

    thread_local! {
        static STACK: RefCell<Vec<(u16, &'static str, u64)>> =
            const { RefCell::new(Vec::new()) };
        static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    }

    /// Checks `rank` against every held lock and records the
    /// acquisition. Panics on a hierarchy violation — before the mutex
    /// is touched, so the defect is a loud report, not a silent
    /// deadlock waiting for its partner interleaving.
    pub(super) fn acquire(rank: u16, name: &'static str) -> u64 {
        let id = NEXT_ID.with(|n| {
            let v = n.get();
            n.set(v.wrapping_add(1));
            v
        });
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(&(held_rank, held_name, _)) = s.iter().find(|&&(r, _, _)| rank <= r) {
                panic!(
                    "lock-order violation: thread acquiring `{name}` (rank {rank}) while \
                     holding `{held_name}` (rank {held_rank}); the declared hierarchy in \
                     xtask/lint.toml [locks] requires strictly increasing ranks"
                );
            }
            s.push((rank, name, id));
        });
        id
    }

    /// Removes the entry pushed by `acquire`. Runs from `Drop` during
    /// possible unwinding, so it must never panic: thread-teardown and
    /// reentrancy failures are ignored rather than reported.
    pub(super) fn release(id: u64) {
        let _ = STACK.try_with(|s| {
            if let Ok(mut s) = s.try_borrow_mut() {
                if let Some(pos) = s.iter().rposition(|&(_, _, i)| i == id) {
                    s.remove(pos);
                }
            }
        });
    }
}

/// A mutex with a name and a rank in the declared lock hierarchy. See
/// the module docs for the checking model.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    name: &'static str,
    rank: u16,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value`. `rank` should be one of the [`lock_order`]
    /// constants; `name` appears in violation panics and lint audits.
    pub const fn new(name: &'static str, rank: u16, value: T) -> Self {
        OrderedMutex {
            name,
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, mirroring [`Mutex::lock`]'s poison contract.
    /// Under `paranoid`, panics if this thread already holds a lock of
    /// equal or higher rank.
    pub fn lock(&self) -> LockResult<OrderedMutexGuard<'_, T>> {
        #[cfg(feature = "paranoid")]
        let id = held::acquire(self.rank, self.name);
        #[cfg(not(feature = "paranoid"))]
        let id = 0u64;
        match self.inner.lock() {
            Ok(g) => Ok(OrderedMutexGuard { guard: Some(g), id }),
            Err(poisoned) => Err(PoisonError::new(OrderedMutexGuard {
                guard: Some(poisoned.into_inner()),
                id,
            })),
        }
    }

    /// The name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The hierarchy rank given at construction.
    pub fn rank(&self) -> u16 {
        self.rank
    }

    /// Consumes the mutex and returns the inner value, recovering from
    /// poisoning (the value's own invariants are the caller's problem).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard returned by [`OrderedMutex::lock`]. The inner option is
/// `Some` for the guard's whole observable life; it is taken only
/// transiently inside [`OrderedMutexGuard::wait_timeout`].
pub struct OrderedMutexGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    /// Acquisition-stack entry id; only read under `paranoid`.
    #[cfg_attr(not(feature = "paranoid"), allow(dead_code))]
    id: u64,
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// Blocks on `cv` until notified or `dur` elapses, releasing and
    /// reacquiring the underlying mutex like
    /// [`Condvar::wait_timeout`]. Returns the guard and whether the
    /// wait timed out; poisoning is recovered into the guard. The lock
    /// stays on the paranoid acquisition stack for the duration (see
    /// the module docs).
    pub fn wait_timeout(mut self, cv: &Condvar, dur: Duration) -> (Self, bool) {
        let Some(inner) = self.guard.take() else {
            return (self, false);
        };
        let (inner, timed_out) = match cv.wait_timeout(inner, dur) {
            Ok((g, t)) => (g, t.timed_out()),
            Err(poisoned) => {
                let (g, t) = poisoned.into_inner();
                (g, t.timed_out())
            }
        };
        self.guard = Some(inner);
        (self, timed_out)
    }
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.guard {
            Some(g) => g,
            None => unreachable!("OrderedMutexGuard used after wait_timeout took it"),
        }
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(g) => g,
            None => unreachable!("OrderedMutexGuard used after wait_timeout took it"),
        }
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "paranoid")]
        held::release(self.id);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.guard {
            Some(g) => g.fmt(f),
            None => f.write_str("OrderedMutexGuard(taken)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trips_values() {
        let m = OrderedMutex::new("Test", 0, 7u32);
        {
            let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);
            *g += 1;
        }
        assert_eq!(*m.lock().unwrap_or_else(PoisonError::into_inner), 8);
        assert_eq!(m.name(), "Test");
        assert_eq!(m.rank(), 0);
        assert_eq!(m.into_inner(), 8);
    }

    #[test]
    fn correct_order_is_silent_in_both_modes() {
        let a = OrderedMutex::new("A", 0, ());
        let b = OrderedMutex::new("B", 1, ());
        let ga = a.lock().unwrap_or_else(PoisonError::into_inner);
        let gb = b.lock().unwrap_or_else(PoisonError::into_inner);
        drop((ga, gb));
        // Re-acquisition after release is fine, including lower ranks.
        let gb = b.lock().unwrap_or_else(PoisonError::into_inner);
        drop(gb);
        let ga = a.lock().unwrap_or_else(PoisonError::into_inner);
        drop(ga);
    }

    #[cfg(feature = "paranoid")]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn paranoid_panics_on_misordered_acquisition() {
        let a = OrderedMutex::new("A", lock_order::ARENA_POOL, ());
        let b = OrderedMutex::new("B", lock_order::JOB_QUEUE, ());
        let _gb = b.lock().unwrap_or_else(PoisonError::into_inner);
        let _ga = a.lock().unwrap_or_else(PoisonError::into_inner);
    }

    #[cfg(feature = "paranoid")]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn paranoid_panics_on_same_rank_reentry() {
        let a = OrderedMutex::new("A1", 3, ());
        let b = OrderedMutex::new("A2", 3, ());
        let _ga = a.lock().unwrap_or_else(PoisonError::into_inner);
        let _gb = b.lock().unwrap_or_else(PoisonError::into_inner);
    }

    #[cfg(not(feature = "paranoid"))]
    #[test]
    fn plain_mode_does_not_track_order() {
        // Without the feature the wrapper is a plain mutex: a reversed
        // acquisition succeeds (the locks are different objects, so no
        // real deadlock on a single thread).
        let a = OrderedMutex::new("A", 0, ());
        let b = OrderedMutex::new("B", 1, ());
        let gb = b.lock().unwrap_or_else(PoisonError::into_inner);
        let ga = a.lock().unwrap_or_else(PoisonError::into_inner);
        drop((ga, gb));
    }

    #[cfg(feature = "paranoid")]
    #[test]
    fn paranoid_stack_is_per_thread() {
        // Two threads may hold the same ranks concurrently; the
        // hierarchy constrains each thread's own nesting only.
        let a = Arc::new(OrderedMutex::new("A", 0, 0u32));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        *a.lock().unwrap_or_else(PoisonError::into_inner) += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().ok();
        }
        assert_eq!(*a.lock().unwrap_or_else(PoisonError::into_inner), 400);
    }

    #[test]
    fn wait_timeout_returns_guard_and_flag() {
        let m = Arc::new(OrderedMutex::new("Q", 1, 0u32));
        let cv = Arc::new(Condvar::new());
        let g = m.lock().unwrap_or_else(PoisonError::into_inner);
        let (g, timed_out) = g.wait_timeout(&cv, Duration::from_millis(5));
        assert!(timed_out);
        assert_eq!(*g, 0);
        drop(g);
        // A notified wait comes back without the timeout flag.
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waker = std::thread::spawn(move || {
            loop {
                {
                    let g = m2.lock().unwrap_or_else(PoisonError::into_inner);
                    if *g == 1 {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            cv2.notify_all();
        });
        let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);
        *g = 1;
        let (g, _) = g.wait_timeout(&cv, Duration::from_secs(5));
        drop(g);
        waker.join().ok();
    }

    #[test]
    fn poisoned_lock_recovers_via_into_inner() {
        let m = Arc::new(OrderedMutex::new("P", 2, 41u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison it");
        })
        .join();
        let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);
        *g += 1;
        assert_eq!(*g, 42);
    }
}
