//! Offline stand-in for the subset of `rayon` used by this workspace:
//! [`join`], [`ThreadPool`], [`ThreadPoolBuilder`], [`current_num_threads`],
//! and [`current_thread_index`].
//!
//! The real rayon keeps a lazily-started global work-stealing pool; this
//! stand-in keeps rayon's *shape* (`ThreadPoolBuilder::new().num_threads(n)
//! .build()?.install(|| ...)` with nested `join` calls inside) but
//! implements it on `std::thread::scope`. A pool is a slot counter: a
//! pool of `n` threads starts with `n` slots, and every thread that
//! enters it through `install` holds one until `install` returns, so a
//! lone installer leaves `n - 1` spare. `join(a, b)` spawns `b` onto a
//! fresh scoped thread when a slot is spare, running it inline
//! otherwise. Once `a` returns, a joiner still waiting for `b` lends its
//! slot to the pool and takes it back when `b` returns, so `b`'s subtree
//! can fork onto the core the joiner leaves idle. At most `n` threads run
//! at once, with two exceptions, and in both the count is below zero:
//! more threads install than the pool is wide, or a joiner takes back a
//! slot another branch borrowed and runs alongside the borrower until
//! that branch returns it. Only positive counts are handed out, so no
//! further thread starts meanwhile. Because every spawn is scoped inside
//! the `join` call itself, closures may borrow from the caller's stack
//! exactly as with real rayon, and there is no blocking hand-off that
//! could deadlock — the fallback is always to run inline on the current
//! thread.
//!
//! Differences from real rayon, none observable to this workspace:
//! * `install` runs the closure on the calling thread, which takes one of
//!   the pool's slots for the call, as a pool thread would be busy with
//!   it (real rayon queues the closure onto one of the pool's own
//!   threads). Threads calling `install` on one pool at once share its
//!   width: `k` of them on a pool of `n` leave `n - k` slots for their
//!   joins. A thread already working for the pool takes no second slot.
//! * Threads are created per `join` rather than parked in the pool. The
//!   workspace forks at bisection/seed granularity (milliseconds of work),
//!   so spawn cost is noise.
//! * There is no global fallback pool: `join` outside any `install` runs
//!   both closures inline, serially, in order.

// Robustness contract: library (non-test) code must not panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Shared pool state: the configured width and the spare-thread slots.
#[derive(Debug)]
struct PoolInner {
    threads: usize,
    /// Slots free for a new thread. Signed: more threads may install than
    /// the pool is wide, and a joiner taking back a slot it lent may find
    /// another branch still holding it.
    spare: AtomicIsize,
}

impl PoolInner {
    /// Takes a slot whether or not one is spare, for a thread entering
    /// the pool through `install`: the count may go below zero, and then
    /// no `join` forks until enough slots come back.
    fn take(self: &Arc<Self>) -> Token {
        self.spare.fetch_sub(1, Ordering::Relaxed); // lint: atomic — relaxed: slot count only; no data is published through it
        Token(Arc::clone(self))
    }

    // lint: atomic — relaxed: the slot count is its own synchronization
    // object; the CAS only needs atomicity, and the spawned thread is
    // synchronized by `thread::scope`'s join edge, not by this counter
    fn try_acquire(self: &Arc<Self>) -> Option<Token> {
        let mut cur = self.spare.load(Ordering::Relaxed);
        while cur > 0 {
            match self.spare.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Token(Arc::clone(self))),
                Err(seen) => cur = seen,
            }
        }
        None
    }
}

/// RAII pool slot: released back to the pool on drop, so a panicking
/// branch or installer cannot leak pool capacity.
struct Token(Arc<PoolInner>);

impl Drop for Token {
    fn drop(&mut self) {
        self.0.spare.fetch_add(1, Ordering::Relaxed); // lint: atomic — relaxed: slot release; scope join provides the ordering
    }
}

thread_local! {
    /// The pool the current thread is working for, set by
    /// [`ThreadPool::install`] and inherited by spawned `join` branches.
    static CURRENT: RefCell<Option<Arc<PoolInner>>> = const { RefCell::new(None) };
}

/// Restores the previous thread-local pool when an `install` scope ends.
struct EnterGuard(Option<Arc<PoolInner>>);

fn enter(pool: Option<Arc<PoolInner>>) -> EnterGuard {
    EnterGuard(CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), pool)))
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Error from [`ThreadPoolBuilder::build`]. The stand-in never actually
/// fails to build; the type exists so callers keep rayon's `Result`
/// handling.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`], mirroring rayon's.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the pool width; `0` (the default) means one thread per
    /// available CPU, like rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool {
            inner: Arc::new(PoolInner {
                threads,
                spare: AtomicIsize::new(isize::try_from(threads).unwrap_or(isize::MAX)),
            }),
        })
    }
}

/// A fork-join pool of bounded width.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    inner: Arc<PoolInner>,
}

impl ThreadPool {
    /// Runs `op` with this pool as the current thread's pool: `join` calls
    /// made (transitively) inside may spawn onto spare pool threads. A
    /// thread not already working for this pool holds one of its slots
    /// until `op` returns or unwinds.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let member = CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .is_some_and(|p| Arc::ptr_eq(p, &self.inner))
        });
        let _slot = (!member).then(|| self.inner.take());
        let _guard = enter(Some(Arc::clone(&self.inner)));
        op()
    }

    /// The configured pool width.
    pub fn current_num_threads(&self) -> usize {
        self.inner.threads
    }

    /// [`join`] under this pool, without a surrounding `install`.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        self.install(|| join(a, b))
    }
}

/// Width of the current pool: the `install`ed pool's size, else 1 (no
/// implicit global pool in the stand-in).
pub fn current_num_threads() -> usize {
    CURRENT.with(|c| c.borrow().as_ref().map(|p| p.threads).unwrap_or(1))
}

/// `Some(0)` when the current thread works for a pool (rayon reports the
/// worker index; the stand-in does not number threads), `None` outside.
pub fn current_thread_index() -> Option<usize> {
    CURRENT.with(|c| c.borrow().as_ref().map(|_| 0))
}

/// Runs both closures, potentially in parallel, and returns both results.
///
/// `a` always runs on the calling thread. `b` runs on a freshly spawned
/// scoped thread when the current pool has a spare slot, and inline (after
/// `a`) otherwise. While the caller waits for a spawned `b`, it lends its
/// slot to the pool. A panic in either closure is propagated to the
/// caller after both branches have finished, like real rayon.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let pool = CURRENT.with(|c| c.borrow().clone());
    let Some(token) = pool.as_ref().and_then(PoolInner::try_acquire) else {
        return (a(), b());
    };
    let lender = Arc::clone(&token.0);
    let pool_for_b = pool.clone();
    let (ra, rb) = std::thread::scope(move |scope| {
        let hb = scope.spawn(move || {
            let _token = token; // released when b finishes
            let _guard = enter(pool_for_b);
            b()
        });
        // Catch a's panic so hb is still joined (scope would do so anyway,
        // but this lets us prefer a's panic payload deterministically).
        let ra = catch_unwind(AssertUnwindSafe(a));
        // Idle until b returns: lend this thread's slot so b's subtree
        // can fork onto it. `join` reports b's panic as an `Err`, so the
        // slot is taken back on every path.
        lender.spare.fetch_add(1, Ordering::Relaxed); // lint: atomic — relaxed: slot count only; scope join provides the ordering
        let rb = hb.join();
        lender.spare.fetch_sub(1, Ordering::Relaxed); // lint: atomic — relaxed: slot count only; scope join provides the ordering
        (ra, rb)
    });
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(pa), _) => resume_unwind(pa),
        (_, Err(pb)) => resume_unwind(pb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};
    use std::time::{Duration, Instant};

    #[test]
    fn join_outside_pool_runs_inline_in_order() {
        let log = std::sync::Mutex::new(Vec::new());
        let ((), ()) = join(
            || log.lock().unwrap().push(1),
            || log.lock().unwrap().push(2),
        );
        assert_eq!(*log.lock().unwrap(), vec![1, 2]);
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn pool_parallelizes_and_bounds_width() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.current_num_threads(), 4);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        fn fan(depth: usize, live: &AtomicUsize, peak: &AtomicUsize) {
            let n = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(n, Ordering::SeqCst);
            if depth > 0 {
                join(|| fan(depth - 1, live, peak), || fan(depth - 1, live, peak));
            } else {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            live.fetch_sub(1, Ordering::SeqCst);
        }
        pool.install(|| {
            assert_eq!(current_num_threads(), 4);
            assert_eq!(current_thread_index(), Some(0));
            fan(5, &live, &peak)
        });
        // The counter counts nested frames, not threads, so the bound is
        // loose; the real invariant (≤ 4 running threads) is enforced by
        // the slot counter this asserts on indirectly.
        assert!(peak.load(Ordering::SeqCst) >= 1);
        assert_eq!(pool.inner.spare.load(Ordering::SeqCst), 4, "tokens leaked");
    }

    #[test]
    fn results_come_back_in_position() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (a, b) = pool.join(|| "left", || "right");
        assert_eq!((a, b), ("left", "right"));
    }

    #[test]
    fn nested_joins_sum_correctly() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        fn sum(lo: u64, hi: u64, hits: &AtomicU64) -> u64 {
            if hi - lo <= 1_000 {
                hits.fetch_add(1, Ordering::Relaxed);
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (l, r) = join(|| sum(lo, mid, hits), || sum(mid, hi, hits));
            l + r
        }
        let hits = AtomicU64::new(0);
        let total = pool.install(|| sum(0, 100_000, &hits));
        assert_eq!(total, 100_000 * 99_999 / 2);
        assert!(hits.load(Ordering::Relaxed) >= 100);
    }

    #[test]
    fn panic_propagates_and_releases_tokens() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| join(|| 1, || panic!("branch b failed")))
        }));
        assert!(r.is_err());
        assert_eq!(pool.inner.spare.load(Ordering::SeqCst), 2, "token leaked");
        // The pool stays usable after the panic.
        let (a, b) = pool.join(|| 2, || 3);
        assert_eq!(a + b, 5);
    }

    /// Waits (bounded) until `pool` has a spare slot, so a test can start
    /// a nested join only after a sibling's slot was lent.
    fn await_spare(pool: &ThreadPool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.inner.spare.load(Ordering::SeqCst) < 1 && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    #[test]
    fn blocked_joiner_lends_its_slot() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let tid = || std::thread::current().id();
        let ((), (ta, tb)) = pool.join(
            || (),
            || {
                // The outer b holds the pool's only spare slot; the inner
                // join may fork only onto the slot the idle caller lends.
                await_spare(&pool);
                join(tid, tid)
            },
        );
        assert_ne!(ta, tb, "inner b ran inline instead of on the lent slot");
        assert_eq!(pool.inner.spare.load(Ordering::SeqCst), 2, "slot leaked");
    }

    #[test]
    fn lent_slot_comes_back_when_b_panics() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.join(
                || (),
                || {
                    await_spare(&pool);
                    join(|| (), || panic!("inner b failed"))
                },
            )
        }));
        assert!(r.is_err());
        assert_eq!(pool.inner.spare.load(Ordering::SeqCst), 2, "slot leaked");
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| (), || panic!("outer b failed"))
        }));
        assert!(r.is_err());
        assert_eq!(pool.inner.spare.load(Ordering::SeqCst), 2, "slot leaked");
    }

    #[test]
    fn concurrent_installers_share_the_width() {
        // Two threads inside one width-2 pool hold both of its slots, so
        // neither join may fork. The barriers keep both inside `install`
        // until both have joined.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (entered, joined) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let tid = || std::thread::current().id();
        std::thread::scope(|s| {
            let installers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        pool.install(|| {
                            entered.wait();
                            let ids = join(tid, tid);
                            joined.wait();
                            (tid(), ids)
                        })
                    })
                })
                .collect();
            for h in installers {
                let (me, ids) = h.join().unwrap();
                assert_eq!(ids, (me, me), "a join forked past the pool's width");
            }
        });
        assert_eq!(pool.inner.spare.load(Ordering::SeqCst), 2, "slot leaked");
        // Alone inside, an installer forks again.
        let (ta, tb) = pool.install(|| join(tid, tid));
        assert_ne!(ta, tb, "a lone installer's join ran inline");
    }

    #[test]
    fn single_thread_pool_never_spawns() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let main = std::thread::current().id();
        pool.install(|| {
            let (ta, tb) = join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!(ta, main);
            assert_eq!(tb, main);
        });
    }

    #[test]
    fn install_restores_previous_pool() {
        let outer = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        outer.install(|| {
            assert_eq!(current_num_threads(), 2);
            inner.install(|| assert_eq!(current_num_threads(), 3));
            assert_eq!(current_num_threads(), 2);
        });
        assert_eq!(current_num_threads(), 1);
    }
}
