//! [`LevelArena`]: pooled scratch buffers for the multilevel engine.
//!
//! Every level of every bisection in a K-way run needs the same kinds of
//! scratch: match/map arrays, projected side vectors, contraction stamps,
//! and FM gain buckets. Allocating them fresh costs O(levels × vertices)
//! heap traffic per run; the arena recycles them so a run performs
//! O(levels) large allocations total (buffers grow to the finest level's
//! size once and are reused everywhere below it).
//!
//! The arena itself is *not* generic over the index width: it holds
//! separate `u32` and `u64` pools side by side, and the [`ArenaIndex`]
//! trait statically dispatches a generic caller (`S::Ix::take_ids(...)`)
//! to the right pool. This keeps one arena (and one [`ArenaPool`])
//! servicing substrates of both widths in the same process.

use crate::gain::GainBuckets;
use fgh_sparse::IndexType;
use std::num::NonZeroUsize;
use std::sync::{OnceLock, PoisonError};

use fgh_invariant::{lock_order, OrderedMutex, OrderedMutexGuard};

/// How many buffers of each kind the pool retains. Recursion depth bounds
/// live buffers, so a small cap is enough; it exists only to keep a
/// pathological caller from hoarding memory.
const POOL_CAP: usize = 32;

/// Allocation counters, exposed so benchmarks can report the arena's
/// effect directly (fresh = pool miss, reused = pool hit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Takes that had to allocate a new buffer.
    pub fresh: u64,
    /// Takes served from the pool.
    pub reused: u64,
    /// Gain-bucket takes that had to (re)allocate backing storage —
    /// fresh builds, plus pooled buckets whose capacity had to grow for a
    /// larger vertex count or gain span.
    pub bucket_grows: u64,
}

macro_rules! pooled {
    ($take:ident, $give:ident, $field:ident, $t:ty) => {
        /// Takes a buffer of `len` elements, each set to `fill`.
        pub fn $take(&mut self, len: usize, fill: $t) -> Vec<$t> {
            match self.$field.pop() {
                Some(mut v) => {
                    self.stats.reused += 1;
                    v.clear();
                    v.resize(len, fill);
                    v
                }
                None => {
                    self.stats.fresh += 1;
                    vec![fill; len]
                }
            }
        }

        /// Returns a buffer to the pool (dropped when the pool is full).
        pub fn $give(&mut self, v: Vec<$t>) {
            if self.$field.len() < POOL_CAP {
                self.$field.push(v);
            }
        }
    };
}

macro_rules! pooled_buckets {
    ($take:ident, $give:ident, $field:ident, $t:ty) => {
        /// Takes gain buckets sized for `n` vertices and gains in
        /// `[-max_gain, max_gain]`.
        pub fn $take(&mut self, n: usize, max_gain: i64) -> GainBuckets<$t> {
            match self.$field.pop() {
                Some(mut b) => {
                    self.stats.reused += 1;
                    if b.reset(n, max_gain) {
                        self.stats.bucket_grows += 1;
                    }
                    b
                }
                None => {
                    self.stats.fresh += 1;
                    self.stats.bucket_grows += 1;
                    GainBuckets::new(n, max_gain)
                }
            }
        }

        /// Returns gain buckets to the pool.
        pub fn $give(&mut self, b: GainBuckets<$t>) {
            if self.$field.len() < POOL_CAP {
                self.$field.push(b);
            }
        }
    };
}

/// Reusable flat buffers (and gain buckets) shared across the levels of a
/// multilevel run. See the module docs for the allocation argument.
#[derive(Debug, Default)]
pub struct LevelArena {
    u8s: Vec<Vec<u8>>,
    u32s: Vec<Vec<u32>>,
    u64s: Vec<Vec<u64>>,
    buckets: Vec<GainBuckets>,
    buckets64: Vec<GainBuckets<u64>>,
    stats: ArenaStats,
}

impl LevelArena {
    /// An empty arena; buffers are allocated on first take.
    pub fn new() -> Self {
        LevelArena::default()
    }

    /// Allocation counters accumulated since construction.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Heap bytes currently *retained* by the idle pools — the arena's
    /// contribution to [`crate::config::Budget::max_bytes`] accounting.
    /// Buffers checked out to callers are counted by their owners (the
    /// levels and substrates holding them), not here.
    pub fn heap_bytes(&self) -> usize {
        fn vecs<T>(pool: &[Vec<T>]) -> usize {
            pool.iter()
                .map(|v| v.capacity() * std::mem::size_of::<T>())
                .sum()
        }
        vecs(&self.u8s)
            + vecs(&self.u32s)
            + vecs(&self.u64s)
            + self
                .buckets
                .iter()
                .map(GainBuckets::heap_bytes)
                .sum::<usize>()
            + self
                .buckets64
                .iter()
                .map(GainBuckets::heap_bytes)
                .sum::<usize>()
    }

    pooled!(take_u8, give_u8, u8s, u8);
    pooled!(take_u32, give_u32, u32s, u32);
    pooled!(take_u64, give_u64, u64s, u64);

    pooled_buckets!(take_buckets, give_buckets, buckets, u32);
    pooled_buckets!(take_buckets64, give_buckets64, buckets64, u64);
}

/// Static dispatch from a generic index width to the matching
/// [`LevelArena`] pools. The engine's generic code paths write
/// `S::Ix::take_ids(arena, n, fill)` and monomorphize straight to
/// `take_u32`/`take_u64` with zero runtime branching.
pub trait ArenaIndex: IndexType {
    /// Takes a pooled id buffer of `len` elements set to `fill`.
    fn take_ids(arena: &mut LevelArena, len: usize, fill: Self) -> Vec<Self>;
    /// Returns an id buffer to its pool.
    fn give_ids(arena: &mut LevelArena, v: Vec<Self>);
    /// Takes pooled gain buckets of this width.
    fn take_buckets(arena: &mut LevelArena, n: usize, max_gain: i64) -> GainBuckets<Self>;
    /// Returns gain buckets to their pool.
    fn give_buckets(arena: &mut LevelArena, b: GainBuckets<Self>);
}

impl ArenaIndex for u32 {
    fn take_ids(arena: &mut LevelArena, len: usize, fill: Self) -> Vec<Self> {
        arena.take_u32(len, fill)
    }

    fn give_ids(arena: &mut LevelArena, v: Vec<Self>) {
        arena.give_u32(v)
    }

    fn take_buckets(arena: &mut LevelArena, n: usize, max_gain: i64) -> GainBuckets<Self> {
        arena.take_buckets(n, max_gain)
    }

    fn give_buckets(arena: &mut LevelArena, b: GainBuckets<Self>) {
        arena.give_buckets(b)
    }
}

impl ArenaIndex for u64 {
    fn take_ids(arena: &mut LevelArena, len: usize, fill: Self) -> Vec<Self> {
        arena.take_u64(len, fill)
    }

    fn give_ids(arena: &mut LevelArena, v: Vec<Self>) {
        arena.give_u64(v)
    }

    fn take_buckets(arena: &mut LevelArena, n: usize, max_gain: i64) -> GainBuckets<Self> {
        arena.take_buckets64(n, max_gain)
    }

    fn give_buckets(arena: &mut LevelArena, b: GainBuckets<Self>) {
        arena.give_buckets64(b)
    }
}

/// A thread-safe pool of [`LevelArena`]s for parallel runs.
///
/// Each bisection subtree that runs on another thread, and each seed of
/// a multi-seed fan-out, checks out a whole arena, works on it without
/// any synchronization, and checks it back in when done. The mutex is touched
/// only at fork/join boundaries — never inside the multilevel hot loops —
/// so contention is bounded by the number of forks, not the number of
/// levels.
#[derive(Debug)]
pub struct ArenaPool {
    arenas: OrderedMutex<Vec<LevelArena>>,
}

impl Default for ArenaPool {
    fn default() -> Self {
        ArenaPool {
            arenas: OrderedMutex::new("ArenaPool", lock_order::ARENA_POOL, Vec::new()),
        }
    }
}

/// Cap on idle arenas: one per CPU the process may use, read once.
/// Only a recursion branch that runs on another thread checks an arena
/// out; an inline branch works on its caller's. A joiner waiting on its
/// fork keeps its own arena while it lends its thread's slot, though, so
/// concurrent jobs and lent slots can still check out more arenas than
/// there are CPUs. A daemon's pool outlives every job, and each arena
/// kept past this cap would grow to root size one job at a time.
fn arena_pool_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

impl ArenaPool {
    /// An empty pool; arenas are created on first checkout.
    pub fn new() -> Self {
        ArenaPool::default()
    }

    /// The idle arenas, locked. A thread that panicked holding the lock
    /// left the stack itself intact, so poisoning is ignored.
    fn idle_arenas(&self) -> OrderedMutexGuard<'_, Vec<LevelArena>> {
        self.arenas.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes an arena out of the pool, creating an empty one when the pool
    /// is empty.
    pub fn checkout(&self) -> LevelArena {
        self.idle_arenas().pop().unwrap_or_default()
    }

    /// Returns an arena to the pool so its buffers survive for the next
    /// checkout; past the cap of one idle arena per CPU it is dropped.
    pub fn checkin(&self, arena: LevelArena) {
        let mut arenas = self.idle_arenas();
        if arenas.len() < arena_pool_cap() {
            arenas.push(arena);
        }
    }

    /// Drops every idle arena. A service quarantines its pool this way
    /// after a job panicked, so no later job draws the buffers that job
    /// checked in while unwinding.
    pub fn clear(&self) {
        self.idle_arenas().clear();
    }

    /// Number of idle arenas currently held.
    pub fn idle(&self) -> usize {
        self.idle_arenas().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_arena_reuses_capacity() {
        let mut a = LevelArena::new();
        let mut v = a.take_u32(10, 7);
        assert_eq!(v, vec![7; 10]);
        v.reserve(1000);
        let cap = v.capacity();
        a.give_u32(v);
        let v2 = a.take_u32(4, 0);
        assert_eq!(v2, vec![0; 4]);
        assert!(
            v2.capacity() >= cap,
            "pooled buffer should keep its capacity"
        );
        assert_eq!(
            a.stats(),
            ArenaStats {
                fresh: 1,
                reused: 1,
                bucket_grows: 0
            }
        );
    }

    #[test]
    fn buckets_roundtrip() {
        let mut a = LevelArena::new();
        let mut b = a.take_buckets(4, 5);
        b.insert(0, 3);
        a.give_buckets(b);
        let b2 = a.take_buckets(8, 2);
        assert!(b2.is_empty(), "recycled buckets must come back empty");
        assert_eq!(a.stats().reused, 1);
    }

    #[test]
    fn wide_and_narrow_pools_are_independent() {
        let mut a = LevelArena::new();
        let v32 = <u32 as ArenaIndex>::take_ids(&mut a, 4, 7);
        assert_eq!(v32, vec![7u32; 4]);
        let v64 = <u64 as ArenaIndex>::take_ids(&mut a, 4, 9);
        assert_eq!(v64, vec![9u64; 4]);
        <u32 as ArenaIndex>::give_ids(&mut a, v32);
        <u64 as ArenaIndex>::give_ids(&mut a, v64);
        // Each width hits its own pool on the next take.
        <u32 as ArenaIndex>::take_ids(&mut a, 2, 0);
        <u64 as ArenaIndex>::take_ids(&mut a, 2, 0);
        assert_eq!(a.stats().reused, 2);

        let mut b64 = <u64 as ArenaIndex>::take_buckets(&mut a, 3, 4);
        b64.insert(1u64, 2);
        <u64 as ArenaIndex>::give_buckets(&mut a, b64);
        let b64 = <u64 as ArenaIndex>::take_buckets(&mut a, 3, 4);
        assert!(b64.is_empty(), "recycled u64 buckets must come back empty");
    }

    #[test]
    fn heap_bytes_counts_idle_buffers() {
        let mut a = LevelArena::new();
        assert_eq!(a.heap_bytes(), 0);
        let v = a.take_u64(100, 0);
        assert_eq!(a.heap_bytes(), 0, "checked-out buffers belong to callers");
        a.give_u64(v);
        assert!(a.heap_bytes() >= 100 * 8);
        let b = a.take_buckets(50, 10);
        a.give_buckets(b);
        assert!(a.heap_bytes() > 100 * 8);
    }

    #[test]
    fn pool_roundtrips_arenas_with_their_buffers() {
        let pool = ArenaPool::new();
        assert_eq!(pool.idle(), 0);
        let mut a = pool.checkout();
        let v = a.take_u32(16, 0);
        a.give_u32(v);
        pool.checkin(a);
        assert_eq!(pool.idle(), 1);
        let mut b = pool.checkout();
        assert_eq!(pool.idle(), 0);
        b.take_u32(8, 1);
        assert_eq!(
            b.stats(),
            ArenaStats {
                fresh: 1,
                reused: 1,
                bucket_grows: 0
            }
        );
    }

    #[test]
    fn idle_arenas_stop_at_the_cap() {
        let pool = ArenaPool::new();
        let extra: Vec<LevelArena> = (0..arena_pool_cap() + 3).map(|_| pool.checkout()).collect();
        for a in extra {
            pool.checkin(a);
        }
        assert_eq!(pool.idle(), arena_pool_cap());
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = std::sync::Arc::new(ArenaPool::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    let mut a = pool.checkout();
                    let v = a.take_u64(32, 9);
                    assert_eq!(v.len(), 32);
                    a.give_u64(v);
                    pool.checkin(a);
                });
            }
        });
        assert!(pool.idle() >= 1 && pool.idle() <= 4);
    }

    #[test]
    fn take_fill_value_respected() {
        let mut a = LevelArena::new();
        let v = a.take_u32(5, u32::MAX);
        assert!(v.iter().all(|&x| x == u32::MAX));
        a.give_u32(v);
        let v = a.take_u32(2, 3);
        assert_eq!(v, vec![3, 3]);
    }
}
