//! Content-addressed plan cache with LRU eviction under a byte cap.
//!
//! The key is a 128-bit digest of the request's identity: its exact
//! matrix source (the inline Matrix Market bytes, or the lowercased
//! catalog name, scale and generator seed) and every parameter that
//! shapes the plan (model, K, ε bits, partitioner seed, runs).
//! [`PlanCache::digest`] computes it as two domain-separated SipHash
//! values under keys the cache draws once, at construction, from std's
//! `RandomState`, so a client that cannot see those keys cannot aim two
//! different requests at one entry. Identical requests — the common case
//! for a service fronting a dashboard that refreshes — skip partitioning
//! entirely, and answer without building the matrix: the matrix text is
//! neither parsed nor stored.
//!
//! A hit is still not trusted blindly: each entry records the order and
//! nonzero count of the matrix its plan was computed for, and the worker
//! checks the stored [`Decomposition`] against them and against the
//! request's K with the matrix-free `Decomposition::validate_shape`. A
//! failed check evicts the entry, counts an integrity failure, and
//! recomputes — a corrupted cache degrades to a slower service, never to
//! wrong answers.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use fgh_core::Decomposition;
use fgh_invariant::{lock_order, OrderedMutex, OrderedMutexGuard};

/// A cached plan plus the summary numbers the response repeats.
#[derive(Debug)]
pub struct CachedPlan {
    /// The decoded decomposition, checked on every hit against `order`,
    /// `nnz` and the request's K.
    pub decomposition: Decomposition,
    /// Order of the matrix the plan was computed for, recorded when the
    /// plan was stored.
    pub order: u64,
    /// Nonzero count of that matrix, recorded when the plan was stored.
    pub nnz: usize,
    /// The partitioner's objective value.
    pub objective: u64,
    /// Total communication volume in words.
    pub volume: u64,
    /// Achieved load imbalance, percent.
    pub imbalance: f64,
    /// The stable degraded code, if the outcome was degraded.
    pub degraded_code: Option<&'static str>,
    /// Human-readable degradation text, if degraded.
    pub degraded_reason: Option<String>,
}

impl CachedPlan {
    /// Approximate heap footprint, for the byte cap.
    fn approx_bytes(&self) -> usize {
        self.decomposition.nonzero_owner.len() * 4
            + self.decomposition.vec_owner.len() * 4
            + self.degraded_reason.as_deref().map_or(0, str::len)
            + 64
    }
}

struct Entry {
    plan: Arc<CachedPlan>,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    map: HashMap<u128, Entry>,
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    integrity_failures: u64,
}

/// The cache: a mutexed map with a logical LRU clock. Contention is
/// irrelevant next to partitioning cost.
pub struct PlanCache {
    byte_cap: usize,
    /// The SipHash keys of [`digest`](Self::digest), drawn once.
    keys: RandomState,
    inner: OrderedMutex<Inner>,
}

impl PlanCache {
    /// A cache holding at most `byte_cap` bytes of plans (0 disables
    /// caching entirely — every lookup misses, every insert is dropped).
    pub fn new(byte_cap: usize) -> Self {
        PlanCache {
            byte_cap,
            keys: RandomState::new(),
            inner: OrderedMutex::new(
                "PlanCache",
                lock_order::PLAN_CACHE,
                Inner {
                    map: HashMap::new(),
                    clock: 0,
                    bytes: 0,
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                    integrity_failures: 0,
                },
            ),
        }
    }

    fn lock(&self) -> OrderedMutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The configured byte cap.
    pub fn byte_cap(&self) -> usize {
        self.byte_cap
    }

    /// The 128-bit key of a request `identity`: two SipHash values under
    /// this cache's keys, one per domain byte, so the halves are
    /// independent. Stable for the cache's lifetime only.
    pub fn digest<T: Hash + ?Sized>(&self, identity: &T) -> u128 {
        let half = |domain: u8| {
            let mut h = self.keys.build_hasher();
            h.write_u8(domain);
            identity.hash(&mut h);
            u128::from(h.finish())
        };
        (half(0) << 64) | half(1)
    }

    /// Looks up a plan, bumping its recency. Counts a hit or a miss.
    /// A hit shares the stored plan; nothing is copied under the lock.
    pub fn get(&self, key: u128) -> Option<Arc<CachedPlan>> {
        let mut g = self.lock();
        g.clock += 1;
        let clock = g.clock;
        match g.map.get_mut(&key) {
            Some(e) => {
                e.last_used = clock;
                let plan = Arc::clone(&e.plan);
                g.hits += 1;
                Some(plan)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Records that a hit failed its integrity check: evicts the entry
    /// and counts an integrity failure (the hit already counted; the
    /// caller proceeds as a miss).
    pub fn quarantine(&self, key: u128) {
        let mut g = self.lock();
        if let Some(e) = g.map.remove(&key) {
            g.bytes -= e.bytes;
        }
        g.integrity_failures += 1;
    }

    /// Inserts a plan, evicting least-recently-used entries until the
    /// byte cap holds. A plan larger than the whole cap is not cached.
    pub fn put(&self, key: u128, plan: Arc<CachedPlan>) {
        let bytes = plan.approx_bytes();
        if bytes > self.byte_cap {
            return;
        }
        let mut g = self.lock();
        if let Some(old) = g.map.remove(&key) {
            g.bytes -= old.bytes;
        }
        while g.bytes + bytes > self.byte_cap {
            let Some((&lru_key, _)) = g.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if let Some(e) = g.map.remove(&lru_key) {
                g.bytes -= e.bytes;
                g.evictions += 1;
            }
        }
        g.clock += 1;
        let clock = g.clock;
        g.bytes += bytes;
        g.map.insert(
            key,
            Entry {
                plan,
                bytes,
                last_used: clock,
            },
        );
    }

    /// (hits, misses, evictions, integrity_failures, bytes) snapshot.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        let g = self.lock();
        (
            g.hits,
            g.misses,
            g.evictions,
            g.integrity_failures,
            g.bytes as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_sparse::{CooMatrix, CsrMatrix};

    fn plan(n: u32) -> Arc<CachedPlan> {
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(n, n, (0..n).map(|i| (i, i, 1.0))).unwrap(),
        );
        let d = Decomposition::rowwise(&a, 2, (0..n).map(|i| i % 2).collect()).unwrap();
        Arc::new(CachedPlan {
            decomposition: d,
            order: u64::from(n),
            nnz: n as usize,
            objective: 0,
            volume: 0,
            imbalance: 0.0,
            degraded_code: None,
            degraded_reason: None,
        })
    }

    #[test]
    fn hit_miss_and_recency() {
        let c = PlanCache::new(1 << 20);
        assert!(c.get(1).is_none());
        c.put(1, plan(4));
        assert!(c.get(1).is_some());
        let (hits, misses, ..) = c.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn hits_share_the_stored_plan() {
        let c = PlanCache::new(1 << 20);
        let stored = plan(4);
        c.put(7, Arc::clone(&stored));
        let (a, b) = (c.get(7).unwrap(), c.get(7).unwrap());
        assert!(Arc::ptr_eq(&a, &stored) && Arc::ptr_eq(&b, &stored));
    }

    #[test]
    fn byte_cap_evicts_lru() {
        let per_entry = plan(8).approx_bytes();
        // Room for exactly two entries.
        let c = PlanCache::new(per_entry * 2);
        c.put(1, plan(8));
        c.put(2, plan(8));
        c.get(1); // 1 is now more recent than 2
        c.put(3, plan(8)); // must evict 2
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none(), "LRU entry must have been evicted");
        assert!(c.get(3).is_some());
        let (_, _, evictions, _, bytes) = c.stats();
        assert_eq!(evictions, 1);
        assert!(bytes as usize <= per_entry * 2);
    }

    #[test]
    fn quarantine_removes_and_counts() {
        let c = PlanCache::new(1 << 20);
        c.put(9, plan(4));
        c.quarantine(9);
        assert!(c.get(9).is_none());
        let (_, _, _, integrity, bytes) = c.stats();
        assert_eq!(integrity, 1);
        assert_eq!(bytes, 0);
    }

    #[test]
    fn zero_cap_disables_caching() {
        let c = PlanCache::new(0);
        c.put(1, plan(4));
        assert!(c.get(1).is_none());
    }

    #[test]
    fn digest_is_keyed_and_separates_identities() {
        let (c, other) = (PlanCache::new(0), PlanCache::new(0));
        let id = ("inline", "1 1 1\n1 1 1.0\n", 4u32);
        assert_eq!(c.digest(&id), c.digest(&id), "stable within one cache");
        assert_ne!(
            c.digest(&id),
            other.digest(&id),
            "each cache draws its keys"
        );
        assert_ne!(
            c.digest(&id),
            c.digest(&("inline", "1 1 1\n1 1 2.0\n", 4u32))
        );
        assert_ne!(
            c.digest(&id),
            c.digest(&("inline", "1 1 1\n1 1 1.0\n", 5u32))
        );
        // Field boundaries are part of the identity.
        assert_ne!(c.digest(&("ab", "c")), c.digest(&("a", "bc")));
        // The two 64-bit halves are independent hashes, not one repeated.
        let d = c.digest(&id);
        assert_ne!(d >> 64, d & u128::from(u64::MAX));
    }
}
