//! Concurrent engine reuse: many threads passing one shared
//! [`ArenaPool`] to `decompose_workload{,_any}_in` must produce exactly
//! the results serial runs produce, with no arena cross-talk. This is the
//! contract `fgh serve`'s worker pool is built on; CI runs it
//! additionally under the `paranoid` feature, which turns on the engine's
//! internal invariant sweeps.

use std::sync::Arc;

use fgh_core::{
    decompose_workload_any_in, decompose_workload_in, ArenaPool, DecomposeConfig, Model, Workload,
    WorkloadAny, WorkloadOutcome,
};
use fgh_sparse::gen::{self, ValueMode};
use fgh_sparse::{AnyCsrMatrix, CsrMatrix};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn matrix(seed: u64) -> CsrMatrix {
    gen::grid5(
        16,
        16,
        1.0,
        ValueMode::Ones,
        &mut SmallRng::seed_from_u64(seed),
    )
}

#[test]
fn threads_sharing_one_session_match_serial_results() {
    let pool = Arc::new(ArenaPool::new());
    let jobs: Vec<(u64, Model, u32)> = (0..12)
        .map(|i| {
            let model = [
                Model::FineGrain2D,
                Model::Hypergraph1DColNet,
                Model::Graph1D,
            ][i as usize % 3];
            (i, model, [2u32, 4, 8][i as usize % 3])
        })
        .collect();

    // Serial ground truth through the one-shot API (its own pools).
    let expected: Vec<_> = jobs
        .iter()
        .map(|&(seed, model, k)| {
            let a = matrix(seed);
            let out = fgh_core::decompose_workload(
                Workload::Spmv(&a),
                &DecomposeConfig::new(model, k).with_seed(seed),
            )
            .and_then(WorkloadOutcome::into_spmv)
            .unwrap();
            (out.decomposition, out.objective)
        })
        .collect();

    // The same jobs, concurrently, all drawing from ONE shared pool.
    let handles: Vec<_> = jobs
        .iter()
        .map(|&(seed, model, k)| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let a = AnyCsrMatrix::U32(matrix(seed));
                let out = decompose_workload_any_in(
                    WorkloadAny::Spmv(&a),
                    &DecomposeConfig::new(model, k).with_seed(seed),
                    &pool,
                )
                .and_then(WorkloadOutcome::into_spmv)
                .unwrap();
                (seed, out)
            })
        })
        .collect();

    for h in handles {
        let (seed, out) = h.join().expect("no worker may panic");
        let (want_d, want_obj) = &expected[seed as usize];
        out.decomposition.validate(&matrix(seed)).unwrap();
        assert_eq!(
            &out.decomposition, want_d,
            "seed {seed}: concurrent result differs from serial"
        );
        assert_eq!(out.objective, *want_obj, "seed {seed}: objective differs");
    }
}

/// Jobs per wave in [`pool_stabilizes_under_repeated_concurrent_waves`].
const WAVE_JOBS: usize = 6;

/// The most arenas one K = 4 job holds at once: its seed's driver plus
/// the worker of the single fork its recursion offers (at the root; the
/// two K = 2 halves bisect once each and never fork).
const ARENAS_PER_K4_JOB: usize = 2;

#[test]
fn pool_stabilizes_under_repeated_concurrent_waves() {
    // The pool creates an arena only when none is idle, so however the
    // jobs interleave it never holds more arenas than were checked out at
    // once — at most `WAVE_JOBS * ARENAS_PER_K4_JOB` — and every arena is
    // back after a wave. A pool that never reused its arenas would park
    // at least one per job per wave and pass that bound on the third.
    let bound = WAVE_JOBS * ARENAS_PER_K4_JOB;
    let waves = bound / WAVE_JOBS + 1;
    let pool = Arc::new(ArenaPool::new());
    let run_wave = || {
        let handles: Vec<_> = (0..WAVE_JOBS)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let a = matrix(7);
                    decompose_workload_in(
                        Workload::Spmv(&a),
                        &DecomposeConfig::new(Model::FineGrain2D, 4).with_seed(t as u64),
                        &pool,
                    )
                    .and_then(WorkloadOutcome::into_spmv)
                    .unwrap()
                })
            })
            .collect();
        for h in handles {
            let out = h.join().expect("no worker may panic");
            out.decomposition.validate(&matrix(7)).unwrap();
        }
    };
    for wave in 1..=waves {
        run_wave();
        let idle = pool.idle();
        assert!(idle > 0, "arenas must be parked for reuse");
        assert!(
            idle <= bound,
            "pool holds {idle} arenas after wave {wave}; \
             one wave can check out at most {bound}"
        );
    }
}
