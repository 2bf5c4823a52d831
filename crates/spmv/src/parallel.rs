//! Real multi-threaded SpMV executor: one OS thread per processor,
//! `std::sync::mpsc` channels as the interconnect.
//!
//! Exercises the same [`DistributedSpmv`] plan as the simulator, but with
//! genuinely concurrent phases — each thread loads the x entries it owns
//! into its local slots, sends its expand messages, receives the ones
//! addressed to it, multiplies its local nonzeros, then exchanges fold
//! messages. A thread allocates only its own slots; the final `y` is
//! assembled from the owners.

use std::sync::mpsc::{channel, Receiver, Sender};

use crate::plan::{load, DistributedSpmv, MeasuredComm, Words};
use crate::{Result, SpmvError};

/// A message between processors: the index of its transfer in the phase's
/// transfer list, and one value per word of that transfer.
enum Msg {
    /// Expand-phase x values.
    X(usize, Vec<f64>),
    /// Fold-phase partial y values.
    Y(usize, Vec<f64>),
}

/// What one processor's thread hands back: the y entries it owns, and the
/// words and messages it sent in each phase.
struct Outcome {
    y: Vec<(u32, f64)>,
    sent: MeasuredComm,
}

/// A worker that loses a channel peer (because that peer died) returns an
/// error instead of panicking; the first error wins.
fn dead_peer() -> SpmvError {
    SpmvError::Worker("channel peer disconnected mid-multiply".into())
}

/// Writes (expand) or adds (fold) the values of transfer `t` into the
/// receiver's slots.
// lint: checked-index — receiver slots are < the receiver's slot count that sizes `slots` (validate() layout check words.slots)
fn receive(words: &Words, t: usize, vals: Vec<f64>, slots: &mut [f64], add: bool) {
    for (&(_, d), v) in words.of(t).iter().zip(vals) {
        if add {
            slots[d as usize] += v;
        } else {
            slots[d as usize] = v;
        }
    }
}

/// Processor `p`'s side of one `y = Ax`, in its own local index space.
// lint: checked-index — sender slots are < p's slot counts that size xs/ys and receivers are < k == senders.len() (validate() layout checks words.slots, transfer.endpoints)
fn run_processor(
    plan: &DistributedSpmv,
    p: u32,
    x: &[f64],
    inbox: &Receiver<Msg>,
    senders: &[Sender<Msg>],
    (expect_x, expect_y): (usize, usize),
) -> Result<Outcome> {
    let block = plan.local(p);
    let mut sent = MeasuredComm::default();

    // Own x slots loaded; the rest poisoned until received.
    let mut xs = vec![f64::NAN; block.x_index.len()];
    load(&block.x_owned, &block.x_index, x, &mut xs);

    // Phase 1: expand — send what we own to the needers.
    let words = plan.expand_words();
    for (t, (tr, w)) in words.with(plan.expand_transfers()).enumerate() {
        if tr.from == p {
            let payload: Vec<f64> = w.iter().map(|&(s, _)| xs[s as usize]).collect();
            sent.expand_words += payload.len() as u64;
            sent.expand_messages += 1;
            senders[tr.to as usize]
                .send(Msg::X(t, payload))
                .map_err(|_| dead_peer())?;
        }
    }
    // Receive the x values addressed to us. Fold messages from fast peers
    // may already be interleaved; stash them.
    let mut stashed_y: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut got_x = 0usize;
    while got_x < expect_x {
        match inbox.recv().map_err(|_| dead_peer())? {
            Msg::X(t, vals) => {
                receive(words, t, vals, &mut xs, false);
                got_x += 1;
            }
            Msg::Y(t, vals) => stashed_y.push((t, vals)),
        }
    }

    // Phase 2: local multiply.
    let mut ys = vec![0.0; block.y_index.len()];
    block.mult(&xs, &mut ys);

    // Phase 3: fold — ship partials to the y owners.
    let words = plan.fold_words();
    for (t, (tr, w)) in words.with(plan.fold_transfers()).enumerate() {
        if tr.from == p {
            let payload: Vec<f64> = w.iter().map(|&(s, _)| ys[s as usize]).collect();
            sent.fold_words += payload.len() as u64;
            sent.fold_messages += 1;
            senders[tr.to as usize]
                .send(Msg::Y(t, payload))
                .map_err(|_| dead_peer())?;
        }
    }
    let mut got_y = stashed_y.len();
    for (t, vals) in stashed_y {
        receive(words, t, vals, &mut ys, true);
    }
    while got_y < expect_y {
        match inbox.recv().map_err(|_| dead_peer())? {
            Msg::Y(t, vals) => {
                receive(words, t, vals, &mut ys, true);
                got_y += 1;
            }
            Msg::X(..) => {
                // Protocol violation: all expand messages were already
                // received.
                return Err(SpmvError::Worker(
                    "unexpected expand message during fold phase".into(),
                ));
            }
        }
    }

    // Emit the y entries we own.
    let y = block
        .y_owned
        .iter()
        .map(|&s| (block.y_index[s as usize], ys[s as usize]))
        .collect();
    Ok(Outcome { y, sent })
}

/// Executes one `y = Ax` with `plan.k()` concurrent threads. Returns the
/// result and the communication the threads measured as they sent
/// (identical to the simulator's by construction — the same transfers
/// run, just concurrently).
// lint: checked-index — processors < k index the k-long count and sent tallies; owned indices are < n (validate() layout check slot.index)
pub fn parallel_spmv(plan: &DistributedSpmv, x: &[f64]) -> Result<(Vec<f64>, MeasuredComm)> {
    let n = plan.n() as usize;
    if x.len() != n {
        return Err(SpmvError::DimensionMismatch {
            expected: n,
            got: x.len(),
        });
    }
    let k = plan.k() as usize;

    // One inbox per processor.
    let (senders, receivers): (Vec<Sender<Msg>>, Vec<Receiver<Msg>>) =
        (0..k).map(|_| channel()).unzip();

    // Expected message counts per processor and phase.
    let mut expect = vec![(0usize, 0usize); k];
    for t in plan.expand_transfers() {
        expect[t.to as usize].0 += 1;
    }
    for t in plan.fold_transfers() {
        expect[t.to as usize].1 += 1;
    }

    let mut results: Vec<Result<Outcome>> = Vec::with_capacity(k);
    std::thread::scope(|scope| {
        // Each inbox moves into its processor's thread.
        let handles: Vec<_> = (0..plan.k())
            .zip(receivers.into_iter().zip(&expect))
            .map(|(p, (inbox, &expect))| {
                let senders = &senders;
                scope.spawn(move || run_processor(plan, p, x, &inbox, senders, expect))
            })
            .collect();
        for h in handles {
            results.push(h.join().unwrap_or_else(|e| {
                let msg = if let Some(s) = e.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = e.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "worker panicked".to_string()
                };
                Err(SpmvError::Worker(msg))
            }));
        }
    });

    let mut y = vec![0.0; n];
    let mut measured = MeasuredComm {
        sent_words_per_proc: vec![0; k],
        ..Default::default()
    };
    for (p, outcome) in results.into_iter().enumerate() {
        let Outcome { y: owned, sent } = outcome?;
        for (i, v) in owned {
            y[i as usize] = v;
        }
        measured.expand_words += sent.expand_words;
        measured.expand_messages += sent.expand_messages;
        measured.fold_words += sent.fold_words;
        measured.fold_messages += sent.fold_messages;
        measured.sent_words_per_proc[p] = sent.total_words();
    }
    Ok((y, measured))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_core::{
        decompose_workload, DecomposeConfig, Decomposition, Model, Workload, WorkloadOutcome,
    };
    use fgh_sparse::gen::{self, ValueMode};
    use fgh_sparse::{CooMatrix, CsrMatrix};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_matches_serial_small() {
        let a = CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                3,
                3,
                vec![
                    (0, 0, 1.0),
                    (0, 2, 2.0),
                    (1, 1, 3.0),
                    (2, 0, 4.0),
                    (2, 2, 5.0),
                ],
            )
            .unwrap(),
        );
        let d = Decomposition::rowwise(&a, 3, vec![0, 1, 2]).unwrap();
        let plan = DistributedSpmv::build(&a, &d).unwrap();
        let x = vec![1.0, -2.0, 0.5];
        let (y, _) = parallel_spmv(&plan, &x).unwrap();
        assert_eq!(y, a.spmv(&x).unwrap());
    }

    #[test]
    fn parallel_matches_simulator_all_models() {
        let a = gen::grid5(
            10,
            10,
            1.0,
            ValueMode::Laplacian,
            &mut SmallRng::seed_from_u64(4),
        );
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).sin() + 2.0).collect();
        for model in [
            Model::Graph1D,
            Model::Hypergraph1DColNet,
            Model::Hypergraph1DRowNet,
            Model::FineGrain2D,
        ] {
            let out = decompose_workload(Workload::Spmv(&a), &DecomposeConfig::new(model, 4))
                .and_then(WorkloadOutcome::into_spmv)
                .unwrap();
            let plan = DistributedSpmv::build(&a, &out.decomposition).unwrap();
            let (y_sim, m_sim) = plan.multiply(&x).unwrap();
            let (y_par, m_par) = parallel_spmv(&plan, &x).unwrap();
            for (a_, b_) in y_sim.iter().zip(&y_par) {
                assert!((a_ - b_).abs() < 1e-12, "{model:?}");
            }
            assert_eq!(m_sim, m_par, "{model:?} measured comm must agree");
        }
    }

    #[test]
    fn parallel_handles_k1() {
        let a = CsrMatrix::identity(5);
        let d = Decomposition::rowwise(&a, 1, vec![0; 5]).unwrap();
        let plan = DistributedSpmv::build(&a, &d).unwrap();
        let (y, m) = parallel_spmv(&plan, &[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(y, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(m.total_words(), 0);
    }

    #[test]
    fn repeated_multiplies_are_stable() {
        // Iterative-solver usage: same plan, many multiplies.
        let a = gen::scale_free(
            80,
            2.0,
            ValueMode::Laplacian,
            &mut SmallRng::seed_from_u64(6),
        );
        let out = decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::FineGrain2D, 4),
        )
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
        let plan = DistributedSpmv::build(&a, &out.decomposition).unwrap();
        let mut x = vec![1.0; a.ncols() as usize];
        for _ in 0..5 {
            let (y1, _) = parallel_spmv(&plan, &x).unwrap();
            let (y2, _) = plan.multiply(&x).unwrap();
            for (a_, b_) in y1.iter().zip(&y2) {
                assert!((a_ - b_).abs() < 1e-9);
            }
            // Normalize to keep values bounded (power-iteration style).
            let norm = y1.iter().map(|v| v * v).sum::<f64>().sqrt();
            x = y1.iter().map(|v| v / norm.max(1e-300)).collect();
        }
    }
}
