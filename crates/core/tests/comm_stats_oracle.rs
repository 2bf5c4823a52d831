//! Differential gate for the exact communication statistics.
//!
//! `CommStats::compute` and `SpgemmCommStats::compute_with` charge every
//! data element one word per distinct non-owner part among its users, and
//! one message per sender→receiver pair and phase. The references below
//! are that rule written out loop by loop, one phase at a time, the way
//! both statistics were first implemented. The SpGEMM reference reads the
//! canonical structure only through the per-task arrays (`a_starts`,
//! `task_b`, `task_c`) and the element counts, never through a per-element
//! task index, so a wrong index cannot agree with itself here.
//!
//! Both statistics must equal their reference field for field,
//! `per_proc` included, on owners the model decodes and on owners moved
//! outside their element's users (which no decode produces).

use fgh_core::metrics::ProcStats;
use fgh_core::models::{SpgemmCommStats, SpgemmDecomposition, SpgemmModel, SpgemmStructure};
use fgh_core::{CommStats, Decomposition};
use fgh_hypergraph::Partition;
use fgh_sparse::{catalog, CooMatrix, CsrMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mat(nrows: u32, ncols: u32, t: Vec<(u32, u32, f64)>) -> CsrMatrix {
    CsrMatrix::from_coo(CooMatrix::from_triplets(nrows, ncols, t).unwrap())
}

/// Expand words per column, fold words per row, one stamp loop each.
fn reference_spmv(a: &CsrMatrix, d: &Decomposition) -> CommStats {
    let k = d.k as usize;
    let n = a.nrows() as usize;
    let mut per_proc = vec![ProcStats::default(); k];
    for &p in &d.nonzero_owner {
        per_proc[p as usize].load += 1;
    }
    let mut col_parts: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut e = 0usize;
    for i in 0..n {
        for &j in a.row_cols(i as u32) {
            col_parts[j as usize].push(d.nonzero_owner[e]);
            e += 1;
        }
    }
    let mut expand_msg = vec![false; k * k];
    let mut fold_msg = vec![false; k * k];
    let mut stamp = vec![u64::MAX; k];
    let mut expand_volume = 0u64;
    for (j, cols) in col_parts.iter().enumerate() {
        let owner = d.vec_owner[j] as usize;
        let tick = j as u64;
        for &p in cols {
            let p = p as usize;
            if stamp[p] == tick || p == owner {
                stamp[p] = tick;
                continue;
            }
            stamp[p] = tick;
            expand_volume += 1;
            per_proc[owner].sent_words += 1;
            per_proc[p].recv_words += 1;
            expand_msg[owner * k + p] = true;
        }
    }
    let mut fold_volume = 0u64;
    let mut stamp = vec![u64::MAX; k];
    let mut e = 0usize;
    for i in 0..n {
        let receiver = d.vec_owner[i] as usize;
        let tick = i as u64;
        for _ in a.row_cols(i as u32) {
            let p = d.nonzero_owner[e] as usize;
            e += 1;
            if stamp[p] == tick || p == receiver {
                stamp[p] = tick;
                continue;
            }
            stamp[p] = tick;
            fold_volume += 1;
            per_proc[p].sent_words += 1;
            per_proc[receiver].recv_words += 1;
            fold_msg[p * k + receiver] = true;
        }
    }
    let mut expand_messages = 0u64;
    let mut fold_messages = 0u64;
    for s in 0..k {
        for r in 0..k {
            if expand_msg[s * k + r] {
                expand_messages += 1;
                per_proc[s].sent_messages += 1;
                per_proc[r].recv_messages += 1;
            }
            if fold_msg[s * k + r] {
                fold_messages += 1;
                per_proc[s].sent_messages += 1;
                per_proc[r].recv_messages += 1;
            }
        }
    }
    CommStats {
        k: d.k,
        n: d.n,
        expand_volume,
        fold_volume,
        expand_messages,
        fold_messages,
        per_proc,
    }
}

/// `A` expand, `B` expand and `C` fold, one stamp loop each, with the
/// tasks of every `B` and `C` element regrouped from the per-task arrays.
fn reference_spgemm(s: &SpgemmStructure, d: &SpgemmDecomposition) -> SpgemmCommStats {
    let k = d.k as usize;
    let mut per_proc = vec![ProcStats::default(); k];
    for &p in &d.task_owner {
        per_proc[p as usize].load += 1;
    }
    let mut msg = [vec![false; k * k], vec![false; k * k], vec![false; k * k]];
    let mut volumes = [0u64; 3];
    let mut stamp = vec![usize::MAX; k];
    for (e, &owner) in d.a_owner.iter().enumerate() {
        let owner = owner as usize;
        stamp[owner] = e;
        for t in s.a_starts[e]..s.a_starts[e + 1] {
            let p = d.task_owner[t] as usize;
            if stamp[p] == e {
                continue;
            }
            stamp[p] = e;
            volumes[0] += 1;
            per_proc[owner].sent_words += 1;
            per_proc[p].recv_words += 1;
            msg[0][owner * k + p] = true;
        }
    }
    let mut b_tasks: Vec<Vec<usize>> = vec![Vec::new(); s.b_elems.len()];
    let mut c_tasks: Vec<Vec<usize>> = vec![Vec::new(); s.c_elems.len()];
    for t in 0..s.num_tasks() {
        b_tasks[s.task_b[t]].push(t);
        c_tasks[s.task_c[t]].push(t);
    }
    let mut b_stamp = vec![usize::MAX; k];
    for (e, tasks) in b_tasks.iter().enumerate() {
        let owner = d.b_owner[e] as usize;
        b_stamp[owner] = e;
        for &t in tasks {
            let p = d.task_owner[t] as usize;
            if b_stamp[p] == e {
                continue;
            }
            b_stamp[p] = e;
            volumes[1] += 1;
            per_proc[owner].sent_words += 1;
            per_proc[p].recv_words += 1;
            msg[1][owner * k + p] = true;
        }
    }
    let mut c_stamp = vec![usize::MAX; k];
    for (e, tasks) in c_tasks.iter().enumerate() {
        let owner = d.c_owner[e] as usize;
        c_stamp[owner] = e;
        for &t in tasks {
            let p = d.task_owner[t] as usize;
            if c_stamp[p] == e {
                continue;
            }
            c_stamp[p] = e;
            volumes[2] += 1;
            per_proc[p].sent_words += 1;
            per_proc[owner].recv_words += 1;
            msg[2][p * k + owner] = true;
        }
    }
    let mut messages = [0u64; 3];
    for (f, grid) in msg.iter().enumerate() {
        for sr in 0..k {
            for rc in 0..k {
                if grid[sr * k + rc] {
                    messages[f] += 1;
                    per_proc[sr].sent_messages += 1;
                    per_proc[rc].recv_messages += 1;
                }
            }
        }
    }
    SpgemmCommStats {
        k: d.k,
        a_expand_volume: volumes[0],
        b_expand_volume: volumes[1],
        fold_volume: volumes[2],
        a_expand_messages: messages[0],
        b_expand_messages: messages[1],
        fold_messages: messages[2],
        per_proc,
    }
}

/// A random 2D decomposition of `a` into `k` parts. Vector entry `j`
/// goes, in turn, to a part holding a nonzero of row `j`, to a random
/// part, and to a part holding no nonzero of row or column `j` when one
/// exists. Returns the decomposition and how many entries took the last
/// kind of owner.
fn random_spmv(a: &CsrMatrix, k: u32, rng: &mut SmallRng) -> (Decomposition, usize) {
    let n = a.nrows() as usize;
    let nonzero_owner: Vec<u32> = (0..a.nnz()).map(|_| rng.gen_range(0..k)).collect();
    let mut touches = vec![vec![false; k as usize]; n];
    for (e, (i, j, _)) in a.iter().enumerate() {
        touches[i as usize][nonzero_owner[e] as usize] = true;
        touches[j as usize][nonzero_owner[e] as usize] = true;
    }
    let mut outside = 0;
    let vec_owner = (0..n)
        .map(|j| {
            let row = a.row_ptr()[j]..a.row_ptr()[j + 1];
            match j % 3 {
                0 if !row.is_empty() => nonzero_owner[rng.gen_range(row)],
                1 => rng.gen_range(0..k),
                _ => match (0..k).find(|&p| !touches[j][p as usize]) {
                    Some(p) => {
                        outside += 1;
                        p
                    }
                    None => rng.gen_range(0..k),
                },
            }
        })
        .collect();
    let d = Decomposition::general(a, k, nonzero_owner, vec_owner).unwrap();
    (d, outside)
}

#[test]
fn spmv_statistics_equal_the_reference_accounting() {
    let mut rng = SmallRng::seed_from_u64(23);
    let mut outside = 0;
    for entry in catalog::catalog() {
        let a = entry.generate_scaled(256, 1);
        for k in [1, 2, 3, 5, 8, 13, 16] {
            let (d, moved) = random_spmv(&a, k, &mut rng);
            outside += moved;
            assert_eq!(
                CommStats::compute(&a, &d).unwrap(),
                reference_spmv(&a, &d),
                "{} at K = {k}",
                entry.name
            );
        }
    }
    assert!(
        outside > 0,
        "some vector owners must sit outside their lines"
    );
}

/// Moves the owner of one element whose users leave a part free onto
/// that part. `users[e]` has bit `p` set when part `p` runs a task of
/// element `e` (K <= 32).
fn move_owner_outside(owners: &mut [u32], users: &[u32], k: u32, rng: &mut SmallRng) -> bool {
    let start = rng.gen_range(0..owners.len());
    for e in (start..owners.len()).chain(0..start) {
        if let Some(p) = (0..k).find(|&p| users[e] & 1 << p == 0) {
            owners[e] = p;
            return true;
        }
    }
    false
}

/// Part masks of every element's users, task by task.
fn users(elems: usize, task_elem: impl Iterator<Item = usize>, task_owner: &[u32]) -> Vec<u32> {
    let mut mask = vec![0u32; elems];
    for (e, &p) in task_elem.zip(task_owner) {
        mask[e] |= 1 << p;
    }
    mask
}

fn spgemm_pairs() -> Vec<(CsrMatrix, CsrMatrix)> {
    let mut pairs: Vec<(CsrMatrix, CsrMatrix)> = catalog::catalog()
        .iter()
        .map(|entry| {
            let a = entry.generate_scaled(256, 1);
            (a.clone(), a)
        })
        .collect();
    // Rectangular pairs with unused elements of A and B, and a diagonal A
    // against a dense row 0 of B, whose heavy group splits.
    pairs.push((
        mat(
            3,
            4,
            vec![(0, 0, 1.0), (0, 3, 1.0), (1, 1, 1.0), (2, 3, 1.0)],
        ),
        mat(
            4,
            5,
            vec![
                (0, 0, 1.0),
                (0, 4, 1.0),
                (2, 1, 1.0),
                (3, 0, 1.0),
                (3, 2, 1.0),
            ],
        ),
    ));
    pairs.push((
        mat(12, 12, (0..12).map(|i| (i, i, 1.0)).collect()),
        mat(
            12,
            12,
            (0..12)
                .map(|j| (0, j, 1.0))
                .chain((1..12).map(|i| (i, i, 1.0)))
                .collect(),
        ),
    ));
    pairs
}

#[test]
fn spgemm_statistics_equal_the_reference_accounting() {
    let mut rng = SmallRng::seed_from_u64(1603);
    let mut moved = [0usize; 3];
    for (a, b) in spgemm_pairs() {
        let m = SpgemmModel::build(&a, &b).unwrap();
        let s = m.structure();
        let nv = m.hypergraph().num_vertices();
        for k in [1, 2, 3, 4, 7, 11, 16] {
            let parts = (0..nv).map(|_| rng.gen_range(0..k)).collect();
            let decoded = m.decode(&Partition::new(k, parts).unwrap()).unwrap();
            // As decoded, then with one A, B or C owner moved outside the
            // parts that use the element.
            let mut variants = vec![decoded.clone()];
            let a_task = (0..s.a_elems.len())
                .flat_map(|e| std::iter::repeat_n(e, s.a_starts[e + 1] - s.a_starts[e]));
            let masks = [
                users(s.a_elems.len(), a_task, &decoded.task_owner),
                users(
                    s.b_elems.len(),
                    s.task_b.iter().copied(),
                    &decoded.task_owner,
                ),
                users(
                    s.c_elems.len(),
                    s.task_c.iter().copied(),
                    &decoded.task_owner,
                ),
            ];
            for (class, mask) in masks.iter().enumerate() {
                let mut d = decoded.clone();
                let owners = match class {
                    0 => &mut d.a_owner,
                    1 => &mut d.b_owner,
                    _ => &mut d.c_owner,
                };
                if move_owner_outside(owners, mask, k, &mut rng) {
                    moved[class] += 1;
                    variants.push(d);
                }
            }
            for d in &variants {
                assert_eq!(
                    SpgemmCommStats::compute_with(s, d).unwrap(),
                    reference_spgemm(s, d),
                    "K = {k}, {} flops",
                    s.num_tasks()
                );
            }
        }
    }
    assert!(
        moved.iter().all(|&n| n > 0),
        "owners moved per class: {moved:?}"
    );
}
