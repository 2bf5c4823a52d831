//! Differential oracle for the local-index executors.
//!
//! The reference below is the dense executor the local-index layout
//! replaced: every processor holds a full-length x image and a full-length
//! y image (2·K·n words per multiply), and values move by global index. It
//! reads the plan only through its public accessors. The executors must
//! match it exactly: the simulator and the transpose bit for bit in `y`
//! and word for word in [`MeasuredComm`], the threaded executor word for
//! word and within rounding in `y` (its fold contributions arrive in
//! whatever order the threads deliver them).

use fgh_core::{
    decompose_workload, DecomposeConfig, Decomposition, Model, Workload, WorkloadOutcome,
};
use fgh_sparse::catalog::by_name;
use fgh_sparse::{CooMatrix, CsrMatrix};
use fgh_spmv::parallel::parallel_spmv;
use fgh_spmv::{DistributedSpmv, MeasuredComm};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn empty_comm(plan: &DistributedSpmv) -> MeasuredComm {
    MeasuredComm {
        sent_words_per_proc: vec![0; plan.k() as usize],
        ..Default::default()
    }
}

/// Reference `y = Ax` over full-length per-processor images. Reading a
/// poisoned (never received) entry fails the test.
fn reference_multiply(plan: &DistributedSpmv, x: &[f64]) -> (Vec<f64>, MeasuredComm) {
    let (k, n) = (plan.k() as usize, plan.n() as usize);
    let owner = plan.vec_owner();
    let mut x_local = vec![vec![f64::NAN; n]; k];
    for j in 0..n {
        x_local[owner[j] as usize][j] = x[j];
    }
    let mut m = empty_comm(plan);
    for t in plan.expand_transfers() {
        for &j in &t.indices {
            let v = x_local[t.from as usize][j as usize];
            assert!(!v.is_nan(), "expand of x_{j} from non-owner {}", t.from);
            x_local[t.to as usize][j as usize] = v;
        }
        m.expand_words += t.indices.len() as u64;
        m.expand_messages += 1;
        m.sent_words_per_proc[t.from as usize] += t.indices.len() as u64;
    }
    let mut y_partial = vec![vec![0.0; n]; k];
    for p in 0..k {
        for (i, j, v) in plan.local(p as u32).triplets() {
            let xj = x_local[p][j as usize];
            assert!(!xj.is_nan(), "processor {p} multiplies unreceived x_{j}");
            y_partial[p][i as usize] += v * xj;
        }
    }
    for t in plan.fold_transfers() {
        for &i in &t.indices {
            let v = y_partial[t.from as usize][i as usize];
            y_partial[t.to as usize][i as usize] += v;
        }
        m.fold_words += t.indices.len() as u64;
        m.fold_messages += 1;
        m.sent_words_per_proc[t.from as usize] += t.indices.len() as u64;
    }
    let y = (0..n).map(|i| y_partial[owner[i] as usize][i]).collect();
    (y, m)
}

/// Reference `y = Aᵀx`: the fold transfers reversed carry x, the expand
/// transfers reversed carry the partial sums.
fn reference_multiply_transpose(plan: &DistributedSpmv, x: &[f64]) -> (Vec<f64>, MeasuredComm) {
    let (k, n) = (plan.k() as usize, plan.n() as usize);
    let owner = plan.vec_owner();
    let mut x_local = vec![vec![f64::NAN; n]; k];
    for i in 0..n {
        x_local[owner[i] as usize][i] = x[i];
    }
    let mut m = empty_comm(plan);
    for t in plan.fold_transfers() {
        for &i in &t.indices {
            let v = x_local[t.to as usize][i as usize];
            assert!(
                !v.is_nan(),
                "transpose expand of x_{i} from non-owner {}",
                t.to
            );
            x_local[t.from as usize][i as usize] = v;
        }
        m.expand_words += t.indices.len() as u64;
        m.expand_messages += 1;
        m.sent_words_per_proc[t.to as usize] += t.indices.len() as u64;
    }
    let mut y_partial = vec![vec![0.0; n]; k];
    for p in 0..k {
        for (i, j, v) in plan.local(p as u32).triplets() {
            let xi = x_local[p][i as usize];
            assert!(!xi.is_nan(), "processor {p} multiplies unreceived x_{i}");
            y_partial[p][j as usize] += v * xi;
        }
    }
    for t in plan.expand_transfers() {
        for &j in &t.indices {
            let v = y_partial[t.to as usize][j as usize];
            y_partial[t.from as usize][j as usize] += v;
        }
        m.fold_words += t.indices.len() as u64;
        m.fold_messages += 1;
        m.sent_words_per_proc[t.to as usize] += t.indices.len() as u64;
    }
    let y = (0..n).map(|j| y_partial[owner[j] as usize][j]).collect();
    (y, m)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts every executor agrees with the reference on `plan`.
fn check(plan: &DistributedSpmv, x: &[f64]) {
    plan.validate().expect("layout");
    let (y_ref, m_ref) = reference_multiply(plan, x);
    let (y, m) = plan.multiply(x).expect("multiply");
    assert_eq!(
        bits(&y),
        bits(&y_ref),
        "multiply y differs from the reference"
    );
    assert_eq!(m, m_ref, "multiply traffic differs from the reference");
    assert_eq!(m, plan.planned_comm());

    let (yt_ref, mt_ref) = reference_multiply_transpose(plan, x);
    let (yt, mt) = plan.multiply_transpose(x).expect("transpose");
    assert_eq!(
        bits(&yt),
        bits(&yt_ref),
        "transpose y differs from the reference"
    );
    assert_eq!(mt, mt_ref, "transpose traffic differs from the reference");

    let (y_par, m_par) = parallel_spmv(plan, x).expect("parallel");
    assert_eq!(m_par, m_ref, "threaded traffic differs from the reference");
    for (p, r) in y_par.iter().zip(&y_ref) {
        assert!(
            (p - r).abs() <= 1e-12 * r.abs().max(1.0),
            "threaded {p} vs {r}"
        );
    }
}

/// A square pattern of order 1..=16 with up to 60 entries; `strip` empties
/// one row and one column so empty rows and columns always occur.
fn square_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1u32..=16, any_strip())
        .prop_flat_map(|(n, strip)| {
            (
                Just(n),
                Just(strip),
                proptest::collection::btree_set((0..n, 0..n), 0..=60),
            )
        })
        .prop_map(|(n, strip, pos)| {
            let cut = strip.map(|s| s % n);
            let triplets: Vec<(u32, u32, f64)> = pos
                .into_iter()
                .filter(|&(i, j)| cut.is_none_or(|c| i != c && j != c))
                .enumerate()
                .map(|(e, (i, j))| (i, j, (e as f64) * 0.37 - 2.9))
                .collect();
            CsrMatrix::from_coo(CooMatrix::from_triplets(n, n, triplets).expect("in bounds"))
        })
}

fn any_strip() -> impl Strategy<Value = Option<u32>> {
    (0u32..2, 0u32..16).prop_map(|(on, s)| (on == 1).then_some(s))
}

/// A random decomposition into `k` parts. With `aloof` set, each vector
/// entry goes to a processor holding none of its column or row when one
/// exists, so owners send and receive entries they never touch.
fn random_decomposition(a: &CsrMatrix, k: u32, seed: u64, aloof: bool) -> Decomposition {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nz: Vec<u32> = (0..a.nnz()).map(|_| rng.gen_range(0..k)).collect();
    let n = a.nrows() as usize;
    let mut touches = vec![vec![false; k as usize]; n];
    for ((i, j, _), &p) in a.iter().zip(&nz) {
        touches[i as usize][p as usize] = true;
        touches[j as usize][p as usize] = true;
    }
    let vo: Vec<u32> = touches
        .iter()
        .map(|t| {
            let strangers: Vec<u32> = (0..k).filter(|&p| !t[p as usize]).collect();
            if aloof && !strangers.is_empty() {
                strangers[rng.gen_range(0..strangers.len())]
            } else {
                rng.gen_range(0..k)
            }
        })
        .collect();
    Decomposition::general(a, k, nz, vo).expect("valid by construction")
}

fn input(n: u32, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect()
}

proptest! {
    /// Random matrices and decompositions with K from 1 to 8.
    #[test]
    fn executors_match_reference(
        a in square_matrix(),
        k in 1u32..=8,
        seed in 0u64..10_000,
        aloof in 0u32..2,
    ) {
        let d = random_decomposition(&a, k, seed, aloof == 1);
        let plan = DistributedSpmv::build(&a, &d).expect("plan");
        check(&plan, &input(a.nrows(), seed));
    }
}

/// Catalog matrices under their fine-grain decompositions at K = 64.
#[test]
fn executors_match_reference_on_catalog() {
    for (name, scale) in [("finan512", 4), ("ken-11", 8)] {
        let a = by_name(name)
            .expect("catalog entry")
            .generate_scaled(scale, 901);
        let out = decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::FineGrain2D, 64),
        )
        .and_then(WorkloadOutcome::into_spmv)
        .expect("decompose");
        let plan = DistributedSpmv::build(&a, &out.decomposition).expect("plan");
        assert_eq!(plan.planned_comm().total_words(), out.objective, "{name}");
        check(&plan, &input(a.nrows(), scale.into()));
    }
}
