//! Mondriaan-style recursive 2D decomposition — the best-known follow-on
//! to the fine-grain model (Vastenhouw & Bisseling, 2005, which builds
//! directly on this paper's line of work).
//!
//! Instead of one global fine-grain hypergraph (Z vertices), the *matrix*
//! is bisected recursively: at every step the current nonzero set is split
//! in two balanced halves with a 1D hypergraph model, trying **both** the
//! row direction (column-net model) and the column direction (row-net
//! model) and keeping the better cut. Different submatrices may choose
//! different directions, producing a genuinely 2D ("Mondriaan painting")
//! nonzero partition at 1D-model cost per level.
//!
//! Volume accounting: after the nonzero partition is fixed, `x_j`/`y_j`
//! owners are chosen greedily per index among the parts touching column
//! `j` / row `j` (with the conformality requirement `owner(x_j) =
//! owner(y_j)` of symmetric partitioning), and the exact volume comes from
//! [`crate::CommStats`] like every other model.

use fgh_hypergraph::{Hypergraph, HypergraphBuilder};
use fgh_partition::{EngineStats, MultilevelDriver, PartitionConfig};
use fgh_sparse::CsrMatrix;
use fgh_trace::SpanHandle;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::decomp::Decomposition;
use crate::{ModelError, Result};

/// One nonzero as a coordinate pair (CSR order is preserved separately).
type Coord = (u32, u32);

/// Mondriaan-style recursive matrix bisection.
#[derive(Debug, Clone)]
pub struct MondriaanModel {
    k: u32,
    epsilon: f64,
}

impl MondriaanModel {
    /// Creates a model targeting `k` parts with imbalance `epsilon`.
    pub fn new(k: u32, epsilon: f64) -> Self {
        MondriaanModel { k, epsilon }
    }

    /// Decomposes `a`, returning the 2D [`Decomposition`].
    pub fn decompose(&self, a: &CsrMatrix, cfg: &PartitionConfig) -> Result<Decomposition> {
        self.decompose_traced(a, cfg, &SpanHandle::noop())
            .map(|(d, _)| d)
    }

    /// [`MondriaanModel::decompose`] with engine instrumentation and trace
    /// recording. All matrix bisections run on **one** reused
    /// [`MultilevelDriver`], so the returned [`EngineStats`] aggregate the
    /// whole recursion (every level's coarsening/FM work, summed). Under
    /// an enabled `parent` scope each recursion node records a
    /// `bisect[part_lo]` span with the cuts of both candidate directions.
    pub fn decompose_traced(
        &self,
        a: &CsrMatrix,
        cfg: &PartitionConfig,
        parent: &SpanHandle,
    ) -> Result<(Decomposition, EngineStats)> {
        if !a.is_square() {
            return Err(ModelError::NotSquare {
                nrows: u64::from(a.nrows()),
                ncols: u64::from(a.ncols()),
            });
        }
        if self.k == 0 {
            return Err(ModelError::Invalid("K must be >= 1".into()));
        }
        let coords: Vec<Coord> = a.iter().map(|(i, j, _)| (i, j)).collect();
        let mut owner = vec![0u32; coords.len()];
        let mut stats = EngineStats::default();
        if self.k > 1 && !coords.is_empty() {
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            let eps = PartitionConfig {
                epsilon: self.epsilon,
                ..PartitionConfig::default()
            }
            .per_level_epsilon(self.k);
            let ids: Vec<u32> = (0..coords.len() as u32).collect(); // lint: checked-cast — coords.len() <= nnz, u32-bounded
            let mut driver = MultilevelDriver::new(cfg.clone());
            recurse(
                &coords,
                &ids,
                self.k,
                0,
                eps,
                &mut driver,
                &mut rng,
                &mut owner,
                parent,
            );
            stats = driver.stats();
        }

        // Conformal vector owners: for each index j, pick the part with the
        // most nonzeros in row j + column j among the touching parts
        // (greedy volume minimization for the decode step).
        let n = a.nrows() as usize;
        let mut counts: Vec<std::collections::HashMap<u32, u32>> =
            vec![std::collections::HashMap::new(); n];
        for (e, &(i, j)) in coords.iter().enumerate() {
            *counts[i as usize].entry(owner[e]).or_insert(0) += 1;
            if i != j {
                *counts[j as usize].entry(owner[e]).or_insert(0) += 1;
            }
        }
        let vec_owner: Vec<u32> = counts
            .iter()
            .map(|c| {
                c.iter()
                    .max_by_key(|&(&p, &cnt)| (cnt, std::cmp::Reverse(p)))
                    .map(|(&p, _)| p)
                    .unwrap_or(0)
            })
            .collect();

        Ok((Decomposition::general(a, self.k, owner, vec_owner)?, stats))
    }
}

/// Builds the 1D hypergraph of a nonzero subset in one direction:
/// `by_rows = true` means vertices are the rows present in the subset and
/// nets are its columns (column-net model restricted to the submatrix).
/// Returns (hypergraph, group id per nonzero = local vertex of its
/// row/column).
fn directional_hypergraph(coords: &[Coord], ids: &[u32], by_rows: bool) -> (Hypergraph, Vec<u32>) {
    use std::collections::HashMap;
    let mut group_of: HashMap<u32, u32> = HashMap::new(); // row (or col) -> vertex
    let mut weights: Vec<u32> = Vec::new();
    let mut nets_of: std::collections::BTreeMap<u32, Vec<u32>> = Default::default(); // col (or row) -> pins
    let mut nz_group: Vec<u32> = Vec::with_capacity(ids.len());
    for &e in ids {
        let (i, j) = coords[e as usize];
        let (g_key, n_key) = if by_rows { (i, j) } else { (j, i) };
        let g = match group_of.get(&g_key) {
            Some(&g) => {
                weights[g as usize] += 1;
                g
            }
            None => {
                let g = weights.len() as u32; // lint: checked-cast — vertex count <= nnz, u32-bounded
                group_of.insert(g_key, g);
                weights.push(1);
                g
            }
        };
        nz_group.push(g);
        let pins = nets_of.entry(n_key).or_default();
        if pins.last() != Some(&g) && !pins.contains(&g) {
            pins.push(g);
        }
    }
    let mut builder = HypergraphBuilder::new();
    for &w in &weights {
        builder.add_vertex(w);
    }
    for (_, pins) in nets_of {
        builder.add_net(pins);
    }
    // Infallible: every pin is a group id in `0..weights.len()`, and
    // exactly that many vertices were added above, so `build` cannot fail.
    #[allow(clippy::expect_used)]
    let hg = builder.build().expect("pins in range by construction");
    (hg, nz_group)
}

/// Bisects a nonzero subset in one direction; returns (side per nonzero
/// of `ids`, cut). `targets` are nonzero-count targets.
fn bisect_direction(
    coords: &[Coord],
    ids: &[u32],
    by_rows: bool,
    targets: [f64; 2],
    eps: f64,
    driver: &mut MultilevelDriver,
    rng: &mut SmallRng,
) -> (Vec<u8>, u64) {
    let (hg, nz_group) = directional_hypergraph(coords, ids, by_rows);
    let (sides, cut) = driver.bisect(&hg, targets, eps, rng);
    let nz_sides: Vec<u8> = nz_group.iter().map(|&g| sides[g as usize]).collect();
    (nz_sides, cut)
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    coords: &[Coord],
    ids: &[u32],
    k: u32,
    part_lo: u32,
    eps: f64,
    driver: &mut MultilevelDriver,
    rng: &mut SmallRng,
    out: &mut [u32],
    span: &SpanHandle,
) {
    if k == 1 {
        for &e in ids {
            out[e as usize] = part_lo;
        }
        return;
    }
    let bspan = span.child_indexed("bisect", part_lo as u64);
    let scope = bspan.handle();
    driver.set_trace_parent(scope.clone());
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let total = ids.len() as f64;
    let targets = [total * k0 as f64 / k as f64, total * k1 as f64 / k as f64];

    // Try both split directions; keep the smaller cut (Mondriaan's rule).
    let (sides_r, cut_r) = bisect_direction(coords, ids, true, targets, eps, driver, rng);
    let (sides_c, cut_c) = bisect_direction(coords, ids, false, targets, eps, driver, rng);
    let sides = if cut_r <= cut_c { sides_r } else { sides_c };
    if bspan.is_enabled() {
        bspan.counter("nonzeros", ids.len() as u64);
        bspan.counter("cut_rowwise", cut_r);
        bspan.counter("cut_colwise", cut_c);
    }

    for side in [0u8, 1u8] {
        let child_ids: Vec<u32> = ids
            .iter()
            .zip(&sides)
            .filter(|&(_, &s)| s == side)
            .map(|(&e, _)| e)
            .collect();
        let (kk, lo) = if side == 0 {
            (k0, part_lo)
        } else {
            (k1, part_lo + k0)
        };
        recurse(coords, &child_ids, kk, lo, eps, driver, rng, out, &scope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CommStats;
    use fgh_sparse::gen::{self, ValueMode};

    fn matrix() -> CsrMatrix {
        gen::scale_free(
            200,
            2.5,
            ValueMode::Laplacian,
            &mut SmallRng::seed_from_u64(2),
        )
    }

    #[test]
    fn decompose_valid_and_balanced() {
        let a = matrix();
        let m = MondriaanModel::new(4, 0.03);
        let d = m.decompose(&a, &PartitionConfig::with_seed(1)).unwrap();
        d.validate(&a).unwrap();
        assert!(
            d.load_imbalance_percent() <= 6.0,
            "imbalance {}%",
            d.load_imbalance_percent()
        );
    }

    #[test]
    fn k1_trivial() {
        let a = matrix();
        let m = MondriaanModel::new(1, 0.03);
        let d = m.decompose(&a, &PartitionConfig::default()).unwrap();
        assert!(d.nonzero_owner.iter().all(|&p| p == 0));
        let s = CommStats::compute(&a, &d).unwrap();
        assert_eq!(s.total_volume(), 0);
    }

    #[test]
    fn beats_or_matches_pure_1d() {
        // Averaged over seeds, direction-adaptive recursive bisection
        // should not lose badly to a fixed row-wise 1D decomposition.
        let a = matrix();
        let mut mond = 0u64;
        let mut oned = 0u64;
        for seed in 0..3u64 {
            let m = MondriaanModel::new(8, 0.03);
            let d = m.decompose(&a, &PartitionConfig::with_seed(seed)).unwrap();
            mond += CommStats::compute(&a, &d).unwrap().total_volume();
            let out = crate::workload::decompose_workload(
                crate::workload::Workload::Spmv(&a),
                &crate::api::DecomposeConfig::new(crate::api::Model::Hypergraph1DColNet, 8)
                    .with_seed(seed),
            )
            .unwrap()
            .into_spmv()
            .unwrap();
            oned += out.stats.total_volume();
        }
        assert!(
            mond as f64 <= oned as f64 * 1.25,
            "mondriaan {mond} should be near/below 1D {oned}"
        );
    }

    #[test]
    fn directional_hypergraph_structure() {
        // 2 nonzeros in the same row -> one vertex of weight 2 (by rows).
        let coords = vec![(0u32, 1u32), (0, 2), (1, 2)];
        let ids = vec![0u32, 1, 2];
        let (hg, groups) = directional_hypergraph(&coords, &ids, true);
        assert_eq!(hg.num_vertices(), 2);
        assert_eq!(groups[0], groups[1]);
        assert_ne!(groups[0], groups[2]);
        // Column 2 net connects both row-vertices.
        let has_two_pin_net = (0..hg.num_nets()).any(|n| hg.net_size(n) == 2);
        assert!(has_two_pin_net);
        // Weights: row 0 vertex weighs 2 (two nonzeros), row 1 weighs 1.
        assert_eq!(hg.total_vertex_weight(), 3);
    }

    #[test]
    fn rectangular_rejected() {
        let a = CsrMatrix::from_coo(
            fgh_sparse::CooMatrix::from_triplets(2, 3, vec![(0, 0, 1.0)]).unwrap(),
        );
        assert!(MondriaanModel::new(2, 0.03)
            .decompose(&a, &PartitionConfig::default())
            .is_err());
    }

    #[test]
    fn determinism() {
        let a = matrix();
        let m = MondriaanModel::new(4, 0.03);
        let d1 = m.decompose(&a, &PartitionConfig::with_seed(9)).unwrap();
        let d2 = m.decompose(&a, &PartitionConfig::with_seed(9)).unwrap();
        assert_eq!(d1, d2);
    }
}
