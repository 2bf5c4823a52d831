//! Geometric (coordinate-based) initial bisection.
//!
//! Fine-grain vertices carry natural 2D positions — the `(row, col)` of
//! the nonzero they represent — and Fagginger Auer & Bisseling observed
//! (arXiv 1105.4490) that a 1D cut along the longest axis of that point
//! cloud is a strong, nearly free starting bisection for such models.
//! The engine projects the top-level coordinates through every
//! coarsening level by weighted centroid, so the coarsest substrate
//! still sees the geometry of the nonzeros it aggregates.
//!
//! The sweep itself is deterministic: free vertices are ordered by their
//! coordinate along the longest axis (ties broken by vertex id via the
//! stable sort), and side 0 is filled from the low end up to its weight
//! target — a weighted-median cut. Randomness enters only through the
//! FM refinement that follows (see [`crate::initial`]), so multiple tries
//! still explore distinct local optima while the geometric seed stays
//! reproducible.

use fgh_sparse::IndexType;

use crate::engine::Substrate;

/// The geometric seeder: a longest-axis weighted-median sweep over the
/// `free` vertices (all on side 0), placing every one past the cut on
/// side 1. `coords[v]` is the position of *local* vertex `v` (already
/// projected to this substrate's level); `fixed_w` is the fixed
/// vertices' weight per side.
// lint: checked-index — coords and side have length num_vertices and free holds vertex ids < num_vertices (engine contract); targets and fixed_w are [_; 2] indexed by constant 0
pub(crate) fn sweep<S: Substrate>(
    sub: &S,
    side: &mut [u8],
    free: &mut [S::Ix],
    fixed_w: [u64; 2],
    coords: &[(f32, f32)],
    targets: [f64; 2],
) {
    // Longest axis of the free vertices' bounding box. A degenerate box
    // (single row/column, or all vertices coincident) still orders
    // deterministically: the sweep key collapses to equal values and the
    // stable sort leaves vertices in id order.
    let mut lo = (f32::INFINITY, f32::INFINITY);
    let mut hi = (f32::NEG_INFINITY, f32::NEG_INFINITY);
    for &v in free.iter() {
        let (x, y) = coords[v.index()];
        lo = (lo.0.min(x), lo.1.min(y));
        hi = (hi.0.max(x), hi.1.max(y));
    }
    let axis = usize::from(hi.1 - lo.1 > hi.0 - lo.0);
    let key = |v: S::Ix| {
        let c = coords[v.index()];
        if axis == 0 {
            c.0
        } else {
            c.1
        }
    };
    // Stable sort: equal coordinates keep ascending-id order, so the cut
    // position is deterministic without a secondary key.
    free.sort_by(|&a, &b| key(a).total_cmp(&key(b)));

    // Weighted-median sweep: fill side 0 from the low end of the axis
    // until it reaches its target, everything past the cut goes to 1.
    // Fixed-0 vertices count toward side 0's fill regardless of position.
    let target0 = targets[0].floor().max(0.0) as u64;
    let mut w0 = fixed_w[0];
    for &v in free.iter() {
        if w0 < target0 {
            w0 += sub.vertex_weight(v) as u64;
        } else {
            side[v.index()] = 1;
        }
    }
}

/// Projects fine-level coordinates onto a coarse level: each coarse
/// vertex sits at the weight-centroid of the fine vertices contracted
/// into it. `map[v]` is the coarse id of fine vertex `v`; `nc` is the
/// coarse vertex count. Zero-weight vertices (fine-grain dummies) count
/// as weight 1 so clusters made only of dummies still get a position.
// lint: checked-index — fine_coords has length map.len() == fine vertex count; coarse ids in map are < nc (coarsening contract) and sx/sy/sw are sized nc
pub(crate) fn project_centroids<S: Substrate>(
    fine: &S,
    map: &[S::Ix],
    nc: usize,
    fine_coords: &[(f32, f32)],
) -> Vec<(f32, f32)> {
    let mut sx = vec![0.0f64; nc];
    let mut sy = vec![0.0f64; nc];
    let mut sw = vec![0.0f64; nc];
    for (v, &c) in map.iter().enumerate() {
        let ci = c.index();
        let w = (fine.vertex_weight(S::Ix::from_index(v)) as f64).max(1.0);
        let (x, y) = fine_coords[v];
        sx[ci] += w * x as f64;
        sy[ci] += w * y as f64;
        sw[ci] += w;
    }
    (0..nc)
        .map(|c| {
            if sw[c] > 0.0 {
                // lint: checked-cast — a weighted mean of f32 coords lies inside their range; f64→f32 only rounds
                ((sx[c] / sw[c]) as f32, (sy[c] / sw[c]) as f32)
            } else {
                (0.0, 0.0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::LevelArena;
    use crate::coarsen::FREE;
    use crate::config::{InitialScheme, PartitionConfig};
    use crate::initial::initial_best_in;
    use crate::level::EngineStats;
    use fgh_hypergraph::Hypergraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// One geometric try with no FM: the raw sweep.
    fn raw_sweep(
        hg: &Hypergraph,
        coords: &[(f32, f32)],
        fixed: &[i8],
        targets: [f64; 2],
    ) -> Vec<u8> {
        let cfg = PartitionConfig {
            initial: InitialScheme::Geometric,
            initial_tries: 1,
            fm_passes: 0,
            ..Default::default()
        };
        initial_best_in(
            hg,
            fixed,
            targets,
            0.0,
            &cfg,
            Some(coords),
            &mut SmallRng::seed_from_u64(1),
            &mut LevelArena::new(),
            &mut EngineStats::default(),
        )
    }

    /// Two point clusters along x, connected internally: the sweep must
    /// cut between them.
    #[test]
    fn sweep_cuts_between_clusters() {
        // Vertices 0..4 near x=0, 4..8 near x=100; a chain net inside
        // each cluster and one bridge net across.
        let nets: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![3, 4]];
        let hg = Hypergraph::<u32>::from_nets(8, &nets).unwrap();
        let coords: Vec<(f32, f32)> = (0..8)
            .map(|v| {
                if v < 4 {
                    (v as f32, 0.0)
                } else {
                    (100.0 + v as f32, 0.0)
                }
            })
            .collect();
        let side = raw_sweep(&hg, &coords, &[FREE; 8], [4.0, 4.0]);
        assert_eq!(side, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    /// All coordinates identical (a single matrix entry replicated): the
    /// sweep degenerates to an id-order fill and must still balance.
    #[test]
    fn degenerate_coincident_coords_balance() {
        let hg = Hypergraph::<u32>::from_nets(6, &[vec![0, 1], vec![2, 3]]).unwrap();
        let coords = vec![(7.0, 7.0); 6];
        let side = raw_sweep(&hg, &coords, &[FREE; 6], [3.0, 3.0]);
        assert_eq!(side, vec![0, 0, 0, 1, 1, 1]);
    }

    /// Fixed vertices keep their side no matter where they sit.
    #[test]
    fn sweep_respects_fixed() {
        let hg = Hypergraph::<u32>::from_nets(4, &[vec![0, 1, 2, 3]]).unwrap();
        let coords: Vec<(f32, f32)> = (0..4).map(|v| (v as f32, 0.0)).collect();
        // Vertex 0 (lowest x) pinned to side 1; vertex 3 (highest) to 0.
        let fixed = vec![1, FREE, FREE, 0];
        let side = raw_sweep(&hg, &coords, &fixed, [2.0, 2.0]);
        assert_eq!(side[0], 1);
        assert_eq!(side[3], 0);
    }

    #[test]
    fn centroids_are_weighted_means() {
        let hg = Hypergraph::<u32>::from_nets_weighted(
            4,
            &[vec![0u32, 1], vec![2, 3]],
            vec![1, 3, 2, 2],
            vec![1, 1],
        )
        .unwrap();
        let coords = vec![(0.0, 0.0), (4.0, 0.0), (0.0, 2.0), (0.0, 6.0)];
        // 0,1 -> coarse 0; 2,3 -> coarse 1.
        let map: Vec<u32> = vec![0, 0, 1, 1];
        let out = project_centroids(&hg, &map, 2, &coords);
        assert_eq!(out[0], (3.0, 0.0)); // (1*0 + 3*4) / 4
        assert_eq!(out[1], (0.0, 4.0)); // (2*2 + 2*6) / 4
    }
}
