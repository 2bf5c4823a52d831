//! Synthetic sparse-matrix generators.
//!
//! The paper evaluates on 14 real matrices (finite-difference problems,
//! power grids, network/interior-point LP matrices, finite-element models,
//! multistage stochastic programs). Without access to those collections we
//! synthesize structurally analogous patterns; each generator here mimics
//! one of those application domains. The [`crate::catalog`] module combines
//! them into analogues of the specific Table-1 matrices.
//!
//! All symmetric generators can emit Laplacian-style values
//! (`a_ii = degree_i + 1`, `a_ij = -1`), which makes the matrices symmetric
//! positive definite — handy for the CG solver example.

// Infallible-by-construction: every generator pushes indices it just drew
// from `0..nrows` / `0..ncols`, so `CooMatrix::push` cannot fail here. The
// generators are developer-facing (synthetic test data), not an untrusted
// input path.
#![allow(clippy::expect_used)]

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{CooMatrix, CsrMatrix};

/// How to assign numeric values to generated patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueMode {
    /// Every stored entry is `1.0`.
    Ones,
    /// Off-diagonal entries are `-1.0`, diagonals are `degree + 1.0`
    /// (diagonally dominant, SPD for symmetric patterns).
    Laplacian,
}

/// Builds a CSR matrix from a symmetric adjacency list (`adj[i]` lists the
/// neighbors of `i`, each undirected edge present in both lists), adding a
/// full diagonal.
fn from_adjacency(adj: Vec<Vec<u32>>, values: ValueMode) -> CsrMatrix {
    let n = adj.len() as u32; // lint: checked-cast — generator sizes are u32-bounded
    let nnz: usize = adj.iter().map(|a| a.len()).sum::<usize>() + n as usize;
    let mut coo = CooMatrix::with_capacity(n, n, nnz);
    for (i, neigh) in adj.iter().enumerate() {
        let i = i as u32; // lint: checked-cast — i < adj.len() = n, a u32
        let deg = neigh.len() as f64;
        let dv = match values {
            ValueMode::Ones => 1.0,
            ValueMode::Laplacian => deg + 1.0,
        };
        coo.push(i, i, dv).expect("in bounds");
        for &j in neigh {
            let ov = match values {
                ValueMode::Ones => 1.0,
                ValueMode::Laplacian => -1.0,
            };
            coo.push(i, j, ov).expect("in bounds");
        }
    }
    CsrMatrix::from_coo(coo)
}

/// Uniformly random `nrows x ncols` pattern with approximately `nnz`
/// nonzeros (duplicates collapse). When `ensure_diag` is set (square
/// matrices only) every `a_ii` is added.
pub fn random_general(
    nrows: u32,
    ncols: u32,
    nnz: usize,
    ensure_diag: bool,
    rng: &mut impl Rng,
) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(nrows, ncols, nnz + nrows as usize);
    if ensure_diag && nrows == ncols {
        for i in 0..nrows {
            coo.push(i, i, 1.0).expect("in bounds");
        }
    }
    for _ in 0..nnz {
        let i = rng.gen_range(0..nrows);
        let j = rng.gen_range(0..ncols);
        coo.push(i, j, rng.gen_range(-1.0..1.0)).expect("in bounds");
    }
    CsrMatrix::from_coo(coo)
}

/// Symmetric banded matrix of order `n` with half-bandwidth `half_bw`;
/// each in-band off-diagonal pair is kept with probability `density`.
pub fn banded(
    n: u32,
    half_bw: u32,
    density: f64,
    values: ValueMode,
    rng: &mut impl Rng,
) -> CsrMatrix {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
    for i in 0..n {
        for d in 1..=half_bw {
            if i + d < n && rng.gen_bool(density) {
                adj[i as usize].push(i + d);
                adj[(i + d) as usize].push(i);
            }
        }
    }
    from_adjacency(adj, values)
}

/// 2D 5-point finite-difference stencil on an `nx x ny` grid (order
/// `nx * ny`), with each off-diagonal link kept with probability `keep`
/// (use `1.0` for the plain Laplacian). Models matrices like `sherman3`.
pub fn grid5(nx: u32, ny: u32, keep: f64, values: ValueMode, rng: &mut impl Rng) -> CsrMatrix {
    grid_stencil(nx, ny, 1, false, keep, values, rng)
}

/// Wide-stencil grid: couples every node within Chebyshev radius `radius`
/// (a `(2r+1)²−1`-point stencil). Mimics higher-order FE discretizations
/// such as `vibrobox` (average ≈ 25–28 nonzeros per row for `radius = 2`).
pub fn wide_stencil(
    nx: u32,
    ny: u32,
    radius: u32,
    keep: f64,
    values: ValueMode,
    rng: &mut impl Rng,
) -> CsrMatrix {
    grid_stencil(nx, ny, radius, true, keep, values, rng)
}

fn grid_stencil(
    nx: u32,
    ny: u32,
    radius: u32,
    diagonal_links: bool,
    keep: f64,
    values: ValueMode,
    rng: &mut impl Rng,
) -> CsrMatrix {
    let n = (nx as usize) * (ny as usize);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let idx = |x: u32, y: u32| (y as usize * nx as usize + x as usize) as u32; // lint: checked-cast — grid has nx*ny cells, validated to fit u32
    for y in 0..ny {
        for x in 0..nx {
            let u = idx(x, y);
            // Enumerate only "forward" offsets so each undirected edge is
            // considered once.
            for dy in 0..=radius {
                let lo_dx = if dy == 0 { 1 } else { -(radius as i64) };
                for dx in lo_dx..=radius as i64 {
                    if dy == 0 && dx <= 0 {
                        continue;
                    }
                    if !diagonal_links && dx != 0 && dy != 0 {
                        continue;
                    }
                    let nxp = x as i64 + dx;
                    let nyp = y as i64 + dy as i64;
                    if nxp < 0 || nxp >= nx as i64 || nyp >= ny as i64 {
                        continue;
                    }
                    if keep < 1.0 && !rng.gen_bool(keep) {
                        continue;
                    }
                    let v = idx(nxp as u32, nyp as u32); // lint: checked-cast — neighbour coords bounds-checked against nx/ny
                    adj[u as usize].push(v);
                    adj[v as usize].push(u);
                }
            }
        }
    }
    from_adjacency(adj, values)
}

/// Power-transmission-network topology: a random spanning tree over `n`
/// buses plus `extra` locally-biased reinforcement edges, degree-capped at
/// `max_degree`. Low, tightly bounded degrees — the structure of `bcspwr10`.
pub fn power_grid(
    n: u32,
    extra: usize,
    max_degree: usize,
    values: ValueMode,
    rng: &mut impl Rng,
) -> CsrMatrix {
    assert!(n > 0, "power_grid needs at least one bus");
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
    // Random tree: node i attaches to a random earlier node, biased toward
    // recent nodes to create long stringy feeders like real grids.
    for i in 1..n {
        let lo = i.saturating_sub(50);
        let p = rng.gen_range(lo..i);
        adj[i as usize].push(p);
        adj[p as usize].push(i);
    }
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra && attempts < extra * 20 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        // Locally biased second endpoint.
        let span = 200.min(n as usize - 1) as u32; // lint: checked-cast — min with 200
        let off = rng.gen_range(1..=span);
        let v = if rng.gen_bool(0.5) {
            u.saturating_sub(off)
        } else {
            (u + off).min(n - 1)
        };
        if u == v
            || adj[u as usize].len() >= max_degree
            || adj[v as usize].len() >= max_degree
            || adj[u as usize].contains(&v)
        {
            continue;
        }
        adj[u as usize].push(v);
        adj[v as usize].push(u);
        added += 1;
    }
    from_adjacency(adj, values)
}

/// Scale-free (Barabási–Albert style preferential attachment) graph with
/// `edges_per_node` links added per new node. Produces the skewed degree
/// distributions of network-LP normal-equation matrices (`ken`, `cre`,
/// `cq9`, `co9`, `nl`, `world`, `mod2`): most rows sparse, a few hubs with
/// hundreds of nonzeros.
pub fn scale_free(n: u32, edges_per_node: f64, values: ValueMode, rng: &mut impl Rng) -> CsrMatrix {
    assert!(n >= 2, "scale_free needs at least two nodes");
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
    // Endpoint multiset for preferential attachment.
    let mut endpoints: Vec<u32> = Vec::with_capacity((n as usize) * (edges_per_node as usize + 1));
    adj[0].push(1);
    adj[1].push(0);
    endpoints.push(0);
    endpoints.push(1);
    let m_floor = edges_per_node.floor() as usize;
    let frac = edges_per_node - m_floor as f64;
    for i in 2..n {
        let m = m_floor + usize::from(rng.gen_bool(frac));
        let m = m.max(1).min(i as usize);
        let mut chosen: Vec<u32> = Vec::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m && guard < 50 * m {
            guard += 1;
            // Mix preferential attachment with uniform choice to soften the
            // hub tail slightly (matches the observed max degrees better).
            let t = if rng.gen_bool(0.8) && !endpoints.is_empty() {
                endpoints[rng.gen_range(0..endpoints.len())]
            } else {
                rng.gen_range(0..i)
            };
            if t != i && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for t in chosen {
            adj[i as usize].push(t);
            adj[t as usize].push(i);
            endpoints.push(i);
            endpoints.push(t);
        }
    }
    from_adjacency(adj, values)
}

/// Multistage block-structured matrix: `blocks` diagonal blocks of size
/// `block_size`, each internally banded (half-bandwidth `half_bw`), with
/// `links_per_block` interface rows per block that couple densely
/// (`link_span` targets) into the next block. Mimics multistage stochastic
/// programs (`pltexpA4-6`) and, with hub links, `finan512`.
pub fn block_multistage(
    blocks: u32,
    block_size: u32,
    half_bw: u32,
    links_per_block: u32,
    link_span: u32,
    values: ValueMode,
    rng: &mut impl Rng,
) -> CsrMatrix {
    let n = (blocks as usize) * (block_size as usize);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let base = |b: u32| b as usize * block_size as usize;
    for b in 0..blocks {
        let s = base(b) as u32; // lint: checked-cast — block base index < n, a u32
                                // Banded interior.
        for i in 0..block_size {
            for d in 1..=half_bw {
                if i + d < block_size {
                    let (u, v) = ((s + i) as usize, (s + i + d) as usize);
                    adj[u].push(s + i + d);
                    adj[v].push(s + i);
                }
            }
        }
        // Interface rows coupling into the next block.
        if b + 1 < blocks {
            let ns = base(b + 1) as u32; // lint: checked-cast — block base index < n, a u32
            for l in 0..links_per_block {
                let u = s + rng.gen_range(0..block_size.max(1));
                let _ = l;
                let span = link_span.min(block_size);
                let mut targets: Vec<u32> = (0..block_size).collect();
                targets.shuffle(rng);
                for &t in targets.iter().take(span as usize) {
                    let v = ns + t;
                    if !adj[u as usize].contains(&v) {
                        adj[u as usize].push(v);
                        adj[v as usize].push(u);
                    }
                }
            }
        }
    }
    from_adjacency(adj, values)
}

/// Ring lattice (each node linked to its `k` nearest successors) plus
/// `hubs` hub nodes each wired to `hub_degree` uniformly random nodes.
/// Mimics `finan512` (min degree 3, a few degree-1400+ hubs).
pub fn lattice_with_hubs(
    n: u32,
    k: u32,
    hubs: u32,
    hub_degree: u32,
    values: ValueMode,
    rng: &mut impl Rng,
) -> CsrMatrix {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
    for i in 0..n {
        for d in 1..=k {
            let j = (i + d) % n;
            adj[i as usize].push(j);
            adj[j as usize].push(i);
        }
    }
    for _ in 0..hubs {
        let h = rng.gen_range(0..n);
        let mut added = 0;
        let mut guard = 0;
        while added < hub_degree && guard < hub_degree * 10 {
            guard += 1;
            let t = rng.gen_range(0..n);
            if t != h && !adj[h as usize].contains(&t) {
                adj[h as usize].push(t);
                adj[t as usize].push(h);
                added += 1;
            }
        }
    }
    from_adjacency(adj, values)
}

/// A structure-only description of a huge symmetric banded pattern: full
/// diagonal plus mirrored bands at the given offsets. Nothing is stored
/// per entry — `O(bands)` memory regardless of `n` — so parameterizations
/// whose fine-grain hypergraphs exceed `u32::MAX` *pins* are describable
/// (and streamable to disk) without a multi-gigabyte fixture. The u64 CI
/// path materializes small instances with [`BigPattern::to_csr`] and
/// asserts the scaling arithmetic on the huge ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigPattern {
    n: u64,
    bands: Vec<u64>,
}

impl BigPattern {
    /// A pattern of order `n` with the main diagonal and symmetric bands
    /// at the given offsets (deduplicated; offsets `0` or `>= n` are
    /// ignored).
    pub fn new(n: u64, bands: &[u64]) -> Self {
        let mut bands: Vec<u64> = bands.iter().copied().filter(|&d| d > 0 && d < n).collect();
        bands.sort_unstable();
        bands.dedup();
        BigPattern { n, bands }
    }

    /// Matrix order.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exact nonzero count: `n` diagonal entries plus `2 (n - d)` per band.
    pub fn nnz(&self) -> u64 {
        self.n + self.bands.iter().map(|&d| 2 * (self.n - d)).sum::<u64>()
    }

    /// Pin count of the fine-grain hypergraph this pattern induces: every
    /// nonzero joins one row net and one column net, and the full diagonal
    /// means no dummy vertices — `2 · nnz` exactly.
    pub fn fine_grain_pins(&self) -> u64 {
        2 * self.nnz()
    }

    /// The index width [`crate::IndexWidth::select`] assigns this pattern.
    pub fn width(&self) -> crate::IndexWidth {
        crate::IndexWidth::select(self.n, self.n, self.nnz())
    }

    /// Iterates the entries in row-major order with sorted columns, values
    /// implicitly `1.0`. Streaming: `O(bands)` transient state.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.n).flat_map(move |i| {
            let lower = self
                .bands
                .iter()
                .rev()
                .filter_map(move |&d| i.checked_sub(d));
            let upper = self.bands.iter().filter_map(move |&d| {
                let j = i + d;
                (j < self.n).then_some(j)
            });
            lower
                .chain(std::iter::once(i))
                .chain(upper)
                .map(move |j| (i, j))
        })
    }

    /// Materializes the pattern as CSR at an explicit width (all values
    /// `1.0`). Intended for CI-sized parameterizations; a pattern too big
    /// for the width is a typed [`crate::SparseError::TooLarge`].
    pub fn to_csr<I: crate::IndexType>(&self) -> crate::Result<CsrMatrix<I>> {
        let n = I::checked(self.n, "matrix order")?;
        let nnz = usize::try_from(self.nnz()).map_err(|_| crate::SparseError::TooLarge {
            what: "nonzero count",
            value: self.nnz(),
            max: usize::MAX as u64,
        })?;
        let mut coo = CooMatrix::with_capacity(n, n, nnz);
        for (i, j) in self.entries() {
            coo.push(I::from_index(i as usize), I::from_index(j as usize), 1.0)
                .expect("band entries are in bounds");
        }
        Ok(CsrMatrix::from_coo(coo))
    }

    /// Streams the pattern as a `pattern symmetric` Matrix Market document
    /// (lower triangle plus diagonal), never holding more than one line in
    /// memory — this is how an on-disk fixture beyond RAM size is written.
    pub fn write_matrix_market_pattern(&self, mut w: impl std::io::Write) -> crate::Result<()> {
        writeln!(w, "%%MatrixMarket matrix coordinate pattern symmetric")?;
        writeln!(w, "% BigPattern n={} bands={:?}", self.n, self.bands)?;
        let stored = self.n + self.bands.iter().map(|&d| self.n - d).sum::<u64>();
        writeln!(w, "{} {} {}", self.n, self.n, stored)?;
        for i in 0..self.n {
            // Lower triangle, ascending columns, 1-based.
            for &d in self.bands.iter().rev() {
                if let Some(j) = i.checked_sub(d) {
                    writeln!(w, "{} {}", i + 1, j + 1)?;
                }
            }
            writeln!(w, "{} {}", i + 1, i + 1)?;
        }
        w.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MatrixStats;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn random_general_bounds_and_diag() {
        let a = random_general(50, 50, 200, true, &mut rng());
        assert!(a.has_full_diagonal());
        assert!(a.nnz() >= 50);
        assert!(a.nnz() <= 250);
    }

    #[test]
    fn grid5_is_symmetric_spd_shape() {
        let a = grid5(10, 10, 1.0, ValueMode::Laplacian, &mut rng());
        assert_eq!(a.nrows(), 100);
        assert!(a.pattern_symmetric());
        assert!(a.has_full_diagonal());
        // Interior nodes have 4 neighbors + diagonal.
        let s = MatrixStats::compute(&a);
        assert_eq!(s.row_max, 5);
        assert_eq!(s.row_min, 3);
    }

    #[test]
    fn wide_stencil_degree() {
        let a = wide_stencil(9, 9, 2, 1.0, ValueMode::Ones, &mut rng());
        // Center node has 24 neighbors + self.
        let center = 4 * 9 + 4;
        assert_eq!(a.row_nnz(center), 25);
        assert!(a.pattern_symmetric());
    }

    #[test]
    fn power_grid_connected_low_degree() {
        let a = power_grid(500, 120, 14, ValueMode::Ones, &mut rng());
        let s = MatrixStats::compute(&a);
        assert!(s.row_max <= 15, "degree cap exceeded: {}", s.row_max);
        assert!(s.row_min >= 2, "tree guarantees degree >= 1 plus diagonal");
        assert!(a.pattern_symmetric());
        assert!(a.has_full_diagonal());
    }

    #[test]
    fn scale_free_has_hubs() {
        let a = scale_free(2000, 3.0, ValueMode::Ones, &mut rng());
        let s = MatrixStats::compute(&a);
        assert!(s.row_max > 30, "expected hub rows, max was {}", s.row_max);
        assert!(a.pattern_symmetric());
        assert!(
            (s.row_avg - 7.0).abs() < 2.0,
            "avg {} should be near 2m+1",
            s.row_avg
        );
    }

    #[test]
    fn laplacian_values_are_spd_like() {
        let a = grid5(6, 6, 1.0, ValueMode::Laplacian, &mut rng());
        for i in 0..a.nrows() {
            let diag = a.get(i, i).unwrap();
            let off: f64 = a
                .row_vals(i)
                .iter()
                .zip(a.row_cols(i))
                .filter(|(_, &j)| j != i)
                .map(|(v, _)| v.abs())
                .sum();
            assert!(diag > off, "row {i} not diagonally dominant");
        }
    }

    #[test]
    fn block_multistage_structure() {
        let a = block_multistage(4, 100, 3, 2, 30, ValueMode::Ones, &mut rng());
        assert_eq!(a.nrows(), 400);
        assert!(a.pattern_symmetric());
        // No entry may couple non-adjacent blocks.
        for (i, j, _) in a.iter() {
            let (bi, bj) = (i / 100, j / 100);
            assert!(
                bi.abs_diff(bj) <= 1,
                "entry ({i},{j}) spans non-adjacent blocks"
            );
        }
    }

    #[test]
    fn lattice_with_hubs_degrees() {
        let a = lattice_with_hubs(1000, 2, 3, 200, ValueMode::Ones, &mut rng());
        let s = MatrixStats::compute(&a);
        assert!(
            s.row_min >= 5,
            "lattice base degree 4 + diag, got {}",
            s.row_min
        );
        assert!(
            s.row_max >= 150,
            "hubs should be high degree, got {}",
            s.row_max
        );
        assert!(a.pattern_symmetric());
    }

    #[test]
    fn big_pattern_counts_and_entries() {
        let p = BigPattern::new(6, &[1, 3, 0, 99, 3]);
        assert_eq!(p.n(), 6);
        // diag 6 + band1 2*5 + band3 2*3 = 22
        assert_eq!(p.nnz(), 22);
        assert_eq!(p.fine_grain_pins(), 44);
        assert_eq!(p.entries().count(), 22);
        let a: CsrMatrix<u64> = p.to_csr().unwrap();
        assert_eq!(a.nnz(), 22);
        assert!(a.pattern_symmetric());
        assert!(a.has_full_diagonal());
        // Same matrix at u32 width.
        let b: CsrMatrix<u32> = p.to_csr().unwrap();
        assert_eq!(a.nnz(), b.nnz());
    }

    #[test]
    fn big_pattern_crosses_u32_pin_threshold_cheaply() {
        // ~3e9 nonzeros from five bands on a 268M-order matrix: the
        // fine-grain hypergraph has > u32::MAX pins, yet the descriptor is
        // a few dozen bytes.
        let n = 1u64 << 28;
        let p = BigPattern::new(n, &[1, 2, 7, 64, 4096]);
        assert!(
            p.fine_grain_pins() > u32::MAX as u64,
            "{}",
            p.fine_grain_pins()
        );
        assert_eq!(p.width(), crate::IndexWidth::U64);
        // Entry enumeration is lazy — peeking at the stream allocates
        // nothing proportional to nnz.
        assert_eq!(p.entries().nth(6), Some((1, 0)));
    }

    #[test]
    fn big_pattern_streams_matrix_market() {
        let p = BigPattern::new(5, &[2]);
        let mut buf = Vec::new();
        p.write_matrix_market_pattern(&mut buf).unwrap();
        let coo = crate::io::read_matrix_market_from(buf.as_slice()).unwrap();
        let a = CsrMatrix::from_coo(coo);
        let direct: CsrMatrix<u32> = p.to_csr().unwrap();
        assert_eq!(a, direct);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a1 = scale_free(500, 2.5, ValueMode::Ones, &mut SmallRng::seed_from_u64(7));
        let a2 = scale_free(500, 2.5, ValueMode::Ones, &mut SmallRng::seed_from_u64(7));
        assert_eq!(a1, a2);
        let a3 = scale_free(500, 2.5, ValueMode::Ones, &mut SmallRng::seed_from_u64(8));
        assert_ne!(a1, a3);
    }
}
