//! Differential tests pinning the fused table-driven `apply_move` kernel
//! to the historical branchy kernel, bucket state included.
//!
//! The fused kernel must be *bit-equivalent* to the original four-branch
//! form: recorded per-seed objectives (`golden_cutsize.rs` in `fgh-core`)
//! depend on FM tie-breaking, which in turn depends on the exact sequence
//! of gain-bucket operations — including "redundant" double adjusts whose
//! intermediate bucket hop re-raises the buckets' cached max index and
//! re-exposes vertices an earlier pop skipped as inadmissible.
//!
//! The kernel finds a side's lone pin through the side's pin XOR
//! (`NetSideCounts::px`), so every move also checks that XOR against a
//! recount from scratch.

use fgh_hypergraph::Hypergraph;
use fgh_partition::engine::{NetSideCounts, Substrate};
use fgh_partition::gain::GainBuckets;
use fgh_partition::LevelArena;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The pre-rewrite kernel, verbatim: one pin scan per firing λ-transition
/// branch. Kept as the oracle for the fused implementation.
fn apply_move_legacy(
    hg: &Hypergraph<u32>,
    cs: &mut NetSideCounts<u32>,
    side: &[u8],
    v: u32,
    cut: &mut u64,
    adjust: &mut dyn FnMut(u32, i64),
) {
    let s = side[v as usize] as usize;
    let t = 1 - s;
    for &n in hg.nets(v) {
        let ni = n as usize;
        let c = hg.net_cost(n) as i64;
        let (tc, fc) = (cs.pc[t][ni], cs.pc[s][ni]);
        if tc == 0 {
            *cut += c as u64;
            for &u in hg.pins(n) {
                if u != v {
                    adjust(u, c);
                }
            }
        } else if tc == 1 {
            for &u in hg.pins(n) {
                if u != v && side[u as usize] as usize == t {
                    adjust(u, -c);
                }
            }
        }
        let fc_after = fc as usize - 1;
        if fc_after == 0 {
            *cut -= c as u64;
            for &u in hg.pins(n) {
                if u != v {
                    adjust(u, -c);
                }
            }
        } else if fc_after == 1 {
            for &u in hg.pins(n) {
                if u != v && side[u as usize] as usize == s {
                    adjust(u, c);
                }
            }
        }
        cs.pc[s][ni] = fc_after as u32;
        cs.pc[t][ni] = tc + 1;
    }
}

/// Net sizes biased toward 2 pins: their collapse transitions carry the
/// historical double-adjust the fused kernel must reproduce.
fn two_pin_biased(rng: &mut SmallRng) -> usize {
    if rng.gen_bool(0.6) {
        2
    } else {
        rng.gen_range(1..=8usize)
    }
}

/// Net sizes biased toward 3 and 4 pins, so a lone pin on either side —
/// the case the kernel reads from the side XOR — is common.
fn lone_pin_biased(rng: &mut SmallRng) -> usize {
    if rng.gen_bool(0.7) {
        rng.gen_range(3..=4usize)
    } else {
        rng.gen_range(1..=8usize)
    }
}

const GENERATORS: [fn(&mut SmallRng) -> usize; 2] = [two_pin_biased, lone_pin_biased];

fn random_instance(seed: u64, net_size: fn(&mut SmallRng) -> usize) -> (Hypergraph<u32>, Vec<u8>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nv: u32 = 40;
    let nn = 80;
    let mut nets = Vec::new();
    for _ in 0..nn {
        let size = net_size(&mut rng);
        let mut pins: Vec<u32> = Vec::new();
        while pins.len() < size {
            let v = rng.gen_range(0..nv);
            if !pins.contains(&v) {
                pins.push(v);
            }
        }
        nets.push(pins);
    }
    let weights: Vec<u32> = (0..nv).map(|_| rng.gen_range(1..4u32)).collect();
    let costs: Vec<u32> = nets.iter().map(|_| rng.gen_range(1..4u32)).collect();
    let hg = Hypergraph::from_nets_weighted(nv, &nets, weights, costs).unwrap();
    let side: Vec<u8> = (0..nv).map(|_| rng.gen_range(0..2u8)).collect();
    (hg, side)
}

/// Asserts that `cs.px[s][n]` is the XOR of net `n`'s pins on side `s`,
/// recounted from scratch, for both sides and every net.
fn assert_px_fresh(hg: &Hypergraph<u32>, cs: &NetSideCounts<u32>, side: &[u8], ctx: &str) {
    for n in 0..hg.num_nets() {
        let mut x = [0u32; 2];
        for &u in hg.pins(n) {
            x[side[u as usize] as usize] ^= u;
        }
        assert_eq!(
            [cs.px[0][n as usize], cs.px[1][n as usize]],
            x,
            "{ctx}: px of net {n}"
        );
    }
}

fn drain(b: &mut GainBuckets<u32>) -> Vec<(u32, i64)> {
    let mut out = Vec::new();
    while let Some(x) = b.pop_max_where(|_| true) {
        out.push(x);
    }
    out
}

/// Random move sequences: cut, side counts, and the full bucket pop order
/// must match the legacy kernel after every move.
#[test]
fn fused_apply_move_matches_legacy_bucket_state() {
    for (seed, gen) in (0..200u64).flat_map(|s| GENERATORS.map(|g| (s, g))) {
        let (hg, side) = random_instance(seed, gen);
        let nv = hg.num_vertices();
        let mut rng = SmallRng::seed_from_u64(!seed);

        let mut arena = LevelArena::new();
        let (mut cs_new, mut cut_new) = hg.cut_state(&side, &mut arena);
        let (mut cs_old, mut cut_old) = hg.cut_state(&side, &mut arena);

        let mut side_new = side.clone();
        let mut side_old = side;
        let bound = hg.max_gain_bound();
        let mut b_new: GainBuckets<u32> = GainBuckets::new(nv as usize, bound);
        let mut b_old: GainBuckets<u32> = GainBuckets::new(nv as usize, bound);
        for v in 0..nv {
            let g = Substrate::gain(&hg, &cs_new, &side_new, v);
            b_new.insert(v, g);
            b_old.insert(v, g);
        }

        for step in 0..35 {
            let v = rng.gen_range(0..nv);
            b_new.remove(v);
            b_old.remove(v);
            Substrate::apply_move_gains(&hg, &mut cs_new, &side_new, v, &mut cut_new, |u, d| {
                b_new.adjust(u, d)
            });
            apply_move_legacy(&hg, &mut cs_old, &side_old, v, &mut cut_old, &mut |u, d| {
                b_old.adjust(u, d)
            });
            side_new[v as usize] ^= 1;
            side_old[v as usize] ^= 1;
            assert_eq!(cut_new, cut_old, "seed {seed} step {step}: cut diverged");
            assert_eq!(cs_new.pc, cs_old.pc, "seed {seed} step {step}: pc diverged");
            assert_px_fresh(&hg, &cs_new, &side_new, &format!("seed {seed} step {step}"));
            // Compare full pop order by draining and re-inserting in
            // reverse, which reconstructs the exact list state.
            let dn = drain(&mut b_new);
            let d_o = drain(&mut b_old);
            assert_eq!(dn, d_o, "seed {seed} step {step}: bucket order diverged");
            for &(u, g) in dn.iter().rev() {
                b_new.insert(u, g);
                b_old.insert(u, g);
            }
        }
    }
}

/// FM-shaped pass with an admissibility predicate that skips vertices:
/// `pop_max_where` lowers the cached max bucket past skipped vertices, so
/// the pop sequence is sensitive to *intermediate* bucket hops of
/// double-adjusts — the channel a naive coalesced kernel gets wrong.
#[test]
fn fused_apply_move_matches_legacy_under_admissibility_skips() {
    for (seed, gen) in (0..200u64).flat_map(|s| GENERATORS.map(|g| (s, g))) {
        let (hg, side) = random_instance(seed ^ 0x9e37, gen);
        let nv = hg.num_vertices();

        let mut arena = LevelArena::new();
        let (mut cs_new, mut cut_new) = hg.cut_state(&side, &mut arena);
        let (mut cs_old, mut cut_old) = hg.cut_state(&side, &mut arena);

        let mut side_new = side.clone();
        let mut side_old = side;
        let bound = hg.max_gain_bound();
        let mut b_new: GainBuckets<u32> = GainBuckets::new(nv as usize, bound);
        let mut b_old: GainBuckets<u32> = GainBuckets::new(nv as usize, bound);
        for v in 0..nv {
            let g = Substrate::gain(&hg, &cs_new, &side_new, v);
            b_new.insert(v, g);
            b_old.insert(v, g);
        }

        let mut step = 0u64;
        loop {
            // Phase-stable pseudo-random predicate, like FM balance
            // rejections: the same vertex subset stays inadmissible for
            // several consecutive pops, stranding skipped vertices above
            // the buckets' lowered max index.
            let phase = step / 6;
            let adm = |u: u32| (u as u64 ^ phase).wrapping_mul(0x9e3779b97f4a7c15) >> 62 != 0;
            let pick_new = b_new.pop_max_where(adm);
            let pick_old = b_old.pop_max_where(adm);
            assert_eq!(pick_new, pick_old, "seed {seed} step {step}: pop diverged");
            let Some((v, _)) = pick_new else { break };
            Substrate::apply_move_gains(&hg, &mut cs_new, &side_new, v, &mut cut_new, |u, d| {
                b_new.adjust(u, d)
            });
            apply_move_legacy(&hg, &mut cs_old, &side_old, v, &mut cut_old, &mut |u, d| {
                b_old.adjust(u, d)
            });
            side_new[v as usize] ^= 1;
            side_old[v as usize] ^= 1;
            assert_eq!(cut_new, cut_old, "seed {seed} step {step}: cut diverged");
            assert_eq!(cs_new.pc, cs_old.pc, "seed {seed} step {step}: pc diverged");
            assert_px_fresh(&hg, &cs_new, &side_new, &format!("seed {seed} step {step}"));
            step += 1;
        }
    }
}

/// FM rollback undoes a pass with the counter-only `apply_move`: replaying
/// the gain-kernel moves backwards must restore the side counts, the side
/// XORs, and the cut exactly, and keep the XORs fresh at every step.
#[test]
fn counter_only_rollback_restores_cut_state() {
    for (seed, gen) in (0..200u64).flat_map(|s| GENERATORS.map(|g| (s, g))) {
        let (hg, side0) = random_instance(seed ^ 0x5eed, gen);
        let nv = hg.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut arena = LevelArena::new();
        let (cs0, cut0) = hg.cut_state(&side0, &mut arena);
        assert_px_fresh(&hg, &cs0, &side0, &format!("seed {seed} start"));

        let (mut cs, mut cut) = (cs0.clone(), cut0);
        let mut side = side0.clone();
        let moves: Vec<u32> = (0..30).map(|_| rng.gen_range(0..nv)).collect();
        for &v in &moves {
            Substrate::apply_move_gains(&hg, &mut cs, &side, v, &mut cut, |_, _| {});
            side[v as usize] ^= 1;
        }
        for (i, &v) in moves.iter().enumerate().rev() {
            Substrate::apply_move(&hg, &mut cs, &side, v, &mut cut);
            side[v as usize] ^= 1;
            assert_px_fresh(&hg, &cs, &side, &format!("seed {seed} rollback {i}"));
        }
        assert_eq!(side, side0);
        assert_eq!(cs.pc, cs0.pc, "seed {seed}: pc not restored");
        assert_eq!(cs.px, cs0.px, "seed {seed}: px not restored");
        assert_eq!(cut, cut0, "seed {seed}: cut not restored");
    }
}
