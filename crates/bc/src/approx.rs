//! Approximate betweenness centrality by source sampling.
//!
//! The paper positions APGRE against *exact* computation and cites the
//! sampling line of work (§6: Bader–Kintali–Madduri–Mihail WAW'07,
//! Brandes–Pich 2007; §5.2 compares against a GPU sampling implementation's
//! MTEPS). This module implements that family so the comparison can be run
//! locally:
//!
//! * [`bc_approx`] — the Brandes–Pich estimator: `k` uniformly sampled
//!   source pivots, dependencies extrapolated by `n/k`,
//! * [`bc_approx_adaptive`] — Bader et al.'s adaptive scheme for a single
//!   vertex: sample until the accumulated dependency of the target crosses
//!   `c·n`, giving small sample sizes for high-BC vertices.
//!
//! Sampling composed with APGRE's decomposition — per-sub-graph root
//! samples, whisker folding and the four-dependency reuse kept — lives in
//! the `apgre-approx` crate (`bc_sampled`).

use crate::brandes::{accumulate_source, Workspace};
use apgre_graph::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Brandes–Pich source-sampled BC: `k` pivots without replacement, scores
/// scaled by `n/k`. With `k == n` this is exact Brandes (scale 1).
pub fn bc_approx(g: &Graph, k: usize, seed: u64) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pivots: Vec<VertexId> = (0..n as VertexId).collect();
    pivots.shuffle(&mut rng);
    pivots.truncate(k);
    let mut bc = vec![0.0f64; n];
    let mut ws = Workspace::new(n);
    for &s in &pivots {
        accumulate_source(g, s, &mut ws, &mut bc);
        ws.reset_touched();
    }
    let scale = n as f64 / k as f64;
    for x in &mut bc {
        *x *= scale;
    }
    bc
}

/// Bader et al.'s adaptive sampling for one vertex `v`: sample pivots until
/// `Σ δ_s(v) ≥ c·n` (or all pivots are used), then extrapolate. Returns the
/// estimate and the number of samples spent. High-centrality vertices
/// converge after a handful of pivots — that is the scheme's point.
pub fn bc_approx_adaptive(g: &Graph, v: VertexId, c: f64, seed: u64) -> (f64, usize) {
    let n = g.num_vertices();
    assert!((v as usize) < n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pivots: Vec<VertexId> = (0..n as VertexId).collect();
    pivots.shuffle(&mut rng);
    let mut ws = Workspace::new(n);
    let mut scratch = vec![0.0f64; n];
    let mut acc = 0.0f64;
    let mut used = 0usize;
    for &s in &pivots {
        scratch[v as usize] = 0.0;
        if s != v {
            accumulate_source(g, s, &mut ws, &mut scratch);
            acc += scratch[v as usize];
            // accumulate_source adds into scratch everywhere; only v's cell
            // matters, and we reset it before each use.
        } else {
            // δ_v(v) = 0 by definition; still a spent sample.
            accumulate_source(g, s, &mut ws, &mut scratch);
        }
        ws.reset_touched();
        used += 1;
        if acc >= c * n as f64 {
            break;
        }
    }
    (acc * n as f64 / used as f64, used)
}

/// Spearman rank correlation between two score vectors — the standard
/// quality metric for approximate BC.
pub fn spearman_rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |xs: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
        let mut ranks = vec![0.0f64; xs.len()];
        let mut i = 0;
        while i < idx.len() {
            // average ranks for ties
            let mut j = i;
            while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0;
            for &k in &idx[i..=j] {
                ranks[k] = avg;
            }
            i = j + 1;
        }
        ranks
    };
    let ra = rank(a);
    let rb = rank(b);
    let mean = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        let x = ra[i] - mean;
        let y = rb[i] - mean;
        num += x * y;
        da += x * x;
        db += y * y;
    }
    if da == 0.0 || db == 0.0 {
        return 1.0;
    }
    num / (da * db).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::bc_serial;
    use apgre_graph::generators;

    #[test]
    fn full_sample_is_exact() {
        let g = generators::gnm_undirected(50, 90, 7);
        let exact = bc_serial(&g);
        let approx = bc_approx(&g, 50, 1);
        for (a, b) in approx.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn estimator_is_unbiased_on_star() {
        // Star: every pivot except the centre contributes k-1 to the centre;
        // any sample of leaf pivots extrapolates exactly.
        let g = generators::star(30);
        let exact = bc_serial(&g);
        let mut sum_err = 0.0;
        for seed in 0..20 {
            let est = bc_approx(&g, 10, seed);
            sum_err += est[0] - exact[0];
        }
        // Mean error small relative to the value (unbiasedness, loosely).
        assert!(
            (sum_err / 20.0).abs() < 0.2 * exact[0],
            "mean err {} vs {}",
            sum_err / 20.0,
            exact[0]
        );
    }

    #[test]
    fn half_sample_ranks_well() {
        let g = generators::whiskered_community(&generators::WhiskeredCommunityParams {
            core_vertices: 60,
            core_attach: 3,
            community_count: 4,
            community_size: 10,
            community_density: 1.8,
            whiskers: 30,
            seed: 2,
        });
        let exact = bc_serial(&g);
        let approx = bc_approx(&g, g.num_vertices() / 2, 3);
        let rho = spearman_rank_correlation(&exact, &approx);
        assert!(rho > 0.9, "spearman {rho}");
        // Top vertex must agree.
        let argmax =
            |xs: &[f64]| xs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(argmax(&exact), argmax(&approx));
    }

    #[test]
    fn adaptive_converges_fast_for_hubs() {
        let g = generators::star(100);
        let exact = bc_serial(&g);
        let (est, used) = bc_approx_adaptive(&g, 0, 2.0, 5);
        assert!(used < 20, "hub should converge quickly, used {used}");
        assert!((est - exact[0]).abs() < 0.25 * exact[0], "est {est} vs {}", exact[0]);
    }

    #[test]
    fn spearman_basics() {
        assert_eq!(spearman_rank_correlation(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(spearman_rank_correlation(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), -1.0);
        assert_eq!(spearman_rank_correlation(&[], &[]), 1.0);
    }

    #[test]
    fn empty_graph() {
        let g = apgre_graph::Graph::undirected_from_edges(0, &[]);
        assert!(bc_approx(&g, 5, 0).is_empty());
    }
}
