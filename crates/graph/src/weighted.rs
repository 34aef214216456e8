//! Weighted graphs and Dijkstra-based shortest-path DAGs.
//!
//! The paper's algorithm and evaluation are unweighted, but Brandes'
//! framework — and APGRE's redundancy elimination — generalize directly to
//! positive integer weights: articulation points still dominate every
//! inter-sub-graph path, reachability (hence `α`/`β`) is weight-independent,
//! and only the forward phase changes from BFS to Dijkstra. This module is
//! the substrate for that extension (`apgre_bc::weighted`).
//!
//! Weights are `u32 ≥ 1` per arc, aligned with the CSR target array, so a
//! neighbour scan reads weight and target from parallel slices. Zero weights
//! are rejected: a zero-weight cycle through an articulation point would
//! break the "leaving a sub-graph never shortens a path" invariant APGRE
//! rests on (and ties Dijkstra in knots generally).

use crate::csr::Csr;
use crate::graph::Graph;
use crate::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "not reached" in weighted distance arrays.
pub const WUNREACHED: u64 = u64::MAX;

/// A graph with positive integer arc weights.
///
/// Wraps the unweighted [`Graph`] (the *structure*, which the decomposition
/// machinery consumes unchanged) plus per-arc weights for the forward CSR.
#[derive(Clone, Debug)]
pub struct WeightedGraph {
    structure: Graph,
    /// Weight of the arc at each forward-CSR position.
    fwd_weights: Vec<u32>,
}

impl WeightedGraph {
    /// Wraps `g`, deriving each arc's weight from `weight_of(u, v)`.
    /// Undirected graphs call it once per direction with the same result
    /// expected (`weight_of` must be symmetric for them).
    ///
    /// # Panics
    /// Panics if any weight is zero, or if `weight_of` is asymmetric on an
    /// undirected graph.
    pub fn from_graph_with(g: Graph, mut weight_of: impl FnMut(VertexId, VertexId) -> u32) -> Self {
        let fwd_weights: Vec<u32> = g
            .csr()
            .edges()
            .map(|(u, v)| {
                let w = weight_of(u, v);
                assert!(w > 0, "zero weight on arc {u}->{v}");
                w
            })
            .collect();
        if !g.is_directed() {
            for (u, v) in g.csr().edges() {
                assert!(
                    fwd_weights[arc_pos(g.csr(), u, v)] == fwd_weights[arc_pos(g.csr(), v, u)],
                    "asymmetric weight on undirected edge {{{u},{v}}}"
                );
            }
        }
        WeightedGraph { structure: g, fwd_weights }
    }

    /// Wraps `g` with unit weights (semantically identical to the unweighted
    /// graph — the equivalence tests lean on this).
    pub fn unit(g: Graph) -> Self {
        WeightedGraph::from_graph_with(g, |_, _| 1)
    }

    /// Wraps `g` with uniformly random weights in `1..=max_weight`
    /// (symmetric for undirected graphs).
    pub fn random_weights(g: Graph, max_weight: u32, seed: u64) -> Self {
        assert!(max_weight >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        // Draw per (undirected-canonical) edge so undirected graphs stay
        // symmetric. A hash map would do; a per-edge closure over a stable
        // table is simpler and deterministic.
        let mut table: std::collections::HashMap<(VertexId, VertexId), u32> =
            std::collections::HashMap::new();
        WeightedGraph::from_graph_with(g, move |u, v| {
            let key = if u < v { (u, v) } else { (v, u) };
            *table.entry(key).or_insert_with(|| rng.gen_range(1..=max_weight))
        })
    }

    /// The unweighted structure (what the decomposition sees).
    #[inline]
    pub fn structure(&self) -> &Graph {
        &self.structure
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.structure.num_vertices()
    }

    /// Weighted out-neighbours of `v`: parallel slices of targets and
    /// weights.
    #[inline]
    pub fn out_arcs(&self, v: VertexId) -> (&[VertexId], &[u32]) {
        let csr = self.structure.csr();
        let lo = csr.offsets()[v as usize];
        let hi = csr.offsets()[v as usize + 1];
        (&csr.targets()[lo..hi], &self.fwd_weights[lo..hi])
    }

    /// Weight of arc `u -> v`.
    ///
    /// # Panics
    /// Panics if the arc does not exist.
    pub fn weight(&self, u: VertexId, v: VertexId) -> u32 {
        self.fwd_weights[arc_pos(self.structure.csr(), u, v)]
    }

    /// Raw forward weights (aligned with `structure().csr().targets()`).
    #[inline]
    pub fn fwd_weights(&self) -> &[u32] {
        &self.fwd_weights
    }
}

/// Position of arc `u -> v` in `csr`'s target array.
fn arc_pos(csr: &Csr, u: VertexId, v: VertexId) -> usize {
    let nbrs = csr.neighbors(u);
    // With duplicate arcs the first position is fine for weight lookup as
    // long as duplicates carry equal weights (the builder dedups by default).
    let i = nbrs.partition_point(|&x| x < v);
    assert!(nbrs.get(i) == Some(&v), "arc {u}->{v} missing");
    csr.offsets()[u as usize] + i
}

/// One Dijkstra shortest-path DAG: distances, path counts (σ), and the
/// settle order (vertices in non-decreasing distance — the weighted
/// equivalent of BFS level order, walked backwards by Brandes' accumulation).
#[derive(Clone, Debug)]
pub struct SsspDag {
    /// Distance from the root (`WUNREACHED` if unreachable).
    pub dist: Vec<u64>,
    /// Number of shortest paths from the root.
    pub sigma: Vec<f64>,
    /// Settled vertices in non-decreasing distance order (root first).
    pub order: Vec<VertexId>,
}

/// Dijkstra from `src` over `(csr, weights)`, counting shortest paths.
///
/// σ is accumulated lazily: when a vertex settles, its σ is final (all
/// weights positive), so relaxations simply add the parent's σ when the
/// tentative distance matches.
pub fn dijkstra_sssp(csr: &Csr, weights: &[u32], src: VertexId) -> SsspDag {
    let n = csr.num_vertices();
    debug_assert_eq!(weights.len(), csr.num_edges());
    let mut dist = vec![WUNREACHED; n];
    let mut sigma = vec![0.0f64; n];
    let mut settled = vec![false; n];
    let mut order = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u64, VertexId)>> = BinaryHeap::new();
    dist[src as usize] = 0;
    sigma[src as usize] = 1.0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if settled[u as usize] {
            continue;
        }
        debug_assert_eq!(d, dist[u as usize]);
        settled[u as usize] = true;
        order.push(u);
        let lo = csr.offsets()[u as usize];
        let hi = csr.offsets()[u as usize + 1];
        for (i, &v) in csr.targets()[lo..hi].iter().enumerate() {
            let nd = d + weights[lo + i] as u64;
            let dv = &mut dist[v as usize];
            if nd < *dv {
                *dv = nd;
                sigma[v as usize] = sigma[u as usize];
                heap.push(Reverse((nd, v)));
            } else if nd == *dv && !settled[v as usize] {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }
    SsspDag { dist, sigma, order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::traversal::bfs_distances;
    use crate::UNREACHED;

    #[test]
    fn unit_weights_match_bfs() {
        let g = generators::gnm_undirected(60, 120, 4);
        let wg = WeightedGraph::unit(g.clone());
        for s in [0u32, 10, 42] {
            let dag = dijkstra_sssp(g.csr(), wg.fwd_weights(), s);
            let bfs = bfs_distances(g.csr(), s);
            for v in 0..60 {
                let want = if bfs[v] == UNREACHED { WUNREACHED } else { bfs[v] as u64 };
                assert_eq!(dag.dist[v], want, "src {s} v {v}");
            }
        }
    }

    #[test]
    fn simple_weighted_path_counts() {
        // 0 -> 1 (w=1), 1 -> 2 (w=1); 0 -> 2 (w=2): two shortest paths 0→2.
        let g = Graph::directed_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let wg = WeightedGraph::from_graph_with(g, |u, v| if (u, v) == (0, 2) { 2 } else { 1 });
        let dag = dijkstra_sssp(wg.structure().csr(), wg.fwd_weights(), 0);
        assert_eq!(dag.dist, vec![0, 1, 2]);
        assert_eq!(dag.sigma, vec![1.0, 1.0, 2.0]);
        assert_eq!(dag.order, vec![0, 1, 2]);
    }

    #[test]
    fn heavier_direct_edge_loses() {
        // 0 -> 2 direct (w=5) vs 0 -> 1 -> 2 (1+1): unique shortest path.
        let g = Graph::directed_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let wg = WeightedGraph::from_graph_with(g, |u, v| if (u, v) == (0, 2) { 5 } else { 1 });
        let dag = dijkstra_sssp(wg.structure().csr(), wg.fwd_weights(), 0);
        assert_eq!(dag.dist[2], 2);
        assert_eq!(dag.sigma[2], 1.0);
    }

    #[test]
    fn settle_order_is_sorted_by_distance() {
        let g = generators::grid2d(6, 6);
        let wg = WeightedGraph::random_weights(g, 9, 3);
        let dag = dijkstra_sssp(wg.structure().csr(), wg.fwd_weights(), 0);
        for w in dag.order.windows(2) {
            assert!(dag.dist[w[0] as usize] <= dag.dist[w[1] as usize]);
        }
        assert_eq!(dag.order.len(), 36);
    }

    #[test]
    fn random_weights_symmetric_on_undirected() {
        let g = generators::gnm_undirected(40, 80, 9);
        let wg = WeightedGraph::random_weights(g, 7, 11);
        for (u, v) in wg.structure().undirected_edges() {
            assert_eq!(wg.weight(u, v), wg.weight(v, u));
        }
    }

    #[test]
    #[should_panic(expected = "zero weight")]
    fn zero_weight_rejected() {
        let g = Graph::directed_from_edges(2, &[(0, 1)]);
        let _ = WeightedGraph::from_graph_with(g, |_, _| 0);
    }

    #[test]
    #[should_panic(expected = "asymmetric weight")]
    fn asymmetric_undirected_weight_rejected() {
        let g = Graph::undirected_from_edges(2, &[(0, 1)]);
        let _ = WeightedGraph::from_graph_with(g, |u, _| u + 1);
    }

    #[test]
    #[should_panic(expected = "arc 0->2 missing")]
    fn weight_of_missing_arc_panics() {
        let g = Graph::directed_from_edges(3, &[(0, 1), (1, 2)]);
        let _ = WeightedGraph::unit(g).weight(0, 2);
    }

    #[test]
    fn unreachable_vertices_marked() {
        let g = Graph::directed_from_edges(3, &[(0, 1)]);
        let wg = WeightedGraph::unit(g);
        let dag = dijkstra_sssp(wg.structure().csr(), wg.fwd_weights(), 0);
        assert_eq!(dag.dist[2], WUNREACHED);
        assert_eq!(dag.order.len(), 2);
    }
}
