//! Serial Brandes' algorithm (paper Figure 1) — the baseline every speedup
//! in the evaluation is measured against.

use apgre_graph::{Graph, VertexId, UNREACHED};
use std::collections::VecDeque;

/// Reusable per-source workspace for Brandes-style sweeps.
pub(crate) struct Workspace {
    pub dist: Vec<u32>,
    pub sigma: Vec<f64>,
    pub delta: Vec<f64>,
    /// BFS order (root first); the backward sweep walks it in reverse.
    pub order: Vec<VertexId>,
    pub queue: VecDeque<VertexId>,
}

impl Workspace {
    pub fn new(n: usize) -> Self {
        Workspace {
            dist: vec![UNREACHED; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            order: Vec::with_capacity(n),
            queue: VecDeque::new(),
        }
    }

    /// Resets only the vertices touched by the previous source — `O(reached)`
    /// instead of `O(n)`, which matters on graphs with many small components.
    pub fn reset_touched(&mut self) {
        for &v in &self.order {
            self.dist[v as usize] = UNREACHED;
            self.sigma[v as usize] = 0.0;
            self.delta[v as usize] = 0.0;
        }
        self.order.clear();
    }
}

/// One Brandes iteration: BFS from `s` (σ, order), backward dependency
/// accumulation into `ws.delta`, scores into `bc`. Returns the number of
/// edges examined (forward + backward), the unit the redundancy analysis
/// counts in.
pub(crate) fn accumulate_source(g: &Graph, s: VertexId, ws: &mut Workspace, bc: &mut [f64]) -> u64 {
    let csr = g.csr();
    let mut edges = 0u64;
    ws.dist[s as usize] = 0;
    ws.sigma[s as usize] = 1.0;
    ws.order.push(s);
    ws.queue.push_back(s);
    while let Some(u) = ws.queue.pop_front() {
        let du = ws.dist[u as usize];
        for &v in csr.neighbors(u) {
            edges += 1;
            if ws.dist[v as usize] == UNREACHED {
                ws.dist[v as usize] = du + 1;
                ws.order.push(v);
                ws.queue.push_back(v);
            }
            if ws.dist[v as usize] == du + 1 {
                ws.sigma[v as usize] += ws.sigma[u as usize];
            }
        }
    }
    // Backward sweep in reverse BFS order, scanning successors (vertices one
    // level deeper); their δ values are already final.
    for &v in ws.order.iter().rev() {
        let dv = ws.dist[v as usize];
        let mut acc = 0.0;
        for &w in csr.neighbors(v) {
            edges += 1;
            if ws.dist[w as usize] == dv + 1 {
                acc += ws.sigma[v as usize] / ws.sigma[w as usize] * (1.0 + ws.delta[w as usize]);
            }
        }
        ws.delta[v as usize] = acc;
        if v != s {
            bc[v as usize] += acc;
        }
    }
    edges
}

/// Serial Brandes (successor-scan backward phase). `O(V·E)` time,
/// `O(V + E)` space.
pub fn bc_serial(g: &Graph) -> Vec<f64> {
    bc_serial_counted(g).0
}

/// [`bc_serial`] plus the total number of edges examined; the count is
/// pinned by this module's tests.
fn bc_serial_counted(g: &Graph) -> (Vec<f64>, u64) {
    let n = g.num_vertices();
    let mut bc = vec![0.0; n];
    let mut ws = Workspace::new(n);
    let mut edges = 0u64;
    for s in 0..n as VertexId {
        edges += accumulate_source(g, s, &mut ws, &mut bc);
        ws.reset_touched();
    }
    (bc, edges)
}

/// Serial Brandes with explicit predecessor lists — the exact structure of
/// the paper's Figure 1 / the SSCA v2.2 `preds-serial` reference. Kept
/// alongside [`bc_serial`] because the two serial baselines differ slightly
/// in constant factors and the harness reports the faster one, as the paper
/// does.
pub fn bc_serial_preds(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices();
    let csr = g.csr();
    let mut bc = vec![0.0; n];
    let mut dist = vec![UNREACHED; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut preds: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    for s in 0..n as VertexId {
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        order.push(s);
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in csr.neighbors(u) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = du + 1;
                    order.push(v);
                    queue.push_back(v);
                }
                if dist[v as usize] == du + 1 {
                    sigma[v as usize] += sigma[u as usize];
                    preds[v as usize].push(u);
                }
            }
        }
        for &w in order.iter().rev() {
            for &v in &preds[w as usize] {
                delta[v as usize] +=
                    sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
            }
            if w != s {
                bc[w as usize] += delta[w as usize];
            }
        }
        for &v in &order {
            dist[v as usize] = UNREACHED;
            sigma[v as usize] = 0.0;
            delta[v as usize] = 0.0;
            preds[v as usize].clear();
        }
        order.clear();
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_decomp::naive::naive_bc;
    use apgre_graph::generators;
    use apgre_graph::Graph;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9 * (1.0 + x.abs()), "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_on_small_undirected() {
        for seed in 0..10 {
            let g = generators::gnm_undirected(30, 45, seed);
            assert_close(&bc_serial(&g), &naive_bc(&g));
        }
    }

    #[test]
    fn matches_naive_on_small_directed() {
        for seed in 0..10 {
            let g = generators::gnm_directed(30, 70, seed);
            assert_close(&bc_serial(&g), &naive_bc(&g));
        }
    }

    #[test]
    fn preds_variant_matches() {
        for seed in 0..5 {
            let g = generators::gnm_undirected(40, 60, seed);
            assert_close(&bc_serial(&g), &bc_serial_preds(&g));
            let g = generators::gnm_directed(40, 90, seed);
            assert_close(&bc_serial(&g), &bc_serial_preds(&g));
        }
    }

    #[test]
    fn path_closed_form() {
        // Path of n: BC(v_i) = 2·i·(n-1-i) for ordered pairs.
        let n = 9;
        let g = generators::path(n);
        let bc = bc_serial(&g);
        for i in 0..n {
            assert_eq!(bc[i], 2.0 * (i as f64) * ((n - 1 - i) as f64), "vertex {i}");
        }
    }

    #[test]
    fn star_closed_form() {
        let g = generators::star(6);
        let bc = bc_serial(&g);
        assert_eq!(bc[0], 30.0); // k(k-1)
        assert!(bc[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn binary_tree_matches_naive() {
        let g = generators::binary_tree(15);
        assert_close(&bc_serial(&g), &naive_bc(&g));
    }

    #[test]
    fn disconnected_and_isolated() {
        let g = Graph::undirected_from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        let bc = bc_serial(&g);
        assert_eq!(bc, vec![0.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(bc_serial(&Graph::undirected_from_edges(0, &[])).is_empty());
        assert_eq!(bc_serial(&Graph::undirected_from_edges(1, &[])), vec![0.0]);
    }

    #[test]
    fn edge_count_on_connected_undirected() {
        // Every source touches all 2m arcs twice (forward + backward).
        let g = generators::cycle(8);
        let (_, edges) = bc_serial_counted(&g);
        let n = 8u64;
        let arcs = 16u64;
        assert_eq!(edges, n * arcs * 2);
    }
}
