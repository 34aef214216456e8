//! Articulation points and biconnected components.
//!
//! Iterative Hopcroft–Tarjan with an explicit DFS stack (recursion would
//! overflow on path-like graphs of the sizes the harness uses) and an edge
//! stack that is cut every time a `low[child] >= disc[parent]` condition
//! fires, yielding one biconnected component per cut (paper reference \[32\]).
//!
//! Runs on the **undirected** structure; callers with directed graphs pass
//! `g.to_undirected()` (the paper's `GETUNDG`).

use apgre_graph::{Csr, Graph, VertexId};

const NIL: u32 = u32::MAX;

/// Output of [`biconnected_components`].
#[derive(Clone, Debug)]
pub struct BccResult {
    /// Per-vertex articulation flag.
    pub is_articulation: Vec<bool>,
    /// Per-BCC vertex lists (each list deduplicated, unordered).
    pub bcc_vertices: Vec<Vec<VertexId>>,
    /// BCC id per arc of the undirected CSR (both arc directions of an edge
    /// map to the same id); `u32::MAX` only if the arc is a self-loop (the
    /// builder removes those).
    pub bcc_of_arc: Vec<u32>,
    /// The undirected CSR the arc ids refer to.
    pub arcs_of: Csr,
}

impl BccResult {
    /// Number of biconnected components.
    pub fn count(&self) -> usize {
        self.bcc_vertices.len()
    }

    /// The articulation points as a vertex list.
    pub fn articulation_points(&self) -> Vec<VertexId> {
        self.is_articulation
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(v, _)| v as VertexId)
            .collect()
    }

    /// BCC id owning the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if the edge is not present.
    pub fn bcc_of_edge(&self, u: VertexId, v: VertexId) -> u32 {
        let id = self.bcc_of_arc[arc_pos(&self.arcs_of, u, v)];
        debug_assert_ne!(id, u32::MAX);
        id
    }
}

/// Position of arc `u -> v` inside `csr`'s target array.
pub(crate) fn arc_pos(csr: &Csr, u: VertexId, v: VertexId) -> usize {
    let nbrs = csr.neighbors(u);
    let i = nbrs.binary_search(&v).expect("arc not present in CSR");
    csr.offsets()[u as usize] + i
}

struct Frame {
    v: VertexId,
    parent: VertexId,
    idx: u32,
}

/// Computes articulation points and biconnected components of an undirected
/// graph in `O(V + E)`.
///
/// # Panics
/// Panics if `g` is directed — call `g.to_undirected()` first.
pub fn biconnected_components(g: &Graph) -> BccResult {
    assert!(!g.is_directed(), "biconnected_components needs the undirected structure");
    let csr = g.csr();
    let n = csr.num_vertices();
    let mut disc = vec![NIL; n];
    let mut low = vec![0u32; n];
    let mut is_articulation = vec![false; n];
    let mut bcc_of_arc = vec![u32::MAX; csr.num_edges()];
    let mut bcc_vertices: Vec<Vec<VertexId>> = Vec::new();
    // stamp[v] == current bcc id marks v as already collected for that BCC.
    let mut stamp = vec![NIL; n];
    let mut time = 0u32;
    let mut edge_stack: Vec<(VertexId, VertexId)> = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();

    for root in 0..n as VertexId {
        if disc[root as usize] != NIL {
            continue;
        }
        disc[root as usize] = time;
        low[root as usize] = time;
        time += 1;
        stack.push(Frame { v: root, parent: NIL, idx: 0 });
        let mut root_children = 0u32;

        while let Some(top) = stack.last_mut() {
            let v = top.v;
            let nbrs = csr.neighbors(v);
            if (top.idx as usize) < nbrs.len() {
                let w = nbrs[top.idx as usize];
                top.idx += 1;
                if w == top.parent {
                    // Simple graph (builder dedups), so every occurrence of
                    // the parent is the single tree edge back up.
                    continue;
                }
                if disc[w as usize] == NIL {
                    edge_stack.push((v, w));
                    disc[w as usize] = time;
                    low[w as usize] = time;
                    time += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push(Frame { v: w, parent: v, idx: 0 });
                } else if disc[w as usize] < disc[v as usize] {
                    // Back edge (to a strict ancestor or cross-level earlier
                    // vertex; in undirected DFS only ancestors qualify).
                    edge_stack.push((v, w));
                    low[v as usize] = low[v as usize].min(disc[w as usize]);
                }
            } else {
                stack.pop();
                if let Some(parent_frame) = stack.last() {
                    let u = parent_frame.v;
                    low[u as usize] = low[u as usize].min(low[v as usize]);
                    if low[v as usize] >= disc[u as usize] {
                        // u separates v's subtree: everything on the edge
                        // stack down to (u, v) is one biconnected component.
                        if u != root {
                            is_articulation[u as usize] = true;
                        }
                        let id = bcc_vertices.len() as u32;
                        let mut verts = Vec::new();
                        loop {
                            let (x, y) = edge_stack.pop().expect("edge stack underflow");
                            bcc_of_arc[arc_pos(csr, x, y)] = id;
                            bcc_of_arc[arc_pos(csr, y, x)] = id;
                            for z in [x, y] {
                                if stamp[z as usize] != id {
                                    stamp[z as usize] = id;
                                    verts.push(z);
                                }
                            }
                            if (x, y) == (u, v) {
                                break;
                            }
                        }
                        bcc_vertices.push(verts);
                    }
                }
            }
        }
        if root_children >= 2 {
            is_articulation[root as usize] = true;
        }
        debug_assert!(edge_stack.is_empty(), "edge stack not drained at component end");
    }

    BccResult { is_articulation, bcc_vertices, bcc_of_arc, arcs_of: csr.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_graph::generators;
    use apgre_graph::Graph;

    #[test]
    fn single_edge_one_bcc_no_articulation() {
        let g = Graph::undirected_from_edges(2, &[(0, 1)]);
        let r = biconnected_components(&g);
        assert_eq!(r.count(), 1);
        assert!(r.articulation_points().is_empty());
        let mut v = r.bcc_vertices[0].clone();
        v.sort_unstable();
        assert_eq!(v, vec![0, 1]);
    }

    #[test]
    fn path_every_internal_vertex_is_articulation() {
        let g = generators::path(5);
        let r = biconnected_components(&g);
        assert_eq!(r.count(), 4); // each edge its own BCC
        assert_eq!(r.articulation_points(), vec![1, 2, 3]);
    }

    #[test]
    fn cycle_single_bcc() {
        let g = generators::cycle(6);
        let r = biconnected_components(&g);
        assert_eq!(r.count(), 1);
        assert!(r.articulation_points().is_empty());
        assert_eq!(r.bcc_vertices[0].len(), 6);
    }

    #[test]
    fn star_center_is_articulation() {
        let g = generators::star(4);
        let r = biconnected_components(&g);
        assert_eq!(r.count(), 4);
        assert_eq!(r.articulation_points(), vec![0]);
    }

    #[test]
    fn paper_figure3_articulation_points() {
        // The 13-vertex example of Figure 3(a), symmetrized: the articulation
        // points are 2, 3 and 6.
        let g = paper_fig3_undirected();
        let r = biconnected_components(&g);
        assert_eq!(r.articulation_points(), vec![2, 3, 6]);
    }

    /// Undirected skeleton of the paper's Figure 3(a) graph:
    /// vertices 0,1 hang off 2; {2,4,5,3,6} form the middle blob; 3 leads to
    /// {10,12}; 6 leads to {7,8,9}.
    pub(crate) fn paper_fig3_undirected() -> Graph {
        Graph::undirected_from_edges(
            13,
            &[
                (0, 2),
                (1, 2),
                (2, 4),
                (2, 5),
                (4, 5),
                (4, 3),
                (5, 3),
                (5, 6),
                (4, 6),
                (3, 6),
                (3, 10),
                (3, 12),
                (10, 12),
                (6, 7),
                (6, 8),
                (7, 9),
                (8, 9),
            ],
        )
    }

    #[test]
    fn lollipop_junction() {
        let g = generators::lollipop(5, 3);
        let r = biconnected_components(&g);
        // clique = 1 BCC, each path edge = 1 BCC
        assert_eq!(r.count(), 4);
        assert_eq!(r.articulation_points(), vec![4, 5, 6]);
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        let g = Graph::undirected_from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let r = biconnected_components(&g);
        assert_eq!(r.count(), 2);
        assert_eq!(r.articulation_points(), vec![2]);
        assert_eq!(r.bcc_of_edge(0, 1), r.bcc_of_edge(1, 2));
        assert_ne!(r.bcc_of_edge(0, 1), r.bcc_of_edge(3, 4));
    }

    #[test]
    fn disconnected_graph_handled() {
        let g = Graph::undirected_from_edges(7, &[(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)]);
        let r = biconnected_components(&g);
        assert_eq!(r.count(), 3); // triangle + 2 path edges; vertex 3 isolated
        assert_eq!(r.articulation_points(), vec![5]);
    }

    #[test]
    fn every_edge_belongs_to_exactly_one_bcc() {
        let g = generators::whiskered_community(&generators::WhiskeredCommunityParams {
            core_vertices: 60,
            core_attach: 2,
            community_count: 5,
            community_size: 10,
            community_density: 1.8,
            whiskers: 25,
            seed: 3,
        });
        let r = biconnected_components(&g);
        for (u, v) in g.undirected_edges() {
            let id = r.bcc_of_edge(u, v);
            assert!((id as usize) < r.count());
            assert_eq!(id, r.bcc_of_edge(v, u));
        }
        // Vertex lists cover every non-isolated vertex.
        let mut seen = vec![false; g.num_vertices()];
        for verts in &r.bcc_vertices {
            for &v in verts {
                seen[v as usize] = true;
            }
        }
        for v in g.vertices() {
            assert_eq!(seen[v as usize], g.out_degree(v) > 0, "vertex {v}");
        }
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..12 {
            let g = generators::gnm_undirected(40, 55, seed);
            let fast = biconnected_components(&g).is_articulation;
            let slow = crate::naive::naive_articulation_points(&g);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }
}
