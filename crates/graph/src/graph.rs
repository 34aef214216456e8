//! Direction-aware graph type.

use crate::csr::Csr;
use crate::VertexId;

/// A graph with forward (and, when directed, reverse) CSR adjacency.
///
/// For an **undirected** graph every edge `{u, v}` is stored in both
/// directions in the forward CSR and the reverse CSR is the forward CSR
/// (no extra storage, `in_neighbors == out_neighbors`). [`Graph::num_edges`]
/// reports *undirected* edge count in that case.
///
/// For a **directed** graph the reverse CSR is materialized eagerly; the BC
/// baselines, the `β` computation and the direction-optimizing BFS all need
/// in-neighbour access, so lazily building it would only complicate sharing
/// across threads.
#[derive(Clone, Debug)]
pub struct Graph {
    directed: bool,
    fwd: Csr,
    /// `Some` only for directed graphs.
    rev: Option<Csr>,
}

impl Graph {
    /// Builds a directed graph from an edge list (duplicates preserved;
    /// use [`crate::GraphBuilder`] for hygiene).
    pub fn directed_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let fwd = Csr::from_edges(n, edges);
        let rev = fwd.transpose();
        Graph { directed: true, fwd, rev: Some(rev) }
    }

    /// Builds an undirected graph from an edge list. Each input pair `{u, v}`
    /// is symmetrized; a duplicate of the mirrored edge is dropped so that
    /// passing either `(u, v)`, `(v, u)` or both yields the same graph.
    /// Self-loops are dropped (they never lie on a shortest path and would
    /// otherwise appear once rather than twice in the CSR, breaking the
    /// degree invariant).
    pub fn undirected_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut sym: Vec<(VertexId, VertexId)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            sym.push((a, b));
        }
        sym.sort_unstable();
        sym.dedup();
        let mut both = Vec::with_capacity(sym.len() * 2);
        for &(a, b) in &sym {
            both.push((a, b));
            both.push((b, a));
        }
        let fwd = Csr::from_edges(n, &both);
        Graph { directed: false, fwd, rev: None }
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.fwd.num_vertices()
    }

    /// Number of edges: arcs for directed graphs, undirected edges (each
    /// counted once) for undirected graphs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        if self.directed {
            self.fwd.num_edges()
        } else {
            self.fwd.num_edges() / 2
        }
    }

    /// Number of directed arcs stored in the forward CSR (`2·E` for
    /// undirected graphs). This is the unit MTEPS is measured in.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.fwd.num_edges()
    }

    /// Out-neighbours of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.fwd.neighbors(v)
    }

    /// In-neighbours of `v` (equal to out-neighbours for undirected graphs).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        match &self.rev {
            Some(rev) => rev.neighbors(v),
            None => self.fwd.neighbors(v),
        }
    }

    /// Out-degree.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.fwd.degree(v)
    }

    /// In-degree.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        match &self.rev {
            Some(rev) => rev.degree(v),
            None => self.fwd.degree(v),
        }
    }

    /// Forward CSR.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.fwd
    }

    /// Reverse CSR (forward CSR for undirected graphs).
    #[inline]
    pub fn rev_csr(&self) -> &Csr {
        self.rev.as_ref().unwrap_or(&self.fwd)
    }

    /// Iterate over vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// The underlying undirected structure: for directed graphs, the
    /// symmetrized union of forward and reverse arcs (used by the
    /// biconnected-component decomposition — the paper's `GETUNDG`);
    /// for undirected graphs, a clone of self.
    pub fn to_undirected(&self) -> Graph {
        if !self.directed {
            return self.clone();
        }
        let edges: Vec<(VertexId, VertexId)> = self.fwd.edges().collect();
        Graph::undirected_from_edges(self.num_vertices(), &edges)
    }

    /// All arcs of the forward CSR.
    pub fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.fwd.edges()
    }

    /// Undirected edges, each reported once as `(min, max)`.
    ///
    /// # Panics
    /// Panics when called on a directed graph.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        assert!(!self.directed, "undirected_edges on a directed graph");
        self.fwd.edges().filter(|&(u, v)| u < v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_symmetrizes_and_dedups() {
        let g = Graph::undirected_from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
        assert!(!g.is_directed());
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.out_neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
    }

    #[test]
    fn directed_has_distinct_in_out() {
        let g = Graph::directed_from_edges(3, &[(0, 1), (1, 2)]);
        assert!(g.is_directed());
        assert_eq!(g.out_neighbors(1), &[2]);
        assert_eq!(g.in_neighbors(1), &[0]);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(2), 0);
    }

    #[test]
    fn to_undirected_unions_arcs() {
        let g = Graph::directed_from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        let u = g.to_undirected();
        assert!(!u.is_directed());
        assert_eq!(u.num_edges(), 2);
        assert_eq!(u.out_neighbors(1), &[0, 2]);
    }

    #[test]
    fn to_undirected_on_undirected_is_identity() {
        let g = Graph::undirected_from_edges(4, &[(0, 1), (2, 3)]);
        let u = g.to_undirected();
        assert_eq!(u.num_edges(), g.num_edges());
        assert_eq!(u.out_neighbors(0), g.out_neighbors(0));
    }

    #[test]
    fn undirected_edges_each_once() {
        let g = Graph::undirected_from_edges(3, &[(0, 1), (1, 2)]);
        let e: Vec<_> = g.undirected_edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn self_loops_dropped_in_undirected() {
        let g = Graph::undirected_from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(0), 1);
    }
}
