//! Edge-list ingestion with hygiene options.

use crate::graph::Graph;
use crate::VertexId;

/// Collects edges and produces a [`Graph`] with configurable hygiene.
///
/// Real-world edge lists (and our generators' raw output) contain self-loops
/// and duplicates; the BC algorithms assume simple graphs, so the builder
/// always drops duplicates, and drops self-loops unless a test that exercises
/// the algorithms' robustness against dirty inputs keeps them.
///
/// ```
/// use apgre_graph::GraphBuilder;
/// let g = GraphBuilder::undirected()
///     .add_edge(0, 1)
///     .add_edge(1, 2)
///     .add_edge(1, 2) // duplicate, dropped
///     .add_edge(2, 2) // self-loop, dropped
///     .build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    directed: bool,
    drop_self_loops: bool,
    min_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// A builder for an undirected graph.
    pub fn undirected() -> Self {
        GraphBuilder { directed: false, drop_self_loops: true, min_vertices: 0, edges: Vec::new() }
    }

    /// A builder for a directed graph.
    pub fn directed() -> Self {
        GraphBuilder { directed: true, ..GraphBuilder::undirected() }
    }

    /// Keep self-loops instead of dropping them. (Undirected graphs always
    /// drop self-loops — see [`Graph::undirected_from_edges`].)
    pub fn keep_self_loops(mut self) -> Self {
        self.drop_self_loops = false;
        self
    }

    /// Ensure the graph has at least `n` vertices even if the tail ones are
    /// isolated (edge lists don't mention isolated vertices).
    pub fn with_num_vertices(mut self, n: usize) -> Self {
        self.min_vertices = n;
        self
    }

    /// Add one edge.
    pub fn add_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.edges.push((u, v));
        self
    }

    /// Add many edges.
    pub fn extend_edges(mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        self.edges.extend(edges);
        self
    }

    /// In-place variants for loop-heavy call sites.
    pub fn push_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Finalize into a [`Graph`].
    pub fn build(mut self) -> Graph {
        let n = self
            .edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_vertices);
        if self.drop_self_loops {
            self.edges.retain(|&(u, v)| u != v);
        }
        if self.directed {
            self.edges.sort_unstable();
            self.edges.dedup();
            Graph::directed_from_edges(n, &self.edges)
        } else {
            // `undirected_from_edges` dedups the symmetrized list.
            Graph::undirected_from_edges(n, &self.edges)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_directed() {
        let g = GraphBuilder::directed().add_edge(0, 1).add_edge(0, 1).add_edge(1, 0).build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let g = GraphBuilder::directed().add_edge(0, 0).add_edge(0, 1).build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_kept_when_asked_directed() {
        let g = GraphBuilder::directed().keep_self_loops().add_edge(0, 0).add_edge(0, 1).build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[0, 1]);
    }

    #[test]
    fn min_vertices_pads_isolated() {
        let g = GraphBuilder::undirected().add_edge(0, 1).with_num_vertices(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.out_degree(4), 0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::undirected().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
