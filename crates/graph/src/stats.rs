//! Degree and size statistics for the experiment harness (Table 1 / Figure 2
//! style reporting).

use crate::graph::Graph;

/// Summary statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub vertices: usize,
    /// Edge count (arcs for directed graphs).
    pub edges: usize,
    /// Whether the graph is directed.
    pub directed: bool,
    /// Maximum (out-)degree.
    pub max_degree: usize,
    /// Mean (out-)degree.
    pub avg_degree: f64,
    /// Number of degree-1 vertices (undirected) or whisker vertices
    /// (in-degree 0, out-degree 1; directed) — the paper's total-redundancy
    /// candidates.
    pub whisker_vertices: usize,
    /// Number of isolated vertices.
    pub isolated_vertices: usize,
}

/// Computes [`GraphStats`].
pub fn graph_stats(g: &Graph) -> GraphStats {
    let n = g.num_vertices();
    let mut max_degree = 0usize;
    let mut whiskers = 0usize;
    let mut isolated = 0usize;
    for v in g.vertices() {
        let d = g.out_degree(v);
        max_degree = max_degree.max(d);
        let is_whisker = if g.is_directed() { g.in_degree(v) == 0 && d == 1 } else { d == 1 };
        if is_whisker {
            whiskers += 1;
        }
        if d == 0 && g.in_degree(v) == 0 {
            isolated += 1;
        }
    }
    GraphStats {
        vertices: n,
        edges: g.num_edges(),
        directed: g.is_directed(),
        max_degree,
        avg_degree: if n == 0 { 0.0 } else { g.num_arcs() as f64 / n as f64 },
        whisker_vertices: whiskers,
        isolated_vertices: isolated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::star;
    use crate::Graph;

    #[test]
    fn star_stats() {
        let s = graph_stats(&star(5));
        assert_eq!(s.vertices, 6);
        assert_eq!(s.edges, 5);
        assert_eq!(s.max_degree, 5);
        assert_eq!(s.whisker_vertices, 5);
        assert_eq!(s.isolated_vertices, 0);
    }

    #[test]
    fn directed_whisker_detection() {
        let g = Graph::directed_from_edges(4, &[(0, 1), (1, 2), (3, 1)]);
        // vertex 3: in-degree 0, out-degree 1 => whisker; vertex 0 too.
        let s = graph_stats(&g);
        assert_eq!(s.whisker_vertices, 2);
    }

    #[test]
    fn isolated_counted() {
        let g = Graph::undirected_from_edges(4, &[(0, 1)]);
        let s = graph_stats(&g);
        assert_eq!(s.isolated_vertices, 2);
    }
}
