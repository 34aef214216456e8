//! The paper's worked-example graphs.

use apgre_graph::generators::{barabasi_albert, bridge_communities, CommunitySpec};
use apgre_graph::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 13-vertex directed graph of Figure 3(a).
///
/// Articulation points (of the undirected structure): 2, 3, 6. Vertices 0
/// and 1 are whiskers on 2 (`γ(2) = 2`, total redundancy); the graph
/// decomposes into the middle sub-graph `{0,1,2,3,4,5,6}`, the blob
/// `{3,10,11,12}` and the diamond `{6,7,8,9}`. Orientations are chosen so
/// the common sub-DAG contents match the figure: *blue SD₆* reaches
/// `{2,5,3,4,12,10}` from 6, *green SD₃* reaches `{5,6,2,7,8,4,9}` from 3,
/// *pink SD₃* is `{3,10,12}` and *brown SD₆* is `{6,7,8,9}`; vertex 11 has
/// no in-edges (it appears in no sub-DAG, exactly as in the figure).
pub fn paper_fig3() -> Graph {
    Graph::directed_from_edges(
        13,
        &[
            (0, 2),
            (1, 2),
            (2, 4),
            (4, 3),
            (4, 5),
            (5, 2),
            (5, 3),
            (3, 6),
            (4, 6),
            (6, 5),
            (3, 10),
            (3, 12),
            (10, 12),
            (11, 3),
            (11, 10),
            (6, 7),
            (6, 8),
            (7, 9),
            (8, 9),
        ],
    )
}

/// The undirected structure of [`paper_fig3`] (what Tarjan's algorithm sees).
pub fn paper_fig3_undirected() -> Graph {
    let arcs: Vec<(VertexId, VertexId)> = paper_fig3().arcs().collect();
    Graph::undirected_from_edges(13, &arcs)
}

/// A stand-in for Figure 2's Human Disease Network: 1419 vertices and 3926
/// edges, undirected, power-law, with the dense hub-and-module structure the
/// figure shows. Vertex and edge counts match the figure exactly.
pub fn disease_like() -> Graph {
    let seed = 0xD15EA5Eu64;
    let core = barabasi_albert(620, 3, seed);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let specs: Vec<CommunitySpec> = (0..55)
        .map(|_| {
            let size = rng.gen_range(4..12);
            CommunitySpec { size, edges: size + size / 2 }
        })
        .collect();
    let mut g = bridge_communities(&core, &specs, seed + 2);
    // Top up with whiskers to the exact vertex count, then with random core
    // edges to the exact edge count.
    let target_v = 1419;
    let target_e = 3926;
    assert!(g.num_vertices() <= target_v, "{} vertices", g.num_vertices());
    let whiskers = target_v - g.num_vertices();
    g = apgre_graph::generators::attach_whiskers(&g, whiskers, true, seed + 3);
    let mut edges: Vec<(VertexId, VertexId)> = g.undirected_edges().collect();
    let mut rng = StdRng::seed_from_u64(seed + 4);
    while edges.len() < target_e {
        let u = rng.gen_range(0..620u32);
        let v = rng.gen_range(0..620u32);
        if u != v && !g.csr().has_edge(u, v) && !edges.contains(&(u.min(v), u.max(v))) {
            edges.push((u.min(v), u.max(v)));
        }
    }
    Graph::undirected_from_edges(target_v, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_bc::{bc_apgre, bc_serial};
    use apgre_decomp::{decompose, PartitionOptions};

    #[test]
    fn fig3_articulation_points() {
        let d = decompose(&paper_fig3(), &PartitionOptions::default());
        let arts: Vec<u32> = (0..13).filter(|&v| d.is_articulation[v as usize]).collect();
        assert_eq!(arts, vec![2, 3, 6]);
    }

    #[test]
    fn fig3_subdag_reachability_matches_figure() {
        let g = paper_fig3();
        // blue SD6: from 6, within {middle ∪ blob}: {2,5,3,4,12,10}
        let dist = apgre_graph::traversal::bfs_distances(g.csr(), 6);
        let reached: Vec<u32> =
            (0..13).filter(|&v| v != 6 && dist[v as usize] != apgre_graph::UNREACHED).collect();
        assert_eq!(reached, vec![2, 3, 4, 5, 7, 8, 9, 10, 12]); // blue ∪ brown
                                                                // vertex 11 appears in no DAG except its own.
        assert_eq!(g.in_degree(11), 0);
        // green SD3 ∪ pink SD3: from 3 reaches everything except 0, 1, 11.
        let dist = apgre_graph::traversal::bfs_distances(g.csr(), 3);
        let reached: Vec<u32> =
            (0..13).filter(|&v| v != 3 && dist[v as usize] != apgre_graph::UNREACHED).collect();
        assert_eq!(reached, vec![2, 4, 5, 6, 7, 8, 9, 10, 12]);
    }

    #[test]
    fn fig3_gamma_and_alpha_beta() {
        let g = paper_fig3();
        let d = decompose(&g, &PartitionOptions { merge_threshold: 3, ..Default::default() });
        d.validate(&g).unwrap();
        assert_eq!(d.num_subgraphs(), 3);
        let middle = d.subgraphs.iter().find(|sg| sg.contains(4)).unwrap();
        let l2 = middle.local_of(2).unwrap() as usize;
        assert_eq!(middle.gamma[l2], 2, "whiskers 0 and 1 fold into γ(2)");
        // Directed α/β at the boundaries of the middle sub-graph:
        // beyond 3 lies {10,11,12}; from 3 only {10,12} are reachable (α=2)
        // and only {11} reaches 3 (β=1). Beyond 6 lies {7,8,9}: α=3, β=0.
        let l3 = middle.local_of(3).unwrap() as usize;
        let l6 = middle.local_of(6).unwrap() as usize;
        assert_eq!(middle.alpha[l3], 2);
        assert_eq!(middle.beta[l3], 1);
        assert_eq!(middle.alpha[l6], 3);
        assert_eq!(middle.beta[l6], 0);
    }

    #[test]
    fn fig3_apgre_matches_brandes() {
        let g = paper_fig3();
        let want = bc_serial(&g);
        let got = bc_apgre(&g);
        for v in 0..13 {
            assert!((got[v] - want[v]).abs() < 1e-9, "vertex {v}: {} vs {}", got[v], want[v]);
        }
    }

    #[test]
    fn disease_like_matches_figure_counts() {
        let g = disease_like();
        assert_eq!(g.num_vertices(), 1419);
        assert_eq!(g.num_edges(), 3926);
        assert!(!g.is_directed());
    }

    #[test]
    fn disease_like_has_many_articulation_points() {
        let g = disease_like();
        let d = decompose(&g, &PartitionOptions::default());
        let arts = d.num_articulation_points();
        assert!(arts > 100, "{arts} articulation points");
    }
}
