//! Weighted betweenness centrality — Brandes' generalization to positive
//! integer weights, plus the APGRE extension.
//!
//! The paper evaluates unweighted graphs only, but its decomposition theory
//! never uses unweightedness: articulation points dominate every
//! inter-sub-graph path whatever the weights, `α`/`β` are pure reachability
//! counts, and the whisker argument (`D_s` is a sub-DAG of `D_u`) holds for
//! any positive weights. The only change is the forward phase — Dijkstra
//! instead of BFS — and the backward sweep walking the settle order instead
//! of BFS levels, with the successor test `dist[w] == dist[v] + w(v,w)`.
//! Positive weights are required (the substrate rejects zeros) because a
//! zero-weight excursion out of a sub-graph could tie a shortest path.
//!
//! Weighted APGRE therefore has no kernel or scheduler of its own: it hands
//! every sub-graph's weights to the one dispatcher
//! (`crate::apgre::run_subgraph_kernels`), which runs the one sub-graph
//! kernel (`crate::apgre::kernel::bc_in_subgraph`), so weighted graphs share
//! its per-worker workspaces, whisker fold, both sweeps (sequential and
//! root-parallel) and Equation-8 fold. Parallel Δ-stepping inside one
//! Dijkstra is out of scope.

use crate::apgre::{fold_runs, full_jobs, run_subgraph_kernels, ApgreOptions, DecompositionView};
use apgre_decomp::{decompose, Decomposition, PartitionOptions, SubGraph};
use apgre_graph::weighted::{dijkstra_sssp, WeightedGraph, WUNREACHED};
use apgre_graph::VertexId;

/// Serial weighted Brandes: one Dijkstra per source, dependency accumulation
/// in reverse settle order. `O(V·(E log V))`.
pub fn bc_weighted_serial(wg: &WeightedGraph) -> Vec<f64> {
    let n = wg.num_vertices();
    let csr = wg.structure().csr();
    let weights = wg.fwd_weights();
    let mut bc = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    for s in 0..n as VertexId {
        let dag = dijkstra_sssp(csr, weights, s);
        for &v in dag.order.iter().rev() {
            let (targets, ws) = wg.out_arcs(v);
            let mut acc = 0.0;
            for (i, &w) in targets.iter().enumerate() {
                if dag.dist[w as usize] == dag.dist[v as usize] + ws[i] as u64 {
                    acc +=
                        dag.sigma[v as usize] / dag.sigma[w as usize] * (1.0 + delta[w as usize]);
                }
            }
            delta[v as usize] = acc;
            if v != s {
                bc[v as usize] += acc;
            }
        }
        for &v in &dag.order {
            delta[v as usize] = 0.0;
        }
    }
    bc
}

/// Definitional weighted BC — the independent test oracle (`O(V²)` memory).
pub fn naive_weighted_bc(wg: &WeightedGraph) -> Vec<f64> {
    let n = wg.num_vertices();
    let csr = wg.structure().csr();
    let weights = wg.fwd_weights();
    let dags: Vec<_> = (0..n as VertexId).map(|s| dijkstra_sssp(csr, weights, s)).collect();
    let mut bc = vec![0.0f64; n];
    for s in 0..n {
        for t in 0..n {
            if s == t || dags[s].dist[t] == WUNREACHED {
                continue;
            }
            for v in 0..n {
                if v == s || v == t {
                    continue;
                }
                if dags[s].dist[v] != WUNREACHED
                    && dags[v].dist[t] != WUNREACHED
                    && dags[s].dist[v] + dags[v].dist[t] == dags[s].dist[t]
                {
                    bc[v] += dags[s].sigma[v] * dags[v].sigma[t] / dags[s].sigma[t];
                }
            }
        }
    }
    bc
}

/// Weighted APGRE with default partition options.
pub fn bc_weighted_apgre(wg: &WeightedGraph) -> Vec<f64> {
    bc_weighted_apgre_with(wg, &PartitionOptions::default())
}

/// Weighted APGRE: decompose the structure (weights don't move articulation
/// points or reachability), then sweep every sub-graph with the shared
/// Algorithm-2 kernel's Dijkstra forward phase and merge.
pub fn bc_weighted_apgre_with(wg: &WeightedGraph, popts: &PartitionOptions) -> Vec<f64> {
    let decomp = decompose(wg.structure(), popts);
    bc_weighted_from_decomposition(wg, &decomp)
}

/// Weighted APGRE on a pre-built decomposition (default [`ApgreOptions`]).
fn bc_weighted_from_decomposition(wg: &WeightedGraph, decomp: &Decomposition) -> Vec<f64> {
    let weights: Vec<Vec<u32>> = decomp.subgraphs.iter().map(|sg| local_weights(wg, sg)).collect();
    let view = DecompositionView { decomp, weights: Some(&weights) };
    let jobs = full_jobs(decomp, 0..decomp.num_subgraphs());
    let runs = run_subgraph_kernels(view, &jobs, &ApgreOptions::default());
    fold_runs(decomp, wg.num_vertices(), &runs)
}

/// Per-sub-graph arc weights, aligned with [`SubGraph::sweep_csr`].
fn local_weights(wg: &WeightedGraph, sg: &SubGraph) -> Vec<u32> {
    sg.sweep_csr()
        .edges()
        .map(|(ul, vl)| wg.weight(sg.globals[ul as usize], sg.globals[vl as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_graph::generators;
    use apgre_graph::Graph;

    fn assert_close(ctx: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{ctx}");
        for i in 0..want.len() {
            assert!(
                (got[i] - want[i]).abs() <= 1e-6 * (1.0 + want[i].abs()),
                "{ctx}: vertex {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn unit_weights_match_unweighted_brandes() {
        for seed in 0..4 {
            let g = generators::gnm_undirected(50, 90, seed);
            let wg = WeightedGraph::unit(g.clone());
            assert_close("unit-und", &bc_weighted_serial(&wg), &crate::brandes::bc_serial(&g));
            let g = generators::gnm_directed(40, 110, seed);
            let wg = WeightedGraph::unit(g.clone());
            assert_close("unit-dir", &bc_weighted_serial(&wg), &crate::brandes::bc_serial(&g));
        }
    }

    #[test]
    fn weighted_serial_matches_naive() {
        for seed in 0..6 {
            let g = generators::gnm_undirected(28, 46, seed);
            let wg = WeightedGraph::random_weights(g, 7, seed + 100);
            assert_close("w-naive-und", &bc_weighted_serial(&wg), &naive_weighted_bc(&wg));
            let g = generators::gnm_directed(24, 60, seed);
            let wg = WeightedGraph::random_weights(g, 5, seed + 200);
            assert_close("w-naive-dir", &bc_weighted_serial(&wg), &naive_weighted_bc(&wg));
        }
    }

    #[test]
    fn weighted_apgre_matches_weighted_serial() {
        for seed in 0..6 {
            let core = generators::whiskered_community(&generators::WhiskeredCommunityParams {
                core_vertices: 40,
                core_attach: 2,
                community_count: 4,
                community_size: 8,
                community_density: 1.6,
                whiskers: 20,
                seed,
            });
            let wg = WeightedGraph::random_weights(core, 9, seed + 7);
            let want = bc_weighted_serial(&wg);
            let got = bc_weighted_apgre(&wg);
            assert_close(&format!("w-apgre seed {seed}"), &got, &want);
        }
    }

    #[test]
    fn weighted_apgre_matches_on_directed_whiskered() {
        let core = generators::rmat_directed(6, 5, 21);
        let g = generators::attach_directed_whiskers(&core, 30, 0.2, 22);
        let wg = WeightedGraph::random_weights(g, 6, 23);
        assert_close("w-apgre-dir", &bc_weighted_apgre(&wg), &bc_weighted_serial(&wg));
    }

    #[test]
    fn weighted_apgre_across_thresholds() {
        let g = generators::lollipop(7, 20);
        let wg = WeightedGraph::random_weights(g, 4, 31);
        let want = bc_weighted_serial(&wg);
        for threshold in [1usize, 4, 64] {
            let got = bc_weighted_apgre_with(
                &wg,
                &PartitionOptions { merge_threshold: threshold, ..Default::default() },
            );
            assert_close(&format!("t{threshold}"), &got, &want);
        }
    }

    #[test]
    fn weighted_path_closed_form() {
        // A weighted path: weights don't change BC on a path (unique paths).
        let g = generators::path(8);
        let wg = WeightedGraph::random_weights(g, 9, 17);
        let bc = bc_weighted_apgre(&wg);
        for i in 0..8 {
            assert_eq!(bc[i], 2.0 * (i as f64) * ((7 - i) as f64), "vertex {i}");
        }
    }

    #[test]
    fn weights_break_ties_that_unweighted_counts() {
        // Diamond 0-1-3 / 0-2-3: unweighted splits flow between 1 and 2;
        // make the 1-branch cheaper and it takes everything.
        let g = Graph::undirected_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let wg = WeightedGraph::from_graph_with(g, |u, v| {
            let e = (u.min(v), u.max(v));
            if e == (0, 1) || e == (1, 3) {
                1
            } else {
                2
            }
        });
        let bc = bc_weighted_serial(&wg);
        assert_eq!(bc[1], 2.0); // both directions of the (0,3) pair
        assert_eq!(bc[2], 0.0);
    }
}
