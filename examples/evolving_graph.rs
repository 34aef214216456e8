//! Evolving-graph BC with the incremental engine: recompute betweenness
//! after small edits, re-sweeping only the sub-graphs whose structure
//! actually changed.
//!
//! ```sh
//! cargo run --release --example evolving_graph
//! ```

use apgre::prelude::*;
use apgre::workloads::{get, Scale};
use std::time::Instant;

fn main() {
    let g0 = get("email-enron-like").unwrap().graph(Scale::Small);
    println!("base graph: {} vertices, {} edges", g0.num_vertices(), g0.num_edges());

    let t = Instant::now();
    let mut engine = DynamicBc::new(&g0, ApgreOptions::default());
    println!(
        "\ncold run: {:?} ({} sub-graph sweeps)",
        t.elapsed(),
        engine.decomposition().num_subgraphs()
    );

    // Simulate an evolving network: add a few chords inside one community
    // at a time and recompute.
    let mut edges: Vec<(VertexId, VertexId)> = g0.undirected_edges().collect();
    let decomp = decompose(&g0, &PartitionOptions::default());
    let small_sgs: Vec<_> = decomp
        .subgraphs
        .iter()
        .filter(|sg| sg.id != decomp.subgraphs[decomp.top_subgraph].id && sg.num_vertices() >= 4)
        .take(5)
        .collect();

    let (mut swept, mut reused) = (0, 0);
    for (step, sg) in small_sgs.iter().enumerate() {
        // Add a chord between the first and last local vertices of this
        // community (if absent) — only the sub-graphs the edit touches are
        // re-swept; every other contribution is carried forward.
        let (a, b) = (sg.globals[0], *sg.globals.last().unwrap());
        if a == b || edges.iter().any(|&e| e == (a, b) || e == (b, a)) {
            continue;
        }
        edges.push((a, b));
        let t = Instant::now();
        let report = engine.apply(&MutationBatch::new().add_edge(a, b));
        let dt = t.elapsed();
        swept += report.dirty_subgraphs;
        reused += report.reused_contributions;
        println!(
            "edit {}: +chord in SG{} -> {:?} batch, recompute {:?}, re-swept {} sub-graph(s), \
             reused {}",
            step + 1,
            sg.id,
            report.class,
            dt,
            report.dirty_subgraphs,
            report.reused_contributions
        );
        // Exactness spot-check every other step.
        if step % 2 == 0 {
            let g = Graph::undirected_from_edges(g0.num_vertices(), &edges);
            let exact = bc_serial(&g);
            let max_err = engine
                .scores()
                .iter()
                .zip(&exact)
                .map(|(x, y)| (x - y).abs() / (1.0 + y.abs()))
                .fold(0.0f64, f64::max);
            assert!(max_err < 1e-9, "max rel err {max_err}");
        }
    }

    println!("\ntotal: {swept} sub-graph kernel runs, {reused} contributions reused");
}
