//! Runtime invariant checking for the decomposition (`--features
//! invariants`).
//!
//! [`check_decomposition`] runs after every [`crate::decompose`] call when the
//! feature is on. It re-derives the quantities the decomposition claims —
//! biconnected structure, component sizes, whisker counts — **independently**
//! of the bookkeeping that produced them, so a bug in Algorithm 1's merge
//! logic or the α/β fast path trips an assertion instead of silently skewing
//! BC scores:
//!
//! 1. the structural checks of [`Decomposition::validate`],
//! 2. block-cut-tree structure: articulation flags match a fresh BCC run,
//!    every articulation point sits in ≥ 2 BCCs, the bipartite incidence
//!    lists agree in both directions, and BCC weights account for every
//!    non-isolated vertex exactly once,
//! 3. the conservation laws: per sub-graph `|SG| + Σ α(a)` equals the size
//!    of its connected component (undirected), `Σ α`/`Σ β` bounded by the
//!    outside-vertex count (directed, where hanging regions are only
//!    partially reachable), and `β = α` on undirected graphs,
//! 4. a γ/whisker recount from the sub-graph structure alone,
//! 5. the whisker-free sweep layout: `folded_csr` equals the local arcs
//!    minus every arc with a whisker endpoint, and is absent on directed
//!    and whisker-free (including unfolded) sub-graphs.

use crate::bcc::biconnected_components;
use crate::block_cut_tree::BlockCutTree;
use crate::partition::Decomposition;
use apgre_graph::connectivity::connected_components;
use apgre_graph::{Csr, Graph};

/// Panics if any decomposition invariant is violated. See the module docs
/// for the checked properties.
pub fn check_decomposition(g: &Graph, d: &Decomposition) {
    if let Err(e) = d.validate(g) {
        panic!("invariants: structural validation failed: {e}");
    }
    check_block_cut_tree(g, d);
    check_conservation(g, d);
    check_gamma_recount(g, d);
    check_folded_csr(d);
}

/// Re-derives the biconnected structure and checks the block-cut tree.
fn check_block_cut_tree(g: &Graph, d: &Decomposition) {
    let und = g.to_undirected();
    let bcc = biconnected_components(&und);
    assert_eq!(
        d.num_bccs,
        bcc.count(),
        "invariants: decomposition holds {} BCCs, fresh run finds {}",
        d.num_bccs,
        bcc.count()
    );
    assert_eq!(
        d.is_articulation, bcc.is_articulation,
        "invariants: articulation flags disagree with a fresh BCC run"
    );
    let bct = BlockCutTree::build(&bcc);
    for (ai, &v) in bct.art_vertices.iter().enumerate() {
        let bccs = bct.art_bccs_of(ai as u32);
        assert!(
            bccs.len() >= 2,
            "invariants: articulation vertex {v} sits in {} BCC(s); an \
             articulation point must join at least two",
            bccs.len()
        );
        for &b in bccs {
            assert!(
                bct.bcc_arts_of(b).any(|a| a == v),
                "invariants: block-cut tree incidence is not symmetric \
                 (art {v} lists BCC {b}, which does not list it back)"
            );
        }
    }
    for b in 0..bct.num_bccs() as u32 {
        for v in bct.bcc_arts_of(b) {
            let ai = bct.art_index[v as usize];
            assert!(
                ai != u32::MAX && bct.art_bccs_of(ai).contains(&b),
                "invariants: BCC {b} lists art {v}, which does not list it back"
            );
        }
    }
    // Every non-isolated vertex weighs exactly once: non-articulation
    // vertices in their unique BCC, articulation vertices on their own node.
    let non_isolated =
        (0..und.num_vertices()).filter(|&v| und.out_degree(v as u32) > 0).count() as u64;
    let weighed: u64 = bct.bcc_nonart_weight.iter().sum::<u64>() + bct.num_arts() as u64;
    assert_eq!(
        weighed, non_isolated,
        "invariants: block-cut tree weights cover {weighed} vertices, the \
         graph has {non_isolated} non-isolated"
    );
}

/// Σα conservation per sub-graph against independently computed component
/// sizes.
fn check_conservation(g: &Graph, d: &Decomposition) {
    let comps = connected_components(g);
    for sg in &d.subgraphs {
        let Some(&v0) = sg.globals.first() else { continue };
        let comp = comps.comp[v0 as usize];
        for &v in &sg.globals {
            assert_eq!(
                comps.comp[v as usize], comp,
                "invariants: SG{} spans components {} and {}",
                sg.id, comp, comps.comp[v as usize]
            );
        }
        let comp_size = comps.sizes[comp as usize] as u64;
        let inside = sg.num_vertices() as u64;
        let alpha_sum: u64 = sg.alpha.iter().sum();
        let beta_sum: u64 = sg.beta.iter().sum();
        if g.is_directed() {
            // Hanging regions are disjoint but only partially reachable:
            // each is bounded by the outside-vertex count of the component.
            assert!(
                alpha_sum <= comp_size - inside,
                "invariants: SG{}: Σα = {alpha_sum} exceeds the {} vertices \
                 outside the sub-graph",
                sg.id,
                comp_size - inside
            );
            assert!(
                beta_sum <= comp_size - inside,
                "invariants: SG{}: Σβ = {beta_sum} exceeds the {} vertices \
                 outside the sub-graph",
                sg.id,
                comp_size - inside
            );
        } else {
            // Undirected: the sub-graph plus its hanging regions partition
            // the component exactly, and reachability is symmetric.
            assert_eq!(
                inside + alpha_sum,
                comp_size,
                "invariants: SG{}: |SG| + Σα = {} must equal the component \
                 size {comp_size}",
                sg.id,
                inside + alpha_sum
            );
            assert_eq!(
                sg.alpha, sg.beta,
                "invariants: SG{}: β must equal α on undirected graphs",
                sg.id
            );
        }
    }
}

/// Recounts γ from `is_whisker` and the local graph structure alone.
fn check_gamma_recount(g: &Graph, d: &Decomposition) {
    for sg in &d.subgraphs {
        let ln = sg.num_vertices();
        let mut recount = vec![0u32; ln];
        for l in 0..ln as u32 {
            if !sg.is_whisker[l as usize] {
                continue;
            }
            assert!(
                !sg.is_boundary[l as usize],
                "invariants: SG{}: boundary vertex {l} marked as whisker",
                sg.id
            );
            if g.is_directed() {
                assert!(
                    sg.graph.in_degree(l) == 0 && sg.graph.out_degree(l) == 1,
                    "invariants: SG{}: directed whisker {l} has in-degree {} \
                     out-degree {}",
                    sg.id,
                    sg.graph.in_degree(l),
                    sg.graph.out_degree(l)
                );
            } else {
                assert_eq!(
                    sg.graph.out_degree(l),
                    1,
                    "invariants: SG{}: whisker {l} has degree {}",
                    sg.id,
                    sg.graph.out_degree(l)
                );
            }
            let host = sg.graph.out_neighbors(l)[0];
            assert!(
                !sg.is_whisker[host as usize],
                "invariants: SG{}: whisker {l} hangs off whisker {host}",
                sg.id
            );
            recount[host as usize] += 1;
        }
        assert_eq!(
            recount, sg.gamma,
            "invariants: SG{}: γ does not match a recount of whisker hosts",
            sg.id
        );
    }
}

/// Re-cuts every sub-graph's whisker-free sweep layout from its local arcs
/// and whisker flags and compares it with the committed `folded_csr`.
fn check_folded_csr(d: &Decomposition) {
    for sg in &d.subgraphs {
        let ln = sg.num_vertices();
        let whiskers = sg.is_whisker.iter().any(|&w| w);
        let want = (!sg.graph.is_directed() && whiskers).then(|| {
            let arcs: Vec<(u32, u32)> = sg
                .graph
                .csr()
                .edges()
                .filter(|&(u, v)| !sg.is_whisker[u as usize] && !sg.is_whisker[v as usize])
                .collect();
            Csr::from_edges(ln, &arcs)
        });
        assert_eq!(
            sg.folded_csr,
            want,
            "invariants: SG{}: whisker-free CSR does not match the local arcs minus whisker \
             endpoints (directed: {}, whiskers: {whiskers})",
            sg.id,
            sg.graph.is_directed()
        );
    }
}
