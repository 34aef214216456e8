//! `succs` baseline: level-synchronous parallelization using successors
//! instead of predecessor lists (Madduri, Ediger, Jiang, Bader,
//! Chavarría-Miranda, IPDPS'09). The backward phase scans each vertex's
//! out-neighbours one level deeper, so every δ cell has exactly one writer
//! and the second phase needs no locks — the same structure as the paper's
//! Algorithm 2.

use super::{backward_succ, forward_pull, LevelWs};
use crate::util::{atomic_f64_vec, into_f64_vec};
use apgre_graph::{Graph, VertexId};

/// Fine-grained level-synchronous BC, successor method.
pub fn bc_succs(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices();
    let bc = atomic_f64_vec(n);
    let mut ws = LevelWs::new(n);
    let fwd = g.csr();
    let rev = g.rev_csr();
    for s in 0..n as VertexId {
        forward_pull(fwd, rev, s, &mut ws);
        backward_succ(fwd, s, &ws, &bc);
        ws.reset_touched();
    }
    into_f64_vec(bc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::test_support::{assert_matches_serial, zoo};

    #[test]
    fn matches_serial_on_zoo() {
        for (name, g) in zoo() {
            assert_matches_serial(&name, &g, &bc_succs(&g));
        }
    }

    #[test]
    fn empty_graph() {
        let g = apgre_graph::Graph::undirected_from_edges(0, &[]);
        assert!(bc_succs(&g).is_empty());
    }
}
