//! `hybrid` baseline: BC with a direction-optimizing forward phase
//! (Shun & Blelloch's Ligra BC, PPoPP'13, built on Beamer's hybrid BFS).
//!
//! In dense middle levels of small-world graphs the forward phase switches
//! to bottom-up: every unvisited vertex scans its in-neighbours and pulls σ
//! from the frontier. Unlike a plain BFS, BC needs the *full* σ sum, so the
//! bottom-up step cannot early-exit on the first frontier parent — the
//! saving relative to top-down comes from skipping already-visited vertices.
//! The backward phase is the successor scan shared with `succs`.

use super::{backward_succ, LevelWs, PAR_GRAIN};
use crate::sync::{protocol, Ordering};
use crate::util::{atomic_f64_vec, into_f64_vec};
use apgre_graph::{Graph, VertexId, UNREACHED};
use rayon::prelude::*;

/// Direction-switch policy of the forward phase below (Beamer's α/β thresholds).
#[derive(Clone, Copy, Debug)]
pub struct BcHybridPolicy {
    /// Switch to bottom-up when `frontier_out_edges · alpha > unexplored`.
    pub alpha: usize,
    /// Switch back to top-down when `frontier · beta < n`.
    pub beta: usize,
}

impl Default for BcHybridPolicy {
    fn default() -> Self {
        BcHybridPolicy { alpha: 14, beta: 24 }
    }
}

/// BC with direction-optimizing forward traversal (default policy).
pub fn bc_hybrid(g: &Graph) -> Vec<f64> {
    bc_hybrid_with(g, BcHybridPolicy::default())
}

/// BC with direction-optimizing forward traversal and an explicit policy.
pub fn bc_hybrid_with(g: &Graph, policy: BcHybridPolicy) -> Vec<f64> {
    let n = g.num_vertices();
    let bc = atomic_f64_vec(n);
    let mut ws = LevelWs::new(n);
    let fwd = g.csr();
    let rev = g.rev_csr();
    let total_edges = fwd.num_edges();
    for s in 0..n as VertexId {
        ws.dist[s as usize].store(0, Ordering::Relaxed);
        ws.sigma[s as usize].store(1.0);
        ws.levels.order.push(s);
        ws.levels.starts.push(0);
        let mut level_start = 0usize;
        let mut d = 0u32;
        let mut bottom_up = false;
        let mut visited_edges = fwd.degree(s);
        loop {
            let frontier = &ws.levels.order[level_start..];
            if frontier.is_empty() {
                ws.levels.starts.pop();
                break;
            }
            let dist = &ws.dist;
            let sigma = &ws.sigma;
            if !bottom_up {
                let frontier_edges: usize = frontier.iter().map(|&u| fwd.degree(u)).sum();
                // Saturating: `usize::MAX` is a legal "switch immediately"
                // policy and must not overflow the comparison.
                if policy.alpha > 0
                    && frontier_edges.saturating_mul(policy.alpha)
                        > total_edges.saturating_sub(visited_edges) + 1
                {
                    bottom_up = true;
                }
            } else if policy.beta > 0 && frontier.len().saturating_mul(policy.beta) < n {
                bottom_up = false;
            }
            let next: Vec<VertexId> = if bottom_up {
                // Bottom-up: every unvisited vertex pulls σ from in-neighbours
                // on the frontier. Single writer per vertex — no atomic adds.
                (0..n as VertexId)
                    .into_par_iter()
                    .filter_map(|v| {
                        if dist[v as usize].load(Ordering::Relaxed) != UNREACHED {
                            return None;
                        }
                        let mut acc = 0.0;
                        for &u in rev.neighbors(v) {
                            if dist[u as usize].load(Ordering::Relaxed) == d {
                                acc += sigma[u as usize].load();
                            }
                        }
                        if acc > 0.0 {
                            dist[v as usize].store(d + 1, Ordering::Relaxed);
                            sigma[v as usize].store(acc);
                            Some(v)
                        } else {
                            None
                        }
                    })
                    .collect()
            } else {
                // Top-down push: the shared CAS-discovery + σ-push protocol
                // (model-checked in `crate::sync::protocol`).
                let expand = |&u: &VertexId, next: &mut Vec<VertexId>| {
                    let su = sigma[u as usize].load();
                    for &v in fwd.neighbors(u) {
                        if protocol::discover_and_push(
                            dist,
                            sigma,
                            v as usize,
                            d + 1,
                            UNREACHED,
                            su,
                        ) {
                            next.push(v);
                        }
                    }
                };
                if frontier.len() < PAR_GRAIN {
                    let mut next = Vec::new();
                    for u in frontier {
                        expand(u, &mut next);
                    }
                    next
                } else {
                    frontier
                        .par_iter()
                        .fold(Vec::new, |mut acc, u| {
                            expand(u, &mut acc);
                            acc
                        })
                        .reduce(Vec::new, |mut a, mut b| {
                            a.append(&mut b);
                            a
                        })
                }
            };
            visited_edges += next.iter().map(|&u| fwd.degree(u)).sum::<usize>();
            level_start = ws.levels.order.len();
            ws.levels.starts.push(level_start);
            ws.levels.order.extend_from_slice(&next);
            d += 1;
        }
        ws.levels.starts.push(ws.levels.order.len());
        #[cfg(feature = "invariants")]
        crate::util::check_levels(&ws.levels, &ws.dist, &ws.sigma, s);
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
            assert_matches_serial(&name, &g, &bc_hybrid(&g));
        }
    }

    #[test]
    fn forced_bottom_up_matches() {
        // alpha huge => switch to bottom-up after the first level and stay.
        let policy = BcHybridPolicy { alpha: 1_000_000, beta: 0 };
        for (name, g) in zoo() {
            assert_matches_serial(&name, &g, &bc_hybrid_with(&g, policy));
        }
    }
}
