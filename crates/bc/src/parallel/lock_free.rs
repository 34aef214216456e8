//! `lockSyncFree` baseline: fine-grained parallel BC with no lock
//! synchronization (Tan, Tu, Sun, ICPP'09). Both phases push contributions
//! with atomic compare-exchange adds — σ is accumulated during frontier
//! expansion and δ is pushed from each vertex to its predecessors — so the
//! kernel trades the `succs` pull passes for contended atomics.

use super::{LevelWs, PAR_GRAIN};
use crate::sync::{protocol, Ordering};
use crate::util::{atomic_f64_vec, into_f64_vec};
use apgre_graph::{Graph, VertexId, UNREACHED};
use rayon::prelude::*;

/// Fine-grained level-synchronous BC, lock-free push accumulation.
pub fn bc_lock_free(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices();
    let bc = atomic_f64_vec(n);
    let mut ws = LevelWs::new(n);
    let fwd = g.csr();
    let rev = g.rev_csr();
    for s in 0..n as VertexId {
        // Forward: push-style frontier expansion; σ via atomic fetch-add.
        ws.dist[s as usize].store(0, Ordering::Relaxed);
        ws.sigma[s as usize].store(1.0);
        ws.levels.order.push(s);
        ws.levels.starts.push(0);
        let mut level_start = 0usize;
        let mut d = 0u32;
        loop {
            let frontier = &ws.levels.order[level_start..];
            if frontier.is_empty() {
                ws.levels.starts.pop();
                break;
            }
            let dist = &ws.dist;
            let sigma = &ws.sigma;
            // The CAS-claim → σ-push window here is the protocol the loom
            // tests explore exhaustively (see `crate::sync::protocol`).
            let expand = |&u: &VertexId, next: &mut Vec<VertexId>| {
                let su = sigma[u as usize].load();
                for &v in fwd.neighbors(u) {
                    if protocol::discover_and_push(dist, sigma, v as usize, d + 1, UNREACHED, su) {
                        next.push(v);
                    }
                }
            };
            let next: Vec<VertexId> = if frontier.len() < PAR_GRAIN {
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
            };
            level_start = ws.levels.order.len();
            ws.levels.starts.push(level_start);
            ws.levels.order.extend_from_slice(&next);
            d += 1;
        }
        ws.levels.starts.push(ws.levels.order.len());
        #[cfg(feature = "invariants")]
        crate::util::check_levels(&ws.levels, &ws.dist, &ws.sigma, s);

        // Backward: push δ contributions to in-neighbours one level up.
        let dist = &ws.dist;
        let sigma = &ws.sigma;
        let delta = &ws.delta;
        for dd in (1..ws.levels.num_levels()).rev() {
            let level = ws.levels.level(dd);
            let dw = dd as u32;
            let body = |&w: &VertexId| {
                let coeff = (1.0 + delta[w as usize].load()) / sigma[w as usize].load();
                for &v in rev.neighbors(w) {
                    protocol::push_dependency(dist, sigma, delta, v as usize, dw - 1, coeff);
                }
            };
            if level.len() < PAR_GRAIN {
                level.iter().for_each(body);
            } else {
                level.par_iter().for_each(body);
            }
            // δ of this level is now final; fold it into the scores. Audit
            // note: this Relaxed load/store pair is sound without a
            // Release/Acquire edge because (a) the δ values it reads were
            // published by the `for_each` join right above (rayon's join is
            // the release/acquire edge — see `crate::sync` §2), and (b) each
            // `bc[w]` has a single writer here: `w` ranges over one level,
            // levels are disjoint (checked by `--features invariants`), and
            // the source loop is sequential.
            let bc = &bc;
            let score = |&w: &VertexId| {
                if w != s {
                    bc[w as usize].store(bc[w as usize].load() + delta[w as usize].load());
                }
            };
            if level.len() < PAR_GRAIN {
                level.iter().for_each(score);
            } else {
                level.par_iter().for_each(score);
            }
        }
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
            assert_matches_serial(&name, &g, &bc_lock_free(&g));
        }
    }
}
