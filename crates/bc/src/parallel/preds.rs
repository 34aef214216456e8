//! `preds` baseline: the first fine-grained parallel BC (Bader & Madduri,
//! ICPP'06; the structure of the SSCA v2.2 kernel). Predecessor lists are
//! built during the forward phase under per-vertex locks; the backward phase
//! walks each vertex's predecessor list and pushes δ contributions with
//! atomic adds. This is the slowest of the baselines on most inputs — the
//! per-edge lock traffic is the cost the later baselines remove — and the
//! paper's Table 2 shows the same ordering.

use super::{LevelWs, PAR_GRAIN};
use crate::sync::Ordering;
use crate::util::{atomic_f64_vec, into_f64_vec};
use apgre_graph::{Graph, VertexId, UNREACHED};
use parking_lot::Mutex;
use rayon::prelude::*;

/// Fine-grained level-synchronous BC with predecessor lists and locks.
pub fn bc_preds(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices();
    let bc = atomic_f64_vec(n);
    let mut ws = LevelWs::new(n);
    let preds: Vec<Mutex<Vec<VertexId>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let fwd = g.csr();
    for s in 0..n as VertexId {
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
            let preds = &preds;
            let expand = |&u: &VertexId, next: &mut Vec<VertexId>| {
                let su = sigma[u as usize].load();
                for &v in fwd.neighbors(u) {
                    if dist[v as usize]
                        .compare_exchange(UNREACHED, d + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        next.push(v);
                    }
                    if dist[v as usize].load(Ordering::Relaxed) == d + 1 {
                        sigma[v as usize].fetch_add(su);
                        preds[v as usize].lock().push(u);
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

        // Backward: for each vertex (deepest level first) push
        // σ_v/σ_w · (1 + δ_w) to every predecessor v.
        let sigma = &ws.sigma;
        let delta = &ws.delta;
        for dd in (1..ws.levels.num_levels()).rev() {
            let level = ws.levels.level(dd);
            let body = |&w: &VertexId| {
                let coeff = (1.0 + delta[w as usize].load()) / sigma[w as usize].load();
                for &v in preds[w as usize].lock().iter() {
                    delta[v as usize].fetch_add(sigma[v as usize].load() * coeff);
                }
                if w != s {
                    bc[w as usize].store(bc[w as usize].load() + delta[w as usize].load());
                }
            };
            if level.len() < PAR_GRAIN {
                level.iter().for_each(body);
            } else {
                level.par_iter().for_each(body);
            }
        }
        // Clear only what this source touched.
        for &v in &ws.levels.order {
            preds[v as usize].lock().clear();
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
            assert_matches_serial(&name, &g, &bc_preds(&g));
        }
    }
}
