//! The fine-grained parallel BC baselines of the paper's evaluation (§5.1).
//!
//! All four level-synchronous baselines share the same outer structure —
//! sources are processed one at a time, parallelism lives *inside* the
//! per-source BFS and the backward dependency sweep — and differ in how they
//! synchronize the accumulation, which is exactly the axis the original
//! papers explored:
//!
//! * [`bc_preds`] — predecessor lists guarded by per-vertex locks plus atomic
//!   σ/δ accumulation (Bader & Madduri, ICPP'06),
//! * [`bc_succs`] — successor scans; every δ cell has a single writer, so no
//!   locks or CAS at all (Madduri et al., IPDPS'09),
//! * [`bc_lock_free`] — no predecessor lists, push-style atomic CAS
//!   accumulation in both phases (Tan et al., ICPP'09),
//! * [`bc_hybrid`] — direction-optimizing (top-down/bottom-up) forward phase
//!   (Ligra-style; Shun & Blelloch, PPoPP'13),
//! * [`bc_coarse`] — coarse-grained source-parallel execution, our stand-in
//!   for the Galois-based `async` baseline (see DESIGN.md §5).
//!
//! Small BFS levels fall back to sequential loops (`PAR_GRAIN`): on the road
//! graphs the frontiers are tiny and fork-join overhead would otherwise
//! dominate, which is also what the reference implementations do.

mod coarse;
mod hybrid;
mod lock_free;
mod preds;
mod succs;

pub use coarse::bc_coarse;
pub use hybrid::{bc_hybrid, bc_hybrid_with, BcHybridPolicy};
pub use lock_free::bc_lock_free;
pub use preds::bc_preds;
pub use succs::bc_succs;

use crate::sync::{AtomicU32, Ordering};
use crate::util::{atomic_f64_vec, AtomicF64, Levels};
use apgre_graph::{Csr, VertexId, UNREACHED};
use rayon::prelude::*;

/// Below this many vertices a level is processed sequentially.
pub(crate) const PAR_GRAIN: usize = 256;

/// Shared per-source state for the level-synchronous kernels.
pub(crate) struct LevelWs {
    pub dist: Vec<AtomicU32>,
    pub sigma: Vec<AtomicF64>,
    pub delta: Vec<AtomicF64>,
    pub levels: Levels,
}

impl LevelWs {
    pub fn new(n: usize) -> Self {
        LevelWs {
            dist: (0..n).map(|_| AtomicU32::new(UNREACHED)).collect(),
            sigma: atomic_f64_vec(n),
            delta: atomic_f64_vec(n),
            levels: Levels::default(),
        }
    }

    /// Resets only the vertices reached by the previous source.
    pub fn reset_touched(&mut self) {
        for &v in &self.levels.order {
            self.dist[v as usize].store(UNREACHED, Ordering::Relaxed);
            self.sigma[v as usize].store(0.0);
            self.delta[v as usize].store(0.0);
        }
        self.levels.clear();
    }
}

/// Level-synchronous forward phase with **pull-based σ**: the next frontier
/// is discovered by compare-exchange on the distance array, then each newly
/// discovered vertex pulls σ from its in-neighbours one level up — single
/// writer per cell, no contended adds. Fills `ws.levels`.
pub(crate) fn forward_pull(fwd: &Csr, rev: &Csr, s: VertexId, ws: &mut LevelWs) {
    ws.dist[s as usize].store(0, Ordering::Relaxed);
    ws.sigma[s as usize].store(1.0);
    ws.levels.order.push(s);
    ws.levels.starts.push(0);
    let mut level_start = 0usize;
    let mut d = 0u32;
    loop {
        let frontier = &ws.levels.order[level_start..];
        if frontier.is_empty() {
            break;
        }
        let dist = &ws.dist;
        let sigma = &ws.sigma;
        let next: Vec<VertexId> = if frontier.len() < PAR_GRAIN {
            let mut next = Vec::new();
            for &u in frontier {
                for &v in fwd.neighbors(u) {
                    if dist[v as usize]
                        .compare_exchange(UNREACHED, d + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        next.push(v);
                    }
                }
            }
            next
        } else {
            frontier
                .par_iter()
                .flat_map_iter(|&u| {
                    fwd.neighbors(u).iter().copied().filter(|&v| {
                        dist[v as usize]
                            .compare_exchange(
                                UNREACHED,
                                d + 1,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    })
                })
                .collect()
        };
        let pull = |&w: &VertexId| {
            let mut acc = 0.0;
            for &u in rev.neighbors(w) {
                if dist[u as usize].load(Ordering::Relaxed) == d {
                    acc += sigma[u as usize].load();
                }
            }
            sigma[w as usize].store(acc);
        };
        if next.len() < PAR_GRAIN {
            next.iter().for_each(pull);
        } else {
            next.par_iter().for_each(pull);
        }
        level_start = ws.levels.order.len();
        ws.levels.starts.push(level_start);
        ws.levels.order.extend_from_slice(&next);
        d += 1;
    }
    // `starts` currently ends at the last non-empty level's start; close it.
    ws.levels.starts.push(ws.levels.order.len());
    dedup_trailing_start(&mut ws.levels);
    #[cfg(feature = "invariants")]
    crate::util::check_levels(&ws.levels, &ws.dist, &ws.sigma, s);
}

fn dedup_trailing_start(levels: &mut Levels) {
    while levels.starts.len() >= 2
        && levels.starts[levels.starts.len() - 1] == levels.starts[levels.starts.len() - 2]
    {
        levels.starts.pop();
    }
}

/// Successor-scan backward sweep (single-writer δ): shared by `succs` and
/// `hybrid`. Adds dependencies of source `s` into `bc`.
pub(crate) fn backward_succ(fwd: &Csr, s: VertexId, ws: &LevelWs, bc: &[AtomicF64]) {
    let dist = &ws.dist;
    let sigma = &ws.sigma;
    let delta = &ws.delta;
    for d in (0..ws.levels.num_levels()).rev() {
        let level = ws.levels.level(d);
        let dv = d as u32;
        let body = |&v: &VertexId| {
            let mut acc = 0.0;
            let sv = sigma[v as usize].load();
            for &w in fwd.neighbors(v) {
                if dist[w as usize].load(Ordering::Relaxed) == dv + 1 {
                    acc += sv / sigma[w as usize].load() * (1.0 + delta[w as usize].load());
                }
            }
            delta[v as usize].store(acc);
            if v != s {
                bc[v as usize].store(bc[v as usize].load() + acc);
            }
        };
        if level.len() < PAR_GRAIN {
            level.iter().for_each(body);
        } else {
            level.par_iter().for_each(body);
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use apgre_graph::{generators, Graph};

    /// The graph zoo every parallel baseline is checked against serial
    /// Brandes on.
    pub fn zoo() -> Vec<(String, Graph)> {
        let mut v: Vec<(String, Graph)> = vec![
            ("path".into(), generators::path(30)),
            ("cycle".into(), generators::cycle(24)),
            ("star".into(), generators::star(40)),
            ("grid".into(), generators::grid2d(9, 11)),
            ("tree".into(), generators::random_tree(120, 7)),
            ("lollipop".into(), generators::lollipop(9, 20)),
            ("er-und".into(), generators::erdos_renyi_undirected(90, 0.06, 3)),
            ("er-dir".into(), generators::erdos_renyi_directed(80, 0.05, 5)),
            ("gnm-dir".into(), generators::gnm_directed(120, 360, 11)),
            ("ba".into(), generators::barabasi_albert(150, 2, 13)),
            ("rmat-dir".into(), generators::rmat_directed(7, 6, 17)),
        ];
        v.push((
            "whiskered".into(),
            generators::whiskered_community(&generators::WhiskeredCommunityParams {
                core_vertices: 70,
                core_attach: 2,
                community_count: 5,
                community_size: 10,
                community_density: 1.7,
                whiskers: 35,
                seed: 19,
            }),
        ));
        v.push((
            "disconnected".into(),
            generators::disjoint_union(&[
                &generators::cycle(12),
                &generators::random_tree(20, 23),
                &generators::star(6),
            ]),
        ));
        v.push((
            "dir-whiskers".into(),
            generators::attach_directed_whiskers(
                &generators::rmat_directed(6, 5, 29),
                40,
                0.25,
                31,
            ),
        ));
        v
    }

    pub fn assert_matches_serial(name: &str, g: &Graph, got: &[f64]) {
        let want = crate::brandes::bc_serial(g);
        assert_eq!(got.len(), want.len(), "{name}: length");
        for i in 0..want.len() {
            let (x, y) = (got[i], want[i]);
            assert!(
                (x - y).abs() <= 1e-7 * (1.0 + x.abs().max(y.abs())),
                "{name}: vertex {i}: got {x}, want {y}"
            );
        }
    }
}
