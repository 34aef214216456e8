//! The per-sub-graph BC kernels — the paper's Algorithm 2 (`BCinSG`).
//!
//! For every root `s ∈ R_sgi` a kernel runs one BFS over the sub-graph's
//! local CSR and one backward sweep that accumulates the four dependencies of
//! §3.1.1 simultaneously:
//!
//! * `δ_i2i` — Brandes' classic dependency, restricted to the sub-graph
//!   (Equation 3),
//! * `δ_i2o` — paths ending beyond a boundary articulation point, weighted by
//!   `α` (Equation 4),
//! * `δ_o2o` — paths crossing the sub-graph between two boundary points,
//!   weighted by `β(s)·α(t)` (Equation 6; only when `s` is itself a boundary
//!   point),
//! * `δ_o2i` — sources beyond `s`; never materialized as an array because
//!   Equation 5 reduces it to `β(s)·δ_i2i(v)` (the `sizeO2I` factor of
//!   Algorithm 2).
//!
//! The `δ^init` terms of Equations 4/6 are folded into the backward sweep
//! lazily (when a vertex is popped) rather than pre-initialized as in the
//! paper's phase 0 — same recursion, but the workspace reset stays
//! `O(reached)`.
//!
//! Scores merge per Equation 7. One deviation from the paper as printed, with
//! rationale in DESIGN.md §3.3: for **undirected** whiskers the root's own
//! score uses `γ(s)·(δ_i2i(s) − 1 + δ_i2o(s) + α(s))` — the `−1` excludes the
//! whisker itself from its derived target set, and the `+α(s)` restores the
//! `δ^init_i2o` term at the root that Algorithm 2's `i != s` guard drops.
//! Both corrections are pinned by the `apgre ≡ brandes` property tests.
//!
//! # One entry point, three sweeps
//!
//! [`bc_in_subgraph`] is the module's only function. It sweeps an explicit
//! root slice — callers pass `&sg.roots` for the exact kernel, a sample for
//! the estimator — with the strategy [`super::KernelPolicy`] resolved for
//! the sub-graph (see DESIGN.md §3.7):
//!
//! * [`KernelChoice::Seq`] — one thread, plain `f64`, the shared
//!   `sweep_root` loop body;
//! * [`KernelChoice::RootParallel`] — coarse-grained **root-parallel**: roots
//!   are split into fixed chunks, each chunk swept with the *same*
//!   sequential body into a private partial score vector (zero atomics on
//!   the hot path), and the partials are merged by a fixed-shape tree —
//!   bitwise deterministic for a given pool size;
//! * [`KernelChoice::LevelSync`] — fine-grained **level-synchronous**: the
//!   paper's inner level of the two-level parallelization, for the
//!   few-roots-but-huge sub-graph regime where root supply cannot feed the
//!   workers.
//!
//! An optional per-root observer receives each root's own Equation-7
//! contribution vector (the hook of the adaptive sampling estimator); it
//! forces the sequential sweep, the only one that visits roots in slice
//! order, and leaves `bc_local` bitwise identical to the unobserved sweep.
//! The caller-owned [`SgWorkspace`] lets the driver's buffer pool recycle
//! the `O(n)` scratch arrays across sub-graphs.

use super::KernelChoice;
use crate::sync::{AtomicU32, Ordering};
use crate::util::{add_assign_scores, atomic_f64_vec, AtomicF64, Levels};
use apgre_decomp::SubGraph;
use apgre_graph::{VertexId, UNREACHED};
use rayon::prelude::*;
use std::collections::VecDeque;

/// Reusable scratch for [`bc_in_subgraph`]: the sequential sweep's arrays,
/// built and grown on first use, and the level-synchronous sweep's atomic
/// arrays, built only if that strategy ever runs. Cells keep the
/// reset-clean invariant between calls, so one pooled workspace can serve
/// sub-graphs of any size and any strategy.
#[derive(Default)]
pub struct SgWorkspace {
    seq: SeqWs,
    par: Option<ParWs>,
}

impl SgWorkspace {
    fn par(&mut self, n: usize) -> &mut ParWs {
        let ws = self.par.get_or_insert_with(|| ParWs::new(n));
        ws.ensure(n);
        ws
    }
}

/// Sequential workspace for one sub-graph: the BFS and four-dependency
/// arrays of Algorithm 2, sized for the sub-graph's vertex count and reset
/// in `O(reached)` between roots so it can be reused across roots, chunks,
/// and whole sub-graphs. `contrib` is the observer's per-root contribution
/// vector, grown only by observed sweeps.
#[derive(Default)]
struct SeqWs {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    d_i2i: Vec<f64>,
    d_i2o: Vec<f64>,
    d_o2o: Vec<f64>,
    contrib: Vec<f64>,
    order: Vec<VertexId>,
    queue: VecDeque<VertexId>,
}

impl SeqWs {
    /// Grows the workspace to cover `n` vertices. Cells keep the reset-clean
    /// invariant (`dist = UNREACHED`, everything else zero).
    fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, UNREACHED);
            self.sigma.resize(n, 0.0);
            self.d_i2i.resize(n, 0.0);
            self.d_i2o.resize(n, 0.0);
            self.d_o2o.resize(n, 0.0);
        }
    }

    fn reset_touched(&mut self) {
        for &v in &self.order {
            self.dist[v as usize] = UNREACHED;
            self.sigma[v as usize] = 0.0;
            self.d_i2i[v as usize] = 0.0;
            self.d_i2o[v as usize] = 0.0;
            self.d_o2o[v as usize] = 0.0;
        }
        self.order.clear();
    }
}

/// Algorithm 2 over the roots `roots` of sub-graph `sg`, accumulating their
/// exact Equation-7 contribution into `bc_local` (indexed by local vertex
/// id, length `sg.num_vertices()`). Returns the number of edges examined
/// (forward + backward scans). Pinned against serial Brandes (`bc_serial`)
/// by the kernel table in `tests/kernel_policies.rs`.
///
/// * `roots` — compacted local ids of `sg`; `&sg.roots` for the exact
///   kernel. Sweeping a subset yields that subset's exact contribution (the
///   sampled estimator rescales it), and sweeping two halves in turn into
///   the same `bc_local` sums to the full sweep.
/// * `choice` — the strategy (normally [`super::KernelPolicy::choose`]'s
///   resolution for this sub-graph).
/// * `grain` — minimum roots per root-parallel chunk and minimum frontier
///   width before the level-synchronous sweep forks a level.
/// * `ws` — fresh (`SgWorkspace::default()`) or pooled; the root-parallel
///   sweep builds one workspace per worker instead.
/// * `observer` — when given, called once per root, in slice order, with
///   that root's own dense contribution vector (`0` for vertices the root
///   did not reach). Forces the sequential sweep; `bc_local` still receives
///   exactly the unobserved sweep's single add per vertex and root, so the
///   result is **bitwise identical** to a `Seq` run over the same roots.
pub fn bc_in_subgraph(
    sg: &SubGraph,
    roots: &[VertexId],
    choice: KernelChoice,
    grain: usize,
    ws: &mut SgWorkspace,
    bc_local: &mut [f64],
    observer: Option<&mut dyn FnMut(&[f64])>,
) -> u64 {
    let n = sg.num_vertices();
    debug_assert_eq!(bc_local.len(), n);
    let grain = grain.max(1);
    match (observer, choice) {
        (Some(observe), _) => sweep_roots_observed(sg, roots, &mut ws.seq, bc_local, observe),
        (None, KernelChoice::Seq) => sweep_roots_seq(sg, roots, &mut ws.seq, bc_local),
        (None, KernelChoice::RootParallel) => sweep_roots_par(sg, roots, bc_local, grain),
        (None, KernelChoice::LevelSync) => {
            sweep_roots_level_sync(sg, roots, ws.par(n), bc_local, grain)
        }
    }
}

/// One root's forward BFS plus backward four-dependency sweep — Algorithm 2's
/// loop body, shared verbatim by the sequential, observed and root-parallel
/// sweeps so they cannot drift apart. Accumulates into `bc_local` and
/// returns the number of edges examined. With `RECORD`, the root's own
/// Equation-7 term for every touched vertex is *also* written to
/// `ws.contrib` (`contrib[v] = term` before the `bc_local[v] += term` add,
/// so the accumulated span stays bitwise identical to the unrecorded
/// sweep). Does **not** reset the workspace — the caller decides when, so
/// an observer can still read `ws.order` / `ws.contrib` after the sweep.
fn sweep_root<const RECORD: bool>(
    sg: &SubGraph,
    s: VertexId,
    ws: &mut SeqWs,
    bc_local: &mut [f64],
) -> u64 {
    let csr = sg.graph.csr();
    let directed = sg.graph.is_directed();
    let mut edges = 0u64;
    // Phase 1: forward BFS (σ and order).
    ws.dist[s as usize] = 0;
    ws.sigma[s as usize] = 1.0;
    ws.order.push(s);
    ws.queue.push_back(s);
    // Audited: every id is a compacted sub-graph id `< sg.n` by construction,
    // and all workspace arrays are sized to sg.n. lint:allow(hot_index)
    while let Some(u) = ws.queue.pop_front() {
        let du = ws.dist[u as usize];
        for &v in csr.neighbors(u) {
            edges += 1;
            if ws.dist[v as usize] == UNREACHED {
                ws.dist[v as usize] = du + 1;
                ws.order.push(v);
                ws.queue.push_back(v);
            }
            if ws.dist[v as usize] == du + 1 {
                ws.sigma[v as usize] += ws.sigma[u as usize];
            }
        }
    }
    // Phase 2: backward accumulation of the four dependencies and the
    // score merge (Equation 7).
    let s_boundary = sg.is_boundary[s as usize];
    let beta_s = if s_boundary { sg.beta[s as usize] as f64 } else { 0.0 };
    let gamma_s = sg.gamma[s as usize] as f64;
    // Audited: same compacted-id invariant as phase 1; `order` holds only
    // ids the BFS itself pushed. lint:allow(hot_index)
    for idx in (0..ws.order.len()).rev() {
        let v = ws.order[idx];
        let vu = v as usize;
        let dv = ws.dist[vu];
        let sv = ws.sigma[vu];
        let boundary_v = sg.is_boundary[vu] && v != s;
        let mut i2i = 0.0;
        let mut i2o = if boundary_v { sg.alpha[vu] as f64 } else { 0.0 };
        let mut o2o = if s_boundary && boundary_v { beta_s * sg.alpha[vu] as f64 } else { 0.0 };
        for &w in csr.neighbors(v) {
            edges += 1;
            if ws.dist[w as usize] == dv + 1 {
                let c = sv / ws.sigma[w as usize];
                i2i += c * (1.0 + ws.d_i2i[w as usize]);
                i2o += c * ws.d_i2o[w as usize];
                if s_boundary {
                    o2o += c * ws.d_o2o[w as usize];
                }
            }
        }
        ws.d_i2i[vu] = i2i;
        ws.d_i2o[vu] = i2o;
        ws.d_o2o[vu] = o2o;
        if v != s {
            let term = (1.0 + gamma_s) * (i2i + i2o) + beta_s * i2i + o2o;
            if RECORD {
                ws.contrib[vu] = term;
            }
            bc_local[vu] += term;
        } else if gamma_s > 0.0 {
            let alpha_s = if s_boundary { sg.alpha[vu] as f64 } else { 0.0 };
            let whisker_self = if directed { 0.0 } else { 1.0 };
            let term = gamma_s * ((i2i - whisker_self) + i2o + alpha_s);
            if RECORD {
                ws.contrib[vu] = term;
            }
            bc_local[vu] += term;
        }
    }
    edges
}

/// The sequential sweep: every root in slice order through [`sweep_root`].
fn sweep_roots_seq(sg: &SubGraph, roots: &[VertexId], ws: &mut SeqWs, bc_local: &mut [f64]) -> u64 {
    ws.ensure(sg.num_vertices());
    let mut edges = 0u64;
    for &s in roots {
        edges += sweep_root::<false>(sg, s, ws, bc_local);
        ws.reset_touched();
    }
    edges
}

/// The observed sequential sweep: after every root's backward sweep,
/// `observe` sees that root's dense contribution vector; the touched cells
/// are then zeroed so `ws.contrib` is clean for the next root. Observing
/// costs an extra O(reached) store/reset per root, never a different
/// rounding. Roots are observed in slice order (the estimator draws them
/// sorted ascending), which fixes the fold order of any streaming
/// statistics the observer accumulates.
fn sweep_roots_observed(
    sg: &SubGraph,
    roots: &[VertexId],
    ws: &mut SeqWs,
    bc_local: &mut [f64],
    observe: &mut dyn FnMut(&[f64]),
) -> u64 {
    let n = sg.num_vertices();
    ws.ensure(n);
    if ws.contrib.len() < n {
        ws.contrib.resize(n, 0.0);
    }
    let mut edges = 0u64;
    // Audited: `contrib[..n]` is a length-n slice take with n ≤
    // contrib.len() ensured above; the reset loop writes only compacted ids
    // the BFS pushed, all `< n`. lint:allow(hot_index)
    for &s in roots {
        edges += sweep_root::<true>(sg, s, ws, bc_local);
        observe(&ws.contrib[..n]);
        for &v in &ws.order {
            ws.contrib[v as usize] = 0.0;
        }
        ws.reset_touched();
    }
    edges
}

/// The root-parallel sweep — the coarse-grained inner kernel.
///
/// `roots` is split into fixed contiguous chunks (boundaries depend only on
/// `|roots|`, `grain` and the pool's worker count, never on scheduling).
/// Each worker lazily creates one long-lived workspace (`map_init`) and
/// sweeps whole chunks with the same sequential [`sweep_root`] body,
/// accumulating into a **private** plain-`f64` partial score vector — zero
/// atomics, zero CAS traffic, zero per-level fork-join on the hot path. The
/// per-chunk partials are then merged by a **pairwise tree reduction** of
/// fixed shape: round `r` adds partial `2^r·(2k+1)` into partial `2^r·2k`
/// for every `k`, in parallel across pairs, until one vector remains, which
/// folds into `bc_local`. The tree's shape depends only on the chunk count,
/// so the floating-point fold order is fixed and two runs on the same pool
/// size produce bitwise-identical scores, while the merge drops from
/// `O(chunks·n)` sequential work to `O(log(chunks))` parallel rounds.
///
/// Chunks hold at least `grain` roots and target ~4 per worker so stealing
/// can balance uneven sweep costs.
fn sweep_roots_par(sg: &SubGraph, roots: &[VertexId], bc_local: &mut [f64], grain: usize) -> u64 {
    let n = sg.num_vertices();
    if roots.is_empty() {
        return 0;
    }
    let threads = rayon::current_num_threads().max(1);
    // Fixed, deterministic chunking: at least `grain` roots per chunk (one
    // partial vector is allocated per chunk), at most ~4 chunks per worker.
    let chunk = roots.len().div_ceil(4 * threads).max(grain);
    let mut partials: Vec<(Vec<f64>, u64)> = roots
        .par_chunks(chunk)
        .map_init(SeqWs::default, |ws, roots| {
            let mut part = vec![0.0f64; n];
            let edges = sweep_roots_seq(sg, roots, ws, &mut part);
            (part, edges)
        })
        .collect();
    // Pairwise tree reduction over the chunk partials. Each round pairs
    // neighbours — partial 2k absorbs 2k+1, the pair merges running in
    // parallel — so the reduction tree, and therefore the f64 fold order, is
    // a pure function of the chunk count. The u64 edge tallies are exact
    // under any association; they ride along with the surviving partial.
    while partials.len() > 1 {
        let mut pairs: Vec<((Vec<f64>, u64), Option<(Vec<f64>, u64)>)> =
            Vec::with_capacity(partials.len().div_ceil(2));
        let mut it = partials.into_iter();
        while let Some(a) = it.next() {
            pairs.push((a, it.next()));
        }
        partials = pairs
            .into_par_iter()
            .map(|((mut a, mut edges), b)| {
                if let Some((bv, be)) = b {
                    add_assign_scores(&mut a, &bv);
                    edges += be;
                }
                (a, edges)
            })
            .collect();
    }
    let (part, edges) = partials.pop().expect("roots non-empty implies at least one chunk");
    add_assign_scores(bc_local, &part);
    edges
}

/// Level-synchronous workspace: the atomic mirror of [`SeqWs`], plus the
/// shared `bc` accumulation mirror (reused across every root of a call
/// instead of being rebuilt per call) and the back frontier buffer (`next`)
/// of the double-buffered frontier — `levels.order` holds the settled front,
/// `next` is refilled in place each level, so frontier expansion allocates
/// nothing after warm-up.
struct ParWs {
    dist: Vec<AtomicU32>,
    sigma: Vec<AtomicF64>,
    d_i2i: Vec<AtomicF64>,
    d_i2o: Vec<AtomicF64>,
    d_o2o: Vec<AtomicF64>,
    bc: Vec<AtomicF64>,
    next: Vec<VertexId>,
    levels: Levels,
}

impl ParWs {
    fn new(n: usize) -> Self {
        ParWs {
            dist: (0..n).map(|_| AtomicU32::new(UNREACHED)).collect(),
            sigma: atomic_f64_vec(n),
            d_i2i: atomic_f64_vec(n),
            d_i2o: atomic_f64_vec(n),
            d_o2o: atomic_f64_vec(n),
            bc: atomic_f64_vec(n),
            next: Vec::new(),
            levels: Levels::default(),
        }
    }

    /// Grows the workspace to cover `n` vertices (pool reuse across
    /// sub-graphs of different sizes); existing cells keep the reset-clean
    /// invariant.
    fn ensure(&mut self, n: usize) {
        let len = self.dist.len();
        if len < n {
            self.dist.extend((len..n).map(|_| AtomicU32::new(UNREACHED)));
            self.sigma.extend((len..n).map(|_| AtomicF64::new(0.0)));
            self.d_i2i.extend((len..n).map(|_| AtomicF64::new(0.0)));
            self.d_i2o.extend((len..n).map(|_| AtomicF64::new(0.0)));
            self.d_o2o.extend((len..n).map(|_| AtomicF64::new(0.0)));
            self.bc.extend((len..n).map(|_| AtomicF64::new(0.0)));
        }
    }

    fn reset_touched(&mut self) {
        for &v in &self.levels.order {
            self.dist[v as usize].store(UNREACHED, Ordering::Relaxed);
            self.sigma[v as usize].store(0.0);
            self.d_i2i[v as usize].store(0.0);
            self.d_i2o[v as usize].store(0.0);
            self.d_o2o[v as usize].store(0.0);
        }
        self.levels.clear();
    }
}

/// The level-synchronous sweep — the paper's fine-grained inner level of
/// the two-level parallelization. Forward σ is pulled per level (single
/// writer per cell), the backward sweep scans successors; no locks
/// anywhere, exactly as in Algorithm 2's successor method. Levels narrower
/// than `grain` vertices run sequentially to dodge fork-join overhead.
fn sweep_roots_level_sync(
    sg: &SubGraph,
    roots: &[VertexId],
    ws: &mut ParWs,
    bc_local: &mut [f64],
    grain: usize,
) -> u64 {
    let csr = sg.graph.csr();
    let rev = sg.graph.rev_csr();
    let directed = sg.graph.is_directed();
    let mut edges = 0u64;

    // Seed the shared bc mirror once per call; it then accumulates across
    // every root (cells ≥ n are stale pool leftovers and never read).
    for (cell, &x) in ws.bc.iter().zip(bc_local.iter()) {
        cell.store(x);
    }

    // Audited: roots and neighbors are compacted sub-graph ids `< sg.n`;
    // `ensure(n)` above sizes every shared array. lint:allow(hot_index)
    for &s in roots {
        // Split borrows: the frontier is a slice of `levels.order`, the back
        // buffer `next` refills in place, the atomic arrays are shared.
        let ParWs { dist, sigma, d_i2i, d_i2o, d_o2o, bc, next, levels } = &mut *ws;
        let (dist, sigma) = (&*dist, &*sigma);

        // Phase 1: frontier discovery by CAS; σ pulled per level.
        dist[s as usize].store(0, Ordering::Relaxed);
        sigma[s as usize].store(1.0);
        levels.order.push(s);
        levels.starts.push(0);
        let mut level_start = 0usize;
        let mut d = 0u32;
        loop {
            let frontier = &levels.order[level_start..];
            if frontier.is_empty() {
                levels.starts.pop();
                break;
            }
            next.clear();
            if frontier.len() < grain {
                for &u in frontier {
                    for &v in csr.neighbors(u) {
                        if dist[v as usize]
                            .compare_exchange(
                                UNREACHED,
                                d + 1,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            next.push(v);
                        }
                    }
                }
            } else {
                next.par_extend(frontier.par_iter().flat_map_iter(|&u| {
                    csr.neighbors(u).iter().copied().filter(|&v| {
                        dist[v as usize]
                            .compare_exchange(
                                UNREACHED,
                                d + 1,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    })
                }));
            }
            let pull = |&w: &VertexId| {
                let mut acc = 0.0;
                for &u in rev.neighbors(w) {
                    if dist[u as usize].load(Ordering::Relaxed) == d {
                        acc += sigma[u as usize].load();
                    }
                }
                sigma[w as usize].store(acc);
            };
            if next.len() < grain {
                next.iter().for_each(pull);
            } else {
                next.par_iter().for_each(pull);
            }
            level_start = levels.order.len();
            levels.starts.push(level_start);
            levels.order.extend_from_slice(next);
            d += 1;
        }
        levels.starts.push(levels.order.len());
        #[cfg(feature = "invariants")]
        crate::util::check_levels(levels, dist, sigma, s);

        // Phase 2: backward sweep, one level at a time, single writer per
        // vertex; δ of deeper levels is final thanks to the fork-join
        // barrier between levels.
        let s_boundary = sg.is_boundary[s as usize];
        let beta_s = if s_boundary { sg.beta[s as usize] as f64 } else { 0.0 };
        let gamma_s = sg.gamma[s as usize] as f64;
        let (d_i2i, d_i2o, d_o2o, bc_ref) = (&*d_i2i, &*d_i2o, &*d_o2o, &*bc);
        for dd in (0..levels.num_levels()).rev() {
            let level = levels.level(dd);
            let dv = dd as u32;
            let body = |&v: &VertexId| {
                let vu = v as usize;
                let sv = sigma[vu].load();
                let boundary_v = sg.is_boundary[vu] && v != s;
                let mut i2i = 0.0;
                let mut i2o = if boundary_v { sg.alpha[vu] as f64 } else { 0.0 };
                let mut o2o =
                    if s_boundary && boundary_v { beta_s * sg.alpha[vu] as f64 } else { 0.0 };
                for &w in csr.neighbors(v) {
                    if dist[w as usize].load(Ordering::Relaxed) == dv + 1 {
                        let c = sv / sigma[w as usize].load();
                        i2i += c * (1.0 + d_i2i[w as usize].load());
                        i2o += c * d_i2o[w as usize].load();
                        if s_boundary {
                            o2o += c * d_o2o[w as usize].load();
                        }
                    }
                }
                d_i2i[vu].store(i2i);
                d_i2o[vu].store(i2o);
                d_o2o[vu].store(o2o);
                let cell = &bc_ref[vu];
                if v != s {
                    cell.store(cell.load() + (1.0 + gamma_s) * (i2i + i2o) + beta_s * i2i + o2o);
                } else if gamma_s > 0.0 {
                    let alpha_s = if s_boundary { sg.alpha[vu] as f64 } else { 0.0 };
                    let whisker_self = if directed { 0.0 } else { 1.0 };
                    cell.store(cell.load() + gamma_s * ((i2i - whisker_self) + i2o + alpha_s));
                }
            };
            if level.len() < grain {
                level.iter().for_each(body);
            } else {
                level.par_iter().for_each(body);
            }
        }
        // Forward and backward both scan the out-edges of every reached
        // vertex once.
        edges += 2 * ws.levels.order.iter().map(|&v| csr.degree(v) as u64).sum::<u64>();
        ws.reset_touched();
    }
    for (dst, cell) in bc_local.iter_mut().zip(ws.bc.iter()) {
        *dst = cell.load();
    }
    edges
}
