//! The per-sub-graph BC kernels — the paper's Algorithm 2 (`BCinSG`).
//!
//! For every root `s ∈ R_sgi` a kernel runs one forward phase (BFS, or
//! Dijkstra on a weighted sub-graph, see below) over the sub-graph's local
//! CSR (whisker-free, see below) and one backward sweep that yields the
//! four dependencies of §3.1.1 through **one stored coefficient per
//! vertex**.
//!
//! # Four dependencies, one coefficient
//!
//! Algorithm 2 as printed stores three dependencies per vertex:
//!
//! * `δ_i2i` — Brandes' classic dependency, restricted to the sub-graph
//!   (Equation 3),
//! * `δ_i2o` — paths ending beyond a boundary articulation point, weighted by
//!   `α` (Equation 4),
//! * `δ_o2o` — paths crossing the sub-graph between two boundary points,
//!   weighted by `β(s)·α(t)` (Equation 6; only when `s` is itself a boundary
//!   point),
//!
//! and derives the fourth, `δ_o2i = β(s)·δ_i2i` (Equation 5, the `sizeO2I`
//! factor). All four are linear in one weighted Brandes recursion:
//!
//! * `δ_o2o` obeys `δ_i2o`'s recursion with its `δ^init` scaled by `β(s)`,
//!   so `δ_o2o = β(s)·δ_i2o`;
//! * with `D = δ_i2i + δ_i2o`, Equation 7's term for `v ≠ s` is therefore
//!   `(1 + γ(s))·D(v) + β(s)·δ_i2i(v) + δ_o2o(v) = (1 + γ(s) + β(s))·D(v)`;
//! * `D` satisfies `D(v) = [folded]γ(v) + [boundary]α(v) + σ(v)·Σ_w
//!   coef(w)` over the DAG successors `w` of `v`, with `coef(w) = (1 +
//!   D(w)) / σ(w)`.
//!
//! The sweep stores only `coef`: one load per DAG arc and one division per
//! vertex, where the three arrays cost three loads and a division per arc.
//! This is a formula deviation from Algorithm 2 as printed, recorded in
//! DESIGN.md §3.3; `tests/kernel_policies.rs` pins it per root against a
//! literal three-array Algorithm 2. The `δ^init` terms enter when a vertex
//! is settled rather than in the paper's phase 0 — same recursion, but the
//! workspace reset stays `O(reached)`.
//!
//! One further deviation, with rationale in DESIGN.md §3.3: for
//! **undirected** whiskers the root's own score is `γ(s)·(D(s) − 1)`. The
//! `−1` excludes the whisker itself from its derived target set. `D(s)`
//! carries `α(s)` through its `δ^init`, which restores the `δ^init_i2o`
//! term at the root that Algorithm 2's `i != s` guard drops. Both
//! corrections are pinned by the `apgre ≡ brandes` property tests.
//!
//! # The backward sweep without a successor test
//!
//! The BFS sweep settles `order` one level at a time, deepest first, and
//! writes a level's coefficients only after the whole level is summed. A
//! neighbour of `v` at level `d` sits at level `d + 1` (a successor, already
//! written), at level `d` (deferred), or — directed arcs back up the DAG —
//! at a shallower level not yet settled; the last two still hold the
//! reset-clean `0`. Summing *every* neighbour's coefficient therefore adds
//! exact zeros to the successor sum, which leaves it bitwise equal to the
//! filtered one, and the per-arc `dist == d + 1` test is gone. Dijkstra
//! keeps its filter (a neighbour settled later need not be a successor).
//!
//! # The whisker fold (targets)
//!
//! γ removes whiskers as *sources*; the sweeps also skip them as *targets*.
//! An undirected whisker `w` hosted by `v` has `v` as its only neighbour,
//! so from any root `s ≠ w` it sits one level below `v` with `σ_s(w) =
//! σ_s(v)` and, having no successor, `D(w) = 0` (it is never a boundary
//! point, so it carries no `α`). Its only effect on the backward sweep is
//! the term `σ(v)·coef(w) = 1` it adds to `D(v)`. The sweeps therefore read
//! [`SubGraph::sweep_csr`] — the local arcs without whisker endpoints, cut
//! by `SubGraph::recompute_whiskers` — and start `D(v)` at `γ(v)` instead:
//! no whisker is enqueued, counted or popped, and the whisker's own score
//! term, always `0`, is never added. `D(s)` at the root still includes
//! `γ(s)`, so the root term `γ(s)·(D(s) − 1)` is unchanged. Directed
//! whiskers have in-degree 0 and are never reached, so directed sub-graphs
//! (and whisker-free or unfolded ones) keep the full local CSR and start
//! `D` without `γ`. The returned edge counts count arcs of the swept CSR,
//! so folding drops twice the whisker arcs each root used to reach.
//!
//! # One sweep, two forward phases
//!
//! A weighted sub-graph changes only the forward phase: Dijkstra settle
//! order (`apgre_graph::weighted::dijkstra_sssp`), every settled vertex a
//! level of its own, with the successor test `wdist[w] == wdist[v] +
//! weight(v, w)` instead of BFS levels. The sweep is generic over the two;
//! the backward loop, the per-vertex rules and the whisker fold are shared
//! — a weighted whisker still has `σ(w) = σ(v)` and `D(w) = 0`.
//!
//! # One entry point, two strategies
//!
//! [`bc_in_subgraph`] is the module's only function. It sweeps an explicit
//! root slice — callers pass `&sg.roots` for the exact kernel, a sample for
//! the estimator — of an unweighted or weighted [`SubGraphView`] with the
//! strategy [`super::KernelPolicy`] resolved for the sub-graph (see
//! DESIGN.md §3.7):
//!
//! * [`KernelChoice::Seq`] — one thread, plain `f64`, the shared
//!   `sweep_root` loop body;
//! * [`KernelChoice::RootParallel`] — coarse-grained **root-parallel**: roots
//!   are split into fixed chunks, each chunk swept with the *same*
//!   sequential body into a private partial score vector (zero atomics on
//!   the hot path), and the partials are merged by a fixed-shape tree —
//!   bitwise deterministic for a given pool size.
//!
//! The paper's fine-grained level-synchronous inner level is not here: a
//! sweep reaches only roots of the sub-graph (undirected whiskers are cut
//! from [`SubGraph::sweep_csr`], directed ones have in-degree 0, every other
//! vertex is a root), so a sub-graph with too few roots to feed the workers
//! also has too few vertices to fill a level (DESIGN.md §3.7).
//!
//! An optional per-root observer receives each root's own Equation-7
//! contribution vector (the hook of the adaptive sampling estimator); it
//! forces the sequential sweep, the only one that visits roots in slice
//! order, and leaves `bc_local` bitwise identical to the unobserved sweep.
//! The caller-owned [`SgWorkspace`] lets the dispatcher reuse one set of
//! `O(n)` scratch arrays per worker across sub-graphs.

use super::KernelChoice;
use crate::util::{add_assign_scores, Levels};
use apgre_decomp::SubGraph;
use apgre_graph::weighted::dijkstra_sssp;
use apgre_graph::{Csr, VertexId, UNREACHED};
use rayon::prelude::*;

/// What [`bc_in_subgraph`] sweeps: a sub-graph and, if weighted, its arc
/// weights. Every `&SubGraph` converts into the unweighted view.
#[derive(Clone, Copy)]
pub struct SubGraphView<'a> {
    /// The sub-graph.
    pub sg: &'a SubGraph,
    /// Arc weights aligned with `sg.sweep_csr().targets()`, or `None`.
    pub weights: Option<&'a [u32]>,
}

impl<'a> From<&'a SubGraph> for SubGraphView<'a> {
    fn from(sg: &'a SubGraph) -> Self {
        SubGraphView { sg, weights: None }
    }
}

/// Reusable scratch for [`bc_in_subgraph`]: distances, σ and the one
/// coefficient `coef = (1 + D) / σ` per vertex (see the module doc), grown
/// on first use to the sub-graph's vertex count and reset in `O(reached)`
/// between roots, so one workspace serves roots, chunks and whole
/// sub-graphs of any size. `levels` is the current root's settle order cut
/// into the levels the backward sweep settles at once; `pending` holds one
/// level's coefficients until the level is done. `wdist` is the current
/// root's Dijkstra distances, replaced per root. `contrib` is the observer's
/// per-root contribution vector, grown only by observed sweeps.
#[derive(Default)]
pub struct SgWorkspace {
    dist: Vec<u32>,
    wdist: Vec<u64>,
    sigma: Vec<f64>,
    coef: Vec<f64>,
    contrib: Vec<f64>,
    levels: Levels,
    pending: Vec<f64>,
}

impl SgWorkspace {
    /// Grows the workspace to cover `n` vertices. Cells keep the reset-clean
    /// invariant (`dist = UNREACHED`, everything else zero).
    fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, UNREACHED);
            self.sigma.resize(n, 0.0);
            self.coef.resize(n, 0.0);
        }
    }

    fn reset_touched(&mut self) {
        for &v in &self.levels.order {
            self.dist[v as usize] = UNREACHED;
            self.sigma[v as usize] = 0.0;
            self.coef[v as usize] = 0.0;
        }
        self.levels.clear();
    }
}

/// Algorithm 2 over the roots `roots` of a sub-graph, accumulating their
/// exact Equation-7 contribution into `bc_local` (indexed by local vertex
/// id, length `sg.num_vertices()`). Returns the number of edges examined
/// (forward + backward scans of [`SubGraph::sweep_csr`]). Pinned against
/// serial Brandes (`bc_serial`, and `bc_weighted_serial` for weighted
/// views) by the kernel table in `tests/kernel_policies.rs`.
///
/// * `view` — a `&SubGraph`, or a [`SubGraphView`] with arc weights for the
///   Dijkstra sweep (which examines the same edges: weights never change
///   the reached set).
/// * `roots` — compacted local ids of `sg`; `&sg.roots` for the exact
///   kernel. Sweeping a subset yields that subset's exact contribution (the
///   sampled estimator rescales it), and sweeping two halves in turn into
///   the same `bc_local` sums to the full sweep.
/// * `choice` — the strategy (normally [`super::KernelPolicy::choose`]'s
///   resolution for this sub-graph).
/// * `grain` — minimum roots per root-parallel chunk.
/// * `ws` — fresh (`SgWorkspace::default()`) or reused; the root-parallel
///   sweep builds one workspace per worker instead.
/// * `observer` — when given, called once per root, in slice order, with
///   that root's own dense contribution vector (`0` for vertices the root
///   did not reach). Forces the sequential sweep; `bc_local` still receives
///   exactly the unobserved sweep's single add per vertex and root, so the
///   result is **bitwise identical** to a `Seq` run over the same roots.
pub fn bc_in_subgraph<'a>(
    view: impl Into<SubGraphView<'a>>,
    roots: &[VertexId],
    choice: KernelChoice,
    grain: usize,
    ws: &mut SgWorkspace,
    bc_local: &mut [f64],
    observer: Option<&mut dyn FnMut(&[f64])>,
) -> u64 {
    let SubGraphView { sg, weights } = view.into();
    let n = sg.num_vertices();
    debug_assert_eq!(bc_local.len(), n);
    debug_assert!(weights.is_none_or(|w| w.len() == sg.sweep_csr().num_edges()));
    let grain = grain.max(1);
    match (weights, observer, choice) {
        (None, Some(observe), _) => sweep_roots_observed(sg, Bfs, roots, ws, bc_local, observe),
        (None, None, KernelChoice::Seq) => sweep_roots_seq(sg, Bfs, roots, ws, bc_local),
        (None, None, KernelChoice::RootParallel) => {
            sweep_roots_par(sg, Bfs, roots, bc_local, grain)
        }
        (Some(w), Some(f), _) => sweep_roots_observed(sg, Dijkstra(w), roots, ws, bc_local, f),
        (Some(w), None, KernelChoice::Seq) => sweep_roots_seq(sg, Dijkstra(w), roots, ws, bc_local),
        (Some(w), None, KernelChoice::RootParallel) => {
            sweep_roots_par(sg, Dijkstra(w), roots, bc_local, grain)
        }
    }
}

/// One root's forward phase and its DAG's successor sum — halves of
/// `sweep_root`, named so xtask R9's hot-loop audit reaches them.
trait ForwardPhase: Copy + Send + Sync {
    /// Sweeps forward from `s` over `sg.sweep_csr()`: sets σ of every
    /// reached vertex, fills `ws.levels` with the reached vertices in
    /// non-decreasing distance (root first), cut into the levels whose
    /// coefficients the backward sweep may defer, and returns the arcs
    /// scanned.
    fn sweep_root_forward(self, sg: &SubGraph, s: VertexId, ws: &mut SgWorkspace) -> u64;

    /// `Σ coef(w)` over the DAG successors `w` of the reached vertex `v`, in
    /// `csr` order, read while `v`'s level is being settled.
    fn sweep_root_successor_sum(self, csr: &Csr, ws: &SgWorkspace, v: u32) -> f64;
}

/// Unit arc lengths: breadth-first levels.
#[derive(Clone, Copy)]
struct Bfs;

/// Positive arc weights aligned with `sweep_csr()`: Dijkstra settle order.
#[derive(Clone, Copy)]
struct Dijkstra<'a>(&'a [u32]);

impl ForwardPhase for Bfs {
    fn sweep_root_forward(self, sg: &SubGraph, s: VertexId, ws: &mut SgWorkspace) -> u64 {
        let csr = sg.sweep_csr();
        let SgWorkspace { dist, sigma, levels, .. } = ws;
        let mut edges = 0u64;
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        // `order` is the queue: level `d` is `order[lo..hi]`, and scanning
        // it appends level `d + 1`.
        levels.order.push(s);
        let (mut lo, mut d) = (0usize, 0u32);
        // Audited: every id is a compacted sub-graph id `< sg.n` by
        // construction, and all workspace arrays are sized to sg.n. lint:allow(hot_index)
        while lo < levels.order.len() {
            let hi = levels.order.len();
            levels.starts.push(lo);
            for idx in lo..hi {
                let u = levels.order[idx];
                #[cfg(feature = "invariants")]
                debug_assert!(
                    sg.folded_csr.is_none() || !sg.is_whisker[u as usize],
                    "whisker {u} popped from a folded sweep: `folded_csr` is stale"
                );
                let su = sigma[u as usize];
                edges += csr.degree(u) as u64;
                for &v in csr.neighbors(u) {
                    let dv = dist[v as usize];
                    if dv == UNREACHED {
                        dist[v as usize] = d + 1;
                        sigma[v as usize] = su;
                        levels.order.push(v);
                    } else if dv == d + 1 {
                        sigma[v as usize] += su;
                    }
                }
            }
            (lo, d) = (hi, d + 1);
        }
        levels.starts.push(levels.order.len());
        edges
    }

    /// Sums every neighbour: off the DAG's successors the coefficient is
    /// still the reset-clean `0` (see the module doc).
    #[inline]
    fn sweep_root_successor_sum(self, csr: &Csr, ws: &SgWorkspace, v: u32) -> f64 {
        let mut sum = 0.0;
        // Audited: neighbours are compacted ids `< sg.n`, the size of
        // `ws.coef`. lint:allow(hot_index)
        for &w in csr.neighbors(v) {
            let c = ws.coef[w as usize];
            #[cfg(feature = "invariants")]
            debug_assert!(
                c == 0.0 || ws.dist[w as usize] == ws.dist[v as usize] + 1,
                "neighbour {w} of {v} carries a coefficient off the next level"
            );
            sum += c;
        }
        sum
    }
}

impl ForwardPhase for Dijkstra<'_> {
    fn sweep_root_forward(self, sg: &SubGraph, s: VertexId, ws: &mut SgWorkspace) -> u64 {
        let csr = sg.sweep_csr();
        let dag = dijkstra_sssp(csr, self.0, s);
        #[cfg(feature = "invariants")]
        debug_assert!(
            sg.folded_csr.is_none() || dag.order.iter().all(|&u| !sg.is_whisker[u as usize]),
            "whisker settled by a folded sweep: `folded_csr` is stale"
        );
        // Dijkstra scans every arc of each settled vertex once.
        let mut edges = 0u64;
        // Audited: settled ids are compacted ids `< sg.n`, the size of
        // `ws.sigma` and of `dag.sigma`. lint:allow(hot_index)
        for &v in &dag.order {
            ws.sigma[v as usize] = dag.sigma[v as usize];
            edges += csr.degree(v) as u64;
        }
        // The successor test needs no deferral: every vertex is a level.
        ws.levels.order.extend_from_slice(&dag.order);
        ws.levels.starts.extend(0..=dag.order.len());
        ws.wdist = dag.dist;
        edges
    }

    #[inline]
    fn sweep_root_successor_sum(self, csr: &Csr, ws: &SgWorkspace, v: u32) -> f64 {
        let dv = ws.wdist[v as usize];
        // The weights are aligned with `csr`'s targets: `v`'s start at its
        // offset.
        let arcs = &self.0[csr.offsets()[v as usize]..];
        let mut sum = 0.0;
        // Audited: neighbours are compacted ids `< sg.n`, the length of
        // `ws.wdist` and `ws.coef`. lint:allow(hot_index)
        for (&w, &len) in csr.neighbors(v).iter().zip(arcs) {
            if ws.wdist[w as usize] == dv + len as u64 {
                sum += ws.coef[w as usize];
            }
        }
        sum
    }
}

/// Algorithm 2's per-vertex rules under one root `s`, the one copy every
/// sweep uses: the `δ^init` a vertex's `D` starts from, and the Equation-7
/// score term it adds, with the §3.3 root correction.
struct RootRules<'a> {
    sg: &'a SubGraph,
    s: VertexId,
    /// `1 + γ(s) + β(s)`, the Equation-7 factor on `D(v)` for `v ≠ s`
    /// (`β(s)` is 0 unless `s` is a boundary point).
    scale: f64,
    gamma_s: f64,
    folded: bool,
}

impl<'a> RootRules<'a> {
    fn new(sg: &'a SubGraph, s: VertexId) -> Self {
        let beta_s = if sg.is_boundary[s as usize] { sg.beta[s as usize] as f64 } else { 0.0 };
        let gamma_s = sg.gamma[s as usize] as f64;
        RootRules { sg, s, scale: 1.0 + gamma_s + beta_s, gamma_s, folded: sg.folded_csr.is_some() }
    }

    /// `δ^init(v)` of `D`: `γ(v)` under the whisker fold (each folded
    /// whisker adds exactly 1) plus `α(v)` at a boundary point (Equation 4;
    /// Equation 6's `β(s)·α(v)` rides in `scale`). At `v = s` the `α(s)` is
    /// the §3.3 root correction.
    #[inline]
    fn init(&self, v: VertexId) -> f64 {
        let (sg, vu) = (self.sg, v as usize);
        let gamma_v = if self.folded { sg.gamma[vu] as f64 } else { 0.0 };
        if sg.is_boundary[vu] {
            gamma_v + sg.alpha[vu] as f64
        } else {
            gamma_v
        }
    }

    /// `v`'s Equation-7 score term under this root, or `None` when it adds
    /// nothing (the root itself, unless it hosts whiskers: then the §3.3
    /// term, see the module doc).
    #[inline]
    fn score(&self, v: VertexId, d: f64) -> Option<f64> {
        if v != self.s {
            Some(self.scale * d)
        } else if self.gamma_s > 0.0 {
            let whisker_self = if self.sg.graph.is_directed() { 0.0 } else { 1.0 };
            Some(self.gamma_s * (d - whisker_self))
        } else {
            None
        }
    }
}

/// One root's forward phase plus backward one-coefficient sweep —
/// Algorithm 2's loop body, shared verbatim by the sequential, observed and
/// root-parallel sweeps and by both forward phases so they cannot drift
/// apart. Accumulates into `bc_local` and returns the number of edges
/// examined. With `RECORD`, the root's own Equation-7 term for every
/// touched vertex is *also* written to `ws.contrib` (`contrib[v] = term`
/// before the `bc_local[v] += term` add, so the accumulated span stays
/// bitwise identical to the unrecorded sweep). Does **not** reset the
/// workspace — the caller decides when, so an observer can still read
/// `ws.levels` / `ws.contrib` after the sweep.
fn sweep_root<F: ForwardPhase, const RECORD: bool>(
    sg: &SubGraph,
    front: F,
    s: VertexId,
    ws: &mut SgWorkspace,
    bc_local: &mut [f64],
) -> u64 {
    let csr = sg.sweep_csr();
    // Phase 1: forward (σ and levels).
    let mut edges = front.sweep_root_forward(sg, s, ws);
    // Phase 2: backward, deepest level first: `D`, the score merge
    // (Equation 7), and the level's coefficients once it is done.
    let rules = RootRules::new(sg, s);
    // Audited: compacted ids `< sg.n` as in phase 1; `levels` holds only ids
    // the forward phase itself pushed. lint:allow(hot_index)
    for lvl in (0..ws.levels.num_levels()).rev() {
        let (lo, hi) = (ws.levels.starts[lvl], ws.levels.starts[lvl + 1]);
        ws.pending.clear();
        for idx in lo..hi {
            let v = ws.levels.order[idx];
            let vu = v as usize;
            let sv = ws.sigma[vu];
            edges += csr.degree(v) as u64;
            let d = rules.init(v) + sv * front.sweep_root_successor_sum(csr, ws, v);
            ws.pending.push((1.0 + d) / sv);
            if let Some(term) = rules.score(v, d) {
                if RECORD {
                    ws.contrib[vu] = term;
                }
                bc_local[vu] += term;
            }
        }
        for (&v, &c) in ws.levels.order[lo..hi].iter().zip(&ws.pending) {
            ws.coef[v as usize] = c;
        }
    }
    edges
}

/// The sequential sweep: every root in slice order through [`sweep_root`].
fn sweep_roots_seq<F: ForwardPhase>(
    sg: &SubGraph,
    front: F,
    roots: &[VertexId],
    ws: &mut SgWorkspace,
    bc_local: &mut [f64],
) -> u64 {
    ws.ensure(sg.num_vertices());
    let mut edges = 0u64;
    for &s in roots {
        edges += sweep_root::<F, false>(sg, front, s, ws, bc_local);
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
fn sweep_roots_observed<F: ForwardPhase>(
    sg: &SubGraph,
    front: F,
    roots: &[VertexId],
    ws: &mut SgWorkspace,
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
    // the forward phase pushed, all `< n`. lint:allow(hot_index)
    for &s in roots {
        edges += sweep_root::<F, true>(sg, front, s, ws, bc_local);
        observe(&ws.contrib[..n]);
        for &v in &ws.levels.order {
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
fn sweep_roots_par<F: ForwardPhase>(
    sg: &SubGraph,
    front: F,
    roots: &[VertexId],
    bc_local: &mut [f64],
    grain: usize,
) -> u64 {
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
        .map_init(SgWorkspace::default, |ws, roots| {
            let mut part = vec![0.0f64; n];
            let edges = sweep_roots_seq(sg, front, roots, ws, &mut part);
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
