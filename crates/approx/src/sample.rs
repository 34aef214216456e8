//! The decomposition-composed sampled estimator and its incremental store.
//!
//! The paper's X3 extension observes that the articulation-point
//! decomposition composes with *any* per-sub-graph BC routine. This module
//! composes it with Brandes–Pich pivot sampling: each sub-graph sweeps a
//! seeded sample of its root set (whiskers and γ folding untouched), the
//! per-root Equation-7 contributions are scaled by `|R_i| / k_i`, and the
//! scaled spans fold into global estimates in ascending sub-graph index
//! order from zeros — the same determinism anchor as the exact path
//! (DESIGN.md §3.8).
//!
//! Two budget regimes select `k_i` ([`SampleBudget`]):
//!
//! * **Uniform** — `k_i = min(|R_i|, cap)` with one cap for every
//!   sub-graph.
//! * **Adaptive** — a *global* root budget distributed proportionally to
//!   `|R_i| · σ_i` by the variance-guided allocator (the [`crate::budget`]
//!   module; DESIGN.md §3.13).
//!
//! The regimes differ only in that plan. Either way every strict sample
//! (`k_i < |R_i|`) is swept observed, and its per-root Welford
//! accumulators give the per-vertex standard errors; an exhaustive span is
//! exact and has none.
//!
//! Because sub-graph `i`'s sample depends only on the global seed and the
//! sub-graph's content fingerprint — and, in the adaptive regime, on pilot
//! variances that are themselves content-pure — an estimate span never has
//! to be recomputed unless the sub-graph itself changed or its *allocation*
//! moved. [`SampleStore`] exploits that. The spans live in the engine's
//! one `FoldStore`, as its [`Layer::Estimate`] and [`Layer::ErrSq`] layers
//! beside the exact contributions, so every splice and every rebuild carry
//! moves them with the exact spans. The store itself keeps only the
//! sampling metadata and the pending set, and resamples only that dirty
//! set — so refresh cost tracks the dirty set the way publish cost does.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apgre_bc::apgre::{run_subgraph_kernels, ApgreOptions};
use apgre_decomp::{decompose, Decomposition, SubGraph};
use apgre_graph::Graph;
use apgre_store::{FoldStore, Layer};

use crate::budget::{plan, stderr_sq_span, SamplePlan};
use crate::rng::{mix_seed, sample_roots};

/// How the per-sub-graph root-sample sizes are chosen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleBudget {
    /// One root-sample cap for every sub-graph: sub-graph `i` sweeps
    /// `k_i = min(|R_i|, samples_per_subgraph)` sampled roots. Sub-graphs at
    /// or under the cap run exhaustively (scale 1 — their spans are exact),
    /// so error concentrates where sampling actually saves work.
    Uniform {
        /// The per-sub-graph cap.
        samples_per_subgraph: usize,
    },
    /// A global root budget distributed across sub-graphs proportionally to
    /// `|R_i| · σ_i` by [`crate::budget::allocate_budget`], where `σ_i` is
    /// the standard deviation of the per-root contribution mass over a
    /// pilot sweep of [`DEFAULT_PILOT`](crate::DEFAULT_PILOT) roots. Every
    /// span is floored at `min(DEFAULT_PILOT, |R_i|)` roots (so its variance
    /// accumulators are defined) and capped at `|R_i|` (exhaustive).
    Adaptive {
        /// The global root budget (Σ `k_i` targets this; floors may
        /// overshoot it, caps may undershoot it).
        total_roots: usize,
    },
}

/// Sampling parameters of the composed estimator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleOptions {
    /// Budget regime (uniform cap or variance-guided global budget).
    pub budget: SampleBudget,
    /// Global seed; sub-graph `i` draws from a stream seeded by
    /// `mix_seed(seed, fingerprint_i)`, making the draw generation-stable.
    pub seed: u64,
}

impl SampleOptions {
    /// Uniform per-sub-graph cap (the PR 9 estimator).
    pub fn uniform(samples_per_subgraph: usize, seed: u64) -> Self {
        SampleOptions { budget: SampleBudget::Uniform { samples_per_subgraph }, seed }
    }

    /// Variance-guided global budget.
    pub fn adaptive(total_roots: usize, seed: u64) -> Self {
        SampleOptions { budget: SampleBudget::Adaptive { total_roots }, seed }
    }
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions::uniform(16, 0xA99)
    }
}

/// Accounting for one [`SampleStore::refresh`].
#[derive(Clone, Debug, Default)]
pub struct SampleRefresh {
    /// Sub-graphs whose sample span was recomputed this refresh.
    pub resampled: usize,
    /// Sub-graphs whose span was carried verbatim.
    pub reused: usize,
    /// Σ sampled roots swept by the recomputed spans.
    pub sampled_roots: u64,
    /// Recomputed spans that were clean — resampled only because the
    /// adaptive plan moved their allocation `k`, not because their content
    /// changed (always 0 in uniform mode).
    pub drifted: usize,
    /// Σ sampled roots swept by the drifted spans (part of
    /// `sampled_roots`).
    pub drift_roots: u64,
    /// Σ pilot roots swept by the adaptive planner (0 in uniform mode).
    pub pilot_roots: u64,
    /// Σ edges traversed by the recomputed spans' kernels (pilots included).
    pub edges: u64,
    /// The configured global root budget (0 in uniform mode).
    pub budget: usize,
    /// Σ allocated roots across *all* sub-graphs under the adaptive plan
    /// (0 in uniform mode). Caps can leave it under the budget, floors can
    /// push it over.
    pub allocated: u64,
    /// Wall clock of the refresh (planning + draw + kernels + installs).
    pub wall: Duration,
}

impl SampleRefresh {
    /// Fraction of sub-graphs resampled (0 when the store is empty).
    pub fn resample_fraction(&self) -> f64 {
        let total = self.resampled + self.reused;
        if total == 0 {
            0.0
        } else {
            self.resampled as f64 / total as f64
        }
    }

    /// Allocated roots over the configured budget (0 in uniform mode; above
    /// 1 when the per-span floors overshoot a small budget, below 1 when
    /// exhaustive caps bind before the budget is spent).
    pub fn budget_utilization(&self) -> f64 {
        if self.budget == 0 {
            0.0
        } else {
            self.allocated as f64 / self.budget as f64
        }
    }
}

/// Draws sub-graph `sg`'s root sample at cap `cap`: `(sampled roots,
/// scale)` with `scale = |R| / k` and `k = min(|R|, max(cap, 1))`. The draw
/// depends only on the seed, the cap, and the sub-graph's content (via
/// [`SubGraph::fingerprint`]), never on generation history.
pub fn draw_roots(sg: &SubGraph, seed: u64, cap: usize) -> (Vec<u32>, f64) {
    let total = sg.roots.len();
    let k = total.min(cap.max(1));
    if k == total {
        return (sg.roots.clone(), 1.0);
    }
    let sample = sample_roots(&sg.roots, k, mix_seed(seed, sg.fingerprint()));
    (sample, total as f64 / k as f64)
}

/// From-scratch composed estimator over an existing decomposition: plans
/// the per-sub-graph sample sizes (fixed cap or adaptive allocation), runs
/// the sampled kernels, scales, and folds ascending from zeros. This is the
/// oracle of the determinism contract — [`SampleStore::refresh`] must
/// reproduce its output bitwise, *including* the allocator's decisions.
pub fn bc_sampled_from_decomposition(
    decomp: &Decomposition,
    opts: &ApgreOptions,
    sopts: &SampleOptions,
) -> Vec<f64> {
    bc_sampled_with_stderr_from_decomposition(decomp, opts, sopts).0
}

/// [`bc_sampled_from_decomposition`] plus the per-vertex standard error of
/// the estimate (DESIGN.md §3.13): `stderr[v] = sqrt(Σ_i se²_i(v))` over
/// the sub-graphs owning `v`, folded in the same ascending-index order as
/// the estimates. Every strict sample (`k_i < |R_i|`) contributes, under
/// either budget regime; an exhaustive span contributes zero.
pub fn bc_sampled_with_stderr_from_decomposition(
    decomp: &Decomposition,
    opts: &ApgreOptions,
    sopts: &SampleOptions,
) -> (Vec<f64>, Vec<f64>) {
    let plan = plan(decomp, opts, sopts, &vec![None; decomp.num_subgraphs()]);
    let all: Vec<usize> = (0..decomp.num_subgraphs()).collect();
    let (spans, _) = sample_spans(decomp, opts, sopts, &plan, &all);
    let mut out = vec![0.0f64; decomp.num_vertices];
    let mut err_sq = vec![0.0f64; decomp.num_vertices];
    for s in &spans {
        let sg = &decomp.subgraphs[s.index];
        for (local, &v) in sg.globals.iter().enumerate() {
            out[v as usize] += s.span[local];
            err_sq[v as usize] += s.err[local];
        }
    }
    let stderr = err_sq.into_iter().map(f64::sqrt).collect();
    (out, stderr)
}

/// One freshly sampled sub-graph span (local ids).
struct SampledSpan {
    index: usize,
    /// The scaled estimate span (`|R_i| / k_i` times the swept roots'
    /// Equation-7 contribution).
    span: Vec<f64>,
    /// Squared standard errors of `span` (all zero for an exhaustive draw).
    err: Vec<f64>,
    /// Roots swept.
    roots: usize,
}

/// The draw → dispatch → scale body shared by the from-scratch oracle and
/// [`SampleStore::refresh`], so the two cannot drift apart. Draws sub-graph
/// `i`'s sample at `plan.k[i]` for every `i` in `indices` (ascending,
/// distinct), sweeps all of them through one [`run_subgraph_kernels`] call
/// — a strict sample comes back observed, and its per-root statistics yield
/// the standard errors; a full draw is exact, with all-zero errors — and
/// scales each span. Returns the spans in `indices` order plus the kernels'
/// edge count.
fn sample_spans(
    decomp: &Decomposition,
    opts: &ApgreOptions,
    sopts: &SampleOptions,
    plan: &SamplePlan,
    indices: &[usize],
) -> (Vec<SampledSpan>, u64) {
    let draws: Vec<(usize, Vec<u32>, f64)> = indices
        .iter()
        .map(|&i| {
            let (roots, scale) = draw_roots(&decomp.subgraphs[i], sopts.seed, plan.k[i]);
            (i, roots, scale)
        })
        .collect();
    let jobs: Vec<(usize, &[u32])> =
        draws.iter().map(|(i, roots, _)| (*i, roots.as_slice())).collect();
    let runs = run_subgraph_kernels(decomp, &jobs, opts);
    assert_eq!(runs.len(), draws.len(), "one kernel run per sampled sub-graph");
    let mut edges = 0u64;
    let spans = draws
        .iter()
        .zip(runs)
        .map(|((i, roots, scale), run)| {
            // Both lists ascend by sub-graph index, so a mismatch means the
            // kernel side reordered and would scale the wrong span.
            assert_eq!(run.index, *i, "kernel runs out of job order");
            edges += run.edges;
            let err = match &run.stats {
                Some(st) => {
                    stderr_sq_span(&st.vertex_m2, st.roots, decomp.subgraphs[*i].roots.len())
                }
                None => vec![0.0f64; run.local.len()],
            };
            let span = run.local.iter().map(|&x| x * scale).collect();
            SampledSpan { index: *i, span, err, roots: roots.len() }
        })
        .collect();
    (spans, edges)
}

/// Convenience one-shot: decompose `g` and run the composed estimator.
pub fn bc_sampled(g: &Graph, opts: &ApgreOptions, sopts: &SampleOptions) -> Vec<f64> {
    let decomp = decompose(g, &opts.partition);
    bc_sampled_from_decomposition(&decomp, opts, sopts)
}

/// [`bc_sampled`] plus the per-vertex standard error.
pub fn bc_sampled_with_stderr(
    g: &Graph,
    opts: &ApgreOptions,
    sopts: &SampleOptions,
) -> (Vec<f64>, Vec<f64>) {
    let decomp = decompose(g, &opts.partition);
    bc_sampled_with_stderr_from_decomposition(&decomp, opts, sopts)
}

/// Per-sub-graph sampling metadata, aligned with the current sub-graph
/// indexing. `fingerprint` is the content hash the span was drawn against;
/// a rebuild keeps the span only where it still matches. `sigma` caches
/// the pilot standard deviation (content-pure, so it carries with the
/// fingerprint) and `k` records the sample size the span was drawn at — a
/// later allocation that disagrees with `k` forces a resample even when the
/// content itself is clean.
#[derive(Clone, Debug)]
struct SampleMeta {
    fingerprint: u64,
    sigma: f64,
    k: usize,
}

/// The incremental estimator's bookkeeping: per-sub-graph sampling
/// metadata and the pending dirty set. The spans themselves live in the
/// engine's [`FoldStore`] — *scaled* sample spans in [`Layer::Estimate`],
/// their squared standard errors (all-zero for exhaustive spans) in
/// [`Layer::ErrSq`] — so the exact and sampled tiers share one slot map,
/// one owner index and one splice.
///
/// Lifecycle (driven by `DynamicBc`): [`SampleStore::seed`] over the
/// initial decomposition (everything pending), then per batch either
/// [`SampleStore::apply_splice`] + [`SampleStore::mark_dirty`] (absorbed
/// batches, after the fold store's own splice) or [`SampleStore::rebuild`]
/// (from-scratch re-decompositions, after the fold store's fingerprint
/// carry), and finally [`SampleStore::refresh`] when estimates are
/// demanded — resampling the accumulated dirty set (plus, in adaptive
/// mode, any span whose budget allocation moved) into the fold store.
#[derive(Debug)]
pub struct SampleStore {
    meta: Vec<Option<SampleMeta>>,
    pending: BTreeSet<usize>,
    /// Parameters the live spans were drawn with; a refresh under different
    /// parameters invalidates everything.
    params: Option<SampleOptions>,
}

impl SampleStore {
    /// Seeds the store over `decomp`: no spans drawn yet, every sub-graph
    /// pending.
    pub fn seed(decomp: &Decomposition) -> Self {
        let count = decomp.num_subgraphs();
        SampleStore { meta: vec![None; count], pending: (0..count).collect(), params: None }
    }

    /// Sub-graphs awaiting a resample.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Mirrors a structural splice of the decomposition (same `old_to_new`
    /// contract as `FoldStore::apply_splice`; `decomp` is the post-splice
    /// decomposition). Survivor metadata carries over; fresh sub-graphs
    /// join the pending set.
    pub fn apply_splice(&mut self, old_to_new: &[Option<u32>], decomp: &Decomposition) {
        let mut meta: Vec<Option<SampleMeta>> = vec![None; decomp.num_subgraphs()];
        let mut pending = BTreeSet::new();
        for (old, &dst) in old_to_new.iter().enumerate() {
            if let Some(n) = dst {
                meta[n as usize] = self.meta[old].take();
                if self.pending.contains(&old) {
                    pending.insert(n as usize);
                }
            }
        }
        for (i, m) in meta.iter().enumerate() {
            if m.is_none() {
                pending.insert(i);
            }
        }
        self.meta = meta;
        self.pending = pending;
    }

    /// Marks sub-graphs (current indexing) whose content changed in place.
    pub fn mark_dirty(&mut self, dirty: &[usize]) {
        self.pending.extend(dirty.iter().copied());
    }

    /// Remaps the metadata after a from-scratch re-decomposition.
    /// `carried[i]` is the pre-rebuild index whose spans sub-graph `i` of
    /// `decomp` inherits by content fingerprint (the fold store's carry).
    /// The estimator keeps a carried span only when it was drawn against
    /// that same content: same fingerprint ⇒ same seed ⇒ same sample ⇒
    /// same span, so the carry is bitwise-equivalent to resampling. A span
    /// that was still pending, and every miss, joins the pending set.
    ///
    /// Returns the `(new, old)` index pairs whose estimator spans carry.
    pub fn rebuild(
        &mut self,
        decomp: &Decomposition,
        carried: &[Option<usize>],
    ) -> Vec<(usize, usize)> {
        let mut old = std::mem::take(&mut self.meta);
        self.pending.clear();
        let mut kept = Vec::new();
        for (i, (sg, &from)) in decomp.subgraphs.iter().zip(carried).enumerate() {
            let meta = from
                .and_then(|o| old.get_mut(o)?.take())
                .filter(|m| m.fingerprint == sg.fingerprint());
            match (from, &meta) {
                (Some(o), Some(_)) => kept.push((i, o)),
                _ => {
                    self.pending.insert(i);
                }
            }
            self.meta.push(meta);
        }
        kept
    }

    /// Resamples the pending sub-graphs — plus, in adaptive mode, any span
    /// whose budget allocation moved (and *all* of them when the sampling
    /// parameters changed since the last refresh) — into `fold`'s estimate
    /// layers, and clears the pending set. After a refresh,
    /// [`SampleStore::estimates`] is bitwise-identical to
    /// [`bc_sampled_from_decomposition`] over the same decomposition and
    /// parameters — the determinism contract, asserted here under
    /// `--features invariants`.
    pub fn refresh(
        &mut self,
        fold: &mut FoldStore,
        decomp: &Decomposition,
        opts: &ApgreOptions,
        sopts: &SampleOptions,
    ) -> SampleRefresh {
        let t = Instant::now();
        assert_eq!(decomp.num_subgraphs(), self.meta.len(), "store lags the decomposition");
        if self.params.as_ref() != Some(sopts) {
            self.pending.extend(0..self.meta.len());
            self.params = Some(sopts.clone());
        }
        let count = self.meta.len();
        // σ is content-pure, so clean sub-graphs reuse their cached value;
        // pending ones re-pilot (their content — or existence — changed).
        let cached: Vec<Option<f64>> = (0..count)
            .map(|i| {
                if self.pending.contains(&i) {
                    None
                } else {
                    self.meta[i].as_ref().map(|m| m.sigma)
                }
            })
            .collect();
        let plan = plan(decomp, opts, sopts, &cached);
        // The pending set plus every span whose allocated `k` moved (a
        // uniform cap never moves a clean span's `k`).
        let resample: Vec<usize> = (0..count)
            .filter(|&i| {
                self.pending.contains(&i)
                    || match &self.meta[i] {
                        Some(m) => m.k != plan.k[i],
                        None => true,
                    }
            })
            .collect();
        let (spans, edges) = sample_spans(decomp, opts, sopts, &plan, &resample);
        let (budget, allocated) = match sopts.budget {
            SampleBudget::Uniform { .. } => (0, 0),
            SampleBudget::Adaptive { total_roots, .. } => (total_roots, plan.allocated()),
        };
        let mut report = SampleRefresh {
            resampled: resample.len(),
            reused: count - resample.len(),
            pilot_roots: plan.pilot_roots,
            edges: plan.pilot_edges + edges,
            budget,
            allocated,
            ..SampleRefresh::default()
        };
        for s in spans {
            let i = s.index;
            if !self.pending.contains(&i) && matches!(self.meta.get(i), Some(Some(_))) {
                report.drifted += 1;
                report.drift_roots += s.roots as u64;
            }
            fold.set_layer_values(Layer::Estimate, i, Arc::from(s.span));
            fold.set_layer_values(Layer::ErrSq, i, Arc::from(s.err));
            self.meta[i] = Some(SampleMeta {
                fingerprint: decomp.subgraphs[i].fingerprint(),
                sigma: plan.sigma[i],
                k: plan.k[i],
            });
            report.sampled_roots += s.roots as u64;
        }
        self.pending.clear();
        report.wall = t.elapsed();
        #[cfg(feature = "invariants")]
        self.verify_against_scratch(fold, decomp, opts, sopts)
            .expect("incremental sampled estimates diverged from the from-scratch oracle");
        report
    }

    /// The flat estimate vector of `fold` (ascending-index fold from
    /// zeros). Meaningful once the pending set is empty — call
    /// [`SampleStore::refresh`] first.
    pub fn estimates(&self, fold: &FoldStore) -> Vec<f64> {
        fold.layer_chunks(Layer::Estimate).to_vec()
    }

    /// One vertex's estimate (same fold order as [`SampleStore::estimates`]).
    pub fn estimate(&self, fold: &FoldStore, v: u32) -> f64 {
        fold.fold_layer_vertex(Layer::Estimate, v)
    }

    /// One vertex's standard error: the square root of the ascending-index
    /// fold of its squared-standard-error contributions. Zero wherever
    /// every owning span is exhaustive.
    pub fn stderr(&self, fold: &FoldStore, v: u32) -> f64 {
        fold.fold_layer_vertex(Layer::ErrSq, v).sqrt()
    }

    /// Bitwise cross-check of `fold`'s estimate layers against
    /// [`bc_sampled_with_stderr_from_decomposition`] — estimates *and*
    /// standard errors. Errors when the store still has pending sub-graphs
    /// or anything diverges.
    pub fn verify_against_scratch(
        &self,
        fold: &FoldStore,
        decomp: &Decomposition,
        opts: &ApgreOptions,
        sopts: &SampleOptions,
    ) -> Result<(), String> {
        if !self.pending.is_empty() {
            return Err(format!("{} sub-graphs still pending", self.pending.len()));
        }
        let (want, want_err) = bc_sampled_with_stderr_from_decomposition(decomp, opts, sopts);
        let got = self.estimates(fold);
        if got.len() != want.len() {
            return Err(format!("length mismatch: {} vs {}", got.len(), want.len()));
        }
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            if g.to_bits() != w.to_bits() {
                return Err(format!("estimate diverged at vertex {v}: {g} vs {w}"));
            }
        }
        for (v, w) in want_err.iter().enumerate() {
            let g = self.stderr(fold, v as u32);
            if g.to_bits() != w.to_bits() {
                return Err(format!("stderr diverged at vertex {v}: {g} vs {w}"));
            }
        }
        Ok(())
    }
}
