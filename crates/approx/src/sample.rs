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
//! * **Uniform** — the PR 9 behaviour: `k_i = min(|R_i|, cap)` with one cap
//!   for every sub-graph.
//! * **Adaptive** — a *global* root budget distributed proportionally to
//!   `|R_i| · σ_i` by the variance-guided allocator (the [`crate::budget`]
//!   module; DESIGN.md §3.13), with per-vertex standard errors derived from
//!   the same per-root Welford accumulators.
//!
//! Because sub-graph `i`'s sample depends only on the global seed and the
//! sub-graph's content fingerprint — and, in the adaptive regime, on pilot
//! variances that are themselves content-pure — an estimate span never has
//! to be recomputed unless the sub-graph itself changed or its *allocation*
//! moved. [`SampleStore`] exploits that: it mirrors `FoldStore`'s
//! slot-stable span design (indeed it *is* a `FoldStore` of scaled sample
//! spans, plus a second `FoldStore` of squared-standard-error spans and
//! sampling metadata), carries unaffected sub-graphs' spans across
//! generations verbatim, and resamples only the dirty set — so refresh cost
//! tracks the dirty set the way PR 8 made publish cost do.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apgre_bc::apgre::{run_subgraph_kernels, ApgreOptions};
use apgre_decomp::{decompose, Decomposition, SubGraph};
use apgre_graph::Graph;
use apgre_store::FoldStore;

use crate::budget::{plan, stderr_sq_span, SamplePlan, DEFAULT_PILOT};
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
    /// the pilot standard deviation of the per-root contribution mass.
    /// Every span is floored at `min(pilot, |R_i|)` roots (so its variance
    /// accumulators are defined) and capped at `|R_i|` (exhaustive).
    Adaptive {
        /// The global root budget (Σ `k_i` targets this; floors may
        /// overshoot it, caps may undershoot it).
        total_roots: usize,
        /// Pilot sweep size per sub-graph (clamped to ≥ 2).
        pilot: usize,
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

    /// Variance-guided global budget with the default pilot size.
    pub fn adaptive(total_roots: usize, seed: u64) -> Self {
        SampleOptions { budget: SampleBudget::Adaptive { total_roots, pilot: DEFAULT_PILOT }, seed }
    }

    /// Whether the adaptive allocator (and therefore the standard-error
    /// accumulators) is active.
    pub fn is_adaptive(&self) -> bool {
        matches!(self.budget, SampleBudget::Adaptive { .. })
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
/// the estimates. In uniform mode no accumulators exist and the error
/// vector is all zeros (the uniform estimator reports no error bound).
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
    /// Squared standard errors of `span` (all zero under a uniform cap).
    err: Vec<f64>,
    /// Roots swept.
    roots: usize,
}

/// The draw → dispatch → scale body shared by the from-scratch oracle and
/// [`SampleStore::refresh`], so the two cannot drift apart. Draws sub-graph
/// `i`'s sample at `plan.k[i]` for every `i` in `indices` (ascending,
/// distinct), sweeps all of them through one [`run_subgraph_kernels`] call
/// — observed under an adaptive budget, whose per-root statistics yield the
/// standard errors; the policy-chosen kernel and all-zero errors under a
/// uniform cap — and scales each span. Returns the spans in `indices`
/// order plus the kernels' edge count.
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
    let runs = run_subgraph_kernels(decomp, &jobs, opts, sopts.is_adaptive());
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

/// [`bc_sampled`] plus the per-vertex standard error (zeros in uniform
/// mode).
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
/// it keys the rebuild path's carry-forward. `sigma` caches the pilot
/// standard deviation (content-pure, so it carries with the fingerprint)
/// and `k` records the sample size the span was drawn at — a later
/// allocation that disagrees with `k` forces a resample even when the
/// content itself is clean.
#[derive(Clone, Debug)]
struct SampleMeta {
    fingerprint: u64,
    sigma: f64,
    k: usize,
}

/// The incremental estimator state: a slot-stable [`FoldStore`] of *scaled*
/// sample spans, a parallel `FoldStore` of squared-standard-error spans,
/// per-sub-graph sampling metadata, and the pending dirty set.
///
/// Lifecycle (driven by `DynamicBc`): [`SampleStore::seed`] over the
/// initial decomposition (everything pending), then per batch either
/// [`SampleStore::apply_splice`] + [`SampleStore::mark_dirty`] (absorbed
/// batches) or [`SampleStore::rebuild`] (from-scratch re-decompositions,
/// with fingerprint-keyed span carry), and finally
/// [`SampleStore::refresh`] when estimates are demanded — resampling the
/// accumulated dirty set (plus, in adaptive mode, any span whose budget
/// allocation moved).
#[derive(Debug, Default)]
pub struct SampleStore {
    fold: FoldStore,
    /// Squared-standard-error spans, maintained in lockstep with `fold`
    /// (same slots, same splices). All-zero in uniform mode and for
    /// exhaustive spans.
    err: FoldStore,
    meta: Vec<Option<SampleMeta>>,
    pending: BTreeSet<usize>,
    num_vertices: usize,
    /// Parameters the live spans were drawn with; a refresh under different
    /// parameters invalidates everything.
    params: Option<SampleOptions>,
}

impl SampleStore {
    /// Seeds the store over `decomp`: zeroed placeholder spans, every
    /// sub-graph pending.
    pub fn seed(decomp: &Decomposition) -> Self {
        let mut store = SampleStore::default();
        store.rebuild(decomp);
        store
    }

    /// Number of sub-graphs currently tracked.
    pub fn num_subgraphs(&self) -> usize {
        self.meta.len()
    }

    /// Sub-graphs awaiting a resample.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Mirrors a structural splice of the decomposition (same `old_to_new`
    /// contract as `FoldStore::apply_splice`; `decomp` is the post-splice
    /// decomposition). Survivor spans and metadata carry over; fresh
    /// sub-graphs join the pending set with zeroed placeholders.
    pub fn apply_splice(
        &mut self,
        num_vertices: usize,
        old_to_new: &[Option<u32>],
        decomp: &Decomposition,
    ) {
        let new_globals: Vec<&[u32]> =
            decomp.subgraphs.iter().map(|sg| sg.globals.as_slice()).collect();
        self.fold.apply_splice(num_vertices, old_to_new, &new_globals);
        self.err.apply_splice(num_vertices, old_to_new, &new_globals);
        let count = decomp.num_subgraphs();
        let mut meta: Vec<Option<SampleMeta>> = vec![None; count];
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
        self.num_vertices = num_vertices;
    }

    /// Marks sub-graphs (current indexing) whose content changed in place.
    pub fn mark_dirty(&mut self, dirty: &[usize]) {
        self.pending.extend(dirty.iter().copied());
    }

    /// Replaces the store after a from-scratch re-decomposition, carrying
    /// spans whose sub-graph content fingerprint reappears (same
    /// fingerprint ⇒ same seed ⇒ same sample ⇒ same span, so the carry is
    /// bitwise-equivalent to resampling). Misses join the pending set.
    ///
    /// A fingerprint collision between sub-graphs of different sizes would
    /// otherwise install a wrong-length span, so the length check is
    /// unconditional (not a `debug_assert!`): a mismatched candidate is
    /// treated as a carry miss and the slot falls back to the pending set.
    pub fn rebuild(&mut self, decomp: &Decomposition) {
        let spans = self.fold.values_in_order();
        let errs = self.err.values_in_order();
        let mut carry: HashMap<u64, Vec<(Arc<[f64]>, Arc<[f64]>, SampleMeta)>> = HashMap::new();
        for ((m, span), err) in self.meta.iter().zip(spans).zip(errs) {
            if let Some(meta) = m {
                carry.entry(meta.fingerprint).or_default().push((span, err, meta.clone()));
            }
        }
        let count = decomp.num_subgraphs();
        let mut meta = Vec::with_capacity(count);
        let mut pending = BTreeSet::new();
        let mut pairs: Vec<(Arc<[u32]>, Arc<[f64]>)> = Vec::with_capacity(count);
        let mut err_pairs: Vec<(Arc<[u32]>, Arc<[f64]>)> = Vec::with_capacity(count);
        for (i, sg) in decomp.subgraphs.iter().enumerate() {
            let fp = sg.fingerprint();
            let globals: Arc<[u32]> = Arc::from(sg.globals.as_slice());
            let candidate = carry
                .get_mut(&fp)
                .and_then(|v| v.pop())
                .filter(|(span, _, _)| span.len() == sg.num_vertices());
            match candidate {
                Some((span, err, m)) => {
                    pairs.push((Arc::clone(&globals), span));
                    err_pairs.push((globals, err));
                    meta.push(Some(m));
                }
                None => {
                    pairs.push((Arc::clone(&globals), Arc::from(vec![0.0f64; sg.num_vertices()])));
                    err_pairs.push((globals, Arc::from(vec![0.0f64; sg.num_vertices()])));
                    meta.push(None);
                    pending.insert(i);
                }
            }
        }
        self.fold.rebuild(decomp.num_vertices, pairs);
        self.err.rebuild(decomp.num_vertices, err_pairs);
        self.meta = meta;
        self.pending = pending;
        self.num_vertices = decomp.num_vertices;
    }

    /// Resamples the pending sub-graphs — plus, in adaptive mode, any span
    /// whose budget allocation moved (and *all* of them when the sampling
    /// parameters changed since the last refresh) — and clears the pending
    /// set. After a refresh, [`SampleStore::estimates`] is
    /// bitwise-identical to [`bc_sampled_from_decomposition`] over the same
    /// decomposition and parameters — the determinism contract, asserted
    /// here under `--features invariants`.
    pub fn refresh(
        &mut self,
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
            self.fold.set_values(i, Arc::from(s.span));
            self.err.set_values(i, Arc::from(s.err));
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
        self.verify_against_scratch(decomp, opts, sopts)
            .expect("incremental sampled estimates diverged from the from-scratch oracle");
        report
    }

    /// The flat estimate vector (ascending-index fold from zeros).
    /// Meaningful once the pending set is empty — call
    /// [`SampleStore::refresh`] first.
    pub fn estimates(&self) -> Vec<f64> {
        self.fold.to_flat()
    }

    /// One vertex's estimate (same fold order as [`SampleStore::estimates`]).
    pub fn estimate(&self, v: u32) -> f64 {
        self.fold.fold_vertex(v)
    }

    /// One vertex's standard error: the square root of the ascending-index
    /// fold of its squared-standard-error contributions. Zero in uniform
    /// mode and wherever every owning span is exhaustive.
    pub fn stderr(&self, v: u32) -> f64 {
        self.err.fold_vertex(v).sqrt()
    }

    /// The largest per-vertex standard error currently stored (0 when the
    /// store is empty or uniform).
    pub fn stderr_max(&self) -> f64 {
        self.err.to_flat().into_iter().fold(0.0f64, f64::max).sqrt()
    }

    /// An immutable snapshot of the estimate spans (O(sub-graphs) `Arc`
    /// clones), for publication next to the exact `ScoreChunks`.
    pub fn chunks(&self) -> apgre_store::ScoreChunks {
        self.fold.chunks()
    }

    /// An immutable snapshot of the squared-standard-error spans; fold a
    /// vertex and take the square root to recover its standard error.
    pub fn stderr_chunks(&self) -> apgre_store::ScoreChunks {
        self.err.chunks()
    }

    /// Bitwise cross-check against
    /// [`bc_sampled_with_stderr_from_decomposition`] — estimates *and*
    /// standard errors. Errors when the store still has pending sub-graphs
    /// or anything diverges.
    pub fn verify_against_scratch(
        &self,
        decomp: &Decomposition,
        opts: &ApgreOptions,
        sopts: &SampleOptions,
    ) -> Result<(), String> {
        if !self.pending.is_empty() {
            return Err(format!("{} sub-graphs still pending", self.pending.len()));
        }
        let (want, want_err) = bc_sampled_with_stderr_from_decomposition(decomp, opts, sopts);
        let got = self.estimates();
        if got.len() != want.len() {
            return Err(format!("length mismatch: {} vs {}", got.len(), want.len()));
        }
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            if g.to_bits() != w.to_bits() {
                return Err(format!("estimate diverged at vertex {v}: {g} vs {w}"));
            }
        }
        for (v, w) in want_err.iter().enumerate() {
            let g = self.stderr(v as u32);
            if g.to_bits() != w.to_bits() {
                return Err(format!("stderr diverged at vertex {v}: {g} vs {w}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_graph::generators;

    /// Two structurally different graphs whose decompositions yield
    /// sub-graphs of different sizes; the test forges a fingerprint match
    /// to simulate an FNV collision across a rebuild.
    #[test]
    fn rebuild_rejects_forged_fingerprint_collisions() {
        let opts = ApgreOptions::default();
        let sopts = SampleOptions::uniform(4, 0xFEED);
        // Seed + refresh a store over a lollipop: clique sub-graph + path.
        let a = generators::lollipop(6, 8);
        let da = decompose(&a, &opts.partition);
        let mut store = SampleStore::seed(&da);
        store.refresh(&da, &opts, &sopts);
        assert_eq!(store.pending_len(), 0);

        // A different graph whose sub-graphs have different vertex counts.
        let b = generators::lollipop(9, 3);
        let db = decompose(&b, &opts.partition);
        // Forge: overwrite every carried fingerprint with the new
        // decomposition's fingerprints, misaligned with the span sizes.
        let forged: Vec<u64> = db.subgraphs.iter().map(|sg| sg.fingerprint()).collect();
        for (slot, m) in store.meta.iter_mut().enumerate() {
            if let Some(meta) = m.as_mut() {
                meta.fingerprint = forged[slot % forged.len()];
            }
        }
        store.rebuild(&db);
        // Every slot whose forged carry candidate had the wrong length must
        // have fallen back to the pending set instead of installing it.
        for (i, sg) in db.subgraphs.iter().enumerate() {
            let span = store.fold.values_of(i);
            assert_eq!(
                span.len(),
                sg.num_vertices(),
                "sub-graph {i}: collision carry installed a wrong-length span"
            );
        }
        // And a refresh lands back on the oracle.
        let r = store.refresh(&db, &opts, &sopts);
        assert!(r.resampled > 0);
        store.verify_against_scratch(&db, &opts, &sopts).unwrap();
    }

    /// Same-length collisions are indistinguishable from true carries by
    /// construction (same fingerprint, same size); the guard only needs to
    /// reject the length mismatch, and a legitimate carry must survive.
    #[test]
    fn rebuild_still_carries_matching_spans() {
        let opts = ApgreOptions::default();
        let sopts = SampleOptions::uniform(3, 7);
        let g = generators::lollipop(7, 5);
        let d = decompose(&g, &opts.partition);
        let mut store = SampleStore::seed(&d);
        store.refresh(&d, &opts, &sopts);
        store.rebuild(&d);
        assert_eq!(store.pending_len(), 0, "identical rebuild must carry every span");
        store.verify_against_scratch(&d, &opts, &sopts).unwrap();
    }
}
