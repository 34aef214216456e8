//! The variance-guided root-budget allocator.
//!
//! PR 9's estimator spent a fixed root budget per sub-graph, which wastes
//! sweeps: a 40-vertex community whose per-root contributions are nearly
//! identical needs two or three roots, while the top sub-graph's roots have
//! wildly different contribution masses and deserve almost the whole
//! budget. Following the adaptive-sampling observation of arXiv:1802.06701
//! (per-source budgets should track contribution variance), this module
//! distributes a *global* root budget across sub-graphs by greedy
//! water-filling on the predicted squared error, driven by the weight
//! `|R_i| · σ_i`, where `σ_i` is the root-sample dispersion of the per-root
//! Equation-7 contributions — the square root of the summed per-vertex
//! Welford variances — measured on a small deterministic *pilot* sweep.
//!
//! # Determinism
//!
//! The incremental store's contract — refresh leaves estimates bitwise
//! identical to the from-scratch oracle — survives the allocator because
//! every input to the allocation is a pure function of the decomposition
//! content and the global seed:
//!
//! * the pilot draw is the first `pilot` elements of the same
//!   `mix_seed(seed, fingerprint_i)` Fisher–Yates stream the final sample
//!   uses, so it never depends on generation history (a sub-graph of at
//!   most `pilot` roots is never piloted: its floor already covers it);
//! * `σ_i` is a Welford fold over the pilot roots in sorted-ascending
//!   order through the *observed sequential* kernel, so its bits are fixed
//!   regardless of thread count or scheduling;
//! * [`allocate_budget`] is a greedy marginal-gain water-fill whose gains
//!   are pure `f64` arithmetic over the weights, with ties broken by
//!   sub-graph index.
//!
//! The incremental store caches `σ_i` per fingerprint and re-runs pilots
//! only for content-dirty sub-graphs; the oracle re-runs all of them and
//! lands on the same bits. A refresh then resamples any span whose
//! *allocation* changed (not just content-dirty ones), which is exactly
//! what keeps the store equal to the oracle after weights shift.

use apgre_bc::apgre::{run_subgraph_kernels, ApgreOptions};
use apgre_decomp::Decomposition;

use crate::rng::{mix_seed, sample_roots};
use crate::sample::{SampleBudget, SampleOptions};

/// Default pilot sweep size (per-sub-graph roots used to estimate `σ_i`).
pub const DEFAULT_PILOT: usize = 4;

/// The resolved sampling plan for one decomposition generation: how many
/// roots each sub-graph draws, and (adaptive budgets only) the pilot
/// dispersions that decided it.
#[derive(Clone, Debug)]
pub struct SamplePlan {
    /// Per-sub-graph pilot dispersion of the per-root contributions — the
    /// square root of the summed per-vertex sample variances (the `σ_i` of
    /// the allocation weight `|R_i|·σ_i`). A uniform cap pilots nothing, and
    /// neither does an adaptive budget for a sub-graph of at most `pilot`
    /// roots; their `σ_i` is 0.
    pub sigma: Vec<f64>,
    /// Allocated root-sample size per sub-graph (`min(pilot, |R_i|) ≤ k_i ≤
    /// |R_i|` under an adaptive budget, `min(cap, |R_i|)` under a uniform
    /// cap).
    pub k: Vec<usize>,
    /// Σ pilot roots swept while planning (only content-dirty sub-graphs
    /// pay this; cached `σ` is free).
    pub pilot_roots: u64,
    /// Σ edges examined by the pilot sweeps.
    pub pilot_edges: u64,
}

impl SamplePlan {
    /// Σ allocated roots across all sub-graphs.
    pub fn allocated(&self) -> u64 {
        self.k.iter().map(|&k| k as u64).sum()
    }
}

/// One sub-graph's place in the water-filling queue, keyed by the marginal
/// error reduction of its next root. Max-heap order; ties go to the lower
/// sub-graph index so the fill order is fully deterministic.
struct FillSlot {
    gain: f64,
    index: usize,
}

impl PartialEq for FillSlot {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for FillSlot {}
impl PartialOrd for FillSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FillSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.index.cmp(&self.index))
    }
}

/// Distributes `total` sampled roots across sub-graphs by exact greedy
/// water-filling on the predicted squared error, flooring each at
/// `min(pilot, caps[i])` (so the pilot prefix is inside every final sample
/// and the per-vertex variance accumulators always see at least two
/// observations) and capping at `caps[i] = |R_i|` (an allocation at the cap
/// runs exhaustively — scale 1, zero error).
///
/// With weight `w_i = |R_i|·σ_i`, sub-graph `i`'s predicted summed squared
/// error at sample size `k` is `w_i²·(R_i−k)/(k(R_i−1))` — the
/// finite-population-corrected `Σ_v se²(v)` of [`stderr_sq_span`] with the
/// pilot variance standing in for the sample variance. The marginal gain of
/// the `k→k+1` root collapses to the closed form
///
/// ```text
/// gain_i(k) = w_i² · R_i / ((R_i − 1) · k(k+1))
/// ```
///
/// which is strictly decreasing in `k`, so repeatedly giving the next root
/// to the sub-graph with the largest marginal gain is the *exact* minimiser
/// of the predicted total squared error under the floors and caps — unlike
/// weight-proportional rounding, it keeps paying a nearly-exhausted span
/// only while its finite-population-corrected gain still beats the field.
///
/// Deterministic: gains are pure `f64` arithmetic over the weights and
/// `k`-counters, ties break to the lower sub-graph index. When no sub-graph
/// below its cap has a positive finite weight (zero variance everywhere —
/// e.g. perfectly symmetric spans), root counts stand in as weights, which
/// degenerates to a near-uniform-per-root fill. The floors are spent even
/// when `total` is smaller than their sum — a floor of `min(pilot, |R_i|)`
/// per span is the price of a defined variance estimate.
pub fn allocate_budget(weights: &[f64], caps: &[usize], pilot: usize, total: usize) -> Vec<usize> {
    let n = caps.len();
    assert_eq!(weights.len(), n, "one weight per sub-graph");
    let pilot = pilot.max(2);
    let mut k: Vec<usize> = caps.iter().map(|&c| c.min(pilot)).collect();
    let mut spent: usize = k.iter().sum();
    if spent >= total {
        return k;
    }
    let usable = |w: f64| w.is_finite() && w > 0.0;
    let any_weighted = (0..n).any(|i| k[i] < caps[i] && usable(weights[i]));
    // g_i = w_i²·R_i/(R_i−1), the constant part of the marginal gain.
    let g: Vec<f64> = (0..n)
        .map(|i| {
            let w = if any_weighted {
                if usable(weights[i]) {
                    weights[i]
                } else {
                    0.0
                }
            } else {
                caps[i] as f64
            };
            let r = caps[i] as f64;
            if caps[i] < 2 {
                0.0
            } else {
                w * w * r / (r - 1.0)
            }
        })
        .collect();
    let gain = |i: usize, ki: usize| -> f64 { g[i] / (ki as f64 * (ki as f64 + 1.0)) };
    let mut heap: std::collections::BinaryHeap<FillSlot> = (0..n)
        .filter(|&i| k[i] < caps[i])
        .map(|i| FillSlot { gain: gain(i, k[i]), index: i })
        .collect();
    while spent < total {
        let Some(slot) = heap.pop() else { break };
        let i = slot.index;
        k[i] += 1;
        spent += 1;
        if k[i] < caps[i] {
            heap.push(FillSlot { gain: gain(i, k[i]), index: i });
        }
    }
    k
}

/// The plan for `sopts` over `decomp`. A uniform cap is the allocation
/// `k_i = min(cap, |R_i|)` with no pilot (`σ = 0`); an adaptive budget is
/// [`plan_adaptive`], re-piloting only the sub-graphs whose `cached_sigma`
/// is `None`.
pub(crate) fn plan(
    decomp: &Decomposition,
    opts: &ApgreOptions,
    sopts: &SampleOptions,
    cached_sigma: &[Option<f64>],
) -> SamplePlan {
    match sopts.budget {
        SampleBudget::Uniform { samples_per_subgraph } => SamplePlan {
            sigma: vec![0.0; decomp.num_subgraphs()],
            k: decomp.subgraphs.iter().map(|sg| sg.roots.len().min(samples_per_subgraph)).collect(),
            pilot_roots: 0,
            pilot_edges: 0,
        },
        SampleBudget::Adaptive { total_roots } => {
            plan_adaptive(decomp, opts, sopts.seed, total_roots, DEFAULT_PILOT, cached_sigma)
        }
    }
}

/// Computes the adaptive plan for one decomposition: pilot `σ` for every
/// sub-graph with more than `pilot` roots whose cached value is `None` (the
/// incremental store passes its per-fingerprint cache; the oracle passes
/// all-`None`), then the water-filling allocation of `total_roots` driven
/// by the weights `|R_i|·σ_i`.
pub fn plan_adaptive(
    decomp: &Decomposition,
    opts: &ApgreOptions,
    seed: u64,
    total_roots: usize,
    pilot: usize,
    cached_sigma: &[Option<f64>],
) -> SamplePlan {
    let count = decomp.num_subgraphs();
    assert_eq!(cached_sigma.len(), count, "one cached σ slot per sub-graph");
    let pilot = pilot.max(2);
    let mut sigma: Vec<f64> = cached_sigma.iter().map(|c| c.unwrap_or(0.0)).collect();
    // A sub-graph with at most `pilot` roots is floored at all of them, so
    // it runs exhaustively whatever its σ: only larger ones are piloted, and
    // each pilot is a strict sample the dispatcher observes.
    let pilot_draws: Vec<(usize, Vec<u32>)> = decomp
        .subgraphs
        .iter()
        .zip(cached_sigma)
        .enumerate()
        .filter(|(_, (sg, cached))| cached.is_none() && sg.roots.len() > pilot)
        .map(|(i, (sg, _))| (i, sample_roots(&sg.roots, pilot, mix_seed(seed, sg.fingerprint()))))
        .collect();
    let jobs: Vec<(usize, &[u32])> =
        pilot_draws.iter().map(|(i, roots)| (*i, roots.as_slice())).collect();
    let runs = run_subgraph_kernels(decomp, &jobs, opts);
    let mut pilot_roots = 0u64;
    let mut pilot_edges = 0u64;
    for run in &runs {
        if let Some(st) = &run.stats {
            sigma[run.index] = pilot_sigma(&st.vertex_m2, st.roots);
            pilot_roots += st.roots as u64;
        }
        pilot_edges += run.edges;
    }
    let caps: Vec<usize> = decomp.subgraphs.iter().map(|sg| sg.roots.len()).collect();
    let weights: Vec<f64> = caps.iter().zip(&sigma).map(|(&c, &s)| c as f64 * s).collect();
    let k = allocate_budget(&weights, &caps, pilot, total_roots);
    SamplePlan { sigma, k, pilot_roots, pilot_edges }
}

/// Pilot dispersion `σ_i = sqrt(Σ_v M2(v) / (p − 1))` from the per-vertex
/// Welford `M2` accumulators over `count` pilot roots.
///
/// Summing the *per-vertex* variances (rather than the variance of the
/// per-root total mass) is the Neyman weight for minimising the summed
/// per-vertex squared error: `se²_i = |R_i|²·fpc·Σ_v s²(v)/k_i`, so the
/// optimal `k_i ∝ |R_i|·sqrt(Σ_v s²(v))`. The distinction matters on
/// whiskered graphs: a community's γ-scaled roots have near-identical
/// *totals* (low mass variance) while spreading that mass over different
/// vertices (high per-vertex variance), and the mass-only weight would
/// starve the top sub-graph where per-vertex error actually lives.
pub(crate) fn pilot_sigma(vertex_m2: &[f64], count: usize) -> f64 {
    if count >= 2 {
        (vertex_m2.iter().sum::<f64>() / (count as f64 - 1.0)).sqrt()
    } else {
        0.0
    }
}

/// Per-vertex squared standard error of one sub-graph's *scaled* span.
///
/// Sampling `k` of `|R|` roots without replacement and scaling by `|R|/k`
/// estimates the span total as `|R| · mean_r(c_r(v))`, so
///
/// ```text
/// se²(v) = |R|² · (s²(v) / k) · (|R| − k)/(|R| − 1)
/// ```
///
/// with `s²(v) = M2(v)/(k−1)` the per-root sample variance and the last
/// factor the finite-population correction (exhaustive draws have zero
/// error by construction).
pub(crate) fn stderr_sq_span(vertex_m2: &[f64], k: usize, total_roots: usize) -> Vec<f64> {
    let n = vertex_m2.len();
    if k >= total_roots || k < 2 {
        return vec![0.0; n];
    }
    let r = total_roots as f64;
    let kf = k as f64;
    let fpc = (r - kf) / (r - 1.0);
    let factor = r * r * fpc / (kf * (kf - 1.0));
    vertex_m2.iter().map(|&m2| m2 * factor).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_floors_caps_and_spends_the_budget() {
        let caps = vec![100usize, 10, 3, 1];
        let weights = vec![50.0, 5.0, 100.0, 0.0];
        let k = allocate_budget(&weights, &caps, 4, 40);
        // Floors: min(4, cap) each; cap 3 and cap 1 are exhaustive.
        assert!(k[0] >= 4 && k[1] >= 4);
        assert_eq!(k[2], 3);
        assert_eq!(k[3], 1);
        for (i, &ki) in k.iter().enumerate() {
            assert!(ki <= caps[i], "allocation over cap at {i}");
        }
        assert_eq!(k.iter().sum::<usize>(), 40, "budget fully spent");
        // The heavy-weight sub-graph dominates the free budget.
        assert!(k[0] > k[1]);
    }

    #[test]
    fn allocation_is_deterministic_and_exhaustive_when_budget_covers() {
        let caps = vec![7usize, 7, 7];
        let weights = vec![1.0, 2.0, 3.0];
        let a = allocate_budget(&weights, &caps, 2, 21);
        let b = allocate_budget(&weights, &caps, 2, 21);
        assert_eq!(a, b);
        assert_eq!(a, vec![7, 7, 7], "budget ≥ Σ|R| must go exhaustive everywhere");
        // Over-budget stops at the caps.
        assert_eq!(allocate_budget(&weights, &caps, 2, 1000), vec![7, 7, 7]);
    }

    #[test]
    fn zero_weights_fall_back_to_root_counts() {
        let caps = vec![30usize, 10, 10];
        let k = allocate_budget(&[0.0, 0.0, 0.0], &caps, 2, 25);
        assert_eq!(k.iter().sum::<usize>(), 25);
        // Proportional to caps: the big sub-graph gets the most.
        assert!(k[0] > k[1] && k[0] > k[2]);
    }

    #[test]
    fn floors_overshoot_small_budgets() {
        // Budget below the floor sum: every span still gets its pilot floor.
        let caps = vec![9usize, 9, 9];
        let k = allocate_budget(&[1.0, 1.0, 1.0], &caps, 4, 3);
        assert_eq!(k, vec![4, 4, 4]);
    }

    #[test]
    fn waterfill_follows_marginal_gains_not_weight_proportions() {
        // Two equal-weight sub-graphs: the fill round-robins (equal k), it
        // does NOT split proportionally to caps.
        let k = allocate_budget(&[10.0, 10.0], &[1000, 100], 2, 80);
        assert_eq!(k.iter().sum::<usize>(), 80);
        assert_eq!(k[0], k[1], "equal weights equalise marginal gains, so equal k");

        // A 4x weight buys 4x the samples at the shared marginal-gain
        // water level (gain w²/(k(k+1)) ⇒ k ∝ w), modulo rounding.
        let k = allocate_budget(&[40.0, 10.0], &[1000, 1000], 2, 100);
        assert_eq!(k.iter().sum::<usize>(), 100);
        assert!(k[0] >= 3 * k[1] && k[0] <= 5 * k[1], "k ∝ w expected, got {k:?}");

        // Finite population: a heavy span near its cap stops paying once
        // its residual error is gone — the cap binds and the remainder
        // flows to the lighter span.
        let k = allocate_budget(&[1000.0, 1.0], &[20, 500], 2, 120);
        assert_eq!(k[0], 20, "heavy span saturates at its cap");
        assert_eq!(k[1], 100, "displaced budget flows to the light span");
    }

    #[test]
    fn stderr_span_is_zero_for_exhaustive_draws() {
        assert_eq!(stderr_sq_span(&[5.0, 1.0], 7, 7), vec![0.0, 0.0]);
        let se = stderr_sq_span(&[8.0], 4, 16);
        // |R|=16, k=4: 16²·(8/3)/4 · 12/15
        let want = 256.0 * (8.0 / 3.0) / 4.0 * (12.0 / 15.0);
        assert!((se[0] - want).abs() < 1e-12);
    }
}
