//! Decomposition-composed sampled betweenness estimation (`apgre-approx`).
//!
//! The exact pipeline decomposes at articulation points, sweeps every root
//! of every sub-graph, and folds Equation-7 contributions through α/β
//! scaling (DESIGN.md §3). This crate swaps the exhaustive per-sub-graph
//! sweep for a seeded Brandes–Pich root sample while keeping every other
//! stage — the paper's X3 observation that the decomposition composes with
//! any per-sub-graph routine — and makes the result *incremental*: samples
//! are generation-stable (seeded off each sub-graph's content
//! fingerprint), so the [`SampleStore`] only resamples sub-graphs a
//! mutation batch dirtied and carries everything else verbatim. A
//! variance-guided allocator ([`SampleBudget::Adaptive`], DESIGN.md §3.13)
//! can replace the uniform per-sub-graph cap with a *global* root budget
//! split proportionally to `|R_i|·σ_i`, surfacing per-vertex standard
//! errors from the same accumulators.
//!
//! Layering: `graph`/`decomp`/`bc` below (kernels and decomposition),
//! `store` for the slot-stable span store, `dynamic` above (drives the
//! dirty set and owns [`SampleStore`] behind `DynamicBc::approx_snapshot`),
//! `serve` at the top (the `?approx=k` tier).
//!
//! Determinism contract: same seed + same decomposition ⇒
//! [`SampleStore::refresh`] leaves estimates bitwise-identical to a
//! from-scratch [`bc_sampled_from_decomposition`] run, regardless of which
//! sub-graphs were resampled along the way. `--features invariants`
//! asserts this after every refresh.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod rng;
mod sample;

pub use budget::{allocate_budget, plan_adaptive, SamplePlan, DEFAULT_PILOT};
pub use rng::{mix_seed, sample_roots, SplitMix64};
pub use sample::{
    bc_sampled, bc_sampled_from_decomposition, bc_sampled_with_stderr,
    bc_sampled_with_stderr_from_decomposition, draw_roots, SampleBudget, SampleOptions,
    SampleRefresh, SampleStore,
};
