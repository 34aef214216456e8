//! Incremental betweenness centrality over the APGRE decomposition.
//!
//! The batch pipeline recomputes everything on any change; this crate turns
//! it into an updatable engine. The key observation is the same one APGRE
//! itself rests on: the block-cut tree separates the graph into merged
//! biconnected sub-graphs that interact **only** through the α/β tables of
//! their boundary articulation points. An edit whose endpoints both lie
//! inside one sub-graph leaves every other sub-graph's DAGs — and all
//! boundary α/β — untouched, so only that sub-graph's local score
//! contribution needs recomputing.
//!
//! Pieces:
//!
//! * [`MutationBatch`] — a recorded group of edge/vertex [`Mutation`]s,
//!   applied atomically per batch,
//! * [`DynamicBc`] — the engine: the graph as one chunked copy-on-write
//!   [`apgre_store::CowGraph`], the maintained decomposition, one stored
//!   score contribution per sub-graph, and the classification + recompute
//!   scheduler ([`DynamicBc::apply`]),
//! * [`DynamicReport`] — per-batch counters (classification, dirty
//!   sub-graphs, reused contributions, wall clock),
//! * [`bc_dynamic`] — the one-shot entry point: build, replay batches,
//!   return final scores.
//!
//! Publishing ([`DynamicBc::snapshot`] / [`EngineSnapshot`]) is
//! copy-on-write through `apgre-store`'s chunked [`GraphView`] and
//! [`ScoreChunks`], so a snapshot costs O(chunks touched since the last
//! one) instead of O(V+E); [`PublishStats`] accounts for the sharing.
//!
//! Correctness argument and the local/structural classification rules are
//! in DESIGN.md §3.8; the snapshot store's layering is §3.11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod mutation;

pub use apgre_approx::{SampleBudget, SampleOptions, SampleRefresh};
pub use apgre_store::{GraphView, PublishStats, ScoreChunks, TopCache};
pub use engine::{
    bc_dynamic, ApproxSnapshot, BatchClass, DynamicBc, DynamicReport, EngineSnapshot,
};
pub use mutation::{Mutation, MutationBatch};
