//! Persistent, structurally-shared snapshot storage for the incremental
//! APGRE engine.
//!
//! The incremental engine (`apgre-dynamic`, DESIGN.md §3.8/§3.10) makes
//! *applying* a batch proportional to the dirty region, but every *publish*
//! used to pay O(V+E) anyway: materializing a fresh CSR, cloning the score
//! vector whole, and refolding from zeros. This crate removes that last
//! full-size cost with two chunked, copy-on-write structures that share
//! everything a batch did not touch (DESIGN.md §3.11):
//!
//! * [`CowGraph`] — the graph, split into fixed-arity chunks of CSR
//!   adjacency behind `Arc`s plus a thin per-chunk delta layer. It is the
//!   engine's only mutable graph: its edits report whether they changed
//!   anything, and those effective edits are what the decomposition
//!   maintainer consumes. [`CowGraph::view`] yields an immutable
//!   [`GraphView`] in O(#chunks) pointer clones; only chunks an edit
//!   landed in are deep-copied.
//!   [`CowGraph::compact`] is the escape hatch when deltas accumulate
//!   (each chunk also auto-compacts past a fixed delta budget).
//! * [`FoldStore`] / [`ScoreChunks`] — the score vector, stored as one
//!   `Arc<[f64]>` span per sub-graph (plus a chunked per-vertex owner
//!   index), folded on demand in ascending sub-graph index order — the
//!   exact fold order of the batch pipeline, so served scores stay
//!   **bitwise** equal to a from-scratch run. A snapshot clones only the
//!   spans of dirty sub-graphs; everything else is shared. Each sub-graph
//!   carries one span per [`Layer`] (exact, estimate, squared standard
//!   error), so both score tiers share one owner index.
//!
//! Both sides report [`PublishStats`] (chunks copied vs reused since the
//! previous snapshot), which `apgre-serve` exposes on `/metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cow;
mod score;

pub use cow::{CowGraph, GraphView, GRAPH_CHUNK_SIZE};
pub use score::{FoldStore, Layer, ScoreChunks, TopCache, INDEX_CHUNK_SIZE};

/// Chunk-reuse accounting for one published snapshot: how many chunks the
/// publish had to deep-copy (because a batch since the previous publish
/// touched them) versus how many it shared untouched.
///
/// "Graph chunks" are [`CowGraph`] adjacency chunks
/// ([`GRAPH_CHUNK_SIZE`] vertices each); "score chunks" are per-sub-graph
/// [`ScoreChunks`] value spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Per-sub-graph score spans re-allocated since the previous snapshot.
    pub score_chunks_copied: usize,
    /// Per-sub-graph score spans shared with the previous snapshot.
    pub score_chunks_reused: usize,
    /// Graph adjacency chunks deep-copied since the previous snapshot.
    pub graph_chunks_copied: usize,
    /// Graph adjacency chunks shared with the previous snapshot.
    pub graph_chunks_reused: usize,
}
