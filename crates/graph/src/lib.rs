//! Graph substrate for the APGRE betweenness-centrality reproduction.
//!
//! This crate provides everything the higher layers need from a graph library:
//!
//! * [`csr::Csr`] — a compact compressed-sparse-row adjacency structure,
//! * [`Graph`] — a direction-aware graph holding forward (and, for directed
//!   graphs, reverse) CSR adjacency,
//! * [`builder::GraphBuilder`] — edge-list ingestion with de-duplication and
//!   self-loop hygiene,
//! * [`traversal`] — sequential breadth-first distances and the blocked
//!   reachability count behind the α/β computation,
//! * [`connectivity`] — connected / weakly-connected components,
//! * [`generators`] — deterministic synthetic graph families (Erdős–Rényi,
//!   Barabási–Albert, R-MAT, grids, stars, trees, whiskered composites),
//! * [`io`] — SNAP-style edge lists and DIMACS readers/writers,
//! * [`overlay`] — a mutable adjacency overlay for incremental updates that
//!   can re-materialize a CSR [`Graph`] snapshot,
//! * [`stats`] — degree statistics used by the experiment harness.
//!
//! The crate is sequential and holds no atomics. The parallel forward phases
//! (level-synchronous and direction-optimizing) live with the BC kernels in
//! `apgre_bc::parallel`, behind the `apgre_bc::sync` facade.
//!
//! Vertex ids are [`VertexId`] (`u32`); graphs in this reproduction are far
//! below the 4-billion-vertex mark and the narrower id type halves the memory
//! traffic of every traversal (see the CSR layout notes in `csr`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod connectivity;
pub mod csr;
pub mod generators;
pub mod graph;
pub mod io;
pub mod overlay;
pub mod reorder;
pub mod stats;
pub mod traversal;
pub mod weighted;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use graph::Graph;
pub use overlay::GraphOverlay;
pub use weighted::WeightedGraph;

/// Vertex identifier. Dense, zero-based.
pub type VertexId = u32;

/// Sentinel distance for "not reached" in BFS distance arrays.
pub const UNREACHED: u32 = u32::MAX;
