//! # apgre — Articulation Points Guided Redundancy Elimination for BC
//!
//! A from-scratch Rust reproduction of *"Articulation Points Guided
//! Redundancy Elimination for Betweenness Centrality"* (PPoPP 2016): the
//! APGRE algorithm, the shared-memory baselines it was evaluated against,
//! the graph substrate, and the workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use apgre::prelude::*;
//!
//! // A graph with an articulation point: two triangles sharing vertex 2.
//! let g = Graph::undirected_from_edges(
//!     5,
//!     &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
//! );
//! let scores = bc_apgre(&g);
//! // Vertex 2 carries all paths between the triangles.
//! assert!(scores[2] > scores[0]);
//!
//! // Exactness: identical to serial Brandes.
//! let reference = bc_serial(&g);
//! assert!(scores.iter().zip(&reference).all(|(a, b)| (a - b).abs() < 1e-9));
//! ```
//!
//! ## Crate map
//!
//! * [`graph`] — CSR graphs, traversals, generators, I/O ([`apgre_graph`]),
//! * [`decomp`] — articulation points, biconnected components, the paper's
//!   Algorithm 1 partition, α/β/γ ([`apgre_decomp`]),
//! * [`bc`] — Brandes, the parallel baselines, APGRE, redundancy analysis
//!   ([`apgre_bc`]),
//! * [`approx`] — the decomposition-composed sampled estimator: seeded
//!   generation-stable per-sub-graph root samples, carried incrementally by
//!   a slot-stable `SampleStore` ([`apgre_approx`]),
//! * [`dynamic`] — the incremental engine: mutation batches, dirty-sub-graph
//!   tracking, contribution carry-forward ([`apgre_dynamic`]),
//! * [`store`] — the persistent copy-on-write snapshot store: chunked CoW
//!   graph + per-sub-graph score spans, so publishing costs only the dirty
//!   set ([`apgre_store`]),
//! * [`serve`] — the concurrent query service over the incremental engine:
//!   snapshot isolation, mutation batching, admission control, metrics
//!   ([`apgre_serve`]),
//! * [`workloads`] — deterministic stand-ins for the paper's 12 evaluation
//!   graphs ([`apgre_workloads`]).

#![forbid(unsafe_code)]

pub use apgre_approx as approx;
pub use apgre_bc as bc;
pub use apgre_decomp as decomp;
pub use apgre_dynamic as dynamic;
pub use apgre_graph as graph;
pub use apgre_serve as serve;
pub use apgre_store as store;
pub use apgre_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use apgre_approx::{
        bc_sampled, bc_sampled_from_decomposition, SampleOptions, SampleRefresh, SampleStore,
    };
    pub use apgre_bc::apgre::{
        bc_apgre, bc_apgre_with, ApgreOptions, ApgreReport, KernelChoice, KernelPolicy,
    };
    pub use apgre_bc::approx::bc_approx;
    pub use apgre_bc::brandes::bc_serial;
    pub use apgre_bc::edge::{edge_bc, girvan_newman};
    pub use apgre_bc::parallel::{bc_coarse, bc_hybrid, bc_lock_free, bc_preds, bc_succs};
    pub use apgre_bc::redundancy::{analyze as analyze_redundancy, RedundancyBreakdown};
    pub use apgre_bc::weighted::{bc_weighted_apgre, bc_weighted_serial};
    pub use apgre_decomp::{decompose, AlphaBetaMethod, Decomposition, PartitionOptions, SubGraph};
    pub use apgre_dynamic::{
        bc_dynamic, BatchClass, DynamicBc, DynamicReport, EngineSnapshot, Mutation, MutationBatch,
    };
    pub use apgre_graph::{Graph, GraphBuilder, GraphOverlay, VertexId, WeightedGraph};
    pub use apgre_serve::{serve as serve_bc, ServeConfig, ServerHandle};
    pub use apgre_store::{CowGraph, FoldStore, GraphView, PublishStats, ScoreChunks};
}

pub use prelude::*;
