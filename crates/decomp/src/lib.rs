//! Biconnected decomposition substrate for APGRE.
//!
//! This crate implements everything between "a graph" and "the per-sub-graph
//! state the APGRE BC kernel consumes" (paper §3.1 Definition 1, §4 steps 1–2,
//! Algorithm 1):
//!
//! 1. [`bcc`] — articulation points and biconnected components
//!    (iterative Hopcroft–Tarjan, `O(V + E)`),
//! 2. [`block_cut_tree`] — the tree of biconnected components attached at
//!    articulation points (paper §3.1 property 3),
//! 3. [`partition`] — the paper's Algorithm 1 (`GRAPHPARTITION`): DFS from the
//!    largest BCC, merging small BCCs, producing [`subgraph::SubGraph`]s with
//!    local CSR, root sets `R`, whisker counts `γ`,
//! 4. [`alpha_beta`] — `α`/`β` per boundary articulation point, via blocked
//!    BFS (the paper's method, required for directed graphs) or via an
//!    `O(V + E)` block-cut-tree fast path for undirected graphs,
//! 5. [`naive`] — slow reference implementations used as test oracles,
//! 6. [`maintain`] — incremental maintenance of a committed decomposition
//!    under edge edits: localized Tarjan on the affected region, block
//!    splices, and a merge/α/β refresh confined to the region and its
//!    ancestor chain in the rooted block-cut forest.
//!
//! The entry point is [`decompose`], which runs steps 1–4 and returns a
//! [`Decomposition`]; dynamic callers wrap it in a
//! [`maintain::MaintainedDecomposition`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha_beta;
pub mod bcc;
pub mod block_cut_tree;
#[cfg(feature = "invariants")]
pub mod invariants;
pub mod maintain;
pub mod naive;
pub mod partition;
pub mod subgraph;

pub use alpha_beta::AlphaBetaMethod;
pub use bcc::{biconnected_components, BccResult};
pub use block_cut_tree::BlockCutTree;
pub use maintain::{
    decomp_equivalent, EdgeEdit, MaintainOutcome, MaintainStats, MaintainedDecomposition,
};
pub use partition::{decompose, DecompTimings, Decomposition, PartitionOptions};
pub use subgraph::{carry_by_fingerprint, SubGraph};
