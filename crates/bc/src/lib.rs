//! Betweenness-centrality algorithms: the serial baseline, the parallel
//! baselines the paper compares against, and APGRE itself.
//!
//! All algorithms compute the **exact, unnormalized** betweenness centrality
//! of every vertex for unweighted graphs:
//!
//! ```text
//! BC(v) = Σ_{s≠v≠t} σ_st(v) / σ_st
//! ```
//!
//! with ordered `(s, t)` pairs — so undirected graphs accumulate each
//! unordered pair twice, matching the convention of the reference C/C++
//! implementations the paper benchmarks (divide by 2 for the undirected
//! textbook value, see [`normalize_undirected`]).
//!
//! Algorithm inventory (paper §5.1):
//!
//! | paper name       | function                              | strategy |
//! |------------------|---------------------------------------|----------|
//! | `serial`         | [`brandes::bc_serial`]                | Brandes, one thread |
//! | `preds`          | [`parallel::bc_preds`]                | level-synchronous, predecessor lists + locks |
//! | `succs`          | [`parallel::bc_succs`]                | level-synchronous, successor scan, lock-free |
//! | `lockSyncFree`   | [`parallel::bc_lock_free`]            | level-synchronous, atomic CAS accumulation |
//! | `async`          | [`parallel::bc_coarse`]               | coarse-grained source-parallel (stand-in, see DESIGN.md §5) |
//! | `hybrid`         | [`parallel::bc_hybrid`]               | direction-optimizing BFS forward phase |
//! | **APGRE**        | [`apgre::bc_apgre`]                   | articulation-point redundancy elimination, two-level parallelism |
//!
//! All atomics used by the kernels come from the [`sync`] facade, which
//! swaps in model-checked atomics under `--cfg loom`; `cargo xtask lint`
//! enforces this. Building with `--features invariants` turns on runtime
//! validation of the level structure and the decomposition's conservation
//! laws.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apgre;
pub mod approx;
pub mod brandes;
pub mod edge;
pub mod parallel;
pub mod redundancy;
pub mod sync;
pub mod util;
pub mod weighted;

pub use apgre::{
    bc_apgre, bc_apgre_with, bc_from_decomposition, full_jobs, run_subgraph_kernels, ApgreOptions,
    ApgreReport, KernelChoice, KernelPolicy, RootStats, SubgraphKernelRun,
};
pub use approx::{bc_approx, bc_approx_adaptive};
pub use brandes::{bc_serial, bc_serial_preds};
pub use edge::{edge_bc, girvan_newman};
pub use weighted::{bc_weighted_apgre, bc_weighted_serial};

/// Halves every score: converts the ordered-pair accumulation into the
/// textbook undirected BC value.
pub fn normalize_undirected(bc: &mut [f64]) {
    for x in bc {
        *x *= 0.5;
    }
}

/// Relative comparison with the tolerance the property tests use: scores are
/// sums of `O(V²)` positive terms, so we compare with a mixed
/// absolute/relative epsilon.
pub fn scores_close(a: &[f64], b: &[f64], eps: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= eps + eps * x.abs().max(y.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_halves() {
        let mut v = vec![2.0, 4.0, 0.0];
        normalize_undirected(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 0.0]);
    }

    #[test]
    fn diff_helpers() {
        assert!(scores_close(&[1.0, 1e9], &[1.0 + 1e-10, 1e9 * (1.0 + 1e-10)], 1e-9));
        assert!(!scores_close(&[1.0], &[1.1], 1e-9));
    }
}
