//! The synchronization facade: the **only** sanctioned import path for
//! atomics in this crate.
//!
//! Normal builds re-export the std atomics; `--cfg loom` builds re-export the
//! in-tree model-checked atomics from [`model`], so the parallel kernels (and
//! anything else built on this facade) can be run under exhaustive
//! interleaving exploration without touching kernel code — the loom idiom,
//! with [`model`] standing in for the loom crate (swapping the real `loom`
//! in under the same cfg is a drop-in change, tracked in ROADMAP.md).
//!
//! `cargo xtask lint` enforces the facade: raw `std::sync::atomic` imports
//! outside this module are build errors in CI. It is the workspace's only
//! facade; the crates below this one hold no atomics.
//!
//! # The memory-ordering protocol, in one place
//!
//! Every atomic operation in the kernels is `Ordering::Relaxed`, and the
//! facade deliberately re-exports nothing stronger (`SeqCst`/`AcqRel` creep
//! is linted against). The soundness argument, previously scattered across
//! doc comments, lives here:
//!
//! 1. **Within a level**, the only concurrent accesses are (a) the
//!    `dist` claim CAS + σ `fetch_add` publish protocol
//!    ([`protocol::discover_and_push`]) and (b) the δ push
//!    ([`protocol::push_dependency`]). Both are single-location RMW
//!    protocols: atomic RMWs on one location always observe the latest value
//!    in the location's modification order, whatever the ordering, so no
//!    claim or contribution can be lost. This is the part comments cannot be
//!    trusted on — `tests/loom_atomic_f64.rs` and `tests/loom_publish.rs`
//!    verify it by exhaustive interleaving exploration, including a negative
//!    control the checker must reject.
//! 2. **Across levels** (e.g. `bc_lock_free`'s scoring loop reading the δ
//!    and σ cells the previous `par_iter` wrote, or the next level's reads
//!    of this level's σ), visibility comes from rayon's fork-join joins:
//!    every `par_iter().for_each(..)` ends with a join that forms a
//!    release/acquire edge between the workers and the continuation, so a
//!    `Relaxed` store before the join happens-before a `Relaxed` load after
//!    it. No `Release`/`Acquire` edge is missing *provided every cross-level
//!    read sits on the far side of a join* — which is a structural property
//!    of the level-synchronous kernels, re-checked at runtime by the
//!    `invariants` feature's level/single-writer validation
//!    (`crate::util::check_levels`).
//! 3. **Across sources**, the per-source loop is sequential on the calling
//!    thread; the same join edges apply.

pub mod model;
pub mod protocol;

mod atomic_f64;

pub use atomic_f64::{atomic_f64_vec, into_f64_vec, AtomicF64, ModelAtomicF64};

#[cfg(not(loom))]
pub use core::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize};

#[cfg(loom)]
pub use model::{AtomicU32, AtomicU64};

pub use core::sync::atomic::Ordering;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_f64_ops() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(2.0);
        assert_eq!(a.fetch_add(0.25), 2.0, "fetch_add returns the previous value");
        assert_eq!(a.load(), 2.25);
        assert_eq!(a.into_inner(), 2.25);
    }

    #[test]
    fn model_atomic_f64_matches_contract_outside_check() {
        let a = ModelAtomicF64::new(0.5);
        assert_eq!(a.fetch_add(1.0), 0.5);
        assert_eq!(a.load(), 1.5);
        assert_eq!(a.into_inner(), 1.5);
    }

    #[test]
    fn vec_helpers_round_trip() {
        let v = atomic_f64_vec(3);
        v[1].store(4.0);
        let _ = v[2].fetch_add(-1.0);
        assert_eq!(into_f64_vec(v), vec![0.0, 4.0, -1.0]);
    }

    #[test]
    fn protocol_on_std_atomics_sequentially() {
        use protocol::{discover_and_push, push_dependency};
        const UNREACHED: u32 = u32::MAX;
        let dist = [AtomicU32::new(0), AtomicU32::new(UNREACHED)];
        let sigma = atomic_f64_vec(2);
        sigma[0].store(1.0);
        // First edge into v=1 wins the claim and pushes σ.
        assert!(discover_and_push(&dist, &sigma, 1, 1, UNREACHED, 1.0));
        // Second edge from another level-0 vertex loses the claim but still
        // contributes.
        assert!(!discover_and_push(&dist, &sigma, 1, 1, UNREACHED, 2.0));
        assert_eq!(sigma[1].load(), 3.0);
        // Backward: push δ to a predecessor at the upper level.
        let delta = atomic_f64_vec(2);
        push_dependency(&dist, &sigma, &delta, 0, 0, 0.5);
        assert_eq!(delta[0].load(), 0.5);
        // Wrong level: no push.
        push_dependency(&dist, &sigma, &delta, 0, 7, 0.5);
        assert_eq!(delta[0].load(), 0.5);
    }
}
