//! Determinism: generators are pure functions of their seed, and APGRE's
//! two-level parallel execution produces bitwise-identical scores run to run
//! (single-writer accumulation everywhere; merges in fixed order).

use apgre::prelude::*;
use apgre::workloads::{registry, Scale};

#[test]
fn apgre_is_bitwise_deterministic_across_runs() {
    for spec in registry().into_iter().take(4) {
        let g = spec.graph(Scale::Tiny);
        let a = bc_apgre(&g);
        let b = bc_apgre(&g);
        assert_eq!(a, b, "{}", spec.name);
    }
}

#[test]
fn apgre_root_parallel_inner_is_bitwise_deterministic() {
    // The root-parallel kernel merges fixed chunks in chunk order, so it is
    // bitwise deterministic even though f64 addition is non-associative.
    let g = registry()[0].graph(Scale::Tiny);
    let opts = ApgreOptions { kernel: KernelPolicy::RootParallel, grain: 2, ..Default::default() };
    let (a, _) = bc_apgre_with(&g, &opts);
    let (b, _) = bc_apgre_with(&g, &opts);
    assert_eq!(a, b);
}

#[test]
fn succs_is_bitwise_deterministic() {
    let g = registry()[0].graph(Scale::Tiny);
    assert_eq!(bc_succs(&g), bc_succs(&g));
}

#[test]
fn thread_count_does_not_change_apgre_scores() {
    let g = registry()[2].graph(Scale::Tiny);
    let run = |threads: usize, kernel: KernelPolicy| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| bc_apgre_with(&g, &ApgreOptions { kernel, ..Default::default() }).0)
    };
    // The forced sequential kernel is schedule-independent: bitwise equal
    // across pool sizes.
    let kernel = KernelPolicy::Seq;
    assert_eq!(run(1, kernel), run(4, kernel), "{kernel:?} must be schedule-independent");
    // Root-parallel chunk boundaries and the Auto kernel decision are
    // functions of the worker count by design, so the f64 fold order may
    // differ between pool sizes; values stay numerically equivalent (and
    // each pool size on its own is bitwise deterministic, tested above).
    for kernel in [KernelPolicy::RootParallel, KernelPolicy::Auto] {
        let one = run(1, kernel);
        let four = run(4, kernel);
        assert!(apgre::bc::scores_close(&one, &four, 1e-9), "{kernel:?} diverged across pools");
    }
}

#[test]
fn workload_generation_is_seed_stable() {
    // A snapshot guard: if a generator's RNG usage changes, every recorded
    // experiment becomes incomparable — fail loudly.
    let g = registry()[0].graph(Scale::Tiny);
    assert!((400..=600).contains(&g.num_vertices()), "{}", g.num_vertices());
    let checksum: u64 = g
        .arcs()
        .map(|(u, v)| (u as u64).wrapping_mul(31).wrapping_add(v as u64))
        .fold(0u64, |acc, x| acc.wrapping_mul(1_000_003).wrapping_add(x));
    let g2 = registry()[0].graph(Scale::Tiny);
    let checksum2: u64 = g2
        .arcs()
        .map(|(u, v)| (u as u64).wrapping_mul(31).wrapping_add(v as u64))
        .fold(0u64, |acc, x| acc.wrapping_mul(1_000_003).wrapping_add(x));
    assert_eq!(checksum, checksum2);
}
