//! Criterion micro-benchmarks for the extension modules: weighted BC and
//! source-sampled approximation.

use apgre_bc::approx::bc_approx;
use apgre_bc::weighted::{bc_weighted_apgre, bc_weighted_serial};
use apgre_graph::WeightedGraph;
use apgre_workloads::{get, Scale};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_extensions(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let g = get("email-enron-like").unwrap().graph(Scale::Tiny);
    let wg = WeightedGraph::random_weights(g.clone(), 8, 1);
    group.bench_function("weighted-serial", |b| b.iter(|| bc_weighted_serial(&wg)));
    group.bench_function("weighted-apgre", |b| b.iter(|| bc_weighted_apgre(&wg)));
    group.bench_function("approx-10pct", |b| b.iter(|| bc_approx(&g, g.num_vertices() / 10, 3)));
    group.finish();
}

criterion_group!(benches, bench_extensions);
criterion_main!(benches);
