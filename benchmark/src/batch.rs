//! `batch-table1`: exact APGRE on six Table-1 stand-ins — the paper's own
//! experiment (Table 2), with the Figure-8 phase split per graph.
//!
//! The six graphs split the work differently: the top sub-graph kernel is
//! nearly all of enron and youtube, α/β counting is a large share of euall
//! and wikitalk, and the rest-of-sub-graphs kernels dominate road-ny. A
//! `decomp` or `bc` change therefore does most of its work on some graphs
//! and little on others, and the geometric mean weighs each graph equally.

use crate::report::Outcome;
use crate::stats::{geomean, pooled_relative_percentile, Summary};
use crate::trace::Tracer;
use crate::{streams, Ctx};
use apgre_approx::SplitMix64;
use apgre_bc::apgre::{bc_from_decomposition, ApgreOptions};
use apgre_bc::brandes::bc_serial;
use apgre_decomp::decompose;
use apgre_graph::Graph;
use apgre_workloads::Scale;
use std::time::{Duration, Instant};

/// The Table-1 stand-ins, in the paper's row order.
const GRAPHS: [&str; 6] = [
    "email-enron-like",
    "email-euall-like",
    "wikitalk-like",
    "dblp-like",
    "youtube-like",
    "usa-road-ny-like",
];

/// Set-ups per run; `setup_s` is their median. Building the six graphs
/// takes about 9 ms, so many repetitions cost little and steady the median.
const SETUP_REPS: usize = 25;

/// Within one round a graph repeats until it has run this long, so the
/// fast graphs' medians rest on many samples while the slow ones run once.
const ROUND_SHARE: Duration = Duration::from_millis(100);

/// One timed APGRE run, milliseconds and counts.
struct Run {
    wall: f64,
    partition: f64,
    alpha_beta: f64,
    top: f64,
    rest: f64,
    edges: f64,
    roots: f64,
}

fn build_graphs(scale: Scale) -> Vec<Graph> {
    GRAPHS
        .iter()
        .map(|name| apgre_workloads::get(name).expect("registry graph").graph(scale))
        .collect()
}

/// Largest absolute difference between two score vectors.
pub fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// The relative tolerance every exact-score check uses: `1e-9·(1+max)`.
pub fn tolerance(reference: &[f64]) -> f64 {
    1e-9 * (1.0 + reference.iter().cloned().fold(0.0, f64::max))
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome, tr: &mut Tracer) {
    let scale = if ctx.smoke { Scale::Tiny } else { Scale::Small };
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut graphs = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        graphs = build_graphs(scale);
        let t1 = Instant::now();
        tr.span("graph.build", None, rep as u64, t0, t1);
        setups.push(t1.duration_since(t0).as_secs_f64());
    }
    let setup = Summary::of(&setups).expect("set-ups ran");
    out.set("setup_s", setup.median);
    out.set("graph.build_ms", setup.median * 1e3);

    // Untimed: every graph's APGRE scores against Brandes.
    let opts = ApgreOptions::default();
    let mut references = Vec::with_capacity(graphs.len());
    for (name, g) in GRAPHS.iter().zip(&graphs) {
        let reference = bc_serial(g);
        let (scores, _) = bc_from_decomposition(g, &decompose(g, &opts.partition), &opts);
        let diff = max_diff(&scores, &reference);
        out.check(
            format!("{name}: APGRE within 1e-9(1+max) of bc_serial (max |diff| {diff:.2e})"),
            diff <= tolerance(&reference),
        );
        out.attempted += 1;
        references.push((tolerance(&reference), reference));
    }

    let mut rng = SplitMix64::new(ctx.seed_of(streams::ROUND_ORDER));
    let mut runs: Vec<Vec<Run>> = graphs.iter().map(|_| Vec::new()).collect();
    let deadline = Instant::now() + ctx.window;
    let mut order: Vec<usize> = (0..graphs.len()).collect();
    let mut run_id = 0u64;
    while Instant::now() < deadline || runs.iter().any(Vec::is_empty) {
        // A seeded Fisher–Yates shuffle of the round order.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &gi in &order {
            let g = &graphs[gi];
            let round_start = Instant::now();
            loop {
                run_id += 1;
                let t0 = Instant::now();
                let d = decompose(g, &opts.partition);
                let t1 = Instant::now();
                let (scores, rep) = bc_from_decomposition(g, &d, &opts);
                let t2 = Instant::now();
                let root = tr.span("bench.run", None, run_id, t0, t2);
                tr.count(root, "graph", gi as f64);
                tr.span("decomp.decompose", root, run_id, t0, t1);
                let kernels = tr.span("bc.bc_from_decomposition", root, run_id, t1, t2);
                tr.count(kernels, "edges_traversed", rep.edges_traversed as f64);
                tr.count(kernels, "roots", rep.total_roots as f64);

                out.attempted += 1;
                let (tol, reference) = &references[gi];
                if max_diff(&scores, reference) > *tol {
                    out.failed += 1;
                }
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                runs[gi].push(Run {
                    wall: ms(t2 - t0),
                    partition: ms(rep.partition_time),
                    alpha_beta: ms(rep.alpha_beta_time),
                    top: ms(rep.top_subgraph_bc_time),
                    rest: ms(rep.bc_time.saturating_sub(rep.top_subgraph_bc_time)),
                    edges: rep.edges_traversed as f64,
                    roots: rep.total_roots as f64,
                });
                if round_start.elapsed() >= ROUND_SHARE || Instant::now() >= deadline {
                    break;
                }
            }
        }
    }
    out.check(
        format!("every timed run matched bc_serial ({} of {} failed)", out.failed, out.attempted),
        out.failed == 0,
    );

    let median_of = |rs: &[Run], f: fn(&Run) -> f64| {
        Summary::of(&rs.iter().map(f).collect::<Vec<_>>()).expect("each graph ran").median
    };
    let walls: Vec<Summary> = runs
        .iter()
        .map(|rs| {
            Summary::of(&rs.iter().map(|r| r.wall).collect::<Vec<_>>()).expect("each graph ran")
        })
        .collect();
    println!(
        "{:<18} {:>6} {:>7} {:>9} {:>9} {:>9} {:>9}  wall",
        "graph", "n", "m", "part ms", "ab ms", "top ms", "rest ms"
    );
    for ((name, g), (rs, wall)) in GRAPHS.iter().zip(&graphs).zip(runs.iter().zip(&walls)) {
        println!(
            "{name:<18} {:>6} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.3}  {}",
            g.num_vertices(),
            g.num_edges(),
            median_of(rs, |r| r.partition),
            median_of(rs, |r| r.alpha_beta),
            median_of(rs, |r| r.top),
            median_of(rs, |r| r.rest),
            wall.describe("ms"),
        );
    }
    let medians: Vec<f64> = walls.iter().map(|s| s.median).collect();
    out.set("p50_ms", geomean(&medians));
    // The slow graphs run only a handful of times per window, too few for
    // a 95th percentile each; their run-to-run spread is pooled with the
    // fast graphs' instead.
    let wall_ms: Vec<Vec<f64>> =
        runs.iter().map(|rs| rs.iter().map(|r| r.wall).collect()).collect();
    out.set("e2e.p95_ms", geomean(&medians) * pooled_relative_percentile(&wall_ms, 95.0));
    out.set("e2e.throughput_per_s", graphs.len() as f64 / (medians.iter().sum::<f64>() / 1e3));

    let sum_of = |f: fn(&Run) -> f64| runs.iter().map(|rs| median_of(rs, f)).sum::<f64>();
    let kernel_ms = sum_of(|r| r.top) + sum_of(|r| r.rest);
    out.set("decomp.partition_ms", sum_of(|r| r.partition));
    out.set("decomp.alpha_beta_ms", sum_of(|r| r.alpha_beta));
    out.set("bc.top_kernel_ms", sum_of(|r| r.top));
    out.set("bc.rest_kernel_ms", sum_of(|r| r.rest));
    out.set("bc.edges_traversed", sum_of(|r| r.edges));
    out.set("bc.roots", sum_of(|r| r.roots));
    out.set("bc.mteps", sum_of(|r| r.edges) / kernel_ms / 1e3);
    let coverage = tr.coverage("bench.run");
    out.set("trace.coverage", coverage);
    if tr.len() > 0 {
        out.check(
            format!("decompose + bc spans cover {coverage:.4} of run time"),
            coverage >= 0.95,
        );
    }
}
