//! `dynamic-stream`: the engine's write path as one writer publish per
//! batch — `apply`, then the adaptive estimator refresh, then the
//! copy-on-write snapshot — in a closed loop over the 60/30/10
//! chord/bridge/mixed toggle stream.
//!
//! Against `serve-write` this is the paired bypass: the same `approx` layer
//! under the adaptive budget instead of the service's uniform cap, with no
//! HTTP or queueing around it.

use crate::batch::{max_diff, tolerance};
use crate::fixture::{self, EditSites, EditStream};
use crate::load::ms;
use crate::report::Outcome;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{streams, Ctx};
use apgre_approx::bc_sampled_with_stderr_from_decomposition;
use apgre_bc::apgre::{ApgreOptions, KernelPolicy};
use apgre_dynamic::{ApproxSnapshot, DynamicBc, SampleOptions};
use apgre_graph::Graph;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The uniform cap whose spend sets the adaptive budget (as bench-pr10:
/// `B = Σ min(8, |R_i|)`).
const EQUAL_BUDGET_CAP: usize = 8;

/// The estimator's sampling seed: a fixed service setting, not an input.
const APPROX_SEED: u64 = 0xA99;

/// The estimator's accuracy on the workload graph may not get worse than
/// `(relative MAE ceiling, 2σ coverage floor)`: 10% either way from the
/// values when the benchmark was defined (0.448 and 0.390 on the full
/// graph, 0.587 and 0.661 on the smoke graph). A change that buys refresh
/// speed with error then fails the run instead of passing as a gain.
fn accuracy_guard(smoke: bool) -> (f64, f64) {
    if smoke {
        (0.646, 0.595)
    } else {
        (0.493, 0.351)
    }
}

/// One publish, milliseconds and counts.
struct Publish {
    total: f64,
    apply: f64,
    maintain: f64,
    rebuild: f64,
    kernel: f64,
    refresh: f64,
    store: f64,
    region_blocks: f64,
    kernel_edges: f64,
    dirty: f64,
    reused_ratio: f64,
    resampled: f64,
    pilot_roots: f64,
    sampled_roots: f64,
    approx_edges: f64,
    resample_fraction: f64,
    score_copied: f64,
    graph_copied: f64,
    copy_ratio: f64,
}

/// Sorted undirected edge list, for comparing graphs.
fn edges_of(g: &Graph) -> Vec<(u32, u32)> {
    let mut e: Vec<(u32, u32)> = g.undirected_edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
    e.sort_unstable();
    e
}

/// Relative MAE and 2σ coverage of the estimates against the exact scores.
fn accuracy(exact: &[f64], ap: &ApproxSnapshot) -> (f64, f64) {
    let est = ap.estimates.to_vec();
    let mae = est.iter().zip(exact).map(|(e, x)| (e - x).abs()).sum::<f64>() / exact.len() as f64;
    let mean = exact.iter().sum::<f64>() / exact.len() as f64;
    let (mut sampled, mut covered) = (0usize, 0usize);
    for (v, (e, x)) in est.iter().zip(exact).enumerate() {
        let se = ap.stderr(v);
        if se > 0.0 {
            sampled += 1;
            covered += usize::from((e - x).abs() <= 2.0 * se);
        }
    }
    (mae / mean, covered as f64 / sampled.max(1) as f64)
}

/// Publishes one batch the way the service writer does; returns the
/// measurements and the estimator snapshot.
fn publish(
    engine: &mut DynamicBc,
    batch: &apgre_dynamic::MutationBatch,
    tr: &mut Tracer,
    id: u64,
) -> (Publish, ApproxSnapshot) {
    let bc_before = engine.report().bc_time;
    let edges_before = engine.report().edges_traversed;
    let t0 = Instant::now();
    let rep = engine.apply(batch);
    let t1 = Instant::now();
    let ap = engine.approx_snapshot().expect("estimator enabled");
    let t2 = Instant::now();
    let snap = engine.snapshot();
    let t3 = Instant::now();

    let kernel = engine.report().bc_time.saturating_sub(bc_before);
    let kernel_edges = (engine.report().edges_traversed - edges_before) as f64;
    let r = &ap.refresh;
    let p = &snap.publish;
    let copied = (p.score_chunks_copied + p.graph_chunks_copied) as f64;
    let live = copied + (p.score_chunks_reused + p.graph_chunks_reused) as f64;
    let m = Publish {
        total: ms(t3 - t0),
        apply: ms(t1 - t0),
        maintain: ms(rep.maintain_time),
        rebuild: ms(rep.rebuild_time),
        kernel: ms(kernel),
        refresh: ms(t2 - t1),
        store: ms(t3 - t2),
        region_blocks: rep.region_blocks as f64,
        kernel_edges,
        dirty: rep.dirty_subgraphs as f64,
        reused_ratio: rep.reused_contributions as f64
            / (rep.reused_contributions + rep.dirty_subgraphs).max(1) as f64,
        resampled: r.resampled as f64,
        pilot_roots: r.pilot_roots as f64,
        sampled_roots: r.sampled_roots as f64,
        approx_edges: r.edges as f64,
        resample_fraction: r.resample_fraction(),
        score_copied: p.score_chunks_copied as f64,
        graph_copied: p.graph_chunks_copied as f64,
        copy_ratio: copied / live.max(1.0),
    };
    let root = tr.span("bench.publish", None, id, t0, t3);
    let apply = tr.span("dynamic.apply", root, id, t0, t1);
    tr.count(apply, "dirty_subgraphs", m.dirty);
    tr.count(apply, "maintain_ms", m.maintain);
    tr.count(apply, "kernel_ms", m.kernel);
    tr.count(apply, "region_blocks", m.region_blocks);
    let refresh = tr.span("approx.approx_snapshot", root, id, t1, t2);
    tr.count(refresh, "resampled", m.resampled);
    tr.count(refresh, "pilot_roots", m.pilot_roots);
    tr.count(refresh, "sampled_roots", m.sampled_roots);
    let store = tr.span("store.snapshot", root, id, t2, t3);
    tr.count(store, "score_chunks_copied", m.score_copied);
    tr.count(store, "graph_chunks_copied", m.graph_copied);
    (m, ap)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome, tr: &mut Tracer) {
    let g = fixture::build_graph(ctx.smoke, out, tr);

    // Set-up: seed the engine, the adaptive estimator, and the first
    // snapshot; three times, keeping the last engine.
    let opts = ApgreOptions { kernel: KernelPolicy::Seq, ..Default::default() };
    let mut setups: Vec<[f64; 5]> = Vec::new();
    let mut seeded = None;
    for rep in 0..SETUP_REPS as u64 {
        drop(seeded.take());
        let t0 = Instant::now();
        let mut engine = DynamicBc::new(&g, opts.clone());
        let t1 = Instant::now();
        let budget: usize = engine
            .decomposition()
            .subgraphs
            .iter()
            .map(|sg| sg.roots.len().min(EQUAL_BUDGET_CAP))
            .sum();
        let sopts = SampleOptions::adaptive(budget, APPROX_SEED);
        engine.enable_approx(sopts.clone());
        let ap = engine.approx_snapshot().expect("estimator enabled");
        let t2 = Instant::now();
        drop(engine.snapshot());
        let t3 = Instant::now();
        let r = engine.report();
        let root = tr.span("bench.setup", None, rep, t0, t3);
        let new = tr.span("dynamic.new", root, rep, t0, t1);
        tr.count(new, "decomp_ms", ms(r.decomposition_time()));
        tr.count(new, "kernel_ms", ms(r.bc_time));
        tr.count(new, "top_kernel_ms", ms(r.top_subgraph_bc_time));
        tr.span("approx.seed_refresh", root, rep, t1, t2);
        tr.span("store.snapshot", root, rep, t2, t3);
        setups.push([
            (t3 - t0).as_secs_f64(),
            ms(r.decomposition_time()),
            ms(r.bc_time),
            ms(r.top_subgraph_bc_time),
            ms(t2 - t1),
        ]);
        seeded = Some((engine, sopts, ap));
    }
    let (mut engine, sopts, seed_ap) = seeded.expect("set-up ran");
    let median = |i: usize| {
        Summary::of(&setups.iter().map(|s| s[i]).collect::<Vec<_>>()).expect("set-ups ran").median
    };
    out.set("setup_s", median(0));
    out.set("decomp.seed_ms", median(1));
    out.set("bc.seed_kernel_ms", median(2));
    out.set("bc.seed_top_kernel_ms", median(3));
    out.set("approx.seed_refresh_ms", median(4));
    let exact = engine.scores().to_vec();
    let (rel_mae, cover2) = accuracy(&exact, &seed_ap);
    out.set("approx.rel_mae", rel_mae);
    out.set("approx.stderr_cover2", cover2);
    let (mae_ceiling, cover_floor) = accuracy_guard(ctx.smoke);
    out.check(
        format!("estimator relative MAE {rel_mae:.4} <= {mae_ceiling} and 2se coverage {cover2:.3} >= {cover_floor}"),
        rel_mae <= mae_ceiling && cover2 >= cover_floor,
    );
    drop(seed_ap);
    println!(
        "engine seeded in {:.3}s (median of {SETUP_REPS}): {} sub-graphs, adaptive budget {:?}; \
         estimator rel MAE {rel_mae:.4}, 2se coverage {cover2:.3}",
        median(0),
        engine.decomposition().num_subgraphs(),
        sopts.budget
    );

    let mut stream = EditStream::new(
        &EditSites::pick(&g, engine.decomposition(), 16),
        ctx.seed_of(streams::EDITS),
    );
    // Whole cycles only, so every run measures the same mix of units.
    let mut pubs: Vec<Publish> = Vec::new();
    let mut last_ap = None;
    let deadline = Instant::now() + ctx.window;
    while !(stream.cycle_done() && Instant::now() >= deadline) {
        let (_, edits) = stream.plan();
        stream.commit();
        out.attempted += 1;
        let (m, ap) = publish(&mut engine, &fixture::to_batch(&edits), tr, pubs.len() as u64 + 1);
        pubs.push(m);
        last_ap = Some(ap);
    }
    let last_ap = last_ap.expect("a cycle ran");
    out.check(
        "the stream ends on the initial graph",
        edges_of(&engine.current_graph()) == edges_of(&g),
    );
    let diff = max_diff(engine.scores(), &exact);
    out.check(
        format!("exact scores return to the seed's within 1e-9(1+max) (max |diff| {diff:.2e})"),
        diff <= tolerance(&exact),
    );
    let (oracle_est, oracle_se) =
        bc_sampled_with_stderr_from_decomposition(engine.decomposition(), &opts, &sopts);
    let served = last_ap.estimates.to_vec();
    let est_bad =
        served.iter().zip(&oracle_est).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
    let se_bad = (0..oracle_se.len())
        .filter(|&v| last_ap.stderr(v).to_bits() != oracle_se[v].to_bits())
        .count();
    out.check(
        format!("estimates and stderr bitwise equal to the scratch estimator ({est_bad} / {se_bad} mismatches)"),
        est_bad == 0 && se_bad == 0 && served.len() == oracle_est.len(),
    );

    // Per-layer values are means per publish, so the times add up to the
    // mean publish and their shares follow from them.
    let mean = |f: fn(&Publish) -> f64| pubs.iter().map(f).sum::<f64>() / pubs.len().max(1) as f64;
    let total =
        Summary::of(&pubs.iter().map(|p| p.total).collect::<Vec<_>>()).expect("a cycle ran");
    println!("{} publishes: {}", pubs.len(), total.describe("ms"));
    out.set("p50_ms", total.median);
    out.set("e2e.p95_ms", total.p95);
    out.set("e2e.throughput_per_s", 1e3 / mean(|p| p.total));
    out.set("dynamic.apply_ms", mean(|p| p.apply));
    out.set("decomp.maintain_ms", mean(|p| p.maintain));
    out.set("decomp.rebuild_ms", mean(|p| p.rebuild));
    out.set("decomp.region_blocks", mean(|p| p.region_blocks));
    out.set("bc.kernel_ms", mean(|p| p.kernel));
    out.set("bc.kernel_edges", mean(|p| p.kernel_edges));
    out.set("dynamic.other_ms", mean(|p| p.apply - p.maintain - p.rebuild - p.kernel));
    out.set("dynamic.dirty_subgraphs", mean(|p| p.dirty));
    out.set("dynamic.reused_ratio", mean(|p| p.reused_ratio));
    out.set("approx.refresh_ms", mean(|p| p.refresh));
    out.set("approx.resampled", mean(|p| p.resampled));
    out.set("approx.pilot_roots", mean(|p| p.pilot_roots));
    out.set("approx.sampled_roots", mean(|p| p.sampled_roots));
    out.set("approx.edges", mean(|p| p.approx_edges));
    out.set("approx.resample_fraction", mean(|p| p.resample_fraction));
    out.set("store.publish_ms", mean(|p| p.store));
    out.set("store.score_chunks_copied", mean(|p| p.score_copied));
    out.set("store.graph_chunks_copied", mean(|p| p.graph_copied));
    out.set("store.copy_ratio", mean(|p| p.copy_ratio));
    let all = mean(|p| p.total);
    out.set("dynamic.apply_share", mean(|p| p.apply) / all);
    out.set("approx.refresh_share", mean(|p| p.refresh) / all);
    out.set("store.publish_share", mean(|p| p.store) / all);
    let coverage = tr.coverage("bench.publish");
    out.set("trace.coverage", coverage);
    if tr.len() > 0 {
        out.check(
            format!("apply + approx + snapshot spans cover {coverage:.4} of publish time"),
            coverage >= 0.95,
        );
    }
    println!(
        "per publish (mean): {all:.3}ms = apply {:.3}ms (maintain {:.3}, kernels {:.3}) + approx refresh {:.3}ms \
         + store {:.4}ms",
        mean(|p| p.apply),
        mean(|p| p.maintain),
        mean(|p| p.kernel),
        mean(|p| p.refresh),
        mean(|p| p.store)
    );
}
