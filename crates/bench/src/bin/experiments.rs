//! `experiments` — regenerates every table and figure of the paper's
//! evaluation section (see DESIGN.md §4 for the experiment index).
//!
//! ```text
//! experiments <id> [--scale tiny|small|medium] [--threads N] [--json FILE]
//!
//! ids:
//!   table1   graph inventory (paper Table 1)
//!   table2   execution time of all 7 algorithms (paper Table 2)
//!   table3   search rate in MTEPS (paper Table 3)
//!   table4   sub-graph decomposition sizes (paper Table 4)
//!   fig2     Human-Disease-Network structure (paper Figure 2)
//!   fig3     the worked example decomposition (paper Figure 3)
//!   fig6     speedup over serial (paper Figure 6)
//!   fig7     redundancy breakdown (paper Figure 7)
//!   fig8     APGRE execution-time breakdown (paper Figure 8)
//!   fig9     thread scaling of all algorithms on dblp-like (paper Figure 9)
//!   fig10    thread scaling of APGRE to 32 threads (paper Figure 10)
//!   ablation-threshold   merge-threshold sweep (design ablation A1)
//!   ablation-alphabeta   α/β tree fast path vs blocked BFS (ablation A2)
//!   ablation-gamma       isolate total (γ) vs partial redundancy elimination (A3)
//!   all      everything above
//! ```
//!
//! Tables 2/3 and Figure 6 share one measurement pass when run together via
//! `all`.

use apgre_bc::apgre::{bc_apgre_with, ApgreOptions};
use apgre_bc::redundancy;
use apgre_bench::{
    fmt_secs, measure_graph, time, with_threads, GraphMeasurement, Table, ALGORITHMS,
};
use apgre_decomp::{decompose, AlphaBetaMethod, PartitionOptions};
use apgre_graph::stats::graph_stats;
use apgre_workloads::{paper_examples, registry, Scale};
use serde_json::json;
use std::process::exit;

struct Opts {
    scale: Scale,
    threads: Option<usize>,
    json: Option<String>,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let mut opts = Opts { scale: Scale::Small, threads: None, json: None };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                opts.scale = match args.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("medium") => Scale::Medium,
                    other => {
                        eprintln!("bad scale {other:?}");
                        exit(2)
                    }
                }
            }
            "--threads" => {
                opts.threads = args.next().and_then(|v| v.parse().ok());
                if opts.threads.is_none() {
                    eprintln!("--threads needs a number");
                    exit(2);
                }
            }
            "--json" => opts.json = args.next(),
            other => {
                eprintln!("unknown option {other}");
                usage()
            }
        }
    }
    if let Some(t) = opts.threads {
        rayon::ThreadPoolBuilder::new().num_threads(t).build_global().expect("pool");
    }

    let mut json_out = serde_json::Map::new();
    match cmd.as_str() {
        "table1" => table1(&opts, &mut json_out),
        "table2" => {
            let m = measure_all(&opts);
            table2(&m, &mut json_out);
        }
        "table3" => {
            let m = measure_all(&opts);
            table3(&m, &mut json_out);
        }
        "table4" => table4(&opts, &mut json_out),
        "fig2" => fig2(&mut json_out),
        "fig3" => fig3(&mut json_out),
        "fig6" => {
            let m = measure_all(&opts);
            fig6(&m, &mut json_out);
        }
        "fig7" => fig7(&opts, &mut json_out),
        "fig8" => fig8(&opts, &mut json_out),
        "fig9" => fig9(&opts, &mut json_out),
        "fig10" => fig10(&opts, &mut json_out),
        "ablation-threshold" => ablation_threshold(&opts, &mut json_out),
        "ablation-alphabeta" => ablation_alphabeta(&opts, &mut json_out),
        "ablation-gamma" => ablation_gamma(&opts, &mut json_out),
        "all" => {
            table1(&opts, &mut json_out);
            let m = measure_all(&opts);
            table2(&m, &mut json_out);
            table3(&m, &mut json_out);
            fig6(&m, &mut json_out);
            table4(&opts, &mut json_out);
            fig2(&mut json_out);
            fig3(&mut json_out);
            fig7(&opts, &mut json_out);
            fig8(&opts, &mut json_out);
            fig9(&opts, &mut json_out);
            fig10(&opts, &mut json_out);
            ablation_threshold(&opts, &mut json_out);
            ablation_alphabeta(&opts, &mut json_out);
            ablation_gamma(&opts, &mut json_out);
        }
        _ => usage(),
    }
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, serde_json::to_string_pretty(&json_out).unwrap()) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
        println!("\n[json results written to {path}]");
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments <table1|table2|table3|table4|fig2|fig3|fig6|fig7|fig8|fig9|fig10|\
         ablation-threshold|ablation-alphabeta|ablation-gamma|all> \
         [--scale tiny|small|medium] [--threads N] [--json FILE]"
    );
    exit(2)
}

fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Medium => "medium",
    }
}

// ---------------------------------------------------------------- Table 1

fn table1(opts: &Opts, json: &mut serde_json::Map<String, serde_json::Value>) {
    println!(
        "\n=== Table 1: graph inventory (stand-ins at scale {}) ===\n",
        scale_name(opts.scale)
    );
    let mut t = Table::new(&[
        "Graph",
        "Directed",
        "paper #V",
        "paper #E",
        "ours #V",
        "ours #E",
        "whiskers%",
    ]);
    let mut rows = Vec::new();
    for spec in registry() {
        let g = spec.graph(opts.scale);
        let s = graph_stats(&g);
        t.row(vec![
            spec.name.into(),
            if spec.directed { "Y" } else { "N" }.into(),
            spec.paper_size.0.to_string(),
            spec.paper_size.1.to_string(),
            s.vertices.to_string(),
            s.edges.to_string(),
            format!("{:.0}%", 100.0 * s.whisker_vertices as f64 / s.vertices as f64),
        ]);
        rows.push(json!({
            "graph": spec.name, "directed": spec.directed,
            "vertices": s.vertices, "edges": s.edges,
            "whisker_fraction": s.whisker_vertices as f64 / s.vertices as f64,
        }));
    }
    print!("{}", t.render());
    json.insert("table1".into(), json!(rows));
}

// ------------------------------------------------------------ Tables 2/3/6

fn measure_all(opts: &Opts) -> Vec<GraphMeasurement> {
    eprintln!("[measuring all algorithms on all workloads at scale {}…]", scale_name(opts.scale));
    registry()
        .iter()
        .map(|spec| {
            eprintln!("  {}", spec.name);
            let g = spec.graph(opts.scale);
            measure_graph(spec.name, &g, ALGORITHMS)
        })
        .collect()
}

fn table2(
    measurements: &[GraphMeasurement],
    json: &mut serde_json::Map<String, serde_json::Value>,
) {
    println!("\n=== Table 2: execution time ===\n");
    let mut t = Table::new(&[
        "Graph",
        "serial",
        "APGRE",
        "preds",
        "succs",
        "lockSyncFree",
        "async",
        "hybrid",
    ]);
    for m in measurements {
        let mut row = vec![m.graph.clone()];
        for &a in ALGORITHMS {
            row.push(m.seconds_of(a).map(fmt_secs).unwrap_or_default());
        }
        t.row(row);
    }
    let mut avg_row = vec!["avg speedup vs serial".to_string()];
    for &a in ALGORITHMS {
        let speedups: Vec<f64> =
            measurements.iter().filter_map(|m| m.speedup_vs_serial(a)).collect();
        let avg = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
        avg_row.push(format!("{avg:.2}x"));
    }
    t.row(avg_row);
    print!("{}", t.render());
    json.insert("table2".into(), serde_json::to_value(measurements).unwrap());
    // Correctness verification report.
    let worst = measurements
        .iter()
        .flat_map(|m| m.algos.iter())
        .map(|a| a.max_abs_err)
        .fold(0.0f64, f64::max);
    println!("\n(worst |score - serial| across all runs: {worst:.2e})");
}

fn table3(
    measurements: &[GraphMeasurement],
    json: &mut serde_json::Map<String, serde_json::Value>,
) {
    println!("\n=== Table 3: search rate (MTEPS = n·m/t / 1e6) ===\n");
    let mut t = Table::new(&[
        "Graph",
        "serial",
        "APGRE",
        "preds",
        "succs",
        "lockSyncFree",
        "async",
        "hybrid",
    ]);
    for m in measurements {
        let mut row = vec![m.graph.clone()];
        for &a in ALGORITHMS {
            let v = m.algos.iter().find(|x| x.algo == a).map(|x| x.mteps).unwrap_or(0.0);
            row.push(format!("{v:.1}"));
        }
        t.row(row);
    }
    print!("{}", t.render());
    json.insert("table3".into(), json!("same measurements as table2; mteps field"));
}

fn fig6(measurements: &[GraphMeasurement], json: &mut serde_json::Map<String, serde_json::Value>) {
    println!("\n=== Figure 6: speedup on this machine relative to serial ===\n");
    let mut t = Table::new(&[
        "Graph",
        "APGRE",
        "preds",
        "succs",
        "lockSyncFree",
        "async",
        "hybrid",
        "paper APGRE",
    ]);
    let mut rows = Vec::new();
    for (m, spec) in measurements.iter().zip(registry()) {
        let mut row = vec![m.graph.clone()];
        let mut obj = serde_json::Map::new();
        for &a in &ALGORITHMS[1..] {
            let s = m.speedup_vs_serial(a).unwrap_or(0.0);
            row.push(format!("{s:.2}x"));
            obj.insert(a.into(), json!(s));
        }
        row.push(format!("{:.2}x", spec.paper_speedup_vs_serial));
        obj.insert("paper_apgre".into(), json!(spec.paper_speedup_vs_serial));
        obj.insert("graph".into(), json!(m.graph));
        t.row(row);
        rows.push(serde_json::Value::Object(obj));
    }
    print!("{}", t.render());
    json.insert("fig6".into(), json!(rows));
}

// ---------------------------------------------------------------- Table 4

fn table4(opts: &Opts, json: &mut serde_json::Map<String, serde_json::Value>) {
    println!("\n=== Table 4: sub-graph sizes (scale {}) ===\n", scale_name(opts.scale));
    let mut t = Table::new(&[
        "Graph", "#SG", "top #V", "top #E", "V/G.V", "E/G.E", "2nd #V", "2nd #E", "3rd #V",
        "3rd #E",
    ]);
    let mut rows = Vec::new();
    for spec in registry() {
        let g = spec.graph(opts.scale);
        let d = decompose(&g, &PartitionOptions::default());
        let by_size = d.subgraphs_by_size();
        let get = |i: usize| -> (usize, usize) {
            by_size.get(i).map(|sg| (sg.num_vertices(), sg.num_edges())).unwrap_or((0, 0))
        };
        let (tv, te) = get(0);
        let (sv, se) = get(1);
        let (uv, ue) = get(2);
        t.row(vec![
            spec.name.into(),
            d.num_subgraphs().to_string(),
            tv.to_string(),
            te.to_string(),
            format!("{:.2}%", 100.0 * tv as f64 / g.num_vertices() as f64),
            format!("{:.2}%", 100.0 * te as f64 / g.num_edges().max(1) as f64),
            sv.to_string(),
            se.to_string(),
            uv.to_string(),
            ue.to_string(),
        ]);
        rows.push(json!({
            "graph": spec.name, "num_subgraphs": d.num_subgraphs(),
            "top": {"v": tv, "e": te}, "second": {"v": sv, "e": se}, "third": {"v": uv, "e": ue},
            "top_v_fraction": tv as f64 / g.num_vertices() as f64,
        }));
    }
    print!("{}", t.render());
    json.insert("table4".into(), json!(rows));
}

// ---------------------------------------------------------------- Figure 2

fn fig2(json: &mut serde_json::Map<String, serde_json::Value>) {
    println!("\n=== Figure 2: Human-Disease-Network-like graph ===\n");
    let g = paper_examples::disease_like();
    let s = graph_stats(&g);
    let d = decompose(&g, &PartitionOptions::default());
    let arts = d.num_articulation_points();
    println!("vertices: {} (paper: 1419), edges: {} (paper: 3926)", s.vertices, s.edges);
    println!(
        "articulation points: {arts} ({:.0}%), degree-1 vertices: {} ({:.0}%)",
        100.0 * arts as f64 / s.vertices as f64,
        s.whisker_vertices,
        100.0 * s.whisker_vertices as f64 / s.vertices as f64
    );
    println!("max degree {} — the hub-and-module shape of the figure", s.max_degree);
    json.insert(
        "fig2".into(),
        json!({"vertices": s.vertices, "edges": s.edges, "articulation_points": arts,
               "degree1": s.whisker_vertices, "max_degree": s.max_degree}),
    );
}

// ---------------------------------------------------------------- Figure 3

fn fig3(json: &mut serde_json::Map<String, serde_json::Value>) {
    println!("\n=== Figure 3: the worked example ===\n");
    let g = paper_examples::paper_fig3();
    let d = decompose(&g, &PartitionOptions { merge_threshold: 3, ..Default::default() });
    let arts: Vec<u32> = (0..13).filter(|&v| d.is_articulation[v as usize]).collect();
    println!("articulation points: {arts:?} (paper: [2, 3, 6])");
    println!("sub-graphs: {}", d.num_subgraphs());
    for sg in &d.subgraphs {
        let bounds: Vec<String> = sg
            .boundary
            .iter()
            .map(|&l| {
                format!(
                    "{} (α={}, β={})",
                    sg.global_of(l),
                    sg.alpha[l as usize],
                    sg.beta[l as usize]
                )
            })
            .collect();
        let gammas: Vec<String> = sg
            .gamma
            .iter()
            .enumerate()
            .filter(|&(_, &gm)| gm > 0)
            .map(|(l, &gm)| format!("γ({})={}", sg.global_of(l as u32), gm))
            .collect();
        println!(
            "  SG{}: vertices {:?}, boundary [{}] {}",
            sg.id,
            sg.globals,
            bounds.join(", "),
            gammas.join(" ")
        );
    }
    let (bc, _) = bc_apgre_with(&g, &ApgreOptions::default());
    let serial = apgre_bc::brandes::bc_serial(&g);
    let max_err = bc.iter().zip(&serial).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("APGRE == Brandes on the example: max error {max_err:.1e}");
    json.insert(
        "fig3".into(),
        json!({"articulation_points": arts, "subgraphs": d.num_subgraphs(), "max_err": max_err}),
    );
}

// ---------------------------------------------------------------- Figure 7

fn fig7(opts: &Opts, json: &mut serde_json::Map<String, serde_json::Value>) {
    println!(
        "\n=== Figure 7: breakdown of BC computation (scale {}) ===\n",
        scale_name(opts.scale)
    );
    let mut t =
        Table::new(&["Graph", "partial", "total", "essential", "paper partial", "paper total"]);
    // The paper's bars, eyeballed from Figure 7 (±few %), for shape
    // comparison in EXPERIMENTS.md.
    let paper: &[(&str, f64, f64)] = &[
        ("email-enron-like", 0.20, 0.31),
        ("email-euall-like", 0.15, 0.71),
        ("slashdot-like", 0.35, 0.00),
        ("douban-like", 0.20, 0.67),
        ("wikitalk-like", 0.80, 0.15),
        ("dblp-like", 0.49, 0.20),
        ("youtube-like", 0.30, 0.53),
        ("notredame-like", 0.64, 0.20),
        ("web-berkstan-like", 0.25, 0.05),
        ("web-google-like", 0.25, 0.15),
        ("usa-road-ny-like", 0.05, 0.16),
        ("usa-road-bay-like", 0.13, 0.23),
    ];
    let mut rows = Vec::new();
    for spec in registry() {
        let g = spec.graph(opts.scale);
        let d = decompose(&g, &PartitionOptions::default());
        let r = redundancy::analyze(&g, &d);
        let p = paper
            .iter()
            .find(|&&(n, _, _)| n == spec.name)
            .copied()
            .unwrap_or((spec.name, 0.0, 0.0));
        t.row(vec![
            spec.name.into(),
            format!("{:.1}%", 100.0 * r.partial_fraction()),
            format!("{:.1}%", 100.0 * r.total_fraction()),
            format!("{:.1}%", 100.0 * r.essential_fraction()),
            format!("{:.0}%", 100.0 * p.1),
            format!("{:.0}%", 100.0 * p.2),
        ]);
        rows.push(json!({
            "graph": spec.name,
            "partial": r.partial_fraction(), "total": r.total_fraction(),
            "essential": r.essential_fraction(),
        }));
    }
    print!("{}", t.render());
    json.insert("fig7".into(), json!(rows));
}

// ---------------------------------------------------------------- Figure 8

fn fig8(opts: &Opts, json: &mut serde_json::Map<String, serde_json::Value>) {
    println!(
        "\n=== Figure 8: APGRE execution-time breakdown (scale {}) ===\n",
        scale_name(opts.scale)
    );
    let mut t =
        Table::new(&["Graph", "partition", "α/β", "top-SG BC", "other BC", "extra (part+αβ)"]);
    let mut rows = Vec::new();
    for spec in registry() {
        let g = spec.graph(opts.scale);
        let (_, report) = bc_apgre_with(&g, &ApgreOptions::default());
        let part = report.partition_time.as_secs_f64();
        let ab = report.alpha_beta_time.as_secs_f64();
        let top = report.top_subgraph_bc_time.as_secs_f64();
        let bc_total = report.bc_time.as_secs_f64();
        let total = part + ab + bc_total;
        let other = (bc_total - top).max(0.0);
        t.row(vec![
            spec.name.into(),
            format!("{:.1}%", 100.0 * part / total),
            format!("{:.1}%", 100.0 * ab / total),
            format!("{:.1}%", 100.0 * top / total),
            format!("{:.1}%", 100.0 * other / total),
            format!("{:.1}%", 100.0 * (part + ab) / total),
        ]);
        rows.push(json!({
            "graph": spec.name, "partition_s": part, "alpha_beta_s": ab,
            "top_bc_s": top, "bc_total_s": bc_total,
            "extra_fraction": (part + ab) / total,
        }));
    }
    print!("{}", t.render());
    println!("\n(paper: extra computations are 1.6%–25.7% of total; top sub-graph BC dominates)");
    json.insert("fig8".into(), json!(rows));
}

// ------------------------------------------------------------- Figures 9/10

fn fig9(opts: &Opts, json: &mut serde_json::Map<String, serde_json::Value>) {
    println!(
        "\n=== Figure 9: thread scaling of all algorithms on dblp-like (scale {}) ===\n",
        scale_name(opts.scale)
    );
    let g = apgre_workloads::get("dblp-like").unwrap().graph(opts.scale);
    println!("dblp-like: {} vertices, {} edges", g.num_vertices(), g.num_edges());
    let (serial_ref, serial_t) = time(|| apgre_bc::brandes::bc_serial(&g));
    let _ = serial_ref;
    println!("serial baseline: {}", fmt_secs(serial_t.as_secs_f64()));
    let thread_counts = [1usize, 2, 4, 6, 8, 12];
    let mut t =
        Table::new(&["threads", "APGRE", "preds", "succs", "lockSyncFree", "async", "hybrid"]);
    let mut rows = Vec::new();
    for &tc in &thread_counts {
        let mut row = vec![tc.to_string()];
        let mut obj = serde_json::Map::new();
        obj.insert("threads".into(), json!(tc));
        for &algo in &ALGORITHMS[1..] {
            let (_, dt) = with_threads(tc, || time(|| apgre_bench::run_algorithm(algo, &g)));
            let speedup = serial_t.as_secs_f64() / dt.as_secs_f64();
            row.push(format!("{speedup:.2}x"));
            obj.insert(algo.into(), json!(speedup));
        }
        t.row(row);
        rows.push(serde_json::Value::Object(obj));
    }
    print!("{}", t.render());
    println!("\n(speedups relative to 1-thread serial Brandes; on a 1-core container the curves are flat — see EXPERIMENTS.md)");
    json.insert("fig9".into(), json!(rows));
}

fn fig10(opts: &Opts, json: &mut serde_json::Map<String, serde_json::Value>) {
    println!(
        "\n=== Figure 10: APGRE thread scaling to 32 threads (scale {}) ===\n",
        scale_name(opts.scale)
    );
    let g = apgre_workloads::get("web-google-like").unwrap().graph(opts.scale);
    println!("web-google-like: {} vertices, {} edges", g.num_vertices(), g.num_edges());
    let (_, serial_t) = time(|| apgre_bc::brandes::bc_serial(&g));
    let mut t = Table::new(&["threads", "APGRE time", "speedup vs serial"]);
    let mut rows = Vec::new();
    for tc in [1usize, 2, 4, 8, 16, 32] {
        let (_, dt) = with_threads(tc, || time(|| apgre_bench::run_algorithm("APGRE", &g)));
        let speedup = serial_t.as_secs_f64() / dt.as_secs_f64();
        t.row(vec![tc.to_string(), fmt_secs(dt.as_secs_f64()), format!("{speedup:.2}x")]);
        rows.push(json!({"threads": tc, "seconds": dt.as_secs_f64(), "speedup": speedup}));
    }
    print!("{}", t.render());
    json.insert("fig10".into(), json!(rows));
}

// ---------------------------------------------------------------- Ablations

fn ablation_threshold(opts: &Opts, json: &mut serde_json::Map<String, serde_json::Value>) {
    println!("\n=== Ablation A1: merge-threshold sweep (scale {}) ===\n", scale_name(opts.scale));
    let mut rows = Vec::new();
    for name in ["email-enron-like", "wikitalk-like", "usa-road-ny-like"] {
        let g = apgre_workloads::get(name).unwrap().graph(opts.scale);
        println!("{name}:");
        let mut t = Table::new(&["threshold", "#SG", "roots", "decompose", "BC time", "total"]);
        for threshold in [1usize, 4, 16, 32, 128, 1024] {
            let opts2 = ApgreOptions {
                partition: PartitionOptions { merge_threshold: threshold, ..Default::default() },
                ..Default::default()
            };
            let ((_, report), total) = time(|| bc_apgre_with(&g, &opts2));
            let decompose_t =
                report.partition_time.as_secs_f64() + report.alpha_beta_time.as_secs_f64();
            t.row(vec![
                threshold.to_string(),
                report.num_subgraphs.to_string(),
                report.total_roots.to_string(),
                fmt_secs(decompose_t),
                fmt_secs(report.bc_time.as_secs_f64()),
                fmt_secs(total.as_secs_f64()),
            ]);
            rows.push(json!({"graph": name, "threshold": threshold,
                "subgraphs": report.num_subgraphs, "roots": report.total_roots,
                "total_s": total.as_secs_f64()}));
        }
        print!("{}", t.render());
    }
    json.insert("ablation_threshold".into(), json!(rows));
}

fn ablation_alphabeta(opts: &Opts, json: &mut serde_json::Map<String, serde_json::Value>) {
    println!(
        "\n=== Ablation A2: α/β block-cut-tree fast path vs blocked BFS (scale {}) ===\n",
        scale_name(opts.scale)
    );
    let mut t = Table::new(&["Graph", "tree α/β", "blocked-BFS α/β", "ratio"]);
    let mut rows = Vec::new();
    for name in ["email-enron-like", "youtube-like", "usa-road-bay-like"] {
        let g = apgre_workloads::get(name).unwrap().graph(opts.scale);
        let (d1, t_tree) = time(|| {
            decompose(
                &g,
                &PartitionOptions {
                    alpha_beta: AlphaBetaMethod::BlockCutTree,
                    ..Default::default()
                },
            )
        });
        let (d2, t_bfs) = time(|| {
            decompose(
                &g,
                &PartitionOptions { alpha_beta: AlphaBetaMethod::BlockedBfs, ..Default::default() },
            )
        });
        // Cross-check while we're here.
        for (a, b) in d1.subgraphs.iter().zip(&d2.subgraphs) {
            assert_eq!(a.alpha, b.alpha, "{name}: α mismatch in SG{}", a.id);
            assert_eq!(a.beta, b.beta, "{name}: β mismatch in SG{}", a.id);
        }
        t.row(vec![
            name.into(),
            fmt_secs(t_tree.as_secs_f64()),
            fmt_secs(t_bfs.as_secs_f64()),
            format!("{:.1}x", t_bfs.as_secs_f64() / t_tree.as_secs_f64()),
        ]);
        rows.push(
            json!({"graph": name, "tree_s": t_tree.as_secs_f64(), "bfs_s": t_bfs.as_secs_f64()}),
        );
    }
    print!("{}", t.render());
    println!("\n(timings include the shared partition work; both methods verified equal)");
    json.insert("ablation_alphabeta".into(), json!(rows));
}

/// Ablation A3: which redundancy class buys what? Four variants:
/// full APGRE, γ-only (one sub-graph per component, whiskers folded),
/// partial-only (decomposition kept, whiskers unfolded), and neither
/// (the kernel degraded all the way back to Brandes).
fn ablation_gamma(opts: &Opts, json: &mut serde_json::Map<String, serde_json::Value>) {
    println!(
        "\n=== Ablation A3: total (γ) vs partial redundancy elimination (scale {}) ===\n",
        scale_name(opts.scale)
    );
    let mut rows = Vec::new();
    let mut t =
        Table::new(&["Graph", "full APGRE", "γ-only", "partial-only", "neither", "serial Brandes"]);
    for name in ["email-euall-like", "youtube-like", "notredame-like", "usa-road-bay-like"] {
        let g = apgre_workloads::get(name).unwrap().graph(opts.scale);
        let (reference, serial_t) = time(|| apgre_bc::brandes::bc_serial(&g));

        let run_variant = |merge_all: bool, unfold: bool| -> f64 {
            let popts = PartitionOptions { merge_all, ..Default::default() };
            let mut d = decompose(&g, &popts);
            if unfold {
                d.unfold_whiskers();
            }
            let ((scores, _), dt) =
                time(|| apgre_bc::apgre::bc_from_decomposition(&g, &d, &ApgreOptions::default()));
            let err =
                scores.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
            assert!(
                err < 1e-5 * (1.0 + reference.iter().cloned().fold(0.0, f64::max)),
                "{name}: err {err}"
            );
            dt.as_secs_f64()
        };
        let full = run_variant(false, false);
        let gamma_only = run_variant(true, false);
        let partial_only = run_variant(false, true);
        let neither = run_variant(true, true);
        t.row(vec![
            name.into(),
            fmt_secs(full),
            fmt_secs(gamma_only),
            fmt_secs(partial_only),
            fmt_secs(neither),
            fmt_secs(serial_t.as_secs_f64()),
        ]);
        rows.push(json!({"graph": name, "full_s": full, "gamma_only_s": gamma_only,
            "partial_only_s": partial_only, "neither_s": neither,
            "serial_s": serial_t.as_secs_f64()}));
    }
    print!("{}", t.render());
    println!("\n(all four variants verified exact against serial Brandes)");
    json.insert("ablation_gamma".into(), json!(rows));
}
