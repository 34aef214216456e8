//! `bc-tool`: betweenness centrality from the command line.
//!
//! ```text
//! bc-tool <input> [options]
//! bc-tool serve --graph <input> [serve options]
//!
//! input:
//!   path to an edge-list file (# comments, "u v" per line),
//!   path to a DIMACS .gr file (detected by extension), or
//!   workload:<name>[:tiny|small|medium] for a built-in stand-in
//!
//! serve options (see `apgre-serve`; service runs until POST /shutdown):
//!   --addr <a>              bind address (default 127.0.0.1:7171; use
//!                           port 0 for an ephemeral port)
//!   --queue-depth <n>       mutation queue capacity, full => 429
//!                           (default 256)
//!   --workers <n>           request worker threads (default 4)
//!   --staleness-ms <n>      approx-tier staleness budget (default 250)
//!   --approx-samples <k>    incremental estimator root samples per
//!                           sub-graph (default 8; 0 disables the tier)
//!   --approx-budget <n>     global adaptive root budget for the
//!                           estimator: replaces the uniform per-sub-graph
//!                           cap with the variance-guided allocator
//!                           (default 0 = uniform mode)
//!   --approx-seed <s>       incremental estimator RNG seed (default 42)
//!   --kernel/--threshold/--grain/--directed as below
//!
//! options:
//!   --algo <serial|preds|succs|lockfree|coarse|hybrid|apgre|approx|edge>
//!                           (default apgre; approx uses --samples, edge
//!                           ranks edges instead of vertices)
//!   --directed              treat the input file as directed
//!   --top <k>               print the k highest-BC vertices (default 10)
//!   --threshold <n>         APGRE merge threshold (default 32)
//!   --kernel <p>            APGRE per-sub-graph kernel policy:
//!                           auto|seq|rootpar (default auto)
//!   --grain <n>             APGRE scheduling grain: min roots per
//!                           root-parallel chunk, and the unit of the auto
//!                           policy's size thresholds (default 256)
//!   --threads <t>           rayon thread count (default: all cores)
//!   --samples <k>           pivot count for --algo approx (default n/10)
//!   --dynamic <n>           incremental mode: seed a [`DynamicBc`] engine,
//!                           apply n random single-edit batches, and print a
//!                           per-batch report line (classification, dirty
//!                           sub-graphs, reused contributions, wall-clock)
//!   --seed <s>              RNG seed for the --dynamic edit stream
//!   --stats                 print decomposition + redundancy statistics
//!   --normalize             halve scores (undirected textbook convention)
//! ```

use apgre_bc::apgre::{bc_apgre_with, ApgreOptions, KernelPolicy, DEFAULT_GRAIN};
use apgre_bc::parallel::{bc_coarse, bc_hybrid, bc_lock_free, bc_preds, bc_succs};
use apgre_bc::{brandes::bc_serial, normalize_undirected};
use apgre_decomp::{decompose, PartitionOptions};
use apgre_dynamic::{BatchClass, DynamicBc, MutationBatch};
use apgre_graph::Graph;
use apgre_workloads::Scale;
use std::process::exit;
use std::time::Instant;

struct Args {
    input: String,
    algo: String,
    directed: bool,
    top: usize,
    threshold: usize,
    kernel: KernelPolicy,
    grain: usize,
    threads: Option<usize>,
    samples: Option<usize>,
    dynamic: Option<usize>,
    seed: u64,
    stats: bool,
    normalize: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bc-tool <edge-list|file.gr|workload:<name>[:scale]> \
         [--algo serial|preds|succs|lockfree|coarse|hybrid|apgre] [--directed] \
         [--top K] [--threshold N] [--kernel auto|seq|rootpar] [--grain N] \
         [--threads T] [--dynamic N] [--seed S] [--stats] [--normalize]\n\
         or:    bc-tool serve --graph <input> [--addr A] [--queue-depth N] [--workers N] \
         [--staleness-ms N] [--approx-samples K] [--approx-budget N] [--approx-seed S] \
         [--kernel P] [--threshold N] [--grain N] [--directed]\n\
         workloads: {}",
        apgre_workloads::registry().iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        input: String::new(),
        algo: "apgre".into(),
        directed: false,
        top: 10,
        threshold: 32,
        kernel: KernelPolicy::Auto,
        grain: DEFAULT_GRAIN,
        threads: None,
        samples: None,
        dynamic: None,
        seed: 0xD1CE,
        stats: false,
        normalize: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next_usize = |flag: &str| -> usize {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{flag} needs a number");
                usage()
            })
        };
        match a.as_str() {
            "--algo" => args.algo = it.next().unwrap_or_else(|| usage()),
            "--directed" => args.directed = true,
            "--top" => args.top = next_usize("--top"),
            "--threshold" => args.threshold = next_usize("--threshold"),
            "--kernel" => {
                args.kernel =
                    it.next().unwrap_or_else(|| usage()).parse().unwrap_or_else(|e: String| {
                        eprintln!("{e}");
                        usage()
                    })
            }
            "--grain" => args.grain = next_usize("--grain"),
            "--threads" => args.threads = Some(next_usize("--threads")),
            "--samples" => args.samples = Some(next_usize("--samples")),
            "--dynamic" => args.dynamic = Some(next_usize("--dynamic")),
            "--seed" => args.seed = next_usize("--seed") as u64,
            "--stats" => args.stats = true,
            "--normalize" => args.normalize = true,
            "--help" | "-h" => usage(),
            _ if a.starts_with("--") => {
                eprintln!("unknown option {a}");
                usage()
            }
            _ if args.input.is_empty() => args.input = a,
            _ => usage(),
        }
    }
    if args.input.is_empty() {
        usage()
    }
    args
}

fn load_graph(args: &Args) -> Graph {
    load_graph_from(&args.input, args.directed)
}

fn load_graph_from(input: &str, directed: bool) -> Graph {
    if let Some(rest) = input.strip_prefix("workload:") {
        let mut parts = rest.splitn(2, ':');
        let name = parts.next().unwrap();
        let scale = match parts.next().unwrap_or("small") {
            "tiny" => Scale::Tiny,
            "small" => Scale::Small,
            "medium" => Scale::Medium,
            other => {
                eprintln!("unknown scale {other:?} (tiny|small|medium)");
                exit(2)
            }
        };
        match apgre_workloads::get(name) {
            Some(spec) => return spec.graph(scale),
            None => {
                eprintln!("unknown workload {name:?}");
                usage()
            }
        }
    }
    let result = if input.ends_with(".gr") {
        match std::fs::File::open(input) {
            Ok(f) => apgre_graph::io::read_dimacs(f, directed),
            Err(e) => {
                eprintln!("cannot open {input}: {e}");
                exit(1)
            }
        }
    } else {
        apgre_graph::io::read_edge_list_file(input, directed)
    };
    result.unwrap_or_else(|e| {
        eprintln!("cannot parse {input}: {e}");
        exit(1)
    })
}

/// `bc-tool serve ...`: boot the query service and block until shutdown
/// (`POST /shutdown` or process signal).
fn serve_main() -> ! {
    let mut input = String::new();
    let mut cfg = apgre_serve::ServeConfig { addr: "127.0.0.1:7171".into(), ..Default::default() };
    let mut directed = false;
    let mut threshold = 32usize;
    let mut kernel = KernelPolicy::Auto;
    let mut grain = DEFAULT_GRAIN;

    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        let mut next_usize = |flag: &str| -> usize {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{flag} needs a number");
                usage()
            })
        };
        match a.as_str() {
            "--graph" => input = it.next().unwrap_or_else(|| usage()),
            "--addr" => cfg.addr = it.next().unwrap_or_else(|| usage()),
            "--queue-depth" => cfg.queue_depth = next_usize("--queue-depth"),
            "--workers" => cfg.workers = next_usize("--workers"),
            "--staleness-ms" => {
                cfg.staleness_budget =
                    std::time::Duration::from_millis(next_usize("--staleness-ms") as u64)
            }
            "--approx-samples" => cfg.approx_samples = next_usize("--approx-samples"),
            "--approx-budget" => cfg.approx_budget = next_usize("--approx-budget"),
            "--approx-seed" => cfg.approx_seed = next_usize("--approx-seed") as u64,
            "--threshold" => threshold = next_usize("--threshold"),
            "--grain" => grain = next_usize("--grain"),
            "--kernel" => {
                kernel = it.next().unwrap_or_else(|| usage()).parse().unwrap_or_else(|e: String| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--directed" => directed = true,
            "--help" | "-h" => usage(),
            _ if a.starts_with("--") => {
                eprintln!("unknown serve option {a}");
                usage()
            }
            _ if input.is_empty() => input = a,
            _ => usage(),
        }
    }
    if input.is_empty() {
        eprintln!("serve needs a graph (--graph <input>)");
        usage()
    }

    let g = load_graph_from(&input, directed);
    println!(
        "graph: {} vertices, {} edges, directed = {}",
        g.num_vertices(),
        g.num_edges(),
        g.is_directed()
    );
    cfg.opts = ApgreOptions {
        partition: PartitionOptions { merge_threshold: threshold, ..Default::default() },
        kernel,
        grain,
    };
    let t = Instant::now();
    let handle = apgre_serve::serve(&g, cfg).unwrap_or_else(|e| {
        eprintln!("cannot start service: {e}");
        exit(1)
    });
    println!("seeded engine and published snapshot in {:.2?}", t.elapsed());
    println!("listening on http://{}", handle.local_addr());
    // The smoke test (and any supervisor) reads the line above through a
    // pipe to discover the ephemeral port; without a flush it sits in the
    // stdio buffer until exit.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait();
    println!("shutdown complete");
    exit(0)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        serve_main();
    }
    let args = parse_args();
    if let Some(t) = args.threads {
        rayon::ThreadPoolBuilder::new().num_threads(t).build_global().unwrap_or_else(|e| {
            eprintln!("thread pool: {e}");
            exit(1)
        });
    }
    let g = load_graph(&args);
    println!(
        "graph: {} vertices, {} edges, directed = {}",
        g.num_vertices(),
        g.num_edges(),
        g.is_directed()
    );

    let opts = ApgreOptions {
        partition: PartitionOptions { merge_threshold: args.threshold, ..Default::default() },
        kernel: args.kernel,
        grain: args.grain,
    };
    if args.stats {
        let t = Instant::now();
        let d = decompose(&g, &opts.partition);
        let dt = t.elapsed();
        let arts = d.num_articulation_points();
        let whiskers: usize =
            d.subgraphs.iter().map(|sg| sg.is_whisker.iter().filter(|&&w| w).count()).sum();
        println!("decomposition ({dt:.2?}):");
        println!(
            "  {} BCCs -> {} sub-graphs, {} articulation points, {} whiskers",
            d.num_bccs,
            d.num_subgraphs(),
            arts,
            whiskers
        );
        for (rank, sg) in d.subgraphs_by_size().iter().take(3).enumerate() {
            println!(
                "  #{} sub-graph: {} vertices ({:.1}%), {} edges ({:.1}%)",
                rank + 1,
                sg.num_vertices(),
                100.0 * sg.num_vertices() as f64 / g.num_vertices() as f64,
                sg.num_edges(),
                100.0 * sg.num_edges() as f64 / g.num_edges().max(1) as f64,
            );
        }
        let r = apgre_bc::redundancy::analyze(&g, &d);
        println!(
            "  Brandes redundancy: {:.1}% partial, {:.1}% total, {:.1}% essential",
            100.0 * r.partial_fraction(),
            100.0 * r.total_fraction(),
            100.0 * r.essential_fraction()
        );
    }

    if let Some(n_batches) = args.dynamic {
        run_dynamic(&g, n_batches, args.seed, &opts, args.top);
        return;
    }

    if args.algo == "edge" {
        rank_edges(&g, args.top);
        return;
    }
    let t = Instant::now();
    let mut scores = match args.algo.as_str() {
        "serial" => bc_serial(&g),
        "approx" => {
            let k = args.samples.unwrap_or((g.num_vertices() / 10).max(1));
            println!("approx: {k} source pivots (of {})", g.num_vertices());
            apgre_bc::approx::bc_approx(&g, k, 0xA99)
        }
        "preds" => bc_preds(&g),
        "succs" => bc_succs(&g),
        "lockfree" => bc_lock_free(&g),
        "coarse" | "async" => bc_coarse(&g),
        "hybrid" => bc_hybrid(&g),
        "apgre" => {
            let (scores, report) = bc_apgre_with(&g, &opts);
            println!(
                "apgre: partition {:.2?}, α/β {:.2?}, bc {:.2?} ({} sub-graphs, {} roots)",
                report.partition_time,
                report.alpha_beta_time,
                report.bc_time,
                report.num_subgraphs,
                report.total_roots
            );
            let (seq, rootpar) = report.kernel_counts;
            println!(
                "apgre kernels ({:?}, grain {}): {seq} seq, {rootpar} root-parallel; \
                 top sub-graph ran {} in {:.2?}",
                report.kernel_policy,
                report.grain,
                report.top_subgraph_kernel.map_or("n/a".to_string(), |k| format!("{k:?}")),
                report.top_subgraph_bc_time
            );
            scores
        }
        other => {
            eprintln!("unknown algorithm {other:?}");
            usage()
        }
    };
    let dt = t.elapsed();
    if args.normalize {
        if g.is_directed() {
            eprintln!("--normalize is for undirected graphs; ignoring");
        } else {
            normalize_undirected(&mut scores);
        }
    }
    let nm = g.num_vertices() as f64 * g.num_edges() as f64;
    println!(
        "{} finished in {dt:.2?} ({:.1} MTEPS by the paper's n·m/t metric)",
        args.algo,
        nm / dt.as_secs_f64() / 1e6
    );

    let mut ranked: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top {} vertices by betweenness:", args.top.min(ranked.len()));
    for &(v, s) in ranked.iter().take(args.top) {
        println!("  {v:>8}  {s:>16.2}");
    }
}

/// Incremental mode: seed a [`DynamicBc`] engine on the loaded graph, apply
/// `n_batches` random single-edit batches, and print one report line per
/// batch plus the final top-`top` ranking.
///
/// Uses an inline xorshift64* stream (seeded by `--seed`) so edit streams
/// are reproducible across builds regardless of which `rand` is linked.
fn run_dynamic(g: &Graph, n_batches: usize, seed: u64, opts: &ApgreOptions, top: usize) {
    let mut state = seed | 1;
    let mut next = move || -> u64 {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };

    let t = Instant::now();
    let mut engine = DynamicBc::new(g, opts.clone());
    println!(
        "dynamic: seeded engine in {:.2?} ({} sub-graphs)",
        t.elapsed(),
        engine.decomposition().num_subgraphs()
    );
    // Drain the seed publish (it copies everything once) so the accounting
    // printed after the replay covers exactly the edit stream's dirty set.
    let _ = engine.snapshot();

    let mut totals = (0usize, 0usize, 0usize); // (noop, local, structural)
    let mut spliced = 0usize;
    let mut rebuilt = 0usize;
    let mut maintain_total = std::time::Duration::ZERO;
    let mut rebuild_total = std::time::Duration::ZERO;
    for k in 0..n_batches {
        let n = engine.num_vertices() as u64;
        let batch = match next() % 100 {
            0..=54 => MutationBatch::new().add_edge((next() % n) as u32, (next() % n) as u32),
            55..=89 => {
                let cur = engine.current_graph();
                let edges: Vec<(u32, u32)> = if cur.is_directed() {
                    cur.arcs().collect()
                } else {
                    cur.undirected_edges().collect()
                };
                if edges.is_empty() {
                    MutationBatch::new().add_edge(0, (n - 1) as u32)
                } else {
                    let (u, v) = edges[(next() % edges.len() as u64) as usize];
                    MutationBatch::new().remove_edge(u, v)
                }
            }
            _ => MutationBatch::new().add_vertex().add_edge(n as u32, (next() % n) as u32),
        };
        let report = engine.apply(&batch);
        match report.class {
            BatchClass::Noop => totals.0 += 1,
            BatchClass::Local => totals.1 += 1,
            BatchClass::Structural => totals.2 += 1,
        }
        maintain_total += report.maintain_time;
        rebuild_total += report.rebuild_time;
        let path = if report.rebuilt {
            rebuilt += 1;
            " rebuild"
        } else if report.class == BatchClass::Structural {
            spliced += 1;
            " splice"
        } else {
            ""
        };
        println!(
            "  batch {k:>4}: {:<10} {:>3} dirty, {:>4} reused of {:>4} sub-graphs, \
             {} local / {} structural edits, {} region blocks, {} split, \
             {} applied, {} no-op, {:>10.2?}  [{}{}]",
            format!("{:?}", report.class),
            report.dirty_subgraphs,
            report.reused_contributions,
            report.total_subgraphs,
            report.local_edits,
            report.structural_edits,
            report.region_blocks,
            report.subgraphs_split,
            report.applied_mutations,
            report.noop_mutations,
            report.wall_clock,
            report.reason,
            path,
        );
    }
    println!(
        "dynamic: {n_batches} batches in {:.2?} ({} noop, {} local, {} structural: \
         {spliced} spliced + {rebuilt} rebuilt; decomp maintain {:.2?}, rebuild {:.2?})",
        t.elapsed(),
        totals.0,
        totals.1,
        totals.2,
        maintain_total,
        rebuild_total,
    );
    let snap = engine.snapshot();
    println!(
        "publish: {} score span(s) copied / {} shared, {} graph chunk(s) copied / {} shared \
         (snapshot cost tracks the dirty set; DESIGN.md \u{a7}3.11)",
        snap.publish.score_chunks_copied,
        snap.publish.score_chunks_reused,
        snap.publish.graph_chunks_copied,
        snap.publish.graph_chunks_reused,
    );

    let mut ranked: Vec<(usize, f64)> = engine.scores().iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top {} vertices by betweenness (after edits):", top.min(ranked.len()));
    for &(v, s) in ranked.iter().take(top) {
        println!("  {v:>8}  {s:>16.2}");
    }
}

fn rank_edges(g: &apgre_graph::Graph, top: usize) {
    let t = Instant::now();
    let scores = apgre_bc::edge::edge_bc(g);
    println!("edge betweenness finished in {:.2?}", t.elapsed());
    if g.is_directed() {
        let csr = g.csr();
        let mut ranked: Vec<((u32, u32), f64)> = csr.edges().zip(scores.iter().copied()).collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("top {} arcs by betweenness:", top.min(ranked.len()));
        for ((u, v), s) in ranked.into_iter().take(top) {
            println!("  {u:>7} -> {v:<7} {s:>14.2}");
        }
    } else {
        let mut ranked = apgre_bc::edge::undirected_edge_scores(g, &scores);
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("top {} edges by betweenness:", top.min(ranked.len()));
        for ((u, v), s) in ranked.into_iter().take(top) {
            println!("  {u:>7} -- {v:<7} {s:>14.2}");
        }
    }
}
