//! Experiment-harness library: algorithm registry, timing, table rendering,
//! and JSON result records shared by the `experiments` binary and the
//! criterion benches.

use apgre_bc::apgre::{bc_apgre_with, ApgreOptions, KernelPolicy};
use apgre_bc::brandes::bc_serial;
use apgre_bc::parallel::{bc_coarse, bc_hybrid, bc_lock_free, bc_preds, bc_succs};
use apgre_graph::Graph;
use serde::Serialize;
use std::time::{Duration, Instant};

/// The algorithms of the paper's Table 2, in column order.
pub const ALGORITHMS: &[&str] =
    &["serial", "APGRE", "preds", "succs", "lockSyncFree", "async", "hybrid"];

/// APGRE variants with a pinned inner-kernel policy, for per-kernel
/// comparisons through [`run_algorithm`]; `APGRE` itself runs
/// `KernelPolicy::Auto`.
pub const APGRE_KERNEL_VARIANTS: &[&str] = &["APGRE-seq", "APGRE-rootpar", "APGRE-levelsync"];

/// Runs one named algorithm.
///
/// # Panics
/// Panics on an unknown name — [`ALGORITHMS`] plus [`APGRE_KERNEL_VARIANTS`]
/// is the source of truth.
pub fn run_algorithm(name: &str, g: &Graph) -> Vec<f64> {
    let apgre_forced =
        |kernel: KernelPolicy| bc_apgre_with(g, &ApgreOptions { kernel, ..Default::default() }).0;
    match name {
        "serial" => bc_serial(g),
        "APGRE" => bc_apgre_with(g, &ApgreOptions::default()).0,
        "APGRE-seq" => apgre_forced(KernelPolicy::Seq),
        "APGRE-rootpar" => apgre_forced(KernelPolicy::RootParallel),
        "APGRE-levelsync" => apgre_forced(KernelPolicy::LevelSync),
        "preds" => bc_preds(g),
        "succs" => bc_succs(g),
        "lockSyncFree" => bc_lock_free(g),
        "async" => bc_coarse(g),
        "hybrid" => bc_hybrid(g),
        other => panic!("unknown algorithm {other:?}"),
    }
}

/// Times a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// The paper's TEPS metric for exact BC (§5.1): `TEPS_BC = n·m / t`.
pub fn mteps(vertices: usize, edges: usize, t: Duration) -> f64 {
    (vertices as f64) * (edges as f64) / t.as_secs_f64() / 1e6
}

/// Runs `f` inside a dedicated rayon pool of `threads` workers.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(f)
}

/// Counts the distinct OS threads that execute work inside a
/// `threads`-worker rayon pool.
///
/// Upstream rayon returns a value near `threads`; the vendored sequential
/// stand-in (see vendor/README.md) runs everything inline on the caller and
/// returns 1 even though [`rayon::current_num_threads`] reports the
/// configured pool size. Bench records use this to label measurements that
/// structurally cannot show parallel speedup.
pub fn observed_parallelism(threads: usize) -> usize {
    use rayon::prelude::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    let threads = threads.max(1);
    let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
    let tasks: Vec<usize> = (0..threads * 32).collect();
    with_threads(threads, || {
        tasks.par_iter().for_each(|_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Long enough that the pool's other workers steal a share of the
            // tasks before the first worker drains them all.
            std::thread::sleep(Duration::from_micros(200));
        });
    });
    seen.into_inner().unwrap().len()
}

/// One algorithm's measurement on one graph.
#[derive(Clone, Debug, Serialize)]
pub struct AlgoMeasurement {
    /// Algorithm name (see [`ALGORITHMS`]).
    pub algo: String,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// `n·m/t` in millions.
    pub mteps: f64,
    /// Max absolute score deviation from the serial baseline.
    pub max_abs_err: f64,
}

/// All measurements for one graph.
#[derive(Clone, Debug, Serialize)]
pub struct GraphMeasurement {
    /// Workload name.
    pub graph: String,
    /// Vertices of the generated instance.
    pub vertices: usize,
    /// Edges of the generated instance.
    pub edges: usize,
    /// Per-algorithm results (same order as requested).
    pub algos: Vec<AlgoMeasurement>,
}

impl GraphMeasurement {
    /// Seconds of a given algorithm, if measured.
    pub fn seconds_of(&self, algo: &str) -> Option<f64> {
        self.algos.iter().find(|a| a.algo == algo).map(|a| a.seconds)
    }

    /// Speedup of `algo` relative to `serial` (>1 means faster).
    pub fn speedup_vs_serial(&self, algo: &str) -> Option<f64> {
        Some(self.seconds_of("serial")? / self.seconds_of(algo)?)
    }
}

/// Measures the requested algorithms on one graph, verifying every result
/// against the serial baseline.
pub fn measure_graph(name: &str, g: &Graph, algos: &[&str]) -> GraphMeasurement {
    let (reference, serial_t) = time(|| bc_serial(g));
    let mut out = GraphMeasurement {
        graph: name.to_string(),
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        algos: Vec::new(),
    };
    for &algo in algos {
        let (scores, t) = if algo == "serial" {
            (reference.clone(), serial_t)
        } else {
            time(|| run_algorithm(algo, g))
        };
        let max_abs_err =
            scores.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        out.algos.push(AlgoMeasurement {
            algo: algo.to_string(),
            seconds: t.as_secs_f64(),
            mteps: mteps(g.num_vertices(), g.num_edges(), t),
            max_abs_err,
        });
    }
    out
}

/// Minimal fixed-width table printer (markdown-compatible).
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders as a GitHub-flavoured markdown table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
            }
            s
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_graph::generators;

    #[test]
    fn measure_graph_checks_correctness() {
        let g = generators::lollipop(6, 10);
        let m = measure_graph("lollipop", &g, &["serial", "APGRE", "succs"]);
        assert_eq!(m.algos.len(), 3);
        for a in &m.algos {
            assert!(a.max_abs_err < 1e-7, "{}: {}", a.algo, a.max_abs_err);
            assert!(a.seconds > 0.0);
            assert!(a.mteps > 0.0);
        }
        assert!(m.speedup_vs_serial("APGRE").unwrap() > 0.0);
    }

    #[test]
    fn run_algorithm_covers_registry() {
        let g = generators::cycle(8);
        for algo in ALGORITHMS.iter().chain(APGRE_KERNEL_VARIANTS) {
            let scores = run_algorithm(algo, &g);
            assert_eq!(scores.len(), 8);
        }
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| a | bb |"));
        assert!(s.contains("| 1 | 2  |"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(123.4), "123s");
        assert_eq!(fmt_secs(1.5), "1.50s");
        assert_eq!(fmt_secs(0.0015), "1.50ms");
        assert_eq!(fmt_secs(0.0000015), "1.5µs");
    }

    #[test]
    fn mteps_formula_is_nm_over_t() {
        let v = mteps(1000, 2000, Duration::from_secs(2));
        assert_eq!(v, 1.0);
    }

    #[test]
    fn with_threads_runs_in_pool() {
        let n = with_threads(2, rayon::current_num_threads);
        assert_eq!(n, 2);
    }
}
