//! The metric schema, the run outcome, and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names and units `BENCHMARK.json`
//! lists; the smoke test fails when the two drift apart. Every workload
//! prints every end-to-end metric. A per-layer metric a workload does not
//! exercise prints as 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, printed with `--trace 1`. The two `e2e.` entries are
/// the workload's tail and capacity: end to end, but too noisy on a shared
/// host to bound (see `BENCHMARK.md`).
pub const PER_LAYER: [(&str, &str); 56] = [
    ("e2e.p95_ms", "ms"),
    ("e2e.throughput_per_s", "1/s"),
    ("graph.build_ms", "ms"),
    ("decomp.partition_ms", "ms"),
    ("decomp.alpha_beta_ms", "ms"),
    ("bc.top_kernel_ms", "ms"),
    ("bc.rest_kernel_ms", "ms"),
    ("bc.edges_traversed", "count"),
    ("bc.roots", "count"),
    ("bc.mteps", "M/s"),
    ("decomp.seed_ms", "ms"),
    ("bc.seed_kernel_ms", "ms"),
    ("bc.seed_top_kernel_ms", "ms"),
    ("approx.seed_refresh_ms", "ms"),
    ("dynamic.apply_ms", "ms"),
    ("decomp.maintain_ms", "ms"),
    ("decomp.rebuild_ms", "ms"),
    ("decomp.region_blocks", "count"),
    ("bc.kernel_ms", "ms"),
    ("bc.kernel_edges", "count"),
    ("dynamic.other_ms", "ms"),
    ("dynamic.dirty_subgraphs", "count"),
    ("dynamic.reused_ratio", "ratio"),
    ("approx.refresh_ms", "ms"),
    ("approx.resampled", "count"),
    ("approx.pilot_roots", "count"),
    ("approx.sampled_roots", "count"),
    ("approx.edges", "count"),
    ("approx.resample_fraction", "ratio"),
    ("store.publish_ms", "ms"),
    ("store.score_chunks_copied", "count"),
    ("store.graph_chunks_copied", "count"),
    ("store.copy_ratio", "ratio"),
    ("dynamic.apply_share", "ratio"),
    ("approx.refresh_share", "ratio"),
    ("store.publish_share", "ratio"),
    ("approx.rel_mae", "ratio"),
    ("approx.stderr_cover2", "ratio"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("serve.bc_rtt_ms", "ms"),
    ("serve.top_rtt_ms", "ms"),
    ("serve.approx_rtt_ms", "ms"),
    ("serve.mutate_rtt_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.writer_apply_ms", "ms"),
    ("serve.writer_maintain_ms", "ms"),
    ("serve.writer_approx_ms", "ms"),
    ("serve.writer_publish_ms", "ms"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.structural_batches", "count"),
    ("serve.metrics_absent", "count"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    ("trace.p50_ms", "ms"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, batches, or APGRE runs).
    pub attempted: u64,
    /// Operations that failed (non-2xx answers, I/O errors, wrong scores).
    pub failed: u64,
    checks: Vec<(String, bool)>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("CHECK FAILED: {name}");
        }
        self.checks.push((name, ok));
    }

    /// Sets a metric.
    ///
    /// # Panics
    /// Panics on a name outside the schema.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the schema"
        );
        self.values.insert(name, value);
    }

    /// A metric set earlier, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Number of checks run.
    pub fn checks_run(&self) -> usize {
        self.checks.len()
    }

    /// The result line: end-to-end metrics, or per-layer ones when
    /// `per_layer`. An end-to-end metric that is missing, non-finite, or
    /// not positive fails the run (`correct: false`).
    pub fn result_line(&mut self, per_layer: bool) -> String {
        for (name, _) in END_TO_END {
            let ok = self.get(name).is_some_and(|v| v.is_finite() && v > 0.0);
            self.check(format!("end-to-end metric {name} is measured"), ok);
        }
        let schema: &[(&str, &str)] = if per_layer { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in schema.iter().enumerate() {
            let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_owned()),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_the_requested_schema() {
        let mut o = Outcome { attempted: 3, ..Default::default() };
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        o.set("approx.refresh_ms", 130.5);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains("approx.refresh_ms"));
        let layers = o.result_line(true);
        assert!(layers.contains("\"approx.refresh_ms\": {\"value\": 130.5, \"unit\": \"ms\"}"));
        assert!(layers.contains("\"trace.spans\": {\"value\": 0, \"unit\": \"count\"}"));
        assert_eq!(layers.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.5);
        assert!(o.result_line(false).starts_with("{\"correct\": false, \"attempted\": 1"));
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn unknown_metrics_are_rejected() {
        Outcome::default().set("latency_ms", 1.0);
    }

    #[test]
    fn schema_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        for n in all {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }
}
