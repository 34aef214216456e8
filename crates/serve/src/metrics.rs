//! Service counters and the Prometheus text exposition.
//!
//! Counters live on relaxed atomics from the sanctioned `apgre_bc::sync`
//! facade (the xtask lint forbids raw `std::sync::atomic` imports). Relaxed
//! is sufficient: each counter is an independent monotone accumulator with
//! no cross-location protocol, and the scrape only needs eventually-
//! consistent point-in-time reads.

use std::fmt::Write as _;
use std::time::Duration;

use apgre_bc::sync::{AtomicU64, AtomicUsize, Ordering};

use crate::snapshot::BcSnapshot;

/// All service-level counters. One instance lives in the shared server
/// state; every field is updatable from any thread.
#[derive(Default)]
pub struct Metrics {
    /// `GET /bc/:v` requests served (exact tier).
    pub bc_requests: AtomicU64,
    /// `GET /bc/:v?approx=k` requests served from the sampling tier.
    pub approx_requests: AtomicU64,
    /// `GET /top` requests served.
    pub top_requests: AtomicU64,
    /// `GET /stats` requests served.
    pub stats_requests: AtomicU64,
    /// `POST /checkpoint` requests served.
    pub checkpoint_requests: AtomicU64,
    /// `POST /mutate` requests accepted into the queue.
    pub mutate_accepted: AtomicU64,
    /// `POST /mutate` requests rejected with 429 (queue full).
    pub mutate_rejected: AtomicU64,
    /// Connections shed with 503 at the acceptor (worker pool saturated).
    pub connections_shed: AtomicU64,
    /// Malformed requests answered 4xx.
    pub bad_requests: AtomicU64,
    /// Current depth of the mutation queue (enqueue increments, writer
    /// dequeue decrements).
    pub queue_depth: AtomicUsize,
    /// Batches applied, by classification.
    pub batches_noop: AtomicU64,
    /// See [`Metrics::batches_noop`].
    pub batches_local: AtomicU64,
    /// See [`Metrics::batches_noop`].
    pub batches_structural: AtomicU64,
    /// Total `POST /mutate` requests coalesced into applied batches.
    pub mutations_applied: AtomicU64,
    /// Σ wall clock of `DynamicBc::apply`, in microseconds.
    pub batch_apply_micros: AtomicU64,
    /// Snapshots published (equals the latest snapshot's `seq`).
    pub snapshots_published: AtomicU64,
    /// Structural batches handled by the in-place region splice.
    pub batches_spliced: AtomicU64,
    /// Structural batches that fell back to a from-scratch re-decomposition.
    pub batches_rebuilt: AtomicU64,
    /// Σ blocks in the re-decomposed regions of spliced batches.
    pub spliced_region_blocks: AtomicU64,
    /// Σ in-place sub-graph splits performed by splices.
    pub subgraph_splits: AtomicU64,
    /// Wall clock of incremental decomposition maintenance, per batch.
    pub decomp_maintain_seconds: LatencyHistogram,
    /// Wall clock of from-scratch re-decompositions, per rebuilt batch.
    pub decomp_rebuild_seconds: LatencyHistogram,
    /// Wall clock of snapshot publication (copy-on-write engine snapshot
    /// plus the cell swap), per publish.
    pub publish_seconds: LatencyHistogram,
    /// Sub-graphs resampled by the incremental estimator across refreshes.
    pub approx_resampled_subgraphs: AtomicU64,
    /// Sub-graphs whose sample spans the estimator carried verbatim.
    pub approx_reused_subgraphs: AtomicU64,
    /// Wall clock of the incremental estimator refresh, per publish.
    pub approx_refresh_seconds: LatencyHistogram,
}

/// Upper bounds, in seconds, of the fixed latency histogram buckets (an
/// implicit `+Inf` bucket follows). Chosen to straddle the maintenance
/// regime (sub-millisecond to a few ms) and the rebuild regime (tens of ms
/// and up on large graphs).
const LATENCY_BUCKETS: [f64; 10] = [0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 2.5];

/// A fixed-bucket latency histogram on relaxed atomics, rendered in the
/// Prometheus histogram exposition shape (`_bucket{le=...}` cumulative
/// counts, `_sum` in seconds, `_count`). Buckets are [`LATENCY_BUCKETS`].
#[derive(Default)]
pub struct LatencyHistogram {
    /// Non-cumulative per-bucket counts; index `LATENCY_BUCKETS.len()` is
    /// the overflow (`+Inf`) bucket. Cumulated at render time.
    buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    /// Σ observed durations, microseconds.
    sum_micros: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    #[allow(clippy::disallowed_methods)] // integer event counters, see `Metrics::inc`
    pub fn observe(&self, d: Duration) {
        let secs = d.as_secs_f64();
        let idx =
            LATENCY_BUCKETS.iter().position(|&ub| secs <= ub).unwrap_or(LATENCY_BUCKETS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(d.as_micros() as u64, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Emits the family in Prometheus histogram format.
    fn render_into(&self, out: &mut String, name: &str, help: &str) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, ub) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{ub}\"}} {cumulative}");
        }
        cumulative += self.buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let sum = self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        let _ = writeln!(out, "{name}_sum {sum:.6}");
        let _ = writeln!(out, "{name}_count {cumulative}");
    }
}

impl Metrics {
    /// Bumps a counter by one (all counters are plain monotone adds).
    // The clippy disallow on `AtomicU64::fetch_add` guards f64-bits
    // accumulation (use `AtomicF64`); these are genuine integer event
    // counters with no cross-thread ordering obligations.
    #[allow(clippy::disallowed_methods)]
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one applied batch off its [`apgre_dynamic::DynamicReport`]:
    /// classification, the splice-vs-rebuild split of the structural path,
    /// region size, and the maintain/rebuild latency histograms.
    #[allow(clippy::disallowed_methods)] // integer event counters, see `inc`
    pub fn record_batch(&self, report: &apgre_dynamic::DynamicReport, coalesced: u64) {
        use apgre_dynamic::BatchClass;
        let by_class = match report.class {
            BatchClass::Noop => &self.batches_noop,
            BatchClass::Local => &self.batches_local,
            BatchClass::Structural => &self.batches_structural,
        };
        by_class.fetch_add(1, Ordering::Relaxed);
        self.mutations_applied.fetch_add(coalesced, Ordering::Relaxed);
        self.batch_apply_micros.fetch_add(report.wall_clock.as_micros() as u64, Ordering::Relaxed);
        self.snapshots_published.fetch_add(1, Ordering::Relaxed);
        if report.rebuilt {
            self.batches_rebuilt.fetch_add(1, Ordering::Relaxed);
            self.decomp_rebuild_seconds.observe(report.rebuild_time);
        } else if report.class != BatchClass::Noop {
            // Patch-only and splice batches both ran the maintainer; only
            // splices restructured anything.
            self.decomp_maintain_seconds.observe(report.maintain_time);
            if report.class == BatchClass::Structural {
                self.batches_spliced.fetch_add(1, Ordering::Relaxed);
                self.spliced_region_blocks
                    .fetch_add(report.region_blocks as u64, Ordering::Relaxed);
                self.subgraph_splits.fetch_add(report.subgraphs_split as u64, Ordering::Relaxed);
            }
        }
    }

    /// Records one sampled-estimator refresh: the resampled-vs-reused
    /// sub-graph split and the refresh latency histogram.
    #[allow(clippy::disallowed_methods)] // integer event counters, see `inc`
    pub fn record_approx_refresh(&self, refresh: &apgre_dynamic::SampleRefresh) {
        self.approx_resampled_subgraphs.fetch_add(refresh.resampled as u64, Ordering::Relaxed);
        self.approx_reused_subgraphs.fetch_add(refresh.reused as u64, Ordering::Relaxed);
        self.approx_refresh_seconds.observe(refresh.wall);
    }

    /// Renders the Prometheus text exposition format (v0.0.4): service
    /// counters from the atomics plus engine gauges read off the current
    /// snapshot (kernel counters, decomposition shape, snapshot age).
    pub fn render(&self, snapshot: &BcSnapshot) -> String {
        let mut out = String::with_capacity(2048);
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed).to_string();
        family(
            &mut out,
            "apgre_serve_requests_total",
            "counter",
            "Queries served, by endpoint (bc is the exact snapshot tier).",
            &[
                ("{endpoint=\"bc\"}", load(&self.bc_requests)),
                ("{endpoint=\"bc_approx\"}", load(&self.approx_requests)),
                ("{endpoint=\"top\"}", load(&self.top_requests)),
                ("{endpoint=\"stats\"}", load(&self.stats_requests)),
                ("{endpoint=\"checkpoint\"}", load(&self.checkpoint_requests)),
            ],
        );
        family(
            &mut out,
            "apgre_serve_mutations_accepted_total",
            "counter",
            "POST /mutate requests admitted to the queue.",
            &[("", load(&self.mutate_accepted))],
        );
        family(
            &mut out,
            "apgre_serve_mutations_rejected_total",
            "counter",
            "POST /mutate requests shed with 429 (queue full).",
            &[("", load(&self.mutate_rejected))],
        );
        family(
            &mut out,
            "apgre_serve_connections_shed_total",
            "counter",
            "Connections answered 503 at the acceptor (worker pool saturated).",
            &[("", load(&self.connections_shed))],
        );
        family(
            &mut out,
            "apgre_serve_bad_requests_total",
            "counter",
            "Requests answered 4xx.",
            &[("", load(&self.bad_requests))],
        );
        family(
            &mut out,
            "apgre_serve_batches_total",
            "counter",
            "Applied mutation batches, by classification.",
            &[
                ("{class=\"noop\"}", load(&self.batches_noop)),
                ("{class=\"local\"}", load(&self.batches_local)),
                ("{class=\"structural\"}", load(&self.batches_structural)),
            ],
        );
        family(
            &mut out,
            "apgre_serve_structural_batches_total",
            "counter",
            "Structural batches, by how the decomposition was updated.",
            &[
                ("{path=\"splice\"}", load(&self.batches_spliced)),
                ("{path=\"rebuild\"}", load(&self.batches_rebuilt)),
            ],
        );
        family(
            &mut out,
            "apgre_serve_spliced_region_blocks_total",
            "counter",
            "Blocks in the re-decomposed regions of spliced batches.",
            &[("", load(&self.spliced_region_blocks))],
        );
        family(
            &mut out,
            "apgre_serve_subgraph_splits_total",
            "counter",
            "In-place sub-graph splits performed by splices.",
            &[("", load(&self.subgraph_splits))],
        );
        self.decomp_maintain_seconds.render_into(
            &mut out,
            "apgre_engine_decomp_maintain_seconds",
            "Incremental decomposition maintenance wall clock per batch.",
        );
        self.decomp_rebuild_seconds.render_into(
            &mut out,
            "apgre_engine_decomp_rebuild_seconds",
            "From-scratch re-decomposition wall clock per rebuilt batch.",
        );
        family(
            &mut out,
            "apgre_serve_mutations_applied_total",
            "counter",
            "Accepted mutate requests that reached an applied batch.",
            &[("", load(&self.mutations_applied))],
        );
        family(
            &mut out,
            "apgre_serve_batch_apply_seconds_total_micros",
            "counter",
            "Cumulative DynamicBc::apply wall clock, microseconds.",
            &[("", load(&self.batch_apply_micros))],
        );
        family(
            &mut out,
            "apgre_serve_snapshots_published_total",
            "counter",
            "Snapshots swapped into the read cell (excludes the seed).",
            &[("", load(&self.snapshots_published))],
        );
        self.publish_seconds.render_into(
            &mut out,
            "apgre_serve_publish_seconds",
            "Snapshot publication (copy-on-write snapshot + cell swap) wall clock.",
        );
        family(
            &mut out,
            "apgre_serve_approx_subgraphs_total",
            "counter",
            "Sub-graphs the incremental estimator resampled vs carried, across refreshes.",
            &[
                ("{kind=\"resampled\"}", load(&self.approx_resampled_subgraphs)),
                ("{kind=\"reused\"}", load(&self.approx_reused_subgraphs)),
            ],
        );
        self.approx_refresh_seconds.render_into(
            &mut out,
            "apgre_serve_approx_refresh_seconds",
            "Incremental sampled-estimator refresh wall clock per publish.",
        );
        // Estimator gauges read off the served snapshot: both are 0 with the
        // estimator disabled; `budget_utilization` is also 0 under a uniform
        // cap, while `stderr_max` is set in both regimes.
        let (stderr_max, budget_utilization) = snapshot
            .approx
            .as_ref()
            .map(|ap| (ap.stderr_max(), ap.refresh.budget_utilization()))
            .unwrap_or((0.0, 0.0));
        family(
            &mut out,
            "apgre_serve_approx_stderr_max",
            "gauge",
            "Largest per-vertex standard error of the served sampled estimates.",
            &[("", format!("{stderr_max:.6}"))],
        );
        family(
            &mut out,
            "apgre_serve_approx_budget_utilization",
            "gauge",
            "Allocated over configured root budget of the served estimator refresh.",
            &[("", format!("{budget_utilization:.6}"))],
        );
        let publish = &snapshot.engine.publish;
        family(
            &mut out,
            "apgre_serve_publish_chunks_copied",
            "gauge",
            "Chunks the served snapshot's publish had to copy, by chunk kind.",
            &[
                ("{kind=\"graph\"}", publish.graph_chunks_copied.to_string()),
                ("{kind=\"score\"}", publish.score_chunks_copied.to_string()),
            ],
        );
        family(
            &mut out,
            "apgre_serve_publish_chunks_reused",
            "gauge",
            "Chunks the served snapshot shares with its predecessor, by chunk kind.",
            &[
                ("{kind=\"graph\"}", publish.graph_chunks_reused.to_string()),
                ("{kind=\"score\"}", publish.score_chunks_reused.to_string()),
            ],
        );
        family(
            &mut out,
            "apgre_serve_queue_depth",
            "gauge",
            "Mutation requests waiting for the writer thread.",
            &[("", self.queue_depth.load(Ordering::Relaxed).to_string())],
        );
        family(
            &mut out,
            "apgre_serve_snapshot_age_seconds",
            "gauge",
            "Age of the currently served snapshot.",
            &[("", format!("{:.6}", snapshot.published_at.elapsed().as_secs_f64()))],
        );
        family(
            &mut out,
            "apgre_serve_snapshot_seq",
            "gauge",
            "Publication sequence number of the served snapshot.",
            &[("", snapshot.seq.to_string())],
        );
        family(
            &mut out,
            "apgre_serve_snapshot_generation",
            "gauge",
            "Accepted-mutation generation the served snapshot reflects.",
            &[("", snapshot.generation.to_string())],
        );

        // Engine-side gauges/counters, read off the snapshot's cumulative
        // ApgreReport (the writer thread owns the engine; scrapes must not).
        let report = &snapshot.engine.report;
        family(
            &mut out,
            "apgre_engine_vertices",
            "gauge",
            "Vertices in the served graph.",
            &[("", snapshot.engine.graph.num_vertices().to_string())],
        );
        family(
            &mut out,
            "apgre_engine_edges",
            "gauge",
            "Edges in the served graph.",
            &[("", snapshot.engine.graph.num_edges().to_string())],
        );
        family(
            &mut out,
            "apgre_engine_subgraphs",
            "gauge",
            "Sub-graphs in the engine's current decomposition.",
            &[("", snapshot.engine.num_subgraphs.to_string())],
        );
        family(
            &mut out,
            "apgre_engine_articulation_points",
            "gauge",
            "Articulation points in the engine's current decomposition.",
            &[("", snapshot.engine.num_articulation_points.to_string())],
        );
        family(
            &mut out,
            "apgre_engine_edges_traversed_total",
            "counter",
            "Edges examined by BC kernels since the engine was seeded.",
            &[("", report.edges_traversed.to_string())],
        );
        let (seq, rootpar) = report.kernel_counts;
        family(
            &mut out,
            "apgre_engine_kernel_runs_total",
            "counter",
            "Sub-graph kernel dispatches since seed, by kernel.",
            &[
                ("{kernel=\"seq\"}", seq.to_string()),
                ("{kernel=\"root_parallel\"}", rootpar.to_string()),
            ],
        );
        family(
            &mut out,
            "apgre_engine_bc_seconds_total_micros",
            "counter",
            "Cumulative BC kernel wall clock since seed, microseconds.",
            &[("", (report.bc_time.as_micros() as u64).to_string())],
        );
        family(
            &mut out,
            "apgre_engine_decomposition_seconds_total_micros",
            "counter",
            "Cumulative partition + alpha/beta wall clock since seed, microseconds.",
            &[(
                "",
                ((report.partition_time + report.alpha_beta_time).as_micros() as u64).to_string(),
            )],
        );
        out
    }
}

/// Emits one metric family: `# HELP` / `# TYPE` header lines followed by
/// one sample line per `(label-set, value)` pair.
fn family(out: &mut String, name: &str, kind: &str, help: &str, samples: &[(&str, String)]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, value) in samples {
        let _ = writeln!(out, "{name}{labels} {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_bc::ApgreOptions;
    use apgre_dynamic::{BatchClass, DynamicBc, MutationBatch};
    use apgre_graph::Graph;

    #[test]
    fn render_contains_every_family_and_reflects_updates() {
        let g = Graph::undirected_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut engine = DynamicBc::new(&g, ApgreOptions::default());
        let snap = BcSnapshot::new(engine.snapshot(), 3, 7);

        let m = Metrics::default();
        Metrics::inc(&m.bc_requests);
        Metrics::inc(&m.bc_requests);
        Metrics::inc(&m.mutate_rejected);
        // A real spliced batch (path graph: adding a chord restructures).
        let rep = engine.apply(&MutationBatch::new().add_edge(0, 2));
        assert_eq!(rep.class, BatchClass::Structural);
        assert!(!rep.rebuilt);
        m.record_batch(&rep, 4);

        let text = m.render(&snap);
        assert!(text.contains("apgre_serve_requests_total{endpoint=\"bc\"} 2"));
        assert!(text.contains("apgre_serve_mutations_rejected_total 1"));
        assert!(text.contains("apgre_serve_batches_total{class=\"structural\"} 1"));
        assert!(text.contains("apgre_serve_structural_batches_total{path=\"splice\"} 1"));
        assert!(text.contains("apgre_serve_structural_batches_total{path=\"rebuild\"} 0"));
        assert!(text.contains("apgre_serve_mutations_applied_total 4"));
        assert!(text.contains("apgre_serve_snapshot_seq 3"));
        assert!(text.contains("apgre_serve_snapshot_generation 7"));
        assert!(text.contains("apgre_engine_vertices 5"));
        assert!(text.contains("apgre_engine_kernel_runs_total{kernel=\"seq\"}"));
        assert!(text.contains("apgre_engine_decomp_maintain_seconds_count 1"));
        assert!(text.contains("apgre_engine_decomp_maintain_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("apgre_engine_decomp_rebuild_seconds_count 0"));
        assert!(text.contains("apgre_serve_publish_seconds_count 0"));
        assert!(text.contains("apgre_serve_approx_subgraphs_total{kind=\"resampled\"} 0"));
        assert!(text.contains("apgre_serve_approx_subgraphs_total{kind=\"reused\"} 0"));
        assert!(text.contains("apgre_serve_approx_refresh_seconds_count 0"));
        assert!(text.contains("apgre_serve_publish_chunks_copied{kind=\"graph\"} 1"));
        assert!(text.contains("apgre_serve_publish_chunks_copied{kind=\"score\"}"));
        assert!(text.contains("apgre_serve_publish_chunks_reused{kind=\"graph\"} 0"));
        // Region-size counter reflects the splice.
        let region = format!("apgre_serve_spliced_region_blocks_total {}", rep.region_blocks);
        assert!(text.contains(&region), "missing {region}");
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn histogram_buckets_cumulate_and_split_by_latency() {
        let h = LatencyHistogram::default();
        h.observe(Duration::from_micros(300)); // <= 0.0005
        h.observe(Duration::from_millis(3)); // <= 0.005
        h.observe(Duration::from_secs(10)); // +Inf overflow
        assert_eq!(h.count(), 3);
        let mut out = String::new();
        h.render_into(&mut out, "t_seconds", "test");
        assert!(out.contains("t_seconds_bucket{le=\"0.0005\"} 1"));
        assert!(out.contains("t_seconds_bucket{le=\"0.005\"} 2"));
        assert!(out.contains("t_seconds_bucket{le=\"2.5\"} 2"));
        assert!(out.contains("t_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("t_seconds_count 3"));
        assert!(out.contains("t_seconds_sum 10.003300"));
    }

    #[test]
    fn rebuilt_batches_land_in_the_rebuild_histogram() {
        let g = Graph::directed_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut engine = DynamicBc::new(&g, ApgreOptions::default());
        let rep = engine.apply(&MutationBatch::new().add_edge(0, 2));
        assert!(rep.rebuilt, "directed edits rebuild");
        let m = Metrics::default();
        m.record_batch(&rep, 1);
        assert_eq!(m.decomp_rebuild_seconds.count(), 1);
        assert_eq!(m.decomp_maintain_seconds.count(), 0);
        assert_eq!(m.batches_rebuilt.load(Ordering::Relaxed), 1);
        assert_eq!(m.batches_spliced.load(Ordering::Relaxed), 0);
    }
}
