//! The incremental engine: per-edit partitioning over a maintained
//! decomposition, dirty-sub-graph recompute, and exact contribution
//! maintenance.

use std::sync::Arc;
use std::time::{Duration, Instant};

use apgre_approx::{SampleOptions, SampleRefresh, SampleStore};
use apgre_bc::apgre::ApgreReport;
use apgre_bc::{full_jobs, run_subgraph_kernels, ApgreOptions};
use apgre_decomp::{Decomposition, EdgeEdit, MaintainOutcome, MaintainedDecomposition};
use apgre_graph::Graph;
use apgre_store::{CowGraph, FoldStore, GraphView, Layer, PublishStats, ScoreChunks};

use crate::mutation::{Mutation, MutationBatch};

/// How a batch was handled (the cheap-to-expensive ladder).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchClass {
    /// Every mutation was a no-op (duplicate add, absent remove, self-loop,
    /// removal of an already-isolated vertex): nothing recomputed.
    #[default]
    Noop,
    /// Every effective edit was confined to existing blocks (in-place block
    /// patches): only the owning sub-graphs' kernels re-ran, indices and
    /// α/β untouched.
    Local,
    /// The block-cut tree changed shape. Either the affected region was
    /// re-decomposed and spliced in place (`rebuilt == false`) or the whole
    /// decomposition was rebuilt from scratch (`rebuilt == true`). Both
    /// commit the same way: surviving sub-graphs keep their slots and
    /// contributions, and only the rest re-run.
    Structural,
}

/// Per-batch accounting returned by [`DynamicBc::apply`].
#[derive(Clone, Debug, Default)]
pub struct DynamicReport {
    /// How the batch was classified and executed.
    pub class: BatchClass,
    /// Human-readable reason for the classification (e.g. why a batch was
    /// escalated to a full rebuild).
    pub reason: &'static str,
    /// Sub-graphs whose kernel re-ran this batch.
    pub dirty_subgraphs: usize,
    /// Sub-graphs whose stored contribution was reused unchanged.
    pub reused_contributions: usize,
    /// Mutations that changed the graph.
    pub applied_mutations: usize,
    /// Mutations that were no-ops.
    pub noop_mutations: usize,
    /// Sub-graphs in the (possibly rebuilt) decomposition after the batch.
    pub total_subgraphs: usize,
    /// Effective edge edits applied through the in-place block patch path.
    pub local_edits: usize,
    /// Effective edge edits that restructured the block-cut tree (on a full
    /// rebuild: every effective edge edit).
    pub structural_edits: usize,
    /// Sub-graphs dissolved plus created by the region splice or the
    /// rebuild (zero for patch-only batches).
    pub subgraphs_spliced: usize,
    /// Surviving sub-graphs the splice split in place (their blocks landed
    /// in two or more new merge groups).
    pub subgraphs_split: usize,
    /// Blocks whose union formed the re-decomposed region.
    pub region_blocks: usize,
    /// Whether the batch fell back to a from-scratch re-decomposition.
    pub rebuilt: bool,
    /// Time spent in incremental decomposition maintenance.
    pub maintain_time: Duration,
    /// The part of `maintain_time` spent regrouping after a region splice:
    /// merge, sub-graph diff and assembly, and the boundary/α/β refresh.
    pub regroup_time: Duration,
    /// Whether the splice regrouped locally (region plus ancestor chain)
    /// instead of re-merging the whole affected components.
    pub local_regroup: bool,
    /// Wall clock of the from-scratch re-decomposition call
    /// ([`MaintainedDecomposition::rebuild`]: decompose, content match and
    /// block-store reseed; zero unless `rebuilt`). The counterpart of
    /// `maintain_time`: the kernel re-runs and the store splice are outside
    /// both.
    pub rebuild_time: Duration,
    /// Wall clock of the whole `apply` call.
    pub wall_clock: Duration,
}

impl DynamicReport {
    fn empty(class: BatchClass, reason: &'static str) -> Self {
        DynamicReport { class, reason, ..Default::default() }
    }
}

/// The incremental BC engine.
///
/// Holds the graph as a chunked copy-on-write [`CowGraph`] (its only
/// mutable copy), a [`MaintainedDecomposition`] (the block store that lets
/// edge edits re-decompose only the affected region),
/// one local score vector per sub-graph (a slot-stable [`FoldStore`]), and
/// the folded global score vector. The same [`FoldStore`] also holds the
/// sampled estimator's estimate and squared-error spans once
/// [`enable_approx`](DynamicBc::enable_approx) ran, so both tiers share one
/// owner index and one splice per batch. After every
/// [`apply`](DynamicBc::apply) the scores equal what a from-scratch APGRE
/// run would produce on the current graph (to 1e-9 relative; bitwise for
/// the forced-`Seq` kernel against the engine's own decomposition).
///
/// Every decomposition reaches the stores as a [`MaintainOutcome`] through
/// one commit: splice both tiers by `old_to_new`, re-run the dirty kernels,
/// refold the touched vertices. Every batch — including vertex additions
/// and removals, which lower to edge edits — goes through the maintainer:
/// edits interior to one block patch it in place (class
/// [`BatchClass::Local`]), everything else re-runs Tarjan on the affected
/// blocks only and splices the result back (class
/// [`BatchClass::Structural`] with `rebuilt == false`). Sub-graphs whose
/// block set survives the splice keep their kernel contributions **by
/// index**. When the maintainer declines (directed graphs, several
/// component-bridging additions in one batch) the engine falls back to
/// [`MaintainedDecomposition::rebuild`] over the graph materialized from
/// the same [`CowGraph`]: a fresh decomposition whose survivors are
/// matched by content and vertex list, committed like any splice. The seed
/// is such a rebuild from the empty decomposition — every sub-graph
/// fresh.
///
/// The global vector is always folded **from zeros in ascending sub-graph
/// index order** rather than patched by subtract-then-add, so stored and
/// folded contributions stay exactly consistent: the fold order is the
/// batch driver's Equation-8 fold order, and no floating-point cancellation
/// error can accumulate across batches. After a maintained batch only the
/// vertices whose owning sub-graphs changed are refolded — bitwise safe
/// because every other vertex's fold input sequence is unchanged (splices
/// preserve survivors' relative order and spans).
///
/// Publishing is copy-on-write: edits land only in the chunks of their
/// endpoints and contributions are `Arc` spans in the [`FoldStore`], so
/// [`snapshot`](DynamicBc::snapshot) costs O(dirty chunks) pointer work
/// instead of materializing the graph and cloning the score vector
/// (DESIGN.md §3.11).
pub struct DynamicBc {
    opts: ApgreOptions,
    maintained: MaintainedDecomposition,
    /// The current graph; it decides which edits are effective, and
    /// snapshots share every chunk a batch did not touch.
    cow: CowGraph,
    /// One span per sub-graph and [`Layer`], same indexing as
    /// `decomposition().subgraphs`; `scores` is the Equation-8 fold of the
    /// exact layer.
    fold: FoldStore,
    scores: Vec<f64>,
    /// Lifetime accounting: structure fields mirror the *current*
    /// decomposition, timing/kernel counters accumulate across the seed run
    /// and every subsequent batch (see [`DynamicBc::report`]).
    report: ApgreReport,
    /// The report of the most recent [`DynamicBc::apply`] call.
    last_batch: Option<DynamicReport>,
    /// The incremental sampled estimator's metadata, when enabled
    /// ([`DynamicBc::enable_approx`]). The engine mirrors every splice and
    /// dirty set into it per batch (cheap bookkeeping, no kernels);
    /// resampling into `fold`'s estimate layers is deferred to
    /// [`DynamicBc::approx_snapshot`].
    approx: Option<ApproxState>,
}

/// The deferred sampled-estimator state riding inside the engine.
struct ApproxState {
    store: SampleStore,
    opts: SampleOptions,
}

impl DynamicBc {
    /// Builds the engine from an initial graph: decomposes it (a rebuild
    /// from the empty decomposition, which seeds the block store), then
    /// commits that outcome — every sub-graph kernel runs once.
    ///
    /// The graph is normalized first ([`CowGraph::from_graph`]: parallel
    /// arcs collapsed, self-loops dropped), so the engine always scores the
    /// **simple** graph. For already-simple inputs the normalization is the
    /// identity.
    pub fn new(g: &Graph, opts: ApgreOptions) -> Self {
        let cow = CowGraph::from_graph(g);
        let mut maintained = MaintainedDecomposition::empty(&opts.partition);
        let seed = maintained.rebuild(&cow.view().to_graph());
        let report = ApgreReport::new(maintained.decomp(), &opts, &[]);
        let mut engine = DynamicBc {
            opts,
            maintained,
            cow,
            fold: FoldStore::default(),
            scores: Vec::new(),
            report,
            last_batch: None,
            approx: None,
        };
        engine.commit(seed);
        engine
    }

    /// Turns on the incremental sampled estimator with the given sampling
    /// parameters. Every sub-graph starts pending; the first
    /// [`DynamicBc::approx_snapshot`] pays the full composed-estimator
    /// cost, subsequent ones resample only what batches dirtied.
    pub fn enable_approx(&mut self, sopts: SampleOptions) {
        self.approx =
            Some(ApproxState { store: SampleStore::seed(self.maintained.decomp()), opts: sopts });
    }

    /// Whether [`DynamicBc::enable_approx`] was called.
    pub fn approx_enabled(&self) -> bool {
        self.approx.is_some()
    }

    /// Refreshes the incremental sampled estimator — resampling exactly the
    /// sub-graphs dirtied since the last refresh — and publishes its
    /// estimates as immutable chunks. Returns `None` when the estimator is
    /// disabled.
    ///
    /// Determinism contract: the returned estimates are bitwise-identical
    /// to [`apgre_approx::bc_sampled_from_decomposition`] on the engine's
    /// current decomposition with the same [`SampleOptions`] (asserted
    /// after every refresh under `--features invariants`).
    pub fn approx_snapshot(&mut self) -> Option<ApproxSnapshot> {
        let ap = self.approx.as_mut()?;
        let refresh =
            ap.store.refresh(&mut self.fold, self.maintained.decomp(), &self.opts, &ap.opts);
        Some(ApproxSnapshot {
            estimates: self.fold.layer_chunks(Layer::Estimate),
            stderr_sq: self.fold.layer_chunks(Layer::ErrSq),
            refresh,
            options: ap.opts.clone(),
        })
    }

    /// The current global BC scores (ordered-pair convention, matching
    /// [`apgre_bc::bc_apgre`]), indexed by vertex id.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Lifetime accounting in [`ApgreReport`] shape, borrowed for free.
    ///
    /// Structure fields (`num_subgraphs`, `top_subgraph_*`, `total_roots`,
    /// `total_whiskers`, articulation count) mirror the **current**
    /// decomposition; the timing and kernel counters (`partition_time`,
    /// `alpha_beta_time`, `bc_time`, `edges_traversed`, `kernel_counts`)
    /// **accumulate** across the seed run and every batch — the shape a
    /// long-running service wants for monotonic metrics counters.
    pub fn report(&self) -> &ApgreReport {
        &self.report
    }

    /// The report of the most recent [`DynamicBc::apply`] call, if any.
    pub fn last_batch(&self) -> Option<&DynamicReport> {
        self.last_batch.as_ref()
    }

    /// The options the engine was built with.
    pub fn options(&self) -> &ApgreOptions {
        &self.opts
    }

    /// Publishes the engine's current state as an immutable, `Send + Sync`
    /// [`EngineSnapshot`] a concurrent reader can hold (e.g. behind an
    /// `Arc` swapped on every publish) while the engine keeps mutating.
    ///
    /// Copy-on-write: the snapshot shares every graph chunk and score span
    /// no batch touched since the previous snapshot, so its cost is
    /// O(dirty chunks) `Arc` work, not O(V+E). Takes `&mut self` only to
    /// close the publish accounting window ([`EngineSnapshot::publish`]) —
    /// scores and graph are not mutated.
    pub fn snapshot(&mut self) -> EngineSnapshot {
        let (graph_copied, graph_total) = self.cow.take_copied();
        let (score_copied, score_live) = self.fold.take_copied();
        let publish = PublishStats {
            score_chunks_copied: score_copied,
            score_chunks_reused: score_live - score_copied,
            graph_chunks_copied: graph_copied,
            graph_chunks_reused: graph_total - graph_copied,
        };
        EngineSnapshot {
            graph: self.cow.view(),
            scores: self.fold.chunks(),
            publish,
            num_subgraphs: self.decomposition().num_subgraphs(),
            num_articulation_points: self.report.num_articulation_points,
            report: self.report.clone(),
            last_batch: self.last_batch.clone(),
        }
    }

    /// The engine's maintained decomposition — always a valid APGRE
    /// decomposition of the current graph, equivalent to a fresh
    /// `decompose` up to sub-graph indexing.
    pub fn decomposition(&self) -> &Decomposition {
        self.maintained.decomp()
    }

    /// Materializes the current graph as an immutable CSR snapshot.
    pub fn current_graph(&self) -> Graph {
        self.cow.view().to_graph()
    }

    /// Number of vertices currently tracked.
    pub fn num_vertices(&self) -> usize {
        self.cow.num_vertices()
    }

    /// Applies one batch: mutates the graph, routes the effective edits
    /// through the maintained decomposition (or the rebuild fallback),
    /// recomputes exactly the dirty sub-graphs, and refreshes the global
    /// scores. Scores are consistent with the post-batch graph on return.
    ///
    /// # Panics
    /// Panics if a mutation references a vertex id that does not exist at
    /// the point the mutation is applied (mutations earlier in the batch —
    /// including [`Mutation::AddVertex`] — are visible to later ones).
    pub fn apply(&mut self, batch: &MutationBatch) -> DynamicReport {
        let start = Instant::now();

        // Phase 1: push the batch into the graph, recording which
        // mutations actually changed state. Vertex removals lower to edge
        // removals (the id stays allocated, isolated), so the maintainer
        // sees a pure edge-edit stream; vertex additions only grow the id
        // space, which the maintainer tracks via `num_vertices`.
        let mut edits: Vec<EdgeEdit> = Vec::new();
        let mut noops = 0usize;
        for &m in batch.mutations() {
            match m {
                Mutation::AddEdge(u, v) => {
                    if self.cow.add_edge(u, v) {
                        edits.push(EdgeEdit { add: true, u, v });
                    } else {
                        noops += 1;
                    }
                }
                Mutation::RemoveEdge(u, v) => {
                    if self.cow.remove_edge(u, v) {
                        edits.push(EdgeEdit { add: false, u, v });
                    } else {
                        noops += 1;
                    }
                }
                Mutation::AddVertex => {
                    self.cow.add_vertex();
                }
                Mutation::RemoveVertex(v) => {
                    let stripped = self.cow.remove_vertex(v);
                    if stripped.is_empty() {
                        noops += 1;
                    }
                    edits.extend(stripped.into_iter().map(|(u, v)| EdgeEdit { add: false, u, v }));
                }
            }
        }
        let applied = batch.len() - noops;

        // Phase 2: route. An all-noop batch touches nothing.
        if applied == 0 {
            let mut report =
                DynamicReport::empty(BatchClass::Noop, "no mutation changed the graph");
            report.reused_contributions = self.decomposition().num_subgraphs();
            report.noop_mutations = noops;
            report.total_subgraphs = self.decomposition().num_subgraphs();
            report.wall_clock = start.elapsed();
            self.last_batch = Some(report.clone());
            return report;
        }

        // The maintainer declines what its region bound cannot cover —
        // every directed batch among them, since directed reachability is
        // not separated by articulation points the same way — and the
        // engine re-decomposes from scratch instead.
        let mut report = match self.maintained.apply_edits(self.cow.num_vertices(), &edits) {
            Ok(outcome) => self.commit(outcome),
            Err(reason) => {
                let t0 = Instant::now();
                let outcome = self.maintained.rebuild(&self.cow.view().to_graph());
                let rebuild_time = t0.elapsed();
                // The lifetime report accumulates the fresh decomposition's
                // timings; `commit` switches its structure fields over.
                let timings = self.maintained.decomp().timings;
                self.report.partition_time += timings.partition;
                self.report.alpha_beta_time += timings.alpha_beta;
                let mut report = self.commit(outcome);
                report.reason = reason;
                report.structural_edits = edits.len();
                report.rebuilt = true;
                report.rebuild_time = rebuild_time;
                report
            }
        };

        report.applied_mutations = applied;
        report.noop_mutations = noops;
        report.total_subgraphs = self.decomposition().num_subgraphs();
        report.wall_clock = start.elapsed();

        #[cfg(feature = "invariants")]
        {
            if !self.cow.is_directed() {
                self.maintained
                    .verify_against_fresh(&self.current_graph())
                    .expect("maintained decomposition diverged from fresh decompose");
            }
            let spans: Vec<(Arc<[u32]>, Arc<[f64]>)> = self
                .maintained
                .decomp()
                .subgraphs
                .iter()
                .enumerate()
                .map(|(i, sg)| (Arc::from(&sg.globals[..]), self.fold.values_of(i)))
                .collect();
            self.fold
                .verify_against_fresh(self.cow.num_vertices(), spans)
                .expect("fold store diverged from a fresh rebuild");
            let flat = self.fold.to_flat();
            assert_eq!(flat.len(), self.scores.len(), "incremental refold length drift");
            for (v, (full, inc)) in flat.iter().zip(&self.scores).enumerate() {
                assert_eq!(
                    full.to_bits(),
                    inc.to_bits(),
                    "incremental refold diverged from full refold at vertex {v}"
                );
            }
        }

        self.last_batch = Some(report.clone());
        report
    }

    /// Commits a maintenance or rebuild outcome — the only way a
    /// decomposition reaches the stores: re-runs exactly the dirty kernels,
    /// splices the span store once for both tiers (survivors keep their
    /// spans by slot), and refolds exactly the vertices whose owning
    /// sub-graphs changed.
    fn commit(&mut self, outcome: MaintainOutcome) -> DynamicReport {
        // The kernels read only the decomposition, so they run before the
        // splice: a seed's kernel workspaces are freed before its store is
        // built, and the store reuses their memory instead of adding to
        // the peak.
        let decomp = self.maintained.decomp();
        let total = decomp.num_subgraphs();
        let jobs = full_jobs(decomp, outcome.dirty.iter().copied());
        let runs = run_subgraph_kernels(decomp, &jobs, &self.opts);
        self.report.absorb(decomp, &runs);

        let new_globals: Vec<&[u32]> = decomp.subgraphs.iter().map(|sg| &sg.globals[..]).collect();
        let n = self.cow.num_vertices();
        let mut touched = self.fold.apply_splice(n, &outcome.old_to_new, &new_globals);
        if let Some(ap) = &mut self.approx {
            // Mirror the splice and the dirty set into the sampled
            // estimator's metadata; resampling itself is deferred to
            // `approx_snapshot`, so an unqueried estimator costs only this
            // bookkeeping.
            ap.store.apply_splice(&outcome.old_to_new, self.maintained.decomp());
            ap.store.mark_dirty(&outcome.dirty);
        }
        for run in runs {
            touched.extend_from_slice(&self.maintained.decomp().subgraphs[run.index].globals);
            self.fold.set_values(run.index, Arc::from(run.local));
        }
        touched.sort_unstable();
        touched.dedup();
        self.refold_touched(&touched);

        let stats = outcome.stats;
        let class = if stats.spliced { BatchClass::Structural } else { BatchClass::Local };
        let reason = if stats.spliced {
            "region splice: block-cut tree restructured in place"
        } else if stats.patched_edits > 0 {
            "all edits patched inside existing blocks"
        } else {
            "edits cancelled out: edge set unchanged"
        };
        let mut report = DynamicReport::empty(class, reason);
        report.dirty_subgraphs = outcome.dirty.len();
        report.reused_contributions = total - outcome.dirty.len();
        report.local_edits = stats.patched_edits;
        report.structural_edits = stats.structural_edits;
        report.subgraphs_spliced = stats.subgraphs_removed + stats.subgraphs_added;
        report.subgraphs_split = stats.subgraph_splits;
        report.region_blocks = stats.region_blocks;
        report.maintain_time = stats.maintain_time;
        report.regroup_time = stats.regroup_time;
        report.local_regroup = stats.local_regroup;
        report
    }

    /// Refolds exactly `touched` (sorted, deduplicated) into the flat
    /// score vector; every other entry is carried over untouched.
    ///
    /// Each refolded vertex is summed from `0.0` in ascending sub-graph
    /// index order — the exact float-add sequence of a full from-zeros
    /// refold. Untouched vertices keep their value, which is bitwise-equal
    /// to what a full refold would produce: their owning sub-graphs all
    /// survived with unchanged spans, and splices preserve survivors'
    /// relative order, so their fold input sequence is identical. Hence a
    /// forced-`Seq` engine stays bitwise-identical to
    /// `bc_from_decomposition` on the same decomposition while paying
    /// O(touched) instead of O(V) per batch.
    fn refold_touched(&mut self, touched: &[u32]) {
        self.scores.resize(self.cow.num_vertices(), 0.0);
        for &v in touched {
            self.scores[v as usize] = self.fold.fold_vertex(v);
        }
    }
}

/// An immutable, structurally-shared view of a [`DynamicBc`]'s state at
/// one instant: the chunked graph, the chunked score vector, publish
/// accounting, decomposition summary counts, and the cumulative +
/// last-batch reports.
///
/// Everything is owned or `Arc`-shared (no borrows into the engine), so
/// the snapshot is `Send + Sync` by construction and can be published
/// behind an `Arc` to concurrent readers while the engine continues to
/// mutate — chunks the engine later rewrites are copied on write, never
/// mutated in place.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    /// The graph the scores were computed on ([`GraphView::to_graph`]
    /// materializes a real CSR when one is needed, e.g. checkpointing).
    pub graph: GraphView,
    /// Global BC scores (ordered-pair convention), indexed by vertex id;
    /// [`ScoreChunks::score`] folds one vertex, [`ScoreChunks::to_vec`]
    /// the whole vector — both bitwise-equal to the engine's flat scores.
    pub scores: ScoreChunks,
    /// Chunk-reuse accounting for this publish: what this snapshot had to
    /// copy versus what it shares with the previous one.
    pub publish: PublishStats,
    /// Sub-graphs in the engine's decomposition at snapshot time.
    pub num_subgraphs: usize,
    /// Articulation points in the engine's decomposition at snapshot time.
    pub num_articulation_points: usize,
    /// Cumulative accounting (see [`DynamicBc::report`]).
    pub report: ApgreReport,
    /// The report of the batch applied most recently before the snapshot.
    pub last_batch: Option<DynamicReport>,
}

/// An immutable publication of the incremental sampled estimator
/// ([`DynamicBc::approx_snapshot`]): `Arc`-shared estimate spans plus the
/// refresh accounting, `Send + Sync` like [`EngineSnapshot`]. Both layers
/// are snapshots of the engine's one span store, so they share every
/// owner-index chunk with each other and with [`EngineSnapshot::scores`].
#[derive(Clone, Debug)]
pub struct ApproxSnapshot {
    /// Sampled BC estimates, indexed by vertex id ([`ScoreChunks::score`]
    /// folds one vertex on demand).
    pub estimates: ScoreChunks,
    /// Squared per-vertex standard errors, same span layout as
    /// `estimates`; fold a vertex and take the square root to recover its
    /// standard error. Zero wherever every owning span is exhaustive.
    pub stderr_sq: ScoreChunks,
    /// What the refresh producing this snapshot resampled vs reused.
    pub refresh: SampleRefresh,
    /// The sampling parameters the estimates were drawn with.
    pub options: SampleOptions,
}

impl ApproxSnapshot {
    /// One vertex's standard error (square root of the folded squared
    /// errors).
    pub fn stderr(&self, v: usize) -> f64 {
        self.stderr_sq.score(v).sqrt()
    }

    /// The largest per-vertex standard error in this snapshot (0 when
    /// every span is exhaustive), folded from `stderr_sq` on each call.
    pub fn stderr_max(&self) -> f64 {
        self.stderr_sq.to_vec().into_iter().fold(0.0f64, f64::max).sqrt()
    }
}

/// One-shot convenience and serial-oracle anchor: builds a [`DynamicBc`]
/// over `g`, replays `batches` in order, and returns the final scores —
/// equal (1e-9 relative) to a from-scratch APGRE/Brandes run on the final
/// graph.
pub fn bc_dynamic(g: &Graph, batches: &[MutationBatch], opts: &ApgreOptions) -> Vec<f64> {
    let mut engine = DynamicBc::new(g, opts.clone());
    for batch in batches {
        engine.apply(batch);
    }
    engine.scores().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_bc::bc_serial;
    use apgre_decomp::PartitionOptions;

    /// Unmerged decomposition: on the tiny test graphs below, the default
    /// `merge_threshold` folds everything into one sub-graph, which would
    /// make every edge edit trivially local. Threshold 0 keeps the BCCs
    /// separate so both classification paths are exercised.
    fn fine_opts() -> ApgreOptions {
        ApgreOptions {
            partition: PartitionOptions { merge_threshold: 0, ..Default::default() },
            ..Default::default()
        }
    }

    fn assert_close(ctx: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{ctx}");
        for i in 0..want.len() {
            assert!(
                (got[i] - want[i]).abs() <= 1e-9 * (1.0 + got[i].abs().max(want[i].abs())),
                "{ctx}: vertex {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    /// Two triangles joined at an articulation point, each with a whisker.
    fn two_triangles() -> Graph {
        Graph::undirected_from_edges(
            8,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (0, 5), (4, 6)],
        )
    }

    /// A K4 and a triangle joined at articulation vertex 3, whiskers on
    /// each side. Removing one K4 chord leaves the block biconnected on
    /// the same vertex set — a true in-place patch.
    fn clique_and_triangle() -> Graph {
        Graph::undirected_from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 6),
                (4, 7),
            ],
        )
    }

    #[test]
    fn initial_scores_match_serial() {
        let g = two_triangles();
        let engine = DynamicBc::new(&g, ApgreOptions::default());
        assert_close("init", engine.scores(), &bc_serial(&g));
    }

    #[test]
    fn chord_edit_patches_one_subgraph() {
        let g = clique_and_triangle();
        let mut engine = DynamicBc::new(&g, fine_opts());
        // The K4 {0,1,2,3} is its own sub-graph at threshold 0. Removing
        // chord 1-2 keeps it biconnected on the same vertex set, so the
        // edit patches the block in place and dirties exactly one
        // sub-graph.
        let rep = engine.apply(&MutationBatch::new().remove_edge(1, 2));
        assert_eq!(rep.class, BatchClass::Local, "{}", rep.reason);
        assert_eq!(rep.dirty_subgraphs, 1);
        assert_eq!(rep.local_edits, 1);
        assert_eq!(rep.structural_edits, 0);
        assert!(!rep.rebuilt);
        assert_eq!(rep.reused_contributions, rep.total_subgraphs - 1);
        assert_close("chord off", engine.scores(), &bc_serial(&engine.current_graph()));
        // Putting it back is a chord addition — also an in-place patch.
        let rep = engine.apply(&MutationBatch::new().add_edge(1, 2));
        assert_eq!(rep.class, BatchClass::Local, "{}", rep.reason);
        assert_close("chord on", engine.scores(), &bc_serial(&engine.current_graph()));
        assert_close("back to start", engine.scores(), &bc_serial(&g));
    }

    #[test]
    fn block_splitting_edit_is_structural_splice() {
        let g = two_triangles();
        let mut engine = DynamicBc::new(&g, fine_opts());
        // Removing chord 0-2 from triangle {0,1,2} keeps the sub-graph
        // connected but splits the block into two bridges (vertex 1
        // becomes an articulation point): a region splice, not a patch.
        let rep = engine.apply(&MutationBatch::new().remove_edge(0, 2));
        assert_eq!(rep.class, BatchClass::Structural, "{}", rep.reason);
        assert!(!rep.rebuilt, "handled by the maintainer, not a rebuild");
        assert!(rep.subgraphs_spliced > 0);
        assert_close("split", engine.scores(), &bc_serial(&engine.current_graph()));
        let rep = engine.apply(&MutationBatch::new().add_edge(0, 2));
        assert_eq!(rep.class, BatchClass::Structural, "{}", rep.reason);
        assert!(!rep.rebuilt);
        assert_close("merged back", engine.scores(), &bc_serial(&engine.current_graph()));
        assert_close("back to start", engine.scores(), &bc_serial(&g));
    }

    #[test]
    fn mixed_batch_splits_cheap_and_structural_edits() {
        let g = clique_and_triangle();
        let mut engine = DynamicBc::new(&g, fine_opts());
        // One chord toggle inside the K4 (patchable) plus one bridge
        // between the whisker tips (restructures): the chord must ride the
        // cheap path even though the batch as a whole is structural.
        let rep = engine.apply(&MutationBatch::new().remove_edge(1, 2).add_edge(6, 7));
        assert_eq!(rep.class, BatchClass::Structural, "{}", rep.reason);
        assert!(!rep.rebuilt, "maintained, not rebuilt");
        assert_eq!(rep.local_edits, 1, "the chord removal patched in place");
        assert_eq!(rep.structural_edits, 1, "only the bridge spliced");
        assert!(rep.region_blocks > 0);
        assert!(rep.maintain_time > Duration::ZERO);
        assert!(rep.regroup_time > Duration::ZERO && rep.regroup_time <= rep.maintain_time);
        assert_eq!(rep.rebuild_time, Duration::ZERO);
        assert_close("mixed", engine.scores(), &bc_serial(&engine.current_graph()));
    }

    #[test]
    fn net_zero_batch_is_effective_but_exact() {
        let g = two_triangles();
        let mut engine = DynamicBc::new(&g, ApgreOptions::default());
        // remove+add of the same edge nets to no change of the edge set but
        // both edits are effective (each changed state when applied).
        let rep = engine.apply(&MutationBatch::new().remove_edge(0, 1).add_edge(0, 1));
        assert_eq!(rep.applied_mutations, 2);
        assert_eq!(rep.class, BatchClass::Local, "{}", rep.reason);
        assert_eq!(rep.dirty_subgraphs, 0, "cancelled edits re-run nothing");
        assert_close("net-zero batch", engine.scores(), &bc_serial(&engine.current_graph()));
    }

    #[test]
    fn noop_batch_reuses_everything() {
        let g = two_triangles();
        let mut engine = DynamicBc::new(&g, ApgreOptions::default());
        let before = engine.scores().to_vec();
        let rep = engine.apply(&MutationBatch::new().add_edge(0, 1).remove_edge(0, 7));
        assert_eq!(rep.class, BatchClass::Noop);
        assert_eq!(rep.dirty_subgraphs, 0);
        assert_eq!(rep.noop_mutations, 2);
        assert_eq!(engine.scores(), &before[..], "noop batch is bitwise stable");
    }

    #[test]
    fn structural_bridge_add() {
        let g = two_triangles();
        let mut engine = DynamicBc::new(&g, fine_opts());
        // Whisker tip 5 to whisker tip 6: merges structure across the
        // articulation point — a splice, and still exact.
        let rep = engine.apply(&MutationBatch::new().add_edge(5, 6));
        assert_eq!(rep.class, BatchClass::Structural);
        assert!(!rep.rebuilt);
        assert_close("bridge", engine.scores(), &bc_serial(&engine.current_graph()));
    }

    #[test]
    fn vertex_mutations_are_structural_and_exact() {
        let g = two_triangles();
        let mut engine = DynamicBc::new(&g, ApgreOptions::default());
        let rep = engine.apply(&MutationBatch::new().add_vertex().add_edge(8, 2));
        assert_eq!(rep.class, BatchClass::Structural);
        assert!(!rep.rebuilt, "vertex growth + attachment is maintainable");
        assert_eq!(engine.num_vertices(), 9);
        assert_close("grow", engine.scores(), &bc_serial(&engine.current_graph()));
        // Removing a hub lowers to edge removals — still maintained.
        let rep = engine.apply(&MutationBatch::new().remove_vertex(2));
        assert_eq!(rep.class, BatchClass::Structural);
        assert!(!rep.rebuilt);
        assert_close("strip hub", engine.scores(), &bc_serial(&engine.current_graph()));
        // Stripping an already-isolated vertex is a noop.
        let rep = engine.apply(&MutationBatch::new().remove_vertex(2));
        assert_eq!(rep.class, BatchClass::Noop);
    }

    #[test]
    fn whisker_add_and_remove_stay_correct() {
        let g = two_triangles();
        let mut engine = DynamicBc::new(&g, fine_opts());
        // Remove whisker edge 0-5: vertex 5 becomes isolated (component
        // split — handled by the splice path's per-component re-merge).
        let rep = engine.apply(&MutationBatch::new().remove_edge(0, 5));
        assert_eq!(rep.class, BatchClass::Structural);
        assert!(!rep.rebuilt);
        assert_close("whisker off", engine.scores(), &bc_serial(&engine.current_graph()));
        let rep = engine.apply(&MutationBatch::new().add_edge(0, 5));
        assert_eq!(rep.class, BatchClass::Structural, "reattach joins components");
        assert!(!rep.rebuilt, "a single component bridge is maintainable");
        assert_close("whisker on", engine.scores(), &bc_serial(&engine.current_graph()));
    }

    #[test]
    fn directed_always_rebuilds() {
        let g = Graph::directed_from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]);
        let mut engine = DynamicBc::new(&g, ApgreOptions::default());
        let rep = engine.apply(&MutationBatch::new().add_edge(1, 3));
        assert_eq!(rep.class, BatchClass::Structural);
        assert!(rep.rebuilt);
        assert!(rep.rebuild_time > Duration::ZERO);
        assert_close("directed", engine.scores(), &bc_serial(&engine.current_graph()));
    }

    #[test]
    fn report_accumulates_and_tracks_structure() {
        // The structure fields `absorb` keeps incrementally must equal a
        // report built from scratch over the same decomposition.
        let structure = |r: &ApgreReport| {
            (
                (r.num_subgraphs, r.num_articulation_points),
                (r.top_subgraph_vertices, r.top_subgraph_edges),
                (r.total_roots, r.total_whiskers),
            )
        };
        let fresh = |engine: &DynamicBc| {
            let d = engine.decomposition();
            let mut report = ApgreReport::new(d, engine.options(), &[]);
            // Recount the flags: the decomposition's own counter is under
            // test too.
            report.num_articulation_points = d.is_articulation.iter().filter(|&&a| a).count();
            structure(&report)
        };
        let g = clique_and_triangle();
        let mut engine = DynamicBc::new(&g, fine_opts());
        let seed = engine.report().clone();
        assert_eq!(seed.num_subgraphs, engine.decomposition().num_subgraphs());
        let seed_kernels = seed.kernel_counts.0 + seed.kernel_counts.1;
        assert_eq!(seed_kernels, seed.num_subgraphs, "seed run touches every sub-graph");
        assert!(engine.last_batch().is_none(), "no batch applied yet");

        // A patch batch re-runs exactly one kernel: counters grow by one.
        let rep = engine.apply(&MutationBatch::new().remove_edge(1, 2));
        assert_eq!(rep.class, BatchClass::Local, "{}", rep.reason);
        let after = engine.report();
        let after_kernels = after.kernel_counts.0 + after.kernel_counts.1;
        assert_eq!(after_kernels, seed_kernels + 1);
        assert!(after.edges_traversed >= seed.edges_traversed);
        assert_eq!(engine.last_batch().unwrap().class, BatchClass::Local);
        assert_eq!(structure(after), fresh(&engine), "structure after a Local batch");

        // A structural batch splices: structure mirrors the updated
        // decomposition, counters keep accumulating.
        engine.apply(&MutationBatch::new().add_edge(6, 7));
        let after = engine.report();
        assert_eq!(after.num_subgraphs, engine.decomposition().num_subgraphs());
        assert_eq!(engine.last_batch().unwrap().class, BatchClass::Structural);
        assert_eq!(structure(after), fresh(&engine), "structure after a Structural batch");
    }

    #[test]
    fn seed_report_counters_equal_the_batch_drivers() {
        // One accounting for both drivers: on the same decomposition the
        // engine's seed report and `bc_from_decomposition`'s agree on every
        // structure and work counter, including the grain the kernels ran
        // with (a configured grain of 0 runs as 1).
        let opts = ApgreOptions { grain: 0, ..fine_opts() };
        let engine = DynamicBc::new(&clique_and_triangle(), opts.clone());
        let g = engine.current_graph();
        let (_, batch) = apgre_bc::bc_from_decomposition(&g, engine.decomposition(), &opts);
        let counters = |r: &ApgreReport| {
            (
                (r.num_subgraphs, r.num_articulation_points, r.total_roots, r.total_whiskers),
                (r.top_subgraph_vertices, r.top_subgraph_edges, r.edges_traversed),
                (r.kernel_counts, r.top_subgraph_kernel, r.grain),
            )
        };
        assert_eq!(counters(engine.report()), counters(&batch));
        assert_eq!(batch.grain, 1);
    }

    #[test]
    fn snapshot_is_immutable_copy() {
        let g = clique_and_triangle();
        let mut engine = DynamicBc::new(&g, fine_opts());
        let snap = engine.snapshot();
        assert_eq!(snap.scores.to_vec(), engine.scores());
        assert_eq!(snap.graph.num_edges(), engine.current_graph().num_edges());
        assert!(snap.last_batch.is_none());

        // Mutating the engine must not affect the already-taken snapshot.
        engine.apply(&MutationBatch::new().remove_edge(1, 2));
        assert_ne!(snap.scores.to_vec(), engine.scores(), "engine moved on");
        assert_close(
            "snapshot still scores the old graph",
            &snap.scores.to_vec(),
            &bc_serial(&snap.graph.to_graph()),
        );

        let snap2 = engine.snapshot();
        assert_eq!(snap2.scores.to_vec(), engine.scores());
        assert_eq!(snap2.last_batch.as_ref().unwrap().class, BatchClass::Local);

        // Snapshots are Send + Sync by construction.
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&snap2);
    }

    #[test]
    fn publish_shares_everything_a_batch_did_not_touch() {
        let g = clique_and_triangle();
        let mut engine = DynamicBc::new(&g, fine_opts());
        let first = engine.snapshot();
        assert!(first.publish.score_chunks_copied > 0, "seed build copies everything");

        // Nothing mutated since: a second publish copies zero chunks.
        let second = engine.snapshot();
        assert_eq!(second.publish.score_chunks_copied, 0);
        assert_eq!(second.publish.graph_chunks_copied, 0);
        assert_eq!(second.publish.score_chunks_reused, second.num_subgraphs);
        assert!(second.publish.graph_chunks_reused > 0);

        // A local chord toggle dirties exactly one sub-graph span; the
        // graph fits one adjacency chunk, which the edit touched.
        let rep = engine.apply(&MutationBatch::new().remove_edge(1, 2));
        assert_eq!(rep.class, BatchClass::Local, "{}", rep.reason);
        let third = engine.snapshot();
        assert_eq!(third.publish.score_chunks_copied, 1);
        assert_eq!(third.publish.score_chunks_reused, third.num_subgraphs - 1);
        assert_eq!(third.publish.graph_chunks_copied, 1);
        let shared = (0..third.num_subgraphs)
            .filter(|&i| first.scores.shares_span(&third.scores, i))
            .count();
        assert_eq!(shared, third.num_subgraphs - 1, "only the K4 span was replaced");
    }

    #[test]
    fn snapshot_scores_are_bitwise_the_engine_scores() {
        let g = two_triangles();
        let mut engine = DynamicBc::new(&g, fine_opts());
        // Exercise every path: patch, splice, merge, vertex growth and
        // removal — the incremental refold plus the chunked per-vertex fold
        // must stay bitwise-equal to the engine's flat vector throughout.
        let batches = [
            MutationBatch::new().remove_edge(0, 2),
            MutationBatch::new().add_edge(0, 2).add_edge(5, 6),
            MutationBatch::new().remove_edge(5, 6),
            MutationBatch::new().add_vertex().add_edge(8, 2),
            MutationBatch::new().remove_vertex(4),
        ];
        for (i, b) in batches.iter().enumerate() {
            engine.apply(b);
            let snap = engine.snapshot();
            let flat = snap.scores.to_vec();
            assert_eq!(flat.len(), engine.scores().len(), "batch {i}");
            for (v, (chunked, eng)) in flat.iter().zip(engine.scores()).enumerate() {
                assert_eq!(chunked.to_bits(), eng.to_bits(), "batch {i} vertex {v}");
                assert_eq!(
                    snap.scores.score(v).to_bits(),
                    eng.to_bits(),
                    "batch {i} vertex {v} single-vertex fold"
                );
            }
        }
    }

    #[test]
    fn exact_and_estimate_snapshots_share_one_index() {
        use apgre_approx::bc_sampled_with_stderr_from_decomposition;
        use apgre_bc::KernelPolicy;
        use apgre_graph::generators::{whiskered_community, WhiskeredCommunityParams};
        use apgre_store::INDEX_CHUNK_SIZE;

        let g = whiskered_community(&WhiskeredCommunityParams {
            core_vertices: 300,
            core_attach: 3,
            community_count: 12,
            community_size: 30,
            community_density: 1.8,
            whiskers: 1_000,
            seed: 77,
        });
        let opts = ApgreOptions { kernel: KernelPolicy::Seq, ..Default::default() };
        let sopts = SampleOptions::uniform(4, 0x1DE7);
        let mut engine = DynamicBc::new(&g, opts.clone());
        engine.enable_approx(sopts.clone());
        let chunks = engine.num_vertices().div_ceil(INDEX_CHUNK_SIZE);
        assert!(chunks >= 2, "the graph spans several index chunks");
        // All three layers are snapshots of one store: one owner index.
        let shared = |snap: &EngineSnapshot, ap: &ApproxSnapshot| {
            (0..chunks).all(|c| {
                snap.scores.shares_index_chunk(&ap.estimates, c)
                    && ap.estimates.shares_index_chunk(&ap.stderr_sq, c)
            })
        };

        // The seeding refresh writes every estimate span, yet the publish
        // after it copies no exact span.
        engine.snapshot();
        let ap = engine.approx_snapshot().expect("estimator enabled");
        assert_eq!(ap.refresh.resampled, engine.decomposition().num_subgraphs());
        let snap = engine.snapshot();
        assert_eq!(snap.publish.score_chunks_copied, 0, "estimate writes are not exact copies");
        assert!(shared(&snap, &ap), "seeded engine");

        // Join two whiskers of different sub-graphs: a new cycle through the
        // block-cut tree, so the decomposition splices.
        let whiskers: Vec<u32> = engine
            .decomposition()
            .subgraphs
            .iter()
            .filter_map(|sg| Some(sg.global_of(sg.is_whisker.iter().position(|&w| w)? as u32)))
            .collect();
        assert!(whiskers.len() >= 2, "two sub-graphs with whiskers");
        let rep = engine.apply(&MutationBatch::new().add_edge(whiskers[0], whiskers[1]));
        assert_eq!(rep.class, BatchClass::Structural, "{}", rep.reason);
        assert!(!rep.rebuilt && rep.subgraphs_spliced > 0);
        let ap = engine.approx_snapshot().expect("estimator enabled");
        assert!(ap.refresh.resampled > 0);
        let snap = engine.snapshot();
        assert!(shared(&snap, &ap), "spliced engine");
        // Exactly the exact spans the batch replaced were copied: every
        // dirty sub-graph's (fresh ones included), none of the estimator's.
        assert_eq!(snap.publish.score_chunks_copied, rep.dirty_subgraphs);
        let (want, _) = bc_sampled_with_stderr_from_decomposition(
            engine.decomposition(),
            engine.options(),
            &sopts,
        );
        for (v, (got, want)) in ap.estimates.to_vec().iter().zip(&want).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "vertex {v} estimate");
        }
    }

    #[test]
    fn directed_rebuild_carries_every_matching_estimate() {
        // Two directed cycles sharing vertex 3, plus a tail: several
        // sub-graphs at threshold 0, the first with more roots than the
        // sample cap.
        let g = Graph::directed_from_edges(
            9,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (3, 5), (5, 6), (6, 3), (6, 7), (7, 8)],
        );
        let sopts = SampleOptions::uniform(3, 7);
        let mut engine = DynamicBc::new(&g, fine_opts());
        engine.enable_approx(sopts.clone());
        let first = engine.approx_snapshot().expect("estimator enabled");
        assert_eq!(first.refresh.resampled, engine.decomposition().num_subgraphs());

        // Adding and then removing the same arc rebuilds an identical
        // decomposition: every span carries, none resamples.
        let rep = engine.apply(&MutationBatch::new().add_edge(0, 2).remove_edge(0, 2));
        assert!(rep.rebuilt, "a directed batch rebuilds");
        assert_eq!(rep.dirty_subgraphs, 0, "every exact span carries");
        let ap = engine.approx_snapshot().expect("estimator enabled");
        assert_eq!(ap.refresh.resampled, 0, "identical rebuild must carry every estimate span");
        assert_eq!(ap.estimates.to_vec(), first.estimates.to_vec());
        assert_eq!(ap.stderr_sq.to_vec(), first.stderr_sq.to_vec());
    }

    #[test]
    fn rebuild_resamples_a_carried_span_that_was_pending() {
        use apgre_approx::bc_sampled_with_stderr_from_decomposition;

        // `clique_and_triangle` plus three isolated vertices.
        let g = Graph::undirected_from_edges(
            11,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 6),
                (4, 7),
            ],
        );
        let sopts = SampleOptions::uniform(2, 5);
        let mut engine = DynamicBc::new(&g, fine_opts());
        engine.enable_approx(sopts.clone());
        engine.approx_snapshot().expect("estimator enabled");

        // A chord patch dirties the K4 span; no refresh follows.
        let rep = engine.apply(&MutationBatch::new().remove_edge(1, 2));
        assert_eq!(rep.class, BatchClass::Local, "{}", rep.reason);
        // Two component-bridging additions: the maintainer declines and the
        // engine rebuilds. The K4's content is unchanged by this batch, so
        // its spans carry by fingerprint — but its estimate was drawn
        // against the content before the chord and must resample.
        let rep = engine.apply(&MutationBatch::new().add_edge(8, 9).add_edge(9, 10));
        assert!(rep.rebuilt, "{}", rep.reason);
        let ap = engine.approx_snapshot().expect("estimator enabled");
        let (want, want_err) = bc_sampled_with_stderr_from_decomposition(
            engine.decomposition(),
            engine.options(),
            &sopts,
        );
        for v in 0..want.len() {
            assert_eq!(ap.estimates.score(v).to_bits(), want[v].to_bits(), "vertex {v} estimate");
            assert_eq!(ap.stderr(v).to_bits(), want_err[v].to_bits(), "vertex {v} stderr");
        }
    }

    #[test]
    fn rebuild_keeps_the_survivors_fold_order() {
        use apgre_bc::KernelPolicy;

        // Hub 0 is one of the k middle vertices of three K_{2,k} blocks
        // (k = 5, 3, 7), so it carries 1/k of its corners' shortest paths
        // and folds three non-dyadic survivor contributions, whose sum
        // rounds differently when the survivors commit in reverse order.
        // Vertices 19..=21 start isolated.
        let mut edges = Vec::new();
        let mut next = 1u32;
        for k in [5u32, 3, 7] {
            let (p, q) = (next, next + 1);
            edges.extend([(p, 0), (0, q)]);
            for mid in next + 2..next + k + 1 {
                edges.extend([(p, mid), (mid, q)]);
            }
            next += k + 1;
        }
        assert_eq!(next, 19);
        let g = Graph::undirected_from_edges(22, &edges);
        let opts = ApgreOptions { kernel: KernelPolicy::Seq, ..fine_opts() };
        let mut engine = DynamicBc::new(&g, opts.clone());
        let rep = engine.apply(&MutationBatch::new().add_edge(19, 20).add_edge(20, 21));
        assert!(rep.rebuilt, "{}", rep.reason);
        assert_eq!(rep.reused_contributions, 3, "the three blocks survive");
        let (anchor, _) =
            apgre_bc::bc_from_decomposition(&engine.current_graph(), engine.decomposition(), &opts);
        for (v, (got, want)) in engine.scores().iter().zip(&anchor).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "vertex {v}");
        }
    }

    #[test]
    fn bc_dynamic_matches_serial_replay() {
        let g = two_triangles();
        let batches = vec![
            MutationBatch::new().add_edge(1, 4),
            MutationBatch::new().remove_edge(2, 3),
            MutationBatch::new().add_vertex().add_edge(8, 1).add_edge(8, 0),
        ];
        let got = bc_dynamic(&g, &batches, &ApgreOptions::default());
        let mut engine = DynamicBc::new(&g, ApgreOptions::default());
        for b in &batches {
            engine.apply(b);
        }
        assert_close("bc_dynamic replay", &got, &bc_serial(&engine.current_graph()));
    }
}
