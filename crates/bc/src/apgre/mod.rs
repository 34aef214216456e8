//! APGRE — articulation-points-guided redundancy elimination for BC
//! (the paper's Figure 5 driver plus the two-level parallelization of §4).
//!
//! Three steps:
//!
//! 1. decompose the graph through articulation points
//!    ([`apgre_decomp::decompose`] — Algorithm 1 + α/β/γ counting),
//! 2. for every sub-graph, run the four-dependency kernel
//!    (the [`kernel`] module — Algorithm 2),
//! 3. merge per-sub-graph scores: an articulation point's BC is the sum of
//!    its local scores (Equation 8).
//!
//! Parallelism is two-level: **coarse-grained asynchronous across
//! sub-graphs** (a rayon parallel iterator, largest sub-graph first so the
//! dominant task starts immediately) and, within a sub-graph, one of the
//! [`kernel`] module's strategies, selected per sub-graph by
//! [`KernelPolicy`] from its root count and size (DESIGN.md §3.7). Both
//! levels share one rayon pool, so the root-parallel chunks of the top
//! sub-graph soak up workers once the small sub-graphs drain — the
//! behaviour §5.4 describes.
//!
//! One scheduler, [`run_subgraph_kernels`], dispatches every sub-graph job
//! for the batch driver, the weighted driver, the incremental engine and
//! the sampled estimator. Each worker builds one kernel workspace and
//! reuses it, grown in place, for every job it runs. Runs come back in
//! **ascending sub-graph index order** regardless of completion order, and
//! the Equation-8 merge folds them in that order — the floating-point fold
//! order is fixed, keeping whole-run results bitwise deterministic (and the
//! golden checksums stable).

pub mod kernel;

use apgre_decomp::{decompose, Decomposition, PartitionOptions};
use apgre_graph::{Graph, VertexId};
use kernel::{bc_in_subgraph, SubGraphView};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Default scheduling grain: minimum roots per root-parallel chunk, and the
/// unit of the `Auto` size thresholds.
pub const DEFAULT_GRAIN: usize = 256;

/// Per-sub-graph kernel scheduling policy (DESIGN.md §3.7).
///
/// The two forced variants pin every sub-graph to one kernel; [`Auto`]
/// picks per sub-graph from the decomposition statistics.
///
/// [`Auto`]: KernelPolicy::Auto
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Always the sequential sweep ([`KernelChoice::Seq`]).
    Seq,
    /// Always the root-parallel sweep ([`KernelChoice::RootParallel`]).
    RootParallel,
    /// Choose per sub-graph — see [`KernelPolicy::choose`].
    Auto,
}

/// The kernel actually dispatched for one sub-graph (the resolution of a
/// [`KernelPolicy`], passed to [`kernel::bc_in_subgraph`] and reported in
/// [`ApgreReport::kernel_counts`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelChoice {
    /// Sequential sweep.
    Seq,
    /// Coarse-grained root-parallel sweep.
    RootParallel,
}

impl KernelPolicy {
    /// Resolves the policy for one sub-graph.
    ///
    /// `Auto` takes the atomic-free coarse kernel
    /// ([`RootParallel`](KernelChoice::RootParallel)) when all of these
    /// hold, and [`Seq`](KernelChoice::Seq) otherwise:
    ///
    /// * more than one worker;
    /// * **big enough** — at least one grain of vertices and total sweep
    ///   work (`roots · edges`) of at least ~8 grain² edge visits, so the
    ///   fork overhead amortizes;
    /// * **root-rich** — at least two roots per worker, so chunked roots
    ///   feed every worker with whole sequential sweeps. A root-starved
    ///   sub-graph has no wide level to split either: a sweep reaches only
    ///   roots (DESIGN.md §3.7).
    pub fn choose(
        self,
        roots: usize,
        vertices: usize,
        edges: usize,
        threads: usize,
        grain: usize,
    ) -> KernelChoice {
        let grain = grain.max(1);
        match self {
            KernelPolicy::Seq => KernelChoice::Seq,
            KernelPolicy::RootParallel => KernelChoice::RootParallel,
            KernelPolicy::Auto => {
                let work = roots.saturating_mul(edges.max(1));
                let min_work = grain.saturating_mul(grain).saturating_mul(8);
                let big = vertices >= grain && work >= min_work;
                if threads > 1 && big && roots >= threads.saturating_mul(2) {
                    KernelChoice::RootParallel
                } else {
                    KernelChoice::Seq
                }
            }
        }
    }
}

impl std::str::FromStr for KernelPolicy {
    type Err = String;

    /// Parses the CLI spellings `auto`, `seq`, `rootpar`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(KernelPolicy::Auto),
            "seq" => Ok(KernelPolicy::Seq),
            "rootpar" | "root-parallel" => Ok(KernelPolicy::RootParallel),
            other => Err(format!("unknown kernel policy `{other}` (want auto|seq|rootpar)")),
        }
    }
}

/// Options for [`bc_apgre_with`].
#[derive(Clone, Debug)]
pub struct ApgreOptions {
    /// Decomposition options (merge threshold, α/β method).
    pub partition: PartitionOptions,
    /// Per-sub-graph kernel selection.
    pub kernel: KernelPolicy,
    /// Scheduling grain: minimum roots per root-parallel chunk, and the
    /// unit of the `Auto` size thresholds.
    pub grain: usize,
}

impl Default for ApgreOptions {
    fn default() -> Self {
        ApgreOptions {
            partition: PartitionOptions::default(),
            kernel: KernelPolicy::Auto,
            grain: DEFAULT_GRAIN,
        }
    }
}

/// Phase breakdown and decomposition statistics of one APGRE run — the data
/// behind the paper's Figure 8 and Table 4.
#[derive(Clone, Debug)]
pub struct ApgreReport {
    /// Algorithm 1 (BCC finding, merging, sub-graph construction).
    pub partition_time: Duration,
    /// α/β counting.
    pub alpha_beta_time: Duration,
    /// All sub-graph BC kernels: the wall clock of the batch driver's
    /// kernel phase, or the summed kernel clocks of the runs
    /// [`ApgreReport::absorb`] took in.
    pub bc_time: Duration,
    /// BC kernel time of the largest sub-graph alone.
    pub top_subgraph_bc_time: Duration,
    /// Number of sub-graphs.
    pub num_subgraphs: usize,
    /// Number of articulation points in the graph.
    pub num_articulation_points: usize,
    /// Vertices / edges of the top sub-graph.
    pub top_subgraph_vertices: usize,
    /// Edges of the top sub-graph.
    pub top_subgraph_edges: usize,
    /// Total roots swept (Σ |R_sgi|) — Brandes would sweep |V|.
    pub total_roots: usize,
    /// Total whiskers folded by γ.
    pub total_whiskers: usize,
    /// Edges examined across all kernels (forward + backward scans).
    pub edges_traversed: u64,
    /// The policy the run was configured with.
    pub kernel_policy: KernelPolicy,
    /// The scheduling grain the kernels ran with (the configured grain,
    /// raised to at least 1).
    pub grain: usize,
    /// Kernel dispatched for the largest sub-graph (`None` when the graph is
    /// empty).
    pub top_subgraph_kernel: Option<KernelChoice>,
    /// How many sub-graphs ran each kernel: `(seq, root_parallel)`.
    pub kernel_counts: (usize, usize),
}

impl KernelChoice {
    /// Stable lower-case label for logs and metrics exporters
    /// (`seq` / `root_parallel`).
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Seq => "seq",
            KernelChoice::RootParallel => "root_parallel",
        }
    }
}

impl ApgreReport {
    /// The report of kernel `runs` over `decomp` under `opts`: the
    /// decomposition's timings and structure plus the runs' work (see
    /// [`ApgreReport::absorb`]).
    pub fn new(decomp: &Decomposition, opts: &ApgreOptions, runs: &[SubgraphKernelRun]) -> Self {
        let mut report = ApgreReport {
            partition_time: decomp.timings.partition,
            alpha_beta_time: decomp.timings.alpha_beta,
            bc_time: Duration::ZERO,
            top_subgraph_bc_time: Duration::ZERO,
            num_subgraphs: 0,
            num_articulation_points: 0,
            top_subgraph_vertices: 0,
            top_subgraph_edges: 0,
            total_roots: 0,
            total_whiskers: 0,
            edges_traversed: 0,
            kernel_policy: opts.kernel,
            grain: opts.grain.max(1),
            top_subgraph_kernel: None,
            kernel_counts: (0, 0),
        };
        report.absorb(decomp, runs);
        report
    }

    /// Switches the structure fields (sub-graph and articulation counts,
    /// top sub-graph size, roots, whiskers) to describe `decomp` in
    /// O(sub-graphs), and adds the work of `runs` over it: kernel time,
    /// edges and per-kernel counts, plus the kernel and time of a run of
    /// the top sub-graph. A top sub-graph that did not run keeps its last
    /// known kernel. The decomposition timings are left to the caller.
    pub fn absorb(&mut self, decomp: &Decomposition, runs: &[SubgraphKernelRun]) {
        let top = decomp.subgraphs.get(decomp.top_subgraph);
        self.num_subgraphs = decomp.num_subgraphs();
        self.num_articulation_points = decomp.num_articulation_points();
        self.top_subgraph_vertices = top.map_or(0, |sg| sg.num_vertices());
        self.top_subgraph_edges = top.map_or(0, |sg| sg.num_edges());
        // Roots are exactly the non-whiskers, so both totals come from
        // per-sub-graph lengths.
        let (vertices, roots) = decomp
            .subgraphs
            .iter()
            .fold((0, 0), |(n, r), sg| (n + sg.num_vertices(), r + sg.roots.len()));
        self.total_roots = roots;
        self.total_whiskers = vertices - roots;
        for run in runs {
            self.bc_time += run.time;
            self.edges_traversed += run.edges;
            match run.choice {
                KernelChoice::Seq => self.kernel_counts.0 += 1,
                KernelChoice::RootParallel => self.kernel_counts.1 += 1,
            }
            if run.index == decomp.top_subgraph {
                self.top_subgraph_kernel = Some(run.choice);
                self.top_subgraph_bc_time += run.time;
            }
        }
    }

    /// Partition + α/β counting: everything that happens before the first
    /// kernel runs (the paper's "extra computations").
    pub fn decomposition_time(&self) -> Duration {
        self.partition_time + self.alpha_beta_time
    }
}

/// APGRE with default options.
pub fn bc_apgre(g: &Graph) -> Vec<f64> {
    bc_apgre_with(g, &ApgreOptions::default()).0
}

/// APGRE with explicit options; returns scores plus the phase report.
pub fn bc_apgre_with(g: &Graph, opts: &ApgreOptions) -> (Vec<f64>, ApgreReport) {
    let decomp = decompose(g, &opts.partition);
    bc_from_decomposition(g, &decomp, opts)
}

/// Runs only steps 2–3 on a pre-built decomposition. Exposed so the harness
/// can sweep kernel options without re-decomposing, and so incremental
/// callers can reuse a decomposition across BC computations.
pub fn bc_from_decomposition(
    g: &Graph,
    decomp: &Decomposition,
    opts: &ApgreOptions,
) -> (Vec<f64>, ApgreReport) {
    let bc_start = Instant::now();
    let jobs = full_jobs(decomp, 0..decomp.num_subgraphs());
    let runs = run_subgraph_kernels(decomp, &jobs, opts);
    let bc = fold_runs(decomp, g.num_vertices(), &runs);
    let bc_time = bc_start.elapsed();
    (bc, ApgreReport { bc_time, ..ApgreReport::new(decomp, opts, &runs) })
}

/// Equation 8: sums every run's local scores into an `n`-vertex vector in
/// list order — ascending sub-graph index for [`run_subgraph_kernels`]'
/// output, which fixes the floating-point fold order.
pub(crate) fn fold_runs(decomp: &Decomposition, n: usize, runs: &[SubgraphKernelRun]) -> Vec<f64> {
    let mut bc = vec![0.0f64; n];
    for run in runs {
        let sg = &decomp.subgraphs[run.index];
        for (&v, &score) in sg.globals.iter().zip(&run.local) {
            bc[v as usize] += score;
        }
    }
    bc
}

/// Per-root contribution statistics of one observed job — the kernel side
/// of the variance-guided budget allocator. Welford accumulators over the
/// job's roots in slice order, so they are a pure function of
/// `(sub-graph content, root slice)` regardless of policy, thread count, or
/// scheduling.
#[derive(Clone, Debug, Default)]
pub struct RootStats {
    /// Per-local-vertex Welford `M2` of the per-root contributions: the
    /// sample variance of root `r`'s contribution to vertex `v` is
    /// `vertex_m2[v] / (roots − 1)` (0 when fewer than two roots).
    pub vertex_m2: Vec<f64>,
    /// Number of roots observed.
    pub roots: usize,
}

/// The outcome of one job of [`run_subgraph_kernels`]: the unscaled local
/// score vector (indexed by local vertex id, scatter via `sg.globals`) plus
/// per-run statistics.
#[derive(Clone, Debug)]
pub struct SubgraphKernelRun {
    /// Index of the sub-graph within the decomposition.
    pub index: usize,
    /// Equation-7 contribution of the job's roots (the Equation-8 summand
    /// for a full-roots job), indexed by local vertex id.
    pub local: Vec<f64>,
    /// Edges examined by the kernel (forward + backward scans).
    pub edges: u64,
    /// The kernel actually dispatched (`Seq` for a strict sample).
    pub choice: KernelChoice,
    /// Wall clock of this job's kernel.
    pub time: Duration,
    /// Per-root statistics, present exactly when the job was a strict
    /// sample of the sub-graph's roots.
    pub stats: Option<RootStats>,
}

/// A decomposition as [`run_subgraph_kernels`] sweeps it: unweighted (from
/// `&Decomposition`), or, for the weighted driver, with every sub-graph's
/// arc weights.
pub struct DecompositionView<'a> {
    pub(crate) decomp: &'a Decomposition,
    /// Arc weights per sub-graph, by sub-graph index, each aligned with that
    /// sub-graph's `sweep_csr().targets()`; or `None`.
    pub(crate) weights: Option<&'a [Vec<u32>]>,
}

impl<'a> From<&'a Decomposition> for DecompositionView<'a> {
    fn from(decomp: &'a Decomposition) -> Self {
        DecompositionView { decomp, weights: None }
    }
}

/// The one sub-graph scheduler: runs the per-sub-graph BC kernel for every
/// job `(index, roots)`, returning the local score vectors **without**
/// scattering them into a global vector — step 2 of the pipeline. The batch
/// and weighted drivers pass [`full_jobs`] for every sub-graph and fold the
/// runs (Equation 8); the incremental engine passes its dirty sub-graphs
/// and stores each contribution so a later batch can replace just the
/// dirty ones; the sampled estimator passes root samples and applies the
/// sampling scale itself.
///
/// Scheduling: largest-first dispatch on the outer rayon loop — the top
/// sub-graph dominates (Table 4), so it must start immediately — one kernel
/// workspace per worker (`map_init`; score vectors are the return value),
/// and `opts.kernel` resolved per job on the job's root count. Every job is
/// one [`kernel::bc_in_subgraph`] call, weighted when `decomp` carries
/// weights.
///
/// A strict sample (fewer roots than the sub-graph's root set) runs the
/// observed sequential sweep and carries [`RootStats`]; its `local` span is
/// bitwise identical to an unobserved `KernelPolicy::Seq` run over the same
/// roots. A full job is exact, so it runs unobserved under the policy.
/// Parallelism still applies *across* jobs.
///
/// Results come back sorted by ascending sub-graph index, so a list-order
/// fold is the batch driver's deterministic Equation-8 merge.
pub fn run_subgraph_kernels<'a>(
    decomp: impl Into<DecompositionView<'a>>,
    jobs: &[(usize, &[VertexId])],
    opts: &ApgreOptions,
) -> Vec<SubgraphKernelRun> {
    let DecompositionView { decomp, weights } = decomp.into();
    let mut order = jobs.to_vec();
    // Callers pass sub-graph ids taken from this same decomposition.
    order.sort_by_key(|&(i, _)| std::cmp::Reverse(decomp.subgraphs[i].num_vertices())); // lint:allow(panic_path)
    let mut runs: Vec<SubgraphKernelRun> = order
        .into_par_iter()
        .map_init(kernel::SgWorkspace::default, |ws, (i, roots)| {
            let sg = &decomp.subgraphs[i]; // lint:allow(panic_path) — callers pass ids of this decomposition
            let weights = weights.map(|w| &w[i][..]); // lint:allow(panic_path) — one slice per sub-graph
            run_job(SubGraphView { sg, weights }, i, roots, opts, ws)
        })
        .collect();
    runs.sort_by_key(|r| r.index);
    runs
}

/// Exact jobs for [`run_subgraph_kernels`]: every root of each named
/// sub-graph of `decomp`.
pub fn full_jobs(
    decomp: &Decomposition,
    indices: impl IntoIterator<Item = usize>,
) -> Vec<(usize, &[VertexId])> {
    // Callers pass indices of this same decomposition.
    indices.into_iter().map(|i| (i, &decomp.subgraphs[i].roots[..])).collect() // lint:allow(panic_path)
}

/// One job — sub-graph `index`, seen through `view` — through
/// [`kernel::bc_in_subgraph`] on the worker's workspace: resolves the policy
/// for a full job, forces the observed sequential sweep and folds the
/// per-root Welford statistics for a strict sample, and times the kernel.
fn run_job(
    view: SubGraphView,
    index: usize,
    roots: &[VertexId],
    opts: &ApgreOptions,
    ws: &mut kernel::SgWorkspace,
) -> SubgraphKernelRun {
    let sg = view.sg;
    let n = sg.num_vertices();
    let mut local = vec![0.0f64; n];
    let t = Instant::now();
    let grain = opts.grain.max(1);
    let (choice, edges, stats) = if roots.len() < sg.roots.len() {
        let mut stats = RootStats { vertex_m2: vec![0.0; n], ..RootStats::default() };
        let mut mean = vec![0.0f64; n];
        let mut fold = |c: &[f64]| {
            stats.roots += 1;
            let k = stats.roots as f64;
            // Only roots can be reached: a whisker's contribution is exactly
            // 0.0 for every root (never enqueued when undirected, in-degree 0
            // when directed), which would leave its mean and M2 bitwise
            // unchanged, so the fold skips it.
            // Audited: `c` is the dense contribution vector of length n,
            // mean / vertex_m2 were allocated at n above, and `sg.roots`
            // holds local ids `< n`. lint:allow(hot_index)
            for &r in &sg.roots {
                let v = r as usize;
                let x = c[v];
                let d = x - mean[v];
                mean[v] += d / k;
                stats.vertex_m2[v] += d * (x - mean[v]);
            }
        };
        let choice = KernelChoice::Seq;
        let edges = bc_in_subgraph(view, roots, choice, grain, ws, &mut local, Some(&mut fold));
        (choice, edges, Some(stats))
    } else {
        let threads = rayon::current_num_threads().max(1);
        let choice = opts.kernel.choose(roots.len(), n, sg.num_edges(), threads, grain);
        (choice, bc_in_subgraph(view, roots, choice, grain, ws, &mut local, None), None)
    };
    SubgraphKernelRun { index, local, edges, choice, time: t.elapsed(), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::bc_serial;
    use crate::parallel::test_support::zoo;
    use apgre_decomp::AlphaBetaMethod;
    use apgre_graph::generators;

    fn assert_close(name: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{name}");
        for i in 0..want.len() {
            let (x, y) = (got[i], want[i]);
            assert!(
                (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs())),
                "{name}: vertex {i}: apgre {x}, brandes {y}"
            );
        }
    }

    #[test]
    fn matches_brandes_on_zoo() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            assert_close(&name, &bc_apgre(&g), &want);
        }
    }

    #[test]
    fn matches_brandes_across_thresholds() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            for threshold in [0, 1, 2, 4, 16, 1_000_000] {
                let opts = ApgreOptions {
                    partition: PartitionOptions {
                        merge_threshold: threshold,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let (got, _) = bc_apgre_with(&g, &opts);
                assert_close(&format!("{name}@t{threshold}"), &got, &want);
            }
        }
    }

    #[test]
    fn matches_with_bfs_alpha_beta() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            let opts = ApgreOptions {
                partition: PartitionOptions {
                    merge_threshold: 4,
                    alpha_beta: AlphaBetaMethod::BlockedBfs,
                    ..Default::default()
                },
                ..Default::default()
            };
            let (got, _) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{name}+bfsab"), &got, &want);
        }
    }

    #[test]
    fn forced_root_parallel_matches() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            let opts =
                ApgreOptions { kernel: KernelPolicy::RootParallel, grain: 1, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{name}+rootpar"), &got, &want);
            assert_eq!(report.kernel_counts.1, report.num_subgraphs, "{name}");
        }
    }

    #[test]
    fn forced_seq_matches() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            let opts = ApgreOptions { kernel: KernelPolicy::Seq, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{name}+seq"), &got, &want);
            assert_eq!(report.kernel_counts.0, report.num_subgraphs, "{name}");
        }
    }

    #[test]
    fn auto_policy_heuristic() {
        let p = KernelPolicy::Auto;
        let g = DEFAULT_GRAIN;
        // One thread: always sequential, whatever the size.
        assert_eq!(p.choose(10_000, 100_000, 500_000, 1, g), KernelChoice::Seq);
        // Tiny sub-graph: sequential.
        assert_eq!(p.choose(10, 12, 30, 8, g), KernelChoice::Seq);
        // Root-rich and big: root-parallel.
        assert_eq!(p.choose(10_000, 100_000, 500_000, 8, g), KernelChoice::RootParallel);
        // Root-starved top sub-graph: a sweep reaches only roots, so there
        // is no wide level to split either.
        assert_eq!(p.choose(4, 100_000, 500_000, 8, g), KernelChoice::Seq);
        // Root-starved and mid-sized: not worth forking.
        assert_eq!(p.choose(4, 2 * g, 500_000, 8, g), KernelChoice::Seq);
        // Forced policies ignore the statistics.
        assert_eq!(KernelPolicy::Seq.choose(0, 0, 0, 64, g), KernelChoice::Seq);
        assert_eq!(KernelPolicy::RootParallel.choose(0, 0, 0, 1, g), KernelChoice::RootParallel);
    }

    #[test]
    fn auto_policy_saturates_at_extreme_inputs() {
        let p = KernelPolicy::Auto;
        // A usize::MAX grain must not overflow the work thresholds: every
        // multiply saturates, so the policy degrades to Seq instead of
        // panicking in debug builds.
        assert_eq!(p.choose(10_000, 100_000, 500_000, 8, usize::MAX), KernelChoice::Seq);
        // usize::MAX thread count: `threads * 2` saturates and the
        // root-rich branch can no longer trigger.
        assert_eq!(p.choose(4, 100_000, 500_000, usize::MAX, 64), KernelChoice::Seq);
        // usize::MAX roots and edges: `roots * edges` saturates instead of
        // wrapping to something below `min_work`.
        assert_eq!(p.choose(usize::MAX, 100_000, usize::MAX, 8, 64), KernelChoice::RootParallel);
    }

    #[test]
    fn kernel_policy_parses() {
        for (s, want) in [
            ("auto", KernelPolicy::Auto),
            ("seq", KernelPolicy::Seq),
            ("rootpar", KernelPolicy::RootParallel),
        ] {
            assert_eq!(s.parse::<KernelPolicy>().unwrap(), want);
        }
        assert!("fancy".parse::<KernelPolicy>().is_err());
    }

    #[test]
    fn report_accounts_match_decomposition() {
        let g = generators::whiskered_community(&generators::WhiskeredCommunityParams {
            core_vertices: 90,
            core_attach: 2,
            community_count: 7,
            community_size: 10,
            community_density: 1.6,
            whiskers: 45,
            seed: 33,
        });
        let (bc, report) = bc_apgre_with(&g, &ApgreOptions::default());
        assert_eq!(bc.len(), g.num_vertices());
        assert!(report.num_subgraphs >= 1);
        assert!(report.total_whiskers >= 40, "whiskers folded: {}", report.total_whiskers);
        assert!(report.total_roots < g.num_vertices());
        assert!(report.edges_traversed > 0);
        let (s, r) = report.kernel_counts;
        assert_eq!(s + r, report.num_subgraphs, "every sub-graph dispatched exactly once");
        assert!(report.top_subgraph_kernel.is_some());
        assert_eq!(report.kernel_policy, KernelPolicy::Auto);
        assert_eq!(report.grain, DEFAULT_GRAIN);
        // Redundancy elimination means strictly less sweep work than
        // Brandes' n·2m·2 on this articulation-rich graph.
        let brandes_edges = (g.num_vertices() as u64) * (g.num_arcs() as u64) * 2;
        assert!(report.edges_traversed < brandes_edges / 2);
    }

    /// Scatters runs into a global vector in list order.
    fn refold(n: usize, decomp: &Decomposition, runs: &[SubgraphKernelRun]) -> Vec<f64> {
        let mut got = vec![0.0f64; n];
        for run in runs {
            let sg = &decomp.subgraphs[run.index];
            for (l, &score) in run.local.iter().enumerate() {
                got[sg.globals[l] as usize] += score;
            }
        }
        got
    }

    #[test]
    fn run_subgraph_kernels_refolds_to_batch_result() {
        for (name, g) in zoo() {
            let opts = ApgreOptions::default();
            let decomp = decompose(&g, &opts.partition);
            let (want, _) = bc_from_decomposition(&g, &decomp, &opts);
            let jobs = full_jobs(&decomp, 0..decomp.num_subgraphs());
            let runs = run_subgraph_kernels(&decomp, &jobs, &opts);
            assert_eq!(runs.len(), decomp.num_subgraphs(), "{name}");
            for (k, run) in runs.iter().enumerate() {
                assert_eq!(run.index, k, "{name}: sorted ascending");
                assert!(run.stats.is_none(), "{name}: unobserved runs carry no stats");
            }
            // Ascending-index fold = the batch driver's Equation-8 order.
            let got = refold(g.num_vertices(), &decomp, &runs);
            for v in 0..got.len() {
                assert!(
                    (got[v] - want[v]).abs() <= 1e-9 * (1.0 + want[v].abs()),
                    "{name}: vertex {v}: {} vs {}",
                    got[v],
                    want[v]
                );
            }
        }
    }

    #[test]
    fn run_subgraph_kernels_seq_is_bitwise() {
        for (name, g) in zoo() {
            let opts = ApgreOptions { kernel: KernelPolicy::Seq, ..Default::default() };
            let decomp = decompose(&g, &opts.partition);
            let (want, _) = bc_from_decomposition(&g, &decomp, &opts);
            let jobs = full_jobs(&decomp, 0..decomp.num_subgraphs());
            let runs = run_subgraph_kernels(&decomp, &jobs, &opts);
            let got = refold(g.num_vertices(), &decomp, &runs);
            assert_eq!(got, want, "{name}: forced-Seq refold must be bitwise");
        }
    }

    #[test]
    fn split_root_jobs_sum_to_full_sweep() {
        // Root additivity at the dispatcher: two jobs on the same sub-graph,
        // one per half of its roots, fold (in slice order) to the full sweep.
        let g = generators::whiskered_community(&generators::WhiskeredCommunityParams {
            core_vertices: 70,
            core_attach: 2,
            community_count: 5,
            community_size: 9,
            community_density: 1.7,
            whiskers: 30,
            seed: 77,
        });
        let opts = ApgreOptions { kernel: KernelPolicy::Seq, ..Default::default() };
        let decomp = decompose(&g, &opts.partition);
        let jobs = full_jobs(&decomp, 0..decomp.num_subgraphs());
        let full = run_subgraph_kernels(&decomp, &jobs, &opts);
        for (i, sg) in decomp.subgraphs.iter().enumerate() {
            let (front, back) = sg.roots.split_at(sg.roots.len() / 2);
            let halves = run_subgraph_kernels(&decomp, &[(i, front), (i, back)], &opts);
            let mut folded = vec![0.0f64; sg.num_vertices()];
            for run in &halves {
                for (l, &x) in run.local.iter().enumerate() {
                    folded[l] += x;
                }
            }
            let want = &full[i].local;
            for l in 0..want.len() {
                assert!(
                    (folded[l] - want[l]).abs() <= 1e-9 * (1.0 + want[l].abs()),
                    "SG{i} local {l}: {} vs {}",
                    folded[l],
                    want[l]
                );
            }
            assert_eq!(halves[0].edges + halves[1].edges, full[i].edges, "SG{i}");
        }
    }

    #[test]
    fn observed_runs_are_bitwise_to_seq_and_welford_consistent() {
        for (name, g) in zoo() {
            // Auto policy on purpose: observing must force the sequential
            // sweep whatever the policy would pick.
            let auto = ApgreOptions { grain: 1, ..Default::default() };
            let decomp = decompose(&g, &auto.partition);
            // Every root but the last: a strict sample, hence observed.
            let jobs: Vec<(usize, &[VertexId])> = decomp
                .subgraphs
                .iter()
                .enumerate()
                .map(|(i, sg)| (i, sg.roots.split_last().expect("a sub-graph has a root").1))
                .collect();
            let got = run_subgraph_kernels(&decomp, &jobs, &auto);
            assert_eq!(got.len(), jobs.len(), "{name}");
            for (a, &(i, roots)) in got.iter().zip(&jobs) {
                assert_eq!(a.index, i, "{name}");
                let sg = &decomp.subgraphs[i];
                let mut want = vec![0.0f64; sg.num_vertices()];
                let edges = bc_in_subgraph(
                    sg,
                    roots,
                    KernelChoice::Seq,
                    1,
                    &mut kernel::SgWorkspace::default(),
                    &mut want,
                    None,
                );
                assert_eq!(
                    a.local, want,
                    "{name}: SG{i} observed sweep must be bitwise to the plain one"
                );
                assert_eq!(a.edges, edges, "{name}");
                assert_eq!(a.choice, KernelChoice::Seq, "{name}");
                let st = a.stats.as_ref().expect("observed runs carry stats");
                assert_eq!(st.roots, roots.len(), "{name}");
                assert!(st.vertex_m2.iter().all(|&x| x >= 0.0), "{name}");
            }
        }
    }

    #[test]
    fn whisker_on_articulation_point_regression() {
        // Whisker u attached to an articulation point s that borders another
        // sub-graph: exercises the `+α(s)` root correction.
        // 0 (whisker) - 1 - [triangle 1,2,3] - 3 - [triangle 3,4,5]
        let g = apgre_graph::Graph::undirected_from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)],
        );
        let want = bc_serial(&g);
        for threshold in [0, 1, 4, 100] {
            let opts = ApgreOptions {
                partition: PartitionOptions { merge_threshold: threshold, ..Default::default() },
                ..Default::default()
            };
            let (got, _) = bc_apgre_with(&g, &opts);
            assert_close(&format!("whisker-art@t{threshold}"), &got, &want);
        }
    }

    #[test]
    fn directed_whisker_on_articulation_point() {
        // Directed analogue: whisker 0 -> 1 where 1 is a cut vertex between
        // two directed cycles.
        let g = apgre_graph::Graph::directed_from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)],
        );
        let want = bc_serial(&g);
        let (got, _) = bc_apgre_with(&g, &ApgreOptions::default());
        assert_close("dir-whisker-art", &got, &want);
    }

    #[test]
    fn star_exact() {
        let g = generators::star(25);
        let bc = bc_apgre(&g);
        assert_eq!(bc[0], 25.0 * 24.0);
        assert!(bc[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn path_exact() {
        let n = 12;
        let g = generators::path(n);
        let bc = bc_apgre(&g);
        for i in 0..n {
            let want = 2.0 * (i as f64) * ((n - 1 - i) as f64);
            assert!((bc[i] - want).abs() < 1e-9, "vertex {i}: {} vs {want}", bc[i]);
        }
    }

    #[test]
    fn empty_and_isolated() {
        let g = apgre_graph::Graph::undirected_from_edges(0, &[]);
        assert!(bc_apgre(&g).is_empty());
        let g = apgre_graph::Graph::undirected_from_edges(4, &[(1, 2)]);
        assert_eq!(bc_apgre(&g), vec![0.0; 4]);
    }
}
