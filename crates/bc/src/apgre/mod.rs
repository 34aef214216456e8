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
//! [`kernel`] module's implementations, selected per sub-graph by
//! [`KernelPolicy`] from its root count and size (DESIGN.md §3.7). All
//! levels share one rayon pool, so inner parallelism of the top sub-graph
//! soaks up workers once the small sub-graphs drain — the behaviour §5.4
//! describes.
//!
//! The driver threads a [buffer pool](BufferPool) through the sub-graph
//! loop: per-sub-graph score vectors and both kernel workspaces are checked
//! out, grown in place if needed, and returned, so steady-state processing
//! of the long tail of small sub-graphs performs no `O(n)` allocations.
//! Merging goes through a reorder buffer that scatters finished sub-graphs
//! in **ascending index order** regardless of completion order — the
//! floating-point fold order is fixed, keeping whole-run results bitwise
//! deterministic (and the golden checksums stable).

pub mod kernel;

use apgre_decomp::{decompose, Decomposition, PartitionOptions};
use apgre_graph::{Graph, VertexId};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default scheduling grain: minimum roots per root-parallel chunk and
/// minimum frontier width before the level-synchronous kernel forks a level.
pub const DEFAULT_GRAIN: usize = 256;

/// Per-sub-graph kernel scheduling policy (DESIGN.md §3.7).
///
/// The three forced variants pin every sub-graph to one kernel; [`Auto`]
/// picks per sub-graph from the decomposition statistics. Replaces the old
/// single `inner_parallel_min_vertices` threshold, which could only express
/// "level-sync above N vertices" and always paid atomic-traffic overhead on
/// sub-graphs whose abundant roots made coarse parallelism free.
///
/// [`Auto`]: KernelPolicy::Auto
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Always the sequential sweep ([`KernelChoice::Seq`]).
    Seq,
    /// Always the root-parallel sweep ([`KernelChoice::RootParallel`]).
    RootParallel,
    /// Always the level-synchronous sweep ([`KernelChoice::LevelSync`]).
    LevelSync,
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
    /// Fine-grained level-synchronous sweep.
    LevelSync,
}

impl KernelPolicy {
    /// Resolves the policy for one sub-graph.
    ///
    /// The `Auto` heuristic, in order:
    ///
    /// 1. **Too small to parallelize at all** — one worker available, fewer
    ///    vertices than one grain, or total sweep work (`roots · edges`)
    ///    under ~8 grain² edge visits: the fork overhead cannot amortize, run
    ///    [`Seq`](KernelChoice::Seq).
    /// 2. **Root-rich** — at least two roots per worker: chunked roots feed
    ///    every worker with whole sequential sweeps, so take the
    ///    atomic-free coarse kernel
    ///    ([`RootParallel`](KernelChoice::RootParallel)).
    /// 3. **Root-starved but big** — few roots over a big vertex set (the
    ///    paper's top-sub-graph regime): only intra-sweep parallelism can
    ///    use the machine, take [`LevelSync`](KernelChoice::LevelSync) when
    ///    there are at least `16 · grain` vertices (with the default grain
    ///    that is 4096, the old `inner_parallel_min_vertices` default).
    /// 4. Otherwise sequential.
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
            KernelPolicy::LevelSync => KernelChoice::LevelSync,
            KernelPolicy::Auto => {
                let work = roots.saturating_mul(edges.max(1));
                let min_work = grain.saturating_mul(grain).saturating_mul(8);
                if threads <= 1 || vertices < grain || work < min_work {
                    KernelChoice::Seq
                } else if roots >= threads.saturating_mul(2) {
                    KernelChoice::RootParallel
                } else if vertices >= grain.saturating_mul(16) {
                    KernelChoice::LevelSync
                } else {
                    KernelChoice::Seq
                }
            }
        }
    }
}

impl std::str::FromStr for KernelPolicy {
    type Err = String;

    /// Parses the CLI spellings `auto`, `seq`, `rootpar`, `levelsync`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(KernelPolicy::Auto),
            "seq" => Ok(KernelPolicy::Seq),
            "rootpar" | "root-parallel" => Ok(KernelPolicy::RootParallel),
            "levelsync" | "level-sync" => Ok(KernelPolicy::LevelSync),
            other => {
                Err(format!("unknown kernel policy `{other}` (want auto|seq|rootpar|levelsync)"))
            }
        }
    }
}

/// Options for [`bc_apgre_with`].
#[derive(Clone, Debug)]
pub struct ApgreOptions {
    /// Decomposition options (merge threshold, α/β method).
    pub partition: PartitionOptions,
    /// Process sub-graphs in parallel (the coarse level).
    pub outer_parallel: bool,
    /// Per-sub-graph kernel selection.
    pub kernel: KernelPolicy,
    /// Scheduling grain: minimum roots per root-parallel chunk, minimum
    /// frontier/level width before the level-synchronous kernel goes
    /// parallel, and the unit of the `Auto` size thresholds.
    pub grain: usize,
}

impl Default for ApgreOptions {
    fn default() -> Self {
        ApgreOptions {
            partition: PartitionOptions::default(),
            outer_parallel: true,
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
    /// All sub-graph BC kernels (wall clock of the whole phase).
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
    /// The scheduling grain the run was configured with.
    pub grain: usize,
    /// Kernel dispatched for the largest sub-graph (`None` when the graph is
    /// empty).
    pub top_subgraph_kernel: Option<KernelChoice>,
    /// How many sub-graphs ran each kernel: `(seq, root_parallel,
    /// level_sync)`.
    pub kernel_counts: (usize, usize, usize),
}

impl KernelChoice {
    /// Stable lower-case label for logs and metrics exporters
    /// (`seq` / `root_parallel` / `level_sync`).
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Seq => "seq",
            KernelChoice::RootParallel => "root_parallel",
            KernelChoice::LevelSync => "level_sync",
        }
    }
}

impl ApgreReport {
    /// The per-kernel dispatch counts of [`ApgreReport::kernel_counts`]
    /// paired with their [`KernelChoice::name`] labels, in the fixed
    /// `(seq, root_parallel, level_sync)` order — the shape metrics
    /// exporters want.
    pub fn kernel_counts_named(&self) -> [(&'static str, usize); 3] {
        let (seq, rootpar, levelsync) = self.kernel_counts;
        [
            (KernelChoice::Seq.name(), seq),
            (KernelChoice::RootParallel.name(), rootpar),
            (KernelChoice::LevelSync.name(), levelsync),
        ]
    }

    /// Partition + α/β counting: everything that happens before the first
    /// kernel runs (the paper's "extra computations").
    pub fn decomposition_time(&self) -> Duration {
        self.partition_time + self.alpha_beta_time
    }

    /// Decomposition plus all kernel time.
    pub fn total_time(&self) -> Duration {
        self.decomposition_time() + self.bc_time
    }
}

/// Reusable per-sub-graph buffers, shared by all workers of the outer
/// parallel loop. Workers check a buffer out under a short lock, run a whole
/// kernel on it lock-free, and return it; a recycled workspace grows in
/// place when a larger sub-graph draws it. Score vectors come back through
/// [`Merger::submit`] once their sub-graph has been scattered.
#[derive(Default)]
struct BufferPool {
    workspaces: Mutex<Vec<kernel::SgWorkspace>>,
    locals: Mutex<Vec<Vec<f64>>>,
}

impl BufferPool {
    // Pool locks recover from poisoning: the pooled buffers are overwritten
    // before reuse, so a worker that panicked mid-kernel cannot corrupt a
    // later checkout — and a second panic here would abort the process.
    fn take_local(&self, n: usize) -> Vec<f64> {
        let mut v = self.locals.lock().unwrap_or_else(|p| p.into_inner()).pop().unwrap_or_default();
        v.clear();
        v.resize(n, 0.0);
        v
    }

    fn put_local(&self, v: Vec<f64>) {
        self.locals.lock().unwrap_or_else(|p| p.into_inner()).push(v);
    }

    fn take_ws(&self) -> kernel::SgWorkspace {
        self.workspaces.lock().unwrap_or_else(|p| p.into_inner()).pop().unwrap_or_default()
    }

    fn put_ws(&self, ws: kernel::SgWorkspace) {
        self.workspaces.lock().unwrap_or_else(|p| p.into_inner()).push(ws);
    }
}

/// Reorder-buffer merger: sub-graphs finish in completion order (largest
/// first under the outer parallel loop), but Equation 8's scatter into the
/// global score vector must happen in **ascending sub-graph index order** so
/// the floating-point sums fold identically run to run. Results arriving
/// early park in `pending`.
///
/// The `O(n)` scatter itself runs **outside** the state lock: a submitter
/// that finds the ready prefix pops the whole batch under the lock, releases
/// it, scatters, then re-acquires only to advance `next_index` and fold the
/// batch statistics — so workers finishing small sub-graphs park their
/// result and move on instead of serializing behind the top sub-graph's
/// merge. Popping `next_index` is the exclusivity token: the index only
/// advances after its batch has landed, so at most one worker scatters at a
/// time and the index order is preserved.
struct Merger<'a> {
    decomp: &'a Decomposition,
    /// Global score vector. The `next_index` token protocol already makes
    /// the scatter exclusive; the mutex (uncontended by construction) keeps
    /// that exclusivity checkable without `unsafe`.
    bc: Mutex<Vec<f64>>,
    state: Mutex<MergeState>,
}

struct MergeState {
    next_index: usize,
    pending: BTreeMap<usize, SubgraphKernelRun>,
    edges_traversed: u64,
    top_time: Duration,
    top_choice: Option<KernelChoice>,
    counts: (usize, usize, usize),
}

impl<'a> Merger<'a> {
    fn new(decomp: &'a Decomposition, n: usize) -> Self {
        Merger {
            decomp,
            bc: Mutex::new(vec![0.0f64; n]),
            state: Mutex::new(MergeState {
                next_index: 0,
                pending: BTreeMap::new(),
                edges_traversed: 0,
                top_time: Duration::ZERO,
                top_choice: None,
                counts: (0, 0, 0),
            }),
        }
    }

    fn submit(&self, run: SubgraphKernelRun, pool: &BufferPool) {
        let mut st = self.state.lock().unwrap();
        st.pending.insert(run.index, run);
        loop {
            // Pop the ready prefix. Empty means either `next_index` hasn't
            // arrived yet or another worker popped it and is mid-scatter;
            // either way that worker re-checks `pending` after advancing,
            // so this one can leave.
            let start = st.next_index;
            let mut batch: Vec<SubgraphKernelRun> = Vec::new();
            while let Some(res) = st.pending.remove(&(start + batch.len())) {
                batch.push(res);
            }
            if batch.is_empty() {
                return;
            }
            drop(st);

            let mut edges = 0u64;
            let mut counts = (0usize, 0usize, 0usize);
            let mut top: Option<(Duration, KernelChoice)> = None;
            {
                let mut bc = self.bc.lock().unwrap();
                for (offset, res) in batch.iter().enumerate() {
                    let i = start + offset;
                    let sg = &self.decomp.subgraphs[i];
                    for (l, &score) in res.local.iter().enumerate() {
                        bc[sg.globals[l] as usize] += score;
                    }
                    edges += res.edges;
                    match res.choice {
                        KernelChoice::Seq => counts.0 += 1,
                        KernelChoice::RootParallel => counts.1 += 1,
                        KernelChoice::LevelSync => counts.2 += 1,
                    }
                    if i == self.decomp.top_subgraph {
                        top = Some((res.time, res.choice));
                    }
                }
            }
            let drained = batch.len();
            for res in batch {
                pool.put_local(res.local);
            }

            st = self.state.lock().unwrap();
            st.next_index = start + drained;
            st.edges_traversed += edges;
            st.counts.0 += counts.0;
            st.counts.1 += counts.1;
            st.counts.2 += counts.2;
            if let Some((time, choice)) = top {
                st.top_time = time;
                st.top_choice = Some(choice);
            }
            // More results may have parked while this batch scattered; loop
            // to claim them, since their submitters saw a stale prefix.
        }
    }

    fn finish(self) -> (Vec<f64>, MergeState) {
        let st = self.state.into_inner().unwrap();
        debug_assert!(st.pending.is_empty(), "merger drained before every submit");
        (self.bc.into_inner().unwrap(), st)
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
    let pool = BufferPool::default();
    let merger = Merger::new(decomp, g.num_vertices());
    for_each_largest_first(decomp, &jobs, opts.outer_parallel, |(i, roots)| {
        let local = pool.take_local(decomp.subgraphs[i].num_vertices());
        merger.submit(run_job(decomp, i, roots, opts, false, &pool, local), &pool);
    });
    let (bc, merged) = merger.finish();
    let bc_time = bc_start.elapsed();

    let top = decomp.subgraphs.get(decomp.top_subgraph);
    let report = ApgreReport {
        partition_time: decomp.timings.partition,
        alpha_beta_time: decomp.timings.alpha_beta,
        bc_time,
        top_subgraph_bc_time: merged.top_time,
        num_subgraphs: decomp.num_subgraphs(),
        num_articulation_points: decomp.is_articulation.iter().filter(|&&a| a).count(),
        top_subgraph_vertices: top.map_or(0, |sg| sg.num_vertices()),
        top_subgraph_edges: top.map_or(0, |sg| sg.num_edges()),
        total_roots: decomp.subgraphs.iter().map(|sg| sg.roots.len()).sum(),
        total_whiskers: decomp
            .subgraphs
            .iter()
            .map(|sg| sg.is_whisker.iter().filter(|&&w| w).count())
            .sum(),
        edges_traversed: merged.edges_traversed,
        kernel_policy: opts.kernel,
        grain: opts.grain.max(1),
        top_subgraph_kernel: merged.top_choice,
        kernel_counts: merged.counts,
    };
    (bc, report)
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
    /// Welford mean of the per-root total contribution mass `Σ_v c_r(v)`.
    pub mass_mean: f64,
    /// Welford `M2` of the per-root total contribution mass.
    pub mass_m2: f64,
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
    /// The kernel actually dispatched (`Seq` for observed jobs).
    pub choice: KernelChoice,
    /// Wall clock of this job's kernel.
    pub time: Duration,
    /// Per-root statistics, present exactly when the job was observed.
    pub stats: Option<RootStats>,
}

/// Runs the per-sub-graph BC kernel for every job `(index, roots)`,
/// returning the local score vectors **without** scattering them into a
/// global vector — step 2 of the pipeline for callers that own the merge.
/// The incremental engine passes [`full_jobs`] for its dirty
/// sub-graphs and stores each contribution so a later batch can replace
/// just the dirty ones; the sampled estimator passes root samples and
/// applies the sampling scale itself.
///
/// Scheduling matches [`bc_from_decomposition`]: largest-first dispatch,
/// one shared workspace pool (score vectors are not pooled — they are the
/// return value), `opts.kernel` resolved per job on the job's root count,
/// and the outer rayon loop when `opts.outer_parallel`. Each vector comes
/// from the same [`kernel::bc_in_subgraph`] call the batch driver makes, so
/// full-roots results are bitwise identical to a batch run's (for
/// `Seq`/`LevelSync` unconditionally; for `RootParallel` per pool size).
///
/// With `observe`, every job runs the observed sequential sweep and carries
/// [`RootStats`]; its `local` span is bitwise identical to an unobserved
/// `KernelPolicy::Seq` run over the same roots. Parallelism still applies
/// *across* jobs.
///
/// Results come back sorted by ascending sub-graph index, so a list-order
/// fold reproduces the batch driver's deterministic merge order.
pub fn run_subgraph_kernels(
    decomp: &Decomposition,
    jobs: &[(usize, &[VertexId])],
    opts: &ApgreOptions,
    observe: bool,
) -> Vec<SubgraphKernelRun> {
    let pool = BufferPool::default();
    let out: Mutex<Vec<SubgraphKernelRun>> = Mutex::new(Vec::with_capacity(jobs.len()));
    for_each_largest_first(decomp, jobs, opts.outer_parallel, |(i, roots)| {
        let local = vec![0.0f64; decomp.subgraphs[i].num_vertices()]; // lint:allow(panic_path) — callers pass ids of this decomposition
        let run = run_job(decomp, i, roots, opts, observe, &pool, local);
        // Recover from poisoning: a panicking sibling kernel must not turn
        // into a second panic here — completed runs are still valid.
        out.lock().unwrap_or_else(|p| p.into_inner()).push(run);
    });
    let mut runs = out.into_inner().unwrap_or_else(|p| p.into_inner());
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

/// Calls `run` on every job, largest sub-graph first — the top sub-graph
/// dominates (Table 4), so it must start immediately — on the outer rayon
/// loop when `outer_parallel`.
fn for_each_largest_first<'a>(
    decomp: &Decomposition,
    jobs: &[(usize, &'a [VertexId])],
    outer_parallel: bool,
    run: impl Fn((usize, &'a [VertexId])) + Sync + Send,
) {
    let mut order: Vec<(usize, &[VertexId])> = jobs.to_vec();
    // Callers pass sub-graph ids taken from this same decomposition.
    order.sort_by_key(|&(i, _)| std::cmp::Reverse(decomp.subgraphs[i].num_vertices())); // lint:allow(panic_path)
    if outer_parallel {
        order.into_par_iter().for_each(run);
    } else {
        order.into_iter().for_each(run);
    }
}

/// One job through [`kernel::bc_in_subgraph`] on a pooled workspace:
/// resolves the policy (or forces the observed sequential sweep), folds the
/// per-root Welford statistics when observing, and times the kernel.
/// `local` arrives zeroed and sized to the sub-graph.
fn run_job(
    decomp: &Decomposition,
    index: usize,
    roots: &[VertexId],
    opts: &ApgreOptions,
    observe: bool,
    pool: &BufferPool,
    mut local: Vec<f64>,
) -> SubgraphKernelRun {
    let sg = &decomp.subgraphs[index]; // lint:allow(panic_path) — callers pass ids of this decomposition
    let n = sg.num_vertices();
    let t = Instant::now();
    let grain = opts.grain.max(1);
    let mut ws = pool.take_ws();
    let (choice, edges, stats) = if observe {
        let mut stats = RootStats { vertex_m2: vec![0.0; n], ..RootStats::default() };
        let mut mean = vec![0.0f64; n];
        let mut fold = |c: &[f64]| {
            stats.roots += 1;
            let k = stats.roots as f64;
            let mut mass = 0.0f64;
            // Audited: `c` is the dense contribution vector of length n,
            // and mean / vertex_m2 were allocated at n above.
            // lint:allow(hot_index)
            for v in 0..n {
                let x = c[v];
                mass += x;
                let d = x - mean[v];
                mean[v] += d / k;
                stats.vertex_m2[v] += d * (x - mean[v]);
            }
            let d = mass - stats.mass_mean;
            stats.mass_mean += d / k;
            stats.mass_m2 += d * (mass - stats.mass_mean);
        };
        let choice = KernelChoice::Seq;
        let edges =
            kernel::bc_in_subgraph(sg, roots, choice, grain, &mut ws, &mut local, Some(&mut fold));
        (choice, edges, Some(stats))
    } else {
        let threads = rayon::current_num_threads().max(1);
        let choice = opts.kernel.choose(roots.len(), n, sg.num_edges(), threads, grain);
        (choice, kernel::bc_in_subgraph(sg, roots, choice, grain, &mut ws, &mut local, None), None)
    };
    pool.put_ws(ws);
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
    fn forced_level_sync_matches() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            let opts =
                ApgreOptions { kernel: KernelPolicy::LevelSync, grain: 1, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{name}+levelsync"), &got, &want);
            assert_eq!(report.kernel_counts.2, report.num_subgraphs, "{name}");
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
    fn serial_outer_matches() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            let opts = ApgreOptions { outer_parallel: false, ..Default::default() };
            let (got, _) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{name}+seqouter"), &got, &want);
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
        // Root-starved top sub-graph: level-sync.
        assert_eq!(p.choose(4, 100_000, 500_000, 8, g), KernelChoice::LevelSync);
        // Root-starved and mid-sized: not worth forking.
        assert_eq!(p.choose(4, 2 * g, 500_000, 8, g), KernelChoice::Seq);
        // Forced policies ignore the statistics.
        assert_eq!(KernelPolicy::Seq.choose(0, 0, 0, 64, g), KernelChoice::Seq);
        assert_eq!(KernelPolicy::RootParallel.choose(0, 0, 0, 1, g), KernelChoice::RootParallel);
        assert_eq!(KernelPolicy::LevelSync.choose(0, 0, 0, 1, g), KernelChoice::LevelSync);
    }

    #[test]
    fn auto_policy_saturates_at_extreme_inputs() {
        let p = KernelPolicy::Auto;
        // A usize::MAX grain must not overflow the work thresholds: every
        // multiply saturates, so the policy degrades to Seq instead of
        // panicking in debug builds.
        assert_eq!(p.choose(10_000, 100_000, 500_000, 8, usize::MAX), KernelChoice::Seq);
        // usize::MAX thread count: `threads * 2` saturates, the root-rich
        // branch can no longer trigger, and the size branch decides.
        assert_eq!(p.choose(4, 100_000, 500_000, usize::MAX, 64), KernelChoice::LevelSync);
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
            ("levelsync", KernelPolicy::LevelSync),
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
        let (s, r, l) = report.kernel_counts;
        assert_eq!(s + r + l, report.num_subgraphs, "every sub-graph dispatched exactly once");
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
            let runs = run_subgraph_kernels(&decomp, &jobs, &opts, false);
            assert_eq!(runs.len(), decomp.num_subgraphs(), "{name}");
            for (k, run) in runs.iter().enumerate() {
                assert_eq!(run.index, k, "{name}: sorted ascending");
                assert!(run.stats.is_none(), "{name}: unobserved runs carry no stats");
            }
            // Ascending-index fold = the Merger's scatter order.
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
            let runs = run_subgraph_kernels(&decomp, &jobs, &opts, false);
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
        let full = run_subgraph_kernels(&decomp, &jobs, &opts, false);
        for (i, sg) in decomp.subgraphs.iter().enumerate() {
            let (front, back) = sg.roots.split_at(sg.roots.len() / 2);
            let halves = run_subgraph_kernels(&decomp, &[(i, front), (i, back)], &opts, false);
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
            let seq = ApgreOptions { kernel: KernelPolicy::Seq, ..Default::default() };
            let decomp = decompose(&g, &auto.partition);
            let jobs = full_jobs(&decomp, 0..decomp.num_subgraphs());
            let want = run_subgraph_kernels(&decomp, &jobs, &seq, false);
            let got = run_subgraph_kernels(&decomp, &jobs, &auto, true);
            assert_eq!(got.len(), want.len(), "{name}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.index, b.index, "{name}");
                assert_eq!(
                    a.local, b.local,
                    "{name}: SG{} observed sweep must be bitwise to the plain one",
                    a.index
                );
                assert_eq!(a.edges, b.edges, "{name}");
                assert_eq!(a.choice, KernelChoice::Seq, "{name}");
                let st = a.stats.as_ref().expect("observed runs carry stats");
                assert_eq!(st.roots, decomp.subgraphs[a.index].roots.len(), "{name}");
                // The Welford mass mean times the root count is the span
                // total (up to fp association), and M2 is non-negative.
                let total: f64 = a.local.iter().sum();
                let welford_total = st.mass_mean * st.roots as f64;
                assert!(
                    (total - welford_total).abs() <= 1e-9 * (1.0 + total.abs()),
                    "{name}: SG{}: span total {total} vs Welford {welford_total}",
                    a.index
                );
                assert!(st.mass_m2 >= 0.0, "{name}");
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
