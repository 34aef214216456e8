//! Kernel-policy equivalence: the single sub-graph kernel entry point
//! (`bc_in_subgraph`) under every `KernelChoice`, full and split root sets,
//! fresh and pooled (recycled, oversized) workspaces, with and without the
//! per-root observer — and every `KernelPolicy` end to end — must reproduce
//! serial Brandes (`bc_serial`) on the Table-1 workload stand-ins, across
//! grains and pool sizes; and its weighted (Dijkstra) sweep must reproduce
//! weighted serial Brandes (`bc_weighted_serial`) the same way.

use apgre::bc::apgre::kernel::{bc_in_subgraph, SgWorkspace, SubGraphView};
use apgre::bc::apgre::{run_subgraph_kernels, DEFAULT_GRAIN};
use apgre::graph::generators;
use apgre::prelude::*;
use apgre::workloads::{registry, Scale};

fn assert_close(name: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{name}: length");
    for i in 0..want.len() {
        let (x, y) = (got[i], want[i]);
        assert!(
            (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs())),
            "{name}: vertex {i}: got {x}, want {y}"
        );
    }
}

const CHOICES: [KernelChoice; 2] = [KernelChoice::Seq, KernelChoice::RootParallel];

/// The root set one table cell sweeps.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Roots {
    /// `&sg.roots` in one call.
    Full,
    /// The front half, then the back half, into the same `bc_local`.
    Halves,
}

/// The workspace one table cell sweeps with.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ws {
    /// A new workspace per sub-graph.
    Fresh,
    /// One workspace shared by every sub-graph, visited largest first so
    /// every later sub-graph runs on a recycled, oversized workspace.
    Pooled,
}

/// One table cell: per sub-graph (in decomposition order), the local
/// scores and the edges examined.
struct Cell {
    choice: KernelChoice,
    roots: Roots,
    ws: Ws,
    runs: Vec<(Vec<f64>, u64)>,
}

impl Cell {
    fn name(&self) -> String {
        format!("{:?}/{:?}/{:?}", self.choice, self.roots, self.ws)
    }

    /// Equation 8: scatter the local scores into a global vector.
    fn compose(&self, d: &Decomposition) -> Vec<f64> {
        let mut bc = vec![0.0f64; d.num_vertices];
        for (sg, (local, _)) in d.subgraphs.iter().zip(&self.runs) {
            for (l, &score) in local.iter().enumerate() {
                bc[sg.globals[l] as usize] += score;
            }
        }
        bc
    }
}

/// The kernel table: every sub-graph of `d` through `bc_in_subgraph` for
/// each `KernelChoice` × {full roots, half subsets} × {fresh, pooled
/// workspace}.
fn kernel_table(d: &Decomposition, grain: usize) -> Vec<Cell> {
    weighted_kernel_table(d, None, grain)
}

/// [`kernel_table`] over weighted views when `weights` holds each
/// sub-graph's arc weights (aligned with `sweep_csr`), else unweighted.
fn weighted_kernel_table(
    d: &Decomposition,
    weights: Option<&[Vec<u32>]>,
    grain: usize,
) -> Vec<Cell> {
    let mut order: Vec<usize> = (0..d.subgraphs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(d.subgraphs[i].num_vertices()));
    let mut table = Vec::new();
    for choice in CHOICES {
        for roots in [Roots::Full, Roots::Halves] {
            for ws in [Ws::Fresh, Ws::Pooled] {
                let mut pooled = SgWorkspace::default();
                let mut runs = vec![(Vec::new(), 0); d.subgraphs.len()];
                for &i in &order {
                    let sg = &d.subgraphs[i];
                    let view = SubGraphView { sg, weights: weights.map(|w| &w[i][..]) };
                    let mut fresh = SgWorkspace::default();
                    let w = if ws == Ws::Pooled { &mut pooled } else { &mut fresh };
                    let parts: Vec<&[VertexId]> = match roots {
                        Roots::Full => vec![&sg.roots[..]],
                        Roots::Halves => {
                            let (front, back) = sg.roots.split_at(sg.roots.len() / 2);
                            vec![front, back]
                        }
                    };
                    let mut local = vec![0.0f64; sg.num_vertices()];
                    let edges = parts
                        .into_iter()
                        .map(|r| bc_in_subgraph(view, r, choice, grain, w, &mut local, None))
                        .sum();
                    runs[i] = (local, edges);
                }
                table.push(Cell { choice, roots, ws, runs });
            }
        }
    }
    table
}

/// The cell of `table` for one combination.
fn cell(table: &[Cell], choice: KernelChoice, roots: Roots, ws: Ws) -> &Cell {
    table.iter().find(|c| c.choice == choice && c.roots == roots && c.ws == ws).unwrap()
}

/// The graphs the kernel table runs on, decomposed: every third Table-1
/// stand-in at the default partition, plus a whiskered community graph
/// merged at threshold 8 (many small sub-graphs of mixed sizes).
fn table_inputs() -> Vec<(String, Graph, Decomposition)> {
    let mut inputs: Vec<(String, Graph, Decomposition)> = registry()
        .into_iter()
        .step_by(3)
        .map(|spec| {
            let g = spec.graph(Scale::Tiny);
            let d = decompose(&g, &PartitionOptions::default());
            (spec.name.to_string(), g, d)
        })
        .collect();
    let g = generators::whiskered_community(&generators::WhiskeredCommunityParams {
        core_vertices: 80,
        core_attach: 3,
        community_count: 6,
        community_size: 12,
        community_density: 1.8,
        whiskers: 40,
        seed: 21,
    });
    let d = decompose(&g, &PartitionOptions { merge_threshold: 8, ..Default::default() });
    inputs.push(("whiskered-t8".to_string(), g, d));
    inputs
}

/// Every forced policy and Auto must match serial Brandes end to end, and
/// the report must account for every sub-graph under the forced policies.
#[test]
fn all_policies_match_bc_serial_on_workloads() {
    for spec in registry().into_iter().step_by(2) {
        let g = spec.graph(Scale::Tiny);
        let want = bc_serial(&g);
        for (name, kernel, grain) in [
            ("auto", KernelPolicy::Auto, 256),
            ("seq", KernelPolicy::Seq, 256),
            ("rootpar", KernelPolicy::RootParallel, 1),
        ] {
            let opts = ApgreOptions { kernel, grain, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{}/{name}", spec.name), &got, &want);
            let (s, r) = report.kernel_counts;
            assert_eq!(s + r, report.num_subgraphs, "{}/{name}", spec.name);
            match kernel {
                KernelPolicy::Seq => assert_eq!(s, report.num_subgraphs),
                KernelPolicy::RootParallel => assert_eq!(r, report.num_subgraphs),
                KernelPolicy::Auto => {}
            }
        }
    }
}

/// Every cell of the kernel table composes to serial Brandes, at a tiny and
/// the default grain; every cell matches the sequential full-root sweep per
/// sub-graph and local vertex, and examines the same edges; and a pooled,
/// oversized workspace changes no bit.
#[test]
fn subgraph_kernels_agree_with_each_other_and_bc_serial() {
    for (name, g, d) in table_inputs() {
        let want = bc_serial(&g);
        for grain in [1, DEFAULT_GRAIN] {
            let table = kernel_table(&d, grain);
            let seq = cell(&table, KernelChoice::Seq, Roots::Full, Ws::Fresh);
            for c in &table {
                assert_close(&format!("{name}@g{grain}/{}", c.name()), &c.compose(&d), &want);
                for (i, ((got, e), (s, e_seq))) in c.runs.iter().zip(&seq.runs).enumerate() {
                    assert_eq!(e, e_seq, "{name}@g{grain}/{}: SG{i} edge count", c.name());
                    for l in 0..s.len() {
                        assert!(
                            (s[l] - got[l]).abs() <= 1e-7 * (1.0 + s[l].abs()),
                            "{name}@g{grain}/{}: SG{i} local {l}: {} vs seq {}",
                            c.name(),
                            got[l],
                            s[l]
                        );
                    }
                }
                let fresh = cell(&table, c.choice, c.roots, Ws::Fresh);
                for (i, ((a, _), (b, _))) in c.runs.iter().zip(&fresh.runs).enumerate() {
                    assert_eq!(a, b, "{name}@g{grain}/{}: SG{i} vs fresh workspace", c.name());
                }
            }
        }
    }
}

/// The parallel kernel must also be exact inside a single-worker pool (the
/// degenerate scheduling case: every chunk runs on one thread).
#[test]
fn forced_parallel_kernels_match_bc_serial_on_one_thread() {
    let spec = &registry()[1];
    let g = spec.graph(Scale::Tiny);
    let want = bc_serial(&g);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let kernel = KernelPolicy::RootParallel;
    let opts = ApgreOptions { kernel, grain: 1, ..Default::default() };
    let got = pool.install(|| bc_apgre_with(&g, &opts).0);
    assert_close(&format!("{}/{kernel:?}@1thread", spec.name), &got, &want);
}

/// Exactness must not depend on the scheduling grain.
#[test]
fn grain_sweep_matches_bc_serial() {
    let spec = &registry()[4];
    let g = spec.graph(Scale::Tiny);
    let want = bc_serial(&g);
    for grain in [1, 3, 64, 1_000_000] {
        for kernel in [KernelPolicy::Auto, KernelPolicy::RootParallel] {
            let opts = ApgreOptions { kernel, grain, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{}/{kernel:?}@g{grain}", spec.name), &got, &want);
            assert_eq!(report.grain, grain.max(1));
        }
    }
}

/// Root additivity: sweeping the two halves of a sub-graph's roots in turn
/// into one `bc_local` sums to the full sweep under every strategy —
/// bitwise for the sequential sweep, which adds in the same root order
/// either way — and so composes to serial Brandes.
#[test]
fn roots_kernel_variants_match_their_full_kernels_and_bc_serial() {
    for (name, g, d) in table_inputs() {
        let want = bc_serial(&g);
        let table = kernel_table(&d, 2);
        for choice in CHOICES {
            let full = cell(&table, choice, Roots::Full, Ws::Fresh);
            let halves = cell(&table, choice, Roots::Halves, Ws::Fresh);
            for (i, ((h, _), (f, _))) in halves.runs.iter().zip(&full.runs).enumerate() {
                if choice == KernelChoice::RootParallel {
                    for l in 0..f.len() {
                        assert!(
                            (h[l] - f[l]).abs() <= 1e-9 * (1.0 + f[l].abs()),
                            "{name}/{choice:?}: SG{i} local {l}: {} vs {}",
                            h[l],
                            f[l]
                        );
                    }
                } else {
                    assert_eq!(h, f, "{name}/{choice:?}: SG{i} halves vs full");
                }
            }
            assert_close(&format!("{name}/{choice:?}/halves"), &halves.compose(&d), &want);
        }
    }
}

/// The per-root observer is bitwise-neutral on `bc_local` whatever
/// strategy is requested (it forces the sequential sweep) and sees every
/// root once with that root's own contribution; the dispatcher observes a
/// strict sample (every root but the last), and its Welford statistics
/// agree with a two-pass variance over those roots' contributions.
#[test]
fn observer_is_bitwise_neutral_and_welford_consistent() {
    let (name, g, d) = table_inputs().swap_remove(0);
    let table = kernel_table(&d, 1);
    let seq = cell(&table, KernelChoice::Seq, Roots::Full, Ws::Fresh);
    let opts = ApgreOptions { grain: 1, ..Default::default() };
    let jobs: Vec<(usize, &[VertexId])> = d
        .subgraphs
        .iter()
        .enumerate()
        .map(|(i, sg)| (i, sg.roots.split_last().expect("a sub-graph has a root").1))
        .collect();
    let stats = run_subgraph_kernels(&d, &jobs, &opts);
    let mut composed = vec![0.0f64; g.num_vertices()];
    for (i, sg) in d.subgraphs.iter().enumerate() {
        let n = sg.num_vertices();
        let mut last = Vec::new();
        for choice in CHOICES {
            let mut contribs: Vec<Vec<f64>> = Vec::new();
            let mut local = vec![0.0f64; n];
            let edges = bc_in_subgraph(
                sg,
                &sg.roots,
                choice,
                1,
                &mut SgWorkspace::default(),
                &mut local,
                Some(&mut |c: &[f64]| contribs.push(c.to_vec())),
            );
            assert_eq!(local, seq.runs[i].0, "{name}/{choice:?}: SG{i} observed vs plain");
            assert_eq!(edges, seq.runs[i].1, "{name}/{choice:?}: SG{i} edges");
            assert_eq!(contribs.len(), sg.roots.len(), "{name}: SG{i} one call per root");
            for v in 0..n {
                let sum: f64 = contribs.iter().map(|c| c[v]).sum();
                assert!(
                    (sum - local[v]).abs() <= 1e-9 * (1.0 + local[v].abs()),
                    "{name}: SG{i} local {v}: Σ per-root {sum} vs span {}",
                    local[v]
                );
            }
            last = contribs.pop().expect("one call per root");
        }
        // The dispatcher's observed strict span against an unobserved `Seq`
        // sweep over the same roots, and its Welford M2 against a two-pass
        // variance over those roots' contributions.
        let strict = jobs[i].1;
        let (mut plain, mut contribs) = (vec![0.0f64; n], Vec::new());
        let edges = bc_in_subgraph(
            sg,
            strict,
            KernelChoice::Seq,
            1,
            &mut SgWorkspace::default(),
            &mut plain,
            None,
        );
        let mut observed = vec![0.0f64; n];
        bc_in_subgraph(
            sg,
            strict,
            KernelChoice::Seq,
            1,
            &mut SgWorkspace::default(),
            &mut observed,
            Some(&mut |c: &[f64]| contribs.push(c.to_vec())),
        );
        let run = &stats[i];
        assert_eq!(run.local, plain, "{name}: SG{i} dispatcher observed span");
        assert_eq!(run.edges, edges, "{name}: SG{i} dispatcher edges");
        assert_eq!(run.choice, KernelChoice::Seq, "{name}: SG{i} dispatcher kernel");
        let st = run.stats.as_ref().expect("a strict sample is observed");
        assert_eq!(st.roots, strict.len(), "{name}: SG{i}");
        let k = contribs.len() as f64;
        for v in 0..n {
            let mean = contribs.iter().map(|c| c[v]).sum::<f64>() / k;
            let m2: f64 = contribs.iter().map(|c| (c[v] - mean).powi(2)).sum();
            assert!(
                (m2 - st.vertex_m2[v]).abs() <= 1e-9 * (1.0 + m2.abs()),
                "{name}: SG{i} local {v}: two-pass M2 {m2} vs Welford {}",
                st.vertex_m2[v]
            );
        }
        // The strict span plus the last root's contribution is the full span.
        for (l, (&score, &rest)) in run.local.iter().zip(&last).enumerate() {
            composed[sg.globals[l] as usize] += score + rest;
        }
    }
    assert_close(&format!("{name}/observed-composed"), &composed, &bc_serial(&g));
}

/// The sampled estimator must respect the kernel policy the same way the
/// exact pipeline does: with every sub-graph fully sampled (scale 1.0) its
/// estimates are **bitwise** the exact APGRE scores under every forced
/// policy, and the whole composition stays close to serial Brandes.
#[test]
fn sampled_estimator_full_draw_is_exact_under_every_policy() {
    for spec in registry().into_iter().step_by(4) {
        let g = spec.graph(Scale::Tiny);
        let want = bc_serial(&g);
        let full = SampleOptions::uniform(usize::MAX, 0xA99);
        for (name, kernel) in [("seq", KernelPolicy::Seq), ("rootpar", KernelPolicy::RootParallel)]
        {
            let opts = ApgreOptions { kernel, grain: 2, ..Default::default() };
            let (exact, _) = bc_apgre_with(&g, &opts);
            let est = bc_sampled(&g, &opts, &full);
            assert_eq!(est.len(), exact.len());
            for v in 0..exact.len() {
                assert!(
                    est[v].to_bits() == exact[v].to_bits(),
                    "{}/{name}: vertex {v}: full-draw estimate {} != exact {}",
                    spec.name,
                    est[v],
                    exact[v]
                );
            }
            assert_close(&format!("{}/{name}/estimator", spec.name), &est, &want);
        }
    }
}

/// The estimator's parallel kernels must be exact and bitwise-stable in a
/// single-worker pool (the degenerate scheduling case), matching the
/// ambient-pool run of the same draw — the pooled-workspace anchor the
/// exact kernels already carry.
#[test]
fn sampled_estimator_is_bitwise_stable_in_a_one_thread_pool() {
    let spec = &registry()[1];
    let g = spec.graph(Scale::Tiny);
    let sopts = SampleOptions::uniform(4, 0x5EED);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for kernel in [KernelPolicy::Seq, KernelPolicy::RootParallel] {
        let opts = ApgreOptions { kernel, grain: 1, ..Default::default() };
        let ambient = bc_sampled(&g, &opts, &sopts);
        let pooled = pool.install(|| bc_sampled(&g, &opts, &sopts));
        for v in 0..ambient.len() {
            assert!(
                ambient[v].to_bits() == pooled[v].to_bits(),
                "{}/{kernel:?}: vertex {v} diverges between pool sizes",
                spec.name
            );
        }
    }
}

/// The root-parallel sweep merges fixed chunks by a fixed-shape tree, so
/// repeated runs — on fresh or pooled workspaces — are bitwise identical,
/// f64 non-associativity notwithstanding.
#[test]
fn root_par_kernel_is_bitwise_deterministic_on_workloads() {
    for spec in registry().into_iter().step_by(4) {
        let g = spec.graph(Scale::Tiny);
        let d = decompose(&g, &PartitionOptions::default());
        let (first, second) = (kernel_table(&d, 2), kernel_table(&d, 2));
        for roots in [Roots::Full, Roots::Halves] {
            for ws in [Ws::Fresh, Ws::Pooled] {
                let a = cell(&first, KernelChoice::RootParallel, roots, ws);
                let b = cell(&second, KernelChoice::RootParallel, roots, Ws::Fresh);
                for (i, ((x, _), (y, _))) in a.runs.iter().zip(&b.runs).enumerate() {
                    assert_eq!(x, y, "{}/{}: SG{i}", spec.name, a.name());
                }
            }
        }
    }
}

/// Whisker-heavy sub-graphs for the whisker fold, each decomposed: a star,
/// an isolated K2, whiskers hung on a root that is also a boundary
/// articulation point, hosts several BFS levels deep (some reached along
/// several shortest paths), a directed graph with directed whiskers, and a
/// whiskered community graph after `unfold_whiskers`.
fn whisker_inputs() -> Vec<(String, Graph, Decomposition)> {
    let with_edges = |g: &Graph, n: usize, extra: &[(VertexId, VertexId)]| {
        let mut edges: Vec<(VertexId, VertexId)> = g.undirected_edges().collect();
        edges.extend_from_slice(extra);
        Graph::undirected_from_edges(n, &edges)
    };
    let fine = PartitionOptions { merge_threshold: 4, ..Default::default() };
    let mut inputs = Vec::new();
    let mut push = |name: &str, g: Graph, opts: &PartitionOptions| {
        let d = decompose(&g, opts);
        inputs.push((name.to_string(), g, d));
    };
    push("star", generators::star(7), &PartitionOptions::default());
    push("k2", Graph::undirected_from_edges(2, &[(0, 1)]), &PartitionOptions::default());
    // Two K5 blocks sharing articulation point 4, split into two sub-graphs
    // at threshold 4: whiskers 9 and 10 hang on the boundary point 4, and
    // whisker 11 on vertex 0.
    let mut k5k5 = Vec::new();
    for base in [0, 4] {
        for u in base..base + 5 {
            for v in u + 1..base + 5 {
                k5k5.push((u, v));
            }
        }
    }
    k5k5.extend([(4, 9), (4, 10), (0, 11)]);
    push("boundary-host", Graph::undirected_from_edges(12, &k5k5), &fine);
    // A 4×6 lattice: the far corner 23 and the centre vertices 9 and 14 host
    // whiskers, several levels from most roots and reached along several
    // shortest paths.
    let grid = generators::grid2d(4, 6);
    push("deep-host", with_edges(&grid, 28, &[(23, 24), (9, 25), (14, 26), (14, 27)]), &fine);
    let digraph = generators::attach_directed_whiskers(
        &generators::gnm_directed(40, 120, 0xD1),
        20,
        0.3,
        0xD2,
    );
    push("directed", digraph, &PartitionOptions::default());
    let (_, g, mut d) = table_inputs().pop().unwrap();
    d.unfold_whiskers();
    inputs.push(("unfolded".to_string(), g, d));
    inputs
}

/// Per sub-graph, what an unfolded sweep over `sg.roots` examines (forward
/// plus backward: twice the out-degree of every vertex each root reaches)
/// and how many of those arcs have a whisker endpoint, from a plain BFS over
/// the full local graph.
fn sweep_work(sg: &SubGraph) -> (u64, u64) {
    let g = &sg.graph;
    let (mut unfolded, mut whisker_arcs) = (0u64, 0u64);
    for &s in &sg.roots {
        let mut seen = vec![false; sg.num_vertices()];
        seen[s as usize] = true;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            unfolded += 2 * g.out_degree(u) as u64;
            for &v in g.out_neighbors(u) {
                if sg.is_whisker[u as usize] || sg.is_whisker[v as usize] {
                    whisker_arcs += 1;
                }
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    (unfolded, whisker_arcs)
}

/// The whisker fold: every `KernelChoice` arm (full and split roots, fresh
/// and pooled workspaces) and the observed sweep match serial Brandes at
/// 1e-7 on whisker-heavy graphs, the observed sweep bitwise-matches `Seq`,
/// the whisker-free layout exists exactly on undirected sub-graphs with
/// whiskers, and every sweep's edge count drops by twice the whisker arcs
/// each root used to reach.
#[test]
fn whisker_fold_matches_bc_serial_and_skips_whisker_arcs() {
    for (name, g, d) in whisker_inputs() {
        let want = bc_serial(&g);
        let close = |what: &str, got: &[f64]| {
            assert_eq!(got.len(), want.len(), "{name}/{what}: length");
            for (v, (&x, &y)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-7 * (1.0 + x.abs().max(y.abs())),
                    "{name}/{what}: vertex {v}: got {x}, want {y}"
                );
            }
        };
        let mut dropped = 0u64;
        let mut expected = Vec::new();
        for sg in &d.subgraphs {
            let whiskers = sg.is_whisker.iter().any(|&w| w);
            assert_eq!(
                sg.folded_csr.is_some(),
                whiskers && !g.is_directed(),
                "{name}: SG{} whisker-free layout",
                sg.id
            );
            let (unfolded, whisker_arcs) = sweep_work(sg);
            dropped += whisker_arcs;
            expected.push(unfolded - 2 * whisker_arcs);
        }
        match name.as_str() {
            "directed" => {
                assert!(d.subgraphs.iter().any(|sg| sg.is_whisker.contains(&true)), "{name}");
                assert_eq!(dropped, 0, "{name}: directed whiskers are unreachable");
            }
            "unfolded" => assert_eq!(dropped, 0, "{name}: no whisker is left"),
            _ => assert!(dropped > 0, "{name}: the fold must skip whisker arcs"),
        }
        if name == "boundary-host" {
            assert!(
                d.subgraphs.iter().any(|sg| sg
                    .roots
                    .iter()
                    .any(|&r| sg.is_boundary[r as usize] && sg.gamma[r as usize] > 0)),
                "{name}: some boundary root must host whiskers"
            );
        }
        for grain in [1, DEFAULT_GRAIN] {
            for c in &kernel_table(&d, grain) {
                close(&format!("g{grain}/{}", c.name()), &c.compose(&d));
                for (i, (_, edges)) in c.runs.iter().enumerate() {
                    assert_eq!(*edges, expected[i], "{name}@g{grain}/{}: SG{i} edges", c.name());
                }
            }
        }
        let mut observed = vec![0.0f64; g.num_vertices()];
        for (i, sg) in d.subgraphs.iter().enumerate() {
            let n = sg.num_vertices();
            let (mut seq, mut local) = (vec![0.0f64; n], vec![0.0f64; n]);
            let mut ws = SgWorkspace::default();
            bc_in_subgraph(sg, &sg.roots, KernelChoice::Seq, 1, &mut ws, &mut seq, None);
            let mut calls = 0usize;
            let edges = bc_in_subgraph(
                sg,
                &sg.roots,
                KernelChoice::Seq,
                1,
                &mut ws,
                &mut local,
                Some(&mut |c: &[f64]| {
                    calls += 1;
                    for (l, &x) in c.iter().enumerate() {
                        if sg.is_whisker[l] {
                            assert_eq!(x.to_bits(), 0.0f64.to_bits(), "{name}: whisker {l} term");
                        }
                    }
                }),
            );
            assert_eq!(calls, sg.roots.len(), "{name}: SG{i} one call per root");
            assert_eq!(local, seq, "{name}: SG{i} observed vs plain");
            assert_eq!(edges, expected[i], "{name}: SG{i} observed edges");
            for (l, &score) in local.iter().enumerate() {
                observed[sg.globals[l] as usize] += score;
            }
        }
        close("observed", &observed);
    }
}

/// A sweep reaches only roots: undirected whiskers are cut from
/// `sweep_csr`, directed whiskers have in-degree 0, and every other vertex
/// is a root. So from every root, a BFS over `sg.sweep_csr()` stays inside
/// `sg.roots`, and a sub-graph with few roots has no wide level to split
/// (why the kernel has no level-synchronous strategy, DESIGN.md §3.7).
#[test]
fn every_sweep_reaches_only_roots() {
    let (mut directed, mut with_non_roots) = (0usize, 0usize);
    for (name, g, d) in table_inputs().into_iter().chain(weighted_inputs()) {
        directed += usize::from(g.is_directed());
        for (i, sg) in d.subgraphs.iter().enumerate() {
            let n = sg.num_vertices();
            with_non_roots += usize::from(sg.roots.len() < n);
            let mut is_root = vec![false; n];
            for &r in &sg.roots {
                is_root[r as usize] = true;
            }
            let csr = sg.sweep_csr();
            for &s in &sg.roots {
                let mut seen = vec![false; n];
                seen[s as usize] = true;
                let mut queue = std::collections::VecDeque::from([s]);
                while let Some(u) = queue.pop_front() {
                    for &v in csr.neighbors(u) {
                        if !seen[v as usize] {
                            assert!(is_root[v as usize], "{name}: SG{i} root {s} reaches {v}");
                            seen[v as usize] = true;
                            queue.push_back(v);
                        }
                    }
                }
            }
        }
    }
    assert!(directed > 0, "a directed input must be covered");
    assert!(with_non_roots > 0, "some sub-graph must hold non-root vertices");
}

/// Each sub-graph's arc weights in `wg`, aligned with `sweep_csr`.
fn sweep_weights(wg: &WeightedGraph, d: &Decomposition) -> Vec<Vec<u32>> {
    let global = |sg: &SubGraph, l: VertexId| sg.globals[l as usize];
    d.subgraphs
        .iter()
        .map(|sg| {
            sg.sweep_csr().edges().map(|(u, v)| wg.weight(global(sg, u), global(sg, v))).collect()
        })
        .collect()
}

/// The weighted kernel's inputs: the whisker-heavy graphs plus a directed
/// R-MAT with directed whiskers.
fn weighted_inputs() -> Vec<(String, Graph, Decomposition)> {
    let mut inputs = whisker_inputs();
    let core = generators::rmat_directed(6, 5, 21);
    let g = generators::attach_directed_whiskers(&core, 30, 0.2, 22);
    let d = decompose(&g, &PartitionOptions::default());
    inputs.push(("rmat-directed".to_string(), g, d));
    inputs
}

/// The weighted sweep: every `KernelChoice` arm (full and split roots,
/// fresh and pooled workspaces) and the observed sweep match weighted
/// serial Brandes at 1e-7 under random weights, the observed sweep
/// bitwise-matches `Seq`, and every sweep examines exactly the edges the
/// unweighted sweep does — weights never change the reached set, so the
/// whisker fold drops the same whisker arcs from weighted sweeps.
#[test]
fn weighted_kernel_table_matches_bc_weighted_serial() {
    for (k, (name, g, d)) in weighted_inputs().into_iter().enumerate() {
        let wg = WeightedGraph::random_weights(g, 9, 0xC0 + k as u64);
        let want = bc_weighted_serial(&wg);
        let close = |what: &str, got: &[f64]| {
            assert_eq!(got.len(), want.len(), "{name}/{what}: length");
            for (v, (&x, &y)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-7 * (1.0 + x.abs().max(y.abs())),
                    "{name}/{what}: vertex {v}: got {x}, want {y}"
                );
            }
        };
        let weights = sweep_weights(&wg, &d);
        let unweighted = kernel_table(&d, 1);
        let bfs = cell(&unweighted, KernelChoice::Seq, Roots::Full, Ws::Fresh);
        for grain in [1, DEFAULT_GRAIN] {
            let table = weighted_kernel_table(&d, Some(&weights), grain);
            let seq = cell(&table, KernelChoice::Seq, Roots::Full, Ws::Fresh);
            for c in &table {
                close(&format!("g{grain}/{}", c.name()), &c.compose(&d));
                for (i, ((_, e), (_, e_bfs))) in c.runs.iter().zip(&bfs.runs).enumerate() {
                    assert_eq!(e, e_bfs, "{name}@g{grain}/{}: SG{i} edges vs BFS", c.name());
                }
            }
            let mut observed = vec![0.0f64; wg.num_vertices()];
            for (i, sg) in d.subgraphs.iter().enumerate() {
                let view = SubGraphView { sg, weights: Some(&weights[i]) };
                let mut local = vec![0.0f64; sg.num_vertices()];
                let mut calls = 0usize;
                let edges = bc_in_subgraph(
                    view,
                    &sg.roots,
                    KernelChoice::RootParallel,
                    grain,
                    &mut SgWorkspace::default(),
                    &mut local,
                    Some(&mut |_: &[f64]| calls += 1),
                );
                assert_eq!(calls, sg.roots.len(), "{name}: SG{i} one call per root");
                assert_eq!(local, seq.runs[i].0, "{name}: SG{i} observed vs plain");
                assert_eq!(edges, seq.runs[i].1, "{name}: SG{i} observed edges");
                for (l, &score) in local.iter().enumerate() {
                    observed[sg.globals[l] as usize] += score;
                }
            }
            close(&format!("g{grain}/observed"), &observed);
        }
    }
}

/// Under unit weights the Dijkstra sweep is the BFS sweep: every cell of
/// the weighted kernel table is bitwise equal to the unweighted cell that
/// runs the same strategy and examines the same edges, on the whisker-heavy
/// graphs and the Table-1 stand-ins.
#[test]
fn unit_weighted_sweep_is_bitwise_the_bfs_sweep() {
    for (name, g, d) in weighted_inputs().into_iter().chain(table_inputs()) {
        let weights = sweep_weights(&WeightedGraph::unit(g), &d);
        let (bfs, dijkstra) = (kernel_table(&d, 2), weighted_kernel_table(&d, Some(&weights), 2));
        for c in &dijkstra {
            let want = cell(&bfs, c.choice, c.roots, c.ws);
            for (i, (got, want)) in c.runs.iter().zip(&want.runs).enumerate() {
                assert_eq!(got, want, "{name}/{}: SG{i} unit-weighted vs BFS", c.name());
            }
        }
    }
}

/// Under `invariants`, the Dijkstra forward phase rejects a stale
/// whisker-free layout — a `folded_csr` that still holds whisker arcs — as
/// the BFS forward phase does.
#[cfg(all(feature = "invariants", debug_assertions))]
#[test]
#[should_panic(expected = "whisker settled by a folded sweep")]
fn weighted_sweep_rejects_a_stale_folded_csr() {
    let mut d = decompose(&generators::star(7), &PartitionOptions::default());
    let sg = &mut d.subgraphs[0];
    sg.folded_csr = Some(sg.graph.csr().clone());
    let (sg, mut local) = (&*sg, vec![0.0f64; sg.num_vertices()]);
    let weights = vec![1u32; sg.sweep_csr().num_edges()];
    let view = SubGraphView { sg, weights: Some(&weights) };
    bc_in_subgraph(
        view,
        &sg.roots,
        KernelChoice::Seq,
        1,
        &mut SgWorkspace::default(),
        &mut local,
        None,
    );
}

/// One root's Equation-7 contribution under Algorithm 2 as printed: a
/// forward phase over the full local graph (`sg.graph`, whiskers included
/// as targets) — Dijkstra over `weights`, aligned with `sg.graph.csr()`, or
/// BFS order when `None` — then a backward sweep that stores the three
/// dependencies `δ_i2i`, `δ_i2o` and `δ_o2o` per vertex (their `δ^init`
/// set up front, as in the paper's phase 0) and takes `δ_o2i = β(s)·δ_i2i`,
/// plus the §3.3 root term. Also returns how many arcs from a reached
/// vertex point to a strictly closer one (out-arcs back up the DAG).
fn literal_algorithm2(sg: &SubGraph, weights: Option<&[u32]>, s: VertexId) -> (Vec<f64>, usize) {
    use std::cmp::Reverse;
    let (csr, n, su) = (sg.graph.csr(), sg.num_vertices(), s as usize);
    let len = |arc: usize| weights.map_or(1u64, |w| u64::from(w[arc]));
    let (mut dist, mut sigma) = (vec![u64::MAX; n], vec![0.0f64; n]);
    let (mut order, mut settled) = (Vec::new(), vec![false; n]);
    let mut heap = std::collections::BinaryHeap::from([Reverse((0u64, s))]);
    (dist[su], sigma[su]) = (0, 1.0);
    while let Some(Reverse((d, u))) = heap.pop() {
        let uu = u as usize;
        if settled[uu] {
            continue;
        }
        settled[uu] = true;
        order.push(u);
        let lo = csr.offsets()[uu];
        for (i, &w) in csr.neighbors(u).iter().enumerate() {
            let (wu, nd) = (w as usize, d + len(lo + i));
            if nd < dist[wu] {
                (dist[wu], sigma[wu]) = (nd, sigma[uu]);
                heap.push(Reverse((nd, w)));
            } else if nd == dist[wu] {
                sigma[wu] += sigma[uu];
            }
        }
    }
    let s_boundary = sg.is_boundary[su];
    let beta_s = if s_boundary { sg.beta[su] as f64 } else { 0.0 };
    let gamma_s = sg.gamma[su] as f64;
    let (mut i2i, mut i2o, mut o2o) = (vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n]);
    for &v in &order {
        let vu = v as usize;
        if v != s && sg.is_boundary[vu] {
            i2o[vu] = sg.alpha[vu] as f64;
            o2o[vu] = beta_s * sg.alpha[vu] as f64;
        }
    }
    let (mut contrib, mut back) = (vec![0.0f64; n], 0usize);
    for &v in order.iter().rev() {
        let vu = v as usize;
        let lo = csr.offsets()[vu];
        for (i, &w) in csr.neighbors(v).iter().enumerate() {
            let wu = w as usize;
            back += usize::from(dist[wu] < dist[vu]);
            if dist[wu] == dist[vu] + len(lo + i) {
                let c = sigma[vu] / sigma[wu];
                i2i[vu] += c * (1.0 + i2i[wu]);
                i2o[vu] += c * i2o[wu];
                o2o[vu] += c * o2o[wu];
            }
        }
        if v != s {
            let o2i = beta_s * i2i[vu];
            contrib[vu] = (1.0 + gamma_s) * (i2i[vu] + i2o[vu]) + o2i + o2o[vu];
        }
    }
    if gamma_s > 0.0 {
        let whisker_self = if sg.graph.is_directed() { 0.0 } else { 1.0 };
        let alpha_s = if s_boundary { sg.alpha[su] as f64 } else { 0.0 };
        contrib[su] = gamma_s * ((i2i[su] - whisker_self) + i2o[su] + alpha_s);
    }
    (contrib, back)
}

/// Every sub-graph of `d` through the observed sweep (weighted when
/// `weights` holds `(sweep_csr, full local CSR)` arc weights per sub-graph)
/// against [`literal_algorithm2`], root by root, at `1e-12·(1+|x|)`.
/// Returns the back arcs the literal sweeps met and how many roots were
/// boundary points.
fn assert_matches_literal_algorithm2(
    name: &str,
    d: &Decomposition,
    weights: Option<&[(Vec<u32>, Vec<u32>)]>,
) -> (usize, usize) {
    let (mut back, mut boundary_roots) = (0usize, 0usize);
    for (i, sg) in d.subgraphs.iter().enumerate() {
        let (sweep, full) = match weights {
            Some(w) => (Some(&w[i].0[..]), Some(&w[i].1[..])),
            None => (None, None),
        };
        let mut contribs: Vec<Vec<f64>> = Vec::new();
        bc_in_subgraph(
            SubGraphView { sg, weights: sweep },
            &sg.roots,
            KernelChoice::Seq,
            1,
            &mut SgWorkspace::default(),
            &mut vec![0.0f64; sg.num_vertices()],
            Some(&mut |c: &[f64]| contribs.push(c.to_vec())),
        );
        assert_eq!(contribs.len(), sg.roots.len(), "{name}: SG{i} one call per root");
        for (&s, got) in sg.roots.iter().zip(&contribs) {
            let (want, b) = literal_algorithm2(sg, full, s);
            back += b;
            boundary_roots += usize::from(sg.is_boundary[s as usize]);
            for (v, (&x, &y)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-12 * (1.0 + y.abs()),
                    "{name}: SG{i} root {s} local {v}: sweep {x} vs literal Algorithm 2 {y}"
                );
            }
        }
    }
    (back, boundary_roots)
}

/// The one-coefficient sweep is Algorithm 2: per root, its Equation-7
/// contribution matches a literal three-dependency Algorithm 2 over the
/// unfolded local graph on the whisker-heavy inputs, a boundary-rich
/// community graph, a directed Table-1 stand-in whose out-arcs reach back
/// to closer levels, and non-unit-weighted graphs.
#[test]
fn one_coefficient_sweep_matches_literal_algorithm2() {
    let (_, _, boundary_rich) = table_inputs().pop().expect("whiskered-t8");
    let (_, boundary_roots) =
        assert_matches_literal_algorithm2("whiskered-t8", &boundary_rich, None);
    assert!(boundary_roots > 0, "whiskered-t8: some root must be a boundary point");
    let directed = apgre::workloads::get("slashdot-like").expect("a Table-1 stand-in");
    let g = directed.graph(Scale::Tiny);
    assert!(g.is_directed());
    let d = decompose(&g, &PartitionOptions::default());
    let (back, _) = assert_matches_literal_algorithm2(directed.name, &d, None);
    assert!(back > 0, "{}: out-arcs must reach back to closer levels", directed.name);
    for (name, _, d) in whisker_inputs() {
        assert_matches_literal_algorithm2(&name, &d, None);
    }
    for (k, (name, g, d)) in weighted_inputs().into_iter().enumerate() {
        let wg = WeightedGraph::random_weights(g, 9, 0x7E + k as u64);
        let full = d.subgraphs.iter().map(|sg| {
            let global = |l: VertexId| sg.globals[l as usize];
            sg.graph.csr().edges().map(|(u, v)| wg.weight(global(u), global(v))).collect()
        });
        let weights: Vec<(Vec<u32>, Vec<u32>)> =
            sweep_weights(&wg, &d).into_iter().zip(full).collect();
        assert_matches_literal_algorithm2(&format!("{name}/weighted"), &d, Some(&weights));
    }
}
