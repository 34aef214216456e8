//! Kernel-policy equivalence: the single sub-graph kernel entry point
//! (`bc_in_subgraph`) under every `KernelChoice`, full and split root sets,
//! fresh and pooled (recycled, oversized) workspaces, with and without the
//! per-root observer — and every `KernelPolicy` end to end — must reproduce
//! serial Brandes (`bc_serial`) on the Table-1 workload stand-ins, across
//! grains and pool sizes.

use apgre::bc::apgre::kernel::{bc_in_subgraph, SgWorkspace};
use apgre::bc::apgre::{full_jobs, run_subgraph_kernels, DEFAULT_GRAIN};
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

const CHOICES: [KernelChoice; 3] =
    [KernelChoice::Seq, KernelChoice::RootParallel, KernelChoice::LevelSync];

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
                        .map(|r| bc_in_subgraph(sg, r, choice, grain, w, &mut local, None))
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
            ("levelsync", KernelPolicy::LevelSync, 1),
        ] {
            let opts = ApgreOptions { kernel, grain, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{}/{name}", spec.name), &got, &want);
            let (s, r, l) = report.kernel_counts;
            assert_eq!(s + r + l, report.num_subgraphs, "{}/{name}", spec.name);
            match kernel {
                KernelPolicy::Seq => assert_eq!(s, report.num_subgraphs),
                KernelPolicy::RootParallel => assert_eq!(r, report.num_subgraphs),
                KernelPolicy::LevelSync => assert_eq!(l, report.num_subgraphs),
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

/// The parallel kernels must also be exact inside a single-worker pool (the
/// degenerate scheduling case: every chunk and level runs on one thread).
#[test]
fn forced_parallel_kernels_match_bc_serial_on_one_thread() {
    let spec = &registry()[1];
    let g = spec.graph(Scale::Tiny);
    let want = bc_serial(&g);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for kernel in [KernelPolicy::RootParallel, KernelPolicy::LevelSync] {
        let opts = ApgreOptions { kernel, grain: 1, ..Default::default() };
        let got = pool.install(|| bc_apgre_with(&g, &opts).0);
        assert_close(&format!("{}/{kernel:?}@1thread", spec.name), &got, &want);
    }
}

/// Exactness must not depend on the scheduling grain.
#[test]
fn grain_sweep_matches_bc_serial() {
    let spec = &registry()[4];
    let g = spec.graph(Scale::Tiny);
    let want = bc_serial(&g);
    for grain in [1, 3, 64, 1_000_000] {
        for kernel in [KernelPolicy::Auto, KernelPolicy::RootParallel, KernelPolicy::LevelSync] {
            let opts = ApgreOptions { kernel, grain, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{}/{kernel:?}@g{grain}", spec.name), &got, &want);
            assert_eq!(report.grain, grain.max(1));
        }
    }
}

/// Root additivity: sweeping the two halves of a sub-graph's roots in turn
/// into one `bc_local` sums to the full sweep under every strategy —
/// bitwise for the sequential and level-synchronous sweeps, which add in
/// the same root order either way — and so composes to serial Brandes.
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
/// strategy is requested (it forces the sequential sweep), sees every root
/// once with that root's own contribution, and the dispatcher's Welford
/// statistics agree with a two-pass variance over those contributions.
#[test]
fn observer_is_bitwise_neutral_and_welford_consistent() {
    let (name, g, d) = table_inputs().swap_remove(0);
    let table = kernel_table(&d, 1);
    let seq = cell(&table, KernelChoice::Seq, Roots::Full, Ws::Fresh);
    let opts = ApgreOptions { grain: 1, ..Default::default() };
    let jobs = full_jobs(&d, 0..d.num_subgraphs());
    let stats = run_subgraph_kernels(&d, &jobs, &opts, true);
    let mut composed = vec![0.0f64; g.num_vertices()];
    for (i, sg) in d.subgraphs.iter().enumerate() {
        let n = sg.num_vertices();
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
            let k = contribs.len() as f64;
            let st = stats[i].stats.as_ref().unwrap();
            assert_eq!(st.roots, contribs.len(), "{name}: SG{i}");
            for v in 0..n {
                let sum: f64 = contribs.iter().map(|c| c[v]).sum();
                assert!(
                    (sum - local[v]).abs() <= 1e-9 * (1.0 + local[v].abs()),
                    "{name}: SG{i} local {v}: Σ per-root {sum} vs span {}",
                    local[v]
                );
                let mean = sum / k;
                let m2: f64 = contribs.iter().map(|c| (c[v] - mean).powi(2)).sum();
                assert!(
                    (m2 - st.vertex_m2[v]).abs() <= 1e-9 * (1.0 + m2.abs()),
                    "{name}: SG{i} local {v}: two-pass M2 {m2} vs Welford {}",
                    st.vertex_m2[v]
                );
            }
        }
        assert_eq!(stats[i].local, seq.runs[i].0, "{name}: SG{i} dispatcher observed span");
        for (l, &score) in stats[i].local.iter().enumerate() {
            composed[sg.globals[l] as usize] += score;
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
        for (name, kernel) in [
            ("seq", KernelPolicy::Seq),
            ("rootpar", KernelPolicy::RootParallel),
            ("levelsync", KernelPolicy::LevelSync),
        ] {
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
    for kernel in [KernelPolicy::Seq, KernelPolicy::RootParallel, KernelPolicy::LevelSync] {
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
