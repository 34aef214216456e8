//! Property-based tests: incremental BC ≡ from-scratch APGRE under random
//! mutation batches.
//!
//! Random base graphs (undirected and directed, connected or not) receive
//! random batches mixing edge adds/removes — including whisker
//! attach/detach and articulation-point-creating bridges — and vertex
//! churn. After every batch the engine's scores must match a from-scratch
//! APGRE run on the current graph within 1e-9 relative, and a forced-`Seq`
//! engine must stay bitwise identical to the batch driver replayed on the
//! engine's own maintained decomposition.
//!
//! The oracles score `engine.current_graph()`, which the engine
//! materializes from its own copy-on-write graph. So every test also
//! replays each batch into an independent [`GraphOverlay`] model and
//! checks that graph against it, CSR for CSR.

use apgre_bc::{bc_from_decomposition, ApgreOptions, KernelPolicy};
use apgre_decomp::PartitionOptions;
use apgre_dynamic::{bc_dynamic, DynamicBc, Mutation, MutationBatch};
use apgre_graph::{Graph, GraphOverlay};
use proptest::prelude::*;

fn assert_close(ctx: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for i in 0..want.len() {
        let (x, y) = (got[i], want[i]);
        assert!(
            (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
            "{ctx}: vertex {i}: got {x}, want {y}"
        );
    }
}

/// Raw mutation descriptor: resolved against the live vertex count at apply
/// time, so batches stay valid as vertex churn grows the graph.
#[derive(Clone, Debug)]
enum RawMut {
    Add(u32, u32),
    Remove(u32, u32),
    AddVertex,
    StripVertex(u32),
}

fn resolve(raw: &[RawMut], n: usize) -> MutationBatch {
    let mut batch = MutationBatch::new();
    let clamp = |v: u32| v % n.max(1) as u32;
    for m in raw {
        batch.push(match *m {
            RawMut::Add(u, v) => Mutation::AddEdge(clamp(u), clamp(v)),
            RawMut::Remove(u, v) => Mutation::RemoveEdge(clamp(u), clamp(v)),
            RawMut::AddVertex => Mutation::AddVertex,
            RawMut::StripVertex(v) => Mutation::RemoveVertex(clamp(v)),
        });
    }
    batch
}

/// Replays a resolved batch into the test-owned model graph.
fn replay(model: &mut GraphOverlay, batch: &MutationBatch) {
    for &m in batch.mutations() {
        match m {
            Mutation::AddEdge(u, v) => {
                model.add_edge(u, v);
            }
            Mutation::RemoveEdge(u, v) => {
                model.remove_edge(u, v);
            }
            Mutation::AddVertex => {
                model.add_vertex();
            }
            Mutation::RemoveVertex(v) => {
                model.remove_vertex(v);
            }
        }
    }
}

/// The engine's graph must be CSR-identical to the model's (forward and,
/// when directed, reverse).
fn assert_same_graph(ctx: &str, engine: &DynamicBc, model: &GraphOverlay) {
    let (got, want) = (engine.current_graph(), model.to_graph());
    assert_eq!(got.is_directed(), want.is_directed(), "{ctx}: directedness");
    assert_eq!(got.csr().offsets(), want.csr().offsets(), "{ctx}: offsets");
    assert_eq!(got.csr().targets(), want.csr().targets(), "{ctx}: targets");
    if want.is_directed() {
        assert_eq!(got.rev_csr().offsets(), want.rev_csr().offsets(), "{ctx}: rev offsets");
        assert_eq!(got.rev_csr().targets(), want.rev_csr().targets(), "{ctx}: rev targets");
    }
}

fn raw_mutation() -> impl Strategy<Value = RawMut> {
    // Weighted pick via a roll (the vendored proptest stand-in has no
    // `prop_oneof!`). Edge edits dominate: adds create chords, bridges (new
    // articulation points), and whiskers; removes detach whiskers and split
    // BCCs. Endpoints are drawn wide and clamped at apply time.
    (0u32..11, 0u32..4096, 0u32..4096).prop_map(|(roll, a, b)| match roll {
        0..=4 => RawMut::Add(a, b),
        5..=8 => RawMut::Remove(a, b),
        9 => RawMut::AddVertex,
        _ => RawMut::StripVertex(a),
    })
}

fn scenario(
    n_max: u32,
    m_max: usize,
) -> impl Strategy<Value = (u32, Vec<(u32, u32)>, Vec<Vec<RawMut>>)> {
    (3..n_max).prop_flat_map(move |n| {
        let edge = (0..n, 0..n);
        (
            Just(n),
            proptest::collection::vec(edge, 1..m_max),
            proptest::collection::vec(proptest::collection::vec(raw_mutation(), 1..4), 1..6),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn incremental_matches_scratch_undirected(
        (n, edges, stream) in scenario(40, 90),
        threshold in 0usize..12,
    ) {
        let g = Graph::undirected_from_edges(n as usize, &edges);
        let opts = ApgreOptions {
            partition: PartitionOptions { merge_threshold: threshold, ..Default::default() },
            ..Default::default()
        };
        let mut engine = DynamicBc::new(&g, opts.clone());
        let mut model = GraphOverlay::from_graph(&g);
        assert_same_graph(&format!("n={n} seed"), &engine, &model);
        for (k, raw) in stream.iter().enumerate() {
            let batch = resolve(raw, engine.num_vertices());
            engine.apply(&batch);
            replay(&mut model, &batch);
            assert_same_graph(&format!("n={n} t={threshold} batch {k}"), &engine, &model);
            let current = engine.current_graph();
            let (scratch, _) = apgre_bc::bc_apgre_with(&current, &opts);
            assert_close(&format!("und n={n} t={threshold} batch {k}"), engine.scores(), &scratch);
        }
    }

    #[test]
    fn incremental_matches_scratch_directed(
        (n, edges, stream) in scenario(32, 80),
        threshold in 0usize..12,
    ) {
        let g = Graph::directed_from_edges(
            n as usize,
            &edges.iter().copied().filter(|&(u, v)| u != v).collect::<Vec<_>>(),
        );
        let opts = ApgreOptions {
            partition: PartitionOptions { merge_threshold: threshold, ..Default::default() },
            ..Default::default()
        };
        let mut engine = DynamicBc::new(&g, opts.clone());
        let mut model = GraphOverlay::from_graph(&g);
        assert_same_graph(&format!("n={n} seed"), &engine, &model);
        for (k, raw) in stream.iter().enumerate() {
            let batch = resolve(raw, engine.num_vertices());
            engine.apply(&batch);
            replay(&mut model, &batch);
            assert_same_graph(&format!("n={n} t={threshold} batch {k}"), &engine, &model);
            let current = engine.current_graph();
            let (scratch, _) = apgre_bc::bc_apgre_with(&current, &opts);
            assert_close(&format!("dir n={n} t={threshold} batch {k}"), engine.scores(), &scratch);
        }
    }

    #[test]
    fn forced_seq_is_bitwise_vs_own_decomposition(
        (n, edges, stream) in scenario(36, 80),
        threshold in 0usize..12,
        directed in proptest::bool::ANY,
    ) {
        // Directed batches all rebuild, so this pins a rebuilt engine's
        // commit order bitwise too.
        let g = if directed {
            let arcs: Vec<(u32, u32)> = edges.iter().copied().filter(|&(u, v)| u != v).collect();
            Graph::directed_from_edges(n as usize, &arcs)
        } else {
            Graph::undirected_from_edges(n as usize, &edges)
        };
        let opts = ApgreOptions {
            kernel: KernelPolicy::Seq,
            partition: PartitionOptions { merge_threshold: threshold, ..Default::default() },
            ..Default::default()
        };
        let mut engine = DynamicBc::new(&g, opts.clone());
        let mut model = GraphOverlay::from_graph(&g);
        assert_same_graph(&format!("n={n} seed"), &engine, &model);
        for (k, raw) in stream.iter().enumerate() {
            let batch = resolve(raw, engine.num_vertices());
            engine.apply(&batch);
            replay(&mut model, &batch);
            assert_same_graph(&format!("n={n} t={threshold} batch {k}"), &engine, &model);
            let current = engine.current_graph();
            let (anchor, _) = bc_from_decomposition(&current, engine.decomposition(), &opts);
            prop_assert_eq!(
                engine.scores(),
                &anchor[..],
                "n={} t={} dir={} batch {}: bitwise divergence", n, threshold, directed, k
            );
        }
    }

    #[test]
    fn adaptive_refresh_is_bitwise_vs_scratch_oracle(
        (n, edges, stream) in scenario(34, 80),
        threshold in 0usize..12,
        budget in 4usize..40,
        directed in proptest::bool::ANY,
    ) {
        use apgre_approx::{bc_sampled_with_stderr_from_decomposition, SampleOptions};

        // Directed batches all take the rebuild path, whose splice moves
        // the estimator's spans with the exact ones.
        let g = if directed {
            let arcs: Vec<(u32, u32)> = edges.iter().copied().filter(|&(u, v)| u != v).collect();
            Graph::directed_from_edges(n as usize, &arcs)
        } else {
            Graph::undirected_from_edges(n as usize, &edges)
        };
        let opts = ApgreOptions {
            kernel: KernelPolicy::Seq,
            partition: PartitionOptions { merge_threshold: threshold, ..Default::default() },
            ..Default::default()
        };
        let sopts = SampleOptions::adaptive(budget, 0xAD4B ^ budget as u64);
        let mut engine = DynamicBc::new(&g, opts.clone());
        let mut model = GraphOverlay::from_graph(&g);
        assert_same_graph(&format!("n={n} seed"), &engine, &model);
        engine.enable_approx(sopts.clone());
        for (k, raw) in stream.iter().enumerate() {
            let batch = resolve(raw, engine.num_vertices());
            engine.apply(&batch);
            replay(&mut model, &batch);
            assert_same_graph(&format!("n={n} t={threshold} batch {k}"), &engine, &model);
            // The incremental refresh re-pilots only dirty sub-graphs and
            // resamples the pending set plus allocation drift; the oracle
            // re-plans everything from scratch. They must agree bitwise —
            // estimates and standard errors.
            let ap = engine.approx_snapshot().expect("estimator enabled");
            let (want, want_err) = bc_sampled_with_stderr_from_decomposition(
                engine.decomposition(), &opts, &sopts);
            let got = ap.estimates.to_vec();
            prop_assert_eq!(got.len(), want.len(), "n={} batch {}: length", n, k);
            for v in 0..want.len() {
                prop_assert_eq!(
                    got[v].to_bits(), want[v].to_bits(),
                    "n={} t={} B={} dir={} batch {}: estimate bits diverge at vertex {}",
                    n, threshold, budget, directed, k, v
                );
                prop_assert_eq!(
                    ap.stderr(v).to_bits(), want_err[v].to_bits(),
                    "n={} t={} B={} dir={} batch {}: stderr bits diverge at vertex {}",
                    n, threshold, budget, directed, k, v
                );
            }
        }
    }

    #[test]
    fn one_shot_replay_matches_serial(
        (n, edges, stream) in scenario(28, 60),
    ) {
        let g = Graph::undirected_from_edges(n as usize, &edges);
        let opts = ApgreOptions::default();
        // Replay through the engine to learn the final graph, then check the
        // one-shot entry point against serial Brandes on that graph.
        let mut engine = DynamicBc::new(&g, opts.clone());
        let mut model = GraphOverlay::from_graph(&g);
        assert_same_graph(&format!("n={n} seed"), &engine, &model);
        let mut batches = Vec::new();
        for (k, raw) in stream.iter().enumerate() {
            let batch = resolve(raw, engine.num_vertices());
            engine.apply(&batch);
            replay(&mut model, &batch);
            assert_same_graph(&format!("one-shot n={n} batch {k}"), &engine, &model);
            batches.push(batch);
        }
        let got = bc_dynamic(&g, &batches, &opts);
        let want = apgre_bc::bc_serial(&engine.current_graph());
        assert_close(&format!("one-shot n={n}"), &got, &want);
    }
}
