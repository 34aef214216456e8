//! Property-based tests for the copy-on-write snapshot store.
//!
//! * [`CowGraph`] is driven in lockstep with a [`GraphOverlay`] (an
//!   independent model of the same graph) through random mutation streams
//!   — edge churn, vertex growth, vertex stripping. Both must agree on
//!   which edits are effective, and the cow must stay CSR-identical to
//!   `overlay.to_graph()` after every batch, including immediately after
//!   an explicit `compact()`.
//! * [`FoldStore`] receives random splice sequences (survivor subsets kept
//!   in order, fresh groups appended at the tail, dirty spans rewritten)
//!   and must stay bitwise-identical to a store rebuilt from scratch over
//!   the same spans, for both the flat fold and every per-vertex fold. A
//!   second property spreads its fresh groups over several owner-index
//!   chunks and grows the vertex count at every step, and checks that the
//!   chunks no splice touched stay shared with the pre-splice snapshot.

use std::sync::Arc;

use apgre_graph::{Graph, GraphOverlay};
use apgre_store::{CowGraph, FoldStore, INDEX_CHUNK_SIZE};
use proptest::prelude::*;

/// Raw mutation descriptor, clamped against the live vertex count at apply
/// time (mirrors the dynamic crate's property-test driver).
#[derive(Clone, Debug)]
enum RawMut {
    Add(u32, u32),
    Remove(u32, u32),
    AddVertex,
    StripVertex(u32),
}

fn raw_mutation() -> impl Strategy<Value = RawMut> {
    (0u32..11, 0u32..4096, 0u32..4096).prop_map(|(roll, a, b)| match roll {
        0..=4 => RawMut::Add(a, b),
        5..=8 => RawMut::Remove(a, b),
        9 => RawMut::AddVertex,
        _ => RawMut::StripVertex(a),
    })
}

fn cow_scenario(
    n_max: u32,
    m_max: usize,
) -> impl Strategy<Value = (u32, Vec<(u32, u32)>, Vec<Vec<RawMut>>)> {
    (3..n_max).prop_flat_map(move |n| {
        let edge = (0..n, 0..n);
        (
            Just(n),
            proptest::collection::vec(edge, 1..m_max),
            proptest::collection::vec(proptest::collection::vec(raw_mutation(), 1..6), 1..6),
        )
    })
}

/// Applies one raw mutation to both the overlay and the cow; the cow's
/// own effective-edit answer must equal the overlay's.
fn apply_mirrored(overlay: &mut GraphOverlay, cow: &mut CowGraph, m: &RawMut) {
    let n = overlay.num_vertices().max(1) as u32;
    let clamp = |v: u32| v % n;
    match *m {
        RawMut::Add(u, v) => {
            let (u, v) = (clamp(u), clamp(v));
            assert_eq!(cow.add_edge(u, v), overlay.add_edge(u, v), "add {u} {v}");
        }
        RawMut::Remove(u, v) => {
            let (u, v) = (clamp(u), clamp(v));
            assert_eq!(cow.remove_edge(u, v), overlay.remove_edge(u, v), "remove {u} {v}");
        }
        RawMut::AddVertex => {
            assert_eq!(cow.add_vertex(), overlay.add_vertex());
        }
        RawMut::StripVertex(v) => {
            let v = clamp(v);
            let stripped = cow.remove_vertex(v);
            assert_eq!(stripped.len(), overlay.remove_vertex(v), "strip {v}");
        }
    }
}

/// One sub-graph for the fold-store driver: sorted unique vertex ids with
/// one (exactly representable) contribution value each.
fn group(n: u32) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0u32..1000), 1..12).prop_map(|mut pairs| {
        pairs.sort_by_key(|&(v, _)| v);
        pairs.dedup_by_key(|pair| pair.0);
        pairs
    })
}

type SpliceStep = (Vec<u32>, Vec<Vec<(u32, u32)>>, u32);

fn fold_scenario() -> impl Strategy<Value = (u32, Vec<Vec<(u32, u32)>>, Vec<SpliceStep>)> {
    (4u32..2200).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(group(n), 1..8),
            // Each step: a keep/dissolve coin per survivor candidate, fresh
            // groups to append, and a seed for rewriting a dirty span.
            proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..2, 1..10),
                    proptest::collection::vec(group(n), 0..4),
                    0u32..1000,
                ),
                1..5,
            ),
        )
    })
}

fn spans_of(groups: &[Vec<(u32, u32)>]) -> Vec<(Arc<[u32]>, Arc<[f64]>)> {
    groups
        .iter()
        .map(|g| {
            let globals: Vec<u32> = g.iter().map(|&(v, _)| v).collect();
            // Halves are exact in binary floating point, so any fold-order
            // bug shows up as a hard bitwise mismatch, not a rounding blur.
            let values: Vec<f64> = g.iter().map(|&(_, x)| x as f64 / 2.0).collect();
            (Arc::from(globals), Arc::from(values))
        })
        .collect()
}

/// A group for the wide-splice property, as raw `(id, value)` draws that
/// [`place`] resolves against the vertex count of the step it joins.
fn raw_group() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..1 << 20, 0u32..1000), 3..16)
}

/// Resolves a raw group at `n` vertices (`n > 2 · INDEX_CHUNK_SIZE`): its
/// first three draws land in index chunks 0, 1 and 2, the rest anywhere
/// below `n`; ids are then sorted and deduplicated.
fn place(raw: &[(u32, u32)], n: u32) -> Vec<(u32, u32)> {
    let chunk = INDEX_CHUNK_SIZE as u32;
    let mut pairs: Vec<(u32, u32)> = raw
        .iter()
        .enumerate()
        .map(|(i, &(id, x))| match i {
            0 | 1 => (i as u32 * chunk + id % chunk, x),
            2 => (2 * chunk + id % (n - 2 * chunk).min(chunk), x),
            _ => (id % n, x),
        })
        .collect();
    pairs.sort_by_key(|&(v, _)| v);
    pairs.dedup_by_key(|pair| pair.0);
    pairs
}

/// One wide-splice step: keep/dissolve coins, fresh raw groups, a seed for
/// rewriting a dirty span, and the vertex growth applied first.
type WideStep = (Vec<u32>, Vec<Vec<(u32, u32)>>, u32, u32);

fn wide_fold_scenario() -> impl Strategy<Value = (u32, Vec<Vec<(u32, u32)>>, Vec<WideStep>)> {
    let chunk = INDEX_CHUNK_SIZE as u32;
    (
        2 * chunk + 1..3 * chunk,
        proptest::collection::vec(raw_group(), 1..6),
        proptest::collection::vec(
            (
                proptest::collection::vec(0u32..2, 1..10),
                proptest::collection::vec(raw_group(), 1..4),
                0u32..1000,
                1u32..1500,
            ),
            2..6,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn cow_stays_csr_identical_undirected(
        (n, edges, stream) in cow_scenario(1500, 160),
    ) {
        let g = Graph::undirected_from_edges(n as usize, &edges);
        let mut overlay = GraphOverlay::from_graph(&g);
        let mut cow = CowGraph::from_graph(&g);
        for (k, batch) in stream.iter().enumerate() {
            for m in batch {
                apply_mirrored(&mut overlay, &mut cow, m);
            }
            let fresh = overlay.to_graph();
            cow.verify_against_fresh(&fresh)
                .unwrap_or_else(|e| panic!("n={n} batch {k}: {e}"));
            prop_assert_eq!(cow.num_edges(), fresh.num_edges());
            // Compaction must be invisible to readers.
            if k % 2 == 1 {
                cow.compact();
                prop_assert_eq!(cow.delta_arcs(), 0);
                cow.verify_against_fresh(&fresh)
                    .unwrap_or_else(|e| panic!("n={n} batch {k} post-compact: {e}"));
            }
        }
    }

    #[test]
    fn cow_stays_csr_identical_directed(
        (n, edges, stream) in cow_scenario(900, 120),
    ) {
        let arcs: Vec<(u32, u32)> = edges.into_iter().filter(|&(u, v)| u != v).collect();
        let g = Graph::directed_from_edges(n as usize, &arcs);
        let mut overlay = GraphOverlay::from_graph(&g);
        let mut cow = CowGraph::from_graph(&g);
        for (k, batch) in stream.iter().enumerate() {
            for m in batch {
                apply_mirrored(&mut overlay, &mut cow, m);
            }
            let fresh = overlay.to_graph();
            cow.verify_against_fresh(&fresh)
                .unwrap_or_else(|e| panic!("dir n={n} batch {k}: {e}"));
            if k % 2 == 0 {
                cow.compact();
                cow.verify_against_fresh(&fresh)
                    .unwrap_or_else(|e| panic!("dir n={n} batch {k} post-compact: {e}"));
            }
        }
    }

    #[test]
    fn cow_from_graph_normalizes_like_the_overlay(
        (n, arcs, _stream) in cow_scenario(900, 160),
    ) {
        // Raw arcs: parallel arcs and self-loops both survive
        // `directed_from_edges`, so the cow must drop them itself.
        let g = Graph::directed_from_edges(n as usize, &arcs);
        let want = GraphOverlay::from_graph(&g).to_graph();
        let cow = CowGraph::from_graph(&g);
        cow.verify_against_fresh(&want).unwrap_or_else(|e| panic!("dir n={n}: {e}"));
        prop_assert_eq!(cow.num_edges(), want.num_edges());
    }

    #[test]
    fn cow_views_survive_later_mutations(
        (n, edges, stream) in cow_scenario(1300, 120),
    ) {
        let g = Graph::undirected_from_edges(n as usize, &edges);
        let mut overlay = GraphOverlay::from_graph(&g);
        let mut cow = CowGraph::from_graph(&g);
        let frozen = cow.view();
        let want = overlay.to_graph();
        for batch in &stream {
            for m in batch {
                apply_mirrored(&mut overlay, &mut cow, m);
            }
        }
        cow.compact();
        // The pre-mutation view still materializes the pre-mutation CSR.
        let got = frozen.to_graph();
        prop_assert_eq!(got.csr().offsets(), want.csr().offsets());
        prop_assert_eq!(got.csr().targets(), want.csr().targets());
    }

    #[test]
    fn fold_store_matches_fresh_after_random_splices(
        (n, seed_groups, steps) in fold_scenario(),
    ) {
        let mut store = FoldStore::default();
        let mut shadow = seed_groups.clone();
        store.rebuild(n as usize, spans_of(&shadow));
        store
            .verify_against_fresh(n as usize, spans_of(&shadow))
            .unwrap_or_else(|e| panic!("seed: {e}"));

        for (k, (keep, fresh_groups, dirty_seed)) in steps.iter().enumerate() {
            // Survivors keep relative order; fresh groups land at the tail
            // — the maintainer's splice contract.
            let mut old_to_new: Vec<Option<u32>> = Vec::with_capacity(shadow.len());
            let mut survivors: Vec<Vec<(u32, u32)>> = Vec::new();
            for (i, grp) in shadow.iter().enumerate() {
                if keep[i % keep.len()] == 1 {
                    old_to_new.push(Some(survivors.len() as u32));
                    survivors.push(grp.clone());
                } else {
                    old_to_new.push(None);
                }
            }
            let mut next = survivors;
            next.extend(fresh_groups.iter().cloned());
            let spans = spans_of(&next);
            let new_globals: Vec<&[u32]> =
                spans.iter().map(|(g, _)| &g[..]).collect();
            let touched = store.apply_splice(n as usize, &old_to_new, &new_globals);
            // Fresh sub-graphs are dirty by construction: give them values.
            let first_fresh = next.len() - fresh_groups.len();
            for (i, (_, values)) in spans.iter().enumerate().skip(first_fresh) {
                store.set_values(i, Arc::clone(values));
            }
            // Rewrite one survivor's span too (a patched-in-place block).
            if first_fresh > 0 {
                let i = (*dirty_seed as usize) % first_fresh;
                let patched: Vec<f64> =
                    next[i].iter().map(|&(_, x)| (x + dirty_seed) as f64 / 2.0).collect();
                next[i] = next[i]
                    .iter()
                    .map(|&(v, x)| (v, x + dirty_seed))
                    .collect();
                store.set_values(i, Arc::from(patched));
            }
            shadow = next;
            store
                .verify_against_fresh(n as usize, spans_of(&shadow))
                .unwrap_or_else(|e| panic!("step {k}: {e}"));
            // The snapshot folds bitwise-identically, flat and per vertex.
            let snap = store.chunks();
            let flat = store.to_flat();
            prop_assert_eq!(snap.to_vec(), flat.clone());
            for &v in &touched {
                prop_assert_eq!(
                    snap.score(v as usize).to_bits(),
                    flat[v as usize].to_bits()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fold_store_wide_splices_share_untouched_chunks(
        (n0, raw_seed, steps) in wide_fold_scenario(),
    ) {
        let mut n = n0;
        let mut shadow: Vec<Vec<(u32, u32)>> = raw_seed.iter().map(|r| place(r, n)).collect();
        let mut store = FoldStore::default();
        store.rebuild(n as usize, spans_of(&shadow));
        store
            .verify_against_fresh(n as usize, spans_of(&shadow))
            .unwrap_or_else(|e| panic!("seed: {e}"));

        for (k, (keep, raw_fresh, dirty_seed, grow)) in steps.iter().enumerate() {
            // Growth first: the tail chunk's covered prefix now ends short
            // of its length until a splice touches it.
            let old_chunks = (n as usize).div_ceil(INDEX_CHUNK_SIZE);
            n += grow;
            let before = store.chunks();
            let mut old_to_new: Vec<Option<u32>> = Vec::with_capacity(shadow.len());
            let mut next: Vec<Vec<(u32, u32)>> = Vec::new();
            for (i, grp) in shadow.iter().enumerate() {
                if keep[i % keep.len()] == 1 {
                    old_to_new.push(Some(next.len() as u32));
                    next.push(grp.clone());
                } else {
                    old_to_new.push(None);
                }
            }
            let first_fresh = next.len();
            next.extend(raw_fresh.iter().map(|r| place(r, n)));
            let spans = spans_of(&next);
            let new_globals: Vec<&[u32]> = spans.iter().map(|(g, _)| &g[..]).collect();
            let touched = store.apply_splice(n as usize, &old_to_new, &new_globals);
            for (i, (_, values)) in spans.iter().enumerate().skip(first_fresh) {
                store.set_values(i, Arc::clone(values));
            }
            if first_fresh > 0 {
                let i = (*dirty_seed as usize) % first_fresh;
                next[i] = next[i].iter().map(|&(v, x)| (v, x + dirty_seed)).collect();
                store.set_values(i, Arc::clone(&spans_of(&next[i..=i])[0].1));
            }
            shadow = next;
            store
                .verify_against_fresh(n as usize, spans_of(&shadow))
                .unwrap_or_else(|e| panic!("step {k}: {e}"));
            let after = store.chunks();
            for c in 0..old_chunks {
                let hit = touched.iter().any(|&v| v as usize / INDEX_CHUNK_SIZE == c);
                prop_assert!(
                    hit || after.shares_index_chunk(&before, c),
                    "step {}: untouched chunk {} was copied", k, c
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_add_edge_panics_instead_of_growing_the_tail_chunk() {
    // Ten vertices: one partial chunk with room for more ids, so an
    // unchecked arc to id 10 would land in its delta unnoticed.
    let mut cow = CowGraph::from_graph(&Graph::undirected_from_edges(10, &[(0, 1)]));
    cow.add_edge(0, 10);
}
