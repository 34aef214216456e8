//! Property tests for incremental decomposition maintenance: random edit
//! streams — chord toggles, bridge toggles, and vertex splits expressed as
//! edge moves — applied through [`MaintainedDecomposition::apply_edits`],
//! with the maintained result checked equivalent to a fresh [`decompose`]
//! after **every** batch (and the block store cross-checked against a fresh
//! Tarjan pass). A second property drives whisker-tip sibling bridges — the
//! splices the local regroup exists for — mixed with chords and random
//! toggles, and requires that the local regroup actually ran.

use std::collections::BTreeSet;

use apgre_decomp::{decompose, EdgeEdit, MaintainedDecomposition, PartitionOptions};
use apgre_graph::{generators, Graph, VertexId};
use proptest::prelude::*;

/// One randomized edit against the current edge set. Generated as abstract
/// intents and lowered to concrete [`EdgeEdit`]s against the live mirror,
/// so shrinking stays meaningful.
#[derive(Clone, Debug)]
enum Intent {
    /// Toggle the edge between two vertex picks (add if absent, else remove).
    Toggle(u32, u32),
    /// Detach one incident edge of the pick's vertex and re-attach it to a
    /// fresh vertex — the edge-edit skeleton of a vertex split.
    SplitOff(u32),
    /// Toggle the edge between the picked pair of sibling whisker tips (two
    /// degree-1 vertices of the initial graph on the same host).
    TipBridge(u32),
    /// Toggle the edge between two picks inside one initial sub-graph.
    Chord(u32, u32, u32),
}

/// Whisker-bridge streams: 2-in-5 sibling tip bridges, 2-in-5 chords, 1-in-5
/// random toggles.
fn bridge_intents() -> impl Strategy<Value = Vec<Vec<Intent>>> {
    let intent = (0u32..5, 0u32..1 << 30, 0u32..1 << 30, 0u32..1 << 30).prop_map(
        |(kind, a, b, c)| match kind {
            0 | 1 => Intent::TipBridge(a),
            2 | 3 => Intent::Chord(a, b, c),
            _ => Intent::Toggle(a, b),
        },
    );
    proptest::collection::vec(proptest::collection::vec(intent, 1..4), 1..14)
}

/// Pairs of degree-1 vertices sharing a host in `g`.
fn sibling_tips(g: &Graph) -> Vec<(VertexId, VertexId)> {
    let mut by_host: std::collections::BTreeMap<VertexId, Vec<VertexId>> = Default::default();
    for v in 0..g.num_vertices() as VertexId {
        if let [host] = g.out_neighbors(v) {
            by_host.entry(*host).or_default().push(v);
        }
    }
    by_host.values().flat_map(|tips| tips.windows(2).map(|w| (w[0], w[1]))).collect()
}

fn intents() -> impl Strategy<Value = Vec<Vec<Intent>>> {
    // 1-in-5 vertex splits, 4-in-5 edge toggles (the vendored proptest
    // stand-in has no `prop_oneof!`, so weight by a kind draw).
    let intent = (0u32..5, 0u32..1 << 30, 0u32..1 << 30).prop_map(|(kind, a, b)| {
        if kind == 0 {
            Intent::SplitOff(a)
        } else {
            Intent::Toggle(a, b)
        }
    });
    proptest::collection::vec(proptest::collection::vec(intent, 1..4), 1..14)
}

struct Mirror {
    edges: BTreeSet<(VertexId, VertexId)>,
    n: usize,
}

impl Mirror {
    fn graph(&self) -> Graph {
        let edges: Vec<_> = self.edges.iter().copied().collect();
        Graph::undirected_from_edges(self.n, &edges)
    }

    /// Lowers one intent to a concrete edit, or `None` if it degenerates
    /// (self-loop, duplicate within the batch, split of an isolated vertex).
    fn lower(&self, intent: &Intent, batch: &[EdgeEdit]) -> Option<Vec<EdgeEdit>> {
        self.lower_with(intent, batch, &[], &[])
    }

    /// [`Mirror::lower`] with the sibling tip pairs and initial sub-graph
    /// vertex sets the bridge intents pick from.
    fn lower_with(
        &self,
        intent: &Intent,
        batch: &[EdgeEdit],
        tips: &[(VertexId, VertexId)],
        groups: &[Vec<VertexId>],
    ) -> Option<Vec<EdgeEdit>> {
        let key_of = |e: &EdgeEdit| (e.u.min(e.v), e.u.max(e.v));
        let toggle = |u: VertexId, v: VertexId| {
            let key = (u.min(v), u.max(v));
            if u == v || batch.iter().any(|e| key_of(e) == key) {
                return None;
            }
            Some(vec![EdgeEdit { add: !self.edges.contains(&key), u, v }])
        };
        match *intent {
            Intent::Toggle(a, b) => toggle(a % self.n as u32, b % self.n as u32),
            Intent::TipBridge(a) => {
                let &(u, v) = tips.get(a as usize % tips.len().max(1))?;
                toggle(u, v)
            }
            Intent::Chord(a, b, c) => {
                let group = groups.get(a as usize % groups.len().max(1))?;
                toggle(group[b as usize % group.len()], group[c as usize % group.len()])
            }
            Intent::SplitOff(a) => {
                let v = a % self.n as u32;
                // Pick the smallest neighbor whose edge is still untouched
                // in this batch, move it to a brand-new vertex.
                let nbr = self
                    .edges
                    .iter()
                    .filter(|&&(x, y)| x == v || y == v)
                    .map(|&(x, y)| if x == v { y } else { x })
                    .find(|&w| {
                        let key = (v.min(w), v.max(w));
                        !batch.iter().any(|e| key_of(e) == key)
                    })?;
                let fresh = self.n as u32; // grown by the caller
                Some(vec![
                    EdgeEdit { add: false, u: v, v: nbr },
                    EdgeEdit { add: true, u: fresh, v: nbr },
                ])
            }
        }
    }

    fn commit(&mut self, batch: &[EdgeEdit]) {
        for e in batch {
            let key = (e.u.min(e.v), e.u.max(e.v));
            if e.add {
                assert!(self.edges.insert(key));
            } else {
                assert!(self.edges.remove(&key));
            }
            self.n = self.n.max(e.u.max(e.v) as usize + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// After every maintained batch the decomposition must be equivalent to
    /// a fresh `decompose` of the edited graph, and the block store must
    /// match a fresh Tarjan pass. Batches the maintainer declines (multiple
    /// component-bridging additions) fall back to a reseed, exactly as the
    /// dynamic engine does.
    #[test]
    fn maintained_equals_fresh_after_every_batch(
        seed in 0u64..1024,
        threshold in 0usize..8,
        stream in intents(),
    ) {
        let g = generators::whiskered_community(&generators::WhiskeredCommunityParams {
            core_vertices: 16,
            core_attach: 2,
            community_count: 3,
            community_size: 6,
            community_density: 1.6,
            whiskers: 8,
            seed,
        });
        let opts = PartitionOptions { merge_threshold: threshold, ..Default::default() };
        let mut mirror = Mirror {
            edges: g.undirected_edges().map(|(u, v)| (u.min(v), u.max(v))).collect(),
            n: g.num_vertices(),
        };
        let mut m = MaintainedDecomposition::new(&g, &opts);

        for intent_batch in &stream {
            let mut batch: Vec<EdgeEdit> = Vec::new();
            let mut grown = 0u32;
            for intent in intent_batch {
                // At most one split per batch keeps fresh-vertex ids simple.
                if matches!(intent, Intent::SplitOff(_)) && grown > 0 {
                    continue;
                }
                if let Some(edits) = mirror.lower(intent, &batch) {
                    grown += edits.iter().any(|e| e.add && e.u == mirror.n as u32) as u32;
                    batch.extend(edits);
                }
            }
            if batch.is_empty() {
                continue;
            }
            let num_vertices = mirror.n + grown as usize;
            match m.apply_edits(num_vertices, &batch) {
                Ok(_) => {
                    mirror.commit(&batch);
                    prop_assert_eq!(mirror.n.max(num_vertices), num_vertices);
                    mirror.n = num_vertices;
                    if let Err(e) = m.verify_against_fresh(&mirror.graph()) {
                        panic!("maintained != fresh after batch: {e}");
                    }
                }
                Err(reason) => {
                    prop_assert!(
                        reason.contains("component-bridging"),
                        "unexpected decline: {}", reason
                    );
                    mirror.commit(&batch);
                    mirror.n = num_vertices;
                    let g2 = mirror.graph();
                    m = MaintainedDecomposition::from_decomposition(
                        &g2,
                        decompose(&g2, &opts),
                        &opts,
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Whisker-bridge streams: every case opens with a sibling tip bridge,
    /// then mixes tip bridges, chords and random toggles. The maintained
    /// decomposition must equal a fresh one after every batch, and at
    /// least one batch per case must have regrouped locally — the property
    /// cannot pass on the full re-merge alone.
    #[test]
    fn whisker_bridge_streams_regroup_locally_and_match_fresh(
        seed in 0u64..1024,
        threshold in 0usize..24,
        first in 0u32..1 << 30,
        stream in bridge_intents(),
    ) {
        let g = generators::whiskered_community(&generators::WhiskeredCommunityParams {
            core_vertices: 16,
            core_attach: 2,
            community_count: 3,
            community_size: 12,
            community_density: 1.3,
            whiskers: 60,
            seed,
        });
        let opts = PartitionOptions { merge_threshold: threshold, ..Default::default() };
        let tips = sibling_tips(&g);
        prop_assert!(!tips.is_empty(), "60 whiskers on at most 52 hosts share a host");
        let groups: Vec<Vec<VertexId>> = decompose(&g, &opts)
            .subgraphs
            .iter()
            .filter(|sg| sg.num_vertices() >= 4)
            .map(|sg| sg.globals.clone())
            .collect();
        let mut mirror = Mirror {
            edges: g.undirected_edges().map(|(u, v)| (u.min(v), u.max(v))).collect(),
            n: g.num_vertices(),
        };
        let mut m = MaintainedDecomposition::new(&g, &opts);
        let mut local = 0usize;

        let opening = vec![Intent::TipBridge(first)];
        for intent_batch in std::iter::once(&opening).chain(&stream) {
            let mut batch: Vec<EdgeEdit> = Vec::new();
            for intent in intent_batch {
                if let Some(edits) = mirror.lower_with(intent, &batch, &tips, &groups) {
                    batch.extend(edits);
                }
            }
            if batch.is_empty() {
                continue;
            }
            mirror.commit(&batch);
            match m.apply_edits(mirror.n, &batch) {
                Ok(out) => {
                    local += usize::from(out.stats.local_regroup);
                    if let Err(e) = m.verify_against_fresh(&mirror.graph()) {
                        panic!("maintained != fresh after batch: {e}");
                    }
                }
                Err(reason) => {
                    prop_assert!(
                        reason.contains("component-bridging"),
                        "unexpected decline: {}", reason
                    );
                    let g2 = mirror.graph();
                    m = MaintainedDecomposition::from_decomposition(
                        &g2,
                        decompose(&g2, &opts),
                        &opts,
                    );
                }
            }
        }
        prop_assert!(local > 0, "no batch regrouped locally");
    }
}
