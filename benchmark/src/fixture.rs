//! The shared write-path fixture: the whiskered-community graph and the
//! edit sites the engine and service workloads toggle.
//!
//! Every edit toggles one site (inserts the edge when absent, deletes it
//! when present), so a stream can always be undone back to the initial
//! graph, which is what the end-of-run correctness checks compare against.

use crate::report::Outcome;
use crate::trace::Tracer;
use apgre_approx::SplitMix64;
use apgre_decomp::Decomposition;
use apgre_dynamic::MutationBatch;
use apgre_graph::generators::{whiskered_community, WhiskeredCommunityParams};
use apgre_graph::Graph;
use std::collections::BTreeMap;
use std::time::Instant;

/// The generator seed of the engine and service workloads' graph: the seed
/// of the graph behind the `BENCH_PR*.json` records.
pub const GRAPH_SEED: u64 = 4242;

/// The engine and service workloads' graph.
///
/// The full-size instance is half of the 50,920-vertex graph behind the
/// `BENCH_PR*.json` records (same density, community size, and whisker
/// ratio): 25,443 vertices, 216 sub-graphs, and a 12,568-vertex top
/// sub-graph. Seeding the engine on it costs about a quarter of the 50.9k
/// graph, which lets every run set up three times and still fit the
/// benchmark's time budget. The smoke instance is the CI-sized graph of the
/// bench-pr4/pr10 `--smoke` arms.
pub fn graph(smoke: bool) -> Graph {
    let (core_vertices, community_count, community_size, whiskers) =
        if smoke { (600, 24, 30, 2_000) } else { (3_000, 110, 40, 18_000) };
    whiskered_community(&WhiskeredCommunityParams {
        core_vertices,
        core_attach: 3,
        community_count,
        community_size,
        community_density: 1.8,
        whiskers,
        seed: GRAPH_SEED,
    })
}

/// Builds the workload graph, recording `graph.build_ms`.
pub fn build_graph(smoke: bool, out: &mut Outcome, tr: &mut Tracer) -> Graph {
    let t0 = Instant::now();
    let g = graph(smoke);
    let t1 = Instant::now();
    tr.span("graph.build", None, 0, t0, t1);
    out.set("graph.build_ms", (t1 - t0).as_secs_f64() * 1e3);
    println!(
        "whiskered-community seed {GRAPH_SEED}: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    g
}

/// Mixes the workload seed with a stream index, so the traffic, edit, and
/// round-order streams are independent and each is named by one number.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Where the write-path workloads edit.
#[derive(Clone, Debug)]
pub struct EditSites {
    /// Non-adjacent interior vertex pairs, one per non-top community
    /// sub-graph: toggling one is a Local batch that reruns one small
    /// kernel and never touches the top sub-graph.
    pub chords: Vec<(u32, u32)>,
    /// Whisker-tip sibling pairs (two degree-1 vertices on the same
    /// non-articulation host outside the top sub-graph): toggling the
    /// tip--tip edge fuses two bridge blocks into a triangle and splits it
    /// back, a Structural batch that the region splice absorbs.
    pub bridges: Vec<(u32, u32)>,
}

impl EditSites {
    /// Picks up to `want` sites of each kind from `d`, the decomposition of
    /// `g`.
    pub fn pick(g: &Graph, d: &Decomposition, want: usize) -> EditSites {
        let top = d.top_subgraph;
        let mut chords = Vec::new();
        for (i, sg) in d.subgraphs.iter().enumerate() {
            if chords.len() == want {
                break;
            }
            if i == top || sg.num_vertices() < 10 {
                continue;
            }
            let interior: Vec<u32> = (0..sg.num_vertices() as u32)
                .filter(|&l| !sg.is_boundary[l as usize] && !sg.is_whisker[l as usize])
                .collect();
            let pair = interior.iter().enumerate().find_map(|(a, &lu)| {
                interior[a + 1..]
                    .iter()
                    .find(|&&lv| !sg.graph.out_neighbors(lu).contains(&lv))
                    .map(|&lv| (sg.global_of(lu), sg.global_of(lv)))
            });
            chords.extend(pair);
        }

        let mut owner = vec![usize::MAX; g.num_vertices()];
        let mut appearances = vec![0u32; g.num_vertices()];
        for (i, sg) in d.subgraphs.iter().enumerate() {
            for &v in &sg.globals {
                owner[v as usize] = i;
                appearances[v as usize] += 1;
            }
        }
        let mut tips_by_host: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for v in 0..g.num_vertices() as u32 {
            if let [host] = g.out_neighbors(v) {
                tips_by_host.entry(*host).or_default().push(v);
            }
        }
        let bridges = tips_by_host
            .iter()
            .filter(|(h, tips)| {
                tips.len() >= 2 && appearances[**h as usize] == 1 && owner[**h as usize] != top
            })
            .map(|(_, tips)| (tips[0], tips[1]))
            .take(want)
            .collect();
        EditSites { chords, bridges }
    }
}

/// One edge toggle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edit {
    /// Insert (`true`) or delete (`false`).
    pub add: bool,
    /// First endpoint.
    pub u: u32,
    /// Second endpoint.
    pub v: u32,
}

/// The three batch shapes of the write mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// One community chord (60%).
    Chord,
    /// One whisker-tip sibling bridge (30%).
    Bridge,
    /// Three chords plus one bridge in one body (10%).
    Mixed,
}

/// The units of one cycle: six chords, three bridges, one mixed body.
const CYCLE: [EditKind; 10] = [
    EditKind::Chord,
    EditKind::Chord,
    EditKind::Chord,
    EditKind::Chord,
    EditKind::Chord,
    EditKind::Chord,
    EditKind::Bridge,
    EditKind::Bridge,
    EditKind::Bridge,
    EditKind::Mixed,
];

/// A seeded stream of toggle batches in the 60/30/10 chord/bridge/mixed
/// mix.
///
/// The stream is a sequence of *units*: a unit inserts its edges in one
/// batch and deletes them in the next, so every unit starts from the
/// initial graph and costs the same whenever it runs. A *cycle* runs the
/// ten units of [`CYCLE`], each on its own fixed sites, in an order the
/// seed shuffles anew every cycle. A run of whole cycles therefore does
/// the same work for every seed: the adaptive estimator's refresh cost
/// depends on which sub-graphs an edit disturbs, and a seed-drawn site mix
/// would make the share of expensive refreshes (and every percentile) vary
/// from seed to seed.
///
/// [`EditStream::plan`] returns the next batch; [`EditStream::commit`]
/// records that it was applied, so a batch the service refused is planned
/// again.
pub struct EditStream {
    units: Vec<(EditKind, Vec<(u32, u32)>)>,
    order: Vec<usize>,
    next: usize,
    /// The unit whose insertions are applied and whose deletions are due.
    applied: Option<usize>,
    rng: SplitMix64,
}

impl EditStream {
    /// A stream over `sites` drawn from `seed`.
    ///
    /// # Panics
    /// Panics unless there are at least nine chord sites and four bridge
    /// sites (one per unit, three chords and a bridge for the mixed body).
    pub fn new(sites: &EditSites, seed: u64) -> Self {
        let (mut chords, mut bridges) = (sites.chords.iter(), sites.bridges.iter());
        let mut take = |n_chords: usize, n_bridges: usize| -> Vec<(u32, u32)> {
            let picked: Vec<(u32, u32)> = chords
                .by_ref()
                .take(n_chords)
                .chain(bridges.by_ref().take(n_bridges))
                .copied()
                .collect();
            assert_eq!(
                picked.len(),
                n_chords + n_bridges,
                "need >= 9 chord sites and >= 4 bridge sites, found {} and {}",
                sites.chords.len(),
                sites.bridges.len()
            );
            picked
        };
        let units = CYCLE
            .iter()
            .map(|&kind| {
                let edges = match kind {
                    EditKind::Chord => take(1, 0),
                    EditKind::Bridge => take(0, 1),
                    EditKind::Mixed => take(3, 1),
                };
                (kind, edges)
            })
            .collect();
        let mut stream = EditStream {
            units,
            order: (0..CYCLE.len()).collect(),
            next: 0,
            applied: None,
            rng: SplitMix64::new(seed),
        };
        stream.shuffle();
        stream
    }

    /// A seeded Fisher–Yates shuffle of the unit order.
    fn shuffle(&mut self) {
        for i in (1..self.order.len()).rev() {
            self.order.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
    }

    fn edits(&self, unit: usize, add: bool) -> (EditKind, Vec<Edit>) {
        let (kind, edges) = &self.units[unit];
        (*kind, edges.iter().map(|&(u, v)| Edit { add, u, v }).collect())
    }

    /// The next batch.
    pub fn plan(&mut self) -> (EditKind, Vec<Edit>) {
        if let Some(unit) = self.applied {
            return self.edits(unit, false);
        }
        if self.next == self.order.len() {
            self.shuffle();
            self.next = 0;
        }
        self.edits(self.order[self.next], true)
    }

    /// Records that the last planned batch was applied.
    pub fn commit(&mut self) {
        self.applied = match self.applied {
            Some(_) => None,
            None => {
                self.next += 1;
                Some(self.order[self.next - 1])
            }
        };
    }

    /// Whether the stream is between cycles (and so on the initial graph).
    pub fn cycle_done(&self) -> bool {
        self.applied.is_none() && self.next == self.order.len()
    }

    /// The deletions that return the graph to its initial state.
    pub fn undo(&self) -> Vec<Edit> {
        self.applied.map_or_else(Vec::new, |unit| self.edits(unit, false).1)
    }
}

/// `edits` as an engine batch.
pub fn to_batch(edits: &[Edit]) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for e in edits {
        batch = if e.add { batch.add_edge(e.u, e.v) } else { batch.remove_edge(e.u, e.v) };
    }
    batch
}

/// `edits` as a `POST /mutate` body.
pub fn to_body(edits: &[Edit]) -> String {
    edits
        .iter()
        .map(|e| format!("{} {} {}\n", if e.add { "add" } else { "remove" }, e.u, e.v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_decomp::{decompose, PartitionOptions};

    fn smoke_stream(seed: u64) -> EditStream {
        let g = graph(true);
        let d = decompose(&g, &PartitionOptions::default());
        EditStream::new(&EditSites::pick(&g, &d, 16), seed)
    }

    #[test]
    fn units_insert_then_delete_in_the_stated_mix() {
        let mut s = smoke_stream(7);
        let mut counts = [0usize; 3];
        let mut present = std::collections::BTreeSet::new();
        for batch in 0..200 {
            let (kind, edits) = s.plan();
            assert_eq!(edits.iter().all(|e| e.add), batch % 2 == 0, "inserts, then deletes");
            assert_eq!(edits.len(), if kind == EditKind::Mixed { 4 } else { 1 });
            for e in &edits {
                if e.add {
                    assert!(present.insert((e.u, e.v)), "inserted twice");
                } else {
                    assert!(present.remove(&(e.u, e.v)), "deleted while absent");
                }
            }
            if batch % 2 == 0 {
                counts[kind as usize] += 1;
            } else {
                assert!(present.is_empty(), "a unit ends on the initial graph");
            }
            s.commit();
            assert_eq!(s.cycle_done(), batch % 20 == 19);
        }
        assert_eq!(counts, [60, 30, 10]);
    }

    #[test]
    fn refused_batches_are_planned_again_and_undo_restores() {
        let mut s = smoke_stream(3);
        let first = s.plan();
        assert_eq!(s.plan(), first, "nothing committed, same batch");
        assert!(s.undo().is_empty());
        s.commit();
        let undo = s.undo();
        assert_eq!(undo, first.1.iter().map(|e| Edit { add: false, ..*e }).collect::<Vec<_>>());
        assert_eq!(s.plan().1, undo);
    }

    #[test]
    fn seeds_permute_the_order_of_the_same_units() {
        let cycle = |seed: u64| {
            let mut s = smoke_stream(seed);
            let mut units = Vec::new();
            while units.len() < 10 {
                units.push(s.plan());
                s.commit();
                s.commit();
            }
            units
        };
        let (a, b) = (cycle(1), cycle(2));
        assert_ne!(a, b);
        let key = |u: &(EditKind, Vec<Edit>)| format!("{u:?}");
        let mut sa: Vec<String> = a.iter().map(key).collect();
        let mut sb: Vec<String> = b.iter().map(key).collect();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
    }

    #[test]
    fn seeds_derive_independent_streams() {
        assert_ne!(derive_seed(4242, 1), derive_seed(4242, 2));
        assert_eq!(derive_seed(4242, 1), derive_seed(4242, 1));
        assert_ne!(derive_seed(4242, 1), derive_seed(4243, 1));
    }
}
