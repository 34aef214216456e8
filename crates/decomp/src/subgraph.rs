//! The per-sub-graph state the APGRE kernel consumes.

use std::collections::HashMap;

use apgre_graph::{Csr, Graph, VertexId};

/// One sub-graph of the paper's decomposed graph `SGi(V, E, A)`
/// (Definition 1), together with the articulation-point quantities of §3.1:
///
/// * `α(a)` — vertices reachable from `a` **outside** this sub-graph
///   (size of the common sub-DAG hanging off `a`, excluding `a`),
/// * `β(a)` — vertices outside this sub-graph that can **reach** `a`
///   (number of source DAGs sharing the sub-DAG rooted at `a`),
/// * `γ(v)` — whisker neighbours of `v` removed from the root set `R`
///   (total redundancy),
///
/// all expressed in **local** vertex ids (`0..globals.len()`); `globals`
/// maps back to the parent graph.
#[derive(Clone, Debug)]
pub struct SubGraph {
    /// Index of this sub-graph within the decomposition.
    pub id: usize,
    /// Local → global vertex id map (sorted ascending, so local order is
    /// deterministic).
    pub globals: Vec<VertexId>,
    /// Local graph over the edges assigned to this sub-graph. Directedness
    /// matches the parent graph.
    pub graph: Graph,
    /// Per-local-vertex: is this a boundary articulation point (`∈ A_sgi`)?
    pub is_boundary: Vec<bool>,
    /// Local ids of the boundary articulation points (`A_sgi`).
    pub boundary: Vec<u32>,
    /// `α` per local vertex (non-zero only for boundary points).
    pub alpha: Vec<u64>,
    /// `β` per local vertex (non-zero only for boundary points).
    pub beta: Vec<u64>,
    /// `γ` per local vertex: number of whisker neighbours folded into this
    /// vertex's root contribution.
    pub gamma: Vec<u32>,
    /// Per-local-vertex: was this vertex removed from `R` as a whisker?
    pub is_whisker: Vec<bool>,
    /// The root set `R_sgi`: local ids that get their own BFS.
    pub roots: Vec<u32>,
    /// The local arcs with every whisker endpoint dropped (same vertex
    /// count, neighbour lists still sorted): the adjacency the BC kernel
    /// sweeps so that no whisker is ever enqueued as a *target*, with each
    /// host's dependency starting at `γ` instead. Present only for
    /// undirected sub-graphs with at least one whisker — a directed whisker
    /// has in-degree 0 and no sweep reaches it — and rebuilt by
    /// [`Self::recompute_whiskers`] alone, so it never outlives the
    /// whisker set it was cut for.
    pub folded_csr: Option<Csr>,
}

impl SubGraph {
    /// Vertices in this sub-graph (articulation points are counted in every
    /// sub-graph they border, matching the paper's Table 4 accounting).
    pub fn num_vertices(&self) -> usize {
        self.globals.len()
    }

    /// Edges assigned to this sub-graph.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Global id of local vertex `l`.
    #[inline]
    pub fn global_of(&self, l: u32) -> VertexId {
        self.globals[l as usize]
    }

    /// Local id of global vertex `v`, if present (binary search over the
    /// sorted `globals` list).
    pub fn local_of(&self, v: VertexId) -> Option<u32> {
        self.globals.binary_search(&v).ok().map(|i| i as u32)
    }

    /// Whether global vertex `v` belongs to this sub-graph.
    pub fn contains(&self, v: VertexId) -> bool {
        self.globals.binary_search(&v).is_ok()
    }

    /// Recomputes `is_whisker`, `gamma`, `roots` and `folded_csr` from the
    /// current local graph and boundary flags, applying the paper's whisker
    /// rule: a non-boundary vertex with undirected degree 1 (or, when
    /// directed, in-degree 0 and out-degree 1) is folded into its host's γ
    /// and dropped from the root set. The undirected K2 special case keeps
    /// the lower local id as the root.
    ///
    /// `decompose` uses this at build time; the incremental engine re-runs
    /// it after editing a sub-graph's edge set in place, which is sound
    /// because the rule only reads local degrees and `is_boundary` — and a
    /// *local* batch leaves the boundary set untouched by definition.
    pub fn recompute_whiskers(&mut self) {
        let ln = self.num_vertices();
        let (graph, is_boundary) = (&self.graph, &self.is_boundary);
        let directed = graph.is_directed();
        let interior = |l: u32| is_boundary.get(l as usize) == Some(&false);
        // Each vertex's host if the rule folds it, else `None`.
        let hosts: Vec<Option<u32>> = (0..ln as u32)
            .map(|l| {
                let qualifies = interior(l)
                    && if directed {
                        graph.in_degree(l) == 0 && graph.out_degree(l) == 1
                    } else {
                        graph.out_degree(l) == 1
                    };
                let host = *graph.out_neighbors(l).first().filter(|_| qualifies)?;
                // Isolated-edge special case (undirected K2): both endpoints
                // qualify; keep the lower id as the root.
                let k2_root =
                    !directed && interior(host) && graph.out_degree(host) == 1 && l < host;
                (!k2_root).then_some(host)
            })
            .collect();
        let mut gamma = vec![0u32; ln];
        for &host in hosts.iter().flatten() {
            if let Some(g) = gamma.get_mut(host as usize) {
                *g += 1;
            }
        }
        let is_whisker: Vec<bool> = hosts.iter().map(Option::is_some).collect();
        self.roots =
            (0..ln as u32).zip(&is_whisker).filter(|&(_, &w)| !w).map(|(l, _)| l).collect();
        self.folded_csr = (!directed && self.roots.len() < ln).then(|| {
            let core = |v: u32| is_whisker.get(v as usize) == Some(&false);
            let arcs: Vec<(u32, u32)> =
                graph.csr().edges().filter(|&(u, v)| core(u) && core(v)).collect();
            Csr::from_edges(ln, &arcs)
        });
        self.is_whisker = is_whisker;
        self.gamma = gamma;
    }

    /// The adjacency the BC kernel sweeps, forward and backward:
    /// `folded_csr` when the whisker fold is active, else the local graph's
    /// own CSR.
    #[inline]
    pub fn sweep_csr(&self) -> &Csr {
        self.folded_csr.as_ref().unwrap_or(self.graph.csr())
    }

    /// FNV-1a over the kernel's exact input stream: directedness, vertex
    /// count, local edges, per-vertex boundary/α/β/γ/whisker state, and the
    /// root set. Two sub-graphs with equal fingerprints feed the BC kernel
    /// identical inputs, so their local score vectors are interchangeable —
    /// the basis for the incremental engine's carry-forward of unchanged
    /// contributions across re-decompositions, and the seed of the sampled
    /// estimator's generation-stable root draws.
    /// Deliberately excludes `id` and `globals`: the local computation does
    /// not depend on where the sub-graph sits in the parent graph. The
    /// `folded_csr` is a function of the edges and the whisker flags, so it
    /// needs no bytes of its own.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.graph.is_directed() as u64);
        eat(self.num_vertices() as u64);
        for (u, v) in self.graph.csr().edges() {
            eat(((u as u64) << 32) | v as u64);
        }
        for l in 0..self.num_vertices() {
            eat(self.is_boundary[l] as u64);
            eat(self.alpha[l]);
            eat(self.beta[l]);
            eat(self.gamma[l] as u64);
            eat(self.is_whisker[l] as u64);
        }
        for &r in &self.roots {
            eat(r as u64);
        }
        h
    }
}

/// Carries values across a from-scratch re-decomposition by content: `old`
/// yields `(fingerprint, len, value)` per old span, and sub-graph `i` of
/// `new` gets the value of an old span with its [`SubGraph::fingerprint`],
/// or `None` on a miss. The match is a multiset (duplicate fingerprints,
/// e.g. many identical whisker stars, each carry at most once) and the
/// spans are interchangeable, because equal fingerprints mean bitwise-equal
/// kernel inputs — indices are lost across a rebuild, so identity by
/// content is all there is. A candidate whose `len` is not the new
/// sub-graph's vertex count — an FNV collision between sub-graphs of
/// different sizes — is a miss too, never a wrong-length span.
pub fn carry_by_fingerprint<T>(
    old: impl IntoIterator<Item = (u64, usize, T)>,
    new: &[SubGraph],
) -> Vec<Option<T>> {
    let mut carry: HashMap<u64, Vec<(usize, T)>> = HashMap::new();
    for (fingerprint, len, value) in old {
        carry.entry(fingerprint).or_default().push((len, value));
    }
    new.iter()
        .map(|sg| {
            let (len, value) = carry.get_mut(&sg.fingerprint())?.pop()?;
            (len == sg.num_vertices()).then_some(value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decompose, PartitionOptions};
    use apgre_graph::generators;

    #[test]
    fn carry_matches_fingerprints_and_rejects_wrong_lengths() {
        let opts = PartitionOptions { merge_threshold: 0, ..Default::default() };
        let d = decompose(&generators::lollipop(6, 8), &opts);
        let fp = |i: usize| d.subgraphs[i].fingerprint();
        let genuine = d.subgraphs.iter().enumerate().map(|(i, sg)| (fp(i), sg.num_vertices(), i));
        // A forged candidate for sub-graph 0: its fingerprint, one vertex
        // too many. Pushed last, it is the first one sub-graph 0 pops.
        let forged = (fp(0), d.subgraphs[0].num_vertices() + 1, usize::MAX);
        let carried = carry_by_fingerprint(genuine.chain([forged]), &d.subgraphs);
        assert_eq!(carried.len(), d.num_subgraphs());
        assert_eq!(carried[0], None, "the wrong-length candidate must be a miss");
        for (i, c) in carried.iter().enumerate().skip(1) {
            let j = c.expect("every other sub-graph carries");
            assert_eq!(fp(j), fp(i), "SG{i} carried a span of another content");
        }
    }
}
