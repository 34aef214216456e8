//! The per-sub-graph state the APGRE kernel consumes.

use apgre_graph::{Graph, VertexId};

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

    /// Recomputes `is_whisker`, `gamma`, and `roots` from the current local
    /// graph and boundary flags, applying the paper's whisker rule: a
    /// non-boundary vertex with undirected degree 1 (or, when directed,
    /// in-degree 0 and out-degree 1) is folded into its host's γ and dropped
    /// from the root set. The undirected K2 special case keeps the lower
    /// local id as the root.
    ///
    /// `decompose` uses this at build time; the incremental engine re-runs
    /// it after editing a sub-graph's edge set in place, which is sound
    /// because the rule only reads local degrees and `is_boundary` — and a
    /// *local* batch leaves the boundary set untouched by definition.
    pub fn recompute_whiskers(&mut self) {
        let ln = self.num_vertices();
        let directed = self.graph.is_directed();
        self.is_whisker = vec![false; ln];
        self.gamma = vec![0; ln];
        for l in 0..ln as u32 {
            if self.is_boundary[l as usize] {
                continue;
            }
            let qualifies = if directed {
                self.graph.in_degree(l) == 0 && self.graph.out_degree(l) == 1
            } else {
                self.graph.out_degree(l) == 1
            };
            if !qualifies {
                continue;
            }
            let host = self.graph.out_neighbors(l)[0];
            // Isolated-edge special case (undirected K2): both endpoints
            // qualify; keep the lower id as the root.
            if !directed
                && !self.is_boundary[host as usize]
                && self.graph.out_degree(host) == 1
                && l < host
            {
                continue;
            }
            self.is_whisker[l as usize] = true;
            self.gamma[host as usize] += 1;
        }
        self.roots = (0..ln as u32).filter(|&l| !self.is_whisker[l as usize]).collect();
    }

    /// FNV-1a over the kernel's exact input stream: directedness, vertex
    /// count, local edges, per-vertex boundary/α/β/γ/whisker state, and the
    /// root set. Two sub-graphs with equal fingerprints feed the BC kernel
    /// identical inputs, so their local score vectors are interchangeable —
    /// the basis for the incremental engine's carry-forward of unchanged
    /// contributions across re-decompositions, and the seed of the sampled
    /// estimator's generation-stable root draws.
    /// Deliberately excludes `id` and `globals`: the local computation does
    /// not depend on where the sub-graph sits in the parent graph.
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
