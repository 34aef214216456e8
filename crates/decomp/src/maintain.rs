//! Incremental maintenance of a [`Decomposition`] under edge edits.
//!
//! [`decompose`] is a from-scratch pipeline: Tarjan over the whole graph,
//! block-cut tree, merge, sub-graph assembly, α/β. The dynamic engine used
//! to re-run all of it on every structural edit, then fingerprint-match
//! sub-graphs to recover unchanged contributions — O(V+E) work plus a full
//! fingerprint pass even when one bridge toggled. This module keeps the
//! biconnected blocks as a first-class *maintained* store and confines every
//! edit to the region it can actually affect:
//!
//! - **Patch path**: an edit interior to one block (a chord add, or a
//!   removal that leaves the block biconnected on the same vertex set)
//!   rewrites that block's edge list and the owning sub-graph's local CSR in
//!   place. No merge re-run, no α/β work, no index reshuffle.
//! - **Splice path**: everything else re-runs Tarjan on the *region* — the
//!   union of the blocks an edit can restructure — splices the resulting
//!   blocks back into the store, regroups, and recomputes boundary/α/β only
//!   where the regroup moved something. Sub-graphs whose block set survives
//!   verbatim keep their identity (and the engine keeps their kernel
//!   contributions); the rest are rebuilt, which includes in-place *splits*
//!   when an edit manufactures an internal articulation point.
//!
//! The regroup is local in the common case. Algorithm 1's merge is a pure
//! function of the block-cut tree rooted at the component's canonical top
//! block: a block folds into its grandparent's group iff its accumulated
//! size (own size plus the grandchild groups folded into it) passes the
//! merge rule, which depends only on whether that grandparent is the top.
//! The store keeps that rooted forest — per block its parent articulation,
//! subtree vertex weight, accumulated size and merge decision — so a splice
//! roots the new blocks under the region's exit articulation, settles them
//! from the cached values of their untouched children, and walks up the
//! ancestor chain only while a merge decision or a contributed size moves.
//! Only the groups headed on that chain or in the region are re-collected,
//! only their old owners are diffed, and α comes from the cached subtree
//! weights. Everything the cache cannot vouch for — a component-bridging
//! addition, a region that falls apart, several components, unstable
//! weights, a new canonical top, or `merge_all` — falls back to re-merging
//! the whole affected components and re-seeds their caches.
//!
//! Soundness of the region bound: all paths between two vertices of a
//! connected graph traverse the same articulation points and stay inside
//! the blocks on the block-cut-tree path between them. An intra-component
//! addition can therefore only merge blocks on that tree path (its
//! fundamental cycle), a removal can only restructure its owning block, and
//! compositions of several edits stay within the union of those regions —
//! removals never create connectivity, and any cycle introduced by several
//! additions lies in the span of their fundamental cycles. The one case the
//! per-edit argument does not cover is **two or more additions bridging
//! distinct components** in one batch (their cycle, if any, exists only at
//! the component level); [`MaintainedDecomposition::apply_edits`] detects
//! that and declines, signalling the caller to fall back to a full rebuild.
//!
//! Under `--features invariants` the dynamic engine cross-checks the
//! maintained decomposition against a fresh [`decompose`] after every batch
//! via [`MaintainedDecomposition::verify_against_fresh`], and every local
//! regroup is checked against a full re-merge of its component.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::{Duration, Instant};

use crate::bcc::biconnected_components;
use crate::block_cut_tree::BlockCutTree;
use crate::partition::{
    canonical_top_bcc, decompose, folds_into_parent, merge_all_per_component, merge_bccs_from_tops,
    BlockGroups, Decomposition, PartitionOptions,
};
use crate::subgraph::SubGraph;
use apgre_graph::{Graph, VertexId};

const NIL: u32 = u32::MAX;

/// One effective undirected edge edit (endpoints in either order).
#[derive(Clone, Copy, Debug)]
pub struct EdgeEdit {
    /// `true` = the edge was added, `false` = removed.
    pub add: bool,
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
}

/// Counters describing what one [`MaintainedDecomposition::apply_edits`]
/// call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaintainStats {
    /// Net edits applied through the in-place block patch path.
    pub patched_edits: usize,
    /// Net edits that forced a region splice.
    pub structural_edits: usize,
    /// Blocks whose union formed the re-Tarjaned region.
    pub region_blocks: usize,
    /// Edges in the re-Tarjaned region (after applying the edits).
    pub region_edges: usize,
    /// Blocks removed from the store by the splice.
    pub blocks_removed: usize,
    /// Blocks added to the store by the splice.
    pub blocks_added: usize,
    /// Sub-graphs the regroup examined and kept verbatim (the whole
    /// affected components on a full re-merge, the owners of the region and
    /// of the walked ancestors on a local one).
    pub subgraphs_kept: usize,
    /// Sub-graphs dissolved by the splice.
    pub subgraphs_removed: usize,
    /// Sub-graphs newly assembled by the splice.
    pub subgraphs_added: usize,
    /// Dissolved sub-graphs whose surviving blocks landed in ≥ 2 new
    /// groups — in-place sub-graph splits.
    pub subgraph_splits: usize,
    /// Block-cut-tree components the splice regrouped.
    pub affected_components: usize,
    /// Whether the splice path ran at all (`false` = patch/no-op only).
    pub spliced: bool,
    /// Whether the splice regrouped locally (region plus ancestor chain)
    /// rather than re-merging the whole affected components.
    pub local_regroup: bool,
    /// Ancestor blocks the local regroup visited above the region.
    pub ancestors_walked: usize,
    /// Wall clock of the splice's regroup: component bookkeeping, merge,
    /// sub-graph diff and assembly, and the boundary/α/β refresh (region
    /// Tarjan and the store update excluded). Zero without a splice.
    pub regroup_time: Duration,
    /// Wall clock of the whole maintenance call.
    pub maintain_time: Duration,
}

/// The result of a successful [`MaintainedDecomposition::apply_edits`] call.
#[derive(Clone, Debug)]
pub struct MaintainOutcome {
    /// What the call did, for reporting.
    pub stats: MaintainStats,
    /// Old sub-graph index → new index (`None` = dissolved by the splice).
    /// A caller holding per-sub-graph state (kernel contributions) moves it
    /// by index — every sub-graph whose block set survived keeps its state.
    pub old_to_new: Vec<Option<u32>>,
    /// New-index sub-graphs whose kernel input changed (patched, rebuilt,
    /// or boundary/α/β refreshed): their contributions must be recomputed.
    /// Sorted ascending.
    pub dirty: Vec<usize>,
    /// Whether sub-graph indices or vertex sets changed (vertex→sub-graph
    /// membership maps must be rebuilt).
    pub indices_changed: bool,
}

/// A [`Decomposition`] plus the persistent block store that lets edge edits
/// be applied in place. See the module docs for the algorithm.
///
/// For a maintained decomposition `subgraph_of_bcc` is indexed by **store
/// slot** (with `u32::MAX` on dead slots) rather than by Tarjan discovery
/// order; `num_bccs` is the live block count. Fresh and maintained
/// decompositions agree on both up to that re-indexing.
pub struct MaintainedDecomposition {
    opts: PartitionOptions,
    directed: bool,
    decomp: Decomposition,
    /// Per store slot: sorted vertex ids (empty on dead slots).
    block_verts: Vec<Vec<VertexId>>,
    /// Per store slot: sorted `(min,max)` edge list (empty on dead slots).
    block_edges: Vec<Vec<(VertexId, VertexId)>>,
    alive: Vec<bool>,
    free: Vec<u32>,
    live_blocks: usize,
    /// Per vertex: sorted store slots of the blocks containing it. A vertex
    /// is an articulation point iff this lists ≥ 2 blocks.
    blocks_of_vertex: Vec<Vec<u32>>,
    /// Per sub-graph (parallel to `decomp.subgraphs`): sorted store slots.
    subgraph_blocks: Vec<Vec<u32>>,
    /// Per store slot: id of the block-forest component the block belongs
    /// to (`NIL` on dead slots). Components get fresh ids whenever the
    /// splice path has to re-discover them; the common single-region splice
    /// reuses the existing id and skips the O(component) BFS.
    comp_id: Vec<u32>,
    /// Per component id: exactly its live block slots, in no particular
    /// order (empty for retired ids). A splice swap-removes the seeds and
    /// appends the new blocks.
    comp_blocks: Vec<Vec<u32>>,
    /// Per store slot: position in `comp_blocks[comp_id[slot]]`.
    comp_pos: Vec<u32>,
    /// Per component id: store slot of the component's canonical top block
    /// (largest, ties by lexicographically smallest vertex list). Only
    /// region blocks change in a splice, so the new top is the best of the
    /// cached top and the freshly spliced blocks — no component scan.
    comp_top: Vec<u32>,
    /// Per store slot: the block's node in the block-cut forest rooted at
    /// each component's canonical top (stale on dead slots).
    forest: Vec<ForestNode>,
    /// Per vertex: the block through which it hangs from its component's
    /// top — an articulation point's parent block, any other vertex's only
    /// block (stale for isolated vertices).
    up: Vec<u32>,
}

/// One block of the rooted block-cut forest: what Algorithm 1's merge and
/// the α/β branch weights need to know about it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ForestNode {
    /// Parent articulation vertex (`NIL` for a component's top block).
    parent: VertexId,
    /// Vertices in the block's subtree, its parent articulation excluded.
    subtree: u64,
    /// Accumulated merge size: the block's own size plus the grandchild
    /// groups folded into it.
    acc: u64,
    /// Whether the block's group folds into its grandparent's.
    merged: bool,
}

impl ForestNode {
    const DETACHED: ForestNode = ForestNode { parent: NIL, subtree: 0, acc: 0, merged: false };

    /// Size this block adds to its grandparent's accumulated size.
    fn contribution(&self) -> u64 {
        if self.merged {
            self.acc
        } else {
            0
        }
    }
}

/// Old sub-graphs whose grouping may have changed, and the new groups over
/// all of their live blocks (store slots).
struct Regroup {
    old_affected: Vec<usize>,
    groups: BlockGroups,
    components: usize,
    ancestors_walked: usize,
}

/// Node of the bipartite block-cut forest, used by the path search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TreeNode {
    Block(u32),
    Art(VertexId),
}

impl MaintainedDecomposition {
    /// Decomposes `g` and seeds the block store.
    pub fn new(g: &Graph, opts: &PartitionOptions) -> Self {
        let decomp = decompose(g, opts);
        Self::from_decomposition(g, decomp, opts)
    }

    /// Wraps an existing fresh decomposition of `g`, seeding the block
    /// store with one extra Tarjan pass. Directed graphs are accepted but
    /// `apply_edits` always declines on them.
    pub fn from_decomposition(g: &Graph, decomp: Decomposition, opts: &PartitionOptions) -> Self {
        let directed = g.is_directed();
        let mut m = MaintainedDecomposition {
            opts: opts.clone(),
            directed,
            decomp,
            block_verts: Vec::new(),
            block_edges: Vec::new(),
            alive: Vec::new(),
            free: Vec::new(),
            live_blocks: 0,
            blocks_of_vertex: Vec::new(),
            subgraph_blocks: Vec::new(),
            comp_id: Vec::new(),
            comp_blocks: Vec::new(),
            comp_pos: Vec::new(),
            comp_top: Vec::new(),
            forest: Vec::new(),
            up: Vec::new(),
        };
        if !directed {
            m.reseed_store(g);
        }
        m
    }

    /// The maintained decomposition.
    pub fn decomp(&self) -> &Decomposition {
        &self.decomp
    }

    /// Partition options the decomposition was (and will be) built with.
    pub fn options(&self) -> &PartitionOptions {
        &self.opts
    }

    fn reseed_store(&mut self, g: &Graph) {
        let und = g.to_undirected();
        let bcc = biconnected_components(&und);
        let nb = bcc.count();
        self.block_verts = bcc.bcc_vertices.clone();
        for verts in &mut self.block_verts {
            verts.sort_unstable();
        }
        self.block_edges = vec![Vec::new(); nb];
        for (u, v) in und.undirected_edges() {
            if u == v {
                continue; // self-loops live in no block
            }
            let b = bcc.bcc_of_edge(u, v) as usize;
            self.block_edges[b].push((u.min(v), u.max(v)));
        }
        for edges in &mut self.block_edges {
            edges.sort_unstable();
        }
        self.alive = vec![true; nb];
        self.free.clear();
        self.live_blocks = nb;
        self.blocks_of_vertex = vec![Vec::new(); self.decomp.num_vertices];
        for (b, verts) in self.block_verts.iter().enumerate() {
            for &v in verts {
                self.blocks_of_vertex[v as usize].push(b as u32);
            }
        }
        // A fresh decomposition's `subgraph_of_bcc` is indexed by the same
        // Tarjan order the reseed just reproduced, so it doubles as the
        // store-slot → sub-graph map from day one.
        self.subgraph_blocks = vec![Vec::new(); self.decomp.num_subgraphs()];
        for b in 0..nb {
            let s = self.decomp.subgraph_of_bcc[b];
            if s != NIL {
                self.subgraph_blocks[s as usize].push(b as u32);
            }
        }
        // Seed the persistent component index (one BFS over the block
        // forest), each component's canonical top, and its rooted forest
        // caches.
        self.comp_id = vec![NIL; nb];
        self.comp_pos = vec![NIL; nb];
        self.comp_blocks.clear();
        self.comp_top.clear();
        self.forest = vec![ForestNode::DETACHED; nb];
        self.up = vec![NIL; self.decomp.num_vertices];
        for c in self.register_components((0..nb as u32).collect()) {
            self.seed_forest(c);
        }
    }

    /// Roots component `c` at its canonical top and fills the forest
    /// caches of all its blocks and vertices: one BFS down, one settle pass
    /// back up. O(component).
    fn seed_forest(&mut self, c: u32) {
        let top = self.comp_top[c as usize];
        self.forest[top as usize].parent = NIL;
        let mut order = vec![top];
        let mut i = 0;
        while let Some(&b) = order.get(i) {
            i += 1;
            order.extend(self.root_children(b, |_| true));
        }
        for &b in order.iter().rev() {
            self.settle(b, top);
        }
    }

    /// Points every vertex of block `b` but its parent articulation up at
    /// `b`, makes `b` the parent of the blocks below those vertices that
    /// `adopt` accepts, and returns the adopted blocks.
    fn root_children(&mut self, b: u32, adopt: impl Fn(u32) -> bool) -> Vec<u32> {
        let parent = self.forest[b as usize].parent;
        let mut children = Vec::new();
        for &w in &self.block_verts[b as usize] {
            if w == parent {
                continue;
            }
            self.up[w as usize] = b;
            for &o in &self.blocks_of_vertex[w as usize] {
                if o != b && adopt(o) {
                    self.forest[o as usize].parent = w;
                    children.push(o);
                }
            }
        }
        children
    }

    /// Recomputes block `b`'s subtree weight, accumulated size and merge
    /// decision from its children's cached nodes (its parent articulation,
    /// and `up` of every vertex, must already be current).
    fn settle(&mut self, b: u32, top: u32) {
        let verts = &self.block_verts[b as usize];
        let parent = self.forest[b as usize].parent;
        let own = verts.len() as u64;
        let mut subtree = own - u64::from(parent != NIL);
        let mut acc = own;
        for &w in verts {
            if w == parent {
                continue;
            }
            for &o in &self.blocks_of_vertex[w as usize] {
                if o != b {
                    let child = &self.forest[o as usize];
                    subtree += child.subtree;
                    acc += child.contribution();
                }
            }
        }
        let merged = parent != NIL
            && folds_into_parent(
                acc,
                self.up[parent as usize] == top,
                self.opts.merge_threshold as u64,
            );
        self.forest[b as usize] = ForestNode { parent, subtree, acc, merged };
    }

    /// Removes block `b` from its component's member list.
    fn comp_detach(&mut self, b: u32) {
        let (c, pos) = (self.comp_id[b as usize], self.comp_pos[b as usize] as usize);
        self.comp_id[b as usize] = NIL;
        let Some(list) = self.comp_blocks.get_mut(c as usize) else { return };
        if list.get(pos) == Some(&b) {
            list.swap_remove(pos);
            if let Some(&moved) = list.get(pos) {
                self.comp_pos[moved as usize] = pos as u32;
            }
        }
    }

    /// Appends block `b` to component `c`'s member list.
    fn comp_attach(&mut self, c: u32, b: u32) {
        let list = &mut self.comp_blocks[c as usize];
        self.comp_id[b as usize] = c;
        self.comp_pos[b as usize] = list.len() as u32;
        list.push(b);
    }

    /// The unique block containing both `u` and `v`, if any (two distinct
    /// blocks share at most one vertex).
    fn common_block(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let (a, b) = (&self.blocks_of_vertex[u as usize], &self.blocks_of_vertex[v as usize]);
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        small.iter().copied().find(|x| large.binary_search(x).is_ok())
    }

    /// The block owning the existing edge `(u, v)`.
    fn owning_block_of_edge(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let key = (u.min(v), u.max(v));
        self.blocks_of_vertex[u as usize]
            .iter()
            .copied()
            .find(|&b| self.block_edges[b as usize].binary_search(&key).is_ok())
    }

    fn tree_neighbors(&self, node: TreeNode, out: &mut Vec<TreeNode>) {
        out.clear();
        match node {
            TreeNode::Block(b) => {
                for &v in &self.block_verts[b as usize] {
                    if self.blocks_of_vertex[v as usize].len() >= 2 {
                        out.push(TreeNode::Art(v));
                    }
                }
            }
            TreeNode::Art(v) => {
                for &b in &self.blocks_of_vertex[v as usize] {
                    out.push(TreeNode::Block(b));
                }
            }
        }
    }

    fn tree_node_of_vertex(&self, v: VertexId) -> Option<TreeNode> {
        let blocks = &self.blocks_of_vertex[v as usize];
        match blocks.len() {
            0 => None,
            1 => Some(TreeNode::Block(blocks[0])),
            _ => Some(TreeNode::Art(v)),
        }
    }

    /// Blocks on the block-cut-forest path between `u` and `v` — exactly
    /// the blocks the addition `(u, v)` merges (its fundamental cycle).
    /// `None` when the endpoints lie in different components (or either is
    /// isolated), i.e. the addition is a bridge at the component level.
    fn forest_path_blocks(&self, u: VertexId, v: VertexId) -> Option<Vec<u32>> {
        let start = self.tree_node_of_vertex(u)?;
        let target = self.tree_node_of_vertex(v)?;
        if start == target {
            // Both endpoints resolve to the same single block.
            if let TreeNode::Block(b) = start {
                return Some(vec![b]);
            }
        }
        // Bidirectional BFS over the bipartite forest, always expanding the
        // smaller frontier; exhausting one side means different components.
        let mut pa: HashMap<TreeNode, TreeNode> = HashMap::new();
        let mut pb: HashMap<TreeNode, TreeNode> = HashMap::new();
        pa.insert(start, start);
        pb.insert(target, target);
        let mut fa = vec![start];
        let mut fb = vec![target];
        let mut scratch = Vec::new();
        let meet = 'search: loop {
            if fa.is_empty() || fb.is_empty() {
                return None;
            }
            let expand_a = fa.len() <= fb.len();
            let (front, own, other) =
                if expand_a { (&mut fa, &mut pa, &pb) } else { (&mut fb, &mut pb, &pa) };
            let mut next = Vec::new();
            for &node in front.iter() {
                self.tree_neighbors(node, &mut scratch);
                for &nxt in &scratch {
                    if own.contains_key(&nxt) {
                        continue;
                    }
                    own.insert(nxt, node);
                    if other.contains_key(&nxt) {
                        break 'search nxt;
                    }
                    next.push(nxt);
                }
            }
            *front = next;
        };
        let mut blocks = Vec::new();
        let walk = |parents: &HashMap<TreeNode, TreeNode>, blocks: &mut Vec<u32>| {
            let mut cur = meet;
            loop {
                if let TreeNode::Block(b) = cur {
                    blocks.push(b);
                }
                let Some(&p) = parents.get(&cur) else { break };
                if p == cur {
                    break;
                }
                cur = p;
            }
        };
        walk(&pa, &mut blocks);
        walk(&pb, &mut blocks);
        blocks.sort_unstable();
        blocks.dedup();
        Some(blocks)
    }

    /// Tries to rewrite block `b` in place: applies `edits` to its edge
    /// list and accepts iff the result is still one biconnected block on
    /// the same vertex set. Returns the new sorted edge list on success.
    fn try_patch_block(
        &self,
        b: u32,
        edits: &[((VertexId, VertexId), bool)],
    ) -> Option<Vec<(VertexId, VertexId)>> {
        let mut set: BTreeSet<(VertexId, VertexId)> =
            self.block_edges[b as usize].iter().copied().collect();
        let mut has_removal = false;
        for &((u, v), add) in edits {
            if add {
                if !set.insert((u, v)) {
                    return None; // already present: store out of sync
                }
            } else {
                has_removal = true;
                if !set.remove(&(u, v)) {
                    return None;
                }
            }
        }
        if !has_removal {
            // Chords only: adding edges to a biconnected block keeps it
            // biconnected on the same vertex set.
            return Some(set.into_iter().collect());
        }
        if set.is_empty() {
            return None;
        }
        let verts = &self.block_verts[b as usize];
        let mut ledges = Vec::with_capacity(set.len());
        for &(u, v) in &set {
            let (Ok(lu), Ok(lv)) = (verts.binary_search(&u), verts.binary_search(&v)) else {
                return None;
            };
            ledges.push((lu as u32, lv as u32));
        }
        let g = Graph::undirected_from_edges(verts.len(), &ledges);
        let bcc = biconnected_components(&g);
        if bcc.count() != 1 || bcc.bcc_vertices[0].len() != verts.len() {
            return None;
        }
        Some(set.into_iter().collect())
    }

    /// Rebuilds sub-graph `s`'s local CSR from its blocks' edge lists
    /// (vertex set unchanged). Returns `false` on store inconsistency.
    fn rebuild_subgraph_csr(&mut self, s: usize) -> bool {
        let mut ledges = Vec::new();
        {
            let sg = &self.decomp.subgraphs[s];
            for &b in &self.subgraph_blocks[s] {
                for &(u, v) in &self.block_edges[b as usize] {
                    let (Ok(lu), Ok(lv)) =
                        (sg.globals.binary_search(&u), sg.globals.binary_search(&v))
                    else {
                        return false;
                    };
                    ledges.push((lu as u32, lv as u32));
                }
            }
        }
        let sg = &mut self.decomp.subgraphs[s];
        sg.graph = Graph::undirected_from_edges(sg.num_vertices(), &ledges);
        sg.recompute_whiskers();
        true
    }

    /// Applies one batch of effective edge edits to the maintained
    /// decomposition. `num_vertices` is the post-batch vertex count (vertex
    /// additions only grow index space; vertex removals arrive as the edge
    /// edits stripping the vertex).
    ///
    /// On `Err` the store may be partially mutated and **must not** be used
    /// further: the caller falls back to a fresh [`decompose`] and reseeds
    /// (which the error paths are priced for — they are the cases a region
    /// bound cannot cover, plus internal-inconsistency bails).
    pub fn apply_edits(
        &mut self,
        num_vertices: usize,
        edits: &[EdgeEdit],
    ) -> Result<MaintainOutcome, &'static str> {
        let t0 = Instant::now();
        if self.directed {
            return Err("maintenance covers undirected structure only");
        }
        if num_vertices < self.decomp.num_vertices {
            return Err("vertex count shrank");
        }
        let old_num_subgraphs = self.decomp.num_subgraphs();
        self.decomp.num_vertices = num_vertices;
        self.decomp.is_articulation.resize(num_vertices, false);
        self.blocks_of_vertex.resize(num_vertices, Vec::new());
        self.up.resize(num_vertices, NIL);

        // Net the stream per unordered endpoint pair: successive effective
        // edits on one pair alternate add/remove, so an even count cancels.
        let mut net: BTreeMap<(VertexId, VertexId), bool> = BTreeMap::new();
        for e in edits {
            if e.u == e.v {
                return Err("self-loop edit");
            }
            if e.u as usize >= num_vertices || e.v as usize >= num_vertices {
                return Err("edit endpoint out of range");
            }
            let key = (e.u.min(e.v), e.u.max(e.v));
            match net.entry(key) {
                std::collections::btree_map::Entry::Occupied(o) => {
                    o.remove();
                }
                std::collections::btree_map::Entry::Vacant(s) => {
                    s.insert(e.add);
                }
            }
        }
        if net.is_empty() {
            return Ok(MaintainOutcome {
                stats: MaintainStats { maintain_time: t0.elapsed(), ..Default::default() },
                old_to_new: (0..old_num_subgraphs as u32).map(Some).collect(),
                dirty: Vec::new(),
                indices_changed: false,
            });
        }

        // Classify each net edit against the pre-batch store.
        let mut patch: BTreeMap<u32, Vec<((VertexId, VertexId), bool)>> = BTreeMap::new();
        let mut structural: Vec<((VertexId, VertexId), bool)> = Vec::new();
        let mut seeds: BTreeSet<u32> = BTreeSet::new();
        let mut pathless_adds = 0usize;
        for (&(u, v), &add) in &net {
            if add {
                if let Some(b) = self.common_block(u, v) {
                    patch.entry(b).or_default().push(((u, v), true));
                } else if let Some(path) = self.forest_path_blocks(u, v) {
                    seeds.extend(path);
                    structural.push(((u, v), true));
                } else {
                    // Component-bridging addition: no fundamental cycle in
                    // the old forest bounds it. One per batch is still exact
                    // (a single crossing cannot close a component-level
                    // cycle); two or more can, so decline.
                    pathless_adds += 1;
                    if pathless_adds > 1 {
                        return Err("multiple component-bridging additions in one batch");
                    }
                    structural.push(((u, v), true));
                }
            } else {
                let Some(b) = self.owning_block_of_edge(u, v) else {
                    return Err("block store does not own a removed edge");
                };
                patch.entry(b).or_default().push(((u, v), false));
            }
        }

        // In-place patches; failures demote to the splice region.
        let mut patched_blocks: Vec<u32> = Vec::new();
        let mut patched_edits = 0usize;
        for (b, bedits) in patch {
            match self.try_patch_block(b, &bedits) {
                Some(new_edges) => {
                    self.block_edges[b as usize] = new_edges;
                    patched_edits += bedits.len();
                    patched_blocks.push(b);
                }
                None => {
                    seeds.insert(b);
                    structural.extend(bedits);
                }
            }
        }
        let mut patched_sgs: BTreeSet<usize> = BTreeSet::new();
        for &b in &patched_blocks {
            let s = self.decomp.subgraph_of_bcc[b as usize];
            if s == NIL {
                return Err("patched block has no owning sub-graph");
            }
            patched_sgs.insert(s as usize);
        }
        for &s in patched_sgs.clone().iter() {
            if !self.rebuild_subgraph_csr(s) {
                return Err("block store out of sync with sub-graph vertex sets");
            }
        }

        if structural.is_empty() {
            return Ok(MaintainOutcome {
                stats: MaintainStats {
                    patched_edits,
                    maintain_time: t0.elapsed(),
                    ..Default::default()
                },
                old_to_new: (0..old_num_subgraphs as u32).map(Some).collect(),
                dirty: patched_sgs.into_iter().collect(),
                indices_changed: false,
            });
        }
        self.splice(
            seeds,
            &structural,
            &patched_sgs,
            patched_edits,
            old_num_subgraphs,
            pathless_adds > 0,
            t0,
        )
    }

    /// The splice path: region Tarjan, store update, regroup (local or
    /// full), sub-graph diff, boundary/α/β refresh.
    #[allow(clippy::too_many_arguments)]
    fn splice(
        &mut self,
        seeds: BTreeSet<u32>,
        structural: &[((VertexId, VertexId), bool)],
        patched_sgs: &BTreeSet<usize>,
        patched_edits: usize,
        old_num_subgraphs: usize,
        component_bridging: bool,
        t0: Instant,
    ) -> Result<MaintainOutcome, &'static str> {
        // ---- Region assembly: the seeds' edges, plus the edits.
        let mut redges: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
        let mut rverts: BTreeSet<VertexId> = BTreeSet::new();
        for &b in &seeds {
            redges.extend(self.block_edges[b as usize].iter().copied());
            rverts.extend(self.block_verts[b as usize].iter().copied());
        }
        for &((u, v), add) in structural {
            if add {
                if !redges.insert((u, v)) {
                    return Err("added edge already present in the region");
                }
                rverts.insert(u);
                rverts.insert(v);
            } else if !redges.remove(&(u, v)) {
                return Err("block store does not own a removed edge");
            }
        }
        let idx: Vec<VertexId> = rverts.into_iter().collect();
        let mut ledges = Vec::with_capacity(redges.len());
        for &(u, v) in &redges {
            let (Ok(lu), Ok(lv)) = (idx.binary_search(&u), idx.binary_search(&v)) else {
                return Err("region vertex index out of sync");
            };
            ledges.push((lu as u32, lv as u32));
        }

        // ---- Localized Tarjan on the region.
        let rg = Graph::undirected_from_edges(idx.len(), &ledges);
        let rb = biconnected_components(&rg);
        let nb_new = rb.count();
        let mut nverts: Vec<Vec<VertexId>> = rb
            .bcc_vertices
            .iter()
            .map(|vs| {
                let mut g: Vec<VertexId> = vs.iter().map(|&l| idx[l as usize]).collect();
                g.sort_unstable();
                g
            })
            .collect();
        let mut nedges: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); nb_new];
        for (&(u, v), &(lu, lv)) in redges.iter().zip(&ledges) {
            let b = rb.bcc_of_edge(lu, lv) as usize; // present by construction
            nedges[b].push((u, v));
        }
        for edges in &mut nedges {
            edges.sort_unstable();
        }

        // ---- Store update: kill the seeds, splice the new blocks in. Dead
        // slots are recycled only by *later* calls so that block ids stay
        // unique within this one (the sub-graph diff below matches on them,
        // and the local regroup still reads the seeds' forest nodes).
        let seeds_vec: Vec<u32> = seeds.into_iter().collect();
        for &b in &seeds_vec {
            self.alive[b as usize] = false;
            let verts = std::mem::take(&mut self.block_verts[b as usize]);
            for &v in &verts {
                self.blocks_of_vertex[v as usize].retain(|&x| x != b);
            }
            self.block_edges[b as usize].clear();
            self.live_blocks -= 1;
            self.comp_detach(b);
        }
        let mut new_ids = Vec::with_capacity(nb_new);
        for i in 0..nb_new {
            let id = match self.free.pop() {
                Some(id) => id,
                None => {
                    self.block_verts.push(Vec::new());
                    self.block_edges.push(Vec::new());
                    self.alive.push(false);
                    self.comp_id.push(NIL);
                    self.comp_pos.push(NIL);
                    self.forest.push(ForestNode::DETACHED);
                    (self.block_verts.len() - 1) as u32
                }
            };
            self.alive[id as usize] = true;
            self.block_verts[id as usize] = std::mem::take(&mut nverts[i]);
            self.block_edges[id as usize] = std::mem::take(&mut nedges[i]);
            for &v in &self.block_verts[id as usize] {
                let list = &mut self.blocks_of_vertex[v as usize];
                if let Err(pos) = list.binary_search(&id) {
                    list.insert(pos, id);
                }
            }
            self.live_blocks += 1;
            new_ids.push(id);
        }
        self.free.extend(seeds_vec.iter().copied());

        // ---- Articulation refresh: only region vertices can change block
        // membership counts.
        for &v in &idx {
            let art = self.blocks_of_vertex[v as usize].len() >= 2;
            let flag = &mut self.decomp.is_articulation[v as usize];
            if *flag != art {
                *flag = art;
                if art {
                    self.decomp.articulation_count += 1;
                } else {
                    self.decomp.articulation_count -= 1;
                }
            }
        }

        // ---- Affected components. The common splice leaves the component
        // structure intact: no component-bridging addition, the post-edit
        // region is still connected (so nothing split off — every piece of
        // the component that hung off a region vertex still does), and all
        // blocks around the region sit in one known component `c`. Then the
        // component's member list just trades the seeds for the spliced
        // blocks and the O(component) BFS is skipped. Anything else —
        // bridging adds, region split apart, edits spanning several
        // components — falls back to the BFS and re-registers the
        // discovered components under fresh ids.
        let t_regroup = Instant::now();
        let nslots = self.block_verts.len();
        let region_connected = {
            let mut seen = vec![false; idx.len()];
            let mut stack: Vec<u32> = Vec::new();
            let mut visited = 0usize;
            if !idx.is_empty() {
                seen[0] = true;
                stack.push(0);
                visited = 1;
                while let Some(l) = stack.pop() {
                    for &nb in rg.out_neighbors(l) {
                        if !seen[nb as usize] {
                            seen[nb as usize] = true;
                            visited += 1;
                            stack.push(nb);
                        }
                    }
                }
            }
            visited == idx.len()
        };
        let anchor_comp = {
            let mut c = NIL;
            let mut ok = true;
            for &v in &idx {
                for &b in &self.blocks_of_vertex[v as usize] {
                    let bc = self.comp_id[b as usize];
                    if bc == NIL {
                        continue; // a spliced block
                    }
                    if c == NIL {
                        c = bc;
                    } else if c != bc {
                        ok = false;
                    }
                }
            }
            if ok {
                c
            } else {
                NIL
            }
        };
        let fast = !component_bridging && region_connected && anchor_comp != NIL;
        let mut local = false;
        let regroup = if fast {
            let c = anchor_comp;
            for &b in &new_ids {
                self.comp_attach(c, b);
            }
            // Only region blocks changed, so the canonical top is the best
            // of the cached top and the spliced blocks — unless the cached
            // top itself died with the region, which forces a full scan.
            let cached = self.comp_top[c as usize];
            let top = if self.alive[cached as usize] && self.comp_id[cached as usize] == c {
                let mut cands = new_ids.clone();
                cands.push(cached);
                canonical_top_bcc(&cands, &self.block_verts)
            } else {
                canonical_top_bcc(&self.comp_blocks[c as usize], &self.block_verts)
            };
            self.comp_top[c as usize] = top;
            // A surviving top keeps every block outside the region rooted
            // as before; `merge_all` has no per-block merge decisions.
            local = top == cached && !self.opts.merge_all;
            if local {
                self.regroup_local(c, &seeds_vec, &new_ids)?
            } else {
                self.regroup_full(&[c], &seeds_vec)?
            }
        } else {
            // Every piece a touched component split into contains a region
            // vertex, so the region's blocks reach all of their members.
            let mut starts: Vec<u32> = new_ids.clone();
            for &v in &idx {
                starts.extend(self.blocks_of_vertex[v as usize].iter().copied());
            }
            starts.sort_unstable();
            starts.dedup();
            let comps = self.register_components(starts);
            self.regroup_full(&comps, &seeds_vec)?
        };
        let Regroup { old_affected, groups, components, ancestors_walked } = regroup;

        // ---- Diff against the old grouping by block-id set. Ids are
        // stable for untouched blocks and fresh for spliced ones, so set
        // equality ⇔ identical sub-graph vertex/edge content. A group can
        // only match the old sub-graph owning its first block, and since
        // `subgraph_blocks[cand]` is exactly the set of blocks owned by
        // `cand`, "every group block is owned by `cand` and the lengths
        // agree" ⇔ set equality — no per-group materialization or sorting
        // needed. Only the genuinely fresh groups are materialized.
        let mut dissolved = vec![false; old_num_subgraphs];
        for &s in &old_affected {
            dissolved[s] = true;
        }
        let mut first_group = vec![NIL; old_num_subgraphs];
        let mut split = vec![false; old_num_subgraphs];
        let mut kept_old: Vec<usize> = Vec::new();
        let mut fresh_groups: Vec<Vec<u32>> = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            for &b in g {
                if let Some(s) = self.owner(b) {
                    if first_group[s] == NIL {
                        first_group[s] = gi as u32;
                    } else if first_group[s] != gi as u32 {
                        split[s] = true;
                    }
                }
            }
            let cand = g.first().and_then(|&b| self.owner(b));
            let matches = cand.is_some_and(|s| {
                self.subgraph_blocks[s].len() == g.len()
                    && g.iter().all(|&b| self.owner(b) == Some(s))
            });
            match cand {
                Some(s) if matches => {
                    if dissolved[s] {
                        dissolved[s] = false;
                        kept_old.push(s);
                    }
                }
                _ => {
                    let mut blocks = g.to_vec();
                    blocks.sort_unstable();
                    fresh_groups.push(blocks);
                }
            }
        }
        let removed: Vec<usize> = old_affected.iter().copied().filter(|&s| dissolved[s]).collect();
        // A kept sub-graph cannot have split (its id set matched), so this
        // counts dissolved sub-graphs spanning >= 2 groups.
        let splits = split.iter().filter(|&&x| x).count();
        // Every block a fresh group takes over must come from a dissolved
        // sub-graph; anything else means the regroup missed a group.
        for g in &fresh_groups {
            for &b in g {
                if self.owner(b).is_some_and(|s| !dissolved[s]) {
                    return Err("regroup moved a block of an unaffected sub-graph");
                }
            }
        }

        // ---- Commit: survivors keep their old relative order, fresh
        // groups are appended in canonical order. Only survivors behind the
        // first dissolved index move, so only their blocks are re-pointed.
        let mut assembled: Vec<(SubGraph, Vec<u32>)> = Vec::with_capacity(fresh_groups.len());
        for g in fresh_groups {
            let sg = self.assemble_subgraph(&g).ok_or("block store out of sync during assembly")?;
            assembled.push((sg, g));
        }
        assembled.sort_by(|a, b| a.0.globals.cmp(&b.0.globals));
        let mut old_to_new: Vec<Option<u32>> = Vec::with_capacity(old_num_subgraphs);
        let mut next = 0u32;
        for &gone in &dissolved {
            old_to_new.push((!gone).then_some(next));
            next += u32::from(!gone);
        }
        let mut i = 0;
        self.decomp.subgraphs.retain(|_| {
            i += 1;
            !dissolved[i - 1]
        });
        let mut i = 0;
        self.subgraph_blocks.retain(|_| {
            i += 1;
            !dissolved[i - 1]
        });
        let sob = &mut self.decomp.subgraph_of_bcc;
        sob.resize(nslots, NIL);
        for &b in &seeds_vec {
            sob[b as usize] = NIL;
        }
        let first_moved = removed.first().copied().unwrap_or(old_num_subgraphs);
        for s in first_moved..self.subgraph_blocks.len() {
            self.decomp.subgraphs[s].id = s;
            for &b in &self.subgraph_blocks[s] {
                sob[b as usize] = s as u32;
            }
        }
        let mut fresh_final: Vec<usize> = Vec::with_capacity(assembled.len());
        for (mut sg, blocks) in assembled {
            let s = self.decomp.subgraphs.len();
            sg.id = s;
            for &b in &blocks {
                sob[b as usize] = s as u32;
            }
            fresh_final.push(s);
            self.decomp.subgraphs.push(sg);
            self.subgraph_blocks.push(blocks);
        }
        let indices_changed = !removed.is_empty() || !fresh_final.is_empty();
        self.decomp.num_bccs = self.live_blocks;
        self.decomp.top_subgraph = self
            .decomp
            .subgraphs
            .iter()
            .enumerate()
            .max_by_key(|(i, sg)| (sg.num_vertices(), usize::MAX - i))
            .map(|(i, _)| i)
            .unwrap_or(0);

        // ---- Boundary + α/β refresh. When the batch cannot have moved any
        // vertex between tree branches outside the region — one affected
        // component before and after, no component-bridging addition, and no
        // region vertex left isolated — branch weights at articulation
        // points outside the region are unchanged (every edit toggles edges
        // within a single branch of such a point), so only sub-graphs that
        // contain a region vertex can see their boundary flags or α move.
        // Otherwise (component split/merge, vertex joined or left) fall back
        // to refreshing every sub-graph of the affected components.
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        for &s in patched_sgs {
            if let Some(ns) = old_to_new.get(s).copied().flatten() {
                dirty.insert(ns as usize);
            }
        }
        dirty.extend(fresh_final.iter().copied());
        let isolated_region_vertex =
            idx.iter().any(|&v| self.blocks_of_vertex[v as usize].is_empty());
        let weights_stable = !component_bridging && components == 1 && !isolated_region_vertex;
        let mut refresh: Vec<usize> = fresh_final.clone();
        if weights_stable {
            for &v in &idx {
                for &b in &self.blocks_of_vertex[v as usize] {
                    refresh.extend(self.owner(b));
                }
            }
        } else {
            for &s in &kept_old {
                if let Some(ns) = old_to_new.get(s).copied().flatten() {
                    refresh.push(ns as usize);
                }
            }
        }
        refresh.sort_unstable();
        refresh.dedup();
        for &s in &refresh {
            let sg = &self.decomp.subgraphs[s];
            let ln = sg.num_vertices();
            let mut is_boundary = vec![false; ln];
            let mut boundary = Vec::new();
            let mut alpha = vec![0u64; ln];
            for (l, &v) in sg.globals.iter().enumerate() {
                if !self.decomp.is_articulation[v as usize] {
                    continue;
                }
                let crosses =
                    self.blocks_of_vertex[v as usize].iter().any(|&b| self.owner(b) != Some(s));
                if crosses {
                    is_boundary[l] = true;
                    boundary.push(l as u32);
                    alpha[l] = self.alpha_of(v, s as u32)?;
                }
            }
            let boundary_changed = is_boundary != sg.is_boundary;
            if boundary_changed || alpha != sg.alpha {
                let sg = &mut self.decomp.subgraphs[s];
                sg.beta = alpha.clone();
                sg.alpha = alpha;
                sg.is_boundary = is_boundary;
                sg.boundary = boundary;
                if boundary_changed {
                    sg.recompute_whiskers();
                }
                dirty.insert(s);
            }
        }
        let regroup_time = t_regroup.elapsed();

        #[cfg(feature = "invariants")]
        if local {
            if let Err(e) = self.check_local_regroup(anchor_comp) {
                panic!("local regroup diverged from the full re-merge: {e}");
            }
        }

        Ok(MaintainOutcome {
            stats: MaintainStats {
                patched_edits,
                structural_edits: structural.len(),
                region_blocks: seeds_vec.len(),
                region_edges: redges.len(),
                blocks_removed: seeds_vec.len(),
                blocks_added: new_ids.len(),
                subgraphs_kept: kept_old.len(),
                subgraphs_removed: removed.len(),
                subgraphs_added: fresh_final.len(),
                subgraph_splits: splits,
                affected_components: components,
                spliced: true,
                local_regroup: local,
                ancestors_walked,
                regroup_time,
                maintain_time: t0.elapsed(),
            },
            old_to_new,
            dirty: dirty.into_iter().collect(),
            indices_changed,
        })
    }

    /// Discovers the components containing `starts` (sorted, deduplicated
    /// block slots) by BFS over the block forest and registers them under
    /// fresh ids, with their canonical tops; returns those ids. The member
    /// lists of the components the blocks belonged to before are dropped
    /// wholesale, so every live former member must be reachable from the
    /// starts.
    fn register_components(&mut self, starts: Vec<u32>) -> Vec<u32> {
        let mut comp_of_block: Vec<u32> = vec![NIL; self.block_verts.len()];
        let mut lists: Vec<Vec<u32>> = Vec::new();
        let mut queue = VecDeque::new();
        for &s in &starts {
            if comp_of_block[s as usize] != NIL {
                continue;
            }
            let k = lists.len() as u32;
            let mut members = Vec::new();
            comp_of_block[s as usize] = k;
            queue.push_back(s);
            while let Some(b) = queue.pop_front() {
                members.push(b);
                for &v in &self.block_verts[b as usize] {
                    let blocks = &self.blocks_of_vertex[v as usize];
                    if blocks.len() < 2 {
                        continue;
                    }
                    for &o in blocks {
                        if comp_of_block[o as usize] == NIL {
                            comp_of_block[o as usize] = k;
                            queue.push_back(o);
                        }
                    }
                }
            }
            lists.push(members);
        }
        for members in &lists {
            for &b in members {
                let old = self.comp_id[b as usize];
                if let Some(list) = self.comp_blocks.get_mut(old as usize) {
                    list.clear();
                }
            }
        }
        let mut comps = Vec::with_capacity(lists.len());
        for members in lists {
            let c = self.comp_blocks.len() as u32;
            for (i, &b) in members.iter().enumerate() {
                self.comp_id[b as usize] = c;
                self.comp_pos[b as usize] = i as u32;
            }
            self.comp_top.push(canonical_top_bcc(&members, &self.block_verts));
            self.comp_blocks.push(members);
            comps.push(c);
        }
        comps
    }

    /// The sub-graph currently owning store slot `b`, if any.
    fn owner(&self, b: u32) -> Option<usize> {
        match self.decomp.subgraph_of_bcc.get(b as usize) {
            Some(&s) if s != NIL => Some(s as usize),
            _ => None,
        }
    }

    /// The local regroup of component `c` (see the module docs): the
    /// canonical top survived the splice, so every block outside the region
    /// keeps its parent articulation and the spliced blocks hang below the
    /// region's exit articulation. Settles the new blocks, walks the
    /// ancestor chain while contributed sizes or merge decisions move, and
    /// re-collects only the groups headed in the region or on that chain.
    fn regroup_local(
        &mut self,
        c: u32,
        seeds: &[u32],
        new_ids: &[u32],
    ) -> Result<Regroup, &'static str> {
        let top = self.comp_top[c as usize];
        let threshold = self.opts.merge_threshold as u64;
        // The exit articulation: the parent articulation of every seed whose
        // grandparent block is not itself a seed (`seeds` is sorted).
        let mut exit = NIL;
        let (mut old_in, mut old_below) = (0u64, 0u64);
        for &s in seeds {
            let node = self.forest[s as usize];
            if node.parent == NIL {
                return Err("local regroup reached the component top");
            }
            if seeds.binary_search(&self.up[node.parent as usize]).is_ok() {
                continue;
            }
            if exit != NIL && exit != node.parent {
                return Err("region hangs off two articulation points");
            }
            exit = node.parent;
            old_in += node.contribution();
            old_below += node.subtree;
        }
        if exit == NIL {
            return Err("region without an exit articulation");
        }
        let above = self.up[exit as usize];

        // Root the spliced blocks under the exit and settle them bottom-up.
        // Their untouched children keep their cached nodes: each hangs off
        // the same region vertex as before with an unchanged subtree, and
        // its grandparent moves from one non-top region block to another.
        let mut spliced = new_ids.to_vec();
        spliced.sort_unstable();
        let is_new = |b: u32| spliced.binary_search(&b).is_ok();
        let mut order: Vec<u32> = Vec::with_capacity(new_ids.len());
        for &b in &self.blocks_of_vertex[exit as usize] {
            if is_new(b) {
                self.forest[b as usize].parent = exit;
                order.push(b);
            }
        }
        let at_exit = order.len();
        let mut i = 0;
        while let Some(&b) = order.get(i) {
            i += 1;
            let children = self.root_children(b, is_new);
            order.extend(children);
            if order.len() > new_ids.len() {
                break;
            }
        }
        if order.len() != new_ids.len() {
            return Err("spliced blocks do not hang off the exit articulation");
        }
        for &b in order.iter().rev() {
            self.settle(b, top);
        }
        let (mut new_in, mut new_below) = (0u64, 0u64);
        for &b in &order[..at_exit] {
            new_in += self.forest[b as usize].contribution();
            new_below += self.forest[b as usize].subtree;
        }
        if new_below != old_below {
            return Err("region subtree weight moved inside one component");
        }

        // Walk up from the exit's parent block while a contributed size or
        // a merge decision moves, and on through folded blocks to the head
        // of the group the region's top blocks fold into.
        let mut heads: Vec<u32> =
            order.iter().copied().filter(|&b| !self.forest[b as usize].merged).collect();
        let mut chain: Vec<u32> = Vec::new();
        if old_in != 0 || new_in != 0 {
            let mut cur = above;
            let mut delta = new_in as i64 - old_in as i64;
            loop {
                if chain.len() > self.live_blocks {
                    return Err("ancestor walk does not reach the component top");
                }
                let old = self.forest[cur as usize];
                let acc = old.acc.checked_add_signed(delta).ok_or("accumulated size underflow")?;
                let merged = old.parent != NIL
                    && folds_into_parent(acc, self.up[old.parent as usize] == top, threshold);
                let node = ForestNode { acc, merged, ..old };
                self.forest[cur as usize] = node;
                chain.push(cur);
                if !merged {
                    heads.push(cur);
                    if !old.merged {
                        break;
                    }
                }
                delta = node.contribution() as i64 - old.contribution() as i64;
                cur = self.up[old.parent as usize];
            }
        }

        // Collect the changed groups: each head plus the folded blocks
        // below it.
        let mut groups = BlockGroups::new();
        let mut stack: Vec<u32> = Vec::new();
        for &h in &heads {
            stack.push(h);
            while let Some(b) = stack.pop() {
                groups.push(b);
                let parent = self.forest[b as usize].parent;
                for &w in &self.block_verts[b as usize] {
                    if w == parent {
                        continue;
                    }
                    for &o in &self.blocks_of_vertex[w as usize] {
                        if o != b && self.forest[o as usize].merged {
                            stack.push(o);
                        }
                    }
                }
            }
            groups.close_group();
        }
        let mut old_affected: Vec<usize> =
            seeds.iter().chain(&chain).filter_map(|&b| self.owner(b)).collect();
        old_affected.sort_unstable();
        old_affected.dedup();
        Ok(Regroup { old_affected, groups, components: 1, ancestors_walked: chain.len() })
    }

    /// The fallback regroup: Algorithm 1's merge re-run over every block of
    /// `comps` on a compact view, then the components' forest caches
    /// re-seeded. O(component).
    fn regroup_full(&mut self, comps: &[u32], seeds: &[u32]) -> Result<Regroup, &'static str> {
        let mut affected: Vec<u32> =
            comps.iter().flat_map(|&c| self.comp_blocks[c as usize].iter().copied()).collect();
        affected.sort_unstable();
        let mut groups = {
            let cverts: Vec<&[VertexId]> =
                affected.iter().map(|&b| self.block_verts[b as usize].as_slice()).collect();
            let bct = BlockCutTree::build_from(&self.decomp.is_articulation, &cverts);
            if self.opts.merge_all {
                merge_all_per_component(&bct)
            } else {
                let mut tops = Vec::with_capacity(comps.len());
                for &c in comps {
                    let top = affected
                        .binary_search(&self.comp_top[c as usize])
                        .map_err(|_| "top block not in its component")?;
                    tops.push(top as u32);
                }
                merge_bccs_from_tops(&cverts, &bct, self.opts.merge_threshold as u64, &tops)
            }
        };
        groups.relabel(|ci| affected[ci as usize]);
        let mut old_affected: Vec<usize> =
            affected.iter().chain(seeds).filter_map(|&b| self.owner(b)).collect();
        old_affected.sort_unstable();
        old_affected.dedup();
        for &c in comps {
            self.seed_forest(c);
        }
        Ok(Regroup { old_affected, groups, components: comps.len(), ancestors_walked: 0 })
    }

    /// α of articulation vertex `v` as a boundary point of sub-graph `s`:
    /// the vertices behind `v`'s block-cut branches that lead out of `s`,
    /// read off the cached subtree weights. A child block's branch is its
    /// subtree; the parent block's branch is everything else.
    fn alpha_of(&self, v: VertexId, s: u32) -> Result<u64, &'static str> {
        let up = self.up[v as usize];
        let (mut below, mut alpha, mut up_outside) = (0u64, 0u64, None);
        for &b in &self.blocks_of_vertex[v as usize] {
            let outside = self.owner(b) != Some(s as usize);
            if b == up {
                up_outside = Some(outside);
                continue;
            }
            let w = self.forest[b as usize].subtree;
            below += w;
            if outside {
                alpha += w;
            }
        }
        match up_outside {
            None => Err("articulation point lost its forest parent block"),
            Some(false) => Ok(alpha),
            Some(true) => {
                let top = self.comp_top[self.comp_id[up as usize] as usize];
                let total = self.forest[top as usize].subtree;
                total.checked_sub(below + 1).map(|w| alpha + w).ok_or("forest weights out of sync")
            }
        }
    }

    /// Cross-checks a local regroup of component `c` against the full
    /// path: Algorithm 1's merge re-run over the whole component must yield
    /// exactly the committed groups, boundary/α/β recomputed from
    /// `bct.rooted()` must be bit-identical for every sub-graph of the
    /// component, and re-seeding the forest caches must reproduce the
    /// incrementally maintained ones.
    #[cfg(feature = "invariants")]
    fn check_local_regroup(&mut self, c: u32) -> Result<(), String> {
        let mut blocks = self.comp_blocks[c as usize].clone();
        blocks.sort_unstable();
        let top = blocks
            .binary_search(&self.comp_top[c as usize])
            .map_err(|_| "top block outside its component".to_string())?;
        {
            let cverts: Vec<&[VertexId]> =
                blocks.iter().map(|&b| self.block_verts[b as usize].as_slice()).collect();
            let bct = BlockCutTree::build_from(&self.decomp.is_articulation, &cverts);
            let threshold = self.opts.merge_threshold as u64;
            let groups = merge_bccs_from_tops(&cverts, &bct, threshold, &[top as u32]);
            let rooted = bct.rooted();
            for g in groups.iter() {
                let mut slots: Vec<u32> = g.iter().map(|&ci| blocks[ci as usize]).collect();
                slots.sort_unstable();
                let s = self.owner(slots[0]).ok_or("group without an owner".to_string())?;
                if self.subgraph_blocks[s] != slots {
                    return Err(format!(
                        "sub-graph {s} is not the full re-merge's group {slots:?}"
                    ));
                }
                let sg = &self.decomp.subgraphs[s];
                let mut is_boundary = vec![false; sg.num_vertices()];
                let mut alpha = vec![0u64; sg.num_vertices()];
                for (l, &v) in sg.globals.iter().enumerate() {
                    if !self.decomp.is_articulation[v as usize] {
                        continue;
                    }
                    for &b in &self.blocks_of_vertex[v as usize] {
                        if self.owner(b) != Some(s) {
                            let ci = blocks.binary_search(&b).map_err(|_| "stray block")?;
                            is_boundary[l] = true;
                            alpha[l] += rooted.branch_weight(v, ci as u32);
                        }
                    }
                }
                if is_boundary != sg.is_boundary || alpha != sg.alpha || alpha != sg.beta {
                    return Err(format!("boundary/α/β of sub-graph {s} differ from bct.rooted()"));
                }
            }
        }
        let cached: Vec<ForestNode> = blocks.iter().map(|&b| self.forest[b as usize]).collect();
        let verts: Vec<VertexId> =
            blocks.iter().flat_map(|&b| self.block_verts[b as usize].iter().copied()).collect();
        let ups: Vec<u32> = verts.iter().map(|&v| self.up[v as usize]).collect();
        self.seed_forest(c);
        for (&b, was) in blocks.iter().zip(&cached) {
            let now = self.forest[b as usize];
            if now != *was {
                return Err(format!("forest node of block {b}: cached {was:?}, re-seeded {now:?}"));
            }
        }
        for (&v, &was) in verts.iter().zip(&ups) {
            if self.up[v as usize] != was {
                return Err(format!("parent block of vertex {v} drifted"));
            }
        }
        Ok(())
    }

    /// Builds a [`SubGraph`] from a sorted group of store blocks (boundary
    /// from the store, whiskers recomputed, α/β left zero for the caller).
    fn assemble_subgraph(&self, blocks: &[u32]) -> Option<SubGraph> {
        let mut globals: Vec<VertexId> = Vec::new();
        for &b in blocks {
            globals.extend(self.block_verts[b as usize].iter().copied());
        }
        globals.sort_unstable();
        globals.dedup();
        let ln = globals.len();
        let mut ledges = Vec::new();
        for &b in blocks {
            for &(u, v) in &self.block_edges[b as usize] {
                let (Ok(lu), Ok(lv)) = (globals.binary_search(&u), globals.binary_search(&v))
                else {
                    return None;
                };
                ledges.push((lu as u32, lv as u32));
            }
        }
        let graph = Graph::undirected_from_edges(ln, &ledges);
        let mut is_boundary = vec![false; ln];
        let mut boundary = Vec::new();
        for (l, &v) in globals.iter().enumerate() {
            if !self.decomp.is_articulation[v as usize] {
                continue;
            }
            let crosses =
                self.blocks_of_vertex[v as usize].iter().any(|b| blocks.binary_search(b).is_err());
            if crosses {
                is_boundary[l] = true;
                boundary.push(l as u32);
            }
        }
        let mut sg = SubGraph {
            id: 0, // assigned by the caller
            globals,
            graph,
            is_boundary,
            boundary,
            alpha: vec![0; ln],
            beta: vec![0; ln],
            gamma: Vec::new(),
            is_whisker: Vec::new(),
            roots: Vec::new(),
            folded_csr: None,
        };
        sg.recompute_whiskers();
        Some(sg)
    }

    /// Cross-checks the maintained decomposition against a fresh
    /// [`decompose`] of `g` (content equivalence of every sub-graph, block
    /// multisets against a fresh Tarjan run, and the store's internal
    /// bookkeeping). `Err` describes the first divergence.
    pub fn verify_against_fresh(&self, g: &Graph) -> Result<(), String> {
        if self.directed {
            return Err("maintained decomposition is undirected-only".to_string());
        }
        let fresh = decompose(g, &self.opts);
        decomp_equivalent(&self.decomp, &fresh)?;

        // Block multisets vs a fresh Tarjan run.
        let und = g.to_undirected();
        let bcc = biconnected_components(&und);
        let mut fresh_blocks: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); bcc.count()];
        for (u, v) in und.undirected_edges() {
            if u == v {
                continue;
            }
            fresh_blocks[bcc.bcc_of_edge(u, v) as usize].push((u.min(v), u.max(v)));
        }
        let mut fresh_keys: Vec<(Vec<VertexId>, Vec<(VertexId, VertexId)>)> = fresh_blocks
            .into_iter()
            .zip(&bcc.bcc_vertices)
            .map(|(mut edges, verts)| {
                edges.sort_unstable();
                let mut vs = verts.clone();
                vs.sort_unstable();
                (vs, edges)
            })
            .collect();
        fresh_keys.sort();
        let mut mine: Vec<(Vec<VertexId>, Vec<(VertexId, VertexId)>)> = (0..self.alive.len())
            .filter(|&b| self.alive[b])
            .map(|b| (self.block_verts[b].clone(), self.block_edges[b].clone()))
            .collect();
        mine.sort();
        if mine.len() != fresh_keys.len() {
            return Err(format!(
                "store holds {} live blocks, fresh Tarjan finds {}",
                mine.len(),
                fresh_keys.len()
            ));
        }
        if mine != fresh_keys {
            return Err("block multiset diverged from a fresh Tarjan run".to_string());
        }

        // Store bookkeeping.
        if self.live_blocks != self.alive.iter().filter(|&&a| a).count() {
            return Err("live block count out of sync".to_string());
        }
        for (v, blocks) in self.blocks_of_vertex.iter().enumerate() {
            if !blocks.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("blocks_of_vertex[{v}] not sorted/unique"));
            }
            for &b in blocks {
                if !self.alive.get(b as usize).copied().unwrap_or(false) {
                    return Err(format!("vertex {v} lists dead block {b}"));
                }
                if self.block_verts[b as usize].binary_search(&(v as VertexId)).is_err() {
                    return Err(format!("vertex {v} lists block {b} which lacks it"));
                }
            }
            let want_art = blocks.len() >= 2;
            if self.decomp.is_articulation[v] != want_art {
                return Err(format!("articulation flag of vertex {v} out of sync"));
            }
        }
        let arts = self.decomp.is_articulation.iter().filter(|&&a| a).count();
        if self.decomp.num_articulation_points() != arts {
            return Err(format!(
                "articulation count {} out of sync with {arts} flags",
                self.decomp.num_articulation_points()
            ));
        }
        for b in 0..self.alive.len() {
            if !self.alive[b] {
                continue;
            }
            for &v in &self.block_verts[b] {
                if self.blocks_of_vertex[v as usize].binary_search(&(b as u32)).is_err() {
                    return Err(format!("block {b} lists vertex {v} which lacks it back"));
                }
            }
        }
        if self.subgraph_blocks.len() != self.decomp.num_subgraphs() {
            return Err("subgraph_blocks length out of sync".to_string());
        }
        let mut owned = 0usize;
        for (s, blocks) in self.subgraph_blocks.iter().enumerate() {
            owned += blocks.len();
            for &b in blocks {
                if !self.alive.get(b as usize).copied().unwrap_or(false) {
                    return Err(format!("sub-graph {s} owns dead block {b}"));
                }
                if self.decomp.subgraph_of_bcc[b as usize] != s as u32 {
                    return Err(format!("subgraph_of_bcc disagrees on block {b}"));
                }
            }
        }
        if owned != self.live_blocks {
            return Err("sub-graph block groups do not partition the live blocks".to_string());
        }
        Ok(())
    }
}

/// Content equivalence of two decompositions of the same graph: identical
/// vertex counts, block counts, articulation flags, and an identical
/// *multiset* of sub-graphs (vertex sets, edge multisets, boundary, α/β/γ,
/// whisker flags, root sets). Sub-graph order and id assignment are allowed
/// to differ — an incrementally maintained decomposition keeps survivors'
/// indices while a fresh run numbers by Tarjan discovery order.
pub fn decomp_equivalent(a: &Decomposition, b: &Decomposition) -> Result<(), String> {
    if a.num_vertices != b.num_vertices {
        return Err(format!("vertex counts differ: {} vs {}", a.num_vertices, b.num_vertices));
    }
    if a.num_bccs != b.num_bccs {
        return Err(format!("block counts differ: {} vs {}", a.num_bccs, b.num_bccs));
    }
    if a.is_articulation != b.is_articulation {
        return Err("articulation flags differ".to_string());
    }
    if a.subgraphs.len() != b.subgraphs.len() {
        return Err(format!(
            "sub-graph counts differ: {} vs {}",
            a.subgraphs.len(),
            b.subgraphs.len()
        ));
    }
    type Key = (
        Vec<VertexId>,
        Vec<(u32, u32)>,
        Vec<bool>,
        Vec<u64>,
        Vec<u64>,
        Vec<u32>,
        Vec<bool>,
        Vec<u32>,
        Option<(Vec<usize>, Vec<u32>)>,
    );
    let key = |sg: &SubGraph| -> Key {
        let mut edges: Vec<(u32, u32)> =
            sg.graph.undirected_edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
        edges.sort_unstable();
        (
            sg.globals.clone(),
            edges,
            sg.is_boundary.clone(),
            sg.alpha.clone(),
            sg.beta.clone(),
            sg.gamma.clone(),
            sg.is_whisker.clone(),
            sg.roots.clone(),
            sg.folded_csr.as_ref().map(|c| (c.offsets().to_vec(), c.targets().to_vec())),
        )
    };
    let mut ka: Vec<Key> = a.subgraphs.iter().map(key).collect();
    let mut kb: Vec<Key> = b.subgraphs.iter().map(key).collect();
    ka.sort();
    kb.sort();
    for (x, y) in ka.iter().zip(&kb) {
        if x != y {
            return Err(format!(
                "sub-graph mismatch: first divergence at globals {:?} vs {:?}",
                &x.0[..x.0.len().min(8)],
                &y.0[..y.0.len().min(8)]
            ));
        }
    }
    let top = |d: &Decomposition| d.subgraphs.get(d.top_subgraph).map(|sg| sg.num_vertices());
    if top(a) != top(b) {
        return Err("top sub-graph sizes differ".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_graph::generators;

    /// Mirror of the graph under the edits, for fresh cross-checks.
    struct Harness {
        m: MaintainedDecomposition,
        edges: BTreeSet<(VertexId, VertexId)>,
        n: usize,
    }

    impl Harness {
        fn new(g: &Graph, threshold: usize) -> Self {
            let opts = PartitionOptions { merge_threshold: threshold, ..Default::default() };
            let edges: BTreeSet<(VertexId, VertexId)> =
                g.undirected_edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
            Harness { m: MaintainedDecomposition::new(g, &opts), edges, n: g.num_vertices() }
        }

        fn graph(&self) -> Graph {
            let edges: Vec<(VertexId, VertexId)> = self.edges.iter().copied().collect();
            Graph::undirected_from_edges(self.n, &edges)
        }

        /// Applies the batch, cross-checks against fresh `decompose`, and
        /// returns the outcome.
        fn apply(&mut self, edits: &[EdgeEdit]) -> MaintainOutcome {
            for e in edits {
                let key = (e.u.min(e.v), e.u.max(e.v));
                if e.add {
                    assert!(self.edges.insert(key), "test edit adds existing edge");
                } else {
                    assert!(self.edges.remove(&key), "test edit removes missing edge");
                }
                self.n = self.n.max(e.u.max(e.v) as usize + 1);
            }
            let out = self.m.apply_edits(self.n, edits).expect("maintainable batch");
            self.m.verify_against_fresh(&self.graph()).expect("maintained == fresh");
            out
        }
    }

    fn add(u: VertexId, v: VertexId) -> EdgeEdit {
        EdgeEdit { add: true, u, v }
    }
    fn rem(u: VertexId, v: VertexId) -> EdgeEdit {
        EdgeEdit { add: false, u, v }
    }

    /// Two K4 blocks sharing articulation vertex 3, a whisker on each side.
    fn double_clique() -> Graph {
        Graph::undirected_from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (3, 6),
                (4, 5),
                (4, 6),
                (5, 6),
                (0, 7),
                (6, 8),
            ],
        )
    }

    #[test]
    fn chord_removal_patches_in_place() {
        let mut h = Harness::new(&double_clique(), 0);
        let before = h.m.decomp().num_subgraphs();
        // K4 minus one chord is still biconnected on the same vertex set.
        let out = h.apply(&[rem(1, 2)]);
        assert!(!out.stats.spliced);
        assert_eq!(out.stats.patched_edits, 1);
        assert_eq!(h.m.decomp().num_subgraphs(), before);
        assert!(!out.indices_changed);
        assert_eq!(out.dirty.len(), 1);
        // And back.
        let out = h.apply(&[add(1, 2)]);
        assert!(!out.stats.spliced);
    }

    #[test]
    fn block_split_is_spliced() {
        let mut h = Harness::new(&double_clique(), 0);
        // Removing two chords leaves 0-1-3-2-0 minus (1,2)... take the K4
        // down to a path: block splits, vertex set shrinks per block.
        let out = h.apply(&[rem(1, 2), rem(0, 3), rem(1, 3)]);
        assert!(out.stats.spliced);
        assert!(out.stats.blocks_added >= 2);
    }

    #[test]
    fn bridge_add_merges_path_blocks() {
        let mut h = Harness::new(&double_clique(), 0);
        // Whisker tips 7 (on clique A) and 8 (on clique B): the fundamental
        // cycle runs through both cliques — everything merges into one block.
        let out = h.apply(&[add(7, 8)]);
        assert!(out.stats.spliced);
        assert_eq!(out.stats.blocks_added, 1);
        assert_eq!(out.stats.blocks_removed, 4);
        // And removing it splits the single block back apart.
        let out = h.apply(&[rem(7, 8)]);
        assert!(out.stats.spliced);
        assert_eq!(out.stats.blocks_removed, 1);
        assert_eq!(out.stats.blocks_added, 4);
    }

    #[test]
    fn whisker_toggle_and_component_bridge() {
        let mut h = Harness::new(&double_clique(), 0);
        // Detach whisker 7 -> vertex 7 isolated (component split).
        let out = h.apply(&[rem(0, 7)]);
        assert!(out.stats.spliced);
        // Reattach to a different host: component-bridging addition.
        let out = h.apply(&[add(5, 7)]);
        assert!(out.stats.spliced);
        assert_eq!(out.stats.blocks_added, 1);
    }

    #[test]
    fn mixed_batch_patches_chords_and_splices_bridge() {
        let mut h = Harness::new(&double_clique(), 0);
        let out = h.apply(&[rem(1, 2), add(7, 8), rem(4, 5)]);
        assert!(out.stats.spliced);
        assert_eq!(out.stats.patched_edits, 2, "both chord removals patch in place");
        assert_eq!(out.stats.structural_edits, 1);
    }

    #[test]
    fn vertex_growth_without_edits_is_noop() {
        let mut h = Harness::new(&double_clique(), 0);
        h.n += 3;
        let out = h.m.apply_edits(h.n, &[]).expect("growth");
        assert!(out.dirty.is_empty());
        assert!(!out.indices_changed);
        h.m.verify_against_fresh(&h.graph()).expect("fresh after growth");
        // New vertex can then be wired in.
        let out = h.apply(&[add(9, 0)]);
        assert!(out.stats.spliced);
    }

    #[test]
    fn net_cancelling_edits_change_nothing() {
        let mut h = Harness::new(&double_clique(), 0);
        let fp_before: Vec<u64> =
            h.m.decomp().subgraphs.iter().map(|sg| sg.fingerprint()).collect();
        let out = h.apply(&[rem(1, 2), add(1, 2)]);
        assert!(!out.stats.spliced);
        assert!(out.dirty.is_empty());
        let fp_after: Vec<u64> = h.m.decomp().subgraphs.iter().map(|sg| sg.fingerprint()).collect();
        assert_eq!(fp_before, fp_after);
    }

    #[test]
    fn two_component_bridges_bail() {
        let g = Graph::undirected_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut m = MaintainedDecomposition::new(&g, &PartitionOptions::default());
        let err = m.apply_edits(6, &[add(0, 3), add(2, 5)]).unwrap_err();
        assert!(err.contains("component-bridging"), "{err}");
    }

    #[test]
    fn directed_stores_bail() {
        let g = generators::rmat_directed(5, 3, 7);
        let n = g.num_vertices();
        let mut m = MaintainedDecomposition::new(&g, &PartitionOptions::default());
        assert!(m.apply_edits(n, &[add(0, 1)]).is_err());
    }

    #[test]
    fn contributions_survive_by_index() {
        // A structural edit inside clique B must keep clique A's sub-graph
        // at a live index (old_to_new maps it) and not mark it dirty.
        let mut h = Harness::new(&double_clique(), 0);
        let a_old =
            h.m.decomp()
                .subgraphs
                .iter()
                .position(|sg| sg.contains(0) && sg.contains(1))
                .expect("clique A sub-graph");
        // Split block B into triangle {3,4,5} + bridge (5,6). The piece at
        // articulation vertex 3 keeps size 3, so the top group — clique A
        // plus its whisker — is byte-identical and A's sub-graph survives.
        let out = h.apply(&[rem(3, 6), rem(4, 6)]);
        assert!(out.stats.spliced);
        let a_new = out.old_to_new[a_old].expect("clique A survives") as usize;
        assert!(!out.dirty.contains(&a_new), "clique A untouched: no kernel re-run");
        assert!(h.m.decomp().subgraphs[a_new].contains(1));
    }

    /// A K8 top block {0..7} with a chain of 4-cycles hanging off vertex 7
    /// (B1 = 7..10, B2 = 10..13, B3 = 13..16, B4 = 16..19), whisker tips
    /// 20, 21 on host 18 (in B4) and 22, 23 on host 9 (in B1). With
    /// threshold 16 the whiskers, B4 and B3 fold upwards (sizes 2, 8, 12)
    /// while B2 (16) and B1 (4, under the top) head their own groups.
    fn community_chain() -> Graph {
        let mut edges = Vec::new();
        for u in 0..8 {
            for v in u + 1..8 {
                edges.push((u, v));
            }
        }
        for base in [7, 10, 13, 16] {
            edges.extend([(base, base + 1), (base + 1, base + 2), (base + 2, base + 3)]);
            edges.push((base + 3, base));
        }
        edges.extend([(18, 20), (18, 21), (9, 22), (9, 23)]);
        Graph::undirected_from_edges(24, &edges)
    }

    /// Threshold of [`community_chain`]'s merge layout.
    const CHAIN_THRESHOLD: usize = 16;

    #[test]
    fn whisker_tip_bridge_regroups_locally() {
        let mut h = Harness::new(&community_chain(), CHAIN_THRESHOLD);
        for (a, b) in [(22, 23), (20, 21)] {
            let out = h.apply(&[add(a, b)]);
            assert!(out.stats.spliced && out.stats.local_regroup, "add ({a},{b})");
            assert_eq!((out.stats.blocks_removed, out.stats.blocks_added), (2, 1));
            let out = h.apply(&[rem(a, b)]);
            assert!(out.stats.spliced && out.stats.local_regroup, "remove ({a},{b})");
            assert_eq!((out.stats.blocks_removed, out.stats.blocks_added), (1, 2));
        }
    }

    #[test]
    fn block_splitting_removal_regroups_locally() {
        let mut h = Harness::new(&community_chain(), CHAIN_THRESHOLD);
        // B2 minus one cycle edge is three bridges.
        let out = h.apply(&[rem(11, 12)]);
        assert!(out.stats.spliced && out.stats.local_regroup);
        assert_eq!((out.stats.blocks_removed, out.stats.blocks_added), (1, 3));
        let out = h.apply(&[add(11, 12)]);
        assert!(out.stats.spliced && out.stats.local_regroup);
        assert_eq!((out.stats.blocks_removed, out.stats.blocks_added), (3, 1));
    }

    #[test]
    fn deep_path_merging_add_regroups_locally() {
        let mut h = Harness::new(&community_chain(), CHAIN_THRESHOLD);
        // (11, 14) closes a cycle through B2 and B3: one 7-vertex block,
        // still smaller than the K8 top.
        let out = h.apply(&[add(11, 14)]);
        assert!(out.stats.spliced && out.stats.local_regroup);
        assert_eq!((out.stats.blocks_removed, out.stats.blocks_added), (2, 1));
        let out = h.apply(&[rem(11, 14)]);
        assert!(out.stats.spliced && out.stats.local_regroup);
        assert_eq!((out.stats.blocks_removed, out.stats.blocks_added), (1, 2));
    }

    #[test]
    fn threshold_crossing_propagates_up_the_chain() {
        let mut h = Harness::new(&community_chain(), CHAIN_THRESHOLD);
        let groups = |h: &Harness| h.m.decomp().num_subgraphs();
        let before = groups(&h);
        // The tip bridge trades two folded whiskers (4) for a folded
        // triangle (3): B4, B3 and B2 each lose one, which takes B2 from 16
        // to 15 — under the threshold — so B2 now folds into B1.
        let out = h.apply(&[add(20, 21)]);
        assert!(out.stats.local_regroup);
        assert!(out.stats.ancestors_walked >= 2, "walked {}", out.stats.ancestors_walked);
        assert_eq!(groups(&h), before - 1, "B2's group folded into B1's");
        let out = h.apply(&[rem(20, 21)]);
        assert!(out.stats.local_regroup);
        assert!(out.stats.ancestors_walked >= 2, "walked {}", out.stats.ancestors_walked);
        assert_eq!(groups(&h), before);
    }

    #[test]
    fn new_canonical_top_falls_back_to_full_merge() {
        let mut h = Harness::new(&community_chain(), CHAIN_THRESHOLD);
        // (8, 17) fuses B1..B4 into one 13-vertex block, larger than the
        // K8 top; removing it again kills that top.
        let out = h.apply(&[add(8, 17)]);
        assert!(out.stats.spliced && !out.stats.local_regroup);
        let out = h.apply(&[rem(8, 17)]);
        assert!(out.stats.spliced && !out.stats.local_regroup);
        // Re-seeded caches carry the next local regroup.
        let out = h.apply(&[add(22, 23)]);
        assert!(out.stats.local_regroup);
    }

    #[test]
    fn random_edit_streams_match_fresh() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let g = generators::whiskered_community(&generators::WhiskeredCommunityParams {
                core_vertices: 24,
                core_attach: 2,
                community_count: 4,
                community_size: 7,
                community_density: 1.7,
                whiskers: 14,
                seed,
            });
            let mut h = Harness::new(&g, 4);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA9C3);
            for _ in 0..30 {
                let n = h.n as u32;
                let mut batch = Vec::new();
                for _ in 0..rng.gen_range(1..=3usize) {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    let present = h.edges.contains(&key);
                    // Skip edits that collide with earlier edits in the
                    // batch (the harness mirror applies them eagerly).
                    if batch.iter().any(|e: &EdgeEdit| (e.u.min(e.v), e.u.max(e.v)) == key) {
                        continue;
                    }
                    batch.push(EdgeEdit { add: !present, u, v });
                }
                if batch.is_empty() {
                    continue;
                }
                // Pre-apply to the mirror to decide whether this batch would
                // bail (two component bridges); if so, skip it here — the
                // engine-level tests cover the rebuild fallback.
                let mut mirror = h.edges.clone();
                let mut ok = true;
                for e in &batch {
                    let key = (e.u.min(e.v), e.u.max(e.v));
                    if e.add {
                        ok &= mirror.insert(key);
                    } else {
                        ok &= mirror.remove(&key);
                    }
                }
                assert!(ok, "batch internally consistent");
                match h.m.apply_edits(h.n, &batch) {
                    Ok(_) => {
                        h.edges = mirror;
                        h.m.verify_against_fresh(&h.graph()).expect("maintained == fresh");
                    }
                    Err(e) => {
                        assert!(e.contains("component-bridging"), "unexpected bail: {e}");
                        // Rebuild fallback: reseed and continue the stream.
                        h.edges = mirror;
                        let g2 = h.graph();
                        let opts = h.m.options().clone();
                        h.m = MaintainedDecomposition::new(&g2, &opts);
                    }
                }
            }
        }
    }
}
