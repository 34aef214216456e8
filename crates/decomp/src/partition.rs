//! Graph partition through articulation points — the paper's Algorithm 1
//! (`GRAPHPARTITION`).
//!
//! The graph's biconnected components form a tree (per connected component).
//! Starting from the largest BCC (`topBCC`), a DFS over that tree merges
//! small BCCs into their parents — "effectively recognize common sub-DAGs,
//! merge small adjacent sub-graphs for large granularity, and minimize the
//! amount of articulation points" — and every surviving merged group becomes
//! one [`SubGraph`] with its own local CSR, boundary articulation set
//! `A_sgi`, root set `R_sgi` and whisker counts `γ_SGi`.
//!
//! Deviation from the paper as printed: the paper runs one DFS from the
//! global `topBCC` and sweeps all BCCs it never reached (other connected
//! components) into a single leftover sub-graph (Algorithm 1 lines 26–32).
//! We instead run the same procedure **per connected component**, which is
//! strictly more faithful to the algorithm's intent (the leftover sub-graph
//! would silently forgo redundancy elimination in its components) and makes
//! the decomposition exact on disconnected inputs.

use crate::alpha_beta::{self, AlphaBetaMethod};
use crate::bcc::{biconnected_components, BccResult};
use crate::block_cut_tree::BlockCutTree;
use crate::subgraph::SubGraph;
use apgre_graph::{Graph, VertexId};

const NIL: u32 = u32::MAX;

/// Options for [`decompose`].
#[derive(Clone, Debug)]
pub struct PartitionOptions {
    /// BCCs with fewer accumulated vertices than this merge into their
    /// parent BCC (the paper's `THRESHOLD`). Higher values mean fewer, larger
    /// sub-graphs.
    pub merge_threshold: usize,
    /// How `α`/`β` are computed.
    pub alpha_beta: AlphaBetaMethod,
    /// Collapse every connected component into a single sub-graph (disables
    /// the partial-redundancy elimination entirely while keeping the whisker
    /// folding). Used by the γ-vs-partial ablation.
    pub merge_all: bool,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            merge_threshold: 32,
            alpha_beta: AlphaBetaMethod::Auto,
            merge_all: false,
        }
    }
}

/// Wall-clock timings of the decomposition phases (Figure 8's first two
/// bars: graph partition and α/β counting).
#[derive(Clone, Copy, Debug, Default)]
pub struct DecompTimings {
    /// BCC finding + merging + sub-graph construction (Algorithm 1).
    pub partition: std::time::Duration,
    /// α/β counting (§4 step 2).
    pub alpha_beta: std::time::Duration,
}

/// The decomposed graph: sub-graphs connected through articulation points.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Vertex count of the parent graph.
    pub num_vertices: usize,
    /// Global articulation flags (of the undirected structure).
    pub is_articulation: Vec<bool>,
    /// Number of `true` flags in `is_articulation`, kept wherever a flag
    /// flips so reports need not rescan them.
    pub(crate) articulation_count: usize,
    /// The sub-graphs, in creation order.
    pub subgraphs: Vec<SubGraph>,
    /// Index of the largest sub-graph (the paper's "top sub-graph").
    pub top_subgraph: usize,
    /// Sub-graph id owning each BCC.
    pub subgraph_of_bcc: Vec<u32>,
    /// Number of biconnected components found.
    pub num_bccs: usize,
    /// Phase timings.
    pub timings: DecompTimings,
}

impl Decomposition {
    /// Total number of sub-graphs (`#SG` in Table 4).
    pub fn num_subgraphs(&self) -> usize {
        self.subgraphs.len()
    }

    /// Number of articulation points (`true` entries of
    /// [`Decomposition::is_articulation`]).
    pub fn num_articulation_points(&self) -> usize {
        self.articulation_count
    }

    /// Sub-graphs sorted by vertex count, descending (Table 4 reports the
    /// top three).
    pub fn subgraphs_by_size(&self) -> Vec<&SubGraph> {
        let mut v: Vec<&SubGraph> = self.subgraphs.iter().collect();
        v.sort_by_key(|sg| std::cmp::Reverse((sg.num_vertices(), sg.num_edges())));
        v
    }

    /// Reverts the total-redundancy optimization: every whisker becomes its
    /// own root again and all `γ` counts drop to zero. The BC kernels then
    /// sweep every vertex, isolating the partial-redundancy elimination —
    /// the other half of the γ-vs-partial ablation. With no whisker left,
    /// the whisker-free sweep layout goes too.
    pub fn unfold_whiskers(&mut self) {
        for sg in &mut self.subgraphs {
            sg.gamma.fill(0);
            sg.is_whisker.fill(false);
            sg.roots = (0..sg.num_vertices() as u32).collect();
            sg.folded_csr = None;
        }
    }

    /// Structural invariant check used by tests; returns a description of the
    /// first violation.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        let n = g.num_vertices();
        // 1. Edges are partitioned: every edge in exactly one sub-graph.
        //    Self-loops never lie on a shortest path, so sub-graph
        //    construction drops them — exclude them from the global count.
        let self_loops = g.vertices().filter(|&v| g.out_neighbors(v).contains(&v)).count();
        let global = g.num_edges() - self_loops;
        let total: usize = self.subgraphs.iter().map(|sg| sg.num_edges()).sum();
        if total != global {
            return Err(format!(
                "edge partition: {total} local vs {global} global (excluding {self_loops} \
                 self-loops)"
            ));
        }
        let arts = self.is_articulation.iter().filter(|&&a| a).count();
        if arts != self.articulation_count {
            return Err(format!("articulation count {} vs {arts} flags", self.articulation_count));
        }
        // 2. Vertex coverage: non-isolated vertices in >= 1 sub-graph;
        //    non-articulation vertices in exactly one.
        let mut membership = vec![0u32; n];
        for sg in &self.subgraphs {
            for &v in &sg.globals {
                membership[v as usize] += 1;
            }
        }
        for v in 0..n {
            let deg = g.out_degree(v as VertexId) + g.in_degree(v as VertexId);
            if deg > 0 && membership[v] == 0 {
                return Err(format!("vertex {v} uncovered"));
            }
            if !self.is_articulation[v] && membership[v] > 1 {
                return Err(format!("non-articulation vertex {v} in {} sub-graphs", membership[v]));
            }
        }
        for sg in &self.subgraphs {
            // 3. Boundary points are articulation points present elsewhere.
            for &b in &sg.boundary {
                let gv = sg.global_of(b);
                if !self.is_articulation[gv as usize] {
                    return Err(format!(
                        "boundary {gv} of SG{} is not an articulation point",
                        sg.id
                    ));
                }
                if membership[gv as usize] < 2 {
                    return Err(format!("boundary {gv} of SG{} is in only one sub-graph", sg.id));
                }
            }
            // 4. Roots ∪ whiskers partition the local vertex set.
            let whiskers = sg.is_whisker.iter().filter(|&&w| w).count();
            if whiskers + sg.roots.len() != sg.num_vertices() {
                return Err(format!("SG{}: roots+whiskers != vertices", sg.id));
            }
            // 5. γ mass equals the whisker count.
            let gamma_sum: u64 = sg.gamma.iter().map(|&x| x as u64).sum();
            if gamma_sum != whiskers as u64 {
                return Err(format!("SG{}: γ sum {} != whiskers {}", sg.id, gamma_sum, whiskers));
            }
            // 6. α/β only on boundary points.
            for l in 0..sg.num_vertices() {
                if !sg.is_boundary[l] && (sg.alpha[l] != 0 || sg.beta[l] != 0) {
                    return Err(format!("SG{}: α/β set on non-boundary local {l}", sg.id));
                }
            }
        }
        Ok(())
    }
}

/// Decomposes `g` into sub-graphs connected by articulation points and fills
/// `α`, `β`, `γ`, and the root sets (paper Algorithm 1 + §4 step 2).
pub fn decompose(g: &Graph, opts: &PartitionOptions) -> Decomposition {
    let t0 = std::time::Instant::now();
    let und = g.to_undirected();
    let bcc = biconnected_components(&und);
    let bct = BlockCutTree::build(&bcc);
    let groups = if opts.merge_all {
        merge_all_per_component(&bct)
    } else {
        merge_bccs(&bcc.bcc_vertices, &bct, opts.merge_threshold as u64)
    };

    let num_bccs = bcc.count();
    let mut subgraph_of_bcc = vec![NIL; num_bccs];
    for (gi, group) in groups.iter().enumerate() {
        for &b in group {
            subgraph_of_bcc[b as usize] = gi as u32;
        }
    }
    debug_assert!(subgraph_of_bcc.iter().all(|&x| x != NIL));

    let subgraphs = build_subgraphs(g, &bcc, &bct, &groups, &subgraph_of_bcc);
    let top_subgraph = subgraphs
        .iter()
        .enumerate()
        .max_by_key(|(i, sg)| (sg.num_vertices(), usize::MAX - i))
        .map(|(i, _)| i)
        .unwrap_or(0);

    let partition_time = t0.elapsed();
    let mut decomp = Decomposition {
        num_vertices: g.num_vertices(),
        is_articulation: bcc.is_articulation.clone(),
        articulation_count: bcc.is_articulation.iter().filter(|&&a| a).count(),
        subgraphs,
        top_subgraph,
        subgraph_of_bcc,
        num_bccs,
        timings: DecompTimings::default(),
    };
    let t1 = std::time::Instant::now();
    alpha_beta::fill(g, &mut decomp, &bcc, &bct, opts.alpha_beta);
    decomp.timings = DecompTimings { partition: partition_time, alpha_beta: t1.elapsed() };
    #[cfg(feature = "invariants")]
    crate::invariants::check_decomposition(g, &decomp);
    decomp
}

/// Sub-graph block groups in flattened (CSR-like) form: one contiguous
/// `blocks` array sliced by `off`. A component has tens of thousands of
/// mostly-singleton groups, so per-group `Vec`s would mean tens of thousands
/// of heap allocations on every decomposition *and* every incremental
/// splice — the flat form is two allocations total.
pub(crate) struct BlockGroups {
    off: Vec<u32>,
    blocks: Vec<u32>,
}

impl BlockGroups {
    pub(crate) fn new() -> Self {
        BlockGroups { off: vec![0], blocks: Vec::new() }
    }

    /// Appends block `b` to the group under construction.
    pub(crate) fn push(&mut self, b: u32) {
        self.blocks.push(b);
    }

    pub(crate) fn close_group(&mut self) {
        self.off.push(self.blocks.len() as u32);
    }

    /// Rewrites every block id through `f` (e.g. compact view → store slot).
    pub(crate) fn relabel(&mut self, f: impl Fn(u32) -> u32) {
        for b in &mut self.blocks {
            *b = f(*b);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.off.len() - 1
    }

    pub(crate) fn group(&self, i: usize) -> &[u32] {
        &self.blocks[self.off[i] as usize..self.off[i + 1] as usize]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(move |i| self.group(i))
    }
}

/// One group per connected component (every BCC of a component collapsed
/// together): no boundary articulation points survive, so the BC kernel
/// degrades to whisker-folded Brandes. Ablation support; also reused by the
/// incremental maintainer on its compact per-region block view.
pub(crate) fn merge_all_per_component(bct: &BlockCutTree) -> BlockGroups {
    let nb = bct.num_bccs();
    let total_nodes = nb + bct.num_arts();
    let mut visited = vec![false; total_nodes];
    let mut groups = BlockGroups::new();
    for start in 0..nb as u32 {
        if visited[start as usize] {
            continue;
        }
        let mut queue = std::collections::VecDeque::new();
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(node) = queue.pop_front() {
            if (node as usize) < nb {
                groups.blocks.push(node);
            }
            for &nxt in bct.node_neighbors(node) {
                if !visited[nxt as usize] {
                    visited[nxt as usize] = true;
                    queue.push_back(nxt);
                }
            }
        }
        groups.close_group();
    }
    groups
}

/// Deterministic, content-based top-BCC choice: the largest block of the
/// component, ties broken by the lexicographically smallest *sorted* vertex
/// list. Tarjan emission order must not influence the choice — the
/// incremental maintainer re-runs the merge on blocks indexed by store slot
/// rather than by Tarjan discovery order and has to reproduce the fresh
/// grouping exactly. (Two distinct BCCs share at most one vertex, so equal
/// sorted lists cannot occur and the winner is unique.)
pub(crate) fn canonical_top_bcc<V: AsRef<[VertexId]>>(comp: &[u32], bcc_vertices: &[V]) -> u32 {
    let max_len = comp
        .iter()
        .map(|&b| bcc_vertices[b as usize].as_ref().len())
        .max()
        .expect("component without BCCs");
    let mut best: Option<(Vec<VertexId>, u32)> = None;
    for &b in comp {
        if bcc_vertices[b as usize].as_ref().len() != max_len {
            continue;
        }
        let mut key = bcc_vertices[b as usize].as_ref().to_vec();
        key.sort_unstable();
        match &best {
            Some((bk, _)) if *bk <= key => {}
            _ => best = Some((key, b)),
        }
    }
    best.expect("component without BCCs").1
}

/// Algorithm 1's two merge rules for a group and its parent BCC (the BCC
/// behind its parent articulation point): a below-threshold group folds into
/// a non-top parent; only a trivial (<= 2 vertex) group folds into the top
/// BCC itself. `size` is the group's accumulated size — its own block plus
/// the child groups already folded into it.
#[inline]
pub(crate) fn folds_into_parent(size: u64, parent_is_top: bool, threshold: u64) -> bool {
    if parent_is_top {
        size <= 2
    } else {
        size < threshold
    }
}

/// DFS over the block-cut tree, merging small BCCs into their parents
/// (Algorithm 1 lines 4–24), per connected component, starting from each
/// component's largest BCC.
///
/// Takes the per-block vertex lists (rather than a full [`BccResult`]) so
/// the incremental maintainer can call it on a compact view of the affected
/// components; block ids in the result index `bcc_vertices`.
pub(crate) fn merge_bccs<V: AsRef<[VertexId]>>(
    bcc_vertices: &[V],
    bct: &BlockCutTree,
    threshold: u64,
) -> BlockGroups {
    let nb = bct.num_bccs();
    let total_nodes = nb + bct.num_arts();
    let mut visited = vec![false; total_nodes];
    let mut comp_scratch: Vec<u32> = Vec::new();
    let mut tops: Vec<u32> = Vec::new();
    for start in 0..nb as u32 {
        if visited[start as usize] {
            continue;
        }
        // Collect this tree component's BCC nodes to find its topBCC.
        comp_scratch.clear();
        let mut queue = std::collections::VecDeque::new();
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(node) = queue.pop_front() {
            if (node as usize) < nb {
                comp_scratch.push(node);
            }
            for &nxt in bct.node_neighbors(node) {
                if !visited[nxt as usize] {
                    visited[nxt as usize] = true;
                    queue.push_back(nxt);
                }
            }
        }
        tops.push(canonical_top_bcc(&comp_scratch, bcc_vertices));
    }
    merge_bccs_from_tops(bcc_vertices, bct, threshold, &tops)
}

/// [`merge_bccs`] with the per-component canonical top BCCs already known:
/// skips component discovery entirely. The incremental maintainer caches
/// canonical tops across splices, so its full re-merge fallback (and its
/// invariants cross-check) pays only the merge DFS itself.
pub(crate) fn merge_bccs_from_tops<V: AsRef<[VertexId]>>(
    bcc_vertices: &[V],
    bct: &BlockCutTree,
    threshold: u64,
    tops: &[u32],
) -> BlockGroups {
    let nb = bct.num_bccs();
    let total_nodes = nb + bct.num_arts();
    // Group accumulation as intrusive singly-linked chains over block ids
    // (every chain starts at its own block, so the head IS the block id):
    // merging a child group into its grandparent is an O(1) splice and the
    // emission order matches the former per-block `Vec::extend` exactly.
    let mut tail: Vec<u32> = (0..nb as u32).collect();
    let mut next: Vec<u32> = vec![NIL; nb];
    let mut size: Vec<u64> = bcc_vertices.iter().map(|v| v.as_ref().len() as u64).collect();
    let mut groups = BlockGroups::new();
    let emit = |h: u32, next: &[u32], groups: &mut BlockGroups| {
        let mut cur = h;
        while cur != NIL {
            groups.blocks.push(cur);
            cur = next[cur as usize];
        }
        groups.close_group();
    };

    struct Frame<'a> {
        node: u32,
        parent: u32,
        nbrs: &'a [u32],
        idx: usize,
    }

    let mut in_dfs = vec![false; total_nodes];
    for &top_bcc in tops {
        // Post-order DFS from topBCC with the paper's merge rules.
        let mut stack: Vec<Frame> = Vec::new();
        in_dfs[top_bcc as usize] = true;
        stack.push(Frame { node: top_bcc, parent: NIL, nbrs: bct.node_neighbors(top_bcc), idx: 0 });
        while let Some(top) = stack.last_mut() {
            if top.idx < top.nbrs.len() {
                let nxt = top.nbrs[top.idx];
                top.idx += 1;
                if nxt == top.parent || in_dfs[nxt as usize] {
                    continue;
                }
                in_dfs[nxt as usize] = true;
                let node = top.node;
                stack.push(Frame {
                    node: nxt,
                    parent: node,
                    nbrs: bct.node_neighbors(nxt),
                    idx: 0,
                });
            } else {
                let frame = stack.pop().expect("stack non-empty");
                if (frame.node as usize) >= nb {
                    continue; // articulation node: nothing to merge
                }
                let b = frame.node;
                if b == top_bcc {
                    emit(b, &next, &mut groups);
                    continue;
                }
                // Grandparent BCC through the parent articulation node.
                let art_frame =
                    stack.last().expect("BCC below root must have an articulation parent");
                debug_assert!(art_frame.node as usize >= nb);
                let prev = art_frame.parent;
                debug_assert!((prev as usize) < nb);
                let curr_size = size[b as usize];
                if folds_into_parent(curr_size, prev == top_bcc, threshold) {
                    next[tail[prev as usize] as usize] = b;
                    tail[prev as usize] = tail[b as usize];
                    size[prev as usize] += curr_size;
                } else {
                    emit(b, &next, &mut groups);
                }
            }
        }
    }
    groups
}

/// `BUILDSUBGRAPH`: local CSRs, boundary sets, whiskers, γ, roots.
fn build_subgraphs(
    g: &Graph,
    bcc: &BccResult,
    bct: &BlockCutTree,
    groups: &BlockGroups,
    subgraph_of_bcc: &[u32],
) -> Vec<SubGraph> {
    let n = g.num_vertices();
    let nsg = groups.len();

    // Vertex sets (sorted global ids per sub-graph).
    let mut sg_globals: Vec<Vec<VertexId>> = vec![Vec::new(); nsg];
    let mut stamp = vec![NIL; n];
    for (gi, group) in groups.iter().enumerate() {
        for &b in group {
            for &v in &bcc.bcc_vertices[b as usize] {
                if stamp[v as usize] != gi as u32 {
                    stamp[v as usize] = gi as u32;
                    sg_globals[gi].push(v);
                }
            }
        }
        sg_globals[gi].sort_unstable();
    }

    // Edge assignment: each edge's BCC owns it (paper §3.1 property 4).
    let mut sg_edges: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); nsg];
    if g.is_directed() {
        for (u, v) in g.arcs() {
            if u == v {
                continue; // self-loops never lie on shortest paths
            }
            let b = bcc.bcc_of_edge(u, v);
            sg_edges[subgraph_of_bcc[b as usize] as usize].push((u, v));
        }
    } else {
        for (u, v) in g.undirected_edges() {
            let b = bcc.bcc_of_edge(u, v);
            sg_edges[subgraph_of_bcc[b as usize] as usize].push((u, v));
        }
    }

    let mut local_of = vec![NIL; n];
    let mut subgraphs = Vec::with_capacity(nsg);
    for gi in 0..nsg {
        let globals = std::mem::take(&mut sg_globals[gi]);
        let ln = globals.len();
        for (l, &v) in globals.iter().enumerate() {
            local_of[v as usize] = l as u32;
        }
        let local_edges: Vec<(VertexId, VertexId)> = sg_edges[gi]
            .iter()
            .map(|&(u, v)| (local_of[u as usize], local_of[v as usize]))
            .collect();
        let graph = if g.is_directed() {
            Graph::directed_from_edges(ln, &local_edges)
        } else {
            Graph::undirected_from_edges(ln, &local_edges)
        };

        // Boundary articulation points: articulation points of G whose
        // incident BCCs span more than this sub-graph.
        let mut is_boundary = vec![false; ln];
        let mut boundary = Vec::new();
        for (l, &v) in globals.iter().enumerate() {
            let ai = bct.art_index[v as usize];
            if ai == NIL {
                continue;
            }
            let crosses =
                bct.art_bccs_of(ai).iter().any(|&b| subgraph_of_bcc[b as usize] != gi as u32);
            if crosses {
                is_boundary[l] = true;
                boundary.push(l as u32);
            }
        }

        // Whiskers, γ, and the root set come from the shared whisker rule.
        // Non-boundary vertices have all their global edges inside this
        // sub-graph, so local degrees are global degrees and the rule may
        // read the local graph only.
        let mut sg = SubGraph {
            id: gi,
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
        subgraphs.push(sg);
        for &v in &subgraphs[gi].globals {
            local_of[v as usize] = NIL;
        }
    }
    subgraphs
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_graph::generators;

    fn fig3_undirected() -> Graph {
        Graph::undirected_from_edges(
            13,
            &[
                (0, 2),
                (1, 2),
                (2, 4),
                (2, 5),
                (4, 5),
                (4, 3),
                (5, 3),
                (5, 6),
                (4, 6),
                (3, 6),
                (3, 10),
                (3, 12),
                (10, 12),
                (3, 11),
                (10, 11),
                (6, 7),
                (6, 8),
                (7, 9),
                (8, 9),
            ],
        )
    }

    #[test]
    fn figure3_decomposition_three_subgraphs() {
        // With a threshold that keeps the {3,10,12} triangle and {6,7,8,9}
        // diamond separate, the paper's example decomposes into SG1..SG3
        // with articulation points 3 and 6 on the boundaries; 2's whiskers
        // {0,1} merge into the middle sub-graph.
        let g = fig3_undirected();
        let d = decompose(&g, &PartitionOptions { merge_threshold: 3, ..Default::default() });
        d.validate(&g).unwrap();
        assert_eq!(
            d.num_subgraphs(),
            3,
            "{:?}",
            d.subgraphs.iter().map(|s| s.globals.clone()).collect::<Vec<_>>()
        );
        // Global articulation points: 2, 3, 6.
        let arts: Vec<u32> = (0..13).filter(|&v| d.is_articulation[v as usize]).collect();
        assert_eq!(arts, vec![2, 3, 6]);
        // The middle sub-graph contains {0,1,2,3,4,5,6} and has boundary {3,6}.
        let middle = d.subgraphs.iter().find(|sg| sg.contains(4) && sg.contains(5)).unwrap();
        assert_eq!(middle.globals, vec![0, 1, 2, 3, 4, 5, 6]);
        let bounds: Vec<u32> = middle.boundary.iter().map(|&l| middle.global_of(l)).collect();
        assert_eq!(bounds, vec![3, 6]);
        // Whiskers 0, 1 fold into γ(2) = 2 and leave the root set.
        let l2 = middle.local_of(2).unwrap();
        assert_eq!(middle.gamma[l2 as usize], 2);
        assert!(middle.is_whisker[middle.local_of(0).unwrap() as usize]);
        assert!(middle.is_whisker[middle.local_of(1).unwrap() as usize]);
        assert_eq!(middle.roots.len(), 5);
        // α/β of the boundary points: beyond 3 lies {10,11,12} (α=3); beyond
        // 6 lies {7,8,9} (α=3). β equals α in undirected graphs.
        let l3 = middle.local_of(3).unwrap() as usize;
        let l6 = middle.local_of(6).unwrap() as usize;
        assert_eq!(middle.alpha[l3], 3);
        assert_eq!(middle.beta[l3], 3);
        assert_eq!(middle.alpha[l6], 3);
        assert_eq!(middle.beta[l6], 3);
        // The blob sub-graph {3,10,11,12}: boundary 3 with α = 9 vertices
        // beyond (everything else).
        let tri = d.subgraphs.iter().find(|sg| sg.contains(10)).unwrap();
        assert_eq!(tri.globals, vec![3, 10, 11, 12]);
        let t3 = tri.local_of(3).unwrap() as usize;
        assert_eq!(tri.alpha[t3], 9);
        // The diamond sub-graph {6,7,8,9}: boundary 6 with α = 9.
        let dia = d.subgraphs.iter().find(|sg| sg.contains(9)).unwrap();
        assert_eq!(dia.globals, vec![6, 7, 8, 9]);
        let d6 = dia.local_of(6).unwrap() as usize;
        assert_eq!(dia.alpha[d6], 9);
    }

    #[test]
    fn large_threshold_merges_everything() {
        let g = fig3_undirected();
        let d = decompose(&g, &PartitionOptions { merge_threshold: 100, ..Default::default() });
        d.validate(&g).unwrap();
        // Children of the top BCC merge into it only when they have <= 2
        // vertices (Algorithm 1 line 21), whatever the threshold: the two
        // whisker edges fold into the top sub-graph, while the {3,10,11,12}
        // blob and the {6,7,8,9} diamond stay separate.
        assert_eq!(d.num_subgraphs(), 3);
        let top = &d.subgraphs[d.top_subgraph];
        // Whiskers 0 and 1 still fold.
        assert_eq!(top.gamma.iter().map(|&x| x as u64).sum::<u64>(), 2);
    }

    #[test]
    fn one_big_bcc_degrades_to_single_subgraph() {
        let g = generators::complete(12);
        let d = decompose(&g, &PartitionOptions::default());
        d.validate(&g).unwrap();
        assert_eq!(d.num_subgraphs(), 1);
        assert!(d.subgraphs[0].boundary.is_empty());
        assert_eq!(d.subgraphs[0].roots.len(), 12);
    }

    #[test]
    fn disconnected_graph_per_component() {
        let a = generators::lollipop(5, 10);
        let b = generators::cycle(6);
        let g = generators::disjoint_union(&[&a, &b]);
        let d = decompose(&g, &PartitionOptions { merge_threshold: 4, ..Default::default() });
        d.validate(&g).unwrap();
        assert!(d.num_subgraphs() >= 3);
        // The cycle is untouched and whole.
        let cyc = d.subgraphs.iter().find(|sg| sg.contains(15)).unwrap();
        assert_eq!(cyc.num_vertices(), 6);
        assert!(cyc.boundary.is_empty());
    }

    #[test]
    fn directed_graph_partition_validates() {
        let core = generators::rmat_directed(6, 4, 5);
        let g = generators::attach_directed_whiskers(&core, 30, 0.3, 6);
        let d = decompose(&g, &PartitionOptions::default());
        d.validate(&g).unwrap();
        // Source whiskers fold into γ somewhere.
        let total_gamma: u64 =
            d.subgraphs.iter().flat_map(|sg| sg.gamma.iter()).map(|&x| x as u64).sum();
        assert!(total_gamma > 0);
    }

    #[test]
    fn k2_component_keeps_one_root() {
        let g = Graph::undirected_from_edges(2, &[(0, 1)]);
        let d = decompose(&g, &PartitionOptions::default());
        d.validate(&g).unwrap();
        assert_eq!(d.num_subgraphs(), 1);
        let sg = &d.subgraphs[0];
        assert_eq!(sg.roots, vec![0]);
        assert!(sg.is_whisker[1]);
        assert_eq!(sg.gamma[0], 1);
    }

    #[test]
    fn whisker_free_csr_drops_exactly_the_whisker_arcs() {
        let g = fig3_undirected();
        let mut d = decompose(&g, &PartitionOptions { merge_threshold: 3, ..Default::default() });
        for sg in &d.subgraphs {
            let Some(folded) = &sg.folded_csr else {
                assert!(!sg.is_whisker.contains(&true), "SG{} has whiskers but no fold", sg.id);
                continue;
            };
            // The middle sub-graph: whiskers 0 and 1 and their two edges go.
            assert_eq!(sg.globals, vec![0, 1, 2, 3, 4, 5, 6]);
            let kept: Vec<(u32, u32)> = sg
                .graph
                .csr()
                .edges()
                .filter(|&(u, v)| ![u, v].iter().any(|&x| sg.global_of(x) < 2))
                .collect();
            assert_eq!(folded.edges().collect::<Vec<_>>(), kept);
            assert_eq!(folded.num_edges() + 4, sg.graph.num_arcs());
            assert_eq!(sg.sweep_csr(), folded);
        }
        let k2 = decompose(&Graph::undirected_from_edges(2, &[(0, 1)]), &Default::default());
        assert_eq!(k2.subgraphs[0].sweep_csr().num_edges(), 0);
        d.unfold_whiskers();
        assert!(d.subgraphs.iter().all(|sg| sg.folded_csr.is_none()));
        let dg =
            generators::attach_directed_whiskers(&generators::rmat_directed(6, 4, 5), 30, 0.3, 6);
        let dd = decompose(&dg, &PartitionOptions::default());
        assert!(dd.subgraphs.iter().all(|sg| sg.folded_csr.is_none()));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::undirected_from_edges(0, &[]);
        let d = decompose(&g, &PartitionOptions::default());
        assert_eq!(d.num_subgraphs(), 0);
        d.validate(&g).unwrap();
    }

    #[test]
    fn isolated_vertices_do_not_form_subgraphs() {
        let g = Graph::undirected_from_edges(5, &[(0, 1)]);
        let d = decompose(&g, &PartitionOptions::default());
        d.validate(&g).unwrap();
        assert_eq!(d.num_subgraphs(), 1);
    }

    #[test]
    fn edge_partition_on_random_graphs() {
        for seed in 0..8 {
            let g = generators::gnm_undirected(80, 110, seed);
            let d = decompose(&g, &PartitionOptions { merge_threshold: 6, ..Default::default() });
            d.validate(&g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        for seed in 0..8 {
            let g = generators::gnm_directed(80, 150, seed);
            let d = decompose(&g, &PartitionOptions { merge_threshold: 6, ..Default::default() });
            d.validate(&g).unwrap_or_else(|e| panic!("directed seed {seed}: {e}"));
        }
    }

    #[test]
    fn table4_style_accounting() {
        let g = generators::whiskered_community(&generators::WhiskeredCommunityParams {
            core_vertices: 120,
            core_attach: 3,
            community_count: 10,
            community_size: 12,
            community_density: 1.8,
            whiskers: 60,
            seed: 13,
        });
        let d = decompose(&g, &PartitionOptions { merge_threshold: 8, ..Default::default() });
        d.validate(&g).unwrap();
        let by_size = d.subgraphs_by_size();
        assert!(by_size[0].num_vertices() >= by_size.last().unwrap().num_vertices());
        assert_eq!(by_size[0].id, d.subgraphs[d.top_subgraph].id);
        // The BA core dominates: the top sub-graph holds most core vertices.
        assert!(
            by_size[0].num_vertices() * 2 > 120,
            "top SG too small: {}",
            by_size[0].num_vertices()
        );
    }
}
