//! The chunked copy-on-write graph: base CSR adjacency split into
//! fixed-arity vertex chunks behind `Arc`s, with a thin sorted add/remove
//! arc delta per chunk.
//!
//! Invariants (per chunk):
//! * base rows are sorted ascending, without duplicates or self-loops
//!   ([`CowGraph::from_graph`] normalizes, compaction merges in order),
//! * `added` and `removed` are sorted by `(local, target)` and disjoint,
//! * `added` arcs are absent from the base CSR, `removed` arcs present,
//! * undirected graphs store every edge as two arcs (one in each
//!   endpoint's chunk), exactly like the CSR they mirror.
//!
//! Mutations copy only the chunk(s) of the edited endpoints (and only when
//! the chunk is shared with a live snapshot — `Arc::make_mut`); a snapshot
//! ([`CowGraph::view`]) is O(#chunks) pointer clones.

use std::collections::HashSet;
use std::sync::Arc;

use apgre_graph::{Graph, VertexId};

/// Vertices per adjacency chunk. Fixed arity keeps `vertex -> chunk` a
/// shift and bounds the deep-copy a single edit can trigger.
pub const GRAPH_CHUNK_SIZE: usize = 1024;
const CHUNK_BITS: u32 = GRAPH_CHUNK_SIZE.trailing_zeros();

/// Per-chunk delta budget: past this many outstanding add/remove arcs the
/// chunk folds its deltas into the base CSR on the next mutation. The
/// budget trades merge work per read (deltas scanned on every `neighbors`)
/// against compaction churn; 256 keeps the delta scan trivially small next
/// to a 1024-vertex base segment.
const COMPACT_BUDGET: usize = 256;

/// One chunk of adjacency: base CSR rows for `len` consecutive vertices
/// starting at `first`, plus the outstanding arc deltas.
#[derive(Clone, Debug)]
struct AdjChunk {
    /// First vertex id covered by this chunk.
    first: VertexId,
    /// Vertices covered (the tail chunk may be partial).
    len: u32,
    /// CSR row offsets into `targets`; `len + 1` entries.
    offsets: Vec<u32>,
    /// Base arc targets, each row sorted ascending.
    targets: Vec<VertexId>,
    /// Arcs added since the last compaction, sorted by `(local, target)`.
    added: Vec<(u32, VertexId)>,
    /// Base arcs removed since the last compaction, sorted likewise.
    removed: Vec<(u32, VertexId)>,
}

/// The delta entries of one local vertex (both delta lists are sorted by
/// `(local, target)`, so the row is a contiguous range).
fn delta_row(list: &[(u32, VertexId)], local: u32) -> &[(u32, VertexId)] {
    let lo = list.partition_point(|&(l, _)| l < local);
    let hi = lo + list[lo..].partition_point(|&(l, _)| l == local);
    &list[lo..hi]
}

impl AdjChunk {
    fn empty(first: VertexId) -> Self {
        AdjChunk {
            first,
            len: 0,
            offsets: vec![0],
            targets: Vec::new(),
            added: Vec::new(),
            removed: Vec::new(),
        }
    }

    fn base_row(&self, local: u32) -> &[VertexId] {
        let lo = self.offsets[local as usize] as usize;
        let hi = self.offsets[local as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    fn degree(&self, local: u32) -> usize {
        self.base_row(local).len() + delta_row(&self.added, local).len()
            - delta_row(&self.removed, local).len()
    }

    /// Whether the arc `first + local -> v` is present: a pending removal
    /// wins, then a pending addition, then the (sorted) base row.
    fn has_arc(&self, local: u32, v: VertexId) -> bool {
        if self.removed.binary_search(&(local, v)).is_ok() {
            return false;
        }
        self.added.binary_search(&(local, v)).is_ok()
            || self.base_row(local).binary_search(&v).is_ok()
    }

    fn neighbors(&self, local: u32) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.degree(local));
        self.merge_row(local, &mut out);
        out
    }

    /// Appends the merged adjacency row to `out`: base minus `removed`
    /// plus `added`, ascending like the base row it merges into.
    fn merge_row(&self, local: u32, out: &mut Vec<VertexId>) {
        let base = self.base_row(local);
        let add = delta_row(&self.added, local);
        let rem = delta_row(&self.removed, local);
        if add.is_empty() && rem.is_empty() {
            out.extend_from_slice(base);
            return;
        }
        let mut ai = 0;
        let mut ri = 0;
        for &t in base {
            if ri < rem.len() && rem[ri].1 == t {
                ri += 1;
                continue;
            }
            while ai < add.len() && add[ai].1 < t {
                out.push(add[ai].1);
                ai += 1;
            }
            out.push(t);
        }
        while ai < add.len() {
            out.push(add[ai].1);
            ai += 1;
        }
    }

    fn arc_count(&self) -> usize {
        self.targets.len() + self.added.len() - self.removed.len()
    }

    /// Folds the deltas into the base CSR (no-op when there are none).
    fn compact(&mut self) {
        if self.added.is_empty() && self.removed.is_empty() {
            return;
        }
        let mut offsets = Vec::with_capacity(self.len as usize + 1);
        let mut targets = Vec::with_capacity(self.arc_count());
        offsets.push(0u32);
        for local in 0..self.len {
            self.merge_row(local, &mut targets);
            offsets.push(targets.len() as u32);
        }
        self.offsets = offsets;
        self.targets = targets;
        self.added.clear();
        self.removed.clear();
    }
}

/// The mutable, chunked copy-on-write graph: the engine's one mutable
/// graph. It decides for itself whether an edit is effective (the
/// [`apgre_graph::GraphOverlay`] contract: self-loops, duplicate adds and
/// missing removes are no-ops that touch no chunk), and keeps vertex id
/// slots stable when a vertex is stripped.
#[derive(Clone, Debug)]
pub struct CowGraph {
    directed: bool,
    num_vertices: usize,
    num_arcs: usize,
    chunks: Vec<Arc<AdjChunk>>,
    /// Chunks mutated since the last [`CowGraph::take_copied`] — exactly
    /// the chunks the next snapshot cannot share with the previous one.
    touched: HashSet<u32>,
}

impl CowGraph {
    /// Builds the chunked representation from a materialized graph,
    /// normalized to the simple graph: parallel arcs collapsed (CSR rows
    /// are sorted, so they are adjacent) and self-loops dropped. For an
    /// already-simple graph this is the identity. Every chunk is new, so
    /// the first snapshot shares nothing.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_vertices();
        let num_chunks = n.div_ceil(GRAPH_CHUNK_SIZE);
        let mut row: Vec<VertexId> = Vec::new();
        let mut chunks = Vec::with_capacity(num_chunks);
        let mut num_arcs = 0;
        for c in 0..num_chunks {
            let first = c * GRAPH_CHUNK_SIZE;
            let len = GRAPH_CHUNK_SIZE.min(n - first);
            let mut chunk = AdjChunk::empty(first as VertexId);
            chunk.len = len as u32;
            for v in first as VertexId..(first + len) as VertexId {
                row.clear();
                row.extend(g.out_neighbors(v).iter().filter(|&&w| w != v));
                row.dedup();
                chunk.targets.extend_from_slice(&row);
                chunk.offsets.push(chunk.targets.len() as u32);
            }
            num_arcs += chunk.targets.len();
            chunks.push(Arc::new(chunk));
        }
        CowGraph {
            directed: g.is_directed(),
            num_vertices: n,
            num_arcs,
            chunks,
            touched: (0..num_chunks as u32).collect(),
        }
    }

    /// Whether the graph is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Edges: arcs for directed graphs, undirected edges otherwise.
    pub fn num_edges(&self) -> usize {
        if self.directed {
            self.num_arcs
        } else {
            self.num_arcs / 2
        }
    }

    /// Outstanding (uncompacted) delta arcs across all chunks.
    pub fn delta_arcs(&self) -> usize {
        self.chunks.iter().map(|c| c.added.len() + c.removed.len()).sum()
    }

    /// Out-neighbours of `v`, ascending (merged base + deltas).
    pub fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let c = (v as usize) >> CHUNK_BITS;
        self.chunks[c].neighbors(v - self.chunks[c].first)
    }

    /// Whether the arc (directed) or edge (undirected) `u -> v` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let c = (u as usize) >> CHUNK_BITS;
        self.chunks[c].has_arc(u - self.chunks[c].first, v)
    }

    fn assert_in_range(&self, u: VertexId, v: VertexId) {
        let n = self.num_vertices;
        assert!((u as usize) < n && (v as usize) < n, "edge ({u}, {v}) out of range (n = {n})");
    }

    fn chunk_mut(&mut self, c: usize) -> &mut AdjChunk {
        self.touched.insert(c as u32);
        Arc::make_mut(&mut self.chunks[c])
    }

    /// Appends an isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.num_vertices as VertexId;
        let c = self.num_vertices >> CHUNK_BITS;
        if c == self.chunks.len() {
            self.chunks.push(Arc::new(AdjChunk::empty((c * GRAPH_CHUNK_SIZE) as VertexId)));
        }
        let chunk = self.chunk_mut(c);
        let end = chunk.offsets[chunk.offsets.len() - 1];
        chunk.offsets.push(end);
        chunk.len += 1;
        self.num_vertices += 1;
        v
    }

    /// Flips the arc `u -> v`: absent to present when `add`, present to
    /// absent otherwise. Undoing a pending delta cancels it instead of
    /// recording the opposite one.
    fn flip_arc(&mut self, u: VertexId, v: VertexId, add: bool) {
        let c = (u as usize) >> CHUNK_BITS;
        let key = (u - self.chunks[c].first, v);
        let chunk = self.chunk_mut(c);
        let (pending, record) = if add {
            (&mut chunk.removed, &mut chunk.added)
        } else {
            (&mut chunk.added, &mut chunk.removed)
        };
        match pending.binary_search(&key) {
            Ok(pos) => {
                pending.remove(pos);
            }
            Err(_) => {
                let pos = record.partition_point(|&r| r < key);
                record.insert(pos, key);
            }
        }
        if chunk.added.len() + chunk.removed.len() > COMPACT_BUDGET {
            chunk.compact();
        }
    }

    /// Flips the edge `u - v` (both arcs when undirected) and the arc count.
    fn flip_edge(&mut self, u: VertexId, v: VertexId, add: bool) {
        self.flip_arc(u, v, add);
        if !self.directed {
            self.flip_arc(v, u, add);
        }
        let arcs = if self.directed { 1 } else { 2 };
        if add {
            self.num_arcs += arcs;
        } else {
            self.num_arcs -= arcs;
        }
    }

    /// Adds the edge `u - v` (arc `u -> v` when directed); undirected
    /// graphs store the arc in both endpoint chunks. Returns `false`
    /// without touching any chunk for self-loops and already-present
    /// edges.
    ///
    /// # Panics
    /// Panics when either endpoint is out of range; grow the graph with
    /// [`CowGraph::add_vertex`] first.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.assert_in_range(u, v);
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.flip_edge(u, v, true);
        true
    }

    /// Removes the edge `u - v` (arc `u -> v` when directed). Returns
    /// `false` without touching any chunk when the edge is absent.
    ///
    /// # Panics
    /// Panics when either endpoint is out of range.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.assert_in_range(u, v);
        if !self.has_edge(u, v) {
            return false;
        }
        self.flip_edge(u, v, false);
        true
    }

    /// Strips every edge incident to `v` and returns them as `(v, w)` for
    /// out-arcs and undirected edges, `(w, v)` for in-arcs. The id slot
    /// stays as an isolated vertex (ids are stable). Directed graphs find
    /// the in-arcs with one scan over every row, O(V + E).
    ///
    /// # Panics
    /// Panics when `v` is out of range.
    pub fn remove_vertex(&mut self, v: VertexId) -> Vec<(VertexId, VertexId)> {
        let n = self.num_vertices;
        assert!((v as usize) < n, "vertex {v} out of range (n = {n})");
        let mut edges: Vec<(VertexId, VertexId)> =
            self.neighbors(v).into_iter().map(|w| (v, w)).collect();
        if self.directed {
            for chunk in &self.chunks {
                let sources = (0..chunk.len).filter(|&local| chunk.has_arc(local, v));
                edges.extend(sources.map(|local| (chunk.first + local, v)));
            }
        }
        for &(a, b) in &edges {
            self.flip_edge(a, b, false);
        }
        edges
    }

    /// Folds every chunk's deltas into its base CSR. Touches (and thus
    /// un-shares) only chunks that actually had deltas.
    pub fn compact(&mut self) {
        for c in 0..self.chunks.len() {
            if !self.chunks[c].added.is_empty() || !self.chunks[c].removed.is_empty() {
                self.chunk_mut(c).compact();
            }
        }
    }

    /// An immutable snapshot view: O(#chunks) `Arc` clones, no adjacency
    /// copied.
    pub fn view(&self) -> GraphView {
        GraphView {
            directed: self.directed,
            num_vertices: self.num_vertices,
            num_arcs: self.num_arcs,
            chunks: self.chunks.clone(),
        }
    }

    /// Publish accounting: `(chunks touched since the last call, total
    /// chunks)`. Touched chunks are exactly those the next
    /// [`view`](CowGraph::view) cannot share with the previous one;
    /// resets the window.
    pub fn take_copied(&mut self) -> (usize, usize) {
        let copied = self.touched.len().min(self.chunks.len());
        self.touched.clear();
        (copied, self.chunks.len())
    }

    /// Cross-checks the chunked representation against a freshly
    /// materialized graph: same CSR offsets and targets (and reverse CSR
    /// for directed graphs). Used by the property tests, which hold an
    /// independent [`apgre_graph::GraphOverlay`] model.
    pub fn verify_against_fresh(&self, fresh: &Graph) -> Result<(), String> {
        let mine = self.view().to_graph();
        if mine.is_directed() != fresh.is_directed() {
            return Err("directedness mismatch".to_owned());
        }
        if mine.num_vertices() != fresh.num_vertices() {
            return Err(format!(
                "vertex count mismatch: cow {} vs fresh {}",
                mine.num_vertices(),
                fresh.num_vertices()
            ));
        }
        if mine.csr().offsets() != fresh.csr().offsets()
            || mine.csr().targets() != fresh.csr().targets()
        {
            return Err("forward CSR mismatch between CowGraph and fresh graph".to_owned());
        }
        if fresh.is_directed()
            && (mine.rev_csr().offsets() != fresh.rev_csr().offsets()
                || mine.rev_csr().targets() != fresh.rev_csr().targets())
        {
            return Err("reverse CSR mismatch between CowGraph and fresh graph".to_owned());
        }
        Ok(())
    }
}

/// An immutable, `Send + Sync` snapshot of a [`CowGraph`]: shares every
/// chunk with the store (and with other views) by `Arc`. Mirrors the
/// read-side surface of [`apgre_graph::Graph`] that the query service
/// needs; [`GraphView::to_graph`] materializes a real CSR when one is
/// required (rebuilds, checkpoints).
#[derive(Clone, Debug)]
pub struct GraphView {
    directed: bool,
    num_vertices: usize,
    num_arcs: usize,
    chunks: Vec<Arc<AdjChunk>>,
}

impl GraphView {
    /// Whether the graph is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Edges: arcs for directed graphs, undirected edges otherwise.
    pub fn num_edges(&self) -> usize {
        if self.directed {
            self.num_arcs
        } else {
            self.num_arcs / 2
        }
    }

    /// Out-neighbours of `v`, merged from the chunk's base row and deltas.
    pub fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let c = (v as usize) >> CHUNK_BITS;
        self.chunks[c].neighbors(v - self.chunks[c].first)
    }

    /// Adjacency chunks backing this view.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Whether this view and `other` share the backing storage of the
    /// chunk covering vertex `v` (test/metrics introspection).
    pub fn shares_chunk(&self, other: &GraphView, v: VertexId) -> bool {
        let c = (v as usize) >> CHUNK_BITS;
        match (self.chunks.get(c), other.chunks.get(c)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Materializes a real CSR [`Graph`]: the engine's seed and rebuild
    /// path, `DynamicBc::current_graph` and checkpoints all read the graph
    /// through here. Rows go through [`Graph::undirected_from_edges`] or
    /// [`Graph::directed_from_edges`], which sort every row, so the result
    /// is CSR-identical to any other materialization of the same edge set
    /// (the property tests compare it with `GraphOverlay::to_graph`).
    pub fn to_graph(&self) -> Graph {
        let mut arcs: Vec<(VertexId, VertexId)> =
            Vec::with_capacity(if self.directed { self.num_arcs } else { self.num_arcs / 2 });
        let mut row: Vec<VertexId> = Vec::new();
        for chunk in &self.chunks {
            for local in 0..chunk.len {
                let u = chunk.first + local;
                row.clear();
                chunk.merge_row(local, &mut row);
                // Undirected rows hold both arcs of an edge; the
                // symmetrizer wants each edge once.
                arcs.extend(row.iter().filter(|&&t| self.directed || u < t).map(|&t| (u, t)));
            }
        }
        if self.directed {
            Graph::directed_from_edges(self.num_vertices, &arcs)
        } else {
            Graph::undirected_from_edges(self.num_vertices, &arcs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::undirected_from_edges(n, &edges)
    }

    #[test]
    fn round_trip_is_csr_identical() {
        let g = path(10);
        let cow = CowGraph::from_graph(&g);
        cow.verify_against_fresh(&g).expect("round trip");
        assert_eq!(cow.num_vertices(), 10);
        assert_eq!(cow.num_edges(), 9);
        assert_eq!(cow.neighbors(1), vec![0, 2]);
    }

    #[test]
    fn edits_merge_into_reads_and_to_graph() {
        let g = path(6);
        let mut cow = CowGraph::from_graph(&g);
        cow.take_copied();
        cow.add_edge(0, 3);
        cow.remove_edge(1, 2);
        assert_eq!(cow.neighbors(0), vec![1, 3]);
        assert_eq!(cow.neighbors(1), vec![0]);
        assert_eq!(cow.num_edges(), 5);
        let fresh = Graph::undirected_from_edges(6, &[(0, 1), (0, 3), (2, 3), (3, 4), (4, 5)]);
        cow.verify_against_fresh(&fresh).expect("delta merge");
    }

    #[test]
    fn add_then_remove_cancels_and_reverse() {
        let g = path(4);
        let mut cow = CowGraph::from_graph(&g);
        cow.add_edge(0, 2);
        cow.remove_edge(0, 2);
        assert_eq!(cow.delta_arcs(), 0, "add then remove cancels");
        cow.remove_edge(0, 1);
        cow.add_edge(0, 1);
        assert_eq!(cow.delta_arcs(), 0, "remove then re-add cancels");
        cow.verify_against_fresh(&g).expect("back to start");
    }

    #[test]
    fn views_share_untouched_chunks() {
        // Two chunks: 1500 vertices.
        let g = path(1500);
        let mut cow = CowGraph::from_graph(&g);
        let (copied, total) = cow.take_copied();
        assert_eq!((copied, total), (2, 2), "initial build copies everything");
        let before = cow.view();
        cow.add_edge(0, 2); // both endpoints in chunk 0
        let after = cow.view();
        assert!(before.shares_chunk(&after, 1400), "chunk 1 untouched");
        assert!(!before.shares_chunk(&after, 0), "chunk 0 copied");
        assert_eq!(cow.take_copied(), (1, 2));
        assert_eq!(before.neighbors(0), vec![1], "old view unaffected");
        assert_eq!(after.neighbors(0), vec![1, 2]);
    }

    #[test]
    fn compaction_preserves_the_graph() {
        let g = path(8);
        let mut cow = CowGraph::from_graph(&g);
        cow.add_edge(0, 4);
        cow.remove_edge(2, 3);
        assert!(cow.delta_arcs() > 0);
        cow.compact();
        assert_eq!(cow.delta_arcs(), 0);
        let fresh = Graph::undirected_from_edges(
            8,
            &[(0, 1), (0, 4), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)],
        );
        cow.verify_against_fresh(&fresh).expect("post-compact");
    }

    #[test]
    fn auto_compaction_bounds_deltas() {
        // A star big enough to overflow one chunk's delta budget.
        let g = Graph::undirected_from_edges(600, &[(0, 1)]);
        let mut cow = CowGraph::from_graph(&g);
        for v in 2..600u32 {
            cow.add_edge(0, v);
        }
        assert!(
            cow.delta_arcs() <= 2 * (COMPACT_BUDGET + 1),
            "deltas stay bounded: {}",
            cow.delta_arcs()
        );
        let edges: Vec<(u32, u32)> = (1..600u32).map(|v| (0, v)).collect();
        cow.verify_against_fresh(&Graph::undirected_from_edges(600, &edges)).expect("star");
    }

    #[test]
    fn vertex_growth_spans_chunks() {
        let g = path(GRAPH_CHUNK_SIZE); // exactly one full chunk
        let mut cow = CowGraph::from_graph(&g);
        let v = cow.add_vertex();
        assert_eq!(v as usize, GRAPH_CHUNK_SIZE);
        assert_eq!(cow.view().num_chunks(), 2, "growth opened a new chunk");
        cow.add_edge(v, 0);
        assert_eq!(cow.neighbors(v), vec![0]);
        let mut edges: Vec<(u32, u32)> =
            (0..GRAPH_CHUNK_SIZE as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((v, 0));
        cow.verify_against_fresh(&Graph::undirected_from_edges(GRAPH_CHUNK_SIZE + 1, &edges))
            .expect("grown");
    }

    #[test]
    fn ineffective_edits_return_false_and_touch_nothing() {
        let mut cow = CowGraph::from_graph(&path(4));
        cow.take_copied();
        assert!(!cow.add_edge(1, 2), "duplicate add");
        assert!(!cow.add_edge(2, 1), "mirrored duplicate add");
        assert!(!cow.add_edge(3, 3), "self-loop");
        assert!(!cow.remove_edge(0, 3), "missing remove");
        assert_eq!(cow.take_copied(), (0, 1), "no-ops copy no chunk");
        assert!(cow.remove_edge(2, 1) && !cow.has_edge(1, 2));
        assert!(cow.add_edge(1, 2) && cow.has_edge(2, 1));
        assert!(cow.remove_vertex(3) == vec![(3, 2)] && cow.remove_vertex(3).is_empty());
        assert_eq!(cow.num_vertices(), 4, "the stripped slot stays");
    }

    #[test]
    fn directed_remove_vertex_strips_in_and_out_arcs() {
        let g = Graph::directed_from_edges(4, &[(0, 1), (1, 2), (2, 1), (3, 1)]);
        let mut cow = CowGraph::from_graph(&g);
        assert_eq!(cow.remove_vertex(1), vec![(1, 2), (0, 1), (2, 1), (3, 1)]);
        assert_eq!(cow.num_edges(), 0);
        cow.verify_against_fresh(&Graph::directed_from_edges(4, &[])).expect("stripped");
    }

    #[test]
    fn directed_reset_reproduces_csr() {
        let g = Graph::directed_from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 1), (2, 4)]);
        let cow = CowGraph::from_graph(&g);
        assert!(cow.is_directed());
        assert_eq!(cow.num_edges(), 5);
        cow.verify_against_fresh(&g).expect("directed round trip");
    }
}
