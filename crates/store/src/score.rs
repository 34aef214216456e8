//! Per-sub-graph score chunks with a slot-stable layout.
//!
//! The engine's global score vector is the Equation-8 fold of one local
//! contribution vector per sub-graph, added in **ascending sub-graph index
//! order** (the bitwise determinism anchor, DESIGN.md §3.8). This module
//! stores exactly those contributions — one `Arc<[f64]>` span per
//! sub-graph — plus enough indexing to fold any single vertex on demand in
//! the same order:
//!
//! * **Slots.** Sub-graph indices are renumbered by every structural
//!   splice (survivors compact downward, fresh groups append at the tail),
//!   so per-vertex owner entries reference a stable *slot* instead. A
//!   splice then rewrites only the O(S) `order`/`rank` maps, never the
//!   owner entries of untouched vertices.
//! * **Owner index.** `vertex -> [(slot, local)]` lists, chunked
//!   [`INDEX_CHUNK_SIZE`] vertices per `Arc` so a splice replaces only the
//!   chunks containing touched vertices. A replaced chunk recomputes the
//!   touched vertices' lists and copies each run of untouched vertices
//!   between them as one slice: per touched chunk, a slice copy plus work
//!   per touched vertex, not per vertex of the chunk. Entries are
//!   unordered; folds sort the (tiny — one per owning sub-graph) list by
//!   current rank.
//! * **Layers.** Every slot carries one span per [`Layer`] over one slot
//!   map and one owner index: the exact contributions, the sampled
//!   estimates and their squared standard errors. One splice serves both
//!   tiers, and every layer's snapshot shares the index chunks. A splice
//!   allocates placeholders only in the exact layer; the estimator writes
//!   its own layers, so a store whose estimator never ran holds no
//!   estimate spans.
//! * **Fold order.** [`FoldStore::fold_vertex`] and
//!   [`ScoreChunks::score`] start from `0.0` and add owner contributions
//!   in ascending current-index order — the exact float-add sequence of
//!   the full from-zeros refold, hence bitwise-identical results.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use apgre_graph::VertexId;

/// Vertices per owner-index chunk.
pub const INDEX_CHUNK_SIZE: usize = 1024;
const INDEX_CHUNK_BITS: u32 = INDEX_CHUNK_SIZE.trailing_zeros();

/// Owner entries for one run of [`INDEX_CHUNK_SIZE`] consecutive vertices:
/// CSR-style offsets into a flat `(slot, local)` pair list.
#[derive(Clone, Debug)]
struct IndexChunk {
    /// Per-vertex entry ranges; `covered_vertices + 1` offsets. Vertices
    /// past the covered prefix (grown after the chunk was last rebuilt)
    /// implicitly have no entries.
    offsets: Vec<u32>,
    /// `(slot, local)` owner pairs, unordered within a vertex.
    pairs: Vec<(u32, u32)>,
}

impl IndexChunk {
    fn empty() -> Self {
        IndexChunk { offsets: vec![0], pairs: Vec::new() }
    }

    fn entries(&self, local: usize) -> &[(u32, u32)] {
        if local + 1 >= self.offsets.len() {
            return &[];
        }
        &self.pairs[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }

    /// Appends `old`'s entries for its locals `from..to` verbatim: one
    /// `pairs` slice plus its offsets shifted to this chunk's pair count.
    /// Locals past `old`'s covered prefix get no entries.
    fn copy_run(&mut self, old: &IndexChunk, from: usize, to: usize) {
        let end = to.min(old.offsets.len() - 1).max(from);
        if from < end {
            let (lo, hi) = (old.offsets[from], old.offsets[end]);
            let base = self.pairs.len() as u32;
            self.pairs.extend_from_slice(&old.pairs[lo as usize..hi as usize]);
            self.offsets.extend(old.offsets[from + 1..=end].iter().map(|&o| o - lo + base));
        }
        self.offsets.resize(self.offsets.len() + (to - end), self.pairs.len() as u32);
    }
}

/// Folds one vertex's score from its owner entries, in ascending
/// current-index order, starting from `0.0` — the same float-add sequence
/// as the full refold. A vertex with one owner (every vertex but the
/// articulation points) reads its entry in place; only several owners are
/// copied out to be sorted.
fn fold_at(
    index: &[Arc<IndexChunk>],
    rank: &[u32],
    values: &[Option<Arc<[f64]>>],
    v: usize,
) -> f64 {
    let chunk = v >> INDEX_CHUNK_BITS;
    let entries = match index.get(chunk) {
        Some(c) => c.entries(v & (INDEX_CHUNK_SIZE - 1)),
        None => &[],
    };
    let fold = |owners: &[(u32, u32)]| {
        let mut acc = 0.0f64;
        for &(slot, local) in owners {
            if let Some(vals) = &values[slot as usize] {
                acc += vals[local as usize];
            }
        }
        acc
    };
    if entries.len() <= 1 {
        return fold(entries);
    }
    let mut owners = entries.to_vec();
    owners.sort_unstable_by_key(|&(slot, _)| rank[slot as usize]);
    fold(&owners)
}

/// Folds every live span into a `num_vertices`-long vector from zeros, in
/// ascending sub-graph index order (`order` maps index to slot) — the full
/// refold that every [`fold_at`] is bitwise-equal to.
fn fold_all(
    num_vertices: usize,
    order: &[u32],
    globals: &[Option<Arc<[u32]>>],
    values: &[Option<Arc<[f64]>>],
) -> Vec<f64> {
    let mut out = vec![0.0f64; num_vertices];
    for &slot in order {
        if let (Some(globals), Some(values)) = (&globals[slot as usize], &values[slot as usize]) {
            for (local, &v) in globals.iter().enumerate() {
                out[v as usize] += values[local];
            }
        }
    }
    out
}

/// The value layers of a [`FoldStore`] slot. Each layer's span is aligned
/// with the slot's vertex list and folds through the same owner index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The exact Equation-8 contributions. Only this layer's replaced spans
    /// count toward [`FoldStore::take_copied`].
    Exact,
    /// The sampled estimator's scaled sample spans.
    Estimate,
    /// The squared standard errors of the estimate spans (all zero for an
    /// exhaustive draw).
    ErrSq,
}

/// Number of [`Layer`]s.
const LAYERS: usize = 3;

/// The engine-side store: slot-addressed per-sub-graph spans in every
/// [`Layer`], the `index <-> slot` maps, and the chunked per-vertex owner
/// index.
///
/// The engine is the only mutator; [`FoldStore::layer_chunks`] snapshots
/// one layer in O(sub-graphs + vertices/[`INDEX_CHUNK_SIZE`]) `Arc`
/// clones, and every layer's snapshot shares the same index chunks.
#[derive(Debug, Default)]
pub struct FoldStore {
    num_vertices: usize,
    /// Per-slot sub-graph vertex lists (`None` = free slot). Retained for
    /// dead slots' vertices at splice time, so the engine never needs the
    /// pre-splice decomposition.
    globals: Vec<Option<Arc<[u32]>>>,
    /// Per-layer spans, indexed by [`Layer`], each aligned with `globals`.
    layers: [Vec<Option<Arc<[f64]>>>; LAYERS],
    free: Vec<u32>,
    /// Current sub-graph index -> slot (ascending fold order).
    order: Vec<u32>,
    /// Slot -> current sub-graph index (`u32::MAX` when dead).
    rank: Vec<u32>,
    index: Vec<Arc<IndexChunk>>,
    /// Slots with an exact span replaced since the last
    /// [`FoldStore::take_copied`] window; only ever live slots.
    copied: HashSet<u32>,
}

impl FoldStore {
    /// Replaces the whole store from a full set of `(vertex list, exact
    /// contribution)` pairs in sub-graph index order, in O(V). The estimate
    /// layers start empty. This is the from-scratch store
    /// [`FoldStore::verify_against_fresh`] compares against; the engine
    /// itself only ever splices, its seed included (a splice of an empty
    /// store).
    pub fn rebuild(&mut self, num_vertices: usize, subgraphs: Vec<(Arc<[u32]>, Arc<[f64]>)>) {
        let count = subgraphs.len();
        let (globals, values): (Vec<Arc<[u32]>>, Vec<Arc<[f64]>>) = subgraphs.into_iter().unzip();
        for (g, v) in globals.iter().zip(&values) {
            assert_eq!(g.len(), v.len(), "contribution span mismatch");
        }
        self.num_vertices = num_vertices;
        self.free.clear();
        self.order = (0..count as u32).collect();
        self.rank = (0..count as u32).collect();
        self.copied = (0..count as u32).collect();
        let mut entries: Vec<(u32, (u32, u32))> = Vec::new();
        for (slot, g) in globals.iter().enumerate() {
            for (local, &v) in g.iter().enumerate() {
                entries.push((v, (slot as u32, local as u32)));
            }
        }
        self.globals = globals.into_iter().map(Some).collect();
        self.layers =
            [values.into_iter().map(Some).collect(), vec![None; count], vec![None; count]];
        entries.sort_unstable_by_key(|&(v, _)| v);
        let num_chunks = num_vertices.div_ceil(INDEX_CHUNK_SIZE);
        self.index = Vec::with_capacity(num_chunks);
        let mut ei = 0;
        for c in 0..num_chunks {
            let first = c * INDEX_CHUNK_SIZE;
            let len = INDEX_CHUNK_SIZE.min(num_vertices - first);
            let mut chunk = IndexChunk::empty();
            for local in 0..len {
                let v = (first + local) as u32;
                while ei < entries.len() && entries[ei].0 == v {
                    chunk.pairs.push(entries[ei].1);
                    ei += 1;
                }
                chunk.offsets.push(chunk.pairs.len() as u32);
            }
            self.index.push(Arc::new(chunk));
        }
    }

    /// Number of sub-graphs currently stored.
    pub fn num_subgraphs(&self) -> usize {
        self.order.len()
    }

    /// The exact contribution span of sub-graph `index` (current
    /// indexing).
    pub fn values_of(&self, index: usize) -> Arc<[f64]> {
        let span = &self.layers[Layer::Exact as usize][self.order[index] as usize];
        span.clone().unwrap_or_else(|| Arc::from(Vec::new()))
    }

    /// Replaces the exact contribution span of sub-graph `index` (current
    /// indexing) after its kernel re-ran.
    pub fn set_values(&mut self, index: usize, values: Arc<[f64]>) {
        self.set_layer_values(Layer::Exact, index, values);
    }

    /// Replaces the `layer` span of sub-graph `index` (current indexing).
    pub fn set_layer_values(&mut self, layer: Layer, index: usize, values: Arc<[f64]>) {
        let slot = self.order[index] as usize;
        match &self.globals[slot] {
            Some(g) => assert_eq!(g.len(), values.len(), "contribution span mismatch"),
            None => panic!("set_values on a free slot"),
        }
        self.layers[layer as usize][slot] = Some(values);
        if layer == Layer::Exact {
            self.copied.insert(slot as u32);
        }
    }

    /// Applies a structural splice: `old_to_new` maps pre-splice sub-graph
    /// indices to post-splice ones (`None` = dissolved), `new_globals`
    /// lists every post-splice sub-graph's vertex list (only consulted for
    /// fresh ones). Fresh sub-graphs get a zeroed placeholder exact span —
    /// the caller overwrites it via [`FoldStore::set_values`], since every
    /// fresh sub-graph is dirty by construction — and no estimate spans
    /// until the estimator samples them.
    ///
    /// Returns the sorted, deduplicated vertices whose owner set changed
    /// (members of dissolved and fresh sub-graphs); the engine refolds
    /// exactly these into its flat score vector. Every other vertex's fold
    /// input sequence is unchanged: survivors keep their relative order
    /// and unchanged spans, so its folded score is bitwise-stable.
    ///
    /// Cost: O(sub-graphs + touched vertices) plus one rebuild per index
    /// chunk holding a touched vertex, which copies each run of untouched
    /// vertices between two touched ones as a single slice.
    pub fn apply_splice(
        &mut self,
        num_vertices: usize,
        old_to_new: &[Option<u32>],
        new_globals: &[&[u32]],
    ) -> Vec<u32> {
        assert_eq!(old_to_new.len(), self.order.len(), "splice map arity");
        let mut new_order = vec![u32::MAX; new_globals.len()];
        let mut touched: Vec<u32> = Vec::new();
        let mut dead = vec![false; self.globals.len()];

        for (old, &dst) in old_to_new.iter().enumerate() {
            let slot = self.order[old];
            match dst {
                Some(n) => {
                    new_order[n as usize] = slot;
                    debug_assert_eq!(
                        self.globals[slot as usize].as_deref(),
                        Some(new_globals[n as usize]),
                        "survivor {old}->{n} changed its vertex set"
                    );
                }
                None => {
                    dead[slot as usize] = true;
                    if let Some(g) = &self.globals[slot as usize] {
                        touched.extend_from_slice(g);
                    }
                    self.globals[slot as usize] = None;
                    for layer in &mut self.layers {
                        layer[slot as usize] = None;
                    }
                    self.free.push(slot);
                    self.copied.remove(&slot);
                }
            }
        }

        // Fresh owner entries `(vertex, (slot, local))`.
        let mut fresh: Vec<(u32, (u32, u32))> = Vec::new();
        for (n, slot) in new_order.iter_mut().enumerate() {
            if *slot != u32::MAX {
                continue;
            }
            let s = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.globals.push(None);
                    for layer in &mut self.layers {
                        layer.push(None);
                    }
                    dead.push(false);
                    (self.globals.len() - 1) as u32
                }
            };
            let g: Arc<[u32]> = Arc::from(new_globals[n]);
            for (local, &v) in g.iter().enumerate() {
                fresh.push((v, (s, local as u32)));
                touched.push(v);
            }
            self.layers[Layer::Exact as usize][s as usize] = Some(Arc::from(vec![0.0f64; g.len()]));
            self.globals[s as usize] = Some(g);
            self.copied.insert(s);
            *slot = s;
        }

        self.order = new_order;
        self.rank = vec![u32::MAX; self.globals.len()];
        for (i, &s) in self.order.iter().enumerate() {
            self.rank[s as usize] = i as u32;
        }

        // Vertex growth: cover new ids with (implicitly empty) chunks.
        let num_chunks = num_vertices.div_ceil(INDEX_CHUNK_SIZE);
        while self.index.len() < num_chunks {
            self.index.push(Arc::new(IndexChunk::empty()));
        }
        self.num_vertices = num_vertices;

        touched.sort_unstable();
        touched.dedup();
        // A stable sort keeps each vertex's fresh entries in creation order.
        fresh.sort_by_key(|&(v, _)| v);
        // Rebuild the owner lists of touched vertices, one affected chunk
        // at a time; untouched chunks stay shared. Every fresh vertex is
        // touched, so each chunk's fresh entries start at cursor `f`.
        let (mut i, mut f) = (0, 0);
        while i < touched.len() {
            let c = (touched[i] as usize) >> INDEX_CHUNK_BITS;
            let in_chunk = |v: u32| (v as usize) >> INDEX_CHUNK_BITS == c;
            let j = i + touched[i..].partition_point(|&v| in_chunk(v));
            let g = f + fresh[f..].partition_point(|&(v, _)| in_chunk(v));
            self.rebuild_index_chunk(c, &touched[i..j], &dead, &fresh[f..g]);
            (i, f) = (j, g);
        }
        touched
    }

    /// Replaces owner-index chunk `c`, recomputing the entries of
    /// `touched` vertices (ascending, all within the chunk) and copying
    /// each run of other vertices over as one slice. A touched vertex
    /// keeps its live-slot entries and gains its `fresh` ones (`(vertex,
    /// (slot, local))` sorted by vertex, all of touched vertices).
    fn rebuild_index_chunk(
        &mut self,
        c: usize,
        touched: &[u32],
        dead: &[bool],
        fresh: &[(u32, (u32, u32))],
    ) {
        let old = &self.index[c];
        let first = c * INDEX_CHUNK_SIZE;
        let len = INDEX_CHUNK_SIZE.min(self.num_vertices - first);
        let mut chunk = IndexChunk {
            offsets: Vec::with_capacity(len + 1),
            pairs: Vec::with_capacity(old.pairs.len()),
        };
        chunk.offsets.push(0);
        let (mut next, mut f) = (0, 0);
        for &v in touched {
            let local = v as usize - first;
            debug_assert!((next..len).contains(&local), "touched vertex {v} outside chunk {c}");
            chunk.copy_run(old, next, local);
            for &(slot, sl) in old.entries(local) {
                if !dead[slot as usize] {
                    chunk.pairs.push((slot, sl));
                }
            }
            while let Some(&(_, pair)) = fresh.get(f).filter(|&&(w, _)| w == v) {
                chunk.pairs.push(pair);
                f += 1;
            }
            chunk.offsets.push(chunk.pairs.len() as u32);
            next = local + 1;
        }
        debug_assert_eq!(f, fresh.len(), "fresh entry of an untouched vertex in chunk {c}");
        chunk.copy_run(old, next, len);
        self.index[c] = Arc::new(chunk);
    }

    /// Folds one vertex's exact score (ascending sub-graph index order,
    /// from `0.0`).
    pub fn fold_vertex(&self, v: VertexId) -> f64 {
        self.fold_layer_vertex(Layer::Exact, v)
    }

    /// Folds one vertex's `layer` score (ascending sub-graph index order,
    /// from `0.0`).
    pub fn fold_layer_vertex(&self, layer: Layer, v: VertexId) -> f64 {
        fold_at(&self.index, &self.rank, &self.layers[layer as usize], v as usize)
    }

    /// The full exact score vector, folded from zeros in ascending
    /// sub-graph index order — bitwise-identical to the engine's
    /// historical `refold`.
    pub fn to_flat(&self) -> Vec<f64> {
        fold_all(self.num_vertices, &self.order, &self.globals, &self.layers[Layer::Exact as usize])
    }

    /// An immutable snapshot of the exact layer (see
    /// [`FoldStore::layer_chunks`]).
    pub fn chunks(&self) -> ScoreChunks {
        self.layer_chunks(Layer::Exact)
    }

    /// An immutable snapshot of one layer: O(sub-graphs +
    /// vertices/[`INDEX_CHUNK_SIZE`]) `Arc` clones. Snapshots of different
    /// layers share every owner-index chunk.
    pub fn layer_chunks(&self, layer: Layer) -> ScoreChunks {
        ScoreChunks {
            num_vertices: self.num_vertices,
            order: self.order.clone(),
            rank: self.rank.clone(),
            globals: self.globals.clone(),
            values: self.layers[layer as usize].clone(),
            index: self.index.clone(),
        }
    }

    /// Publish accounting: `(slots with an exact span replaced since the
    /// last call, live sub-graphs)`; resets the window.
    pub fn take_copied(&mut self) -> (usize, usize) {
        let copied = self.copied.len();
        self.copied.clear();
        (copied, self.order.len())
    }

    /// Cross-checks the exact folds against a freshly-built store over the same `(vertex list, contribution)` pairs: identical
    /// flat fold (bitwise) and identical per-vertex folds. Used by the
    /// engine's `invariants` feature and the property tests.
    pub fn verify_against_fresh(
        &self,
        num_vertices: usize,
        subgraphs: Vec<(Arc<[u32]>, Arc<[f64]>)>,
    ) -> Result<(), String> {
        let mut fresh = FoldStore::default();
        fresh.rebuild(num_vertices, subgraphs);
        let want = fresh.to_flat();
        let got = self.to_flat();
        if got.len() != want.len() {
            return Err(format!("length mismatch: {} vs {}", got.len(), want.len()));
        }
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            if g.to_bits() != w.to_bits() {
                return Err(format!("flat fold diverged at vertex {v}: {g} vs {w}"));
            }
            let single = self.fold_vertex(v as u32);
            if single.to_bits() != w.to_bits() {
                return Err(format!("fold_vertex diverged at vertex {v}: {single} vs {w}"));
            }
        }
        Ok(())
    }
}

/// An immutable, `Send + Sync` snapshot of a [`FoldStore`]: per-sub-graph
/// score spans shared by `Arc`, plus the owner index for per-vertex folds.
/// This is what [`apgre-serve`]'s snapshots hold instead of a flat
/// `Vec<f64>` clone.
///
/// [`apgre-serve`]: index.html
#[derive(Clone, Debug)]
pub struct ScoreChunks {
    num_vertices: usize,
    order: Vec<u32>,
    rank: Vec<u32>,
    globals: Vec<Option<Arc<[u32]>>>,
    values: Vec<Option<Arc<[f64]>>>,
    index: Vec<Arc<IndexChunk>>,
}

impl ScoreChunks {
    /// Number of vertices covered (the length of [`ScoreChunks::to_vec`]).
    pub fn len(&self) -> usize {
        self.num_vertices
    }

    /// Whether the score vector is empty.
    pub fn is_empty(&self) -> bool {
        self.num_vertices == 0
    }

    /// One vertex's score, folded from its owning sub-graphs' spans in
    /// ascending sub-graph index order from `0.0` — bitwise-identical to
    /// `to_vec()[v]`.
    ///
    /// # Panics
    /// Panics when `v >= len()` (use [`ScoreChunks::get`] for checked
    /// access).
    pub fn score(&self, v: usize) -> f64 {
        assert!(v < self.num_vertices, "vertex {v} out of range");
        fold_at(&self.index, &self.rank, &self.values, v)
    }

    /// Checked [`ScoreChunks::score`].
    pub fn get(&self, v: usize) -> Option<f64> {
        if v < self.num_vertices {
            Some(fold_at(&self.index, &self.rank, &self.values, v))
        } else {
            None
        }
    }

    /// The flat score vector, folded from zeros in ascending sub-graph
    /// index order (bitwise-identical to the engine's flat scores).
    pub fn to_vec(&self) -> Vec<f64> {
        fold_all(self.num_vertices, &self.order, &self.globals, &self.values)
    }

    /// Whether this snapshot and `other` share the backing span of
    /// sub-graph `index` (test/metrics introspection; both indices are in
    /// the *respective* snapshot's ordering).
    pub fn shares_span(&self, other: &ScoreChunks, index: usize) -> bool {
        match (self.order.get(index), other.order.get(index)) {
            (Some(&a), Some(&b)) => match (&self.values[a as usize], &other.values[b as usize]) {
                (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                _ => false,
            },
            _ => false,
        }
    }

    /// Whether this snapshot and `other` hold the same owner-index chunk
    /// `c` (the one covering vertices from `c · INDEX_CHUNK_SIZE`); test
    /// introspection like [`ScoreChunks::shares_span`].
    pub fn shares_index_chunk(&self, other: &ScoreChunks, c: usize) -> bool {
        match (self.index.get(c), other.index.get(c)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Incremental top-k ranking over successive [`ScoreChunks`] snapshots.
///
/// A snapshot shares every span and owner-index chunk a batch did not touch
/// with its predecessor, so ranking work should track the dirty set the
/// same way publishing does. The cache therefore keys two artifacts by
/// **span identity** (the `Arc` allocation address, pinned by a held clone
/// so the address cannot be recycled while the entry lives):
///
/// * per score span: a prefix of its vertices ordered by `(value desc,
///   vertex id asc)` — recomputed only when the span was replaced (or a
///   larger prefix is needed),
/// * per owner-index chunk: the vertices with two or more owner entries
///   (articulation points shared by sub-graphs), whose global score is not
///   any single span's value.
///
/// At ranking time multi-owner vertices are folded exactly (there are few —
/// one per shared articulation point) and span prefixes contribute their
/// best `k` *single-owner* vertices; a single-owner vertex's global score
/// is bitwise its span value (folded `0.0 + x`), so span-local order is
/// global order. Caching a prefix of `k + |multi|` entries guarantees at
/// least `k` usable single-owner candidates precede any vertex the prefix
/// cut off, which makes the merge exact. Two cases fall back to ranking the
/// full folded vector: fewer than `k` candidates, and a `k`-th candidate of
/// exactly `0.0` (ownerless vertices — score `0.0` — appear in no span but
/// still rank by the id tie-break).
#[derive(Debug, Default)]
pub struct TopCache {
    /// Span address -> cached prefix.
    spans: HashMap<usize, SpanPrefix>,
    /// Owner-index chunk address -> multi-owner vertices in the chunk.
    multis: HashMap<usize, ChunkMulti>,
}

#[derive(Debug)]
struct SpanPrefix {
    /// Pins the span allocation so the address key stays unambiguous.
    _pin: Arc<[f64]>,
    /// `(value, vertex)` ordered by value desc, vertex asc; covers the
    /// whole span when `entries.len() == span length`.
    entries: Vec<(f64, u32)>,
}

#[derive(Debug)]
struct ChunkMulti {
    /// Pins the chunk allocation (same reasoning as [`SpanPrefix::_pin`]).
    _pin: Arc<IndexChunk>,
    /// Global ids of vertices with >= 2 owner entries, ascending.
    multi: Vec<u32>,
}

/// `(value desc, id asc)` — the ranking order of `/top` and the ranking
/// tests.
fn rank_cmp(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1))
}

impl TopCache {
    /// An empty cache.
    pub fn new() -> Self {
        TopCache::default()
    }

    /// Cached span prefixes (introspection for reuse tests).
    pub fn cached_spans(&self) -> usize {
        self.spans.len()
    }

    /// The ids of the `k` highest-scoring vertices of `snap`, ordered by
    /// `(value desc, id asc)` — identical to sorting the full folded vector,
    /// but touching only spans that changed since the previous call.
    pub fn top_k(&mut self, snap: &ScoreChunks, k: usize) -> Vec<u32> {
        let k = k.min(snap.num_vertices);
        if k == 0 {
            return Vec::new();
        }

        // Multi-owner vertices, from per-chunk caches (chunk `Arc`s are
        // position-stable: chunk `c` always covers the same vertex range).
        let mut live_chunks: HashSet<usize> = HashSet::with_capacity(snap.index.len());
        let mut multi: Vec<u32> = Vec::new();
        for (c, chunk) in snap.index.iter().enumerate() {
            let key = Arc::as_ptr(chunk) as usize;
            live_chunks.insert(key);
            let entry = self.multis.entry(key).or_insert_with(|| {
                let first = c * INDEX_CHUNK_SIZE;
                let mut m = Vec::new();
                for local in 0..chunk.offsets.len().saturating_sub(1) {
                    if chunk.entries(local).len() >= 2 {
                        m.push((first + local) as u32);
                    }
                }
                ChunkMulti { _pin: Arc::clone(chunk), multi: m }
            });
            multi.extend_from_slice(&entry.multi);
        }
        self.multis.retain(|key, _| live_chunks.contains(key));

        // Per-span prefixes, recomputed only for replaced spans (or when a
        // larger prefix is needed than was cached).
        let cap_target = k + multi.len();
        let mut live_spans: HashSet<usize> = HashSet::with_capacity(snap.order.len());
        let mut cands: Vec<(f64, u32)> = Vec::with_capacity(multi.len() + k * snap.order.len());
        for &slot in &snap.order {
            let (globals, values) =
                match (&snap.globals[slot as usize], &snap.values[slot as usize]) {
                    (Some(g), Some(v)) => (g, v),
                    _ => continue,
                };
            let key = Arc::as_ptr(values) as *const u8 as usize;
            live_spans.insert(key);
            let cap = cap_target.min(globals.len());
            let stale = match self.spans.get(&key) {
                Some(p) => p.entries.len() < cap,
                None => true,
            };
            if stale {
                let mut all: Vec<(f64, u32)> =
                    values.iter().copied().zip(globals.iter().copied()).collect();
                if cap < all.len() {
                    all.select_nth_unstable_by(cap - 1, rank_cmp);
                    all.truncate(cap);
                }
                all.sort_unstable_by(rank_cmp);
                self.spans.insert(key, SpanPrefix { _pin: Arc::clone(values), entries: all });
            }
            let prefix = &self.spans[&key];
            let mut taken = 0usize;
            for &(v, id) in &prefix.entries {
                if taken == k {
                    break;
                }
                if multi.binary_search(&id).is_err() {
                    cands.push((v, id));
                    taken += 1;
                }
            }
        }
        self.spans.retain(|key, _| live_spans.contains(key));

        // Multi-owner vertices enter with their exact fold.
        for &v in &multi {
            cands.push((snap.score(v as usize), v));
        }
        cands.sort_unstable_by(rank_cmp);

        if cands.len() < k || cands[k - 1].0 == 0.0 {
            // Not enough owned vertices, or zero-score ties with ownerless
            // vertices: rank the full folded vector.
            let flat = snap.to_vec();
            let mut all: Vec<(f64, u32)> = flat.into_iter().zip(0u32..).collect();
            all.sort_unstable_by(rank_cmp);
            return all.into_iter().take(k).map(|(_, id)| id).collect();
        }
        cands.truncate(k);
        cands.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc_u32(v: &[u32]) -> Arc<[u32]> {
        Arc::from(v)
    }

    fn arc_f64(v: &[f64]) -> Arc<[f64]> {
        Arc::from(v)
    }

    /// Two sub-graphs sharing vertex 2 (an articulation point).
    fn seed() -> FoldStore {
        let mut store = FoldStore::default();
        store.rebuild(
            6,
            vec![
                (arc_u32(&[0, 1, 2]), arc_f64(&[1.0, 2.0, 3.0])),
                (arc_u32(&[2, 3, 4]), arc_f64(&[0.5, 6.0, 7.0])),
            ],
        );
        store
    }

    #[test]
    fn flat_and_per_vertex_folds_agree() {
        let store = seed();
        let flat = store.to_flat();
        assert_eq!(flat, vec![1.0, 2.0, 3.5, 6.0, 7.0, 0.0]);
        for v in 0..6 {
            assert_eq!(store.fold_vertex(v).to_bits(), flat[v as usize].to_bits());
        }
        let snap = store.chunks();
        assert_eq!(snap.to_vec(), flat);
        assert_eq!(snap.score(2).to_bits(), flat[2].to_bits());
        assert_eq!(snap.get(6), None);
    }

    #[test]
    fn set_values_updates_only_its_span() {
        let mut store = seed();
        let before = store.chunks();
        store.take_copied();
        store.set_values(1, arc_f64(&[1.5, 1.5, 1.5]));
        let after = store.chunks();
        assert!(before.shares_span(&after, 0), "untouched span shared");
        assert!(!before.shares_span(&after, 1), "dirty span replaced");
        assert_eq!(store.take_copied(), (1, 2));
        assert_eq!(after.score(2), 3.0 + 1.5);
        assert_eq!(before.score(2), 3.5, "old snapshot unaffected");
    }

    #[test]
    fn splice_replaces_dissolved_with_fresh_at_tail() {
        let mut store = seed();
        store.take_copied();
        // Sub-graph 0 survives (now index 0), sub-graph 1 dissolves into
        // two fresh groups appended at the tail.
        let touched = store.apply_splice(7, &[Some(0), None], &[&[0, 1, 2], &[2, 3], &[3, 4, 6]]);
        assert_eq!(touched, vec![2, 3, 4, 6]);
        store.set_values(1, arc_f64(&[0.25, 0.5]));
        store.set_values(2, arc_f64(&[1.0, 2.0, 4.0]));
        assert_eq!(store.num_subgraphs(), 3);
        let flat = store.to_flat();
        assert_eq!(flat, vec![1.0, 2.0, 3.25, 1.5, 2.0, 0.0, 4.0]);
        for v in 0..7 {
            assert_eq!(store.fold_vertex(v).to_bits(), flat[v as usize].to_bits());
        }
        // Survivor's span is still shared with pre-splice snapshots.
        assert_eq!(store.take_copied(), (2, 3), "two fresh spans copied");
        store
            .verify_against_fresh(
                7,
                vec![
                    (arc_u32(&[0, 1, 2]), arc_f64(&[1.0, 2.0, 3.0])),
                    (arc_u32(&[2, 3]), arc_f64(&[0.25, 0.5])),
                    (arc_u32(&[3, 4, 6]), arc_f64(&[1.0, 2.0, 4.0])),
                ],
            )
            .expect("matches a fresh store");
    }

    #[test]
    fn fold_order_is_ascending_index_even_after_slot_reuse() {
        let mut store = seed();
        // Dissolve sub-graph 0; its slot is reused by a fresh group that
        // lands at the *tail* of the order.
        store.apply_splice(6, &[None, Some(0)], &[&[2, 3, 4], &[0, 1, 2]]);
        store.set_values(1, arc_f64(&[10.0, 20.0, 30.0]));
        // Vertex 2 is owned by both; fold order must be index order
        // (survivor first), not slot order.
        let flat = store.to_flat();
        assert_eq!(flat[2].to_bits(), (0.0f64 + 0.5 + 30.0).to_bits());
        assert_eq!(store.fold_vertex(2).to_bits(), flat[2].to_bits());
        let snap = store.chunks();
        assert_eq!(snap.score(2).to_bits(), flat[2].to_bits());
    }

    #[test]
    fn index_chunks_shared_when_untouched() {
        // Vertices split across two index chunks; splice touches only the
        // second chunk's vertices.
        let far = INDEX_CHUNK_SIZE as u32 + 5;
        let mut store = FoldStore::default();
        store.rebuild(
            far as usize + 1,
            vec![
                (arc_u32(&[0, 1]), arc_f64(&[1.0, 2.0])),
                (arc_u32(&[far - 1, far]), arc_f64(&[3.0, 4.0])),
            ],
        );
        let before = store.chunks();
        store.apply_splice(far as usize + 1, &[Some(0), None], &[&[0, 1], &[far - 1, far]]);
        store.set_values(1, arc_f64(&[5.0, 6.0]));
        let after = store.chunks();
        assert!(Arc::ptr_eq(&before.index[0], &after.index[0]), "chunk 0 untouched");
        assert!(!Arc::ptr_eq(&before.index[1], &after.index[1]), "chunk 1 rebuilt");
        assert_eq!(after.score(far as usize), 6.0);
        assert_eq!(before.score(far as usize), 4.0);
    }

    /// The per-vertex chunk rebuild that [`FoldStore::rebuild_index_chunk`]
    /// must reproduce exactly: every vertex's entries copied one at a time.
    fn rebuild_per_vertex(
        old: &IndexChunk,
        first: usize,
        len: usize,
        touched: &[u32],
        dead: &[bool],
        fresh: &[(u32, (u32, u32))],
    ) -> IndexChunk {
        let mut chunk = IndexChunk::empty();
        for local in 0..len {
            let v = (first + local) as u32;
            if touched.binary_search(&v).is_ok() {
                let live = old.entries(local).iter().filter(|&&(slot, _)| !dead[slot as usize]);
                chunk.pairs.extend(live);
                chunk.pairs.extend(fresh.iter().filter(|&&(w, _)| w == v).map(|&(_, p)| p));
            } else {
                chunk.pairs.extend_from_slice(old.entries(local));
            }
            chunk.offsets.push(chunk.pairs.len() as u32);
        }
        chunk
    }

    #[test]
    fn run_copied_chunk_rebuild_matches_the_per_vertex_rebuild() {
        // xorshift64: deterministic stores, growths and touched sets.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for _ in 0..48 {
            let n = INDEX_CHUNK_SIZE + 1 + draw(2 * INDEX_CHUNK_SIZE);
            let groups: Vec<(Arc<[u32]>, Arc<[f64]>)> = (0..1 + draw(8))
                .map(|_| {
                    let mut g: Vec<u32> = (0..1 + draw(300)).map(|_| draw(n) as u32).collect();
                    g.sort_unstable();
                    g.dedup();
                    let values = vec![1.0; g.len()];
                    (Arc::from(g), Arc::from(values))
                })
                .collect();
            let slots = groups.len();
            let mut store = FoldStore::default();
            store.rebuild(n, groups);
            // Grow without touching the index: the old tail chunk now
            // covers a prefix shorter than its length.
            store.num_vertices = n + draw(INDEX_CHUNK_SIZE);
            while store.index.len() < store.num_vertices.div_ceil(INDEX_CHUNK_SIZE) {
                store.index.push(Arc::new(IndexChunk::empty()));
            }
            let dead: Vec<bool> = (0..slots + 2).map(|_| draw(3) == 0).collect();
            for c in 0..store.index.len() {
                let first = c * INDEX_CHUNK_SIZE;
                let len = INDEX_CHUNK_SIZE.min(store.num_vertices - first);
                let mut touched: Vec<u32> =
                    (0..1 + draw(40)).map(|_| (first + draw(len)) as u32).collect();
                if draw(4) == 0 {
                    touched.extend([first as u32, (first + len - 1) as u32]);
                }
                touched.sort_unstable();
                touched.dedup();
                let fresh: Vec<(u32, (u32, u32))> = touched
                    .iter()
                    .filter(|_| draw(2) == 0)
                    .flat_map(|&v| [(v, (slots as u32, v)), (v, (slots as u32 + 1, 7))])
                    .collect();
                let want = rebuild_per_vertex(&store.index[c], first, len, &touched, &dead, &fresh);
                store.rebuild_index_chunk(c, &touched, &dead, &fresh);
                assert_eq!(store.index[c].offsets, want.offsets, "chunk {c} offsets");
                assert_eq!(store.index[c].pairs, want.pairs, "chunk {c} pairs");
            }
        }
    }

    /// Reference ranking: full fold, sorted `(value desc, id asc)`.
    fn ranked_flat(snap: &ScoreChunks, k: usize) -> Vec<u32> {
        let mut all: Vec<(f64, u32)> = snap.to_vec().into_iter().zip(0u32..).collect();
        all.sort_unstable_by(rank_cmp);
        all.into_iter().take(k).map(|(_, id)| id).collect()
    }

    #[test]
    fn top_k_matches_full_sort_including_multi_owner_folds() {
        let store = seed();
        let snap = store.chunks();
        let mut cache = TopCache::new();
        for k in 0..=6 {
            assert_eq!(cache.top_k(&snap, k), ranked_flat(&snap, k), "k={k}");
        }
        // k beyond the vertex count clamps.
        assert_eq!(cache.top_k(&snap, 99).len(), 6);
    }

    #[test]
    fn top_k_reuses_untouched_span_prefixes() {
        let mut store = seed();
        let mut cache = TopCache::new();
        let before = store.chunks();
        assert_eq!(cache.top_k(&before, 3), ranked_flat(&before, 3));
        assert_eq!(cache.cached_spans(), 2);

        // Replace one span: the other's prefix must survive the prune.
        store.set_values(1, arc_f64(&[0.5, 9.0, 8.0]));
        let after = store.chunks();
        let kept: Vec<usize> = cache.spans.keys().copied().collect();
        assert_eq!(cache.top_k(&after, 3), ranked_flat(&after, 3));
        assert_eq!(cache.cached_spans(), 2);
        let survivors = cache.spans.keys().filter(|k| kept.contains(k)).count();
        assert_eq!(survivors, 1, "untouched span prefix reused, dirty one replaced");
    }

    #[test]
    fn top_k_is_exact_when_the_articulation_fold_beats_span_values() {
        // Vertex 2 is owned by both spans with small per-span values whose
        // *sum* tops the ranking — the merge must fold it exactly rather
        // than trust either span-local order.
        let mut store = FoldStore::default();
        store.rebuild(
            5,
            vec![
                (arc_u32(&[0, 1, 2]), arc_f64(&[4.0, 1.0, 3.0])),
                (arc_u32(&[2, 3, 4]), arc_f64(&[3.0, 2.0, 1.0])),
            ],
        );
        let snap = store.chunks();
        let mut cache = TopCache::new();
        assert_eq!(cache.top_k(&snap, 2), vec![2, 0], "2 folds to 6.0");
        assert_eq!(cache.top_k(&snap, 5), ranked_flat(&snap, 5));
    }

    #[test]
    fn top_k_breaks_zero_ties_by_id_with_ownerless_vertices() {
        // Vertices 0..3 are ownerless (score 0.0); the owned vertices also
        // fold to 0.0. Ranking is then purely the id tie-break, which only
        // the fallback path can see.
        let mut store = FoldStore::default();
        store.rebuild(6, vec![(arc_u32(&[4, 5]), arc_f64(&[0.0, 0.0]))]);
        let snap = store.chunks();
        let mut cache = TopCache::new();
        assert_eq!(cache.top_k(&snap, 3), vec![0, 1, 2]);
        assert_eq!(cache.top_k(&snap, 6), ranked_flat(&snap, 6));
    }

    #[test]
    fn top_k_tracks_splices() {
        let mut store = seed();
        let mut cache = TopCache::new();
        let _ = cache.top_k(&store.chunks(), 4);
        store.apply_splice(7, &[Some(0), None], &[&[0, 1, 2], &[2, 3], &[3, 4, 6]]);
        store.set_values(1, arc_f64(&[0.25, 0.5]));
        store.set_values(2, arc_f64(&[1.0, 2.0, 4.0]));
        let snap = store.chunks();
        for k in 1..=7 {
            assert_eq!(cache.top_k(&snap, k), ranked_flat(&snap, k), "k={k}");
        }
    }

    #[test]
    fn vertex_growth_extends_coverage() {
        let mut store = seed();
        let touched = store.apply_splice(9, &[Some(0), Some(1)], &[&[0, 1, 2], &[2, 3, 4]]);
        assert!(touched.is_empty(), "no membership changed");
        assert_eq!(store.to_flat().len(), 9);
        assert_eq!(store.fold_vertex(8), 0.0);
        assert_eq!(store.chunks().get(8), Some(0.0));
    }
}
