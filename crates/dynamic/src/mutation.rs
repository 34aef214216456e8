//! Mutation batches: the unit of change the incremental engine consumes.

use apgre_graph::VertexId;

/// One elementary change to the graph.
///
/// Semantics match [`apgre_store::CowGraph`]'s edits: on undirected graphs an
/// edge mutation affects the unordered pair `{u, v}`; on directed graphs it
/// affects the arc `u -> v`. Self-loops and duplicate adds / absent removes
/// are no-ops (counted in [`crate::DynamicReport::noop_mutations`], never an
/// error). Removing a vertex strips its incident edges but keeps the id slot
/// as an isolated vertex, so vertex ids are stable across batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the edge `u - v` (arc `u -> v` when directed).
    AddEdge(VertexId, VertexId),
    /// Delete the edge `u - v` (arc `u -> v` when directed).
    RemoveEdge(VertexId, VertexId),
    /// Append a fresh isolated vertex (its id is the current vertex count).
    AddVertex,
    /// Strip every edge incident to the vertex, leaving it isolated.
    RemoveVertex(VertexId),
}

/// An ordered group of mutations applied as one unit by
/// [`crate::DynamicBc::apply`]. The batch is the granularity of
/// classification and of score refresh: scores are consistent after every
/// batch, not after every mutation.
#[derive(Clone, Debug, Default)]
pub struct MutationBatch {
    mutations: Vec<Mutation>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an edge insertion; returns `self` for chaining.
    pub fn add_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.mutations.push(Mutation::AddEdge(u, v));
        self
    }

    /// Records an edge deletion; returns `self` for chaining.
    pub fn remove_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.mutations.push(Mutation::RemoveEdge(u, v));
        self
    }

    /// Records a vertex insertion; returns `self` for chaining.
    pub fn add_vertex(mut self) -> Self {
        self.mutations.push(Mutation::AddVertex);
        self
    }

    /// Records a vertex removal; returns `self` for chaining.
    pub fn remove_vertex(mut self, v: VertexId) -> Self {
        self.mutations.push(Mutation::RemoveVertex(v));
        self
    }

    /// Appends a mutation in place.
    pub fn push(&mut self, m: Mutation) {
        self.mutations.push(m);
    }

    /// The recorded mutations, in application order.
    pub fn mutations(&self) -> &[Mutation] {
        &self.mutations
    }

    /// Number of recorded mutations.
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// Whether the batch records no mutations.
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }
}

impl From<Vec<Mutation>> for MutationBatch {
    fn from(mutations: Vec<Mutation>) -> Self {
        MutationBatch { mutations }
    }
}

impl FromIterator<Mutation> for MutationBatch {
    fn from_iter<I: IntoIterator<Item = Mutation>>(iter: I) -> Self {
        MutationBatch { mutations: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_in_order() {
        let b = MutationBatch::new().add_edge(0, 1).remove_edge(1, 2).add_vertex().remove_vertex(3);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert_eq!(
            b.mutations(),
            &[
                Mutation::AddEdge(0, 1),
                Mutation::RemoveEdge(1, 2),
                Mutation::AddVertex,
                Mutation::RemoveVertex(3),
            ]
        );
    }

    #[test]
    fn from_vec_and_iter() {
        let v = vec![Mutation::AddEdge(4, 5)];
        assert_eq!(MutationBatch::from(v.clone()).mutations(), &v[..]);
        assert_eq!(v.iter().copied().collect::<MutationBatch>().mutations(), &v[..]);
    }
}
