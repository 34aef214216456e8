//!path crates/store/src/fixture.rs
// R4 bad: the store's snapshot and splice entry points with no test pinning
// them against a store rebuilt from scratch.

pub struct CowGraph;
pub struct FoldStore;

impl CowGraph {
    pub fn view(&self) -> usize { // r4-target
        0
    }
}

impl FoldStore {
    pub fn chunks(&self) -> usize { // r4-target
        0
    }

    pub fn apply_splice(&mut self, n: usize) -> usize { // r4-target
        n
    }
}
