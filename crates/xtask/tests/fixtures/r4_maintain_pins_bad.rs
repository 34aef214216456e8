//!path crates/decomp/src/maintain.rs
// R4 bad: the maintenance module's splice and rebuild entry points with no
// test pinning them against a fresh decomposition.

pub struct MaintainedDecomposition;

impl MaintainedDecomposition {
    pub fn apply_edits(&mut self, n: usize) -> usize { // r4-target
        n
    }

    pub fn rebuild(&mut self, n: usize) -> usize { // r4-target
        n
    }
}
