//!path crates/approx/src/fixture.rs
// R4 bad: the sampled estimator's splice entry point with no test pinning it
// against the from-scratch estimator.

pub struct SampleStore;

impl SampleStore {
    pub fn apply_splice(&mut self, n: usize) -> usize { // r4-target
        n
    }
}
