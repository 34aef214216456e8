//!path crates/graph/src/sync.rs
// R1 bad: `apgre_bc::sync` is the only facade, so a raw atomic import in the
// graph crate is flagged even at the path its old mirror facade used.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn load(x: &AtomicU64) -> u64 {
    x.load(Ordering::Relaxed)
}
