//!path crates/bc/src/apgre/kernel.rs
// R9 reach: the sub-graph kernel's entry point and every private strategy
// sweep, under their real names, with one unaudited index each (marked
// `r9-target`). The rule's name filter must reach all of them. (The entry
// point is private here only so R4 stays quiet about its serial test.)

use rayon::prelude::*;

fn bc_in_subgraph(dist: &mut [u32], roots: &[u32]) {
    for &s in roots {
        dist[s as usize] = 0; // r9-target
    }
}

fn sweep_root<const RECORD: bool>(dist: &mut [u32], order: &[u32]) {
    for &v in order {
        dist[v as usize] = 0; // r9-target
    }
}

fn sweep_roots_seq(dist: &mut [u32], roots: &[u32]) {
    for &s in roots {
        dist[s as usize] = 1; // r9-target
    }
}

fn sweep_roots_observed(contrib: &mut [f64], order: &[u32]) {
    for &v in order {
        contrib[v as usize] = 0.0; // r9-target
    }
}

fn sweep_roots_par(parts: &[Vec<f64>], roots: &[u32]) -> Vec<f64> {
    roots.par_iter().map(|&s| parts[s as usize][0]).collect() // r9-target
}

fn sweep_roots_level_sync(sigma: &[f64], level: &[u32]) -> Vec<f64> {
    level.par_iter().map(|&v| sigma[v as usize]).collect() // r9-target
}
