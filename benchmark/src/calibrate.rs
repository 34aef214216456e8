//! Machine-speed probe for traced runs.
//!
//! The reference machine is a shared virtual machine whose speed drifts:
//! a single thread's throughput toggles between two levels about 1.5x
//! apart, in bursts from a tenth of a second to minutes, as other tenants
//! come and go. Traced runs time a fixed reference computation —
//! breadth-first searches over a random graph, written here and calling no
//! repository code, so no change under test can alter it — at their start
//! and end, when nothing else of the run executes, and record it in the
//! trace's environment block. Comparing it across runs separates a slow
//! machine from a slow change; metrics are reported as measured.

use apgre_approx::SplitMix64;
use std::time::Instant;

const VERTICES: usize = 1 << 16;
const DEGREE: usize = 8;
const SOURCES: u32 = 8;

/// The reference computation and its timings.
pub struct Calibrator {
    targets: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
    samples_ms: Vec<f64>,
}

impl Calibrator {
    /// Builds the fixed random graph (untimed).
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(0xCA1B);
        let targets = (0..VERTICES * DEGREE).map(|_| rng.below(VERTICES as u64) as u32).collect();
        Calibrator {
            targets,
            dist: vec![0; VERTICES],
            queue: Vec::with_capacity(VERTICES),
            samples_ms: Vec::new(),
        }
    }

    /// One breadth-first search from `source`; returns the sum of
    /// distances so the work cannot be optimized away.
    fn bfs(&mut self, source: u32) -> u64 {
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.dist[source as usize] = 0;
        self.queue.push(source);
        let mut head = 0;
        let mut total = 0u64;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            let d = self.dist[u];
            total += u64::from(d);
            for &v in &self.targets[u * DEGREE..(u + 1) * DEGREE] {
                if self.dist[v as usize] == u32::MAX {
                    self.dist[v as usize] = d + 1;
                    self.queue.push(v);
                }
            }
        }
        total
    }

    /// Times `n` samples.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            let mut check = 0u64;
            for s in 0..SOURCES {
                check = check.wrapping_add(self.bfs(s));
            }
            std::hint::black_box(check);
            self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Every sample so far, milliseconds, in the order taken.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_fixed_and_timed() {
        let mut a = Calibrator::new();
        let mut b = Calibrator::new();
        assert_eq!(a.bfs(3), b.bfs(3), "same graph, same distances");
        assert!(a.bfs(0) > 0);
        a.sample(3);
        assert_eq!(a.samples_ms().len(), 3);
        assert!(a.samples_ms().iter().all(|&ms| ms > 0.0));
    }
}
