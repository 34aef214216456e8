//! Sequential breadth-first search: distances for the oracles and workload
//! checks, and the blocked reachability count behind the α/β computation.

use crate::csr::Csr;
use crate::{VertexId, UNREACHED};
use std::collections::VecDeque;

/// BFS distances from `src` over `csr`. `UNREACHED` marks unreachable
/// vertices.
pub fn bfs_distances(csr: &Csr, src: VertexId) -> Vec<u32> {
    let mut dist = vec![UNREACHED; csr.num_vertices()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in csr.neighbors(u) {
            if dist[v as usize] == UNREACHED {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Vertices reachable from `src` (including `src`), minus the vertices for
/// which `blocked` returns true — blocked vertices are neither visited nor
/// expanded. `src` itself is always expanded but **not** counted.
///
/// This is exactly the primitive the paper's α/β computation needs: "the
/// number of vertices which `a` can reach without passing through `SGi`"
/// (§4, step 2).
pub fn reachable_count(csr: &Csr, src: VertexId, mut blocked: impl FnMut(VertexId) -> bool) -> u64 {
    let n = csr.num_vertices();
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    visited[src as usize] = true;
    queue.push_back(src);
    let mut count = 0u64;
    while let Some(u) = queue.pop_front() {
        for &v in csr.neighbors(u) {
            if !visited[v as usize] && !blocked(v) {
                visited[v as usize] = true;
                count += 1;
                queue.push_back(v);
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path5() -> Csr {
        Graph::undirected_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).csr().clone()
    }

    #[test]
    fn path_distances() {
        let g = path5();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d = bfs_distances(&g, 2);
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_marked() {
        let g = Graph::undirected_from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(g.csr(), 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHED);
        assert_eq!(d[3], UNREACHED);
    }

    #[test]
    fn directed_respects_orientation() {
        let g = Graph::directed_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(bfs_distances(g.csr(), 0), vec![0, 1, 2]);
        assert_eq!(bfs_distances(g.csr(), 2), vec![UNREACHED, UNREACHED, 0]);
        assert_eq!(bfs_distances(g.rev_csr(), 2), vec![2, 1, 0]);
    }

    #[test]
    fn reachable_count_with_block() {
        // 0 - 1 - 2 - 3; block 2 => from 0 reach {1}
        let g = path5();
        let c = reachable_count(&g, 0, |v| v == 2);
        assert_eq!(c, 1);
        let c = reachable_count(&g, 0, |_| false);
        assert_eq!(c, 4);
    }
}
