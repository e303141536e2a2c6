//! Direction-optimizing breadth-first search (GAPBS `bfs`, Beamer et al.).
//!
//! The traversal switches between the classic *top-down* step (scan the
//! frontier's neighbours) and the *bottom-up* step (scan unvisited vertices
//! and test whether any neighbour is in the frontier) using the GAPBS
//! heuristics: switch to bottom-up when the frontier's edge count exceeds
//! the unexplored edge count divided by `ALPHA`, and back to top-down when
//! the frontier shrinks below `|V| / BETA`.

use dgap::chunks::ranges;
use dgap::{GraphView, VertexId};
use rayon::prelude::*;
use std::sync::atomic::{AtomicI64, Ordering};

/// GAPBS default α (top-down → bottom-up threshold).
pub const ALPHA: usize = 15;
/// GAPBS default β (bottom-up → top-down threshold).
pub const BETA: usize = 18;

/// Parent of an unreached vertex.
pub const UNREACHED: i64 = -1;

/// Sequential direction-optimizing BFS.  Returns the parent array
/// (`UNREACHED` for vertices not reachable from `source`; the source is its
/// own parent).
pub fn bfs(view: &impl GraphView, source: VertexId) -> Vec<i64> {
    let n = view.num_vertices();
    let mut parent = vec![UNREACHED; n];
    if n == 0 || source as usize >= n {
        return parent;
    }
    parent[source as usize] = source as i64;
    let mut frontier = vec![source];
    let total_edges = view.num_edges().max(1);
    let mut explored_edges = view.degree(source);

    while !frontier.is_empty() {
        // Heuristic: how much work would each direction do?
        let frontier_edges: usize = frontier.iter().map(|&v| view.degree(v)).sum();
        let remaining = total_edges.saturating_sub(explored_edges).max(1);
        let bottom_up = frontier_edges > remaining / ALPHA && frontier.len() > n / BETA;

        let mut next = Vec::new();
        if bottom_up {
            let in_frontier: Vec<bool> = {
                let mut f = vec![false; n];
                for &v in &frontier {
                    f[v as usize] = true;
                }
                f
            };
            for (v, p) in parent.iter_mut().enumerate() {
                if *p != UNREACHED {
                    continue;
                }
                let mut found = None;
                view.for_each_neighbor(v as u64, &mut |u| {
                    if found.is_none() && in_frontier[u as usize] {
                        found = Some(u);
                    }
                });
                if let Some(u) = found {
                    *p = u as i64;
                    next.push(v as u64);
                }
            }
        } else {
            for &v in &frontier {
                view.for_each_neighbor(v, &mut |u| {
                    if parent[u as usize] == UNREACHED {
                        parent[u as usize] = v as i64;
                        next.push(u);
                    }
                });
            }
        }
        explored_edges += next.iter().map(|&v| view.degree(v)).sum::<usize>();
        frontier = next;
    }
    parent
}

/// Rayon-parallel direction-optimizing BFS.  Same GAPBS α/β switching as
/// [`bfs`], so every level takes the same direction decision and visits the
/// same set of vertices with the same distances; parent choices may differ
/// when a vertex is reachable from several frontier vertices in the same
/// level.  Both steps read adjacency with one
/// [`GraphView::for_each_adjacency`] call per chunk of the frontier
/// (top-down) or of the unvisited vertices (bottom-up).
pub fn bfs_parallel(view: &impl GraphView, source: VertexId) -> Vec<i64> {
    let n = view.num_vertices();
    if n == 0 || source as usize >= n {
        return vec![UNREACHED; n];
    }
    let parent: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(UNREACHED)).collect();
    parent[source as usize].store(source as i64, Ordering::Relaxed);
    let mut frontier = vec![source];
    let total_edges = view.num_edges().max(1);
    let mut explored_edges = view.degree(source);

    while !frontier.is_empty() {
        let frontier_edges: usize = ranges(frontier.len())
            .into_par_iter()
            .map(|(lo, hi)| {
                frontier[lo..hi]
                    .iter()
                    .map(|&v| view.degree(v))
                    .sum::<usize>()
            })
            .sum();
        let remaining = total_edges.saturating_sub(explored_edges).max(1);
        let bottom_up = frontier_edges > remaining / ALPHA && frontier.len() > n / BETA;

        let next: Vec<VertexId> = if bottom_up {
            let mut in_frontier = vec![false; n];
            for &v in &frontier {
                in_frontier[v as usize] = true;
            }
            ranges(n)
                .into_par_iter()
                .flat_map_iter(|(lo, hi)| {
                    // Only unvisited vertices read their adjacency.
                    let unvisited: Vec<VertexId> = (lo as u64..hi as u64)
                        .filter(|&v| parent[v as usize].load(Ordering::Relaxed) == UNREACHED)
                        .collect();
                    let mut claimed = Vec::new();
                    view.for_each_adjacency(unvisited[..].into(), &mut |v, nbrs| {
                        if let Some(&u) = nbrs.iter().find(|&&u| in_frontier[u as usize]) {
                            parent[v as usize].store(u as i64, Ordering::Relaxed);
                            claimed.push(v);
                        }
                    });
                    claimed
                })
                .collect()
        } else {
            ranges(frontier.len())
                .into_par_iter()
                .flat_map_iter(|(lo, hi)| {
                    let mut claimed = Vec::new();
                    view.for_each_adjacency(frontier[lo..hi].into(), &mut |v, nbrs| {
                        for &u in nbrs {
                            if parent[u as usize]
                                .compare_exchange(
                                    UNREACHED,
                                    v as i64,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                            {
                                claimed.push(u);
                            }
                        }
                    });
                    claimed
                })
                .collect()
        };
        explored_edges += next.iter().map(|&v| view.degree(v)).sum::<usize>();
        frontier = next;
    }
    parent.into_iter().map(AtomicI64::into_inner).collect()
}

/// Compute hop distances from a parent array (testing helper): `-1` for
/// unreached vertices.
pub fn distances_from_parents(view: &impl GraphView, parent: &[i64], source: VertexId) -> Vec<i64> {
    let _ = view;
    let n = parent.len();
    let mut dist = vec![-1i64; n];
    if n == 0 {
        return dist;
    }
    dist[source as usize] = 0;
    // Repeatedly relax: parents form a forest, so n passes suffice.
    for _ in 0..n {
        let mut changed = false;
        for v in 0..n {
            if dist[v] >= 0 || parent[v] == UNREACHED {
                continue;
            }
            let p = parent[v] as usize;
            if dist[p] >= 0 {
                dist[v] = dist[p] + 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{path4, two_triangles};
    use dgap::ReferenceGraph;

    #[test]
    fn path_graph_distances() {
        let g = path4();
        let p = bfs(&g, 0);
        let d = distances_from_parents(&g, &p, 0);
        assert_eq!(d, vec![0, 1, 2, 3]);
        assert_eq!(p[0], 0);
        assert_eq!(p[1], 0);
    }

    #[test]
    fn unreachable_vertices_stay_unreached() {
        let g = two_triangles();
        let p = bfs(&g, 0);
        assert_eq!(p[6], UNREACHED);
        assert!(p[..6].iter().all(|&x| x != UNREACHED));
    }

    #[test]
    fn parallel_reaches_the_same_vertices_at_the_same_depth() {
        let g = two_triangles();
        let ps = bfs(&g, 0);
        let pp = bfs_parallel(&g, 0);
        let ds = distances_from_parents(&g, &ps, 0);
        let dp = distances_from_parents(&g, &pp, 0);
        assert_eq!(ds, dp);
    }

    #[test]
    fn bottom_up_switch_on_dense_graph() {
        // A dense graph where most vertices are reached in one hop, forcing
        // the bottom-up heuristic to fire without changing the result.
        let n = 64u64;
        let mut g = ReferenceGraph::new(n as usize);
        for v in 1..n {
            g.add_edge(0, v);
            g.add_edge(v, 0);
            g.add_edge(v, (v % 7) + 1);
            g.add_edge((v % 7) + 1, v);
        }
        let ps = bfs(&g, 0);
        let pp = bfs_parallel(&g, 0);
        let ds = distances_from_parents(&g, &ps, 0);
        let dp = distances_from_parents(&g, &pp, 0);
        assert_eq!(ds, dp);
        assert!(ds[1..].iter().all(|&d| d >= 1));
    }

    #[test]
    fn source_out_of_range_returns_all_unreached() {
        let g = path4();
        let p = bfs(&g, 99);
        assert!(p.iter().all(|&x| x == UNREACHED));
        let p = bfs_parallel(&g, 99);
        assert!(p.iter().all(|&x| x == UNREACHED));
        let frozen = dgap::FrozenView::capture(&g);
        assert!(bfs_parallel(&frozen, 99).iter().all(|&x| x == UNREACHED));
    }

    #[test]
    fn csr_kernel_matches_distances_even_through_the_bottom_up_switch() {
        use dgap::FrozenView;
        // Dense hub graph: forces the bottom-up heuristic (as in
        // `bottom_up_switch_on_dense_graph`) over a CSR view's slices too.
        let n = 64u64;
        let mut g = ReferenceGraph::new(n as usize);
        for v in 1..n {
            g.add_edge(0, v);
            g.add_edge(v, 0);
            g.add_edge(v, (v % 7) + 1);
            g.add_edge((v % 7) + 1, v);
        }
        for g in [g, two_triangles(), path4()] {
            let frozen = FrozenView::capture(&g);
            let ds = distances_from_parents(&frozen, &bfs(&frozen, 0), 0);
            let dc = distances_from_parents(&frozen, &bfs_parallel(&frozen, 0), 0);
            assert_eq!(ds, dc);
        }
        assert!(bfs_parallel(&FrozenView::capture(&ReferenceGraph::new(0)), 0).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = ReferenceGraph::new(0);
        assert!(bfs(&g, 0).is_empty());
        assert!(bfs_parallel(&g, 0).is_empty());
    }
}
