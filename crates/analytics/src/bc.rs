//! Betweenness centrality (GAPBS `bc`): Brandes' algorithm from a single
//! source, the approximation the paper's Table 1 lists ("Brandes approx.
//! algorithm" with one source vertex).
//!
//! The forward phase is a level-synchronous BFS that counts shortest paths
//! (`sigma`); the backward phase walks the levels in reverse accumulating
//! dependencies (`delta`).  The parallel variant parallelises both phases
//! per level; dependency accumulation uses an atomic compare-exchange loop
//! on the `f64` bit pattern, the standard trick for atomic floating-point
//! adds.

use dgap::chunks::ranges;
use dgap::{GraphView, VertexId};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sequential Brandes betweenness centrality from `source`.  Returns one
/// (unnormalised) centrality score per vertex.
pub fn bc(view: &impl GraphView, source: VertexId) -> Vec<f64> {
    let n = view.num_vertices();
    let mut centrality = vec![0.0f64; n];
    if n == 0 || source as usize >= n {
        return centrality;
    }
    let mut sigma = vec![0.0f64; n];
    let mut depth = vec![-1i64; n];
    sigma[source as usize] = 1.0;
    depth[source as usize] = 0;

    // Forward: level-synchronous BFS recording shortest-path counts.
    let mut levels: Vec<Vec<VertexId>> = vec![vec![source]];
    loop {
        let frontier = levels.last().unwrap();
        let d = levels.len() as i64;
        let mut next = Vec::new();
        for &v in frontier {
            let sv = sigma[v as usize];
            view.for_each_neighbor(v, &mut |u| {
                let ui = u as usize;
                if depth[ui] == -1 {
                    depth[ui] = d;
                    next.push(u);
                }
                if depth[ui] == d {
                    sigma[ui] += sv;
                }
            });
        }
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }

    // Backward: accumulate dependencies level by level.
    let mut delta = vec![0.0f64; n];
    for level in levels.iter().rev() {
        for &v in level {
            let vi = v as usize;
            let dv = depth[vi];
            let mut acc = 0.0;
            view.for_each_neighbor(v, &mut |u| {
                let ui = u as usize;
                if depth[ui] == dv + 1 && sigma[ui] > 0.0 {
                    acc += sigma[vi] / sigma[ui] * (1.0 + delta[ui]);
                }
            });
            delta[vi] = acc;
            if v != source {
                centrality[vi] += acc;
            }
        }
    }
    centrality
}

fn atomic_add_f64(cell: &AtomicU64, add: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = f64::from_bits(cur) + add;
        match cell.compare_exchange(cur, new.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Rayon-parallel Brandes betweenness centrality.  Produces the same scores
/// as [`bc`] up to floating-point reassociation.  Every phase reads
/// adjacency with one [`GraphView::for_each_adjacency`] call per chunk of
/// the current level.
pub fn bc_parallel(view: &impl GraphView, source: VertexId) -> Vec<f64> {
    let n = view.num_vertices();
    if n == 0 || source as usize >= n {
        return vec![0.0; n];
    }
    let sigma: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect();
    let depth: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    sigma[source as usize].store(1f64.to_bits(), Ordering::Relaxed);
    depth[source as usize].store(0, Ordering::Relaxed);

    let mut levels: Vec<Vec<VertexId>> = vec![vec![source]];
    loop {
        let frontier = levels.last().unwrap();
        let d = levels.len() as u64;
        // Discover the next level (claim via CAS on depth).
        let next: Vec<VertexId> = ranges(frontier.len())
            .into_par_iter()
            .flat_map_iter(|(lo, hi)| {
                let mut claimed = Vec::new();
                view.for_each_adjacency(frontier[lo..hi].into(), &mut |_, nbrs| {
                    for &u in nbrs {
                        if depth[u as usize]
                            .compare_exchange(u64::MAX, d, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                        {
                            claimed.push(u);
                        }
                    }
                });
                claimed
            })
            .collect();
        // Accumulate path counts into the new level.
        ranges(frontier.len()).into_par_iter().for_each(|(lo, hi)| {
            view.for_each_adjacency(frontier[lo..hi].into(), &mut |v, nbrs| {
                let sv = f64::from_bits(sigma[v as usize].load(Ordering::Relaxed));
                for &u in nbrs {
                    if depth[u as usize].load(Ordering::Relaxed) == d {
                        atomic_add_f64(&sigma[u as usize], sv);
                    }
                }
            });
        });
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }

    let delta: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect();
    let centrality: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect();
    for (li, level) in levels.iter().enumerate().rev() {
        let d = li as u64;
        ranges(level.len()).into_par_iter().for_each(|(lo, hi)| {
            view.for_each_adjacency(level[lo..hi].into(), &mut |v, nbrs| {
                let vi = v as usize;
                let sv = f64::from_bits(sigma[vi].load(Ordering::Relaxed));
                let mut acc = 0.0;
                for &u in nbrs {
                    let ui = u as usize;
                    if depth[ui].load(Ordering::Relaxed) == d + 1 {
                        let su = f64::from_bits(sigma[ui].load(Ordering::Relaxed));
                        if su > 0.0 {
                            let du = f64::from_bits(delta[ui].load(Ordering::Relaxed));
                            acc += sv / su * (1.0 + du);
                        }
                    }
                }
                delta[vi].store(acc.to_bits(), Ordering::Relaxed);
                if v != source {
                    atomic_add_f64(&centrality[vi], acc);
                }
            });
        });
    }
    centrality
        .into_iter()
        .map(|c| f64::from_bits(c.into_inner()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{path4, two_triangles};
    use dgap::ReferenceGraph;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn path_graph_centrality_from_endpoint() {
        // Path 0-1-2-3, source 0: vertex 1 lies on paths to 2 and 3 (delta
        // 2), vertex 2 on the path to 3 (delta 1), endpoints get 0.
        let g = path4();
        let c = bc(&g, 0);
        assert_close(&c, &[0.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn bridge_vertices_score_highest() {
        let g = two_triangles();
        let c = bc(&g, 0);
        // Vertices 2 and 3 bridge the two triangles: every path from 0 to
        // {4, 5} crosses them.
        assert!(c[2] > c[1]);
        assert!(c[3] > c[4]);
        assert_eq!(c[6], 0.0, "isolated vertex");
    }

    #[test]
    fn parallel_matches_sequential() {
        for source in [0u64, 2, 3] {
            let g = two_triangles();
            assert_close(&bc(&g, source), &bc_parallel(&g, source));
        }
        let g = path4();
        assert_close(&bc(&g, 1), &bc_parallel(&g, 1));
    }

    #[test]
    fn star_centre_dominates() {
        let mut g = ReferenceGraph::new(6);
        for v in 1..6u64 {
            g.add_edge(0, v);
            g.add_edge(v, 0);
        }
        let c = bc(&g, 1);
        assert!(c[0] > 0.0);
        for &leaf in &c[2..6] {
            assert_eq!(leaf, 0.0);
        }
    }

    #[test]
    fn out_of_range_source_and_empty_graph() {
        let g = path4();
        assert!(bc(&g, 50).iter().all(|&x| x == 0.0));
        let e = ReferenceGraph::new(0);
        assert!(bc(&e, 0).is_empty());
        assert!(bc_parallel(&e, 0).is_empty());
        let frozen = dgap::FrozenView::capture(&e);
        assert!(bc_parallel(&frozen, 0).is_empty());
        assert!(bc_parallel(&dgap::FrozenView::capture(&g), 50)
            .iter()
            .all(|&x| x == 0.0));
    }

    #[test]
    fn csr_kernel_matches_sequential_scores() {
        use dgap::FrozenView;
        for source in [0u64, 2, 3] {
            let frozen = FrozenView::capture(&two_triangles());
            assert_close(&bc(&frozen, source), &bc_parallel(&frozen, source));
        }
        let frozen = FrozenView::capture(&path4());
        assert_close(&bc(&frozen, 1), &bc_parallel(&frozen, 1));
    }
}
