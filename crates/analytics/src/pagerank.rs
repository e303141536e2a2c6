//! PageRank with a fixed iteration count (GAPBS `pr`, Table 1: 20
//! iterations, damping factor 0.85).

use dgap::chunks::{ranges, SendPtr};
use dgap::{CsrView, GraphView};
use rayon::prelude::*;

/// Damping factor used by the paper's GAPBS configuration.
pub const DAMPING: f64 = 0.85;

/// Default iteration count (Table 1).
pub const DEFAULT_ITERATIONS: usize = 20;

/// Sequential PageRank: returns one rank per vertex after `iterations`
/// pull-style iterations.
pub fn pagerank(view: &impl GraphView, iterations: usize) -> Vec<f64> {
    let n = view.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let base = (1.0 - DAMPING) / n as f64;
    let mut ranks = vec![1.0 / n as f64; n];
    let mut contrib = vec![0.0f64; n];
    for _ in 0..iterations {
        for (v, c) in contrib.iter_mut().enumerate() {
            let d = view.degree(v as u64);
            *c = if d == 0 { 0.0 } else { ranks[v] / d as f64 };
        }
        for (v, r) in ranks.iter_mut().enumerate() {
            let mut sum = 0.0;
            view.for_each_neighbor(v as u64, &mut |u| {
                sum += contrib[u as usize];
            });
            *r = base + DAMPING * sum;
        }
    }
    ranks
}

/// Rayon-parallel PageRank; bit-identical to [`pagerank`] (the pull model
/// writes each vertex's rank exactly once per iteration, so no atomics are
/// needed, and each sum accumulates left-to-right over the same neighbour
/// order).  Both passes run in vertex chunks on the work-stealing pool; the
/// pull pass reads adjacency with one [`GraphView::for_each_adjacency`]
/// call per chunk, which CSR views answer with borrowed slices.
pub fn pagerank_parallel(view: &impl GraphView, iterations: usize) -> Vec<f64> {
    pagerank_run(view, iterations, |_| {})
}

/// PageRank over a CSR view: the same kernel as [`pagerank_parallel`], kept
/// under this name for callers that predate the single kernel.
pub fn pagerank_csr(view: &impl CsrView, iterations: usize) -> Vec<f64> {
    pagerank_parallel(view, iterations)
}

/// The one parallel PageRank loop: [`pagerank_parallel`] and
/// [`crate::pagerank_csr_recording`] both run it, so a recorded trajectory
/// is bit-identical to the plain kernel by construction.  `on_iteration`
/// sees the uniform seed and then the rank vector after every iteration.
pub(crate) fn pagerank_run(
    view: &impl GraphView,
    iterations: usize,
    mut on_iteration: impl FnMut(&[f64]),
) -> Vec<f64> {
    let n = view.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let base = (1.0 - DAMPING) / n as f64;
    let mut ranks = vec![1.0 / n as f64; n];
    let mut contrib = vec![0.0f64; n];
    let chunk_ranges = ranges(n);
    on_iteration(&ranks);
    for _ in 0..iterations {
        {
            let ranks = &ranks;
            let dst = SendPtr(contrib.as_mut_ptr());
            chunk_ranges.par_iter().for_each(|&(lo, hi)| {
                for (off, &rank) in ranks[lo..hi].iter().enumerate() {
                    let v = lo + off;
                    let d = view.degree(v as u64);
                    let c = if d == 0 { 0.0 } else { rank / d as f64 };
                    // SAFETY: `v < hi <= n == contrib.len()`, and chunks are
                    // disjoint, so each index is written once and no task
                    // reads `contrib` during this pass.
                    unsafe { *dst.get().add(v) = c };
                }
            });
        }
        {
            let contrib = &contrib;
            let dst = SendPtr(ranks.as_mut_ptr());
            chunk_ranges.par_iter().for_each(|&(lo, hi)| {
                view.for_each_adjacency((lo as u64..hi as u64).into(), &mut |v, nbrs| {
                    let mut sum = 0.0;
                    for &u in nbrs {
                        sum += contrib[u as usize];
                    }
                    let v = v as usize;
                    assert!((lo..hi).contains(&v), "batched read left its chunk");
                    // SAFETY: `v` lies in this task's chunk (checked above)
                    // and chunks are disjoint, so each index is written once
                    // and no task reads `ranks` during this pass.
                    unsafe { *dst.get().add(v) = base + DAMPING * sum };
                });
            });
        }
        on_iteration(&ranks);
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{path4, two_triangles};
    use dgap::ReferenceGraph;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn ranks_sum_to_roughly_one_on_connected_graphs() {
        let g = two_triangles();
        let r = pagerank(&g, 20);
        let sum: f64 = r.iter().sum();
        // Vertex 6 is isolated and leaks rank, so the sum is slightly below 1.
        assert!(sum > 0.8 && sum <= 1.0 + 1e-9, "sum = {sum}");
    }

    #[test]
    fn hubs_rank_higher_than_leaves() {
        let g = two_triangles();
        let r = pagerank(&g, 20);
        assert!(r[2] > r[0]);
        assert!(r[3] > r[5]);
        assert!(r[6] < r[0], "isolated vertex has the lowest rank");
    }

    #[test]
    fn symmetric_path_is_symmetric() {
        let g = path4();
        let r = pagerank(&g, 30);
        assert!((r[0] - r[3]).abs() < 1e-9);
        assert!((r[1] - r[2]).abs() < 1e-9);
        assert!(r[1] > r[0]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = two_triangles();
        assert_close(&pagerank(&g, 20), &pagerank_parallel(&g, 20));
        let g = path4();
        assert_close(&pagerank(&g, 7), &pagerank_parallel(&g, 7));
    }

    #[test]
    fn csr_kernel_is_bit_identical_to_sequential() {
        use dgap::FrozenView;
        for g in [two_triangles(), path4()] {
            let frozen = FrozenView::capture(&g);
            let seq_ranks = pagerank(&frozen, 20);
            assert_eq!(
                seq_ranks,
                pagerank_parallel(&frozen, 20),
                "same fp ops in the same order"
            );
            assert_eq!(seq_ranks, pagerank_csr(&frozen, 20));
        }
        assert!(pagerank_parallel(&FrozenView::capture(&ReferenceGraph::new(0)), 5).is_empty());
    }

    #[test]
    fn empty_and_zero_iteration_cases() {
        let empty = ReferenceGraph::new(0);
        assert!(pagerank(&empty, 5).is_empty());
        let g = path4();
        let r = pagerank(&g, 0);
        assert!(r.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn uniform_ring_yields_uniform_ranks() {
        let mut g = ReferenceGraph::new(5);
        for v in 0..5u64 {
            g.add_edge(v, (v + 1) % 5);
            g.add_edge((v + 1) % 5, v);
        }
        let r = pagerank(&g, 25);
        for &x in &r {
            assert!((x - 0.2).abs() < 1e-9);
        }
    }
}
