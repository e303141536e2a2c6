//! # analytics — GAPBS-style graph kernels over [`GraphView`]
//!
//! The paper evaluates every system with the same four kernels from the GAP
//! Benchmark Suite (Table 1):
//!
//! | Kernel | Type | Notes |
//! |--------|------|-------|
//! | [`pagerank()`] | link analysis | fixed 20 iterations, damping 0.85 |
//! | [`bfs()`] | traversal | direction-optimizing (Beamer et al.) |
//! | [`bc()`] | shortest paths | Brandes, single source |
//! | [`cc()`] | connectivity | Shiloach–Vishkin style label propagation |
//!
//! All kernels are generic over [`GraphView`], so they run unchanged on
//! DGAP, on every baseline system, and on the in-memory
//! [`dgap::ReferenceGraph`] used as the test oracle.  Each of the four has
//! **one parallel kernel** (`*_parallel`), which the benchmark harness and
//! the service run with the pool sized to the requested thread count, and
//! a sequential implementation kept as the test oracle.
//!
//! The parallel kernels read adjacency through
//! [`GraphView::for_each_adjacency`], one call per vertex chunk.  Views
//! that hold flat CSR arrays ([`dgap::FrozenView`], the `sharded` crate's
//! unified cross-shard snapshot) answer it with borrowed neighbour slices:
//! one callback per vertex, no copy and no per-edge `&mut dyn FnMut` call.
//! DGAP's snapshot answers it with one lock and read-meter set-up per
//! chunk.  So the same kernel is the zero-dispatch path on a CSR view and
//! the batched path on a live snapshot.  PageRank is bit-identical to its
//! sequential oracle on every view, CC labels are
//! identical, BFS reaches the same vertices at the same depths, and BC
//! matches up to floating-point reassociation;
//! `tests/analytics_csr_parity.rs` and `tests/parallel_parity.rs` pin
//! this.  [`pagerank_csr`] remains as a name for [`pagerank_parallel`].
//!
//! Beyond the paper's four kernels, the CSR plane carries a wider serving
//! set — [`triangle_count_csr`], [`k_core_csr`], [`top_k_degree`] /
//! [`top_k_pagerank`], [`khop_neighborhood_csr`] — and an **incremental**
//! plane ([`incremental`]): [`pagerank_incremental`] / [`cc_incremental`]
//! seed from the previous epoch's result (the [`RankCache`] trajectory,
//! the old label vector) and re-relax only the neighbourhood of the
//! vertices whose adjacency changed, falling back to the full kernels
//! when the delta is too large or unsafe (see the module docs for the
//! exact contracts).
//!
//! Like GAPBS (and the paper's evaluation, which feeds every system the
//! same pre-processed inputs), the kernels treat the neighbour lists as the
//! adjacency of an undirected graph: PageRank pulls contributions over the
//! same lists it pushes to, and the bottom-up BFS step checks a vertex's
//! out-neighbours for frontier membership.  The synthetic workloads insert
//! each edge in both directions when symmetry matters (see the `workloads`
//! crate and EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod incremental;
pub mod kcore;
pub mod khop;
pub mod pagerank;
pub mod topk;
pub mod triangles;

pub use bc::{bc, bc_parallel};
pub use bfs::{bfs, bfs_parallel};
pub use cc::{cc, cc_parallel};
pub use incremental::{
    cc_incremental, pagerank_csr_recording, pagerank_incremental, IncrementalRun, RankCache,
    INCREMENTAL_FALLBACK_FRACTION, INCREMENTAL_PRUNE_TOLERANCE,
};
pub use kcore::k_core_csr;
pub use khop::khop_neighborhood_csr;
pub use pagerank::{pagerank, pagerank_csr, pagerank_parallel};
pub use topk::{top_k_degree, top_k_pagerank};
pub use triangles::triangle_count_csr;

use dgap::{GraphView, VertexId};
use rayon::prelude::*;
use std::cmp::Reverse;

/// Pick the highest-out-degree vertex as the traversal source, the common
/// GAPBS convention for reproducible BFS / BC runs.  Ties break towards the
/// lowest vertex id, so the choice is deterministic across runs and systems.
///
/// The scan is rayon-parallel: the benchmark harness calls this once per
/// trial on multi-million-vertex views, and `degree(v)` is not free on
/// every backend (LLAMA-like snapshots walk deltas, for instance).
pub fn highest_degree_vertex(view: &impl GraphView) -> VertexId {
    let n = view.num_vertices() as u64;
    (0..n)
        .into_par_iter()
        .map(|v| (view.degree(v), Reverse(v)))
        .max()
        .map(|(_, Reverse(v))| v)
        .unwrap_or(0)
}

/// Run `f` inside a rayon pool with `threads` worker threads.  Convenience
/// wrapper used by benchmarks and tests so kernels always see a pool of the
/// requested size regardless of the global default.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

#[cfg(test)]
pub(crate) mod testutil {
    use dgap::ReferenceGraph;

    /// A small undirected test graph: two triangles bridged by one edge,
    /// plus an isolated vertex.
    ///
    /// ```text
    ///   0 - 1       4 - 5
    ///    \  |       |  /
    ///      2 ------ 3          6 (isolated)
    /// ```
    pub fn two_triangles() -> ReferenceGraph {
        let mut g = ReferenceGraph::new(7);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(a, b);
            g.add_edge(b, a);
        }
        g
    }

    /// A directed path 0 -> 1 -> 2 -> 3 (inserted symmetrically).
    pub fn path4() -> ReferenceGraph {
        let mut g = ReferenceGraph::new(4);
        for &(a, b) in &[(0, 1), (1, 2), (2, 3)] {
            g.add_edge(a, b);
            g.add_edge(b, a);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::two_triangles;

    #[test]
    fn highest_degree_vertex_finds_the_hub() {
        let g = two_triangles();
        // Vertices 2 and 3 both have degree 3; the first one wins.
        assert_eq!(highest_degree_vertex(&g), 2);
    }

    #[test]
    fn highest_degree_vertex_breaks_ties_towards_lowest_id() {
        use dgap::ReferenceGraph;
        // Vertices 1, 4 and 9 all reach the same top degree (2); the lowest
        // id must win regardless of construction order.
        let mut g = ReferenceGraph::new(10);
        for &hub in &[9u64, 4, 1] {
            g.add_edge(hub, 0);
            g.add_edge(hub, 5);
        }
        assert_eq!(highest_degree_vertex(&g), 1);
        // Also pinned: the empty graph maps to vertex 0.
        assert_eq!(highest_degree_vertex(&ReferenceGraph::new(0)), 0);
    }

    #[test]
    fn with_threads_runs_the_closure() {
        let x = with_threads(2, rayon::current_num_threads);
        assert_eq!(x, 2);
    }
}
