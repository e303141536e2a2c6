//! Sequential-vs-parallel parity on a graph with deletions.
//!
//! The kernels run on a persistent work-stealing pool and
//! `FrozenView::capture` is parallel.  These tests pin the contract that
//! none of that changes *answers*: every `*_parallel`
//! kernel must agree with its sequential sibling at 1, 2 and 8 threads, and
//! the parallel capture must produce byte-identical snapshots to the
//! sequential baseline — on a graph where tombstones make the resolved
//! adjacency differ from the raw insert stream.
//!
//! The kernels run on a frozen CSR capture, on the sharded graph's unified
//! CSR and directly on a DGAP snapshot.  The parallel kernels read through
//! the batched `GraphView::for_each_adjacency` path (borrowed slices on the
//! two CSR views, a chunked copy on the DGAP snapshot) and the sequential
//! oracles through per-vertex `for_each_neighbor`, so the read paths are
//! checked against each other too.

use analytics::{
    bc, bc_parallel, bfs, bfs_parallel, cc, cc_parallel, pagerank, pagerank_parallel, with_threads,
};
use dgap::{Dgap, DgapConfig, DynamicGraph, FrozenView, GraphView, SnapshotSource};
use pmem::{PmemConfig, PmemPool};
use sharded::{ShardedGraph, UnifiedView};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Vertices of the test graph: large enough to cross the parallel-capture
/// thresholds.
const N: u64 = 6_000;

fn pool_config() -> PmemConfig {
    PmemConfig::with_capacity(96 << 20).persistence_tracking(false)
}

/// An undirected-ish ring with chords: every vertex links to +1, +7 and
/// +131 (mod N), both directions, so the kernels see one big connected
/// component with varied degrees.  Then the +7 chord of every third vertex
/// is deleted (both directions): resolved adjacency now differs from the
/// insert stream.
fn load_ring_with_deleted_chords(graph: &impl DynamicGraph) {
    for v in 0..N {
        for step in [1u64, 7, 131] {
            let u = (v + step) % N;
            graph.insert_edge(v, u).expect("insert");
            graph.insert_edge(u, v).expect("insert");
        }
    }
    for v in (0..N).step_by(3) {
        let u = (v + 7) % N;
        assert!(graph.delete_edge(v, u).expect("delete"));
        assert!(graph.delete_edge(u, v).expect("delete"));
    }
}

/// The test graph on a deterministic multi-shard DGAP.
fn deleted_edges_graph() -> ShardedGraph<Dgap> {
    let graph = ShardedGraph::create_dgap(3, N as usize, 64 << 10, |_| pool_config())
        .expect("create sharded DGAP");
    load_ring_with_deleted_chords(&graph);
    graph
}

/// The test graph on one DGAP instance, whose snapshots serve the kernels'
/// batched reads themselves.
fn deleted_edges_dgap() -> Dgap {
    let pool = Arc::new(PmemPool::new(pool_config()));
    let graph =
        Dgap::create(pool, DgapConfig::for_graph(N as usize, 7 * N as usize)).expect("create DGAP");
    load_ring_with_deleted_chords(&graph);
    graph
}

/// Run `check` on every kind of view the parallel kernels must agree on:
/// a frozen CSR capture of the sharded graph, the sharded graph's unified
/// CSR, and a live DGAP snapshot.
fn on_every_view(check: impl Fn(&dyn GraphView, &str)) {
    let sharded = deleted_edges_graph();
    let frozen = FrozenView::capture(&sharded.consistent_view());
    check(&frozen, "frozen");
    let unified = UnifiedView::unify(&sharded.consistent_view_arc());
    check(&unified, "unified");
    let dgap = deleted_edges_dgap();
    check(&dgap.consistent_view(), "dgap");
}

#[test]
fn frozen_capture_parallel_matches_sequential_with_deletions() {
    let graph = deleted_edges_graph();
    let view = graph.consistent_view();
    let seq = FrozenView::capture_sequential(&view);
    for threads in THREAD_COUNTS {
        let par = with_threads(threads, || FrozenView::capture(&view));
        assert_eq!(par, seq, "capture diverged at {threads} threads");
    }
    // Sanity: the deletions are visible in the snapshot.
    assert!(seq.num_edges() < 6_000 * 6);
    assert_eq!(seq.num_edges(), GraphView::num_edges(&seq));
    assert!(!seq.neighbors(0).contains(&7), "deleted chord resurfaced");
}

#[test]
fn pagerank_parallel_matches_sequential_at_every_thread_count() {
    on_every_view(|view, what| {
        let reference = pagerank(&view, 20);
        for threads in THREAD_COUNTS {
            // Same fp ops in the same order: bit-identical on every view.
            let ranks = with_threads(threads, || pagerank_parallel(&view, 20));
            assert_eq!(
                ranks, reference,
                "{what}: ranks diverged at {threads} threads"
            );
        }
    });
}

#[test]
fn bfs_parallel_matches_sequential_at_every_thread_count() {
    on_every_view(|view, what| {
        let seq_parents = bfs(&view, 0);
        let seq_dist = analytics::bfs::distances_from_parents(&view, &seq_parents, 0);
        for threads in THREAD_COUNTS {
            let parents = with_threads(threads, || bfs_parallel(&view, 0));
            // Parent choices may legitimately differ between same-level
            // claimants; the reached set and every hop distance are exact.
            let dist = analytics::bfs::distances_from_parents(&view, &parents, 0);
            assert_eq!(dist, seq_dist, "{what}: BFS diverged at {threads} threads");
        }
    });
}

#[test]
fn cc_parallel_matches_sequential_at_every_thread_count() {
    on_every_view(|view, what| {
        let seq_labels = cc(&view);
        for threads in THREAD_COUNTS {
            let labels = with_threads(threads, || cc_parallel(&view));
            assert_eq!(
                labels, seq_labels,
                "{what}: CC diverged at {threads} threads"
            );
        }
    });
}

#[test]
fn bc_parallel_matches_sequential_at_every_thread_count() {
    on_every_view(|view, what| {
        let reference = bc(&view, 0);
        for threads in THREAD_COUNTS {
            let scores = with_threads(threads, || bc_parallel(&view, 0));
            assert_eq!(scores.len(), reference.len());
            for (v, (a, b)) in scores.iter().zip(&reference).enumerate() {
                // Atomic float adds reassociate: compare relatively.
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                    "{what}: score of vertex {v} diverged at {threads} threads: {a} vs {b}"
                );
            }
        }
    });
}
