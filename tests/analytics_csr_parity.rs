//! The parallel kernels over the unified CSR vs the sequential kernels vs
//! the oracle.
//!
//! `sharded::UnifiedView` merges every shard into one CSR whose batched
//! read hands the `analytics::*_parallel` kernels borrowed neighbour
//! slices.  These tests pin the contract that this fast read changes *no
//! answers*: on a deleted-edges graph at 1/2/4 shards, every kernel over
//! the unified CSR must agree with the sequential kernel (PageRank
//! bit-identical, exact BFS distances with valid parents, exact CC labels)
//! and with the in-memory `ReferenceGraph` oracle; and the unified CSR's
//! incremental refresh must reuse untouched shards' spans after a
//! single-shard write burst while producing exactly the CSR a full merge
//! would.

use analytics::{bc, bc_parallel, bfs, bfs_parallel, cc, cc_parallel, pagerank, pagerank_parallel};
use dgap::{DynamicGraph, GraphView, ReferenceGraph};
use pmem::PmemConfig;
use sharded::{ShardedGraph, UnifiedView};
use std::sync::Arc;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// A deterministic graph with varied degrees and a deletion pass, plus the
/// matching oracle: ring with +1/+7/+131 chords (both directions), then
/// the +7 chord deleted from every third vertex.
fn deleted_edges_graph(shards: usize) -> (ShardedGraph<dgap::Dgap>, ReferenceGraph) {
    let n: u64 = 3_000;
    let graph = ShardedGraph::create_dgap(shards, n as usize, 48 << 10, |_| {
        PmemConfig::with_capacity(96 << 20).persistence_tracking(false)
    })
    .expect("create sharded DGAP");
    let mut oracle = ReferenceGraph::new(n as usize);
    for v in 0..n {
        for step in [1u64, 7, 131] {
            let u = (v + step) % n;
            graph.insert_edge(v, u).expect("insert");
            graph.insert_edge(u, v).expect("insert");
            oracle.add_edge(v, u);
            oracle.add_edge(u, v);
        }
    }
    for v in (0..n).step_by(3) {
        let u = (v + 7) % n;
        assert!(graph.delete_edge(v, u).expect("delete"));
        assert!(graph.delete_edge(u, v).expect("delete"));
        oracle.remove_edge(v, u);
        oracle.remove_edge(u, v);
    }
    (graph, oracle)
}

#[test]
fn unified_view_matches_the_oracle_at_every_shard_count() {
    for shards in SHARD_COUNTS {
        let (graph, oracle) = deleted_edges_graph(shards);
        let owned = graph.consistent_view_arc();
        let unified = UnifiedView::unify(&owned);
        assert_eq!(unified.num_edges(), oracle.num_edges(), "{shards} shards");
        for v in (0..3_000u64).step_by(97) {
            assert_eq!(
                unified.neighbor_slice(v),
                &oracle.neighbors(v)[..],
                "{shards} shards, vertex {v}"
            );
        }
    }
}

#[test]
fn pagerank_over_the_unified_csr_is_bit_identical_to_the_dyn_kernel() {
    for shards in SHARD_COUNTS {
        let (graph, oracle) = deleted_edges_graph(shards);
        let owned = graph.consistent_view_arc();
        let unified = UnifiedView::unify(&owned);
        // Sequential kernel over the shard-routed composite, parallel
        // kernel over the unified CSR, sequential oracle run over the
        // reference graph: the same fp ops in the same order.
        let dyn_ranks = pagerank(&*owned, 20);
        let csr_ranks = pagerank_parallel(&unified, 20);
        let oracle_ranks = pagerank(&oracle, 20);
        assert_eq!(csr_ranks, dyn_ranks, "{shards} shards");
        assert_eq!(csr_ranks, oracle_ranks, "{shards} shards");
    }
}

#[test]
fn bfs_csr_reaches_the_same_distances_with_valid_parents() {
    for shards in SHARD_COUNTS {
        let (graph, oracle) = deleted_edges_graph(shards);
        let unified = UnifiedView::unify(&graph.consistent_view_arc());
        let dyn_parents = bfs(&oracle, 0);
        let dyn_dist = analytics::bfs::distances_from_parents(&oracle, &dyn_parents, 0);
        let csr_parents = bfs_parallel(&unified, 0);
        let csr_dist = analytics::bfs::distances_from_parents(&unified, &csr_parents, 0);
        assert_eq!(csr_dist, dyn_dist, "{shards} shards");
        // Parent validity: every reached non-source vertex hangs off a
        // real edge from a vertex one hop closer to the source.
        for (v, &p) in csr_parents.iter().enumerate() {
            if v as u64 == 0 {
                assert_eq!(p, 0, "the source is its own parent");
                continue;
            }
            if p == analytics::bfs::UNREACHED {
                assert_eq!(csr_dist[v], -1);
                continue;
            }
            assert!(
                oracle.neighbors(p as u64).contains(&(v as u64)),
                "{shards} shards: parent {p} of {v} is not a neighbour"
            );
            assert_eq!(
                csr_dist[p as usize] + 1,
                csr_dist[v],
                "{shards} shards: parent {p} of {v} is not one hop closer"
            );
        }
    }
}

#[test]
fn cc_csr_produces_identical_labels() {
    for shards in SHARD_COUNTS {
        let (graph, oracle) = deleted_edges_graph(shards);
        let unified = UnifiedView::unify(&graph.consistent_view_arc());
        assert_eq!(cc_parallel(&unified), cc(&oracle), "{shards} shards");
    }
}

#[test]
fn bc_csr_matches_the_dyn_kernel() {
    let (graph, oracle) = deleted_edges_graph(2);
    let unified = UnifiedView::unify(&graph.consistent_view_arc());
    let dyn_scores = bc(&oracle, 0);
    let csr_scores = bc_parallel(&unified, 0);
    assert_eq!(csr_scores.len(), dyn_scores.len());
    for (v, (c, d)) in csr_scores.iter().zip(&dyn_scores).enumerate() {
        assert!((c - d).abs() < 1e-9, "vertex {v}: csr {c} vs dyn {d}");
    }
}

#[test]
fn unified_refresh_reuses_untouched_spans_after_a_single_shard_burst() {
    let shards = 4usize;
    let (graph, mut oracle) = deleted_edges_graph(shards);
    let owned = graph.consistent_view_arc();
    let first = UnifiedView::unify(&owned);
    assert_eq!(first.merged_shards(), shards, "full merge pays every shard");

    // A write burst confined to one shard: every touched source vertex
    // hashes to the same shard as vertex 0.
    let touched = graph.shard_of(0);
    let sources: Vec<u64> = (0..3_000u64)
        .filter(|&v| graph.shard_of(v) == touched)
        .take(32)
        .collect();
    for (i, &v) in sources.iter().enumerate() {
        let u = (v + 977 + i as u64) % 3_000;
        graph.insert_edge(v, u).expect("insert");
        oracle.add_edge(v, u);
    }

    // Incremental composite recapture (only the touched shard), then the
    // incremental unified re-merge on top of it.
    let reuse: Vec<Option<Arc<dgap::FrozenView>>> = (0..shards)
        .map(|s| (s != touched).then(|| owned.shard_view_arc(s)))
        .collect();
    let owned2 = Arc::new(graph.owned_view_reusing(reuse));
    let second = first.refreshed(&owned2);

    assert_eq!(second.merged_shards(), 1, "one shard's spans re-merged");
    assert_eq!(second.reused_shards(), shards - 1);
    for s in 0..shards {
        assert_eq!(second.shard_was_merged(s), s == touched, "shard {s}");
        if s != touched {
            assert!(
                Arc::ptr_eq(&first.source_arc(s), &second.source_arc(s)),
                "untouched shard {s} must carry its Arc<FrozenView> over"
            );
        }
    }
    assert!(!Arc::ptr_eq(
        &first.source_arc(touched),
        &second.source_arc(touched)
    ));

    // The incrementally refreshed CSR answers exactly like a full merge
    // and like the oracle — including through the kernels.
    let full = UnifiedView::unify(&owned2);
    assert_eq!(second.num_edges(), oracle.num_edges());
    for v in 0..3_000u64 {
        assert_eq!(
            second.neighbor_slice(v),
            full.neighbor_slice(v),
            "vertex {v}"
        );
        assert_eq!(
            second.neighbor_slice(v),
            &oracle.neighbors(v)[..],
            "vertex {v}"
        );
    }
    assert_eq!(pagerank_parallel(&second, 20), pagerank(&oracle, 20));
    assert_eq!(cc_parallel(&second), cc(&oracle));
}
