//! The incremental analytics plane end-to-end: epoch deltas from
//! `UnifiedView::refreshed`, the incremental PageRank/CC kernels seeded
//! from the previous epoch's results, and the service's hit/fallback
//! accounting.
//!
//! The core contract, pinned at 1/2/4 shards across randomized
//! insert/delete bursts: after **every** epoch the incremental answer
//! equals the full parallel kernel's answer equals the in-memory
//! `ReferenceGraph` oracle (PageRank within 1e-9 per vertex, CC labels
//! exactly).  Deletion epochs additionally pin the declared fallbacks:
//! incremental CC declines (a lost edge can split a component) while
//! incremental PageRank absorbs them.

use analytics::{cc, cc_parallel, pagerank_csr_recording, pagerank_incremental, pagerank_parallel};
use dgap::{DynamicGraph, ReferenceGraph, Update};
use pmem::PmemConfig;
use service::{GraphService, Query, QueryResult, ServiceConfig};
use sharded::{ShardedConfig, ShardedGraph, UnifiedView};
use std::sync::Arc;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const N: u64 = 600;
const ITERS: usize = 20;

fn assert_ranks_within(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() <= tol, "{what}: vertex {v}: {x} vs {y}");
    }
}

/// Seed a ring over all N vertices (so the vertex range is stable and the
/// graph is connected enough to be interesting) plus pseudo-random chords.
fn seeded_graph(shards: usize, seed: u64) -> (ShardedGraph<dgap::Dgap>, ReferenceGraph) {
    let graph = ShardedGraph::create_dgap(shards, N as usize, 48 << 10, |_| {
        PmemConfig::with_capacity(64 << 20).persistence_tracking(false)
    })
    .expect("create sharded DGAP");
    let mut oracle = ReferenceGraph::new(N as usize);
    let insert = |g: &ShardedGraph<dgap::Dgap>, o: &mut ReferenceGraph, a: u64, b: u64| {
        g.insert_edge(a, b).expect("insert");
        g.insert_edge(b, a).expect("insert");
        o.add_edge(a, b);
        o.add_edge(b, a);
    };
    for v in 0..N {
        insert(&graph, &mut oracle, v, (v + 1) % N);
    }
    let mut x = seed;
    for _ in 0..N {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let a = (x >> 33) % N;
        let b = (x >> 11) % N;
        insert(&graph, &mut oracle, a, b);
    }
    (graph, oracle)
}

#[test]
fn incremental_kernels_match_full_and_oracle_across_random_bursts() {
    for shards in SHARD_COUNTS {
        let (graph, mut oracle) = seeded_graph(shards, 41 + shards as u64);
        let mut unified = UnifiedView::unify(&graph.consistent_view_arc());
        let mut rank_cache = pagerank_csr_recording(&unified, ITERS);
        let mut labels = cc_parallel(&unified);

        let mut x = 1000 + shards as u64;
        for epoch in 0..6 {
            // Bursts 0..3 are insert-only; 4 and 5 also delete ring edges
            // (guaranteed present and never re-inserted, so the delta's
            // deletion flag is deterministic).
            let deleting = epoch >= 4;
            let mut changed_oracle: Vec<u64> = Vec::new();
            for _ in 0..4 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = (x >> 33) % N;
                let b = (x >> 11) % N;
                oracle.add_edge(a, b);
                oracle.add_edge(b, a);
                graph.insert_edge(a, b).expect("insert");
                graph.insert_edge(b, a).expect("insert");
                changed_oracle.extend([a, b]);
            }
            if deleting {
                for &a in &[37 + 100 * epoch as u64, 61 + 100 * epoch as u64] {
                    let b = a + 1;
                    assert!(oracle.remove_edge(a, b));
                    oracle.remove_edge(b, a);
                    assert!(graph.delete_edge(a, b).expect("delete"));
                    assert!(graph.delete_edge(b, a).expect("delete"));
                    changed_oracle.extend([a, b]);
                }
            }
            changed_oracle.sort_unstable();
            changed_oracle.dedup();

            let next = unified.refreshed(&graph.consistent_view_arc());
            let delta = next.delta().expect("refreshed views carry a delta");
            // The delta covers every vertex the burst touched (log-structured
            // appends may flag more vertices in re-merged shards, never
            // fewer — and only ones whose bytes actually changed).
            for &v in &changed_oracle {
                assert!(
                    delta.changed_vertices().contains(&v),
                    "{shards} shards, epoch {epoch}: burst vertex {v} missing from delta"
                );
            }
            assert_eq!(
                delta.has_deletions(),
                deleting,
                "{shards} shards, epoch {epoch}: deletion flag"
            );

            // PageRank: incremental == full == oracle, whether or not the
            // burst deleted edges.
            let run = pagerank_incremental(&next, &rank_cache, delta.changed_vertices())
                .expect("small burst stays incremental");
            let full = pagerank_parallel(&next, ITERS);
            assert_ranks_within(run.cache.ranks(), &full, 1e-9, "incremental vs full");
            let oracle_ranks = analytics::pagerank(&oracle, ITERS);
            assert_ranks_within(&full, &oracle_ranks, 1e-12, "full vs oracle");
            assert!(run.frontier_peak >= 1);
            rank_cache = run.cache;

            // CC: exact on insert-only epochs, declared fallback on
            // deletions.
            let incr = analytics::cc_incremental(
                &next,
                &labels,
                delta.changed_vertices(),
                delta.has_deletions(),
            );
            labels = cc_parallel(&next);
            assert_eq!(labels, cc(&oracle), "{shards} shards, epoch {epoch}");
            match incr {
                Some(merged) => {
                    assert!(!deleting);
                    assert_eq!(
                        merged, labels,
                        "{shards} shards, epoch {epoch}: incremental CC exact"
                    );
                }
                None => assert!(
                    deleting,
                    "{shards} shards, epoch {epoch}: CC only declines deletions"
                ),
            }
            unified = next;
        }
    }
}

#[test]
fn a_noop_epoch_yields_an_empty_delta_and_a_frontierless_replay() {
    let (graph, _oracle) = seeded_graph(2, 7);
    let unified = UnifiedView::unify(&graph.consistent_view_arc());
    let cache = pagerank_csr_recording(&unified, ITERS);
    // Insert + delete of the same edge nets out to byte-identical shards.
    graph.insert_edge(3, 500).expect("insert");
    assert!(graph.delete_edge(3, 500).expect("delete"));
    let next = unified.refreshed(&graph.consistent_view_arc());
    let delta = next.delta().expect("delta present");
    assert!(delta.is_empty(), "no adjacency changed");
    assert!(!delta.has_deletions());
    let run = pagerank_incremental(&next, &cache, delta.changed_vertices()).expect("no-op");
    assert_eq!(run.cache.ranks(), cache.ranks());
    assert_eq!(run.frontier_peak, 0);
    assert_eq!(run.recomputed, 0);
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        sharded: ShardedConfig::small_test(),
        workers: 2,
        num_vertices: 256,
        num_edges: 1 << 14,
        pool_bytes: 24 << 20,
        ..ServiceConfig::default()
    }
}

/// Seed a ring over the service's full vertex range, symmetrically.
fn seed_service_ring(client: &service::GraphClient, n: u64) {
    let mut ops = Vec::new();
    for v in 0..n {
        ops.push(Update::InsertEdge(v, (v + 1) % n));
        ops.push(Update::InsertEdge((v + 1) % n, v));
    }
    let t = client.mutate(ops).expect("seed");
    client.wait(&t).expect("wait seed");
}

#[test]
fn a_single_shard_burst_advances_the_incremental_hit_counters() {
    let service = GraphService::start(service_config()).unwrap();
    let client = service.client();
    seed_service_ring(&client, 256);
    // Warm the analytics cache (cold computes: neither hit nor fallback).
    let _ = client.query(Query::Pagerank { iterations: ITERS }).unwrap();
    let _ = client.query(Query::ConnectedComponents).unwrap();
    let before = service.metrics();
    assert_eq!(before.counter("analytics_incremental_hits"), Some(0));
    assert_eq!(before.counter("analytics_incremental_fallbacks"), Some(0));

    // A burst confined to one shard (both endpoints on vertex 10's shard
    // would be ideal, but any small symmetric insert keeps the delta tiny).
    let graph = Arc::clone(service.graph());
    let shard = graph.shard_of(10);
    let partner = (0..256u64)
        .find(|&v| v != 10 && graph.shard_of(v) == shard)
        .expect("another vertex on the same shard");
    let t = client
        .mutate(vec![
            Update::InsertEdge(10, partner),
            Update::InsertEdge(partner, 10),
        ])
        .unwrap();
    client.wait(&t).unwrap();

    let incr = match client.query(Query::Pagerank { iterations: ITERS }).unwrap() {
        QueryResult::Pagerank(r) => r,
        other => panic!("unexpected {other:?}"),
    };
    let _ = client.query(Query::ConnectedComponents).unwrap();
    let after = service.metrics();
    assert_eq!(
        after.counter("analytics_incremental_hits"),
        Some(2),
        "both kernels went incremental"
    );
    assert_eq!(after.counter("analytics_incremental_fallbacks"), Some(0));
    let frontier = after
        .histogram("service_incremental_frontier_size")
        .expect("frontier histogram registered");
    assert!(frontier.count >= 2, "both kernels recorded a frontier");
    assert!(frontier.sum >= 1, "the burst produced a non-empty frontier");

    // Parity with a cold full recompute of the same epoch.
    let full = pagerank_parallel(&*service.current_unified(), ITERS);
    assert_ranks_within(&incr, &full, 1e-9, "service incremental vs full");
    service.shutdown();
}

#[test]
fn a_massive_burst_triggers_the_full_kernel_fallback() {
    let service = GraphService::start(service_config()).unwrap();
    let client = service.client();
    seed_service_ring(&client, 256);
    let _ = client.query(Query::Pagerank { iterations: ITERS }).unwrap();
    let _ = client.query(Query::ConnectedComponents).unwrap();

    // Delete ring edges across most of the vertex range: the changed set
    // blows through the fallback fraction for PageRank, and the deletions
    // force CC back to the full kernel regardless of size.
    let mut ops = Vec::new();
    for v in (0..200u64).step_by(2) {
        ops.push(Update::DeleteEdge(v, v + 1));
        ops.push(Update::DeleteEdge(v + 1, v));
    }
    let t = client.mutate(ops).unwrap();
    client.wait(&t).unwrap();

    let _ = client.query(Query::Pagerank { iterations: ITERS }).unwrap();
    let labels = match client.query(Query::ConnectedComponents).unwrap() {
        QueryResult::ConnectedComponents(l) => l,
        other => panic!("unexpected {other:?}"),
    };
    let snap = service.metrics();
    assert_eq!(
        snap.counter("analytics_incremental_fallbacks"),
        Some(2),
        "both kernels fell back to the full recompute"
    );
    assert_eq!(snap.counter("analytics_incremental_hits"), Some(0));
    // And the fallback answers are still exact.
    assert_eq!(labels, cc_parallel(&*service.current_unified()));
    service.shutdown();
}
