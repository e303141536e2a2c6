//! Concurrency integration tests: multiple writer threads and concurrent
//! analysis tasks against one DGAP instance (the paper's execution model).

use analytics::{
    bc_parallel, bfs_parallel, cc, cc_parallel, pagerank, pagerank_parallel, with_threads,
};
use dgap::{Dgap, DgapConfig, DgapSnapshot, DynamicGraph, GraphView, VertexId, Vertices};
use dgap_integration_tests::random_edges;
use pmem::{PmemConfig, PmemPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn big_pool() -> Arc<PmemPool> {
    Arc::new(PmemPool::new(
        PmemConfig::with_capacity(128 << 20).persistence_tracking(false),
    ))
}

#[test]
fn many_writers_ingest_disjoint_streams() {
    let nv = 128usize;
    let per_thread = 1_500usize;
    let threads = 4usize;
    let g = Arc::new(
        Dgap::create(
            big_pool(),
            DgapConfig::for_graph(nv, per_thread * threads).writer_threads(threads),
        )
        .unwrap(),
    );
    let streams: Vec<Vec<(u64, u64)>> = (0..threads)
        .map(|t| random_edges(nv as u64, per_thread, 0x1000 + t as u64))
        .collect();

    std::thread::scope(|scope| {
        for stream in &streams {
            let g = Arc::clone(&g);
            scope.spawn(move || {
                for &(s, d) in stream {
                    g.insert_edge(s, d).unwrap();
                }
            });
        }
    });

    assert_eq!(DynamicGraph::num_edges(&*g), per_thread * threads);
    g.check_invariants();

    // Every inserted edge is present exactly once.
    let view = g.consistent_view();
    let mut expected = std::collections::HashMap::<(u64, u64), usize>::new();
    for stream in &streams {
        for &e in stream {
            *expected.entry(e).or_default() += 1;
        }
    }
    let mut got = std::collections::HashMap::<(u64, u64), usize>::new();
    for v in 0..nv as u64 {
        for d in view.neighbors(v) {
            *got.entry((v, d)).or_default() += 1;
        }
    }
    assert_eq!(expected, got);
}

#[test]
fn analysis_tasks_run_while_writers_insert() {
    let nv = 96usize;
    let g = Arc::new(
        Dgap::create(
            big_pool(),
            DgapConfig::for_graph(nv, 20_000).writer_threads(2),
        )
        .unwrap(),
    );
    // Seed the graph so early snapshots are non-trivial.
    for &(s, d) in &random_edges(nv as u64, 1_000, 3) {
        g.insert_edge(s, d).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let g = Arc::clone(&g);
            let edges = random_edges(nv as u64, 4_000, 0x42 + t);
            std::thread::spawn(move || {
                for (s, d) in edges {
                    g.insert_edge(s, d).unwrap();
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let g = Arc::clone(&g);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut snapshots_taken = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let view = g.consistent_view();
                    // The snapshot must be internally consistent: the sum of
                    // per-vertex neighbour counts equals its edge total.
                    let total: usize = (0..view.num_vertices() as u64)
                        .map(|v| view.neighbors(v).len())
                        .sum();
                    assert_eq!(total, view.num_edges());
                    let ranks = pagerank(&view, 3);
                    assert!(ranks.iter().all(|r| r.is_finite()));
                    let labels = cc(&view);
                    assert_eq!(labels.len(), view.num_vertices());
                    snapshots_taken += 1;
                }
                assert!(snapshots_taken > 0);
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(DynamicGraph::num_edges(&*g), 1_000 + 2 * 4_000);
    g.check_invariants();
}

#[test]
fn writers_and_shutdown_serialise_cleanly() {
    let nv = 64usize;
    let g = Arc::new(
        Dgap::create(
            big_pool(),
            DgapConfig::for_graph(nv, 10_000).writer_threads(2),
        )
        .unwrap(),
    );
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let g = Arc::clone(&g);
            scope.spawn(move || {
                for (s, d) in random_edges(nv as u64, 2_000, t + 9) {
                    g.insert_edge(s, d).unwrap();
                }
            });
        }
    });
    g.shutdown().unwrap();
    assert_eq!(DynamicGraph::num_edges(&*g), 4_000);
}

/// A DGAP snapshot that checks every batched neighbour list the kernels
/// receive against the snapshot's degree cache.  Exact equality holds
/// because the streams below never delete.
struct DegreeChecked<'g>(DgapSnapshot<'g>);

impl GraphView for DegreeChecked<'_> {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn num_edges(&self) -> usize {
        self.0.num_edges()
    }
    fn degree(&self, v: VertexId) -> usize {
        self.0.degree(v)
    }
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        self.0.for_each_neighbor(v, f);
    }
    fn for_each_adjacency(&self, vertices: Vertices<'_>, f: &mut dyn FnMut(VertexId, &[VertexId])) {
        self.0.for_each_adjacency(vertices, &mut |v, nbrs| {
            assert_eq!(nbrs.len(), self.0.degree(v), "batched list of vertex {v}");
            f(v, nbrs);
        });
    }
}

/// Two writers whose source ids climb far past the initial vertex range
/// (growing the vertex array, placing pivots, rebalancing and resizing)
/// while two readers run the four parallel kernels on fresh snapshots.
fn parallel_kernels_against_growing_writers() {
    let nv = 64u64;
    let g = Dgap::create(
        big_pool(),
        DgapConfig::for_graph(nv as usize, 1_000).writer_threads(2),
    )
    .unwrap();
    for (s, d) in random_edges(nv, 500, 11) {
        g.insert_edge(s, d).unwrap();
    }
    let stop = AtomicBool::new(false);
    let snapshots = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let g = &g;
                scope.spawn(move || {
                    for (i, (s, d)) in random_edges(nv, 6_000, 0x77 + t).into_iter().enumerate() {
                        g.insert_edge(s + i as u64 / 64, d).unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut taken = 0usize;
                    while taken == 0 || !stop.load(Ordering::Acquire) {
                        let view = DegreeChecked(g.consistent_view());
                        let n = view.num_vertices();
                        with_threads(2, || {
                            assert!(pagerank_parallel(&view, 2).iter().all(|r| r.is_finite()));
                            assert_eq!(bfs_parallel(&view, 0).len(), n);
                            assert_eq!(cc_parallel(&view).len(), n);
                            assert_eq!(bc_parallel(&view, 0).len(), n);
                        });
                        taken += 1;
                    }
                    taken
                })
            })
            .collect();
        // Stop the readers even if a writer failed, then report it.
        let written: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        stop.store(true, Ordering::Release);
        for w in written {
            w.unwrap();
        }
        readers
            .into_iter()
            .map(|r| r.join().unwrap())
            .sum::<usize>()
    });
    assert!(snapshots >= 2);
    let stats = g.stats();
    assert!(stats.rebalances > 0, "no rebalance: {stats:?}");
    assert!(stats.resizes > 0, "no resize: {stats:?}");
    assert!(DynamicGraph::num_vertices(&g) as u64 > nv + 50);
    assert_eq!(DynamicGraph::num_edges(&g), 500 + 2 * 6_000);
    g.check_invariants();
}

#[test]
fn batched_kernel_reads_never_deadlock_against_growing_writers() {
    const DEADLINE: Duration = Duration::from_secs(120);
    let run = std::thread::spawn(parallel_kernels_against_growing_writers);
    let start = Instant::now();
    while !run.is_finished() {
        assert!(
            start.elapsed() < DEADLINE,
            "readers and writers made no progress in {DEADLINE:?}: deadlock"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    if let Err(panic) = run.join() {
        std::panic::resume_unwind(panic);
    }
}
