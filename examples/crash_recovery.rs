//! Crash recovery: demonstrate the paper's §3.1.5 restart paths.
//!
//! The example builds a graph, then walks through three scenarios on the
//! same pool image:
//!
//! 1. a **graceful shutdown** followed by a fast metadata reload,
//! 2. a **power failure** (simulated) with no shutdown, recovered by
//!    scanning the edge array, edge logs and undo logs,
//! 3. a power failure **in the middle of a rebalance** (forced by arming a
//!    writer's undo log), rolled back on the next open.
//!
//! Run with: `cargo run -p dgap-examples --release --bin crash_recovery`

use dgap::{Dgap, DgapConfig, DynamicGraph, GraphView, RecoveryKind};
use pmem::{PmemConfig, PmemPool};
use std::sync::Arc;
use std::time::Instant;

fn checksum(g: &Dgap) -> (usize, u64) {
    let view = g.consistent_view();
    let mut edges = 0usize;
    let mut sum = 0u64;
    for v in 0..view.num_vertices() as u64 {
        for d in view.neighbors(v) {
            edges += 1;
            sum = sum.wrapping_add(v.wrapping_mul(1_000_003).wrapping_add(d));
        }
    }
    (edges, sum)
}

fn main() {
    let cfg = DgapConfig::for_graph(1_500, 60_000);
    let workload =
        workloads::GeneratorConfig::new(1_500, 60_000, workloads::GraphKind::RMat, 2024).generate();

    // ------------------------------------------------------------------
    // Scenario 1: graceful shutdown, then restart.
    // ------------------------------------------------------------------
    let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(192 << 20)));
    let graph = Dgap::create(Arc::clone(&pool), cfg.clone()).expect("create");
    for &(s, d) in &workload.edges {
        graph.insert_edge(s, d).expect("insert");
    }
    let before = checksum(&graph);
    graph.shutdown().expect("shutdown");
    drop(graph);
    pool.simulate_crash(); // power-off after the shutdown completed

    let t = Instant::now();
    let (graph, kind) = Dgap::open(Arc::clone(&pool), cfg.clone()).expect("open");
    println!(
        "scenario 1 — graceful restart: {:?} in {:.3}s, graph intact: {}",
        kind,
        t.elapsed().as_secs_f64(),
        checksum(&graph) == before
    );
    assert_eq!(kind, RecoveryKind::NormalRestart);

    // ------------------------------------------------------------------
    // Scenario 2: crash with no shutdown.
    // ------------------------------------------------------------------
    for &(s, d) in &workload.edges[..5_000] {
        graph.insert_edge(s, d).expect("insert");
    }
    let before = checksum(&graph);
    drop(graph);
    pool.simulate_crash(); // power failure, nothing was saved

    let t = Instant::now();
    let (graph, kind) = Dgap::open(Arc::clone(&pool), cfg.clone()).expect("open");
    println!(
        "scenario 2 — crash recovery:   {:?} in {:.3}s, graph intact: {}",
        kind,
        t.elapsed().as_secs_f64(),
        checksum(&graph) == before
    );
    assert!(matches!(kind, RecoveryKind::CrashRecovery { .. }));

    // ------------------------------------------------------------------
    // Scenario 3: crash in the middle of a rebalance.
    //
    // We simulate the dangerous moment by hand: back up a window through a
    // writer's undo log, scribble over the window (as a half-finished data
    // movement would), and cut the power before the log is disarmed.
    // ------------------------------------------------------------------
    let ulog = dgap::ulog::UndoLog::new(Arc::clone(&pool), 4096, 2048).expect("ulog");
    let window = pool.alloc(2048, 64).expect("alloc");
    pool.write(window, &[0xAA; 2048]);
    pool.persist(window, 2048);
    // Arm the log exactly as a rebalance would, then "crash" mid-overwrite.
    let region = ulog.region_offset();
    pool.write_u64(region + 8, window);
    pool.write_u64(region + 16, 2048);
    pool.write_u64(region + 24, 0);
    pool.persist(region + 8, 24);
    // The backup goes to the data area that follows the 64-byte header.
    pool.write(region + 64, &pool.read_vec(window, 2048));
    pool.persist(region + 64, 2048);
    pool.write_u64(region, 1);
    pool.persist(region, 8);
    pool.write(window, &[0xBB; 1024]); // half-finished overwrite
    pool.persist(window, 1024);
    pool.simulate_crash();

    let mut ulog = dgap::ulog::UndoLog::attach(Arc::clone(&pool), region, 4096, 2048);
    let restored = ulog.recover();
    println!(
        "scenario 3 — interrupted rebalance: undo log rolled back {:?}, window restored: {}",
        restored,
        pool.read_vec(window, 2048) == vec![0xAA; 2048]
    );

    println!(
        "final graph: {} vertices, {} edge records",
        graph.num_vertices(),
        graph.num_edges()
    );
}
