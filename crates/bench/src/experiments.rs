//! One runner per paper table / figure.
//!
//! Every function prints a [`Table`] whose rows mirror the corresponding
//! artefact in the paper.  Absolute numbers differ from the paper (the
//! substrate is an emulator and the datasets are scaled), but the comparisons
//! — who wins, by roughly what factor, where the crossovers are — are the
//! reproduction target; `EXPERIMENTS.md` records both sides.

use crate::harness::{measure, pool_for_edges, AnySystem, BenchOptions, Measurement, Workload};
use crate::report::{meps, ratio, secs, Table};
use analytics::{
    bc_parallel, bfs_parallel, cc_parallel, highest_degree_vertex, pagerank_parallel, with_threads,
};
use baselines::SystemKind;
use dgap::{Dgap, DgapConfig, DgapVariant, DynamicGraph, GraphView, SnapshotSource};
use pmem::{PmemConfig, PmemPool};
use std::sync::Arc;
use workloads::datasets::{ALL_DATASETS, CIT_PATENTS, LIVEJOURNAL, ORKUT, SMALL_DATASETS};
use workloads::DatasetSpec;

// ----------------------------------------------------------------------
// Fig. 1 — motivation micro-benchmarks
// ----------------------------------------------------------------------

/// Fig. 1(a): write amplification of naive (no edge log) PMA-CSR insertion,
/// sampled over insertion progress on the Orkut-scaled workload.
pub fn fig1a(opts: &BenchOptions) -> Table {
    let w = Workload::build(ORKUT, opts);
    let pool = pool_for_edges(w.edges.len());
    let sys = AnySystem::build_dgap_variant(
        DgapVariant::NoElog,
        Arc::clone(&pool),
        w.num_vertices,
        w.edges.len(),
    );
    let mut table = Table::new(
        "Fig 1(a): write amplification of PMA-based CSR inserts (Orkut-scaled, no edge log)",
        &["progress", "logical MB", "media MB", "write amplification"],
    );
    let deciles = 10usize;
    let chunk = w.edges.len().div_ceil(deciles).max(1);
    for (i, edges) in w.edges.chunks(chunk).enumerate() {
        let before = pool.stats_snapshot();
        sys.insert_all(edges);
        let d = pool.stats_snapshot().delta_since(&before);
        table.row(vec![
            format!("{}%", (i + 1) * 100 / deciles),
            format!("{:.2}", d.logical_bytes_written as f64 / 1e6),
            format!("{:.2}", d.media_bytes_written as f64 / 1e6),
            format!("{:.2}", d.write_amplification()),
        ]);
    }
    table
}

/// Fig. 1(b): time to insert a graph into a mutable CSR held in DRAM, on PM,
/// and on PM with PMDK-style transactions.
pub fn fig1b(opts: &BenchOptions) -> Table {
    let w = Workload::build(CIT_PATENTS, opts);
    let mut table = Table::new(
        "Fig 1(b): insert time, DRAM vs PM vs PM+TX (CitPatents-scaled, naive mutable CSR)",
        &["target", "wall s", "simulated s", "total s"],
    );
    let cases: [(&str, bool, DgapVariant); 3] = [
        ("DRAM", true, DgapVariant::NoElog),
        ("PM", false, DgapVariant::NoElog),
        ("PM-TX", false, DgapVariant::NoElogUlog),
    ];
    for (label, dram, variant) in cases {
        let bytes = (w.edges.len() * 256).clamp(32 << 20, 1 << 30);
        let pool = Arc::new(PmemPool::new(if dram {
            PmemConfig::dram_with_capacity(bytes)
        } else {
            PmemConfig::with_capacity(bytes).persistence_tracking(false)
        }));
        let sys = AnySystem::build_dgap_variant(
            variant,
            Arc::clone(&pool),
            w.num_vertices,
            w.edges.len(),
        );
        let m = measure(&pool, w.edges.len(), || sys.insert_all(&w.edges));
        table.row(vec![
            label.to_string(),
            secs(m.wall_secs),
            secs(m.simulated_secs),
            secs(m.total_secs()),
        ]);
    }
    table
}

/// Fig. 1(c): latency of writing the same volume of data sequentially,
/// randomly and repeatedly in-place on (emulated) persistent memory.
pub fn fig1c(_opts: &BenchOptions) -> Table {
    let pool = PmemPool::new(PmemConfig::with_capacity(32 << 20));
    let region = pool.alloc(8 << 20, 256).unwrap();
    let total_writes = 16_384usize;
    let payload = [0xabu8; 64];
    let mut table = Table::new(
        "Fig 1(c): persistent write latency by access pattern (1 MiB in 64 B units)",
        &["pattern", "simulated ms", "per write ns"],
    );
    let mut run = |label: &str, mut addr: Box<dyn FnMut(usize) -> u64>| {
        let before = pool.stats_snapshot();
        // Flush per store, fence once per 8 stores — the grouping a real
        // application uses when it batches ordering points.  Repeatedly
        // flushing the same line inside one ordering window is what makes
        // the in-place pattern pathological on Optane (Fig. 1(c)).
        for i in 0..total_writes {
            let off = addr(i);
            pool.write(off, &payload);
            pool.flush(off, payload.len());
            if i % 8 == 7 {
                pool.fence();
            }
        }
        pool.fence();
        let d = pool.stats_snapshot().delta_since(&before);
        table.row(vec![
            label.to_string(),
            format!("{:.3}", d.simulated_ns as f64 / 1e6),
            format!("{:.0}", d.simulated_ns as f64 / total_writes as f64),
        ]);
    };
    run("Seq", Box::new(move |i| region + (i as u64) * 64));
    let region2 = region + (2 << 20);
    run(
        "Rnd",
        Box::new(move |i| {
            let x = (i as u64).wrapping_mul(2654435761) % 32768;
            region2 + x * 64
        }),
    );
    let region3 = region + (4 << 20);
    run("In-place", Box::new(move |_| region3));
    table
}

// ----------------------------------------------------------------------
// Fig. 5 — XPGraph archiving threshold
// ----------------------------------------------------------------------

/// Fig. 5: XPGraph insert throughput as a function of the archiving
/// threshold (2^1 .. 2^16), LiveJournal-scaled workload.
pub fn fig5(opts: &BenchOptions) -> Table {
    let w = Workload::build(LIVEJOURNAL, opts);
    let mut table = Table::new(
        "Fig 5: XPGraph insert throughput vs archiving threshold (LiveJournal-scaled)",
        &["threshold", "MEPS (wall)", "MEPS (incl. simulated PM time)"],
    );
    for exp in 1..=16u32 {
        let threshold = 1usize << exp;
        let pool = pool_for_edges(w.edges.len());
        let sys = baselines::XpGraph::new(Arc::clone(&pool), w.num_vertices, threshold)
            .expect("create XPGraph");
        // Warm up, then measure, mirroring the main insertion benchmark.
        for &(s, d) in w.warmup() {
            sys.insert_edge(s, d).expect("insert");
        }
        let m = measure(&pool, w.measured().len(), || {
            for &(s, d) in w.measured() {
                sys.insert_edge(s, d).expect("insert");
            }
        });
        table.row(vec![
            format!("2^{exp}"),
            meps(m.meps()),
            meps(m.effective_meps()),
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// Fig. 6 / Table 3 — insertion throughput
// ----------------------------------------------------------------------

fn insert_run(kind: SystemKind, w: &Workload, threads: usize) -> Measurement {
    let pool = pool_for_edges(w.edges.len());
    let sys = AnySystem::build(kind, Arc::clone(&pool), w.num_vertices, w.edges.len());
    sys.insert_all(w.warmup());
    let m = measure(&pool, w.measured().len(), || {
        sys.insert_parallel(w.measured(), threads)
    });
    sys.flush();
    m
}

/// Fig. 6: single-writer-thread insertion throughput (MEPS) for every
/// dynamic system on every dataset.
pub fn fig6(opts: &BenchOptions) -> Table {
    let mut table = Table::new(
        "Fig 6: dynamic graph insertion throughput, 1 writer thread (MEPS, incl. simulated PM time)",
        &["dataset", "DGAP", "BAL", "LLAMA", "GraphOne-FD", "XPGraph"],
    );
    for spec in ALL_DATASETS {
        let w = Workload::build(spec, opts);
        let mut cells = vec![spec.name.to_string()];
        for kind in SystemKind::dynamic_systems() {
            let m = insert_run(kind, &w, 1);
            cells.push(meps(m.effective_meps()));
        }
        table.row(cells);
    }
    table
}

/// Table 3: insertion throughput with 1, 8 and 16 writer threads.
pub fn table3(opts: &BenchOptions) -> Table {
    let mut table = Table::new(
        "Table 3: insertion throughput (MEPS, incl. simulated PM time) vs writer threads",
        &[
            "dataset",
            "threads",
            "DGAP",
            "BAL",
            "LLAMA",
            "GraphOne-FD",
            "XPGraph",
        ],
    );
    for spec in ALL_DATASETS {
        let w = Workload::build(spec, opts);
        for &threads in &opts.thread_counts {
            let mut cells = vec![spec.name.to_string(), format!("T{threads}")];
            for kind in SystemKind::dynamic_systems() {
                let m = insert_run(kind, &w, threads);
                cells.push(meps(m.effective_meps()));
            }
            table.row(cells);
        }
    }
    table
}

// ----------------------------------------------------------------------
// Fig. 7 / Fig. 8 / Table 4 — analysis kernels
// ----------------------------------------------------------------------

/// Which kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// PageRank, 20 iterations.
    PageRank,
    /// Direction-optimizing BFS from the highest-degree vertex.
    Bfs,
    /// Brandes betweenness centrality from the highest-degree vertex.
    Bc,
    /// Shiloach–Vishkin connected components.
    Cc,
}

impl Kernel {
    fn label(self) -> &'static str {
        match self {
            Kernel::PageRank => "PR",
            Kernel::Bfs => "BFS",
            Kernel::Bc => "BC",
            Kernel::Cc => "CC",
        }
    }
}

fn run_kernel(view: &impl GraphView, kernel: Kernel, threads: usize, source: u64) -> f64 {
    let start = std::time::Instant::now();
    with_threads(threads, || kernel_once(view, kernel, source));
    start.elapsed().as_secs_f64()
}

/// Run one parallel kernel on the current pool, keeping its result alive.
fn kernel_once(view: &impl GraphView, kernel: Kernel, source: u64) {
    let len = match kernel {
        Kernel::PageRank => pagerank_parallel(view, analytics::pagerank::DEFAULT_ITERATIONS).len(),
        Kernel::Bfs => bfs_parallel(view, source).len(),
        Kernel::Bc => bc_parallel(view, source).len(),
        Kernel::Cc => cc_parallel(view).len(),
    };
    std::hint::black_box(len);
}

/// Build every system (including the CSR reference), load the workload and
/// return `(label, kernel seconds)` for one kernel at one thread count.
fn analysis_run(
    spec: DatasetSpec,
    opts: &BenchOptions,
    kernels: &[Kernel],
    threads: usize,
) -> Vec<(String, Vec<f64>)> {
    let w = Workload::build(spec, opts);
    let mut out = Vec::new();

    // CSR reference first (it also provides the BFS/BC source vertex).
    let pool = pool_for_edges(w.edges.len());
    let csr = AnySystem::build_csr(Arc::clone(&pool), w.num_vertices, &w.edges);
    let csr_view = csr.view();
    let source = highest_degree_vertex(&csr_view);
    let times: Vec<f64> = kernels
        .iter()
        .map(|&k| run_kernel(&csr_view, k, threads, source))
        .collect();
    out.push(("CSR".to_string(), times));

    for kind in SystemKind::dynamic_systems() {
        let pool = pool_for_edges(w.edges.len());
        let sys = AnySystem::build(kind, Arc::clone(&pool), w.num_vertices, w.edges.len());
        sys.insert_all(&w.edges);
        sys.flush();
        let view = sys.view();
        let times: Vec<f64> = kernels
            .iter()
            .map(|&k| run_kernel(&view, k, threads, source))
            .collect();
        out.push((kind.label().to_string(), times));
    }
    out
}

fn normalised_table(title: &str, kernels: &[Kernel], opts: &BenchOptions) -> Table {
    let mut header = vec!["dataset", "kernel"];
    let mut labels = vec!["CSR".to_string()];
    labels.extend(SystemKind::dynamic_systems().map(|k| k.label().to_string()));
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    header.extend(label_refs.iter().copied());
    let mut table = Table::new(title, &header);
    for spec in ALL_DATASETS {
        let results = analysis_run(spec, opts, kernels, 1);
        for (ki, kernel) in kernels.iter().enumerate() {
            let csr_time = results[0].1[ki].max(1e-9);
            let mut cells = vec![spec.name.to_string(), kernel.label().to_string()];
            for (_, times) in &results {
                cells.push(ratio(times[ki] / csr_time));
            }
            table.row(cells);
        }
    }
    table
}

/// Fig. 7: PageRank and Connected Components running time normalised to the
/// CSR baseline (single analysis thread).
pub fn fig7(opts: &BenchOptions) -> Table {
    normalised_table(
        "Fig 7: PR and CC time normalised to CSR (1 thread; smaller is better)",
        &[Kernel::PageRank, Kernel::Cc],
        opts,
    )
}

/// Fig. 8: BFS and Betweenness Centrality running time normalised to CSR.
pub fn fig8(opts: &BenchOptions) -> Table {
    normalised_table(
        "Fig 8: BFS and BC time normalised to CSR (1 thread; smaller is better)",
        &[Kernel::Bfs, Kernel::Bc],
        opts,
    )
}

/// Table 4: absolute kernel times (seconds) at 1 and 16 analysis threads.
pub fn table4(opts: &BenchOptions) -> Table {
    let kernels = [Kernel::PageRank, Kernel::Bfs, Kernel::Bc, Kernel::Cc];
    let mut header = vec!["dataset", "kernel", "threads", "CSR"];
    let labels: Vec<String> = SystemKind::dynamic_systems()
        .iter()
        .map(|k| k.label().to_string())
        .collect();
    header.extend(labels.iter().map(String::as_str));
    let mut table = Table::new(
        "Table 4: kernel execution time in seconds (T1 and T16)",
        &header,
    );
    let threads_cases = [1usize, *opts.thread_counts.last().unwrap_or(&16)];
    for spec in ALL_DATASETS {
        for &threads in &threads_cases {
            let results = analysis_run(spec, opts, &kernels, threads);
            for (ki, kernel) in kernels.iter().enumerate() {
                let mut cells = vec![
                    spec.name.to_string(),
                    kernel.label().to_string(),
                    format!("T{threads}"),
                ];
                for (_, times) in &results {
                    cells.push(secs(times[ki]));
                }
                table.row(cells);
            }
        }
    }
    table
}

// ----------------------------------------------------------------------
// Table 5 — ablation
// ----------------------------------------------------------------------

/// Table 5: insertion time of DGAP with its designs removed one by one.
pub fn table5(opts: &BenchOptions) -> Table {
    let mut table = Table::new(
        "Table 5: insertion time in seconds (wall + simulated PM) of the DGAP ablation variants",
        &["dataset", "DGAP", "No EL", "No EL&UL", "No EL&UL&DP"],
    );
    for spec in SMALL_DATASETS {
        let w = Workload::build(spec, opts);
        let mut cells = vec![spec.name.to_string()];
        for variant in DgapVariant::all() {
            let pool = pool_for_edges(w.edges.len());
            let sys = AnySystem::build_dgap_variant(
                variant,
                Arc::clone(&pool),
                w.num_vertices,
                w.edges.len(),
            );
            let m = measure(&pool, w.edges.len(), || sys.insert_all(&w.edges));
            cells.push(secs(m.total_secs()));
        }
        table.row(cells);
    }
    table
}

// ----------------------------------------------------------------------
// Fig. 9 — edge-log size sweep
// ----------------------------------------------------------------------

/// Fig. 9: impact of the per-section edge-log size on PM consumption,
/// utilisation and insertion time.
pub fn fig9(opts: &BenchOptions) -> Table {
    let mut table = Table::new(
        "Fig 9: per-section edge-log size sweep (Orkut- and LiveJournal-scaled)",
        &[
            "dataset",
            "ELOG_SZ",
            "total log MB",
            "utilisation %",
            "insert s (wall+sim)",
        ],
    );
    for spec in [ORKUT, LIVEJOURNAL] {
        let w = Workload::build(spec, opts);
        for exp in 6..=14u32 {
            let elog_size = 1usize << exp; // 64 B .. 16 KiB
            let pool = pool_for_edges(w.edges.len());
            let cfg = DgapConfig::for_graph(w.num_vertices, w.edges.len()).elog_size(elog_size);
            let sys = Dgap::create(Arc::clone(&pool), cfg).expect("create DGAP");
            let m = measure(&pool, w.edges.len(), || {
                for &(s, d) in &w.edges {
                    sys.insert_edge(s, d).expect("insert");
                }
            });
            let stats = sys.elog_stats();
            let entries = sys.config().elog_entries().max(1);
            let fills = stats.merges.max(1) * entries as u64;
            let utilisation = (stats.appends as f64 / fills as f64 * 100.0).min(100.0);
            table.row(vec![
                spec.name.to_string(),
                format!("{elog_size}"),
                format!("{:.2}", sys.elog_total_bytes() as f64 / 1e6),
                format!("{utilisation:.1}"),
                secs(m.total_secs()),
            ]);
        }
    }
    table
}

// ----------------------------------------------------------------------
// §4.4 — recovery
// ----------------------------------------------------------------------

/// §4.4 + beyond: restart/crash-recovery wall time.
///
/// Rows per dataset (all on crash-tracking pools; `speedup vs seq` is the
/// single-instance sequential crash scan divided by the row's time):
///
/// * `normal`       — graceful-shutdown backup reload
/// * `crash-seq`    — crash scan forced onto the sequential path
///   ([`DgapConfig::sequential_recovery`], the PR-before baseline)
/// * `crash-par`    — the chunked parallel crash scan, one row per
///   `--threads` entry (split width bounded via `with_threads`)
/// * `verify`       — the full integrity pass ([`Dgap::verify`]) over the
///   recovered instance: every durable region re-checksummed, the cost
///   `verify_data_on_open` adds to a restart (and of one scrub pass)
/// * `crash-shards` — the same data partitioned across each `--shards`
///   entry, reopened with [`sharded::ShardedGraph::open_dgap`] (per-shard
///   opens fanned out on the pool, each shard's scan itself parallel)
/// * `reopen+client-table` — the crash-shards reopen plus the exactly-once
///   machinery `GraphService::open` layers on top: the durable-watermark
///   peek and one [`sharded::ClientTable::create_or_open`] per shard
///   (in-doubt resolution included), on pools whose client tables were
///   populated by a tagged ingest before the crash
pub fn recovery(opts: &BenchOptions) -> Table {
    use sharded::ShardedGraph;

    /// Restore times are single-digit milliseconds at bench scales, so
    /// every row is the **minimum of this many trials** (repeated opens of
    /// the same crashed pool are idempotent).
    const TRIALS: usize = 3;
    /// Recovery is an `O(V + E)` scan of data the *insert* experiments
    /// take minutes to build, so it affords a denser graph than the shared
    /// `--scale` default: the effective scale divisor is `--scale /
    /// RECOVERY_SCALE_BOOST` (same datasets, 8x the edges), which is what
    /// gives the parallel scan enough work to show its speedup.
    const RECOVERY_SCALE_BOOST: u64 = 8;

    let opts = BenchOptions {
        scale: (opts.scale / RECOVERY_SCALE_BOOST).max(1),
        ..opts.clone()
    };
    let opts = &opts;
    let mut table = Table::new(
        "Recovery: restart + crash-recovery time, sequential vs parallel vs sharded \
         (restore = wall + simulated-PM critical path)",
        &[
            "dataset",
            "mode",
            "threads",
            "shards",
            "edges",
            "wall s",
            "pm s",
            "restore s",
            "speedup vs seq",
        ],
    );
    // Min wall over the trials plus the (deterministic, measured once)
    // simulated device time.  `concurrency` is how many workers the scan
    // spreads its device accesses over: the chunked parallel scan
    // partitions the slot range evenly, so its per-thread share — the
    // simulated critical path, the same convention as `sharding`'s
    // "pm crit-path s" column — is the total divided by the split width.
    let timed = |pool: &PmemPool, f: &mut dyn FnMut()| -> (f64, f64) {
        let mut best_wall = f64::INFINITY;
        let mut sim = 0.0f64;
        for trial in 0..TRIALS {
            let before = pool.stats_snapshot();
            let start = std::time::Instant::now();
            f();
            best_wall = best_wall.min(start.elapsed().as_secs_f64());
            if trial == 0 {
                sim = pool
                    .stats_snapshot()
                    .delta_since(&before)
                    .simulated_seconds();
            }
        }
        (best_wall, sim)
    };
    for spec in SMALL_DATASETS {
        let w = Workload::build(spec, opts);
        let num_edges = w.edges.len();
        // Recovery experiments need the crash-tracking pool; resize churn
        // leaks abandoned generations into the bump allocator, hence the
        // generous headroom.
        let bytes = (num_edges * 1024)
            .max(w.num_vertices * 1024)
            .clamp(64 << 20, 2 << 30);
        let cfg = DgapConfig::for_graph(w.num_vertices, num_edges);

        // One build serves every single-instance row: the first (normal)
        // open clears the shutdown flag, so each later open of the same
        // pool takes the crash path over identical persistent data.
        let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(bytes)));
        let g = Dgap::create(Arc::clone(&pool), cfg.clone()).expect("create");
        for &(s, d) in &w.edges {
            g.insert_edge(s, d).expect("insert");
        }
        g.shutdown().expect("shutdown");
        drop(g);
        pool.simulate_crash();

        // Opening clears the shutdown flag, so the normal-restart row
        // re-arms it (an untimed `shutdown`) between trials.
        let mut normal_wall = f64::INFINITY;
        let mut normal_sim = 0.0f64;
        for trial in 0..TRIALS {
            let before = pool.stats_snapshot();
            let start = std::time::Instant::now();
            let (g2, kind) = Dgap::open(Arc::clone(&pool), cfg.clone()).expect("open");
            assert_eq!(kind, dgap::RecoveryKind::NormalRestart);
            std::hint::black_box(g2.num_vertices());
            normal_wall = normal_wall.min(start.elapsed().as_secs_f64());
            if trial == 0 {
                normal_sim = pool
                    .stats_snapshot()
                    .delta_since(&before)
                    .simulated_seconds();
            }
            g2.shutdown().expect("re-arm backup");
        }
        // The trials above left the shutdown flag armed; one untimed open
        // clears it so every row below takes the crash path.  The probe
        // also answers, per thread count, whether the crash scan actually
        // fans out (small graphs fall back to the sequential scan — their
        // device time must NOT be divided as if it had been split).
        let probe = Dgap::open(Arc::clone(&pool), cfg.clone()).expect("open").0;
        pool.simulate_crash();
        let (seq_wall, seq_sim) = timed(&pool, &mut || {
            let (g2, kind) =
                Dgap::open(Arc::clone(&pool), cfg.clone().sequential_recovery()).expect("open");
            assert!(matches!(kind, dgap::RecoveryKind::CrashRecovery { .. }));
            std::hint::black_box(g2.num_vertices());
        });
        let seq_secs = seq_wall + seq_sim;
        // (mode, threads, shards, wall, pm critical path)
        let mut rows: Vec<(String, String, String, f64, f64)> = vec![
            (
                "normal".into(),
                "1".into(),
                "1".into(),
                normal_wall,
                normal_sim,
            ),
            (
                "crash-seq".into(),
                "1".into(),
                "1".into(),
                seq_wall,
                seq_sim,
            ),
        ];
        for &threads in &opts.thread_counts {
            pool.simulate_crash();
            let (par_wall, par_sim) = timed(&pool, &mut || {
                with_threads(threads, || {
                    let (g2, kind) = Dgap::open(Arc::clone(&pool), cfg.clone()).expect("open");
                    assert!(matches!(kind, dgap::RecoveryKind::CrashRecovery { .. }));
                    std::hint::black_box(g2.num_vertices());
                });
            });
            let scanners = if probe.crash_scan_is_parallel(threads) {
                threads
            } else {
                1
            };
            rows.push((
                "crash-par".into(),
                format!("{threads}"),
                "1".into(),
                par_wall,
                par_sim / scanners as f64,
            ));
        }

        // Integrity verify pass: the cost of re-checksumming every durable
        // region of the recovered instance ([`Dgap::verify`]) — what
        // `verify_data_on_open` adds to a restart and what one background
        // scrub pass costs at steady state.
        {
            pool.simulate_crash();
            let g2 = Dgap::open(Arc::clone(&pool), cfg.clone()).expect("open").0;
            let (verify_wall, verify_sim) = timed(&pool, &mut || {
                let report = g2.verify();
                assert!(!report.is_fatal(), "pristine pool must verify clean");
                std::hint::black_box(report.bytes_verified());
            });
            rows.push((
                "verify".into(),
                "1".into(),
                "1".into(),
                verify_wall,
                verify_sim,
            ));
        }

        // Sharded rows: the same workload partitioned across the shards
        // (`--shards`), every shard crashed, the whole graph reopened in
        // one call.
        for &shards in &opts.shard_counts {
            let per_shard_bytes = (num_edges.div_ceil(shards) * 3 * 1024)
                .max(w.num_vertices * 1024)
                .clamp(64 << 20, 1 << 30);
            let graph = ShardedGraph::create_dgap(shards, w.num_vertices, num_edges, |_| {
                PmemConfig::with_capacity(per_shard_bytes)
            })
            .expect("create sharded DGAP");
            for &(s, d) in &w.edges {
                graph.insert_edge(s, d).expect("insert");
            }
            let pools: Vec<Arc<PmemPool>> = (0..shards)
                .map(|i| Arc::clone(graph.shard(i).pool()))
                .collect();
            drop(graph); // no shutdown: every shard takes the crash path
            for p in &pools {
                p.simulate_crash();
            }
            let cfg = cfg.clone();
            let mut shard_wall = f64::INFINITY;
            let mut shard_crit = 0.0f64;
            for trial in 0..TRIALS {
                let before: Vec<_> = pools.iter().map(|p| p.stats_snapshot()).collect();
                let start = std::time::Instant::now();
                let (g2, recovered) =
                    ShardedGraph::open_dgap(pools.clone(), |_| cfg.clone()).expect("open_dgap");
                assert_eq!(recovered.crashed_shards(), shards);
                std::hint::black_box(g2.num_edges());
                shard_wall = shard_wall.min(start.elapsed().as_secs_f64());
                if trial == 0 {
                    // Shards recover in parallel, so the device cost on the
                    // critical path is the slowest shard's, not the sum.
                    shard_crit = pools
                        .iter()
                        .zip(&before)
                        .map(|(p, b)| p.stats_snapshot().delta_since(b).simulated_seconds())
                        .fold(0.0f64, f64::max);
                }
            }
            rows.push((
                "crash-shards".into(),
                "pool".into(),
                format!("{shards}"),
                shard_wall,
                shard_crit,
            ));

            // Exactly-once reopen: the same crashed pools, plus the work
            // `GraphService::open` layers on top — restoring the per-client
            // operation tables that make ingest detectably exactly-once.
            // A short tagged ingest populates the tables first, so the
            // timed reopen pays the watermark peek and in-doubt resolution
            // on real data, not on empty slots.
            {
                use obs::Registry;
                use sharded::{ClientTable, IngestPipeline, ShardedConfig};

                let (graph, _) =
                    ShardedGraph::open_dgap(pools.clone(), |_| cfg.clone()).expect("open_dgap");
                let graph = Arc::new(graph);
                let tables: Vec<ClientTable> = (0..shards)
                    .map(|i| {
                        let shard = graph.shard(i);
                        ClientTable::create_or_open(shard.pool(), shard.num_edges() as u64)
                            .expect("create client table")
                    })
                    .collect();
                let pipeline = IngestPipeline::with_client_tables(
                    Arc::clone(&graph),
                    &ShardedConfig::builder().shards(shards).build(),
                    Arc::new(Registry::new()),
                    tables,
                );
                for (op, chunk) in w.edges.chunks(256).take(16).enumerate() {
                    let ops: Vec<dgap::Update> = chunk
                        .iter()
                        .map(|&(s, d)| dgap::Update::InsertEdge(s, d))
                        .collect();
                    pipeline
                        .submit_tagged(&ops, 1, (op + 1) as u64)
                        .expect("tagged submit");
                }
                pipeline.flush_all().expect("flush tagged ingest");
                drop(pipeline);
                drop(graph);
                for p in &pools {
                    p.simulate_crash();
                }
                let mut ct_wall = f64::INFINITY;
                let mut ct_crit = 0.0f64;
                for trial in 0..TRIALS {
                    let before: Vec<_> = pools.iter().map(|p| p.stats_snapshot()).collect();
                    let start = std::time::Instant::now();
                    let (g2, recovered) =
                        ShardedGraph::open_dgap(pools.clone(), |_| cfg.clone()).expect("open_dgap");
                    assert!(
                        recovered.client_watermarks().committed(1).unwrap_or(0) > 0,
                        "tagged ingest must leave a durable watermark"
                    );
                    let restored: Vec<ClientTable> = (0..shards)
                        .map(|i| {
                            let shard = g2.shard(i);
                            ClientTable::create_or_open(shard.pool(), shard.num_edges() as u64)
                                .expect("reopen client table")
                        })
                        .collect();
                    std::hint::black_box(restored.len());
                    ct_wall = ct_wall.min(start.elapsed().as_secs_f64());
                    if trial == 0 {
                        ct_crit = pools
                            .iter()
                            .zip(&before)
                            .map(|(p, b)| p.stats_snapshot().delta_since(b).simulated_seconds())
                            .fold(0.0f64, f64::max);
                    }
                }
                rows.push((
                    "reopen+client-table".into(),
                    "pool".into(),
                    format!("{shards}"),
                    ct_wall,
                    ct_crit,
                ));
            }
        }

        for (mode, threads, shards, wall_secs, pm_secs) in rows {
            let restore_secs = wall_secs + pm_secs;
            table.row(vec![
                spec.name.to_string(),
                mode,
                threads,
                shards,
                format!("{num_edges}"),
                secs(wall_secs),
                secs(pm_secs),
                secs(restore_secs),
                ratio(seq_secs / restore_secs.max(1e-9)),
            ]);
        }
    }
    table
}

// ----------------------------------------------------------------------
// Beyond the paper — sharded batch ingest (crates/sharded)
// ----------------------------------------------------------------------

/// `sharding`: ingest throughput and kernel runtime of the partitioned
/// engine (`ShardedGraph<Dgap>` + `IngestPipeline`) as the shard count
/// grows.  Not a paper artefact — this measures the scaling seam the
/// ROADMAP's production-scale direction builds on.  The single-shard row is
/// the degenerate case (one DGAP behind one queue) and serves as the
/// baseline the other rows are compared against.
pub fn sharding(opts: &BenchOptions) -> Table {
    use sharded::{IngestPipeline, ShardedConfig, ShardedGraph};

    let w = Workload::build(ORKUT, opts);
    let num_edges = w.edges.len();
    let mut table = Table::new(
        format!(
            "Sharding: batched ingest + kernels vs shard count (Orkut-scaled, {num_edges} edges)"
        ),
        &[
            "shards",
            "ingest s",
            "ingest MEPS",
            "submit ns/op",
            "pm crit-path s",
            "skew",
            "pagerank s",
            "bfs s",
        ],
    );
    for &shards in &opts.shard_counts {
        // Each shard gets 3x its even share of the single-graph headroom
        // (skew routes more than 1/N of the edges to the busiest shard, and
        // rebalance/resize churn leaks abandoned generations into the bump
        // allocator regardless of shard size).  The arenas are lazily
        // committed, so unused capacity costs nothing.
        let per_shard_edges = num_edges.div_ceil(shards.max(1));
        let bytes = (per_shard_edges * 3 * 1024)
            .max(w.num_vertices * 1024)
            .clamp(64 << 20, 1 << 30);
        let graph = Arc::new(
            ShardedGraph::create_dgap(shards, w.num_vertices, num_edges, |_| {
                PmemConfig::with_capacity(bytes).persistence_tracking(false)
            })
            .expect("create sharded DGAP"),
        );
        let cfg = ShardedConfig::builder()
            .shards(shards)
            .queue_capacity(64)
            .batch_size(4096)
            .build();
        let pipeline = IngestPipeline::new(Arc::clone(&graph), &cfg);

        let before: Vec<_> = (0..shards)
            .map(|i| graph.shard(i).pool().stats_snapshot())
            .collect();
        let start = std::time::Instant::now();
        // Producer-side cost of `submit` alone (scatter + enqueue): the
        // thread-local scatter reuse shows up directly in this number.
        let mut submit_secs = 0.0f64;
        for batch in workloads::batches(&w.edges, cfg.batch_size) {
            let t = std::time::Instant::now();
            pipeline.submit_edges(batch).expect("submit");
            submit_secs += t.elapsed().as_secs_f64();
        }
        pipeline.flush_all().expect("flush_all");
        let wall = start.elapsed().as_secs_f64();
        let submit_ns_per_op = submit_secs * 1e9 / num_edges.max(1) as f64;
        // Shards run in parallel, so the simulated-PM cost on the critical
        // path is the *slowest* shard's delta, not the sum.
        let crit_path = (0..shards)
            .map(|i| {
                graph
                    .shard(i)
                    .pool()
                    .stats_snapshot()
                    .delta_since(&before[i])
                    .simulated_seconds()
            })
            .fold(0.0f64, f64::max);
        let skew = pipeline.stats().skew();

        let view = graph.consistent_view();
        assert_eq!(view.num_edges(), num_edges, "{shards} shards lost edges");
        let start = std::time::Instant::now();
        let ranks = pagerank_parallel(&view, 20);
        let pr_secs = start.elapsed().as_secs_f64();
        std::hint::black_box(&ranks);

        let source = highest_degree_vertex(&view);
        let start = std::time::Instant::now();
        let parents = bfs_parallel(&view, source);
        let bfs_secs = start.elapsed().as_secs_f64();
        std::hint::black_box(&parents);

        table.row(vec![
            format!("{shards}"),
            secs(wall),
            meps(num_edges as f64 / wall / 1e6),
            format!("{submit_ns_per_op:.0}"),
            secs(crit_path),
            ratio(skew),
            secs(pr_secs),
            secs(bfs_secs),
        ]);
    }
    table
}

/// `snapshot`: cost of materialising the service-grade owned snapshot
/// ([`dgap::FrozenView`]), sequential vs work-stealing-parallel, plus the
/// composite capture paths the service layer actually exercises.  Not a
/// paper artefact — this measures the PR 3 snapshot pipeline: parallel
/// degree-count → prefix-sum → parallel adjacency fill, shard captures
/// running concurrently, and the incremental refresh that re-captures one
/// shard while sharing the rest.
///
/// Rows (p50/p99 over trials, throughput = visible edges materialised per
/// wall second):
///
/// * `seq`            — [`dgap::FrozenView::capture_sequential`] baseline
/// * `par@T`          — parallel [`dgap::FrozenView::capture`] with the
///   split width bounded to each `--threads` entry
/// * `shards-par`     — [`sharded::ShardedGraph`]'s full owned composite
///   (per-shard captures run concurrently, unbounded width)
/// * `incremental-1`  — the same composite refreshed after touching **one**
///   shard: every other shard's `Arc<FrozenView>` is reused
pub fn snapshot(opts: &BenchOptions) -> Table {
    use sharded::ShardedGraph;

    const TRIALS: usize = 7;
    /// One delete per this many inserts, so tombstone resolution is part
    /// of every measured capture.
    const DELETE_EVERY: usize = 64;

    let w = Workload::build(ORKUT, opts);
    let num_edges = w.edges.len();
    let shards = opts.shard_counts.iter().copied().max().unwrap_or(4).max(2);
    let per_shard_edges = num_edges.div_ceil(shards);
    let bytes = (per_shard_edges * 3 * 1024)
        .max(w.num_vertices * 1024)
        .clamp(64 << 20, 1 << 30);
    let graph = Arc::new(
        ShardedGraph::create_dgap(shards, w.num_vertices, num_edges, |_| {
            PmemConfig::with_capacity(bytes).persistence_tracking(false)
        })
        .expect("create sharded DGAP"),
    );
    for (i, &(s, d)) in w.edges.iter().enumerate() {
        graph.insert_edge(s, d).expect("insert");
        if i % DELETE_EVERY == 0 {
            graph.delete_edge(s, d).expect("delete");
        }
    }

    let mut table = Table::new(
        format!(
            "Snapshot: FrozenView capture, sequential vs parallel \
             (Orkut-scaled, {num_edges} edge records, {shards} shards)"
        ),
        &[
            "mode",
            "threads",
            "trials",
            "p50 ms",
            "p99 ms",
            "throughput MEPS",
            "speedup vs seq",
        ],
    );

    let view = graph.consistent_view();
    let visible_edges = dgap::GraphView::num_edges(&dgap::FrozenView::capture_sequential(&view));
    let timed = |f: &mut dyn FnMut()| -> (f64, f64) {
        let mut samples_ms: Vec<f64> = (0..TRIALS)
            .map(|_| {
                let start = std::time::Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples_ms.sort_by(f64::total_cmp);
        (percentile(&samples_ms, 0.50), percentile(&samples_ms, 0.99))
    };
    let mut rows: Vec<(String, String, f64, f64)> = Vec::new();

    let (seq_p50, seq_p99) = timed(&mut || {
        std::hint::black_box(dgap::FrozenView::capture_sequential(&view));
    });
    rows.push(("seq".into(), "1".into(), seq_p50, seq_p99));

    for &threads in &opts.thread_counts {
        let (p50, p99) = timed(&mut || {
            with_threads(threads, || {
                std::hint::black_box(dgap::FrozenView::capture(&view));
            });
        });
        rows.push(("par".into(), format!("{threads}"), p50, p99));
    }

    let (p50, p99) = timed(&mut || {
        std::hint::black_box(graph.consistent_view_arc());
    });
    rows.push(("shards-par".into(), "pool".into(), p50, p99));

    // Incremental: keep every shard's snapshot except vertex 0's owner,
    // touch that shard, and refresh — the service's single-shard-burst
    // path.
    let warm = graph.consistent_view_arc();
    let touched = graph.shard_of(0);
    graph.insert_edge(0, 1).expect("insert");
    let (p50, p99) = timed(&mut || {
        let reuse: Vec<Option<Arc<dgap::FrozenView>>> = (0..shards)
            .map(|i| (i != touched).then(|| warm.shard_view_arc(i)))
            .collect();
        std::hint::black_box(graph.owned_view_reusing(reuse));
    });
    rows.push(("incremental-1".into(), "pool".into(), p50, p99));

    for (mode, threads, p50, p99) in rows {
        table.row(vec![
            mode,
            threads,
            format!("{TRIALS}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            meps(visible_edges as f64 / (p50 / 1e3) / 1e6),
            ratio(seq_p50 / p50),
        ]);
    }
    table
}

/// A view that implements only the four required [`GraphView`] methods, so
/// its batched read is the trait's default: one `&mut dyn FnMut` call per
/// edge, copied into a buffer.  The `dyn` rows of the `analytics`
/// experiment run the kernels through it to measure what the slice read
/// saves.
struct PerEdgeDispatch<'a, V>(&'a V);

impl<V: GraphView> GraphView for PerEdgeDispatch<'_, V> {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.0.num_edges()
    }

    fn degree(&self, v: u64) -> usize {
        self.0.degree(v)
    }

    fn for_each_neighbor(&self, v: u64, f: &mut dyn FnMut(u64)) {
        self.0.for_each_neighbor(v, f)
    }
}

/// `analytics`: the analytics plane — the parallel kernels reading
/// adjacency per edge through a dyn callback vs reading borrowed CSR
/// slices, plus the cost of the [`sharded::UnifiedView`] merge the kernels
/// run over.  Not a paper artefact.
///
/// Rows (p50/p99 over trials):
///
/// * `dyn` / `csr` per `--threads` entry × kernel (PR/BFS/CC/BC): the same
///   `*_parallel` kernel over the **same** [`sharded::UnifiedView`] data.
///   `csr` runs it on the view directly, whose batched read hands out
///   borrowed slices; `dyn` runs it through a wrapper that implements only
///   the four required methods, so it makes one `&mut dyn FnMut` call per
///   edge.  The row pair isolates
///   pure dispatch cost; the `csr` row's `speedup` column is dyn p50 / csr
///   p50.
/// * `dyn-composite` / `csr-unified` per `--shards` entry (PageRank): the
///   shard-routed composite (partitioner hash per vertex + dyn dispatch
///   per edge) vs the unified CSR at that shard count — what the service's
///   query path actually switched from and to.
/// * `unify-full` / `unify-incr1` per `--shards` entry: the full merge vs
///   an incremental refresh after touching **one** shard (every other
///   shard's spans carried forward; `speedup` = full p50 / incr p50).
pub fn analytics(opts: &BenchOptions) -> Table {
    use sharded::{ShardedGraph, UnifiedView};

    const TRIALS: usize = 5;
    /// One delete per this many inserts, so tombstone resolution shapes
    /// the adjacency the kernels scan.
    const DELETE_EVERY: usize = 64;
    /// PageRank iterations (Table 1's GAPBS configuration).
    const ITERS: usize = analytics::pagerank::DEFAULT_ITERATIONS;
    /// Kernels are pure DRAM scans over data the *insert* experiments take
    /// minutes to build, so (like `recovery`) this experiment affords a
    /// denser graph than the shared `--scale` default: 8x the edges gives
    /// the dispatch gap and the unify merge enough work to measure.
    const ANALYTICS_SCALE_BOOST: u64 = 8;

    let opts = BenchOptions {
        scale: (opts.scale / ANALYTICS_SCALE_BOOST).max(1),
        ..opts.clone()
    };
    let opts = &opts;
    let w = Workload::build(ORKUT, opts);
    let num_edges = w.edges.len();
    let kernel_shards = opts.shard_counts.iter().copied().max().unwrap_or(4).max(2);

    let build_graph = |shards: usize| -> Arc<ShardedGraph<Dgap>> {
        let per_shard_edges = num_edges.div_ceil(shards);
        let bytes = (per_shard_edges * 3 * 1024)
            .max(w.num_vertices * 1024)
            .clamp(64 << 20, 1 << 30);
        let graph = Arc::new(
            ShardedGraph::create_dgap(shards, w.num_vertices, num_edges, |_| {
                PmemConfig::with_capacity(bytes).persistence_tracking(false)
            })
            .expect("create sharded DGAP"),
        );
        for (i, &(s, d)) in w.edges.iter().enumerate() {
            graph.insert_edge(s, d).expect("insert");
            if i % DELETE_EVERY == 0 {
                graph.delete_edge(s, d).expect("delete");
            }
        }
        graph
    };
    let timed = |f: &mut dyn FnMut()| -> (f64, f64) {
        let mut samples_ms: Vec<f64> = (0..TRIALS)
            .map(|_| {
                let start = std::time::Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples_ms.sort_by(f64::total_cmp);
        (percentile(&samples_ms, 0.50), percentile(&samples_ms, 0.99))
    };

    let mut table = Table::new(
        format!(
            "Analytics: dyn-dispatch vs zero-dispatch CSR kernels + UnifiedView merge \
             (Orkut-scaled, {num_edges} edge records)"
        ),
        &[
            "mode", "kernel", "threads", "shards", "trials", "p50 ms", "p99 ms", "speedup",
        ],
    );

    // Kernel rows: dyn vs CSR over the same unified data, per thread count.
    // Scoped so this graph (and its per-shard pools) is dropped before the
    // shard loop below builds the next one — peak footprint stays at one
    // graph + one unified CSR.
    {
        let graph = build_graph(kernel_shards);
        let owned = graph.consistent_view_arc();
        let unified = UnifiedView::unify(&owned);
        let source = highest_degree_vertex(&unified);
        let kernels = [Kernel::PageRank, Kernel::Bfs, Kernel::Cc, Kernel::Bc];
        let per_edge = PerEdgeDispatch(&unified);
        for &threads in &opts.thread_counts {
            for kernel in kernels {
                let (dyn_p50, dyn_p99) = timed(&mut || {
                    with_threads(threads, || kernel_once(&per_edge, kernel, source));
                });
                let (csr_p50, csr_p99) = timed(&mut || {
                    with_threads(threads, || kernel_once(&unified, kernel, source));
                });
                for (mode, p50, p99, speedup) in [
                    ("dyn", dyn_p50, dyn_p99, 1.0),
                    ("csr", csr_p50, csr_p99, dyn_p50 / csr_p50.max(1e-9)),
                ] {
                    table.row(vec![
                        mode.to_string(),
                        kernel.label().to_string(),
                        format!("{threads}"),
                        format!("{kernel_shards}"),
                        format!("{TRIALS}"),
                        format!("{p50:.3}"),
                        format!("{p99:.3}"),
                        ratio(speedup),
                    ]);
                }
            }
        }
    }

    // Cross-shard rows: composite (hash + dispatch) vs unified CSR, and
    // the merge cost (full vs one-shard incremental), per shard count.
    for &shards in &opts.shard_counts {
        let graph = build_graph(shards);
        let owned = graph.consistent_view_arc();
        let unified = UnifiedView::unify(&owned);
        let (composite_p50, composite_p99) = timed(&mut || {
            std::hint::black_box(pagerank_parallel(&*owned, ITERS).len());
        });
        let (unified_p50, unified_p99) = timed(&mut || {
            std::hint::black_box(pagerank_parallel(&unified, ITERS).len());
        });
        let (full_p50, full_p99) = timed(&mut || {
            std::hint::black_box(UnifiedView::unify(&owned).num_edges());
        });
        // The service's single-shard-burst path: touch one shard, carry
        // every other shard's Arc over, refresh the unified CSR.
        let touched = graph.shard_of(0);
        graph.insert_edge(0, 1).expect("insert");
        let reuse: Vec<Option<Arc<dgap::FrozenView>>> = (0..shards)
            .map(|i| (i != touched).then(|| owned.shard_view_arc(i)))
            .collect();
        let owned2 = graph.owned_view_reusing(reuse);
        let (incr_p50, incr_p99) = timed(&mut || {
            let refreshed = unified.refreshed(&owned2);
            assert_eq!(refreshed.merged_shards(), 1, "one shard was touched");
            std::hint::black_box(refreshed.num_edges());
        });
        for (mode, kernel, p50, p99, speedup) in [
            ("dyn-composite", "PR", composite_p50, composite_p99, 1.0),
            (
                "csr-unified",
                "PR",
                unified_p50,
                unified_p99,
                composite_p50 / unified_p50.max(1e-9),
            ),
            ("unify-full", "-", full_p50, full_p99, 1.0),
            (
                "unify-incr1",
                "-",
                incr_p50,
                incr_p99,
                full_p50 / incr_p50.max(1e-9),
            ),
        ] {
            table.row(vec![
                mode.to_string(),
                kernel.to_string(),
                "pool".to_string(),
                format!("{shards}"),
                format!("{TRIALS}"),
                format!("{p50:.3}"),
                format!("{p99:.3}"),
                ratio(speedup),
            ]);
        }
    }
    table
}

/// `incremental`: epoch-delta kernels vs their full recomputations on the
/// unified CSR, per write-burst size, plus one row per kernel in the
/// widened analytics set.
///
/// Incremental kernels pay off when a perturbation stays local, so the
/// workload models **graph growth** rather than uniform-random rewiring: a
/// sparse core (a ring plus a sprinkling of random chords, mirrored, avg
/// degree ~2) over 80% of the vertex range, then write bursts that attach
/// previously-isolated tail vertices to a handful of core hubs — the
/// preferential-attachment shape real dynamic graphs grow by, and the one
/// the service's steady state serves.  Each new leaf is a dead end, so
/// rank deviations radiate from the few hubs, not from every inserted
/// edge; a uniform-random burst of the same size seeds thousands of
/// deviation sources whose multi-hop spread touches the whole (scaled)
/// graph and degenerates the exact-trajectory incremental kernel into a
/// sequential full recompute.  The core is sized from the Orkut edge
/// budget at `--scale`, not the Orkut degree distribution (at avg degree
/// 76 even one perturbation floods within two hops).
///
/// The graph is mutated through four escalating attachment bursts: a
/// single edge, 0.1% of E, 1% of E, and 10% of E.  After each burst the
/// unified CSR is refreshed through the epoch-delta path (untouched shards
/// carry their spans forward) and both PageRank and connected components
/// run twice:
///
/// * `full`: the parallel kernel over the refreshed view.
/// * `incr`: the incremental kernel seeded from the previous epoch's
///   result, re-relaxing only the delta's frontier.  `speedup` is full p50
///   / incr p50.  The 10%E row deliberately shows the profitability
///   crossover: the sequential frontier replay recomputes enough of the
///   graph that the pool-parallel full kernel wins, and past
///   [`analytics::INCREMENTAL_FALLBACK_FRACTION`] of V changed the
///   incremental path declines outright and the row measures the declared
///   fallback (full kernel plus a cheap bound check).
///
/// The trailing `kernel` rows time the widened kernel set once each on the
/// final epoch's view: triangle count, 4-core, top-32 by degree, top-32 by
/// PageRank (served from the maintained rank vector, hence microseconds),
/// and a depth-2 k-hop ball around the highest-degree vertex.
pub fn incremental(opts: &BenchOptions) -> Table {
    use analytics::{
        cc_incremental, k_core_csr, khop_neighborhood_csr, pagerank_csr_recording,
        pagerank_incremental, top_k_degree, top_k_pagerank, triangle_count_csr,
    };
    use sharded::{ShardedGraph, UnifiedView};

    const TRIALS: usize = 5;
    /// PageRank iterations (Table 1's GAPBS configuration).
    const ITERS: usize = analytics::pagerank::DEFAULT_ITERATIONS;
    /// Same densification as `analytics`: the kernels need enough edges
    /// that a full recomputation has real work to amortise.
    const ANALYTICS_SCALE_BOOST: u64 = 8;

    let opts = BenchOptions {
        scale: (opts.scale / ANALYTICS_SCALE_BOOST).max(1),
        ..opts.clone()
    };
    let opts = &opts;
    let shards = opts.shard_counts.iter().copied().max().unwrap_or(4).max(2);
    // Core = ring + chords over the first 80% of the range; the tail is
    // the pool of not-yet-attached vertices the bursts draw from.  The
    // vertex count carries the Orkut edge budget so `--scale` means the
    // same thing it does everywhere else.
    let n = (ORKUT.scaled_edges(opts.scale) as u64).max(1024);
    let core = n * 4 / 5;
    let chords = core / 16;
    let base_edges = (core + chords) as usize;
    // Mirrored load plus headroom for the bursts (~11.1% of E, mirrored).
    let num_records = base_edges * 2 + base_edges / 4;
    let per_shard_edges = num_records.div_ceil(shards);
    let bytes = (per_shard_edges * 3 * 1024)
        .max(n as usize * 1024)
        .clamp(64 << 20, 1 << 30);
    let graph = Arc::new(
        ShardedGraph::create_dgap(shards, n as usize, num_records, |_| {
            PmemConfig::with_capacity(bytes).persistence_tracking(false)
        })
        .expect("create sharded DGAP"),
    );
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for v in 0..core {
        graph.insert_edge(v, (v + 1) % core).expect("insert");
        graph.insert_edge((v + 1) % core, v).expect("insert");
    }
    for _ in 0..chords {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let a = (x >> 33) % core;
        let b = (x >> 11) % core;
        graph.insert_edge(a, b).expect("insert");
        graph.insert_edge(b, a).expect("insert");
    }

    let timed = |f: &mut dyn FnMut()| -> (f64, f64) {
        let mut samples_ms: Vec<f64> = (0..TRIALS)
            .map(|_| {
                let start = std::time::Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples_ms.sort_by(f64::total_cmp);
        (percentile(&samples_ms, 0.50), percentile(&samples_ms, 0.99))
    };

    let mut table = Table::new(
        format!(
            "Incremental analytics: epoch-delta kernels vs full recomputation \
             (small-world ring+chords, {} edge records, {shards} shards)",
            base_edges * 2
        ),
        &[
            "mode", "kernel", "burst", "threads", "shards", "trials", "p50 ms", "p99 ms", "speedup",
        ],
    );

    let mut owned = graph.consistent_view_arc();
    let mut unified = UnifiedView::unify(&owned);
    let mut cache = pagerank_csr_recording(&unified, ITERS);
    let mut labels = cc_parallel(&unified);

    let bursts: [(&str, usize); 4] = [
        ("1", 1),
        ("0.1%E", (base_edges / 1000).max(1)),
        ("1%E", (base_edges / 100).max(1)),
        ("10%E", (base_edges / 10).max(1)),
    ];
    // Attachment bursts: each inserted edge links the next unattached tail
    // vertex to one of a few core hubs (deterministically spread around the
    // ring), one hub per 512 leaves.
    let mut next_leaf = core;
    for (label, burst) in bursts {
        let hub_count = burst.div_ceil(512).max(1) as u64;
        let mut touched = vec![false; shards];
        for i in 0..burst {
            let hub = (i as u64 % hub_count).wrapping_mul(997) % core;
            let leaf = next_leaf;
            next_leaf += 1;
            assert!(leaf < n, "burst headroom: reserved tail exhausted");
            graph.insert_edge(hub, leaf).expect("insert");
            graph.insert_edge(leaf, hub).expect("insert");
            touched[graph.shard_of(hub)] = true;
            touched[graph.shard_of(leaf)] = true;
        }
        // The service's refresh path: untouched shards carry their frozen
        // spans (and the unified CSR carries their slices) forward.
        let reuse: Vec<Option<Arc<dgap::FrozenView>>> = (0..shards)
            .map(|i| (!touched[i]).then(|| owned.shard_view_arc(i)))
            .collect();
        let owned2 = Arc::new(graph.owned_view_reusing(reuse));
        let next = unified.refreshed(&owned2);
        let delta = next.delta().expect("refreshed views carry a delta");

        let (full_pr_p50, full_pr_p99) = timed(&mut || {
            std::hint::black_box(pagerank_parallel(&next, ITERS).len());
        });
        let (incr_pr_p50, incr_pr_p99) = timed(&mut || {
            match pagerank_incremental(&next, &cache, delta.changed_vertices()) {
                Some(run) => std::hint::black_box(run.cache.ranks().len()),
                // Declined: the incremental path's cost IS the fallback.
                None => std::hint::black_box(pagerank_parallel(&next, ITERS).len()),
            };
        });
        let (full_cc_p50, full_cc_p99) = timed(&mut || {
            std::hint::black_box(cc_parallel(&next).len());
        });
        let (incr_cc_p50, incr_cc_p99) = timed(&mut || {
            match cc_incremental(
                &next,
                &labels,
                delta.changed_vertices(),
                delta.has_deletions(),
            ) {
                Some(l) => std::hint::black_box(l.len()),
                None => std::hint::black_box(cc_parallel(&next).len()),
            };
        });
        for (mode, kernel, p50, p99, speedup) in [
            ("full", "PR", full_pr_p50, full_pr_p99, 1.0),
            (
                "incr",
                "PR",
                incr_pr_p50,
                incr_pr_p99,
                full_pr_p50 / incr_pr_p50.max(1e-9),
            ),
            ("full", "CC", full_cc_p50, full_cc_p99, 1.0),
            (
                "incr",
                "CC",
                incr_cc_p50,
                incr_cc_p99,
                full_cc_p50 / incr_cc_p50.max(1e-9),
            ),
        ] {
            table.row(vec![
                mode.to_string(),
                kernel.to_string(),
                label.to_string(),
                "pool".to_string(),
                format!("{shards}"),
                format!("{TRIALS}"),
                format!("{p50:.3}"),
                format!("{p99:.3}"),
                ratio(speedup),
            ]);
        }

        // Carry this epoch's results into the next burst, exactly as the
        // service's analytics cache does.
        cache = pagerank_incremental(&next, &cache, delta.changed_vertices())
            .map(|run| run.cache)
            .unwrap_or_else(|| pagerank_csr_recording(&next, ITERS));
        labels = cc_parallel(&next);
        unified = next;
        owned = owned2;
    }

    // The widened kernel set, once each over the final epoch's view.
    let source = highest_degree_vertex(&unified);
    let ranks: Vec<f64> = cache.ranks().to_vec();
    let kernel_row = |table: &mut Table, kernel: &str, f: &mut dyn FnMut()| {
        let (p50, p99) = timed(f);
        table.row(vec![
            "kernel".to_string(),
            kernel.to_string(),
            "-".to_string(),
            "pool".to_string(),
            format!("{shards}"),
            format!("{TRIALS}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            ratio(1.0),
        ]);
    };
    kernel_row(&mut table, "TC", &mut || {
        std::hint::black_box(triangle_count_csr(&unified));
    });
    kernel_row(&mut table, "KCORE4", &mut || {
        std::hint::black_box(k_core_csr(&unified, 4).len());
    });
    kernel_row(&mut table, "TOPK-DEG", &mut || {
        std::hint::black_box(top_k_degree(&unified, 32).len());
    });
    kernel_row(&mut table, "TOPK-PR", &mut || {
        std::hint::black_box(top_k_pagerank(&ranks, 32).len());
    });
    kernel_row(&mut table, "KHOP2", &mut || {
        std::hint::black_box(khop_neighborhood_csr(&unified, source, 2).len());
    });
    table
}

/// `serve`: sustained mixed mutate/query traffic through the typed
/// [`service::GraphService`] front-end, per shard count.  Four client
/// threads stream insert batches (with periodic deletes of earlier edges)
/// and interleave snapshot queries; the table reports mutation throughput
/// plus query latency percentiles — the numbers a capacity plan for the
/// request/response layer starts from.
///
/// The percentiles come from the service's **own** telemetry plane (the
/// `service_query_nanos{kind="degree"}` histogram behind `Query::Metrics`),
/// not from client-side stopwatches: the benchmark exercises exactly the
/// instrumentation an operator would read in production, and a run with
/// `--json DIR` drops the full Prometheus rendering as
/// `DIR/METRICS_serve.prom`.
pub fn serve(opts: &BenchOptions) -> Table {
    use dgap::Update;
    use service::{GraphService, ServiceConfig};
    use sharded::ShardedConfig;

    const CLIENTS: usize = 4;
    const BATCH: usize = 1024;
    /// One snapshot query per this many mutate batches.
    const QUERY_EVERY: usize = 4;
    /// One delete per this many inserts (deletes re-target edges from the
    /// same batch, so the oracle-free benchmark stays self-consistent).
    const DELETE_EVERY: usize = 64;

    let w = Workload::build(ORKUT, opts);
    let num_edges = w.edges.len();
    let mut table = Table::new(
        format!(
            "Serve: mixed mutate/query traffic via GraphService \
             (Orkut-scaled, {num_edges} edges, {CLIENTS} clients)"
        ),
        &[
            "shards",
            "mutate ops",
            "queries",
            "wall s",
            "throughput MOPS",
            "query p50 ms",
            "query p99 ms",
            "query p999 ms",
            "refresh us",
            "captures/refresh",
        ],
    );
    let mut last_prom: Option<String> = None;

    for &shards in &opts.shard_counts {
        let per_shard_edges = num_edges.div_ceil(shards.max(1));
        let pool_bytes = (per_shard_edges * 3 * 1024)
            .max(w.num_vertices * 1024)
            .clamp(64 << 20, 1 << 30);
        let service = GraphService::start(ServiceConfig {
            sharded: ShardedConfig::builder()
                .shards(shards)
                .queue_capacity(64)
                .batch_size(BATCH)
                .build(),
            workers: CLIENTS,
            num_vertices: w.num_vertices,
            num_edges,
            pool_bytes,
            ..ServiceConfig::default()
        })
        .expect("start GraphService");

        let start = std::time::Instant::now();
        let per_client: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let client = service.client();
                    let edges = &w.edges;
                    scope.spawn(move || {
                        let stream: Vec<workloads::Edge> =
                            edges.iter().copied().skip(c).step_by(CLIENTS).collect();
                        let mut mutated = 0usize;
                        for (i, chunk) in stream.chunks(BATCH).enumerate() {
                            let mut ops: Vec<Update> =
                                chunk.iter().map(|&e| Update::from(e)).collect();
                            for &(s, d) in chunk.iter().step_by(DELETE_EVERY) {
                                ops.push(Update::DeleteEdge(s, d));
                            }
                            mutated += ops.len();
                            let ticket = client.mutate(ops).expect("mutate");
                            if i % QUERY_EVERY == 0 {
                                client.wait(&ticket).expect("wait");
                                let probe = chunk[0].0;
                                let _ = client.degree(probe).expect("degree query");
                            }
                        }
                        mutated
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        service.client().flush().expect("flush");
        let wall = start.elapsed().as_secs_f64();
        // Snapshot-refresh economics over the whole run: mean time per
        // epoch refresh, and how many shard captures each refresh paid for
        // (all-shard write traffic approaches the shard count; single-shard
        // bursts approach 1 — the incremental path's whole point).
        let stats = service.stats();
        let refreshes = stats.snapshot_refreshes.max(1);
        let refresh_us = stats.refresh_nanos as f64 / refreshes as f64 / 1e3;
        let captures_per_refresh = stats.shard_captures as f64 / refreshes as f64;

        // Query latency straight from the service's own histogram — what a
        // dashboard scraping `Query::Metrics` would show for this run.
        let metrics = service.metrics();
        let degree = metrics
            .histogram_labeled("service_query_nanos", "kind=\"degree\"")
            .cloned()
            .unwrap_or_default();
        let queries = degree.count;
        let ms = |nanos: u64| nanos as f64 / 1e6;

        let mutate_ops: usize = per_client.iter().sum();
        table.row(vec![
            format!("{shards}"),
            format!("{mutate_ops}"),
            format!("{queries}"),
            secs(wall),
            meps(mutate_ops as f64 / wall / 1e6),
            format!("{:.3}", ms(degree.p50())),
            format!("{:.3}", ms(degree.p99())),
            format!("{:.3}", ms(degree.p999())),
            format!("{refresh_us:.1}"),
            format!("{captures_per_refresh:.2}"),
        ]);
        last_prom = Some(format!(
            "# dgap-bench serve: shards={shards}, clients={CLIENTS}\n{}",
            metrics.render_prometheus()
        ));
        service.shutdown();
    }
    if let (Some(dir), Some(prom)) = (&opts.artifact_dir, &last_prom) {
        let path = dir.join("METRICS_serve.prom");
        std::fs::write(&path, prom).expect("write METRICS_serve.prom");
    }
    table
}

/// `serve_net`: the network plane under load — hundreds of simulated
/// remote tenants, each on its own TCP connection, streaming mutate/query
/// traffic through the wire protocol into one `GraphServer`.  One row per
/// connection count reports throughput and the server-side
/// `net_request_nanos` tail (p50/p99/p999) — how request latency degrades
/// as the connection count grows — plus a `quota` row where deliberately
/// oversized batches exercise admission control (the `shed` column counts
/// the structured `Overloaded` replies).
///
/// Like `serve`, the percentiles come from the service registry's own
/// histogram, not client stopwatches; with `--json DIR` the run appends its
/// full Prometheus rendering (including every `net_*` series) to
/// `DIR/METRICS_serve.prom`.
pub fn serve_net(opts: &BenchOptions) -> Table {
    use dgap::Update;
    use net::{GraphServer, NetConfig, RemoteClient};
    use service::{GraphService, ServiceConfig};
    use sharded::ShardedConfig;

    /// Tenant counts for the open (unthrottled) rows.
    const CONN_COUNTS: [usize; 3] = [8, 32, 128];
    /// Requests per tenant: even slots are mutate batches, odd are degree
    /// queries, with a ticket wait every 16th to exercise read-your-writes.
    const REQUESTS_PER_CONN: usize = 120;
    const BATCH: usize = 8;
    const NUM_VERTICES: usize = 4096;
    /// The quota row's per-connection token bucket: each tenant demands
    /// ~550 tokens per run, so even a slow box (where the wall clock
    /// refills more tokens) sheds with an order-of-magnitude margin.
    const QUOTA_OPS_PER_SEC: u64 = 50;

    let service_config = || ServiceConfig {
        sharded: ShardedConfig::builder()
            .shards(4)
            .queue_capacity(64)
            .batch_size(256)
            .build(),
        workers: 4,
        num_vertices: NUM_VERTICES,
        num_edges: 1 << 17,
        pool_bytes: 64 << 20,
        ..ServiceConfig::default()
    };

    let mut table = Table::new(
        format!(
            "Serve-net: remote tenants over TCP via GraphServer \
             ({REQUESTS_PER_CONN} requests/connection, mutate batch {BATCH})"
        ),
        &[
            "mode",
            "connections",
            "requests",
            "shed",
            "wall s",
            "kreq s",
            "p50 ms",
            "p99 ms",
            "p999 ms",
        ],
    );

    let modes: Vec<(&str, usize, NetConfig)> = CONN_COUNTS
        .iter()
        .map(|&conns| ("open", conns, NetConfig::loopback()))
        .chain(std::iter::once((
            "quota",
            32,
            NetConfig {
                ops_per_sec: Some(QUOTA_OPS_PER_SEC),
                burst_ops: QUOTA_OPS_PER_SEC,
                ..NetConfig::loopback()
            },
        )))
        .collect();

    let mut last_prom: Option<String> = None;
    for (mode, conns, net) in modes {
        let server = GraphServer::serve(
            GraphService::start(service_config()).expect("start GraphService"),
            net,
        )
        .expect("start GraphServer");
        let addr = server.local_addr();

        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for c in 0..conns {
                scope.spawn(move || {
                    let client = RemoteClient::connect(addr).expect("connect");
                    let mut ticket = sharded::Ticket::empty();
                    for i in 0..REQUESTS_PER_CONN {
                        if i % 2 == 0 {
                            let base = ((c * REQUESTS_PER_CONN + i) * BATCH) as u64;
                            let ops: Vec<Update> = (0..BATCH as u64)
                                .map(|k| {
                                    Update::InsertEdge(
                                        (base + k) % NUM_VERTICES as u64,
                                        (base + k * 7 + 1) % NUM_VERTICES as u64,
                                    )
                                })
                                .collect();
                            match client.mutate(ops) {
                                Ok(t) => ticket.merge(&t),
                                // The quota row sheds on purpose; a polite
                                // tenant would back off here.
                                Err(dgap::GraphError::Overloaded { .. }) => {}
                                Err(err) => panic!("mutate failed: {err}"),
                            }
                            if i % 16 == 0 {
                                match client.wait(&ticket) {
                                    // Read-your-writes checkpoint; in quota
                                    // mode the drained bucket sheds it like
                                    // any other request.
                                    Ok(()) | Err(dgap::GraphError::Overloaded { .. }) => {}
                                    Err(err) => panic!("wait failed: {err}"),
                                }
                                ticket = sharded::Ticket::empty();
                            }
                        } else {
                            let probe = (c * 31 + i) as u64 % NUM_VERTICES as u64;
                            match client.degree(probe) {
                                Ok(_) => {}
                                Err(dgap::GraphError::Overloaded { .. }) => {}
                                Err(err) => panic!("degree failed: {err}"),
                            }
                        }
                    }
                    client.close();
                });
            }
        });
        let wall = start.elapsed().as_secs_f64();

        // Everything below comes from the server's own registry — the same
        // series an operator would scrape.
        let metrics = server.service().metrics();
        let requests = metrics.counter("net_requests_total").unwrap_or(0);
        let shed = metrics.counter("net_requests_shed").unwrap_or(0);
        let nanos = metrics
            .histogram("net_request_nanos")
            .cloned()
            .unwrap_or_default();
        let ms = |n: u64| n as f64 / 1e6;
        table.row(vec![
            mode.to_string(),
            format!("{conns}"),
            format!("{requests}"),
            format!("{shed}"),
            secs(wall),
            format!("{:.1}", requests as f64 / wall / 1e3),
            format!("{:.3}", ms(nanos.p50())),
            format!("{:.3}", ms(nanos.p99())),
            format!("{:.3}", ms(nanos.p999())),
        ]);
        last_prom = Some(format!(
            "# dgap-bench serve-net: mode={mode}, connections={conns}\n{}",
            metrics.render_prometheus()
        ));
        server.shutdown();
    }
    if let (Some(dir), Some(prom)) = (&opts.artifact_dir, &last_prom) {
        // Appended, not overwritten: a CI run that did `serve` first ends up
        // with one file carrying both the in-process and the network-plane
        // series.
        use std::io::Write as _;
        let path = dir.join("METRICS_serve.prom");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open METRICS_serve.prom");
        file.write_all(prom.as_bytes())
            .expect("append METRICS_serve.prom");
    }
    table
}

/// Nearest-rank percentile over an ascending-sorted sample (0.0 for an
/// empty one).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchOptions {
        BenchOptions {
            scale: 1 << 21,
            thread_counts: vec![1, 2],
            ..BenchOptions::default()
        }
    }

    #[test]
    fn fig1_runners_produce_rows() {
        let rows = fig1a(&tiny()).len();
        assert!((9..=10).contains(&rows), "fig1a rows: {rows}");
        assert_eq!(fig1b(&tiny()).len(), 3);
        assert_eq!(fig1c(&tiny()).len(), 3);
    }

    #[test]
    fn insertion_runners_cover_all_systems() {
        let t = fig6(&tiny());
        assert_eq!(t.len(), ALL_DATASETS.len());
        let t3 = table3(&tiny());
        assert_eq!(t3.len(), ALL_DATASETS.len() * 2);
    }

    #[test]
    fn ablation_and_sweep_runners() {
        assert_eq!(table5(&tiny()).len(), SMALL_DATASETS.len());
        assert_eq!(fig9(&tiny()).len(), 2 * 9);
        assert_eq!(fig5(&tiny()).len(), 16);
    }

    #[test]
    fn analysis_runner_normalises_against_csr() {
        let t = fig7(&tiny());
        assert_eq!(t.len(), ALL_DATASETS.len() * 2);
    }

    #[test]
    fn recovery_runner() {
        let opts = BenchOptions {
            shard_counts: vec![1, 2],
            ..tiny()
        };
        // Per dataset: normal + crash-seq + one crash-par row per thread
        // count + the verify row + one crash-shards and one
        // reopen+client-table row per shard count.
        let per_dataset = 3 + opts.thread_counts.len() + 2 * opts.shard_counts.len();
        assert_eq!(recovery(&opts).len(), SMALL_DATASETS.len() * per_dataset);
    }

    #[test]
    fn sharding_runner_covers_requested_counts() {
        let opts = BenchOptions {
            shard_counts: vec![1, 2],
            ..tiny()
        };
        assert_eq!(sharding(&opts).len(), 2);
    }

    #[test]
    fn snapshot_runner_emits_all_modes() {
        let opts = BenchOptions {
            shard_counts: vec![1, 2],
            ..tiny()
        };
        // seq + one row per thread count + shards-par + incremental-1.
        let t = snapshot(&opts);
        assert_eq!(t.len(), 1 + opts.thread_counts.len() + 2);
    }

    #[test]
    fn analytics_runner_emits_all_modes() {
        let opts = BenchOptions {
            shard_counts: vec![1, 2],
            ..tiny()
        };
        // Per thread count: 4 kernels × (dyn + csr); per shard count:
        // dyn-composite + csr-unified + unify-full + unify-incr1.
        let t = analytics(&opts);
        assert_eq!(
            t.len(),
            opts.thread_counts.len() * 4 * 2 + opts.shard_counts.len() * 4
        );
    }

    #[test]
    fn incremental_runner_emits_all_modes() {
        let opts = BenchOptions {
            shard_counts: vec![1, 2],
            ..tiny()
        };
        // 4 bursts × (PR, CC) × (full, incr) + 5 widened-kernel rows.
        assert_eq!(incremental(&opts).len(), 4 * 2 * 2 + 5);
    }

    #[test]
    fn serve_runner_covers_requested_counts() {
        let opts = BenchOptions {
            shard_counts: vec![1, 2],
            ..tiny()
        };
        assert_eq!(serve(&opts).len(), 2);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 5.0);
    }
}
