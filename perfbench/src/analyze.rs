//! `analyze`: the paper's Fig 7/8 path.
//!
//! The graph is loaded once (set-up); then rounds of
//! `Dgap::consistent_view` + one kernel run for PageRank (20 iterations),
//! BFS, CC and BC from the highest-degree vertex, at `threads = nproc`.
//! Nothing writes while the kernels read, so the snapshot never goes stale
//! and no PM writes happen.  The last round's answers are checked against
//! the sequential kernels on the same graph.

use crate::report::{provenance, Ctx, Outcome};
use crate::stats::{median, per};
use crate::trace::{totals_by_name, Recorder, Span};
use analytics::bfs::distances_from_parents;
use analytics::pagerank::DEFAULT_ITERATIONS;
use analytics::{
    bc, bc_parallel, bfs, bfs_parallel, cc, cc_parallel, highest_degree_vertex, pagerank,
    pagerank_csr, pagerank_parallel, with_threads,
};
use dgap::{Dgap, DgapConfig, DynamicGraph, FrozenView, GraphView};
use pmem::{PmemConfig, PmemPool};
use rayon::PoolStats;
use std::sync::Arc;
use std::time::Instant;
use workloads::datasets::LIVEJOURNAL;
use workloads::{GeneratorConfig, GraphKind};

/// LiveJournal-shaped R-MAT at 1/64 of the real graph (~76k vertices,
/// ~1.34M edges, average degree ~18): the edge array outgrows a 4 MiB L2.
const SCALE: u64 = 64;
/// Set-ups per run; the run keeps the last graph and reports the median.
const SETUPS: usize = 2;
/// PM pool per graph (lazily committed).
const POOL_BYTES: usize = 512 << 20;
/// PageRank scores may differ from the sequential kernel by float
/// reassociation only.
const PR_TOLERANCE: f64 = 1e-9;
/// Relative tolerance for BC scores (atomic float adds reassociate).
const BC_REL_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Pr,
    Bfs,
    Cc,
    Bc,
}

const KERNELS: [Kernel; 4] = [Kernel::Pr, Kernel::Bfs, Kernel::Cc, Kernel::Bc];

impl Kernel {
    fn span(self) -> &'static str {
        match self {
            Kernel::Pr => "analytics.pagerank_parallel",
            Kernel::Bfs => "analytics.bfs_parallel",
            Kernel::Cc => "analytics.cc_parallel",
            Kernel::Bc => "analytics.bc_parallel",
        }
    }
}

/// Answers of one kernel call, kept for the correctness gate.
enum Answer {
    Ranks(Vec<f64>),
    Parents(Vec<i64>),
    Labels(Vec<u64>),
    Scores(Vec<f64>),
}

fn pool_config() -> PmemConfig {
    PmemConfig::with_capacity(POOL_BYTES).persistence_tracking(false)
}

struct Loaded {
    pool: Arc<PmemPool>,
    graph: Dgap,
    source: u64,
    edges: u64,
    failed: u64,
}

fn setup(ctx: &Ctx) -> Loaded {
    let list = GeneratorConfig::new(
        LIVEJOURNAL.scaled_vertices(SCALE),
        LIVEJOURNAL.scaled_edges(SCALE),
        GraphKind::RMat,
        ctx.seed,
    )
    .generate();
    let pool = Arc::new(PmemPool::new(pool_config()));
    let graph = Dgap::create(
        Arc::clone(&pool),
        DgapConfig::for_graph(list.num_vertices, list.edges.len()),
    )
    .expect("create DGAP");
    let failed = list
        .edges
        .iter()
        .filter(|&&(s, d)| graph.insert_edge(s, d).is_err())
        .count() as u64;
    let source = highest_degree_vertex(&graph.consistent_view());
    Loaded {
        pool,
        graph,
        source,
        edges: list.edges.len() as u64,
        failed,
    }
}

/// One timed call: snapshot + kernel, charged wall plus simulated time.
struct Call {
    kernel: Kernel,
    cost_ns: f64,
    snapshot_ns: f64,
    kernel_wall_ns: f64,
    sim_ns: f64,
}

fn call(
    g: &Loaded,
    kernel: Kernel,
    threads: usize,
    rec: &mut Recorder,
    req: u64,
) -> (Call, Answer) {
    let pm0 = g.pool.stats_snapshot();
    let start = Instant::now();
    let open = rec.begin("analyze.request", req);
    let snap_open = rec.begin("dgap.consistent_view", req);
    let view = g.graph.consistent_view();
    let snap_end = Instant::now();
    rec.end(snap_open, 0);
    let k_open = rec.begin(kernel.span(), req);
    let answer = with_threads(threads, || match kernel {
        Kernel::Pr => Answer::Ranks(pagerank_parallel(&view, DEFAULT_ITERATIONS)),
        Kernel::Bfs => Answer::Parents(bfs_parallel(&view, g.source)),
        Kernel::Cc => Answer::Labels(cc_parallel(&view)),
        Kernel::Bc => Answer::Scores(bc_parallel(&view, g.source)),
    });
    let end = Instant::now();
    let sim_ns = g.pool.stats_snapshot().delta_since(&pm0).simulated_ns as f64;
    rec.end(k_open, 0);
    rec.end(open, sim_ns as u64);
    let wall = (end - start).as_nanos() as f64;
    (
        Call {
            kernel,
            cost_ns: wall + sim_ns,
            snapshot_ns: (snap_end - start).as_nanos() as f64,
            kernel_wall_ns: (end - snap_end).as_nanos() as f64,
            sim_ns,
        },
        answer,
    )
}

/// The correctness gate: parallel answers against the sequential kernels
/// on the same snapshot.  BFS distances and CC labels must be exact.
fn check(g: &Loaded, answers: &[Answer]) -> bool {
    let view = g.graph.consistent_view();
    answers.iter().all(|a| match a {
        Answer::Ranks(got) => {
            let want = pagerank(&view, DEFAULT_ITERATIONS);
            got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| (a - b).abs() <= PR_TOLERANCE)
        }
        Answer::Parents(got) => {
            let want = bfs(&view, g.source);
            distances_from_parents(&view, got, g.source)
                == distances_from_parents(&view, &want, g.source)
        }
        Answer::Labels(got) => *got == cc(&view),
        Answer::Scores(got) => {
            let want = bc(&view, g.source);
            got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| (a - b).abs() <= BC_REL_TOLERANCE * a.abs().max(b.abs()).max(1.0))
        }
    })
}

/// Run rounds of the four kernels until `until` seconds have passed since
/// `measure` (at least one round).
fn rounds(
    g: &Loaded,
    threads: usize,
    measure: Instant,
    until: f64,
    rec: &mut Recorder,
) -> (Vec<Call>, Vec<Answer>) {
    let mut calls = Vec::new();
    let mut last = Vec::new();
    let mut req = 0u64;
    while last.is_empty() || measure.elapsed().as_secs_f64() < until {
        last.clear();
        for kernel in KERNELS {
            let (c, a) = call(g, kernel, threads, rec, req);
            req += 1;
            calls.push(c);
            last.push(a);
        }
    }
    (calls, last)
}

struct E2e {
    kernels_per_s: f64,
    per_kernel_ms: [f64; 4],
}

impl E2e {
    fn of(calls: &[Call]) -> E2e {
        let total: f64 = calls.iter().map(|c| c.cost_ns).sum();
        let per_kernel_ms = KERNELS.map(|k| {
            median(
                &calls
                    .iter()
                    .filter(|c| c.kernel == k)
                    .map(|c| c.cost_ns)
                    .collect::<Vec<_>>(),
            ) * 1e-6
        });
        E2e {
            kernels_per_s: per(calls.len() as f64, total * 1e-9),
            per_kernel_ms,
        }
    }
}

/// Run the `analyze` workload.
pub fn run(ctx: &Ctx, epoch: Instant) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    out.note(provenance(ctx, "analyze", &pool_config()));
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUPS {
        drop(loaded.take());
        let t = Instant::now();
        loaded = Some(setup(ctx));
        setups.push(t.elapsed().as_secs_f64());
    }
    let g = loaded.expect("at least one set-up");
    let setup_s = median(&setups);
    let threads = ctx.nproc;

    let measure = Instant::now();
    let pm_before = g.pool.stats_snapshot();
    let mut off = Recorder::new(false, epoch, 0);
    let untraced_budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (calls, answers) = rounds(&g, threads, measure, untraced_budget, &mut off);
    let e2e = E2e::of(&calls);
    for k in KERNELS {
        let of_k: Vec<&Call> = calls.iter().filter(|c| c.kernel == k).collect();
        let wall: Vec<f64> = of_k.iter().map(|c| c.cost_ns - c.sim_ns).collect();
        let sim: Vec<f64> = of_k.iter().map(|c| c.sim_ns).collect();
        out.note(format!(
            "  {:<28} median wall {:9.3} ms + sim {:9.3} ms over {} calls",
            k.span(),
            median(&wall) * 1e-6,
            median(&sim) * 1e-6,
            of_k.len()
        ));
    }
    let correct = check(&g, &answers);
    out.correct = correct && g.failed == 0;
    out.attempted = g.edges * SETUPS as u64 + calls.len() as u64;
    out.failed = g.failed * SETUPS as u64;

    out.note(format!(
        "analyze: {} edges, source vertex {}, threads={threads}, {} kernel calls ({} per kernel), \
         set-up: median of {SETUPS}",
        g.edges,
        g.source,
        calls.len(),
        calls.len() / KERNELS.len()
    ));
    if !ctx.trace {
        let [pr, bfs, cc, bc] = e2e.per_kernel_ms;
        let bytes = per(g.pool.used() as f64, g.edges as f64);
        out.e2e(
            "throughput",
            "kernel calls / (wall + sim) s",
            e2e.kernels_per_s,
            "1/s",
        );
        out.e2e(
            "latency1_ms",
            "analyze.pr_ms: snapshot + PageRank, median",
            pr,
            "ms",
        );
        out.e2e(
            "latency2_ms",
            "analyze.bfs_ms: snapshot + BFS, median",
            bfs,
            "ms",
        );
        out.e2e(
            "latency3_ms",
            "analyze.cc_ms: snapshot + CC, median",
            cc,
            "ms",
        );
        out.e2e(
            "latency4_ms",
            "analyze.bc_ms: snapshot + BC, median",
            bc,
            "ms",
        );
        out.e2e("pm_bytes_per_edge", "pool used / loaded edges", bytes, "B");
        out.e2e("setup_s", "generate + create + load", setup_s, "s");
        return (out, Vec::new());
    }

    // Traced half: the same rounds with spans and counter deltas.
    let mut rec = Recorder::new(true, epoch, 0);
    let pool0 = rayon::pool_stats();
    let (traced, answers) = rounds(&g, threads, measure, ctx.seconds, &mut rec);
    let pool = pool_delta(rayon::pool_stats(), pool0);
    // Bypass check: PM bytes written over every measured round.
    let written = g
        .pool
        .stats_snapshot()
        .delta_since(&pm_before)
        .logical_bytes_written;
    out.correct &= check(&g, &answers);
    out.attempted += traced.len() as u64;
    let t = E2e::of(&traced);
    let spans = rec.into_spans();
    out.layer("pmem.analyze_write_bytes", written as f64, "B");
    layers(&mut out, &g, &traced, &spans, pool, threads);
    crate::overhead(
        &mut out,
        (e2e.kernels_per_s, t.kernels_per_s),
        (e2e.per_kernel_ms[0], t.per_kernel_ms[0]),
    );
    (out, spans)
}

fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        workers: after.workers,
        steals: after.steals - before.steals,
        injected: after.injected - before.injected,
        executed: after.executed - before.executed,
        sleeps: after.sleeps - before.sleeps,
    }
}

fn layers(
    out: &mut Outcome,
    g: &Loaded,
    calls: &[Call],
    spans: &[Span],
    pool: PoolStats,
    threads: usize,
) {
    let totals = totals_by_name(spans);
    let kernel_ms = |k: Kernel| {
        let t = totals.get(k.span()).copied().unwrap_or_default();
        per(t.wall_ns as f64, t.count as f64) * 1e-6
    };
    out.layer("analytics.pr_wall_ms", kernel_ms(Kernel::Pr), "ms");
    out.layer("analytics.bfs_wall_ms", kernel_ms(Kernel::Bfs), "ms");
    out.layer("analytics.cc_wall_ms", kernel_ms(Kernel::Cc), "ms");
    out.layer("analytics.bc_wall_ms", kernel_ms(Kernel::Bc), "ms");
    let snaps: Vec<f64> = calls.iter().map(|c| c.snapshot_ns).collect();
    out.layer("dgap.snapshot_ms", median(&snaps) * 1e-6, "ms");

    let sim: f64 = calls.iter().map(|c| c.sim_ns).sum();
    let cost: f64 = calls.iter().map(|c| c.cost_ns).sum();
    out.layer("pmem.analyze_sim_share", per(sim, cost), "ratio");

    // PM reads per PageRank edge visit, from one separately counted call.
    let mut off = Recorder::new(false, Instant::now(), 0);
    let pm0 = g.pool.stats_snapshot();
    call(g, Kernel::Pr, threads, &mut off, 0);
    let pr_reads = g.pool.stats_snapshot().delta_since(&pm0).logical_bytes_read;
    let visits = g.graph.consistent_view().num_edges() as f64 * DEFAULT_ITERATIONS as f64;
    out.layer(
        "pmem.read_bytes_per_edge_visit",
        per(pr_reads as f64, visits),
        "B",
    );

    // The same PageRank over a CSR copy of the snapshot.
    let frozen = FrozenView::capture(&g.graph.consistent_view());
    let start = Instant::now();
    let ranks = with_threads(threads, || pagerank_csr(&frozen, DEFAULT_ITERATIONS));
    let csr_ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(ranks);
    out.layer(
        "analytics.pr_dgap_over_csr",
        per(kernel_ms(Kernel::Pr), csr_ms),
        "ratio",
    );

    // Speed-up from the pool: the same kernel at 1 thread over nproc.
    let mut wall_at = |k: Kernel, t: usize| call(g, k, t, &mut off, 0).0.kernel_wall_ns;
    let pr_n = wall_at(Kernel::Pr, threads);
    out.layer(
        "analytics.pr_scaling",
        per(wall_at(Kernel::Pr, 1), pr_n),
        "ratio",
    );
    let cc_n = wall_at(Kernel::Cc, threads);
    out.layer(
        "analytics.cc_scaling",
        per(wall_at(Kernel::Cc, 1), cc_n),
        "ratio",
    );

    let kernels = calls.len() as f64;
    out.layer(
        "pool.executed_per_injected",
        per(pool.executed as f64, pool.injected as f64),
        "ratio",
    );
    out.layer(
        "pool.steals_per_kernel",
        per(pool.steals as f64, kernels),
        "count",
    );
    out.layer(
        "pool.sleeps_per_kernel",
        per(pool.sleeps as f64, kernels),
        "count",
    );
}
