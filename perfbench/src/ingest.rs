//! `ingest`: the paper's Fig 6 / §4.4 path.
//!
//! One writer thread calls `Dgap::insert_edge` on one crash-tracking pool:
//! 10% of the stream as warm-up (set-up), the rest timed call by call.
//! Then the pool crashes, `Dgap::open` recovers it (timed, several times
//! over the same crashed image), and the recovered graph is checked against
//! every acknowledged insert.  Rounds repeat until the run's time is up.

use crate::report::{provenance, Ctx, Outcome};
use crate::stats::{median, per, quantile};
use crate::trace::{totals_by_name, Recorder, Span};
use dgap::{Dgap, DgapConfig, DgapStatsSnapshot, DynamicGraph, GraphView, RecoveryKind};
use pmem::{PmemConfig, PmemPool, StatsSnapshot};
use std::sync::Arc;
use std::time::Instant;
use workloads::datasets::ORKUT;
use workloads::{GeneratorConfig, GraphKind};

/// Orkut-shaped R-MAT at 1/512 of the real graph (~6k vertices, ~458k
/// edges, average degree ~76).
const SCALE: u64 = 512;
/// Share of the stream inserted before timing starts (the paper's warm-up).
const WARMUP_FRACTION: f64 = 0.1;
/// Crash-path opens per round (each over the same crashed image).
const RECOVERY_OPENS: usize = 3;
/// Emulated PM per pool: generous, because resizes leak old generations
/// into the bump allocator.  Capacity is committed lazily.
const POOL_BYTES: usize = 384 << 20;

/// Everything one round measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    attempted: u64,
    timed_edges: u64,
    failed: u64,
    /// Per-call cost (wall + simulated), nanoseconds.
    call_ns: Vec<f64>,
    phase_wall_ns: f64,
    phase_sim_ns: f64,
    pm_bytes_per_edge: f64,
    pm_delta: StatsSnapshot,
    dgap_delta: DgapStatsSnapshot,
    elog_appends: u64,
    elog_high_watermark: u64,
    /// Per-call costs split by whether the call did maintenance work
    /// (traced run only).
    plain_ns: Vec<f64>,
    maint_ns: Vec<f64>,
    /// Crash-path opens: (wall + sim) ns, sim ns, logical bytes read.
    recover_ns: Vec<f64>,
    recover_sim_ns: Vec<f64>,
    recover_read_bytes: Vec<f64>,
    /// `obs::global()` recovery-phase histogram sums per open, ns.
    recover_phase_ns: [Vec<f64>; 3],
    correct: bool,
}

const RECOVERY_PHASES: [&str; 3] = [
    "dgap_recovery_rebuild_scan_nanos",
    "dgap_recovery_elog_scan_nanos",
    "dgap_recovery_ulog_nanos",
];

fn recovery_phase_sums() -> [u64; 3] {
    let snap = obs::global().snapshot();
    RECOVERY_PHASES.map(|name| snap.histogram(name).map_or(0, |h| h.sum))
}

fn pool_config() -> PmemConfig {
    PmemConfig::with_capacity(POOL_BYTES)
}

/// Sorted adjacency of an edge list: the oracle the recovered graph must
/// equal, as a multiset per source vertex.
fn oracle(num_vertices: usize, edges: &[(u64, u64)]) -> Vec<Vec<u64>> {
    let mut adj = vec![Vec::new(); num_vertices];
    for &(s, d) in edges {
        adj[s as usize].push(d);
    }
    adj.iter_mut().for_each(|l| l.sort_unstable());
    adj
}

fn recovered_matches(g: &Dgap, expected: &[Vec<u64>]) -> bool {
    let view = g.consistent_view();
    if view.num_vertices() < expected.len() {
        return false;
    }
    let mut got = Vec::new();
    (0..view.num_vertices()).all(|v| {
        got.clear();
        view.for_each_neighbor(v as u64, &mut |d| got.push(d));
        got.sort_unstable();
        got == expected.get(v).map_or(&[][..], Vec::as_slice)
    })
}

/// Round `index` of a run streams the graph generated from
/// `seed + index * 2^32`: every round a different graph, so the run's
/// medians average over graph structure, and the same seed always gives
/// the same sequence of graphs.
fn round(ctx: &Ctx, index: u64, rec: &mut Recorder) -> Round {
    let req_base = index << 32;
    let mut r = Round::default();
    let setup = Instant::now();
    let list = GeneratorConfig::new(
        ORKUT.scaled_vertices(SCALE),
        ORKUT.scaled_edges(SCALE),
        GraphKind::RMat,
        ctx.seed.wrapping_add(index << 32),
    )
    .generate();
    let (num_vertices, edges) = (list.num_vertices, list.edges);
    let cfg = DgapConfig::for_graph(num_vertices, edges.len());
    let pool = Arc::new(PmemPool::new(pool_config()));
    let g = Dgap::create(Arc::clone(&pool), cfg.clone()).expect("create DGAP");
    let warmup = ((edges.len() as f64) * WARMUP_FRACTION).round() as usize;
    let mut acked = Vec::with_capacity(edges.len());
    for &(s, d) in &edges[..warmup] {
        match g.insert_edge(s, d) {
            Ok(()) => acked.push((s, d)),
            Err(_) => r.failed += 1,
        }
    }
    r.setup_s = setup.elapsed().as_secs_f64();
    r.attempted = edges.len() as u64 + RECOVERY_OPENS as u64;

    // Timed phase: one call at a time, each charged its wall time plus the
    // simulated device time the pool accrued during it.
    let sim = &pool.stats().simulated_ns;
    let load = || sim.load(std::sync::atomic::Ordering::Relaxed);
    let pm_before = pool.stats_snapshot();
    let dgap_before = g.stats();
    let elog_before = g.elog_stats();
    let timed = &edges[warmup..];
    r.call_ns.reserve(timed.len());
    let phase = Instant::now();
    for (i, &(s, d)) in timed.iter().enumerate() {
        let maint_before = rec.enabled().then(|| g.stats());
        let open = rec.begin("dgap.insert_edge", req_base + i as u64);
        let sim0 = load();
        let t0 = Instant::now();
        let res = g.insert_edge(s, d);
        let wall = t0.elapsed().as_nanos() as f64;
        let sim_ns = load() - sim0;
        rec.end(open, sim_ns);
        let cost = wall + sim_ns as f64;
        r.call_ns.push(cost);
        match res {
            Ok(()) => acked.push((s, d)),
            Err(_) => r.failed += 1,
        }
        if let Some(before) = maint_before {
            let after = g.stats();
            let maint = after.rebalances > before.rebalances
                || after.merges > before.merges
                || after.resizes > before.resizes;
            if maint {
                r.maint_ns.push(cost);
            } else {
                r.plain_ns.push(cost);
            }
        }
    }
    r.phase_wall_ns = phase.elapsed().as_nanos() as f64;
    r.pm_delta = pool.stats_snapshot().delta_since(&pm_before);
    r.phase_sim_ns = r.pm_delta.simulated_ns as f64;
    r.timed_edges = timed.len() as u64;
    let after = g.stats();
    r.dgap_delta = DgapStatsSnapshot {
        array_inserts: after.array_inserts - dgap_before.array_inserts,
        elog_inserts: after.elog_inserts - dgap_before.elog_inserts,
        rebalances: after.rebalances - dgap_before.rebalances,
        merges: after.merges - dgap_before.merges,
        resizes: after.resizes - dgap_before.resizes,
        ..DgapStatsSnapshot::default()
    };
    let elog_after = g.elog_stats();
    r.elog_appends = elog_after.appends - elog_before.appends;
    r.elog_high_watermark = elog_after.high_watermark;
    r.pm_bytes_per_edge = per(pool.used() as f64, edges.len() as f64);

    // Crash, then recover the same crashed image several times.
    drop(g);
    pool.simulate_crash();
    let expected = oracle(num_vertices, &acked);
    let mut recovered_ok = true;
    for i in 0..RECOVERY_OPENS {
        let phases_before = recovery_phase_sums();
        let pm0 = pool.stats_snapshot();
        let open = rec.begin("dgap.open", req_base + timed.len() as u64 + i as u64);
        let t0 = Instant::now();
        let opened = Dgap::open(Arc::clone(&pool), cfg.clone());
        let wall = t0.elapsed().as_nanos() as f64;
        let pm = pool.stats_snapshot().delta_since(&pm0);
        rec.end(open, pm.simulated_ns);
        let phases_after = recovery_phase_sums();
        for (k, v) in r.recover_phase_ns.iter_mut().enumerate() {
            v.push((phases_after[k] - phases_before[k]) as f64);
        }
        r.recover_ns.push(wall + pm.simulated_ns as f64);
        r.recover_sim_ns.push(pm.simulated_ns as f64);
        r.recover_read_bytes.push(pm.logical_bytes_read as f64);
        let (g2, kind) = match opened {
            Ok(x) => x,
            Err(_) => {
                r.failed += 1;
                recovered_ok = false;
                break;
            }
        };
        recovered_ok &= matches!(kind, RecoveryKind::CrashRecovery { .. });
        if i + 1 == RECOVERY_OPENS {
            // Correctness gate, outside every timed region.
            recovered_ok &= g2.verify().first_fatal().is_none();
            recovered_ok &= recovered_matches(&g2, &expected);
        } else {
            drop(g2);
            pool.simulate_crash();
        }
    }
    r.correct = recovered_ok && r.failed == 0;
    r
}

/// Run the `ingest` workload.
pub fn run(ctx: &Ctx, epoch: Instant) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    out.note(provenance(ctx, "ingest", &pool_config()));
    let measure = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut rec = Recorder::new(true, epoch, 0);
    let mut off = Recorder::new(false, epoch, 0);
    // The traced run spends its first half untraced, so the difference
    // between the halves is the tracing overhead.
    let untraced_budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    while untraced.is_empty() || measure.elapsed().as_secs_f64() < untraced_budget {
        untraced.push(round(ctx, untraced.len() as u64, &mut off));
    }
    if ctx.trace {
        while traced.is_empty() || measure.elapsed().as_secs_f64() < ctx.seconds {
            let index = (untraced.len() + traced.len()) as u64;
            traced.push(round(ctx, index, &mut rec));
        }
    }
    let all: Vec<&Round> = untraced.iter().chain(&traced).collect();
    out.correct = all.iter().all(|r| r.correct);
    out.attempted = all.iter().map(|r| r.attempted).sum();
    out.failed = all.iter().map(|r| r.failed).sum();

    let e2e = E2e::of(&untraced);
    out.note(format!(
        "ingest: {} round(s) of {} timed inserts (+{:.0}% warm-up), {} crash-path opens per round",
        untraced.len(),
        untraced[0].timed_edges,
        WARMUP_FRACTION * 100.0,
        RECOVERY_OPENS
    ));
    out.note(format!(
        "  insert_edge p50   {}",
        e2e.p50.describe(1e-6, "ms")
    ));
    out.note(format!(
        "  insert_edge p99   {}",
        e2e.p99.describe(1e-6, "ms")
    ));
    out.note(format!(
        "  insert_edge p99.9 {}",
        e2e.p999.describe(1e-6, "ms")
    ));
    out.note(format!(
        "  recovery          median of {} crash-path opens; set-up: median of {} set-ups",
        untraced.len() * RECOVERY_OPENS,
        untraced.len()
    ));
    if !ctx.trace {
        let edges_per_s = e2e.meps * 1e6;
        out.e2e(
            "throughput",
            "ingest.meps x 1e6: timed edges / (wall + sim) s",
            edges_per_s,
            "1/s",
        );
        out.e2e(
            "latency1_ms",
            "ingest.insert_p50 (wall + sim)",
            e2e.p50.value * 1e-6,
            "ms",
        );
        out.e2e(
            "latency2_ms",
            "ingest.insert_p99 (wall + sim)",
            e2e.p99.value * 1e-6,
            "ms",
        );
        out.e2e(
            "latency3_ms",
            "ingest.recover_ms: crash-path Dgap::open",
            e2e.recover_ms,
            "ms",
        );
        out.e2e(
            "latency4_ms",
            "ingest.insert_p99.9 (wall + sim)",
            e2e.p999.value * 1e-6,
            "ms",
        );
        out.e2e(
            "pm_bytes_per_edge",
            "ingest.pm_bytes_per_edge: pool used / edges",
            e2e.bytes_per_edge,
            "B",
        );
        out.e2e(
            "setup_s",
            "generate + create + 10% warm-up",
            e2e.setup_s,
            "s",
        );
        return (out, Vec::new());
    }

    let t = E2e::of(&traced);
    let spans = rec.into_spans();
    layers(&mut out, &traced, &spans);
    crate::overhead(&mut out, (e2e.meps, t.meps), (e2e.p50.value, t.p50.value));
    (out, spans)
}

/// The end-to-end figures of a set of rounds.
struct E2e {
    meps: f64,
    p50: crate::stats::Quantile,
    p99: crate::stats::Quantile,
    p999: crate::stats::Quantile,
    recover_ms: f64,
    bytes_per_edge: f64,
    setup_s: f64,
}

impl E2e {
    fn of(rounds: &[Round]) -> E2e {
        let edges: u64 = rounds.iter().map(|r| r.timed_edges).sum();
        let cost_ns: f64 = rounds
            .iter()
            .map(|r| r.phase_wall_ns + r.phase_sim_ns)
            .sum();
        let mut calls: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.call_ns.iter().copied())
            .collect();
        let recover: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.recover_ns.iter().copied())
            .collect();
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        let bytes: Vec<f64> = rounds.iter().map(|r| r.pm_bytes_per_edge).collect();
        E2e {
            meps: per(edges as f64, cost_ns * 1e-9) / 1e6,
            p50: quantile(&mut calls, 50.0),
            p99: quantile(&mut calls, 99.0),
            p999: quantile(&mut calls, 99.9),
            recover_ms: median(&recover) * 1e-6,
            bytes_per_edge: median(&bytes),
            setup_s: median(&setups),
        }
    }
}

fn layers(out: &mut Outcome, rounds: &[Round], spans: &[Span]) {
    let edges: f64 = rounds.iter().map(|r| r.timed_edges as f64).sum();
    let sum = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    let pm = |f: &dyn Fn(&StatsSnapshot) -> u64| sum(&|r| f(&r.pm_delta));
    out.layer(
        "pmem.flushes_per_edge",
        per(pm(&|s| s.flushes), edges),
        "count",
    );
    out.layer(
        "pmem.fences_per_edge",
        per(pm(&|s| s.fences), edges),
        "count",
    );
    out.layer(
        "pmem.inplace_flushes_per_edge",
        per(pm(&|s| s.inplace_flushes), edges),
        "count",
    );
    out.layer(
        "pmem.media_bytes_per_edge",
        per(pm(&|s| s.media_bytes_written), edges),
        "B",
    );
    out.layer(
        "pmem.write_amp",
        per(
            pm(&|s| s.media_bytes_written),
            pm(&|s| s.logical_bytes_written),
        ),
        "ratio",
    );
    out.layer(
        "pmem.seq_write_frac",
        per(pm(&|s| s.seq_writes), pm(&|s| s.seq_writes + s.rand_writes)),
        "ratio",
    );
    out.layer(
        "pmem.sim_ns_per_edge",
        per(pm(&|s| s.simulated_ns), edges),
        "ns",
    );

    let dg = |f: &dyn Fn(&DgapStatsSnapshot) -> u64| sum(&|r| f(&r.dgap_delta));
    out.layer(
        "dgap.slot_insert_frac",
        per(
            dg(&|d| d.array_inserts),
            dg(&|d| d.array_inserts + d.elog_inserts),
        ),
        "ratio",
    );
    out.layer(
        "dgap.elog_appends_per_kedge",
        per(sum(&|r| r.elog_appends) * 1e3, edges),
        "count",
    );
    out.layer(
        "dgap.rebalances_per_kedge",
        per(dg(&|d| d.rebalances) * 1e3, edges),
        "count",
    );
    out.layer(
        "dgap.merges_per_kedge",
        per(dg(&|d| d.merges) * 1e3, edges),
        "count",
    );
    out.layer(
        "dgap.resizes",
        per(dg(&|d| d.resizes), rounds.len() as f64),
        "count",
    );
    out.layer(
        "dgap.elog_high_watermark",
        rounds
            .iter()
            .map(|r| r.elog_high_watermark)
            .max()
            .unwrap_or(0) as f64,
        "entries",
    );
    let mut plain: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.plain_ns.iter().copied())
        .collect();
    let mut maint: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.maint_ns.iter().copied())
        .collect();
    let maint_total: f64 = maint.iter().sum();
    let plain_total: f64 = plain.iter().sum();
    out.layer(
        "dgap.plain_insert_p50_us",
        quantile(&mut plain, 50.0).value * 1e-3,
        "us",
    );
    out.layer(
        "dgap.maint_insert_p50_us",
        quantile(&mut maint, 50.0).value * 1e-3,
        "us",
    );
    out.layer(
        "dgap.maint_time_share",
        per(maint_total, maint_total + plain_total),
        "ratio",
    );

    let phase = |k: usize| {
        median(
            &rounds
                .iter()
                .flat_map(|r| r.recover_phase_ns[k].iter().copied())
                .collect::<Vec<_>>(),
        ) * 1e-6
    };
    out.layer("dgap.recover.rebuild_scan_ms", phase(0), "ms");
    out.layer("dgap.recover.elog_scan_ms", phase(1), "ms");
    out.layer("dgap.recover.ulog_ms", phase(2), "ms");
    let flat = |f: &dyn Fn(&Round) -> &Vec<f64>| {
        median(
            &rounds
                .iter()
                .flat_map(|r| f(r).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    out.layer(
        "dgap.recover.sim_ms",
        flat(&|r| &r.recover_sim_ns) * 1e-6,
        "ms",
    );
    out.layer(
        "pmem.recover_read_bytes",
        flat(&|r| &r.recover_read_bytes),
        "B",
    );

    // The trace must account for the timed phase: the insert spans' wall
    // plus simulated time against the phase's wall plus simulated time.
    let totals = totals_by_name(spans);
    let inserts = totals.get("dgap.insert_edge").copied().unwrap_or_default();
    let phase_cost: f64 = rounds
        .iter()
        .map(|r| r.phase_wall_ns + r.phase_sim_ns)
        .sum();
    out.layer(
        "trace.insert_coverage",
        per((inserts.wall_ns + inserts.sim_ns) as f64, phase_cost),
        "ratio",
    );
}
