//! `serve`: the user-facing path.
//!
//! An in-process `GraphServer` (2 shards, 2 workers, no quota or shedding)
//! on loopback; `nproc` remote tenants, each on its own `RemoteClient`
//! connection, run a closed loop (each waits for every reply).  Every
//! tenant streams its share of the edges in 64-insert mutate batches with
//! one delete per batch, does 4 point reads per batch, waits on its ticket
//! after every 8th batch and asks one analytics query per 64 batches
//! (alternating BFS and top-10 PageRank).  Writes land beside reads, so
//! each batch invalidates the epoch snapshot.  Passes (set-up + stream)
//! repeat until the run's time is up; each pass is checked against an
//! oracle of the stream.

use crate::report::{provenance, Ctx, Outcome};
use crate::stats::{median, per, quantile, Quantile};
use crate::trace::{totals_by_name, Recorder, Span};
use dgap::{GraphError, Update};
use net::{GraphServer, NetConfig, RemoteClient};
use obs::MetricsSnapshot;
use pmem::{PmemConfig, StatsSnapshot};
use service::{GraphService, Query, QueryResult, ServiceConfig, ServiceStats};
use sharded::{ShardedConfig, Ticket};
use std::collections::HashMap;
use std::time::Instant;
use workloads::datasets::ORKUT;
use workloads::{GeneratorConfig, GraphKind};

/// Orkut-shaped R-MAT at 1/2048 (~1.5k vertices, ~114k edges): small
/// enough that a run holds about ten passes.
const SCALE: u64 = 2048;
/// Share of the edges preloaded during set-up.
const PRELOAD_FRACTION: f64 = 0.1;
const SHARDS: usize = 2;
const WORKERS: usize = 2;
/// Inserts per mutate batch (plus one delete).
const BATCH: usize = 64;
/// Point reads per batch.
const READS_PER_BATCH: usize = 4;
/// A ticket wait after every this many batches.
const WAIT_EVERY: usize = 8;
/// One analytics query per this many batches.
const ANALYTICS_EVERY: usize = 64;
/// Vertices whose neighbour lists the correctness gate compares.
const CHECK_VERTICES: usize = 256;
/// Set-ups per pass: the pass serves from the last one.
const SETUPS: usize = 2;
const POOL_BYTES: usize = 256 << 20;

/// A small deterministic generator for the request mix (splitmix64).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> u64 {
        self.next() % n as u64
    }
}

fn pool_config() -> PmemConfig {
    PmemConfig::with_capacity(POOL_BYTES).persistence_tracking(false)
}

fn service_config(num_vertices: usize, num_edges: usize) -> ServiceConfig {
    ServiceConfig {
        sharded: ShardedConfig::builder().shards(SHARDS).build(),
        workers: WORKERS,
        num_vertices,
        num_edges,
        pool_bytes: POOL_BYTES,
        ..ServiceConfig::default()
    }
}

/// What one tenant saw.
#[derive(Default)]
struct Tenant {
    attempted: u64,
    failed: u64,
    read_ns: Vec<f64>,
    visible_ns: Vec<f64>,
    bfs_ns: Vec<f64>,
    topk_ns: Vec<f64>,
    /// Acknowledged updates, in order, for the oracle.
    applied: Vec<Update>,
    spans: Vec<Span>,
}

/// One timed round trip; errors count as failed.
fn timed<T>(
    t: &mut Tenant,
    rec: &mut Recorder,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> Result<T, GraphError>,
) -> (Option<T>, f64) {
    let open = rec.begin(name, req);
    let start = Instant::now();
    let res = f();
    let ns = start.elapsed().as_nanos() as f64;
    rec.end(open, 0);
    t.attempted += 1;
    match res {
        Ok(v) => (Some(v), ns),
        Err(_) => {
            t.failed += 1;
            (None, ns)
        }
    }
}

fn tenant(
    index: usize,
    addr: std::net::SocketAddr,
    edges: &[(u64, u64)],
    num_vertices: usize,
    seed: u64,
    rec: &mut Recorder,
) -> Tenant {
    let mut t = Tenant::default();
    let client = match RemoteClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            t.attempted = 1;
            t.failed = 1;
            return t;
        }
    };
    let mut mix = Mix(seed ^ (index as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut ticket = Ticket::empty();
    let mut previous: Option<(u64, u64)> = None;
    let req_base = (index as u64) << 40;
    for (b, chunk) in edges.chunks(BATCH).enumerate() {
        let req = req_base + b as u64;
        let step = rec.begin("tenant.step", req);
        let mut ops: Vec<Update> = chunk
            .iter()
            .map(|&(s, d)| Update::InsertEdge(s, d))
            .collect();
        // One delete per batch, of an edge this tenant inserted in an
        // earlier batch (same shard lane, so it applies after the insert).
        if let Some((s, d)) = previous {
            ops.push(Update::DeleteEdge(s, d));
        }
        previous = chunk.first().copied();
        let sent = ops.clone();
        let (acked, _) = timed(&mut t, rec, "net.mutate", req, || client.mutate(ops));
        let acked_at = Instant::now();
        if let Some(tk) = acked {
            ticket.merge(&tk);
            t.applied.extend(sent);
        }
        if (b + 1) % WAIT_EVERY == 0 {
            // Visibility: from this batch's ack until its writes (and the
            // earlier unwaited ones) are applied.
            let (done, _) = timed(&mut t, rec, "net.wait", req, || client.wait(&ticket));
            if done.is_some() {
                t.visible_ns.push(acked_at.elapsed().as_nanos() as f64);
            }
            ticket = Ticket::empty();
        }
        for r in 0..READS_PER_BATCH {
            let v = mix.below(num_vertices);
            let ns = if r % 2 == 0 {
                timed(&mut t, rec, "net.degree", req, || client.degree(v)).1
            } else {
                timed(&mut t, rec, "net.neighbors", req, || client.neighbors(v)).1
            };
            t.read_ns.push(ns);
        }
        if (b + 1) % ANALYTICS_EVERY == 0 {
            if (b / ANALYTICS_EVERY).is_multiple_of(2) {
                let query = Query::Bfs { source: 0 };
                let (_, ns) = timed(&mut t, rec, "net.query_bfs", req, || client.query(query));
                t.bfs_ns.push(ns);
            } else {
                let query = Query::TopKPagerank { k: 10 };
                let (_, ns) = timed(&mut t, rec, "net.query_topk_pagerank", req, || {
                    client.query(query)
                });
                t.topk_ns.push(ns);
            }
        }
        rec.end(step, 0);
    }
    // Read-your-writes: everything this tenant sent is applied.
    timed(&mut t, rec, "net.wait", req_base + (1 << 39), || {
        client.wait(&ticket)
    });
    client.close();
    t
}

/// One pass: set-up (several times), the tenants' stream, the gate.
struct Pass {
    setup_s: Vec<f64>,
    wall_s: f64,
    tenants: Vec<Tenant>,
    correct: bool,
    preload_failed: u64,
    preload_ops: u64,
    /// Counter deltas over the stream.
    metrics_before: MetricsSnapshot,
    metrics_after: MetricsSnapshot,
    stats_before: ServiceStats,
    stats_after: ServiceStats,
    global_before: MetricsSnapshot,
    global_after: MetricsSnapshot,
    pm_delta: StatsSnapshot,
    pm_bytes_per_edge: f64,
}

fn pool_sum(server: &GraphServer) -> StatsSnapshot {
    server
        .shard_pools()
        .iter()
        .map(|p| p.stats_snapshot())
        .fold(StatsSnapshot::default(), |acc, s| add(&acc, &s))
}

fn add(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        logical_bytes_written: a.logical_bytes_written + b.logical_bytes_written,
        media_bytes_written: a.media_bytes_written + b.media_bytes_written,
        logical_bytes_read: a.logical_bytes_read + b.logical_bytes_read,
        flushes: a.flushes + b.flushes,
        fences: a.fences + b.fences,
        inplace_flushes: a.inplace_flushes + b.inplace_flushes,
        seq_writes: a.seq_writes + b.seq_writes,
        rand_writes: a.rand_writes + b.rand_writes,
        simulated_ns: a.simulated_ns + b.simulated_ns,
        ..StatsSnapshot::default()
    }
}

fn start(num_vertices: usize, edges: &[(u64, u64)], preload: usize) -> (GraphServer, u64) {
    let server = GraphServer::serve(
        GraphService::start(service_config(num_vertices, edges.len())).expect("start GraphService"),
        NetConfig::loopback(),
    )
    .expect("start GraphServer");
    let client = server.service().client();
    let mut failed = 0;
    let mut ticket = Ticket::empty();
    for chunk in edges[..preload].chunks(1024) {
        match client.mutate(
            chunk
                .iter()
                .map(|&(s, d)| Update::InsertEdge(s, d))
                .collect(),
        ) {
            Ok(t) => ticket.merge(&t),
            Err(_) => failed += 1,
        }
    }
    if client.wait(&ticket).is_err() {
        failed += 1;
    }
    (server, failed)
}

fn pass(ctx: &Ctx, traced: bool, epoch: Instant) -> Pass {
    let mut setup_s = Vec::new();
    let mut server = None;
    let mut preload_failed = 0;
    let mut input = None;
    for _ in 0..SETUPS {
        if let Some(s) = server.take() {
            GraphServer::shutdown(s);
        }
        let t = Instant::now();
        let list = GeneratorConfig::new(
            ORKUT.scaled_vertices(SCALE),
            ORKUT.scaled_edges(SCALE),
            GraphKind::RMat,
            ctx.seed,
        )
        .generate();
        let preload = ((list.edges.len() as f64) * PRELOAD_FRACTION).round() as usize;
        let (s, failed) = start(list.num_vertices, &list.edges, preload);
        setup_s.push(t.elapsed().as_secs_f64());
        preload_failed = failed;
        server = Some(s);
        input = Some((list, preload));
    }
    let server = server.expect("at least one set-up");
    let (list, preload) = input.expect("at least one set-up");
    let addr = server.local_addr();
    let num_vertices = list.num_vertices;
    let stream = &list.edges[preload..];
    let tenants_n = ctx.nproc.max(1);
    let share = stream.len().div_ceil(tenants_n);

    let metrics_before = server.service().metrics();
    let stats_before = server.service().stats();
    let global_before = obs::global().snapshot();
    let pm_before = pool_sum(&server);
    let begin = Instant::now();
    let tenants: Vec<Tenant> = std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .chunks(share)
            .enumerate()
            .map(|(i, part)| {
                let seed = ctx.seed;
                scope.spawn(move || {
                    let mut rec = Recorder::new(traced, epoch, (i as u64 + 1) << 48);
                    let mut t = tenant(i, addr, part, num_vertices, seed, &mut rec);
                    t.spans = rec.into_spans();
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let wall_s = begin.elapsed().as_secs_f64();
    let metrics_after = server.service().metrics();
    let stats_after = server.service().stats();
    let global_after = obs::global().snapshot();
    let pm_delta = pool_sum(&server).delta_since(&pm_before);

    // Correctness gate, outside the timed stream: the oracle of every
    // acknowledged update against the served graph.
    let mut oracle: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(s, d) in &list.edges[..preload] {
        oracle.entry(s).or_default().push(d);
    }
    for t in &tenants {
        for op in &t.applied {
            match *op {
                Update::InsertEdge(s, d) => oracle.entry(s).or_default().push(d),
                Update::DeleteEdge(s, d) => {
                    let l = oracle.entry(s).or_default();
                    if let Some(pos) = l.iter().position(|&x| x == d) {
                        l.swap_remove(pos);
                    }
                }
                _ => {}
            }
        }
    }
    let expected_edges: usize = oracle.values().map(Vec::len).sum();
    let mut correct = server.service().stats().num_edges == expected_edges;
    let checker = RemoteClient::connect(addr);
    let mut mix = Mix(ctx.seed ^ 0x5eed);
    correct &= match &checker {
        Ok(c) => (0..CHECK_VERTICES).all(|_| {
            let v = mix.below(num_vertices);
            let mut want = oracle.get(&v).cloned().unwrap_or_default();
            want.sort_unstable();
            match c.neighbors(v) {
                Ok(mut got) => {
                    got.sort_unstable();
                    got == want
                }
                Err(_) => false,
            }
        }),
        Err(_) => false,
    };
    // Analytics answers must be well-formed: BFS reaches its own source.
    if let Ok(c) = &checker {
        correct &= matches!(
            c.query(Query::Bfs { source: 0 }),
            Ok(QueryResult::Bfs(p)) if p.len() == num_vertices && p[0] == 0
        );
        c.close();
    }
    let pm_used: usize = server.shard_pools().iter().map(|p| p.used()).sum();
    server.shutdown();
    Pass {
        setup_s,
        wall_s,
        tenants,
        correct,
        preload_failed,
        preload_ops: preload as u64,
        metrics_before,
        metrics_after,
        stats_before,
        stats_after,
        global_before,
        global_after,
        pm_delta,
        pm_bytes_per_edge: per(pm_used as f64, expected_edges as f64),
    }
}

/// The run's end-to-end figures.  Each pass runs on freshly started
/// server threads, so which cores they share is drawn anew per pass and
/// moves round trips by tens of percent; per-pass throughput and read
/// quantiles are therefore combined by their median.  The visibility tail
/// and the analytics queries have too few samples per pass, so they are
/// taken over the run's pooled samples.
struct E2e {
    req_s: f64,
    read_p50: f64,
    read_p99: f64,
    /// The per-pass read p99 with the fewest samples.
    smallest_read_p99: Quantile,
    visible_p90: Quantile,
    visible_p99: Quantile,
    bfs_p50: Quantile,
    topk_p50: Quantile,
    bytes_per_edge: f64,
    setup_s: f64,
}

fn samples(p: &Pass, f: &dyn Fn(&Tenant) -> &Vec<f64>) -> Vec<f64> {
    p.tenants
        .iter()
        .flat_map(|t| f(t).iter().copied())
        .collect()
}

impl E2e {
    fn of(passes: &[Pass]) -> E2e {
        let across = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let read = |p: &Pass, pct: f64| quantile(&mut samples(p, &|t| &t.read_ns), pct);
        let pooled = |f: &dyn Fn(&Tenant) -> &Vec<f64>| {
            passes
                .iter()
                .flat_map(|p| samples(p, f))
                .collect::<Vec<f64>>()
        };
        let completed = |p: &Pass| {
            p.tenants
                .iter()
                .map(|t| t.attempted - t.failed)
                .sum::<u64>() as f64
        };
        let setups: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.setup_s.iter().copied())
            .collect();
        E2e {
            req_s: across(&|p| per(completed(p), p.wall_s)),
            read_p50: across(&|p| read(p, 50.0).value),
            read_p99: across(&|p| read(p, 99.0).value),
            smallest_read_p99: passes
                .iter()
                .map(|p| read(p, 99.0))
                .min_by_key(|q| q.samples)
                .unwrap_or(quantile(&mut [], 99.0)),
            visible_p90: quantile(&mut pooled(&|t| &t.visible_ns), 90.0),
            visible_p99: quantile(&mut pooled(&|t| &t.visible_ns), 99.0),
            bfs_p50: quantile(&mut pooled(&|t| &t.bfs_ns), 50.0),
            topk_p50: quantile(&mut pooled(&|t| &t.topk_ns), 50.0),
            bytes_per_edge: across(&|p| p.pm_bytes_per_edge),
            setup_s: median(&setups),
        }
    }

    /// The analytics figure: the mean of the two query kinds' medians.  A
    /// plain median of the alternating mix would sit on the boundary
    /// between the kinds and jump between them from run to run.
    fn analytics_ms(&self) -> f64 {
        (self.bfs_p50.value + self.topk_p50.value) / 2.0 * 1e-6
    }
}

/// Run the `serve` workload.
pub fn run(ctx: &Ctx, epoch: Instant) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    out.note(provenance(ctx, "serve", &pool_config()));
    let measure = Instant::now();
    let untraced_budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut untraced = Vec::new();
    while untraced.is_empty() || measure.elapsed().as_secs_f64() < untraced_budget {
        untraced.push(pass(ctx, false, epoch));
    }
    let mut traced = Vec::new();
    if ctx.trace {
        while traced.is_empty() || measure.elapsed().as_secs_f64() < ctx.seconds {
            traced.push(pass(ctx, true, epoch));
        }
    }
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    out.correct = all.iter().all(|p| p.correct && p.preload_failed == 0);
    out.attempted = all
        .iter()
        .map(|p| p.preload_ops + p.tenants.iter().map(|t| t.attempted).sum::<u64>())
        .sum();
    out.failed = all
        .iter()
        .map(|p| p.preload_failed + p.tenants.iter().map(|t| t.failed).sum::<u64>())
        .sum();

    for (i, p) in untraced.iter().enumerate() {
        let e = E2e::of(std::slice::from_ref(p));
        out.note(format!(
            "  pass {i}: {:.1} req/s, read p50 {:.4} ms p99 {:.4} ms, visible p90 {:.3} ms, wall {:.2} s",
            e.req_s,
            e.read_p50 * 1e-6,
            e.read_p99 * 1e-6,
            e.visible_p90.value * 1e-6,
            p.wall_s
        ));
    }
    let e2e = E2e::of(&untraced);
    let requests: u64 = untraced
        .iter()
        .flat_map(|p| &p.tenants)
        .map(|t| t.attempted)
        .sum();
    out.note(format!(
        "serve: {} passes, {} tenants, {requests} requests, closed loop, mutate batch {BATCH}+1 delete, \
         {READS_PER_BATCH} reads/batch, wait every {WAIT_EVERY}, analytics every {ANALYTICS_EVERY}",
        untraced.len(),
        ctx.nproc.max(1)
    ));
    out.note(format!(
        "  read quantiles: median over passes; smallest pass p99 {}",
        e2e.smallest_read_p99.describe(1e-6, "ms")
    ));
    out.note(format!(
        "  visible p90 {}",
        e2e.visible_p90.describe(1e-6, "ms")
    ));
    out.note(format!(
        "  visible p99 {}",
        e2e.visible_p99.describe(1e-6, "ms")
    ));
    out.note(format!(
        "  BFS p50     {}",
        e2e.bfs_p50.describe(1e-6, "ms")
    ));
    out.note(format!(
        "  top-k PR p50 {}",
        e2e.topk_p50.describe(1e-6, "ms")
    ));
    out.note(format!(
        "  set-up: median of {} set-ups",
        untraced.len() * SETUPS
    ));
    if !ctx.trace {
        out.e2e(
            "throughput",
            "serve.req_s: completed requests / wall s",
            e2e.req_s,
            "1/s",
        );
        out.e2e(
            "latency1_ms",
            "serve.read_p50_ms: point-read round trip",
            e2e.read_p50 * 1e-6,
            "ms",
        );
        out.e2e(
            "latency2_ms",
            "serve.read_p99_ms: point-read round trip",
            e2e.read_p99 * 1e-6,
            "ms",
        );
        let visible = e2e.visible_p90.value * 1e-6;
        out.e2e(
            "latency3_ms",
            "serve visible p90: mutate ack -> wait returns",
            visible,
            "ms",
        );
        let analytics = e2e.analytics_ms();
        out.e2e(
            "latency4_ms",
            "serve.analytics_p50_ms: mean of BFS and top-k medians",
            analytics,
            "ms",
        );
        out.e2e(
            "pm_bytes_per_edge",
            "shard pools used / live edges",
            e2e.bytes_per_edge,
            "B",
        );
        out.e2e(
            "setup_s",
            "generate + start server + 10% preload",
            e2e.setup_s,
            "s",
        );
        return (out, Vec::new());
    }
    let t = E2e::of(&traced);
    let spans: Vec<Span> = traced
        .iter_mut()
        .flat_map(|p| {
            p.tenants
                .iter_mut()
                .flat_map(|t| std::mem::take(&mut t.spans))
        })
        .collect();
    layers(&mut out, &traced, &spans, &t);
    crate::overhead(&mut out, (e2e.req_s, t.req_s), (e2e.read_p50, t.read_p50));
    (out, spans)
}

fn layers(out: &mut Outcome, passes: &[Pass], spans: &[Span], e2e: &E2e) {
    let counter = |p: &Pass, name: &str| {
        (p.metrics_after.counter(name).unwrap_or(0) - p.metrics_before.counter(name).unwrap_or(0))
            as f64
    };
    let c = |name: &str| passes.iter().map(|p| counter(p, name)).sum::<f64>();
    // (sum, count) deltas of a histogram in the service registry or the
    // process-global one.
    let hist = |name: &str, labels: Option<&str>, global: bool| {
        passes.iter().fold((0.0, 0.0), |(s, n), p| {
            let (before, after) = if global {
                (&p.global_before, &p.global_after)
            } else {
                (&p.metrics_before, &p.metrics_after)
            };
            let get = |m: &MetricsSnapshot| {
                let h = match labels {
                    Some(l) => m.histogram_labeled(name, l),
                    None => m.histogram(name),
                };
                h.map_or((0, 0), |h| (h.sum, h.count))
            };
            let (s0, n0) = get(before);
            let (s1, n1) = get(after);
            (s + (s1 - s0) as f64, n + (n1 - n0) as f64)
        })
    };
    let mean_us = |(s, n): (f64, f64)| per(s, n) * 1e-3;
    let add = |a: (f64, f64), b: (f64, f64)| (a.0 + b.0, a.1 + b.1);

    // pmem, summed over the shard pools, per applied operation.
    let ops = c("pipeline_ops_applied");
    let pm = |f: &dyn Fn(&StatsSnapshot) -> u64| {
        passes.iter().map(|p| f(&p.pm_delta) as f64).sum::<f64>()
    };
    out.layer(
        "pmem.flushes_per_edge",
        per(pm(&|s| s.flushes), ops),
        "count",
    );
    out.layer("pmem.fences_per_edge", per(pm(&|s| s.fences), ops), "count");
    out.layer(
        "pmem.inplace_flushes_per_edge",
        per(pm(&|s| s.inplace_flushes), ops),
        "count",
    );
    out.layer(
        "pmem.media_bytes_per_edge",
        per(pm(&|s| s.media_bytes_written), ops),
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
        per(pm(&|s| s.simulated_ns), ops),
        "ns",
    );

    // net
    let server = hist("net_request_nanos", None, false);
    out.layer("net.server_mean_us", mean_us(server), "us");
    // Client round trips from the trace: every `net.*` span is one.
    let (rtt_total, rtt_n) = totals_by_name(spans)
        .iter()
        .filter(|(name, _)| name.starts_with("net."))
        .fold((0.0, 0.0), |(s, n), (_, t)| {
            (s + t.wall_ns as f64, n + t.count as f64)
        });
    out.layer(
        "net.transport_mean_us",
        (per(rtt_total, rtt_n) - per(server.0, server.1)) * 1e-3,
        "us",
    );
    out.layer(
        "net.bytes_per_req",
        per(
            c("net_bytes_read") + c("net_bytes_written"),
            c("net_requests_total"),
        ),
        "B",
    );
    let client_errors: u64 = passes
        .iter()
        .flat_map(|p| &p.tenants)
        .map(|t| t.failed)
        .sum();
    out.layer(
        "net.errors",
        c("net_requests_shed") + c("net_protocol_errors") + client_errors as f64,
        "count",
    );

    // service
    let q = |kind: &str| {
        hist(
            "service_query_nanos",
            Some(&format!("kind=\"{kind}\"")),
            false,
        )
    };
    out.layer(
        "service.point_read_mean_us",
        mean_us(add(q("degree"), q("neighbors"))),
        "us",
    );
    out.layer(
        "service.analytics_mean_us",
        mean_us(add(q("bfs"), q("topk_pagerank"))),
        "us",
    );
    let stat = |f: &dyn Fn(&ServiceStats) -> u64| {
        passes
            .iter()
            .map(|p| (f(&p.stats_after) - f(&p.stats_before)) as f64)
            .sum::<f64>()
    };
    let refreshes = stat(&|s| s.snapshot_refreshes);
    let refresh_ns = stat(&|s| s.refresh_nanos);
    let served = stat(&|s| s.requests_served);
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    out.layer(
        "service.refreshes_per_kreq",
        per(refreshes * 1e3, served),
        "count",
    );
    out.layer(
        "service.refresh_mean_us",
        per(refresh_ns, refreshes) * 1e-3,
        "us",
    );
    out.layer(
        "service.captures_per_refresh",
        per(stat(&|s| s.shard_captures), refreshes),
        "ratio",
    );
    out.layer(
        "service.refresh_time_share",
        per(refresh_ns * 1e-9, wall * WORKERS as f64),
        "ratio",
    );
    let hits = c("service_epoch_cache_hits");
    out.layer(
        "service.epoch_cache_hit_ratio",
        per(hits, hits + c("service_epoch_cache_misses")),
        "ratio",
    );
    out.layer(
        "service.unify_mean_us",
        per(stat(&|s| s.unify_nanos), stat(&|s| s.unified_shard_merges)) * 1e-3,
        "us",
    );
    let inc = c("analytics_incremental_hits");
    out.layer(
        "analytics.incremental_hit_ratio",
        per(inc, inc + c("analytics_incremental_fallbacks")),
        "ratio",
    );
    out.layer("service.analytics_p50_ms", e2e.analytics_ms(), "ms");
    out.layer(
        "dgap.capture_mean_us",
        mean_us(hist("dgap_capture_nanos", None, true)),
        "us",
    );

    // sharded
    out.layer(
        "sharded.enqueue_to_drain_mean_us",
        mean_us(hist("pipeline_enqueue_to_drain_nanos", None, false)),
        "us",
    );
    out.layer(
        "sharded.ops_per_batch",
        per(ops, c("pipeline_batches_drained")),
        "count",
    );
    let per_shard: Vec<f64> = (0..SHARDS)
        .map(|s| {
            passes
                .iter()
                .map(|p| {
                    let l = format!("shard=\"{s}\"");
                    let get = |m: &MetricsSnapshot| {
                        m.counter_labeled("pipeline_ops_applied", &l).unwrap_or(0)
                    };
                    (get(&p.metrics_after) - get(&p.metrics_before)) as f64
                })
                .sum()
        })
        .collect();
    let mean = per_shard.iter().sum::<f64>() / SHARDS as f64;
    out.layer(
        "sharded.shard_skew",
        per(per_shard.iter().copied().fold(0.0, f64::max), mean),
        "ratio",
    );
    out.layer(
        "sharded.backpressure_stalls",
        c("pipeline_backpressure_stalls"),
        "count",
    );
    out.layer("sharded.visible_p99_ms", e2e.visible_p99.value * 1e-6, "ms");
}
