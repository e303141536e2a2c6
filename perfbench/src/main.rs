//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <ingest|analyze|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, drives one part of the
//! stack through its public API for about `--seconds`, checks the outputs
//! against an oracle, and prints human-readable lines followed by one JSON
//! result line.  `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics computed from the span trace and counter deltas,
//! plus the tracing overhead.  See `perfbench/README.md`.

mod analyze;
mod ingest;
mod report;
mod serve;
mod stats;
mod trace;

use report::{result_json, Ctx, Metric, Outcome};
use std::time::Instant;

/// End-to-end metrics, in `BENCHMARK.json` order.  Every workload reports
/// every one; what each means per workload is in the README.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput", "1/s"),
    ("latency1_ms", "ms"),
    ("latency2_ms", "ms"),
    ("latency3_ms", "ms"),
    ("latency4_ms", "ms"),
    ("pm_bytes_per_edge", "B"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order.  Every traced run reports
/// every one: a layer another workload exercises reads (near) zero, which
/// is the "bypass" side of each prediction.
pub const PER_LAYER: [(&str, &str); 59] = [
    // pmem
    ("pmem.flushes_per_edge", "count"),
    ("pmem.fences_per_edge", "count"),
    ("pmem.inplace_flushes_per_edge", "count"),
    ("pmem.media_bytes_per_edge", "B"),
    ("pmem.write_amp", "ratio"),
    ("pmem.seq_write_frac", "ratio"),
    ("pmem.sim_ns_per_edge", "ns"),
    ("pmem.recover_read_bytes", "B"),
    ("pmem.read_bytes_per_edge_visit", "B"),
    ("pmem.analyze_sim_share", "ratio"),
    ("pmem.analyze_write_bytes", "B"),
    // dgap (and pma, seen through dgap's counters)
    ("dgap.slot_insert_frac", "ratio"),
    ("dgap.elog_appends_per_kedge", "count"),
    ("dgap.rebalances_per_kedge", "count"),
    ("dgap.merges_per_kedge", "count"),
    ("dgap.resizes", "count"),
    ("dgap.elog_high_watermark", "entries"),
    ("dgap.plain_insert_p50_us", "us"),
    ("dgap.maint_insert_p50_us", "us"),
    ("dgap.maint_time_share", "ratio"),
    ("dgap.recover.rebuild_scan_ms", "ms"),
    ("dgap.recover.elog_scan_ms", "ms"),
    ("dgap.recover.ulog_ms", "ms"),
    ("dgap.recover.sim_ms", "ms"),
    ("dgap.snapshot_ms", "ms"),
    ("dgap.capture_mean_us", "us"),
    // analytics and the pool
    ("analytics.pr_wall_ms", "ms"),
    ("analytics.bfs_wall_ms", "ms"),
    ("analytics.cc_wall_ms", "ms"),
    ("analytics.bc_wall_ms", "ms"),
    ("analytics.pr_scaling", "ratio"),
    ("analytics.cc_scaling", "ratio"),
    ("analytics.pr_dgap_over_csr", "ratio"),
    ("analytics.incremental_hit_ratio", "ratio"),
    ("pool.executed_per_injected", "ratio"),
    ("pool.steals_per_kernel", "count"),
    ("pool.sleeps_per_kernel", "count"),
    // sharded
    ("sharded.enqueue_to_drain_mean_us", "us"),
    ("sharded.ops_per_batch", "count"),
    ("sharded.shard_skew", "ratio"),
    ("sharded.backpressure_stalls", "count"),
    ("sharded.visible_p99_ms", "ms"),
    // service
    ("service.point_read_mean_us", "us"),
    ("service.analytics_mean_us", "us"),
    ("service.refreshes_per_kreq", "count"),
    ("service.refresh_mean_us", "us"),
    ("service.captures_per_refresh", "ratio"),
    ("service.refresh_time_share", "ratio"),
    ("service.epoch_cache_hit_ratio", "ratio"),
    ("service.unify_mean_us", "us"),
    ("service.analytics_p50_ms", "ms"),
    // net
    ("net.server_mean_us", "us"),
    ("net.transport_mean_us", "us"),
    ("net.bytes_per_req", "B"),
    ("net.errors", "count"),
    // the trace itself
    ("trace.insert_coverage", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_throughput_pct", "%"),
    ("trace.overhead_latency1_pct", "%"),
];

/// Record the tracing overhead: the traced half's end-to-end figures minus
/// the untraced half's, as a percentage of the untraced figure.
pub fn overhead(out: &mut Outcome, throughput: (f64, f64), latency1: (f64, f64)) {
    let pct = |(untraced, traced): (f64, f64)| stats::per(traced - untraced, untraced) * 100.0;
    out.layer("trace.overhead_throughput_pct", pct(throughput), "%");
    out.layer("trace.overhead_latency1_pct", pct(latency1), "%");
}

/// Pick `names` out of `have`, in order; a name the workload did not
/// measure reads 0 (per-layer only — end-to-end metrics must all exist).
fn select(have: &[Metric], names: &[(&'static str, &'static str)], fill: bool) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| match have.iter().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "unit of {name}");
                m.clone()
            }
            None if fill => Metric {
                name,
                value: 0.0,
                unit,
                label: "",
            },
            None => panic!("workload did not measure {name}"),
        })
        .collect()
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ingest|analyze|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let ctx = &args.ctx;
    let epoch = Instant::now();
    let (mut out, spans) = match args.workload.as_str() {
        "ingest" => ingest::run(ctx, epoch),
        "analyze" => analyze::run(ctx, epoch),
        "serve" => serve::run(ctx, epoch),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    out.e2e(
        "peak_rss_mb",
        "peak resident memory",
        stats::peak_rss_mb(),
        "MiB",
    );
    let metrics = if ctx.trace {
        out.layer("trace.spans", spans.len() as f64, "count");
        let path = std::path::Path::new(".bench_trace").join(format!("{}.jsonl", args.workload));
        if let Err(e) = trace::dump(&path, &spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        out.note(format!(
            "trace: {} spans written to {}",
            spans.len(),
            path.display()
        ));
        select(&out.per_layer, &PER_LAYER, true)
    } else {
        select(&out.end_to_end, &END_TO_END, false)
    };
    for line in &out.notes {
        println!("{line}");
    }
    for m in &metrics {
        println!("{:<36} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.label);
    }
    println!(
        "correct={} attempted={} failed={}",
        out.correct, out.attempted, out.failed
    );
    println!(
        "{}",
        result_json(out.correct, out.attempted, out.failed, &metrics)
    );
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"`/`"unit"` pairs of one array in `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array ends")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string ends")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn missing_layer_metrics_read_zero_and_missing_end_to_end_ones_panic() {
        let have = vec![Metric {
            name: "pmem.fences_per_edge",
            value: 2.0,
            unit: "count",
            label: "",
        }];
        let picked = select(&have, &PER_LAYER, true);
        assert_eq!(picked.len(), PER_LAYER.len());
        assert!(picked.iter().all(|m| m.value
            == if m.name == "pmem.fences_per_edge" {
                2.0
            } else {
                0.0
            }));
        assert!(std::panic::catch_unwind(|| select(&have, &END_TO_END, false)).is_err());
    }
}
