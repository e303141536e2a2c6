//! What a workload hands back, and how it is printed.

use pmem::PmemConfig;

/// Run settings every workload receives from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Available hardware threads.
    pub nproc: usize,
}

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// What the figure is on this workload, for the human-readable report
    /// (empty when the name says it all).
    pub label: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// The end-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Add an end-to-end metric; `label` says what it is on this workload.
    pub fn e2e(&mut self, name: &'static str, label: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            label,
        });
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name,
            value,
            unit,
            label: "",
        });
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The run's provenance line: everything a result depends on besides code.
pub fn provenance(ctx: &Ctx, workload: &str, pool: &PmemConfig) -> String {
    let c = &pool.cost;
    format!(
        "run: workload={workload} seed={} nproc={} seconds={} trace={} adr={:?} \
         persistence_tracking={} git_rev={} cost_model={{pm_read_line_ns={}, \
         pm_write_line_seq_ns={}, pm_write_line_rand_ns={}, pm_inplace_penalty_ns={}, \
         flush_ns={}, fence_ns={}, dram_read_line_ns={}, dram_write_line_ns={}, \
         tx_overhead_ns={}}}",
        ctx.seed,
        ctx.nproc,
        ctx.seconds,
        ctx.trace,
        pool.adr,
        pool.track_persistence,
        std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".to_string()),
        c.pm_read_line_ns,
        c.pm_write_line_seq_ns,
        c.pm_write_line_rand_ns,
        c.pm_inplace_penalty_ns,
        c.flush_ns,
        c.fence_ns,
        c.dram_read_line_ns,
        c.dram_write_line_ns,
        c.tx_overhead_ns,
    )
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite figure is a bug in
            // the benchmark and must not pass as a measurement.
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(
            true,
            10,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
                label: "",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
