//! Uniform wrappers and helpers shared by every experiment.

use baselines::{Bal, GraphOneFd, Llama, PmCsr, SystemKind, XpGraph};
use dgap::{
    Dgap, DgapConfig, DgapVariant, DynamicGraph, GraphView, SnapshotSource, VertexId, Vertices,
};
use pmem::{PmemConfig, PmemPool};
use std::sync::Arc;
use std::time::Instant;
use workloads::{DatasetSpec, Edge, EdgeList};

/// Options shared by every experiment (parsed from the CLI).
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Divisor applied to the real dataset sizes of Table 2.
    pub scale: u64,
    /// Thread counts exercised by the scalability experiments.
    pub thread_counts: Vec<usize>,
    /// Fraction of edges inserted before measurement starts (the paper's
    /// 10 % warm-up).
    pub warmup_fraction: f64,
    /// Shard counts exercised by the `sharding` experiment.
    pub shard_counts: Vec<usize>,
    /// Where experiments drop side artifacts (the `serve` experiment's
    /// `METRICS_serve.prom` telemetry dump).  `None` = no artifacts; the
    /// CLI points this at the `--json` directory.
    pub artifact_dir: Option<std::path::PathBuf>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            scale: 8192,
            thread_counts: vec![1, 8, 16],
            warmup_fraction: 0.1,
            shard_counts: vec![1, 2, 4, 8],
            artifact_dir: None,
        }
    }
}

/// A prepared workload: the scaled dataset plus its insertion stream split
/// into warm-up and measured portions.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Dataset this workload was scaled from.
    pub spec: DatasetSpec,
    /// Scaled vertex count.
    pub num_vertices: usize,
    /// The full edge stream (shuffled insertion order).
    pub edges: Vec<Edge>,
    /// Number of leading edges that form the warm-up phase.
    pub warmup_len: usize,
}

impl Workload {
    /// Build the scaled workload for `spec`.
    pub fn build(spec: DatasetSpec, opts: &BenchOptions) -> Workload {
        let list: EdgeList = spec.generate_scaled(opts.scale);
        let num_edges = list.edges.len();
        let warmup_len =
            (((num_edges as f64) * opts.warmup_fraction).round() as usize).min(num_edges);
        Workload {
            spec,
            num_vertices: list.num_vertices,
            edges: list.edges,
            warmup_len,
        }
    }

    /// The warm-up prefix.
    pub fn warmup(&self) -> &[Edge] {
        &self.edges[..self.warmup_len]
    }

    /// The measured remainder.
    pub fn measured(&self) -> &[Edge] {
        &self.edges[self.warmup_len..]
    }
}

/// A wall-clock + simulated-PM-time measurement of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measurement {
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Simulated persistent-memory seconds charged by the cost model.
    pub simulated_secs: f64,
    /// Number of operations (edges inserted, kernels run...).
    pub operations: usize,
}

impl Measurement {
    /// Million edges (operations) per second of wall-clock time.
    pub fn meps(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.operations as f64 / self.wall_secs / 1e6
        }
    }

    /// Wall-clock plus simulated device time — the figure the tables print,
    /// so that the emulated PM costs influence the ranking the same way the
    /// real device would.
    pub fn total_secs(&self) -> f64 {
        self.wall_secs + self.simulated_secs
    }

    /// Million operations per second of total (wall + simulated) time.
    pub fn effective_meps(&self) -> f64 {
        let t = self.total_secs();
        if t <= 0.0 {
            0.0
        } else {
            self.operations as f64 / t / 1e6
        }
    }
}

/// Time `f`, attributing the pool's simulated-time delta to the measurement.
pub fn measure(pool: &PmemPool, operations: usize, f: impl FnOnce()) -> Measurement {
    let before = pool.stats_snapshot();
    let start = Instant::now();
    f();
    let wall = start.elapsed().as_secs_f64();
    let delta = pool.stats_snapshot().delta_since(&before);
    Measurement {
        wall_secs: wall,
        simulated_secs: delta.simulated_seconds(),
        operations,
    }
}

/// Size a pool generously for a workload of `num_edges` edges across any of
/// the systems (they all leak abandoned generations into the bump
/// allocator, so head-room matters more than precision).
pub fn pool_for_edges(num_edges: usize) -> Arc<PmemPool> {
    let bytes = (num_edges * 1024).clamp(64 << 20, 1 << 30);
    Arc::new(PmemPool::new(
        PmemConfig::with_capacity(bytes).persistence_tracking(false),
    ))
}

/// A uniform handle over every system under test.
// One of these exists per benchmark run; the size spread between variants
// does not matter.
#[allow(clippy::large_enum_variant)]
pub enum AnySystem {
    /// DGAP (any variant).
    Dgap(Dgap),
    /// Blocked adjacency list.
    Bal(Bal),
    /// LLAMA-like snapshots.
    Llama(Llama),
    /// GraphOne-FD.
    GraphOne(GraphOneFd),
    /// XPGraph-like.
    XpGraph(XpGraph),
    /// Static CSR (analysis only).
    Csr(PmCsr),
}

impl AnySystem {
    /// Build a dynamic system of the given kind sized for the workload.
    pub fn build(
        kind: SystemKind,
        pool: Arc<PmemPool>,
        num_vertices: usize,
        num_edges: usize,
    ) -> AnySystem {
        match kind {
            SystemKind::Dgap => AnySystem::Dgap(
                Dgap::create(pool, DgapConfig::for_graph(num_vertices, num_edges))
                    .expect("create DGAP"),
            ),
            SystemKind::Bal => AnySystem::Bal(Bal::new(pool, num_vertices)),
            SystemKind::Llama => AnySystem::Llama(Llama::new(
                pool,
                num_vertices,
                (num_edges / 100).max(1), // one snapshot per 1 % of the graph
            )),
            SystemKind::GraphOneFd => AnySystem::GraphOne(GraphOneFd::new(
                pool,
                num_vertices,
                // The paper flushes every 2^16 edges of graphs with 33 M – 3.6 B
                // edges; keep the same flush-interval-to-graph-size ratio on
                // the scaled workloads so GraphOne-FD pays a comparable
                // number of durability flushes per inserted edge.
                (num_edges / 1_300).clamp(64, baselines::graphone::DEFAULT_FLUSH_INTERVAL),
            )),
            SystemKind::XpGraph => AnySystem::XpGraph(
                XpGraph::new(
                    pool,
                    num_vertices,
                    baselines::xpgraph::DEFAULT_ARCHIVE_THRESHOLD,
                )
                .expect("create XPGraph"),
            ),
            SystemKind::Csr => panic!("CSR is built from an edge list, use AnySystem::build_csr"),
        }
    }

    /// Build a DGAP ablation variant.
    pub fn build_dgap_variant(
        variant: DgapVariant,
        pool: Arc<PmemPool>,
        num_vertices: usize,
        num_edges: usize,
    ) -> AnySystem {
        AnySystem::Dgap(
            variant
                .build(pool, DgapConfig::for_graph(num_vertices, num_edges))
                .expect("create DGAP variant"),
        )
    }

    /// Build the static CSR reference from an edge list.
    pub fn build_csr(pool: Arc<PmemPool>, num_vertices: usize, edges: &[Edge]) -> AnySystem {
        AnySystem::Csr(PmCsr::build(pool, num_vertices, edges).expect("build CSR"))
    }

    /// The system's display label.
    pub fn label(&self) -> &'static str {
        self.as_dyn().system_name()
    }

    /// Access the update interface.
    pub fn as_dyn(&self) -> &dyn DynamicGraph {
        match self {
            AnySystem::Dgap(g) => g,
            AnySystem::Bal(g) => g,
            AnySystem::Llama(g) => g,
            AnySystem::GraphOne(g) => g,
            AnySystem::XpGraph(g) => g,
            AnySystem::Csr(g) => g,
        }
    }

    /// Insert a stream of edges (panicking on error — benchmark pools are
    /// sized so that errors indicate a bug, not a condition to handle).
    pub fn insert_all(&self, edges: &[Edge]) {
        let g = self.as_dyn();
        for &(s, d) in edges {
            g.insert_edge(s, d).expect("insert");
        }
    }

    /// Insert a stream of edges from `threads` writer threads, splitting the
    /// stream round-robin (every system under test accepts concurrent
    /// writers through `&self`).
    pub fn insert_parallel(&self, edges: &[Edge], threads: usize) {
        if threads <= 1 {
            self.insert_all(edges);
            return;
        }
        std::thread::scope(|scope| {
            for t in 0..threads {
                let chunk: Vec<Edge> = edges.iter().copied().skip(t).step_by(threads).collect();
                let g = self.as_dyn();
                scope.spawn(move || {
                    for (s, d) in chunk {
                        g.insert_edge(s, d).expect("insert");
                    }
                });
            }
        });
    }

    /// Flush any buffered updates (durability point between phases).
    pub fn flush(&self) {
        self.as_dyn().flush();
    }

    /// Capture an analysis snapshot.
    pub fn view(&self) -> AnyView<'_> {
        match self {
            AnySystem::Dgap(g) => AnyView::Dgap(g.consistent_view()),
            AnySystem::Bal(g) => AnyView::Bal(g.consistent_view()),
            AnySystem::Llama(g) => AnyView::Llama(SnapshotSource::consistent_view(g)),
            AnySystem::GraphOne(g) => AnyView::GraphOne(SnapshotSource::consistent_view(g)),
            AnySystem::XpGraph(g) => AnyView::XpGraph(SnapshotSource::consistent_view(g)),
            AnySystem::Csr(g) => AnyView::Csr(SnapshotSource::consistent_view(g)),
        }
    }
}

/// A uniform snapshot wrapper so kernels can run on any system through one
/// type.
pub enum AnyView<'a> {
    /// DGAP snapshot.
    Dgap(dgap::DgapSnapshot<'a>),
    /// BAL snapshot.
    Bal(baselines::bal::BalView<'a>),
    /// LLAMA snapshot.
    Llama(baselines::llama::LlamaView),
    /// GraphOne snapshot.
    GraphOne(baselines::graphone::GraphOneView<'a>),
    /// XPGraph snapshot.
    XpGraph(baselines::xpgraph::XpGraphView<'a>),
    /// CSR view.
    Csr(baselines::csr::PmCsrView<'a>),
}

impl GraphView for AnyView<'_> {
    fn num_vertices(&self) -> usize {
        match self {
            AnyView::Dgap(v) => v.num_vertices(),
            AnyView::Bal(v) => v.num_vertices(),
            AnyView::Llama(v) => v.num_vertices(),
            AnyView::GraphOne(v) => v.num_vertices(),
            AnyView::XpGraph(v) => v.num_vertices(),
            AnyView::Csr(v) => v.num_vertices(),
        }
    }

    fn num_edges(&self) -> usize {
        match self {
            AnyView::Dgap(v) => v.num_edges(),
            AnyView::Bal(v) => v.num_edges(),
            AnyView::Llama(v) => v.num_edges(),
            AnyView::GraphOne(v) => v.num_edges(),
            AnyView::XpGraph(v) => v.num_edges(),
            AnyView::Csr(v) => v.num_edges(),
        }
    }

    fn degree(&self, v: VertexId) -> usize {
        match self {
            AnyView::Dgap(x) => x.degree(v),
            AnyView::Bal(x) => x.degree(v),
            AnyView::Llama(x) => x.degree(v),
            AnyView::GraphOne(x) => x.degree(v),
            AnyView::XpGraph(x) => x.degree(v),
            AnyView::Csr(x) => x.degree(v),
        }
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        match self {
            AnyView::Dgap(x) => x.for_each_neighbor(v, f),
            AnyView::Bal(x) => x.for_each_neighbor(v, f),
            AnyView::Llama(x) => x.for_each_neighbor(v, f),
            AnyView::GraphOne(x) => x.for_each_neighbor(v, f),
            AnyView::XpGraph(x) => x.for_each_neighbor(v, f),
            AnyView::Csr(x) => x.for_each_neighbor(v, f),
        }
    }

    fn for_each_adjacency(&self, vertices: Vertices<'_>, f: &mut dyn FnMut(VertexId, &[VertexId])) {
        match self {
            AnyView::Dgap(x) => x.for_each_adjacency(vertices, f),
            AnyView::Bal(x) => x.for_each_adjacency(vertices, f),
            AnyView::Llama(x) => x.for_each_adjacency(vertices, f),
            AnyView::GraphOne(x) => x.for_each_adjacency(vertices, f),
            AnyView::XpGraph(x) => x.for_each_adjacency(vertices, f),
            AnyView::Csr(x) => x.for_each_adjacency(vertices, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::datasets::ORKUT;

    fn tiny_opts() -> BenchOptions {
        BenchOptions {
            scale: 1 << 20,
            thread_counts: vec![1, 2],
            ..BenchOptions::default()
        }
    }

    #[test]
    fn workload_split_respects_warmup() {
        let w = Workload::build(ORKUT, &tiny_opts());
        assert_eq!(w.warmup().len() + w.measured().len(), w.edges.len());
        assert!(w.warmup().len() >= w.edges.len() / 20);
    }

    #[test]
    fn every_dynamic_system_ingests_and_serves_the_same_graph() {
        let w = Workload::build(ORKUT, &tiny_opts());
        let mut totals = Vec::new();
        for kind in SystemKind::dynamic_systems() {
            let pool = pool_for_edges(w.edges.len());
            let sys = AnySystem::build(kind, pool, w.num_vertices, w.edges.len());
            sys.insert_all(&w.edges);
            sys.flush();
            let view = sys.view();
            let total: usize = (0..view.num_vertices() as u64)
                .map(|v| view.neighbors(v).len())
                .sum();
            totals.push((kind.label(), total));
        }
        let expected = w.edges.len();
        for (label, total) in totals {
            assert_eq!(total, expected, "{label} lost edges");
        }
    }

    #[test]
    fn csr_matches_the_dynamic_systems() {
        let w = Workload::build(ORKUT, &tiny_opts());
        let pool = pool_for_edges(w.edges.len());
        let csr = AnySystem::build_csr(pool, w.num_vertices, &w.edges);
        let view = csr.view();
        let total: usize = (0..view.num_vertices() as u64)
            .map(|v| view.degree(v))
            .sum();
        assert_eq!(total, w.edges.len());
    }

    #[test]
    fn parallel_insert_preserves_edge_count() {
        let w = Workload::build(ORKUT, &tiny_opts());
        let pool = pool_for_edges(w.edges.len());
        let sys = AnySystem::build(SystemKind::Dgap, pool, w.num_vertices, w.edges.len());
        sys.insert_parallel(&w.edges, 4);
        assert_eq!(sys.as_dyn().num_edges(), w.edges.len());
    }

    #[test]
    fn measurement_math() {
        let m = Measurement {
            wall_secs: 2.0,
            simulated_secs: 2.0,
            operations: 8_000_000,
        };
        assert!((m.meps() - 4.0).abs() < 1e-9);
        assert!((m.effective_meps() - 2.0).abs() < 1e-9);
        assert!((m.total_secs() - 4.0).abs() < 1e-9);
    }
}
