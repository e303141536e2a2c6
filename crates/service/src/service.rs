//! The service loop: ownership of the engine, worker threads, epoch cache.
//!
//! Every counter the service keeps lives in its per-instance
//! [`obs::Registry`] (shared with the ingest pipeline via
//! [`IngestPipeline::with_registry`]), so [`ServiceStats`] is assembled
//! from **one** `Registry::snapshot()` pass instead of field-by-field
//! relaxed loads interleaved with concurrent writers, and the same
//! registry answers [`Query::Metrics`] with the full telemetry plane —
//! per-query-kind latency histograms, epoch-cache hit/miss, refresh and
//! unified-merge timings — merged with the process-global registry (DGAP
//! capture/recovery) and the work-stealing pool's counters.

use crate::request::{ClientOp, OpStatus, Query, QueryResult, Request, Response, ServiceStats};
use dgap::{Dgap, DgapConfig, DynamicGraph, GraphError, GraphResult, GraphView, Update};
use obs::{Counter, Histogram, MetricsSnapshot, Registry};
use pmem::{PmemConfig, PmemPool};
use sharded::{
    ClientTable, IngestPipeline, OwnedShardedView, ShardedConfig, ShardedGraph, ShardedRecovery,
    Ticket, UnifiedView,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the service sizes its engine and worker pool.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Sharding and queueing of the underlying engine.
    pub sharded: ShardedConfig,
    /// Number of request-serving worker threads.
    pub workers: usize,
    /// Vertex capacity hint for the DGAP shards.
    pub num_vertices: usize,
    /// Edge-record capacity hint for the DGAP shards.
    pub num_edges: usize,
    /// Emulated-PM pool capacity **per shard**, in bytes.
    pub pool_bytes: usize,
    /// Opt-in background integrity scrubber: when `Some(interval)`, a
    /// dedicated thread re-verifies every healthy shard's checksummed
    /// regions ([`Dgap::verify`]) once per interval, counting passes,
    /// bytes and per-region errors in the service registry
    /// (`service_scrub_passes`, `service_scrub_bytes`,
    /// `integrity_errors`).  `None` (the default) disables it.
    pub scrub_interval: Option<Duration>,
    /// Scrubber rate limit, in verified bytes per second: after each
    /// shard's pass the scrubber sleeps long enough to keep its average
    /// read bandwidth at or under this, so scrubbing never monopolises
    /// the (emulated) PM the request path is serving from.
    pub scrub_rate_bytes_per_sec: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            sharded: ShardedConfig::default(),
            workers: 4,
            num_vertices: 1 << 16,
            num_edges: 1 << 20,
            pool_bytes: 256 << 20,
            scrub_interval: None,
            scrub_rate_bytes_per_sec: 64 << 20,
        }
    }
}

impl ServiceConfig {
    /// A tiny configuration for unit tests: two shards, two workers, small
    /// pools.
    pub fn small_test() -> Self {
        ServiceConfig {
            sharded: ShardedConfig::small_test(),
            workers: 2,
            num_vertices: 256,
            num_edges: 1 << 14,
            pool_bytes: 24 << 20,
            ..ServiceConfig::default()
        }
    }

    /// Builder-style: enable the background integrity scrubber.
    pub fn scrub_every(mut self, interval: Duration) -> Self {
        self.scrub_interval = Some(interval);
        self
    }
}

/// One queued request plus the channel its answer goes back on.
pub(crate) struct Envelope {
    pub(crate) request: Request,
    pub(crate) reply: ReplyTo,
}

/// Where a served request's answer goes.
pub(crate) enum ReplyTo {
    /// A private per-call channel ([`crate::GraphClient`]'s round trip).
    Direct(Sender<Response>),
    /// A shared, tag-routed channel: the answer is sent as `(tag,
    /// response)` so many in-flight requests can share one reply stream and
    /// complete out of order ([`RawClient`], the network front-end's hook).
    Tagged(u64, Sender<(u64, Response)>),
}

/// A raw, tag-routing handle onto a running [`GraphService`] — the hook a
/// network front-end multiplexes many connections through.
///
/// Unlike [`crate::GraphClient`], a submission does not block for its
/// answer: the caller picks a `tag`, hands over a shared reply sender, and
/// whichever worker serves the request sends `(tag, response)` back on it.
/// Requests submitted with different tags onto the same reply channel
/// complete **out of order** whenever the worker pool overlaps them — the
/// property a pipelined wire protocol needs.  Tag allocation is entirely
/// the caller's affair; the service never inspects tags.
#[derive(Clone)]
pub struct RawClient {
    sender: Sender<Envelope>,
}

impl RawClient {
    /// Queue `request`; its answer will arrive as `(tag, response)` on
    /// `reply`.  [`GraphError::Closed`] when the service has shut down.  A
    /// dropped reply receiver is not an error — the answer is discarded,
    /// matching [`crate::GraphClient`]'s abandoned-call semantics.
    pub fn submit(
        &self,
        tag: u64,
        request: Request,
        reply: Sender<(u64, Response)>,
    ) -> GraphResult<()> {
        self.sender
            .send(Envelope {
                request,
                reply: ReplyTo::Tagged(tag, reply),
            })
            .map_err(|_| GraphError::Closed)
    }
}

/// The epoch-cached snapshot, keyed by the **per-shard** watermarks it was
/// captured at: shard `i`'s snapshot is current as long as watermark `i`
/// has not moved, independently of the other shards.
///
/// Two shapes of the same epoch live side by side: the shard-routed
/// composite (the incremental-capture unit, and what `Degree`/`Neighbors`
/// answer from via its per-shard slices) and the [`UnifiedView`] merged
/// global CSR the analytics kernels run over, reading borrowed neighbour
/// slices.  The unified CSR is built **lazily**, on the first
/// analytics query of the epoch: write-heavy traffic answering only point
/// reads never pays the merge.
struct CachedView {
    watermarks: Vec<u64>,
    view: Arc<OwnedShardedView>,
    /// This epoch's unified CSR, if an analytics query has asked for it.
    unified: Option<Arc<UnifiedView>>,
    /// The newest unified CSR from an earlier epoch — the base the next
    /// lazy merge refreshes incrementally (shards whose `Arc<FrozenView>`
    /// was carried through every epoch since stay unmerged).
    unified_base: Option<Arc<UnifiedView>>,
}

/// Per-query-kind latency histograms, all named `service_query_nanos` with
/// a `kind` label — resolved once at startup so the request path records
/// through pre-registered handles.
struct QueryLatency {
    degree: Arc<Histogram>,
    neighbors: Arc<Histogram>,
    stats: Arc<Histogram>,
    pagerank: Arc<Histogram>,
    bfs: Arc<Histogram>,
    components: Arc<Histogram>,
    metrics: Arc<Histogram>,
    triangles: Arc<Histogram>,
    kcore: Arc<Histogram>,
    topk_degree: Arc<Histogram>,
    topk_pagerank: Arc<Histogram>,
    khop: Arc<Histogram>,
}

impl QueryLatency {
    fn new(registry: &Registry) -> QueryLatency {
        let h = |kind: &str| {
            registry.histogram_with("service_query_nanos", &format!("kind=\"{kind}\""))
        };
        QueryLatency {
            degree: h("degree"),
            neighbors: h("neighbors"),
            stats: h("stats"),
            pagerank: h("pagerank"),
            bfs: h("bfs"),
            components: h("components"),
            metrics: h("metrics"),
            triangles: h("triangles"),
            kcore: h("kcore"),
            topk_degree: h("topk_degree"),
            topk_pagerank: h("topk_pagerank"),
            khop: h("khop"),
        }
    }

    fn for_query(&self, query: &Query) -> &Arc<Histogram> {
        match query {
            Query::Degree(_) => &self.degree,
            Query::Neighbors(_) => &self.neighbors,
            Query::Stats => &self.stats,
            Query::Pagerank { .. } => &self.pagerank,
            Query::Bfs { .. } => &self.bfs,
            Query::ConnectedComponents => &self.components,
            Query::Metrics => &self.metrics,
            Query::TriangleCount => &self.triangles,
            Query::KCore { .. } => &self.kcore,
            Query::TopKDegree { .. } => &self.topk_degree,
            Query::TopKPagerank { .. } => &self.topk_pagerank,
            Query::KHop { .. } => &self.khop,
        }
    }
}

/// The previous analytics answers, keyed by the **identity** of the
/// unified CSR they were computed over ([`UnifiedView::view_id`] — view
/// ids are never recycled, so a stale entry can never be mistaken for the
/// current epoch's).  Storing the id rather than the `Arc<UnifiedView>`
/// means the cache never pins an old epoch's CSR in memory.
///
/// When the current unified view says it was `refreshed_from` the cached
/// entry's view and carries a [`sharded::DeltaTracker`], the incremental
/// kernels seed from the cached result and re-relax only the delta's
/// neighbourhood; otherwise the full kernel runs (counted as a fallback if
/// a cache entry existed to seed from).
#[derive(Default)]
struct AnalyticsCache {
    pagerank: Option<PrEntry>,
    components: Option<CcEntry>,
}

/// A cached PageRank trajectory (see [`analytics::RankCache`]).
#[derive(Clone)]
struct PrEntry {
    view_id: u64,
    iterations: usize,
    cache: Arc<analytics::RankCache>,
}

/// Cached connected-component labels.
#[derive(Clone)]
struct CcEntry {
    view_id: u64,
    labels: Arc<Vec<u64>>,
}

/// This process lifetime's ticket ledger for one durable client: op id →
/// the [`Ticket`] its first submission produced, so a duplicate
/// `(client_id, op_id)` is acknowledged with the **original** ticket
/// instead of being applied again.  Entries at or below the durable
/// watermark are pruned on each new submission; after a restart the ledger
/// starts empty and the durable per-shard client tables take over (a
/// duplicate of an already-committed op is acked with an
/// already-satisfied empty ticket).
#[derive(Default)]
struct ClientLedger {
    tickets: BTreeMap<u64, Ticket>,
}

/// Don't retain a PageRank trajectory above this many `f64` entries
/// (`(iterations + 1) × V`) — the per-iteration history is what makes the
/// incremental replay exact, but it is an O(iterations × V) memory cost
/// the service only accepts while it stays modest (≤ 512 MiB here).
const RANK_CACHE_MAX_ENTRIES: usize = 1 << 26;

pub(crate) struct Inner {
    graph: Arc<ShardedGraph<Dgap>>,
    pipeline: IngestPipeline<Dgap>,
    cache: Mutex<Option<CachedView>>,
    /// Previous-epoch analytics results the incremental kernels seed from.
    /// A separate lock from the epoch cache: analytics recomputes run for
    /// milliseconds and must not stall point reads.
    analytics: Mutex<AnalyticsCache>,
    /// The instance registry — shared with the pipeline, so one snapshot
    /// pass covers both layers.
    registry: Arc<Registry>,
    /// Queries answered without re-capturing (watermarks stood).
    epoch_hits: Arc<Counter>,
    /// Epoch refreshes — each one is an epoch-cache miss.
    epoch_misses: Arc<Counter>,
    shard_captures: Arc<Counter>,
    refresh_nanos: Arc<Histogram>,
    unified_shard_merges: Arc<Counter>,
    unify_nanos: Arc<Histogram>,
    served: Arc<Counter>,
    /// Analytics answered incrementally (or straight from the cache) —
    /// the epoch delta was small enough to re-relax instead of recompute.
    incremental_hits: Arc<Counter>,
    /// Analytics that had a previous result to seed from but recomputed in
    /// full anyway (delta too large, deletions for CC, epoch lineage
    /// broken).  A cold first compute counts as neither hit nor fallback.
    incremental_fallbacks: Arc<Counter>,
    /// Frontier sizes the incremental kernels actually relaxed (PageRank:
    /// peak per-iteration frontier; CC: changed-vertex count).
    incremental_frontier: Arc<Histogram>,
    query_latency: QueryLatency,
    /// Per-client ticket ledgers for the exactly-once mutation path.  The
    /// outer lock only guards the map shape; each client's ledger lock is
    /// held **across** its pipeline submission, so two concurrent
    /// duplicates of the same `(client, op)` serialise and exactly one of
    /// them applies.
    clients: Mutex<HashMap<u64, Arc<Mutex<ClientLedger>>>>,
    /// Duplicate `(client, op)` submissions answered from the ledger or the
    /// durable watermark instead of being re-applied.
    dedup_hits: Arc<Counter>,
    /// Shards quarantined at startup (persistent image failed integrity
    /// verification), ascending.  Empty on a healthy service.  The request
    /// path consults this on every mutation and every read so a
    /// quarantined shard's empty placeholder can never silently answer.
    quarantined: Vec<usize>,
    shutdown: AtomicBool,
}

impl Inner {
    /// The snapshot queries are served from, refreshed **incrementally**
    /// when the pipeline's write watermarks have advanced since the cached
    /// capture: only shards whose own watermark moved are re-captured
    /// (concurrently, on the work-stealing pool); the rest carry their
    /// `Arc<FrozenView>` over from the cached epoch.  A write burst
    /// confined to one shard therefore costs one shard's capture, not a
    /// full `O(V + E)` rebuild.  Returns the total watermark the snapshot
    /// was captured at alongside it.
    ///
    /// The lock serialises captures (at most one partial walk per epoch,
    /// never one per query); query *evaluation* runs outside it on the
    /// returned `Arc`.
    fn with_current_epoch<R>(&self, f: impl FnOnce(&mut CachedView) -> R) -> R {
        let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        // Read the watermarks *after* taking the lock: a pre-lock read
        // could be older than what a racing refresh just cached, and
        // storing the stale vector back would make the next query
        // re-capture shards needlessly.
        let watermarks = self.pipeline.shard_watermarks();
        let fresh = matches!(cache.as_ref(), Some(c) if c.watermarks == watermarks);
        if fresh {
            self.epoch_hits.inc();
        } else {
            let span = self.refresh_nanos.span();
            // Carry over every shard whose watermark stands; a lane
            // that advanced (or a cold cache) gets `None` = re-capture.
            let reuse: Vec<Option<Arc<dgap::FrozenView>>> = match cache.as_ref() {
                Some(cached) => watermarks
                    .iter()
                    .enumerate()
                    .map(|(shard, mark)| {
                        (cached.watermarks.get(shard) == Some(mark))
                            .then(|| cached.view.shard_view_arc(shard))
                    })
                    .collect(),
                None => vec![None; watermarks.len()],
            };
            let captured = reuse.iter().filter(|slot| slot.is_none()).count() as u64;
            let view = Arc::new(self.graph.owned_view_reusing(reuse));
            self.epoch_misses.inc();
            self.shard_captures.add(captured);
            drop(span);
            // The epoch's unified CSR is built lazily; keep the newest one
            // we ever built as the base for that incremental merge.
            let unified_base = cache.take().and_then(|c| c.unified.or(c.unified_base));
            *cache = Some(CachedView {
                watermarks,
                view,
                unified: None,
                unified_base,
            });
        }
        f(cache.as_mut().expect("cache populated above"))
    }

    fn current_view_at(&self) -> (u64, Arc<OwnedShardedView>) {
        self.with_current_epoch(|c| (c.watermarks.iter().sum(), Arc::clone(&c.view)))
    }

    fn current_view(&self) -> Arc<OwnedShardedView> {
        self.current_view_at().1
    }

    /// The epoch's unified CSR, merging it now if no analytics query asked
    /// for it yet this epoch.  The merge is incremental over the newest
    /// previously built unified CSR: the carried `Arc<FrozenView>`s double
    /// as the change signal, so only shards re-captured since then pay the
    /// span gather.
    ///
    /// The merge itself runs **outside** the cache lock — a cold unify is
    /// `O(V + E)`, and point reads share that mutex, so they must not
    /// stall behind it.  Two analytics queries racing into a cold epoch
    /// may merge twice; the first store wins and both results are
    /// equivalent.
    fn current_unified(&self) -> Arc<UnifiedView> {
        let mut ready = None;
        let (view, base) = self.with_current_epoch(|c| {
            ready = c.unified.clone();
            (Arc::clone(&c.view), c.unified_base.clone())
        });
        if let Some(unified) = ready {
            return unified;
        }
        let span = self.unify_nanos.span();
        let unified = Arc::new(match &base {
            Some(base) => base.refreshed(&view),
            None => UnifiedView::unify(&view),
        });
        self.unified_shard_merges
            .add(unified.merged_shards() as u64);
        drop(span);
        self.with_current_epoch(|c| {
            if Arc::ptr_eq(&c.view, &view) {
                // Still the epoch we merged: install unless a racing query
                // beat us to it (theirs is equivalent — serve it).
                if let Some(winner) = &c.unified {
                    return Arc::clone(winner);
                }
                c.unified = Some(Arc::clone(&unified));
            } else if c.unified.is_none() && c.unified_base.is_none() {
                // The epoch advanced while we merged.  Seed our CSR as
                // the base for the next (current-epoch) incremental merge
                // only if none is carried — a carried base may come from a
                // *newer* racing merge than ours, and replacing it would
                // make the next merge re-gather shards needlessly.  The
                // caller gets the snapshot consistent with the epoch it
                // entered at either way.
                c.unified_base = Some(Arc::clone(&unified));
            }
            unified
        })
    }

    /// The epoch's PageRank vector, served incrementally when possible.
    ///
    /// Resolution order: (1) the cached trajectory was computed over this
    /// very unified view → answer straight from it; (2) this view was
    /// refreshed **from** the cached entry's view and carries a delta →
    /// [`analytics::pagerank_incremental`] re-relaxes only the delta's
    /// neighbourhood (both count as hits); (3) anything else → full
    /// recompute, counted as a fallback iff a same-schedule entry existed.
    /// The new trajectory replaces the cache entry either way (subject to
    /// the [`RANK_CACHE_MAX_ENTRIES`] retention cap), so the next epoch
    /// seeds from this one.
    fn pagerank_ranks(&self, iterations: usize) -> Vec<f64> {
        let unified = self.current_unified();
        let prev = {
            let cache = self.analytics.lock().unwrap_or_else(|p| p.into_inner());
            cache.pagerank.clone()
        };
        let seeded = matches!(prev.as_ref(), Some(e) if e.iterations == iterations);
        if let Some(entry) = prev {
            if entry.iterations == iterations {
                if entry.view_id == unified.view_id() {
                    self.incremental_hits.inc();
                    return entry.cache.ranks().to_vec();
                }
                if unified.refreshed_from() == Some(entry.view_id) {
                    if let Some(delta) = unified.delta() {
                        if let Some(run) = analytics::pagerank_incremental(
                            &*unified,
                            &entry.cache,
                            delta.changed_vertices(),
                        ) {
                            self.incremental_hits.inc();
                            self.incremental_frontier.record(run.frontier_peak as u64);
                            let ranks = run.cache.ranks().to_vec();
                            self.store_pagerank(unified.view_id(), iterations, run.cache);
                            return ranks;
                        }
                    }
                }
            }
        }
        if seeded {
            self.incremental_fallbacks.inc();
        }
        // Record the trajectory only when it is small enough to retain —
        // otherwise run the plain kernel and skip the history cost.
        let n = unified.num_vertices();
        if (iterations + 1).saturating_mul(n) <= RANK_CACHE_MAX_ENTRIES {
            let cache = analytics::pagerank_csr_recording(&*unified, iterations);
            let ranks = cache.ranks().to_vec();
            self.store_pagerank(unified.view_id(), iterations, cache);
            ranks
        } else {
            analytics::pagerank_parallel(&*unified, iterations)
        }
    }

    fn store_pagerank(&self, view_id: u64, iterations: usize, cache: analytics::RankCache) {
        let entry = PrEntry {
            view_id,
            iterations,
            cache: Arc::new(cache),
        };
        let mut guard = self.analytics.lock().unwrap_or_else(|p| p.into_inner());
        // Never replace a newer epoch's entry with ours (view ids grow
        // monotonically, so a racing compute over a fresher view wins).
        if guard.pagerank.as_ref().is_none_or(|e| e.view_id <= view_id) {
            guard.pagerank = Some(entry);
        }
    }

    /// The epoch's connected-component labels, served incrementally when
    /// the delta since the cached epoch is insert-only (inserts can only
    /// merge components — [`analytics::cc_incremental`] is then *exact*).
    fn component_labels(&self) -> Vec<u64> {
        let unified = self.current_unified();
        let prev = {
            let cache = self.analytics.lock().unwrap_or_else(|p| p.into_inner());
            cache.components.clone()
        };
        let seeded = prev.is_some();
        if let Some(entry) = prev {
            if entry.view_id == unified.view_id() {
                self.incremental_hits.inc();
                return (*entry.labels).clone();
            }
            if unified.refreshed_from() == Some(entry.view_id) {
                if let Some(delta) = unified.delta() {
                    if let Some(labels) = analytics::cc_incremental(
                        &*unified,
                        &entry.labels,
                        delta.changed_vertices(),
                        delta.has_deletions(),
                    ) {
                        self.incremental_hits.inc();
                        self.incremental_frontier.record(delta.len() as u64);
                        self.store_components(unified.view_id(), labels.clone());
                        return labels;
                    }
                }
            }
        }
        if seeded {
            self.incremental_fallbacks.inc();
        }
        let labels = analytics::cc_parallel(&*unified);
        self.store_components(unified.view_id(), labels.clone());
        labels
    }

    fn store_components(&self, view_id: u64, labels: Vec<u64>) {
        let entry = CcEntry {
            view_id,
            labels: Arc::new(labels),
        };
        let mut guard = self.analytics.lock().unwrap_or_else(|p| p.into_inner());
        if guard
            .components
            .as_ref()
            .is_none_or(|e| e.view_id <= view_id)
        {
            guard.components = Some(entry);
        }
    }

    /// Like every query, `Stats` answers from the epoch cache: the snapshot
    /// sizes and the watermark describe the *same* capture, and the capture
    /// is only (re)paid when the watermark has moved.
    ///
    /// Every counter below comes out of **one** [`Registry::snapshot`]
    /// pass over the shared service + pipeline registry (the epoch view is
    /// resolved *first*, so a `Stats` query that refreshed the cache sees
    /// its own refresh counted).
    fn stats(&self) -> ServiceStats {
        let (watermark, view) = self.current_view_at();
        let snap = self.registry.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        let hist_sum = |name: &str| snap.histogram(name).map_or(0, |h| h.sum);
        ServiceStats {
            num_vertices: view.num_vertices(),
            num_edges: view.num_edges(),
            num_shards: self.graph.num_shards(),
            ops_submitted: counter("pipeline_ops_submitted"),
            ops_applied: counter("pipeline_ops_applied"),
            deletes_applied: counter("pipeline_deletes_applied"),
            watermark,
            snapshot_refreshes: counter("service_epoch_cache_misses"),
            shard_captures: counter("service_shard_captures"),
            refresh_nanos: hist_sum("service_refresh_nanos"),
            unified_shard_merges: counter("service_unified_shard_merges"),
            unify_nanos: hist_sum("service_unify_nanos"),
            requests_served: counter("service_requests_served"),
            degraded_shards: self.quarantined.len(),
        }
    }

    /// The full telemetry plane: the instance registry (service + pipeline)
    /// merged with the process-global one (DGAP capture/recovery) and the
    /// work-stealing pool's counters.
    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.merge(obs::global().snapshot());
        let pool = rayon::pool_stats();
        snap.push_counter("pool_workers", "", pool.workers as u64);
        snap.push_counter("pool_steals", "", pool.steals);
        snap.push_counter("pool_injected", "", pool.injected);
        snap.push_counter("pool_executed", "", pool.executed);
        snap.push_counter("pool_sleeps", "", pool.sleeps);
        snap
    }

    /// The structured degraded-mode error: which shards are out.
    fn degraded_error(&self) -> GraphError {
        GraphError::Degraded {
            shards: self.quarantined.clone(),
        }
    }

    /// The shard that owns `v` is quarantined — its adjacency is simply
    /// gone from the serving set, so an answer about `v` would be silently
    /// wrong rather than partial.
    fn owned_by_quarantined(&self, v: dgap::VertexId) -> bool {
        !self.quarantined.is_empty() && self.quarantined.contains(&self.graph.shard_of(v))
    }

    fn answer(&self, query: Query) -> GraphResult<QueryResult> {
        if !self.quarantined.is_empty() {
            // Vertex-rooted reads whose root lives on a quarantined shard
            // have no trustworthy answer at all: reject with the
            // structured degraded error instead of serving the empty
            // placeholder's view of the vertex.
            let rooted = match query {
                Query::Degree(v) | Query::Neighbors(v) => Some(v),
                Query::Bfs { source } | Query::KHop { source, .. } => Some(source),
                _ => None,
            };
            if let Some(v) = rooted {
                if self.owned_by_quarantined(v) {
                    return Err(self.degraded_error());
                }
            }
        }
        let result = self.answer_query(query);
        // While degraded, any result whose scope is the whole graph covers
        // only the surviving shards — annotate it so a partial answer can
        // never pass for a complete one.  Exact answers stay unwrapped:
        // point reads rooted on a healthy shard (the full adjacency lives
        // there) and the service's own counters.
        let exact = matches!(
            query,
            Query::Degree(_) | Query::Neighbors(_) | Query::Stats | Query::Metrics
        );
        if self.quarantined.is_empty() || exact {
            Ok(result)
        } else {
            Ok(QueryResult::Partial {
                degraded_shards: self.quarantined.clone(),
                result: Box::new(result),
            })
        }
    }

    fn answer_query(&self, query: Query) -> QueryResult {
        let _span = self.query_latency.for_query(&query).span();
        match query {
            Query::Stats => QueryResult::Stats(self.stats()),
            // Metrics deliberately bypasses the epoch cache (and therefore
            // `current_view`): observing the service must not perturb the
            // hit/miss counters being observed.
            Query::Metrics => QueryResult::Metrics(Box::new(self.metrics())),
            // Point reads answer from the composite (one shard hash, one
            // slice read — no reason to force a unified merge); the
            // analytics kernels read borrowed slices of the epoch's
            // unified CSR (merged lazily on the first analytics
            // query of the epoch, incrementally across epochs).
            Query::Degree(v) => QueryResult::Degree(self.current_view().degree(v)),
            Query::Neighbors(v) => {
                QueryResult::Neighbors(self.current_view().neighbor_slice(v).to_vec())
            }
            Query::Pagerank { iterations } => {
                QueryResult::Pagerank(self.pagerank_ranks(iterations))
            }
            Query::Bfs { source } => {
                QueryResult::Bfs(analytics::bfs_parallel(&*self.current_unified(), source))
            }
            Query::ConnectedComponents => QueryResult::ConnectedComponents(self.component_labels()),
            Query::TriangleCount => {
                QueryResult::TriangleCount(analytics::triangle_count_csr(&*self.current_unified()))
            }
            Query::KCore { k } => {
                QueryResult::KCore(analytics::k_core_csr(&*self.current_unified(), k))
            }
            Query::TopKDegree { k } => QueryResult::TopKDegree(analytics::top_k_degree(
                &*self.current_unified(),
                k as usize,
            )),
            // Answered from the maintained rank vector (default schedule),
            // so a hot cache makes this a selection, not a recompute.
            Query::TopKPagerank { k } => QueryResult::TopKPagerank(analytics::top_k_pagerank(
                &self.pagerank_ranks(analytics::pagerank::DEFAULT_ITERATIONS),
                k as usize,
            )),
            Query::KHop { source, depth } => QueryResult::KHop(analytics::khop_neighborhood_csr(
                &*self.current_unified(),
                source,
                depth as usize,
            )),
        }
    }

    /// The exactly-once mutation path: deduplicate against this lifetime's
    /// ticket ledger *and* the durable per-shard watermarks, submitting the
    /// batch as a tagged `(client, op)` only when neither has seen it.
    ///
    /// The client's ledger lock is held across the whole resolution —
    /// watermark read, ledger lookup, and pipeline submission — so two
    /// concurrent duplicates of the same op serialise: the first one
    /// submits, the second one is acked with the first one's ticket.
    fn mutate_as(&self, ops: &[Update], client: ClientOp) -> Response {
        let ClientOp { client_id, op_id } = client;
        if client_id == 0 || op_id == 0 {
            return Response::Error(GraphError::Protocol(
                "client_id and op_id must be non-zero".into(),
            ));
        }
        let ledger = {
            let mut map = self.clients.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(map.entry(client_id).or_default())
        };
        let mut ledger = ledger.lock().unwrap_or_else(|p| p.into_inner());
        let durable = self.pipeline.client_committed(client_id).unwrap_or(0);
        if op_id <= durable {
            // Durably committed in some earlier lifetime (or pruned from
            // the ledger): ack with the original ticket if we still have
            // it, otherwise with an already-satisfied empty one.
            self.dedup_hits.inc();
            let ticket = ledger
                .tickets
                .get(&op_id)
                .cloned()
                .unwrap_or_else(Ticket::empty);
            return Response::Mutated {
                ticket,
                ops: ops.len(),
            };
        }
        if let Some(ticket) = ledger.tickets.get(&op_id) {
            // Submitted this lifetime and still in flight (or committed
            // since the watermark read): same ticket, no second apply.
            self.dedup_hits.inc();
            return Response::Mutated {
                ticket: ticket.clone(),
                ops: ops.len(),
            };
        }
        match self.pipeline.submit_tagged(ops, client_id, op_id) {
            Ok(ticket) => {
                ledger.tickets = ledger.tickets.split_off(&(durable + 1));
                ledger.tickets.insert(op_id, ticket.clone());
                Response::Mutated {
                    ticket,
                    ops: ops.len(),
                }
            }
            Err(err) => Response::Error(err),
        }
    }

    /// Answer [`Request::ProbeOp`]: committed at or below the durable
    /// watermark, not committed for a known client above it, unknown when
    /// no shard (and no in-memory ledger) has ever heard of the client.
    fn probe_op(&self, client_id: u64, op_id: u64) -> Response {
        if client_id == 0 || op_id == 0 {
            return Response::Error(GraphError::Protocol(
                "client_id and op_id must be non-zero".into(),
            ));
        }
        let status = match self.pipeline.client_committed(client_id) {
            Some(watermark) if op_id <= watermark => OpStatus::Committed,
            Some(_) => OpStatus::NotCommitted,
            None => {
                let known = self
                    .clients
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .contains_key(&client_id);
                if known {
                    OpStatus::NotCommitted
                } else {
                    OpStatus::Unknown
                }
            }
        };
        Response::OpStatus(status)
    }

    /// Does any update in the batch route to a quarantined shard?  Such a
    /// batch must be rejected up front: the placeholder instance would
    /// accept the write and silently lose it.
    fn ops_touch_quarantined(&self, ops: &[Update]) -> bool {
        !self.quarantined.is_empty()
            && ops.iter().any(|op| {
                let routed = match *op {
                    Update::InsertVertex(v) => v,
                    Update::InsertEdge(src, _) | Update::DeleteEdge(src, _) => src,
                };
                self.quarantined.contains(&self.graph.shard_of(routed))
            })
    }

    fn handle(&self, request: Request) -> Response {
        match request {
            Request::Mutate { ops, client } => {
                if self.ops_touch_quarantined(&ops) {
                    // Retryable: once the operator repairs or replaces the
                    // quarantined shard and restarts, the same batch (same
                    // client/op identity) applies cleanly.
                    return Response::Error(self.degraded_error());
                }
                match client {
                    Some(client) => self.mutate_as(&ops, client),
                    None => match self.pipeline.submit(&ops) {
                        Ok(ticket) => Response::Mutated {
                            ticket,
                            ops: ops.len(),
                        },
                        Err(err) => Response::Error(err),
                    },
                }
            }
            Request::Wait {
                ticket,
                deadline_ms,
            } => {
                // A ticket decoded off a transport can carry any target
                // vector; one whose shape disagrees with this engine's
                // shard count never came from this pipeline, so reject it
                // here instead of letting the extra lanes be ignored.
                let lanes = ticket.targets().len();
                if lanes != 0 && lanes != self.graph.num_shards() {
                    return Response::Error(GraphError::Protocol(format!(
                        "wait ticket names {} shards, engine has {}",
                        lanes,
                        self.graph.num_shards()
                    )));
                }
                let deadline = deadline_ms.map(Duration::from_millis);
                match self.pipeline.wait_for_deadline(&ticket, deadline) {
                    Ok(()) => Response::Waited,
                    Err(err) => Response::Error(err),
                }
            }
            Request::Flush => match self.pipeline.flush_all() {
                Ok(()) => Response::Flushed,
                Err(err) => Response::Error(err),
            },
            Request::ProbeOp { client_id, op_id } => self.probe_op(client_id, op_id),
            Request::Query(query) => match self.answer(query) {
                Ok(result) => Response::Answer(result),
                Err(err) => Response::Error(err),
            },
        }
    }
}

/// The request/response front-end: owns a `ShardedGraph<Dgap>` and its
/// [`IngestPipeline`], and answers typed [`Request`]s from any number of
/// [`crate::GraphClient`] handles on a pool of worker threads.
///
/// Dropping the service (or calling [`GraphService::shutdown`]) stops the
/// workers; clients still holding handles get [`dgap::GraphError::Closed`]
/// from then on.
pub struct GraphService {
    inner: Arc<Inner>,
    sender: Option<Sender<Envelope>>,
    workers: Vec<JoinHandle<()>>,
    /// The background integrity scrubber, when configured.
    scrubber: Option<JoinHandle<()>>,
}

impl GraphService {
    /// Build a fresh engine and start the worker pool.
    pub fn start(config: ServiceConfig) -> GraphResult<GraphService> {
        config.sharded.validate();
        assert!(config.workers > 0, "a service needs at least one worker");
        let pool_bytes = config.pool_bytes;
        let graph = Arc::new(ShardedGraph::create_dgap(
            config.sharded.num_shards,
            config.num_vertices,
            config.num_edges,
            |_| PmemConfig::with_capacity(pool_bytes).persistence_tracking(false),
        )?);
        Self::launch(graph, &config, Vec::new())
    }

    /// Restart the service over pools that already contain one shard each
    /// (the counterpart to [`GraphService::start`] after a process restart
    /// or a crash): every shard is re-opened via
    /// [`ShardedGraph::open_dgap`] — per-shard `Dgap::open`s fanned out on
    /// the work-stealing pool, crashed shards rebuilt with the parallel
    /// recovery scans — and the worker pool starts over the recovered
    /// graph.  `pools[i]` must be shard `i`'s pool from the previous
    /// generation, in the original order, and the shard count must match
    /// `config.sharded.num_shards`.
    ///
    /// Returns the service together with the [`ShardedRecovery`] report of
    /// which restart path each shard took.
    ///
    /// ## Degraded startup
    ///
    /// Shards whose persistent image fails integrity verification (every
    /// open re-checksums the metadata seals *and* — here, unlike embedded
    /// opens — the full edge array against the CRC table sealed at
    /// shutdown) are **quarantined** rather than refusing the whole
    /// service: the service comes up over the surviving shards, mutations
    /// routed at a quarantined shard answer the retryable
    /// [`GraphError::Degraded`], vertex reads owned by one are rejected
    /// with the same error, and whole-graph analytics come back wrapped in
    /// [`QueryResult::Partial`].  Check [`ShardedRecovery::is_degraded`]
    /// (or the `service_degraded_shards` gauge / [`ServiceStats`]) after
    /// opening.
    pub fn open(
        config: ServiceConfig,
        pools: Vec<Arc<PmemPool>>,
    ) -> GraphResult<(GraphService, ShardedRecovery)> {
        config.sharded.validate();
        assert!(config.workers > 0, "a service needs at least one worker");
        if pools.len() != config.sharded.num_shards {
            return Err(GraphError::Other(format!(
                "GraphService::open got {} pools for {} shards",
                pools.len(),
                config.sharded.num_shards
            )));
        }
        let per_shard_edges = config.num_edges.div_ceil(config.sharded.num_shards.max(1));
        let num_vertices = config.num_vertices;
        let (graph, recovery) = ShardedGraph::open_dgap(pools, |_| {
            DgapConfig::for_graph(num_vertices, per_shard_edges).verify_data_on_open(true)
        })?;
        let service = Self::launch(Arc::new(graph), &config, recovery.quarantined_shards())?;
        Ok((service, recovery))
    }

    /// Start the request loop and worker pool over an already-built engine.
    ///
    /// Opens (or creates) each shard's durable [`ClientTable`] first —
    /// resolving any in-doubt crash cursor against the shard's record count
    /// — so the pipeline starts with the exactly-once path armed and
    /// [`ShardedGraph::open_dgap`]-recovered watermarks answering probes.
    fn launch(
        graph: Arc<ShardedGraph<Dgap>>,
        config: &ServiceConfig,
        mut quarantined: Vec<usize>,
    ) -> GraphResult<GraphService> {
        quarantined.sort_unstable();
        let registry = Arc::new(Registry::new());
        registry
            .gauge("service_degraded_shards")
            .set(quarantined.len() as i64);
        let tables = (0..graph.num_shards())
            .map(|i| {
                let shard = graph.shard(i);
                ClientTable::create_or_open(shard.pool(), shard.num_edges() as u64)
            })
            .collect::<GraphResult<Vec<_>>>()?;
        let pipeline = IngestPipeline::with_client_tables(
            Arc::clone(&graph),
            &config.sharded,
            Arc::clone(&registry),
            tables,
        );
        let inner = Arc::new(Inner {
            graph,
            pipeline,
            cache: Mutex::new(None),
            analytics: Mutex::new(AnalyticsCache::default()),
            epoch_hits: registry.counter("service_epoch_cache_hits"),
            epoch_misses: registry.counter("service_epoch_cache_misses"),
            shard_captures: registry.counter("service_shard_captures"),
            refresh_nanos: registry.histogram("service_refresh_nanos"),
            unified_shard_merges: registry.counter("service_unified_shard_merges"),
            unify_nanos: registry.histogram("service_unify_nanos"),
            served: registry.counter("service_requests_served"),
            incremental_hits: registry.counter("analytics_incremental_hits"),
            incremental_fallbacks: registry.counter("analytics_incremental_fallbacks"),
            incremental_frontier: registry.histogram("service_incremental_frontier_size"),
            query_latency: QueryLatency::new(&registry),
            clients: Mutex::new(HashMap::new()),
            dedup_hits: registry.counter("ingest_dedup_hits"),
            registry,
            quarantined,
            shutdown: AtomicBool::new(false),
        });
        let (sender, receiver) = mpsc::channel::<Envelope>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("graph-service-{i}"))
                    .spawn(move || serve_loop(&inner, &receiver))
                    .expect("spawn service worker")
            })
            .collect();
        let scrubber = config.scrub_interval.map(|interval| {
            let inner = Arc::clone(&inner);
            let rate = config.scrub_rate_bytes_per_sec.max(1);
            std::thread::Builder::new()
                .name("graph-scrubber".into())
                .spawn(move || scrub_loop(&inner, interval, rate))
                .expect("spawn integrity scrubber")
        });
        Ok(GraphService {
            inner,
            sender: Some(sender),
            workers,
            scrubber,
        })
    }

    /// A new client handle.  Handles are cheap, cloneable, and usable from
    /// any thread.
    pub fn client(&self) -> crate::GraphClient {
        crate::GraphClient::new(
            self.sender
                .as_ref()
                .expect("sender lives until shutdown")
                .clone(),
        )
    }

    /// A tag-routing [`RawClient`] handle for transports: submissions carry
    /// a caller-chosen tag and complete out of order on a shared reply
    /// channel, through the very same worker pool that serves
    /// [`crate::GraphClient`] traffic.
    pub fn raw_client(&self) -> RawClient {
        RawClient {
            sender: self
                .sender
                .as_ref()
                .expect("sender lives until shutdown")
                .clone(),
        }
    }

    /// The underlying sharded graph (direct read access for tests and
    /// embedding callers; requests keep flowing through clients).
    pub fn graph(&self) -> &Arc<ShardedGraph<Dgap>> {
        &self.inner.graph
    }

    /// Handles to each shard's persistent pool, in shard order.  Keep
    /// these across [`GraphService::shutdown`] (or a crash) to restart the
    /// service over the same data with [`GraphService::open`].
    pub fn shard_pools(&self) -> Vec<Arc<PmemPool>> {
        (0..self.inner.graph.num_shards())
            .map(|i| Arc::clone(self.inner.graph.shard(i).pool()))
            .collect()
    }

    /// Current service statistics (same numbers [`Query::Stats`] reports).
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// The full telemetry snapshot (same data [`Query::Metrics`] reports):
    /// this instance's registry merged with the process-global one and the
    /// work-stealing pool's counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    /// This instance's metrics registry (shared with its ingest pipeline).
    /// Tests and embedding callers use it to tune the slow-op trace
    /// threshold or register their own series alongside the service's.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// The owned snapshot queries are being served from right now,
    /// refreshing it first if the write watermarks moved.  Embedding
    /// callers use this to run analysis out-of-band on exactly what the
    /// request path sees; tests use it to assert the incremental refresh
    /// reuses untouched shards' snapshots (`Arc::ptr_eq`).
    pub fn current_view(&self) -> Arc<OwnedShardedView> {
        self.inner.current_view()
    }

    /// The unified cross-shard CSR ([`UnifiedView`]) analytics queries are
    /// being served from right now, refreshing the epoch first if the
    /// write watermarks moved.  Same epoch as [`GraphService::current_view`];
    /// tests use it to assert the incremental re-merge touched only the
    /// shards that changed.
    pub fn current_unified(&self) -> Arc<UnifiedView> {
        self.inner.current_unified()
    }

    /// Shards quarantined at startup, ascending (empty = healthy).
    pub fn degraded_shards(&self) -> &[usize] {
        &self.inner.quarantined
    }

    /// Run the integrity verify pass over every shard **now**, returning
    /// one [`dgap::VerifyReport`] per shard (in shard order; quarantined
    /// shards report on their placeholder, which is trivially clean).
    /// This is the same pass the background scrubber runs on its
    /// interval; the reports never fail the service — operators act on
    /// them.
    pub fn verify(&self) -> Vec<dgap::VerifyReport> {
        (0..self.inner.graph.num_shards())
            .map(|i| self.inner.graph.shard(i).verify())
            .collect()
    }

    /// Stop accepting requests, drain the workers, and return once they
    /// have exited.  Equivalent to dropping the service, but explicit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Drop our sender so an idle channel disconnects promptly once the
        // last client handle goes away.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(scrubber) = self.scrubber.take() {
            let _ = scrubber.join();
        }
    }
}

impl Drop for GraphService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Background integrity scrubber: once per `interval`, re-verify every
/// healthy shard's checksummed regions and count what it finds.  Rate
/// limited: after each shard's pass the thread sleeps long enough to keep
/// its average verified-bytes bandwidth at or under `rate_bytes_per_sec`,
/// so a large graph's scrub spreads out instead of stealing the request
/// path's memory bandwidth in one burst.  Errors are **counted, not
/// acted on** (`integrity_errors{region=...}`): quarantine decisions
/// belong to restart time, when the damaged shard can be swapped out
/// atomically; a live scrub hit tells the operator to schedule exactly
/// that.
fn scrub_loop(inner: &Inner, interval: Duration, rate_bytes_per_sec: usize) {
    let passes = inner.registry.counter("service_scrub_passes");
    let bytes = inner.registry.counter("service_scrub_bytes");
    // Shutdown-aware sleep: check the flag every 10 ms so a scrubbing
    // service still stops promptly.
    let nap = |total: Duration| {
        let mut left = total;
        while !left.is_zero() {
            if inner.shutdown.load(Ordering::Acquire) {
                return false;
            }
            let step = left.min(Duration::from_millis(10));
            std::thread::sleep(step);
            left -= step;
        }
        !inner.shutdown.load(Ordering::Acquire)
    };
    loop {
        if !nap(interval) {
            return;
        }
        for shard in 0..inner.graph.num_shards() {
            if inner.quarantined.contains(&shard) {
                continue;
            }
            let report = inner.graph.shard(shard).verify();
            let verified = report.bytes_verified();
            bytes.add(verified);
            for region in &report.regions {
                if !matches!(region.state, dgap::RegionState::Clean) {
                    inner
                        .registry
                        .counter_with("integrity_errors", &format!("region=\"{}\"", region.region))
                        .inc();
                }
            }
            // Rate limit: verified bytes over allowed bandwidth.
            let pause = Duration::from_secs_f64(verified as f64 / rate_bytes_per_sec as f64);
            if !nap(pause) {
                return;
            }
        }
        passes.inc();
    }
}

/// Worker body: take the receiver lock, wait (bounded) for a request,
/// release the lock, serve the request.  The bounded wait keeps shutdown
/// prompt even while clients still hold live senders.
fn serve_loop(inner: &Inner, receiver: &Mutex<Receiver<Envelope>>) {
    loop {
        let next = {
            let receiver = receiver.lock().unwrap_or_else(|p| p.into_inner());
            receiver.recv_timeout(Duration::from_millis(20))
        };
        match next {
            Ok(Envelope { request, reply }) => {
                let response = inner.handle(request);
                inner.served.inc();
                // The client may have given up on the reply; that is its
                // business, not an error of ours.
                match reply {
                    ReplyTo::Direct(reply) => {
                        let _ = reply.send(response);
                    }
                    ReplyTo::Tagged(tag, reply) => {
                        let _ = reply.send((tag, response));
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgap::{GraphError, Update};

    #[test]
    fn serves_queries_from_an_epoch_cached_snapshot() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        let ticket = client
            .mutate(vec![Update::InsertEdge(1, 2), Update::InsertEdge(1, 3)])
            .unwrap();
        client.wait(&ticket).unwrap();
        assert_eq!(client.degree(1).unwrap(), 2);
        // A quiet pipeline must not re-materialise the snapshot per query.
        let before = service.stats().snapshot_refreshes;
        for _ in 0..10 {
            assert_eq!(client.neighbors(1).unwrap(), vec![2, 3]);
        }
        let after = service.stats().snapshot_refreshes;
        assert_eq!(
            before, after,
            "cache must be reused while the watermark stands"
        );
        service.shutdown();
    }

    #[test]
    fn snapshot_refreshes_when_the_watermark_advances() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        let t = client.mutate(vec![Update::InsertEdge(0, 1)]).unwrap();
        client.wait(&t).unwrap();
        assert_eq!(client.degree(0).unwrap(), 1);
        let t = client.mutate(vec![Update::InsertEdge(0, 2)]).unwrap();
        client.wait(&t).unwrap();
        assert_eq!(client.degree(0).unwrap(), 2, "new epoch, new snapshot");
    }

    #[test]
    fn single_shard_writes_refresh_only_that_shard() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        // Pick one vertex per shard (small_test has two shards).
        let graph = Arc::clone(service.graph());
        let va = (0..64u64).find(|&v| graph.shard_of(v) == 0).unwrap();
        let vb = (0..64u64).find(|&v| graph.shard_of(v) == 1).unwrap();
        // Seed both shards and warm the cache.
        let t = client
            .mutate(vec![Update::InsertEdge(va, vb), Update::InsertEdge(vb, va)])
            .unwrap();
        client.wait(&t).unwrap();
        assert_eq!(client.degree(va).unwrap(), 1);
        let before = service.current_view();
        // Build this epoch's unified CSR too, so the post-burst build has
        // a base to refresh incrementally from.
        let before_unified = service.current_unified();
        assert_eq!(before_unified.merged_shards(), 2, "cold build pays all");
        let stats_before = service.stats();

        // A write burst confined to shard 0.
        let t = client.mutate(vec![Update::InsertEdge(va, vb + 2)]).unwrap();
        client.wait(&t).unwrap();
        assert_eq!(client.degree(va).unwrap(), 2);
        let after = service.current_view();
        // Force this epoch's (lazy) unified merge before reading stats.
        let unified = service.current_unified();
        let stats_after = service.stats();

        // Shard 1 was untouched: its materialised snapshot is *shared*
        // with the previous epoch, not re-captured.
        assert!(
            Arc::ptr_eq(&before.shard_view_arc(1), &after.shard_view_arc(1)),
            "untouched shard must reuse its Arc<FrozenView>"
        );
        assert!(
            !Arc::ptr_eq(&before.shard_view_arc(0), &after.shard_view_arc(0)),
            "written shard must be re-captured"
        );
        // And the refresh accounting says one shard was captured for it.
        assert_eq!(
            stats_after.shard_captures - stats_before.shard_captures,
            1,
            "single-shard burst must cost exactly one shard capture"
        );
        // The unified CSR followed the same incremental path: one shard's
        // spans re-merged, the other carried forward.
        assert_eq!(unified.merged_shards(), 1);
        assert!(unified.shard_was_merged(0));
        assert!(!unified.shard_was_merged(1));
        assert_eq!(
            stats_after.unified_shard_merges - stats_before.unified_shard_merges,
            1,
            "single-shard burst must re-merge exactly one shard's spans"
        );
        service.shutdown();
    }

    #[test]
    fn point_read_epochs_never_pay_the_unified_merge() {
        use crate::{Query, QueryResult};
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        for round in 0..3u64 {
            let t = client
                .mutate(vec![Update::InsertEdge(round, round + 1)])
                .unwrap();
            client.wait(&t).unwrap();
            assert_eq!(client.degree(round).unwrap(), 1);
        }
        assert_eq!(
            service.stats().unified_shard_merges,
            0,
            "degree-only traffic must not build the unified CSR"
        );
        // The first analytics query pays the (full, cold) merge once.
        match client.query(Query::ConnectedComponents).unwrap() {
            QueryResult::ConnectedComponents(labels) => assert!(!labels.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            service.stats().unified_shard_merges,
            2,
            "cold merge pays both shards"
        );
        service.shutdown();
    }

    #[test]
    fn deletes_are_visible_through_queries() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        let t = client
            .mutate(vec![
                Update::InsertEdge(5, 6),
                Update::InsertEdge(5, 7),
                Update::DeleteEdge(5, 6),
            ])
            .unwrap();
        client.wait(&t).unwrap();
        assert_eq!(client.neighbors(5).unwrap(), vec![7]);
        assert_eq!(client.degree(5).unwrap(), 1);
        let stats = service.stats();
        assert_eq!(stats.deletes_applied, 1);
        assert_eq!(stats.ops_applied, 3);
    }

    #[test]
    fn hostile_vertex_ids_answer_empty_instead_of_killing_workers() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        let t = client.mutate(vec![Update::InsertEdge(0, 1)]).unwrap();
        client.wait(&t).unwrap();
        for v in [u64::MAX, u64::MAX - 1, 1 << 40] {
            assert_eq!(client.degree(v).unwrap(), 0);
            assert!(client.neighbors(v).unwrap().is_empty());
        }
        // The worker pool survived the hostile queries.
        assert_eq!(client.degree(0).unwrap(), 1);
        service.shutdown();
    }

    #[test]
    fn open_restarts_over_crashed_pools_with_query_parity() {
        let config = ServiceConfig::small_test();
        let service = GraphService::start(config.clone()).unwrap();
        let client = service.client();
        let t = client
            .mutate(vec![
                Update::InsertEdge(0, 1),
                Update::InsertEdge(0, 2),
                Update::InsertEdge(1, 0),
                Update::DeleteEdge(0, 1),
            ])
            .unwrap();
        client.wait(&t).unwrap();
        client.flush().unwrap();
        let pools = service.shard_pools();
        // Stop the workers without a graceful Dgap::shutdown: the
        // NORMAL_SHUTDOWN flag stays clear, so reopening takes the crash
        // path.  (Service pools run with persistence tracking off, so
        // there is no volatile image to discard on top of that.)
        service.shutdown();

        let (reopened, recovery) = GraphService::open(config, pools).unwrap();
        assert_eq!(recovery.num_shards(), 2);
        assert_eq!(recovery.crashed_shards(), 2, "no graceful shutdown ran");
        let client = reopened.client();
        assert_eq!(client.neighbors(0).unwrap(), vec![2]);
        assert_eq!(client.neighbors(1).unwrap(), vec![0]);
        // The recovered service keeps accepting writes.
        let t = client.mutate(vec![Update::InsertEdge(0, 9)]).unwrap();
        client.wait(&t).unwrap();
        assert_eq!(client.neighbors(0).unwrap(), vec![2, 9]);
        reopened.shutdown();
    }

    #[test]
    fn open_rejects_a_pool_count_mismatch() {
        let config = ServiceConfig::small_test();
        let service = GraphService::start(config.clone()).unwrap();
        let mut pools = service.shard_pools();
        pools.pop();
        service.shutdown();
        assert!(GraphService::open(config, pools).is_err());
    }

    #[test]
    fn raw_client_routes_tagged_replies_through_the_worker_pool() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let raw = service.raw_client();
        let (reply, answers) = mpsc::channel();
        raw.submit(
            7,
            Request::Mutate {
                ops: vec![Update::InsertEdge(0, 1)],
                client: None,
            },
            reply.clone(),
        )
        .unwrap();
        let (tag, response) = answers.recv().unwrap();
        assert_eq!(tag, 7);
        let ticket = match response {
            Response::Mutated { ticket, ops } => {
                assert_eq!(ops, 1);
                ticket
            }
            other => panic!("unexpected {other:?}"),
        };
        raw.submit(
            8,
            Request::Wait {
                ticket,
                deadline_ms: None,
            },
            reply.clone(),
        )
        .unwrap();
        assert!(matches!(answers.recv().unwrap(), (8, Response::Waited)));
        raw.submit(9, Request::Query(Query::Degree(0)), reply)
            .unwrap();
        match answers.recv().unwrap() {
            (9, Response::Answer(QueryResult::Degree(d))) => assert_eq!(d, 1),
            other => panic!("unexpected {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn clients_after_shutdown_get_closed() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        assert_eq!(client.degree(0).unwrap(), 0);
        service.shutdown();
        assert_eq!(
            client.mutate(vec![Update::InsertEdge(0, 1)]).unwrap_err(),
            GraphError::Closed
        );
        assert_eq!(client.flush().unwrap_err(), GraphError::Closed);
    }

    #[test]
    fn analytics_queries_run_over_the_service() {
        use crate::{Query, QueryResult};
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        // A 4-cycle, inserted symmetrically.
        let mut ops = Vec::new();
        for &(a, b) in &[(0u64, 1u64), (1, 2), (2, 3), (3, 0)] {
            ops.push(Update::InsertEdge(a, b));
            ops.push(Update::InsertEdge(b, a));
        }
        let t = client.mutate(ops).unwrap();
        client.wait(&t).unwrap();
        match client.query(Query::Bfs { source: 0 }).unwrap() {
            QueryResult::Bfs(parents) => {
                assert_eq!(parents[0], 0, "the source is its own parent");
                assert!(parents[..4].iter().all(|&p| p >= 0), "cycle fully reached");
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.query(Query::ConnectedComponents).unwrap() {
            QueryResult::ConnectedComponents(labels) => {
                assert!(labels[..4].iter().all(|&l| l == labels[0]));
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.query(Query::Pagerank { iterations: 5 }).unwrap() {
            QueryResult::Pagerank(ranks) => {
                // Symmetric cycle: all four members rank equally.
                assert!((ranks[0] - ranks[2]).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn widened_kernel_set_answers_over_the_service() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        // A triangle (0-1-2) with a pendant vertex 3 off vertex 0.
        let mut ops = Vec::new();
        for &(a, b) in &[(0u64, 1u64), (1, 2), (0, 2), (0, 3)] {
            ops.push(Update::InsertEdge(a, b));
            ops.push(Update::InsertEdge(b, a));
        }
        let t = client.mutate(ops).unwrap();
        client.wait(&t).unwrap();

        assert_eq!(client.triangle_count().unwrap(), 1);
        assert_eq!(client.k_core(2).unwrap(), vec![0, 1, 2]);
        let top = client.top_k_degree(1).unwrap();
        assert_eq!(top, vec![(0, 3)], "vertex 0 has degree 3");
        let top_pr = client.top_k_pagerank(2).unwrap();
        assert_eq!(top_pr[0].0, 0, "the hub out-ranks the others");
        assert_eq!(top_pr.len(), 2);
        assert_eq!(client.khop(3, 1).unwrap(), vec![0, 3]);
        assert_eq!(client.khop(3, 2).unwrap(), vec![0, 1, 2, 3]);
        service.shutdown();
    }

    #[test]
    fn repeated_analytics_in_one_epoch_hit_the_maintained_results() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        let t = client
            .mutate(vec![Update::InsertEdge(0, 1), Update::InsertEdge(1, 0)])
            .unwrap();
        client.wait(&t).unwrap();
        // Cold first computes: neither hit nor fallback.
        let _ = client.query(Query::Pagerank { iterations: 20 }).unwrap();
        let _ = client.query(Query::ConnectedComponents).unwrap();
        let snap = service.metrics();
        assert_eq!(snap.counter("analytics_incremental_hits"), Some(0));
        assert_eq!(snap.counter("analytics_incremental_fallbacks"), Some(0));
        // Re-asking in the same epoch answers from the maintained results.
        let _ = client.query(Query::Pagerank { iterations: 20 }).unwrap();
        let _ = client.top_k_pagerank(1).unwrap();
        let _ = client.query(Query::ConnectedComponents).unwrap();
        let snap = service.metrics();
        assert_eq!(snap.counter("analytics_incremental_hits"), Some(3));
        assert_eq!(snap.counter("analytics_incremental_fallbacks"), Some(0));
        service.shutdown();
    }

    #[test]
    fn a_small_burst_advances_the_incremental_counters() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        // A connected base graph, large enough that a 2-vertex burst stays
        // far under the incremental fallback fraction.
        let mut ops = Vec::new();
        for v in 0..63u64 {
            ops.push(Update::InsertEdge(v, v + 1));
            ops.push(Update::InsertEdge(v + 1, v));
        }
        let t = client.mutate(ops).unwrap();
        client.wait(&t).unwrap();
        let full_pr = match client.query(Query::Pagerank { iterations: 20 }).unwrap() {
            QueryResult::Pagerank(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        assert!(full_pr.len() >= 64, "rank vector spans the vertex range");
        let _ = client.query(Query::ConnectedComponents).unwrap();

        // One symmetric insert: the next epoch's analytics go incremental.
        let t = client
            .mutate(vec![Update::InsertEdge(10, 40), Update::InsertEdge(40, 10)])
            .unwrap();
        client.wait(&t).unwrap();
        let incr_pr = match client.query(Query::Pagerank { iterations: 20 }).unwrap() {
            QueryResult::Pagerank(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        let labels = match client.query(Query::ConnectedComponents).unwrap() {
            QueryResult::ConnectedComponents(l) => l,
            other => panic!("unexpected {other:?}"),
        };
        assert!(labels[..64].iter().all(|&l| l == 0), "still one component");
        let snap = service.metrics();
        assert_eq!(snap.counter("analytics_incremental_hits"), Some(2));
        assert_eq!(snap.counter("analytics_incremental_fallbacks"), Some(0));
        let frontier = snap
            .histogram("service_incremental_frontier_size")
            .expect("frontier histogram registered");
        assert!(frontier.count >= 2, "both kernels recorded a frontier");
        // And the incremental answer matches a fresh full recompute.
        let fresh = analytics::pagerank_parallel(&*service.current_unified(), 20);
        for (a, b) in incr_pr.iter().zip(&fresh) {
            assert!((a - b).abs() <= 1e-9);
        }
        service.shutdown();
    }

    #[test]
    fn open_quarantines_a_corrupt_shard_and_serves_degraded() {
        let config = ServiceConfig::small_test();
        let service = GraphService::start(config.clone()).unwrap();
        let client = service.client();
        let graph = Arc::clone(service.graph());
        let va = (0..64u64).find(|&v| graph.shard_of(v) == 0).unwrap();
        let vb = (0..64u64).find(|&v| graph.shard_of(v) == 1).unwrap();
        let t = client
            .mutate(vec![
                Update::InsertEdge(va, vb),
                Update::InsertEdge(vb, va),
                Update::InsertEdge(va, vb + 2),
            ])
            .unwrap();
        client.wait(&t).unwrap();
        client.flush().unwrap();
        let pools = service.shard_pools();
        service.shutdown();

        // Flip a bit under shard 1's pool-header CRC seal: its image must
        // fail verification on reopen and the shard be quarantined.
        pools[1].inject_bit_flip(16, 2);

        let (reopened, recovery) = GraphService::open(config, pools).unwrap();
        assert!(recovery.is_degraded());
        assert_eq!(recovery.quarantined_shards(), vec![1]);
        assert_eq!(reopened.degraded_shards(), &[1]);
        assert_eq!(reopened.stats().degraded_shards, 1);
        let (_, reason) = &recovery.quarantine_reasons()[0];
        assert!(
            reason.contains("@ +"),
            "structured offset missing: {reason}"
        );

        let client = reopened.client();
        // Healthy-shard point reads stay exact and unwrapped.
        assert_eq!(client.neighbors(va).unwrap(), vec![vb, vb + 2]);
        // Reads rooted at a quarantined vertex have no trustworthy answer.
        match client.degree(vb) {
            Err(GraphError::Degraded { shards }) => assert_eq!(shards, vec![1]),
            other => panic!("unexpected {other:?}"),
        }
        match client.query(Query::Bfs { source: vb }) {
            Err(GraphError::Degraded { shards }) => assert_eq!(shards, vec![1]),
            other => panic!("unexpected {other:?}"),
        }
        // Whole-graph analytics answer, but always annotated as partial.
        match client.query(Query::TriangleCount).unwrap() {
            QueryResult::Partial {
                degraded_shards,
                result,
            } => {
                assert_eq!(degraded_shards, vec![1]);
                assert!(matches!(*result, QueryResult::TriangleCount(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Mutations routed at the quarantined shard are rejected with the
        // retryable error before touching the pipeline...
        match client.mutate(vec![Update::InsertEdge(vb, va)]) {
            Err(GraphError::Degraded { shards }) => assert_eq!(shards, vec![1]),
            other => panic!("unexpected {other:?}"),
        }
        // ...while healthy-shard writes keep flowing.
        let t = client.mutate(vec![Update::InsertEdge(va, vb + 4)]).unwrap();
        client.wait(&t).unwrap();
        assert_eq!(client.neighbors(va).unwrap(), vec![vb, vb + 2, vb + 4]);
        reopened.shutdown();
    }

    #[test]
    fn background_scrubber_counts_passes_and_bytes() {
        let config = ServiceConfig::small_test().scrub_every(Duration::from_millis(5));
        let service = GraphService::start(config).unwrap();
        let client = service.client();
        let t = client
            .mutate(vec![Update::InsertEdge(1, 2), Update::InsertEdge(2, 3)])
            .unwrap();
        client.wait(&t).unwrap();
        client.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let snap = service.metrics();
            if snap.counter("service_scrub_passes").unwrap_or(0) >= 2 {
                assert!(snap.counter("service_scrub_bytes").unwrap_or(0) > 0);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "scrubber never completed two passes"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // An undamaged graph scrubs clean: the on-demand pass agrees.
        for report in service.verify() {
            assert!(!report.is_fatal(), "{report:?}");
        }
        service.shutdown();
    }

    #[test]
    fn bounded_wait_times_out_and_stays_retryable_through_the_service() {
        let service = GraphService::start(ServiceConfig::small_test()).unwrap();
        let client = service.client();
        // Queue several fat batches so the last ticket is still in flight
        // when the zero-deadline wait is served.
        let mut last = None;
        for round in 0..4u64 {
            let ops = (0..8000u64)
                .map(|i| Update::InsertEdge(i % 200, (i + round) % 200))
                .collect();
            last = Some(client.mutate(ops).unwrap());
        }
        let ticket = last.unwrap();
        match client.wait_deadline(&ticket, Duration::ZERO) {
            Err(GraphError::Timeout { .. }) => {}
            // Losing the race (everything drained first) is legal but the
            // point of the test is the timeout path, so flag it loudly.
            Ok(()) => panic!("pipeline drained 32k ops before the wait was served"),
            other => panic!("unexpected {other:?}"),
        }
        // The ticket survived the timeout: an unbounded retry completes.
        client.wait(&ticket).unwrap();
        assert!(client.degree(0).unwrap() > 0);
        service.shutdown();
    }
}
