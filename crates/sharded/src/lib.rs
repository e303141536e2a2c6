//! # sharded — a sharded, batched ingestion engine over any graph backend
//!
//! The DGAP paper serves updates and analysis from a *single* mutable-CSR
//! instance; its scalability ceiling is the per-section lock contention of
//! that one graph.  This crate removes the ceiling by partitioning the
//! vertex set across `N` independent backend instances ("shards"), each
//! with its own persistent pool, and layering a batched ingest pipeline on
//! top:
//!
//! * [`ShardedGraph<G>`] — hash-partitions vertices across `N` shards; each
//!   shard owns its own `G: DynamicGraph` instance (its own [`pmem::PmemPool`]
//!   for DGAP).  Edges are routed by source vertex, so every adjacency list
//!   lives entirely inside one shard and per-vertex insertion order is
//!   preserved.
//! * [`IngestPipeline`] — per-shard lock-free batch queues carrying typed
//!   [`dgap::Update`] batches (inserts **and** deletes), drained by one
//!   worker thread per shard, with backpressure when a queue fills.  Each
//!   `submit` returns a [`Ticket`]; [`IngestPipeline::wait_for`] gives the
//!   submitter read-your-writes visibility without the global
//!   [`IngestPipeline::flush_all`] durability barrier.
//! * [`ShardedView`] — a borrowed cross-shard composite implementing
//!   [`dgap::GraphView`], so the four analytics kernels (`pagerank`, `bfs`,
//!   `cc`, `bc`) run unchanged over the partitioned graph.
//!   [`OwnedShardedView`] (via [`ShardedGraph::consistent_view_arc`] /
//!   [`dgap::OwnedSnapshotSource`]) is its owned sibling: a materialised
//!   snapshot with no borrow, cacheable across request boundaries — what
//!   the `service` crate serves queries from.
//! * [`UnifiedView`] — the composite merged into **one global CSR**
//!   ([`dgap::CsrView`]): a parallel degree-gather → prefix-sum → span-copy
//!   merge pays the shard routing once, so the analytics kernels run over
//!   all shards with no per-vertex hash and no per-edge closure: its
//!   batched read hands out borrowed neighbour slices.  Refreshes are incremental: the carried
//!   `Arc<FrozenView>`s double as the change signal, and only shards that
//!   were re-captured get their spans re-merged.
//!
//! Everything is generic over `G: DynamicGraph + SnapshotSource`, so the
//! engine scales DGAP *and* every baseline system.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use dgap::{DynamicGraph, GraphView, SnapshotSource, Update};
//! use sharded::{IngestPipeline, ShardedConfig, ShardedGraph};
//!
//! let cfg = ShardedConfig::small_test();
//! let graph = Arc::new(ShardedGraph::create_dgap_small_test(cfg.num_shards).unwrap());
//!
//! let pipeline = IngestPipeline::new(Arc::clone(&graph), &cfg);
//! let ticket = pipeline
//!     .submit(&[
//!         Update::InsertEdge(0, 1),
//!         Update::InsertEdge(0, 2),
//!         Update::InsertEdge(1, 2),
//!         Update::DeleteEdge(0, 1),
//!     ])
//!     .unwrap();
//! pipeline.wait_for(&ticket).unwrap(); // read-your-writes, no barrier
//!
//! let view = graph.consistent_view_arc(); // owned: outlives this scope
//! assert_eq!(view.neighbors(0), vec![2]);
//! assert_eq!(view.num_edges(), 2);
//!
//! pipeline.flush_all().unwrap(); // durability barrier (unchanged)
//! ```

#![warn(missing_docs)]

pub mod client_table;
pub mod config;
pub mod failpoint;
pub mod graph;
pub mod partition;
pub mod pipeline;
pub mod queue;
pub mod stats;
pub mod unified;
pub mod view;

pub use client_table::{ClientTable, ClientWatermarks, CLIENT_TABLE_ROOT};
pub use config::{ShardedConfig, ShardedConfigBuilder};
pub use failpoint::{crash_after, CrashHook, CrashSite, CRASH_MARKER};
pub use graph::{ShardedDgap, ShardedGraph, ShardedRecovery};
pub use partition::Partitioner;
pub use pipeline::{IngestPipeline, Ticket};
pub use stats::{PipelineStats, ShardIngestStats};
pub use unified::{DeltaTracker, UnifiedView};
pub use view::{OwnedShardedView, ShardedView};

/// A directed edge `(source, destination)`, the unit the ingest pipeline
/// routes.
pub type Edge = (dgap::VertexId, dgap::VertexId);
