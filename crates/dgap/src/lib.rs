//! # dgap — Dynamic Graph Analysis on Persistent memory
//!
//! A Rust reproduction of **DGAP** (Islam & Dai, SC 2023): a dynamic-graph
//! framework that serves both graph updates and graph analysis from a single
//! mutable CSR structure kept on (emulated) persistent memory.
//!
//! The crate provides:
//!
//! * [`Dgap`] — the framework itself, with concurrent writers, consistent
//!   analysis snapshots ([`DgapSnapshot`]), graceful shutdown and crash
//!   recovery;
//! * the three PM-specific designs the paper introduces: per-section edge
//!   logs ([`elog`]), per-thread undo logs ([`ulog`]) and the DRAM data
//!   placement of hot metadata ([`vertex`]);
//! * the ablation variants of Table 5 ([`DgapVariant`]);
//! * the system-agnostic traits every comparison baseline also implements
//!   ([`DynamicGraph`], [`GraphView`], [`SnapshotSource`]).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use pmem::{PmemPool, PmemConfig};
//! use dgap::{Dgap, DgapConfig, DynamicGraph, GraphView};
//!
//! let pool = Arc::new(PmemPool::new(PmemConfig::small_test()));
//! let graph = Dgap::create(pool, DgapConfig::small_test()).unwrap();
//!
//! graph.insert_edge(0, 1).unwrap();
//! graph.insert_edge(0, 2).unwrap();
//! graph.insert_edge(1, 2).unwrap();
//!
//! let view = graph.consistent_view();       // degree-cache snapshot
//! assert_eq!(view.neighbors(0), vec![1, 2]);
//! assert_eq!(view.degree(1), 1);
//! ```

#![warn(missing_docs)]

pub mod chunks;
pub mod config;
pub mod edges;
pub mod elog;
pub mod graph;
pub mod integrity;
pub mod meta;
pub mod recovery;
pub mod slot;
pub mod telemetry;
pub mod traits;
pub mod ulog;
pub mod variants;
pub mod vertex;

pub use config::{DgapConfig, Placement};
pub use graph::{Dgap, DgapSnapshot, DgapStats, DgapStatsSnapshot};
pub use integrity::{CoveredRegion, RegionReport, RegionState, VerifyReport};
pub use recovery::{RecoveredState, RecoveryKind};
pub use slot::Slot;
pub use traits::{
    CsrView, DynamicGraph, FrozenView, GraphError, GraphResult, GraphView, OwnedSnapshotSource,
    ReferenceGraph, SnapshotSource, Update, VertexId, Vertices,
};
pub use variants::DgapVariant;
