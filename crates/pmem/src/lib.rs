//! # pmem — an emulated persistent-memory substrate
//!
//! This crate emulates an Intel Optane DC Persistent Memory module (DCPMM)
//! in App Direct mode, providing the substrate on which the DGAP dynamic
//! graph framework (and all the baseline graph systems it is compared
//! against) are built.
//!
//! The emulator is *not* a cycle-accurate device model.  It reproduces the
//! behavioural properties that the DGAP paper's designs react to:
//!
//! * **Byte addressability with explicit persistence.**  Stores land in a
//!   volatile working image; they only become durable after an explicit
//!   [`PmemPool::flush`] of the covering cache line followed by a
//!   [`PmemPool::fence`] (CLWB/CLFLUSHOPT + SFENCE on real hardware).  On an
//!   eADR platform the flush step is unnecessary and is modelled as free.
//! * **Asymmetric and pattern-dependent write cost.**  A configurable
//!   [`CostModel`] charges simulated nanoseconds for reads, sequential
//!   writes, random writes, repeated in-place flushes of the same line, and
//!   fences — mirroring the measurements in Fig. 1 of the paper.
//! * **256-byte internal write buffering (XPLine).**  Media writes are
//!   accounted at cache-line granularity and grouped into 256 B XPLines so
//!   that small scattered writes show the write-amplification the paper
//!   reports.
//! * **Crash semantics.**  [`PmemPool::simulate_crash`] discards everything
//!   that was not persisted (with 8-byte atomic write granularity for lines
//!   that were flushed but not yet fenced), allowing deterministic testing
//!   of recovery paths.
//! * **PMDK-style transactions.**  [`tx::Transaction`] provides an undo-log
//!   transaction comparable to `libpmemobj`, complete with the journal
//!   allocation and ordering overheads that make it expensive — it is the
//!   baseline DGAP's per-thread undo log is designed to beat.
//!
//! ## Batched reads
//!
//! Every access updates the pool's shared [`PmemStats`] atomics.  A reader
//! issuing many small reads (a graph snapshot scanning a chunk of
//! adjacency lists) can instead open a [`ReadMeter`] with
//! [`PmemPool::read_meter`]: reads through it are charged exactly as
//! [`PmemPool::read`] charges them — bytes, one op per non-empty read, and
//! simulated time per touched cache line — but the totals are added to the
//! shared counters once, when the meter drops.  Device-cost figures are
//! therefore identical whichever way the reads were issued.
//!
//! ## Addressing model
//!
//! Like PMDK, persistent data structures never store raw pointers.  All
//! references inside the pool are [`PmemOffset`]s (byte offsets from the
//! start of the pool).  A small *root directory* stored in the pool header
//! maps well-known [`RootId`]s to offsets so that data structures can be
//! located again after a restart or crash.
//!
//! ## Example
//!
//! ```
//! use pmem::{PmemPool, PmemConfig, RootId};
//!
//! let pool = PmemPool::new(PmemConfig::small_test());
//! let off = pool.alloc(1024, 64).unwrap();
//! pool.write_u64(off, 0xdead_beef);
//! pool.persist(off, 8);                 // flush + fence
//! pool.set_root(RootId::Custom(7), off).unwrap();
//!
//! // After a crash only persisted data survives.
//! pool.simulate_crash();
//! assert_eq!(pool.read_u64(pool.root(RootId::Custom(7)).unwrap()), 0xdead_beef);
//! ```

#![warn(missing_docs)]

mod arena;
mod config;
pub mod crc;
mod error;
mod pool;
mod stats;
pub mod tx;

pub use config::{AdrMode, CostModel, Media, PmemConfig, CACHE_LINE, XPLINE};
pub use crc::{crc32c, Crc32c};
pub use error::{PmemError, Result};
pub use pool::{
    PmemPool, ReadMeter, RootId, CRASH_DROP_FLUSHED, CRASH_FAILPOINT_MARKER, CRASH_KEEP_FLUSHED,
};
pub use stats::{PmemStats, StatsSnapshot};

/// A byte offset inside a [`PmemPool`].
///
/// Persistent data structures store these instead of raw pointers so that
/// they remain valid across restarts (the pool may be re-opened at a
/// different virtual address, just like a PMDK pool).
pub type PmemOffset = u64;

/// Sentinel offset meaning "null" / "no object".
///
/// Offset 0 always falls inside the pool header and is never returned by the
/// allocator, so it can be used as a null value.
pub const NULL_OFFSET: PmemOffset = 0;
