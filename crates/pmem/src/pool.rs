//! The emulated persistent-memory pool.

use crate::arena::Arena;
use crate::config::{AdrMode, Media, PmemConfig, CACHE_LINE, XPLINE};
use crate::crc::crc32c;
use crate::error::{PmemError, Result};
use crate::stats::{PmemStats, StatsSnapshot};
use crate::{PmemOffset, NULL_OFFSET};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic number stored at offset 0 of every pool image.
const MAGIC: u64 = 0x4447_4150_504d_454d; // "DGAPPMEM"

/// Size of the pool header in bytes.  User allocations start after it.
const HEADER_SIZE: u64 = 512;

/// Number of root-directory slots in the header.
const N_ROOTS: usize = 32;

/// Offset of the root table inside the header.
const ROOT_TABLE_OFF: u64 = 64;

/// Offset of the header's CRC32C inside the header.  The checksum covers
/// the fixed fields (`0..24`: magic, capacity, allocation cursor) and the
/// root table (`64..64 + N_ROOTS * 8`); the CRC slot itself and the
/// reserved gap are excluded.  It is re-sealed under the allocator lock on
/// every cursor or root-slot update, in the same flush + single-fence as
/// the field it covers, so a crash can never persist one without the other.
const HEADER_CRC_OFF: u64 = 56;

/// Number of lock shards protecting the persistence-tracking sets.
const PERSIST_SHARDS: usize = 32;

/// In [`PmemPool::simulate_crash_with`], keep cache lines that were flushed
/// but not yet fenced (optimistic: the flush completed before power loss).
pub const CRASH_KEEP_FLUSHED: bool = true;

/// In [`PmemPool::simulate_crash_with`], drop cache lines that were flushed
/// but not yet fenced (pessimistic: the flush never reached the ADR domain).
pub const CRASH_DROP_FLUSHED: bool = false;

/// Substring carried by the panic payload raised when an armed write
/// fail-point fires (see [`PmemPool::arm_write_failpoint`]).  Crash-fuzzing
/// harnesses match on this marker to tell injected crashes apart from real
/// bugs.
pub const CRASH_FAILPOINT_MARKER: &str = "injected crash fail-point";

/// Sentinel for a disarmed write fail-point.
const FAILPOINT_OFF: u64 = u64::MAX;

/// Well-known slots in the pool's root directory.
///
/// Like a PMDK root object, these let a data structure find its superblock
/// again after the pool is re-opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootId {
    /// Primary superblock of the framework owning this pool.
    Superblock,
    /// Edge-array region (used by DGAP and the CSR baseline).
    EdgeArray,
    /// Per-section edge-log region.
    EdgeLogs,
    /// Per-thread undo-log region.
    UndoLogs,
    /// Backup copy of DRAM metadata written at graceful shutdown.
    MetadataBackup,
    /// Any other user-defined slot (wraps around the remaining table space).
    Custom(u8),
}

impl RootId {
    fn slot(self) -> usize {
        match self {
            RootId::Superblock => 0,
            RootId::EdgeArray => 1,
            RootId::EdgeLogs => 2,
            RootId::UndoLogs => 3,
            RootId::MetadataBackup => 4,
            RootId::Custom(n) => 5 + (n as usize % (N_ROOTS - 5)),
        }
    }
}

#[derive(Default)]
struct PersistShard {
    /// Lines written since they were last persisted.
    dirty: HashSet<u64>,
    /// Lines flushed since the last fence, together with the line contents
    /// captured at flush time.  Capturing the bytes here (rather than
    /// re-reading the working image at fence time) mirrors the write-pending
    /// queue on real hardware and avoids racing with writers that dirty the
    /// line again after flushing it.
    flushed: std::collections::HashMap<u64, [u8; CACHE_LINE]>,
}

/// An emulated persistent-memory pool.
///
/// See the [crate-level documentation](crate) for the behavioural model.
/// All methods take `&self`; the pool is `Send + Sync` and may be shared
/// across writer and analysis threads, mirroring a real mapped device.
/// Callers are responsible (exactly as on real hardware) for ensuring that
/// concurrently accessed byte ranges are disjoint; DGAP does this with its
/// per-section locks.
pub struct PmemPool {
    config: PmemConfig,
    /// Working image: what loads observe.
    work: Arena,
    /// Persisted image: what survives a crash.  `None` when persistence
    /// tracking is disabled.
    durable: Option<Arena>,
    shards: Vec<Mutex<PersistShard>>,
    stats: PmemStats,
    /// End offset of the previous write, used to classify sequential access.
    last_write_end: AtomicU64,
    /// DRAM-cached allocation cursor (also persisted in the header).
    alloc_cursor: Mutex<u64>,
    /// Countdown until an injected crash on the write path; `u64::MAX` means
    /// disarmed.  See [`PmemPool::arm_write_failpoint`].
    write_failpoint: AtomicU64,
    /// Human-readable provenance of this pool (image file path, shard name,
    /// ...), carried in integrity errors so a multi-shard deployment can
    /// tell which pool failed.  `"<memory>"` until someone labels it.
    label: Mutex<String>,
}

impl PmemPool {
    /// Create a new, zero-filled pool.
    ///
    /// The capacity is rounded up to a multiple of the XPLine size.
    pub fn new(mut config: PmemConfig) -> Self {
        let cap = config.capacity.max(HEADER_SIZE as usize * 2);
        let cap = cap.div_ceil(XPLINE) * XPLINE;
        config.capacity = cap;
        let track = config.track_persistence && config.media == Media::Pmem;
        let pool = PmemPool {
            work: Arena::new(cap),
            durable: if track { Some(Arena::new(cap)) } else { None },
            shards: (0..PERSIST_SHARDS)
                .map(|_| Mutex::new(PersistShard::default()))
                .collect(),
            stats: PmemStats::new(),
            last_write_end: AtomicU64::new(u64::MAX),
            alloc_cursor: Mutex::new(HEADER_SIZE),
            write_failpoint: AtomicU64::new(FAILPOINT_OFF),
            label: Mutex::new("<memory>".to_string()),
            config,
        };
        // Initialise and persist the header.
        pool.write_u64(0, MAGIC);
        pool.write_u64(8, cap as u64);
        pool.write_u64(16, HEADER_SIZE);
        pool.write_u32(HEADER_CRC_OFF, pool.compute_header_crc());
        pool.persist(0, HEADER_SIZE as usize);
        pool
    }

    /// Label this pool with its provenance (file path, shard name, ...).
    /// The label is volatile metadata: it travels in error messages, not in
    /// the pool image.
    pub fn set_label(&self, label: impl Into<String>) {
        *self.label.lock() = label.into();
    }

    /// The pool's provenance label (see [`PmemPool::set_label`]).
    pub fn label(&self) -> String {
        self.label.lock().clone()
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PmemConfig {
        &self.config
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Bytes currently handed out by the allocator (header included).
    pub fn used(&self) -> usize {
        *self.alloc_cursor.lock() as usize
    }

    /// Size of the pool header (magic, allocation cursor, root directory
    /// and their checksum) in bytes.  Offsets below this are metadata, not
    /// allocated data.
    pub fn header_bytes(&self) -> usize {
        HEADER_SIZE as usize
    }

    /// Bytes still available for allocation.
    pub fn available(&self) -> usize {
        self.capacity() - self.used()
    }

    /// `true` when the pool emulates persistent media (as opposed to DRAM).
    pub fn is_persistent(&self) -> bool {
        self.config.media == Media::Pmem
    }

    /// The platform persistence-domain mode (ADR or eADR).
    pub fn adr_mode(&self) -> AdrMode {
        self.config.adr
    }

    /// Live statistics counters for this pool.
    pub fn stats(&self) -> &PmemStats {
        &self.stats
    }

    /// Convenience: a point-in-time snapshot of the statistics.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate `len` bytes aligned to `align` (a power of two).
    ///
    /// The allocator is a persistent bump allocator: the cursor lives in the
    /// pool header so allocations survive restarts.  There is no `free`;
    /// long-lived frameworks pre-allocate their regions (as DGAP does) or
    /// recycle them internally.
    pub fn alloc(&self, len: usize, align: usize) -> Result<PmemOffset> {
        if !align.is_power_of_two() {
            return Err(PmemError::BadAlignment(align));
        }
        let mut cursor = self.alloc_cursor.lock();
        let start = (*cursor + align as u64 - 1) & !(align as u64 - 1);
        let end = start + len as u64;
        if end > self.capacity() as u64 {
            return Err(PmemError::OutOfSpace {
                requested: len,
                available: self.capacity().saturating_sub(*cursor as usize),
            });
        }
        let padded = end - *cursor;
        *cursor = end;
        // Persist the new cursor so the allocator state survives a crash,
        // re-sealing the header CRC in the same flush + fence (both live in
        // the first cache line, so one flush captures both and a crash can
        // never persist the cursor without its checksum).
        self.write_u64(16, end);
        self.write_u32(HEADER_CRC_OFF, self.compute_header_crc());
        self.flush(16, (HEADER_CRC_OFF + 4 - 16) as usize);
        self.fence();
        self.stats.allocations.fetch_add(1, Ordering::Relaxed);
        self.stats
            .allocated_bytes
            .fetch_add(padded, Ordering::Relaxed);
        Ok(start)
    }

    /// Allocate and zero-fill a region.  Zeroing goes through the normal
    /// write path so it is charged and tracked like any other store.
    pub fn alloc_zeroed(&self, len: usize, align: usize) -> Result<PmemOffset> {
        let off = self.alloc(len, align)?;
        self.memset(off, 0, len);
        Ok(off)
    }

    // ------------------------------------------------------------------
    // Root directory
    // ------------------------------------------------------------------

    /// Register `offset` under the given root slot and persist the entry.
    pub fn set_root(&self, id: RootId, offset: PmemOffset) -> Result<()> {
        let slot_off = ROOT_TABLE_OFF + (id.slot() as u64) * 8;
        // The allocator lock doubles as the header-CRC lock: it serialises
        // this recompute against concurrent `alloc` cursor updates.
        let _guard = self.alloc_cursor.lock();
        self.write_u64(slot_off, offset);
        self.write_u32(HEADER_CRC_OFF, self.compute_header_crc());
        // Slot line and CRC line are distinct cache lines: flush both, one
        // fence.  A crash before the fence loses both together.
        self.flush(slot_off, 8);
        self.flush(HEADER_CRC_OFF, 4);
        self.fence();
        Ok(())
    }

    /// Look up a root slot.  Returns [`PmemError::NoSuchRoot`] if the slot
    /// was never set (offset 0).
    pub fn root(&self, id: RootId) -> Result<PmemOffset> {
        let slot_off = ROOT_TABLE_OFF + (id.slot() as u64) * 8;
        let v = self.read_u64(slot_off);
        if v == NULL_OFFSET {
            Err(PmemError::NoSuchRoot(id.slot() as u64))
        } else {
            Ok(v)
        }
    }

    // ------------------------------------------------------------------
    // Header integrity
    // ------------------------------------------------------------------

    /// CRC32C over the header fields the pool itself owns: the fixed
    /// fields (`0..24`) and the root table.  Reads the working image
    /// directly so checksum maintenance does not perturb the cost-model
    /// accounting of the workload being measured.
    fn compute_header_crc(&self) -> u32 {
        let mut buf = [0u8; 24 + N_ROOTS * 8];
        self.work.read(0, &mut buf[..24]);
        self.work.read(ROOT_TABLE_OFF as usize, &mut buf[24..]);
        crc32c(&buf)
    }

    /// Check the pool header against its stored CRC32C.
    ///
    /// Returns [`PmemError::BadImage`] — carrying the pool label and the
    /// byte offset of the failing region — when the magic, the recorded
    /// capacity, or the checksum does not match.  Called by
    /// [`PmemPool::open_file`]; frameworks above also call it as the first
    /// step of their own verify passes.
    pub fn verify_header(&self) -> Result<()> {
        let magic = self.read_u64(0);
        if magic != MAGIC {
            return Err(PmemError::bad_image(
                self.label(),
                0,
                format!("bad magic {magic:#x}"),
            ));
        }
        let cap = self.read_u64(8);
        if cap != self.capacity() as u64 {
            return Err(PmemError::bad_image(
                self.label(),
                8,
                format!(
                    "recorded capacity {cap} != pool capacity {}",
                    self.capacity()
                ),
            ));
        }
        let stored = self.read_u32(HEADER_CRC_OFF);
        let actual = self.compute_header_crc();
        if stored != actual {
            return Err(PmemError::bad_image(
                self.label(),
                0,
                format!("header crc mismatch: stored {stored:#010x}, computed {actual:#010x}"),
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Media-fault injection
    // ------------------------------------------------------------------

    /// Flip one bit of the byte at `offset`, in both the working and the
    /// durable image, bypassing persistence tracking and statistics.
    ///
    /// This models a media fault — a cell the device returns differently
    /// from what was stored — not a software write, so it deliberately does
    /// not tick fail-points, charge costs, or dirty cache lines.  Companion
    /// to the crash fail-points in `sharded::failpoint`; corruption-fuzzing
    /// harnesses drive it with seeded offsets.
    pub fn inject_bit_flip(&self, offset: PmemOffset, bit: u32) {
        self.check_bounds(offset, 1);
        let bit = bit % 8;
        let mut b = [0u8; 1];
        self.work.read(offset as usize, &mut b);
        b[0] ^= 1 << bit;
        self.work.write(offset as usize, &b);
        if let Some(d) = &self.durable {
            let mut b = [0u8; 1];
            d.read(offset as usize, &mut b);
            b[0] ^= 1 << bit;
            d.write(offset as usize, &b);
        }
    }

    /// Tear the cache line containing `offset`: garble a seeded suffix of
    /// the line in both images, as if the device lost power mid-line and
    /// re-materialised stale or scrambled cells.  Every garbled byte is
    /// XORed with a non-zero value, so the line is guaranteed to differ
    /// from what was written.  Same accounting bypass as
    /// [`PmemPool::inject_bit_flip`].
    pub fn inject_torn_line(&self, offset: PmemOffset, seed: u64) {
        self.check_bounds(offset, 1);
        let line_off = (offset as usize / CACHE_LINE) * CACHE_LINE;
        let line_len = CACHE_LINE.min(self.capacity() - line_off);
        // Seeded xorshift; `| 1` keeps every mask byte non-zero.
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let start = (next() as usize) % line_len;
        for arena in std::iter::once(&self.work).chain(self.durable.as_ref()) {
            let mut buf = [0u8; CACHE_LINE];
            arena.read(line_off, &mut buf[..line_len]);
            let mut x2 = seed | 1;
            for b in buf[start..line_len].iter_mut() {
                x2 ^= x2 << 13;
                x2 ^= x2 >> 7;
                x2 ^= x2 << 17;
                *b ^= (x2 as u8) | 1;
            }
            arena.write(line_off, &buf[..line_len]);
        }
    }

    // ------------------------------------------------------------------
    // Bounds / cost helpers
    // ------------------------------------------------------------------

    #[inline]
    fn check_bounds(&self, offset: PmemOffset, len: usize) {
        let cap = self.capacity() as u64;
        assert!(
            offset.checked_add(len as u64).is_some_and(|end| end <= cap),
            "pmem access out of bounds: offset {offset} len {len} capacity {cap}"
        );
    }

    #[inline]
    fn lines(offset: PmemOffset, len: usize) -> (u64, u64) {
        if len == 0 {
            return (0, 0);
        }
        let first = offset / CACHE_LINE as u64;
        let last = (offset + len as u64 - 1) / CACHE_LINE as u64;
        (first, last)
    }

    #[inline]
    fn charge_write(&self, offset: PmemOffset, len: usize) {
        if len == 0 {
            return;
        }
        let (first, last) = Self::lines(offset, len);
        let nlines = last - first + 1;
        let prev_end = self
            .last_write_end
            .swap(offset + len as u64, Ordering::Relaxed);
        let sequential = prev_end == offset;
        let cost = &self.config.cost;
        self.stats
            .logical_bytes_written
            .fetch_add(len as u64, Ordering::Relaxed);
        self.stats.write_ops.fetch_add(1, Ordering::Relaxed);
        if sequential {
            self.stats.seq_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.rand_writes.fetch_add(1, Ordering::Relaxed);
        }
        match self.config.media {
            Media::Dram => {
                self.stats
                    .media_bytes_written
                    .fetch_add(nlines * CACHE_LINE as u64, Ordering::Relaxed);
                self.stats.charge_ns(nlines * cost.dram_write_line_ns);
            }
            Media::Pmem => {
                // Store itself goes to the cache: cheap.  Media traffic is
                // charged at flush time (ADR) or here (eADR, where stores
                // are already inside the persistence domain).
                if self.config.adr == AdrMode::Eadr {
                    self.stats
                        .media_bytes_written
                        .fetch_add(nlines * CACHE_LINE as u64, Ordering::Relaxed);
                }
                let per_line = if sequential {
                    cost.pm_write_line_seq_ns
                } else {
                    cost.pm_write_line_rand_ns
                };
                self.stats.charge_ns(nlines * per_line);
            }
        }
        // Track dirtiness for crash simulation.
        if self.durable.is_some() {
            let eadr = self.config.adr == AdrMode::Eadr;
            for line in first..=last {
                let shard = &self.shards[(line as usize) % PERSIST_SHARDS];
                let mut s = shard.lock();
                if eadr {
                    // Under eADR the caches are inside the persistence
                    // domain: every store behaves as if it were immediately
                    // flushed.  Capture the line content now; the next fence
                    // makes it durable.
                    let mut buf = [0u8; CACHE_LINE];
                    let off = (line as usize) * CACHE_LINE;
                    let n = CACHE_LINE.min(self.capacity() - off);
                    self.work.read(off, &mut buf[..n]);
                    s.flushed.insert(line, buf);
                } else {
                    s.dirty.insert(line);
                }
            }
        }
    }

    /// Simulated nanoseconds one read of `len > 0` bytes at `offset` costs:
    /// every cache line it touches, at the medium's per-line read latency.
    #[inline]
    fn read_ns(&self, offset: PmemOffset, len: usize) -> u64 {
        let (first, last) = Self::lines(offset, len);
        let per_line = match self.config.media {
            Media::Dram => self.config.cost.dram_read_line_ns,
            Media::Pmem => self.config.cost.pm_read_line_ns,
        };
        (last - first + 1) * per_line
    }

    #[inline]
    fn charge_read(&self, offset: PmemOffset, len: usize) {
        if len == 0 {
            return;
        }
        self.stats
            .logical_bytes_read
            .fetch_add(len as u64, Ordering::Relaxed);
        self.stats.read_ops.fetch_add(1, Ordering::Relaxed);
        self.stats.charge_ns(self.read_ns(offset, len));
    }

    // ------------------------------------------------------------------
    // Crash fail-point
    // ------------------------------------------------------------------

    /// Arm a crash fail-point on the write path: the `nth` store operation
    /// from now (`write` / `memset` / `copy_within`, zero-based) panics with
    /// a payload containing [`CRASH_FAILPOINT_MARKER`] *before* mutating the
    /// working image.  Combined with [`PmemPool::simulate_crash`] in the
    /// caller's recovery harness this kills an ingest thread at an arbitrary
    /// point mid-operation.  Pool-scoped, so concurrent tests on other pools
    /// are unaffected.
    pub fn arm_write_failpoint(&self, nth: u64) {
        assert!(nth < FAILPOINT_OFF, "fail-point countdown out of range");
        self.write_failpoint.store(nth, Ordering::SeqCst);
    }

    /// Disarm a previously armed write fail-point.
    pub fn disarm_write_failpoint(&self) {
        self.write_failpoint.store(FAILPOINT_OFF, Ordering::SeqCst);
    }

    #[inline]
    fn tick_failpoint(&self) {
        if self.write_failpoint.load(Ordering::Relaxed) == FAILPOINT_OFF {
            return;
        }
        let prev = self.write_failpoint.fetch_sub(1, Ordering::SeqCst);
        if prev == FAILPOINT_OFF {
            // Disarmed between the fast-path load and the decrement: undo.
            self.write_failpoint.fetch_add(1, Ordering::SeqCst);
        } else if prev == 0 {
            self.write_failpoint.store(FAILPOINT_OFF, Ordering::SeqCst);
            panic!("{CRASH_FAILPOINT_MARKER}: pmem write path");
        }
    }

    // ------------------------------------------------------------------
    // Raw reads and writes
    // ------------------------------------------------------------------

    /// Write `src` at `offset`.  The data is *not* durable until it is
    /// flushed and fenced (on ADR platforms).
    pub fn write(&self, offset: PmemOffset, src: &[u8]) {
        self.tick_failpoint();
        self.check_bounds(offset, src.len());
        self.work.write(offset as usize, src);
        self.charge_write(offset, src.len());
    }

    /// Read `dst.len()` bytes starting at `offset` into `dst`.
    pub fn read(&self, offset: PmemOffset, dst: &mut [u8]) {
        self.check_bounds(offset, dst.len());
        self.work.read(offset as usize, dst);
        self.charge_read(offset, dst.len());
    }

    /// Start a batch of reads whose statistics are accumulated locally and
    /// published to [`PmemPool::stats`] once, when the meter is dropped
    /// (see [`ReadMeter`]).
    pub fn read_meter(&self) -> ReadMeter<'_> {
        ReadMeter {
            pool: self,
            bytes: 0,
            ops: 0,
            ns: 0,
        }
    }

    /// Read `len` bytes at `offset` into a fresh vector.
    pub fn read_vec(&self, offset: PmemOffset, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(offset, &mut v);
        v
    }

    /// Fill `len` bytes at `offset` with `byte`.
    pub fn memset(&self, offset: PmemOffset, byte: u8, len: usize) {
        self.tick_failpoint();
        self.check_bounds(offset, len);
        self.work.fill(offset as usize, byte, len);
        self.charge_write(offset, len);
    }

    /// Copy `len` bytes from `src_off` to `dst_off` within the pool
    /// (memmove semantics).  Charged as a read of the source plus a write of
    /// the destination.
    pub fn copy_within(&self, src_off: PmemOffset, dst_off: PmemOffset, len: usize) {
        self.tick_failpoint();
        self.check_bounds(src_off, len);
        self.check_bounds(dst_off, len);
        self.work
            .copy_within(src_off as usize, dst_off as usize, len);
        self.charge_read(src_off, len);
        self.charge_write(dst_off, len);
    }

    /// Write a little-endian `u32` at `offset`.
    #[inline]
    pub fn write_u32(&self, offset: PmemOffset, value: u32) {
        self.write(offset, &value.to_le_bytes());
    }

    /// Read a little-endian `u32` at `offset`.
    #[inline]
    pub fn read_u32(&self, offset: PmemOffset) -> u32 {
        let mut b = [0u8; 4];
        self.read(offset, &mut b);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian `u64` at `offset`.
    #[inline]
    pub fn write_u64(&self, offset: PmemOffset, value: u64) {
        self.write(offset, &value.to_le_bytes());
    }

    /// Read a little-endian `u64` at `offset`.
    #[inline]
    pub fn read_u64(&self, offset: PmemOffset) -> u64 {
        let mut b = [0u8; 8];
        self.read(offset, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a slice of `u32`s starting at `offset` (little-endian).
    pub fn write_u32_slice(&self, offset: PmemOffset, values: &[u32]) {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write(offset, &bytes);
    }

    /// Read `out.len()` `u32`s starting at `offset` (little-endian).
    pub fn read_u32_slice(&self, offset: PmemOffset, out: &mut [u32]) {
        let bytes = self.read_vec(offset, out.len() * 4);
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            out[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
    }

    /// Write a slice of `u64`s starting at `offset` (little-endian).
    pub fn write_u64_slice(&self, offset: PmemOffset, values: &[u64]) {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write(offset, &bytes);
    }

    /// Read `out.len()` `u64`s starting at `offset` (little-endian).
    pub fn read_u64_slice(&self, offset: PmemOffset, out: &mut [u64]) {
        let bytes = self.read_vec(offset, out.len() * 8);
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            out[i] = u64::from_le_bytes(b);
        }
    }

    // ------------------------------------------------------------------
    // Persistence primitives
    // ------------------------------------------------------------------

    /// Flush the cache lines covering `[offset, offset + len)` (CLWB /
    /// CLFLUSHOPT).  On eADR platforms and DRAM pools this is a no-op apart
    /// from statistics.
    pub fn flush(&self, offset: PmemOffset, len: usize) {
        if len == 0 || self.config.media == Media::Dram {
            return;
        }
        if self.config.adr == AdrMode::Eadr {
            // Caches are already in the persistence domain; flush is free.
            return;
        }
        self.check_bounds(offset, len);
        let (first, last) = Self::lines(offset, len);
        let nlines = last - first + 1;
        let cost = &self.config.cost;
        self.stats.flushes.fetch_add(nlines, Ordering::Relaxed);
        self.stats.charge_ns(nlines * cost.flush_ns);
        // Media traffic: the device writes back whole XPLines.
        let first_xp = offset / XPLINE as u64;
        let last_xp = (offset + len as u64 - 1) / XPLINE as u64;
        let nxp = last_xp - first_xp + 1;
        self.stats
            .media_bytes_written
            .fetch_add(nxp * XPLINE as u64, Ordering::Relaxed);
        self.stats.xplines_touched.fetch_add(nxp, Ordering::Relaxed);
        for line in first..=last {
            let shard = &self.shards[(line as usize) % PERSIST_SHARDS];
            let mut s = shard.lock();
            if s.flushed.contains_key(&line) {
                // Repeated flush of a line whose previous flush has not been
                // fenced yet: the persistent in-place update pattern.
                self.stats.inplace_flushes.fetch_add(1, Ordering::Relaxed);
                self.stats.charge_ns(cost.pm_inplace_penalty_ns);
            }
            if self.durable.is_some() {
                // Capture the line content at flush time (write-pending
                // queue semantics).
                let mut buf = [0u8; CACHE_LINE];
                let loff = (line as usize) * CACHE_LINE;
                let n = CACHE_LINE.min(self.capacity() - loff);
                self.work.read(loff, &mut buf[..n]);
                s.flushed.insert(line, buf);
            } else {
                s.flushed.insert(line, [0u8; CACHE_LINE]);
            }
            s.dirty.remove(&line);
        }
    }

    /// Issue a store fence (SFENCE).  All previously flushed lines become
    /// durable; on eADR platforms all dirty lines become durable.
    pub fn fence(&self) {
        self.stats.fences.fetch_add(1, Ordering::Relaxed);
        self.stats.charge_ns(self.config.cost.fence_ns);
        if self.config.media == Media::Dram {
            return;
        }
        if let Some(durable) = &self.durable {
            for shard in &self.shards {
                let mut s = shard.lock();
                for (&line, data) in s.flushed.iter() {
                    let off = (line as usize) * CACHE_LINE;
                    let len = CACHE_LINE.min(self.capacity() - off);
                    durable.write(off, &data[..len]);
                }
                s.flushed.clear();
            }
        } else {
            // No durable image: still clear the flush-pending sets so the
            // in-place detection stays meaningful.
            for shard in &self.shards {
                shard.lock().flushed.clear();
            }
        }
    }

    /// Flush then fence: make `[offset, offset + len)` durable.
    pub fn persist(&self, offset: PmemOffset, len: usize) {
        self.flush(offset, len);
        self.fence();
    }

    // ------------------------------------------------------------------
    // Crash simulation
    // ------------------------------------------------------------------

    /// Simulate a power failure using the optimistic policy (flushed but
    /// un-fenced lines survive).  See [`PmemPool::simulate_crash_with`].
    pub fn simulate_crash(&self) {
        self.simulate_crash_with(CRASH_KEEP_FLUSHED);
    }

    /// Simulate a power failure.
    ///
    /// Everything that was not persisted is discarded: the working image is
    /// reset to the durable image.  `keep_flushed` chooses whether lines
    /// that were flushed but not yet fenced survive ([`CRASH_KEEP_FLUSHED`])
    /// or are lost ([`CRASH_DROP_FLUSHED`]).  After this call the pool is in
    /// the state a freshly re-opened pool would be in; callers then run
    /// their recovery procedure.
    ///
    /// # Panics
    ///
    /// Panics if the pool was created with `track_persistence = false` or
    /// emulates DRAM (in which case a crash simply loses everything — there
    /// is no meaningful recovery to test).
    pub fn simulate_crash_with(&self, keep_flushed: bool) {
        let durable = self
            .durable
            .as_ref()
            .expect("simulate_crash requires a Pmem pool with track_persistence enabled");
        // Under eADR every completed store is inside the persistence domain,
        // so pending lines always survive regardless of the crash policy.
        let keep_flushed = keep_flushed || self.config.adr == AdrMode::Eadr;
        // Optionally promote flushed-but-unfenced lines first.
        for shard in &self.shards {
            let mut s = shard.lock();
            if keep_flushed {
                for (&line, data) in s.flushed.iter() {
                    let off = (line as usize) * CACHE_LINE;
                    let len = CACHE_LINE.min(self.capacity() - off);
                    durable.write(off, &data[..len]);
                }
            }
            s.flushed.clear();
            s.dirty.clear();
        }
        // The working image now reflects only durable data.
        self.work.copy_range_from(durable, 0, self.capacity());
        self.last_write_end.store(u64::MAX, Ordering::Relaxed);
        // Reload the allocator cursor from the (durable) header.
        let cursor = {
            let mut b = [0u8; 8];
            self.work.read(16, &mut b);
            u64::from_le_bytes(b)
        };
        *self.alloc_cursor.lock() = cursor.max(HEADER_SIZE);
    }

    // ------------------------------------------------------------------
    // Pool images on disk
    // ------------------------------------------------------------------

    /// Serialize the durable image (or the working image when persistence
    /// tracking is off) to a file, producing a pool image that can be
    /// re-opened with [`PmemPool::open_file`].
    pub fn save_to_file(&self, path: &std::path::Path) -> Result<()> {
        use std::io::Write as _;
        let image = match &self.durable {
            Some(d) => d.to_vec(),
            None => self.work.to_vec(),
        };
        let mut f = std::fs::File::create(path)?;
        f.write_all(&MAGIC.to_le_bytes())?;
        f.write_all(&(image.len() as u64).to_le_bytes())?;
        f.write_all(&image)?;
        f.sync_all()?;
        Ok(())
    }

    /// Re-open a pool image written by [`PmemPool::save_to_file`].
    ///
    /// The configuration's capacity must match the image capacity.
    pub fn open_file(path: &std::path::Path, mut config: PmemConfig) -> Result<Self> {
        let source = path.display().to_string();
        let bytes = std::fs::read(path)?;
        if bytes.len() < 16 {
            return Err(PmemError::bad_image(&source, 0, "image too small"));
        }
        let magic = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        if magic != MAGIC {
            return Err(PmemError::bad_image(
                &source,
                0,
                format!("bad magic {magic:#x}"),
            ));
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        if bytes.len() != 16 + len {
            return Err(PmemError::bad_image(
                &source,
                8,
                format!(
                    "truncated image: expected {} bytes, found {}",
                    16 + len,
                    bytes.len() - 16
                ),
            ));
        }
        config.capacity = len;
        let pool = PmemPool::new(config);
        pool.set_label(&source);
        pool.work.load_from(&bytes[16..]);
        if let Some(d) = &pool.durable {
            d.load_from(&bytes[16..]);
        }
        pool.verify_header()?;
        let cursor = pool.read_u64(16);
        *pool.alloc_cursor.lock() = cursor.max(HEADER_SIZE);
        pool.stats.reset();
        Ok(pool)
    }
}

/// A batch of reads charged to a pool's statistics in one update.
///
/// Each read through the meter copies from the working image and costs
/// exactly what the same call on [`PmemPool::read`] costs — one read op,
/// its bytes, and its cache lines at the medium's read latency; zero-length
/// reads cost nothing — but the three counters (`logical_bytes_read`,
/// `read_ops`, `simulated_ns`) accumulate in the meter and reach the shared
/// [`PmemStats`] atomics only when it is dropped.  Readers that issue many
/// small reads from several threads (a snapshot scanning a chunk of
/// vertices) thus stop contending on the counters, while every figure
/// derived from them stays identical.  Bounds are checked per read, with
/// the same panic as [`PmemPool::read`].
pub struct ReadMeter<'p> {
    pool: &'p PmemPool,
    bytes: u64,
    ops: u64,
    ns: u64,
}

impl ReadMeter<'_> {
    /// Read `dst.len()` bytes starting at `offset` into `dst`.
    pub fn read(&mut self, offset: PmemOffset, dst: &mut [u8]) {
        self.pool.check_bounds(offset, dst.len());
        self.pool.work.read(offset as usize, dst);
        if !dst.is_empty() {
            self.bytes += dst.len() as u64;
            self.ops += 1;
            self.ns += self.pool.read_ns(offset, dst.len());
        }
    }

    /// Read `out.len()` little-endian `u64`s starting at `offset`, charged
    /// as one read (like [`PmemPool::read_u64_slice`]).
    pub fn read_u64_slice(&mut self, offset: PmemOffset, out: &mut [u64]) {
        // SAFETY: any byte pattern is a valid `u64`, and `u8` has no
        // alignment requirement, so the buffer may be filled as bytes.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(
                out.as_mut_ptr().cast::<u8>(),
                std::mem::size_of_val(out),
            )
        };
        self.read(offset, bytes);
        for word in out.iter_mut() {
            *word = u64::from_le(*word);
        }
    }
}

impl Drop for ReadMeter<'_> {
    fn drop(&mut self) {
        if self.ops == 0 {
            return;
        }
        let stats = &self.pool.stats;
        stats
            .logical_bytes_read
            .fetch_add(self.bytes, Ordering::Relaxed);
        stats.read_ops.fetch_add(self.ops, Ordering::Relaxed);
        stats.charge_ns(self.ns);
    }
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("capacity", &self.capacity())
            .field("used", &self.used())
            .field("media", &self.config.media)
            .field("adr", &self.config.adr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CostModel;

    fn test_pool() -> PmemPool {
        PmemPool::new(PmemConfig::small_test())
    }

    #[test]
    fn header_is_initialised() {
        let p = test_pool();
        assert_eq!(p.read_u64(0), MAGIC);
        assert_eq!(p.read_u64(8), p.capacity() as u64);
    }

    #[test]
    fn alloc_respects_alignment_and_bounds() {
        let p = test_pool();
        let a = p.alloc(100, 64).unwrap();
        assert_eq!(a % 64, 0);
        let b = p.alloc(10, 8).unwrap();
        assert!(b >= a + 100);
        assert!(p.alloc(usize::MAX / 2, 8).is_err());
        assert!(p.alloc(8, 3).is_err());
    }

    #[test]
    fn write_read_roundtrip_u32_u64_slices() {
        let p = test_pool();
        let off = p.alloc(1024, 8).unwrap();
        p.write_u32(off, 0xdead_beef);
        assert_eq!(p.read_u32(off), 0xdead_beef);
        p.write_u64(off + 8, u64::MAX - 3);
        assert_eq!(p.read_u64(off + 8), u64::MAX - 3);
        let vals = [1u32, 2, 3, 4, 5];
        p.write_u32_slice(off + 64, &vals);
        let mut out = [0u32; 5];
        p.read_u32_slice(off + 64, &mut out);
        assert_eq!(out, vals);
        let vals64 = [10u64, 20, 30];
        p.write_u64_slice(off + 128, &vals64);
        let mut out64 = [0u64; 3];
        p.read_u64_slice(off + 128, &mut out64);
        assert_eq!(out64, vals64);
    }

    #[test]
    fn unpersisted_writes_are_lost_on_crash() {
        let p = test_pool();
        let off = p.alloc(256, 64).unwrap();
        p.write_u64(off, 111);
        p.persist(off, 8);
        p.write_u64(off + 64, 222); // never flushed
        p.simulate_crash();
        assert_eq!(p.read_u64(off), 111);
        assert_eq!(p.read_u64(off + 64), 0);
    }

    #[test]
    fn flushed_but_unfenced_depends_on_crash_policy() {
        // Pessimistic policy drops flushed-but-unfenced lines.
        let p = test_pool();
        let off = p.alloc(256, 64).unwrap();
        p.write_u64(off, 7);
        p.flush(off, 8); // no fence
        p.simulate_crash_with(CRASH_DROP_FLUSHED);
        assert_eq!(p.read_u64(off), 0);

        // Optimistic policy keeps them.
        let p = test_pool();
        let off = p.alloc(256, 64).unwrap();
        p.write_u64(off, 7);
        p.flush(off, 8);
        p.simulate_crash_with(CRASH_KEEP_FLUSHED);
        assert_eq!(p.read_u64(off), 7);
    }

    #[test]
    fn overwrite_after_persist_reverts_to_persisted_value() {
        let p = test_pool();
        let off = p.alloc(64, 64).unwrap();
        p.write_u32(off, 1);
        p.persist(off, 4);
        p.write_u32(off, 2); // dirty overwrite, not persisted
        assert_eq!(p.read_u32(off), 2);
        p.simulate_crash();
        assert_eq!(p.read_u32(off), 1);
    }

    #[test]
    fn allocator_cursor_survives_crash() {
        let p = test_pool();
        let a = p.alloc(128, 64).unwrap();
        p.simulate_crash();
        let b = p.alloc(128, 64).unwrap();
        assert!(b >= a + 128, "allocation after crash must not overlap");
    }

    #[test]
    fn roots_survive_crash() {
        let p = test_pool();
        let off = p.alloc(64, 8).unwrap();
        p.set_root(RootId::Superblock, off).unwrap();
        p.set_root(RootId::Custom(3), off + 8).unwrap();
        p.simulate_crash();
        assert_eq!(p.root(RootId::Superblock).unwrap(), off);
        assert_eq!(p.root(RootId::Custom(3)).unwrap(), off + 8);
        assert!(p.root(RootId::EdgeLogs).is_err());
    }

    #[test]
    fn write_amplification_reflects_xpline_granularity() {
        let cfg = PmemConfig::small_test();
        let p = PmemPool::new(cfg);
        let off = p.alloc(4096, 256).unwrap();
        let before = p.stats_snapshot();
        // 4-byte writes to scattered XPLines, each persisted individually.
        for i in 0..8u64 {
            p.write_u32(off + i * 256, i as u32);
            p.persist(off + i * 256, 4);
        }
        let d = p.stats_snapshot().delta_since(&before);
        assert_eq!(d.logical_bytes_written, 32);
        // Each 4-byte persist costs a full 256 B XPLine of media traffic.
        assert_eq!(d.media_bytes_written, 8 * 256);
        assert!(d.write_amplification() > 50.0);
    }

    #[test]
    fn inplace_flush_detected() {
        let cfg = PmemConfig::small_test().cost_model(CostModel::default());
        let p = PmemPool::new(cfg);
        let off = p.alloc(64, 64).unwrap();
        let before = p.stats_snapshot();
        // Two flushes of the same line without an intervening fence.
        p.write_u32(off, 1);
        p.flush(off, 4);
        p.write_u32(off + 4, 2);
        p.flush(off + 4, 4);
        let d = p.stats_snapshot().delta_since(&before);
        assert_eq!(d.inplace_flushes, 1);
        // After a fence the same line flushes cleanly again.
        p.fence();
        let before = p.stats_snapshot();
        p.write_u32(off + 8, 3);
        p.flush(off + 8, 4);
        let d = p.stats_snapshot().delta_since(&before);
        assert_eq!(d.inplace_flushes, 0);
    }

    #[test]
    fn sequential_writes_classified_and_cheaper() {
        let cfg = PmemConfig::with_capacity(1 << 20);
        let p = PmemPool::new(cfg);
        let off = p.alloc(64 * 1024, 64).unwrap();
        let before = p.stats_snapshot();
        let buf = [0xabu8; 64];
        for i in 0..128u64 {
            p.write(off + i * 64, &buf);
        }
        let seq = p.stats_snapshot().delta_since(&before);
        assert!(seq.seq_writes >= 127, "seq writes: {}", seq.seq_writes);

        let before = p.stats_snapshot();
        // Strided (random-ish) pattern: never contiguous with previous end.
        for i in 0..128u64 {
            let stride = ((i * 37) % 128) * 128;
            p.write(off + stride, &buf[..32]);
        }
        let rnd = p.stats_snapshot().delta_since(&before);
        assert!(rnd.rand_writes >= 100, "rand writes: {}", rnd.rand_writes);
        // Random writes cost more simulated time per byte.
        let seq_per_byte = seq.simulated_ns as f64 / seq.logical_bytes_written as f64;
        let rnd_per_byte = rnd.simulated_ns as f64 / rnd.logical_bytes_written as f64;
        assert!(rnd_per_byte > seq_per_byte);
    }

    #[test]
    fn eadr_makes_flush_free_and_every_store_durable() {
        let cfg = PmemConfig::small_test().adr_mode(AdrMode::Eadr);
        let p = PmemPool::new(cfg);
        let off = p.alloc(64, 64).unwrap();
        p.write_u64(off, 99);
        let before = p.stats_snapshot();
        p.flush(off, 8);
        let d = p.stats_snapshot().delta_since(&before);
        assert_eq!(d.flushes, 0, "flush should be a no-op under eADR");
        p.fence();
        p.write_u64(off + 8, 100); // not flushed, not fenced
        p.simulate_crash();
        assert_eq!(p.read_u64(off), 99);
        assert_eq!(
            p.read_u64(off + 8),
            100,
            "under eADR every completed store is inside the persistence domain"
        );
    }

    #[test]
    fn dram_pool_has_no_flush_cost() {
        let p = PmemPool::new(PmemConfig::dram_with_capacity(1 << 20));
        let off = p.alloc(1024, 64).unwrap();
        p.write_u64(off, 5);
        let before = p.stats_snapshot();
        p.persist(off, 8);
        let d = p.stats_snapshot().delta_since(&before);
        assert_eq!(d.flushes, 0);
        assert!(!p.is_persistent());
    }

    #[test]
    fn copy_within_moves_data_and_charges_both_sides() {
        let p = test_pool();
        let off = p.alloc(1024, 64).unwrap();
        p.write_u32_slice(off, &[1, 2, 3, 4]);
        let before = p.stats_snapshot();
        p.copy_within(off, off + 512, 16);
        let d = p.stats_snapshot().delta_since(&before);
        assert_eq!(d.logical_bytes_read, 16);
        assert_eq!(d.logical_bytes_written, 16);
        let mut out = [0u32; 4];
        p.read_u32_slice(off + 512, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn memset_clears_region() {
        let p = test_pool();
        let off = p.alloc(256, 64).unwrap();
        p.write_u32_slice(off, &[9; 16]);
        p.memset(off, 0, 64);
        let mut out = [9u32; 16];
        p.read_u32_slice(off, &mut out);
        assert_eq!(out, [0; 16]);
    }

    #[test]
    fn save_and_reopen_file_image() {
        let dir = std::env::temp_dir().join(format!("pmem-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.img");
        let p = test_pool();
        let off = p.alloc(64, 8).unwrap();
        p.write_u64(off, 4242);
        p.persist(off, 8);
        p.set_root(RootId::Superblock, off).unwrap();
        p.save_to_file(&path).unwrap();

        let q = PmemPool::open_file(&path, PmemConfig::small_test()).unwrap();
        let r = q.root(RootId::Superblock).unwrap();
        assert_eq!(r, off);
        assert_eq!(q.read_u64(r), 4242);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_file_rejects_garbage() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pmem-garbage-{}.img", std::process::id()));
        std::fs::write(&path, b"not a pool").unwrap();
        assert!(PmemPool::open_file(&path, PmemConfig::small_test()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_crc_stays_valid_across_alloc_roots_and_crash() {
        let p = test_pool();
        p.verify_header().unwrap();
        let off = p.alloc(256, 64).unwrap();
        p.set_root(RootId::EdgeArray, off).unwrap();
        p.verify_header().unwrap();
        p.simulate_crash();
        p.verify_header().unwrap();
        assert_eq!(p.root(RootId::EdgeArray).unwrap(), off);
    }

    #[test]
    fn bit_flip_in_root_table_is_detected_with_context() {
        let p = test_pool();
        let off = p.alloc(64, 8).unwrap();
        p.set_root(RootId::Superblock, off).unwrap();
        p.set_label("shard-7");
        p.inject_bit_flip(ROOT_TABLE_OFF, 3);
        let err = p.verify_header().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("shard-7"), "{msg}");
        assert!(msg.contains("crc mismatch"), "{msg}");
        assert!(matches!(err, PmemError::BadImage { .. }));
    }

    #[test]
    fn bit_flip_hits_both_images() {
        let p = test_pool();
        let off = p.alloc(64, 64).unwrap();
        p.write_u64(off, 0);
        p.persist(off, 8);
        p.inject_bit_flip(off, 0);
        assert_eq!(p.read_u64(off), 1, "working image flipped");
        p.simulate_crash();
        assert_eq!(p.read_u64(off), 1, "durable image flipped too");
        // Flipping back restores the original value.
        p.inject_bit_flip(off, 0);
        assert_eq!(p.read_u64(off), 0);
    }

    #[test]
    fn torn_line_garbles_a_suffix_durably() {
        let p = test_pool();
        let off = p.alloc(128, 64).unwrap();
        let pattern = [0x5au8; 64];
        p.write(off, &pattern);
        p.persist(off, 64);
        p.inject_torn_line(off + 17, 0xfeed_beef);
        let after = p.read_vec(off, 64);
        assert_ne!(after, pattern.to_vec(), "line must differ after tear");
        p.simulate_crash();
        assert_eq!(p.read_vec(off, 64), after, "tear survives the crash");
    }

    #[test]
    fn open_file_rejects_corrupted_root_table() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pmem-corrupt-{}.img", std::process::id()));
        let p = test_pool();
        let off = p.alloc(64, 8).unwrap();
        p.set_root(RootId::Superblock, off).unwrap();
        p.save_to_file(&path).unwrap();
        // Flip a bit of the first root slot inside the on-disk image
        // (16-byte file header + pool offset).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16 + ROOT_TABLE_OFF as usize] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = PmemPool::open_file(&path, PmemConfig::small_test()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("crc mismatch"), "{msg}");
        assert!(
            msg.contains(&path.display().to_string()),
            "error must name the image file: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let p = test_pool();
        p.write_u64(p.capacity() as u64 - 4, 1);
    }

    #[test]
    fn concurrent_disjoint_writers_persist_correctly() {
        use std::sync::Arc;
        let p = Arc::new(test_pool());
        let off = p.alloc(64 * 64, 64).unwrap();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for i in 0..8u64 {
                    let o = off + t * 8 * 64 + i * 64;
                    p.write_u64(o, t * 100 + i);
                    p.persist(o, 8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        p.simulate_crash();
        for t in 0..8u64 {
            for i in 0..8u64 {
                assert_eq!(p.read_u64(off + t * 8 * 64 + i * 64), t * 100 + i);
            }
        }
    }

    /// Reads relative to one allocation: line-aligned, straddling a line
    /// boundary, zero-length, multi-line, and the last bytes of a line.
    const METER_READS: [(u64, usize); 7] = [
        (0, 8),
        (60, 8),
        (128, 0),
        (200, 300),
        (1000, 16),
        (63, 2),
        (512, 0),
    ];

    fn meter_matches_plain_reads(config: PmemConfig) {
        let plain = PmemPool::new(config.clone());
        let metered = PmemPool::new(config);
        let off = plain.alloc(2048, 64).unwrap();
        assert_eq!(metered.alloc(2048, 64).unwrap(), off);
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 7 + 3) as u8).collect();
        plain.write(off, &data);
        metered.write(off, &data);

        let p0 = plain.stats_snapshot();
        for &(at, len) in &METER_READS {
            plain.read(off + at, &mut vec![0u8; len]);
        }
        let mut words = [0u64; 5];
        plain.read_u64_slice(off + 24, &mut words);
        let want = plain.stats_snapshot().delta_since(&p0);

        let m0 = metered.stats_snapshot();
        {
            let mut meter = metered.read_meter();
            for &(at, len) in &METER_READS {
                let mut buf = vec![0u8; len];
                meter.read(off + at, &mut buf);
                assert_eq!(buf, data[at as usize..at as usize + len]);
            }
            let mut got = [0u64; 5];
            meter.read_u64_slice(off + 24, &mut got);
            assert_eq!(got, words);
            // Nothing reaches the shared counters mid-batch.
            assert_eq!(metered.stats_snapshot(), m0);
        }
        let got = metered.stats_snapshot().delta_since(&m0);
        assert_eq!(got.logical_bytes_read, want.logical_bytes_read);
        assert_eq!(got.read_ops, want.read_ops);
        assert_eq!(got.simulated_ns, want.simulated_ns);
        assert_eq!(want.read_ops, 6, "zero-length reads are free");
        assert!(want.simulated_ns > 0);
    }

    #[test]
    fn read_meter_charges_exactly_what_plain_reads_charge_on_pmem() {
        meter_matches_plain_reads(PmemConfig::with_capacity(1 << 20));
    }

    #[test]
    fn read_meter_charges_exactly_what_plain_reads_charge_on_dram() {
        meter_matches_plain_reads(PmemConfig::dram_with_capacity(1 << 20));
    }

    #[test]
    fn read_meter_panics_like_read_out_of_bounds() {
        fn panic_message(f: impl FnOnce()) -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            err.downcast_ref::<String>()
                .cloned()
                .expect("formatted panic")
        }
        let p = test_pool();
        let end = p.capacity() as u64;
        for (at, len) in [(end - 4, 8usize), (end + 1, 0), (u64::MAX, 1)] {
            let plain = panic_message(|| p.read(at, &mut vec![0u8; len]));
            let metered = panic_message(|| p.read_meter().read(at, &mut vec![0u8; len]));
            assert_eq!(metered, plain);
            assert!(plain.contains("out of bounds"), "{plain}");
        }
    }
}
