//! Per-section edge logs.
//!
//! The edge log is DGAP's answer to the write-amplification issue
//! (§2.4.1): when an insertion's natural slot in the edge array is already
//! occupied — which would force a nearby shift of up to a few hundred bytes
//! — the edge is instead *appended* to a small, pre-allocated, per-section
//! log on persistent memory.  Appends are sequential 16-byte writes (12
//! payload bytes plus a CRC32C sealed in the same store), the cheapest
//! thing Optane can do.  When a log approaches capacity (90 % by
//! default) its contents are merged back into the edge array as part of a
//! rebalance.
//!
//! Every entry stores `(source, destination, back-pointer)`.  The
//! back-pointer links all logged edges of the same source vertex newest →
//! oldest; the vertex array's `elog_head` field points at the newest one, so
//! readers can follow the chain and recovery can rebuild the heads by a
//! single forward scan.
//!
//! Entry indices are *global* (`section * entries_per_section + slot`) so
//! that a chain may be followed without knowing which section each entry
//! lives in.  One deviation from the paper (see the README's "DGAP design"
//! section): a vertex's entries are always appended to the log of the
//! section containing its **pivot**, which lets a section merge clear its
//! whole log safely.

use crate::slot::Slot;
use crate::traits::VertexId;
use pmem::{crc32c, PmemOffset, PmemPool, ReadMeter};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes per edge-log entry: source (4), destination (4), back-pointer (4),
/// CRC32C of the first 12 bytes (4).  Entries are 16-byte aligned inside a
/// 64-byte-aligned region, so payload and checksum always share one cache
/// line and persist atomically.
pub const ELOG_ENTRY_BYTES: usize = 16;

/// Bytes of an entry covered by its trailing CRC32C.
const ELOG_PAYLOAD_BYTES: usize = 12;

/// One decoded edge-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElogEntry {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// `true` when this record is a tombstone (deletion marker).
    pub tombstone: bool,
    /// Global index of the previous entry for the same source, or
    /// [`crate::vertex::NO_ELOG`].
    pub prev: u32,
}

impl ElogEntry {
    /// The edge-array record this entry stands for.
    pub fn slot(&self) -> Slot {
        if self.tombstone {
            Slot::Tombstone(self.dst)
        } else {
            Slot::Edge(self.dst)
        }
    }

    /// Decode an on-PM entry; `None` for an empty slot.
    fn decode(bytes: &[u8; ELOG_ENTRY_BYTES]) -> Option<ElogEntry> {
        let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        let src_word = word(0);
        if src_word == 0 {
            return None;
        }
        let dst_word = word(4);
        Some(ElogEntry {
            src: u64::from((src_word & ID_MASK) - 1),
            dst: u64::from((dst_word & ID_MASK) - 1),
            tombstone: dst_word & TOMB_BIT != 0,
            prev: word(8),
        })
    }
}

/// Error returned when a section's log is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElogFull {
    /// The section whose log is full.
    pub section: usize,
}

/// Aggregate statistics used by the Fig. 9 evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElogStats {
    /// Total appends ever performed.
    pub appends: u64,
    /// Number of section merges (log cleared back into the edge array).
    pub merges: u64,
    /// Highest entry count any section reached before a merge.
    pub high_watermark: u64,
}

const TOMB_BIT: u32 = 1 << 31;
const ID_MASK: u32 = TOMB_BIT - 1;

/// The collection of per-section edge logs backing one DGAP instance.
pub struct EdgeLogs {
    pool: Arc<PmemPool>,
    /// Offset of section 0's log; logs are laid out contiguously.
    base: AtomicU64,
    /// Entries each section's log can hold.
    entries_per_section: usize,
    /// Number of sections (grows on resize).
    num_sections: AtomicU64,
    /// DRAM-side used counters, one per section.
    used: parking_lot::RwLock<Vec<AtomicU32>>,
    appends: AtomicU64,
    merges: AtomicU64,
    high_watermark: AtomicU64,
}

impl EdgeLogs {
    /// Allocate logs for `num_sections` sections, each `elog_size` bytes.
    pub fn new(pool: Arc<PmemPool>, num_sections: usize, elog_size: usize) -> pmem::Result<Self> {
        let entries_per_section = (elog_size / ELOG_ENTRY_BYTES).max(1);
        let base = Self::allocate_region(&pool, num_sections, entries_per_section)?;
        Ok(EdgeLogs {
            pool,
            base: AtomicU64::new(base),
            entries_per_section,
            num_sections: AtomicU64::new(num_sections as u64),
            used: parking_lot::RwLock::new((0..num_sections).map(|_| AtomicU32::new(0)).collect()),
            appends: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            high_watermark: AtomicU64::new(0),
        })
    }

    /// Re-attach to an existing log region (pool re-open).  Used counters are
    /// rebuilt by [`EdgeLogs::rebuild_used_counters`] / a recovery scan.
    pub fn attach(
        pool: Arc<PmemPool>,
        base: PmemOffset,
        num_sections: usize,
        elog_size: usize,
    ) -> Self {
        let entries_per_section = (elog_size / ELOG_ENTRY_BYTES).max(1);
        EdgeLogs {
            pool,
            base: AtomicU64::new(base),
            entries_per_section,
            num_sections: AtomicU64::new(num_sections as u64),
            used: parking_lot::RwLock::new((0..num_sections).map(|_| AtomicU32::new(0)).collect()),
            appends: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            high_watermark: AtomicU64::new(0),
        }
    }

    fn allocate_region(
        pool: &PmemPool,
        num_sections: usize,
        entries_per_section: usize,
    ) -> pmem::Result<PmemOffset> {
        let bytes = num_sections * entries_per_section * ELOG_ENTRY_BYTES;
        let off = pool.alloc(bytes.max(ELOG_ENTRY_BYTES), 64)?;
        // Zero-fill so that "first zero source" marks the end of each log.
        pool.memset(off, 0, bytes.max(ELOG_ENTRY_BYTES));
        pool.persist(off, bytes.max(ELOG_ENTRY_BYTES));
        Ok(off)
    }

    /// Offset of the log region (stored in the superblock).
    pub fn base_offset(&self) -> PmemOffset {
        self.base.load(Ordering::Acquire)
    }

    /// Entries one section's log can hold.
    pub fn entries_per_section(&self) -> usize {
        self.entries_per_section
    }

    /// Number of sections currently covered.
    pub fn num_sections(&self) -> usize {
        self.num_sections.load(Ordering::Acquire) as usize
    }

    /// Total bytes of persistent memory dedicated to the logs (Fig. 9's bar
    /// heights).
    pub fn total_bytes(&self) -> usize {
        self.num_sections() * self.entries_per_section * ELOG_ENTRY_BYTES
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ElogStats {
        ElogStats {
            appends: self.appends.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            high_watermark: self.high_watermark.load(Ordering::Relaxed),
        }
    }

    /// Number of live entries in `section`'s log.
    pub fn used(&self, section: usize) -> usize {
        self.used.read()[section].load(Ordering::Acquire) as usize
    }

    /// Utilisation of `section`'s log in `[0, 1]`.
    pub fn utilization(&self, section: usize) -> f64 {
        self.used(section) as f64 / self.entries_per_section as f64
    }

    fn entry_offset(&self, global_idx: u32) -> PmemOffset {
        self.base.load(Ordering::Acquire) + (global_idx as u64) * ELOG_ENTRY_BYTES as u64
    }

    /// Append an entry to `section`'s log.  Returns the new entry's global
    /// index, or [`ElogFull`] when the log has no room left.
    ///
    /// The entry is persisted before the call returns, making the logged
    /// edge durable (this is the cheap path that replaces nearby shifts).
    pub fn append(
        &self,
        section: usize,
        src: VertexId,
        dst: VertexId,
        tombstone: bool,
        prev: u32,
    ) -> Result<u32, ElogFull> {
        let used_guard = self.used.read();
        let counter = &used_guard[section];
        let slot = counter.load(Ordering::Acquire);
        if slot as usize >= self.entries_per_section {
            return Err(ElogFull { section });
        }
        let global = (section * self.entries_per_section) as u32 + slot;
        let off = self.entry_offset(global);
        let mut buf = [0u8; ELOG_ENTRY_BYTES];
        let src_word = (src as u32 + 1) & ID_MASK;
        let mut dst_word = (dst as u32 + 1) & ID_MASK;
        if tombstone {
            dst_word |= TOMB_BIT;
        }
        buf[0..4].copy_from_slice(&src_word.to_le_bytes());
        buf[4..8].copy_from_slice(&dst_word.to_le_bytes());
        buf[8..12].copy_from_slice(&prev.to_le_bytes());
        let crc = crc32c(&buf[..ELOG_PAYLOAD_BYTES]);
        buf[12..16].copy_from_slice(&crc.to_le_bytes());
        self.pool.write(off, &buf);
        self.pool.persist(off, ELOG_ENTRY_BYTES);
        counter.store(slot + 1, Ordering::Release);
        drop(used_guard);
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.high_watermark
            .fetch_max(u64::from(slot) + 1, Ordering::Relaxed);
        Ok(global)
    }

    /// Read the entry at `global_idx`.  Returns `None` for an empty slot.
    pub fn entry(&self, global_idx: u32) -> Option<ElogEntry> {
        let mut bytes = [0u8; ELOG_ENTRY_BYTES];
        self.pool.read(self.entry_offset(global_idx), &mut bytes);
        ElogEntry::decode(&bytes)
    }

    /// Collect the chain of entries for one vertex starting at `head`,
    /// oldest first (the order they were inserted).
    pub fn chain_oldest_first(&self, head: u32) -> Vec<ElogEntry> {
        let mut out = Vec::new();
        self.read_chain(&mut self.pool.read_meter(), head, &mut out);
        out
    }

    /// Append the chain starting at `head` to `out`, oldest first, reading
    /// every entry through `meter` (one 16-byte read each, plus the empty
    /// slot that ends a chain cut short).
    pub fn read_chain(&self, meter: &mut ReadMeter<'_>, head: u32, out: &mut Vec<ElogEntry>) {
        let from = out.len();
        let mut cur = head;
        while cur != crate::vertex::NO_ELOG {
            let mut bytes = [0u8; ELOG_ENTRY_BYTES];
            meter.read(self.entry_offset(cur), &mut bytes);
            match ElogEntry::decode(&bytes) {
                Some(e) => {
                    cur = e.prev;
                    out.push(e);
                }
                None => break,
            }
        }
        out[from..].reverse();
    }

    /// Clear `section`'s log after its contents were merged into the edge
    /// array.  The region is zeroed and persisted so a post-crash scan never
    /// sees stale entries.
    pub fn clear(&self, section: usize) {
        let bytes = self.entries_per_section * ELOG_ENTRY_BYTES;
        let off = self.entry_offset((section * self.entries_per_section) as u32);
        self.pool.memset(off, 0, bytes);
        self.pool.persist(off, bytes);
        self.used.read()[section].store(0, Ordering::Release);
        self.merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Grow to `new_num_sections` sections by allocating a fresh (empty)
    /// region.  Called during an edge-array resize, which merges every log
    /// into the new array anyway, so no old entries need to be carried over.
    /// Returns the new region's base offset for the superblock.
    pub fn grow(&self, new_num_sections: usize) -> pmem::Result<PmemOffset> {
        let base = Self::allocate_region(&self.pool, new_num_sections, self.entries_per_section)?;
        let mut used = self.used.write();
        *used = (0..new_num_sections).map(|_| AtomicU32::new(0)).collect();
        self.base.store(base, Ordering::Release);
        self.num_sections
            .store(new_num_sections as u64, Ordering::Release);
        Ok(base)
    }

    /// Scan every section's log (stopping at the first empty slot in each)
    /// and invoke `f` with `(section, global_index, entry)`.  Also rebuilds
    /// the DRAM used counters.  This is the crash-recovery path.
    pub fn scan_all(&self, mut f: impl FnMut(usize, u32, ElogEntry)) {
        for section in 0..self.num_sections() {
            self.scan_section(section, |global, e| f(section, global, e));
        }
    }

    /// Scan one section's log in append order (stopping at its first empty
    /// slot), invoking `f(global_index, entry)`, and store the rebuilt DRAM
    /// used counter for that section.  Returns the live entry count.
    /// Sections are independent regions, so the parallel crash-recovery
    /// path scans them concurrently.
    pub fn scan_section(&self, section: usize, mut f: impl FnMut(u32, ElogEntry)) -> u32 {
        let mut count = 0u32;
        for slot in 0..self.entries_per_section {
            let global = (section * self.entries_per_section + slot) as u32;
            match self.entry(global) {
                Some(e) => {
                    count += 1;
                    f(global, e);
                }
                None => break,
            }
        }
        self.used.read()[section].store(count, Ordering::Release);
        count
    }

    /// Rebuild the DRAM used counters without reporting entries.
    pub fn rebuild_used_counters(&self) {
        self.scan_all(|_, _, _| {});
    }

    /// CRC-sweep one section's log.  Returns the first fault found, if any.
    ///
    /// Entries are prefix-contiguous (appends fill forward, `clear` zeroes
    /// the whole section), so the sweep distinguishes:
    ///
    /// * a live entry with a bad checksum or a zeroed source word — data
    ///   loss, **not** repairable;
    /// * a structurally valid entry after the first empty slot — a gap in
    ///   the live prefix, meaning an earlier entry was wiped: also fatal;
    /// * non-zero garbage past the first empty slot that does not verify
    ///   as an entry — cannot be a record the log ever wrote, so it is
    ///   **repairable** by re-zeroing the tail ([`EdgeLogs::zero_tail`]).
    pub fn verify_section(&self, section: usize) -> Result<(), ElogFault> {
        let mut in_tail = false;
        for slot in 0..self.entries_per_section {
            let global = (section * self.entries_per_section + slot) as u32;
            let offset = self.entry_offset(global);
            let bytes = self.pool.read_vec(offset, ELOG_ENTRY_BYTES);
            if bytes.iter().all(|&b| b == 0) {
                in_tail = true;
                continue;
            }
            let src_word = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let stored = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
            let actual = crc32c(&bytes[..ELOG_PAYLOAD_BYTES]);
            let looks_valid = src_word != 0 && stored == actual;
            let fault = |detail: String, repairable: bool| ElogFault {
                section,
                global,
                offset,
                detail,
                repairable,
            };
            match (in_tail, looks_valid) {
                (false, true) => {}
                (false, false) => {
                    return Err(fault(
                        if src_word == 0 {
                            "live entry with zeroed source word".to_string()
                        } else {
                            format!(
                                "entry crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
                            )
                        },
                        false,
                    ));
                }
                (true, true) => {
                    return Err(fault("live entry after an empty slot".to_string(), false));
                }
                (true, false) => {
                    return Err(fault("garbage past the log tail".to_string(), true));
                }
            }
        }
        Ok(())
    }

    /// Re-zero `section`'s log from `from_global` to the end of the section
    /// — the repair for tail garbage reported by
    /// [`EdgeLogs::verify_section`].
    pub fn zero_tail(&self, section: usize, from_global: u32) {
        let end = ((section + 1) * self.entries_per_section) as u32;
        debug_assert!(from_global < end);
        let offset = self.entry_offset(from_global);
        let bytes = (end - from_global) as usize * ELOG_ENTRY_BYTES;
        self.pool.memset(offset, 0, bytes);
        self.pool.persist(offset, bytes);
    }
}

/// A fault found by [`EdgeLogs::verify_section`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElogFault {
    /// Section whose log failed verification.
    pub section: usize,
    /// Global index of the failing slot.
    pub global: u32,
    /// Pool byte offset of the failing slot.
    pub offset: PmemOffset,
    /// What exactly failed.
    pub detail: String,
    /// Whether [`EdgeLogs::zero_tail`] can repair it without data loss.
    pub repairable: bool,
}

impl std::fmt::Debug for EdgeLogs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeLogs")
            .field("sections", &self.num_sections())
            .field("entries_per_section", &self.entries_per_section)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::NO_ELOG;
    use pmem::PmemConfig;

    fn logs(sections: usize, elog_size: usize) -> (Arc<PmemPool>, EdgeLogs) {
        let pool = Arc::new(PmemPool::new(PmemConfig::small_test()));
        let l = EdgeLogs::new(Arc::clone(&pool), sections, elog_size).unwrap();
        (pool, l)
    }

    #[test]
    fn append_and_read_back() {
        let (_p, l) = logs(2, 256);
        let i0 = l.append(0, 5, 9, false, NO_ELOG).unwrap();
        let i1 = l.append(0, 5, 11, false, i0).unwrap();
        let i2 = l.append(1, 7, 1, true, NO_ELOG).unwrap();
        assert_eq!(l.used(0), 2);
        assert_eq!(l.used(1), 1);
        let e = l.entry(i1).unwrap();
        assert_eq!(e.src, 5);
        assert_eq!(e.dst, 11);
        assert_eq!(e.prev, i0);
        assert!(!e.tombstone);
        assert!(l.entry(i2).unwrap().tombstone);
    }

    #[test]
    fn vertex_zero_is_representable() {
        let (_p, l) = logs(1, 256);
        let i = l.append(0, 0, 0, false, NO_ELOG).unwrap();
        let e = l.entry(i).unwrap();
        assert_eq!(e.src, 0);
        assert_eq!(e.dst, 0);
    }

    #[test]
    fn chain_returns_insertion_order() {
        let (_p, l) = logs(1, 512);
        let mut head = NO_ELOG;
        for dst in [3u64, 1, 4, 1, 5] {
            head = l.append(0, 2, dst, false, head).unwrap();
        }
        let chain = l.chain_oldest_first(head);
        let dsts: Vec<u64> = chain.iter().map(|e| e.dst).collect();
        assert_eq!(dsts, vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn full_log_is_reported() {
        let (_p, l) = logs(1, ELOG_ENTRY_BYTES * 3);
        assert_eq!(l.entries_per_section(), 3);
        for dst in 0..3u64 {
            l.append(0, 1, dst, false, NO_ELOG).unwrap();
        }
        assert_eq!(
            l.append(0, 1, 9, false, NO_ELOG),
            Err(ElogFull { section: 0 })
        );
        assert!((l.utilization(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_and_zeroes() {
        let (_p, l) = logs(2, 256);
        for dst in 0..5u64 {
            l.append(1, 2, dst, false, NO_ELOG).unwrap();
        }
        l.clear(1);
        assert_eq!(l.used(1), 0);
        assert_eq!(l.stats().merges, 1);
        // The first entry slot of section 1 must read as empty again.
        let global = (l.entries_per_section()) as u32;
        assert!(l.entry(global).is_none());
        // Section 0 untouched.
        l.append(0, 3, 3, false, NO_ELOG).unwrap();
        assert_eq!(l.used(0), 1);
    }

    #[test]
    fn scan_all_recovers_counts_and_entries() {
        let (pool, l) = logs(3, 256);
        let base = l.base_offset();
        l.append(0, 1, 10, false, NO_ELOG).unwrap();
        l.append(0, 1, 11, false, 0).unwrap();
        l.append(2, 4, 12, true, NO_ELOG).unwrap();

        // Simulate crash + reattach: counters are lost, PM content survives.
        pool.simulate_crash();
        let l2 = EdgeLogs::attach(Arc::clone(&pool), base, 3, 256);
        assert_eq!(l2.used(0), 0, "fresh attach starts with unknown counters");
        let mut seen = Vec::new();
        l2.scan_all(|sec, idx, e| seen.push((sec, idx, e.src, e.dst, e.tombstone)));
        assert_eq!(l2.used(0), 2);
        assert_eq!(l2.used(1), 0);
        assert_eq!(l2.used(2), 1);
        assert_eq!(seen.len(), 3);
        assert!(seen.contains(&(2, (2 * l2.entries_per_section()) as u32, 4, 12, true)));
    }

    #[test]
    fn appends_are_durable_without_extra_flush() {
        let (pool, l) = logs(1, 256);
        let base = l.base_offset();
        l.append(0, 6, 60, false, NO_ELOG).unwrap();
        pool.simulate_crash();
        let l2 = EdgeLogs::attach(pool, base, 1, 256);
        assert_eq!(l2.entry(0).unwrap().dst, 60);
    }

    #[test]
    fn grow_provides_fresh_empty_logs() {
        let (_p, l) = logs(2, 256);
        l.append(0, 1, 2, false, NO_ELOG).unwrap();
        let new_base = l.grow(8).unwrap();
        assert_eq!(l.base_offset(), new_base);
        assert_eq!(l.num_sections(), 8);
        for s in 0..8 {
            assert_eq!(l.used(s), 0);
        }
    }

    #[test]
    fn verify_passes_on_clean_and_empty_sections() {
        let (_p, l) = logs(2, 256);
        for dst in 0..5u64 {
            l.append(0, 1, dst, false, NO_ELOG).unwrap();
        }
        l.verify_section(0).unwrap();
        l.verify_section(1).unwrap();
    }

    #[test]
    fn verify_detects_flipped_live_entry_as_fatal() {
        let (pool, l) = logs(1, 256);
        l.append(0, 3, 7, false, NO_ELOG).unwrap();
        pool.inject_bit_flip(l.base_offset() + 5, 1);
        let fault = l.verify_section(0).unwrap_err();
        assert!(!fault.repairable);
        assert!(fault.detail.contains("crc mismatch"), "{}", fault.detail);
        assert_eq!(fault.offset, l.base_offset());
    }

    #[test]
    fn verify_repairs_tail_garbage() {
        let (pool, l) = logs(1, 256);
        l.append(0, 3, 7, false, NO_ELOG).unwrap();
        // One flipped bit well past the live prefix.
        let tail_off = l.base_offset() + (5 * ELOG_ENTRY_BYTES) as u64 + 3;
        pool.inject_bit_flip(tail_off, 6);
        let fault = l.verify_section(0).unwrap_err();
        assert!(fault.repairable, "{}", fault.detail);
        l.zero_tail(0, fault.global);
        l.verify_section(0).unwrap();
        // The live entry is untouched by the repair.
        assert_eq!(l.entry(0).unwrap().dst, 7);
    }

    #[test]
    fn stats_track_high_watermark() {
        let (_p, l) = logs(1, 256);
        for dst in 0..7u64 {
            l.append(0, 1, dst, false, NO_ELOG).unwrap();
        }
        let s = l.stats();
        assert_eq!(s.appends, 7);
        assert_eq!(s.high_watermark, 7);
    }
}
