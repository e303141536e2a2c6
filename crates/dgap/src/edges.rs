//! The persistent edge array: a section-structured slot region on PM.
//!
//! The edge array stores one 8-byte [`Slot`] per element: pivots, edges,
//! tombstones and gaps.  It is divided into fixed-size *sections* (the PMA
//! segments); each section has an associated per-section edge log
//! ([`crate::elog`]) and a DRAM lock.  The array itself is dumb on purpose:
//! all placement intelligence (density tracking, rebalance planning) lives
//! in the `pma` crate, and the [`crate::graph::Dgap`] orchestrator decides
//! when to move data.

use crate::slot::{Slot, SLOT_BYTES};
use pmem::{PmemOffset, PmemPool, ReadMeter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The section-structured slot region.
pub struct EdgeArray {
    pool: Arc<PmemPool>,
    base: AtomicU64,
    num_segments: AtomicU64,
    segment_size: usize,
}

impl EdgeArray {
    /// Allocate a fresh, zeroed (all-gaps) edge array.
    pub fn new(
        pool: Arc<PmemPool>,
        segment_size: usize,
        num_segments: usize,
    ) -> pmem::Result<Self> {
        let bytes = segment_size * num_segments * SLOT_BYTES;
        let base = pool.alloc(bytes, 64)?;
        pool.memset(base, 0, bytes);
        pool.persist(base, bytes);
        Ok(EdgeArray {
            pool,
            base: AtomicU64::new(base),
            num_segments: AtomicU64::new(num_segments as u64),
            segment_size,
        })
    }

    /// Re-attach to an existing region (pool re-open).
    pub fn attach(
        pool: Arc<PmemPool>,
        base: PmemOffset,
        segment_size: usize,
        num_segments: usize,
    ) -> Self {
        EdgeArray {
            pool,
            base: AtomicU64::new(base),
            num_segments: AtomicU64::new(num_segments as u64),
            segment_size,
        }
    }

    /// Pool this array lives in.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Offset of slot 0 (stored in the layout block).
    pub fn base_offset(&self) -> PmemOffset {
        self.base.load(Ordering::Acquire)
    }

    /// Number of slots per section.
    pub fn segment_size(&self) -> usize {
        self.segment_size
    }

    /// Number of sections.
    pub fn num_segments(&self) -> usize {
        self.num_segments.load(Ordering::Acquire) as usize
    }

    /// Total number of slots.
    pub fn capacity(&self) -> usize {
        self.num_segments() * self.segment_size
    }

    /// Section containing slot `idx`.
    pub fn section_of(&self, idx: u64) -> usize {
        (idx as usize) / self.segment_size
    }

    /// Slot range `[start, end)` of `section`.
    pub fn section_slots(&self, section: usize) -> std::ops::Range<u64> {
        let start = (section * self.segment_size) as u64;
        start..start + self.segment_size as u64
    }

    /// PM offset of slot `idx`.
    pub fn slot_offset(&self, idx: u64) -> PmemOffset {
        self.base_offset() + idx * SLOT_BYTES as u64
    }

    /// Read and decode one slot.
    pub fn read_slot(&self, idx: u64) -> Slot {
        Slot::decode(self.pool.read_u64(self.slot_offset(idx)))
    }

    /// Write one slot (not persisted — callers persist explicitly so they
    /// can batch).
    pub fn write_slot(&self, idx: u64, slot: Slot) {
        self.pool.write_u64(self.slot_offset(idx), slot.encode());
    }

    /// Write one slot and persist it (flush + fence).  This is the
    /// single-edge insert path: one 8-byte store, one flush, one fence.
    pub fn write_slot_persist(&self, idx: u64, slot: Slot) {
        let off = self.slot_offset(idx);
        self.pool.write_u64(off, slot.encode());
        self.pool.persist(off, SLOT_BYTES);
    }

    /// Read `n` raw slot words starting at `start`.
    pub fn read_raw(&self, start: u64, n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        self.pool.read_u64_slice(self.slot_offset(start), &mut out);
        out
    }

    /// Read `out.len()` raw slot words starting at `start` through `meter`.
    pub fn read_raw_metered(&self, meter: &mut ReadMeter<'_>, start: u64, out: &mut [u64]) {
        meter.read_u64_slice(self.slot_offset(start), out);
    }

    /// Encode `slots` into bytes suitable for a bulk region overwrite.
    pub fn encode_raw(slots: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(slots.len() * SLOT_BYTES);
        for s in slots {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        bytes
    }

    /// Bulk-write `slots` starting at slot index `start` and persist the
    /// range (used by initial layout and resize, where no undo protection is
    /// needed because the destination region is not yet live).
    pub fn write_raw_persist(&self, start: u64, slots: &[u64]) {
        if slots.is_empty() {
            return;
        }
        let off = self.slot_offset(start);
        let bytes = Self::encode_raw(slots);
        self.pool.write(off, &bytes);
        self.pool.persist(off, bytes.len());
    }

    /// Allocate a new, zeroed region of `new_num_segments` sections and
    /// return its base offset.  The caller fills it, publishes it via the
    /// layout block and then calls [`EdgeArray::switch_to`].
    pub fn allocate_grown(&self, new_num_segments: usize) -> pmem::Result<PmemOffset> {
        let bytes = self.segment_size * new_num_segments * SLOT_BYTES;
        let base = self.pool.alloc(bytes, 64)?;
        self.pool.memset(base, 0, bytes);
        self.pool.persist(base, bytes);
        Ok(base)
    }

    /// Point this array at a new region (after a resize has been published).
    pub fn switch_to(&self, base: PmemOffset, num_segments: usize) {
        self.base.store(base, Ordering::Release);
        self.num_segments
            .store(num_segments as u64, Ordering::Release);
    }

    /// Scan the whole array, invoking `f(slot_index, slot)` for every
    /// occupied slot.  Used by crash recovery and by resize gathering.
    pub fn scan(&self, f: impl FnMut(u64, Slot)) {
        let cap = self.capacity();
        self.scan_segments(0..self.num_segments(), f);
        debug_assert_eq!(cap, self.capacity());
    }

    /// Scan a contiguous run of sections, invoking `f(slot_index, slot)`
    /// for every occupied slot in slot order.  Parallel crash recovery
    /// hands disjoint section ranges to different pool workers;
    /// [`EdgeArray::scan`] is the whole-array convenience built on top.
    pub fn scan_segments(&self, sections: std::ops::Range<usize>, mut f: impl FnMut(u64, Slot)) {
        // Read section by section to keep buffers modest.
        for section in sections {
            let range = self.section_slots(section);
            let raw = self.read_raw(range.start, self.segment_size);
            for (i, &word) in raw.iter().enumerate() {
                let slot = Slot::decode(word);
                if !slot.is_empty() {
                    f(range.start + i as u64, slot);
                }
            }
        }
    }
}

impl std::fmt::Debug for EdgeArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeArray")
            .field("base", &self.base_offset())
            .field("segments", &self.num_segments())
            .field("segment_size", &self.segment_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemConfig;

    fn array(segment_size: usize, segments: usize) -> (Arc<PmemPool>, EdgeArray) {
        let pool = Arc::new(PmemPool::new(PmemConfig::small_test()));
        let a = EdgeArray::new(Arc::clone(&pool), segment_size, segments).unwrap();
        (pool, a)
    }

    #[test]
    fn fresh_array_is_all_gaps() {
        let (_p, a) = array(16, 4);
        assert_eq!(a.capacity(), 64);
        for i in 0..a.capacity() as u64 {
            assert_eq!(a.read_slot(i), Slot::Empty);
        }
    }

    #[test]
    fn slot_roundtrip_and_sections() {
        let (_p, a) = array(16, 4);
        a.write_slot_persist(0, Slot::Pivot(3));
        a.write_slot_persist(1, Slot::Edge(9));
        a.write_slot_persist(17, Slot::Tombstone(4));
        assert_eq!(a.read_slot(0), Slot::Pivot(3));
        assert_eq!(a.read_slot(1), Slot::Edge(9));
        assert_eq!(a.read_slot(17), Slot::Tombstone(4));
        assert_eq!(a.section_of(17), 1);
        assert_eq!(a.section_slots(1), 16..32);
    }

    #[test]
    fn persisted_slots_survive_crash() {
        let (p, a) = array(16, 4);
        a.write_slot_persist(5, Slot::Edge(42));
        a.write_slot(6, Slot::Edge(43)); // not persisted
        p.simulate_crash();
        assert_eq!(a.read_slot(5), Slot::Edge(42));
        assert_eq!(a.read_slot(6), Slot::Empty);
    }

    #[test]
    fn bulk_write_and_scan() {
        let (_p, a) = array(8, 2);
        let slots: Vec<u64> = vec![
            Slot::Pivot(0).encode(),
            Slot::Edge(1).encode(),
            Slot::Empty.encode(),
            Slot::Pivot(1).encode(),
        ];
        a.write_raw_persist(4, &slots);
        let mut seen = Vec::new();
        a.scan(|idx, s| seen.push((idx, s)));
        assert_eq!(
            seen,
            vec![(4, Slot::Pivot(0)), (5, Slot::Edge(1)), (7, Slot::Pivot(1))]
        );
    }

    #[test]
    fn read_raw_matches_writes() {
        let (_p, a) = array(8, 2);
        a.write_slot_persist(3, Slot::Edge(7));
        let raw = a.read_raw(2, 3);
        assert_eq!(Slot::decode(raw[0]), Slot::Empty);
        assert_eq!(Slot::decode(raw[1]), Slot::Edge(7));
    }

    #[test]
    fn grow_and_switch() {
        let (p, a) = array(8, 2);
        a.write_slot_persist(0, Slot::Pivot(0));
        let new_base = a.allocate_grown(4).unwrap();
        assert_ne!(new_base, a.base_offset());
        // Fill the new region before switching.
        let old_raw = a.read_raw(0, a.capacity());
        let bytes = EdgeArray::encode_raw(&old_raw);
        p.write(new_base, &bytes);
        p.persist(new_base, bytes.len());
        a.switch_to(new_base, 4);
        assert_eq!(a.num_segments(), 4);
        assert_eq!(a.capacity(), 32);
        assert_eq!(a.read_slot(0), Slot::Pivot(0));
        assert_eq!(a.read_slot(20), Slot::Empty);
    }

    #[test]
    fn attach_sees_existing_data() {
        let (p, a) = array(8, 2);
        a.write_slot_persist(9, Slot::Edge(5));
        let base = a.base_offset();
        let b = EdgeArray::attach(Arc::clone(&p), base, 8, 2);
        assert_eq!(b.read_slot(9), Slot::Edge(5));
    }
}
