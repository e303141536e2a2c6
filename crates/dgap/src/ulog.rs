//! Per-thread undo logs for crash-consistent rebalancing.
//!
//! PMA rebalancing rewrites windows of the edge array.  Protecting those
//! writes with PMDK-style transactions is expensive (journal allocation +
//! per-range ordering, §2.4.2), so DGAP gives every writer thread its own
//! pre-allocated undo-log region on PM and uses it as a lightweight
//! write-ahead backup.
//!
//! The rebalancer already read the window while planning it, under the
//! window's section locks, so it hands [`UndoLog::protected_overwrite`]
//! both images of the *changed span* only — from the first slot whose word
//! differs to the last — and the log never reads PM itself:
//!
//! 1. a descriptor (span offset, span length, backup location) is written
//!    and persisted,
//! 2. the caller's old bytes are copied into the backup area in
//!    `chunk`-sized pieces, each flushed as it is written, then fenced,
//! 3. the log is *armed*: state and the backup's CRC are persisted together
//!    — from this point the old contents are recoverable,
//! 4. the new bytes are written over the span (again in flushed chunks,
//!    then one fence),
//! 5. the log is disarmed — or, when the caller has a follow-up, *committed*
//!    with the caller's tag; the caller disarms it after the follow-up.
//!
//! If a crash happens before step 3 the edge array was never touched; if it
//! happens between steps 3 and 5 recovery copies the backup over the span,
//! returning the window to its pre-rebalance state (slots outside the span
//! were never written), after which the rebalance is simply re-issued.  A
//! crash after a commit keeps the new image and lets the caller redo the
//! follow-up: DGAP's is clearing the edge logs the rebalance merged, which
//! must not survive next to their merged copies, nor be cleared while the
//! span can still roll back.  Header CRCs are computed from a DRAM copy of
//! the header words, so the whole protocol charges no PM read.
//!
//! The backup normally lives in the data area that follows the header.  A
//! span larger than that area goes to the log's *spill region*: allocated
//! on first need, rounded up to a power of two, reused by every later
//! spilled span that fits, and replaced by a larger one only when a bigger
//! span arrives.  The header records the spill offset for the span it
//! protects, so recovery finds the backup without knowing the region's
//! size.  A log re-attached after a restart starts without a spill region
//! (the old one is not reclaimed: the pool is a bump allocator).
//!
//! Compared to the paper's prototype — which keeps only the in-flight
//! ≤2 KiB chunk and relies on the move order to make partially rebalanced
//! windows recoverable — backing up the whole changed span is slightly more
//! conservative; the README's "DGAP design" section discusses the
//! substitution.  The cost profile the ablation measures is preserved: no
//! per-transaction journal allocation and one ordering point per protocol
//! step rather than PMDK's per-range fences.

use pmem::{crc32c, Crc32c, PmemOffset, PmemPool, Result as PmemResult};
use std::sync::Arc;

/// Header layout (all little-endian `u64`):
/// `[0]` state ([`DISARMED`], [`ARMED`] or [`COMMITTED`]), `[8]` span
/// offset, `[16]` span length (a committed log keeps the caller's
/// follow-up tag in these two words instead),
/// `[24]` spill offset (0 = backup inline), `[32]` CRC32C of the backup
/// data, `[40]` CRC32C of header bytes `0..40`.  The header occupies one
/// 64-byte-aligned cache line, so every update (fields + re-sealed CRC)
/// persists with a single flush and fence — a crash keeps or loses them
/// together.
const HDR_VALID: u64 = 0;
const HDR_WINDOW_OFF: u64 = 8;
const HDR_WINDOW_LEN: u64 = 16;
const HDR_USED: u64 = 24;
const HDR_DATA_CRC: u64 = 32;
const HDR_CRC: u64 = 40;
const HDR_SIZE: u64 = 64;

/// No overwrite in flight.
const DISARMED: u64 = 0;
/// The backup is complete and the span may be partly overwritten: recovery
/// rolls the span back.
const ARMED: u64 = 1;
/// The new image is complete and durable, and the caller's follow-up,
/// identified by the tag in the span words, is pending: recovery keeps the
/// new image and redoes the follow-up.
const COMMITTED: u64 = 2;

/// A single writer thread's undo log.
pub struct UndoLog {
    pool: Arc<PmemPool>,
    /// Offset of the header; the data area follows immediately.
    region: PmemOffset,
    /// Capacity of the data area in bytes.
    capacity: usize,
    /// Chunk size used when persisting backups and new contents (the
    /// paper's `ULOG_SZ`).
    chunk: usize,
    /// DRAM copy of the CRC-covered header words (`0..HDR_CRC`), so sealing
    /// the header never reads PM.
    hdr: [u64; (HDR_CRC / 8) as usize],
    /// Reusable backup area for spans larger than `capacity`:
    /// `(offset, bytes)`, allocated on first need.
    spill: Option<(PmemOffset, usize)>,
}

impl UndoLog {
    /// Allocate an undo log whose data area holds at least `capacity` bytes
    /// and which persists in `chunk`-byte steps.
    pub fn new(pool: Arc<PmemPool>, capacity: usize, chunk: usize) -> PmemResult<Self> {
        let capacity = capacity.max(chunk).max(64);
        let region = pool.alloc_zeroed(HDR_SIZE as usize + capacity, 64)?;
        let mut log = UndoLog {
            pool,
            region,
            capacity,
            chunk: chunk.max(64),
            hdr: [0; (HDR_CRC / 8) as usize],
            spill: None,
        };
        log.update_header(&[]); // seal the CRC of the zeroed header
        Ok(log)
    }

    /// Re-attach to an undo log written by a previous session.
    pub fn attach(pool: Arc<PmemPool>, region: PmemOffset, capacity: usize, chunk: usize) -> Self {
        let mut hdr = [0u64; (HDR_CRC / 8) as usize];
        pool.read_u64_slice(region, &mut hdr);
        UndoLog {
            pool,
            region,
            capacity: capacity.max(64),
            chunk: chunk.max(64),
            hdr,
            spill: None,
        }
    }

    /// Offset of the log region (recorded in the superblock so recovery can
    /// find it).
    pub fn region_offset(&self) -> PmemOffset {
        self.region
    }

    /// The CRC-sealed header region as `(offset, len)` — what the integrity
    /// pass covers and the fault injector may target.
    pub fn header_region(&self) -> (PmemOffset, u64) {
        (self.region, HDR_SIZE)
    }

    /// Capacity of the data area in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` if the log currently protects an interrupted rebalance.
    pub fn needs_recovery(&self) -> bool {
        self.pool.read_u64(self.region + HDR_VALID) == ARMED
    }

    /// The follow-up tag of a committed overwrite whose follow-up has not
    /// been confirmed by [`UndoLog::disarm`] (see
    /// [`UndoLog::protected_overwrite`]).
    pub fn pending_follow_up(&self) -> Option<(u64, u64)> {
        if self.pool.read_u64(self.region + HDR_VALID) != COMMITTED {
            return None;
        }
        Some((
            self.pool.read_u64(self.region + HDR_WINDOW_OFF),
            self.pool.read_u64(self.region + HDR_WINDOW_LEN),
        ))
    }

    /// Confirm a committed overwrite's follow-up: the log is disarmed.
    pub fn disarm(&mut self) {
        self.update_header(&[(HDR_VALID, DISARMED)]);
    }

    /// Write header `fields`, re-seal the header CRC over the DRAM copy and
    /// persist the whole header line in one flush + fence.
    fn update_header(&mut self, fields: &[(u64, u64)]) {
        for &(f, v) in fields {
            self.pool.write_u64(self.region + f, v);
            self.hdr[(f / 8) as usize] = v;
        }
        let mut bytes = [0u8; HDR_CRC as usize];
        for (dst, w) in bytes.chunks_exact_mut(8).zip(self.hdr) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        self.pool
            .write_u64(self.region + HDR_CRC, u64::from(crc32c(&bytes)));
        self.pool.persist(self.region, (HDR_CRC + 8) as usize);
    }

    /// Where the backup of the span the header describes lives: the spill
    /// region recorded in `HDR_USED`, or the inline data area.
    fn backup_offset(&self) -> PmemOffset {
        match self.pool.read_u64(self.region + HDR_USED) {
            0 => self.region + HDR_SIZE,
            spill => spill,
        }
    }

    /// Check the header against its stored CRC.
    pub fn verify_header(&self) -> Result<(), String> {
        let stored = self.pool.read_u64(self.region + HDR_CRC) as u32;
        let actual = crc32c(&self.pool.read_vec(self.region, HDR_CRC as usize));
        if stored != actual {
            return Err(format!(
                "undo-log header crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
            ));
        }
        Ok(())
    }

    /// For an armed log, check the backed-up span data against the CRC
    /// sealed when the log was armed.  Disarmed logs trivially pass (their
    /// data area is never read).
    pub fn verify_armed_data(&self) -> Result<(), String> {
        if !self.needs_recovery() {
            return Ok(());
        }
        let len = self.pool.read_u64(self.region + HDR_WINDOW_LEN) as usize;
        let backup_off = self.backup_offset();
        let mut h = Crc32c::new();
        let mut done = 0usize;
        while done < len {
            let n = self.chunk.min(len - done);
            h.update(&self.pool.read_vec(backup_off + done as u64, n));
            done += n;
        }
        let stored = self.pool.read_u64(self.region + HDR_DATA_CRC) as u32;
        let actual = h.finish();
        if stored != actual {
            return Err(format!(
                "undo-log backup data crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
            ));
        }
        Ok(())
    }

    /// Rewrite a clean, disarmed header — the repair for a corrupt header
    /// found after a *graceful* shutdown, where the log is known to have
    /// been disarmed (shutdown cannot complete mid-rebalance).
    pub fn reinit_header(&mut self) {
        self.update_header(&[
            (HDR_VALID, DISARMED),
            (HDR_WINDOW_OFF, 0),
            (HDR_WINDOW_LEN, 0),
            (HDR_USED, 0),
            (HDR_DATA_CRC, 0),
        ]);
    }

    /// The backup area for a `len`-byte span: the inline data area when it
    /// fits, else the spill region, (re)allocated at the next power of two
    /// only when the current one is too small.
    fn backup_area(&mut self, len: usize) -> PmemResult<(PmemOffset, bool)> {
        if len <= self.capacity {
            return Ok((self.region + HDR_SIZE, false));
        }
        match self.spill {
            Some((off, cap)) if cap >= len => Ok((off, true)),
            _ => {
                let cap = len.next_power_of_two();
                let off = self.pool.alloc(cap, 64)?;
                self.spill = Some((off, cap));
                Ok((off, true))
            }
        }
    }

    /// Overwrite `[span_off, span_off + new.len())` of the pool with `new`,
    /// crash-consistently.  `old` must be the span's current contents: the
    /// caller read them while planning and still holds the locks that keep
    /// them stable, so the log backs them up without reading PM.
    ///
    /// With a `follow_up` tag the log ends *committed* instead of disarmed:
    /// the caller then performs its follow-up (DGAP clears the merged edge
    /// logs) and calls [`UndoLog::disarm`].  A crash in between leaves the
    /// tag in [`UndoLog::pending_follow_up`], so recovery keeps the new
    /// image and redoes the follow-up.
    ///
    /// A span larger than the data area is backed up in the log's reusable
    /// spill region (see the [module docs](self)), so the call never
    /// silently loses protection.
    pub fn protected_overwrite(
        &mut self,
        span_off: PmemOffset,
        new: &[u8],
        old: &[u8],
        follow_up: Option<(u64, u64)>,
    ) -> PmemResult<()> {
        assert_eq!(new.len(), old.len(), "old and new images differ in length");
        let len = new.len();
        if len == 0 {
            return Ok(());
        }
        let (backup_off, spilled) = self.backup_area(len)?;

        // 1. Descriptor first (not yet valid).
        self.update_header(&[
            (HDR_WINDOW_OFF, span_off),
            (HDR_WINDOW_LEN, len as u64),
            (HDR_USED, if spilled { backup_off } else { 0 }),
        ]);

        // 2. Back up the old contents chunk by chunk, accumulating the
        // backup CRC as each chunk is written.
        let mut data_crc = Crc32c::new();
        self.write_chunked(backup_off, old, |chunk| data_crc.update(chunk));

        // 3. Arm the log: valid flag, backup-data CRC and re-sealed header
        // CRC land in one header-line flush + fence.
        self.update_header(&[
            (HDR_DATA_CRC, u64::from(data_crc.finish())),
            (HDR_VALID, ARMED),
        ]);

        // 4. Write the new contents chunk by chunk.
        self.write_chunked(span_off, new, |_| {});

        // 5. Disarm, or commit with the follow-up tag.
        match follow_up {
            None => self.update_header(&[(HDR_VALID, DISARMED)]),
            Some((a, b)) => self.update_header(&[
                (HDR_WINDOW_OFF, a),
                (HDR_WINDOW_LEN, b),
                (HDR_VALID, COMMITTED),
            ]),
        }
        Ok(())
    }

    /// Write `data` at `off` in `chunk`-sized pieces, flushing each piece as
    /// it is written (and passing it to `each`), then fence once.
    fn write_chunked(&self, off: PmemOffset, data: &[u8], mut each: impl FnMut(&[u8])) {
        for (i, piece) in data.chunks(self.chunk).enumerate() {
            let at = off + (i * self.chunk) as u64;
            each(piece);
            self.pool.write(at, piece);
            self.pool.flush(at, piece.len());
        }
        self.pool.fence();
    }

    /// Roll back an interrupted rebalance, restoring the protected span to
    /// its pre-rebalance contents.  Returns the `(span_offset, length)`
    /// that was restored, or `None` if the log was not armed.
    pub fn recover(&mut self) -> Option<(PmemOffset, usize)> {
        if !self.needs_recovery() {
            return None;
        }
        let span_off = self.pool.read_u64(self.region + HDR_WINDOW_OFF);
        let len = self.pool.read_u64(self.region + HDR_WINDOW_LEN) as usize;
        let backup = self.pool.read_vec(self.backup_offset(), len);
        self.write_chunked(span_off, &backup, |_| {});
        self.update_header(&[(HDR_VALID, DISARMED)]);
        Some((span_off, len))
    }
}

impl std::fmt::Debug for UndoLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UndoLog")
            .field("region", &self.region)
            .field("capacity", &self.capacity)
            .field("chunk", &self.chunk)
            .field("armed", &self.needs_recovery())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemConfig;

    fn setup(capacity: usize, chunk: usize) -> (Arc<PmemPool>, UndoLog, PmemOffset) {
        let pool = Arc::new(PmemPool::new(PmemConfig::small_test()));
        let ulog = UndoLog::new(Arc::clone(&pool), capacity, chunk).unwrap();
        let data = pool.alloc(4096, 64).unwrap();
        (pool, ulog, data)
    }

    #[test]
    fn overwrite_applies_new_contents() {
        let (pool, mut ulog, data) = setup(1024, 128);
        pool.write(data, &[1u8; 512]);
        pool.persist(data, 512);
        ulog.protected_overwrite(data, &[7u8; 512], &[1u8; 512], None)
            .unwrap();
        assert_eq!(pool.read_vec(data, 512), vec![7u8; 512]);
        assert!(!ulog.needs_recovery());
        // The new contents are durable.
        pool.simulate_crash();
        assert_eq!(pool.read_vec(data, 512), vec![7u8; 512]);
    }

    #[test]
    fn crash_after_arming_rolls_back_cleanly() {
        let (pool, ulog, data) = setup(1024, 64);
        pool.write(data, &[1u8; 256]);
        pool.persist(data, 256);

        // Reproduce the protocol by hand up to a crash in the middle of
        // step 4 (new contents partially written).
        let region = ulog.region_offset();
        pool.write_u64(region + 8, data);
        pool.write_u64(region + 16, 256);
        pool.write_u64(region + 24, 0);
        pool.persist(region + 8, 24);
        let old = pool.read_vec(data, 256);
        pool.write(region + 64, &old); // data area follows the 64 B header
        pool.persist(region + 64, 256);
        pool.write_u64(region, 1);
        pool.persist(region, 8);
        // Partial overwrite: only the first half of the new data, persisted.
        pool.write(data, &[9u8; 128]);
        pool.persist(data, 128);

        pool.simulate_crash();
        let mut ulog2 = UndoLog::attach(Arc::clone(&pool), region, 1024, 64);
        assert!(ulog2.needs_recovery());
        let (off, len) = ulog2.recover().unwrap();
        assert_eq!(off, data);
        assert_eq!(len, 256);
        assert_eq!(pool.read_vec(data, 256), vec![1u8; 256]);
        assert!(!ulog2.needs_recovery());
    }

    #[test]
    fn crash_before_arming_leaves_window_untouched() {
        let (pool, ulog, data) = setup(1024, 64);
        pool.write(data, &[3u8; 128]);
        pool.persist(data, 128);
        // Descriptor written but valid flag never set: nothing to do.
        let region = ulog.region_offset();
        pool.write_u64(region + 8, data);
        pool.write_u64(region + 16, 128);
        pool.persist(region + 8, 16);
        pool.simulate_crash();
        let mut ulog2 = UndoLog::attach(Arc::clone(&pool), region, 1024, 64);
        assert!(!ulog2.needs_recovery());
        assert!(ulog2.recover().is_none());
        assert_eq!(pool.read_vec(data, 128), vec![3u8; 128]);
    }

    #[test]
    fn windows_larger_than_capacity_spill_but_stay_protected() {
        let (pool, mut ulog, data) = setup(256, 64);
        pool.write(data, &[5u8; 2048]);
        pool.persist(data, 2048);
        ulog.protected_overwrite(data, &[6u8; 2048], &[5u8; 2048], None)
            .unwrap();
        assert_eq!(pool.read_vec(data, 2048), vec![6u8; 2048]);
        assert!(!ulog.needs_recovery());
    }

    #[test]
    fn recover_is_idempotent() {
        let (pool, mut ulog, _data) = setup(512, 64);
        assert!(ulog.recover().is_none());
        assert!(ulog.recover().is_none());
        assert!(!ulog.needs_recovery());
        let _ = pool;
    }

    #[test]
    fn header_crc_sealed_through_the_whole_protocol() {
        let (pool, mut ulog, data) = setup(1024, 128);
        ulog.verify_header().unwrap();
        pool.write(data, &[1u8; 512]);
        pool.persist(data, 512);
        ulog.protected_overwrite(data, &[7u8; 512], &[1u8; 512], None)
            .unwrap();
        ulog.verify_header().unwrap();
        ulog.verify_armed_data().unwrap(); // disarmed: trivially clean
        pool.simulate_crash();
        ulog.verify_header().unwrap();
    }

    #[test]
    fn header_bit_flip_detected_and_reinit_repairs() {
        let (pool, mut ulog, _data) = setup(512, 64);
        pool.inject_bit_flip(ulog.region_offset() + 16, 4);
        assert!(ulog.verify_header().unwrap_err().contains("crc mismatch"));
        ulog.reinit_header();
        ulog.verify_header().unwrap();
        assert!(!ulog.needs_recovery());
    }

    #[test]
    fn armed_backup_data_flip_is_detected() {
        let (pool, mut ulog, data) = setup(1024, 64);
        pool.write(data, &[4u8; 256]);
        pool.persist(data, 256);
        // Arm through the real protocol, then crash mid-step-4 by hand:
        // re-arm the header exactly as protected_overwrite leaves it.
        ulog.protected_overwrite(data, &[8u8; 256], &[4u8; 256], None)
            .unwrap();
        let region = ulog.region_offset();
        pool.write_u64(region, 1); // re-arm; stale but valid data CRC remains
        let crc = pmem::crc32c(&pool.read_vec(region, 40));
        pool.write_u64(region + 40, u64::from(crc));
        pool.persist(region, 48);
        ulog.verify_header().unwrap();
        ulog.verify_armed_data().unwrap();
        // Now corrupt one byte of the backed-up window data.
        pool.inject_bit_flip(region + 64 + 100, 2);
        assert!(ulog
            .verify_armed_data()
            .unwrap_err()
            .contains("data crc mismatch"));
    }

    #[test]
    fn chunked_writes_charge_multiple_fences() {
        let pool = Arc::new(PmemPool::new(
            PmemConfig::small_test().cost_model(pmem::CostModel::default()),
        ));
        let mut ulog = UndoLog::new(Arc::clone(&pool), 4096, 256).unwrap();
        let data = pool.alloc(2048, 64).unwrap();
        let before = pool.stats_snapshot();
        ulog.protected_overwrite(data, &[1u8; 2048], &[0u8; 2048], None)
            .unwrap();
        let d = pool.stats_snapshot().delta_since(&before);
        // Old bytes + new bytes both written: at least 2x the window.
        assert!(d.logical_bytes_written >= 2 * 2048);
        // Far fewer fences than a PMDK transaction protecting the same
        // window range-by-range (one per chunk pair + bookkeeping).
        assert!(d.fences < 24, "fences: {}", d.fences);
        assert_eq!(d.tx_started, 0, "no PMDK transaction involved");
    }

    /// The protocol as it stood when the log re-read the window from PM:
    /// header CRCs sealed over a PM read of the header, backup chunks read
    /// from the window before they are written.
    fn reading_protocol(pool: &PmemPool, region: PmemOffset, chunk: usize, off: u64, new: &[u8]) {
        let header = |fields: &[(u64, u64)]| {
            for &(f, v) in fields {
                pool.write_u64(region + f, v);
            }
            let crc = crc32c(&pool.read_vec(region, HDR_CRC as usize));
            pool.write_u64(region + HDR_CRC, u64::from(crc));
            pool.persist(region, (HDR_CRC + 8) as usize);
        };
        let len = new.len();
        header(&[
            (HDR_WINDOW_OFF, off),
            (HDR_WINDOW_LEN, len as u64),
            (HDR_USED, 0),
        ]);
        let mut data_crc = Crc32c::new();
        for done in (0..len).step_by(chunk) {
            let n = chunk.min(len - done);
            let old = pool.read_vec(off + done as u64, n);
            data_crc.update(&old);
            pool.write(region + HDR_SIZE + done as u64, &old);
            pool.flush(region + HDR_SIZE + done as u64, n);
        }
        pool.fence();
        header(&[(HDR_DATA_CRC, u64::from(data_crc.finish())), (HDR_VALID, 1)]);
        for done in (0..len).step_by(chunk) {
            let n = chunk.min(len - done);
            pool.write(off + done as u64, &new[done..done + n]);
            pool.flush(off + done as u64, n);
        }
        pool.fence();
        header(&[(HDR_VALID, 0)]);
    }

    #[test]
    fn caller_supplied_old_bytes_charge_no_pm_reads() {
        let cost = pmem::CostModel::default();
        let fresh = || {
            let pool = Arc::new(PmemPool::new(PmemConfig::small_test().cost_model(cost)));
            let ulog = UndoLog::new(Arc::clone(&pool), 4096, 256).unwrap();
            let data = pool.alloc(4096, 64).unwrap();
            let old: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
            pool.write(data + 200, &old);
            pool.persist(data + 200, old.len());
            (pool, ulog, data + 200, old)
        };
        let new = vec![0xC3u8; 1000];

        let (pool, mut ulog, off, old) = fresh();
        let before = pool.stats_snapshot();
        ulog.protected_overwrite(off, &new, &old, None).unwrap();
        let d = pool.stats_snapshot().delta_since(&before);

        let (ref_pool, ref_ulog, ref_off, _) = fresh();
        let before = ref_pool.stats_snapshot();
        reading_protocol(&ref_pool, ref_ulog.region_offset(), 256, ref_off, &new);
        let r = ref_pool.stats_snapshot().delta_since(&before);

        assert_eq!(d.logical_bytes_read, 0);
        assert_eq!(d.read_ops, 0);
        assert!(r.logical_bytes_read >= 1000, "reference reads the window");
        assert_eq!(d.logical_bytes_written, r.logical_bytes_written);
        assert_eq!(d.write_ops, r.write_ops);
        assert_eq!(d.media_bytes_written, r.media_bytes_written);
        assert_eq!(d.flushes, r.flushes);
        assert_eq!(d.inplace_flushes, r.inplace_flushes);
        assert_eq!(d.fences, r.fences);
        assert!(d.simulated_ns < r.simulated_ns);
        // Same bytes on PM: window, backup area and sealed header.
        let span = HDR_SIZE as usize + 1000;
        assert_eq!(
            pool.read_vec(ulog.region_offset(), span),
            ref_pool.read_vec(ref_ulog.region_offset(), span)
        );
        assert_eq!(pool.read_vec(off, 1000), new);
        ulog.verify_header().unwrap();

        // A reused spill region charges no reads either.
        let (pool, mut ulog, data) = setup(256, 64);
        ulog.protected_overwrite(data, &[1u8; 1024], &[0u8; 1024], None)
            .unwrap();
        let before = pool.stats_snapshot();
        ulog.protected_overwrite(data, &[2u8; 1024], &[1u8; 1024], None)
            .unwrap();
        assert_eq!(
            pool.stats_snapshot()
                .delta_since(&before)
                .logical_bytes_read,
            0
        );
    }

    #[test]
    fn spill_region_grows_once_per_size_doubling() {
        let (pool, mut ulog, data) = setup(256, 64);
        let lens = [
            300, 400, 500, 300, 512, 1000, 600, 1024, 2000, 1500, 2048, 700,
        ];
        let used_before = pool.used();
        let allocs_before = pool.stats_snapshot().allocations;
        let mut grown_at = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let used = pool.used();
            let old = pool.read_vec(data, len);
            ulog.protected_overwrite(data, &vec![i as u8 + 1; len], &old, None)
                .unwrap();
            assert_eq!(pool.read_vec(data, len), vec![i as u8 + 1; len]);
            if pool.used() != used {
                grown_at.push(len);
            }
        }
        // One allocation per power-of-two size class: 512, 1024, 2048.
        assert_eq!(grown_at, vec![300, 1000, 2000]);
        assert_eq!(pool.stats_snapshot().allocations - allocs_before, 3);
        assert!(pool.used() - used_before <= 512 + 1024 + 2048 + 3 * 64);
        // Spans that fit the inline area never touch the spill region.
        let used = pool.used();
        ulog.protected_overwrite(data, &[9u8; 256], &[0u8; 256], None)
            .unwrap();
        assert_eq!(pool.used(), used);
    }

    #[test]
    fn crash_mid_spilled_overwrite_restores_the_span_from_the_reused_region() {
        let (pool, mut ulog, data) = setup(256, 64);
        pool.write(data, &[1u8; 1024]);
        pool.persist(data, 1024);
        // First spill allocates the region; the second reuses it.
        ulog.protected_overwrite(data, &[2u8; 1024], &[1u8; 1024], None)
            .unwrap();
        let region = ulog.region_offset();
        // Writes of the second overwrite: 3 header words + CRC, 16 backup
        // chunks, 2 header words + CRC, then the new chunks.  Crash after
        // the fourth new chunk has been written.
        pool.arm_write_failpoint(4 + 16 + 3 + 4);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ulog.protected_overwrite(data, &[3u8; 1024], &[2u8; 1024], None)
                .unwrap();
        }));
        assert!(crashed.is_err());
        pool.disarm_write_failpoint();
        pool.simulate_crash_with(pmem::CRASH_DROP_FLUSHED);
        let mut ulog = UndoLog::attach(Arc::clone(&pool), region, 256, 64);
        ulog.verify_header().unwrap();
        ulog.verify_armed_data().unwrap();
        assert_eq!(ulog.recover(), Some((data, 1024)));
        assert_eq!(pool.read_vec(data, 1024), vec![2u8; 1024]);
        ulog.verify_header().unwrap();
    }

    #[test]
    fn crash_after_commit_keeps_the_new_image_and_reports_the_follow_up() {
        let (pool, mut ulog, data) = setup(1024, 64);
        pool.write(data, &[1u8; 256]);
        pool.persist(data, 256);
        ulog.protected_overwrite(data, &[2u8; 256], &[1u8; 256], Some((3, 5)))
            .unwrap();
        assert_eq!(ulog.pending_follow_up(), Some((3, 5)));
        assert!(!ulog.needs_recovery());
        // Crash before the caller confirms its follow-up.
        pool.simulate_crash_with(pmem::CRASH_DROP_FLUSHED);
        let mut ulog = UndoLog::attach(Arc::clone(&pool), ulog.region_offset(), 1024, 64);
        ulog.verify_header().unwrap();
        ulog.verify_armed_data().unwrap();
        assert_eq!(ulog.pending_follow_up(), Some((3, 5)));
        assert_eq!(ulog.recover(), None, "a committed span never rolls back");
        assert_eq!(pool.read_vec(data, 256), vec![2u8; 256]);
        ulog.disarm();
        assert_eq!(ulog.pending_follow_up(), None);
        ulog.verify_header().unwrap();
    }
}
