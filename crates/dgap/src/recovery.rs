//! Shutdown, restart and crash recovery (§3.1.5, §4.4).
//!
//! DGAP distinguishes two restart paths via the persistent
//! `NORMAL_SHUTDOWN` flag:
//!
//! * **Graceful restart.**  [`Dgap::shutdown`] serialises every DRAM
//!   component (vertex array, PMA-tree occupancies, allocation tail) into a
//!   metadata-backup region on PM and sets the flag; [`Dgap::open`] then
//!   simply reloads the backup — fast, independent of graph size.
//! * **Crash recovery.**  When the flag is clear, [`Dgap::open`] first rolls
//!   back any rebalance that was interrupted mid-flight (per-thread undo
//!   logs), then reconstructs the vertex array by scanning the edge array
//!   for pivot elements, folds in the per-section edge logs (degrees and
//!   `elog_head` chains) and rebuilds the density tree.
//!
//! Both paths are **parallel** on graphs big enough to matter: the crash
//! scan splits the edge array into section-aligned chunks that rebuild
//! chunk-local vertex deltas, occupancies, tail and record counts on the
//! work-stealing pool, with a serial fixup stitching pivot runs that cross
//! chunk boundaries (records before a chunk's first pivot belong to the
//! previous chunk's last pivot).  Undo-log rollback fans out across the
//! per-thread logs, the per-section edge logs are scanned concurrently
//! (merged in section order so each vertex's `elog_head` matches the
//! sequential scan exactly), and the graceful-restart backup parse decodes
//! fixed-stride vertex records in parallel chunks.  The sequential
//! implementations are kept — [`Dgap::recover_from_crash_sequential`]
//! mirrors the `FrozenView::capture_sequential` precedent — both as the
//! small-graph fallback and as the measured baseline of the `recovery`
//! benchmark; [`RecoveredState`] lets tests assert the two scans
//! reconstruct identical state.

use crate::config::DgapConfig;
use crate::edges::EdgeArray;
use crate::elog::EdgeLogs;
use crate::graph::Dgap;
use crate::integrity::{self, VerifyReport};
use crate::meta::Superblock;
use crate::slot::{Slot, SLOT_BYTES};
use crate::traits::{GraphError, GraphResult, VertexId};
use crate::ulog::UndoLog;
use crate::vertex::{VertexArray, VertexEntry, NO_ELOG};
use parking_lot::Mutex;
use pma::{DensityTree, SegmentGeometry};
use pmem::{crc32c, PmemPool};
use std::sync::Arc;

/// Bytes per vertex entry in the metadata backup.
const BACKUP_VERTEX_BYTES: usize = 24;
/// Fixed header of the metadata backup.
const BACKUP_HEADER_BYTES: usize = 32;

/// Below this many edge-array slots the crash scan stays sequential: the
/// chunk bookkeeping and fork overhead outweigh the scan itself.
const PARALLEL_RECOVERY_MIN_SLOTS: usize = 1 << 14;
/// Below this many backed-up vertex entries the backup parse stays
/// sequential.
const PARALLEL_BACKUP_MIN_ENTRIES: usize = 1 << 14;

/// How a [`Dgap::open`] call brought the instance back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// The previous session shut down gracefully; metadata was reloaded from
    /// the backup region.
    NormalRestart,
    /// The previous session crashed; metadata was reconstructed by scanning
    /// the edge array, edge logs and undo logs.
    CrashRecovery {
        /// Number of interrupted rebalances rolled back from undo logs.
        rolled_back_rebalances: usize,
    },
}

/// The DRAM state a crash-recovery scan reconstructs, before it is
/// installed into the instance.
///
/// Exposed so tests and the `recovery` benchmark can run
/// [`Dgap::recover_from_crash_sequential`] and
/// [`Dgap::recover_from_crash_parallel`] side by side and assert they
/// rebuild identical state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// One entry per vertex: the superblock's recorded count extended to
    /// the highest id seen in the edge array or the edge logs.
    pub entries: Vec<VertexEntry>,
    /// Per-section occupancy (edge-array slots plus edge-log entries).
    pub occupancies: Vec<usize>,
    /// First slot index after the last occupied edge-array slot.
    pub tail: u64,
    /// Total edge records attributed to a vertex (tombstones included).
    pub records: u64,
}

/// Per-chunk partial of the parallel edge-array pass.
struct EdgeChunk {
    /// First section of the chunk's range.
    first_section: usize,
    /// Occupancy of each section in the range.
    occupancies: Vec<usize>,
    /// Highest occupied slot index + 1 seen in the range.
    tail: u64,
    /// Edge records following a pivot *inside* this chunk.
    records: u64,
    /// Edge records before the chunk's first pivot: they continue a pivot
    /// run that starts in an earlier chunk and are attributed during the
    /// serial fixup.
    prefix_records: u32,
    /// Pivots in slot order: `(vertex, start slot, in-chunk record count)`.
    pivots: Vec<(VertexId, u64, u32)>,
}

/// One section's edge-log partial: the section index and its live entries
/// as `(source vertex, global entry index)` in append order.
type SectionLog = (usize, Vec<(VertexId, u32)>);

impl Dgap {
    /// Gracefully shut down: persist every DRAM component to PM and set the
    /// `NORMAL_SHUTDOWN` flag so the next [`Dgap::open`] can skip recovery.
    pub fn shutdown(&self) -> GraphResult<()> {
        let _wg = self.resize_lock.write(); // quiesce writers and readers
        let pool = self.pool();
        let entries = self.vertices.snapshot_entries();
        let num_sections = self.edges.num_segments();
        let occupancies: Vec<u32> = {
            let t = self.tree.lock();
            (0..num_sections).map(|s| t.occupancy(s) as u32).collect()
        };
        let len = BACKUP_HEADER_BYTES + entries.len() * BACKUP_VERTEX_BYTES + occupancies.len() * 4;
        let off = pool
            .alloc(len, 64)
            .map_err(|e| GraphError::OutOfSpace(e.to_string()))?;
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(self.num_edges_internal()).to_le_bytes());
        buf.extend_from_slice(&self.tail_value().to_le_bytes());
        buf.extend_from_slice(&(num_sections as u64).to_le_bytes());
        for e in &entries {
            buf.extend_from_slice(&e.degree.to_le_bytes());
            buf.extend_from_slice(&e.in_array.to_le_bytes());
            buf.extend_from_slice(&e.start.to_le_bytes());
            buf.extend_from_slice(&e.elog_head.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
        }
        for o in &occupancies {
            buf.extend_from_slice(&o.to_le_bytes());
        }
        debug_assert_eq!(buf.len(), len);
        pool.write(off, &buf);
        pool.persist(off, len);
        self.superblock().set_backup(pool, off, len);
        // Seal the backup blob (the CRC is a running by-product of the buf
        // we just streamed out — no re-scan) and a per-section CRC table
        // over the now-quiescent edge array, so the next open can verify
        // both before trusting them.
        self.superblock().set_backup_crc(pool, crc32c(&buf));
        self.seal_section_crcs()?;
        self.superblock().set_num_vertices(pool, entries.len());
        self.superblock().set_normal_shutdown(pool, true);
        Ok(())
    }

    /// Checksum every edge-array section (in parallel on graphs big enough
    /// to matter) and persist the table of per-section CRCs, sealed with
    /// its own trailing CRC.  Called with the graph quiesced by `shutdown`.
    fn seal_section_crcs(&self) -> GraphResult<()> {
        use rayon::prelude::*;
        let pool = self.pool();
        let num_sections = self.edges.num_segments();
        let seg_bytes = self.edges.segment_size() * SLOT_BYTES;
        let base = self.edges.base_offset();
        let section_crc =
            |s: usize| crc32c(&pool.read_vec(base + (s * seg_bytes) as u64, seg_bytes));
        let parallel = self.config().parallel_recovery
            && rayon::current_num_threads() > 1
            && self.edges.capacity() >= PARALLEL_RECOVERY_MIN_SLOTS;
        let crcs: Vec<u32> = if parallel {
            (0..num_sections)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(section_crc)
                .collect()
        } else {
            (0..num_sections).map(section_crc).collect()
        };
        let len = 8 + num_sections * 4 + 4;
        let mut table = Vec::with_capacity(len);
        table.extend_from_slice(&(num_sections as u64).to_le_bytes());
        for c in &crcs {
            table.extend_from_slice(&c.to_le_bytes());
        }
        table.extend_from_slice(&crc32c(&table).to_le_bytes());
        debug_assert_eq!(table.len(), len);
        let off = pool
            .alloc(len, 64)
            .map_err(|e| GraphError::OutOfSpace(e.to_string()))?;
        pool.write(off, &table);
        pool.persist(off, len);
        self.superblock().set_section_crcs(pool, off, len);
        Ok(())
    }

    /// Re-open a DGAP instance from a pool that already contains one
    /// (either after a graceful shutdown or after a crash).  Returns the
    /// instance together with which restart path was taken.
    ///
    /// The structural parameters (`segment_size`, `elog_size`) always come
    /// from the pool's superblock: the persistent layout was built with
    /// them.  Passing the defaults in `cfg` is accepted as "no opinion";
    /// passing an explicit value that differs from the recorded one is an
    /// error rather than a silent override.
    pub fn open(pool: Arc<PmemPool>, cfg: DgapConfig) -> GraphResult<(Self, RecoveryKind)> {
        let (graph, kind, _report) = Self::open_verified(pool, cfg)?;
        Ok((graph, kind))
    }

    /// [`Dgap::open`] with the integrity pass's findings surfaced.
    ///
    /// Every open CRC-verifies the persistent image before trusting it
    /// (see [`crate::integrity`]): the pool header, superblock and layout
    /// block gate attachment; the undo-log headers, edge logs and — after
    /// a graceful shutdown — the metadata backup and per-section edge
    /// CRCs gate the restart path.  Repairable damage is repaired (and
    /// reported); fatal damage aborts with [`GraphError::Corrupted`]
    /// carrying the pool path and failing offset, so callers can
    /// quarantine the shard instead of serving corrupt edges.
    pub fn open_verified(
        pool: Arc<PmemPool>,
        cfg: DgapConfig,
    ) -> GraphResult<(Self, RecoveryKind, VerifyReport)> {
        let mut report = VerifyReport::default();
        report.push(integrity::pool_header_report(&pool));
        if let Some(e) = report.fatal_error(&pool) {
            return Err(e);
        }
        let sb = Superblock::open(&pool).map_err(|e| GraphError::Other(e.to_string()))?;
        report.push(integrity::superblock_report(&pool, &sb));
        report.push(integrity::layout_report(&pool, &sb));
        if let Some(e) = report.fatal_error(&pool) {
            return Err(e);
        }
        let (segment_size, elog_size) = sb.config(&pool);
        let defaults = DgapConfig::default();
        if cfg.segment_size != segment_size && cfg.segment_size != defaults.segment_size {
            return Err(GraphError::Other(format!(
                "segment_size {} does not match the pool's recorded {} \
                 (omit the override or pass the recorded value)",
                cfg.segment_size, segment_size
            )));
        }
        if cfg.elog_size != elog_size && cfg.elog_size != defaults.elog_size {
            return Err(GraphError::Other(format!(
                "elog_size {} does not match the pool's recorded {} \
                 (omit the override or pass the recorded value)",
                cfg.elog_size, elog_size
            )));
        }
        let mut cfg = cfg;
        cfg.segment_size = segment_size;
        cfg.elog_size = elog_size;
        cfg.validate();
        let layout = sb
            .layout(&pool)
            .ok_or_else(|| GraphError::Other("pool has no published layout".into()))?;
        let edges = EdgeArray::attach(
            Arc::clone(&pool),
            layout.edge_base,
            segment_size,
            layout.num_segments,
        );
        let elogs = EdgeLogs::attach(
            Arc::clone(&pool),
            layout.elog_base,
            layout.num_segments,
            elog_size,
        );
        let (ulog_offsets, ulog_capacity, ulog_chunk) = sb.ulogs(&pool);
        let ulogs: Vec<Mutex<UndoLog>> = ulog_offsets
            .iter()
            .map(|&off| {
                Mutex::new(UndoLog::attach(
                    Arc::clone(&pool),
                    off,
                    ulog_capacity,
                    ulog_chunk,
                ))
            })
            .collect();

        let normal = sb.normal_shutdown(&pool);
        let num_vertices = sb.num_vertices(&pool).max(cfg.init_vertices);
        let geom = SegmentGeometry::new(segment_size, layout.num_segments);

        let graph = Dgap::assemble(
            Arc::clone(&pool),
            cfg,
            sb,
            VertexArray::new(num_vertices),
            edges,
            elogs,
            ulogs,
            DensityTree::new(geom, pma::DensityBounds::default()),
        );

        // Verify the attached components before loading any state from
        // them.  A corrupt metadata backup downgrades `normal` to a crash
        // scan; fatal corruption aborts the open here.
        let normal = graph.verify_on_open(normal, &mut report)?;

        let kind = if normal {
            graph.load_backup()?;
            RecoveryKind::NormalRestart
        } else {
            let rolled_back = graph.recover_from_crash();
            RecoveryKind::CrashRecovery {
                rolled_back_rebalances: rolled_back,
            }
        };
        // From this point on we are live again: any future crash must go
        // through crash recovery unless `shutdown` runs first.
        graph.superblock().set_normal_shutdown(graph.pool(), false);
        Ok((graph, kind, report))
    }

    /// Reload DRAM metadata from the graceful-shutdown backup.
    fn load_backup(&self) -> GraphResult<()> {
        let _span = crate::telemetry::recovery_backup_load_nanos().span();
        let pool = self.pool();
        let (off, len) = self
            .superblock()
            .backup(pool)
            .ok_or_else(|| GraphError::Other("normal shutdown recorded but no backup".into()))?;
        let buf = pool.read_vec(off, len);
        let nv = u64::from_le_bytes(buf[0..8].try_into().unwrap()) as usize;
        let records = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        let tail = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        let num_sections = u64::from_le_bytes(buf[24..32].try_into().unwrap()) as usize;
        let vertex_bytes =
            &buf[BACKUP_HEADER_BYTES..BACKUP_HEADER_BYTES + nv * BACKUP_VERTEX_BYTES];
        let parallel = self.config().parallel_recovery
            && nv >= PARALLEL_BACKUP_MIN_ENTRIES
            && rayon::current_num_threads() > 1;
        let entries = if parallel {
            parse_backup_entries_parallel(vertex_bytes, nv)
        } else {
            parse_backup_entries(vertex_bytes, 0..nv)
        };
        let mut occupancies = Vec::with_capacity(num_sections);
        let mut cursor = BACKUP_HEADER_BYTES + nv * BACKUP_VERTEX_BYTES;
        for _ in 0..num_sections {
            occupancies
                .push(u32::from_le_bytes(buf[cursor..cursor + 4].try_into().unwrap()) as usize);
            cursor += 4;
        }
        self.restore_state(entries, occupancies, tail, records);
        self.elogs.rebuild_used_counters();
        Ok(())
    }

    /// Rebuild all DRAM metadata by scanning persistent structures.
    /// Returns the number of interrupted rebalances rolled back.
    fn recover_from_crash(&self) -> usize {
        let parallel = self.config().parallel_recovery && rayon::current_num_threads() > 1;

        // Undo-log rollback: each writer thread's log is independent, so
        // the per-log recoveries fan out across the pool.
        let ulog_span = crate::telemetry::recovery_ulog_nanos().span();
        let rolled_back: usize = if parallel && self.ulogs_for_recovery().len() > 1 {
            use rayon::prelude::*;
            self.ulogs_for_recovery()
                .par_iter()
                .map(|ulog| usize::from(self.recover_ulog(ulog)))
                .sum()
        } else {
            self.ulogs_for_recovery()
                .iter()
                .filter(|ulog| self.recover_ulog(ulog))
                .count()
        };
        drop(ulog_span);

        let state = if parallel && self.edges.capacity() >= PARALLEL_RECOVERY_MIN_SLOTS {
            self.recover_from_crash_parallel()
        } else {
            self.recover_from_crash_sequential()
        };
        self.restore_state(state.entries, state.occupancies, state.tail, state.records);
        self.stats_recovered(rolled_back as u64);
        rolled_back
    }

    /// Settle one undo log after a crash: roll an armed log's span back
    /// (returning `true`), or finish a committed rebalance by clearing the
    /// edge logs it merged — every log of the window's sections, since the
    /// DRAM fill counters are not rebuilt yet.
    fn recover_ulog(&self, ulog: &Mutex<UndoLog>) -> bool {
        let mut ulog = ulog.lock();
        if let Some((first, count)) = ulog.pending_follow_up() {
            for s in first..first + count {
                self.elogs.clear(s as usize);
            }
            ulog.disarm();
            return false;
        }
        ulog.recover().is_some()
    }

    /// Whether a crash of this instance would rebuild with the parallel
    /// scan when `threads` workers are available — the same gate
    /// `recover_from_crash` applies (config knob, more than one thread,
    /// and an edge array big enough to split).  The `recovery` benchmark
    /// uses this to attribute the simulated device time across scanners
    /// only when the scan actually fans out.
    pub fn crash_scan_is_parallel(&self, threads: usize) -> bool {
        self.config().parallel_recovery
            && threads > 1
            && self.edges.capacity() >= PARALLEL_RECOVERY_MIN_SLOTS
    }

    /// Reconstruct the crash-recovery state with the original sequential
    /// scans (the small-graph fallback and the `recovery` benchmark's
    /// baseline; `FrozenView::capture_sequential` is the same precedent on
    /// the snapshot path).  Pure with respect to the instance's DRAM
    /// metadata: nothing is installed, only the edge-log used counters are
    /// refreshed (to the values a scan of PM always yields).
    pub fn recover_from_crash_sequential(&self) -> RecoveredState {
        let num_sections = self.edges.num_segments();
        let segment_size = self.edges.segment_size();
        let mut entries: Vec<VertexEntry> =
            vec![VertexEntry::default(); self.superblock().num_vertices(self.pool()).max(1)];
        let mut occupancies = vec![0usize; num_sections];
        let mut tail = 0u64;
        let mut records = 0u64;

        // Pass 1: the edge array.  Pivots give starts; the records that
        // follow give in-array counts and (initial) degrees.
        let scan_span = crate::telemetry::recovery_rebuild_scan_nanos().span();
        let mut current: Option<usize> = None;
        self.edges.scan(|idx, slot| {
            occupancies[(idx as usize) / segment_size] += 1;
            tail = tail.max(idx + 1);
            match slot {
                Slot::Pivot(v) => {
                    let v = v as usize;
                    if v >= entries.len() {
                        entries.resize(v + 1, VertexEntry::default());
                    }
                    entries[v].start = idx;
                    entries[v].in_array = 0;
                    entries[v].degree = 0;
                    entries[v].elog_head = NO_ELOG;
                    current = Some(v);
                }
                s if s.is_edge_record() => {
                    if let Some(v) = current {
                        entries[v].in_array += 1;
                        entries[v].degree += 1;
                        records += 1;
                    }
                }
                _ => {}
            }
        });

        drop(scan_span);

        // Pass 2: the per-section edge logs.  Entries appear in append
        // order, so the last one seen for a source becomes its chain head.
        let elog_span = crate::telemetry::recovery_elog_scan_nanos().span();
        self.elogs.scan_all(|section, idx, e| {
            let v = e.src as usize;
            if v >= entries.len() {
                entries.resize(v + 1, VertexEntry::default());
            }
            entries[v].degree += 1;
            entries[v].elog_head = idx;
            occupancies[section] += 1;
            records += 1;
        });
        drop(elog_span);

        RecoveredState {
            entries,
            occupancies,
            tail,
            records,
        }
    }

    /// Reconstruct the crash-recovery state with chunked parallel scans on
    /// the work-stealing pool.  Produces exactly the state
    /// [`Dgap::recover_from_crash_sequential`] produces (asserted by
    /// tests); see the [module docs](self) for the chunk/fixup design.
    pub fn recover_from_crash_parallel(&self) -> RecoveredState {
        use rayon::prelude::*;
        let num_sections = self.edges.num_segments();
        let segment_size = self.edges.segment_size();

        // Section-aligned chunk ranges: enough chunks for stealing to
        // balance skewed sections, each chunk a contiguous run.
        let per_chunk = num_sections
            .div_ceil((rayon::current_num_threads() * 4).max(1))
            .max(1);
        let ranges: Vec<(usize, usize)> = (0..num_sections)
            .step_by(per_chunk)
            .map(|lo| (lo, (lo + per_chunk).min(num_sections)))
            .collect();

        // Pass 1 (parallel): every chunk scans its slot range into local
        // accumulators; no shared state, no resizing inside the callback.
        let scan_span = crate::telemetry::recovery_rebuild_scan_nanos().span();
        let edge_chunks: Vec<EdgeChunk> = ranges
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut occupancies = vec![0usize; hi - lo];
                let mut tail = 0u64;
                let mut records = 0u64;
                let mut prefix_records = 0u32;
                let mut pivots: Vec<(VertexId, u64, u32)> = Vec::new();
                self.edges.scan_segments(lo..hi, |idx, slot| {
                    occupancies[(idx as usize) / segment_size - lo] += 1;
                    tail = tail.max(idx + 1);
                    match slot {
                        Slot::Pivot(v) => pivots.push((v, idx, 0)),
                        s if s.is_edge_record() => match pivots.last_mut() {
                            Some(p) => {
                                p.2 += 1;
                                records += 1;
                            }
                            None => prefix_records += 1,
                        },
                        _ => {}
                    }
                });
                EdgeChunk {
                    first_section: lo,
                    occupancies,
                    tail,
                    records,
                    prefix_records,
                    pivots,
                }
            })
            .collect();

        drop(scan_span);

        // Pass 2 (parallel): the per-section edge logs.  A vertex's chain
        // lives entirely in its pivot's section, so sections scan
        // independently; each partial keeps its section's append order.
        let elog_span = crate::telemetry::recovery_elog_scan_nanos().span();
        let elog_sections = self.elogs.num_sections();
        let elog_chunks: Vec<Vec<SectionLog>> = (0..elog_sections)
            .step_by(per_chunk)
            .map(|lo| (lo, (lo + per_chunk).min(elog_sections)))
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut sections = Vec::new();
                for section in lo..hi {
                    let mut seen = Vec::new();
                    self.elogs
                        .scan_section(section, |idx, e| seen.push((e.src, idx)));
                    if !seen.is_empty() {
                        sections.push((section, seen));
                    }
                }
                sections
            })
            .collect();
        drop(elog_span);

        // Size the vertex table once — superblock count extended to the
        // highest id any chunk saw — instead of resizing mid-scan.
        let mut nv = self.superblock().num_vertices(self.pool()).max(1);
        for chunk in &edge_chunks {
            for &(v, _, _) in &chunk.pivots {
                nv = nv.max(v as usize + 1);
            }
        }
        for sections in &elog_chunks {
            for (_, seen) in sections {
                for &(src, _) in seen {
                    nv = nv.max(src as usize + 1);
                }
            }
        }

        let mut entries = vec![VertexEntry::default(); nv];
        let mut occupancies = vec![0usize; num_sections];
        let mut tail = 0u64;
        let mut records = 0u64;

        // Serial fixup: install chunk partials in order, attributing each
        // chunk's leading records to the last pivot of the chunks before it
        // (a pivot run may span any number of pivot-free chunks).
        let mut carry: Option<VertexId> = None;
        for chunk in &edge_chunks {
            let lo = chunk.first_section;
            occupancies[lo..lo + chunk.occupancies.len()].copy_from_slice(&chunk.occupancies);
            tail = tail.max(chunk.tail);
            records += chunk.records;
            if chunk.prefix_records > 0 {
                if let Some(v) = carry {
                    let e = &mut entries[v as usize];
                    e.in_array += chunk.prefix_records;
                    e.degree += chunk.prefix_records;
                    records += u64::from(chunk.prefix_records);
                }
            }
            for &(v, start, count) in &chunk.pivots {
                entries[v as usize] = VertexEntry {
                    degree: count,
                    in_array: count,
                    start,
                    elog_head: NO_ELOG,
                };
            }
            if let Some(&(v, _, _)) = chunk.pivots.last() {
                carry = Some(v);
            }
        }

        // Edge-log merge in section order, so a vertex's `elog_head` ends
        // on the same (newest) entry the sequential forward scan ends on.
        for sections in &elog_chunks {
            for (section, seen) in sections {
                for &(src, idx) in seen {
                    let e = &mut entries[src as usize];
                    e.degree += 1;
                    e.elog_head = idx;
                    occupancies[*section] += 1;
                    records += 1;
                }
            }
        }

        RecoveredState {
            entries,
            occupancies,
            tail,
            records,
        }
    }
}

/// Decode backed-up vertex entries `range` from their fixed-stride records.
fn parse_backup_entries(vertex_bytes: &[u8], range: std::ops::Range<usize>) -> Vec<VertexEntry> {
    let mut out = Vec::with_capacity(range.len());
    for i in range {
        let cursor = i * BACKUP_VERTEX_BYTES;
        let rec = &vertex_bytes[cursor..cursor + BACKUP_VERTEX_BYTES];
        out.push(VertexEntry {
            degree: u32::from_le_bytes(rec[0..4].try_into().unwrap()),
            in_array: u32::from_le_bytes(rec[4..8].try_into().unwrap()),
            start: u64::from_le_bytes(rec[8..16].try_into().unwrap()),
            elog_head: u32::from_le_bytes(rec[16..20].try_into().unwrap()),
        });
    }
    out
}

/// Decode the backup's vertex records in parallel chunks (fixed stride, so
/// chunk boundaries are exact); results concatenate in input order.
fn parse_backup_entries_parallel(vertex_bytes: &[u8], nv: usize) -> Vec<VertexEntry> {
    use rayon::prelude::*;
    let per_chunk = nv
        .div_ceil((rayon::current_num_threads() * 4).max(1))
        .max(1);
    (0..nv)
        .step_by(per_chunk)
        .map(|lo| lo..(lo + per_chunk).min(nv))
        .collect::<Vec<_>>()
        .into_par_iter()
        .flat_map_iter(|range| parse_backup_entries(vertex_bytes, range))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{DynamicGraph, GraphView};
    use pmem::PmemConfig;

    fn pool() -> Arc<PmemPool> {
        Arc::new(PmemPool::new(PmemConfig::small_test()))
    }

    fn populate(g: &Dgap, edges: &[(u64, u64)]) {
        for &(s, d) in edges {
            g.insert_edge(s, d).unwrap();
        }
    }

    fn edge_list(n: usize) -> Vec<(u64, u64)> {
        let mut x = 0x9e37_79b9u64;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % 64, (x >> 17) % 64)
            })
            .collect()
    }

    fn neighbours_of_all(g: &Dgap) -> Vec<Vec<u64>> {
        let view = g.consistent_view();
        (0..DynamicGraph::num_vertices(g) as u64)
            .map(|v| view.neighbors(v))
            .collect()
    }

    #[test]
    fn graceful_shutdown_and_reopen_preserves_graph() {
        let p = pool();
        let g = Dgap::create(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        let edges = edge_list(1500);
        populate(&g, &edges);
        let before = neighbours_of_all(&g);
        let records = DynamicGraph::num_edges(&g);
        g.shutdown().unwrap();
        drop(g);

        p.simulate_crash(); // power-off after a graceful shutdown
        let (g2, kind) = Dgap::open(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        assert_eq!(kind, RecoveryKind::NormalRestart);
        assert_eq!(DynamicGraph::num_edges(&g2), records);
        assert_eq!(neighbours_of_all(&g2)[..64], before[..64]);
        g2.check_invariants();
    }

    #[test]
    fn crash_without_shutdown_recovers_all_persisted_edges() {
        let p = pool();
        let g = Dgap::create(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        let edges = edge_list(2000);
        populate(&g, &edges);
        let before = neighbours_of_all(&g);
        let records = DynamicGraph::num_edges(&g);
        drop(g);

        p.simulate_crash();
        let (g2, kind) = Dgap::open(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        assert!(matches!(kind, RecoveryKind::CrashRecovery { .. }));
        assert_eq!(DynamicGraph::num_edges(&g2), records);
        let after = neighbours_of_all(&g2);
        assert_eq!(after[..64], before[..64]);
        g2.check_invariants();
    }

    #[test]
    fn recovered_graph_accepts_new_edges() {
        let p = pool();
        let g = Dgap::create(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        populate(&g, &edge_list(800));
        drop(g);
        p.simulate_crash();
        let (g2, _) = Dgap::open(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        let before = DynamicGraph::num_edges(&g2);
        populate(&g2, &edge_list(500));
        assert_eq!(DynamicGraph::num_edges(&g2), before + 500);
        g2.check_invariants();
    }

    #[test]
    fn double_crash_recovery_is_stable() {
        let p = pool();
        let g = Dgap::create(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        populate(&g, &edge_list(1000));
        drop(g);
        p.simulate_crash();
        let (g2, _) = Dgap::open(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        let snapshot = neighbours_of_all(&g2);
        drop(g2);
        p.simulate_crash();
        let (g3, _) = Dgap::open(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        assert_eq!(neighbours_of_all(&g3), snapshot);
        g3.check_invariants();
    }

    #[test]
    fn crash_after_shutdown_then_new_inserts_uses_crash_path() {
        let p = pool();
        let g = Dgap::create(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        populate(&g, &edge_list(300));
        g.shutdown().unwrap();
        drop(g);
        let (g2, kind) = Dgap::open(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        assert_eq!(kind, RecoveryKind::NormalRestart);
        // New inserts after the restart, then a crash: the next open must
        // take the crash path (the flag was cleared on open).
        populate(&g2, &edge_list(300));
        let expected = DynamicGraph::num_edges(&g2);
        drop(g2);
        p.simulate_crash();
        let (g3, kind) = Dgap::open(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        assert!(matches!(kind, RecoveryKind::CrashRecovery { .. }));
        assert_eq!(DynamicGraph::num_edges(&g3), expected);
    }

    #[test]
    fn deletions_survive_recovery() {
        let p = pool();
        let g = Dgap::create(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        g.insert_edge(1, 2).unwrap();
        g.insert_edge(1, 3).unwrap();
        g.delete_edge(1, 2).unwrap();
        drop(g);
        p.simulate_crash();
        let (g2, _) = Dgap::open(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        let view = g2.consistent_view();
        assert_eq!(view.neighbors(1), vec![3]);
    }

    #[test]
    fn open_fails_on_uninitialised_pool() {
        let p = pool();
        assert!(Dgap::open(p, DgapConfig::small_test()).is_err());
    }

    #[test]
    fn open_rejects_explicit_config_mismatch_but_accepts_defaults() {
        let p = pool();
        let g = Dgap::create(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        populate(&g, &edge_list(100));
        drop(g);
        p.simulate_crash();

        // small_test records segment_size 64 / elog_size 256.  An explicit
        // non-default, non-matching override must be rejected...
        let wrong_segment = DgapConfig::small_test().segment_size(128);
        assert!(Dgap::open(Arc::clone(&p), wrong_segment).is_err());
        let wrong_elog = DgapConfig::small_test().elog_size(1024);
        assert!(Dgap::open(Arc::clone(&p), wrong_elog).is_err());

        // ...while the defaults mean "no opinion" and open fine, with the
        // recorded values taking effect.
        let (g2, _) = Dgap::open(Arc::clone(&p), DgapConfig::default()).unwrap();
        assert_eq!(g2.config().segment_size, 64);
        assert_eq!(g2.config().elog_size, 256);
        assert_eq!(DynamicGraph::num_edges(&g2), 100);
    }

    #[test]
    fn sequential_and_parallel_crash_scans_rebuild_identical_state() {
        let p = pool();
        let g = Dgap::create(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        populate(&g, &edge_list(2500));
        // Deletions and a high-id straggler (forces the vertex table past
        // the superblock's recorded count) make the state non-trivial.
        for v in 0..32u64 {
            g.delete_edge(v, (v + 1) % 64).unwrap();
        }
        g.insert_edge(200, 3).unwrap();
        drop(g);
        p.simulate_crash();
        let (g2, kind) = Dgap::open(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        assert!(matches!(kind, RecoveryKind::CrashRecovery { .. }));
        let seq = g2.recover_from_crash_sequential();
        let par = g2.recover_from_crash_parallel();
        assert_eq!(seq, par);
        assert!(seq.records > 0);
        assert_eq!(seq.entries.len(), 201);
    }

    #[test]
    fn sequential_recovery_config_still_recovers() {
        let p = pool();
        let g = Dgap::create(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        populate(&g, &edge_list(1200));
        let before = neighbours_of_all(&g);
        drop(g);
        p.simulate_crash();
        let (g2, kind) = Dgap::open(
            Arc::clone(&p),
            DgapConfig::small_test().sequential_recovery(),
        )
        .unwrap();
        assert!(matches!(kind, RecoveryKind::CrashRecovery { .. }));
        assert_eq!(neighbours_of_all(&g2)[..64], before[..64]);
        g2.check_invariants();
    }
}
