//! End-to-end integrity of DGAP's persistent state.
//!
//! Every durable region DGAP writes is sealed with a CRC32C at its existing
//! flush barrier: the pool header, the superblock, layout blocks, undo-log
//! headers (and the backed-up window data of an armed log), every edge-log
//! record, and — at graceful shutdown — the metadata backup blob and a
//! per-section CRC table over the edge array.  This module is the read
//! side: a verify pass that sweeps those seals and classifies each region
//! as
//!
//! * **clean** — all checksums matched;
//! * **repaired** — a mismatch whose damage is provably reconstructible
//!   from redundant state (garbage past an edge-log tail is re-zeroed, a
//!   corrupt disarmed undo-log header is re-initialised, a corrupt
//!   metadata backup falls back to a full crash scan, a corrupt CRC table
//!   is discarded — it holds verification metadata only);
//! * **fatal** — live data fails its checksum with no redundant copy.
//!   The open refuses with [`GraphError::Corrupted`] rather than serve
//!   wrong edges; a sharded deployment quarantines the shard and keeps
//!   serving the survivors in degraded mode.
//!
//! [`Dgap::open_verified`](crate::graph::Dgap::open_verified) runs the
//! pass on every open.  [`Dgap::verify`] runs it on demand against a live
//! instance — the background scrubber's entry point.
//! [`Dgap::covered_regions`] enumerates the sealed regions so the
//! media-fault harness can aim injected faults at bytes the pass is
//! guaranteed to cover.  Section sweeps reuse the work-stealing pool the
//! parallel crash scan runs on.

use crate::graph::Dgap;
use crate::meta::Superblock;
use crate::slot::SLOT_BYTES;
use crate::traits::GraphError;
use pmem::{crc32c, PmemOffset, PmemPool};

/// Below this many bytes a region sweep stays sequential — the fork
/// overhead outweighs the checksumming.
const PARALLEL_VERIFY_MIN_BYTES: usize = 1 << 17;

/// Classification of one verified region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionState {
    /// All checksums matched.
    Clean,
    /// A mismatch was found but repaired (or routed around) from redundant
    /// state, with no data loss.
    Repaired {
        /// What was wrong and how it was repaired.
        detail: String,
    },
    /// A mismatch in live data with no redundant copy: the region cannot
    /// be trusted and the instance must not serve from it.
    Fatal {
        /// What exactly failed.
        detail: String,
    },
}

/// One region's verification outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionReport {
    /// Region name (`"superblock"`, `"edge section 3"`, ...).
    pub region: String,
    /// Pool byte offset of the region (or of the failing record).
    pub offset: PmemOffset,
    /// Length of the verified region in bytes.
    pub len: u64,
    /// Outcome.
    pub state: RegionState,
}

/// The outcome of a full verify pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Per-region outcomes, in sweep order.
    pub regions: Vec<RegionReport>,
}

impl VerifyReport {
    pub(crate) fn push(&mut self, r: RegionReport) {
        self.regions.push(r);
    }

    /// `true` if any region failed fatally.
    pub fn is_fatal(&self) -> bool {
        self.first_fatal().is_some()
    }

    /// The first fatal region, if any.
    pub fn first_fatal(&self) -> Option<&RegionReport> {
        self.regions
            .iter()
            .find(|r| matches!(r.state, RegionState::Fatal { .. }))
    }

    /// Regions that were repaired during the pass.
    pub fn repaired(&self) -> Vec<&RegionReport> {
        self.regions
            .iter()
            .filter(|r| matches!(r.state, RegionState::Repaired { .. }))
            .collect()
    }

    /// Total bytes the pass covered.
    pub fn bytes_verified(&self) -> u64 {
        self.regions.iter().map(|r| r.len).sum()
    }

    /// Fold the first fatal region into a structured error carrying the
    /// pool's source path and the failing byte offset.
    pub fn fatal_error(&self, pool: &PmemPool) -> Option<GraphError> {
        self.first_fatal().map(|r| {
            let detail = match &r.state {
                RegionState::Fatal { detail } => detail.as_str(),
                _ => unreachable!(),
            };
            GraphError::Corrupted {
                region: r.region.clone(),
                detail: format!("{} @ +{}: {detail}", pool.label(), r.offset),
            }
        })
    }
}

fn clean(region: &str, offset: PmemOffset, len: u64) -> RegionReport {
    RegionReport {
        region: region.to_string(),
        offset,
        len,
        state: RegionState::Clean,
    }
}

fn repaired(region: &str, offset: PmemOffset, len: u64, detail: String) -> RegionReport {
    RegionReport {
        region: region.to_string(),
        offset,
        len,
        state: RegionState::Repaired { detail },
    }
}

fn fatal(region: &str, offset: PmemOffset, len: u64, detail: String) -> RegionReport {
    RegionReport {
        region: region.to_string(),
        offset,
        len,
        state: RegionState::Fatal { detail },
    }
}

/// A persistent region the verify pass covers.
///
/// The media-fault harness aims injected faults here: damage inside a
/// covered region is always detected at the next open.
/// `covered_after_crash` gates which regions stay covered when the open
/// takes the crash path — the metadata backup, the section CRC table and
/// the edge-array seals are only fresh after a graceful shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveredRegion {
    /// Region name, matching the verify report's naming.
    pub name: String,
    /// Pool byte offset of the region.
    pub offset: PmemOffset,
    /// Region length in bytes.
    pub len: u64,
    /// Whether the region is still verified when the next open takes the
    /// crash-recovery path.
    pub covered_after_crash: bool,
}

pub(crate) fn pool_header_report(pool: &PmemPool) -> RegionReport {
    let len = pool.header_bytes() as u64;
    match pool.verify_header() {
        Ok(()) => clean("pool header", 0, len),
        Err(e) => fatal("pool header", 0, len, e.to_string()),
    }
}

pub(crate) fn superblock_report(pool: &PmemPool, sb: &Superblock) -> RegionReport {
    let (off, len) = sb.region();
    match sb.verify(pool) {
        Ok(()) => clean("superblock", off, len),
        Err(d) => fatal("superblock", off, len, d),
    }
}

pub(crate) fn layout_report(pool: &PmemPool, sb: &Superblock) -> RegionReport {
    let (off, len) = sb.layout_block(pool).unwrap_or((0, 0));
    match sb.verify_layout(pool) {
        Ok(()) => clean("layout block", off, len),
        Err((block, d)) => fatal("layout block", block, len, d),
    }
}

impl Dgap {
    /// On-demand integrity pass over a live instance.
    ///
    /// Sweeps every CRC-sealed region, repairing what is repairable
    /// (re-zeroing garbage past an edge-log tail) and reporting the rest.
    /// Safe to run concurrently with writers: each edge-log section is
    /// swept under its section lock, undo logs under their mutexes.  The
    /// graceful-shutdown seals (metadata backup, section CRC table) are
    /// only checked while the `NORMAL_SHUTDOWN` flag is still set — on a
    /// running instance they are stale by construction and skipped.
    ///
    /// Never fails: fatal regions are reported, not raised, so a scrubber
    /// can count them and the caller decides whether to quarantine.
    pub fn verify(&self) -> VerifyReport {
        let _rg = self.resize_lock.read();
        let pool = self.pool();
        let mut report = VerifyReport::default();
        report.push(pool_header_report(pool));
        report.push(superblock_report(pool, self.superblock()));
        report.push(layout_report(pool, self.superblock()));
        for (i, m) in self.ulogs_for_recovery().iter().enumerate() {
            let ulog = m.lock();
            let (off, len) = ulog.header_region();
            let name = format!("undo-log {i} header");
            // Under the log's mutex it is at rest: the header CRC is
            // re-sealed at every protocol step and the armed-data check is
            // a no-op on a disarmed log.
            report.push(
                match ulog.verify_header().and_then(|()| ulog.verify_armed_data()) {
                    Ok(()) => clean(&name, off, len),
                    Err(d) => fatal(&name, off, len, d),
                },
            );
        }
        self.sweep_elogs(&mut report);
        if self.superblock().normal_shutdown(pool) {
            self.check_section_table(&mut report);
            self.check_backup(&mut report);
        }
        report
    }

    /// The open-time verify pass, run by
    /// [`Dgap::open_verified`](crate::graph::Dgap::open_verified) after the
    /// persistent components are attached but before any state is loaded.
    ///
    /// `normal` is the recorded `NORMAL_SHUTDOWN` flag; the return value is
    /// the *effective* flag — a corrupt metadata backup downgrades a
    /// graceful restart to a crash scan (which rebuilds the identical
    /// state from the verified edge array and logs).  Fatal regions abort
    /// with [`GraphError::Corrupted`].
    pub(crate) fn verify_on_open(
        &self,
        normal: bool,
        report: &mut VerifyReport,
    ) -> Result<bool, GraphError> {
        let _rg = self.resize_lock.read();
        for (i, m) in self.ulogs_for_recovery().iter().enumerate() {
            let mut ulog = m.lock();
            let (off, len) = ulog.header_region();
            let name = format!("undo-log {i} header");
            match ulog.verify_header() {
                Ok(()) if normal => report.push(clean(&name, off, len)),
                Ok(()) => report.push(match ulog.verify_armed_data() {
                    Ok(()) => clean(&name, off, len),
                    Err(d) => fatal(&format!("undo-log {i} backup data"), off, len, d),
                }),
                Err(d) if normal => {
                    // Shutdown cannot complete mid-rebalance, so the log is
                    // known disarmed; a fresh header loses nothing.
                    ulog.reinit_header();
                    report.push(repaired(
                        &name,
                        off,
                        len,
                        format!("{d}; header re-initialised (logs are disarmed across a graceful shutdown)"),
                    ));
                }
                Err(d) => report.push(fatal(&name, off, len, d)),
            }
        }
        self.sweep_elogs(report);
        let mut effective = normal;
        if normal {
            // The full-array re-checksum is opt-in: a default graceful
            // restart stays O(metadata), the paper's headline property.
            if self.config().verify_data_on_open {
                self.check_section_table(report);
            }
            effective = self.check_backup(report);
        }
        match report.fatal_error(self.pool()) {
            Some(e) => Err(e),
            None => Ok(effective),
        }
    }

    /// Enumerate every region the verify pass covers (see
    /// [`CoveredRegion`]).  The graceful-shutdown seals only appear after
    /// a [`Dgap::shutdown`] has written them, and the edge-array and
    /// CRC-table entries are only checked at open when
    /// `verify_data_on_open` is set (on-demand [`Dgap::verify`] always
    /// checks them while the shutdown flag is up).
    pub fn covered_regions(&self) -> Vec<CoveredRegion> {
        let pool = self.pool();
        let sb = self.superblock();
        let region =
            |name: &str, offset: PmemOffset, len: u64, covered_after_crash: bool| CoveredRegion {
                name: name.to_string(),
                offset,
                len,
                covered_after_crash,
            };
        let mut out = vec![region("pool header", 0, pool.header_bytes() as u64, true)];
        let (off, len) = sb.region();
        out.push(region("superblock", off, len, true));
        if let Some((off, len)) = sb.layout_block(pool) {
            out.push(region("layout block", off, len, true));
        }
        for (i, m) in self.ulogs_for_recovery().iter().enumerate() {
            let (off, len) = m.lock().header_region();
            out.push(region(&format!("undo-log {i} header"), off, len, true));
        }
        out.push(region(
            "edge logs",
            self.elogs.base_offset(),
            self.elogs.total_bytes() as u64,
            true,
        ));
        out.push(region(
            "edge array",
            self.edges.base_offset(),
            (self.edges.capacity() * SLOT_BYTES) as u64,
            false,
        ));
        if let Some((off, len)) = sb.backup(pool) {
            out.push(region("metadata backup", off, len as u64, false));
        }
        if let Some((off, len)) = sb.section_crcs(pool) {
            out.push(region("section crc table", off, len as u64, false));
        }
        out
    }

    /// CRC-sweep every edge-log section (in parallel on graphs big enough
    /// to matter), re-zeroing repairable tail garbage and reporting the
    /// rest as fatal.  The scan runs under section read locks; repairs
    /// retake the section's write lock and re-classify under it.
    fn sweep_elogs(&self, report: &mut VerifyReport) {
        use rayon::prelude::*;
        let n = self.elogs.num_sections();
        let parallel = self.config().parallel_recovery
            && rayon::current_num_threads() > 1
            && self.elogs.total_bytes() >= PARALLEL_VERIFY_MIN_BYTES;
        let faulted: Vec<usize> = if parallel {
            (0..n)
                .collect::<Vec<_>>()
                .into_par_iter()
                .filter_map(|s| {
                    self.with_sections_read(&[s], || self.elogs.verify_section(s))
                        .is_err()
                        .then_some(s)
                })
                .collect()
        } else {
            (0..n)
                .filter(|&s| {
                    self.with_sections_read(&[s], || self.elogs.verify_section(s))
                        .is_err()
                })
                .collect()
        };
        let (base, total) = (self.elogs.base_offset(), self.elogs.total_bytes() as u64);
        if faulted.is_empty() {
            report.push(clean("edge logs", base, total));
            return;
        }
        let section_len = total / n.max(1) as u64;
        for s in faulted {
            self.with_sections_write(&[s], || {
                let name = format!("edge-log section {s}");
                match self.elogs.verify_section(s) {
                    Ok(()) => report.push(clean(&name, base, 0)),
                    Err(f) if f.repairable => {
                        self.elogs.zero_tail(s, f.global);
                        report.push(match self.elogs.verify_section(s) {
                            Ok(()) => repaired(
                                &name,
                                f.offset,
                                section_len,
                                format!("{}; log tail re-zeroed", f.detail),
                            ),
                            Err(f2) => fatal(&name, f2.offset, section_len, f2.detail),
                        });
                    }
                    Err(f) => report.push(fatal(&name, f.offset, section_len, f.detail)),
                }
            });
        }
    }

    /// Check the edge array against the per-section CRC table sealed at
    /// the last graceful shutdown.  A corrupt table is discarded (it holds
    /// verification metadata only — no graph data is lost); a section that
    /// fails its recorded CRC is fatal.
    fn check_section_table(&self, report: &mut VerifyReport) {
        use rayon::prelude::*;
        let pool = self.pool();
        let Some((toff, tlen)) = self.superblock().section_crcs(pool) else {
            return;
        };
        let name = "section crc table";
        let edge_off = self.edges.base_offset();
        let edge_len = (self.edges.capacity() * SLOT_BYTES) as u64;
        let discard = |detail: String| {
            repaired(
                name,
                toff,
                tlen as u64,
                format!(
                    "{detail}; table discarded (verification metadata only, no graph data lost)"
                ),
            )
        };
        if tlen < 12 {
            report.push(discard(format!("table impossibly short ({tlen} bytes)")));
            return;
        }
        let table = pool.read_vec(toff, tlen);
        let stored = u32::from_le_bytes(table[tlen - 4..].try_into().unwrap());
        let actual = crc32c(&table[..tlen - 4]);
        if stored != actual {
            report.push(discard(format!(
                "table crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
            return;
        }
        let n = u64::from_le_bytes(table[0..8].try_into().unwrap()) as usize;
        let sections = self.edges.num_segments();
        if n != sections || tlen != 8 + n * 4 + 4 {
            report.push(discard(format!(
                "table records {n} sections but the array has {sections}"
            )));
            return;
        }
        let seg_bytes = self.edges.segment_size() * SLOT_BYTES;
        let recorded: Vec<u32> = (0..n)
            .map(|i| u32::from_le_bytes(table[8 + 4 * i..12 + 4 * i].try_into().unwrap()))
            .collect();
        let check = |s: usize| {
            let actual = crc32c(&pool.read_vec(edge_off + (s * seg_bytes) as u64, seg_bytes));
            (actual != recorded[s]).then_some((s, recorded[s], actual))
        };
        let parallel = self.config().parallel_recovery
            && rayon::current_num_threads() > 1
            && edge_len as usize >= PARALLEL_VERIFY_MIN_BYTES;
        let mismatches: Vec<(usize, u32, u32)> = if parallel {
            (0..n)
                .collect::<Vec<_>>()
                .into_par_iter()
                .filter_map(check)
                .collect()
        } else {
            (0..n).filter_map(check).collect()
        };
        report.push(match mismatches.first() {
            None => clean("edge array", edge_off, edge_len),
            Some(&(s, stored, actual)) => fatal(
                &format!("edge section {s}"),
                edge_off + (s * seg_bytes) as u64,
                seg_bytes as u64,
                format!("crc mismatch: stored {stored:#010x}, computed {actual:#010x}"),
            ),
        });
    }

    /// Check the graceful-shutdown metadata backup against its recorded
    /// CRC.  Returns whether the backup is still usable; a mismatch is
    /// repairable by downgrading to a crash scan of the (already verified)
    /// edge array and logs.
    fn check_backup(&self, report: &mut VerifyReport) -> bool {
        let pool = self.pool();
        let sb = self.superblock();
        let Some((off, len)) = sb.backup(pool) else {
            report.push(repaired(
                "metadata backup",
                0,
                0,
                "normal shutdown recorded but no backup region; falling back to a crash scan"
                    .to_string(),
            ));
            return false;
        };
        let stored = sb.backup_crc(pool);
        let actual = crc32c(&pool.read_vec(off, len));
        if stored != actual {
            report.push(repaired(
                "metadata backup",
                off,
                len as u64,
                format!(
                    "backup crc mismatch: stored {stored:#010x}, computed {actual:#010x}; \
                     falling back to a crash scan"
                ),
            ));
            false
        } else {
            report.push(clean("metadata backup", off, len as u64));
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DgapConfig;
    use crate::recovery::RecoveryKind;
    use crate::traits::{DynamicGraph, GraphView};
    use pmem::{PmemConfig, PmemPool};
    use std::sync::Arc;

    fn pool() -> Arc<PmemPool> {
        Arc::new(PmemPool::new(PmemConfig::small_test()))
    }

    fn populated(p: &Arc<PmemPool>, n: usize) -> Dgap {
        let g = Dgap::create(Arc::clone(p), DgapConfig::small_test()).unwrap();
        let mut x = 0x1234_5678u64;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            g.insert_edge((x >> 33) % 48, (x >> 17) % 48).unwrap();
        }
        g
    }

    #[test]
    fn live_verify_is_clean_and_covers_every_region() {
        let p = pool();
        let g = populated(&p, 1200);
        let report = g.verify();
        assert!(!report.is_fatal(), "{report:?}");
        assert!(report.repaired().is_empty());
        assert!(report.bytes_verified() > 0);
        let names: Vec<_> = report.regions.iter().map(|r| r.region.as_str()).collect();
        assert!(names.contains(&"pool header"));
        assert!(names.contains(&"superblock"));
        assert!(names.contains(&"edge logs"));
    }

    #[test]
    fn post_shutdown_verify_checks_backup_and_sections() {
        let p = pool();
        let g = populated(&p, 800);
        g.shutdown().unwrap();
        let report = g.verify();
        assert!(!report.is_fatal(), "{report:?}");
        let names: Vec<_> = report.regions.iter().map(|r| r.region.as_str()).collect();
        assert!(names.contains(&"edge array"), "{names:?}");
        assert!(names.contains(&"metadata backup"), "{names:?}");
    }

    #[test]
    fn covered_regions_gain_shutdown_seals() {
        let p = pool();
        let g = populated(&p, 500);
        let before = g.covered_regions();
        assert!(before.iter().all(|r| r.name != "metadata backup"));
        g.shutdown().unwrap();
        let after = g.covered_regions();
        assert!(after.iter().any(|r| r.name == "metadata backup"));
        assert!(after.iter().any(|r| r.name == "section crc table"));
        // Regions must not overlap each other.
        let mut spans: Vec<_> = after.iter().map(|r| (r.offset, r.offset + r.len)).collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping covered regions: {after:?}");
        }
    }

    #[test]
    fn corrupt_backup_downgrades_to_crash_scan_with_exact_state() {
        let p = pool();
        let g = populated(&p, 1500);
        let view: Vec<Vec<u64>> = {
            let v = g.consistent_view();
            (0..48).map(|x| v.neighbors(x)).collect()
        };
        g.shutdown().unwrap();
        let (boff, _) = g.superblock().backup(g.pool()).unwrap();
        drop(g);
        p.simulate_crash();
        p.inject_bit_flip(boff + 40, 3);
        let (g2, kind, report) =
            Dgap::open_verified(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        assert!(
            matches!(kind, RecoveryKind::CrashRecovery { .. }),
            "{kind:?}"
        );
        assert_eq!(report.repaired().len(), 1, "{report:?}");
        let v2 = g2.consistent_view();
        for (x, expect) in view.iter().enumerate() {
            assert_eq!(&v2.neighbors(x as u64), expect, "vertex {x}");
        }
    }

    #[test]
    fn corrupt_edge_section_is_fatal_after_graceful_shutdown() {
        let p = pool();
        let g = populated(&p, 1500);
        g.shutdown().unwrap();
        let edge_base = g.edges.base_offset();
        drop(g);
        p.simulate_crash();
        p.inject_bit_flip(edge_base + 24, 5);
        let cfg = DgapConfig::small_test().verify_data_on_open(true);
        let err = match Dgap::open_verified(Arc::clone(&p), cfg) {
            Err(e) => e,
            Ok(_) => panic!("open must refuse the corrupt image"),
        };
        match err {
            GraphError::Corrupted { region, detail } => {
                assert!(region.starts_with("edge section"), "{region}");
                assert!(detail.contains("crc mismatch"), "{detail}");
            }
            other => panic!("expected Corrupted, got {other}"),
        }
    }

    #[test]
    fn corrupt_section_table_is_discarded_without_data_loss() {
        let p = pool();
        let g = populated(&p, 900);
        let edges_before = DynamicGraph::num_edges(&g);
        g.shutdown().unwrap();
        let (toff, _) = g.superblock().section_crcs(g.pool()).unwrap();
        drop(g);
        p.simulate_crash();
        p.inject_bit_flip(toff + 9, 1);
        let cfg = DgapConfig::small_test().verify_data_on_open(true);
        let (g2, kind, report) = Dgap::open_verified(Arc::clone(&p), cfg).unwrap();
        assert_eq!(kind, RecoveryKind::NormalRestart);
        assert_eq!(report.repaired().len(), 1, "{report:?}");
        assert_eq!(DynamicGraph::num_edges(&g2), edges_before);
    }

    #[test]
    fn corrupt_elog_tail_is_repaired_on_crash_open() {
        let p = pool();
        let g = populated(&p, 400);
        let edges_before = DynamicGraph::num_edges(&g);
        // Garble the *second* cache line of a section whose log is empty:
        // the slots before it are zero, so the damage reads as garbage past
        // the log tail — repairable by re-zeroing.  (Garbage in the first
        // slot would be indistinguishable from a corrupted live entry and
        // classified fatal.)
        let empty = (0..g.elogs.num_sections())
            .find(|&s| g.elogs.used(s) == 0)
            .expect("a 400-edge small_test graph leaves empty sections");
        let section_bytes = g.elogs.entries_per_section() * crate::elog::ELOG_ENTRY_BYTES;
        let target = g.elogs.base_offset() + (empty * section_bytes) as u64 + 64;
        assert!(section_bytes > 64 + 64);
        drop(g);
        p.simulate_crash();
        p.inject_torn_line(target, 7);
        let (g2, _, report) =
            Dgap::open_verified(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        assert_eq!(report.repaired().len(), 1, "{report:?}");
        assert_eq!(DynamicGraph::num_edges(&g2), edges_before);
    }

    #[test]
    fn corrupt_live_elog_entry_is_fatal_on_crash_open() {
        let p = pool();
        let g = Dgap::create(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        // Insert until some section holds a live log entry (checking after
        // every insert, before a merge can clear it again), then flip a bit
        // in that entry's payload.
        let mut x = 0x1234_5678u64;
        let mut target = None;
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            g.insert_edge((x >> 33) % 48, (x >> 17) % 48).unwrap();
            if let Some(s) = (0..g.elogs.num_sections()).find(|&s| g.elogs.used(s) > 0) {
                target = Some(s);
                break;
            }
        }
        let s = target.expect("inserts must reach the edge log");
        let entries = g.elogs.entries_per_section();
        let off = g.elogs.base_offset() + (s * entries * crate::elog::ELOG_ENTRY_BYTES) as u64;
        drop(g);
        p.simulate_crash();
        p.inject_bit_flip(off + 5, 2);
        let err = match Dgap::open_verified(Arc::clone(&p), DgapConfig::small_test()) {
            Err(e) => e,
            Ok(_) => panic!("open must refuse the corrupt image"),
        };
        match err {
            GraphError::Corrupted { region, detail } => {
                assert!(region.starts_with("edge-log section"), "{region}");
                assert!(detail.contains("@ +"), "{detail}");
            }
            other => panic!("expected Corrupted, got {other}"),
        }
    }

    #[test]
    fn corrupt_ulog_header_repairs_gracefully_but_is_fatal_after_crash() {
        let p = pool();
        let g = populated(&p, 300);
        let (uoff, _) = g.ulogs_for_recovery()[0].lock().header_region();
        g.shutdown().unwrap();
        drop(g);
        p.simulate_crash();
        p.inject_bit_flip(uoff + 12, 6);
        let (g2, kind, report) =
            Dgap::open_verified(Arc::clone(&p), DgapConfig::small_test()).unwrap();
        assert_eq!(kind, RecoveryKind::NormalRestart);
        assert_eq!(report.repaired().len(), 1, "{report:?}");
        drop(g2);

        // Same damage without the graceful flag: the log's state cannot be
        // trusted, so the open must refuse.
        p.simulate_crash(); // flag was cleared by the successful open
        p.inject_bit_flip(uoff + 12, 6);
        let err = match Dgap::open_verified(Arc::clone(&p), DgapConfig::small_test()) {
            Err(e) => e,
            Ok(_) => panic!("open must refuse the corrupt image"),
        };
        assert!(matches!(err, GraphError::Corrupted { .. }), "{err}");
    }
}
