//! The DGAP framework: a single mutable CSR on persistent memory.
//!
//! [`Dgap`] ties together the four components of Fig. 2:
//!
//! 1. the DRAM **vertex array** ([`crate::vertex`]),
//! 2. the PM **edge array** ([`crate::edges`]), a vertex-centric PMA,
//! 3. the PM **per-section edge logs** ([`crate::elog`]), and
//! 4. the PM **per-thread undo logs** ([`crate::ulog`]).
//!
//! Multiple writer threads may call [`Dgap::insert_edge`] concurrently;
//! analysis tasks call [`Dgap::consistent_view`] to obtain a
//! [`DgapSnapshot`] (the paper's degree-cache snapshot) and iterate it while
//! updates continue.
//!
//! # Concurrency model
//!
//! * A global `resize` read-write lock: every insert and every snapshot
//!   read (one vertex, or a batch of them) holds it for reading; an
//!   edge-array resize takes it for writing.
//! * One read-write lock per PMA section.  Inserts lock the source vertex's
//!   pivot section and the section containing its insertion point;
//!   rebalances lock every section of their window; readers lock the
//!   sections spanned by the extent they scan.  Locks are always acquired in
//!   ascending section order, and every operation re-validates the vertex
//!   metadata after locking (retrying if a concurrent rebalance moved it).

use crate::config::{DgapConfig, Placement};
use crate::edges::EdgeArray;
use crate::elog::{EdgeLogs, ElogEntry};
use crate::meta::{Layout, Superblock};
use crate::slot::Slot;
use crate::traits::{
    DynamicGraph, GraphError, GraphResult, GraphView, SnapshotSource, VertexId, Vertices,
};
use crate::ulog::UndoLog;
use crate::vertex::{VertexArray, VertexEntry, NO_ELOG, NO_START};
use parking_lot::{Mutex, RwLock};
use pma::{plan_weighted, DensityTree, Extent, SegmentGeometry};
use pmem::tx::TxContext;
use pmem::{PmemOffset, PmemPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Optimistic attempts a snapshot read makes at locking just its span
/// before falling back to locking every section.
const OPTIMISTIC_READ_ATTEMPTS: usize = 8;

/// Operation counters maintained by a [`Dgap`] instance.
#[derive(Debug, Default)]
pub struct DgapStats {
    /// Edges written directly into an empty edge-array slot.
    pub array_inserts: AtomicU64,
    /// Edges appended to a per-section edge log.
    pub elog_inserts: AtomicU64,
    /// Edges inserted via a nearby shift (only in the "No EL" ablation).
    pub shift_inserts: AtomicU64,
    /// Slots moved by nearby shifts.
    pub shifted_slots: AtomicU64,
    /// Window rebalances performed (includes single-section merges).
    pub rebalances: AtomicU64,
    /// Edge-log merges folded into rebalances.
    pub merges: AtomicU64,
    /// Edge-array resizes.
    pub resizes: AtomicU64,
    /// Tombstone records inserted.
    pub deletes: AtomicU64,
    /// Interrupted rebalances rolled back during crash recovery.
    pub recovered_rebalances: AtomicU64,
}

/// A plain snapshot of [`DgapStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DgapStatsSnapshot {
    /// See [`DgapStats::array_inserts`].
    pub array_inserts: u64,
    /// See [`DgapStats::elog_inserts`].
    pub elog_inserts: u64,
    /// See [`DgapStats::shift_inserts`].
    pub shift_inserts: u64,
    /// See [`DgapStats::shifted_slots`].
    pub shifted_slots: u64,
    /// See [`DgapStats::rebalances`].
    pub rebalances: u64,
    /// See [`DgapStats::merges`].
    pub merges: u64,
    /// See [`DgapStats::resizes`].
    pub resizes: u64,
    /// See [`DgapStats::deletes`].
    pub deletes: u64,
    /// See [`DgapStats::recovered_rebalances`].
    pub recovered_rebalances: u64,
}

impl DgapStats {
    /// Copy all counters.
    pub fn snapshot(&self) -> DgapStatsSnapshot {
        DgapStatsSnapshot {
            array_inserts: self.array_inserts.load(Ordering::Relaxed),
            elog_inserts: self.elog_inserts.load(Ordering::Relaxed),
            shift_inserts: self.shift_inserts.load(Ordering::Relaxed),
            shifted_slots: self.shifted_slots.load(Ordering::Relaxed),
            rebalances: self.rebalances.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            resizes: self.resizes.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            recovered_rebalances: self.recovered_rebalances.load(Ordering::Relaxed),
        }
    }
}

/// What an attempt at inserting one record concluded.
#[derive(Debug)]
enum InsertAction {
    /// Record durably inserted; no maintenance needed.
    Done,
    /// Record durably inserted; section should be rebalanced / merged.
    Maintain(usize),
    /// Nothing inserted; maintenance required before retrying.
    MaintainAndRetry(usize),
    /// Nothing inserted; metadata changed under us, retry from scratch.
    Retry,
    /// Nothing inserted; the vertex has no pivot yet.
    NeedPlacement,
}

/// The DGAP dynamic-graph framework (see the [module docs](self)).
pub struct Dgap {
    pool: Arc<PmemPool>,
    cfg: DgapConfig,
    sb: Superblock,
    pub(crate) vertices: VertexArray,
    pub(crate) edges: EdgeArray,
    pub(crate) elogs: EdgeLogs,
    ulogs: Vec<Mutex<UndoLog>>,
    pub(crate) tree: Mutex<DensityTree>,
    /// PM mirror of the per-section occupancy counters, used only by the
    /// data-placement ablation (Table 5, "No EL&UL&DP").
    tree_mirror: Option<PmemOffset>,
    pub(crate) section_locks: RwLock<Vec<RwLock<()>>>,
    pub(crate) resize_lock: RwLock<()>,
    /// First slot index after the last occupied slot (used to place pivots
    /// of vertices that appear after initialisation).
    tail: AtomicU64,
    /// Total edge records inserted (tombstones included).
    records: AtomicU64,
    /// Highest vertex id seen plus one.
    num_vertices: AtomicU64,
    stats: DgapStats,
}

impl Dgap {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Create a fresh DGAP instance inside `pool`.
    ///
    /// Pre-allocates the vertex array (DRAM), the edge array, the
    /// per-section edge logs and the per-thread undo logs (PM), places one
    /// pivot per expected vertex and persists the superblock.
    pub fn create(pool: Arc<PmemPool>, cfg: DgapConfig) -> GraphResult<Self> {
        cfg.validate();
        let sb = Superblock::create(&pool).map_err(pm_err)?;
        sb.set_config(&pool, cfg.segment_size, cfg.elog_size);

        let geom = SegmentGeometry::for_capacity(cfg.segment_size, cfg.initial_slots());
        let edges = EdgeArray::new(Arc::clone(&pool), cfg.segment_size, geom.num_segments)
            .map_err(pm_err)?;
        let elogs =
            EdgeLogs::new(Arc::clone(&pool), geom.num_segments, cfg.elog_size).map_err(pm_err)?;
        sb.publish_layout(
            &pool,
            Layout {
                edge_base: edges.base_offset(),
                num_segments: geom.num_segments,
                elog_base: elogs.base_offset(),
            },
        )
        .map_err(pm_err)?;

        let mut ulogs = Vec::new();
        let mut ulog_offsets = Vec::new();
        let ulog_capacity = cfg.ulog_size.max(cfg.segment_size * 8 * 4);
        for _ in 0..cfg.writer_threads {
            let u =
                UndoLog::new(Arc::clone(&pool), ulog_capacity, cfg.ulog_size).map_err(pm_err)?;
            ulog_offsets.push(u.region_offset());
            ulogs.push(Mutex::new(u));
        }
        sb.set_ulogs(&pool, &ulog_offsets, ulog_capacity, cfg.ulog_size)
            .map_err(pm_err)?;

        let (vertices, tree_mirror) = match cfg.metadata_placement {
            Placement::Dram => (VertexArray::new(cfg.init_vertices), None),
            Placement::Pmem => {
                let vbase = pool
                    .alloc_zeroed(cfg.init_vertices * crate::vertex::MIRROR_ENTRY_BYTES, 64)
                    .map_err(pm_err)?;
                let tbase = pool
                    .alloc_zeroed(geom.num_segments * 8, 64)
                    .map_err(pm_err)?;
                (
                    VertexArray::new_mirrored(cfg.init_vertices, Arc::clone(&pool), vbase),
                    Some(tbase),
                )
            }
        };

        let tree = DensityTree::new(geom, cfg.density);
        let section_locks = (0..geom.num_segments).map(|_| RwLock::new(())).collect();

        let g = Dgap {
            pool,
            sb,
            vertices,
            edges,
            elogs,
            ulogs,
            tree: Mutex::new(tree),
            tree_mirror,
            section_locks: RwLock::new(section_locks),
            resize_lock: RwLock::new(()),
            tail: AtomicU64::new(0),
            records: AtomicU64::new(0),
            num_vertices: AtomicU64::new(cfg.init_vertices as u64),
            stats: DgapStats::default(),
            cfg,
        };
        g.sb.set_num_vertices(&g.pool, g.cfg.init_vertices);
        g.write_initial_layout()?;
        // The freshly created instance is in a consistent, durable state.
        g.sb.set_normal_shutdown(&g.pool, false);
        Ok(g)
    }

    /// Lay out one pivot per expected vertex, spread across the initial
    /// array with VCSR-style even gaps, and persist the result.
    fn write_initial_layout(&self) -> GraphResult<()> {
        let nv = self.cfg.init_vertices;
        let capacity = self.edges.capacity();
        let extents: Vec<Extent> = (0..nv as u64).map(|v| Extent { id: v, count: 1 }).collect();
        let plan = pma::plan_even(&extents, capacity);
        let mut words = vec![0u64; capacity];
        for p in &plan {
            words[p.start] = Slot::Pivot(p.id).encode();
        }
        // Bulk sequential write, one section at a time.
        let seg = self.cfg.segment_size;
        for (section, chunk) in words.chunks(seg).enumerate() {
            self.edges.write_raw_persist((section * seg) as u64, chunk);
            self.tree_set_occupancy(section, chunk.iter().filter(|&&w| w != 0).count());
        }
        for p in &plan {
            self.vertices.set(
                p.id,
                VertexEntry {
                    degree: 0,
                    in_array: 0,
                    start: p.start as u64,
                    elog_head: NO_ELOG,
                },
            );
        }
        let tail = plan.last().map_or(0, |p| (p.start + 1) as u64);
        self.tail.store(tail, Ordering::Release);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The configuration this instance was created with.
    pub fn config(&self) -> &DgapConfig {
        &self.cfg
    }

    /// The persistent-memory pool backing this instance.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Operation counters.
    pub fn stats(&self) -> DgapStatsSnapshot {
        self.stats.snapshot()
    }

    /// Statistics of the per-section edge logs (Fig. 9).
    pub fn elog_stats(&self) -> crate::elog::ElogStats {
        self.elogs.stats()
    }

    /// Total bytes of PM dedicated to the per-section edge logs (Fig. 9).
    pub fn elog_total_bytes(&self) -> usize {
        self.elogs.total_bytes()
    }

    /// Live (un-snapshotted) degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.vertices.degree(v) as usize
    }

    /// Number of sections currently in the edge array.
    pub fn num_sections(&self) -> usize {
        self.edges.num_segments()
    }

    /// The superblock handle (used by recovery and tests).
    pub(crate) fn superblock(&self) -> &Superblock {
        &self.sb
    }

    // ------------------------------------------------------------------
    // Density-tree helpers (with optional PM write-through for the ablation)
    // ------------------------------------------------------------------

    fn tree_mirror_write(&self, section: usize, occupancy: usize) {
        if let Some(base) = self.tree_mirror {
            let off = base + (section as u64) * 8;
            if (off + 8) as usize <= self.pool.capacity() {
                self.pool.write_u64(off, occupancy as u64);
                self.pool.persist(off, 8);
            }
        }
    }

    fn tree_add(&self, section: usize, n: usize) {
        let mut t = self.tree.lock();
        t.add(section, n);
        let occ = t.occupancy(section);
        drop(t);
        self.tree_mirror_write(section, occ);
    }

    fn tree_set_occupancy(&self, section: usize, occ: usize) {
        self.tree.lock().set_occupancy(section, occ);
        self.tree_mirror_write(section, occ);
    }

    fn section_needs_maintenance(&self, section: usize) -> bool {
        let dense = self.tree.lock().segment_overflowing(section);
        let log_full = self.cfg.use_edge_log
            && self.elogs.used(section) > 0
            && self.elogs.utilization(section) >= self.cfg.elog_merge_threshold;
        dense || log_full
    }

    // ------------------------------------------------------------------
    // Locking helpers
    // ------------------------------------------------------------------

    /// Run `f` while holding the write locks of `sections` (ascending,
    /// deduplicated by the caller).
    pub(crate) fn with_sections_write<R>(&self, sections: &[usize], f: impl FnOnce() -> R) -> R {
        let outer = self.section_locks.read();
        let mut guards = Vec::with_capacity(sections.len());
        for &s in sections {
            if s < outer.len() {
                guards.push(outer[s].write());
            }
        }
        f()
    }

    /// Run `f` while holding the read locks of `sections`.
    pub(crate) fn with_sections_read<R>(&self, sections: &[usize], f: impl FnOnce() -> R) -> R {
        let outer = self.section_locks.read();
        let mut guards = Vec::with_capacity(sections.len());
        for &s in sections {
            if s < outer.len() {
                guards.push(outer[s].read());
            }
        }
        f()
    }

    fn ulog_for_current_thread(&self) -> &Mutex<UndoLog> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        let idx = (h.finish() as usize) % self.ulogs.len();
        &self.ulogs[idx]
    }

    // ------------------------------------------------------------------
    // Vertex management
    // ------------------------------------------------------------------

    fn ensure_vertex_range(&self, v: VertexId) {
        self.vertices.ensure(v);
        let prev = self.num_vertices.fetch_max(v + 1, Ordering::AcqRel);
        if v + 1 > prev {
            self.sb.set_num_vertices(&self.pool, (v + 1) as usize);
        }
    }

    /// Place the pivot of a vertex that appeared after initialisation.
    fn place_vertex(&self, v: VertexId) -> GraphResult<()> {
        loop {
            let needs_resize = {
                let _rg = self.resize_lock.read();
                if self.vertices.entry(v).start != NO_START {
                    return Ok(());
                }
                let cap = self.edges.capacity() as u64;
                let t = self.tail.load(Ordering::Acquire);
                if t >= cap {
                    Some(self.edges.num_segments())
                } else {
                    let section = self.edges.section_of(t);
                    let placed = self.with_sections_write(&[section], || {
                        if self.vertices.entry(v).start != NO_START {
                            return true;
                        }
                        let t = self.tail.load(Ordering::Acquire);
                        if t >= cap || self.edges.section_of(t) != section {
                            return false; // moved on; retry
                        }
                        if self.edges.read_slot(t).is_empty() {
                            self.edges.write_slot_persist(t, Slot::Pivot(v));
                            self.vertices.set(
                                v,
                                VertexEntry {
                                    degree: 0,
                                    in_array: 0,
                                    start: t,
                                    elog_head: NO_ELOG,
                                },
                            );
                            self.tree_add(section, 1);
                            self.tail.store(t + 1, Ordering::Release);
                            true
                        } else {
                            self.tail.fetch_max(t + 1, Ordering::AcqRel);
                            false
                        }
                    });
                    if placed {
                        return Ok(());
                    }
                    None
                }
            };
            if let Some(seen_segments) = needs_resize {
                self.resize(seen_segments)?;
            }
        }
    }

    // ------------------------------------------------------------------
    // Edge insertion
    // ------------------------------------------------------------------

    fn insert_record(&self, src: VertexId, dst: VertexId, tombstone: bool) -> GraphResult<()> {
        self.ensure_vertex_range(src.max(dst));
        let mut attempts = 0usize;
        let mut blocked = 0usize;
        loop {
            attempts += 1;
            if attempts > 10_000 {
                return Err(GraphError::Other(format!(
                    "insert of ({src} -> {dst}) did not converge"
                )));
            }
            let action = self.try_insert_once(src, dst, tombstone);
            match action {
                InsertAction::Done => {
                    self.records.fetch_add(1, Ordering::Relaxed);
                    if tombstone {
                        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(());
                }
                InsertAction::Maintain(section) => {
                    self.records.fetch_add(1, Ordering::Relaxed);
                    if tombstone {
                        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
                    }
                    self.maintain(section, false)?;
                    return Ok(());
                }
                InsertAction::MaintainAndRetry(section) => {
                    // The insert could not proceed at all (full section or
                    // full edge log): force the maintenance even if the
                    // density heuristics would not have triggered it yet.
                    blocked += 1;
                    if blocked <= 4 {
                        self.maintain(section, true)?;
                    } else {
                        // Rebalancing alone is not opening a usable slot for
                        // this vertex (e.g. its extent exactly fills a
                        // section and the plan keeps giving it a zero tail
                        // gap).  Growing the array always creates room.
                        self.resize(self.edges.num_segments())?;
                        blocked = 0;
                    }
                }
                InsertAction::Retry => {}
                InsertAction::NeedPlacement => {
                    self.place_vertex(src)?;
                }
            }
        }
    }

    fn try_insert_once(&self, src: VertexId, dst: VertexId, tombstone: bool) -> InsertAction {
        let _rg = self.resize_lock.read();
        let e = self.vertices.entry(src);
        if e.start == NO_START {
            return InsertAction::NeedPlacement;
        }
        let cap = self.edges.capacity() as u64;
        let ip = e.start + 1 + u64::from(e.in_array);
        let s_piv = self.edges.section_of(e.start);
        let s_ip = self.edges.section_of(ip.min(cap - 1));
        let mut sections = vec![s_piv, s_ip];
        sections.sort_unstable();
        sections.dedup();

        self.with_sections_write(&sections, || {
            // Re-validate: a concurrent rebalance may have moved the vertex.
            let e = self.vertices.entry(src);
            if e.start == NO_START {
                return InsertAction::NeedPlacement;
            }
            let ip = e.start + 1 + u64::from(e.in_array);
            if self.edges.section_of(e.start) != s_piv
                || self.edges.section_of(ip.min(cap - 1)) != s_ip
            {
                return InsertAction::Retry;
            }
            let slot = if tombstone {
                Slot::Tombstone(dst)
            } else {
                Slot::Edge(dst)
            };

            // Case 1: the natural slot is free — write in place (no shift).
            if ip < cap && self.edges.read_slot(ip).is_empty() {
                self.edges.write_slot_persist(ip, slot);
                self.vertices.update(src, |v| {
                    v.degree += 1;
                    v.in_array += 1;
                });
                let sec = self.edges.section_of(ip);
                self.tree_add(sec, 1);
                self.tail.fetch_max(ip + 1, Ordering::AcqRel);
                self.stats.array_inserts.fetch_add(1, Ordering::Relaxed);
                return if self.section_needs_maintenance(sec) {
                    InsertAction::Maintain(sec)
                } else {
                    InsertAction::Done
                };
            }

            // Case 2: slot occupied — append to the per-section edge log.
            if self.cfg.use_edge_log {
                match self.elogs.append(s_piv, src, dst, tombstone, e.elog_head) {
                    Ok(idx) => {
                        self.vertices.update(src, |v| {
                            v.degree += 1;
                            v.elog_head = idx;
                        });
                        self.tree_add(s_piv, 1);
                        self.stats.elog_inserts.fetch_add(1, Ordering::Relaxed);
                        if self.section_needs_maintenance(s_piv) {
                            InsertAction::Maintain(s_piv)
                        } else {
                            InsertAction::Done
                        }
                    }
                    Err(_) => InsertAction::MaintainAndRetry(s_piv),
                }
            } else {
                // Ablation "No EL": perform the nearby shift the edge log is
                // designed to avoid.
                self.shift_insert(src, slot, &e, ip, cap)
            }
        })
    }

    /// Nearby-shift insertion (the naive mutable-CSR path, used only when
    /// the edge log is disabled).  Opens a slot for the new record by
    /// shifting the neighbouring run towards the nearest gap in its section
    /// (rightwards if possible, otherwise leftwards), updating the starts of
    /// any vertices whose pivots move.  This is exactly the write
    /// amplification the per-section edge log exists to avoid.
    fn shift_insert(
        &self,
        src: VertexId,
        slot: Slot,
        e: &VertexEntry,
        ip: u64,
        cap: u64,
    ) -> InsertAction {
        let _ = e;
        let sec = self.edges.section_of(ip.min(cap - 1));
        let range = self.edges.section_slots(sec);

        // Prefer a gap at or after the insertion point: shift [ip, gap)
        // right by one and drop the record at ip.  (When the insertion
        // point falls past the end of the array there is nothing to search
        // on the right; the left-shift below still applies.)
        if let Some(gap) = (ip..range.end.min(cap)).find(|&j| self.edges.read_slot(j).is_empty()) {
            let run = self.edges.read_raw(ip, (gap - ip) as usize);
            for (k, &word) in run.iter().enumerate().rev() {
                self.edges.write_slot(ip + k as u64 + 1, Slot::decode(word));
            }
            self.edges.write_slot(ip, slot);
            let touched = (gap - ip + 1) as usize * crate::slot::SLOT_BYTES;
            self.pool.persist(self.edges.slot_offset(ip), touched);
            for (k, &word) in run.iter().enumerate() {
                if let Slot::Pivot(v) = Slot::decode(word) {
                    self.vertices.update(v, |ve| ve.start = ip + k as u64 + 1);
                }
            }
            self.vertices.update(src, |v| {
                v.degree += 1;
                v.in_array += 1;
            });
            self.tree_add(sec, 1);
            self.tail.fetch_max(gap + 1, Ordering::AcqRel);
            self.stats.shift_inserts.fetch_add(1, Ordering::Relaxed);
            self.stats
                .shifted_slots
                .fetch_add(run.len() as u64, Ordering::Relaxed);
            return if self.section_needs_maintenance(sec) {
                InsertAction::Maintain(sec)
            } else {
                InsertAction::Done
            };
        }

        // Otherwise look for a gap before the source's pivot (extents are
        // contiguous, so any earlier gap precedes the pivot) and shift the
        // run [gap+1, ip) left by one; the record lands at ip − 1.
        let left_end = ip.min(cap);
        if left_end > range.start {
            if let Some(gap) = (range.start..left_end)
                .rev()
                .find(|&j| self.edges.read_slot(j).is_empty())
            {
                let run_start = gap + 1;
                let run = self
                    .edges
                    .read_raw(run_start, (left_end - run_start) as usize);
                for (k, &word) in run.iter().enumerate() {
                    self.edges.write_slot(gap + k as u64, Slot::decode(word));
                }
                self.edges.write_slot(ip - 1, slot);
                let touched = (ip - gap) as usize * crate::slot::SLOT_BYTES;
                self.pool.persist(self.edges.slot_offset(gap), touched);
                for (k, &word) in run.iter().enumerate() {
                    if let Slot::Pivot(v) = Slot::decode(word) {
                        self.vertices.update(v, |ve| ve.start = gap + k as u64);
                    }
                }
                self.vertices.update(src, |v| {
                    v.degree += 1;
                    v.in_array += 1;
                });
                self.tree_add(sec, 1);
                self.stats.shift_inserts.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .shifted_slots
                    .fetch_add(run.len() as u64, Ordering::Relaxed);
                return if self.section_needs_maintenance(sec) {
                    InsertAction::Maintain(sec)
                } else {
                    InsertAction::Done
                };
            }
        }

        // Section completely full: rebalance (its density is above any
        // threshold) and retry.
        InsertAction::MaintainAndRetry(sec)
    }

    // ------------------------------------------------------------------
    // Maintenance: rebalancing, merging, resizing
    // ------------------------------------------------------------------

    /// Bring `section` back within its density bounds (and fold its edge log
    /// back into the array), rebalancing a window or resizing as needed.
    ///
    /// With `force` set, the density heuristics are bypassed and the section
    /// is rebalanced unconditionally — used when an insert found no room at
    /// all (full section, full edge log) even though the aggregate density
    /// looks healthy.
    fn maintain(&self, section: usize, force: bool) -> GraphResult<()> {
        let decision = {
            let _rg = self.resize_lock.read();
            if section >= self.edges.num_segments() {
                return Ok(()); // a resize replaced the geometry
            }
            if !force && !self.section_needs_maintenance(section) {
                return Ok(());
            }
            (
                self.tree.lock().find_rebalance_window(section, 1),
                self.edges.num_segments(),
            )
        };
        match decision {
            (Some(w), seen_segments) => {
                let done = {
                    let _rg = self.resize_lock.read();
                    self.rebalance_window(w.first_segment, w.num_segments)?
                };
                if done {
                    return Ok(());
                }
                // The chosen window could not absorb its own edge logs —
                // grow the whole array instead.
                self.resize(seen_segments)
            }
            (None, seen_segments) => self.resize(seen_segments),
        }
    }

    /// Rebalance the window starting at section `first` spanning `count`
    /// sections: merge the window's edge logs, redistribute gaps with
    /// degree-weighted (VCSR) spreading and write the changed span back
    /// crash-consistently.  Returns `false` when the window needs to be
    /// re-planned (e.g. the geometry changed under us).
    ///
    /// Caller must hold the resize read lock.
    fn rebalance_window(&self, first: usize, count: usize) -> GraphResult<bool> {
        let mut first = first;
        let mut count = count;
        let mut sections: Vec<usize> = (first..first + count).collect();
        loop {
            let outcome = self.with_sections_write(&sections, || {
                if first + count > self.edges.num_segments() {
                    return RebalanceOutcome::Stale;
                }
                let window_start = self.edges.section_slots(first).start;
                let window_limit = self.edges.section_slots(first + count - 1).end;

                // Skip any leading continuation of a vertex whose pivot lies
                // before the window: those slots are left untouched.  `image`
                // is the planning read; it doubles as the old image of the
                // write-back (the section locks keep it current).
                let mut image = self
                    .edges
                    .read_raw(window_start, (window_limit - window_start) as usize);
                let skip = image
                    .iter()
                    .take_while(|&&word| Slot::decode(word).is_edge_record())
                    .count();
                let gstart = window_start + skip as u64;

                // Collect the vertices whose pivots fall inside the window.
                let mut items: Vec<(VertexId, Vec<u64>)> = Vec::new();
                for &word in &image[skip..] {
                    match Slot::decode(word) {
                        Slot::Pivot(v) => items.push((v, Vec::new())),
                        s if s.is_edge_record() => {
                            if let Some(last) = items.last_mut() {
                                last.1.push(word);
                            }
                        }
                        _ => {}
                    }
                }
                if items.is_empty() {
                    // The window holds only the continuation of a vertex
                    // whose pivot lies before it: widen towards that pivot.
                    return RebalanceOutcome::Widen;
                }

                // The last vertex's extent may continue past the window.  Its
                // true length is in the DRAM metadata (stable: we hold its
                // pivot-section lock).  If it reaches into sections we have
                // not locked yet, widen the lock set and retry.
                let (last_v, _) = *items.last().unwrap();
                let last_e = self.vertices.entry(last_v);
                let last_end = last_e.start + 1 + u64::from(last_e.in_array);
                let gend = window_limit.max(last_end);
                let needed_last_section = self.edges.section_of(gend.saturating_sub(1).max(gstart));
                if needed_last_section >= first + sections.len() {
                    return RebalanceOutcome::NeedSections(needed_last_section);
                }
                if last_end > window_limit {
                    // Read the spill-over part of the last extent, extending
                    // the old image to `gend`.
                    let spill = self
                        .edges
                        .read_raw(window_limit, (last_end - window_limit) as usize);
                    items.last_mut().unwrap().1.extend(
                        spill
                            .iter()
                            .copied()
                            .filter(|&w| Slot::decode(w).is_edge_record()),
                    );
                    image.extend_from_slice(&spill);
                }

                // Fold in every vertex's edge-log chain (they live in the
                // window sections by construction).
                let mut extents = Vec::with_capacity(items.len());
                let mut contents: Vec<Vec<u64>> = Vec::with_capacity(items.len());
                let mut merged_any_log = false;
                for (v, words) in &items {
                    let e = self.vertices.entry(*v);
                    let mut all = Vec::with_capacity(1 + words.len() + 4);
                    all.push(Slot::Pivot(*v).encode());
                    all.extend_from_slice(words);
                    if e.elog_head != NO_ELOG {
                        merged_any_log = true;
                        for le in self.elogs.chain_oldest_first(e.elog_head) {
                            all.push(le.slot().encode());
                        }
                    }
                    extents.push(Extent {
                        id: *v,
                        count: all.len(),
                    });
                    contents.push(all);
                }

                let capacity = (gend - gstart) as usize;
                let total: usize = extents.iter().map(|e| e.count).sum();
                if total > capacity {
                    // The window cannot absorb its own edge logs: try the
                    // parent window before giving up and resizing.
                    return RebalanceOutcome::Widen;
                }
                let plan = plan_weighted(&extents, capacity);

                // Build the new window image.
                let mut words = vec![0u64; capacity];
                for (p, content) in plan.iter().zip(&contents) {
                    words[p.start..p.start + content.len()].copy_from_slice(content);
                }

                // Crash-consistent write-back of the changed span only,
                // clearing the window's edge logs, which are now folded in.
                if let Err(e) =
                    self.write_back(gstart, &image[skip..], &words, first..first + count)
                {
                    return RebalanceOutcome::Error(GraphError::OutOfSpace(e.to_string()));
                }

                // Refresh DRAM metadata.
                for (p, content) in plan.iter().zip(&contents) {
                    self.vertices.update(p.id, |v| {
                        v.start = gstart + p.start as u64;
                        v.in_array = (content.len() - 1) as u32;
                        v.elog_head = NO_ELOG;
                    });
                }

                // Recount occupancy from the post-image; only the slots of
                // the last section past `gend` come from PM.
                image[skip..].copy_from_slice(&words);
                let last_section = self.edges.section_of(gend - 1);
                let last_end_slot = self.edges.section_slots(last_section).end;
                let beyond = match last_end_slot - gend {
                    0 => Vec::new(),
                    n => self.edges.read_raw(gend, n as usize),
                };
                let nonzero = |w: &[u64]| w.iter().filter(|&&w| w != 0).count();
                for s in first..=last_section {
                    let range = self.edges.section_slots(s);
                    let lo = (range.start - window_start) as usize;
                    let hi = (range.end.min(gend) - window_start) as usize;
                    let mut occupied = nonzero(&image[lo..hi]) + self.elogs.used(s);
                    if s == last_section {
                        occupied += nonzero(&beyond);
                    }
                    self.tree_set_occupancy(s, occupied);
                }
                self.tail.fetch_max(gend, Ordering::AcqRel);
                self.stats.rebalances.fetch_add(1, Ordering::Relaxed);
                if merged_any_log {
                    self.stats.merges.fetch_add(1, Ordering::Relaxed);
                }
                RebalanceOutcome::Done(true)
            });
            match outcome {
                RebalanceOutcome::Done(ok) => return Ok(ok),
                RebalanceOutcome::Stale => return Ok(true),
                RebalanceOutcome::NeedSections(up_to) => {
                    sections = (first..=up_to).collect();
                }
                RebalanceOutcome::Widen => {
                    let num_segments = self.edges.num_segments();
                    if count >= num_segments {
                        return Ok(false); // even the root window cannot help
                    }
                    count = (count * 2).min(num_segments);
                    first = (first / count) * count;
                    sections = (first..first + count).collect();
                }
                RebalanceOutcome::Error(e) => return Err(e),
            }
        }
    }

    /// Overwrite the slots from `gstart` on whose words differ between
    /// `old` (their current contents) and `new`, then clear the non-empty
    /// edge logs of the `merged` sections.  Only the span from the first to
    /// the last differing slot is written, and nothing at all when the
    /// images are equal.  Undo-logged, the log commits with the merged
    /// section range as its follow-up tag and is disarmed once the logs are
    /// clear, so a crash never leaves a merged entry both in the array and
    /// in its log.  The "No EL&UL" ablation protects the span with a
    /// PMDK-style transaction instead.
    fn write_back(
        &self,
        gstart: u64,
        old: &[u64],
        new: &[u64],
        merged: std::ops::Range<usize>,
    ) -> pmem::Result<()> {
        let differs = |(a, b): (&u64, &u64)| a != b;
        let Some(lo) = old.iter().zip(new).position(differs) else {
            return Ok(()); // merging a log always changes the image
        };
        let hi = old.iter().zip(new).rposition(differs).unwrap_or(lo) + 1;
        let span_off = self.edges.slot_offset(gstart + lo as u64);
        let bytes = EdgeArray::encode_raw(&new[lo..hi]);
        let logs: Vec<usize> = merged.clone().filter(|&s| self.elogs.used(s) > 0).collect();
        if self.cfg.use_undo_log {
            let old_bytes = EdgeArray::encode_raw(&old[lo..hi]);
            let follow_up = (!logs.is_empty()).then(|| (merged.start as u64, merged.len() as u64));
            // One guard across the commit, the clears and the disarm, so no
            // other writer reuses the log while the follow-up is pending.
            let mut ulog = self.ulog_for_current_thread().lock();
            ulog.protected_overwrite(span_off, &bytes, &old_bytes, follow_up)?;
            if follow_up.is_some() {
                for &s in &logs {
                    self.elogs.clear(s);
                }
                ulog.disarm();
            }
        } else {
            // Ablation: PMDK-style transaction, including the journal
            // allocation the paper calls out as expensive.
            let ctx = TxContext::new(&self.pool, bytes.len() + 64)?;
            let mut tx = ctx.begin()?;
            tx.add_range(span_off, bytes.len())?;
            self.pool.write(span_off, &bytes);
            tx.commit();
            for &s in &logs {
                self.elogs.clear(s);
            }
        }
        Ok(())
    }

    /// Double (or more) the edge array, merging every edge log and spreading
    /// all extents with degree-weighted gaps across the new region.
    ///
    /// The new region is written in full and published with a single atomic
    /// layout-block switch, so a crash at any point leaves either the old or
    /// the new generation fully intact — no undo logging required.
    ///
    /// `seen_segments` is the geometry the caller observed when it decided a
    /// resize was necessary; if another thread already grew the array in the
    /// meantime, the call is a no-op.
    pub(crate) fn resize(&self, seen_segments: usize) -> GraphResult<()> {
        let _wg = self.resize_lock.write();
        // Re-check under the exclusive lock: another thread may have already
        // resized while we waited.
        if self.edges.num_segments() != seen_segments {
            return Ok(());
        }

        // Gather every vertex in positional order, folding in edge logs.
        let mut items: Vec<(VertexId, Vec<u64>)> = Vec::new();
        self.edges.scan(|_, slot| match slot {
            Slot::Pivot(v) => items.push((v, Vec::new())),
            s if s.is_edge_record() => {
                if let Some(last) = items.last_mut() {
                    last.1.push(s.encode());
                }
            }
            _ => {}
        });
        let mut extents = Vec::with_capacity(items.len());
        let mut contents = Vec::with_capacity(items.len());
        for (v, words) in &items {
            let e = self.vertices.entry(*v);
            let mut all = Vec::with_capacity(1 + words.len() + 4);
            all.push(Slot::Pivot(*v).encode());
            all.extend_from_slice(words);
            if e.elog_head != NO_ELOG {
                for le in self.elogs.chain_oldest_first(e.elog_head) {
                    all.push(le.slot().encode());
                }
            }
            extents.push(Extent {
                id: *v,
                count: all.len(),
            });
            contents.push(all);
        }
        let total: usize = extents.iter().map(|e| e.count).sum();

        // Choose a new geometry that brings the root density to ~50 %.
        let mut num_segments = self.edges.num_segments().max(1);
        while (total as f64) / ((num_segments * self.cfg.segment_size) as f64) > 0.5 {
            num_segments *= 2;
        }
        if num_segments <= self.edges.num_segments() {
            num_segments = self.edges.num_segments() * 2;
        }
        let new_capacity = num_segments * self.cfg.segment_size;
        let plan = plan_weighted(&extents, new_capacity);

        // Build and persist the new generation.
        let new_base = self
            .edges
            .allocate_grown(num_segments)
            .map_err(|e| GraphError::OutOfSpace(e.to_string()))?;
        let mut words = vec![0u64; new_capacity];
        for (p, content) in plan.iter().zip(&contents) {
            words[p.start..p.start + content.len()].copy_from_slice(content);
        }
        let bytes = EdgeArray::encode_raw(&words);
        self.pool.write(new_base, &bytes);
        self.pool.persist(new_base, bytes.len());

        let new_elog_base = self
            .elogs
            .grow(num_segments)
            .map_err(|e| GraphError::OutOfSpace(e.to_string()))?;
        self.sb
            .publish_layout(
                &self.pool,
                Layout {
                    edge_base: new_base,
                    num_segments,
                    elog_base: new_elog_base,
                },
            )
            .map_err(pm_err)?;

        // Switch the volatile view over to the new generation.
        self.edges.switch_to(new_base, num_segments);
        for (p, content) in plan.iter().zip(&contents) {
            self.vertices.update(p.id, |v| {
                v.start = p.start as u64;
                v.in_array = (content.len() - 1) as u32;
                v.elog_head = NO_ELOG;
            });
        }
        let geom = SegmentGeometry::new(self.cfg.segment_size, num_segments);
        let mut tree = DensityTree::new(geom, self.cfg.density);
        for (i, chunk) in words.chunks(self.cfg.segment_size).enumerate() {
            tree.set_occupancy(i, chunk.iter().filter(|&&w| w != 0).count());
        }
        *self.tree.lock() = tree;
        *self.section_locks.write() = (0..num_segments).map(|_| RwLock::new(())).collect();
        let tail = plan.last().map_or(0, |p| (p.start + p.count) as u64);
        self.tail.store(tail, Ordering::Release);
        self.stats.resizes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Capture a consistent view of the latest graph for an analysis task
    /// (the paper's `g.consistent_view()`): allocates the task's Degree
    /// Cache and copies every vertex's current degree into it.
    pub fn consistent_view(&self) -> DgapSnapshot<'_> {
        let degrees = self.vertices.snapshot_degrees();
        let num_edges = degrees.iter().map(|&d| d as usize).sum();
        DgapSnapshot {
            graph: self,
            degrees,
            num_edges,
        }
    }

    /// Read up to `needed` edge records of `v`, in insertion order, into
    /// `out` (raw, tombstones included).  The snapshot's per-vertex path.
    fn read_records(&self, v: VertexId, needed: usize, out: &mut Vec<Slot>) {
        out.clear();
        if needed == 0 {
            return;
        }
        let _rg = self.resize_lock.read();
        let locks = self.section_locks.read();
        self.with_records_locked(&locks, v, needed, |e| {
            let take = (e.in_array as usize).min(needed);
            if take > 0 {
                let raw = self.edges.read_raw(e.start + 1, take);
                out.extend(raw.into_iter().map(Slot::decode));
            }
            if take < needed && e.elog_head != NO_ELOG {
                let chain = self.elogs.chain_oldest_first(e.elog_head);
                out.extend(chain.iter().take(needed - take).map(ElogEntry::slot));
            }
        });
    }

    /// The batched read behind [`DgapSnapshot::for_each_adjacency`]: one
    /// `resize_lock` read guard, one section-table guard and one
    /// [`pmem::ReadMeter`] for the whole batch; per vertex, the records are
    /// read straight from the pool image into reused buffers and resolved
    /// into `f`'s neighbour slice.  Vertex entries are still read (and
    /// section locks taken) per vertex: holding the vertex array's cell
    /// table across the batch could deadlock against a rebalance updating
    /// an entry while a writer waits to grow the table.
    fn read_adjacency(
        &self,
        degrees: &[u32],
        vertices: Vertices<'_>,
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) {
        let mut meter = self.pool.read_meter();
        let mut words = Vec::new();
        let mut chain = Vec::new();
        let mut out = Vec::new();
        let _rg = self.resize_lock.read();
        let locks = self.section_locks.read();
        for v in vertices.iter() {
            out.clear();
            let needed = degrees.get(v as usize).map_or(0, |&d| d as usize);
            if needed > 0 {
                self.with_records_locked(&locks, v, needed, |e| {
                    let take = (e.in_array as usize).min(needed);
                    if words.len() < take {
                        words.resize(take, 0);
                    }
                    let words = &mut words[..take];
                    if take > 0 {
                        self.edges.read_raw_metered(&mut meter, e.start + 1, words);
                    }
                    chain.clear();
                    if take < needed && e.elog_head != NO_ELOG {
                        self.elogs.read_chain(&mut meter, e.elog_head, &mut chain);
                    }
                    let logged = chain.iter().take(needed - take).map(ElogEntry::slot);
                    for slot in words.iter().map(|&w| Slot::decode(w)).chain(logged) {
                        apply_record(&mut out, slot);
                    }
                });
            }
            f(v, &out);
        }
    }

    /// Run `read` on `v`'s entry while the sections holding its first
    /// `needed` records are read-locked, so no insert, merge or rebalance
    /// can move or change them.  `None` when `v` was never placed.
    ///
    /// The caller holds `resize_lock` for reading; `locks` is the section
    /// table.  An optimistic attempt locks the sections spanned by the
    /// entry it read, then re-reads the entry and retries if a rebalance
    /// moved the span meanwhile.  After [`OPTIMISTIC_READ_ATTEMPTS`] it
    /// read-locks every section, which no writer can overlap, so the read
    /// always completes instead of reporting an empty list.
    fn with_records_locked<R>(
        &self,
        locks: &[RwLock<()>],
        v: VertexId,
        needed: usize,
        read: impl FnOnce(VertexEntry) -> R,
    ) -> Option<R> {
        for _ in 0..OPTIMISTIC_READ_ATTEMPTS {
            let e = self.vertices.entry(v);
            if e.start == NO_START {
                return None;
            }
            let (first, last) = self.record_sections(e, needed);
            // Most spans sit in one section: its guard needs no allocation.
            let _first = locks[first].read();
            let _rest: Vec<_> = locks[first + 1..=last].iter().map(RwLock::read).collect();
            let e2 = self.vertices.entry(v);
            if e2.start == e.start && self.record_sections(e2, needed).1 <= last {
                return Some(read(e2));
            }
        }
        self.with_all_sections_locked(locks, v, read)
    }

    /// The fallback of [`Dgap::with_records_locked`]: run `read` on `v`'s
    /// entry with every section read-locked, so nothing can move it.
    fn with_all_sections_locked<R>(
        &self,
        locks: &[RwLock<()>],
        v: VertexId,
        read: impl FnOnce(VertexEntry) -> R,
    ) -> Option<R> {
        let _all: Vec<_> = locks.iter().map(RwLock::read).collect();
        let e = self.vertices.entry(v);
        (e.start != NO_START).then(|| read(e))
    }

    /// First and last section holding `e`'s pivot and its first `needed`
    /// in-array records (the edge-log chain lives in the first section's
    /// log).
    fn record_sections(&self, e: VertexEntry, needed: usize) -> (usize, usize) {
        let take = u64::from(e.in_array).min(needed as u64);
        let end = (e.start + 1 + take).min(self.edges.capacity() as u64);
        (
            self.edges.section_of(e.start),
            self.edges.section_of(end.saturating_sub(1).max(e.start)),
        )
    }

    // ------------------------------------------------------------------
    // Consistency checking (tests and debugging)
    // ------------------------------------------------------------------

    /// Verify internal invariants: every placed vertex's pivot is where the
    /// DRAM metadata says, extents are contiguous, and degrees match the
    /// number of stored records.  Panics on violation (test helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let n = self.num_vertices.load(Ordering::Acquire);
        for v in 0..n {
            let e = self.vertices.entry(v);
            if e.start == NO_START {
                continue;
            }
            assert_eq!(
                self.edges.read_slot(e.start),
                Slot::Pivot(v),
                "vertex {v}: pivot not at recorded start {}",
                e.start
            );
            for k in 0..u64::from(e.in_array) {
                let s = self.edges.read_slot(e.start + 1 + k);
                assert!(
                    s.is_edge_record(),
                    "vertex {v}: slot {} should hold an edge record, found {s:?}",
                    e.start + 1 + k
                );
            }
            let elog_count = if e.elog_head != NO_ELOG {
                self.elogs.chain_oldest_first(e.elog_head).len()
            } else {
                0
            };
            assert_eq!(
                e.degree as usize,
                e.in_array as usize + elog_count,
                "vertex {v}: degree mismatch"
            );
        }
    }
}

impl Dgap {
    // ------------------------------------------------------------------
    // Internal helpers shared with the recovery module
    // ------------------------------------------------------------------

    /// Assemble an instance from already-attached components (used by
    /// [`Dgap::open`]); the caller then restores the DRAM metadata.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        pool: Arc<PmemPool>,
        cfg: DgapConfig,
        sb: Superblock,
        vertices: VertexArray,
        edges: EdgeArray,
        elogs: EdgeLogs,
        ulogs: Vec<Mutex<UndoLog>>,
        tree: DensityTree,
    ) -> Self {
        let num_segments = edges.num_segments();
        let num_vertices = vertices.len() as u64;
        Dgap {
            pool,
            sb,
            vertices,
            edges,
            elogs,
            ulogs,
            tree: Mutex::new(tree),
            tree_mirror: None,
            section_locks: RwLock::new((0..num_segments).map(|_| RwLock::new(())).collect()),
            resize_lock: RwLock::new(()),
            tail: AtomicU64::new(0),
            records: AtomicU64::new(0),
            num_vertices: AtomicU64::new(num_vertices),
            stats: DgapStats::default(),
            cfg,
        }
    }

    pub(crate) fn num_edges_internal(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    pub(crate) fn tail_value(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    pub(crate) fn ulogs_for_recovery(&self) -> &[Mutex<UndoLog>] {
        &self.ulogs
    }

    pub(crate) fn stats_recovered(&self, n: u64) {
        self.stats
            .recovered_rebalances
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Install recovered / reloaded DRAM state.
    pub(crate) fn restore_state(
        &self,
        entries: Vec<VertexEntry>,
        occupancies: Vec<usize>,
        tail: u64,
        records: u64,
    ) {
        self.vertices.load_entries(&entries);
        self.num_vertices
            .store(entries.len() as u64, Ordering::Release);
        let geom = SegmentGeometry::new(self.cfg.segment_size, self.edges.num_segments());
        let tree = DensityTree::rebuild_from(geom, self.cfg.density, occupancies);
        *self.tree.lock() = tree;
        self.tail.store(tail, Ordering::Release);
        self.records.store(records, Ordering::Relaxed);
    }
}

enum RebalanceOutcome {
    Done(bool),
    Stale,
    NeedSections(usize),
    Widen,
    Error(GraphError),
}

fn pm_err(e: pmem::PmemError) -> GraphError {
    GraphError::OutOfSpace(e.to_string())
}

// ----------------------------------------------------------------------
// Trait implementations
// ----------------------------------------------------------------------

impl DynamicGraph for Dgap {
    fn insert_vertex(&self, v: VertexId) -> GraphResult<()> {
        self.ensure_vertex_range(v);
        Ok(())
    }

    fn insert_edge(&self, src: VertexId, dst: VertexId) -> GraphResult<()> {
        self.insert_record(src, dst, false)
    }

    fn delete_edge(&self, src: VertexId, dst: VertexId) -> GraphResult<bool> {
        self.insert_record(src, dst, true).map(|()| true)
    }

    fn num_vertices(&self) -> usize {
        self.num_vertices.load(Ordering::Acquire) as usize
    }

    fn num_edges(&self) -> usize {
        self.records.load(Ordering::Relaxed) as usize
    }

    fn flush(&self) {
        // Every insert persists before returning; a fence is all that is
        // left to order anything still in flight.
        self.pool.fence();
    }

    fn system_name(&self) -> &'static str {
        "DGAP"
    }
}

impl SnapshotSource for Dgap {
    type View<'a> = DgapSnapshot<'a>;

    fn consistent_view(&self) -> DgapSnapshot<'_> {
        Dgap::consistent_view(self)
    }
}

/// A consistent snapshot of a [`Dgap`] graph (the paper's per-task Degree
/// Cache).  Cheap to create — it copies only the degree array — and safe to
/// use while writer threads keep inserting.
pub struct DgapSnapshot<'g> {
    graph: &'g Dgap,
    degrees: Vec<u32>,
    num_edges: usize,
}

impl DgapSnapshot<'_> {
    /// Resolve the visible records of `v` (applying tombstones) into a
    /// neighbour list.
    fn resolve(&self, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        let needed = self.degrees.get(v as usize).copied().unwrap_or(0) as usize;
        if needed == 0 {
            return;
        }
        let mut records = Vec::with_capacity(needed);
        self.graph.read_records(v, needed, &mut records);
        for slot in records {
            apply_record(out, slot);
        }
    }
}

/// Fold one raw record into a resolved neighbour list: an edge appends its
/// target, a tombstone deletes the most recent matching edge.
fn apply_record(out: &mut Vec<VertexId>, slot: Slot) {
    match slot {
        Slot::Edge(d) => out.push(d),
        Slot::Tombstone(d) => {
            if let Some(pos) = out.iter().rposition(|&x| x == d) {
                out.remove(pos);
            }
        }
        _ => {}
    }
}

impl GraphView for DgapSnapshot<'_> {
    fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn degree(&self, v: VertexId) -> usize {
        self.degrees.get(v as usize).copied().unwrap_or(0) as usize
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        let mut out = Vec::new();
        self.resolve(v, &mut out);
        for d in out {
            f(d);
        }
    }

    /// Batched override: one lock and meter set-up per call (see
    /// `Dgap::read_adjacency`); neighbours identical to
    /// [`GraphView::for_each_neighbor`], bounded by this snapshot's degree
    /// cache.  `f` must not read from DGAP: the batch holds the resize
    /// lock for reading.
    fn for_each_adjacency(&self, vertices: Vertices<'_>, f: &mut dyn FnMut(VertexId, &[VertexId])) {
        self.graph.read_adjacency(&self.degrees, vertices, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemConfig;

    pub(crate) fn small_graph() -> Dgap {
        let pool = Arc::new(PmemPool::new(PmemConfig::small_test()));
        Dgap::create(pool, DgapConfig::small_test()).unwrap()
    }

    #[test]
    fn create_places_all_initial_pivots() {
        let g = small_graph();
        assert_eq!(DynamicGraph::num_vertices(&g), 64);
        g.check_invariants();
        // Every initial vertex has a pivot and zero degree.
        for v in 0..64u64 {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn insert_and_read_back_single_vertex() {
        let g = small_graph();
        for dst in [5u64, 9, 1, 1, 7] {
            g.insert_edge(3, dst).unwrap();
        }
        assert_eq!(g.degree(3), 5);
        let view = g.consistent_view();
        assert_eq!(view.degree(3), 5);
        assert_eq!(view.neighbors(3), vec![5, 9, 1, 1, 7]);
        assert_eq!(view.neighbors(5), Vec::<u64>::new());
        g.check_invariants();
    }

    #[test]
    fn insertion_order_is_preserved_across_many_edges() {
        let g = small_graph();
        let expected: Vec<u64> = (0..200).map(|i| (i * 7) % 64).collect();
        for &dst in &expected {
            g.insert_edge(10, dst).unwrap();
        }
        let view = g.consistent_view();
        assert_eq!(view.neighbors(10), expected);
        g.check_invariants();
        assert!(g.stats().rebalances + g.stats().resizes > 0);
    }

    #[test]
    fn many_vertices_many_edges_match_reference() {
        use crate::traits::ReferenceGraph;
        let g = small_graph();
        let mut reference = ReferenceGraph::new(64);
        let mut x = 0x243f_6a88u64;
        for _ in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = (x >> 33) % 64;
            let dst = (x >> 20) % 64;
            g.insert_edge(src, dst).unwrap();
            reference.add_edge(src, dst);
        }
        let view = g.consistent_view();
        for v in 0..64u64 {
            assert_eq!(
                view.neighbors(v),
                reference.neighbors(v),
                "vertex {v} neighbour mismatch"
            );
        }
        g.check_invariants();
        assert_eq!(DynamicGraph::num_edges(&g), 3000);
    }

    #[test]
    fn skewed_insertions_trigger_merges_and_resizes() {
        let g = small_graph();
        // Vertex 0 receives most edges: forces elog use, merges and growth.
        let mut expected_degree_0 = 0usize;
        for i in 0..2000u64 {
            g.insert_edge(0, i % 64).unwrap();
            expected_degree_0 += 1;
            if i % 10 == 0 {
                g.insert_edge(i % 64, 0).unwrap();
                if i % 64 == 0 {
                    expected_degree_0 += 1;
                }
            }
        }
        let s = g.stats();
        assert!(s.elog_inserts > 0, "edge log should absorb occupied slots");
        assert!(s.rebalances > 0);
        let view = g.consistent_view();
        assert_eq!(view.degree(0), expected_degree_0);
        g.check_invariants();
    }

    #[test]
    fn delete_edges_are_tombstoned_and_filtered() {
        let g = small_graph();
        g.insert_edge(1, 2).unwrap();
        g.insert_edge(1, 3).unwrap();
        g.insert_edge(1, 2).unwrap();
        assert!(g.delete_edge(1, 2).unwrap());
        let view = g.consistent_view();
        // One of the two (1 -> 2) edges is cancelled.
        assert_eq!(view.neighbors(1), vec![2, 3]);
        // Degree counts records (paper semantics), so it includes the
        // tombstone.
        assert_eq!(view.degree(1), 4);
        assert_eq!(g.stats().deletes, 1);
    }

    #[test]
    fn snapshot_isolation_hides_later_inserts() {
        let g = small_graph();
        g.insert_edge(2, 7).unwrap();
        g.insert_edge(2, 8).unwrap();
        let view = g.consistent_view();
        g.insert_edge(2, 9).unwrap();
        g.insert_edge(2, 10).unwrap();
        assert_eq!(view.degree(2), 2);
        assert_eq!(view.neighbors(2), vec![7, 8]);
        // A fresh view sees everything.
        let view2 = g.consistent_view();
        assert_eq!(view2.neighbors(2), vec![7, 8, 9, 10]);
    }

    /// Every `(vertex, neighbours)` callback of one batched read.
    fn batched(view: &DgapSnapshot<'_>, vertices: Vertices<'_>) -> Vec<(VertexId, Vec<VertexId>)> {
        let mut out = Vec::new();
        view.for_each_adjacency(vertices, &mut |v, nbrs| out.push((v, nbrs.to_vec())));
        out
    }

    /// Batched reads of `ids` (range and slice form) against per-vertex
    /// reads: same neighbours, and exactly the same PM read charges.
    fn assert_batched_matches_per_vertex(pool: &PmemPool, view: &DgapSnapshot<'_>, ids: u64) {
        let expected: Vec<(VertexId, Vec<VertexId>)> =
            (0..ids).map(|v| (v, view.neighbors(v))).collect();

        let before = pool.stats_snapshot();
        for v in 0..ids {
            view.for_each_neighbor(v, &mut |_| {});
        }
        let per_vertex = pool.stats_snapshot().delta_since(&before);
        let before = pool.stats_snapshot();
        assert_eq!(batched(view, (0..ids).into()), expected, "range form");
        let metered = pool.stats_snapshot().delta_since(&before);
        assert_eq!(metered.logical_bytes_read, per_vertex.logical_bytes_read);
        assert_eq!(metered.read_ops, per_vertex.read_ops);
        assert_eq!(metered.simulated_ns, per_vertex.simulated_ns);
        assert!(metered.simulated_ns > 0);

        // Slice form: arbitrary order with repeats, one callback per entry.
        let list: Vec<VertexId> = (0..ids).rev().chain([3, 3, ids - 1, 0]).collect();
        let want: Vec<_> = list.iter().map(|&v| expected[v as usize].clone()).collect();
        assert_eq!(batched(view, list[..].into()), want, "slice form");
        assert!(batched(view, Vertices::List(&[])).is_empty());
    }

    #[test]
    fn batched_reads_match_per_vertex_reads() {
        // Realistic cost model, so simulated time is compared too.
        let pool = Arc::new(PmemPool::new(PmemConfig::with_capacity(8 << 20)));
        let g = Dgap::create(Arc::clone(&pool), DgapConfig::small_test()).unwrap();
        // Skewed load: hubs 0..7 fill the edge logs and grow spans across
        // sections; a few tombstones; vertex 90 makes 65..=90 addressable
        // without placing them.
        for i in 0..1_200u64 {
            g.insert_edge(i % 7, (i * 13) % 64).unwrap();
            if i % 5 == 0 {
                g.insert_edge(8 + i % 50, i % 64).unwrap();
            }
        }
        for v in 0..7u64 {
            assert!(g.delete_edge(v, (v * 13) % 64).unwrap());
        }
        g.insert_edge(3, 90).unwrap();

        let view = g.consistent_view();
        let n = view.num_vertices() as u64;
        // Writes after the snapshot: one more record per hub, into its edge
        // log when it has one.
        for v in 0..7u64 {
            g.insert_edge(v, 63).unwrap();
        }
        let entries: Vec<VertexEntry> = (0..n).map(|v| g.vertices.entry(v)).collect();
        let cached = |v: usize| view.degree(v as u64);
        assert!(
            entries
                .iter()
                .enumerate()
                .any(|(v, e)| e.elog_head != NO_ELOG
                    && (e.in_array as usize) < cached(v)
                    && e.degree as usize > cached(v)),
            "a snapshot read that needs part of an unmerged edge-log chain"
        );
        assert!(
            entries.iter().any(|e| e.start != NO_START
                && g.edges.section_of(e.start)
                    != g.edges.section_of(e.start + u64::from(e.in_array))),
            "a span crossing a section boundary"
        );
        assert!(
            (0..n).any(|v| view.neighbors(v).len() < view.degree(v)),
            "a tombstone"
        );
        assert_eq!(entries[90].start, NO_START, "a never-placed vertex");
        assert_batched_matches_per_vertex(&pool, &view, n + 40);

        // A vertex placed after the snapshot (the full array resizes and
        // merges every log): beyond the view, like any out-of-range id.
        let resizes = g.stats().resizes;
        g.insert_edge(n + 20, 1).unwrap();
        assert!(g.stats().resizes > resizes);
        assert!(batched(&view, (n + 20..n + 21).into())[0].1.is_empty());
        assert_batched_matches_per_vertex(&pool, &view, n + 40);
    }

    #[test]
    fn all_sections_fallback_reads_the_same_entry() {
        let g = small_graph();
        for i in 0..600u64 {
            g.insert_edge(i % 11, (i * 7) % 64).unwrap();
        }
        g.insert_edge(2, 80).unwrap();
        let _rg = g.resize_lock.read();
        let locks = g.section_locks.read();
        for v in 0..90u64 {
            let needed = g.degree(v);
            assert_eq!(
                g.with_all_sections_locked(&locks, v, |e| e),
                g.with_records_locked(&locks, v, needed, |e| e),
                "vertex {v}"
            );
        }
        assert_eq!(g.with_all_sections_locked(&locks, 80, |e| e), None);
    }

    #[test]
    fn snapshot_survives_concurrent_rebalances() {
        let g = small_graph();
        for dst in 0..20u64 {
            g.insert_edge(4, dst).unwrap();
        }
        let view = g.consistent_view();
        let before = view.neighbors(4);
        // Force lots of movement (merges, rebalances, at least one resize).
        for i in 0..3000u64 {
            g.insert_edge(i % 64, (i * 13) % 64).unwrap();
        }
        assert!(g.stats().resizes >= 1 || g.stats().rebalances >= 1);
        assert_eq!(view.neighbors(4), before, "snapshot must be stable");
    }

    #[test]
    fn vertices_beyond_initial_estimate_are_placed() {
        let g = small_graph();
        g.insert_edge(100, 5).unwrap();
        g.insert_edge(100, 6).unwrap();
        g.insert_edge(5, 100).unwrap();
        assert_eq!(DynamicGraph::num_vertices(&g), 101);
        let view = g.consistent_view();
        assert_eq!(view.neighbors(100), vec![5, 6]);
        assert_eq!(view.neighbors(5), vec![100]);
        g.check_invariants();
    }

    #[test]
    fn insert_vertex_is_idempotent() {
        let g = small_graph();
        g.insert_vertex(10).unwrap();
        g.insert_vertex(10).unwrap();
        g.insert_vertex(200).unwrap();
        assert_eq!(DynamicGraph::num_vertices(&g), 201);
    }

    #[test]
    fn concurrent_writers_preserve_all_edges() {
        let pool = Arc::new(PmemPool::new(PmemConfig::small_test()));
        let g = Arc::new(Dgap::create(pool, DgapConfig::small_test().writer_threads(4)).unwrap());
        let threads = 4u64;
        let per_thread = 500u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let src = (t * 16 + i % 16) % 64;
                    let dst = (i * 7 + t) % 64;
                    g.insert_edge(src, dst).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            DynamicGraph::num_edges(&*g),
            (threads * per_thread) as usize
        );
        let view = g.consistent_view();
        let total: usize = (0..64u64).map(|v| view.neighbors(v).len()).sum();
        assert_eq!(total, (threads * per_thread) as usize);
        g.check_invariants();
    }

    #[test]
    fn concurrent_reads_during_writes_do_not_panic() {
        let pool = Arc::new(PmemPool::new(PmemConfig::small_test()));
        let g = Arc::new(Dgap::create(pool, DgapConfig::small_test().writer_threads(2)).unwrap());
        for i in 0..200u64 {
            g.insert_edge(i % 64, (i * 3) % 64).unwrap();
        }
        let writer = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                for i in 0..2000u64 {
                    g.insert_edge(i % 64, (i * 11) % 64).unwrap();
                }
            })
        };
        let reader = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let view = g.consistent_view();
                    // No deletes: both read paths must return exactly the
                    // degree-cache count of records for every vertex, never
                    // an empty or truncated list while rebalances move spans.
                    for v in 0..64u64 {
                        assert_eq!(view.neighbors(v).len(), view.degree(v), "vertex {v}");
                    }
                    view.for_each_adjacency((0..64).into(), &mut |v, nbrs| {
                        assert_eq!(nbrs.len(), view.degree(v), "batched vertex {v}");
                    });
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        g.check_invariants();
    }

    #[test]
    fn flush_is_a_noop_fence() {
        let g = small_graph();
        g.insert_edge(0, 1).unwrap();
        g.flush();
        assert_eq!(g.system_name(), "DGAP");
    }

    #[test]
    fn stats_report_component_usage() {
        let g = small_graph();
        for i in 0..500u64 {
            g.insert_edge(i % 8, (i * 3) % 64).unwrap();
        }
        let s = g.stats();
        assert!(s.array_inserts > 0);
        assert_eq!(
            s.array_inserts + s.elog_inserts + s.shift_inserts,
            500,
            "every record is inserted through exactly one path: {s:?}"
        );
    }

    /// Rebalance the whole edge array as one window.
    fn rebalance_root(g: &Dgap) {
        let _rg = g.resize_lock.read();
        assert!(g.rebalance_window(0, g.num_sections()).unwrap());
    }

    /// Every vertex's sorted neighbour list.
    fn edge_multiset(g: &Dgap) -> Vec<Vec<VertexId>> {
        let view = g.consistent_view();
        (0..64u64)
            .map(|v| {
                let mut n = view.neighbors(v);
                n.sort_unstable();
                n
            })
            .collect()
    }

    /// A small graph laid out by one root rebalance: seven edges per
    /// vertex, after one resize, so the root window (sixteen sections,
    /// 8 KiB) is four times the 2 KiB undo-log area.  The gap after
    /// [`SWEPT_INSERT`]'s source is then filled, so that insert goes to the
    /// edge log.
    fn laid_out_graph() -> (Arc<PmemPool>, Dgap) {
        let pool = Arc::new(PmemPool::new(PmemConfig::small_test()));
        let g = Dgap::create(Arc::clone(&pool), DgapConfig::small_test()).unwrap();
        for v in 0..64u64 {
            for k in 0..7 {
                g.insert_edge(v, (v * 7 + k) % 64).unwrap();
            }
        }
        rebalance_root(&g);
        let (src, _) = SWEPT_INSERT;
        for dst in 20.. {
            let e = g.vertices.entry(src);
            if !g
                .edges
                .read_slot(e.start + 1 + u64::from(e.in_array))
                .is_empty()
            {
                break;
            }
            g.insert_edge(src, dst).unwrap();
        }
        (pool, g)
    }

    /// The insert the crash sweep interrupts, with the root rebalance that
    /// follows it.  The insert goes to the edge log and the rebalance
    /// merges it; the new degree-weighted plan moves nearly every extent
    /// (~7.5 KiB changed, so the backup spills) while vertex 0's extent and
    /// the trailing gaps stay put.
    const SWEPT_INSERT: (VertexId, VertexId) = (8, 63);

    /// Every section's DRAM occupancy equals its non-empty PM slots plus
    /// its edge-log entries.
    fn assert_occupancy_matches_pm(g: &Dgap) {
        for s in 0..g.num_sections() {
            let range = g.edges.section_slots(s);
            let raw = g.edges.read_raw(range.start, g.cfg.segment_size);
            let on_pm = raw.iter().filter(|&&w| w != 0).count() + g.elogs.used(s);
            assert_eq!(g.tree.lock().occupancy(s), on_pm, "section {s}");
        }
    }

    #[test]
    fn rebalance_with_an_unchanged_image_writes_nothing() {
        let (pool, g) = laid_out_graph();
        rebalance_root(&g);
        let before_edges = edge_multiset(&g);
        let before = pool.stats_snapshot();
        let rebalances = g.stats().rebalances;
        rebalance_root(&g);
        let d = pool.stats_snapshot().delta_since(&before);
        assert_eq!(g.stats().rebalances, rebalances + 1);
        assert_eq!(d.write_ops, 0, "{d:?}");
        assert_eq!(d.logical_bytes_written, 0);
        assert_eq!(d.flushes, 0);
        assert_eq!(d.fences, 0);
        assert_eq!(edge_multiset(&g), before_edges);
        assert_occupancy_matches_pm(&g);
        g.check_invariants();
    }

    #[test]
    fn rebalance_writes_back_only_the_changed_span_from_one_reused_spill_region() {
        let (pool, g) = laid_out_graph();
        let cap = g.edges.capacity();
        let ulog_capacity = g.ulogs[0].lock().capacity();
        assert!(
            cap * 8 > ulog_capacity,
            "the root window exceeds the undo-log area"
        );

        // Insert one edge, rebalance the root window, and return the changed
        // slot span with the PM traffic of the rebalance.
        let step = |(src, dst): (VertexId, VertexId)| {
            g.insert_edge(src, dst).unwrap();
            let old = g.edges.read_raw(0, cap);
            let before = pool.stats_snapshot();
            rebalance_root(&g);
            let d = pool.stats_snapshot().delta_since(&before);
            let new = g.edges.read_raw(0, cap);
            let lo = old.iter().zip(&new).position(|(a, b)| a != b).unwrap();
            let hi = old.iter().zip(&new).rposition(|(a, b)| a != b).unwrap();
            (lo, hi, d)
        };

        let (elog_inserts, merges) = (g.stats().elog_inserts, g.stats().merges);
        let (lo, hi, d) = step(SWEPT_INSERT);
        assert_eq!(g.stats().elog_inserts, elog_inserts + 1);
        assert_eq!(g.stats().merges, merges + 1);
        // The changed span lies strictly inside the window, and is itself
        // larger than the undo-log area, so its backup spills.
        assert!(lo > 0 && hi < cap - 1, "span {lo}..={hi} of {cap}");
        assert!((hi - lo + 1) * 8 > ulog_capacity, "span {lo}..={hi}");
        // The planning read and the merged log chain are the only PM
        // reads: the undo log is handed the old bytes, and occupancy is
        // recounted in DRAM (the last section ends at the window's end).
        assert!(d.logical_bytes_read < (cap * 8 + 64) as u64, "{d:?}");
        // Backup + new image of the span plus header words: never the
        // whole window twice.
        assert!(d.logical_bytes_written < (2 * cap * 8) as u64, "{d:?}");
        assert_occupancy_matches_pm(&g);
        g.check_invariants();

        // Later spilled rebalances reuse the spill region.
        let (mut spilled, mut grown) = (0, 0);
        for i in 0..10u64 {
            let used = pool.used();
            let (lo, hi, _) = step((9 + i, i));
            spilled += usize::from((hi - lo + 1) * 8 > ulog_capacity);
            grown += usize::from(pool.used() != used);
        }
        assert!(spilled >= 5, "only {spilled} of 10 rebalances spilled");
        assert!(grown <= 1, "spill region allocated {grown} times");
        assert_occupancy_matches_pm(&g);
        g.check_invariants();
    }

    #[test]
    fn crash_sweep_over_a_trimmed_spilled_rebalance() {
        let (src, dst) = SWEPT_INSERT;
        let (_, g) = laid_out_graph();
        let pre = edge_multiset(&g);
        g.insert_edge(src, dst).unwrap();
        let post = edge_multiset(&g);
        assert_ne!(pre, post);

        for policy in [pmem::CRASH_KEEP_FLUSHED, pmem::CRASH_DROP_FLUSHED] {
            let mut n = 0u64;
            loop {
                let (pool, g) = laid_out_graph();
                let mut inserted = false;
                pool.arm_write_failpoint(n);
                let finished = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    g.insert_edge(src, dst).unwrap();
                    inserted = true;
                    rebalance_root(&g);
                }))
                .is_ok();
                pool.disarm_write_failpoint();
                drop(g);
                if finished {
                    // The insert, the spill allocation, both chunked
                    // copies and five header updates were all swept.
                    assert!(n > 20, "only {n} writes swept");
                    break;
                }
                pool.simulate_crash_with(policy);
                let (g, _) = Dgap::open(Arc::clone(&pool), DgapConfig::small_test()).unwrap();
                let report = g.verify();
                assert!(!report.is_fatal(), "write {n}: {:?}", report.first_fatal());
                g.check_invariants();
                let got = edge_multiset(&g);
                if inserted {
                    assert_eq!(got, post, "write {n}, keep_flushed={policy}");
                } else {
                    assert!(
                        got == pre || got == post,
                        "write {n}, keep_flushed={policy}"
                    );
                }
                n += 1;
            }
        }
    }
}
