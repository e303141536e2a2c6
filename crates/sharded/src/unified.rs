//! [`UnifiedView`] — the cross-shard snapshot merged into one global CSR.
//!
//! [`crate::OwnedShardedView`] answers every read by hashing the vertex to
//! its owning shard and indexing into that shard's [`FrozenView`]: correct,
//! but an analytics kernel running over it pays the partitioner hash per
//! vertex *per pass* (PageRank alone does 40 passes over the vertex set)
//! and scatters its reads across `N` disjoint target arrays.  `UnifiedView`
//! pays the routing cost **once**: a parallel merge gathers every vertex's
//! resolved neighbour span out of its owning shard into a single flat
//! offsets-plus-targets CSR, after which reads are two array indexes — no
//! hash, no shard indirection, and (through [`dgap::CsrView`]) no per-edge
//! closure dispatch in the kernels.
//!
//! The merge is the same three-phase shape as the parallel
//! [`FrozenView::capture`]: a parallel per-vertex degree gather (vertex
//! chunks on the work-stealing pool, reading each shard's CSR arrays
//! directly), a serial prefix sum turning degrees into global offsets, and
//! a parallel span copy where every vertex memcpys its slice out of its
//! shard snapshot into its disjoint slice of the unified target array.
//!
//! Refreshes are **incremental**, mirroring
//! [`crate::ShardedGraph::owned_view_reusing`]: the per-shard
//! `Arc<FrozenView>`s the composite carries between epochs double as the
//! change signal.  A shard whose `Arc` is pointer-equal to the previous
//! epoch's did not advance, so its vertices' degrees and spans are taken
//! from the *previous unified CSR* (sequential block copies, never touching
//! the shard snapshot again); only shards that were actually re-captured
//! get their spans re-gathered.  [`UnifiedView::merged_shards`] reports how
//! many shards the build paid for — the service layer surfaces it as
//! `ServiceStats::unified_shard_merges`.
//!
//! Refreshes also produce a [`DeltaTracker`]: while the merge walks the
//! re-captured shards anyway, it compares every vertex's previous span
//! against its new one and records exactly which vertices' adjacency
//! actually changed between the two epochs (and whether any edge was
//! lost, which the incremental connected-components kernel cannot absorb).
//! Changed-shard granularity refined to changed-vertex granularity is what
//! lets `analytics::pagerank_incremental` / `analytics::cc_incremental`
//! re-relax O(delta) instead of O(V + E).  A re-captured shard whose CSR
//! is byte-identical to the one the previous epoch merged (e.g. a flush
//! with no net updates, or a burst that inserted and deleted the same
//! edge) is treated as unchanged outright, so a no-op epoch yields an
//! empty delta and zero re-relaxation.

use crate::view::OwnedShardedView;
use dgap::chunks::{ranges as chunk_ranges, SendPtr};
use dgap::{CsrView, FrozenView, GraphView, VertexId, Vertices};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone id source for [`UnifiedView::view_id`] — never recycled, so an
/// id uniquely names one build for the lifetime of the process and caches
/// keyed by it cannot alias a dropped view.
static NEXT_VIEW_ID: AtomicU64 = AtomicU64::new(1);

/// The set of vertices whose adjacency actually changed between the
/// previous epoch's unified CSR and this one, computed as a by-product of
/// [`UnifiedView::refreshed`]'s span re-merge.
///
/// Shard-level change signals (the carried `Arc<FrozenView>`s) tell the
/// merge *which shards* to re-gather; the tracker refines that to *which
/// vertices* differ by comparing each re-merged vertex's old span against
/// its new one.  The incremental analytics kernels seed from the previous
/// epoch's result and re-relax outward from exactly these vertices.
#[derive(Debug, Default, Clone)]
pub struct DeltaTracker {
    /// Changed vertex ids, ascending, deduplicated.
    changed: Vec<VertexId>,
    /// Whether any changed vertex *lost* an edge (its old span is not a
    /// sub-multiset of its new one).  Insert-only deltas can only merge
    /// connected components; a deletion forces the full CC recompute.
    has_deletions: bool,
}

impl DeltaTracker {
    /// The vertices whose adjacency changed, ascending and deduplicated.
    pub fn changed_vertices(&self) -> &[VertexId] {
        &self.changed
    }

    /// Number of changed vertices.
    pub fn len(&self) -> usize {
        self.changed.len()
    }

    /// `true` when the epoch was a no-op: no vertex's adjacency changed.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// Whether any changed vertex lost an edge relative to the previous
    /// epoch (deletions, not just inserts).
    pub fn has_deletions(&self) -> bool {
        self.has_deletions
    }
}

/// Whether `old` is **not** a sub-multiset of `new` — i.e. the vertex lost
/// at least one edge.  Neighbour spans preserve insertion order rather
/// than being sorted, so the check sorts copies and merge-walks; it only
/// runs for vertices whose spans already proved unequal.
fn lost_edges(old: &[VertexId], new: &[VertexId]) -> bool {
    if old.is_empty() {
        return false;
    }
    if new.len() < old.len() {
        return true;
    }
    let mut o = old.to_vec();
    let mut n = new.to_vec();
    o.sort_unstable();
    n.sort_unstable();
    let mut i = 0;
    for &x in &o {
        while i < n.len() && n[i] < x {
            i += 1;
        }
        if i >= n.len() || n[i] != x {
            return true;
        }
        i += 1;
    }
    false
}

/// An owned cross-shard snapshot materialised into **one global CSR**.
///
/// Implements [`GraphView`], whose batched read hands the `analytics`
/// kernels borrowed neighbour slices, and [`CsrView`] for the CSR-only
/// kernels.  Build one with [`UnifiedView::unify`]; refresh it
/// incrementally across epochs with [`UnifiedView::refreshed`].
pub struct UnifiedView {
    /// `offsets[v] .. offsets[v + 1]` spans `v`'s neighbours in `targets`.
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    /// `owners[v]` is the shard owning vertex `v` — the partitioner hash,
    /// paid once at the first merge and carried across refreshes.
    owners: Arc<Vec<u32>>,
    /// The per-shard snapshots this CSR was merged from.  Compared by
    /// `Arc::ptr_eq` against the next epoch's composite to decide which
    /// shards' spans must be re-gathered.
    sources: Vec<Arc<FrozenView>>,
    /// Which shards' spans were gathered fresh in this build (`false` =
    /// copied forward from the previous unified CSR).
    merged: Vec<bool>,
    /// Process-unique id of this build (see [`UnifiedView::view_id`]).
    id: u64,
    /// The [`UnifiedView::view_id`] of the previous epoch this build was
    /// incrementally refreshed from, when there was one.
    refreshed_from: Option<u64>,
    /// The changed-vertex delta vs that previous epoch (`Some` exactly
    /// when `refreshed_from` is).
    delta: Option<DeltaTracker>,
}

impl UnifiedView {
    /// Merge every shard of `owned` into a unified CSR (the full build:
    /// all shards pay the gather).
    pub fn unify(owned: &OwnedShardedView) -> UnifiedView {
        Self::build(owned, None)
    }

    /// Merge `owned` reusing everything that did not change since `self`
    /// was built: shards whose `Arc<FrozenView>` is pointer-equal to the
    /// one `self` merged keep their degrees and spans (copied forward from
    /// `self`'s arrays); only re-captured shards are re-gathered.
    ///
    /// Falls back to a full merge when the shard count changed or the
    /// vertex range shrank (neither happens in normal operation).
    pub fn refreshed(&self, owned: &OwnedShardedView) -> UnifiedView {
        Self::build(owned, Some(self))
    }

    fn build(owned: &OwnedShardedView, prev: Option<&UnifiedView>) -> UnifiedView {
        let n = owned.num_vertices();
        let shards = owned.num_shards();
        let sources: Vec<Arc<FrozenView>> = (0..shards).map(|s| owned.shard_view_arc(s)).collect();
        let prev = prev.filter(|p| p.sources.len() == shards && p.num_vertices() <= n);
        let merged: Vec<bool> = match prev {
            Some(p) => sources
                .iter()
                .zip(&p.sources)
                .map(|(new, old)| {
                    if Arc::ptr_eq(new, old) {
                        return false;
                    }
                    // A re-captured snapshot can still be byte-identical
                    // (a flush with no net updates, an insert cancelled by
                    // its delete).  Treating it as changed would re-gather
                    // every span *and* poison the delta with the whole
                    // shard; a slice compare (memcmp-fast) short-circuits
                    // the no-op epoch to an empty delta instead.
                    CsrView::offsets(&**new) != CsrView::offsets(&**old)
                        || CsrView::targets(&**new) != CsrView::targets(&**old)
                })
                .collect(),
            None => vec![true; shards],
        };
        let ranges = chunk_ranges(n);

        // The owner table: reused across refreshes (extended if the vertex
        // range grew), computed in parallel on the first merge — after
        // this, nothing on the read path ever hashes a vertex id again.
        let partitioner = owned.partitioner();
        let owners: Arc<Vec<u32>> = match prev {
            Some(p) if p.owners.len() == n => Arc::clone(&p.owners),
            Some(p) => {
                let mut grown = p.owners.as_ref().clone();
                grown.extend((grown.len()..n).map(|v| partitioner.shard_of(v as u64) as u32));
                Arc::new(grown)
            }
            None => {
                let mut table: Vec<u32> = Vec::with_capacity(n);
                let dst = SendPtr(table.as_mut_ptr());
                ranges.par_iter().for_each(|&(lo, hi)| {
                    for v in lo..hi {
                        // Chunks are disjoint: each index written once.
                        unsafe {
                            *dst.get().add(v) = partitioner.shard_of(v as u64) as u32;
                        }
                    }
                });
                unsafe { table.set_len(n) };
                Arc::new(table)
            }
        };

        // Phase 1 — parallel degree gather into offsets[v + 1]: changed
        // shards answer from their (re-captured) CSR arrays; unchanged
        // shards' degrees come straight off the previous unified offsets.
        let mut offsets: Vec<usize> = vec![0; n + 1];
        {
            let dst = SendPtr(offsets.as_mut_ptr());
            let owners = &owners;
            let sources = &sources;
            let merged = &merged;
            ranges.par_iter().for_each(|&(lo, hi)| {
                for v in lo..hi {
                    let s = owners[v] as usize;
                    let deg = match prev {
                        // A vertex past the previous epoch's range cannot
                        // have edges in an *unchanged* shard; the source
                        // gather below returns 0 for it either way.
                        Some(p) if !merged[s] && v + 1 < p.offsets.len() => {
                            p.offsets[v + 1] - p.offsets[v]
                        }
                        _ => sources[s].neighbor_slice(v as u64).len(),
                    };
                    unsafe { *dst.get().add(v + 1) = deg };
                }
            });
        }
        // Phase 2 — serial prefix sum (O(V), trivial next to the gathers).
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let total = offsets[n];

        // Phase 3 — parallel span copy into disjoint slices of the target
        // array: changed shards from their snapshot, unchanged shards
        // forwarded from the previous unified targets (already merged,
        // sequential reads).
        let mut targets: Vec<VertexId> = Vec::with_capacity(total);
        {
            let dst = SendPtr(targets.as_mut_ptr());
            let offsets = &offsets;
            let owners = &owners;
            let sources = &sources;
            let merged = &merged;
            ranges.par_iter().for_each(|&(lo, hi)| {
                for v in lo..hi {
                    let at = offsets[v];
                    let len = offsets[v + 1] - at;
                    if len == 0 {
                        continue;
                    }
                    let s = owners[v] as usize;
                    let src: &[VertexId] = match prev {
                        // len > 0 for an unchanged shard implies the span
                        // existed in the previous epoch (degrees above).
                        Some(p) if !merged[s] => &p.targets[p.offsets[v]..p.offsets[v] + len],
                        _ => sources[s].neighbor_slice(v as u64),
                    };
                    debug_assert_eq!(src.len(), len);
                    unsafe {
                        std::ptr::copy_nonoverlapping(src.as_ptr(), dst.get().add(at), len);
                    }
                }
            });
        }
        unsafe { targets.set_len(total) };

        // Delta pass — refine changed-shard granularity to changed-vertex
        // granularity.  Only vertices owned by a re-merged shard (or past
        // the previous epoch's range) can differ; each compares its old
        // span against its new one.  Chunks are processed in order and
        // each scans ascending, so the flattened list is already sorted.
        let delta = prev.map(|p| {
            let offsets = &offsets;
            let targets = &targets;
            let owners = &owners;
            let merged = &merged;
            let per_chunk: Vec<(Vec<VertexId>, bool)> = ranges
                .par_iter()
                .map(|&(lo, hi)| {
                    let mut changed = Vec::new();
                    let mut deletions = false;
                    for v in lo..hi {
                        let s = owners[v] as usize;
                        let in_prev = v + 1 < p.offsets.len();
                        if !merged[s] && in_prev {
                            continue;
                        }
                        let old: &[VertexId] = if in_prev {
                            &p.targets[p.offsets[v]..p.offsets[v + 1]]
                        } else {
                            &[]
                        };
                        let new = &targets[offsets[v]..offsets[v + 1]];
                        if old != new {
                            changed.push(v as VertexId);
                            deletions = deletions || lost_edges(old, new);
                        }
                    }
                    (changed, deletions)
                })
                .collect();
            let mut tracker = DeltaTracker::default();
            for (changed, deletions) in per_chunk {
                tracker.changed.extend(changed);
                tracker.has_deletions |= deletions;
            }
            tracker
        });

        UnifiedView {
            offsets,
            targets,
            owners,
            sources,
            merged,
            id: NEXT_VIEW_ID.fetch_add(1, Ordering::Relaxed),
            refreshed_from: prev.map(|p| p.id),
            delta,
        }
    }

    /// The neighbours of `v` as a borrowed slice.  Out-of-range ids — all
    /// the way up to `u64::MAX`, which untrusted service clients are free
    /// to send — have no neighbours.
    pub fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        let Some(next) = (v as usize).checked_add(1) else {
            return &[];
        };
        match (self.offsets.get(v as usize), self.offsets.get(next)) {
            (Some(&lo), Some(&hi)) => &self.targets[lo..hi],
            _ => &[],
        }
    }

    /// Number of shards this view was merged from.
    pub fn num_shards(&self) -> usize {
        self.sources.len()
    }

    /// How many shards' spans were gathered fresh in this build — the
    /// whole shard count for [`UnifiedView::unify`], only the changed
    /// shards for [`UnifiedView::refreshed`] (a single-shard write burst
    /// costs exactly one).
    pub fn merged_shards(&self) -> usize {
        self.merged.iter().filter(|&&m| m).count()
    }

    /// How many shards' spans were carried forward from the previous
    /// epoch's unified CSR without touching the shard snapshot.
    pub fn reused_shards(&self) -> usize {
        self.sources.len() - self.merged_shards()
    }

    /// Whether shard `s`'s spans were gathered fresh in this build.
    pub fn shard_was_merged(&self, s: usize) -> bool {
        self.merged[s]
    }

    /// Shared handle to the per-shard snapshot this view merged for shard
    /// `s` — the change signal the next [`UnifiedView::refreshed`] compares
    /// against (tests assert reuse with `Arc::ptr_eq` on exactly these).
    pub fn source_arc(&self, s: usize) -> Arc<FrozenView> {
        Arc::clone(&self.sources[s])
    }

    /// Process-unique id of this build.  Ids are never recycled, so a
    /// cache keyed by `view_id` cannot alias a dropped view — the
    /// service's `AnalyticsCache` uses exactly this to decide whether a
    /// previous epoch's rank/label vectors may seed an incremental kernel.
    pub fn view_id(&self) -> u64 {
        self.id
    }

    /// The [`UnifiedView::view_id`] of the previous epoch this build was
    /// incrementally refreshed from.  `None` for a full
    /// [`UnifiedView::unify`] build (or a refresh that fell back to a full
    /// merge because the shard count changed or the vertex range shrank) —
    /// in which case [`UnifiedView::delta`] is `None` too.
    pub fn refreshed_from(&self) -> Option<u64> {
        self.refreshed_from
    }

    /// The changed-vertex delta vs the epoch named by
    /// [`UnifiedView::refreshed_from`], when this build was an incremental
    /// refresh.
    pub fn delta(&self) -> Option<&DeltaTracker> {
        self.delta.as_ref()
    }
}

impl GraphView for UnifiedView {
    fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    fn num_edges(&self) -> usize {
        self.targets.len()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.neighbor_slice(v).len()
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        for &d in self.neighbor_slice(v) {
            f(d);
        }
    }

    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        self.neighbor_slice(v).to_vec()
    }

    fn for_each_adjacency(&self, vertices: Vertices<'_>, f: &mut dyn FnMut(VertexId, &[VertexId])) {
        for v in vertices.iter() {
            f(v, self.neighbor_slice(v));
        }
    }
}

impl CsrView for UnifiedView {
    fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        UnifiedView::neighbor_slice(self, v)
    }

    fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    fn targets(&self) -> &[VertexId] {
        &self.targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedGraph;
    use dgap::{DynamicGraph, OwnedSnapshotSource, ReferenceGraph};

    fn populated(shards: usize, n: u64) -> (ShardedGraph<dgap::Dgap>, ReferenceGraph) {
        let g = ShardedGraph::create_dgap_small_test(shards).unwrap();
        let mut oracle = ReferenceGraph::new(n as usize);
        for v in 0..n {
            for step in [1u64, 3] {
                let u = (v + step) % n;
                g.insert_edge(v, u).unwrap();
                oracle.add_edge(v, u);
            }
        }
        for v in (0..n).step_by(4) {
            let u = (v + 3) % n;
            assert!(g.delete_edge(v, u).unwrap());
            oracle.remove_edge(v, u);
        }
        (g, oracle)
    }

    #[test]
    fn unify_matches_the_composite_and_the_oracle() {
        for shards in [1usize, 2, 4] {
            let (g, oracle) = populated(shards, 48);
            let owned = g.owned_view();
            let unified = UnifiedView::unify(&owned);
            assert_eq!(unified.num_shards(), shards);
            assert_eq!(unified.merged_shards(), shards, "full build pays all");
            assert_eq!(unified.num_vertices(), owned.num_vertices());
            assert_eq!(unified.num_edges(), GraphView::num_edges(&owned));
            assert_eq!(CsrView::offsets(&unified).len(), unified.num_vertices() + 1);
            for v in 0..48u64 {
                assert_eq!(unified.neighbor_slice(v), &oracle.neighbors(v)[..], "v {v}");
                assert_eq!(unified.degree(v), oracle.degree(v));
            }
            assert!(unified.neighbor_slice(u64::MAX).is_empty());
            assert!(unified.neighbor_slice(1 << 40).is_empty());
        }
    }

    #[test]
    fn refresh_reuses_unchanged_shards_and_merges_the_rest() {
        let (g, mut oracle) = populated(2, 48);
        let owned = g.owned_view();
        let first = UnifiedView::unify(&owned);

        // A write burst confined to one shard, then an incremental
        // composite refresh that carries the other shard's Arc over.
        let touched = g.shard_of(0);
        g.insert_edge(0, 9).unwrap();
        oracle.add_edge(0, 9);
        let reuse = (0..2)
            .map(|s| (s != touched).then(|| owned.shard_view_arc(s)))
            .collect();
        let owned2 = g.owned_view_reusing(reuse);
        let second = first.refreshed(&owned2);

        assert_eq!(second.merged_shards(), 1, "one shard changed");
        assert_eq!(second.reused_shards(), 1);
        assert!(second.shard_was_merged(touched));
        assert!(!second.shard_was_merged(1 - touched));
        assert!(Arc::ptr_eq(
            &first.source_arc(1 - touched),
            &second.source_arc(1 - touched)
        ));
        assert!(!Arc::ptr_eq(
            &first.source_arc(touched),
            &second.source_arc(touched)
        ));
        // And the refreshed CSR is exactly what a full merge would build.
        let full = UnifiedView::unify(&owned2);
        assert_eq!(CsrView::offsets(&second), CsrView::offsets(&full));
        assert_eq!(CsrView::targets(&second), CsrView::targets(&full));
        for v in 0..48u64 {
            assert_eq!(second.neighbor_slice(v), &oracle.neighbors(v)[..], "v {v}");
        }
    }

    #[test]
    fn refresh_survives_a_grown_vertex_range() {
        let (g, _) = populated(2, 16);
        let first = UnifiedView::unify(&g.owned_view());
        let n_before = first.num_vertices();
        // Grow the graph past the previous range (the small-test backends
        // pre-allocate 64 vertices, so go well beyond that).
        g.insert_edge(100, 2).unwrap();
        let owned2 = g.owned_view();
        let second = first.refreshed(&owned2);
        assert!(second.num_vertices() > n_before);
        assert_eq!(second.neighbor_slice(100), &[2]);
        let full = UnifiedView::unify(&owned2);
        assert_eq!(CsrView::offsets(&second), CsrView::offsets(&full));
        assert_eq!(CsrView::targets(&second), CsrView::targets(&full));
    }

    #[test]
    fn refresh_emits_a_changed_vertex_delta() {
        let (g, _) = populated(2, 48);
        let owned = g.owned_view();
        let first = UnifiedView::unify(&owned);
        assert!(first.delta().is_none(), "full build has no delta");
        assert!(first.refreshed_from().is_none());

        // Insert both directions of a fresh edge: exactly two vertices'
        // adjacency changes, nothing is lost.
        g.insert_edge(5, 20).unwrap();
        g.insert_edge(20, 5).unwrap();
        let owned2 = g.owned_view();
        let second = first.refreshed(&owned2);
        assert_eq!(second.refreshed_from(), Some(first.view_id()));
        let delta = second.delta().expect("refresh carries a delta");
        assert_eq!(delta.changed_vertices(), &[5, 20]);
        assert_eq!(delta.len(), 2);
        assert!(!delta.has_deletions(), "insert-only burst");

        // Deleting an edge flips the deletions flag for its source only.
        assert!(g.delete_edge(5, 20).unwrap());
        let owned3 = g.owned_view();
        let third = second.refreshed(&owned3);
        let delta = third.delta().expect("delta");
        assert_eq!(delta.changed_vertices(), &[5]);
        assert!(delta.has_deletions());
    }

    #[test]
    fn noop_epoch_short_circuits_to_an_empty_delta() {
        // The bugfix pinned: a re-captured shard whose CSR is byte-identical
        // (flush with no net updates, or an insert cancelled by its delete)
        // must not count as merged and must yield an empty delta.
        let (g, _) = populated(2, 48);
        let first = UnifiedView::unify(&g.owned_view());

        // Re-capture every shard with zero net updates.
        let owned2 = g.owned_view();
        for s in 0..2 {
            assert!(
                !Arc::ptr_eq(&first.source_arc(s), &owned2.shard_view_arc(s)),
                "shard {s} really was re-captured"
            );
        }
        let second = first.refreshed(&owned2);
        assert_eq!(second.merged_shards(), 0, "byte-identical captures reused");
        let delta = second.delta().expect("delta");
        assert!(
            delta.is_empty(),
            "no-op epoch: {:?}",
            delta.changed_vertices()
        );
        assert!(!delta.has_deletions());

        // Insert + delete of the same edge resolves to an identical CSR too.
        g.insert_edge(7, 33).unwrap();
        assert!(g.delete_edge(7, 33).unwrap());
        let third = second.refreshed(&g.owned_view());
        assert_eq!(third.merged_shards(), 0);
        assert!(third.delta().expect("delta").is_empty());
        let full = UnifiedView::unify(&g.owned_view());
        assert_eq!(CsrView::offsets(&third), CsrView::offsets(&full));
        assert_eq!(CsrView::targets(&third), CsrView::targets(&full));
    }

    #[test]
    fn delta_covers_a_grown_vertex_range() {
        let (g, _) = populated(2, 16);
        let first = UnifiedView::unify(&g.owned_view());
        g.insert_edge(100, 2).unwrap();
        g.insert_edge(2, 100).unwrap();
        let second = first.refreshed(&g.owned_view());
        let delta = second.delta().expect("delta");
        assert_eq!(delta.changed_vertices(), &[2, 100]);
        assert!(!delta.has_deletions());
    }

    #[test]
    fn lost_edges_is_a_multiset_subset_check() {
        assert!(!lost_edges(&[], &[]));
        assert!(!lost_edges(&[], &[1, 2]));
        assert!(!lost_edges(&[2, 1], &[1, 3, 2]));
        assert!(lost_edges(&[1, 1], &[1, 2]), "multiplicity lost");
        assert!(lost_edges(&[4], &[1, 2, 3]));
        assert!(lost_edges(&[1, 2], &[2]));
    }

    #[test]
    fn empty_graph_unifies_to_an_edgeless_csr() {
        // The DGAP shards pre-allocate their vertex range, so an edgeless
        // graph still unifies over that range — with every span empty.
        let g = ShardedGraph::create_dgap_small_test(2).unwrap();
        let owned = g.owned_view();
        let unified = UnifiedView::unify(&owned);
        assert_eq!(unified.num_vertices(), owned.num_vertices());
        assert_eq!(GraphView::num_edges(&unified), 0);
        assert!((0..unified.num_vertices() as u64).all(|v| unified.neighbor_slice(v).is_empty()));
    }

    #[test]
    fn batched_read_hands_out_the_per_vertex_lists() {
        let (g, _) = populated(2, 48);
        let unified = UnifiedView::unify(&g.owned_view());
        let batch = |vertices: Vertices<'_>| {
            let mut got = Vec::new();
            unified.for_each_adjacency(vertices, &mut |v, nbrs| got.push((v, nbrs.to_vec())));
            got
        };
        let per_vertex = |ids: &[VertexId]| -> Vec<(VertexId, Vec<VertexId>)> {
            let list = |v| {
                let mut out = Vec::new();
                unified.for_each_neighbor(v, &mut |u| out.push(u));
                (v, out)
            };
            ids.iter().map(|&v| list(v)).collect()
        };
        let n = unified.num_vertices() as u64;
        let all: Vec<VertexId> = (0..n).collect();
        assert_eq!(batch((0..n).into()), per_vertex(&all));
        let repeated = [5, 0, 5, 47, 5];
        assert_eq!(batch(repeated[..].into()), per_vertex(&repeated));
        // Out-of-range ids, all the way up to u64::MAX: one call each,
        // with an empty slice.
        let outside = [n, 1 << 40, u64::MAX - 1, u64::MAX];
        let got = batch(outside[..].into());
        assert_eq!(got, per_vertex(&outside));
        assert!(got.iter().all(|(_, nbrs)| nbrs.is_empty()));
        assert!(batch((3..3).into()).is_empty());
    }
}
