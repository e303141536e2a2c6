//! Incremental (epoch-delta) kernels: PageRank and connected components
//! that seed from the **previous epoch's result** and re-relax only the
//! neighbourhood of the vertices whose adjacency actually changed.
//!
//! The serving steady state is small write bursts between analytics
//! queries; recomputing from a cold start each epoch pays O(V + E) per
//! query for a delta that touched a handful of vertices.  The `sharded`
//! crate's `UnifiedView::refreshed` already derives the exact changed
//! vertex set as a by-product of its span re-merge; these kernels turn
//! that delta into O(delta)-shaped work:
//!
//! * [`pagerank_incremental`] replays the fixed-iteration pull schedule,
//!   but per iteration recomputes only a *frontier*: the adjacency-changed
//!   vertices plus the neighbours of every vertex whose rank deviated in
//!   the previous iteration.  Because the service's parity contract (and
//!   the GAPBS configuration the paper benchmarks) is a fixed 20-iteration
//!   run — not a converged fixed point — the kernel keeps the previous
//!   epoch's **per-iteration rank history** ([`RankCache`]) and reuses the
//!   old trajectory verbatim for every vertex outside the frontier: a
//!   vertex's rank at iteration `k` depends only on its neighbours' ranks
//!   at `k - 1`, so an untouched neighbourhood reproduces the old value
//!   bit-for-bit.  Deviations below [`INCREMENTAL_PRUNE_TOLERANCE`] are
//!   not propagated (damping contracts them geometrically, keeping the
//!   end-to-end error orders of magnitude under the pinned `1e-9`), which
//!   is what lets the frontier die out instead of flooding the graph.
//! * [`cc_incremental`] exploits that insert-only deltas can only *merge*
//!   components: it unions the previous epoch's labels across the changed
//!   vertices' adjacency and relabels — exactly the labels [`crate::cc_parallel`]
//!   would produce (component minima), at O(delta + V) instead of
//!   O(rounds × (V + E)).  Any lost edge could split a component, so
//!   deletions fall back to the full kernel.
//!
//! Both kernels return `None` when incremental execution is not safe or
//! not profitable (vertex range shrank, delta above
//! [`INCREMENTAL_FALLBACK_FRACTION`] of V, deletions for CC); the caller
//! runs the full kernel instead and counts a fallback.

use dgap::chunks::{ranges, SendPtr};
use dgap::{CsrView, VertexId};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

use crate::pagerank::{pagerank_run, DAMPING};

/// Give up on incremental PageRank when the changed set (or any
/// iteration's frontier) exceeds this fraction of the vertex set — past
/// that point the bookkeeping costs more than the full kernel's tight
/// chunked passes.
pub const INCREMENTAL_FALLBACK_FRACTION: f64 = 0.25;

/// Rank deviations at or below this magnitude are not propagated to the
/// next iteration's frontier.  Suppressed error contracts geometrically
/// under damping (each hop redistributes it divided by the neighbour's
/// degree), so the end-to-end deviation from the full kernel stays about
/// two orders of magnitude under the pinned `1e-9` parity bound — while a
/// burst's rank perturbation, which spreads out and shrinks roughly with
/// the ball size it has reached, falls below this threshold within a few
/// hops and lets the frontier die out instead of flooding the graph.
pub const INCREMENTAL_PRUNE_TOLERANCE: f64 = 1e-11;

/// The previous epoch's PageRank trajectory: the rank vector after **every**
/// iteration, not just the last, so an incremental replay can reuse any
/// untouched vertex's value at any point of the schedule bit-for-bit.
///
/// The trajectory is stored as dense `base` rows (produced by a full
/// [`pagerank_csr_recording`] run and **shared, never mutated**, across
/// every epoch descended from it) plus a sparse `patch` overlay per row
/// holding only the entries an incremental replay changed.  That makes an
/// incremental epoch O(frontier) in allocation and copying instead of
/// O(iterations × V) — cloning and re-materialising the dense history cost
/// as much as the full kernel it was supposed to beat.  The row at
/// iteration `k` is `base[k]` overridden by `patch[k]`; row 0 is the
/// uniform seed and never deviates.
#[derive(Debug, Clone)]
pub struct RankCache {
    iterations: usize,
    base: Vec<Arc<Vec<f64>>>,
    patch: Vec<HashMap<VertexId, f64>>,
    /// Materialised final row (`base[iterations]` + `patch[iterations]`) —
    /// identical to what `pagerank_parallel` would have returned.
    ranks: Vec<f64>,
}

impl RankCache {
    /// The iteration count this trajectory was computed with.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of vertices the trajectory covers.
    pub fn num_vertices(&self) -> usize {
        self.base.first().map_or(0, |row| row.len())
    }

    /// The final rank vector — identical to what `pagerank_parallel` returned.
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Total trajectory entries held — `(iterations + 1) × V` dense plus
    /// the sparse patches — what a cache eviction policy budgets against.
    pub fn entries(&self) -> usize {
        self.base.iter().map(|row| row.len()).sum::<usize>()
            + self.patch.iter().map(HashMap::len).sum::<usize>()
    }

    /// Sparse overrides accumulated by incremental replays.
    fn patched(&self) -> usize {
        self.patch.iter().map(HashMap::len).sum()
    }

    /// Fold every patch row into a fresh dense base (rows without patches
    /// keep sharing the old allocation).  Costs O(patched rows × V), paid
    /// only once per ~V accumulated patches — the amortisation that keeps
    /// long incremental chains from degrading into dense-row clones on
    /// every epoch.
    fn densified(&self) -> RankCache {
        let base = self
            .base
            .iter()
            .zip(&self.patch)
            .map(|(row, patch)| {
                if patch.is_empty() {
                    Arc::clone(row)
                } else {
                    let mut dense = (**row).clone();
                    for (&v, &x) in patch {
                        dense[v as usize] = x;
                    }
                    Arc::new(dense)
                }
            })
            .collect();
        RankCache {
            iterations: self.iterations,
            base,
            patch: vec![HashMap::new(); self.patch.len()],
            ranks: self.ranks.clone(),
        }
    }
}

/// A successful incremental PageRank pass: the refreshed trajectory plus
/// the frontier statistics the service's telemetry records.
#[derive(Debug)]
pub struct IncrementalRun {
    /// The new epoch's trajectory (becomes the next epoch's seed).
    pub cache: RankCache,
    /// Largest per-iteration frontier (recomputed-vertex count).
    pub frontier_peak: usize,
    /// Total vertex recomputations across all iterations — the work an
    /// equivalent full run would have spent `iterations × V` on.
    pub recomputed: usize,
}

/// Full PageRank that also records the per-iteration rank history.  It
/// runs the very loop of [`crate::pagerank_parallel`], so the trajectory
/// (and the final vector) is bit-identical to it.
pub fn pagerank_csr_recording(view: &impl CsrView, iterations: usize) -> RankCache {
    let mut history = Vec::new();
    let ranks = pagerank_run(view, iterations, |row| history.push(Arc::new(row.to_vec())));
    RankCache {
        iterations,
        patch: vec![HashMap::new(); history.len()],
        base: history,
        ranks,
    }
}

/// Incremental PageRank: replay `prev`'s fixed-iteration schedule over the
/// new adjacency, recomputing only the frontier grown outward from
/// `changed` (the vertices whose adjacency differs from the epoch `prev`
/// was computed over).  Returns `None` — caller falls back to the full
/// kernel — when the vertex range changed or the changed set exceeds
/// [`INCREMENTAL_FALLBACK_FRACTION`] of V.  The per-iteration frontier is
/// allowed to transiently flood (a perturbation spreads before pruning
/// contracts it); only the input delta gates the fallback.
///
/// The result matches `pagerank_parallel(view, prev.iterations())` to well
/// within `1e-9` per vertex: untouched vertices reuse the old trajectory
/// bit-for-bit, recomputed vertices re-derive their value from the same
/// neighbour order, and only deviations at or below
/// [`INCREMENTAL_PRUNE_TOLERANCE`] are ever left unpropagated.
pub fn pagerank_incremental(
    view: &impl CsrView,
    prev: &RankCache,
    changed: &[VertexId],
) -> Option<IncrementalRun> {
    let n = view.num_vertices();
    if prev.num_vertices() != n {
        return None;
    }
    if n == 0 || changed.is_empty() {
        return Some(IncrementalRun {
            cache: prev.clone(),
            frontier_peak: 0,
            recomputed: 0,
        });
    }
    let limit = ((INCREMENTAL_FALLBACK_FRACTION * n as f64).ceil() as usize).max(1);
    if changed.len() > limit {
        return None;
    }
    // A long chain of incremental epochs accretes patches; once the
    // overlay rivals a dense row, fold it into fresh base rows so lookups
    // and clones stay sparse (amortised: once per ~V accumulated patches).
    let dense;
    let prev = if prev.patched() > n {
        dense = prev.densified();
        &dense
    } else {
        prev
    };
    let base = (1.0 - DAMPING) / n as f64;
    let mut patch = prev.patch.clone();

    // `stamp[v] == epoch` marks frontier membership for the current
    // iteration without clearing a bitmap each round.
    let mut stamp = vec![0u32; n];
    let mut epoch = 0u32;
    // Vertices whose rank deviated from the old trajectory last iteration;
    // empty before iteration 1 (both runs start from the same uniform seed).
    let mut deviated: Vec<usize> = Vec::new();
    let mut next_deviated: Vec<usize> = Vec::new();
    let mut frontier: Vec<usize> = Vec::new();
    let mut frontier_peak = 0usize;
    let mut recomputed = 0usize;

    for k in 1..=prev.iterations {
        // Frontier: adjacency-changed vertices and their neighbourhoods
        // (a changed degree alters the vertex's *contribution* at every
        // iteration even when its rank coincides with the old trajectory,
        // so its consumers must re-pull each round), plus everyone a
        // deviated rank can reach this round.  Symmetric adjacency — the
        // convention every kernel in this crate relies on — is what makes
        // `neighbor_slice` enumerate a vertex's consumers.
        epoch += 1;
        frontier.clear();
        for &v in changed {
            let v = v as usize;
            if v < n && stamp[v] != epoch {
                stamp[v] = epoch;
                frontier.push(v);
            }
        }
        for &v in changed {
            if (v as usize) >= n {
                continue;
            }
            for &w in view.neighbor_slice(v) {
                let w = w as usize;
                if stamp[w] != epoch {
                    stamp[w] = epoch;
                    frontier.push(w);
                }
            }
        }
        for &u in &deviated {
            for &w in view.neighbor_slice(u as u64) {
                let w = w as usize;
                if stamp[w] != epoch {
                    stamp[w] = epoch;
                    frontier.push(w);
                }
            }
        }
        frontier_peak = frontier_peak.max(frontier.len());
        recomputed += frontier.len();

        let (before, after) = patch.split_at_mut(k);
        let prev_patch: &HashMap<VertexId, f64> = &before[k - 1];
        let cur_patch: &mut HashMap<VertexId, f64> = &mut after[0];
        let prev_base: &[f64] = &prev.base[k - 1];
        let cur_base: &[f64] = &prev.base[k];
        next_deviated.clear();
        for &v in &frontier {
            let mut sum = 0.0;
            for &u in view.neighbor_slice(v as u64) {
                let d = view.neighbor_slice(u).len();
                // Same IEEE ops as the full kernel's contribution pass
                // (rank / degree), re-derived per edge instead of staged
                // through the O(V) contrib array.
                if d != 0 {
                    let r = if prev_patch.is_empty() {
                        prev_base[u as usize]
                    } else {
                        match prev_patch.get(&u) {
                            Some(&x) => x,
                            None => prev_base[u as usize],
                        }
                    };
                    sum += r / d as f64;
                }
            }
            let val = base + DAMPING * sum;
            let old = match cur_patch.get(&(v as VertexId)) {
                Some(&x) => x,
                None => cur_base[v],
            };
            // Patch only genuine deviations from the shared dense row; a
            // value that re-derives the base bit-for-bit clears any stale
            // override inherited from an earlier epoch.
            if val == cur_base[v] {
                cur_patch.remove(&(v as VertexId));
            } else {
                cur_patch.insert(v as VertexId, val);
            }
            if (val - old).abs() > INCREMENTAL_PRUNE_TOLERANCE {
                next_deviated.push(v);
            }
        }
        std::mem::swap(&mut deviated, &mut next_deviated);
    }

    let mut ranks = (*prev.base[prev.iterations]).clone();
    for (&v, &x) in &patch[prev.iterations] {
        ranks[v as usize] = x;
    }
    Some(IncrementalRun {
        cache: RankCache {
            iterations: prev.iterations,
            base: prev.base.clone(),
            patch,
            ranks,
        },
        frontier_peak,
        recomputed,
    })
}

/// Incremental connected components: merge the previous epoch's labels
/// across the changed vertices' adjacency.  Insert-only deltas can only
/// merge components, so a union-find over the old labels — seeded by every
/// edge incident to a changed vertex — followed by one relabel pass yields
/// **exactly** the labels [`crate::cc_parallel`] produces (the smallest vertex
/// id in each component).  Returns `None` when any edge was lost (a
/// deletion can split a component; only the full kernel can see that) or
/// the vertex range shrank.
pub fn cc_incremental(
    view: &impl CsrView,
    prev_labels: &[u64],
    changed: &[VertexId],
    has_deletions: bool,
) -> Option<Vec<u64>> {
    if has_deletions {
        return None;
    }
    let n = view.num_vertices();
    if prev_labels.len() > n {
        return None;
    }
    // New vertices (range grew) start as their own component; their edges
    // are covered below because a formerly-empty adjacency that gained
    // edges is by definition changed.
    let mut labels: Vec<u64> = Vec::with_capacity(n);
    labels.extend_from_slice(prev_labels);
    labels.extend(prev_labels.len() as u64..n as u64);
    if changed.is_empty() {
        return Some(labels);
    }

    fn find(parent: &mut [u64], mut x: u64) -> u64 {
        while parent[x as usize] != x {
            let g = parent[parent[x as usize] as usize];
            parent[x as usize] = g;
            x = g;
        }
        x
    }

    // Union-find over label ids (labels are vertex ids, so the table spans
    // the vertex range).  Attaching the larger root under the smaller
    // keeps every root the minimum of its merged set — the cc_parallel invariant.
    let mut parent: Vec<u64> = (0..n as u64).collect();
    for &v in changed {
        if v as usize >= n {
            continue;
        }
        let lv = labels[v as usize];
        for &u in view.neighbor_slice(v) {
            let (ra, rb) = (find(&mut parent, lv), find(&mut parent, labels[u as usize]));
            if ra < rb {
                parent[rb as usize] = ra;
            } else if rb < ra {
                parent[ra as usize] = rb;
            }
        }
    }
    // Fully compress once, then relabel in parallel chunks off the
    // read-only table.
    for i in 0..n as u64 {
        find(&mut parent, i);
    }
    let parent = &parent;
    let dst = SendPtr(labels.as_mut_ptr());
    ranges(n).par_iter().for_each(|&(lo, hi)| {
        for v in lo..hi {
            // Chunks are disjoint: each index is written once.  Reading
            // labels[v] through the raw pointer is fine — the relabel only
            // depends on the pre-pass value at the same index.
            unsafe {
                let l = *dst.get().add(v);
                *dst.get().add(v) = parent[l as usize];
            }
        }
    });
    Some(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{path4, two_triangles};
    use crate::{cc_parallel, pagerank_parallel};
    use dgap::{FrozenView, GraphView, ReferenceGraph};

    /// A pseudo-random symmetric graph plus a list of extra edges to apply
    /// as a later burst.
    fn random_graph(n: u64, edges: usize, seed: u64) -> ReferenceGraph {
        let mut g = ReferenceGraph::new(n as usize);
        let mut x = seed;
        for _ in 0..edges {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 33) % n;
            let b = (x >> 11) % n;
            g.add_edge(a, b);
            g.add_edge(b, a);
        }
        g
    }

    fn assert_within(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "v {i}: {x} vs {y}");
        }
    }

    #[test]
    fn recording_run_is_bit_identical_to_pagerank_parallel() {
        for g in [two_triangles(), path4()] {
            let frozen = FrozenView::capture(&g);
            let cache = pagerank_csr_recording(&frozen, 20);
            assert_eq!(cache.ranks(), &pagerank_parallel(&frozen, 20)[..]);
            assert_eq!(cache.iterations(), 20);
            assert_eq!(cache.num_vertices(), g.num_vertices());
            assert_eq!(cache.entries(), 21 * g.num_vertices());
            // history[0] is the uniform seed.
            let n = g.num_vertices() as f64;
            assert!(cache.base[0].iter().all(|&r| r == 1.0 / n));
        }
        let empty = pagerank_csr_recording(&FrozenView::capture(&ReferenceGraph::new(0)), 5);
        assert!(empty.ranks().is_empty());
        assert_eq!(empty.entries(), 0);
    }

    #[test]
    fn incremental_pagerank_tracks_the_full_kernel_across_bursts() {
        let mut g = random_graph(300, 900, 7);
        let frozen = FrozenView::capture(&g);
        let mut cache = pagerank_csr_recording(&frozen, 20);

        let mut x = 99u64;
        for burst in 0..6 {
            // A small burst: a few symmetric inserts (and from burst 3 on,
            // deletions too — PageRank absorbs both).
            let mut changed: Vec<u64> = Vec::new();
            for _ in 0..3 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = (x >> 33) % 300;
                let b = (x >> 11) % 300;
                if burst >= 3 && g.remove_edge(a, b) {
                    g.remove_edge(b, a);
                } else {
                    g.add_edge(a, b);
                    g.add_edge(b, a);
                }
                changed.extend([a, b]);
            }
            changed.sort_unstable();
            changed.dedup();
            let frozen = FrozenView::capture(&g);
            let run = pagerank_incremental(&frozen, &cache, &changed)
                .expect("small burst stays incremental");
            let full = pagerank_parallel(&frozen, 20);
            assert_within(run.cache.ranks(), &full, 1e-9);
            assert!(run.frontier_peak >= 1, "burst {burst} had a frontier");
            assert!(run.recomputed >= changed.len() * 20);
            cache = run.cache;
        }
    }

    #[test]
    fn empty_delta_returns_the_previous_trajectory_unchanged() {
        let g = two_triangles();
        let frozen = FrozenView::capture(&g);
        let cache = pagerank_csr_recording(&frozen, 20);
        let run = pagerank_incremental(&frozen, &cache, &[]).expect("no-op");
        assert_eq!(run.cache.ranks(), cache.ranks());
        assert_eq!(run.frontier_peak, 0);
        assert_eq!(run.recomputed, 0);
    }

    #[test]
    fn oversized_deltas_and_range_changes_fall_back() {
        let g = random_graph(100, 300, 3);
        let frozen = FrozenView::capture(&g);
        let cache = pagerank_csr_recording(&frozen, 10);
        // More than INCREMENTAL_FALLBACK_FRACTION of V changed.
        let big: Vec<u64> = (0..40).collect();
        assert!(pagerank_incremental(&frozen, &cache, &big).is_none());
        // Vertex range mismatch.
        let grown = FrozenView::capture(&random_graph(150, 300, 3));
        assert!(pagerank_incremental(&grown, &cache, &[1]).is_none());
    }

    #[test]
    fn incremental_cc_merges_components_exactly() {
        // Two separate cliques; the burst bridges them.
        let mut g = ReferenceGraph::new(10);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)] {
            g.add_edge(a, b);
            g.add_edge(b, a);
        }
        let labels = cc_parallel(&FrozenView::capture(&g));
        g.add_edge(2, 5);
        g.add_edge(5, 2);
        let frozen = FrozenView::capture(&g);
        let merged = cc_incremental(&frozen, &labels, &[2, 5], false).expect("insert-only burst");
        assert_eq!(merged, cc_parallel(&frozen), "exact label parity");
        assert_eq!(merged[5], 0, "merged component takes the minimum label");
    }

    #[test]
    fn incremental_cc_across_random_bursts() {
        let mut g = random_graph(200, 220, 11);
        let mut labels = cc_parallel(&FrozenView::capture(&g));
        let mut x = 5u64;
        for _ in 0..8 {
            let mut changed: Vec<u64> = Vec::new();
            for _ in 0..2 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = (x >> 33) % 200;
                let b = (x >> 11) % 200;
                g.add_edge(a, b);
                g.add_edge(b, a);
                changed.extend([a, b]);
            }
            changed.sort_unstable();
            changed.dedup();
            let frozen = FrozenView::capture(&g);
            labels = cc_incremental(&frozen, &labels, &changed, false).expect("inserts");
            assert_eq!(labels, cc_parallel(&frozen));
        }
    }

    #[test]
    fn incremental_cc_declines_deletions_and_shrunken_ranges() {
        let g = path4();
        let frozen = FrozenView::capture(&g);
        let labels = cc_parallel(&frozen);
        assert!(cc_incremental(&frozen, &labels, &[1], true).is_none());
        let smaller = FrozenView::capture(&ReferenceGraph::new(2));
        assert!(cc_incremental(&smaller, &labels, &[], false).is_none());
    }

    #[test]
    fn incremental_cc_covers_a_grown_vertex_range() {
        let mut g = ReferenceGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        let labels = cc_parallel(&FrozenView::capture(&g));
        // Grow the range and attach the new vertex to the old component.
        g.add_edge(7, 1);
        g.add_edge(1, 7);
        let frozen = FrozenView::capture(&g);
        let merged = cc_incremental(&frozen, &labels, &[1, 7], false).expect("inserts");
        assert_eq!(merged, cc_parallel(&frozen));
        assert_eq!(merged[7], 0);
    }
}
