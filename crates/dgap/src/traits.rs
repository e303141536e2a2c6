//! System-agnostic graph interfaces.
//!
//! Every system in this workspace — DGAP itself, its ablation variants and
//! all five comparison baselines — implements the same two traits so that
//! the analytics kernels (`analytics` crate) and the benchmark harness
//! (`bench` crate) can treat them interchangeably:
//!
//! * [`DynamicGraph`] is the *update* interface: vertex and edge insertion,
//!   tombstone deletion, and flushing for durability.
//! * [`GraphView`] is the *analysis* interface: a consistent, read-only
//!   snapshot of the graph as of the moment it was created, exactly what the
//!   paper's `g.consistent_view()` hands to a long-running analysis task.
//!
//! Keeping the two separate mirrors the paper's execution model: writer
//! threads keep calling [`DynamicGraph::insert_edge`] while analysis tasks
//! work on the last [`GraphView`] they grabbed.

use crate::chunks::SendPtr;
use std::fmt;

/// Vertex identifier.  Sequential ids starting at zero, as produced by the
/// upstream pre-processing the paper assumes.
pub type VertexId = u64;

/// Errors surfaced by graph update operations.
///
/// The enum is `#[non_exhaustive]`: it is the error half of the stable
/// request/response contract, and new failure modes (service shutdown,
/// worker death, ...) must be addable without breaking downstream matches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The underlying persistent-memory pool ran out of space.
    OutOfSpace(String),
    /// A vertex id was outside the graph's configured range and the system
    /// could not grow to accommodate it.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// Current capacity in vertices.
        capacity: usize,
    },
    /// The operation is not supported by this system (e.g. edge insertion
    /// into the static CSR baseline).
    Unsupported(&'static str),
    /// The component (an ingest pipeline, a service front-end) has shut
    /// down and accepts no further operations.
    Closed,
    /// A background ingest worker died (its backend panicked); the shard's
    /// lane can no longer accept or apply operations.
    WorkerDied {
        /// Index of the shard whose drain worker died.
        shard: usize,
    },
    /// The network transport failed underneath the request (connection
    /// reset, write error, unreadable socket).  The request may or may not
    /// have reached the service; idempotent retry is the caller's call.
    Io(String),
    /// A peer violated the wire protocol: bad magic or version, an unknown
    /// message tag, a truncated body, or a hostile length prefix.  The
    /// connection that produced it is not recoverable — the byte stream has
    /// lost frame alignment.
    Protocol(String),
    /// Admission control shed this request instead of queueing it: the
    /// client is over one of its quotas (or the service is past its
    /// backpressure threshold).  The request was **not** executed; backing
    /// off and retrying is safe.
    Overloaded {
        /// Which quota tripped (`"inflight"`, `"rate"`, `"backpressure"`).
        reason: String,
    },
    /// A persistent region failed its integrity check and the damage is not
    /// repairable from a log or backup.  The shard owning the region is
    /// quarantined; the data it held cannot be trusted.
    Corrupted {
        /// The failing region (`"superblock"`, `"edge section 3"`, ...).
        region: String,
        /// What exactly failed, including pool label and byte offset.
        detail: String,
    },
    /// The service is serving in degraded mode: the listed shards are
    /// quarantined.  For a read this means the result would be partial;
    /// for a mutation it means the target shard is offline.  Retryable —
    /// the shards may be restored or re-ingested.
    Degraded {
        /// Indices of the quarantined shards.
        shards: Vec<usize>,
    },
    /// A wait gave up after its deadline expired.  The operation may still
    /// complete; only the wait timed out.
    Timeout {
        /// How long the caller actually waited, in milliseconds.
        waited_ms: u64,
    },
    /// Any other system-specific failure.
    Other(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::OutOfSpace(msg) => write!(f, "persistent pool out of space: {msg}"),
            GraphError::VertexOutOfRange { vertex, capacity } => {
                write!(f, "vertex {vertex} outside capacity {capacity}")
            }
            GraphError::Unsupported(op) => write!(f, "operation not supported: {op}"),
            GraphError::Closed => write!(f, "the component has shut down"),
            GraphError::WorkerDied { shard } => {
                write!(f, "ingest worker for shard {shard} died: backend panicked")
            }
            GraphError::Io(msg) => write!(f, "transport i/o error: {msg}"),
            GraphError::Protocol(msg) => write!(f, "wire protocol violation: {msg}"),
            GraphError::Overloaded { reason } => {
                write!(f, "request shed by admission control: over {reason} quota")
            }
            GraphError::Corrupted { region, detail } => {
                write!(f, "integrity check failed in {region}: {detail}")
            }
            GraphError::Degraded { shards } => {
                write!(f, "serving degraded: shards {shards:?} quarantined")
            }
            GraphError::Timeout { waited_ms } => {
                write!(f, "wait deadline expired after {waited_ms} ms")
            }
            GraphError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Result alias for graph update operations.
pub type GraphResult<T> = Result<T, GraphError>;

/// A single graph mutation — the unit the batched update path moves.
///
/// Everything that changes a graph is one of these three operations, so a
/// `&[Update]` batch is the lingua franca between clients, the service
/// layer, the sharded ingest pipeline and the backends: deletes flow down
/// the very same shard-partitioned path as inserts instead of needing a
/// side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Update {
    /// Declare a vertex (the paper's `insertV`; a hint/no-op on systems
    /// that pre-allocate their vertex range).
    InsertVertex(VertexId),
    /// Insert the directed edge `src -> dst`.
    InsertEdge(VertexId, VertexId),
    /// Delete the directed edge `src -> dst` (tombstone semantics).
    DeleteEdge(VertexId, VertexId),
}

impl Update {
    /// The vertex that decides *where* the operation executes: the declared
    /// vertex for vertex operations, the **source** for edge operations (an
    /// edge lives entirely in its source's adjacency list, so inserts and
    /// deletes of the same edge always land on the same shard).
    #[inline]
    pub fn key_vertex(&self) -> VertexId {
        match *self {
            Update::InsertVertex(v) => v,
            Update::InsertEdge(src, _) | Update::DeleteEdge(src, _) => src,
        }
    }

    /// Whether this operation is a delete.
    #[inline]
    pub fn is_delete(&self) -> bool {
        matches!(self, Update::DeleteEdge(..))
    }
}

/// Plain `(src, dst)` tuples — the shape every edge generator produces —
/// convert into edge insertions, so `&[(u64, u64)]` streams feed the
/// batched update path without rewriting.
impl From<(VertexId, VertexId)> for Update {
    fn from((src, dst): (VertexId, VertexId)) -> Self {
        Update::InsertEdge(src, dst)
    }
}

/// The update-side interface implemented by every dynamic graph system.
///
/// All methods take `&self`: implementations provide their own internal
/// synchronisation (DGAP uses per-section locks, the baselines their own
/// schemes) so that multiple writer threads can share one instance.
pub trait DynamicGraph: Send + Sync {
    /// Declare a vertex.  Most systems pre-allocate their vertex range and
    /// treat this as a hint/no-op; it exists because the paper's interface
    /// (`g.insertV()`) has it.
    fn insert_vertex(&self, v: VertexId) -> GraphResult<()>;

    /// Insert the directed edge `src -> dst`.
    fn insert_edge(&self, src: VertexId, dst: VertexId) -> GraphResult<()>;

    /// Delete the directed edge `src -> dst`.
    ///
    /// Following the paper, deletion re-inserts the edge with a tombstone
    /// flag; the default implementation therefore reports `Unsupported` only
    /// for systems that cannot express deletions at all.
    fn delete_edge(&self, src: VertexId, dst: VertexId) -> GraphResult<bool> {
        let _ = (src, dst);
        Err(GraphError::Unsupported("delete_edge"))
    }

    /// Apply a batch of typed updates in order.
    ///
    /// Returns the number of operations that *took effect*: every
    /// successful insert counts, a delete counts only when the edge
    /// existed.  Application stops at the first error; operations before it
    /// remain applied (batches are not transactions).
    ///
    /// The default implementation dispatches per-op onto the three update
    /// methods; systems with a cheaper bulk path may override it.
    fn apply(&self, ops: &[Update]) -> GraphResult<usize> {
        let mut effective = 0;
        for &op in ops {
            match op {
                Update::InsertVertex(v) => {
                    self.insert_vertex(v)?;
                    effective += 1;
                }
                Update::InsertEdge(src, dst) => {
                    self.insert_edge(src, dst)?;
                    effective += 1;
                }
                Update::DeleteEdge(src, dst) => {
                    if self.delete_edge(src, dst)? {
                        effective += 1;
                    }
                }
            }
        }
        Ok(effective)
    }

    /// Number of vertices currently known to the system.
    fn num_vertices(&self) -> usize;

    /// Number of edge records inserted (tombstones included, matching how
    /// the paper counts insertion throughput).
    fn num_edges(&self) -> usize;

    /// Make every previously returned insertion durable (drain any volatile
    /// buffering the system keeps).  DGAP persists on every insert, so its
    /// implementation is a fence; GraphOne-FD flushes its DRAM edge list.
    fn flush(&self);

    /// Short human-readable system name used in benchmark output tables.
    fn system_name(&self) -> &'static str;
}

/// A read-only, consistent view of a graph for analysis tasks.
///
/// The view must not observe edges inserted after it was created (the
/// paper's degree-cache snapshot semantics); implementations are free to
/// expose *older* data only if their design cannot do better (LLAMA exposes
/// the last closed snapshot, as in the paper's evaluation).
pub trait GraphView: Send + Sync {
    /// Number of vertices in the snapshot.
    fn num_vertices(&self) -> usize;

    /// Number of directed edges visible in the snapshot (tombstones
    /// excluded where the system can tell them apart cheaply).
    fn num_edges(&self) -> usize;

    /// Out-degree of `v` in the snapshot.
    fn degree(&self, v: VertexId) -> usize;

    /// Invoke `f` for every out-neighbour of `v` visible in the snapshot.
    ///
    /// Neighbours are reported in insertion order.  This is the hot path of
    /// every analytics kernel; implementations should avoid allocating.
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId));

    /// Collect the out-neighbours of `v` into a vector (convenience built on
    /// [`GraphView::for_each_neighbor`]).
    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.for_each_neighbor(v, &mut |n| out.push(n));
        out
    }

    /// Batched read: invoke `f(v, neighbours)` once for every vertex of
    /// `vertices`, in the order given (ids repeat if the list repeats them).
    ///
    /// The contract the parallel kernels rely on:
    ///
    /// * `neighbours` is exactly what [`GraphView::for_each_neighbor`]
    ///   reports for `v`, in the same order — on degree-cache snapshots,
    ///   the visible records among the first [`GraphView::degree`] ones, so
    ///   edges inserted after the view was taken stay invisible;
    /// * ids outside the view (out of range, or vertices that appeared
    ///   after the snapshot) get one call with an empty slice;
    /// * the slice borrows a buffer the view reuses: it is valid only
    ///   during that callback;
    /// * `f` must not read the same view re-entrantly — a view may hold its
    ///   read locks for the whole batch.
    ///
    /// Kernels call this once per chunk of vertices (a range of a
    /// whole-graph pass, a slice of a BFS frontier) so a view can pay its
    /// per-read set-up once per chunk instead of once per vertex.  The
    /// default implementation is built on [`GraphView::for_each_neighbor`].
    fn for_each_adjacency(&self, vertices: Vertices<'_>, f: &mut dyn FnMut(VertexId, &[VertexId])) {
        let mut buf = Vec::new();
        for v in vertices.iter() {
            buf.clear();
            self.for_each_neighbor(v, &mut |n| buf.push(n));
            f(v, &buf);
        }
    }
}

/// The vertices one [`GraphView::for_each_adjacency`] call visits: a
/// contiguous id range (a chunk of a whole-graph pass) or an explicit list
/// (a chunk of a frontier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vertices<'a> {
    /// Every id in the range, ascending.
    Range(std::ops::Range<VertexId>),
    /// The listed ids, in list order.
    List(&'a [VertexId]),
}

impl Vertices<'_> {
    /// The ids in visiting order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        let (range, list) = match self {
            Vertices::Range(r) => (r.clone(), &[][..]),
            Vertices::List(l) => (0..0, *l),
        };
        range.chain(list.iter().copied())
    }
}

impl From<std::ops::Range<VertexId>> for Vertices<'_> {
    fn from(r: std::ops::Range<VertexId>) -> Self {
        Vertices::Range(r)
    }
}

impl<'a> From<&'a [VertexId]> for Vertices<'a> {
    fn from(l: &'a [VertexId]) -> Self {
        Vertices::List(l)
    }
}

/// Views whose adjacency lives in flat CSR arrays expose it here:
/// [`FrozenView`] and the `sharded` crate's unified cross-shard snapshot.
///
/// This is a *capability* trait layered on top of [`GraphView`].  The
/// four paper kernels do not need it: these views answer
/// [`GraphView::for_each_adjacency`] with borrowed neighbour slices, so
/// the generic parallel kernels already skip the per-edge `&mut dyn FnMut`
/// call.  The kernels that read other vertices' slices while visiting one
/// (triangle count, k-core, k-hop, the incremental replays) take a
/// `CsrView`.
pub trait CsrView: GraphView {
    /// The neighbours of `v` as a borrowed slice.  Out-of-range ids (which
    /// untrusted callers are free to send) have no neighbours.
    fn neighbor_slice(&self, v: VertexId) -> &[VertexId];

    /// The CSR offset array: `offsets()[v] .. offsets()[v + 1]` spans
    /// vertex `v`'s neighbours in [`CsrView::targets`] —
    /// `num_vertices() + 1` entries (empty for a default-constructed,
    /// vertex-less view).
    fn offsets(&self) -> &[usize];

    /// The flat target array every neighbour slice borrows from.
    fn targets(&self) -> &[VertexId];
}

impl<T: CsrView + ?Sized> CsrView for &T {
    fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        (**self).neighbor_slice(v)
    }
    fn offsets(&self) -> &[usize] {
        (**self).offsets()
    }
    fn targets(&self) -> &[VertexId] {
        (**self).targets()
    }
}

impl<T: CsrView + ?Sized> CsrView for std::sync::Arc<T> {
    fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        (**self).neighbor_slice(v)
    }
    fn offsets(&self) -> &[usize] {
        (**self).offsets()
    }
    fn targets(&self) -> &[VertexId] {
        (**self).targets()
    }
}

impl<T: GraphView + ?Sized> GraphView for &T {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }
    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        (**self).for_each_neighbor(v, f);
    }
    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        (**self).neighbors(v)
    }
    fn for_each_adjacency(&self, vertices: Vertices<'_>, f: &mut dyn FnMut(VertexId, &[VertexId])) {
        (**self).for_each_adjacency(vertices, f);
    }
}

impl<T: GraphView + ?Sized> GraphView for std::sync::Arc<T> {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }
    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        (**self).for_each_neighbor(v, f);
    }
    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        (**self).neighbors(v)
    }
    fn for_each_adjacency(&self, vertices: Vertices<'_>, f: &mut dyn FnMut(VertexId, &[VertexId])) {
        (**self).for_each_adjacency(vertices, f);
    }
}

/// Sharing a system between writer threads (`Arc<G>`, the shape the
/// `sharded` crate's ingest workers hold) keeps the full update interface.
impl<T: DynamicGraph + ?Sized> DynamicGraph for std::sync::Arc<T> {
    fn insert_vertex(&self, v: VertexId) -> GraphResult<()> {
        (**self).insert_vertex(v)
    }
    fn insert_edge(&self, src: VertexId, dst: VertexId) -> GraphResult<()> {
        (**self).insert_edge(src, dst)
    }
    fn delete_edge(&self, src: VertexId, dst: VertexId) -> GraphResult<bool> {
        (**self).delete_edge(src, dst)
    }
    fn apply(&self, ops: &[Update]) -> GraphResult<usize> {
        (**self).apply(ops)
    }
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }
    fn flush(&self) {
        (**self).flush()
    }
    fn system_name(&self) -> &'static str {
        (**self).system_name()
    }
}

/// Systems that can produce consistent snapshots implement this.
pub trait SnapshotSource {
    /// The snapshot type handed to analysis tasks.  It may borrow from the
    /// graph (all our snapshots do: they cache degrees in DRAM and read edge
    /// data through the graph).
    type View<'a>: GraphView
    where
        Self: 'a;

    /// Capture a consistent view of the latest graph (the paper's
    /// `g.consistent_view()`).
    fn consistent_view(&self) -> Self::View<'_>;
}

/// Systems whose snapshots can **own** their data implement this in
/// addition to [`SnapshotSource`].
///
/// [`SnapshotSource::View`] borrows from the graph, which is the right
/// shape for an analysis task running inside one call frame — and the wrong
/// shape for a service: a request loop wants to capture a snapshot once,
/// stash it in an `Arc`, and keep answering queries from it long after the
/// capturing call returned.  An owned view has no borrow, so it can cross
/// request boundaries, live in caches, and be shared between worker
/// threads freely.
pub trait OwnedSnapshotSource {
    /// The owned snapshot type (no lifetime — safe to cache and share).
    type OwnedView: GraphView + Send + Sync + 'static;

    /// Capture a consistent snapshot that does not borrow from `self`.
    fn owned_view(&self) -> Self::OwnedView;
}

/// An owned, immutable CSR snapshot materialised from any [`GraphView`].
///
/// `capture` walks the source view and copies the **resolved** adjacency —
/// tombstones applied, exactly what `for_each_neighbor` reports — into a
/// compact offsets-plus-targets layout.  The result is `'static`, cheap to
/// query (two array reads per `degree`, one contiguous slice per neighbour
/// scan) and safely shareable, which is what the service layer's
/// epoch-cached snapshots are built from.
///
/// On graphs big enough to matter, `capture` is **parallel**: a parallel
/// per-vertex degree count, a (cheap, serial) prefix sum turning the counts
/// into CSR offsets, and a parallel adjacency fill where every vertex
/// writes its neighbours into its own disjoint slice of the target array.
/// [`FrozenView::capture_sequential`] keeps the original single-threaded
/// two-pass walk as the comparison baseline (`dgap-bench snapshot` measures
/// one against the other); both produce identical snapshots.
///
/// Note one deliberate semantic difference from the borrowed snapshots:
/// [`FrozenView::degree`] counts *visible* neighbours, not raw records, so
/// after deletions analytics over a `FrozenView` match the in-memory
/// reference oracle rather than the paper's record-count convention.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrozenView {
    /// `offsets[v] .. offsets[v + 1]` spans `v`'s neighbours in `targets`.
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
}

/// Below this many vertices **and** this many edges, `capture` stays
/// sequential: the split/steal overhead of the pool outweighs the scan.
/// Both gates matter — a scaled benchmark graph can have few vertices but
/// a dense adjacency worth splitting.
const PARALLEL_CAPTURE_MIN_VERTICES: usize = 1 << 12;
const PARALLEL_CAPTURE_MIN_EDGES: usize = 1 << 14;

impl FrozenView {
    /// Materialise `view` into an owned snapshot, in parallel when the
    /// graph is large enough and more than one thread is available.
    ///
    /// The parallel path scans the source adjacency **once** (resolving a
    /// vertex's neighbours is the expensive step — pool reads plus
    /// tombstone resolution): vertex chunks capture into chunk-local
    /// buffers concurrently, a serial prefix sum turns the per-vertex
    /// counts into exact CSR offsets, and the chunk buffers are then moved
    /// into their final positions concurrently (disjoint slices, plain
    /// memcpy).
    pub fn capture(view: &(impl GraphView + ?Sized)) -> FrozenView {
        let _span = crate::telemetry::capture_nanos().span();
        let n = view.num_vertices();
        let small =
            n < PARALLEL_CAPTURE_MIN_VERTICES && view.num_edges() < PARALLEL_CAPTURE_MIN_EDGES;
        if small || rayon::current_num_threads() <= 1 {
            return Self::capture_sequential(view);
        }
        use rayon::prelude::*;

        // Pool-sized vertex ranges (shared sizing with the parallel
        // kernels and the unified-CSR merge — see [`crate::chunks`]).
        let ranges = crate::chunks::ranges(n);

        // One parallel pass: each chunk resolves its vertices once,
        // recording per-vertex visible degrees and the concatenated
        // adjacency.
        let parts: Vec<(Vec<usize>, Vec<VertexId>)> = ranges
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut counts = Vec::with_capacity(hi - lo);
                let mut local = Vec::new();
                for v in lo as u64..hi as u64 {
                    let before = local.len();
                    view.for_each_neighbor(v, &mut |d| local.push(d));
                    counts.push(local.len() - before);
                }
                (counts, local)
            })
            .collect();

        // Serial prefix sums (O(V), trivial next to the resolve scans):
        // global CSR offsets from the per-vertex counts, and each chunk's
        // start position in the final target array.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut running = 0usize;
        let mut placed: Vec<(usize, Vec<VertexId>)> = Vec::with_capacity(parts.len());
        for (counts, local) in parts {
            placed.push((running, local));
            for c in counts {
                running += c;
                offsets.push(running);
            }
        }
        let total = running;

        // Parallel gather: every chunk's buffer moves into its disjoint
        // slice of the target array.
        let mut targets: Vec<VertexId> = Vec::with_capacity(total);
        let dst = SendPtr(targets.as_mut_ptr());
        placed.into_par_iter().for_each(|(at, local)| {
            debug_assert!(at + local.len() <= total);
            unsafe {
                std::ptr::copy_nonoverlapping(local.as_ptr(), dst.get().add(at), local.len());
            }
        });
        unsafe { targets.set_len(total) };
        FrozenView { offsets, targets }
    }

    /// The original single-threaded two-pass capture, kept as the measured
    /// baseline for the parallel path (and for callers that must not touch
    /// the thread pool).
    pub fn capture_sequential(view: &(impl GraphView + ?Sized)) -> FrozenView {
        let n = view.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(view.num_edges());
        offsets.push(0);
        for v in 0..n as u64 {
            view.for_each_neighbor(v, &mut |d| targets.push(d));
            offsets.push(targets.len());
        }
        FrozenView { offsets, targets }
    }

    /// The neighbours of `v` as a borrowed slice (zero-copy access the
    /// trait interface cannot offer).  Out-of-range ids — all the way up to
    /// `u64::MAX`, which untrusted service clients are free to send — have
    /// no neighbours.
    pub fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        let Some(next) = (v as usize).checked_add(1) else {
            return &[];
        };
        match (self.offsets.get(v as usize), self.offsets.get(next)) {
            (Some(&lo), Some(&hi)) => &self.targets[lo..hi],
            _ => &[],
        }
    }
}

impl GraphView for FrozenView {
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
        // One bulk copy of the already-contiguous span beats the default
        // impl's push-per-neighbour through the dyn closure.
        self.neighbor_slice(v).to_vec()
    }

    fn for_each_adjacency(&self, vertices: Vertices<'_>, f: &mut dyn FnMut(VertexId, &[VertexId])) {
        // Hand out the borrowed CSR span: one callback per vertex, no copy
        // and no per-edge dispatch.
        for v in vertices.iter() {
            f(v, self.neighbor_slice(v));
        }
    }
}

impl CsrView for FrozenView {
    fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        FrozenView::neighbor_slice(self, v)
    }

    fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    fn targets(&self) -> &[VertexId] {
        &self.targets
    }
}

/// A trivial in-memory adjacency-list graph used as the reference oracle in
/// tests across the workspace (it is *not* one of the evaluated systems).
#[derive(Debug, Default, Clone)]
pub struct ReferenceGraph {
    adj: Vec<Vec<VertexId>>,
    num_edges: usize,
}

impl ReferenceGraph {
    /// Create an empty reference graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        ReferenceGraph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Add the directed edge `src -> dst`, growing the vertex set if needed.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        let needed = (src.max(dst) + 1) as usize;
        if needed > self.adj.len() {
            self.adj.resize(needed, Vec::new());
        }
        self.adj[src as usize].push(dst);
        self.num_edges += 1;
    }

    /// Remove one occurrence of `src -> dst`.  Returns whether it existed.
    pub fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> bool {
        if let Some(list) = self.adj.get_mut(src as usize) {
            if let Some(i) = list.iter().position(|&x| x == dst) {
                list.remove(i);
                self.num_edges -= 1;
                return true;
            }
        }
        false
    }
}

impl GraphView for ReferenceGraph {
    fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn degree(&self, v: VertexId) -> usize {
        self.adj.get(v as usize).map_or(0, Vec::len)
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        if let Some(list) = self.adj.get(v as usize) {
            for &n in list {
                f(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_graph_tracks_edges() {
        let mut g = ReferenceGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(2, 0);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), vec![1, 2]);
        assert_eq!(g.neighbors(1), Vec::<VertexId>::new());
    }

    #[test]
    fn default_batched_read_calls_back_once_per_listed_vertex() {
        let mut g = ReferenceGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(2, 0);
        // The same contract holds for FrozenView's slice override.
        let frozen = FrozenView::capture(&g);
        for view in [&g as &dyn GraphView, &frozen] {
            let batch = |vertices: Vertices<'_>| {
                let mut got = Vec::new();
                view.for_each_adjacency(vertices, &mut |v, nbrs| got.push((v, nbrs.to_vec())));
                got
            };
            let per_vertex = |ids: &[VertexId]| -> Vec<(VertexId, Vec<VertexId>)> {
                let list = |v| {
                    let mut out = Vec::new();
                    view.for_each_neighbor(v, &mut |u| out.push(u));
                    (v, out)
                };
                ids.iter().map(|&v| list(v)).collect()
            };
            // Out-of-range ids, up to u64::MAX, get one empty slice each.
            assert_eq!(batch((0..5).into()), per_vertex(&[0, 1, 2, 3, 4]));
            let list = [2, 0, 2, 9, u64::MAX - 1, u64::MAX];
            assert_eq!(batch(list[..].into()), per_vertex(&list));
            assert!(batch((1..1).into()).is_empty());
        }
    }

    #[test]
    fn reference_graph_grows_on_demand() {
        let mut g = ReferenceGraph::new(1);
        g.add_edge(5, 7);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.degree(5), 1);
        assert_eq!(g.degree(7), 0);
    }

    #[test]
    fn reference_graph_removes_one_occurrence() {
        let mut g = ReferenceGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert!(g.remove_edge(0, 1));
        assert_eq!(g.degree(0), 1);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn neighbors_default_matches_for_each() {
        let mut g = ReferenceGraph::new(4);
        for d in [3u64, 1, 2] {
            g.add_edge(0, d);
        }
        let mut via_fn = Vec::new();
        g.for_each_neighbor(0, &mut |n| via_fn.push(n));
        assert_eq!(via_fn, g.neighbors(0));
    }

    #[test]
    fn update_routes_by_source_vertex() {
        assert_eq!(Update::InsertVertex(7).key_vertex(), 7);
        assert_eq!(Update::InsertEdge(3, 9).key_vertex(), 3);
        assert_eq!(Update::DeleteEdge(5, 1).key_vertex(), 5);
        assert!(Update::DeleteEdge(5, 1).is_delete());
        assert!(!Update::InsertEdge(5, 1).is_delete());
        assert_eq!(Update::from((2u64, 4u64)), Update::InsertEdge(2, 4));
    }

    #[test]
    fn apply_counts_effective_operations() {
        #[derive(Default)]
        struct Adj(std::sync::Mutex<ReferenceGraph>);
        impl DynamicGraph for Adj {
            fn insert_vertex(&self, _v: VertexId) -> GraphResult<()> {
                Ok(())
            }
            fn insert_edge(&self, s: VertexId, d: VertexId) -> GraphResult<()> {
                self.0.lock().unwrap().add_edge(s, d);
                Ok(())
            }
            fn delete_edge(&self, s: VertexId, d: VertexId) -> GraphResult<bool> {
                Ok(self.0.lock().unwrap().remove_edge(s, d))
            }
            fn num_vertices(&self) -> usize {
                self.0.lock().unwrap().num_vertices()
            }
            fn num_edges(&self) -> usize {
                GraphView::num_edges(&*self.0.lock().unwrap())
            }
            fn flush(&self) {}
            fn system_name(&self) -> &'static str {
                "adj"
            }
        }
        let g = Adj::default();
        let applied = g
            .apply(&[
                Update::InsertVertex(0),
                Update::InsertEdge(0, 1),
                Update::InsertEdge(0, 2),
                Update::DeleteEdge(0, 1),
                Update::DeleteEdge(0, 9), // not present: no effect
            ])
            .unwrap();
        assert_eq!(applied, 4);
        assert_eq!(g.0.lock().unwrap().neighbors(0), vec![2]);
    }

    #[test]
    fn apply_stops_at_the_first_error() {
        struct NoDeletes;
        impl DynamicGraph for NoDeletes {
            fn insert_vertex(&self, _v: VertexId) -> GraphResult<()> {
                Ok(())
            }
            fn insert_edge(&self, _s: VertexId, _d: VertexId) -> GraphResult<()> {
                Ok(())
            }
            fn num_vertices(&self) -> usize {
                0
            }
            fn num_edges(&self) -> usize {
                0
            }
            fn flush(&self) {}
            fn system_name(&self) -> &'static str {
                "no-deletes"
            }
        }
        let err = NoDeletes
            .apply(&[Update::InsertEdge(0, 1), Update::DeleteEdge(0, 1)])
            .unwrap_err();
        assert_eq!(err, GraphError::Unsupported("delete_edge"));
    }

    #[test]
    fn frozen_view_matches_its_source_and_owns_its_data() {
        let mut g = ReferenceGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(3, 0);
        let frozen = FrozenView::capture(&g);
        drop(g); // the snapshot must not borrow from the source
        assert_eq!(frozen.num_vertices(), 4);
        assert_eq!(frozen.num_edges(), 3);
        assert_eq!(frozen.degree(0), 2);
        assert_eq!(frozen.neighbors(0), vec![1, 2]);
        assert_eq!(frozen.neighbor_slice(3), &[0]);
        assert_eq!(frozen.degree(100), 0);
        assert!(frozen.neighbor_slice(100).is_empty());
    }

    #[test]
    fn csr_view_exposes_the_flat_arrays() {
        let mut g = ReferenceGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(3, 0);
        let frozen = FrozenView::capture(&g);
        fn takes_csr(v: &impl CsrView) -> (usize, Vec<VertexId>) {
            assert_eq!(v.offsets().len(), v.num_vertices() + 1);
            assert_eq!(*v.offsets().last().unwrap(), v.targets().len());
            (v.targets().len(), v.neighbor_slice(0).to_vec())
        }
        assert_eq!(takes_csr(&frozen), (3, vec![1, 2]));
        // The blanket impls keep the capability through & and Arc.
        assert_eq!(takes_csr(&&frozen), (3, vec![1, 2]));
        let shared = std::sync::Arc::new(frozen);
        assert_eq!(takes_csr(&shared), (3, vec![1, 2]));
        assert!(CsrView::neighbor_slice(&shared, u64::MAX).is_empty());
    }

    #[test]
    fn frozen_view_of_the_empty_graph() {
        let frozen = FrozenView::capture(&ReferenceGraph::new(0));
        assert_eq!(frozen.num_vertices(), 0);
        assert_eq!(frozen.num_edges(), 0);
    }

    #[test]
    fn parallel_capture_matches_sequential_above_the_threshold() {
        // Big enough to take the parallel path, with removals so the
        // resolved adjacency differs from the raw insert stream.
        let n = 3 * super::PARALLEL_CAPTURE_MIN_VERTICES as u64;
        let mut g = ReferenceGraph::new(n as usize);
        for v in 0..n {
            for k in 1..=(v % 7) {
                g.add_edge(v, (v + k * 31) % n);
            }
        }
        for v in (0..n).step_by(3) {
            g.remove_edge(v, (v + 31) % n);
        }
        let par = FrozenView::capture(&g);
        let seq = FrozenView::capture_sequential(&g);
        assert_eq!(par, seq);
        assert_eq!(par.num_edges(), g.num_edges());
        for v in (0..n).step_by(997) {
            assert_eq!(par.neighbors(v), g.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn graph_error_messages() {
        assert!(GraphError::OutOfSpace("pool".into())
            .to_string()
            .contains("pool"));
        assert!(GraphError::VertexOutOfRange {
            vertex: 9,
            capacity: 4
        }
        .to_string()
        .contains('9'));
        assert!(GraphError::Unsupported("x").to_string().contains('x'));
        assert!(GraphError::Closed.to_string().contains("shut down"));
        assert!(GraphError::WorkerDied { shard: 3 }
            .to_string()
            .contains("shard 3"));
        let corrupted = GraphError::Corrupted {
            region: "edge section 4".into(),
            detail: "crc mismatch".into(),
        }
        .to_string();
        assert!(corrupted.contains("edge section 4") && corrupted.contains("crc mismatch"));
        let degraded = GraphError::Degraded { shards: vec![1, 3] }.to_string();
        assert!(degraded.contains("[1, 3]"));
        assert!(GraphError::Timeout { waited_ms: 250 }
            .to_string()
            .contains("250 ms"));
    }

    #[test]
    fn degree_of_unknown_vertex_is_zero() {
        let g = ReferenceGraph::new(2);
        assert_eq!(g.degree(100), 0);
        assert!(g.neighbors(100).is_empty());
    }

    #[test]
    fn arc_wrapper_preserves_the_view_interface() {
        let mut g = ReferenceGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        let shared = std::sync::Arc::new(g);
        fn takes_view(v: &impl GraphView) -> (usize, Vec<VertexId>) {
            (v.num_edges(), v.neighbors(0))
        }
        assert_eq!(takes_view(&shared), (2, vec![1, 2]));
        assert_eq!(shared.degree(0), 2);
        assert_eq!(shared.num_vertices(), 3);
    }

    #[test]
    fn arc_wrapper_preserves_the_update_interface() {
        #[derive(Default)]
        struct CountingGraph {
            edges: std::sync::atomic::AtomicUsize,
        }
        impl DynamicGraph for CountingGraph {
            fn insert_vertex(&self, _v: VertexId) -> GraphResult<()> {
                Ok(())
            }
            fn insert_edge(&self, _s: VertexId, _d: VertexId) -> GraphResult<()> {
                self.edges
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            }
            fn num_vertices(&self) -> usize {
                0
            }
            fn num_edges(&self) -> usize {
                self.edges.load(std::sync::atomic::Ordering::Relaxed)
            }
            fn flush(&self) {}
            fn system_name(&self) -> &'static str {
                "counting"
            }
        }
        let shared = std::sync::Arc::new(CountingGraph::default());
        fn takes_graph(g: &impl DynamicGraph) {
            g.insert_edge(0, 1).unwrap();
            g.flush();
        }
        takes_graph(&shared);
        takes_graph(&shared);
        assert_eq!(shared.num_edges(), 2);
        assert_eq!(shared.system_name(), "counting");
        assert!(matches!(
            shared.delete_edge(0, 1),
            Err(GraphError::Unsupported("delete_edge"))
        ));
    }
}
