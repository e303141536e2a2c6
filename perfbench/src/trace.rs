//! The traced run's span recorder.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span: name, start, end, the span that caused it, and the id of the
//! request (or operation) every span of one round trip shares.  Spans stay
//! in memory while the run measures and are written out once it ends; the
//! per-layer table is computed from them plus counter deltas.  Nothing is
//! recorded inside the program itself.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one request or operation.
    pub req: u64,
    /// Which call this is (`layer.function`).
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Simulated PM nanoseconds the call was charged (0 where device time
    /// cannot be assigned to one call).
    pub sim_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span: what [`Recorder::begin`] hands back to [`Recorder::end`].
#[must_use]
pub struct Open {
    index: Option<usize>,
}

/// Per-thread span buffer.  Disabled recorders cost one branch per call.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids start at `id_base` (give each thread its own
    /// base so merged traces keep ids unique).
    pub fn new(enabled: bool, epoch: Instant, id_base: u64) -> Recorder {
        Recorder {
            enabled,
            epoch,
            next_id: id_base,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open { index: None };
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            req,
            name,
            start_ns,
            end_ns: start_ns,
            sim_ns: 0,
        });
        self.stack.push(id);
        Open {
            index: Some(self.spans.len() - 1),
        }
    }

    /// Close `open`, charging it `sim_ns` of simulated device time.
    pub fn end(&mut self, open: Open, sim_ns: u64) {
        if let Some(i) = open.index {
            let end_ns = self.now_ns();
            let span = &mut self.spans[i];
            span.end_ns = end_ns;
            span.sim_ns = sim_ns;
            self.stack.pop();
        }
    }

    /// Hand over the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed wall time.
    pub wall_ns: u64,
    /// Summed self time: wall time not covered by child spans.
    pub self_ns: u64,
    /// Summed simulated device time.
    pub sim_ns: u64,
}

/// Length of the part of `[start, end)` that the union of `children`
/// covers; children may overlap each other and stick out of the parent.
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: its wall time minus the part of its interval
/// its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.wall_ns() - covered.min(s.wall_ns()))
        })
        .collect()
}

/// Per-name totals over a whole trace.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.wall_ns += s.wall_ns();
        t.self_ns += selfs[&s.id];
        t.sim_ns += s.sim_ns;
    }
    out
}

/// Write every span as one JSON object per line.
pub fn dump(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"sim_ns\":{}}}",
            s.id, s.req, s.name, s.start_ns, s.end_ns, s.sim_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: if parent.is_none() { "outer" } else { "inner" },
            start_ns,
            end_ns,
            sim_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40), so together they cover 50 ns, not 60.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 30);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_ignores_grandchildren() {
        // A child that sticks out past the parent counts only inside it; a
        // grandchild is the child's business, not the parent's.
        let spans = vec![
            span(1, None, 100, 200),
            span(2, Some(1), 150, 260),
            span(3, Some(2), 160, 170),
            span(4, Some(1), 90, 110),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 110 - 10);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(totals["inner"].count, 3);
        assert_eq!(totals["inner"].wall_ns, 110 + 10 + 20);
    }

    #[test]
    fn recorder_nests_spans_and_keeps_nothing_when_disabled() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(true, epoch, 1000);
        let outer = rec.begin("outer", 7);
        let inner = rec.begin("inner", 7);
        rec.end(inner, 5);
        rec.end(outer, 0);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 1000);
        assert_eq!(spans[1].parent, Some(1000));
        assert_eq!(spans[1].sim_ns, 5);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Recorder::new(false, epoch, 0);
        let o = off.begin("outer", 1);
        off.end(o, 0);
        assert!(off.into_spans().is_empty());
    }
}
