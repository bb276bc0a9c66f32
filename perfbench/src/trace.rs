//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into a
//! layer. They stay in memory until the run ends and are then written out as
//! one JSON object per line. A span's *self time* is its duration minus the
//! part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A trace id, shared by every span of one unit of work.
pub type Trace = Arc<str>;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<u64>,
    /// Groups the spans of one unit of work: `workload/pass/case` or a job.
    pub trace: Trace,
    /// The layer metric this span times, e.g. `tv.verify`.
    pub name: &'static str,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A thread-safe span sink.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `body` inside a span. `body` receives the new span's id so that
    /// nested spans can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        trace: &Trace,
        parent: Option<u64>,
        body: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let result = body(id);
        let end = self.epoch.elapsed();
        self.push(Span {
            id,
            parent,
            trace: trace.clone(),
            name,
            start,
            end,
        });
        result
    }

    /// Records a span whose bounds were measured elsewhere (client-side
    /// frame arrivals). Returns its id.
    pub fn record(
        &self,
        name: &'static str,
        trace: &Trace,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            trace: trace.clone(),
            name,
            start: self.offset(start),
            end: self.offset(end),
        });
        id
    }

    /// `at` relative to the tracer's epoch.
    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.epoch)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Every span recorded so far, sorted by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span sink poisoned").clone();
        spans.sort_by_key(|span| span.id);
        spans
    }
}

/// Self time of every span, in the order given: its duration minus the union
/// of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = Duration::ZERO;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort();
                // Sweep the sorted, clipped intervals, counting overlaps once.
                let mut reach = span.start;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach).min(span.end);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: usize,
    /// Summed durations, in seconds.
    pub inclusive_s: f64,
    /// Summed self times, in seconds.
    pub self_s: f64,
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.inclusive_s += span.duration().as_secs_f64();
        entry.self_s += own.as_secs_f64();
    }
    out
}

/// A table of [`totals`], one layer per line, with each layer's share of the
/// summed self time.
pub fn render_totals(spans: &[Span]) -> String {
    let totals = totals(spans);
    let all_self: f64 = totals.values().map(|t| t.self_s).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<22} {:>9} {:>12} {:>12} {:>8}",
        "span", "count", "incl_s", "self_s", "self%"
    );
    for (name, t) in &totals {
        let share = if all_self > 0.0 {
            100.0 * t.self_s / all_self
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {name:<22} {:>9} {:>12.6} {:>12.6} {share:>7.2}%",
            t.count, t.inclusive_s, t.self_s
        );
    }
    out
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            file,
            "{{\"id\":{},\"parent\":{parent},\"trace\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.id,
            span.trace.replace('\\', "\\\\").replace('"', "\\\""),
            span.name,
            span.start.as_nanos(),
            span.end.as_nanos(),
            own.as_nanos()
        )?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: "t".into(),
            name: "x",
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, None, 0, 100),
            // Two overlapping children cover 10..50 once (40 ms).
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A grandchild does not count against the root.
            span(4, Some(2), 12, 20),
            // A child that outlives its parent is clipped at the parent's end.
            span(5, Some(1), 90, 130),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_millis(100 - 40 - 10));
        assert_eq!(own[1], Duration::from_millis(30 - 8));
        assert_eq!(own[2], Duration::from_millis(20));
        assert_eq!(own[3], Duration::from_millis(8));
        assert_eq!(own[4], Duration::from_millis(40));
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span(7, None, 5, 9)];
        assert_eq!(self_times(&spans), vec![Duration::from_millis(4)]);
    }

    #[test]
    fn totals_group_by_name_and_nest_through_the_tracer() {
        let tracer = Tracer::new();
        let trace = Trace::from("t");
        tracer.span("outer", &trace, None, |outer| {
            tracer.span("inner", &trace, Some(outer), |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        let totals = totals(&spans);
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.inclusive_s >= 0.002);
        assert!(outer.inclusive_s >= inner.inclusive_s);
        assert!((outer.self_s - (outer.inclusive_s - inner.inclusive_s)).abs() < 1e-9);
    }
}
