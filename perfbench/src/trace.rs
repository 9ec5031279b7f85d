//! In-memory span recording for traced runs.
//!
//! A [`Tracer`] times calls into the program's public functions from the
//! outside: `tracer.span("name", || call())` records the call's start and
//! end, the span it ran inside of, and the job it belongs to. A disabled
//! tracer records nothing and only calls the closure, which is how
//! untraced iterations run through the same code. Spans stay in memory
//! until the run ends; [`write_spans`] then writes them out with their
//! derived self times.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `bayes.reconstruct`.
    pub name: &'static str,
    /// The job the call belongs to; spans of one job share it.
    pub job: u64,
    /// Start, in seconds since the run's epoch.
    pub start: f64,
    /// End, in seconds since the run's epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time of the call in seconds.
    #[must_use]
    pub fn wall(&self) -> f64 {
        self.end - self.start
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    job: Cell<u64>,
}

impl Tracer {
    /// A tracer whose times count from `epoch`; job ids start at
    /// `first_job` so tracers of different threads never share one.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant, first_job: u64) -> Self {
        Self {
            enabled: Cell::new(enabled),
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            job: Cell::new(first_job),
        }
    }

    /// Turns recording on or off (between jobs).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Starts a new job: later spans carry its id.
    pub fn next_job(&self) -> u64 {
        let id = self.job.get() + 1;
        self.job.set(id);
        id
    }

    /// Runs `f`, recording it as a span called `name` when enabled.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start = self.epoch.elapsed().as_secs_f64();
            spans.push(Span { name, job: self.job.get(), start, end: start, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Appends `more` to `spans`, re-basing its parent indices.
pub fn merge(spans: &mut Vec<Span>, more: Vec<Span>) {
    let offset = spans.len();
    spans.extend(more.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }));
}

/// Self time of every span: its wall minus its direct children's walls.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::wall).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.wall();
        }
    }
    own
}

/// Per-name totals: `(count, wall seconds, self seconds)`.
#[must_use]
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.wall();
        entry.2 += own;
    }
    out
}

/// Walls of every span called `name`, in start order.
#[must_use]
pub fn walls(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::wall).collect()
}

/// The JSON document of a traced run: every span, then per-name totals.
#[must_use]
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ =
        write!(out, "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [", json::string(workload));
    let own = self_times(spans);
    for (i, (span, own)) in spans.iter().zip(own).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n  {{\"id\": {i}, \"name\": {}, \"job\": {}, \"start_s\": {}, \"end_s\": {}, \
             \"parent\": {parent}, \"self_s\": {}}}",
            json::string(span.name),
            span.job,
            json::number(span.start),
            json::number(span.end),
            json::number(own)
        );
    }
    out.push_str("\n], \"totals\": {");
    for (i, (name, (count, wall, own))) in summarize(spans).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  {}: {{\"count\": {count}, \"wall_s\": {}, \"self_s\": {}}}",
            json::string(name),
            json::number(wall),
            json::number(own)
        );
    }
    out.push_str("\n}}\n");
    out
}

/// Writes the span document to `path`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_spans(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_json(workload, seed, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, job: 1, start, end, parent }
    }

    #[test]
    fn nested_spans_record_parents_and_jobs() {
        let tracer = Tracer::new(true, Instant::now(), 0);
        tracer.next_job();
        let v = tracer.span("job", || {
            tracer.span("a", || ());
            tracer.span("b", || tracer.span("c", || 7))
        });
        assert_eq!(v, 7);
        tracer.next_job();
        tracer.span("job", || ());
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.job)).collect();
        assert_eq!(
            names,
            [
                ("job", None, 1),
                ("a", Some(0), 1),
                ("b", Some(0), 1),
                ("c", Some(2), 1),
                ("job", None, 2)
            ]
        );
        assert!(spans.iter().all(|s| s.end >= s.start));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false, Instant::now(), 0);
        assert_eq!(tracer.span("x", || 3), 3);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("job", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 4.0, 9.0, Some(0)),
            span("c", 5.0, 7.0, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, [2.0, 3.0, 3.0, 2.0]);
        let totals = summarize(&spans);
        assert_eq!(totals["job"], (1, 10.0, 2.0));
        assert_eq!(walls(&spans, "b"), [5.0]);
    }

    #[test]
    fn merge_rebases_parents() {
        let mut all = vec![span("job", 0.0, 1.0, None)];
        merge(&mut all, vec![span("job", 0.0, 2.0, None), span("a", 0.5, 1.0, Some(0))]);
        assert_eq!(all[2].parent, Some(1));
    }

    #[test]
    fn span_document_is_written_with_totals() {
        let spans = vec![span("job", 0.0, 1.5, None), span("a", 0.5, 1.0, Some(0))];
        let doc = to_json("w", 3, &spans);
        assert!(doc.starts_with("{\"workload\": \"w\", \"seed\": 3, \"spans\": ["));
        assert!(doc.contains("\"parent\": 0, \"self_s\": 0.5}"));
        assert!(doc.contains("\"job\": {\"count\": 1, \"wall_s\": 1.5, \"self_s\": 1.0}"));
    }
}
