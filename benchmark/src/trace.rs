//! In-memory span recorder for the traced run. Spans are recorded by
//! the harness around each call it makes into a layer (names are the
//! per-layer metric stems), kept in memory, and written out once at
//! exit. A disabled tracer still times the call, so the untraced and
//! traced runs execute the same harness code.

use crate::json::Json;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one operation share this identifier.
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that began at `start`; `None` while disabled. Used
    /// directly for spans that outlive a call — a job that runs from its
    /// due time to its certificate — and for intervals measured
    /// elsewhere, such as the phase durations a `RuntimeReport` returns.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        start: Instant,
    ) -> Option<SpanId> {
        self.enabled.then(|| {
            let mut spans = self.lock();
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                job,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(start),
            });
            id
        })
    }

    /// Closes a span [`Tracer::open`] returned.
    pub fn close(&self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            self.lock()[id].end_ns = self.ns(end);
        }
    }

    /// Runs `body` as a span named `name` and returns its result with
    /// the wall time it took. `body` receives the span's id so calls it
    /// makes can name it as their parent (`None` while disabled).
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        body: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let id = self.open(name, parent, job, start);
        let result = body(id);
        let end = Instant::now();
        self.close(id, end);
        (result, end - start)
    }

    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes one JSON object per span, with its self time.
    ///
    /// # Errors
    ///
    /// The I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in spans.iter().zip(&selfs) {
            let line = Json::obj([
                ("id", Json::from(span.id as u64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("job", Json::from(span.job)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                ("self_ns", Json::from(*self_ns)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (children on other threads may overlap one
/// another, so covered time is the union of their intervals).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.end_ns.saturating_sub(span.start_ns) - covered
        })
        .collect()
}

/// Share of the `root`-named spans' total duration that the leaf spans
/// beneath them explain. A span with children is a wrapper — the call
/// into a driver whose phases are recorded below it — so its own self
/// time counts as unexplained, like the root's.
#[must_use]
pub fn accounted_share(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let mut has_children = vec![false; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            has_children[parent] = true;
        }
    }
    let under_root = |span: &Span| {
        let mut parent = span.parent;
        while let Some(id) = parent {
            if spans[id].name == root {
                return true;
            }
            parent = spans[id].parent;
        }
        false
    };
    let (mut wall, mut explained) = (0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(selfs) {
        if span.name == root {
            wall += span.end_ns.saturating_sub(span.start_ns);
        } else if !has_children[span.id] && under_root(span) {
            explained += self_ns;
        }
    }
    if wall == 0 {
        0.0
    } else {
        explained as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name: if parent.is_none() { "job" } else { "call" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 70),
            span(3, Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 20, 5]);
        // Leaves under the root: span 2 (20) and span 3 (5); span 1 is a
        // wrapper, so the 25 it spends outside span 3 stays unexplained.
        assert!((accounted_share(&spans, "job") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, None, 100, 200),
            // Two concurrent children overlapping on [130, 150).
            span(1, Some(0), 110, 150),
            span(2, Some(0), 130, 180),
            // A child that overhangs its parent's end is clipped.
            span(3, Some(0), 190, 260),
        ];
        // Covered: [110, 180) ∪ [190, 200) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let (value, took) = tracer.time("x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(value, 7);
        assert!(took < Duration::from_secs(1));
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn nested_calls_link_to_their_parent() {
        let tracer = Tracer::new(true);
        tracer.time("outer", None, 9, |outer| {
            tracer.time("inner", outer, 9, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, 9);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
