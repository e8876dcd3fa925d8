//! In-memory span recorder for the traced run.
//!
//! The traced run wraps every layer's public API in a decorator
//! (see `decor`) that opens a span around each call. A span records its
//! name, start, end, the span that caused it, and an optional request
//! tag; per-name totals (calls, wall time, self time) and named counters
//! are kept alongside. Nothing is written until [`finish`], so the
//! recorder never does I/O inside a timed region.
//!
//! The untraced run never creates a span: it calls the undecorated
//! types, so tracing cannot touch the numbers it reports.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per run (about 10 MB of JSON lines); later spans still
/// count in the per-name totals and counters.
const SPAN_CAP: usize = 100_000;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub tag: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl LayerStat {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Everything a traced run recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
    pub stats: BTreeMap<&'static str, LayerStat>,
    pub counters: BTreeMap<&'static str, u64>,
    /// Durations of every span whose name is listed in
    /// [`start`]'s `keep_durations`, in end order.
    pub durations: BTreeMap<&'static str, Vec<u64>>,
}

impl Trace {
    pub fn stat(&self, name: &str) -> LayerStat {
        self.stats.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Spans as JSON lines: `{"id","parent","name","tag","start_ns","end_ns"}`.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.tag),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

struct Recorder {
    epoch: Instant,
    keep_durations: &'static [&'static str],
    trace: Trace,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

struct Frame {
    id: u64,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> std::sync::MutexGuard<'static, Option<Recorder>> {
    // A panic while holding the lock only ever interrupts an append of
    // plain numbers, so the data stays usable.
    RECORDER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Start recording, discarding anything recorded before. Spans named in
/// `keep_durations` also keep every individual duration (for latency
/// percentiles of that layer).
pub fn start(keep_durations: &'static [&'static str]) {
    *recorder() = Some(Recorder {
        epoch: Instant::now(),
        keep_durations,
        trace: Trace::default(),
    });
}

/// Stop recording and hand back what was recorded.
pub fn finish() -> Trace {
    recorder().take().map(|r| r.trace).unwrap_or_default()
}

/// Add `n` to a named counter (no-op while not recording).
pub fn count(name: &'static str, n: u64) {
    if let Some(r) = recorder().as_mut() {
        *r.trace.counters.entry(name).or_insert(0) += n;
    }
}

/// The innermost open span on this thread.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().map(|f| f.id))
}

/// An open span; it closes when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    tag: Option<u64>,
    start: Instant,
}

impl Guard {
    /// The span's id, for spans it causes on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Open a span caused by the innermost open span on this thread.
pub fn span(name: &'static str) -> Guard {
    span_under(name, current(), None)
}

/// Open a span with an explicit cause and request tag, for work that
/// runs on another thread than the span that caused it.
pub fn span_under(name: &'static str, parent: Option<u64>, tag: Option<u64>) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(Frame { id, child_ns: 0 }));
    Guard {
        name,
        id,
        parent,
        tag,
        start: Instant::now(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        let dur = u64::try_from(end.duration_since(self.start).as_nanos()).unwrap_or(u64::MAX);
        let child_ns = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let child = match stack.iter().rposition(|f| f.id == self.id) {
                Some(pos) => stack.remove(pos).child_ns,
                None => 0,
            };
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur;
            }
            child
        });
        let mut guard = recorder();
        let Some(r) = guard.as_mut() else {
            return;
        };
        let stat = r.trace.stats.entry(self.name).or_default();
        stat.calls += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(child_ns);
        if r.keep_durations.contains(&self.name) {
            r.trace.durations.entry(self.name).or_default().push(dur);
        }
        if r.trace.spans.len() < SPAN_CAP {
            let since = |t: Instant| {
                u64::try_from(t.saturating_duration_since(r.epoch).as_nanos()).unwrap_or(u64::MAX)
            };
            let span = Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                tag: self.tag,
                start_ns: since(self.start),
                end_ns: since(end),
            };
            r.trace.spans.push(span);
        } else {
            r.trace.dropped_spans += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; tests that start it take this
    /// lock so they do not interleave.
    pub(crate) static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        start(&["inner"]);
        {
            let _outer = span("outer");
            let _inner = span("inner");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let trace = finish();
        let outer = trace.stat("outer");
        let inner = trace.stat("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let (o, i) = (
            trace.spans.iter().find(|s| s.name == "outer").unwrap(),
            trace.spans.iter().find(|s| s.name == "inner").unwrap(),
        );
        assert_eq!(i.parent, Some(o.id));
        assert_eq!(trace.durations["inner"].len(), 1);
        assert!(trace.spans_jsonl().lines().count() == 2);
    }

    #[test]
    fn nothing_is_recorded_while_stopped() {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = finish();
        drop(span("ignored"));
        count("ignored", 3);
        assert!(finish().stats.is_empty());
    }
}
