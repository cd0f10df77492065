//! In-memory span recorder for the traced replay.
//!
//! A span is a named interval with a parent, the round and client it belongs
//! to, and one numeric argument (rows processed, workers used, ...). Spans
//! are recorded only between [`begin`] and [`end`]; outside that window
//! [`span`] returns an inert guard, so untraced code paths pay one relaxed
//! atomic load. Each thread appends to its own buffer, registered once per
//! trace, and [`end`] collects every buffer — nothing is written out until
//! the traced run is over.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Identifier of a recorded span, unique within one trace.
pub type SpanId = u32;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the trace.
    pub id: SpanId,
    /// The enclosing span (possibly on another thread), if any.
    pub parent: Option<SpanId>,
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Start, in nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the process's trace epoch.
    pub end_ns: u64,
    /// Round index the span belongs to.
    pub round: u32,
    /// Client id, for spans inside one client's local update.
    pub client: Option<u32>,
    /// Span-specific count: rows processed, workers used, participants.
    pub arg: u64,
    /// Index of the recording thread within this trace.
    pub thread: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

type Sink = Arc<Mutex<Vec<Span>>>;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static SINKS: Mutex<Vec<Sink>> = Mutex::new(Vec::new());

struct Local {
    generation: u64,
    sink: Option<(u32, Sink)>,
    stack: Vec<SpanId>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            generation: 0,
            sink: None,
            stack: Vec::new(),
        })
    };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Starts a new trace, discarding nothing: the previous one must have been
/// collected with [`end`].
pub fn begin() {
    epoch();
    SINKS.lock().expect("trace sinks poisoned").clear();
    NEXT_ID.store(0, Ordering::Relaxed);
    GENERATION.fetch_add(1, Ordering::SeqCst);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Stops recording and returns every span of the trace, ordered by start.
pub fn end() -> Vec<Span> {
    ACTIVE.store(false, Ordering::SeqCst);
    let sinks = std::mem::take(&mut *SINKS.lock().expect("trace sinks poisoned"));
    let mut spans: Vec<Span> = sinks
        .iter()
        .flat_map(|sink| {
            sink.lock()
                .expect("trace sink poisoned")
                .drain(..)
                .collect::<Vec<_>>()
        })
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// An open span; records itself when dropped.
#[must_use = "a span records its interval when the guard is dropped"]
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    round: u32,
    client: Option<u32>,
    arg: u64,
}

impl Guard {
    /// The span's id (`None` when tracing is off).
    pub fn id(&self) -> Option<SpanId> {
        self.open.as_ref().map(|o| o.id)
    }

    /// Sets the span's numeric argument.
    pub fn set_arg(&mut self, arg: u64) {
        if let Some(open) = &mut self.open {
            open.arg = arg;
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        // A drop must not panic (it may run during unwinding), so a
        // poisoned buffer loses the span instead.
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let popped = local.stack.pop();
            debug_assert_eq!(popped, Some(open.id), "spans must close innermost-first");
            let generation = GENERATION.load(Ordering::SeqCst);
            if local.generation != generation || local.sink.is_none() {
                let Ok(mut sinks) = SINKS.lock() else {
                    return;
                };
                let sink: Sink = Arc::new(Mutex::new(Vec::new()));
                let index = sinks.len() as u32;
                sinks.push(Arc::clone(&sink));
                local.generation = generation;
                local.sink = Some((index, sink));
            }
            let Some((thread, sink)) = local.sink.as_ref() else {
                return;
            };
            let Ok(mut sink) = sink.lock() else {
                return;
            };
            sink.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                round: open.round,
                client: open.client,
                arg: open.arg,
                thread: *thread,
            });
        });
    }
}

/// Opens a span under the innermost span open on this thread.
///
/// `ACTIVE` publishes no data (the buffers are behind mutexes), so a relaxed
/// load is enough; `begin` runs before the traced run dispatches any work.
pub fn span(name: &'static str, round: usize, client: Option<usize>) -> Guard {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let parent = local.stack.last().copied();
        local.stack.push(id);
        parent
    });
    Guard {
        open: Some(Open {
            id,
            parent,
            name,
            start_ns: now_ns(),
            round: round as u32,
            client: client.map(|c| c as u32),
            arg: 0,
        }),
    }
}

/// Runs `f` with `parent` as this thread's innermost open span, so spans
/// opened by `f` on another thread than the parent's still nest under it.
pub fn with_parent<T>(parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
    let Some(parent) = parent else {
        return f();
    };
    LOCAL.with(|local| local.borrow_mut().stack.push(parent));
    let out = f();
    LOCAL.with(|local| {
        let popped = local.borrow_mut().stack.pop();
        debug_assert_eq!(popped, Some(parent));
    });
    out
}

/// Measured cost of recording one span, in seconds: the median over five
/// traces of their own, each opening and closing ten thousand spans under
/// one parent. Must not be called while a trace is being recorded.
pub fn span_cost_seconds() -> f64 {
    const SPANS: usize = 10_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            begin();
            let start = Instant::now();
            {
                let _parent = span("calibrate", 0, None);
                for client in 0..SPANS {
                    let _span = span("calibrate.child", 0, Some(client));
                }
            }
            let seconds = start.elapsed().as_secs_f64();
            end();
            seconds / SPANS as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Seconds of `[start, end)` covered by the union of `intervals`.
pub fn covered_seconds(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> f64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered as f64 * 1e-9
}

/// Serialises the tests that record traces: the recorder is process-wide.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover_children_once() {
        let _lock = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        begin();
        let outer_id;
        {
            let outer = span("outer", 0, None);
            outer_id = outer.id();
            let _inner = span("inner", 0, Some(3));
        }
        let spans = end();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer_id);
        assert_eq!(inner.client, Some(3));
        // Inert outside a trace.
        assert!(span("off", 0, None).id().is_none());

        let mut overlapping = [(10, 30), (20, 40), (50, 60)];
        let covered = covered_seconds(0, 55, &mut overlapping);
        assert!((covered - 35e-9).abs() < 1e-15);
    }
}
