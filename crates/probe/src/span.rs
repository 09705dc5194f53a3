//! Hierarchical spans, instant events, and the thread-local span stack.
//!
//! A span is opened by [`span`] (RAII, fully elided when the probe is
//! disabled) or [`timed_span`] (always measures; the measurement primitive
//! the trainers build their breakdowns from). Completed spans are recorded
//! as Chrome trace-event `"X"` records; [`event`] records instant `"i"`
//! events; [`emit_span`] records an already-measured or *modeled* duration
//! (the α–β communication model has no real wall-clock interval to wrap).
//!
//! Every thread gets a stable probe-local id on first use, plus a
//! `thread_name` metadata record carrying [`std::thread::Thread::name`] —
//! the pool's `puffer-pool-N` workers therefore label their own trace rows.

use crate::{enabled, now_rel, push_event};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A typed argument value attached to spans, events and metrics rows.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
}

impl ArgValue {
    /// Appends the value as a JSON scalar.
    pub fn json_into(&self, out: &mut String) {
        match self {
            ArgValue::U64(n) => crate::append!(out, "{n}"),
            ArgValue::I64(n) => crate::append!(out, "{n}"),
            ArgValue::F64(n) => crate::json::number_into(out, *n),
            ArgValue::Str(s) => crate::json::escape_into(out, s),
        }
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<f32> for ArgValue {
    fn from(v: f32) -> Self {
        ArgValue::F64(f64::from(v))
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Argument list attached to a span or event.
pub type Args = Vec<(&'static str, ArgValue)>;

/// One recorded trace event, pre-serialization. Durations stay exact
/// (`std::time::Duration`) until export converts them to Chrome's
/// microsecond floats, so tests can compare span sums bit-for-bit against
/// trainer-side accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Chrome phase: `'X'` complete span, `'i'` instant, `'C'` counter,
    /// `'M'` metadata.
    pub phase: char,
    /// Event name.
    pub name: &'static str,
    /// Category (span grouping / trace-viewer filtering).
    pub cat: &'static str,
    /// Start time relative to the process-global probe clock.
    pub ts: Duration,
    /// Duration (zero for non-`'X'` phases).
    pub dur: Duration,
    /// Probe-local thread id.
    pub tid: u64,
    /// Typed arguments.
    pub args: Args,
}

impl TraceEvent {
    #[cfg(test)]
    pub(crate) fn metadata_for_test() -> Self {
        TraceEvent {
            phase: 'M',
            name: "thread_name",
            cat: "",
            ts: Duration::ZERO,
            dur: Duration::ZERO,
            tid: 0,
            args: Vec::new(),
        }
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// This thread's probe-local id, assigning one (and recording the
/// `thread_name` metadata event) on first use.
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(id);
        let name =
            std::thread::current().name().map_or_else(|| format!("thread-{id}"), str::to_string);
        push_event(TraceEvent {
            phase: 'M',
            name: "thread_name",
            cat: "",
            ts: Duration::ZERO,
            dur: Duration::ZERO,
            tid: id,
            args: vec![("name", ArgValue::Str(name))],
        });
        id
    })
}

/// Current nesting depth of the calling thread's span stack (0 outside
/// any span). Disabled spans do not contribute.
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

fn stack_push(name: &'static str) {
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
}

fn stack_pop(name: &'static str) {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // Guards are strictly LIFO per thread; a mismatch means a guard
        // crossed threads, which the !Send marker prevents.
        debug_assert_eq!(stack.last().copied(), Some(name), "span stack corrupted");
        stack.pop();
    });
}

struct ActiveSpan {
    cat: &'static str,
    name: &'static str,
    start: Duration,
    args: Args,
    /// Keeps the guard !Send: the span stack is thread-local.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// RAII guard of an enabled [`span`]; records a `"X"` event on drop.
/// Holds nothing (and records nothing) when the probe is disabled.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard(Option<ActiveSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.0.take() {
            stack_pop(a.name);
            let ts = a.start;
            push_event(TraceEvent {
                phase: 'X',
                name: a.name,
                cat: a.cat,
                ts,
                dur: now_rel().saturating_sub(ts),
                tid: current_tid(),
                args: a.args,
            });
        }
    }
}

/// Opens a span; fully elided (one atomic load, no clock read, no
/// allocation) when the probe is disabled.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    span_with(cat, name, Vec::new)
}

/// Opens a span with arguments built lazily — the closure only runs when
/// the probe is enabled, so argument formatting costs nothing otherwise.
#[inline]
pub fn span_with(cat: &'static str, name: &'static str, args: impl FnOnce() -> Args) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    stack_push(name);
    SpanGuard(Some(ActiveSpan {
        cat,
        name,
        start: now_rel(),
        args: args(),
        _not_send: std::marker::PhantomData,
    }))
}

/// A span that **always measures** wall-clock, recording a trace event
/// only if the probe was enabled when it was opened. This is the
/// measurement primitive: the trainers' breakdown accounting takes its
/// durations from [`TimedSpan::finish`], so the numbers in
/// `EpochBreakdown` and the numbers in the trace are the same reads of
/// the same clock.
#[must_use = "a timed span measures until finish() or drop"]
pub struct TimedSpan {
    cat: &'static str,
    name: &'static str,
    start_instant: Instant,
    /// `Some(rel_start)` iff the probe was enabled at open time.
    start_rel: Option<Duration>,
    args: Args,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Opens a [`TimedSpan`]. Unlike [`span`], the clock is read even when
/// disabled — callers rely on the returned duration.
#[inline]
pub fn timed_span(cat: &'static str, name: &'static str) -> TimedSpan {
    timed_span_with(cat, name, Vec::new)
}

/// [`timed_span`] with lazily built arguments (closure runs only when
/// enabled).
#[inline]
pub fn timed_span_with(
    cat: &'static str,
    name: &'static str,
    args: impl FnOnce() -> Args,
) -> TimedSpan {
    let start_rel = if enabled() {
        stack_push(name);
        Some(now_rel())
    } else {
        None
    };
    TimedSpan {
        cat,
        name,
        start_instant: Instant::now(),
        start_rel,
        args: if start_rel.is_some() { args() } else { Vec::new() },
        _not_send: std::marker::PhantomData,
    }
}

impl TimedSpan {
    fn close(&mut self) -> Duration {
        let dur = self.start_instant.elapsed();
        if let Some(ts) = self.start_rel.take() {
            stack_pop(self.name);
            push_event(TraceEvent {
                phase: 'X',
                name: self.name,
                cat: self.cat,
                ts,
                dur,
                tid: current_tid(),
                args: std::mem::take(&mut self.args),
            });
        }
        dur
    }

    /// Closes the span and returns its measured duration.
    pub fn finish(mut self) -> Duration {
        self.close()
    }
}

impl Drop for TimedSpan {
    fn drop(&mut self) {
        if self.start_rel.is_some() {
            let _ = self.close();
        }
    }
}

/// A plain wall-clock stopwatch: measures, records nothing.
///
/// This is the sanctioned way to read the monotonic clock outside
/// `crates/probe` (the `no-wall-clock-outside-probe` lint confines
/// `std::time::Instant` to this crate). Reach for [`timed_span`] when the
/// interval belongs in the trace; reach for `Stopwatch` when it is a raw
/// measurement — a bench harness sampling loop, or a compressor's internal
/// encode/decode split that the trainer later surfaces via [`emit_span`]
/// without re-timing it (a `timed_span` there would double-record).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the stopwatch.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Records an instant (`"i"`) event — fault events, one-off markers.
#[inline]
pub fn event(cat: &'static str, name: &'static str, args: Args) {
    if !enabled() {
        return;
    }
    push_event(TraceEvent {
        phase: 'i',
        name,
        cat,
        ts: now_rel(),
        dur: Duration::ZERO,
        tid: current_tid(),
        args,
    });
}

/// Records a complete span of an already-known duration, backdated to end
/// now. This is how *modeled* intervals enter the trace — the α–β
/// communication time never happened on a real wire — and how durations
/// measured inside an opaque callee (a compressor's encode/decode split)
/// are surfaced without re-timing them.
#[inline]
pub fn emit_span(cat: &'static str, name: &'static str, dur: Duration, args: Args) {
    if !enabled() {
        return;
    }
    let end = now_rel();
    push_event(TraceEvent {
        phase: 'X',
        name,
        cat,
        ts: end.saturating_sub(dur),
        dur,
        tid: current_tid(),
        args,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{configure, reset, take_events, testutil, ProbeConfig};

    #[test]
    fn disabled_spans_record_nothing_and_skip_args() {
        let _guard = testutil::lock();
        reset();
        let g = span_with("t", "dead", || panic!("args must not be built when disabled"));
        drop(g);
        assert_eq!(span_depth(), 0);
        assert!(take_events().is_empty());
    }

    #[test]
    fn nested_spans_track_depth_and_record_in_close_order() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        {
            let _a = span("t", "outer");
            assert_eq!(span_depth(), 1);
            {
                let _b = span_with("t", "inner", || vec![("k", ArgValue::U64(7))]);
                assert_eq!(span_depth(), 2);
            }
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
        let names: Vec<_> =
            take_events().into_iter().filter(|e| e.phase == 'X').map(|e| e.name).collect();
        assert_eq!(names, vec!["inner", "outer"], "inner closes first");
        reset();
    }

    #[test]
    fn timed_span_measures_even_disabled() {
        let _guard = testutil::lock();
        reset();
        let t = timed_span("t", "work");
        std::thread::sleep(Duration::from_millis(2));
        let dur = t.finish();
        assert!(dur >= Duration::from_millis(2));
        assert!(take_events().is_empty(), "disabled timed span records nothing");
    }

    #[test]
    fn timed_span_records_exact_duration_when_enabled() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        let t = timed_span("t", "work");
        let dur = t.finish();
        let events = take_events();
        let ev = events.iter().find(|e| e.name == "work").expect("span recorded");
        assert_eq!(ev.dur, dur, "trace carries the same duration finish() returned");
        reset();
    }

    #[test]
    fn emit_span_backdates_and_event_is_instant() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        emit_span("t", "modeled", Duration::from_millis(5), vec![("n", 1usize.into())]);
        event("fault", "crash_detected", vec![("worker", 2usize.into())]);
        let events = take_events();
        let m = events.iter().find(|e| e.name == "modeled").unwrap();
        assert_eq!(m.dur, Duration::from_millis(5));
        let c = events.iter().find(|e| e.name == "crash_detected").unwrap();
        assert_eq!(c.phase, 'i');
        reset();
    }

    #[test]
    fn stopwatch_measures_and_records_nothing() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(2));
        assert!(take_events().is_empty(), "a stopwatch never touches the trace");
        reset();
    }

    #[test]
    fn worker_threads_get_named_metadata() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        std::thread::Builder::new()
            .name("probe-test-worker".into())
            .spawn(|| {
                let _s = span("t", "on-worker");
            })
            .unwrap()
            .join()
            .unwrap();
        let events = take_events();
        assert!(events.iter().any(|e| {
            e.phase == 'M'
                && e.args.iter().any(|(k, v)| {
                    *k == "name" && matches!(v, ArgValue::Str(s) if s == "probe-test-worker")
                })
        }));
        reset();
    }
}
