//! `puffer-probe`: zero-dependency tracing + metrics for the Pufferfish
//! reproduction.
//!
//! The paper's whole evaluation is a story about *where time goes* —
//! compute vs. encode vs. wire vs. decode (Fig. 4, Figs. 6–7) — and the
//! fault-tolerant trainer adds invisible runtime machinery (retries,
//! crash detection, NaN-skips, checkpoints). This crate makes both
//! observable with three primitives, all built on `std` alone:
//!
//! * **Spans** — RAII guards ([`span`], [`timed_span`]) on a thread-local
//!   span stack. Completed spans become Chrome trace-event `"X"` records
//!   keyed by static category/name, so a whole faulty distributed run can
//!   be dropped into `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)
//!   and read as a timeline. [`TimedSpan`] doubles as the *measurement*:
//!   its [`TimedSpan::finish`] returns the span's duration, so callers
//!   (the trainer's breakdown accounting) and the trace read from the same
//!   clock — there is no second, ad-hoc timing path to drift from.
//! * **Counters / gauges** ([`counter_add`], [`gauge_set`]) — a
//!   process-global registry keyed by static names: bytes on the wire,
//!   MACs, allreduce rounds, retries, dropped/corrupted messages, skipped
//!   steps, checkpoint writes, pool width.
//! * **Events** ([`event`]) — instant (`"i"`) records for structured fault
//!   events with worker/step attribution.
//!
//! # Exporters
//!
//! [`flush`] writes two artifacts, both optional:
//!
//! * a Chrome `chrome://tracing`-compatible **trace-event JSON** array
//!   (`PUFFER_TRACE=path` or [`ProbeConfig::trace_path`]);
//! * a **JSONL metrics sink** of per-step rows and fault events
//!   (`PUFFER_METRICS=path` or [`ProbeConfig::metrics_path`]), with a
//!   final counters summary row.
//!
//! # Overhead
//!
//! Collection is off by default behind one relaxed atomic load
//! ([`enabled`]). A disabled [`span`] constructs `SpanGuard(None)` and
//! touches nothing else; a disabled [`counter_add`] is a load and a
//! branch. The overhead guard in `puffer-tensor`'s `probe_overhead` test
//! proves the disabled probe costs < 2% on a GEMM microbench (in
//! practice: ~nanoseconds against kernels that run for micro- to
//! milliseconds). [`timed_span`] always reads the monotonic clock — it is
//! the measurement primitive — and records an event only when enabled.
//!
//! # Example
//!
//! ```
//! puffer_probe::configure(puffer_probe::ProbeConfig::in_memory());
//! {
//!     let _outer = puffer_probe::span("demo", "outer");
//!     let inner = puffer_probe::timed_span("demo", "inner");
//!     puffer_probe::counter_add("demo.items", 3);
//!     let dur = inner.finish();
//!     assert!(dur.as_nanos() > 0);
//! }
//! let events = puffer_probe::take_events();
//! assert!(events.iter().any(|e| e.name == "outer"));
//! let trace = puffer_probe::export::render_chrome_trace(&events);
//! puffer_probe::json::validate_chrome_trace(&trace).unwrap();
//! puffer_probe::reset();
//! ```

pub mod context;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod span;

pub use context::{env_knobs, run_header, run_header_env, run_header_snapshot};
pub use export::{render_chrome_trace, write_chrome_trace, FlushReport};
pub use hist::{hist_record, hist_record_duration, hist_snapshot, hist_value, Histogram};
pub use json::{validate_chrome_trace, Json, TraceSummary};
pub use metrics::{
    counter_add, counter_value, counters_snapshot, gauge_set, metrics_row, metrics_rows,
};
pub use span::{
    emit_span, event, span, span_depth, span_with, timed_span, timed_span_with, ArgValue,
    SpanGuard, Stopwatch, TimedSpan, TraceEvent,
};

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Cap on buffered trace events; beyond it events are counted as dropped
/// instead of exhausting memory on a runaway instrumented loop.
pub const MAX_EVENTS: usize = 1 << 20;

/// Environment variable naming the Chrome trace output path.
pub const ENV_TRACE: &str = "PUFFER_TRACE";

/// Environment variable naming the JSONL metrics output path.
pub const ENV_METRICS: &str = "PUFFER_METRICS";

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the probe is collecting. One relaxed atomic load — the fast
/// path every instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Where to export on [`flush`], and whether to collect at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeConfig {
    /// Chrome trace-event JSON output path (`None` = no trace file).
    pub trace_path: Option<PathBuf>,
    /// JSONL metrics output path (`None` = no metrics file).
    pub metrics_path: Option<PathBuf>,
    /// Collect even with no output path configured (spans/counters stay
    /// in memory for [`take_events`] / [`counters_snapshot`]).
    pub collect: bool,
}

impl ProbeConfig {
    /// No collection at all (the default state).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Collect in memory without writing files — what tests use.
    pub fn in_memory() -> Self {
        ProbeConfig { collect: true, ..Self::default() }
    }

    /// Reads `PUFFER_TRACE` / `PUFFER_METRICS`; collection turns on iff at
    /// least one is set (to a non-empty path).
    pub fn from_env() -> Self {
        let var =
            |name: &str| std::env::var(name).ok().filter(|v| !v.is_empty()).map(PathBuf::from);
        ProbeConfig { trace_path: var(ENV_TRACE), metrics_path: var(ENV_METRICS), collect: false }
    }

    /// Whether this configuration implies collecting.
    pub fn is_active(&self) -> bool {
        self.collect || self.trace_path.is_some() || self.metrics_path.is_some()
    }
}

static CONFIG: Mutex<Option<ProbeConfig>> = Mutex::new(None);

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs a configuration and turns collection on or off accordingly.
pub fn configure(cfg: ProbeConfig) {
    let active = cfg.is_active();
    *lock_ignore_poison(&CONFIG) = Some(cfg);
    ENABLED.store(active, Ordering::Relaxed);
}

/// Configures from `PUFFER_TRACE` / `PUFFER_METRICS` and reports whether
/// collection is now on.
pub fn init_from_env() -> bool {
    let cfg = ProbeConfig::from_env();
    let active = cfg.is_active();
    configure(cfg);
    active
}

/// The currently installed configuration (default-disabled if none was
/// ever installed).
pub fn current_config() -> ProbeConfig {
    lock_ignore_poison(&CONFIG).clone().unwrap_or_default()
}

/// The process-global monotonic clock every timestamp is relative to.
pub(crate) fn now_rel() -> Duration {
    static CLOCK: OnceLock<Instant> = OnceLock::new();
    CLOCK.get_or_init(Instant::now).elapsed()
}

pub(crate) struct Sink {
    pub events: Vec<TraceEvent>,
    pub rows: Vec<String>,
    pub dropped_events: u64,
}

static SINK: Mutex<Sink> =
    Mutex::new(Sink { events: Vec::new(), rows: Vec::new(), dropped_events: 0 });

pub(crate) fn with_sink<R>(f: impl FnOnce(&mut Sink) -> R) -> R {
    f(&mut lock_ignore_poison(&SINK))
}

pub(crate) fn push_event(ev: TraceEvent) {
    // Every completed span is also a latency sample: fold it into the
    // histogram of its (cat, name) family before buffering, so span
    // families accumulate p50/p90/p99 with no extra instrumentation.
    if ev.phase == 'X' {
        hist::record_span(ev.cat, ev.name, ev.dur);
    }
    with_sink(|s| {
        if s.events.len() < MAX_EVENTS {
            s.events.push(ev);
        } else {
            s.dropped_events += 1;
        }
    });
}

/// Drains and returns every buffered trace event (tests and custom
/// exporters; [`flush`] uses the same buffer).
pub fn take_events() -> Vec<TraceEvent> {
    with_sink(|s| std::mem::take(&mut s.events))
}

/// The metadata records [`flush`] prepends/appends around the buffered
/// events when writing a trace file: the `"run_context"` header (if any
/// context was stamped) followed by one `"histogram"` record per span
/// family. Callers rendering a trace by hand ([`take_events`] +
/// [`render_chrome_trace`]) append these to get exporter-identical output.
pub fn trace_extras() -> Vec<TraceEvent> {
    let mut extras = Vec::new();
    extras.extend(context::header_event());
    extras.extend(hist::hist_trace_events());
    extras
}

/// Trace events dropped after the [`MAX_EVENTS`] cap was hit.
pub fn dropped_events() -> u64 {
    with_sink(|s| s.dropped_events)
}

/// Writes the configured exporters and drains the buffers.
///
/// The Chrome trace file receives every buffered event; the metrics file
/// receives the buffered JSONL rows plus one final
/// `{"type":"counters",...}` summary row. Counters themselves are *not*
/// cleared (use [`reset`]), so successive flushes see cumulative totals.
///
/// # Errors
///
/// Returns the first I/O error from creating or writing an output file.
pub fn flush() -> std::io::Result<FlushReport> {
    let cfg = current_config();
    let (events, rows, dropped) = with_sink(|s| {
        (std::mem::take(&mut s.events), std::mem::take(&mut s.rows), s.dropped_events)
    });
    export::export(&cfg, &events, &rows, dropped)
}

/// Returns the probe to its pristine state: collection off, buffers and
/// counters cleared, configuration removed. Span guards that are still
/// alive record nothing afterwards.
pub fn reset() {
    ENABLED.store(false, Ordering::Relaxed);
    *lock_ignore_poison(&CONFIG) = None;
    with_sink(|s| {
        s.events.clear();
        s.rows.clear();
        s.dropped_events = 0;
    });
    metrics::clear_registry();
    hist::clear_registry();
    context::clear();
}

/// `write!` into a `String`. `fmt::Write for String` cannot fail, so unlike
/// `write!` this leaves no `Result` for the caller to drop: the workspace's
/// report and JSON emitters append through this pair.
#[macro_export]
macro_rules! append {
    ($dst:expr, $($arg:tt)*) => {{
        use $crate::AppendFmt as _;
        $dst.append_fmt(::core::format_args!($($arg)*))
    }};
}

/// [`append!`] plus a trailing newline: `writeln!` for a `String`.
#[macro_export]
macro_rules! appendln {
    ($dst:expr $(,)?) => {
        $dst.push('\n')
    };
    ($dst:expr, $($arg:tt)*) => {{
        $crate::append!($dst, $($arg)*);
        $dst.push('\n')
    }};
}

/// The method behind [`append!`].
pub trait AppendFmt {
    /// Appends the formatted arguments.
    ///
    /// # Panics
    ///
    /// Panics if a `Display`/`Debug` impl among the arguments returns an
    /// error — the case `format!` panics on too.
    fn append_fmt(&mut self, args: std::fmt::Arguments<'_>);
}

impl AppendFmt for String {
    fn append_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        std::fmt::Write::write_fmt(self, args)
            .expect("a formatting trait implementation returned an error");
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes tests that toggle the process-global probe state.
    pub fn lock() -> MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_config_round_trips() {
        let _guard = testutil::lock();
        reset();
        assert!(!enabled());
        configure(ProbeConfig::in_memory());
        assert!(enabled());
        assert!(current_config().collect);
        configure(ProbeConfig::disabled());
        assert!(!enabled());
        reset();
    }

    #[test]
    fn event_cap_counts_drops() {
        let _guard = testutil::lock();
        reset();
        configure(ProbeConfig::in_memory());
        // Fill the sink artificially close to the cap.
        with_sink(|s| {
            s.events.clear();
            for _ in 0..MAX_EVENTS {
                s.events.push(TraceEvent::metadata_for_test());
            }
        });
        event("t", "overflow", Vec::new());
        // The instant event is dropped; on a fresh thread its thread_name
        // metadata record is dropped too.
        assert!(dropped_events() >= 1);
        reset();
    }

    #[test]
    fn env_config_parses_paths() {
        let cfg = ProbeConfig {
            trace_path: Some(PathBuf::from("a.json")),
            metrics_path: None,
            collect: false,
        };
        assert!(cfg.is_active());
        assert!(!ProbeConfig::disabled().is_active());
        assert!(ProbeConfig::in_memory().is_active());
    }
}
