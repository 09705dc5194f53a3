//! In-memory spans for the traced pass. Spans are recorded only from the
//! benchmark's own thread, around its calls into each layer; nothing inside
//! the program is instrumented. They are written out once, at exit.

use crate::json::{arr, num, obj, text, Json};
use puffer_probe::Stopwatch;

/// One timed interval. `layer` is the crate the call went into.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which unit / driven step / replay pass this span belongs to.
    pub unit: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Stopwatch::start(), spans: Vec::new(), open: Vec::new(), unit: 0 }
    }

    /// Spans opened from now on carry this identifier.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Times `f` as a span nested under whichever span is open.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            layer,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id].end_us = self.now_us();
        self.open.pop();
        out
    }

    /// [`Tracer::span`], also returning the seconds the span just recorded,
    /// so a caller that books the duration as a metric reads the clock once.
    pub fn timed<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        let out = self.span(layer, name, f);
        (out, self.spans[id].dur_us() / 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time (µs): its duration minus the part covered by
    /// its direct children. Children of one parent never overlap here (one
    /// thread, strictly nested), so the sum of child durations is that part.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us();
            }
        }
        own
    }

    /// `{"spans": [...]}` with one object per span, self time included, so a
    /// reader needs no second pass.
    pub fn to_json(&self) -> Json {
        let self_us = self.self_times_us();
        let spans = self.spans.iter().enumerate().map(|(i, s)| {
            obj([
                ("id", num(i as f64)),
                ("name", text(s.name)),
                ("layer", text(s.layer)),
                ("start_us", num(s.start_us)),
                ("end_us", num(s.end_us)),
                ("self_us", num(self_us[i])),
                ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                ("unit", num(s.unit as f64)),
            ])
        });
        obj([
            ("time_base", text("microseconds since the tracer was created")),
            ("spans", arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer with hand-set times so the arithmetic is exact.
    fn fixed() -> Tracer {
        let mut t = Tracer::new();
        let mk = |name, start_us, end_us, parent| Span {
            name,
            layer: "test",
            start_us,
            end_us,
            parent,
            unit: 0,
        };
        t.spans = vec![
            mk("step", 0.0, 100.0, None),
            mk("forward", 10.0, 40.0, Some(0)),
            mk("gemm", 15.0, 35.0, Some(1)),
            mk("backward", 40.0, 90.0, Some(0)),
        ];
        t
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let own = fixed().self_times_us();
        // The grandchild is subtracted from its parent only, not from the root.
        assert_eq!(own, [100.0 - 30.0 - 50.0, 30.0 - 20.0, 20.0, 50.0]);
        assert_eq!(own.iter().sum::<f64>(), 100.0, "self times partition the root");
    }

    #[test]
    fn nesting_and_units_follow_the_call_structure() {
        let mut t = Tracer::new();
        t.set_unit(3);
        t.span("models", "outer", |t| {
            t.span("nn", "inner", |_| {});
            t.span("nn", "inner", |_| {});
        });
        t.span("models", "sibling", |_| {});
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), Some(0), None)
        );
        assert!(s.iter().all(|x| x.unit == 3 && x.end_us >= x.start_us));
        assert!(s[1].start_us >= s[0].start_us && s[2].end_us <= s[0].end_us);
        assert!(t.self_times_us().iter().all(|&us| us >= 0.0));
        // `timed` hands back the duration of the span it recorded.
        let (out, secs) = t.timed("nn", "timed", |_| 7);
        assert_eq!((out, secs), (7, t.spans()[4].dur_us() / 1e6));
    }

    #[test]
    fn json_output_parses_and_carries_self_time() {
        let text = crate::json::render(&fixed().to_json());
        let doc = crate::json::parse(&text).unwrap();
        let spans = doc.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].get("self_us").and_then(|v| v.as_num()), Some(20.0));
        assert_eq!(spans[2].get("parent").and_then(|v| v.as_num()), Some(1.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
