//! In-memory spans around the public calls the benchmark makes into each
//! layer. A disabled tracer reads no clock and records nothing, so the
//! untraced pass pays one branch per call site.

use oregami_daemon::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call: what ran, when, under which span, for which op.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans opened from now on carry this op identifier.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.epoch.elapsed();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
    }

    /// Times one leaf call. The duration is measured whether or not
    /// tracing is on, because the end-to-end op times are sums of these.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let id = self.begin(name);
        let t0 = Instant::now();
        let r = f();
        let dur = t0.elapsed();
        self.end(id);
        (r, dur)
    }

    /// The most recently opened span: after [`Tracer::time`], the span of
    /// that call.
    pub fn last_span(&self) -> SpanId {
        SpanId(self.enabled.then(|| self.spans.len().wrapping_sub(1)))
    }

    /// Re-opens `parent` as the current span without timing anything: the
    /// staged replay runs after the facade call it decomposes, and its
    /// spans are that call's children.
    pub fn replay_under(&mut self, parent: SpanId) -> ReplayGuard {
        if let Some(i) = parent.0 {
            self.stack.push(i);
        }
        ReplayGuard(parent.0.is_some())
    }

    pub fn end_replay(&mut self, guard: ReplayGuard) {
        if guard.0 {
            self.stack.pop();
        }
    }

    /// Total milliseconds per span name.
    pub fn totals_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start).as_secs_f64() * 1e3;
        }
        out
    }

    /// The spans as a JSON array, one object per span, in start order.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    obj()
                        .field("id", i)
                        .field("name", s.name)
                        .field("start_us", s.start.as_secs_f64() * 1e6)
                        .field("end_us", s.end.as_secs_f64() * 1e6)
                        .field("parent", s.parent.map_or(Json::Null, Json::from))
                        .field("op", s.op)
                        .build()
                })
                .collect(),
        )
    }
}

#[must_use]
pub struct ReplayGuard(bool);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_replays_attach_to_their_parent() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let root = t.begin("op");
        let ((), _) = t.time("child", || ());
        t.end(root);
        let g = t.replay_under(root);
        let ((), _) = t.time("staged", || ());
        t.end_replay(g);
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        assert!(t.stack.is_empty());
        assert!(t.totals_ms().contains_key("child"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let id = t.begin("op");
        let (v, dur) = t.time("child", || std::thread::sleep(Duration::from_millis(2)));
        t.end(id);
        assert_eq!(v, ());
        assert!(dur >= Duration::from_millis(2));
        assert_eq!(t.len(), 0);
    }
}
