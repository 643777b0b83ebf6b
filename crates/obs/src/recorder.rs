//! The event recorder: spans, counters, gauges, histograms.
//!
//! A [`Recorder`] is an append-only event log shared by reference across
//! a run. Producers (executors, pipeline stages, the inference engine,
//! the ledger) call its methods; consumers read the trace back out with
//! [`Recorder::to_jsonl`] or render [`Recorder::summary`]. All methods
//! take `&self` and are thread-safe, so the thread executor's workers can
//! record without plumbing mutability through the call graph.
//!
//! Code that is only *optionally* observed takes `&Recorder` and callers
//! without telemetry pass [`Recorder::disabled`], which drops every event
//! without locking overhead beyond a single boolean check.
//!
//! An enabled recorder always retains what it records: there is one
//! path, the retained trace. Consumers that fold events incrementally
//! (a [`crate::sink::Sink`] such as [`crate::monitor::Monitor`]) are fed
//! by their callers, from [`Recorder::events`] or from the records a
//! batch produced.

use crate::clock::Clock;
use crate::event::{Event, SpanId};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Interior state behind the recorder's lock.
struct Inner {
    events: Vec<Event>,
    next_span: u64,
    span_stack: Vec<SpanId>,
    counters: BTreeMap<String, f64>,
}

/// Append-only event log with a pluggable [`Clock`].
pub struct Recorder {
    enabled: bool,
    clock: Option<Box<dyn Clock>>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.lock().events.len();
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .field("events", &n)
            .finish()
    }
}

/// The shared no-op recorder handed out by [`Recorder::disabled`].
static DISABLED: Recorder = Recorder {
    enabled: false,
    clock: None,
    inner: Mutex::new(Inner {
        events: Vec::new(),
        next_span: 1,
        span_stack: Vec::new(),
        counters: BTreeMap::new(),
    }),
};

impl Recorder {
    /// A recorder timing events with the given clock.
    #[must_use]
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Self {
            enabled: true,
            clock: Some(clock),
            inner: Mutex::new(Inner {
                events: Vec::new(),
                next_span: 1,
                span_stack: Vec::new(),
                counters: BTreeMap::new(),
            }),
        }
    }

    /// A recorder on a deterministic [`crate::clock::VirtualClock`] at `t = 0`.
    ///
    /// This is the constructor for simulations and every repro-number
    /// path: identical inputs yield byte-identical traces.
    #[must_use]
    pub fn virtual_time() -> Self {
        Self::with_clock(Box::new(crate::clock::VirtualClock::new()))
    }

    /// The shared recorder that drops every event.
    ///
    /// Instrumented code paths that were called without telemetry use
    /// this; each method returns after one branch.
    #[must_use]
    pub fn disabled() -> &'static Self {
        &DISABLED
    }

    /// Whether events are being kept.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Poisoning can only come from a panic inside these short,
        // allocation-only critical sections; the state stays consistent.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Current clock reading in seconds (0.0 when disabled).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.clock.as_ref().map_or(0.0, |c| c.now())
    }

    /// Advance the clock to absolute second `t` (no-op on wall clocks
    /// and disabled recorders).
    pub fn advance_clock_to(&self, t: f64) {
        if let Some(c) = &self.clock {
            c.advance_to(t);
        }
    }

    /// Open a span. Nested calls parent automatically: the most recently
    /// opened, still-unclosed span becomes this span's parent.
    pub fn span_start(&self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let t = self.now();
        let mut inner = self.lock();
        let id = SpanId(inner.next_span);
        inner.next_span += 1;
        let parent = inner.span_stack.last().copied();
        inner.span_stack.push(id);
        inner.events.push(Event::SpanStart {
            id,
            parent,
            name: name.to_string(),
            t,
        });
        id
    }

    /// Close a span opened by [`Recorder::span_start`].
    ///
    /// Spans should close innermost-first; closing out of order is
    /// tolerated (the span is removed from wherever it sits on the
    /// stack) so a failing stage cannot corrupt the trace.
    pub fn span_end(&self, id: SpanId) {
        if !self.enabled || id == SpanId(0) {
            return;
        }
        let t = self.now();
        let mut inner = self.lock();
        if let Some(pos) = inner.span_stack.iter().rposition(|s| *s == id) {
            inner.span_stack.remove(pos);
        }
        inner.events.push(Event::SpanEnd { id, t });
    }

    /// Record one executed task under `span` (batch-relative seconds).
    /// `attempts` counts executions including the successful one
    /// (1 = first-try success).
    pub fn task(
        &self,
        span: Option<SpanId>,
        task: &str,
        worker: usize,
        start: f64,
        end: f64,
        attempts: u32,
    ) {
        if !self.enabled {
            return;
        }
        self.lock().events.push(Event::Task {
            span: span.filter(|s| *s != SpanId(0)),
            task: task.to_string(),
            worker,
            start,
            end,
            attempts,
        });
    }

    /// Add `delta` to the named counter and record the increment.
    pub fn add(&self, name: &str, delta: f64) {
        if !self.enabled {
            return;
        }
        let t = self.now();
        let mut inner = self.lock();
        let total = {
            let slot = inner.counters.entry(name.to_string()).or_insert(0.0);
            *slot += delta;
            *slot
        };
        inner.events.push(Event::Counter {
            name: name.to_string(),
            delta,
            total,
            t,
        });
    }

    /// Record a point-in-time gauge value.
    pub fn gauge(&self, name: &str, value: f64) {
        self.gauge_at(name, value, self.now());
    }

    /// Record a gauge with an explicit timestamp instead of the clock.
    ///
    /// For values reconstructed after the fact at a known instant — the
    /// executors emit `monitor/...` progress gauges mid-batch this way
    /// without touching the (monotonic) clock, so the rest of the trace
    /// keeps its exact timings.
    pub fn gauge_at(&self, name: &str, value: f64, t: f64) {
        if !self.enabled {
            return;
        }
        self.lock().events.push(Event::Gauge {
            name: name.to_string(),
            value,
            t,
        });
    }

    /// Record a causal lineage breadcrumb for one task at an explicit
    /// timestamp.
    ///
    /// Like [`Recorder::gauge_at`], the clock is never touched: lineage
    /// phases are reconstructed facts about a task's journey (admission,
    /// WAL append, settlement), stamped at the instant the phase
    /// occurred, and must not perturb any other timing in the trace.
    /// `name` must follow the `lineage/<phase>` grammar; the only
    /// callers are the emit helpers in [`crate::lineage`].
    pub fn lineage(&self, name: &str, task: &str, t: f64) {
        if !self.enabled {
            return;
        }
        self.lock().events.push(Event::Lineage {
            name: name.to_string(),
            task: task.to_string(),
            t,
        });
    }

    /// Record one histogram observation.
    pub fn observe(&self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        let t = self.now();
        self.lock().events.push(Event::Observe {
            name: name.to_string(),
            value,
            t,
        });
    }

    /// Snapshot of all events recorded so far.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.clone()
    }

    /// Drain the retained events without cloning, leaving the recorder
    /// empty (but still recording). The cheap hand-off for consumers
    /// that take ownership of the trace, e.g.
    /// `Trace::from_events(rec.take_events())`.
    #[must_use]
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut self.lock().events)
    }

    /// Serialize the trace as JSONL: one event per line, trailing newline.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(inner.events.len() * 96);
        for e in &inner.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Human-readable summary: span tree with durations, counter totals,
    /// last gauge values, histogram statistics. Computed from a borrow
    /// under the lock — the event vector is not cloned.
    #[must_use]
    pub fn summary(&self) -> String {
        crate::trace::summary_of(&self.lock().events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::disabled();
        let id = r.span_start("batch");
        assert_eq!(id, SpanId(0));
        r.task(Some(id), "t0", 0, 0.0, 1.0, 1);
        r.add("c", 1.0);
        r.gauge("g", 1.0);
        r.observe("h", 1.0);
        r.span_end(id);
        assert!(r.events().is_empty());
        assert_eq!(r.to_jsonl(), "");
    }

    #[test]
    fn spans_nest_and_parent_automatically() {
        let r = Recorder::virtual_time();
        let batch = r.span_start("batch");
        let stage = r.span_start("stage:inference");
        r.span_end(stage);
        r.span_end(batch);
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        match &evs[1] {
            Event::SpanStart { id, parent, .. } => {
                assert_eq!(*id, stage);
                assert_eq!(*parent, Some(batch));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_order_span_end_is_tolerated() {
        let r = Recorder::virtual_time();
        let a = r.span_start("a");
        let b = r.span_start("b");
        r.span_end(a); // wrong order
        let c = r.span_start("c");
        // c's parent is b, the surviving open span.
        match r.events().last().expect("event") {
            Event::SpanStart { id, parent, .. } => {
                assert_eq!(*id, c);
                assert_eq!(*parent, Some(b));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn counters_accumulate_totals() {
        let r = Recorder::virtual_time();
        r.add("oom", 1.0);
        r.add("oom", 2.0);
        let evs = r.events();
        match &evs[1] {
            Event::Counter { total, delta, .. } => {
                assert_eq!(*delta, 2.0);
                assert_eq!(*total, 3.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn virtual_clock_timestamps_are_deterministic() {
        let build = || {
            let r = Recorder::virtual_time();
            let s = r.span_start("batch");
            r.advance_clock_to(12.5);
            r.task(Some(s), "t0", 0, 0.0, 12.5, 1);
            r.span_end(s);
            r.to_jsonl()
        };
        assert_eq!(build(), build());
        assert!(build().contains("\"t\":12.5"));
    }

    #[test]
    fn take_events_drains_without_cloning() {
        let r = Recorder::virtual_time();
        r.add("c/x", 1.0);
        let taken = r.take_events();
        assert_eq!(taken.len(), 1);
        assert!(r.events().is_empty());
        r.add("c/x", 1.0); // still recording after the drain
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn gauge_at_uses_explicit_timestamp_and_leaves_clock_alone() {
        let r = Recorder::virtual_time();
        r.gauge_at("monitor/done", 3.0, 42.5);
        assert_eq!(r.now(), 0.0);
        match r.events().last().expect("event") {
            Event::Gauge { name, value, t } => {
                assert_eq!(name, "monitor/done");
                assert_eq!(*value, 3.0);
                assert_eq!(*t, 42.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn summary_does_not_consume_or_clone_observable_state() {
        let r = Recorder::virtual_time();
        let s = r.span_start("batch");
        r.add("c/x", 2.0);
        r.span_end(s);
        let before = r.events();
        let text = r.summary();
        assert!(text.contains("c/x = 2.000"), "{text}");
        assert_eq!(r.events(), before, "summary left the events in place");
    }

    #[test]
    fn threads_can_record_concurrently() {
        let r = Recorder::virtual_time();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let r = &r;
                scope.spawn(move || {
                    for i in 0..50 {
                        r.task(None, &format!("w{w}-t{i}"), w, 0.0, 1.0, 1);
                        r.add("done", 1.0);
                    }
                });
            }
        });
        let evs = r.events();
        assert_eq!(evs.len(), 400);
        let last_total = evs
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::Counter { total, .. } => Some(*total),
                _ => None,
            })
            .expect("counter");
        assert_eq!(last_total, 200.0);
    }
}
