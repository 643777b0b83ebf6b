//! Reading traces back: parse JSONL, compute views, render summaries.
//!
//! A [`Trace`] is the consumer-side twin of [`crate::recorder::Recorder`]:
//! the same event sequence, reconstructed either directly from a live
//! recorder or by parsing a `.jsonl` trace file. Every analysis artifact —
//! per-stage durations, node-hour tables, the per-task CSV, the ASCII
//! Gantt chart — is a pure function of this sequence, so a trace file is
//! sufficient to regenerate all of them byte-identically.

use crate::event::{Event, SpanId};
use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed or captured event sequence.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
}

/// One span with resolved timing, produced by [`Trace::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanView {
    /// The span's id.
    pub id: SpanId,
    /// Parent span, if any.
    pub parent: Option<SpanId>,
    /// Span name as recorded.
    pub name: String,
    /// Open time (clock seconds).
    pub start: f64,
    /// Close time; open spans inherit the trace's last timestamp.
    pub end: f64,
    /// Nesting depth (root spans are 0).
    pub depth: usize,
}

impl SpanView {
    /// Span duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// One task row, produced by [`Trace::tasks`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskView {
    /// Enclosing span, if recorded under one.
    pub span: Option<SpanId>,
    /// Task identifier.
    pub task: String,
    /// Executing worker.
    pub worker: usize,
    /// Start, seconds relative to the enclosing span's start.
    pub start: f64,
    /// End, same timebase.
    pub end: f64,
    /// Executions including the successful one (1 = no retries).
    pub attempts: u32,
}

/// Summary statistics for one histogram, from [`Trace::histograms`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramView {
    /// Number of observations.
    pub count: usize,
    /// Mean of the observations.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Largest observation.
    pub max: f64,
}

impl HistogramView {
    /// Summarize raw samples with nearest-rank quantiles.
    ///
    /// Nearest-rank: the q-quantile of n sorted samples is the value at
    /// 1-based rank `ceil(q·n)` (clamped to `1..=n`), so every reported
    /// quantile is an actual observation. Degenerate inputs are
    /// well-defined:
    ///
    /// * 0 observations → `None` (there is no sample to report);
    /// * 1 observation → p50 = p95 = max = that sample;
    /// * 2 observations → p50 is the *smaller* (rank ceil(0.5·2) = 1),
    ///   p95 and max are the larger;
    /// * all-equal samples → every statistic equals that value.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut vs = samples.to_vec();
        vs.sort_by(f64::total_cmp);
        let count = vs.len();
        let mean = vs.iter().sum::<f64>() / count as f64;
        let rank = |q: f64| {
            let i = ((q * count as f64).ceil() as usize).clamp(1, count) - 1;
            vs[i]
        };
        Some(Self {
            count,
            mean,
            p50: rank(0.50),
            p95: rank(0.95),
            max: vs[count - 1],
        })
    }
}

/// A malformed line in a JSONL trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

fn need_num(obj: &BTreeMap<String, Value>, key: &str, line: usize) -> Result<f64, TraceError> {
    obj.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| TraceError {
            line,
            message: format!("missing numeric field '{key}'"),
        })
}

fn need_str(obj: &BTreeMap<String, Value>, key: &str, line: usize) -> Result<String, TraceError> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| TraceError {
            line,
            message: format!("missing string field '{key}'"),
        })
}

/// An integer field: finite, integral, in `0..=2^53` ([`Value::as_uint`])
/// and in `T`'s range — never a saturating cast.
fn int_of<T: TryFrom<u64>>(value: &Value, key: &str, line: usize) -> Result<T, TraceError> {
    value
        .as_uint()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| TraceError {
            line,
            message: format!("field '{key}' is not an integer in range"),
        })
}

fn need_int<T: TryFrom<u64>>(
    obj: &BTreeMap<String, Value>,
    key: &str,
    line: usize,
) -> Result<T, TraceError> {
    match obj.get(key) {
        Some(value) => int_of(value, key, line),
        None => Err(TraceError {
            line,
            message: format!("missing numeric field '{key}'"),
        }),
    }
}

/// A span reference: absent or `null` is no span.
fn opt_span(
    obj: &BTreeMap<String, Value>,
    key: &str,
    line: usize,
) -> Result<Option<SpanId>, TraceError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => int_of(value, key, line).map(|n| Some(SpanId(n))),
    }
}

impl Trace {
    /// Wrap an event sequence captured from a live recorder.
    #[must_use]
    pub fn from_events(events: Vec<Event>) -> Self {
        Self { events }
    }

    /// Parse a JSONL trace (one event object per non-empty line).
    ///
    /// # Errors
    /// Returns [`TraceError`] naming the first malformed line: bad JSON,
    /// an unknown `event` kind, or a missing field.
    pub fn parse_jsonl(text: &str) -> Result<Self, TraceError> {
        let mut events = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let obj = json::parse_object(line).map_err(|e| TraceError {
                line: line_no,
                message: e.to_string(),
            })?;
            let kind = need_str(&obj, "event", line_no)?;
            let event = match kind.as_str() {
                "span_start" => Event::SpanStart {
                    id: SpanId(need_int(&obj, "id", line_no)?),
                    parent: opt_span(&obj, "parent", line_no)?,
                    name: need_str(&obj, "name", line_no)?,
                    t: need_num(&obj, "t", line_no)?,
                },
                "span_end" => Event::SpanEnd {
                    id: SpanId(need_int(&obj, "id", line_no)?),
                    t: need_num(&obj, "t", line_no)?,
                },
                "task" => Event::Task {
                    span: opt_span(&obj, "span", line_no)?,
                    task: need_str(&obj, "task", line_no)?,
                    worker: need_int(&obj, "worker", line_no)?,
                    start: need_num(&obj, "start", line_no)?,
                    end: need_num(&obj, "end", line_no)?,
                    attempts: need_int(&obj, "attempts", line_no)?,
                },
                "counter" => Event::Counter {
                    name: need_str(&obj, "name", line_no)?,
                    delta: need_num(&obj, "delta", line_no)?,
                    total: need_num(&obj, "total", line_no)?,
                    t: need_num(&obj, "t", line_no)?,
                },
                "gauge" => Event::Gauge {
                    name: need_str(&obj, "name", line_no)?,
                    value: need_num(&obj, "value", line_no)?,
                    t: need_num(&obj, "t", line_no)?,
                },
                "observe" => Event::Observe {
                    name: need_str(&obj, "name", line_no)?,
                    value: need_num(&obj, "value", line_no)?,
                    t: need_num(&obj, "t", line_no)?,
                },
                "lineage" => Event::Lineage {
                    name: need_str(&obj, "name", line_no)?,
                    task: need_str(&obj, "task", line_no)?,
                    t: need_num(&obj, "t", line_no)?,
                },
                other => {
                    return Err(TraceError {
                        line: line_no,
                        message: format!("unknown event kind '{other}'"),
                    })
                }
            };
            events.push(event);
        }
        Ok(Self { events })
    }

    /// The raw event sequence.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Serialize back to JSONL (identical bytes to the producing
    /// recorder's [`crate::recorder::Recorder::to_jsonl`]).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for e in &self.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Latest timestamp appearing anywhere in the trace.
    #[must_use]
    pub fn last_timestamp(&self) -> f64 {
        last_timestamp_of(&self.events)
    }

    /// Spans in open order, with durations and nesting depth resolved.
    /// Unclosed spans end at [`Trace::last_timestamp`].
    #[must_use]
    pub fn spans(&self) -> Vec<SpanView> {
        spans_of(&self.events)
    }

    /// Task rows in recorded order.
    #[must_use]
    pub fn tasks(&self) -> Vec<TaskView> {
        tasks_of(&self.events)
    }

    /// Final totals of every counter, by name.
    #[must_use]
    pub fn counter_totals(&self) -> BTreeMap<String, f64> {
        counter_totals_of(&self.events)
    }

    /// Last recorded value of every gauge, by name.
    #[must_use]
    pub fn gauge_values(&self) -> BTreeMap<String, f64> {
        gauge_values_of(&self.events)
    }

    /// Summary statistics for every histogram, by name.
    #[must_use]
    pub fn histograms(&self) -> BTreeMap<String, HistogramView> {
        histograms_of(&self.events)
    }

    /// Render the human-readable summary: span tree, counters, gauges,
    /// histograms.
    #[must_use]
    pub fn summary(&self) -> String {
        summary_of(&self.events)
    }
}

// The view computations are free functions over a borrowed event slice
// so consumers that already hold events — notably `Recorder::summary`
// under its own lock — can use them without cloning into a `Trace`.

pub(crate) fn last_timestamp_of(events: &[Event]) -> f64 {
    events
        .iter()
        .filter_map(|e| match e {
            Event::SpanStart { t, .. }
            | Event::SpanEnd { t, .. }
            | Event::Counter { t, .. }
            | Event::Gauge { t, .. }
            | Event::Observe { t, .. } => Some(*t),
            // Task rows and lineage breadcrumbs carry attribution, not
            // clock progress: a lineage/settled stamped at a task's end
            // must not extend the makespan a diff or summary reports.
            Event::Task { .. } | Event::Lineage { .. } => None,
        })
        .fold(0.0, f64::max)
}

pub(crate) fn spans_of(events: &[Event]) -> Vec<SpanView> {
    let last_t = last_timestamp_of(events);
    let mut spans: Vec<SpanView> = Vec::new();
    let mut index: BTreeMap<SpanId, usize> = BTreeMap::new();
    for e in events {
        match e {
            Event::SpanStart {
                id,
                parent,
                name,
                t,
            } => {
                let depth = parent
                    .and_then(|p| index.get(&p))
                    .map_or(0, |&i| spans[i].depth + 1);
                index.insert(*id, spans.len());
                spans.push(SpanView {
                    id: *id,
                    parent: *parent,
                    name: name.clone(),
                    start: *t,
                    end: last_t,
                    depth,
                });
            }
            Event::SpanEnd { id, t } => {
                if let Some(&i) = index.get(id) {
                    spans[i].end = *t;
                }
            }
            _ => {}
        }
    }
    spans
}

pub(crate) fn tasks_of(events: &[Event]) -> Vec<TaskView> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Task {
                span,
                task,
                worker,
                start,
                end,
                attempts,
            } => Some(TaskView {
                span: *span,
                task: task.clone(),
                worker: *worker,
                start: *start,
                end: *end,
                attempts: *attempts,
            }),
            _ => None,
        })
        .collect()
}

pub(crate) fn counter_totals_of(events: &[Event]) -> BTreeMap<String, f64> {
    let mut totals = BTreeMap::new();
    for e in events {
        if let Event::Counter { name, total, .. } = e {
            totals.insert(name.clone(), *total);
        }
    }
    totals
}

pub(crate) fn gauge_values_of(events: &[Event]) -> BTreeMap<String, f64> {
    let mut values = BTreeMap::new();
    for e in events {
        if let Event::Gauge { name, value, .. } = e {
            values.insert(name.clone(), *value);
        }
    }
    values
}

pub(crate) fn histograms_of(events: &[Event]) -> BTreeMap<String, HistogramView> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for e in events {
        if let Event::Observe { name, value, .. } = e {
            samples.entry(name.clone()).or_default().push(*value);
        }
    }
    samples
        .into_iter()
        .filter_map(|(name, vs)| HistogramView::from_samples(&vs).map(|view| (name, view)))
        .collect()
}

pub(crate) fn summary_of(events: &[Event]) -> String {
    let mut out = String::new();
    let spans = spans_of(events);
    if !spans.is_empty() {
        out.push_str("spans:\n");
        for s in &spans {
            let _ = writeln!(
                out,
                "  {:indent$}{} {:.3}s",
                "",
                s.name,
                s.duration(),
                indent = s.depth * 2
            );
        }
    }
    let tasks = tasks_of(events);
    if !tasks.is_empty() {
        let retried = tasks.iter().filter(|t| t.attempts > 1).count();
        // attempts == 0 marks a cancelled speculative execution: the
        // duplicate (or original) that lost the completion race.
        let cancelled = tasks.iter().filter(|t| t.attempts == 0).count();
        let mut notes = Vec::new();
        if retried > 0 {
            let max_attempts = tasks.iter().map(|t| t.attempts).max().unwrap_or(1);
            notes.push(format!("{retried} retried, max attempts {max_attempts}"));
        }
        if cancelled > 0 {
            notes.push(format!("{cancelled} cancelled speculative"));
        }
        if notes.is_empty() {
            let _ = writeln!(out, "tasks: {}", tasks.len());
        } else {
            let _ = writeln!(out, "tasks: {} ({})", tasks.len(), notes.join("; "));
        }
    }
    let counters = counter_totals_of(events);
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for (name, total) in &counters {
            let _ = writeln!(out, "  {name} = {total:.3}");
        }
    }
    let gauges = gauge_values_of(events);
    if !gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &gauges {
            let _ = writeln!(out, "  {name} = {value:.3}");
        }
    }
    let hists = histograms_of(events);
    if !hists.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &hists {
            let _ = writeln!(
                out,
                "  {name}: n={} mean={:.3} p50={:.3} p95={:.3} max={:.3}",
                h.count, h.mean, h.p50, h.p95, h.max
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample_recorder() -> Recorder {
        let r = Recorder::virtual_time();
        let batch = r.span_start("batch");
        let stage = r.span_start("stage:inference");
        r.task(Some(stage), "t0", 0, 0.0, 5.0, 1);
        r.task(Some(stage), "t1", 1, 0.0, 7.5, 2);
        r.add("oom_failures", 1.0);
        r.gauge("utilization", 0.9);
        r.observe("recycles", 3.0);
        r.observe("recycles", 9.0);
        r.advance_clock_to(7.5);
        r.span_end(stage);
        r.span_end(batch);
        r
    }

    #[test]
    fn jsonl_round_trip_is_byte_identical() {
        let r = sample_recorder();
        let jsonl = r.to_jsonl();
        let trace = Trace::parse_jsonl(&jsonl).expect("parse");
        assert_eq!(trace.to_jsonl(), jsonl);
        assert_eq!(trace.events(), r.events().as_slice());
    }

    #[test]
    fn spans_resolve_durations_and_depth() {
        let trace = Trace::from_events(sample_recorder().events());
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "batch");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "stage:inference");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[0].duration(), 7.5);
    }

    #[test]
    fn views_expose_tasks_counters_gauges_histograms() {
        let trace = Trace::from_events(sample_recorder().events());
        assert_eq!(trace.tasks().len(), 2);
        assert_eq!(trace.counter_totals()["oom_failures"], 1.0);
        assert_eq!(trace.gauge_values()["utilization"], 0.9);
        let h = &trace.histograms()["recycles"];
        assert_eq!(h.count, 2);
        assert_eq!(h.mean, 6.0);
        assert_eq!(h.p50, 3.0);
        assert_eq!(h.max, 9.0);
    }

    #[test]
    fn unclosed_spans_end_at_last_timestamp() {
        let r = Recorder::virtual_time();
        let s = r.span_start("batch");
        r.advance_clock_to(4.0);
        r.gauge("g", 1.0);
        let _ = s; // never closed
        let trace = Trace::from_events(r.events());
        assert_eq!(trace.spans()[0].end, 4.0);
    }

    #[test]
    fn parse_reports_bad_lines() {
        let err = Trace::parse_jsonl("{\"event\":\"bogus\"}").expect_err("fails");
        assert_eq!(err.line, 1);
        let err =
            Trace::parse_jsonl("{\"event\":\"gauge\",\"name\":\"x\",\"t\":0}").expect_err("fails");
        assert!(err.message.contains("value"), "{err}");
        let err = Trace::parse_jsonl("not json").expect_err("fails");
        assert_eq!(err.line, 1);
    }

    /// A span start followed by one task row whose `key` holds the raw
    /// JSON value `raw`.
    fn parse_task_with(key: &str, raw: &str) -> Result<Trace, TraceError> {
        let fields = [
            ("span", "1"),
            ("task", "\"t\""),
            ("worker", "0"),
            ("start", "0"),
            ("end", "1"),
            ("attempts", "1"),
        ];
        let row: Vec<String> = fields
            .iter()
            .map(|&(k, v)| format!("\"{k}\":{}", if k == key { raw } else { v }))
            .collect();
        Trace::parse_jsonl(&format!(
            "{{\"event\":\"span_start\",\"id\":1,\"parent\":null,\"name\":\"b\",\"t\":0}}\n\
             {{\"event\":\"task\",{}}}\n",
            row.join(",")
        ))
    }

    fn assert_task_field_rejected(key: &str, raw: &str) {
        let err = parse_task_with(key, raw).expect_err(raw);
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains(key), "{err}");
    }

    #[test]
    fn negative_integer_fields_are_rejected() {
        assert!(parse_task_with("attempts", "1").is_ok());
        // A saturating cast would read -1 attempts as 0: a non-completion.
        assert_task_field_rejected("attempts", "-1");
        assert_task_field_rejected("worker", "-1");
        assert_task_field_rejected("span", "-1");
        let err = Trace::parse_jsonl("{\"event\":\"span_end\",\"id\":-1,\"t\":0}").unwrap_err();
        assert_eq!(err.line, 1, "{err}");
    }

    #[test]
    fn fractional_integer_fields_are_rejected() {
        // A saturating cast would read 1.9 as 1.
        assert_task_field_rejected("attempts", "1.9");
        assert_task_field_rejected("worker", "1.9");
        assert_task_field_rejected("span", "1.9");
    }

    #[test]
    fn out_of_range_integer_fields_are_rejected() {
        // A saturating cast would read 1e30 as usize::MAX.
        assert_task_field_rejected("worker", "1e30");
        assert_task_field_rejected("span", "1e30");
        assert_task_field_rejected("attempts", "4294967296");
    }

    #[test]
    fn summary_counts_cancelled_speculative_executions() {
        let r = Recorder::virtual_time();
        let s = r.span_start("batch");
        r.task(Some(s), "t0", 0, 0.0, 5.0, 1);
        r.task(Some(s), "t0", 1, 2.0, 5.0, 0); // losing duplicate
        r.advance_clock_to(5.0);
        r.span_end(s);
        let text = Trace::from_events(r.events()).summary();
        assert!(
            text.contains("tasks: 2 (1 cancelled speculative)"),
            "{text}"
        );
    }

    #[test]
    fn histogram_zero_observations_yields_no_view() {
        assert_eq!(HistogramView::from_samples(&[]), None);
        let r = Recorder::virtual_time();
        r.add("c/only_counters", 1.0);
        assert!(Trace::from_events(r.events()).histograms().is_empty());
    }

    #[test]
    fn histogram_single_observation_quantiles() {
        let h = HistogramView::from_samples(&[7.0]).expect("one sample");
        assert_eq!(h.count, 1);
        assert_eq!(h.mean, 7.0);
        assert_eq!(h.p50, 7.0);
        assert_eq!(h.p95, 7.0);
        assert_eq!(h.max, 7.0);
    }

    #[test]
    fn histogram_two_observations_quantiles() {
        // Nearest-rank with n=2: p50 sits at rank ceil(0.5·2)=1 (the
        // smaller sample), p95 at rank ceil(0.95·2)=2 (the larger).
        let h = HistogramView::from_samples(&[10.0, 2.0]).expect("two samples");
        assert_eq!(h.count, 2);
        assert_eq!(h.mean, 6.0);
        assert_eq!(h.p50, 2.0);
        assert_eq!(h.p95, 10.0);
        assert_eq!(h.max, 10.0);
    }

    #[test]
    fn histogram_all_equal_observations() {
        let h = HistogramView::from_samples(&[3.0; 5]).expect("samples");
        assert_eq!((h.mean, h.p50, h.p95, h.max), (3.0, 3.0, 3.0, 3.0));
    }

    #[test]
    fn summary_renders_all_sections() {
        let s = Trace::from_events(sample_recorder().events()).summary();
        assert!(s.contains("batch 7.500s"), "{s}");
        assert!(s.contains("  stage:inference"), "{s}");
        assert!(s.contains("tasks: 2 (1 retried, max attempts 2)"), "{s}");
        assert!(s.contains("oom_failures = 1.000"), "{s}");
        assert!(s.contains("utilization = 0.900"), "{s}");
        assert!(s.contains("recycles: n=2"), "{s}");
    }
}
