//! Trace events and their JSONL wire format.
//!
//! A trace is an append-only sequence of events, one JSON object per
//! line. The schema is deliberately flat and closed — every event kind
//! and key is listed here, and the golden-file test in the workspace root
//! pins the exact bytes — so traces written by any instrumented run can
//! be consumed by any analysis tool (`lens --trace`, `stats::to_csv`,
//! `ascii_gantt`) without version negotiation.
//!
//! | `event`      | keys                                                  |
//! |--------------|-------------------------------------------------------|
//! | `span_start` | `id`, `parent` (number or `null`), `name`, `t`        |
//! | `span_end`   | `id`, `t`                                             |
//! | `task`       | `span` (number or `null`), `task`, `worker`, `start`, `end`, `attempts` |
//! | `counter`    | `name`, `delta`, `total`, `t`                         |
//! | `gauge`      | `name`, `value`, `t`                                  |
//! | `observe`    | `name`, `value`, `t`                                  |
//! | `lineage`    | `name`, `task`, `t`                                   |
//!
//! Span timestamps (`t`) are seconds on the recorder's [`crate::clock::Clock`].
//! Task `start`/`end` are seconds *relative to the enclosing batch span's
//! start* — exactly the numbers the paper's per-task statistics CSV
//! carries — so CSV and Gantt artifacts regenerate byte-identically from
//! a trace. `attempts` counts executions of the task including the
//! successful one (1 = first-try success, 2 = a quarantine rerun after a
//! burned standard-lane attempt). Numbers are written with Rust's shortest-round-trip
//! `f64` formatting via [`crate::json::ObjectWriter`], so parsing a trace
//! recovers every value exactly.
//!
//! `lineage` events are the causal breadcrumbs of one task's journey
//! through the system (admission, WAL append, cache lookup outcome,
//! settlement). Their `name` follows the `lineage/<phase>` grammar and
//! is emitted only by the helpers in [`crate::lineage`], so
//! both executors produce identical lineage streams by construction.
//! Like `task` events they carry attribution, not clock progress:
//! analysis views exclude them from makespan and diff metrics.

use crate::json::ObjectWriter;

/// Identifier of a span within one trace (dense, starting at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened (`batch`, `stage:inference`, …).
    SpanStart {
        /// Span id, unique within the trace.
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// Human-readable span name.
        name: String,
        /// Clock seconds at open.
        t: f64,
    },
    /// A span closed.
    SpanEnd {
        /// Id of the span being closed.
        id: SpanId,
        /// Clock seconds at close.
        t: f64,
    },
    /// One executed task (the per-task statistics row of §3.3 step 3e).
    Task {
        /// Enclosing batch span, if recorded under one.
        span: Option<SpanId>,
        /// Stable task identifier.
        task: String,
        /// Worker that executed the task.
        worker: usize,
        /// Start, seconds since the enclosing span's start.
        start: f64,
        /// End, same timebase.
        end: f64,
        /// Executions including the successful one (1 = no retries).
        attempts: u32,
    },
    /// A monotonically accumulated counter increment.
    Counter {
        /// Metric name.
        name: String,
        /// This increment.
        delta: f64,
        /// Running total after the increment.
        total: f64,
        /// Clock seconds.
        t: f64,
    },
    /// A point-in-time gauge value.
    Gauge {
        /// Metric name.
        name: String,
        /// The value.
        value: f64,
        /// Clock seconds.
        t: f64,
    },
    /// One histogram observation.
    Observe {
        /// Metric name.
        name: String,
        /// The observed value.
        value: f64,
        /// Clock seconds.
        t: f64,
    },
    /// One causal breadcrumb in a task's journey (`lineage/<phase>`).
    Lineage {
        /// Phase name following the `lineage/<phase>` grammar.
        name: String,
        /// Task the breadcrumb belongs to.
        task: String,
        /// Clock seconds the phase occurred at.
        t: f64,
    },
}

impl Event {
    /// Serialize as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut w = ObjectWriter::new();
        match self {
            Self::SpanStart {
                id,
                parent,
                name,
                t,
            } => {
                w.str_field("event", "span_start");
                w.int_field("id", id.0);
                w.opt_int_field("parent", parent.map(|p| p.0));
                w.str_field("name", name);
                w.num_field("t", *t);
            }
            Self::SpanEnd { id, t } => {
                w.str_field("event", "span_end");
                w.int_field("id", id.0);
                w.num_field("t", *t);
            }
            Self::Task {
                span,
                task,
                worker,
                start,
                end,
                attempts,
            } => {
                w.str_field("event", "task");
                w.opt_int_field("span", span.map(|s| s.0));
                w.str_field("task", task);
                w.int_field("worker", *worker as u64);
                w.num_field("start", *start);
                w.num_field("end", *end);
                w.int_field("attempts", u64::from(*attempts));
            }
            Self::Counter {
                name,
                delta,
                total,
                t,
            } => {
                w.str_field("event", "counter");
                w.str_field("name", name);
                w.num_field("delta", *delta);
                w.num_field("total", *total);
                w.num_field("t", *t);
            }
            Self::Gauge { name, value, t } => {
                w.str_field("event", "gauge");
                w.str_field("name", name);
                w.num_field("value", *value);
                w.num_field("t", *t);
            }
            Self::Observe { name, value, t } => {
                w.str_field("event", "observe");
                w.str_field("name", name);
                w.num_field("value", *value);
                w.num_field("t", *t);
            }
            Self::Lineage { name, task, t } => {
                w.str_field("event", "lineage");
                w.str_field("name", name);
                w.str_field("task", task);
                w.num_field("t", *t);
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_stable() {
        let e = Event::SpanStart {
            id: SpanId(1),
            parent: None,
            name: "batch".into(),
            t: 0.0,
        };
        assert_eq!(
            e.to_json_line(),
            "{\"event\":\"span_start\",\"id\":1,\"parent\":null,\"name\":\"batch\",\"t\":0}"
        );
        let e = Event::Task {
            span: Some(SpanId(1)),
            task: "DVU_00042/model_3".into(),
            worker: 5,
            start: 0.5,
            end: 30.25,
            attempts: 2,
        };
        assert_eq!(
            e.to_json_line(),
            "{\"event\":\"task\",\"span\":1,\"task\":\"DVU_00042/model_3\",\"worker\":5,\"start\":0.5,\"end\":30.25,\"attempts\":2}"
        );
        let e = Event::Lineage {
            name: "lineage/admitted".into(),
            task: "acme:c1:DVU_00042/model_3".into(),
            t: 12.5,
        };
        assert_eq!(
            e.to_json_line(),
            "{\"event\":\"lineage\",\"name\":\"lineage/admitted\",\"task\":\"acme:c1:DVU_00042/model_3\",\"t\":12.5}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::Gauge {
            name: "a\"b\\c\nd".into(),
            value: 1.0,
            t: 0.0,
        };
        assert_eq!(
            e.to_json_line(),
            "{\"event\":\"gauge\",\"name\":\"a\\\"b\\\\c\\nd\",\"value\":1,\"t\":0}"
        );
    }

    #[test]
    fn shortest_roundtrip_formatting() {
        let e = Event::Observe {
            name: "x".into(),
            value: 0.1 + 0.2,
            t: 1.0 / 3.0,
        };
        let line = e.to_json_line();
        assert!(line.contains("0.30000000000000004"), "{line}");
        assert!(line.contains("0.3333333333333333"), "{line}");
    }
}
