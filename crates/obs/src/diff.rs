//! Trace-to-trace comparison: the regression half of the telemetry layer.
//!
//! [`Trace::diff`] compares a fresh trace against a committed baseline
//! and classifies each derived metric by relative drift. The comparison
//! is over *derived views*, not raw events: per-span aggregate
//! durations, final counter totals, histogram quantiles, and the
//! makespan. Raw event sequences legitimately differ run-to-run (worker
//! ids, interleavings); the derived metrics are what a performance
//! contract is written against.
//!
//! Classification is relative with threshold `r` (default 0.10):
//!
//! * **durations** (makespan, `span/…`, `hist/…` quantiles): growing by
//!   more than `r` is [`DiffClass::Regressed`], shrinking by more than
//!   `r` is [`DiffClass::Improved`] — faster is better.
//! * **counters** (`counter/…` totals): drift in *either* direction
//!   beyond `r` is [`DiffClass::Regressed`]. Counters are behavioral
//!   contracts (retries, OOM rescues, quarantined tasks); a counter
//!   that halved is as suspicious as one that doubled.
//! * metrics present on only one side are [`DiffClass::Added`] /
//!   [`DiffClass::Removed`], and both count as regressions — a vanished
//!   counter usually means an instrumentation or behavior change, not a
//!   win.
//!
//! A baseline value of exactly 0 has no relative scale: 0 → 0 is
//! unchanged, 0 → anything else is regressed.
//!
//! `lens --diff <new> <baseline>` renders a [`TraceDiff`] and exits
//! non-zero on regressions. It explains a drift between two traces; it
//! is not a gate — `repro check` gates the committed traces by
//! regenerating them byte for byte.

use crate::trace::Trace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How one metric moved between baseline and new trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffClass {
    /// Within the threshold.
    Unchanged,
    /// A duration shrank beyond the threshold.
    Improved,
    /// Beyond the threshold in the bad direction (or any direction, for
    /// counters).
    Regressed,
    /// Present only in the new trace.
    Added,
    /// Present only in the baseline.
    Removed,
}

impl std::fmt::Display for DiffClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Unchanged => "unchanged",
            Self::Improved => "improved",
            Self::Regressed => "REGRESSED",
            Self::Added => "ADDED",
            Self::Removed => "REMOVED",
        };
        f.write_str(s)
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Namespaced metric: `makespan`, `span/<name>`, `counter/<name>`,
    /// or `hist/<name>/<stat>`.
    pub metric: String,
    /// Baseline value, if present there.
    pub baseline: Option<f64>,
    /// New-trace value, if present there.
    pub current: Option<f64>,
    /// Drift classification.
    pub class: DiffClass,
}

impl DiffEntry {
    /// Relative change `(current - baseline) / baseline`, when both
    /// sides exist and the baseline is nonzero.
    #[must_use]
    pub fn relative(&self) -> Option<f64> {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) if b != 0.0 => Some((c - b) / b),
            _ => None,
        }
    }
}

/// The full comparison of two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Relative threshold the classification used.
    pub threshold: f64,
    /// Every compared metric, in namespaced-name order.
    pub entries: Vec<DiffEntry>,
}

impl TraceDiff {
    /// The entries that count as regressions (`Regressed`, `Added`,
    /// `Removed`).
    #[must_use]
    pub fn regressions(&self) -> Vec<&DiffEntry> {
        self.entries
            .iter()
            .filter(|e| {
                matches!(
                    e.class,
                    DiffClass::Regressed | DiffClass::Added | DiffClass::Removed
                )
            })
            .collect()
    }

    /// Whether any metric regressed.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        !self.regressions().is_empty()
    }

    /// Human-readable rendering: one line per non-unchanged metric, then
    /// a verdict line. A fully clean diff renders the verdict only.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut shown = 0usize;
        for e in &self.entries {
            if e.class == DiffClass::Unchanged {
                continue;
            }
            shown += 1;
            let fmt_v = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.3}"));
            let rel = e
                .relative()
                .map_or_else(String::new, |r| format!(" ({:+.1}%)", r * 100.0));
            let _ = writeln!(
                out,
                "  {:<10} {} {} -> {}{}",
                e.class.to_string(),
                e.metric,
                fmt_v(e.baseline),
                fmt_v(e.current),
                rel
            );
        }
        let regressions = self.regressions().len();
        let _ = writeln!(
            out,
            "{} metrics compared, {} shown, {} regression(s) at threshold {:.0}%",
            self.entries.len(),
            shown,
            regressions,
            self.threshold * 100.0
        );
        out
    }

    /// Machine-readable rendering: one JSON object with the threshold,
    /// the regression verdict, and every compared entry (`lens --diff
    /// --json`). Byte-stable for a fixed pair of traces.
    #[must_use]
    pub fn to_json(&self) -> String {
        use crate::json::ObjectWriter;
        let mut w = ObjectWriter::new();
        w.num_field("threshold", self.threshold);
        w.int_field("metrics", self.entries.len() as u64);
        w.int_field("regressions", self.regressions().len() as u64);
        w.int_field("has_regressions", u64::from(self.has_regressions()));
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                let mut ew = ObjectWriter::new();
                ew.str_field("metric", &e.metric);
                match e.baseline {
                    Some(b) => ew.num_field("baseline", b),
                    None => ew.null_field("baseline"),
                }
                match e.current {
                    Some(c) => ew.num_field("current", c),
                    None => ew.null_field("current"),
                }
                ew.str_field(
                    "class",
                    match e.class {
                        DiffClass::Unchanged => "unchanged",
                        DiffClass::Improved => "improved",
                        DiffClass::Regressed => "regressed",
                        DiffClass::Added => "added",
                        DiffClass::Removed => "removed",
                    },
                );
                ew.finish()
            })
            .collect();
        w.raw_field("entries", &format!("[{}]", entries.join(",")));
        w.finish()
    }
}

/// True for metrics where smaller is better and growth is the failure
/// direction; false for counters, where any drift is suspect.
fn is_duration_metric(metric: &str) -> bool {
    !metric.starts_with("counter/")
}

fn classify(metric: &str, baseline: Option<f64>, current: Option<f64>, r: f64) -> DiffClass {
    let (b, c) = match (baseline, current) {
        (None, _) => return DiffClass::Added,
        (_, None) => return DiffClass::Removed,
        (Some(b), Some(c)) => (b, c),
    };
    if b == 0.0 {
        return if c == 0.0 {
            DiffClass::Unchanged
        } else {
            DiffClass::Regressed
        };
    }
    let rel = (c - b) / b;
    if rel.abs() <= r {
        DiffClass::Unchanged
    } else if is_duration_metric(metric) && rel < 0.0 {
        DiffClass::Improved
    } else {
        DiffClass::Regressed
    }
}

/// Collapse a trace into its comparable metrics.
fn metrics_of(trace: &Trace) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("makespan".to_string(), trace.last_timestamp());
    let mut span_totals: BTreeMap<String, f64> = BTreeMap::new();
    for s in trace.spans() {
        *span_totals.entry(s.name.clone()).or_insert(0.0) += s.duration();
    }
    for (name, total) in span_totals {
        m.insert(format!("span/{name}"), total);
    }
    for (name, total) in trace.counter_totals() {
        m.insert(format!("counter/{name}"), total);
    }
    for (name, h) in trace.histograms() {
        m.insert(format!("hist/{name}/p50"), h.p50);
        m.insert(format!("hist/{name}/p95"), h.p95);
        m.insert(format!("hist/{name}/max"), h.max);
    }
    m
}

impl Trace {
    /// Compare against `baseline` at the standard 10% threshold.
    #[must_use]
    pub fn diff(&self, baseline: &Trace) -> TraceDiff {
        self.diff_with_threshold(baseline, 0.10)
    }

    /// Compare against `baseline`, classifying relative drift beyond
    /// `threshold` (e.g. 0.10 = 10%).
    #[must_use]
    pub fn diff_with_threshold(&self, baseline: &Trace, threshold: f64) -> TraceDiff {
        let base = metrics_of(baseline);
        let new = metrics_of(self);
        let mut names: Vec<&String> = base.keys().chain(new.keys()).collect();
        names.sort();
        names.dedup();
        let entries = names
            .into_iter()
            .map(|name| {
                let b = base.get(name).copied();
                let c = new.get(name).copied();
                DiffEntry {
                    metric: name.clone(),
                    baseline: b,
                    current: c,
                    class: classify(name, b, c, threshold),
                }
            })
            .collect();
        TraceDiff { threshold, entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn recorder(task_s: f64, retries: f64) -> Recorder {
        let r = Recorder::virtual_time();
        let b = r.span_start("batch");
        r.task(Some(b), "t0", 0, 0.0, task_s, 1);
        r.add("dataflow/retries", retries);
        r.observe("dataflow/task_s", task_s);
        r.advance_clock_to(task_s);
        r.span_end(b);
        r
    }

    fn trace(task_s: f64, retries: f64) -> Trace {
        Trace::from_events(recorder(task_s, retries).events())
    }

    #[test]
    fn self_diff_has_zero_regressions() {
        let t = trace(30.0, 2.0);
        let d = t.diff(&t);
        assert!(!d.has_regressions(), "{}", d.render());
        assert!(d.entries.iter().all(|e| e.class == DiffClass::Unchanged));
        assert!(d.entries.iter().any(|e| e.metric == "makespan"));
        assert!(d.entries.iter().any(|e| e.metric == "span/batch"));
        assert!(d
            .entries
            .iter()
            .any(|e| e.metric == "counter/dataflow/retries"));
        assert!(d
            .entries
            .iter()
            .any(|e| e.metric == "hist/dataflow/task_s/p95"));
    }

    #[test]
    fn slower_makespan_regresses_faster_improves() {
        let base = trace(30.0, 2.0);
        let slow = trace(45.0, 2.0);
        let d = slow.diff(&base);
        let mk = d.entries.iter().find(|e| e.metric == "makespan").unwrap();
        assert_eq!(mk.class, DiffClass::Regressed);
        assert!((mk.relative().unwrap() - 0.5).abs() < 1e-12);
        let fast = trace(20.0, 2.0);
        let d = fast.diff(&base);
        let mk = d.entries.iter().find(|e| e.metric == "makespan").unwrap();
        assert_eq!(mk.class, DiffClass::Improved);
        assert!(!d.has_regressions(), "improvements are not failures");
    }

    #[test]
    fn to_json_carries_verdict_and_entries() {
        let base = trace(30.0, 2.0);
        let slow = trace(45.0, 2.0);
        let d = slow.diff(&base);
        let json = d.to_json();
        assert_eq!(json, slow.diff(&base).to_json(), "byte-stable");
        assert!(json.contains("\"has_regressions\":1"), "{json}");
        assert!(json.contains("\"metric\":\"makespan\""), "{json}");
        assert!(json.contains("\"class\":\"regressed\""), "{json}");
        let clean = base.diff(&base).to_json();
        assert!(clean.contains("\"has_regressions\":0"), "{clean}");
        assert!(clean.contains("\"regressions\":0"), "{clean}");
    }

    #[test]
    fn counter_drift_regresses_in_both_directions() {
        let base = trace(30.0, 4.0);
        for new_retries in [8.0, 2.0] {
            let d = trace(30.0, new_retries).diff(&base);
            let c = d
                .entries
                .iter()
                .find(|e| e.metric == "counter/dataflow/retries")
                .unwrap();
            assert_eq!(c.class, DiffClass::Regressed, "retries {new_retries}");
        }
        // Within threshold is fine.
        let d = trace(30.0, 4.2).diff(&base);
        assert!(!d.has_regressions(), "{}", d.render());
    }

    #[test]
    fn added_and_removed_metrics_are_regressions() {
        let base = trace(30.0, 2.0);
        let bare = {
            let r = Recorder::virtual_time();
            let b = r.span_start("batch");
            r.task(Some(b), "t0", 0, 0.0, 30.0, 1);
            r.advance_clock_to(30.0);
            r.span_end(b);
            Trace::from_events(r.events())
        };
        let d = bare.diff(&base);
        assert!(d.has_regressions());
        assert!(d
            .entries
            .iter()
            .any(|e| e.metric == "counter/dataflow/retries" && e.class == DiffClass::Removed));
        let d = base.diff(&bare);
        assert!(d
            .entries
            .iter()
            .any(|e| e.metric == "counter/dataflow/retries" && e.class == DiffClass::Added));
    }

    #[test]
    fn zero_baseline_handled_without_dividing() {
        let base = trace(30.0, 0.0);
        let same = trace(30.0, 0.0);
        assert!(!same.diff(&base).has_regressions());
        let grew = trace(30.0, 1.0);
        let d = grew.diff(&base);
        let c = d
            .entries
            .iter()
            .find(|e| e.metric == "counter/dataflow/retries")
            .unwrap();
        assert_eq!(c.class, DiffClass::Regressed);
        assert_eq!(c.relative(), None);
    }

    #[test]
    fn render_shows_changes_and_verdict() {
        let base = trace(30.0, 2.0);
        let text = trace(45.0, 2.0).diff(&base).render();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("makespan"), "{text}");
        assert!(text.contains("regression(s) at threshold 10%"), "{text}");
        let clean = base.diff(&base).render();
        assert!(clean.contains("0 regression(s)"), "{clean}");
    }
}
