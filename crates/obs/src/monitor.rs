//! Live campaign health from the event stream.
//!
//! The paper's 1000-node campaigns were babysat by operators watching
//! worker occupancy plots *while the job ran* — load imbalance, OOM
//! storms, and straggler tails had to be caught mid-flight, not in the
//! post-mortem. [`Monitor`] is that view: a [`Sink`] that folds events
//! incrementally into rolling health. Its callers feed it: the
//! executors replay a batch's completions for `monitor/*` progress
//! gauges, the folding service feeds each tenant's settlements, and
//! [`Monitor::feed`] replays a retained trace.
//!
//! Every statistic is a **pure, deterministic function of the event
//! sequence** — no wall clock, no sampling. Feeding the monitor one
//! event at a time (streaming) and replaying a complete trace through a
//! fresh monitor produce identical [`HealthSnapshot`]s; the telemetry
//! test suite pins this equivalence, which is what makes monitor gauges
//! (`monitor/done`, `monitor/eta_s`, …) safe to embed in golden traces.
//!
//! Time base: span, counter, gauge, and observe events carry absolute
//! clock seconds. Task events carry start/end relative to their
//! enclosing span, so the monitor resolves them against the span-open
//! times it has already seen; tasks recorded without a span are taken as
//! absolute.

use crate::event::Event;
use crate::sink::Sink;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Sliding window (seconds) for throughput: five minutes, the span an
/// operator watching a multi-hour batch reads a rate over.
const WINDOW_S: f64 = 300.0;

/// A completed task counts as a straggler when its duration exceeds this
/// factor times the mean duration of the tasks completed before it.
/// Under the paper's longest-first ordering completions should get
/// shorter as a batch proceeds, so the running mean already bounds a
/// well-ordered task; 1.5 leaves half again as much for duration noise
/// before a completion is flagged.
const STRAGGLER_FACTOR: f64 = 1.5;

/// Static knowledge about the campaign, supplied up front so the monitor
/// can report totals and an expected-work ETA.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonitorConfig {
    /// Total tasks the batch will run, when known.
    pub total_tasks: Option<usize>,
    /// Sum of expected task durations (seconds), when known; enables the
    /// remaining-work ETA.
    pub expected_total_s: Option<f64>,
    /// Worker count, when known; otherwise the monitor uses the number
    /// of distinct workers seen so far.
    pub workers: Option<usize>,
}

/// Rolling health at one instant of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Stream time (seconds) this snapshot describes — the latest
    /// timestamp the monitor has seen.
    pub t: f64,
    /// Tasks completed (attempts ≥ 1).
    pub tasks_done: usize,
    /// Configured total, if known.
    pub tasks_total: Option<usize>,
    /// Completions per second over the 300 s window ending at `t`.
    pub throughput_per_s: f64,
    /// Busy seconds over `workers × t`, 0..=1: every completed task on
    /// any lane, over the configured workers (else the distinct workers
    /// seen) from stream time 0 to the latest timestamp.
    pub utilization: f64,
    /// `1 - utilization`.
    pub idle_fraction: f64,
    /// Workers assumed for utilization (configured, else distinct seen).
    pub workers: usize,
    /// Re-executions beyond the first attempt, summed over done tasks.
    pub retries: u64,
    /// Executions that never completed (attempts = 0).
    pub cancelled: usize,
    /// Completions more than 1.5× the mean duration of the tasks
    /// completed before them.
    pub stragglers: usize,
    /// `retries / executions` — the fraction of task executions that
    /// were repair work.
    pub fault_rate: f64,
    /// Estimated seconds to completion: 0 when done; remaining expected
    /// work over effective parallelism when expected durations are
    /// known; otherwise remaining count over window throughput.
    pub eta_s: f64,
}

impl HealthSnapshot {
    /// One-line operator rendering, e.g.
    /// `42/100 tasks | 1.30/s | util 87% | eta 45s`.
    #[must_use]
    pub fn render_line(&self) -> String {
        let total = self
            .tasks_total
            .map_or_else(|| "?".to_string(), |n| n.to_string());
        let mut line = format!(
            "{}/{} tasks | {:.2}/s | util {:.0}% | eta {:.0}s",
            self.tasks_done,
            total,
            self.throughput_per_s,
            self.utilization * 100.0,
            self.eta_s
        );
        if self.retries > 0 || self.stragglers > 0 {
            line.push_str(&format!(
                " | retries {} stragglers {}",
                self.retries, self.stragglers
            ));
        }
        line
    }
}

/// Mutable fold state. Everything here is derived from the events seen
/// so far, in order.
#[derive(Debug, Default)]
struct State {
    /// Span-open times, for resolving span-relative task timestamps.
    span_starts: BTreeMap<u64, f64>,
    /// Latest timestamp seen anywhere in the stream.
    now: f64,
    /// Completed tasks (attempts ≥ 1).
    done: usize,
    /// Executions that never completed (attempts = 0).
    cancelled: usize,
    /// Total executions (sum of attempts over completed tasks).
    executions: u64,
    /// Executions beyond the first attempt.
    retries: u64,
    /// Completions whose duration exceeded the straggler threshold.
    stragglers: usize,
    /// Sum of completed-task durations.
    duration_sum: f64,
    /// Busy seconds per worker id.
    busy: BTreeMap<usize, f64>,
    /// Absolute end times of completions, for window throughput.
    /// Pruned lazily against `now - WINDOW_S`.
    window_ends: VecDeque<f64>,
}

/// Incremental health monitor; a [`Sink`] its callers feed one event
/// at a time, or a whole retained trace through [`Monitor::feed`].
#[derive(Debug)]
pub struct Monitor {
    cfg: MonitorConfig,
    state: Mutex<State>,
}

impl Monitor {
    /// A monitor with the given campaign knowledge.
    #[must_use]
    pub fn new(cfg: MonitorConfig) -> Self {
        Self {
            cfg,
            state: Mutex::new(State::default()),
        }
    }

    /// The configuration this monitor was built with.
    #[must_use]
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Fold steps are short and total-ordered; state survives a
        // poisoning panic consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Feed a slice of events in order (replay convenience).
    pub fn feed(&self, events: &[Event]) {
        for e in events {
            self.event(e);
        }
    }

    /// Fold the stream so far into a snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HealthSnapshot {
        let mut state = self.lock();
        let now = state.now;
        while state
            .window_ends
            .front()
            .is_some_and(|&end| end < now - WINDOW_S)
        {
            state.window_ends.pop_front();
        }
        // Early in the run the window extends past t=0; divide by the
        // elapsed part only so the first snapshots aren't diluted.
        let span = WINDOW_S.min(now);
        let throughput = if span > 0.0 {
            state.window_ends.len() as f64 / span
        } else {
            0.0
        };
        let workers = self
            .cfg
            .workers
            .unwrap_or_else(|| state.busy.len())
            .max(usize::from(!state.busy.is_empty()));
        let busy_total: f64 = state.busy.values().sum();
        let utilization = if now > 0.0 && workers > 0 {
            (busy_total / (workers as f64 * now)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let fault_rate = if state.executions > 0 {
            state.retries as f64 / state.executions as f64
        } else {
            0.0
        };
        let remaining_tasks = self
            .cfg
            .total_tasks
            .map(|total| total.saturating_sub(state.done));
        let eta_s = match remaining_tasks {
            Some(0) => 0.0,
            _ => {
                let parallelism = workers as f64 * utilization;
                let by_work = self.cfg.expected_total_s.and_then(|expected| {
                    (parallelism > 0.0)
                        .then(|| (expected - state.duration_sum).max(0.0) / parallelism)
                });
                let by_rate =
                    remaining_tasks.and_then(|n| (throughput > 0.0).then(|| n as f64 / throughput));
                by_work.or(by_rate).unwrap_or(0.0)
            }
        };
        HealthSnapshot {
            t: now,
            tasks_done: state.done,
            tasks_total: self.cfg.total_tasks,
            throughput_per_s: throughput,
            utilization,
            idle_fraction: 1.0 - utilization,
            workers,
            retries: state.retries,
            cancelled: state.cancelled,
            stragglers: state.stragglers,
            fault_rate,
            eta_s,
        }
    }
}

impl Sink for Monitor {
    fn event(&self, e: &Event) {
        let mut state = self.lock();
        match e {
            Event::SpanStart { id, t, .. } => {
                state.span_starts.insert(id.0, *t);
                state.now = state.now.max(*t);
            }
            Event::SpanEnd { t, .. }
            | Event::Counter { t, .. }
            | Event::Gauge { t, .. }
            | Event::Observe { t, .. } => {
                state.now = state.now.max(*t);
            }
            Event::Task {
                span,
                worker,
                start,
                end,
                attempts,
                ..
            } => {
                let base = span
                    .and_then(|s| state.span_starts.get(&s.0).copied())
                    .unwrap_or(0.0);
                let abs_end = base + *end;
                state.now = state.now.max(abs_end);
                if *attempts == 0 {
                    state.cancelled += 1;
                    return;
                }
                let duration = (*end - *start).max(0.0);
                if state.done > 0 {
                    let mean = state.duration_sum / state.done as f64;
                    if duration > STRAGGLER_FACTOR * mean {
                        state.stragglers += 1;
                    }
                }
                state.done += 1;
                state.executions += u64::from(*attempts);
                state.retries += u64::from(attempts - 1);
                state.duration_sum += duration;
                *state.busy.entry(*worker).or_insert(0.0) += duration;
                state.window_ends.push_back(abs_end);
            }
            // Lineage breadcrumbs restate journey facts the task rows
            // already carry; counting them (or advancing `now` to their
            // timestamps) would double-book health statistics.
            Event::Lineage { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanId;

    fn task(worker: usize, start: f64, end: f64, attempts: u32) -> Event {
        Event::Task {
            span: Some(SpanId(1)),
            task: format!("t{worker}_{start}"),
            worker,
            start,
            end,
            attempts,
        }
    }

    fn batch_events() -> Vec<Event> {
        let mut evs = vec![Event::SpanStart {
            id: SpanId(1),
            parent: None,
            name: "batch".into(),
            t: 0.0,
        }];
        evs.push(task(0, 0.0, 10.0, 1));
        evs.push(task(1, 0.0, 10.0, 2));
        evs.push(task(0, 10.0, 40.0, 1)); // straggler: 30s vs mean 10s
        evs.push(task(1, 10.0, 20.0, 0)); // never completed
        evs.push(Event::SpanEnd {
            id: SpanId(1),
            t: 40.0,
        });
        evs
    }

    #[test]
    fn folds_done_retries_cancelled_stragglers() {
        let m = Monitor::new(MonitorConfig {
            total_tasks: Some(4),
            workers: Some(2),
            ..MonitorConfig::default()
        });
        m.feed(&batch_events());
        let s = m.snapshot();
        assert_eq!(s.tasks_done, 3);
        assert_eq!(s.tasks_total, Some(4));
        assert_eq!(s.retries, 1);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.stragglers, 1);
        assert_eq!(s.t, 40.0);
        // 50 busy-seconds over 2 workers × 40 s.
        assert!((s.utilization - 0.625).abs() < 1e-12, "{}", s.utilization);
        assert!((s.idle_fraction - 0.375).abs() < 1e-12);
        // 4 executions, 1 was repair work.
        assert!((s.fault_rate - 0.25).abs() < 1e-12);
        // 3 completions in the (whole-run) window of 40 s.
        assert!((s.throughput_per_s - 3.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn eta_prefers_expected_work_then_rate_then_zero() {
        // Expected-work ETA: 100 s of work expected, 50 s done, 2 workers
        // at utilization 50/80 ⇒ parallelism 1.25 ⇒ eta 40 s.
        let m = Monitor::new(MonitorConfig {
            total_tasks: Some(4),
            expected_total_s: Some(100.0),
            workers: Some(2),
        });
        m.feed(&batch_events());
        let s = m.snapshot();
        assert!((s.eta_s - 40.0).abs() < 1e-9, "{}", s.eta_s);

        // Rate ETA: no expected durations ⇒ remaining 1 / (3/40 per s).
        let m = Monitor::new(MonitorConfig {
            total_tasks: Some(4),
            workers: Some(2),
            ..MonitorConfig::default()
        });
        m.feed(&batch_events());
        let s = m.snapshot();
        assert!((s.eta_s - 40.0 / 3.0).abs() < 1e-9, "{}", s.eta_s);

        // Everything done ⇒ 0, even with expected work configured.
        let m = Monitor::new(MonitorConfig {
            total_tasks: Some(3),
            expected_total_s: Some(1000.0),
            ..MonitorConfig::default()
        });
        m.feed(&batch_events());
        assert_eq!(m.snapshot().eta_s, 0.0);
    }

    #[test]
    fn empty_stream_snapshot_is_all_zeros() {
        let m = Monitor::new(MonitorConfig::default());
        let s = m.snapshot();
        assert_eq!(s.tasks_done, 0);
        assert_eq!(s.throughput_per_s, 0.0);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.eta_s, 0.0);
        assert_eq!(s.t, 0.0);
    }

    #[test]
    fn window_prunes_old_completions() {
        let m = Monitor::new(MonitorConfig {
            workers: Some(1),
            ..MonitorConfig::default()
        });
        m.event(&Event::SpanStart {
            id: SpanId(1),
            parent: None,
            name: "batch".into(),
            t: 0.0,
        });
        m.event(&task(0, 0.0, 5.0, 1));
        m.event(&task(0, 5.0, 400.0, 1));
        // Only the end at t=400 is inside (100, 400]; the one at t=5 aged
        // out of the 300 s window.
        let s = m.snapshot();
        assert!(
            (s.throughput_per_s - 1.0 / WINDOW_S).abs() < 1e-12,
            "{}",
            s.throughput_per_s
        );
    }

    #[test]
    fn streaming_equals_replay() {
        let events = batch_events();
        let cfg = MonitorConfig {
            total_tasks: Some(4),
            expected_total_s: Some(60.0),
            workers: Some(2),
        };
        let streaming = Monitor::new(cfg);
        let mut per_event = Vec::new();
        for e in &events {
            streaming.event(e);
            per_event.push(streaming.snapshot());
        }
        let replay = Monitor::new(cfg);
        replay.feed(&events);
        assert_eq!(per_event.last(), Some(&replay.snapshot()));
    }

    #[test]
    fn render_line_is_compact() {
        let m = Monitor::new(MonitorConfig {
            total_tasks: Some(4),
            workers: Some(2),
            ..MonitorConfig::default()
        });
        m.feed(&batch_events());
        let line = m.snapshot().render_line();
        assert!(line.starts_with("3/4 tasks | "), "{line}");
        assert!(line.contains("retries 1 stragglers 1"), "{line}");
    }
}
