//! The checkpoint journal: an append-only JSONL record of completed
//! tasks, written as a batch runs and replayed by `Batch::resume`.
//!
//! AF_Cache-style restartability (PAPERS.md): a proteome-scale batch that
//! dies hours in must not redo finished work. Executors append one
//! `task_done` line per completed task through [`Journal::record`]; after
//! a crash the journal text is parsed back and handed to
//! `Batch::resume`, which schedules only the unfinished tasks and
//! reproduces the uninterrupted outcome's records.
//!
//! The wire format reuses the `obs` flat-JSON conventions (same writer,
//! same parser, shortest-round-trip numbers), so journal lines survive a
//! write/parse cycle bit-for-bit:
//!
//! ```text
//! {"event":"task_done","task":"DVU_00042/model_3","worker":5,"start":0.5,"end":30.25,"attempts":2}
//! ```
//!
//! Journals written by older builds may also hold `task_carryover`
//! lines naming tasks a walltime-cut batch left undone. They parse and
//! are ignored: such a task has no `task_done` line, so resume re-runs
//! it. A kill mid-append can truncate the file mid-byte; [`Journal::parse_jsonl`]
//! applies the workspace's one torn-tail rule ([`crate::log`]): a final
//! line without its `\n` is not a record, parseable or not. It is
//! dropped (the task it named simply re-runs) and flagged via
//! [`Journal::had_torn_tail`], which `Batch::resume` surfaces as a
//! `dataflow/journal_torn` counter. The journal shares the rule, not the
//! sealing: its lines stay unsealed.

use crate::fault::ResilienceError;
use crate::log::complete_lines;
use crate::sync::lock;
use std::collections::BTreeMap;
use std::sync::Mutex;
use summitfold_obs::json::{self, ObjectWriter};

/// One completed task, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Task identifier.
    pub task: String,
    /// Worker that completed it.
    pub worker: usize,
    /// Start time (seconds since batch start, on the producing
    /// executor's clock).
    pub start: f64,
    /// End time (same clock).
    pub end: f64,
    /// Executions including the successful one.
    pub attempts: u32,
}

impl JournalEntry {
    /// Serialize as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str_field("event", "task_done");
        w.str_field("task", &self.task);
        w.int_field("worker", self.worker as u64);
        w.num_field("start", self.start);
        w.num_field("end", self.end);
        w.int_field("attempts", u64::from(self.attempts));
        w.finish()
    }
}

/// An append-only checkpoint journal. Interior-mutable so the thread
/// executor's workers can append live while the batch runs.
#[derive(Debug, Default)]
pub struct Journal {
    entries: Mutex<Vec<JournalEntry>>,
    torn_tail: bool,
}

impl Journal {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one completed task.
    pub fn record(&self, entry: JournalEntry) {
        lock(&self.entries).push(entry);
    }

    /// Snapshot of all entries in append order.
    #[must_use]
    pub fn entries(&self) -> Vec<JournalEntry> {
        lock(&self.entries).clone()
    }

    /// Number of journaled completions.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether nothing has been journaled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock(&self.entries).is_empty()
    }

    /// Whether [`Journal::parse_jsonl`] dropped a torn final line (the
    /// producing batch was killed mid-append).
    #[must_use]
    pub fn had_torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// A new journal holding only the first `n` entries — the state on
    /// disk after a batch was killed at that task boundary.
    #[must_use]
    pub fn truncated(&self, n: usize) -> Self {
        let mut entries = self.entries();
        entries.truncate(n);
        Self {
            entries: Mutex::new(entries),
            ..Self::default()
        }
    }

    /// Latest entry per task id (a task re-journaled on resume keeps the
    /// newest line).
    #[must_use]
    pub fn completed(&self) -> BTreeMap<String, JournalEntry> {
        self.entries()
            .into_iter()
            .map(|e| (e.task.clone(), e))
            .collect()
    }

    /// Serialize as JSONL: one `task_done` object per completion,
    /// trailing newline (empty string for an empty journal).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let entries = lock(&self.entries);
        let mut out = String::with_capacity(entries.len() * 96);
        for e in entries.iter() {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL journal written by [`Journal::to_jsonl`].
    ///
    /// A final line not ending with a newline is a torn tail — the
    /// producer was killed mid-append. It is dropped (its task re-runs
    /// on resume) and the journal reports [`Journal::had_torn_tail`].
    ///
    /// # Errors
    /// Returns [`ResilienceError::Journal`] naming the first malformed
    /// complete line (bad JSON, an unknown event kind, or a missing
    /// field).
    pub fn parse_jsonl(text: &str) -> Result<Self, ResilienceError> {
        let mut entries = Vec::new();
        let (body, torn_tail) = complete_lines(text);
        for (i, raw) in body.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let parsed = Self::parse_line(line).map_err(|message| ResilienceError::Journal {
                line: i + 1,
                message,
            })?;
            entries.extend(parsed);
        }
        Ok(Self {
            entries: Mutex::new(entries),
            torn_tail,
        })
    }

    /// One complete line: a `task_done` entry, or `None` for a legacy
    /// `task_carryover` line (see the module docs).
    fn parse_line(line: &str) -> Result<Option<JournalEntry>, String> {
        let obj = json::parse_object(line).map_err(|e| e.to_string())?;
        let kind = obj.str("event")?;
        let task = obj.str("task")?.to_owned();
        match kind {
            "task_carryover" => Ok(None),
            "task_done" => Ok(Some(JournalEntry {
                task,
                worker: obj.uint("worker")?,
                start: obj.num("start")?,
                end: obj.num("end")?,
                attempts: obj.uint("attempts")?,
            })),
            other => Err(format!("unknown event kind '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Journal {
        let j = Journal::new();
        j.record(JournalEntry {
            task: "a".into(),
            worker: 0,
            start: 0.0,
            end: 1.0 / 3.0,
            attempts: 1,
        });
        j.record(JournalEntry {
            task: "b".into(),
            worker: 3,
            start: 0.5,
            end: 30.25,
            attempts: 2,
        });
        j
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let j = sample();
        let text = j.to_jsonl();
        let parsed = Journal::parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.entries(), j.entries());
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn truncation_models_a_kill() {
        let j = sample();
        let cut = j.truncated(1);
        assert_eq!(cut.len(), 1);
        assert_eq!(cut.entries()[0].task, "a");
        assert_eq!(j.len(), 2, "original untouched");
        assert!(j.truncated(0).is_empty());
    }

    #[test]
    fn completed_keeps_the_newest_line_per_task() {
        let j = sample();
        j.record(JournalEntry {
            task: "a".into(),
            worker: 9,
            start: 2.0,
            end: 3.0,
            attempts: 4,
        });
        let done = j.completed();
        assert_eq!(done.len(), 2);
        assert_eq!(done["a"].worker, 9);
    }

    #[test]
    fn malformed_journals_are_rejected_with_line_numbers() {
        // A trailing newline marks the line as completely written, so
        // its malformation is a real error, not a torn append.
        let bad = Journal::parse_jsonl("{\"event\":\"task\"}\n").unwrap_err();
        match bad {
            ResilienceError::Journal { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("task"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Journal::parse_jsonl("not json\n").is_err());
        let ok = sample().to_jsonl();
        let mangled = format!("{ok}{{\"event\":\"task_done\",\"task\":\"c\"}}\n");
        match Journal::parse_jsonl(&mangled).unwrap_err() {
            ResilienceError::Journal { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
        // A malformed line *before* the tail errors even without a final
        // newline: only the very last line can be a torn append.
        let mid = "garbage\n{\"event\":\"task_done\",\"task\":\"c\"";
        assert!(Journal::parse_jsonl(mid).is_err());
        // Blank lines are tolerated.
        assert_eq!(Journal::parse_jsonl("\n\n").unwrap().len(), 0);
    }

    /// A valid journal line, then a `task_done` line whose `key` holds
    /// the raw JSON value `raw`: the error names line 2 and the field.
    fn assert_done_field_rejected(key: &str, raw: &str) {
        let good = sample().entries()[0].to_json_line();
        let fields = [
            ("worker", "0"),
            ("start", "0"),
            ("end", "1"),
            ("attempts", "1"),
        ];
        let row: Vec<String> = fields
            .iter()
            .map(|&(k, v)| format!("\"{k}\":{}", if k == key { raw } else { v }))
            .collect();
        let text = format!(
            "{good}\n{{\"event\":\"task_done\",\"task\":\"c\",{}}}\n",
            row.join(",")
        );
        match Journal::parse_jsonl(&text).expect_err(raw) {
            ResilienceError::Journal { line, message } => {
                assert_eq!(line, 2, "{message}");
                assert!(message.contains(key), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_integer_fields_are_rejected() {
        // A saturating cast would read -1 attempts as 0.
        assert_done_field_rejected("attempts", "-1");
        assert_done_field_rejected("worker", "-1");
    }

    #[test]
    fn fractional_integer_fields_are_rejected() {
        // A saturating cast would read 1.9 as 1.
        assert_done_field_rejected("attempts", "1.9");
        assert_done_field_rejected("worker", "1.9");
    }

    #[test]
    fn out_of_range_integer_fields_are_rejected() {
        // A saturating cast would read 1e30 as usize::MAX; a thread-backend
        // resume replays that into a record whose `worker_timelines`
        // overflows.
        assert_done_field_rejected("worker", "1e30");
        assert_done_field_rejected("attempts", "4294967296");
    }

    #[test]
    fn torn_final_line_is_dropped_and_flagged() {
        let j = sample();
        let text = j.to_jsonl();
        // Kill mid-append: chop bytes off the final line, leaving no
        // trailing newline. Every cut inside the last line must parse to
        // the surviving prefix with the torn flag set.
        let last_line_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        // The last cut is the complete line with only its newline missing:
        // still not a record, by the one torn-tail rule.
        for cut in last_line_start + 1..text.len() {
            let torn = Journal::parse_jsonl(&text[..cut]).expect("torn tail tolerated");
            assert_eq!(torn.len(), 1, "cut at byte {cut}");
            assert_eq!(torn.entries()[0].task, "a");
            assert!(torn.had_torn_tail(), "cut at byte {cut}");
        }
        // An intact journal reports no torn tail.
        assert!(!Journal::parse_jsonl(&text).unwrap().had_torn_tail());
    }

    #[test]
    fn legacy_carryover_lines_parse_and_are_ignored() {
        // An older build ended a walltime-cut journal with the tasks it
        // left undone. They are not completions: resume re-runs them.
        let text = format!(
            "{}{{\"event\":\"task_carryover\",\"task\":\"x\"}}\n",
            sample().to_jsonl()
        );
        let parsed = Journal::parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.entries(), sample().entries());
        assert!(!parsed.completed().contains_key("x"));
        assert_eq!(parsed.to_jsonl(), sample().to_jsonl(), "not written back");
        // The legacy line still needs its task name.
        let bad = Journal::parse_jsonl("{\"event\":\"task_carryover\"}\n").unwrap_err();
        assert_eq!(
            bad.to_string(),
            "journal line 1: missing string field 'task'"
        );
    }

    #[test]
    fn journals_written_before_the_borrowed_decoder_replay_identically() {
        // Literal lines as the map-building parser's build wrote them:
        // escapes, a non-ASCII id, shortest-round-trip floats, and a
        // legacy carryover line, which is read and dropped.
        let text = "{\"event\":\"task_done\",\"task\":\"DVU_00042/model_3\",\"worker\":5,\"start\":0.5,\"end\":30.25,\"attempts\":2}\n\
                    {\"event\":\"task_done\",\"task\":\"a\\\"b\\\\c\\nd\\u0001é\",\"worker\":0,\"start\":0,\"end\":0.3333333333333333,\"attempts\":1}\n\
                    {\"event\":\"task_carryover\",\"task\":\"DVU_00117/model_1\"}\n";
        let j = Journal::parse_jsonl(text).expect("pre-decoder lines replay");
        let done = |task: &str, worker, start, end, attempts| JournalEntry {
            task: task.into(),
            worker,
            start,
            end,
            attempts,
        };
        assert_eq!(
            j.entries(),
            vec![
                done("DVU_00042/model_3", 5, 0.5, 30.25, 2),
                done("a\"b\\c\nd\u{1}é", 0, 0.0, 1.0 / 3.0, 1),
            ]
        );
        assert_eq!(
            j.to_jsonl(),
            text[..text.rfind("{\"event\":\"task_carryover\"").unwrap()]
        );
        // And the same lines are refused with the same words.
        let refused = [
            ("not json", "expected '{' (at byte 0)"),
            ("{\"event\":\"task_done\"", "expected ',' or '}' (at byte 20)"),
            ("{\"event\":\"task_done\",\"task\":\"c\",\"worker\":--1}", "invalid number '--1' (at byte 41)"),
            ("{\"event\":\"task_done\",\"task\":\"c\",\"worker\":1e400}", "field 'worker' is not an integer in range"),
            ("{\"task\":\"c\"}", "missing string field 'event'"),
            ("{\"event\":\"task_done\"}", "missing string field 'task'"),
            ("{\"event\":\"task\",\"task\":\"c\"}", "unknown event kind 'task'"),
            ("{\"event\":\"task_done\",\"task\":\"c\"}", "missing numeric field 'worker'"),
            ("{\"event\":\"task_done\",\"task\":\"c\",\"worker\":-1}", "field 'worker' is not an integer in range"),
            ("{\"event\":\"task_done\",\"task\":\"c\",\"worker\":1,\"start\":null}", "missing numeric field 'start'"),
            ("{\"event\":\"task_done\",\"task\":\"c\",\"worker\":1,\"start\":0,\"end\":1,\"attempts\":\"1\"}", "field 'attempts' is not an integer in range"),
            ("{\"event\":7,\"task\":\"c\"}", "missing string field 'event'"),
        ];
        for (line, want) in refused {
            let err = Journal::parse_jsonl(&format!("{text}{line}\n")).expect_err(line);
            assert_eq!(err.to_string(), format!("journal line 4: {want}"), "{line}");
        }
    }

    #[test]
    fn concurrent_appends_are_safe() {
        let j = Journal::new();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let j = &j;
                scope.spawn(move || {
                    for i in 0..50 {
                        j.record(JournalEntry {
                            task: format!("w{w}-t{i}"),
                            worker: w,
                            start: 0.0,
                            end: 1.0,
                            attempts: 1,
                        });
                    }
                });
            }
        });
        assert_eq!(j.len(), 200);
    }
}
