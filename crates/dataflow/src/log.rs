//! The one append-only log: durable state is a JSONL file plus one
//! `apply` per record. The store's `store.jsonl` and the service's
//! `service.jsonl` are *schemas* — a record type with one encoder, one
//! decoder and one `apply` — over this module, which owns what is
//! schema-independent:
//!
//! * **The torn-tail rule, stated once.** A final line without its `\n`
//!   is not a record, whether or not the bytes before the missing
//!   newline parse. [`Log::open`] drops it from replay *and* truncates it
//!   on disk before anything appends, so what a process folds into
//!   memory is exactly the bytes it leaves behind. `complete_lines` is
//!   the rule as a pure function; the in-memory checkpoint
//!   [`Journal`](crate::journal::Journal) parses with it too.
//! * **Seals as data.** Every recovered line carries its [`Seal`]
//!   classification; whether `Absent` is a legacy line (the store's v1
//!   journals) or corruption (the WAL) is the schema's `match`.
//! * **One gated append.** [`Log::append`] writes a batch as one write
//!   under the caller's fault-plane op and honours the [`WriteOutcome`] —
//!   so a dead [`IoFaults`] handle appends nothing through any path.
//!
//! The log records no metric: `fault/*` belongs to the chaos plane,
//! recovery telemetry to each schema's owner.

use crate::chaos::{IoFaults, WriteOutcome};
use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use summitfold_obs::json::{check_seal, Seal};
use summitfold_obs::Recorder;

/// Split `text` into its complete (newline-terminated) lines and whether
/// a torn tail — a final line missing its `\n` — was cut off.
pub(crate) fn complete_lines(text: &str) -> (&str, bool) {
    let keep = text.rfind('\n').map_or(0, |i| i + 1);
    (&text[..keep], keep < text.len())
}

/// What [`Log::open`] found on disk, after the torn-tail rule.
#[derive(Debug)]
pub struct Recovered {
    body: String,
    /// Whether a torn final line was dropped (and truncated on disk).
    pub torn_tail: bool,
}

impl Recovered {
    /// The complete, non-blank lines in append order, each trimmed and
    /// paired with its seal classification.
    pub fn lines(&self) -> impl Iterator<Item = (&str, Seal)> {
        self.body
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(|l| (l, check_seal(l)))
    }
}

/// An append-only JSONL file whose writes pass through the fault plane.
#[derive(Debug)]
pub struct Log {
    path: PathBuf,
    file: File,
    op: &'static str,
    faults: IoFaults,
}

impl Log {
    fn at(path: PathBuf, op: &'static str, faults: IoFaults) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let file = fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        Ok(Self {
            path,
            file,
            op,
            faults,
        })
    }

    /// Start a fresh log at `path` (parent directories created, prior
    /// contents discarded); appends are occurrences of `op` on `faults`.
    ///
    /// # Errors
    /// Any I/O error creating or truncating the file.
    pub fn create(path: PathBuf, op: &'static str, faults: IoFaults) -> io::Result<Self> {
        let log = Self::at(path, op, faults)?;
        log.file.set_len(0)?;
        Ok(log)
    }

    /// Open (or create) the log at `path` and recover its contents. A
    /// torn tail is truncated on disk here, before the first append.
    ///
    /// # Errors
    /// Any I/O error opening, reading (invalid UTF-8 included) or
    /// repairing the file.
    pub fn open(
        path: PathBuf,
        op: &'static str,
        faults: IoFaults,
    ) -> io::Result<(Self, Recovered)> {
        let mut log = Self::at(path, op, faults)?;
        let mut body = String::new();
        log.file.read_to_string(&mut body)?;
        let (complete, torn_tail) = complete_lines(&body);
        if torn_tail {
            log.file.set_len(complete.len() as u64)?;
            body.truncate(complete.len());
        }
        Ok((log, Recovered { body, torn_tail }))
    }

    /// The file this log appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append `lines` (each gains its `\n`) as one gated write and
    /// report how the fault plane let it proceed: anything but
    /// [`WriteOutcome::Full`] means the batch is not durable and must not
    /// be applied. An empty batch is not an operation.
    ///
    /// # Errors
    /// A real I/O error from an ungated (`Full`) write.
    pub fn append(&self, lines: &[String], rec: &Recorder) -> io::Result<WriteOutcome> {
        if lines.is_empty() {
            return Ok(WriteOutcome::Full);
        }
        let mut bytes = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        let outcome = self.faults.on_write(self.op, &mut bytes, rec);
        match outcome {
            WriteOutcome::Full => (&self.file).write_all(&bytes)?,
            // Killed mid-append: the prefix is all that lands, and a dead
            // process has no one to report a write error to.
            WriteOutcome::Torn(keep) => {
                let _ = (&self.file).write_all(&bytes[..keep]);
            }
            WriteOutcome::Fail => {}
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultPlan, IoFault};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sf-log-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("nested").join("log.jsonl")
    }

    fn lines(rec: &Recovered) -> Vec<String> {
        rec.lines().map(|(l, _)| l.to_owned()).collect()
    }

    #[test]
    fn a_line_without_its_newline_is_not_a_record() {
        assert_eq!(complete_lines(""), ("", false));
        assert_eq!(complete_lines("a\nb\n"), ("a\nb\n", false));
        assert_eq!(complete_lines("a\nb"), ("a\n", true));
        assert_eq!(complete_lines("{\"complete\":1}"), ("", true));
    }

    #[test]
    fn open_truncates_the_torn_tail_so_memory_equals_disk() {
        let path = scratch("torn");
        let rec = Recorder::virtual_time();
        let log = Log::create(path.clone(), "t/op", IoFaults::none()).unwrap();
        log.append(&["one".to_owned(), "two".to_owned()], &rec)
            .unwrap();
        drop(log);
        // Every cut inside the final line, the missing-newline-only cut
        // included, recovers exactly the first line — twice in a row.
        let full = fs::read_to_string(&path).unwrap();
        for cut in "one\n".len() + 1..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (log, first) = Log::open(path.clone(), "t/op", IoFaults::none()).unwrap();
            assert!(first.torn_tail, "cut {cut}");
            assert_eq!(lines(&first), ["one"], "cut {cut}");
            assert_eq!(fs::read_to_string(&path).unwrap(), "one\n", "cut {cut}");
            // The next append starts on a clean line boundary.
            log.append(&["three".to_owned()], &rec).unwrap();
            let (_, second) = Log::open(path.clone(), "t/op", IoFaults::none()).unwrap();
            assert!(!second.torn_tail);
            assert_eq!(lines(&second), ["one", "three"], "cut {cut}");
        }
    }

    #[test]
    fn lines_carry_their_seal_and_blank_lines_vanish() {
        let path = scratch("seal");
        let mut w = summitfold_obs::json::ObjectWriter::new();
        w.str_field("k", "v");
        let sealed = w.finish_sealed();
        let broken = sealed.replace("\"v\"", "\"w\"");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, format!("{sealed}\n\n  {broken}\n{{\"k\":1}}\n")).unwrap();
        let (_, rec) = Log::open(path, "t/op", IoFaults::none()).unwrap();
        let seals: Vec<Seal> = rec.lines().map(|(_, s)| s).collect();
        assert_eq!(seals, [Seal::Valid, Seal::Mismatch, Seal::Absent]);
    }

    #[test]
    fn append_honours_every_write_outcome() {
        let path = scratch("gated");
        let rec = Recorder::virtual_time();
        let faults = FaultPlan::new()
            .io(IoFault::fail("t/op", 1))
            .io(IoFault::torn("t/op", 2, 3))
            .arm();
        let log = Log::create(path.clone(), "t/op", faults.clone()).unwrap();
        let batch = |s: &str| vec![s.to_owned()];
        assert_eq!(log.append(&[], &rec).unwrap(), WriteOutcome::Full);
        assert_eq!(
            log.append(&batch("first"), &rec).unwrap(),
            WriteOutcome::Full
        );
        assert_eq!(
            log.append(&batch("failed"), &rec).unwrap(),
            WriteOutcome::Fail
        );
        assert_eq!(
            log.append(&batch("torn-line"), &rec).unwrap(),
            WriteOutcome::Torn(3)
        );
        assert!(faults.is_killed());
        // A dead handle refuses all later I/O.
        assert_eq!(
            log.append(&batch("ghost"), &rec).unwrap(),
            WriteOutcome::Fail
        );
        assert_eq!(fs::read_to_string(&path).unwrap(), "first\ntor");
        // Starting fresh discards it all.
        drop(log);
        Log::create(path.clone(), "t/op", IoFaults::none()).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "");
    }
}
