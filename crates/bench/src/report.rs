//! Output plumbing for the reproduction harness: a result directory with
//! one Markdown section and any number of side files per experiment, and
//! the check that the committed directories are exactly what the
//! harness writes.
//!
//! `results/` holds `repro all` and `results/quick/` holds
//! `repro all --quick`, except the full-size `results/fig2_trace.jsonl`
//! (45 MB, gitignored). A committed artifact is checked by regenerating
//! it at the size it was made and comparing bytes: the files are their
//! own digest.

use crate::harness::{Ctx, Experiment, EXPERIMENTS};
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A collected experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (`table1`, `fig3`, ...).
    pub id: String,
    /// Markdown body (heading included).
    pub markdown: String,
    /// Side files (CSV, JSON, JSONL): (file name, contents).
    pub files: Vec<(String, String)>,
}

impl Report {
    /// Start a report with a heading.
    #[must_use]
    pub fn new(id: &str, title: &str) -> Self {
        Self {
            id: id.to_owned(),
            markdown: format!("## {title}\n\n"),
            files: Vec::new(),
        }
    }

    /// Append a Markdown line (a newline is added).
    pub fn line(&mut self, text: impl AsRef<str>) {
        self.markdown.push_str(text.as_ref());
        self.markdown.push('\n');
    }

    /// Attach a side file.
    pub fn attach(&mut self, name: &str, contents: String) {
        self.files.push((name.to_owned(), contents));
    }

    /// Every file the report writes: `<id>.md`, then the attachments.
    fn artifacts(&self) -> impl Iterator<Item = (String, &str)> + '_ {
        std::iter::once((format!("{}.md", self.id), self.markdown.as_str()))
            .chain(self.files.iter().map(|(n, c)| (n.clone(), c.as_str())))
    }

    /// Write the report under `dir` (`<id>.md` plus attachments).
    pub fn write_to(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        for (name, contents) in self.artifacts() {
            fs::write(dir.join(name), contents)?;
        }
        Ok(())
    }
}

/// The workspace root: `results/`'s parent.
#[must_use]
pub fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Where one size's artifacts are committed: `results/` for a full run,
/// `results/quick/` for a quick one.
#[must_use]
pub fn results_dir(quick: bool) -> PathBuf {
    workspace_root().join(size(quick).0)
}

/// One size's committed directory (workspace-relative) and the `repro`
/// flag that writes it.
fn size(quick: bool) -> (&'static str, &'static str) {
    if quick {
        ("results/quick", " --quick")
    } else {
        ("results", "")
    }
}

/// The one written file that is not committed.
const GITIGNORED: &str = "results/fig2_trace.jsonl";

/// One committed artifact that a fresh run does not reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// Workspace-relative path of the committed copy.
    pub(crate) path: String,
    /// What is wrong with it.
    pub(crate) kind: DriftKind,
    /// The command that brings the committed copy back in line.
    pub(crate) command: String,
}

/// How a committed artifact disagrees with a fresh run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DriftKind {
    /// Both exist and the bytes differ.
    Differs,
    /// The run writes it but no committed copy exists.
    Uncommitted,
    /// Committed, but no experiment writes it.
    Orphaned,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            DriftKind::Differs => "differs from a fresh run",
            DriftKind::Uncommitted => "is written by a fresh run but not committed",
            DriftKind::Orphaned => "is committed but no experiment writes it",
        };
        write!(f, "{} {what}; fix with: {}", self.path, self.command)
    }
}

/// Run `experiments` at `ctx`'s size and compare every file they write
/// with the committed copy under `root`. Fresh copies land in the same
/// layout under `root/target/repro-check/` so a drift can be diffed.
/// Committed files that nothing writes are reported only when
/// `experiments` is all of [`EXPERIMENTS`].
///
/// # Errors
/// Reading the committed copies or writing the fresh ones failed.
pub fn check(root: &Path, ctx: Ctx, experiments: &[Experiment]) -> io::Result<Vec<Drift>> {
    let (dir, flag) = size(ctx.quick);
    let fresh = root.join("target/repro-check").join(dir);
    let mut drifts = Vec::new();
    let mut written = BTreeSet::new();
    for (name, run) in experiments {
        let t0 = Instant::now();
        let report = run(&ctx);
        report.write_to(&fresh)?;
        drifts.extend(compare(root, ctx.quick, name, &report)?);
        written.extend(report.artifacts().map(|(file, _)| file));
        eprintln!("checked {name}{flag} in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if experiments.len() == EXPERIMENTS.len() {
        drifts.extend(orphans(root, ctx.quick, &written)?);
    }
    Ok(drifts)
}

/// Compare one fresh report with its committed files.
fn compare(root: &Path, quick: bool, name: &str, report: &Report) -> io::Result<Vec<Drift>> {
    let (dir, flag) = size(quick);
    let mut drifts = Vec::new();
    for (file, fresh) in report.artifacts() {
        let path = format!("{dir}/{file}");
        if path == GITIGNORED {
            continue;
        }
        let kind = match fs::read(root.join(&path)) {
            Ok(committed) if committed == fresh.as_bytes() => continue,
            Ok(_) => DriftKind::Differs,
            Err(e) if e.kind() == io::ErrorKind::NotFound => DriftKind::Uncommitted,
            Err(e) => return Err(e),
        };
        let command =
            format!("cargo run --release -p summitfold-bench --bin repro -- {name}{flag}");
        drifts.push(Drift {
            path,
            kind,
            command,
        });
    }
    Ok(drifts)
}

/// Committed files in one size's directory that no experiment wrote.
fn orphans(root: &Path, quick: bool, written: &BTreeSet<String>) -> io::Result<Vec<Drift>> {
    let dir = size(quick).0;
    let mut drifts = Vec::new();
    for entry in fs::read_dir(root.join(dir))? {
        let entry = entry?;
        let file = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type()?.is_file() && !written.contains(&file) {
            let path = format!("{dir}/{file}");
            let command = format!("git rm {path}");
            drifts.push(Drift {
                path,
                kind: DriftKind::Orphaned,
                command,
            });
        }
    }
    drifts.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(drifts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_and_writes() {
        let mut r = Report::new("test_exp", "Test experiment");
        r.line("| a | b |");
        r.attach("test_exp.csv", "x,y\n1,2\n".into());
        let dir = std::env::temp_dir().join("summitfold_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        r.write_to(&dir).unwrap();
        let md = std::fs::read_to_string(dir.join("test_exp.md")).unwrap();
        assert!(md.contains("## Test experiment"));
        assert!(md.contains("| a | b |"));
        let csv = std::fs::read_to_string(dir.join("test_exp.csv")).unwrap();
        assert!(csv.starts_with("x,y"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_dir_points_at_workspace() {
        let dir = results_dir(false);
        assert!(dir.ends_with("results"));
        assert_eq!(dir.parent(), Some(workspace_root().as_path()));
        assert_eq!(results_dir(true), dir.join("quick"));
    }

    /// A committed quick directory in a temp root holding exactly what
    /// `report` writes, so each test can break one thing.
    fn committed(tag: &str, report: &Report) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("summitfold_drift_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        report.write_to(&root.join("results/quick")).unwrap();
        root
    }

    fn sample() -> Report {
        let mut r = Report::new("store", "S1");
        r.line("Warm pass: 697.0 s.");
        r.attach("BENCH_store.json", "{\"hit_rate\":1}\n".into());
        r
    }

    const QUICK_STORE: &str =
        "cargo run --release -p summitfold-bench --bin repro -- store --quick";

    #[test]
    fn drift_report_names_path_and_regeneration_command() {
        let report = sample();
        let root = committed("broken", &report);
        assert_eq!(compare(&root, true, "store", &report).unwrap(), vec![]);
        let quick = root.join("results/quick");
        // One flipped byte in the Markdown, one committed file deleted.
        let mut md = fs::read(quick.join("store.md")).unwrap();
        md[3] ^= 0x20;
        fs::write(quick.join("store.md"), md).unwrap();
        fs::remove_file(quick.join("BENCH_store.json")).unwrap();
        // One file the run now writes that was never committed.
        let mut grown = report.clone();
        grown.attach("store.csv", "a\n".into());
        let drifts = compare(&root, true, "store", &grown).unwrap();
        let at = |path: &str, kind| Drift {
            path: path.into(),
            kind,
            command: QUICK_STORE.into(),
        };
        assert_eq!(
            drifts,
            vec![
                at("results/quick/store.md", DriftKind::Differs),
                at("results/quick/BENCH_store.json", DriftKind::Uncommitted),
                at("results/quick/store.csv", DriftKind::Uncommitted),
            ]
        );
        assert_eq!(
            drifts[0].to_string(),
            format!("results/quick/store.md differs from a fresh run; fix with: {QUICK_STORE}")
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn orphaned_file_is_reported_with_its_removal() {
        let root = committed("orphan", &sample());
        fs::write(root.join("results/quick/SUMMARY.md"), "stale\n").unwrap();
        fs::create_dir_all(root.join("results/quick/nested")).unwrap();
        let written = sample().artifacts().map(|(f, _)| f).collect();
        assert_eq!(
            orphans(&root, true, &written).unwrap(),
            vec![Drift {
                path: "results/quick/SUMMARY.md".into(),
                kind: DriftKind::Orphaned,
                command: "git rm results/quick/SUMMARY.md".into(),
            }]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn the_gitignored_full_trace_is_never_drift() {
        let mut r = Report::new("fig2", "F2");
        r.attach("fig2_trace.jsonl", "{}\n".into());
        let root =
            std::env::temp_dir().join(format!("summitfold_drift_trace_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let drifts = compare(&root, false, "fig2", &r).unwrap();
        assert_eq!(drifts.len(), 1, "{drifts:?}");
        assert_eq!(drifts[0].path, "results/fig2.md");
    }
}
