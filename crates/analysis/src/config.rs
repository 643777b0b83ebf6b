//! Rule configuration: which crates are deterministic, which identifiers
//! each rule bans, and the `sfcheck::allow` escape-hatch grammar.

use crate::report::Rule;

/// How a source file participates in checking, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FileKind {
    /// Library code — full rule set.
    #[default]
    Lib,
    /// Binary target (`src/main.rs`, `src/bin/*`) — panic-hygiene and
    /// determinism exempt (a CLI may parse args, print, and exit).
    Bin,
    /// Integration test file under `tests/`.
    Test,
    /// Bench target under `benches/`.
    Bench,
    /// Example under `examples/`.
    Example,
}

impl FileKind {
    /// Classify a path (workspace-relative, `/`-separated).
    #[must_use]
    pub fn classify(rel_path: &str) -> Self {
        if rel_path.contains("/tests/") {
            Self::Test
        } else if rel_path.contains("/benches/") {
            Self::Bench
        } else if rel_path.contains("/examples/") || rel_path.starts_with("examples/") {
            Self::Example
        } else if rel_path.starts_with("tests/") {
            Self::Test
        } else if rel_path.contains("/src/bin/") || rel_path.ends_with("src/main.rs") {
            Self::Bin
        } else {
            Self::Lib
        }
    }
}

/// The checker's configuration.
///
/// [`Config::workspace_default`] encodes the contract from DESIGN.md:
/// crates whose output feeds the paper's reproduced numbers must be
/// bit-for-bit deterministic under a fixed seed, so anything that can
/// inject wall-clock time, hash-iteration order, environment state, or
/// thread identity into results is banned there.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory names whose library code must be deterministic.
    pub deterministic_crates: Vec<String>,
    /// Workspace-relative path suffixes exempt from the determinism rule
    /// even inside deterministic crates (the explicitly nondeterministic
    /// executors).
    pub deterministic_exempt_paths: Vec<String>,
    /// Identifiers banned by the determinism rule.
    pub nondeterministic_idents: Vec<(String, String)>,
    /// `prefix::ident` path pairs banned by the determinism rule.
    pub nondeterministic_paths: Vec<(String, String, String)>,
    /// Workspace-relative path suffixes exempt from the lock-discipline
    /// rule (modules whose documented contract is IO under their own
    /// lock, e.g. the single-writer JSONL sink).
    pub lock_discipline_exempt_paths: Vec<String>,
    /// `(metric-path prefix, owning file suffix)` pairs: every metric
    /// under the prefix must be recorded from the owning file alone, so
    /// the counter means the same thing wherever it shows up in a trace
    /// (the result-store `cache/*` contract: both executors hit the one
    /// recording site inside the store, parity by construction).
    pub metric_owner_prefixes: Vec<(String, String)>,
}

impl Config {
    /// The summitfold workspace policy.
    ///
    /// Deterministic crates: `protein`, `structal`, `msa`, `inference`,
    /// `relax`, `dataflow` (its virtual-time simulator is the basis of
    /// every scaling figure), `obs` (its virtual clock feeds the
    /// repro-number traces), and `store` (content-addressed keys must
    /// be stable across runs and toolchains or every warm rerun
    /// misses). The thread-backed executors
    /// `dataflow/src/real.rs` and `dataflow/src/fault.rs` are exempt —
    /// wall-clock timing and OS scheduling are their whole purpose — as
    /// is `obs/src/wall.rs`, the one module allowed to read `Instant`
    /// (the documented Clock exemption: wall time never reaches a
    /// repro-number path, which uses `Recorder::virtual_time`).
    /// `hpc`, `pipeline`, `bench`, and `analysis` are reporting/driver
    /// layers and may read clocks freely.
    #[must_use]
    pub fn workspace_default() -> Self {
        let ident = |name: &str, why: &str| (name.to_string(), why.to_string());
        let path = |a: &str, b: &str, why: &str| (a.to_string(), b.to_string(), why.to_string());
        Self {
            deterministic_crates: [
                "protein",
                "structal",
                "msa",
                "inference",
                "relax",
                "dataflow",
                "obs",
                "store",
            ]
            .iter()
            .map(ToString::to_string)
            .collect(),
            deterministic_exempt_paths: vec![
                "crates/dataflow/src/real.rs".to_string(),
                "crates/dataflow/src/fault.rs".to_string(),
                "crates/obs/src/wall.rs".to_string(),
            ],
            nondeterministic_idents: vec![
                ident("HashMap", "hash-iteration order varies run to run; use BTreeMap or sort before iterating"),
                ident("HashSet", "hash-iteration order varies run to run; use BTreeSet or sort before iterating"),
                ident("Instant", "wall-clock time leaks scheduling jitter into results; thread virtual time through instead"),
                ident("SystemTime", "wall-clock time leaks host state into results"),
                ident("RandomState", "randomized hasher state is seeded from the OS"),
                ident("DefaultHasher", "hasher output is not guaranteed stable across runs or toolchains"),
            ],
            nondeterministic_paths: vec![
                path("std", "env", "environment variables are per-host state; pass configuration explicitly"),
                path("std", "time", "wall-clock time leaks host state into results; use an obs::Clock"),
                path("thread", "current", "thread identity depends on OS scheduling"),
            ],
            lock_discipline_exempt_paths: vec![
                // The JSONL sink's documented contract is incremental IO
                // under its own lock: events append under the state lock
                // so a killed run leaves an at-worst-torn-tail trace.
                // Sinks must not call back into the recorder (sink.rs
                // module docs), so the held guard cannot deadlock.
                "crates/obs/src/sink.rs".to_string(),
            ],
            metric_owner_prefixes: vec![
                (
                    "cache/".to_string(),
                    "crates/store/src/lib.rs".to_string(),
                ),
                // Injected-fault counters are recorded where the fault
                // fires — the chaos plane — so a trace's fault/* totals
                // are the injection schedule, not a component's view.
                (
                    "fault/".to_string(),
                    "crates/dataflow/src/chaos.rs".to_string(),
                ),
                // Recovery counters are the WAL replay's own telemetry.
                (
                    "recovery/".to_string(),
                    "crates/hpc/src/service.rs".to_string(),
                ),
                // Lineage breadcrumbs form a closed causal grammar; the
                // literals live solely in the obs emit helpers so every
                // producer spells each phase identically.
                (
                    "lineage/".to_string(),
                    "crates/obs/src/lineage.rs".to_string(),
                ),
                // Batch and live-drain counters are emitted by the one
                // skeleton both executors run inside; a backend that
                // records its own has left the shared frame.
                (
                    "service/live_".to_string(),
                    "crates/dataflow/src/exec.rs".to_string(),
                ),
                (
                    "dataflow/".to_string(),
                    "crates/dataflow/src/exec.rs".to_string(),
                ),
            ],
        }
    }

    /// Whether the determinism rule applies to `rel_path` inside `crate_dir`.
    #[must_use]
    pub fn is_deterministic_file(&self, crate_dir: &str, rel_path: &str) -> bool {
        self.deterministic_crates.iter().any(|c| c == crate_dir)
            && !self
                .deterministic_exempt_paths
                .iter()
                .any(|p| rel_path == p || rel_path.ends_with(p))
    }

    /// Whether `rel_path` is exempt from the lock-discipline rule.
    #[must_use]
    pub fn is_lock_discipline_exempt(&self, rel_path: &str) -> bool {
        self.lock_discipline_exempt_paths
            .iter()
            .any(|p| rel_path == p || rel_path.ends_with(p))
    }
}

/// A parsed `sfcheck::allow(rule, reason)` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The rule being suppressed.
    pub rule: Rule,
    /// Human-readable justification (required, non-empty).
    pub reason: String,
    /// 1-based line of the comment carrying the directive.
    pub line: u32,
}

/// Outcome of scanning one comment for a directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllowParse {
    /// Comment contains no directive.
    None,
    /// Well-formed directive.
    Ok(AllowDirective),
    /// Directive present but malformed (error message explains how).
    Malformed(String),
}

/// Scan one comment body for `sfcheck::allow(rule, reason)`.
///
/// Grammar: `sfcheck::allow(` *rule-name* `,` *free-text reason* `)`.
/// The rule name must be one of the known rules and the reason must be
/// non-empty; anything else is reported under the `allow-syntax` rule so
/// a typo cannot silently suppress nothing (or worse, something else).
#[must_use]
pub fn parse_allow(comment: &str, line: u32) -> AllowParse {
    let Some(pos) = comment.find("sfcheck::allow") else {
        return AllowParse::None;
    };
    let rest = &comment[pos + "sfcheck::allow".len()..];
    let Some(inner) = rest.strip_prefix('(').and_then(|r| r.split_once(')')) else {
        return AllowParse::Malformed(
            "sfcheck::allow must be written as sfcheck::allow(rule, reason)".to_string(),
        );
    };
    let body = inner.0;
    let Some((rule_name, reason)) = body.split_once(',') else {
        return AllowParse::Malformed(format!(
            "sfcheck::allow({body}) is missing a reason — write sfcheck::allow(rule, reason)"
        ));
    };
    let rule_name = rule_name.trim();
    let reason = reason.trim();
    let Some(rule) = Rule::from_name(rule_name) else {
        return AllowParse::Malformed(format!(
            "unknown sfcheck rule {rule_name:?} (expected one of: {})",
            Rule::allowable_names()
        ));
    };
    if reason.is_empty() {
        return AllowParse::Malformed(format!(
            "sfcheck::allow({rule_name}, …) has an empty reason — justify the suppression"
        ));
    }
    AllowParse::Ok(AllowDirective {
        rule,
        reason: reason.to_string(),
        line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(FileKind::classify("crates/msa/src/kmer.rs"), FileKind::Lib);
        assert_eq!(
            FileKind::classify("crates/bench/benches/bench_msa.rs"),
            FileKind::Bench
        );
        assert_eq!(
            FileKind::classify("crates/bench/src/bin/repro.rs"),
            FileKind::Bin
        );
        assert_eq!(FileKind::classify("src/main.rs"), FileKind::Bin);
        assert_eq!(FileKind::classify("src/lib.rs"), FileKind::Lib);
        assert_eq!(FileKind::classify("tests/end_to_end.rs"), FileKind::Test);
        assert_eq!(
            FileKind::classify("examples/quickstart.rs"),
            FileKind::Example
        );
        assert_eq!(
            FileKind::classify("crates/analysis/tests/fixtures.rs"),
            FileKind::Test
        );
    }

    #[test]
    fn deterministic_set_membership() {
        let c = Config::workspace_default();
        assert!(c.is_deterministic_file("msa", "crates/msa/src/kmer.rs"));
        assert!(c.is_deterministic_file("dataflow", "crates/dataflow/src/sim.rs"));
        assert!(!c.is_deterministic_file("dataflow", "crates/dataflow/src/real.rs"));
        assert!(!c.is_deterministic_file("dataflow", "crates/dataflow/src/fault.rs"));
        assert!(c.is_deterministic_file("obs", "crates/obs/src/recorder.rs"));
        assert!(c.is_deterministic_file("obs", "crates/obs/src/clock.rs"));
        assert!(!c.is_deterministic_file("obs", "crates/obs/src/wall.rs"));
        assert!(!c.is_deterministic_file("hpc", "crates/hpc/src/machine.rs"));
        assert!(!c.is_deterministic_file("bench", "crates/bench/src/microbench.rs"));
        assert!(c.is_deterministic_file("store", "crates/store/src/key.rs"));
        assert!(c.is_deterministic_file("store", "crates/store/src/lib.rs"));
    }

    #[test]
    fn lock_discipline_exemption_default() {
        let c = Config::workspace_default();
        assert!(c.is_lock_discipline_exempt("crates/obs/src/sink.rs"));
        assert!(!c.is_lock_discipline_exempt("crates/store/src/lib.rs"));
        assert!(!c.is_lock_discipline_exempt("crates/hpc/src/service.rs"));
        assert!(!c.is_lock_discipline_exempt("crates/dataflow/src/real.rs"));
        assert_eq!(
            c.metric_owner_prefixes,
            vec![
                ("cache/".to_string(), "crates/store/src/lib.rs".to_string()),
                (
                    "fault/".to_string(),
                    "crates/dataflow/src/chaos.rs".to_string()
                ),
                (
                    "recovery/".to_string(),
                    "crates/hpc/src/service.rs".to_string()
                ),
                (
                    "lineage/".to_string(),
                    "crates/obs/src/lineage.rs".to_string()
                ),
                (
                    "service/live_".to_string(),
                    "crates/dataflow/src/exec.rs".to_string()
                ),
                (
                    "dataflow/".to_string(),
                    "crates/dataflow/src/exec.rs".to_string()
                ),
            ]
        );
    }

    #[test]
    fn parse_accepts_new_rule_names() {
        for name in [
            "lock-discipline",
            "lock-unwrap",
            "metric-parity",
            "allow-audit",
        ] {
            let parsed = parse_allow(&format!("sfcheck::allow({name}, justified)"), 3);
            assert!(matches!(parsed, AllowParse::Ok(_)), "{name}: {parsed:?}");
        }
    }

    #[test]
    fn parse_well_formed_allow() {
        let AllowParse::Ok(d) =
            parse_allow(" sfcheck::allow(determinism, documented tie-break)", 7)
        else {
            panic!("expected Ok");
        };
        assert_eq!(d.rule, Rule::Determinism);
        assert_eq!(d.reason, "documented tie-break");
        assert_eq!(d.line, 7);
    }

    #[test]
    fn parse_rejects_missing_reason() {
        assert!(matches!(
            parse_allow("sfcheck::allow(determinism)", 1),
            AllowParse::Malformed(_)
        ));
        assert!(matches!(
            parse_allow("sfcheck::allow(determinism, )", 1),
            AllowParse::Malformed(_)
        ));
    }

    #[test]
    fn parse_rejects_unknown_rule() {
        assert!(matches!(
            parse_allow("sfcheck::allow(no-such-rule, x)", 1),
            AllowParse::Malformed(_)
        ));
    }

    #[test]
    fn non_directive_comment_ignored() {
        assert_eq!(
            parse_allow("ordinary comment about unwrap", 1),
            AllowParse::None
        );
    }
}
