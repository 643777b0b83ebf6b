//! Findings and their rendering.

use std::fmt;

/// The rules `sfcheck` enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Nondeterminism sources in deterministic crates.
    Determinism,
    /// `unwrap`/`expect`/panicking macros in non-test library code.
    PanicHygiene,
    /// `unsafe` anywhere, or a crate root missing `#![forbid(unsafe_code)]`.
    UnsafeBan,
    /// Declared dependency never referenced in source.
    Manifest,
    /// A `#[deprecated]` attribute lingering past its PR cycle.
    Deprecation,
    /// An `*Error` enum without a `Display` arm for every variant.
    ErrorDisplay,
    /// A metric name literal that breaks the `area/name` path scheme.
    MetricName,
    /// A lock-order cycle (potential deadlock) or a guard held across a
    /// blocking call (`spawn`/`join`/channel recv/file write).
    LockDiscipline,
    /// `.lock().unwrap()`/`.expect()` instead of the sanctioned
    /// `PoisonError::into_inner` guard recovery.
    LockUnwrap,
    /// A metric path under an owned prefix recorded outside its owner.
    MetricParity,
    /// An `sfcheck::allow` directive that suppresses nothing.
    AllowAudit,
    /// Malformed `sfcheck::allow` directive.
    AllowSyntax,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Self; 12] = [
        Self::Determinism,
        Self::PanicHygiene,
        Self::UnsafeBan,
        Self::Manifest,
        Self::Deprecation,
        Self::ErrorDisplay,
        Self::MetricName,
        Self::LockDiscipline,
        Self::LockUnwrap,
        Self::MetricParity,
        Self::AllowAudit,
        Self::AllowSyntax,
    ];

    /// Stable rule name used in reports and `sfcheck::allow` directives.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Determinism => "determinism",
            Self::PanicHygiene => "panic-hygiene",
            Self::UnsafeBan => "unsafe",
            Self::Manifest => "manifest",
            Self::Deprecation => "deprecated",
            Self::ErrorDisplay => "error-display",
            Self::MetricName => "metric-name",
            Self::LockDiscipline => "lock-discipline",
            Self::LockUnwrap => "lock-unwrap",
            Self::MetricParity => "metric-parity",
            Self::AllowAudit => "allow-audit",
            Self::AllowSyntax => "allow-syntax",
        }
    }

    /// Parse a rule name as written in an allow directive.
    ///
    /// `allow-syntax` is deliberately not allowable: a malformed
    /// directive must always surface. `allow-audit` *is* allowable (a
    /// directive kept on purpose for a finding that comes and goes can
    /// be annotated), but an unused `allow-audit` directive is reported
    /// without further suppression so the chain terminates.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|r| *r != Self::AllowSyntax && r.name() == name)
    }

    /// Comma-separated list of the names accepted in allow directives.
    #[must_use]
    pub fn allowable_names() -> String {
        let names: Vec<&str> = Self::ALL
            .iter()
            .filter(|r| **r != Self::AllowSyntax)
            .map(|r| r.name())
            .collect();
        names.join(", ")
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation with a span-accurate location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Violated rule.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 for whole-file findings such as a missing
    /// crate-root attribute on an empty file).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found and what to do about it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Render findings as a compiler-style report, sorted by file/line/col.
#[must_use]
pub fn render(findings: &[Finding]) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    let mut out = String::new();
    for f in &sorted {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if !findings.is_empty() {
        out.push_str(&format!(
            "sfcheck: {} finding{} ({} unallowed)\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
            findings.len(),
        ));
    }
    out
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a machine-readable JSON report.
///
/// Shape: `{"total": N, "rules": {"<rule>": count, ...}, "findings":
/// [{"rule","file","line","col","message"}, ...]}` with findings sorted
/// the same way as [`render`], so two runs over the same tree are
/// byte-identical. `rules` lists every rule, including zero counts, so
/// downstream diffing sees rule additions explicitly.
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    let mut out = String::new();
    out.push_str(&format!("{{\"total\":{},\"rules\":{{", findings.len()));
    for (i, rule) in Rule::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let n = sorted.iter().filter(|f| f.rule == *rule).count();
        out.push_str(&format!("\"{}\":{n}", rule.name()));
    }
    out.push_str("},\"findings\":[");
    for (i, f) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            f.rule,
            json_escape(&f.file),
            f.line,
            f.col,
            json_escape(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_roundtrip() {
        for rule in Rule::ALL {
            if rule == Rule::AllowSyntax {
                assert_eq!(
                    Rule::from_name(rule.name()),
                    None,
                    "allow-syntax is not allowable"
                );
            } else {
                assert_eq!(Rule::from_name(rule.name()), Some(rule));
            }
        }
        assert_eq!(Rule::from_name("bogus"), None);
    }

    #[test]
    fn allowable_names_excludes_allow_syntax() {
        let names = Rule::allowable_names();
        assert!(names.contains("lock-discipline"));
        assert!(names.contains("allow-audit"));
        assert!(!names.contains("allow-syntax"));
    }

    #[test]
    fn finding_display_is_compiler_style() {
        let f = Finding {
            rule: Rule::Determinism,
            file: "crates/msa/src/kmer.rs".to_string(),
            line: 64,
            col: 22,
            message: "HashMap: hash-iteration order varies".to_string(),
        };
        assert_eq!(
            f.to_string(),
            "crates/msa/src/kmer.rs:64:22: [determinism] HashMap: hash-iteration order varies"
        );
    }

    #[test]
    fn render_sorts_and_counts() {
        let mk = |file: &str, line| Finding {
            rule: Rule::UnsafeBan,
            file: file.to_string(),
            line,
            col: 1,
            message: "m".to_string(),
        };
        let out = render(&[mk("b.rs", 2), mk("a.rs", 9)]);
        let first = out.lines().next().map(ToString::to_string);
        assert_eq!(first.as_deref(), Some("a.rs:9:1: [unsafe] m"));
        assert!(out.contains("2 findings"));
    }

    #[test]
    fn render_empty_is_empty() {
        assert_eq!(render(&[]), "");
    }

    #[test]
    fn json_report_counts_and_escapes() {
        let f = Finding {
            rule: Rule::LockDiscipline,
            file: "crates/x/src/a.rs".to_string(),
            line: 3,
            col: 9,
            message: "guard \"q\" held across join".to_string(),
        };
        let json = render_json(&[f]);
        assert!(json.starts_with("{\"total\":1,"));
        assert!(json.contains("\"lock-discipline\":1"));
        assert!(json.contains("\"metric-parity\":0"), "zero counts present");
        assert!(json.contains("guard \\\"q\\\" held across join"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn json_report_empty_total_zero() {
        let json = render_json(&[]);
        assert!(json.starts_with("{\"total\":0,"));
        assert!(json.contains("\"findings\":[]"));
    }
}
