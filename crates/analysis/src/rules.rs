//! The per-rule token passes (phase-1 file rules).
//!
//! Every pass consumes a [`FileCheck`] — one scanned file plus its
//! classification — and emits [`Finding`]s, *unsuppressed*: as of v2,
//! `sfcheck::allow` directives are applied centrally by
//! [`crate::suppress::apply`], which is what lets the allow-audit rule
//! see directives that never suppressed anything. Test-region exemption
//! stays here so each pass remains a pure token matcher.

use crate::config::{Config, FileKind};
use crate::lexer::{Scan, Tok, TokKind};
use crate::report::{Finding, Rule};

/// One file prepared for checking.
pub struct FileCheck<'a> {
    /// Workspace-relative path (`/`-separated).
    pub rel_path: &'a str,
    /// Path-derived role of the file.
    pub kind: FileKind,
    /// Whether the determinism rule applies to this file.
    pub deterministic: bool,
    /// Token/comment scan of the file.
    pub scan: &'a Scan,
}

/// Line ranges (inclusive) covered by `#[cfg(test)] mod … { … }` blocks.
///
/// Matching is token-shaped: the attribute sequence `# [ cfg ( test ) ]`
/// followed (after any further attributes) by `mod <name> {`, with the
/// region extent found by brace counting. Files under `tests/`,
/// `benches/`, and `examples/` never need this — their [`FileKind`]
/// already exempts them.
#[must_use]
pub fn test_regions(scan: &Scan) -> Vec<(u32, u32)> {
    let toks = &scan.tokens;
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // Skip past the attribute, then any further `#[…]` attributes.
            let mut j = i + 7;
            while j < toks.len() && toks[j].kind == TokKind::Punct && toks[j].text == "#" {
                j = skip_attr(toks, j);
            }
            // Expect `mod <name> {` (possibly `pub mod`).
            while j < toks.len() && toks[j].kind == TokKind::Ident && toks[j].text != "mod" {
                j += 1;
                if j - i > 12 {
                    break; // not a test module — e.g. `#[cfg(test)] use …`
                }
            }
            if j < toks.len() && toks[j].text == "mod" {
                // Find the opening brace after the module name.
                let mut k = j + 1;
                while k < toks.len() && !(toks[k].kind == TokKind::Punct && toks[k].text == "{") {
                    if toks[k].kind == TokKind::Punct && toks[k].text == ";" {
                        break; // out-of-line `mod tests;`: treat rest of file as-is
                    }
                    k += 1;
                }
                if k < toks.len() && toks[k].text == "{" {
                    let start_line = toks[i].line;
                    let end = match_brace(toks, k);
                    let end_line = toks.get(end).map_or(u32::MAX, |t| t.line);
                    regions.push((start_line, end_line));
                    i = end.max(i + 1);
                    continue;
                }
            }
        }
        i += 1;
    }
    regions
}

fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    let texts: Vec<&str> = toks[i..].iter().take(7).map(|t| t.text.as_str()).collect();
    texts == ["#", "[", "cfg", "(", "test", ")", "]"]
}

/// Given `toks[i] == "#"` starting an attribute, return the index one
/// past its closing `]`.
fn skip_attr(toks: &[Tok], i: usize) -> usize {
    let mut j = i + 1;
    if j < toks.len() && toks[j].text == "!" {
        j += 1;
    }
    if j >= toks.len() || toks[j].text != "[" {
        return i + 1;
    }
    let mut depth = 0i32;
    while j < toks.len() {
        if toks[j].kind == TokKind::Punct {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    j
}

/// Given `toks[open] == "{"`, return the index of the matching `}`.
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].kind == TokKind::Punct {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

fn in_regions(line: u32, regions: &[(u32, u32)]) -> bool {
    regions.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// Panic-hygiene: no `unwrap`/`expect` calls and no
/// `panic!`/`todo!`/`unimplemented!`/`dbg!`/`assert!`-family macros in
/// non-test library code.
///
/// `lock_chain_sites` are the `(line, col)` positions of
/// `.lock().unwrap()`/`.expect()` tokens already owned by the
/// lock-unwrap rule — skipped here so one token never double-reports.
pub fn panic_hygiene(
    check: &FileCheck<'_>,
    regions: &[(u32, u32)],
    lock_chain_sites: &[(u32, u32)],
    findings: &mut Vec<Finding>,
) {
    if check.kind != FileKind::Lib {
        return;
    }
    const METHODS: [&str; 2] = ["unwrap", "expect"];
    const MACROS: [&str; 7] = [
        "panic",
        "todo",
        "unimplemented",
        "dbg",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    let toks = &check.scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_regions(t.line, regions) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        let name = t.text.as_str();
        if METHODS.contains(&name)
            && prev == Some(".")
            && next == Some("(")
            && !lock_chain_sites.contains(&(t.line, t.col))
        {
            findings.push(Finding {
                rule: Rule::PanicHygiene,
                file: check.rel_path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    ".{name}() can panic at runtime; return a Result/Option, handle the case, or annotate why it cannot fail"
                ),
            });
        } else if MACROS.contains(&name) && next == Some("!") {
            findings.push(Finding {
                rule: Rule::PanicHygiene,
                file: check.rel_path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "{name}! aborts the worker at runtime; return an error, use debug_assert!, or annotate the documented contract"
                ),
            });
        }
    }
}

/// Wall-clock identifiers among the determinism bans. Their only
/// exemption is file-level (`Config::deterministic_exempt_paths`), so
/// they are reported as *hard* findings no allow directive covers.
const WALL_CLOCK: [&str; 3] = ["Instant", "SystemTime", "time"];

/// Determinism: no hash-ordered collections, wall-clock time,
/// environment reads, or thread-identity logic in deterministic crates.
/// Wall-clock reads go to `hard` (see [`crate::engine`]), the rest to
/// `findings`.
pub fn determinism(
    config: &Config,
    check: &FileCheck<'_>,
    regions: &[(u32, u32)],
    findings: &mut Vec<Finding>,
    hard: &mut Vec<Finding>,
) {
    if !check.deterministic || check.kind != FileKind::Lib {
        return;
    }
    let toks = &check.scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_regions(t.line, regions) {
            continue;
        }
        let findings = if WALL_CLOCK.contains(&t.text.as_str()) {
            &mut *hard
        } else {
            &mut *findings
        };
        for (ident, why) in &config.nondeterministic_idents {
            if &t.text == ident {
                findings.push(Finding {
                    rule: Rule::Determinism,
                    file: check.rel_path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!("{ident} in a deterministic crate: {why}"),
                });
            }
        }
        // `prefix::ident` forms, e.g. `std::env`, `thread::current`.
        for (prefix, ident, why) in &config.nondeterministic_paths {
            if &t.text == ident
                && i >= 3
                && toks[i - 1].text == ":"
                && toks[i - 2].text == ":"
                && &toks[i - 3].text == prefix
            {
                findings.push(Finding {
                    rule: Rule::Determinism,
                    file: check.rel_path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!("{prefix}::{ident} in a deterministic crate: {why}"),
                });
            }
        }
    }
}

/// Unsafe-ban: the `unsafe` keyword may not appear anywhere — not even
/// in test code — and cannot be triggered from strings or comments (the
/// lexer already ignores those).
pub fn unsafe_ban(check: &FileCheck<'_>, findings: &mut Vec<Finding>) {
    for t in &check.scan.tokens {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            findings.push(Finding {
                rule: Rule::UnsafeBan,
                file: check.rel_path.to_string(),
                line: t.line,
                col: t.col,
                message: "unsafe is banned workspace-wide (DESIGN.md: no-unsafe core)".to_string(),
            });
        }
    }
}

/// Entry points whose deprecation cycle ended in deletion: `(preceding
/// keyword or "" for any use, identifier)`. They stay deleted — with or
/// without `#[deprecated]`, with or without an allow directive.
const RETIRED: [(&str, &str); 5] = [
    ("", "map_with_faults"),
    ("", "FaultBatchResult"),
    ("", "SimResult"),
    ("fn", "simulate"),
    ("struct", "Client"),
];

/// Deprecation: a `#[deprecated]` attribute may not linger. Workspace
/// policy (DESIGN.md) gives a deprecated shim exactly one PR cycle: the
/// PR after the one that deprecated it deletes it. The attribute is
/// therefore itself a finding — fires in every file kind, tests
/// included — unless an allow directive names the removal plan. Once
/// deleted, a `RETIRED` name coming back is a *hard* finding.
pub fn deprecation(check: &FileCheck<'_>, findings: &mut Vec<Finding>, hard: &mut Vec<Finding>) {
    let toks = &check.scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && RETIRED.iter().any(|&(before, name)| {
                t.text == name && (before.is_empty() || (i >= 1 && toks[i - 1].text == before))
            })
        {
            hard.push(Finding {
                rule: Rule::Deprecation,
                file: check.rel_path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` was deleted when its deprecation cycle ended; use the Batch API \
                     instead of reintroducing it",
                    t.text
                ),
            });
        }
        if t.kind == TokKind::Ident
            && t.text == "deprecated"
            && i >= 2
            && toks[i - 1].text == "["
            && toks[i - 2].text == "#"
        {
            findings.push(Finding {
                rule: Rule::Deprecation,
                file: check.rel_path.to_string(),
                line: t.line,
                col: t.col,
                message: "#[deprecated] outlived its PR cycle; delete the shim and migrate the \
                          callers (DESIGN.md: deprecations last one PR)"
                    .to_string(),
            });
        }
    }
}

/// Error-surface completeness: every `enum` whose name ends in `Error`
/// in non-test library code must have a `Display` impl in the same file
/// covering every variant — either a `Self::Variant` / `Name::Variant`
/// match arm or a `_ =>` wildcard. A variant the Display impl cannot
/// render surfaces as a finding on the enum's declaration line.
pub fn error_display(check: &FileCheck<'_>, regions: &[(u32, u32)], findings: &mut Vec<Finding>) {
    if check.kind != FileKind::Lib {
        return;
    }
    let toks = &check.scan.tokens;
    for (name_idx, variants) in error_enums(toks, regions) {
        let name = &toks[name_idx];
        let Some((body_open, body_close)) = display_impl_body(toks, &name.text) else {
            findings.push(Finding {
                rule: Rule::ErrorDisplay,
                file: check.rel_path.to_string(),
                line: name.line,
                col: name.col,
                message: format!(
                    "{} has no Display impl in this file; operators see error values only \
                     through Display",
                    name.text
                ),
            });
            continue;
        };
        let mut wildcard = false;
        let mut covered: Vec<&str> = Vec::new();
        let mut j = body_open;
        while j < body_close {
            let t = &toks[j];
            if t.kind == TokKind::Ident {
                if t.text == "_"
                    && toks.get(j + 1).is_some_and(|a| a.text == "=")
                    && toks.get(j + 2).is_some_and(|b| b.text == ">")
                {
                    wildcard = true;
                }
                if (t.text == "Self" || t.text == name.text)
                    && toks.get(j + 1).is_some_and(|a| a.text == ":")
                    && toks.get(j + 2).is_some_and(|b| b.text == ":")
                {
                    if let Some(v) = toks.get(j + 3) {
                        if v.kind == TokKind::Ident {
                            covered.push(v.text.as_str());
                        }
                    }
                }
            }
            j += 1;
        }
        if wildcard {
            continue;
        }
        for &vi in &variants {
            let v = &toks[vi];
            if !covered.iter().any(|c| *c == v.text) {
                findings.push(Finding {
                    rule: Rule::ErrorDisplay,
                    file: check.rel_path.to_string(),
                    line: v.line,
                    col: v.col,
                    message: format!(
                        "{}::{} has no Display arm; every error variant must render a message",
                        name.text, v.text
                    ),
                });
            }
        }
    }
}

/// Find `enum <Name>Error { … }` declarations outside test regions.
/// Returns (name token index, variant token indices) per enum.
fn error_enums(toks: &[Tok], regions: &[(u32, u32)]) -> Vec<(usize, Vec<usize>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let is_decl = t.kind == TokKind::Ident
            && t.text == "enum"
            && !in_regions(t.line, regions)
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && n.text.ends_with("Error") && n.text != "Error"
            });
        if !is_decl {
            i += 1;
            continue;
        }
        // Skip generics/where clauses to the enum body.
        let mut k = i + 2;
        while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
            k += 1;
        }
        if k >= toks.len() || toks[k].text != "{" {
            i = k;
            continue;
        }
        let close = match_brace(toks, k);
        // A variant name is an identifier at nesting depth 1 directly
        // followed by `,`, `{`, `(`, `=`, or the closing `}` — field
        // names and payload types sit deeper.
        let mut variants = Vec::new();
        let (mut braces, mut parens, mut brackets) = (0i32, 0i32, 0i32);
        for (j, tok) in toks.iter().enumerate().take(close + 1).skip(k) {
            if tok.kind == TokKind::Punct {
                match tok.text.as_str() {
                    "{" => braces += 1,
                    "}" => braces -= 1,
                    "(" => parens += 1,
                    ")" => parens -= 1,
                    "[" => brackets += 1,
                    "]" => brackets -= 1,
                    _ => {}
                }
                continue;
            }
            if tok.kind == TokKind::Ident && braces == 1 && parens == 0 && brackets == 0 {
                let next = toks.get(j + 1).map(|n| n.text.as_str());
                if matches!(next, Some("," | "{" | "(" | "=" | "}")) {
                    variants.push(j);
                }
            }
        }
        out.push((i + 1, variants));
        i = close + 1;
    }
    out
}

/// Locate `Display for <name>` in the file and return the token range of
/// the impl body (open brace index + matching close).
fn display_impl_body(toks: &[Tok], name: &str) -> Option<(usize, usize)> {
    for j in 0..toks.len() {
        if toks[j].kind == TokKind::Ident
            && toks[j].text == "Display"
            && toks.get(j + 1).is_some_and(|a| a.text == "for")
            && toks.get(j + 2).is_some_and(|b| b.text == name)
        {
            let mut k = j + 3;
            while k < toks.len() && toks[k].text != "{" {
                k += 1;
            }
            if k < toks.len() {
                return Some((k, match_brace(toks, k)));
            }
        }
    }
    None
}

/// Metric-name hygiene: a string literal passed to a telemetry recording
/// call (`.add("…", …)`, `.gauge("…", …)`, `.gauge_at("…", …)`,
/// `.observe("…", …)`) must follow the workspace metric path scheme —
/// two or more `/`-separated segments, each snake_case
/// (`[a-z][a-z0-9_]*`) or a `{placeholder}` for runtime-interpolated
/// names (`node_seconds/{machine}/{stage}`). A flat or CamelCase name
/// fragments the trace vocabulary and breaks `lens --diff` baselines.
/// Dynamic names (variables, `format!`) are out of scope for a token
/// rule and are skipped.
pub fn metric_name(check: &FileCheck<'_>, regions: &[(u32, u32)], findings: &mut Vec<Finding>) {
    if check.kind != FileKind::Lib {
        return;
    }
    const RECORDING_CALLS: [&str; 5] = ["add", "gauge", "gauge_at", "observe", "lineage"];
    let toks = &check.scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !RECORDING_CALLS.contains(&t.text.as_str())
            || in_regions(t.line, regions)
        {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        if prev != Some(".") || next != Some("(") {
            continue;
        }
        let Some(arg) = toks.get(i + 2) else {
            continue;
        };
        if arg.kind != TokKind::Str || valid_metric_name(&arg.text) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::MetricName,
            file: check.rel_path.to_string(),
            line: arg.line,
            col: arg.col,
            message: format!(
                "metric name \"{}\" breaks the area/name scheme: two or more '/'-separated \
                 segments, each snake_case ([a-z][a-z0-9_]*) or a {{placeholder}}",
                arg.text
            ),
        });
    }
}

/// `area/name` path validity: see [`metric_name`].
fn valid_metric_name(name: &str) -> bool {
    let segments: Vec<&str> = name.split('/').collect();
    segments.len() >= 2 && segments.iter().all(|s| valid_metric_segment(s))
}

fn valid_metric_segment(seg: &str) -> bool {
    let inner = seg
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or(seg);
    let mut chars = inner.chars();
    matches!(chars.next(), Some('a'..='z'))
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Crate-root attribute check: `#![forbid(unsafe_code)]` must be present.
pub fn crate_root_forbids_unsafe(check: &FileCheck<'_>, findings: &mut Vec<Finding>) {
    let toks = &check.scan.tokens;
    let has = toks.windows(2).any(|w| {
        w[0].kind == TokKind::Ident && w[0].text == "forbid" && w[1].text == "("
        // Tolerate any argument list containing unsafe_code.
    }) && toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "unsafe_code");
    if !has {
        findings.push(Finding {
            rule: Rule::UnsafeBan,
            file: check.rel_path.to_string(),
            line: 1,
            col: 1,
            message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn lib_check<'a>(scan: &'a Scan, path: &'a str, deterministic: bool) -> FileCheck<'a> {
        FileCheck {
            rel_path: path,
            kind: FileKind::Lib,
            deterministic,
            scan,
        }
    }

    /// Post-process raw findings the way the engine does: add
    /// allow-syntax findings and apply central suppression.
    fn finalize(path: &str, s: &Scan, mut findings: Vec<Finding>) -> Vec<Finding> {
        let regions = test_regions(s);
        let facts = crate::facts::extract(path, "x", FileKind::Lib, s, &regions);
        for (line, msg) in &facts.malformed_allows {
            findings.push(Finding {
                rule: Rule::AllowSyntax,
                file: path.to_string(),
                line: *line,
                col: 1,
                message: msg.clone(),
            });
        }
        crate::suppress::apply(
            findings,
            &[crate::suppress::FileAllows {
                file: path.to_string(),
                allows: facts.allows,
            }],
        )
    }

    fn run_panic(src: &str) -> Vec<Finding> {
        let s = scan(src);
        let check = lib_check(&s, "crates/x/src/lib.rs", false);
        let regions = test_regions(&s);
        let facts = crate::facts::extract(check.rel_path, "x", FileKind::Lib, &s, &regions);
        let sites: Vec<(u32, u32)> = facts.lock_unwraps.iter().map(|u| (u.line, u.col)).collect();
        let mut findings = Vec::new();
        panic_hygiene(&check, &regions, &sites, &mut findings);
        finalize(check.rel_path, &s, findings)
    }

    #[test]
    fn unwrap_in_lib_code_fires() {
        let f = run_panic("pub fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::PanicHygiene);
    }

    #[test]
    fn unwrap_in_cfg_test_mod_is_exempt() {
        let src =
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n fn g(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(run_panic(src).is_empty());
    }

    #[test]
    fn unwrap_in_string_or_comment_does_not_fire() {
        assert!(
            run_panic("// please never unwrap() here\npub const S: &str = \"x.unwrap()\";")
                .is_empty()
        );
    }

    #[test]
    fn allow_on_previous_line_suppresses() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n // sfcheck::allow(panic-hygiene, checked by caller)\n x.unwrap()\n}";
        assert!(run_panic(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_its_own_finding() {
        let src = "pub fn f() {}\n// sfcheck::allow(panic-hygiene)\n";
        let f = run_panic(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::AllowSyntax);
    }

    #[test]
    fn unwrap_or_else_is_not_a_finding() {
        assert!(run_panic("pub fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }").is_empty());
    }

    #[test]
    fn lock_unwrap_is_owned_by_the_lock_unwrap_rule() {
        // `.lock().unwrap()` is lock-unwrap's finding, not panic-hygiene's;
        // the unwrap on the *other* line still fires here.
        let f = run_panic(
            "pub fn f(m: &std::sync::Mutex<u8>, x: Option<u8>) -> u8 {\n\
             *m.lock().unwrap() + x.unwrap()\n}",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].col, 24, "only the Option unwrap: {f:?}");
    }

    #[test]
    fn panic_macro_fires_but_debug_assert_does_not() {
        let f = run_panic(
            "pub fn f(n: usize) { debug_assert!(n > 0); if n == 7 { panic!(\"seven\") } }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.starts_with("panic!"));
    }

    fn run_det(src: &str, deterministic: bool) -> Vec<Finding> {
        let s = scan(src);
        let check = lib_check(&s, "crates/msa/src/x.rs", deterministic);
        let regions = test_regions(&s);
        let (mut findings, mut hard) = (Vec::new(), Vec::new());
        determinism(
            &Config::workspace_default(),
            &check,
            &regions,
            &mut findings,
            &mut hard,
        );
        let mut kept = finalize(check.rel_path, &s, findings);
        kept.extend(hard);
        kept
    }

    #[test]
    fn hashmap_in_deterministic_crate_fires() {
        let f = run_det("use std::collections::HashMap;", true);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Determinism);
        assert!(f[0].message.contains("BTreeMap"));
    }

    #[test]
    fn hashmap_outside_deterministic_set_is_fine() {
        assert!(run_det("use std::collections::HashMap;", false).is_empty());
    }

    #[test]
    fn std_env_and_thread_current_fire() {
        let f = run_det("pub fn f() { let _ = std::env::var(\"X\"); }", true);
        assert_eq!(f.len(), 1);
        let f = run_det(
            "pub fn g() -> std::thread::ThreadId { std::thread::current().id() }",
            true,
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn env_ident_alone_does_not_fire() {
        // A local named `env` is not `std::env`.
        assert!(run_det("pub fn f(env: u32) -> u32 { env }", true).is_empty());
    }

    #[test]
    fn determinism_allow_suppresses() {
        let src = "// sfcheck::allow(determinism, build-only map, iterated via sorted keys)\nuse std::collections::HashMap;";
        assert!(run_det(src, true).is_empty());
    }

    #[test]
    fn wall_clock_has_no_per_line_escape_hatch() {
        // The allow covers nothing: the read still fires and the
        // directive itself is reported stale.
        let src = "// sfcheck::allow(determinism, just this once)\nuse std::time::Instant;";
        let f = run_det(src, true);
        let mut rules: Vec<Rule> = f.iter().map(|f| f.rule).collect();
        rules.sort();
        assert_eq!(
            rules,
            vec![Rule::Determinism, Rule::Determinism, Rule::AllowAudit],
            "{f:?}"
        );
    }

    fn run_unsafe(src: &str) -> Vec<Finding> {
        let s = scan(src);
        let check = lib_check(&s, "crates/x/src/lib.rs", false);
        let mut findings = Vec::new();
        unsafe_ban(&check, &mut findings);
        finalize(check.rel_path, &s, findings)
    }

    #[test]
    fn unsafe_token_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { unsafe { std::hint::unreachable_unchecked() } }\n}";
        assert_eq!(run_unsafe(src).len(), 1);
    }

    #[test]
    fn unsafe_in_comment_or_string_is_fine() {
        assert!(
            run_unsafe("// unsafe is discussed here\npub const S: &str = \"unsafe\";").is_empty()
        );
    }

    fn run_deprecation(src: &str) -> Vec<Finding> {
        let s = scan(src);
        let check = lib_check(&s, "crates/x/src/lib.rs", false);
        let (mut findings, mut hard) = (Vec::new(), Vec::new());
        deprecation(&check, &mut findings, &mut hard);
        let mut kept = finalize(check.rel_path, &s, findings);
        kept.extend(hard);
        kept
    }

    #[test]
    fn deprecated_attribute_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n #[deprecated(note = \"use new\")]\n fn old() {}\n}";
        let f = run_deprecation(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Deprecation);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn deprecated_in_string_or_comment_is_fine() {
        assert!(run_deprecation(
            "// the #[deprecated] era is over\npub const S: &str = \"#[deprecated]\";"
        )
        .is_empty());
    }

    #[test]
    fn retired_entry_points_stay_deleted_even_under_an_allow() {
        let src = "// sfcheck::allow(deprecated, just a shim)\npub fn map_with_faults() {}\n\
                   pub fn simulate() {}\npub struct Client;\npub fn simulate_more(c: Client) {}";
        let f = run_deprecation(src);
        let hits: Vec<u32> = f
            .iter()
            .filter(|f| f.rule == Rule::Deprecation)
            .map(|f| f.line)
            .collect();
        assert_eq!(
            hits,
            vec![2, 3, 4],
            "uses of `Client` and `simulate_more` pass"
        );
        assert!(f.iter().any(|f| f.rule == Rule::AllowAudit), "{f:?}");
    }

    #[test]
    fn deprecation_allow_with_reason_suppresses() {
        let src = "// sfcheck::allow(deprecated, removed in the next PR, tracked in ROADMAP.md)\n#[deprecated]\npub fn old() {}";
        assert!(run_deprecation(src).is_empty());
    }

    fn run_error_display(src: &str) -> Vec<Finding> {
        let s = scan(src);
        let check = lib_check(&s, "crates/x/src/lib.rs", false);
        let regions = test_regions(&s);
        let mut findings = Vec::new();
        error_display(&check, &regions, &mut findings);
        finalize(check.rel_path, &s, findings)
    }

    #[test]
    fn error_variant_without_display_arm_fires() {
        let src = "pub enum IoError { Missing, Torn { line: usize } }\n\
                   impl std::fmt::Display for IoError {\n\
                   fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
                   match self { Self::Missing => write!(f, \"missing\") }\n} }";
        let f = run_error_display(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::ErrorDisplay);
        assert!(f[0].message.contains("IoError::Torn"), "{}", f[0].message);
    }

    #[test]
    fn full_and_wildcard_display_coverage_pass() {
        let full = "pub enum IoError { Missing, Torn(usize) }\n\
                    impl std::fmt::Display for IoError {\n\
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
                    match self { IoError::Missing => write!(f, \"m\"), IoError::Torn(n) => write!(f, \"{n}\") }\n} }";
        assert!(run_error_display(full).is_empty());
        let wild = "pub enum IoError { Missing, Torn }\n\
                    impl std::fmt::Display for IoError {\n\
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
                    match self { Self::Missing => write!(f, \"m\"), _ => write!(f, \"?\") }\n} }";
        assert!(run_error_display(wild).is_empty());
    }

    #[test]
    fn display_less_error_enum_fires_once() {
        let f = run_error_display("pub enum ParseError { Bad }\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no Display impl"), "{}", f[0].message);
    }

    #[test]
    fn error_display_ignores_structs_tests_and_non_error_enums() {
        assert!(run_error_display("pub struct IoError { pub line: usize }\n").is_empty());
        assert!(run_error_display("pub enum Mode { Fast, Slow }\n").is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n pub enum FakeError { Oops }\n fn f() {}\n}\n";
        assert!(run_error_display(in_tests).is_empty());
    }

    #[test]
    fn error_display_allow_suppresses() {
        let src = "// sfcheck::allow(error-display, rendered via Debug in the test harness only)\n\
                   pub enum ProbeError { Odd }\n";
        assert!(run_error_display(src).is_empty());
    }

    fn run_metric(src: &str) -> Vec<Finding> {
        let s = scan(src);
        let check = lib_check(&s, "crates/x/src/lib.rs", false);
        let regions = test_regions(&s);
        let mut findings = Vec::new();
        metric_name(&check, &regions, &mut findings);
        finalize(check.rel_path, &s, findings)
    }

    #[test]
    fn conforming_metric_names_pass() {
        let src = r#"pub fn f(rec: &Recorder) {
            rec.add("dataflow/retries", 1.0);
            rec.gauge("monitor/eta_s", 4.0);
            rec.gauge_at("monitor/done", 3.0, 0.5);
            rec.observe("infer/recycles", 3.0);
            rec.add(&format!("node_seconds/{m}/{s}"), 1.0);
        }"#;
        assert!(run_metric(src).is_empty());
    }

    #[test]
    fn placeholder_segments_are_legal() {
        assert!(
            run_metric(r#"pub fn f(r: &R) { r.add("node_seconds/{machine}/{stage}", 1.0); }"#)
                .is_empty()
        );
    }

    #[test]
    fn flat_camelcase_and_empty_segment_names_fire() {
        for bad in ["retries", "Dataflow/Retries", "dataflow//x", "dataflow/x-y"] {
            let src = format!("pub fn f(r: &R) {{ r.add(\"{bad}\", 1.0); }}");
            let f = run_metric(&src);
            assert_eq!(f.len(), 1, "{bad} should fire");
            assert_eq!(f[0].rule, Rule::MetricName);
            assert!(f[0].message.contains(bad), "{}", f[0].message);
        }
    }

    #[test]
    fn non_recorder_adds_and_dynamic_names_are_skipped() {
        // `.add(` with a non-string first argument, a bare `add(...)`
        // call, and test-region usage are all out of scope.
        assert!(run_metric("pub fn f(s: &mut S, n: f64) { s.add(n, 1.0); }").is_empty());
        assert!(run_metric("pub fn f() { add(\"whatever\", 1.0); }").is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n fn f(r: &R) { r.add(\"BadName\", 1.0); }\n}\n";
        assert!(run_metric(in_tests).is_empty());
    }

    #[test]
    fn metric_name_allow_suppresses() {
        let src = "pub fn f(r: &R) {\n // sfcheck::allow(metric-name, legacy external dashboard key)\n r.add(\"LegacyKey\", 1.0);\n}";
        assert!(run_metric(src).is_empty());
    }

    #[test]
    fn crate_root_attr_detection() {
        let with = scan("#![forbid(unsafe_code)]\npub fn f() {}");
        let without = scan("pub fn f() {}");
        let mut findings = Vec::new();
        crate_root_forbids_unsafe(
            &lib_check(&with, "crates/x/src/lib.rs", false),
            &mut findings,
        );
        assert!(findings.is_empty());
        crate_root_forbids_unsafe(
            &lib_check(&without, "crates/x/src/lib.rs", false),
            &mut findings,
        );
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn test_region_detection_brace_matching() {
        let src = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n mod inner { fn b() {} }\n}\npub fn c() {}\n";
        let s = scan(src);
        let r = test_regions(&s);
        assert_eq!(r.len(), 1);
        assert!(r[0].0 <= 3 && r[0].1 >= 5, "{r:?}");
    }
}
