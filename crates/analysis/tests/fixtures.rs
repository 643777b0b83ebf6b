//! End-to-end fixture tests: build a miniature workspace on disk, run
//! [`check_workspace_with`] over it, and assert that each rule fires on a
//! bad fixture, stays silent on an allowed one, and never false-positives
//! on banned tokens appearing in strings or comments.

// Fixture helpers run outside #[test] fns, where clippy's
// allow-unwrap-in-tests does not reach; panicking on setup I/O is the
// right behaviour here.
#![allow(clippy::unwrap_used)]

use std::fs;
use std::path::PathBuf;
use summitfold_analysis::{check_workspace_with, Config, Finding, Rule};

/// Root manifest shared by every fixture workspace.
const ROOT_MANIFEST: &str = "[workspace]\nmembers = [\"crates/det\"]\n";

/// Member manifest with no dependencies.
const DET_MANIFEST: &str = "[package]\nname = \"det\"\nversion = \"0.0.0\"\n";

/// Crate-root preamble satisfying the unsafe rule.
const FORBID: &str = "#![forbid(unsafe_code)]\n";

/// Write a fixture workspace under the test temp dir and return its root.
///
/// `name` must be unique per test: fixtures are rebuilt from scratch on
/// every run so stale state cannot leak between tests or runs.
fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("sfcheck-fixture-{}-{name}", std::process::id()));
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    for (rel, content) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
    }
    root
}

/// Workspace policy pointed at the fixture layout: the `det` crate is the
/// deterministic set.
fn det_config() -> Config {
    let mut cfg = Config::workspace_default();
    cfg.deterministic_crates = vec!["det".to_string()];
    cfg.deterministic_exempt_paths = vec!["crates/det/src/exempt.rs".to_string()];
    cfg
}

/// Run the checker over a fixture made of (path, contents) pairs.
fn check(name: &str, files: &[(&str, &str)]) -> Vec<Finding> {
    check_with(name, files, &det_config())
}

/// Like [`check`], with an explicit config (workspace-flow rules need
/// fixture-specific exemption and pairing tweaks).
fn check_with(name: &str, files: &[(&str, &str)], cfg: &Config) -> Vec<Finding> {
    let root = fixture(name, files);
    let findings = check_workspace_with(&root, cfg).unwrap();
    fs::remove_dir_all(&root).ok();
    findings
}

fn rules(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn clean_workspace_has_no_findings() {
    let findings = check(
        "clean",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            (
                "crates/det/src/lib.rs",
                "#![forbid(unsafe_code)]\n//! Fixture.\npub fn f(x: u32) -> u32 { x + 1 }\n",
            ),
        ],
    );
    assert!(findings.is_empty(), "expected clean, got: {findings:?}");
}

#[test]
fn determinism_fires_on_hashmap_in_deterministic_crate() {
    let src = format!(
        "{FORBID}use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> {{ HashMap::new() }}\n"
    );
    let findings = check(
        "det-hashmap",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", &src),
        ],
    );
    assert!(
        findings.iter().any(|f| f.rule == Rule::Determinism
            && f.file == "crates/det/src/lib.rs"
            && f.message.contains("HashMap")),
        "expected a determinism finding, got: {findings:?}"
    );
    // Three uses of the ident, three span-accurate findings.
    assert_eq!(rules(&findings), vec![Rule::Determinism; 3]);
}

#[test]
fn determinism_allow_suppresses_the_finding() {
    let src = format!(
        "{FORBID}pub fn f() -> usize {{\n    // sfcheck::allow(determinism, fixture exercises the escape hatch)\n    std::collections::HashMap::<u8, u8>::new().len()\n}}\n"
    );
    let findings = check(
        "det-allow",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", &src),
        ],
    );
    assert!(
        findings.is_empty(),
        "allow directives should suppress: {findings:?}"
    );
}

#[test]
fn determinism_skips_exempt_paths_and_test_files() {
    let exempt = format!(
        "{}pub fn t() -> std::time::Instant {{ std::time::Instant::now() }}\n",
        "//! Exempt executor.\n"
    );
    let test_file =
        "use std::collections::HashMap;\n#[test]\nfn t() { let _ = HashMap::<u32, u32>::new(); }\n";
    let findings = check(
        "det-exempt",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            (
                "crates/det/src/lib.rs",
                "#![forbid(unsafe_code)]\nmod exempt;\npub fn f() {}\n",
            ),
            ("crates/det/src/exempt.rs", &exempt),
            ("crates/det/tests/integration.rs", test_file),
        ],
    );
    assert!(
        findings.is_empty(),
        "exempt paths and tests/ files are outside the deterministic set: {findings:?}"
    );
}

#[test]
fn banned_tokens_in_strings_and_comments_do_not_fire() {
    let src = concat!(
        "#![forbid(unsafe_code)]\n",
        "// A comment may discuss HashMap, Instant, unwrap() and unsafe freely.\n",
        "/// Docs may too: never call `.unwrap()` on a `HashMap` lookup.\n",
        "pub fn describe() -> &'static str {\n",
        "    \"HashMap iteration order; foo.unwrap(); unsafe { }; panic!(now)\"\n",
        "}\n",
    );
    let findings = check(
        "strings-comments",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", src),
        ],
    );
    assert!(
        findings.is_empty(),
        "strings/comments must not fire: {findings:?}"
    );
}

#[test]
fn panic_hygiene_fires_on_unwrap_and_respects_allow() {
    let src = concat!(
        "#![forbid(unsafe_code)]\n",
        "pub fn bad(x: Option<u32>) -> u32 { x.unwrap() }\n",
        "pub fn ok(x: Option<u32>) -> u32 {\n",
        "    // sfcheck::allow(panic-hygiene, fixture: caller guarantees Some)\n",
        "    x.expect(\"fixture\")\n",
        "}\n",
        "pub fn ok2(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    );
    let findings = check(
        "panic-unwrap",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", src),
        ],
    );
    assert_eq!(
        rules(&findings),
        vec![Rule::PanicHygiene],
        "got: {findings:?}"
    );
    assert_eq!(findings[0].line, 2);
    assert!(findings[0].message.contains("unwrap"));
}

#[test]
fn panic_hygiene_ignores_cfg_test_modules() {
    let src = concat!(
        "#![forbid(unsafe_code)]\n",
        "pub fn f() {}\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { assert_eq!(Some(1).unwrap(), 1); }\n",
        "}\n",
    );
    let findings = check(
        "panic-cfg-test",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", src),
        ],
    );
    assert!(findings.is_empty(), "test modules are exempt: {findings:?}");
}

#[test]
fn unsafe_rule_fires_on_token_and_missing_forbid() {
    let src = "//! No forbid attribute here.\npub unsafe fn f() {}\n";
    let findings = check(
        "unsafe-both",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", src),
        ],
    );
    let got = rules(&findings);
    assert!(
        got.contains(&Rule::UnsafeBan) && got.len() == 2,
        "expected unsafe-token + missing-forbid findings, got: {findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("forbid")));
}

#[test]
fn manifest_audit_flags_dead_dependency() {
    let manifest =
        "[package]\nname = \"det\"\n\n[dependencies]\nleftover = { path = \"../leftover\" }\n";
    let findings = check(
        "manifest-dead",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", manifest),
            (
                "crates/det/src/lib.rs",
                "#![forbid(unsafe_code)]\n//! Fixture.\npub fn f() {}\n",
            ),
        ],
    );
    assert_eq!(rules(&findings), vec![Rule::Manifest], "got: {findings:?}");
    assert!(findings[0].message.contains("leftover"));
    assert_eq!(findings[0].file, "crates/det/Cargo.toml");
}

#[test]
fn manifest_audit_accepts_referenced_dependency() {
    let manifest =
        "[package]\nname = \"det\"\n\n[dependencies]\nsome-dep = { path = \"../some-dep\" }\n";
    let findings = check(
        "manifest-live",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", manifest),
            (
                "crates/det/src/lib.rs",
                "#![forbid(unsafe_code)]\n//! Fixture.\npub use some_dep as _;\npub fn f() {}\n",
            ),
        ],
    );
    assert!(
        findings.is_empty(),
        "referenced dep must pass: {findings:?}"
    );
}

#[test]
fn workspace_dependency_audit_flags_unconsumed_entry() {
    let root_manifest = concat!(
        "[workspace]\nmembers = [\"crates/det\"]\n\n",
        "[workspace.dependencies]\nghost = \"1\"\n",
    );
    let findings = check(
        "workspace-dead",
        &[
            ("Cargo.toml", root_manifest),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            (
                "crates/det/src/lib.rs",
                "#![forbid(unsafe_code)]\n//! Fixture.\npub fn f() {}\n",
            ),
        ],
    );
    assert_eq!(rules(&findings), vec![Rule::Manifest], "got: {findings:?}");
    assert!(findings[0].message.contains("ghost"));
    assert_eq!(findings[0].file, "Cargo.toml");
}

// ---- v2 workspace-flow rules ----------------------------------------

/// Two files of one crate locking `a`/`b` in opposite orders.
const ORDER_AB: &str = "pub fn ab(a: &std::sync::Mutex<u8>, b: &std::sync::Mutex<u8>) {\n    \
                        let g = lock(a);\n    let h = lock(b);\n    let _ = (g, h);\n}\n";
const ORDER_BA: &str = "pub fn ba(a: &std::sync::Mutex<u8>, b: &std::sync::Mutex<u8>) {\n    \
                        let h = lock(b);\n    let g = lock(a);\n    let _ = (g, h);\n}\n";

#[test]
fn lock_discipline_cycle_fires_across_files() {
    let findings = check(
        "lock-cycle",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            (
                "crates/det/src/lib.rs",
                "#![forbid(unsafe_code)]\n//! Fixture.\nmod one;\nmod two;\n",
            ),
            ("crates/det/src/one.rs", ORDER_AB),
            ("crates/det/src/two.rs", ORDER_BA),
        ],
    );
    assert_eq!(
        rules(&findings),
        vec![Rule::LockDiscipline],
        "got: {findings:?}"
    );
    assert!(findings[0].message.contains("lock-order cycle"));
    assert!(
        findings[0].message.contains("det/a") && findings[0].message.contains("det/b"),
        "cycle names crate-qualified mutexes: {}",
        findings[0].message
    );
    // Attributed to the smallest participating acquisition site so a
    // line-level allow can cover it.
    assert_eq!(findings[0].file, "crates/det/src/one.rs");
    assert_eq!(findings[0].line, 3);
}

#[test]
fn lock_discipline_cycle_allow_suppresses() {
    // Same cycle, with an allow directly above the attributed site.
    let allowed_ab = ORDER_AB.replace(
        "    let h = lock(b);",
        "    // sfcheck::allow(lock-discipline, fixture: order pinned by a documented protocol)\n    \
         let h = lock(b);",
    );
    let findings = check(
        "lock-cycle-allow",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            (
                "crates/det/src/lib.rs",
                "#![forbid(unsafe_code)]\n//! Fixture.\nmod one;\nmod two;\n",
            ),
            ("crates/det/src/one.rs", &allowed_ab),
            ("crates/det/src/two.rs", ORDER_BA),
        ],
    );
    assert!(findings.is_empty(), "allow must suppress: {findings:?}");
}

#[test]
fn lock_discipline_guard_across_join_fires_and_drop_releases() {
    let bad = "pub fn bad(a: &std::sync::Mutex<u8>, h: std::thread::JoinHandle<()>) {\n    \
               let g = lock(a);\n    let _ = h.join();\n    let _ = g;\n}\n";
    let good = "pub fn good(a: &std::sync::Mutex<u8>, h: std::thread::JoinHandle<()>) {\n    \
                let g = lock(a);\n    drop(g);\n    let _ = h.join();\n}\n";
    let findings = check(
        "lock-join",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            (
                "crates/det/src/lib.rs",
                "#![forbid(unsafe_code)]\n//! Fixture.\nmod one;\nmod two;\n",
            ),
            ("crates/det/src/one.rs", bad),
            ("crates/det/src/two.rs", good),
        ],
    );
    assert_eq!(
        rules(&findings),
        vec![Rule::LockDiscipline],
        "got: {findings:?}"
    );
    assert_eq!(findings[0].file, "crates/det/src/one.rs");
    assert!(
        findings[0].message.contains("thread join"),
        "{}",
        findings[0].message
    );
}

#[test]
fn lock_unwrap_fires_once_and_sanctioned_recovery_is_clean() {
    let src = concat!(
        "#![forbid(unsafe_code)]\n",
        "//! Fixture.\n",
        "pub fn bad(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap() }\n",
        "pub fn good(m: &std::sync::Mutex<u8>) -> u8 {\n",
        "    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n",
        "}\n",
    );
    let findings = check(
        "lock-unwrap",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", src),
        ],
    );
    // Exactly one finding: lock-unwrap owns the site, panic-hygiene
    // must not double-report it.
    assert_eq!(
        rules(&findings),
        vec![Rule::LockUnwrap],
        "got: {findings:?}"
    );
    assert_eq!(findings[0].line, 3);
    assert!(findings[0].message.contains("PoisonError::into_inner"));
}

#[test]
fn lock_unwrap_allow_suppresses() {
    let src = concat!(
        "#![forbid(unsafe_code)]\n",
        "//! Fixture.\n",
        "// sfcheck::allow(lock-unwrap, fixture: poison is unreachable, lock scope is panic-free)\n",
        "pub fn bad(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap() }\n",
    );
    let findings = check(
        "lock-unwrap-allow",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", src),
        ],
    );
    assert!(findings.is_empty(), "allow must suppress: {findings:?}");
}

/// Manifest for the executor fixtures.
const DF_MANIFEST: &str = "[package]\nname = \"dataflow\"\nversion = \"0.0.0\"\n";
const DF_ROOT: &str = "[workspace]\nmembers = [\"crates/dataflow\"]\n";

#[test]
fn hard_findings_ignore_allow_directives() {
    // Metric ownership and wall-clock reads are exempted per file in
    // the config, never per line: the violation still fires and the
    // directive aimed at it is reported as suppressing nothing.
    let backend = "//! Fixture real executor.\npub fn run(r: &Recorder) {\n    \
                   // sfcheck::allow(metric-parity, fixture: real-only counter)\n    \
                   r.add(\"dataflow/real_only\", 1.0);\n}\n\
                   // sfcheck::allow(determinism, fixture: just this once)\n\
                   pub fn now() -> std::time::Duration { std::time::Duration::ZERO }\n";
    let owner = "//! Fixture skeleton.\npub fn finish(r: &Recorder) {\n    \
                 r.add(\"dataflow/retries\", 1.0);\n}\n";
    let mut cfg = Config::workspace_default();
    cfg.deterministic_exempt_paths.clear();
    let findings = check_with(
        "hard-findings",
        &[
            ("Cargo.toml", DF_ROOT),
            ("crates/dataflow/Cargo.toml", DF_MANIFEST),
            (
                "crates/dataflow/src/lib.rs",
                "#![forbid(unsafe_code)]\n//! Fixture.\nmod exec;\nmod real;\n",
            ),
            ("crates/dataflow/src/exec.rs", owner),
            ("crates/dataflow/src/real.rs", backend),
        ],
        &cfg,
    );
    let mut got = rules(&findings);
    got.sort();
    assert_eq!(
        got,
        vec![
            Rule::Determinism,
            Rule::Determinism,
            Rule::MetricParity,
            Rule::AllowAudit,
            Rule::AllowAudit
        ],
        "got: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.file.ends_with("real.rs")));
    let owned = findings
        .iter()
        .find(|f| f.rule == Rule::MetricParity)
        .unwrap();
    assert!(owned.message.contains("dataflow/real_only"));
    assert!(owned
        .message
        .contains("owned by crates/dataflow/src/exec.rs"));
}

#[test]
fn stale_allow_is_reported_and_audit_allow_covers_it() {
    let stale = concat!(
        "#![forbid(unsafe_code)]\n",
        "//! Fixture.\n",
        "// sfcheck::allow(panic-hygiene, nothing here panics any more)\n",
        "pub fn f(x: u32) -> u32 { x + 1 }\n",
    );
    let findings = check(
        "stale-allow",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", stale),
        ],
    );
    assert_eq!(
        rules(&findings),
        vec![Rule::AllowAudit],
        "got: {findings:?}"
    );
    assert_eq!(findings[0].line, 3);
    assert!(findings[0].message.contains("suppresses nothing"));

    let kept = concat!(
        "#![forbid(unsafe_code)]\n",
        "//! Fixture.\n",
        "// sfcheck::allow(allow-audit, kept across the refactor on purpose)\n",
        "// sfcheck::allow(panic-hygiene, nothing here panics any more)\n",
        "pub fn f(x: u32) -> u32 { x + 1 }\n",
    );
    let findings = check(
        "stale-allow-covered",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", kept),
        ],
    );
    assert!(findings.is_empty(), "audit allow must cover: {findings:?}");
}

/// The coverage proof demanded by the acceptance criteria: the rule set
/// that passes the shipped `real.rs` is not vacuous. A scratch copy of
/// the genuine executor source, with the lock-discipline exemption list
/// cleared and two `lock(…)` calls reordered into opposite acquisition
/// orders, must produce a cycle finding naming `queue` and `registered`.
#[test]
fn reordered_real_executor_produces_a_cycle_finding() {
    let real_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../crates/dataflow/src/real.rs");
    let pristine = fs::read_to_string(&real_path).unwrap();
    let mut cfg = Config::workspace_default();
    cfg.lock_discipline_exempt_paths.clear();

    // Control: the unpatched executor is clean even with no exemptions.
    let findings = check_with(
        "real-pristine",
        &[
            ("Cargo.toml", DF_ROOT),
            ("crates/dataflow/Cargo.toml", DF_MANIFEST),
            ("crates/dataflow/src/real.rs", &pristine),
        ],
        &cfg,
    );
    assert!(
        findings.is_empty(),
        "pristine real.rs must be clean: {findings:?}"
    );

    // Frozen-lane registration takes `registered` then `queue`; the
    // live drain takes `queue` then `registered`. Tight blocks keep
    // the injected guards from leaking into the surrounding scopes.
    let patched = pristine.replacen(
        "lock(registered).push(worker_id);",
        "{ let mut _reg = lock(registered); _reg.push(worker_id); let _q = lock(queue); }",
        1,
    );
    assert_ne!(patched, pristine, "first patch target missing from real.rs");
    let patched2 = patched.replacen(
        "lock(registered).push(worker_id);",
        "{ let mut _q = lock(queue); lock(registered).push(worker_id); }",
        1,
    );
    assert_ne!(
        patched2, patched,
        "second patch target missing from real.rs"
    );

    let findings = check_with(
        "real-reordered",
        &[
            ("Cargo.toml", DF_ROOT),
            ("crates/dataflow/Cargo.toml", DF_MANIFEST),
            ("crates/dataflow/src/real.rs", &patched2),
        ],
        &cfg,
    );
    let cycle = findings
        .iter()
        .find(|f| f.rule == Rule::LockDiscipline && f.message.contains("lock-order cycle"));
    let Some(cycle) = cycle else {
        panic!("expected a lock-order cycle finding, got: {findings:?}");
    };
    assert!(
        cycle.message.contains("dataflow/queue") && cycle.message.contains("dataflow/registered"),
        "cycle names the reordered mutexes: {}",
        cycle.message
    );
    assert_eq!(cycle.file, "crates/dataflow/src/real.rs");
}

#[test]
fn malformed_allow_is_itself_a_finding() {
    let src = concat!(
        "#![forbid(unsafe_code)]\n",
        "// sfcheck::allow(panic-hygiene)\n",
        "pub fn f() {}\n",
        "// sfcheck::allow(made-up-rule, with a reason)\n",
        "pub fn g() {}\n",
    );
    let findings = check(
        "allow-syntax",
        &[
            ("Cargo.toml", ROOT_MANIFEST),
            ("crates/det/Cargo.toml", DET_MANIFEST),
            ("crates/det/src/lib.rs", src),
        ],
    );
    assert_eq!(
        rules(&findings),
        vec![Rule::AllowSyntax, Rule::AllowSyntax],
        "got: {findings:?}"
    );
}
