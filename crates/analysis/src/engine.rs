//! Workspace discovery, manifest parsing, and rule orchestration.
//!
//! [`check_workspace`] is the single entry point used by both the
//! `sfcheck` binary and the root `tests/static_analysis.rs` gate. v2
//! runs in two phases:
//!
//! 1. **Facts** — each `.rs` file is scanned once ([`crate::lexer`]) and
//!    reduced to a [`FileFacts`] record (lock sites with guard scopes,
//!    lock-order edges, guard crossings, metric paths, allow
//!    directives), while the per-file rule passes ([`crate::rules`])
//!    emit findings *unsuppressed*.
//! 2. **Workspace rules** — [`crate::wsrules`] scores the merged facts
//!    (lock-discipline cycles, lock-unwrap, metric ownership), manifests
//!    are audited for dead dependencies, and [`crate::suppress::apply`]
//!    applies every `sfcheck::allow` centrally — which is what lets the
//!    allow-audit rule report directives that suppress nothing. *Hard*
//!    findings skip that step: wall-clock reads, metric ownership and
//!    retired entry points are exempted per file in [`Config`] (pinned
//!    by its unit tests), never per line.

use crate::config::{Config, FileKind};
use crate::facts::{extract, FileFacts};
use crate::lexer::{scan, Scan, TokKind};
use crate::report::{Finding, Rule};
use crate::rules::{
    crate_root_forbids_unsafe, deprecation, determinism, error_display, metric_name, panic_hygiene,
    test_regions, unsafe_ban, FileCheck,
};
use crate::suppress::{self, FileAllows};
use crate::wsrules;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Failure to read the workspace itself (not a lint finding).
#[derive(Debug)]
pub struct CheckError {
    /// Path the filesystem operation failed on.
    pub path: PathBuf,
    /// Underlying I/O error.
    pub source: std::io::Error,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sfcheck: cannot read {}: {}",
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for CheckError {}

/// One dependency declaration inside a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dep {
    /// Declared package name (as written, possibly with `-`).
    pub name: String,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// The slice of a `Cargo.toml` the manifest audit needs.
///
/// This is a deliberately small line-oriented reader, not a TOML parser:
/// it tracks `[section]` headers and collects the keys of dependency
/// sections. Inline tables spanning multiple lines are not understood —
/// the workspace does not use them.
#[derive(Debug, Default)]
pub struct Manifest {
    /// `[package] name`, when present.
    pub package_name: Option<String>,
    /// Keys of `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`.
    pub deps: Vec<Dep>,
    /// Keys of `[workspace.dependencies]`.
    pub workspace_deps: Vec<Dep>,
}

/// Parse manifest text.
#[must_use]
pub fn parse_manifest(text: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        #[allow(clippy::cast_possible_truncation)]
        let lineno = (idx + 1) as u32;
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header.trim().trim_matches('"').to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key
            .trim()
            .split('.')
            .next()
            .unwrap_or_default()
            .trim_matches('"')
            .to_string();
        if key.is_empty() {
            continue;
        }
        match section.as_str() {
            "package" if key == "name" => {
                m.package_name = Some(value.trim().trim_matches('"').to_string());
            }
            "dependencies" | "dev-dependencies" | "build-dependencies" => {
                m.deps.push(Dep {
                    name: key,
                    line: lineno,
                });
            }
            "workspace.dependencies" => {
                m.workspace_deps.push(Dep {
                    name: key,
                    line: lineno,
                });
            }
            _ => {}
        }
    }
    m
}

/// Everything known about one workspace member.
struct Member {
    /// Directory name under `crates/` (empty string for the root package).
    dir_name: String,
    /// Workspace-relative manifest path.
    manifest_rel: String,
    /// Parsed manifest.
    manifest: Manifest,
    /// Workspace-relative `.rs` files with their token scans.
    files: Vec<(String, Scan)>,
    /// Every identifier appearing in this member's source (for the
    /// manifest audit).
    idents: BTreeSet<String>,
}

/// Run every rule over the workspace rooted at `root`.
///
/// Returns the unsuppressed findings; an empty vector means the
/// workspace is clean. Errors only when the workspace itself cannot be
/// read.
pub fn check_workspace(root: &Path) -> Result<Vec<Finding>, CheckError> {
    check_workspace_with(root, &Config::workspace_default())
}

/// [`check_workspace`] with an explicit [`Config`] (used by fixtures).
pub fn check_workspace_with(root: &Path, config: &Config) -> Result<Vec<Finding>, CheckError> {
    let mut findings = Vec::new();
    // Findings whose only exemption is a file-level `Config` entry
    // (wall-clock reads, metric ownership, retired names): they bypass
    // suppression, and a directive aimed at one is reported stale.
    let mut hard = Vec::new();
    let members = discover_members(root)?;

    // Phase 1: per-file facts + unsuppressed per-file rule findings.
    let mut facts: Vec<FileFacts> = Vec::new();
    for member in &members {
        for (rel, scanned) in &member.files {
            facts.push(check_file(
                member,
                rel,
                scanned,
                config,
                &mut findings,
                &mut hard,
            ));
        }
        audit_member_manifest(member, &mut findings);
    }
    audit_workspace_deps(&members, &mut findings);

    // Phase 2: workspace rules over the merged facts.
    wsrules::lock_discipline(config, &facts, &mut findings);
    wsrules::lock_unwrap(&facts, &mut findings);
    wsrules::metric_ownership(config, &facts, &mut hard);

    // Central suppression + allow-audit.
    let allow_files: Vec<FileAllows> = facts
        .iter()
        .map(|f| FileAllows {
            file: f.rel_path.clone(),
            allows: f.allows.clone(),
        })
        .collect();
    let mut kept = suppress::apply(findings, &allow_files);
    kept.extend(hard);
    Ok(kept)
}

fn read(root: &Path, rel: &str) -> Result<String, CheckError> {
    let path = root.join(rel);
    fs::read_to_string(&path).map_err(|source| CheckError { path, source })
}

fn discover_members(root: &Path) -> Result<Vec<Member>, CheckError> {
    let mut members = Vec::new();
    // Root package: src/ plus its integration tests and examples.
    members.push(load_member(
        root,
        String::new(),
        "Cargo.toml",
        &["src", "tests", "examples"],
    )?);
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<String> = Vec::new();
        let entries = fs::read_dir(&crates_dir).map_err(|source| CheckError {
            path: crates_dir,
            source,
        })?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.path().join("Cargo.toml").is_file() {
                names.push(name);
            }
        }
        names.sort(); // deterministic member order
        for name in names {
            let manifest_rel = format!("crates/{name}/Cargo.toml");
            let dirs =
                ["src", "tests", "benches", "examples"].map(|d| format!("crates/{name}/{d}"));
            let dir_refs: Vec<&str> = dirs.iter().map(String::as_str).collect();
            members.push(load_member(root, name, &manifest_rel, &dir_refs)?);
        }
    }
    Ok(members)
}

fn load_member(
    root: &Path,
    dir_name: String,
    manifest_rel: &str,
    dirs: &[&str],
) -> Result<Member, CheckError> {
    let manifest = parse_manifest(&read(root, manifest_rel)?);
    let mut rels = Vec::new();
    for dir in dirs {
        collect_rs_files(root, dir, &mut rels)?;
    }
    rels.sort();
    let mut idents = BTreeSet::new();
    let mut files = Vec::with_capacity(rels.len());
    for rel in rels {
        let src = read(root, &rel)?;
        let scanned = scan(&src);
        for t in &scanned.tokens {
            if t.kind == TokKind::Ident {
                idents.insert(t.text.clone());
            }
        }
        files.push((rel, scanned));
    }
    Ok(Member {
        dir_name,
        manifest_rel: manifest_rel.to_string(),
        manifest,
        files,
        idents,
    })
}

fn collect_rs_files(root: &Path, rel_dir: &str, out: &mut Vec<String>) -> Result<(), CheckError> {
    let dir = root.join(rel_dir);
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = fs::read_dir(&dir).map_err(|source| CheckError { path: dir, source })?;
    let mut names: Vec<(bool, String)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_dir = entry.path().is_dir();
        names.push((is_dir, name));
    }
    names.sort();
    for (is_dir, name) in names {
        let rel = format!("{rel_dir}/{name}");
        if is_dir {
            if name != "target" && !name.starts_with('.') {
                collect_rs_files(root, &rel, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Phase 1 for one file: extract facts, run the per-file passes
/// unsuppressed, surface malformed allow directives.
fn check_file(
    member: &Member,
    rel: &str,
    scanned: &Scan,
    config: &Config,
    findings: &mut Vec<Finding>,
    hard: &mut Vec<Finding>,
) -> FileFacts {
    let check = FileCheck {
        rel_path: rel,
        kind: FileKind::classify(rel),
        deterministic: config.is_deterministic_file(&member.dir_name, rel),
        scan: scanned,
    };
    let regions = test_regions(scanned);
    let facts = extract(rel, &member.dir_name, check.kind, scanned, &regions);
    for (line, msg) in &facts.malformed_allows {
        findings.push(Finding {
            rule: Rule::AllowSyntax,
            file: rel.to_string(),
            line: *line,
            col: 1,
            message: msg.clone(),
        });
    }
    let lock_chain_sites: Vec<(u32, u32)> =
        facts.lock_unwraps.iter().map(|u| (u.line, u.col)).collect();
    panic_hygiene(&check, &regions, &lock_chain_sites, findings);
    determinism(config, &check, &regions, findings, hard);
    unsafe_ban(&check, findings);
    deprecation(&check, findings, hard);
    error_display(&check, &regions, findings);
    metric_name(&check, &regions, findings);
    if rel.ends_with("src/lib.rs") {
        crate_root_forbids_unsafe(&check, findings);
    }
    facts
}

/// Every declared dependency must be referenced in the member's source.
///
/// A path dependency `summitfold-protein` is referenced when the
/// identifier `summitfold_protein` appears in any of the member's files;
/// same normalization for registry crates. This is the mechanical check
/// that catches the dead-`rand` regression class: a dependency nobody
/// imports breaks offline builds for nothing.
fn audit_member_manifest(member: &Member, findings: &mut Vec<Finding>) {
    for dep in &member.manifest.deps {
        let ident = dep.name.replace('-', "_");
        if !member.idents.contains(&ident) {
            findings.push(Finding {
                rule: Rule::Manifest,
                file: member.manifest_rel.clone(),
                line: dep.line,
                col: 1,
                message: format!(
                    "dependency `{}` is declared but `{ident}` is never referenced in {} source files",
                    dep.name,
                    member.files.len()
                ),
            });
        }
    }
}

/// Every `[workspace.dependencies]` entry must be consumed by a member.
fn audit_workspace_deps(members: &[Member], findings: &mut Vec<Finding>) {
    let Some(root) = members.iter().find(|m| m.dir_name.is_empty()) else {
        return;
    };
    for wdep in &root.manifest.workspace_deps {
        let used = members
            .iter()
            .any(|m| m.manifest.deps.iter().any(|d| d.name == wdep.name));
        if !used {
            findings.push(Finding {
                rule: Rule::Manifest,
                file: root.manifest_rel.clone(),
                line: wdep.line,
                col: 1,
                message: format!(
                    "workspace dependency `{}` is not used by any workspace member",
                    wdep.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parser_reads_sections_and_lines() {
        let m = parse_manifest(
            "[package]\nname = \"demo\"\n\n[dependencies]\nfoo.workspace = true\nbar = \"1\"\n\n[dev-dependencies]\nbaz = { path = \"../baz\" }\n\n[workspace.dependencies]\nqux = \"2\"\n",
        );
        assert_eq!(m.package_name.as_deref(), Some("demo"));
        let names: Vec<&str> = m.deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["foo", "bar", "baz"]);
        assert_eq!(m.deps[0].line, 5);
        assert_eq!(m.workspace_deps.len(), 1);
        assert_eq!(m.workspace_deps[0].name, "qux");
    }

    #[test]
    fn manifest_parser_ignores_non_dep_sections() {
        let m = parse_manifest("[profile.dev]\nopt-level = 2\n[lib]\npath = \"src/lib.rs\"\n");
        assert!(m.deps.is_empty());
        assert!(m.workspace_deps.is_empty());
    }

    #[test]
    fn audit_flags_unreferenced_dep() {
        let member = Member {
            dir_name: "x".to_string(),
            manifest_rel: "crates/x/Cargo.toml".to_string(),
            manifest: parse_manifest("[dependencies]\ndead-crate = \"1\"\nlive-crate = \"1\"\n"),
            files: vec![("crates/x/src/lib.rs".to_string(), Scan::default())],
            idents: ["use", "live_crate", "thing"]
                .iter()
                .map(ToString::to_string)
                .collect(),
        };
        let mut findings = Vec::new();
        audit_member_manifest(&member, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("dead-crate"));
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn audit_flags_unused_workspace_dep() {
        let root = Member {
            dir_name: String::new(),
            manifest_rel: "Cargo.toml".to_string(),
            manifest: parse_manifest(
                "[workspace.dependencies]\nused = \"1\"\nunused = \"1\"\n[dependencies]\nused.workspace = true\n",
            ),
            files: vec![],
            idents: BTreeSet::new(),
        };
        let mut findings = Vec::new();
        audit_workspace_deps(&[root], &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`unused`"));
    }
}
