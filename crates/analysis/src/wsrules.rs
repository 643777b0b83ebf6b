//! Phase-2 workspace rules: scoring the merged [`FileFacts`] table.
//!
//! Per-file passes (`rules`) see one file at a time; the rules here see
//! the whole workspace — the lock-order graph spans files within a
//! crate, and metric ownership needs every file's recording sites to
//! find the one that is not the owner.

use crate::config::{Config, FileKind};
use crate::facts::FileFacts;
use crate::graph;
use crate::report::{Finding, Rule};
use std::collections::BTreeMap;

/// Whether lock-discipline applies to this file: library and binary
/// code, minus configured exemptions. Tests, benches, and examples may
/// hold locks sloppily — they run under the test harness's timeout.
fn lock_discipline_applies(config: &Config, f: &FileFacts) -> bool {
    matches!(f.kind, FileKind::Lib | FileKind::Bin)
        && !config.is_lock_discipline_exempt(&f.rel_path)
}

/// Graph node for a mutex: crate-qualified so `queue` in two crates
/// never unifies, but `queue` across files of one crate does (the
/// executor's queue is locked from several modules).
fn node(f: &FileFacts, mutex: &str) -> String {
    if f.crate_dir.is_empty() {
        mutex.to_string()
    } else {
        format!("{}/{mutex}", f.crate_dir)
    }
}

/// lock-discipline: build the crate-qualified lock-order graph from
/// every guard-held lock acquisition, report each cycle as a potential
/// deadlock, and flag guards held across blocking calls.
pub fn lock_discipline(config: &Config, facts: &[FileFacts], findings: &mut Vec<Finding>) {
    let mut edges: Vec<(String, String)> = Vec::new();
    // Earliest site per directed edge, for attributing cycle findings to
    // a concrete line an allow directive can cover.
    let mut sites: BTreeMap<(String, String), (String, u32, u32)> = BTreeMap::new();
    for f in facts.iter().filter(|f| lock_discipline_applies(config, f)) {
        for c in &f.crossings {
            findings.push(Finding {
                rule: Rule::LockDiscipline,
                file: f.rel_path.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "guard of `{}` (held since line {}) is held across {} (`{}`): \
                     the blocked party may need the same lock; narrow the guard scope \
                     or move the call outside the critical section",
                    c.mutex, c.guard_line, c.op, c.call
                ),
            });
        }
        for e in &f.edges {
            let key = (node(f, &e.holder), node(f, &e.acquired));
            let site = (f.rel_path.clone(), e.line, e.col);
            sites
                .entry(key.clone())
                .and_modify(|s| {
                    if site < *s {
                        *s = site.clone();
                    }
                })
                .or_insert(site);
            edges.push(key);
        }
    }
    for cycle in graph::cycles(&edges) {
        // Attribute the finding to the smallest participating edge site.
        let mut best: Option<(String, u32, u32)> = None;
        for (i, from) in cycle.iter().enumerate() {
            let to = &cycle[(i + 1) % cycle.len()];
            if let Some(s) = sites.get(&(from.clone(), to.clone())) {
                if best.as_ref().is_none_or(|b| s < b) {
                    best = Some(s.clone());
                }
            }
        }
        let Some((file, line, col)) = best else {
            continue; // unreachable: every cycle edge came from `sites`
        };
        let path = cycle.join(" -> ");
        let closing = &cycle[0];
        let message = if cycle.len() == 1 {
            format!(
                "lock-order cycle: `{closing}` is locked again while its own guard is \
                 held — std::sync::Mutex is not reentrant, this deadlocks the thread"
            )
        } else {
            format!(
                "lock-order cycle {path} -> {closing}: threads acquiring these locks in \
                 different orders can deadlock; pick one global acquisition order"
            )
        };
        findings.push(Finding {
            rule: Rule::LockDiscipline,
            file,
            line,
            col,
            message,
        });
    }
}

/// lock-unwrap: `.lock().unwrap()` / `.expect(…)` propagates poison as a
/// panic and takes the worker down with the first panicking locker. The
/// sanctioned recovery is `.lock().unwrap_or_else(PoisonError::into_inner)`
/// (see `obs::monitor`): the guard is still valid, the data is at worst
/// mid-update, and campaign telemetry must outlive worker panics.
pub fn lock_unwrap(facts: &[FileFacts], findings: &mut Vec<Finding>) {
    for f in facts.iter().filter(|f| f.kind == FileKind::Lib) {
        for u in &f.lock_unwraps {
            findings.push(Finding {
                rule: Rule::LockUnwrap,
                file: f.rel_path.clone(),
                line: u.line,
                col: u.col,
                message: format!(
                    ".lock().{}() on `{}` panics on a poisoned mutex; recover the guard \
                     with .unwrap_or_else(PoisonError::into_inner) (see obs::monitor) or \
                     handle the Err",
                    u.method, u.mutex
                ),
            });
        }
    }
}

/// metric-ownership: metric paths under a configured prefix may only be
/// recorded from the one file that owns them. Executor parity holds *by
/// construction*: every backend reaches the single recording site (the
/// store for `cache/*`, the batch skeleton in `dataflow/src/exec.rs` for
/// `dataflow/*` and `service/live_*`), and a second recording site would
/// double-count or drift the two executors' traces apart. Reported
/// under [`Rule::MetricParity`].
pub fn metric_ownership(config: &Config, facts: &[FileFacts], findings: &mut Vec<Finding>) {
    for (prefix, owner_suffix) in &config.metric_owner_prefixes {
        for f in facts.iter().filter(|f| f.kind == FileKind::Lib) {
            if f.rel_path == *owner_suffix || f.rel_path.ends_with(owner_suffix) {
                continue;
            }
            for m in f.metrics.iter().filter(|m| m.path.starts_with(prefix)) {
                findings.push(Finding {
                    rule: Rule::MetricParity,
                    file: f.rel_path.clone(),
                    line: m.line,
                    col: m.col,
                    message: format!(
                        "metric path \"{}\" is owned by {}: `{}*` counters must be \
                         recorded from that single site so both executors stay \
                         in parity by construction",
                        m.path, owner_suffix, prefix
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::rules::test_regions;

    fn facts_for(rel: &str, crate_dir: &str, src: &str) -> FileFacts {
        let s = scan(src);
        let regions = test_regions(&s);
        crate::facts::extract(rel, crate_dir, FileKind::classify(rel), &s, &regions)
    }

    #[test]
    fn opposite_order_lock_pair_is_a_cycle() {
        let src_ab = "pub fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                      let g = lock(a);\n let h = lock(b);\n let _ = (g, h);\n}";
        let src_ba = "pub fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                      let h = lock(b);\n let g = lock(a);\n let _ = (g, h);\n}";
        let facts = vec![
            facts_for("crates/x/src/one.rs", "x", src_ab),
            facts_for("crates/x/src/two.rs", "x", src_ba),
        ];
        let mut findings = Vec::new();
        lock_discipline(&Config::workspace_default(), &facts, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("lock-order cycle"));
        assert!(
            findings[0].message.contains("x/a -> x/b"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn consistent_order_is_clean_across_crates() {
        let src_ab = "pub fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                      let g = lock(a);\n let h = lock(b);\n let _ = (g, h);\n}";
        // Same names, opposite order — but in a different crate: no unify.
        let src_ba = "pub fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                      let h = lock(b);\n let g = lock(a);\n let _ = (g, h);\n}";
        let facts = vec![
            facts_for("crates/x/src/one.rs", "x", src_ab),
            facts_for("crates/y/src/two.rs", "y", src_ba),
        ];
        let mut findings = Vec::new();
        lock_discipline(&Config::workspace_default(), &facts, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn crossing_in_test_file_kind_is_exempt() {
        let src = "pub fn f(a: &Mutex<u8>, h: std::thread::JoinHandle<()>) {\n\
                   let g = lock(a);\n let _ = h.join();\n let _ = g;\n}";
        let facts = vec![facts_for("crates/x/tests/probe.rs", "x", src)];
        let mut findings = Vec::new();
        lock_discipline(&Config::workspace_default(), &facts, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lock_unwrap_fires_in_lib_not_bin() {
        let src = "pub fn f(a: &Mutex<u8>) -> u8 { *a.lock().unwrap() }";
        let mut findings = Vec::new();
        lock_unwrap(&[facts_for("crates/x/src/lib.rs", "x", src)], &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::LockUnwrap);
        findings.clear();
        lock_unwrap(
            &[facts_for("crates/x/src/bin/tool.rs", "x", src)],
            &mut findings,
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn cache_counters_outside_the_store_are_flagged() {
        let rogue = "pub fn f(r: &Recorder) { r.add(\"cache/hit\", 1.0); }";
        let facts = vec![facts_for(
            "crates/pipeline/src/stages.rs",
            "pipeline",
            rogue,
        )];
        let mut findings = Vec::new();
        metric_ownership(&Config::workspace_default(), &facts, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::MetricParity);
        assert!(findings[0].message.contains("crates/store/src/lib.rs"));
    }

    #[test]
    fn cache_counters_in_the_owning_store_are_clean() {
        let owner = "pub fn get(r: &Recorder) {\n r.add(\"cache/hit\", 1.0);\n \
                     r.add(\"cache/miss\", 1.0);\n r.add(\"cache/near_hit\", 1.0);\n \
                     r.add(\"cache/put\", 1.0);\n r.add(\"cache/evicted\", 1.0);\n}";
        let other = "pub fn f(r: &Recorder) { r.add(\"service/settled_tasks\", 1.0); }";
        let facts = vec![
            facts_for("crates/store/src/lib.rs", "store", owner),
            facts_for("crates/hpc/src/service.rs", "hpc", other),
        ];
        let mut findings = Vec::new();
        metric_ownership(&Config::workspace_default(), &facts, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cache_counters_in_tests_are_exempt_from_ownership() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n \
                   fn g(r: &Recorder) { r.add(\"cache/hit\", 1.0); }\n}";
        let facts = vec![facts_for("crates/pipeline/src/stages.rs", "pipeline", src)];
        let mut findings = Vec::new();
        metric_ownership(&Config::workspace_default(), &facts, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn fault_counters_outside_the_chaos_plane_are_flagged() {
        let rogue = "pub fn f(r: &Recorder) { r.add(\"fault/injected_torn\", 1.0); }";
        let facts = vec![facts_for("crates/store/src/lib.rs", "store", rogue)];
        let mut findings = Vec::new();
        metric_ownership(&Config::workspace_default(), &facts, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("crates/dataflow/src/chaos.rs"));
    }

    #[test]
    fn recovery_counters_outside_the_service_are_flagged() {
        let rogue = "pub fn f(r: &Recorder) { r.add(\"recovery/wal_torn\", 1.0); }";
        let facts = vec![facts_for("crates/store/src/lib.rs", "store", rogue)];
        let mut findings = Vec::new();
        metric_ownership(&Config::workspace_default(), &facts, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("crates/hpc/src/service.rs"));
    }

    #[test]
    fn executor_counters_outside_the_batch_skeleton_are_flagged() {
        // A backend that grows its own dataflow/* or service/live_*
        // counter has left the shared frame: both must fire, and the
        // owner itself stays clean.
        let rogue = "pub fn run_live(r: &Recorder) {\n r.add(\"service/live_waits\", 1.0);\n \
                     r.add(\"dataflow/retries\", 1.0);\n}";
        let facts = vec![
            facts_for("crates/dataflow/src/real.rs", "dataflow", rogue),
            facts_for("crates/dataflow/src/exec.rs", "dataflow", rogue),
        ];
        let mut findings = Vec::new();
        metric_ownership(&Config::workspace_default(), &facts, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.file.ends_with("real.rs")));
        assert!(findings[0].message.contains("crates/dataflow/src/exec.rs"));
    }

    #[test]
    fn fault_and_recovery_counters_at_their_owners_are_clean() {
        let chaos = "pub fn f(r: &Recorder) {\n r.add(\"fault/injected_torn\", 1.0);\n \
                     r.add(\"fault/injected_kill\", 1.0);\n}";
        let service = "pub fn f(r: &Recorder) {\n r.add(\"recovery/replayed_campaigns\", 1.0);\n \
                       r.add(\"recovery/wal_corrupt\", 1.0);\n}";
        let facts = vec![
            facts_for("crates/dataflow/src/chaos.rs", "dataflow", chaos),
            facts_for("crates/hpc/src/service.rs", "hpc", service),
        ];
        let mut findings = Vec::new();
        metric_ownership(&Config::workspace_default(), &facts, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
