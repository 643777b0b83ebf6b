//! The `lens` binary end to end: report bytes, the documented exit
//! codes, and the truncation warning for either side of `--diff`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn quick(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/quick")
        .join(name)
}

fn lens(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lens"))
        .args(args)
        .output()
        .expect("lens runs")
}

fn trace() -> String {
    quick("fig2_trace.jsonl").display().to_string()
}

fn stdout_of(args: &[&str]) -> String {
    let out = lens(args);
    assert_eq!(out.status.code(), Some(0), "lens {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

#[test]
fn json_reports_equal_the_committed_profile_files() {
    let trace = trace();
    for (report, file) in [
        ("critical-path", "profile_critical_path.json"),
        ("imbalance", "profile_imbalance.json"),
    ] {
        let want = std::fs::read_to_string(quick(file)).expect("committed report");
        assert_eq!(stdout_of(&[report, &trace, "--json"]), want, "{report}");
    }
}

#[test]
fn journey_of_the_chain_tail_is_pinned() {
    let got = stdout_of(&["journey", &trace(), "SDI_00310/model_5", "--json"]);
    assert_eq!(
        got,
        concat!(
            r#"{"task":"SDI_00310/model_5","admitted_t":null,"wal_t":null,"settled_t":null,"#,
            r#""cache":null,"cache_t":null,"queue_wait_s":null,"#,
            r#""compute_s":7265.394907478025,"settle_lag_s":null,"#,
            r#""cancelled_executions":0,"executions":[{"worker":123,"start":84203.19510627285,"#,
            r#""end":91468.59001375087,"attempts":2}],"truncated":0,"dropped_events":0}"#,
            "\n"
        )
    );
}

#[test]
fn exit_codes_follow_the_documented_contract() {
    let trace = trace();
    let code = |args: &[&str]| lens(args).status.code();
    assert_eq!(code(&["journey", &trace, "no/such_task"]), Some(1));
    assert_eq!(code(&["--bogus"]), Some(2));
    assert_eq!(code(&["imbalance", &trace, "--top"]), Some(2));
    assert_eq!(code(&["critical-path", "no/such/trace.jsonl"]), Some(2));
}

#[test]
fn diff_warns_about_a_truncated_baseline() {
    let full = std::fs::read_to_string(trace()).expect("committed trace");
    // A suffix: the span starts and every counter's first increment go.
    let suffix: String = full.lines().skip(1_000).map(|l| format!("{l}\n")).collect();
    let dir = std::env::temp_dir().join(format!("lens-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cut = dir.join("suffix.jsonl");
    std::fs::write(&cut, suffix).expect("write suffix");
    let cut = cut.display().to_string();

    let stderr = |args: &[&str]| {
        let out = lens(args);
        assert_ne!(out.status.code(), Some(2), "lens {args:?}: {out:?}");
        String::from_utf8(out.stderr).expect("utf-8 stderr")
    };
    let warned = stderr(&["--diff", &trace(), &cut]);
    assert!(
        warned.contains(&format!(
            "lens: baseline {cut}: warning: trace is a truncated suffix"
        )),
        "{warned}"
    );
    assert!(!warned.contains("lens: new "), "{warned}");
    let warned = stderr(&["--diff", &cut, &trace()]);
    assert!(
        warned.contains(&format!("lens: new {cut}: warning")),
        "{warned}"
    );
    assert!(!warned.contains("lens: baseline "), "{warned}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
