//! Command line: `sfbench --workload W [--seed N] [--seconds S]
//! [--trace [0|1]] [--smoke] [--out-dir DIR] [--out FILE]`, `sfbench
//! list`, and `sfbench compare A B`.

use crate::catalog::WORKLOADS;
use crate::compare;
use crate::runner::{self, RunConfig};
use crate::workloads::Size;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  sfbench --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out-dir DIR] [--out FILE]
  sfbench list
  sfbench compare A.jsonl B.jsonl";

/// Seconds of timed repeats when `--seconds` is not given (the value
/// `BENCHMARK.json` passes).
const DEFAULT_SECONDS: f64 = 10.0;

fn parse_run(args: &[String]) -> Result<(RunConfig, Option<PathBuf>), String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        size: Size::Full,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut out_file = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cfg.workload = value("a name")?,
            "--seed" => {
                cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=60.0).contains(&cfg.seconds) {
                    return Err("--seconds must be within 0..=60".to_owned());
                }
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it; bare `--trace` means on.
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cfg.size = Size::Smoke,
            "--out-dir" => cfg.out_dir = PathBuf::from(value("a directory")?),
            "--out" => out_file = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok((cfg, out_file))
}

/// Entry point; `args` excludes the program name.
#[must_use]
pub fn main(args: Vec<String>) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("list") => {
            for (name, _) in WORKLOADS {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare_files(a, b),
            _ => usage("compare takes two result files"),
        },
        Some(_) => match parse_run(&args) {
            Ok((cfg, out_file)) => run_one(&cfg, out_file),
            Err(e) => usage(&e),
        },
        None => usage("nothing to do"),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("sfbench: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_results(&text).map_err(|e| format!("{path}: {e}")))
    };
    match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => {
            let (report, any_worse) = compare::render(&ra, &rb);
            print!("{report}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => usage(&e),
    }
}

fn run_one(cfg: &RunConfig, out_file: Option<PathBuf>) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        return usage(&format!("{}: {e}", cfg.out_dir.display()));
    }
    let report = match runner::run(cfg) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    if let Some(path) = out_file {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", report.result_line()));
        if let Err(e) = appended {
            eprintln!("sfbench: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render());
    // Last line of standard output: the one JSON object of the contract.
    println!("{}", report.driver_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
