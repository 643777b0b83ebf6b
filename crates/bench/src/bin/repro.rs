//! `repro` — regenerate every table and figure from the paper.
//!
//! ```text
//! repro all [--quick]        # everything, into results/ (results/quick/)
//! repro table1 [--quick]     # one experiment
//! repro check                # both sizes, compared with the committed copies
//! repro list                 # available experiments
//! ```
//!
//! Flags:
//!
//! * `--quick` — subsample the heavy experiments (CI scale). Quick
//!   artifacts live in `results/quick/`, full-size ones in `results/`.
//! * `--out <dir>` — write artifacts there instead.
//!
//! `repro check` runs every experiment at both sizes and compares each
//! file it writes with the committed copy byte for byte; each drift is
//! printed with the command that regenerates it, and the fresh copies
//! stay under `target/repro-check/` for diffing.
//!
//! Exit codes: 0 success, 1 `check` found drift, 2 bad usage (unknown
//! flag or experiment, `--out` without a directory, `check` with
//! flags). A harness whose invariant fails (store hit rate, recovery
//! trace match, profile accounting identity) panics with its outcome.

use std::path::PathBuf;
use std::time::Instant;
use summitfold_bench::harness::{Ctx, EXPERIMENTS};
use summitfold_bench::report::{check, results_dir, workspace_root};

/// Parsed command line: flags plus positional targets.
struct Opts {
    quick: bool,
    out: Option<PathBuf>,
    targets: Vec<String>,
}

fn usage() {
    eprintln!("usage: repro <experiment|all|list> [--quick] [--out <dir>] | repro check");
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("experiments: {}", names.join(", "));
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        out: None,
        targets: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--out" => match it.next() {
                Some(dir) => opts.out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("repro: --out needs a directory");
                    usage();
                    std::process::exit(2);
                }
            },
            "--help" | "help" => opts.targets.push(a),
            f if f.starts_with('-') => {
                eprintln!("repro: unknown flag {f:?}");
                usage();
                std::process::exit(2);
            }
            _ => opts.targets.push(a),
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let ctx = Ctx { quick: opts.quick };
    let dir = opts.out.clone().unwrap_or_else(|| results_dir(ctx.quick));

    match opts.targets.first().map(String::as_str) {
        None | Some("--help" | "help") => usage(),
        Some("list") => {
            for (name, _) in EXPERIMENTS {
                println!("{name}");
            }
        }
        Some("check") => {
            if opts.quick || opts.out.is_some() {
                eprintln!("repro: check takes no flags");
                std::process::exit(2);
            }
            let root = workspace_root();
            let mut drifts = Vec::new();
            for quick in [false, true] {
                drifts.extend(check(&root, Ctx { quick }, &EXPERIMENTS).expect("readable results"));
            }
            if !drifts.is_empty() {
                for d in &drifts {
                    eprintln!("{d}");
                }
                eprintln!(
                    "{} drifted; fresh copies in target/repro-check/results/",
                    drifts.len()
                );
                std::process::exit(1);
            }
            eprintln!("every committed artifact regenerates byte-identically");
        }
        Some("all") => {
            for (name, run) in EXPERIMENTS {
                let t0 = Instant::now();
                eprint!("{name:<20} ... ");
                run(&ctx).write_to(&dir).expect("writable results dir");
                eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
            }
        }
        Some(name) => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => {
                let report = run(&ctx);
                report.write_to(&dir).expect("writable results dir");
                print!("{}", report.markdown);
                eprintln!(
                    "(written to {})",
                    dir.join(format!("{}.md", report.id)).display()
                );
            }
            None => {
                eprintln!("unknown experiment {name:?}; try: repro list");
                std::process::exit(2);
            }
        },
    }
}
