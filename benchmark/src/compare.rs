//! `sfbench compare A B`: two result files, one verdict per workload ×
//! end-to-end metric, then the per-layer metrics that moved most.
//!
//! A result file is JSONL, one line per run as `run.sh --out FILE`
//! appends them. `A` is the base: every ratio is printed as `B ÷ A`.

use crate::catalog::{self, Better, END_TO_END, WORKLOADS};
use crate::json::{self, Json};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;

/// Values of one metric on one workload, one per run.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Runs of one result file, split into end-to-end and traced samples.
#[derive(Debug, Default)]
pub struct ResultSet {
    end_to_end: Samples,
    per_layer: Samples,
    incorrect_runs: usize,
}

/// Parse a result file's text.
///
/// # Errors
/// The first malformed line, with its number.
pub fn parse_results(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let v = json::parse(line).map_err(|e| bad(&e))?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let traced = v.get("trace").and_then(Json::as_f64) == Some(1.0);
        if v.get("correct") != Some(&Json::Bool(true)) {
            set.incorrect_runs += 1;
        }
        let metrics = v
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no metrics"))?;
        let into = if traced {
            &mut set.per_layer
        } else {
            &mut set.end_to_end
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                into.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(set)
}

/// How `b` compares with the base `a` on one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// Run-to-run spread is wider than the bound, and the runs overlap.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `a` is the base.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // "Worse by" as a share of the base's median, signed so that
    // positive means b is worse.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let every_b_better = match better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    if spread(a).max(spread(b)) > bound && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn summary(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    format!("{:.5} [{q1:.5}..{q3:.5}] n={}", median(xs), xs.len())
}

/// The report, and whether any metric came out `worse`.
#[must_use]
pub fn render(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut out = String::from("base = A; ratio = median(B) / median(A)\n");
    out.push_str(&format!(
        "{:<17} {:<17} {:<36} {:<36} {:>10}  verdict (bound)\n",
        "workload", "metric", "A: median [q1..q3] n", "B: median [q1..q3] n", "B/A"
    ));
    let mut any_worse = false;
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let key = (workload.to_owned(), m.name.to_owned());
            let (Some(xa), Some(xb)) = (a.end_to_end.get(&key), b.end_to_end.get(&key)) else {
                continue;
            };
            let verdict = judge(xa, xb, m.better, m.bound);
            any_worse |= verdict == Verdict::Worse;
            out.push_str(&format!(
                "{workload:<17} {:<17} {:<36} {:<36} {:>9.4}x  {} ({}% {})\n",
                m.name,
                summary(xa),
                summary(xb),
                median(xb) / median(xa),
                verdict.word(),
                100.0 * m.bound,
                m.better.word(),
            ));
        }
    }

    let mut movers: Vec<(f64, String)> = Vec::new();
    for (key, xa) in &a.per_layer {
        let Some(xb) = b.per_layer.get(key) else {
            continue;
        };
        let (ma, mb) = (median(xa), median(xb));
        if ma <= 0.0 || mb <= 0.0 {
            continue;
        }
        let exact = catalog::per_layer(&key.1).is_some_and(|p| p.exact);
        if exact && ma.to_bits() == mb.to_bits() {
            continue;
        }
        let moves = catalog::per_layer(&key.1).map_or("?", |p| p.moves);
        movers.push((
            (mb / ma).ln().abs(),
            format!(
                "{:<17} {:<44} {ma:>14.5} -> {mb:>14.5}  {:>8.4}x of A{}  (should move {moves})\n",
                key.0,
                key.1,
                mb / ma,
                if exact { "  EXACT METRIC CHANGED" } else { "" },
            ),
        ));
    }
    movers.sort_by(|x, y| y.0.total_cmp(&x.0));
    if !movers.is_empty() {
        out.push_str("\nper-layer metrics that moved most (traced runs, medians):\n");
        for (_, line) in movers.iter().take(15) {
            out.push_str(line);
        }
    }
    if a.incorrect_runs + b.incorrect_runs > 0 {
        out.push_str(&format!(
            "\nincorrect runs: A {}, B {} — a gain does not count when more operations fail\n",
            a.incorrect_runs, b.incorrect_runs
        ));
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.8];
        let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
        let noisy = [60.0, 140.0, 100.0, 75.0, 125.0];
        assert_eq!(judge(&base, &same, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(judge(&base, &slower, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &slower, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&base, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // Wide spread, yet every run of B beats every run of A.
        let wide_a = [10.0, 14.0, 12.0];
        let wide_b = [30.0, 50.0, 40.0];
        assert_eq!(judge(&wide_a, &wide_b, Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn result_lines_group_by_workload_and_trace_flag() {
        let text = concat!(
            "{\"workload\":\"fold_real\",\"seed\":1,\"trace\":0,\"correct\":true,\"attempted\":1,\"failed\":0,",
            "\"metrics\":{\"tasks_per_s\":{\"value\":7.5,\"unit\":\"tasks/s\"}}}\n",
            "{\"workload\":\"fold_real\",\"seed\":1,\"trace\":1,\"correct\":false,\"attempted\":1,\"failed\":1,",
            "\"metrics\":{\"msa.search.ms_per_query\":{\"value\":140.0,\"unit\":\"ms\"}}}\n",
        );
        let set = parse_results(text).unwrap();
        assert_eq!(
            set.end_to_end[&("fold_real".to_owned(), "tasks_per_s".to_owned())],
            vec![7.5]
        );
        assert_eq!(set.per_layer.len(), 1);
        assert_eq!(set.incorrect_runs, 1);
        let (report, worse) = render(&set, &set);
        assert!(report.contains("tasks_per_s") && report.contains("1.0000x") && !worse);
    }
}
