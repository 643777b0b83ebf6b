//! Drives one workload: set-up, warm-up, timed repeats, checks, and the
//! separate traced run.
//!
//! Two ledgers, never conflated. The *wall ledger* (`tasks_per_s`,
//! `cpu_s`, `peak_rss_mb`, `setup_s`) says how fast this Rust code runs
//! and is noisy; the *model ledger* (`model_makespan_s` and the exact
//! per-layer counts) says what the simulated campaign costs and is a
//! pure function of the seed.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::num;
use crate::spans;
use crate::stats::{
    calibrated, calibration_ns_per_iter, median, peak_rss_mb, quartiles, timed, Calibrated,
    REFERENCE_NS_PER_ITER,
};
use crate::workloads::campaign_virtual::CampaignVirtual;
use crate::workloads::fold_real::FoldReal;
use crate::workloads::relax_annotate::RelaxAnnotate;
use crate::workloads::service_cold::ServiceCold;
use crate::workloads::strain_rerun::StrainRerun;
use crate::workloads::trace_lens::TraceLens;
use crate::workloads::{Check, Metrics, Scratch, Size, Workload};
use std::path::PathBuf;
use std::time::Instant;
use summitfold_protein::proteome::{Proteome, Species};

/// Set-ups per run: at least the first number, and more — up to the
/// second — while they have taken under [`SETUP_BUDGET_S`] together.
/// `setup_s` is their median, so cheap set-ups get a steadier one.
const SETUPS: (usize, usize) = (3, 9);
/// See [`SETUPS`].
const SETUP_BUDGET_S: f64 = 1.5;
/// Fewest timed repeats of a full-size run, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed repeats (after set-up and one warm-up repeat).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Directory for scratch space and span files, inside the checkout.
    pub out_dir: PathBuf,
}

/// One metric value as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Catalog name.
    pub name: &'static str,
    /// Value as measured, all digits.
    pub value: f64,
    /// Catalog unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Tasks checked.
    pub attempted: u64,
    /// Tasks that errored or failed their check.
    pub failed: u64,
    /// Every end-to-end metric (plain run) or per-layer metric (traced).
    pub metrics: Vec<MetricValue>,
    /// Human-readable lines: sample counts, quartiles, shares, failures.
    pub detail: Vec<String>,
}

impl RunReport {
    /// All checks passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON object the contract asks for on the last line
    /// of standard output.
    #[must_use]
    pub fn driver_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The line appended to a result file: the driver line plus what
    /// `compare` needs to group runs.
    #[must_use]
    pub fn result_line(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", members.join(","))
    }

    /// The human-readable report: every metric by name with its unit.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}) ==\n",
            self.workload,
            self.seed,
            if self.trace {
                "traced: per-layer"
            } else {
                "end to end"
            }
        );
        for m in &self.metrics {
            out.push_str(&format!("  {:<44} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        for line in &self.detail {
            out.push_str(&format!("  {line}\n"));
        }
        out.push_str(&format!(
            "  tasks attempted {}, failed {} -> {}\n",
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        ));
        out
    }
}

/// Run the configured workload.
///
/// # Errors
/// An unknown workload name.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    macro_rules! dispatch {
        ($($ty:ty),*) => {
            match cfg.workload.as_str() {
                $(<$ty>::NAME => Ok(if cfg.trace { traced::<$ty>(cfg) } else { end_to_end::<$ty>(cfg) }),)*
                other => Err(format!("unknown workload {other:?}")),
            }
        };
    }
    dispatch!(
        FoldReal,
        RelaxAnnotate,
        CampaignVirtual,
        TraceLens,
        ServiceCold,
        StrainRerun
    )
}

fn sample_line(what: &str, unit: &str, xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    format!(
        "{what}: median {:.6} {unit}, quartiles {q1:.6}..{q3:.6}, n = {}",
        median(xs),
        xs.len()
    )
}

/// The end-to-end run: tracing off, median over timed repeats.
fn end_to_end<W: Workload>(cfg: &RunConfig) -> RunReport {
    let scratch = Scratch::new(&cfg.out_dir, W::NAME);
    let smoke = cfg.size == Size::Smoke;

    // Set-up, several times so its own time has a median; the last set
    // of inputs is the one that runs.
    let mut setups: Vec<Calibrated> = Vec::new();
    let mut inputs = None;
    let setup_start = Instant::now();
    while inputs.is_none()
        || (!smoke
            && (setups.len() < SETUPS.0
                || (setups.len() < SETUPS.1
                    && setup_start.elapsed().as_secs_f64() < SETUP_BUDGET_S)))
    {
        drop(inputs.take());
        let (made, sample) = calibrated(|| W::setup(cfg.seed, cfg.size, &scratch));
        setups.push(sample);
        inputs = Some(made);
    }
    let inputs = inputs.expect("at least one set-up ran");

    let mut check = Check::default();
    let mut model_s = Vec::new();
    let mut repeat = || {
        let prepared = W::prepare(&inputs, &scratch);
        let (output, sample) = calibrated(|| W::run(&inputs, prepared));
        check.absorb(W::check(&inputs, &output));
        model_s.push(W::model_makespan_s(&inputs, &output));
        sample
    };
    if !smoke {
        // Warm-up: caches fill and lazy set-up finishes outside the sample.
        repeat();
    }
    let min_repeats = if smoke { 1 } else { MIN_REPEATS };
    let mut repeats: Vec<Calibrated> = Vec::new();
    let loop_start = Instant::now();
    while repeats.len() < min_repeats || loop_start.elapsed().as_secs_f64() < cfg.seconds {
        repeats.push(repeat());
    }

    let tasks = W::tasks(&inputs) as f64;
    // Model numbers are a pure function of the seed: every repeat must
    // have produced the same one.
    let model = model_s[0];
    if model_s.iter().any(|m| m.to_bits() != model.to_bits()) {
        check.fail(
            1,
            format!("model makespan differs between repeats: {model_s:?}"),
        );
    }
    let column = |samples: &[Calibrated], f: fn(&Calibrated) -> f64| -> Vec<f64> {
        samples.iter().map(f).collect()
    };
    let wall = column(&repeats, |c| c.wall_s);
    let cpu = column(&repeats, |c| c.cpu_s);
    let setup = column(&setups, |c| c.wall_s);
    let value = |name: &str| match name {
        "tasks_per_s" => tasks / median(&wall),
        // Mean, not median: /proc/self/stat ticks at 10 ms, and the mean
        // over all repeats averages the tick error away.
        "cpu_s" => cpu.iter().sum::<f64>() / cpu.len() as f64,
        "peak_rss_mb" => peak_rss_mb(),
        "setup_s" => median(&setup),
        "model_makespan_s" => model,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| MetricValue {
            name: m.name,
            value: value(m.name),
            unit: m.unit,
        })
        .collect();
    let mut detail = vec![
        format!("{tasks} tasks per repeat, closed loop, one generator, R = {} timed repeats", repeats.len()),
        sample_line("repeat wall (calibrated)", "s", &wall),
        sample_line("repeat wall (raw clock)", "s", &column(&repeats, |c| c.raw_wall_s)),
        sample_line("repeat cpu (calibrated)", "s", &cpu),
        sample_line("set-up (calibrated)", "s", &setup),
        sample_line("calibration loop", "ns/iter", &column(&repeats, |c| c.ns_per_iter)),
        format!(
            "calibrated seconds are clock seconds scaled to {REFERENCE_NS_PER_ITER} ns/iter of the calibration loop"
        ),
        format!("scratch: {} (inside the checkout)", scratch.root().display()),
    ];
    detail.extend(check.notes.iter().map(|n| format!("FAILED: {n}")));
    RunReport {
        workload: W::NAME.to_owned(),
        seed: cfg.seed,
        trace: false,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        detail,
    }
}

/// One traced replay of `W` on `size` inputs: an untraced repeat for
/// reference, then the decomposed replay under spans.
fn traced_replay<W: Workload>(
    seed: u64,
    size: Size,
    scratch: &Scratch,
    m: &mut Metrics,
) -> (Check, f64) {
    let inputs = W::setup(seed, size, scratch);
    let prepared = W::prepare(&inputs, scratch);
    let (plain, plain_s) = timed(|| W::run(&inputs, prepared));
    let mut check = W::check(&inputs, &plain);
    spans::enable(true);
    let (replay_check, traced_s) = timed(|| {
        spans::in_span("bench.traced_replay", || {
            W::traced(&inputs, &plain, scratch, m)
        })
    });
    spans::enable(false);
    check.absorb(replay_check);
    (check, (traced_s - plain_s) / plain_s)
}

/// The traced run: `W` decomposed at the configured size; every layer
/// `W` does not exercise is probed through the other workloads' replays
/// at smoke size, so each per-layer metric is a measurement in every
/// traced run.
fn traced<W: Workload>(cfg: &RunConfig) -> RunReport {
    let scratch = Scratch::new(&cfg.out_dir, W::NAME);
    let mut m = Metrics::default();
    let (check, overhead) = traced_replay::<W>(cfg.seed, cfg.size, &scratch, &mut m);
    let own = spans::drain();
    let span_file = cfg.out_dir.join(format!("trace_{}.jsonl", W::NAME));
    let written = std::fs::write(&span_file, spans::to_jsonl(&own));

    let mut probes = Metrics::default();
    macro_rules! probe_others {
        ($($ty:ty),*) => {$(
            if <$ty>::NAME != W::NAME {
                let _ = traced_replay::<$ty>(cfg.seed, Size::Smoke, &scratch, &mut probes);
            }
        )*};
    }
    probe_others!(
        FoldReal,
        RelaxAnnotate,
        CampaignVirtual,
        TraceLens,
        ServiceCold,
        StrainRerun
    );
    drop(spans::drain());
    let own_names: Vec<&str> = PER_LAYER
        .iter()
        .map(|p| p.name)
        .filter(|n| m.get(n).is_some())
        .collect();
    m.fill_from(&probes);
    m.set("bench.trace_overhead_share", overhead);
    m.set("bench.calib.ns_per_iter", calibration_ns_per_iter());
    let (_, proteome_s) = timed(|| std::hint::black_box(Proteome::generate(Species::DVulgaris)));
    m.set("protein.proteome.generate_ms", proteome_s * 1e3);

    let metrics = PER_LAYER
        .iter()
        .map(|p| MetricValue {
            name: p.name,
            value: m
                .get(p.name)
                .unwrap_or_else(|| panic!("no traced replay measured {}", p.name)),
            unit: p.unit,
        })
        .collect();
    let mut detail = vec![format!(
        "{} spans -> {} ({})",
        own.len(),
        span_file.display(),
        if written.is_ok() {
            "written"
        } else {
            "NOT written"
        }
    )];
    detail.push(format!(
        "measured on this workload's inputs: {}; all others probed at smoke size",
        own_names.join(" ")
    ));
    let shares: Vec<String> = m
        .layer_shares()
        .iter()
        .map(|(layer, share)| format!("{layer} {:.1}%", 100.0 * share))
        .collect();
    detail.push(format!(
        "self-time share of the workload's own path: {}",
        shares.join(", ")
    ));
    let exact: Vec<&str> = PER_LAYER
        .iter()
        .filter(|p| p.exact)
        .map(|p| p.name)
        .collect();
    detail.push(format!(
        "exact (must repeat bit for bit per seed): {}",
        exact.join(" ")
    ));
    detail.extend(check.notes.iter().map(|n| format!("FAILED: {n}")));
    RunReport {
        workload: W::NAME.to_owned(),
        seed: cfg.seed,
        trace: true,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        detail,
    }
}
