//! `trace_lens` — the operator path over a campaign trace.
//!
//! Set-up produces the JSONL trace of a `campaign_virtual` run; the
//! timed phase is what an operator does with it: `Trace::parse_jsonl` →
//! `truncation_of` → `journeys_of` → `critical_path_of` →
//! `imbalance_of(5)` → eight seeded `journey_of` look-ups → `Trace::diff`
//! against itself. `obs::json`, `obs::trace` and `obs::lineage` do all
//! the work.

use super::campaign_virtual::{self, CampaignVirtual};
use super::{Check, Metrics, Scratch, Size, Workload};
use crate::spans::{self, in_span};
use summitfold_obs::json::parse_object;
use summitfold_obs::{lineage, CriticalPath, Recorder, Trace};
use summitfold_protein::rng::{fnv1a, Xoshiro256};

/// Seeded single-task look-ups per pass.
const LOOKUPS: usize = 8;
/// Stragglers the imbalance report lists.
const TOP_K: usize = 5;

/// The workload marker type.
pub struct TraceLens;

/// Inputs of one run.
pub struct Inputs {
    jsonl: String,
    /// Task executions in the trace: one feature scan and five model runs
    /// per campaign target.
    tasks: u64,
    lookups: Vec<String>,
}

/// One pass's outputs.
pub struct Output {
    trace: Trace,
    truncated: bool,
    journeys: usize,
    critical_path: Option<CriticalPath>,
    imbalance_workers: usize,
    found: usize,
    diff_regressions: usize,
}

fn operator_pass(inputs: &Inputs) -> Output {
    let trace = in_span("obs.trace.parse_jsonl", || {
        Trace::parse_jsonl(&inputs.jsonl)
    })
    .expect("the campaign's own trace parses");
    let truncated = in_span("obs.lineage.truncation_of", || {
        lineage::truncation_of(&trace)
    })
    .is_truncated();
    let journeys = in_span("obs.lineage.journeys_of", || lineage::journeys_of(&trace)).len();
    let critical_path = in_span("obs.lineage.critical_path_of", || {
        lineage::critical_path_of(&trace)
    });
    let imbalance = in_span("obs.lineage.imbalance_of", || {
        lineage::imbalance_of(&trace, TOP_K)
    });
    let found = in_span("obs.lineage.journey_of", || {
        inputs
            .lookups
            .iter()
            .filter(|task| lineage::journey_of(&trace, task).is_some())
            .count()
    });
    let diff_regressions = in_span("obs.trace.diff", || trace.diff(&trace))
        .regressions()
        .len();
    Output {
        truncated,
        journeys,
        critical_path,
        imbalance_workers: imbalance.map_or(0, |r| r.workers.len()),
        found,
        diff_regressions,
        trace,
    }
}

impl Workload for TraceLens {
    const NAME: &'static str = "trace_lens";
    type Inputs = Inputs;
    type Prepared = ();
    type Output = Output;

    fn setup(seed: u64, size: Size, scratch: &Scratch) -> Inputs {
        let campaign = CampaignVirtual::setup(seed, size, scratch);
        let jsonl = campaign_virtual::run_campaign(&campaign, &Recorder::virtual_time()).jsonl;
        let mut rng = Xoshiro256::seed_from_u64(seed ^ fnv1a(b"trace_lens"));
        let lookups = (0..LOOKUPS)
            .map(|_| {
                let e = &campaign.entries[rng.below(campaign.entries.len())];
                format!("{}/model_{}", e.sequence.id, 1 + rng.below(5))
            })
            .collect();
        Inputs {
            jsonl,
            tasks: 6 * campaign.entries.len() as u64,
            lookups,
        }
    }

    fn tasks(inputs: &Inputs) -> u64 {
        inputs.tasks
    }

    fn prepare(_inputs: &Inputs, _scratch: &Scratch) {}

    fn run(inputs: &Inputs, (): ()) -> Output {
        operator_pass(inputs)
    }

    fn check(inputs: &Inputs, out: &Output) -> Check {
        let mut check = Check::of(inputs.tasks);
        let journeys = out.journeys as u64;
        if journeys != inputs.tasks {
            check.fail(
                journeys.abs_diff(inputs.tasks),
                format!("{journeys} journeys for {} task executions", inputs.tasks),
            );
        }
        let identity = out
            .critical_path
            .as_ref()
            .is_some_and(CriticalPath::identity_holds);
        check.require(identity, || {
            "critical-path accounting identity violated".to_owned()
        });
        check.require(!out.truncated, || {
            "a complete trace reads as truncated".to_owned()
        });
        check.require(out.imbalance_workers > 0, || {
            "imbalance report has no workers".to_owned()
        });
        check.require(out.found == inputs.lookups.len(), || {
            format!(
                "journey_of found {} of {} tasks",
                out.found,
                inputs.lookups.len()
            )
        });
        check.require(out.diff_regressions == 0, || {
            "a trace regressed against itself".to_owned()
        });
        let round_trip = Trace::parse_jsonl(&out.trace.to_jsonl()).map(|t| t.events().len());
        check.require(
            round_trip.as_ref().ok() == Some(&out.trace.events().len()),
            || {
                format!(
                    "parse(to_jsonl) gave {round_trip:?} of {} events",
                    out.trace.events().len()
                )
            },
        );
        check
    }

    fn model_makespan_s(_inputs: &Inputs, out: &Output) -> f64 {
        out.critical_path.as_ref().map_or(0.0, |cp| cp.makespan_s)
    }

    fn traced(inputs: &Inputs, plain: &Output, _scratch: &Scratch, m: &mut Metrics) -> Check {
        let out = operator_pass(inputs);
        let mut check = Check::of(1);
        check.require(out.critical_path == plain.critical_path, || {
            "traced pass found a different critical path".to_owned()
        });
        // The flat-object parser underneath `parse_jsonl` (and the
        // service's WAL replay), line by line.
        let lines = inputs.jsonl.lines().count() as f64;
        in_span("obs.json.parse_object", || {
            for line in inputs.jsonl.lines() {
                let _ = std::hint::black_box(parse_object(line));
            }
        });

        let t = spans::totals_so_far();
        let total = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
        let parse_s = total("obs.trace.parse_jsonl");
        let journeys_s = total("obs.lineage.journeys_of");
        let (cp_s, imb_s) = (
            total("obs.lineage.critical_path_of"),
            total("obs.lineage.imbalance_of"),
        );
        m.set("obs.trace.parse_ns_per_line", parse_s * 1e9 / lines);
        m.set(
            "obs.trace.parse_mb_per_s",
            inputs.jsonl.len() as f64 / 1e6 / parse_s,
        );
        m.set(
            "obs.json.parse_object_ns_per_line",
            total("obs.json.parse_object") * 1e9 / lines,
        );
        m.set("obs.lineage.journeys_ms", journeys_s * 1e3);
        m.set("obs.lineage.critical_path_ms", cp_s * 1e3);
        m.set("obs.lineage.imbalance_ms", imb_s * 1e3);
        m.set(
            "obs.lineage.journey_of_ms",
            total("obs.lineage.journey_of") * 1e3 / LOOKUPS as f64,
        );
        m.set("obs.lineage.refold_ratio", (cp_s + imb_s) / journeys_s);
        m.set("obs.trace.diff_ms", total("obs.trace.diff") * 1e3);

        m.layer_time("obs.json+trace", parse_s + total("obs.trace.diff"));
        m.layer_time(
            "obs.lineage",
            total("obs.lineage.truncation_of")
                + journeys_s
                + cp_s
                + imb_s
                + total("obs.lineage.journey_of"),
        );
        check
    }
}
