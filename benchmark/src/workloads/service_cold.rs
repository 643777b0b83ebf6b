//! `service_cold` — the write path of the folding service.
//!
//! Three tenants (weights 2:1:1, two of them `cached()`) submit two
//! model runs per target at staggered arrivals to a `FoldingService`
//! with a write-ahead log and an **empty** `Store`; the service runs on
//! the `VirtualExecutor` to full settlement, then
//! `FoldingService::resume` replays the completed WAL. Admit → settle,
//! WAL append, `Store::put`, `dataflow::source` fair share and WAL replay
//! dominate: zero `get` hits and zero `near_lookup`.
//!
//! The cached tenants are kept small on purpose. Every `put` creates a
//! file; scratch space has to sit inside the checkout, and on its ext4
//! disk one create-and-rename costs about 0.5 ms against 16 µs of
//! program time (as measured on tmpfs), and varies from run to run. With
//! large cached campaigns the workload would measure the file system.
//! WAL appends and blob reads cost the same on both.

use super::{dir_bytes, stratified_pick, Check, Metrics, Scratch, Size, Workload};
use crate::spans::{self, in_span};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use summitfold_dataflow::sim::VirtualExecutor;
use summitfold_dataflow::{ClassConfig, Pull, SubmissionQueue, TaskSpec};
use summitfold_hpc::service::{
    FoldingService, RecoveryReport, ServiceConfig, ServiceOutcome, TenantSpec,
};
use summitfold_obs::json::parse_object;
use summitfold_obs::Recorder;
use summitfold_protein::proteome::{ProteinEntry, Proteome, Species};
use summitfold_protein::rng::{fnv1a, Xoshiro256};
use summitfold_store::{Artifact, Store};

/// Models submitted per target (the paper's 35,634 targets × 2).
const MODELS_PER_TARGET: usize = 2;
/// Virtual workers: Table 1's 32-node benchmark allocation.
const WORKERS: usize = 192;

/// The workload marker type.
pub struct ServiceCold;

/// One tenant's scripted campaign.
struct Campaign {
    tenant: TenantSpec,
    arrival: f64,
    specs: Vec<TaskSpec>,
}

/// Inputs of one run.
pub struct Inputs {
    campaigns: Vec<Campaign>,
    size: Size,
}

/// One repeat's outputs: both service incarnations, kept for checking.
pub struct Output {
    live: FoldingService,
    outcome: ServiceOutcome,
    resumed: FoldingService,
    recovery: RecoveryReport,
    dir: PathBuf,
}

fn campaign_specs(
    species: Species,
    scale: f64,
    keep: usize,
    rng: &mut Xoshiro256,
) -> Vec<TaskSpec> {
    let proteome = Proteome::generate_scaled(species, scale);
    let pool: Vec<&ProteinEntry> = proteome.proteins.iter().collect();
    stratified_pick(&pool, |e| e.sequence.len(), keep, rng)
        .into_iter()
        .flat_map(|e| {
            (1..=MODELS_PER_TARGET).map(|model| {
                TaskSpec::new(
                    format!("{}/model_{model}", e.sequence.id),
                    e.sequence.len() as f64,
                )
            })
        })
        .collect()
}

impl Inputs {
    fn tenants(&self) -> Vec<TenantSpec> {
        self.campaigns.iter().map(|c| c.tenant.clone()).collect()
    }

    fn config(&self, dir: &Path, store: &Arc<Store>) -> ServiceConfig {
        ServiceConfig {
            workers: WORKERS,
            max_queue_depth: usize::MAX,
            store: Some(Arc::clone(store)),
            dir: Some(dir.join("service")),
            ..ServiceConfig::default()
        }
    }

    fn cached_tasks(&self) -> usize {
        self.campaigns
            .iter()
            .filter(|c| c.tenant.cached)
            .map(|c| c.specs.len())
            .sum()
    }
}

fn run_service(inputs: &Inputs, dir: PathBuf) -> Output {
    let store = Arc::new(Store::open(dir.join("store")).expect("empty store opens"));
    let live = FoldingService::new(
        inputs.config(&dir, &store),
        inputs.tenants(),
        Arc::new(Recorder::virtual_time()),
    )
    .expect("the tenant table is well-formed");
    in_span("hpc.service.admit", || {
        for c in &inputs.campaigns {
            live.submit(&c.tenant.name, "c0", c.arrival, c.specs.clone())
                .expect("quota and queue depth admit every campaign");
        }
    });
    let outcome = in_span("hpc.service.drain", || live.run(&VirtualExecutor::new(0.0)))
        .expect("a closed queue drains");
    let (resumed, recovery) = in_span("hpc.service.resume", || {
        FoldingService::resume(
            inputs.config(&dir, &store),
            inputs.tenants(),
            Arc::new(Recorder::virtual_time()),
        )
    })
    .expect("the completed WAL replays");
    Output {
        live,
        outcome,
        resumed,
        recovery,
        dir,
    }
}

impl Workload for ServiceCold {
    const NAME: &'static str = "service_cold";
    type Inputs = Inputs;
    type Prepared = PathBuf;
    type Output = Output;

    fn setup(seed: u64, size: Size, _scratch: &Scratch) -> Inputs {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ fnv1a(b"service_cold"));
        // (tenant, weight, cached, species, proteome scale, targets kept)
        let script = [
            (
                "plant",
                2.0,
                false,
                Species::SDivinum,
                size.pick(1.0, 0.01),
                size.pick(20_000, 150),
            ),
            (
                "sulfate",
                1.0,
                true,
                Species::DVulgaris,
                size.pick(0.2, 0.02),
                size.pick(25, 10),
            ),
            (
                "photo",
                1.0,
                true,
                Species::RRubrum,
                size.pick(0.2, 0.02),
                size.pick(25, 10),
            ),
        ];
        let campaigns = script
            .into_iter()
            .enumerate()
            .map(|(k, (name, weight, cached, species, scale, keep))| {
                let tenant = TenantSpec::new(name, weight, 1e9);
                Campaign {
                    tenant: if cached { tenant.cached() } else { tenant },
                    arrival: 600.0 * k as f64,
                    specs: campaign_specs(species, scale, keep, &mut rng),
                }
            })
            .collect();
        Inputs { campaigns, size }
    }

    fn tasks(inputs: &Inputs) -> u64 {
        inputs.campaigns.iter().map(|c| c.specs.len() as u64).sum()
    }

    fn prepare(_inputs: &Inputs, scratch: &Scratch) -> PathBuf {
        scratch.fresh("service")
    }

    fn run(inputs: &Inputs, dir: PathBuf) -> Output {
        run_service(inputs, dir)
    }

    fn check(inputs: &Inputs, out: &Output) -> Check {
        let tasks = Self::tasks(inputs);
        let mut check = Check::of(tasks);
        let mut ids: Vec<&str> = out
            .outcome
            .outcome
            .records
            .iter()
            .map(|r| r.task_id.as_str())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() as u64 != tasks {
            check.fail(
                tasks.abs_diff(ids.len() as u64),
                format!("{} distinct settled tasks of {tasks} admitted", ids.len()),
            );
        }
        for c in &inputs.campaigns {
            let done = out
                .live
                .tenant_status(&c.tenant.name)
                .map_or(0, |s| s.completed_tasks);
            check.require(done == c.specs.len(), || {
                format!(
                    "tenant {} settled {done} of {}",
                    c.tenant.name,
                    c.specs.len()
                )
            });
        }
        check.require(out.recovery.requeued_tasks == 0, || {
            format!(
                "resume requeued {} settled tasks",
                out.recovery.requeued_tasks
            )
        });
        check.require(out.recovery.replayed_settlements as u64 == tasks, || {
            format!(
                "resume replayed {} of {tasks} settlements",
                out.recovery.replayed_settlements
            )
        });
        check.require(
            out.resumed.settlement_trace() == out.live.settlement_trace(),
            || "resumed settlement trace differs from the live one".to_owned(),
        );
        check
    }

    fn model_makespan_s(_inputs: &Inputs, out: &Output) -> f64 {
        out.outcome.outcome.makespan
    }

    fn traced(inputs: &Inputs, plain: &Output, scratch: &Scratch, m: &mut Metrics) -> Check {
        let tasks = Self::tasks(inputs) as f64;
        let out = run_service(inputs, scratch.fresh("service-traced"));
        let mut check = Check::of(1);
        check.require(
            out.live.settlement_trace() == plain.live.settlement_trace(),
            || "traced service settled differently from the untraced one".to_owned(),
        );
        let wal = std::fs::read_to_string(out.dir.join("service").join("service.jsonl"))
            .unwrap_or_default();

        // The layers underneath, on the same task list: the store's put
        // path, the fair-share queue, and the WAL's line parser.
        let puts = inputs.size.pick(1_000, 100);
        let artifacts: Vec<Artifact> = inputs
            .campaigns
            .iter()
            .flat_map(|c| c.specs.iter().map(|s| (&c.tenant.name, s)))
            .take(puts)
            .map(|(tenant, s)| {
                Artifact::new(
                    "fold",
                    "service",
                    &format!("{tenant}|{}|{}", s.id, s.cost_hint),
                    vec![format!("{}", s.cost_hint)],
                )
            })
            .collect();
        let put_dir = scratch.fresh("puts");
        let store = Store::open(&put_dir).expect("empty store opens");
        in_span("store.put", || {
            for a in &artifacts {
                store
                    .put(a, Recorder::disabled())
                    .expect("put into a fresh store succeeds");
            }
        });
        in_span("dataflow.source.cycle", || {
            let classes: Vec<ClassConfig> = inputs
                .campaigns
                .iter()
                .map(|c| ClassConfig {
                    weight: c.tenant.weight,
                    priority: c.tenant.priority,
                })
                .collect();
            let queue = SubmissionQueue::with_classes(&classes);
            for (class, c) in inputs.campaigns.iter().enumerate() {
                queue
                    .submit(class, c.arrival, c.specs.iter().cloned())
                    .expect("open queue accepts");
            }
            queue.close();
            while let Pull::Task(d) = queue.pull(f64::MAX) {
                std::hint::black_box(d);
            }
        });
        in_span("obs.json.parse_object", || {
            for line in wal.lines() {
                let _ = std::hint::black_box(parse_object(line));
            }
        });

        let t = spans::totals_so_far();
        let total = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
        let (admit_s, drain_s, resume_s) = (
            total("hpc.service.admit"),
            total("hpc.service.drain"),
            total("hpc.service.resume"),
        );
        let put_s_per_op = total("store.put") / artifacts.len() as f64;
        m.set("hpc.service.admit_us_per_task", admit_s * 1e6 / tasks);
        m.set("hpc.service.drain_us_per_task", drain_s * 1e6 / tasks);
        m.set("hpc.service.resume_us_per_task", resume_s * 1e6 / tasks);
        m.set("hpc.service.wal_bytes_per_task", wal.len() as f64 / tasks);
        let settled: usize = inputs
            .campaigns
            .iter()
            .map(|c| {
                out.live
                    .tenant_status(&c.tenant.name)
                    .map_or(0, |s| s.completed_tasks)
            })
            .sum();
        m.set("hpc.service.settled_share", settled as f64 / tasks);
        m.set("store.put.us_per_op", put_s_per_op * 1e6);
        m.set(
            "store.bytes_per_put",
            dir_bytes(&put_dir) as f64 / artifacts.len() as f64,
        );
        m.set(
            "dataflow.source.cycle_ns_per_task",
            total("dataflow.source.cycle") * 1e9 / tasks,
        );
        m.set(
            "obs.json.parse_object_ns_per_line",
            total("obs.json.parse_object") * 1e9 / wal.lines().count().max(1) as f64,
        );

        let store_s = put_s_per_op * inputs.cached_tasks() as f64;
        let (source_s, json_s) = (
            total("dataflow.source.cycle"),
            total("obs.json.parse_object"),
        );
        m.layer_time("store", store_s);
        m.layer_time("dataflow", source_s);
        m.layer_time("obs", json_s);
        m.layer_time(
            "hpc",
            admit_s + drain_s + resume_s - store_s - source_s - json_s,
        );
        check
    }
}
