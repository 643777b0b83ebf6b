//! The multi-tenant folding service.
//!
//! The paper's deployment is one group's campaign on a reserved
//! allocation; ROADMAP item 1 pivots the same machinery toward
//! *folding-as-a-service*: a long-running service that accepts
//! prediction campaigns from several tenants concurrently, schedules
//! them with weighted fair share, and accounts every node-hour against
//! per-tenant quotas.
//!
//! [`FoldingService`] composes three existing layers:
//!
//! * a [`SubmissionQueue`](summitfold_dataflow::SubmissionQueue) with
//!   one scheduling class per tenant (weight + priority from the
//!   [`TenantSpec`]), drained by either executor through
//!   [`Executor::run_live`](summitfold_dataflow::Executor);
//! * one [`Ledger`] per tenant charging modeled node-seconds on
//!   [`Machine::Summit`], so quota checks and post-run accounting use
//!   the same unit the paper budgets in;
//! * one [`Monitor`] per tenant, fed the tenant's completion records at
//!   settlement, as the tenant-facing status endpoint.
//!
//! # Admission control
//!
//! A campaign is admitted only if (a) the tenant's node-hour quota
//! covers it — every already-admitted campaign holds its reservation
//! until the service is dropped — and (b) the queue has room under the
//! configured depth limit (backpressure). Both rejections are typed
//! ([`ServiceError::QuotaExceeded`], [`ServiceError::Saturated`]) and
//! counted (`service/rejected_quota`, `service/rejected_saturated`).
//!
//! # Determinism
//!
//! On the virtual executor a service run is a pure function of the
//! submission script: admission decisions, the dispatch sequence, task
//! timings, settlement order, and therefore the entire telemetry trace
//! replay byte-identically. The thread backend keeps the same dispatch
//! *order* under due arrivals but wall timings differ run to run.
//!
//! # Crash recovery: log → record → apply
//!
//! With [`ServiceConfig::dir`] set, the service keeps a write-ahead log
//! (`service.jsonl`): a [`summitfold_dataflow::log::Log`] of sealed
//! lines, with one private `Record` type (one encoder, one decoder) for
//! the six line kinds. Service state changes *only* by applying a
//! record, through two transitions — apply-admission and
//! apply-settlement — that are the only code touching the attribution
//! and settled maps, tenant tallies, ledgers, monitors, lineage
//! breadcrumbs, the store refile and the admission counters:
//!
//! * [`FoldingService::submit`] = decide (kill point, cache lookups,
//!   quota, backpressure) → append → apply-admission;
//! * settlement = kill point → append → apply-settlement, per record;
//! * [`FoldingService::resume`] = for each recovered record → apply.
//!
//! A resumed service therefore equals an uninterrupted one by
//! construction. What legitimately differs between live and replay is
//! passed to the transitions as data: the *already-settled set* (empty
//! live; on replay, tasks whose `settle` line is on the log are reserved
//! and attributed but neither looked up nor requeued) and the
//! *settlement instant* of the `lineage/settled` breadcrumb (`t0 + end`
//! live; the span-relative `end` on replay, the batch origin having died
//! with the process). The post-put liveness check is the same on both
//! paths: a fault handle that dies during a refile stops a resume as it
//! stops a live settlement.
//!
//! Durable state never runs ahead of the log: a campaign's `task` lines
//! are committed by the trailing `admit` line in one gated append (a
//! crash mid-append leaves whole `task` lines with no `admit`; replay
//! gives an `admit` only the lines written with it, so the orphans are
//! ignored even once later admissions sit right behind them); a `settle`
//! line is written *before* the artifact is filed, so store-has-artifact
//! implies WAL-has-settlement and settled work is never re-charged;
//! memory is applied only after the append landed.
//! Replay is idempotent, drops a torn tail (the log's rule), skips and
//! counts lines whose seal fails, and requeues un-settled tasks at their
//! original arrivals, so on the virtual executor a killed-and-resumed
//! session converges to the same canonical
//! [`settlement_trace`](FoldingService::settlement_trace). Injected
//! faults ([`summitfold_dataflow::chaos`]) enter through
//! [`ServiceConfig::faults`]: the WAL append (`service/wal`) and the
//! `service/admit` / `service/settle` kill points observe the same
//! deterministic schedule as the store.

use crate::ledger::Ledger;
use crate::machine::Machine;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use summitfold_dataflow::chaos::{IoFaults, WriteOutcome};
use summitfold_dataflow::log::Log;
use summitfold_dataflow::{
    BatchError, BatchOutcome, ClassConfig, DispatchEntry, Executor, LiveRun, SubmissionQueue,
    SubmitError, TaskRecord, TaskSpec,
};
use summitfold_obs::json::{self, ObjectWriter, Seal};
use summitfold_obs::{lineage, Event, HealthSnapshot, Monitor, MonitorConfig, Recorder, Sink as _};
use summitfold_store::{Artifact, Store};

/// Stage label every service charge is booked under.
const STAGE: &str = "fold";

/// File name of the service write-ahead log under
/// [`ServiceConfig::dir`].
const WAL_FILE: &str = "service.jsonl";

/// Store preset under which service results are filed. One namespace
/// for the whole service: cache identity is carried by the artifact
/// content (tenant, task id, modeled cost), never by campaign name, so
/// a resubmitted campaign hits regardless of what it is called.
const STORE_PRESET: &str = "service";

/// One tenant of the folding service.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name; must be unique and non-empty. Task ids are
    /// namespaced as `{tenant}:{campaign}:{task}`.
    pub name: String,
    /// Fair-share weight (relative node-seconds under contention).
    /// Must be finite and positive.
    pub weight: f64,
    /// Priority tier; all eligible work of a higher tier dispatches
    /// before any lower tier.
    pub priority: u32,
    /// Node-hour quota: admission ceiling over the service lifetime.
    /// Must be finite and non-negative.
    pub quota_node_hours: f64,
    /// Opt this tenant into the result store: settled tasks are filed
    /// under a campaign-independent key and a resubmission of the same
    /// work settles from cache at admission time — no queue slot, no
    /// quota reservation, no charge. Ignored unless the service was
    /// built with [`ServiceConfig::store`].
    pub cached: bool,
}

impl TenantSpec {
    /// A priority-0 tenant with the given share weight and quota.
    #[must_use]
    pub fn new(name: impl Into<String>, weight: f64, quota_node_hours: f64) -> Self {
        Self {
            name: name.into(),
            weight,
            priority: 0,
            quota_node_hours,
            cached: false,
        }
    }

    /// Set the priority tier.
    #[must_use]
    pub fn priority(mut self, tier: u32) -> Self {
        self.priority = tier;
        self
    }

    /// Opt into the service's result store (see [`TenantSpec::cached`]).
    #[must_use]
    pub fn cached(mut self) -> Self {
        self.cached = true;
        self
    }
}

/// Service-level knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Workers pulling from the shared queue.
    pub workers: usize,
    /// Backpressure limit: a submission that would leave more than
    /// this many tasks queued is rejected as
    /// [`ServiceError::Saturated`].
    pub max_queue_depth: usize,
    /// Span label for the run's trace.
    pub label: String,
    /// Optional result store shared by every [`cached`]
    /// (TenantSpec::cached) tenant. `None` (the default) disables
    /// caching service-wide and leaves behavior — including the
    /// telemetry trace — exactly as before the store existed.
    pub store: Option<Arc<Store>>,
    /// Optional service directory. When set, the service keeps a
    /// write-ahead log at `dir/service.jsonl`: [`FoldingService::new`]
    /// starts a fresh log, [`FoldingService::resume`] replays an
    /// existing one. `None` (the default) disables the WAL and crash
    /// recovery entirely.
    pub dir: Option<PathBuf>,
    /// Fault-injection handle for the WAL write path and the
    /// `service/admit` / `service/settle` kill points. The default
    /// no-op handle is free; chaos tests arm a
    /// [`FaultPlan`](summitfold_dataflow::chaos::FaultPlan) and clone
    /// the same handle into the store so both layers observe one
    /// deterministic schedule.
    pub faults: IoFaults,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_queue_depth: 4096,
            label: "service".to_owned(),
            store: None,
            dir: None,
            faults: IoFaults::none(),
        }
    }
}

/// Typed errors of the service API.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The service was constructed with no tenants.
    NoTenants,
    /// Two tenants share a name, or a name is empty.
    BadTenantName {
        /// The offending name.
        tenant: String,
    },
    /// A tenant's weight is not finite and positive.
    InvalidWeight {
        /// The tenant.
        tenant: String,
        /// The offending weight.
        weight: f64,
    },
    /// A tenant's quota is not finite and non-negative.
    InvalidQuota {
        /// The tenant.
        tenant: String,
        /// The offending quota.
        quota_node_hours: f64,
    },
    /// A submission named a tenant the service does not know.
    UnknownTenant {
        /// The offending name.
        tenant: String,
    },
    /// The campaign would overrun the tenant's node-hour quota.
    QuotaExceeded {
        /// The tenant.
        tenant: String,
        /// Node-hours the campaign asked for.
        requested_node_hours: f64,
        /// Node-hours still unreserved under the quota.
        remaining_node_hours: f64,
    },
    /// The queue is full: admitting the campaign would exceed the
    /// configured depth limit.
    Saturated {
        /// Tasks currently queued.
        queued: usize,
        /// The configured depth limit.
        limit: usize,
    },
    /// The underlying queue rejected the submission.
    Submit(SubmitError),
    /// The underlying executor rejected the run.
    Run(BatchError),
    /// `run`/`serve` was called a second time.
    AlreadyRan,
    /// An injected fault ([`ServiceConfig::faults`]) killed the
    /// process at a named code point; the operation did not complete
    /// and the service object models a dead process.
    Killed {
        /// The fault point that fired (e.g. `service/admit`).
        point: String,
    },
    /// The write-ahead log could not be appended.
    Wal {
        /// What went wrong with the append.
        message: String,
    },
    /// [`FoldingService::resume`] found no write-ahead log to replay.
    RecoveryUnavailable {
        /// Why recovery cannot proceed.
        reason: String,
    },
    /// The write-ahead log belongs to a differently-configured
    /// service: tenant roster or service shape does not match.
    RecoveryMismatch {
        /// The first divergence found.
        reason: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoTenants => write!(f, "a folding service needs at least one tenant"),
            Self::BadTenantName { tenant } => {
                write!(f, "tenant name {tenant:?} is empty or duplicated")
            }
            Self::InvalidWeight { tenant, weight } => {
                write!(f, "tenant {tenant}: weight {weight} is not finite and positive")
            }
            Self::InvalidQuota {
                tenant,
                quota_node_hours,
            } => write!(
                f,
                "tenant {tenant}: quota {quota_node_hours} node-hours is not finite and non-negative"
            ),
            Self::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant:?}"),
            Self::QuotaExceeded {
                tenant,
                requested_node_hours,
                remaining_node_hours,
            } => write!(
                f,
                "tenant {tenant}: campaign needs {requested_node_hours:.3} node-hours, \
                 quota has {remaining_node_hours:.3} left"
            ),
            Self::Saturated { queued, limit } => {
                write!(f, "service saturated: {queued} tasks queued, limit {limit}")
            }
            Self::Submit(e) => write!(f, "submission rejected: {e}"),
            Self::Run(e) => write!(f, "run rejected: {e}"),
            Self::AlreadyRan => write!(f, "the service has already run"),
            Self::Killed { point } => {
                write!(f, "injected fault killed the service at {point}")
            }
            Self::Wal { message } => write!(f, "service WAL append failed: {message}"),
            Self::RecoveryUnavailable { reason } => {
                write!(f, "service recovery unavailable: {reason}")
            }
            Self::RecoveryMismatch { reason } => {
                write!(f, "service WAL does not match this service: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Submit(e) => Some(e),
            Self::Run(e) => Some(e),
            _ => None,
        }
    }
}

/// Tenant-facing status: quota position plus the tenant's health
/// snapshot — the "status endpoint" of the service.
#[derive(Debug, Clone)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// The quota the tenant was registered with.
    pub quota_node_hours: f64,
    /// Node-hours reserved by admitted campaigns (≤ quota).
    pub admitted_node_hours: f64,
    /// Node-hours actually charged for completed tasks so far.
    pub charged_node_hours: f64,
    /// Completed tasks settled to this tenant.
    pub completed_tasks: usize,
    /// Tasks settled straight from the result store at admission time
    /// (never queued, never charged). Always 0 for uncached tenants.
    pub cached_tasks: usize,
    /// Campaigns admitted for this tenant.
    pub campaigns: usize,
    /// Health snapshot folded from the tenant's completion records.
    pub snapshot: HealthSnapshot,
}

/// What a service run returns: the executor outcome plus the service
/// view of it.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The raw executor outcome (records, makespan, …).
    pub outcome: BatchOutcome<()>,
    /// Dispatch log of the run: order of service across tenants, with
    /// modeled cost per dispatch — the fair-share measurement.
    pub dispatch_log: Vec<DispatchEntry>,
}

/// What [`FoldingService::resume`] reconstructed from the WAL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Admitted campaigns replayed from committed `admit` blocks.
    pub replayed_campaigns: usize,
    /// Settlements replayed (charged once, never twice).
    pub replayed_settlements: usize,
    /// Rejections replayed (counter re-emission only).
    pub replayed_rejections: usize,
    /// Admitted-but-unsettled tasks put back on the queue.
    pub requeued_tasks: usize,
    /// Fully-written WAL lines that failed their seal or shape check
    /// and were skipped.
    pub wal_corrupt_lines: usize,
    /// Whether a torn (partial) final line was dropped and truncated.
    pub wal_torn_tail: bool,
}

#[derive(Debug)]
struct TenantState {
    spec: TenantSpec,
    /// Node-seconds reserved by admitted campaigns.
    admitted_node_seconds: f64,
    campaigns: usize,
    completed_tasks: usize,
    cached_tasks: usize,
    ledger: Ledger,
    monitor: Monitor,
}

#[derive(Debug)]
struct State {
    tenants: Vec<TenantState>,
    /// Full task id → (tenant index, modeled cost in node-seconds).
    /// BTreeMap so iteration (and thus any derived output) is
    /// deterministic.
    attribution: BTreeMap<String, (usize, f64)>,
    /// Full task id → (tenant index, charged cost) of every settled
    /// task — the dedupe set behind exactly-once settlement and the
    /// body of [`FoldingService::settlement_trace`].
    settled: BTreeMap<String, (usize, f64)>,
    ran: bool,
}

/// One WAL line; `encode` and `decode` alone know the wire format.
/// Where a line *is* one of the workspace's own types — `open` the
/// shape fields of a [`ServiceConfig`], `tenant` a [`TenantSpec`],
/// `task` a [`TaskSpec`], `settle` a completion [`TaskRecord`] plus the
/// cost charged — that type is the payload, borrowed when writing and
/// owned when read back.
#[derive(Debug)]
enum Record<'a> {
    /// Header: the service shape (label, workers, queue depth).
    Open(Cow<'a, ServiceConfig>),
    /// Roster: one registered tenant.
    Tenant(Cow<'a, TenantSpec>),
    /// One task of the admission block the next `Admit` commits.
    Task(Cow<'a, TaskSpec>),
    /// Commits the preceding `tasks` task lines as one campaign.
    Admit {
        tenant: String,
        campaign: String,
        arrival: f64,
        tasks: usize,
    },
    /// A typed rejection (`quota` or `saturated`).
    Reject { tenant: String, kind: String },
    /// One settled task (full task id) and the cost charged for it.
    Settle(Cow<'a, TaskRecord>, f64),
}

/// The WAL stores finite numbers only.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl Record<'_> {
    fn encode(&self) -> String {
        let mut w = ObjectWriter::new();
        match self {
            Self::Open(cfg) => {
                w.str_field("event", "open");
                w.str_field("label", &cfg.label);
                w.int_field("workers", cfg.workers as u64);
                w.int_field("depth", cfg.max_queue_depth as u64);
            }
            Self::Tenant(t) => {
                w.str_field("event", "tenant");
                w.str_field("name", &t.name);
                w.num_field("weight", t.weight);
                w.int_field("priority", u64::from(t.priority));
                w.num_field("quota", t.quota_node_hours);
                w.int_field("cached", u64::from(t.cached));
            }
            Self::Task(t) => {
                w.str_field("event", "task");
                w.str_field("task", &t.id);
                w.num_field("cost", finite(t.cost_hint));
            }
            Self::Admit {
                tenant,
                campaign,
                arrival,
                tasks,
            } => {
                w.str_field("event", "admit");
                w.str_field("tenant", tenant);
                w.str_field("campaign", campaign);
                w.num_field("arrival", finite(*arrival));
                w.int_field("tasks", *tasks as u64);
            }
            Self::Reject { tenant, kind } => {
                w.str_field("event", "reject");
                w.str_field("tenant", tenant);
                w.str_field("kind", kind);
            }
            Self::Settle(r, cost) => {
                w.str_field("event", "settle");
                w.str_field("task", &r.task_id);
                w.num_field("cost", *cost);
                w.int_field("worker", r.worker_id as u64);
                w.num_field("start", r.start);
                w.num_field("end", r.end);
                w.int_field("attempts", u64::from(r.attempts));
            }
        }
        w.finish_sealed()
    }

    /// `None` unless the line's seal verifies and it is a well-formed
    /// record: every WAL line is written sealed, so `Absent` means
    /// corrupt, not legacy.
    fn decode(line: &str, seal: Seal) -> Option<Self> {
        let obj = json::parse_object(line)
            .ok()
            .filter(|_| seal == Seal::Valid)?;
        let owned = |key: &str| obj.str(key).ok().map(str::to_owned);
        Some(match obj.str("event").ok()? {
            "open" => Self::Open(Cow::Owned(ServiceConfig {
                label: owned("label")?,
                workers: obj.uint("workers").ok()?,
                max_queue_depth: obj.uint("depth").ok()?,
                ..ServiceConfig::default()
            })),
            "tenant" => Self::Tenant(Cow::Owned(TenantSpec {
                name: owned("name")?,
                weight: obj.num("weight").ok()?,
                priority: obj.uint("priority").ok()?,
                quota_node_hours: obj.num("quota").ok()?,
                cached: obj.flag("cached").ok()?,
            })),
            "task" => Self::Task(Cow::Owned(TaskSpec::new(
                owned("task")?,
                obj.num("cost").ok()?,
            ))),
            "admit" => Self::Admit {
                tenant: owned("tenant")?,
                campaign: owned("campaign")?,
                arrival: obj.num("arrival").ok()?,
                tasks: obj.uint("tasks").ok()?,
            },
            "reject" => Self::Reject {
                tenant: owned("tenant")?,
                kind: owned("kind")?,
            },
            "settle" => Self::Settle(
                Cow::Owned(TaskRecord {
                    task_id: owned("task")?,
                    worker_id: obj.uint("worker").ok()?,
                    start: obj.num("start").ok()?,
                    end: obj.num("end").ok()?,
                    attempts: obj.uint("attempts").ok()?,
                }),
                obj.num("cost").ok()?,
            ),
            _ => return None,
        })
    }
}

/// A campaign's task block under its service-wide ids,
/// `{tenant}:{campaign}:{task}`.
fn namespaced(tenant: &str, campaign: &str, specs: &[TaskSpec]) -> Vec<TaskSpec> {
    let full = |s: &TaskSpec| TaskSpec::new(format!("{tenant}:{campaign}:{}", s.id), s.cost_hint);
    specs.iter().map(full).collect()
}

/// A long-running, multi-tenant folding service. See the
/// [module docs](self) for the architecture.
///
/// The service is `Sync`: share it behind an [`Arc`] and call
/// [`submit`](Self::submit) from concurrent submitter threads while
/// [`serve`](Self::serve) drains the queue on the thread backend.
#[derive(Debug)]
pub struct FoldingService {
    cfg: ServiceConfig,
    queue: SubmissionQueue,
    recorder: Arc<Recorder>,
    /// The write-ahead log, if [`ServiceConfig::dir`] is set. Appends
    /// happen under the state guard: total-ordered on disk.
    wal: Option<Log>,
    state: Mutex<State>,
}

impl FoldingService {
    /// Build a service for `tenants`, validating names, weights and
    /// quotas. Telemetry (admission counters, the run trace) goes to
    /// `recorder`.
    ///
    /// With [`ServiceConfig::dir`] set, a *fresh* write-ahead log is
    /// started (any existing `service.jsonl` is truncated — use
    /// [`resume`](Self::resume) to continue one instead).
    pub fn new(
        cfg: ServiceConfig,
        tenants: Vec<TenantSpec>,
        recorder: Arc<Recorder>,
    ) -> Result<Self, ServiceError> {
        let mut svc = Self::build(cfg, tenants, recorder)?;
        if let Some(path) = wal_path(&svc.cfg) {
            let wal = Log::create(path.clone(), "service/wal", svc.cfg.faults.clone());
            svc.wal = Some(wal.map_err(|e| ServiceError::Wal {
                message: format!("start {}: {e}", path.display()),
            })?);
            svc.wal_append(&svc.header(&svc.lock()))?;
        }
        Ok(svc)
    }

    /// Construct the in-memory service without touching the WAL.
    fn build(
        cfg: ServiceConfig,
        tenants: Vec<TenantSpec>,
        recorder: Arc<Recorder>,
    ) -> Result<Self, ServiceError> {
        if tenants.is_empty() {
            return Err(ServiceError::NoTenants);
        }
        for (i, t) in tenants.iter().enumerate() {
            if t.name.is_empty() || tenants[..i].iter().any(|u| u.name == t.name) {
                return Err(ServiceError::BadTenantName {
                    tenant: t.name.clone(),
                });
            }
            if !t.weight.is_finite() || t.weight <= 0.0 {
                return Err(ServiceError::InvalidWeight {
                    tenant: t.name.clone(),
                    weight: t.weight,
                });
            }
            if !t.quota_node_hours.is_finite() || t.quota_node_hours < 0.0 {
                return Err(ServiceError::InvalidQuota {
                    tenant: t.name.clone(),
                    quota_node_hours: t.quota_node_hours,
                });
            }
        }
        let classes: Vec<ClassConfig> = tenants
            .iter()
            .map(|t| ClassConfig {
                weight: t.weight,
                priority: t.priority,
            })
            .collect();
        let workers = cfg.workers;
        let states = tenants
            .into_iter()
            .map(|spec| TenantState {
                spec,
                admitted_node_seconds: 0.0,
                campaigns: 0,
                completed_tasks: 0,
                cached_tasks: 0,
                ledger: Ledger::new(),
                monitor: Monitor::new(MonitorConfig {
                    workers: Some(workers),
                    ..MonitorConfig::default()
                }),
            })
            .collect();
        Ok(Self {
            cfg,
            queue: SubmissionQueue::with_classes(&classes),
            recorder,
            wal: None,
            state: Mutex::new(State {
                tenants: states,
                attribution: BTreeMap::new(),
                settled: BTreeMap::new(),
                ran: false,
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Admission and settlement are short, total-ordered sections;
        // state survives a poisoning panic consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The WAL's header block — the service shape, then the roster —
    /// which [`new`](Self::new) writes and [`resume`](Self::resume)
    /// verifies against.
    fn header<'s>(&'s self, state: &'s State) -> Vec<Record<'s>> {
        let roster = state.tenants.iter().map(|t| Cow::Borrowed(&t.spec));
        std::iter::once(Record::Open(Cow::Borrowed(&self.cfg)))
            .chain(roster.map(Record::Tenant))
            .collect()
    }

    /// Append `records` to the WAL as one write, gated by the fault
    /// handle. A torn append persists the prefix and reports the
    /// process killed; nothing in memory may be applied after an `Err`.
    fn wal_append(&self, records: &[Record<'_>]) -> Result<(), ServiceError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let lines: Vec<String> = records.iter().map(Record::encode).collect();
        match wal.append(&lines, &self.recorder) {
            Ok(WriteOutcome::Full) => Ok(()),
            Ok(_) => Err(match self.cfg.faults.kill_reason() {
                Some(point) => ServiceError::Killed { point },
                None => ServiceError::Wal {
                    message: "injected fault failed the append".to_owned(),
                },
            }),
            Err(e) => Err(ServiceError::Wal {
                message: format!("append {}: {e}", wal.path().display()),
            }),
        }
    }

    /// Registered tenant names, in class-id order.
    #[must_use]
    pub fn tenants(&self) -> Vec<String> {
        self.lock()
            .tenants
            .iter()
            .map(|t| t.spec.name.clone())
            .collect()
    }

    /// The campaign-independent store identity of the task with full id
    /// `{tenant}:{campaign}:{task}`: keyed on tenant, raw task id and
    /// modeled cost, never on the campaign name, so a resubmission hits
    /// whatever it is called — at admission lookup and settlement filing.
    fn service_artifact(full_id: &str, cost: f64) -> Option<Artifact> {
        let mut parts = full_id.splitn(3, ':');
        let (tenant, _campaign, task) = (parts.next()?, parts.next()?, parts.next()?);
        let content = format!("{tenant}|{task}|{cost}");
        Some(Artifact::new(
            STAGE,
            STORE_PRESET,
            &content,
            vec![format!("{cost}")],
        ))
    }

    /// Count one rejection of `kind`; `false` if the kind is unknown.
    fn count_rejection(&self, kind: &str) -> bool {
        match kind {
            "quota" => self.recorder.add("service/rejected_quota", 1.0),
            "saturated" => self.recorder.add("service/rejected_saturated", 1.0),
            _ => return false,
        }
        true
    }

    /// Log (best-effort: the typed rejection error dominates a WAL
    /// failure) and count one rejected submission.
    fn reject(&self, tenant: &str, kind: &str) {
        let line = Record::Reject {
            tenant: tenant.to_owned(),
            kind: kind.to_owned(),
        };
        let _ = self.wal_append(&[line]);
        self.count_rejection(kind);
    }

    /// Which tasks of a [`namespaced`] `block` the result store serves,
    /// for a [`cached`](TenantSpec::cached) tenant. The task-scoped
    /// lookup stamps its `lineage/cache_*` breadcrumb with the counted
    /// outcome — a lookup that happened, even if the campaign is later
    /// rejected. Tasks in `settled` already ran and are not looked up.
    fn cache_hits(
        &self,
        cached: bool,
        block: &[TaskSpec],
        settled: &BTreeSet<String>,
    ) -> Vec<bool> {
        let Some(store) = self.cfg.store.as_deref().filter(|_| cached) else {
            return vec![false; block.len()];
        };
        let lookup = |s: &TaskSpec| {
            let artifact = Self::service_artifact(&s.id, s.cost_hint.max(0.0))?;
            store.get_for_task(artifact.key(), &s.id, &self.recorder)
        };
        let hit = |s: &TaskSpec| !settled.contains(&s.id) && lookup(s).is_some();
        block.iter().map(hit).collect()
    }

    /// The admission transition — the only code that reserves quota,
    /// attributes and enqueues tasks, and emits the admission breadcrumbs
    /// and counters. `hits[i]` settles `block[i]` from the store at
    /// admission (no queue slot, reservation or charge); every other
    /// task is reserved and attributed, and enqueued unless `settled`
    /// says it already ran (replay: its charge lands when its settle
    /// record applies). Returns the number of tasks enqueued.
    fn apply_admission(
        &self,
        state: &mut State,
        class: usize,
        arrival: f64,
        block: &[TaskSpec],
        hits: &[bool],
        settled: &BTreeSet<String>,
    ) -> Result<usize, ServiceError> {
        let tasks = || block.iter().zip(hits);
        let enqueue = tasks().filter(|(s, &hit)| !hit && !settled.contains(&s.id));
        let queued = self
            .queue
            .submit(class, arrival, enqueue.map(|(s, _)| s.clone()))
            .map_err(ServiceError::Submit)?;
        // Breadcrumbs only once the WAL append and queue submit both
        // succeeded: a rejected campaign leaves no admission trail. Hits
        // settle at admission, so their journey closes at the arrival.
        let (rec, at) = (&*self.recorder, finite(arrival));
        let (mut reserved, mut live, mut cached) = (0.0_f64, 0usize, 0usize);
        for (s, &hit) in tasks() {
            lineage::admitted(rec, &s.id, at);
            lineage::wal(rec, &s.id, rec.now());
            if hit {
                lineage::settled(rec, &s.id, at);
                cached += 1;
            } else {
                reserved += s.cost_hint.max(0.0);
                live += 1;
                let owed = (class, s.cost_hint.max(0.0));
                state.attribution.insert(s.id.clone(), owed);
            }
        }
        let t = &mut state.tenants[class];
        t.admitted_node_seconds += reserved;
        t.campaigns += 1;
        t.cached_tasks += cached;
        rec.add("service/admitted_campaigns", 1.0);
        rec.add("service/admitted_tasks", live as f64);
        if cached > 0 {
            rec.add("service/cache_settled_tasks", cached as f64);
        }
        Ok(queued)
    }

    /// Submit a campaign for `tenant`: `specs` become dispatchable at
    /// `arrival` (seconds on the executor's clock), namespaced as
    /// `{tenant}:{campaign}:{task}`. Returns the number of admitted
    /// tasks, counting tasks settled straight from the result store.
    ///
    /// When the service holds a [store](ServiceConfig::store) and the
    /// tenant opted in ([`TenantSpec::cached`]), each task is first
    /// looked up under its campaign-independent key: a hit settles at
    /// admission time — no queue slot, no quota reservation, no charge
    /// — and only the misses are enqueued.
    ///
    /// Admission is atomic: on any rejection ([`quota`]
    /// (ServiceError::QuotaExceeded), [backpressure]
    /// (ServiceError::Saturated), queue errors) nothing is enqueued,
    /// nothing is reserved, no hit is settled, and the rejection is
    /// counted.
    pub fn submit(
        &self,
        tenant: &str,
        campaign: &str,
        arrival: f64,
        specs: Vec<TaskSpec>,
    ) -> Result<usize, ServiceError> {
        let mut state = self.lock();
        let Some(class) = state.tenants.iter().position(|t| t.spec.name == tenant) else {
            return Err(ServiceError::UnknownTenant {
                tenant: tenant.to_owned(),
            });
        };
        // Kill point *before* anything durable or visible happens: a
        // process dying here leaves no trace of the campaign at all.
        if self.cfg.faults.kill_point("service/admit", &self.recorder) {
            return Err(ServiceError::Killed {
                point: "service/admit".to_owned(),
            });
        }
        // Decide: cache lookups, then quota and backpressure over the
        // tasks that would actually queue.
        let t = &state.tenants[class];
        let block = namespaced(tenant, campaign, &specs);
        let nothing_settled = BTreeSet::new();
        let hits = self.cache_hits(t.spec.cached, &block, &nothing_settled);
        let live = || specs.iter().zip(&hits).filter(|(_, &hit)| !hit);
        let requested_node_seconds: f64 = live().map(|(s, _)| s.cost_hint.max(0.0)).sum();
        let remaining = t.spec.quota_node_hours * 3600.0 - t.admitted_node_seconds;
        if requested_node_seconds > remaining {
            self.reject(tenant, "quota");
            return Err(ServiceError::QuotaExceeded {
                tenant: tenant.to_owned(),
                requested_node_hours: requested_node_seconds / 3600.0,
                remaining_node_hours: remaining.max(0.0) / 3600.0,
            });
        }
        if self.queue.len() + live().count() > self.cfg.max_queue_depth {
            self.reject(tenant, "saturated");
            return Err(ServiceError::Saturated {
                queued: self.queue.len(),
                limit: self.cfg.max_queue_depth,
            });
        }
        // Append: `task` lines for the whole campaign (hits included —
        // resume re-derives the hit set organically), made real by the
        // trailing `admit` line, all in one gated append. A tear inside
        // the block leaves it uncommitted.
        let tasks = specs.iter().map(Cow::Borrowed).map(Record::Task);
        let admit = Record::Admit {
            tenant: tenant.to_owned(),
            campaign: campaign.to_owned(),
            arrival,
            tasks: specs.len(),
        };
        self.wal_append(&tasks.chain([admit]).collect::<Vec<_>>())?;
        // Apply.
        let queued =
            self.apply_admission(&mut state, class, arrival, &block, &hits, &nothing_settled)?;
        Ok(queued + hits.iter().filter(|&&hit| hit).count())
    }

    /// Close the queue: pending work still drains, further submissions
    /// fail, and workers retire once the queue is empty.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Close the queue, then drain it on `exec`. The deterministic
    /// entry point: with all campaigns scripted up front and a virtual
    /// executor, the whole run (including the telemetry trace) replays
    /// byte-identically.
    pub fn run<E: Executor>(&self, exec: &E) -> Result<ServiceOutcome, ServiceError> {
        self.close();
        self.serve(exec)
    }

    /// Drain the queue on `exec` *without* closing it first: the live
    /// shape, where submitter threads keep calling
    /// [`submit`](Self::submit) while workers pull, and one of them
    /// eventually calls [`close`](Self::close). Only meaningful on the
    /// thread backend — the virtual executor treats an open, empty
    /// queue as end-of-stream.
    pub fn serve<E: Executor>(&self, exec: &E) -> Result<ServiceOutcome, ServiceError> {
        {
            let mut state = self.lock();
            if state.ran {
                return Err(ServiceError::AlreadyRan);
            }
            state.ran = true;
        }
        let outcome = LiveRun::new(&self.queue)
            .workers(self.cfg.workers)
            .recorder(self.recorder.as_ref())
            .label(&self.cfg.label)
            .run(exec)
            .map_err(ServiceError::Run)?;
        self.settle(&outcome)?;
        Ok(ServiceOutcome {
            dispatch_log: self.queue.dispatch_log(),
            outcome,
        })
    }

    /// The settlement transition — the only code that charges a ledger,
    /// feeds a monitor, refiles an artifact and marks a task settled.
    /// Charges the *modeled* cost (node-seconds = `cost_hint`, one node
    /// per worker — identical on both backends), feeds the monitor the
    /// completion's bit-exact timings, and for
    /// [`cached`](TenantSpec::cached) tenants files the task in the
    /// store (idempotently: on replay the crash may have landed between
    /// the settle line and the original put). `at` is the instant of the
    /// `lineage/settled` breadcrumb. Fails [`ServiceError::Killed`] if an
    /// injected fault killed the process mid-put.
    fn apply_settlement(
        &self,
        state: &mut State,
        class: usize,
        r: &TaskRecord,
        cost: f64,
        at: f64,
    ) -> Result<(), ServiceError> {
        // Settlement is durable once the WAL line landed.
        lineage::settled(&self.recorder, &r.task_id, at);
        let t = &mut state.tenants[class];
        let store = self.cfg.store.as_deref().filter(|_| t.spec.cached);
        if let Some((store, artifact)) = store.zip(Self::service_artifact(&r.task_id, cost)) {
            // Filing is best-effort: a full or unwritable store degrades
            // the next submission to a miss, never this settlement…
            let _ = store.put(&artifact, &self.recorder);
            // …unless an injected fault killed the process mid-put.
            if self.cfg.faults.is_killed() {
                return Err(ServiceError::Killed {
                    point: "store-put".to_owned(),
                });
            }
        }
        t.ledger.charge(Machine::Summit, STAGE, cost);
        t.completed_tasks += 1;
        t.monitor.event(&Event::Task {
            span: None,
            task: r.task_id.clone(),
            worker: r.worker_id,
            start: r.start,
            end: r.end,
            attempts: r.attempts,
        });
        state.settled.insert(r.task_id.clone(), (class, cost));
        Ok(())
    }

    /// Attribute the run's completion records to tenants, in `(end,
    /// task id)` order, each as kill point → WAL `settle` line →
    /// [apply](Self::apply_settlement) (store put, then memory): the
    /// store never holds an artifact whose settlement the WAL does not
    /// record, and a settled task is never re-charged.
    ///
    /// # Errors
    /// [`ServiceError::Killed`] if an injected fault killed the
    /// process mid-settlement (already-settled records stay settled),
    /// [`ServiceError::Wal`] on a failed log append.
    fn settle(&self, outcome: &BatchOutcome<()>) -> Result<(), ServiceError> {
        let mut state = self.lock();
        let mut records: Vec<_> = outcome.records.iter().collect();
        records.sort_by(|a, b| {
            (a.end, &a.task_id)
                .partial_cmp(&(b.end, &b.task_id))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut settled = 0usize;
        // `close_batch_span` advanced the clock to `t0 + makespan`
        // before settlement runs, so the batch origin in absolute
        // recorder time is recoverable and each record's span-relative
        // `end` maps to an absolute settlement instant.
        let t0 = self.recorder.now() - outcome.makespan;
        for r in records {
            let Some(&(class, cost)) = state.attribution.get(&r.task_id) else {
                continue;
            };
            if state.settled.contains_key(&r.task_id) {
                continue;
            }
            if self.cfg.faults.kill_point("service/settle", &self.recorder) {
                return Err(ServiceError::Killed {
                    point: "service/settle".to_owned(),
                });
            }
            self.wal_append(&[Record::Settle(Cow::Borrowed(r), cost)])?;
            self.apply_settlement(&mut state, class, r, cost, t0 + r.end)?;
            settled += 1;
        }
        self.recorder.add("service/settled_tasks", settled as f64);
        Ok(())
    }

    /// The tenant's status endpoint: quota position and health
    /// snapshot.
    pub fn tenant_status(&self, tenant: &str) -> Result<TenantStatus, ServiceError> {
        let state = self.lock();
        let Some(t) = state.tenants.iter().find(|t| t.spec.name == tenant) else {
            return Err(ServiceError::UnknownTenant {
                tenant: tenant.to_owned(),
            });
        };
        Ok(TenantStatus {
            name: t.spec.name.clone(),
            quota_node_hours: t.spec.quota_node_hours,
            admitted_node_hours: t.admitted_node_seconds / 3600.0,
            charged_node_hours: t.ledger.node_hours(Machine::Summit),
            completed_tasks: t.completed_tasks,
            cached_tasks: t.cached_tasks,
            campaigns: t.campaigns,
            snapshot: t.monitor.snapshot(),
        })
    }

    /// Human-readable service report: one line per tenant.
    #[must_use]
    pub fn report(&self) -> String {
        let state = self.lock();
        let mut out = String::from(
            "tenant        weight  campaigns  done   admitted-nh  charged-nh     quota-nh\n",
        );
        for t in &state.tenants {
            out.push_str(&format!(
                "{:<13} {:>6.1} {:>10} {:>5} {:>12.3} {:>11.3} {:>12.3}\n",
                t.spec.name,
                t.spec.weight,
                t.campaigns,
                t.completed_tasks,
                t.admitted_node_seconds / 3600.0,
                t.ledger.node_hours(Machine::Summit),
                t.spec.quota_node_hours,
            ));
        }
        out
    }

    /// Canonical settlement record: one JSONL line per settled task
    /// (sorted by full task id — independent of settlement order) plus
    /// one summary line per tenant, all numbers at full `f64`
    /// round-trip precision.
    ///
    /// This is the crash-recovery equivalence artifact: a service
    /// killed at any point and [resumed](Self::resume) must finish
    /// with a trace byte-identical to an uninterrupted virtual run's.
    #[must_use]
    pub fn settlement_trace(&self) -> String {
        let state = self.lock();
        let mut out = String::new();
        for (task, &(class, cost)) in &state.settled {
            let mut w = ObjectWriter::new();
            w.str_field("task", task);
            w.str_field("tenant", &state.tenants[class].spec.name);
            w.num_field("cost", cost);
            out.push_str(&w.finish());
            out.push('\n');
        }
        for t in &state.tenants {
            let mut w = ObjectWriter::new();
            w.str_field("tenant", &t.spec.name);
            w.int_field("campaigns", t.campaigns as u64);
            w.int_field("completed", t.completed_tasks as u64);
            w.int_field("cached", t.cached_tasks as u64);
            w.num_field("admitted_node_seconds", t.admitted_node_seconds);
            w.num_field("charged_node_hours", t.ledger.node_hours(Machine::Summit));
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }

    /// Resume a service from the write-ahead log under
    /// [`ServiceConfig::dir`].
    ///
    /// The log is replayed in order after dropping a torn final line
    /// (also truncated on disk) and skipping any fully-written line
    /// whose seal fails. Every record goes through the two transitions
    /// the live path uses: committed admissions re-reserve quota and
    /// requeue their un-settled tasks at the original arrivals;
    /// settlements re-charge ledgers and re-feed monitors with their
    /// bit-exact timings, exactly once; rejections re-emit their
    /// counters. For [`cached`](TenantSpec::cached) tenants the hit set
    /// is re-derived against the store, so an artifact quarantined since
    /// the crash simply degrades that task to a requeue.
    ///
    /// # Errors
    /// [`ServiceError::RecoveryUnavailable`] if no WAL exists (or
    /// [`ServiceConfig::dir`] is unset), [`ServiceError::RecoveryMismatch`]
    /// if the log's header does not match `cfg`/`tenants`, plus any
    /// tenant-validation error [`new`](Self::new) would report and any
    /// error a live admission or settlement could.
    pub fn resume(
        cfg: ServiceConfig,
        tenants: Vec<TenantSpec>,
        recorder: Arc<Recorder>,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let unavailable = |reason: String| ServiceError::RecoveryUnavailable { reason };
        let path = wal_path(&cfg)
            .ok_or_else(|| unavailable("ServiceConfig::dir is not set".to_owned()))?;
        if !path.is_file() {
            return Err(unavailable(format!("no WAL at {}", path.display())));
        }
        let mut svc = Self::build(cfg, tenants, recorder)?;
        let (wal, recovered) = Log::open(path.clone(), "service/wal", svc.cfg.faults.clone())
            .map_err(|e| unavailable(format!("read {}: {e}", path.display())))?;
        svc.wal = Some(wal);
        let mut report = RecoveryReport {
            wal_torn_tail: recovered.torn_tail,
            ..RecoveryReport::default()
        };
        let records = || {
            recovered
                .lines()
                .map(|(line, seal)| Record::decode(line, seal))
        };
        // First pass, the already-settled set — needed by admission
        // replay to keep completed tasks off the queue. Records are
        // decoded per pass, never all held at once.
        let settled: BTreeSet<String> = records()
            .filter_map(|rec| match rec {
                Some(Record::Settle(r, _)) => Some(r.into_owned().task_id),
                _ => None,
            })
            .collect();
        // `task` records buffer until their committing `admit`, which
        // owns the `tasks` lines written with it — the buffer's tail.
        // Anything in front of them is the head of an admission whose
        // append tore (it stays on disk, uncommitted, ahead of whatever
        // the resumed service admitted next), as is a buffer left at
        // end-of-log; both are dropped.
        let mut pending: Vec<TaskSpec> = Vec::new();
        let mut state = svc.lock();
        let header: Vec<String> = svc.header(&state).iter().map(Record::encode).collect();
        for rec in records() {
            let Some(rec) = rec else {
                // Possibly a task line: the block it belonged to must
                // come up short, not be topped up from older orphans.
                pending.clear();
                report.wal_corrupt_lines += 1;
                continue;
            };
            match rec {
                // The header must be, line for line, what this service
                // would have written.
                Record::Open(_) | Record::Tenant(_) => {
                    if !header.contains(&rec.encode()) {
                        return Err(ServiceError::RecoveryMismatch {
                            reason: format!("WAL line {rec:?} does not describe this service"),
                        });
                    }
                }
                Record::Task(task) => pending.push(task.into_owned()),
                Record::Admit {
                    tenant,
                    campaign,
                    arrival,
                    tasks,
                } => {
                    // A short block lost a task line to corruption: the
                    // whole admission is untrustworthy.
                    let orphans = pending.len().checked_sub(tasks);
                    let raw = orphans.map(|n| pending.split_off(n));
                    pending.clear();
                    let class = state.tenants.iter().position(|t| t.spec.name == tenant);
                    let Some((class, raw)) = class.zip(raw) else {
                        report.wal_corrupt_lines += 1;
                        continue;
                    };
                    let block = namespaced(&tenant, &campaign, &raw);
                    let hits = svc.cache_hits(state.tenants[class].spec.cached, &block, &settled);
                    report.requeued_tasks +=
                        svc.apply_admission(&mut state, class, arrival, &block, &hits, &settled)?;
                    report.replayed_campaigns += 1;
                }
                Record::Reject { kind, .. } if svc.count_rejection(&kind) => {
                    report.replayed_rejections += 1;
                }
                Record::Reject { .. } => report.wal_corrupt_lines += 1,
                Record::Settle(r, _) if state.settled.contains_key(&r.task_id) => {}
                Record::Settle(r, _) => {
                    // A settlement with no committed admission behind
                    // it is corrupt; the cost charged is the admitted
                    // one.
                    let Some(&(class, cost)) = state.attribution.get(&r.task_id) else {
                        report.wal_corrupt_lines += 1;
                        continue;
                    };
                    // The original absolute settlement instant died
                    // with the process; the span-relative `end` is the
                    // bit-exact stand-in, matching the monitor feed.
                    svc.apply_settlement(&mut state, class, &r, cost, r.end)?;
                    report.replayed_settlements += 1;
                }
            }
        }
        drop(state);
        let rec = &svc.recorder;
        if report.replayed_settlements > 0 {
            rec.add("service/settled_tasks", report.replayed_settlements as f64);
        }
        rec.add(
            "recovery/replayed_campaigns",
            report.replayed_campaigns as f64,
        );
        rec.add(
            "recovery/replayed_settlements",
            report.replayed_settlements as f64,
        );
        rec.add("recovery/requeued_tasks", report.requeued_tasks as f64);
        rec.add("recovery/wal_corrupt", report.wal_corrupt_lines as f64);
        rec.add(
            "recovery/wal_torn",
            f64::from(u8::from(report.wal_torn_tail)),
        );
        Ok((svc, report))
    }
}

/// The WAL path, if the service keeps one.
fn wal_path(cfg: &ServiceConfig) -> Option<PathBuf> {
    cfg.dir.as_ref().map(|d| d.join(WAL_FILE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use summitfold_dataflow::sim::VirtualExecutor;

    fn campaign(n: usize, cost: f64) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec::new(format!("t{i}"), cost))
            .collect()
    }

    fn two_tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("alice", 2.0, 1.0),
            TenantSpec::new("bob", 1.0, 1.0),
        ]
    }

    #[test]
    fn validates_tenants() {
        let rec = Arc::new(Recorder::virtual_time());
        let cfg = ServiceConfig::default();
        assert_eq!(
            FoldingService::new(cfg.clone(), vec![], Arc::clone(&rec)).err(),
            Some(ServiceError::NoTenants)
        );
        let dup = vec![
            TenantSpec::new("a", 1.0, 1.0),
            TenantSpec::new("a", 1.0, 1.0),
        ];
        assert!(matches!(
            FoldingService::new(cfg.clone(), dup, Arc::clone(&rec)).err(),
            Some(ServiceError::BadTenantName { .. })
        ));
        let bad_w = vec![TenantSpec::new("a", -1.0, 1.0)];
        assert!(matches!(
            FoldingService::new(cfg.clone(), bad_w, Arc::clone(&rec)).err(),
            Some(ServiceError::InvalidWeight { .. })
        ));
        let bad_q = vec![TenantSpec::new("a", 1.0, f64::NAN)];
        assert!(matches!(
            FoldingService::new(cfg, bad_q, rec).err(),
            Some(ServiceError::InvalidQuota { .. })
        ));
    }

    #[test]
    fn quota_rejection_is_typed_and_counted() {
        let rec = Arc::new(Recorder::virtual_time());
        let svc =
            FoldingService::new(ServiceConfig::default(), two_tenants(), Arc::clone(&rec)).unwrap();
        // 1.0 node-hour quota = 3600 node-seconds; ask for 4000.
        let err = svc
            .submit("alice", "big", 0.0, campaign(4, 1000.0))
            .unwrap_err();
        match err {
            ServiceError::QuotaExceeded {
                tenant,
                requested_node_hours,
                remaining_node_hours,
            } => {
                assert_eq!(tenant, "alice");
                assert!((requested_node_hours - 4000.0 / 3600.0).abs() < 1e-9);
                assert!((remaining_node_hours - 1.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other}"),
        }
        // Nothing was enqueued or reserved.
        let st = svc.tenant_status("alice").unwrap();
        assert_eq!(st.admitted_node_hours, 0.0);
        assert_eq!(st.campaigns, 0);
        let totals = summitfold_obs::Trace::from_events(rec.events()).counter_totals();
        assert_eq!(totals["service/rejected_quota"], 1.0);
    }

    #[test]
    fn backpressure_rejects_when_saturated() {
        let rec = Arc::new(Recorder::virtual_time());
        let cfg = ServiceConfig {
            max_queue_depth: 3,
            ..ServiceConfig::default()
        };
        let svc = FoldingService::new(cfg, two_tenants(), Arc::clone(&rec)).unwrap();
        svc.submit("alice", "c0", 0.0, campaign(3, 1.0)).unwrap();
        let err = svc.submit("bob", "c1", 0.0, campaign(1, 1.0)).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Saturated {
                queued: 3,
                limit: 3
            }
        );
        let totals = summitfold_obs::Trace::from_events(rec.events()).counter_totals();
        assert_eq!(totals["service/rejected_saturated"], 1.0);
    }

    #[test]
    fn run_settles_ledgers_and_monitors() {
        let rec = Arc::new(Recorder::virtual_time());
        let svc =
            FoldingService::new(ServiceConfig::default(), two_tenants(), Arc::clone(&rec)).unwrap();
        svc.submit("alice", "c0", 0.0, campaign(6, 10.0)).unwrap();
        svc.submit("bob", "c0", 0.0, campaign(3, 10.0)).unwrap();
        let out = svc.run(&VirtualExecutor::new(0.0)).unwrap();
        assert_eq!(out.outcome.records.len(), 9);
        assert!(svc.queue.is_empty(), "a live drain leaves nothing queued");
        let a = svc.tenant_status("alice").unwrap();
        let b = svc.tenant_status("bob").unwrap();
        assert_eq!(a.completed_tasks, 6);
        assert_eq!(b.completed_tasks, 3);
        assert!((a.charged_node_hours - 60.0 / 3600.0).abs() < 1e-12);
        assert!((b.charged_node_hours - 30.0 / 3600.0).abs() < 1e-12);
        assert_eq!(a.snapshot.tasks_done, 6);
        // The run is single-shot.
        assert_eq!(
            svc.run(&VirtualExecutor::new(0.0)).err(),
            Some(ServiceError::AlreadyRan)
        );
        let report = svc.report();
        assert!(report.contains("alice"));
        assert!(report.contains("bob"));
    }

    #[test]
    fn unknown_tenant_is_typed() {
        let rec = Arc::new(Recorder::virtual_time());
        let svc = FoldingService::new(ServiceConfig::default(), two_tenants(), rec).unwrap();
        assert!(matches!(
            svc.submit("mallory", "c", 0.0, campaign(1, 1.0)),
            Err(ServiceError::UnknownTenant { .. })
        ));
        assert!(matches!(
            svc.tenant_status("mallory"),
            Err(ServiceError::UnknownTenant { .. })
        ));
    }

    #[test]
    fn resubmitted_campaign_settles_from_the_store() {
        let dir = std::env::temp_dir().join(format!("sf-svc-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let tenants = || {
            vec![
                TenantSpec::new("alice", 2.0, 1.0).cached(),
                TenantSpec::new("bob", 1.0, 1.0),
            ]
        };
        let cfg = || ServiceConfig {
            store: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        };

        // Cold service: everything misses, runs, and is filed at settle.
        let rec_cold = Arc::new(Recorder::virtual_time());
        let cold = FoldingService::new(cfg(), tenants(), Arc::clone(&rec_cold)).unwrap();
        assert_eq!(
            cold.submit("alice", "c0", 0.0, campaign(5, 10.0)).unwrap(),
            5
        );
        assert_eq!(cold.submit("bob", "c0", 0.0, campaign(2, 10.0)).unwrap(), 2);
        let out = cold.run(&VirtualExecutor::new(0.0)).unwrap();
        assert_eq!(out.outcome.records.len(), 7);
        let cold_makespan = out.outcome.makespan;
        // Only alice is cached: 5 artifacts filed, bob's tasks are not.
        assert_eq!(store.len(), 5);
        assert_eq!(cold.tenant_status("alice").unwrap().cached_tasks, 0);

        // Warm service over the same store: the identical campaign under
        // a *different* name settles entirely at admission time.
        let rec_warm = Arc::new(Recorder::virtual_time());
        let warm = FoldingService::new(cfg(), tenants(), Arc::clone(&rec_warm)).unwrap();
        assert_eq!(
            warm.submit("alice", "renamed", 0.0, campaign(5, 10.0))
                .unwrap(),
            5
        );
        // A changed cost hint is different work: it misses and queues.
        assert_eq!(
            warm.submit("alice", "c2", 0.0, campaign(1, 11.0)).unwrap(),
            1
        );
        let out = warm.run(&VirtualExecutor::new(0.0)).unwrap();
        assert_eq!(out.outcome.records.len(), 1);
        assert!(out.outcome.makespan < cold_makespan);
        let st = warm.tenant_status("alice").unwrap();
        assert_eq!(st.cached_tasks, 5);
        assert_eq!(st.completed_tasks, 1);
        // Cache-settled work reserves no quota and is never charged.
        assert!((st.admitted_node_hours - 11.0 / 3600.0).abs() < 1e-12);
        assert!((st.charged_node_hours - 11.0 / 3600.0).abs() < 1e-12);
        let totals = summitfold_obs::Trace::from_events(rec_warm.events()).counter_totals();
        assert_eq!(totals["service/cache_settled_tasks"], 5.0);
        assert_eq!(totals["cache/hit"], 5.0);
        assert_eq!(totals["cache/miss"], 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncached_tenants_never_touch_the_store() {
        let dir = std::env::temp_dir().join(format!("sf-svc-uncached-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let cfg = ServiceConfig {
            store: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        };
        let rec = Arc::new(Recorder::virtual_time());
        let svc = FoldingService::new(cfg, two_tenants(), Arc::clone(&rec)).unwrap();
        svc.submit("bob", "c0", 0.0, campaign(3, 10.0)).unwrap();
        svc.run(&VirtualExecutor::new(0.0)).unwrap();
        assert!(store.is_empty());
        assert_eq!(svc.tenant_status("bob").unwrap().cached_tasks, 0);
        let totals = summitfold_obs::Trace::from_events(rec.events()).counter_totals();
        assert!(!totals.contains_key("cache/hit"));
        assert!(!totals.contains_key("cache/miss"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ServiceError::QuotaExceeded {
            tenant: "alice".into(),
            requested_node_hours: 2.0,
            remaining_node_hours: 0.5,
        };
        let text = e.to_string();
        assert!(text.contains("alice"));
        assert!(text.contains("2.000"));
        let k = ServiceError::Killed {
            point: "service/settle".into(),
        };
        assert!(k.to_string().contains("service/settle"));
    }

    fn wal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sf-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn resume_without_a_wal_is_typed() {
        let rec = Arc::new(Recorder::virtual_time());
        assert!(matches!(
            FoldingService::resume(ServiceConfig::default(), two_tenants(), Arc::clone(&rec)),
            Err(ServiceError::RecoveryUnavailable { .. })
        ));
        let dir = wal_dir("no-wal");
        let cfg = ServiceConfig {
            dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        assert!(matches!(
            FoldingService::resume(cfg, two_tenants(), rec),
            Err(ServiceError::RecoveryUnavailable { .. })
        ));
    }

    #[test]
    fn resume_rejects_a_mismatched_roster() {
        let dir = wal_dir("mismatch");
        let cfg = || ServiceConfig {
            dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let rec = Arc::new(Recorder::virtual_time());
        let svc = FoldingService::new(cfg(), two_tenants(), Arc::clone(&rec)).unwrap();
        drop(svc);
        // Same names, different weight: the WAL belongs to another shape.
        let other = vec![
            TenantSpec::new("alice", 3.0, 1.0),
            TenantSpec::new("bob", 1.0, 1.0),
        ];
        assert!(matches!(
            FoldingService::resume(cfg(), other, Arc::clone(&rec)),
            Err(ServiceError::RecoveryMismatch { .. })
        ));
        // A differently-shaped service (worker count) is also refused.
        let wide = ServiceConfig {
            workers: 16,
            ..cfg()
        };
        assert!(matches!(
            FoldingService::resume(wide, two_tenants(), rec),
            Err(ServiceError::RecoveryMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_before_the_run_requeues_everything_and_matches_uninterrupted() {
        let dir = wal_dir("requeue");
        let cfg = || ServiceConfig {
            dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let submit_all = |svc: &FoldingService| {
            svc.submit("alice", "c0", 0.0, campaign(6, 10.0)).unwrap();
            svc.submit("bob", "c1", 5.0, campaign(3, 20.0)).unwrap();
        };
        // Uninterrupted control (no WAL).
        let rec_c = Arc::new(Recorder::virtual_time());
        let control =
            FoldingService::new(ServiceConfig::default(), two_tenants(), Arc::clone(&rec_c))
                .unwrap();
        submit_all(&control);
        control.run(&VirtualExecutor::new(0.0)).unwrap();
        // Admit the same script, then "crash" before serving.
        let rec_a = Arc::new(Recorder::virtual_time());
        let svc = FoldingService::new(cfg(), two_tenants(), rec_a).unwrap();
        submit_all(&svc);
        drop(svc);
        let rec_b = Arc::new(Recorder::virtual_time());
        let (resumed, report) =
            FoldingService::resume(cfg(), two_tenants(), Arc::clone(&rec_b)).unwrap();
        assert_eq!(report.replayed_campaigns, 2);
        assert_eq!(report.requeued_tasks, 9);
        assert_eq!(report.replayed_settlements, 0);
        assert_eq!(report.wal_corrupt_lines, 0);
        assert!(!report.wal_torn_tail);
        resumed.run(&VirtualExecutor::new(0.0)).unwrap();
        assert_eq!(resumed.settlement_trace(), control.settlement_trace());
        for name in ["alice", "bob"] {
            let a = resumed.tenant_status(name).unwrap();
            let c = control.tenant_status(name).unwrap();
            assert_eq!(a.completed_tasks, c.completed_tasks);
            assert_eq!(a.campaigns, c.campaigns);
            assert_eq!(
                a.admitted_node_hours.to_bits(),
                c.admitted_node_hours.to_bits()
            );
            assert_eq!(
                a.charged_node_hours.to_bits(),
                c.charged_node_hours.to_bits()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_the_run_replays_every_settlement_once() {
        let dir = wal_dir("replay");
        let cfg = || ServiceConfig {
            dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let rec_a = Arc::new(Recorder::virtual_time());
        let svc = FoldingService::new(cfg(), two_tenants(), Arc::clone(&rec_a)).unwrap();
        svc.submit("alice", "c0", 0.0, campaign(4, 10.0)).unwrap();
        svc.run(&VirtualExecutor::new(0.0)).unwrap();
        let trace = svc.settlement_trace();
        drop(svc);
        let rec_b = Arc::new(Recorder::virtual_time());
        let (resumed, report) =
            FoldingService::resume(cfg(), two_tenants(), Arc::clone(&rec_b)).unwrap();
        assert_eq!(report.replayed_settlements, 4);
        assert_eq!(report.requeued_tasks, 0);
        assert_eq!(resumed.settlement_trace(), trace);
        let st = resumed.tenant_status("alice").unwrap();
        assert_eq!(st.completed_tasks, 4);
        assert!((st.charged_node_hours - 40.0 / 3600.0).abs() < 1e-12);
        assert_eq!(st.snapshot.tasks_done, 4);
        let totals = summitfold_obs::Trace::from_events(rec_b.events()).counter_totals();
        assert_eq!(totals["service/settled_tasks"], 4.0);
        assert_eq!(totals["recovery/replayed_settlements"], 4.0);
        // Replay is idempotent: nothing left to run, nothing re-charged.
        resumed.run(&VirtualExecutor::new(0.0)).unwrap();
        assert_eq!(resumed.tenant_status("alice").unwrap().completed_tasks, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `service.jsonl` of a small session, byte for byte as the
    /// implementation before the shared log primitive wrote it.
    const HEAD_WAL: &str = r#"{"event":"open","label":"service","workers":2,"depth":4096,"sum":"3b0e6ba1279293f7"}
{"event":"tenant","name":"alice","weight":2,"priority":0,"quota":1,"cached":1,"sum":"a3127c02daa79832"}
{"event":"tenant","name":"bob","weight":1.5,"priority":1,"quota":0.001,"cached":0,"sum":"730c05030848743b"}
{"event":"task","task":"t0","cost":7,"sum":"c93589fd6cf43917"}
{"event":"task","task":"t1","cost":2.5,"sum":"d8b5a1437e240ba8"}
{"event":"admit","tenant":"alice","campaign":"c0","arrival":0,"tasks":2,"sum":"8999be98a328c4cc"}
{"event":"reject","tenant":"bob","kind":"quota","sum":"d0b27c01ddb07b0f"}
{"event":"task","task":"u","cost":3,"sum":"75d13b6e1e14ba56"}
{"event":"admit","tenant":"bob","campaign":"c1","arrival":1,"tasks":1,"sum":"f088406a1ace3876"}
{"event":"settle","task":"alice:c0:t1","cost":2.5,"worker":1,"start":0,"end":2.5,"attempts":1,"sum":"0c1f884aeaa550b3"}
{"event":"settle","task":"bob:c1:u","cost":3,"worker":1,"start":2.5,"end":5.5,"attempts":1,"sum":"66f5705aa05355fb"}
{"event":"settle","task":"alice:c0:t0","cost":7,"worker":0,"start":0,"end":7,"attempts":1,"sum":"4c766cc5e4985e15"}
"#;

    /// The settlement trace that session ended with.
    const HEAD_TRACE: &str = r#"{"task":"alice:c0:t0","tenant":"alice","cost":7}
{"task":"alice:c0:t1","tenant":"alice","cost":2.5}
{"task":"bob:c1:u","tenant":"bob","cost":3}
{"tenant":"alice","campaigns":1,"completed":2,"cached":0,"admitted_node_seconds":9.5,"charged_node_hours":0.002638888888888889}
{"tenant":"bob","campaigns":1,"completed":1,"cached":0,"admitted_node_seconds":3,"charged_node_hours":0.0008333333333333334}
"#;

    #[test]
    fn wal_format_is_unchanged_in_both_directions() {
        let dir = wal_dir("head-format");
        let cfg = || ServiceConfig {
            workers: 2,
            dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let tenants = || {
            vec![
                TenantSpec::new("alice", 2.0, 1.0).cached(),
                TenantSpec::new("bob", 1.5, 0.001).priority(1),
            ]
        };
        // Forward: the same session writes the same bytes.
        let rec = Arc::new(Recorder::virtual_time());
        let svc = FoldingService::new(cfg(), tenants(), Arc::clone(&rec)).unwrap();
        let specs = |ids: &[(&str, f64)]| ids.iter().map(|&(id, c)| TaskSpec::new(id, c)).collect();
        svc.submit("alice", "c0", 0.0, specs(&[("t0", 7.0), ("t1", 2.5)]))
            .unwrap();
        svc.submit("bob", "big", 0.5, specs(&[("x", 10.0)]))
            .unwrap_err();
        svc.submit("bob", "c1", 1.0, specs(&[("u", 3.0)])).unwrap();
        svc.run(&VirtualExecutor::new(0.0)).unwrap();
        assert_eq!(svc.settlement_trace(), HEAD_TRACE);
        drop(svc);
        let path = dir.join("service.jsonl");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), HEAD_WAL);
        // Backward: the old bytes resume to the same report and trace.
        std::fs::write(&path, HEAD_WAL).unwrap();
        let (resumed, report) = FoldingService::resume(cfg(), tenants(), rec).unwrap();
        let expected = RecoveryReport {
            replayed_campaigns: 2,
            replayed_settlements: 3,
            replayed_rejections: 1,
            ..RecoveryReport::default()
        };
        assert_eq!(report, expected);
        assert_eq!(resumed.settlement_trace(), HEAD_TRACE);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_settlements_with_non_integer_counts_are_corrupt_not_clamped() {
        // Correctly sealed, so only the decoder can refuse them: a cast
        // would replay `-1` attempts as 0 and worker `1.5` as 1.
        let settle = |task: &str, worker: f64, attempts: f64| {
            let mut w = ObjectWriter::new();
            w.str_field("event", "settle");
            w.str_field("task", task);
            w.num_field("cost", 2.5);
            w.num_field("worker", worker);
            w.num_field("start", 0.0);
            w.num_field("end", 2.5);
            w.num_field("attempts", attempts);
            w.finish_sealed()
        };
        let bad_attempts = settle("alice:c0:t1", 1.0, -1.0);
        let bad_worker = settle("bob:c1:u", 1.5, 1.0);
        assert!(bad_attempts.contains("\"attempts\":-1,"), "{bad_attempts}");
        assert!(bad_worker.contains("\"worker\":1.5,"), "{bad_worker}");
        let wal: String = HEAD_WAL
            .lines()
            .map(|line| match line {
                l if l.contains("\"alice:c0:t1\"") => bad_attempts.clone(),
                l if l.contains("\"bob:c1:u\"") => bad_worker.clone(),
                l => l.to_owned(),
            })
            .map(|line| line + "\n")
            .collect();
        let dir = wal_dir("uint-settle");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("service.jsonl"), wal).unwrap();
        let cfg = ServiceConfig {
            workers: 2,
            dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let tenants = vec![
            TenantSpec::new("alice", 2.0, 1.0).cached(),
            TenantSpec::new("bob", 1.5, 0.001).priority(1),
        ];
        let rec = Arc::new(Recorder::virtual_time());
        let (resumed, report) = FoldingService::resume(cfg, tenants, rec).unwrap();
        assert_eq!(report.wal_corrupt_lines, 2, "{report:?}");
        assert_eq!(report.replayed_settlements, 1, "{report:?}");
        assert_eq!(report.requeued_tasks, 2, "{report:?}");
        let trace = resumed.settlement_trace();
        assert!(trace.contains("\"alice:c0:t0\""), "{trace}");
        for unsettled in ["\"alice:c0:t1\"", "\"bob:c1:u\""] {
            assert!(
                !trace.contains(unsettled),
                "{unsettled} settled from a bad line: {trace}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_dropped_flagged_and_truncated() {
        let dir = wal_dir("torn");
        let cfg = || ServiceConfig {
            dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let rec = Arc::new(Recorder::virtual_time());
        let resume = || FoldingService::resume(cfg(), two_tenants(), Arc::clone(&rec)).unwrap();
        let svc = FoldingService::new(cfg(), two_tenants(), Arc::clone(&rec)).unwrap();
        svc.submit("alice", "c0", 0.0, campaign(2, 10.0)).unwrap();
        svc.submit("bob", "big", 0.0, campaign(1, 4000.0))
            .unwrap_err();
        drop(svc);
        // Kill mid-append: cut the WAL anywhere inside its final line
        // (bob's `reject`) — the last cut leaves the line complete but
        // for its newline, which is still not a record. Every cut
        // resumes, twice in a row, exactly like a log that simply ends
        // at the previous line, and that is what is left on disk.
        let path = dir.join("service.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let last_line = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        std::fs::write(&path, &text[..last_line]).unwrap();
        let (reference, expected) = resume();
        let intact = RecoveryReport {
            replayed_campaigns: 1,
            requeued_tasks: 2,
            ..RecoveryReport::default()
        };
        assert_eq!(expected, intact, "the torn rejection never happened");
        for cut in last_line + 1..text.len() {
            std::fs::write(&path, &text[..cut]).unwrap();
            let (first, report) = resume();
            let torn = RecoveryReport {
                wal_torn_tail: true,
                ..expected
            };
            assert_eq!(report, torn, "cut {cut}");
            assert_eq!(first.settlement_trace(), reference.settlement_trace());
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text[..last_line]);
            drop(first);
            assert_eq!(resume().1, expected, "cut {cut}: second resume");
        }
        // The tail was truncated on disk: post-resume appends start on
        // a clean boundary and a further recovery parses everything.
        let (resumed, _) = resume();
        resumed.submit("bob", "c1", 0.0, campaign(1, 5.0)).unwrap();
        drop(resumed);
        let (_again, second) = resume();
        assert!(!second.wal_torn_tail);
        assert_eq!(second.wal_corrupt_lines, 0);
        assert_eq!(second.replayed_campaigns, 2);
        assert_eq!(second.requeued_tasks, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_wal_lines_are_skipped_and_counted() {
        let dir = wal_dir("corrupt");
        let cfg = || ServiceConfig {
            dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let rec = Arc::new(Recorder::virtual_time());
        let svc = FoldingService::new(cfg(), two_tenants(), Arc::clone(&rec)).unwrap();
        svc.submit("alice", "c0", 0.0, campaign(2, 10.0)).unwrap();
        svc.submit("bob", "c1", 0.0, campaign(1, 5.0)).unwrap();
        drop(svc);
        let path = dir.join("service.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip one byte inside a task line of alice's block: the line
        // fails its seal AND the block's task count no longer matches,
        // so the whole admission is dropped rather than half-replayed.
        let flipped: String = text
            .lines()
            .map(|l| {
                if l.contains("\"task\":\"t0\"") && l.contains("\"cost\":10") {
                    l.replace("\"t0\"", "\"tX\"")
                } else {
                    l.to_owned()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        std::fs::write(&path, &flipped).unwrap();
        let (_resumed, report) = FoldingService::resume(cfg(), two_tenants(), rec).unwrap();
        // One corrupt task line + one short admit block.
        assert_eq!(report.wal_corrupt_lines, 2);
        assert_eq!(report.replayed_campaigns, 1);
        assert_eq!(report.requeued_tasks, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
