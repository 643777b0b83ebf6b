//! Worker failure during a real relaxation batch: the batch must drain on
//! the survivors with every structure relaxed exactly once — the
//! behaviour that lets the paper's deployment re-run failed tasks (e.g.
//! on high-memory nodes) without restarting the campaign.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use summitfold::dataflow::fault::WorkerFault;
use summitfold::dataflow::real::ThreadExecutor;
use summitfold::dataflow::{Batch, OrderingPolicy, TaskSpec};
use summitfold::inference::{Fidelity, InferenceEngine, ModelId, Preset};
use summitfold::msa::FeatureSet;
use summitfold::protein::proteome::{Proteome, Species};
use summitfold::protein::structure::Structure;
use summitfold::relax::protocol::{relax, Protocol};
use summitfold::relax::violations::Violations;

#[test]
fn relaxation_batch_survives_worker_deaths() {
    let proteome = Proteome::generate_scaled(Species::DVulgaris, 0.008);
    let engine = InferenceEngine::new(Preset::ReducedDbs, Fidelity::Geometric);
    let structures: Vec<Structure> = proteome
        .proteins
        .iter()
        .filter_map(|e| {
            engine
                .predict(e, &FeatureSet::synthetic(e), ModelId(1))
                .ok()
        })
        .filter_map(|p| p.structure)
        .collect();
    assert!(structures.len() >= 15, "sample size {}", structures.len());
    let specs: Vec<TaskSpec> = structures
        .iter()
        .map(|s| TaskSpec::new(s.id.clone(), s.len() as f64))
        .collect();

    let faults = [
        WorkerFault {
            worker: 0,
            tasks_before_death: 1,
        },
        WorkerFault {
            worker: 2,
            tasks_before_death: 3,
        },
    ];
    // The budgets below are only reached if the faulted workers get to
    // run at all, and under CPU load a starved worker may not: the other
    // three can drain the batch first. So the schedule the assertions
    // are about is forced, not hoped for. The first four tasks started
    // rendezvous, which puts exactly one on each worker; worker 0, at
    // its budget, can then only die, so each of the next two waves of
    // three lands one task on each of workers 1–3. After the third wave
    // workers 0 and 2 have completed exactly their budgets, whatever the
    // scheduler does, and the rest of the batch runs free.
    assert!(structures.len() >= 10, "three waves need ten tasks");
    let started = AtomicUsize::new(0);
    let waves = [Barrier::new(4), Barrier::new(3), Barrier::new(3)];
    let result = Batch::new(&specs)
        .workers(4)
        .policy(OrderingPolicy::LongestFirst)
        .faults(&faults)
        .run_with(&ThreadExecutor, &structures, |_, s| {
            let ticket = started.fetch_add(1, Ordering::SeqCst);
            if let Some(wave) = [4, 7, 10].iter().position(|&end| ticket < end) {
                waves[wave].wait();
            }
            relax(s, Protocol::OptimizedSinglePass).final_violations
        })
        .unwrap();

    // Every structure relaxed exactly once, clash-free, despite two of
    // four workers dying mid-batch.
    assert_eq!(result.outputs.len(), structures.len());
    assert_eq!(result.records.len(), structures.len());
    assert_eq!(result.deaths, 2);
    // A worker dies — abandoning the task it holds — on its first pull
    // past its budget; one descheduled until the batch is done never
    // makes that pull, so zero is a legal count and two the ceiling.
    assert!(result.requeued <= result.deaths);
    for v in &result.outputs {
        let v: &Violations = v;
        assert_eq!(v.clashes, 0);
    }
    // The dead workers completed exactly their budgets.
    assert_eq!(
        result.records.iter().filter(|r| r.worker_id == 0).count(),
        1
    );
    assert_eq!(
        result.records.iter().filter(|r| r.worker_id == 2).count(),
        3
    );

    // And the fault-free run produces identical violation outcomes —
    // fault tolerance must not change results.
    let clean = Batch::new(&specs)
        .workers(4)
        .policy(OrderingPolicy::LongestFirst)
        .run_with(&ThreadExecutor, &structures, |_, s| {
            relax(s, Protocol::OptimizedSinglePass).final_violations
        })
        .unwrap();
    assert_eq!(clean.outputs, result.outputs);
}
