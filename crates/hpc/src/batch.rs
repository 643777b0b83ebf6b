//! LSF-style batch queueing with per-machine policy bias.
//!
//! §5: "the queue policies for Andes favor small, long jobs rather than
//! large, shorter jobs as is the case on Summit" — the reason the
//! CPU feature-generation stage, despite needing *fewer node-hours* than
//! inference, had a *longer wall time*: it ran as many small jobs on a
//! smaller machine with small-job-friendly scheduling, rather than as a
//! handful of capability-scale jobs.
//!
//! The model is intentionally simple and monotone: expected queue wait
//! grows with requested walltime and with machine load, and is scaled by
//! a size-bias factor — on Summit, larger node counts *reduce* relative
//! wait (capability scheduling with bonus priority for leadership-scale
//! jobs); on Andes/Phoenix, larger jobs wait disproportionately longer.

use crate::machine::Machine;

/// A batch job request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRequest {
    /// Nodes requested.
    pub nodes: u32,
    /// Walltime requested (seconds).
    pub walltime_s: f64,
}

/// Expected queue wait (seconds) for a job on a machine.
///
/// Base wait is proportional to the requested walltime (longer requests
/// wait longer in backfill) plus a machine-dependent constant, scaled by
/// the size-bias factor.
#[must_use]
pub fn expected_wait_s(machine: Machine, job: &JobRequest) -> f64 {
    let frac = f64::from(job.nodes) / f64::from(machine.nodes());
    let (base_s, walltime_factor) = match machine {
        Machine::Summit => (1800.0, 0.5),
        Machine::Andes => (900.0, 0.8),
        Machine::Phoenix => (600.0, 0.8),
    };
    let size_bias = match machine {
        // Capability scheduling: leadership-scale jobs get priority; the
        // bias decreases with size until ~20 % of the machine, then rises
        // slowly (fewer holes to fit in).
        Machine::Summit => {
            if frac < 0.2 {
                1.5 - 2.5 * frac // 1.5 at tiny, 1.0 at 20 %
            } else {
                1.0 + 0.8 * (frac - 0.2)
            }
        }
        // Capacity machines: wait grows superlinearly with size.
        Machine::Andes | Machine::Phoenix => 1.0 + 6.0 * frac * frac,
    };
    (base_s + walltime_factor * job.walltime_s) * size_bias.max(0.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_favors_large_jobs() {
        // Relative wait per node-hour delivered: a 1000-node job on
        // Summit should not wait 10× a 100-node job.
        let small = expected_wait_s(
            Machine::Summit,
            &JobRequest {
                nodes: 32,
                walltime_s: 7200.0,
            },
        );
        let large = expected_wait_s(
            Machine::Summit,
            &JobRequest {
                nodes: 1000,
                walltime_s: 7200.0,
            },
        );
        assert!(large < small * 2.0, "large {large} vs small {small}");
    }

    #[test]
    fn andes_penalizes_large_jobs() {
        let small = expected_wait_s(
            Machine::Andes,
            &JobRequest {
                nodes: 8,
                walltime_s: 7200.0,
            },
        );
        let large = expected_wait_s(
            Machine::Andes,
            &JobRequest {
                nodes: 500,
                walltime_s: 7200.0,
            },
        );
        assert!(large > small * 2.0, "large {large} vs small {small}");
    }

    #[test]
    fn longer_requests_wait_longer() {
        let short = expected_wait_s(
            Machine::Summit,
            &JobRequest {
                nodes: 64,
                walltime_s: 3600.0,
            },
        );
        let long = expected_wait_s(
            Machine::Summit,
            &JobRequest {
                nodes: 64,
                walltime_s: 43200.0,
            },
        );
        assert!(long > short);
    }

    #[test]
    fn paper_asymmetry_feature_gen_vs_inference() {
        // §5: feature generation (≈240 Andes node-h) needed fewer
        // node-hours than inference (≈400 Summit node-h) but more
        // wall-clock, because Andes jobs are small and its queue favors
        // them long-and-thin while Summit ran one wide job.
        // Feature generation: 240 node-h as 24-node, 6 h Andes jobs —
        // 10 h of compute in two queued jobs.
        let andes_job = JobRequest {
            nodes: 24,
            walltime_s: 6.0 * 3600.0,
        };
        let andes = 10.0 * 3600.0 + 2.0 * expected_wait_s(Machine::Andes, &andes_job);
        // Inference: one 32-node Summit job of 44 minutes (Table 1).
        let summit_job = JobRequest {
            nodes: 32,
            walltime_s: 2.0 * 3600.0,
        };
        let summit = 44.0 * 60.0 + expected_wait_s(Machine::Summit, &summit_job);
        assert!(andes > summit, "andes {andes} vs summit {summit}");
    }
}
