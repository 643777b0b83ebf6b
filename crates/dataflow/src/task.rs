//! Task descriptions and execution records.

/// Description of one schedulable task.
///
/// In the paper's inference workflow a task is a (DL model, target
/// sequence) pair; in the relaxation workflow it is one structure. The
/// `cost_hint` is the quantity the greedy load balancer sorts on —
/// sequence length for inference (§3.3 step 3c).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Stable task identifier (e.g. `DVU_00042/model_3`).
    pub id: String,
    /// Sort key for longest-first ordering (larger = scheduled earlier).
    pub cost_hint: f64,
}

impl TaskSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(id: impl Into<String>, cost_hint: f64) -> Self {
        Self {
            id: id.into(),
            cost_hint,
        }
    }
}

/// Per-task execution record — the row appended to the statistics CSV
/// (§3.3 step 3e: "statistics about that task, such as the start and end
/// processing times, are appended to a CSV file").
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task identifier.
    pub task_id: String,
    /// Worker that executed the task.
    pub worker_id: usize,
    /// Start time (seconds since batch start; wall-clock for the real
    /// executor, virtual for the simulator). For a quarantine rerun this
    /// is the start of the high-memory attempt.
    pub start: f64,
    /// End time of the successful attempt (same clock).
    pub end: f64,
    /// Executions including the successful one: 1 on the standard lane,
    /// 2 after the high-memory rerun of a task that ran out of memory.
    pub attempts: u32,
}

impl TaskRecord {
    /// A record for a first-try success (`attempts == 1`).
    #[must_use]
    pub fn new(task_id: impl Into<String>, worker_id: usize, start: f64, end: f64) -> Self {
        Self {
            task_id: task_id.into(),
            worker_id,
            start,
            end,
            attempts: 1,
        }
    }

    /// Task occupancy in seconds on the completing lane (a burned
    /// standard-lane attempt is charged to its own worker, not here).
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_duration() {
        let r = TaskRecord::new("t", 0, 1.5, 4.0);
        assert!((r.duration() - 2.5).abs() < 1e-12);
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn spec_constructor() {
        let s = TaskSpec::new("abc", 3.0);
        assert_eq!(s.id, "abc");
        assert_eq!(s.cost_hint, 3.0);
    }
}
