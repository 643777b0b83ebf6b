//! Deterministic I/O fault injection: the chaos plane behind the
//! crash/corruption resilience tests.
//!
//! The paper's deployment survived node failures by re-running failed
//! work (§3.3); the reproduction goes further and makes every failure
//! mode a *seeded, replayable experiment*. A [`FaultPlan`] schedules the
//! I/O faults below the executors (worker deaths are the batch's own
//! [`crate::exec::Batch::faults`]): a write torn after `k` bytes, a bit
//! flipped in a chosen record, a cleanly failed operation, or a kill at
//! a named code point.
//! [`FaultPlan::arm`] turns the plan into an [`IoFaults`] handle that the
//! store and the folding service thread through their write paths.
//!
//! Faults are addressed by `(op, nth)` — the `nth` occurrence of a named
//! operation (`"store/blob"`, `"store/journal"`, `"service/wal"`,
//! `"service/admit"`, `"service/settle"`) — never by time. Occurrence
//! counting is the same on the virtual and thread executors, so both
//! observe the identical fault schedule in virtual and wall time, and a
//! test that kills a service mid-settlement replays bit-for-bit.
//!
//! A fired [`IoFaultKind::Kill`] (or the implicit kill of a torn write)
//! leaves the handle *dead*: every later faultable operation refuses,
//! modelling the rest of the doomed process's I/O never happening. The
//! `fault/*` counters are recorded here and only here (sfcheck enforces
//! the ownership), one increment per injected fault.

use crate::sync::lock;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use summitfold_obs::Recorder;

/// What an injected I/O fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The write persists only its first `keep_bytes` bytes and the
    /// process dies mid-append (the classic torn tail). Implies kill.
    TornWrite {
        /// Bytes that reach the disk before the tear (clamped to the
        /// payload length).
        keep_bytes: usize,
    },
    /// Silent corruption: XOR `mask` into the payload byte at `offset`
    /// (modulo the payload length). The write "succeeds" and the
    /// process lives — the fault is only visible on a later read.
    BitFlip {
        /// Byte offset into the payload (taken modulo its length).
        offset: usize,
        /// Non-zero XOR mask applied to that byte.
        mask: u8,
    },
    /// The operation fails cleanly — no bytes written, the caller sees
    /// an error, the process lives (an ENOSPC-shaped failure).
    FailOp,
    /// The process dies at this point before the operation happens.
    Kill,
}

/// One scheduled I/O fault: `kind` fires on the `nth` occurrence
/// (0-based) of the named operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoFault {
    /// Operation name, e.g. `"store/journal"` or `"service/settle"`.
    pub op: String,
    /// 0-based occurrence of `op` at which the fault fires.
    pub nth: u64,
    /// What happens when it fires.
    pub kind: IoFaultKind,
}

impl IoFault {
    /// Tear the `nth` occurrence of `op` after `keep_bytes` bytes.
    #[must_use]
    pub fn torn(op: &str, nth: u64, keep_bytes: usize) -> Self {
        Self {
            op: op.to_string(),
            nth,
            kind: IoFaultKind::TornWrite { keep_bytes },
        }
    }

    /// Flip a bit (XOR `mask` at `offset`) in the `nth` write of `op`.
    #[must_use]
    pub fn bitflip(op: &str, nth: u64, offset: usize, mask: u8) -> Self {
        Self {
            op: op.to_string(),
            nth,
            kind: IoFaultKind::BitFlip { offset, mask },
        }
    }

    /// Fail the `nth` occurrence of `op` cleanly.
    #[must_use]
    pub fn fail(op: &str, nth: u64) -> Self {
        Self {
            op: op.to_string(),
            nth,
            kind: IoFaultKind::FailOp,
        }
    }

    /// Kill the process at the `nth` occurrence of `op`.
    #[must_use]
    pub fn kill(op: &str, nth: u64) -> Self {
        Self {
            op: op.to_string(),
            nth,
            kind: IoFaultKind::Kill,
        }
    }
}

/// A deterministic I/O fault schedule, armed into an [`IoFaults`]
/// handle shared by the store and the service.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// I/O fault schedule for the storage and service layers.
    pub io: Vec<IoFault>,
}

impl FaultPlan {
    /// An empty plan (no faults anywhere).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an I/O fault to the plan.
    #[must_use]
    pub fn io(mut self, fault: IoFault) -> Self {
        self.io.push(fault);
        self
    }

    /// Arm the plan's I/O schedule into a live [`IoFaults`] handle.
    ///
    /// Clone the handle into every component that should observe the
    /// same schedule (store + service share one occurrence space).
    #[must_use]
    pub fn arm(&self) -> IoFaults {
        IoFaults {
            inner: Some(Arc::new(Mutex::new(Inner {
                pending: self.io.clone(),
                counts: BTreeMap::new(),
                killed: None,
            }))),
        }
    }
}

/// How a faultable write must proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Write the (possibly bit-flipped) payload in full.
    Full,
    /// Persist exactly this many leading bytes, then act killed.
    Torn(usize),
    /// Write nothing and report an injected I/O error.
    Fail,
}

struct Inner {
    pending: Vec<IoFault>,
    counts: BTreeMap<String, u64>,
    killed: Option<String>,
}

/// Shared runtime handle for a [`FaultPlan`]'s I/O schedule.
///
/// `IoFaults::default()` is the free no-op used by production paths; a
/// handle from [`FaultPlan::arm`] carries live state. Cloning shares the
/// state, so the same schedule is observed by every component holding a
/// clone — the property the cross-layer kill tests rely on.
#[derive(Clone, Default)]
pub struct IoFaults {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl std::fmt::Debug for IoFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "IoFaults(none)"),
            Some(m) => {
                let g = lock(m);
                write!(
                    f,
                    "IoFaults(pending: {}, killed: {:?})",
                    g.pending.len(),
                    g.killed
                )
            }
        }
    }
}

impl IoFaults {
    /// The free no-op handle (identical to `Default`): nothing ever
    /// fires and no occurrence counting happens.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the handle has observed a kill (torn write or
    /// [`IoFaultKind::Kill`]). A dead handle refuses all later I/O.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.kill_reason().is_some()
    }

    /// The operation name at which the kill fired, if any.
    #[must_use]
    pub fn kill_reason(&self) -> Option<String> {
        let m = self.inner.as_ref()?;
        lock(m).killed.clone()
    }

    /// Gate a write of `bytes` under operation `op`.
    ///
    /// Counts one occurrence, fires at most one matching fault (faults
    /// are one-shot), and mutates `bytes` in place for a bit flip. The
    /// caller must honor the outcome: `Torn(k)` means persist exactly
    /// `k` bytes and then fail as killed; `Fail` means persist nothing.
    /// One `fault/*` counter increment is recorded per fired fault.
    pub fn on_write(&self, op: &str, bytes: &mut [u8], rec: &Recorder) -> WriteOutcome {
        let Some(m) = self.inner.as_ref() else {
            return WriteOutcome::Full;
        };
        let (outcome, counter) = {
            let mut g = lock(m);
            if g.killed.is_some() {
                // The process is dead: later writes never happen.
                return WriteOutcome::Fail;
            }
            let n = g.counts.entry(op.to_string()).or_insert(0);
            let occurrence = *n;
            *n += 1;
            let Some(idx) = g
                .pending
                .iter()
                .position(|f| f.op == op && f.nth == occurrence)
            else {
                return WriteOutcome::Full;
            };
            let fault = g.pending.remove(idx);
            match fault.kind {
                IoFaultKind::TornWrite { keep_bytes } => {
                    g.killed = Some(fault.op);
                    (
                        WriteOutcome::Torn(keep_bytes.min(bytes.len())),
                        "fault/injected_torn",
                    )
                }
                IoFaultKind::BitFlip { offset, mask } => {
                    if !bytes.is_empty() {
                        let at = offset % bytes.len();
                        bytes[at] ^= mask;
                    }
                    (WriteOutcome::Full, "fault/injected_bitflip")
                }
                IoFaultKind::FailOp => (WriteOutcome::Fail, "fault/injected_fail"),
                IoFaultKind::Kill => {
                    g.killed = Some(fault.op);
                    (WriteOutcome::Fail, "fault/injected_kill")
                }
            }
        };
        // Guard dropped before recording: counters never nest locks.
        rec.add(counter, 1.0);
        outcome
    }

    /// Gate a non-write code point (admission commit, settlement step).
    ///
    /// Counts one occurrence of `op`; returns `true` if the process is
    /// (or just became) dead. Only [`IoFaultKind::Kill`] faults fire at
    /// kill points — write-shaped faults are left pending.
    pub fn kill_point(&self, op: &str, rec: &Recorder) -> bool {
        let Some(m) = self.inner.as_ref() else {
            return false;
        };
        let fired = {
            let mut g = lock(m);
            if g.killed.is_some() {
                return true;
            }
            let n = g.counts.entry(op.to_string()).or_insert(0);
            let occurrence = *n;
            *n += 1;
            let Some(idx) = g
                .pending
                .iter()
                .position(|f| f.op == op && f.nth == occurrence && f.kind == IoFaultKind::Kill)
            else {
                return false;
            };
            let fault = g.pending.remove(idx);
            g.killed = Some(fault.op);
            true
        };
        rec.add("fault/injected_kill", 1.0);
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Recorder {
        Recorder::virtual_time()
    }

    #[test]
    fn noop_handle_is_free_and_never_fires() {
        let faults = IoFaults::none();
        let mut bytes = b"payload".to_vec();
        let r = rec();
        for _ in 0..100 {
            assert_eq!(
                faults.on_write("store/blob", &mut bytes, &r),
                WriteOutcome::Full
            );
            assert!(!faults.kill_point("service/settle", &r));
        }
        assert!(!faults.is_killed());
        assert_eq!(bytes, b"payload");
        assert!(r.events().is_empty(), "no-op handle records nothing");
    }

    #[test]
    fn faults_fire_on_the_exact_occurrence_and_only_once() {
        let plan = FaultPlan::new().io(IoFault::fail("store/journal", 2));
        let faults = plan.arm();
        let r = rec();
        let mut bytes = vec![1, 2, 3];
        assert_eq!(
            faults.on_write("store/journal", &mut bytes, &r),
            WriteOutcome::Full
        );
        // A different op does not advance store/journal's count.
        assert_eq!(
            faults.on_write("store/blob", &mut bytes, &r),
            WriteOutcome::Full
        );
        assert_eq!(
            faults.on_write("store/journal", &mut bytes, &r),
            WriteOutcome::Full
        );
        assert_eq!(
            faults.on_write("store/journal", &mut bytes, &r),
            WriteOutcome::Fail
        );
        // One-shot: the next occurrence is clean again.
        assert_eq!(
            faults.on_write("store/journal", &mut bytes, &r),
            WriteOutcome::Full
        );
        assert!(!faults.is_killed(), "FailOp is not a kill");
    }

    #[test]
    fn torn_write_clamps_and_kills() {
        let faults = FaultPlan::new()
            .io(IoFault::torn("service/wal", 0, 9999))
            .arm();
        let r = rec();
        let mut bytes = vec![0u8; 16];
        assert_eq!(
            faults.on_write("service/wal", &mut bytes, &r),
            WriteOutcome::Torn(16),
            "keep_bytes clamps to the payload length"
        );
        assert!(faults.is_killed());
        assert_eq!(faults.kill_reason().as_deref(), Some("service/wal"));
        // Dead handle: everything after the tear refuses.
        assert_eq!(
            faults.on_write("store/blob", &mut bytes, &r),
            WriteOutcome::Fail
        );
        assert!(faults.kill_point("service/settle", &r));
    }

    #[test]
    fn bitflip_mutates_in_place_and_lives() {
        let faults = FaultPlan::new()
            .io(IoFault::bitflip("store/blob", 0, 21, 0x40))
            .arm();
        let r = rec();
        let mut bytes = vec![0u8; 8];
        assert_eq!(
            faults.on_write("store/blob", &mut bytes, &r),
            WriteOutcome::Full
        );
        assert_eq!(bytes[21 % 8], 0x40, "offset wraps modulo the length");
        assert!(!faults.is_killed());
    }

    #[test]
    fn kill_points_only_consume_kill_faults() {
        let faults = FaultPlan::new()
            .io(IoFault::fail("service/admit", 0))
            .io(IoFault::kill("service/admit", 1))
            .arm();
        let r = rec();
        // Occurrence 0 has only a FailOp scheduled — not a kill point
        // concern, left pending for a write that never comes.
        assert!(!faults.kill_point("service/admit", &r));
        assert!(faults.kill_point("service/admit", &r));
        assert!(faults.is_killed());
    }

    #[test]
    fn clones_share_one_occurrence_space() {
        let faults = FaultPlan::new().io(IoFault::kill("store/journal", 1)).arm();
        let store_side = faults.clone();
        let service_side = faults;
        let r = rec();
        let mut bytes = vec![0u8];
        assert_eq!(
            store_side.on_write("store/journal", &mut bytes, &r),
            WriteOutcome::Full
        );
        assert_eq!(
            service_side.on_write("store/journal", &mut bytes, &r),
            WriteOutcome::Fail,
            "the clone's write is occurrence 1 in the shared space"
        );
        assert!(store_side.is_killed() && service_side.is_killed());
    }

    #[test]
    fn injected_faults_are_counted_once_each() {
        let faults = FaultPlan::new()
            .io(IoFault::bitflip("store/blob", 0, 0, 1))
            .io(IoFault::fail("store/journal", 0))
            .io(IoFault::torn("service/wal", 0, 4))
            .arm();
        let r = rec();
        let mut bytes = vec![0u8; 8];
        faults.on_write("store/blob", &mut bytes, &r);
        faults.on_write("store/journal", &mut bytes, &r);
        faults.on_write("service/wal", &mut bytes, &r);
        let totals = summitfold_obs::Trace::from_events(r.events()).counter_totals();
        assert_eq!(totals.get("fault/injected_bitflip"), Some(&1.0));
        assert_eq!(totals.get("fault/injected_fail"), Some(&1.0));
        assert_eq!(totals.get("fault/injected_torn"), Some(&1.0));
    }
}
