//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls *into* the product from the
//! benchmark's code, never inside it, and never through
//! `obs::Recorder` — that is one of the measured layers. Each thread
//! appends to its own vector and hands it to the shared pool whenever
//! its outermost span closes (not from a thread-local destructor: those
//! may still be running after a scoped thread was joined). [`drain`]
//! collects the pool plus the calling thread's vector. Recording is off
//! unless [`enable`]d, so end-to-end runs pay one relaxed load per call
//! site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the first span of the
/// process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (process-wide, allocation order).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// `layer.operation` — the layer is the crate/module name.
    pub name: &'static str,
    /// Start instant.
    pub start_ns: u64,
    /// End instant.
    pub end_ns: u64,
}

// Statistic-only flags and counters: they publish no other data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static POOL: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

#[derive(Default)]
struct ThreadBuf {
    closed: Vec<Span>,
    open: Vec<u64>,
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::default());
}

/// Turn span recording on or off (off at process start).
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Guard closing its span on drop. Inert when recording is off.
pub struct SpanGuard {
    live: Option<(u64, Option<u64>, &'static str, u64)>,
}

/// Open a span named `layer.operation` on the calling thread.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = BUF.with(|b| {
        let mut b = b.borrow_mut();
        let parent = b.open.last().copied();
        b.open.push(id);
        parent
    });
    SpanGuard {
        live: Some((id, parent, name, now_ns())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.live.take() else {
            return;
        };
        let end_ns = now_ns();
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            // Guards nest, so the span being closed is the innermost one.
            b.open.pop();
            b.closed.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
            if b.open.is_empty() {
                // Never panic in drop: a poisoned pool still holds valid
                // spans.
                POOL.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .append(&mut b.closed);
            }
        });
    }
}

/// Run `f` inside a span and return its result.
pub fn in_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(name);
    f()
}

/// Take every closed span recorded so far: the pool's and the calling
/// thread's. Sorted by id so output order is stable.
#[must_use]
pub fn drain() -> Vec<Span> {
    let mut all = std::mem::take(&mut *POOL.lock().unwrap_or_else(PoisonError::into_inner));
    BUF.with(|b| all.append(&mut b.borrow_mut().closed));
    all.sort_by_key(|s| s.id);
    all
}

/// Per-name totals of everything recorded so far, leaving the spans in
/// place for the final [`drain`]. Traced replays read their per-layer
/// times from here.
#[must_use]
pub fn totals_so_far() -> BTreeMap<&'static str, NameTotals> {
    let spans = drain();
    let totals = totals_by_name(&spans);
    POOL.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .extend(spans);
    totals
}

/// Per-name totals derived from a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of span durations (seconds).
    pub total_s: f64,
    /// Sum of self times: duration minus the part direct children cover.
    pub self_s: f64,
}

/// Fold spans into per-name totals. Children of one parent on one
/// thread never overlap (they are nested guards), so the covered part is
/// the plain sum of child durations.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = child_ns.get(&s.id).copied().unwrap_or(0).min(dur);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += dur as f64 * 1e-9;
        t.self_s += (dur - covered) as f64 * 1e-9;
    }
    out
}

/// Serialise spans as JSONL: `name,start,end,parent,id` per line.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}\n",
            s.name, s.start_ns, s.end_ns, parent, s.id
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                name: "a.root",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "b.child",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: Some(1),
                name: "b.child",
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["a.root"].count, 1);
        assert!((t["a.root"].self_s - 50e-9).abs() < 1e-15);
        assert_eq!(t["b.child"].count, 2);
        assert!((t["b.child"].self_s - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn worker_thread_spans_reach_the_pool() {
        // One test owns the global switch; the other test above builds
        // spans by hand, so they cannot interfere.
        enable(true);
        let outer = span("t.outer");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = span("t.worker");
            });
        });
        {
            let _inner = span("t.inner");
        }
        drop(outer);
        enable(false);
        assert!(span("t.off").live.is_none());
        let spans = drain();
        let by = |n: &str| spans.iter().find(|s| s.name == n).cloned();
        let (outer, inner, worker) = (by("t.outer"), by("t.inner"), by("t.worker"));
        let outer = outer.expect("outer recorded");
        assert_eq!(inner.expect("inner recorded").parent, Some(outer.id));
        assert_eq!(worker.expect("worker span reached the pool").parent, None);
        assert!(to_jsonl(&spans).lines().count() >= 3);
    }
}
