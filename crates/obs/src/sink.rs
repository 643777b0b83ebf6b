//! Incremental event consumers.
//!
//! A [`Sink`] folds events one at a time, in recording order. The
//! recorder retains every event it records and feeds no sink itself: a
//! consumer that wants the stream is handed events by its caller — the
//! executors replay a batch's completions into a
//! [`crate::monitor::Monitor`] for progress gauges, the folding service
//! feeds each tenant's monitor as it settles tasks, and any retained
//! trace can be replayed with [`crate::monitor::Monitor::feed`].
//!
//! [`RingSink`] is the bounded consumer: it keeps the most recent `N`
//! events and counts what it evicted, which measures how much of a
//! stream a consumer of that capacity would lose.

use crate::event::Event;
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// An incremental consumer of events.
///
/// `event` takes `&self`, so a sink can be fed and read through a
/// shared reference; implementations carry their own interior
/// mutability.
pub trait Sink: Send + Sync {
    /// Receive one event, in recording order.
    fn event(&self, e: &Event);
}

/// Interior state of a [`RingSink`].
struct RingState {
    buf: VecDeque<Event>,
    dropped: u64,
}

/// Bounded ring buffer over the event stream.
///
/// Holds at most `capacity` events; once full, each new event evicts the
/// oldest and increments the drop counter. A capacity of 0 drops
/// everything (pure counting).
pub struct RingSink {
    capacity: usize,
    state: Mutex<RingState>,
}

impl RingSink {
    /// A ring keeping the most recent `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(RingState {
                buf: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingState> {
        // Short, allocation-only critical sections: state stays
        // consistent across a poisoning panic.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Events currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// Whether the ring currently holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().buf.is_empty()
    }

    /// Events evicted (or rejected, at capacity 0) so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Snapshot of the retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.lock().buf.iter().cloned().collect()
    }
}

impl Sink for RingSink {
    fn event(&self, e: &Event) {
        let mut state = self.lock();
        if self.capacity == 0 {
            state.dropped += 1;
            return;
        }
        if state.buf.len() == self.capacity {
            state.buf.pop_front();
            state.dropped += 1;
        }
        state.buf.push_back(e.clone());
    }
}

impl std::fmt::Debug for RingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("RingSink")
            .field("capacity", &self.capacity)
            .field("len", &state.buf.len())
            .field("dropped", &state.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauge(i: usize) -> Event {
        Event::Gauge {
            name: format!("g{i}"),
            value: i as f64,
            t: i as f64,
        }
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let ring = RingSink::new(3);
        for i in 0..10 {
            ring.event(&gauge(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        let kept: Vec<String> = ring
            .events()
            .iter()
            .map(|e| match e {
                Event::Gauge { name, .. } => name.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kept, vec!["g7", "g8", "g9"], "oldest events evicted first");
    }

    #[test]
    fn ring_capacity_zero_drops_everything() {
        let ring = RingSink::new(0);
        ring.event(&gauge(0));
        ring.event(&gauge(1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2);
    }
}
