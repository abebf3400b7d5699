//! Admission control: typed rejection reasons and the bounded MPSC queue.
//!
//! Overload policy (the serving half of the PR 3 degradation story): when
//! the system cannot take more work, it says so *immediately* with a typed
//! [`RejectReason`] instead of queueing unboundedly and letting latency
//! grow until everything times out. The bounded queue is the only place
//! requests wait; everything behind it (scheduler, workers) pulls at its
//! own pace.

use lhmm_core::sync::{rank, OrderedMutex};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Condvar;
use std::time::Duration;

/// Why a request was shed at admission, layered on the
/// [`MatchError`](lhmm_core::error::MatchError) taxonomy: these are
/// *service* verdicts (try again later / elsewhere), not matching verdicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The admission queue is at capacity; retry with backoff.
    QueueFull,
    /// The session table is at its cap and no session is evictable.
    SessionLimit,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// The request exceeds the configured size limit (points per
    /// trajectory) or the frame cap.
    Oversized,
    /// The request is not acceptable on this endpoint or failed semantic
    /// validation (e.g. an unknown model version on `Open`, `Swap` or
    /// `Shadow`).
    Invalid,
}

impl RejectReason {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::SessionLimit => 1,
            RejectReason::ShuttingDown => 2,
            RejectReason::Oversized => 3,
            RejectReason::Invalid => 4,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(RejectReason::QueueFull),
            1 => Some(RejectReason::SessionLimit),
            2 => Some(RejectReason::ShuttingDown),
            3 => Some(RejectReason::Oversized),
            4 => Some(RejectReason::Invalid),
            _ => None,
        }
    }

    /// Index into per-reason counter arrays (dense, 0..5).
    pub fn index(self) -> usize {
        self.code() as usize
    }

    /// Number of distinct reasons (size for counter arrays).
    pub const COUNT: usize = 5;
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "admission queue full"),
            RejectReason::SessionLimit => write!(f, "session limit reached"),
            RejectReason::ShuttingDown => write!(f, "server shutting down"),
            RejectReason::Oversized => write!(f, "request exceeds size limits"),
            RejectReason::Invalid => write!(f, "request invalid on this endpoint"),
        }
    }
}

/// A bounded multi-producer queue with blocking consumers.
///
/// Producers never block: [`BoundedQueue::try_push`] fails fast with the
/// value when the queue is full or closed — the admission-control
/// primitive. Consumers block with a timeout so they can observe shutdown.
pub struct BoundedQueue<T> {
    // Rank-ordered (DESIGN §15): the queue lock rides poison exactly as
    // the old `lock_unpoisoned` helper did — serving state must stay
    // reachable even if a holder panicked mid-update.
    inner: OrderedMutex<QueueState<T>>,
    not_empty: Condvar,
    cap: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// At capacity.
    Full,
    /// Queue closed for admissions (drain started).
    Closed,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `cap` items (`cap = 0` rejects
    /// everything — a degenerate but valid "serve nothing" configuration).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: OrderedMutex::new(rank::ADMISSION_QUEUE, "admission.queue", QueueState {
                items: VecDeque::with_capacity(cap.min(1024)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            cap,
        }
    }

    /// Attempts to enqueue without blocking.
    pub fn try_push(&self, value: T) -> Result<(), (PushError, T)> {
        let mut st = self.inner.lock();
        if st.closed {
            return Err((PushError::Closed, value));
        }
        if st.items.len() >= self.cap {
            return Err((PushError::Full, value));
        }
        st.items.push_back(value);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues, waiting up to `timeout`. `None` on timeout or when the
    /// queue is closed *and* drained.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut st = self.inner.lock();
        loop {
            if let Some(v) = st.items.pop_front() {
                return Some(v);
            }
            if st.closed {
                return None;
            }
            // Same-lock deadline wait: the guard is consumed and handed
            // back by the witness-aware wrapper.
            let (next, timed_out) = st.wait_timeout(&self.not_empty, timeout);
            st = next;
            if timed_out {
                return st.items.pop_front();
            }
        }
    }

    /// Current depth (instantaneous; for telemetry).
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// True when empty at this instant.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`];
    /// consumers drain the remaining items and then see `None`.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// True once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn reject_codes_roundtrip_and_are_dense() {
        for reason in [
            RejectReason::QueueFull,
            RejectReason::SessionLimit,
            RejectReason::ShuttingDown,
            RejectReason::Oversized,
            RejectReason::Invalid,
        ] {
            assert_eq!(RejectReason::from_code(reason.code()), Some(reason));
            assert!(reason.index() < RejectReason::COUNT);
            assert!(!reason.to_string().is_empty());
        }
        assert_eq!(RejectReason::from_code(200), None);
    }

    #[test]
    fn queue_bounds_and_sheds() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err((PushError::Full, v)) => assert_eq!(v, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn close_rejects_pushes_but_drains_consumers() {
        let q = BoundedQueue::new(4);
        q.try_push("a").ok();
        q.try_push("b").ok();
        q.close();
        assert!(matches!(q.try_push("c"), Err((PushError::Closed, _))));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some("a"));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some("b"));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), None);
    }

    #[test]
    fn pop_wakes_on_cross_thread_push() {
        let q = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        q.try_push(99).ok();
        assert_eq!(h.join().expect("join"), Some(99));
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let q = BoundedQueue::new(0);
        assert!(matches!(q.try_push(1), Err((PushError::Full, _))));
    }
}
