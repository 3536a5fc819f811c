//! The bounded, deadline-aware request queue feeding the worker pool.
//!
//! A pop takes the caller's share of the waiting requests, so workers
//! that wait together split a burst between them rather than one worker
//! batching all of it while the others idle.
//!
//! Backpressure is explicit: a full queue rejects new work with a typed
//! [`RejectReason::QueueFull`] instead of blocking the submitter forever,
//! so callers can shed load or retry with jitter. Requests that sit past
//! their deadline — or whose client cancelled them — are swept with a
//! typed rejection on every push, every pop, and on the supervisor's
//! periodic [`RequestQueue::sweep`], so a client never hangs on a reply
//! that will not come even when no worker is popping.

use crate::request::{GenerateRequest, RejectReason, ServeReply};
use aero_diffusion::CancelToken;
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A queued request plus its bookkeeping.
#[derive(Debug)]
pub struct Pending {
    /// The request itself.
    pub request: GenerateRequest,
    /// Runtime-assigned submission ordinal (0, 1, 2, …). Stable across
    /// requeues, so the fault-injection harness can target "the Nth
    /// request submitted" deterministically.
    pub ordinal: u64,
    /// When it entered the queue (queue-wait accounting).
    pub enqueued: Instant,
    /// Absolute expiry, from the request's relative deadline.
    pub deadline: Option<Instant>,
    /// The client-facing cancel flag: set through the response handle,
    /// observed by queue sweeps and between sampler steps.
    pub cancel: CancelToken,
    /// Where the reply goes.
    pub responder: Sender<ServeReply>,
}

impl Pending {
    /// Sends a typed rejection to the waiting client (best-effort: a
    /// client that dropped its handle is simply gone).
    pub fn reject(self, reason: RejectReason) {
        let _ = self.responder.send(ServeReply::Rejected { id: self.request.id.clone(), reason });
    }
}

#[derive(Debug)]
struct State {
    items: VecDeque<Pending>,
    shutting_down: bool,
    /// Callers currently blocked in [`RequestQueue::pop_batch`].
    waiting: usize,
}

/// The bounded MPMC queue between submitters and workers.
#[derive(Debug)]
pub struct RequestQueue {
    state: Mutex<State>,
    available: Condvar,
    capacity: usize,
}

impl RequestQueue {
    /// Creates a queue admitting at most `capacity` waiting requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        RequestQueue {
            state: Mutex::new(State { items: VecDeque::new(), shutting_down: false, waiting: 0 }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently waiting.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking worker.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues a request, or rejects it with backpressure.
    ///
    /// # Errors
    ///
    /// [`RejectReason::ShuttingDown`] once a drain began,
    /// [`RejectReason::QueueFull`] at capacity.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking worker.
    pub fn push(&self, pending: Pending) -> Result<(), RejectReason> {
        let mut state = self.state.lock().expect("queue lock");
        if state.shutting_down {
            return Err(RejectReason::ShuttingDown);
        }
        if state.items.len() >= self.capacity {
            // Dead entries should not cause live rejections: sweep first,
            // and only reject if the queue is still genuinely full.
            sweep_items(&mut state.items);
            if state.items.len() >= self.capacity {
                return Err(RejectReason::QueueFull { capacity: self.capacity });
            }
        }
        state.items.push_back(pending);
        drop(state);
        self.available.notify_all();
        Ok(())
    }

    /// Blocks until work is available, then returns this caller's share
    /// of it: the waiting requests divided by the callers blocked in
    /// `pop_batch` (this one included), rounded up, and never more than
    /// `max_batch`, so a lone caller may take `max_batch`. When fewer
    /// than `max_batch` are waiting, lingers up to `coalesce_wait` for
    /// stragglers to batch with (dynamic batching); a drain skips the
    /// linger. Expired and cancelled requests are rejected here, not
    /// returned. Returns `None` when shutting down with an empty queue —
    /// the worker's signal to exit.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking worker.
    pub fn pop_batch(&self, max_batch: usize, coalesce_wait: Duration) -> Option<Vec<Pending>> {
        let max_batch = max_batch.max(1);
        let mut state = self.state.lock().expect("queue lock");
        state.waiting += 1;
        let batch = loop {
            sweep_items(&mut state.items);
            if state.items.is_empty() {
                if state.shutting_down {
                    break None;
                }
                let (s, _) = self
                    .available
                    .wait_timeout(state, Duration::from_millis(5))
                    .expect("queue lock");
                state = s;
                continue;
            }
            if state.items.len() < max_batch && !state.shutting_down {
                let coalesce_until = Instant::now() + coalesce_wait;
                while state.items.len() < max_batch && !state.shutting_down {
                    let left = coalesce_until.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let (s, _) = self.available.wait_timeout(state, left).expect("queue lock");
                    state = s;
                }
                sweep_items(&mut state.items);
                if state.items.is_empty() {
                    continue;
                }
            }
            let share = state.items.len().div_ceil(state.waiting).min(max_batch);
            break Some(state.items.drain(..share).collect());
        };
        state.waiting -= 1;
        batch
    }

    /// Rejects every expired or cancelled entry in place, with a typed
    /// reply. Workers sweep implicitly on push and pop; the supervisor
    /// calls this on a timer so clients get their rejection even while
    /// every worker is busy inside a long sampler call.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking worker.
    pub fn sweep(&self) {
        sweep_items(&mut self.state.lock().expect("queue lock").items);
    }

    /// Returns already-admitted requests to the *front* of the queue, in
    /// order. Used by a dying worker to hand its unserved batch back so a
    /// replacement can finish it: these requests were admitted once, so
    /// capacity and shutdown checks do not apply — dropping them here
    /// would silently lose replies.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking worker.
    pub fn requeue(&self, batch: Vec<Pending>) {
        let mut state = self.state.lock().expect("queue lock");
        for pending in batch.into_iter().rev() {
            state.items.push_front(pending);
        }
        drop(state);
        self.available.notify_all();
    }

    /// Removes and returns every waiting request. Used when the last
    /// live worker is gone and nobody will ever pop again — the caller
    /// rejects each request with a typed error instead of hanging the
    /// clients forever.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking worker.
    #[must_use]
    pub fn drain_all(&self) -> Vec<Pending> {
        let mut state = self.state.lock().expect("queue lock");
        state.items.drain(..).collect()
    }

    /// Starts a drain: new pushes are rejected, workers keep popping until
    /// the queue is empty and then see `None`.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking worker.
    pub fn begin_shutdown(&self) {
        self.state.lock().expect("queue lock").shutting_down = true;
        self.available.notify_all();
    }
}

/// Rejects every entry whose deadline has passed or whose client
/// cancelled it, in place.
fn sweep_items(items: &mut VecDeque<Pending>) {
    let now = Instant::now();
    let mut i = 0;
    while i < items.len() {
        let reason = match items.get(i) {
            Some(p) if p.deadline.is_some_and(|d| d <= now) => Some(RejectReason::DeadlineExceeded),
            Some(p) if p.cancel.is_cancelled() => Some(RejectReason::Cancelled),
            _ => None,
        };
        match reason {
            Some(reason) => {
                if let Some(p) = items.remove(i) {
                    p.reject(reason);
                }
            }
            None => i += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn pending(id: &str, deadline: Option<Duration>) -> (Pending, mpsc::Receiver<ServeReply>) {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        (
            Pending {
                request: GenerateRequest::new(id, "a prompt", 0),
                ordinal: 0,
                enqueued: now,
                deadline: deadline.map(|d| now + d),
                cancel: CancelToken::new(),
                responder: tx,
            },
            rx,
        )
    }

    #[test]
    fn full_queue_rejects_with_typed_error() {
        let q = RequestQueue::new(2);
        let (a, _ra) = pending("a", None);
        let (b, _rb) = pending("b", None);
        let (c, _rc) = pending("c", None);
        q.push(a).unwrap();
        q.push(b).unwrap();
        assert_eq!(q.push(c), Err(RejectReason::QueueFull { capacity: 2 }));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_old() {
        let q = RequestQueue::new(4);
        let (a, _ra) = pending("a", None);
        q.push(a).unwrap();
        q.begin_shutdown();
        let (b, _rb) = pending("b", None);
        assert_eq!(q.push(b), Err(RejectReason::ShuttingDown));
        // draining: the queued request is still delivered…
        let batch = q.pop_batch(8, Duration::from_millis(50)).expect("drain batch");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].request.id, "a");
        // …and an empty drained queue signals exit.
        assert!(q.pop_batch(8, Duration::from_millis(50)).is_none());
    }

    #[test]
    fn pop_coalesces_up_to_max_batch() {
        let q = RequestQueue::new(8);
        for i in 0..5 {
            let (p, _r) = pending(&format!("r{i}"), None);
            std::mem::forget(_r); // keep responders alive for the test
            q.push(p).unwrap();
        }
        q.begin_shutdown(); // skip the coalesce linger
        let batch = q.pop_batch(3, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 3);
        let rest = q.pop_batch(3, Duration::ZERO).unwrap();
        assert_eq!(rest.len(), 2);
    }

    #[test]
    fn expired_requests_are_rejected_not_served() {
        let q = RequestQueue::new(4);
        let (dead, dead_rx) = pending("dead", Some(Duration::ZERO));
        let (live, live_rx) = pending("live", None);
        q.push(dead).unwrap();
        q.push(live).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        q.begin_shutdown();
        let batch = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].request.id, "live");
        drop(live_rx);
        match dead_rx.recv().expect("rejection must be delivered") {
            ServeReply::Rejected { id, reason } => {
                assert_eq!(id, "dead");
                assert_eq!(reason, RejectReason::DeadlineExceeded);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn sweep_rejects_expired_entries_with_no_worker_popping() {
        let q = RequestQueue::new(4);
        let (dead, dead_rx) = pending("dead", Some(Duration::ZERO));
        let (live, _live_rx) = pending("live", None);
        q.push(dead).unwrap();
        q.push(live).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        // Nobody pops; the supervisor's timer sweep alone must deliver
        // the typed rejection so the client never hangs.
        q.sweep();
        assert_eq!(q.len(), 1);
        match dead_rx.recv().expect("rejection must be delivered") {
            ServeReply::Rejected { id, reason } => {
                assert_eq!(id, "dead");
                assert_eq!(reason, RejectReason::DeadlineExceeded);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_entry_is_swept_with_typed_reply() {
        let q = RequestQueue::new(4);
        let (gone, gone_rx) = pending("gone", None);
        let token = gone.cancel.clone();
        let (live, _live_rx) = pending("live", None);
        q.push(gone).unwrap();
        q.push(live).unwrap();
        token.cancel();
        q.begin_shutdown();
        let batch = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].request.id, "live");
        match gone_rx.recv().expect("rejection must be delivered") {
            ServeReply::Rejected { id, reason } => {
                assert_eq!(id, "gone");
                assert_eq!(reason, RejectReason::Cancelled);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn push_at_capacity_sweeps_dead_entries_before_rejecting() {
        let q = RequestQueue::new(2);
        let (dead, _dead_rx) = pending("dead", None);
        let token = dead.cancel.clone();
        let (a, _ra) = pending("a", None);
        q.push(dead).unwrap();
        q.push(a).unwrap();
        token.cancel();
        // The queue is nominally full, but one entry is dead: the push
        // must sweep it out and admit the live request.
        let (b, _rb) = pending("b", None);
        q.push(b).unwrap();
        assert_eq!(q.len(), 2);
        // Full of live entries it still rejects.
        let (c, _rc) = pending("c", None);
        assert_eq!(q.push(c), Err(RejectReason::QueueFull { capacity: 2 }));
    }

    #[test]
    fn waiting_callers_split_what_arrives() {
        let q = RequestQueue::new(16);
        let mut replies = Vec::new();
        let mut takes: Vec<usize> = std::thread::scope(|scope| {
            let poppers: Vec<_> = (0..2)
                .map(|_| {
                    let q = &q;
                    scope.spawn(move || {
                        q.pop_batch(8, Duration::from_millis(200)).map_or(0, |batch| batch.len())
                    })
                })
                .collect();
            // Push only once both callers are blocked, so each take sees
            // the other caller waiting.
            while q.state.lock().unwrap().waiting < 2 {
                std::thread::yield_now();
            }
            for i in 0..8 {
                let (p, rx) = pending(&format!("r{i}"), None);
                q.push(p).unwrap();
                replies.push(rx);
            }
            q.begin_shutdown();
            poppers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        takes.sort_unstable();
        assert_eq!(takes, vec![4, 4], "two waiting callers must split eight requests evenly");
    }

    #[test]
    fn requeue_puts_requests_back_at_the_front_in_order() {
        let q = RequestQueue::new(4);
        let (a, _ra) = pending("a", None);
        let (b, _rb) = pending("b", None);
        q.push(a).unwrap();
        q.begin_shutdown();
        let batch = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 1);
        // A dying worker hands back its batch even mid-shutdown, ahead of
        // anything still queued.
        q.push(b).unwrap_err(); // new work is still refused
        q.requeue(batch);
        let again = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(again[0].request.id, "a");
    }

    #[test]
    fn drain_all_empties_the_queue_for_terminal_rejection() {
        let q = RequestQueue::new(4);
        let (a, ra) = pending("a", None);
        let (b, rb) = pending("b", None);
        q.push(a).unwrap();
        q.push(b).unwrap();
        let orphans = q.drain_all();
        assert_eq!(orphans.len(), 2);
        assert!(q.is_empty());
        for p in orphans {
            p.reject(RejectReason::WorkerError { detail: "no live workers".into() });
        }
        for rx in [ra, rb] {
            match rx.recv().unwrap() {
                ServeReply::Rejected { reason: RejectReason::WorkerError { .. }, .. } => {}
                other => panic!("expected worker_error, got {other:?}"),
            }
        }
    }

    #[test]
    fn concurrent_producers_and_one_worker_drain_everything() {
        let q = std::sync::Arc::new(RequestQueue::new(64));
        let mut rxs = Vec::new();
        std::thread::scope(|scope| {
            let worker_q = q.clone();
            let worker = scope.spawn(move || {
                let mut served = 0;
                while let Some(batch) = worker_q.pop_batch(4, Duration::from_millis(1)) {
                    for p in batch {
                        let _ = p.responder.send(ServeReply::Rejected {
                            id: p.request.id.clone(),
                            reason: RejectReason::WorkerFailure,
                        });
                        served += 1;
                    }
                }
                served
            });
            for i in 0..16 {
                let (p, rx) = pending(&format!("r{i}"), None);
                q.push(p).unwrap();
                rxs.push(rx);
            }
            // let the worker drain, then stop it
            while !q.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
            q.begin_shutdown();
            assert_eq!(worker.join().unwrap(), 16);
        });
        for rx in rxs {
            assert!(rx.recv().is_ok(), "every request must get a reply");
        }
    }
}
