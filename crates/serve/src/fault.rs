//! Deterministic fault injection for the serving runtime.
//!
//! Robustness claims that are only exercised by real crashes are
//! untestable claims. A [`FaultPlan`] maps request *ordinals* (the Nth
//! request ever submitted to the runtime, counted from 0) to [`Fault`]s;
//! the worker loop consults the plan at well-defined points and triggers
//! the scheduled failure exactly once. Because ordinals are assigned at
//! submission and the plan is fixed up front, a test run with a given
//! plan and given request seeds is fully reproducible — the same worker
//! dies on the same request every time, no sleeps or signal races.
//!
//! Production runtimes simply pass no plan; every injection site then
//! compiles down to a `None` check on an absent `Arc`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Mutex;

/// One injectable failure, attached to a specific request ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the per-request serving path. The worker catches it,
    /// answers this request with a typed `worker_error`, finishes the
    /// rest of its batch, then exits and is respawned by the watchdog.
    PanicRequest,
    /// Kill the whole worker thread while it holds this request's batch.
    /// The worker requeues the *entire* batch (including this request)
    /// at the front of the queue before dying, so a surviving peer or the
    /// respawned worker serves every one of them — the fault fires once,
    /// so the retry goes through clean.
    KillWorker,
    /// Overwrite this request's sampled latents with NaN. The worker's
    /// output guard must detect the non-finite tensor and answer with a
    /// typed `worker_error` instead of decoding garbage.
    NanLatents,
    /// Poison this request's condition-cache entry with NaN after it is
    /// computed. A later request hitting that entry must detect the
    /// corruption, evict it, and recompute.
    CorruptCacheEntry,
    /// Stall this request's preparation for the given number of
    /// milliseconds (exercises deadline expiry and batch coalescing).
    DelayMs(u64),
    /// Poison the condition-cache mutex (a helper thread takes the lock
    /// and panics while holding it). Workers recover the poisoned lock
    /// and keep serving; the pool never stalls.
    PoisonCacheLock,
}

/// One injectable failure on the model hot-swap control path, attached
/// to a *swap* ordinal (the Nth swap attempted on the runtime, counted
/// from 0) rather than a request ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapFault {
    /// Flip a byte of the resolved artifact's bytes after they are read
    /// from the registry but before they are parsed. The artifact's
    /// trailing CRC must reject the corruption, the swap must fail with
    /// a typed error, and the previously installed model must keep
    /// serving every in-flight and subsequent request.
    CorruptArtifact,
}

/// A fixed schedule of faults keyed by request ordinal (plus swap faults
/// keyed by swap ordinal). Shared across workers; each scheduled fault
/// fires exactly once.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Mutex<HashMap<u64, Fault>>,
    swap_faults: Mutex<HashMap<u64, SwapFault>>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder: schedules `fault` for the request with this submission
    /// ordinal, replacing any fault already scheduled there.
    ///
    /// # Panics
    ///
    /// Panics if the plan mutex was poisoned.
    #[must_use]
    pub fn inject(self, ordinal: u64, fault: Fault) -> Self {
        self.schedule(ordinal, fault);
        self
    }

    /// Schedules (or re-schedules) a fault on a shared plan. The worker
    /// loop uses this to hand non-kill faults back when a [`Fault::KillWorker`]
    /// requeues the batch they were taken with, so they still fire on the
    /// retried requests.
    ///
    /// # Panics
    ///
    /// Panics if the plan mutex was poisoned.
    pub fn schedule(&self, ordinal: u64, fault: Fault) {
        self.faults.lock().expect("fault plan lock").insert(ordinal, fault);
    }

    /// A reproducible pseudo-random plan over ordinals `0..horizon`:
    /// roughly one request in four draws a fault, cycling through every
    /// fault kind. The same seed always yields the same plan.
    #[must_use]
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for ordinal in 0..horizon {
            if !rng.gen_bool(0.25) {
                continue;
            }
            let fault = match rng.gen_range(0..5u32) {
                0 => Fault::PanicRequest,
                1 => Fault::KillWorker,
                2 => Fault::NanLatents,
                3 => Fault::CorruptCacheEntry,
                _ => Fault::DelayMs(rng.gen_range(1..20u64)),
            };
            plan = plan.inject(ordinal, fault);
        }
        plan
    }

    /// Takes the fault scheduled for `ordinal`, if any. Removal makes
    /// every fault one-shot: a request retried after a `KillWorker` does
    /// not re-trigger it.
    ///
    /// # Panics
    ///
    /// Panics if the plan mutex was poisoned.
    pub fn take(&self, ordinal: u64) -> Option<Fault> {
        self.faults.lock().expect("fault plan lock").remove(&ordinal)
    }

    /// Builder: schedules `fault` for the swap attempt with this ordinal
    /// (the Nth call to the runtime's swap entry point, from 0).
    ///
    /// # Panics
    ///
    /// Panics if the plan mutex was poisoned.
    #[must_use]
    pub fn inject_swap(self, ordinal: u64, fault: SwapFault) -> Self {
        self.swap_faults.lock().expect("fault plan lock").insert(ordinal, fault);
        self
    }

    /// Takes the fault scheduled for swap attempt `ordinal`, if any.
    /// One-shot, like request faults: a retried swap goes through clean.
    ///
    /// # Panics
    ///
    /// Panics if the plan mutex was poisoned.
    pub fn take_swap(&self, ordinal: u64) -> Option<SwapFault> {
        self.swap_faults.lock().expect("fault plan lock").remove(&ordinal)
    }

    /// Faults still waiting to fire (request and swap faults combined).
    ///
    /// # Panics
    ///
    /// Panics if the plan mutex was poisoned.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.faults.lock().expect("fault plan lock").len()
            + self.swap_faults.lock().expect("fault plan lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once() {
        let plan = FaultPlan::new().inject(3, Fault::PanicRequest);
        assert_eq!(plan.remaining(), 1);
        assert_eq!(plan.take(0), None);
        assert_eq!(plan.take(3), Some(Fault::PanicRequest));
        assert_eq!(plan.take(3), None, "a taken fault must not re-fire");
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn inject_replaces_an_existing_fault() {
        let plan = FaultPlan::new().inject(1, Fault::KillWorker).inject(1, Fault::NanLatents);
        assert_eq!(plan.take(1), Some(Fault::NanLatents));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_nonempty() {
        let a = FaultPlan::seeded(42, 64);
        let b = FaultPlan::seeded(42, 64);
        assert!(a.remaining() > 0, "64 ordinals at ~25% must schedule something");
        assert_eq!(a.remaining(), b.remaining());
        for ordinal in 0..64 {
            assert_eq!(a.take(ordinal), b.take(ordinal), "plans diverged at {ordinal}");
        }
    }

    #[test]
    fn swap_faults_are_one_shot_and_independent_of_request_faults() {
        let plan = FaultPlan::new()
            .inject(0, Fault::PanicRequest)
            .inject_swap(0, SwapFault::CorruptArtifact);
        assert_eq!(plan.remaining(), 2);
        assert_eq!(plan.take_swap(1), None);
        assert_eq!(plan.take_swap(0), Some(SwapFault::CorruptArtifact));
        assert_eq!(plan.take_swap(0), None, "a taken swap fault must not re-fire");
        assert_eq!(plan.take(0), Some(Fault::PanicRequest), "request faults untouched");
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::seeded(1, 256);
        let b = FaultPlan::seeded(2, 256);
        let differs = (0..256).any(|o| a.take(o) != b.take(o));
        assert!(differs, "256 ordinals from different seeds should not collide entirely");
    }
}
