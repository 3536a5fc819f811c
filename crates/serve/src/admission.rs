//! Admission control: per-tenant token buckets plus a global
//! load-shedding gate.
//!
//! Both layers answer at submission time, before a request ever touches
//! a queue, with a typed [`RejectReason::Overloaded`] carrying a
//! `retry_after_ms` hint:
//!
//! - the **tenant** layer is a classic token bucket per tenant id
//!   (`rate` tokens/second, `burst` capacity), so one chatty client
//!   cannot starve the rest;
//! - the **global** layer sheds when the live `aero_obs` signals say the
//!   server is past its knee: queue depth at or above
//!   `shed_queue_depth`, or served p95 end-to-end latency at or above
//!   `shed_p95_us`.
//!
//! Clients should treat `retry_after_ms` as a *base* and retry with
//! jitter (e.g. uniform in `[hint, 2·hint]`); synchronized retries from
//! many shed clients just re-create the spike that shed them.

use crate::request::{OverloadScope, RejectReason};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Admission-control knobs. A zero disables the corresponding gate, so
/// the default configuration admits everything — admission is strictly
/// opt-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Sustained per-tenant rate, requests/second. `0.0` disables the
    /// per-tenant gate.
    pub tenant_rate: f64,
    /// Token-bucket capacity: the burst a tenant may spend above its
    /// sustained rate.
    pub tenant_burst: f64,
    /// Shed new work while the queued requests are at or above this.
    /// `0` disables the depth gate.
    pub shed_queue_depth: usize,
    /// Shed new work while the served p95 end-to-end latency is at or
    /// above this many microseconds. `0` disables the latency gate.
    pub shed_p95_us: u64,
    /// Base `retry_after_ms` hint on global sheds (tenant throttles
    /// compute their own hint from the bucket deficit).
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            tenant_rate: 0.0,
            tenant_burst: 8.0,
            shed_queue_depth: 0,
            shed_p95_us: 0,
            retry_after_ms: 25,
        }
    }
}

/// One tenant's token bucket. Time is an explicit parameter (seconds on
/// a monotonic axis) so refill arithmetic is exactly testable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    /// Tokens/second refill rate.
    rate: f64,
    /// Maximum tokens the bucket holds.
    burst: f64,
    /// Tokens available as of `last`.
    tokens: f64,
    /// Monotonic timestamp (seconds) of the last refill.
    last: f64,
}

impl TokenBucket {
    /// A full bucket refilling at `rate` tokens/second up to `burst`.
    #[must_use]
    pub fn new(rate: f64, burst: f64) -> Self {
        let burst = burst.max(1.0);
        TokenBucket { rate: rate.max(0.0), burst, tokens: burst, last: 0.0 }
    }

    /// Takes one token at monotonic time `now_s`.
    ///
    /// # Errors
    ///
    /// When the bucket is empty, returns the milliseconds until one full
    /// token will have refilled — the `retry_after_ms` hint.
    pub fn try_take(&mut self, now_s: f64) -> Result<(), u64> {
        let elapsed = (now_s - self.last).max(0.0);
        self.last = now_s;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return Ok(());
        }
        if self.rate <= 0.0 {
            // Nothing ever refills; the largest honest hint we can give.
            return Err(u64::MAX);
        }
        let deficit = 1.0 - self.tokens;
        let ms = (deficit / self.rate * 1000.0).ceil();
        Err(if ms.is_finite() && ms >= 0.0 { ms as u64 } else { u64::MAX })
    }

    /// Tokens currently available (after a refill to `now_s`).
    #[must_use]
    pub fn available(&self, now_s: f64) -> f64 {
        let elapsed = (now_s - self.last).max(0.0);
        (self.tokens + elapsed * self.rate).min(self.burst)
    }
}

/// The submission-time gatekeeper: owns the per-tenant buckets and
/// evaluates the global shed signals handed in by the runtime.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    buckets: Mutex<HashMap<String, TokenBucket>>,
    epoch: Instant,
}

impl AdmissionController {
    /// A controller with no tenants seen yet.
    #[must_use]
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController { config, buckets: Mutex::new(HashMap::new()), epoch: Instant::now() }
    }

    /// The configuration this controller enforces.
    #[must_use]
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Decides admission for one request. `queue_depth` is the number of
    /// requests waiting in the queue; `p95_us` is the served end-to-end
    /// p95 (0 until enough requests completed).
    ///
    /// # Errors
    ///
    /// [`RejectReason::Overloaded`] with a `retry_after_ms` hint when a
    /// gate sheds the request.
    ///
    /// # Panics
    ///
    /// Panics if the bucket map mutex was poisoned.
    pub fn admit(&self, tenant: &str, queue_depth: usize, p95_us: u64) -> Result<(), RejectReason> {
        let now_s = self.epoch.elapsed().as_secs_f64();
        self.admit_at(tenant, queue_depth, p95_us, now_s)
    }

    /// [`admit`](AdmissionController::admit) at an explicit monotonic
    /// time — the deterministic entry point tests drive directly.
    ///
    /// # Errors
    ///
    /// As [`admit`](AdmissionController::admit).
    ///
    /// # Panics
    ///
    /// Panics if the bucket map mutex was poisoned.
    pub fn admit_at(
        &self,
        tenant: &str,
        queue_depth: usize,
        p95_us: u64,
        now_s: f64,
    ) -> Result<(), RejectReason> {
        if self.config.shed_queue_depth > 0 && queue_depth >= self.config.shed_queue_depth {
            return Err(RejectReason::Overloaded {
                retry_after_ms: self.config.retry_after_ms.max(1),
                scope: OverloadScope::Global,
            });
        }
        if self.config.shed_p95_us > 0 && p95_us >= self.config.shed_p95_us {
            return Err(RejectReason::Overloaded {
                retry_after_ms: self.config.retry_after_ms.max(1),
                scope: OverloadScope::Global,
            });
        }
        if self.config.tenant_rate > 0.0 {
            let mut buckets = self.buckets.lock().expect("admission bucket lock");
            let bucket = buckets.entry(tenant.to_string()).or_insert_with(|| {
                TokenBucket::new(self.config.tenant_rate, self.config.tenant_burst)
            });
            if let Err(retry_after_ms) = bucket.try_take(now_s) {
                return Err(RejectReason::Overloaded {
                    retry_after_ms: retry_after_ms.max(1),
                    scope: OverloadScope::Tenant,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overload_scope(result: Result<(), RejectReason>) -> Option<OverloadScope> {
        match result {
            Err(RejectReason::Overloaded { scope, .. }) => Some(scope),
            _ => None,
        }
    }

    #[test]
    fn bucket_burst_then_throttle_then_refill() {
        let mut b = TokenBucket::new(10.0, 2.0);
        assert_eq!(b.try_take(0.0), Ok(()));
        assert_eq!(b.try_take(0.0), Ok(()));
        let hint = b.try_take(0.0).unwrap_err();
        // Empty bucket at 10 tokens/s: one token is 100ms away.
        assert_eq!(hint, 100);
        // 150ms later there is a token again.
        assert_eq!(b.try_take(0.15), Ok(()));
        assert!(b.try_take(0.15).is_err());
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut b = TokenBucket::new(100.0, 3.0);
        // A long idle period must cap at the burst, not accumulate.
        assert!((b.available(10.0) - 3.0).abs() < 1e-9);
        for _ in 0..3 {
            assert_eq!(b.try_take(10.0), Ok(()));
        }
        assert!(b.try_take(10.0).is_err());
    }

    #[test]
    fn zero_rate_bucket_spends_its_burst_then_blocks_forever() {
        let mut b = TokenBucket::new(0.0, 2.0);
        assert_eq!(b.try_take(0.0), Ok(()));
        assert_eq!(b.try_take(0.0), Ok(()));
        assert_eq!(b.try_take(1e9), Err(u64::MAX));
    }

    #[test]
    fn default_config_admits_everything() {
        let ctrl = AdmissionController::new(AdmissionConfig::default());
        for i in 0..100 {
            assert_eq!(ctrl.admit_at("t", 1_000, 1_000_000, f64::from(i)), Ok(()));
        }
    }

    #[test]
    fn depth_gate_sheds_globally_with_hint() {
        let config = AdmissionConfig {
            shed_queue_depth: 4,
            retry_after_ms: 30,
            ..AdmissionConfig::default()
        };
        let ctrl = AdmissionController::new(config);
        assert_eq!(ctrl.admit_at("t", 3, 0, 0.0), Ok(()));
        let shed = ctrl.admit_at("t", 4, 0, 0.0);
        assert_eq!(overload_scope(shed.clone()), Some(OverloadScope::Global));
        match shed {
            Err(RejectReason::Overloaded { retry_after_ms, .. }) => assert_eq!(retry_after_ms, 30),
            other => panic!("expected overloaded, got {other:?}"),
        }
    }

    #[test]
    fn p95_gate_sheds_globally() {
        let config = AdmissionConfig { shed_p95_us: 500, ..AdmissionConfig::default() };
        let ctrl = AdmissionController::new(config);
        assert_eq!(ctrl.admit_at("t", 0, 499, 0.0), Ok(()));
        assert_eq!(overload_scope(ctrl.admit_at("t", 0, 500, 0.0)), Some(OverloadScope::Global));
    }

    #[test]
    fn tenants_throttle_independently() {
        let config =
            AdmissionConfig { tenant_rate: 1.0, tenant_burst: 2.0, ..AdmissionConfig::default() };
        let ctrl = AdmissionController::new(config);
        assert_eq!(ctrl.admit_at("a", 0, 0, 0.0), Ok(()));
        assert_eq!(ctrl.admit_at("a", 0, 0, 0.0), Ok(()));
        assert_eq!(overload_scope(ctrl.admit_at("a", 0, 0, 0.0)), Some(OverloadScope::Tenant));
        // Tenant b still has a full bucket.
        assert_eq!(ctrl.admit_at("b", 0, 0, 0.0), Ok(()));
        // And tenant a recovers once a token refills.
        assert_eq!(ctrl.admit_at("a", 0, 0, 1.5), Ok(()));
    }

    #[test]
    fn tenant_hint_reflects_the_bucket_deficit() {
        let config =
            AdmissionConfig { tenant_rate: 2.0, tenant_burst: 1.0, ..AdmissionConfig::default() };
        let ctrl = AdmissionController::new(config);
        assert_eq!(ctrl.admit_at("a", 0, 0, 0.0), Ok(()));
        match ctrl.admit_at("a", 0, 0, 0.0) {
            Err(RejectReason::Overloaded { retry_after_ms, scope }) => {
                assert_eq!(scope, OverloadScope::Tenant);
                // Empty bucket at 2 tokens/s: a full token is 500ms out.
                assert_eq!(retry_after_ms, 500);
            }
            other => panic!("expected tenant throttle, got {other:?}"),
        }
    }
}
