//! Aggregate serving statistics, queryable live via the `stats` request
//! type and returned once more by a graceful shutdown.
//!
//! The collector is a thin veneer over a private [`aero_obs::Registry`]:
//! every count lands in a named metric (`serve.completed`,
//! `serve.rejected.queue_full`, `serve.batch_occupancy`, …) so the same
//! numbers surface both through the legacy [`StatsReport`] wire form and
//! through the unified `metrics` endpoint, which merges this registry
//! with the process-global one (tensor kernels, sampler spans, training
//! counters). The registry is per-collector — concurrent runtimes and
//! tests never share serving counters — and every observation is a
//! relaxed atomic, so there is no stats mutex left to contend or poison.

use crate::json::Json;
use crate::request::{OverloadScope, RejectReason, StageLatency};
use aero_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use std::sync::Arc;

/// Largest batch size tracked with an exact linear bucket; coalesced
/// calls beyond it fold into the overflow bucket. Comfortably above any
/// realistic `max_batch`.
const BATCH_OCCUPANCY_MAX: u64 = 64;

/// Thread-safe accumulator shared by submitters and workers.
///
/// All handles are pre-resolved `Arc`s into the private registry, so the
/// record paths are lock-free atomic adds.
#[derive(Debug)]
pub struct StatsCollector {
    registry: Registry,
    completed: Arc<Counter>,
    rejected_full: Arc<Counter>,
    rejected_deadline: Arc<Counter>,
    rejected_shutdown: Arc<Counter>,
    rejected_worker: Arc<Counter>,
    rejected_worker_error: Arc<Counter>,
    rejected_overloaded: Arc<Counter>,
    rejected_cancelled: Arc<Counter>,
    shed_tenant: Arc<Counter>,
    shed_global: Arc<Counter>,
    worker_panics: Arc<Counter>,
    worker_restarts: Arc<Counter>,
    nonfinite_outputs: Arc<Counter>,
    cache_corruptions: Arc<Counter>,
    sampler_aborts: Arc<Counter>,
    previews: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    queue_us: Arc<Counter>,
    encode_us: Arc<Counter>,
    sample_us: Arc<Counter>,
    decode_us: Arc<Counter>,
    batch_occupancy: Arc<Histogram>,
    e2e_us: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
}

impl Default for StatsCollector {
    fn default() -> Self {
        StatsCollector::new()
    }
}

impl StatsCollector {
    /// Creates an empty collector with its own metric registry.
    #[must_use]
    pub fn new() -> Self {
        let registry = Registry::new();
        StatsCollector {
            completed: registry.counter("serve.completed"),
            rejected_full: registry.counter("serve.rejected.queue_full"),
            rejected_deadline: registry.counter("serve.rejected.deadline_exceeded"),
            rejected_shutdown: registry.counter("serve.rejected.shutting_down"),
            rejected_worker: registry.counter("serve.rejected.worker_failure"),
            rejected_worker_error: registry.counter("serve.rejected.worker_error"),
            rejected_overloaded: registry.counter("serve.rejected.overloaded"),
            rejected_cancelled: registry.counter("serve.rejected.cancelled"),
            shed_tenant: registry.counter("serve.admission.shed_tenant"),
            shed_global: registry.counter("serve.admission.shed_global"),
            worker_panics: registry.counter("serve.fault.worker_panics"),
            worker_restarts: registry.counter("serve.fault.worker_restarts"),
            nonfinite_outputs: registry.counter("serve.fault.nonfinite_outputs"),
            cache_corruptions: registry.counter("serve.fault.cache_corruptions"),
            sampler_aborts: registry.counter("serve.cancel.sampler_aborts"),
            previews: registry.counter("serve.stream.previews"),
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            queue_us: registry.counter("serve.latency.queue_us_total"),
            encode_us: registry.counter("serve.latency.encode_us_total"),
            sample_us: registry.counter("serve.latency.sample_us_total"),
            decode_us: registry.counter("serve.latency.decode_us_total"),
            batch_occupancy: registry
                .histogram("serve.batch_occupancy", &Histogram::linear(BATCH_OCCUPANCY_MAX)),
            e2e_us: registry.histogram("serve.request.e2e_us", &Histogram::exponential_us()),
            queue_depth: registry.gauge("serve.queue_depth"),
            registry,
        }
    }

    /// Records one coalesced sampler call over `n` requests.
    pub fn record_batch(&self, n: usize) {
        self.batch_occupancy.observe(u64::try_from(n).unwrap_or(u64::MAX));
    }

    /// Records one served request's latency breakdown and cache outcome.
    pub fn record_completed(&self, latency: StageLatency, cache_hit: bool) {
        self.completed.inc();
        self.queue_us.add(latency.queue_us);
        self.encode_us.add(latency.encode_us);
        self.sample_us.add(latency.sample_us);
        self.decode_us.add(latency.decode_us);
        self.e2e_us.observe(
            latency
                .queue_us
                .saturating_add(latency.encode_us)
                .saturating_add(latency.sample_us)
                .saturating_add(latency.decode_us),
        );
        if cache_hit {
            self.cache_hits.inc();
        } else {
            self.cache_misses.inc();
        }
    }

    /// Records one rejection by reason.
    pub fn record_rejected(&self, reason: &RejectReason) {
        match reason {
            RejectReason::QueueFull { .. } => self.rejected_full.inc(),
            RejectReason::DeadlineExceeded => self.rejected_deadline.inc(),
            RejectReason::ShuttingDown => self.rejected_shutdown.inc(),
            RejectReason::WorkerFailure => self.rejected_worker.inc(),
            RejectReason::WorkerError { .. } => self.rejected_worker_error.inc(),
            RejectReason::Overloaded { scope, .. } => {
                self.rejected_overloaded.inc();
                match scope {
                    OverloadScope::Tenant => self.shed_tenant.inc(),
                    OverloadScope::Global => self.shed_global.inc(),
                }
            }
            RejectReason::Cancelled => self.rejected_cancelled.inc(),
        }
    }

    /// Records one caught in-worker panic (the request got a typed
    /// `worker_error` reply; the worker is respawned by the watchdog).
    pub fn record_worker_panic(&self) {
        self.worker_panics.inc();
    }

    /// Records one worker respawned by the watchdog.
    pub fn record_worker_restart(&self) {
        self.worker_restarts.inc();
    }

    /// Records one sampler output rejected for containing non-finite
    /// values instead of being decoded and returned.
    pub fn record_nonfinite_output(&self) {
        self.nonfinite_outputs.inc();
    }

    /// Records one condition-cache entry discarded as corrupt (non-finite
    /// values) and recomputed.
    pub fn record_cache_corruption(&self) {
        self.cache_corruptions.inc();
    }

    /// Records one sampler call stopped early by cancellation (at least
    /// one DDIM step was skipped).
    pub fn record_sampler_abort(&self) {
        self.sampler_aborts.inc();
    }

    /// Records one streamed intermediate-latent preview reply.
    pub fn record_preview(&self) {
        self.previews.inc();
    }

    /// Served p95 end-to-end latency in microseconds (0 until anything
    /// completed) — the live signal behind the admission p95 gate.
    #[must_use]
    pub fn e2e_p95_us(&self) -> u64 {
        self.e2e_us.snapshot().quantile(0.95)
    }

    /// Publishes the current queue depth (requests waiting).
    pub fn set_queue_depth(&self, depth: usize) {
        #[allow(clippy::cast_precision_loss)]
        self.queue_depth.set(depth as f64);
    }

    /// A consistent point-in-time report in the legacy aggregate shape.
    #[must_use]
    pub fn report(&self) -> StatsReport {
        let completed = self.completed.get();
        let hits = self.cache_hits.get();
        let lookups = hits + self.cache_misses.get();
        let mean = |total_us: u64| {
            if completed == 0 {
                0.0
            } else {
                total_us as f64 / completed as f64
            }
        };
        StatsReport {
            completed,
            rejected_queue_full: self.rejected_full.get(),
            rejected_deadline: self.rejected_deadline.get(),
            rejected_shutting_down: self.rejected_shutdown.get(),
            rejected_worker_failure: self.rejected_worker.get(),
            rejected_worker_error: self.rejected_worker_error.get(),
            rejected_overloaded: self.rejected_overloaded.get(),
            rejected_cancelled: self.rejected_cancelled.get(),
            worker_panics: self.worker_panics.get(),
            worker_restarts: self.worker_restarts.get(),
            nonfinite_outputs: self.nonfinite_outputs.get(),
            cache_corruptions: self.cache_corruptions.get(),
            sampler_aborts: self.sampler_aborts.get(),
            previews_streamed: self.previews.get(),
            cache_hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
            batch_size_hist: batch_hist_from(&self.batch_occupancy.snapshot()),
            mean_queue_us: mean(self.queue_us.get()),
            mean_encode_us: mean(self.encode_us.get()),
            mean_sample_us: mean(self.sample_us.get()),
            mean_decode_us: mean(self.decode_us.get()),
        }
    }

    /// Every serving metric plus the process-global ambient metrics
    /// (tensor kernels, training counters, pipeline gauges) in one
    /// name-ordered snapshot: the payload behind the `metrics` request.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.merge(aero_obs::global().snapshot());
        snap
    }
}

/// Reconstructs the legacy dense `hist[n]` vector from the linear
/// occupancy histogram: bucket `n` holds exactly the batches of size
/// `n`, overflow folds into the last tracked size, trailing zeros are
/// trimmed so an idle collector reports an empty vector.
fn batch_hist_from(snapshot: &aero_obs::HistogramSnapshot) -> Vec<u64> {
    let mut hist = snapshot.buckets.clone();
    let overflow = hist.pop().unwrap_or(0);
    if let Some(last) = hist.last_mut() {
        *last += overflow;
    }
    while hist.last() == Some(&0) {
        hist.pop();
    }
    hist
}

/// A snapshot of the aggregate counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Requests served with an image.
    pub completed: u64,
    /// Requests rejected by queue backpressure.
    pub rejected_queue_full: u64,
    /// Requests whose deadline expired while queued.
    pub rejected_deadline: u64,
    /// Requests rejected because a drain had begun.
    pub rejected_shutting_down: u64,
    /// Requests lost to a worker failure.
    pub rejected_worker_failure: u64,
    /// Requests answered with a typed `worker_error` (caught panic,
    /// non-finite output, a task the model cannot serve, or no live
    /// worker left).
    pub rejected_worker_error: u64,
    /// Requests shed by admission control (tenant throttle or global
    /// overload gate), each with a `retry_after_ms` hint.
    pub rejected_overloaded: u64,
    /// Requests rejected because their client cancelled them.
    pub rejected_cancelled: u64,
    /// In-worker panics caught and converted to typed replies.
    pub worker_panics: u64,
    /// Workers respawned by the watchdog after dying.
    pub worker_restarts: u64,
    /// Sampler outputs rejected for containing NaN/Inf values.
    pub nonfinite_outputs: u64,
    /// Condition-cache entries discarded as corrupt and recomputed.
    pub cache_corruptions: u64,
    /// Sampler calls stopped early by cancellation.
    pub sampler_aborts: u64,
    /// Intermediate-latent preview replies streamed.
    pub previews_streamed: u64,
    /// Condition-cache hit rate over all lookups (0 when none).
    pub cache_hit_rate: f64,
    /// `hist[n]` = sampler calls that coalesced `n` requests.
    pub batch_size_hist: Vec<u64>,
    /// Mean queue wait per served request, microseconds.
    pub mean_queue_us: f64,
    /// Mean encode time per served request, microseconds.
    pub mean_encode_us: f64,
    /// Mean sampler share per served request, microseconds.
    pub mean_sample_us: f64,
    /// Mean decode time per served request, microseconds.
    pub mean_decode_us: f64,
}

impl StatsReport {
    /// The NDJSON wire form (`{"type":"stats",…}`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", "stats".into()),
            ("completed", self.completed.into()),
            (
                "rejected",
                Json::obj(vec![
                    ("queue_full", self.rejected_queue_full.into()),
                    ("deadline_exceeded", self.rejected_deadline.into()),
                    ("shutting_down", self.rejected_shutting_down.into()),
                    ("worker_failure", self.rejected_worker_failure.into()),
                    ("worker_error", self.rejected_worker_error.into()),
                    ("overloaded", self.rejected_overloaded.into()),
                    ("cancelled", self.rejected_cancelled.into()),
                ]),
            ),
            ("cache_hit_rate", self.cache_hit_rate.into()),
            (
                "batch_size_hist",
                Json::Arr(self.batch_size_hist.iter().map(|&c| c.into()).collect()),
            ),
            (
                "mean_latency_us",
                Json::obj(vec![
                    ("queue", self.mean_queue_us.into()),
                    ("encode", self.mean_encode_us.into()),
                    ("sample", self.mean_sample_us.into()),
                    ("decode", self.mean_decode_us.into()),
                ]),
            ),
            (
                "faults",
                Json::obj(vec![
                    ("worker_panics", self.worker_panics.into()),
                    ("worker_restarts", self.worker_restarts.into()),
                    ("nonfinite_outputs", self.nonfinite_outputs.into()),
                    ("cache_corruptions", self.cache_corruptions.into()),
                ]),
            ),
            ("sampler_aborts", self.sampler_aborts.into()),
            ("previews_streamed", self.previews_streamed.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_latency_and_cache_rate() {
        let stats = StatsCollector::new();
        stats.record_batch(2);
        stats.record_completed(
            StageLatency { queue_us: 10, encode_us: 20, sample_us: 30, decode_us: 40 },
            true,
        );
        stats.record_completed(
            StageLatency { queue_us: 30, encode_us: 0, sample_us: 50, decode_us: 60 },
            false,
        );
        stats.record_rejected(&RejectReason::QueueFull { capacity: 4 });
        let r = stats.report();
        assert_eq!(r.completed, 2);
        assert_eq!(r.rejected_queue_full, 1);
        assert!((r.cache_hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(r.batch_size_hist, vec![0, 0, 1]);
        assert!((r.mean_queue_us - 20.0).abs() < 1e-12);
        assert!((r.mean_sample_us - 40.0).abs() < 1e-12);
    }

    #[test]
    fn fault_counters_survive_to_the_wire_form() {
        let stats = StatsCollector::new();
        stats.record_worker_panic();
        stats.record_worker_restart();
        stats.record_worker_restart();
        stats.record_nonfinite_output();
        stats.record_cache_corruption();
        stats.record_rejected(&RejectReason::WorkerError { detail: "boom".into() });
        let r = stats.report();
        assert_eq!(r.worker_panics, 1);
        assert_eq!(r.worker_restarts, 2);
        assert_eq!(r.nonfinite_outputs, 1);
        assert_eq!(r.cache_corruptions, 1);
        assert_eq!(r.rejected_worker_error, 1);
        let v = Json::parse(&r.to_json().render()).unwrap();
        let faults = v.get("faults").expect("faults object");
        assert_eq!(faults.get("worker_restarts").and_then(Json::as_u64), Some(2));
        assert_eq!(
            v.get("rejected").and_then(|r| r.get("worker_error")).and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn fleet_counters_survive_to_the_wire_form() {
        let stats = StatsCollector::new();
        stats.record_sampler_abort();
        stats.record_preview();
        stats.record_preview();
        stats.record_rejected(&RejectReason::Overloaded {
            retry_after_ms: 25,
            scope: OverloadScope::Global,
        });
        stats.record_rejected(&RejectReason::Overloaded {
            retry_after_ms: 100,
            scope: OverloadScope::Tenant,
        });
        stats.record_rejected(&RejectReason::Cancelled);
        let r = stats.report();
        assert_eq!(r.sampler_aborts, 1);
        assert_eq!(r.previews_streamed, 2);
        assert_eq!(r.rejected_overloaded, 2);
        assert_eq!(r.rejected_cancelled, 1);
        let v = Json::parse(&r.to_json().render()).unwrap();
        let rej = v.get("rejected").expect("rejected object");
        assert_eq!(rej.get("overloaded").and_then(Json::as_u64), Some(2));
        assert_eq!(rej.get("cancelled").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("sampler_aborts").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("previews_streamed").and_then(Json::as_u64), Some(2));
        let snap = stats.metrics_snapshot();
        assert_eq!(snap.counter("serve.admission.shed_global"), Some(1));
        assert_eq!(snap.counter("serve.admission.shed_tenant"), Some(1));
    }

    #[test]
    fn e2e_p95_tracks_served_latency() {
        let stats = StatsCollector::new();
        assert_eq!(stats.e2e_p95_us(), 0, "empty histogram must not shed anything");
        for _ in 0..20 {
            stats.record_completed(
                StageLatency { queue_us: 0, encode_us: 0, sample_us: 10_000, decode_us: 0 },
                false,
            );
        }
        let p95 = stats.e2e_p95_us();
        assert!(p95 >= 10_000, "p95 of 10ms requests must be at least 10ms, got {p95}");
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = StatsCollector::new().report();
        assert_eq!(r.completed, 0);
        assert_eq!(r.cache_hit_rate, 0.0);
        assert_eq!(r.mean_queue_us, 0.0);
        assert_eq!(r.batch_size_hist, Vec::<u64>::new());
    }

    #[test]
    fn wire_form_parses_back() {
        let stats = StatsCollector::new();
        stats.record_batch(1);
        stats.record_completed(StageLatency::default(), false);
        let wire = stats.report().to_json().render();
        let v = Json::parse(&wire).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("stats"));
        assert_eq!(v.get("completed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn registry_backs_the_report() {
        let stats = StatsCollector::new();
        stats.record_completed(
            StageLatency { queue_us: 1, encode_us: 2, sample_us: 3, decode_us: 4 },
            true,
        );
        stats.record_batch(1);
        stats.set_queue_depth(5);
        let snap = stats.metrics_snapshot();
        assert_eq!(snap.counter("serve.completed"), Some(1));
        assert_eq!(snap.counter("serve.cache.hits"), Some(1));
        assert_eq!(snap.counter("serve.latency.sample_us_total"), Some(3));
        let depth = snap.gauges.iter().find(|(n, _)| n == "serve.queue_depth").map(|&(_, v)| v);
        assert_eq!(depth, Some(5.0));
        let e2e = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "serve.request.e2e_us")
            .map(|(_, h)| h.clone())
            .expect("e2e histogram registered");
        assert_eq!(e2e.count, 1);
        assert_eq!(e2e.sum, 10);
    }

    #[test]
    fn collectors_do_not_share_counters() {
        let a = StatsCollector::new();
        let b = StatsCollector::new();
        a.record_worker_panic();
        assert_eq!(a.report().worker_panics, 1);
        assert_eq!(b.report().worker_panics, 0);
    }

    #[test]
    fn oversized_batches_fold_into_the_last_bucket() {
        let stats = StatsCollector::new();
        stats.record_batch(super::BATCH_OCCUPANCY_MAX as usize + 10);
        let hist = stats.report().batch_size_hist;
        assert_eq!(hist.len(), super::BATCH_OCCUPANCY_MAX as usize + 1);
        assert_eq!(*hist.last().unwrap(), 1);
    }
}
