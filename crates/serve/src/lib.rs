//! `aero-serve`: a batched inference serving runtime for trained
//! AeroDiffusion pipelines.
//!
//! The runtime turns the research pipeline into a small production-shaped
//! server:
//!
//! - a bounded, deadline-aware [`queue`] with explicit backpressure — a
//!   full queue rejects with a typed reason instead of blocking;
//! - a dynamic micro-batcher ([`RequestQueue::pop_batch`]) that coalesces
//!   concurrent requests into one `[n, c, h, w]` sampler call, where each
//!   request's seed drives a private noise stream so its image is
//!   byte-identical whether it ran at batch 1 or batch 8;
//! - an LRU condition-embedding [`cache`] keyed by prompt, ablation
//!   variant and guidance scale, shared across workers;
//! - a replica fleet ([`runtime`]): [`ServeConfig::replicas`] worker
//!   groups, each with its own queue and cache, in which every thread
//!   serves the one immutable trained pipeline of an
//!   [`aerodiffusion::PipelineSnapshot`], shared behind an `Arc`, with a
//!   graceful drain-and-shutdown;
//! - a rendezvous shard [`router`] placing each request by its
//!   `(prompt, variant)` key, so repeats of a prompt hit the group that
//!   already cached its condition embedding, with minimal-disruption
//!   re-routing when a group is down;
//! - [`admission`] control: per-tenant token buckets plus a global
//!   shed gate on live queue-depth and p95-latency signals, answering
//!   with typed `overloaded` replies carrying a `retry_after_ms` hint;
//! - cancellation that propagates mid-sample: a cancelled request is
//!   swept from the queue with a typed reply, and a coalesced sampler
//!   call stops between DDIM steps once every rider is cancelled;
//! - optional streaming of quantized intermediate-latent previews
//!   (`"stream": true` per request, or fleet-wide via config);
//! - per-request panic isolation, non-finite output guards, cache
//!   corruption recovery and a supervisor that respawns dead workers —
//!   and whole killed replica groups, with zero dropped requests — all
//!   driven deterministically in tests by a [`fault::FaultPlan`];
//! - a registry-backed model control path: the runtime can attach an
//!   [`aero_model::ModelRegistry`] and hot-swap the worker pool onto any
//!   published artifact ([`ServeRuntime::swap_from_registry`]) — the
//!   artifact is decoded into a model once, a swap installs that model's
//!   `Arc`, in-flight batches finish on the outgoing model and later
//!   batches meet the new one; an artifact that fails its CRC or whose
//!   tensors do not fit is rejected typed with the old model left
//!   serving;
//! - an NDJSON [`server`] front-end (request per line in, base64 image
//!   plus per-stage latency per line out) plus `stats`, `models` and
//!   `swap` request types;
//! - a static shape [`lint`] extending `aero-analysis` with the batcher's
//!   coalesced-condition contract against the UNet configuration.
//!
//! The vendored dependency set has no serde or base64, so [`json`] and
//! [`base64`] are small self-contained implementations of exactly the
//! wire format the server speaks.

pub mod admission;
pub mod base64;
pub mod cache;
pub mod fault;
pub mod json;
pub mod lint;
pub mod queue;
pub mod request;
pub mod router;
pub mod runtime;
pub mod server;
pub mod stats;

pub use admission::{AdmissionConfig, AdmissionController, TokenBucket};
pub use aero_diffusion::CancelToken;
pub use cache::{ConditionCache, ConditionKey, LruCache};
pub use fault::{Fault, FaultPlan, SwapFault};
pub use json::Json;
pub use lint::lint_serve;
pub use queue::{Pending, RequestQueue};
pub use request::{
    GenerateRequest, GeneratedImage, ImagePayload, LatentPreview, OverloadScope, RejectReason,
    ServeReply, StageLatency, TaskPayload,
};
pub use router::ShardRouter;
pub use runtime::{ResponseHandle, ServeConfig, ServeRuntime, SwapOutcome};
pub use server::serve_ndjson;
pub use stats::{StatsCollector, StatsReport};
