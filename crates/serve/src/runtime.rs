//! The serving runtime: a supervised fleet of replica worker groups over
//! one immutable trained pipeline, fronted by a rendezvous shard router
//! and an admission controller.
//!
//! Every worker serves one decoded model: the [`PipelineSnapshot`] the
//! runtime started with, or the last one a hot-swap installed, shared
//! behind a single `Arc` in the model slot. Weights are frozen at
//! snapshot time and any number of threads may read them at once, so any
//! worker may serve any request and no worker keeps a copy of its own.
//! A hot-swap installs a new `Arc`; a worker takes the slot's `Arc` once
//! per popped batch, so a batch finishes on the model it started with,
//! the next one meets the new model, and the outgoing model is freed
//! when its last batch is done.
//!
//! Thread budget: whenever a worker takes the model for a batch it sets
//! its kernel thread policy to its share of the cores,
//! `max(1, cores / (replicas × workers))`, capped by the snapshot's own
//! count, under the snapshot's backend. Workers that together fill the
//! cores therefore run one thread each, and the DDIM sampler spawns no
//! guidance helper for them; a worker with two cores to itself runs each
//! guided step's two UNet passes side by side. Workers plan against the
//! core count of the thread that started the runtime.
//!
//! Scale-out shape: [`ServeConfig::replicas`] independent *replica
//! groups*, each with its own bounded queue, its own condition-embedding
//! cache, and [`ServeConfig::workers`] worker threads. The
//! [`ShardRouter`] places each request by its `(prompt, variant)` key, so
//! repeats of a prompt land on the group that already cached its
//! embedding; the [`AdmissionController`] sheds work *before* it touches
//! any queue, with a typed `overloaded` reply carrying a
//! `retry_after_ms` hint.
//!
//! Determinism contract: a request's image depends only on its own
//! `(prompt, seed, steps, guidance, task)`. Each request's initial latent
//! (and, for inpainting, its pin-noise stream) is drawn from a private
//! `StdRng` seeded with the request seed, and the DDIM reverse process is
//! row-independent, so coalescing requests into one `[n, c, h, w]`
//! sampler call — even a heterogeneous text/view/inpaint mix — or moving
//! a request between replica groups changes throughput, never bytes.
//!
//! Fault-tolerance contract: one bad request must never take the service
//! down, one dead worker must never strand queued work, and one dead
//! *replica group* must never drop a request.
//!
//! - Per-request preparation runs under `catch_unwind`; a panic answers
//!   *that* request with a typed `worker_error` reply while the rest of
//!   the batch is still served. The worker that caught the panic is
//!   treated as suspect: it finishes its batch, exits, and the supervisor
//!   respawns a fresh worker in its place (up to
//!   [`ServeConfig::max_worker_restarts`]).
//! - A worker that dies outright hands its unserved batch back to the
//!   front of its group's queue first, so the replacement worker — or any
//!   surviving peer — finishes it with zero dropped replies.
//! - A *replica kill* ([`Fault::KillReplica`]) takes a whole group down
//!   mid-batch: the dying worker marks the group down in the router,
//!   aborts its siblings' pops via the group kill flag, re-routes its
//!   in-flight batch onto surviving groups, and panics. The supervisor
//!   then re-routes anything left in the dead group's queue, clears its
//!   condition cache (the respawned group recomputes), respawns every
//!   worker, and marks the group back up — zero requests dropped end to
//!   end.
//! - A cancelled request is swept from the queue with a typed `cancelled`
//!   reply, or — once sampling started — stops the coalesced sampler call
//!   between DDIM steps as soon as *every* request in the call is
//!   cancelled, freeing the batch slot early.
//! - Sampler outputs are checked for non-finite values before decode;
//!   a NaN latent becomes a typed reply, never a garbage image.
//! - Cached condition embeddings are validated on every hit; a corrupt
//!   entry is evicted, counted, and recomputed. A *poisoned* cache lock
//!   ([`Fault::PoisonCacheLock`]) is recovered, never propagated.
//! - If every worker in every group is gone and no restarts remain, the
//!   supervisor drains the queues and rejects each request with a typed
//!   reason instead of hanging the clients forever.
//!
//! All of these paths are driven deterministically in tests by a
//! [`FaultPlan`] (see [`crate::fault`]); production runtimes pass none.

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::cache::{ConditionCache, ConditionKey};
use crate::fault::{Fault, FaultPlan, SwapFault};
use crate::queue::{Pending, RequestQueue};
use crate::request::{
    GenerateRequest, GeneratedImage, LatentPreview, RejectReason, ServeReply, StageLatency,
    TaskPayload,
};
use crate::router::ShardRouter;
use crate::stats::{StatsCollector, StatsReport};
use aero_diffusion::{CancelSignal, CancelToken, DdimSampler, StepEvent, StepSink};
use aero_model::{
    snapshot_from_artifact, IntegrityState, ModelArtifact, ModelError, ModelRegistry, RegistryEntry,
};
use aero_scene::{build_dataset, DatasetConfig, DatasetItem, SceneGeneratorConfig};
use aero_tensor::parallel::{self, ParallelConfig};
use aero_tensor::Tensor;
use aerodiffusion::{
    AeroDiffusionPipeline, PipelineConfig, PipelineSnapshot, SampleRow, TaskKind, TaskSpec,
};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving runtime knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Independent replica worker groups, each with its own queue and
    /// condition cache, routed over by prompt.
    pub replicas: usize,
    /// Worker threads *per replica group*, all serving the one shared
    /// model.
    pub workers: usize,
    /// Most requests coalesced into one sampler call.
    pub max_batch: usize,
    /// Bounded queue capacity *per replica group*; beyond it submissions
    /// are rejected.
    pub queue_capacity: usize,
    /// How long a worker lingers for stragglers to fill a batch.
    pub batch_wait: Duration,
    /// Condition-embedding LRU capacity (entries, per replica group).
    pub cache_capacity: usize,
    /// Default DDIM steps (requests may override per call).
    pub steps: usize,
    /// Default guidance scale (requests may override per call).
    pub guidance_scale: f32,
    /// Seed of the reference scene used as the conditioning exemplar.
    pub reference_seed: u64,
    /// Total worker respawns the supervisor may perform over the
    /// runtime's life before it stops replacing dead workers. A whole
    /// replica-group respawn counts as one restart.
    pub max_worker_restarts: usize,
    /// Admission-control knobs (tenant token buckets + global shed
    /// gates). The default admits everything.
    pub admission: AdmissionConfig,
    /// Stream quantized intermediate-latent previews for every request,
    /// even ones that did not ask (`request.stream` enables it per
    /// request).
    pub stream_previews: bool,
}

impl ServeConfig {
    /// Defaults matched to a trained pipeline's own sampler settings.
    #[must_use]
    pub fn for_pipeline(config: &PipelineConfig) -> Self {
        ServeConfig {
            replicas: 1,
            workers: aero_tensor::parallel::suggested_threads(2),
            max_batch: 8,
            queue_capacity: 32,
            batch_wait: Duration::from_millis(2),
            cache_capacity: 64,
            steps: config.diffusion.ddim_steps,
            guidance_scale: config.diffusion.guidance_scale,
            reference_seed: 0,
            max_worker_restarts: 4,
            admission: AdmissionConfig::default(),
            stream_previews: false,
        }
    }
}

/// Handle for one submitted request; resolves to exactly one terminal
/// reply, possibly preceded by streamed [`ServeReply::Preview`] events.
#[derive(Debug)]
pub struct ResponseHandle {
    id: String,
    rx: Receiver<ServeReply>,
    cancel: CancelToken,
    stats: Arc<StatsCollector>,
}

impl ResponseHandle {
    /// The request id this handle resolves.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Requests cancellation: queued, the request is swept with a typed
    /// `cancelled` reply; sampling, the coalesced call stops between DDIM
    /// steps once every rider is cancelled. Idempotent, never blocks.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the cancel token, for cancelling after `wait` consumed
    /// the handle (e.g. from another thread or the NDJSON reader).
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Blocks for the next reply event: zero or more previews, then
    /// exactly one terminal reply. `None` after the terminal reply (or if
    /// the worker died without answering — pair with
    /// [`wait`](ResponseHandle::wait) when previews are not consumed).
    #[must_use]
    pub fn next_event(&self) -> Option<ServeReply> {
        match self.rx.recv() {
            Ok(reply) => {
                if let ServeReply::Rejected { reason, .. } = &reply {
                    self.stats.record_rejected(reason);
                }
                Some(reply)
            }
            Err(_) => None,
        }
    }

    /// Blocks until the terminal reply arrives, discarding any streamed
    /// previews. A worker that died without answering surfaces as a typed
    /// [`RejectReason::WorkerFailure`].
    #[must_use]
    pub fn wait(self) -> ServeReply {
        loop {
            match self.rx.recv() {
                Ok(reply) if !reply.is_terminal() => {}
                Ok(reply) => {
                    if let ServeReply::Rejected { reason, .. } = &reply {
                        self.stats.record_rejected(reason);
                    }
                    return reply;
                }
                Err(_) => {
                    let reason = RejectReason::WorkerFailure;
                    self.stats.record_rejected(&reason);
                    return ServeReply::Rejected { id: self.id, reason };
                }
            }
        }
    }
}

/// The model every worker serves: the snapshot's shared pipeline plus
/// the conditioning exemplar and fixed caption G derived from it, built
/// once per install rather than once per worker.
#[derive(Debug)]
struct ServedModel {
    snapshot: PipelineSnapshot,
    item: DatasetItem,
    caption_g: String,
    /// The slot generation the model was installed as (0 at start). Every
    /// condition-cache entry carries the generation of the model that
    /// computed it.
    generation: u64,
}

impl ServedModel {
    /// Runs on the thread that starts the runtime or swaps the model,
    /// never on a worker.
    fn from_snapshot(snapshot: PipelineSnapshot, reference_seed: u64) -> ServedModel {
        let pipeline = snapshot.pipeline();
        let reference = build_dataset(&DatasetConfig {
            n_scenes: 1,
            image_size: pipeline.config().vision.image_size,
            seed: reference_seed,
            generator: SceneGeneratorConfig::default(),
        });
        let item = reference.items.into_iter().next().expect("a one-scene dataset has an item");
        // A fixed caption G makes the encode a pure function of the
        // request's prompt (G'), which is what lets the condition cache
        // key on it.
        let caption_g = pipeline.caption_for(&item, &mut StdRng::seed_from_u64(0));
        ServedModel { snapshot, item, caption_g, generation: 0 }
    }

    fn pipeline(&self) -> &AeroDiffusionPipeline {
        self.snapshot.pipeline()
    }
}

/// The hot-swappable model. Installing a model replaces the `Arc` the
/// slot hands out and nothing else (see the module docs for the
/// drain-free swap contract).
#[derive(Debug)]
struct ModelSlot {
    current: Mutex<Arc<ServedModel>>,
}

impl ModelSlot {
    fn new(model: ServedModel) -> ModelSlot {
        ModelSlot { current: Mutex::new(Arc::new(model)) }
    }

    /// The latest installed model.
    fn model(&self) -> Arc<ServedModel> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Installs a new model and returns its generation.
    fn install(&self, mut model: ServedModel) -> u64 {
        let mut current = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        model.generation = current.generation + 1;
        *current = Arc::new(model);
        current.generation
    }
}

/// One replica worker group: its own queue, its own condition cache, and
/// a kill flag its workers watch between pops.
#[derive(Debug)]
struct ReplicaGroup {
    queue: Arc<RequestQueue>,
    cache: Arc<Mutex<ConditionCache>>,
    /// Set by the worker that draws a [`Fault::KillReplica`]; aborts the
    /// sibling workers' pops and gates the supervisor's group respawn.
    kill: AtomicBool,
}

/// Everything a worker shares with its peers, the router, and the
/// supervisor.
#[derive(Clone)]
struct FleetShared {
    groups: Arc<Vec<ReplicaGroup>>,
    router: Arc<ShardRouter>,
    stats: Arc<StatsCollector>,
    faults: Option<Arc<FaultPlan>>,
    slot: Arc<ModelSlot>,
    /// The core count the starting thread planned against
    /// ([`aero_tensor::parallel::effective_cores`]); every worker plans
    /// against it too.
    cores: usize,
}

/// How a worker thread ended, as seen by the supervisor. A thread that
/// panicked instead of returning shows up as `Err` from `join`.
enum WorkerOutcome {
    /// Clean exit: the queue drained out under shutdown.
    Drained,
    /// The worker caught an in-request panic, answered it with a typed
    /// reply, finished its batch, and exited so a fresh worker can take
    /// its slot.
    Suspect,
    /// The worker's whole group was killed; it exits without burning a
    /// restart and the supervisor respawns the group as a unit.
    ReplicaKilled,
}

/// Outcome of a successful registry-backed model swap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapOutcome {
    /// The registry entry that was installed.
    pub entry: RegistryEntry,
    /// The model-slot generation the swap produced; every batch popped
    /// after the swap is served on it.
    pub generation: u64,
}

/// The running replica fleet. Dropping it without [`ServeRuntime::shutdown`]
/// leaks the workers; always shut down for a graceful drain.
#[derive(Debug)]
pub struct ServeRuntime {
    groups: Arc<Vec<ReplicaGroup>>,
    router: Arc<ShardRouter>,
    admission: AdmissionController,
    stats: Arc<StatsCollector>,
    slot: Arc<ModelSlot>,
    faults: Option<Arc<FaultPlan>>,
    registry: Mutex<Option<ModelRegistry>>,
    active_model: Mutex<Option<(String, u32)>>,
    next_ordinal: AtomicU64,
    next_swap_ordinal: AtomicU64,
    /// Seed of the conditioning exemplar every installed model derives.
    reference_seed: u64,
    supervisor: JoinHandle<()>,
}

impl ServeRuntime {
    /// Spawns `config.replicas` worker groups of `config.workers` threads
    /// each, all serving the snapshot's one shared model, plus a
    /// supervisor that respawns dead workers and dead groups, and starts
    /// serving.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas == 0`, `config.workers == 0`,
    /// `config.max_batch == 0`, or a thread cannot be spawned.
    #[must_use]
    pub fn start(snapshot: PipelineSnapshot, config: ServeConfig) -> Self {
        ServeRuntime::start_with_faults(snapshot, config, None)
    }

    /// [`ServeRuntime::start`], plus a deterministic [`FaultPlan`] the
    /// workers consult per request. Tests use this to trigger panics,
    /// worker deaths, replica kills, NaN outputs and cache corruption on
    /// exact requests.
    ///
    /// # Panics
    ///
    /// As [`ServeRuntime::start`].
    #[must_use]
    pub fn start_with_faults(
        snapshot: PipelineSnapshot,
        config: ServeConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        assert!(config.replicas > 0, "serve runtime needs at least one replica group");
        assert!(config.workers > 0, "serve runtime needs at least one worker per group");
        assert!(config.max_batch > 0, "max_batch must be positive");
        let slot =
            Arc::new(ModelSlot::new(ServedModel::from_snapshot(snapshot, config.reference_seed)));
        let router = Arc::new(ShardRouter::new(config.replicas));
        let groups: Arc<Vec<ReplicaGroup>> = Arc::new(
            (0..config.replicas)
                .map(|_| ReplicaGroup {
                    queue: Arc::new(RequestQueue::new(config.queue_capacity)),
                    cache: Arc::new(Mutex::new(ConditionCache::new(config.cache_capacity))),
                    kill: AtomicBool::new(false),
                })
                .collect(),
        );
        let stats = Arc::new(StatsCollector::new());
        let shared = FleetShared {
            groups: Arc::clone(&groups),
            router: Arc::clone(&router),
            stats: Arc::clone(&stats),
            faults: faults.clone(),
            slot: Arc::clone(&slot),
            cores: parallel::effective_cores(),
        };
        let mut fleet: Vec<Vec<Option<JoinHandle<WorkerOutcome>>>> = (0..config.replicas)
            .map(|g| {
                (0..config.workers)
                    .map(|i| {
                        let handle = spawn_worker(g, i, 0, shared.clone(), config)
                            .expect("spawn serve worker");
                        Some(handle)
                    })
                    .collect()
            })
            .collect();
        let supervisor = std::thread::Builder::new()
            .name("aero-serve-supervisor".into())
            .spawn(move || supervisor_loop(&shared, config, &mut fleet))
            .expect("spawn serve supervisor");
        ServeRuntime {
            groups,
            router,
            admission: AdmissionController::new(config.admission),
            stats,
            slot,
            faults,
            registry: Mutex::new(None),
            active_model: Mutex::new(None),
            next_ordinal: AtomicU64::new(0),
            next_swap_ordinal: AtomicU64::new(0),
            reference_seed: config.reference_seed,
            supervisor,
        }
    }

    /// Enqueues a request, returning a handle for its reply. The request
    /// first passes admission (tenant token bucket + global shed gates),
    /// then routes to its `(prompt, variant)` home replica group.
    ///
    /// # Errors
    ///
    /// [`RejectReason::Overloaded`] when admission sheds it (the
    /// `retry_after_ms` hint says when to retry — add jitter),
    /// [`RejectReason::QueueFull`] under backpressure,
    /// [`RejectReason::ShuttingDown`] once a drain began (including the
    /// terminal drain after every worker died).
    pub fn submit(&self, request: GenerateRequest) -> Result<ResponseHandle, RejectReason> {
        let ordinal = self.next_ordinal.fetch_add(1, Ordering::SeqCst);
        if let Err(reason) =
            self.admission.admit(request.tenant_id(), self.queue_len(), self.stats.e2e_p95_us())
        {
            self.stats.record_rejected(&reason);
            return Err(reason);
        }
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let id = request.id.clone();
        let deadline = request.deadline.map(|d| now + d);
        let cancel = CancelToken::new();
        let key = route_key_for(&request, self.slot.model().snapshot.variant());
        // A request whose home group is mid-respawn still lands on *some*
        // queue: survivors if any are alive, otherwise the home group's
        // own queue, which outlives the kill and is served after respawn.
        let group_idx = self.router.route(&key).unwrap_or_else(|| home_group(&key, &self.router));
        let Some(group) = self.groups.get(group_idx) else {
            let reason = RejectReason::WorkerError { detail: "no such replica group".into() };
            self.stats.record_rejected(&reason);
            return Err(reason);
        };
        let pending = Pending {
            request,
            ordinal,
            enqueued: now,
            deadline,
            cancel: cancel.clone(),
            responder: tx,
        };
        match group.queue.push(pending) {
            Ok(()) => {
                self.stats.set_queue_depth(self.queue_len());
                Ok(ResponseHandle { id, rx, cancel, stats: Arc::clone(&self.stats) })
            }
            Err(reason) => {
                self.stats.record_rejected(&reason);
                Err(reason)
            }
        }
    }

    /// Requests currently waiting, summed across every replica group's
    /// queue.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.groups.iter().map(|g| g.queue.len()).sum()
    }

    /// Replica groups currently alive in the router.
    #[must_use]
    pub fn alive_replicas(&self) -> usize {
        self.router.alive()
    }

    /// A point-in-time statistics report.
    #[must_use]
    pub fn stats(&self) -> StatsReport {
        self.stats.report()
    }

    /// The unified metric snapshot: this runtime's serving counters
    /// merged with the process-global ambient metrics (tensor kernels,
    /// sampler spans, training counters).
    #[must_use]
    pub fn metrics(&self) -> aero_obs::MetricsSnapshot {
        self.stats.metrics_snapshot()
    }

    /// Attaches (or replaces) the model registry backing
    /// [`ServeRuntime::swap_from_registry`] and [`ServeRuntime::list_models`].
    pub fn set_registry(&self, registry: ModelRegistry) {
        *self.registry.lock().unwrap_or_else(PoisonError::into_inner) = Some(registry);
    }

    /// The registry model currently serving, as `(name, version)`. `None`
    /// when the runtime still serves its boot snapshot.
    #[must_use]
    pub fn active_model(&self) -> Option<(String, u32)> {
        self.active_model.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The generation of the model the next popped batch is served on.
    #[must_use]
    pub fn model_generation(&self) -> u64 {
        self.slot.model().generation
    }

    /// Every model in the attached registry with its integrity state.
    ///
    /// # Errors
    ///
    /// [`ModelError::Meta`] when no registry is attached or its index is
    /// malformed.
    pub fn list_models(&self) -> Result<Vec<(RegistryEntry, IntegrityState)>, ModelError> {
        let registry = self
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .ok_or_else(|| ModelError::Meta("no model registry attached".into()))?;
        let entries = registry.entries()?;
        let mut out = Vec::with_capacity(entries.len());
        for entry in entries {
            let state = registry.verify(&entry)?;
            out.push((entry, state));
        }
        Ok(out)
    }

    /// Installs a new snapshot directly: from now on the model slot hands
    /// out the new model's `Arc`, and nothing else changes. In-flight
    /// batches finish on the old model and every batch popped afterwards
    /// is served on the new one, so no request is dropped. Condition-cache
    /// entries carry the generation of the model that computed them, so
    /// the outgoing model's entries — even one inserted after this call
    /// by a batch still in flight — never answer for the new model; they
    /// age out of the LRU.
    pub fn swap_snapshot(&self, snapshot: PipelineSnapshot) -> u64 {
        let generation =
            self.slot.install(ServedModel::from_snapshot(snapshot, self.reference_seed));
        aero_obs::counter!("serve.swap.count").inc();
        aero_obs::gauge!("serve.swap.generation").set(generation as f64);
        generation
    }

    /// Resolves `name` (optionally pinned to a version) in the attached
    /// registry, loads and CRC-verifies the artifact, builds its model,
    /// and installs it via [`ServeRuntime::swap_snapshot`].
    ///
    /// Failure at any point — unknown model, corrupt artifact, malformed
    /// metadata, tensors that do not fit the model — leaves the currently
    /// installed model serving untouched; a swap is atomic from the
    /// workers' point of view.
    ///
    /// # Errors
    ///
    /// [`ModelError::Meta`] when no registry is attached, the name does
    /// not resolve, or the metadata does not describe a model;
    /// [`ModelError::Corrupt`] / [`ModelError::VersionMismatch`] when the
    /// artifact fails verification or its tensors do not fit.
    pub fn swap_from_registry(
        &self,
        name: &str,
        version: Option<u32>,
    ) -> Result<SwapOutcome, ModelError> {
        let ordinal = self.next_swap_ordinal.fetch_add(1, Ordering::SeqCst);
        let result = self.try_swap_from_registry(name, version, ordinal);
        if result.is_err() {
            aero_obs::counter!("serve.swap.rejected").inc();
        }
        result
    }

    fn try_swap_from_registry(
        &self,
        name: &str,
        version: Option<u32>,
        swap_ordinal: u64,
    ) -> Result<SwapOutcome, ModelError> {
        let registry = self
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .ok_or_else(|| ModelError::Meta("no model registry attached".into()))?;
        let entry = registry.resolve(name, version)?;
        let mut bytes = std::fs::read(registry.path_of(&entry))?;
        if let Some(SwapFault::CorruptArtifact) =
            self.faults.as_ref().and_then(|plan| plan.take_swap(swap_ordinal))
        {
            let mid = bytes.len() / 2;
            if let Some(byte) = bytes.get_mut(mid) {
                *byte ^= 0x01;
            }
        }
        // CRC, structural and shape verification all happen here, while
        // the model is built, before anything reaches the model slot.
        let artifact = ModelArtifact::from_bytes(bytes)?;
        let snapshot = snapshot_from_artifact(&artifact)?;
        let generation = self.swap_snapshot(snapshot);
        *self.active_model.lock().unwrap_or_else(PoisonError::into_inner) =
            Some((entry.name.clone(), entry.version));
        Ok(SwapOutcome { entry, generation })
    }

    /// Graceful drain: stops admitting work, lets the workers finish
    /// everything already queued, joins them, and returns final stats.
    #[must_use]
    pub fn shutdown(self) -> StatsReport {
        for group in self.groups.iter() {
            group.queue.begin_shutdown();
        }
        let _ = self.supervisor.join();
        self.stats.report()
    }
}

/// The routing key: the same `(prompt, variant)` pair the condition
/// cache keys on, so routing locality *is* cache locality.
fn route_key(prompt: &str, variant: impl std::fmt::Debug) -> String {
    format!("{prompt}\u{1f}{variant:?}")
}

/// The routing key of a whole request: the text key, extended with the
/// task discriminant and source-image digest for image-conditioned
/// tasks — mirroring [`ConditionKey::for_task`], so task requests that
/// share a conditioning image also share a condition cache. Text
/// requests keep the exact pre-task key string.
fn route_key_for(request: &GenerateRequest, variant: impl std::fmt::Debug) -> String {
    let base = route_key(&request.prompt, variant);
    match &request.task {
        None => base,
        Some(payload) => {
            let spec = payload.to_spec(&request.prompt);
            format!("{base}\u{1f}{}\u{1f}{:016x}", spec.kind().as_str(), spec.source_digest())
        }
    }
}

/// The group `key` would route to if every group were alive — the
/// fallback target while the whole fleet is mid-respawn.
fn home_group(key: &str, router: &ShardRouter) -> usize {
    let mut best = (ShardRouter::weight(key, 0), 0);
    for group in 1..router.groups() {
        let w = ShardRouter::weight(key, group);
        if w > best.0 {
            best = (w, group);
        }
    }
    best.1
}

fn spawn_worker(
    group: usize,
    slot: usize,
    generation: usize,
    shared: FleetShared,
    config: ServeConfig,
) -> std::io::Result<JoinHandle<WorkerOutcome>> {
    std::thread::Builder::new().name(format!("aero-serve-{group}.{slot}.{generation}")).spawn(
        move || parallel::with_assumed_cores(shared.cores, || worker_loop(&shared, group, config)),
    )
}

/// Supervises the fleet: joins finished workers, respawns single workers
/// that died suspect (panic) while restarts remain, respawns *whole
/// replica groups* after a kill — re-routing anything stranded in the
/// dead group's queue first — and, once no worker is left anywhere,
/// fails all queued work with a typed reason so clients never hang on a
/// dead pool. It also sweeps every queue on a timer, so expired and
/// cancelled requests get their typed reply even while all workers are
/// busy sampling. Respawned workers read the model slot like every other
/// worker.
fn supervisor_loop(
    shared: &FleetShared,
    config: ServeConfig,
    fleet: &mut [Vec<Option<JoinHandle<WorkerOutcome>>>],
) {
    let mut restarts = 0usize;
    let mut generation = 0usize;
    loop {
        let mut live = 0usize;
        for (g, slots) in fleet.iter_mut().enumerate() {
            let Some(group) = shared.groups.get(g) else { continue };
            group.queue.sweep();
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.as_ref().is_some_and(JoinHandle::is_finished) {
                    let Some(handle) = slot.take() else { continue };
                    match handle.join() {
                        Ok(WorkerOutcome::Drained | WorkerOutcome::ReplicaKilled) => {}
                        // A worker that died alone is replaced even
                        // mid-shutdown: its requeued batch still has to be
                        // drained, and the restart budget bounds the loop
                        // either way. While the group is kill-flagged the
                        // slot stays empty — the group respawns as a unit
                        // below. A failed respawn leaves the slot empty;
                        // the live count then treats it like any other
                        // dead worker.
                        Ok(WorkerOutcome::Suspect) | Err(_) => {
                            if !group.kill.load(Ordering::SeqCst)
                                && restarts < config.max_worker_restarts
                            {
                                if let Ok(replacement) =
                                    spawn_worker(g, i, generation + 1, shared.clone(), config)
                                {
                                    restarts += 1;
                                    generation += 1;
                                    shared.stats.record_worker_restart();
                                    *slot = Some(replacement);
                                }
                            }
                        }
                    }
                }
            }
            // A killed group respawns as a unit once its last worker is
            // joined: re-route stragglers its dying workers left behind,
            // drop the cache (the kill may have left it poisoned or
            // half-written), bring up a full set of fresh workers, and
            // only then mark the group routable again.
            if group.kill.load(Ordering::SeqCst) && slots.iter().all(Option::is_none) {
                let stranded = group.queue.drain_all();
                reroute_batch(shared, g, stranded);
                lock_cache(&group.cache).clear();
                if restarts < config.max_worker_restarts {
                    restarts += 1;
                    generation += 1;
                    let mut respawned = 0usize;
                    for (i, slot) in slots.iter_mut().enumerate() {
                        if let Ok(handle) = spawn_worker(g, i, generation, shared.clone(), config) {
                            *slot = Some(handle);
                            respawned += 1;
                        }
                    }
                    if respawned > 0 {
                        group.kill.store(false, Ordering::SeqCst);
                        shared.router.mark_up(g);
                        shared.stats.record_replica_respawn();
                        shared.stats.record_worker_restart();
                    }
                }
            }
            live += slots.iter().filter(|slot| slot.is_some()).count();
        }
        if live == 0 {
            // Nobody will ever pop again. On a graceful shutdown the
            // queues are already drained and this is a no-op; on a
            // collapsed fleet it converts every stranded request into a
            // typed rejection.
            for group in shared.groups.iter() {
                group.queue.begin_shutdown();
                for pending in group.queue.drain_all() {
                    pending.reject(RejectReason::WorkerError {
                        detail: "no live serving workers remain".into(),
                    });
                }
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One worker: serve its group's batches until the queue drains out, the
/// group is killed, or the worker turns suspect. Each batch is served on
/// the model the slot holds right after the pop, under the worker's
/// share of the cores (see the module docs).
fn worker_loop(shared: &FleetShared, group_idx: usize, config: ServeConfig) -> WorkerOutcome {
    let Some(group) = shared.groups.get(group_idx) else {
        return WorkerOutcome::Drained;
    };
    let share = parallel::effective_cores() / config.replicas.saturating_mul(config.workers);
    loop {
        let Some(batch) =
            group.queue.pop_batch_watch(config.max_batch, config.batch_wait, &group.kill)
        else {
            return if group.kill.load(Ordering::SeqCst) {
                WorkerOutcome::ReplicaKilled
            } else {
                WorkerOutcome::Drained
            };
        };
        // A sibling drew a replica kill after this pop won the race: hand
        // the batch to survivors and die with the group.
        if group.kill.load(Ordering::SeqCst) {
            reroute_batch(shared, group_idx, batch);
            return WorkerOutcome::ReplicaKilled;
        }
        let model = shared.slot.model();
        let policy = model.snapshot.parallel();
        parallel::adopt_thread_policy(
            ParallelConfig::with_threads(share.clamp(1, policy.threads()))
                .with_backend(policy.backend()),
        );
        if !serve_batch(&model, batch, shared, group_idx, group, &config) {
            // An in-request panic was caught and answered, but this
            // worker's state is no longer above suspicion. Exit after the
            // batch; the supervisor brings up a fresh one.
            return WorkerOutcome::Suspect;
        }
    }
}

/// Re-routes a dying group's in-flight requests onto surviving groups,
/// or — when no survivor exists — back onto the dying group's own queue,
/// which outlives the kill and is served after respawn. Either way no
/// request is dropped.
fn reroute_batch(shared: &FleetShared, from: usize, batch: Vec<Pending>) {
    if batch.is_empty() {
        return;
    }
    let n = batch.len();
    let variant = shared.slot.model().snapshot.variant();
    let mut per_group: Vec<Vec<Pending>> = (0..shared.groups.len()).map(|_| Vec::new()).collect();
    let mut home: Vec<Pending> = Vec::new();
    for pending in batch {
        let key = route_key_for(&pending.request, variant);
        match shared.router.route_excluding(&key, Some(from)) {
            Some(g) => match per_group.get_mut(g) {
                Some(bucket) => bucket.push(pending),
                None => home.push(pending),
            },
            None => home.push(pending),
        }
    }
    for (g, bucket) in per_group.into_iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        if let Some(group) = shared.groups.get(g) {
            group.queue.requeue(bucket);
        }
    }
    if !home.is_empty() {
        if let Some(group) = shared.groups.get(from) {
            group.queue.requeue(home);
        }
    }
    shared.stats.record_reroute(n);
}

/// Locks the condition cache, recovering from poison: the cache holds
/// only recomputable embeddings, so a panic in one worker must not
/// cascade lock panics through every survivor.
fn lock_cache(cache: &Mutex<ConditionCache>) -> MutexGuard<'_, ConditionCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deliberately poisons a condition-cache mutex: a helper thread takes
/// the lock and panics while holding it. Drives [`Fault::PoisonCacheLock`];
/// every real lock site recovers via [`lock_cache`].
fn poison_cache(cache: &Arc<Mutex<ConditionCache>>) {
    let cache = Arc::clone(cache);
    let spawned = std::thread::Builder::new().name("aero-serve-poisoner".into()).spawn(move || {
        let _guard = cache.lock().unwrap_or_else(PoisonError::into_inner);
        panic!("injected fault: poisoning the condition-cache lock");
    });
    if let Ok(handle) = spawned {
        let _ = handle.join();
    }
}

fn tensor_is_finite(t: &Tensor) -> bool {
    t.as_slice().iter().all(|v| v.is_finite())
}

/// The composite cancel signal for one coalesced sampler call: the call
/// aborts between DDIM steps only when *every* rider is cancelled —
/// stopping earlier would corrupt the surviving rows.
struct GroupCancel {
    tokens: Vec<CancelToken>,
}

impl CancelSignal for GroupCancel {
    fn is_cancelled(&self) -> bool {
        !self.tokens.is_empty() && self.tokens.iter().all(CancelToken::is_cancelled)
    }
}

/// Quantizes one request's latent row to 8 bits for a preview reply.
fn quantize_preview(id: &str, step: usize, total: usize, latent: &Tensor) -> LatentPreview {
    let dims = latent.shape();
    let shape = if let [c, h, w] = *dims { [c, h, w] } else { [dims.len(), 0, 0] };
    let data = latent.as_slice();
    let (min, max) =
        data.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (min, max) =
        if min.is_finite() && max.is_finite() && max > min { (min, max) } else { (0.0, 1.0) };
    let scale = 255.0 / (max - min);
    let latent_q8 =
        data.iter().map(|&v| ((v - min) * scale).clamp(0.0, 255.0).round() as u8).collect();
    LatentPreview { id: id.to_string(), step, total_steps: total, shape, min, max, latent_q8 }
}

/// A request annotated with everything measured before sampling.
struct Job {
    pending: Pending,
    queue_us: u64,
    encode_us: u64,
    cache_hit: bool,
    cond: Tensor,
    /// Inpainting pin parts (see `AeroDiffusionPipeline::pin_parts`);
    /// `None` for every other task kind.
    pin_parts: Option<(Tensor, Tensor)>,
    /// Injected [`Fault::NanLatents`]: poison this request's latents
    /// after sampling so the output guard has something to catch.
    nan_latents: bool,
}

/// A task request whose conditioning image cannot feed the served
/// pipeline is a client error: it gets a typed `worker_error` reply, not
/// a panic (which would also retire the worker as suspect).
fn task_shape_error(model: &ServedModel, request: &GenerateRequest) -> Option<String> {
    let native = model.pipeline().config().vision.image_size;
    match &request.task {
        Some(TaskPayload::View { image, .. } | TaskPayload::Inpaint { image, .. })
            if image.width != native || image.height != native =>
        {
            Some(format!(
                "{} tasks need a {native}x{native} source image, got {}x{}",
                request.task_kind().as_str(),
                image.width,
                image.height
            ))
        }
        _ => None,
    }
}

/// Serves one popped batch: group by sampler settings, encode through the
/// group's cache, run one coalesced cancellable sampler call per lane,
/// decode per request. Returns `false` if the worker caught an in-request
/// panic and should be replaced after this batch.
fn serve_batch(
    model: &ServedModel,
    batch: Vec<Pending>,
    shared: &FleetShared,
    group_idx: usize,
    group: &ReplicaGroup,
    config: &ServeConfig,
) -> bool {
    let pipeline = model.pipeline();
    let dequeued = Instant::now();
    shared.stats.set_queue_depth(shared.groups.iter().map(|g| g.queue.len()).sum());
    // Pull this batch's scheduled faults up front. The two kill faults
    // must fire before any request is served, so the whole batch is
    // finished by someone else; any other faults taken with them are
    // re-scheduled for the retry, and the worker dies the way a real
    // crash would — an uncaught panic.
    //
    // KillReplica: mark the group down and kill-flagged first, so the
    // router stops placing new work here and sibling workers abort their
    // pops; then hand the in-flight batch to survivors.
    //
    // KillWorker: requeue to this group's own queue — the group survives,
    // only this thread dies.
    let mut batch_faults: HashMap<u64, Fault> = HashMap::new();
    if let Some(plan) = &shared.faults {
        for pending in &batch {
            if let Some(fault) = plan.take(pending.ordinal) {
                batch_faults.insert(pending.ordinal, fault);
            }
        }
        if batch_faults.values().any(|f| matches!(f, Fault::KillReplica)) {
            for (ordinal, fault) in batch_faults {
                if !matches!(fault, Fault::KillReplica) {
                    plan.schedule(ordinal, fault);
                }
            }
            shared.stats.record_replica_kill();
            shared.router.mark_down(group_idx);
            group.kill.store(true, Ordering::SeqCst);
            group.queue.wake_all();
            reroute_batch(shared, group_idx, batch);
            panic!("injected fault: replica group killed mid-batch");
        }
        if batch_faults.values().any(|f| matches!(f, Fault::KillWorker)) {
            for (ordinal, fault) in batch_faults {
                if !matches!(fault, Fault::KillWorker) {
                    plan.schedule(ordinal, fault);
                }
            }
            group.queue.requeue(batch);
            panic!("injected fault: worker killed mid-batch");
        }
    }
    let mut healthy = true;
    // Requests only share a sampler call when they agree on the settings
    // that alter it; override combinations are grouped in arrival order.
    let mut lanes: Vec<((usize, u32), Vec<Pending>)> = Vec::new();
    for pending in batch {
        let steps = pending.request.steps.unwrap_or(config.steps).max(1);
        let guidance = pending.request.guidance_scale.unwrap_or(config.guidance_scale);
        let key = (steps, guidance.to_bits());
        match lanes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(pending),
            None => lanes.push((key, vec![pending])),
        }
    }
    for ((steps, guidance_bits), members) in lanes {
        let guidance = f32::from_bits(guidance_bits);
        let sampler = DdimSampler::new(steps, guidance);
        let mut jobs: Vec<Job> = Vec::new();
        for pending in members {
            let fault = batch_faults.remove(&pending.ordinal);
            if let Some(Fault::DelayMs(ms)) = fault {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if matches!(fault, Some(Fault::PoisonCacheLock)) {
                poison_cache(&group.cache);
            }
            // A request cancelled while queued or popped never reaches
            // the sampler; its slot in the coalesced call goes to live
            // work instead.
            if pending.cancel.is_cancelled() {
                let _ = pending.responder.send(ServeReply::Rejected {
                    id: pending.request.id.clone(),
                    reason: RejectReason::Cancelled,
                });
                continue;
            }
            if let Some(detail) = task_shape_error(model, &pending.request) {
                // The reply handle records the rejection on receipt.
                let reason = RejectReason::WorkerError { detail };
                let _ = pending
                    .responder
                    .send(ServeReply::Rejected { id: pending.request.id.clone(), reason });
                continue;
            }
            let queue_us = micros(dequeued.saturating_duration_since(pending.enqueued));
            let started = Instant::now();
            let id = pending.request.id.clone();
            let responder = pending.responder.clone();
            // Everything per-request and fallible runs under the unwind
            // guard: a panic here costs one reply, not the whole batch.
            let prepared = catch_unwind(AssertUnwindSafe(|| {
                if matches!(fault, Some(Fault::PanicRequest)) {
                    panic!("injected fault: panic while preparing request");
                }
                prepare_condition(model, &pending.request, guidance, fault, group, shared)
            }));
            match prepared {
                Ok((cond, cache_hit, pin_parts)) => jobs.push(Job {
                    pending,
                    queue_us,
                    encode_us: micros(started.elapsed()),
                    cache_hit,
                    cond,
                    pin_parts,
                    nan_latents: matches!(fault, Some(Fault::NanLatents)),
                }),
                Err(_) => {
                    shared.stats.record_worker_panic();
                    healthy = false;
                    let _ = responder.send(ServeReply::Rejected {
                        id,
                        reason: RejectReason::WorkerError {
                            detail: "panic caught while serving this request".into(),
                        },
                    });
                }
            }
        }
        if jobs.is_empty() {
            continue;
        }
        let n = jobs.len();
        shared.stats.record_batch(n);
        let [c, h, w] = pipeline.latent_shape();
        // The cancel signal aborts the call only when every rider is
        // cancelled; the step observer streams previews to the requests
        // that asked and counts completed steps so an abort is visible.
        let group_cancel =
            GroupCancel { tokens: jobs.iter().map(|j| j.pending.cancel.clone()).collect() };
        let streamers: Vec<(usize, String, Sender<ServeReply>)> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.pending.request.stream || config.stream_previews)
            .map(|(i, j)| (i, j.pending.request.id.clone(), j.pending.responder.clone()))
            .collect();
        // Each request's private noise stream: same seed, same bytes,
        // whatever else rides in the batch — or whichever replica group
        // serves it.
        let mut rngs: Vec<StdRng> =
            jobs.iter().map(|j| StdRng::seed_from_u64(j.pending.request.seed)).collect();
        let pins: Vec<Option<(Tensor, Tensor)>> =
            jobs.iter_mut().map(|j| j.pin_parts.take()).collect();
        let rows: Vec<SampleRow<'_, StdRng>> = jobs
            .iter()
            .zip(&mut rngs)
            .zip(pins)
            .map(|((j, rng), pin)| SampleRow { cond: &j.cond, rng, pin })
            .collect();
        let sample_started = Instant::now();
        let mut steps_done = 0usize;
        let z = {
            let mut on_step = |ev: StepEvent<'_>| {
                steps_done = ev.step + 1;
                for (row, id, tx) in &streamers {
                    let view = ev.latent.narrow(0, *row, 1).reshape(&[c, h, w]);
                    shared.stats.record_preview();
                    let _ = tx
                        .send(ServeReply::Preview(quantize_preview(id, ev.step, ev.total, &view)));
                }
            };
            pipeline.sample_batch(&sampler, rows, Some(&group_cancel), StepSink::new(&mut on_step))
        };
        if steps_done < steps {
            shared.stats.record_sampler_abort();
        }
        let sample_us = micros(sample_started.elapsed());
        for (i, job) in jobs.into_iter().enumerate() {
            // Cancelled mid-sample (or while a lane-mate finished the
            // call): a typed reply, never a partial image.
            if job.pending.cancel.is_cancelled() {
                let _ = job.pending.responder.send(ServeReply::Rejected {
                    id: job.pending.request.id.clone(),
                    reason: RejectReason::Cancelled,
                });
                continue;
            }
            let decode_started = Instant::now();
            let latent = if job.nan_latents {
                Tensor::full(&[c, h, w], f32::NAN)
            } else {
                z.narrow(0, i, 1).reshape(&[c, h, w])
            };
            // Output guard: never decode (or return) a non-finite latent.
            if !tensor_is_finite(&latent) {
                shared.stats.record_nonfinite_output();
                let _ = job.pending.responder.send(ServeReply::Rejected {
                    id: job.pending.request.id.clone(),
                    reason: RejectReason::WorkerError {
                        detail: "sampler produced non-finite latents".into(),
                    },
                });
                continue;
            }
            let image = pipeline.decode_latent(&latent);
            let rgb8: Vec<u8> = image
                .to_tensor()
                .as_slice()
                .iter()
                .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
                .collect();
            let latency = StageLatency {
                queue_us: job.queue_us,
                encode_us: job.encode_us,
                sample_us,
                decode_us: micros(decode_started.elapsed()),
            };
            shared.stats.record_completed(latency, job.cache_hit);
            let reply = ServeReply::Image(GeneratedImage {
                id: job.pending.request.id.clone(),
                width: image.width(),
                height: image.height(),
                rgb8,
                latency,
                batch_size: n,
                cache_hit: job.cache_hit,
            });
            // A client that dropped its handle is gone; nothing to do.
            let _ = job.pending.responder.send(reply);
        }
    }
    healthy
}

/// Resolves one request's condition embedding through the group's cache,
/// validating cached entries and applying a [`Fault::CorruptCacheEntry`]
/// injection after the fact. Also lowers the request's task (if any) to
/// its typed spec, returning the inpainting pin rows alongside the
/// condition.
fn prepare_condition(
    model: &ServedModel,
    request: &GenerateRequest,
    guidance: f32,
    fault: Option<Fault>,
    group: &ReplicaGroup,
    shared: &FleetShared,
) -> (Tensor, bool, Option<(Tensor, Tensor)>) {
    let pipeline = model.pipeline();
    let spec = request.task.as_ref().map(|t| t.to_spec(&request.prompt));
    let (kind, digest) = match &spec {
        None => (TaskKind::Text, 0),
        Some(s) => (s.kind(), s.source_digest()),
    };
    let key = (
        model.generation,
        ConditionKey::for_task(&request.prompt, pipeline.variant(), guidance, kind, digest),
    );
    // One lock scope for the whole lookup: matching directly on the
    // locked `get` would keep the guard alive across the arms and
    // self-deadlock on the eviction below.
    let cached = {
        let mut cache = lock_cache(&group.cache);
        match cache.get(&key) {
            Some(cond) if tensor_is_finite(&cond) => Some(cond),
            Some(_) => {
                // A corrupt entry must not poison every future request
                // that shares this prompt: evict, count, recompute below.
                cache.remove(&key);
                drop(cache);
                shared.stats.record_cache_corruption();
                None
            }
            None => None,
        }
    };
    let (cond, cache_hit) = match cached {
        Some(cond) => (cond, true),
        None => {
            // The model's fixed item + caption G make the text encode a
            // pure function of the prompt; image-conditioned tasks carry
            // their own conditioning source in the spec.
            let cond = match &spec {
                None => pipeline.encode_task(&TaskSpec::text(
                    &model.item,
                    &model.caption_g,
                    &request.prompt,
                )),
                Some(s) => pipeline.encode_task(s),
            };
            lock_cache(&group.cache).insert(key.clone(), cond.clone());
            (cond, false)
        }
    };
    if matches!(fault, Some(Fault::CorruptCacheEntry)) {
        lock_cache(&group.cache).insert(key, Tensor::full(cond.shape(), f32::NAN));
    }
    (cond, cache_hit, spec.and_then(|s| pipeline.pin_parts(&s)))
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_config_tracks_pipeline_sampler_settings() {
        let pc = PipelineConfig::smoke();
        let sc = ServeConfig::for_pipeline(&pc);
        assert_eq!(sc.steps, pc.diffusion.ddim_steps);
        assert_eq!(sc.guidance_scale, pc.diffusion.guidance_scale);
        assert_eq!(sc.replicas, 1);
        assert!(!sc.stream_previews);
        assert_eq!(sc.admission, AdmissionConfig::default());
        assert!(sc.workers >= 1);
        assert!(sc.max_batch >= 1);
        assert!(sc.max_worker_restarts >= 1);
    }

    #[test]
    fn route_key_separates_prompt_from_variant() {
        // The unit separator keeps ("a", "Xb") and ("aX", "b") shaped
        // prompts/variants from colliding.
        assert_ne!(route_key("a park", "Full"), route_key("a park", "BaseSd"));
        assert_ne!(route_key("a", "bc"), route_key("ab", "c"));
    }

    #[test]
    fn home_group_matches_router_with_everything_alive() {
        let router = ShardRouter::new(4);
        for i in 0..32 {
            let key = format!("prompt-{i}");
            assert_eq!(Some(home_group(&key, &router)), router.route(&key));
        }
    }

    #[test]
    fn group_cancel_requires_every_rider() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        let group = GroupCancel { tokens: vec![a.clone(), b.clone()] };
        assert!(!CancelSignal::is_cancelled(&group));
        a.cancel();
        assert!(!CancelSignal::is_cancelled(&group), "one rider must not abort the lane");
        b.cancel();
        assert!(CancelSignal::is_cancelled(&group));
        let empty = GroupCancel { tokens: Vec::new() };
        assert!(!CancelSignal::is_cancelled(&empty));
    }

    #[test]
    fn quantize_preview_round_trips_the_range() {
        let latent = Tensor::from_vec(vec![-1.0, 0.0, 1.0, 3.0], &[1, 2, 2]);
        let p = quantize_preview("r1", 2, 8, &latent);
        assert_eq!(p.shape, [1, 2, 2]);
        assert_eq!(p.step, 2);
        assert_eq!(p.total_steps, 8);
        assert_eq!(p.latent_q8.len(), 4);
        assert_eq!(p.min, -1.0);
        assert_eq!(p.max, 3.0);
        assert_eq!(*p.latent_q8.first().unwrap(), 0);
        assert_eq!(*p.latent_q8.last().unwrap(), 255);
    }

    #[test]
    fn quantize_preview_survives_a_constant_latent() {
        let latent = Tensor::full(&[1, 2, 2], 0.5);
        let p = quantize_preview("r1", 0, 4, &latent);
        assert_eq!(p.latent_q8.len(), 4);
        assert!(
            p.latent_q8.iter().all(|&b| b == 128),
            "constant maps mid-range: {:?}",
            p.latent_q8
        );
    }
}
