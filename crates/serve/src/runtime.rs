//! The serving runtime: one supervised pool of worker threads over one
//! request queue and one condition-embedding cache, fronted by an
//! admission controller.
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
//! `max(1, cores / workers)`, capped by the snapshot's own count, under
//! the snapshot's backend. Workers that together fill the cores therefore
//! run one thread each, and the DDIM sampler spawns no guidance helper
//! for them; a worker with two cores to itself runs each guided step's
//! two UNet passes side by side. Workers plan against the core count of
//! the thread that started the runtime.
//!
//! Pool shape: [`ServeConfig::workers`] threads pop from one bounded
//! [`RequestQueue`] and share one condition-embedding cache, so a repeated
//! prompt hits the cache whichever worker serves it. A pop takes the
//! caller's share of the waiting requests ([`RequestQueue::pop_batch`]),
//! so workers that wait together split a burst instead of one of them
//! batching all of it. The [`AdmissionController`] sheds work *before* it
//! touches the queue, with a typed `overloaded` reply carrying a
//! `retry_after_ms` hint.
//!
//! Determinism contract: a request's image depends only on its own
//! `(prompt, seed, steps, guidance, task)`. Each request's initial latent
//! (and, for inpainting, its pin-noise stream) is drawn from a private
//! `StdRng` seeded with the request seed, and the DDIM reverse process is
//! row-independent, so coalescing requests into one `[n, c, h, w]`
//! sampler call — even a heterogeneous text/view/inpaint mix — or
//! serving a request on another worker changes throughput, never bytes.
//!
//! Fault-tolerance contract: one bad request must never take the service
//! down, and one dead worker must never strand queued work.
//!
//! - Per-request preparation runs under `catch_unwind`; a panic answers
//!   *that* request with a typed `worker_error` reply while the rest of
//!   the batch is still served. The worker that caught the panic is
//!   treated as suspect: it finishes its batch, exits, and the supervisor
//!   respawns a fresh worker in its place (up to
//!   [`ServeConfig::max_worker_restarts`]).
//! - A worker that dies outright ([`Fault::KillWorker`]) hands its
//!   unserved batch back to the front of the queue first, so the
//!   replacement worker — or any surviving peer — finishes it with zero
//!   dropped replies.
//! - A cancelled request is swept from the queue with a typed `cancelled`
//!   reply, or — once sampling started — stops the coalesced sampler call
//!   between DDIM steps as soon as *every* request in the call is
//!   cancelled, freeing the batch slot early.
//! - Sampler outputs are checked for non-finite values before decode;
//!   a NaN latent becomes a typed reply, never a garbage image.
//! - Cached condition embeddings are validated on every hit; a corrupt
//!   entry is evicted, counted, and recomputed. A *poisoned* cache lock
//!   ([`Fault::PoisonCacheLock`]) is recovered, never propagated.
//! - If every worker is gone and no restarts remain, the supervisor
//!   drains the queue and rejects each request with a typed reason
//!   instead of hanging the clients forever.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving runtime knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker threads in the pool, all serving the one shared model.
    pub workers: usize,
    /// Most requests coalesced into one sampler call.
    pub max_batch: usize,
    /// Bounded queue capacity; beyond it submissions are rejected.
    pub queue_capacity: usize,
    /// How long a worker lingers for stragglers to fill a batch.
    pub batch_wait: Duration,
    /// Condition-embedding LRU capacity (entries).
    pub cache_capacity: usize,
    /// Default DDIM steps (requests may override per call).
    pub steps: usize,
    /// Default guidance scale (requests may override per call).
    pub guidance_scale: f32,
    /// Total worker respawns the supervisor may perform over the
    /// runtime's life before it stops replacing dead workers.
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
            workers: aero_tensor::parallel::suggested_threads(2),
            max_batch: 8,
            queue_capacity: 32,
            batch_wait: Duration::from_millis(2),
            cache_capacity: 64,
            steps: config.diffusion.ddim_steps,
            guidance_scale: config.diffusion.guidance_scale,
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

/// Seed of the reference scene every installed model conditions on.
const REFERENCE_SEED: u64 = 0;

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
    fn from_snapshot(snapshot: PipelineSnapshot) -> ServedModel {
        let pipeline = snapshot.pipeline();
        let reference = build_dataset(&DatasetConfig {
            n_scenes: 1,
            image_size: pipeline.config().vision.image_size,
            seed: REFERENCE_SEED,
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

/// Everything a worker shares with its peers and the supervisor.
#[derive(Clone)]
struct PoolShared {
    queue: Arc<RequestQueue>,
    cache: Arc<Mutex<ConditionCache>>,
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

/// The running worker pool. Dropping it without [`ServeRuntime::shutdown`]
/// leaks the workers; always shut down for a graceful drain.
#[derive(Debug)]
pub struct ServeRuntime {
    queue: Arc<RequestQueue>,
    admission: AdmissionController,
    stats: Arc<StatsCollector>,
    slot: Arc<ModelSlot>,
    faults: Option<Arc<FaultPlan>>,
    registry: Mutex<Option<ModelRegistry>>,
    active_model: Mutex<Option<(String, u32)>>,
    next_ordinal: AtomicU64,
    next_swap_ordinal: AtomicU64,
    supervisor: JoinHandle<()>,
}

impl ServeRuntime {
    /// Spawns `config.workers` worker threads, all serving the
    /// snapshot's one shared model, plus a supervisor that respawns dead
    /// workers, and starts serving.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0`, `config.max_batch == 0`, or a
    /// thread cannot be spawned.
    #[must_use]
    pub fn start(snapshot: PipelineSnapshot, config: ServeConfig) -> Self {
        ServeRuntime::start_with_faults(snapshot, config, None)
    }

    /// [`ServeRuntime::start`], plus a deterministic [`FaultPlan`] the
    /// workers consult per request. Tests use this to trigger panics,
    /// worker deaths, NaN outputs and cache corruption on exact requests.
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
        assert!(config.workers > 0, "serve runtime needs at least one worker");
        assert!(config.max_batch > 0, "max_batch must be positive");
        let slot = Arc::new(ModelSlot::new(ServedModel::from_snapshot(snapshot)));
        let queue = Arc::new(RequestQueue::new(config.queue_capacity));
        let stats = Arc::new(StatsCollector::new());
        let shared = PoolShared {
            queue: Arc::clone(&queue),
            cache: Arc::new(Mutex::new(ConditionCache::new(config.cache_capacity))),
            stats: Arc::clone(&stats),
            faults: faults.clone(),
            slot: Arc::clone(&slot),
            cores: parallel::effective_cores(),
        };
        let mut pool: Vec<Option<JoinHandle<WorkerOutcome>>> = (0..config.workers)
            .map(|i| Some(spawn_worker(i, 0, shared.clone(), config).expect("spawn serve worker")))
            .collect();
        let supervisor = std::thread::Builder::new()
            .name("aero-serve-supervisor".into())
            .spawn(move || supervisor_loop(&shared, config, &mut pool))
            .expect("spawn serve supervisor");
        ServeRuntime {
            queue,
            admission: AdmissionController::new(config.admission),
            stats,
            slot,
            faults,
            registry: Mutex::new(None),
            active_model: Mutex::new(None),
            next_ordinal: AtomicU64::new(0),
            next_swap_ordinal: AtomicU64::new(0),
            supervisor,
        }
    }

    /// Enqueues a request, returning a handle for its reply. The request
    /// first passes admission (tenant token bucket + global shed gates),
    /// then joins the queue.
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
        let pending = Pending {
            request,
            ordinal,
            enqueued: now,
            deadline,
            cancel: cancel.clone(),
            responder: tx,
        };
        match self.queue.push(pending) {
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

    /// Requests currently waiting in the queue.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
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
    /// `booted` is the registry entry the runtime's boot snapshot was built
    /// from, if any: it is recorded as the active model as it stands, at
    /// generation 0, without reading or building the artifact again.
    pub fn set_registry(&self, registry: ModelRegistry, booted: Option<&RegistryEntry>) {
        *self.registry.lock().unwrap_or_else(PoisonError::into_inner) = Some(registry);
        if let Some(entry) = booted {
            *self.active_model.lock().unwrap_or_else(PoisonError::into_inner) =
                Some((entry.name.clone(), entry.version));
        }
    }

    /// The registry model currently serving, as `(name, version)`. `None`
    /// while the runtime serves a boot snapshot that did not come from
    /// the registry.
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
        let generation = self.slot.install(ServedModel::from_snapshot(snapshot));
        aero_obs::counter!("serve.swap.count").inc();
        aero_obs::gauge!("serve.swap.generation").set(generation as f64);
        generation
    }

    /// Resolves `name` (optionally pinned to a version) in the attached
    /// registry, loads and CRC-verifies the artifact, builds its model,
    /// and installs it via [`ServeRuntime::swap_snapshot`].
    ///
    /// Failure at any point — unknown model, corrupt artifact, malformed
    /// metadata, tensors that do not fit the model, a model that does not
    /// run — leaves the currently installed model serving untouched; a
    /// swap is atomic from the workers' point of view.
    ///
    /// # Errors
    ///
    /// [`ModelError::Meta`] when no registry is attached, the name does
    /// not resolve, the metadata does not describe a model, or the built
    /// model fails its check run;
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
        let mut bytes = registry.read_file(&entry)?;
        if let Some(SwapFault::CorruptArtifact) =
            self.faults.as_ref().and_then(|plan| plan.take_swap(swap_ordinal))
        {
            let mid = bytes.len() / 2;
            if let Some(byte) = bytes.get_mut(mid) {
                *byte ^= 0x01;
            }
        }
        // CRC, structural and shape verification, and one run of the
        // built model, all happen here, before anything reaches the model
        // slot.
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
        self.queue.begin_shutdown();
        let _ = self.supervisor.join();
        self.stats.report()
    }
}

fn spawn_worker(
    slot: usize,
    generation: usize,
    shared: PoolShared,
    config: ServeConfig,
) -> std::io::Result<JoinHandle<WorkerOutcome>> {
    std::thread::Builder::new()
        .name(format!("aero-serve-{slot}.{generation}"))
        .spawn(move || parallel::with_assumed_cores(shared.cores, || worker_loop(&shared, config)))
}

/// Supervises the pool: joins finished workers, respawns workers that
/// died or turned suspect while restarts remain, and, once no worker is
/// left, fails all queued work with a typed reason so clients never hang
/// on a dead pool. It also sweeps the queue on a timer, so expired and
/// cancelled requests get their typed reply even while all workers are
/// busy sampling. Respawned workers read the model slot like every other
/// worker.
fn supervisor_loop(
    shared: &PoolShared,
    config: ServeConfig,
    pool: &mut [Option<JoinHandle<WorkerOutcome>>],
) {
    let mut restarts = 0usize;
    loop {
        shared.queue.sweep();
        for (i, slot) in pool.iter_mut().enumerate() {
            if !slot.as_ref().is_some_and(JoinHandle::is_finished) {
                continue;
            }
            let Some(handle) = slot.take() else { continue };
            // A worker that died is replaced even mid-shutdown: its
            // requeued batch still has to be drained, and the restart
            // budget bounds the loop either way. A failed respawn leaves
            // the slot empty, like any other dead worker.
            if !matches!(handle.join(), Ok(WorkerOutcome::Drained))
                && restarts < config.max_worker_restarts
            {
                if let Ok(replacement) = spawn_worker(i, restarts + 1, shared.clone(), config) {
                    restarts += 1;
                    shared.stats.record_worker_restart();
                    *slot = Some(replacement);
                }
            }
        }
        if pool.iter().all(Option::is_none) {
            // Nobody will ever pop again. On a graceful shutdown the
            // queue is already drained and this is a no-op; on a
            // collapsed pool it converts every stranded request into a
            // typed rejection.
            shared.queue.begin_shutdown();
            for pending in shared.queue.drain_all() {
                pending.reject(RejectReason::WorkerError {
                    detail: "no live serving workers remain".into(),
                });
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One worker: serve batches until the queue drains out or the worker
/// turns suspect. Each batch is served on the model the slot holds right
/// after the pop, under the worker's share of the cores (see the module
/// docs).
fn worker_loop(shared: &PoolShared, config: ServeConfig) -> WorkerOutcome {
    let share = parallel::effective_cores() / config.workers;
    while let Some(batch) = shared.queue.pop_batch(config.max_batch, config.batch_wait) {
        let model = shared.slot.model();
        let policy = model.snapshot.parallel();
        parallel::adopt_thread_policy(
            ParallelConfig::with_threads(share.clamp(1, policy.threads()))
                .with_backend(policy.backend()),
        );
        if !serve_batch(&model, batch, shared, &config) {
            // An in-request panic was caught and answered, but this
            // worker's state is no longer above suspicion. Exit after the
            // batch; the supervisor brings up a fresh one.
            return WorkerOutcome::Suspect;
        }
    }
    WorkerOutcome::Drained
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
/// shared cache, run one coalesced cancellable sampler call per lane,
/// decode per request. Returns `false` if the worker caught an in-request
/// panic and should be replaced after this batch.
fn serve_batch(
    model: &ServedModel,
    batch: Vec<Pending>,
    shared: &PoolShared,
    config: &ServeConfig,
) -> bool {
    let pipeline = model.pipeline();
    let dequeued = Instant::now();
    shared.stats.set_queue_depth(shared.queue.len());
    // Pull this batch's scheduled faults up front. A KillWorker must fire
    // before any request is served, so the whole batch goes back to the
    // front of the queue for another worker to finish; any other faults
    // taken with it are re-scheduled for the retry, and the worker dies
    // the way a real crash would — an uncaught panic.
    let mut batch_faults: HashMap<u64, Fault> = HashMap::new();
    if let Some(plan) = &shared.faults {
        for pending in &batch {
            if let Some(fault) = plan.take(pending.ordinal) {
                batch_faults.insert(pending.ordinal, fault);
            }
        }
        if batch_faults.values().any(|f| matches!(f, Fault::KillWorker)) {
            for (ordinal, fault) in batch_faults {
                if !matches!(fault, Fault::KillWorker) {
                    plan.schedule(ordinal, fault);
                }
            }
            shared.queue.requeue(batch);
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
                poison_cache(&shared.cache);
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
                prepare_condition(model, &pending.request, guidance, fault, shared)
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
        // whatever else rides in the batch — or whichever worker serves
        // it.
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

/// Resolves one request's condition embedding through the shared cache,
/// validating cached entries and applying a [`Fault::CorruptCacheEntry`]
/// injection after the fact. Also lowers the request's task (if any) to
/// its typed spec, returning the inpainting pin rows alongside the
/// condition.
fn prepare_condition(
    model: &ServedModel,
    request: &GenerateRequest,
    guidance: f32,
    fault: Option<Fault>,
    shared: &PoolShared,
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
        let mut cache = lock_cache(&shared.cache);
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
            lock_cache(&shared.cache).insert(key.clone(), cond.clone());
            (cond, false)
        }
    };
    if matches!(fault, Some(Fault::CorruptCacheEntry)) {
        lock_cache(&shared.cache).insert(key, Tensor::full(cond.shape(), f32::NAN));
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
        assert!(!sc.stream_previews);
        assert_eq!(sc.admission, AdmissionConfig::default());
        assert!(sc.workers >= 1);
        assert!(sc.max_batch >= 1);
        assert!(sc.max_worker_restarts >= 1);
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
