//! Reverse-process samplers: DDPM ancestral and DDIM with classifier-free
//! guidance.
//!
//! The single public entry point is [`Sampler::run`], driven by a
//! [`SampleOptions`] value that bundles the noise source
//! ([`NoiseSpec`]), the optional condition, and an optional
//! [`TraceSink`] receiving the span trace of the run. The per-variant
//! methods that accreted across earlier revisions (`sample`,
//! `sample_from`, `sample_with_streams`) were removed after one release
//! as deprecated shims; every caller goes through [`Sampler::run`].
//!
//! Two helpers extend the options for image-conditioned tasks:
//! [`StepSink`] is a reusable per-step observer handle that multi-stage
//! cascades re-borrow per stage via [`StepSink::stage`], and
//! [`LatentPin`] implements masked re-denoise (inpainting) by
//! recomposing pinned latent cells after every DDIM step.

use crate::schedule::NoiseSchedule;
use crate::unet::CondUnet;
use aero_obs::span;
use aero_obs::{Trace, TraceSink};
use aero_tensor::parallel::{self, ParallelConfig};
use aero_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

/// Shared floor for every denominator of the reverse-process update rules
/// (`sqrt(alpha)`, `sqrt(alpha_bar)`, `sqrt(1 - alpha_bar)`). Near the ends
/// of the schedule these terms approach zero and an unguarded division
/// amplifies prediction error explosively; both samplers clamp through this
/// one constant so the guard can never drift between them.
const DENOM_EPS: f32 = 1e-6;

/// `sqrt(x)` guarded for use as a denominator.
fn guarded_sqrt(x: f32) -> f32 {
    x.sqrt().max(DENOM_EPS)
}

/// A source of cancellation observed between reverse-process steps.
///
/// Checked once at the top of every sampler step; when it reports
/// cancelled the run stops before evaluating the UNet again and returns
/// the latent as of the last completed step. Implementors must be cheap
/// — the check sits on the sampling hot path.
pub trait CancelSignal: Sync {
    /// `true` once the run should stop.
    fn is_cancelled(&self) -> bool;
}

/// Shared, thread-safe cancellation flag — the standard [`CancelSignal`].
///
/// Clones observe the same underlying flag, so a serving layer can hand
/// one clone to the client-facing side and another to the sampler.
/// Cancellation is one-way: once set, the token stays cancelled.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken(Arc::new(AtomicBool::new(false)))
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

impl CancelSignal for CancelToken {
    fn is_cancelled(&self) -> bool {
        CancelToken::is_cancelled(self)
    }
}

/// One completed reverse-process step, handed to
/// [`SampleOptions::with_on_step`] observers.
///
/// `latent` borrows the batch latent `[n, c, h, w]` as of the end of
/// the step; observers must copy out what they need. Observation never
/// perturbs the sampled tensor.
pub struct StepEvent<'t> {
    /// Zero-based index of the step that just finished.
    pub step: usize,
    /// Total number of steps the run will execute if not cancelled.
    pub total: usize,
    /// The batch latent after this step's update.
    pub latent: &'t Tensor,
}

/// A reusable handle on an optional per-step observer.
///
/// `Option<&mut dyn FnMut(StepEvent)>` is consumed by value by the first
/// sampling call it is passed to, which forced multi-stage callers (the
/// super-resolution cascade) into manual `as_mut().map(|f| &mut **f)`
/// re-borrow gymnastics. `StepSink` owns that re-borrow: hold one sink,
/// call [`StepSink::stage`] once per sampling stage, and every stage
/// reports into the same underlying observer.
#[derive(Default)]
pub struct StepSink<'a> {
    inner: Option<&'a mut dyn FnMut(StepEvent<'_>)>,
}

impl<'a> StepSink<'a> {
    /// A sink that observes nothing.
    pub fn none() -> Self {
        StepSink { inner: None }
    }

    /// Wraps an observer callback.
    pub fn new(observer: &'a mut dyn FnMut(StepEvent<'_>)) -> Self {
        StepSink { inner: Some(observer) }
    }

    /// Re-borrows the sink for one sampling stage. The original sink
    /// stays usable afterwards, so a cascade can thread one observer
    /// through several sequential stages.
    pub fn stage(&mut self) -> StepSink<'_> {
        StepSink { inner: self.inner.as_mut().map(|f| &mut **f as &mut dyn FnMut(StepEvent<'_>)) }
    }

    /// Whether an observer is attached.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Unwraps into the raw optional callback [`SampleOptions`] carries.
    pub fn into_on_step(self) -> Option<&'a mut dyn FnMut(StepEvent<'_>)> {
        self.inner
    }
}

impl<'a> From<Option<&'a mut dyn FnMut(StepEvent<'_>)>> for StepSink<'a> {
    fn from(inner: Option<&'a mut dyn FnMut(StepEvent<'_>)>) -> Self {
        StepSink { inner }
    }
}

/// Per-row latent pinning for masked re-denoise (inpainting).
///
/// After every DDIM step the latent is recomposed elementwise: where
/// `mask` is non-zero the sampler's value is kept (the region being
/// re-denoised), elsewhere the value is replaced with the clean
/// `reference` latent re-noised to the step's own noise level
/// (`√ᾱ·ref + √(1−ᾱ)·noise`, RePaint-style). On the final step the
/// pinned cells are set to `reference` exactly, so pixels whose decoder
/// receptive field never touches a masked cell come out byte-identical
/// to decoding `reference` directly.
///
/// Rows whose mask is all ones are bitwise untouched — pinning composes
/// with batch coalescing, so inpaint rows can share a batch with
/// text-to-image rows without perturbing them.
#[derive(Debug, Clone)]
pub struct LatentPin {
    mask: Tensor,
    reference: Tensor,
    noise: Tensor,
}

impl LatentPin {
    /// Builds a pin from a writable-region mask (non-zero = sampler may
    /// write), the clean reference latent, and the fixed noise used to
    /// re-noise the reference at intermediate steps. All three must share
    /// the batch latent shape `[n, c, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics when the shapes disagree.
    pub fn new(mask: Tensor, reference: Tensor, noise: Tensor) -> Self {
        assert_eq!(mask.shape(), reference.shape(), "pin mask/reference shape mismatch");
        assert_eq!(mask.shape(), noise.shape(), "pin mask/noise shape mismatch");
        LatentPin { mask, reference, noise }
    }

    /// The writable-region mask.
    pub fn mask(&self) -> &Tensor {
        &self.mask
    }

    /// Recomposes `z` at noise level `alpha_bar`: exact elementwise
    /// select, so fully-writable rows (and cells) are bitwise untouched.
    fn apply(&self, z: &Tensor, alpha_bar: f32) -> Tensor {
        let (sa, sn) = (alpha_bar.sqrt(), (1.0 - alpha_bar).sqrt());
        let mut out = z.as_slice().to_vec();
        let mask = self.mask.as_slice();
        let reference = self.reference.as_slice();
        let noise = self.noise.as_slice();
        for (i, value) in out.iter_mut().enumerate() {
            if mask[i] == 0.0 {
                *value =
                    if alpha_bar >= 1.0 { reference[i] } else { sa * reference[i] + sn * noise[i] };
            }
        }
        Tensor::from_vec(out, z.shape())
    }
}

/// Per-step control threaded through the private sampler loops: the
/// cancel flag checked at the top of each step and the observer invoked
/// at the bottom.
struct StepCtrl<'a, 'b> {
    cancel: Option<&'a dyn CancelSignal>,
    on_step: Option<&'b mut dyn FnMut(StepEvent<'_>)>,
}

impl StepCtrl<'_, '_> {
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelSignal::is_cancelled)
    }

    fn emit(&mut self, step: usize, total: usize, latent: &Tensor) {
        if let Some(cb) = self.on_step.as_mut() {
            cb(StepEvent { step, total, latent });
        }
    }
}

/// Where a run's starting noise (and, for DDPM, per-step noise) comes
/// from.
///
/// The three variants correspond to the three reproducibility contracts
/// the workspace needs:
///
/// - [`Latent`](NoiseSpec::Latent): the caller fixed `z_T` explicitly —
///   fully deterministic, the serving batcher's contract.
/// - [`Shared`](NoiseSpec::Shared): all batch rows draw from one RNG —
///   cheapest, but a row's output depends on its batch context.
/// - [`PerSample`](NoiseSpec::PerSample): row `i` draws only from
///   `rngs[i]`, so each row is identical whether it ran in a batch of 1
///   or of 8.
pub enum NoiseSpec<'a, R = StdRng> {
    /// An explicit initial latent `z_T` of shape `[n, c, h, w]`.
    ///
    /// DDIM (η = 0) is fully deterministic from here. DDPM cannot run
    /// from a bare latent — ancestral steps need fresh noise — so
    /// [`Sampler::run`] panics on this combination.
    Latent(Tensor),
    /// Draw everything from one shared RNG; `shape` is `[n, c, h, w]`.
    Shared {
        /// Full batch shape `[n, c, h, w]`.
        shape: &'a [usize],
        /// The single RNG all rows share.
        rng: &'a mut R,
    },
    /// One independent RNG stream per batch row; the batch size is
    /// `rngs.len()` and `sample_shape` is the per-sample `[c, h, w]`.
    PerSample {
        /// Per-sample shape `[c, h, w]`.
        sample_shape: &'a [usize],
        /// One stream per row; must be non-empty.
        rngs: &'a mut [R],
    },
}

/// Options driving one [`Sampler::run`] call: noise source, optional
/// condition, optional trace sink, optional cancellation flag, optional
/// per-step observer.
pub struct SampleOptions<'a, R = StdRng> {
    /// Where the run's noise comes from.
    pub noise: NoiseSpec<'a, R>,
    /// Conditioning batch `[n, cond_dim]`, or `None` for unconditional.
    pub cond: Option<&'a Tensor>,
    /// When set, the run executes under span collection and the
    /// finished trace is handed to this sink. Observation never
    /// perturbs the sampled tensor.
    pub trace: Option<&'a mut dyn TraceSink>,
    /// Checked between steps; when it reports cancelled the run stops
    /// early and returns the latent as of the last completed step.
    pub cancel: Option<&'a dyn CancelSignal>,
    /// Invoked after every completed step with the current batch latent
    /// (streamed previews, progress bars). Never perturbs the output.
    pub on_step: Option<&'a mut dyn FnMut(StepEvent<'_>)>,
    /// Per-row masked re-denoise: pinned latent cells are recomposed
    /// after every step (DDIM only; see [`LatentPin`]).
    pub pin: Option<&'a LatentPin>,
}

impl<'a> SampleOptions<'a, StdRng> {
    /// Starts from an explicit initial latent (DDIM only). Named on the
    /// `StdRng` instantiation so type inference works without an RNG in
    /// sight.
    pub fn from_latent(z_init: Tensor) -> Self {
        SampleOptions {
            noise: NoiseSpec::Latent(z_init),
            cond: None,
            trace: None,
            cancel: None,
            on_step: None,
            pin: None,
        }
    }
}

impl<'a, R: Rng> SampleOptions<'a, R> {
    /// Draws all noise from one shared RNG; `shape` is `[n, c, h, w]`.
    pub fn from_rng(shape: &'a [usize], rng: &'a mut R) -> Self {
        SampleOptions {
            noise: NoiseSpec::Shared { shape, rng },
            cond: None,
            trace: None,
            cancel: None,
            on_step: None,
            pin: None,
        }
    }

    /// One independent RNG stream per batch row (`sample_shape` is the
    /// per-sample `[c, h, w]`; the batch size is `rngs.len()`).
    pub fn from_streams(sample_shape: &'a [usize], rngs: &'a mut [R]) -> Self {
        SampleOptions {
            noise: NoiseSpec::PerSample { sample_shape, rngs },
            cond: None,
            trace: None,
            cancel: None,
            on_step: None,
            pin: None,
        }
    }

    /// Sets the conditioning batch.
    #[must_use]
    pub fn with_cond(mut self, cond: &'a Tensor) -> Self {
        self.cond = Some(cond);
        self
    }

    /// Sets the conditioning batch from an `Option` (ergonomic for
    /// callers that already hold `Option<&Tensor>`).
    #[must_use]
    pub fn with_cond_opt(mut self, cond: Option<&'a Tensor>) -> Self {
        self.cond = cond;
        self
    }

    /// Collects the run's span trace into `sink`.
    #[must_use]
    pub fn with_trace(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Stops the run early when `signal` reports cancelled (checked
    /// between steps; the partial latent of the last completed step is
    /// returned).
    #[must_use]
    pub fn with_cancel(mut self, signal: &'a dyn CancelSignal) -> Self {
        self.cancel = Some(signal);
        self
    }

    /// Observes every completed step ([`StepEvent`] carries the current
    /// batch latent). Observation never changes the returned tensor.
    #[must_use]
    pub fn with_on_step(mut self, observer: &'a mut dyn FnMut(StepEvent<'_>)) -> Self {
        self.on_step = Some(observer);
        self
    }

    /// Attaches a (possibly empty) [`StepSink`] stage as the observer —
    /// the multi-stage-friendly form of
    /// [`with_on_step`](SampleOptions::with_on_step).
    #[must_use]
    pub fn with_sink(mut self, sink: StepSink<'a>) -> Self {
        self.on_step = sink.into_on_step();
        self
    }

    /// Pins latent cells outside a mask to a reference latent after every
    /// step (masked re-denoise; DDIM only).
    #[must_use]
    pub fn with_pin(mut self, pin: &'a LatentPin) -> Self {
        self.pin = Some(pin);
        self
    }
}

/// A reverse-process sampler: the one public sampling entry point is
/// [`Sampler::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampler {
    /// Deterministic DDIM with classifier-free guidance.
    Ddim(DdimSampler),
    /// Ancestral DDPM.
    Ddpm(DdpmSampler),
}

impl Sampler {
    /// Runs the reverse process described by `opts`.
    ///
    /// Emits `sampler.ddim` / `sampler.ddpm` spans with one
    /// `unet.denoise_step` child per step (under DDIM, each with a
    /// `unet.cond` / `unet.uncond` child per UNet pass, wherever the pass
    /// ran); when `opts.trace` is set the run executes under span
    /// collection and the finished trace goes to the sink. Tracing never
    /// changes the returned tensor.
    ///
    /// # Panics
    ///
    /// Panics when asked to run ancestral DDPM from a bare
    /// [`NoiseSpec::Latent`] (the ancestral chain needs fresh per-step
    /// noise) or with a [`LatentPin`] (masked re-denoise is a DDIM
    /// contract), or when [`NoiseSpec::PerSample`] has no streams.
    pub fn run<R: Rng>(
        &self,
        unet: &CondUnet,
        schedule: &NoiseSchedule,
        opts: SampleOptions<'_, R>,
    ) -> Tensor {
        let SampleOptions { noise, cond, trace, cancel, on_step, pin } = opts;
        let mut ctrl = StepCtrl { cancel, on_step };
        match trace {
            Some(sink) => {
                let (out, trace) = aero_obs::span::collect(|| {
                    self.run_inner(unet, schedule, noise, cond, pin, &mut ctrl)
                });
                sink.consume(&trace);
                out
            }
            None => self.run_inner(unet, schedule, noise, cond, pin, &mut ctrl),
        }
    }

    fn run_inner<R: Rng>(
        &self,
        unet: &CondUnet,
        schedule: &NoiseSchedule,
        noise: NoiseSpec<'_, R>,
        cond: Option<&Tensor>,
        pin: Option<&LatentPin>,
        ctrl: &mut StepCtrl<'_, '_>,
    ) -> Tensor {
        match self {
            Sampler::Ddim(s) => {
                let _span = span!("sampler.ddim");
                let z_init = match noise {
                    NoiseSpec::Latent(z) => z,
                    NoiseSpec::Shared { shape, rng } => Tensor::randn(shape, rng),
                    NoiseSpec::PerSample { sample_shape, rngs } => {
                        assert!(!rngs.is_empty(), "need at least one RNG stream");
                        stack_noise(sample_shape, rngs)
                    }
                };
                s.denoise(unet, schedule, z_init, cond, pin, ctrl)
            }
            Sampler::Ddpm(s) => {
                let _span = span!("sampler.ddpm");
                assert!(
                    pin.is_none(),
                    "masked re-denoise (LatentPin) is only defined for deterministic DDIM runs"
                );
                match noise {
                    NoiseSpec::Latent(_) => panic!(
                        "ancestral DDPM needs fresh per-step noise; \
                         pass NoiseSpec::Shared or NoiseSpec::PerSample (or use DDIM for a \
                         deterministic run from a fixed latent)"
                    ),
                    NoiseSpec::Shared { shape, rng } => {
                        s.ancestral_shared(unet, schedule, shape, cond, rng, ctrl)
                    }
                    NoiseSpec::PerSample { sample_shape, rngs } => {
                        assert!(!rngs.is_empty(), "need at least one RNG stream");
                        s.ancestral_streams(unet, schedule, sample_shape, cond, rngs, ctrl)
                    }
                }
            }
        }
    }
}

/// Ancestral DDPM sampler (the paper's training-time scheduler family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DdpmSampler;

impl DdpmSampler {
    /// Creates the sampler.
    pub fn new() -> Self {
        DdpmSampler
    }

    /// Runs all `T` ancestral steps with every row drawing from the one
    /// shared `rng`. `shape` is `[n, c, h, w]`.
    fn ancestral_shared<R: Rng + ?Sized>(
        &self,
        unet: &CondUnet,
        schedule: &NoiseSchedule,
        shape: &[usize],
        cond: Option<&Tensor>,
        rng: &mut R,
        ctrl: &mut StepCtrl<'_, '_>,
    ) -> Tensor {
        let n = shape[0];
        let total = schedule.timesteps();
        let mut z = Tensor::randn(shape, rng);
        let mut ts = vec![0usize; n];
        for (i, t) in (0..total).rev().enumerate() {
            if ctrl.cancelled() {
                break;
            }
            let _step = span!("unet.denoise_step");
            ts.fill(t);
            let eps_hat = unet.predict(&z, &ts, cond);
            let mean = self.posterior_mean(schedule, t, &z, &eps_hat);
            if t > 0 {
                let sigma = schedule.beta(t).sqrt();
                z = mean.add(&Tensor::randn(shape, rng).mul_scalar(sigma));
            } else {
                z = mean;
            }
            ctrl.emit(i, total, &z);
        }
        z
    }

    /// Runs all `T` ancestral steps where row `i`'s initial latent and
    /// every ancestral draw come from `rngs[i]` alone, so the output row
    /// is identical whether the request ran in a batch of 1 or of 8
    /// (the serving batcher relies on this).
    fn ancestral_streams<R: Rng>(
        &self,
        unet: &CondUnet,
        schedule: &NoiseSchedule,
        sample_shape: &[usize],
        cond: Option<&Tensor>,
        rngs: &mut [R],
        ctrl: &mut StepCtrl<'_, '_>,
    ) -> Tensor {
        let n = rngs.len();
        let total = schedule.timesteps();
        let mut z = stack_noise(sample_shape, rngs);
        let mut ts = vec![0usize; n];
        for (i, t) in (0..total).rev().enumerate() {
            if ctrl.cancelled() {
                break;
            }
            let _step = span!("unet.denoise_step");
            ts.fill(t);
            let eps_hat = unet.predict(&z, &ts, cond);
            let mean = self.posterior_mean(schedule, t, &z, &eps_hat);
            if t > 0 {
                let sigma = schedule.beta(t).sqrt();
                z = mean.add(&stack_noise(sample_shape, rngs).mul_scalar(sigma));
            } else {
                z = mean;
            }
            ctrl.emit(i, total, &z);
        }
        z
    }

    /// One ancestral posterior mean `μ(z_t, ε̂)` (Eq. 11 of DDPM).
    fn posterior_mean(
        &self,
        schedule: &NoiseSchedule,
        t: usize,
        z: &Tensor,
        eps_hat: &Tensor,
    ) -> Tensor {
        let alpha = schedule.alpha(t);
        let alpha_bar = schedule.alpha_bar(t);
        let coef = (1.0 - alpha) / guarded_sqrt(1.0 - alpha_bar);
        z.sub(&eps_hat.mul_scalar(coef)).mul_scalar(1.0 / guarded_sqrt(alpha))
    }
}

/// Per-sample noise rows, one from each stream, stacked to `[n, c, h, w]`.
fn stack_noise<R: Rng>(sample_shape: &[usize], rngs: &mut [R]) -> Tensor {
    let rows: Vec<Tensor> = rngs.iter_mut().map(|r| Tensor::randn(sample_shape, r)).collect();
    let refs: Vec<&Tensor> = rows.iter().collect();
    Tensor::stack(&refs)
}

/// Static threshold on DDIM's predicted `z0` (clamped to this many
/// standard deviations). Near `t = T` the reconstruction divides by
/// `sqrt(alpha_bar_T) ~ 0`, so an unclamped estimate amplifies early
/// prediction error explosively with few inference steps.
const Z0_CLIP: f32 = 3.0;

/// DDIM sampler (η = 0, deterministic given the start noise) with
/// classifier-free guidance — the paper denoises in 250 DDIM steps with a
/// guidance scale of 7.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdimSampler {
    /// Number of inference steps.
    pub steps: usize,
    /// Classifier-free guidance scale (1.0 disables guidance).
    pub guidance_scale: f32,
}

impl DdimSampler {
    /// Creates a sampler with the given step count and guidance scale.
    pub fn new(steps: usize, guidance_scale: f32) -> Self {
        DdimSampler { steps, guidance_scale }
    }

    /// Runs the deterministic reverse process from an explicit initial
    /// latent `z_T` of shape `[n, c, h, w]`.
    ///
    /// Because every per-row operation is independent, row `i` of the
    /// output depends only on row `i` of `z_init` (and of `cond`) — the
    /// serving batcher uses this to coalesce requests without changing
    /// any request's result.
    ///
    /// With a condition and `guidance_scale != 1`, each step evaluates the
    /// UNet twice (conditional + unconditional) and extrapolates:
    /// `ε = ε_u + g (ε_c − ε_u)`. When the thread policy allows two
    /// threads and the machine has two cores, the unconditional pass of
    /// every step runs on a scoped helper thread while the caller runs
    /// the conditional one (see [`Self::denoise_with_helper`]).
    fn denoise(
        &self,
        unet: &CondUnet,
        schedule: &NoiseSchedule,
        z_init: Tensor,
        cond: Option<&Tensor>,
        pin: Option<&LatentPin>,
        ctrl: &mut StepCtrl<'_, '_>,
    ) -> Tensor {
        let guided = cond.filter(|_| self.guidance_scale != 1.0);
        match guided {
            Some(c) if parallel::active_threads() >= 2 && parallel::effective_cores() >= 2 => {
                self.denoise_with_helper(unet, schedule, z_init, c, pin, ctrl)
            }
            Some(c) => self.run_steps(schedule, z_init, pin, ctrl, |z, ts| {
                let cond_eps = pass(unet, z, ts, Some(c));
                self.guide(&cond_eps, &pass(unet, z, ts, None))
            }),
            None => self.run_steps(schedule, z_init, pin, ctrl, |z, ts| pass(unet, z, ts, cond)),
        }
    }

    /// [`Self::denoise`] for a guided run with two threads to spend: the
    /// caller keeps half its thread budget (rounded up) for the
    /// conditional passes, and a scoped helper thread, under the other
    /// half and the caller's backend, runs the unconditional pass of each
    /// step on the same weights. The caller hands the helper each step's
    /// latent over a channel, runs its own pass, then waits for `ε_u`;
    /// the guidance combine stays on the caller, so the output bytes are
    /// the serial run's.
    ///
    /// Cancellation, a finished run and a panicking caller all drop the
    /// job sender, which ends the helper before the scope joins it. A
    /// panicking helper drops its result sender, and the caller resumes
    /// the helper's panic.
    fn denoise_with_helper(
        &self,
        unet: &CondUnet,
        schedule: &NoiseSchedule,
        z_init: Tensor,
        cond: &Tensor,
        pin: Option<&LatentPin>,
        ctrl: &mut StepCtrl<'_, '_>,
    ) -> Tensor {
        aero_obs::counter!("sampler.cfg_parallel").inc();
        let threads = parallel::active_threads();
        let caller_threads = threads - threads / 2;
        let helper_policy = ParallelConfig::with_threads(threads / 2);
        std::thread::scope(|scope| {
            let (job_tx, job_rx) = mpsc::channel::<(Tensor, Vec<usize>, bool)>();
            let (eps_tx, eps_rx) = mpsc::channel::<(Tensor, Option<Trace>)>();
            // lint: nondet-ok(same predict, same weights; the combine stays on the caller)
            let helper = scope.spawn(move || {
                parallel::adopt_thread_policy(helper_policy);
                for (z, ts, traced) in job_rx {
                    let out = if traced {
                        let (eps, trace) = span::collect(|| pass(unet, &z, &ts, None));
                        (eps, Some(trace))
                    } else {
                        (pass(unet, &z, &ts, None), None)
                    };
                    if eps_tx.send(out).is_err() {
                        break;
                    }
                }
            });
            let mut helper = Some(helper);
            self.run_steps(schedule, z_init, pin, ctrl, |z, ts| {
                let job = (z.clone(), ts.to_vec(), span::is_collecting());
                // A send fails only once the helper is gone, and then so is
                // its result sender: the `recv` below reports it.
                let _ = job_tx.send(job);
                let cond_eps =
                    parallel::with_threads(caller_threads, || pass(unet, z, ts, Some(cond)));
                let Ok((uncond_eps, trace)) = eps_rx.recv() else {
                    match helper.take().map(std::thread::ScopedJoinHandle::join) {
                        Some(Err(payload)) => std::panic::resume_unwind(payload),
                        _ => panic!("the guidance helper exited without a result"),
                    }
                };
                if let Some(trace) = trace {
                    span::attach(trace.roots);
                }
                self.guide(&cond_eps, &uncond_eps)
            })
        })
    }

    /// The guided noise estimate `ε_u + g (ε_c − ε_u)`.
    fn guide(&self, cond_eps: &Tensor, uncond_eps: &Tensor) -> Tensor {
        uncond_eps.add(&cond_eps.sub(uncond_eps).mul_scalar(self.guidance_scale))
    }

    /// The DDIM step loop around a noise estimator `eps(z_t, timesteps)`.
    fn run_steps(
        &self,
        schedule: &NoiseSchedule,
        z_init: Tensor,
        pin: Option<&LatentPin>,
        ctrl: &mut StepCtrl<'_, '_>,
        mut eps: impl FnMut(&Tensor, &[usize]) -> Tensor,
    ) -> Tensor {
        let n = z_init.shape()[0];
        let mut z = z_init;
        let ts = schedule.ddim_timesteps(self.steps.min(schedule.timesteps()));
        let mut batch_ts = vec![0usize; n];
        for (i, &t) in ts.iter().enumerate() {
            if ctrl.cancelled() {
                break;
            }
            let _step = span!("unet.denoise_step");
            if i == 0 {
                if let Some(p) = pin {
                    // Replace pinned cells of the start noise with the
                    // forward-diffused reference at the first timestep, so
                    // the UNet sees a latent consistent with the known
                    // region from step one.
                    z = p.apply(&z, schedule.alpha_bar(t));
                }
            }
            batch_ts.fill(t);
            let eps_hat = eps(&z, &batch_ts);
            let ab_t = schedule.alpha_bar(t);
            let z0_hat = z
                .sub(&eps_hat.mul_scalar((1.0 - ab_t).sqrt()))
                .mul_scalar(1.0 / guarded_sqrt(ab_t))
                .clamp(-Z0_CLIP, Z0_CLIP);
            let t_prev = ts.get(i + 1).copied();
            match t_prev {
                Some(tp) => {
                    let ab_p = schedule.alpha_bar(tp);
                    z = z0_hat
                        .mul_scalar(ab_p.sqrt())
                        .add(&eps_hat.mul_scalar((1.0 - ab_p).sqrt()));
                    if let Some(p) = pin {
                        z = p.apply(&z, ab_p);
                    }
                }
                None => {
                    z = z0_hat;
                    if let Some(p) = pin {
                        // Final step: pin the known cells to the reference
                        // exactly (alpha_bar = 1 at t = 0).
                        z = p.apply(&z, 1.0);
                    }
                }
            }
            ctrl.emit(i, ts.len(), &z);
        }
        z
    }
}

/// One UNet pass of a DDIM step, under a span naming its branch.
fn pass(unet: &CondUnet, z: &Tensor, ts: &[usize], cond: Option<&Tensor>) -> Tensor {
    let _span = span!(if cond.is_some() { "unet.cond" } else { "unet.uncond" });
    unet.predict(z, ts, cond)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::BetaSchedule;
    use crate::unet::UnetConfig;
    use aero_obs::TableTraceSink;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_setup() -> (CondUnet, NoiseSchedule) {
        let mut rng = StdRng::seed_from_u64(1);
        let unet = CondUnet::new(
            UnetConfig {
                in_channels: 2,
                base_channels: 4,
                cond_dim: 3,
                time_embed_dim: 8,
                cond_tokens: 1,
                spatial_cond_cells: 16,
            },
            &mut rng,
        );
        let schedule =
            NoiseSchedule::new(BetaSchedule::Linear { beta_start: 0.01, beta_end: 0.1 }, 8);
        (unet, schedule)
    }

    #[test]
    fn ddpm_sample_shape_and_finite() {
        let (unet, schedule) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(2);
        let c = Tensor::randn(&[2, 3], &mut rng);
        let out = Sampler::Ddpm(DdpmSampler::new()).run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[2, 2, 8, 8], &mut rng).with_cond(&c),
        );
        assert_eq!(out.shape(), &[2, 2, 8, 8]);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ddim_sample_shape_and_finite() {
        let (unet, schedule) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(3);
        let c = Tensor::randn(&[1, 3], &mut rng);
        let out = Sampler::Ddim(DdimSampler::new(4, 2.0)).run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut rng).with_cond(&c),
        );
        assert_eq!(out.shape(), &[1, 2, 8, 8]);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ddim_deterministic_given_rng_seed() {
        let (unet, schedule) = tiny_setup();
        let c = Tensor::ones(&[1, 3]);
        let sampler = Sampler::Ddim(DdimSampler::new(4, 1.0));
        let a = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(5)).with_cond(&c),
        );
        let b = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(5)).with_cond(&c),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn ddim_from_rng_matches_from_latent_on_same_noise() {
        let (unet, schedule) = tiny_setup();
        let c = Tensor::ones(&[1, 3]);
        let sampler = Sampler::Ddim(DdimSampler::new(4, 2.0));
        let via_rng = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(8)).with_cond(&c),
        );
        let noise = Tensor::randn(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(8));
        let via_latent =
            sampler.run(&unet, &schedule, SampleOptions::from_latent(noise).with_cond(&c));
        assert_eq!(via_rng, via_latent);
    }

    #[test]
    fn ddim_rows_are_batch_invariant() {
        // The serving contract: a request's output is byte-identical
        // whether it ran alone or coalesced into a batch.
        let (unet, schedule) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(11);
        let noise_a = Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let noise_b = Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let cond_a = Tensor::randn(&[1, 3], &mut rng);
        let cond_b = Tensor::randn(&[1, 3], &mut rng);
        let sampler = Sampler::Ddim(DdimSampler::new(4, 2.0));

        let batch_cond = Tensor::concat(&[&cond_a, &cond_b], 0);
        let batched = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_latent(Tensor::concat(&[&noise_a, &noise_b], 0))
                .with_cond(&batch_cond),
        );
        let solo_a =
            sampler.run(&unet, &schedule, SampleOptions::from_latent(noise_a).with_cond(&cond_a));
        let solo_b =
            sampler.run(&unet, &schedule, SampleOptions::from_latent(noise_b).with_cond(&cond_b));

        assert_eq!(batched.narrow(0, 0, 1), solo_a);
        assert_eq!(batched.narrow(0, 1, 1), solo_b);
    }

    #[test]
    fn ddpm_streams_are_batch_invariant() {
        let (unet, schedule) = tiny_setup();
        let mut seed_rng = StdRng::seed_from_u64(13);
        let cond = Tensor::randn(&[2, 3], &mut seed_rng);
        let sampler = Sampler::Ddpm(DdpmSampler::new());

        let mut batch_rngs = [StdRng::seed_from_u64(21), StdRng::seed_from_u64(22)];
        let batched = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_streams(&[2, 8, 8], &mut batch_rngs).with_cond(&cond),
        );

        let cond_a = cond.narrow(0, 0, 1);
        let mut solo_a = [StdRng::seed_from_u64(21)];
        let a = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_streams(&[2, 8, 8], &mut solo_a).with_cond(&cond_a),
        );
        let cond_b = cond.narrow(0, 1, 1);
        let mut solo_b = [StdRng::seed_from_u64(22)];
        let b = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_streams(&[2, 8, 8], &mut solo_b).with_cond(&cond_b),
        );

        assert_eq!(batched.narrow(0, 0, 1), a);
        assert_eq!(batched.narrow(0, 1, 1), b);
    }

    #[test]
    fn guidance_changes_output() {
        let (unet, schedule) = tiny_setup();
        let c = Tensor::ones(&[1, 3]);
        let low = Sampler::Ddim(DdimSampler::new(4, 1.0)).run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(6)).with_cond(&c),
        );
        let high = Sampler::Ddim(DdimSampler::new(4, 7.0)).run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(6)).with_cond(&c),
        );
        assert!(low.sub(&high).abs().max() > 1e-6);
    }

    #[test]
    fn consolidated_entry_point_is_deterministic_per_options() {
        // The old shim-parity test migrated here: every caller now goes
        // through `Sampler::run`, so the contract worth pinning is that
        // identical options reproduce bitwise-identical samples for both
        // algorithms and both noise specifications.
        let (unet, schedule) = tiny_setup();
        let c = Tensor::ones(&[1, 3]);

        let ddim = Sampler::Ddim(DdimSampler::new(4, 2.0));
        let first = ddim.run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(17)).with_cond(&c),
        );
        let second = ddim.run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(17)).with_cond(&c),
        );
        assert_eq!(first, second);

        let ddpm = Sampler::Ddpm(DdpmSampler::new());
        let mut rngs_a = [StdRng::seed_from_u64(18)];
        let streams_a = ddpm.run(
            &unet,
            &schedule,
            SampleOptions::from_streams(&[2, 8, 8], &mut rngs_a).with_cond(&c),
        );
        let mut rngs_b = [StdRng::seed_from_u64(18)];
        let streams_b = ddpm.run(
            &unet,
            &schedule,
            SampleOptions::from_streams(&[2, 8, 8], &mut rngs_b).with_cond(&c),
        );
        assert_eq!(streams_a, streams_b);
    }

    #[test]
    fn tracing_never_perturbs_the_output() {
        let (unet, schedule) = tiny_setup();
        let c = Tensor::ones(&[1, 3]);
        let sampler = Sampler::Ddim(DdimSampler::new(4, 2.0));
        let plain = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(23)).with_cond(&c),
        );
        let mut sink = TableTraceSink::new();
        let traced = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(23))
                .with_cond(&c)
                .with_trace(&mut sink),
        );
        assert_eq!(plain, traced);
        let rendered = sink.take_rendered();
        assert!(rendered.contains("sampler.ddim"), "{rendered}");
        assert!(rendered.contains("unet.denoise_step ×4"), "{rendered}");
    }

    #[test]
    fn on_step_observes_every_step_without_perturbing_output() {
        let (unet, schedule) = tiny_setup();
        let c = Tensor::ones(&[1, 3]);
        let sampler = Sampler::Ddim(DdimSampler::new(4, 2.0));
        let plain = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(29)).with_cond(&c),
        );
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut observer = |ev: StepEvent<'_>| {
            assert_eq!(ev.latent.shape(), &[1, 2, 8, 8]);
            seen.push((ev.step, ev.total));
        };
        let observed = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(29))
                .with_cond(&c)
                .with_on_step(&mut observer),
        );
        assert_eq!(plain, observed);
        assert_eq!(seen, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn cancel_mid_run_stops_before_final_step() {
        let (unet, schedule) = tiny_setup();
        let c = Tensor::ones(&[1, 3]);
        let sampler = Sampler::Ddim(DdimSampler::new(4, 2.0));
        let token = CancelToken::new();
        let mut steps_seen = 0usize;
        let mut observer = |ev: StepEvent<'_>| {
            steps_seen += 1;
            if ev.step == 1 {
                token.clone().cancel();
            }
        };
        let partial = sampler.run(
            &unet,
            &schedule,
            SampleOptions::from_rng(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(31))
                .with_cond(&c)
                .with_cancel(&token)
                .with_on_step(&mut observer),
        );
        // Cancelled during step 1's observer, so step 2 never ran: two
        // steps completed out of four.
        assert_eq!(steps_seen, 2);
        assert!(partial.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(partial.shape(), &[1, 2, 8, 8]);
    }

    #[test]
    fn pre_cancelled_run_returns_initial_latent_untouched() {
        let (unet, schedule) = tiny_setup();
        let z = Tensor::randn(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(37));
        let token = CancelToken::new();
        token.cancel();
        let out = Sampler::Ddim(DdimSampler::new(4, 1.0)).run(
            &unet,
            &schedule,
            SampleOptions::from_latent(z.clone()).with_cancel(&token),
        );
        assert_eq!(out, z);
    }

    #[test]
    fn ddpm_cancel_stops_ancestral_chain_early() {
        let (unet, schedule) = tiny_setup();
        let token = CancelToken::new();
        let mut steps_seen = 0usize;
        let mut observer = |ev: StepEvent<'_>| {
            steps_seen += 1;
            if ev.step == 0 {
                token.clone().cancel();
            }
        };
        let mut rngs = [StdRng::seed_from_u64(41)];
        let out = Sampler::Ddpm(DdpmSampler::new()).run(
            &unet,
            &schedule,
            SampleOptions::from_streams(&[2, 8, 8], &mut rngs)
                .with_cancel(&token)
                .with_on_step(&mut observer),
        );
        assert_eq!(steps_seen, 1);
        assert_eq!(out.shape(), &[1, 2, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "per-step noise")]
    fn ddpm_from_latent_is_rejected() {
        let (unet, schedule) = tiny_setup();
        let z = Tensor::zeros(&[1, 2, 8, 8]);
        let _ =
            Sampler::Ddpm(DdpmSampler::new()).run(&unet, &schedule, SampleOptions::from_latent(z));
    }

    #[test]
    fn pin_with_all_ones_mask_is_bitwise_noop() {
        let (unet, schedule) = tiny_setup();
        let z = Tensor::randn(&[2, 2, 8, 8], &mut StdRng::seed_from_u64(51));
        let reference = Tensor::randn(&[2, 2, 8, 8], &mut StdRng::seed_from_u64(52));
        let noise = Tensor::randn(&[2, 2, 8, 8], &mut StdRng::seed_from_u64(53));
        let pin = LatentPin::new(Tensor::from_vec(vec![1.0; 256], &[2, 2, 8, 8]), reference, noise);
        let sampler = Sampler::Ddim(DdimSampler::new(4, 1.0));
        let plain = sampler.run(&unet, &schedule, SampleOptions::from_latent(z.clone()));
        let pinned = sampler.run(&unet, &schedule, SampleOptions::from_latent(z).with_pin(&pin));
        assert_eq!(plain.as_slice(), pinned.as_slice(), "all-writable pin must be a no-op");
    }

    #[test]
    fn pin_forces_masked_cells_to_reference_exactly() {
        let (unet, schedule) = tiny_setup();
        let z = Tensor::randn(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(61));
        let reference = Tensor::randn(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(62));
        let noise = Tensor::randn(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(63));
        // Writable only in the top-left 4x4 corner of each channel.
        let mut mask = vec![0.0f32; 128];
        for c in 0..2 {
            for y in 0..4 {
                for x in 0..4 {
                    mask[c * 64 + y * 8 + x] = 1.0;
                }
            }
        }
        let mask = Tensor::from_vec(mask, &[1, 2, 8, 8]);
        let pin = LatentPin::new(mask.clone(), reference.clone(), noise);
        let out = Sampler::Ddim(DdimSampler::new(4, 1.0)).run(
            &unet,
            &schedule,
            SampleOptions::from_latent(z).with_pin(&pin),
        );
        for (i, (&m, (&o, &r))) in
            mask.as_slice().iter().zip(out.as_slice().iter().zip(reference.as_slice())).enumerate()
        {
            if m == 0.0 {
                assert_eq!(o.to_bits(), r.to_bits(), "pinned cell {i} must equal the reference");
            }
        }
    }

    #[test]
    #[should_panic(expected = "DDIM")]
    fn pin_with_ddpm_is_rejected() {
        let (unet, schedule) = tiny_setup();
        let shape = &[1, 2, 8, 8];
        let pin = LatentPin::new(
            Tensor::from_vec(vec![1.0; 128], shape),
            Tensor::zeros(shape),
            Tensor::zeros(shape),
        );
        let mut rng = StdRng::seed_from_u64(71);
        let _ = Sampler::Ddpm(DdpmSampler::new()).run(
            &unet,
            &schedule,
            SampleOptions::from_rng(shape, &mut rng).with_pin(&pin),
        );
    }

    #[test]
    fn step_sink_threads_one_observer_through_two_stages() {
        let (unet, schedule) = tiny_setup();
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut observer = |ev: StepEvent<'_>| seen.push((ev.step, ev.total));
        let sampler = Sampler::Ddim(DdimSampler::new(3, 1.0));
        {
            // The sink borrows the observer; scope it so `seen` can be
            // read back afterwards.
            let mut sink = StepSink::new(&mut observer);
            for seed in [81u64, 82] {
                let z = Tensor::randn(&[1, 2, 8, 8], &mut StdRng::seed_from_u64(seed));
                let _ = sampler.run(
                    &unet,
                    &schedule,
                    SampleOptions::from_latent(z).with_sink(sink.stage()),
                );
            }
        }
        assert_eq!(seen, vec![(0, 3), (1, 3), (2, 3), (0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn inactive_step_sink_reports_inactive() {
        assert!(!StepSink::none().is_active());
        let mut observer = |_: StepEvent<'_>| {};
        assert!(StepSink::new(&mut observer).is_active());
    }
}
