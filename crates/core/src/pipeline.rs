//! The end-to-end AeroDiffusion pipeline.

use crate::ablation::AblationVariant;
use crate::condition::{ConditionInputs, ConditionNetwork};
use crate::config::PipelineConfig;
use crate::snapshot::PipelineMeta;
use crate::substrate::{caption_dataset, SubstrateBundle};
use crate::task::{ConditionSource, TaskSpec};
use aero_diffusion::{
    train_checkpointed, CancelSignal, CheckpointConfig, CondUnet, DdimSampler, DiffusionTrainer,
    LatentPin, SampleOptions, Sampler, StepSink, TrainPlan, TrainRun,
};
use aero_nn::artifact::{load_into_params, ModelError};
use aero_nn::optim::Adam;
use aero_nn::{Module, Var};
use aero_obs::span;
use aero_scene::{AerialDataset, Annotation, DatasetItem, Image, ObjectClass};
use aero_tensor::Tensor;
use aero_text::llm::{LlmProvider, SimulatedLlm};
use aero_text::prompt::PromptTemplate;
use aero_text::task::{task_caption, TaskCaption};
use aero_text::tokenizer::{Tokenizer, Vocabulary};
use aero_vision::vae::LATENT_CHANNELS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a training run may vary beyond its dataset, configuration and
/// seed. The default is the paper's setting: keypoint-aware captions, the
/// full model, no checkpoints, no step bound.
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Caption provider (Table II).
    pub provider: LlmProvider,
    /// Ablation variant (Table IV).
    pub variant: AblationVariant,
    /// Crash-safe checkpoints of the joint diffusion stage. A run killed
    /// at an arbitrary step and re-invoked with the same arguments
    /// continues from the newest valid checkpoint on a bit-identical
    /// trajectory (optimizer moments, RNG state and the in-epoch batch
    /// order are all restored); corrupt checkpoints are skipped, not
    /// trusted.
    pub checkpoint: Option<CheckpointConfig>,
    /// Bound on joint-training steps (simulates a mid-run kill in tests
    /// and bounds CI smoke runs).
    pub max_steps: Option<u64>,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            provider: LlmProvider::KeypointAware,
            variant: AblationVariant::Full,
            checkpoint: None,
            max_steps: None,
        }
    }
}

/// One row of an [`AeroDiffusionPipeline::sample_batch`] call.
pub struct SampleRow<'a, R: ?Sized> {
    /// The row's `[1, cond_dim]` condition (see
    /// [`AeroDiffusionPipeline::encode_task`]).
    pub cond: &'a Tensor,
    /// The row's own noise stream.
    pub rng: &'a mut R,
    /// The row's inpainting pin parts (see
    /// [`AeroDiffusionPipeline::pin_parts`]).
    pub pin: Option<(Tensor, Tensor)>,
}

/// Stacks `[1, …]` rows along the batch axis; a lone row moves through
/// without a copy.
fn stack_rows(mut rows: Vec<Tensor>) -> Tensor {
    if rows.len() == 1 {
        return rows.pop().expect("one row");
    }
    Tensor::concat(&rows.iter().collect::<Vec<_>>(), 0)
}

/// A fully trained AeroDiffusion system.
#[derive(Debug)]
pub struct AeroDiffusionPipeline {
    pub(crate) config: PipelineConfig,
    pub(crate) bundle: SubstrateBundle,
    pub(crate) condition: ConditionNetwork,
    pub(crate) unet: CondUnet,
    pub(crate) trainer: DiffusionTrainer,
    pub(crate) provider: LlmProvider,
    pub(crate) variant: AblationVariant,
}

impl AeroDiffusionPipeline {
    /// The untrained skeleton around a substrate bundle: the condition
    /// network, then the UNet, both initialised from `rng` in that order.
    pub(crate) fn assemble(
        config: PipelineConfig,
        bundle: SubstrateBundle,
        provider: LlmProvider,
        variant: AblationVariant,
        rng: &mut StdRng,
    ) -> Self {
        let condition = ConditionNetwork::with_components(
            bundle.tokenizer.vocab().len(),
            &config,
            variant.uses_blip(),
            variant.uses_object_detection(),
            rng,
        );
        let unet = CondUnet::new(crate::lint::unet_config(&config), rng);
        let trainer = DiffusionTrainer::new(config.diffusion);
        AeroDiffusionPipeline { config, bundle, condition, unet, trainer, provider, variant }
    }

    /// Every weight-carrying module's parameters, in
    /// [`MODULE_NAMES`](crate::MODULE_NAMES) order: what a saved model or
    /// an export reads each weight tensor from through [`Var::value`].
    pub fn module_params(&self) -> [Vec<Var>; 5] {
        [
            self.bundle.clip.params(),
            self.bundle.vae.params(),
            self.bundle.detector.params(),
            self.condition.params(),
            self.unet.params(),
        ]
    }

    /// Trains the full pipeline on a dataset with the paper's default
    /// keypoint-aware captioning.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn fit(dataset: &AerialDataset, config: PipelineConfig, seed: u64) -> Self {
        Self::fit_with(dataset, config, seed, &FitOptions::default())
            .expect("uncheckpointed training performs no fallible i/o")
            .0
    }

    /// Trains with explicit [`FitOptions`]: caption provider, ablation
    /// variant, checkpoints and a step bound.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint save/scan failures.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn fit_with(
        dataset: &AerialDataset,
        config: PipelineConfig,
        seed: u64,
        options: &FitOptions,
    ) -> Result<(Self, TrainRun), ModelError> {
        assert!(!dataset.is_empty(), "cannot fit on an empty dataset");
        let mut rng = StdRng::seed_from_u64(seed);
        let prompt = options.variant.prompt();
        let captions = caption_dataset(dataset, options.provider, &prompt, seed);
        let bundle = SubstrateBundle::train(dataset, &captions, &config, seed);
        let mut pipeline =
            Self::assemble(config, bundle, options.provider, options.variant, &mut rng);
        let report = pipeline.train_joint(dataset, &captions, &mut rng, options)?;
        Ok((pipeline, report))
    }

    /// The joint diffusion + condition-network training stage (Eq. 6:
    /// "both the parameters θ of the denoising network and those involved
    /// in generating the condition vector C are jointly updated").
    /// Runs on [`train_checkpointed`], so it resumes from the newest valid
    /// checkpoint when `options` names a checkpoint directory, and then
    /// saves every `checkpoint.every` steps plus once at completion.
    fn train_joint(
        &mut self,
        dataset: &AerialDataset,
        captions: &[String],
        rng: &mut StdRng,
        options: &FitOptions,
    ) -> Result<TrainRun, ModelError> {
        // Precompute frozen quantities: latents, tokens, ROIs.
        let latents: Vec<Tensor> = dataset
            .iter()
            .map(|item| {
                let s = self.config.vision.image_size;
                let img = item.rendered.image.to_tensor().reshape(&[1, 3, s, s]);
                self.bundle.vae.encode_tensor(&img)
            })
            .collect();
        let tokens: Vec<Vec<usize>> =
            captions.iter().map(|c| self.bundle.tokenizer.encode(c)).collect();
        let rois: Vec<Vec<Annotation>> =
            dataset.iter().map(|item| self.propose_rois(&item.rendered.image)).collect();

        // Alignment pretraining: stands in for the pretrained BLIP/ViT
        // checkpoints the paper's condition network starts from.
        let pretrain_inputs: Vec<ConditionInputs<'_>> = (0..dataset.len())
            .map(|i| ConditionInputs {
                image: &dataset.items[i].rendered.image,
                tokens_g: tokens[i].clone(),
                tokens_g_prime: tokens[i].clone(),
                rois: &rois[i],
            })
            .collect();
        self.condition.pretrain_alignment(
            &self.bundle.clip,
            &pretrain_inputs,
            self.config.clip_epochs,
            self.config.batch_size,
            self.config.substrate_lr,
            rng,
        );

        let joint = self.config.joint_condition_training;
        let mut params = self.unet.params();
        if joint {
            params.extend(self.condition.params());
        }
        let mut opt = Adam::new(params, self.config.diffusion_lr).with_weight_decay(1e-5);

        // Frozen-condition fast path: precompute every condition vector
        // once (the alignment-pretrained network is treated like the
        // frozen pretrained encoders the baselines use).
        let frozen_conds: Vec<Tensor> = if joint {
            Vec::new()
        } else {
            (0..dataset.len())
                .map(|i| {
                    let inputs = [ConditionInputs {
                        image: &dataset.items[i].rendered.image,
                        tokens_g: tokens[i].clone(),
                        tokens_g_prime: tokens[i].clone(),
                        rois: &rois[i],
                    }];
                    let c = self.condition.build_batch(&self.bundle.clip, &inputs).to_tensor();
                    let d = c.shape()[1];
                    c.reshape(&[d])
                })
                .collect()
        };

        let plan = TrainPlan {
            units: dataset.len(),
            per_step: self.config.diffusion_batch_size,
            epochs: self.config.diffusion_epochs,
            max_steps: options.max_steps,
        };
        let run =
            train_checkpointed(&plan, options.checkpoint.as_ref(), rng, &mut opt, |chunk, rng| {
                let cond = if joint {
                    let inputs: Vec<ConditionInputs<'_>> = chunk
                        .iter()
                        .map(|&i| ConditionInputs {
                            image: &dataset.items[i].rendered.image,
                            tokens_g: tokens[i].clone(),
                            // during training the target description equals
                            // the source description
                            tokens_g_prime: tokens[i].clone(),
                            rois: &rois[i],
                        })
                        .collect();
                    self.condition.build_batch(&self.bundle.clip, &inputs)
                } else {
                    let c_refs: Vec<&Tensor> = chunk.iter().map(|&i| &frozen_conds[i]).collect();
                    Var::constant(Tensor::stack(&c_refs))
                };
                let z_refs: Vec<Tensor> = chunk
                    .iter()
                    .map(|&i| {
                        let sh = latents[i].shape();
                        latents[i].reshape(&[sh[1], sh[2], sh[3]])
                    })
                    .collect();
                let refs: Vec<&Tensor> = z_refs.iter().collect();
                let z0 = Tensor::stack(&refs);
                self.trainer.loss(&self.unet, &z0, Some(&cond), rng)
            })?;
        Ok(run)
    }

    /// ROIs for an image: detector output ordered by confidence. When the
    /// detector abstains entirely at the configured threshold, the
    /// threshold is relaxed once (mirroring the paper's object-retrieval
    /// step, which always extracts the highest-importance regions).
    pub fn propose_rois(&self, image: &Image) -> Vec<Annotation> {
        let tensor = image.to_tensor();
        let mut dets = self.bundle.detector.detect(&tensor, self.config.roi_confidence, 0.4);
        if dets.is_empty() {
            dets = self.bundle.detector.detect(&tensor, self.config.roi_confidence * 0.25, 0.4);
        }
        dets.into_iter().map(|d| d.to_annotation()).collect()
    }

    /// Generates an image conditioned on a reference item, using the
    /// item's own description as the target `G'` (the Table I protocol).
    pub fn generate<R: Rng + ?Sized>(&self, item: &DatasetItem, rng: &mut R) -> Image {
        self.generate_with(item, None, None, rng)
    }

    /// Generates an image conditioned on a reference item: encode →
    /// sample → decode. `g_prime` is the target description `G'`
    /// (viewpoint transition / night synthesis); `None` draws the item's
    /// own description. `sampler` overrides the configured DDIM sampler
    /// (guidance/step sweeps). `rng` draws `G'` (when not given), then
    /// the source caption `G`, then the initial latent.
    pub fn generate_with<R: Rng + ?Sized>(
        &self,
        item: &DatasetItem,
        g_prime: Option<&str>,
        sampler: Option<&DdimSampler>,
        rng: &mut R,
    ) -> Image {
        let g_prime = g_prime.map_or_else(|| self.caption_for(item, rng), str::to_string);
        let caption_g = self.caption_for(item, rng);
        let cond = self.encode_task(&TaskSpec::text(item, &caption_g, &g_prime));
        let sampler = sampler.copied().unwrap_or_else(|| {
            DdimSampler::new(self.config.diffusion.ddim_steps, self.config.diffusion.guidance_scale)
        });
        let row = SampleRow { cond: &cond, rng, pin: None };
        self.decode_latent(&self.sample_batch(&sampler, vec![row], None, StepSink::none()))
    }

    /// The per-sample latent geometry `[channels, side, side]`.
    pub fn latent_shape(&self) -> [usize; 3] {
        let latent_side = self.config.vision.image_size / 4;
        [LATENT_CHANNELS, latent_side, latent_side]
    }

    /// Lowers a task to its conditioning inputs: the image the condition
    /// network sees, the source caption `G`, the target description `G'`,
    /// and the region set for the feature-augmentation branch.
    ///
    /// Text-to-image reproduces the pre-task conditioning exactly
    /// (reference render + detector ROIs). View translation warps the
    /// source through the homography prior before region proposal;
    /// inpainting passes the request's keypoint boxes as the regions
    /// directly; super-resolution resizes the base up to the pipeline's
    /// native resolution. The image-conditioned captions come from
    /// [`aero_text::task::task_caption`] and are pure functions of the
    /// task, keeping the encode stage cacheable.
    pub fn condition_source(&self, task: &TaskSpec) -> ConditionSource {
        match task {
            TaskSpec::TextToImage { reference, caption_g, prompt } => ConditionSource {
                image: reference.rendered.image.clone(),
                caption_g: caption_g.clone(),
                g_prime: prompt.clone(),
                rois: self.propose_rois(&reference.rendered.image),
            },
            TaskSpec::ViewTranslation { source, homography, prompt } => {
                let warped = source.warp(homography);
                let rois = self.propose_rois(&warped);
                ConditionSource {
                    caption_g: task_caption(&TaskCaption::ViewTranslation, prompt),
                    g_prime: prompt.clone(),
                    image: warped,
                    rois,
                }
            }
            TaskSpec::Inpaint { source, regions, prompt } => {
                let labels: Vec<ObjectClass> = regions.iter().map(|r| r.class).collect();
                ConditionSource {
                    image: source.clone(),
                    caption_g: task_caption(&TaskCaption::Inpaint { labels: &labels }, prompt),
                    g_prime: prompt.clone(),
                    rois: regions.clone(),
                }
            }
            TaskSpec::SuperResolve { base, prompt } => {
                let s = self.config.vision.image_size;
                let resized = if (base.width(), base.height()) == (s, s) {
                    base.clone()
                } else {
                    base.resize(s, s)
                };
                let rois = self.propose_rois(&resized);
                ConditionSource {
                    caption_g: task_caption(&TaskCaption::SuperResolve, prompt),
                    g_prime: prompt.clone(),
                    image: resized,
                    rois,
                }
            }
        }
    }

    /// Encode stage: the `[1, cond_dim]` condition vector for a task.
    /// Deterministic in the task's inputs — the serving runtime caches
    /// the result per (kind, prompt, source digest).
    pub fn encode_task(&self, task: &TaskSpec) -> Tensor {
        let _span = span!("pipeline.encode_task");
        let source = self.condition_source(task);
        let inputs = [ConditionInputs {
            image: &source.image,
            tokens_g: self.bundle.tokenizer.encode(&source.caption_g),
            tokens_g_prime: self.bundle.tokenizer.encode(&source.g_prime),
            rois: &source.rois,
        }];
        aero_nn::no_grad(|| self.condition.build_batch(&self.bundle.clip, &inputs)).to_tensor()
    }

    /// The `[1, c, h, w]` diffusion-space latent of one native-resolution
    /// image (the inpainting reference the sampler pins to).
    ///
    /// # Panics
    ///
    /// Panics when the image is not at the pipeline's native resolution.
    pub fn encode_image_latent(&self, image: &Image) -> Tensor {
        let s = self.config.vision.image_size;
        assert_eq!(
            (image.width(), image.height()),
            (s, s),
            "latent encoding expects a {s}x{s} image"
        );
        self.bundle.vae.encode_tensor(&image.to_tensor().reshape(&[1, 3, s, s]))
    }

    /// The `[1, c, h, w]` re-denoise mask for a set of keypoint boxes:
    /// `1.0` on latent cells whose decoded pixel block intersects any
    /// box (free to change), `0.0` elsewhere (pinned to the source).
    pub fn latent_mask(&self, regions: &[Annotation]) -> Tensor {
        let [c, h, w] = self.latent_shape();
        let cell = (self.config.vision.image_size / w) as f32;
        let mut mask = vec![0.0f32; c * h * w];
        for ly in 0..h {
            for lx in 0..w {
                let (px0, py0) = (lx as f32 * cell, ly as f32 * cell);
                let (px1, py1) = (px0 + cell, py0 + cell);
                let hit = regions.iter().any(|r| {
                    r.bbox.x0 < px1 && r.bbox.x1 > px0 && r.bbox.y0 < py1 && r.bbox.y1 > py0
                });
                if hit {
                    for ch in 0..c {
                        mask[ch * h * w + ly * w + lx] = 1.0;
                    }
                }
            }
        }
        Tensor::from_vec(mask, &[1, c, h, w])
    }

    /// The inpainting pin parts of a task: the `(mask, reference)`
    /// pair, both `[1, c, h, w]` — the keypoint boxes' writable cells and
    /// the source's latent. `None` for every other task kind. Pure in the
    /// task; the pin noise is drawn later, from the row's rng, by
    /// [`Self::sample_batch`].
    pub fn pin_parts(&self, task: &TaskSpec) -> Option<(Tensor, Tensor)> {
        match task {
            TaskSpec::Inpaint { source, regions, .. } => {
                Some((self.latent_mask(regions), self.encode_image_latent(source)))
            }
            _ => None,
        }
    }

    /// Runs one task end to end — encode, sample (with the inpainting
    /// pin when the task calls for one), decode — deterministically in
    /// `(task, sampler, seed)`. The serving batcher samples the same row
    /// through the same [`Self::sample_batch`], which is what makes a
    /// coalesced heterogeneous batch row-identical to batch-1 runs.
    pub fn run_task(
        &self,
        task: &TaskSpec,
        sampler: &DdimSampler,
        seed: u64,
        sink: StepSink<'_>,
    ) -> Image {
        let cond = self.encode_task(task);
        let mut rng = StdRng::seed_from_u64(seed);
        let row = SampleRow { cond: &cond, rng: &mut rng, pin: self.pin_parts(task) };
        self.decode_latent(&self.sample_batch(sampler, vec![row], None, sink))
    }

    /// Two-stage super-resolution cascade (RSDiff-style): a
    /// text-to-image draft at half the DDIM budget is downscaled to half
    /// resolution, then that base conditions a full-budget
    /// [`TaskSpec::SuperResolve`] denoise at native resolution. Both
    /// stages report into the same `sink` — the observer handle reborrows
    /// per stage, so one streaming callback sees the whole cascade.
    pub fn super_res_cascade(
        &self,
        reference: &DatasetItem,
        prompt: &str,
        sampler: &DdimSampler,
        seed: u64,
        mut sink: StepSink<'_>,
    ) -> Image {
        let caption_g = self.caption_for(reference, &mut StdRng::seed_from_u64(0));
        let draft_sampler = DdimSampler::new((sampler.steps / 2).max(1), sampler.guidance_scale);
        let draft_task = TaskSpec::text(reference, &caption_g, prompt);
        let draft = self.run_task(&draft_task, &draft_sampler, seed, sink.stage());
        let s = self.config.vision.image_size;
        let base = draft.resize((s / 2).max(1), (s / 2).max(1));
        let task = TaskSpec::superres(base, prompt);
        self.run_task(&task, sampler, seed.wrapping_add(1), sink.stage())
    }

    /// Sample stage: one deterministic DDIM run over a batch of rows,
    /// returning the `[n, c, h, w]` latents. Each row draws its initial
    /// latent and then (when it pins) its pin noise from its own rng, so
    /// a row samples the same bytes in any batch as alone. Rows without
    /// pin parts get a neutral pin row (an all-writable mask), which the
    /// sampler leaves bitwise untouched; when no row pins, the run has no
    /// pin at all. `cancel` is checked between steps (the partial latent
    /// of the last completed step comes back once it trips) and `sink`
    /// observes every step; neither perturbs the sampled tensor.
    pub fn sample_batch<R: Rng + ?Sized>(
        &self,
        sampler: &DdimSampler,
        rows: Vec<SampleRow<'_, R>>,
        cancel: Option<&dyn CancelSignal>,
        mut sink: StepSink<'_>,
    ) -> Tensor {
        let _span = span!("pipeline.sample_latents");
        let [c, h, w] = self.latent_shape();
        let shape = [1, c, h, w];
        let any_pin = rows.iter().any(|row| row.pin.is_some());
        let (mut conds, mut z_init) = (Vec::new(), Vec::new());
        let (mut masks, mut refs, mut noise) = (Vec::new(), Vec::new(), Vec::new());
        for row in rows {
            conds.push(row.cond);
            z_init.push(Tensor::randn(&shape, row.rng));
            if any_pin {
                let (mask, reference, pin_noise) = match row.pin {
                    Some((mask, reference)) => (mask, reference, Tensor::randn(&shape, row.rng)),
                    None => (
                        Tensor::full(&shape, 1.0),
                        Tensor::full(&shape, 0.0),
                        Tensor::full(&shape, 0.0),
                    ),
                };
                masks.push(mask);
                refs.push(reference);
                noise.push(pin_noise);
            }
        }
        let pin =
            any_pin.then(|| LatentPin::new(stack_rows(masks), stack_rows(refs), stack_rows(noise)));
        let stacked;
        let cond = if let [cond] = conds[..] {
            cond
        } else {
            stacked = Tensor::concat(&conds, 0);
            &stacked
        };
        let mut opts = SampleOptions::from_latent(stack_rows(z_init)).with_cond(cond);
        opts.cancel = cancel;
        opts.on_step = sink.stage().into_on_step();
        opts.pin = pin.as_ref();
        Sampler::Ddim(*sampler).run(&self.unet, self.trainer.schedule(), opts)
    }

    /// Decode stage: one latent `[c, h, w]` (or `[1, c, h, w]`) through
    /// the VAE to an image.
    pub fn decode_latent(&self, z: &Tensor) -> Image {
        let _span = span!("pipeline.decode_latent");
        let [c, h, w] = self.latent_shape();
        let decoded = self.bundle.vae.decode_tensor(&z.reshape(&[1, c, h, w]));
        let s = self.config.vision.image_size;
        Image::from_tensor(&decoded.reshape(&[3, s, s]))
    }

    /// Generates one image per evaluation item.
    pub fn generate_eval<R: Rng + ?Sized>(&self, eval: &AerialDataset, rng: &mut R) -> Vec<Image> {
        eval.iter().map(|item| self.generate(item, rng)).collect()
    }

    /// The caption this pipeline's provider/prompt produces for an item.
    pub fn caption_for<R: Rng + ?Sized>(&self, item: &DatasetItem, rng: &mut R) -> String {
        let llm = SimulatedLlm::new(self.provider);
        llm.describe(&item.spec, &self.variant.prompt(), rng)
    }

    /// CLIP score of generated images against their target captions.
    pub fn clip_score(&self, images: &[Image], captions: &[String]) -> f32 {
        let tensors: Vec<Tensor> = images.iter().map(Image::to_tensor).collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let batch = Tensor::stack(&refs);
        let tokens: Vec<Vec<usize>> =
            captions.iter().map(|c| self.bundle.tokenizer.encode(c)).collect();
        self.bundle.clip.clip_score(&batch, &tokens)
    }

    /// The trained substrate bundle.
    pub fn bundle(&self) -> &SubstrateBundle {
        &self.bundle
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The caption provider the pipeline was trained with.
    pub fn provider(&self) -> LlmProvider {
        self.provider
    }

    /// The ablation variant the pipeline was trained as.
    pub fn variant(&self) -> AblationVariant {
        self.variant
    }

    /// The simulated LLM used for target descriptions.
    pub fn llm(&self) -> SimulatedLlm {
        SimulatedLlm::new(self.provider)
    }

    /// The raw condition vector the pipeline would use for an item (with
    /// `G' = G`) — exposed for diagnostics and analysis.
    pub fn condition_vector(&self, item: &DatasetItem) -> Tensor {
        let caption = self.caption_for(item, &mut StdRng::seed_from_u64(0));
        self.encode_task(&TaskSpec::text(item, &caption, &caption))
    }

    /// Builds a trained pipeline from its parts: the untrained skeleton
    /// for `config` around the rebuilt vocabulary, then each module's
    /// weights in [`MODULE_NAMES`](crate::MODULE_NAMES) order and the
    /// latent scale. The one constructor behind `snapshot` and every saved
    /// or exported model.
    ///
    /// # Errors
    ///
    /// [`ModelError::Meta`] if the vocabulary does not rebuild with the
    /// same ids, [`ModelError::Corrupt`] if a module's tensors do not fit
    /// its parameters in number or shape.
    pub(crate) fn from_weights<S: AsRef<str>>(
        config: PipelineConfig,
        meta: &PipelineMeta,
        vocab: &[S],
        modules: [Vec<Tensor>; 5],
    ) -> Result<Self, ModelError> {
        let tokenizer = Tokenizer::new(vocab_from_words(vocab)?, meta.max_len);
        let bundle = SubstrateBundle::new_untrained(tokenizer, &config, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut pipeline = Self::assemble(config, bundle, meta.provider, meta.variant, &mut rng);
        for (params, tensors) in pipeline.module_params().iter().zip(modules) {
            load_into_params(params, tensors)?;
        }
        pipeline.bundle.vae.set_latent_scale(meta.latent_scale);
        Ok(pipeline)
    }

    /// The dataset-independent state a saved model or a snapshot carries.
    pub fn meta(&self) -> PipelineMeta {
        PipelineMeta {
            max_len: self.bundle.tokenizer.max_len(),
            latent_scale: self.bundle.vae.latent_scale(),
            provider: self.provider,
            variant: self.variant,
        }
    }

    /// The vocabulary words in id order.
    pub fn vocab_words(&self) -> Vec<&str> {
        let vocab = self.bundle.tokenizer.vocab();
        (0..vocab.len()).map(|id| vocab.word(id)).collect()
    }

    /// The prompt template in use.
    pub fn prompt(&self) -> PromptTemplate {
        self.variant.prompt()
    }
}

/// Rebuilds a [`Vocabulary`] with identical ids from its word list: the
/// non-special words are fed with descending artificial frequency so
/// `Vocabulary::build` preserves order.
fn vocab_from_words<S: AsRef<str>>(words: &[S]) -> Result<Vocabulary, ModelError> {
    if words.len() < 4 {
        return Err(ModelError::Meta("vocabulary too short".into()));
    }
    let mut corpus = String::new();
    let content = &words[4..];
    for (i, w) in content.iter().enumerate() {
        for _ in 0..(content.len() - i) {
            corpus.push_str(w.as_ref());
            corpus.push(' ');
        }
    }
    let vocab = Vocabulary::build([corpus.as_str()], 1);
    // sanity: ids must round-trip
    for (i, w) in words.iter().enumerate() {
        if vocab.word(i) != w.as_ref() {
            return Err(ModelError::Meta(format!(
                "vocabulary order not reproducible at id {i}: {:?} vs {:?}",
                w.as_ref(),
                vocab.word(i)
            )));
        }
    }
    Ok(vocab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};

    fn tiny_dataset(n: usize) -> AerialDataset {
        build_dataset(&DatasetConfig {
            n_scenes: n,
            image_size: PipelineConfig::smoke().vision.image_size,
            seed: 21,
            generator: SceneGeneratorConfig {
                min_objects: 4,
                max_objects: 8,
                night_probability: 0.2,
            },
        })
    }

    /// Paper-default options with checkpoints and a step bound.
    fn checkpointed(checkpoint: &CheckpointConfig, max_steps: Option<u64>) -> FitOptions {
        FitOptions { checkpoint: Some(checkpoint.clone()), max_steps, ..FitOptions::default() }
    }

    #[test]
    fn fit_and_generate_smoke() {
        let ds = tiny_dataset(5);
        let pipeline = AeroDiffusionPipeline::fit(&ds, PipelineConfig::smoke(), 3);
        let mut rng = StdRng::seed_from_u64(4);
        let img = pipeline.generate(&ds.items[0], &mut rng);
        let s = pipeline.config().vision.image_size;
        assert_eq!((img.width(), img.height()), (s, s));
        let t = img.to_tensor();
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
        assert!(t.min() >= 0.0 && t.max() <= 1.0);
    }

    #[test]
    fn generation_responds_to_g_prime() {
        let ds = tiny_dataset(5);
        let pipeline = AeroDiffusionPipeline::fit(&ds, PipelineConfig::smoke(), 5);
        let item = &ds.items[0];
        let a = pipeline.generate_with(
            item,
            Some("a daytime aerial image of a busy highway"),
            None,
            &mut StdRng::seed_from_u64(9),
        );
        let b = pipeline.generate_with(
            item,
            Some("a nighttime aerial image of a tranquil park"),
            None,
            &mut StdRng::seed_from_u64(9),
        );
        let diff = a.to_tensor().sub(&b.to_tensor()).abs().max();
        assert!(diff > 1e-6, "target description must steer generation");
    }

    #[test]
    fn vocabulary_rebuilds_with_identical_ids() {
        let vocab = Vocabulary::build(["the car drives past the tree on the road"], 1);
        let words: Vec<&str> = (0..vocab.len()).map(|id| vocab.word(id)).collect();
        let rebuilt = vocab_from_words(&words).unwrap();
        for id in 0..vocab.len() {
            assert_eq!(rebuilt.word(id), vocab.word(id), "id {id}");
        }
        assert!(matches!(vocab_from_words(&words[..3]), Err(ModelError::Meta(_))));
    }

    #[test]
    fn checkpointed_fit_resumes_bit_identically_after_a_kill() {
        use aero_nn::Module;
        let ds = tiny_dataset(4);
        // Smoke defaults yield 2 joint steps; widen to 8 (4 epochs × 2
        // chunks) so a kill can land mid-epoch between checkpoints.
        let mut config = PipelineConfig::smoke();
        config.diffusion_epochs = 4;
        config.diffusion_batch_size = 2;
        let params_of = |p: &AeroDiffusionPipeline| -> Vec<Vec<f32>> {
            p.unet.params().iter().map(|v| v.to_tensor().as_slice().to_vec()).collect()
        };
        let fresh = |name: &str| {
            let dir = std::env::temp_dir().join(format!("aero_fit_ckpt_{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            CheckpointConfig::new(dir, 2)
        };

        let reference_ckpt = fresh("reference");
        let (reference, ref_report) =
            AeroDiffusionPipeline::fit_with(&ds, config, 13, &checkpointed(&reference_ckpt, None))
                .unwrap();
        assert!(ref_report.completed);
        assert!(ref_report.steps > 3, "need enough steps to kill mid-run");

        let ckpt = fresh("killed");
        let (_, killed) =
            AeroDiffusionPipeline::fit_with(&ds, config, 13, &checkpointed(&ckpt, Some(3)))
                .unwrap();
        assert!(!killed.completed);

        let (resumed, report) =
            AeroDiffusionPipeline::fit_with(&ds, config, 13, &checkpointed(&ckpt, None)).unwrap();
        assert_eq!(report.resumed_from, Some(2), "newest checkpoint before the kill");
        assert!(report.completed);
        assert_eq!(report.steps, ref_report.steps);
        assert_eq!(
            params_of(&resumed),
            params_of(&reference),
            "resumed fit must land on the uninterrupted trajectory"
        );
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_across_thread_count_change() {
        // A worker killed on a 1-thread host and resumed on a wider one
        // must land on the uninterrupted trajectory exactly: the sharded
        // kernels are bit-identical at any width, so checkpoint resume
        // composes with thread-policy changes for free.
        use aero_nn::Module;
        use aero_tensor::parallel::with_threads;
        let ds = tiny_dataset(4);
        let config = PipelineConfig::smoke();
        let bits_of = |p: &AeroDiffusionPipeline| -> Vec<Vec<u32>> {
            p.unet
                .params()
                .iter()
                .map(|v| v.to_tensor().as_slice().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let fresh = |name: &str| {
            let dir = std::env::temp_dir().join(format!("aero_fit_ckpt_{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            CheckpointConfig::new(dir, 1)
        };

        let (reference, ref_report) = with_threads(1, || {
            AeroDiffusionPipeline::fit_with(
                &ds,
                config,
                23,
                &checkpointed(&fresh("threads_ref"), None),
            )
        })
        .unwrap();
        assert!(ref_report.completed);
        assert!(ref_report.steps > 1, "need at least two steps to kill between");

        let ckpt = fresh("threads_kill");
        let (_, killed) = with_threads(1, || {
            AeroDiffusionPipeline::fit_with(&ds, config, 23, &checkpointed(&ckpt, Some(1)))
        })
        .unwrap();
        assert!(!killed.completed);

        let (resumed, report) = with_threads(4, || {
            AeroDiffusionPipeline::fit_with(&ds, config, 23, &checkpointed(&ckpt, None))
        })
        .unwrap();
        assert_eq!(report.resumed_from, Some(1));
        assert!(report.completed);
        assert_eq!(report.steps, ref_report.steps);
        assert_eq!(
            bits_of(&resumed),
            bits_of(&reference),
            "resume under a different thread count must stay bit-identical"
        );
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_across_backend_change() {
        // The compute backend is a per-process performance knob, not part
        // of a run's identity: checkpoints persist weights, optimizer
        // state, the RNG, and the batch cursor — never the backend. A run
        // checkpointed under the `Reference` oracle and resumed under the
        // `Blocked` microkernels (and vice versa) must land on the exact
        // uninterrupted trajectory, because both backends are bitwise
        // identical and nothing backend-specific is persisted.
        use aero_nn::Module;
        use aero_tensor::backend::{with_backend, BackendKind};
        let ds = tiny_dataset(4);
        let config = PipelineConfig::smoke();
        let bits_of = |p: &AeroDiffusionPipeline| -> Vec<Vec<u32>> {
            p.unet
                .params()
                .iter()
                .map(|v| v.to_tensor().as_slice().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let fresh = |name: &str| {
            let dir = std::env::temp_dir().join(format!("aero_fit_ckpt_{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            CheckpointConfig::new(dir, 1)
        };
        let fit = |ckpt: &CheckpointConfig, kill: Option<u64>| {
            AeroDiffusionPipeline::fit_with(&ds, config, 29, &checkpointed(ckpt, kill)).unwrap()
        };

        let (reference, ref_report) =
            with_backend(BackendKind::Reference, || fit(&fresh("backend_ref"), None));
        assert!(ref_report.completed);
        assert!(ref_report.steps > 1, "need at least two steps to kill between");
        let expect = bits_of(&reference);

        // Reference → Blocked.
        let ckpt = fresh("backend_r2b");
        let (_, killed) = with_backend(BackendKind::Reference, || fit(&ckpt, Some(1)));
        assert!(!killed.completed);
        let (resumed, report) = with_backend(BackendKind::Blocked, || fit(&ckpt, None));
        assert_eq!(report.resumed_from, Some(1));
        assert!(report.completed);
        assert_eq!(report.steps, ref_report.steps);
        assert_eq!(
            bits_of(&resumed),
            expect,
            "Reference-checkpointed run resumed under Blocked must stay bit-identical"
        );

        // Blocked → Reference.
        let ckpt = fresh("backend_b2r");
        let (_, killed) = with_backend(BackendKind::Blocked, || fit(&ckpt, Some(1)));
        assert!(!killed.completed);
        let (resumed, report) = with_backend(BackendKind::Reference, || fit(&ckpt, None));
        assert_eq!(report.resumed_from, Some(1));
        assert!(report.completed);
        assert_eq!(report.steps, ref_report.steps);
        assert_eq!(
            bits_of(&resumed),
            expect,
            "Blocked-checkpointed run resumed under Reference must stay bit-identical"
        );
    }

    #[test]
    fn clip_score_runs_on_generated_batch() {
        let ds = tiny_dataset(4);
        let pipeline = AeroDiffusionPipeline::fit(&ds, PipelineConfig::smoke(), 6);
        let mut rng = StdRng::seed_from_u64(7);
        let images = pipeline.generate_eval(&ds, &mut rng);
        let captions: Vec<String> =
            ds.iter().map(|i| pipeline.caption_for(i, &mut StdRng::seed_from_u64(0))).collect();
        let score = pipeline.clip_score(&images, &captions);
        assert!(score.is_finite());
    }
}
