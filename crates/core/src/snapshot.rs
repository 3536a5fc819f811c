//! In-memory snapshots of trained pipelines.
//!
//! [`AeroDiffusionPipeline`] weights live in `aero-nn` autograd handles,
//! which are `Send + Sync`: several threads can read one pipeline's
//! weights at once (the DDIM sampler runs the two passes of a guided step
//! on two threads over one UNet). A [`PipelineSnapshot`] is one decoded
//! pipeline behind an `Arc`, plus the kernel thread policy to run it
//! under — the form model artifacts import to and export from, and the
//! model a serving runtime hands to every worker. Taking a snapshot
//! copies each weight tensor once, so further training of the source
//! pipeline never reaches it; cloning a snapshot, sending it to another
//! thread, or installing it in a serving runtime copies nothing.

use crate::ablation::AblationVariant;
use crate::config::PipelineConfig;
use crate::persist::{PersistError, PipelineMeta};
use crate::pipeline::AeroDiffusionPipeline;
use aero_nn::Var;
use aero_tensor::parallel::{self, ParallelConfig};
use aero_tensor::Tensor;
use aero_text::llm::LlmProvider;
use aero_text::tokenizer::Vocabulary;
use std::sync::Arc;

/// A thread-safe, shared, read-only trained pipeline.
///
/// Besides the model, a snapshot carries the [`ParallelConfig`] that was
/// active when it was captured, so threads running it use the same
/// kernel thread policy and compute backend as the training process.
/// The policy is purely a performance knob — kernel outputs are
/// bit-identical at any thread count and under either backend — so
/// output bytes never depend on it.
#[derive(Debug, Clone)]
pub struct PipelineSnapshot {
    pipeline: Arc<AeroDiffusionPipeline>,
    parallel: ParallelConfig,
}

/// The five weight-carrying modules of a pipeline, in the order
/// [`PipelineSnapshot::module_params`] yields them and
/// [`PipelineSnapshot::from_weights`] expects them.
pub const MODULE_NAMES: [&str; 5] = ["clip", "vae", "detector", "condition", "unet"];

/// A vocabulary's words in id order.
fn words_of(vocab: &Vocabulary) -> Vec<&str> {
    (0..vocab.len()).map(|id| vocab.word(id)).collect()
}

impl PipelineSnapshot {
    /// Builds a snapshot from a trained pipeline's parts — the
    /// model-artifact import path. `modules` holds each module's weight
    /// tensors in [`MODULE_NAMES`] order.
    ///
    /// # Errors
    ///
    /// [`PersistError::Meta`] if the vocabulary does not rebuild with the
    /// same ids, [`PersistError::Weights`] if a module's tensors do not
    /// fit its parameters in number or shape.
    pub fn from_weights<S: AsRef<str>>(
        config: PipelineConfig,
        meta: &PipelineMeta,
        parallel: ParallelConfig,
        vocab: &[S],
        modules: [Vec<Tensor>; 5],
    ) -> Result<PipelineSnapshot, PersistError> {
        let pipeline = AeroDiffusionPipeline::from_weights(config, meta, vocab, modules)?;
        Ok(PipelineSnapshot { pipeline: Arc::new(pipeline), parallel })
    }

    /// The configuration the snapshot was trained with.
    pub fn config(&self) -> &PipelineConfig {
        self.pipeline.config()
    }

    /// The dataset-independent metadata the snapshot carries.
    pub fn meta(&self) -> PipelineMeta {
        self.pipeline.meta()
    }

    /// The vocabulary words in id order.
    pub fn vocab_words(&self) -> Vec<&str> {
        words_of(self.pipeline.bundle.tokenizer.vocab())
    }

    /// Every module's parameters in [`MODULE_NAMES`] order: the
    /// model-artifact export path reads each weight tensor through
    /// [`Var::value`]. The parameters are the snapshot's own, shared by
    /// every clone of it.
    pub fn module_params(&self) -> [Vec<Var>; 5] {
        self.pipeline.modules()
    }

    /// The ablation variant the snapshot was trained as.
    pub fn variant(&self) -> AblationVariant {
        self.pipeline.variant()
    }

    /// The caption provider the snapshot was trained with.
    pub fn provider(&self) -> LlmProvider {
        self.pipeline.provider()
    }

    /// The kernel thread policy and compute backend carried by the
    /// snapshot.
    pub fn parallel(&self) -> ParallelConfig {
        self.parallel
    }

    /// The same model under a different kernel thread policy or compute
    /// backend. It generates byte-identical output regardless — this
    /// changes wall-clock behaviour only.
    #[must_use]
    pub fn with_parallel(&self, parallel: ParallelConfig) -> PipelineSnapshot {
        PipelineSnapshot { pipeline: Arc::clone(&self.pipeline), parallel }
    }

    /// The shared pipeline, without touching the calling thread's kernel
    /// policy. Clone the `Arc` to keep the model alive past the snapshot.
    pub fn pipeline(&self) -> &Arc<AeroDiffusionPipeline> {
        &self.pipeline
    }

    /// Adopts the snapshot's kernel thread policy and compute backend on
    /// the calling thread and hands out the shared pipeline.
    ///
    /// # Errors
    ///
    /// None: nothing is decoded or copied. The `Result` is the signature
    /// the benchmark's layer prober (`aerobench_layers`) calls.
    pub fn hydrate(&self) -> Result<Arc<AeroDiffusionPipeline>, PersistError> {
        parallel::adopt_thread_policy(self.parallel);
        Ok(Arc::clone(&self.pipeline))
    }
}

impl AeroDiffusionPipeline {
    /// Captures the trained pipeline as a `Send + Sync` snapshot (see
    /// [`PipelineSnapshot`]). Each weight tensor is copied once, so the
    /// snapshot shares no parameter with this pipeline: training it
    /// further, or assigning to its parameters, leaves the snapshot
    /// generating what it generated when it was taken.
    ///
    /// # Panics
    ///
    /// Never for a pipeline built by this crate: its own vocabulary and
    /// weights always fit its own configuration.
    pub fn snapshot(&self) -> PipelineSnapshot {
        let modules = self.modules().map(|params| params.iter().map(Var::to_tensor).collect());
        PipelineSnapshot::from_weights(
            self.config,
            &self.meta(),
            ParallelConfig::with_threads(parallel::active_threads()),
            &words_of(self.bundle.tokenizer.vocab()),
            modules,
        )
        .expect("a pipeline's own vocabulary and weights fit its configuration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_scene::{build_dataset, AerialDataset, DatasetConfig, SceneGeneratorConfig};
    use aero_tensor::BackendKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_send_sync<T: Send + Sync>() {}

    /// A smoke pipeline trained on two default scenes.
    fn fitted(data_seed: u64, fit_seed: u64) -> (AerialDataset, AeroDiffusionPipeline) {
        let config = PipelineConfig::smoke();
        let ds = build_dataset(&DatasetConfig {
            n_scenes: 2,
            image_size: config.vision.image_size,
            seed: data_seed,
            generator: SceneGeneratorConfig::default(),
        });
        let pipeline = AeroDiffusionPipeline::fit(&ds, config, fit_seed);
        (ds, pipeline)
    }

    #[test]
    fn snapshot_is_thread_safe() {
        assert_send_sync::<PipelineSnapshot>();
    }

    #[test]
    fn hydrated_replica_generates_identically() {
        let config = PipelineConfig::smoke();
        let ds = build_dataset(&DatasetConfig {
            n_scenes: 3,
            image_size: config.vision.image_size,
            seed: 31,
            generator: SceneGeneratorConfig {
                min_objects: 4,
                max_objects: 6,
                night_probability: 0.0,
            },
        });
        let pipeline = AeroDiffusionPipeline::fit(&ds, config, 17);
        let snapshot = pipeline.snapshot();
        assert!(snapshot.module_params().iter().all(|params| !params.is_empty()));

        // Run the snapshot under a *different* kernel thread policy and
        // compute backend than the one the pipeline trained with: the
        // sharded kernels are bit-exact at any width and under either
        // backend, so the output must still match byte-for-byte.
        let swapped = ParallelConfig::with_threads(2).with_backend(BackendKind::Reference);
        let widened = snapshot.with_parallel(swapped);
        assert_eq!(widened.parallel().threads(), 2);
        assert_eq!(widened.parallel().backend(), BackendKind::Reference);
        let replica = widened.hydrate().expect("snapshot must hydrate");
        let a = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(5));
        let b = replica.generate(&ds.items[0], &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b, "snapshot must generate byte-identical output");
    }

    #[test]
    fn snapshot_survives_a_thread_hop() {
        let (ds, pipeline) = fitted(32, 18);
        let snapshot = pipeline.snapshot();
        let expect = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(9));
        let item = ds.items[0].clone();
        let got = std::thread::spawn(move || {
            let replica = snapshot.hydrate().expect("hydrate on worker thread");
            replica.generate(&item, &mut StdRng::seed_from_u64(9))
        })
        .join()
        .expect("worker thread");
        assert_eq!(expect, got);
    }

    #[test]
    fn snapshot_keeps_its_weights_when_the_source_changes() {
        let (ds, pipeline) = fitted(33, 19);
        let snapshot = pipeline.snapshot();
        let before = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(4));
        for param in pipeline.modules().iter().flatten() {
            param.assign(Tensor::zeros(&param.shape()));
        }
        let zeroed = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(4));
        assert_ne!(zeroed, before, "zeroing the source's weights must change its output");
        let replica = snapshot.hydrate().expect("snapshot hydrates");
        let after = replica.generate(&ds.items[0], &mut StdRng::seed_from_u64(4));
        assert_eq!(after, before, "the snapshot must keep the weights it was taken with");
    }
}
