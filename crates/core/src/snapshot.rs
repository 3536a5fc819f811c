//! In-memory snapshots of trained pipelines.
//!
//! [`AeroDiffusionPipeline`] weights live in `aero-nn` autograd handles,
//! which are `Send + Sync`: several threads can read one pipeline's
//! weights at once (the DDIM sampler runs the two passes of a guided step
//! on two threads over one UNet). A [`PipelineSnapshot`] captures
//! everything a replica needs — configuration, metadata, the vocabulary,
//! and every module's weights in the `aero-nn` binary codec — as plain
//! owned bytes, the form model artifacts export and hot-swaps install.
//! The serving worker pool shares one snapshot behind an `Arc` and each
//! worker hydrates its own replica from it, the standard
//! immutable-weights/many-replicas deployment shape.

use crate::ablation::AblationVariant;
use crate::config::PipelineConfig;
use crate::persist::{vocab_from_words, PersistError, PipelineMeta};
use crate::pipeline::AeroDiffusionPipeline;
use crate::substrate::SubstrateBundle;
use aero_nn::serialize::{decode_tensors, encode_params, load_into_params, LoadWeightsError};
use aero_nn::Var;
use aero_tensor::parallel::{self, ParallelConfig};
use aero_text::llm::LlmProvider;
use aero_text::tokenizer::Tokenizer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A dependency-free, thread-safe copy of a trained pipeline's state.
///
/// Besides weights and configuration, a snapshot carries the
/// [`ParallelConfig`] that was active when it was captured, so serving
/// workers hydrating replicas run the tensor kernels under the same
/// thread policy and compute backend as the training process. The
/// policy is purely a performance knob — kernel outputs are
/// bit-identical at any thread count and under either backend — so
/// replicas stay byte-identical either way; carrying it just keeps the
/// deployment's performance behaviour uniform.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSnapshot {
    config: PipelineConfig,
    meta: PipelineMeta,
    parallel: ParallelConfig,
    vocab: Vec<String>,
    clip: Vec<u8>,
    vae: Vec<u8>,
    detector: Vec<u8>,
    condition: Vec<u8>,
    unet: Vec<u8>,
}

fn params_bytes(params: &[Var]) -> Vec<u8> {
    encode_params(params).to_vec()
}

fn restore(params: &[Var], blob: &[u8]) -> Result<(), LoadWeightsError> {
    load_into_params(params, decode_tensors(blob)?)
}

/// The five weight-carrying modules of a snapshot, in the order
/// [`PipelineSnapshot::module_blobs`] yields them and
/// [`PipelineSnapshot::from_parts`] expects them.
pub const MODULE_NAMES: [&str; 5] = ["clip", "vae", "detector", "condition", "unet"];

impl PipelineSnapshot {
    /// The configuration the snapshot was trained with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The dataset-independent metadata the snapshot carries.
    pub fn meta(&self) -> &PipelineMeta {
        &self.meta
    }

    /// The vocabulary words in id order.
    pub fn vocab_words(&self) -> &[String] {
        &self.vocab
    }

    /// Every module's serialized weight blob, named, in
    /// [`MODULE_NAMES`] order. This is the model-artifact export path.
    pub fn module_blobs(&self) -> [(&'static str, &[u8]); 5] {
        [
            ("clip", self.clip.as_slice()),
            ("vae", self.vae.as_slice()),
            ("detector", self.detector.as_slice()),
            ("condition", self.condition.as_slice()),
            ("unet", self.unet.as_slice()),
        ]
    }

    /// Reassembles a snapshot from its parts — the model-artifact
    /// hydration path. `modules` must be the weight blobs in
    /// [`MODULE_NAMES`] order; nothing is decoded here, so a corrupted
    /// blob surfaces later, from [`PipelineSnapshot::hydrate`], as a
    /// typed error.
    #[must_use]
    pub fn from_parts(
        config: PipelineConfig,
        meta: PipelineMeta,
        parallel: ParallelConfig,
        vocab: Vec<String>,
        modules: [Vec<u8>; 5],
    ) -> PipelineSnapshot {
        let [clip, vae, detector, condition, unet] = modules;
        PipelineSnapshot { config, meta, parallel, vocab, clip, vae, detector, condition, unet }
    }

    /// The ablation variant the snapshot was trained as.
    pub fn variant(&self) -> AblationVariant {
        self.meta.variant
    }

    /// The caption provider the snapshot was trained with.
    pub fn provider(&self) -> LlmProvider {
        self.meta.provider
    }

    /// The kernel thread policy and compute backend carried by the
    /// snapshot.
    pub fn parallel(&self) -> ParallelConfig {
        self.parallel
    }

    /// A copy carrying a different kernel thread policy or compute
    /// backend. Replicas hydrated from it generate byte-identical
    /// output regardless — this changes wall-clock behaviour only.
    #[must_use]
    pub fn with_parallel(&self, parallel: ParallelConfig) -> PipelineSnapshot {
        let mut copy = self.clone();
        copy.parallel = parallel;
        copy
    }

    /// Total size of the serialized weight blobs in bytes.
    pub fn weight_bytes(&self) -> usize {
        self.clip.len()
            + self.vae.len()
            + self.detector.len()
            + self.condition.len()
            + self.unet.len()
    }

    /// Reconstructs a working pipeline replica from the snapshot. The
    /// replica generates byte-identical output to the pipeline that was
    /// snapshotted.
    ///
    /// # Errors
    ///
    /// Fails if the stored vocabulary or a weight blob does not decode
    /// against the snapshot's own configuration (possible only if the
    /// snapshot bytes were corrupted in transit).
    pub fn hydrate(&self) -> Result<AeroDiffusionPipeline, PersistError> {
        // Adopt the snapshot's kernel thread policy and compute backend
        // on the hydrating thread: serving workers call hydrate() on
        // their own thread, so every replica runs under the policy the
        // snapshot carries.
        parallel::adopt_thread_policy(self.parallel);
        let tokenizer = Tokenizer::new(vocab_from_words(&self.vocab)?, self.meta.max_len);
        let bundle = SubstrateBundle::new_untrained(tokenizer, &self.config, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut pipeline = AeroDiffusionPipeline::assemble(
            self.config,
            bundle,
            self.meta.provider,
            self.meta.variant,
            &mut rng,
        );
        for (params, (_, blob)) in pipeline.modules().iter().zip(self.module_blobs()) {
            restore(params, blob)?;
        }
        pipeline.bundle.vae.set_latent_scale(self.meta.latent_scale);
        Ok(pipeline)
    }

    /// A copy whose UNet weight blob is truncated mid-stream — a snapshot
    /// guaranteed to fail [`PipelineSnapshot::hydrate`]. Exists for the
    /// serving fault-injection harness: worker-hydration failure paths
    /// need a realistic corrupt snapshot to exercise.
    #[must_use]
    pub fn with_truncated_unet(&self) -> PipelineSnapshot {
        let mut copy = self.clone();
        copy.unet.truncate(copy.unet.len() / 2);
        copy
    }
}

impl AeroDiffusionPipeline {
    /// Captures the trained pipeline as an owned, `Send + Sync` snapshot
    /// (see [`PipelineSnapshot`]).
    pub fn snapshot(&self) -> PipelineSnapshot {
        let vocab = self.bundle.tokenizer.vocab();
        let [clip, vae, detector, condition, unet] =
            self.modules().map(|params| params_bytes(&params));
        PipelineSnapshot {
            config: self.config,
            parallel: ParallelConfig::with_threads(parallel::active_threads()),
            meta: PipelineMeta {
                max_len: self.bundle.tokenizer.max_len(),
                latent_scale: self.bundle.vae.latent_scale(),
                provider: self.provider,
                variant: self.variant,
            },
            vocab: (0..vocab.len()).map(|id| vocab.word(id).to_string()).collect(),
            clip,
            vae,
            detector,
            condition,
            unet,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};

    fn assert_send_sync<T: Send + Sync>() {}

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
        assert!(snapshot.weight_bytes() > 0);

        // Hydrate under a *different* kernel thread policy and compute
        // backend than the one the pipeline trained with: the sharded
        // kernels are bit-exact at any width and under either backend,
        // so the replica must still match byte-for-byte.
        let swapped =
            ParallelConfig::with_threads(2).with_backend(aero_tensor::BackendKind::Reference);
        let widened = snapshot.with_parallel(swapped);
        assert_eq!(widened.parallel().threads(), 2);
        assert_eq!(widened.parallel().backend(), aero_tensor::BackendKind::Reference);
        let replica = widened.hydrate().expect("snapshot must hydrate");
        let a = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(5));
        let b = replica.generate(&ds.items[0], &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b, "replica must generate byte-identical output");
    }

    #[test]
    fn truncated_unet_snapshot_fails_hydration_typed() {
        let config = PipelineConfig::smoke();
        let ds = build_dataset(&DatasetConfig {
            n_scenes: 2,
            image_size: config.vision.image_size,
            seed: 33,
            generator: SceneGeneratorConfig::default(),
        });
        let pipeline = AeroDiffusionPipeline::fit(&ds, config, 19);
        let bad = pipeline.snapshot().with_truncated_unet();
        match bad.hydrate() {
            Err(PersistError::Weights(_)) => {}
            other => panic!("expected a typed weight failure, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_survives_a_thread_hop() {
        let config = PipelineConfig::smoke();
        let ds = build_dataset(&DatasetConfig {
            n_scenes: 2,
            image_size: config.vision.image_size,
            seed: 32,
            generator: SceneGeneratorConfig::default(),
        });
        let pipeline = AeroDiffusionPipeline::fit(&ds, config, 18);
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
}
