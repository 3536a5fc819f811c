//! Saved models, pipeline export and import, and the quantization-error
//! report.
//!
//! A pipeline is written as one container file (see
//! [`aero_nn::artifact`]): its configuration (exact, via the bit-pattern
//! `key=value` codec), metadata and vocabulary land in the key/value
//! section, and every module's weight tensors land in the tensor table as
//! `<module>.<index>` entries, either dense (`f32`) or block-quantized
//! (`q8`). This module is the only place that knows those keys and
//! names, and one decoder reads them back for both [`load`] and
//! [`snapshot_from_artifact`]. Both directions move tensors directly
//! between the artifact and a pipeline's parameters: import builds the
//! model once, where the bytes come in, and a tensor that does not fit
//! its module fails there, typed.
//!
//! A saved model is a directory holding one `f32` artifact,
//! [`MODEL_FILE`]. [`save`] writes it straight from a trained pipeline's
//! parameters; [`load`] reads it back for a `--scale` preset, refusing a
//! file saved with another configuration before anything is built.
//! `model export` of a saved model without `--q8` writes the same bytes.
//!
//! Export is **byte-stable**: metadata keys are sorted, tensor order is
//! the fixed module order, and quantization is deterministic — the same
//! weights always render the identical artifact bytes. Nothing about the
//! host (thread count, compute backend) is stored: an imported model
//! runs under the importing process's active thread policy.
//!
//! Quantized exports also produce a [`QuantReport`] with per-layer
//! max/mean absolute reconstruction error, published to `aero_obs`
//! gauges (`model.quant.*`); [`quality_delta`] extends that to an
//! end-to-end comparison (FID and CLIP score of the q8 pipeline against
//! its f32 original over a synthetic eval split).

use aero_metrics::{fid, FeatureExtractor};
use aero_nn::artifact::{ArtifactBuilder, ModelArtifact, ModelError};
use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aero_tensor::parallel::{self, ParallelConfig};
use aero_tensor::{Q8Tensor, Tensor};
use aerodiffusion::lint::{catch_build, check_pipeline};
use aerodiffusion::{
    AblationVariant, AeroDiffusionPipeline, LlmProvider, PipelineConfig, PipelineMeta,
    PipelineSnapshot, MODULE_NAMES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::Path;

/// The file a saved model directory keeps its weights in.
pub const MODEL_FILE: &str = "model.amdl";

/// How weight tensors are stored in an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantization {
    /// Exact `f32` storage; round trips are byte-identical.
    F32,
    /// Block-quantized q8 (~28% of the `f32` size, bounded per-element
    /// error).
    Q8,
}

impl Quantization {
    /// The stable metadata tag (`"f32"` / `"q8"`).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Quantization::F32 => "f32",
            Quantization::Q8 => "q8",
        }
    }

    /// Parses a [`Quantization::tag`].
    ///
    /// # Errors
    ///
    /// [`ModelError::Meta`] on an unknown tag.
    pub fn parse(tag: &str) -> Result<Quantization, ModelError> {
        match tag {
            "f32" => Ok(Quantization::F32),
            "q8" => Ok(Quantization::Q8),
            other => Err(ModelError::Meta(format!("unknown quantization {other}"))),
        }
    }
}

/// Reconstruction error of one quantized layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerError {
    /// Tensor name (`<module>.<index>`).
    pub name: String,
    /// Element count of the layer.
    pub numel: usize,
    /// Worst-case absolute dequantization error.
    pub max_abs_error: f32,
    /// Mean absolute dequantization error.
    pub mean_abs_error: f32,
}

/// The export-time quantization report.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantReport {
    /// Storage mode of the export.
    pub quantization: Quantization,
    /// Per-layer reconstruction errors (empty for `f32` exports).
    pub layers: Vec<LayerError>,
    /// Bytes the weight data would occupy stored dense.
    pub f32_data_bytes: usize,
    /// Total artifact file size (header + metadata + data + CRC).
    pub artifact_bytes: usize,
    /// Worst per-element error across all layers.
    pub max_abs_error: f32,
    /// Element-weighted mean absolute error across all layers.
    pub mean_abs_error: f32,
}

impl QuantReport {
    /// Artifact size as a fraction of the dense (`f32`) data size.
    #[must_use]
    pub fn size_ratio(&self) -> f64 {
        if self.f32_data_bytes == 0 {
            0.0
        } else {
            self.artifact_bytes as f64 / self.f32_data_bytes as f64
        }
    }
}

const KEY_QUANT: &str = "aero.quantization";
const KEY_CONFIG: &str = "aero.config";
const KEY_MAX_LEN: &str = "aero.meta.max_len";
const KEY_LATENT_SCALE: &str = "aero.meta.latent_scale";
const KEY_PROVIDER: &str = "aero.meta.provider";
const KEY_VARIANT: &str = "aero.meta.variant";
const KEY_VOCAB: &str = "aero.vocab";

fn module_count_key(module: &str) -> String {
    format!("aero.module.{module}.count")
}

/// The stored tag of a caption provider.
fn provider_tag(provider: LlmProvider) -> &'static str {
    match provider {
        LlmProvider::KeypointAware => "keypoint",
        LlmProvider::GeminiLike => "gemini",
        LlmProvider::Gpt4oLike => "gpt4o",
        LlmProvider::BlipCaption => "blip",
    }
}

fn parse_provider_tag(tag: &str) -> Result<LlmProvider, ModelError> {
    match tag {
        "keypoint" => Ok(LlmProvider::KeypointAware),
        "gemini" => Ok(LlmProvider::GeminiLike),
        "gpt4o" => Ok(LlmProvider::Gpt4oLike),
        "blip" => Ok(LlmProvider::BlipCaption),
        other => Err(ModelError::Meta(format!("unknown provider {other}"))),
    }
}

/// The stored tag of an ablation variant.
fn variant_tag(variant: AblationVariant) -> &'static str {
    match variant {
        AblationVariant::BaseSd => "base_sd",
        AblationVariant::WithBlip => "with_blip",
        AblationVariant::WithKeypointText => "with_keypoint_text",
        AblationVariant::Full => "full",
    }
}

fn parse_variant_tag(tag: &str) -> Result<AblationVariant, ModelError> {
    match tag {
        "base_sd" => Ok(AblationVariant::BaseSd),
        "with_blip" => Ok(AblationVariant::WithBlip),
        "with_keypoint_text" => Ok(AblationVariant::WithKeypointText),
        "full" => Ok(AblationVariant::Full),
        other => Err(ModelError::Meta(format!("unknown variant {other}"))),
    }
}

/// Builds a pipeline's artifact, returning it and the quantization
/// report. Weight tensors are read straight from the pipeline's
/// parameters.
fn build(pipeline: &AeroDiffusionPipeline, quant: Quantization) -> (ArtifactBuilder, QuantReport) {
    let mut builder = ArtifactBuilder::new();
    builder.set(KEY_QUANT, quant.tag());
    builder.set(KEY_CONFIG, &pipeline.config().render_kv());
    let meta = pipeline.meta();
    builder.set(KEY_MAX_LEN, &meta.max_len.to_string());
    builder.set(KEY_LATENT_SCALE, &format!("0x{:08x}", meta.latent_scale.to_bits()));
    builder.set(KEY_PROVIDER, provider_tag(meta.provider));
    builder.set(KEY_VARIANT, variant_tag(meta.variant));
    builder.set(KEY_VOCAB, &pipeline.vocab_words().join("\n"));

    let mut layers = Vec::new();
    let mut f32_data_bytes = 0usize;
    let mut max_abs = 0.0f32;
    let mut err_sum = 0.0f64;
    let mut total_elems = 0usize;
    for (module, params) in MODULE_NAMES.into_iter().zip(pipeline.module_params()) {
        builder.set(&module_count_key(module), &params.len().to_string());
        for (i, param) in params.iter().enumerate() {
            let t = param.value();
            let name = format!("{module}.{i}");
            f32_data_bytes += t.numel() * 4;
            match quant {
                Quantization::F32 => builder.add_f32(&name, &t),
                Quantization::Q8 => {
                    let q = Q8Tensor::quantize(&t);
                    let (layer_max, layer_mean) = q.reconstruction_error(&t);
                    max_abs = max_abs.max(layer_max);
                    err_sum += f64::from(layer_mean) * t.numel() as f64;
                    total_elems += t.numel();
                    layers.push(LayerError {
                        name: name.clone(),
                        numel: t.numel(),
                        max_abs_error: layer_max,
                        mean_abs_error: layer_mean,
                    });
                    builder.add_q8(&name, &q);
                }
            }
        }
    }

    let report = QuantReport {
        quantization: quant,
        layers,
        f32_data_bytes,
        artifact_bytes: builder.file_len(),
        max_abs_error: max_abs,
        mean_abs_error: if total_elems == 0 { 0.0 } else { (err_sum / total_elems as f64) as f32 },
    };
    (builder, report)
}

/// Renders a snapshot to artifact bytes, returning the bytes and the
/// quantization report. Deterministic: the same snapshot and mode always
/// produce identical bytes.
#[must_use]
pub fn export_snapshot(snapshot: &PipelineSnapshot, quant: Quantization) -> (Vec<u8>, QuantReport) {
    let (builder, report) = build_export(snapshot, quant);
    (builder.to_bytes(), report)
}

/// [`build`] of a snapshot's pipeline, counted as an export.
fn build_export(
    snapshot: &PipelineSnapshot,
    quant: Quantization,
) -> (ArtifactBuilder, QuantReport) {
    let (builder, report) = build(snapshot.pipeline(), quant);
    aero_obs::counter!("model.export.count").inc();
    aero_obs::gauge!("model.export.artifact_bytes").set(report.artifact_bytes as f64);
    if quant == Quantization::Q8 {
        aero_obs::gauge!("model.quant.max_abs_error").set(f64::from(report.max_abs_error));
        aero_obs::gauge!("model.quant.mean_abs_error").set(f64::from(report.mean_abs_error));
        aero_obs::gauge!("model.quant.size_ratio").set(report.size_ratio());
    }
    (builder, report)
}

/// Exports a snapshot to an artifact file, crash-safely.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_snapshot(
    snapshot: &PipelineSnapshot,
    quant: Quantization,
    path: &Path,
) -> Result<QuantReport, ModelError> {
    let (builder, report) = build_export(snapshot, quant);
    builder.write(path)?;
    Ok(report)
}

/// Saves a trained pipeline as the `f32` artifact `<dir>/model.amdl`,
/// creating `dir` if needed and writing the file crash-safely.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save(pipeline: &AeroDiffusionPipeline, dir: impl AsRef<Path>) -> Result<(), ModelError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    build(pipeline, Quantization::F32).0.write(&dir.join(MODEL_FILE))
}

/// Loads the model [`save`] wrote to `dir`, for the preset `config`.
///
/// The stored configuration must equal `config`; that is checked before
/// any tensor is decoded. The file bytes are dropped once the tensors
/// are decoded, before the model is built. The model is not run once
/// the way [`snapshot_from_artifact`] runs it: its configuration is a
/// preset the program ships (`lint --all` runs every one). The snapshot
/// takes the calling process's active thread policy.
///
/// # Errors
///
/// [`ModelError::Io`] when the file cannot be read;
/// [`ModelError::Corrupt`] on a checksum failure, an undecodable payload
/// or a tensor that does not fit its module; [`ModelError::Meta`] on a
/// configuration other than `config`, or missing or malformed metadata.
pub fn load(dir: impl AsRef<Path>, config: PipelineConfig) -> Result<PipelineSnapshot, ModelError> {
    let artifact = ModelArtifact::read(&dir.as_ref().join(MODEL_FILE))?;
    let decoded = Decoded::read(&artifact, Some(&config))?;
    drop(artifact);
    decoded.build()
}

fn required<'a>(artifact: &'a ModelArtifact, key: &str) -> Result<&'a str, ModelError> {
    artifact.value(key).ok_or_else(|| ModelError::Meta(format!("missing metadata key {key}")))
}

fn parse_f32_bits(key: &str, value: &str) -> Result<f32, ModelError> {
    let hex = value
        .strip_prefix("0x")
        .ok_or_else(|| ModelError::Meta(format!("{key} is not a bit pattern: {value}")))?;
    u32::from_str_radix(hex, 16)
        .map(f32::from_bits)
        .map_err(|e| ModelError::Meta(format!("bad {key}: {e}")))
}

/// A pipeline artifact's contents, decoded.
struct Decoded {
    config: PipelineConfig,
    meta: PipelineMeta,
    vocab: Vec<String>,
    modules: [Vec<Tensor>; 5],
}

impl Decoded {
    /// The one reader of a pipeline artifact's keys and tensors. With
    /// `expected`, the stored configuration must equal it, which is
    /// checked before any tensor is decoded.
    fn read(
        artifact: &ModelArtifact,
        expected: Option<&PipelineConfig>,
    ) -> Result<Self, ModelError> {
        let config = PipelineConfig::parse_kv(required(artifact, KEY_CONFIG)?)
            .map_err(|e| ModelError::Meta(format!("config: {e}")))?;
        if let Some(expected) = expected.filter(|&expected| *expected != config) {
            let (saved, requested) = (config.render_kv(), expected.render_kv());
            let (saved, requested) =
                saved.lines().zip(requested.lines()).find(|(s, r)| s != r).unwrap_or_default();
            return Err(ModelError::Meta(format!(
                "config mismatch: saved {saved}, requested {requested}"
            )));
        }
        let meta = PipelineMeta {
            max_len: required(artifact, KEY_MAX_LEN)?
                .parse()
                .map_err(|e| ModelError::Meta(format!("bad {KEY_MAX_LEN}: {e}")))?,
            latent_scale: parse_f32_bits(KEY_LATENT_SCALE, required(artifact, KEY_LATENT_SCALE)?)?,
            provider: parse_provider_tag(required(artifact, KEY_PROVIDER)?)?,
            variant: parse_variant_tag(required(artifact, KEY_VARIANT)?)?,
        };
        let vocab = required(artifact, KEY_VOCAB)?.split('\n').map(str::to_string).collect();
        let mut modules: [Vec<Tensor>; 5] = Default::default();
        let mut name = String::new();
        for (tensors, module) in modules.iter_mut().zip(MODULE_NAMES) {
            let count_key = module_count_key(module);
            let count: usize = required(artifact, &count_key)?
                .parse()
                .map_err(|e| ModelError::Meta(format!("bad {count_key}: {e}")))?;
            *tensors = (0..count)
                .map(|i| {
                    name.clear();
                    let _ = write!(name, "{module}.{i}");
                    artifact.tensor(&name)
                })
                .collect::<Result<_, _>>()?;
        }
        Ok(Decoded { config, meta, vocab, modules })
    }

    /// Builds the model, under the calling process's active thread
    /// policy.
    fn build(self) -> Result<PipelineSnapshot, ModelError> {
        PipelineSnapshot::from_weights(
            self.config,
            &self.meta,
            ParallelConfig::with_threads(parallel::active_threads()),
            &self.vocab,
            self.modules,
        )
    }
}

/// Builds a [`PipelineSnapshot`] from a verified artifact, passing its
/// tensors straight to the pipeline constructor. For an `f32` artifact
/// the snapshot carries the exact weights exported — it generates the
/// same images. For a `q8` artifact the weights carry quantization
/// error; everything else (config, vocabulary, metadata) is exact. The
/// snapshot takes the calling process's active thread policy.
///
/// The artifact's configuration comes from outside the program, so the
/// model is built under [`catch_build`] (a constructor assert on one of
/// its values fails typed) and run once through [`check_pipeline`] at
/// batch 1 before it is returned.
///
/// # Errors
///
/// [`ModelError::Meta`] on missing/malformed metadata, a vocabulary
/// that does not rebuild, or a model that cannot be built or fails the
/// check (the message carries the rendered report);
/// [`ModelError::Corrupt`] on undecodable tensor payloads or tensors
/// that do not fit the configuration's modules — so nothing that cannot
/// serve ever reaches a serving runtime.
pub fn snapshot_from_artifact(artifact: &ModelArtifact) -> Result<PipelineSnapshot, ModelError> {
    let decoded = Decoded::read(artifact, None)?;
    let snapshot = catch_build(|| decoded.build()).map_err(|report| {
        ModelError::Meta(format!("the model cannot be built:\n{}", report.render()))
    })??;
    let report = check_pipeline(snapshot.pipeline(), &[1]);
    if !report.is_clean() {
        return Err(ModelError::Meta(format!("the model does not run:\n{}", report.render())));
    }
    Ok(snapshot)
}

/// End-to-end quality cost of q8 quantization for one snapshot: FID and
/// CLIP score of the f32 pipeline vs its q8 round trip, over a
/// `scenes`-item synthetic eval split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityDelta {
    /// FID of the f32 pipeline's generations against the eval renders.
    pub fid_f32: f32,
    /// FID of the q8 pipeline's generations against the eval renders.
    pub fid_q8: f32,
    /// CLIP score of the f32 pipeline's generations.
    pub clip_f32: f32,
    /// CLIP score of the q8 pipeline's generations.
    pub clip_q8: f32,
}

impl QualityDelta {
    /// `fid_q8 - fid_f32` (positive = quantization hurt FID).
    #[must_use]
    pub fn fid_delta(&self) -> f32 {
        self.fid_q8 - self.fid_f32
    }

    /// `clip_q8 - clip_f32` (negative = quantization hurt CLIP score).
    #[must_use]
    pub fn clip_delta(&self) -> f32 {
        self.clip_q8 - self.clip_f32
    }
}

/// Measures the end-to-end FID/CLIP-score delta of a snapshot's q8
/// export against its f32 original. Expensive (builds the q8 model and
/// generates `scenes` images with each); exports run it only when
/// asked.
///
/// Results are published to the `model.quant.fid_delta` and
/// `model.quant.clip_delta` gauges.
///
/// # Errors
///
/// Propagates q8 reload failures; FID numerical failures surface as
/// [`ModelError::Meta`].
///
/// # Panics
///
/// Panics if `scenes` is zero (FID needs a nonempty eval set).
pub fn quality_delta(
    snapshot: &PipelineSnapshot,
    scenes: usize,
    seed: u64,
) -> Result<QualityDelta, ModelError> {
    assert!(scenes > 0, "quality_delta needs at least one eval scene");
    let (bytes, _) = export_snapshot(snapshot, Quantization::Q8);
    let q8_snapshot = snapshot_from_artifact(&ModelArtifact::from_bytes(bytes)?)?;

    let config = *snapshot.config();
    let ds = build_dataset(&DatasetConfig {
        n_scenes: scenes,
        image_size: config.vision.image_size,
        seed,
        generator: SceneGeneratorConfig::default(),
    });
    let real: Vec<Tensor> = ds.items.iter().map(|it| it.rendered.image.to_tensor()).collect();
    let extractor = FeatureExtractor::new(config.vision.base_channels.max(4));

    let run = |snap: &PipelineSnapshot| -> Result<(f32, f32), ModelError> {
        let pipeline = snap.pipeline();
        let images = pipeline.generate_eval(&ds, &mut StdRng::seed_from_u64(seed));
        let gen: Vec<Tensor> = images.iter().map(aero_scene::Image::to_tensor).collect();
        let fid_score = fid(&extractor, &real, &gen)
            .map_err(|e| ModelError::Meta(format!("fid failed: {e}")))?;
        let captions: Vec<String> = ds
            .items
            .iter()
            .map(|it| pipeline.caption_for(it, &mut StdRng::seed_from_u64(seed)))
            .collect();
        let clip = pipeline.clip_score(&images, &captions);
        Ok((fid_score, clip))
    };

    let (fid_f32, clip_f32) = run(snapshot)?;
    let (fid_q8, clip_q8) = run(&q8_snapshot)?;
    let delta = QualityDelta { fid_f32, fid_q8, clip_f32, clip_q8 };
    aero_obs::gauge!("model.quant.fid_delta").set(f64::from(delta.fid_delta()));
    aero_obs::gauge!("model.quant.clip_delta").set(f64::from(delta.clip_delta()));
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tag_round_trips_and_an_unknown_tag_is_refused() {
        for provider in LlmProvider::ALL {
            assert_eq!(parse_provider_tag(provider_tag(provider)).unwrap(), provider);
        }
        for variant in AblationVariant::ALL {
            assert_eq!(parse_variant_tag(variant_tag(variant)).unwrap(), variant);
        }
        assert!(matches!(parse_provider_tag("alien"), Err(ModelError::Meta(_))));
        assert!(matches!(parse_variant_tag("alien"), Err(ModelError::Meta(_))));
    }
}
