//! Pipeline-snapshot export/import and the quantization-error report.
//!
//! A snapshot exports to one artifact: the pipeline configuration
//! (exact, via the bit-pattern `key=value` codec), metadata, vocabulary
//! and thread policy land in the key/value section; every module's
//! weight tensors land in the tensor table as `<module>.<index>` entries,
//! either dense (`f32`) or block-quantized (`q8`). Both directions move
//! tensors directly between the artifact and the snapshot's parameters:
//! import builds the model once, where the bytes come in, and a tensor
//! that does not fit its module fails there, typed.
//!
//! Export is **byte-stable**: metadata keys are sorted, tensor order is
//! the fixed module order, and quantization is deterministic — the same
//! snapshot always renders the identical artifact bytes.
//!
//! Quantized exports also produce a [`QuantReport`] with per-layer
//! max/mean absolute reconstruction error, published to `aero_obs`
//! gauges (`model.quant.*`); [`quality_delta`] extends that to an
//! end-to-end comparison (FID and CLIP score of the q8 pipeline against
//! its f32 original over a synthetic eval split).

use crate::format::{ArtifactBuilder, ModelArtifact};
use crate::ModelError;
use aero_metrics::{fid, FeatureExtractor};
use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aero_tensor::parallel::ParallelConfig;
use aero_tensor::{Q8Tensor, Tensor};
use aerodiffusion::{
    parse_provider_tag, parse_variant_tag, provider_tag, variant_tag, PipelineConfig, PipelineMeta,
    PipelineSnapshot, MODULE_NAMES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
const KEY_THREADS: &str = "aero.parallel.threads";
const KEY_VOCAB: &str = "aero.vocab";

fn module_count_key(module: &str) -> String {
    format!("aero.module.{module}.count")
}

/// Renders a snapshot to artifact bytes, returning the bytes and the
/// quantization report. Deterministic: the same snapshot and mode always
/// produce identical bytes. Weight tensors are read straight from the
/// snapshot's parameters.
#[must_use]
pub fn export_snapshot(snapshot: &PipelineSnapshot, quant: Quantization) -> (Vec<u8>, QuantReport) {
    let mut builder = ArtifactBuilder::new();
    builder.set(KEY_QUANT, quant.tag());
    builder.set(KEY_CONFIG, &snapshot.config().render_kv());
    let meta = snapshot.meta();
    builder.set(KEY_MAX_LEN, &meta.max_len.to_string());
    builder.set(KEY_LATENT_SCALE, &format!("0x{:08x}", meta.latent_scale.to_bits()));
    builder.set(KEY_PROVIDER, provider_tag(meta.provider));
    builder.set(KEY_VARIANT, variant_tag(meta.variant));
    builder.set(KEY_THREADS, &snapshot.parallel().threads().to_string());
    builder.set(KEY_VOCAB, &snapshot.vocab_words().join("\n"));

    let mut layers = Vec::new();
    let mut f32_data_bytes = 0usize;
    let mut max_abs = 0.0f32;
    let mut err_sum = 0.0f64;
    let mut total_elems = 0usize;
    for (module, params) in MODULE_NAMES.into_iter().zip(snapshot.module_params()) {
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

    let bytes = builder.to_bytes();
    let report = QuantReport {
        quantization: quant,
        layers,
        f32_data_bytes,
        artifact_bytes: bytes.len(),
        max_abs_error: max_abs,
        mean_abs_error: if total_elems == 0 { 0.0 } else { (err_sum / total_elems as f64) as f32 },
    };
    aero_obs::counter!("model.export.count").inc();
    aero_obs::gauge!("model.export.artifact_bytes").set(report.artifact_bytes as f64);
    if quant == Quantization::Q8 {
        aero_obs::gauge!("model.quant.max_abs_error").set(f64::from(report.max_abs_error));
        aero_obs::gauge!("model.quant.mean_abs_error").set(f64::from(report.mean_abs_error));
        aero_obs::gauge!("model.quant.size_ratio").set(report.size_ratio());
    }
    (bytes, report)
}

/// Exports a snapshot to an artifact file, crash-safely.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_snapshot(
    snapshot: &PipelineSnapshot,
    quant: Quantization,
    path: &std::path::Path,
) -> Result<QuantReport, ModelError> {
    let (bytes, report) = export_snapshot(snapshot, quant);
    aero_nn::integrity::write_atomic(path, &bytes)?;
    Ok(report)
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

/// Builds a [`PipelineSnapshot`] from a verified artifact, passing its
/// tensors straight to the pipeline constructor. For an `f32` artifact
/// the snapshot carries the exact weights exported — it generates the
/// same images. For a `q8` artifact the weights carry quantization
/// error; everything else (config, vocabulary, metadata) is exact.
///
/// # Errors
///
/// [`ModelError::Meta`] on missing/malformed metadata or a vocabulary
/// that does not rebuild, [`ModelError::Corrupt`] on undecodable tensor
/// payloads or tensors that do not fit the configuration's modules — so
/// nothing that cannot serve ever reaches a serving runtime.
pub fn snapshot_from_artifact(artifact: &ModelArtifact) -> Result<PipelineSnapshot, ModelError> {
    let config = PipelineConfig::parse_kv(required(artifact, KEY_CONFIG)?)
        .map_err(|e| ModelError::Meta(format!("config: {e}")))?;
    let meta = PipelineMeta {
        max_len: required(artifact, KEY_MAX_LEN)?
            .parse()
            .map_err(|e| ModelError::Meta(format!("bad {KEY_MAX_LEN}: {e}")))?,
        latent_scale: parse_f32_bits(KEY_LATENT_SCALE, required(artifact, KEY_LATENT_SCALE)?)?,
        provider: parse_provider_tag(required(artifact, KEY_PROVIDER)?)?,
        variant: parse_variant_tag(required(artifact, KEY_VARIANT)?)?,
    };
    let threads: usize = required(artifact, KEY_THREADS)?
        .parse()
        .map_err(|e| ModelError::Meta(format!("bad {KEY_THREADS}: {e}")))?;
    let vocab: Vec<&str> = required(artifact, KEY_VOCAB)?.split('\n').collect();

    let mut modules: [Vec<Tensor>; 5] = Default::default();
    for (tensors, module) in modules.iter_mut().zip(MODULE_NAMES) {
        let count_key = module_count_key(module);
        let count: usize = required(artifact, &count_key)?
            .parse()
            .map_err(|e| ModelError::Meta(format!("bad {count_key}: {e}")))?;
        *tensors = (0..count)
            .map(|i| artifact.tensor(&format!("{module}.{i}")))
            .collect::<Result<_, _>>()?;
    }

    Ok(PipelineSnapshot::from_weights(
        config,
        &meta,
        ParallelConfig::with_threads(threads),
        &vocab,
        modules,
    )?)
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
