//! Persistence of trained pipelines.
//!
//! A trained [`AeroDiffusionPipeline`](crate::pipeline::AeroDiffusionPipeline)
//! is written as a directory:
//!
//! ```text
//! <dir>/
//!   vocab.txt        one vocabulary word per line (ids are line order)
//!   meta.txt         key=value lines: max_len, latent_scale, provider, variant
//!   clip.aero        CLIP weights        (aero-nn binary weight format)
//!   vae.aero         VAE weights
//!   detector.aero    YOLO-lite weights
//!   condition.aero   condition-network weights
//!   unet.aero        UNet weights
//! ```
//!
//! Loading reconstructs the models from a [`PipelineConfig`] and the
//! stored vocabulary, then restores every weight tensor; the config must
//! match the one the pipeline was trained with.
//!
//! Every file is written atomically (tmp + rename) and the directory
//! carries a `manifest.txt` recording a format version plus the CRC32
//! and length of each blob. Loads verify the manifest *before* decoding
//! anything, so a bit flip surfaces as [`PersistError::Corrupt`] naming
//! the damaged file rather than as a garbage model. Directories written
//! before manifests existed (no `manifest.txt`) still load.

use crate::ablation::AblationVariant;
use crate::config::PipelineConfig;
use aero_nn::integrity::{write_atomic, IntegrityError, Manifest};
use aero_nn::serialize::{decode_tensors, encode_params, LoadWeightsError};
use aero_tensor::Tensor;
use aero_text::llm::LlmProvider;
use aero_text::tokenizer::Vocabulary;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

/// The on-disk pipeline format version, shared by every persistence
/// layer: the directory manifest (`manifest.txt`), and the single-file
/// model artifact header in `aero-model`. Keeping one typed constant
/// means the two layers cannot silently diverge — bump it here and both
/// readers reject the other's future files with a typed
/// [`PersistError::VersionMismatch`].
pub const PIPELINE_FORMAT_VERSION: u32 = aero_nn::integrity::MANIFEST_VERSION;

/// Every file a pipeline directory contains, in manifest order.
pub(crate) const PIPELINE_FILES: [&str; 8] = [
    "vocab.txt",
    "meta.txt",
    "config.txt",
    "clip.aero",
    "vae.aero",
    "detector.aero",
    "condition.aero",
    "unet.aero",
];

/// Error loading or saving a pipeline directory.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A weight blob failed to decode or mismatch the models.
    Weights(LoadWeightsError),
    /// The metadata file is malformed.
    Meta(String),
    /// A stored blob fails its manifest checksum or length.
    Corrupt {
        /// The file that failed verification.
        file: String,
        /// What exactly mismatched.
        detail: String,
    },
    /// The directory was written by an unsupported format version.
    VersionMismatch {
        /// The version recorded on disk.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o failure: {e}"),
            PersistError::Weights(e) => write!(f, "weight failure: {e}"),
            PersistError::Meta(d) => write!(f, "malformed metadata: {d}"),
            PersistError::Corrupt { file, detail } => {
                write!(f, "corrupt pipeline file {file}: {detail}")
            }
            PersistError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "pipeline format version {found} unsupported (this build reads {supported})"
                )
            }
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Weights(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<LoadWeightsError> for PersistError {
    fn from(e: LoadWeightsError) -> Self {
        PersistError::Weights(e)
    }
}

impl From<aero_diffusion::CheckpointError> for PersistError {
    fn from(e: aero_diffusion::CheckpointError) -> Self {
        use aero_diffusion::CheckpointError;
        match e {
            CheckpointError::Io(io) => PersistError::Io(io),
            CheckpointError::Integrity(i) => i.into(),
            CheckpointError::Weights(w) => PersistError::Weights(w),
            CheckpointError::Meta(d) => PersistError::Meta(d),
        }
    }
}

impl From<IntegrityError> for PersistError {
    fn from(e: IntegrityError) -> Self {
        match e {
            IntegrityError::Io(io) => PersistError::Io(io),
            IntegrityError::Malformed(d) => PersistError::Meta(format!("manifest: {d}")),
            IntegrityError::VersionMismatch { found, supported } => {
                PersistError::VersionMismatch { found, supported }
            }
            IntegrityError::Corrupt { file, detail } => PersistError::Corrupt { file, detail },
        }
    }
}

/// Writes `dir/manifest.txt` covering every pipeline file. Called last in
/// a save, after all blobs are on disk.
pub(crate) fn write_manifest(dir: &Path) -> Result<(), PersistError> {
    Manifest::for_files(dir, &PIPELINE_FILES)?.write(dir)?;
    Ok(())
}

/// Verifies the directory against its manifest before anything is
/// decoded. A directory without a manifest predates this format and is
/// accepted as-is (legacy load path).
pub(crate) fn verify_manifest(dir: &Path) -> Result<(), PersistError> {
    if !dir.join("manifest.txt").exists() {
        return Ok(());
    }
    let manifest = Manifest::read(dir)?;
    manifest.verify_dir(dir)?;
    Ok(())
}

/// The dataset-independent state restored on load.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineMeta {
    /// Token sequence length.
    pub max_len: usize,
    /// VAE latent scale.
    pub latent_scale: f32,
    /// Caption provider.
    pub provider: LlmProvider,
    /// Ablation variant.
    pub variant: AblationVariant,
}

pub(crate) fn write_vocab(vocab: &Vocabulary, path: &Path) -> Result<(), PersistError> {
    let mut out = String::new();
    for id in 0..vocab.len() {
        out.push_str(vocab.word(id));
        out.push('\n');
    }
    write_atomic(path, out.as_bytes())?;
    Ok(())
}

/// Rebuilds a [`Vocabulary`] with identical ids from its word list: the
/// non-special words are fed with descending artificial frequency so
/// `Vocabulary::build` preserves order. Called by the one pipeline
/// constructor, so the directory loader, model artifacts and snapshots
/// all rebuild vocabularies the same way.
pub(crate) fn vocab_from_words<S: AsRef<str>>(words: &[S]) -> Result<Vocabulary, PersistError> {
    if words.len() < 4 {
        return Err(PersistError::Meta("vocabulary too short".into()));
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
            return Err(PersistError::Meta(format!(
                "vocabulary order not reproducible at id {i}: {:?} vs {:?}",
                w.as_ref(),
                vocab.word(i)
            )));
        }
    }
    Ok(vocab)
}

/// The vocabulary words of a saved pipeline, in id order.
pub(crate) fn read_vocab(dir: &Path) -> Result<Vec<String>, PersistError> {
    Ok(fs::read_to_string(dir.join("vocab.txt"))?.lines().map(str::to_string).collect())
}

/// The stable on-disk tag for a caption provider, shared by `meta.txt`
/// and the model-artifact metadata section.
#[must_use]
pub fn provider_tag(provider: LlmProvider) -> &'static str {
    match provider {
        LlmProvider::KeypointAware => "keypoint",
        LlmProvider::GeminiLike => "gemini",
        LlmProvider::Gpt4oLike => "gpt4o",
        LlmProvider::BlipCaption => "blip",
    }
}

/// Parses a [`provider_tag`] back to its provider.
///
/// # Errors
///
/// Returns [`PersistError::Meta`] on an unknown tag.
pub fn parse_provider_tag(tag: &str) -> Result<LlmProvider, PersistError> {
    match tag {
        "keypoint" => Ok(LlmProvider::KeypointAware),
        "gemini" => Ok(LlmProvider::GeminiLike),
        "gpt4o" => Ok(LlmProvider::Gpt4oLike),
        "blip" => Ok(LlmProvider::BlipCaption),
        other => Err(PersistError::Meta(format!("unknown provider {other}"))),
    }
}

/// The stable on-disk tag for an ablation variant, shared by `meta.txt`
/// and the model-artifact metadata section.
#[must_use]
pub fn variant_tag(variant: AblationVariant) -> &'static str {
    match variant {
        AblationVariant::BaseSd => "base_sd",
        AblationVariant::WithBlip => "with_blip",
        AblationVariant::WithKeypointText => "with_keypoint_text",
        AblationVariant::Full => "full",
    }
}

/// Parses a [`variant_tag`] back to its variant.
///
/// # Errors
///
/// Returns [`PersistError::Meta`] on an unknown tag.
pub fn parse_variant_tag(tag: &str) -> Result<AblationVariant, PersistError> {
    match tag {
        "base_sd" => Ok(AblationVariant::BaseSd),
        "with_blip" => Ok(AblationVariant::WithBlip),
        "with_keypoint_text" => Ok(AblationVariant::WithKeypointText),
        "full" => Ok(AblationVariant::Full),
        other => Err(PersistError::Meta(format!("unknown variant {other}"))),
    }
}

pub(crate) fn write_meta(meta: &PipelineMeta, path: &Path) -> Result<(), PersistError> {
    let provider = provider_tag(meta.provider);
    let variant = variant_tag(meta.variant);
    write_atomic(
        path,
        format!(
            "max_len={}\nlatent_scale={}\nprovider={provider}\nvariant={variant}\n",
            meta.max_len, meta.latent_scale
        )
        .as_bytes(),
    )?;
    Ok(())
}

pub(crate) fn read_meta(path: &Path) -> Result<PipelineMeta, PersistError> {
    let text = fs::read_to_string(path)?;
    let mut max_len = None;
    let mut latent_scale = None;
    let mut provider = None;
    let mut variant = None;
    for line in text.lines() {
        let Some((k, v)) = line.split_once('=') else { continue };
        match k {
            "max_len" => max_len = v.parse().ok(),
            "latent_scale" => latent_scale = v.parse().ok(),
            "provider" => provider = Some(parse_provider_tag(v)?),
            "variant" => variant = Some(parse_variant_tag(v)?),
            _ => {}
        }
    }
    Ok(PipelineMeta {
        max_len: max_len.ok_or_else(|| PersistError::Meta("missing max_len".into()))?,
        latent_scale: latent_scale
            .ok_or_else(|| PersistError::Meta("missing latent_scale".into()))?,
        provider: provider.ok_or_else(|| PersistError::Meta("missing provider".into()))?,
        variant: variant.ok_or_else(|| PersistError::Meta("missing variant".into()))?,
    })
}

pub(crate) fn save_module(params: &[aero_nn::Var], path: &Path) -> Result<(), PersistError> {
    write_atomic(path, &encode_params(params))?;
    Ok(())
}

/// One saved module's weight tensors, in parameter order.
pub(crate) fn read_module(path: &Path) -> Result<Vec<Tensor>, PersistError> {
    Ok(decode_tensors(&fs::read(path)?)?)
}

/// A convenience: config hash so loads against a different geometry fail
/// fast with a clear message instead of a shape mismatch deep inside.
pub(crate) fn config_fingerprint(config: &PipelineConfig) -> String {
    format!(
        "s{}d{}c{}t{}u{}",
        config.vision.image_size,
        config.vision.embed_dim,
        config.vision.base_channels,
        config.vision.max_text_len,
        config.unet_channels
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trip() {
        let dir = std::env::temp_dir().join("aero_persist_meta");
        fs::create_dir_all(&dir).unwrap();
        let meta = PipelineMeta {
            max_len: 24,
            latent_scale: 1.25,
            provider: LlmProvider::GeminiLike,
            variant: AblationVariant::WithKeypointText,
        };
        let path = dir.join("meta.txt");
        write_meta(&meta, &path).unwrap();
        assert_eq!(read_meta(&path).unwrap(), meta);
    }

    #[test]
    fn vocab_round_trip() {
        let dir = std::env::temp_dir().join("aero_persist_vocab");
        fs::create_dir_all(&dir).unwrap();
        let vocab = Vocabulary::build(["the car drives past the tree on the road"], 1);
        write_vocab(&vocab, &dir.join("vocab.txt")).unwrap();
        let rebuilt = vocab_from_words(&read_vocab(&dir).unwrap()).unwrap();
        for id in 0..vocab.len() {
            assert_eq!(rebuilt.word(id), vocab.word(id), "id {id}");
        }
    }

    #[test]
    fn meta_rejects_garbage() {
        let dir = std::env::temp_dir().join("aero_persist_bad");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.txt");
        fs::write(&path, "provider=alien\n").unwrap();
        assert!(read_meta(&path).is_err());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = config_fingerprint(&PipelineConfig::smoke());
        let b = config_fingerprint(&PipelineConfig::small());
        assert_ne!(a, b);
    }

    /// Builds a synthetic pipeline directory with every manifest-covered
    /// file present (contents are arbitrary; only integrity is under test).
    fn synthetic_pipeline_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("aero_persist_{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for (i, file) in PIPELINE_FILES.iter().enumerate() {
            fs::write(dir.join(file), format!("blob-{i}-{file}")).unwrap();
        }
        write_manifest(&dir).unwrap();
        dir
    }

    #[test]
    fn single_bit_flip_in_unet_weights_is_corrupt() {
        let dir = synthetic_pipeline_dir("bitflip");
        verify_manifest(&dir).unwrap();
        let path = dir.join("unet.aero");
        let mut bytes = fs::read(&path).unwrap();
        bytes[2] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        match verify_manifest(&dir) {
            Err(PersistError::Corrupt { file, .. }) => assert_eq!(file, "unet.aero"),
            other => panic!("expected Corrupt for unet.aero, got {other:?}"),
        }
    }

    #[test]
    fn truncated_manifest_is_a_meta_error() {
        let dir = synthetic_pipeline_dir("truncated");
        let manifest = fs::read_to_string(dir.join("manifest.txt")).unwrap();
        // Cut mid-entry: the last line loses its name field.
        let cut = manifest.trim_end().rfind(' ').unwrap();
        fs::write(dir.join("manifest.txt"), &manifest[..cut]).unwrap();
        assert!(
            matches!(verify_manifest(&dir), Err(PersistError::Meta(_))),
            "a truncated manifest must surface as a Meta error"
        );
    }

    #[test]
    fn unsupported_manifest_version_is_typed() {
        let dir = synthetic_pipeline_dir("version");
        let manifest = fs::read_to_string(dir.join("manifest.txt")).unwrap();
        fs::write(dir.join("manifest.txt"), manifest.replacen("version=1", "version=9", 1))
            .unwrap();
        assert!(matches!(
            verify_manifest(&dir),
            Err(PersistError::VersionMismatch { found: 9, .. })
        ));
    }

    #[test]
    fn missing_manifest_is_accepted_as_legacy() {
        let dir = synthetic_pipeline_dir("legacy");
        fs::remove_file(dir.join("manifest.txt")).unwrap();
        verify_manifest(&dir).unwrap();
    }
}
