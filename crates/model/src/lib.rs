//! Single-file quantized model artifacts for AeroDiffusion.
//!
//! This crate is the serving-scale persistence layer on top of
//! `aerodiffusion`'s directory-of-blobs format: one CRC-protected binary
//! file ([`format`]) holding a whole pipeline — metadata, vocabulary,
//! configuration, and every weight tensor, stored dense (`f32`) or
//! block-quantized (`q8`, ~28% of the dense size) — loaded zero-copy via
//! `mmap` ([`mmap`]) and organised into named, versioned registries
//! ([`registry`]) that the serving runtime hot-swaps between.
//!
//! The pipeline-level entry points live in [`export`]:
//! [`write_snapshot`] turns a [`PipelineSnapshot`] into an artifact file
//! (emitting a per-layer [`QuantReport`] on the way), and
//! [`snapshot_from_artifact`] builds the snapshot's model from a loaded
//! artifact — once, with every tensor checked against its module, so a
//! CRC-valid artifact that cannot serve fails typed before a serving
//! runtime sees it. An `f32` round trip is **byte-identical**: the
//! artifact stores the exact weight bits, so a model rebuilt from it
//! generates the same images as the original in-memory snapshot.
//!
//! [`PipelineSnapshot`]: aerodiffusion::PipelineSnapshot

pub mod export;
pub mod format;
pub mod mmap;
pub mod registry;

pub use export::{
    export_snapshot, quality_delta, snapshot_from_artifact, write_snapshot, LayerError,
    QualityDelta, QuantReport, Quantization,
};
pub use format::{ArtifactBuilder, DType, ModelArtifact, TensorInfo, DATA_ALIGN};
pub use mmap::ArtifactBytes;
pub use registry::{IntegrityState, ModelRegistry, RegistryEntry};

use std::error::Error;
use std::fmt;

/// Error loading, verifying, or building a model artifact.
#[derive(Debug)]
pub enum ModelError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The artifact bytes fail CRC or structural validation.
    Corrupt {
        /// What exactly failed.
        detail: String,
    },
    /// The artifact was written by an unsupported format version.
    VersionMismatch {
        /// The version recorded in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The metadata section is incomplete or does not describe a valid
    /// pipeline (missing key, unknown tag, malformed config).
    Meta(String),
}

impl ModelError {
    pub(crate) fn corrupt(detail: String) -> ModelError {
        ModelError::Corrupt { detail }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Io(e) => write!(f, "i/o failure: {e}"),
            ModelError::Corrupt { detail } => write!(f, "corrupt artifact: {detail}"),
            ModelError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "artifact format version {found} unsupported (this build reads {supported})"
                )
            }
            ModelError::Meta(d) => write!(f, "invalid artifact metadata: {d}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

impl From<aerodiffusion::PersistError> for ModelError {
    fn from(e: aerodiffusion::PersistError) -> Self {
        use aerodiffusion::PersistError;
        match e {
            PersistError::Io(io) => ModelError::Io(io),
            PersistError::VersionMismatch { found, supported } => {
                ModelError::VersionMismatch { found, supported }
            }
            PersistError::Corrupt { file, detail } => {
                ModelError::Corrupt { detail: format!("{file}: {detail}") }
            }
            PersistError::Meta(d) => ModelError::Meta(d),
            PersistError::Weights(w) => ModelError::Corrupt { detail: w.to_string() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
        let e = ModelError::corrupt("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
