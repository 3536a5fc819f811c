//! Saved models, quantized exports and the model registry for
//! AeroDiffusion.
//!
//! Every model this crate writes is one CRC-protected container file
//! ([`ModelArtifact`], defined in [`aero_nn::artifact`] and re-exported
//! here) holding a whole pipeline — metadata, vocabulary, configuration,
//! and every weight tensor, stored dense (`f32`) or block-quantized
//! (`q8`, ~28% of the dense size). Artifacts are organised into named,
//! versioned registries ([`registry`]) that the serving runtime
//! hot-swaps between.
//!
//! The pipeline-level entry points live in [`export`], the one module
//! that knows a pipeline's keys and tensor names: [`save`] writes a
//! trained pipeline to `<dir>/model.amdl` and [`load`] reads it back for
//! a `--scale` preset; [`write_snapshot`] turns a [`PipelineSnapshot`]
//! into an artifact file (emitting a per-layer [`QuantReport`] on the
//! way), and [`snapshot_from_artifact`] builds the snapshot's model from
//! a loaded artifact — once, with every tensor checked against its
//! module, so a CRC-valid artifact that cannot serve fails typed before
//! a serving runtime sees it. An `f32` round trip is **byte-identical**:
//! the artifact stores the exact weight bits, so a model rebuilt from it
//! generates the same images as the original.
//!
//! [`PipelineSnapshot`]: aerodiffusion::PipelineSnapshot

pub mod export;
pub mod registry;

pub use aero_nn::artifact::{
    ArtifactBuilder, DType, ModelArtifact, ModelError, TensorInfo, DATA_ALIGN, FORMAT_VERSION,
};
pub use export::{
    export_snapshot, load, quality_delta, save, snapshot_from_artifact, write_snapshot, LayerError,
    QualityDelta, QuantReport, Quantization, MODEL_FILE,
};
pub use registry::{IntegrityState, ModelRegistry, RegistryEntry};
