//! **AeroDiffusion** — the paper's primary contribution, assembled from
//! the workspace substrates.
//!
//! The pipeline (Fig. 2 of the paper) has two key components:
//!
//! 1. **Keypoint-aware text description generation** (Section IV-A):
//!    captions `G_i = LLM(X_i, O_i, P_i)` produced by prompting a
//!    (simulated) LLM with the scene's ground-truth object list and a
//!    structured template — see [`aero_text`].
//! 2. **Feature-augmented diffusion** (Sections IV-B/IV-C): YOLO-detected
//!    regions of interest are cropped, re-encoded, cross-attended with
//!    their label embeddings, and fused with the whole-image feature via
//!    multi-head self-attention ([`region::RegionAugmenter`]); the
//!    resulting `f̂_X` joins BLIP image-text fusion `C_xg` and the CLIP
//!    encoding of the target description `C_g` in the condition vector
//!    `C = [C_xg; C_g; f̂_X]` ([`condition::ConditionNetwork`], Eq. 5),
//!    which guides a latent-diffusion UNet trained with Eq. 6.
//!
//! [`pipeline::AeroDiffusionPipeline`] wires the full system:
//! caption → tokenize → train CLIP/VAE/YOLO substrates → jointly train
//! the UNet and condition network → DDIM sampling with classifier-free
//! guidance, plus the paper's viewpoint-transition (Table III) and
//! nighttime (Fig. 5) synthesis modes and the Table IV ablations.

pub mod ablation;
pub mod condition;
pub mod config;
pub mod lint;
pub mod persist;
pub mod pipeline;
pub mod region;
pub mod snapshot;
pub mod substrate;
pub mod task;
pub mod viewpoint;

pub use ablation::{AblationSpec, AblationVariant};
pub use condition::ConditionNetwork;
pub use config::PipelineConfig;
pub use lint::{
    lint_backend_callsites, lint_checkpoint, lint_config, lint_panicking_callsites,
    lint_source_all, Baseline, BaselineDiff,
};
pub use persist::{
    parse_provider_tag, parse_variant_tag, provider_tag, variant_tag, PersistError, PipelineMeta,
    PIPELINE_FORMAT_VERSION,
};
pub use pipeline::{AeroDiffusionPipeline, FitOptions, FitReport, SampleRow};
pub use region::RegionAugmenter;
pub use snapshot::{PipelineSnapshot, MODULE_NAMES};
pub use substrate::SubstrateBundle;
pub use task::{ConditionSource, TaskKind, TaskSpec};
