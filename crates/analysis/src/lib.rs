//! Static model validation for the AeroDiffusion reproduction.
//!
//! Training a misconfigured diffusion stack wastes minutes before the
//! first shape panic (or, worse, trains silently with a detached
//! parameter). This crate catches those failures *before execution* with
//! two complementary passes:
//!
//! 1. **Static shape inference** ([`models`], [`shape_infer`]) — plain-data
//!    descriptions of each architecture are replayed symbolically over
//!    [`ShapeSpec`]s with a symbolic batch `B`, reusing the *same* pure
//!    shape rules (`aero_tensor::shape` / `aero_tensor::sym`) the runtime
//!    kernels consult, so the analyzer can never drift from the kernels.
//! 2. **Autograd-graph linting** ([`graph_lint`]) — a walk over a built
//!    [`aero_nn::Var`] loss graph flagging detached parameters, severed
//!    gradient flow, NaN-prone numerics, and dead branches.
//!
//! Findings carry stable `ADxxxx` codes (see [`DiagCode`]) and render in a
//! rustc-like format via [`Report::render`].
//!
//! # Example
//!
//! ```
//! use aero_analysis::{PipelineShapeDesc, UnetShapeDesc};
//! use aero_diffusion::UnetConfig;
//!
//! // A consistent UNet lints clean...
//! let ok = UnetShapeDesc::from_config(&UnetConfig::latent(96), 8).lint();
//! assert!(ok.is_clean());
//!
//! // ...a broken channel ladder does not.
//! let mut broken = UnetShapeDesc::from_config(&UnetConfig::latent(96), 8);
//! broken.up_conv.cout = 3;
//! assert!(!broken.lint().is_clean());
//! ```

mod baseline;
mod diag;
mod graph_lint;
mod lockorder;
mod models;
mod shape_infer;
mod source_lint;
pub mod token;

pub use baseline::{Baseline, BaselineDiff};
pub use diag::{DiagCode, Diagnostic, Report, Severity};
pub use graph_lint::lint_graph;
pub use lockorder::lint_lock_order;
pub use models::{
    ConvDesc, ConvTDesc, LinearDesc, PipelineShapeDesc, ResBlockDesc, UnetShapeDesc,
    VisionShapeDesc, BATCH, LATENT_CHANNELS,
};
pub use shape_infer::ShapeCtx;
pub use source_lint::{
    lint_atomic_orderings, lint_backend_callsites, lint_nondeterminism, lint_panicking_callsites,
    lint_source_all, lint_worker_panics,
};
