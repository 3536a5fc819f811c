//! Pre-flight static validation of a [`PipelineConfig`].
//!
//! [`lint_config`] builds the [`aero_analysis::PipelineShapeDesc`] the
//! pipeline constructor would realise — the same vision geometry, the
//! same `C = [C_xg; C_g; f̂_X]` condition concatenation, and the exact
//! [`UnetConfig`] that [`crate::pipeline::AeroDiffusionPipeline::fit`]
//! instantiates — and replays every matmul, convolution, reshape, and
//! broadcast symbolically. A misconfigured stack is reported with stable
//! `ADxxxx` diagnostics in seconds instead of panicking minutes into
//! training.

use crate::config::PipelineConfig;
use aero_analysis::{PipelineShapeDesc, Report, ShapeCtx};

pub use aero_analysis::{
    lint_backend_callsites, lint_panicking_callsites, lint_source_all, Baseline, BaselineDiff,
};
use aero_diffusion::UnetConfig;
use aero_vision::vae::LATENT_CHANNELS;

/// The UNet configuration [`crate::pipeline::AeroDiffusionPipeline::fit`]
/// builds for `config` (kept in one place so the linter can never drift
/// from the constructor).
#[must_use]
pub fn unet_config(config: &PipelineConfig) -> UnetConfig {
    UnetConfig {
        in_channels: LATENT_CHANNELS,
        base_channels: config.unet_channels,
        cond_dim: config.cond_dim(),
        time_embed_dim: 32,
        cond_tokens: 3,
        spatial_cond_cells: (config.vision.image_size / 8) * (config.vision.image_size / 8),
    }
}

/// The shape description of the full pipeline `config` would realise.
#[must_use]
pub fn pipeline_desc(config: &PipelineConfig) -> PipelineShapeDesc {
    let latent_side = config.vision.image_size / 4;
    PipelineShapeDesc::new(&config.vision, &unet_config(config), latent_side)
}

/// Statically validates `config`, returning the full diagnostic report.
#[must_use]
pub fn lint_config(config: &PipelineConfig) -> Report {
    let mut ctx = ShapeCtx::new();
    pipeline_desc(config).check(&mut ctx);
    ctx.into_report()
}

/// Self-checks the checkpoint/persistence integrity machinery: the CRC32
/// implementation against the IEEE 802.3 check vector, the manifest text
/// round-trip, and rejection of unsupported manifest versions. A build
/// whose integrity primitives are broken would silently accept corrupt
/// checkpoints, so `lint --all` verifies them up front.
#[must_use]
pub fn lint_checkpoint() -> Report {
    use aero_analysis::DiagCode;
    use aero_nn::integrity::{crc32, IntegrityError, Manifest, ManifestEntry, MANIFEST_VERSION};
    let mut ctx = ShapeCtx::new();
    ctx.scoped("checkpoint", |ctx| {
        ctx.require(
            crc32(b"123456789") == 0xCBF4_3926,
            DiagCode::InvalidConfig,
            "crc32 must match the IEEE 802.3 check vector 0xCBF43926",
        );
        ctx.require(crc32(b"") == 0, DiagCode::InvalidConfig, "crc32 of empty input must be 0");
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            entries: vec![ManifestEntry { name: "unet.aero".into(), crc32: 0xDEAD_BEEF, len: 42 }],
        };
        ctx.require(
            matches!(Manifest::parse(&manifest.render()), Ok(m) if m == manifest),
            DiagCode::InvalidConfig,
            "manifest text form must round-trip losslessly",
        );
        ctx.require(
            matches!(
                Manifest::parse("version=999\n"),
                Err(IntegrityError::VersionMismatch { found: 999, .. })
            ),
            DiagCode::InvalidConfig,
            "unsupported manifest versions must be rejected as VersionMismatch",
        );
        ctx.require(
            matches!(Manifest::parse("version=1\nbadline"), Err(IntegrityError::Malformed(_))),
            DiagCode::InvalidConfig,
            "truncated manifest entries must be rejected as Malformed",
        );
    });
    ctx.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_presets_lint_clean() {
        for (name, config) in [
            ("paper", PipelineConfig::paper()),
            ("small", PipelineConfig::small()),
            ("smoke", PipelineConfig::smoke()),
        ] {
            let report = lint_config(&config);
            assert!(report.is_clean(), "{name} preset:\n{}", report.render());
        }
    }

    #[test]
    fn checkpoint_integrity_machinery_lints_clean() {
        let report = lint_checkpoint();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn broken_vision_geometry_is_rejected() {
        let mut config = PipelineConfig::smoke();
        config.vision.image_size = 30; // not divisible by 4
        let report = lint_config(&config);
        assert!(!report.is_clean(), "expected diagnostics:\n{}", report.render());
    }
}
