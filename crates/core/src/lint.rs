//! Pre-flight validation of a pipeline's geometry, by running it.
//!
//! [`check_pipeline`] runs a built [`AeroDiffusionPipeline`] once on a
//! tiny input: it encodes one text task, takes one unguided DDIM step at
//! each batch size asked for, and decodes one latent. Every output's
//! shape is compared with what the configuration implies, and a panic or
//! a wrong shape becomes an `AD0001` diagnostic naming the stage. The
//! model is the only description of itself, so the check cannot drift
//! from it.
//!
//! [`lint_config`] runs the check on the untrained skeleton of a
//! configuration (how `lint` validates the shipped presets), and
//! `aero_model::snapshot_from_artifact` runs it on every model built
//! from an artifact, the one place a configuration comes from outside
//! the program. Both build the model under [`catch_build`], so a
//! constructor that asserts on a configuration value gives a diagnostic,
//! not a crash.

use crate::ablation::AblationVariant;
use crate::config::PipelineConfig;
use crate::pipeline::{AeroDiffusionPipeline, SampleRow};
use crate::substrate::SubstrateBundle;
use aero_analysis::{DiagCode, Report};
use aero_diffusion::{DdimSampler, StepSink, UnetConfig};
use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aero_text::llm::LlmProvider;
use aero_text::tokenizer::{Tokenizer, Vocabulary};
use aero_vision::vae::LATENT_CHANNELS;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use aero_analysis::{lint_backend_callsites, lint_panicking_callsites, lint_source_all};

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

const ASSEMBLE: &str = "pipeline.assemble";
const ENCODE: &str = "pipeline.encode_task";
const SAMPLE: &str = "pipeline.sample_batch";
const DECODE: &str = "pipeline.decode_latent";

/// Runs one stage of the check. A panic is recorded as an `AD0001` error
/// at `site` carrying the panic payload, and yields `None`.
fn stage<T>(report: &mut Report, site: &str, f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| {
            let detail = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a non-string payload");
            report.push(DiagCode::ShapeMismatch, site, format!("panicked: {detail}"));
        })
        .ok()
}

/// Records an `AD0001` error at `site` unless the output shape `got` is
/// `want`.
fn expect_shape(report: &mut Report, site: &str, got: &[usize], want: &[usize]) -> bool {
    let same = got == want;
    if !same {
        report.push(
            DiagCode::ShapeMismatch,
            site,
            format!("output shape {got:?}, expected {want:?}"),
        );
    }
    same
}

/// Runs `pipeline` once and checks every output's shape against its
/// configuration: `encode_task` on a text task over a one-scene
/// reference rendered at the configured `image_size` must give
/// `[1, cond_dim]`; one unguided DDIM step at each of `batch_sizes` must
/// give `[n, c, h, w]` from `latent_shape()`; and decoding one row must
/// give an `image_size` square image. A stage that panics or returns the
/// wrong shape is an `AD0001` error at its site (`pipeline.encode_task`,
/// `pipeline.sample_batch`, `pipeline.decode_latent`), and a batch size
/// of 0 is `AD0005`. A failed stage ends the check, since later stages
/// need its output.
///
/// Guidance is 1.0, so each step runs one UNet pass on the calling
/// thread. A pipeline that fails the check may have unwound mid-forward;
/// drop it.
#[must_use]
pub fn check_pipeline(pipeline: &AeroDiffusionPipeline, batch_sizes: &[usize]) -> Report {
    let mut report = Report::new();
    aero_nn::no_grad(|| {
        let config = pipeline.config();
        let side = config.vision.image_size;
        let [c, h, w] = pipeline.latent_shape();
        let cond = stage(&mut report, ENCODE, || {
            let reference = build_dataset(&DatasetConfig {
                n_scenes: 1,
                image_size: side,
                seed: 0,
                generator: SceneGeneratorConfig::default(),
            });
            pipeline.condition_vector(&reference.items[0])
        });
        let Some(cond) = cond else { return };
        if !expect_shape(&mut report, ENCODE, cond.shape(), &[1, config.cond_dim()]) {
            return;
        }
        let sampler = DdimSampler::new(1, 1.0);
        let mut first_latent = None;
        for &n in batch_sizes {
            if n == 0 {
                report.push(DiagCode::InvalidConfig, SAMPLE, "batch size must be positive");
                continue;
            }
            let z = stage(&mut report, SAMPLE, || {
                let mut rngs: Vec<StdRng> = (0..n).map(|_| StdRng::seed_from_u64(0)).collect();
                let rows =
                    rngs.iter_mut().map(|rng| SampleRow { cond: &cond, rng, pin: None }).collect();
                pipeline.sample_batch(&sampler, rows, None, StepSink::none())
            });
            let Some(z) = z else { return };
            if !expect_shape(&mut report, SAMPLE, z.shape(), &[n, c, h, w]) {
                return;
            }
            first_latent.get_or_insert(z);
        }
        let Some(z) = first_latent else { return };
        if let Some(image) =
            stage(&mut report, DECODE, || pipeline.decode_latent(&z.narrow(0, 0, 1)))
        {
            expect_shape(&mut report, DECODE, &[image.width(), image.height()], &[side, side]);
        }
    });
    report
}

/// Runs `build`, which constructs a model from a configuration. A
/// constructor that panics (an assert on one of the configuration's
/// values) is an `AD0001` error at `pipeline.assemble`.
///
/// # Errors
///
/// The report holding that error, when `build` panics.
pub fn catch_build<T>(build: impl FnOnce() -> T) -> Result<T, Report> {
    let mut report = Report::new();
    stage(&mut report, ASSEMBLE, build).ok_or(report)
}

/// Validates `config` by building its untrained skeleton under
/// [`catch_build`], the way a model read from an artifact is built
/// before its weights are loaded, and running [`check_pipeline`] on it at
/// batch 1 and at `max_batch` (the most requests a server coalesces into
/// one sampler call).
#[must_use]
pub fn lint_config(config: &PipelineConfig, max_batch: usize) -> Report {
    let skeleton = catch_build(|| {
        let tokenizer =
            Tokenizer::new(Vocabulary::build(std::iter::empty(), 1), config.vision.max_text_len);
        let bundle = SubstrateBundle::new_untrained(tokenizer, config, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let (provider, variant) = (LlmProvider::KeypointAware, AblationVariant::Full);
        AeroDiffusionPipeline::assemble(*config, bundle, provider, variant, &mut rng)
    });
    match skeleton {
        Ok(skeleton) => check_pipeline(&skeleton, &[1, max_batch]),
        Err(report) => report,
    }
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
            // 8 is the serve default `max_batch`.
            let report = lint_config(&config, 8);
            assert!(report.is_clean(), "{name} preset:\n{}", report.render());
        }
    }

    #[test]
    fn broken_vision_geometry_is_rejected() {
        // 30 is not divisible by 4, so the image encoder's two stride-2
        // stages disagree with its projection. 20 encodes, but its 5×5
        // latent does not survive the UNet's down- and upsampling.
        for (image_size, site) in [(30, ENCODE), (20, SAMPLE)] {
            let mut config = PipelineConfig::smoke();
            config.vision.image_size = image_size;
            let report = lint_config(&config, 1);
            assert!(!report.is_clean(), "expected diagnostics:\n{}", report.render());
            assert!(
                report
                    .diagnostics()
                    .iter()
                    .any(|d| d.code == DiagCode::ShapeMismatch && d.site == site),
                "image_size {image_size} must fail at {site}:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn a_zero_batch_is_an_invalid_config() {
        let report = lint_config(&PipelineConfig::smoke(), 0);
        assert!(report.has_code(DiagCode::InvalidConfig), "{}", report.render());
        assert!(!report.is_clean());
    }
}
