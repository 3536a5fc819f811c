//! Viewpoint-transition and nighttime synthesis (Table III / Fig. 5).

use crate::pipeline::AeroDiffusionPipeline;
use aero_scene::{DatasetItem, Image, TimeOfDay, Viewpoint};
use rand::Rng;

/// The result of one viewpoint-transition synthesis.
#[derive(Debug, Clone)]
pub struct ViewpointTransition {
    /// The reference description `G_i`.
    pub reference_description: String,
    /// The requirement / target description `G'_i`.
    pub target_description: String,
    /// The requested camera.
    pub target_viewpoint: Viewpoint,
    /// The generated image.
    pub image: Image,
}

/// Synthesizes the scene of `item` from a new viewpoint, following the
/// Table III protocol: the target description `G'` re-narrates the scene
/// from the requested camera, and the diffusion model is conditioned on
/// `[BLIP(X, G); CLIP(G'); f̂_X]`.
pub fn viewpoint_transition<R: Rng + ?Sized>(
    pipeline: &AeroDiffusionPipeline,
    item: &DatasetItem,
    target: Viewpoint,
    rng: &mut R,
) -> ViewpointTransition {
    let llm = pipeline.llm();
    let reference_description = llm.describe(&item.spec, &pipeline.prompt(), rng);
    let target_description = llm.describe_with_viewpoint(&item.spec, target, rng);
    let image = pipeline.generate_with(item, Some(&target_description), None, rng);
    ViewpointTransition {
        reference_description,
        target_description,
        target_viewpoint: target,
        image,
    }
}

/// The result of one nighttime synthesis (Fig. 5).
#[derive(Debug, Clone)]
pub struct NightSynthesis {
    /// The lighting-detailed night description.
    pub description: String,
    /// The generated image.
    pub image: Image,
    /// Mean luminance of the generated image (diagnostic).
    pub luminance: f32,
}

/// Generates a nighttime rendition of `item`'s scene with explicit
/// lighting detail in the target description.
pub fn night_synthesis<R: Rng + ?Sized>(
    pipeline: &AeroDiffusionPipeline,
    item: &DatasetItem,
    rng: &mut R,
) -> NightSynthesis {
    let llm = pipeline.llm();
    let description = llm.describe_at_night(&item.spec, rng);
    let image = pipeline.generate_with(item, Some(&description), None, rng);
    let luminance = image.mean_luminance();
    NightSynthesis { description, image, luminance }
}

/// Ground-truth night render of the same scene (for comparison rows).
pub fn night_reference(item: &DatasetItem, image_size: usize) -> Image {
    let spec = item.spec.with_time(TimeOfDay::Night);
    aero_scene::Rasterizer::new(image_size, image_size).render(&spec).image
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fitted() -> (AeroDiffusionPipeline, aero_scene::AerialDataset) {
        let cfg = PipelineConfig::smoke();
        let ds = build_dataset(&DatasetConfig {
            n_scenes: 4,
            image_size: cfg.vision.image_size,
            seed: 31,
            generator: SceneGeneratorConfig {
                min_objects: 4,
                max_objects: 8,
                night_probability: 0.0,
            },
        });
        (AeroDiffusionPipeline::fit(&ds, cfg, 32), ds)
    }

    #[test]
    fn transition_produces_distinct_descriptions() {
        let (pipeline, ds) = fitted();
        let mut rng = StdRng::seed_from_u64(1);
        let target = Viewpoint { altitude: 0.4, pitch_deg: 45.0, heading_deg: 15.0 };
        let result = viewpoint_transition(&pipeline, &ds.items[0], target, &mut rng);
        assert_ne!(result.reference_description, result.target_description);
        assert!(result.target_description.contains("low altitude"));
        assert_eq!(result.image.width(), pipeline.config().vision.image_size);
    }

    #[test]
    fn night_synthesis_mentions_night() {
        let (pipeline, ds) = fitted();
        let mut rng = StdRng::seed_from_u64(2);
        let result = night_synthesis(&pipeline, &ds.items[0], &mut rng);
        assert!(result.description.contains("nighttime"));
        assert!(result.luminance.is_finite());
    }

    #[test]
    fn night_reference_darker_than_day_render() {
        let (_, ds) = fitted();
        let item = &ds.items[0];
        let day = item.rendered.image.mean_luminance();
        let night = night_reference(item, item.rendered.image.width()).mean_luminance();
        assert!(night < day, "night {night} vs day {day}");
    }
}
