//! Cross-crate integration tests: the full pipeline at smoke scale.

use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig, Viewpoint};
use aero_text::llm::LlmProvider;
use aerodiffusion::viewpoint::{night_synthesis, viewpoint_transition};
use aerodiffusion::{AblationVariant, AeroDiffusionPipeline, FitOptions, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn smoke_dataset(n: usize, seed: u64) -> aero_scene::AerialDataset {
    build_dataset(&DatasetConfig {
        n_scenes: n,
        image_size: PipelineConfig::smoke().vision.image_size,
        seed,
        generator: SceneGeneratorConfig { min_objects: 4, max_objects: 9, night_probability: 0.25 },
    })
}

#[test]
fn full_pipeline_trains_generates_and_scores() {
    let ds = smoke_dataset(6, 1);
    let (train, eval) = ds.split(0.67);
    let pipeline = AeroDiffusionPipeline::fit(&train, PipelineConfig::smoke(), 2);
    let mut rng = StdRng::seed_from_u64(3);
    let images = pipeline.generate_eval(&eval, &mut rng);
    assert_eq!(images.len(), eval.len());
    for img in &images {
        let t = img.to_tensor();
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
        assert!(t.min() >= 0.0 && t.max() <= 1.0);
    }
    // metric plumbing across metrics + scene + core
    let extractor = aero_metrics::FeatureExtractor::default();
    let real: Vec<_> = eval.iter().map(|i| i.rendered.image.to_tensor()).collect();
    let gen: Vec<_> = images.iter().map(aero_scene::Image::to_tensor).collect();
    let fid = aero_metrics::fid(&extractor, &real, &gen).expect("fid");
    assert!(fid.is_finite() && fid >= 0.0);
}

#[test]
fn pipeline_is_deterministic_given_seeds() {
    let ds = smoke_dataset(5, 4);
    let a = AeroDiffusionPipeline::fit(&ds, PipelineConfig::smoke(), 9);
    let b = AeroDiffusionPipeline::fit(&ds, PipelineConfig::smoke(), 9);
    let img_a = a.generate(&ds.items[0], &mut StdRng::seed_from_u64(5));
    let img_b = b.generate(&ds.items[0], &mut StdRng::seed_from_u64(5));
    assert_eq!(img_a, img_b, "same seeds must give identical generations");
}

#[test]
fn ablation_variants_share_the_interface() {
    let ds = smoke_dataset(4, 6);
    for variant in [AblationVariant::BaseSd, AblationVariant::Full] {
        let options = FitOptions { variant, ..FitOptions::default() };
        let (pipeline, _) =
            AeroDiffusionPipeline::fit_with(&ds, PipelineConfig::smoke(), 7, &options).unwrap();
        let img = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(8));
        assert_eq!(img.width(), PipelineConfig::smoke().vision.image_size);
        assert_eq!(pipeline.variant(), variant);
    }
}

#[test]
fn viewpoint_and_night_modes_run_end_to_end() {
    let ds = smoke_dataset(5, 10);
    let pipeline = AeroDiffusionPipeline::fit(&ds, PipelineConfig::smoke(), 11);
    let mut rng = StdRng::seed_from_u64(12);
    let vp = Viewpoint { altitude: 0.45, pitch_deg: 48.0, heading_deg: 90.0 };
    let t = viewpoint_transition(&pipeline, &ds.items[0], vp, &mut rng);
    assert!(t.target_description.contains("low altitude"));
    let n = night_synthesis(&pipeline, &ds.items[1], &mut rng);
    assert!(n.description.contains("nighttime"));
    assert!(n.luminance >= 0.0 && n.luminance <= 1.0);
}

#[test]
fn caption_provider_plumbs_through_pipeline() {
    let ds = smoke_dataset(4, 13);
    let options = FitOptions { provider: LlmProvider::BlipCaption, ..FitOptions::default() };
    let (pipeline, _) =
        AeroDiffusionPipeline::fit_with(&ds, PipelineConfig::smoke(), 14, &options).unwrap();
    assert_eq!(pipeline.provider(), LlmProvider::BlipCaption);
    let caption = pipeline.caption_for(&ds.items[0], &mut StdRng::seed_from_u64(0));
    // BLIP-style: a single sentence
    assert_eq!(caption.matches('.').count(), 1, "{caption}");
}
