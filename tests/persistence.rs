//! Integration test: save/load of a trained pipeline preserves behaviour.

use aero_model::{load, save};
use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn saved_pipeline_generates_identically_after_load() {
    let cfg = PipelineConfig::smoke();
    let ds = build_dataset(&DatasetConfig {
        n_scenes: 5,
        image_size: cfg.vision.image_size,
        seed: 61,
        generator: SceneGeneratorConfig { min_objects: 4, max_objects: 8, night_probability: 0.2 },
    });
    let pipeline = AeroDiffusionPipeline::fit(&ds, cfg, 62);

    let dir = std::env::temp_dir().join("aero_pipeline_roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    save(&pipeline, &dir).expect("save");
    let loaded = load(&dir, cfg).expect("load");

    assert_eq!(loaded.provider(), pipeline.provider());
    assert_eq!(loaded.variant(), pipeline.variant());
    let original = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(63));
    let restored = loaded.pipeline().generate(&ds.items[0], &mut StdRng::seed_from_u64(63));
    assert_eq!(original, restored, "loaded pipeline must generate identically");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_rejects_wrong_config() {
    let cfg = PipelineConfig::smoke();
    let ds = build_dataset(&DatasetConfig {
        n_scenes: 4,
        image_size: cfg.vision.image_size,
        seed: 64,
        generator: SceneGeneratorConfig { min_objects: 4, max_objects: 8, night_probability: 0.0 },
    });
    let pipeline = AeroDiffusionPipeline::fit(&ds, cfg, 65);
    let dir = std::env::temp_dir().join("aero_pipeline_wrong_cfg");
    let _ = std::fs::remove_dir_all(&dir);
    save(&pipeline, &dir).expect("save");
    let err = load(&dir, PipelineConfig::small());
    assert!(err.is_err(), "mismatched config must be rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_rejects_missing_directory() {
    let missing = std::env::temp_dir().join("aero_pipeline_does_not_exist");
    assert!(load(&missing, PipelineConfig::smoke()).is_err());
}
