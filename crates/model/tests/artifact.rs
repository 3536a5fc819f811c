//! End-to-end artifact tests over a real (smoke-trained) pipeline:
//! f32 round trips are byte-identical down to the sampled image, q8
//! artifacts hit the size budget, corrupted files are rejected with
//! typed errors before any decode, and CRC-valid artifacts whose contents
//! do not describe a model fail typed before any model exists.

use aero_model::{
    export_snapshot, load, save, snapshot_from_artifact, write_snapshot, ArtifactBuilder,
    IntegrityState, ModelArtifact, ModelError, ModelRegistry, Quantization, MODEL_FILE,
};
use aero_scene::{build_dataset, AerialDataset, DatasetConfig, SceneGeneratorConfig};
use aero_tensor::Tensor;
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig, PipelineSnapshot, MODULE_NAMES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;

fn tiny_dataset() -> AerialDataset {
    build_dataset(&DatasetConfig {
        n_scenes: 3,
        image_size: PipelineConfig::smoke().vision.image_size,
        seed: 77,
        generator: SceneGeneratorConfig { min_objects: 4, max_objects: 6, night_probability: 0.0 },
    })
}

fn trained() -> (AerialDataset, AeroDiffusionPipeline, PipelineSnapshot) {
    let ds = tiny_dataset();
    let pipeline = AeroDiffusionPipeline::fit(&ds, PipelineConfig::smoke(), 23);
    let snapshot = pipeline.snapshot();
    (ds, pipeline, snapshot)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aero_model_e2e_{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn f32_artifact_round_trip_samples_byte_identically() {
    let (ds, pipeline, snapshot) = trained();
    let dir = temp_dir("f32_round_trip");
    let path = dir.join("model.amdl");

    let report = write_snapshot(&snapshot, Quantization::F32, &path).unwrap();
    assert_eq!(report.max_abs_error, 0.0, "f32 export is lossless");

    // Export must be byte-stable: same snapshot, same bytes.
    let first = fs::read(&path).unwrap();
    write_snapshot(&snapshot, Quantization::F32, &path).unwrap();
    assert_eq!(first, fs::read(&path).unwrap(), "export must be deterministic");

    let artifact = ModelArtifact::read(&path).unwrap();
    let reloaded = snapshot_from_artifact(&artifact).unwrap();

    // The rebuilt snapshot carries the exact weight bits…
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for ((name, ours), theirs) in MODULE_NAMES
        .iter()
        .zip(snapshot.pipeline().module_params())
        .zip(reloaded.pipeline().module_params())
    {
        assert_eq!(ours.len(), theirs.len(), "module {name} tensor count");
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!(a.shape(), b.shape(), "module {name} tensor shape");
            assert_eq!(bits(&a.value()), bits(&b.value()), "module {name} must round trip");
        }
    }

    // …so both sample identically.
    let replica = reloaded.pipeline();
    let a = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(11));
    let b = replica.generate(&ds.items[0], &mut StdRng::seed_from_u64(11));
    assert_eq!(a, b, "artifact round trip must not change sampling output");
}

#[test]
fn saved_model_loads_byte_identically_and_exports_its_own_bytes() {
    let (ds, pipeline, _snapshot) = trained();
    let dir = temp_dir("saved_model");
    save(&pipeline, &dir).unwrap();
    let saved = fs::read(dir.join(MODEL_FILE)).unwrap();
    let entries: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(entries, [MODEL_FILE], "a saved model is one file, with no tmp left behind");

    let loaded = load(&dir, PipelineConfig::smoke()).unwrap();
    let a = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(13));
    let b = loaded.pipeline().generate(&ds.items[0], &mut StdRng::seed_from_u64(13));
    assert_eq!(a, b, "a loaded model must sample like the one saved");
    let (exported, _) = export_snapshot(&loaded, Quantization::F32);
    assert_eq!(exported, saved, "an f32 export of a saved model is its model.amdl");

    match load(&dir, PipelineConfig::small()) {
        Err(ModelError::Meta(detail)) => assert!(detail.contains("config mismatch"), "{detail}"),
        other => panic!("another preset must be refused typed, got {other:?}"),
    }
}

#[test]
fn load_rejects_a_flipped_bit_in_model_amdl() {
    let (_ds, pipeline, _snapshot) = trained();
    let dir = temp_dir("flipped_model");
    save(&pipeline, &dir).unwrap();
    let path = dir.join(MODEL_FILE);
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&path, bytes).unwrap();
    match load(&dir, PipelineConfig::smoke()) {
        Err(ModelError::Corrupt { detail }) => assert!(detail.contains("crc"), "{detail}"),
        other => panic!("a flipped bit in model.amdl must be refused typed, got {other:?}"),
    }
}

#[test]
fn q8_artifact_meets_size_budget_and_hydrates() {
    let (ds, _pipeline, snapshot) = trained();
    let dir = temp_dir("q8_budget");
    let f32_path = dir.join("model-f32.amdl");
    let q8_path = dir.join("model-q8.amdl");

    write_snapshot(&snapshot, Quantization::F32, &f32_path).unwrap();
    let report = write_snapshot(&snapshot, Quantization::Q8, &q8_path).unwrap();

    // The smoke preset's layers are narrower than one q8 block (rows of
    // 4–8 elements), so per-block scale overhead dominates; the ≤30%
    // budget at realistic widths is asserted in
    // `q8_meets_size_budget_at_realistic_layer_widths` below. Here the
    // quantized artifact must still be a clear win.
    let f32_len = fs::metadata(&f32_path).unwrap().len();
    let q8_len = fs::metadata(&q8_path).unwrap().len();
    assert!(
        q8_len * 2 <= f32_len,
        "q8 artifact must be <= 50% of f32 even at smoke widths ({q8_len} vs {f32_len} bytes)"
    );

    assert!(!report.layers.is_empty(), "per-layer report must cover the tensors");
    assert!(report.max_abs_error.is_finite());
    assert!(report.mean_abs_error <= report.max_abs_error);

    // A q8 snapshot is lossy but must still load and sample finitely.
    let artifact = ModelArtifact::read(&q8_path).unwrap();
    let replica = snapshot_from_artifact(&artifact).unwrap();
    let img = replica.pipeline().generate(&ds.items[0], &mut StdRng::seed_from_u64(3));
    let t = img.to_tensor();
    assert!(t.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn q8_meets_size_budget_at_realistic_layer_widths() {
    use aero_model::ArtifactBuilder;
    use aero_tensor::{Q8Tensor, Tensor};
    use rand::Rng;

    let mut rng = StdRng::seed_from_u64(5);
    let shapes: [&[usize]; 4] = [&[128, 256], &[256, 64], &[32, 32, 32], &[512]];
    let tensors: Vec<Tensor> = shapes
        .iter()
        .map(|s| {
            let n: usize = s.iter().product();
            let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Tensor::from_vec(data, s)
        })
        .collect();

    let mut dense = ArtifactBuilder::new();
    let mut quantized = ArtifactBuilder::new();
    for (i, t) in tensors.iter().enumerate() {
        dense.add_f32(&format!("layer.{i}"), t);
        quantized.add_q8(&format!("layer.{i}"), &Q8Tensor::quantize(t));
    }
    let f32_len = dense.to_bytes().len();
    let q8_len = quantized.to_bytes().len();
    assert!(
        q8_len * 10 <= f32_len * 3,
        "q8 artifact must be <= 30% of f32 at block-sized widths ({q8_len} vs {f32_len} bytes)"
    );
}

#[test]
fn corrupted_artifacts_are_rejected_with_typed_errors() {
    let (_ds, _pipeline, snapshot) = trained();
    let dir = temp_dir("corruption");
    let path = dir.join("model.amdl");
    write_snapshot(&snapshot, Quantization::Q8, &path).unwrap();
    let good = fs::read(&path).unwrap();

    // Single bit flip anywhere (sampled positions) trips the CRC.
    for pos in (0..good.len()).step_by(good.len() / 23 + 1) {
        let mut bad = good.clone();
        bad[pos] ^= 0x04;
        match ModelArtifact::from_bytes(bad) {
            Err(ModelError::Corrupt { .. } | ModelError::VersionMismatch { .. }) => {}
            other => panic!("bit flip at {pos} must be rejected, got {other:?}"),
        }
    }

    // Truncation at any sampled length is rejected, never a panic.
    for len in (0..good.len()).step_by(good.len() / 17 + 1) {
        let err = ModelArtifact::from_bytes(good[..len].to_vec()).unwrap_err();
        assert!(matches!(err, ModelError::Corrupt { .. }), "truncated to {len}: {err:?}");
    }
}

#[test]
fn registry_publishes_and_serves_real_artifacts() {
    let (ds, pipeline, snapshot) = trained();
    let dir = temp_dir("registry");
    let registry = ModelRegistry::open(&dir).unwrap();

    let (bytes, _report) = export_snapshot(&snapshot, Quantization::F32);
    let entry = registry.publish("smoke", &bytes).unwrap();
    assert_eq!((entry.name.as_str(), entry.version), ("smoke", 1));
    assert_eq!(registry.verify(&entry).unwrap(), IntegrityState::Verified);

    let resolved = registry.resolve("smoke", None).unwrap();
    let artifact = registry.open_artifact(&resolved).unwrap();
    let replica = snapshot_from_artifact(&artifact).unwrap();
    let a = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(29));
    let b = replica.pipeline().generate(&ds.items[0], &mut StdRng::seed_from_u64(29));
    assert_eq!(a, b, "registry-served model must sample like the original");
}

/// `snapshot`'s f32 artifact copied entry by entry through
/// [`ArtifactBuilder`], with `kv` and `tensor` free to rewrite any
/// metadata value or tensor on the way. The copy carries a valid CRC.
fn rebuilt(
    snapshot: &PipelineSnapshot,
    kv: impl Fn(&str, &str) -> String,
    tensor: impl Fn(&str, Tensor) -> Tensor,
) -> ModelArtifact {
    let (bytes, _) = export_snapshot(snapshot, Quantization::F32);
    let original = ModelArtifact::from_bytes(bytes).unwrap();
    let mut builder = ArtifactBuilder::new();
    for (key, value) in original.kv() {
        builder.set(key, &kv(key, value));
    }
    for info in original.tensor_infos() {
        builder.add_f32(&info.name, &tensor(&info.name, original.tensor(&info.name).unwrap()));
    }
    ModelArtifact::from_bytes(builder.to_bytes()).expect("a rebuilt artifact passes its CRC")
}

#[test]
fn misfit_artifacts_fail_typed_before_any_model_exists() {
    let (_ds, _pipeline, snapshot) = trained();
    let keep_kv = |_: &str, value: &str| value.to_string();
    let keep_tensor = |_: &str, t: Tensor| t;

    // The untouched copy loads: the rebuild itself changes nothing.
    snapshot_from_artifact(&rebuilt(&snapshot, keep_kv, keep_tensor)).unwrap();

    // A UNet weight flattened to 1-D: the right element count, the wrong
    // shape for its parameter.
    let flat_unet =
        rebuilt(
            &snapshot,
            keep_kv,
            |name, t| {
                if name == "unet.0" {
                    t.reshape(&[t.numel()])
                } else {
                    t
                }
            },
        );
    match snapshot_from_artifact(&flat_unet) {
        Err(ModelError::Corrupt { detail }) => assert!(detail.contains("shape"), "{detail}"),
        other => panic!("a misshapen tensor must fail typed as corrupt, got {other:?}"),
    }

    // A module count one higher than the tensors the artifact holds.
    let over_count = rebuilt(
        &snapshot,
        |key, value| {
            if key == "aero.module.unet.count" {
                (value.parse::<usize>().unwrap() + 1).to_string()
            } else {
                value.to_string()
            }
        },
        keep_tensor,
    );
    match snapshot_from_artifact(&over_count) {
        Err(ModelError::Meta(detail)) => assert!(detail.contains("unet."), "{detail}"),
        other => panic!("a missing tensor must fail typed, got {other:?}"),
    }

    // A vocabulary shorter than the four special tokens.
    let short_vocab = rebuilt(
        &snapshot,
        |key, value| if key == "aero.vocab" { "a\nb\nc".into() } else { value.to_string() },
        keep_tensor,
    );
    match snapshot_from_artifact(&short_vocab) {
        Err(ModelError::Meta(detail)) => assert!(detail.contains("vocabulary"), "{detail}"),
        other => panic!("a short vocabulary must fail typed, got {other:?}"),
    }

    // A 17-pixel image size: every tensor still fits (17 / 4 == 16 / 4),
    // but the image encoder's stride-2 stages give 5×5, not 4×4, so the
    // model cannot encode.
    let odd_size = rebuilt(
        &snapshot,
        |key, value| {
            if key == "aero.config" {
                value.replace("vision.image_size=16", "vision.image_size=17")
            } else {
                value.to_string()
            }
        },
        keep_tensor,
    );
    match snapshot_from_artifact(&odd_size) {
        Err(ModelError::Meta(detail)) => {
            assert!(
                detail.contains("AD0001") && detail.contains("pipeline.encode_task"),
                "{detail}"
            );
        }
        other => panic!("a model that cannot run must fail typed, got {other:?}"),
    }

    // A 15-wide embedding: the attention constructors assert that their
    // heads divide it, so the model cannot even be built.
    let odd_width = rebuilt(
        &snapshot,
        |key, value| {
            if key == "aero.config" {
                value.replace("vision.embed_dim=16", "vision.embed_dim=15")
            } else {
                value.to_string()
            }
        },
        keep_tensor,
    );
    match snapshot_from_artifact(&odd_width) {
        Err(ModelError::Meta(detail)) => {
            assert!(detail.contains("AD0001") && detail.contains("pipeline.assemble"), "{detail}");
        }
        other => panic!("a model that cannot be built must fail typed, got {other:?}"),
    }
}
