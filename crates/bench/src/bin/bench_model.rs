//! Model-artifact benchmark: f32 vs q8 single-file artifacts against the
//! multi-file directory loader.
//!
//! One smoke pipeline is trained once, then measured along three axes:
//!
//! - **size** — the f32 and q8 `.amdl` artifacts versus the directory
//!   save, plus the q8/f32 payload ratio the quantizer achieves on the
//!   real model;
//! - **cold-start** — time from bytes-on-disk to a sample-ready
//!   pipeline: artifact read (CRC + mmap), building the model from the
//!   artifact's tensors (`snapshot_from_artifact`) and taking it
//!   (`hydrate`), versus [`AeroDiffusionPipeline::load`] over the
//!   directory format;
//! - **fidelity** — the q8 per-layer quantization-error envelope, and a
//!   byte-compare proving the f32 artifact round trip is lossless
//!   end-to-end (same sample bytes as the directory loader).
//!
//! `BENCH_MODEL_SMOKE=1` drops the repetition count so CI can use this as
//! a liveness gate; the invariants (q8 smaller than f32, f32 byte-lossless,
//! every load path producing the same image) are asserted at every scale.
//! Writes `BENCH_model.json` to the working directory.

use aero_model::{snapshot_from_artifact, write_snapshot, ModelArtifact, Quantization};
use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aero_serve::Json;
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Median wall-clock seconds of `reps` runs of `f` (median, not mean, so
/// one cold-cache outlier cannot dominate a smoke run).
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn dir_size(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read model dir")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum()
}

fn sample_image(pipeline: &AeroDiffusionPipeline) -> aero_scene::Image {
    let config = pipeline.config();
    let dataset = build_dataset(&DatasetConfig {
        n_scenes: 1,
        image_size: config.vision.image_size,
        seed: 91,
        generator: SceneGeneratorConfig::default(),
    });
    pipeline.generate(&dataset.items[0], &mut StdRng::seed_from_u64(5))
}

fn main() {
    let smoke = std::env::var("BENCH_MODEL_SMOKE").is_ok_and(|v| v == "1");
    let reps = if smoke { 3 } else { 9 };
    let config = PipelineConfig::smoke();
    println!(
        "bench_model: training a smoke pipeline once, measuring artifact paths (reps={reps})…"
    );
    let dataset = build_dataset(&DatasetConfig {
        n_scenes: 4,
        image_size: config.vision.image_size,
        seed: 17,
        generator: SceneGeneratorConfig::default(),
    });
    let pipeline = AeroDiffusionPipeline::fit(&dataset, config, 17);
    let snapshot = pipeline.snapshot();
    let reference = sample_image(&pipeline);

    let work = std::env::temp_dir().join(format!("aero_bench_model_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create bench workdir");
    let model_dir = work.join("model");
    pipeline.save(&model_dir).expect("directory save");
    let f32_path = work.join("model-f32.amdl");
    let q8_path = work.join("model-q8.amdl");
    let f32_report = write_snapshot(&snapshot, Quantization::F32, &f32_path).expect("f32 export");
    let q8_report = write_snapshot(&snapshot, Quantization::Q8, &q8_path).expect("q8 export");

    let dir_bytes = dir_size(&model_dir);
    assert!(
        q8_report.artifact_bytes < f32_report.artifact_bytes,
        "q8 artifact must be smaller than f32 ({} vs {})",
        q8_report.artifact_bytes,
        f32_report.artifact_bytes
    );

    // Cold-start: bytes on disk → a sample-ready pipeline.
    let hydrate = |path: &Path| {
        let artifact = ModelArtifact::read(path).expect("artifact read");
        let snap = snapshot_from_artifact(&artifact).expect("snapshot from artifact");
        snap.hydrate().expect("hydrate")
    };
    let f32_cold = median_secs(reps, || {
        let _ = hydrate(&f32_path);
    });
    let q8_cold = median_secs(reps, || {
        let _ = hydrate(&q8_path);
    });
    let dir_cold = median_secs(reps, || {
        let _ = AeroDiffusionPipeline::load(&model_dir, PipelineConfig::smoke())
            .expect("directory load");
    });
    // Load-only (CRC verify + mmap + header decode, no model built): the
    // part the artifact format itself is responsible for.
    let f32_load = median_secs(reps, || {
        let _ = ModelArtifact::read(&f32_path).expect("artifact read");
    });
    let q8_load = median_secs(reps, || {
        let _ = ModelArtifact::read(&q8_path).expect("artifact read");
    });

    // Every load path must produce the reference image; the f32 artifact
    // must be byte-lossless end to end.
    let from_f32 = sample_image(&hydrate(&f32_path));
    assert_eq!(from_f32, reference, "f32 artifact sample must be byte-identical");
    let from_dir = sample_image(
        &AeroDiffusionPipeline::load(&model_dir, PipelineConfig::smoke()).expect("directory load"),
    );
    assert_eq!(from_dir, reference, "directory-loader sample must be byte-identical");
    let q8_sample = sample_image(&hydrate(&q8_path));
    assert_eq!(
        (q8_sample.width(), q8_sample.height()),
        (reference.width(), reference.height()),
        "q8 sample must have reference geometry"
    );

    let ratio = q8_report.artifact_bytes as f64 / f32_report.artifact_bytes as f64;
    println!("{:>14} {:>12} {:>14} {:>14}", "path", "bytes", "load ms", "cold-start ms");
    println!("{:>14} {:>12} {:>14} {:>14.2}", "dir", dir_bytes, "-", dir_cold * 1e3);
    println!(
        "{:>14} {:>12} {:>14.2} {:>14.2}",
        "f32.amdl",
        f32_report.artifact_bytes,
        f32_load * 1e3,
        f32_cold * 1e3
    );
    println!(
        "{:>14} {:>12} {:>14.2} {:>14.2}",
        "q8.amdl",
        q8_report.artifact_bytes,
        q8_load * 1e3,
        q8_cold * 1e3
    );
    println!(
        "q8/f32 artifact ratio: {:.1}% (payload ratio {:.1}%); q8 max_abs error {:.6}",
        ratio * 100.0,
        q8_report.size_ratio() * 100.0,
        q8_report.max_abs_error
    );

    let json = Json::obj(vec![
        ("bench", "model".into()),
        ("smoke", smoke.into()),
        ("reps", reps.into()),
        ("dir_bytes", dir_bytes.into()),
        ("f32_bytes", f32_report.artifact_bytes.into()),
        ("q8_bytes", q8_report.artifact_bytes.into()),
        ("q8_over_f32", ratio.into()),
        ("q8_payload_ratio", q8_report.size_ratio().into()),
        ("q8_max_abs_error", f64::from(q8_report.max_abs_error).into()),
        ("q8_mean_abs_error", f64::from(q8_report.mean_abs_error).into()),
        ("f32_load_ms", (f32_load * 1e3).into()),
        ("q8_load_ms", (q8_load * 1e3).into()),
        ("f32_cold_start_ms", (f32_cold * 1e3).into()),
        ("q8_cold_start_ms", (q8_cold * 1e3).into()),
        ("dir_cold_start_ms", (dir_cold * 1e3).into()),
        ("f32_sample_lossless", true.into()),
    ]);
    std::fs::write("BENCH_model.json", format!("{}\n", json.render()))
        .expect("write BENCH_model.json");
    println!("wrote BENCH_model.json");
    let _ = std::fs::remove_dir_all(&work);
}
