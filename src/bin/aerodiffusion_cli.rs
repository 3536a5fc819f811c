//! Command-line interface for training, persisting, and sampling
//! AeroDiffusion pipelines.
//!
//! ```text
//! aerodiffusion_cli train  <model-dir> [--scenes N] [--seed S] [--scale smoke|small|paper]
//!                          [--threads N] [--backend reference|blocked]
//!                          [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] [--max-steps N]
//! aerodiffusion_cli sample <model-dir> <out.ppm> [--seed S] [--night] [--trace FILE]
//!                          [--task view|inpaint|superres] [--prompt STR] [--source FILE.ppm]
//!                          [--source-view A,P,H] [--target-view A,P,H]
//!                          [--box label,x0,y0,x1,y1]…
//!                          [--scale …] [--threads N] [--backend reference|blocked]
//! aerodiffusion_cli profile <model-dir> [--seed S] [--ndjson FILE] [--scale …] [--threads N]
//!                          [--backend reference|blocked]
//! aerodiffusion_cli serve  <model-dir>|--demo [--replicas N] [--workers N] [--max-batch N]
//!                          [--scale …] [--threads N] [--backend reference|blocked]
//!                          [--registry DIR [--model name[@version]]]
//!                          [--tenant-rate RPS [--tenant-burst N]] [--shed-queue-depth N]
//!                          [--shed-p95-ms MS] [--stream] [--max-worker-restarts N]
//!                          [--inject-panic-at N[,N…]] [--inject-replica-kill-at N[,N…]]
//! aerodiffusion_cli info   <model-dir>
//! aerodiffusion_cli lint   [--scale smoke|small|paper] [--all]
//! aerodiffusion_cli model export  <model-dir> <out.amdl> [--q8] [--scale …]
//!                          [--registry DIR --name NAME] [--quality-scenes N]
//! aerodiffusion_cli model inspect <artifact.amdl>
//! aerodiffusion_cli model list    <registry-dir>
//! ```
//!
//! `model export` packs a persisted pipeline directory into one
//! CRC-protected `.amdl` artifact — dense `f32` by default, `--q8` for
//! block-quantized weights (~28% of the dense payload) with a per-layer
//! quantization-error report on stderr. With `--registry`/`--name` the
//! artifact is also published into a versioned registry that `serve
//! --registry` can hot-swap from. `--quality-scenes N` additionally
//! measures the q8-vs-f32 FID and CLIP-score deltas on an N-scene
//! evaluation set. `model inspect` prints an artifact's metadata and
//! tensor table after verifying its checksum; `model list` prints a
//! registry's contents with per-entry integrity states.
//!
//! With `--checkpoint-dir`, `train` writes crash-safe checkpoints of the
//! joint diffusion stage every `--checkpoint-every` steps (CRC-verified,
//! written atomically). A killed run re-invoked with `--resume` continues
//! from the newest valid checkpoint on a bit-identical trajectory;
//! corrupt checkpoints are skipped. `--max-steps` stops the joint stage
//! early — checkpointed but unsaved — which is how CI simulates a crash.
//!
//! `--threads` pins the tensor-kernel worker pool (default: the
//! `AERO_THREADS` env var, else the host's available parallelism, capped
//! at 8). `--backend` picks the compute backend: `blocked` (default) runs
//! the cache-blocked microkernels, `reference` the serial oracle kernels
//! (default: the `AERO_BACKEND` env var, else `blocked`). Both are purely
//! performance knobs: the kernels are bit-identical at every thread count
//! and under either backend, so they only change wall-clock time, never
//! output bytes (CI byte-compares a sample across backends).
//!
//! `--inject-panic-at` schedules a deterministic in-worker panic on the
//! Nth submitted request (0-based): the request is answered with a typed
//! `worker_error` reply, everything else is still served, and the
//! watchdog respawns the worker. `--inject-replica-kill-at` goes further
//! and kills the whole replica group holding the Nth request's batch —
//! survivors absorb the rerouted work, the supervisor respawns the
//! group, and no request is dropped.
//!
//! `--replicas` shards the worker pool into N independent replica groups
//! (own queue, own condition cache), routed by `(prompt, variant)` so
//! repeated prompts keep hitting a warm cache. `--tenant-rate`/
//! `--tenant-burst` arm per-tenant token buckets; `--shed-queue-depth`
//! and `--shed-p95-ms` arm the global load-shedding gates — shed
//! requests get a typed `overloaded` reply with a `retry_after_ms` hint.
//! `--stream` emits quantized intermediate-latent `preview` lines for
//! every request while it samples (clients can opt in per request with
//! `"stream":true`, and abort with a `{"type":"cancel","id":…}` line).
//!
//! `profile` runs one conditioned DDIM generation with span collection
//! enabled and prints the aggregated span tree (inclusive/exclusive
//! wall-clock per stage, sampler steps collapsed to one `×N` line)
//! followed by the process-global metric registry. `sample --trace FILE`
//! does the same collection around a normal sample and writes the spans
//! plus metrics as NDJSON to `FILE` — observation never perturbs the
//! output image, which stays byte-identical with tracing on or off (CI
//! compares the two).
//!
//! `sample --task` runs one of the image-conditioned pipelines instead
//! of the default text-to-image path: `view` warps a source image
//! through the homography between `--source-view` and `--target-view`
//! (each an `altitude,pitch,heading` triple; defaults: nadir →
//! `0.6,60,30`), `inpaint` re-denoises only inside the `--box
//! label,x0,y0,x1,y1` keypoint regions (repeatable; defaults to the
//! reference scene's ground-truth boxes), and `superres` runs the
//! two-stage cascade (half-budget draft → half-resolution base →
//! full-budget super-resolve). `--source FILE.ppm` supplies the source
//! image for `view`/`inpaint` (resized to the model's native resolution
//! if needed; default: a freshly rendered reference scene) and
//! `--prompt` the target description (default: the reference caption).
//! Without `--task` the sample path is byte-identical to previous
//! releases.
//!
//! `lint` statically validates the model geometry a configuration would
//! realise — symbolic shape inference over the whole pipeline plus the
//! serving batcher's coalesced-condition contract — and exits non-zero if
//! any `ADxxxx` error is found, without training anything.
//!
//! `serve` speaks newline-delimited JSON over stdin/stdout: one
//! `{"type":"generate","prompt":…,"seed":…}` request per input line, one
//! reply (base64 RGB image + per-stage latency, or a typed rejection) per
//! output line, plus a `{"type":"stats"}` probe. `--demo` trains a
//! smoke-scale pipeline in-process instead of loading one from disk.

use aero_diffusion::{DdimSampler, StepSink};
use aero_model::{
    snapshot_from_artifact, write_snapshot, ModelArtifact, ModelRegistry, Quantization,
};
use aero_scene::{
    build_dataset, Annotation, BBox, DatasetConfig, DatasetItem, Homography, Image, ObjectClass,
    SceneGeneratorConfig, Viewpoint,
};
use aero_serve::{lint_serve, serve_ndjson, Fault, FaultPlan, ServeConfig, ServeRuntime};
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig, PipelineSnapshot, TaskSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::process::ExitCode;
use std::time::Duration;

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn scale_config(args: &[String]) -> PipelineConfig {
    match parse_flag(args, "--scale").as_deref() {
        Some("paper") => PipelineConfig::paper(),
        Some("small") => PipelineConfig::small(),
        _ => PipelineConfig::smoke(),
    }
}

/// Applies `--threads N` (falling back to the `AERO_THREADS` env var and
/// then the host's available parallelism) as the process-wide kernel
/// thread policy, and `--backend reference|blocked` (falling back to the
/// `AERO_BACKEND` env var, then `blocked`) as the process-wide compute
/// backend. Purely performance knobs: outputs are bit-identical at any
/// thread count and under either backend.
fn apply_kernel_flags(args: &[String]) -> Result<(), Box<dyn Error>> {
    if let Some(v) = parse_flag(args, "--threads") {
        aero_tensor::parallel::set_global_threads(v.parse()?);
    }
    if let Some(v) = parse_flag(args, "--backend") {
        aero_tensor::backend::set_global_backend(v.parse::<aero_tensor::BackendKind>()?);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("sample") => cmd_sample(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("model") => cmd_model(&args[1..]),
        _ => {
            eprintln!(
                "usage: aerodiffusion_cli <train|sample|profile|serve|info|lint> [args]\n\
                 \n  train  <dir> [--scenes N] [--seed S] [--scale smoke|small|paper] [--threads N]\n\
                 \n         [--backend reference|blocked]\n\
                 \n         [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] [--max-steps N]\n\
                 \n  sample <dir> <out.ppm> [--seed S] [--night] [--trace FILE] [--scale …] [--threads N]\n\
                 \n         [--backend reference|blocked]\n\
                 \n         [--task view|inpaint|superres] [--prompt STR] [--source FILE.ppm]\n\
                 \n         [--source-view A,P,H] [--target-view A,P,H] [--box label,x0,y0,x1,y1]…\n\
                 \n  profile <dir> [--seed S] [--ndjson FILE] [--scale …] [--threads N]\n\
                 \n         [--backend reference|blocked]\n\
                 \n  serve  <dir>|--demo [--replicas N] [--workers N] [--max-batch N] [--queue N]\n\
                 \n         [--batch-wait-ms MS] [--cache N] [--steps N] [--guidance G] [--scale …]\n\
                 \n         [--threads N] [--backend reference|blocked]\n\
                 \n         [--registry DIR [--model name[@version]]]\n\
                 \n         [--tenant-rate RPS [--tenant-burst N]] [--shed-queue-depth N]\n\
                 \n         [--shed-p95-ms MS] [--stream] [--max-worker-restarts N]\n\
                 \n         [--inject-panic-at N[,N…]] [--inject-replica-kill-at N[,N…]]\n\
                 \n  info   <dir>\n\
                 \n  lint   [--scale smoke|small|paper] [--all] [--source-root DIR]\n\
                 \n         [--baseline FILE | --write-baseline FILE]\n\
                 \n  model  export <dir> <out.amdl> [--q8] [--scale …]\n\
                 \n                [--registry DIR --name NAME] [--quality-scenes N]\n\
                 \n  model  inspect <artifact.amdl>\n\
                 \n  model  list <registry-dir>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_train(args: &[String]) -> Result<(), Box<dyn Error>> {
    apply_kernel_flags(args)?;
    let dir = args.first().ok_or("train requires a model directory")?;
    let n_scenes: usize = parse_flag(args, "--scenes").map(|v| v.parse()).transpose()?.unwrap_or(8);
    let seed: u64 = parse_flag(args, "--seed").map(|v| v.parse()).transpose()?.unwrap_or(42);
    let config = scale_config(args);
    println!("building {n_scenes}-scene dataset…");
    let dataset = build_dataset(&DatasetConfig {
        n_scenes,
        image_size: config.vision.image_size,
        seed,
        generator: SceneGeneratorConfig::default(),
    });
    println!("training pipeline (this is CPU-bound)…");
    let Some(ckpt_dir) = parse_flag(args, "--checkpoint-dir") else {
        let pipeline = AeroDiffusionPipeline::fit(&dataset, config, seed);
        pipeline.save(dir)?;
        println!("saved trained pipeline to {dir}");
        return Ok(());
    };
    let every: u64 =
        parse_flag(args, "--checkpoint-every").map(|v| v.parse()).transpose()?.unwrap_or(10);
    let max_steps: Option<u64> = parse_flag(args, "--max-steps").map(|v| v.parse()).transpose()?;
    if !args.iter().any(|a| a == "--resume") && std::path::Path::new(&ckpt_dir).exists() {
        // A fresh run must not silently continue someone else's training.
        std::fs::remove_dir_all(&ckpt_dir)?;
    }
    let options = aerodiffusion::FitOptions {
        checkpoint: Some(aero_diffusion::CheckpointConfig::new(&ckpt_dir, every.max(1))),
        max_steps,
        ..Default::default()
    };
    let (pipeline, report) = AeroDiffusionPipeline::fit_with(&dataset, config, seed, &options)?;
    if let Some(step) = report.resumed_from {
        println!(
            "resumed from checkpoint step {step} ({} corrupt skipped)",
            report.skipped_corrupt
        );
    }
    match report.last_loss {
        Some(loss) => println!("final loss: {loss:.6}"),
        None => println!("final loss: n/a (no new steps ran)"),
    }
    if report.completed {
        pipeline.save(dir)?;
        println!("saved trained pipeline to {dir}");
    } else {
        println!(
            "stopped at step {} (--max-steps); checkpoints in {ckpt_dir}, rerun with --resume",
            report.steps
        );
    }
    Ok(())
}

fn cmd_sample(args: &[String]) -> Result<(), Box<dyn Error>> {
    apply_kernel_flags(args)?;
    let dir = args.first().ok_or("sample requires a model directory")?;
    let out = args.get(1).ok_or("sample requires an output .ppm path")?;
    let seed: u64 = parse_flag(args, "--seed").map(|v| v.parse()).transpose()?.unwrap_or(7);
    let config = scale_config(args);
    let pipeline = AeroDiffusionPipeline::load(dir, config)?;
    // a fresh reference scene to condition on
    let dataset = build_dataset(&DatasetConfig {
        n_scenes: 1,
        image_size: config.vision.image_size,
        seed: seed ^ 0x5EED,
        generator: SceneGeneratorConfig::default(),
    });
    let item = &dataset.items[0];
    let mut rng = StdRng::seed_from_u64(seed);
    let night = args.iter().any(|a| a == "--night");
    let mode = sample_mode(args, &pipeline, item, seed, night)?;
    let sampler = DdimSampler::new(config.diffusion.ddim_steps, config.diffusion.guidance_scale);
    let render = |rng: &mut StdRng| match &mode {
        SampleMode::Text if night => {
            aerodiffusion::viewpoint::night_synthesis(&pipeline, item, rng).image
        }
        SampleMode::Text => pipeline.generate(item, rng),
        SampleMode::Task(task) => pipeline.run_task(task, &sampler, seed, StepSink::none()),
        SampleMode::Cascade(prompt) => {
            pipeline.super_res_cascade(item, prompt, &sampler, seed, StepSink::none())
        }
    };
    // `--trace` turns on span collection around the exact same call;
    // observation never changes the generated bytes (CI compares).
    let image = match parse_flag(args, "--trace") {
        None => render(&mut rng),
        Some(path) => {
            let (image, trace) = aero_obs::span::collect(|| render(&mut rng));
            write_obs_ndjson(&path, &trace, &aero_obs::global().snapshot())?;
            eprintln!("wrote trace ({} spans) to {path}", trace.span_count());
            image
        }
    };
    image.save_ppm(out)?;
    println!("wrote {out} ({}x{})", image.width(), image.height());
    Ok(())
}

/// What `sample` actually runs: the pre-task text path (bit-identical to
/// previous releases), a single image-conditioned [`TaskSpec`], or the
/// two-stage super-resolution cascade.
enum SampleMode {
    Text,
    Task(TaskSpec),
    Cascade(String),
}

/// Resolves `--task`/`--prompt`/`--source`/`--source-view`/
/// `--target-view`/`--box` into a [`SampleMode`]. All fallible work
/// (file I/O, flag parsing) happens here so the render closure stays
/// infallible and traceable.
fn sample_mode(
    args: &[String],
    pipeline: &AeroDiffusionPipeline,
    item: &DatasetItem,
    seed: u64,
    night: bool,
) -> Result<SampleMode, Box<dyn Error>> {
    let kind = match parse_flag(args, "--task") {
        None => return Ok(SampleMode::Text),
        Some(kind) if kind == "text" => return Ok(SampleMode::Text),
        Some(kind) => kind,
    };
    if night {
        return Err("--night only applies to the default text-to-image sample".into());
    }
    let prompt = match parse_flag(args, "--prompt") {
        Some(p) => p,
        None => pipeline.caption_for(item, &mut StdRng::seed_from_u64(seed)),
    };
    match kind.as_str() {
        "superres" => Ok(SampleMode::Cascade(prompt)),
        "view" => {
            let source = load_source_image(args, item, pipeline)?;
            let source_view = match parse_flag(args, "--source-view") {
                Some(v) => parse_viewpoint(&v)?,
                None => Viewpoint::default(),
            };
            let target_view = match parse_flag(args, "--target-view") {
                Some(v) => parse_viewpoint(&v)?,
                None => Viewpoint { altitude: 0.6, pitch_deg: 60.0, heading_deg: 30.0 },
            };
            let homography =
                Homography::between(source.width(), source.height(), &source_view, &target_view);
            Ok(SampleMode::Task(TaskSpec::view(source, homography, &prompt)))
        }
        "inpaint" => {
            let source = load_source_image(args, item, pipeline)?;
            let mut boxes = Vec::new();
            for (i, arg) in args.iter().enumerate() {
                if arg == "--box" {
                    let spec = args.get(i + 1).ok_or("--box needs a label,x0,y0,x1,y1 argument")?;
                    boxes.push(parse_box(spec)?);
                }
            }
            if boxes.is_empty() {
                // No explicit keypoints: re-denoise the reference
                // scene's ground-truth object boxes.
                boxes = item.rendered.boxes.clone();
            }
            Ok(SampleMode::Task(TaskSpec::inpaint(source, boxes, &prompt)))
        }
        other => Err(format!("unknown --task {other:?} (expected view|inpaint|superres)").into()),
    }
}

/// The source image for `view`/`inpaint`: `--source FILE.ppm` (resized
/// to the model's native resolution if needed), else the freshly
/// rendered reference scene.
fn load_source_image(
    args: &[String],
    item: &DatasetItem,
    pipeline: &AeroDiffusionPipeline,
) -> Result<Image, Box<dyn Error>> {
    let Some(path) = parse_flag(args, "--source") else {
        return Ok(item.rendered.image.clone());
    };
    let image = Image::load_ppm(&path)?;
    let native = pipeline.config().vision.image_size;
    if image.width() == native && image.height() == native {
        Ok(image)
    } else {
        Ok(image.resize(native, native))
    }
}

/// Parses an `altitude,pitch,heading` triple.
fn parse_viewpoint(spec: &str) -> Result<Viewpoint, Box<dyn Error>> {
    let parts: Vec<&str> = spec.split(',').collect();
    let [altitude, pitch, heading] = parts.as_slice() else {
        return Err(format!("viewpoint {spec:?} must be altitude,pitch,heading").into());
    };
    Ok(Viewpoint {
        altitude: altitude.trim().parse()?,
        pitch_deg: pitch.trim().parse()?,
        heading_deg: heading.trim().parse()?,
    })
}

/// Parses a `label,x0,y0,x1,y1` keypoint box.
fn parse_box(spec: &str) -> Result<Annotation, Box<dyn Error>> {
    let parts: Vec<&str> = spec.split(',').collect();
    let [label, x0, y0, x1, y1] = parts.as_slice() else {
        return Err(format!("box {spec:?} must be label,x0,y0,x1,y1").into());
    };
    let class = ObjectClass::ALL
        .into_iter()
        .find(|c| c.label() == label.trim())
        .ok_or_else(|| format!("unknown box label {:?}", label.trim()))?;
    Ok(Annotation {
        class,
        bbox: BBox::new(
            x0.trim().parse()?,
            y0.trim().parse()?,
            x1.trim().parse()?,
            y1.trim().parse()?,
        ),
    })
}

/// Writes one NDJSON line per aggregated span path followed by one per
/// registered metric.
fn write_obs_ndjson(
    path: &str,
    trace: &aero_obs::Trace,
    metrics: &aero_obs::MetricsSnapshot,
) -> Result<(), Box<dyn Error>> {
    use aero_obs::TraceSink;
    let mut sink = aero_obs::NdjsonTraceSink::new();
    sink.consume(trace);
    let mut lines = sink.take_lines();
    lines.extend(metrics.render_ndjson());
    let mut body = lines.join("\n");
    body.push('\n');
    std::fs::write(path, body)?;
    Ok(())
}

/// Runs one conditioned generation under span collection and prints the
/// profile: the aggregated span tree (inclusive / self wall-clock per
/// stage) and the process-global metric registry.
fn cmd_profile(args: &[String]) -> Result<(), Box<dyn Error>> {
    apply_kernel_flags(args)?;
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("profile requires a model directory")?;
    let seed: u64 = parse_flag(args, "--seed").map(|v| v.parse()).transpose()?.unwrap_or(7);
    let config = scale_config(args);
    let pipeline = AeroDiffusionPipeline::load(dir, config)?;
    let dataset = build_dataset(&DatasetConfig {
        n_scenes: 1,
        image_size: config.vision.image_size,
        seed: seed ^ 0x5EED,
        generator: SceneGeneratorConfig::default(),
    });
    let item = &dataset.items[0];
    let mut rng = StdRng::seed_from_u64(seed);
    let (image, trace) = aero_obs::span::collect(|| pipeline.generate(item, &mut rng));
    let metrics = aero_obs::global().snapshot();
    println!(
        "profiled one generate() at seed {seed} ({}x{} output)",
        image.width(),
        image.height()
    );
    println!("\n== span tree ==");
    let mut tree = aero_obs::TableTraceSink::new();
    aero_obs::TraceSink::consume(&mut tree, &trace);
    print!("{}", tree.take_rendered());
    println!("\n== metrics ==");
    print!("{}", metrics.render_table());
    if let Some(path) = parse_flag(args, "--ndjson") {
        write_obs_ndjson(&path, &trace, &metrics)?;
        println!("\nwrote NDJSON profile to {path}");
    }
    Ok(())
}

/// The trained weights to serve: a persisted model directory, or a
/// smoke-scale pipeline trained in-process for `--demo`.
fn serve_snapshot(
    args: &[String],
    config: PipelineConfig,
) -> Result<PipelineSnapshot, Box<dyn Error>> {
    if args.iter().any(|a| a == "--demo") {
        let n_scenes: usize =
            parse_flag(args, "--scenes").map(|v| v.parse()).transpose()?.unwrap_or(6);
        let seed: u64 = parse_flag(args, "--seed").map(|v| v.parse()).transpose()?.unwrap_or(42);
        eprintln!("--demo: training a throwaway {n_scenes}-scene pipeline in-process…");
        let dataset = build_dataset(&DatasetConfig {
            n_scenes,
            image_size: config.vision.image_size,
            seed,
            generator: SceneGeneratorConfig::default(),
        });
        Ok(AeroDiffusionPipeline::fit(&dataset, config, seed).snapshot())
    } else {
        let dir = args
            .first()
            .filter(|a| !a.starts_with("--"))
            .ok_or("serve requires a model directory or --demo")?;
        Ok(AeroDiffusionPipeline::load(dir, config)?.snapshot())
    }
}

/// Splits a `name[@version]` model spec.
fn parse_model_spec(spec: &str) -> Result<(&str, Option<u32>), Box<dyn Error>> {
    match spec.split_once('@') {
        None => Ok((spec, None)),
        Some((name, version)) => Ok((name, Some(version.parse()?))),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn Error>> {
    apply_kernel_flags(args)?;
    let registry = parse_flag(args, "--registry")
        .map(|dir| ModelRegistry::open(std::path::Path::new(&dir)))
        .transpose()?;
    let model_spec = parse_flag(args, "--model");
    let snapshot = match (&registry, &model_spec) {
        (Some(registry), Some(spec)) => {
            // Boot straight from the registry artifact (CRC-verified).
            let (name, version) = parse_model_spec(spec)?;
            let entry = registry.resolve(name, version)?;
            eprintln!("booting registry model {}@{}", entry.name, entry.version);
            snapshot_from_artifact(&registry.open_artifact(&entry)?)?
        }
        (None, Some(_)) => return Err("--model requires --registry".into()),
        _ => serve_snapshot(args, scale_config(args))?,
    };
    let mut serve = ServeConfig::for_pipeline(snapshot.config());
    if let Some(v) = parse_flag(args, "--replicas") {
        serve.replicas = v.parse()?;
    }
    if let Some(v) = parse_flag(args, "--workers") {
        serve.workers = v.parse()?;
    }
    if let Some(v) = parse_flag(args, "--max-batch") {
        serve.max_batch = v.parse()?;
    }
    if let Some(v) = parse_flag(args, "--queue") {
        serve.queue_capacity = v.parse()?;
    }
    if let Some(v) = parse_flag(args, "--batch-wait-ms") {
        serve.batch_wait = Duration::from_millis(v.parse()?);
    }
    if let Some(v) = parse_flag(args, "--cache") {
        serve.cache_capacity = v.parse()?;
    }
    if let Some(v) = parse_flag(args, "--steps") {
        serve.steps = v.parse()?;
    }
    if let Some(v) = parse_flag(args, "--guidance") {
        serve.guidance_scale = v.parse()?;
    }
    if let Some(v) = parse_flag(args, "--max-worker-restarts") {
        serve.max_worker_restarts = v.parse()?;
    }
    // Admission control: every gate defaults off; setting a flag arms it.
    if let Some(v) = parse_flag(args, "--tenant-rate") {
        serve.admission.tenant_rate = v.parse()?;
    }
    if let Some(v) = parse_flag(args, "--tenant-burst") {
        serve.admission.tenant_burst = v.parse()?;
    }
    if let Some(v) = parse_flag(args, "--shed-queue-depth") {
        serve.admission.shed_queue_depth = v.parse()?;
    }
    if let Some(v) = parse_flag(args, "--shed-p95-ms") {
        serve.admission.shed_p95_us = v.parse::<u64>()?.saturating_mul(1000);
    }
    if args.iter().any(|a| a == "--stream") {
        serve.stream_previews = true;
    }
    let mut plan = FaultPlan::new();
    let mut armed = false;
    if let Some(list) = parse_flag(args, "--inject-panic-at") {
        for ordinal in list.split(',') {
            plan = plan.inject(ordinal.trim().parse()?, Fault::PanicRequest);
        }
        eprintln!("fault injection armed: worker panic on request(s) {list}");
        armed = true;
    }
    if let Some(list) = parse_flag(args, "--inject-replica-kill-at") {
        for ordinal in list.split(',') {
            plan = plan.inject_replica_kill(ordinal.trim().parse()?);
        }
        eprintln!("fault injection armed: replica kill on request(s) {list}");
        armed = true;
    }
    let faults = armed.then(|| std::sync::Arc::new(plan));
    let report = lint_serve(snapshot.config(), &serve);
    if !report.is_clean() {
        eprint!("{}", report.render());
        return Err("serving configuration failed the static lint".into());
    }
    eprintln!(
        "serving NDJSON on stdin → stdout ({} replica(s) × {} worker(s), max batch {}, queue {})",
        serve.replicas, serve.workers, serve.max_batch, serve.queue_capacity
    );
    let runtime = ServeRuntime::start_with_faults(snapshot, serve, faults);
    if let Some(registry) = registry {
        runtime.set_registry(registry);
        // Record the boot model as active so `models`/`swap` replies and
        // later hot-swaps line up with what is actually serving.
        if let Some(spec) = &model_spec {
            let (name, version) = parse_model_spec(spec)?;
            runtime.swap_from_registry(name, version)?;
        }
    }
    let stats = serve_ndjson(runtime, std::io::stdin().lock(), std::io::stdout())?;
    eprintln!(
        "drained: {} served, {} rejected ({} shed, {} cancelled), cache hit rate {:.0}%, \
         {} worker panic(s) caught, {} worker restart(s), \
         {} replica kill(s) / {} respawn(s), {} rerouted",
        stats.completed,
        stats.rejected_queue_full
            + stats.rejected_deadline
            + stats.rejected_shutting_down
            + stats.rejected_worker_failure
            + stats.rejected_worker_error
            + stats.rejected_overloaded
            + stats.rejected_cancelled,
        stats.rejected_overloaded,
        stats.rejected_cancelled,
        stats.cache_hit_rate * 100.0,
        stats.worker_panics,
        stats.worker_restarts,
        stats.replica_kills,
        stats.replica_respawns,
        stats.rerouted_requests
    );
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), Box<dyn Error>> {
    let configs: Vec<(String, PipelineConfig)> = if args.iter().any(|a| a == "--all") {
        vec![
            ("paper".to_string(), PipelineConfig::paper()),
            ("small".to_string(), PipelineConfig::small()),
            ("smoke".to_string(), PipelineConfig::smoke()),
        ]
    } else {
        let name = parse_flag(args, "--scale").unwrap_or_else(|| "smoke".to_string());
        let config = match name.as_str() {
            "paper" => PipelineConfig::paper(),
            "small" => PipelineConfig::small(),
            "smoke" => PipelineConfig::smoke(),
            other => {
                return Err(format!("unknown --scale '{other}' (expected smoke|small|paper)").into())
            }
        };
        vec![(name, config)]
    };
    let mut failed = false;
    for (name, config) in configs {
        // The serve lint is a strict superset of the pipeline lint: it
        // runs the same shape program and adds the batcher's contract.
        let report = lint_serve(&config, &ServeConfig::for_pipeline(&config));
        println!("== {name} ==");
        print!("{}", report.render());
        failed |= !report.is_clean();
    }
    if args.iter().any(|a| a == "--all") {
        // Config-independent: the checkpoint/persistence integrity
        // machinery (CRC32, manifest round-trip, version gating).
        let report = aerodiffusion::lint_checkpoint();
        println!("== checkpoint ==");
        print!("{}", report.render());
        failed |= !report.is_clean();
        // Source-level: all six token-level passes over the workspace
        // tree (AD0111 fallible kernels on serving paths, AD0112 backend
        // dispatch, AD0200 lock order, AD0201 atomics, AD0202
        // determinism, AD0203 worker panics). A no-op away from a
        // checkout.
        let source_root = parse_flag(args, "--source-root").unwrap_or_else(|| ".".to_string());
        let report = aerodiffusion::lint_source_all(std::path::Path::new(&source_root));
        println!("== source ==");
        if let Some(path) = parse_flag(args, "--write-baseline") {
            let baseline = aerodiffusion::Baseline::from_report(&report);
            std::fs::write(&path, baseline.render())?;
            println!("wrote {} accepted finding(s) to {path}", baseline.len());
        } else if let Some(path) = parse_flag(args, "--baseline") {
            // Diff mode: accepted findings don't block, anything new does
            // — warnings included, which is what makes the warning-level
            // passes enforceable at all.
            let baseline = aerodiffusion::Baseline::parse(&std::fs::read_to_string(&path)?);
            let diff = baseline.diff(&report);
            print!("{}", diff.render());
            failed |= !diff.is_clean();
        } else {
            print!("{}", report.render());
            failed |= !report.is_clean();
        }
    }
    if failed {
        return Err("lint found errors".into());
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), Box<dyn Error>> {
    let dir = args.first().ok_or("info requires a model directory")?;
    let meta = std::fs::read_to_string(std::path::Path::new(dir).join("meta.txt"))?;
    let vocab = std::fs::read_to_string(std::path::Path::new(dir).join("vocab.txt"))?;
    println!("pipeline at {dir}:");
    for line in meta.lines() {
        println!("  {line}");
    }
    println!("  vocabulary: {} entries", vocab.lines().count());
    for f in ["clip.aero", "vae.aero", "detector.aero", "condition.aero", "unet.aero"] {
        let size = std::fs::metadata(std::path::Path::new(dir).join(f))?.len();
        println!("  {f}: {size} bytes");
    }
    Ok(())
}

fn cmd_model(args: &[String]) -> Result<(), Box<dyn Error>> {
    match args.first().map(String::as_str) {
        Some("export") => cmd_model_export(&args[1..]),
        Some("inspect") => cmd_model_inspect(&args[1..]),
        Some("list") => cmd_model_list(&args[1..]),
        _ => Err("usage: model <export|inspect|list> … (see top-level usage)".into()),
    }
}

/// Packs a persisted pipeline directory into one `.amdl` artifact,
/// optionally quantized, optionally published into a registry, with the
/// per-layer quantization-error report on stderr.
fn cmd_model_export(args: &[String]) -> Result<(), Box<dyn Error>> {
    apply_kernel_flags(args)?;
    let dir = args.first().ok_or("model export requires a model directory")?;
    let out = args.get(1).ok_or("model export requires an output .amdl path")?;
    let config = scale_config(args);
    let quant = if args.iter().any(|a| a == "--q8") { Quantization::Q8 } else { Quantization::F32 };
    let snapshot = AeroDiffusionPipeline::load(dir, config)?.snapshot();
    let report = write_snapshot(&snapshot, quant, std::path::Path::new(out))?;
    println!(
        "wrote {out}: {} bytes ({} quantization, {:.1}% of the dense f32 payload)",
        report.artifact_bytes,
        quant.tag(),
        report.size_ratio() * 100.0
    );
    if quant == Quantization::Q8 {
        eprintln!("per-layer quantization error (max_abs / mean_abs):");
        for layer in &report.layers {
            eprintln!(
                "  {:<16} {:>10} elems  {:.6} / {:.6}",
                layer.name, layer.numel, layer.max_abs_error, layer.mean_abs_error
            );
        }
        eprintln!(
            "overall: max_abs {:.6}, mean_abs {:.6}",
            report.max_abs_error, report.mean_abs_error
        );
    }
    if let Some(scenes) = parse_flag(args, "--quality-scenes") {
        let scenes: usize = scenes.parse()?;
        eprintln!("measuring q8 quality delta on {scenes} scenes…");
        let delta = aero_model::quality_delta(&snapshot, scenes, 17)?;
        println!(
            "quality delta (q8 - f32): FID {:+.4} ({:.4} → {:.4}), CLIP {:+.4} ({:.4} → {:.4})",
            delta.fid_delta(),
            delta.fid_f32,
            delta.fid_q8,
            delta.clip_delta(),
            delta.clip_f32,
            delta.clip_q8
        );
    }
    if let Some(registry_dir) = parse_flag(args, "--registry") {
        let name = parse_flag(args, "--name").ok_or("--registry requires --name")?;
        let registry = ModelRegistry::open(std::path::Path::new(&registry_dir))?;
        let entry = registry.publish(&name, &std::fs::read(out)?)?;
        println!("published {}@{} to {registry_dir} ({})", entry.name, entry.version, entry.file);
    }
    Ok(())
}

/// Verifies and prints one artifact: metadata section plus tensor table.
fn cmd_model_inspect(args: &[String]) -> Result<(), Box<dyn Error>> {
    let path = args.first().ok_or("model inspect requires an artifact path")?;
    let artifact = ModelArtifact::read(std::path::Path::new(path))?;
    println!(
        "{path}: {} bytes, checksum verified, {}",
        artifact.file_len(),
        if artifact.is_mapped() { "memory-mapped" } else { "buffered read" }
    );
    println!("metadata:");
    for (key, value) in artifact.kv() {
        let shown = if value.len() > 64 {
            format!("{}… ({} bytes)", &value[..value.len().min(48)], value.len())
        } else {
            value.clone()
        };
        println!("  {key} = {}", shown.replace('\n', "\\n"));
    }
    println!("tensors:");
    for info in artifact.tensor_infos() {
        println!(
            "  {:<16} {:?} shape {:?} at +{} ({} bytes)",
            info.name, info.dtype, info.shape, info.offset, info.byte_len
        );
    }
    Ok(())
}

/// Prints a registry's index with per-entry integrity states.
fn cmd_model_list(args: &[String]) -> Result<(), Box<dyn Error>> {
    let dir = args.first().ok_or("model list requires a registry directory")?;
    let registry = ModelRegistry::open(std::path::Path::new(dir))?;
    let entries = registry.entries()?;
    if entries.is_empty() {
        println!("registry {dir} is empty");
        return Ok(());
    }
    println!("registry {dir}:");
    for entry in &entries {
        let state = match registry.verify(entry)? {
            aero_model::IntegrityState::Verified => "verified".to_string(),
            aero_model::IntegrityState::Missing => "MISSING".to_string(),
            aero_model::IntegrityState::Corrupt { detail } => format!("CORRUPT ({detail})"),
        };
        println!(
            "  {}@{}  {}  {} bytes  crc {:08x}  {state}",
            entry.name, entry.version, entry.file, entry.len, entry.crc32
        );
    }
    Ok(())
}
