//! `aerobench_layers`: the in-process half of a traced `aerobench` run.
//!
//! Calls each layer's public functions directly, one layer operation at
//! a time, and records for every call a span (written as NDJSON to
//! `--spans`), its wall time, and the allocations and bytes it requested
//! through a counting global allocator. Prints one JSON line:
//! `{"calls":N,"metrics":{"<op>.p50_us"|".allocs"|".bytes":{"value","unit"}}}`.
//!
//! Model, serve and encode layers run on the smoke model the serve
//! workloads boot (`--artifact`); diffusion, nn and tensor layers run on
//! randomly initialised paper- and smoke-preset UNets, which cost the
//! same as trained ones. Allocation counts are per call: with the same
//! seed they repeat exactly from run to run.

use aero_diffusion::{
    CondUnet, DdimSampler, DiffusionTrainer, NoiseSchedule, SampleOptions, Sampler,
};
use aero_model::{snapshot_from_artifact, ModelArtifact};
use aero_nn::optim::Adam;
use aero_nn::{Module, Var};
use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aero_serve::{GenerateRequest, GeneratedImage, ServeReply, StageLatency};
use aero_tensor::Tensor;
use aerobench::json::Json;
use aerobench::lines::{LineGen, Mix};
use aerobench::{stats, Span};
use aerodiffusion::lint::unet_config;
use aerodiffusion::{PipelineConfig, TaskSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation (and reallocation) and the bytes requested,
/// then defers to the system allocator.
struct Counting;

#[global_allocator]
static COUNTING: Counting = Counting;

fn count(bytes: usize) {
    // lint: relaxed-ok(allocation statistics publish no other data)
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // lint: relaxed-ok(allocation statistics publish no other data)
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

fn counters() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only two
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System`; the caller's contract holds.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Times layer operations and collects their spans and metrics.
struct Probe {
    epoch: Instant,
    ns_offset: u64,
    next_id: u64,
    spans: Vec<Span>,
    metrics: Vec<(String, f64, &'static str)>,
    calls: usize,
    /// Time after which an operation stops repeating (once it has run
    /// `min_passes` passes).
    budget: Duration,
    min_passes: usize,
    /// Most timed calls per operation.
    max_calls: usize,
}

impl Probe {
    /// Times `call` once per input per pass, after one untimed warm-up
    /// pass. `setup` prepares each call's owned argument outside the
    /// timed window, and the call's result is dropped outside it too.
    fn layer<I, S, T>(
        &mut self,
        op: &str,
        inputs: &[I],
        mut setup: impl FnMut(&I) -> S,
        mut call: impl FnMut(&I, S) -> T,
    ) {
        assert!(!inputs.is_empty(), "{op}: no inputs");
        for input in inputs {
            let arg = setup(input);
            black_box(call(input, arg));
        }
        let started = Instant::now();
        let (mut micros, mut allocs, mut bytes) = (Vec::new(), 0u64, 0u64);
        let mut passes = 0;
        while passes < self.min_passes
            || (started.elapsed() < self.budget && micros.len() + inputs.len() <= self.max_calls)
        {
            for (i, input) in inputs.iter().enumerate() {
                let arg = setup(input);
                let (a0, b0) = counters();
                let t0 = Instant::now();
                let out = call(input, arg);
                let t1 = Instant::now();
                let (a1, b1) = counters();
                drop(black_box(out));
                allocs += a1 - a0;
                bytes += b1 - b0;
                micros.push((t1 - t0).as_secs_f64() * 1e6);
                let ns = |t: Instant| self.ns_offset + (t - self.epoch).as_nanos() as u64;
                self.spans.push(Span {
                    id: self.next_id,
                    parent: None,
                    op: op.to_string(),
                    name: format!("{passes}.{i}"),
                    start_ns: ns(t0),
                    end_ns: ns(t1),
                });
                self.next_id += 1;
            }
            passes += 1;
        }
        let n = micros.len() as f64;
        self.calls += micros.len();
        let p50 = stats::median(&stats::sorted(&micros));
        self.metrics.push((format!("{op}.p50_us"), p50, "us"));
        self.metrics.push((format!("{op}.allocs"), allocs as f64 / n, "count"));
        self.metrics.push((format!("{op}.bytes"), bytes as f64 / n, "B"));
    }
}

struct Args {
    seed: u64,
    artifact: PathBuf,
    spans: PathBuf,
    span_base: u64,
    ns_offset: u64,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        artifact: PathBuf::new(),
        spans: PathBuf::new(),
        span_base: 0,
        ns_offset: 0,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--artifact" => args.artifact = value()?.into(),
            "--spans" => args.spans = value()?.into(),
            "--span-base" => args.span_base = value()?.parse().map_err(|e| format!("{e}"))?,
            "--ns-offset" => args.ns_offset = value()?.parse().map_err(|e| format!("{e}"))?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.artifact.as_os_str().is_empty() || args.spans.as_os_str().is_empty() {
        return Err("--artifact and --spans are required".into());
    }
    Ok(args)
}

/// Serve-side layers on the artifact the serve workloads booted from:
/// load, hydrate, wire decode/encode, and the encode and decode stages.
fn serve_layers(p: &mut Probe, args: &Args, lines: usize) -> Result<(), String> {
    let path = &args.artifact;
    let read = || ModelArtifact::read(path).map_err(|e| format!("read {}: {e}", path.display()));
    p.layer("model.artifact_read", &[()], |()| (), |(), ()| read().expect("read once above"));
    let artifact = read()?;
    let snapshot = |a: &ModelArtifact| snapshot_from_artifact(a).map_err(|e| format!("{e}"));
    p.layer(
        "model.snapshot_from_artifact",
        &[()],
        |()| (),
        |(), ()| snapshot(&artifact).expect("decoded once above"),
    );
    let snapshot = snapshot(&artifact)?;
    let pipeline = snapshot.hydrate().map_err(|e| format!("hydrate: {e}"))?;
    p.layer(
        "core.hydrate",
        &[()],
        |()| (),
        |(), ()| snapshot.hydrate().expect("hydrated once above"),
    );

    // The exact lines the serve_mixed run sends (same seed, same stream).
    let mut gen = LineGen::new(Mix::Mixed, args.seed, "r");
    let lines: Vec<String> = (0..lines).map(|_| gen.next_line().text).collect();
    let decode = |line: &String| {
        let v = aero_serve::Json::parse(line).map_err(|e| format!("{e}"))?;
        GenerateRequest::from_json(&v, "fallback")
    };
    let requests = lines.iter().map(decode).collect::<Result<Vec<_>, _>>()?;
    p.layer("serve.request_decode", &lines, |_| (), |line, ()| decode(line));
    let replies: Vec<ServeReply> = requests
        .iter()
        .take(16)
        .enumerate()
        .map(|(i, r)| {
            let side = pipeline.config().vision.image_size;
            ServeReply::Image(GeneratedImage {
                id: r.id.clone(),
                width: side,
                height: side,
                rgb8: (0..3 * side * side).map(|k| ((k * 31 + i * 7) % 256) as u8).collect(),
                latency: StageLatency {
                    queue_us: 900,
                    encode_us: 0,
                    sample_us: 9_000,
                    decode_us: 400,
                },
                batch_size: 4,
                cache_hit: false,
            })
        })
        .collect();
    p.layer("serve.reply_encode", &replies, |_| (), |reply, ()| reply.to_json().render());

    // Text requests encode against the server's fixed reference scene and
    // caption (reference seed 0), exactly as a replica does.
    let reference = build_dataset(&DatasetConfig {
        n_scenes: 1,
        image_size: pipeline.config().vision.image_size,
        seed: 0,
        generator: SceneGeneratorConfig::default(),
    });
    let item = &reference.items[0];
    let caption_g = pipeline.caption_for(item, &mut StdRng::seed_from_u64(0));
    let specs = |kind: &str| -> Vec<TaskSpec> {
        requests
            .iter()
            .filter(|r| r.task_kind().as_str() == kind)
            .take(16)
            .map(|r| match &r.task {
                None => TaskSpec::text(item, &caption_g, &r.prompt),
                Some(task) => task.to_spec(&r.prompt),
            })
            .collect()
    };
    for kind in ["text", "view", "inpaint"] {
        p.layer(
            &format!("core.encode_task.{kind}"),
            &specs(kind),
            |_| (),
            |t, ()| pipeline.encode_task(t),
        );
    }
    let sources: Vec<_> = specs("inpaint")
        .into_iter()
        .filter_map(|t| match t {
            TaskSpec::Inpaint { source, .. } => Some(source),
            _ => None,
        })
        .collect();
    p.layer(
        "core.encode_image_latent",
        &sources,
        |_| (),
        |img, ()| pipeline.encode_image_latent(img),
    );
    let mut rng = StdRng::seed_from_u64(args.seed);
    let latents: Vec<Tensor> =
        (0..4).map(|_| Tensor::randn(&pipeline.latent_shape(), &mut rng)).collect();
    p.layer("core.decode_latent", &latents, |_| (), |z, ()| pipeline.decode_latent(z));
    Ok(())
}

/// A DDIM run at a preset's serve/sample settings on a random UNet.
fn sampler_layer(p: &mut Probe, op: &str, config: &PipelineConfig, batch: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let unet = CondUnet::new(unet_config(config), &mut rng);
    let schedule = NoiseSchedule::new(config.diffusion.schedule, config.diffusion.timesteps);
    let sampler = Sampler::Ddim(DdimSampler::new(
        config.diffusion.ddim_steps,
        config.diffusion.guidance_scale,
    ));
    let side = config.vision.image_size / 4;
    let z = Tensor::randn(&[batch, unet.config().in_channels, side, side], &mut rng);
    let cond = Tensor::randn(&[batch, config.cond_dim()], &mut rng);
    p.layer(
        op,
        &[()],
        |()| z.clone(),
        |(), z| sampler.run(&unet, &schedule, SampleOptions::from_latent(z).with_cond(&cond)),
    );
}

/// UNet, kernel and training layers at paper-preset shapes.
fn paper_layers(p: &mut Probe, seed: u64) {
    let paper = PipelineConfig::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let unet = CondUnet::new(unet_config(&paper), &mut rng);
    let (c, side) = (unet.config().in_channels, paper.vision.image_size / 4);
    let z1 = Tensor::randn(&[1, c, side, side], &mut rng);
    let c1 = Tensor::randn(&[1, paper.cond_dim()], &mut rng);
    let z2 = Tensor::randn(&[2, c, side, side], &mut rng);
    let c2 = Tensor::randn(&[2, paper.cond_dim()], &mut rng);
    let t = paper.diffusion.timesteps / 2;
    p.layer(
        "diffusion.unet_predict.paper_b1",
        &[()],
        |()| (),
        |(), ()| unet.predict(&z1, &[t], Some(&c1)),
    );
    p.layer(
        "diffusion.unet_predict.paper_b1_uncond",
        &[()],
        |()| (),
        |(), ()| unet.predict(&z1, &[t], None),
    );
    p.layer(
        "diffusion.unet_predict.paper_b2",
        &[()],
        |()| (),
        |(), ()| unet.predict(&z2, &[t, t], Some(&c2)),
    );

    // The UNet's hottest kernel shapes: a base-width 3×3 convolution on
    // the latent grid, and an attention projection over the bottleneck
    // tokens ((side/2)² tokens × 2·base channels).
    let base = paper.unet_channels;
    let x = Tensor::randn(&[1, base, side, side], &mut rng);
    let w = Tensor::randn(&[base, base, 3, 3], &mut rng);
    let b = Tensor::randn(&[base], &mut rng);
    p.layer("tensor.conv2d.unet_3x3", &[()], |()| (), |(), ()| x.conv2d(&w, Some(&b), 1, 1));
    let tokens = Tensor::randn(&[(side / 2) * (side / 2), 2 * base], &mut rng);
    let proj = Tensor::randn(&[2 * base, 2 * base], &mut rng);
    p.layer("tensor.matmul.unet_attn", &[()], |()| (), |(), ()| tokens.matmul(&proj));

    let batch = paper.diffusion_batch_size;
    let trainer = DiffusionTrainer::new(paper.diffusion);
    let z0 = Tensor::randn(&[batch, c, side, side], &mut rng);
    let cond = Var::constant(Tensor::randn(&[batch, paper.cond_dim()], &mut rng));
    // One fixed RNG per call: the same timesteps and the same dropout
    // decision every time, so every call records the same tape.
    let loss = || trainer.loss(&unet, &z0, Some(&cond), &mut StdRng::seed_from_u64(seed));
    p.layer("diffusion.trainer_loss.paper_b8", &[()], |()| (), |(), ()| loss());
    p.layer(
        "nn.backward.paper_b8",
        &[()],
        |()| {
            unet.zero_grad();
            loss()
        },
        |(), l| {
            l.backward();
            l
        },
    );
    let mut adam = Adam::new(unet.params(), paper.diffusion_lr).with_weight_decay(1e-5);
    p.layer("nn.adam_step.paper", &[()], |()| (), |(), ()| adam.step());
}

fn run(args: &Args) -> Result<Probe, String> {
    let mut p = Probe {
        epoch: Instant::now(),
        ns_offset: args.ns_offset,
        next_id: args.span_base,
        spans: Vec::new(),
        metrics: Vec::new(),
        calls: 0,
        budget: if args.smoke { Duration::ZERO } else { Duration::from_millis(300) },
        min_passes: if args.smoke { 1 } else { 3 },
        max_calls: 400,
    };
    serve_layers(&mut p, args, if args.smoke { 16 } else { 64 })?;
    let smoke = PipelineConfig::smoke();
    sampler_layer(&mut p, "diffusion.sampler_run.smoke_b1", &smoke, 1, args.seed);
    // Eight outstanding requests coalesce into batches of eight (the
    // serve workloads' measured `batch_size.mean`).
    sampler_layer(&mut p, "diffusion.sampler_run.smoke_b8", &smoke, 8, args.seed);
    sampler_layer(&mut p, "diffusion.sampler_run.paper_b1", &PipelineConfig::paper(), 1, args.seed);
    paper_layers(&mut p, args.seed);
    Ok(p)
}

fn main() -> std::process::ExitCode {
    let result = parse_args().and_then(|args| {
        let p = run(&args)?;
        let spans: String = p.spans.iter().map(|s| s.to_line() + "\n").collect();
        std::fs::write(&args.spans, spans)
            .map_err(|e| format!("write {}: {e}", args.spans.display()))?;
        Ok(p)
    });
    match result {
        Ok(p) => {
            let metrics = p.metrics.iter().map(|(name, value, unit)| {
                (name.as_str(), Json::obj([("value", (*value).into()), ("unit", (*unit).into())]))
            });
            println!(
                "{}",
                Json::obj([("calls", p.calls.into()), ("metrics", Json::obj(metrics))]).render()
            );
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("aerobench_layers: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
