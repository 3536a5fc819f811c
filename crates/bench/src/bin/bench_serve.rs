//! Serving-throughput benchmark: batching, replica scale-out, and
//! admission under overload.
//!
//! Three sections, all against one smoke-scale trained pipeline:
//!
//! 1. **batch caps** — the same request burst served by one worker with
//!    the micro-batcher capped at 1, 4 and 8, so the measured difference
//!    is purely what coalescing buys: one `[n, c, h, w]` sampler call
//!    amortises the per-op graph overhead that `n` separate
//!    `[1, c, h, w]` calls pay `n` times.
//! 2. **replica fleet** — the burst routed over 1, 2 and 4 replica
//!    groups (one worker each), measuring what independent groups add on
//!    a multi-core host.
//! 3. **overload** — a burst of 2× the armed queue-depth gate, measuring
//!    the shed rate and asserting every shed is a typed `overloaded`
//!    reply (and every admitted request is still served).
//!
//! A warmup request per prompt runs first so worker start-up and
//! condition encoding are excluded from the measured window.
//!
//! Writes `BENCH_serve.json` to the working directory.
//! `BENCH_SERVE_SMOKE=1` shrinks the workload and skips the file write —
//! used by CI as a threshold-free liveness check.

use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aero_serve::{GenerateRequest, Json, RejectReason, ServeConfig, ServeReply, ServeRuntime};
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig, PipelineSnapshot};
use std::time::{Duration, Instant};

const PROMPTS: [&str; 8] = [
    "an aerial view of a park",
    "a parking lot at night",
    "a dense downtown block",
    "a river through farmland",
    "a harbor at dawn",
    "a stadium from above",
    "a suburban cul-de-sac",
    "an industrial rail yard",
];
const STEPS: usize = 4;

struct Run {
    label: &'static str,
    knob: usize,
    req_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    mean_batch: f64,
}

fn percentile_ms(sorted_us: &[u64], q: f64) -> f64 {
    let i = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[i] as f64 / 1000.0
}

fn image_of(reply: ServeReply) -> aero_serve::GeneratedImage {
    match reply {
        ServeReply::Image(img) => img,
        ServeReply::Rejected { id, reason } => panic!("request {id} rejected: {reason}"),
        ServeReply::Preview(p) => panic!("wait() must not surface previews ({})", p.id),
    }
}

/// Serves a warm `requests`-deep burst and measures throughput/latency.
fn measure(
    snapshot: &PipelineSnapshot,
    label: &'static str,
    knob: usize,
    requests: usize,
    configure: impl Fn(&mut ServeConfig),
) -> Run {
    let mut config = ServeConfig::for_pipeline(snapshot.config());
    config.workers = 1;
    config.max_batch = 4;
    config.queue_capacity = requests + PROMPTS.len();
    config.batch_wait = Duration::from_millis(5);
    config.steps = STEPS;
    configure(&mut config);
    let runtime = ServeRuntime::start(snapshot.clone(), config);
    // Warmup: start every worker and fill the condition caches.
    for (i, prompt) in PROMPTS.iter().enumerate() {
        let handle = runtime
            .submit(GenerateRequest::new(format!("warm-{i}"), *prompt, 1000 + i as u64))
            .expect("warmup submit");
        let _ = image_of(handle.wait());
    }
    // Measured burst: everything is queued up front, so the batcher can
    // coalesce up to its cap on every pop.
    let started = Instant::now();
    let handles: Vec<_> = (0..requests)
        .map(|i| {
            runtime
                .submit(GenerateRequest::new(format!("r{i}"), PROMPTS[i % PROMPTS.len()], i as u64))
                .expect("burst submit")
        })
        .collect();
    let mut latencies_us = Vec::with_capacity(requests);
    let mut batch_total = 0usize;
    for handle in handles {
        let img = image_of(handle.wait());
        latencies_us.push(img.latency.total_us());
        batch_total += img.batch_size;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let stats = runtime.shutdown();
    assert_eq!(stats.completed as usize, requests + PROMPTS.len(), "zero dropped requests");
    latencies_us.sort_unstable();
    Run {
        label,
        knob,
        req_per_sec: requests as f64 / elapsed,
        p50_ms: percentile_ms(&latencies_us, 0.50),
        p95_ms: percentile_ms(&latencies_us, 0.95),
        mean_batch: batch_total as f64 / requests as f64,
    }
}

/// Floods a depth-gated runtime with 2× its shed threshold and measures
/// the typed shed rate; every admitted request must still be served.
fn measure_overload(snapshot: &PipelineSnapshot, shed_depth: usize) -> (usize, usize, f64) {
    let mut config = ServeConfig::for_pipeline(snapshot.config());
    config.workers = 1;
    config.max_batch = 4;
    config.batch_wait = Duration::from_millis(5);
    config.steps = STEPS;
    config.queue_capacity = 4 * shed_depth;
    config.admission.shed_queue_depth = shed_depth;
    let runtime = ServeRuntime::start(snapshot.clone(), config);
    let offered = 2 * shed_depth;
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for i in 0..offered {
        match runtime.submit(GenerateRequest::new(
            format!("o{i}"),
            PROMPTS[i % PROMPTS.len()],
            i as u64,
        )) {
            Ok(handle) => accepted.push(handle),
            Err(RejectReason::Overloaded { .. }) => shed += 1,
            Err(reason) => panic!("overload must shed typed `overloaded`, got {reason}"),
        }
    }
    let served = accepted.len();
    for handle in accepted {
        let _ = image_of(handle.wait());
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.completed as usize, served, "every admitted request is served");
    assert_eq!(stats.rejected_overloaded as usize, shed);
    (offered, shed, shed as f64 / offered as f64)
}

fn main() {
    let smoke = std::env::var("BENCH_SERVE_SMOKE").is_ok_and(|v| v == "1");
    let requests = if smoke { 8 } else { 24 };
    let batch_caps: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 8] };
    let replica_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let config = PipelineConfig::smoke();
    println!(
        "bench_serve: training a smoke pipeline once, serving {requests}-request bursts{}…",
        if smoke { " (smoke mode)" } else { "" }
    );
    let dataset = build_dataset(&DatasetConfig {
        n_scenes: 4,
        image_size: config.vision.image_size,
        seed: 17,
        generator: SceneGeneratorConfig::default(),
    });
    let snapshot = AeroDiffusionPipeline::fit(&dataset, config, 17).snapshot();

    // Section 1: what coalescing buys, one worker, one replica.
    let batch_runs: Vec<Run> = batch_caps
        .iter()
        .map(|&b| measure(&snapshot, "max_batch", b, requests, |c| c.max_batch = b))
        .collect();
    // Section 2: what replica groups buy, one worker per group.
    let fleet_runs: Vec<Run> = replica_counts
        .iter()
        .map(|&r| measure(&snapshot, "replicas", r, requests, |c| c.replicas = r))
        .collect();
    println!(
        "{:>10} {:>6} {:>12} {:>10} {:>10} {:>11}",
        "knob", "value", "req/sec", "p50 ms", "p95 ms", "mean batch"
    );
    for run in batch_runs.iter().chain(&fleet_runs) {
        println!(
            "{:>10} {:>6} {:>12.2} {:>10.2} {:>10.2} {:>11.2}",
            run.label, run.knob, run.req_per_sec, run.p50_ms, run.p95_ms, run.mean_batch
        );
    }
    let last = batch_runs.len() - 1;
    let speedup = batch_runs[last].req_per_sec / batch_runs[0].req_per_sec;
    println!("batch-{} vs batch-1 throughput: {speedup:.2}x", batch_runs[last].knob);
    assert!(
        batch_runs[last].req_per_sec > batch_runs[0].req_per_sec,
        "coalescing must beat serial batch-1 serving"
    );

    // Section 3: shed rate at 2× the depth gate.
    let shed_depth = requests / 2;
    let (offered, shed, shed_rate) = measure_overload(&snapshot, shed_depth);
    println!(
        "overload: offered {offered} against a depth gate of {shed_depth} → \
         {shed} shed ({:.0}% of offered), all typed",
        shed_rate * 100.0
    );
    assert!(shed > 0, "a 2x-capacity burst must shed load");

    if smoke {
        println!("smoke mode: skipping BENCH_serve.json write");
        return;
    }
    let run_json = |r: &Run| {
        Json::obj(vec![
            (r.label, r.knob.into()),
            ("req_per_sec", r.req_per_sec.into()),
            ("p50_ms", r.p50_ms.into()),
            ("p95_ms", r.p95_ms.into()),
            ("mean_batch", r.mean_batch.into()),
        ])
    };
    let json = Json::obj(vec![
        ("bench", "serve".into()),
        ("requests", requests.into()),
        ("steps", STEPS.into()),
        ("workers", 1u64.into()),
        ("results", Json::Arr(batch_runs.iter().map(run_json).collect())),
        ("fleet", Json::Arr(fleet_runs.iter().map(run_json).collect())),
        (
            "overload",
            Json::obj(vec![
                ("offered", offered.into()),
                ("shed_queue_depth", shed_depth.into()),
                ("shed", shed.into()),
                ("shed_rate", shed_rate.into()),
            ]),
        ),
        ("batch8_vs_batch1_speedup", speedup.into()),
    ]);
    std::fs::write("BENCH_serve.json", format!("{}\n", json.render()))
        .expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
