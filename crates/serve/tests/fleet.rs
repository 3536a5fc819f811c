//! Pool-level end-to-end tests: worker-kill fault tolerance, admission
//! control, cancellation and streamed previews against a real
//! (smoke-scale) trained pipeline.
//!
//! The headline contracts under test:
//!
//! - **zero dropped requests** when a worker is killed mid-batch — its
//!   batch goes back to the front of the queue, a peer or the respawned
//!   worker serves it, and every reply is **byte-identical** to an
//!   unfaulted one-worker baseline;
//! - admission sheds with a *typed* `overloaded` reply (never a hang),
//!   and a retry after the pressure clears succeeds;
//! - a cancelled request provably stops sampling before its final step.

use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aero_serve::{
    serve_ndjson, Fault, FaultPlan, GenerateRequest, Json, OverloadScope, RejectReason,
    ServeConfig, ServeReply, ServeRuntime,
};
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig, PipelineSnapshot};
use std::io::{BufReader, Cursor, Read, Write};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

fn snapshot() -> &'static PipelineSnapshot {
    static SNAPSHOT: OnceLock<PipelineSnapshot> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let config = PipelineConfig::smoke();
        let ds = build_dataset(&DatasetConfig {
            n_scenes: 3,
            image_size: config.vision.image_size,
            seed: 11,
            generator: SceneGeneratorConfig::default(),
        });
        AeroDiffusionPipeline::fit(&ds, config, 7).snapshot()
    })
}

/// A pool of `workers` workers, batching wide enough that a whole
/// submission burst rides one sampler call per worker.
fn pool_config(workers: usize) -> ServeConfig {
    let mut config = ServeConfig::for_pipeline(snapshot().config());
    config.workers = workers;
    config.steps = 4; // keep sampling cheap; determinism is what's under test
    config.batch_wait = Duration::from_millis(100);
    config
}

fn image_of(reply: ServeReply) -> aero_serve::GeneratedImage {
    match reply {
        ServeReply::Image(img) => img,
        ServeReply::Rejected { id, reason } => panic!("request {id} rejected: {reason}"),
        ServeReply::Preview(p) => panic!("wait() must not surface previews, got one for {}", p.id),
    }
}

/// Polls runtime stats until `probe` holds or ~5s elapse. Respawns happen
/// on the supervisor's clock, not the test's, so assertions about them
/// must wait rather than race.
fn await_stats(runtime: &ServeRuntime, probe: impl Fn(&aero_serve::StatsReport) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !probe(&runtime.stats()) {
        assert!(Instant::now() < deadline, "stats probe never satisfied: {:?}", runtime.stats());
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Serves `(prompt, seed)` pairs on an unfaulted one-worker runtime — the
/// baseline every fault-tolerance test compares bytes against.
fn baseline_images(jobs: &[(&str, u64)]) -> Vec<Vec<u8>> {
    let runtime = ServeRuntime::start(snapshot().clone(), pool_config(1));
    let images = jobs
        .iter()
        .enumerate()
        .map(|(i, (prompt, seed))| {
            image_of(
                runtime
                    .submit(GenerateRequest::new(format!("ref{i}"), *prompt, *seed))
                    .unwrap()
                    .wait(),
            )
            .rgb8
        })
        .collect();
    let _ = runtime.shutdown();
    images
}

/// The headline fault-tolerance contract: killing a worker while it
/// holds a popped batch drops nothing, and every reply is byte-identical
/// to the unfaulted one-worker baseline.
#[test]
fn worker_kill_mid_batch_drops_nothing_and_stays_byte_identical() {
    let jobs: Vec<(&str, u64)> = vec![
        ("an aerial view of a park", 40),
        ("a parking lot at night", 41),
        ("a dense downtown block", 42),
        ("a river through farmland", 43),
        ("a harbor at dawn", 44),
        ("a stadium from above", 45),
    ];
    let baseline = baseline_images(&jobs);

    // The kill fires when the batch holding submission #0 is popped; its
    // worker dies holding that batch.
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::KillWorker));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), pool_config(2), Some(plan));
    let handles: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, (prompt, seed))| {
            runtime.submit(GenerateRequest::new(format!("k{i}"), *prompt, *seed)).unwrap()
        })
        .collect();
    let images: Vec<_> = handles.into_iter().map(|h| image_of(h.wait())).collect();
    for (i, (img, expected)) in images.iter().zip(&baseline).enumerate() {
        assert_eq!(
            &img.rgb8, expected,
            "request {i}: a worker kill must not change a single output byte"
        );
    }

    // The supervisor respawns the killed worker on its own schedule.
    await_stats(&runtime, |s| s.worker_restarts >= 1);
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 6, "zero dropped requests under a worker kill");
    assert!(stats.worker_restarts >= 1);
    assert_eq!(stats.rejected_worker_failure, 0);
    assert_eq!(stats.rejected_worker_error, 0);
}

/// A second trained model, distinct from [`snapshot`], for swap targets.
fn alt_snapshot() -> &'static PipelineSnapshot {
    static ALT: OnceLock<PipelineSnapshot> = OnceLock::new();
    ALT.get_or_init(|| {
        let config = PipelineConfig::smoke();
        let ds = build_dataset(&DatasetConfig {
            n_scenes: 3,
            image_size: config.vision.image_size,
            seed: 12,
            generator: SceneGeneratorConfig::default(),
        });
        AeroDiffusionPipeline::fit(&ds, config, 99).snapshot()
    })
}

/// A fresh registry directory holding [`alt_snapshot`] as `alt` v1.
fn registry_with_alt(tag: &str) -> aero_model::ModelRegistry {
    let dir = std::env::temp_dir().join(format!("aero_serve_fleet_registry_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = aero_model::ModelRegistry::open(&dir).unwrap();
    let (bytes, _report) =
        aero_model::export_snapshot(alt_snapshot(), aero_model::Quantization::F32);
    registry.publish("alt", &bytes).unwrap();
    registry
}

/// A worker kill racing a hot swap: pre-swap requests may land on either
/// model (the drain-free swap contract), but nothing is dropped, and
/// requests submitted after the swap are served by the new model.
#[test]
fn worker_kill_during_swap_drops_nothing() {
    let prompt = "an aerial view of a park";
    let plan = Arc::new(FaultPlan::new().inject(1, Fault::KillWorker));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), pool_config(2), Some(plan));
    runtime.set_registry(registry_with_alt("kill_during_swap"), None);

    let pre: Vec<_> = (0..3)
        .map(|i| {
            runtime.submit(GenerateRequest::new(format!("pre{i}"), prompt, 70 + i as u64)).unwrap()
        })
        .collect();
    let outcome = runtime.swap_from_registry("alt", None).unwrap();
    assert_eq!(outcome.generation, 1);
    let post: Vec<_> = (0..3)
        .map(|i| {
            runtime.submit(GenerateRequest::new(format!("post{i}"), prompt, 70 + i as u64)).unwrap()
        })
        .collect();

    for handle in pre {
        let _ = image_of(handle.wait());
    }
    let post_images: Vec<_> = post.into_iter().map(|h| image_of(h.wait())).collect();
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 6, "zero dropped requests across kill + swap");
    assert!(stats.worker_restarts >= 1);

    // Post-swap lines meet the new model everywhere — on the surviving
    // worker and on the respawned one alike, since every batch popped
    // after the swap reads the swapped-in slot.
    let reference = ServeRuntime::start(alt_snapshot().clone(), pool_config(1));
    for (i, img) in post_images.iter().enumerate() {
        let expected = image_of(
            reference
                .submit(GenerateRequest::new(format!("r{i}"), prompt, 70 + i as u64))
                .unwrap()
                .wait(),
        );
        assert_eq!(img.rgb8, expected.rgb8, "post-swap request {i} must be on the new model");
    }
    let _ = reference.shutdown();
}

/// A kill and a cancellation in the same burst: the cancelled request
/// resolves to a typed `cancelled` reply, the rest ride the requeue and
/// keep their exact bytes.
#[test]
fn kill_and_cancel_interleave_cleanly() {
    let jobs: Vec<(&str, u64)> =
        vec![("a parking lot at night", 8), ("a plaza", 9), ("a dense downtown block", 10)];
    let baseline = baseline_images(&jobs);
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::KillWorker));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), pool_config(2), Some(plan));
    let handles: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, (prompt, seed))| {
            runtime.submit(GenerateRequest::new(format!("kc{i}"), *prompt, *seed)).unwrap()
        })
        .collect();
    // Cancel the middle request while the workers are still starting:
    // it must resolve as `cancelled`, not an image, whether it was swept
    // from the queue or dropped at the sampler's door after the requeue.
    handles[1].cancel();
    let replies: Vec<_> = handles.into_iter().map(aero_serve::ResponseHandle::wait).collect();
    for (i, reply) in replies.into_iter().enumerate() {
        match reply {
            ServeReply::Image(img) if i != 1 => {
                assert_eq!(img.rgb8, baseline[i], "survivor request {i} changed bytes");
            }
            ServeReply::Rejected { id, reason: RejectReason::Cancelled } if i == 1 => {
                assert_eq!(id, "kc1");
            }
            other => panic!("request {i}: unexpected reply {other:?}"),
        }
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.rejected_cancelled, 1);
    assert!(stats.worker_restarts >= 1);
}

/// The global depth gate sheds a burst with typed `overloaded` replies
/// carrying the configured backoff hint — and admits again once the
/// queue drains.
#[test]
fn overload_sheds_typed_and_recovers() {
    let mut config = pool_config(1);
    config.admission.shed_queue_depth = 2;
    config.admission.retry_after_ms = 25;
    let runtime = ServeRuntime::start(snapshot().clone(), config);
    let mut accepted = Vec::new();
    let mut shed = 0;
    for i in 0..8 {
        match runtime.submit(GenerateRequest::new(format!("o{i}"), "a plaza", i)) {
            Ok(handle) => accepted.push(handle),
            Err(reason) => {
                assert_eq!(
                    reason,
                    RejectReason::Overloaded { retry_after_ms: 25, scope: OverloadScope::Global },
                    "a depth shed must be typed, global, and carry the hint"
                );
                shed += 1;
            }
        }
    }
    assert!(shed > 0, "a burst of 8 into a depth gate of 2 must shed load");
    // Every admitted request still resolves to an image — shedding never
    // poisons in-flight work.
    let served = accepted.len() as u64;
    for handle in accepted {
        image_of(handle.wait());
    }
    // With the queue drained, a well-behaved retry (the client waited
    // out the hint) is admitted and served.
    let retry = runtime.submit(GenerateRequest::new("o-retry", "a plaza", 99)).unwrap();
    image_of(retry.wait());
    let stats = runtime.shutdown();
    assert_eq!(stats.rejected_overloaded, shed);
    assert_eq!(stats.completed, served + 1);
}

/// Per-tenant buckets are isolated: one tenant exhausting its burst is
/// throttled with a tenant-scoped hint while another tenant sails
/// through.
#[test]
fn tenant_buckets_isolate_tenants() {
    let mut config = pool_config(1);
    config.admission.tenant_rate = 0.001; // effectively no refill in test time
    config.admission.tenant_burst = 2.0;
    let runtime = ServeRuntime::start(snapshot().clone(), config);
    let tenant_req = |id: &str, tenant: &str, seed: u64| {
        let mut request = GenerateRequest::new(id, "a harbor", seed);
        request.tenant = Some(tenant.to_string());
        runtime.submit(request)
    };
    let a0 = tenant_req("a0", "team-a", 1).unwrap();
    let a1 = tenant_req("a1", "team-a", 2).unwrap();
    match tenant_req("a2", "team-a", 3) {
        Err(RejectReason::Overloaded { retry_after_ms, scope: OverloadScope::Tenant }) => {
            // The hint reflects the bucket deficit at 1/1000 rps: about a
            // thousand seconds, definitely not the global gate's 25ms.
            assert!(retry_after_ms > 1_000, "deficit hint should be large, got {retry_after_ms}");
        }
        other => panic!("tenant over its burst must be throttled, got {other:?}"),
    }
    // A different tenant's bucket is untouched.
    let b0 = tenant_req("b0", "team-b", 4).unwrap();
    image_of(a0.wait());
    image_of(a1.wait());
    image_of(b0.wait());
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected_overloaded, 1);
}

/// A cancelled request provably stops sampling before its final step:
/// the sampler abort counter fires and fewer previews than steps arrive.
#[test]
fn cancel_mid_sample_stops_before_the_final_step() {
    let steps = 32;
    let runtime = ServeRuntime::start(snapshot().clone(), pool_config(1));
    let mut request = GenerateRequest::new("c0", "a stadium from above", 5);
    request.steps = Some(steps);
    request.stream = true;
    let handle = runtime.submit(request).unwrap();
    let mut previews = 0;
    let terminal = loop {
        match handle.next_event() {
            Some(ServeReply::Preview(p)) => {
                assert_eq!(p.total_steps, steps);
                previews += 1;
                // Cancel as soon as sampling demonstrably started; 31
                // steps of margin remain for the flag to land.
                if previews == 1 {
                    handle.cancel();
                }
            }
            Some(reply) => break reply,
            None => panic!("worker died without a terminal reply"),
        }
    };
    match terminal {
        ServeReply::Rejected { id, reason: RejectReason::Cancelled } => assert_eq!(id, "c0"),
        other => panic!("a cancelled request must resolve as cancelled, got {other:?}"),
    }
    assert!(
        previews < steps,
        "cancellation must stop the DDIM loop early, but all {steps} previews arrived"
    );
    let stats = runtime.shutdown();
    assert_eq!(stats.sampler_aborts, 1, "the abort must be observable in stats");
    assert_eq!(stats.rejected_cancelled, 1);
    assert_eq!(stats.completed, 0);
    assert!(stats.previews_streamed >= 1);
}

/// The condition cache belongs to the pool, not to a worker: a worker
/// respawned after a kill serves the requeued request from the cache its
/// predecessor warmed.
#[test]
fn respawned_worker_hits_the_shared_warm_cache() {
    let prompt = "a river through farmland";
    let plan = Arc::new(FaultPlan::new().inject(2, Fault::KillWorker));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), pool_config(1), Some(plan));
    let r0 = image_of(runtime.submit(GenerateRequest::new("r0", prompt, 1)).unwrap().wait());
    let r1 = image_of(runtime.submit(GenerateRequest::new("r1", prompt, 2)).unwrap().wait());
    // Submission #2 kills the only worker; its respawn serves the request.
    let r2 = image_of(runtime.submit(GenerateRequest::new("r2", prompt, 3)).unwrap().wait());
    let r3 = image_of(runtime.submit(GenerateRequest::new("r3", prompt, 4)).unwrap().wait());
    assert!(!r0.cache_hit, "first encode of a prompt cannot hit");
    assert!(r1.cache_hit, "warm cache before the kill");
    assert!(r2.cache_hit, "the respawned worker must find the entry its predecessor cached");
    assert!(r3.cache_hit);
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.worker_restarts, 1);
}

/// A poisoned condition-cache lock neither loses the entry nor stalls the
/// pool: the lock is recovered, the insert sticks, and other requests
/// keep flowing.
#[test]
fn poisoned_cache_lock_recovers_without_stalling() {
    let prompt = "an aerial view of a park";
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::PoisonCacheLock));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), pool_config(2), Some(plan));
    let x0 = image_of(runtime.submit(GenerateRequest::new("x0", prompt, 1)).unwrap().wait());
    let x1 = image_of(runtime.submit(GenerateRequest::new("x1", prompt, 2)).unwrap().wait());
    // Every worker reads the one shared cache, so the hit proves the
    // insert went through the recovered (previously poisoned) lock.
    assert!(!x0.cache_hit);
    assert!(x1.cache_hit, "a recovered lock must still cache the computed condition");
    // The rest of the pool is untouched.
    let y0 = image_of(
        runtime.submit(GenerateRequest::new("y0", "a parking lot at night", 3)).unwrap().wait(),
    );
    assert_eq!(y0.id, "y0");
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.worker_restarts, 0, "a poisoned lock must not cost a worker");
}

/// Preview streaming for every request: every step emits a decodable quantized
/// latent before the terminal image, and streaming never changes the
/// image bytes.
#[test]
fn streamed_previews_precede_the_terminal_image() {
    let prompt = "a dense downtown block";
    let mut config = pool_config(1);
    config.stream_previews = true;
    let runtime = ServeRuntime::start(snapshot().clone(), config);
    let handle = runtime.submit(GenerateRequest::new("s0", prompt, 21)).unwrap();
    let mut previews = Vec::new();
    let streamed = loop {
        match handle.next_event() {
            Some(ServeReply::Preview(p)) => previews.push(p),
            Some(reply) => break image_of(reply),
            None => panic!("worker died without a terminal reply"),
        }
    };
    assert_eq!(previews.len(), 4, "one preview per DDIM step");
    for (i, p) in previews.iter().enumerate() {
        assert_eq!(p.step, i, "previews arrive in step order");
        assert_eq!(p.total_steps, 4);
        assert!(p.min <= p.max);
        let [c, h, w] = p.shape;
        assert_eq!(p.latent_q8.len(), c * h * w, "quantized latent matches its shape");
    }
    // `wait` discards previews, so a caller that ignores the stream
    // still gets exactly its image.
    let plain = image_of(runtime.submit(GenerateRequest::new("s1", prompt, 21)).unwrap().wait());
    assert_eq!(streamed.rgb8, plain.rgb8, "streaming must not perturb the image bytes");
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.previews_streamed, 8);

    // And the bytes match a runtime that never streamed at all.
    let reference = ServeRuntime::start(snapshot().clone(), pool_config(1));
    let expected =
        image_of(reference.submit(GenerateRequest::new("ref", prompt, 21)).unwrap().wait());
    let _ = reference.shutdown();
    assert_eq!(streamed.rgb8, expected.rgb8);
}

/// The NDJSON front-end speaks the streaming extensions: preview lines
/// ahead of the terminal image line, and `cancel` control lines
/// acknowledged in order (`ok:false` for unknown ids).
#[test]
fn ndjson_stream_and_cancel_lines() {
    let input = concat!(
        r#"{"type":"generate","id":"s","prompt":"a harbor at dawn","seed":2,"steps":3,"stream":true}"#,
        "\n",
        r#"{"type":"cancel","id":"nope"}"#,
        "\n",
        r#"{"type":"stats"}"#,
        "\n",
    );
    let runtime = ServeRuntime::start(snapshot().clone(), pool_config(1));
    let mut output = Vec::new();
    let stats = serve_ndjson(runtime, Cursor::new(input), &mut output).unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.previews_streamed, 3);
    let lines: Vec<Json> =
        String::from_utf8(output).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 6, "3 previews + image + cancel ack + stats");
    for (i, line) in lines.iter().take(3).enumerate() {
        assert_eq!(line.get("type").and_then(Json::as_str), Some("preview"));
        assert_eq!(line.get("id").and_then(Json::as_str), Some("s"));
        assert_eq!(line.get("step").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(line.get("steps").and_then(Json::as_u64), Some(3));
        let q8 =
            aero_serve::base64::decode(line.get("latent_q8_b64").and_then(Json::as_str).unwrap())
                .unwrap();
        assert!(!q8.is_empty(), "preview lines carry the quantized latent");
    }
    assert_eq!(lines[3].get("type").and_then(Json::as_str), Some("image"));
    assert_eq!(lines[3].get("id").and_then(Json::as_str), Some("s"));
    assert_eq!(lines[4].get("type").and_then(Json::as_str), Some("cancel"));
    assert_eq!(lines[4].get("id").and_then(Json::as_str), Some("nope"));
    assert_eq!(lines[4].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(lines[5].get("type").and_then(Json::as_str), Some("stats"));
    assert_eq!(lines[5].get("completed").and_then(Json::as_u64), Some(1));
}

/// Reply output shared between the server's collector and the test.
#[derive(Clone, Default)]
struct SharedOutput(Arc<Mutex<Vec<u8>>>);

impl SharedOutput {
    fn line_count(&self) -> usize {
        self.0.lock().unwrap().iter().filter(|&&b| b == b'\n').count()
    }

    fn lines(&self) -> Vec<Json> {
        let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
        text.lines().map(|l| Json::parse(l).unwrap()).collect()
    }
}

impl Write for SharedOutput {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// NDJSON input in two parts, like a client that awaits replies before
/// sending more: `head` at once, `tail` only once `output` holds `ready`
/// reply lines.
struct GatedInput {
    head: Cursor<&'static str>,
    tail: Cursor<&'static str>,
    output: SharedOutput,
    ready: usize,
}

impl Read for GatedInput {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.head.read(buf)?;
        if n > 0 {
            return Ok(n);
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.output.line_count() < self.ready {
            assert!(Instant::now() < deadline, "the head's replies never arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
        self.tail.read(buf)
    }
}

/// Runs one connection over gated input and returns its reply lines.
fn serve_gated(
    runtime: ServeRuntime,
    head: &'static str,
    ready: usize,
    tail: &'static str,
) -> Vec<Json> {
    let output = SharedOutput::default();
    let input = GatedInput {
        head: Cursor::new(head),
        tail: Cursor::new(tail),
        output: output.clone(),
        ready,
    };
    serve_ndjson(runtime, BufReader::new(input), output.clone()).unwrap();
    output.lines()
}

/// A connection holds a cancel token only while its request is in
/// flight: once N requests have their replies, cancelling any of them
/// finds no token and acks `ok:false`.
#[test]
fn resolved_requests_leave_no_cancel_token_behind() {
    let head = concat!(
        r#"{"type":"generate","id":"r0","prompt":"a harbor at dawn","seed":1}"#,
        "\n",
        r#"{"type":"generate","id":"r1","prompt":"a harbor at dawn","seed":2}"#,
        "\n",
        r#"{"type":"generate","id":"r2","prompt":"a rail yard","seed":3}"#,
        "\n",
    );
    let tail = concat!(
        r#"{"type":"cancel","id":"r0"}"#,
        "\n",
        r#"{"type":"cancel","id":"r1"}"#,
        "\n",
        r#"{"type":"cancel","id":"r2"}"#,
        "\n",
    );
    let runtime = ServeRuntime::start(snapshot().clone(), pool_config(1));
    let lines = serve_gated(runtime, head, 3, tail);
    assert_eq!(lines.len(), 6, "3 images + 3 cancel acks");
    for (i, line) in lines.iter().take(3).enumerate() {
        assert_eq!(line.get("type").and_then(Json::as_str), Some("image"), "line {i}");
    }
    for (i, ack) in lines.iter().skip(3).enumerate() {
        assert_eq!(ack.get("type").and_then(Json::as_str), Some("cancel"));
        assert_eq!(ack.get("id").and_then(Json::as_str), Some(format!("r{i}").as_str()));
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(false), "r{i} kept its token");
    }
}

/// Resolving a request must not drop the token of a newer request that
/// reused its id: the cancel still reaches the newer one.
#[test]
fn resolving_an_older_request_keeps_a_reused_ids_token() {
    let head = concat!(
        r#"{"type":"generate","id":"dup","prompt":"a harbor at dawn","seed":1}"#,
        "\n",
        r#"{"type":"generate","id":"dup","prompt":"a harbor at dawn","seed":2,"steps":64}"#,
        "\n",
    );
    let tail = concat!(r#"{"type":"cancel","id":"dup"}"#, "\n");
    // Hold the second request back so it is still in flight when the
    // cancel line arrives, after the first one's reply.
    let plan = Arc::new(FaultPlan::new());
    plan.schedule(1, Fault::DelayMs(400));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), pool_config(1), Some(plan));
    let lines = serve_gated(runtime, head, 1, tail);
    assert_eq!(lines.len(), 3, "image + cancelled + cancel ack");
    assert_eq!(lines[0].get("type").and_then(Json::as_str), Some("image"));
    assert_eq!(lines[1].get("id").and_then(Json::as_str), Some("dup"));
    assert_eq!(lines[1].get("reason").and_then(Json::as_str), Some("cancelled"));
    assert_eq!(lines[2].get("type").and_then(Json::as_str), Some("cancel"));
    assert_eq!(lines[2].get("ok").and_then(Json::as_bool), Some(true));
}
