//! End-to-end serving tests against a real (smoke-scale) trained
//! pipeline. One pipeline is trained once and snapshotted; every test
//! spins its own runtime from the shared snapshot.

use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aero_serve::{
    serve_ndjson, Fault, FaultPlan, GenerateRequest, Json, RejectReason, ServeConfig, ServeReply,
    ServeRuntime,
};
use aero_tensor::Tensor;
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig, PipelineSnapshot};
use std::io::Cursor;
use std::sync::{Arc, OnceLock};
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

fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::for_pipeline(snapshot().config());
    config.workers = 1;
    config.steps = 4; // keep sampling cheap; determinism is what's under test
    config
}

fn image_of(reply: ServeReply) -> aero_serve::GeneratedImage {
    match reply {
        ServeReply::Image(img) => img,
        ServeReply::Rejected { id, reason } => panic!("request {id} rejected: {reason}"),
        ServeReply::Preview(p) => panic!("wait() must not surface previews, got one for {}", p.id),
    }
}

/// The headline contract: a request's bytes depend only on its own seed
/// and prompt, never on what else rode in the coalesced sampler call.
#[test]
fn batched_output_is_byte_identical_to_batch_one() {
    let prompts = [
        "an aerial view of a park",
        "a parking lot at night",
        "an aerial view of a park",
        "a dense downtown block",
    ];
    // Serial reference: batch size is pinned to 1.
    let mut solo = serve_config();
    solo.max_batch = 1;
    solo.batch_wait = Duration::ZERO;
    let runtime = ServeRuntime::start(snapshot().clone(), solo);
    let mut reference = Vec::new();
    for (i, prompt) in prompts.iter().enumerate() {
        let handle =
            runtime.submit(GenerateRequest::new(format!("s{i}"), *prompt, i as u64 + 40)).unwrap();
        reference.push(image_of(handle.wait()));
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 4);
    assert!(reference.iter().all(|img| img.batch_size == 1));

    // Batched run: submit everything up front so the worker, lingering
    // for stragglers, finds all four waiting and coalesces them.
    let mut batched = serve_config();
    batched.max_batch = 8;
    batched.batch_wait = Duration::from_millis(200);
    let runtime = ServeRuntime::start(snapshot().clone(), batched);
    let handles: Vec<_> = prompts
        .iter()
        .enumerate()
        .map(|(i, prompt)| {
            runtime.submit(GenerateRequest::new(format!("b{i}"), *prompt, i as u64 + 40)).unwrap()
        })
        .collect();
    let images: Vec<_> = handles.into_iter().map(|h| image_of(h.wait())).collect();
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 4);
    assert!(
        images.iter().any(|img| img.batch_size > 1),
        "expected the up-front submissions to coalesce into one sampler call"
    );
    for (slow, fast) in reference.iter().zip(&images) {
        assert_eq!(slow.width, fast.width);
        assert_eq!(slow.rgb8, fast.rgb8, "batching changed request bytes");
    }
}

#[test]
fn repeated_prompts_hit_the_condition_cache() {
    let runtime = ServeRuntime::start(snapshot().clone(), serve_config());
    let first = image_of(
        runtime.submit(GenerateRequest::new("c0", "a river through farmland", 1)).unwrap().wait(),
    );
    let second = image_of(
        runtime.submit(GenerateRequest::new("c1", "a river through farmland", 2)).unwrap().wait(),
    );
    assert!(!first.cache_hit, "first encode of a prompt cannot hit");
    assert!(second.cache_hit, "same prompt + variant + guidance must hit");
    assert_ne!(first.rgb8, second.rgb8, "different seeds must still differ");
    let stats = runtime.shutdown();
    assert!((stats.cache_hit_rate - 0.5).abs() < 1e-9);
}

#[test]
fn full_queue_applies_backpressure_with_typed_error() {
    let mut config = serve_config();
    config.queue_capacity = 1;
    config.max_batch = 1;
    config.batch_wait = Duration::ZERO;
    let runtime = ServeRuntime::start(snapshot().clone(), config);
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for i in 0..8 {
        match runtime.submit(GenerateRequest::new(format!("p{i}"), "a plaza", i)) {
            Ok(handle) => accepted.push(handle),
            Err(reason) => {
                assert_eq!(reason, RejectReason::QueueFull { capacity: 1 });
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "a burst of 8 into capacity 1 must shed load");
    for handle in accepted {
        image_of(handle.wait());
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.rejected_queue_full, rejected);
}

#[test]
fn shutdown_drains_queued_work_before_exiting() {
    let mut config = serve_config();
    config.max_batch = 2;
    let runtime = ServeRuntime::start(snapshot().clone(), config);
    let handles: Vec<_> = (0..3)
        .map(|i| runtime.submit(GenerateRequest::new(format!("d{i}"), "a harbor", i)).unwrap())
        .collect();
    // Shutdown begins while the worker may not even have popped yet;
    // everything already accepted must still be served.
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 3);
    for handle in handles {
        image_of(handle.wait());
    }
}

#[test]
fn expired_deadline_is_rejected_not_sampled() {
    let runtime = ServeRuntime::start(snapshot().clone(), serve_config());
    let mut request = GenerateRequest::new("late", "a stadium", 0);
    request.deadline = Some(Duration::ZERO);
    let reply = runtime.submit(request).unwrap().wait();
    match reply {
        ServeReply::Rejected { id, reason } => {
            assert_eq!(id, "late");
            assert_eq!(reason, RejectReason::DeadlineExceeded);
        }
        ServeReply::Image(_) | ServeReply::Preview(_) => {
            panic!("expired request must not be sampled")
        }
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.rejected_deadline, 1);
}

/// Polls runtime stats until `probe` holds or ~5s elapse. Worker respawns
/// happen on the watchdog's clock, not the test's, so assertions about
/// them must wait rather than race.
fn await_stats(runtime: &ServeRuntime, probe: impl Fn(&aero_serve::StatsReport) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !probe(&runtime.stats()) {
        assert!(Instant::now() < deadline, "stats probe never satisfied: {:?}", runtime.stats());
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn injected_request_panic_is_isolated_and_the_worker_is_replaced() {
    let plan = Arc::new(FaultPlan::new().inject(1, Fault::PanicRequest));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), serve_config(), Some(plan));
    let handles: Vec<_> = (0..4)
        .map(|i| runtime.submit(GenerateRequest::new(format!("f{i}"), "a park", i)).unwrap())
        .collect();
    let replies: Vec<_> = handles.into_iter().map(aero_serve::ResponseHandle::wait).collect();
    // Exactly the faulted request fails, with a typed reason; every other
    // request in (and after) its batch is still served.
    for (i, reply) in replies.iter().enumerate() {
        match reply {
            ServeReply::Image(img) if i != 1 => assert_eq!(img.id, format!("f{i}")),
            ServeReply::Rejected { id, reason: RejectReason::WorkerError { .. } } if i == 1 => {
                assert_eq!(id, "f1");
            }
            other => panic!("request {i}: unexpected reply {other:?}"),
        }
    }
    // The suspect worker exits after its batch and the watchdog replaces
    // it (on its own schedule — wait, don't race).
    await_stats(&runtime, |s| s.worker_restarts >= 1);
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.rejected_worker_error, 1);
    assert!(stats.worker_restarts >= 1);
}

#[test]
fn killed_worker_hands_its_batch_back_and_nothing_is_dropped() {
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::KillWorker));
    let mut config = serve_config();
    config.batch_wait = Duration::from_millis(100); // coalesce all three
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), config, Some(plan));
    let handles: Vec<_> = (0..3)
        .map(|i| runtime.submit(GenerateRequest::new(format!("k{i}"), "a harbor", i)).unwrap())
        .collect();
    // The lone worker dies holding all three requests; the respawned one
    // must serve every single one of them.
    for handle in handles {
        image_of(handle.wait());
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 3);
    assert!(stats.worker_restarts >= 1, "a replacement worker must have served the batch");
    assert_eq!(stats.rejected_worker_error, 0, "a requeued batch loses no requests");
}

#[test]
fn corrupt_cache_entry_is_evicted_and_recomputed() {
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::CorruptCacheEntry));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), serve_config(), Some(plan));
    let prompt = "a river through farmland";
    let first = image_of(runtime.submit(GenerateRequest::new("x0", prompt, 1)).unwrap().wait());
    let second = image_of(runtime.submit(GenerateRequest::new("x1", prompt, 1)).unwrap().wait());
    let third = image_of(runtime.submit(GenerateRequest::new("x2", prompt, 1)).unwrap().wait());
    assert!(!first.cache_hit);
    assert!(!second.cache_hit, "the poisoned entry must be evicted, not served");
    assert_eq!(first.rgb8, second.rgb8, "recomputed condition must reproduce the image");
    assert!(third.cache_hit, "the recomputed entry must be cached again");
    let stats = runtime.shutdown();
    assert_eq!(stats.cache_corruptions, 1);
    assert_eq!(stats.completed, 3);
}

#[test]
fn nonfinite_latents_become_a_typed_reply_not_an_image() {
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::NanLatents));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), serve_config(), Some(plan));
    let bad = runtime.submit(GenerateRequest::new("n0", "a stadium", 3)).unwrap().wait();
    match bad {
        ServeReply::Rejected { id, reason: RejectReason::WorkerError { detail } } => {
            assert_eq!(id, "n0");
            assert!(detail.contains("non-finite"), "detail should name the cause: {detail}");
        }
        other => panic!("NaN latents must not decode into an image: {other:?}"),
    }
    // The worker itself is healthy (immutable weights; the NaN came from
    // injection) and keeps serving.
    image_of(runtime.submit(GenerateRequest::new("n1", "a stadium", 3)).unwrap().wait());
    let stats = runtime.shutdown();
    assert_eq!(stats.nonfinite_outputs, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.worker_restarts, 0);
}

/// The supervisor's terminal drain: once every worker is dead and no
/// restart is left, requests still queued get a typed rejection instead of
/// hanging their clients.
#[test]
fn exhausted_restart_budget_fails_typed_and_never_hangs_clients() {
    // One request per pop, and a worker death on each of the first two
    // requests: each kill takes one of the two workers, whichever pops
    // it, and the budget replaces neither.
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::KillWorker).inject(1, Fault::KillWorker));
    let mut config = serve_config();
    config.workers = 2;
    config.max_batch = 1;
    config.max_worker_restarts = 0;
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), config, Some(plan));
    let mut handles = Vec::new();
    for i in 0..4 {
        match runtime.submit(GenerateRequest::new(format!("h{i}"), "a plaza", i)) {
            Ok(handle) => handles.push(handle),
            // The watchdog may already have begun the terminal drain.
            Err(reason) => assert_eq!(reason, RejectReason::ShuttingDown),
        }
    }
    // Every accepted request must resolve — to an image if a worker got
    // to it first, otherwise to a typed error, never to a hang.
    let mut rejected = Vec::new();
    for handle in handles {
        match handle.wait() {
            ServeReply::Image(_) => {}
            ServeReply::Rejected {
                id,
                reason:
                    RejectReason::WorkerError { .. }
                    | RejectReason::WorkerFailure
                    | RejectReason::ShuttingDown,
            } => rejected.push(id),
            other => panic!("expected an image or a typed rejection, got {other:?}"),
        }
    }
    // h0 and h1 each kill the worker that pops them, and a requeued
    // request goes back to the front, so nothing behind h1 is popped
    // before it. Whoever pops h1 is the last worker: h1 returns to a queue
    // nobody pops and is drained typed, and only h0 can have been served,
    // by the worker that outlived the first kill.
    assert!(rejected.contains(&"h1".to_string()), "h1 must be drained typed: {rejected:?}");
    let stats = runtime.shutdown();
    assert_eq!(stats.worker_restarts, 0);
    assert!(stats.completed <= 1, "only h0 can be served, got {}", stats.completed);
}

#[test]
fn seeded_chaos_plan_resolves_every_request() {
    // A reproducible mixed-fault run: whatever the plan throws at the
    // pool, every submitted request must resolve to exactly one reply.
    let plan = Arc::new(FaultPlan::seeded(7, 8));
    let mut config = serve_config();
    config.max_worker_restarts = 16;
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), config, Some(plan));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            runtime.submit(GenerateRequest::new(format!("c{i}"), "a downtown block", i)).unwrap()
        })
        .collect();
    let mut images = 0;
    let mut typed_errors = 0;
    for handle in handles {
        match handle.wait() {
            ServeReply::Image(_) => images += 1,
            ServeReply::Rejected { reason: RejectReason::WorkerError { .. }, .. } => {
                typed_errors += 1;
            }
            other => panic!("unexpected reply under chaos: {other:?}"),
        }
    }
    assert_eq!(images + typed_errors, 8, "zero dropped replies under injected faults");
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, images);
}

#[test]
fn ndjson_round_trip_preserves_order_and_reports_stats() {
    let input = concat!(
        r#"{"type":"generate","id":"a","prompt":"an aerial view of a park","seed":5}"#,
        "\n",
        r#"{"type":"generate","id":"b","prompt":"a parking lot at night","seed":6}"#,
        "\n",
        "not json\n",
        r#"{"type":"stats"}"#,
        "\n",
        r#"{"type":"metrics"}"#,
        "\n",
    );
    let runtime = ServeRuntime::start(snapshot().clone(), serve_config());
    let mut output = Vec::new();
    let stats = serve_ndjson(runtime, Cursor::new(input), &mut output).unwrap();
    assert_eq!(stats.completed, 2);
    let lines: Vec<Json> =
        String::from_utf8(output).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 5, "one reply line per input line");
    assert_eq!(lines[0].get("type").and_then(Json::as_str), Some("image"));
    assert_eq!(lines[0].get("id").and_then(Json::as_str), Some("a"));
    assert_eq!(lines[1].get("id").and_then(Json::as_str), Some("b"));
    let px = aero_serve::base64::decode(lines[0].get("rgb8_b64").and_then(Json::as_str).unwrap())
        .unwrap();
    let side = snapshot().config().vision.image_size;
    assert_eq!(px.len(), 3 * side * side);
    assert_eq!(lines[2].get("reason").and_then(Json::as_str), Some("bad_request"));
    // The stats probe resolves after both images, so it must see them.
    assert_eq!(lines[3].get("type").and_then(Json::as_str), Some("stats"));
    assert_eq!(lines[3].get("completed").and_then(Json::as_u64), Some(2));
    // The unified metrics probe carries the serving registry (merged
    // with the process-global ambient metrics) as one line.
    assert_eq!(lines[4].get("type").and_then(Json::as_str), Some("metrics"));
    let counters = lines[4].get("counters").expect("counters object");
    assert_eq!(counters.get("serve.completed").and_then(Json::as_u64), Some(2));
    assert!(counters.get("serve.cache.misses").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let e2e = lines[4]
        .get("histograms")
        .and_then(|h| h.get("serve.request.e2e_us"))
        .expect("e2e latency histogram");
    assert_eq!(e2e.get("count").and_then(Json::as_u64), Some(2));
    // The ambient half of the merge: the sampler ran, so the global
    // tensor kernel counters must be present and non-zero.
    assert!(counters.get("tensor.matmul.calls").and_then(Json::as_u64).unwrap_or(0) >= 1);
}

/// Hostile bytes on the wire: a line that is not UTF-8 and a line past
/// `MAX_LINE_BYTES` each get a typed `bad_request` under their line's
/// fallback id, and the session keeps serving the valid requests after
/// them — including one of exactly `MAX_LINE_BYTES` ended by `\r\n`,
/// since the cap does not count the terminator.
#[test]
fn bad_lines_get_typed_replies_and_the_session_keeps_serving() {
    let max = aero_serve::server::MAX_LINE_BYTES;
    let mut input = b"\xff\xfe not utf-8\n".to_vec();
    input.extend(std::iter::repeat_n(b'[', max + 1));
    input.extend_from_slice(b"\n");
    let mut at_cap =
        br#"{"type":"generate","id":"at-cap","prompt":"a harbour with boats","seed":4}"#.to_vec();
    at_cap.resize(max, b' ');
    input.extend_from_slice(&at_cap);
    input.extend_from_slice(b"\r\n");
    input.extend_from_slice(
        br#"{"type":"generate","id":"ok","prompt":"an aerial view of a park","seed":5}"#,
    );
    input.extend_from_slice(b"\n");
    let runtime = ServeRuntime::start(snapshot().clone(), serve_config());
    let mut output = Vec::new();
    let stats = serve_ndjson(runtime, Cursor::new(input), &mut output).unwrap();
    assert_eq!(stats.completed, 2);
    let lines: Vec<Json> =
        String::from_utf8(output).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 4, "one reply line per input line");
    for (i, what) in [(0, "UTF-8"), (1, "exceeds")] {
        assert_eq!(lines[i].get("reason").and_then(Json::as_str), Some("bad_request"));
        assert_eq!(lines[i].get("id").and_then(Json::as_str), Some(format!("req-{i}").as_str()));
        let detail = lines[i].render();
        assert!(detail.contains(what), "line {i}: {detail}");
    }
    for (i, id) in [(2, "at-cap"), (3, "ok")] {
        assert_eq!(lines[i].get("type").and_then(Json::as_str), Some("image"), "line {i}");
        assert_eq!(lines[i].get("id").and_then(Json::as_str), Some(id));
    }
}

/// The three image-conditioned task kinds serve end to end, a
/// heterogeneous batch (text + view + inpaint + superres coalesced into
/// one sampler call) is byte-identical per row to solo batch-1 runs, and
/// a wrong-size source image is rejected typed instead of panicking the
/// worker.
#[test]
fn task_requests_serve_end_to_end_and_mix_into_batches() {
    use aero_scene::{Annotation, BBox, ObjectClass, Viewpoint};
    use aero_serve::{ImagePayload, TaskPayload};
    let side = snapshot().config().vision.image_size;
    let ds = build_dataset(&DatasetConfig {
        n_scenes: 2,
        image_size: side,
        seed: 77,
        generator: SceneGeneratorConfig::default(),
    });
    let source = ImagePayload::from_image(&ds.items[0].rendered.image);
    let low_res = ImagePayload::from_image(&ds.items[1].rendered.image.resize(side / 2, side / 2));
    let make_requests = || {
        let text = GenerateRequest::new("t-text", "an aerial view of a park", 61);
        let mut view = GenerateRequest::new("t-view", "the park from the north", 62);
        view.task = Some(TaskPayload::View {
            image: source.clone(),
            source_view: Viewpoint::default(),
            target_view: Viewpoint { altitude: 0.6, pitch_deg: 60.0, heading_deg: 30.0 },
        });
        let mut inpaint = GenerateRequest::new("t-inp", "a truck at the center", 63);
        inpaint.task = Some(TaskPayload::Inpaint {
            image: source.clone(),
            boxes: vec![Annotation {
                class: ObjectClass::Truck,
                bbox: BBox::new(4.0, 4.0, 11.0, 10.0),
            }],
        });
        let mut superres = GenerateRequest::new("t-sr", "a sharper aerial photo", 64);
        superres.task = Some(TaskPayload::SuperRes { image: low_res.clone() });
        vec![text, view, inpaint, superres]
    };

    // Solo reference: every task sampled alone.
    let mut solo = serve_config();
    solo.max_batch = 1;
    solo.batch_wait = Duration::ZERO;
    let runtime = ServeRuntime::start(snapshot().clone(), solo);
    let mut reference = Vec::new();
    for request in make_requests() {
        reference.push(image_of(runtime.submit(request).unwrap().wait()));
    }
    assert_eq!(runtime.shutdown().completed, 4);
    assert!(reference.iter().all(|img| (img.width, img.height) == (side, side)));

    // Heterogeneous batch: all four submitted up front coalesce.
    let mut batched = serve_config();
    batched.max_batch = 8;
    batched.batch_wait = Duration::from_millis(200);
    let runtime = ServeRuntime::start(snapshot().clone(), batched);
    let handles: Vec<_> = make_requests().into_iter().map(|r| runtime.submit(r).unwrap()).collect();
    let images: Vec<_> = handles.into_iter().map(|h| image_of(h.wait())).collect();
    assert_eq!(runtime.shutdown().completed, 4);
    assert!(
        images.iter().any(|img| img.batch_size > 1),
        "expected the up-front task submissions to coalesce into one sampler call"
    );
    for (slow, fast) in reference.iter().zip(&images) {
        assert_eq!(slow.rgb8, fast.rgb8, "task batching changed request bytes");
    }

    // A wrong-size source is a typed rejection, never a worker panic.
    let runtime = ServeRuntime::start(snapshot().clone(), serve_config());
    let mut bad = GenerateRequest::new("t-bad", "a truck at the center", 65);
    bad.task = Some(TaskPayload::Inpaint {
        image: ImagePayload::from_image(&ds.items[0].rendered.image.resize(side * 2, side * 2)),
        boxes: vec![Annotation { class: ObjectClass::Car, bbox: BBox::new(1.0, 1.0, 4.0, 4.0) }],
    });
    match runtime.submit(bad).unwrap().wait() {
        ServeReply::Rejected { id, reason: RejectReason::WorkerError { detail } } => {
            assert_eq!(id, "t-bad");
            assert!(detail.contains("source image"), "untyped shape error: {detail}");
        }
        other => panic!("wrong-size source must reject typed, got {other:?}"),
    }
    let after =
        image_of(runtime.submit(GenerateRequest::new("t-after", "a plaza", 66)).unwrap().wait());
    assert_eq!((after.width, after.height), (side, side), "serving must continue after a reject");
    let stats = runtime.shutdown();
    assert_eq!((stats.completed, stats.rejected_worker_error), (1, 1));
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
    let dir = std::env::temp_dir().join(format!("aero_serve_registry_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = aero_model::ModelRegistry::open(&dir).unwrap();
    let (bytes, _report) =
        aero_model::export_snapshot(alt_snapshot(), aero_model::Quantization::F32);
    registry.publish("alt", &bytes).unwrap();
    registry
}

/// [`snapshot`]'s f32 artifact copied entry by entry, with `kv` and
/// `tensor` free to rewrite any metadata value or tensor on the way. The
/// copy carries a valid CRC.
fn rebuilt_artifact(
    kv: impl Fn(&str, &str) -> String,
    tensor: impl Fn(&str, Tensor) -> Tensor,
) -> Vec<u8> {
    let (bytes, _report) = aero_model::export_snapshot(snapshot(), aero_model::Quantization::F32);
    let original = aero_model::ModelArtifact::from_bytes(bytes).unwrap();
    let mut builder = aero_model::ArtifactBuilder::new();
    for (key, value) in original.kv() {
        builder.set(key, &kv(key, value));
    }
    for info in original.tensor_infos() {
        builder.add_f32(&info.name, &tensor(&info.name, original.tensor(&info.name).unwrap()));
    }
    builder.to_bytes()
}

#[test]
fn misfit_artifact_swap_fails_typed_and_the_old_model_keeps_serving() {
    let prompt = "a plaza";
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::PanicRequest));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), serve_config(), Some(plan));
    let registry = registry_with_alt("misfit");
    // Every key and element count intact, and `unet.0` flattened to 1-D:
    // a tensor that does not fit its parameter.
    let flat_unet = rebuilt_artifact(
        |_, value| value.to_string(),
        |name, t| if name == "unet.0" { t.reshape(&[t.numel()]) } else { t },
    );
    registry.publish("bad", &flat_unet).unwrap();
    // Every tensor fits a 17-pixel image size, but the model built from it
    // cannot encode a request.
    let odd_size = rebuilt_artifact(
        |key, value| {
            if key == "aero.config" {
                value.replace("vision.image_size=16", "vision.image_size=17")
            } else {
                value.to_string()
            }
        },
        |_, t| t,
    );
    registry.publish("odd", &odd_size).unwrap();
    // A 15-wide embedding, which the attention constructors assert on: no
    // model can be built from it.
    let odd_width = rebuilt_artifact(
        |key, value| {
            if key == "aero.config" {
                value.replace("vision.embed_dim=16", "vision.embed_dim=15")
            } else {
                value.to_string()
            }
        },
        |_, t| t,
    );
    registry.publish("narrow", &odd_width).unwrap();
    runtime.set_registry(registry, None);

    // Each artifact passes its CRC but cannot give a model that runs: the
    // swap fails typed and nothing reaches the slot.
    for name in ["bad", "odd", "narrow"] {
        let err = runtime.swap_from_registry(name, None).unwrap_err();
        assert!(
            matches!(
                (name, &err),
                ("bad", aero_model::ModelError::Corrupt { .. })
                    | ("odd" | "narrow", aero_model::ModelError::Meta(_))
            ),
            "the {name} artifact must fail typed, got {err:?}"
        );
        assert_eq!(runtime.active_model(), None, "the failed swap must not be recorded active");
        assert_eq!(runtime.model_generation(), 0, "the failed swap must not touch the slot");
    }

    // A caught panic retires its worker; the replacement serves the next
    // request on the original model.
    match runtime.submit(GenerateRequest::new("panic", prompt, 5)).unwrap().wait() {
        ServeReply::Rejected { reason: RejectReason::WorkerError { .. }, .. } => {}
        other => panic!("the injected panic must get a typed worker_error, got {other:?}"),
    }
    let after = image_of(runtime.submit(GenerateRequest::new("after", prompt, 6)).unwrap().wait());
    let stats = runtime.shutdown();
    assert_eq!((stats.completed, stats.worker_panics, stats.rejected_shutting_down), (1, 1, 0));
    assert_eq!(after.rgb8, served_by(snapshot(), prompt, 6), "the original model must serve");
}

/// The pixels a fresh runtime on `snapshot` serves for one request.
fn served_by(snapshot: &PipelineSnapshot, prompt: &str, seed: u64) -> Vec<u8> {
    let runtime = ServeRuntime::start(snapshot.clone(), serve_config());
    let image = image_of(runtime.submit(GenerateRequest::new("ref", prompt, seed)).unwrap().wait());
    let _ = runtime.shutdown();
    image.rgb8
}

#[test]
fn a_condition_encoded_across_a_swap_never_answers_for_the_new_model() {
    let prompt = "a parking lot at night";
    // The first request stalls between its pop and its encode, so the
    // swap lands while its batch is in flight on the outgoing model, and
    // its condition reaches the cache after the swap.
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::DelayMs(400)));
    let runtime = ServeRuntime::start_with_faults(snapshot().clone(), serve_config(), Some(plan));
    runtime.set_registry(registry_with_alt("in_flight"), None);
    let pre = runtime.submit(GenerateRequest::new("pre", prompt, 8)).unwrap();
    // Swap once the worker has popped `pre` and is well into the stall.
    let deadline = Instant::now() + Duration::from_secs(5);
    while runtime.queue_len() > 0 {
        assert!(Instant::now() < deadline, "the worker never popped the first request");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(50));
    runtime.swap_from_registry("alt", None).unwrap();
    let pre = image_of(pre.wait());
    let post = image_of(runtime.submit(GenerateRequest::new("post", prompt, 8)).unwrap().wait());
    let _ = runtime.shutdown();
    assert!(!post.cache_hit, "the outgoing model's condition must not answer for the new one");
    assert_eq!(pre.rgb8, served_by(snapshot(), prompt, 8), "pre finishes on the old model");
    assert_eq!(post.rgb8, served_by(alt_snapshot(), prompt, 8), "post is the new model's");
}

#[test]
fn a_swapped_out_model_is_freed_not_pinned_by_workers() {
    let prompt = "an aerial view of a park";
    // A model of this test's own: the shared fixture lives for the whole
    // test binary.
    let (bytes, _report) = aero_model::export_snapshot(snapshot(), aero_model::Quantization::F32);
    let fresh =
        aero_model::snapshot_from_artifact(&aero_model::ModelArtifact::from_bytes(bytes).unwrap())
            .unwrap();
    let outgoing = Arc::downgrade(fresh.pipeline());
    let mut config = serve_config();
    config.workers = 2;
    config.max_batch = 1;
    let runtime = ServeRuntime::start(fresh, config);
    runtime.set_registry(registry_with_alt("freed"), None);
    image_of(runtime.submit(GenerateRequest::new("pre", prompt, 1)).unwrap().wait());
    runtime.swap_from_registry("alt", None).unwrap();
    // Enough single-request batches to keep both workers busy.
    let handles: Vec<_> = (0..4)
        .map(|i| runtime.submit(GenerateRequest::new(format!("post{i}"), prompt, i)).unwrap())
        .collect();
    for handle in handles {
        image_of(handle.wait());
    }
    // A worker lets go of its model when its batch is done, a moment
    // after the reply went out.
    let deadline = Instant::now() + Duration::from_secs(5);
    while outgoing.upgrade().is_some() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(outgoing.upgrade().is_none(), "no worker may pin the swapped-out model");
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 5);
    assert!(outgoing.upgrade().is_none());
}

#[test]
fn hot_swap_serves_the_new_model_with_zero_dropped_requests() {
    let prompt = "an aerial view of a park";
    let runtime = ServeRuntime::start(snapshot().clone(), serve_config());
    runtime.set_registry(registry_with_alt("hot_swap"), None);
    assert_eq!(runtime.active_model(), None);
    assert_eq!(runtime.model_generation(), 0);

    let before = image_of(runtime.submit(GenerateRequest::new("pre", prompt, 40)).unwrap().wait());

    let outcome = runtime.swap_from_registry("alt", None).unwrap();
    assert_eq!((outcome.entry.name.as_str(), outcome.entry.version), ("alt", 1));
    assert_eq!(outcome.generation, 1);
    assert_eq!(runtime.active_model(), Some(("alt".into(), 1)));

    let after = image_of(runtime.submit(GenerateRequest::new("post", prompt, 40)).unwrap().wait());
    assert_ne!(before.rgb8, after.rgb8, "the swapped-in model must actually serve");

    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 2, "a swap must not drop or reject any request");
    assert_eq!(stats.rejected_worker_failure, 0);

    // The post-swap bytes are exactly what a runtime booted from the
    // swap target would serve: the f32 artifact round trip is lossless
    // and no condition the outgoing model cached answers for the new one.
    let reference = ServeRuntime::start(alt_snapshot().clone(), serve_config());
    let expected =
        image_of(reference.submit(GenerateRequest::new("ref", prompt, 40)).unwrap().wait());
    let _ = reference.shutdown();
    assert_eq!(after.rgb8, expected.rgb8, "swapped model must serve byte-identically");
}

#[test]
fn corrupt_artifact_swap_is_rejected_and_the_old_model_keeps_serving() {
    let prompt = "a parking lot at night";
    let plan = Arc::new(FaultPlan::new().inject_swap(0, aero_serve::SwapFault::CorruptArtifact));
    let mut config = serve_config();
    config.max_batch = 2;
    let runtime =
        ServeRuntime::start_with_faults(snapshot().clone(), config, Some(Arc::clone(&plan)));
    runtime.set_registry(registry_with_alt("corrupt_swap"), None);

    // Load the pool, then yank the swap lever while requests are in
    // flight: the corrupt artifact must be rejected by its CRC and every
    // request — submitted before or after the attempt — must resolve on
    // the old model.
    let in_flight: Vec<_> = (0..4)
        .map(|i| {
            runtime.submit(GenerateRequest::new(format!("in-{i}"), prompt, 60 + i as u64)).unwrap()
        })
        .collect();
    let err = runtime.swap_from_registry("alt", None).unwrap_err();
    assert!(
        matches!(err, aero_model::ModelError::Corrupt { .. }),
        "corrupt artifact must fail typed, got {err:?}"
    );
    assert_eq!(plan.remaining(), 0, "the swap fault fired");
    assert_eq!(runtime.active_model(), None, "the failed swap must not be recorded active");
    assert_eq!(runtime.model_generation(), 0, "the failed swap must not touch the slot");

    let before =
        image_of(runtime.submit(GenerateRequest::new("probe-a", prompt, 7)).unwrap().wait());
    for handle in in_flight {
        let _ = image_of(handle.wait());
    }
    // A second attempt (fault is one-shot) goes through clean…
    let outcome = runtime.swap_from_registry("alt", None).unwrap();
    assert_eq!(outcome.generation, 1);
    // …which confirms the first failure really was the injected fault.
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 5, "zero dropped requests across both swap attempts");
    assert_eq!(stats.rejected_worker_failure, 0);

    // And the pre-retry probe was served by the original model.
    let reference = ServeRuntime::start(snapshot().clone(), serve_config());
    let expected =
        image_of(reference.submit(GenerateRequest::new("ref", prompt, 7)).unwrap().wait());
    let _ = reference.shutdown();
    assert_eq!(before.rgb8, expected.rgb8, "old model must keep serving after a failed swap");
}

/// A runtime booted from a registry entry records that entry as active
/// as it stands, without building it again: the boot model is generation
/// 0 and the first swap makes generation 1.
#[test]
fn registry_boot_is_active_at_generation_zero() {
    let registry = registry_with_alt("boot");
    let entry = registry.resolve("alt", None).unwrap();
    let booted =
        aero_model::snapshot_from_artifact(&registry.open_artifact(&entry).unwrap()).unwrap();
    let runtime = ServeRuntime::start(booted, serve_config());
    runtime.set_registry(registry, Some(&entry));
    assert_eq!(runtime.active_model(), Some(("alt".to_string(), 1)));
    assert_eq!(runtime.model_generation(), 0);
    let input = concat!(r#"{"type":"models"}"#, "\n", r#"{"type":"swap","name":"alt"}"#, "\n");
    let mut output = Vec::new();
    let _ = serve_ndjson(runtime, Cursor::new(input), &mut output).unwrap();
    let lines: Vec<Json> =
        String::from_utf8(output).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(lines[0].get("active").and_then(Json::as_str), Some("alt@1"));
    assert_eq!(lines[0].get("generation").and_then(Json::as_u64), Some(0));
    assert_eq!(lines[1].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(lines[1].get("generation").and_then(Json::as_u64), Some(1));
}

#[test]
fn ndjson_models_and_swap_lines_drive_the_registry() {
    let input = concat!(
        r#"{"type":"models"}"#,
        "\n",
        r#"{"type":"generate","id":"pre","prompt":"an aerial view of a park","seed":3}"#,
        "\n",
        r#"{"type":"swap","name":"alt"}"#,
        "\n",
        r#"{"type":"generate","id":"post","prompt":"an aerial view of a park","seed":3}"#,
        "\n",
        r#"{"type":"swap","name":"no-such-model"}"#,
        "\n",
        r#"{"type":"models"}"#,
        "\n",
    );
    let runtime = ServeRuntime::start(snapshot().clone(), serve_config());
    runtime.set_registry(registry_with_alt("ndjson"), None);
    let mut output = Vec::new();
    let stats = serve_ndjson(runtime, Cursor::new(input), &mut output).unwrap();
    assert_eq!(stats.completed, 2);
    let lines: Vec<Json> =
        String::from_utf8(output).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 6, "one reply line per input line");

    assert_eq!(lines[0].get("type").and_then(Json::as_str), Some("models"));
    let listed = match lines[0].get("models") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("models reply must carry an array, got {other:?}"),
    };
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].get("name").and_then(Json::as_str), Some("alt"));
    assert_eq!(listed[0].get("integrity").and_then(Json::as_str), Some("verified"));

    assert_eq!(lines[1].get("type").and_then(Json::as_str), Some("image"));
    assert_eq!(lines[2].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(lines[2].get("generation").and_then(Json::as_u64), Some(1));
    assert_eq!(lines[3].get("type").and_then(Json::as_str), Some("image"));
    // A request on a line after the swap is guaranteed to be served by
    // the swapped-in model (the "pre" request races the swap — it may be
    // popped on either side, which is exactly the drain-free contract).
    let post_px =
        aero_serve::base64::decode(lines[3].get("rgb8_b64").and_then(Json::as_str).unwrap())
            .unwrap();
    let reference = ServeRuntime::start(alt_snapshot().clone(), serve_config());
    let expected = image_of(
        reference
            .submit(GenerateRequest::new("ref", "an aerial view of a park", 3))
            .unwrap()
            .wait(),
    );
    let _ = reference.shutdown();
    assert_eq!(post_px, expected.rgb8, "post-swap lines must be served by the new model");
    assert_eq!(lines[4].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(lines[5].get("active").and_then(Json::as_str), Some("alt@1"));
}
