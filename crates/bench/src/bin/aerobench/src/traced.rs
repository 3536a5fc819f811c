//! The traced run: per-layer numbers, measured apart from the end-to-end
//! runs so their overhead never reaches an end-to-end metric.
//!
//! Two sources feed it, both recorded by the benchmark's own code (the
//! program's internal span collection stays off):
//!
//! - a short session of each serve mix, whose replies carry the server's
//!   per-stage timings; each request becomes a `serve.request` span with
//!   `serve.queue`/`encode`/`sample`/`decode` children rebuilt back to
//!   back from its reply, so the parent's self time is the unaccounted
//!   remainder;
//! - the `aerobench_layers` prober, which calls each layer's public
//!   functions in-process under a counting allocator and writes one span
//!   per call.
//!
//! Every workload's `--trace 1` run performs the same sweep, so each
//! reports the full per-layer metric set.

use crate::proc::{cargo_build, Guard};
use crate::report::{Metric, Outcome, Phase};
use crate::serve::{self, Session, Stages};
use aerobench::json::Json;
use aerobench::lines::Mix;
use aerobench::Span;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Sizes of one traced sweep.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Closed-loop warm-up per serve session.
    pub warmup: Duration,
    /// Closed-loop measured time per serve session.
    pub measure: Duration,
    /// Runs the prober with minimal repetitions.
    pub smoke: bool,
}

/// Builds the spans of one serve session's measured requests.
fn request_spans(session: &Session, epoch: Instant, spans: &mut Vec<Span>) {
    let ns = |t: Instant| u64::try_from((t - epoch).as_nanos()).unwrap_or(u64::MAX);
    for record in session.measured() {
        let Ok(img) = record.image() else { continue };
        let parent = spans.len() as u64;
        let start = ns(record.sent);
        spans.push(Span {
            id: parent,
            parent: None,
            op: "serve.request".into(),
            name: record.id.clone(),
            start_ns: start,
            end_ns: ns(record.received),
        });
        let Stages { queue_us, encode_us, sample_us, decode_us } = img.stages;
        let mut at = start;
        for (op, us) in [
            ("serve.queue", queue_us),
            ("serve.encode", encode_us),
            ("serve.sample", sample_us),
            ("serve.decode", decode_us),
        ] {
            spans.push(Span {
                id: spans.len() as u64,
                parent: Some(parent),
                op: op.into(),
                name: record.id.clone(),
                start_ns: at,
                end_ns: at + us * 1000,
            });
            at += us * 1000;
        }
    }
}

/// Per-stage means of one serve session, as per-layer metrics.
fn stage_metrics(prefix: &str, session: &Session, with_encode: bool) -> Vec<Metric> {
    let mean =
        |f: fn(&Stages) -> u64| serve::stage_mean_ms(session, |_, img| f(&img.stages) as f64);
    let mut stages = vec![("queue_ms.mean", mean(|s| s.queue_us))];
    if with_encode {
        stages.push(("encode_ms.mean", mean(|s| s.encode_us)));
    }
    stages.extend([
        ("sample_ms.mean", mean(|s| s.sample_us)),
        ("decode_ms.mean", mean(|s| s.decode_us)),
        (
            "unaccounted_ms.mean",
            serve::stage_mean_ms(session, |r, img| {
                serve::unaccounted_us(r.latency(), &img.stages).unwrap_or(0.0)
            }),
        ),
    ]);
    let mut metrics: Vec<Metric> = stages
        .into_iter()
        .map(|(name, v)| Metric::value(&format!("{prefix}.{name}"), "ms", v, vec![v]))
        .collect();
    let batches: Vec<f64> =
        session.measured().filter_map(|r| r.image().ok().map(|i| i.batch_size as f64)).collect();
    let batch = batches.iter().sum::<f64>() / batches.len().max(1) as f64;
    metrics.push(Metric::value(&format!("{prefix}.batch_size.mean"), "count", batch, batches));
    metrics
}

/// Runs the traced sweep and writes `trace.ndjson` into `out_dir`.
///
/// # Errors
///
/// A failed serve session, prober build or prober run.
pub fn run(
    cli: &crate::proc::Cli,
    work: &Path,
    out_dir: &Path,
    seed: u64,
    shape: Shape,
    epoch: Instant,
) -> Result<Outcome, String> {
    cargo_build(&[
        "--manifest-path",
        concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"),
        "--bin",
        "aerobench_layers",
    ])?;
    let prober = std::env::current_exe()
        .map_err(|e| format!("locate the aerobench binary: {e}"))?
        .with_file_name("aerobench_layers");

    let mut spans = Vec::new();
    let mut metrics = Vec::new();
    let mut phases = Vec::new();
    let mut artifact = None;
    let serve_shape = serve::Shape { setups: 1, warmup: shape.warmup, measure: shape.measure };
    for (name, mix) in [("serve_repeat", Mix::Repeat), ("serve_mixed", Mix::Mixed)] {
        let session = serve::session(cli, &work.join(name), mix, seed, serve_shape)?;
        request_spans(&session, epoch, &mut spans);
        // Every condition is a cache hit on serve_repeat, so its encode
        // stage is identically zero and reported only for serve_mixed.
        metrics.extend(stage_metrics(name, &session, mix == Mix::Mixed));
        phases.extend(
            session.phases().into_iter().map(|p| Phase { name: format!("{name}.{}", p.name), ..p }),
        );
        artifact = Some(session.artifact);
    }
    let artifact = artifact.expect("two serve sessions ran");

    let layer_spans = work.join("layers.ndjson");
    let mut cmd = Command::new(&prober);
    cmd.arg("--seed")
        .arg(seed.to_string())
        .arg("--artifact")
        .arg(&artifact)
        .arg("--spans")
        .arg(&layer_spans)
        .arg("--span-base")
        .arg(spans.len().to_string())
        .arg("--ns-offset")
        .arg(epoch.elapsed().as_nanos().to_string())
        .env_remove("AERO_THREADS")
        .env_remove("AERO_BACKEND")
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if shape.smoke {
        cmd.arg("--smoke");
    }
    let mut guard = Guard::spawn(&mut cmd).map_err(|e| format!("spawn the layer prober: {e}"))?;
    let mut stdout = String::new();
    guard
        .child()
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)
        .map_err(|e| format!("read the prober's output: {e}"))?;
    let exit = guard.reap().map_err(|e| format!("wait for the prober: {e}"))?;
    let summary = stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .filter(|_| exit.ok)
        .ok_or("the layer prober failed")?;
    // The prober exits non-zero on any failed call, so a summary means
    // every call succeeded.
    let calls = summary.get("calls").and_then(Json::as_u64).unwrap_or(0) as usize;
    phases.push(Phase::of("layers", std::iter::repeat_n(true, calls)));
    if let Some(Json::Obj(fields)) = summary.get("metrics") {
        for (name, m) in fields {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = match m.get("unit").and_then(Json::as_str) {
                Some("us") => "us",
                Some("B") => "B",
                _ => "count",
            };
            metrics.push(Metric::value(name, unit, value, vec![value]));
        }
    }

    let mut trace: String = spans.iter().map(|s| s.to_line() + "\n").collect();
    trace.push_str(
        &std::fs::read_to_string(&layer_spans).map_err(|e| format!("read layer spans: {e}"))?,
    );
    let span_count = trace.lines().count();
    std::fs::write(out_dir.join("trace.ndjson"), trace)
        .map_err(|e| format!("write trace.ndjson: {e}"))?;
    Ok(Outcome {
        workload: "traced",
        why: "per-layer spans, stage timings and allocation counts",
        metrics,
        phases,
        digest: None,
        facts: vec![("spans", span_count.into())],
        calibration_ms: [0.0; 2],
    })
}
