//! The newline-delimited-JSON front-end: one request per input line, one
//! reply per output line, replies in submission order.
//!
//! The reader thread parses and submits as fast as input arrives — that
//! is what gives the micro-batcher something to coalesce — while a
//! collector thread resolves the reply handles in FIFO order so output
//! lines line up with input lines. `stats` requests are resolved when the
//! collector reaches them, i.e. after every earlier request has been
//! answered, which makes transcript stats deterministic. `metrics`
//! requests work the same way but return the unified metric registry —
//! serving counters merged with the process-global ambient metrics
//! (tensor kernels, sampler spans, training counters) — as one line.
//!
//! Two streaming extensions ride on the same ordered protocol:
//!
//! - a `{"type":"cancel","id":…}` control line flips the named request's
//!   cancel token the moment the *reader* parses it (cancellation must
//!   not wait behind the FIFO), and is acknowledged in order with
//!   `{"type":"cancel","id":…,"ok":…}`. The connection holds a token
//!   only while its request is in flight: once the collector has the
//!   request's terminal reply the token is dropped, so a `cancel` for an
//!   id that already has its reply (or was never submitted) acks
//!   `"ok":false`. When a newer request reuses an id, `cancel` reaches
//!   the newest one;
//! - a request submitted with `"stream": true` emits zero or more
//!   `{"type":"preview",…}` lines (quantized intermediate latents)
//!   immediately before its terminal reply line.

use crate::json::Json;
use crate::request::{GenerateRequest, ServeReply};
use crate::runtime::{ResponseHandle, ServeRuntime};
use crate::stats::StatsReport;
use aero_diffusion::CancelToken;
use aero_obs::MetricsSnapshot;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};

/// One unit of ordered output.
enum Entry {
    /// A submitted request and its submit sequence number; the collector
    /// blocks on its reply.
    Reply(ResponseHandle, u64),
    /// An immediate reply (rejection or parse error), already final.
    Immediate(Json),
    /// A stats probe, resolved when the collector reaches it.
    Stats,
    /// A unified-metrics probe, resolved when the collector reaches it.
    Metrics,
}

/// The cancel tokens of one connection's in-flight requests, by id, each
/// with its submit sequence number. The reader registers a token on
/// submit and the collector drops it once the request's terminal reply
/// is in; the sequence number keeps an older request's resolution from
/// dropping a newer request that reused its id.
#[derive(Default)]
struct CancelTokens(Mutex<HashMap<String, (u64, CancelToken)>>);

impl CancelTokens {
    fn map(&self) -> MutexGuard<'_, HashMap<String, (u64, CancelToken)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cancels the in-flight request `id`; `false` when there is none.
    fn cancel(&self, id: &str) -> bool {
        let map = self.map();
        let Some((_, token)) = map.get(id) else { return false };
        token.cancel();
        true
    }

    /// Drops the token of request `seq` unless a newer request took `id`.
    fn resolve(&self, id: &str, seq: u64) {
        let mut map = self.map();
        if map.get(id).is_some_and(|&(newest, _)| newest == seq) {
            map.remove(id);
        }
    }
}

/// The single-line `{"type":"metrics",…}` wire form of a merged
/// snapshot: counters and gauges verbatim, histograms summarized to
/// `count`/`sum`/`mean`/`p50`/`p99` (full buckets stay available through
/// the `profile` CLI's NDJSON export).
fn metrics_json(snap: &MetricsSnapshot) -> Json {
    Json::obj(vec![
        ("type", "metrics".into()),
        (
            "counters",
            Json::Obj(snap.counters.iter().map(|(n, v)| (n.clone(), (*v).into())).collect()),
        ),
        ("gauges", Json::Obj(snap.gauges.iter().map(|(n, v)| (n.clone(), (*v).into())).collect())),
        (
            "histograms",
            Json::Obj(
                snap.histograms
                    .iter()
                    .map(|(n, h)| {
                        (
                            n.clone(),
                            Json::obj(vec![
                                ("count", h.count.into()),
                                ("sum", h.sum.into()),
                                ("mean", h.mean().into()),
                                ("p50", h.quantile(0.5).into()),
                                ("p99", h.quantile(0.99).into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `{"type":"models",…}` reply: the attached registry's contents
/// with per-entry integrity, plus which model is actively serving.
fn models_json(runtime: &ServeRuntime) -> Json {
    match runtime.list_models() {
        Ok(models) => Json::obj(vec![
            ("type", "models".into()),
            ("generation", runtime.model_generation().into()),
            (
                "active",
                match runtime.active_model() {
                    Some((name, version)) => format!("{name}@{version}").into(),
                    None => Json::Null,
                },
            ),
            (
                "models",
                Json::Arr(
                    models
                        .iter()
                        .map(|(entry, state)| {
                            Json::obj(vec![
                                ("name", entry.name.as_str().into()),
                                ("version", u64::from(entry.version).into()),
                                ("file", entry.file.as_str().into()),
                                ("len", entry.len.into()),
                                (
                                    "integrity",
                                    match state {
                                        aero_model::IntegrityState::Verified => "verified".into(),
                                        aero_model::IntegrityState::Missing => "missing".into(),
                                        aero_model::IntegrityState::Corrupt { detail } => {
                                            format!("corrupt: {detail}").into()
                                        }
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Err(e) => Json::obj(vec![
            ("type", "models".into()),
            ("ok", false.into()),
            ("detail", e.to_string().into()),
        ]),
    }
}

/// Executes a `{"type":"swap","name":…[,"version":…]}` control line
/// against the registry. The swap is synchronous from the front-end's
/// point of view: every request on a later input line is served by the
/// new model (in-flight ones finish on the old replicas).
fn swap_json(runtime: &ServeRuntime, v: &Json, fallback_id: &str) -> Json {
    let Some(name) = v.get("name").and_then(Json::as_str) else {
        return bad_request(fallback_id, "swap requires a \"name\" field");
    };
    let version = v.get("version").and_then(Json::as_f64).map(|f| f as u32);
    match runtime.swap_from_registry(name, version) {
        Ok(outcome) => Json::obj(vec![
            ("type", "swap".into()),
            ("ok", true.into()),
            ("name", outcome.entry.name.as_str().into()),
            ("version", u64::from(outcome.entry.version).into()),
            ("generation", outcome.generation.into()),
        ]),
        Err(e) => Json::obj(vec![
            ("type", "swap".into()),
            ("ok", false.into()),
            ("detail", e.to_string().into()),
        ]),
    }
}

/// A `{"type":"error",…}` line for input that never became a request.
fn bad_request(id: &str, detail: &str) -> Json {
    Json::obj(vec![
        ("type", "error".into()),
        ("id", id.into()),
        ("reason", "bad_request".into()),
        ("detail", detail.into()),
    ])
}

/// Serves NDJSON from `input` to `output` until EOF, then drains the
/// runtime and returns the final statistics.
///
/// # Errors
///
/// Propagates I/O errors from reading `input` or writing `output`; the
/// runtime is drained and shut down even on an output error.
pub fn serve_ndjson(
    runtime: ServeRuntime,
    input: impl BufRead,
    mut output: impl Write + Send,
) -> std::io::Result<StatsReport> {
    let (tx, rx) = mpsc::channel::<Entry>();
    let cancels = CancelTokens::default();
    let (read_result, write_result) = std::thread::scope(|scope| {
        let (runtime, cancels) = (&runtime, &cancels);
        let collector = scope.spawn(move || -> std::io::Result<()> {
            for entry in rx {
                let reply = match entry {
                    Entry::Reply(handle, seq) => {
                        let terminal = loop {
                            match handle.next_event() {
                                // Streamed previews go out as their own
                                // lines, in place, ahead of the terminal
                                // reply.
                                Some(reply) if !reply.is_terminal() => {
                                    writeln!(output, "{}", reply.to_json().render())?;
                                    output.flush()?;
                                }
                                other => break other,
                            }
                        };
                        cancels.resolve(handle.id(), seq);
                        // The worker died without answering; `wait`
                        // synthesizes (and records) the typed failure.
                        terminal.unwrap_or_else(|| handle.wait()).to_json()
                    }
                    Entry::Immediate(json) => json,
                    Entry::Stats => runtime.stats().to_json(),
                    Entry::Metrics => metrics_json(&runtime.metrics()),
                };
                writeln!(output, "{}", reply.render())?;
                output.flush()?;
            }
            Ok(())
        });
        let read_result = read_loop(runtime, input, &tx, cancels);
        drop(tx);
        let write_result = collector.join().expect("reply collector panicked");
        (read_result, write_result)
    });
    let stats = runtime.shutdown();
    read_result?;
    write_result?;
    Ok(stats)
}

/// Parses and submits every input line, pushing ordered entries to the
/// collector.
fn read_loop(
    runtime: &ServeRuntime,
    input: impl BufRead,
    tx: &mpsc::Sender<Entry>,
    cancels: &CancelTokens,
) -> std::io::Result<()> {
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fallback_id = format!("req-{lineno}");
        let entry = match Json::parse(&line) {
            Err(e) => Entry::Immediate(bad_request(&fallback_id, &format!("invalid JSON: {e}"))),
            Ok(v) => match v.get("type").and_then(Json::as_str).unwrap_or("generate") {
                "stats" => Entry::Stats,
                "metrics" => Entry::Metrics,
                "models" => Entry::Immediate(models_json(runtime)),
                // The swap runs here, in line order: requests on earlier
                // lines were already submitted (they finish on whichever
                // replica pops them), requests on later lines meet the
                // swapped-in model.
                "swap" => Entry::Immediate(swap_json(runtime, &v, &fallback_id)),
                // The cancel takes effect here, as soon as the reader
                // sees the line — only the acknowledgement waits for its
                // turn in the output order. `ok` is false for ids with no
                // request in flight on this connection.
                "cancel" => {
                    let id = v.get("id").and_then(Json::as_str).unwrap_or(&fallback_id);
                    Entry::Immediate(Json::obj(vec![
                        ("type", "cancel".into()),
                        ("id", id.into()),
                        ("ok", cancels.cancel(id).into()),
                    ]))
                }
                "generate" => match GenerateRequest::from_json(&v, &fallback_id) {
                    Err(detail) => Entry::Immediate(bad_request(&fallback_id, &detail)),
                    Ok(request) => {
                        let id = request.id.clone();
                        match runtime.submit(request) {
                            Ok(handle) => {
                                let seq = lineno as u64;
                                cancels.map().insert(id, (seq, handle.cancel_token()));
                                Entry::Reply(handle, seq)
                            }
                            Err(reason) => {
                                Entry::Immediate(ServeReply::Rejected { id, reason }.to_json())
                            }
                        }
                    }
                },
                other => Entry::Immediate(bad_request(
                    &fallback_id,
                    &format!("unknown request type {other:?}"),
                )),
            },
        };
        if tx.send(entry).is_err() {
            break; // collector died on an output error; its result says why
        }
    }
    Ok(())
}
