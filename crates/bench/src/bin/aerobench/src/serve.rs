//! The serve workloads: `aerodiffusion_cli serve` booted from a registry
//! artifact, driven over its NDJSON pipes by a closed loop that keeps a
//! fixed number of requests outstanding.
//!
//! The load comes from this one process with two threads: the caller's
//! thread writes requests, a scoped reader thread reads replies and
//! frees a slot for each. Replies arrive in submission order (the
//! server's FIFO collector), so the reader pairs them with send times
//! through a channel.

use crate::proc::{Cli, Exit, Guard};
use crate::report::{Latency, Metric, Outcome, Phase};
use aerobench::fnv1a;
use aerobench::json::Json;
use aerobench::lines::{Kind, Line, LineGen, Mix, SOURCE_SIZE};
use aerobench::stats;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, ChildStdout, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

/// Requests kept outstanding by the closed loop.
const OUTSTANDING: usize = 8;

/// Fixed probe requests sent after each boot and again after the
/// measured phase; both copies must come back byte-equal.
const PROBES: usize = 8;

/// The server's per-stage breakdown of one request, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stages {
    /// Waiting in the request queue.
    pub queue_us: u64,
    /// Condition encode (0 on a cache hit).
    pub encode_us: u64,
    /// The coalesced sampler call the request rode in.
    pub sample_us: u64,
    /// VAE decode and quantization.
    pub decode_us: u64,
}

impl Stages {
    fn sum_us(&self) -> u64 {
        self.queue_us + self.encode_us + self.sample_us + self.decode_us
    }
}

/// A served image as the wire reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageReply {
    /// Echoed request id.
    pub id: String,
    /// Image width.
    pub width: u64,
    /// Image height.
    pub height: u64,
    /// Length of the base64 pixel payload.
    pub b64_len: usize,
    /// The payload itself (emptied unless the caller keeps images).
    pub rgb8_b64: String,
    /// Requests coalesced into the sampler call.
    pub batch_size: u64,
    /// Whether the condition came from the cache.
    pub cache_hit: bool,
    /// Server-side stage timings.
    pub stages: Stages,
}

/// One reply line.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `{"type":"image",…}`.
    Image(ImageReply),
    /// `{"type":"error",…}`: a typed rejection (`queue_full`,
    /// `overloaded`, `worker_error`, …) or a `bad_request`.
    Error {
        /// Echoed request id.
        id: String,
        /// Machine-readable reason tag.
        reason: String,
    },
    /// `{"type":"preview",…}`: a streamed intermediate latent.
    Preview,
    /// Anything else, kept verbatim for the error message.
    Other(String),
}

/// Parses one reply line.
pub fn parse_reply(line: &str) -> Reply {
    let Ok(v) = Json::parse(line) else {
        return Reply::Other(line.to_string());
    };
    let text = |key: &str| v.get(key).and_then(Json::as_str).unwrap_or_default().to_string();
    match v.get("type").and_then(Json::as_str) {
        Some("image") => {
            let stage = |key: &str| {
                v.get("latency_us").and_then(|l| l.get(key)).and_then(Json::as_u64).unwrap_or(0)
            };
            let rgb8_b64 = text("rgb8_b64");
            Reply::Image(ImageReply {
                id: text("id"),
                width: v.get("width").and_then(Json::as_u64).unwrap_or(0),
                height: v.get("height").and_then(Json::as_u64).unwrap_or(0),
                b64_len: rgb8_b64.len(),
                rgb8_b64,
                batch_size: v.get("batch_size").and_then(Json::as_u64).unwrap_or(0),
                cache_hit: v.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
                stages: Stages {
                    queue_us: stage("queue"),
                    encode_us: stage("encode"),
                    sample_us: stage("sample"),
                    decode_us: stage("decode"),
                },
            })
        }
        Some("error") => Reply::Error { id: text("id"), reason: text("reason") },
        Some("preview") => Reply::Preview,
        _ => Reply::Other(line.to_string()),
    }
}

/// Client latency not covered by the server's stages (pipes, JSON,
/// base64, the FIFO collector's head-of-line hold), in microseconds.
///
/// # Errors
///
/// The stages sum to more than the client saw: the server reported
/// impossible timings.
pub fn unaccounted_us(latency: Duration, stages: &Stages) -> Result<f64, String> {
    let client_us = latency.as_secs_f64() * 1e6;
    let rest = client_us - stages.sum_us() as f64;
    if rest < 0.0 {
        Err(format!("stages sum to {} us but the client waited {client_us:.1} us", stages.sum_us()))
    } else {
        Ok(rest)
    }
}

/// One request and its reply.
#[derive(Debug, Clone)]
pub struct Record {
    /// Request id.
    pub id: String,
    /// Task kind.
    pub kind: Kind,
    /// Just before the request line was written.
    pub sent: Instant,
    /// Just after the reply line was read.
    pub received: Instant,
    /// The parsed reply.
    pub reply: Reply,
}

impl Record {
    /// Client-side latency.
    pub fn latency(&self) -> Duration {
        self.received - self.sent
    }

    /// The image reply, if it passes every check: right id, native
    /// geometry, a full pixel payload, and stages within the client's
    /// latency.
    ///
    /// # Errors
    ///
    /// Describes the first failed check.
    pub fn image(&self) -> Result<&ImageReply, String> {
        let Reply::Image(img) = &self.reply else {
            return Err(format!("request {} got {:?}", self.id, self.reply));
        };
        let side = SOURCE_SIZE as u64;
        if img.id != self.id {
            return Err(format!("reply for {} arrived in place of {}", img.id, self.id));
        }
        if (img.width, img.height) != (side, side)
            || img.b64_len != 4 * (3 * SOURCE_SIZE.pow(2)).div_ceil(3)
        {
            return Err(format!(
                "request {}: {}x{} image with {} base64 bytes",
                self.id, img.width, img.height, img.b64_len
            ));
        }
        unaccounted_us(self.latency(), &img.stages)?;
        Ok(img)
    }
}

/// When a drive stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many requests.
    Count(usize),
    /// At this instant.
    At(Instant),
}

/// A running `serve` child with its pipes.
pub struct Server {
    guard: Guard,
    stdin: BufWriter<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Boots `serve --registry <dir> --model smoke` at the CLI defaults.
    ///
    /// # Errors
    ///
    /// Spawn failures.
    pub fn spawn(cli: &Cli, registry: &Path) -> io::Result<Server> {
        let mut cmd = cli.command(&[&"serve", &"--registry", &registry, &"--model", &"smoke"]);
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        let mut guard = Guard::spawn(&mut cmd)?;
        let stdin = guard.child().stdin.take().expect("stdin is piped");
        let stdout = guard.child().stdout.take().expect("stdout is piped");
        Ok(Server { guard, stdin: BufWriter::new(stdin), stdout: BufReader::new(stdout) })
    }

    /// Runs a closed loop: up to `outstanding` requests in flight, the
    /// next line written as soon as a reply frees a slot, until `stop`.
    /// Returns every request with its reply, in order. Pixel payloads
    /// are kept only when `keep_images` (probes).
    ///
    /// # Errors
    ///
    /// Pipe failures, or the server closing stdout early.
    pub fn drive(
        &mut self,
        next: &mut dyn FnMut() -> Line,
        outstanding: usize,
        stop: Stop,
        keep_images: bool,
    ) -> io::Result<Vec<Record>> {
        let (pending_tx, pending_rx) = mpsc::channel();
        let (slot_tx, slot_rx) = mpsc::channel();
        let (stdin, stdout) = (&mut self.stdin, &mut self.stdout);
        std::thread::scope(|s| {
            let reader = s.spawn(move || read_replies(stdout, &pending_rx, &slot_tx, keep_images));
            let written = write_requests(stdin, next, outstanding, stop, pending_tx, &slot_rx);
            let read = reader.join().expect("reply reader panicked");
            written.and(read)
        })
    }

    /// Closes stdin so the server drains and exits, then reaps it.
    ///
    /// # Errors
    ///
    /// Pipe or wait failures.
    pub fn finish(self) -> io::Result<Exit> {
        let Server { guard, stdin, mut stdout } = self;
        drop(stdin.into_inner().map_err(io::IntoInnerError::into_error)?);
        io::copy(&mut stdout, &mut io::sink())?;
        guard.reap()
    }
}

fn write_requests(
    stdin: &mut BufWriter<ChildStdin>,
    next: &mut dyn FnMut() -> Line,
    outstanding: usize,
    stop: Stop,
    pending: Sender<(String, Kind, Instant)>,
    slots: &Receiver<()>,
) -> io::Result<()> {
    let (mut in_flight, mut sent) = (0, 0);
    loop {
        if in_flight == outstanding {
            if slots.recv().is_err() {
                break; // the reader stopped; its result says why
            }
            in_flight -= 1;
        }
        let done = match stop {
            Stop::Count(n) => sent == n,
            Stop::At(t) => Instant::now() >= t,
        };
        if done {
            break;
        }
        let line = next();
        if pending.send((line.id, line.kind, Instant::now())).is_err() {
            break;
        }
        stdin.write_all(line.text.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        in_flight += 1;
        sent += 1;
    }
    Ok(())
}

fn read_replies(
    stdout: &mut BufReader<ChildStdout>,
    pending: &Receiver<(String, Kind, Instant)>,
    slots: &Sender<()>,
    keep_images: bool,
) -> io::Result<Vec<Record>> {
    let mut records = Vec::new();
    let mut buf = String::new();
    for (id, kind, sent) in pending {
        let (mut reply, received) = loop {
            buf.clear();
            if stdout.read_line(&mut buf)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "serve closed stdout"));
            }
            let received = Instant::now();
            match parse_reply(buf.trim_end()) {
                Reply::Preview => {}
                reply => break (reply, received),
            }
        };
        if let (Reply::Image(img), false) = (&mut reply, keep_images) {
            img.rgb8_b64 = String::new();
        }
        records.push(Record { id, kind, sent, received, reply });
        let _ = slots.send(());
    }
    Ok(records)
}

/// Sizes of one serve session.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Boots from an empty directory; setup time is their median.
    pub setups: usize,
    /// Closed-loop time discarded before measuring.
    pub warmup: Duration,
    /// Closed-loop time measured.
    pub measure: Duration,
}

/// Everything one serve session observed.
pub struct Session {
    /// Wall time of each boot: train + export + spawn + probe replies.
    pub setup_s: Vec<f64>,
    /// The closed loop's requests (warm-up and measured).
    pub records: Vec<Record>,
    /// Start and end of the measured window.
    pub window: (Instant, Instant),
    /// Every probe round: one per boot, then one after the loop.
    pub probe_rounds: Vec<Vec<Record>>,
    /// The measured server's exit.
    pub exit: Exit,
    /// The exported `.amdl` artifact the server booted from.
    pub artifact: PathBuf,
}

impl Session {
    /// Requests sent inside the measured window.
    pub fn measured(&self) -> impl Iterator<Item = &Record> {
        let (t0, t1) = self.window;
        self.records.iter().filter(move |r| r.sent >= t0 && r.sent < t1)
    }

    /// Requests sent inside the measured window per second, from the
    /// window's start to the last of their replies.
    pub fn throughput(&self) -> f64 {
        let (t0, _) = self.window;
        let (n, last) =
            self.measured().fold((0usize, t0), |(n, last), r| (n + 1, last.max(r.received)));
        n as f64 / (last - t0).as_secs_f64()
    }

    /// Per-phase pass/fail counts, plus the probe byte-equality checks
    /// (every round must match the first boot's pixels).
    pub fn phases(&self) -> Vec<Phase> {
        let ok = |r: &Record| r.image().is_ok();
        let (t0, _) = self.window;
        let (boots, after) = self.probe_rounds.split_at(self.probe_rounds.len() - 1);
        let first = &self.probe_rounds[0];
        let mut same = Vec::new();
        for round in &self.probe_rounds[1..] {
            for (a, b) in round.iter().zip(first) {
                same.push(match (&a.reply, &b.reply) {
                    (Reply::Image(x), Reply::Image(y)) => x.rgb8_b64 == y.rgb8_b64,
                    _ => false,
                });
            }
        }
        vec![
            Phase::of("setup", boots.iter().flatten().map(ok)),
            Phase::of("warmup", self.records.iter().filter(|r| r.sent < t0).map(ok)),
            Phase::of("measured", self.measured().map(ok)),
            Phase::of("probes_after", after.iter().flatten().map(ok)),
            Phase::of("determinism", same),
        ]
    }

    /// Digest of the first boot's probe pixels.
    pub fn digest(&self) -> u64 {
        self.probe_rounds[0].iter().fold(aerobench::FNV_OFFSET, |h, r| match &r.reply {
            Reply::Image(img) => fnv1a(h, img.rgb8_b64.as_bytes()),
            other => fnv1a(h, format!("{other:?}").as_bytes()),
        })
    }
}

/// Runs one serve session in `work`: `shape.setups` boots from an empty
/// directory (the last one stays up), the closed loop, the closing probe
/// round, and shutdown.
///
/// # Errors
///
/// A CLI step that exits non-zero, or a server that dies mid-session.
pub fn session(
    cli: &Cli,
    work: &Path,
    mix: Mix,
    seed: u64,
    shape: Shape,
) -> Result<Session, String> {
    let probe_lines: Vec<Line> = {
        let mut gen = LineGen::new(mix, seed, "probe");
        (0..PROBES).map(|_| gen.next_line()).collect()
    };
    let probe = |server: &mut Server| {
        let mut lines = probe_lines.iter().cloned();
        server
            .drive(
                &mut || lines.next().expect("one line per probe"),
                PROBES,
                Stop::Count(PROBES),
                true,
            )
            .map_err(|e| format!("probe round: {e}"))
    };
    let seed_arg = seed.to_string();
    let mut setup_s = Vec::new();
    let mut probe_rounds = Vec::new();
    let mut live = None;
    let mut artifact = PathBuf::new();
    for boot in 0..shape.setups {
        let dir = work.join(format!("boot{boot}"));
        let (model, registry) = (dir.join("model"), dir.join("registry"));
        artifact = dir.join("smoke.amdl");
        let started = Instant::now();
        cli.run_ok(&[
            &"train",
            &model,
            &"--scale",
            &"smoke",
            &"--scenes",
            &"4",
            &"--seed",
            &seed_arg,
        ])?;
        cli.run_ok(&[
            &"model",
            &"export",
            &model,
            &artifact,
            &"--scale",
            &"smoke",
            &"--registry",
            &registry,
            &"--name",
            &"smoke",
        ])?;
        let mut server = Server::spawn(cli, &registry).map_err(|e| format!("spawn serve: {e}"))?;
        probe_rounds.push(probe(&mut server)?);
        setup_s.push(started.elapsed().as_secs_f64());
        if boot + 1 < shape.setups {
            let exit = server.finish().map_err(|e| format!("serve shutdown: {e}"))?;
            if !exit.ok {
                return Err("serve exited non-zero after a probe round".into());
            }
        } else {
            live = Some(server);
        }
    }
    let mut server = live.ok_or("a serve session needs at least one boot")?;
    let mut gen = LineGen::new(mix, seed, "r");
    let start = Instant::now();
    let window = (start + shape.warmup, start + shape.warmup + shape.measure);
    let records = server
        .drive(&mut || gen.next_line(), OUTSTANDING, Stop::At(window.1), false)
        .map_err(|e| format!("closed loop: {e}"))?;
    probe_rounds.push(probe(&mut server)?);
    let exit = server.finish().map_err(|e| format!("serve shutdown: {e}"))?;
    if !exit.ok {
        return Err("serve exited non-zero".into());
    }
    Ok(Session { setup_s, records, window, probe_rounds, exit, artifact })
}

/// Mean of one stage over the measured requests, in milliseconds.
pub fn stage_mean_ms(session: &Session, stage: impl Fn(&Record, &ImageReply) -> f64) -> f64 {
    let values: Vec<f64> =
        session.measured().filter_map(|r| r.image().ok().map(|img| stage(r, img))).collect();
    values.iter().sum::<f64>() / values.len().max(1) as f64 / 1e3
}

/// The end-to-end outcome of one serve workload.
///
/// # Errors
///
/// See [`session`].
pub fn workload(
    cli: &Cli,
    work: &Path,
    name: &'static str,
    why: &'static str,
    mix: Mix,
    seed: u64,
    shape: Shape,
) -> Result<Outcome, String> {
    let s = session(cli, work, mix, seed, shape)?;
    let latencies: Vec<f64> = s.measured().map(|r| r.latency().as_secs_f64() * 1e3).collect();
    if latencies.is_empty() {
        return Err(format!("{name}: no request was sent in the measured window"));
    }
    let Latency { mean, tail, mut facts } = Latency::of(latencies);
    let images: Vec<&ImageReply> = s.measured().filter_map(|r| r.image().ok()).collect();
    let hits = images.iter().filter(|i| i.cache_hit).count() as f64 / images.len().max(1) as f64;
    let batch =
        images.iter().map(|i| i.batch_size as f64).sum::<f64>() / images.len().max(1) as f64;
    let stage = |f: fn(&Stages) -> u64| stage_mean_ms(&s, |_, img| f(&img.stages) as f64);
    let unaccounted =
        stage_mean_ms(&s, |r, img| unaccounted_us(r.latency(), &img.stages).unwrap_or(0.0));
    facts.extend([
        ("cache_hit_ratio", hits.into()),
        ("batch_size_mean", batch.into()),
        ("queue_ms_mean", stage(|st| st.queue_us).into()),
        ("encode_ms_mean", stage(|st| st.encode_us).into()),
        ("sample_ms_mean", stage(|st| st.sample_us).into()),
        ("decode_ms_mean", stage(|st| st.decode_us).into()),
        ("unaccounted_ms_mean", unaccounted.into()),
    ]);
    for (kind, fact) in [
        (Kind::Text, "latency_p50_ms.text"),
        (Kind::View, "latency_p50_ms.view"),
        (Kind::Inpaint, "latency_p50_ms.inpaint"),
    ] {
        let ms: Vec<f64> = s
            .measured()
            .filter(|r| r.kind == kind)
            .map(|r| r.latency().as_secs_f64() * 1e3)
            .collect();
        if !ms.is_empty() {
            facts.push((fact, stats::median(&stats::sorted(&ms)).into()));
        }
    }
    Ok(Outcome {
        workload: name,
        why,
        metrics: vec![
            Metric::median("setup_s", "s", s.setup_s.clone()),
            mean,
            tail,
            Metric::value("throughput_ops", "1/s", s.throughput(), vec![s.throughput()]),
            Metric::value("peak_rss_mb", "MB", s.exit.rss_mb(), vec![s.exit.rss_mb()]),
        ],
        phases: s.phases(),
        digest: Some(s.digest()),
        facts,
        calibration_ms: [0.0; 2],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_image_rejected_error_and_preview_lines() {
        let image = r#"{"type":"image","id":"r-1","width":16,"height":16,"rgb8_b64":"AAAA","batch_size":4,"cache_hit":true,"latency_us":{"queue":10,"encode":0,"sample":900,"decode":40}}"#;
        let Reply::Image(img) = parse_reply(image) else { panic!("not an image") };
        assert_eq!(
            (img.id.as_str(), img.width, img.batch_size, img.cache_hit),
            ("r-1", 16, 4, true)
        );
        assert_eq!(
            img.stages,
            Stages { queue_us: 10, encode_us: 0, sample_us: 900, decode_us: 40 }
        );
        assert_eq!(img.b64_len, 4);
        let rejected = r#"{"type":"error","id":"r-2","reason":"queue_full","detail":"request queue full (capacity 32)"}"#;
        assert_eq!(
            parse_reply(rejected),
            Reply::Error { id: "r-2".into(), reason: "queue_full".into() }
        );
        let error =
            r#"{"type":"error","id":"req-3","reason":"bad_request","detail":"invalid JSON"}"#;
        assert_eq!(
            parse_reply(error),
            Reply::Error { id: "req-3".into(), reason: "bad_request".into() }
        );
        let preview = r#"{"type":"preview","id":"r-1","step":0,"steps":10,"shape":[4,4,4],"min":-1,"max":1,"latent_q8_b64":"AA=="}"#;
        assert_eq!(parse_reply(preview), Reply::Preview);
        assert_eq!(parse_reply("not json"), Reply::Other("not json".into()));
    }

    #[test]
    fn stage_sum_must_fit_inside_the_client_latency() {
        let stages = Stages { queue_us: 100, encode_us: 0, sample_us: 800, decode_us: 50 };
        let rest = unaccounted_us(Duration::from_micros(1_000), &stages).unwrap();
        assert!((rest - 50.0).abs() < 1e-6);
        assert_eq!(unaccounted_us(Duration::from_micros(950), &stages).unwrap(), 0.0);
        assert!(unaccounted_us(Duration::from_micros(949), &stages).is_err());
    }

    #[test]
    fn records_fail_on_wrong_id_geometry_or_reply_type() {
        let now = Instant::now();
        let img = ImageReply {
            id: "a".into(),
            width: 16,
            height: 16,
            b64_len: 1024,
            rgb8_b64: String::new(),
            batch_size: 1,
            cache_hit: false,
            stages: Stages::default(),
        };
        let record = |reply| Record {
            id: "a".into(),
            kind: Kind::Text,
            sent: now,
            received: now + Duration::from_millis(5),
            reply,
        };
        assert!(record(Reply::Image(img.clone())).image().is_ok());
        assert!(record(Reply::Image(ImageReply { id: "b".into(), ..img.clone() }))
            .image()
            .is_err());
        assert!(record(Reply::Image(ImageReply { width: 32, ..img.clone() })).image().is_err());
        assert!(record(Reply::Image(ImageReply { b64_len: 1020, ..img })).image().is_err());
        assert!(record(Reply::Error { id: "a".into(), reason: "worker_error".into() })
            .image()
            .is_err());
    }
}
