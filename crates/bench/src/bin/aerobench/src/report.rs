//! Metrics, per-phase counts and the run's output: human-readable lines,
//! `target/aerobench/results.json`, and the one-line JSON result that
//! ends standard output.

use aerobench::json::Json;
use aerobench::stats::{self, Summary};
use std::time::Instant;

/// Calibration drift beyond which a workload's numbers are flagged: the
/// host itself got faster or slower while it ran.
const DRIFT_FLAG: f64 = 0.10;

/// One reported metric with the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples summarised in `results.json` (their count is the
    /// metric's sample count).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric whose value is the median of its samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn median(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
        let value = Summary::of(&samples).expect("a median metric needs samples").median;
        Metric { name: name.to_string(), unit, value, samples }
    }

    /// A metric with an explicit value (rates, tails, means).
    pub fn value(name: &str, unit: &'static str, value: f64, samples: Vec<f64>) -> Metric {
        Metric { name: name.to_string(), unit, value, samples }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", self.name.as_str().into()),
            ("unit", self.unit.into()),
            ("value", self.value.into()),
            ("count", self.samples.len().into()),
        ];
        if let Some(s) = Summary::of(&self.samples) {
            fields.extend([
                ("min", s.min.into()),
                ("median", s.median.into()),
                ("max", s.max.into()),
            ]);
        }
        Json::obj(fields)
    }
}

/// The latency metrics of one workload's measured operations.
///
/// The bounded central value is the mean, not the median: on a shared
/// host, contention comes in episodes of seconds that slow every
/// operation by a third, and a run's median jumps between the fast and
/// the slow mode as their shares cross one half, while the mean moves in
/// proportion (IQR/median over ten serve runs: 0.35 for the median,
/// 0.17 for the mean). The median stays in `results.json` as a fact.
pub struct Latency {
    /// `latency_mean_ms`.
    pub mean: Metric,
    /// `latency_tail_ms`: the highest percentile with ten samples beyond
    /// it (see [`stats::tail`]), else the median.
    pub tail: Metric,
    /// The median and the quantile the tail reports.
    pub facts: Vec<(&'static str, Json)>,
}

impl Latency {
    /// Latency metrics from per-operation latencies in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn of(ms: Vec<f64>) -> Latency {
        let sorted = stats::sorted(&ms);
        let median = stats::median(&sorted);
        let (tail_q, tail) = stats::tail(&sorted).unwrap_or((0.5, median));
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        Latency {
            mean: Metric::value("latency_mean_ms", "ms", mean, ms.clone()),
            tail: Metric::value("latency_tail_ms", "ms", tail, ms),
            facts: vec![("latency_p50_ms", median.into()), ("tail_quantile", tail_q.into())],
        }
    }
}

/// Requests or invocations of one phase of a workload.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name (`setup`, `measured`, `determinism`, …).
    pub name: String,
    /// Operations attempted.
    pub sent: usize,
    /// Operations whose output passed every check.
    pub succeeded: usize,
    /// Operations that failed a check.
    pub failed: usize,
}

impl Phase {
    /// A phase from per-operation pass/fail results.
    pub fn of(name: &str, passed: impl IntoIterator<Item = bool>) -> Phase {
        let mut phase = Phase { name: name.to_string(), ..Phase::default() };
        for ok in passed {
            phase.sent += 1;
            if ok {
                phase.succeeded += 1;
            } else {
                phase.failed += 1;
            }
        }
        phase
    }
}

/// Everything one workload (or one traced sweep) reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name (`traced` for the per-layer sweep).
    pub workload: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Per-phase counts.
    pub phases: Vec<Phase>,
    /// FNV-1a digest of the workload's seed-determined outputs.
    pub digest: Option<u64>,
    /// Further measured facts (cache-hit ratio, stage means, …).
    pub facts: Vec<(&'static str, Json)>,
    /// Calibration loop time before and after the workload.
    pub calibration_ms: [f64; 2],
}

impl Outcome {
    /// Operations attempted across phases.
    pub fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.sent).sum()
    }

    /// Operations failed across phases.
    pub fn failed(&self) -> usize {
        self.phases.iter().map(|p| p.failed).sum()
    }

    fn drift(&self) -> f64 {
        let [before, after] = self.calibration_ms;
        (after - before).abs() / before
    }

    /// Prints the workload's human-readable lines.
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "{:<13} {:<44} {:>14.4} {:<5} (n={})",
                self.workload,
                m.name,
                m.value,
                m.unit,
                m.samples.len()
            );
        }
        for p in &self.phases {
            println!(
                "{:<13} phase {:<12} sent {:>6}  ok {:>6}  failed {:>3}",
                self.workload, p.name, p.sent, p.succeeded, p.failed
            );
        }
        if let Some(d) = self.digest {
            println!("{:<13} digest fnv64:{d:016x}", self.workload);
        }
        let [before, after] = self.calibration_ms;
        println!(
            "{:<13} host.calibration_ms {before:.2} -> {after:.2} ({:+.1}%{})",
            self.workload,
            100.0 * (after - before) / before,
            if self.drift() > DRIFT_FLAG { ", FLAGGED: host speed drifted" } else { "" }
        );
    }

    fn to_json(&self) -> Json {
        let [before, after] = self.calibration_ms;
        Json::obj([
            ("name", self.workload.into()),
            ("why", self.why.into()),
            ("attempted", self.attempted().into()),
            ("failed", self.failed().into()),
            ("digest", self.digest.map_or(Json::Null, |d| Json::from(format!("fnv64:{d:016x}")))),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("name", p.name.as_str().into()),
                                ("sent", p.sent.into()),
                                ("succeeded", p.succeeded.into()),
                                ("failed", p.failed.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", Json::Arr(self.metrics.iter().map(Metric::to_json).collect())),
            ("facts", Json::obj(self.facts.iter().map(|(k, v)| (*k, v.clone())))),
            (
                "host.calibration_ms",
                Json::obj([
                    ("before", before.into()),
                    ("after", after.into()),
                    ("drift", self.drift().into()),
                    ("flagged", (self.drift() > DRIFT_FLAG).into()),
                ]),
            ),
        ])
    }
}

/// Run-level metadata for `results.json`.
pub struct RunInfo {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// `e2e` or `traced`.
    pub mode: &'static str,
    /// When the runner started.
    pub started: Instant,
}

/// `git rev-parse HEAD` in the working directory, or `unknown` (a
/// checkout without git metadata).
fn commit_id() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Writes `results.json`.
///
/// # Errors
///
/// Propagates the write failure.
pub fn write_results(
    path: &std::path::Path,
    info: &RunInfo,
    outcomes: &[Outcome],
) -> std::io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let doc = Json::obj([
        ("commit", commit_id().into()),
        ("nproc", nproc.into()),
        ("seed", info.seed.into()),
        ("seconds", info.seconds.into()),
        ("mode", info.mode.into()),
        ("wall_s", info.started.elapsed().as_secs_f64().into()),
        ("workloads", Json::Arr(outcomes.iter().map(Outcome::to_json).collect())),
    ]);
    std::fs::write(path, doc.render() + "\n")
}

/// The final stdout line: `{"correct","attempted","failed","metrics"}`.
/// With several outcomes the metric names are prefixed by workload.
pub fn result_line(outcomes: &[Outcome]) -> String {
    let prefix = outcomes.len() > 1;
    let metrics = outcomes.iter().flat_map(|o| {
        o.metrics.iter().map(move |m| {
            let name = if prefix { format!("{}.{}", o.workload, m.name) } else { m.name.clone() };
            (name, Json::obj([("value", m.value.into()), ("unit", m.unit.into())]))
        })
    });
    let failed: usize = outcomes.iter().map(Outcome::failed).sum();
    Json::obj([
        ("correct", (failed == 0).into()),
        ("attempted", outcomes.iter().map(Outcome::attempted).sum::<usize>().into()),
        ("failed", failed.into()),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}
