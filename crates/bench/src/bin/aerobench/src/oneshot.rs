//! The one-shot CLI workloads: `sample` and `train` at the paper preset,
//! one process per operation, run in sequence.

use crate::proc::{dir_digest, ppm_has_size, Cli, Exit};
use crate::report::{Latency, Metric, Outcome, Phase};
use aerobench::json::Json;
use aerobench::{fnv1a, FNV_OFFSET};
use std::path::Path;
use std::time::{Duration, Instant};

/// Native resolution of the paper preset.
const PAPER_SIZE: usize = 32;

/// Scenes in the `sample_paper` fixture. Sampling cost does not depend
/// on how long the fixture trained, so the smallest dataset that trains
/// keeps repeated set-ups affordable.
const SAMPLE_FIXTURE_SCENES: &str = "1";

/// Scenes per measured `train_paper` run.
const TRAIN_SCENES: &str = "4";

/// Scenes per `train_paper` set-up run: the part of a `train` process
/// that does not grow with the dataset (start-up, substrate
/// initialisation, saving) plus one scene of work.
const TRAIN_SETUP_SCENES: &str = "1";

/// Sizes of one one-shot workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Set-ups from an empty directory; setup time is their median.
    pub setups: usize,
    /// Measured time: operations start until it has passed.
    pub measure: Duration,
}

/// What the measured operations observed.
struct Measured {
    exits: Vec<Exit>,
    elapsed: Duration,
    passed: Vec<bool>,
}

/// Runs `op(k)` for k = 0, 1, … until `measure` has passed (at least
/// `min_ops` times). `op` returns the process exit and whether its
/// output passed the workload's checks.
fn measure(
    measure: Duration,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Result<(Exit, bool), String>,
) -> Result<Measured, String> {
    let started = Instant::now();
    let mut m = Measured { exits: Vec::new(), elapsed: Duration::ZERO, passed: Vec::new() };
    while m.exits.len() < min_ops || started.elapsed() < measure {
        let (exit, passed) = op(m.exits.len())?;
        m.passed.push(exit.ok && passed);
        m.exits.push(exit);
    }
    m.elapsed = started.elapsed();
    Ok(m)
}

/// The shared metric set of a one-shot workload, and its facts.
fn metrics(setup_s: Vec<f64>, m: &Measured) -> (Vec<Metric>, Vec<(&'static str, Json)>) {
    let ms: Vec<f64> = m.exits.iter().map(|e| e.wall.as_secs_f64() * 1e3).collect();
    let Latency { mean, tail, facts } = Latency::of(ms);
    let rss: Vec<f64> = m.exits.iter().map(Exit::rss_mb).collect();
    let peak = rss.iter().copied().fold(0.0, f64::max);
    let rate = m.exits.len() as f64 / m.elapsed.as_secs_f64();
    let metrics = vec![
        Metric::median("setup_s", "s", setup_s),
        mean,
        tail,
        Metric::value("throughput_ops", "1/s", rate, vec![rate]),
        Metric::value("peak_rss_mb", "MB", peak, rss),
    ];
    (metrics, facts)
}

/// `sample_paper`: a paper-preset fixture is trained and sampled cold
/// (the set-up, repeated), then `sample` runs back to back at seeds
/// `S, S+1, …`. Seed `S` repeats the cold run and must match it byte for
/// byte; every image must be a 32×32 PPM.
///
/// # Errors
///
/// A fixture step that exits non-zero.
pub fn sample_paper(
    cli: &Cli,
    work: &Path,
    why: &'static str,
    seed: u64,
    shape: Shape,
) -> Result<Outcome, String> {
    let seed_arg = seed.to_string();
    let fixture = work.join("fixture0");
    let mut setup_s = Vec::new();
    let mut same = Vec::new();
    let mut reference: Option<(u64, Vec<u8>)> = None;
    for j in 0..shape.setups {
        let dir = work.join(format!("fixture{j}"));
        let cold = work.join(format!("cold{j}.ppm"));
        let started = Instant::now();
        cli.run_ok(&[
            &"train",
            &dir,
            &"--scale",
            &"paper",
            &"--scenes",
            &SAMPLE_FIXTURE_SCENES,
            &"--seed",
            &seed_arg,
        ])?;
        cli.run_ok(&[&"sample", &dir, &cold, &"--scale", &"paper", &"--seed", &seed_arg])?;
        setup_s.push(started.elapsed().as_secs_f64());
        let digest = dir_digest(&dir).map_err(|e| format!("digest {}: {e}", dir.display()))?;
        let bytes = std::fs::read(&cold).map_err(|e| format!("read {}: {e}", cold.display()))?;
        match &reference {
            None => {
                same.push(ppm_has_size(&bytes, PAPER_SIZE, PAPER_SIZE));
                reference = Some((digest, bytes));
            }
            Some((d0, b0)) => same.extend([digest == *d0, bytes == *b0]),
        }
    }
    let (_, cold_bytes) = reference.ok_or("sample_paper needs at least one set-up")?;
    let out = work.join("out.ppm");
    let m = measure(shape.measure, 1, |k| {
        let s = (seed + k as u64).to_string();
        let exit = cli
            .run(&[&"sample", &fixture, &out, &"--scale", &"paper", &"--seed", &s])
            .map_err(|e| format!("spawn sample: {e}"))?;
        let bytes = std::fs::read(&out).unwrap_or_default();
        let ok = ppm_has_size(&bytes, PAPER_SIZE, PAPER_SIZE) && (k > 0 || bytes == cold_bytes);
        let _ = std::fs::remove_file(&out);
        Ok((exit, ok))
    })?;
    let (metrics, facts) = metrics(setup_s, &m);
    Ok(Outcome {
        workload: "sample_paper",
        why,
        metrics,
        phases: vec![Phase::of("determinism", same), Phase::of("measured", m.passed)],
        digest: Some(fnv1a(FNV_OFFSET, &cold_bytes)),
        facts,
        calibration_ms: [0.0; 2],
    })
}

/// `train_paper`: small same-seed set-up runs, then back-to-back
/// `train --scale paper --scenes 4` runs at seed `S` (at least two).
/// Every run of a kind must save a byte-identical model directory.
///
/// # Errors
///
/// A set-up run that exits non-zero, or an unreadable model directory.
pub fn train_paper(
    cli: &Cli,
    work: &Path,
    why: &'static str,
    seed: u64,
    shape: Shape,
) -> Result<Outcome, String> {
    let seed_arg = seed.to_string();
    let train = |dir: &Path, scenes: &str| -> Result<(Exit, u64), String> {
        let exit = cli
            .run(&[
                &"train",
                &dir,
                &"--scale",
                &"paper",
                &"--scenes",
                &scenes,
                &"--seed",
                &seed_arg,
            ])
            .map_err(|e| format!("spawn train: {e}"))?;
        let digest = if exit.ok { dir_digest(dir).unwrap_or(0) } else { 0 };
        let _ = std::fs::remove_dir_all(dir);
        Ok((exit, digest))
    };
    let mut setup_s = Vec::new();
    let mut setup_digests = Vec::new();
    for j in 0..shape.setups {
        let (exit, digest) = train(&work.join(format!("setup{j}")), TRAIN_SETUP_SCENES)?;
        if !exit.ok {
            return Err("train set-up run exited non-zero".into());
        }
        setup_s.push(exit.wall.as_secs_f64());
        setup_digests.push(digest);
    }
    let mut first = None;
    let m = measure(shape.measure, 2, |k| {
        let (exit, digest) = train(&work.join(format!("run{k}")), TRAIN_SCENES)?;
        let reference = *first.get_or_insert(digest);
        Ok((exit, digest == reference && digest != 0))
    })?;
    let (metrics, facts) = metrics(setup_s, &m);
    let same = setup_digests.iter().map(|d| *d == setup_digests[0]);
    Ok(Outcome {
        workload: "train_paper",
        why,
        metrics,
        phases: vec![Phase::of("determinism", same), Phase::of("measured", m.passed)],
        digest: first,
        facts,
        calibration_ms: [0.0; 2],
    })
}
