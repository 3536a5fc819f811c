//! `aerobench`: one seeded command that times what users of the
//! AeroDiffusion CLI run — `serve`, `sample`, `train` — end to end, and,
//! in a separate traced run, the layers underneath.
//!
//! ```text
//! aerobench [--workload NAME] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--smoke]
//! ```
//!
//! Run it from the repository root; it builds `aerodiffusion_cli` from
//! the sources there and always runs it at its defaults (no thread,
//! backend or serve knobs). Without `--workload` every workload runs in
//! turn. The last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`; `target/aerobench/`
//! receives `results.json` (and `trace.ndjson` for a traced run). A
//! failed correctness check makes the exit status non-zero.

mod oneshot;
mod proc;
mod report;
mod serve;
mod traced;

use aerobench::lines::Mix;
use report::{Outcome, RunInfo};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, with the reason each exists.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve_repeat",
        "hot prompts hit the condition cache, so queue, batcher, batched DDIM and decode do the work",
    ),
    (
        "serve_mixed",
        "unique text/view/inpaint prompts with source images miss the cache: encode, VAE encode and parsing show",
    ),
    (
        "sample_paper",
        "the sample CLI at the paper setting (DDIM 250, CFG 7.0): UNet, autograd and kernels dominate",
    ),
    (
        "train_paper",
        "paper-preset training writes through the same layers: tape recording, backward and Adam",
    ),
];

/// Set-ups per serve run (each trains, exports and boots the model, in
/// about 60 ms; their median is steadier than any single boot).
const SERVE_SETUPS: usize = 9;

/// Set-ups per one-shot run (each trains a paper-preset fixture).
const ONESHOT_SETUPS: usize = 3;

/// Closed-loop warm-up discarded before a serve run measures.
const SERVE_WARMUP: Duration = Duration::from_secs(2);

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 20.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|(n, _)| *n)
                        .find(|n| *n == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke {
        args.seconds = args.seconds.min(1.0);
    }
    Ok(args)
}

/// A fixed pure-Rust loop; timed before and after each workload, its
/// drift shows the host itself changing speed mid-run.
fn calibrate() -> f64 {
    let started = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// A fresh, empty work directory.
fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

fn run_workload(
    cli: &proc::Cli,
    work: &Path,
    name: &'static str,
    why: &'static str,
    args: &Args,
) -> Result<Outcome, String> {
    let measure = Duration::from_secs_f64(args.seconds);
    let (serve_setups, oneshot_setups) =
        if args.smoke { (1, 1) } else { (SERVE_SETUPS, ONESHOT_SETUPS) };
    let warmup = if args.smoke { Duration::from_millis(300) } else { SERVE_WARMUP };
    let serve_shape = serve::Shape { setups: serve_setups, warmup, measure };
    let oneshot_shape = oneshot::Shape { setups: oneshot_setups, measure };
    match name {
        "serve_repeat" => {
            serve::workload(cli, work, name, why, Mix::Repeat, args.seed, serve_shape)
        }
        "serve_mixed" => serve::workload(cli, work, name, why, Mix::Mixed, args.seed, serve_shape),
        "sample_paper" => oneshot::sample_paper(cli, work, why, args.seed, oneshot_shape),
        "train_paper" => oneshot::train_paper(cli, work, why, args.seed, oneshot_shape),
        _ => unreachable!("workload names come from WORKLOADS"),
    }
}

fn run(args: &Args, started: Instant) -> Result<Vec<Outcome>, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        return Err("run aerobench from the repository root".into());
    }
    let cli = proc::Cli::build()?;
    let out_dir = PathBuf::from("target/aerobench");
    let work_root = out_dir.join("work");
    let mut outcomes = Vec::new();
    if args.trace {
        let work = fresh_dir(&work_root.join("traced"))?;
        let shape = traced::Shape {
            warmup: if args.smoke { Duration::from_millis(300) } else { Duration::from_secs(1) },
            measure: Duration::from_secs_f64((args.seconds / 3.0).max(1.0)),
            smoke: args.smoke,
        };
        let before = calibrate();
        let mut outcome = traced::run(&cli, &work, &out_dir, args.seed, shape, started)?;
        outcome.calibration_ms = [before, calibrate()];
        outcome.print();
        outcomes.push(outcome);
    } else {
        for (name, why) in WORKLOADS {
            if args.workload.is_some_and(|w| w != name) {
                continue;
            }
            let work = fresh_dir(&work_root.join(name))?;
            let before = calibrate();
            let mut outcome = run_workload(&cli, &work, name, why, args)?;
            outcome.calibration_ms = [before, calibrate()];
            outcome.print();
            outcomes.push(outcome);
        }
    }
    let _ = std::fs::remove_dir_all(&work_root);
    let info = RunInfo {
        seed: args.seed,
        seconds: args.seconds,
        mode: if args.trace { "traced" } else { "e2e" },
        started,
    };
    let results = out_dir.join("results.json");
    report::write_results(&results, &info, &outcomes)
        .map_err(|e| format!("write {}: {e}", results.display()))?;
    Ok(outcomes)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("aerobench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(outcomes) => {
            println!("{}", report::result_line(&outcomes));
            if outcomes.iter().all(|o| o.failed() == 0) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("aerobench: {e}");
            ExitCode::FAILURE
        }
    }
}
