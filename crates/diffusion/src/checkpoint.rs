//! Crash-safe training checkpoints with exact resume.
//!
//! Long diffusion runs die — OOM kills, preemptions, power loss — and
//! without checkpoints every death restarts training from scratch. This
//! module holds the checkpointed training loop ([`train_checkpointed`])
//! and persists everything it needs to continue *bit-identically*:
//!
//! - the optimized parameter values,
//! - Adam's first/second moments and bias-correction step counter,
//! - the RNG state (noise draws, timestep sampling, condition dropout
//!   and epoch shuffles all consume the same generator),
//! - the training cursor: global step, epoch, position within the
//!   epoch, and the epoch's shuffled batch order.
//!
//! Each checkpoint is a directory `step-<n>/` written under a tmp name
//! and atomically renamed into place, carrying a `manifest.txt` with
//! per-blob CRC32 checksums (see [`aero_nn::integrity`]). On resume the
//! newest checkpoint that passes verification wins; corrupt or
//! half-written ones are skipped, not trusted. Only the last
//! [`CheckpointConfig::keep`] checkpoints are retained on disk.

use crate::trainer::optimizer_step;
use aero_nn::integrity::{IntegrityError, Manifest};
use aero_nn::optim::{Adam, AdamState};
use aero_nn::serialize::{decode_tensors, encode_params, load_into_params, LoadWeightsError};
use aero_nn::Var;
use rand::rngs::StdRng;
use rand::Rng;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Where and how often to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the `step-<n>/` checkpoint subdirectories.
    pub dir: PathBuf,
    /// Save every this many optimizer steps (0 disables periodic saves;
    /// a final checkpoint is still written when a run completes).
    pub every: u64,
    /// How many checkpoints to retain; older ones are pruned.
    pub keep: usize,
}

impl CheckpointConfig {
    /// A config saving every `every` steps into `dir`, keeping 3.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        CheckpointConfig { dir: dir.into(), every, keep: 3 }
    }
}

/// The exact position of a training run, sufficient to continue it
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainCursor {
    /// Global optimizer steps completed.
    pub step: u64,
    /// The epoch in progress.
    pub epoch: usize,
    /// Index into [`TrainCursor::order`] of the next batch to train.
    pub batch: usize,
    /// The in-progress epoch's shuffled batch order.
    pub order: Vec<usize>,
    /// RNG state *after* the last completed step.
    pub rng: [u64; 4],
}

/// Error saving or loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The manifest is missing/malformed, versioned wrong, or a blob
    /// failed its checksum.
    Integrity(IntegrityError),
    /// A weight blob failed to decode or mismatched the parameters.
    Weights(LoadWeightsError),
    /// The cursor metadata (`state.txt`) is malformed.
    Meta(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failure: {e}"),
            CheckpointError::Integrity(e) => write!(f, "checkpoint integrity failure: {e}"),
            CheckpointError::Weights(e) => write!(f, "checkpoint weight failure: {e}"),
            CheckpointError::Meta(d) => write!(f, "malformed checkpoint state: {d}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Integrity(e) => Some(e),
            CheckpointError::Weights(e) => Some(e),
            CheckpointError::Meta(_) => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<IntegrityError> for CheckpointError {
    fn from(e: IntegrityError) -> Self {
        CheckpointError::Integrity(e)
    }
}

impl From<LoadWeightsError> for CheckpointError {
    fn from(e: LoadWeightsError) -> Self {
        CheckpointError::Weights(e)
    }
}

const BLOBS: [&str; 3] = ["params.aero", "adam.aero", "state.txt"];

fn render_state(cursor: &TrainCursor, adam_step: u64) -> String {
    let rng = cursor.rng.map(|w| w.to_string()).join(",");
    let order = cursor.order.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
    format!(
        "step={}\nadam_step={adam_step}\nepoch={}\nbatch={}\nrng={rng}\norder={order}\n",
        cursor.step, cursor.epoch, cursor.batch
    )
}

fn parse_state(text: &str) -> Result<(TrainCursor, u64), CheckpointError> {
    let mut step = None;
    let mut adam_step = None;
    let mut epoch = None;
    let mut batch = None;
    let mut rng = None;
    let mut order = None;
    for line in text.lines() {
        let Some((k, v)) = line.split_once('=') else { continue };
        match k {
            "step" => step = v.parse().ok(),
            "adam_step" => adam_step = v.parse().ok(),
            "epoch" => epoch = v.parse().ok(),
            "batch" => batch = v.parse().ok(),
            "rng" => {
                let words: Vec<u64> = v.split(',').filter_map(|w| w.parse().ok()).collect();
                if words.len() == 4 {
                    rng = Some([words[0], words[1], words[2], words[3]]);
                }
            }
            "order" => {
                if v.is_empty() {
                    order = Some(Vec::new());
                } else {
                    let idx: Result<Vec<usize>, _> = v.split(',').map(str::parse).collect();
                    order = idx.ok();
                }
            }
            _ => {}
        }
    }
    let missing = |what: &str| CheckpointError::Meta(format!("missing or malformed {what}"));
    Ok((
        TrainCursor {
            step: step.ok_or_else(|| missing("step"))?,
            epoch: epoch.ok_or_else(|| missing("epoch"))?,
            batch: batch.ok_or_else(|| missing("batch"))?,
            order: order.ok_or_else(|| missing("order"))?,
            rng: rng.ok_or_else(|| missing("rng"))?,
        },
        adam_step.ok_or_else(|| missing("adam_step"))?,
    ))
}

/// Saves one checkpoint of the parameters `opt` updates and of `opt`'s
/// own state, atomically: blobs land in a tmp directory that is renamed
/// to `step-<n>/` only once complete, then older checkpoints beyond
/// [`CheckpointConfig::keep`] are pruned.
///
/// # Errors
///
/// Propagates I/O failures; the previous checkpoints are untouched on
/// error.
pub fn save_checkpoint(
    config: &CheckpointConfig,
    cursor: &TrainCursor,
    opt: &Adam,
) -> Result<PathBuf, CheckpointError> {
    fs::create_dir_all(&config.dir)?;
    let final_dir = config.dir.join(format!("step-{:08}", cursor.step));
    let tmp_dir = config.dir.join(format!(".tmp-step-{:08}", cursor.step));
    if tmp_dir.exists() {
        fs::remove_dir_all(&tmp_dir)?;
    }
    fs::create_dir_all(&tmp_dir)?;
    let state = opt.export_state();
    fs::write(tmp_dir.join("params.aero"), encode_params(opt.params()))?;
    fs::write(tmp_dir.join("adam.aero"), state.moments_bytes())?;
    fs::write(tmp_dir.join("state.txt"), render_state(cursor, state.step))?;
    Manifest::for_files(&tmp_dir, &BLOBS)?.write(&tmp_dir)?;
    if final_dir.exists() {
        fs::remove_dir_all(&final_dir)?;
    }
    fs::rename(&tmp_dir, &final_dir)?;
    prune(config)?;
    aero_obs::counter!("train.checkpoint.saves").inc();
    Ok(final_dir)
}

/// All complete checkpoints under `dir`, as `(step, path)` ascending.
///
/// # Errors
///
/// Propagates I/O failures listing an existing directory; a missing
/// directory is simply empty.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(step) = name.to_str().and_then(|n| n.strip_prefix("step-")) else { continue };
        if let Ok(step) = step.parse::<u64>() {
            found.push((step, entry.path()));
        }
    }
    found.sort_by_key(|(step, _)| *step);
    Ok(found)
}

fn prune(config: &CheckpointConfig) -> Result<(), CheckpointError> {
    let ckpts = list_checkpoints(&config.dir)?;
    let keep = config.keep.max(1);
    if ckpts.len() > keep {
        for (_, path) in &ckpts[..ckpts.len() - keep] {
            fs::remove_dir_all(path)?;
        }
    }
    Ok(())
}

/// Verifies and loads one checkpoint directory into `opt` and the
/// parameters it updates.
///
/// The manifest is checked first — version, then every blob's length and
/// CRC32 — so a bit flip anywhere fails typed instead of loading a
/// garbage model.
///
/// # Errors
///
/// [`CheckpointError::Integrity`] on checksum/version failures,
/// [`CheckpointError::Weights`] on decode/shape mismatches,
/// [`CheckpointError::Meta`] on malformed cursor metadata.
pub fn load_checkpoint(dir: &Path, opt: &mut Adam) -> Result<TrainCursor, CheckpointError> {
    let manifest = Manifest::read(dir)?;
    manifest.verify_dir(dir)?;
    let (cursor, adam_step) = parse_state(&fs::read_to_string(dir.join("state.txt"))?)?;
    let param_tensors = decode_tensors(&fs::read(dir.join("params.aero"))?)?;
    let adam_state = AdamState::from_moments_bytes(&fs::read(dir.join("adam.aero"))?, adam_step)?;
    opt.restore_state(adam_state)?;
    load_into_params(opt.params(), param_tensors)?;
    Ok(cursor)
}

/// The outcome of scanning a checkpoint directory for a resume point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeReport {
    /// The cursor restored from the newest valid checkpoint, if any.
    pub cursor: Option<TrainCursor>,
    /// Checkpoints that failed verification and were skipped (newest
    /// first were tried first).
    pub skipped_corrupt: usize,
}

/// Restores the newest checkpoint that verifies cleanly, skipping any
/// corrupt ones, and reports what happened. With no valid checkpoint the
/// caller starts fresh.
///
/// # Errors
///
/// Propagates I/O failures listing the directory; verification failures
/// of individual checkpoints are *not* errors — they are skipped and
/// counted.
pub fn resume_latest(dir: &Path, opt: &mut Adam) -> Result<ResumeReport, CheckpointError> {
    let mut ckpts = list_checkpoints(dir)?;
    ckpts.reverse();
    let mut skipped_corrupt = 0;
    for (_, path) in ckpts {
        match load_checkpoint(&path, opt) {
            Ok(cursor) => {
                aero_obs::counter!("train.checkpoint.resumes").inc();
                return Ok(ResumeReport { cursor: Some(cursor), skipped_corrupt });
            }
            Err(_) => {
                skipped_corrupt += 1;
                aero_obs::counter!("train.checkpoint.corrupt_skipped").inc();
            }
        }
    }
    Ok(ResumeReport { cursor: None, skipped_corrupt })
}

/// How a checkpointed run walks its data: each epoch shuffles `units`
/// indices and trains on them `per_step` at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainPlan {
    /// Indices each epoch shuffles (dataset items, or prebuilt batches).
    pub units: usize,
    /// Indices per optimizer step; an epoch's last step takes the rest.
    pub per_step: usize,
    /// Epochs over the units.
    pub epochs: usize,
    /// Stop after this many global steps (simulates a mid-run kill in
    /// tests and bounds CI smoke runs); `None` runs to completion.
    pub max_steps: Option<u64>,
}

/// What a (possibly resumed, possibly truncated) training run did.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainRun {
    /// Global steps completed, including steps replayed before a resume.
    pub steps: u64,
    /// Whether all epochs finished (false when `max_steps` hit first).
    pub completed: bool,
    /// Loss of the last executed step, if any step ran.
    pub last_loss: Option<f32>,
    /// The checkpoint step training resumed from, if any.
    pub resumed_from: Option<u64>,
    /// Corrupt checkpoints skipped while searching for the resume point.
    pub skipped_corrupt: usize,
}

/// The checkpointed training loop. Each epoch shuffles the unit indices
/// with `rng` (Fisher–Yates), and each optimizer step trains on the next
/// `per_step` of them through `step_loss`, which builds that chunk's loss
/// from the same `rng`.
///
/// With a `checkpoint`, the run first restores the newest checkpoint that
/// verifies (weights, Adam moments, RNG state and the in-epoch order),
/// skipping corrupt ones; it then saves every `checkpoint.every` steps and
/// once at completion. A run killed at an arbitrary step and restarted
/// with the same arguments therefore continues on a bit-identical
/// parameter trajectory. Checkpoints hold the parameters `opt` updates.
///
/// # Errors
///
/// Propagates checkpoint save/scan failures.
pub fn train_checkpointed<F>(
    plan: &TrainPlan,
    checkpoint: Option<&CheckpointConfig>,
    rng: &mut StdRng,
    opt: &mut Adam,
    mut step_loss: F,
) -> Result<TrainRun, CheckpointError>
where
    F: FnMut(&[usize], &mut StdRng) -> Var,
{
    let mut run = TrainRun {
        steps: 0,
        completed: true,
        last_loss: None,
        resumed_from: None,
        skipped_corrupt: 0,
    };
    let (mut start_epoch, mut chunk_start, mut pending_order) = (0, 0, None);
    if let Some(ckpt) = checkpoint {
        let resume = resume_latest(&ckpt.dir, opt)?;
        run.skipped_corrupt = resume.skipped_corrupt;
        if let Some(cursor) = resume.cursor {
            *rng = StdRng::from_state(cursor.rng);
            run.resumed_from = Some(cursor.step);
            run.steps = cursor.step;
            start_epoch = cursor.epoch;
            chunk_start = cursor.batch;
            pending_order = Some(cursor.order);
        }
    }
    let per_step = plan.per_step.max(1);
    let mut last_saved = run.resumed_from;
    'epochs: for epoch in start_epoch..plan.epochs {
        let order = pending_order.take().unwrap_or_else(|| {
            let mut order: Vec<usize> = (0..plan.units).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            order
        });
        for (ci, chunk) in order.chunks(per_step).enumerate().skip(chunk_start) {
            run.last_loss = Some(optimizer_step(opt, || step_loss(chunk, rng)));
            run.steps += 1;
            if let Some(ckpt) =
                checkpoint.filter(|c| c.every > 0 && run.steps.is_multiple_of(c.every))
            {
                let cursor = TrainCursor {
                    step: run.steps,
                    epoch,
                    batch: ci + 1,
                    order: order.clone(),
                    rng: rng.state(),
                };
                save_checkpoint(ckpt, &cursor, opt)?;
                last_saved = Some(run.steps);
            }
            if plan.max_steps.is_some_and(|max| run.steps >= max) {
                run.completed = false;
                break 'epochs;
            }
        }
        chunk_start = 0;
    }
    // A final checkpoint marks the run complete so a re-invocation
    // resumes past the loop instead of repeating work.
    if let Some(ckpt) = checkpoint {
        if run.completed && run.steps > 0 && last_saved != Some(run.steps) {
            let cursor = TrainCursor {
                step: run.steps,
                epoch: plan.epochs,
                batch: 0,
                order: Vec::new(),
                rng: rng.state(),
            };
            save_checkpoint(ckpt, &cursor, opt)?;
        }
    }
    Ok(run)
}
