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
//! Each checkpoint is one container file `step-<n>.amdl` (see
//! [`aero_nn::artifact`]) written atomically: tensors `param.<i>`,
//! `adam.m.<i>` and `adam.v.<i>`, and the step counters, RNG words and
//! batch order as key/value entries. On resume the newest checkpoint
//! that passes its CRC and fits the optimizer wins; corrupt or
//! misfitting ones are skipped, not trusted. Only the newest three
//! checkpoints are retained on disk.

use crate::trainer::optimizer_step;
use aero_nn::artifact::{load_into_params, ArtifactBuilder, ModelArtifact, ModelError};
use aero_nn::optim::{Adam, AdamState};
use aero_nn::Var;
use aero_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use std::fs;
use std::path::{Path, PathBuf};

/// How many checkpoints are retained; older ones are pruned.
const KEEP: usize = 3;

/// Where and how often to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the `step-<n>.amdl` checkpoint files.
    pub dir: PathBuf,
    /// Save every this many optimizer steps (0 disables periodic saves;
    /// a final checkpoint is still written when a run completes).
    pub every: u64,
}

impl CheckpointConfig {
    /// A config saving every `every` steps into `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        CheckpointConfig { dir: dir.into(), every }
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

fn join<T: ToString>(values: &[T]) -> String {
    values.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
}

/// A required key/value entry, parsed.
fn entry<T: std::str::FromStr>(artifact: &ModelArtifact, key: &str) -> Result<T, ModelError> {
    artifact
        .value(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ModelError::Meta(format!("missing or malformed {key}")))
}

/// A required comma-separated list entry, parsed.
fn list<T: std::str::FromStr>(artifact: &ModelArtifact, key: &str) -> Result<Vec<T>, ModelError> {
    let malformed = || ModelError::Meta(format!("missing or malformed {key}"));
    let text = artifact.value(key).ok_or_else(malformed)?;
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',').map(|v| v.parse().map_err(|_| malformed())).collect()
}

/// Saves one checkpoint of the parameters `opt` updates and of `opt`'s
/// own state as `step-<n>.amdl`, atomically, then prunes all but the
/// newest three.
///
/// # Errors
///
/// Propagates I/O failures; the previous checkpoints are untouched on
/// error.
pub fn save_checkpoint(
    config: &CheckpointConfig,
    cursor: &TrainCursor,
    opt: &Adam,
) -> Result<PathBuf, ModelError> {
    fs::create_dir_all(&config.dir)?;
    let state = opt.export_state();
    let mut builder = ArtifactBuilder::new();
    builder.set("step", &cursor.step.to_string());
    builder.set("adam.step", &state.step.to_string());
    builder.set("epoch", &cursor.epoch.to_string());
    builder.set("batch", &cursor.batch.to_string());
    builder.set("rng", &join(&cursor.rng));
    builder.set("order", &join(&cursor.order));
    for (i, param) in opt.params().iter().enumerate() {
        builder.add_f32(&format!("param.{i}"), &param.value());
    }
    for (i, (m, v)) in state.m.iter().zip(&state.v).enumerate() {
        builder.add_f32(&format!("adam.m.{i}"), m);
        builder.add_f32(&format!("adam.v.{i}"), v);
    }
    let path = config.dir.join(format!("step-{:08}.amdl", cursor.step));
    builder.write(&path)?;
    prune(&config.dir)?;
    aero_obs::counter!("train.checkpoint.saves").inc();
    Ok(path)
}

/// All checkpoints under `dir`, as `(step, path)` ascending. Files that
/// are not `step-<n>.amdl`, such as an interrupted write's `.tmp`, are
/// ignored.
///
/// # Errors
///
/// Propagates I/O failures listing an existing directory; a missing
/// directory is simply empty.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ModelError> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let step = name
            .to_str()
            .and_then(|n| n.strip_prefix("step-"))
            .and_then(|n| n.strip_suffix(".amdl"))
            .and_then(|n| n.parse::<u64>().ok());
        if let Some(step) = step {
            found.push((step, entry.path()));
        }
    }
    found.sort_by_key(|(step, _)| *step);
    Ok(found)
}

fn prune(dir: &Path) -> Result<(), ModelError> {
    let ckpts = list_checkpoints(dir)?;
    if ckpts.len() > KEEP {
        for (_, path) in &ckpts[..ckpts.len() - KEEP] {
            fs::remove_file(path)?;
        }
    }
    Ok(())
}

/// Verifies and loads one checkpoint file into `opt` and the parameters
/// it updates.
///
/// The container's CRC is checked before anything is decoded, so a bit
/// flip anywhere fails typed instead of loading a garbage model.
///
/// # Errors
///
/// [`ModelError::Corrupt`] on a checksum failure or tensors that do not
/// fit the optimizer, [`ModelError::Meta`] on malformed cursor entries,
/// [`ModelError::Io`] on read failures.
pub fn load_checkpoint(path: &Path, opt: &mut Adam) -> Result<TrainCursor, ModelError> {
    let artifact = ModelArtifact::read(path)?;
    let [r0, r1, r2, r3] = list::<u64>(&artifact, "rng")?[..] else {
        return Err(ModelError::Meta("rng must hold four words".into()));
    };
    let cursor = TrainCursor {
        step: entry(&artifact, "step")?,
        epoch: entry(&artifact, "epoch")?,
        batch: entry(&artifact, "batch")?,
        order: list(&artifact, "order")?,
        rng: [r0, r1, r2, r3],
    };
    let n = opt.params().len();
    if artifact.tensor_infos().len() != 3 * n {
        return Err(ModelError::corrupt(format!(
            "{} tensors for {n} parameters",
            artifact.tensor_infos().len()
        )));
    }
    let tensors = |prefix: &str| -> Result<Vec<Tensor>, ModelError> {
        (0..n).map(|i| artifact.tensor(&format!("{prefix}.{i}"))).collect()
    };
    let params = tensors("param")?;
    let state = AdamState {
        step: entry(&artifact, "adam.step")?,
        m: tensors("adam.m")?,
        v: tensors("adam.v")?,
    };
    opt.restore_state(state)?;
    load_into_params(opt.params(), params)?;
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
pub fn resume_latest(dir: &Path, opt: &mut Adam) -> Result<ResumeReport, ModelError> {
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
) -> Result<TrainRun, ModelError>
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_ignores_interrupted_writes_and_other_files() {
        let dir = std::env::temp_dir().join("aero_ckpt_listing");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let names =
            ["step-00000010.amdl", "step-00000002.amdl", "step-00000011.amdl.tmp", "step-x.amdl"];
        for name in names.into_iter().chain(["notes.txt"]) {
            fs::write(dir.join(name), b"").unwrap();
        }
        let steps: Vec<u64> = list_checkpoints(&dir).unwrap().iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![2, 10]);
    }
}
