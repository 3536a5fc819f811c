//! The latent diffusion framework underlying AeroDiffusion.
//!
//! Implements Section IV-C of the paper: the forward diffusion process
//! (Eq. 4) via [`schedule::NoiseSchedule`], the conditional UNet denoiser
//! `ε_θ(z_t, t, C)` via [`unet::CondUnet`], the training objective
//! (Eq. 6) via [`trainer::DiffusionTrainer`], and both samplers the paper
//! uses — the 1000-step DDPM scheduler for training-time noising and a
//! 250-step DDIM sampler with classifier-free guidance scale 7.0 for
//! inference ([`sampler`]).
//!
//! The paper's exact hyperparameters are the defaults of
//! [`DiffusionConfig::paper`]; tests and benches use reduced presets.

pub mod checkpoint;
pub mod sampler;
pub mod schedule;
pub mod trainer;
pub mod unet;

pub use checkpoint::{
    list_checkpoints, load_checkpoint, resume_latest, save_checkpoint, train_checkpointed,
    CheckpointConfig, TrainCursor, TrainPlan, TrainRun,
};
pub use sampler::{
    CancelSignal, CancelToken, DdimSampler, DdpmSampler, LatentPin, NoiseSpec, SampleOptions,
    Sampler, StepEvent, StepSink,
};
pub use schedule::{BetaSchedule, NoiseSchedule};
pub use trainer::{DiffusionTrainer, TrainBatch};
pub use unet::{CondUnet, UnetConfig};

/// End-to-end diffusion hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionConfig {
    /// Number of forward diffusion steps `T`.
    pub timesteps: usize,
    /// Beta schedule.
    pub schedule: BetaSchedule,
    /// DDIM inference steps.
    pub ddim_steps: usize,
    /// Classifier-free guidance scale.
    pub guidance_scale: f32,
    /// Probability of dropping the condition during training (enables CFG).
    pub cond_dropout: f64,
}

impl DiffusionConfig {
    /// The paper's configuration: `T = 1000`, β ∈ [0.001, 0.012], DDIM 250
    /// steps, guidance 7.0.
    pub fn paper() -> Self {
        DiffusionConfig {
            timesteps: 1000,
            schedule: BetaSchedule::Linear { beta_start: 0.001, beta_end: 0.012 },
            ddim_steps: 250,
            guidance_scale: 7.0,
            cond_dropout: 0.1,
        }
    }

    /// A fast preset for unit tests and CI-scale experiments.
    ///
    /// The betas are chosen so the terminal `ᾱ_T ≈ 1e-3` — like the
    /// paper's 1000-step schedule, the forward process must actually
    /// destroy the signal, or sampling from pure noise is
    /// out-of-distribution for the denoiser.
    pub fn small() -> Self {
        DiffusionConfig {
            timesteps: 50,
            schedule: BetaSchedule::Linear { beta_start: 0.02, beta_end: 0.25 },
            ddim_steps: 10,
            guidance_scale: 3.0,
            cond_dropout: 0.1,
        }
    }
}

impl Default for DiffusionConfig {
    fn default() -> Self {
        Self::paper()
    }
}
