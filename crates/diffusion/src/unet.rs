//! The conditional UNet denoiser `ε_θ(z_t, t, C)`.
//!
//! A miniature of the architecture the paper builds on: residual blocks
//! with GroupNorm/SiLU, one downsampling stage, a self-attention block at
//! the bottleneck, skip connections on the upsampling path, and sinusoidal
//! timestep embeddings. The condition vector `C` is projected and injected
//! into every hidden layer alongside the time embedding — the learned
//! projection plays the role of the paper's per-layer concatenation while
//! keeping channel counts fixed.
//!
//! Every convolution, matmul, and attention here executes on the sharded
//! kernel layer (`aero_tensor::par_kernels`), which is bit-identical at
//! any thread count — so denoising output never depends on the active
//! `ParallelConfig`.

use aero_nn::layers::{Conv2d, GroupNorm, Linear, MultiHeadAttention};
use aero_nn::{Module, Var};
use aero_tensor::Tensor;
use rand::Rng;

/// UNet geometry and conditioning dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnetConfig {
    /// Input/output channels (the latent channels, 4 for the LDM).
    pub in_channels: usize,
    /// Base channel width.
    pub base_channels: usize,
    /// Dimensionality of the condition vector `C` (0 = unconditional).
    pub cond_dim: usize,
    /// Time-embedding width.
    pub time_embed_dim: usize,
    /// Number of tokens the condition vector is split into for
    /// cross-attention (must divide `cond_dim`; 0 disables
    /// cross-attention and keeps only the embedding-bias injection).
    pub cond_tokens: usize,
    /// Number of bottleneck cells (`(latent_side / 2)²`) for the spatial
    /// condition projection; 0 disables it. A learned map from `C` onto
    /// the bottleneck grid gives the condition a direct, per-position
    /// influence on layout — the strongest form of the paper's
    /// per-hidden-layer integration.
    pub spatial_cond_cells: usize,
}

impl UnetConfig {
    /// A small latent-space configuration. The default three condition
    /// tokens mirror the paper's `C = [C_xg; C_g; f̂_X]` blocks.
    pub fn latent(cond_dim: usize) -> Self {
        UnetConfig {
            in_channels: 4,
            base_channels: 16,
            cond_dim,
            time_embed_dim: 32,
            cond_tokens: if cond_dim.is_multiple_of(3) { 3 } else { 1 },
            spatial_cond_cells: 16,
        }
    }

    /// A pixel-space configuration (for the DDPM baseline).
    pub fn pixel() -> Self {
        UnetConfig {
            in_channels: 3,
            base_channels: 16,
            cond_dim: 0,
            time_embed_dim: 32,
            cond_tokens: 0,
            spatial_cond_cells: 0,
        }
    }
}

fn group_count(channels: usize) -> usize {
    if channels.is_multiple_of(4) {
        4
    } else if channels.is_multiple_of(2) {
        2
    } else {
        1
    }
}

/// Residual block with time/condition embedding injection.
#[derive(Debug, Clone)]
struct ResBlock {
    norm1: GroupNorm,
    conv1: Conv2d,
    emb_proj: Linear,
    norm2: GroupNorm,
    conv2: Conv2d,
    skip: Option<Conv2d>,
    cout: usize,
}

impl ResBlock {
    fn new<R: Rng + ?Sized>(cin: usize, cout: usize, emb_dim: usize, rng: &mut R) -> Self {
        ResBlock {
            norm1: GroupNorm::new(group_count(cin), cin),
            conv1: Conv2d::new(cin, cout, 3, 1, 1, rng),
            // FiLM-style modulation: the embedding produces a per-channel
            // scale and shift, a multiplicative pathway that lets the
            // condition gate features rather than merely bias them.
            emb_proj: Linear::new_with_init(emb_dim, 2 * cout, 0.05, rng),
            norm2: GroupNorm::new(group_count(cout), cout),
            conv2: Conv2d::new(cout, cout, 3, 1, 1, rng),
            skip: if cin == cout { None } else { Some(Conv2d::new(cin, cout, 1, 1, 0, rng)) },
            cout,
        }
    }

    fn forward(&self, x: &Var, emb: &Var) -> Var {
        let n = x.shape()[0];
        let h = self.conv1.forward(&self.norm1.forward(x).silu());
        let film = self.emb_proj.forward(emb);
        let scale = film.narrow(1, 0, self.cout).reshape(&[n, self.cout, 1, 1]);
        let shift = film.narrow(1, self.cout, self.cout).reshape(&[n, self.cout, 1, 1]);
        let h = h.mul(&scale.add_scalar(1.0)).add(&shift);
        let h = self.conv2.forward(&self.norm2.forward(&h).silu());
        match &self.skip {
            Some(s) => h.add(&s.forward(x)),
            None => h.add(x),
        }
    }

    fn params(&self) -> Vec<Var> {
        let mut p = self.norm1.params();
        p.extend(self.conv1.params());
        p.extend(self.emb_proj.params());
        p.extend(self.norm2.params());
        p.extend(self.conv2.params());
        if let Some(s) = &self.skip {
            p.extend(s.params());
        }
        p
    }
}

/// Conditional UNet noise predictor.
#[derive(Debug, Clone)]
pub struct CondUnet {
    conv_in: Conv2d,
    res_down: ResBlock,
    downsample: Conv2d,
    res_mid1: ResBlock,
    mid_attn: MultiHeadAttention,
    cond_cross_attn: Option<MultiHeadAttention>,
    cond_token_proj: Option<Linear>,
    cond_spatial_proj: Option<Linear>,
    res_mid2: ResBlock,
    up_conv: Conv2d,
    res_up: ResBlock,
    norm_out: GroupNorm,
    conv_out: Conv2d,
    time_mlp1: Linear,
    time_mlp2: Linear,
    cond_mlp1: Option<Linear>,
    cond_mlp2: Option<Linear>,
    config: UnetConfig,
}

impl CondUnet {
    /// Creates an untrained UNet.
    pub fn new<R: Rng + ?Sized>(config: UnetConfig, rng: &mut R) -> Self {
        let c = config.base_channels;
        let e = config.time_embed_dim;
        CondUnet {
            conv_in: Conv2d::new(config.in_channels, c, 3, 1, 1, rng),
            res_down: ResBlock::new(c, c, e, rng),
            downsample: Conv2d::new(c, 2 * c, 3, 2, 1, rng),
            res_mid1: ResBlock::new(2 * c, 2 * c, e, rng),
            mid_attn: MultiHeadAttention::new(2 * c, 2, rng),
            cond_cross_attn: (config.cond_dim > 0 && config.cond_tokens > 0)
                .then(|| MultiHeadAttention::new(2 * c, 2, rng)),
            cond_token_proj: (config.cond_dim > 0 && config.cond_tokens > 0).then(|| {
                assert!(
                    config.cond_dim.is_multiple_of(config.cond_tokens),
                    "cond_tokens must divide cond_dim"
                );
                Linear::new(config.cond_dim / config.cond_tokens, 2 * c, rng)
            }),
            cond_spatial_proj: (config.cond_dim > 0 && config.spatial_cond_cells > 0)
                .then(|| Linear::new(config.cond_dim, 2 * c * config.spatial_cond_cells, rng)),
            res_mid2: ResBlock::new(2 * c, 2 * c, e, rng),
            up_conv: Conv2d::new(2 * c, c, 3, 1, 1, rng),
            res_up: ResBlock::new(2 * c, c, e, rng),
            norm_out: GroupNorm::new(group_count(c), c),
            conv_out: Conv2d::new(c, config.in_channels, 3, 1, 1, rng),
            time_mlp1: Linear::new(e, e, rng),
            time_mlp2: Linear::new(e, e, rng),
            cond_mlp1: (config.cond_dim > 0).then(|| Linear::new(config.cond_dim, e, rng)),
            cond_mlp2: (config.cond_dim > 0).then(|| Linear::new(e, e, rng)),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &UnetConfig {
        &self.config
    }

    /// Sinusoidal timestep features `[n, time_embed_dim]`.
    pub fn timestep_features(&self, timesteps: &[usize]) -> Tensor {
        let d = self.config.time_embed_dim;
        let half = d / 2;
        let mut data = Vec::with_capacity(timesteps.len() * d);
        for &t in timesteps {
            for k in 0..half {
                let freq = (10_000f32).powf(-(k as f32) / half.max(1) as f32);
                data.push((t as f32 * freq).sin());
            }
            for k in 0..d - half {
                let freq = (10_000f32).powf(-(k as f32) / half.max(1) as f32);
                data.push((t as f32 * freq).cos());
            }
        }
        Tensor::from_vec(data, &[timesteps.len(), d])
    }

    /// Predicts the noise `ε̂` for a batch.
    ///
    /// `cond` must be `[n, cond_dim]` when the UNet is conditional; pass
    /// `None` (or an all-zero condition) for the unconditional branch of
    /// classifier-free guidance.
    ///
    /// # Panics
    ///
    /// Panics on geometry mismatches.
    pub fn forward(&self, z_t: &Var, timesteps: &[usize], cond: Option<&Var>) -> Var {
        let n = z_t.shape()[0];
        assert_eq!(n, timesteps.len(), "one timestep per batch item");
        let emb = block("unet.emb", || {
            let temb_raw = Var::constant(self.timestep_features(timesteps));
            let emb = self.time_mlp2.forward(&self.time_mlp1.forward(&temb_raw).silu());
            let (Some(m1), Some(m2)) = (&self.cond_mlp1, &self.cond_mlp2) else {
                return emb;
            };
            let c = match cond {
                Some(c) => {
                    assert_eq!(
                        c.shape(),
                        vec![n, self.config.cond_dim],
                        "condition shape mismatch"
                    );
                    c.clone()
                }
                None => Var::constant(Tensor::zeros(&[n, self.config.cond_dim])),
            };
            emb.add(&m2.forward(&m1.forward(&c).silu()))
        });

        let h0 = block("unet.conv_in", || self.conv_in.forward(z_t));
        let h1 = block("unet.res_down", || self.res_down.forward(&h0, &emb));
        let h2 = block("unet.downsample", || self.downsample.forward(&h1)); // half resolution, 2c
        let h3 = block("unet.res_mid1", || self.res_mid1.forward(&h2, &emb));
        let h3b = block("unet.attn", || self.attend(h3, cond));
        let h4 = block("unet.res_mid2", || self.res_mid2.forward(&h3b, &emb));
        let cat = block("unet.up", || {
            let up = self.up_conv.forward(&h4.upsample_nearest2x());
            Var::concat(&[&up, &h1], 1)
        });
        let h5 = block("unet.res_up", || self.res_up.forward(&cat, &emb));
        block("unet.out", || self.conv_out.forward(&self.norm_out.forward(&h5).silu()))
    }

    /// The bottleneck: spatial condition injection, self-attention over
    /// the bottleneck tokens, then cross-attention over the condition
    /// tokens, back in `[n, c, h, w]` layout.
    fn attend(&self, mut h3: Var, cond: Option<&Var>) -> Var {
        let shape = h3.shape();
        let (n, c2, hh, ww) = (shape[0], shape[1], shape[2], shape[3]);
        // Spatial condition injection: C projected onto the bottleneck
        // grid, one additive feature per cell.
        if let Some(proj) = &self.cond_spatial_proj {
            if let Some(c) = cond {
                assert_eq!(
                    hh * ww,
                    self.config.spatial_cond_cells,
                    "spatial_cond_cells must equal the bottleneck cell count"
                );
                let map = proj.forward(c).reshape(&[n, c2, hh, ww]);
                h3 = h3.add(&map);
            }
        }
        // Self-attention over bottleneck tokens.
        let tokens = h3.reshape(&[n, c2, hh * ww]).permute(&[0, 2, 1]);
        let mut attended = tokens.add(&self.mid_attn.forward(&tokens, &tokens));
        // Cross-attention over the condition tokens: spatial positions
        // read different parts of C, letting the condition steer layout
        // rather than only global appearance (the per-hidden-layer
        // integration the paper describes).
        if let (Some(cross), Some(proj)) = (&self.cond_cross_attn, &self.cond_token_proj) {
            let k = self.config.cond_tokens;
            let td = self.config.cond_dim / k;
            let cond_tokens = match cond {
                Some(c) => {
                    let toks = c.reshape(&[n * k, td]);
                    proj.forward(&toks).reshape(&[n, k, c2])
                }
                None => Var::constant(Tensor::zeros(&[n, k, c2])),
            };
            attended = attended.add(&cross.forward(&attended, &cond_tokens));
        }
        attended.permute(&[0, 2, 1]).reshape(&[n, c2, hh, ww])
    }

    /// Non-differentiable forward over tensors (inference convenience):
    /// [`Self::forward`] inside [`aero_nn::no_grad`], so no tape is
    /// recorded, with bit-identical values.
    pub fn predict(&self, z_t: &Tensor, timesteps: &[usize], cond: Option<&Tensor>) -> Tensor {
        aero_nn::no_grad(|| {
            let cv = cond.map(|c| Var::constant(c.clone()));
            self.forward(&Var::constant(z_t.clone()), timesteps, cv.as_ref()).to_tensor()
        })
    }
}

/// Runs one UNet block under a span of its own, so a traced pass shows
/// where its time goes. With tracing off a span costs one thread-local
/// read.
fn block<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = aero_obs::span!(name);
    f()
}

impl Module for CondUnet {
    fn params(&self) -> Vec<Var> {
        let mut p = self.conv_in.params();
        p.extend(self.res_down.params());
        p.extend(self.downsample.params());
        p.extend(self.res_mid1.params());
        p.extend(self.mid_attn.params());
        if let Some(a) = &self.cond_cross_attn {
            p.extend(a.params());
        }
        if let Some(l) = &self.cond_token_proj {
            p.extend(l.params());
        }
        if let Some(l) = &self.cond_spatial_proj {
            p.extend(l.params());
        }
        p.extend(self.res_mid2.params());
        p.extend(self.up_conv.params());
        p.extend(self.res_up.params());
        p.extend(self.norm_out.params());
        p.extend(self.conv_out.params());
        p.extend(self.time_mlp1.params());
        p.extend(self.time_mlp2.params());
        if let Some(m) = &self.cond_mlp1 {
            p.extend(m.params());
        }
        if let Some(m) = &self.cond_mlp2 {
            p.extend(m.params());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let unet = CondUnet::new(
            UnetConfig {
                in_channels: 4,
                base_channels: 8,
                cond_dim: 6,
                time_embed_dim: 16,
                cond_tokens: 3,
                spatial_cond_cells: 16,
            },
            &mut rng,
        );
        let z = Tensor::randn(&[2, 4, 8, 8], &mut rng);
        let c = Tensor::randn(&[2, 6], &mut rng);
        let out = unet.predict(&z, &[3, 7], Some(&c));
        assert_eq!(out.shape(), &[2, 4, 8, 8]);
    }

    #[test]
    fn unconditional_unet_ignores_cond_branch() {
        let mut rng = StdRng::seed_from_u64(2);
        let unet = CondUnet::new(UnetConfig::pixel(), &mut rng);
        let z = Tensor::randn(&[1, 3, 8, 8], &mut rng);
        let out = unet.predict(&z, &[0], None);
        assert_eq!(out.shape(), &[1, 3, 8, 8]);
    }

    #[test]
    fn timestep_features_distinguish_timesteps() {
        let mut rng = StdRng::seed_from_u64(3);
        let unet = CondUnet::new(UnetConfig::pixel(), &mut rng);
        let f = unet.timestep_features(&[1, 500]);
        let a = f.narrow(0, 0, 1);
        let b = f.narrow(0, 1, 1);
        assert!(a.sub(&b).abs().max() > 0.1);
    }

    #[test]
    fn condition_changes_prediction() {
        let mut rng = StdRng::seed_from_u64(4);
        let unet = CondUnet::new(
            UnetConfig {
                in_channels: 4,
                base_channels: 8,
                cond_dim: 6,
                time_embed_dim: 16,
                cond_tokens: 3,
                spatial_cond_cells: 16,
            },
            &mut rng,
        );
        let z = Tensor::randn(&[1, 4, 8, 8], &mut rng);
        let c1 = Tensor::randn(&[1, 6], &mut rng);
        let c2 = Tensor::randn(&[1, 6], &mut rng);
        let o1 = unet.predict(&z, &[5], Some(&c1));
        let o2 = unet.predict(&z, &[5], Some(&c2));
        assert!(o1.sub(&o2).abs().max() > 1e-6);
    }

    #[test]
    fn gradients_reach_all_params_and_condition() {
        let mut rng = StdRng::seed_from_u64(5);
        let unet = CondUnet::new(
            UnetConfig {
                in_channels: 4,
                base_channels: 8,
                cond_dim: 6,
                time_embed_dim: 16,
                cond_tokens: 3,
                spatial_cond_cells: 16,
            },
            &mut rng,
        );
        let z = Var::constant(Tensor::randn(&[1, 4, 8, 8], &mut rng));
        let c = Var::parameter(Tensor::randn(&[1, 6], &mut rng));
        unet.forward(&z, &[2], Some(&c)).sum().backward();
        assert!(c.grad().is_some(), "condition must receive gradients (joint training)");
        let missing = unet.params().iter().filter(|p| p.grad().is_none()).count();
        assert_eq!(missing, 0, "{missing} unet params missing grads");
    }
}
