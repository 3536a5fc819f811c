//! The latent-space variational autoencoder.
//!
//! Stands in for the Stable Diffusion VAE: compresses `[3, s, s]` images
//! into `[zc, s/4, s/4]` latents (`z_0 = E(X_i)` in the paper's forward
//! diffusion) and decodes sampled latents back to RGB. Trained with
//! reconstruction MSE plus a KL term toward the standard normal.
//!
//! Encode/decode convolutions run on the sharded parallel kernel layer
//! (`aero_tensor::par_kernels`); latents and reconstructions are
//! bit-identical at every thread count.

use crate::VisionConfig;
use aero_nn::layers::{Conv2d, ConvTranspose2d};
use aero_nn::optim::Adam;
use aero_nn::{Module, Var};
use aero_tensor::Tensor;
use rand::Rng;

/// Number of latent channels (matching Stable Diffusion's 4).
pub const LATENT_CHANNELS: usize = 4;

/// Convolutional VAE with a 4× spatial compression.
#[derive(Debug, Clone)]
pub struct Vae {
    enc1: Conv2d,
    enc2: Conv2d,
    to_mu: Conv2d,
    to_logvar: Conv2d,
    dec_in: Conv2d,
    dec1: ConvTranspose2d,
    dec2: ConvTranspose2d,
    dec_out: Conv2d,
    latent_scale: f32,
    config: VisionConfig,
}

impl Vae {
    /// Creates an untrained VAE for the configured image size.
    pub fn new<R: Rng + ?Sized>(config: VisionConfig, rng: &mut R) -> Self {
        let c = config.base_channels;
        Vae {
            enc1: Conv2d::new(3, c, 3, 2, 1, rng),
            enc2: Conv2d::new(c, 2 * c, 3, 2, 1, rng),
            to_mu: Conv2d::new(2 * c, LATENT_CHANNELS, 1, 1, 0, rng),
            to_logvar: Conv2d::new(2 * c, LATENT_CHANNELS, 1, 1, 0, rng),
            dec_in: Conv2d::new(LATENT_CHANNELS, 2 * c, 1, 1, 0, rng),
            dec1: ConvTranspose2d::new(2 * c, c, 2, 2, 0, rng),
            dec2: ConvTranspose2d::new(c, c, 2, 2, 0, rng),
            dec_out: Conv2d::new(c, 3, 3, 1, 1, rng),
            latent_scale: 1.0,
            config,
        }
    }

    /// Latent spatial side (`image_size / 4`).
    pub fn latent_size(&self) -> usize {
        self.config.image_size / 4
    }

    /// The scale factor applied to latents before diffusion (the analogue
    /// of Stable Diffusion's 0.18215), fitted by [`Vae::fit_latent_scale`].
    pub fn latent_scale(&self) -> f32 {
        self.latent_scale
    }

    /// Restores a previously fitted latent scale (used when loading saved
    /// weights).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn set_latent_scale(&mut self, scale: f32) {
        assert!(scale.is_finite() && scale > 0.0, "latent scale must be positive");
        self.latent_scale = scale;
    }

    /// Differentiable encoder: images `[n, 3, s, s]` → `(mu, logvar)`,
    /// each `[n, zc, s/4, s/4]`.
    pub fn encode(&self, images: &Var) -> (Var, Var) {
        let h = self.enc1.forward(images).silu();
        let h = self.enc2.forward(&h).silu();
        (self.to_mu.forward(&h), self.to_logvar.forward(&h))
    }

    /// Differentiable decoder: latents → images in `[0, 1]`.
    pub fn decode(&self, z: &Var) -> Var {
        let h = self.dec_in.forward(z).silu();
        let h = self.dec1.forward(&h).silu();
        let h = self.dec2.forward(&h).silu();
        self.dec_out.forward(&h).sigmoid()
    }

    /// Non-differentiable latent of an image batch, scaled for diffusion:
    /// `z = mu · latent_scale`.
    pub fn encode_tensor(&self, images: &Tensor) -> Tensor {
        let (mu, _) = aero_nn::no_grad(|| self.encode(&Var::constant(images.clone())));
        mu.to_tensor().mul_scalar(self.latent_scale)
    }

    /// Non-differentiable decode of diffusion-space latents (descaled).
    pub fn decode_tensor(&self, z: &Tensor) -> Tensor {
        aero_nn::no_grad(|| self.decode(&Var::constant(z.mul_scalar(1.0 / self.latent_scale))))
            .to_tensor()
    }

    /// Full reconstruction of an image batch.
    pub fn reconstruct(&self, images: &Tensor) -> Tensor {
        self.decode_tensor(&self.encode_tensor(images))
    }

    /// Trains the VAE; returns per-epoch mean losses.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        images: &[Tensor],
        epochs: usize,
        batch_size: usize,
        lr: f32,
        kl_weight: f32,
        rng: &mut R,
    ) -> Vec<f32> {
        let mut opt = Adam::new(self.params(), lr);
        let mut history = Vec::with_capacity(epochs);
        let mut order: Vec<usize> = (0..images.len()).collect();
        for _ in 0..epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut total = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(batch_size.max(1)) {
                let batch: Vec<&Tensor> = chunk.iter().map(|&i| &images[i]).collect();
                let x = Tensor::stack(&batch);
                opt.zero_grad();
                let xv = Var::constant(x.clone());
                let (mu, logvar) = self.encode(&xv);
                // Reparameterization trick.
                let noise = Var::constant(Tensor::randn(&mu.shape(), rng));
                let z = mu.add(&logvar.scale(0.5).exp().mul(&noise));
                let recon = self.decode(&z);
                let recon_loss = recon.mse_loss(&x);
                // KL(q || N(0, I)) = -0.5 Σ (1 + logvar − mu² − e^logvar)
                let kl =
                    logvar.add_scalar(1.0).sub(&mu.mul(&mu)).sub(&logvar.exp()).mean().scale(-0.5);
                let loss = recon_loss.add(&kl.scale(kl_weight));
                total += loss.value().item();
                batches += 1;
                loss.backward();
                opt.step();
            }
            history.push(if batches > 0 { total / batches as f32 } else { 0.0 });
        }
        history
    }

    /// Fits `latent_scale` so diffusion-space latents have roughly unit
    /// standard deviation over the given images.
    pub fn fit_latent_scale(&mut self, images: &[Tensor]) {
        if images.is_empty() {
            return;
        }
        let refs: Vec<&Tensor> = images.iter().collect();
        let batch = Tensor::stack(&refs);
        let (mu, _) = self.encode(&Var::constant(batch));
        let std = mu.to_tensor().var().sqrt().max(1e-3);
        self.latent_scale = 1.0 / std;
    }
}

impl Module for Vae {
    fn params(&self) -> Vec<Var> {
        let mut p = self.enc1.params();
        p.extend(self.enc2.params());
        p.extend(self.to_mu.params());
        p.extend(self.to_logvar.params());
        p.extend(self.dec_in.params());
        p.extend(self.dec1.params());
        p.extend(self.dec2.params());
        p.extend(self.dec_out.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_images(n: usize, s: usize, rng: &mut StdRng) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                // Smooth, structured images: a bright band whose position
                // depends on i, plus light noise.
                let mut t = Tensor::full(&[3, s, s], 0.3);
                let band = (i * s / n.max(1)).min(s - 2);
                for c in 0..3 {
                    for x in 0..s {
                        t.set(&[c, band, x], 0.9);
                        t.set(&[c, band + 1, x], 0.9);
                    }
                }
                t.add(&Tensor::randn(&[3, s, s], rng).mul_scalar(0.02)).clamp(0.0, 1.0)
            })
            .collect()
    }

    #[test]
    fn shapes_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = VisionConfig::tiny();
        let vae = Vae::new(cfg, &mut rng);
        let imgs = Tensor::randn(&[2, 3, 16, 16], &mut rng);
        let z = vae.encode_tensor(&imgs);
        assert_eq!(z.shape(), &[2, LATENT_CHANNELS, 4, 4]);
        let back = vae.decode_tensor(&z);
        assert_eq!(back.shape(), &[2, 3, 16, 16]);
        assert!(back.min() >= 0.0 && back.max() <= 1.0);
    }

    #[test]
    fn training_improves_reconstruction() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = VisionConfig::tiny();
        let mut vae = Vae::new(cfg, &mut rng);
        let images = toy_images(8, 16, &mut rng);
        let refs: Vec<&Tensor> = images.iter().collect();
        let batch = Tensor::stack(&refs);
        let before = vae.reconstruct(&batch).sub(&batch).powf(2.0).mean();
        vae.train(&images, 20, 4, 3e-3, 1e-4, &mut rng);
        let after = vae.reconstruct(&batch).sub(&batch).powf(2.0).mean();
        assert!(after < before, "recon mse should fall: {before} -> {after}");
    }

    #[test]
    fn latent_scale_normalizes_variance() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = VisionConfig::tiny();
        let mut vae = Vae::new(cfg, &mut rng);
        let images = toy_images(6, 16, &mut rng);
        vae.train(&images, 8, 3, 3e-3, 1e-4, &mut rng);
        vae.fit_latent_scale(&images);
        let refs: Vec<&Tensor> = images.iter().collect();
        let z = vae.encode_tensor(&Tensor::stack(&refs));
        let std = z.var().sqrt();
        assert!((std - 1.0).abs() < 0.35, "scaled latent std {std}");
    }

    #[test]
    fn kl_pulls_latents_toward_origin() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = VisionConfig::tiny();
        let images = toy_images(6, 16, &mut rng);
        let mut strong = Vae::new(cfg, &mut StdRng::seed_from_u64(9));
        let mut weak = Vae::new(cfg, &mut StdRng::seed_from_u64(9));
        strong.train(&images, 12, 3, 3e-3, 0.5, &mut StdRng::seed_from_u64(10));
        weak.train(&images, 12, 3, 3e-3, 0.0, &mut StdRng::seed_from_u64(10));
        let refs: Vec<&Tensor> = images.iter().collect();
        let batch = Tensor::stack(&refs);
        let (mu_s, _) = strong.encode(&Var::constant(batch.clone()));
        let (mu_w, _) = weak.encode(&Var::constant(batch));
        let ns = mu_s.to_tensor().powf(2.0).mean();
        let nw = mu_w.to_tensor().powf(2.0).mean();
        assert!(ns < nw, "strong KL should shrink latents: {ns} vs {nw}");
    }
}
