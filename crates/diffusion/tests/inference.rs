//! The inference contract of `CondUnet::predict`: it runs the training
//! forward inside `aero_nn::no_grad`, so it records no tape and returns
//! the exact bits the recording forward computes.

use aero_diffusion::{CondUnet, UnetConfig};
use aero_nn::Var;
use aero_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper preset's UNet: 4 latent channels, 16 base channels, a
/// 96-wide condition (3 × the 32-wide embedding) split into 3 tokens,
/// and a 4×4 bottleneck for the spatial projection.
fn paper_unet(rng: &mut StdRng) -> CondUnet {
    let config = UnetConfig::latent(96);
    assert_eq!((config.base_channels, config.cond_tokens, config.spatial_cond_cells), (16, 3, 16));
    CondUnet::new(config, rng)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn predict_is_bitwise_the_recording_forward() {
    let mut rng = StdRng::seed_from_u64(31);
    let unet = paper_unet(&mut rng);
    for n in [1usize, 3] {
        let z = Tensor::randn(&[n, 4, 8, 8], &mut rng);
        let cond = Tensor::randn(&[n, 96], &mut rng);
        let steps: Vec<usize> = (0..n).map(|i| 17 + 40 * i).collect();
        for c in [Some(&cond), None] {
            let cv = c.map(|c| Var::constant(c.clone()));
            let recorded = unet.forward(&Var::constant(z.clone()), &steps, cv.as_ref());
            assert!(recorded.requires_grad(), "the training forward must record");
            let predicted = unet.predict(&z, &steps, c);
            assert_eq!(predicted.shape(), recorded.value().shape());
            assert_eq!(
                bits(&predicted),
                bits(&recorded.value()),
                "batch {n}, condition {}: predict diverged from forward",
                if c.is_some() { "Some" } else { "None" }
            );
        }
    }
}
