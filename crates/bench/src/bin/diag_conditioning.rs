//! Diagnostic: how strongly does the condition steer generation?
//!
//! Trains the pipeline at the chosen scale, then for each eval item
//! generates with (a) its own condition and (b) another item's condition
//! from the same start noise. If conditioning works, own-condition
//! generations should be closer to their reference (higher PSNR) than
//! cross-condition ones.

use aero_bench::{ExperimentScale, Protocol};
use aero_metrics::psnr;
use aerodiffusion::AeroDiffusionPipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = ExperimentScale::from_env();
    let protocol = Protocol::new(scale, 42);
    let cfg = scale.pipeline_config();
    println!("training AeroDiffusion at {scale:?}…");
    let pipeline = AeroDiffusionPipeline::fit(&protocol.train, cfg, 42);

    // VAE ceiling: reconstruction PSNR bounds any latent-space generator
    {
        let mut recon_total = 0.0;
        let m = protocol.eval.len().min(8);
        for item in protocol.eval.iter().take(m) {
            let t = item.rendered.image.to_tensor();
            let s = t.shape()[1];
            let batch = t.reshape(&[1, 3, s, s]);
            let recon = pipeline.bundle().vae.reconstruct(&batch);
            recon_total += psnr(&batch, &recon);
        }
        println!("VAE reconstruction PSNR (ceiling): {:.2}", recon_total / m as f32);
    }

    // condition diversity: mean pairwise cosine of condition vectors
    {
        let conds: Vec<Vec<f32>> = protocol
            .eval
            .iter()
            .take(8)
            .map(|item| pipeline.condition_vector(item).into_vec())
            .collect();
        let mut cos_sum = 0.0;
        let mut pairs = 0;
        for i in 0..conds.len() {
            for j in (i + 1)..conds.len() {
                let dot: f32 = conds[i].iter().zip(&conds[j]).map(|(a, b)| a * b).sum();
                let na: f32 = conds[i].iter().map(|v| v * v).sum::<f32>().sqrt();
                let nb: f32 = conds[j].iter().map(|v| v * v).sum::<f32>().sqrt();
                cos_sum += dot / (na * nb).max(1e-8);
                pairs += 1;
            }
        }
        println!(
            "condition diversity: mean pairwise cosine {:.4} over {pairs} pairs (1.0 = identical)",
            cos_sum / pairs as f32
        );
    }

    let n = protocol.eval.len().min(8);
    let mut own_total = 0.0;
    let mut cross_total = 0.0;
    for i in 0..n {
        let item = &protocol.eval.items[i];
        let other = &protocol.eval.items[(i + 1) % n];
        let own_caption = pipeline.caption_for(item, &mut StdRng::seed_from_u64(7));
        let own = pipeline.generate_with(
            item,
            Some(&own_caption),
            None,
            &mut StdRng::seed_from_u64(100 + i as u64),
        );
        // cross: other item's condition content, same start noise
        let cross_caption = pipeline.caption_for(other, &mut StdRng::seed_from_u64(7));
        let cross = pipeline.generate_with(
            other,
            Some(&cross_caption),
            None,
            &mut StdRng::seed_from_u64(100 + i as u64),
        );
        let reference = item.rendered.image.to_tensor();
        let own_psnr = psnr(&reference, &own.to_tensor());
        let cross_psnr = psnr(&reference, &cross.to_tensor());
        own_total += own_psnr;
        cross_total += cross_psnr;
        println!(
            "item {i}: PSNR(own cond) {own_psnr:.2}  PSNR(cross cond) {cross_psnr:.2}  delta {:+.2}",
            own_psnr - cross_psnr
        );
    }
    println!(
        "\nmean PSNR own {:.2} vs cross {:.2} (positive gap = conditioning steers generation)",
        own_total / n as f32,
        cross_total / n as f32
    );
}
