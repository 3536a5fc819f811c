//! The inference contract of `CondUnet::predict` and the DDIM sampler.
//!
//! `predict` runs the training forward inside `aero_nn::no_grad`, so it
//! records no tape and returns the exact bits the recording forward
//! computes. Weights can be read from two threads at once, and a guided
//! DDIM run whose thread policy allows two threads runs each step's
//! unconditional pass on a helper thread: its output is the serial run's,
//! bit for bit, and a cancelled or panicking run never hangs.

use aero_diffusion::{
    BetaSchedule, CancelToken, CondUnet, DdimSampler, LatentPin, NoiseSchedule, SampleOptions,
    Sampler, StepEvent, UnetConfig,
};
use aero_nn::Var;
use aero_tensor::parallel::{with_assumed_cores, with_threads};
use aero_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Barrier;

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

/// The paper's guidance scale; the paper's 250 steps cut to a few so the
/// suite stays fast (the helper runs per step, so the count does not
/// change what is under test).
fn guided() -> Sampler {
    Sampler::Ddim(DdimSampler::new(6, 7.0))
}

fn schedule() -> NoiseSchedule {
    NoiseSchedule::new(BetaSchedule::Linear { beta_start: 0.001, beta_end: 0.012 }, 1000)
}

/// Runs `f` as a serial sampler call would: one kernel thread.
fn serial<R>(f: impl FnOnce() -> R) -> R {
    with_threads(1, f)
}

/// Runs `f` with two threads on an assumed two-core machine, so even a
/// one-core host takes the guidance helper path.
fn two_threads<R>(f: impl FnOnce() -> R) -> R {
    with_assumed_cores(2, || with_threads(2, f))
}

fn helper_runs() -> u64 {
    aero_obs::global().counter("sampler.cfg_parallel").get()
}

#[test]
fn var_crosses_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Var>();
    assert_send_sync::<CondUnet>();
}

#[test]
fn two_threads_predicting_on_one_unet_match_the_serial_bits() {
    let mut rng = StdRng::seed_from_u64(33);
    let unet = paper_unet(&mut rng);
    let inputs: Vec<(Tensor, Option<Tensor>)> = (0..2)
        .map(|i| {
            let z = Tensor::randn(&[2, 4, 8, 8], &mut rng);
            (z, (i == 0).then(|| Tensor::randn(&[2, 96], &mut rng)))
        })
        .collect();
    let steps = [500, 11];
    let expected: Vec<Vec<u32>> =
        inputs.iter().map(|(z, c)| bits(&unet.predict(z, &steps, c.as_ref()))).collect();
    // Both threads start together and predict four times each, so their
    // passes overlap on the shared weights.
    let start = Barrier::new(2);
    let got: Vec<Vec<Vec<u32>>> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|(z, c)| {
                let (unet, start) = (&unet, &start);
                s.spawn(move || {
                    start.wait();
                    (0..4).map(|_| bits(&unet.predict(z, &steps, c.as_ref()))).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("predict thread")).collect()
    });
    for (i, (runs, want)) in got.iter().zip(&expected).enumerate() {
        assert!(runs.iter().all(|r| r == want), "thread {i} diverged from the serial bits");
    }
}

#[test]
fn guided_ddim_on_the_helper_is_bitwise_the_serial_run() {
    let mut rng = StdRng::seed_from_u64(35);
    let unet = paper_unet(&mut rng);
    let schedule = schedule();
    for n in [1usize, 3] {
        let z = Tensor::randn(&[n, 4, 8, 8], &mut rng);
        let cond = Tensor::randn(&[n, 96], &mut rng);
        let run = || {
            guided().run(&unet, &schedule, SampleOptions::from_latent(z.clone()).with_cond(&cond))
        };
        let want = serial(run);
        let before = helper_runs();
        let got = two_threads(run);
        assert!(helper_runs() > before, "batch {n}: the run must take the helper path");
        assert_eq!(bits(&got), bits(&want), "batch {n}: helper run diverged from the serial run");
    }
}

#[test]
fn pinned_guided_ddim_on_the_helper_is_bitwise_the_serial_run() {
    let mut rng = StdRng::seed_from_u64(37);
    let unet = paper_unet(&mut rng);
    let schedule = schedule();
    let z = Tensor::randn(&[3, 4, 8, 8], &mut rng);
    let cond = Tensor::randn(&[3, 96], &mut rng);
    // Row 0 fully writable, rows 1 and 2 writable on their left half.
    let mask: Vec<f32> =
        (0..3 * 4 * 8 * 8).map(|i| if i < 256 || i % 8 < 4 { 1.0 } else { 0.0 }).collect();
    let pin = LatentPin::new(
        Tensor::from_vec(mask, &[3, 4, 8, 8]),
        Tensor::randn(&[3, 4, 8, 8], &mut rng),
        Tensor::randn(&[3, 4, 8, 8], &mut rng),
    );
    let run = || {
        guided().run(
            &unet,
            &schedule,
            SampleOptions::from_latent(z.clone()).with_cond(&cond).with_pin(&pin),
        )
    };
    assert_eq!(bits(&two_threads(run)), bits(&serial(run)));
}

#[test]
fn cancel_on_the_helper_returns_the_serial_partial_latent() {
    let mut rng = StdRng::seed_from_u64(39);
    let unet = paper_unet(&mut rng);
    let schedule = schedule();
    let z = Tensor::randn(&[1, 4, 8, 8], &mut rng);
    let cond = Tensor::randn(&[1, 96], &mut rng);
    // Cancel from the observer of step 2, so three of six steps complete.
    let run = || {
        let token = CancelToken::new();
        let mut steps = 0usize;
        let mut observer = |ev: StepEvent<'_>| {
            steps += 1;
            if ev.step == 2 {
                token.cancel();
            }
        };
        let out = guided().run(
            &unet,
            &schedule,
            SampleOptions::from_latent(z.clone())
                .with_cond(&cond)
                .with_cancel(&token)
                .with_on_step(&mut observer),
        );
        (out, steps)
    };
    let (want, serial_steps) = serial(run);
    let (got, helper_steps) = two_threads(run);
    assert_eq!((serial_steps, helper_steps), (3, 3));
    assert_eq!(bits(&got), bits(&want), "cancelled helper run diverged from the serial partial");
}

#[test]
#[should_panic(expected = "condition shape mismatch")]
fn a_panicking_pass_on_the_helper_path_propagates() {
    let mut rng = StdRng::seed_from_u64(41);
    let unet = paper_unet(&mut rng);
    let z = Tensor::randn(&[1, 4, 8, 8], &mut rng);
    let wrong_width = Tensor::randn(&[1, 95], &mut rng);
    two_threads(|| {
        guided().run(&unet, &schedule(), SampleOptions::from_latent(z).with_cond(&wrong_width))
    });
}
