//! Serve workers and the DDIM guidance helper.
//!
//! A worker trims its kernel thread policy to its share of the cores, so
//! workers that together fill the cores run one thread each and never
//! spawn a guidance helper, while a lone worker on two cores runs each
//! guided step's passes side by side.
//!
//! The helper counts its runs in the process-global
//! `sampler.cfg_parallel` counter, and test binaries run their tests
//! concurrently, so this case has a binary of its own and asserts exact
//! counts.

use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aero_serve::{GenerateRequest, ServeConfig, ServeReply, ServeRuntime};
use aero_tensor::parallel::{with_assumed_cores, ParallelConfig};
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig, PipelineSnapshot};

fn helper_runs() -> u64 {
    aero_obs::global().counter("sampler.cfg_parallel").get()
}

/// Serves `requests` one at a time (one sampler call each) on a fleet of
/// `workers` workers started under `cores` assumed cores, returning the
/// helper runs the fleet made. The workers plan against the core count
/// of the thread that started them, so the assumption reaches them.
fn helper_runs_while_serving(
    snapshot: &PipelineSnapshot,
    cores: usize,
    workers: usize,
    requests: u64,
) -> u64 {
    with_assumed_cores(cores, || {
        let mut config = ServeConfig::for_pipeline(snapshot.config());
        config.workers = workers;
        config.steps = 3;
        let before = helper_runs();
        let runtime = ServeRuntime::start(snapshot.clone(), config);
        for seed in 0..requests {
            let request =
                GenerateRequest::new(format!("r{seed}"), "an aerial view of a park", seed);
            let reply = runtime.submit(request).expect("admitted").wait();
            assert!(matches!(reply, ServeReply::Image(_)), "request {seed}: {reply:?}");
        }
        let stats = runtime.shutdown();
        assert_eq!(stats.completed, requests);
        helper_runs() - before
    })
}

#[test]
fn workers_that_fill_the_cores_never_take_the_helper_path() {
    let config = PipelineConfig::smoke();
    assert_ne!(config.diffusion.guidance_scale, 1.0, "serve must run guided steps");
    let ds = build_dataset(&DatasetConfig {
        n_scenes: 2,
        image_size: config.vision.image_size,
        seed: 13,
        generator: SceneGeneratorConfig::default(),
    });
    // A snapshot carrying two threads, as one captured on any two-core
    // host does, so only the worker rule can take them away.
    let snapshot = AeroDiffusionPipeline::fit(&ds, config, 5)
        .snapshot()
        .with_parallel(ParallelConfig::with_threads(2));

    assert_eq!(helper_runs_while_serving(&snapshot, 2, 2, 3), 0, "two workers fill two cores");
    assert_eq!(helper_runs_while_serving(&snapshot, 1, 1, 3), 0, "one worker fills one core");
    assert_eq!(helper_runs_while_serving(&snapshot, 2, 1, 3), 3, "a lone worker owns two cores");
}
