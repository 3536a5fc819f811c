//! Integration tests for the typed [`TaskSpec`] conditioning API: the
//! inpainting no-touch guarantee outside the masked footprint, cascade
//! observer reuse, and the heterogeneous-batch mixing contract the
//! serving runtime relies on. One smoke-scale pipeline is trained once
//! and shared.

use aero_diffusion::{DdimSampler, StepEvent, StepSink};
use aero_scene::{
    build_dataset, AerialDataset, Annotation, BBox, DatasetConfig, Homography, Image, ObjectClass,
    SceneGeneratorConfig, Viewpoint,
};
use aero_tensor::Tensor;
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig, PipelineSnapshot, SampleRow, TaskSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// The shared fixture is the trained pipeline's `Send + Sync` snapshot;
/// every test reads its one shared pipeline — bit-identical to the
/// trained original.
fn fixture() -> &'static (PipelineSnapshot, AerialDataset) {
    static FIX: OnceLock<(PipelineSnapshot, AerialDataset)> = OnceLock::new();
    FIX.get_or_init(|| {
        let config = PipelineConfig::smoke();
        let ds = build_dataset(&DatasetConfig {
            n_scenes: 3,
            image_size: config.vision.image_size,
            seed: 11,
            generator: SceneGeneratorConfig::default(),
        });
        let snapshot = AeroDiffusionPipeline::fit(&ds, config, 7).snapshot();
        (snapshot, ds)
    })
}

fn sampler(pipeline: &AeroDiffusionPipeline) -> DdimSampler {
    // 4 steps keeps sampling cheap; the contracts under test are exact
    // (bitwise), not quality-dependent.
    DdimSampler::new(4, pipeline.config().diffusion.guidance_scale)
}

fn image_bits(image: &Image) -> Vec<u32> {
    image.to_tensor().as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The inpainting acceptance bar: pixels outside the keypoint boxes'
/// latent footprint are unchanged up to the VAE round-trip. The decoder
/// upsamples with non-overlapping 2×2 transposed convolutions and one
/// 3×3 output convolution, so a writable latent cell's influence is its
/// 4×4 pixel block dilated by exactly one pixel — everything beyond
/// that must decode bit-identically to `decode(encode(source))`.
#[test]
fn inpaint_preserves_pixels_outside_the_masked_footprint() {
    let (snapshot, ds) = fixture();
    let pipeline = snapshot.pipeline();
    let source = ds.items[1].rendered.image.clone();
    let s = pipeline.config().vision.image_size;
    let regions =
        vec![Annotation { class: ObjectClass::ALL[0], bbox: BBox::new(5.0, 5.0, 9.0, 9.0) }];
    let task = TaskSpec::inpaint(source.clone(), regions.clone(), "a truck parked on the lot");
    let out = pipeline.run_task(&task, &sampler(pipeline), 21, StepSink::none());

    let [c, h, w] = pipeline.latent_shape();
    let baseline =
        pipeline.decode_latent(&pipeline.encode_image_latent(&source).reshape(&[c, h, w]));
    let mask = pipeline.latent_mask(&regions);
    let mask = mask.as_slice();
    let cell = s / w;
    let (out_t, base_t) = (out.to_tensor(), baseline.to_tensor());
    let (out_t, base_t) = (out_t.as_slice(), base_t.as_slice());
    let mut outside = 0usize;
    for py in 0..s {
        for px in 0..s {
            // Inside any writable cell's dilated pixel block?
            let writable = (0..h).any(|ly| {
                (0..w).any(|lx| {
                    mask[ly * w + lx] != 0.0
                        && px + 1 >= lx * cell
                        && px <= lx * cell + cell
                        && py + 1 >= ly * cell
                        && py <= ly * cell + cell
                })
            });
            if writable {
                continue;
            }
            outside += 1;
            for chan in 0..3 {
                let i = chan * s * s + py * s + px;
                assert_eq!(
                    out_t[i].to_bits(),
                    base_t[i].to_bits(),
                    "pixel ({px},{py}) channel {chan} outside the mask footprint changed"
                );
            }
        }
    }
    assert!(outside > 0, "mask footprint covered the whole image; test is vacuous");
    assert_ne!(
        image_bits(&out),
        image_bits(&baseline),
        "inpainting changed nothing inside the mask"
    );
}

/// View translation and the super-resolution cascade are deterministic
/// in `(task, sampler, seed)` and produce native-resolution images; the
/// cascade reports both stages through one reborrowed step sink.
#[test]
fn view_and_superres_tasks_are_deterministic_end_to_end() {
    let (snapshot, ds) = fixture();
    let pipeline = snapshot.pipeline();
    let s = pipeline.config().vision.image_size;
    let sampler = sampler(pipeline);
    let source = ds.items[2].rendered.image.clone();
    let homography = Homography::between(
        source.width(),
        source.height(),
        &Viewpoint::default(),
        &Viewpoint { altitude: 0.7, pitch_deg: 65.0, heading_deg: 40.0 },
    );
    let view = TaskSpec::view(source, homography, "the same block from the south east");
    let a = pipeline.run_task(&view, &sampler, 9, StepSink::none());
    let b = pipeline.run_task(&view, &sampler, 9, StepSink::none());
    assert_eq!((a.width(), a.height()), (s, s));
    assert_eq!(image_bits(&a), image_bits(&b), "view translation must be seed-deterministic");

    let item = &ds.items[0];
    let mut steps_seen = 0usize;
    let cascade = {
        let mut on_step = |_: StepEvent<'_>| steps_seen += 1;
        pipeline.super_res_cascade(
            item,
            "a sharper aerial photo",
            &sampler,
            5,
            StepSink::new(&mut on_step),
        )
    };
    let again =
        pipeline.super_res_cascade(item, "a sharper aerial photo", &sampler, 5, StepSink::none());
    assert_eq!((cascade.width(), cascade.height()), (s, s));
    assert_eq!(image_bits(&cascade), image_bits(&again), "cascade must be seed-deterministic");
    // Half-budget draft (4/2 = 2 steps) + full-budget super-resolve (4)
    // both report into the same sink.
    assert_eq!(steps_seen, 6, "one sink must observe every step of both cascade stages");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The serving batcher's mixing contract: a heterogeneous batch
    /// (text + view + inpaint) coalesced into one `sample_batch` call —
    /// the call `serve_batch` makes — is byte-identical per row to three
    /// solo `run_task` calls, in any row order.
    #[test]
    fn heterogeneous_batches_match_solo_runs_bitwise(
        s0 in 0u64..1000,
        s1 in 0u64..1000,
        s2 in 0u64..1000,
        rot in 0usize..3,
    ) {
        let seeds = [s0, s1, s2];
        let (snapshot, ds) = fixture();
        let pipeline = snapshot.pipeline();
        let item = &ds.items[0];
        let caption = pipeline.caption_for(item, &mut StdRng::seed_from_u64(0));
        let source = ds.items[1].rendered.image.clone();
        let homography = Homography::between(
            source.width(),
            source.height(),
            &Viewpoint::default(),
            &Viewpoint { altitude: 0.6, pitch_deg: 60.0, heading_deg: 30.0 },
        );
        let mut specs = [
            TaskSpec::text(item, &caption, "an aerial view of a park"),
            TaskSpec::view(source.clone(), homography, "the park from the north"),
            TaskSpec::inpaint(
                source,
                vec![Annotation { class: ObjectClass::ALL[1], bbox: BBox::new(4.0, 4.0, 11.0, 10.0) }],
                "a bus at the center",
            ),
        ];
        specs.rotate_left(rot);

        let sampler = sampler(pipeline);
        let [c, h, w] = pipeline.latent_shape();
        // The same batch call the serving batcher makes: one row per
        // task with its own seeded rng and its inpainting pin parts.
        let conds: Vec<Tensor> = specs.iter().map(|t| pipeline.encode_task(t)).collect();
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let rows = specs
            .iter()
            .zip(&conds)
            .zip(&mut rngs)
            .map(|((spec, cond), rng)| SampleRow { cond, rng, pin: pipeline.pin_parts(spec) })
            .collect();
        let z = pipeline.sample_batch(&sampler, rows, None, StepSink::none());
        for (row, (spec, &seed)) in specs.iter().zip(&seeds).enumerate() {
            let batched = pipeline.decode_latent(&z.narrow(0, row, 1).reshape(&[c, h, w]));
            let solo = pipeline.run_task(spec, &sampler, seed, StepSink::none());
            prop_assert_eq!(
                image_bits(&batched),
                image_bits(&solo),
                "row {} ({:?}) diverged from its solo run", row, spec.kind()
            );
        }
    }
}
