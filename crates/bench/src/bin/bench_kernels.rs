//! Kernel-layer benchmark: compute backends × kernel thread counts.
//!
//! Times four workloads — a square matmul, a batched conv2d, one UNet
//! denoise step, and one full DDIM sample — under both compute backends
//! (`reference`, the serial oracle kernels; `blocked`, the cache-blocked
//! microkernels) at 1, 2, 4 and 8 kernel threads, asserting along the
//! way that every backend × thread-count combination produces
//! bit-identical output bytes (the kernel layer's core contract).
//!
//! Writes `BENCH_kernels.json` to the working directory. The file
//! records the host's `available_parallelism` because parallel speedups
//! are only meaningful relative to it: the dispatcher clamps its plan to
//! the physical core count, so on a single-core container every thread
//! column times the same serial execution. Three gates:
//!
//! - **blocked ≥3× matmul (1 thread)** — the cache-blocked backend must
//!   beat the reference oracle by ≥3× on the single-thread 512² matmul
//!   (sized so the reference streams its B operand past L2). Armed
//!   whenever not in smoke mode (no core requirement: it is a
//!   single-thread comparison). Checked after the file is written, so a
//!   failing host still records its numbers (with `blocked_gate_passed`
//!   false) while the run exits non-zero.
//! - **matmul ≥2× (4 threads, blocked)** — only arms on hosts with at
//!   least 4 cores; elsewhere the numbers are recorded honestly and the
//!   gate is reported as skipped.
//! - **no parallel regression** — `conv2d` and `unet_denoise_step` must
//!   not *lose* from parallel dispatch (4-thread time ≥0.9× of
//!   1-thread). Same ≥4-core arming; on smaller hosts the core-clamped
//!   planner keeps these serial by construction.
//!
//! Then runs the fan-out half of the 1- vs 2-thread sweep behind the
//! dispatcher's fan-out floors (`DESIGN.md` §10): shapes at and above
//! the floors, each of which must fan out over two threads on 2 cores,
//! with its work estimate and its median time at 1 and 2 threads,
//! recorded under `fanout_sweep`. The times are recorded, not gated.
//!
//! Then times the one-pass GroupNorm kernels (`DESIGN.md` §20) at the
//! paper UNet's three shapes, recorded under `group_norm`: the forward
//! at batch 1 and 8 and the backward at batch 8, median per call. They
//! are serial, so one thread count is timed.
//!
//! Then times the backward kernels (`DESIGN.md` §21) at the shapes a
//! paper train runs most, recorded under `backward`: `conv2d_backward`
//! at the region augmenter's two batch-1 encoder convs (the first on a
//! constant image, so without dX), a batch-4 bottleneck conv and the
//! VAE's output conv, and the matmul backward of the augmenter's
//! `[1, 1024]·[1024, 32]` projection. Each row is timed against the
//! tensor-op composition the backward ran before, in interleaved pairs,
//! and must match its bits.
//!
//! Also measures span-tracing overhead: the DDIM workload is timed in
//! interleaved pairs, one run with the collector off and one inside an
//! [`aero_obs::span::collect`] scope, the order alternating pair by pair,
//! and the median per-pair relative cost is recorded as
//! `tracing_overhead_pct` with its pair count (target <2%; recorded, not
//! gated — shared CI hosts are too noisy to assert on). The file also
//! records the commit it measured (`git rev-parse HEAD`, marked `-dirty`
//! when tracked files differ from it, or `unknown` outside a checkout).
//!
//! `BENCH_KERNELS_SMOKE=1` shrinks every workload to smoke size and
//! skips the file write — used by CI as a threshold-free liveness check.

use aero_diffusion::{
    BetaSchedule, CondUnet, DdimSampler, NoiseSchedule, SampleOptions, Sampler, UnetConfig,
};
use aero_serve::Json;
use aero_tensor::backend::with_backend;
use aero_tensor::par_kernels::{planned_elementwise_threads, planned_threads};
use aero_tensor::parallel::{with_assumed_cores, with_threads};
use aero_tensor::{BackendKind, ConvGrads, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const COND_DIM: usize = 48;

struct Workload {
    name: &'static str,
    /// Best-of-N wall time per thread count, in microseconds, aligned
    /// with [`THREAD_COUNTS`]; one row per entry of [`BackendKind::ALL`]
    /// (reference first, blocked second).
    best_us: [Vec<u64>; 2],
}

/// Times `f` under every backend × thread-count combination, asserting
/// all runs produce the same output bytes as the reference backend at
/// one thread, and returns the per-combination best-of-`reps` wall
/// times. Within one thread count the two backends' reps are
/// interleaved, so host-load drift hits both sides of the
/// blocked-vs-reference ratio equally.
fn measure<F>(name: &'static str, reps: usize, f: F) -> Workload
where
    F: Fn() -> Tensor,
{
    let oracle: Vec<u32> = with_backend(BackendKind::Reference, || with_threads(1, &f))
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let mut best_us = [vec![u64::MAX; THREAD_COUNTS.len()], vec![u64::MAX; THREAD_COUNTS.len()]];
    for (ti, &threads) in THREAD_COUNTS.iter().enumerate() {
        for &backend in &BackendKind::ALL {
            with_backend(backend, || with_threads(threads, &f)); // warmup
        }
        for _ in 0..reps {
            for (bi, &backend) in BackendKind::ALL.iter().enumerate() {
                let started = Instant::now();
                let out = with_backend(backend, || with_threads(threads, &f));
                let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                best_us[bi][ti] = best_us[bi][ti].min(us);
                let bits: Vec<u32> = out.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    bits, oracle,
                    "{name}: output diverged from the oracle under {backend} at {threads} threads"
                );
            }
        }
    }
    Workload { name, best_us }
}

/// Parallel speedup of `w` under `backend` at `threads` relative to the
/// same backend at one thread.
fn speedup(w: &Workload, backend: BackendKind, threads: usize) -> f64 {
    let bi = BackendKind::ALL.iter().position(|&b| b == backend).unwrap();
    let i = THREAD_COUNTS.iter().position(|&t| t == threads).unwrap();
    w.best_us[bi][0] as f64 / (w.best_us[bi][i].max(1)) as f64
}

/// Single-thread speedup of the blocked backend over the reference
/// oracle on `w`.
fn backend_speedup_1t(w: &Workload) -> f64 {
    w.best_us[0][0] as f64 / (w.best_us[1][0].max(1)) as f64
}

/// One row of the 1- vs 2-thread fan-out sweep.
struct SweepRow {
    kernel: String,
    /// The dispatcher's work estimate for the kernel's dominant
    /// dispatch (output elements × ops per element, or the element count
    /// of an elementwise op), as its planner sees it.
    work: usize,
    /// Median wall time per call, in microseconds, at 1 and 2 threads.
    t1_us: f64,
    t2_us: f64,
}

/// Median per-call wall time of `f` at 1 and at 2 kernel threads, in
/// microseconds. Each sample times a batch of calls long enough (~2 ms)
/// for the clock to resolve, and the two thread counts alternate sample
/// by sample so host drift hits both equally.
fn time_1t_2t(samples: usize, f: &dyn Fn() -> Tensor) -> (f64, f64) {
    let call = |threads: usize| with_threads(threads, f);
    call(1);
    call(2);
    let started = Instant::now();
    call(1);
    let reps = (2_000 / started.elapsed().as_micros().max(1)).clamp(1, 1_000) as usize;
    let mut per_call = [Vec::with_capacity(samples), Vec::with_capacity(samples)];
    for s in 0..samples {
        let order = if s % 2 == 0 { [1, 2] } else { [2, 1] };
        for threads in order {
            let started = Instant::now();
            for _ in 0..reps {
                call(threads);
            }
            per_call[threads - 1].push(started.elapsed().as_secs_f64() * 1e6 / reps as f64);
        }
    }
    let [one, two] = per_call;
    (median(one), median(two))
}

/// One GroupNorm shape of the paper UNet, with the median wall time per
/// call of the forward kernel at batch 1 (a sampling pass) and of the
/// forward and backward kernels at batch 8 (a training step).
struct NormRow {
    shape: [usize; 4],
    forward_b1_us: f64,
    forward_b8_us: f64,
    backward_b8_us: f64,
}

/// Median per-call wall time of `f` over `samples` batches of calls,
/// each long enough (~2 ms) for the clock to resolve, in microseconds.
fn median_call_us(samples: usize, f: &dyn Fn()) -> f64 {
    f();
    let started = Instant::now();
    f();
    let reps = (2_000 / started.elapsed().as_micros().max(1)).clamp(1, 10_000) as usize;
    let per_call = (0..samples).map(|_| {
        let started = Instant::now();
        for _ in 0..reps {
            f();
        }
        started.elapsed().as_secs_f64() * 1e6 / reps as f64
    });
    median(per_call.collect())
}

/// The one-pass GroupNorm kernels (`DESIGN.md` §20) at the paper UNet's
/// three shapes: 16 channels on the 8×8 latent, 32 on the 4×4
/// bottleneck and 32 on the 8×8 up path, four groups each.
fn group_norm_rows(smoke: bool, rng: &mut StdRng) -> Vec<NormRow> {
    let samples = if smoke { 3 } else { 15 };
    println!("{:>20} {:>12} {:>12} {:>12}", "group_norm", "fwd b1 µs", "fwd b8 µs", "bwd b8 µs");
    [[1, 16, 8, 8], [1, 32, 4, 4], [1, 32, 8, 8]]
        .into_iter()
        .map(|shape| {
            let [_, c, h, w] = shape;
            let gamma = Tensor::randn(&[1, c, 1, 1], rng);
            let beta = Tensor::randn(&[1, c, 1, 1], rng);
            let x1 = Tensor::randn(&shape, rng);
            let x8 = Tensor::randn(&[8, c, h, w], rng);
            let grad = Tensor::randn(&[8, c, h, w], rng);
            let (_, stats) = x8.group_norm(&gamma, &beta, 4, 1e-5);
            let row = NormRow {
                shape,
                forward_b1_us: median_call_us(samples, &|| {
                    x1.group_norm(&gamma, &beta, 4, 1e-5);
                }),
                forward_b8_us: median_call_us(samples, &|| {
                    x8.group_norm(&gamma, &beta, 4, 1e-5);
                }),
                backward_b8_us: median_call_us(samples, &|| {
                    x8.group_norm_backward(&gamma, &stats, &grad);
                }),
            };
            println!(
                "{:>20} {:>12.1} {:>12.1} {:>12.1}",
                format!("{shape:?}"),
                row.forward_b1_us,
                row.forward_b8_us,
                row.backward_b8_us
            );
            row
        })
        .collect()
}

/// One backward kernel at one shape: the median per-call time of the
/// kernel and of the composition it replaced.
struct BackwardRow {
    kernel: &'static str,
    shape: String,
    kernel_us: f64,
    composite_us: f64,
}

/// Median per-call wall times of `a` and `b`, timed in interleaved
/// pairs: each sample times a batch of calls (~2 ms) of each, the order
/// alternating sample by sample so host drift hits both equally.
fn paired_call_us(samples: usize, a: &dyn Fn(), b: &dyn Fn()) -> (f64, f64) {
    let fs = [a, b];
    let reps = fs.map(|f| {
        f();
        let started = Instant::now();
        f();
        (2_000 / started.elapsed().as_micros().max(1)).clamp(1, 10_000) as usize
    });
    let mut per_call = [Vec::with_capacity(samples), Vec::with_capacity(samples)];
    for s in 0..samples {
        for i in if s % 2 == 0 { [0, 1] } else { [1, 0] } {
            let started = Instant::now();
            for _ in 0..reps[i] {
                fs[i]();
            }
            per_call[i].push(started.elapsed().as_secs_f64() * 1e6 / reps[i] as f64);
        }
    }
    let [one, two] = per_call;
    (median(one), median(two))
}

/// The conv2d backward as autograd composed it from tensor ops before
/// `Tensor::conv2d_backward`: dX, dW and db, always all three.
fn conv2d_backward_composite(
    x: &Tensor,
    w: &Tensor,
    g: &Tensor,
    stride: usize,
    pad: usize,
) -> [Tensor; 3] {
    let (cout, cin, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    let n = x.shape()[0];
    let (oh, ow) = (g.shape()[2], g.shape()[3]);
    let wmat_t = w.reshape(&[cout, cin * kh * kw]).transpose();
    let mut dcols = Tensor::zeros(&[n, cin * kh * kw, oh * ow]);
    for bi in 0..n {
        let g_b = g.narrow(0, bi, 1).reshape(&[cout, oh * ow]);
        let d_b = wmat_t.matmul(&g_b);
        let len = cin * kh * kw * oh * ow;
        dcols.as_mut_slice()[bi * len..(bi + 1) * len].copy_from_slice(d_b.as_slice());
    }
    let dx = dcols.col2im(x.shape(), kh, kw, stride, pad);
    let cols = x.im2col(kh, kw, stride, pad);
    let mut dw = Tensor::zeros(&[cout, cin * kh * kw]);
    for bi in 0..n {
        let g_b = g.narrow(0, bi, 1).reshape(&[cout, oh * ow]);
        let col_b = cols.narrow(0, bi, 1).reshape(&[cin * kh * kw, oh * ow]);
        dw = dw.add(&g_b.matmul(&col_b.transpose()));
    }
    let db = g.sum_axis(3).sum_axis(2).sum_axis(0);
    [dx, dw.reshape(&[cout, cin, kh, kw]), db]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The backward kernels at the shapes a paper train runs most, each
/// against the composition it replaced (same bits asserted).
fn backward_rows(smoke: bool, rng: &mut StdRng) -> Vec<BackwardRow> {
    let samples = if smoke { 3 } else { 15 };
    println!("{:>34} {:>12} {:>14} {:>8}", "backward", "kernel µs", "composite µs", "ratio");
    let mut rows = Vec::new();
    let mut report = |row: BackwardRow| {
        println!(
            "{:>34} {:>12.1} {:>14.1} {:>7.2}x",
            format!("{} {}", row.kernel, row.shape),
            row.kernel_us,
            row.composite_us,
            row.composite_us / row.kernel_us
        );
        rows.push(row);
    };
    for (x_shape, cout, stride, dx) in [
        ([1, 3, 32, 32], 8, 2, false),
        ([1, 8, 16, 16], 16, 2, true),
        ([4, 32, 4, 4], 32, 1, true),
        ([4, 8, 32, 32], 3, 1, true),
    ] {
        let [n, cin, h, w] = x_shape;
        let x = Tensor::randn(&x_shape, rng);
        let wt = Tensor::randn(&[cout, cin, 3, 3], rng);
        let g = Tensor::randn(&[n, cout, (h - 1) / stride + 1, (w - 1) / stride + 1], rng);
        let want = ConvGrads { input: dx, weight: true, bias: true };
        let kernel = || x.conv2d_backward(&wt, &g, stride, 1, want);
        let composite = || conv2d_backward_composite(&x, &wt, &g, stride, 1);
        let (got, old) = (kernel(), composite());
        for (got, old) in [got.0, got.1, got.2].iter().zip(&old) {
            if let Some(got) = got {
                assert_eq!(bits(got), bits(old), "conv2d_backward {x_shape:?} diverged");
            }
        }
        let (kernel_us, composite_us) = paired_call_us(
            samples,
            &|| {
                kernel();
            },
            &|| {
                composite();
            },
        );
        let grads = if dx { "dX dW db" } else { "dW db" };
        let shape = format!("{x_shape:?}→{cout} s{stride} {grads}");
        report(BackwardRow { kernel: "conv2d_backward", shape, kernel_us, composite_us });
    }
    let a = Tensor::randn(&[1, 1024], rng);
    let b = Tensor::randn(&[1024, 32], rng);
    let g = Tensor::randn(&[1, 32], rng);
    let kernel = || [g.matmul_nt(&b), a.matmul_tn(&g)];
    let composite = || [g.matmul(&b.transpose()), a.transpose().matmul(&g)];
    for (got, old) in kernel().iter().zip(&composite()) {
        assert_eq!(bits(got), bits(old), "matmul backward diverged");
    }
    let (kernel_us, composite_us) = paired_call_us(
        samples,
        &|| {
            kernel();
        },
        &|| {
            composite();
        },
    );
    let shape = "[1, 1024]·[1024, 32] dA dB".to_string();
    report(BackwardRow { kernel: "matmul_backward", shape, kernel_us, composite_us });
    rows
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The fan-out half of the 1- vs 2-thread sweep behind the dispatcher's
/// fan-out floors (`DESIGN.md` §10): shapes from the floors up to where
/// two threads clearly win, each of which the dispatcher fans out over
/// both threads of a 2-core host, so the two columns time the serial and
/// the sharded run. The rows below the floors, which set them, were
/// measured while those shapes still fanned out; DESIGN §10 keeps them.
fn fanout_sweep(smoke: bool, rng: &mut StdRng) -> Vec<SweepRow> {
    let samples = if smoke { 3 } else { 15 };
    let mut rows = Vec::new();
    let mut run =
        |kernel: String, work: usize, plan: fn(usize) -> usize, f: &dyn Fn() -> Tensor| {
            let planned = with_assumed_cores(2, || with_threads(2, || plan(work)));
            assert_eq!(planned, 2, "{kernel} no longer fans out on 2 cores; resize the row");
            let (t1_us, t2_us) = time_1t_2t(samples, f);
            println!("{kernel:>34} {work:>11} {t1_us:>9.1} {t2_us:>9.1} {:>6.2}", t1_us / t2_us);
            rows.push(SweepRow { kernel, work, t1_us, t2_us });
        };
    println!(
        "{:>34} {:>11} {:>9} {:>9} {:>6}",
        "kernel (fan-out sweep)", "work", "1t µs", "2t µs", "1t/2t"
    );
    // Elementwise add, the cheapest op per element: where it wins at 2
    // threads, every costlier map or zip does too.
    let len = 1 << 22;
    let a = Tensor::randn(&[len], rng);
    let b = Tensor::randn(&[len], rng);
    run(format!("elementwise add {len}"), len, planned_elementwise_threads, &|| a.add(&b));
    if smoke {
        return rows;
    }
    // 3×3 convs, (n, cin, cout, side, stride): stride 1 takes the
    // blocked direct path, stride 2 the im2col path.
    for (n, cin, cout, side, stride) in [(8, 32, 32, 16, 1), (8, 64, 64, 16, 1), (8, 64, 64, 32, 2)]
    {
        let x = Tensor::randn(&[n, cin, side, side], rng);
        let w = Tensor::randn(&[cout, cin, 3, 3], rng);
        let b = Tensor::zeros(&[cout]);
        let out_side = (side + 2 - 3) / stride + 1;
        let work = n * cout * out_side * out_side * 2 * cin * 9;
        let kernel = format!("conv {cin}->{cout} 3x3/s{stride} {side}x{side} n={n}");
        run(kernel, work, planned_threads, &|| x.conv2d(&w, Some(&b), stride, 1));
    }
    for (m, k, n) in [(256, 256, 256), (512, 512, 512)] {
        let a = Tensor::randn(&[m, k], rng);
        let b = Tensor::randn(&[k, n], rng);
        run(format!("matmul {m}x{k}x{n}"), 2 * m * k * n, planned_threads, &|| a.matmul(&b));
    }
    // Attention-shaped bmm and softmax.
    let (nb, m, k, n) = (32, 128, 32, 128);
    let a = Tensor::randn(&[nb, m, k], rng);
    let b = Tensor::randn(&[nb, k, n], rng);
    run(format!("bmm {nb}x{m}x{k}x{n}"), nb * m * n * 2 * k, planned_threads, &|| a.bmm(&b));
    let (r, c) = (16_384, 64);
    let x = Tensor::randn(&[r, c], rng);
    run(format!("softmax {r}x{c}"), r * c * 16, planned_threads, &|| x.softmax_last_axis());
    rows
}

/// Span-tracing overhead on `f` from `pairs` interleaved pairs: each pair
/// times one run with the collector off and one inside a collection
/// scope, off first on even pairs and on first on odd ones, so host drift
/// hits both sides. Returns the median off and on wall times in µs and
/// the median per-pair overhead in percent. Each traced run is checked to
/// have recorded spans, so the number is honest.
fn tracing_overhead<F: Fn() -> Tensor>(pairs: usize, f: &F) -> (f64, f64, f64) {
    let time_us = |traced: bool| {
        let started = Instant::now();
        if traced {
            let (_, trace) = aero_obs::span::collect(f);
            assert!(!trace.is_empty(), "traced run recorded no spans");
        } else {
            f();
        }
        started.elapsed().as_secs_f64() * 1e6
    };
    let (mut off, mut on, mut pct) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (off_us, on_us) = if pair % 2 == 0 {
            let off_us = time_us(false);
            (off_us, time_us(true))
        } else {
            let on_us = time_us(true);
            (time_us(false), on_us)
        };
        off.push(off_us);
        on.push(on_us);
        pct.push((on_us - off_us) / off_us * 100.0);
    }
    (median(off), median(on), median(pct))
}

/// The commit the working tree is at, marked `-dirty` when tracked files
/// differ from it, or `unknown` outside a git checkout.
fn commit_id() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain", "--untracked-files=no"])) {
        (Some(head), Some(changes)) if !changes.is_empty() => format!("{head}-dirty"),
        (Some(head), _) => head,
        _ => "unknown".to_string(),
    }
}

fn main() {
    let smoke = std::env::var("BENCH_KERNELS_SMOKE").is_ok_and(|v| v == "1");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("bench_kernels: host has {cores} core(s){}", if smoke { ", smoke mode" } else { "" });

    let mut rng = StdRng::seed_from_u64(42);
    // 512² puts the reference kernel's streamed B operand (1 MiB) past
    // L2 — the cache regime the blocked backend exists for; at 256² both
    // backends run cache-resident and the gap is ALU-bound only.
    let (mm_side, reps) = if smoke { (32, 2) } else { (512, 5) };
    let a = Tensor::randn(&[mm_side, mm_side], &mut rng);
    let b = Tensor::randn(&[mm_side, mm_side], &mut rng);
    let matmul = measure("matmul", reps, || a.matmul(&b));

    let (ch, side) = if smoke { (4, 8) } else { (16, 32) };
    let x = Tensor::randn(&[2, ch, side, side], &mut rng);
    let w = Tensor::randn(&[2 * ch, ch, 3, 3], &mut rng);
    let bias = Tensor::zeros(&[2 * ch]);
    let conv = measure("conv2d", reps, || x.conv2d(&w, Some(&bias), 1, 1));

    let unet = CondUnet::new(UnetConfig::latent(COND_DIM), &mut rng);
    let z = Tensor::randn(&[1, 4, 8, 8], &mut rng);
    let cond = Tensor::randn(&[1, COND_DIM], &mut rng);
    let step = measure("unet_denoise_step", reps, || unet.predict(&z, &[5], Some(&cond)));

    let schedule =
        NoiseSchedule::new(BetaSchedule::Linear { beta_start: 0.001, beta_end: 0.012 }, 64);
    let sampler = DdimSampler::new(if smoke { 2 } else { 8 }, 2.0);
    let z_init = Tensor::randn(&[1, 4, 8, 8], &mut rng);
    let ddim = measure("ddim_sample", if smoke { 1 } else { 2 }, || {
        Sampler::Ddim(sampler).run(
            &unet,
            &schedule,
            SampleOptions::from_latent(z_init.clone()).with_cond(&cond),
        )
    });

    let workloads = [matmul, conv, step, ddim];
    println!(
        "{:>20} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "backend", "1t µs", "2t µs", "4t µs", "8t µs"
    );
    for w in &workloads {
        for (bi, backend) in BackendKind::ALL.iter().enumerate() {
            println!(
                "{:>20} {:>10} {:>10} {:>10} {:>10} {:>10}",
                w.name,
                backend.as_str(),
                w.best_us[bi][0],
                w.best_us[bi][1],
                w.best_us[bi][2],
                w.best_us[bi][3]
            );
        }
    }

    // Span-tracing overhead on the DDIM workload: interleaved pairs with
    // the thread-local collector off vs. installed. Recorded, not gated —
    // the <2% target is meaningful on quiet hosts only.
    let trace_pairs = if smoke { 2 } else { 15 };
    let ddim_run = || {
        Sampler::Ddim(sampler).run(
            &unet,
            &schedule,
            SampleOptions::from_latent(z_init.clone()).with_cond(&cond),
        )
    };
    ddim_run(); // warmup
    let (tracing_off_us, tracing_on_us, tracing_overhead_pct) =
        tracing_overhead(trace_pairs, &ddim_run);
    println!(
        "tracing overhead on ddim_sample: {tracing_overhead_pct:.2}%, median of {trace_pairs} \
         pairs ({tracing_off_us:.0} µs off, {tracing_on_us:.0} µs on; target <2%)"
    );

    let sweep = fanout_sweep(smoke, &mut rng);
    let norms = group_norm_rows(smoke, &mut rng);
    let backward = backward_rows(smoke, &mut rng);

    // Single-thread backend gate: no core requirement, arms off-smoke.
    let mm = &workloads[0];
    let blocked_1t = backend_speedup_1t(mm);
    let blocked_gate_passed = blocked_1t >= 3.0;
    println!("matmul: blocked {blocked_1t:.2}x over reference at 1 thread");

    // Parallel gates are only physically meaningful with ≥4 cores.
    let gated = !smoke && cores >= 4;
    if gated {
        let s = speedup(mm, BackendKind::Blocked, 4);
        println!("matmul: {s:.2}x at 4 threads (blocked)");
        assert!(s >= 2.0, "matmul must reach 2x at 4 threads on a {cores}-core host");
        // The dispatcher must never fan out where it loses: small convs
        // and UNet steps stay at worst within noise of their serial run.
        for name in ["conv2d", "unet_denoise_step"] {
            let w = workloads.iter().find(|w| w.name == name).unwrap();
            let s = speedup(w, BackendKind::Blocked, 4);
            println!("{name}: {s:.2}x at 4 threads (blocked)");
            assert!(s >= 0.9, "{name} must not regress under parallel dispatch");
        }
    } else {
        println!("parallel speedup gates skipped ({cores} core(s), smoke={smoke})");
    }

    if smoke {
        println!(
            "smoke mode: all outputs bit-identical across both backends × 1/2/4/8 threads, \
             no file written"
        );
        return;
    }
    let json = Json::obj(vec![
        ("bench", "kernels".into()),
        ("commit", commit_id().into()),
        ("available_parallelism", (cores as u64).into()),
        ("thread_counts", Json::Arr(THREAD_COUNTS.iter().map(|&t| (t as u64).into()).collect())),
        ("backends", Json::Arr(BackendKind::ALL.iter().map(|b| b.as_str().into()).collect())),
        ("speedup_gate_armed", gated.into()),
        ("blocked_gate_armed", true.into()),
        ("blocked_gate_passed", blocked_gate_passed.into()),
        ("matmul_blocked_vs_reference_1t", blocked_1t.into()),
        ("tracing_off_us", tracing_off_us.into()),
        ("tracing_on_us", tracing_on_us.into()),
        ("tracing_overhead_pct", tracing_overhead_pct.into()),
        ("tracing_pairs", trace_pairs.into()),
        (
            "fanout_sweep",
            Json::Arr(
                sweep
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("kernel", r.kernel.as_str().into()),
                            ("work", (r.work as u64).into()),
                            ("t1_us", r.t1_us.into()),
                            ("t2_us", r.t2_us.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "group_norm",
            Json::Arr(
                norms
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("shape", Json::Arr(r.shape.iter().map(|&d| d.into()).collect())),
                            ("groups", 4u64.into()),
                            ("forward_b1_us", r.forward_b1_us.into()),
                            ("forward_b8_us", r.forward_b8_us.into()),
                            ("backward_b8_us", r.backward_b8_us.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "backward",
            Json::Arr(
                backward
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("kernel", r.kernel.into()),
                            ("shape", r.shape.as_str().into()),
                            ("kernel_us", r.kernel_us.into()),
                            ("composite_us", r.composite_us.into()),
                            ("speedup", (r.composite_us / r.kernel_us).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "results",
            Json::Arr(
                workloads
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("workload", w.name.into()),
                            (
                                "reference_us",
                                Json::Arr(w.best_us[0].iter().map(|&u| u.into()).collect()),
                            ),
                            (
                                "blocked_us",
                                Json::Arr(w.best_us[1].iter().map(|&u| u.into()).collect()),
                            ),
                            ("speedup_4t", speedup(w, BackendKind::Blocked, 4).into()),
                            ("blocked_vs_reference_1t", backend_speedup_1t(w).into()),
                            ("bit_identical", true.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write("BENCH_kernels.json", format!("{}\n", json.render()))
        .expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
    // Checked after the write, so a host that misses the gate still
    // records what it measured; the run fails either way.
    assert!(
        blocked_gate_passed,
        "blocked matmul must reach 3x over the reference oracle at 1 thread"
    );
}
