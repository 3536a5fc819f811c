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
//! Also measures span-tracing overhead: the DDIM workload is re-timed
//! inside an [`aero_obs::span::collect`] scope and the relative cost is
//! recorded as `tracing_overhead_pct` (target <2%; recorded, not gated —
//! single-core CI containers are too noisy to assert on).
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
use aero_tensor::{BackendKind, Tensor};
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
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let [mut one, mut two] = per_call;
    (median(&mut one), median(&mut two))
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

/// Best-of-`reps` wall time of `f` in microseconds. With `traced`, each
/// run executes inside a span-collection scope (and the run is checked
/// to have actually recorded spans, so the overhead number is honest).
fn best_us<F: Fn() -> Tensor>(reps: usize, traced: bool, f: &F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let started = Instant::now();
        if traced {
            let (_, trace) = aero_obs::span::collect(f);
            assert!(!trace.is_empty(), "traced run recorded no spans");
        } else {
            f();
        }
        best = best.min(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    best
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

    // Span-tracing overhead on the DDIM workload: best-of-N with the
    // thread-local collector off vs. installed. Recorded, not gated —
    // the <2% target is meaningful on quiet hosts only.
    let trace_reps = if smoke { 2 } else { 8 };
    let ddim_run = || {
        Sampler::Ddim(sampler).run(
            &unet,
            &schedule,
            SampleOptions::from_latent(z_init.clone()).with_cond(&cond),
        )
    };
    ddim_run(); // warmup
    let tracing_off_us = best_us(trace_reps, false, &ddim_run);
    let tracing_on_us = best_us(trace_reps, true, &ddim_run);
    let tracing_overhead_pct = (tracing_on_us as f64 - tracing_off_us as f64).max(0.0)
        / tracing_off_us.max(1) as f64
        * 100.0;
    println!(
        "tracing overhead on ddim_sample: {tracing_overhead_pct:.2}% \
         ({tracing_off_us} µs off, {tracing_on_us} µs on; target <2%)"
    );

    let sweep = fanout_sweep(smoke, &mut rng);

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
