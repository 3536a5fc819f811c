//! Backend-vs-oracle and parallel-vs-serial equivalence suite for the
//! dense kernel layer.
//!
//! Every assertion here is **byte-for-byte** (`f32::to_bits`), not
//! approximate: the determinism contract of `aero_tensor::par_kernels`
//! is that every dispatched kernel produces the *identical* bit pattern
//! as the one oracle, the `Reference` backend at one thread — at every
//! thread count (each output region is written by exactly one thread)
//! **and under every compute backend** (the blocked tiles preserve the
//! per-element accumulation order of the reference row loops, see
//! `backend.rs`). Shapes, strides, and padding are randomized in the
//! proptest style of `properties.rs`;
//! thread counts sweep 1–8 — beyond the container's core count on
//! purpose: oversubscription must not change a single bit either.
//!
//! The dispatcher clamps fan-out to the machine's physical cores, so on
//! a small CI host the parallel paths would never actually run; the
//! sweeps below install `with_assumed_cores(8)` to force genuine
//! fan-out regardless of the host.
//!
//! Small kernels stay below the fan-out work threshold and run serially
//! no matter the policy; the shape ranges below deliberately straddle
//! the threshold so both the gated and the fanned-out paths are hit.
//! Tile-boundary adversaries (dims ±1 of the MR/NR register tile and
//! the KC k-panel, k = 0, single rows/columns, K not a multiple of the
//! q8 block) are pinned explicitly at the bottom.

use aero_tensor::backend::{with_backend, BackendKind, KC, MR, NR};
use aero_tensor::parallel::{with_assumed_cores, with_threads};
use aero_tensor::{Q8Tensor, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The bit pattern of a tensor, for exact comparisons.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bitwise_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    assert_eq!(bits(got), bits(want), "{what}: bit pattern diverged");
}

/// Runs `f` under `backend` at `threads`, pretending the machine has 8
/// cores so the dispatcher's physical-core clamp cannot silently
/// serialize the sweep on a small CI host.
fn run_under<R>(backend: BackendKind, threads: usize, f: impl FnOnce() -> R) -> R {
    with_assumed_cores(8, || with_backend(backend, || with_threads(threads, f)))
}

/// `f` under the one oracle: the `Reference` backend at one thread.
fn oracle<R>(f: impl FnOnce() -> R) -> R {
    run_under(BackendKind::Reference, 1, f)
}

/// Sweeps `f` over both backends × threads 1–8 and asserts each result
/// is bit-identical to `reference`.
fn assert_all_backends_bitwise<F>(reference: &Tensor, what: &str, f: F)
where
    F: Fn() -> Tensor,
{
    for backend in BackendKind::ALL {
        for threads in 1..=8 {
            let got = run_under(backend, threads, &f);
            assert_eq!(got.shape(), reference.shape(), "{what}: shape ({backend}, {threads}t)");
            assert_eq!(
                bits(&got),
                bits(reference),
                "{what}: diverged under {backend} at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_serial_at_every_thread_count(
        m in 1usize..48,
        k in 0usize..32,
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let reference = oracle(|| a.matmul(&b));
        assert_all_backends_bitwise(&reference, "matmul", || a.matmul(&b));
    }

    #[test]
    fn matmul_tile_adversaries_match_serial_under_both_backends(
        mi in 0usize..6,
        ki in 0usize..7,
        ni in 0usize..6,
        seed in 0u64..1000,
    ) {
        // Dims pinned to ±1 of the register tile (MR×NR), the k-panel
        // depth (KC), and non-multiples of the q8 block — the edges
        // where packed-tail handling could silently reorder terms.
        let m = [1usize, MR - 1, MR, MR + 1, 2 * MR + 1, 13][mi];
        let k = [0usize, 1, 31, 33, KC - 1, KC, KC + 1][ki];
        let n = [1usize, NR - 1, NR, NR + 1, 2 * NR - 1, 2 * NR + 1][ni];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let reference = oracle(|| a.matmul(&b));
        assert_all_backends_bitwise(&reference, "matmul tile adversary", || a.matmul(&b));
    }

    #[test]
    fn q8_matmul_matches_serial_under_both_backends(
        mi in 0usize..5,
        ki in 0usize..6,
        ni in 0usize..5,
        seed in 0u64..1000,
    ) {
        // K straddles the q8 block (32) so dequantized panel packing
        // crosses scale boundaries mid-panel.
        let m = [1usize, 3, MR, MR + 1, 9][mi];
        let k = [1usize, 31, 32, 33, 65, 96][ki];
        let n = [1usize, NR - 1, NR, NR + 1, 40][ni];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let q = Q8Tensor::quantize(&a);
        let reference = oracle(|| q.matmul(&b));
        assert_all_backends_bitwise(&reference, "q8 matmul", || q.matmul(&b));
    }

    #[test]
    fn softmax_matches_reference_under_both_backends(
        rows in 1usize..40,
        cols in 1usize..48,
        si in 0usize..3,
        seed in 0u64..1000,
    ) {
        let scale = [1.0f32, 8.0, 64.0][si];
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[rows, cols], &mut rng).mul_scalar(scale);
        let reference = oracle(|| x.softmax_last_axis());
        assert_all_backends_bitwise(&reference, "softmax", || x.softmax_last_axis());
    }

    #[test]
    fn bmm_matches_per_batch_serial_matmul(
        nb in 1usize..5,
        m in 1usize..12,
        k in 0usize..10,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[nb, m, k], &mut rng);
        let b = Tensor::randn(&[nb, k, n], &mut rng);
        // Independent reference: batches multiplied one by one with the
        // oracle matmul, concatenated in order.
        let mut reference = Tensor::zeros(&[nb, m, n]);
        for i in 0..nb {
            let lhs = a.narrow(0, i, 1).reshape(&[m, k]);
            let rhs = b.narrow(0, i, 1).reshape(&[k, n]);
            let prod = oracle(|| lhs.matmul(&rhs));
            reference.as_mut_slice()[i * m * n..(i + 1) * m * n]
                .copy_from_slice(prod.as_slice());
        }
        assert_all_backends_bitwise(&reference, "bmm", || a.bmm(&b));
    }

    #[test]
    fn conv2d_matches_serial_over_random_strides_and_padding(
        n in 1usize..3,
        cin in 1usize..5,
        cout in 1usize..7,
        h in 3usize..13,
        w in 3usize..13,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        // kh, kw < 4 <= h, w (+ padding), so every window fits.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[n, cin, h, w], &mut rng);
        let wt = Tensor::randn(&[cout, cin, kh, kw], &mut rng);
        let b = Tensor::randn(&[cout], &mut rng);
        let reference = oracle(|| x.conv2d(&wt, Some(&b), stride, pad));
        // kh/kw sample 1..4 and stride 1..3, so this sweep crosses both
        // the blocked backend's direct path (stride-1 1×1/3×3, any pad)
        // and its im2col fallback (2×2, rectangular, strided).
        let what = format!("conv2d {h}x{w} k{kh}x{kw} s{stride} p{pad}");
        assert_all_backends_bitwise(&reference, &what, || x.conv2d(&wt, Some(&b), stride, pad));
    }

    #[test]
    fn conv_transpose2d_is_thread_count_invariant(
        n in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..4,
        h in 2usize..8,
        w in 2usize..8,
        k in 1usize..4,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        // col2im scatter-adds overlapping windows, the one kernel where
        // accumulation *order* (not just partitioning) must be pinned.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[n, cin, h, w], &mut rng);
        let wt = Tensor::randn(&[cin, cout, k, k], &mut rng);
        let b = Tensor::randn(&[cout], &mut rng);
        let reference =
            oracle(|| x.conv_transpose2d(&wt, Some(&b), stride, 0));
        assert_all_backends_bitwise(&reference, "conv_transpose2d", || {
            x.conv_transpose2d(&wt, Some(&b), stride, 0)
        });
    }

    #[test]
    fn softmax_attention_chain_is_thread_count_invariant(
        b in 1usize..3,
        t in 1usize..24,
        d in 1usize..16,
        seed in 0u64..1000,
    ) {
        // The attention hot path as the nn crate runs it: scores = q k^T
        // (bmm), softmax over the last axis, then the value product.
        let mut rng = StdRng::seed_from_u64(seed);
        let q = Tensor::randn(&[b, t, d], &mut rng);
        let key = Tensor::randn(&[b, t, d], &mut rng);
        let v = Tensor::randn(&[b, t, d], &mut rng);
        let attn = || {
            let scores = q.bmm(&key.permute(&[0, 2, 1])).mul_scalar(1.0 / (d as f32).sqrt());
            scores.softmax_last_axis().bmm(&v)
        };
        let reference = oracle(attn);
        assert_all_backends_bitwise(&reference, "attention chain", attn);
    }

    #[test]
    fn im2col_col2im_roundtrip_is_thread_count_invariant(
        n in 1usize..3,
        c in 1usize..4,
        h in 3usize..10,
        w in 3usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        // k < 4 <= h, w (+ padding), so every window fits.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[n, c, h, w], &mut rng);
        let run = |threads: usize| {
            with_assumed_cores(8, || with_threads(threads, || {
                let cols = x.im2col(k, k, stride, pad);
                let back = cols.col2im(&[n, c, h, w], k, k, stride, pad);
                (cols, back)
            }))
        };
        let (cols_ref, back_ref) = run(1);
        for threads in 2..=8 {
            let (cols, back) = run(threads);
            prop_assert_eq!(bits(&cols), bits(&cols_ref), "im2col diverged at {}", threads);
            prop_assert_eq!(bits(&back), bits(&back_ref), "col2im diverged at {}", threads);
        }
    }

    #[test]
    fn pooling_and_upsample_are_thread_count_invariant(
        n in 1usize..3,
        c in 1usize..5,
        hw in 1usize..6,
        k in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (h, w) = (hw * k, hw * k);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[n, c, h, w], &mut rng);
        let pools = || (x.avg_pool2d(k), x.max_pool2d(k), x.upsample_nearest2x());
        let reference = with_threads(1, pools);
        for threads in 2..=8 {
            let (avg, mx, up) = with_assumed_cores(8, || with_threads(threads, pools));
            prop_assert_eq!(bits(&avg), bits(&reference.0), "avg_pool diverged at {}", threads);
            prop_assert_eq!(bits(&mx), bits(&reference.1), "max_pool diverged at {}", threads);
            prop_assert_eq!(bits(&up), bits(&reference.2), "upsample diverged at {}", threads);
        }
    }
}

// ---- degenerate shapes the sharding/tiling math must survive exactly ----

#[test]
fn matmul_zero_inner_dim_is_all_zeros_under_both_backends() {
    let a = Tensor::zeros(&[5, 0]);
    let b = Tensor::zeros(&[0, 7]);
    for backend in BackendKind::ALL {
        for threads in 1..=8 {
            let out = run_under(backend, threads, || a.matmul(&b));
            assert_eq!(out.shape(), &[5, 7]);
            assert!(
                out.as_slice().iter().all(|&v| v.to_bits() == 0.0f32.to_bits()),
                "k = 0 must yield the empty sum under {backend}"
            );
        }
    }
}

#[test]
fn single_row_and_single_col_matmul_match_serial() {
    let mut rng = StdRng::seed_from_u64(7);
    let a = Tensor::randn(&[1, 33], &mut rng);
    let b = Tensor::randn(&[33, 129], &mut rng);
    assert_all_backends_bitwise(&oracle(|| a.matmul(&b)), "single-row matmul", || a.matmul(&b));
    let c = Tensor::randn(&[37, 33], &mut rng);
    let d = Tensor::randn(&[33, 1], &mut rng);
    assert_all_backends_bitwise(&oracle(|| c.matmul(&d)), "single-col matmul", || c.matmul(&d));
}

#[test]
fn one_by_one_conv_matches_serial() {
    let mut rng = StdRng::seed_from_u64(8);
    let x = Tensor::randn(&[2, 3, 5, 5], &mut rng);
    let w = Tensor::randn(&[4, 3, 1, 1], &mut rng);
    let b = Tensor::randn(&[4], &mut rng);
    let reference = oracle(|| x.conv2d(&w, Some(&b), 1, 0));
    assert_all_backends_bitwise(&reference, "1x1 conv", || x.conv2d(&w, Some(&b), 1, 0));
}

#[test]
fn wide_direct_conv_with_padding_matches_serial() {
    // Width far past the direct kernel's 16-column tile, with padding,
    // so interior fast-path tiles, border gather tiles, and the ragged
    // final tile all occur in one output row.
    let mut rng = StdRng::seed_from_u64(14);
    let x = Tensor::randn(&[1, 3, 7, 41], &mut rng);
    let w = Tensor::randn(&[5, 3, 3, 3], &mut rng);
    let b = Tensor::randn(&[5], &mut rng);
    let reference = oracle(|| x.conv2d(&w, Some(&b), 1, 1));
    assert_all_backends_bitwise(&reference, "wide 3x3 conv", || x.conv2d(&w, Some(&b), 1, 1));
}

#[test]
fn large_matmul_above_fanout_threshold_matches_serial() {
    // Big enough that the worker pool genuinely engages under the
    // assumed-8-core override (out.len() * 2k well past the retuned
    // work threshold) rather than the gated path.
    let mut rng = StdRng::seed_from_u64(9);
    let a = Tensor::randn(&[96, 704], &mut rng);
    let b = Tensor::randn(&[704, 96], &mut rng);
    let reference = oracle(|| a.matmul(&b));
    assert_all_backends_bitwise(&reference, "large matmul", || a.matmul(&b));
}

#[test]
fn elementwise_map_and_zip_fan_out_bit_identically() {
    // Above the elementwise threshold (64 Ki elements) so the chunked
    // path really runs; chunking preserves element order exactly.
    let mut rng = StdRng::seed_from_u64(10);
    let a = Tensor::randn(&[80_000], &mut rng);
    let b = Tensor::randn(&[80_000], &mut rng);
    let elems = || (a.map(|v| (v * 1.7).tanh()), a.mul(&b));
    let reference = with_threads(1, elems);
    for threads in [2, 4, 8] {
        let got = with_assumed_cores(8, || with_threads(threads, elems));
        assert_bitwise_eq(&got.0, &reference.0, "map");
        assert_bitwise_eq(&got.1, &reference.1, "zip");
    }
}

#[test]
fn large_softmax_above_threshold_is_backend_and_thread_invariant() {
    let mut rng = StdRng::seed_from_u64(11);
    let x = Tensor::randn(&[512, 64], &mut rng).mul_scalar(6.0);
    let reference = oracle(|| x.softmax_last_axis());
    assert_all_backends_bitwise(&reference, "softmax", || x.softmax_last_axis());
}
