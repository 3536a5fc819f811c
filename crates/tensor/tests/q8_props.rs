//! Property-based tests for q8 block quantization: round-trip error
//! bounds over random tensors, determinism, and the parallel-vs-oracle
//! bitwise contract of the quantized matmul.

use aero_tensor::backend::{with_backend, BackendKind};
use aero_tensor::{parallel, Q8Tensor, Tensor, Q8_BLOCK};
use proptest::prelude::*;

fn tensor_values() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1000.0f32..1000.0, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per block, dequantization error is at most half a quantization
    /// step: |x - scale * q| <= scale / 2 = block_max_abs / 254.
    #[test]
    fn round_trip_error_bounded_per_block(data in tensor_values()) {
        let n = data.len();
        let t = Tensor::from_vec(data.clone(), &[n]);
        let q = Q8Tensor::quantize(&t);
        let deq = q.dequantize();
        for (b, chunk) in t.as_slice().chunks(Q8_BLOCK).enumerate() {
            let max_abs = chunk.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let bound = max_abs / 254.0 + max_abs * 1e-6;
            for (i, (&x, &y)) in
                chunk.iter().zip(&deq.as_slice()[b * Q8_BLOCK..]).enumerate()
            {
                let err = (x - y).abs();
                prop_assert!(
                    err <= bound,
                    "block {b} elem {i}: |{x} - {y}| = {err} > {bound}"
                );
            }
        }
    }

    /// Quantizing twice (and re-quantizing the dequantized tensor's own
    /// dequantization) is stable — the fixed point is reached after one
    /// round trip.
    #[test]
    fn quantize_is_deterministic_and_idempotent_after_one_trip(data in tensor_values()) {
        let n = data.len();
        let t = Tensor::from_vec(data.clone(), &[n]);
        let q1 = Q8Tensor::quantize(&t);
        let q2 = Q8Tensor::quantize(&t);
        prop_assert_eq!(&q1, &q2);
        let deq = q1.dequantize();
        let q3 = Q8Tensor::quantize(&deq);
        prop_assert_eq!(q3.dequantize(), deq);
    }

    /// Blocks never cross row boundaries: quantizing a [rows, cols]
    /// tensor equals quantizing each row independently.
    #[test]
    fn rows_quantize_independently(
        rows in 1usize..5,
        cols in 1usize..70,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::randn(&[rows, cols], &mut rng).mul_scalar(50.0);
        let whole = Q8Tensor::quantize(&t).dequantize();
        for r in 0..rows {
            let row =
                Tensor::from_vec(t.as_slice()[r * cols..(r + 1) * cols].to_vec(), &[1, cols]);
            let row_deq = Q8Tensor::quantize(&row).dequantize();
            prop_assert_eq!(
                &whole.as_slice()[r * cols..(r + 1) * cols],
                row_deq.as_slice(),
                "row {} dequantized differently in the full tensor", r
            );
        }
    }

    /// The q8 matmul is bit-identical to the oracle (the `Reference`
    /// backend at one thread) at any thread count, the same contract the
    /// dense kernels uphold.
    #[test]
    fn q8_matmul_parallel_matches_serial_bitwise(
        m in 1usize..6,
        k in 1usize..80,
        n in 1usize..6,
        threads in 1usize..5,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Q8Tensor::quantize(&Tensor::randn(&[m, k], &mut rng));
        let b = Tensor::randn(&[k, n], &mut rng);
        let oracle = parallel::with_threads(1, || {
            with_backend(BackendKind::Reference, || a.matmul(&b))
        });
        let par = parallel::with_threads(threads, || a.matmul(&b));
        let sb: Vec<u32> = oracle.as_slice().iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u32> = par.as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sb, pb);
    }

    /// Stored parts survive a round trip through from_parts — the path
    /// the artifact loader takes.
    #[test]
    fn parts_round_trip(data in tensor_values()) {
        let n = data.len();
        let q = Q8Tensor::quantize(&Tensor::from_vec(data.clone(), &[n]));
        let back = Q8Tensor::from_parts(
            q.shape(),
            q.scales().to_vec(),
            q.quants().to_vec(),
        ).unwrap();
        prop_assert_eq!(back, q);
    }
}
