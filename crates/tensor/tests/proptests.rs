//! Property-based tests on the tensor substrate invariants.

use asr_tensor::activations::{apply_causal_mask, softmax_rows};
use asr_tensor::norm::layer_norm_plain;
use asr_tensor::{max_abs_diff, ops, Matrix};
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` when set (the CI deep-proptest job exports
/// 512), else the tier-1 default. The vendored proptest does not read the
/// environment itself, so the config expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// Strategy: a matrix with the given shape and entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Strategy: dimensions small enough for the naive oracle.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..24, 1usize..12)
}

proptest! {
    #![proptest_config(env_cases(64))]

    #[test]
    fn blocked_matches_naive((m, k, n) in dims(), seed in 0u64..1000) {
        let a = asr_tensor::init::uniform(m, k, -2.0, 2.0, seed);
        let b = asr_tensor::init::uniform(k, n, -2.0, 2.0, seed + 1);
        let d = max_abs_diff(&ops::matmul_blocked(&a, &b), &ops::matmul_naive(&a, &b));
        prop_assert!(d < 1e-3, "max diff {}", d);
    }

    #[test]
    fn matmul_left_distributes(seed in 0u64..1000) {
        // (A + B) * C == A*C + B*C
        let a = asr_tensor::init::uniform(5, 7, -1.0, 1.0, seed);
        let b = asr_tensor::init::uniform(5, 7, -1.0, 1.0, seed + 1);
        let c = asr_tensor::init::uniform(7, 4, -1.0, 1.0, seed + 2);
        let lhs = ops::matmul_naive(&ops::add(&a, &b), &c);
        let rhs = ops::add(&ops::matmul_naive(&a, &c), &ops::matmul_naive(&b, &c));
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-3);
    }

    #[test]
    fn transpose_reverses_product(seed in 0u64..1000) {
        // (A*B)^T == B^T * A^T
        let a = asr_tensor::init::uniform(4, 6, -1.0, 1.0, seed);
        let b = asr_tensor::init::uniform(6, 5, -1.0, 1.0, seed + 1);
        let lhs = ops::matmul_naive(&a, &b).transpose();
        let rhs = ops::matmul_naive(&b.transpose(), &a.transpose());
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-4);
    }

    #[test]
    fn softmax_rows_are_distributions(m in matrix(3, 9)) {
        let s = softmax_rows(&m);
        for i in 0..3 {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
        }
    }

    #[test]
    fn softmax_preserves_row_argmax(m in matrix(2, 6)) {
        let s = softmax_rows(&m);
        for i in 0..2 {
            let argmax_in = m.row(i).iter().enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
            let argmax_out = s.row(i).iter().enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
            // ties can resolve either way; only check when the max is strict
            let strict = m.row(i).iter().filter(|&&x| x == m.row(i)[argmax_in]).count() == 1;
            if strict {
                prop_assert_eq!(argmax_in, argmax_out);
            }
        }
    }

    #[test]
    fn layernorm_output_statistics(m in matrix(4, 32)) {
        // skip degenerate all-equal rows: variance ~ 0 makes stats meaningless
        let n = layer_norm_plain(&m);
        for i in 0..4 {
            let row_in = m.row(i);
            let spread = row_in.iter().cloned().fold(f32::MIN, f32::max)
                - row_in.iter().cloned().fold(f32::MAX, f32::min);
            if spread < 1e-3 { continue; }
            let row = n.row(i);
            let mean: f32 = row.iter().sum::<f32>() / 32.0;
            prop_assert!(mean.abs() < 1e-3, "mean {}", mean);
        }
    }

    #[test]
    fn causal_mask_keeps_lower_triangle(m in matrix(5, 5)) {
        let mut masked = m.clone();
        apply_causal_mask(&mut masked);
        for i in 0..5 {
            for j in 0..5 {
                if j <= i {
                    prop_assert_eq!(masked[(i, j)], m[(i, j)]);
                } else {
                    prop_assert_eq!(masked[(i, j)], f32::NEG_INFINITY);
                }
            }
        }
    }

    #[test]
    fn stripe_split_concat_roundtrip(seed in 0u64..1000, n in 1usize..5) {
        let cols = n * 6;
        let m = asr_tensor::init::uniform(4, cols, -1.0, 1.0, seed);
        let stripes = m.split_cols(n);
        let refs: Vec<&Matrix> = stripes.iter().collect();
        prop_assert_eq!(Matrix::hconcat(&refs), m);
    }

    #[test]
    fn padding_does_not_change_product(seed in 0u64..1000) {
        // Pad A (cols) and B (rows) with zeros: product of the padded pair,
        // cropped, equals the unpadded product. This is the MM2/MM3 scheme's
        // correctness argument.
        let a = asr_tensor::init::uniform(3, 5, -1.0, 1.0, seed);
        let b = asr_tensor::init::uniform(5, 4, -1.0, 1.0, seed + 1);
        let ap = a.pad_to(8, 16);
        let bp = b.pad_to(16, 8);
        let full = ops::matmul_naive(&ap, &bp);
        let cropped = full.submatrix(0, 0, 3, 4);
        let expect = ops::matmul_naive(&a, &b);
        prop_assert!(max_abs_diff(&cropped, &expect) < 1e-4);
    }
}
