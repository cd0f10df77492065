//! Equivalence tests for the blocked matrix-product kernels against the
//! naive reference (`Matrix::matmul_naive` and explicit transposes), over
//! randomised shapes that straddle every register-tile remainder case.

use fedft_tensor::rng::rng_for_indexed;
use fedft_tensor::{init, Matrix};

const TOLERANCE: f32 = 1e-5;

/// `N(0, 0.1)` inputs: products are ~1e-2, so the one-rounding-vs-two
/// difference between the FMA kernel and the naive reference stays orders of
/// magnitude below [`TOLERANCE`] even after the longest reduction here.
fn random(rows: usize, cols: usize, case: u64, stream: &str) -> Matrix {
    let mut r = rng_for_indexed(0xB10C, stream, case);
    init::normal(&mut r, rows, cols, 0.0, 0.1)
}

/// Shapes covering: unit dims, sizes below/at/above the 4×4 register tile,
/// non-multiples of the tile in every dimension, long-thin and short-wide
/// panels, and a size large enough to cross the parallel-dispatch threshold.
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 7, 1),
        (2, 2, 2),
        (3, 4, 5),
        (4, 4, 4),
        (5, 5, 5),
        (6, 9, 7),
        (8, 8, 8),
        (13, 11, 17),
        (16, 16, 16),
        (21, 33, 19),
        (1, 64, 128),
        (128, 64, 1),
        (64, 3, 64),
        (96, 96, 96),
        (192, 192, 192), // crosses the parallel threshold on multi-core hosts
    ]
}

#[test]
fn blocked_matmul_matches_naive_reference() {
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        let a = random(m, k, case as u64, "nn-a");
        let b = random(k, n, case as u64, "nn-b");
        let blocked = a.matmul(&b).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        assert!(
            blocked.approx_eq(&naive, TOLERANCE),
            "matmul mismatch at shape ({m},{k},{n})"
        );
    }
}

#[test]
fn blocked_matmul_tn_matches_explicit_transpose() {
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        // `a` is k×m so a^T · b is m×n.
        let a = random(k, m, case as u64, "tn-a");
        let b = random(k, n, case as u64, "tn-b");
        let fused = a.matmul_tn(&b).unwrap();
        let explicit = a.transpose().matmul_naive(&b).unwrap();
        assert_eq!(fused.shape(), (m, n));
        assert!(
            fused.approx_eq(&explicit, TOLERANCE),
            "matmul_tn mismatch at shape ({m},{k},{n})"
        );
    }
}

#[test]
fn blocked_matmul_nt_matches_explicit_transpose() {
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        // `b` is n×k so a · b^T is m×n.
        let a = random(m, k, case as u64, "nt-a");
        let b = random(n, k, case as u64, "nt-b");
        let fused = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul_naive(&b.transpose()).unwrap();
        assert_eq!(fused.shape(), (m, n));
        assert!(
            fused.approx_eq(&explicit, TOLERANCE),
            "matmul_nt mismatch at shape ({m},{k},{n})"
        );
    }
}

#[test]
fn repeated_products_are_bit_identical() {
    // The kernel must be deterministic run-to-run (and thread-count cannot
    // change accumulation order): same inputs, bit-identical outputs.
    let a = random(192, 192, 99, "det-a");
    let b = random(192, 192, 99, "det-b");
    let first = a.matmul(&b).unwrap();
    for _ in 0..3 {
        assert_eq!(a.matmul(&b).unwrap(), first);
    }
}

/// One multiply-accumulate exactly as the kernels perform it: fused on FMA
/// targets, two roundings otherwise.
fn mac(acc: f32, s: f32, b: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        s.mul_add(b, acc)
    } else {
        acc + s * b
    }
}

/// Scalar oracle: every element is `mac` over ascending `k` from `0.0`, the
/// chain every kernel path must reproduce bit for bit.
fn mac_oracle(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = mac(acc, a.get(i, kk), b.get(kk, j));
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn narrow_and_edge_products_are_bit_exact_against_the_mac_oracle() {
    // n below one 16-wide register block and n straddling it, with row
    // counts that leave remainder rows (m % 8 != 0) and full slabs.
    for n in (1..=15).chain(17..=31) {
        for (case, &(m, k)) in [(1, 7), (5, 64), (12, 10), (19, 33), (32, 64)]
            .iter()
            .enumerate()
        {
            let id = (n * 10 + case) as u64;
            let a = random(m, k, id, "edge-a");
            let b = random(k, n, id, "edge-b");
            let expected = bits(&mac_oracle(&a, &b));
            assert_eq!(
                bits(&a.matmul(&b).unwrap()),
                expected,
                "matmul ({m},{k},{n})"
            );
            let at = a.transpose();
            assert_eq!(
                bits(&at.matmul_tn(&b).unwrap()),
                expected,
                "matmul_tn ({m},{k},{n})"
            );
            let bt = b.transpose();
            assert_eq!(
                bits(&a.matmul_nt(&bt).unwrap()),
                expected,
                "matmul_nt ({m},{k},{n})"
            );
        }
    }
}
