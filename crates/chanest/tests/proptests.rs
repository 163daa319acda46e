//! Property-based tests for the QRD pipeline invariants.

use mimo_chanest::{
    invert_upper_triangular, qr_givens_f64, ChanestError, ChannelEstimator, CordicQrd, FxMat4, Mat4,
};
use mimo_cordic::Cordic;
use mimo_fixed::{Cf64, CQ15, Q15};
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = Mat4> {
    proptest::collection::vec((-0.6f64..0.6, -0.6f64..0.6), 16).prop_map(|v| {
        Mat4::from_fn(|r, c| {
            let (re, im) = v[r * 4 + c];
            Cf64::new(re, im)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Float reference: Q·R reconstructs H, Q unitary, R triangular.
    #[test]
    fn float_qr_invariants(h in arb_matrix()) {
        let (q, r) = qr_givens_f64(&h);
        prop_assert!((q * r).max_distance(&h) < 1e-10);
        prop_assert!((q.hermitian() * q).max_distance(&Mat4::identity()) < 1e-10);
        for row in 0..4 {
            for col in 0..row {
                prop_assert!(r[(row, col)].norm() < 1e-10);
            }
            prop_assert!(r[(row, row)].im.abs() < 1e-10);
            prop_assert!(r[(row, row)].re >= -1e-10);
        }
    }

    /// Fixed-point systolic array: Qᴴ·H ≈ R and R matches the float
    /// reference (R is unique given a real non-negative diagonal).
    #[test]
    fn fixed_qrd_invariants(h in arb_matrix()) {
        let qrd = CordicQrd::new();
        let hf = h.to_fixed();
        let d = qrd.decompose(&hf);
        let qh_h = d.q_h.mul_mat(&hf).to_f64();
        prop_assert!(qh_h.max_distance(&d.r.to_f64()) < 0.01);
        let (_, r_ref) = qr_givens_f64(&h);
        prop_assert!(d.r.to_f64().max_distance(&r_ref) < 0.01);
    }

    /// Whenever the R-inverse block accepts a matrix, the inversion is
    /// numerically sound: R·R⁻¹ ≈ I and H·H⁻¹ ≈ I.
    #[test]
    fn accepted_inversions_are_sound(h in arb_matrix()) {
        let qrd = CordicQrd::new();
        let hf = h.to_fixed();
        let d = qrd.decompose(&hf);
        if let Ok(r_inv) = invert_upper_triangular(&d.r) {
            let rr = d.r.mul_mat(&r_inv).to_f64();
            prop_assert!(rr.max_distance(&Mat4::identity()) < 0.05,
                "R R^-1 error {}", rr.max_distance(&Mat4::identity()));
            let h_inv = r_inv.mul_mat(&d.q_h);
            let hh = h_inv.mul_mat(&hf).to_f64();
            // ZF error grows with conditioning; bound loosely but
            // meaningfully (divider floor is 1/512).
            prop_assert!(hh.max_distance(&Mat4::identity()) < 0.6,
                "H^-1 H error {}", hh.max_distance(&Mat4::identity()));
        }
    }

    /// The decomposition is deterministic (pure function of H).
    #[test]
    fn decompose_is_deterministic(h in arb_matrix()) {
        let qrd = CordicQrd::new();
        let hf = h.to_fixed();
        prop_assert_eq!(qrd.decompose(&hf), qrd.decompose(&hf));
    }

    /// Scaling H by a power of two scales R accordingly (the array has
    /// no hidden normalization).
    #[test]
    fn qrd_is_scale_equivariant(h in arb_matrix()) {
        let qrd = CordicQrd::new();
        let half = Mat4::from_fn(|r, c| h[(r, c)].scale(0.5));
        let d1 = qrd.decompose(&h.to_fixed());
        let d2 = qrd.decompose(&half.to_fixed());
        let scaled_r = Mat4::from_fn(|r, c| d1.r.to_f64()[(r, c)].scale(0.5));
        prop_assert!(d2.r.to_f64().max_distance(&scaled_r) < 0.01);
    }
}

/// Random LTS blocks for [`ChannelEstimator::estimate`]: `2·fft_size`
/// samples per (RX antenna, TX slot) from an xorshift stream, each
/// word a 16-bit sample shifted right by `shift`.
fn random_lts_blocks(seed: u64, fft_size: usize, shift: u32) -> Vec<Vec<Vec<CQ15>>> {
    let mut state = seed | 1;
    let mut word = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Q15::from_raw(i64::from((state >> 48) as i16 >> shift))
    };
    (0..4)
        .map(|_| {
            (0..4)
                .map(|_| {
                    (0..2 * fft_size)
                        .map(|_| CQ15::new(word(), word()))
                        .collect()
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `invert_all` on estimates built from random LTS blocks equals
    /// the per-carrier pipeline (decompose → R⁻¹ → R⁻¹·Qᴴ), results
    /// and errors alike, at every FFT size the estimator supports.
    #[test]
    fn invert_all_matches_the_per_carrier_pipeline(
        seed in any::<u64>(),
        shift in 0u32..6,
        size in 0usize..4,
        iterations in 0usize..3,
    ) {
        let fft_size = [64, 128, 256, 512][size];
        let estimate = ChannelEstimator::new(fft_size)
            .expect("supported FFT size")
            .estimate(&random_lts_blocks(seed, fft_size, shift))
            .expect("well-formed LTS blocks");
        let qrd = CordicQrd::with_cordic(Cordic::with_iterations([18, 12, 40][iterations]));
        let each: Result<Vec<FxMat4>, ChanestError> = estimate
            .h_matrices()
            .iter()
            .map(|h| {
                let d = qrd.decompose(h);
                Ok(invert_upper_triangular(&d.r)?.mul_mat(&d.q_h))
            })
            .collect();
        prop_assert_eq!(estimate.invert_all(&qrd), each);
    }
}
