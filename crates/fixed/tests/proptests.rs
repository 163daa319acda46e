//! Property-based tests for the fixed-point substrate.

use mimo_fixed::{round_shr, CFx, Fx, Q15};
use proptest::prelude::*;

/// Raw values that fit comfortably inside a 16-bit bus.
fn q15_raw() -> impl Strategy<Value = i64> {
    -(1i64 << 15)..(1i64 << 15)
}

proptest! {
    /// f64 -> Fx -> f64 roundtrip error is bounded by half an LSB.
    #[test]
    fn from_f64_roundtrip_error_bounded(x in -0.999f64..0.999) {
        let v = Q15::from_f64(x);
        let err = (v.to_f64() - x).abs();
        prop_assert!(err <= 0.5 / (1u64 << 15) as f64 + 1e-12);
    }

    /// Addition agrees with f64 addition up to quantization.
    #[test]
    fn add_matches_float(a in q15_raw(), b in q15_raw()) {
        let fa = Q15::from_raw(a);
        let fb = Q15::from_raw(b);
        let sum = fa + fb;
        prop_assert_eq!(sum.raw(), a + b);
    }

    /// Multiplication error vs f64 is bounded by one LSB.
    #[test]
    fn mul_matches_float(a in q15_raw(), b in q15_raw()) {
        let fa = Q15::from_raw(a);
        let fb = Q15::from_raw(b);
        let p = fa.mul(fb);
        let expected = fa.to_f64() * fb.to_f64();
        prop_assert!((p.to_f64() - expected).abs() <= 1.0 / (1u64 << 15) as f64);
    }

    /// Saturation always produces a value that fits the bus, and is a
    /// no-op for values that already fit.
    #[test]
    fn saturate_is_idempotent_and_fits(raw in any::<i32>(), bits in 2u32..32) {
        let v = Fx::<15>::from_raw(raw as i64);
        let s = v.saturate_bits(bits);
        prop_assert!(s.fits_bits(bits));
        prop_assert_eq!(s.saturate_bits(bits), s);
        if v.fits_bits(bits) {
            prop_assert_eq!(s, v);
        }
    }

    /// Saturation clamps monotonically: ordering is preserved.
    #[test]
    fn saturate_preserves_order(a in any::<i32>(), b in any::<i32>(), bits in 2u32..32) {
        let fa = Fx::<15>::from_raw(a as i64);
        let fb = Fx::<15>::from_raw(b as i64);
        if fa <= fb {
            prop_assert!(fa.saturate_bits(bits) <= fb.saturate_bits(bits));
        }
    }

    /// Format conversion up then down is lossless.
    #[test]
    fn convert_up_down_lossless(raw in q15_raw()) {
        let v = Q15::from_raw(raw);
        let up: Fx<20> = v.convert();
        let back: Q15 = up.convert();
        prop_assert_eq!(back, v);
    }

    /// shr_round halving error vs exact real division is <= 0.5 LSB.
    #[test]
    fn shr_round_error_bounded(raw in q15_raw(), shift in 1u32..8) {
        let v = Q15::from_raw(raw);
        let exact = raw as f64 / (1u64 << shift) as f64;
        prop_assert!((v.shr_round(shift).raw() as f64 - exact).abs() <= 0.5);
    }

    /// Complex multiply matches the float reference within 2 LSB.
    #[test]
    fn complex_mul_matches_float(
        ar in q15_raw(), ai in q15_raw(), br in q15_raw(), bi in q15_raw()
    ) {
        let a = CFx::<15>::new(Fx::from_raw(ar), Fx::from_raw(ai));
        let b = CFx::<15>::new(Fx::from_raw(br), Fx::from_raw(bi));
        let p = a * b;
        let (are, aim) = a.to_f64();
        let (bre, bim) = b.to_f64();
        let fre = are * bre - aim * bim;
        let fim = are * bim + aim * bre;
        let lsb = 1.0 / (1u64 << 15) as f64;
        prop_assert!((p.re.to_f64() - fre).abs() <= 2.0 * lsb);
        prop_assert!((p.im.to_f64() - fim).abs() <= 2.0 * lsb);
    }

    /// conj(conj(x)) == x and |conj(x)| == |x|.
    #[test]
    fn conj_involution(re in q15_raw(), im in q15_raw()) {
        let x = CFx::<15>::new(Fx::from_raw(re), Fx::from_raw(im));
        prop_assert_eq!(x.conj().conj(), x);
        prop_assert_eq!(x.conj().norm_sqr(), x.norm_sqr());
    }

    /// Division is the inverse of multiplication (within rounding).
    #[test]
    fn div_inverts_mul(a in q15_raw(), b in 64i64..(1 << 15)) {
        let fa = Fx::<16>::from_raw(a << 1);
        let fb = Fx::<16>::from_raw(b << 1);
        let q = fa.div(fb);
        let back = q.mul(fb);
        // Error grows with 1/b; bound loosely by a few LSB.
        prop_assert!((back.to_f64() - fa.to_f64()).abs() <= 4.0 / (1u64 << 16) as f64);
    }
}

/// Round-half-away-from-zero shift evaluated in `i128`, where the
/// rounding add cannot overflow: the reference for [`round_shr`].
fn round_shr_i128(value: i64, shift: u32) -> i64 {
    if shift == 0 {
        return value;
    }
    let v = i128::from(value);
    let half = 1i128 << (shift - 1);
    let r = if v >= 0 {
        (v + half) >> shift
    } else {
        -((half - v) >> shift)
    };
    r as i64
}

/// Raw values biased toward the `i64` extremes and rounding ties.
fn edge_raw() -> impl Strategy<Value = i64> {
    (0u8..4, any::<i64>(), 0i64..64, 1u32..63, any::<bool>()).prop_map(|(kind, v, k, s, neg)| {
        match kind {
            0 => v,
            1 => i64::MIN + k,
            2 => i64::MAX - k,
            // An exact rounding tie at shift `s`.
            _ => {
                let tie = (1i64 << (s - 1)) + (v << s);
                if neg {
                    tie.wrapping_neg()
                } else {
                    tie
                }
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The branchless shift equals the wide reference on the whole
    /// `i64` range, extremes included.
    #[test]
    fn round_shr_matches_wide_reference(v in edge_raw(), shift in 0u32..64) {
        prop_assert_eq!(round_shr(v, shift), round_shr_i128(v, shift));
        prop_assert_eq!(Fx::<0>::from_raw(v).shr_round(shift).raw(), round_shr_i128(v, shift));
    }

    /// `Fx::mul` equals the saturated `i128` product on any operands,
    /// whichever of its two paths runs.
    #[test]
    fn mul_matches_wide_reference(a in edge_raw(), b in edge_raw()) {
        let wide = i128::from(a) * i128::from(b);
        let half = 1i128 << 14;
        let r = if wide >= 0 { (wide + half) >> 15 } else { -((half - wide) >> 15) };
        let want = r.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
        prop_assert_eq!(Q15::from_raw(a).mul(Q15::from_raw(b)).raw(), want);
    }
}
