//! Differential tests: the lane kernels of ZF detection and pilot
//! correction against the per-carrier forms they replaced.
//!
//! The oracles call `Cordic::rotate` once per carrier, as the
//! receiver did before the lane kernels. `Cordic::rotate` is itself
//! pinned to the original branching engine by
//! `crates/cordic/tests/proptests.rs`.

use mimo_chanest::FxMat4;
use mimo_cordic::Cordic;
use mimo_detect::{PilotPhaseCorrector, TimingCorrector, ZfDetector};
use mimo_fixed::{CFx, Fx, CQ15, CQ16, Q16, SAMPLE_BITS};
use proptest::prelude::*;

/// Most carriers one case uses.
const MAX_CARRIERS: usize = 70;

/// `ZfDetector::detect_stream_into` as a per-carrier loop of generic
/// saturating `CFx` operators.
fn reference_detect_stream(h_inv: &[FxMat4], rx: &[Vec<CQ15>], stream: usize) -> Vec<CQ15> {
    h_inv
        .iter()
        .enumerate()
        .map(|(s, inv)| {
            let mut acc: CQ16 = CFx::ZERO;
            for (j, antenna) in rx.iter().enumerate() {
                let r: CQ16 = antenna[s].convert();
                acc += inv[(stream, j)] * r;
            }
            let narrow: CFx<15> = acc.convert();
            narrow.saturate_bits(SAMPLE_BITS)
        })
        .collect()
}

/// One carrier rotated by `angle` through the Q2.16 CORDIC and back
/// onto the 16-bit bus.
fn reference_rotate(cordic: &Cordic, c: CQ15, angle: Q16) -> CQ15 {
    let wide: CFx<16> = c.convert();
    let rotated = cordic.rotate(wide.re, wide.im, angle);
    let narrow: CFx<15> = CFx::new(rotated.x, rotated.y).convert();
    narrow.saturate_bits(SAMPLE_BITS)
}

/// `PilotPhaseCorrector::correct_in_place` as one rotation per carrier.
fn reference_phase(carriers: &[CQ15], phase: Q16) -> Vec<CQ15> {
    let cordic = Cordic::new();
    carriers
        .iter()
        .map(|&c| reference_rotate(&cordic, c, -phase))
        .collect()
}

/// `TimingCorrector::correct_in_place` (exact mode) as one rotation
/// per carrier.
fn reference_timing(carriers: &[CQ15], indices: &[i32], tau: f64) -> Vec<CQ15> {
    let cordic = Cordic::new();
    let tau_q = Q16::from_f64(tau);
    carriers
        .iter()
        .zip(indices)
        .map(|(&c, &l)| {
            let angle = Q16::from_raw(tau_q.raw().saturating_mul(i64::from(l)));
            reference_rotate(&cordic, c, -angle)
        })
        .collect()
}

fn cq(re: i64, im: i64) -> CQ15 {
    CQ15::new(Fx::from_raw(re), Fx::from_raw(im))
}

/// A sample word: mostly on the 16-bit bus (saturation points
/// included), sometimes wide enough to force the fallback, up to the
/// `i64` extremes.
fn sample_word() -> impl Strategy<Value = i64> {
    (0u8..16, -32768i64..32768, any::<i64>(), 0u32..64).prop_map(|(kind, v, w, shift)| match kind {
        0 => -32768,
        1 => 32767,
        2 => 32768,
        3 => -65536,
        4 => w >> shift,
        _ => v,
    })
}

/// An `H⁻¹` word: mostly a plausible Q2.16 inverse entry, sometimes so
/// large that its products with a sample overflow `i64` and saturate.
fn h_word() -> impl Strategy<Value = i64> {
    (0u8..24, -(1i64 << 22)..(1i64 << 22), any::<i64>(), 0u32..24).prop_map(
        |(kind, v, w, shift)| match kind {
            0 => i64::MAX >> 17,
            1 => i64::MIN >> 16,
            2 => (i64::MAX >> 16) + 1,
            3 => w >> shift,
            _ => v,
        },
    )
}

fn samples() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((sample_word(), sample_word()), MAX_CARRIERS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every output stream equals the per-carrier CFx loop, on any
    /// channel inverse and samples, and `detect` equals the four
    /// streams.
    #[test]
    fn zf_lanes_match_reference(
        n in 1usize..MAX_CARRIERS,
        h in proptest::collection::vec((h_word(), h_word()), MAX_CARRIERS * 16),
        rx in proptest::collection::vec(samples(), 4),
    ) {
        let h_inv: Vec<FxMat4> = (0..n)
            .map(|s| FxMat4::from_fn(|r, c| {
                let (re, im) = h[s * 16 + r * 4 + c];
                CFx::new(Fx::from_raw(re), Fx::from_raw(im))
            }))
            .collect();
        let rx: Vec<Vec<CQ15>> = rx.iter().map(|a| a[..n].iter().map(|&(re, im)| cq(re, im)).collect()).collect();
        let lanes: [&[CQ15]; 4] = std::array::from_fn(|a| rx[a].as_slice());
        let detector = ZfDetector::new();
        let all = detector.detect(&h_inv, &rx).unwrap();
        let mut out = vec![CQ15::ZERO; n];
        for (stream, batch) in all.iter().enumerate() {
            detector.detect_stream_into(&h_inv, &lanes, stream, &mut out).unwrap();
            let want = reference_detect_stream(&h_inv, &rx, stream);
            prop_assert_eq!(&out, &want, "stream {}", stream);
            prop_assert_eq!(batch, &want, "detect, stream {}", stream);
        }
    }

    /// The shared-angle phase correction equals one CORDIC rotation per
    /// carrier, for any angle (wrapped ones included) and any carrier
    /// count, lane-batch tails included.
    #[test]
    fn phase_plan_matches_per_carrier_rotation(
        n in 0usize..MAX_CARRIERS,
        words in samples(),
        phase in (0u8..4, -400_000i64..400_000, any::<i64>()).prop_map(|(kind, v, w)| match kind {
            0 => w,
            _ => v,
        }),
    ) {
        let carriers: Vec<CQ15> = words[..n].iter().map(|&(re, im)| cq(re, im)).collect();
        let mut got = carriers.clone();
        PilotPhaseCorrector::new().correct_in_place(&mut got, Q16::from_raw(phase));
        prop_assert_eq!(got, reference_phase(&carriers, Q16::from_raw(phase)));
    }

    /// The lane-batched timing correction equals one CORDIC rotation
    /// per carrier, for any slope, including ones whose `l·τ` wraps
    /// past ±π or saturates.
    #[test]
    fn timing_lanes_match_per_carrier_rotation(
        n in 0usize..MAX_CARRIERS,
        words in samples(),
        indices in proptest::collection::vec(-2048i32..2048, MAX_CARRIERS),
        tau in (0u8..4, -0.05f64..0.05, -1e6f64..1e6).prop_map(|(kind, small, large)| match kind {
            0 => large,
            _ => small,
        }),
    ) {
        let carriers: Vec<CQ15> = words[..n].iter().map(|&(re, im)| cq(re, im)).collect();
        let mut got = carriers.clone();
        TimingCorrector::new().correct_in_place(&mut got, &indices[..n], tau);
        prop_assert_eq!(got, reference_timing(&carriers, &indices[..n], tau));
    }
}
