//! Pilot processing: common phase correction and feed-forward timing.
//!
//! "The pilot tones are extracted and de-scrambled. The average value
//! of the pilot tones is calculated and phase correction is performed
//! on the entire OFDM symbol by multiplying each subcarrier by the
//! pilot tone average. ... Each pilot tone is divided by its subcarrier
//! number and then the average is calculated to determine the
//! feed-forward time synchronization value, Tau. ... a running adder is
//! used [so that] as the time correction is performed on each
//! incrementing subcarrier, the Tau value is also incremented using a
//! feedback adder." (§IV.B)
//!
//! # Fast correction kernels
//!
//! Both corrections run [`LANES`] carriers at a time through the lane
//! kernels of `mimo_cordic` ([`Cordic::rotate_lanes`] and
//! [`RotationPlan::rotate_lanes`](mimo_cordic::RotationPlan::rotate_lanes)):
//!
//! * **Shared-angle plan.** The common phase correction rotates every
//!   carrier of a symbol by the same `-φ`. The angle wrap, quadrant
//!   choice and all 18 micro-rotation directions depend only on that
//!   angle, so [`PilotPhaseCorrector::correct_in_place`] computes one
//!   [`RotationPlan`](mimo_cordic::RotationPlan) per symbol and
//!   applies it to all carriers. Only the `x`/`y` adds run per carrier.
//! * **Lane batches.** The timing correction's angle `l·τ` differs per
//!   carrier, so [`TimingCorrector::correct_in_place`] runs the full
//!   CORDIC (angle path included) on batches of carriers, one lane
//!   each.
//!
//! **Range guard.** The lane kernels work on `i32` words when every
//! Q2.16 input word of the batch is below `2^17` in magnitude. That
//! holds for any carrier on the 16-bit bus, because widening Q1.15 to
//! Q2.16 gives `|raw| <= 2^16`. The CORDIC growth bound keeps the
//! lanes below `2^20`. A batch holding a wider carrier takes a
//! `#[cold]` per-carrier fallback to [`Cordic::rotate`].
//!
//! **Bit-identity.** The corrected carriers equal the per-carrier
//! `Cordic::rotate` form bit for bit, for three reasons:
//!
//! * A plan replays exactly the adds that `rotate` would choose for
//!   its angle.
//! * The sign-mask micro-rotation is the same adder as the branching
//!   one.
//! * Within the guard no word overflows.
//!
//! Padding lanes of a short final batch hold zero carriers and are
//! never written back. `crates/detect/tests/proptests.rs` checks the
//! kernels against the per-carrier form on arbitrary carriers,
//! saturated and out-of-range ones included.

use mimo_cordic::{Cordic, LANES};
use mimo_fixed::{CFx, CQ15, Cf64, Q16, SAMPLE_BITS};

/// Common (symbol-wide) phase correction from the de-scrambled pilot
/// average.
#[derive(Debug, Clone)]
pub struct PilotPhaseCorrector {
    cordic: Cordic,
}

impl Default for PilotPhaseCorrector {
    fn default() -> Self {
        Self::new()
    }
}

impl PilotPhaseCorrector {
    /// Creates the corrector (one CORDIC for the angle extraction, one
    /// rotation per subcarrier).
    pub fn new() -> Self {
        Self {
            cordic: Cordic::new(),
        }
    }

    /// Estimates the common phase from the pilots: each received pilot
    /// is de-scrambled (multiplied by its expected ±1 sign) and the
    /// complex average is vectored to an angle.
    ///
    /// Returns the angle in radians (Q2.16). Zero pilots yield zero.
    pub fn estimate_phase(&self, pilots: &[CQ15], expected_signs: &[i8]) -> Q16 {
        debug_assert_eq!(pilots.len(), expected_signs.len());
        let mut acc = CFx::<15>::ZERO;
        for (&p, &sign) in pilots.iter().zip(expected_signs) {
            acc += if sign >= 0 { p } else { -p };
        }
        if acc.is_zero() {
            return Q16::ZERO;
        }
        let wide: CFx<16> = acc.convert();
        self.cordic.vector(wide.re, wide.im).angle
    }

    /// Rotates every carrier of a symbol by `-phase` (the correction).
    pub fn correct(&self, carriers: &[CQ15], phase: Q16) -> Vec<CQ15> {
        let mut out = carriers.to_vec();
        self.correct_in_place(&mut out, phase);
        out
    }

    /// In-place [`PilotPhaseCorrector::correct`]: the hot path rotates
    /// the equalized symbol buffer it already owns, allocating nothing.
    // phylint: hot
    pub fn correct_in_place(&self, carriers: &mut [CQ15], phase: Q16) {
        let plan = self.cordic.plan(-phase);
        for batch in carriers.chunks_mut(LANES) {
            let (mut x, mut y) = widen_lanes(batch);
            plan.rotate_lanes(&mut x, &mut y);
            narrow_lanes(&x, &y, batch);
        }
    }
    // phylint: end-hot
}

/// Loads up to [`LANES`] carriers onto Q2.16 lanes (zero-padded).
#[inline(always)]
fn widen_lanes(batch: &[CQ15]) -> ([Q16; LANES], [Q16; LANES]) {
    let mut x = [Q16::ZERO; LANES];
    let mut y = [Q16::ZERO; LANES];
    for ((xk, yk), c) in x.iter_mut().zip(y.iter_mut()).zip(batch) {
        let wide: CFx<16> = c.convert();
        (*xk, *yk) = (wide.re, wide.im);
    }
    (x, y)
}

/// Rounds rotated lanes back onto the 16-bit Q1.15 bus.
#[inline(always)]
fn narrow_lanes(x: &[Q16; LANES], y: &[Q16; LANES], batch: &mut [CQ15]) {
    for ((c, &xk), &yk) in batch.iter_mut().zip(x).zip(y) {
        let narrow: CFx<15> = CFx::new(xk, yk).convert();
        *c = narrow.saturate_bits(SAMPLE_BITS);
    }
}

/// Feed-forward timing estimation and correction.
///
/// A residual timing offset of `δ` samples appears in the frequency
/// domain as a per-carrier phase ramp `e^{-j2πlδ/N}`. Tau is the ramp
/// slope (radians per carrier index), estimated from the
/// (phase-corrected) pilots; the correction de-rotates carrier `l` by
/// `l·τ` using a running adder for the angle.
#[derive(Debug, Clone)]
pub struct TimingCorrector {
    cordic: Cordic,
    /// Replicate the paper's small-angle add/sub correction instead of
    /// an exact rotation.
    small_angle: bool,
}

impl Default for TimingCorrector {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingCorrector {
    /// Creates a corrector using exact CORDIC de-rotation.
    pub fn new() -> Self {
        Self {
            cordic: Cordic::new(),
            small_angle: false,
        }
    }

    /// Creates a corrector using the paper's small-angle approximation:
    /// "time corrected by adding the relevant Tau value to the real
    /// component and by subtracting it from the imaginary component".
    pub fn small_angle() -> Self {
        Self {
            cordic: Cordic::new(),
            small_angle: true,
        }
    }

    /// Estimates tau (radians per carrier) from de-scrambled pilots:
    /// "each pilot tone is divided by its subcarrier number and then
    /// the average is calculated".
    ///
    /// `indices` are the pilots' logical subcarrier numbers (±7, ±21
    /// for 64-point).
    pub fn estimate_tau(&self, pilots: &[CQ15], expected_signs: &[i8], indices: &[i32]) -> f64 {
        debug_assert_eq!(pilots.len(), expected_signs.len());
        debug_assert_eq!(pilots.len(), indices.len());
        let mut acc = 0.0;
        let mut count = 0usize;
        for ((&p, &sign), &l) in pilots.iter().zip(expected_signs).zip(indices) {
            if l == 0 {
                continue;
            }
            let v = Cf64::from_fixed(if sign >= 0 { p } else { -p });
            if v.norm() == 0.0 {
                continue;
            }
            acc += v.arg() / l as f64;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            acc / count as f64
        }
    }

    /// Corrects a symbol's occupied carriers: carrier with logical
    /// index `l` is de-rotated by `l·tau`. The per-carrier angle is
    /// produced by a running adder exactly as in the hardware.
    pub fn correct(&self, carriers: &[CQ15], indices: &[i32], tau: f64) -> Vec<CQ15> {
        let mut out = carriers.to_vec();
        self.correct_in_place(&mut out, indices, tau);
        out
    }

    /// In-place [`TimingCorrector::correct`] for the allocation-free
    /// hot path.
    pub fn correct_in_place(&self, carriers: &mut [CQ15], indices: &[i32], tau: f64) {
        debug_assert_eq!(carriers.len(), indices.len());
        let tau_q = Q16::from_f64(tau);
        if self.small_angle {
            for (c, &l) in carriers.iter_mut().zip(indices) {
                let angle = running_angle(tau_q, l);
                let wide: CFx<16> = c.convert();
                // Paper's approximation: re += angle·im-ish terms
                // reduce to adding tau_l to I and subtracting from
                // Q scaled by the component magnitudes.
                let re = wide.re + wide.im.mul(angle);
                let im = wide.im - wide.re.mul(angle);
                let narrow: CFx<15> = CFx::new(re, im).convert();
                *c = narrow.saturate_bits(SAMPLE_BITS);
            }
            return;
        }
        let n = carriers.len().min(indices.len());
        // phylint: hot
        for (batch, ls) in carriers[..n]
            .chunks_mut(LANES)
            .zip(indices[..n].chunks(LANES))
        {
            let mut angle = [Q16::ZERO; LANES];
            for (a, &l) in angle.iter_mut().zip(ls) {
                *a = -running_angle(tau_q, l);
            }
            let (mut x, mut y) = widen_lanes(batch);
            self.cordic.rotate_lanes(&mut x, &mut y, &angle);
            narrow_lanes(&x, &y, batch);
        }
        // phylint: end-hot
    }
}

/// Running adder: the angle `l · tau` accumulated in Q2.16.
#[inline(always)]
fn running_angle(tau: Q16, l: i32) -> Q16 {
    Q16::from_raw(tau.raw().saturating_mul(i64::from(l)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rotate_all(carriers: &[CQ15], phase: f64) -> Vec<CQ15> {
        carriers
            .iter()
            .map(|&c| {
                (Cf64::from_fixed(c) * Cf64::from_polar(1.0, phase))
                    .to_fixed::<15>()
                    .saturate_bits(16)
            })
            .collect()
    }

    #[test]
    fn common_phase_estimated_and_removed() {
        let corrector = PilotPhaseCorrector::new();
        let clean: Vec<CQ15> = (0..8).map(|i| CQ15::from_f64(0.2, 0.05 * i as f64)).collect();
        let pilots_clean = [
            CQ15::from_f64(0.25, 0.0),
            CQ15::from_f64(0.25, 0.0),
            CQ15::from_f64(0.25, 0.0),
            CQ15::from_f64(-0.25, 0.0),
        ];
        let signs = [1i8, 1, 1, -1];
        for phase in [-1.0f64, -0.3, 0.2, 0.9] {
            let rx = rotate_all(&clean, phase);
            let rx_pilots = rotate_all(&pilots_clean, phase);
            let est = corrector.estimate_phase(&rx_pilots, &signs);
            assert!(
                (est.to_f64() - phase).abs() < 5e-3,
                "phase {phase}: est {}",
                est.to_f64()
            );
            let fixed = corrector.correct(&rx, est);
            for (f, c) in fixed.iter().zip(&clean) {
                let err = (Cf64::from_fixed(*f) - Cf64::from_fixed(*c)).norm();
                assert!(err < 5e-3, "phase {phase}: err {err}");
            }
        }
    }

    #[test]
    fn zero_pilots_give_zero_phase() {
        let corrector = PilotPhaseCorrector::new();
        assert_eq!(
            corrector.estimate_phase(&[CQ15::ZERO; 4], &[1, 1, 1, -1]),
            Q16::ZERO
        );
    }

    #[test]
    fn tau_estimated_from_phase_ramp() {
        let corrector = TimingCorrector::new();
        let indices = [-21i32, -7, 7, 21];
        let signs = [1i8, 1, 1, -1];
        // A timing offset produces phase l·slope on carrier l.
        for slope in [-0.02f64, -0.005, 0.01, 0.03] {
            let pilots: Vec<CQ15> = indices
                .iter()
                .zip(&signs)
                .map(|(&l, &s)| {
                    (Cf64::from_polar(0.25, slope * l as f64) * Cf64::new(f64::from(s), 0.0))
                        .to_fixed::<15>()
                })
                .collect();
            let tau = corrector.estimate_tau(&pilots, &signs, &indices);
            assert!((tau - slope).abs() < 1e-3, "slope {slope}: tau {tau}");
        }
    }

    #[test]
    fn ramp_correction_flattens_symbol() {
        let corrector = TimingCorrector::new();
        let indices: Vec<i32> = (-26..=26).filter(|&l| l != 0).collect();
        let slope = 0.015;
        let rx: Vec<CQ15> = indices
            .iter()
            .map(|&l| (Cf64::from_polar(0.3, slope * l as f64)).to_fixed::<15>())
            .collect();
        let out = corrector.correct(&rx, &indices, slope);
        for (o, &l) in out.iter().zip(&indices) {
            let v = Cf64::from_fixed(*o);
            assert!(
                v.arg().abs() < 6e-3,
                "carrier {l}: residual phase {}",
                v.arg()
            );
            assert!((v.norm() - 0.3).abs() < 5e-3);
        }
    }

    #[test]
    fn small_angle_model_close_to_exact_for_small_tau() {
        let exact = TimingCorrector::new();
        let approx = TimingCorrector::small_angle();
        let indices: Vec<i32> = (-26..=26).filter(|&l| l != 0).collect();
        let slope = 0.002; // small residual, the regime the paper targets
        let rx: Vec<CQ15> = indices
            .iter()
            .map(|&l| Cf64::from_polar(0.3, slope * l as f64).to_fixed::<15>())
            .collect();
        let a = exact.correct(&rx, &indices, slope);
        let b = approx.correct(&rx, &indices, slope);
        for (x, y) in a.iter().zip(&b) {
            let err = (Cf64::from_fixed(*x) - Cf64::from_fixed(*y)).norm();
            assert!(err < 5e-3, "small-angle deviation {err}");
        }
    }

    #[test]
    fn degenerate_tau_inputs() {
        let corrector = TimingCorrector::new();
        assert_eq!(corrector.estimate_tau(&[], &[], &[]), 0.0);
        // Zero pilots and zero indices are skipped, not divided by.
        let tau = corrector.estimate_tau(
            &[CQ15::ZERO, CQ15::from_f64(0.1, 0.0)],
            &[1, 1],
            &[0, 7],
        );
        assert!(tau.abs() < 1e-9);
    }
}
