//! Bit-accurate fixed-point radix-2 FFT/IFFT core.
//!
//! # Fast butterflies
//!
//! [`FixedFft::new`] precomputes everything that depends only on the
//! size:
//!
//! * the bit-reverse order, so the input is gathered straight into
//!   butterfly order instead of being copied and then swapped;
//! * one contiguous twiddle table per stage, so stage `len` walks its
//!   `len/2` twiddles with unit stride instead of striding through the
//!   `N/2`-entry ROM.
//!
//! **Range guard.** A block whose input words all satisfy
//! `|raw| < 2^28` runs its butterflies on plain `i64` multiplies and
//! adds with the branchless [`round_shr`]. The proof that nothing can
//! overflow: every twiddle component is at most `2^15` in magnitude,
//! so a rounded product `round(w·t / 2^15)` is at most `|w|`. One
//! radix-2 stage therefore grows the largest component by at most 3×
//! (`|u ± (w·t)| <= |u| + |w.re| + |w.im|`). Over the at most 12 stages
//! of a 4096-point transform, every product stays below
//! `3^11 · 2^28 · 2^15 < 2^61`, and every sum below `3^12 · 2^28 < 2^48`.
//! None of them reaches the `i64` limits where the generic saturating
//! [`CFx`](mimo_fixed::CFx) operators start clamping. A block with a
//! wider input word takes a `#[cold]` fallback that runs those generic
//! operators.
//!
//! **Bit-identity.** Both paths compute the same sequence of rounded
//! products and sums as the original in-place radix-2 loop:
//!
//! * the same twiddle words, in the same order;
//! * the same rounding, because [`round_shr`] equals the rounding of
//!   `Fx::mul`;
//! * no saturation inside the guard.
//!
//! `crates/fft/tests/proptests.rs` checks both paths against a copy of
//! that loop for every size from 8 to 4096, forward and inverse,
//! including saturated and out-of-range inputs.

use std::error::Error;
use std::fmt;

use mimo_fixed::{round_shr, Cf64, Fx, CQ15, SAMPLE_BITS};

/// Input words below this magnitude (raw) take the `i64` butterflies
/// (see the module docs).
const FAST_LIMIT: u64 = 1 << 28;

/// Errors produced by the fixed-point FFT core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FftError {
    /// Requested transform size is unsupported.
    UnsupportedSize(usize),
    /// Input block length does not match the configured size.
    LengthMismatch {
        /// Configured transform size.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::UnsupportedSize(n) => {
                write!(f, "unsupported FFT size {n} (power of two in 8..=4096 required)")
            }
            FftError::LengthMismatch { expected, got } => {
                write!(f, "input length {got} does not match FFT size {expected}")
            }
        }
    }
}

impl Error for FftError {}

/// Output scaling policy, modelling the right-shift normalization a
/// hardware core applies to keep results on the 16-bit bus.
///
/// The defaults reflect where each transform sits in the paper's
/// datapath: the transmit IFFT backs its output off so OFDM peaks
/// (PAPR) rarely clip the DAC bus, while the receive FFT divides by
/// `√N`-ish so a full-scale input neither clips nor starves precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftScaling {
    /// Right-shift applied to forward-transform outputs.
    pub forward_shift: u32,
    /// Right-shift applied to inverse-transform outputs.
    pub inverse_shift: u32,
}

impl FftScaling {
    /// Default policy for a transform of size `n`:
    /// forward shift `(log2 n + 2) / 2`, inverse shift `log2 n − 1`.
    pub fn for_size(n: usize) -> Self {
        let log2 = n.trailing_zeros();
        Self {
            forward_shift: (log2 + 2) / 2,
            inverse_shift: log2.saturating_sub(1),
        }
    }

    /// No scaling at all (wide outputs; only for analysis/tests).
    pub fn none() -> Self {
        Self {
            forward_shift: 0,
            inverse_shift: 0,
        }
    }
}

/// A fixed-point radix-2 decimation-in-time FFT/IFFT core.
///
/// Twiddle factors are quantized to Q1.15 exactly as a hardware twiddle
/// ROM would store them; butterflies run on the wide `i64` backing
/// (guard bits) and results are saturated onto the 16-bit bus at the
/// output register, so the model clips exactly where hardware would.
///
/// # Examples
///
/// ```
/// use mimo_fft::FixedFft;
/// use mimo_fixed::CQ15;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fft = FixedFft::new(64)?;
/// let mut impulse = vec![CQ15::ZERO; 64];
/// impulse[0] = CQ15::from_f64(0.5, 0.0);
/// let spectrum = fft.fft(&impulse)?;
/// // Flat spectrum at 0.5 >> forward_shift.
/// let expected = 0.5 / (1 << fft.scaling().forward_shift) as f64;
/// assert!((spectrum[7].re.to_f64() - expected).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FixedFft {
    size: usize,
    scaling: FftScaling,
    /// `input[bit_reverse[i]]` is butterfly input `i`.
    bit_reverse: Vec<u16>,
    /// Per-stage twiddle tables, concatenated: stage `len` (2, 4, …, N)
    /// holds `e^{-j2πi/len}` for `i in 0..len/2`, quantized to Q1.15,
    /// starting at offset `len/2 - 1`.
    stage_twiddles: Vec<CQ15>,
}

impl FixedFft {
    /// Creates a core of the given size with default scaling.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::UnsupportedSize`] unless `n` is a power of
    /// two in `8..=4096`.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Self::with_scaling(n, FftScaling::for_size(n))
    }

    /// Creates a core with an explicit scaling policy.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::UnsupportedSize`] unless `n` is a power of
    /// two in `8..=4096`.
    pub fn with_scaling(n: usize, scaling: FftScaling) -> Result<Self, FftError> {
        if !crate::is_supported_size(n) {
            return Err(FftError::UnsupportedSize(n));
        }
        // The twiddle ROM: e^{-j2πk/N} for k in 0..N/2.
        let rom: Vec<CQ15> = (0..n / 2)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                Cf64::from_polar(1.0, ang).to_fixed::<15>().saturate_bits(SAMPLE_BITS)
            })
            .collect();
        let mut stage_twiddles = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let step = n / len;
            stage_twiddles.extend((0..len / 2).map(|i| rom[i * step]));
            len <<= 1;
        }
        let bits = n.trailing_zeros();
        let bit_reverse = (0..n)
            .map(|i| (i.reverse_bits() >> (usize::BITS - bits)) as u16)
            .collect();
        Ok(Self {
            size: n,
            scaling,
            bit_reverse,
            stage_twiddles,
        })
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The configured scaling policy.
    pub fn scaling(&self) -> FftScaling {
        self.scaling
    }

    /// Forward transform: `out[k] = (Σ x[n]·e^{-j2πkn/N}) >> forward_shift`,
    /// saturated to the 16-bit bus.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `input.len() != size`.
    pub fn fft(&self, input: &[CQ15]) -> Result<Vec<CQ15>, FftError> {
        let mut out = vec![CQ15::ZERO; self.size];
        self.fft_into(input, &mut out)?;
        Ok(out)
    }

    /// Inverse transform:
    /// `out[n] = (Σ X[k]·e^{+j2πkn/N}) >> inverse_shift`, saturated to
    /// the 16-bit bus. With the default `inverse_shift = log2 N − 1`
    /// this is `2/N` times the unnormalized IDFT.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `input.len() != size`.
    pub fn ifft(&self, input: &[CQ15]) -> Result<Vec<CQ15>, FftError> {
        let mut out = vec![CQ15::ZERO; self.size];
        self.ifft_into(input, &mut out)?;
        Ok(out)
    }

    /// Allocation-free forward transform into a caller-provided buffer
    /// (`input` and `out` must both be exactly `size` samples). Equal
    /// to [`FixedFft::fft`] bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] on either length.
    pub fn fft_into(&self, input: &[CQ15], out: &mut [CQ15]) -> Result<(), FftError> {
        self.transform_into(input, out, false)
    }

    /// Allocation-free inverse transform into a caller-provided buffer.
    /// Equal to [`FixedFft::ifft`] bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] on either length.
    pub fn ifft_into(&self, input: &[CQ15], out: &mut [CQ15]) -> Result<(), FftError> {
        self.transform_into(input, out, true)
    }

    fn transform_into(
        &self,
        input: &[CQ15],
        out: &mut [CQ15],
        inverse: bool,
    ) -> Result<(), FftError> {
        if input.len() != self.size {
            return Err(FftError::LengthMismatch {
                expected: self.size,
                got: input.len(),
            });
        }
        if out.len() != self.size {
            return Err(FftError::LengthMismatch {
                expected: self.size,
                got: out.len(),
            });
        }
        // Work in the wide backing (CQ15 carries i64 raws); saturate
        // only at the output register.
        let data = out;
        for (d, &src) in data.iter_mut().zip(&self.bit_reverse) {
            *d = input[usize::from(src)];
        }
        let narrow = input.iter().fold(0u64, |m, c| {
            m | c.re.raw().unsigned_abs() | c.im.raw().unsigned_abs()
        });
        match (narrow < FAST_LIMIT, inverse) {
            (true, false) => self.butterflies::<false>(data),
            (true, true) => self.butterflies::<true>(data),
            (false, _) => self.butterflies_generic(data, inverse),
        }
        let shift = if inverse {
            self.scaling.inverse_shift
        } else {
            self.scaling.forward_shift
        };
        for c in data.iter_mut() {
            *c = c.shr_round(shift).saturate_bits(SAMPLE_BITS);
        }
        Ok(())
    }

    /// The radix-2 stages on plain `i64` arithmetic, for blocks inside
    /// the range guard. `INVERSE` conjugates the twiddles.
    // phylint: hot
    fn butterflies<const INVERSE: bool>(&self, data: &mut [CQ15]) {
        let mut len = 2;
        while len <= self.size {
            let half = len / 2;
            let twiddles = &self.stage_twiddles[half - 1..len - 1];
            for chunk in data.chunks_exact_mut(len) {
                let (top, bottom) = chunk.split_at_mut(half);
                for ((u, w), t) in top.iter_mut().zip(bottom.iter_mut()).zip(twiddles) {
                    let (tr, ti) = (t.re.raw(), t.im.raw());
                    let ti = if INVERSE { -ti } else { ti };
                    let (wr, wi) = (w.re.raw(), w.im.raw());
                    let vr = round_shr(wr * tr, 15) - round_shr(wi * ti, 15);
                    let vi = round_shr(wr * ti, 15) + round_shr(wi * tr, 15);
                    let (ur, ui) = (u.re.raw(), u.im.raw());
                    *u = CQ15::new(Fx::from_raw(ur + vr), Fx::from_raw(ui + vi));
                    *w = CQ15::new(Fx::from_raw(ur - vr), Fx::from_raw(ui - vi));
                }
            }
            len <<= 1;
        }
    }
    // phylint: end-hot

    /// The radix-2 stages on the generic saturating [`CQ15`] operators,
    /// for blocks with a word outside the range guard.
    #[cold]
    #[inline(never)]
    fn butterflies_generic(&self, data: &mut [CQ15], inverse: bool) {
        let mut len = 2;
        while len <= self.size {
            let half = len / 2;
            let twiddles = &self.stage_twiddles[half - 1..len - 1];
            for chunk in data.chunks_exact_mut(len) {
                let (top, bottom) = chunk.split_at_mut(half);
                for ((u, w), &t) in top.iter_mut().zip(bottom.iter_mut()).zip(twiddles) {
                    let t = if inverse { t.conj() } else { t };
                    let v = *w * t;
                    (*u, *w) = (*u + v, *u - v);
                }
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{fft_f64, ifft_f64};

    fn to_f64(v: &[CQ15]) -> Vec<Cf64> {
        v.iter().map(|&c| Cf64::from_fixed(c)).collect()
    }

    fn from_f64(v: &[Cf64]) -> Vec<CQ15> {
        v.iter().map(|c| c.to_fixed::<15>()).collect()
    }

    /// Output SNR of the fixed-point core vs the f64 reference, in dB.
    fn fixed_vs_float_snr_db(n: usize) -> f64 {
        let fft = FixedFft::new(n).unwrap();
        // Random-ish but deterministic multitone input at rms ~0.15.
        let input: Vec<Cf64> = (0..n)
            .map(|i| {
                let t = i as f64;
                Cf64::new(
                    0.1 * (0.7 * t).sin() + 0.05 * (2.1 * t + 0.3).cos(),
                    0.1 * (1.3 * t).cos() - 0.05 * (0.4 * t).sin(),
                )
            })
            .collect();
        let got = to_f64(&fft.fft(&from_f64(&input)).unwrap());
        let mut reference = input;
        fft_f64(&mut reference);
        let scale = 1.0 / (1 << fft.scaling().forward_shift) as f64;
        let mut sig = 0.0;
        let mut err = 0.0;
        for (g, r) in got.iter().zip(&reference) {
            let want = r.scale(scale);
            sig += want.norm_sqr();
            err += (*g - want).norm_sqr();
        }
        10.0 * (sig / err).log10()
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let fft = FixedFft::new(64).unwrap();
        let mut x = vec![CQ15::ZERO; 64];
        x[0] = CQ15::from_f64(0.5, 0.0);
        let y = fft.fft(&x).unwrap();
        let expected = 0.5 / (1 << fft.scaling().forward_shift) as f64;
        for bin in &y {
            assert!((bin.re.to_f64() - expected).abs() < 1e-3);
            assert!(bin.im.to_f64().abs() < 1e-3);
        }
    }

    #[test]
    fn fixed_matches_float_to_high_snr() {
        for n in [64usize, 128, 256, 512] {
            let snr = fixed_vs_float_snr_db(n);
            assert!(snr > 55.0, "N={n}: fixed-point FFT SNR {snr:.1} dB too low");
        }
    }

    #[test]
    fn ifft_matches_float_reference() {
        let n = 64;
        let fft = FixedFft::new(n).unwrap();
        let freq: Vec<Cf64> = (0..n)
            .map(|k| Cf64::new(0.3 * ((k * 7) as f64).sin(), 0.3 * ((k * 3) as f64).cos()))
            .collect();
        let got = to_f64(&fft.ifft(&from_f64(&freq)).unwrap());
        let mut reference = freq;
        ifft_f64(&mut reference);
        // Our ifft = (2/N)·unnormalized IDFT = 2·normalized IDFT... the
        // reference applies 1/N, ours applies 2^-(log2N-1) = 2/N.
        for (g, r) in got.iter().zip(&reference) {
            let want = r.scale(2.0);
            assert!((*g - want).norm() < 2e-3, "got {g}, want {want}");
        }
    }

    #[test]
    fn fft_of_ifft_recovers_input_shape() {
        let n = 64;
        let core = FixedFft::new(n).unwrap();
        let freq: Vec<CQ15> = (0..n)
            .map(|k| CQ15::from_f64(if k % 5 == 0 { 0.4 } else { -0.2 }, 0.1))
            .collect();
        let time = core.ifft(&freq).unwrap();
        let back = core.fft(&time).unwrap();
        // Net gain: ifft 2/N · fft N/2^fwd = 2/2^fwd = 2/16 = 1/8 for N=64.
        let gain = 2.0 / (1 << core.scaling().forward_shift) as f64;
        for (b, f) in back.iter().zip(&freq) {
            let want = Cf64::from_fixed(*f).scale(gain);
            assert!((Cf64::from_fixed(*b) - want).norm() < 3e-3);
        }
    }

    #[test]
    fn wrong_length_rejected() {
        let fft = FixedFft::new(64).unwrap();
        let err = fft.fft(&vec![CQ15::ZERO; 32]).unwrap_err();
        assert_eq!(err, FftError::LengthMismatch { expected: 64, got: 32 });
        assert!(err.to_string().contains("32"));
    }

    #[test]
    fn unsupported_sizes_rejected() {
        assert_eq!(FixedFft::new(48).unwrap_err(), FftError::UnsupportedSize(48));
        assert_eq!(FixedFft::new(4).unwrap_err(), FftError::UnsupportedSize(4));
    }

    #[test]
    fn full_scale_input_saturates_not_wraps() {
        let fft = FixedFft::with_scaling(64, FftScaling::none()).unwrap();
        let x = vec![CQ15::from_f64(0.999, 0.0); 64];
        let y = fft.fft(&x).unwrap();
        // Unscaled DC bin would be ~64; it must clamp to the bus max,
        // not wrap negative.
        assert!(y[0].re.to_f64() > 0.9);
        assert_eq!(y[0].re.raw(), (1 << 15) - 1);
    }

    #[test]
    fn default_scaling_values() {
        assert_eq!(FftScaling::for_size(64), FftScaling { forward_shift: 4, inverse_shift: 5 });
        assert_eq!(FftScaling::for_size(512), FftScaling { forward_shift: 5, inverse_shift: 8 });
    }
}
