//! The channel estimator: LTS averaging, per-subcarrier H assembly and
//! the full matrix-inversion pipeline.
//!
//! "Each subcarrier output is averaged from the two LTS frames ...
//! using an adder followed by right-shift logic. ... For each
//! subcarrier within the OFDM symbol a 4x4 complex matrix is obtained.
//! This is the channel matrix. For each burst of OFDM symbols an array
//! of 16 memories will be populated with the channel matrices."
//! (§IV.B)

use std::error::Error;
use std::fmt;

use mimo_cordic::LANES;
use mimo_fft::FixedFft;
use mimo_fixed::{CFx, CQ15, Q16};
use mimo_ofdm::preamble::lts_reference;
use mimo_ofdm::SubcarrierMap;

use crate::matrix::FxMat4;
use crate::rinv::invert_upper_triangular;
use crate::systolic::CordicQrd;
use crate::N_ANTENNAS;

/// Errors from channel estimation and inversion.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChanestError {
    /// Unsupported FFT size.
    UnsupportedFftSize(usize),
    /// Wrong number of receive streams or LTS slots.
    BadSlotShape {
        /// Streams/slots expected (= antenna count).
        expected: usize,
        /// Streams/slots supplied.
        got: usize,
    },
    /// An LTS block had the wrong sample count.
    BadBlockLength {
        /// Expected samples (2·N: two LTS repetitions).
        expected: usize,
        /// Samples supplied.
        got: usize,
    },
    /// The channel matrix at some subcarrier is (numerically) singular:
    /// the R diagonal fell below the divider's input range.
    SingularChannel {
        /// Index of the offending diagonal entry.
        diagonal: usize,
    },
}

impl fmt::Display for ChanestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChanestError::UnsupportedFftSize(n) => write!(f, "unsupported FFT size {n}"),
            ChanestError::BadSlotShape { expected, got } => {
                write!(f, "expected {expected} streams/slots, got {got}")
            }
            ChanestError::BadBlockLength { expected, got } => {
                write!(f, "LTS block of {got} samples, expected {expected}")
            }
            ChanestError::SingularChannel { diagonal } => {
                write!(f, "channel matrix singular at R diagonal {diagonal}")
            }
        }
    }
}

impl Error for ChanestError {}

/// Per-subcarrier channel matrices — the "array of 16 memories".
#[derive(Debug, Clone)]
pub struct ChannelEstimate {
    occupied: Vec<i32>,
    h: Vec<FxMat4>,
}

impl ChannelEstimate {
    /// Logical indices of the occupied (estimated) subcarriers.
    pub fn occupied(&self) -> &[i32] {
        &self.occupied
    }

    /// The channel matrix for each occupied subcarrier, aligned with
    /// [`ChannelEstimate::occupied`]. `h[s][(i, k)]` is the path gain
    /// from TX antenna `k` to RX antenna `i` (including the known
    /// TX/RX chain gain — which is exactly what the equalizer needs).
    pub fn h_matrices(&self) -> &[FxMat4] {
        &self.h
    }

    /// Runs the full inversion pipeline on every subcarrier:
    /// QRD → R⁻¹ → R⁻¹·Qᴴ, returning the per-subcarrier `H⁻¹`
    /// ("channel estimate inverted matrices" memories of Fig 5).
    ///
    /// The QRD runs on carrier lanes, [`LANES`] subcarriers at a time
    /// (see the crate docs), and gives the same words as
    /// [`CordicQrd::decompose`] per carrier; R⁻¹ and R⁻¹·Qᴴ then run
    /// per carrier.
    ///
    /// # Errors
    ///
    /// Returns [`ChanestError::SingularChannel`] if any subcarrier's
    /// matrix cannot be inverted.
    pub fn invert_all(&self, qrd: &CordicQrd) -> Result<Vec<FxMat4>, ChanestError> {
        // phylint: allow(hot_transitive) -- matrix inversion runs once per burst preamble, never in the per-sample steady state
        let mut inverses = Vec::with_capacity(self.h.len());
        for batch in self.h.chunks(LANES) {
            let decomps = qrd.decompose_lanes(batch);
            for d in &decomps[..batch.len()] {
                let r_inv = invert_upper_triangular(&d.r)?;
                inverses.push(r_inv.mul_mat(&d.q_h));
            }
        }
        Ok(inverses)
    }
}

/// The channel estimation block: consumes the four staggered LTS
/// fields (one per TX antenna) as seen by the four receive antennas and
/// produces a [`ChannelEstimate`].
#[derive(Debug, Clone)]
pub struct ChannelEstimator {
    fft: FixedFft,
    map: SubcarrierMap,
    lts_ref: Vec<i8>,
    /// 1/amplitude of the training symbols (the de-reference multiply).
    inv_amplitude: Q16,
}

impl ChannelEstimator {
    /// Creates an estimator for the given FFT size with the default
    /// training amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`ChanestError::UnsupportedFftSize`] for bad sizes.
    pub fn new(fft_size: usize) -> Result<Self, ChanestError> {
        Self::with_amplitude(fft_size, mimo_ofdm::preamble::DEFAULT_AMPLITUDE)
    }

    /// Creates an estimator matched to a custom training amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`ChanestError::UnsupportedFftSize`] for bad sizes.
    pub fn with_amplitude(fft_size: usize, amplitude: f64) -> Result<Self, ChanestError> {
        let map = SubcarrierMap::new(fft_size)
            .map_err(|_| ChanestError::UnsupportedFftSize(fft_size))?;
        let fft =
            FixedFft::new(fft_size).map_err(|_| ChanestError::UnsupportedFftSize(fft_size))?;
        let lts_ref = lts_reference(&map);
        Ok(Self {
            fft,
            map,
            lts_ref,
            inv_amplitude: Q16::from_f64(1.0 / amplitude),
        })
    }

    /// The subcarrier allocation in use.
    pub fn map(&self) -> &SubcarrierMap {
        &self.map
    }

    /// Estimates the channel from the received LTS fields.
    ///
    /// `lts_blocks[rx][tx_slot]` holds the `2·N` samples of the two
    /// LTS repetitions (guard already stripped) received on antenna
    /// `rx` during TX antenna `tx_slot`'s preamble slot (Fig 2).
    ///
    /// Generic over borrowed views: pass owned `Vec<Vec<Vec<CQ15>>>`
    /// storage or zero-copy `[[&[CQ15]; 4]; 4]` slices into the raw
    /// receive streams — the receiver hot path uses the latter so no
    /// LTS samples are ever copied.
    ///
    /// Per carrier: both repetitions are transformed, averaged with the
    /// adder + right-shift, and divided by the known ±1 training value
    /// (a sign flip and a constant multiply).
    ///
    /// # Errors
    ///
    /// Returns [`ChanestError::BadSlotShape`]/[`ChanestError::BadBlockLength`]
    /// on malformed input.
    pub fn estimate<R, B>(&self, lts_blocks: &[R]) -> Result<ChannelEstimate, ChanestError>
    where
        R: AsRef<[B]>,
        B: AsRef<[CQ15]>,
    {
        let n = self.map.fft_size();
        if lts_blocks.len() != N_ANTENNAS {
            return Err(ChanestError::BadSlotShape {
                expected: N_ANTENNAS,
                got: lts_blocks.len(),
            });
        }
        for per_rx in lts_blocks {
            let per_rx = per_rx.as_ref();
            if per_rx.len() != N_ANTENNAS {
                return Err(ChanestError::BadSlotShape {
                    expected: N_ANTENNAS,
                    got: per_rx.len(),
                });
            }
            for block in per_rx {
                if block.as_ref().len() != 2 * n {
                    return Err(ChanestError::BadBlockLength {
                        expected: 2 * n,
                        got: block.as_ref().len(),
                    });
                }
            }
        }

        let occupied = self.map.occupied_indices();
        // averaged[(rx * 4 + slot) * n_occ + occupied_idx], flat.
        let n_occ = occupied.len();
        // phylint: allow(hot_transitive) -- scratch rows sized once per preamble estimate, not per sample
        let mut averaged = vec![CQ15::ZERO; N_ANTENNAS * N_ANTENNAS * n_occ];
        // phylint: allow(hot_transitive) -- scratch rows sized once per preamble estimate, not per sample
        let mut first = vec![CQ15::ZERO; n];
        // phylint: allow(hot_transitive) -- scratch rows sized once per preamble estimate, not per sample
        let mut second = vec![CQ15::ZERO; n];
        for (rx, per_rx) in lts_blocks.iter().enumerate() {
            for (slot, block) in per_rx.as_ref().iter().enumerate() {
                let block = block.as_ref();
                // Block length was validated to 2·N above; an FFT
                // length complaint can only mean that check and this
                // call disagree, which surfaces as the same typed
                // error instead of a panic.
                let bad_len = |_| ChanestError::BadBlockLength {
                    expected: 2 * n,
                    got: block.len(),
                };
                self.fft
                    .fft_into(&block[..n], &mut first)
                    .map_err(bad_len)?;
                self.fft
                    .fft_into(&block[n..], &mut second)
                    .map_err(bad_len)?;
                let base = (rx * N_ANTENNAS + slot) * n_occ;
                for (s, &l) in occupied.iter().enumerate() {
                    let bin = self.map.bin(l);
                    // "averaged using an adder followed by right-shift
                    // logic"
                    averaged[base + s] = (first[bin] + second[bin]).shr_round(1);
                }
            }
        }

        let h = (0..n_occ)
            .map(|s| {
                FxMat4::from_fn(|rx, tx| {
                    let y: CFx<16> = averaged[(rx * N_ANTENNAS + tx) * n_occ + s].convert();
                    let sign = self.lts_ref[s];
                    let v = if sign >= 0 { y } else { -y };
                    v.scale(self.inv_amplitude)
                })
            })
            // phylint: allow(hot_transitive) -- gathers the per-burst channel matrix once per preamble
            .collect();

        Ok(ChannelEstimate {
            occupied,
            h,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat4;
    use mimo_cordic::Cordic;
    use mimo_fixed::Cf64;
    use mimo_ofdm::preamble::lts_time;

    /// Simulates the staggered LTS preamble through a flat channel
    /// `h[rx][tx]` and returns the estimator's input blocks.
    fn lts_through_channel(h: &Mat4, fft_size: usize) -> Vec<Vec<Vec<CQ15>>> {
        let fft = FixedFft::new(fft_size).unwrap();
        let map = SubcarrierMap::new(fft_size).unwrap();
        let field = lts_time(&fft, &map, 0.5).unwrap();
        // Strip the N/2 guard: keep the two repetitions.
        let reps = &field[fft_size / 2..];
        (0..N_ANTENNAS)
            .map(|rx| {
                (0..N_ANTENNAS)
                    .map(|tx| {
                        reps.iter()
                            .map(|&s| {
                                (h[(rx, tx)] * Cf64::from_fixed(s))
                                    .to_fixed::<15>()
                                    .saturate_bits(16)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Known end-to-end gain of the LTS estimation path: IFFT (2/N),
    /// FFT (N >> fwd), so H_est = h · 2^(1 − forward_shift).
    fn known_gain(fft: &FixedFft) -> f64 {
        2.0 / (1u64 << fft.scaling().forward_shift) as f64
    }

    #[test]
    fn recovers_identity_channel() {
        let est = ChannelEstimator::new(64).unwrap();
        let h = Mat4::identity();
        let blocks = lts_through_channel(&h, 64);
        let ce = est.estimate(&blocks).unwrap();
        let g = known_gain(&FixedFft::new(64).unwrap());
        for (s, m) in ce.h_matrices().iter().enumerate() {
            let err = m.to_f64().max_distance(&Mat4::from_fn(|r, c| {
                if r == c { Cf64::new(g, 0.0) } else { Cf64::ZERO }
            }));
            assert!(err < 6e-3, "carrier {s}: err {err}");
        }
    }

    #[test]
    fn recovers_mixing_channel() {
        let est = ChannelEstimator::new(64).unwrap();
        let h = Mat4::from_fn(|r, c| {
            Cf64::new(0.3 * (r as f64 - c as f64), 0.2 * (r + c) as f64 * 0.5)
        });
        let blocks = lts_through_channel(&h, 64);
        let ce = est.estimate(&blocks).unwrap();
        let g = known_gain(&FixedFft::new(64).unwrap());
        let expect = Mat4::from_fn(|r, c| h[(r, c)].scale(g));
        for m in ce.h_matrices() {
            assert!(m.to_f64().max_distance(&expect) < 8e-3);
        }
    }

    #[test]
    fn inversion_pipeline_inverts_estimates() {
        let est = ChannelEstimator::new(64).unwrap();
        // Well-conditioned channel.
        let h = Mat4::from_fn(|r, c| {
            if r == c {
                Cf64::new(0.9, 0.2)
            } else {
                Cf64::new(0.1 * (r as f64 - c as f64), -0.1)
            }
        });
        let blocks = lts_through_channel(&h, 64);
        let ce = est.estimate(&blocks).unwrap();
        let inverses = ce.invert_all(&CordicQrd::new()).unwrap();
        for (m, inv) in ce.h_matrices().iter().zip(&inverses) {
            let prod = inv.mul_mat(m).to_f64();
            let err = prod.max_distance(&Mat4::identity());
            assert!(err < 0.05, "||H⁻¹H − I|| = {err}");
        }
    }

    #[test]
    fn estimate_count_matches_occupied_carriers() {
        let est = ChannelEstimator::new(64).unwrap();
        let blocks = lts_through_channel(&Mat4::identity(), 64);
        let ce = est.estimate(&blocks).unwrap();
        assert_eq!(ce.h_matrices().len(), 52);
        assert_eq!(ce.occupied().len(), 52);
    }

    #[test]
    fn rejects_malformed_input() {
        let est = ChannelEstimator::new(64).unwrap();
        assert!(matches!(
            est.estimate(&vec![vec![vec![CQ15::ZERO; 128]; 4]; 3]),
            Err(ChanestError::BadSlotShape { got: 3, .. })
        ));
        assert!(matches!(
            est.estimate(&vec![vec![vec![CQ15::ZERO; 64]; 4]; 4]),
            Err(ChanestError::BadBlockLength { got: 64, .. })
        ));
    }

    #[test]
    fn singular_channel_detected_in_inversion() {
        let est = ChannelEstimator::new(64).unwrap();
        // Rank-1 channel: every RX sees the same mix.
        let h = Mat4::from_fn(|_, c| Cf64::new(0.3 + 0.1 * c as f64, 0.0));
        let blocks = lts_through_channel(&h, 64);
        let ce = est.estimate(&blocks).unwrap();
        assert!(matches!(
            ce.invert_all(&CordicQrd::new()),
            Err(ChanestError::SingularChannel { .. })
        ));
    }

    /// The per-carrier scalar pipeline `invert_all` must reproduce:
    /// `decompose` → R⁻¹ → R⁻¹·Qᴴ, stopping at the first singular
    /// carrier.
    fn invert_each(h: &[FxMat4], qrd: &CordicQrd) -> Result<Vec<FxMat4>, ChanestError> {
        h.iter()
            .map(|h| {
                let d = qrd.decompose(h);
                let r_inv = invert_upper_triangular(&d.r)?;
                Ok(r_inv.mul_mat(&d.q_h))
            })
            .collect()
    }

    /// A channel matrix from 32 raw words in `±bound`.
    fn raw_matrix(words: &[i64], bound: i64) -> FxMat4 {
        FxMat4::from_fn(|r, c| {
            let k = 2 * (4 * r + c);
            CFx::new(
                Q16::from_raw(words[k] % bound),
                Q16::from_raw(words[k + 1] % bound),
            )
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Carrier-lane inversion equals the per-carrier scalar
        /// pipeline: same matrices, or the same `SingularChannel` of
        /// the first failing carrier. Covers empty, partial, exact and
        /// multi-batch carrier counts, zero and rank-deficient carriers
        /// at any index, a carrier wider than the lane guard, and
        /// CORDICs of several depths.
        #[test]
        fn lane_inversion_matches_the_per_carrier_pipeline(
            count in 0usize..7,
            words in proptest::collection::vec(proptest::prelude::any::<i64>(), 64 * 32),
            singular in proptest::collection::vec((0u8..2, 0usize..64), 0..3),
            wide in (proptest::prelude::any::<bool>(), 0usize..64),
            iterations in 0usize..5,
        ) {
            let n = [0, 1, 15, 16, 17, 52, 64][count];
            // Entries up to ±0.6, the range the receiver's estimates use.
            let mut h: Vec<FxMat4> = words
                .chunks(32)
                .take(n)
                .map(|w| raw_matrix(w, 39_322))
                .collect();
            if n > 0 {
                for &(kind, at) in &singular {
                    let m = &mut h[at % n];
                    if kind == 0 {
                        *m = FxMat4::zero();
                    } else {
                        // Rank 2: rows 2 and 3 repeat rows 0 and 1.
                        let (r0, r1) = (*m.row(0), *m.row(1));
                        *m = FxMat4::from_fn(|r, c| if r % 2 == 0 { r0[c] } else { r1[c] });
                    }
                }
                if wide.0 {
                    // Words up to ±3.0, past the 2^17 lane guard.
                    h[wide.1 % n] = raw_matrix(&words[..32], 3 << 16);
                }
            }
            let qrd = CordicQrd::with_cordic(Cordic::with_iterations([18, 1, 8, 31, 40][iterations]));
            let estimate = ChannelEstimate { occupied: (0..n as i32).collect(), h };
            proptest::prop_assert_eq!(estimate.invert_all(&qrd), invert_each(&estimate.h, &qrd));
        }
    }

    #[test]
    fn averaging_suppresses_repetition_noise() {
        // Perturb the two repetitions in opposite directions; the
        // average must cancel the perturbation.
        let est = ChannelEstimator::new(64).unwrap();
        let clean = lts_through_channel(&Mat4::identity(), 64);
        let mut noisy = clean.clone();
        for per_rx in &mut noisy {
            for block in per_rx {
                for (i, s) in block.iter_mut().enumerate() {
                    // Same structured perturbation on both repetitions,
                    // opposite signs: spreads across all bins and must
                    // cancel in the average.
                    let base = 0.002 * (((i % 64) % 7) as f64 - 3.0) / 3.0;
                    let delta = CQ15::from_f64(base, -base);
                    *s = if i < 64 { *s + delta } else { *s - delta };
                }
            }
        }
        let ce_clean = est.estimate(&clean).unwrap();
        let ce_noisy = est.estimate(&noisy).unwrap();
        for (a, b) in ce_clean.h_matrices().iter().zip(ce_noisy.h_matrices()) {
            assert!(a.to_f64().max_distance(&b.to_f64()) < 1e-3);
        }
    }
}
