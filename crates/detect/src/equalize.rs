//! Zero-forcing MIMO detection and the SISO per-carrier equalizer.

use std::error::Error;
use std::fmt;

use mimo_chanest::FxMat4;
use mimo_fixed::{CFx, CQ15, CQ16, SAMPLE_BITS};

/// Errors from the detection stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DetectError {
    /// RX stream count must equal the antenna count (4).
    BadStreamCount(usize),
    /// Transmit-stream index out of range (must be 0..4).
    BadStreamIndex(usize),
    /// Carrier counts disagree between streams and the estimate.
    CarrierMismatch {
        /// Carriers in the channel estimate.
        expected: usize,
        /// Carriers supplied.
        got: usize,
    },
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::BadStreamCount(n) => write!(f, "expected 4 receive streams, got {n}"),
            DetectError::BadStreamIndex(k) => {
                write!(f, "transmit-stream index {k} out of range 0..4")
            }
            DetectError::CarrierMismatch { expected, got } => {
                write!(f, "carrier count {got} does not match estimate ({expected})")
            }
        }
    }
}

impl Error for DetectError {}

/// The zero-forcing MIMO decoder: per subcarrier, the received vector
/// (one value per RX antenna) is multiplied by the pre-computed `H⁻¹`
/// — "equalization is performed on a carrier-per-carrier basis".
///
/// # Examples
///
/// ```
/// use mimo_chanest::FxMat4;
/// use mimo_detect::ZfDetector;
/// use mimo_fixed::CQ15;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Identity channel: detection passes values through.
/// let h_inv = vec![FxMat4::identity(); 3];
/// let rx = vec![vec![CQ15::from_f64(0.25, 0.0); 3]; 4];
/// let streams = ZfDetector::new().detect(&h_inv, &rx)?;
/// assert_eq!(streams.len(), 4);
/// assert!((streams[0][0].re.to_f64() - 0.25).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ZfDetector {
    _private: (),
}

impl ZfDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Detects all four transmit streams from four receive streams.
    ///
    /// `h_inv[s]` is the inverted channel matrix of occupied carrier
    /// `s`; `rx[antenna][s]` the received value on that carrier. The
    /// result is indexed `[tx_stream][s]`, saturated to the 16-bit bus.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] on shape mismatches.
    pub fn detect(
        &self,
        h_inv: &[FxMat4],
        rx: &[Vec<CQ15>],
    ) -> Result<Vec<Vec<CQ15>>, DetectError> {
        let rx: &[Vec<CQ15>; 4] = rx
            .try_into()
            .map_err(|_| DetectError::BadStreamCount(rx.len()))?;
        let lanes = rx.each_ref().map(Vec::as_slice);
        let mut out = vec![vec![CQ15::ZERO; h_inv.len()]; 4];
        for (k, stream) in out.iter_mut().enumerate() {
            self.detect_stream_into(h_inv, &lanes, k, stream)?;
        }
        Ok(out)
    }

    /// Detects a single transmit stream — row `stream` of the
    /// per-carrier `y = H⁻¹ · r` product — into a caller-provided
    /// buffer: `out[s] = Σ_j H⁻¹[s](stream, j) · rx[j][s]`.
    ///
    /// The per-stream decomposition is what lets the receiver fan the
    /// four spatial channels out across threads: each worker computes
    /// exactly its own row, bit-identically to [`ZfDetector::detect`],
    /// with no shared mutable state and no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] on shape mismatches.
    pub fn detect_stream_into(
        &self,
        h_inv: &[FxMat4],
        rx: &[&[CQ15]; 4],
        stream: usize,
        out: &mut [CQ15],
    ) -> Result<(), DetectError> {
        if stream >= 4 {
            return Err(DetectError::BadStreamIndex(stream));
        }
        for antenna in rx {
            if antenna.len() != h_inv.len() {
                return Err(DetectError::CarrierMismatch {
                    expected: h_inv.len(),
                    got: antenna.len(),
                });
            }
        }
        if out.len() != h_inv.len() {
            return Err(DetectError::CarrierMismatch {
                expected: h_inv.len(),
                got: out.len(),
            });
        }
        let [r0, r1, r2, r3] = *rx;
        let lanes = h_inv.iter().zip(r0).zip(r1).zip(r2).zip(r3);
        // phylint: hot
        for (o, ((((inv, &a), &b), &c), &d)) in out.iter_mut().zip(lanes) {
            *o = zf_carrier(inv.row(stream), [a, b, c, d]);
        }
        // phylint: end-hot
        Ok(())
    }
}

/// One carrier of one ZF output stream: `Σ_j row[j] · r[j]` on the
/// Q2.16 datapath, rounded onto the 16-bit Q1.15 bus.
// phylint: hot
#[inline]
fn zf_carrier(row: &[CQ16; 4], r: [CQ15; 4]) -> CQ15 {
    let mut acc: CQ16 = CFx::ZERO;
    for (&h, x) in row.iter().zip(r) {
        let x: CQ16 = x.convert();
        acc += h * x;
    }
    let narrow: CFx<15> = acc.convert();
    narrow.saturate_bits(SAMPLE_BITS)
}
// phylint: end-hot

/// The SISO baseline equalizer: "the corresponding channel estimate is
/// read from the channel estimation memory block and equalization is
/// performed on a carrier-per-carrier basis via a single complex
/// multiplication."
///
/// Construction pre-computes `1/h` per carrier so the run-time work is
/// exactly one complex multiply, as in the hardware.
#[derive(Debug, Clone)]
pub struct SisoEqualizer {
    inv_h: Vec<CQ16>,
}

impl SisoEqualizer {
    /// Builds the equalizer from per-carrier channel estimates.
    /// Carriers whose estimate is numerically zero get a zero
    /// coefficient (data on them is erased rather than amplified).
    pub fn new(h: &[CQ16]) -> Self {
        let inv_h = h
            .iter()
            .map(|&v| {
                let d = v.norm_sqr();
                if d.raw() == 0 {
                    CFx::ZERO
                } else {
                    let c = v.conj();
                    CFx::new(c.re.div(d), c.im.div(d))
                }
            })
            .collect();
        Self { inv_h }
    }

    /// Number of carriers.
    pub fn len(&self) -> usize {
        self.inv_h.len()
    }

    /// `true` if built over zero carriers.
    pub fn is_empty(&self) -> bool {
        self.inv_h.is_empty()
    }

    /// Equalizes one symbol's occupied carriers.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::CarrierMismatch`] on length mismatch.
    pub fn equalize(&self, carriers: &[CQ15]) -> Result<Vec<CQ15>, DetectError> {
        let mut out = vec![CQ15::ZERO; carriers.len()];
        self.equalize_into(carriers, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`SisoEqualizer::equalize`] into a
    /// caller-provided buffer — the per-symbol hot-path form the
    /// receiver workspaces use.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::CarrierMismatch`] on length mismatch.
    pub fn equalize_into(&self, carriers: &[CQ15], out: &mut [CQ15]) -> Result<(), DetectError> {
        if carriers.len() != self.inv_h.len() {
            return Err(DetectError::CarrierMismatch {
                expected: self.inv_h.len(),
                got: carriers.len(),
            });
        }
        if out.len() != self.inv_h.len() {
            return Err(DetectError::CarrierMismatch {
                expected: self.inv_h.len(),
                got: out.len(),
            });
        }
        for ((dst, &r), &coeff) in out.iter_mut().zip(carriers).zip(&self.inv_h) {
            let wide: CQ16 = r.convert();
            let eq = wide * coeff;
            let narrow: CFx<15> = eq.convert();
            *dst = narrow.saturate_bits(SAMPLE_BITS);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_chanest::{CordicQrd, Mat4};
    use mimo_fixed::Cf64;

    #[test]
    fn identity_channel_passthrough() {
        let h_inv = vec![FxMat4::identity(); 5];
        let rx: Vec<Vec<CQ15>> = (0..4)
            .map(|a| (0..5).map(|s| CQ15::from_f64(0.1 * (a + s) as f64, -0.05)).collect())
            .collect();
        let streams = ZfDetector::new().detect(&h_inv, &rx).unwrap();
        for (a, stream) in streams.iter().enumerate() {
            for (s, got) in stream.iter().enumerate() {
                let want = Cf64::from_fixed(rx[a][s]);
                assert!((Cf64::from_fixed(*got) - want).norm() < 1e-3);
            }
        }
    }

    #[test]
    fn recovers_streams_through_mixing_channel() {
        // x -> H x; detector applies H^-1 from the real QRD pipeline.
        let h = Mat4::from_fn(|r, c| {
            if r == c {
                Cf64::new(0.8, -0.1)
            } else {
                Cf64::new(0.15 * (r as f64 - c as f64), 0.1)
            }
        });
        let x: Vec<[Cf64; 4]> = (0..8)
            .map(|s| {
                [
                    Cf64::new(0.2, 0.1 * s as f64 / 8.0),
                    Cf64::new(-0.15, 0.2),
                    Cf64::new(0.1, -0.1),
                    Cf64::new(-0.05, -0.15),
                ]
            })
            .collect();
        // Received r = H x per carrier.
        let rx: Vec<Vec<CQ15>> = (0..4)
            .map(|i| {
                x.iter()
                    .map(|xv| {
                        let r = h.mul_vec(xv)[i];
                        r.to_fixed::<15>().saturate_bits(16)
                    })
                    .collect()
            })
            .collect();
        // Invert via the fixed-point QRD pipeline.
        let qrd = CordicQrd::new();
        let decomp = qrd.decompose(&h.to_fixed());
        let r_inv = mimo_chanest::invert_upper_triangular(&decomp.r).unwrap();
        let h_inv = r_inv.mul_mat(&decomp.q_h);
        let h_invs = vec![h_inv; 8];

        let streams = ZfDetector::new().detect(&h_invs, &rx).unwrap();
        for (k, stream) in streams.iter().enumerate() {
            for (s, got) in stream.iter().enumerate() {
                let err = (Cf64::from_fixed(*got) - x[s][k]).norm();
                assert!(err < 0.02, "stream {k} carrier {s}: err {err}");
            }
        }
    }

    #[test]
    fn shape_errors() {
        let det = ZfDetector::new();
        let h_inv = vec![FxMat4::identity(); 2];
        assert!(matches!(
            det.detect(&h_inv, &vec![vec![CQ15::ZERO; 2]; 3]),
            Err(DetectError::BadStreamCount(3))
        ));
        assert!(matches!(
            det.detect(&h_inv, &vec![vec![CQ15::ZERO; 5]; 4]),
            Err(DetectError::CarrierMismatch { expected: 2, got: 5 })
        ));
    }

    #[test]
    fn siso_equalizer_inverts_scalar_channel() {
        let h: Vec<CQ16> = (0..6)
            .map(|i| CFx::from_f64(0.5 + 0.05 * i as f64, -0.2))
            .collect();
        let eq = SisoEqualizer::new(&h);
        let tx = CQ15::from_f64(0.25, -0.125);
        let rx: Vec<CQ15> = h
            .iter()
            .map(|&hh| {
                let wide: CQ16 = tx.convert();
                let through = wide * hh;
                let narrow: CFx<15> = through.convert();
                narrow.saturate_bits(16)
            })
            .collect();
        let out = eq.equalize(&rx).unwrap();
        for got in out {
            assert!((Cf64::from_fixed(got) - Cf64::from_fixed(tx)).norm() < 5e-3);
        }
    }

    #[test]
    fn siso_zero_carrier_erases_not_explodes() {
        let eq = SisoEqualizer::new(&[CFx::ZERO, CFx::ONE]);
        let out = eq.equalize(&[CQ15::from_f64(0.3, 0.3), CQ15::from_f64(0.3, 0.3)]).unwrap();
        assert!(out[0].is_zero());
        assert!(!out[1].is_zero());
    }
}
