//! Forward error correction: convolutional encoder, puncturing,
//! Viterbi decoder, and the 802.11a scrambler.
//!
//! The paper's transmitter streams uncoded data into a "generic
//! convolutional encoder" whose data-path width, rate `R` and puncture
//! pattern are set before synthesis (§IV.A); the receiver closes the
//! loop with a Viterbi decoder (§IV.B). The pilot tones are
//! "de-scrambled" at the receiver, which requires the 802.11a
//! 127-periodic polarity sequence.
//!
//! * [`ConvolutionalEncoder`] — K=7 industry code by default
//!   ([`CodeSpec::ieee80211a`]), arbitrary generators supported.
//! * [`CodeRate`] + [`puncture`]/[`depuncture`] — the 802.11a r=2/3 and
//!   r=3/4 puncturing patterns (erasures re-inserted as zero-LLRs).
//! * [`ViterbiDecoder`] — soft-decision add-compare-select with full
//!   block traceback; hard decision is the degenerate ±1 case.
//! * [`Scrambler`] — the x⁷+x⁴+1 LFSR, plus
//!   [`pilot_polarity`] for the pilot sequence.
//! * [`bits`] — bit/byte packing helpers shared by the whole stack.
//!
//! # The butterfly ACS kernel
//!
//! The decode hot path is the Viterbi add-compare-select recursion —
//! ~70 % of burst decode time in the software model, and the block the
//! paper spends an entire pipelined ACS array on in hardware. The
//! butterfly backend (module `butterfly`, private; the SIMD tier below
//! runs the same walk eight lanes wide) restructures the recursion the
//! same way the silicon does:
//!
//! * one **branch-metric table** per trellis step (`2^n` correlations,
//!   not `states × 2 × n`),
//! * a **radix-2 butterfly** walk over state pairs `2j`/`2j+1` → `j`,
//!   `j+S/2`, each butterfly sharing its two loaded path metrics
//!   between both compare-selects — the software image of the paper's
//!   ACS array,
//! * **`i32` ping-pong metric rows** renormalized by a uniform shift
//!   every 64 branches (the fixed-width rescale of a hardware ACS),
//! * **one survivor bit per state per branch**, packed into `u64`
//!   words (64-state K=7 ⇒ one word per branch — the survivor RAM), so
//!   traceback is a shift-and-mask walk instead of a pointer chase.
//!
//! The scalar reference kernel is retained: an explicit
//! [`ViterbiKernel::Scalar`] request always runs it (differential
//! testing), and it serves as the automatic fallback for codes with
//! more than 8 generators or LLRs beyond the `i32` exactness bound.
//! Both kernels are bit-identical on every input the butterfly accepts
//! — enforced by the property suite in `tests/proptests.rs`.
//!
//! # The SIMD lane tier
//!
//! For codes that fit its lanes (module `simd`, private), the
//! butterfly walk runs eight butterflies per step in one `i32` register
//! row: two contiguous loads pick up sixteen predecessor metrics, an
//! in-register even/odd de-interleave forms the `2j`/`2j+1` vectors,
//! the (≤ 8-entry) branch-metric table is gathered by an in-register
//! permute over prebuilt label vectors, and the decision bits fall out
//! of a sign-bit movemask straight into the survivor words. AVX2
//! intrinsics are used when `is_x86_feature_detected!` reports support
//! at run time; elsewhere a portable fixed-width-array tier (written
//! for the autovectorizer) fills the same seam. Codes that do not fit
//! the lanes — more than 3 output bits per input or fewer than 16
//! states — stay on the scalar butterfly tier automatically.
//! [`ViterbiKernel`] documents the full selection table, and
//! `ViterbiDecoder::kernel_name` reports what `Auto` would dispatch.
//! The choice is made per decode at run time; no cargo feature
//! changes it.

pub mod bits;
mod butterfly;
mod conv;
mod puncture;
mod scrambler;
mod simd;
mod viterbi;

pub use conv::{CodeSpec, CodingError, ConvolutionalEncoder};
pub use puncture::{depuncture, depuncture_into, puncture, puncture_into, CodeRate};
pub use scrambler::{pilot_polarity, Scrambler};
pub use viterbi::{DecodeProfile, ViterbiDecoder, ViterbiKernel, ViterbiWorkspace};

/// A soft bit (log-likelihood ratio). Positive means "more likely 0",
/// negative "more likely 1", zero is an erasure. Hard bits map to
/// ±[`HARD_LLR`].
pub type Llr = i32;

/// Magnitude used when converting a hard bit to a soft value.
pub const HARD_LLR: Llr = 64;

/// Converts a hard bit (0/1) to its soft representation.
#[inline]
pub fn hard_to_llr(bit: u8) -> Llr {
    if bit == 0 {
        HARD_LLR
    } else {
        -HARD_LLR
    }
}

/// Converts a soft value to a hard bit decision (erasure decides 0).
#[inline]
pub fn llr_to_hard(llr: Llr) -> u8 {
    u8::from(llr < 0)
}
