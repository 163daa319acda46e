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
//! # Viterbi kernel tiers
//!
//! The add-compare-select recursion is the block the paper spends a
//! pipelined ACS array on. Three tiers run it, picked per decode at run
//! time ([`ViterbiKernel`] has the selection rules, and
//! [`ViterbiDecoder::kernel_name`] reports the pick); no cargo feature
//! changes the choice, and every tier decodes bit-identically
//! (`tests/proptests.rs`):
//!
//! | tier | metrics | structure | eligible |
//! |---|---|---|---|
//! | SIMD (module `simd`) | `i16`, modulo-normalised | whole-block forward pass, 16 butterflies per AVX2 register (portable twin elsewhere) | ≤ 3 outputs/input, ≥ 32 states, LLR magnitudes ≤ `(2^15 − 1) / (2·n·K)` |
//! | butterfly (module `butterfly`) | `i32`, rescaled every 64 branches | radix-2 butterflies over a `2^n` branch-metric table | ≤ 8 outputs/input, LLR magnitudes ≤ `2^23 / n` |
//! | scalar | `i64` | per state and input, the reference | any code |
//!
//! The two fast tiers share one survivor layout: one decision bit per
//! state per branch, packed into `u64` words (one word per branch for
//! the 64-state K=7 code — the survivor RAM), read back by one
//! shift-and-mask traceback.

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
