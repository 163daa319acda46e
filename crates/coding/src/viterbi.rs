//! Soft-decision Viterbi decoder with full-block traceback.
//!
//! "Error correction is performed using the Viterbi decoder" (§IV.B).
//! The symbol demapper "can be set up to perform hard or soft symbol
//! demapping", so the decoder accepts LLRs; hard decisions are just
//! ±[`HARD_LLR`](crate::HARD_LLR).
//!
//! Three add-compare-select kernel tiers sit behind one dispatch,
//! chosen per decode at run time from the code shape, the block's
//! largest LLR and CPU detection ([`ViterbiKernel`] has the table):
//! the 16-lane `i16` **SIMD tier** (module `simd`), the `i32`
//! **butterfly kernel** (module `butterfly`) and the `i64` **scalar
//! kernel**, the differential-testing reference. All make identical
//! decisions, tie-breaks included, so their outputs are bit-identical —
//! pinned by the crate's property suite.

use crate::butterfly::{fill_bm_table, normalize_row, ButterflyTrellis, NEG_INF_I32, NORM_INTERVAL};
use crate::simd::SimdTrellis;
use crate::{CodeSpec, CodingError, Llr};
use std::time::{Duration, Instant};

/// Preallocated working state for [`ViterbiDecoder`] — metric rows and
/// survivor memory for the scalar and butterfly kernels (the SIMD tier
/// keeps its metrics in registers and shares the butterfly survivor
/// words). One workspace per decoding thread lets the burst hot path
/// decode with zero steady-state heap allocation: buffers grow to the
/// largest block seen and are reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct ViterbiWorkspace {
    /// Scalar kernel: path metrics for the current branch.
    metrics: Vec<i64>,
    /// Scalar kernel: path metrics being built for the next branch.
    next_metrics: Vec<i64>,
    /// Scalar kernel: flat survivor memory, `survivors[t * n_states +
    /// s]` packing the predecessor state (upper bits) and input bit
    /// (bit 0) of the best path into state `s` at branch `t`.
    survivors: Vec<u32>,
    /// Butterfly kernel: current path-metric row (one `i32` per state).
    row_cur: Vec<i32>,
    /// Butterfly kernel: next path-metric row (ping-pong partner).
    row_next: Vec<i32>,
    /// Butterfly kernel: per-branch metric table (`2^n` entries).
    bm: Vec<i32>,
    /// Butterfly kernel: survivor bitmask words, `⌈states/64⌉` per
    /// branch (one `u64` per branch for the 64-state K=7 code).
    masks: Vec<u64>,
}

impl ViterbiWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the scalar kernel's capacity for `n_branches × n_states`.
    fn prepare_scalar(&mut self, n_branches: usize, n_states: usize) {
        self.metrics.clear();
        self.metrics.resize(n_states, NEG_INF);
        self.next_metrics.clear();
        self.next_metrics.resize(n_states, NEG_INF);
        self.survivors.clear();
        self.survivors.resize(n_branches * n_states, 0);
    }

    /// Ensures butterfly-kernel capacity. Survivor words and the metric
    /// table are fully overwritten by the recursion, so only the metric
    /// rows are (re)initialized here.
    fn prepare_butterfly(&mut self, n_branches: usize, bf: &ButterflyTrellis) {
        let n_states = bf.n_states();
        self.row_cur.clear();
        self.row_cur.resize(n_states, NEG_INF_I32);
        self.row_next.clear();
        self.row_next.resize(n_states, NEG_INF_I32);
        self.bm.resize(bf.table_len(), 0);
        self.masks.resize(n_branches * bf.words_per_step(), 0);
    }
}

/// Sentinel for an unreachable trellis state (scalar kernel).
const NEG_INF: i64 = i64::MIN / 4;

/// Packs a survivor entry of the scalar kernel: predecessor state and
/// input.
#[inline]
fn pack_survivor(prev_state: usize, input: u8) -> u32 {
    ((prev_state as u32) << 1) | u32::from(input)
}

/// Unpacks a survivor entry of the scalar kernel into
/// `(prev_state, input)`.
#[inline]
fn unpack_survivor(packed: u32) -> (usize, u8) {
    ((packed >> 1) as usize, (packed & 1) as u8)
}

/// A soft-decision Viterbi decoder over the trellis of a [`CodeSpec`].
///
/// The decoder performs add-compare-select over all `2^(K-1)` states
/// per branch and keeps the full survivor memory for an exact
/// end-of-block traceback (the hardware equivalent uses a sliding
/// traceback window; for the paper's burst sizes a full traceback is
/// the exact limit of that architecture). See the `viterbi` module
/// source docs for the three ACS kernels behind the public entry points.
///
/// # Examples
///
/// ```
/// use mimo_coding::{CodeSpec, ConvolutionalEncoder, ViterbiDecoder, hard_to_llr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = CodeSpec::ieee80211a();
/// let mut enc = ConvolutionalEncoder::new(spec.clone());
/// let dec = ViterbiDecoder::new(spec);
///
/// let info = vec![1, 0, 0, 1, 1, 0, 1, 0];
/// let coded = enc.encode_terminated(&info);
/// let soft: Vec<_> = coded.iter().map(|&b| hard_to_llr(b)).collect();
/// let decoded = dec.decode_terminated(&soft)?;
/// assert_eq!(decoded, info);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ViterbiDecoder {
    spec: CodeSpec,
    /// For each state and input bit: (coded output, next state).
    transitions: Vec<[(u32, u32); 2]>,
    /// Radix-2 butterfly tables (`None` for codes with > 8 outputs).
    butterfly: Option<ButterflyTrellis>,
    /// 16-lane `i16` view of the butterfly tables (`None` when the code
    /// shape does not fit the lanes).
    pub(crate) simd: Option<SimdTrellis>,
}

/// Which add-compare-select kernel tier backs a decode — the
/// `decode_*_with` entry points take one explicitly; everything else
/// uses [`ViterbiKernel::Auto`].
///
/// Selection table (runtime detection × code shape × LLR bound):
///
/// | tier        | needs                                                        |
/// |-------------|--------------------------------------------------------------|
/// | `simd`      | ≤ 3 outputs/input, ≥ 32 states, and every LLR magnitude      |
/// |             | within `⌊(2^15 − 1) / (2·n·K)⌋` (1170 for K=7 r=1/2); AVX2 at |
/// |             | run time picks the intrinsic pass, else the portable twin    |
/// | `butterfly` | ≤ 8 outputs/input and every LLR magnitude ≤ `2^23 / n`       |
/// | `scalar`    | anything                                                     |
///
/// One scan of the block finds its largest LLR magnitude. `Auto` walks
/// the table top-down. An explicit request starts at the row it names
/// but still falls back down the table when the code or the LLRs
/// disqualify that tier — kernel choice can affect only speed, never
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViterbiKernel {
    /// Best tier the CPU, code and LLRs allow (the default).
    #[default]
    Auto,
    /// The reference per-state `i64` kernel.
    Scalar,
    /// The scalar radix-2 butterfly kernel.
    Butterfly,
    /// The 16-lane `i16` SIMD tier.
    Simd,
}

/// Phase timing of one decode, from
/// [`ViterbiDecoder::decode_terminated_profiled`]: where a block's time
/// went and which kernel tier actually ran.
#[derive(Debug, Clone, Copy)]
pub struct DecodeProfile {
    /// Forward pass: branch metrics + add-compare-select recursion.
    pub acs: Duration,
    /// Backward pass: survivor traceback (and output assembly).
    pub traceback: Duration,
    /// The kernel tier dispatched: `"scalar"`, `"butterfly"`,
    /// `"simd-portable"` or `"simd-avx2"`.
    pub kernel: &'static str,
}

/// The kernel tier one decode runs on, resolved from the request, the
/// code shape and the block's largest LLR magnitude. The lane tier
/// keeps the butterfly tables for its traceback.
#[derive(Clone, Copy)]
enum Tier<'a> {
    Simd(&'a SimdTrellis, &'a ButterflyTrellis),
    Butterfly(&'a ButterflyTrellis),
    Scalar,
}

impl Tier<'_> {
    fn name(&self) -> &'static str {
        match self {
            Tier::Simd(s, _) => s.name(),
            Tier::Butterfly(_) => "butterfly",
            Tier::Scalar => "scalar",
        }
    }
}

impl ViterbiDecoder {
    /// Builds the decoder trellis for a code.
    pub fn new(spec: CodeSpec) -> Self {
        let n_states = spec.num_states();
        let transitions = (0..n_states as u32)
            .map(|s| [spec.step(s, 0), spec.step(s, 1)])
            .collect();
        let butterfly = ButterflyTrellis::new(&spec);
        let simd = butterfly.as_ref().and_then(SimdTrellis::new);
        Self {
            spec,
            transitions,
            butterfly,
            simd,
        }
    }

    /// The code this decoder targets.
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// Resolves a kernel request for `soft` (see [`ViterbiKernel`]):
    /// one scan finds `max|LLR|`, which must fit the lane tier's `i16`
    /// bound for `Simd` and the `i32` bound for `Butterfly`.
    #[inline]
    fn tier(&self, kernel: ViterbiKernel, soft: &[Llr]) -> Tier<'_> {
        if kernel == ViterbiKernel::Scalar {
            return Tier::Scalar;
        }
        let peak = soft.iter().map(|l| l.unsigned_abs()).max().unwrap_or(0);
        let Some(bf) = self.butterfly.as_ref().filter(|bf| bf.exact_for(peak)) else {
            return Tier::Scalar;
        };
        match &self.simd {
            Some(s) if kernel != ViterbiKernel::Butterfly && s.exact_for(peak) => Tier::Simd(s, bf),
            _ => Tier::Butterfly(bf),
        }
    }

    /// Name of the kernel tier [`ViterbiKernel::Auto`] would dispatch
    /// for `soft` on this CPU: `"scalar"`, `"butterfly"`,
    /// `"simd-portable"` or `"simd-avx2"`. Benches record this so
    /// numbers from different hosts are interpretable.
    pub fn kernel_name(&self, soft: &[Llr]) -> &'static str {
        self.tier(ViterbiKernel::Auto, soft).name()
    }

    /// Decodes a zero-terminated block (encoded with
    /// [`ConvolutionalEncoder::encode_terminated`](crate::ConvolutionalEncoder::encode_terminated)),
    /// stripping the `K-1` flush bits from the result.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::BadBlockLength`] if the input is not a
    /// whole number of branches or is shorter than the flush tail.
    pub fn decode_terminated(&self, soft: &[Llr]) -> Result<Vec<u8>, CodingError> {
        let mut ws = ViterbiWorkspace::new();
        let mut out = Vec::new();
        self.decode_terminated_into(soft, &mut ws, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`ViterbiDecoder::decode_terminated`]: decodes
    /// into `out` (cleared first) using the caller's workspace. The
    /// steady-state hot path allocates nothing once the workspace and
    /// `out` have grown to the burst's block size.
    ///
    /// # Errors
    ///
    /// Identical to [`ViterbiDecoder::decode_terminated`].
    pub fn decode_terminated_into(
        &self,
        soft: &[Llr],
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) -> Result<(), CodingError> {
        self.decode_terminated_with(ViterbiKernel::Auto, soft, ws, out)
    }

    /// [`ViterbiDecoder::decode_terminated_into`] on an explicitly
    /// requested kernel tier (see [`ViterbiKernel`] for how requests
    /// degrade when the code or LLRs disqualify a tier) — the entry
    /// point the differential property suite sweeps.
    ///
    /// # Errors
    ///
    /// Identical to [`ViterbiDecoder::decode_terminated`].
    pub fn decode_terminated_with(
        &self,
        kernel: ViterbiKernel,
        soft: &[Llr],
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) -> Result<(), CodingError> {
        let n_branches = self.validate_block(soft)?;
        let tier = self.tier(kernel, soft);
        self.acs_pass(tier, soft, ws);
        self.traceback(tier, n_branches, ws, out);
        self.strip_flush(soft.len(), out)
    }

    /// [`ViterbiDecoder::decode_terminated_into`] with per-phase
    /// timing: how long the forward (branch-metric + ACS) and backward
    /// (traceback) passes took, and which kernel tier ran. The decode
    /// itself is the ordinary [`ViterbiKernel::Auto`] dispatch.
    ///
    /// # Errors
    ///
    /// Identical to [`ViterbiDecoder::decode_terminated`].
    pub fn decode_terminated_profiled(
        &self,
        soft: &[Llr],
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) -> Result<DecodeProfile, CodingError> {
        let n_branches = self.validate_block(soft)?;
        let tier = self.tier(ViterbiKernel::Auto, soft);
        let t0 = Instant::now();
        self.acs_pass(tier, soft, ws);
        let acs = t0.elapsed();
        let t1 = Instant::now();
        self.traceback(tier, n_branches, ws, out);
        self.strip_flush(soft.len(), out)?;
        Ok(DecodeProfile {
            acs,
            traceback: t1.elapsed(),
            kernel: tier.name(),
        })
    }

    /// Removes the `K-1` trellis flush bits after a terminated decode.
    fn strip_flush(&self, soft_len: usize, out: &mut Vec<u8>) -> Result<(), CodingError> {
        let flush = self.spec.constraint_length() - 1;
        if out.len() < flush {
            return Err(CodingError::BadBlockLength {
                got: soft_len,
                multiple: self.spec.outputs_per_input() * (flush + 1),
            });
        }
        let info_len = out.len() - flush;
        out.truncate(info_len);
        Ok(())
    }

    /// Checks that `soft` is a whole number of branches; returns the
    /// branch count.
    fn validate_block(&self, soft: &[Llr]) -> Result<usize, CodingError> {
        let n_out = self.spec.outputs_per_input();
        if !soft.len().is_multiple_of(n_out) {
            return Err(CodingError::BadBlockLength {
                got: soft.len(),
                multiple: n_out,
            });
        }
        Ok(soft.len() / n_out)
    }

    /// Forward pass of a block decode on `tier`: branch metrics +
    /// add-compare-select into the workspace's survivor memory. `soft`
    /// must already be validated.
    fn acs_pass(&self, tier: Tier<'_>, soft: &[Llr], ws: &mut ViterbiWorkspace) {
        let n_branches = soft.len() / self.spec.outputs_per_input();
        match tier {
            Tier::Simd(s, bf) => {
                ws.masks.resize(n_branches * bf.words_per_step(), 0);
                s.forward(bf, soft, &mut ws.masks);
            }
            Tier::Butterfly(bf) => self.butterfly_acs_pass(bf, soft, ws),
            Tier::Scalar => self.scalar_acs_pass(soft, ws),
        }
    }

    /// Backward pass of a block decode on `tier`, from the terminated
    /// end state 0. The lane tier writes the butterfly survivor layout.
    fn traceback(
        &self,
        tier: Tier<'_>,
        n_branches: usize,
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) {
        match tier {
            Tier::Simd(_, bf) | Tier::Butterfly(bf) => {
                Self::butterfly_traceback(bf, n_branches, ws, out)
            }
            Tier::Scalar => self.scalar_traceback(n_branches, ws, out),
        }
    }

    /// Forward pass of a butterfly-tier block decode.
    fn butterfly_acs_pass(&self, bf: &ButterflyTrellis, soft: &[Llr], ws: &mut ViterbiWorkspace) {
        let n_out = self.spec.outputs_per_input();
        let n_branches = soft.len() / n_out;
        let wps = bf.words_per_step();

        ws.prepare_butterfly(n_branches, bf);
        ws.row_cur[0] = 0;

        for t in 0..n_branches {
            fill_bm_table(&soft[t * n_out..(t + 1) * n_out], &mut ws.bm);
            bf.acs_step(
                &ws.bm,
                &ws.row_cur,
                &mut ws.row_next,
                &mut ws.masks[t * wps..(t + 1) * wps],
            );
            std::mem::swap(&mut ws.row_cur, &mut ws.row_next);
            if (t + 1) % NORM_INTERVAL == 0 {
                normalize_row(&mut ws.row_cur);
            }
        }
    }

    /// Backward pass of a butterfly-tier block decode from the
    /// terminated end state 0: one survivor bit per step selects the
    /// predecessor.
    fn butterfly_traceback(
        bf: &ButterflyTrellis,
        n_branches: usize,
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) {
        let wps = bf.words_per_step();
        let mut state = 0usize;
        out.clear();
        out.resize(n_branches, 0);
        for t in (0..n_branches).rev() {
            let (bit, prev) = bf.traceback_state(state, &ws.masks[t * wps..(t + 1) * wps]);
            out[t] = bit;
            state = prev;
        }
    }

    /// Forward pass of a block decode on the scalar kernel. `soft` must
    /// already be validated.
    fn scalar_acs_pass(&self, soft: &[Llr], ws: &mut ViterbiWorkspace) {
        let n_out = self.spec.outputs_per_input();
        let n_branches = soft.len() / n_out;
        let n_states = self.spec.num_states();

        // Path metrics: larger is better. Start locked to state 0.
        ws.prepare_scalar(n_branches, n_states);
        ws.metrics[0] = 0;

        for t in 0..n_branches {
            let branch = &soft[t * n_out..(t + 1) * n_out];
            ws.next_metrics.fill(NEG_INF);
            let surv = &mut ws.survivors[t * n_states..(t + 1) * n_states];
            for state in 0..n_states {
                let pm = ws.metrics[state];
                if pm == NEG_INF {
                    continue;
                }
                for input in 0..2u8 {
                    let (coded, next) = self.transitions[state][input as usize];
                    // Branch metric: correlation of expected bits with
                    // LLRs (positive LLR favours bit 0).
                    let mut bm: i64 = 0;
                    for (i, &llr) in branch.iter().enumerate() {
                        let expected = (coded >> i) & 1;
                        bm += if expected == 0 { llr as i64 } else { -(llr as i64) };
                    }
                    let cand = pm + bm;
                    let next = next as usize;
                    if cand > ws.next_metrics[next] {
                        ws.next_metrics[next] = cand;
                        surv[next] = pack_survivor(state, input);
                    }
                }
            }
            std::mem::swap(&mut ws.metrics, &mut ws.next_metrics);
        }
    }

    /// Backward pass of a block decode on the scalar kernel, from the
    /// terminated end state 0.
    fn scalar_traceback(&self, n_branches: usize, ws: &mut ViterbiWorkspace, out: &mut Vec<u8>) {
        let n_states = self.spec.num_states();
        let mut state = 0usize;
        out.clear();
        out.resize(n_branches, 0);
        for t in (0..n_branches).rev() {
            let (prev, input) = unpack_survivor(ws.survivors[t * n_states + state]);
            out[t] = input;
            state = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hard_to_llr, ConvolutionalEncoder, HARD_LLR};

    fn roundtrip(info: &[u8]) -> Vec<u8> {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let coded = enc.encode_terminated(info);
        let soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        dec.decode_terminated(&soft).unwrap()
    }

    #[test]
    fn noiseless_roundtrip() {
        let info: Vec<u8> = (0..100).map(|i| ((i * 31 + 7) % 5 < 2) as u8).collect();
        assert_eq!(roundtrip(&info), info);
    }

    #[test]
    fn corrects_scattered_bit_errors() {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info: Vec<u8> = (0..200).map(|i| ((i * 13) % 7 < 3) as u8).collect();
        let mut coded = enc.encode_terminated(&info);
        // Flip well-separated bits: free distance 10 corrects these.
        for pos in [3usize, 40, 90, 150, 220, 300, 390] {
            coded[pos] ^= 1;
        }
        let soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        assert_eq!(dec.decode_terminated(&soft).unwrap(), info);
    }

    #[test]
    fn soft_information_beats_hard_on_weak_bits() {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info: Vec<u8> = (0..64).map(|i| ((i * 29) % 3 == 0) as u8).collect();
        let coded = enc.encode_terminated(&info);
        // A burst of 6 adjacent hard flips defeats hard decisions...
        let mut hard: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        let mut soft = hard.clone();
        for pos in 20..26 {
            hard[pos] = -hard[pos];
            // ...but soft decoding sees those bits as unreliable.
            soft[pos] = -soft[pos].signum() * (HARD_LLR / 16).max(1);
        }
        let soft_result = dec.decode_terminated(&soft).unwrap();
        assert_eq!(soft_result, info, "soft decoder must survive a weak burst");
    }

    #[test]
    fn erasures_are_tolerated() {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info: Vec<u8> = (0..80).map(|i| (i % 3 == 1) as u8).collect();
        let coded = enc.encode_terminated(&info);
        let mut soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        // Erase every 4th bit (heavier than r=3/4 puncturing).
        for llr in soft.iter_mut().step_by(4) {
            *llr = 0;
        }
        assert_eq!(dec.decode_terminated(&soft).unwrap(), info);
    }

    #[test]
    fn rejects_ragged_input() {
        let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
        assert!(matches!(
            dec.decode_terminated(&[1, 2, 3]),
            Err(CodingError::BadBlockLength { got: 3, .. })
        ));
    }

    #[test]
    fn empty_block_is_rejected() {
        let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
        assert!(dec.decode_terminated(&[]).is_err());
    }

    #[test]
    fn works_for_other_codes() {
        // K=3 (5,7) toy code.
        let spec = CodeSpec::new(3, vec![0o5, 0o7], 1).unwrap();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info = vec![1, 1, 0, 1, 0, 0, 1, 0, 1, 1];
        let coded = enc.encode_terminated(&info);
        let soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        assert_eq!(dec.decode_terminated(&soft).unwrap(), info);
    }

    #[test]
    fn butterfly_matches_scalar_on_noisy_block() {
        // Direct differential check on one heavily corrupted block
        // (the crate's property suite sweeps this much harder).
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info: Vec<u8> = (0..500).map(|i| ((i * 37 + 11) % 9 < 4) as u8).collect();
        let coded = enc.encode_terminated(&info);
        let mut soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        // Deterministic pseudo-noise, including sign flips and erasures.
        let mut s = 0x9e3779b9u32;
        for llr in soft.iter_mut() {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            *llr += (s % 101) as Llr - 50;
        }
        let mut ws = ViterbiWorkspace::new();
        let mut fast = Vec::new();
        let mut reference = Vec::new();
        dec.decode_terminated_into(&soft, &mut ws, &mut fast).unwrap();
        dec.decode_terminated_with(ViterbiKernel::Scalar, &soft, &mut ws, &mut reference)
            .unwrap();
        assert_eq!(fast, reference, "kernels disagree");
    }

    #[test]
    fn extreme_llrs_fall_back_to_scalar_and_still_match() {
        // Magnitudes beyond the i32 kernel's exactness bound must route
        // to the scalar kernel transparently.
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info: Vec<u8> = (0..40).map(|i| (i % 5 == 2) as u8).collect();
        let coded = enc.encode_terminated(&info);
        let soft: Vec<Llr> = coded
            .iter()
            .map(|&b| if b == 0 { 1 << 28 } else { -(1 << 28) })
            .collect();
        assert_eq!(dec.decode_terminated(&soft).unwrap(), info);
    }
}
