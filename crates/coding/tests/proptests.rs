//! Property-based tests across the coding pipeline, including the
//! differential suites pinning the SIMD and butterfly ACS kernels
//! bit-identical to the scalar reference kernel, and the SIMD tier's
//! `i16` bound at its edge.

use mimo_coding::{
    bits, depuncture, hard_to_llr, puncture, CodeRate, CodeSpec, ConvolutionalEncoder, Llr,
    ViterbiDecoder, ViterbiKernel, ViterbiWorkspace,
};
use proptest::prelude::*;

fn bitvec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..2, 1..max_len)
}

/// Deterministic xorshift noise source for LLR perturbation.
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value in `[-scale, scale]`.
    fn llr(&mut self, scale: i64) -> Llr {
        ((self.next() % (2 * scale as u64 + 1)) as i64 - scale) as Llr
    }
}

/// Adds seeded noise to every LLR. Small scales produce many exact
/// metric ties, the hardest case for kernel equivalence.
fn perturb(soft: &mut [Llr], seed: u64, scale: i64) {
    let mut noise = Noise(seed | 1);
    for llr in soft {
        *llr += noise.llr(scale);
    }
}

/// Decodes `soft` as a terminated block on each tier in `kernels`.
fn decode_on(dec: &ViterbiDecoder, kernels: &[ViterbiKernel], soft: &[Llr]) -> Vec<Vec<u8>> {
    let mut ws = ViterbiWorkspace::new();
    kernels
        .iter()
        .map(|&kernel| {
            let mut out = Vec::new();
            dec.decode_terminated_with(kernel, soft, &mut ws, &mut out).unwrap();
            out
        })
        .collect()
}

/// A random rate-1/2 code of constraint length `k` (generators drawn
/// from `seed`, never zero).
fn random_code(k: usize, seed: u64) -> ViterbiDecoder {
    let mut noise = Noise(seed | 1);
    let mask = (1u64 << k) - 1;
    let g0 = ((noise.next() & mask) as u32).max(1);
    let g1 = ((noise.next() & mask) as u32).max(1);
    ViterbiDecoder::new(CodeSpec::new(k, vec![g0, g1], 1).unwrap())
}

const ALL_TIERS: [ViterbiKernel; 3] =
    [ViterbiKernel::Simd, ViterbiKernel::Butterfly, ViterbiKernel::Scalar];

/// The SIMD tier's `i16` exactness bound on LLR magnitudes for a code
/// with constraint length `k` and `n` outputs per input:
/// `⌊(2^15 − 1) / (2·n·K)⌋`.
fn lane_bound(k: usize, n: usize) -> Llr {
    Llr::from(i16::MAX) / (2 * n * k) as Llr
}

/// LLRs that maximise the metric spread: every value at ±`bound`, with
/// random signs (`pattern` 0), alternating signs (1), random signs cut
/// by runs of erasures (2), or uniform noise within the bound (3).
fn bound_llrs(len: usize, bound: Llr, seed: u64, pattern: usize) -> Vec<Llr> {
    let mut noise = Noise(seed | 1);
    (0..len)
        .map(|i| match pattern {
            1 => [bound, -bound][i % 2],
            2 if i / 8 % 3 == 0 => 0,
            3 => noise.llr(bound.into()),
            _ => [bound, -bound][(noise.next() & 1) as usize],
        })
        .collect()
}

proptest! {
    /// encode → decode is the identity for any input, any rate.
    #[test]
    fn coded_roundtrip_noiseless(info in bitvec(256), rate_idx in 0usize..3) {
        let rate = CodeRate::ALL[rate_idx];
        // Puncturing needs the mother length to be a multiple of the
        // period for clean depuncture; terminated blocks always are
        // when info length is padded by the caller — emulate that here.
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);

        let mother = enc.encode_terminated(&info);
        let tx = puncture(&mother, rate);
        let soft: Vec<Llr> = tx.iter().map(|&b| hard_to_llr(b)).collect();
        let restored = depuncture(&soft, rate, mother.len()).unwrap();
        let decoded = dec.decode_terminated(&restored).unwrap();
        prop_assert_eq!(decoded, info);
    }

    /// A single flipped coded bit never breaks decoding (d_free >> 3).
    #[test]
    fn single_error_always_corrected(info in bitvec(128), err_pos in any::<prop::sample::Index>()) {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let mut coded = enc.encode_terminated(&info);
        let pos = err_pos.index(coded.len());
        coded[pos] ^= 1;
        let soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        prop_assert_eq!(dec.decode_terminated(&soft).unwrap(), info);
    }

    /// Bit/byte packing roundtrips for whole bytes.
    #[test]
    fn bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let bits = bits::bytes_to_bits(&data);
        prop_assert_eq!(bits.len(), data.len() * 8);
        prop_assert_eq!(bits::bits_to_bytes(&bits), data);
    }

    /// Puncture output length matches the configured rate exactly when
    /// the mother length is a multiple of the pattern period.
    #[test]
    fn puncture_length_formula(blocks in 1usize..50, rate_idx in 0usize..3) {
        let rate = CodeRate::ALL[rate_idx];
        let period = rate.keep_pattern().len();
        let mother = vec![0u8; blocks * period];
        let kept = puncture(&mother, rate);
        let keeps_per_period = rate.keep_pattern().iter().filter(|&&k| k).count();
        prop_assert_eq!(kept.len(), blocks * keeps_per_period);
        // kept/mother must equal (1/2)/(rate) = denominator/(2·numerator).
        prop_assert_eq!(
            kept.len() * 2 * rate.numerator(),
            mother.len() * rate.denominator()
        );
    }

    /// The scrambler never changes data length and double-scrambling
    /// with the same seed restores the input.
    #[test]
    fn scrambler_involution(data in bitvec(512), seed in 1u8..128) {
        let mut a = mimo_coding::Scrambler::new(seed);
        let mut b = mimo_coding::Scrambler::new(seed);
        let s = a.scramble(&data);
        prop_assert_eq!(s.len(), data.len());
        prop_assert_eq!(b.scramble(&s), data);
    }

    /// Butterfly and scalar kernels decode punctured/terminated blocks
    /// identically across all rates, hard and noisy-soft metrics.
    #[test]
    fn butterfly_matches_scalar_terminated(
        info in bitvec(256),
        rate_idx in 0usize..3,
        seed in any::<u64>(),
        soft_metrics in any::<bool>(),
    ) {
        let rate = CodeRate::ALL[rate_idx];
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let mother = enc.encode_terminated(&info);
        let tx = puncture(&mother, rate);
        let mut soft: Vec<Llr> = tx.iter().map(|&b| hard_to_llr(b)).collect();
        if soft_metrics {
            // Heavy noise: up to ±1.5 HARD_LLR, so sign flips and
            // near-erasures are routine.
            perturb(&mut soft, seed, 96);
        }
        let restored = depuncture(&soft, rate, mother.len()).unwrap();
        let mut ws = ViterbiWorkspace::new();
        let mut fast = Vec::new();
        let mut reference = Vec::new();
        dec.decode_terminated_into(&restored, &mut ws, &mut fast).unwrap();
        dec.decode_terminated_with(ViterbiKernel::Scalar, &restored, &mut ws, &mut reference)
            .unwrap();
        prop_assert_eq!(fast, reference);
    }

    /// Kernel equivalence on pure random LLRs (no codeword structure):
    /// tiny scales force constant metric ties, exercising the
    /// tie-break and traceback corners hardest, and `2^28` puts every
    /// LLR past the `i32` tiers' exactness bound, so each request must
    /// fall back to the scalar kernel. The block starts at K = 7
    /// branches so it always holds the flush tail.
    #[test]
    fn butterfly_matches_scalar_on_random_llrs(
        n_branches in 7usize..400,
        seed in any::<u64>(),
        scale_idx in 0usize..5,
    ) {
        let scale = [1i64, 4, 64, 100_000, 1 << 28][scale_idx];
        let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
        let mut noise = Noise(seed | 1);
        let soft: Vec<Llr> = (0..2 * n_branches).map(|_| noise.llr(scale)).collect();
        let outs = decode_on(&dec, &ALL_TIERS, &soft);
        prop_assert_eq!(&outs[0], &outs[2]);
        prop_assert_eq!(&outs[1], &outs[2]);
    }

    /// Kernel equivalence holds for arbitrary valid codes, not just
    /// the built-in K=7 pair (random constraint length and
    /// generators). K runs to the supported maximum of 9 so the
    /// multi-word survivor-mask path (128/256 states, 2–4 `u64` words
    /// per step) is exercised, not just the single-word K ≤ 7 case;
    /// codes too small for the lanes (K < 6) turn a `Simd` request
    /// into the butterfly tier. Scales 1 and 4 force ties.
    #[test]
    fn butterfly_matches_scalar_for_random_codes(
        k in 3usize..10,
        g_seed in any::<u64>(),
        extra_branches in 0usize..120,
        llr_seed in any::<u64>(),
        scale_idx in 0usize..3,
    ) {
        let dec = random_code(k, g_seed);
        let mut noise = Noise(llr_seed | 1);
        let scale = [1i64, 4, 50][scale_idx];
        let soft: Vec<Llr> = (0..2 * (k + extra_branches)).map(|_| noise.llr(scale)).collect();
        let outs = decode_on(&dec, &ALL_TIERS, &soft);
        prop_assert_eq!(&outs[0], &outs[2]);
        prop_assert_eq!(&outs[1], &outs[2]);
    }

    /// Explicit-kernel dispatch: the SIMD tier, the butterfly tier and
    /// the scalar reference decode terminated blocks identically across
    /// all rates. Tiny noise scales force constant metric ties, the
    /// hardest case for lane-for-lane equivalence.
    #[test]
    fn simd_matches_butterfly_and_scalar_terminated(
        info in bitvec(256),
        rate_idx in 0usize..3,
        seed in any::<u64>(),
        scale_idx in 0usize..3,
    ) {
        let rate = CodeRate::ALL[rate_idx];
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let mother = enc.encode_terminated(&info);
        let tx = puncture(&mother, rate);
        let mut soft: Vec<Llr> = tx.iter().map(|&b| hard_to_llr(b)).collect();
        perturb(&mut soft, seed, [1i64, 4, 96][scale_idx]);
        let restored = depuncture(&soft, rate, mother.len()).unwrap();
        let outs = decode_on(&dec, &ALL_TIERS, &restored);
        prop_assert_eq!(&outs[0], &outs[1]);
        prop_assert_eq!(&outs[0], &outs[2]);
    }

    /// SIMD equivalence holds for random codes on pure random LLRs
    /// (K ≥ 6 fills the lanes; K = 5 runs the butterfly tier).
    #[test]
    fn simd_matches_scalar_for_random_codes(
        k in 5usize..10,
        g_seed in any::<u64>(),
        n_branches in 10usize..120,
        llr_seed in any::<u64>(),
    ) {
        let dec = random_code(k, g_seed);
        let mut noise = Noise(llr_seed | 1);
        let soft: Vec<Llr> = (0..2 * n_branches).map(|_| noise.llr(50)).collect();
        let outs = decode_on(&dec, &[ViterbiKernel::Simd, ViterbiKernel::Scalar], &soft);
        prop_assert_eq!(&outs[0], &outs[1]);
    }
}

proptest! {
    /// At the edge of the SIMD tier's bound, where the `i16` metric
    /// spread is widest, every tier still decodes identically: the
    /// paper's code and random K=6..=9 codes, every LLR at ±bound.
    #[test]
    fn simd_matches_scalar_at_the_lane_bound(
        k in 6usize..10,
        g_seed in any::<u64>(),
        paper in any::<bool>(),
        extra_branches in 0usize..200,
        seed in any::<u64>(),
        pattern in 0usize..3,
    ) {
        let dec = if paper {
            ViterbiDecoder::new(CodeSpec::ieee80211a())
        } else {
            random_code(k, g_seed)
        };
        let k = dec.spec().constraint_length();
        let soft = bound_llrs(2 * (k - 1 + extra_branches), lane_bound(k, 2), seed, pattern);
        prop_assert!(dec.kernel_name(&soft).starts_with("simd-"));
        let outs = decode_on(&dec, &ALL_TIERS, &soft);
        prop_assert_eq!(&outs[0], &outs[2]);
        prop_assert_eq!(&outs[1], &outs[2]);
    }

    /// The start-up handover from saturating to wrapping metrics:
    /// blocks of exactly K−1, K and K+1 branches, and terminated blocks
    /// of 24 info bits and of the 28-bit SIGNAL field.
    #[test]
    fn simd_matches_scalar_across_the_startup_handover(
        k in 6usize..10,
        g_seed in any::<u64>(),
        len_idx in 0usize..5,
        seed in any::<u64>(),
        pattern in 0usize..4,
    ) {
        let dec = random_code(k, g_seed);
        let n_branches = [k - 1, k, k + 1, 24 + k - 1, 28 + k - 1][len_idx];
        let soft = bound_llrs(2 * n_branches, lane_bound(k, 2), seed, pattern);
        let outs = decode_on(&dec, &ALL_TIERS, &soft);
        prop_assert_eq!(&outs[0], &outs[2]);
        prop_assert_eq!(&outs[1], &outs[2]);
    }
}

#[test]
fn kernel_name_reflects_dispatch() {
    let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
    let soft = vec![10 as Llr; 48];
    let name = dec.kernel_name(&soft);
    assert!(name.starts_with("simd-"), "got {name}");
    // The SIMD tier takes LLR magnitudes up to its i16 bound (1170 for
    // K=7 r=1/2); one more falls to the butterfly tier.
    let bound = lane_bound(7, 2);
    assert_eq!(bound, 1170);
    assert!(dec.kernel_name(&[bound, -bound]).starts_with("simd-"));
    assert_eq!(dec.kernel_name(&[bound + 1, 0]), "butterfly");
    assert_eq!(dec.kernel_name(&[0, -bound - 1]), "butterfly");
    // LLRs beyond the i32 exactness bound always fall back to scalar.
    assert_eq!(dec.kernel_name(&[1 << 28, 0]), "scalar");
    // K=3 has too few states for the 16-lane tier: butterfly at best.
    let k3 = ViterbiDecoder::new(CodeSpec::new(3, vec![0o5, 0o7], 1).unwrap());
    assert_eq!(k3.kernel_name(&soft), "butterfly");
}

#[test]
fn profiled_decode_matches_plain_and_names_its_kernel() {
    let spec = CodeSpec::ieee80211a();
    let mut enc = ConvolutionalEncoder::new(spec.clone());
    let dec = ViterbiDecoder::new(spec);
    let info: Vec<u8> = (0..300).map(|i| u8::from((i * 37 + 11) % 9 < 4)).collect();
    let mut soft: Vec<Llr> = enc
        .encode_terminated(&info)
        .iter()
        .map(|&b| hard_to_llr(b))
        .collect();
    perturb(&mut soft, 0x9e3779b9, 80);
    let mut ws = ViterbiWorkspace::new();
    let mut plain = Vec::new();
    let mut profiled = Vec::new();
    dec.decode_terminated_into(&soft, &mut ws, &mut plain).unwrap();
    let profile = dec
        .decode_terminated_profiled(&soft, &mut ws, &mut profiled)
        .unwrap();
    assert_eq!(plain, profiled);
    assert_eq!(profile.kernel, dec.kernel_name(&soft));
}
