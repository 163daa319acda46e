//! 16-lane `i16` SIMD tier of the butterfly ACS kernel.
//!
//! The paper's Viterbi core reaches its rate by replicating the ACS
//! butterfly in fabric, and hardware ACS arrays keep their metric
//! registers narrow with modulo normalisation (Hekstra, "An alternative
//! to metric rescaling in Viterbi decoders", IEEE Trans. Commun., 1989).
//! This module is the software analogue of both: one
//! [`SimdTrellis::forward`] call runs the whole forward pass of a block
//! on wrapping `i16` metrics, sixteen butterflies per register, and
//! writes the butterfly tier's survivor words, so the butterfly
//! traceback reads them unchanged and the decoded bits are identical.
//!
//! # Lane layout
//!
//! The `S` metrics stay in registers for the whole block (four for
//! K=7), one register pair per group of sixteen butterflies: group `g`
//! owns predecessors `32g..32g+32`. Per group and branch:
//!
//! * **De-interleave.** Two 128-bit permutes pair up the low and the
//!   high halves of the two registers. Viewed as `i32`, each lane then
//!   holds the state pair `2j`/`2j+1`; masking or shifting out one
//!   `i16` and an unsigned pack give `m0 = cur[2j]` and `m1 = cur[2j+1]`
//!   in butterfly order.
//! * **Branch metrics.** The `2^n`-entry table (`n ≤ 3`) is built inline
//!   per branch from broadcast LLRs and per-output sign patterns, in
//!   both 128-bit halves; each of a group's four label slots is then
//!   gathered with one byte shuffle through controls built by `new`.
//! * **Select and decide.** Successors `j` and `S/2 + j` compare
//!   `m0 + bm[c0]` with `m1 + bm[c1]` (and `c2`/`c3`). A signed pack, a
//!   64-bit permute and a byte movemask turn two compare masks into 32
//!   decision bits in state order.
//!
//! The portable implementation is a fixed-array twin: one stack row,
//! the same table, start-up split, compare and select, one butterfly at
//! a time. Hosts without AVX2 run it; a unit test runs both.
//!
//! # Modulo compare and start-up
//!
//! Adds wrap. The decision is `(b − a) as i16 > 0` and the survivor is
//! `a + max(b − a, 0)`, so ties keep predecessor `2j` as in the scalar
//! kernel. Stored metrics are the true ones modulo `2^16`, and a wrapped
//! difference is the true one while that lies in `±(2^15 − 1)`, so no
//! renormalisation is needed.
//!
//! For the first `K − 1` branches some states are unreachable. They
//! start at an `i16::MIN` floor, adds saturate and the compare is
//! direct. After `t` branches a reachable metric lies in `±t·n·L`
//! (`L = max|LLR|`) and an unreachable one below `−2^15 + t·n·L`; with
//! the bound below (`2·(K − 1)·n·L < 2^15`) reachable candidates always
//! beat unreachable ones, compare exactly, and never saturate. From
//! branch `K − 1` on every state is reachable and exact, and the pass
//! switches to wrapping adds. Decisions between two unreachable
//! candidates may differ from the `i32` tiers; traceback never reads
//! them.
//!
//! # Eligibility bound
//!
//! Within one branch `bm_max − bm_min ≤ 2·n·L`. After any step
//! `t ≥ K − 1` the metric spread is at most `(K − 1)·2·n·L`: the best
//! state at `t − K + 1` reaches every state in `K − 1` steps, so no
//! metric at `t` lies below that path, and none above the best state
//! plus the per-step maxima. A compare adds one branch, so
//! `|b − a| ≤ K·2·n·L`, and the tier is exact when
//!
//! `L ≤ ⌊(2^15 − 1) / (2·n·K)⌋`,
//!
//! 1170 for the K=7 rate-1/2 code: above the demapper's `LLR_CLAMP`
//! (1024) and [`HARD_LLR`](crate::HARD_LLR) (64). Codes with more than
//! 3 outputs per input or fewer than 32 states do not fit the lanes,
//! and blocks beyond the bound fail [`SimdTrellis::exact_for`]; both
//! run on the butterfly tier instead.

use crate::butterfly::ButterflyTrellis;
use crate::Llr;

/// Metric lanes per register — one AVX2 register of `i16`.
const LANES: usize = 16;

/// Largest state count of a [`CodeSpec`](crate::CodeSpec) (K = 9).
const MAX_STATES: usize = 256;

/// Branch-metric table entries one 128-bit byte shuffle can address.
const TABLE: usize = 8;

/// Which lane implementation backs [`SimdTrellis::forward`], fixed at
/// construction from runtime CPU-feature detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneKernel {
    /// AVX2 intrinsics (x86-64 with runtime `avx2` support).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The portable fixed-array twin.
    Portable,
}

/// Precomputed 16-lane view of a [`ButterflyTrellis`].
#[derive(Debug, Clone)]
pub(crate) struct SimdTrellis {
    /// Per group of sixteen butterflies and per label slot (the
    /// `coded[j][2*b + p]` layout of [`ButterflyTrellis::labels`]), the
    /// byte-shuffle control gathering each lane's branch metric: label
    /// `c` reads table bytes `2c`, `2c + 1` of the lane's 128-bit half.
    ctl: Vec<[[u8; 2 * LANES]; 4]>,
    /// Per output bit `i`, the table's sign pattern: lane `c` (mod 8) is
    /// `+1` or `-1` as bit `i` of `c` is 0 or 1, and 0 past `2^n`.
    sgn: [[i16; LANES]; 3],
    /// Outputs per input (`n`).
    n_out: usize,
    /// `K − 1`: branches run on the saturating start-up path.
    startup: usize,
    /// Largest LLR magnitude for which the `i16` metrics are exact.
    max_abs_llr: u32,
    /// The lane implementation selected at construction.
    kernel: LaneKernel,
}

impl SimdTrellis {
    /// Builds the lane tables, or `None` when the code shape does not
    /// fit the lanes (see the module docs).
    pub(crate) fn new(bf: &ButterflyTrellis) -> Option<Self> {
        let (n_states, table_len) = (bf.n_states(), bf.table_len());
        if table_len > TABLE || !(2 * LANES..=MAX_STATES).contains(&n_states) {
            return None;
        }
        let n_out = table_len.trailing_zeros() as usize;
        let k = n_states.trailing_zeros() as usize + 1;
        let mut ctl = vec![[[0u8; 2 * LANES]; 4]; n_states / (2 * LANES)];
        for (j, labels) in bf.labels().iter().enumerate() {
            for (slot, &c) in ctl[j / LANES].iter_mut().zip(labels) {
                slot[2 * (j % LANES)..][..2].copy_from_slice(&[2 * c, 2 * c + 1]);
            }
        }
        let mut sgn = [[0i16; LANES]; 3];
        for (i, lanes) in sgn.iter_mut().enumerate().take(n_out) {
            for (lane, s) in lanes.iter_mut().enumerate() {
                let c = lane % TABLE;
                if c < table_len {
                    *s = 1 - 2 * ((c >> i) & 1) as i16;
                }
            }
        }
        Some(Self {
            ctl,
            sgn,
            n_out,
            startup: k - 1,
            max_abs_llr: i16::MAX as u32 / (2 * n_out * k) as u32,
            kernel: pick_kernel(),
        })
    }

    /// Name of the lane implementation actually selected — what the
    /// benches record so numbers from different hosts are comparable.
    pub(crate) fn name(&self) -> &'static str {
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            LaneKernel::Avx2 => "simd-avx2",
            LaneKernel::Portable => "simd-portable",
        }
    }

    /// Whether a block whose largest LLR magnitude is `peak` stays
    /// inside the eligibility bound (see the module docs).
    pub(crate) fn exact_for(&self, peak: u32) -> bool {
        peak <= self.max_abs_llr
    }

    /// The whole forward pass of a block: branch metrics and
    /// add-compare-select for every branch of `soft` (whole branches,
    /// peak within `exact_for`), writing each branch's survivor words
    /// into `masks` in the layout of `bf`, the tables `self` was built
    /// from.
    pub(crate) fn forward(&self, bf: &ButterflyTrellis, soft: &[Llr], masks: &mut [u64]) {
        debug_assert!(soft.iter().all(|l| self.exact_for(l.unsigned_abs())));
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the `Avx2` variant is only constructed after
            // `is_x86_feature_detected!("avx2")` reported support on
            // this CPU, so the target-feature contract holds.
            // phylint: allow(simd_guard) -- the `Avx2` kernel variant is only constructed after `is_x86_feature_detected!("avx2")` succeeded in `pick_kernel`, so this dispatch site is feature-guarded at construction time
            LaneKernel::Avx2 => unsafe { self.forward_avx2(soft, masks) },
            LaneKernel::Portable => self.forward_portable(bf, soft, masks),
        }
    }

    // phylint: hot
    /// The portable twin of the AVX2 pass (see the module docs).
    fn forward_portable(&self, bf: &ButterflyTrellis, soft: &[Llr], masks: &mut [u64]) {
        let (mut a, mut b) = ([i16::MIN; MAX_STATES], [0i16; MAX_STATES]);
        a[0] = 0;
        let (mut cur, mut nxt) = (&mut a, &mut b);
        let half = bf.n_states() / 2;
        let steps = soft
            .chunks_exact(self.n_out)
            .zip(masks.chunks_exact_mut(bf.words_per_step()));
        for (t, (branch, surv)) in steps.enumerate() {
            let mut bm = [0i16; TABLE];
            for (&l, sgn) in branch.iter().zip(&self.sgn) {
                for (entry, &s) in bm.iter_mut().zip(sgn) {
                    *entry += s * l as i16;
                }
            }
            surv.fill(0);
            for (j, c) in bf.labels().iter().enumerate() {
                let (m0, m1) = (cur[2 * j], cur[2 * j + 1]);
                for (succ, s) in [(j, 0), (half + j, 2)] {
                    let (g0, g1) = (bm[usize::from(c[s])], bm[usize::from(c[s + 1])]);
                    let (metric, sel) = if t < self.startup {
                        let (a, b) = (m0.saturating_add(g0), m1.saturating_add(g1));
                        (a.max(b), b > a)
                    } else {
                        let a = m0.wrapping_add(g0);
                        let d = m1.wrapping_add(g1).wrapping_sub(a);
                        (a.wrapping_add(d.max(0)), d > 0)
                    };
                    nxt[succ] = metric;
                    surv[succ / 64] |= u64::from(sel) << (succ % 64);
                }
            }
            std::mem::swap(&mut cur, &mut nxt);
        }
    }
    // phylint: end-hot

    /// AVX2 forward pass, monomorphised per group count so the metric
    /// row stays in registers.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: callers must have verified AVX2 support at run time
    // (enforced by construction — `LaneKernel::Avx2` exists only behind
    // a positive `is_x86_feature_detected!`). `new` guarantees
    // `ctl.len()` is 1, 2, 4 or 8 (32 to 256 states).
    unsafe fn forward_avx2(&self, soft: &[Llr], masks: &mut [u64]) {
        match self.ctl.len() {
            1 => avx2::forward::<1>(self, soft, masks),
            2 => avx2::forward::<2>(self, soft, masks),
            4 => avx2::forward::<4>(self, soft, masks),
            _ => avx2::forward::<8>(self, soft, masks),
        }
    }
}

/// The AVX2 body of [`SimdTrellis::forward_avx2`]. Its helpers are
/// `#[inline(always)]` so they compile inside that function's AVX2
/// context; nothing here may be called from anywhere else.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{SimdTrellis, LANES, MAX_STATES};
    use crate::Llr;
    use std::arch::x86_64::*;

    // phylint: hot
    /// Whole-block pass over `G` groups of sixteen butterflies.
    #[inline(always)]
    // SAFETY: only reached from `SimdTrellis::forward_avx2`, an AVX2
    // target-feature function, with `G == tr.ctl.len()`. Loads read the
    // fixed-size `ctl`/`sgn` arrays whole; LLR casts to `i16` are exact
    // because `forward` runs only on blocks within the eligibility
    // bound (`|l| < 2^15 / 24` for any code that fits the lanes).
    pub(super) unsafe fn forward<const G: usize>(
        tr: &SimdTrellis,
        soft: &[Llr],
        masks: &mut [u64],
    ) {
        debug_assert_eq!(tr.ctl.len(), G);
        let mut ctl = [[_mm256_setzero_si256(); 4]; G];
        for (regs, bytes) in ctl.iter_mut().zip(&tr.ctl) {
            for (reg, b) in regs.iter_mut().zip(bytes) {
                *reg = _mm256_loadu_si256(b.as_ptr().cast());
            }
        }
        let sgn = tr.sgn.map(|s| _mm256_loadu_si256(s.as_ptr().cast()));
        let floor = _mm256_set1_epi16(i16::MIN);
        let mut a = [[floor; 2]; G];
        a[0][0] = _mm256_insert_epi16::<0>(floor, 0);
        let mut b = a;

        let words = (2 * G * LANES).div_ceil(64);
        let mut steps = soft
            .chunks_exact(tr.n_out)
            .zip(masks.chunks_exact_mut(words));
        for (branch, surv) in steps.by_ref().take(tr.startup) {
            step::<G, false>(&a, &mut b, table(branch, &sgn), &ctl, surv);
            a = b;
        }
        // Two branches per iteration, so the rows ping-pong between `a`
        // and `b` with fixed roles and never need copying.
        while let Some((branch, surv)) = steps.next() {
            step::<G, true>(&a, &mut b, table(branch, &sgn), &ctl, surv);
            let Some((branch, surv)) = steps.next() else {
                break;
            };
            step::<G, true>(&b, &mut a, table(branch, &sgn), &ctl, surv);
        }
    }

    /// The branch-metric table, duplicated in both 128-bit halves:
    /// lane `c` is `Σ ±l_i` by the sign patterns.
    #[inline(always)]
    // SAFETY: AVX2 context inherited from `forward`.
    unsafe fn table(branch: &[Llr], sgn: &[__m256i; 3]) -> __m256i {
        let term = |l: Llr, s| _mm256_sign_epi16(_mm256_set1_epi16(l as i16), s);
        match *branch {
            [l0, l1] => _mm256_add_epi16(term(l0, sgn[0]), term(l1, sgn[1])),
            [l0, l1, l2] => _mm256_add_epi16(
                _mm256_add_epi16(term(l0, sgn[0]), term(l1, sgn[1])),
                term(l2, sgn[2]),
            ),
            _ => _mm256_setzero_si256(),
        }
    }

    /// One branch over all groups: de-interleave, gather, compare,
    /// select, and the branch's survivor words.
    #[inline(always)]
    // SAFETY: AVX2 context inherited from `forward`; `surv` holds the
    // branch's `⌈32G/64⌉` survivor words.
    unsafe fn step<const G: usize, const WRAP: bool>(
        row: &[[__m256i; 2]; G],
        nxt: &mut [[__m256i; 2]; G],
        bm: __m256i,
        ctl: &[[__m256i; 4]; G],
        surv: &mut [u64],
    ) {
        let even = _mm256_set1_epi32(0xFFFF);
        let mut sel = [[_mm256_setzero_si256(); G]; 2];
        for g in 0..G {
            let [r0, r1] = row[g];
            let x = _mm256_permute2x128_si256::<0x20>(r0, r1);
            let y = _mm256_permute2x128_si256::<0x31>(r0, r1);
            let m0 = _mm256_packus_epi32(_mm256_and_si256(x, even), _mm256_and_si256(y, even));
            let m1 = _mm256_packus_epi32(_mm256_srli_epi32::<16>(x), _mm256_srli_epi32::<16>(y));
            let [c0, c1, c2, c3] = ctl[g];
            let (lo, sel_lo) = acs::<WRAP>(m0, m1, bm, c0, c1);
            let (hi, sel_hi) = acs::<WRAP>(m0, m1, bm, c2, c3);
            nxt[g / 2][g % 2] = lo;
            nxt[(G + g) / 2][(G + g) % 2] = hi;
            sel[0][g] = sel_lo;
            sel[1][g] = sel_hi;
        }
        // Decision bits, 32 states at a time: a signed pack of the masks
        // of blocks `u` and `v` gives bytes [u 0-7, v 0-7 | u 8-15, v 8-15],
        // a 64-bit permute reorders them to [u | v], one movemask reads
        // them out. Block `i` covers states `16i..16i + 16`.
        let bits = |i: usize| {
            let (u, v) = (sel[i / G][i % G], sel[(i + 1) / G][(i + 1) % G]);
            let packed = _mm256_permute4x64_epi64::<0xD8>(_mm256_packs_epi16(u, v));
            u64::from(_mm256_movemask_epi8(packed) as u32)
        };
        let mut words = [0u64; MAX_STATES / 64];
        for q in 0..G {
            words[q / 2] |= bits(2 * q) << (32 * (q % 2));
        }
        // A compile-time word count keeps the copy to plain stores.
        let n = (2 * G * LANES).div_ceil(64);
        surv[..n].copy_from_slice(&words[..n]);
    }

    /// Sixteen compare-selects, branch metrics gathered through the
    /// controls `c0`/`c1`: the survivor metrics and the compare mask
    /// (all-ones where predecessor `2j + 1` was strictly better).
    #[inline(always)]
    // SAFETY: AVX2 context inherited from `forward`.
    unsafe fn acs<const WRAP: bool>(
        m0: __m256i,
        m1: __m256i,
        bm: __m256i,
        c0: __m256i,
        c1: __m256i,
    ) -> (__m256i, __m256i) {
        let (g0, g1) = (_mm256_shuffle_epi8(bm, c0), _mm256_shuffle_epi8(bm, c1));
        let zero = _mm256_setzero_si256();
        if WRAP {
            let a = _mm256_add_epi16(m0, g0);
            let d = _mm256_sub_epi16(_mm256_add_epi16(m1, g1), a);
            let keep = _mm256_max_epi16(d, zero);
            (_mm256_add_epi16(a, keep), _mm256_cmpgt_epi16(d, zero))
        } else {
            let a = _mm256_adds_epi16(m0, g0);
            let b = _mm256_adds_epi16(m1, g1);
            (_mm256_max_epi16(a, b), _mm256_cmpgt_epi16(b, a))
        }
    }
    // phylint: end-hot
}

/// Runtime CPU-feature probe, evaluated once per decoder construction.
fn pick_kernel() -> LaneKernel {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return LaneKernel::Avx2;
    }
    LaneKernel::Portable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeSpec, ViterbiDecoder, ViterbiKernel, ViterbiWorkspace};

    #[test]
    fn both_lane_kernels_match_butterfly_on_random_codes_up_to_the_bound() {
        let mut x = 0x5eed_1a7e_5eed_1a7e_u64;
        let mut below = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut kernels = vec![LaneKernel::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(LaneKernel::Avx2);
        }
        let (mut ws, mut want, mut got) = (ViterbiWorkspace::new(), Vec::new(), Vec::new());
        for case in 0..120 {
            let (k, n) = (6 + below(4) as usize, 2 + below(2) as usize);
            let gens = (0..n).map(|_| (below((1 << k) - 1) + 1) as u32).collect();
            let mut dec = ViterbiDecoder::new(CodeSpec::new(k, gens, 1).unwrap());
            let bound = i64::from(i16::MAX) / (2 * n * k) as i64;
            let lanes = dec.simd.as_ref().expect("K ≥ 6 and n ≤ 3 fit the lanes");
            assert!(lanes.exact_for(bound as u32) && !lanes.exact_for(bound as u32 + 1));
            // Full-scale noise, ±bound extremes, and noise with erasure runs.
            let soft: Vec<Llr> = (0..n * (k - 1 + below(200) as usize))
                .map(|i| match (case % 3, i / 16 % 4) {
                    (1, _) => [bound, -bound][below(2) as usize],
                    (2, 3) => 0,
                    _ => below(2 * bound as u64 + 1) as i64 - bound,
                } as Llr)
                .collect();
            dec.decode_terminated_with(ViterbiKernel::Butterfly, &soft, &mut ws, &mut want)
                .unwrap();
            for &kernel in &kernels {
                dec.simd.as_mut().unwrap().kernel = kernel;
                dec.decode_terminated_with(ViterbiKernel::Simd, &soft, &mut ws, &mut got)
                    .unwrap();
                assert_eq!(got, want, "case {case}: K={k} n={n} on {kernel:?}");
            }
        }
    }
}
