//! Differential tests: the precomputed-table `i64` butterflies (and
//! their generic fallback) against the original in-place radix-2 loop.

use mimo_fft::{FftScaling, FixedFft};
use mimo_fixed::{Cf64, Fx, CQ15, SAMPLE_BITS};
use proptest::prelude::*;

/// Every supported transform size.
const SIZES: [usize; 10] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// The transform as `FixedFft` computed it before the table-driven
/// kernels: twiddles strided out of the `N/2`-entry ROM, swap-based
/// bit reversal, and the generic saturating `CQ15` operators.
fn reference_transform(n: usize, scaling: FftScaling, input: &[CQ15], inverse: bool) -> Vec<CQ15> {
    let twiddles: Vec<CQ15> = (0..n / 2)
        .map(|k| {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            Cf64::from_polar(1.0, ang)
                .to_fixed::<15>()
                .saturate_bits(SAMPLE_BITS)
        })
        .collect();
    let mut data = input.to_vec();
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            data.swap(i, j);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
    let mut len = 2;
    while len <= n {
        let step = n / len;
        for chunk in data.chunks_mut(len) {
            let half = len / 2;
            for i in 0..half {
                let tw = twiddles[i * step];
                let tw = if inverse { tw.conj() } else { tw };
                let u = chunk[i];
                let v = chunk[i + half] * tw;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
            }
        }
        len <<= 1;
    }
    let shift = if inverse {
        scaling.inverse_shift
    } else {
        scaling.forward_shift
    };
    for c in data.iter_mut() {
        *c = c.shr_round(shift).saturate_bits(SAMPLE_BITS);
    }
    data
}

fn cq(re: i64, im: i64) -> CQ15 {
    CQ15::new(Fx::from_raw(re), Fx::from_raw(im))
}

/// Checks both directions of one block against the reference.
fn check(n: usize, scaling: FftScaling, input: &[CQ15]) -> Result<(), TestCaseError> {
    let fft = FixedFft::with_scaling(n, scaling).expect("supported size");
    let mut out = vec![CQ15::ZERO; n];
    fft.fft_into(input, &mut out).expect("lengths match");
    prop_assert_eq!(
        &out,
        &reference_transform(n, scaling, input, false),
        "forward N={}",
        n
    );
    fft.ifft_into(input, &mut out).expect("lengths match");
    prop_assert_eq!(
        &out,
        &reference_transform(n, scaling, input, true),
        "inverse N={}",
        n
    );
    Ok(())
}

/// A raw word on (or just past) the 16-bit bus, biased toward the
/// saturation points.
fn bus_word() -> impl Strategy<Value = i64> {
    (0u8..8, -32768i64..32768).prop_map(|(kind, v)| match kind {
        0 => -32768,
        1 => 32767,
        2 => 32768,
        _ => v,
    })
}

/// A word outside the fast path's range: from `2^28` up to the `i64`
/// extremes.
fn wide_word() -> impl Strategy<Value = i64> {
    (28u32..64, any::<i64>(), any::<bool>()).prop_map(|(bits, v, neg)| {
        let magnitude = (v as u64 >> (64 - bits)) | (1u64 << (bits - 1));
        let w = magnitude as i64;
        if neg {
            w.wrapping_neg()
        } else {
            w
        }
    })
}

/// A block of the largest size; each case uses its first `N` words.
/// `outlier` optionally plants one wide word to force the fallback.
#[allow(clippy::type_complexity)]
fn block() -> impl Strategy<Value = (usize, Vec<(i64, i64)>, Option<(usize, i64)>, bool)> {
    (
        0usize..SIZES.len(),
        proptest::collection::vec((bus_word(), bus_word()), 4096),
        (any::<bool>(), any::<prop::sample::Index>(), wide_word()),
        any::<bool>(),
    )
        .prop_map(|(size, words, (plant, at, wide), unscaled)| {
            let n = SIZES[size];
            (n, words, plant.then(|| (at.index(n), wide)), unscaled)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary bus-range blocks of every size, forward and inverse,
    /// under default and no scaling, with and without a wide outlier.
    #[test]
    fn table_kernels_match_reference((n, words, outlier, unscaled) in block()) {
        let mut input: Vec<CQ15> = words[..n].iter().map(|&(re, im)| cq(re, im)).collect();
        if let Some((at, wide)) = outlier {
            input[at] = cq(wide, input[at].im.raw());
        }
        let scaling = if unscaled { FftScaling::none() } else { FftScaling::for_size(n) };
        check(n, scaling, &input)?;
    }

    /// Words right at the guard boundary take the fast path (below
    /// `2^28`) or the fallback (at `2^28`), and both stay exact.
    #[test]
    fn guard_boundary_is_exact(size in 0usize..SIZES.len(), words in proptest::collection::vec(any::<bool>(), 4096)) {
        let n = SIZES[size];
        for edge in [(1i64 << 28) - 1, 1 << 28] {
            let input: Vec<CQ15> = words[..n]
                .iter()
                .map(|&neg| if neg { cq(-edge, edge) } else { cq(edge, -edge) })
                .collect();
            check(n, FftScaling::none(), &input)?;
        }
    }
}

/// Full-scale blocks of every size: all words at one saturation point,
/// and all at the `i64` extremes.
#[test]
fn saturated_blocks_of_every_size_match_reference() {
    for &n in &SIZES {
        for (re, im) in [
            (-32768, -32768),
            (32767, -32768),
            (32768, 32767),
            (i64::MAX, i64::MIN),
        ] {
            let input = vec![cq(re, im); n];
            check(n, FftScaling::for_size(n), &input).unwrap();
            check(n, FftScaling::none(), &input).unwrap();
        }
    }
}
