//! **Per-symbol receive core, kernel by kernel.**
//!
//! Times the fixed-point kernels every OFDM symbol runs through, one
//! call per row, on the paper's 64-point geometry (52 occupied
//! carriers):
//!
//! * `zf/stream_symbol` — `ZfDetector::detect_stream_into`, one output
//!   stream of one symbol (`y = row(H⁻¹) · r` per carrier);
//! * `pilot/phase` — `PilotPhaseCorrector::correct_in_place`, the
//!   common phase rotation of one symbol (one shared-angle plan);
//! * `pilot/timing` — `TimingCorrector::correct_in_place`, the `l·τ`
//!   rotation of one symbol (a CORDIC per carrier, in lane batches);
//! * `fft64/forward` and `fft64/inverse` — `FixedFft::fft_into` and
//!   `ifft_into`, the receive FFT and the transmit IFFT;
//! * `cordic/rotate` — one `Cordic::rotate`.
//!
//! Inputs are seeded and sit on the 16-bit bus, as the receiver's do,
//! so every row times the path the receiver takes. Each row cycles
//! through a pool of distinct inputs, so no row replays one input the
//! branch predictor could memorize. Reported figures are nanoseconds
//! per call (the criterion median).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mimo_chanest::FxMat4;
use mimo_cordic::Cordic;
use mimo_detect::{PilotPhaseCorrector, TimingCorrector, ZfDetector};
use mimo_fft::FixedFft;
use mimo_fixed::{CFx, CQ15, Q16};
use rand::Rng;
use rand_chacha::{rand_core::SeedableRng, ChaCha8Rng};

/// Occupied carriers of the 64-point symbol.
const CARRIERS: usize = 52;

/// Distinct seeded symbols each row cycles through, so that successive
/// calls see new data, as in a received burst, and the branch
/// predictor cannot learn one input's sign pattern.
const POOL: usize = 64;

fn sample(rng: &mut ChaCha8Rng) -> CQ15 {
    CQ15::from_f64(rng.gen_range(-0.7..0.7), rng.gen_range(-0.7..0.7))
}

fn samples(rng: &mut ChaCha8Rng, n: usize) -> Vec<CQ15> {
    (0..n).map(|_| sample(rng)).collect()
}

fn pool(rng: &mut ChaCha8Rng, n: usize) -> Vec<Vec<CQ15>> {
    (0..POOL).map(|_| samples(rng, n)).collect()
}

fn bench_detect(c: &mut Criterion, rng: &mut ChaCha8Rng) {
    // H⁻¹ words of a moderately conditioned channel: |h| < 2 in Q2.16.
    let h_inv: Vec<FxMat4> = (0..CARRIERS)
        .map(|_| {
            FxMat4::from_fn(|_, _| {
                CFx::from_f64(rng.gen_range(-1.5..1.5), rng.gen_range(-1.5..1.5))
            })
        })
        .collect();
    let rx: Vec<[Vec<CQ15>; 4]> = (0..POOL)
        .map(|_| std::array::from_fn(|_| samples(rng, CARRIERS)))
        .collect();
    let detector = ZfDetector::new();
    let mut out = vec![CQ15::ZERO; CARRIERS];

    let phase = PilotPhaseCorrector::new();
    let timing = TimingCorrector::new();
    let indices: Vec<i32> = (-26..=26).filter(|&l| l != 0).collect();
    let carriers = pool(rng, CARRIERS);
    let phases: Vec<Q16> = (0..POOL)
        .map(|_| Q16::from_f64(rng.gen_range(-3.0..3.0)))
        .collect();
    let taus: Vec<f64> = (0..POOL).map(|_| rng.gen_range(-0.03..0.03)).collect();
    let mut buf = vec![CQ15::ZERO; CARRIERS];

    let mut group = c.benchmark_group("fig_symbol_core");
    group.throughput(Throughput::Elements(CARRIERS as u64));
    let mut next = (0..POOL).cycle();
    group.bench_function("zf/stream_symbol", |b| {
        b.iter(|| {
            let rx = &rx[next.next().unwrap_or(0)];
            let lanes: [&[CQ15]; 4] = std::array::from_fn(|a| rx[a].as_slice());
            detector.detect_stream_into(black_box(&h_inv), &lanes, 1, &mut out)
        })
    });
    group.bench_function("pilot/phase", |b| {
        b.iter(|| {
            let k = next.next().unwrap_or(0);
            buf.copy_from_slice(&carriers[k]);
            phase.correct_in_place(black_box(&mut buf), phases[k]);
        })
    });
    group.bench_function("pilot/timing", |b| {
        b.iter(|| {
            let k = next.next().unwrap_or(0);
            buf.copy_from_slice(&carriers[k]);
            timing.correct_in_place(black_box(&mut buf), &indices, taus[k]);
        })
    });
    group.finish();
}

fn bench_fft(c: &mut Criterion, rng: &mut ChaCha8Rng) {
    let fft = FixedFft::new(64).expect("64 is a supported size");
    let blocks = pool(rng, 64);
    let mut out = vec![CQ15::ZERO; 64];
    let mut next = (0..POOL).cycle();
    let mut group = c.benchmark_group("fig_symbol_core");
    group.throughput(Throughput::Elements(64));
    group.bench_function("fft64/forward", |b| {
        b.iter(|| fft.fft_into(black_box(&blocks[next.next().unwrap_or(0)]), &mut out))
    });
    group.bench_function("fft64/inverse", |b| {
        b.iter(|| fft.ifft_into(black_box(&blocks[next.next().unwrap_or(0)]), &mut out))
    });
    group.finish();
}

fn bench_cordic(c: &mut Criterion, rng: &mut ChaCha8Rng) {
    let cordic = Cordic::new();
    let (x, y) = (
        Q16::from_f64(rng.gen_range(-1.0..1.0)),
        Q16::from_f64(rng.gen_range(-1.0..1.0)),
    );
    // A fresh angle over the whole circle per call, as the QRD cells
    // see them: a short repeating angle table would let the branch
    // predictor learn the micro-rotation directions.
    let pi = Q16::from_f64(std::f64::consts::PI).raw();
    let mut state: u64 = rng.gen::<u64>() | 1;
    c.bench_function("fig_symbol_core/cordic/rotate", |b| {
        b.iter(|| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let angle = Q16::from_raw((state >> 40) as i64 % (2 * pi) - pi);
            cordic.rotate(black_box(x), black_box(y), angle)
        })
    });
}

fn symbol_core(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_c0de);
    bench_detect(c, &mut rng);
    bench_fft(c, &mut rng);
    bench_cordic(c, &mut rng);
}

criterion_group!(benches, symbol_core);
criterion_main!(benches);
