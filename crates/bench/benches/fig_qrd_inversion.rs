//! **Experiment F5 — Figs 5–7: the matrix-inversion pipeline.**
//!
//! QRD → R⁻¹ → R⁻¹·Qᵀ over every occupied subcarrier, with the
//! fixed-point accuracy of the pipeline reported against the f64
//! reference.
//!
//! Rows: `qrd_all_52_subcarriers` and `full_inversion_52_subcarriers`
//! run `CordicQrd::decompose` one matrix at a time;
//! `invert_all_52_subcarriers` runs the receiver's batch path,
//! `ChannelEstimate::invert_all` (the QRD on carrier lanes), over a
//! seeded pool of estimates that `ChannelEstimator::estimate` built
//! from random LTS blocks.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mimo_chanest::{
    invert_upper_triangular, qr_givens_f64, ChannelEstimate, ChannelEstimator, CordicQrd, FxMat4,
    Mat4,
};
use mimo_fixed::{Cf64, CQ15};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn random_channels(n: usize, seed: u64) -> Vec<Mat4> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Mat4::from_fn(|_, _| Cf64::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5))))
        .collect()
}

/// Estimates in the `invert_all` pool; each call sees the next one.
const POOL: usize = 16;

/// A pool of 64-point channel estimates (52 carriers each) from random
/// LTS blocks: samples uniform in ±0.5 on every (RX antenna, TX slot),
/// as a rich-scattering channel would give. Only estimates that invert
/// are kept, so every call runs all 52 carriers.
fn estimate_pool(seed: u64) -> Vec<ChannelEstimate> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let estimator = ChannelEstimator::new(64).expect("64-point FFT is supported");
    let qrd = CordicQrd::new();
    let mut pool = Vec::new();
    while pool.len() < POOL {
        let blocks: Vec<Vec<Vec<CQ15>>> = (0..4)
            .map(|_| {
                (0..4)
                    .map(|_| {
                        (0..128)
                            .map(|_| {
                                CQ15::from_f64(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let estimate = estimator.estimate(&blocks).expect("well-formed LTS blocks");
        if estimate.invert_all(&qrd).is_ok() {
            pool.push(estimate);
        }
    }
    pool
}

fn print_accuracy_report() {
    let channels = random_channels(52, 42);
    let qrd = CordicQrd::new();
    let mut worst_qr = 0.0f64;
    let mut worst_inv = 0.0f64;
    let mut inverted = 0usize;
    for h in &channels {
        let hf = h.to_fixed();
        let d = qrd.decompose(&hf);
        // Fixed R vs float reference R.
        let (_, r_ref) = qr_givens_f64(h);
        worst_qr = worst_qr.max(d.r.to_f64().max_distance(&r_ref));
        // ||H^-1 H - I||.
        if let Ok(r_inv) = invert_upper_triangular(&d.r) {
            let h_inv = r_inv.mul_mat(&d.q_h);
            let err = h_inv.mul_mat(&hf).to_f64().max_distance(&Mat4::identity());
            worst_inv = worst_inv.max(err);
            inverted += 1;
        }
    }
    eprintln!("\n=== F5: Matrix-inversion pipeline accuracy (52 subcarriers) ===");
    eprintln!("max |R_fixed - R_f64| element error: {worst_qr:.5}");
    eprintln!("max ||H^-1 H - I|| element error:    {worst_inv:.5}");
    eprintln!("subcarriers inverted: {inverted}/52\n");
}

fn bench(c: &mut Criterion) {
    print_accuracy_report();

    let channels: Vec<FxMat4> = random_channels(52, 7).iter().map(Mat4::to_fixed).collect();
    let qrd = CordicQrd::new();

    let mut group = c.benchmark_group("fig5_inversion");
    group.throughput(Throughput::Elements(channels.len() as u64));
    group.bench_function("qrd_all_52_subcarriers", |b| {
        b.iter(|| {
            channels
                .iter()
                .map(|h| qrd.decompose(h))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("full_inversion_52_subcarriers", |b| {
        b.iter(|| {
            channels
                .iter()
                .filter_map(|h| {
                    let d = qrd.decompose(h);
                    invert_upper_triangular(&d.r).ok().map(|ri| ri.mul_mat(&d.q_h))
                })
                .count()
        })
    });
    let pool = estimate_pool(11);
    let mut next = (0..POOL).cycle();
    group.bench_function("invert_all_52_subcarriers", |b| {
        b.iter(|| {
            let k = next.next().unwrap_or(0);
            black_box(&pool[k]).invert_all(&qrd).map(|inv| inv.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
