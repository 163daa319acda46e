//! Seeded workload inputs. Everything a run feeds the transceiver —
//! payload bytes, MCS order, payload lengths and the AWGN seed — comes
//! from the `--seed` argument through one SplitMix64 stream, so a seed
//! reproduces the same bursts in the untraced and the traced run.

use mimo_channel::AwgnChannel;
use mimo_core::Mcs;

/// SNR of the AWGN channel on the two bulk workloads, dB. At 30 dB the
/// 8 KiB 64-QAM r=3/4 burst occasionally decodes with a few bit errors
/// (the receiver's EVM sits about 6 dB above the nominal SNR), and a
/// run must not fail; 40 dB leaves the worst stream near −30 dB EVM.
pub const SNR_DB: f64 = 40.0;

/// Payload bytes per burst on the two bulk workloads.
pub const BULK_PAYLOAD: usize = 8192;

/// Payload length range of the short mixed stream, bytes (inclusive).
pub const SHORT_MIN: usize = 32;
pub const SHORT_MAX: usize = 512;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64-QAM r=3/4, 8 KiB, AWGN, `MimoReceiver::receive_burst`.
    BurstQam64,
    /// BPSK r=1/2, 8 KiB, AWGN, `BurstPipeline::process_batch_ref`.
    PipelineBpsk,
    /// 32–512 B, all 8 MCS rows, framed transport into the streaming
    /// receiver, no channel model.
    StreamShortMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "burst_qam64" => Some(Self::BurstQam64),
            "pipeline_bpsk" => Some(Self::PipelineBpsk),
            "stream_short_mixed" => Some(Self::StreamShortMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::BurstQam64 => "burst_qam64",
            Self::PipelineBpsk => "pipeline_bpsk",
            Self::StreamShortMixed => "stream_short_mixed",
        }
    }

    /// Whether the workload passes its bursts through the AWGN model.
    pub fn has_channel(self) -> bool {
        self != Self::StreamShortMixed
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// these ranges.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// The burst sequence of one workload and seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    workload: Workload,
    rng: SplitMix64,
    awgn_seed: u64,
    mcs_order: [Mcs; 8],
    next: usize,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let awgn_seed = rng.next_u64();
        // Seeded Fisher–Yates order of the MCS table, cycled by the
        // short mixed stream.
        let mut mcs_order = Mcs::ALL;
        for i in (1..mcs_order.len()).rev() {
            mcs_order.swap(i, rng.below(i + 1));
        }
        Self {
            workload,
            rng,
            awgn_seed,
            mcs_order,
            next: 0,
        }
    }

    /// The seeded AWGN channel bursts pass through, in sequence order.
    pub fn channel(&self) -> AwgnChannel {
        AwgnChannel::new(4, SNR_DB, self.awgn_seed)
    }

    /// The next burst's MCS and payload.
    pub fn next_burst(&mut self) -> (Mcs, Vec<u8>) {
        let (mcs, len) = match self.workload {
            Workload::BurstQam64 => (Mcs::Qam64R34, BULK_PAYLOAD),
            Workload::PipelineBpsk => (Mcs::Bpsk12, BULK_PAYLOAD),
            Workload::StreamShortMixed => {
                let mcs = self.mcs_order[self.next % self.mcs_order.len()];
                (mcs, SHORT_MIN + self.rng.below(SHORT_MAX - SHORT_MIN + 1))
            }
        };
        self.next += 1;
        let mut payload = vec![0u8; len];
        self.rng.fill(&mut payload);
        (mcs, payload)
    }

    /// A separate sequence for warm-up bursts, so warming up never
    /// shifts the measured sequence.
    pub fn warmup(&self) -> Self {
        Self::new(self.workload, self.awgn_seed ^ 0x5741_524D_5550)
    }
}
