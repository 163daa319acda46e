//! The untraced runs: end-to-end metrics of the three workloads, every
//! decoded payload compared with what was sent.

use std::time::{Duration, Instant};

use mimo_channel::ChannelModel;
use mimo_core::{BurstPipeline, LinkGeometry, MimoReceiver, MimoTransmitter, PhyConfig};
use mimo_fixed::CQ15;

use crate::error::BenchError;
use crate::gen::{Inputs, Workload};
use crate::link::Link;
use crate::replay::{check_rx, check_tx, Replay, Spans};
use crate::report::{best_viterbi_kernel, median, quantile};

/// Set-ups before the first burst; one more runs at every window
/// boundary, so `setup_s` samples the whole run, not one moment of it.
const SETUP_REPS: usize = 5;
/// Untimed bursts through the measured endpoints before timing starts.
const WARMUP_BURSTS: usize = 2;
/// Bursts per `BurstPipeline` batch.
pub const BATCH: usize = 8;
/// Bursts a run needs before it may stop: the kept half of the run then
/// holds about 100, so p90 has ten samples above it.
const MIN_BURSTS: u64 = 200;
/// Hard stop, whatever the burst count, so a run ends well inside its
/// time limit on a slow host.
const MAX_RUN: Duration = Duration::from_secs(120);
/// Wall time per window.
const WINDOW: Duration = Duration::from_secs(1);

/// One window of a run.
#[derive(Debug, Default, Clone)]
struct Window {
    /// Payload bits of the bursts attempted.
    bits: f64,
    /// Time in the TX API calls.
    tx: Duration,
    /// Time in the RX API calls.
    rx: Duration,
    /// TX→RX wall time with channel-model time taken out.
    loopback: Duration,
    /// Last-sample-in to decoded-burst-out times, ms.
    latencies_ms: Vec<f64>,
}

impl Window {
    fn mbps(&self, time: Duration) -> f64 {
        self.bits / time.as_secs_f64() / 1e6
    }
}

/// The end-to-end figures of one run.
#[derive(Debug)]
pub struct Summary {
    pub setup_s: f64,
    pub tx_mbps: f64,
    pub rx_mbps: f64,
    pub loopback_mbps: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
}

/// Totals of one untraced run.
///
/// The run is cut into one-second windows, and the figures come from
/// the faster half of them, ranked by RX throughput. On a shared host a
/// neighbour's load slows some windows; a slowdown of the code slows
/// every window, so dropping the slower half keeps it in view.
#[derive(Debug)]
pub struct E2e {
    setups_s: Vec<f64>,
    windows: Vec<Window>,
    open: Window,
    opened: Instant,
    pub attempted: u64,
    /// Bursts that errored or went missing.
    pub failed: u64,
    /// Bursts decoded to a payload other than the one sent.
    pub mismatched: u64,
    /// The dispatched Viterbi tier.
    pub kernel: &'static str,
    pub pipeline_workers: usize,
}

impl E2e {
    fn new() -> Self {
        Self {
            setups_s: Vec::new(),
            windows: Vec::new(),
            open: Window::default(),
            opened: Instant::now(),
            attempted: 0,
            failed: 0,
            mismatched: 0,
            kernel: "",
            pipeline_workers: 0,
        }
    }

    fn done(&self, start: Instant, seconds: f64) -> bool {
        let elapsed = start.elapsed();
        (elapsed.as_secs_f64() >= seconds && self.attempted >= MIN_BURSTS) || elapsed >= MAX_RUN
    }

    fn time(&mut self, tx: Duration, rx: Duration, loopback: Duration) {
        self.open.tx += tx;
        self.open.rx += rx;
        self.open.loopback += loopback;
    }

    fn latency(&mut self, d: Duration) {
        self.open.latencies_ms.push(d.as_secs_f64() * 1e3);
    }

    fn decoded(&mut self, sent: &[u8], got: Option<&[u8]>) {
        self.attempted += 1;
        self.open.bits += 8.0 * sent.len() as f64;
        match got {
            Some(p) if p == sent => {}
            Some(_) => self.mismatched += 1,
            None => self.failed += 1,
        }
    }

    /// Closes the open window once it spans `WINDOW`; returns whether
    /// it did.
    fn tick(&mut self) -> bool {
        if self.opened.elapsed() < WINDOW {
            return false;
        }
        self.windows.push(std::mem::take(&mut self.open));
        self.opened = Instant::now();
        true
    }

    pub fn summary(&self) -> Summary {
        let mut kept: Vec<&Window> = self.windows.iter().collect();
        if kept.len() < 2 {
            kept.push(&self.open);
        }
        kept.sort_by(|a, b| b.mbps(b.rx).total_cmp(&a.mbps(a.rx)));
        kept.truncate(kept.len().div_ceil(2));
        let total = |f: fn(&Window) -> Duration| kept.iter().map(|w| f(w)).sum::<Duration>();
        let bits: f64 = kept.iter().map(|w| w.bits).sum();
        let mbps = |d: Duration| bits / d.as_secs_f64() / 1e6;
        let latencies: Vec<f64> = kept
            .iter()
            .flat_map(|w| w.latencies_ms.iter().copied())
            .collect();
        Summary {
            setup_s: median(&self.setups_s),
            tx_mbps: mbps(total(|w| w.tx)),
            rx_mbps: mbps(total(|w| w.rx)),
            loopback_mbps: mbps(total(|w| w.loopback)),
            p50_ms: quantile(&latencies, 0.5),
            p90_ms: quantile(&latencies, 0.9),
        }
    }
}

/// The geometry every endpoint is built from: the paper's 4×4, 64-point
/// link with the default (auto) parallelism.
pub fn geometry() -> LinkGeometry {
    LinkGeometry::mimo()
}

/// A workload's endpoint builder and the times it took.
struct Setup<F> {
    build: F,
    times_s: Vec<f64>,
}

impl<T, F: FnMut() -> Result<T, BenchError>> Setup<F> {
    /// Builds `SETUP_REPS` endpoint sets and keeps the last.
    fn start(build: F) -> Result<(Self, T), BenchError> {
        let mut setup = Self {
            build,
            times_s: Vec::new(),
        };
        let mut last = setup.sample()?;
        for _ in 1..SETUP_REPS {
            drop(last);
            last = setup.sample()?;
        }
        Ok((setup, last))
    }

    fn sample(&mut self) -> Result<T, BenchError> {
        let t = Instant::now();
        let endpoints = (self.build)()?;
        self.times_s.push(t.elapsed().as_secs_f64());
        Ok(endpoints)
    }
}

/// Replays one warm-up burst of the workload through the layer replay
/// and the serial library calls, checks they agree, and returns the
/// Viterbi tier dispatched — which must be the best this host has.
pub fn preflight(workload: Workload, seed: u64) -> Result<&'static str, BenchError> {
    let serial = PhyConfig::from_geometry(geometry().with_parallelism(false));
    let tx = MimoTransmitter::new(serial.clone())?;
    let mut rx = MimoReceiver::new(serial)?;
    let mut replay = Replay::new(geometry())?;
    let mut warm = Inputs::new(workload, seed).warmup();
    let mut chan = warm.channel();
    let mut spans = Spans::default();
    let (mcs, payload) = warm.next_burst();
    let burst = tx.transmit_burst_with(mcs, &payload)?;
    check_tx(&burst.streams, &replay.transmit(mcs, &payload, &mut spans)?)?;
    let capture = if workload.has_channel() {
        chan.propagate(&burst.streams)
    } else {
        burst.streams
    };
    let result = rx.receive_burst(&capture)?;
    if result.payload != payload {
        return Err(BenchError::Check(
            "preflight burst decoded to a different payload".into(),
        ));
    }
    let replayed = replay.receive(&capture, &mut spans)?;
    check_rx(&result, &replayed)?;
    let best = best_viterbi_kernel();
    if replayed.kernel != best {
        return Err(BenchError::Host(format!(
            "Viterbi dispatched `{}` but this host supports `{best}`",
            replayed.kernel
        )));
    }
    Ok(replayed.kernel)
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<E2e, BenchError> {
    let kernel = preflight(workload, seed)?;
    let mut out = match workload {
        Workload::BurstQam64 => run_burst(seed, seconds)?,
        Workload::PipelineBpsk => run_pipeline(seed, seconds)?,
        Workload::StreamShortMixed => run_stream(seed, seconds)?,
    };
    out.kernel = kernel;
    Ok(out)
}

fn run_burst(seed: u64, seconds: f64) -> Result<E2e, BenchError> {
    let mut inputs = Inputs::new(Workload::BurstQam64, seed);
    let awgn = inputs.channel();
    let (mut setup, (tx, mut rx, mut chan)) = Setup::start(|| {
        Ok((
            MimoTransmitter::from_geometry(geometry())?,
            MimoReceiver::from_geometry(geometry())?,
            awgn.clone(),
        ))
    })?;
    let mut warm = inputs.warmup();
    let mut warm_chan = warm.channel();
    for _ in 0..WARMUP_BURSTS {
        let (mcs, payload) = warm.next_burst();
        let burst = tx.transmit_burst_with(mcs, &payload)?;
        let _ = rx.receive_burst(&warm_chan.propagate(&burst.streams));
    }

    let mut out = E2e::new();
    let start = Instant::now();
    while !out.done(start, seconds) {
        let (mcs, payload) = inputs.next_burst();
        let t0 = Instant::now();
        let burst = tx.transmit_burst_with(mcs, &payload)?;
        let t1 = Instant::now();
        let capture = chan.propagate(&burst.streams);
        let t2 = Instant::now();
        let result = rx.receive_burst(&capture);
        let t3 = Instant::now();
        out.time(t1 - t0, t3 - t2, (t1 - t0) + (t3 - t2));
        out.latency(t3 - t2);
        out.decoded(&payload, result.as_ref().ok().map(|r| r.payload.as_slice()));
        if out.tick() {
            drop(setup.sample()?);
        }
    }
    out.setups_s = setup.times_s;
    Ok(out)
}

fn run_pipeline(seed: u64, seconds: f64) -> Result<E2e, BenchError> {
    let mut inputs = Inputs::new(Workload::PipelineBpsk, seed);
    let awgn = inputs.channel();
    let (mut setup, (tx, mut pipe, mut chan)) = Setup::start(|| {
        Ok((
            MimoTransmitter::from_geometry(geometry())?,
            BurstPipeline::from_geometry(geometry())?,
            awgn.clone(),
        ))
    })?;
    let mut warm = inputs.warmup();
    let mut warm_chan = warm.channel();
    let warm_batch: Vec<Vec<Vec<CQ15>>> = (0..WARMUP_BURSTS)
        .map(|_| {
            let (mcs, payload) = warm.next_burst();
            tx.transmit_burst_with(mcs, &payload)
                .map(|b| warm_chan.propagate(&b.streams))
        })
        .collect::<Result<_, _>>()?;
    let _ = pipe.process_batch_ref(&warm_batch);

    let mut out = E2e::new();
    out.pipeline_workers = pipe.workers();
    let start = Instant::now();
    while !out.done(start, seconds) {
        let sent: Vec<_> = (0..BATCH).map(|_| inputs.next_burst()).collect();
        let batch_start = Instant::now();
        let mut channel = Duration::ZERO;
        let mut tx_time = Duration::ZERO;
        let mut captures = Vec::with_capacity(BATCH);
        for (mcs, payload) in &sent {
            let t0 = Instant::now();
            let burst = tx.transmit_burst_with(*mcs, payload)?;
            let t1 = Instant::now();
            tx_time += t1 - t0;
            captures.push(chan.propagate(&burst.streams));
            channel += t1.elapsed();
        }
        let t2 = Instant::now();
        let results = pipe.process_batch_ref(&captures);
        let t3 = Instant::now();
        out.time(tx_time, t3 - t2, (t3 - batch_start) - channel);
        for ((_, payload), result) in sent.iter().zip(&results) {
            out.latency(t3 - t2);
            out.decoded(payload, result.as_ref().ok().map(|r| r.payload.as_slice()));
        }
        if out.tick() {
            drop(setup.sample()?);
        }
    }
    out.setups_s = setup.times_s;
    Ok(out)
}

fn run_stream(seed: u64, seconds: f64) -> Result<E2e, BenchError> {
    let mut inputs = Inputs::new(Workload::StreamShortMixed, seed);
    let (mut setup, mut link) = Setup::start(|| Link::new(&geometry(), |wire| wire))?;
    let mut warm = inputs.warmup();
    for _ in 0..WARMUP_BURSTS {
        let (mcs, payload) = warm.next_burst();
        link.send_burst(mcs, &payload)?;
    }

    let mut out = E2e::new();
    let start = Instant::now();
    while !out.done(start, seconds) {
        let (mcs, payload) = inputs.next_burst();
        let trip = link.send_burst(mcs, &payload)?;
        out.time(trip.tx, trip.rx, trip.wall);
        if let Some(latency) = trip.latency {
            out.latency(latency);
        }
        out.decoded(&payload, trip.decoded.as_deref());
        if out.tick() {
            drop(setup.sample()?);
        }
    }
    out.setups_s = setup.times_s;
    Ok(out)
}
