//! The traced run: the workload's bursts, generated from the same seed
//! as the untraced run, replayed layer by layer.
//!
//! Each group of `BATCH` bursts goes through:
//!
//! 1. the library's serial `transmit_burst_with`, then the transmit
//!    replay, which must produce the same samples;
//! 2. the channel model (bulk workloads only);
//! 3. the library's serial `receive_burst`, then the receive replay
//!    with spans on and with spans off (the tracing overhead), which
//!    must produce the library's result;
//! 4. `BurstPipeline::process_batch_ref` on the same captures, which
//!    must agree with the serial results;
//! 5. a pass over the framed link (`SampleSender` → `MemoryDuplex` →
//!    `SampleReceiver`) with the wire recorded, then `FrameDecoder` and
//!    `encode_frame` replayed on the recording, and
//!    `StreamingReceiver::push_samples` replayed on the recorded
//!    160-sample chunks.
//!
//! Any disagreement ends the run with an error instead of numbers.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use mimo_channel::ChannelModel;
use mimo_core::{
    BurstPipeline, MimoReceiver, MimoTransmitter, PhyConfig, RxResult, StreamingReceiver,
};
use mimo_fixed::CQ15;
use mimo_transport::{encode_frame, DecodeEvent, FrameDecoder, SampleFrame};

use crate::e2e::{geometry, preflight, BATCH};
use crate::error::BenchError;
use crate::gen::{Inputs, Workload};
use crate::link::{Link, Tap};
use crate::replay::{check_rx, check_tx, Layer, Replay, Spans, RX_LAYERS, TX_LAYERS};
use crate::report::{ns, Metrics};

const MAX_RUN: Duration = Duration::from_secs(120);

/// Totals of one traced run.
#[derive(Debug, Default)]
struct Totals {
    bursts: f64,
    failed: u64,
    mismatched: u64,
    tx_serial: f64,
    rx_serial: f64,
    channel: f64,
    tx_periods: f64,
    rx_periods: f64,
    info_bits: f64,
    replay_timed: f64,
    replay_untimed: f64,
    pipeline: f64,
    batches: f64,
    push: f64,
    push_serial: f64,
    encode: f64,
    decode: f64,
    frames: f64,
    wire_bytes: f64,
    bad_frames: u64,
}

pub struct TracedRun {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub kernel: &'static str,
    pub pipeline_workers: usize,
}

fn timed<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *total += ns(start.elapsed());
    out
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<TracedRun, BenchError> {
    let kernel = preflight(workload, seed)?;
    let serial = PhyConfig::from_geometry(geometry().with_parallelism(false));
    let lib_tx = MimoTransmitter::new(serial.clone())?;
    let mut lib_rx = MimoReceiver::new(serial)?;
    let mut pipe = BurstPipeline::from_geometry(geometry())?;
    let mut replay = Replay::new(geometry())?;
    let mut spans = Spans::enabled();
    let mut untimed = Spans::default();
    let mut inputs = Inputs::new(workload, seed);
    let mut chan = inputs.channel();
    let wire = Rc::new(RefCell::new(Vec::new()));
    let mut link = Link::new(&geometry(), |w| Tap::new(w, Rc::clone(&wire)))?;
    let mut stream_rx = StreamingReceiver::from_geometry(geometry())?;
    let mut decoder = FrameDecoder::new();
    let mut frame_bytes = Vec::new();

    let mut t = Totals::default();
    let start = Instant::now();
    while t.bursts == 0.0 || (start.elapsed().as_secs_f64() < seconds && start.elapsed() < MAX_RUN)
    {
        let sent: Vec<_> = (0..BATCH).map(|_| inputs.next_burst()).collect();

        // 1–2. Transmit, replay, channel.
        let mut clean = Vec::with_capacity(BATCH);
        let mut captures = Vec::with_capacity(BATCH);
        for (mcs, payload) in &sent {
            let burst = timed(&mut t.tx_serial, || {
                lib_tx.transmit_burst_with(*mcs, payload)
            })?;
            check_tx(&burst.streams, &replay.transmit(*mcs, payload, &mut spans)?)?;
            t.tx_periods += (burst.header_symbols + burst.n_symbols) as f64;
            captures.push(if workload.has_channel() {
                timed(&mut t.channel, || chan.propagate(&burst.streams))
            } else {
                burst.streams.clone()
            });
            clean.push(burst.streams);
        }

        // 3. Serial receive, replay with and without spans.
        let mut lost = [false; BATCH];
        let mut serial_ns = Vec::with_capacity(BATCH);
        let mut serial_results = Vec::with_capacity(BATCH);
        for (i, (capture, (_, payload))) in captures.iter().zip(&sent).enumerate() {
            let mut one = 0.0;
            let result = timed(&mut one, || lib_rx.receive_burst(capture));
            t.rx_serial += one;
            serial_ns.push(one);
            t.bursts += 1.0;
            let replayed = if i % 2 == 0 {
                let r = timed(&mut t.replay_timed, || replay.receive(capture, &mut spans));
                let _ = timed(&mut t.replay_untimed, || {
                    replay.receive(capture, &mut untimed)
                });
                r
            } else {
                let _ = timed(&mut t.replay_untimed, || {
                    replay.receive(capture, &mut untimed)
                });
                timed(&mut t.replay_timed, || replay.receive(capture, &mut spans))
            };
            match &result {
                Ok(r) => {
                    let replayed = replayed?;
                    check_rx(r, &replayed)?;
                    if replayed.kernel != kernel {
                        return Err(BenchError::Host(format!(
                            "Viterbi dispatched `{}`, not `{kernel}`",
                            replayed.kernel
                        )));
                    }
                    t.rx_periods += replayed.periods as f64;
                    t.info_bits += replayed.info_bits as f64;
                    if r.payload != *payload {
                        t.mismatched += 1;
                    }
                }
                Err(_) if replayed.is_err() => lost[i] = true,
                Err(e) => {
                    return Err(BenchError::Check(format!(
                        "receive_burst failed ({e}) where the replay decoded"
                    )))
                }
            }
            serial_results.push(result);
        }

        // 4. The pipeline on the same captures.
        let piped = timed(&mut t.pipeline, || pipe.process_batch_ref(&captures));
        t.batches += 1.0;
        for (p, s) in piped.iter().zip(&serial_results) {
            if !same_outcome(p, s) {
                return Err(BenchError::Check(
                    "BurstPipeline disagrees with serial receive_burst".into(),
                ));
            }
        }

        // 5. The framed link, then its recording replayed.
        wire.borrow_mut().clear();
        for (i, (mcs, payload)) in sent.iter().enumerate() {
            let trip = link.send_burst(*mcs, payload)?;
            match trip.decoded {
                Some(p) if p == *payload => {}
                Some(_) => t.mismatched += 1,
                None => lost[i] = true,
            }
        }
        t.failed += lost.iter().filter(|&&l| l).count() as u64;
        let recorded = wire.take();
        let mut frames: Vec<SampleFrame> = Vec::with_capacity(recorded.len());
        for bytes in &recorded {
            t.wire_bytes += bytes.len() as f64;
            timed(&mut t.decode, || {
                decoder.push(bytes);
                while let Some(event) = decoder.next_event() {
                    match event {
                        DecodeEvent::Frame(f) => frames.push(f),
                        DecodeEvent::Control(_) => {}
                        DecodeEvent::BadCrc { .. } | DecodeEvent::Garbage { .. } => {
                            t.bad_frames += 1
                        }
                    }
                }
            });
        }
        t.frames += frames.len() as f64;
        check_frames(&frames, &clean)?;
        for (frame, bytes) in frames.iter().zip(&recorded) {
            frame_bytes.clear();
            timed(&mut t.encode, || {
                encode_frame(frame.seq, &frame.streams, &mut frame_bytes)
            })?;
            if frame_bytes != *bytes {
                return Err(BenchError::Check(
                    "encode_frame replay differs from the recorded wire bytes".into(),
                ));
            }
        }
        let mut streamed = Vec::with_capacity(BATCH);
        for frame in &frames {
            match timed(&mut t.push, || stream_rx.push_samples(&frame.streams)) {
                Ok(Some(b)) => streamed.push(Some(b.result.payload)),
                Ok(None) => {}
                Err(_) => streamed.push(None),
            }
        }
        if streamed.len() != BATCH
            || streamed
                .iter()
                .zip(&sent)
                .any(|(got, (_, p))| got.as_ref() != Some(p))
        {
            return Err(BenchError::Check(
                "push_samples on the recorded chunks did not return the sent payloads".into(),
            ));
        }
        if workload.has_channel() {
            for (burst, (_, payload)) in clean.iter().zip(&sent) {
                let result = timed(&mut t.push_serial, || lib_rx.receive_burst(burst));
                if result.map_or(true, |r| r.payload != *payload) {
                    return Err(BenchError::Check(
                        "receive_burst failed on a clean burst".into(),
                    ));
                }
            }
        } else {
            t.push_serial += serial_ns.iter().sum::<f64>();
        }
    }

    let sender = link.sender.stats();
    let receiver = link.receiver.stats();
    let metrics = layer_metrics(&t, &spans, sender, receiver.crc_errors);
    Ok(TracedRun {
        metrics,
        attempted: t.bursts as u64,
        failed: t.failed,
        mismatched: t.mismatched,
        kernel,
        pipeline_workers: pipe.workers(),
    })
}

/// Pipeline and serial outcomes agree: the same payload, or both
/// failed.
fn same_outcome(
    a: &Result<RxResult, mimo_core::PhyError>,
    b: &Result<RxResult, mimo_core::PhyError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.payload == b.payload && a.diagnostics.mcs == b.diagnostics.mcs,
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// The decoded frames carry exactly the transmitted samples, in order.
fn check_frames(frames: &[SampleFrame], clean: &[Vec<Vec<CQ15>>]) -> Result<(), BenchError> {
    for antenna in 0..4 {
        let sent = clean.iter().flat_map(|b| b[antenna].iter());
        let got = frames.iter().flat_map(|f| f.streams[antenna].iter());
        if !sent.eq(got) {
            return Err(BenchError::Check(format!(
                "FrameDecoder output differs from the sent samples on antenna {antenna}"
            )));
        }
    }
    Ok(())
}

fn layer_metrics(
    t: &Totals,
    spans: &Spans,
    sender: mimo_transport::SenderStats,
    crc_errors: u64,
) -> Metrics {
    let n = t.bursts;
    let rx_layers = spans.sum_ns(&RX_LAYERS);
    let tx_layers = spans.sum_ns(&TX_LAYERS);
    let share = |layers: &[Layer]| spans.sum_ns(layers) / t.rx_serial;
    let mut m = Metrics::default();
    m.put("sync.ns_per_burst", spans.ns(Layer::Sync) / n, "ns");
    m.put("chanest.ns_per_burst", spans.ns(Layer::Chanest) / n, "ns");
    m.put(
        "ofdm.ingest_ns_per_symbol",
        spans.ns(Layer::Ingest) / t.rx_periods,
        "ns",
    );
    m.put(
        "detect.zf_ns_per_symbol",
        spans.ns(Layer::Zf) / t.rx_periods,
        "ns",
    );
    m.put(
        "detect.pilot_ns_per_symbol",
        spans.ns(Layer::Pilot) / t.rx_periods,
        "ns",
    );
    m.put(
        "modem.demap_ns_per_symbol",
        spans.ns(Layer::Demap) / t.rx_periods,
        "ns",
    );
    m.put(
        "coding.viterbi_ns_per_burst",
        spans.ns(Layer::Viterbi) / n,
        "ns",
    );
    m.put(
        "coding.viterbi_mbit_per_s",
        t.info_bits / spans.ns(Layer::Viterbi) * 1e3,
        "Mbit/s",
    );
    m.put(
        "core.rx_glue_ns_per_burst",
        (t.rx_serial - rx_layers) / n,
        "ns",
    );
    m.put("rx.serial_ns_per_burst", t.rx_serial / n, "ns");
    m.put("trace.coverage", rx_layers / t.rx_serial, "ratio");
    m.put(
        "trace.overhead",
        t.replay_timed / t.replay_untimed - 1.0,
        "ratio",
    );
    m.put("share.sync", share(&[Layer::Sync]), "ratio");
    m.put("share.chanest", share(&[Layer::Chanest]), "ratio");
    m.put("share.ofdm", share(&[Layer::Ingest]), "ratio");
    m.put("share.detect", share(&[Layer::Zf, Layer::Pilot]), "ratio");
    m.put("share.modem", share(&[Layer::Demap]), "ratio");
    m.put(
        "share.coding",
        share(&[Layer::Viterbi, Layer::RxBits]),
        "ratio",
    );
    m.put("share.core", 1.0 - rx_layers / t.rx_serial, "ratio");
    m.put(
        "coding.encode_ns_per_burst",
        spans.ns(Layer::Encode) / n,
        "ns",
    );
    m.put(
        "interleave.ns_per_symbol",
        spans.ns(Layer::Interleave) / t.tx_periods,
        "ns",
    );
    m.put(
        "modem.map_ns_per_symbol",
        spans.ns(Layer::Map) / t.tx_periods,
        "ns",
    );
    m.put(
        "ofdm.modulate_ns_per_symbol",
        spans.ns(Layer::Modulate) / t.tx_periods,
        "ns",
    );
    m.put(
        "core.tx_glue_ns_per_burst",
        (t.tx_serial - tx_layers) / n,
        "ns",
    );
    m.put("tx.serial_ns_per_burst", t.tx_serial / n, "ns");
    m.put(
        "pipeline.speedup_vs_serial",
        t.rx_serial / t.pipeline,
        "ratio",
    );
    m.put("pipeline.batch_ms", t.pipeline / t.batches / 1e6, "ms");
    m.put("stream.tax", t.push / t.push_serial, "ratio");
    m.put("transport.encode_ns_per_frame", t.encode / t.frames, "ns");
    m.put("transport.decode_ns_per_frame", t.decode / t.frames, "ns");
    m.put(
        "transport.wire_bytes_per_sample",
        t.wire_bytes / (sender.samples_sent as f64 * 4.0),
        "B",
    );
    m.put("transport.frames", sender.frames_sent as f64 / n, "1/burst");
    m.put(
        "transport.crc_errors",
        (crc_errors + t.bad_frames) as f64,
        "count",
    );
    m.put(
        "transport.credit_stalls",
        sender.credit_stalls as f64,
        "count",
    );
    m.put(
        "transport.backpressure",
        sender.backpressure as f64,
        "count",
    );
    m.put("ofdm.symbols_per_burst", t.rx_periods / n, "1/burst");
    m.put("coding.info_bits_per_burst", t.info_bits / n, "bit");
    m.put("channel.ns_per_burst", t.channel / n, "ns");
    m.put(
        "rx_failed_fraction",
        (t.failed + t.mismatched) as f64 / n,
        "ratio",
    );
    m
}
