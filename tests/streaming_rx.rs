//! Streaming-receiver determinism: chunked ingest through
//! `StreamingReceiver::push_samples` must be **bit-identical** to
//! whole-capture `receive_burst` — same payload, same diagnostics to
//! the last mantissa bit — for every MCS table row and every chunking,
//! because both are schedules of one per-symbol core.

use mimo_baseband::fixed::CQ15;
use mimo_baseband::phy::{
    LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyConfig, PhyError, ReceivedBurst,
    RxResult, StreamingReceiver,
};

/// On-air samples per OFDM symbol at the 64-point geometry.
const SYM_LEN: usize = 80;

fn payload_for(mcs: Mcs) -> Vec<u8> {
    (0..200).map(|i| (i * 37 + mcs.index() as usize * 11) as u8).collect()
}

/// Feeds `streams` in fixed-size chunks, draining every completed
/// burst; flushes at end-of-stream.
fn feed_chunks(
    rx: &mut StreamingReceiver,
    streams: &[Vec<CQ15>],
    chunk: usize,
) -> Vec<ReceivedBurst> {
    let len = streams[0].len();
    let mut out = Vec::new();
    let mut at = 0;
    while at < len {
        let end = (at + chunk).min(len);
        let views: Vec<&[CQ15]> = streams.iter().map(|s| &s[at..end]).collect();
        if let Some(b) = rx.push_samples(&views).expect("push_samples") {
            out.push(b);
            while let Some(more) = rx.poll().expect("poll") {
                out.push(more);
            }
        }
        at = end;
    }
    if let Ok(Some(b)) = rx.flush() {
        out.push(b);
    }
    out
}

/// Asserts two results are bit-identical, allowing a constant index
/// offset on the sync event (for bursts located mid-stream).
fn assert_bit_identical(got: &RxResult, want: &RxResult, offset: usize, tag: &str) {
    assert_eq!(got.payload, want.payload, "{tag}: payload");
    let (g, w) = (&got.diagnostics, &want.diagnostics);
    assert_eq!(g.mcs, w.mcs, "{tag}: mcs");
    assert_eq!(g.n_symbols, w.n_symbols, "{tag}: n_symbols");
    assert_eq!(g.sync.peak_index, w.sync.peak_index + offset, "{tag}: peak");
    assert_eq!(g.sync.lts_start, w.sync.lts_start + offset, "{tag}: lts");
    assert_eq!(g.sync.magnitude, w.sync.magnitude, "{tag}: magnitude");
    assert_eq!(
        g.evm_db().to_bits(),
        w.evm_db().to_bits(),
        "{tag}: evm {} vs {}",
        g.evm_db(),
        w.evm_db()
    );
    assert_eq!(
        g.mean_phase_rad().to_bits(),
        w.mean_phase_rad().to_bits(),
        "{tag}: phase {} vs {}",
        g.mean_phase_rad(),
        w.mean_phase_rad()
    );
    // The full ChannelQuality — aggregate and per-stream EVM — must
    // also match to the last mantissa bit: streaming and batch run the
    // same finish_result aggregation over the same accumulators.
    let (gq, wq) = (&g.quality, &w.quality);
    assert_eq!(
        gq.per_stream_evm_db.len(),
        wq.per_stream_evm_db.len(),
        "{tag}: quality stream count"
    );
    for (k, (ge, we)) in gq.per_stream_evm_db.iter().zip(&wq.per_stream_evm_db).enumerate() {
        assert_eq!(
            ge.to_bits(),
            we.to_bits(),
            "{tag}: stream {k} evm {ge} vs {we}"
        );
    }
    assert!(gq.evm_db.is_finite(), "{tag}: aggregate EVM must be finite");
    assert!(
        gq.per_stream_evm_db.iter().all(|e| e.is_finite()),
        "{tag}: per-stream EVM must be finite"
    );
}

#[test]
fn streaming_bit_identical_across_mcs_grid_and_chunk_sizes() {
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    // The batch reference runs on both schedules: serial and fanned out.
    let mut batch: Vec<(MimoReceiver, &str)> = [(false, "serial"), (true, "parallel")]
        .into_iter()
        .map(|(on, name)| {
            let geometry = LinkGeometry::mimo().with_parallelism(on);
            (MimoReceiver::from_geometry(geometry).unwrap(), name)
        })
        .collect();
    let mut streaming = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    for mcs in Mcs::ALL {
        let payload = payload_for(mcs);
        let burst = tx.transmit_burst_with(mcs, &payload).unwrap();
        let wants: Vec<(RxResult, &str)> = batch
            .iter_mut()
            .map(|(rx, name)| (rx.receive_burst(&burst.streams).unwrap(), *name))
            .collect();
        let whole = burst.streams[0].len();
        for chunk in [1usize, 13, SYM_LEN, whole] {
            let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
            let got = feed_chunks(&mut rx, &burst.streams, chunk);
            assert_eq!(got.len(), 1, "{mcs} chunk {chunk}: burst count");
            for (want, name) in &wants {
                let tag = format!("{mcs} chunk {chunk} vs {name} batch");
                assert_bit_identical(&got[0].result, want, 0, &tag);
            }
        }
        // One long-lived receiver across the whole grid (no rebuild
        // between rates), fed with a ragged chunk size.
        let got = feed_chunks(&mut streaming, &burst.streams, 29);
        assert_eq!(got.len(), 1, "{mcs}: shared receiver");
        for (want, name) in &wants {
            let shift = got[0].result.diagnostics.sync.lts_start - want.diagnostics.sync.lts_start;
            let tag = format!("{mcs}: shared vs {name} batch");
            assert_bit_identical(&got[0].result, want, shift, &tag);
        }
    }
}

#[test]
fn preamble_straddling_chunk_boundaries() {
    // An odd idle prefix makes the preamble straddle every 64-sample
    // chunk boundary; the batch reference sees the identical capture.
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    let mut batch = MimoReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    let payload: Vec<u8> = (0..150).map(|i| (i * 19 + 5) as u8).collect();
    let burst = tx.transmit_burst_with(Mcs::Qam16R34, &payload).unwrap();
    for idle in [37usize, 63, 101] {
        let padded: Vec<Vec<CQ15>> = burst
            .streams
            .iter()
            .map(|s| {
                let mut p = vec![CQ15::ZERO; idle];
                p.extend_from_slice(s);
                p
            })
            .collect();
        let want = batch.receive_burst(&padded).unwrap();
        for chunk in [64usize, 1, 4096] {
            let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
            let got = feed_chunks(&mut rx, &padded, chunk);
            assert_eq!(got.len(), 1, "idle {idle} chunk {chunk}");
            assert_bit_identical(
                &got[0].result,
                &want,
                0,
                &format!("idle {idle} chunk {chunk}"),
            );
        }
    }
}

#[test]
fn back_to_back_bursts_in_one_stream() {
    // Two bursts at different rates, concatenated with no gap, then a
    // third after an idle stretch: the streaming receiver must find
    // all three, each bit-identical to the batch decode of its own
    // capture (modulo the absolute index offset).
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    let mut batch = MimoReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    let specs = [
        (Mcs::Bpsk12, 90usize),
        (Mcs::Qam64R34, 333usize),
        (Mcs::Qpsk12, 48usize),
    ];
    let gaps = [0usize, 0, 450];
    let mut bursts = Vec::new();
    for (mcs, len) in specs {
        let payload: Vec<u8> = (0..len).map(|i| (i * 23 + mcs.index() as usize) as u8).collect();
        bursts.push((tx.transmit_burst_with(mcs, &payload).unwrap(), payload));
    }
    let mut streams: Vec<Vec<CQ15>> = vec![Vec::new(); 4];
    let mut offsets = Vec::new();
    for ((burst, _), gap) in bursts.iter().zip(gaps) {
        for (a, s) in streams.iter_mut().enumerate() {
            s.extend(std::iter::repeat_n(CQ15::ZERO, gap));
            if a == 0 {
                offsets.push(s.len());
            }
            s.extend_from_slice(&burst.streams[a]);
        }
    }

    for chunk in [1usize, 13, SYM_LEN, 4096, streams[0].len()] {
        let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let got = feed_chunks(&mut rx, &streams, chunk);
        assert_eq!(got.len(), 3, "chunk {chunk}: burst count");
        for (i, ((burst, payload), offset)) in bursts.iter().zip(&offsets).enumerate() {
            let want = batch.receive_burst(&burst.streams).unwrap();
            assert_eq!(&got[i].result.payload, payload, "chunk {chunk} burst {i}");
            assert_bit_identical(
                &got[i].result,
                &want,
                *offset,
                &format!("chunk {chunk} burst {i}"),
            );
        }
        // Bursts must be reported in stream order and end in order.
        assert!(got.windows(2).all(|w| w[0].burst_end < w[1].burst_end));
    }
}

#[test]
fn truncation_mid_payload_is_typed_and_the_receiver_rearms() {
    // A stream that ends mid-Payload must not flush to Ok(None) — the
    // burst in flight has to surface as a typed TruncatedBurst — and
    // the same receiver must then decode a following burst cleanly.
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    let payload: Vec<u8> = (0..180).map(|i| (i * 13 + 5) as u8).collect();
    let burst = tx.transmit_burst_with(Mcs::Qam16R12, &payload).unwrap();
    let whole = burst.streams[0].len();

    let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    // Feed all but the last two payload symbols, in ragged chunks.
    let cut = whole - 2 * SYM_LEN;
    let mut at = 0;
    while at < cut {
        let end = (at + 51).min(cut);
        let views: Vec<&[CQ15]> = burst.streams.iter().map(|s| &s[at..end]).collect();
        assert!(rx.push_samples(&views).unwrap().is_none(), "burst cannot be whole yet");
        at = end;
    }
    match rx.flush() {
        Err(PhyError::TruncatedBurst { needed, available }) => {
            assert_eq!(available, cut, "available must be what was fed");
            assert!(needed > available, "{needed} vs {available}");
        }
        other => panic!("flush on a cut stream returned {other:?}"),
    }

    // Re-armed: the identical receiver decodes the next burst, and the
    // decode is bit-identical to the batch reference.
    let mut batch = MimoReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    let want = batch.receive_burst(&burst.streams).unwrap();
    let got = feed_chunks(&mut rx, &burst.streams, 160);
    assert_eq!(got.len(), 1, "receiver must recover after truncation");
    let shift = got[0].result.diagnostics.sync.lts_start - want.diagnostics.sync.lts_start;
    assert_bit_identical(&got[0].result, &want, shift, "post-truncation burst");
}

#[test]
fn sample_gap_mid_payload_is_typed_and_the_receiver_rearms() {
    // The transport layer translates lost frames into notify_gap();
    // a gap cutting through a burst must surface as StreamGap and the
    // receiver must decode the next burst afterwards.
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    let payload: Vec<u8> = (0..120).map(|i| (i * 29 + 3) as u8).collect();
    let burst = tx.transmit_burst_with(Mcs::Qpsk34, &payload).unwrap();
    let whole = burst.streams[0].len();

    let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    let cut = whole / 2;
    let views: Vec<&[CQ15]> = burst.streams.iter().map(|s| &s[..cut]).collect();
    assert!(rx.push_samples(&views).unwrap().is_none());
    match rx.notify_gap(640) {
        Err(PhyError::StreamGap { missing }) => assert_eq!(missing, 640),
        other => panic!("gap mid-burst returned {other:?}"),
    }

    // A gap while idle (searching) is absorbed silently.
    assert!(rx.notify_gap(64).is_ok());

    let mut batch = MimoReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    let want = batch.receive_burst(&burst.streams).unwrap();
    let got = feed_chunks(&mut rx, &burst.streams, 97);
    assert_eq!(got.len(), 1, "receiver must recover after a gap");
    let shift = got[0].result.diagnostics.sync.lts_start - want.diagnostics.sync.lts_start;
    assert_bit_identical(&got[0].result, &want, shift, "post-gap burst");
}

#[test]
fn streaming_matches_batch_in_hard_decision_mode() {
    // The shared core honours the geometry's soft/hard demap switch.
    let geom = LinkGeometry::mimo().with_soft_decoding(false);
    let tx = MimoTransmitter::new(PhyConfig::from_geometry(geom.clone())).unwrap();
    let mut batch = MimoReceiver::from_geometry(geom.clone()).unwrap();
    let payload: Vec<u8> = (0..77).map(|i| (i * 3 + 1) as u8).collect();
    let burst = tx.transmit_burst_with(Mcs::Qam64R23, &payload).unwrap();
    let want = batch.receive_burst(&burst.streams).unwrap();
    let mut rx = StreamingReceiver::from_geometry(geom).unwrap();
    let got = feed_chunks(&mut rx, &burst.streams, 17);
    assert_eq!(got.len(), 1);
    assert_bit_identical(&got[0].result, &want, 0, "hard-decision");
}
