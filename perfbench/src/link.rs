//! The framed sample link of the short mixed stream, shared by the
//! untraced workload and the traced link pass: `StreamingTransmitter`
//! → `SampleSender` (160-sample frames, credit flow control) →
//! `MemoryDuplex` → `SampleReceiver` → `StreamingReceiver`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::error::BenchError;
use mimo_core::{LinkGeometry, Mcs, StreamingReceiver, StreamingTransmitter};
use mimo_transport::{
    Carrier, LinkEvent, MemoryDuplex, SampleReceiver, SampleSender, TransportError,
};

/// Samples per antenna in one data frame (the pacing quantum).
pub const FRAME_SAMPLES: usize = 160;
/// Bytes each direction of the in-memory wire buffers.
const WIRE_BYTES: usize = 1 << 20;
/// Credit window and grant quantum, samples.
const CREDIT_WINDOW: u64 = 4096;
const CREDIT_QUANTUM: u64 = 1024;
/// Consecutive pumps without progress before a burst is declared lost.
const STALL_LIMIT: usize = 10_000;

/// The two endpoints of one link.
pub struct Link<C> {
    pub sender: SampleSender<C>,
    pub receiver: SampleReceiver<MemoryDuplex>,
}

impl<C: Carrier> Link<C> {
    /// Builds the endpoints; `wrap` sees the sender's end of the wire.
    pub fn new(
        geometry: &LinkGeometry,
        wrap: impl FnOnce(MemoryDuplex) -> C,
    ) -> Result<Self, BenchError> {
        let (near, far) = MemoryDuplex::pair(WIRE_BYTES);
        let tx = StreamingTransmitter::from_geometry(geometry.clone())?;
        let sender = SampleSender::new(tx, wrap(near), FRAME_SAMPLES)
            .and_then(|s| s.with_flow_control(CREDIT_WINDOW))?;
        let rx = StreamingReceiver::from_geometry(geometry.clone())?;
        let receiver =
            SampleReceiver::new(rx, far).with_flow_control(CREDIT_WINDOW, CREDIT_QUANTUM);
        Ok(Self { sender, receiver })
    }

    /// Sends one burst and polls until it comes back, closed loop.
    pub fn send_burst(&mut self, mcs: Mcs, payload: &[u8]) -> Result<LinkBurst, BenchError> {
        let start = Instant::now();
        let mut out = LinkBurst::default();
        let t = Instant::now();
        self.sender.transmitter_mut().enqueue_with(mcs, payload)?;
        out.tx += t.elapsed();
        // (samples sent so far, when that pump handed them over).
        let mut handed: Vec<(u64, Instant)> = Vec::new();
        let mut idle_pumps = 0;
        loop {
            let t0 = Instant::now();
            let pulled = self.sender.pump()?;
            let t1 = Instant::now();
            out.tx += t1 - t0;
            handed.push((self.sender.stats().samples_sent, t1));
            loop {
                let t2 = Instant::now();
                let event = self.receiver.poll()?;
                let t3 = Instant::now();
                out.rx += t3 - t2;
                match event {
                    None => break,
                    Some(LinkEvent::Burst(b)) => {
                        let end = b.burst_end as u64;
                        out.latency = handed
                            .iter()
                            .find(|(sent, _)| *sent >= end)
                            .map(|(_, at)| t3 - *at);
                        out.decoded = Some(b.result.payload);
                    }
                    Some(_) => {}
                }
            }
            if self.sender.is_idle() && (out.decoded.is_some() || pulled == 0) {
                break;
            }
            idle_pumps = if pulled == 0 { idle_pumps + 1 } else { 0 };
            if idle_pumps > STALL_LIMIT {
                return Err(BenchError::Check("the link made no progress".into()));
            }
        }
        out.wall = start.elapsed();
        Ok(out)
    }
}

/// One burst's trip over the link.
#[derive(Debug, Default)]
pub struct LinkBurst {
    /// Time in `enqueue_with` and `SampleSender::pump`.
    pub tx: Duration,
    /// Time in `SampleReceiver::poll`.
    pub rx: Duration,
    /// Enqueue to decoded burst.
    pub wall: Duration,
    /// From the pump that handed over the burst's last sample to the
    /// poll that returned the decoded burst.
    pub latency: Option<Duration>,
    pub decoded: Option<Vec<u8>>,
}

/// A carrier that records every data frame the sender puts on the wire.
pub struct Tap {
    inner: MemoryDuplex,
    frames: Rc<RefCell<Vec<Vec<u8>>>>,
}

impl Tap {
    pub fn new(inner: MemoryDuplex, frames: Rc<RefCell<Vec<Vec<u8>>>>) -> Self {
        Self { inner, frames }
    }
}

impl Carrier for Tap {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.inner.send(frame)?;
        self.frames.borrow_mut().push(frame.to_vec());
        Ok(())
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError> {
        self.inner.recv(buf)
    }
}
