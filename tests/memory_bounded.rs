//! Steady-state heap of the receive paths: once a receiver has warmed
//! up — its largest burst at every rate, then a few dozen mixed bursts
//! — hundreds more bursts through `MimoReceiver::receive_burst` and
//! through `StreamingReceiver` must not grow the heap it holds
//! (workspaces, sample history, decoder survivor memory). Buffers may
//! grow while warming up: the streaming history's high-water mark
//! depends on how chunk edges fall against burst edges.
//!
//! A counting global allocator tracks this test binary's live heap
//! bytes. The file holds a single test, so nothing else allocates
//! while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use mimo_baseband::channel::{ChannelModel, IdealChannel};
use mimo_baseband::fixed::CQ15;
use mimo_baseband::phy::{LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, StreamingReceiver};

/// Live heap bytes of the process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes.
struct Counting;

// SAFETY: every method forwards to `System` unchanged and only updates
// a counter, so `System`'s contract carries over.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwarded to `System::alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    // SAFETY: forwarded to `System::dealloc` with the caller's pointer
    // and layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    // SAFETY: forwarded to `System::realloc` with the caller's
    // arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Largest payload of the run; warm-up sends it at every rate.
const MAX_LEN: usize = 512;

/// Mixed bursts that end the warm-up.
const WARM_BURSTS: usize = 40;

/// Bursts measured after warm-up.
const BURSTS: usize = 200;

/// Burst `i` of the run: every MCS row in turn, 32..=512-byte payloads.
fn burst(i: usize) -> (Mcs, Vec<u8>) {
    let len = 32 + (i * 97) % (MAX_LEN - 31);
    (
        Mcs::ALL[i % Mcs::ALL.len()],
        (0..len).map(|b| (b * 31 + i) as u8).collect(),
    )
}

/// The warm-up: the largest payload once at every rate.
fn warm_up() -> impl Iterator<Item = (Mcs, Vec<u8>)> {
    Mcs::ALL.into_iter().map(|mcs| (mcs, vec![0xA5; MAX_LEN]))
}

/// Runs `decode` over the warm-up and then `BURSTS` bursts, returning
/// the live heap after warm-up and the most seen after any later burst.
fn heap_after_warm_up(mut decode: impl FnMut(Mcs, &[u8])) -> (isize, isize) {
    for (mcs, payload) in warm_up().chain((0..WARM_BURSTS).map(burst)) {
        decode(mcs, &payload);
    }
    let settled = LIVE.load(Ordering::Relaxed);
    let mut most = settled;
    for i in WARM_BURSTS..WARM_BURSTS + BURSTS {
        let (mcs, payload) = burst(i);
        decode(mcs, &payload);
        drop(payload);
        most = most.max(LIVE.load(Ordering::Relaxed));
    }
    (settled, most)
}

#[test]
fn receive_paths_stop_growing_after_warm_up() {
    let geometry = LinkGeometry::mimo();
    let tx = MimoTransmitter::from_geometry(geometry.clone()).unwrap();
    let mut chan = IdealChannel::new(geometry.n_streams());
    let mut air = |mcs: Mcs, payload: &[u8]| {
        chan.propagate(&tx.transmit_burst_with(mcs, payload).unwrap().streams)
    };

    let mut rx = MimoReceiver::from_geometry(geometry.clone()).unwrap();
    let (settled, most) = heap_after_warm_up(|mcs, payload| {
        let result = rx.receive_burst(&air(mcs, payload)).unwrap();
        assert_eq!(result.payload, payload, "{mcs}");
    });
    assert!(
        most <= settled,
        "receive_burst heap grew after warm-up: {settled} -> {most} bytes"
    );

    // The streaming receiver: each burst followed by a silent gap, fed
    // in ragged chunks so the history trims at varying offsets.
    let mut rx = StreamingReceiver::from_geometry(geometry.clone()).unwrap();
    let mut chunk = 0;
    let (settled, most) = heap_after_warm_up(|mcs, payload| {
        let mut streams = air(mcs, payload);
        for s in &mut streams {
            s.extend(std::iter::repeat_n(CQ15::default(), 400));
        }
        let mut decoded = None;
        let mut at = 0;
        while at < streams[0].len() {
            chunk = (chunk * 7 + 331) % 1500 + 64;
            let end = (at + chunk).min(streams[0].len());
            let views: Vec<&[CQ15]> = streams.iter().map(|s| &s[at..end]).collect();
            if let Some(b) = rx.push_samples(&views).unwrap() {
                decoded = Some(b.result.payload);
            }
            at = end;
        }
        assert_eq!(decoded.as_deref(), Some(payload), "{mcs}");
    });
    assert!(
        most <= settled,
        "StreamingReceiver heap grew after warm-up: {settled} -> {most} bytes"
    );
}
