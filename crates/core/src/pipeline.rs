//! The batch-of-bursts receiver.
//!
//! [`MimoReceiver::receive_burst`] parallelises *within* a burst: it
//! fans the four spatial channels out across scoped threads, which
//! keeps at most four cores busy and pays the spawn/join cost twice
//! per burst. A batch has a coarser, cheaper grain: whole bursts are
//! independent. [`BurstPipeline::process_batch_ref`] decodes a batch on
//! a **per-batch scoped crew**:
//!
//! * the calling thread is crew member 0, and up to `workers - 1`
//!   helpers are spawned for the batch (never more members than
//!   bursts);
//! * every member runs the same loop: claim the next burst index from
//!   a shared atomic counter, decode that whole burst, keep the
//!   `(index, result)` pair. The pairs are merged in submission order
//!   once the crew has joined;
//! * each member owns one sync FSM + workspace, kept by the pipeline
//!   between batches, so the steady state allocates nothing per burst
//!   beyond the decoded payloads;
//! * a helper that fails to spawn only removes parallelism: the
//!   remaining members claim its share, so no burst is lost;
//! * with no workers (the auto count on a 1-CPU host) member 0 runs
//!   the whole batch alone: no threads, same code per burst.
//!
//! Each burst runs the exact front/back stage code of
//! `receive_burst`, with the within-burst fan-out disabled (the
//! parallelism comes from whole bursts instead), so pipeline output is
//! **bit-identical** to `receive_burst` for any batch size and any
//! worker count; `tests/burst_pipeline.rs` pins this. Both stages are
//! schedules over the same per-symbol core the chunk-driven
//! [`StreamingReceiver`](crate::StreamingReceiver) drives, so all
//! three receive modes decode every burst identically.
//!
//! The pipeline is **rate-agile**: every burst announces its own MCS
//! in its SIGNAL-field header, so one batch may mix rates; each burst
//! selects its datapath kit from the shared receiver's rate table, and
//! the workspaces are sized for the max-MCS envelope. Bursts are
//! borrowed (any per-stream sample container, e.g. `&[&[CQ15]]` views
//! into a ring buffer), so no sample is copied.
//!
//! # Examples
//!
//! ```
//! use mimo_core::{BurstPipeline, MimoTransmitter, PhyConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = PhyConfig::paper_synthesis();
//! let tx = MimoTransmitter::new(cfg.clone())?;
//! let mut pipe = BurstPipeline::new(cfg)?;
//!
//! let bursts: Vec<Vec<Vec<_>>> = (0..3u8)
//!     .map(|i| tx.transmit_burst(&[i; 32]).map(|b| b.streams))
//!     .collect::<Result<_, _>>()?;
//! let results = pipe.process_batch_ref(&bursts);
//! assert_eq!(results.len(), 3);
//! for (i, r) in results.iter().enumerate() {
//!     assert_eq!(r.as_ref().unwrap().payload, vec![i as u8; 32]);
//! }
//! # Ok(())
//! # }
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use mimo_fixed::CQ15;

use crate::config::{host_parallelism, PhyConfig};
use crate::error::PhyError;
use crate::rx::{MimoReceiver, RxResult, RxState};

/// The batch-of-bursts receiver: one shared [`MimoReceiver`] and one
/// sync FSM + workspace per crew member (see the `pipeline` module
/// docs for the schedule).
pub struct BurstPipeline {
    rx: MimoReceiver,
    /// Crew size cap: 0 = the in-caller schedule, else 2..=64.
    workers: usize,
    /// Crew member 0's state: the calling thread's.
    own: RxState,
    /// The helpers' states, grown to the largest crew a batch has
    /// needed.
    helpers: Vec<RxState>,
}

impl std::fmt::Debug for BurstPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BurstPipeline")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl BurstPipeline {
    /// Builds a pipeline with the auto worker count: one crew member
    /// per host CPU, or the in-caller schedule when the host reports a
    /// single CPU.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] for invalid configurations
    /// (the receiver requires 4 streams).
    pub fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        Self::with_workers(cfg, host_parallelism())
    }

    /// Builds a pipeline from the static link geometry alone — like
    /// [`MimoReceiver::from_geometry`], nothing rate-dependent is
    /// needed up front; every burst in every batch announces its own
    /// rate.
    ///
    /// # Errors
    ///
    /// Identical to [`BurstPipeline::new`].
    pub fn from_geometry(geometry: crate::LinkGeometry) -> Result<Self, PhyError> {
        Self::new(PhyConfig::from_geometry(geometry))
    }

    /// Builds a pipeline with an explicit worker count. `workers <= 1`
    /// selects the in-caller schedule (no threads spawned); larger
    /// counts are capped at 64.
    ///
    /// # Errors
    ///
    /// Identical to [`BurstPipeline::new`].
    pub fn with_workers(cfg: PhyConfig, workers: usize) -> Result<Self, PhyError> {
        let rx = MimoReceiver::new(cfg)?;
        Ok(Self {
            own: rx.new_state(),
            helpers: Vec::new(),
            workers: if workers <= 1 { 0 } else { workers.min(64) },
            rx,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        self.rx.config()
    }

    /// Crew size cap (0 = in-caller schedule).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Decodes a batch of bursts — any per-stream sample container,
    /// e.g. owned `Vec<Vec<CQ15>>` captures or `&[&[CQ15]]` views into
    /// a capture buffer — without copying a sample, returning one
    /// result per burst in submission order. Results are bit-identical
    /// to `receive_burst`, burst for burst, for every worker count.
    pub fn process_batch_ref<B, S>(&mut self, bursts: &[B]) -> Vec<Result<RxResult, PhyError>>
    where
        B: AsRef<[S]> + Sync,
        S: AsRef<[CQ15]> + Sync,
    {
        let crew = self.workers.min(bursts.len()).max(1);
        while self.helpers.len() + 1 < crew {
            self.helpers.push(self.rx.new_state());
        }
        let (rx, own) = (&self.rx, &mut self.own);
        let next = AtomicUsize::new(0);
        let mut decoded = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .helpers
                .iter_mut()
                .take(crew - 1)
                .enumerate()
                .filter_map(|(i, st)| {
                    let next = &next;
                    std::thread::Builder::new()
                        .name(format!("burst-crew-{}", i + 1))
                        .spawn_scoped(scope, move || claim_loop(rx, st, bursts, next))
                        .ok()
                })
                .collect();
            let mut decoded = claim_loop(rx, own, bursts, &next);
            for h in handles {
                // A helper can only die outside its per-burst
                // isolation; its bursts are re-decoded below.
                if let Ok(part) = h.join() {
                    decoded.extend(part);
                }
            }
            decoded
        });
        decoded.sort_unstable_by_key(|&(i, _)| i);
        let mut decoded = decoded.into_iter().peekable();
        bursts
            .iter()
            .enumerate()
            .map(|(i, burst)| match decoded.next_if(|&(j, _)| j == i) {
                Some((_, result)) => result,
                None => decode_isolated(rx, own, burst.as_ref()),
            })
            .collect()
    }
}

/// One crew member: claim burst indices until the batch is exhausted,
/// decoding each claimed burst on this member's state. Returns the
/// `(index, result)` pairs it decoded.
fn claim_loop<B, S>(
    rx: &MimoReceiver,
    st: &mut RxState,
    bursts: &[B],
    next: &AtomicUsize,
) -> Vec<(usize, Result<RxResult, PhyError>)>
where
    B: AsRef<[S]>,
    S: AsRef<[CQ15]> + Sync,
{
    let mut decoded = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(burst) = bursts.get(i) else {
            return decoded;
        };
        decoded.push((i, decode_isolated(rx, st, burst.as_ref())));
    }
}

/// Decodes one burst, front then back, with the within-burst fan-out
/// off. A panic inside either stage becomes that burst's typed error,
/// and the possibly mid-mutation state is rebuilt before the next one.
fn decode_isolated<S>(
    rx: &MimoReceiver,
    st: &mut RxState,
    burst: &[S],
) -> Result<RxResult, PhyError>
where
    S: AsRef<[CQ15]> + Sync,
{
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        rx.front_stage(&mut st.sync, &mut st.workspace, burst, false)
            .and_then(|front| rx.back_stage(&mut st.workspace, &front, false))
    }));
    outcome.unwrap_or_else(|_| {
        *st = rx.new_state();
        Err(PhyError::Decode("receiver stage panicked".into()))
    })
}
