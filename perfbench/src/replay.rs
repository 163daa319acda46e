//! The per-crate layer replay: the transmit and receive chains rebuilt
//! from each subsystem crate's public functions, with a span around
//! every call into a layer.
//!
//! The replay follows `MimoTransmitter::transmit_burst_with` and the
//! serial schedule of `MimoReceiver::receive_burst` call for call, so
//! its output must equal the library's bit for bit; the traced run
//! checks that on every burst and refuses to report layer numbers for a
//! chain that differs from the one the library runs. Nothing inside the
//! library is instrumented: the spans sit here, around the calls.
//!
//! What the replay cannot separate is core glue: carrier gathers, the
//! SIGNAL-field pack/parse, per-stream byte splits, payload reassembly,
//! EVM accumulation and buffer management. It runs untimed here, and
//! the traced run reports it as the difference between the library's
//! serial call and the sum of the layer spans.

use std::time::Instant;

use mimo_chanest::{ChannelEstimator, CordicQrd, FxMat4};
use mimo_coding::{
    bits, pilot_polarity, puncture_into, CodeRate, CodeSpec, ConvolutionalEncoder, Llr, Scrambler,
    ViterbiDecoder, ViterbiWorkspace,
};
use mimo_core::signal::{encode_signal_field, parse_signal_field, SIGNAL_BITS};
use mimo_core::{BurstParams, LinkGeometry, Mcs, PhyError, EVM_FLOOR_DB};
use mimo_detect::{PilotPhaseCorrector, TimingCorrector, ZfDetector};
use mimo_fixed::{Cf64, CQ15};
use mimo_interleave::{BlockInterleaver, FusedDeinterleaver};
use mimo_modem::{SymbolDemapper, SymbolMapper};
use mimo_ofdm::preamble::{
    lts_time, sts_time, sync_reference, FieldKind, PreambleSchedule, DEFAULT_AMPLITUDE,
};
use mimo_ofdm::{OfdmDemodulator, OfdmModulator, SymbolIngest};
use mimo_sync::{coarse_sts_end, SyncEvent, TimeSynchronizer, DEFAULT_THRESHOLD_FACTOR};

use crate::error::BenchError;

/// Samples the receiver's demodulation windows retreat into the cyclic
/// prefix (the library's window backoff).
const WINDOW_BACKOFF: usize = 6;
/// Scrambler seed shared by the library's transmitter and receiver.
const SCRAMBLER_SEED: u8 = 0x5D;
/// Largest per-stream payload the SIGNAL length check accepts.
const MAX_STREAM_BYTES: usize = 8190;
/// Half-width of the fine-sync scan window around the coarse estimate.
const FINE_WINDOW: usize = 48;

/// One timed layer: a call into one subsystem crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `coarse_sts_end` + `TimeSynchronizer::scan_peak_window`.
    Sync,
    /// `ChannelEstimator::estimate` + `invert_all` (CORDIC QRD).
    Chanest,
    /// `SymbolIngest::ingest_period` (CP strip + FFT).
    Ingest,
    /// `ZfDetector::detect_stream_into`.
    Zf,
    /// `PilotPhaseCorrector` + `TimingCorrector` estimate and correct.
    Pilot,
    /// Soft demap-scatter over the fused map, plus the EVM hard
    /// demap and remap.
    Demap,
    /// `ViterbiDecoder::decode_terminated_into`, header and payload.
    Viterbi,
    /// Descramble + bits to bytes after Viterbi.
    RxBits,
    /// Bits, scrambler, convolutional encoder and puncturer.
    Encode,
    /// `BlockInterleaver::interleave_into`.
    Interleave,
    /// `SymbolMapper::map_bits_into`.
    Map,
    /// `OfdmModulator::modulate_symbol_into` (carrier assembly, IFFT
    /// and cyclic prefix).
    Modulate,
}

const N_LAYERS: usize = 12;

/// Layers on the receive path, in chain order.
pub const RX_LAYERS: [Layer; 8] = [
    Layer::Sync,
    Layer::Chanest,
    Layer::Ingest,
    Layer::Zf,
    Layer::Pilot,
    Layer::Demap,
    Layer::Viterbi,
    Layer::RxBits,
];

/// Layers on the transmit path, in chain order.
pub const TX_LAYERS: [Layer; 4] = [
    Layer::Encode,
    Layer::Interleave,
    Layer::Map,
    Layer::Modulate,
];

/// Busy nanoseconds per layer. Disabled spans cost one branch, which
/// is what the tracing-overhead comparison runs against.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    on: bool,
    ns: [u64; N_LAYERS],
}

impl Spans {
    pub fn enabled() -> Self {
        Self {
            on: true,
            ..Self::default()
        }
    }

    #[inline]
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns[layer as usize] += start.elapsed().as_nanos() as u64;
        out
    }

    pub fn ns(&self, layer: Layer) -> f64 {
        self.ns[layer as usize] as f64
    }

    pub fn sum_ns(&self, layers: &[Layer]) -> f64 {
        layers.iter().map(|&l| self.ns(l)).sum()
    }
}

/// The rate-dependent pieces for one MCS row, built the way the
/// library builds its rate table.
#[derive(Debug, Clone)]
struct Kit {
    rate: CodeRate,
    mapper: SymbolMapper,
    demapper: SymbolDemapper,
    interleaver: BlockInterleaver,
    fused: FusedDeinterleaver,
}

impl Kit {
    fn new(mcs: Mcs, geometry: &LinkGeometry) -> Result<Self, PhyError> {
        let mapper = SymbolMapper::new(mcs.modulation())?;
        let demapper = SymbolDemapper::matched_to(&mapper);
        let interleaver =
            BlockInterleaver::new(mcs.coded_bits_per_symbol(geometry), mcs.bits_per_symbol())?;
        let fused = FusedDeinterleaver::new(&interleaver, mcs.code_rate().keep_pattern())?;
        Ok(Self {
            rate: mcs.code_rate(),
            mapper,
            demapper,
            interleaver,
            fused,
        })
    }

    fn ncbps(&self) -> usize {
        self.interleaver.block_size()
    }
}

/// Per-stream receive scratch.
#[derive(Debug, Clone, Default)]
struct StreamScratch {
    eq: Vec<CQ15>,
    pilots: Vec<CQ15>,
    signs: Vec<i8>,
    data: Vec<CQ15>,
    hard: Vec<u8>,
    evm_points: Vec<CQ15>,
    llrs: Vec<Llr>,
    fill: usize,
    viterbi: ViterbiWorkspace,
    decoded: Vec<u8>,
    bytes: Vec<u8>,
    evm_num: f64,
    evm_den: f64,
    phase_acc: f64,
}

impl StreamScratch {
    fn begin(&mut self, n_syms: usize, kit: &Kit) {
        self.evm_num = 0.0;
        self.evm_den = 0.0;
        self.phase_acc = 0.0;
        self.fill = 0;
        self.llrs.clear();
        self.llrs
            .resize(n_syms * kit.fused.mother_bits_per_symbol(), 0);
    }
}

/// Immutable receive tables.
#[derive(Debug, Clone)]
struct RxTables {
    sync: TimeSynchronizer,
    estimator: ChannelEstimator,
    qrd: CordicQrd,
    detector: ZfDetector,
    phase: PilotPhaseCorrector,
    timing: TimingCorrector,
    viterbi: ViterbiDecoder,
    occ_bins: Vec<usize>,
    occupied: Vec<i32>,
    data_pos: Vec<usize>,
    pilot_pos: Vec<usize>,
    pilot_indices: Vec<i32>,
    pattern: Vec<i8>,
    soft: bool,
}

/// Per-stream transmit scratch.
#[derive(Debug, Clone, Default)]
struct TxScratch {
    info: Vec<u8>,
    mother: Vec<u8>,
    coded: Vec<u8>,
    interleaved: Vec<u8>,
    symbols: Vec<CQ15>,
    freq: Vec<CQ15>,
}

/// What the receive replay recovered from one capture.
#[derive(Debug, Clone)]
pub struct RxReplay {
    pub payload: Vec<u8>,
    pub sync: SyncEvent,
    pub mcs: Mcs,
    pub n_symbols: usize,
    pub evm_db: f64,
    pub per_stream_evm_db: Vec<f64>,
    pub mean_phase_rad: f64,
    /// Symbol periods ingested per antenna (header + payload).
    pub periods: usize,
    /// Information bits out of the Viterbi decoder (header + streams).
    pub info_bits: usize,
    /// The tier `ViterbiKernel::Auto` dispatched for stream 0's payload.
    pub kernel: &'static str,
}

/// The replay engine: tables built once, scratch reused per burst.
#[derive(Debug, Clone)]
pub struct Replay {
    geometry: LinkGeometry,
    kits: Vec<Kit>,
    rx: RxTables,
    ingest: Vec<SymbolIngest>,
    freq: Vec<Vec<CQ15>>,
    header: StreamScratch,
    streams: Vec<StreamScratch>,
    modulator: OfdmModulator,
    schedule: PreambleSchedule,
    sts: Vec<CQ15>,
    lts: Vec<CQ15>,
    tx: TxScratch,
    per_stream: Vec<Vec<u8>>,
}

impl Replay {
    pub fn new(geometry: LinkGeometry) -> Result<Self, PhyError> {
        let n = geometry.fft_size();
        let n_streams = geometry.n_streams();
        let kits = Mcs::ALL
            .iter()
            .map(|&mcs| Kit::new(mcs, &geometry))
            .collect::<Result<Vec<_>, _>>()?;
        let max_ncbps = kits.iter().map(Kit::ncbps).max().unwrap_or(0);

        let demod = OfdmDemodulator::new(n)?;
        let map = demod.map();
        let taps = sync_reference(demod.fft(), map, DEFAULT_AMPLITUDE)?;
        let sync = TimeSynchronizer::new(taps, DEFAULT_THRESHOLD_FACTOR)
            .map_err(|e| PhyError::BadConfig(e.to_string()))?;
        let occupied = map.occupied_indices();
        let pilot_set = map.pilot_indices();
        let (pilot_pos, data_pos): (Vec<usize>, Vec<usize>) =
            (0..occupied.len()).partition(|&i| pilot_set.contains(&occupied[i]));
        let rx = RxTables {
            sync,
            estimator: ChannelEstimator::new(n)?,
            qrd: CordicQrd::new(),
            detector: ZfDetector::new(),
            phase: PilotPhaseCorrector::new(),
            timing: TimingCorrector::new(),
            viterbi: ViterbiDecoder::new(CodeSpec::ieee80211a()),
            occ_bins: occupied.iter().map(|&l| map.bin(l)).collect(),
            pilot_indices: pilot_pos.iter().map(|&p| occupied[p]).collect(),
            pattern: map.pilot_pattern().to_vec(),
            soft: geometry.soft_decoding(),
            occupied,
            data_pos,
            pilot_pos,
        };
        let n_occ = rx.occupied.len();
        let n_pilots = rx.pilot_pos.len();
        let make_stream = || StreamScratch {
            eq: vec![CQ15::ZERO; n_occ],
            pilots: vec![CQ15::ZERO; n_pilots],
            signs: vec![0; n_pilots],
            data: vec![CQ15::ZERO; geometry.data_carriers()],
            hard: vec![0; max_ncbps],
            evm_points: vec![CQ15::ZERO; geometry.data_carriers()],
            ..StreamScratch::default()
        };

        let modulator = OfdmModulator::new(n)?;
        let sts = sts_time(modulator.fft(), modulator.map(), DEFAULT_AMPLITUDE)?;
        let lts = lts_time(modulator.fft(), modulator.map(), DEFAULT_AMPLITUDE)?;
        let tx = TxScratch {
            interleaved: vec![0; max_ncbps],
            symbols: vec![CQ15::ZERO; geometry.data_carriers()],
            freq: vec![CQ15::ZERO; n],
            ..TxScratch::default()
        };
        Ok(Self {
            kits,
            ingest: (0..n_streams)
                .map(|_| SymbolIngest::new(n))
                .collect::<Result<_, _>>()?,
            freq: vec![Vec::new(); n_streams],
            header: make_stream(),
            streams: (0..n_streams).map(|_| make_stream()).collect(),
            schedule: PreambleSchedule::new(n_streams, n),
            modulator,
            sts,
            lts,
            tx,
            per_stream: vec![Vec::new(); n_streams],
            rx,
            geometry,
        })
    }

    fn kit(&self, mcs: Mcs) -> &Kit {
        &self.kits[usize::from(mcs.index())]
    }

    /// Replays `MimoReceiver::receive_burst` on one capture.
    pub fn receive(
        &mut self,
        streams: &[Vec<CQ15>],
        spans: &mut Spans,
    ) -> Result<RxReplay, PhyError> {
        let geometry = self.geometry.clone();
        let n = geometry.fft_size();
        let field = 5 * n / 2;
        let sym_len = geometry.symbol_samples();
        let n_streams = geometry.n_streams();
        let h_syms = geometry.header_symbols();
        if streams.len() != 4 {
            return Err(PhyError::BadStreamCount {
                expected: 4,
                got: streams.len(),
            });
        }

        // Sync: coarse STS plateau, then the 32-tap fine scan around
        // it on every antenna, strongest antenna wins.
        let sync = &self.rx.sync;
        let event = spans
            .time(Layer::Sync, || match coarse_sts_end(streams) {
                Some(coarse) => {
                    let lo = coarse.sts_end.saturating_sub(FINE_WINDOW);
                    let hi = coarse.sts_end + FINE_WINDOW;
                    streams
                        .iter()
                        .filter_map(|s| sync.scan_peak_window(s, lo, hi))
                        .max_by_key(|e| e.magnitude)
                }
                None => streams
                    .iter()
                    .filter_map(|s| sync.scan_peak(s))
                    .max_by_key(|e| e.magnitude),
            })
            .ok_or(PhyError::SyncNotFound)?;
        let lts0 = event.lts_start.saturating_sub(WINDOW_BACKOFF);
        let shortest = streams.iter().map(Vec::len).min().unwrap_or(0);
        if lts0 + 4 * field > shortest {
            return Err(PhyError::TruncatedBurst {
                needed: lts0 + 4 * field,
                available: shortest,
            });
        }
        let lts_views: [[&[CQ15]; 4]; 4] = std::array::from_fn(|rx| {
            std::array::from_fn(|slot| {
                let start = lts0 + slot * field + n / 2;
                &streams[rx][start..start + 2 * n]
            })
        });
        let (estimator, qrd) = (&self.rx.estimator, &self.rx.qrd);
        let h_inv: Vec<FxMat4> = spans.time(Layer::Chanest, || {
            estimator
                .estimate(&lts_views)
                .and_then(|est| est.invert_all(qrd))
        })?;

        // Every whole symbol after the preamble, per antenna: CP strip
        // + FFT, then the occupied-carrier gather (core glue).
        let data_start = lts0 + 4 * field;
        let available = (shortest - data_start) / sym_len;
        let n_occ = self.rx.occupied.len();
        for ((ingest, freq), stream) in self.ingest.iter_mut().zip(&mut self.freq).zip(streams) {
            freq.resize(available * n_occ, CQ15::ZERO);
            for m in 0..available {
                let start = data_start + m * sym_len;
                let period = &stream[start..start + sym_len];
                let frame = spans.time(Layer::Ingest, || ingest.ingest_period(period))?;
                for (d, &bin) in freq[m * n_occ..(m + 1) * n_occ]
                    .iter_mut()
                    .zip(&self.rx.occ_bins)
                {
                    *d = frame[bin];
                }
            }
        }
        if available <= h_syms {
            return Err(PhyError::TruncatedBurst {
                needed: data_start + (h_syms + 1) * sym_len,
                available: shortest,
            });
        }

        // SIGNAL field: stream 0, BPSK r=1/2, no diagnostics.
        let freq: [&[CQ15]; 4] = std::array::from_fn(|a| self.freq[a].as_slice());
        let header_kit = &self.kits[usize::from(Mcs::most_robust().index())];
        self.header.begin(h_syms, header_kit);
        for sym in 0..h_syms {
            symbol(
                &self.rx,
                header_kit,
                &freq,
                &h_inv,
                0,
                sym,
                false,
                &mut self.header,
                spans,
            )?;
        }
        let (viterbi, header) = (&self.rx.viterbi, &mut self.header);
        spans.time(Layer::Viterbi, || {
            viterbi.decode_terminated_into(&header.llrs, &mut header.viterbi, &mut header.decoded)
        })?;
        let mut info_bits = header.decoded.len();
        if header.decoded.len() < SIGNAL_BITS {
            return Err(PhyError::Decode(
                "header shorter than the SIGNAL field".into(),
            ));
        }
        let params = parse_signal_field(&header.decoded)?;
        if params.length > n_streams * MAX_STREAM_BYTES {
            return Err(PhyError::Decode(format!(
                "SIGNAL length {} too large",
                params.length
            )));
        }
        let n_symbols = params.payload_symbols(&geometry);
        if available < h_syms + n_symbols {
            return Err(PhyError::TruncatedBurst {
                needed: data_start + (h_syms + n_symbols) * sym_len,
                available: shortest,
            });
        }

        // Payload: every stream, the per-symbol core at the announced
        // rate, then Viterbi + descramble per stream.
        let kit = &self.kits[usize::from(params.mcs.index())];
        for (k, ws) in self.streams.iter_mut().enumerate() {
            ws.begin(n_symbols, kit);
            for sym in h_syms..h_syms + n_symbols {
                symbol(&self.rx, kit, &freq, &h_inv, k, sym, true, ws, spans)?;
            }
        }
        let kernel = self.rx.viterbi.kernel_name(&self.streams[0].llrs);
        let scramble = geometry.scramble();
        for (k, ws) in self.streams.iter_mut().enumerate() {
            spans.time(Layer::Viterbi, || {
                viterbi.decode_terminated_into(&ws.llrs, &mut ws.viterbi, &mut ws.decoded)
            })?;
            info_bits += ws.decoded.len();
            let expect = params.stream_bytes(k, n_streams);
            if ws.decoded.len() < 8 * expect {
                return Err(PhyError::Decode(format!("stream {k} decoded too few bits")));
            }
            let (decoded, bytes) = (&mut ws.decoded, &mut ws.bytes);
            spans.time(Layer::RxBits, || {
                if scramble {
                    Scrambler::new(SCRAMBLER_SEED).scramble_in_place(decoded);
                }
                bits::bits_to_bytes_into(&decoded[..8 * expect], bytes);
            });
        }

        // Round-robin reassembly and the diagnostics (core glue).
        let mut payload = Vec::with_capacity(params.length);
        let mut cursors = [0usize; 4];
        for i in 0..params.length {
            let s = i % n_streams;
            payload.push(*self.streams[s].bytes.get(cursors[s]).ok_or_else(|| {
                PhyError::Decode("stream lengths inconsistent with the round-robin split".into())
            })?);
            cursors[s] += 1;
        }
        let (mut num, mut den, mut phase) = (0.0, 0.0, 0.0);
        let per_stream_evm_db = self
            .streams
            .iter()
            .map(|ws| {
                num += ws.evm_num;
                den += ws.evm_den;
                phase += ws.phase_acc;
                evm_ratio_db(ws.evm_num, ws.evm_den)
            })
            .collect();
        let samples = (n_streams * n_symbols.max(1)).max(1);
        Ok(RxReplay {
            payload,
            sync: event,
            mcs: params.mcs,
            n_symbols,
            evm_db: evm_ratio_db(num, den),
            per_stream_evm_db,
            mean_phase_rad: phase / samples as f64,
            periods: h_syms + n_symbols,
            info_bits,
            kernel,
        })
    }

    /// Replays `MimoTransmitter::transmit_burst_with`, returning the
    /// per-antenna sample streams.
    pub fn transmit(
        &mut self,
        mcs: Mcs,
        payload: &[u8],
        spans: &mut Spans,
    ) -> Result<Vec<Vec<CQ15>>, PhyError> {
        let geometry = self.geometry.clone();
        let n_streams = geometry.n_streams();
        let params = BurstParams {
            mcs,
            length: payload.len(),
        };
        for bytes in &mut self.per_stream {
            bytes.clear();
        }
        for (i, &b) in payload.iter().enumerate() {
            self.per_stream[i % n_streams].push(b);
        }
        let n_symbols = params.payload_symbols(&geometry);
        let h_syms = geometry.header_symbols();
        let pre_len = self.schedule.data_offset();
        let sym_len = geometry.symbol_samples();
        let header_len = h_syms * sym_len;
        let mut streams =
            vec![vec![CQ15::ZERO; pre_len + header_len + n_symbols * sym_len]; n_streams];
        for slot in self.schedule.slots() {
            let field = match slot.kind {
                FieldKind::Sts => &self.sts,
                FieldKind::Lts => &self.lts,
            };
            streams[slot.tx][slot.offset..slot.offset + slot.len].copy_from_slice(field);
        }
        let spec = CodeSpec::ieee80211a();
        let flush = spec.constraint_length() - 1;

        // SIGNAL field on stream 0: never scrambled or punctured.
        let header_kit = self.kit(Mcs::most_robust()).clone();
        let capacity = h_syms * Mcs::most_robust().info_bits_per_symbol(&geometry) - flush;
        let ws = &mut self.tx;
        ws.info.clear();
        encode_signal_field(&params, &mut ws.info)?;
        ws.info.resize(capacity, 0);
        spans.time(Layer::Encode, || {
            ConvolutionalEncoder::new(spec.clone())
                .encode_terminated_into(&ws.info, &mut ws.mother);
            puncture_into(&ws.mother, CodeRate::Half, &mut ws.coded);
        });
        modulate(
            &self.modulator,
            &header_kit,
            ws,
            0,
            &mut streams[0][pre_len..pre_len + header_len],
            sym_len,
            spans,
        )?;

        // Payload: the four channel pipelines in index order.
        let kit = self.kit(mcs).clone();
        let capacity = n_symbols * mcs.info_bits_per_symbol(&geometry) - flush;
        let scramble = geometry.scramble();
        for (stream, bytes) in streams.iter_mut().zip(&self.per_stream) {
            let ws = &mut self.tx;
            spans.time(Layer::Encode, || {
                ws.info.clear();
                bits::bytes_to_bits_append(bytes, &mut ws.info);
                ws.info.resize(capacity, 0);
                if scramble {
                    Scrambler::new(SCRAMBLER_SEED).scramble_in_place(&mut ws.info);
                }
                ConvolutionalEncoder::new(spec.clone())
                    .encode_terminated_into(&ws.info, &mut ws.mother);
                puncture_into(&ws.mother, kit.rate, &mut ws.coded);
            });
            modulate(
                &self.modulator,
                &kit,
                ws,
                h_syms,
                &mut stream[pre_len + header_len..],
                sym_len,
                spans,
            )?;
        }
        Ok(streams)
    }
}

/// Interleave → map → IFFT + CP for each coded symbol, starting at
/// pilot polarity index `pilot_offset`.
fn modulate(
    modulator: &OfdmModulator,
    kit: &Kit,
    ws: &mut TxScratch,
    pilot_offset: usize,
    out: &mut [CQ15],
    sym_len: usize,
    spans: &mut Spans,
) -> Result<(), PhyError> {
    let ncbps = kit.ncbps();
    let TxScratch {
        coded,
        interleaved,
        symbols,
        freq,
        ..
    } = ws;
    let interleaved = &mut interleaved[..ncbps];
    for (idx, (block, on_air)) in coded.chunks(ncbps).zip(out.chunks_mut(sym_len)).enumerate() {
        spans.time(Layer::Interleave, || {
            kit.interleaver.interleave_into(block, interleaved)
        })?;
        spans.time(Layer::Map, || {
            kit.mapper.map_bits_into(interleaved, symbols)
        })?;
        spans.time(Layer::Modulate, || {
            modulator.modulate_symbol_into(symbols, pilot_offset + idx, on_air, freq)
        })?;
    }
    Ok(())
}

/// One stream × one symbol of the receive core: ZF row `k`, pilot
/// phase and timing correction, EVM (when `diag`), and the fused
/// demap → deinterleave → depuncture scatter into the LLR stream.
#[allow(clippy::too_many_arguments)] // one argument per pipeline input
fn symbol(
    rx: &RxTables,
    kit: &Kit,
    freq: &[&[CQ15]; 4],
    h_inv: &[FxMat4],
    k: usize,
    sym: usize,
    diag: bool,
    ws: &mut StreamScratch,
    spans: &mut Spans,
) -> Result<(), PhyError> {
    let n_occ = rx.occupied.len();
    let rx_occ: [&[CQ15]; 4] = std::array::from_fn(|a| &freq[a][sym * n_occ..(sym + 1) * n_occ]);
    spans.time(Layer::Zf, || {
        rx.detector
            .detect_stream_into(h_inv, &rx_occ, k, &mut ws.eq)
    })?;

    let polarity = pilot_polarity(sym);
    for (sign, &base) in ws.signs.iter_mut().zip(&rx.pattern) {
        *sign = base * polarity;
    }
    let phi = spans.time(Layer::Pilot, || {
        for (pilot, &p) in ws.pilots.iter_mut().zip(&rx.pilot_pos) {
            *pilot = ws.eq[p];
        }
        let phi = rx.phase.estimate_phase(&ws.pilots, &ws.signs);
        rx.phase.correct_in_place(&mut ws.eq, phi);
        for (pilot, &p) in ws.pilots.iter_mut().zip(&rx.pilot_pos) {
            *pilot = ws.eq[p];
        }
        let tau = rx
            .timing
            .estimate_tau(&ws.pilots, &ws.signs, &rx.pilot_indices);
        rx.timing.correct_in_place(&mut ws.eq, &rx.occupied, tau);
        phi
    });
    if diag {
        ws.phase_acc += phi.to_f64();
    }
    for (d, &p) in ws.data.iter_mut().zip(&rx.data_pos) {
        *d = ws.eq[p];
    }

    let ncbps = kit.ncbps();
    if diag {
        let (data, hard, points) = (&ws.data, &mut ws.hard[..ncbps], &mut ws.evm_points);
        spans.time(Layer::Demap, || {
            kit.demapper.hard_demap_into(data, hard);
            kit.mapper.map_bits_into(hard, points)
        })?;
        for (&got, &want) in ws.data.iter().zip(&ws.evm_points) {
            ws.evm_num += (Cf64::from_fixed(got) - Cf64::from_fixed(want)).norm_sqr();
            ws.evm_den += Cf64::from_fixed(want).norm_sqr();
        }
    }
    let mps = kit.fused.mother_bits_per_symbol();
    let out = ws
        .llrs
        .get_mut(ws.fill..ws.fill + mps)
        .ok_or_else(|| PhyError::Decode("symbol pass overran the LLR buffer".into()))?;
    let (data, hard) = (&ws.data, &mut ws.hard[..ncbps]);
    spans.time(Layer::Demap, || {
        if rx.soft {
            kit.demapper
                .soft_demap_scatter_into(data, kit.fused.map(), out);
        } else {
            kit.demapper.hard_demap_into(data, hard);
            for (&bit, &pos) in hard.iter().zip(kit.fused.map()) {
                out[pos as usize] = mimo_coding::hard_to_llr(bit);
            }
        }
    });
    ws.fill += mps;
    Ok(())
}

/// The library's EVM dB conversion with its finite floor.
fn evm_ratio_db(num: f64, den: f64) -> f64 {
    if num > 0.0 && den > 0.0 {
        (10.0 * (num / den).log10()).max(EVM_FLOOR_DB)
    } else {
        EVM_FLOOR_DB
    }
}

/// Checks a transmit replay against the library's burst, sample for
/// sample.
pub fn check_tx(library: &[Vec<CQ15>], replay: &[Vec<CQ15>]) -> Result<(), BenchError> {
    if library == replay {
        return Ok(());
    }
    let first = library
        .iter()
        .zip(replay)
        .enumerate()
        .find_map(|(k, (a, b))| {
            (a != b).then(|| format!("stream {k}: {} vs {} samples", a.len(), b.len()))
        });
    Err(BenchError::Check(format!(
        "transmit replay differs from transmit_burst_with ({})",
        first.unwrap_or_else(|| "stream count".into())
    )))
}

/// Checks a receive replay against the library's result: payload,
/// rate, symbol count, sync event and every diagnostic figure.
pub fn check_rx(library: &mimo_core::RxResult, replay: &RxReplay) -> Result<(), BenchError> {
    let d = &library.diagnostics;
    let q = &d.quality;
    let same = library.payload == replay.payload
        && d.mcs == replay.mcs
        && d.n_symbols == replay.n_symbols
        && d.sync == replay.sync
        && q.evm_db.to_bits() == replay.evm_db.to_bits()
        && q.per_stream_evm_db.len() == replay.per_stream_evm_db.len()
        && q.per_stream_evm_db
            .iter()
            .zip(&replay.per_stream_evm_db)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && q.mean_phase_rad.to_bits() == replay.mean_phase_rad.to_bits();
    if same {
        Ok(())
    } else {
        Err(BenchError::Check(format!(
            "receive replay differs from receive_burst (payload equal: {}, mcs {} vs {}, evm {} vs {})",
            library.payload == replay.payload,
            d.mcs,
            replay.mcs,
            q.evm_db,
            replay.evm_db
        )))
    }
}
