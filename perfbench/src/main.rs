//! The repository benchmark: one command per workload and mode.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload burst_qam64 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `burst_qam64`, `pipeline_bpsk`, `stream_short_mixed`
//! (see `METRICS.md`).
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics; `--trace 1` runs the per-crate layer replay on the same
//! seeded bursts and prints the per-layer metrics. The line before the
//! result records the host and build; the last line of standard output
//! is the JSON result. A decoded payload that differs from the one sent,
//! or a replay that differs from the library, makes the exit code
//! non-zero.

mod e2e;
mod error;
mod gen;
mod link;
mod replay;
mod report;
mod traced;

use std::process::ExitCode;

use error::BenchError;
use gen::Workload;
use report::{cpu_has, peak_rss_mib, result_line, Host, Metrics};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::from(1)
        }
    }
}

/// Runs one workload, prints the host record and the result line, and
/// returns whether every output was correct.
fn run(args: &Args) -> Result<bool, BenchError> {
    let (metrics, attempted, failed, mismatched, kernel, workers) = if args.trace {
        let r = traced::run(args.workload, args.seed, args.seconds)?;
        (
            r.metrics,
            r.attempted,
            r.failed + r.mismatched,
            r.mismatched,
            r.kernel,
            r.pipeline_workers,
        )
    } else {
        let r = e2e::run(args.workload, args.seed, args.seconds)?;
        let s = r.summary();
        let mut m = Metrics::default();
        m.put("setup_s", s.setup_s, "s");
        m.put("tx_payload_mbps", s.tx_mbps, "Mbit/s");
        m.put("rx_payload_mbps", s.rx_mbps, "Mbit/s");
        m.put("loopback_payload_mbps", s.loopback_mbps, "Mbit/s");
        m.put("rx_burst_ms.p50", s.p50_ms, "ms");
        m.put("rx_burst_ms.p90", s.p90_ms, "ms");
        m.put("peak_rss_mib", peak_rss_mib(), "MiB");
        (
            m,
            r.attempted,
            r.failed + r.mismatched,
            r.mismatched,
            r.kernel,
            r.pipeline_workers,
        )
    };
    let bad = metrics.non_finite();
    if !bad.is_empty() {
        return Err(BenchError::Check(format!(
            "metrics without a finite value: {bad:?}"
        )));
    }
    let host = Host {
        workload: args.workload.name(),
        seed: args.seed,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        avx2: cpu_has("avx2"),
        avx512f: cpu_has("avx512f"),
        viterbi_kernel: kernel,
        pipeline_workers: workers,
    };
    let correct = mismatched == 0;
    println!("{}", host.to_json());
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if !correct {
        eprintln!("perfbench: {mismatched} burst(s) decoded to a payload other than the one sent");
    }
    Ok(correct)
}
