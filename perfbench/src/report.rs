//! Order statistics, the host record and the one-line JSON result.

use std::time::Duration;

/// Linear-interpolated quantile `q ∈ [0, 1]` of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| *n)
            .collect()
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// The host and build record printed before the result line.
#[derive(Debug)]
pub struct Host {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub nproc: usize,
    pub avx2: bool,
    pub avx512f: bool,
    pub viterbi_kernel: &'static str,
    pub pipeline_workers: usize,
}

impl Host {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
             \"avx2\": {}, \"avx512f\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \
             \"viterbi_kernel\": \"{}\", \"pipeline_workers\": {}}}}}",
            self.workload,
            self.seed,
            self.trace,
            self.nproc,
            self.avx2,
            self.avx512f,
            env!("PERFBENCH_RUSTC"),
            env!("PERFBENCH_PROFILE"),
            self.viterbi_kernel,
            self.pipeline_workers,
        )
    }
}

pub fn cpu_has(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

/// The best Viterbi tier this host can dispatch for the paper's code:
/// the AVX2 lanes when the CPU has them, the portable lanes otherwise.
pub fn best_viterbi_kernel() -> &'static str {
    if cpu_has("avx2") {
        "simd-avx2"
    } else {
        "simd-portable"
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
