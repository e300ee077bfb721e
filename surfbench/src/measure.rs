//! Summary statistics, output checksums and process facts shared by every workload.

use std::time::Duration;

/// Milliseconds in a duration.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1_000.0
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (mean of the two middle values for an even count; 0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Nearest-rank percentile `p` (in `[0, 100]`) of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles the tail is read at, lowest first.
const TAIL_LADDER: [f64; 10] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9, 99.95];

/// Samples that must lie beyond the reported tail percentile.
const TAIL_BEYOND: f64 = 10.0;

/// The tail of a latency sample: the highest ladder percentile with at least ten samples
/// beyond it, as `(percentile, value)`. Samples too small for any such percentile report
/// the median, which the printed sample count makes visible.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n * (100.0 - p) / 100.0 + 1e-9 >= TAIL_BEYOND)
        .map_or((50.0, median(values)), |p| (p, percentile(values, p)))
}

/// FNV-1a over the exact bits of everything an operation returned. Two runs agree on a
/// checksum only when they produced bit-identical outputs.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds an integer in.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Folds a float in by its bit pattern (so `-0.0`, NaN payloads and the last ulp count).
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Folds a float slice in, length first.
    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        self.u64(values.len() as u64);
        for &value in values {
            self.f64(value);
        }
        self
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Checksum of everything a mining request returned except its wall-clock time.
pub fn outcome_checksum(outcome: &surf_core::MiningOutcome) -> String {
    let mut sum = Checksum::default();
    sum.u64(outcome.regions.len() as u64);
    for mined in &outcome.regions {
        sum.f64s(&mined.region.to_solution_vector())
            .f64(mined.predicted_value)
            .f64(mined.objective_value);
    }
    sum.f64(outcome.swarm_valid_fraction)
        .f64s(&outcome.convergence_trace)
        .u64(outcome.iterations_run as u64)
        .u64(u64::from(outcome.converged))
        .u64(outcome.surrogate_evaluations as u64);
    sum.hex()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1_024.0)
}

/// SIMD-relevant CPU flags as the kernel reports them in `/proc/cpuinfo`.
pub fn cpu_isa_flags() -> Vec<String> {
    const INTERESTING: [&str; 10] = [
        "sse2", "sse4_1", "sse4_2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512bw", "avx512vl",
    ];
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|line| line.starts_with("flags"))
        .and_then(|line| line.split(':').nth(1))
        .map(|list| list.split_whitespace().collect())
        .unwrap_or_default();
    INTERESTING
        .iter()
        .filter(|flag| flags.contains(flag))
        .map(|flag| flag.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail(&values), (99.0, 990.0));
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few).0, 50.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn checksum_sees_every_bit() {
        let a = Checksum::default().f64(0.0).hex();
        let b = Checksum::default().f64(-0.0).hex();
        assert_ne!(a, b);
    }
}
