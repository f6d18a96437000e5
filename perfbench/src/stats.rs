//! Percentiles, the results digest and the metric report.

/// The nearest-rank `q`-quantile of `sorted` (ascending), `q` in
/// `(0, 1]`; `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail percentile a sample supports: p99 when at least ten samples
/// lie beyond it, otherwise the highest nearest-rank percentile that
/// still leaves ten samples beyond it. Returns `(level, value)`, or
/// `None` when that percentile would fall below the median (fewer than
/// twenty samples).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 20 {
        return None;
    }
    let rank = ((0.99 * n as f64).ceil() as usize).min(n - 10);
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// FNV-1a over the bit patterns of physical results, independent of any
/// wire or receipt format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultsDigest(u64);

impl Default for ResultsDigest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl ResultsDigest {
    /// Folds one value.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// Folds one 64-bit word.
    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Set when a run-level check (such as traced ≡ untraced) failed.
    pub mismatch: bool,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Share of attempted operations that passed every check.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every output check passed and every value is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && !self.mismatch
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The closing result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every significant digit.
fn json_number(value: f64) -> String {
    let text = format!("{value:?}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// splitmix64: derives independent seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
