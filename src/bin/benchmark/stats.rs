//! The harness's own arithmetic: seeded randomness, sample recorders,
//! percentiles, quartiles and the input digest.  Nothing here depends on the
//! crates under test, so a change to them cannot move how they are measured.

/// SplitMix64 — the benchmark's only source of randomness; every stream is
/// derived from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the key
    /// counts used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An independent stream for sub-task `index` of this seed.
    pub fn fork(seed: u64, index: u64) -> u64 {
        SplitMix64::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
    }
}

/// FNV-1a over the generated inputs: a cheap fingerprint that pins what the
/// program under test received.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Exact-sample recorder with nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    samples: Vec<f64>,
    sorted: bool,
}

impl Recorder {
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    pub fn merge(&mut self, other: &Recorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }

    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// 1-based nearest rank of percentile `p`; the epsilon keeps `0.9 × 100`
    /// at rank 90 despite binary floating point.
    fn rank(&self, p: f64) -> usize {
        let rank = (p * self.samples.len() as f64 - 1e-9).ceil() as usize;
        rank.clamp(1, self.samples.len().max(1))
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile (`p` in `(0, 1]`): the smallest sample with at
    /// least `p` of the samples at or below it.  `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        Some(self.samples[self.rank(p) - 1])
    }

    /// The percentile, but only when at least ten samples lie beyond it —
    /// a tail read off fewer is one outlier's latency, not a percentile.
    pub fn supported_percentile(&mut self, p: f64) -> Option<f64> {
        let beyond = self
            .samples
            .len()
            .saturating_sub(self.rank(p).min(self.samples.len()));
        (!self.samples.is_empty() && beyond >= 10)
            .then(|| self.percentile(p))
            .flatten()
    }

    /// Median, 0.0 when empty (metrics that must never be empty are checked
    /// by the caller).
    pub fn median(&mut self) -> f64 {
        self.percentile(0.5).unwrap_or(0.0)
    }
}

/// p99 of each `window_s`-second window of `(offset_s, latency)` samples,
/// then the median of the windows: one stall spoils one window's p99, not
/// the reported number.  Windows whose p99 is not supported by ten samples
/// beyond it are skipped.
pub fn windowed_p99_median(samples: &[(f64, f64)], window_s: f64) -> Option<(f64, usize)> {
    let mut windows: Vec<Recorder> = Vec::new();
    for (offset, latency) in samples {
        let index = (offset / window_s).floor().max(0.0) as usize;
        if windows.len() <= index {
            windows.resize_with(index + 1, Recorder::default);
        }
        windows[index].record(*latency);
    }
    let mut p99s = Recorder::default();
    for window in &mut windows {
        if let Some(p99) = window.supported_percentile(0.99) {
            p99s.record(p99);
        }
    }
    let count = p99s.count();
    p99s.percentile(0.5).map(|median| (median, count))
}

/// First quartile, median and third quartile by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)` — the definition the driver
/// applies to a set of runs.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let position = i * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// A fixed piece of work — dependent loads and multiplies over an 8 MiB
/// table — timed between the repetitions of a run.  The box is a VM whose
/// memory system slows down by up to a third for minutes at a time (busy
/// neighbours: a cache-resident arithmetic loop keeps its speed while this
/// kernel and the program under test slow down together), so the same binary
/// on the same inputs reports timings a third apart.  The kernel's time is
/// published as `harness.calibration_ms` so that a reader can tell a slow
/// minute from a slow program; no metric is rescaled by it.  It runs only
/// between repetitions, where the next thing is a fresh engine anyway, because
/// walking the table evicts the caches.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    samples_ms: Recorder,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut rng = SplitMix64::new(0xCA11_B8A7E);
        Calibrator {
            table: (0..1024 * 1024).map(|_| rng.next_u64()).collect(),
            samples_ms: Recorder::default(),
        }
    }
}

impl Calibrator {
    /// Run the kernel once (about four milliseconds) and record its time.
    pub fn sample(&mut self) {
        let started = std::time::Instant::now();
        let mask = self.table.len() as u64 - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..25_000 {
            let slot = (x & mask) as usize;
            x = (x ^ self.table[slot]).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (x >> 29);
        }
        std::hint::black_box(x);
        self.samples_ms
            .record(started.elapsed().as_secs_f64() * 1e3);
    }

    pub fn median_ms(&mut self) -> f64 {
        self.samples_ms.median()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), `None` where
/// `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut r = Recorder::default();
        assert_eq!(r.percentile(0.5), None);
        for v in 1..=100 {
            r.record(f64::from(v));
        }
        assert_eq!(r.percentile(0.5), Some(50.0));
        assert_eq!(r.percentile(0.9), Some(90.0));
        assert_eq!(r.percentile(0.99), Some(99.0));
        assert_eq!(r.percentile(1.0), Some(100.0));
        // Nearest rank never interpolates: 5 samples, p50 is the 3rd.
        let mut small = Recorder::default();
        for v in [9.0, 1.0, 7.0, 3.0, 5.0] {
            small.record(v);
        }
        assert_eq!(small.percentile(0.5), Some(5.0));
        assert_eq!(small.percentile(0.01), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let mut r = Recorder::default();
        for v in 0..99 {
            r.record(f64::from(v));
        }
        // 99 samples: 9 beyond p90, 0 beyond p99.
        assert_eq!(r.supported_percentile(0.9), None);
        r.record(99.0);
        assert_eq!(r.supported_percentile(0.9), Some(89.0));
        assert_eq!(r.supported_percentile(0.99), None);
        for v in 100..1000 {
            r.record(f64::from(v));
        }
        assert_eq!(r.supported_percentile(0.99), Some(989.0));
    }

    #[test]
    fn windowed_p99_resists_one_bad_window() {
        let mut samples = Vec::new();
        for window in 0..6 {
            for i in 0..1000 {
                let offset = window as f64 + i as f64 / 1000.0;
                // Window 2 stalls: every latency is 50 ms there.
                let latency = if window == 2 {
                    50.0
                } else {
                    1.0 + i as f64 / 1000.0
                };
                samples.push((offset, latency));
            }
        }
        let (median, windows) = windowed_p99_median(&samples, 1.0).unwrap();
        assert_eq!(windows, 6);
        assert!(median < 2.0, "one stalled window must not set the number");
        // A window with too few samples for a p99 is skipped, not trusted.
        samples.push((6.5, 900.0));
        let (_, windows) = windowed_p99_median(&samples, 1.0).unwrap();
        assert_eq!(windows, 6);
        assert_eq!(windowed_p99_median(&[(0.0, 1.0)], 1.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn digest_and_rng_are_stable() {
        let mut a = Fnv1a::default();
        a.write(b"ab");
        a.write(b"c");
        let mut b = Fnv1a::default();
        b.write(b"a");
        b.write(b"bc");
        assert_ne!(a.finish(), b.finish());
        let mut again = Fnv1a::default();
        again.write(b"ab");
        again.write(b"c");
        assert_eq!(a.finish(), again.finish());
        // Pinned values: a drift here silently changes every workload.
        assert_eq!(a.finish(), 2_358_367_985_974_424_609);
        let mut rng = SplitMix64::new(1);
        assert_eq!(rng.next_u64(), 0x910A_2DEC_8902_5CC1);
        assert_eq!(SplitMix64::fork(1, 2), SplitMix64::fork(1, 2));
        assert_ne!(SplitMix64::fork(1, 2), SplitMix64::fork(1, 3));
    }
}
