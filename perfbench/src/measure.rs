//! Sample statistics, process counters and host facts.

use std::time::{Duration, Instant};

/// Wall-clock samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median; the mean of the two middle samples for an even count.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "median of no samples");
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// The highest of the percentiles 99.9/99/95/90/75/50 that has at
    /// least ten samples above it, as `(percentile, value)`, or `None`
    /// when there are fewer than 20 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len();
        // Percentiles in tenths, so the rank arithmetic stays exact.
        [999, 990, 950, 900, 750, 500]
            .into_iter()
            .map(|p| (p, (p * n).div_ceil(1000)))
            .find(|&(_, rank)| rank >= 1 && n - rank >= 10)
            .map(|(p, rank)| (p as f64 / 10.0, v[rank - 1]))
    }

    /// One line for the run log: median, tail and sample count.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!(", p{p} {v:.4}"),
            None => ", no tail (fewer than 20 samples)".to_string(),
        };
        let mut line = format!(
            "{name}: median {:.4} {unit}{tail}, n = {}",
            self.median(),
            self.len()
        );
        if self.len() <= 50 {
            let all: Vec<String> = self.0.iter().map(|v| format!("{v:.4}")).collect();
            line += &format!(" [{}]", all.join(" "));
        }
        line
    }
}

/// Seconds [`calibrate`] takes on a host of reference speed: the 2-core
/// KVM guest of README.md runs it in 45–75 ms, depending on how busy the
/// machine under it is.
pub const CALIB_REF_S: f64 = 0.05;

/// Seconds taken by a fixed computation of the benchmark's own, about
/// 50 ms of allocation, pointer chasing and branches, like the program's
/// presburger and VM work. Timed beside the program's work, it shows how
/// fast the shared host ran at the time: in a slow phase it slowed by as
/// much as lowering and the VM did (README.md).
pub fn calibrate() -> f64 {
    timed(|| {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut map = std::collections::BTreeMap::new();
        for i in 0..300_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.entry(x % 40_000).or_insert_with(Vec::new).push(i);
        }
        map.values().map(|v| v.iter().sum::<u64>()).sum::<u64>()
    })
    .0
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// Whether a measurement window that started at `start` has run for
/// `seconds`.
pub fn window_over(start: Instant, seconds: f64) -> bool {
    start.elapsed() >= Duration::from_secs_f64(seconds)
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// process), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Threads the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// L1 data and L2 cache sizes of cpu0 in bytes, from sysfs (0 when the
/// host does not expose them).
pub fn cache_sizes() -> (u64, u64) {
    let mut l1d = 0;
    let mut l2 = 0;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
        let size = read("size");
        let Some(kb) = size
            .trim()
            .strip_suffix('K')
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        match (read("level").trim(), read("type").trim()) {
            ("1", "Data") => l1d = kb * 1024,
            ("2", _) => l2 = kb * 1024,
            _ => {}
        }
    }
    (l1d, l2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.tail(), Some((90.0, 90.0)));
        assert_eq!(Samples(vec![3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(Samples(vec![1.0; 19]).tail(), None);
        assert_eq!(Samples(vec![1.0; 20]).tail(), Some((50.0, 1.0)));
    }
}
