//! Measurement primitives: a latency histogram fine enough that medians
//! differ between runs, order statistics over rounds, and the two
//! `/proc/self` readings (peak RSS, process CPU time).

/// Sub-buckets per power of two: values are kept to 1/1024 relative
/// precision (exactly below 1024 ns).
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
const SLOTS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Log-linear latency histogram over nanoseconds. Fixed size, so recording
/// never allocates and the memory it adds to a run does not grow with the
/// number of samples.
pub(crate) struct Hist {
    counts: Vec<u32>,
    n: u64,
    max: u64,
}

fn slot(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + sub
}

fn slot_floor(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let e = (i / SUB) as u32 + SUB_BITS - 1;
    ((SUB + i % SUB) as u64) << (e - SUB_BITS)
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    pub(crate) fn new() -> Hist {
        Hist {
            counts: vec![0; SLOTS],
            n: 0,
            max: 0,
        }
    }

    pub(crate) fn record(&mut self, ns: u64) {
        self.counts[slot(ns)] += 1;
        self.n += 1;
        self.max = self.max.max(ns);
    }

    pub(crate) fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    pub(crate) fn max_ns(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` (nearest rank, bucket floor); 0 when empty.
    pub(crate) fn quantile_ns(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return slot_floor(i);
            }
        }
        self.max
    }

    pub(crate) fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1e3
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method), so a spread printed here is the one a
/// script comparing runs computes.
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return (d[0], d[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process so far, in seconds (clock ticks
/// of `/proc/self/stat`, 100 per second on Linux).
pub(crate) fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_round_trip_and_stay_ordered() {
        for v in [0u64, 1, 1023, 1024, 1025, 4097, 123_456, 9_876_543_210] {
            let f = slot_floor(slot(v));
            assert!(f <= v && v - f <= v / 1024, "{v} -> {f}");
        }
        let mut last = 0;
        for i in 1..SLOTS {
            assert!(slot_floor(i) > last);
            last = slot_floor(i);
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]),
            (2.75, 8.25)
        );
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3., 1., 2.]), (1.0, 3.0));
    }
}
