//! Order statistics, the op-time sample store and the output digest.

use std::collections::BTreeMap;

/// The `q`-quantile of ascending `sorted` by lower nearest rank: the
/// element at `floor(q * (n - 1))`. With few samples the fastest decile
/// degenerates to the minimum, never to an interpolated value no op
/// actually took.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    sorted[(q * (sorted.len() - 1) as f64).floor() as usize]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Fastest-decile, median and slowest-decile of one op kind's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p10: f64,
    pub p50: f64,
    pub p90: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            p10: quantile(&s, 0.1),
            p50: quantile(&s, 0.5),
            p90: quantile(&s, 0.9),
            n: s.len(),
        }
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them; a
/// single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let s = sorted(values);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One op kind: a name shared by a group of ops plus the input's index in
/// that group (stream, benchmark, job).
pub type Kind = (&'static str, usize);

/// Per-kind op times in seconds, one sample per successful op.
#[derive(Debug, Default)]
pub struct Samples {
    kinds: BTreeMap<Kind, Vec<f64>>,
}

impl Samples {
    pub fn add(&mut self, kind: Kind, seconds: f64) {
        self.kinds.entry(kind).or_default().push(seconds);
    }

    /// Σ over the group's kinds of `pick(summary)`; 0 when the group was
    /// never sampled (the layer is not exercised by this workload).
    fn sum(&self, group: &str, pick: impl Fn(&Summary) -> f64) -> f64 {
        self.group(group).map(|(_, s)| pick(&s)).sum()
    }

    /// Σ over the group's kinds of each kind's fastest-decile time: the
    /// fastest-decile time of visiting every input of the group once.
    pub fn p10(&self, group: &str) -> f64 {
        self.sum(group, |s| s.p10)
    }

    pub fn p50(&self, group: &str) -> f64 {
        self.sum(group, |s| s.p50)
    }

    pub fn p90(&self, group: &str) -> f64 {
        self.sum(group, |s| s.p90)
    }

    /// Σ p10 restricted to the kinds `keep` selects by index.
    pub fn p10_where(&self, group: &str, keep: impl Fn(usize) -> bool) -> f64 {
        self.group(group).filter(|((_, i), _)| keep(*i)).map(|(_, s)| s.p10).sum()
    }

    /// Kinds in the group.
    pub fn kinds(&self, group: &str) -> usize {
        self.group(group).count()
    }

    /// Fewest samples any kind of the group has (0 for an empty group).
    pub fn min_samples(&self, group: &str) -> usize {
        self.group(group).map(|(_, s)| s.n).min().unwrap_or(0)
    }

    fn group<'a>(&'a self, group: &'a str) -> impl Iterator<Item = (Kind, Summary)> + 'a {
        self.kinds.iter().filter(move |((g, _), _)| *g == group).map(|(k, v)| (*k, Summary::of(v)))
    }

    /// Every sampled group name, ascending.
    pub fn groups(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.kinds.keys().map(|(g, _)| *g).collect();
        names.dedup();
        names
    }
}

/// FNV-1a 64-bit over everything fed in; identifies outputs across runs
/// and commits (not a security hash).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of(bytes: &[u8]) -> Digest {
        let mut d = Digest::default();
        d.feed(bytes);
        d
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_picks_lower_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.1), 1.0, "floor(0.9) = 0");
        assert_eq!(quantile(&s, 0.5), 5.0, "floor(4.5) = 4");
        assert_eq!(quantile(&s, 0.9), 9.0, "floor(8.1) = 8");
        assert_eq!(quantile(&s, 1.0), 10.0);
        let s: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.1), 10.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&[7.0], 0.1), 7.0, "one sample is every quantile");
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.p10, s.p50, s.p90, s.n), (1.0, 3.0, 4.0, 5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn samples_sum_each_kinds_own_decile() {
        let mut s = Samples::default();
        for t in [3.0, 1.0, 2.0] {
            s.add(("compress", 0), t);
        }
        for t in [10.0, 30.0] {
            s.add(("compress", 1), t);
        }
        s.add(("decompress", 0), 5.0);
        assert_eq!(s.p10("compress"), 11.0);
        assert_eq!(s.p50("compress"), 12.0);
        assert_eq!(s.p10_where("compress", |i| i == 1), 10.0);
        assert_eq!(s.kinds("compress"), 2);
        assert_eq!(s.min_samples("compress"), 2);
        assert_eq!(s.p10("absent"), 0.0);
        assert_eq!(s.groups(), ["compress", "decompress"]);
    }

    #[test]
    fn digest_separates_inputs_and_repeats() {
        assert_eq!(Digest::of(b"abc").hex(), Digest::of(b"abc").hex());
        assert_ne!(Digest::of(b"abc").hex(), Digest::of(b"abd").hex());
        let mut split = Digest::default();
        split.feed(b"ab");
        split.feed(b"c");
        assert_eq!(split.hex(), Digest::of(b"abc").hex());
    }
}
