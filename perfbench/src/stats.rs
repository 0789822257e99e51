//! Small statistics helpers: medians, fixed-rank tail percentiles, the
//! report digest, and the metric map printed as the result line.

use std::collections::BTreeMap;

use flatwalk_obs::Json;

/// Median of `values` (mean of the middle pair for even counts); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest candidate percentile that leaves at least ten samples
/// beyond it when `n` samples are taken. Callers pass the sample count
/// a run is guaranteed to reach, so every run of a workload reports
/// the same percentile.
pub fn tail_percentile_for(n: usize) -> f64 {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n) + 1) >= 10)
        .unwrap_or(50.0)
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    let r = ((p / 100.0) * n as f64).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Nearest-rank percentile `p` of `values`; `0.0` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len())]
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a, 64-bit: the model digest over report bytes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` (plus a separator) into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0xffu8)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Digest of a sequence of byte strings, in order.
    pub fn of<'a>(items: impl IntoIterator<Item = &'a [u8]>) -> String {
        let mut d = Digest::default();
        for item in items {
            d.update(item);
        }
        d.hex()
    }

    /// Hex rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Named metric values with their units, in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (name, (value, unit)) in &self.0 {
            let mut m = Json::obj();
            m.push("value", Json::f64(*value)).push("unit", *unit);
            o.push(name, m);
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile_for(100), 90.0);
        assert_eq!(tail_percentile_for(1000), 99.0);
        assert_eq!(tail_percentile_for(72), 75.0);
        assert_eq!(tail_percentile_for(5), 50.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = Digest::of([b"x".as_slice(), b"y".as_slice()]);
        let b = Digest::of([b"y".as_slice(), b"x".as_slice()]);
        assert_ne!(a, b);
        assert_eq!(a, Digest::of([b"x".as_slice(), b"y".as_slice()]));
    }
}
