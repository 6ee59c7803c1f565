//! In-process metrics: counters, gauges, and log-bucketed histograms.
//!
//! The registry is the single source of operational truth for the
//! service. Counters and gauges are lock-free atomics; histograms keep
//! geometrically spaced buckets so a fixed, small footprint covers nine
//! decades of latency (or cost) while quantile error stays bounded by
//! the bucket growth factor.

#![deny(clippy::disallowed_types)]

#[cfg(clippy)]
#[expect(
    clippy::disallowed_types,
    reason = "canary: fails clippy if the crate's `disallowed-types` list stops applying"
)]
const _: fn() -> usize = || std::collections::HashSet::<u8>::new().len();

use serde::{Number, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, pending tasks, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A `u64` that threads publish to each other as a *hint*: worker
/// heartbeat slots, the engine load gauges, the router cursor. Readers
/// may see a stale value and nothing scheduled ever reads one back, so
/// every access is a single relaxed atomic op — and because relaxed
/// set/add/get is the whole API, a cell cannot be misused as a
/// cross-thread handshake. This file is the only one where
/// `scripts/ci.sh` lets the word `Relaxed` appear, comments included;
/// anything that needs ordering uses a std atomic with Acquire/Release
/// or SeqCst.
#[derive(Debug, Default)]
pub struct AdvisoryCell(AtomicU64);

impl AdvisoryCell {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (wrapping) and return the value before the add.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Smallest finite value with its own bucket; anything below lands in
/// the underflow bucket 0. With seconds as the unit this is 1 µs.
const HIST_BASE: f64 = 1e-6;
/// Geometric growth per bucket. Quantiles are reported as the bucket's
/// geometric midpoint, so the relative error is at most `sqrt(2) - 1`.
const HIST_GROWTH: f64 = 2.0;
/// Bucket count: underflow + 60 geometric buckets reaches ~1.15e12 ×
/// base, far past any latency or cost this service records.
pub const HIST_BUCKETS: usize = 61;

#[derive(Debug)]
struct HistInner {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// A log-bucketed histogram over non-negative `f64` samples.
#[derive(Debug)]
pub struct Histogram {
    inner: Mutex<HistInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Mutex::new(HistInner {
                counts: [0; HIST_BUCKETS],
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }),
        }
    }
}

/// Bucket index for a sample: 0 is the underflow bucket `[0, base)`,
/// bucket `i >= 1` covers `[base * g^(i-1), base * g^i)`.
#[must_use]
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < HIST_BASE {
        // Negative, NaN, and sub-base samples all underflow.
        return 0;
    }
    let i = (v / HIST_BASE).log(HIST_GROWTH).floor() as usize + 1;
    i.min(HIST_BUCKETS - 1)
}

/// Representative value reported for a bucket: its geometric midpoint
/// (half the base for the underflow bucket).
#[must_use]
pub fn bucket_value(i: usize) -> f64 {
    if i == 0 {
        return HIST_BASE / 2.0;
    }
    let lo = HIST_BASE * HIST_GROWTH.powi(i as i32 - 1);
    lo * HIST_GROWTH.sqrt()
}

impl Histogram {
    fn lock(&self) -> std::sync::MutexGuard<'_, HistInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one sample.
    pub fn record(&self, v: f64) {
        let mut h = self.lock();
        Self::record_locked(&mut h, v);
    }

    /// Record a batch of samples under one lock acquisition. The hot
    /// stage-attribution paths run per drained round, not per task, so
    /// a round's worth of samples costs one mutex round-trip instead
    /// of one per sample.
    pub fn record_many(&self, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        let mut h = self.lock();
        for &v in samples {
            Self::record_locked(&mut h, v);
        }
    }

    /// Record `n` samples of the same value — a batch that shares one
    /// measured span — under one lock acquisition and one bucket
    /// lookup.
    pub fn record_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let mut h = self.lock();
        h.counts[bucket_index(v)] += n;
        h.count += n;
        h.sum += v * n as f64;
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    fn record_locked(h: &mut HistInner, v: f64) {
        h.counts[bucket_index(v)] += 1;
        h.count += 1;
        h.sum += v;
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.lock().count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.lock().sum
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), reported as the
    /// geometric midpoint of the bucket holding that rank. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let h = self.lock();
        if h.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * h.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_value(i));
            }
        }
        Some(bucket_value(HIST_BUCKETS - 1))
    }

    /// Snapshot as a JSON object: count, sum, min/max, p50/p95/p99, and
    /// the raw occupied buckets as `[index, count]` pairs (an additive
    /// field — consumers of the quantile-only schema are unaffected).
    pub(crate) fn to_value(&self) -> Value {
        let (count, sum, min, max, counts) = {
            let h = self.lock();
            (h.count, h.sum, h.min, h.max, h.counts)
        };
        let quant = |q| self.quantile(q).unwrap_or(0.0);
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        let buckets: Vec<Value> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                Value::Array(vec![
                    Value::Number(Number::PosInt(i as u64)),
                    Value::Number(Number::PosInt(c)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("count".into(), Value::Number(Number::PosInt(count))),
            ("sum".into(), Value::Number(Number::Float(sum))),
            ("min".into(), Value::Number(Number::Float(finite(min)))),
            ("max".into(), Value::Number(Number::Float(finite(max)))),
            ("p50".into(), Value::Number(Number::Float(quant(0.50)))),
            ("p95".into(), Value::Number(Number::Float(quant(0.95)))),
            ("p99".into(), Value::Number(Number::Float(quant(0.99)))),
            ("buckets".into(), Value::Array(buckets)),
        ])
    }
}

/// Registry name for the per-shard variant of metric `name`
/// (`name.shardK`). The unsuffixed name stays the merged total, so the
/// sorted snapshot lists a metric directly above its shard breakdown.
#[must_use]
pub fn shard_metric(name: &str, shard: usize) -> String {
    format!("{name}.shard{shard}")
}

fn read_or_recover<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_or_recover<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Named metrics, created on first use and shared by `Arc`.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

macro_rules! get_or_create {
    ($self:ident, $map:ident, $name:ident) => {{
        if let Some(m) = read_or_recover(&$self.$map).get($name) {
            return Arc::clone(m);
        }
        Arc::clone(
            write_or_recover(&$self.$map)
                .entry($name.to_string())
                .or_default(),
        )
    }};
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create!(self, counters, name)
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create!(self, gauges, name)
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create!(self, histograms, name)
    }

    /// Snapshot every metric as one JSON object (deterministic name
    /// order).
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let counters = read_or_recover(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(Number::PosInt(v.get()))))
            .collect();
        let gauges = read_or_recover(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(Number::NegInt(v.get()))))
            .collect();
        let histograms = read_or_recover(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("histograms".into(), Value::Object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_snapshot_carries_raw_buckets() {
        let h = Histogram::default();
        h.record(1.0e-3);
        h.record(1.0e-3);
        h.record(1.0);
        let v = h.to_value();
        // Existing schema fields are untouched.
        assert_eq!(v.get("count").unwrap(), &Value::Number(Number::PosInt(3)));
        let Some(Value::Array(buckets)) = v.get("buckets") else {
            panic!("snapshot must carry a buckets array");
        };
        assert_eq!(buckets.len(), 2, "two occupied buckets");
        let pair = |b: &Value| match b {
            Value::Array(xs) => match (&xs[0], &xs[1]) {
                (Value::Number(Number::PosInt(i)), Value::Number(Number::PosInt(c))) => (*i, *c),
                _ => panic!("bucket pair must be two integers"),
            },
            _ => panic!("bucket entry must be an array"),
        };
        assert_eq!(pair(&buckets[0]), (bucket_index(1.0e-3) as u64, 2));
        assert_eq!(pair(&buckets[1]), (bucket_index(1.0) as u64, 1));
        // An empty histogram has no quantiles and still renders finite
        // min/max.
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.5), None);
        let v = empty.to_value();
        assert_eq!(v.get("min").unwrap(), &Value::Number(Number::Float(0.0)));
        assert_eq!(v.get("max").unwrap(), &Value::Number(Number::Float(0.0)));
    }

    #[test]
    fn bucket_boundaries_are_geometric() {
        // Below base → underflow bucket.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(0.99e-6), 0);
        // [base, 2*base) → bucket 1, each doubling advances one bucket.
        assert_eq!(bucket_index(1.0e-6), 1);
        assert_eq!(bucket_index(1.99e-6), 1);
        assert_eq!(bucket_index(2.0e-6), 2);
        assert_eq!(bucket_index(4.0e-6), 3);
        // 1 second = base * 2^19.93… → bucket 20.
        assert_eq!(bucket_index(1.0), 20);
        // Far overflow clamps to the last bucket.
        assert_eq!(bucket_index(1e300), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_value_sits_inside_the_bucket() {
        for i in 1..HIST_BUCKETS - 1 {
            let v = bucket_value(i);
            assert_eq!(bucket_index(v), i, "midpoint of bucket {i} maps back");
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        // 90 fast samples at ~1 ms, 10 slow at ~1 s.
        for _ in 0..90 {
            h.record(1.0e-3);
        }
        for _ in 0..10 {
            h.record(1.0);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // p50 lands in the 1 ms bucket, p95/p99 in the 1 s bucket;
        // midpoint error is bounded by the sqrt(2) growth factor.
        assert!((0.5e-3..2.0e-3).contains(&p50), "p50 = {p50}");
        assert!((0.5..2.0).contains(&p95), "p95 = {p95}");
        assert!((0.5..2.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn quantile_edges_and_single_sample() {
        // A single sample: every quantile, including the edges, is that
        // sample's bucket midpoint.
        let h = Histogram::default();
        h.record(0.01);
        let mid = bucket_value(bucket_index(0.01));
        assert_eq!(h.quantile(0.0), Some(mid));
        assert_eq!(h.quantile(0.5), Some(mid));
        assert_eq!(h.quantile(1.0), Some(mid));
        // Out-of-range q clamps rather than panicking or skipping
        // buckets.
        assert_eq!(h.quantile(-0.5), Some(mid));
        assert_eq!(h.quantile(2.0), Some(mid));

        // Two distinct buckets: q=0.0 must land in the lowest occupied
        // bucket (rank clamps up to 1, not 0) and q=1.0 in the highest.
        let h = Histogram::default();
        h.record(1.0e-3);
        h.record(1.0);
        assert_eq!(h.quantile(0.0), Some(bucket_value(bucket_index(1.0e-3))));
        assert_eq!(h.quantile(1.0), Some(bucket_value(bucket_index(1.0))));
    }

    #[test]
    fn shard_metric_names_group_under_the_total() {
        assert_eq!(shard_metric("admitted", 0), "admitted.shard0");
        assert_eq!(shard_metric("completed", 13), "completed.shard13");
    }

    #[test]
    fn registry_shares_instances_and_snapshots() {
        let r = Registry::new();
        r.counter("requests").inc();
        r.counter("requests").add(2);
        r.gauge("depth").set(-4);
        r.histogram("latency").record(0.01);
        assert_eq!(r.counter("requests").get(), 3);
        let snap = r.snapshot();
        let c = snap.get("counters").unwrap().get("requests").unwrap();
        assert_eq!(c, &Value::Number(Number::PosInt(3)));
        let g = snap.get("gauges").unwrap().get("depth").unwrap();
        assert_eq!(g, &Value::Number(Number::NegInt(-4)));
        let h = snap.get("histograms").unwrap().get("latency").unwrap();
        assert_eq!(h.get("count").unwrap(), &Value::Number(Number::PosInt(1)));
    }
}
