//! The unified metrics registry every layer reports into.
//!
//! The paper's whole evaluation (Ch. 6–7) is built on measurements the
//! system makes about itself — per-operator throughput, intake backlog,
//! spill/discard volumes, recovery latency. [`MetricsRegistry`] is the one
//! place those measurements live: each layer registers typed instruments
//! ([`Counter`], [`Gauge`], [`Histogram`], or a polled gauge callback) under
//! a dotted metric name plus a label set, and a single
//! [`MetricsRegistry::snapshot`] call renders everything as a coherent
//! [`MetricsSnapshot`] exportable as JSON or Prometheus text.
//!
//! Hot-path updates are lock-free: an instrument is a clonable handle over
//! atomics, so incrementing a counter or recording a histogram sample never
//! takes the registry lock — the lock is touched only at registration and
//! snapshot time.
//!
//! # Memory-ordering contract
//!
//! All atomics come from [`crate::sync::atomic`], so building with
//! `RUSTFLAGS="--cfg loom"` swaps in the model checker; the contract below
//! is proved over exhaustive interleavings by `tests/loom_metrics.rs`.
//!
//! * **Counters / gauges** are independent single words: updates and reads
//!   are `Relaxed`. Nothing else is published through them, so no ordering
//!   is required — a reader may observe a value that is an instant old, but
//!   never a torn or invented one.
//! * **Histograms** maintain a multi-word invariant (the bucket totals are
//!   the sample count) and therefore use release/acquire publication, per
//!   field:
//!   - `sum`, `min`, `max` are updated with `Relaxed` RMWs, *before* the
//!     bucket increment in program order;
//!   - the `buckets[idx]` increment is the **`Release` publish**: it is the
//!     last write of [`Histogram::record`] and carries the earlier field
//!     updates with it;
//!   - [`Histogram::snapshot`] loads every field with **`Acquire`**, reading
//!     `buckets` *first* and deriving `count` as their total (there is no
//!     separate count cell to fall out of sync). If a snapshot observes a
//!     sample's bucket increment it also observes that sample's `sum`/
//!     `min`/`max` contribution. A sample landing mid-snapshot can inflate
//!     `sum` relative to `count` (the mean reads momentarily high) but can
//!     never break the bucket/count invariant checked by
//!     [`MetricsSnapshot::all_finite`].

use crate::clock::SimClock;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter, not yet attached to any registry.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        // relaxed-ok: independent monotonic word, nothing published through it
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        // relaxed-ok: independent monotonic word, nothing published through it
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // relaxed-ok: a momentarily-old read of a lone counter is fine
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh gauge, not yet attached to any registry.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the current value.
    pub fn set(&self, v: u64) {
        // relaxed-ok: last-value-wins word, nothing published through it
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // relaxed-ok: a momentarily-old read of a lone gauge is fine
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two histogram buckets (`u64` value range).
/// Shrunk under loom so the exhaustive schedule tree stays tractable;
/// values past the last bucket clamp into it.
#[cfg(not(loom))]
const HIST_BUCKETS: usize = 65;
#[cfg(loom)]
const HIST_BUCKETS: usize = 9;

/// Shared histogram state. Per-field ordering contract (proved by
/// `tests/loom_metrics.rs`; rationale in the module docs):
///
/// * `buckets[i]` — incremented `Release`, last write of `record()`; loaded
///   `Acquire`, first reads of `snapshot()`. The sample count is *derived*
///   as the bucket total, so it cannot disagree with the buckets.
/// * `sum` / `min` / `max` — `Relaxed` RMWs sequenced before the bucket
///   increment that publishes them; `Acquire` loads after the bucket reads.
#[derive(Debug)]
struct HistogramCore {
    /// `buckets[i]` counts samples `v` with `bit_width(v) == i`, i.e. bucket
    /// upper bounds 0, 1, 3, 7, … 2^i − 1 (base-2 exponential buckets).
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A lock-free histogram with base-2 exponential buckets.
///
/// Values are `u64` in whatever unit the metric name declares (the
/// convention here: `*_millis` / `*_us` / `*_bytes` / unit-less sizes).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh histogram, not yet attached to any registry.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let idx = ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1); // 0 for v == 0
        let c = &self.0;
        // sum/min/max are published by the Release bucket increment below
        // (last write; see the HistogramCore contract)
        c.sum.fetch_add(v, Ordering::Relaxed); // relaxed-ok: see above
        c.min.fetch_min(v, Ordering::Relaxed); // relaxed-ok: see above
        c.max.fetch_max(v, Ordering::Relaxed); // relaxed-ok: see above
        c.buckets[idx].fetch_add(1, Ordering::Release);
    }

    /// Total number of samples recorded (the bucket total — there is no
    /// separate count cell to fall out of sync with the buckets).
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .sum()
    }

    /// Point-in-time copy of the distribution.
    ///
    /// Buckets are read first (`Acquire`, pairing with `record()`'s
    /// `Release` increment), so every sample whose bucket increment is
    /// visible has its `sum`/`min`/`max` contribution visible too.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        let mut count = 0u64;
        let buckets: Vec<(u64, u64)> = c
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let n = b.load(Ordering::Acquire);
                count += n;
                (bucket_bound(i), n)
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        HistogramSnapshot {
            count,
            sum: c.sum.load(Ordering::Acquire),
            min: if count == 0 {
                0
            } else {
                c.min.load(Ordering::Acquire)
            },
            max: c.max.load(Ordering::Acquire),
            buckets,
        }
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty `(inclusive upper bound, samples in bucket)` pairs, bounds
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (0 when empty).
    /// Bucket-resolution approximation — fine for the order-of-magnitude
    /// latency questions the experiments ask.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Samples recorded since `prev` was taken: per-bucket saturating
    /// subtraction of an earlier snapshot of the *same* histogram. Gives
    /// control loops (the scaling governor) a windowed view — "lag p99 over
    /// the last tick" — instead of the since-boot distribution, which an
    /// early overload episode would otherwise poison forever.
    ///
    /// `min`/`max` of the window are not recoverable from cumulative
    /// buckets; the delta reports `min` 0 and `max` as the highest bucket
    /// bound that gained samples — bucket-resolution, same as `quantile`.
    pub fn delta(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let prev_n = |bound: u64| -> u64 {
            prev.buckets
                .iter()
                .find(|&&(b, _)| b == bound)
                .map_or(0, |&(_, n)| n)
        };
        let mut buckets: Vec<(u64, u64)> = Vec::new();
        let mut max = 0u64;
        for &(bound, n) in &self.buckets {
            let d = n.saturating_sub(prev_n(bound));
            if d > 0 {
                max = bound;
                buckets.push((bound, d));
            }
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.saturating_sub(prev.sum),
            min: 0,
            max: max.min(self.max),
            buckets,
        }
    }
}

/// Identity of one metric: name plus label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: BTreeMap<String, String>,
}

type GaugeFn = Arc<dyn Fn() -> u64 + Send + Sync>;

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    GaugeFn(GaugeFn),
    Histogram(Histogram),
}

/// The process-wide (per cluster) typed metrics registry.
///
/// Clonable handle; all clones share the same underlying table. Instruments
/// are get-or-create: registering the same name + labels twice returns the
/// same handle, so reconnects and respawns keep accumulating into one
/// series.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<MetricKey, Instrument>>>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    MetricKey {
        name: name.to_string(),
        labels: labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut map = self.inner.lock();
        match map
            .entry(key(name, labels))
            .or_insert_with(|| Instrument::Counter(Counter::new()))
        {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut map = self.inner.lock();
        match map
            .entry(key(name, labels))
            .or_insert_with(|| Instrument::Gauge(Gauge::new()))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Register a polled gauge: `f` is evaluated at snapshot time. Used for
    /// state another subsystem already tracks (LSM component counts, WAL
    /// sizes) where pushing every change would be redundant. Re-registering
    /// the same name + labels replaces the callback.
    pub fn gauge_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.inner
            .lock()
            .insert(key(name, labels), Instrument::GaugeFn(Arc::new(f)));
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut map = self.inner.lock();
        match map
            .entry(key(name, labels))
            .or_insert_with(|| Instrument::Histogram(Histogram::new()))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Number of registered metric series.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Point-in-time snapshot of every registered metric. `clock` stamps the
    /// snapshot with the sim-time it was taken.
    pub fn snapshot_at(&self, clock: &SimClock) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        snap.taken_at_millis = clock.now().0;
        snap
    }

    /// Point-in-time snapshot of every registered metric (unstamped).
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Clone the instrument handles out under the lock, then read values
        // (and run gauge callbacks, which may take other locks) outside it.
        let handles: Vec<(MetricKey, Instrument)> = {
            let map = self.inner.lock();
            map.iter()
                .map(|(k, v)| {
                    let inst = match v {
                        Instrument::Counter(c) => Instrument::Counter(c.clone()),
                        Instrument::Gauge(g) => Instrument::Gauge(g.clone()),
                        Instrument::GaugeFn(f) => Instrument::GaugeFn(Arc::clone(f)),
                        Instrument::Histogram(h) => Instrument::Histogram(h.clone()),
                    };
                    (k.clone(), inst)
                })
                .collect()
        };
        let metrics = handles
            .into_iter()
            .map(|(k, inst)| MetricSample {
                name: k.name,
                labels: k.labels.into_iter().collect(),
                value: match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::GaugeFn(f) => MetricValue::Gauge(f()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot {
            taken_at_millis: 0,
            metrics,
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} series)", self.len())
    }
}

/// The value of one metric series in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value (pushed or polled).
    Gauge(u64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
}

/// One metric series: name, labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Dotted metric name, e.g. `feed.records_persisted`.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: MetricValue,
}

impl MetricSample {
    /// True when any label value equals `v`.
    pub fn has_label_value(&self, v: &str) -> bool {
        self.labels.iter().any(|(_, lv)| lv == v)
    }
}

/// Everything the registry knew at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Sim-milliseconds when the snapshot was taken (0 if unstamped).
    pub taken_at_millis: u64,
    /// All series, sorted by name then labels.
    pub metrics: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// True when no metrics were registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// All samples of metric `name`.
    pub fn samples<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a MetricSample> {
        self.metrics.iter().filter(move |m| m.name == name)
    }

    /// True when at least one series with this name exists.
    pub fn has(&self, name: &str) -> bool {
        self.samples(name).next().is_some()
    }

    /// Sum of all counter series named `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.samples(name)
            .filter_map(|m| match &m.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Sum of counter series named `name` whose label set contains the value
    /// `label_value` (e.g. a connection scope like `TwitterFeed->Tweets`).
    pub fn counter_for(&self, name: &str, label_value: &str) -> u64 {
        self.samples(name)
            .filter(|m| m.has_label_value(label_value))
            .filter_map(|m| match &m.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Sum of all gauge series named `name` (`None` when absent).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut total = 0u64;
        for m in self.samples(name) {
            if let MetricValue::Gauge(v) = &m.value {
                found = true;
                total += v;
            }
        }
        found.then_some(total)
    }

    /// Gauge series named `name` whose labels contain `label_value`.
    pub fn gauge_for(&self, name: &str, label_value: &str) -> Option<u64> {
        self.samples(name)
            .filter(|m| m.has_label_value(label_value))
            .find_map(|m| match &m.value {
                MetricValue::Gauge(v) => Some(*v),
                _ => None,
            })
    }

    /// Merge of every histogram series named `name` (`None` when absent).
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let mut merged: Option<HistogramSnapshot> = None;
        for m in self.samples(name) {
            if let MetricValue::Histogram(h) = &m.value {
                merged = Some(match merged {
                    None => h.clone(),
                    Some(acc) => merge_hist(acc, h),
                });
            }
        }
        merged
    }

    /// Merge of histogram series named `name` whose label sets contain
    /// `label_value` — the per-connection variant of [`Self::histogram`],
    /// so the governor can window one feed's lag without cross-feed bleed.
    pub fn histogram_for(&self, name: &str, label_value: &str) -> Option<HistogramSnapshot> {
        let mut merged: Option<HistogramSnapshot> = None;
        for m in self.samples(name) {
            if !m.has_label_value(label_value) {
                continue;
            }
            if let MetricValue::Histogram(h) = &m.value {
                merged = Some(match merged {
                    None => h.clone(),
                    Some(acc) => merge_hist(acc, h),
                });
            }
        }
        merged
    }

    /// Sorted set of distinct metric names present.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        names.dedup();
        names
    }

    /// True when every value in the snapshot is finite and well-formed
    /// (no NaN/inf can arise from integer instruments; histogram means and
    /// quantiles are checked explicitly). The CI observability gate runs
    /// this over a live feed's snapshot.
    pub fn all_finite(&self) -> bool {
        self.metrics.iter().all(|m| match &m.value {
            MetricValue::Counter(_) | MetricValue::Gauge(_) => true,
            MetricValue::Histogram(h) => {
                h.mean().is_finite()
                    && (h.quantile(0.5) as f64).is_finite()
                    && h.buckets.iter().map(|&(_, n)| n).sum::<u64>() == h.count
            }
        })
    }

    /// Render as a JSON object (hand-rolled; the workspace has no external
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"taken_at_millis\": {},\n  \"metrics\": [",
            self.taken_at_millis
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"name\": {:?}, \"labels\": {{", m.name));
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{k:?}: {v:?}"));
            }
            out.push_str("}, ");
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("\"type\": \"counter\", \"value\": {v}"))
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("\"type\": \"gauge\", \"value\": {v}"))
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3}, \"p50\": {}, \"p99\": {}, \"buckets\": [",
                        h.count, h.sum, h.min, h.max, h.mean(), h.quantile(0.5), h.quantile(0.99)
                    ));
                    for (j, (bound, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!("[{bound}, {n}]"));
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Render in the Prometheus text exposition format. Metric names are
    /// sanitized (`.` → `_`, prefixed `asterix_`); histograms expand to
    /// `_bucket`/`_sum`/`_count` series with cumulative `le` bounds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for m in &self.metrics {
            let prom_name = prom_sanitize(&m.name);
            if m.name != last_name {
                let kind = match &m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {prom_name} {kind}\n"));
                last_name = &m.name;
            }
            let labels = |extra: Option<(&str, String)>| -> String {
                let mut parts: Vec<String> = m
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{}=\"{}\"", sanitize_ident(k), v.replace('"', "'")))
                    .collect();
                if let Some((k, v)) = extra {
                    parts.push(format!("{k}=\"{v}\""));
                }
                if parts.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", parts.join(","))
                }
            };
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&format!("{prom_name}{} {v}\n", labels(None)));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for &(bound, n) in &h.buckets {
                        cumulative += n;
                        out.push_str(&format!(
                            "{prom_name}_bucket{} {cumulative}\n",
                            labels(Some(("le", bound.to_string())))
                        ));
                    }
                    out.push_str(&format!(
                        "{prom_name}_bucket{} {}\n",
                        labels(Some(("le", "+Inf".into()))),
                        h.count
                    ));
                    out.push_str(&format!("{prom_name}_sum{} {}\n", labels(None), h.sum));
                    out.push_str(&format!("{prom_name}_count{} {}\n", labels(None), h.count));
                }
            }
        }
        out
    }
}

fn merge_hist(mut acc: HistogramSnapshot, h: &HistogramSnapshot) -> HistogramSnapshot {
    acc.count += h.count;
    acc.sum += h.sum;
    if h.count > 0 {
        acc.min = if acc.count == h.count {
            h.min
        } else {
            acc.min.min(h.min)
        };
        acc.max = acc.max.max(h.max);
    }
    let mut merged: BTreeMap<u64, u64> = acc.buckets.into_iter().collect();
    for &(bound, n) in &h.buckets {
        *merged.entry(bound).or_insert(0) += n;
    }
    acc.buckets = merged.into_iter().collect();
    acc
}

fn sanitize_ident(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn prom_sanitize(name: &str) -> String {
    format!("asterix_{}", sanitize_ident(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("feed.records_in", &[("conn", "f->d")]);
        let b = reg.counter("feed.records_in", &[("conn", "f->d")]);
        a.add(5);
        b.inc();
        assert_eq!(a.get(), 6, "same name+labels share one series");
        let other = reg.counter("feed.records_in", &[("conn", "g->d")]);
        other.add(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("feed.records_in"), 16);
        assert_eq!(snap.counter_for("feed.records_in", "f->d"), 6);
        assert_eq!(snap.counter_for("feed.records_in", "g->d"), 10);
    }

    #[test]
    fn gauges_and_gauge_fns_snapshot_current_value() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("flow.buffer_bytes", &[]);
        g.set(42);
        g.set(17);
        let polled = Arc::new(AtomicU64::new(99));
        let p = Arc::clone(&polled);
        reg.gauge_fn("storage.components", &[("partition", "0")], move || {
            p.load(Ordering::Relaxed)
        });
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("flow.buffer_bytes"), Some(17));
        assert_eq!(snap.gauge("storage.components"), Some(99));
        polled.store(7, Ordering::Relaxed);
        assert_eq!(reg.snapshot().gauge("storage.components"), Some(7));
        assert_eq!(snap.gauge("absent"), None);
    }

    #[test]
    fn histogram_delta_windows_recent_samples() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(5); // old, fast samples
        }
        let before = h.snapshot();
        for _ in 0..10 {
            h.record(5_000); // recent, slow samples
        }
        let after = h.snapshot();
        // cumulative p99 is poisoned by the 90 old samples...
        assert!(after.quantile(0.99) >= 5_000);
        // ...but so would p50 be diluted; the window sees only the slow ones
        let window = after.delta(&before);
        assert_eq!(window.count, 10);
        assert!(window.quantile(0.5) >= 5_000, "window p50 is slow");
        assert!(window.mean() >= 5_000.0);
        // empty window
        let none = after.delta(&after);
        assert_eq!(none.count, 0);
        assert_eq!(none.quantile(0.99), 0);
    }

    #[test]
    fn histogram_for_scopes_to_one_label_value() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("feed.ingest_lag_millis", &[("conn", "f->d")]);
        let b = reg.histogram("feed.ingest_lag_millis", &[("conn", "g->d")]);
        a.record(10);
        b.record(10_000);
        let snap = reg.snapshot();
        let f = snap
            .histogram_for("feed.ingest_lag_millis", "f->d")
            .unwrap();
        assert_eq!(f.count, 1);
        assert!(
            f.quantile(0.99) < 1_000,
            "other feed's lag did not bleed in"
        );
        assert!(snap
            .histogram_for("feed.ingest_lag_millis", "absent")
            .is_none());
    }

    #[test]
    fn histogram_buckets_mean_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 8, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1013);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 1013.0 / 6.0).abs() < 1e-9);
        assert!(s.quantile(0.5) <= 3);
        assert_eq!(s.quantile(1.0), 1000);
        // buckets partition the count
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 6);
    }

    #[test]
    fn snapshot_renders_json_and_prometheus() {
        let reg = MetricsRegistry::new();
        reg.counter("feed.records_persisted", &[("conn", "f->d")])
            .add(12);
        reg.gauge("flow.spill_bytes", &[]).set(4096);
        let h = reg.histogram("feed.ingest_lag_millis", &[("conn", "f->d")]);
        h.record(5);
        h.record(120);
        let snap = reg.snapshot();
        assert!(snap.all_finite());
        let json = snap.to_json();
        assert!(json.contains("\"feed.records_persisted\""));
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(!json.contains("NaN"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE asterix_feed_records_persisted counter"));
        assert!(prom.contains("asterix_feed_records_persisted{conn=\"f->d\"} 12"));
        assert!(prom.contains("asterix_flow_spill_bytes 4096"));
        assert!(prom.contains("asterix_feed_ingest_lag_millis_bucket"));
        assert!(prom.contains("le=\"+Inf\""));
        assert!(prom.contains("asterix_feed_ingest_lag_millis_count{conn=\"f->d\"} 2"));
        assert!(!prom.contains("NaN"));
    }

    #[test]
    fn merged_histogram_sums_series() {
        let reg = MetricsRegistry::new();
        reg.histogram("op.latency_us", &[("op", "a")]).record(10);
        reg.histogram("op.latency_us", &[("op", "b")]).record(100);
        let merged = reg.snapshot().histogram("op.latency_us").unwrap();
        assert_eq!(merged.count, 2);
        assert_eq!(merged.sum, 110);
        assert_eq!(merged.max, 100);
    }

    #[test]
    fn hot_path_is_concurrent() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c", &[]);
        let h = reg.histogram("h", &[]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 512);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
        assert!(reg.snapshot().all_finite());
    }
}
