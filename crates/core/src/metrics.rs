//! Per-connection counters and the Table 7.1 metrics.
//!
//! Chapter 7 monitors a data ingestion pipeline through a small set of
//! symbols — arrival rate, processing rate, excess records and their fate —
//! and the evaluation figures plot instantaneous ingestion throughput.
//! [`FeedMetrics`] is the shared counter block every operator of a
//! connection updates. All instruments live in the cluster-wide
//! [`MetricsRegistry`] under `feed.*` names with a `conn` label naming the
//! connection, so one `registry().snapshot()` sees every connection; the
//! struct just caches the typed handles for lock-free hot-path updates.

use asterix_common::{
    Counter, Gauge, Histogram, MetricsRegistry, RateMeter, SimClock, SimDuration, SimInstant,
    ThroughputSeries,
};
use std::sync::Arc;

/// Counters for one feed connection (all monotonically increasing, except
/// the gauges and the lag histogram at the bottom).
///
/// Every instrument is also registered in a [`MetricsRegistry`] under
/// `feed.<name>` with a `conn` label, so snapshots of the registry and the
/// handles here observe the same values.
#[derive(Debug)]
pub struct FeedMetrics {
    /// Records received from the source / parent joint (rate-of-arrival
    /// numerator, Table 7.1's λ).
    pub records_in: Counter,
    /// Records that passed the compute stage.
    pub records_computed: Counter,
    /// Records persisted (and indexed) — the paper's headline metric.
    pub records_persisted: Counter,
    /// Records dropped by the Discard strategy.
    pub records_discarded: Counter,
    /// Records dropped by the Throttle strategy's sampling.
    pub records_throttled: Counter,
    /// Records written to the spill file.
    pub records_spilled: Counter,
    /// Records read back from the spill file and processed.
    pub records_despilled: Counter,
    /// Soft failures skipped by the MetaFeed sandbox.
    pub soft_failures: Counter,
    /// Records replayed by the at-least-once tracker.
    pub records_replayed: Counter,
    /// Elastic scale-out events requested.
    pub elastic_scaleouts: Counter,
    /// Frames group-committed by the store stage. Together with
    /// `records_persisted` this gives the effective batch size the write
    /// path achieved (persisted / frames_stored).
    pub frames_stored: Counter,
    /// Full-tree binary decodes downstream of the adaptor attributed to this
    /// connection (the name predates the binary payload; no stage parses
    /// text): one per record at each assign (the UDF needs a value), the
    /// router's whole-record fallback, key-less records at the partitioner.
    /// Field projections (router, partitioner key) are not counted.
    pub parse_calls: Counter,
    /// Hard failures (node loss, operator panic) this connection recovered
    /// from (§6.2.2/§6.2.3).
    pub hard_failures_recovered: Counter,
    /// Zombie frames adopted by replacement operator instances after a
    /// failure (§6.2.2).
    pub zombie_frames_adopted: Counter,
    /// Current spill file size in bytes (gauge).
    pub spill_bytes: Gauge,
    /// Current in-memory excess buffer size in bytes (gauge).
    pub buffer_bytes: Gauge,
    /// Current hand-off queue depth in frames (gauge) — the congestion
    /// sensor the scaling governor samples.
    pub handoff_queue_frames: Gauge,
    /// Sim-milliseconds the most recent hard-failure recovery took, from
    /// failure handling to the connection going active again (gauge).
    pub last_recovery_millis: Gauge,
    /// End-to-end ingestion lag: sim-milliseconds from the record's
    /// generation stamp at the source to the post-group-commit moment it
    /// became durable in the store.
    pub ingest_lag_millis: Histogram,
    meter: RateMeter,
    clock: SimClock,
}

impl FeedMetrics {
    /// Metrics registered in `registry` under `feed.*` with label
    /// `conn=<scope>`; the persist meter buckets by `bucket` (the paper
    /// uses two-second buckets).
    pub fn registered(
        registry: &MetricsRegistry,
        scope: &str,
        clock: SimClock,
        bucket: SimDuration,
    ) -> Arc<FeedMetrics> {
        let labels = &[("conn", scope)];
        let counter = |name: &str| registry.counter(&format!("feed.{name}"), labels);
        let gauge = |name: &str| registry.gauge(&format!("feed.{name}"), labels);
        let origin = clock.now();
        Arc::new(FeedMetrics {
            records_in: counter("records_in"),
            records_computed: counter("records_computed"),
            records_persisted: counter("records_persisted"),
            records_discarded: counter("records_discarded"),
            records_throttled: counter("records_throttled"),
            records_spilled: counter("records_spilled"),
            records_despilled: counter("records_despilled"),
            soft_failures: counter("soft_failures"),
            records_replayed: counter("records_replayed"),
            elastic_scaleouts: counter("elastic_scaleouts"),
            frames_stored: counter("frames_stored"),
            parse_calls: counter("parse_calls"),
            hard_failures_recovered: counter("hard_failures_recovered"),
            zombie_frames_adopted: counter("zombie_frames_adopted"),
            spill_bytes: gauge("spill_bytes"),
            buffer_bytes: gauge("buffer_bytes"),
            handoff_queue_frames: gauge("handoff_queue_frames"),
            last_recovery_millis: gauge("last_recovery_millis"),
            ingest_lag_millis: registry.histogram("feed.ingest_lag_millis", labels),
            meter: RateMeter::new(origin, bucket),
            clock,
        })
    }

    /// [`FeedMetrics::registered`] with the default two-second buckets
    /// (§6.3).
    pub fn registered_default(
        registry: &MetricsRegistry,
        scope: &str,
        clock: SimClock,
    ) -> Arc<FeedMetrics> {
        FeedMetrics::registered(registry, scope, clock, SimDuration::from_secs(2))
    }

    /// Detached metrics (registered in a private throwaway registry) for
    /// unit tests that don't run a cluster.
    pub fn new(clock: SimClock, bucket: SimDuration) -> Arc<FeedMetrics> {
        FeedMetrics::registered(&MetricsRegistry::new(), "detached", clock, bucket)
    }

    /// Detached metrics with the default two-second buckets.
    pub fn with_default_bucket(clock: SimClock) -> Arc<FeedMetrics> {
        FeedMetrics::new(clock, SimDuration::from_secs(2))
    }

    /// Record `n` persisted records now (store stage calls this post-WAL).
    pub fn persisted(&self, n: u64) {
        self.records_persisted.add(n);
        self.meter.record_at(self.clock.now(), n);
    }

    /// Record `n` persisted records at an explicit instant (tests).
    pub fn persisted_at(&self, t: SimInstant, n: u64) {
        self.records_persisted.add(n);
        self.meter.record_at(t, n);
    }

    /// Record the end-to-end lag of a record generated at `gen_at` and
    /// durable now.
    pub fn lag_from(&self, gen_at: SimInstant) {
        self.ingest_lag_millis
            .record(self.clock.now().since(gen_at).0);
    }

    /// Instantaneous-throughput series of persisted records.
    pub fn throughput(&self) -> ThroughputSeries {
        self.meter.series()
    }

    /// Convenience getter.
    pub fn get(&self, c: &Counter) -> u64 {
        c.get()
    }

    /// One-line summary for experiment output.
    pub fn summary(&self) -> String {
        format!(
            "in={} computed={} persisted={} discarded={} throttled={} spilled={} despilled={} soft_failures={} replayed={} parse_calls={} frames_stored={} hard_recoveries={} zombies_adopted={}",
            self.records_in.get(),
            self.records_computed.get(),
            self.records_persisted.get(),
            self.records_discarded.get(),
            self.records_throttled.get(),
            self.records_spilled.get(),
            self.records_despilled.get(),
            self.soft_failures.get(),
            self.records_replayed.get(),
            self.parse_calls.get(),
            self.frames_stored.get(),
            self.hard_failures_recovered.get(),
            self.zombie_frames_adopted.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persisted_updates_counter_and_meter() {
        let clock = SimClock::with_scale(5.0);
        let m = FeedMetrics::with_default_bucket(clock.clone());
        m.persisted(10);
        clock.sleep(SimDuration::from_secs(2));
        m.persisted(4);
        assert_eq!(m.records_persisted.get(), 14);
        let series = m.throughput();
        assert_eq!(series.total(), 14);
        assert!(series.points.len() >= 2);
    }

    #[test]
    fn persisted_at_allows_backdating() {
        let clock = SimClock::with_scale(5.0);
        let m = FeedMetrics::new(clock, SimDuration::from_secs(1));
        m.persisted_at(SimInstant(500), 3);
        m.persisted_at(SimInstant(1500), 7);
        let s = m.throughput();
        assert_eq!(s.points[0].count, 3);
        assert_eq!(s.points[1].count, 7);
    }

    #[test]
    fn summary_mentions_all_counters() {
        let m = FeedMetrics::with_default_bucket(SimClock::fast());
        m.records_in.add(5);
        m.records_discarded.add(2);
        let s = m.summary();
        assert!(s.contains("in=5"));
        assert!(s.contains("discarded=2"));
        assert!(s.contains("persisted=0"));
        assert!(s.contains("frames_stored=0"));
        assert!(s.contains("hard_recoveries=0"));
        assert!(s.contains("zombies_adopted=0"));
    }

    #[test]
    fn registered_metrics_share_the_cluster_registry() {
        let registry = MetricsRegistry::new();
        let clock = SimClock::fast();
        let m = FeedMetrics::registered_default(&registry, "F -> D", clock.clone());
        m.records_in.add(7);
        m.persisted(3);
        m.buffer_bytes.set(1024);
        m.lag_from(clock.now());
        let snap = registry.snapshot();
        assert_eq!(snap.counter_for("feed.records_in", "F -> D"), 7);
        assert_eq!(snap.counter_for("feed.records_persisted", "F -> D"), 3);
        assert_eq!(snap.gauge_for("feed.buffer_bytes", "F -> D"), Some(1024));
        let lag = snap.histogram("feed.ingest_lag_millis").expect("lag hist");
        assert_eq!(lag.count, 1);
        assert!(snap.all_finite());
    }
}
