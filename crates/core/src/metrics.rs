//! Per-connection counters and the Table 7.1 metrics.
//!
//! Chapter 7 monitors a data ingestion pipeline through a small set of
//! symbols — arrival rate, processing rate, excess records and their fate —
//! and the evaluation figures plot instantaneous ingestion throughput.
//! [`FeedMetrics`] is the shared counter block every operator of a
//! connection updates. All instruments live in the cluster-wide
//! [`MetricsRegistry`] under `feed.*` names with a `conn` label naming the
//! connection, and the registry is where they are read: one
//! `registry().snapshot()` sees every connection. The struct only caches
//! the writers' typed handles for lock-free hot-path updates, plus the one
//! reading the registry cannot hold — the §6.3 throughput timeline, which
//! buckets persisted records by commit instant
//! (`FeedController::throughput`).

use crate::joint::ExcessPolicy;
use asterix_common::sync::Mutex;
use asterix_common::{
    Counter, Gauge, Histogram, MetricsRegistry, RateMeter, SimClock, SimDuration, SimInstant,
    ThroughputSeries,
};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Each subscription's policy and its share of the excess gauges, keyed by
/// the policy's address.
type ExcessShares = Mutex<HashMap<usize, (Weak<ExcessPolicy>, [usize; 3])>>;

/// The throughput timeline's bucket: "the number of records persisted
/// during consecutive two-second intervals" (§6.3).
const METER_BUCKET: SimDuration = SimDuration::from_secs(2);

/// The writers' handles of one feed connection's `feed.<name>{conn}`
/// series (all counters monotonically increasing, except the gauges and
/// the lag histogram at the bottom). Read them from the registry they were
/// registered in.
#[derive(Debug)]
pub struct FeedMetrics {
    /// Records received from the source / parent joint (rate-of-arrival
    /// numerator, Table 7.1's λ).
    pub(crate) records_in: Counter,
    /// Records that passed the compute stage.
    pub(crate) records_computed: Counter,
    /// Records the compute stage's UDF filtered out (a predicate feed's
    /// rejects): with `records_computed` and the stage's soft failures, every
    /// record the stage took.
    pub(crate) records_filtered: Counter,
    /// Records persisted (and indexed) — the paper's headline metric.
    pub(crate) records_persisted: Counter,
    /// Records dropped by the Discard strategy.
    pub(crate) records_discarded: Counter,
    /// Records dropped by the Throttle strategy's sampling.
    pub(crate) records_throttled: Counter,
    /// Records written to the spill file.
    pub(crate) records_spilled: Counter,
    /// Records read back from the spill file and processed.
    pub(crate) records_despilled: Counter,
    /// Soft failures skipped by the MetaFeed sandbox.
    pub(crate) soft_failures: Counter,
    /// Records replayed by the at-least-once tracker.
    pub(crate) records_replayed: Counter,
    /// Excess episodes an Elastic subscription signalled: pressure the
    /// scaling governor reads on its next tick.
    pub(crate) elastic_scaleouts: Counter,
    /// Frames group-committed by the store stage. Together with
    /// `records_persisted` this gives the effective batch size the write
    /// path achieved (persisted / frames_stored).
    pub(crate) frames_stored: Counter,
    /// Full-tree binary decodes downstream of the adaptor attributed to this
    /// connection (the name predates the binary payload; no stage parses
    /// text): one per record at each assign whose UDF has a tree body (a
    /// view body decodes only the fields it reads, uncounted) and key-less
    /// records at the partitioner. The router decodes nothing (its arms test
    /// the bytes), and neither the partitioner's key read nor a view is
    /// counted.
    pub(crate) parse_calls: Counter,
    /// Hard failures (node loss, operator panic) this connection recovered
    /// from (§6.2.2/§6.2.3).
    pub(crate) hard_failures_recovered: Counter,
    /// Frames a dying intake handed back to its joint subscription that its
    /// successor took (§6.2.2's zombie state). Their records were counted
    /// in `records_in` once, when first taken, and are not counted again.
    pub(crate) zombie_frames_adopted: Counter,
    /// Failed attempts to (re)start one of the connection's jobs; the
    /// controller retries a pending job on its next pass.
    pub(crate) respawn_failures: Counter,
    /// Each live subscription's share of the excess, by its policy, which
    /// three gauges read when they are read: `spill_bytes` (bytes in the
    /// spill files, summed), `buffer_bytes` (excess bytes buffered in
    /// memory, summed) and `handoff_queue_frames` (the excess frames of the
    /// fullest subscription, in memory past its port's worth and spilled —
    /// the congestion signal the scaling governor samples).
    excess: Arc<ExcessShares>,
    /// Sim-milliseconds the most recent hard-failure recovery took, from
    /// failure handling to the connection going active again (gauge).
    pub(crate) last_recovery_millis: Gauge,
    /// End-to-end ingestion lag: sim-milliseconds from the record's
    /// generation stamp at the source to the post-group-commit moment it
    /// became durable in the store.
    pub(crate) ingest_lag_millis: Histogram,
    meter: RateMeter,
    clock: SimClock,
}

impl FeedMetrics {
    /// Metrics registered in `registry` under `feed.*` with label
    /// `conn=<scope>`.
    pub fn registered(
        registry: &MetricsRegistry,
        scope: &str,
        clock: SimClock,
    ) -> Arc<FeedMetrics> {
        let labels = &[("conn", scope)];
        let counter = |name: &str| registry.counter(&format!("feed.{name}"), labels);
        let gauge = |name: &str| registry.gauge(&format!("feed.{name}"), labels);
        let origin = clock.now();
        let excess = Arc::new(ExcessShares::default());
        let shares = |name: &str, read: fn(&mut dyn Iterator<Item = u64>) -> u64, i: usize| {
            let excess = Arc::clone(&excess);
            registry.gauge_fn(&format!("feed.{name}"), labels, move || {
                let mut shares = excess.lock();
                // a dropped subscription's policy is gone: so is its share
                shares.retain(|_, (held, share)| held.strong_count() > 0 && *share != [0; 3]);
                read(&mut shares.values().map(|(_, s)| s[i] as u64))
            });
        };
        shares("buffer_bytes", |v| v.sum(), 0);
        shares("spill_bytes", |v| v.sum(), 1);
        shares("handoff_queue_frames", |v| v.max().unwrap_or(0), 2);
        Arc::new(FeedMetrics {
            records_in: counter("records_in"),
            records_computed: counter("records_computed"),
            records_filtered: counter("records_filtered"),
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
            respawn_failures: counter("respawn_failures"),
            last_recovery_millis: gauge("last_recovery_millis"),
            excess,
            ingest_lag_millis: registry.histogram("feed.ingest_lag_millis", labels),
            meter: RateMeter::new(origin, METER_BUCKET),
            clock,
        })
    }

    /// Record `n` persisted records now (store stage calls this post-WAL).
    pub(crate) fn persisted(&self, n: u64) {
        self.records_persisted.add(n);
        self.meter.record_at(self.clock.now(), n);
    }

    /// Record the end-to-end lag of a record generated at `gen_at` and
    /// durable now.
    pub(crate) fn lag_from(&self, gen_at: SimInstant) {
        self.ingest_lag_millis
            .record(self.clock.now().since(gen_at).0);
    }

    /// The subscription policed by `policy` now holds `share` of the
    /// connection's excess — bytes in memory, bytes spilled, frames: the
    /// byte gauges read the sum over the connection's subscriptions, the
    /// frames gauge the fullest one's. A share whose policy is gone (its
    /// subscription dropped, or policed anew) is forgotten when they are
    /// read.
    pub(crate) fn excess_share(&self, policy: &Arc<ExcessPolicy>, share: [usize; 3]) {
        let key = Arc::as_ptr(policy) as usize;
        (self.excess.lock()).insert(key, (Arc::downgrade(policy), share));
    }

    /// Instantaneous-throughput series of persisted records.
    pub(crate) fn throughput(&self) -> ThroughputSeries {
        self.meter.series()
    }
}

/// A unit test's connection: its writers' handles, registered as `c` in a
/// registry of their own, and that registry to read them back from.
#[cfg(test)]
pub(crate) fn detached() -> (Arc<FeedMetrics>, Readings) {
    let registry = MetricsRegistry::new();
    let m = FeedMetrics::registered(&registry, "c", SimClock::fast());
    (m, Readings(registry))
}

/// Reads a [`detached`] connection's series from its registry.
#[cfg(test)]
#[derive(Clone)]
pub(crate) struct Readings(MetricsRegistry);

#[cfg(test)]
impl Readings {
    /// The counter or gauge `feed.<name>`; panics on a name no connection
    /// registers.
    pub(crate) fn get(&self, name: &str) -> u64 {
        use asterix_common::MetricValue;
        let (snap, name) = (self.0.snapshot(), format!("feed.{name}"));
        let value = snap.samples(&name).next().map(|s| s.value.clone());
        match value {
            Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => v,
            _ => panic!("no counter or gauge {name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::FeedId;
    use std::collections::BTreeSet;

    #[test]
    fn persisted_updates_counter_and_meter() {
        let (registry, clock) = (MetricsRegistry::new(), SimClock::with_scale(5.0));
        let m = FeedMetrics::registered(&registry, "c", clock.clone());
        m.persisted(10);
        clock.sleep(SimDuration::from_secs(2));
        m.persisted(4);
        let persisted = registry.counter("feed.records_persisted", &[("conn", "c")]);
        assert_eq!(persisted.get(), 14);
        let series = m.throughput();
        assert_eq!(series.total(), 14);
        assert!(series.points.len() >= 2);
    }

    #[test]
    fn registered_metrics_share_the_cluster_registry() {
        let registry = MetricsRegistry::new();
        let clock = SimClock::fast();
        let m = FeedMetrics::registered(&registry, "F -> D", clock.clone());
        m.records_in.add(7);
        m.persisted(3);
        let basic = crate::policy::IngestionPolicy::basic();
        let policy = Arc::new(ExcessPolicy::new(basic, Arc::clone(&m), FeedId(1)));
        m.excess_share(&policy, [1024, 0, 0]);
        m.lag_from(clock.now());
        let snap = registry.snapshot();
        assert_eq!(snap.counter_for("feed.records_in", "F -> D"), 7);
        assert_eq!(snap.counter_for("feed.records_persisted", "F -> D"), 3);
        assert_eq!(snap.gauge_for("feed.buffer_bytes", "F -> D"), Some(1024));
        let lag = snap.histogram("feed.ingest_lag_millis").expect("lag hist");
        assert_eq!(lag.count, 1);
        assert!(snap.all_finite());
    }

    /// DESIGN.md's metric catalog names exactly the `feed.*` series a
    /// connection registers: no series goes undocumented, no row outlives
    /// its series.
    #[test]
    fn the_design_catalog_names_every_feed_series() {
        let registry = MetricsRegistry::new();
        FeedMetrics::registered(&registry, "c", SimClock::fast());
        let snap = registry.snapshot();
        let registered: BTreeSet<&str> = snap.names().into_iter().collect();
        let design = include_str!("../../../DESIGN.md");
        let rows = design.lines().filter(|l| l.starts_with("| `feed."));
        let first_cell = rows.filter_map(|l| l.split('|').nth(1));
        let catalogued: BTreeSet<&str> = first_cell
            .flat_map(|cell| cell.split('`').skip(1).step_by(2))
            .collect();
        assert_eq!(registered, catalogued);
    }
}
