//! Hash-partitioned datasets.
//!
//! "Data is hash-partitioned (by primary key) across a set of nodes that
//! form the nodegroup for a dataset. By default, all nodes in an AsterixDB
//! cluster form the nodegroup" (§3.1.2). A [`Dataset`] owns one
//! [`DatasetPartition`] per nodegroup member and routes each record to the
//! partition its key hashes to — the same function the store-stage
//! hash-partitioning connector uses, so records always land on the partition
//! co-located with their store operator.

use crate::partition::{BatchOutcome, DatasetPartition, PartitionConfig, PartitionObservability};
use crate::secondary::{IndexKind, SecondaryIndex};
use asterix_adm::hash::partition_for;
use asterix_adm::pred::Pred;
use asterix_adm::AdmValue;
use asterix_common::{IngestError, IngestResult, MetricsRegistry, NodeId, TraceHub};
use std::sync::Arc;

/// Static description of a dataset.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Dataset name.
    pub name: String,
    /// Name of the datatype records must conform to (checked by the
    /// language layer; storage trusts its caller).
    pub datatype: String,
    /// Primary key field.
    pub primary_key: String,
    /// Nodes hosting a partition each.
    pub nodegroup: Vec<NodeId>,
}

/// A dataset: partitions spread over a nodegroup.
pub struct Dataset {
    /// The dataset's configuration.
    pub config: DatasetConfig,
    partitions: Vec<(NodeId, Arc<DatasetPartition>)>,
}

impl Dataset {
    /// Create the dataset with one partition per nodegroup member.
    pub fn create(config: DatasetConfig) -> IngestResult<Self> {
        Self::create_with(config, 0)
    }

    /// Create with a per-insert busy-spin cost (capacity experiments).
    pub fn create_with(config: DatasetConfig, insert_spin: u64) -> IngestResult<Self> {
        let mut pc = PartitionConfig::keyed_on(config.primary_key.clone());
        pc.insert_spin = insert_spin;
        Self::create_configured(config, pc)
    }

    /// Create with a fully custom partition config (storage layout, spins,
    /// LSM tuning). The partition key field is forced to the dataset's
    /// primary key — routing and storage must agree on it.
    pub fn create_configured(
        config: DatasetConfig,
        partition_config: PartitionConfig,
    ) -> IngestResult<Self> {
        if config.nodegroup.is_empty() {
            return Err(IngestError::Config(format!(
                "dataset {} has an empty nodegroup",
                config.name
            )));
        }
        let partitions = config
            .nodegroup
            .iter()
            .map(|&node| {
                let mut pc = partition_config.clone();
                pc.primary_key_field = config.primary_key.clone();
                (node, Arc::new(DatasetPartition::new(pc)))
            })
            .collect();
        Ok(Dataset { config, partitions })
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The partition index a key routes to.
    pub fn partition_index_for(&self, key: &AdmValue) -> usize {
        partition_for(key, self.partitions.len())
    }

    /// The partition hosted on `node`, if any.
    pub fn partition_on(&self, node: NodeId) -> Option<Arc<DatasetPartition>> {
        self.partitions
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, p)| Arc::clone(p))
    }

    /// The partition at index `i`.
    pub fn partition(&self, i: usize) -> Arc<DatasetPartition> {
        Arc::clone(&self.partitions[i].1)
    }

    /// Node hosting partition `i`.
    pub fn partition_node(&self, i: usize) -> NodeId {
        self.partitions[i].0
    }

    /// Route a record to its partition and upsert it there.
    pub fn upsert(&self, record: &AdmValue) -> IngestResult<()> {
        let key = record
            .field(&self.config.primary_key)
            .filter(|v| !matches!(v, AdmValue::Null | AdmValue::Missing))
            .ok_or_else(|| {
                IngestError::soft(format!(
                    "record lacks primary key '{}'",
                    self.config.primary_key
                ))
            })?;
        let idx = self.partition_index_for(key);
        self.partitions[idx].1.upsert(record)
    }

    /// Route and strict-insert (duplicate key errors softly).
    pub fn insert(&self, record: &AdmValue) -> IngestResult<()> {
        let key = record
            .field(&self.config.primary_key)
            .filter(|v| !matches!(v, AdmValue::Null | AdmValue::Missing))
            .ok_or_else(|| {
                IngestError::soft(format!(
                    "record lacks primary key '{}'",
                    self.config.primary_key
                ))
            })?;
        let idx = self.partition_index_for(key);
        self.partitions[idx].1.insert(record)
    }

    /// Group-commit a frame's worth of upserts: records are routed to their
    /// partitions by key hash, then each partition gets **one** batch call —
    /// one partition lock, one multi-entry WAL append — instead of one call
    /// per record. Soft failures (missing primary key) come back in the
    /// outcome, indexed by position in `records`.
    pub fn upsert_batch(&self, records: &[Arc<AdmValue>]) -> IngestResult<BatchOutcome> {
        self.batch_write(records, true)
    }

    /// Group-commit a frame's worth of strict inserts (duplicate keys fail
    /// softly, per record). Same routing and locking shape as
    /// [`Dataset::upsert_batch`].
    pub fn insert_batch(&self, records: &[Arc<AdmValue>]) -> IngestResult<BatchOutcome> {
        self.batch_write(records, false)
    }

    fn batch_write(&self, records: &[Arc<AdmValue>], upsert: bool) -> IngestResult<BatchOutcome> {
        let mut outcome = BatchOutcome::default();
        // route first: per-partition sub-batches remembering original indexes
        let mut routed: Vec<(Vec<usize>, Vec<Arc<AdmValue>>)> = (0..self.partitions.len())
            .map(|_| Default::default())
            .collect();
        for (i, record) in records.iter().enumerate() {
            match record
                .field(&self.config.primary_key)
                .filter(|v| !matches!(v, AdmValue::Null | AdmValue::Missing))
            {
                Some(key) => {
                    let p = self.partition_index_for(key);
                    routed[p].0.push(i);
                    routed[p].1.push(Arc::clone(record));
                }
                None => outcome.soft.push((
                    i,
                    IngestError::soft(format!(
                        "record lacks primary key '{}'",
                        self.config.primary_key
                    )),
                )),
            }
        }
        for (p, (indexes, sub)) in routed.into_iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let part = &self.partitions[p].1;
            let sub_outcome = if upsert {
                part.upsert_batch(&sub)?
            } else {
                part.insert_batch(&sub)?
            };
            outcome.committed += sub_outcome.committed;
            // remap partition-local soft indexes back to caller positions
            outcome
                .soft
                .extend(sub_outcome.soft.into_iter().map(|(j, e)| (indexes[j], e)));
        }
        Ok(outcome)
    }

    /// Point lookup.
    pub fn get(&self, key: &AdmValue) -> Option<AdmValue> {
        let idx = self.partition_index_for(key);
        self.partitions[idx].1.get(key)
    }

    /// Delete by key.
    pub fn delete(&self, key: &AdmValue) -> IngestResult<()> {
        let idx = self.partition_index_for(key);
        self.partitions[idx].1.delete(key)
    }

    /// Total live records across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|(_, p)| p.len()).sum()
    }

    /// No live records?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live records: partition by partition, each in key order.
    pub fn scan_all(&self) -> Vec<AdmValue> {
        self.collect_rows(None)
    }

    /// Projected scan: each live record reduced to the requested fields (in
    /// the requested order; absent fields are skipped, per ADM `MISSING`
    /// semantics). On compacted components only the requested columns are
    /// decoded — the full records are never materialized.
    pub fn scan_projected(&self, fields: &[String]) -> Vec<AdmValue> {
        self.collect_rows(Some(fields))
    }

    fn collect_rows(&self, fields: Option<&[String]>) -> Vec<AdmValue> {
        let mut out = Vec::new();
        self.try_for_each_row(fields, None, |row| {
            out.push(std::mem::replace(row, AdmValue::Missing));
            Ok::<_, IngestError>(())
        })
        .expect("an unfiltered scan has no error to return");
        out
    }

    /// The streamed scan: every live record that passes `filter` (all of
    /// them with `None`), partition by partition and in key order within
    /// one, lent to `visit` — projected to `fields`, or whole with `None` —
    /// until the filter or the visitor fails. Each partition is read from
    /// its own snapshot ([`DatasetPartition::try_for_each_row`]), taken
    /// when the loop reaches it: the scan sees each partition as of one
    /// instant, tests the filter on the stored bytes (or reads the keys a
    /// B-tree secondary holds under it) and holds no lock while `visit`
    /// runs.
    pub fn try_for_each_row<E: From<IngestError>>(
        &self,
        fields: Option<&[String]>,
        filter: Option<&Pred>,
        mut visit: impl FnMut(&mut AdmValue) -> Result<(), E>,
    ) -> Result<(), E> {
        for (_, p) in &self.partitions {
            p.try_for_each_row(fields, filter, |_, row| visit(row))?;
        }
        Ok(())
    }

    /// Point lookup of one field, decoding only that field's column cell on
    /// compacted components.
    pub fn get_field(&self, key: &AdmValue, field: &str) -> Option<AdmValue> {
        let idx = self.partition_index_for(key);
        self.partitions[idx].1.get_field(key, field)
    }

    /// Total sealed component storage bytes across partitions.
    pub fn storage_bytes(&self) -> usize {
        self.partitions.iter().map(|(_, p)| p.storage_bytes()).sum()
    }

    /// Bytes the dataset's primary indexes keep resident: memtable keys and
    /// payloads plus every sealed component's keys and storage image, across
    /// partitions. Unlike [`Dataset::storage_bytes`] this counts the
    /// memtable, so it follows the process's memory rather than the
    /// disk-equivalent footprint.
    pub fn resident_bytes(&self) -> usize {
        let parts = self.partitions.iter();
        parts.map(|(_, p)| p.resident_bytes()).sum()
    }

    /// Average storage bytes per sealed live record across all partitions
    /// (0.0 when nothing is sealed).
    pub fn bytes_per_record(&self) -> f64 {
        let bytes: usize = self.partitions.iter().map(|(_, p)| p.storage_bytes()).sum();
        let records: usize = self
            .partitions
            .iter()
            .map(|(_, p)| p.sealed_records())
            .sum();
        if records == 0 {
            0.0
        } else {
            bytes as f64 / records as f64
        }
    }

    /// Seal and merge every partition down to one component, synchronously
    /// (benchmarks and tests: makes storage-size numbers deterministic).
    pub fn force_merge_all(&self) {
        for (_, p) in &self.partitions {
            p.force_merge();
        }
    }

    /// Add a secondary index on every partition, or on none when some
    /// partition holds a record it does not accept.
    pub fn create_index(
        &self,
        name: impl Into<String>,
        field: impl Into<String>,
        kind: IndexKind,
    ) -> IngestResult<()> {
        let parts: Vec<&DatasetPartition> = self.partitions.iter().map(|(_, p)| &**p).collect();
        DatasetPartition::add_secondary_to_all(&parts, SecondaryIndex::new(name, field, kind))
    }

    /// Register this dataset's storage instruments in a cluster registry:
    /// per-partition `storage.lsm_components`, `storage.wal_bytes` and
    /// `storage.wal_entries` (the log's unsealed tail: what a seal has not
    /// checkpointed yet), `storage.wal_group_commits`,
    /// `storage.wal_checkpoints`, `storage.compactions`,
    /// `storage.bytes_per_record` (rounded),
    /// `compaction.schema_inferred_components` and
    /// `compaction.fallback_components` gauges (polled at snapshot time),
    /// plus, shared by all partitions, one `storage.resident_bytes` gauge
    /// ([`Dataset::resident_bytes`]), one `storage.group_commit_batch_size`
    /// histogram and the `compaction.rows_copied` /
    /// `compaction.rows_reencoded` counters (merged rows whose image cells
    /// were copied from the input images vs. encoded afresh). Compaction
    /// rounds are traced as `storage.compaction` spans into each hosting
    /// node's trace log.
    pub fn register_observability(&self, registry: &MetricsRegistry, trace: &TraceHub) {
        let dataset = self.config.name.as_str();
        let batch_hist =
            registry.histogram("storage.group_commit_batch_size", &[("dataset", dataset)]);
        let rows_copied = registry.counter("compaction.rows_copied", &[("dataset", dataset)]);
        let rows_reencoded = registry.counter("compaction.rows_reencoded", &[("dataset", dataset)]);
        let parts: Vec<Arc<DatasetPartition>> =
            self.partitions.iter().map(|(_, p)| Arc::clone(p)).collect();
        registry.gauge_fn(
            "storage.resident_bytes",
            &[("dataset", dataset)],
            move || parts.iter().map(|p| p.resident_bytes() as u64).sum(),
        );
        for (i, (node, part)) in self.partitions.iter().enumerate() {
            let pstr = i.to_string();
            let labels = &[("dataset", dataset), ("partition", pstr.as_str())];
            let gauge = |name: &str, f: fn(&DatasetPartition) -> u64| {
                let p = Arc::clone(part);
                registry.gauge_fn(name, labels, move || f(&p));
            };
            gauge("storage.lsm_components", |p| p.component_count() as u64);
            gauge("storage.wal_bytes", |p| p.wal_size_bytes() as u64);
            gauge("storage.wal_entries", |p| p.wal_len() as u64);
            gauge(
                "storage.wal_group_commits",
                DatasetPartition::wal_group_commits,
            );
            gauge("storage.wal_checkpoints", DatasetPartition::wal_checkpoints);
            gauge("storage.compactions", DatasetPartition::compactions);
            gauge("storage.bytes_per_record", |p| {
                p.bytes_per_record().round() as u64
            });
            gauge(
                "compaction.schema_inferred_components",
                DatasetPartition::schema_inferred_components,
            );
            gauge(
                "compaction.fallback_components",
                DatasetPartition::fallback_components,
            );
            part.set_observability(PartitionObservability {
                batch_hist: batch_hist.clone(),
                trace: trace.node_log(*node),
                rows_copied: rows_copied.clone(),
                rows_reencoded: rows_reencoded.clone(),
            });
        }
    }

    /// Spatial query fanned out across partitions.
    pub fn query_rect(
        &self,
        index_name: &str,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
    ) -> IngestResult<Vec<AdmValue>> {
        let mut out = Vec::new();
        for (_, p) in &self.partitions {
            out.extend(p.query_rect(index_name, x0, y0, x1, y1)?);
        }
        Ok(out)
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Dataset({}, {} partitions, {} records)",
            self.config.name,
            self.partitions.len(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(nodes: u64) -> Dataset {
        Dataset::create(DatasetConfig {
            name: "Tweets".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: (0..nodes).map(NodeId).collect(),
        })
        .unwrap()
    }

    fn rec(id: u32) -> AdmValue {
        AdmValue::record(vec![
            ("id", format!("t{id}").into()),
            ("message_text", "hi".into()),
        ])
    }

    #[test]
    fn records_spread_over_partitions() {
        let d = dataset(4);
        for i in 0..200 {
            d.upsert(&rec(i)).unwrap();
        }
        assert_eq!(d.len(), 200);
        for i in 0..4 {
            let n = d.partition(i).len();
            assert!(n > 20, "partition {i} starved with {n}");
        }
    }

    #[test]
    fn routing_is_deterministic_and_reachable() {
        let d = dataset(3);
        d.upsert(&rec(7)).unwrap();
        let key: AdmValue = "t7".into();
        let idx = d.partition_index_for(&key);
        assert!(d.partition(idx).get(&key).is_some());
        assert_eq!(d.get(&key).unwrap().field("id").unwrap(), &key);
    }

    #[test]
    fn int64_keys_above_2_pow_53_are_distinct_records() {
        let keyed = |id: i64, text: &str| {
            AdmValue::record(vec![
                ("id", AdmValue::Int(id)),
                ("message_text", text.into()),
            ])
        };
        let (a, b) = (1i64 << 53, (1i64 << 53) + 1);
        // one partition would share the hash of the two keys anyway; two
        // check that placement still finds each
        for nodes in [1, 2] {
            let d = dataset(nodes);
            d.insert(&keyed(a, "a")).unwrap();
            d.insert(&keyed(b, "b"))
                .expect("a distinct key is no duplicate");
            assert_eq!(d.len(), 2);
            let d = dataset(nodes);
            d.upsert(&keyed(a, "a")).unwrap();
            d.upsert(&keyed(b, "b")).unwrap();
            assert_eq!(d.len(), 2, "the upsert overwrote the other key");
            for (id, text) in [(a, "a"), (b, "b")] {
                assert_eq!(d.get(&AdmValue::Int(id)), Some(keyed(id, text)));
            }
            // an int key and an equal double are still one key
            assert!(d.insert(&keyed(3, "three")).is_ok());
            assert!(d.get(&AdmValue::Double(3.0)).is_some());
        }
    }

    #[test]
    fn empty_nodegroup_rejected() {
        let r = Dataset::create(DatasetConfig {
            name: "X".into(),
            datatype: "T".into(),
            primary_key: "id".into(),
            nodegroup: vec![],
        });
        assert!(matches!(r, Err(IngestError::Config(_))));
    }

    #[test]
    fn partition_on_node_lookup() {
        let d = dataset(2);
        assert!(d.partition_on(NodeId(0)).is_some());
        assert!(d.partition_on(NodeId(1)).is_some());
        assert!(d.partition_on(NodeId(9)).is_none());
        assert_eq!(d.partition_node(0), NodeId(0));
    }

    #[test]
    fn delete_and_scan() {
        let d = dataset(2);
        for i in 0..10 {
            d.insert(&rec(i)).unwrap();
        }
        d.delete(&"t3".into()).unwrap();
        assert_eq!(d.len(), 9);
        let scanned = d.scan_all();
        assert_eq!(scanned.len(), 9);
        assert!(!scanned.iter().any(|r| r.field("id") == Some(&"t3".into())));
    }

    #[test]
    fn upsert_batch_routes_and_matches_per_record_path() {
        let a = dataset(3);
        let b = dataset(3);
        let records: Vec<Arc<AdmValue>> = (0..100).map(|i| Arc::new(rec(i))).collect();
        for r in &records {
            a.upsert(r).unwrap();
        }
        let outcome = b.upsert_batch(&records).unwrap();
        assert_eq!(outcome.committed, 100);
        assert!(outcome.is_clean());
        for i in 0..3 {
            assert_eq!(a.partition(i).scan_all(), b.partition(i).scan_all());
        }
        // each partition saw exactly one group commit
        for i in 0..3 {
            assert_eq!(b.partition(i).wal_group_commits(), 1);
        }
    }

    #[test]
    fn batch_soft_failures_keep_caller_indexes() {
        let d = dataset(2);
        d.insert(&rec(1)).unwrap();
        let no_key = Arc::new(AdmValue::record(vec![("message_text", "hi".into())]));
        let batch = vec![
            Arc::new(rec(0)), // commits
            no_key,           // 1: missing key
            Arc::new(rec(1)), // 2: duplicate (strict insert)
            Arc::new(rec(2)), // commits
        ];
        let outcome = d.insert_batch(&batch).unwrap();
        assert_eq!(outcome.committed, 2);
        let mut failed: Vec<usize> = outcome.soft.iter().map(|(i, _)| *i).collect();
        failed.sort_unstable();
        assert_eq!(failed, vec![1, 2]);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn observability_gauges_track_partition_state() {
        use asterix_common::SimClock;
        let d = dataset(2);
        let registry = MetricsRegistry::new();
        let trace = TraceHub::new(SimClock::fast(), 32);
        d.register_observability(&registry, &trace);
        let records: Vec<Arc<AdmValue>> = (0..50).map(|i| Arc::new(rec(i))).collect();
        d.upsert_batch(&records).unwrap();
        let snap = registry.snapshot();
        let wal_entries: u64 = (0..2)
            .filter_map(|i| snap.gauge_for("storage.wal_entries", &i.to_string()))
            .sum();
        assert_eq!(wal_entries, 50);
        assert!(snap.gauge_for("storage.wal_bytes", "0").unwrap_or(0) > 0);
        assert_eq!(
            snap.gauge_for("storage.resident_bytes", "Tweets"),
            Some(d.resident_bytes() as u64)
        );
        assert!(
            d.resident_bytes() > 0 && d.storage_bytes() == 0,
            "all in the memtable"
        );
        let batch = snap
            .histogram("storage.group_commit_batch_size")
            .expect("batch histogram");
        assert_eq!(batch.count, 2, "one group commit per partition");
        assert_eq!(batch.sum, 50);
        assert!(snap.all_finite());
        // a seal checkpoints the log: the gauges read the unsealed tail
        assert_eq!(snap.gauge("storage.wal_checkpoints"), Some(0));
        d.force_merge_all();
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("storage.wal_checkpoints"), Some(2));
        assert_eq!(snap.gauge("storage.wal_entries"), Some(0));
        assert_eq!(snap.gauge("storage.wal_bytes"), Some(0));
    }

    #[test]
    fn projected_scan_matches_full_scan_and_compaction_metrics_register() {
        use crate::partition::LayoutConfig;
        use asterix_common::SimClock;
        use asterix_common::TraceHub;
        let compact = dataset(2);
        let mut pc = PartitionConfig::keyed_on("id");
        pc.lsm.layout = LayoutConfig::open();
        let open = Dataset::create_configured(
            DatasetConfig {
                name: "TweetsOpen".into(),
                datatype: "Tweet".into(),
                primary_key: "id".into(),
                nodegroup: (0..2).map(NodeId).collect(),
            },
            pc,
        )
        .unwrap();
        for d in [&compact, &open] {
            for i in 0..80 {
                d.upsert(&rec(i)).unwrap();
            }
            d.force_merge_all();
        }
        // projection agrees with the full scan, layout-independently
        for d in [&compact, &open] {
            let projected = d.scan_projected(&["message_text".into()]);
            let full = d.scan_all();
            assert_eq!(projected.len(), full.len());
            for (p, f) in projected.iter().zip(&full) {
                assert_eq!(p.field("message_text"), f.field("message_text"));
                assert!(p.field("id").is_none());
            }
        }
        assert_eq!(
            compact.get_field(&"t7".into(), "message_text"),
            Some(AdmValue::string("hi"))
        );
        // the compacted layout stores the same rows in fewer bytes
        assert!(compact.storage_bytes() > 0);
        assert!(compact.bytes_per_record() < open.bytes_per_record());
        // and the new gauges land in the registry
        let registry = MetricsRegistry::new();
        let trace = TraceHub::new(SimClock::fast(), 32);
        compact.register_observability(&registry, &trace);
        let snap = registry.snapshot();
        assert!(snap.gauge_for("storage.bytes_per_record", "0").unwrap_or(0) > 0);
        let inferred: u64 = (0..2)
            .filter_map(|i| snap.gauge_for("compaction.schema_inferred_components", &i.to_string()))
            .sum();
        assert!(
            inferred >= 2,
            "each partition sealed at least one compacted component"
        );
        assert_eq!(
            snap.gauge_for("compaction.fallback_components", "0"),
            Some(0)
        );
        // nothing merged since the hooks went in; a second same-layout
        // component per partition is merged by copying cells, not re-encoding
        assert_eq!(snap.counter("compaction.rows_copied"), 0);
        for i in 0..80 {
            compact.upsert(&rec(i)).unwrap();
        }
        compact.force_merge_all();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_for("compaction.rows_copied", "Tweets"), 80);
        assert_eq!(snap.counter_for("compaction.rows_reencoded", "Tweets"), 0);
    }

    #[test]
    fn index_fans_out_to_all_partitions() {
        let d = dataset(3);
        d.create_index("locIdx", "location", IndexKind::RTree)
            .unwrap();
        for i in 0..20 {
            let r = AdmValue::record(vec![
                ("id", format!("t{i}").into()),
                ("location", AdmValue::Point(i as f64, 0.0)),
            ]);
            d.upsert(&r).unwrap();
        }
        let hits = d.query_rect("locIdx", 0.0, -1.0, 9.0, 1.0).unwrap();
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn create_index_installs_on_every_partition_or_on_none() {
        let d = dataset(4);
        for i in 0..20 {
            let r = AdmValue::record(vec![
                ("id", format!("t{i}").into()),
                ("location", AdmValue::Point(i as f64, 0.0)),
            ]);
            d.upsert(&r).unwrap();
        }
        // one record the R-tree refuses, on the last partition
        let bad = (0..).map(|i| AdmValue::from(format!("bad{i}")));
        let bad = bad
            .into_iter()
            .find(|k| d.partition_index_for(k) == 3)
            .unwrap();
        let nowhere = AdmValue::record(vec![("id", bad.clone()), ("location", "nowhere".into())]);
        d.upsert(&nowhere).unwrap();
        let rect = |i| d.partition(i).query_rect("locIdx", 0.0, -1.0, 19.0, 1.0);
        assert!(d
            .create_index("locIdx", "location", IndexKind::RTree)
            .is_err());
        for i in 0..4 {
            assert!(
                matches!(rect(i), Err(IngestError::Metadata(_))),
                "partition {i}"
            );
        }
        d.delete(&bad).unwrap();
        d.create_index("locIdx", "location", IndexKind::RTree)
            .unwrap();
        let hits: usize = (0..4).map(|i| rect(i).unwrap().len()).sum();
        assert_eq!(hits, 20, "installed and back-filled everywhere");
    }
}
