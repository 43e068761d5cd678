//! One storage partition: WAL + primary LSM index + secondary indexes, with
//! a group-commit batch write path and off-critical-path compaction.
//!
//! The store operator instance of an ingestion pipeline is co-located with
//! one of these (§5.3.1: "Each of these instances is co-located with a
//! stored partition of the target dataset"). Inserts are logged first, then
//! applied to the primary index and every secondary — record-level ACID.
//!
//! Two properties keep the insert path frame-at-a-time fast, mirroring how
//! AsterixDB's real LSM storage stays off the ingestion critical path:
//!
//! * **Group commit on bytes** — [`DatasetPartition::upsert_batch_bytes`] /
//!   [`DatasetPartition::insert_batch_bytes`] take a frame's worth of record
//!   payloads (binary ADM), run **one checked walk** over each (well-formed,
//!   and conforming to the dataset's type when one is given), project the
//!   primary key out of the bytes, acquire the partition lock once, append
//!   one multi-entry WAL block (header + key + `memcpy` of each payload) and
//!   apply primary and secondary updates in a single pass. The memtable
//!   shares the caller's buffers; no `AdmValue` of a record is ever built.
//!   Every other write — [`DatasetPartition::insert`],
//!   [`DatasetPartition::upsert`], [`DatasetPartition::upsert_batch`],
//!   [`DatasetPartition::insert_batch`] — is an adapter that encodes its
//!   values once and calls that path.
//! * **Background compaction** — the insert path only ever *seals* the
//!   memtable into an immutable component
//!   ([`crate::lsm::LsmConfig::defer_merge`] is forced on). A per-partition
//!   compaction worker merges sealed components from an `Arc` snapshot
//!   entirely outside the partition lock and swaps the result in under a
//!   short lock, so a merge of any size never stalls intake.

use crate::lsm::{merge_components_with, LsmTree};
use crate::secondary::{IndexKind, SecondaryIndex};
use crate::wal::{LogOp, WriteAheadLog};
use asterix_adm::binary::{
    decode_field_at, decode_value, encode_value, record_field_slice, validate,
};
use asterix_adm::{AdmType, AdmValue, TypeRegistry};
use asterix_common::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use asterix_common::sync::{thread as sync_thread, Mutex, WakeEvent, WakeSignal};
use asterix_common::{Counter, Histogram, IngestError, IngestResult, TraceLog};
use bytes::Bytes;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::lsm::{LayoutConfig, LsmConfig};

/// Partition tuning.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// The record field holding the primary key.
    pub primary_key_field: String,
    /// LSM tuning. `defer_merge` is forced on by the partition: merges run
    /// on the background compaction worker, never on the insert path.
    pub lsm: LsmConfig,
    /// Busy-spin iterations per insert, modelling per-record storage cost in
    /// capacity-bounded experiments (0 = free).
    pub insert_spin: u64,
    /// Busy-spin iterations per surviving entry during a merge, modelling
    /// merge I/O cost (0 = free). Useful to make compaction measurably slow
    /// in tests and experiments without blocking inserts.
    pub merge_spin: u64,
}

impl PartitionConfig {
    /// Config with the given primary key field and defaults elsewhere.
    pub fn keyed_on(field: impl Into<String>) -> Self {
        PartitionConfig {
            primary_key_field: field.into(),
            lsm: LsmConfig::default(),
            insert_spin: 0,
            merge_spin: 0,
        }
    }
}

/// Per-record outcome of a batch write: how many records committed, and
/// which input indexes failed softly (malformed or non-conforming payload,
/// duplicate key, missing key). Hard errors abort the whole call instead.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// Records logged, applied and indexed.
    pub committed: usize,
    /// `(input index, soft error)` for records the batch skipped.
    pub soft: Vec<(usize, IngestError)>,
}

impl BatchOutcome {
    /// Did every record commit?
    pub fn is_clean(&self) -> bool {
        self.soft.is_empty()
    }
}

/// Observability hooks of one partition, attached once by
/// [`DatasetPartition::set_observability`].
pub struct PartitionObservability {
    /// Receives the size of every group-commit batch.
    pub batch_hist: Histogram,
    /// Receives a `storage.compaction` span per merge round.
    pub trace: Arc<TraceLog>,
    /// Merged rows whose image cells were copied out of the input images.
    pub rows_copied: Counter,
    /// Merged rows encoded afresh because the inputs' layouts differed.
    pub rows_reencoded: Counter,
}

struct PartitionState {
    primary: LsmTree,
    secondaries: Vec<SecondaryIndex>,
}

impl PartitionState {
    /// Before `key` is overwritten or deleted: drop its stored version from
    /// every secondary, reading only each index's field of it. A partition
    /// without secondaries skips the probe.
    fn unindex_old(&mut self, key: &AdmValue) -> IngestResult<()> {
        if self.secondaries.is_empty() {
            return Ok(());
        }
        if let Some(old) = self.primary.get_ref(key) {
            for idx in &mut self.secondaries {
                idx.remove(key, old.field(&idx.field).as_ref())?;
            }
        }
        Ok(())
    }

    /// Store `payload` (checked binary ADM) under `key`, replacing any
    /// stored version: the memtable shares the buffer, then every secondary
    /// gets its one field projected out of the bytes. The primary is written
    /// before the secondaries, so an index that rejects its field (a
    /// non-point under an R-tree) leaves the logged record readable.
    fn put(&mut self, key: AdmValue, payload: &Bytes) -> IngestResult<()> {
        self.unindex_old(&key)?;
        if self.secondaries.is_empty() {
            self.primary.put_bytes(key, payload.clone());
            return Ok(());
        }
        self.primary.put_bytes(key.clone(), payload.clone());
        for idx in &mut self.secondaries {
            let indexed = decode_field_at(payload, &idx.field).ok().flatten();
            idx.insert(&key, indexed.as_ref())?;
        }
        Ok(())
    }
}

/// State shared between the partition handle and its compaction worker.
struct PartitionInner {
    config: PartitionConfig,
    wal: WriteAheadLog,
    state: Mutex<PartitionState>,
    signal: WakeSignal,
    merging: AtomicBool,
    compactions: AtomicU64,
    /// Attached once via `set_observability`.
    observability: OnceLock<PartitionObservability>,
}

impl PartitionInner {
    fn spin(&self) {
        // models storage CPU cost; the loop is opaque to the optimizer
        let mut acc = 0u64;
        for i in 0..self.config.insert_spin {
            acc = acc.wrapping_add(i).rotate_left(1);
        }
        std::hint::black_box(acc);
    }

    /// Wake the compaction worker (called after a mutation sealed enough
    /// components; never while holding the state lock).
    fn nudge_compactor(&self) {
        self.signal.wake();
    }

    /// One merge round: snapshot under a short lock, merge off-lock, swap
    /// the result in under a short lock. Returns whether a merge installed.
    /// `min_components` gates how eager the round is (the worker uses the
    /// configured threshold via `needs_merge`; `force_merge` uses 2).
    fn compact_once(&self, forced: bool) -> bool {
        let snapshot = {
            let st = self.state.lock();
            let due = if forced {
                st.primary.component_count() >= 2
            } else {
                st.primary.needs_merge()
            };
            if !due {
                return false;
            }
            st.primary.components_snapshot()
        };
        if snapshot.len() < 2 {
            return false;
        }
        let observability = self.observability.get();
        let span = observability.map(|o| {
            o.trace.span(
                "storage.compaction",
                format!("{} components", snapshot.len()),
            )
        });
        self.merging.store(true, Ordering::SeqCst);
        // the expensive part: runs on Arc'd component clones, lock-free —
        // the k-way merge of the runs and the merged component's image
        // (cells copied from the input images, or re-encoded under the
        // configured storage layout when the inputs' layouts differ)
        let merged =
            merge_components_with(&snapshot, self.config.merge_spin, &self.config.lsm.layout);
        let installed = self
            .state
            .lock()
            .primary
            .install_merged(&snapshot, Arc::new(merged.component));
        self.merging.store(false, Ordering::SeqCst);
        if installed {
            self.compactions.fetch_add(1, Ordering::SeqCst);
            if let Some(o) = observability {
                o.rows_copied.add(merged.rows_copied);
                o.rows_reencoded.add(merged.rows_reencoded);
            }
        }
        if let Some(span) = span {
            span.finish(if installed { "installed" } else { "lost race" });
        }
        installed
    }

    fn compactor_loop(&self) {
        loop {
            // the timeout doubles as a safety net if a nudge is lost — the
            // loom model of WakeSignal proves it never actually fires
            match self.signal.wait_timeout(Duration::from_millis(20)) {
                WakeEvent::Shutdown => return,
                WakeEvent::Woken | WakeEvent::TimedOut => {}
            }
            // drain: keep merging while over threshold; stop on a lost race
            while self.compact_once(false) {}
        }
    }
}

/// A single dataset partition.
pub struct DatasetPartition {
    inner: Arc<PartitionInner>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl DatasetPartition {
    /// Fresh empty partition; spawns its background compaction worker.
    pub fn new(mut config: PartitionConfig) -> Self {
        // merges belong to the worker, never to the insert path
        config.lsm.defer_merge = true;
        let inner = Arc::new(PartitionInner {
            state: Mutex::new(PartitionState {
                primary: LsmTree::new(config.lsm.clone()),
                secondaries: Vec::new(),
            }),
            wal: WriteAheadLog::new(),
            signal: WakeSignal::new(),
            merging: AtomicBool::new(false),
            compactions: AtomicU64::new(0),
            observability: OnceLock::new(),
            config,
        });
        let for_worker = Arc::clone(&inner);
        let worker =
            sync_thread::spawn_named("lsm-compactor", move || for_worker.compactor_loop()).ok();
        DatasetPartition {
            inner,
            worker: Mutex::new(worker),
        }
    }

    /// Add a secondary index (normally before data arrives; existing records
    /// are back-filled by reading the indexed field of each — no record is
    /// materialized).
    pub fn add_secondary(
        &self,
        name: impl Into<String>,
        field: impl Into<String>,
        kind: IndexKind,
    ) -> IngestResult<()> {
        let mut idx = SecondaryIndex::new(name, field, kind);
        let field = idx.field.clone();
        let mut st = self.inner.state.lock();
        let mut backfill_err = None;
        st.primary.for_each_live_ref(|key, record| {
            if backfill_err.is_none() {
                backfill_err = idx.insert(key, record.field(&field).as_ref()).err();
            }
        });
        if let Some(e) = backfill_err {
            return Err(e);
        }
        st.secondaries.push(idx);
        Ok(())
    }

    /// Insert a record; errors (softly) on a duplicate primary key, like
    /// AsterixDB's `insert`. Encodes the value and takes the bytes path.
    pub fn insert(&self, record: &AdmValue) -> IngestResult<()> {
        self.write_one(record, false)
    }

    /// Insert or replace a record (makes at-least-once replays idempotent).
    /// Encodes the value and takes the bytes path.
    pub fn upsert(&self, record: &AdmValue) -> IngestResult<()> {
        self.write_one(record, true)
    }

    fn write_one(&self, record: &AdmValue, upsert: bool) -> IngestResult<()> {
        let outcome = self.write_batch(&[encode_value(record).into()], None, upsert, false)?;
        match outcome.soft.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// [`DatasetPartition::insert_batch_bytes`] for callers holding values:
    /// each is encoded once.
    pub fn insert_batch(&self, records: &[Arc<AdmValue>]) -> IngestResult<BatchOutcome> {
        self.write_batch(&encoded(records), None, false, true)
    }

    /// [`DatasetPartition::upsert_batch_bytes`] for callers holding values:
    /// each is encoded once.
    pub fn upsert_batch(&self, records: &[Arc<AdmValue>]) -> IngestResult<BatchOutcome> {
        self.write_batch(&encoded(records), None, true, true)
    }

    /// Group-commit a frame's worth of strict inserts, each given as its
    /// binary ADM payload: one checked walk per payload, one partition lock,
    /// one multi-entry WAL append, one apply pass over primary + secondary
    /// indexes. Payloads that fail the walk, lack the primary key, or
    /// duplicate one (already stored, or earlier in this same batch) are
    /// reported per index in the outcome instead of failing the batch.
    ///
    /// `conform` adds datatype conformance to the checked walk (same pass).
    pub fn insert_batch_bytes(
        &self,
        payloads: &[Bytes],
        conform: Option<(&TypeRegistry, &AdmType)>,
    ) -> IngestResult<BatchOutcome> {
        self.write_batch(payloads, conform, false, true)
    }

    /// Group-commit a frame's worth of upserts (the feeds store path), each
    /// given as its binary ADM payload: one checked walk per payload, one
    /// partition lock, one multi-entry WAL append, one apply pass. The
    /// payloads may come straight off a wire or a spill file: anything the
    /// walk rejects — truncated, trailing bytes, bad UTF-8, not conforming
    /// to `conform`'s datatype — or that lacks a primary key fails softly,
    /// per index, and never reaches the log.
    pub fn upsert_batch_bytes(
        &self,
        payloads: &[Bytes],
        conform: Option<(&TypeRegistry, &AdmType)>,
    ) -> IngestResult<BatchOutcome> {
        self.write_batch(payloads, conform, true, true)
    }

    /// The checked walk and the key projection of one payload: its primary
    /// key, decoded, and the slice of the payload that encodes it.
    fn admit<'a>(
        &self,
        payload: &'a [u8],
        conform: Option<(&TypeRegistry, &AdmType)>,
    ) -> IngestResult<(AdmValue, &'a [u8])> {
        match conform {
            Some((registry, datatype)) => registry.check_bytes(payload, datatype),
            None => validate(payload),
        }
        .map_err(|e| IngestError::soft(e.to_string()))?;
        let field = &self.inner.config.primary_key_field;
        // checked bytes project without error; a non-record has no key
        record_field_slice(payload, field)
            .ok()
            .flatten()
            .and_then(|slice| Some((decode_value(slice).ok()?, slice)))
            .filter(|(key, _)| !matches!(key, AdmValue::Null | AdmValue::Missing))
            .ok_or_else(|| IngestError::soft(format!("record lacks primary key field '{field}'")))
    }

    /// The one write path. `group` is false only for the single-record
    /// `insert`/`upsert`: their one entry is neither a group commit nor a
    /// batch-size sample.
    fn write_batch(
        &self,
        payloads: &[Bytes],
        conform: Option<(&TypeRegistry, &AdmType)>,
        upsert: bool,
        group: bool,
    ) -> IngestResult<BatchOutcome> {
        let mut outcome = BatchOutcome::default();
        // (input index, key, the key's bytes within the payload)
        let mut accepted: Vec<(usize, AdmValue, &[u8])> = Vec::with_capacity(payloads.len());
        for (i, payload) in payloads.iter().enumerate() {
            match self.admit(payload, conform) {
                Ok((key, key_bytes)) => accepted.push((i, key, key_bytes)),
                Err(e) => outcome.soft.push((i, e)),
            }
        }
        if accepted.is_empty() {
            return Ok(outcome);
        }
        let needs_merge;
        {
            let mut st = self.inner.state.lock();
            if !upsert {
                // strict inserts: drop duplicates (stored or in-batch)
                // before anything reaches the log
                let mut in_batch: BTreeSet<crate::KeyOrd> = BTreeSet::new();
                accepted.retain(|(i, key, _)| {
                    let dup =
                        st.primary.contains(key) || !in_batch.insert(crate::KeyOrd(key.clone()));
                    if dup {
                        outcome.soft.push((
                            *i,
                            IngestError::soft(format!("duplicate primary key {key}")),
                        ));
                    }
                    !dup
                });
                if accepted.is_empty() {
                    return Ok(outcome);
                }
            }
            // WAL first, as one block of copied bytes: every record of the
            // batch is durable — and recoverable all-or-nothing — once this
            // returns
            if group {
                self.inner.wal.append_put_batch_bytes(
                    accepted
                        .iter()
                        .map(|(i, _, key_bytes)| (*key_bytes, &payloads[*i][..])),
                );
                if let Some(o) = self.inner.observability.get() {
                    o.batch_hist.record(accepted.len() as u64);
                }
            } else {
                let (i, _, key_bytes) = &accepted[0];
                self.inner.wal.append_put_bytes(key_bytes, &payloads[*i]);
            }
            for (i, key, _) in accepted {
                self.inner.spin();
                st.put(key, &payloads[i])?;
                outcome.committed += 1;
            }
            needs_merge = st.primary.needs_merge();
        }
        if needs_merge {
            self.inner.nudge_compactor();
        }
        Ok(outcome)
    }

    /// Delete by primary key; no-op if absent.
    pub fn delete(&self, key: &AdmValue) -> IngestResult<()> {
        let needs_merge;
        {
            let mut st = self.inner.state.lock();
            if !st.primary.contains(key) {
                return Ok(());
            }
            self.inner.wal.append_delete(key);
            st.unindex_old(key)?;
            st.primary.delete(key.clone());
            needs_merge = st.primary.needs_merge();
        }
        if needs_merge {
            self.inner.nudge_compactor();
        }
        Ok(())
    }

    /// Point lookup by primary key.
    pub fn get(&self, key: &AdmValue) -> Option<AdmValue> {
        self.inner.state.lock().primary.get(key)
    }

    /// All live records in key order.
    pub fn scan_all(&self) -> Vec<(AdmValue, AdmValue)> {
        self.inner.state.lock().primary.scan_all()
    }

    /// Point lookup of a single field by primary key. On a compacted
    /// component this decodes only the requested field's column cell —
    /// the record is never fully materialized.
    pub fn get_field(&self, key: &AdmValue, field: &str) -> Option<AdmValue> {
        self.inner.state.lock().primary.get_field(key, field)
    }

    /// Vectorized single-field scan: `(key, field value)` for every live
    /// record in key order. Sealed components answer straight from their
    /// storage image (one column cell per row on the compacted layout);
    /// full records are never rebuilt.
    pub fn scan_field(&self, field: &str) -> Vec<(AdmValue, Option<AdmValue>)> {
        let st = self.inner.state.lock();
        let mut out = Vec::with_capacity(st.primary.live_upper_bound());
        st.primary
            .for_each_live_field(field, |k, v| out.push((k.clone(), v)));
        out
    }

    /// Vectorized projected scan: for each live record (in key order), a
    /// record holding just the requested fields, in the requested order.
    /// Fields absent from a record are skipped (ADM `MISSING` semantics).
    pub fn scan_projected(&self, fields: &[String]) -> Vec<AdmValue> {
        let st = self.inner.state.lock();
        let mut out = Vec::with_capacity(st.primary.live_upper_bound());
        st.primary.for_each_live_ref(|_, r| {
            let projected: Vec<(String, AdmValue)> = fields
                .iter()
                .filter_map(|f| r.field(f).map(|v| (f.clone(), v)))
                .collect();
            out.push(AdmValue::Record(projected));
        });
        out
    }

    /// Live record count.
    pub fn len(&self) -> usize {
        self.inner.state.lock().primary.live_count()
    }

    /// No live records?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spatial lookup through a named R-tree secondary.
    pub fn query_rect(
        &self,
        index_name: &str,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
    ) -> IngestResult<Vec<AdmValue>> {
        let st = self.inner.state.lock();
        let idx = st
            .secondaries
            .iter()
            .find(|i| i.name == index_name)
            .ok_or_else(|| IngestError::Metadata(format!("unknown index {index_name}")))?;
        let keys = idx.lookup_rect(x0, y0, x1, y1);
        Ok(keys
            .into_iter()
            .filter_map(|k| st.primary.get(&k))
            .collect())
    }

    /// Equality lookup through a named secondary.
    pub fn query_eq(&self, index_name: &str, value: &AdmValue) -> IngestResult<Vec<AdmValue>> {
        let st = self.inner.state.lock();
        let idx = st
            .secondaries
            .iter()
            .find(|i| i.name == index_name)
            .ok_or_else(|| IngestError::Metadata(format!("unknown index {index_name}")))?;
        let keys = idx.lookup_eq(value);
        Ok(keys
            .into_iter()
            .filter_map(|k| st.primary.get(&k))
            .collect())
    }

    /// Log-based restart recovery (§6.2.3): rebuild the primary and all
    /// secondaries from the WAL, as a failed store node does when re-joining
    /// the cluster. Batched appends replay exactly like single appends; a
    /// torn trailing block (crash mid-append) is dropped whole.
    pub fn recover(&self) -> IngestResult<()> {
        let records = self.inner.wal.replay()?;
        let mut st = self.inner.state.lock();
        let secondary_specs: Vec<(String, String, IndexKind)> = st
            .secondaries
            .iter()
            .map(|i| (i.name.clone(), i.field.clone(), i.kind))
            .collect();
        st.primary = LsmTree::new(self.inner.config.lsm.clone());
        st.secondaries = secondary_specs
            .into_iter()
            .map(|(n, f, k)| SecondaryIndex::new(n, f, k))
            .collect();
        for rec in records {
            match rec.op {
                // replay checked the payload: the write path's trust holds
                LogOp::Put { key, value } => st.put(key, &value)?,
                LogOp::Delete { key } => {
                    if st.primary.contains(&key) {
                        st.unindex_old(&key)?;
                        st.primary.delete(key);
                    }
                }
            }
        }
        Ok(())
    }

    /// Seal the memtable and synchronously merge all sealed components down
    /// to one, on the calling thread (tests, checkpoints). Runs the same
    /// snapshot/merge/install cycle as the background worker — concurrent
    /// inserts proceed while the merge itself runs.
    pub fn force_merge(&self) {
        self.inner.state.lock().primary.seal();
        loop {
            if !self.inner.compact_once(true) {
                // nothing left to merge, or a racing merge won — both mean
                // the component stack is being taken care of
                let st = self.inner.state.lock();
                if st.primary.component_count() < 2 {
                    return;
                }
                drop(st);
                std::thread::yield_now();
            }
        }
    }

    /// Is a merge running right now (off the insert path)?
    pub fn is_merging(&self) -> bool {
        self.inner.merging.load(Ordering::SeqCst)
    }

    /// Completed background/forced merge cycles.
    pub fn compactions(&self) -> u64 {
        self.inner.compactions.load(Ordering::SeqCst)
    }

    /// Immutable components currently stacked (observability for tests).
    pub fn component_count(&self) -> usize {
        self.inner.state.lock().primary.component_count()
    }

    /// WAL record count (observability for tests).
    pub fn wal_len(&self) -> usize {
        self.inner.wal.len()
    }

    /// Multi-entry (group-commit) WAL appends so far.
    pub fn wal_group_commits(&self) -> u64 {
        self.inner.wal.group_commits()
    }

    /// Total WAL bytes (headers included).
    pub fn wal_size_bytes(&self) -> usize {
        self.inner.wal.size_bytes()
    }

    /// Total bytes of sealed component storage images.
    pub fn storage_bytes(&self) -> usize {
        self.inner.state.lock().primary.storage_bytes()
    }

    /// Bytes the primary index keeps resident: memtable keys and payloads
    /// plus every sealed component's keys and storage image.
    pub fn resident_bytes(&self) -> usize {
        self.inner.state.lock().primary.resident_bytes()
    }

    /// Live records held in sealed components (excludes the memtable).
    pub fn sealed_records(&self) -> usize {
        self.inner.state.lock().primary.component_live_records()
    }

    /// Average storage bytes per live record across sealed components
    /// (0.0 with no sealed records) — the compaction-efficiency metric.
    pub fn bytes_per_record(&self) -> f64 {
        let st = self.inner.state.lock();
        let records = st.primary.component_live_records();
        if records == 0 {
            return 0.0;
        }
        st.primary.storage_bytes() as f64 / records as f64
    }

    /// Components sealed or merged into the schema-inferred compacted
    /// layout so far.
    pub fn schema_inferred_components(&self) -> u64 {
        self.inner.state.lock().primary.schema_inferred_components()
    }

    /// Components that fell back to the open layout (schema churn over the
    /// configured threshold, or compaction disabled).
    pub fn fallback_components(&self) -> u64 {
        self.inner.state.lock().primary.fallback_components()
    }

    /// Attach observability hooks. First call wins; later calls are ignored
    /// (the hooks are write-once to stay off the hot path).
    pub fn set_observability(&self, hooks: PartitionObservability) {
        let _ = self.inner.observability.set(hooks);
    }

    /// Crash injection for recovery tests: tear `bytes` off the end of the
    /// WAL, as a crash mid-append would.
    pub fn corrupt_wal_tail(&self, bytes: usize) {
        self.inner.wal.corrupt_tail(bytes);
    }

    /// Crash injection for poison-recovery tests: panic on the calling
    /// thread *while holding the partition state lock*, as a bug in index
    /// maintenance would. With a poisoning lock this would take down every
    /// subsequent writer; the partition's locks recover instead.
    pub fn panic_under_state_lock(&self) {
        let _st = self.inner.state.lock();
        panic!("injected panic while holding the partition state lock");
    }

    /// Apply any due WAL-tear events of a chaos schedule to this
    /// partition's log; returns how many were applied.
    pub fn apply_fault_plan(&self, plan: &asterix_common::FaultPlan) -> usize {
        self.inner.wal.apply_fault_plan(plan)
    }
}

/// The binary ADM payload of each value.
fn encoded(records: &[Arc<AdmValue>]) -> Vec<Bytes> {
    records.iter().map(|r| encode_value(r).into()).collect()
}

impl Drop for DatasetPartition {
    fn drop(&mut self) {
        self.inner.signal.shutdown();
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for DatasetPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DatasetPartition(key='{}', {} live records)",
            self.inner.config.primary_key_field,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> DatasetPartition {
        DatasetPartition::new(PartitionConfig::keyed_on("id"))
    }

    fn rec(id: &str, text: &str) -> AdmValue {
        AdmValue::record(vec![
            ("id", id.into()),
            ("message_text", text.into()),
            ("location", AdmValue::Point(1.0, 2.0)),
        ])
    }

    fn arc_rec(id: &str, text: &str) -> Arc<AdmValue> {
        Arc::new(rec(id, text))
    }

    #[test]
    fn insert_get_scan() {
        let p = part();
        p.insert(&rec("b", "second")).unwrap();
        p.insert(&rec("a", "first")).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.get(&"a".into()).unwrap().field("message_text").unwrap(),
            &AdmValue::string("first")
        );
        let all = p.scan_all();
        assert_eq!(all[0].0, AdmValue::string("a"), "key ordered");
    }

    #[test]
    fn duplicate_insert_is_soft_error() {
        let p = part();
        p.insert(&rec("x", "one")).unwrap();
        let err = p.insert(&rec("x", "two")).unwrap_err();
        assert!(err.is_soft());
        // original untouched
        assert_eq!(
            p.get(&"x".into()).unwrap().field("message_text").unwrap(),
            &AdmValue::string("one")
        );
    }

    #[test]
    fn upsert_replaces() {
        let p = part();
        p.upsert(&rec("x", "one")).unwrap();
        p.upsert(&rec("x", "two")).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.get(&"x".into()).unwrap().field("message_text").unwrap(),
            &AdmValue::string("two")
        );
    }

    #[test]
    fn missing_key_is_soft_error() {
        let p = part();
        let bad = AdmValue::record(vec![("message_text", "hi".into())]);
        assert!(p.insert(&bad).unwrap_err().is_soft());
        let null_key = AdmValue::record(vec![("id", AdmValue::Null)]);
        assert!(p.insert(&null_key).unwrap_err().is_soft());
    }

    #[test]
    fn delete_removes_and_is_idempotent() {
        let p = part();
        p.insert(&rec("x", "one")).unwrap();
        p.delete(&"x".into()).unwrap();
        assert!(p.get(&"x".into()).is_none());
        p.delete(&"x".into()).unwrap(); // no-op
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn insert_batch_group_commits_one_wal_block() {
        let p = part();
        let batch: Vec<Arc<AdmValue>> =
            (0..5).map(|i| arc_rec(&format!("t{i}"), "hello")).collect();
        let outcome = p.insert_batch(&batch).unwrap();
        assert_eq!(outcome.committed, 5);
        assert!(outcome.is_clean());
        assert_eq!(p.len(), 5);
        assert_eq!(p.wal_len(), 5);
        assert_eq!(p.wal_group_commits(), 1, "one multi-entry append");
    }

    #[test]
    fn bytes_path_rejects_softly_and_logs_only_what_it_accepted() {
        use asterix_adm::types::paper_registry;
        let p = part();
        let good: Bytes = encode_value(&rec("a", "fine")).into();
        let truncated = Bytes::copy_from_slice(&good[..good.len() - 3]);
        let trailing: Bytes = [&good[..], &[0]].concat().into();
        let scalar: Bytes = encode_value(&AdmValue::Int(7)).into();
        let batch = [good.clone(), truncated, trailing, scalar, Bytes::new()];
        let outcome = p.upsert_batch_bytes(&batch, None).unwrap();
        assert_eq!(outcome.committed, 1);
        let failed: Vec<usize> = outcome.soft.iter().map(|(i, _)| *i).collect();
        assert_eq!(failed, vec![1, 2, 3, 4]);
        assert!(outcome.soft.iter().all(|(_, e)| e.is_soft()));
        assert_eq!(p.wal_len(), 1, "a rejected payload never reaches the log");
        assert_eq!(p.get(&"a".into()), Some(rec("a", "fine")));
        // conformance rides the same walk: `rec` is no Tweet
        let registry = paper_registry();
        let tweet = AdmType::Named("Tweet".into());
        let outcome = p
            .upsert_batch_bytes(&[good], Some((&registry, &tweet)))
            .unwrap();
        assert_eq!(outcome.committed, 0);
        assert!(outcome.soft[0].1.to_string().contains("Tweet"));
        assert_eq!(p.wal_len(), 1);
    }

    #[test]
    fn insert_batch_reports_duplicates_and_missing_keys_per_index() {
        let p = part();
        p.insert(&rec("stored", "already here")).unwrap();
        let no_key = Arc::new(AdmValue::record(vec![("message_text", "hi".into())]));
        let batch = vec![
            arc_rec("a", "fresh"),        // 0: commits
            arc_rec("stored", "dup"),     // 1: duplicate of stored record
            no_key,                       // 2: lacks the key field
            arc_rec("b", "fresh"),        // 3: commits
            arc_rec("a", "in-batch dup"), // 4: duplicate within the batch
        ];
        let outcome = p.insert_batch(&batch).unwrap();
        assert_eq!(outcome.committed, 2);
        let failed: Vec<usize> = outcome.soft.iter().map(|(i, _)| *i).collect();
        assert_eq!(
            failed,
            vec![2, 1, 4],
            "missing key first, then dups in order"
        );
        assert!(outcome.soft.iter().all(|(_, e)| e.is_soft()));
        // the first 'a' won; the stored record is untouched
        assert_eq!(
            p.get(&"a".into()).unwrap().field("message_text").unwrap(),
            &AdmValue::string("fresh")
        );
        assert_eq!(
            p.get(&"stored".into())
                .unwrap()
                .field("message_text")
                .unwrap(),
            &AdmValue::string("already here")
        );
        // only committed records reached the log
        assert_eq!(p.wal_len(), 3);
    }

    #[test]
    fn upsert_batch_applies_in_order_and_maintains_secondaries() {
        let p = part();
        p.add_secondary("byText", "message_text", IndexKind::BTree)
            .unwrap();
        let batch = vec![
            arc_rec("x", "first"),
            arc_rec("y", "other"),
            arc_rec("x", "second"), // in-batch replacement: later wins
        ];
        let outcome = p.upsert_batch(&batch).unwrap();
        assert_eq!(outcome.committed, 3);
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.get(&"x".into()).unwrap().field("message_text").unwrap(),
            &AdmValue::string("second")
        );
        // the secondary tracked the replacement: "first" is gone
        assert!(p.query_eq("byText", &"first".into()).unwrap().is_empty());
        assert_eq!(p.query_eq("byText", &"second".into()).unwrap().len(), 1);
    }

    #[test]
    fn batch_and_per_record_paths_agree() {
        let a = part();
        let b = part();
        let records: Vec<Arc<AdmValue>> = (0..40)
            .map(|i| arc_rec(&format!("t{i}"), &format!("m{i}")))
            .collect();
        for r in &records {
            a.upsert(r).unwrap();
        }
        for chunk in records.chunks(7) {
            b.upsert_batch(chunk).unwrap();
        }
        assert_eq!(a.scan_all(), b.scan_all());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let p = part();
        let outcome = p.upsert_batch(&[]).unwrap();
        assert_eq!(outcome.committed, 0);
        assert!(outcome.is_clean());
        assert_eq!(p.wal_len(), 0);
    }

    #[test]
    fn secondary_maintained_through_upsert_and_delete() {
        let p = part();
        p.add_secondary("locIdx", "location", IndexKind::RTree)
            .unwrap();
        p.insert(&rec("a", "x")).unwrap();
        assert_eq!(p.query_rect("locIdx", 0.0, 0.0, 5.0, 5.0).unwrap().len(), 1);
        // upsert with a moved location
        let moved = AdmValue::record(vec![
            ("id", "a".into()),
            ("message_text", "x".into()),
            ("location", AdmValue::Point(50.0, 50.0)),
        ]);
        p.upsert(&moved).unwrap();
        assert!(p
            .query_rect("locIdx", 0.0, 0.0, 5.0, 5.0)
            .unwrap()
            .is_empty());
        assert_eq!(
            p.query_rect("locIdx", 49.0, 49.0, 51.0, 51.0)
                .unwrap()
                .len(),
            1
        );
        p.delete(&"a".into()).unwrap();
        assert!(p
            .query_rect("locIdx", 49.0, 49.0, 51.0, 51.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn index_that_rejects_its_field_leaves_the_logged_record_readable() {
        let p = part();
        p.add_secondary("locIdx", "location", IndexKind::RTree)
            .unwrap();
        p.insert(&rec("a", "x")).unwrap();
        let bad = AdmValue::record(vec![("id", "a".into()), ("location", "nowhere".into())]);
        assert!(matches!(p.upsert(&bad), Err(IngestError::Type(_))));
        // the write reached the log, so it must have reached the primary too
        assert_eq!(p.get(&"a".into()), Some(bad.clone()));
        assert!(p
            .query_rect("locIdx", 0.0, 0.0, 5.0, 5.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn secondary_backfills_existing_records() {
        let p = part();
        p.insert(&rec("a", "x")).unwrap();
        p.insert(&rec("b", "y")).unwrap();
        p.add_secondary("locIdx", "location", IndexKind::RTree)
            .unwrap();
        assert_eq!(p.query_rect("locIdx", 0.0, 0.0, 5.0, 5.0).unwrap().len(), 2);
    }

    #[test]
    fn unknown_index_is_metadata_error() {
        let p = part();
        assert!(matches!(
            p.query_rect("nope", 0.0, 0.0, 1.0, 1.0),
            Err(IngestError::Metadata(_))
        ));
        assert!(p.query_eq("nope", &"x".into()).is_err());
    }

    #[test]
    fn recovery_rebuilds_state_from_wal() {
        let p = part();
        p.add_secondary("locIdx", "location", IndexKind::RTree)
            .unwrap();
        p.insert(&rec("a", "one")).unwrap();
        p.upsert(&rec("a", "two")).unwrap();
        p.insert(&rec("b", "three")).unwrap();
        p.delete(&"b".into()).unwrap();
        let before = p.scan_all();
        p.recover().unwrap();
        assert_eq!(p.scan_all(), before);
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.get(&"a".into()).unwrap().field("message_text").unwrap(),
            &AdmValue::string("two")
        );
        // secondary was rebuilt too
        assert_eq!(p.query_rect("locIdx", 0.0, 0.0, 5.0, 5.0).unwrap().len(), 1);
    }

    #[test]
    fn recovery_covers_batched_appends() {
        let p = part();
        let batch: Vec<Arc<AdmValue>> = (0..10).map(|i| arc_rec(&format!("t{i}"), "v")).collect();
        p.upsert_batch(&batch).unwrap();
        p.delete(&"t3".into()).unwrap();
        let before = p.scan_all();
        p.recover().unwrap();
        assert_eq!(p.scan_all(), before);
        assert_eq!(p.len(), 9);
    }

    #[test]
    fn torn_batch_recovers_all_or_nothing() {
        let p = part();
        p.upsert_batch(&[arc_rec("a", "1"), arc_rec("b", "2")])
            .unwrap();
        p.upsert_batch(&[arc_rec("c", "3"), arc_rec("d", "4")])
            .unwrap();
        // crash mid-way through the second batch append
        p.corrupt_wal_tail(1);
        p.recover().unwrap();
        let keys: Vec<AdmValue> = p.scan_all().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![AdmValue::string("a"), AdmValue::string("b")]);
    }

    #[test]
    fn background_compactor_merges_sealed_components() {
        let mut cfg = PartitionConfig::keyed_on("id");
        cfg.lsm.memtable_budget = 8;
        cfg.lsm.max_components = 2;
        let p = DatasetPartition::new(cfg);
        for i in 0..200 {
            p.insert(&rec(&format!("t{i:03}"), "x")).unwrap();
        }
        // the worker should bring the stack back under the threshold
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while p.component_count() > 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            p.component_count() <= 2,
            "compactor never caught up: {} components",
            p.component_count()
        );
        assert!(p.compactions() >= 1);
        assert_eq!(p.len(), 200, "no records lost to compaction");
    }

    #[test]
    fn force_merge_compacts_to_one_component() {
        let mut cfg = PartitionConfig::keyed_on("id");
        cfg.lsm.memtable_budget = 4;
        cfg.lsm.max_components = 100; // high threshold: worker stays idle
        let p = DatasetPartition::new(cfg);
        for i in 0..40 {
            p.insert(&rec(&format!("t{i:02}"), "x")).unwrap();
        }
        assert!(p.component_count() > 1);
        p.force_merge();
        assert_eq!(p.component_count(), 1);
        assert_eq!(p.len(), 40);
        assert!(p.compactions() >= 1);
    }

    #[test]
    fn poisoned_state_lock_does_not_take_down_the_partition() {
        let p = Arc::new(part());
        p.insert(&rec("before", "survives")).unwrap();
        let recoveries_before = asterix_common::sync::poison_recoveries();
        // a writer thread dies while holding the partition state lock
        let p2 = Arc::clone(&p);
        let crashed = std::thread::spawn(move || p2.panic_under_state_lock()).join();
        assert!(crashed.is_err(), "injected panic must propagate to join");
        // every subsequent operation recovers the lock instead of cascading
        p.insert(&rec("after", "also fine")).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.get(&"before".into())
                .unwrap()
                .field("message_text")
                .unwrap(),
            &AdmValue::string("survives")
        );
        p.recover().expect("recovery path unaffected");
        assert_eq!(p.len(), 2);
        assert!(
            asterix_common::sync::poison_recoveries() > recoveries_before,
            "the recovery safety net must actually have fired"
        );
        // the compactor worker must still be alive and joinable
        drop(Arc::try_unwrap(p).expect("sole owner"));
    }

    #[test]
    fn field_scans_match_full_scans_on_sealed_components() {
        let p = part();
        for i in 0..30 {
            p.insert(&rec(&format!("t{i:02}"), &format!("m{i}")))
                .unwrap();
        }
        p.force_merge(); // everything sealed into one (compacted) component
        let full = p.scan_all();
        let texts = p.scan_field("message_text");
        assert_eq!(texts.len(), full.len());
        for ((k, v), (fk, fv)) in full.iter().zip(&texts) {
            assert_eq!(k, fk);
            assert_eq!(v.field("message_text"), fv.as_ref());
        }
        let projected = p.scan_projected(&["message_text".into(), "id".into()]);
        for (proj, (k, v)) in projected.iter().zip(&full) {
            assert_eq!(proj.field("id"), Some(k));
            assert_eq!(proj.field("message_text"), v.field("message_text"));
            assert!(
                proj.field("location").is_none(),
                "unrequested field projected"
            );
        }
        assert_eq!(
            p.get_field(&"t03".into(), "message_text"),
            Some(AdmValue::string("m3"))
        );
        assert_eq!(p.get_field(&"t03".into(), "nope"), None);
        assert_eq!(p.get_field(&"zz".into(), "message_text"), None);
    }

    #[test]
    fn compacted_layout_shrinks_storage_and_counts_components() {
        let mut open_cfg = PartitionConfig::keyed_on("id");
        open_cfg.lsm.layout = LayoutConfig::open();
        let open = DatasetPartition::new(open_cfg);
        let compact = part();
        for p in [&open, &compact] {
            for i in 0..120 {
                p.insert(&rec(&format!("t{i:03}"), "steady text")).unwrap();
            }
            p.force_merge();
        }
        assert_eq!(
            open.scan_all(),
            compact.scan_all(),
            "layout is invisible to reads"
        );
        assert!(
            compact.storage_bytes() < open.storage_bytes(),
            "compacted {} >= open {}",
            compact.storage_bytes(),
            open.storage_bytes()
        );
        assert!(compact.bytes_per_record() < open.bytes_per_record());
        assert!(compact.schema_inferred_components() >= 1);
        assert_eq!(
            compact.fallback_components(),
            0,
            "uniform records never fall back"
        );
        assert_eq!(open.schema_inferred_components(), 0);
        assert!(
            open.fallback_components() >= 1,
            "forced-open components count as fallbacks"
        );
    }

    #[test]
    fn insert_spin_is_harmless() {
        let mut cfg = PartitionConfig::keyed_on("id");
        cfg.insert_spin = 1000;
        let p = DatasetPartition::new(cfg);
        p.insert(&rec("a", "x")).unwrap();
        assert_eq!(p.len(), 1);
    }
}
