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
//!
//! A sealed component is the checkpoint. The memtable is sealed only
//! between batches, once a whole WAL block is applied
//! ([`crate::lsm::LsmTree::stage`] never seals,
//! [`crate::lsm::LsmTree::seal_if_full`] runs after the batch), so after a
//! seal every logged entry is in a component, and the log is dropped whole
//! under the same lock ([`WriteAheadLog::checkpoint`]). The log therefore
//! holds only the unsealed tail, and [`DatasetPartition::recover`] keeps
//! the components, drops the volatile memtable and secondaries, rebuilds
//! the secondaries from the components and replays that tail. A torn tail
//! reaches only unsealed batches, each lost whole or kept whole.

use crate::lsm::{merge_components_with, project_with, Entry, LsmSnapshot, LsmTree};
use crate::secondary::{IndexKind, SecondaryIndex};
use crate::wal::{LogOp, WriteAheadLog};
use asterix_adm::binary::{
    decode_field_at, decode_value, encode_into, encode_value, record_field_slice, validate,
    value_into,
};
use asterix_adm::pred::{CmpOp, Pred};
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
    fn unindex_old(&mut self, key: &AdmValue) {
        if self.secondaries.is_empty() {
            return;
        }
        if let Some(old) = self.primary.get_ref(key) {
            for idx in &mut self.secondaries {
                idx.remove(key, old.field(&idx.field).as_ref());
            }
        }
    }

    /// Store `payload` (checked binary ADM) under `key`, replacing any
    /// stored version: the memtable shares the buffer, then every secondary
    /// gets its one field projected out of the bytes. Cannot fail: the
    /// write path refuses, before the log, any record a secondary does not
    /// [`accept`](SecondaryIndex::accepts), so every logged record applies
    /// here and again in replay. Never seals: the caller seals once the
    /// whole batch is applied.
    fn put(&mut self, key: AdmValue, payload: &Bytes) {
        self.unindex_old(&key);
        if self.secondaries.is_empty() {
            self.primary.stage(key, Entry::Put(payload.clone()));
            return;
        }
        self.primary.stage(key.clone(), Entry::Put(payload.clone()));
        for idx in &mut self.secondaries {
            let indexed = decode_field_at(payload, &idx.field).ok().flatten();
            idx.insert(&key, indexed.as_ref());
        }
    }

    /// Delete `key` from the primary and every secondary, if it is live.
    /// Never seals.
    fn delete(&mut self, key: &AdmValue) {
        if self.primary.contains(key) {
            self.unindex_old(key);
            self.primary.stage(key.clone(), Entry::Tombstone);
        }
    }

    /// Index every live record of the primary in `idx`, reading only the
    /// indexed field of each — no record is materialized.
    fn backfill(&self, idx: &mut SecondaryIndex) {
        self.primary.for_each_live_ref(|key, record| {
            let indexed = record.field(&idx.field);
            idx.insert(key, indexed.as_ref());
        });
    }

    /// The index-only access path of
    /// [`DatasetPartition::try_for_each_row`]: the keys a B-tree holds under
    /// `filter`'s literal, copied out, when they answer the scan whole. The
    /// index holds exactly the live keys whose field equals the literal
    /// under the filter's comparison ([`AdmValue::total_cmp`]), in key
    /// order, and nothing under `null` or `missing`. `None` leaves the read
    /// to the scan.
    fn index_hits(&self, key_field: &str, fields: &[String], filter: &Pred) -> Option<IndexHits> {
        let Pred::Compare {
            path,
            op: CmpOp::Eq,
            literal,
        } = filter
        else {
            return None;
        };
        let [field] = path.as_slice() else {
            return None;
        };
        if matches!(literal, AdmValue::Null | AdmValue::Missing)
            || fields.iter().any(|f| f != key_field)
        {
            return None;
        }
        let keys = self
            .secondaries
            .iter()
            .filter(|idx| idx.field == *field)
            .find_map(|idx| idx.btree_eq(literal))?;
        let mut hits = IndexHits::default();
        for key in keys {
            encode_into(key, &mut hits.bytes);
            hits.ends.push(hits.bytes.len());
        }
        Some(hits)
    }
}

/// Primary keys copied out of a secondary, encoded back to back: one buffer
/// for any number of keys, each decoded into one reused value as it is lent.
#[derive(Default)]
struct IndexHits {
    bytes: Vec<u8>,
    /// Where each key's encoding ends.
    ends: Vec<usize>,
}

impl IndexHits {
    /// Lend every key, in order, to `visit` with its row: the record of
    /// `fields`, each of which is the primary key. Stops at the visitor's
    /// first error.
    fn try_for_each_row<E>(
        &self,
        fields: &[String],
        mut visit: impl FnMut(&AdmValue, &mut AdmValue) -> Result<(), E>,
    ) -> Result<(), E> {
        let (mut key, mut row) = (AdmValue::Missing, AdmValue::Missing);
        let mut start = 0;
        for &end in &self.ends {
            let encoded = &self.bytes[start..end];
            start = end;
            value_into(encoded, &mut key);
            project_with(fields, &mut row, |_, _, value| value_into(encoded, value));
            visit(&key, &mut row)?;
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

    /// Seal the memtable — whenever `force` is set, otherwise once it
    /// reached its budget — and checkpoint the log: every entry it holds is
    /// in a component now. Called with the state lock held, between
    /// batches, so no append can slip between the seal and the checkpoint.
    fn seal(&self, st: &mut PartitionState, force: bool) {
        if force {
            st.primary.seal();
        } else if !st.primary.seal_if_full() {
            return;
        }
        self.wal.checkpoint();
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

/// The hook a held writer hands over, fired when the hold ends.
pub type Wake = Arc<dyn Fn() + Send + Sync>;

/// A single dataset partition.
pub struct DatasetPartition {
    inner: Arc<PartitionInner>,
    worker: Mutex<Option<JoinHandle<()>>>,
    /// See [`DatasetPartition::hold_writes`].
    writes_held: AtomicBool,
    /// The writers that found the writes held, woken when the hold ends.
    held_writers: Mutex<Vec<Wake>>,
    /// Scans the index-only access path answered.
    index_reads: AtomicU64,
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
            writes_held: AtomicBool::new(false),
            held_writers: Mutex::new(Vec::new()),
            index_reads: AtomicU64::new(0),
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
        Self::add_secondary_to_all(&[self], SecondaryIndex::new(name, field, kind))
    }

    /// Add the empty index `idx` to every partition of `parts`, or to none:
    /// all are locked, and each checks its live records, before any takes it.
    pub(crate) fn add_secondary_to_all(parts: &[&Self], idx: SecondaryIndex) -> IngestResult<()> {
        let mut states: Vec<_> = parts.iter().map(|p| p.inner.state.lock()).collect();
        // every live record must be one the index accepts, as every record
        // logged from now on will be: replay then never meets a refusal
        for st in &states {
            let mut refused = Ok(());
            st.primary.for_each_live_ref(|_, record| {
                if refused.is_ok() {
                    refused = idx.accepts(record.field(&idx.field).as_ref());
                }
            });
            refused?;
        }
        for st in &mut states {
            let mut copy = SecondaryIndex::new(&idx.name, &idx.field, idx.kind);
            st.backfill(&mut copy);
            st.secondaries.push(copy);
        }
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
            // a field a secondary would reject (a non-point under an
            // R-tree) refuses its record here, before the log, so every
            // logged record applies — and replays — without error
            for idx in &st.secondaries {
                accepted.retain(|(i, _, _)| {
                    let indexed = decode_field_at(&payloads[*i], &idx.field).ok().flatten();
                    let verdict = idx.accepts(indexed.as_ref());
                    let soft = |e: IngestError| IngestError::soft(e.to_string());
                    verdict
                        .map_err(|e| outcome.soft.push((*i, soft(e))))
                        .is_ok()
                });
            }
            if !upsert {
                // strict inserts: drop duplicates (stored, or earlier in
                // this batch among the records the secondaries took)
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
            }
            if accepted.is_empty() {
                return Ok(outcome);
            }
            // WAL first, as one block of copied bytes: every record of the
            // batch is durable — and recoverable all-or-nothing — once this
            // returns, until the seal below checkpoints it
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
                st.put(key, &payloads[i]);
                outcome.committed += 1;
            }
            self.inner.seal(&mut st, false);
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
            st.delete(key);
            self.inner.seal(&mut st, false);
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

    /// All live records in key order, as of one instant (see
    /// [`DatasetPartition::try_for_each_row`]).
    pub fn scan_all(&self) -> Vec<(AdmValue, AdmValue)> {
        let mut out = Vec::new();
        self.try_for_each_row(None, None, |key, row| {
            out.push((key.clone(), std::mem::replace(row, AdmValue::Missing)));
            Ok::<_, IngestError>(())
        })
        .expect("an unfiltered scan has no error to return");
        out
    }

    /// Point lookup of a single field by primary key. On a compacted
    /// component this decodes only the requested field's column cell —
    /// the record is never fully materialized.
    pub fn get_field(&self, key: &AdmValue, field: &str) -> Option<AdmValue> {
        self.inner.state.lock().primary.get_field(key, field)
    }

    /// Vectorized projected scan: for each live record (in key order), a
    /// record holding just the requested fields, in the requested order.
    /// Fields absent from a record are skipped (ADM `MISSING` semantics).
    pub fn scan_projected(&self, fields: &[String]) -> Vec<AdmValue> {
        let mut out = Vec::new();
        self.try_for_each_row(Some(fields), None, |_, row| {
            out.push(std::mem::replace(row, AdmValue::Missing));
            Ok::<_, IngestError>(())
        })
        .expect("an unfiltered scan has no error to return");
        out
    }

    /// A read snapshot of the primary index: the one acquisition of the
    /// partition lock a scan makes.
    fn snapshot(&self) -> LsmSnapshot {
        self.inner.state.lock().primary.snapshot()
    }

    /// The one scan path: hand every live record that passes `filter` (all
    /// of them with `None`), in key order, to `visit` with its key —
    /// projected to `fields` (absent fields skipped, per ADM `MISSING`
    /// semantics; on compacted components only those columns are decoded)
    /// or, with `None`, whole. The filter reads the record where it lies —
    /// column cells of a compacted component, payload bytes elsewhere — and
    /// a record it rejects is neither projected nor decoded. Stops at the
    /// filter's or the visitor's first error.
    ///
    /// The row is lent to the visitor: it may take it, but what it leaves
    /// is where the next row is projected, so a scan whose visitor only
    /// reads the row builds it in one buffer.
    ///
    /// The scan reads a snapshot taken under one short acquisition of the
    /// partition lock, so it sees the partition as of one instant — a
    /// group-committed batch all or not at all — and `visit` runs with the
    /// lock released: writers, seals and merges proceed beside a slow
    /// visitor, and a visitor may itself read this partition.
    ///
    /// A B-tree secondary answers instead of the scan when `filter` is one
    /// `=` on a one-field path it indexes, against a literal other than
    /// `null` and `missing`, and `fields` names only the primary key (or
    /// nothing): under that same one acquisition the partition copies the
    /// matching keys out of the index, and lends the rows projected from
    /// them (`{<key field>: key}`, or `{}`), in key order — the scan's rows,
    /// order and errors, with no record read
    /// ([`DatasetPartition::index_reads`] counts these reads).
    pub fn try_for_each_row<E: From<IngestError>>(
        &self,
        fields: Option<&[String]>,
        filter: Option<&Pred>,
        visit: impl FnMut(&AdmValue, &mut AdmValue) -> Result<(), E>,
    ) -> Result<(), E> {
        let st = self.inner.state.lock();
        let key_field = &self.inner.config.primary_key_field;
        let hits = fields
            .zip(filter)
            .and_then(|(fields, filter)| Some((fields, st.index_hits(key_field, fields, filter)?)));
        match hits {
            Some((fields, hits)) => {
                drop(st);
                self.index_reads.fetch_add(1, Ordering::SeqCst);
                hits.try_for_each_row(fields, visit)
            }
            None => {
                let snapshot = st.primary.snapshot();
                drop(st);
                snapshot.try_for_each_row(fields, filter, visit)
            }
        }
    }

    /// Scans a B-tree secondary answered without reading a record (see
    /// [`DatasetPartition::try_for_each_row`]).
    pub fn index_reads(&self) -> u64 {
        self.index_reads.load(Ordering::SeqCst)
    }

    /// Live record count, walked over a read snapshot: the partition lock is
    /// held only to take it.
    pub fn len(&self) -> usize {
        self.snapshot().live_count()
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

    /// Log-based restart recovery (§6.2.3), as a failed store node runs it
    /// when re-joining the cluster: what a crash leaves is the sealed
    /// components and the log's unsealed tail. The memtable and the
    /// secondaries are volatile — the memtable is dropped, each secondary
    /// is rebuilt from the components — and the tail is replayed over them.
    /// Batched appends replay exactly like single appends; a torn trailing
    /// block (crash mid-append) is dropped whole, and cut off the log so
    /// later appends follow the last complete block.
    pub fn recover(&self) -> IngestResult<()> {
        // the log is read under the state lock every append takes, so it
        // is exactly the tail of the components it is replayed over
        let mut st = self.inner.state.lock();
        let records = self.inner.wal.replay()?;
        self.inner.wal.discard_torn_tail();
        st.primary.drop_memtable();
        let secondaries = std::mem::take(&mut st.secondaries);
        for old in secondaries {
            let mut idx = SecondaryIndex::new(old.name, old.field, old.kind);
            st.backfill(&mut idx);
            st.secondaries.push(idx);
        }
        for rec in records {
            match rec.op {
                // replay checked the payload: the write path's trust holds
                LogOp::Put { key, value } => st.put(key, &value),
                LogOp::Delete { key } => st.delete(&key),
            }
        }
        Ok(())
    }

    /// Seal the memtable, checkpointing the log, and synchronously merge
    /// all sealed components down to one, on the calling thread (tests,
    /// checkpoints). Runs the same snapshot/merge/install cycle as the
    /// background worker — concurrent inserts proceed while the merge
    /// itself runs.
    pub fn force_merge(&self) {
        self.inner.seal(&mut self.inner.state.lock(), true);
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

    /// WAL record count: the entries of the unsealed tail.
    pub fn wal_len(&self) -> usize {
        self.inner.wal.len()
    }

    /// Multi-entry (group-commit) WAL appends so far.
    pub fn wal_group_commits(&self) -> u64 {
        self.inner.wal.group_commits()
    }

    /// Seals that checkpointed (dropped) a non-empty WAL so far.
    pub fn wal_checkpoints(&self) -> u64 {
        self.inner.wal.checkpoints()
    }

    /// WAL bytes of the unsealed tail (headers included).
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

    /// Stall injection for congestion tests: while held, a feed's store
    /// stage takes no frames for this partition (its task yields as if
    /// saturated), as behind a disk that stopped. Direct writes still apply.
    /// The release wakes every store the hold stopped.
    pub fn hold_writes(&self, held: bool) {
        self.writes_held.store(held, Ordering::SeqCst);
        if !held {
            let held_writers = std::mem::take(&mut *self.held_writers.lock());
            for wake in held_writers {
                wake();
            }
        }
    }

    /// Are a feed's writes held ([`DatasetPartition::hold_writes`])? If so,
    /// `wake` fires when the hold ends. It is kept before the flag is read
    /// the second, deciding time, so a release in between still wakes.
    pub fn writes_held(&self, wake: &Wake) -> bool {
        if !self.writes_held.load(Ordering::SeqCst) {
            return false;
        }
        self.held_writers.lock().push(Arc::clone(wake));
        self.writes_held.load(Ordering::SeqCst)
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

    /// The rows a scan projected to `fields` and filtered by `filter`
    /// lends, each with its key, until the visitor fails at row `fail_at`.
    fn rows(
        p: &DatasetPartition,
        fields: Option<&[&str]>,
        filter: &Pred,
        fail_at: usize,
    ) -> (Vec<(AdmValue, AdmValue)>, Result<(), IngestError>) {
        let fields: Option<Vec<String>> = fields.map(|f| f.iter().map(|f| f.to_string()).collect());
        let mut out = Vec::new();
        let end = p.try_for_each_row(fields.as_deref(), Some(filter), |key, row| {
            if out.len() == fail_at {
                return Err(IngestError::soft(format!("visitor failed at {key}")));
            }
            out.push((key.clone(), row.clone()));
            Ok(())
        });
        (out, end)
    }

    /// The keys whose `field` equals `value`, read as the AQL reader query
    /// reads them: `=` pushed into a scan projected to the key — what a
    /// B-tree on `field` answers.
    fn keys_eq(p: &DatasetPartition, field: &str, value: impl Into<AdmValue>) -> Vec<AdmValue> {
        let (rows, end) = rows(p, Some(&["id"]), &Pred::eq(field, value), usize::MAX);
        end.unwrap();
        rows.into_iter().map(|(key, _)| key).collect()
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
        assert!(keys_eq(&p, "message_text", "first").is_empty());
        assert_eq!(keys_eq(&p, "message_text", "second"), vec!["x".into()]);
        assert_eq!(p.index_reads(), 2, "the secondary answered both");
    }

    #[test]
    fn a_btree_answers_exactly_the_scans_it_can_answer_as_the_scan_does() {
        let text = |id: &str, text: AdmValue| {
            Arc::new(AdmValue::record(vec![
                ("id", id.into()),
                ("message_text", text),
                ("location", AdmValue::Point(1.0, 2.0)),
                ("n", AdmValue::Int(3)),
            ]))
        };
        let batch = [
            text("e", "x".into()),
            text("a", "x".into()),
            text("c", AdmValue::Double(3.0)),
            text("b", AdmValue::Int(3)),
            text("d", AdmValue::Null),
            Arc::new(AdmValue::record(vec![("id", "f".into())])),
            text("g", AdmValue::Double(f64::NAN)),
        ];
        let (indexed, plain) = (budget(3), budget(3));
        for p in [&indexed, &plain] {
            p.upsert_batch(&batch).unwrap();
            p.upsert(&text("a", "moved".into())).unwrap();
            p.delete(&"e".into()).unwrap();
        }
        indexed
            .add_secondary("byText", "message_text", IndexKind::BTree)
            .unwrap();
        indexed
            .add_secondary("locIdx", "location", IndexKind::RTree)
            .unwrap();
        let eq = |path: &str, v: AdmValue| Pred::eq(path, v);
        let key: &[&str] = &["id"];
        let answered = [
            (Some(key), eq("message_text", "x".into())),
            (Some(key), eq("message_text", "moved".into())),
            (Some(key), eq("message_text", AdmValue::Int(3))),
            (Some(key), eq("message_text", AdmValue::Double(3.0))),
            (Some(key), eq("message_text", AdmValue::Double(f64::NAN))),
            (Some(&[]), eq("message_text", AdmValue::Int(3))),
            (Some(&["id", "id"]), eq("message_text", AdmValue::Int(3))),
        ];
        let scanned = [
            (Some(&["message_text"][..]), eq("message_text", "x".into())),
            (None, eq("message_text", "x".into())),
            (Some(key), eq("message_text", AdmValue::Null)),
            (Some(key), eq("message_text", AdmValue::Missing)),
            (Some(key), Pred::all(vec![eq("message_text", "x".into())])),
            (Some(key), Pred::compare("message_text", CmpOp::Ge, "x")),
            (Some(key), eq("message_text.x", "x".into())),
            (Some(key), eq("location", AdmValue::Point(1.0, 2.0))),
            (Some(key), eq("n", AdmValue::Int(3))),
        ];
        for (shapes, by_index) in [(&answered[..], true), (&scanned[..], false)] {
            for (fields, filter) in shapes {
                for fail_at in [usize::MAX, 1] {
                    let before = indexed.index_reads();
                    let got = rows(&indexed, *fields, filter, fail_at);
                    let want = rows(&plain, *fields, filter, fail_at);
                    let what = format!("{fields:?} {filter:?} failing at {fail_at}");
                    assert_eq!(got.0, want.0, "{what}");
                    let err = |r: &Result<(), IngestError>| r.as_ref().err().map(|e| e.to_string());
                    assert_eq!(err(&got.1), err(&want.1), "{what}");
                    assert_eq!(
                        indexed.index_reads() - before,
                        u64::from(by_index),
                        "{what}"
                    );
                }
            }
        }
        assert_eq!(plain.index_reads(), 0);
        // the rows an index read lends: `{id: key}`, in key order
        let (rows, _) = rows(
            &indexed,
            Some(key),
            &eq("message_text", AdmValue::Int(3)),
            9,
        );
        let ids = ["b", "c"].map(|id| (id.into(), AdmValue::record(vec![("id", id.into())])));
        assert_eq!(rows, ids);
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
    fn index_that_rejects_its_field_leaves_the_stored_version() {
        let p = part();
        p.add_secondary("locIdx", "location", IndexKind::RTree)
            .unwrap();
        p.insert(&rec("a", "x")).unwrap();
        let bad = AdmValue::record(vec![("id", "a".into()), ("location", "nowhere".into())]);
        assert!(p.upsert(&bad).unwrap_err().is_soft());
        // refused before the log: neither the log nor the primary saw it
        assert_eq!(p.get(&"a".into()), Some(rec("a", "x")));
        assert_eq!(p.wal_len(), 1);
        assert_eq!(
            p.query_rect("locIdx", 0.0, 0.0, 5.0, 5.0).unwrap(),
            vec![rec("a", "x")]
        );
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

    fn budget(memtable_budget: usize) -> DatasetPartition {
        let mut cfg = PartitionConfig::keyed_on("id");
        cfg.lsm.memtable_budget = memtable_budget;
        cfg.lsm.max_components = 100; // high threshold: worker stays idle
        DatasetPartition::new(cfg)
    }

    fn batch(range: std::ops::Range<usize>) -> Vec<Arc<AdmValue>> {
        range.map(|i| arc_rec(&format!("t{i:02}"), "v")).collect()
    }

    #[test]
    fn a_seal_never_splits_a_batch_and_checkpoints_the_log() {
        let p = budget(4);
        // ten records past a budget of four: one seal, after the batch
        p.upsert_batch(&batch(0..10)).unwrap();
        assert_eq!(p.component_count(), 1);
        assert_eq!(p.sealed_records(), 10);
        assert_eq!((p.wal_len(), p.wal_size_bytes()), (0, 0));
        assert_eq!(p.wal_checkpoints(), 1);
        // under the budget: the batch is the unsealed tail
        p.upsert_batch(&batch(10..12)).unwrap();
        assert_eq!(p.component_count(), 1);
        assert_eq!(p.wal_len(), 2);
        // a delete that fills the memtable seals too
        p.upsert(&rec("t12", "v")).unwrap();
        p.delete(&"t00".into()).unwrap();
        assert_eq!((p.component_count(), p.wal_len()), (2, 0));
        assert_eq!(p.wal_checkpoints(), 2);
        p.recover().unwrap();
        assert_eq!(p.len(), 12);
        assert!(p.get(&"t00".into()).is_none());
    }

    #[test]
    fn a_tear_after_force_merge_loses_nothing() {
        let p = budget(3);
        for chunk in batch(0..20).chunks(2) {
            p.upsert_batch(chunk).unwrap();
        }
        p.delete(&"t05".into()).unwrap();
        let before = p.scan_all();
        p.force_merge();
        assert_eq!(p.component_count(), 1);
        assert_eq!(p.wal_size_bytes(), 0);
        p.corrupt_wal_tail(1);
        p.recover().unwrap();
        assert_eq!(p.scan_all(), before);
        assert_eq!(p.len(), 19);
    }

    #[test]
    fn a_tear_of_an_unsealed_batch_loses_exactly_that_batch() {
        let p = budget(5);
        p.upsert_batch(&batch(0..6)).unwrap(); // sealed
        p.upsert_batch(&batch(6..8)).unwrap(); // tail
        let kept = p.scan_all();
        p.upsert_batch(&batch(8..10)).unwrap(); // tail, torn
        assert_eq!(p.wal_len(), 4, "the log holds only the unsealed tail");
        p.corrupt_wal_tail(1);
        p.recover().unwrap();
        assert_eq!(p.scan_all(), kept);
        assert_eq!(p.component_count(), 1, "recovery keeps the components");
        // recovery cut the torn block off: a later batch, and a second
        // crash before the next seal, recover too
        p.upsert_batch(&batch(10..11)).unwrap();
        let kept = p.scan_all();
        p.recover().unwrap();
        assert_eq!(p.scan_all(), kept);
        assert_eq!(p.wal_len(), 3);
    }

    #[test]
    fn secondaries_rebuilt_across_a_seal_answer_as_before_the_crash() {
        let p = budget(4);
        p.add_secondary("byText", "message_text", IndexKind::BTree)
            .unwrap();
        p.add_secondary("locIdx", "location", IndexKind::RTree)
            .unwrap();
        let at = |id: &str, text: &str, x: f64| {
            Arc::new(AdmValue::record(vec![
                ("id", id.into()),
                ("message_text", text.into()),
                ("location", AdmValue::Point(x, x)),
            ]))
        };
        // sealed: a..e; then the tail moves c, replaces d's text and drops e
        p.upsert_batch(&["a", "b", "c", "d", "e"].map(|id| at(id, "old", 1.0)))
            .unwrap();
        assert_eq!(p.component_count(), 1);
        p.upsert_batch(&[at("c", "old", 9.0), at("d", "new", 1.0)])
            .unwrap();
        p.delete(&"e".into()).unwrap();
        assert!(p.wal_len() > 0 && p.component_count() == 1);
        let answers = |p: &DatasetPartition| {
            let ids = |mut rows: Vec<AdmValue>| {
                rows.sort_by_key(|r| r.field("id").and_then(AdmValue::as_str).map(String::from));
                rows.iter()
                    .map(|r| r.field("id").cloned())
                    .collect::<Vec<_>>()
            };
            (
                keys_eq(p, "message_text", "old"),
                keys_eq(p, "message_text", "new"),
                ids(p.query_rect("locIdx", 0.0, 0.0, 2.0, 2.0).unwrap()),
                ids(p.query_rect("locIdx", 8.0, 8.0, 10.0, 10.0).unwrap()),
            )
        };
        let before = answers(&p);
        assert_eq!((before.0.len(), before.1.len()), (3, 1));
        assert_eq!((before.2.len(), before.3.len()), (3, 1));
        p.recover().unwrap();
        assert_eq!(answers(&p), before);
        assert_eq!(p.index_reads(), 4, "the B-tree answered, rebuilt too");
    }

    #[test]
    fn a_record_a_secondary_rejects_is_refused_before_the_log() {
        let p = part();
        p.add_secondary("locIdx", "loc", IndexKind::RTree).unwrap();
        let at = |id: &str, loc: AdmValue| {
            Arc::new(AdmValue::record(vec![("id", id.into()), ("loc", loc)]))
        };
        let out = p
            .upsert_batch(&[
                at("a", AdmValue::Point(1.0, 1.0)),
                at("b", "nowhere".into()),
                at("c", AdmValue::Point(2.0, 2.0)),
            ])
            .unwrap();
        assert_eq!(out.soft.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [1]);
        assert!(out.soft[0].1.is_soft());
        assert_eq!(out.committed, 2);
        // the log holds exactly what the memtable holds
        assert_eq!((p.wal_len(), p.len()), (2, 2));
        p.recover().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.query_rect("locIdx", 0.0, 0.0, 3.0, 3.0).unwrap().len(), 2);
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
        let mut texts = Vec::new();
        p.snapshot()
            .try_for_each_live_ref(None, |key, r| {
                texts.push((key.clone(), r.field("message_text")));
                Ok::<_, IngestError>(())
            })
            .unwrap();
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
