//! Write-ahead logging, group commit, and restart recovery.
//!
//! "The insert of a record into the primary and any secondary indexes uses
//! write-ahead logging and offers record-level ACID semantics" (§5.3.1). A
//! record is considered *persisted* — and eligible for an at-least-once ack
//! (§5.6: "subsequent to persisting a record (log record has been written to
//! the local disk)") — once its log record is appended.
//!
//! The log lives in memory (the simulation's "local disk") as a sequence of
//! *blocks*, each block being one physical append: a single-record append
//! produces a one-entry block, while the store operator's frame-granular
//! path group-commits a whole frame as one multi-entry block
//! ([`WriteAheadLog::append_put_batch_bytes`]) — one buffer, one lock
//! acquisition, one contiguous LSN range.
//!
//! The log does not own a codec. A put is logged from the bytes the store
//! already holds — an entry header, the key (the primary-key field's slice
//! of the record) and a `memcpy` of the record's binary ADM payload — and
//! replay hands the payload bytes straight back, after the same checked walk
//! ([`asterix_adm::binary::validate`]) every payload passes on its way in, so
//! recovery trusts exactly what the write path trusted. Only the
//! value-taking adapters ([`WriteAheadLog::append_put`],
//! [`WriteAheadLog::append_put_batch`], [`WriteAheadLog::append_delete`])
//! encode, once, before calling the one bytes path.
//!
//! The log holds only what no sealed component holds yet. A sealed
//! component is the durable state, so the partition checkpoints the log
//! ([`WriteAheadLog::checkpoint`]) right after every seal, under the lock
//! every append takes: every block is dropped (nothing is copied) and the
//! LSN sequence carries on. Between two seals the log is the *unsealed
//! tail* — the batches the memtable holds — and that is all
//! [`WriteAheadLog::size_bytes`] and [`WriteAheadLog::len`] count.
//!
//! A crashed node's partition is rebuilt from its sealed components plus a
//! replay of that tail ([`WriteAheadLog::replay`]), which is how a store
//! node re-joins the cluster "after log-based recovery" (§6.2.3). Replay is
//! torn-tail tolerant: a block whose trailing bytes never made it to "disk"
//! (crash mid-append, injectable with [`WriteAheadLog::corrupt_tail`]) is
//! discarded *whole*, so a group-committed frame is recovered
//! all-or-nothing and every fully-appended block survives exactly; recovery
//! then cuts it off ([`WriteAheadLog::discard_torn_tail`]). A seal never
//! splits a block, so a tear can only reach batches no component holds.
//!
//! Physical layout, per block:
//! `[body_len: u32 LE][entry_count: u32 LE][entry]*`, where each entry is
//! `[entry_len: u32 LE][lsn: u64 LE][op: u8 (1 = put, 2 = delete)][key:
//! binary ADM][value: binary ADM, put only]`.

use asterix_adm::binary::{decode_prefix, encode_into, validate};
use asterix_adm::AdmValue;
use asterix_common::sync::Mutex;
use asterix_common::{FaultKind, FaultPlan, IngestError, IngestResult};
use bytes::Bytes;

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;
const BLOCK_HEADER: usize = 8;
const ENTRY_HEADER: usize = 4;

/// The logged operation.
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    /// Insert/replace the record `value` under `key`.
    Put {
        /// Primary key.
        key: AdmValue,
        /// Full record: its binary ADM payload, checked.
        value: Bytes,
    },
    /// Delete `key`.
    Delete {
        /// Primary key.
        key: AdmValue,
    },
}

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Log sequence number (monotonic per log).
    pub lsn: u64,
    /// The operation.
    pub op: LogOp,
}

/// Append one entry (`[entry_len][lsn][op][key][value]`) to `buf`; `value`
/// is empty for a delete.
fn entry_into(buf: &mut Vec<u8>, lsn: u64, op: u8, key: &[u8], value: &[u8]) {
    let body_len = (8 + 1 + key.len() + value.len()) as u32;
    buf.extend_from_slice(&body_len.to_le_bytes());
    buf.extend_from_slice(&lsn.to_le_bytes());
    buf.push(op);
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
}

impl LogRecord {
    fn decode(entry: &[u8]) -> IngestResult<LogRecord> {
        if entry.len() < 9 {
            return Err(IngestError::Storage("log record truncated".into()));
        }
        let lsn = u64::from_le_bytes(entry[..8].try_into().unwrap());
        let (key, rest) = decode_prefix(&entry[9..])
            .map_err(|e| IngestError::Storage(format!("log record key: {e}")))?;
        let op = match entry[8] {
            OP_PUT => {
                validate(rest)
                    .map_err(|e| IngestError::Storage(format!("log record value: {e}")))?;
                LogOp::Put {
                    key,
                    value: Bytes::copy_from_slice(rest),
                }
            }
            OP_DELETE if rest.is_empty() => LogOp::Delete { key },
            OP_DELETE => return Err(IngestError::Storage("log record has trailing bytes".into())),
            other => return Err(IngestError::Storage(format!("unknown log op byte {other}"))),
        };
        Ok(LogRecord { lsn, op })
    }
}

/// One physical append: header + one or more entries in a single buffer.
#[derive(Debug)]
struct LogBlock {
    buf: Vec<u8>,
}

impl LogBlock {
    /// Start a block buffer with room for `body` bytes of entries; the
    /// header is backpatched by `finish`.
    fn begin(body: usize) -> Vec<u8> {
        let mut buf = Vec::with_capacity(BLOCK_HEADER + body);
        buf.resize(BLOCK_HEADER, 0);
        buf
    }

    /// Backpatch the header once `entries` entries were encoded into `buf`.
    fn finish(mut buf: Vec<u8>, entries: u32) -> LogBlock {
        let body_len = (buf.len() - BLOCK_HEADER) as u32;
        buf[0..4].copy_from_slice(&body_len.to_le_bytes());
        buf[4..8].copy_from_slice(&entries.to_le_bytes());
        LogBlock { buf }
    }

    /// Whether the block's bytes are complete (header present and the whole
    /// declared body on "disk"). A torn block is one cut short by a crash
    /// mid-append.
    fn is_complete(&self) -> bool {
        if self.buf.len() < BLOCK_HEADER {
            return false;
        }
        let body_len = u32::from_le_bytes(self.buf[0..4].try_into().unwrap()) as usize;
        self.buf.len() >= BLOCK_HEADER + body_len
    }

    fn entry_count(&self) -> usize {
        if self.buf.len() < BLOCK_HEADER {
            return 0;
        }
        u32::from_le_bytes(self.buf[4..8].try_into().unwrap()) as usize
    }

    /// Visit each entry body (`[lsn][op][payload]`) in the block.
    fn for_each_entry(&self, mut f: impl FnMut(&[u8]) -> IngestResult<()>) -> IngestResult<()> {
        let mut rest = &self.buf[BLOCK_HEADER..];
        for _ in 0..self.entry_count() {
            if rest.len() < ENTRY_HEADER {
                return Err(IngestError::Storage(
                    "log block entry header cut short".into(),
                ));
            }
            let len = u32::from_le_bytes(rest[..ENTRY_HEADER].try_into().unwrap()) as usize;
            rest = &rest[ENTRY_HEADER..];
            if rest.len() < len {
                return Err(IngestError::Storage(
                    "log block entry body cut short".into(),
                ));
            }
            f(&rest[..len])?;
            rest = &rest[len..];
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct LogState {
    blocks: Vec<LogBlock>,
    entry_count: usize,
    next_lsn: u64,
    group_commits: u64,
    checkpoints: u64,
}

/// A group-commit-capable write-ahead log, truncated whole at each
/// checkpoint.
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    state: Mutex<LogState>,
}

impl WriteAheadLog {
    /// Fresh empty log.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Log a put from values: encodes key and record once, then takes the
    /// bytes path. Returns the entry's LSN; the record is durable once this
    /// returns.
    pub fn append_put(&self, key: &AdmValue, value: &AdmValue) -> u64 {
        let mut encoded = Vec::with_capacity(512);
        encode_into(key, &mut encoded);
        let key_end = encoded.len();
        encode_into(value, &mut encoded);
        self.append_put_bytes(&encoded[..key_end], &encoded[key_end..])
    }

    /// Log one put — `(key, record)` in binary ADM, copied verbatim — as a
    /// block of its own (not a group commit). Returns the entry's LSN.
    pub fn append_put_bytes(&self, key: &[u8], payload: &[u8]) -> u64 {
        let (first, _) = self
            .append_block(OP_PUT, [(key, payload)].into_iter(), false)
            .expect("one put is a non-empty block");
        first
    }

    /// Log a delete; returns its LSN.
    pub fn append_delete(&self, key: &AdmValue) -> u64 {
        let mut key_bytes = Vec::with_capacity(16);
        encode_into(key, &mut key_bytes);
        let (first, _) = self
            .append_block(OP_DELETE, [(&key_bytes[..], &[][..])].into_iter(), false)
            .expect("one delete is a non-empty block");
        first
    }

    /// [`WriteAheadLog::append_put_batch_bytes`] for callers holding values:
    /// every key and record is encoded once, then the batch takes the bytes
    /// path.
    pub fn append_put_batch<'a, I>(&self, puts: I) -> Option<(u64, u64)>
    where
        I: IntoIterator<Item = (&'a AdmValue, &'a AdmValue)>,
    {
        let mut encoded = Vec::new();
        // (end of key, end of value) of each put within `encoded`
        let mut ends = Vec::new();
        for (key, value) in puts {
            encode_into(key, &mut encoded);
            let key_end = encoded.len();
            encode_into(value, &mut encoded);
            ends.push((key_end, encoded.len()));
        }
        let mut start = 0;
        let puts: Vec<(&[u8], &[u8])> = ends
            .into_iter()
            .map(|(key_end, end)| {
                let key_start = std::mem::replace(&mut start, end);
                (&encoded[key_start..key_end], &encoded[key_end..end])
            })
            .collect();
        self.append_put_batch_bytes(puts)
    }

    /// Group-commit a frame's worth of puts as one multi-entry block: a
    /// single lock acquisition, a single buffer, and one contiguous LSN
    /// range `(first, last)`. Each put is `(key, record)` in binary ADM —
    /// the key being the record's primary-key field — and both are copied
    /// into the block verbatim. Returns `None` for an empty batch (nothing
    /// is appended).
    ///
    /// Atomicity is block-granular: replay after a crash recovers either the
    /// whole batch or none of it (see [`WriteAheadLog::replay`]).
    pub fn append_put_batch_bytes<'a, I>(&self, puts: I) -> Option<(u64, u64)>
    where
        I: IntoIterator<Item = (&'a [u8], &'a [u8])>,
        I::IntoIter: Clone,
    {
        self.append_block(OP_PUT, puts.into_iter(), true)
    }

    /// One physical append of `entries` (`(key, value)`, the value empty
    /// for deletes) under `op`. The block's buffer is sized exactly once —
    /// it is the log's resident copy of the batch. `group` says whether the
    /// caller is a batch entry point: those count as group commits whatever
    /// the batch's size.
    fn append_block<'a>(
        &self,
        op: u8,
        entries: impl Iterator<Item = (&'a [u8], &'a [u8])> + Clone,
        group: bool,
    ) -> Option<(u64, u64)> {
        let size = |(key, value): (&[u8], &[u8])| ENTRY_HEADER + 9 + key.len() + value.len();
        let body: usize = entries.clone().map(size).sum();
        if body == 0 {
            return None;
        }
        let mut buf = LogBlock::begin(body);
        let mut st = self.state.lock();
        let first = st.next_lsn;
        let mut n = 0u32;
        for (key, value) in entries {
            entry_into(&mut buf, first + n as u64, op, key, value);
            n += 1;
        }
        st.next_lsn = first + n as u64;
        st.blocks.push(LogBlock::finish(buf, n));
        st.entry_count += n as usize;
        st.group_commits += u64::from(group);
        Some((first, first + n as u64 - 1))
    }

    /// Number of log records (entries, across all blocks) since the last
    /// checkpoint.
    pub fn len(&self) -> usize {
        self.state.lock().entry_count
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime count of batch (group-commit) appends.
    pub fn group_commits(&self) -> u64 {
        self.state.lock().group_commits
    }

    /// Read the log back in LSN order (restart recovery input): keys
    /// decoded, record payloads checked and returned as bytes.
    ///
    /// A torn *final* block — a crash cut the append short — is skipped
    /// whole, so a group-committed batch recovers all-or-nothing. A torn or
    /// malformed block anywhere else is real corruption and errors.
    pub fn replay(&self) -> IngestResult<Vec<LogRecord>> {
        let st = self.state.lock();
        let mut out = Vec::with_capacity(st.entry_count);
        for (i, block) in st.blocks.iter().enumerate() {
            if !block.is_complete() {
                if i + 1 == st.blocks.len() {
                    break; // torn tail: the in-flight append never committed
                }
                return Err(IngestError::Storage(
                    "torn log block before end of log".into(),
                ));
            }
            block.for_each_entry(|entry| {
                out.push(LogRecord::decode(entry)?);
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// Cut a torn final block off the log, as restart recovery does once it
    /// has replayed what precedes it: the next append then follows the
    /// last complete block, and a later replay reads past it.
    pub fn discard_torn_tail(&self) {
        let mut st = self.state.lock();
        if st.blocks.last().is_some_and(|b| !b.is_complete()) {
            st.blocks.pop();
        }
    }

    /// Checkpoint: every entry logged so far is held by a sealed component,
    /// so drop every block — nothing is copied. LSNs carry on from where
    /// they were. A checkpoint of an empty log is not counted.
    pub fn checkpoint(&self) {
        let mut st = self.state.lock();
        if st.blocks.is_empty() {
            return;
        }
        st.blocks = Vec::new();
        st.entry_count = 0;
        st.checkpoints += 1;
    }

    /// Lifetime count of checkpoints that dropped at least one block.
    pub fn checkpoints(&self) -> u64 {
        self.state.lock().checkpoints
    }

    /// Total bytes in the log since the last checkpoint, headers included —
    /// the length of the simulated on-disk file.
    pub fn size_bytes(&self) -> usize {
        self.state.lock().blocks.iter().map(|b| b.buf.len()).sum()
    }

    /// Crash injection: tear `bytes` off the end of the simulated log file,
    /// as an interrupted append would. Tearing into a block leaves it
    /// incomplete, so [`WriteAheadLog::replay`] discards that block whole;
    /// tearing past a block boundary removes trailing blocks entirely.
    pub fn corrupt_tail(&self, mut bytes: usize) {
        let mut st = self.state.lock();
        while bytes > 0 {
            let Some(last) = st.blocks.last_mut() else {
                break;
            };
            let cut = bytes.min(last.buf.len());
            last.buf.truncate(last.buf.len() - cut);
            bytes -= cut;
            if last.buf.is_empty() {
                st.blocks.pop();
            }
        }
        st.entry_count = st
            .blocks
            .iter()
            .filter(|b| b.is_complete())
            .map(|b| b.entry_count())
            .sum();
    }

    /// Apply every due [`FaultKind::TearWalTail`] event of `plan` to this
    /// log (the chaos rig's crash-mid-append injection). Returns how many
    /// tears were applied; each claimed event fires on exactly one log.
    pub fn apply_fault_plan(&self, plan: &FaultPlan) -> usize {
        let mut applied = 0;
        for ev in plan.take_due(FaultKind::is_wal_event) {
            if let FaultKind::TearWalTail { bytes } = ev.kind {
                self.corrupt_tail(bytes);
                applied += 1;
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::{decode_value, encode_value};
    use proptest::prelude::*;

    fn recval(i: i64) -> AdmValue {
        AdmValue::record(vec![("id", AdmValue::Int(i)), ("x", "data".into())])
    }

    fn put(wal: &WriteAheadLog, i: i64) -> u64 {
        wal.append_put(&AdmValue::Int(i), &recval(i))
    }

    #[test]
    fn append_assigns_monotonic_lsns() {
        let wal = WriteAheadLog::new();
        assert_eq!(put(&wal, 1), 0);
        assert_eq!(put(&wal, 2), 1);
        assert_eq!(wal.append_delete(&AdmValue::Int(1)), 2);
        assert_eq!(wal.len(), 3);
    }

    #[test]
    fn replay_roundtrips_operations() {
        let wal = WriteAheadLog::new();
        put(&wal, 1);
        wal.append_delete(&AdmValue::Int(1));
        let recs = wal.replay().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].lsn, 0);
        assert!(matches!(&recs[0].op, LogOp::Put { key, .. } if *key == AdmValue::Int(1)));
        assert!(matches!(&recs[1].op, LogOp::Delete { key } if *key == AdmValue::Int(1)));
    }

    #[test]
    fn value_adapters_log_what_the_bytes_path_logs() {
        let (a, b) = (WriteAheadLog::new(), WriteAheadLog::new());
        let pairs: Vec<(AdmValue, AdmValue)> =
            (0..5).map(|i| (AdmValue::Int(i), recval(i))).collect();
        a.append_put_batch(pairs.iter().map(|(k, v)| (k, v)));
        let encoded: Vec<(Vec<u8>, Vec<u8>)> = pairs
            .iter()
            .map(|(k, v)| (encode_value(k), encode_value(v)))
            .collect();
        b.append_put_batch_bytes(encoded.iter().map(|(k, v)| (&k[..], &v[..])));
        assert_eq!(a.replay().unwrap(), b.replay().unwrap());
        assert_eq!(a.size_bytes(), b.size_bytes(), "same bytes on disk");
        // the payload is stored verbatim: header + key + memcpy(record)
        let (key, value) = &encoded[0];
        let entry = ENTRY_HEADER + 8 + 1 + key.len() + value.len();
        assert!(b.state.lock().blocks[0].buf[BLOCK_HEADER..][..entry].ends_with(value));
    }

    #[test]
    fn batch_append_matches_single_appends_and_spans_one_lsn_range() {
        let singles = WriteAheadLog::new();
        let batched = WriteAheadLog::new();
        let pairs: Vec<(AdmValue, AdmValue)> =
            (0..5).map(|i| (AdmValue::Int(i), recval(i))).collect();
        for (k, v) in &pairs {
            singles.append_put(k, v);
        }
        let range = batched
            .append_put_batch(pairs.iter().map(|(k, v)| (k, v)))
            .unwrap();
        assert_eq!(range, (0, 4));
        assert_eq!(singles.replay().unwrap(), batched.replay().unwrap());
        assert_eq!(batched.group_commits(), 1);
        assert_eq!(singles.group_commits(), 0);
        // next append continues the LSN sequence
        assert_eq!(put(&batched, 9), 5);
    }

    #[test]
    fn empty_batch_is_noop() {
        let wal = WriteAheadLog::new();
        assert_eq!(wal.append_put_batch(std::iter::empty()), None);
        assert!(wal.is_empty());
        assert_eq!(wal.size_bytes(), 0);
        assert_eq!(wal.group_commits(), 0);
    }

    #[test]
    fn replay_preserves_nested_values() {
        let wal = WriteAheadLog::new();
        let value = AdmValue::record(vec![
            ("id", "t-1".into()),
            ("loc", AdmValue::Point(1.5, -2.5)),
            (
                "tags",
                AdmValue::OrderedList(vec!["#a".into(), "#b".into()]),
            ),
        ]);
        wal.append_put(&"t-1".into(), &value);
        let recs = wal.replay().unwrap();
        match &recs[0].op {
            LogOp::Put { value: v, .. } => assert_eq!(decode_value(v).unwrap(), value),
            _ => panic!("expected put"),
        }
    }

    #[test]
    fn checkpoint_drops_every_block_and_keeps_lsns_monotonic() {
        let wal = WriteAheadLog::new();
        for i in 0..3 {
            put(&wal, i);
        }
        wal.append_put_batch([
            (&AdmValue::Int(3), &recval(3)),
            (&AdmValue::Int(4), &recval(4)),
        ])
        .unwrap();
        wal.checkpoint();
        assert!(wal.is_empty());
        assert_eq!(wal.size_bytes(), 0);
        assert!(wal.replay().unwrap().is_empty());
        assert_eq!(wal.checkpoints(), 1);
        // an empty log has nothing to checkpoint
        wal.checkpoint();
        assert_eq!(wal.checkpoints(), 1);
        // the next append continues the LSN sequence
        assert_eq!(put(&wal, 5), 5);
        let lsns: Vec<u64> = wal.replay().unwrap().iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![5]);
        assert_eq!(wal.group_commits(), 1, "lifetime counts survive");
    }

    #[test]
    fn size_bytes_grows() {
        let wal = WriteAheadLog::new();
        assert_eq!(wal.size_bytes(), 0);
        put(&wal, 1);
        assert!(wal.size_bytes() > 0);
        assert!(!wal.is_empty());
    }

    #[test]
    fn torn_tail_discards_only_the_final_block() {
        let wal = WriteAheadLog::new();
        put(&wal, 1);
        let committed = wal.size_bytes();
        wal.append_put_batch([
            (&AdmValue::Int(2), &recval(2)),
            (&AdmValue::Int(3), &recval(3)),
        ])
        .unwrap();
        let torn = wal.size_bytes() - committed;
        // tear one byte: the whole trailing batch must vanish, atomically
        wal.corrupt_tail(1);
        let recs = wal.replay().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].lsn, 0);
        assert_eq!(wal.len(), 1);
        // tearing the rest of the batch block leaves the first block intact
        wal.corrupt_tail(torn - 1);
        assert_eq!(wal.replay().unwrap().len(), 1);
    }

    #[test]
    fn fault_plan_tears_apply_once_and_recover_all_or_nothing() {
        use asterix_common::fault::FaultEvent;
        let wal = WriteAheadLog::new();
        put(&wal, 1);
        wal.append_put_batch([
            (&AdmValue::Int(2), &recval(2)),
            (&AdmValue::Int(3), &recval(3)),
        ])
        .unwrap();
        let plan = FaultPlan::from_events(
            0,
            vec![FaultEvent {
                at_record: 10,
                kind: FaultKind::TearWalTail { bytes: 1 },
            }],
        );
        assert_eq!(wal.apply_fault_plan(&plan), 0, "not due yet");
        plan.tick_records(10);
        assert_eq!(wal.apply_fault_plan(&plan), 1);
        // the trailing group-committed batch vanishes whole
        let recs = wal.replay().unwrap();
        assert_eq!(recs.len(), 1);
        // a claimed event never fires twice
        assert_eq!(wal.apply_fault_plan(&plan), 0);
    }

    #[test]
    fn appends_after_a_discarded_torn_tail_replay() {
        let wal = WriteAheadLog::new();
        put(&wal, 1);
        put(&wal, 2);
        wal.corrupt_tail(1);
        let committed = wal.size_bytes();
        wal.discard_torn_tail();
        assert!(wal.size_bytes() < committed, "the torn bytes are gone");
        wal.discard_torn_tail(); // nothing torn: a no-op
        assert_eq!(wal.len(), 1);
        put(&wal, 3);
        let lsns: Vec<u64> = wal.replay().unwrap().iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![0, 2], "the torn entry's LSN is not reused");
    }

    #[test]
    fn torn_everything_replays_empty() {
        let wal = WriteAheadLog::new();
        put(&wal, 1);
        wal.corrupt_tail(usize::MAX);
        assert!(wal.replay().unwrap().is_empty());
        assert_eq!(wal.size_bytes(), 0);
    }

    /// One entry body (`[lsn][op][key][value]`).
    fn entry(op: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        entry_into(&mut buf, 1, op, key, value);
        buf.split_off(ENTRY_HEADER)
    }

    #[test]
    fn decode_rejects_garbage() {
        let key = encode_value(&AdmValue::Int(1));
        // too short for the lsn+op header
        assert!(LogRecord::decode(b"short").is_err());
        // unknown op byte
        assert!(LogRecord::decode(&entry(99, &key, &[])).is_err());
        // put missing its value
        assert!(LogRecord::decode(&entry(OP_PUT, &key, &[])).is_err());
        // put whose value is cut short, or not UTF-8, or followed by junk
        let value = encode_value(&recval(1));
        assert!(LogRecord::decode(&entry(OP_PUT, &key, &value)).is_ok());
        assert!(LogRecord::decode(&entry(OP_PUT, &key, &value[..value.len() - 1])).is_err());
        let mut bad_utf8 = value.clone();
        *bad_utf8.last_mut().unwrap() = 0xFF;
        assert!(LogRecord::decode(&entry(OP_PUT, &key, &bad_utf8)).is_err());
        assert!(LogRecord::decode(&entry(OP_PUT, &key, &[&value[..], &[0]].concat())).is_err());
        // delete with trailing bytes
        assert!(LogRecord::decode(&entry(OP_DELETE, &key, &[0])).is_err());
        // corrupted key payload
        assert!(LogRecord::decode(&entry(OP_DELETE, &[0xFF], &[])).is_err());
    }

    /// A log whose only block holds exactly `buf`.
    fn log_of(buf: Vec<u8>) -> WriteAheadLog {
        let wal = WriteAheadLog::new();
        wal.state.lock().blocks.push(LogBlock { buf });
        wal
    }

    proptest! {
        /// Replay of a block holding arbitrary bytes is an error or a list
        /// of checked records — never a panic.
        #[test]
        fn replay_never_panics_on_arbitrary_block_bytes(
            buf in prop::collection::vec(any::<u8>(), 0..200),
            entries in 0u32..4,
        ) {
            let _ = log_of(buf.clone()).replay();
            // the same bytes behind a header that claims them complete
            let mut framed = LogBlock::begin(0);
            framed.extend_from_slice(&buf);
            let _ = log_of(LogBlock::finish(framed, entries).buf).replay();
        }

        /// Flipping any one byte of a valid block yields an error or records
        /// whose payloads still pass the checked walk.
        #[test]
        fn replay_of_a_flipped_byte_yields_only_checked_payloads(
            at in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let wal = WriteAheadLog::new();
            let pairs: Vec<(AdmValue, AdmValue)> =
                (0..3).map(|i| (AdmValue::Int(i), recval(i))).collect();
            wal.append_put_batch(pairs.iter().map(|(k, v)| (k, v)));
            let mut buf = std::mem::take(&mut wal.state.lock().blocks[0].buf);
            let i = at % buf.len();
            buf[i] ^= flip;
            if let Ok(records) = log_of(buf).replay() {
                for r in records {
                    if let LogOp::Put { value, .. } = r.op {
                        prop_assert!(validate(&value).is_ok());
                    }
                }
            }
        }
    }
}
