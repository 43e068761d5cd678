//! Data frames.
//!
//! In Hyracks, data flows between operators "in the form of data frames
//! containing physical records" (§3.2.2). A frame is the unit of transfer,
//! back-pressure, soft-failure slicing (§6.1.1) and feed-joint routing
//! (§5.4). A record's payload is its serialized form and nothing else:
//! binary ADM bytes, written once by the stage that produced the value and
//! carried verbatim from then on. This crate never interprets them; a stage
//! that needs structure reads it out of the bytes (`asterix-adm`), and spill
//! segments and wire frames wrap them in the one record codec below
//! ([`Record::encode_into`] / [`DataFrame::decode`]) without looking inside.
//!
//! ## The record codec
//!
//! ```text
//! frame  := u32 LE record_count, record*
//! record := u64 LE id, u32 LE adaptor, u64 LE gen_millis | u64::MAX,
//!           u32 LE payload_len, payload bytes
//! ```
//!
//! One layout and one torn-tail rule for every place a frame is turned into
//! bytes (a joint subscription's spill file, the TCP transport): a decode
//! succeeds only when the input holds exactly the records it announces —
//! short input, a count or length pointing past the end and trailing bytes
//! are all typed errors, never a panic or an allocation sized by garbage.

use crate::clock::SimInstant;
use crate::error::{IngestError, IngestResult};
use crate::ids::RecordId;
use bytes::Bytes;

/// Default number of records per frame.
pub const DEFAULT_FRAME_CAPACITY: usize = 64;

/// Bytes of a serialized record's fixed header (id, adaptor, generation
/// stamp, payload length).
const RECORD_HEADER_LEN: usize = 24;

/// Generation-stamp slot of an unstamped record.
const UNSTAMPED: u64 = u64::MAX;

/// Split `N` bytes off the front of `input`; `what` names them in the error.
fn split_array<'a, const N: usize>(
    input: &'a [u8],
    what: &str,
) -> IngestResult<(&'a [u8; N], &'a [u8])> {
    input
        .split_first_chunk::<N>()
        .ok_or_else(|| IngestError::Parse(format!("truncated {what}")))
}

/// A single physical record travelling through a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Tracking id assigned at the intake stage (§5.6). `RecordId(u64::MAX)`
    /// denotes "not yet assigned".
    pub id: RecordId,
    /// Index of the feed-adaptor instance that sourced this record; used to
    /// group ack messages per adaptor instance.
    pub adaptor: u32,
    /// Sim-time the record was *generated* at the external source (TweetGen
    /// stamps this on the wire, a trace replay stamps the recorded instant;
    /// socket and file records carry no stamp). Threaded
    /// through every hop — including spill files and replays — so the store
    /// stage can derive the end-to-end **ingestion lag** (generation →
    /// durable) the observability layer exports. `None` for records whose
    /// origin predates the stamp (e.g. synthetic test frames).
    pub gen_at: Option<SimInstant>,
    /// Serialized payload (binary ADM). Not text: render it for humans with
    /// the ADM crate's `to_display_string`.
    pub payload: Bytes,
}

impl Record {
    /// Sentinel id for records that have not passed through intake yet.
    pub const UNTRACKED: RecordId = RecordId(u64::MAX);

    /// A record fresh out of an adaptor, before intake assigns a tracking id.
    pub fn untracked(adaptor: u32, payload: impl Into<Bytes>) -> Self {
        Record {
            id: Self::UNTRACKED,
            adaptor,
            gen_at: None,
            payload: payload.into(),
        }
    }

    /// A record with a known tracking id.
    pub fn tracked(id: RecordId, adaptor: u32, payload: impl Into<Bytes>) -> Self {
        Record {
            id,
            adaptor,
            gen_at: None,
            payload: payload.into(),
        }
    }

    /// Builder-style stamp of the source generation time (lag numerator).
    pub fn stamped(mut self, gen_at: SimInstant) -> Self {
        self.gen_at = Some(gen_at);
        self
    }

    /// Whether intake has assigned a tracking id.
    pub fn is_tracked(&self) -> bool {
        self.id != Self::UNTRACKED
    }

    /// Append the serialized record (fixed header, then the payload bytes
    /// verbatim) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.payload.len()).expect("record payload under 4 GiB");
        out.extend_from_slice(&self.id.raw().to_le_bytes());
        out.extend_from_slice(&self.adaptor.to_le_bytes());
        out.extend_from_slice(&self.gen_at.map_or(UNSTAMPED, |g| g.0).to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Decode one serialized record from the front of `input`; returns it
    /// and the rest.
    pub fn decode_prefix(input: &[u8]) -> IngestResult<(Record, &[u8])> {
        let (id, rest) = split_array::<8>(input, "record id")?;
        let (adaptor, rest) = split_array::<4>(rest, "record adaptor")?;
        let (gen, rest) = split_array::<8>(rest, "record generation stamp")?;
        let (len, rest) = split_array::<4>(rest, "record payload length")?;
        let (gen, len) = (u64::from_le_bytes(*gen), u32::from_le_bytes(*len) as usize);
        if rest.len() < len {
            return Err(IngestError::Parse(format!(
                "truncated record payload ({} of {len} bytes)",
                rest.len()
            )));
        }
        let (payload, rest) = rest.split_at(len);
        let record = Record {
            id: RecordId(u64::from_le_bytes(*id)),
            adaptor: u32::from_le_bytes(*adaptor),
            gen_at: (gen != UNSTAMPED).then_some(SimInstant(gen)),
            payload: Bytes::copy_from_slice(payload),
        };
        Ok((record, rest))
    }
}

/// A fixed-capacity batch of records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataFrame {
    records: Vec<Record>,
}

impl DataFrame {
    /// Empty frame.
    pub fn new() -> Self {
        DataFrame {
            records: Vec::new(),
        }
    }

    /// Frame holding the given records.
    pub fn from_records(records: Vec<Record>) -> Self {
        DataFrame { records }
    }

    /// Records in the frame.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Consume the frame, yielding its records.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the frame carries no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append a record.
    pub fn push(&mut self, r: Record) {
        self.records.push(r);
    }

    /// Slice out a *remnant* frame: the records strictly after `index`.
    ///
    /// This is the §6.1.1 soft-failure recovery primitive: when record
    /// `index` raises an exception, the MetaFeed sandbox forms the subset
    /// frame that "excludes the processed records and the exception
    /// generating record" and re-feeds it to the core operator.
    pub fn remnant_after(&self, index: usize) -> DataFrame {
        if index + 1 >= self.records.len() {
            DataFrame::new()
        } else {
            DataFrame {
                records: self.records[index + 1..].to_vec(),
            }
        }
    }

    /// Append the serialized frame (record count, then every record) to
    /// `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let count = u32::try_from(self.len()).expect("frame under 2^32 records");
        out.extend_from_slice(&count.to_le_bytes());
        for r in &self.records {
            r.encode_into(out);
        }
    }

    /// Decode a serialized frame occupying the whole of `input`.
    pub fn decode(input: &[u8]) -> IngestResult<DataFrame> {
        let (count, mut rest) = split_array::<4>(input, "frame record count")?;
        let count = u32::from_le_bytes(*count) as usize;
        // every record occupies at least its header, so a count the input
        // cannot hold is garbage: reject it before allocating for it
        if count > rest.len() / RECORD_HEADER_LEN {
            return Err(IngestError::Parse(format!(
                "frame announces {count} records in {} bytes",
                rest.len()
            )));
        }
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let (record, r) = Record::decode_prefix(rest)?;
            records.push(record);
            rest = r;
        }
        if !rest.is_empty() {
            return Err(IngestError::Parse(format!(
                "{} trailing bytes after frame",
                rest.len()
            )));
        }
        Ok(DataFrame { records })
    }

    /// Approximate in-memory size in bytes (for spill accounting).
    pub fn size_bytes(&self) -> usize {
        self.records
            .iter()
            .map(|r| r.payload.len() + std::mem::size_of::<Record>())
            .sum()
    }
}

/// Accumulates records and emits full frames.
#[derive(Debug)]
pub struct FrameBuilder {
    capacity: usize,
    current: Vec<Record>,
}

impl FrameBuilder {
    /// Builder emitting frames of `capacity` records.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "frame capacity must be positive");
        FrameBuilder {
            capacity,
            current: Vec::with_capacity(capacity),
        }
    }

    /// Push a record; returns a full frame when the capacity is reached.
    pub fn push(&mut self, r: Record) -> Option<DataFrame> {
        self.current.push(r);
        if self.current.len() >= self.capacity {
            Some(self.flush_inner())
        } else {
            None
        }
    }

    /// Emit whatever has accumulated (possibly empty -> None).
    pub fn flush(&mut self) -> Option<DataFrame> {
        if self.current.is_empty() {
            None
        } else {
            Some(self.flush_inner())
        }
    }

    fn flush_inner(&mut self) -> DataFrame {
        let records = std::mem::replace(&mut self.current, Vec::with_capacity(self.capacity));
        DataFrame { records }
    }

    /// Records currently buffered, not yet emitted.
    pub fn pending(&self) -> usize {
        self.current.len()
    }
}

impl Default for FrameBuilder {
    fn default() -> Self {
        FrameBuilder::new(DEFAULT_FRAME_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> Record {
        Record::tracked(RecordId(i), 0, format!("r{i}"))
    }

    #[test]
    fn untracked_records() {
        let r = Record::untracked(1, "hello");
        assert!(!r.is_tracked());
        assert_eq!(&r.payload[..], b"hello");
        let t = Record::tracked(RecordId(5), 1, "x");
        assert!(t.is_tracked());
    }

    #[test]
    fn stamped_records_carry_generation_time() {
        let r = Record::untracked(0, "x").stamped(SimInstant(120));
        assert_eq!(r.gen_at, Some(SimInstant(120)));
        assert_eq!(rec(1).gen_at, None, "constructors default to unstamped");
        assert!(r.clone().gen_at.is_some(), "clones keep the stamp");
    }

    #[test]
    fn remnant_excludes_processed_and_failing() {
        let f = DataFrame::from_records((0..5).map(rec).collect());
        // record index 2 failed: remnant is records 3, 4
        let rem = f.remnant_after(2);
        assert_eq!(rem.len(), 2);
        assert_eq!(rem.records()[0].id, RecordId(3));
        assert_eq!(rem.records()[1].id, RecordId(4));
    }

    #[test]
    fn remnant_at_end_is_empty() {
        let f = DataFrame::from_records((0..3).map(rec).collect());
        assert!(f.remnant_after(2).is_empty());
        assert!(f.remnant_after(10).is_empty());
    }

    #[test]
    fn builder_emits_at_capacity() {
        let mut b = FrameBuilder::new(3);
        assert!(b.push(rec(0)).is_none());
        assert!(b.push(rec(1)).is_none());
        let f = b.push(rec(2)).expect("frame at capacity");
        assert_eq!(f.len(), 3);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn builder_flush_emits_partial() {
        let mut b = FrameBuilder::new(10);
        b.push(rec(0));
        b.push(rec(1));
        let f = b.flush().expect("partial frame");
        assert_eq!(f.len(), 2);
        assert!(b.flush().is_none());
    }

    #[test]
    fn size_bytes_counts_payloads() {
        let f = DataFrame::from_records(vec![rec(0), rec(1)]);
        assert!(f.size_bytes() >= 4); // at least the payload bytes
    }

    #[test]
    #[should_panic(expected = "frame capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FrameBuilder::new(0);
    }

    #[test]
    fn frame_codec_roundtrips_stamps_and_untracked_ids() {
        let frame = DataFrame::from_records(vec![
            rec(1).stamped(SimInstant(42)),
            Record::untracked(7, vec![0u8, 255, 10]),
            Record::tracked(RecordId(3), 2, ""),
        ]);
        let mut buf = Vec::new();
        frame.encode_into(&mut buf);
        let back = DataFrame::decode(&buf).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.records()[0].gen_at, Some(SimInstant(42)));
        assert_eq!(back.records()[1].gen_at, None);
        assert!(!back.records()[1].is_tracked());
        let mut empty = Vec::new();
        DataFrame::new().encode_into(&mut empty);
        assert!(DataFrame::decode(&empty).unwrap().is_empty());
    }

    #[test]
    fn frame_decode_rejects_every_truncation_and_trailing_bytes() {
        let mut buf = Vec::new();
        DataFrame::from_records((0..4).map(rec).collect()).encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(DataFrame::decode(&buf[..cut]).is_err(), "cut at {cut}");
        }
        buf.push(0);
        assert!(DataFrame::decode(&buf).is_err(), "trailing byte");
    }

    #[test]
    fn frame_decode_bounds_counts_and_lengths_by_the_input() {
        // a count no input of this size could hold: refused before allocating
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 64]);
        assert!(DataFrame::decode(&huge).is_err());
        // a payload length pointing past the end
        let mut buf = Vec::new();
        DataFrame::from_records(vec![rec(0)]).encode_into(&mut buf);
        let len_at = 4 + RECORD_HEADER_LEN - 4;
        buf[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(DataFrame::decode(&buf).is_err());
    }
}
