//! Property tests over the one serialized form of a record.
//!
//! A record's payload is written once (`payload_from_value`) and then only
//! ever *copied*: into a wire frame, out of a fragmented TCP stream, into a
//! spill segment and back. Wire frames and spill segments share one checked
//! record codec (`asterix_common::frame`), so:
//!
//! * **Bit-exact transit** — any value (NaN payloads, ±inf, −0.0, duplicate
//!   field names, nested records) comes out of adaptor → wire → spill →
//!   decode with identical payload bytes at every stage and decodes to the
//!   value that went in;
//! * **Hostile input** — arbitrary bytes and every truncation of a valid
//!   segment or wire frame yield an error (or, for bytes that happen to be a
//!   frame, that exact frame), never a panic or an allocation sized by
//!   garbage.

use asterix_adm::{decode_value, encode_value, payload_from_value, AdmValue};
use asterix_common::{DataFrame, Record, RecordId, SimInstant};
use asterix_feeds::flow::SpillFile;
use asterix_hyracks::transport::{encode_msg, FrameDecoder, WireMsg};
use proptest::prelude::*;

#[path = "../../adm/tests/common/gen.rs"]
mod gen;
use gen::adm_value;

fn records() -> impl Strategy<Value = Vec<(AdmValue, Record)>> {
    let record = (
        adm_value(),
        any::<u64>(),
        0u32..8,
        (any::<bool>(), 0u64..1 << 40),
    )
        .prop_map(|(value, id, adaptor, (stamped, ms))| {
            let mut rec = Record::tracked(RecordId(id), adaptor, payload_from_value(value.clone()));
            if stamped {
                rec = rec.stamped(SimInstant(ms));
            }
            (value, rec)
        });
    prop::collection::vec(record, 0..6)
}

/// Feed `wire` to a fresh decoder in pseudo-random chunks (xorshift64 over
/// `seed`, chunk sizes 1..=`max_chunk`) and collect the decoded messages.
fn decode_fragmented(wire: &[u8], seed: u64, max_chunk: usize) -> Vec<WireMsg> {
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    let (mut state, mut at) = (seed | 1, 0);
    while at < wire.len() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let end = (at + 1 + (state as usize) % max_chunk).min(wire.len());
        decoder.feed(&wire[at..end]);
        at = end;
        while let Some(msg) = decoder.next_msg().expect("well-formed stream") {
            out.push(msg);
        }
    }
    decoder.finish().expect("stream ends on a boundary");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn payloads_cross_wire_and_spill_bit_exactly(
        input in records(),
        seed in any::<u64>(),
        max_chunk in 1usize..96,
    ) {
        let frame = DataFrame::from_records(input.iter().map(|(_, r)| r.clone()).collect());

        let mut wire = Vec::new();
        encode_msg(&WireMsg::Frame(frame.clone()), &mut wire);
        let received = match decode_fragmented(&wire, seed, max_chunk).as_slice() {
            [WireMsg::Frame(f)] => f.clone(),
            other => panic!("expected one frame, got {other:?}"),
        };
        // record equality is id, adaptor, stamp and payload *bytes*
        prop_assert_eq!(&received, &frame);

        let mut spill = SpillFile::default();
        spill.push(&received);
        let despilled = spill.pop().expect("one segment").expect("decodes");
        prop_assert!(spill.pop().is_none());
        prop_assert_eq!(&despilled, &frame);

        for ((value, _), rec) in input.iter().zip(despilled.records()) {
            let decoded = decode_value(&rec.payload).unwrap();
            // bit-exact: the encoding is injective and compares NaNs by bits
            prop_assert_eq!(encode_value(&decoded), encode_value(value));
            prop_assert_eq!(&rec.payload[..], &encode_value(value)[..]);
        }
    }

    #[test]
    fn truncated_segments_and_wire_frames_are_errors(input in records()) {
        let frame = DataFrame::from_records(input.into_iter().map(|(_, r)| r).collect());
        let mut segment = Vec::new();
        frame.encode_into(&mut segment);
        for cut in 0..segment.len() {
            prop_assert!(DataFrame::decode(&segment[..cut]).is_err(), "segment cut at {}", cut);
            prop_assert!(SpillFile::decode_segment(&segment[..cut]).is_err());
        }
        // the same torn frame inside an intact wire envelope
        let mut wire = Vec::new();
        encode_msg(&WireMsg::Frame(frame), &mut wire);
        let body = &wire[4..];
        for cut in 0..body.len() {
            let mut torn = (cut as u32).to_le_bytes().to_vec();
            torn.extend_from_slice(&body[..cut]);
            let mut decoder = FrameDecoder::new();
            decoder.feed(&torn);
            prop_assert!(decoder.next_msg().is_err(), "wire body cut at {}", cut);
        }
        // and a stream that simply stops mid-message
        let mut decoder = FrameDecoder::new();
        decoder.feed(&wire[..wire.len() - 1]);
        prop_assert_eq!(decoder.next_msg().unwrap(), None);
        prop_assert!(decoder.finish().is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_record_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        count in 0u32..4,
    ) {
        // raw noise, and noise behind a plausible record count (so the
        // per-record path runs, not just the count bound)
        let mut counted = count.to_le_bytes().to_vec();
        counted.extend_from_slice(&bytes);
        for input in [&bytes, &counted] {
            if let Ok(frame) = DataFrame::decode(input) {
                // bytes that happen to be a frame decode to exactly that frame
                let mut again = Vec::new();
                frame.encode_into(&mut again);
                prop_assert_eq!(&again, input);
            }
            let mut decoder = FrameDecoder::new();
            decoder.feed(input);
            while let Ok(Some(_)) = decoder.next_msg() {}
        }
    }
}
