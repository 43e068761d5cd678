//! Property tests for the compacted component codec: encode/decode
//! round-trips arbitrary open ADM records bit-exactly, agrees with the
//! uncompacted [`OpenBlock`] layout row for row, and the zero-copy field
//! decoder matches full-record field access.

use asterix_adm::compact::{BlockBuilder, CompactedBlock, OpenBlock};
use asterix_adm::{decode_field_at, encode_value, AdmValue};
use proptest::prelude::*;

/// Arbitrary ADM values with finite doubles (NaN breaks `PartialEq`-based
/// bit-exactness assertions; the codec itself is bits-through).
fn adm_value() -> impl Strategy<Value = AdmValue> {
    let leaf = prop_oneof![
        Just(AdmValue::Null),
        Just(AdmValue::Missing),
        any::<bool>().prop_map(AdmValue::Boolean),
        any::<i64>().prop_map(AdmValue::Int),
        prop::num::f64::NORMAL.prop_map(AdmValue::Double),
        Just(AdmValue::Double(0.0)),
        "[a-zA-Z0-9 #@_]{0,16}".prop_map(AdmValue::String),
        (prop::num::f64::NORMAL, prop::num::f64::NORMAL).prop_map(|(x, y)| AdmValue::Point(x, y)),
        any::<i64>().prop_map(AdmValue::DateTime),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(AdmValue::OrderedList),
            prop::collection::vec(inner.clone(), 0..4).prop_map(AdmValue::UnorderedList),
            prop::collection::vec(("[a-f_]{1,4}", inner), 0..5).prop_map(|fields| {
                let mut seen = std::collections::HashSet::new();
                AdmValue::Record(
                    fields
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
        ]
    })
}

/// Component rows: mostly records (drawn from a small field-name alphabet so
/// rows share a partial schema), with arbitrary values — including opaque
/// non-record rows — mixed in.
fn component_rows() -> impl Strategy<Value = Vec<AdmValue>> {
    prop::collection::vec(
        prop_oneof![
            4 => prop::collection::vec(("[a-f]{1,3}", adm_value()), 0..6).prop_map(|fields| {
                let mut seen = std::collections::HashSet::new();
                AdmValue::Record(
                    fields
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
            1 => adm_value(),
        ],
        0..32,
    )
}

/// Run `f` on the builder over `rows` in the form storage holds them:
/// binary ADM records.
fn with_builder<'a, R>(
    rows: impl IntoIterator<Item = &'a AdmValue>,
    f: impl FnOnce(&BlockBuilder) -> R,
) -> R {
    let bytes: Vec<Vec<u8>> = rows.into_iter().map(encode_value).collect();
    let refs: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
    f(&BlockBuilder::infer(&refs))
}

fn compacted(rows: &[AdmValue], min_presence: f64) -> CompactedBlock {
    with_builder(rows, |b| b.encode(&b.schema().slot_fields(min_presence)))
}

fn open(rows: &[AdmValue]) -> OpenBlock {
    let bytes: Vec<Vec<u8>> = rows.iter().map(encode_value).collect();
    OpenBlock::encode(&bytes.iter().map(Vec::as_slice).collect::<Vec<_>>())
}

proptest! {
    #[test]
    fn compacted_round_trips_bit_exactly(rows in component_rows(), minp in 0u8..=10) {
        let block = compacted(&rows, f64::from(minp) / 10.0);
        prop_assert_eq!(block.records(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            let got = block.materialize(i);
            prop_assert_eq!(got.as_ref(), Some(row), "row {}", i);
        }
    }

    #[test]
    fn compacted_agrees_with_open_layout(rows in component_rows()) {
        let open = open(&rows);
        let block = compacted(&rows, 0.5);
        prop_assert_eq!(open.records(), block.records());
        for i in 0..rows.len() {
            prop_assert_eq!(block.materialize(i), open.materialize(i), "row {}", i);
        }
    }

    #[test]
    fn field_access_matches_across_layouts(rows in component_rows()) {
        let open = open(&rows);
        let block = compacted(&rows, 0.5);
        // every name observed anywhere, plus one certainly-absent name
        let mut names: Vec<String> = rows
            .iter()
            .filter_map(|r| match r {
                AdmValue::Record(fields) => {
                    Some(fields.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>())
                }
                _ => None,
            })
            .flatten()
            .collect();
        names.push("zz_absent".to_string());
        names.sort();
        names.dedup();
        for (i, row) in rows.iter().enumerate() {
            for name in &names {
                let want = match row {
                    AdmValue::Record(fields) => fields
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| v.clone()),
                    _ => None,
                };
                prop_assert_eq!(
                    block.field_value(i, name),
                    want.clone(),
                    "compacted row {} field {}",
                    i,
                    name
                );
                prop_assert_eq!(open.field_value(i, name), want, "open row {} field {}", i, name);
            }
        }
    }

    #[test]
    fn byte_image_reparses_identically(rows in component_rows()) {
        let block = compacted(&rows, 0.5);
        let reparsed = CompactedBlock::from_bytes(block.as_bytes().to_vec())
            .expect("own image must reparse");
        for (i, row) in rows.iter().enumerate() {
            let got = reparsed.materialize(i);
            prop_assert_eq!(got.as_ref(), Some(row), "row {}", i);
        }
        // the builder fills section offsets and stats without re-parsing its
        // own image: they must be exactly what a parse of the image finds
        prop_assert_eq!(reparsed, block);
    }

    /// Copying cells out of same-layout blocks yields the rows picked, an
    /// image that parses back to the same block, and exact header counts.
    #[test]
    fn copy_rows_equals_re_encoding_the_picked_rows(
        rows in component_rows(),
        cuts in prop::collection::vec(0usize..1000, 0..3),
        keep in prop::collection::vec(any::<bool>(), 32),
    ) {
        // split one row set into chunks encoded against the same slot list
        let slots = with_builder(&rows, |b| b.schema().slot_fields(0.5));
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (rows.len() + 1)).collect();
        bounds.extend([0, rows.len()]);
        bounds.sort_unstable();
        let chunks: Vec<&[AdmValue]> = bounds.windows(2).map(|w| &rows[w[0]..w[1]]).collect();
        let blocks: Vec<CompactedBlock> = chunks
            .iter()
            .map(|chunk| with_builder(*chunk, |b| b.encode(&slots)))
            .collect();
        let inputs: Vec<&CompactedBlock> = blocks.iter().collect();
        let mut picks = Vec::new();
        let mut picked = Vec::new();
        for (ci, chunk) in chunks.iter().enumerate() {
            for (ri, row) in chunk.iter().enumerate() {
                if keep[picked.len() % keep.len()] || (ci + ri) % 3 == 0 {
                    picks.push((ci as u32, ri as u32));
                    picked.push(row);
                }
            }
        }
        let same_layout = inputs.windows(2).all(|w| w[0].same_layout(w[1]));
        let copied = CompactedBlock::copy_rows(&inputs, &picks);
        prop_assert_eq!(copied.is_some(), same_layout);
        if let Some(copied) = copied {
            prop_assert_eq!(copied.records(), picked.len());
            for (i, row) in picked.iter().enumerate() {
                let got = copied.materialize(i);
                prop_assert_eq!(got.as_ref(), Some(*row), "row {}", i);
            }
            let reparsed = CompactedBlock::from_bytes(copied.as_bytes().to_vec())
                .expect("copied image must reparse");
            prop_assert_eq!(&reparsed, &copied);
            // header counts are exact: those a re-encode of the rows infers
            let oracle = with_builder(picked.iter().copied(), |b| b.encode(&slots).schema());
            let header = copied.schema();
            prop_assert_eq!(header.records, oracle.records);
            prop_assert_eq!(header.opaque_rows, oracle.opaque_rows);
            prop_assert_eq!(header.total_items, oracle.total_items);
            for (h, o) in header.fields.iter().zip(&oracle.fields) {
                prop_assert_eq!((&h.name, h.present, h.nulls), (&o.name, o.present, o.nulls));
            }
        }
        // out-of-range picks are refused, not copied from the wrong place
        prop_assert!(CompactedBlock::copy_rows(&inputs, &[(inputs.len() as u32, 0)]).is_none());
    }

    #[test]
    fn from_bytes_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = CompactedBlock::from_bytes(bytes);
    }

    #[test]
    fn from_bytes_rejects_any_truncation(rows in component_rows()) {
        let block = compacted(&rows, 0.5);
        let bytes = block.as_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(
                CompactedBlock::from_bytes(bytes[..cut].to_vec()).is_err(),
                "truncation at {} accepted",
                cut
            );
        }
    }

    #[test]
    fn decode_field_at_matches_record_field(v in adm_value()) {
        if let AdmValue::Record(fields) = &v {
            let bytes = encode_value(&v);
            for (name, _) in fields {
                prop_assert_eq!(
                    decode_field_at(&bytes, name).expect("valid record"),
                    v.field(name).cloned()
                );
            }
            prop_assert_eq!(decode_field_at(&bytes, "zz_absent").expect("valid record"), None);
        }
    }
}
