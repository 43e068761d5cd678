//! The value generator the byte-level property tests share (included with
//! `#[path]` by this crate's `roundtrip`, by `record_codec_props` in
//! `asterix-feeds` and by the storage crate's bytes-path tests): one
//! definition of "any value the binary codec can carry".

use asterix_adm::AdmValue;
use proptest::prelude::*;

/// Arbitrary ADM values, including everything text cannot carry: doubles
/// are drawn from all 2^64 bit patterns and records may repeat a name.
pub fn adm_value() -> impl Strategy<Value = AdmValue> {
    let double = prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
    ];
    let leaf = prop_oneof![
        Just(AdmValue::Null),
        Just(AdmValue::Missing),
        any::<bool>().prop_map(AdmValue::Boolean),
        any::<i64>().prop_map(AdmValue::Int),
        double.clone().prop_map(AdmValue::Double),
        "[a-zA-Z0-9 #@_\\\\\"\n]{0,20}".prop_map(AdmValue::String),
        (double.clone(), double).prop_map(|(x, y)| AdmValue::Point(x, y)),
        any::<i64>().prop_map(AdmValue::DateTime),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(AdmValue::OrderedList),
            prop::collection::vec(inner.clone(), 0..6).prop_map(AdmValue::UnorderedList),
            // two-letter names over a tiny alphabet: duplicates are common
            prop::collection::vec(("[ab]{1,2}", inner), 0..6).prop_map(AdmValue::Record),
        ]
    })
}
