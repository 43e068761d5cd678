//! The keys a B-tree secondary answers with, read as the AQL reader query
//! reads them: `field = value` pushed into a scan projected to the primary
//! key `id`, which the partition answers from the index.

use asterix_adm::{AdmValue, Pred};
use asterix_common::IngestError;
use asterix_storage::DatasetPartition;

/// The live keys whose `field` equals `value`, in key order. Panics unless
/// a B-tree on `field` answered.
pub fn keys_eq(p: &DatasetPartition, field: &str, value: &AdmValue) -> Vec<AdmValue> {
    let before = p.index_reads();
    let mut keys = Vec::new();
    let filter = Pred::eq(field, value.clone());
    p.try_for_each_row(Some(&["id".to_string()]), Some(&filter), |key, _| {
        keys.push(key.clone());
        Ok::<_, IngestError>(())
    })
    .expect("an index read has no error to return");
    assert_eq!(
        p.index_reads(),
        before + 1,
        "the scan answered `{field} = {value}`, not a B-tree"
    );
    keys
}
