//! The LSM tree: a mutable in-memory component (memtable) over a stack of
//! immutable sorted components.
//!
//! Inserts and deletes go to the memtable; when it exceeds its budget it is
//! *sealed* (flushed) into an immutable component. Components are
//! `Arc`-shared, so a compactor can take a snapshot under a short lock,
//! merge the snapshot entirely outside the lock ([`merge_components`] works
//! by reference and clones only the surviving keys, once), and swap the
//! result back in with [`LsmTree::install_merged`] — this is how
//! [`crate::partition::DatasetPartition`] keeps merges off the insert path,
//! mirroring AsterixDB's asynchronous LSM flush/merge. When
//! [`LsmConfig::defer_merge`] is unset the tree instead merges inline once
//! the component count exceeds the threshold (the simplest of AsterixDB's
//! merge policies, the "constant" policy), which keeps a standalone tree
//! self-contained.
//!
//! # One representation: bytes
//!
//! A record has exactly one form inside this crate — its binary ADM
//! payload. The memtable maps keys to the payload bytes the store operator
//! was handed ([`LsmTree::put_bytes`]: a refcount bump of the frame's
//! buffer, no decode); sealing walks those bytes into the component's
//! storage image and drops them. A sealed or merged [`Component`] then holds
//! **keys and liveness only**, next to the image: no record is resident
//! twice, and no `AdmValue` tree is resident at all. Reads build values on
//! demand — [`LsmTree::get`]/[`LsmTree::scan_all`] materialize a row from
//! the image (bit-exactly the record that was written), field reads decode
//! one cell. [`LsmTree::put`]/[`LsmTree::put_shared`] remain for callers
//! that hold a value: they encode it once and take the bytes path.
//!
//! A component is one sorted run: a `Vec` of keys in key order, probed by
//! binary search. Point reads consult the memtable first, then components
//! newest-to-oldest; every ordered read — range scans, the vectorized field
//! scan and the merge itself — goes through one newest-wins k-way iterator
//! ([`SortedRuns`]) over the memtable and the runs, so no read rebuilds a
//! map of the entries it visits. Deletes are tombstones that shadow older
//! versions until a merge discards them. Keys are probed by reference
//! ([`crate::AsKey`]).
//!
//! # Compacted component storage
//!
//! Sealing builds the component's **storage image** — the disk-equivalent
//! byte layout. [`BlockBuilder`] infers the schema of the sealed records in
//! one walk over their bytes ([`asterix_adm::schema`]); if the component's
//! schema churn stays under [`LayoutConfig::churn_threshold`] a second walk
//! copies their cells into a schema-headed columnar
//! [`CompactedBlock`](asterix_adm::compact::CompactedBlock) (field names and
//! types written once per component, values in per-field column strides),
//! otherwise the component falls back to the uncompacted
//! [`OpenBlock`](asterix_adm::compact::OpenBlock) layout — the payloads,
//! concatenated. The vectorized read path ([`LsmTree::for_each_live_ref`],
//! [`LsmTree::get_field`]) serves single-field scans and point lookups from
//! the column strides without materializing whole records.
//!
//! A merge does not re-encode what its inputs already encoded: when every
//! input is compacted with the same slots and encodings — the steady state
//! of a feed — the merged image is assembled by copying the surviving rows'
//! cell bytes out of the input images, under a header that only ever widens
//! ([`CompactedBlock::copy_rows`]); the merge touches no per-record heap
//! object. Inputs whose layouts differ (an open fallback component, a column
//! that changed encoding, a new slot) have their surviving rows rebuilt from
//! the images and sent through the same [`BlockBuilder`] a seal uses, which
//! never drops a slot that every input component already agreed on.

use crate::{AsKey, KeyOrd};
use asterix_adm::binary::{decode_field_at, decode_value, encode_into, encode_value};
use asterix_adm::compact::{BlockBuilder, CompactedBlock, OpenBlock};
use asterix_adm::AdmValue;
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::{btree_map, BTreeMap};
use std::iter::Peekable;
use std::ops::Bound;
use std::sync::Arc;

/// One version of a key in the memtable.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// A live record: its binary ADM payload, shared with whoever wrote it.
    Put(Bytes),
    /// A deletion marker.
    Tombstone,
}

impl Entry {
    fn payload_len(&self) -> usize {
        match self {
            Entry::Put(payload) => payload.len(),
            Entry::Tombstone => 0,
        }
    }
}

/// Resident size of a key: the value itself plus a string key's heap bytes.
fn key_bytes(key: &AdmValue) -> usize {
    std::mem::size_of::<KeyOrd>() + key.as_str().map_or(0, str::len)
}

/// A borrowed view of one live record during a scan or lookup.
///
/// Field access on a sealed record decodes one cell of the component's
/// storage image (a column-stride read for compacted components); on a
/// memtable record it skips through the payload to the field. Neither walks
/// the whole record; [`LiveRef::materialize`] is the full-record read.
#[derive(Debug)]
pub enum LiveRef<'a> {
    /// The record lives in the memtable: its binary ADM payload.
    Mem(&'a [u8]),
    /// The record is sealed: component and storage-image row.
    Sealed(&'a Component, usize),
}

impl LiveRef<'_> {
    /// Lazily materialize one field (`None` = absent).
    pub fn field(&self, name: &str) -> Option<AdmValue> {
        match self {
            LiveRef::Sealed(c, row) => c.storage.field_at(*row, name),
            LiveRef::Mem(payload) => decode_field_at(payload, name).ok().flatten(),
        }
    }

    /// Build the whole record — bit-exactly the value whose encoding was
    /// written. `None` only for bytes that never passed the write path's
    /// checked walk.
    pub fn materialize(&self) -> Option<AdmValue> {
        match self {
            LiveRef::Sealed(c, row) => c.storage.materialize(*row),
            LiveRef::Mem(payload) => decode_value(payload).ok(),
        }
    }
}

/// The disk-equivalent byte image of a sealed component.
#[derive(Debug, Clone)]
pub enum ComponentStorage {
    /// Schema-inferred columnar layout (schema header + column strides +
    /// sparse residual).
    Compacted(CompactedBlock),
    /// Uncompacted fallback: self-describing binary records behind an
    /// offset table — used when schema churn defeats inference.
    Open(OpenBlock),
}

impl Default for ComponentStorage {
    fn default() -> Self {
        ComponentStorage::Open(OpenBlock::default())
    }
}

impl ComponentStorage {
    /// Byte size of the image.
    pub fn size_bytes(&self) -> usize {
        match self {
            ComponentStorage::Compacted(b) => b.size_bytes(),
            ComponentStorage::Open(b) => b.size_bytes(),
        }
    }

    /// Is this the schema-inferred compacted layout?
    pub fn is_compacted(&self) -> bool {
        matches!(self, ComponentStorage::Compacted(_))
    }

    /// Rebuild the record in `row`.
    pub fn materialize(&self, row: usize) -> Option<AdmValue> {
        match self {
            ComponentStorage::Compacted(b) => b.materialize(row),
            ComponentStorage::Open(b) => b.materialize(row),
        }
    }

    fn field_at(&self, row: usize, name: &str) -> Option<AdmValue> {
        match self {
            ComponentStorage::Compacted(b) => b.field_value(row, name),
            ComponentStorage::Open(b) => b.field_value(row, name),
        }
    }

    /// Append the binary ADM record of `row` to `out` (nothing for a row
    /// the image cannot rebuild).
    fn row_bytes_into(&self, row: usize, out: &mut Vec<u8>) {
        match self {
            ComponentStorage::Open(b) => out.extend_from_slice(b.record_slice(row).unwrap_or(&[])),
            ComponentStorage::Compacted(b) => {
                if let Some(record) = b.materialize(row) {
                    encode_into(&record, out);
                }
            }
        }
    }

    /// Encode the image of `rows` (binary ADM records) per `layout`.
    /// `stable_slots` (from a merge's input components) are slotted even
    /// when the inferred stats alone would not qualify them — merged
    /// components never drop a slot their inputs agreed on.
    fn encode(rows: &[&[u8]], layout: &LayoutConfig, stable_slots: &[String]) -> Self {
        if !layout.compact {
            return ComponentStorage::Open(OpenBlock::encode(rows));
        }
        let builder = BlockBuilder::infer(rows);
        let schema = builder.schema();
        let mut slots = schema.slot_fields(layout.min_slot_presence);
        for s in stable_slots {
            if !slots.contains(s) && schema.fields.iter().any(|f| &f.name == s) {
                slots.push(s.clone());
            }
        }
        if schema.churn(&slots) > layout.churn_threshold {
            ComponentStorage::Open(OpenBlock::encode(rows))
        } else {
            ComponentStorage::Compacted(builder.encode(&slots))
        }
    }
}

/// `rows` entry of a deleted key.
const TOMBSTONE: u32 = u32::MAX;

/// An immutable sorted run: keys and liveness, next to the storage image
/// that holds the records.
#[derive(Debug, Default)]
pub struct Component {
    /// Key order, keys unique.
    keys: Vec<KeyOrd>,
    /// Disk-equivalent image; row `i` holds the `i`-th live key's record.
    storage: ComponentStorage,
    /// Per key: its image row, or [`TOMBSTONE`] — kept only when the run
    /// holds tombstones; empty means every key is live and its row is its
    /// position.
    rows: Vec<u32>,
    live: usize,
    /// Resident bytes of `keys`.
    key_bytes: usize,
}

impl Component {
    /// A run over `keys` (key order, unique) whose live records are
    /// `storage`'s rows, in order; `deleted[i]` marks `keys[i]` a tombstone
    /// (empty: none are).
    fn new(keys: Vec<KeyOrd>, deleted: &[bool], storage: ComponentStorage) -> Component {
        let mut next = 0;
        let rows: Vec<u32> = deleted
            .iter()
            .map(|&deleted| match deleted {
                true => TOMBSTONE,
                false => {
                    next += 1;
                    next - 1
                }
            })
            .collect();
        let live = if rows.is_empty() {
            keys.len()
        } else {
            next as usize
        };
        Component {
            key_bytes: keys.iter().map(|k| key_bytes(&k.0)).sum(),
            rows: if live == keys.len() { Vec::new() } else { rows },
            keys,
            storage,
            live,
        }
    }

    /// Seal a memtable into a run, walking its payloads into the storage
    /// image `layout` asks for; the payloads are dropped with `entries`.
    fn seal(entries: BTreeMap<KeyOrd, Entry>, layout: &LayoutConfig) -> Component {
        let payloads: Vec<&[u8]> = entries
            .values()
            .filter_map(|e| match e {
                Entry::Put(payload) => Some(&payload[..]),
                Entry::Tombstone => None,
            })
            .collect();
        let storage = ComponentStorage::encode(&payloads, layout, &[]);
        let deleted: Vec<bool> = entries
            .values()
            .map(|e| matches!(e, Entry::Tombstone))
            .collect();
        Component::new(entries.into_keys().collect(), &deleted, storage)
    }

    /// Number of keys (including tombstones).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// No keys at all?
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate the component's keys in key order, each with its liveness
    /// (`false` = tombstone).
    pub fn iter(&self) -> impl Iterator<Item = (&KeyOrd, bool)> {
        (0..self.keys.len()).map(|pos| (&self.keys[pos], self.row_at(pos).is_some()))
    }

    /// The component's storage image.
    pub fn storage(&self) -> &ComponentStorage {
        &self.storage
    }

    /// Byte size of the storage image.
    pub fn storage_size_bytes(&self) -> usize {
        self.storage.size_bytes()
    }

    /// Number of live (non-tombstone) keys.
    pub fn live_records(&self) -> usize {
        self.live
    }

    /// Position of `key`, by binary search.
    fn find(&self, key: &AdmValue) -> Option<usize> {
        self.keys.binary_search_by(|k| k.0.total_cmp(key)).ok()
    }

    /// Image row of the key at `pos` (`None`: a tombstone).
    fn row_at(&self, pos: usize) -> Option<usize> {
        match self.rows.get(pos) {
            None => Some(pos),
            Some(&TOMBSTONE) => None,
            Some(&row) => Some(row as usize),
        }
    }

    /// The positions `[start, end)` of the keys with `lo <= key <= hi`.
    fn span(&self, lo: Option<&AdmValue>, hi: Option<&AdmValue>) -> (usize, usize) {
        let below = |bound: &AdmValue, inclusive: bool| {
            self.keys.partition_point(|k| match k.0.total_cmp(bound) {
                Ordering::Less => true,
                Ordering::Equal => inclusive,
                Ordering::Greater => false,
            })
        };
        (
            lo.map_or(0, |lo| below(lo, false)),
            hi.map_or(self.keys.len(), |hi| below(hi, true)),
        )
    }
}

/// Where [`SortedRuns`] found the newest version of a key.
enum Source<'a> {
    /// The memtable.
    Mem(&'a Entry),
    /// Component index and key position.
    Run(usize, usize),
}

/// The one ordered read path: a newest-wins k-way merge over the memtable
/// (optional) and a stack of sorted runs (newest first). Yields every key of
/// the range once, in key order, with the newest source holding it —
/// tombstones included, the caller decides what they mean. `k` is bounded by
/// the merge policy, so the minimum is found by a linear pass over the run
/// heads: `k − 1` key comparisons per key yielded.
struct SortedRuns<'a> {
    mem: Option<Peekable<btree_map::Range<'a, KeyOrd, Entry>>>,
    components: &'a [Arc<Component>],
    /// Per component: next position and end of its span.
    spans: Vec<(usize, usize)>,
    /// Components whose head holds the key being yielded.
    tied: Vec<usize>,
}

impl<'a> SortedRuns<'a> {
    /// Over the keys `lo..=hi` (both optional; empty when `lo > hi`).
    fn new(
        mem: Option<&'a BTreeMap<KeyOrd, Entry>>,
        components: &'a [Arc<Component>],
        lo: Option<&AdmValue>,
        hi: Option<&AdmValue>,
    ) -> Self {
        let empty =
            matches!((lo, hi), (Some(lo), Some(hi)) if lo.total_cmp(hi) == Ordering::Greater);
        fn bound(b: Option<&AdmValue>) -> Bound<&dyn AsKey> {
            b.map_or(Bound::Unbounded, |v| Bound::Included(v as &dyn AsKey))
        }
        SortedRuns {
            mem: mem
                .filter(|_| !empty)
                .map(|m| m.range::<dyn AsKey, _>((bound(lo), bound(hi))).peekable()),
            spans: components
                .iter()
                .map(|c| if empty { (0, 0) } else { c.span(lo, hi) })
                .collect(),
            components,
            tied: Vec::with_capacity(components.len()),
        }
    }
}

impl<'a> Iterator for SortedRuns<'a> {
    type Item = (&'a KeyOrd, Source<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let mut min = self.mem.as_mut().and_then(|m| m.peek()).map(|(k, _)| *k);
        let mut in_mem = min.is_some();
        self.tied.clear();
        for (ci, &(pos, end)) in self.spans.iter().enumerate() {
            if pos == end {
                continue;
            }
            let key = &self.components[ci].keys[pos];
            match min.map_or(Ordering::Less, |m| key.cmp(m)) {
                Ordering::Less => {
                    min = Some(key);
                    in_mem = false;
                    self.tied.clear();
                    self.tied.push(ci);
                }
                Ordering::Equal => self.tied.push(ci),
                Ordering::Greater => {}
            }
        }
        let key = min?;
        // newest wins: the memtable, else the first (newest) tied run; every
        // older version of the key is consumed with it
        let source = if in_mem {
            Source::Mem(self.mem.as_mut()?.next()?.1)
        } else {
            Source::Run(self.tied[0], self.spans[self.tied[0]].0)
        };
        for &ci in &self.tied {
            self.spans[ci].0 += 1;
        }
        Some((key, source))
    }
}

/// What a merge produced, and how its image was built.
#[derive(Debug)]
pub struct Merged {
    /// The merged run.
    pub component: Component,
    /// Rows whose image cells were copied out of the input images.
    pub rows_copied: u64,
    /// Rows encoded afresh from their records (inputs' layouts differed).
    pub rows_reencoded: u64,
}

/// Merge `inputs` (newest first, as [`LsmTree::components_snapshot`] returns
/// them) into a single component, discarding shadowed versions and dropping
/// tombstones. Works entirely by reference over the shared components: the
/// only per-survivor work besides its image cells is one key clone.
///
/// Dropping tombstones is sound only when `inputs` end at the oldest
/// component of the tree — which a snapshot always does, and which
/// [`LsmTree::install_merged`] re-verifies before swapping the result in.
///
/// `spin_per_entry` busy-spins per surviving entry, modelling merge I/O cost
/// in capacity experiments (0 = free).
pub fn merge_components(inputs: &[Arc<Component>], spin_per_entry: u64) -> Component {
    merge_components_with(inputs, spin_per_entry, &LayoutConfig::default()).component
}

/// [`merge_components`] with an explicit storage-layout policy. Inputs that
/// are all compacted under one layout have their cells copied into the
/// merged image; otherwise the surviving records are rebuilt from the input
/// images and encoded afresh, and any slot that every compacted input agreed
/// on stays a slot (conforming slots are never rewritten into the residual
/// by a merge).
pub fn merge_components_with(
    inputs: &[Arc<Component>],
    spin_per_entry: u64,
    layout: &LayoutConfig,
) -> Merged {
    let mut keys = Vec::with_capacity(inputs.iter().map(|c| c.live).sum());
    // (input, image row) of every survivor, in key order
    let mut picks: Vec<(u32, u32)> = Vec::with_capacity(keys.capacity());
    for (key, source) in SortedRuns::new(None, inputs, None, None) {
        let Source::Run(ci, pos) = source else {
            continue;
        };
        if let Some(row) = inputs[ci].row_at(pos) {
            if spin_per_entry > 0 {
                let mut acc = 0u64;
                for i in 0..spin_per_entry {
                    acc = acc.wrapping_add(i).rotate_left(1);
                }
                std::hint::black_box(acc);
            }
            keys.push(key.clone());
            picks.push((ci as u32, row as u32));
        }
    }
    keys.shrink_to_fit();
    let survivors = keys.len() as u64;
    // `None` unless every input carries a compacted image
    let blocks: Option<Vec<&CompactedBlock>> = inputs
        .iter()
        .map(|c| match &c.storage {
            ComponentStorage::Compacted(b) => Some(b),
            ComponentStorage::Open(_) => None,
        })
        .collect();
    let copied = blocks
        .as_deref()
        .filter(|_| layout.compact)
        .and_then(|blocks| CompactedBlock::copy_rows(blocks, &picks))
        // dropped rows can only have pushed the churn over the threshold
        // when they held what conformed; rare enough to re-encode then
        .filter(|b| b.schema().churn(&b.slot_names()) <= layout.churn_threshold);
    match copied {
        Some(block) => Merged {
            component: Component::new(keys, &[], ComponentStorage::Compacted(block)),
            rows_copied: survivors,
            rows_reencoded: 0,
        },
        None => {
            // Slot stability across the merge: the intersection of the
            // inputs' slot sets (a fallback input has no slots to preserve).
            let stable = blocks.map_or(Vec::new(), |blocks| {
                let mut names = blocks.iter().map(|b| b.slot_names());
                let first = names.next().unwrap_or_default();
                names.fold(first, |acc, names| {
                    acc.into_iter().filter(|n| names.contains(n)).collect()
                })
            });
            // the survivors' records, rebuilt from the input images
            let mut records = Vec::new();
            let ends: Vec<usize> = picks
                .iter()
                .map(|&(ci, row)| {
                    inputs[ci as usize]
                        .storage
                        .row_bytes_into(row as usize, &mut records);
                    records.len()
                })
                .collect();
            let mut start = 0;
            let rows: Vec<&[u8]> = ends
                .iter()
                .map(|&end| &records[std::mem::replace(&mut start, end)..end])
                .collect();
            Merged {
                component: Component::new(
                    keys,
                    &[],
                    ComponentStorage::encode(&rows, layout, &stable),
                ),
                rows_copied: 0,
                rows_reencoded: survivors,
            }
        }
    }
}

/// Storage-layout policy for sealed components.
#[derive(Debug, Clone)]
pub struct LayoutConfig {
    /// Attempt the schema-inferred compacted layout at all. When unset,
    /// every component uses the uncompacted open layout.
    pub compact: bool,
    /// Fall back to the open layout when the fraction of field occurrences
    /// landing in the residual section would exceed this.
    pub churn_threshold: f64,
    /// A field earns a column slot only when present in at least this
    /// fraction of the component's records (sparser fields cost more in
    /// offsets than they save, and belong in the residual).
    pub min_slot_presence: f64,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig {
            compact: true,
            churn_threshold: 0.35,
            min_slot_presence: 0.5,
        }
    }
}

impl LayoutConfig {
    /// An always-open (uncompacted) layout — the pre-compaction behaviour,
    /// kept for comparisons and as the forced-fallback escape hatch.
    pub fn open() -> Self {
        LayoutConfig {
            compact: false,
            ..LayoutConfig::default()
        }
    }
}

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Flush the memtable after this many entries.
    pub memtable_budget: usize,
    /// Merge once more than this many components exist.
    pub max_components: usize,
    /// When set, a flush only *seals* the memtable into a component and
    /// never merges inline — an external compactor (the partition's
    /// background worker) is responsible for merging. When unset, exceeding
    /// `max_components` merges inline as part of the flush.
    pub defer_merge: bool,
    /// Storage layout for sealed/merged components.
    pub layout: LayoutConfig,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_budget: 4096,
            max_components: 4,
            defer_merge: false,
            layout: LayoutConfig::default(),
        }
    }
}

/// The LSM tree.
#[derive(Debug)]
pub struct LsmTree {
    config: LsmConfig,
    memtable: BTreeMap<KeyOrd, Entry>,
    /// Resident bytes of the memtable: its keys and payloads.
    memtable_bytes: usize,
    /// newest first
    components: Vec<Arc<Component>>,
    flushes: u64,
    merges: u64,
    schema_inferred: u64,
    fallbacks: u64,
}

impl LsmTree {
    /// Empty tree.
    pub fn new(config: LsmConfig) -> Self {
        LsmTree {
            config,
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            components: Vec::new(),
            flushes: 0,
            merges: 0,
            schema_inferred: 0,
            fallbacks: 0,
        }
    }

    /// Insert or replace the record under `key`: the one write. `payload`
    /// is the record's binary ADM encoding and must have passed the checked
    /// walk ([`asterix_adm::binary::validate`]) — everything downstream
    /// (seal, merge, reads) trusts it. The buffer is shared, not copied.
    pub fn put_bytes(&mut self, key: AdmValue, payload: Bytes) {
        self.write(key, Entry::Put(payload));
    }

    /// [`LsmTree::put_bytes`] for a caller holding a value: encodes it once.
    pub fn put(&mut self, key: AdmValue, value: AdmValue) {
        self.put_bytes(key, encode_value(&value).into());
    }

    /// [`LsmTree::put_bytes`] for a caller holding a shared value: encodes
    /// it once.
    pub fn put_shared(&mut self, key: AdmValue, value: Arc<AdmValue>) {
        self.put_bytes(key, encode_value(&value).into());
    }

    /// Delete `key` (tombstone).
    pub fn delete(&mut self, key: AdmValue) {
        self.write(key, Entry::Tombstone);
    }

    fn write(&mut self, key: AdmValue, entry: Entry) {
        let (new_key, new_payload) = (key_bytes(&key), entry.payload_len());
        self.memtable_bytes += new_payload;
        match self.memtable.insert(KeyOrd(key), entry) {
            // the map kept its own key
            Some(old) => self.memtable_bytes -= old.payload_len(),
            None => self.memtable_bytes += new_key,
        }
        if self.memtable.len() >= self.config.memtable_budget {
            self.flush();
        }
    }

    /// The newest version of `key`: memtable first, then the runs newest to
    /// oldest. Probes by reference — no key is cloned.
    fn lookup(&self, key: &AdmValue) -> Option<Source<'_>> {
        if let Some(entry) = self.memtable.get(key as &dyn AsKey) {
            return Some(Source::Mem(entry));
        }
        self.components
            .iter()
            .enumerate()
            .find_map(|(ci, c)| Some(Source::Run(ci, c.find(key)?)))
    }

    /// The live record of a version (`None` for a tombstone).
    fn live_ref<'a>(&'a self, source: Source<'a>) -> Option<LiveRef<'a>> {
        match source {
            Source::Mem(Entry::Tombstone) => None,
            Source::Mem(Entry::Put(payload)) => Some(LiveRef::Mem(payload)),
            Source::Run(ci, pos) => {
                let c = &self.components[ci];
                Some(LiveRef::Sealed(c, c.row_at(pos)?))
            }
        }
    }

    /// Point lookup by reference: where `key`'s live record is, nothing
    /// decoded yet.
    pub fn get_ref(&self, key: &AdmValue) -> Option<LiveRef<'_>> {
        self.live_ref(self.lookup(key)?)
    }

    /// Point lookup: the record, materialized.
    pub fn get(&self, key: &AdmValue) -> Option<AdmValue> {
        self.get_ref(key)?.materialize()
    }

    /// Does `key` currently have a live record?
    pub fn contains(&self, key: &AdmValue) -> bool {
        self.get_ref(key).is_some()
    }

    /// Visit the newest version of every key in `[lo, hi]` (both optional),
    /// in key order, tombstones excluded, as a [`LiveRef`] — by reference,
    /// nothing is decoded until the visitor asks. Sealed records are
    /// addressed by their storage-image row, so per-field reads decode one
    /// column cell instead of touching the whole record.
    pub fn for_each_live_in(
        &self,
        lo: Option<&AdmValue>,
        hi: Option<&AdmValue>,
        mut f: impl FnMut(&AdmValue, LiveRef<'_>),
    ) {
        for (key, source) in SortedRuns::new(Some(&self.memtable), &self.components, lo, hi) {
            if let Some(live) = self.live_ref(source) {
                f(&key.0, live);
            }
        }
    }

    /// Visit every live record in key order — the vectorized scan entry
    /// point.
    pub fn for_each_live_ref(&self, f: impl FnMut(&AdmValue, LiveRef<'_>)) {
        self.for_each_live_in(None, None, f)
    }

    /// Visit one field of every live record — single-field scans touch one
    /// column stride per compacted component. The value is `None` when the
    /// record lacks the field.
    pub fn for_each_live_field(&self, name: &str, mut f: impl FnMut(&AdmValue, Option<AdmValue>)) {
        self.for_each_live_ref(|k, r| f(k, r.field(name)));
    }

    /// Point lookup of a single field: resolves the key's component, then
    /// decodes only the requested field from its storage image.
    pub fn get_field(&self, key: &AdmValue, name: &str) -> Option<AdmValue> {
        self.get_ref(key)?.field(name)
    }

    /// Total bytes of the components' storage images — the tree's
    /// disk-equivalent footprint (the memtable is not counted).
    pub fn storage_bytes(&self) -> usize {
        self.components.iter().map(|c| c.storage_size_bytes()).sum()
    }

    /// Bytes the tree keeps resident: the memtable's keys and payloads plus
    /// every component's keys and storage image. O(components).
    pub fn resident_bytes(&self) -> usize {
        let sealed = |c: &Arc<Component>| c.key_bytes + c.storage_size_bytes();
        self.memtable_bytes + self.components.iter().map(sealed).sum::<usize>()
    }

    /// Live records across sealed components (memtable excluded) — the
    /// denominator for bytes-per-record accounting.
    pub fn component_live_records(&self) -> usize {
        self.components.iter().map(|c| c.live_records()).sum()
    }

    /// Lifetime count of components sealed/merged into the compacted layout.
    pub fn schema_inferred_components(&self) -> u64 {
        self.schema_inferred
    }

    /// Lifetime count of components that fell back to the open layout.
    pub fn fallback_components(&self) -> u64 {
        self.fallbacks
    }

    /// Range scan over live records, `lo..=hi` inclusive on both ends (pass
    /// `None` for open ends). Results are key-ordered; each surviving record
    /// is materialized exactly once.
    pub fn scan_range(
        &self,
        lo: Option<&AdmValue>,
        hi: Option<&AdmValue>,
    ) -> Vec<(AdmValue, AdmValue)> {
        let mut out = Vec::new();
        self.for_each_live_in(lo, hi, |k, r| {
            out.extend(r.materialize().map(|v| (k.clone(), v)))
        });
        out
    }

    /// All live records in key order.
    pub fn scan_all(&self) -> Vec<(AdmValue, AdmValue)> {
        self.scan_range(None, None)
    }

    /// Count of live records (full walk, but nothing is decoded).
    pub fn live_count(&self) -> usize {
        let mut n = 0;
        self.for_each_live_ref(|_, _| n += 1);
        n
    }

    /// At least [`LsmTree::live_count`], in O(components): every memtable
    /// entry plus every live key of every run, shadowed versions included —
    /// what a scan sizes its output by.
    pub fn live_upper_bound(&self) -> usize {
        self.memtable.len() + self.component_live_records()
    }

    /// Seal the memtable into an immutable component (no merge, ever) —
    /// the only mutation a hot-path insert can trigger in deferred mode.
    /// Sealing infers the schema and encodes the component's storage image
    /// (compacted, or open on churn fallback) in two walks over the
    /// payloads, then lets go of them.
    pub fn seal(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        self.memtable_bytes = 0;
        let entries = std::mem::take(&mut self.memtable);
        let component = Component::seal(entries, &self.config.layout);
        self.note_component(&component);
        self.components.insert(0, Arc::new(component));
        self.flushes += 1;
    }

    fn note_component(&mut self, c: &Component) {
        match c.storage {
            ComponentStorage::Compacted(_) => self.schema_inferred += 1,
            ComponentStorage::Open(_) => self.fallbacks += 1,
        }
    }

    /// Force a memtable flush. In deferred-merge mode this only seals; in
    /// inline mode it also merges once the component count exceeds the
    /// threshold.
    pub fn flush(&mut self) {
        self.seal();
        if !self.config.defer_merge && self.needs_merge() {
            self.merge_all();
        }
    }

    /// Whether enough components accumulated that a merge is due.
    pub fn needs_merge(&self) -> bool {
        self.components.len() > self.config.max_components
    }

    /// The current component stack (newest first), `Arc`-shared: the input
    /// to an off-lock [`merge_components`] run.
    pub fn components_snapshot(&self) -> Vec<Arc<Component>> {
        self.components.clone()
    }

    /// Swap `merged` in for the `inputs` it was built from. The inputs must
    /// still be the *oldest* suffix of the component stack (pointer
    /// equality); components sealed while the merge ran stay in front.
    /// Returns `false` — leaving the tree untouched — if the stack changed
    /// incompatibly (e.g. another merge won, or recovery rebuilt the tree).
    pub fn install_merged(&mut self, inputs: &[Arc<Component>], merged: Arc<Component>) -> bool {
        if inputs.is_empty() || self.components.len() < inputs.len() {
            return false;
        }
        let tail_start = self.components.len() - inputs.len();
        let tail_matches = self.components[tail_start..]
            .iter()
            .zip(inputs)
            .all(|(a, b)| Arc::ptr_eq(a, b));
        if !tail_matches {
            return false;
        }
        self.note_component(merged.as_ref());
        self.components.truncate(tail_start);
        self.components.push(merged);
        self.merges += 1;
        true
    }

    /// Merge every component into one inline, discarding shadowed versions
    /// and dropping tombstones (all older versions are in the merge input).
    pub fn merge_all(&mut self) {
        let snapshot = self.components_snapshot();
        let merged = merge_components_with(&snapshot, 0, &self.config.layout).component;
        self.note_component(&merged);
        self.components = vec![Arc::new(merged)];
        self.merges += 1;
    }

    /// Number of immutable components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of entries currently in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Lifetime flush count.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Lifetime merge count.
    pub fn merges(&self) -> u64 {
        self.merges
    }
}

impl Default for LsmTree {
    fn default() -> Self {
        LsmTree::new(LsmConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> LsmTree {
        LsmTree::new(LsmConfig {
            memtable_budget: 4,
            max_components: 2,
            defer_merge: false,
            layout: LayoutConfig::default(),
        })
    }

    fn k(i: i64) -> AdmValue {
        AdmValue::Int(i)
    }

    fn v(s: &str) -> AdmValue {
        AdmValue::string(s)
    }

    #[test]
    fn put_get_roundtrip() {
        let mut t = LsmTree::default();
        t.put(k(1), v("a"));
        t.put(k(2), v("b"));
        assert_eq!(t.get(&k(1)), Some(v("a")));
        assert_eq!(t.get(&k(2)), Some(v("b")));
        assert_eq!(t.get(&k(3)), None);
        assert!(t.contains(&k(1)));
    }

    #[test]
    fn value_adapters_store_what_the_bytes_path_stores() {
        let (mut by_value, mut by_bytes) = (LsmTree::default(), LsmTree::default());
        by_value.put(k(1), rec(1));
        by_value.put_shared(k(2), Arc::new(rec(2)));
        for i in [1, 2] {
            by_bytes.put_bytes(k(i), encode_value(&rec(i)).into());
        }
        assert_eq!(by_value.resident_bytes(), by_bytes.resident_bytes());
        for t in [&mut by_value, &mut by_bytes] {
            assert_eq!(t.scan_all(), vec![(k(1), rec(1)), (k(2), rec(2))]);
            t.seal();
            assert_eq!(t.scan_all(), vec![(k(1), rec(1)), (k(2), rec(2))]);
        }
        assert_eq!(by_value.storage_bytes(), by_bytes.storage_bytes());
    }

    #[test]
    fn resident_bytes_follow_the_memtable_and_the_images() {
        let mut t = LsmTree::default();
        assert_eq!(t.resident_bytes(), 0);
        let payload = encode_value(&rec(1));
        t.put_bytes(k(1), payload.clone().into());
        let one = t.resident_bytes();
        assert_eq!(one, payload.len() + key_bytes(&k(1)));
        // a replacement swaps the payload and keeps the key
        t.put_bytes(k(1), payload.clone().into());
        assert_eq!(t.resident_bytes(), one);
        t.delete(k(1));
        assert_eq!(t.resident_bytes(), key_bytes(&k(1)));
        t.put_bytes(v("a string key"), payload.into());
        t.seal();
        assert_eq!(
            t.resident_bytes(),
            t.storage_bytes() + key_bytes(&k(1)) + key_bytes(&v("a string key")),
            "sealed: keys and image, the payloads are gone"
        );
    }

    #[test]
    fn replace_takes_latest() {
        let mut t = small_tree();
        t.put(k(1), v("old"));
        // force old version into a component
        t.flush();
        t.put(k(1), v("new"));
        assert_eq!(t.get(&k(1)), Some(v("new")));
    }

    #[test]
    fn delete_shadows_older_components() {
        let mut t = small_tree();
        t.put(k(1), v("a"));
        t.flush();
        t.delete(k(1));
        assert_eq!(t.get(&k(1)), None);
        assert!(!t.contains(&k(1)));
        // even after the tombstone itself is flushed
        t.flush();
        assert_eq!(t.get(&k(1)), None);
    }

    #[test]
    fn automatic_flush_at_budget() {
        let mut t = small_tree();
        for i in 0..4 {
            t.put(k(i), v("x"));
        }
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.flushes(), 1);
        assert_eq!(t.memtable_len(), 0);
    }

    #[test]
    fn merge_reclaims_tombstones() {
        let mut t = small_tree();
        for i in 0..4 {
            t.put(k(i), v("x"));
        }
        t.delete(k(0));
        t.delete(k(1));
        t.flush();
        t.put(k(9), v("y"));
        t.flush(); // exceeds max_components=2 → merge
        assert_eq!(t.component_count(), 1);
        assert!(t.merges() >= 1);
        let live = t.scan_all();
        let keys: Vec<i64> = live.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, vec![2, 3, 9]);
    }

    #[test]
    fn deferred_mode_seals_without_merging() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 2,
            max_components: 1,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        for i in 0..8 {
            t.put(k(i), v("x"));
        }
        // four seals, zero merges: the insert path never compacted
        assert_eq!(t.component_count(), 4);
        assert_eq!(t.merges(), 0);
        assert!(t.needs_merge());
        // an external compactor merges from a snapshot and installs
        let snap = t.components_snapshot();
        let merged = Arc::new(merge_components(&snap, 0));
        assert!(t.install_merged(&snap, merged));
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.live_count(), 8);
    }

    #[test]
    fn install_merged_keeps_components_sealed_during_the_merge() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 2,
            max_components: 1,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        for i in 0..4 {
            t.put(k(i), v("old"));
        }
        let snap = t.components_snapshot();
        assert_eq!(snap.len(), 2);
        let merged = Arc::new(merge_components(&snap, 0));
        // a concurrent seal lands while the merge "runs"
        t.put(k(100), v("new"));
        t.put(k(101), v("new"));
        assert_eq!(t.component_count(), 3);
        assert!(t.install_merged(&snap, merged));
        // the newer component survived in front of the merged result
        assert_eq!(t.component_count(), 2);
        assert_eq!(t.live_count(), 6);
        assert_eq!(t.get(&k(100)), Some(v("new")));
        assert_eq!(t.get(&k(0)), Some(v("old")));
    }

    #[test]
    fn install_merged_refuses_a_stale_snapshot() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 2,
            max_components: 1,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        for i in 0..4 {
            t.put(k(i), v("x"));
        }
        let snap = t.components_snapshot();
        let merged = Arc::new(merge_components(&snap, 0));
        // another merge won the race and replaced the tail
        t.merge_all();
        assert!(!t.install_merged(&snap, merged));
        assert_eq!(t.live_count(), 4);
        // empty input never installs
        assert!(!t.install_merged(&[], Arc::new(Component::default())));
    }

    #[test]
    fn merge_components_drops_shadowed_versions_and_tombstones() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 2,
            max_components: 10,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        t.put(k(1), v("v1"));
        t.put(k(2), v("x"));
        t.delete(k(2));
        t.put(k(1), v("v2"));
        t.seal();
        let snap = t.components_snapshot();
        let merged = merge_components(&snap, 0);
        assert_eq!(merged.len(), 1, "tombstone dropped, one survivor");
        assert_eq!(merged.iter().collect::<Vec<_>>(), [(&KeyOrd(k(1)), true)]);
        assert_eq!(merged.storage().materialize(0), Some(v("v2")));
    }

    #[test]
    fn scan_range_is_inclusive_and_ordered() {
        let mut t = small_tree();
        for i in (0..10).rev() {
            t.put(k(i), v("x"));
        }
        let r = t.scan_range(Some(&k(3)), Some(&k(6)));
        let keys: Vec<i64> = r.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, vec![3, 4, 5, 6]);
        // open ends
        assert_eq!(t.scan_range(None, Some(&k(1))).len(), 2);
        assert_eq!(t.scan_range(Some(&k(8)), None).len(), 2);
    }

    #[test]
    fn scan_sees_latest_version_across_components() {
        let mut t = small_tree();
        t.put(k(1), v("v1"));
        t.flush();
        t.put(k(1), v("v2"));
        t.flush();
        t.put(k(1), v("v3"));
        let all = t.scan_all();
        assert_eq!(all, vec![(k(1), v("v3"))]);
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn for_each_live_ref_hides_tombstones_and_shadowed_versions() {
        let mut t = small_tree();
        t.put(k(2), v("b"));
        t.flush();
        t.put(k(1), v("a"));
        t.delete(k(2));
        let mut seen = Vec::new();
        t.for_each_live_ref(|key, r| seen.push((key.clone(), r.materialize())));
        assert_eq!(seen, vec![(k(1), Some(v("a")))]);
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.live_upper_bound(), 3, "two memtable entries, one sealed");
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut t = small_tree();
        t.flush();
        assert_eq!(t.component_count(), 0);
        assert_eq!(t.flushes(), 0);
    }

    #[test]
    fn string_keys_work() {
        let mut t = LsmTree::default();
        t.put(v("tweet-1"), v("payload"));
        assert_eq!(t.get(&v("tweet-1")), Some(v("payload")));
    }

    fn rec(i: i64) -> AdmValue {
        AdmValue::record(vec![
            ("id", k(i)),
            ("name", v(&format!("n{i}"))),
            ("score", AdmValue::Double(i as f64)),
        ])
    }

    #[test]
    fn sealing_records_builds_a_compacted_image() {
        let mut t = small_tree();
        for i in 0..4 {
            t.put(k(i), rec(i));
        }
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.schema_inferred_components(), 1);
        assert_eq!(t.fallback_components(), 0);
        assert!(t.storage_bytes() > 0);
        assert_eq!(t.component_live_records(), 4);
        let snap = t.components_snapshot();
        assert!(snap[0].storage().is_compacted());
    }

    #[test]
    fn opaque_values_fall_back_to_the_open_layout() {
        let mut t = small_tree();
        for i in 0..4 {
            t.put(k(i), v("just a string"));
        }
        assert_eq!(t.schema_inferred_components(), 0);
        assert_eq!(t.fallback_components(), 1);
        let snap = t.components_snapshot();
        assert!(!snap[0].storage().is_compacted());
        // reads still work through the open image
        assert_eq!(t.get(&k(2)), Some(v("just a string")));
    }

    #[test]
    fn compaction_disabled_always_uses_open_layout() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 4,
            max_components: 2,
            defer_merge: false,
            layout: LayoutConfig::open(),
        });
        for i in 0..4 {
            t.put(k(i), rec(i));
        }
        assert_eq!(t.schema_inferred_components(), 0);
        assert_eq!(t.fallback_components(), 1);
    }

    #[test]
    fn get_field_and_live_field_scan_agree_with_full_reads() {
        let mut t = small_tree();
        for i in 0..10 {
            t.put(k(i), rec(i));
        }
        t.delete(k(3));
        t.put(k(4), rec(400)); // newer version shadows sealed one
        for i in 0..10 {
            let want = t.get(&k(i)).and_then(|r| r.field("name").cloned());
            assert_eq!(t.get_field(&k(i), "name"), want, "key {i}");
        }
        assert_eq!(t.get_field(&k(99), "name"), None);
        let mut scanned = Vec::new();
        t.for_each_live_field("name", |key, val| scanned.push((key.clone(), val)));
        let full: Vec<(AdmValue, Option<AdmValue>)> = t
            .scan_all()
            .into_iter()
            .map(|(key, r)| {
                let f = r.field("name").cloned();
                (key, f)
            })
            .collect();
        assert_eq!(scanned, full);
    }

    #[test]
    fn probes_borrow_the_key_and_compare_like_the_memtable_orders() {
        let mut t = small_tree();
        for i in 0..6 {
            t.put(k(i), rec(i)); // 0..4 sealed, 4..6 in the memtable
        }
        // numbers compare across width, exactly as `KeyOrd` orders them
        for i in [1, 5] {
            let as_double = AdmValue::Double(i as f64);
            assert!(t.contains(&as_double));
            assert_eq!(t.get(&as_double), Some(rec(i)));
            assert_eq!(t.get_field(&as_double, "score"), Some(as_double.clone()));
        }
        assert!(!t.contains(&AdmValue::Double(1.5)));
        assert!(!t.contains(&v("1")));
        // an inverted range is empty, not a panic
        assert!(t.scan_range(Some(&k(4)), Some(&k(2))).is_empty());
    }

    #[test]
    fn merge_preserves_slots_the_inputs_agreed_on() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 4,
            max_components: 10,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        // two compacted components over the same schema
        for i in 0..8 {
            t.put(k(i), rec(i));
        }
        let snap = t.components_snapshot();
        assert_eq!(snap.len(), 2);
        let input_slots: Vec<Vec<String>> = snap
            .iter()
            .map(|c| match c.storage() {
                ComponentStorage::Compacted(b) => b.slot_names(),
                ComponentStorage::Open(_) => panic!("expected compacted inputs"),
            })
            .collect();
        let merged = merge_components_with(&snap, 0, &LayoutConfig::default()).component;
        let merged_slots = match merged.storage() {
            ComponentStorage::Compacted(b) => b.slot_names(),
            ComponentStorage::Open(_) => panic!("merge of compacted inputs stayed compacted"),
        };
        for slot in input_slots[0].iter().filter(|s| input_slots[1].contains(s)) {
            assert!(
                merged_slots.contains(slot),
                "slot {slot} dropped by the merge"
            );
        }
        assert_eq!(merged.live_records(), 8);
    }

    #[test]
    fn merged_image_serves_reads_after_install() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 2,
            max_components: 1,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        for i in 0..8 {
            t.put(k(i), rec(i));
        }
        let snap = t.components_snapshot();
        let merged = merge_components_with(&snap, 0, &LayoutConfig::default()).component;
        assert!(t.install_merged(&snap, Arc::new(merged)));
        assert!(t.schema_inferred_components() >= snap.len() as u64);
        for i in 0..8 {
            assert_eq!(
                t.get_field(&k(i), "name"),
                Some(v(&format!("n{i}"))),
                "key {i}"
            );
        }
    }
}
