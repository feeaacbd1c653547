//! Versioned, checksummed on-disk artifacts: encoded datasets and mined
//! itemset lattices.
//!
//! The frequent-itemset lattice depends only on the dataset and the
//! support threshold. A new classifier's label vector `u` changes the
//! `(T, F, ⊥)` payload tallies but never the lattice, so re-analysis
//! against a persisted lattice is a streaming recount
//! ([`fpm::MiningTask::recount`]) — not a re-mine. This module stores
//! both halves of that contract: the encoded dataset (item dictionary,
//! per-item bitsets, row count, label vectors) and the mined candidate
//! lattice keyed by `(dataset hash, support, engine, max_len)`.
//!
//! # File layout
//!
//! All integers are little-endian.
//!
//! ```text
//! magic            b"DIVX"                      4 bytes
//! format version   u32                          [`FORMAT_VERSION`]
//! kind             u32                          1 = dataset, 2 = arena
//! dataset hash     u64                          FNV-1a over schema + codes
//! section count    u32
//! section table    count × { tag u32, offset u64, len u64 }
//! sections         raw bytes, table order
//! checksum         u64   FNV-1a over every preceding byte
//! ```
//!
//! Validation order is fixed: length → magic → version → kind →
//! checksum → section decode. A version bump therefore fails with
//! [`ArtifactError::UnsupportedVersion`] even when the checksum was
//! recomputed, and any flipped body byte fails with
//! [`ArtifactError::ChecksumMismatch`]. Every failure is a typed error;
//! loading never panics on untrusted bytes.
//!
//! Encoding is deterministic: save → load → save reproduces the file
//! bit-identically (asserted by the round-trip proptests).

use std::path::Path;

pub use divexplorer::ArenaKey;
use divexplorer::{DiscreteDataset, DivergenceReport, Schema};
use fpm::ItemsetArena;

use crate::artifact_io::{atomic_write, ArtifactIo, DiskIo};

/// File magic, the first four bytes of every artifact.
pub const MAGIC: [u8; 4] = *b"DIVX";

/// Current format version. Readers reject any other value.
pub const FORMAT_VERSION: u32 = 1;

/// Header `kind` of a dataset artifact.
pub const KIND_DATASET: u32 = 1;

/// Header `kind` of a mined-arena artifact.
pub const KIND_ARENA: u32 = 2;

/// Header `kind` of the retired compressed row-shard artifact (`.dxs`).
/// No reader decodes it any more; the number stays reserved so it is
/// never reused, and [`probe`] still names an old file's kind.
pub const KIND_SHARDS: u32 = 3;

const SEC_SCHEMA: u32 = 1;
const SEC_SHAPE: u32 = 2;
const SEC_ITEM_BITS: u32 = 3;
const SEC_LABELS: u32 = 4;
const SEC_KEY: u32 = 1;
const SEC_ITEMSETS: u32 = 2;

/// Why an artifact failed to load. Every corruption mode maps to a
/// variant — loading untrusted bytes never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Underlying filesystem failure.
    Io(String),
    /// The file is shorter than the fixed header + checksum.
    TooShort { got: usize },
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    UnsupportedVersion { got: u32, want: u32 },
    /// The header kind differs from what the caller asked to load.
    WrongKind { got: u32, want: u32 },
    /// The trailing FNV-1a checksum does not match the file contents.
    ChecksumMismatch { got: u64, want: u64 },
    /// The envelope validated but a section is inconsistent (bad
    /// offsets, out-of-domain codes, non-canonical itemsets, …).
    Malformed(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io: {e}"),
            ArtifactError::TooShort { got } => {
                write!(f, "artifact too short: {got} bytes")
            }
            ArtifactError::BadMagic => f.write_str("not a DIVX artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { got, want } => {
                write!(
                    f,
                    "unsupported artifact version {got} (reader supports {want})"
                )
            }
            ArtifactError::WrongKind { got, want } => {
                write!(f, "wrong artifact kind {got} (expected {want})")
            }
            ArtifactError::ChecksumMismatch { got, want } => {
                write!(f, "artifact checksum mismatch: file says {want:#018x}, contents hash to {got:#018x}")
            }
            ArtifactError::Malformed(m) => write!(f, "malformed artifact: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Hashing

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Content hash of a dataset: FNV-1a 64 over its schema (JSON) and its
/// row-major value codes. Arena artifacts carry this hash so a lattice
/// is never recounted against a different table than it was mined on.
pub fn dataset_hash(data: &DiscreteDataset) -> u64 {
    let schema_json =
        serde_json::to_string(data.schema()).expect("schema serialization is infallible");
    let mut h = fnv1a(FNV_OFFSET, schema_json.as_bytes());
    for r in 0..data.n_rows() {
        for &code in data.row(r) {
            h = fnv1a(h, &code.to_le_bytes());
        }
    }
    h
}

/// Order-free fingerprint of a report's lattice: the wrapping sum over
/// patterns of FNV-1a 64 over the pattern's items, support and each
/// metric's T/F/⊥ (all little-endian), read through the public report
/// API. Every engine that mines the same lattice gives the same value;
/// `reports/bench/pins.json` pins it per Figure-6 cell.
pub fn lattice_fingerprint(report: &DivergenceReport) -> u64 {
    let mut sum = 0u64;
    for idx in 0..report.len() {
        let mut h = FNV_OFFSET;
        for &item in report.items(idx) {
            h = fnv1a(h, &item.to_le_bytes());
        }
        h = fnv1a(h, &report.support(idx).to_le_bytes());
        let counts = report.counts(idx);
        for m in 0..report.metrics().len() {
            let c = counts.get(m);
            for x in [c.t, c.f, c.bot] {
                h = fnv1a(h, &x.to_le_bytes());
            }
        }
        sum = sum.wrapping_add(h);
    }
    sum
}

// ---------------------------------------------------------------------
// Envelope writer / reader

struct Writer {
    kind: u32,
    hash: u64,
    sections: Vec<(u32, Vec<u8>)>,
}

impl Writer {
    fn new(kind: u32, hash: u64) -> Self {
        Writer {
            kind,
            hash,
            sections: Vec::new(),
        }
    }

    fn section(&mut self, tag: u32, bytes: Vec<u8>) {
        self.sections.push((tag, bytes));
    }

    fn finish(self) -> Vec<u8> {
        let header = 4 + 4 + 4 + 8 + 4;
        let table = self.sections.len() * 20;
        let body: usize = self.sections.iter().map(|(_, b)| b.len()).sum();
        let mut out = Vec::with_capacity(header + table + body + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&self.hash.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = (header + table) as u64;
        for (tag, bytes) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            offset += bytes.len() as u64;
        }
        for (_, bytes) in &self.sections {
            out.extend_from_slice(bytes);
        }
        let checksum = fnv1a(FNV_OFFSET, &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

struct Envelope<'a> {
    kind: u32,
    hash: u64,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> Envelope<'a> {
    /// Validates the fixed header, checksum and section table. Does not
    /// interpret section contents.
    fn parse(bytes: &'a [u8]) -> Result<Self, ArtifactError> {
        const HEADER: usize = 4 + 4 + 4 + 8 + 4;
        if bytes.len() < HEADER + 8 {
            return Err(ArtifactError::TooShort { got: bytes.len() });
        }
        if bytes[..4] != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = read_u32(bytes, 4);
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                got: version,
                want: FORMAT_VERSION,
            });
        }
        let kind = read_u32(bytes, 8);
        let hash = read_u64(bytes, 12);
        let payload_end = bytes.len() - 8;
        let stored = read_u64(bytes, payload_end);
        let computed = fnv1a(FNV_OFFSET, &bytes[..payload_end]);
        if stored != computed {
            return Err(ArtifactError::ChecksumMismatch {
                got: computed,
                want: stored,
            });
        }
        let n_sections = read_u32(bytes, 20) as usize;
        let table_end = HEADER + n_sections * 20;
        if table_end > payload_end {
            return Err(ArtifactError::Malformed(format!(
                "section table of {n_sections} entries exceeds the file"
            )));
        }
        let mut sections = Vec::with_capacity(n_sections);
        for s in 0..n_sections {
            let at = HEADER + s * 20;
            let tag = read_u32(bytes, at);
            let offset = read_u64(bytes, at + 4) as usize;
            let len = read_u64(bytes, at + 12) as usize;
            let end = offset.checked_add(len).filter(|&e| e <= payload_end);
            match end {
                Some(end) if offset >= table_end => {
                    sections.push((tag, &bytes[offset..end]));
                }
                _ => {
                    return Err(ArtifactError::Malformed(format!(
                        "section {tag} spans [{offset}, +{len}) outside the payload"
                    )));
                }
            }
        }
        Ok(Envelope {
            kind,
            hash,
            sections,
        })
    }

    fn expect_kind(&self, want: u32) -> Result<(), ArtifactError> {
        if self.kind != want {
            return Err(ArtifactError::WrongKind {
                got: self.kind,
                want,
            });
        }
        Ok(())
    }

    fn section(&self, tag: u32) -> Result<&'a [u8], ArtifactError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, b)| *b)
            .ok_or_else(|| ArtifactError::Malformed(format!("missing section {tag}")))
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Sequential section cursor with bounds-checked typed reads; every
/// overrun becomes [`ArtifactError::Malformed`].
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    what: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Cursor { bytes, at: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(ArtifactError::Malformed(format!(
                "{} section truncated at byte {}",
                self.what, self.at
            ))),
        }
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), ArtifactError> {
        if self.at != self.bytes.len() {
            return Err(ArtifactError::Malformed(format!(
                "{} section has {} trailing bytes",
                self.what,
                self.bytes.len() - self.at
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Bit vectors

fn pack_bits(bits: impl Iterator<Item = bool>, n: usize) -> Vec<u8> {
    let mut out = vec![0u8; n.div_ceil(8)];
    for (i, b) in bits.enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn unpack_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    (0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect()
}

/// The 64-bit words of an LSB-first bitset of `n` bits packed in
/// `n.div_ceil(8)` bytes, first word first, with the padding bits past
/// `n` cleared.
fn bit_words(bytes: &[u8], n: usize) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks(8).enumerate().map(move |(w, chunk)| {
        let mut le = [0u8; 8];
        le[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(le);
        match n - w * 64 {
            live @ 0..=63 => word & ((1 << live) - 1),
            _ => word,
        }
    })
}

// ---------------------------------------------------------------------
// Dataset artifacts

/// A loaded dataset artifact: the encoded table, its label vectors, and
/// the content hash the arena registry keys on.
#[derive(Debug, Clone)]
pub struct DatasetArtifact {
    pub data: DiscreteDataset,
    /// Ground-truth labels `v`.
    pub v: Vec<bool>,
    /// Predicted labels `u` (replaceable at query time — recounting
    /// under a new `u` is the whole point of the artifact layer).
    pub u: Vec<bool>,
    /// [`dataset_hash`] of `data`, as recorded in the file header.
    pub hash: u64,
}

/// Serializes a dataset (with its label vectors) into artifact bytes.
///
/// # Panics
///
/// Panics if `v` or `u` don't have one entry per row — caller bug, not
/// a data condition.
pub fn encode_dataset(data: &DiscreteDataset, v: &[bool], u: &[bool]) -> Vec<u8> {
    assert_eq!(v.len(), data.n_rows(), "v must have one label per row");
    assert_eq!(u.len(), data.n_rows(), "u must have one label per row");
    let n_rows = data.n_rows();
    let schema = data.schema();
    let n_items = schema.n_items() as usize;
    let mut w = Writer::new(KIND_DATASET, dataset_hash(data));

    let schema_json = serde_json::to_string(schema).expect("schema serialization is infallible");
    w.section(SEC_SCHEMA, schema_json.into_bytes());

    let mut shape = Vec::with_capacity(16);
    shape.extend_from_slice(&(n_rows as u64).to_le_bytes());
    shape.extend_from_slice(&(data.n_attributes() as u32).to_le_bytes());
    shape.extend_from_slice(&(n_items as u32).to_le_bytes());
    w.section(SEC_SHAPE, shape);

    // Item dictionary order is the schema's item-id order; each item's
    // rows are one LSB-first bitset. One-hot per attribute by
    // construction, which the loader re-validates.
    let stride = n_rows.div_ceil(8);
    let mut bits = vec![0u8; n_items * stride];
    for r in 0..n_rows {
        for (a, &code) in data.row(r).iter().enumerate() {
            let id = schema.item_id(a, code as usize) as usize;
            bits[id * stride + r / 8] |= 1 << (r % 8);
        }
    }
    w.section(SEC_ITEM_BITS, bits);

    let mut labels = pack_bits(v.iter().copied(), n_rows);
    labels.extend_from_slice(&pack_bits(u.iter().copied(), n_rows));
    w.section(SEC_LABELS, labels);

    w.finish()
}

/// Parses dataset artifact bytes, validating the envelope and
/// reconstructing the table from its per-item bitsets.
pub fn decode_dataset(bytes: &[u8]) -> Result<DatasetArtifact, ArtifactError> {
    let envelope = Envelope::parse(bytes)?;
    envelope.expect_kind(KIND_DATASET)?;

    let schema_json = std::str::from_utf8(envelope.section(SEC_SCHEMA)?)
        .map_err(|_| ArtifactError::Malformed("schema section is not UTF-8".into()))?;
    let schema: Schema = serde_json::from_str(schema_json)
        .map_err(|e| ArtifactError::Malformed(format!("schema section: {e}")))?;

    let mut shape = Cursor::new(envelope.section(SEC_SHAPE)?, "shape");
    let n_rows = shape.u64()? as usize;
    let n_attrs = shape.u32()? as usize;
    let n_items = shape.u32()? as usize;
    shape.done()?;
    if n_attrs != schema.n_attributes() || n_items != schema.n_items() as usize {
        return Err(ArtifactError::Malformed(format!(
            "shape ({n_attrs} attributes, {n_items} items) disagrees with the schema"
        )));
    }

    // Rebuild row-major codes from the per-item bitsets, checking the
    // one-hot invariant: every (row, attribute) cell set exactly once.
    // Each plane is read a word at a time and only its set bits are
    // visited, in row order, so the first violation found is the one a
    // bit-by-bit scan would report.
    let stride = n_rows.div_ceil(8);
    let bits = envelope.section(SEC_ITEM_BITS)?;
    if bits.len() != n_items * stride {
        return Err(ArtifactError::Malformed(format!(
            "item bitset section is {} bytes, expected {}",
            bits.len(),
            n_items * stride
        )));
    }
    let mut codes = vec![u16::MAX; n_rows * n_attrs];
    for a in 0..n_attrs {
        for c in 0..schema.cardinality(a) {
            let id = schema.item_id(a, c) as usize;
            let plane = &bits[id * stride..(id + 1) * stride];
            for (w, mut word) in bit_words(plane, n_rows).enumerate() {
                while word != 0 {
                    let r = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let cell = &mut codes[r * n_attrs + a];
                    if *cell != u16::MAX {
                        return Err(ArtifactError::Malformed(format!(
                            "row {r} attribute {a} is set by two items"
                        )));
                    }
                    *cell = c as u16;
                }
            }
        }
    }
    if let Some(miss) = codes.iter().position(|&c| c == u16::MAX) {
        return Err(ArtifactError::Malformed(format!(
            "row {} attribute {} has no item",
            miss / n_attrs.max(1),
            miss % n_attrs.max(1)
        )));
    }

    let labels = envelope.section(SEC_LABELS)?;
    if labels.len() != 2 * stride {
        return Err(ArtifactError::Malformed(format!(
            "label section is {} bytes, expected {}",
            labels.len(),
            2 * stride
        )));
    }
    let v = unpack_bits(&labels[..stride], n_rows);
    let u = unpack_bits(&labels[stride..], n_rows);

    let data = DiscreteDataset::from_codes(schema, codes);
    let hash = dataset_hash(&data);
    if hash != envelope.hash {
        return Err(ArtifactError::Malformed(format!(
            "header hash {:#018x} disagrees with recomputed content hash {hash:#018x}",
            envelope.hash
        )));
    }
    Ok(DatasetArtifact { data, v, u, hash })
}

/// Writes a dataset artifact to `path` crash-safely (temp file, fsync,
/// atomic rename, directory fsync — see
/// [`crate::artifact_io::atomic_write`]), returning its content hash.
pub fn save_dataset(
    path: &Path,
    data: &DiscreteDataset,
    v: &[bool],
    u: &[bool],
) -> Result<u64, ArtifactError> {
    save_dataset_with(&DiskIo, path, data, v, u)
}

/// [`save_dataset`] over an injectable IO backend.
pub fn save_dataset_with(
    io: &dyn ArtifactIo,
    path: &Path,
    data: &DiscreteDataset,
    v: &[bool],
    u: &[bool],
) -> Result<u64, ArtifactError> {
    let _span = obs::span("artifact.save");
    let bytes = encode_dataset(data, v, u);
    atomic_write(io, path, &bytes)?;
    obs::counter("artifact.write_bytes", bytes.len() as u64);
    // The header's dataset hash (offset 12): the encode computed it.
    Ok(read_u64(&bytes, 12))
}

/// Reads and validates a dataset artifact from `path`.
pub fn load_dataset(path: &Path) -> Result<DatasetArtifact, ArtifactError> {
    load_dataset_with(&DiskIo, path)
}

/// [`load_dataset`] over an injectable IO backend.
pub fn load_dataset_with(
    io: &dyn ArtifactIo,
    path: &Path,
) -> Result<DatasetArtifact, ArtifactError> {
    let _span = obs::span("artifact.load");
    let bytes = io.read(path)?;
    obs::counter("artifact.read_bytes", bytes.len() as u64);
    decode_dataset(&bytes)
}

// ---------------------------------------------------------------------
// Arena artifacts

/// Serializes a mined candidate lattice (items + supports; payload
/// tallies are recomputed by the recount) into artifact bytes.
pub fn encode_arena(key: &ArenaKey, arena: &ItemsetArena<()>) -> Vec<u8> {
    let mut w = Writer::new(KIND_ARENA, key.dataset_hash);

    let mut k = Vec::new();
    k.extend_from_slice(&key.min_support_count.to_le_bytes());
    k.extend_from_slice(&key.max_len.map_or(u64::MAX, |l| l as u64).to_le_bytes());
    k.extend_from_slice(&key.n_rows.to_le_bytes());
    k.extend_from_slice(&(key.engine.len() as u32).to_le_bytes());
    k.extend_from_slice(key.engine.as_bytes());
    w.section(SEC_KEY, k);

    let mut s = Vec::new();
    s.extend_from_slice(&(arena.len() as u64).to_le_bytes());
    s.extend_from_slice(&(arena.total_items() as u64).to_le_bytes());
    for id in 0..arena.len() {
        s.extend_from_slice(&arena.support(id).to_le_bytes());
    }
    for id in 0..arena.len() {
        s.extend_from_slice(&(arena.items(id).len() as u32).to_le_bytes());
    }
    for id in 0..arena.len() {
        for &item in arena.items(id) {
            s.extend_from_slice(&item.to_le_bytes());
        }
    }
    w.section(SEC_ITEMSETS, s);

    w.finish()
}

/// Parses arena artifact bytes back into the key and the candidate
/// lattice, re-validating canonical item order per itemset.
pub fn decode_arena(bytes: &[u8]) -> Result<(ArenaKey, ItemsetArena<()>), ArtifactError> {
    let envelope = Envelope::parse(bytes)?;
    envelope.expect_kind(KIND_ARENA)?;

    let mut k = Cursor::new(envelope.section(SEC_KEY)?, "key");
    let min_support_count = k.u64()?;
    let max_len = match k.u64()? {
        u64::MAX => None,
        l => Some(l as usize),
    };
    let n_rows = k.u64()?;
    let engine_len = k.u32()? as usize;
    let engine = std::str::from_utf8(k.take(engine_len)?)
        .map_err(|_| ArtifactError::Malformed("engine name is not UTF-8".into()))?
        .to_string();
    k.done()?;

    let mut s = Cursor::new(envelope.section(SEC_ITEMSETS)?, "itemsets");
    let n = s.u64()? as usize;
    let total_items = s.u64()? as usize;
    let mut supports = Vec::with_capacity(n);
    for _ in 0..n {
        supports.push(s.u64()?);
    }
    let mut lens = Vec::with_capacity(n);
    for _ in 0..n {
        lens.push(s.u32()? as usize);
    }
    if lens.iter().sum::<usize>() != total_items {
        return Err(ArtifactError::Malformed(format!(
            "itemset lengths sum to {}, header says {total_items}",
            lens.iter().sum::<usize>()
        )));
    }
    // The in-memory lattice holds 32-bit supports and item offsets.
    if u32::try_from(total_items).is_err() || supports.iter().any(|&s| s > u64::from(u32::MAX)) {
        return Err(ArtifactError::Malformed(
            "a support or the item count exceeds 2^32 - 1".into(),
        ));
    }
    let mut arena = ItemsetArena::with_capacity(n, total_items);
    let mut items = Vec::new();
    for (id, &len) in lens.iter().enumerate() {
        items.clear();
        for _ in 0..len {
            items.push(s.u32()?);
        }
        if !items.windows(2).all(|w| w[0] < w[1]) {
            return Err(ArtifactError::Malformed(format!(
                "itemset {id} is not in canonical order"
            )));
        }
        arena.push(&items, supports[id], ());
    }
    s.done()?;

    let key = ArenaKey {
        dataset_hash: envelope.hash,
        min_support_count,
        max_len,
        engine,
        n_rows,
    };
    Ok((key, arena))
}

/// Writes an arena artifact to `path` crash-safely (temp file, fsync,
/// atomic rename, directory fsync).
pub fn save_arena(
    path: &Path,
    key: &ArenaKey,
    arena: &ItemsetArena<()>,
) -> Result<(), ArtifactError> {
    save_arena_with(&DiskIo, path, key, arena)
}

/// [`save_arena`] over an injectable IO backend.
pub fn save_arena_with(
    io: &dyn ArtifactIo,
    path: &Path,
    key: &ArenaKey,
    arena: &ItemsetArena<()>,
) -> Result<(), ArtifactError> {
    let _span = obs::span("artifact.save");
    let bytes = encode_arena(key, arena);
    atomic_write(io, path, &bytes)?;
    obs::counter("artifact.write_bytes", bytes.len() as u64);
    Ok(())
}

/// Reads and validates an arena artifact from `path`.
pub fn load_arena(path: &Path) -> Result<(ArenaKey, ItemsetArena<()>), ArtifactError> {
    load_arena_with(&DiskIo, path)
}

/// [`load_arena`] over an injectable IO backend.
pub fn load_arena_with(
    io: &dyn ArtifactIo,
    path: &Path,
) -> Result<(ArenaKey, ItemsetArena<()>), ArtifactError> {
    let _span = obs::span("artifact.load");
    let bytes = io.read(path)?;
    obs::counter("artifact.read_bytes", bytes.len() as u64);
    decode_arena(&bytes)
}

// ---------------------------------------------------------------------
// Quarantine and resolution

/// Suffix appended to a poisoned artifact when it is quarantined.
pub const QUARANTINE_SUFFIX: &str = "quarantine";

/// The quarantine destination for `path`: `<file>.quarantine`.
pub fn quarantine_path(path: &Path) -> std::path::PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    path.with_file_name(format!("{name}.{QUARANTINE_SUFFIX}"))
}

/// Moves a corrupt, truncated or version-skewed artifact aside as
/// `<file>.quarantine` (replacing any previous quarantine of the same
/// file) so the registry slot frees up for a rebuild while the poisoned
/// bytes stay on disk for forensics. Counts `artifact.quarantined`.
pub fn quarantine(io: &dyn ArtifactIo, path: &Path) -> Result<std::path::PathBuf, ArtifactError> {
    let dest = quarantine_path(path);
    io.rename(path, &dest)?;
    obs::counter("artifact.quarantined", 1);
    Ok(dest)
}

/// A registry slot resolved by [`resolve_lattice`].
#[derive(Debug)]
pub struct Resolved {
    /// The verified or freshly mined candidate lattice.
    pub lattice: ItemsetArena<()>,
    /// `"artifact"` when the slot verified against the key, `"mined"`
    /// when the mine step ran.
    pub source: &'static str,
    /// One line per recovery step (quarantine, failed write-back).
    pub warnings: Vec<String>,
    /// The slot failed verification and a quarantine was attempted.
    pub quarantined: bool,
    /// Writing the mined lattice back failed; it is served from memory.
    pub persist_failed: bool,
}

/// Resolves the registry slot `path` for `key`, the one ladder behind
/// `analyze` and `serve` (DESIGN.md §6h): a slot that decodes to exactly
/// `key` is the answer; any other occupant is [`quarantine`]d, since
/// derived state is never trusted unverified nor worth failing over;
/// then `mine` runs and its lattice is written back crash-safely. Only
/// `mine` can fail the call: a failed rename or write-back is a warning.
pub fn resolve_lattice<E>(
    io: &dyn ArtifactIo,
    path: &Path,
    key: &ArenaKey,
    mine: impl FnOnce() -> Result<ItemsetArena<()>, E>,
) -> Result<Resolved, E> {
    let mut warnings = Vec::new();
    let occupied = io.exists(path);
    if occupied {
        let why = match load_arena_with(io, path) {
            Ok((loaded, lattice)) if loaded == *key => {
                return Ok(Resolved {
                    lattice,
                    source: "artifact",
                    warnings,
                    quarantined: false,
                    persist_failed: false,
                })
            }
            Ok(_) => "artifact key does not match its file name".to_string(),
            Err(e) => e.to_string(),
        };
        let shown = path.display();
        warnings.push(match quarantine(io, path) {
            Ok(dest) => format!(
                "{shown}: {why}; quarantined to {} and re-mining",
                dest.display()
            ),
            Err(e) => format!("{shown}: {why}; quarantine rename failed ({e}); re-mining anyway"),
        });
    }
    let lattice = mine()?;
    let persisted = match path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        Some(dir) => io.create_dir_all(dir).map_err(ArtifactError::from),
        None => Ok(()),
    }
    .and_then(|()| save_arena_with(io, path, key, &lattice));
    if let Err(e) = &persisted {
        warnings.push(format!(
            "artifact registry write failed ({e}); serving from memory only"
        ));
    }
    Ok(Resolved {
        lattice,
        source: "mined",
        warnings,
        quarantined: occupied,
        persist_failed: persisted.is_err(),
    })
}

// ---------------------------------------------------------------------
// Probing and naming

/// Header summary of an artifact, without decoding its sections — what
/// `divexplorer probe` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// [`KIND_DATASET`], [`KIND_ARENA`] or [`KIND_SHARDS`].
    pub kind: u32,
    pub version: u32,
    /// Dataset content hash from the header.
    pub hash: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Section count.
    pub sections: usize,
}

impl ArtifactInfo {
    /// Human-readable kind name.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            KIND_DATASET => "dataset",
            KIND_ARENA => "arena",
            KIND_SHARDS => "shards",
            _ => "unknown",
        }
    }
}

/// Validates an artifact's envelope (magic, version, checksum, section
/// table) and reports its header, without decoding section contents.
pub fn probe_bytes(bytes: &[u8]) -> Result<ArtifactInfo, ArtifactError> {
    let envelope = Envelope::parse(bytes)?;
    Ok(ArtifactInfo {
        kind: envelope.kind,
        version: FORMAT_VERSION,
        hash: envelope.hash,
        bytes: bytes.len() as u64,
        sections: envelope.sections.len(),
    })
}

/// [`probe_bytes`] over a file.
pub fn probe(path: &Path) -> Result<ArtifactInfo, ArtifactError> {
    let bytes = std::fs::read(path)?;
    obs::counter("artifact.read_bytes", bytes.len() as u64);
    probe_bytes(&bytes)
}

/// Canonical file name of a dataset artifact: `<name>.dxd`.
pub fn dataset_file_name(name: &str) -> String {
    format!("{name}.dxd")
}

/// Canonical file name of an arena artifact, derived from its key:
/// `<hash>-s<min_support_count>-l<max_len|all>-<engine>.dxa`.
pub fn arena_file_name(key: &ArenaKey) -> String {
    let len = key
        .max_len
        .map_or_else(|| "all".to_string(), |l| l.to_string());
    format!(
        "{:016x}-s{}-l{}-{}.dxa",
        key.dataset_hash, key.min_support_count, len, key.engine
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use divexplorer::DatasetBuilder;

    fn sample() -> (DiscreteDataset, Vec<bool>, Vec<bool>) {
        let mut b = DatasetBuilder::new();
        b.categorical(
            "color",
            &["red", "green", "blue"],
            &[0, 1, 2, 0, 1, 2, 0, 1],
        );
        b.categorical("size", &["small", "large"], &[0, 0, 1, 1, 0, 0, 1, 1]);
        b.categorical("shape", &["round", "square"], &[1, 0, 1, 0, 1, 0, 1, 0]);
        let data = b.build().unwrap();
        let v = vec![true, false, true, true, false, false, true, false];
        let u = vec![true, true, false, true, false, true, false, false];
        (data, v, u)
    }

    /// `n` rows whose three attributes cycle with periods 3, 2 and 5, so
    /// every item recurs within any five rows.
    fn sized(n: usize) -> (DiscreteDataset, Vec<bool>, Vec<bool>) {
        let column = |period: usize| (0..n).map(|r| (r % period) as u16).collect::<Vec<_>>();
        let mut b = DatasetBuilder::new();
        b.categorical("color", &["red", "green", "blue"], &column(3));
        b.categorical("size", &["small", "large"], &column(2));
        b.categorical("mark", &["a", "b", "c", "d", "e"], &column(5));
        let data = b.build().unwrap();
        let v = (0..n).map(|r| r % 3 == 1).collect();
        let u = (0..n).map(|r| r % 4 != 2).collect();
        (data, v, u)
    }

    /// Dataset artifact `bytes` with the item bitset section passed
    /// through `edit`, then re-framed and re-checksummed, so the edit is
    /// the only difference the decoder can see.
    fn with_item_bits(bytes: &[u8], mut edit: impl FnMut(&mut [u8])) -> Vec<u8> {
        let envelope = Envelope::parse(bytes).unwrap();
        let mut w = Writer::new(envelope.kind, envelope.hash);
        for &(tag, section) in &envelope.sections {
            let mut section = section.to_vec();
            if tag == SEC_ITEM_BITS {
                edit(&mut section);
            }
            w.section(tag, section);
        }
        w.finish()
    }

    fn sample_arena() -> ItemsetArena<()> {
        let mut arena = ItemsetArena::new();
        arena.push(&[0], 5, ());
        arena.push(&[3], 4, ());
        arena.push(&[0, 3], 3, ());
        arena.push(&[0, 3, 5], 2, ());
        arena
    }

    #[test]
    fn dataset_roundtrip_is_bit_identical() {
        // The sample, then row counts either side of the item bitsets'
        // byte and word boundaries.
        let tables = std::iter::once(sample()).chain([1, 7, 8, 9, 63, 64, 65, 127, 129].map(sized));
        for (data, v, u) in tables {
            let n = data.n_rows();
            let bytes = encode_dataset(&data, &v, &u);
            let loaded = decode_dataset(&bytes).unwrap();
            assert_eq!(loaded.v, v, "{n} rows");
            assert_eq!(loaded.u, u, "{n} rows");
            assert_eq!(loaded.hash, dataset_hash(&data), "{n} rows");
            for r in 0..n {
                assert_eq!(loaded.data.row(r), data.row(r), "{n} rows, row {r}");
            }
            let again = encode_dataset(&loaded.data, &loaded.v, &loaded.u);
            assert_eq!(again, bytes, "save → load → save must be bit-identical");

            // Padding bits past the last row in each item's last byte
            // are ignored.
            if n % 8 != 0 {
                let stride = n.div_ceil(8);
                let padded = with_item_bits(&bytes, |bits| {
                    for plane in bits.chunks_mut(stride) {
                        plane[stride - 1] |= !0u8 << (n % 8);
                    }
                });
                let loaded = decode_dataset(&padded).unwrap();
                assert_eq!(loaded.hash, dataset_hash(&data), "{n} rows");
                for r in 0..n {
                    assert_eq!(loaded.data.row(r), data.row(r), "{n} rows, row {r}");
                }
            }
        }
    }

    #[test]
    fn arena_roundtrip_is_bit_identical() {
        let arena = sample_arena();
        let key = ArenaKey {
            dataset_hash: 0xdead_beef,
            min_support_count: 2,
            max_len: Some(3),
            engine: "dense".to_string(),
            n_rows: 8,
        };
        let bytes = encode_arena(&key, &arena);
        let (loaded_key, loaded) = decode_arena(&bytes).unwrap();
        assert_eq!(loaded_key, key);
        assert_eq!(loaded.len(), arena.len());
        for id in 0..arena.len() {
            assert_eq!(loaded.items(id), arena.items(id));
            assert_eq!(loaded.support(id), arena.support(id));
        }
        assert_eq!(encode_arena(&loaded_key, &loaded), bytes);
    }

    #[test]
    fn truncated_file_is_too_short_or_checksum() {
        let (data, v, u) = sample();
        let bytes = encode_dataset(&data, &v, &u);
        // Cutting anywhere must fail typed, never panic.
        for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_dataset(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::TooShort { .. } | ArtifactError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let arena = sample_arena();
        let key = ArenaKey {
            dataset_hash: 7,
            min_support_count: 2,
            max_len: None,
            engine: "eclat".to_string(),
            n_rows: 8,
        };
        let mut bytes = encode_arena(&key, &arena);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            decode_arena(&bytes).unwrap_err(),
            ArtifactError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn tampers_behind_a_fixed_checksum_fail_closed_with_typed_errors() {
        let (data, v, u) = sample();
        let mut bytes = encode_dataset(&data, &v, &u);
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        // Recompute the trailing checksum so only the version differs.
        let end = bytes.len() - 8;
        let sum = fnv1a(FNV_OFFSET, &bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_dataset(&bytes).unwrap_err(),
            ArtifactError::UnsupportedVersion {
                got: FORMAT_VERSION + 1,
                want: FORMAT_VERSION,
            }
        );

        // One-hot violations in the last, partial word of the bitsets:
        // the last row's color also set by another item, or by none.
        for n in [65, 127, 129] {
            let (data, v, u) = sized(n);
            let bytes = encode_dataset(&data, &v, &u);
            let (stride, r) = (n.div_ceil(8), n - 1);
            let code = data.row(r)[0] as usize;
            let bit = |item: usize| (item * stride + r / 8, 1u8 << (r % 8));
            let (at, mask) = bit(data.schema().item_id(0, (code + 1) % 3) as usize);
            let twice = with_item_bits(&bytes, |bits| bits[at] |= mask);
            assert_eq!(
                decode_dataset(&twice).unwrap_err(),
                ArtifactError::Malformed(format!("row {r} attribute 0 is set by two items")),
                "{n} rows"
            );
            let (at, mask) = bit(data.schema().item_id(0, code) as usize);
            let never = with_item_bits(&bytes, |bits| bits[at] &= !mask);
            assert_eq!(
                decode_dataset(&never).unwrap_err(),
                ArtifactError::Malformed(format!("row {r} attribute 0 has no item")),
                "{n} rows"
            );
        }
    }

    #[test]
    fn wrong_magic_and_wrong_kind_are_typed() {
        let (data, v, u) = sample();
        let mut bytes = encode_dataset(&data, &v, &u);
        assert!(matches!(
            decode_arena(&bytes).unwrap_err(),
            ArtifactError::WrongKind {
                got: KIND_DATASET,
                want: KIND_ARENA,
            }
        ));
        bytes[0] = b'X';
        assert_eq!(decode_dataset(&bytes).unwrap_err(), ArtifactError::BadMagic);
    }

    #[test]
    fn probe_reports_the_header_without_decoding() {
        let (data, v, u) = sample();
        let bytes = encode_dataset(&data, &v, &u);
        let info = probe_bytes(&bytes).unwrap();
        assert_eq!(info.kind, KIND_DATASET);
        assert_eq!(info.kind_name(), "dataset");
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.hash, dataset_hash(&data));
        assert_eq!(info.bytes, bytes.len() as u64);
        assert_eq!(info.sections, 4);

        // A save returns the hash its header records.
        let io = crate::artifact_io::MemIo::new();
        let path = Path::new("registry/sample.dxd");
        let saved = save_dataset_with(&io, path, &data, &v, &u).unwrap();
        assert_eq!(saved, dataset_hash(&data));
        assert_eq!(
            probe_bytes(&io.contents(path).unwrap()).unwrap().hash,
            saved
        );
    }

    #[test]
    fn probe_names_the_retired_shards_kind() {
        let mut w = Writer::new(KIND_SHARDS, 0xd5);
        for tag in 1..=4 {
            w.section(tag, vec![0; tag as usize]);
        }
        let info = probe_bytes(&w.finish()).unwrap();
        assert_eq!(info.kind, KIND_SHARDS);
        assert_eq!(info.kind_name(), "shards");
        assert_eq!(info.hash, 0xd5);
        assert_eq!(info.sections, 4);
    }

    #[test]
    fn file_names_are_deterministic() {
        let key = ArenaKey {
            dataset_hash: 0xabc,
            min_support_count: 13,
            max_len: None,
            engine: "dense".to_string(),
            n_rows: 100,
        };
        assert_eq!(dataset_file_name("compas"), "compas.dxd");
        assert_eq!(arena_file_name(&key), "0000000000000abc-s13-lall-dense.dxa");
    }

    /// The in-memory lattice stores 32-bit supports: a well-framed
    /// artifact whose support does not fit is a typed error, not a panic.
    #[test]
    fn a_support_beyond_32_bits_is_malformed() {
        let key = ArenaKey {
            dataset_hash: 7,
            min_support_count: 1,
            max_len: None,
            engine: "dense".to_string(),
            n_rows: 1 << 33,
        };
        let mut arena = ItemsetArena::new();
        arena.push(&[0, 1], 5, ());
        let pristine = encode_arena(&key, &arena);
        assert!(decode_arena(&pristine).is_ok());

        let envelope = Envelope::parse(&pristine).unwrap();
        let mut w = Writer::new(KIND_ARENA, key.dataset_hash);
        w.section(SEC_KEY, envelope.section(SEC_KEY).unwrap().to_vec());
        let mut itemsets = Vec::new();
        for x in [1u64, 2, 1 << 32] {
            itemsets.extend_from_slice(&x.to_le_bytes());
        }
        for x in [2u32, 0, 1] {
            itemsets.extend_from_slice(&x.to_le_bytes());
        }
        w.section(SEC_ITEMSETS, itemsets);
        assert!(matches!(
            decode_arena(&w.finish()),
            Err(ArtifactError::Malformed(_))
        ));
    }
}
