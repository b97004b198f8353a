//! The frozen train→serve boundary: [`ModelArtifact`].
//!
//! Training produces parameters; retrieval needs *prepared score tables*.
//! An artifact freezes a backbone's final embeddings into the form the
//! serving dot product wants — rows pre-normalized for cosine backbones,
//! the CML distance augmentation pre-baked — so that evaluation and
//! serving never repay per-query preparation and **always score with one
//! blocked kernel** ([`scores_block`], or its fused int8 twin
//! [`scores_block_i8`] for quantized tables). `bsl-eval` ranks through the
//! same tables, four users per pass over the items
//! ([`scores_block_multi`], whose every score has [`scores_block`]'s
//! bits), which is what makes "metrics offline" and "scores online"
//! bit-identical.
//!
//! Artifacts round-trip through a compact self-describing binary format
//! written and read through [`crate::bytes`], the little-endian codec the
//! serving protocol shares (no external dependencies). Format **v1**
//! is the original f32-only layout and is still written for plain f32
//! artifacts without an index — old files stay byte-for-byte valid:
//!
//! ```text
//! offset  size  field                         (format v1)
//!      0     4  magic  b"BSLA"
//!      4     4  format version (u32 = 1)
//!      8     8  FNV-1a 64 checksum of every byte from offset 16 on
//!     16     1  similarity code (0 = dot, 1 = cosine, 2 = -||u-i||²)
//!     17     1  backbone label length L
//!     18     2  reserved (zero)
//!     20     8  n_users (u64)
//!     28     8  n_items (u64)
//!     36     8  dim (u64) — the *prepared* width (CML stores d+1)
//!     44     L  backbone label (UTF-8)
//!   44+L     …  user table  (n_users·dim little-endian f32)
//!      …     …  item table  (n_items·dim little-endian f32)
//! ```
//!
//! Format **v2** carries int8-quantized tables and/or an IVF index. The
//! first 18 bytes match v1; byte 18 becomes a flags field (bit 0 = int8
//! tables, bit 1 = IVF index present, all other bits must be zero) and
//! the fixed header grows to 52 bytes:
//!
//! ```text
//! offset  size  field                         (format v2)
//!      0    18  as v1 (version = 2)
//!     18     1  flags (bit0 int8, bit1 index)
//!     19     1  reserved (zero)
//!     20    24  n_users / n_items / dim (u64 each, as v1)
//!     44     8  nlist (u64; 0 iff the index flag is clear)
//!     52     L  backbone label (UTF-8)
//!   52+L     …  tables:
//!                f32:  user table, item table      (f32 rows, as v1)
//!                int8: user table (f32 rows, as v1), then
//!                      item scales (n_items f32), item rows (n_items·dim i8)
//!      …     …  index (only with bit1):
//!                list_offsets ((nlist+1) u64), list_items (n_items u32),
//!                centroids (nlist·dim f32)
//! ```
//!
//! Little-endian f32 round-trips losslessly, so a loaded artifact
//! reproduces the saved one bit for bit; the checksum covers the header
//! fields and every payload section. The decoder validates in a fixed
//! order — magic, version, fixed header fields, checked-arithmetic total
//! size (one fold over the payload's sections) against the actual byte
//! count, checksum, then semantic invariants
//! (similarity code, finite non-negative scales, inverted-list partition
//! via [`IvfIndex::from_parts`]) — so no allocation is ever sized by an
//! unverified header field.
//!
//! [`scores_block_i8`]: bsl_linalg::simd::scores_block_i8
//! [`scores_block_multi`]: bsl_linalg::simd::scores_block_multi

use crate::backbone::EvalScore;
use crate::bytes::{put, put_all, Le, Reader, Short};
use crate::cml::euclidean_rank_embeddings;
use crate::ivf::IvfIndex;
use crate::quant::QuantizedTable;
use bsl_linalg::simd::{normalize_rows_into, scores_block, scores_block_multi, scores_gather};
use bsl_linalg::Matrix;
use std::io::Write;
use std::path::Path;

/// Artifact format magic bytes.
const MAGIC: [u8; 4] = *b"BSLA";
/// Current artifact format version (v1 is still read *and written* for
/// plain f32 artifacts without an index).
pub const FORMAT_VERSION: u32 = 2;
/// Fixed v1 header length (everything before the variable-length label).
const HEADER_LEN_V1: usize = 44;
/// Fixed v2 header length.
const HEADER_LEN_V2: usize = 52;
/// Offset of the first checksummed byte (just past the checksum field).
const CHECKSUM_START: usize = 16;
/// v2 flags bit: tables are int8-quantized.
const FLAG_INT8: u8 = 1 << 0;
/// v2 flags bit: an IVF index section follows the tables.
const FLAG_INDEX: u8 = 1 << 1;

/// Errors from decoding or file I/O on an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with the `BSLA` magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The byte stream is shorter than its header promises.
    Truncated {
        /// Bytes the header declares.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The stored checksum does not match the content.
    ChecksumMismatch,
    /// A header field or payload section is internally inconsistent.
    Malformed(&'static str),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::BadMagic => write!(f, "not a BSL artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact format version {v} (this build reads ≤ {FORMAT_VERSION})"
                )
            }
            ArtifactError::Truncated { expected, got } => {
                write!(f, "truncated artifact: header promises {expected} bytes, file has {got}")
            }
            ArtifactError::ChecksumMismatch => {
                write!(f, "artifact checksum mismatch (corrupted file)")
            }
            ArtifactError::Malformed(what) => write!(f, "malformed artifact: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<Short> for ArtifactError {
    fn from(Short { expected, got }: Short) -> Self {
        ArtifactError::Truncated { expected, got }
    }
}

/// FNV-1a 64-bit over `bytes`.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The similarity conventions, indexed by their stored code.
const SIMILARITIES: [EvalScore; 3] = [EvalScore::Dot, EvalScore::Cosine, EvalScore::NegSqDist];

/// The header fields that size an artifact's payload.
struct Layout {
    flags: u8,
    n_users: usize,
    n_items: usize,
    dim: usize,
    nlist: usize,
}

impl Layout {
    /// Payload bytes after the label, or `None` if a size overflows: one
    /// checked fold over the sections as `(element count, bytes per
    /// element)`, the one place the v1/v2 section sizes are written down.
    /// In file order: user table (f32); item scales (f32) for int8 tables,
    /// else the item table (f32); item rows (i8); with an index, list
    /// offsets (u64), list items (u32) and centroids (f32).
    fn payload_len(&self) -> Option<usize> {
        let (int8, index) = (self.flags & FLAG_INT8 != 0, self.flags & FLAG_INDEX != 0);
        let if_index = |n: usize| if index { n } else { 0 };
        let item_elems = self.n_items.checked_mul(self.dim)?;
        let sections = [
            (self.n_users.checked_mul(self.dim)?, 4),
            (if int8 { self.n_items } else { item_elems }, 4),
            (if int8 { item_elems } else { 0 }, 1),
            (if_index(self.nlist.checked_add(1)?), 8),
            (if_index(self.n_items), 4),
            (if_index(self.nlist.checked_mul(self.dim)?), 4),
        ];
        sections.iter().try_fold(0usize, |sum, &(n, width)| sum.checked_add(n.checked_mul(width)?))
    }
}

/// Reads a `u64` size field as a `usize`.
fn get_usize(r: &mut Reader<'_>, overflow: &'static str) -> Result<usize, ArtifactError> {
    usize::try_from(r.get::<u64>()?).map_err(|_| ArtifactError::Malformed(overflow))
}

/// The numeric precision an artifact's score tables are stored at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// Full-precision f32 rows (format v1, or v2 with the int8 flag clear).
    F32,
    /// Asymmetric quantization (format v2): the catalogue-dominant item
    /// table is per-row-scaled int8 and queries stay f32 user rows, scored
    /// through the fused dequant-dot kernels — ~4× smaller item table,
    /// NDCG-neutral to ≤ 1e-3.
    Int8,
}

/// The prepared score tables at either precision. Int8 is *asymmetric*:
/// only the item table is quantized — the fused kernels take an f32 query
/// against int8 rows, so keeping queries full-precision costs nothing at
/// serve time and halves the quantization noise per score.
#[derive(Clone, Debug)]
enum Tables {
    F32 { users: Matrix, items: Matrix },
    Int8 { users: Matrix, items: QuantizedTable },
}

/// A frozen, self-describing snapshot of a trained model, ready to serve.
///
/// The stored tables are *prepared*: cosine backbones are row-normalized
/// and CML's distance ranking is converted to an equivalent inner product
/// by the `(2u, -1) · (i, ||i||²)` augmentation, so every retrieval —
/// `bsl-eval`'s full ranking, `bsl-serve`'s `recommend`, the IVF probe —
/// is a plain blocked dot product over these rows. The original
/// similarity convention is kept as metadata in [`similarity`].
///
/// Two orthogonal extras ride on the same artifact:
///
/// * [`quantize`](Self::quantize) rewrites both tables as per-row int8
///   ([`QuantizedTable`]), scored through the fused dequant-dot kernels;
/// * [`build_ivf`](Self::build_ivf) attaches an [`IvfIndex`] over the
///   prepared item table for sub-linear shortlist retrieval in
///   `bsl-serve`.
///
/// Both survive the save/load round trip (format v2).
///
/// [`similarity`]: ModelArtifact::similarity
#[derive(Clone, Debug)]
pub struct ModelArtifact {
    backbone: String,
    similarity: EvalScore,
    tables: Tables,
    index: Option<IvfIndex>,
}

impl ModelArtifact {
    /// Freezes raw final embeddings under `score` into a servable
    /// artifact, applying the score-specific preparation (normalization /
    /// distance augmentation) exactly once.
    ///
    /// The artifact *owns* its tables (that is what makes it saveable and
    /// independent of the model's lifetime), so freezing copies them —
    /// for [`EvalScore::Dot`] a plain clone. At catalogue scale that copy
    /// is small next to one full ranking pass; callers that only ever
    /// score raw tables in place can keep using the matrices directly.
    ///
    /// # Panics
    /// Panics if the embedding widths disagree.
    pub fn from_embeddings(
        backbone: impl Into<String>,
        user_emb: &Matrix,
        item_emb: &Matrix,
        score: EvalScore,
    ) -> Self {
        assert_eq!(user_emb.cols(), item_emb.cols(), "embedding width mismatch");
        let (users, items) = match score {
            EvalScore::Dot => (user_emb.clone(), item_emb.clone()),
            EvalScore::Cosine => {
                let mut norms = vec![0.0f32; user_emb.rows().max(item_emb.rows())];
                let mut u = Matrix::zeros(user_emb.rows(), user_emb.cols());
                normalize_rows_into(user_emb, &mut u, &mut norms[..user_emb.rows()]);
                let mut i = Matrix::zeros(item_emb.rows(), item_emb.cols());
                normalize_rows_into(item_emb, &mut i, &mut norms[..item_emb.rows()]);
                (u, i)
            }
            EvalScore::NegSqDist => euclidean_rank_embeddings(user_emb, item_emb),
        };
        Self {
            backbone: backbone.into(),
            similarity: score,
            tables: Tables::F32 { users, items },
            index: None,
        }
    }

    /// Rebuilds an artifact from already-prepared tables (also useful for
    /// tests that craft tables by hand).
    ///
    /// # Panics
    /// Panics if the table widths disagree.
    pub fn from_prepared(
        backbone: impl Into<String>,
        similarity: EvalScore,
        users: Matrix,
        items: Matrix,
    ) -> Self {
        assert_eq!(users.cols(), items.cols(), "prepared table width mismatch");
        Self {
            backbone: backbone.into(),
            similarity,
            tables: Tables::F32 { users, items },
            index: None,
        }
    }

    /// The backbone label this artifact was exported from (`"MF"`, …).
    pub fn backbone(&self) -> &str {
        &self.backbone
    }

    /// The similarity convention the tables were prepared under.
    pub fn similarity(&self) -> EvalScore {
        self.similarity
    }

    /// The precision the score tables are stored at.
    pub fn precision(&self) -> Precision {
        match self.tables {
            Tables::F32 { .. } => Precision::F32,
            Tables::Int8 { .. } => Precision::Int8,
        }
    }

    /// The attached IVF index, if one was built or loaded.
    pub fn index(&self) -> Option<&IvfIndex> {
        self.index.as_ref()
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        match &self.tables {
            Tables::F32 { users, .. } | Tables::Int8 { users, .. } => users.rows(),
        }
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        match &self.tables {
            Tables::F32 { items, .. } => items.rows(),
            Tables::Int8 { items, .. } => items.rows(),
        }
    }

    /// Width of the prepared tables (CML artifacts store `d + 1`).
    pub fn dim(&self) -> usize {
        match &self.tables {
            Tables::F32 { users, .. } | Tables::Int8 { users, .. } => users.cols(),
        }
    }

    /// The prepared f32 user table (queries stay f32 at both precisions).
    pub fn users(&self) -> &Matrix {
        match &self.tables {
            Tables::F32 { users, .. } | Tables::Int8 { users, .. } => users,
        }
    }

    /// The prepared f32 item table.
    ///
    /// # Panics
    /// Panics on an int8 artifact — use [`precision`](Self::precision) to
    /// branch, or [`items_i8`](Self::items_i8) / the `score_*` dispatchers
    /// that handle both precisions.
    pub fn items(&self) -> &Matrix {
        match &self.tables {
            Tables::F32 { items, .. } => items,
            Tables::Int8 { .. } => panic!("items(): artifact is int8-quantized"),
        }
    }

    /// The f32 item table, if this artifact stores one.
    pub fn items_f32(&self) -> Option<&Matrix> {
        match &self.tables {
            Tables::F32 { items, .. } => Some(items),
            Tables::Int8 { .. } => None,
        }
    }

    /// The quantized item table, if this artifact stores one.
    pub fn items_i8(&self) -> Option<&QuantizedTable> {
        match &self.tables {
            Tables::F32 { .. } => None,
            Tables::Int8 { items, .. } => Some(items),
        }
    }

    /// Writes user `user`'s prepared f32 row into `out` (resized to
    /// `dim`). This is the query vector every retrieval path (exact, IVF
    /// probe, int8 rescore) scores with — queries are f32 at both
    /// precisions.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn query_into(&self, user: u32, out: &mut Vec<f32>) {
        out.resize(self.dim(), 0.0);
        out.copy_from_slice(self.users().row(user as usize));
    }

    /// Scores a prepared f32 query vector against the full catalogue into
    /// `out` (resized to `n_items`) — the precision-dispatched blocked
    /// kernel behind [`score_catalogue_into`](Self::score_catalogue_into)
    /// and the plain scan of [`top_k_into`](crate::top_k_into).
    ///
    /// # Panics
    /// Panics if `q.len() != dim`.
    pub fn score_catalogue_query_into(&self, q: &[f32], out: &mut Vec<f32>) {
        out.resize(self.n_items(), 0.0);
        match &self.tables {
            Tables::F32 { items, .. } => scores_block(q, items.as_slice(), out),
            Tables::Int8 { items, .. } => items.scores_into(q, out),
        }
    }

    /// Scores several prepared f32 query vectors against the full
    /// catalogue into `out` (resized to `qs.len() · n_items`), query `q`'s
    /// scores at `out[q·n_items ..]`. Each score has the bits
    /// [`score_catalogue_query_into`](Self::score_catalogue_query_into)
    /// gives it: f32 tables go through [`scores_block_multi`], which reads
    /// each item row once for up to four queries; int8 tables are scored
    /// query by query.
    ///
    /// # Panics
    /// Panics if a query's width is not `dim`.
    pub fn score_catalogue_queries_into(&self, qs: &[&[f32]], out: &mut Vec<f32>) {
        let n = self.n_items();
        out.resize(qs.len() * n, 0.0);
        for q in qs {
            assert_eq!(q.len(), self.dim(), "query width mismatch");
        }
        match &self.tables {
            Tables::F32 { items, .. } => scores_block_multi(qs, items.as_slice(), out),
            Tables::Int8 { items, .. } => {
                for (q, out) in qs.iter().zip(out.chunks_exact_mut(n.max(1))) {
                    items.scores_into(q, out);
                }
            }
        }
    }

    /// Scores the full item catalogue for `user` into `out` (resized to
    /// `n_items`) with one blocked tall-skinny matvec — the single scoring
    /// implementation shared by training-loop eval, offline eval, and
    /// serving. Int8 artifacts score the f32 user row against the
    /// quantized items with the fused int8 kernel. Allocation-free either
    /// way.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn score_catalogue_into(&self, user: u32, out: &mut Vec<f32>) {
        self.score_catalogue_query_into(self.users().row(user as usize), out);
    }

    /// Scores an explicit candidate list for `user` into `out` (resized to
    /// `items.len()`), each score bit for bit what
    /// [`score_catalogue_into`](Self::score_catalogue_into) gives the item.
    ///
    /// For [`EvalScore::NegSqDist`] artifacts the values are the
    /// rank-equivalent augmented inner products, not raw distances —
    /// consistent with [`score_catalogue_into`](Self::score_catalogue_into).
    ///
    /// # Panics
    /// Panics if `user` or any item id is out of range.
    pub fn score_items_into(&self, user: u32, items: &[u32], out: &mut Vec<f32>) {
        let q = self.users().row(user as usize);
        self.score_items_query_into(q, items, out);
    }

    /// Scores an explicit candidate list against a prepared f32 query
    /// vector into `out` (resized to `items.len()`) — the
    /// precision-dispatched rescorer [`top_k_into`](crate::top_k_into)
    /// runs over an IVF shortlist or the sketch's survivors. Every score
    /// has the bits
    /// [`score_catalogue_query_into`](Self::score_catalogue_query_into)
    /// gives the same item, at every dispatch level and either precision.
    ///
    /// # Panics
    /// Panics if `q.len() != dim` or any item id is out of range.
    pub fn score_items_query_into(&self, q: &[f32], items: &[u32], out: &mut Vec<f32>) {
        assert_eq!(q.len(), self.dim(), "query width mismatch");
        match &self.tables {
            Tables::F32 { items: table, .. } => {
                out.resize(items.len(), 0.0);
                scores_gather(q, table.as_slice(), items, out);
            }
            Tables::Int8 { items: table, .. } => {
                table.scores_gather_into(q, items, out);
            }
        }
    }

    /// Returns an int8-quantized copy of this artifact: the item table
    /// becomes per-row int8 (~4× smaller); the user table stays f32, so
    /// queries keep full precision (asymmetric quantization). The attached
    /// index, if any, is kept — it was built over the same prepared
    /// geometry and quantization moves each item row by at most `scale/2`
    /// per coordinate. Quantizing an already-int8 artifact is a plain
    /// clone.
    pub fn quantize(&self) -> Self {
        let tables = match &self.tables {
            Tables::F32 { users, items } => {
                Tables::Int8 { users: users.clone(), items: QuantizedTable::from_matrix(items) }
            }
            int8 @ Tables::Int8 { .. } => int8.clone(),
        };
        Self {
            backbone: self.backbone.clone(),
            similarity: self.similarity,
            tables,
            index: self.index.clone(),
        }
    }

    /// Builds (or rebuilds) an IVF-flat index with `nlist` lists over the
    /// prepared item table. Int8 artifacts are dequantized for the build —
    /// the index stores f32 centroids either way.
    ///
    /// # Panics
    /// Panics if the catalogue is empty or `nlist` is out of `1..=n_items`.
    pub fn build_ivf(&mut self, nlist: usize) {
        let index = match &self.tables {
            Tables::F32 { items, .. } => IvfIndex::build(items, nlist),
            Tables::Int8 { items, .. } => IvfIndex::build(&items.dequantize(), nlist),
        };
        self.index = Some(index);
    }

    /// Builds an IVF index with the default `√n_items` list count.
    pub fn build_default_ivf(&mut self) {
        self.build_ivf(IvfIndex::default_nlist(self.n_items()));
    }

    /// Encodes the artifact into the documented binary format: v1 for a
    /// plain f32 artifact with no index (bit-compatible with every v1
    /// reader), v2 otherwise.
    pub fn to_bytes(&self) -> Vec<u8> {
        let label = self.backbone.as_bytes();
        assert!(label.len() <= u8::MAX as usize, "backbone label too long for the format");
        let layout = Layout {
            flags: if matches!(self.tables, Tables::Int8 { .. }) { FLAG_INT8 } else { 0 }
                | if self.index.is_some() { FLAG_INDEX } else { 0 },
            n_users: self.n_users(),
            n_items: self.n_items(),
            dim: self.dim(),
            nlist: self.index.as_ref().map_or(0, |ix| ix.nlist()),
        };
        // A v1 file is a v2 file with no flags and no nlist field.
        let v2 = layout.flags != 0;
        let header_len = if v2 { HEADER_LEN_V2 } else { HEADER_LEN_V1 };
        let total = layout
            .payload_len()
            .and_then(|p| p.checked_add(header_len + label.len()))
            .expect("artifact size overflows usize");
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(&MAGIC);
        put(&mut buf, if v2 { 2u32 } else { 1 });
        put(&mut buf, 0u64); // checksum placeholder
        let similarity = SIMILARITIES.iter().position(|&s| s == self.similarity);
        let similarity = similarity.expect("every similarity has a code") as u8;
        put_all(&mut buf, [similarity, label.len() as u8, layout.flags, 0]);
        put_all(&mut buf, [layout.n_users, layout.n_items, layout.dim].map(|n| n as u64));
        if v2 {
            put(&mut buf, layout.nlist as u64);
        }
        buf.extend_from_slice(label);
        match &self.tables {
            Tables::F32 { users, items } => {
                put_all(&mut buf, users.as_slice().iter().copied());
                put_all(&mut buf, items.as_slice().iter().copied());
            }
            Tables::Int8 { users, items } => {
                put_all(&mut buf, users.as_slice().iter().copied());
                put_all(&mut buf, items.scales().iter().copied());
                put_all(&mut buf, items.data().iter().copied());
            }
        }
        if let Some(ix) = &self.index {
            put_all(&mut buf, ix.list_offsets().iter().map(|&o| o as u64));
            put_all(&mut buf, ix.list_items().iter().copied());
            put_all(&mut buf, ix.centroids().as_slice().iter().copied());
        }
        debug_assert_eq!(buf.len(), total);
        let sum = fnv1a64(&buf[CHECKSUM_START..]);
        sum.encode(&mut buf[8..CHECKSUM_START]);
        buf
    }

    /// Decodes an artifact from [`to_bytes`](Self::to_bytes) output,
    /// verifying magic, version, declared sizes (with checked arithmetic,
    /// before any allocation sized by a header field), the checksum, and
    /// every semantic invariant of the payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let truncated = |expected| ArtifactError::Truncated { expected, got: bytes.len() };
        if bytes.len() < HEADER_LEN_V1 {
            return Err(truncated(HEADER_LEN_V1));
        }
        let mut r = Reader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version: u32 = r.get()?;
        if version == 0 || version > FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion(version));
        }
        let header_len = if version == 1 { HEADER_LEN_V1 } else { HEADER_LEN_V2 };
        if bytes.len() < header_len {
            return Err(truncated(header_len));
        }
        let stored_sum: u64 = r.get()?;
        let similarity_byte: u8 = r.get()?;
        let label_len = usize::from(r.get::<u8>()?);
        let (flags, reserved): (u8, u8) = (r.get()?, r.get()?);
        if version > 1 && flags & !(FLAG_INT8 | FLAG_INDEX) != 0 {
            return Err(ArtifactError::Malformed("unknown flag bits"));
        }
        if reserved != 0 || (version == 1 && flags != 0) {
            return Err(ArtifactError::Malformed("nonzero reserved bytes"));
        }
        let int8 = flags & FLAG_INT8 != 0;
        let has_index = flags & FLAG_INDEX != 0;
        let n_users = get_usize(&mut r, "n_users overflows usize")?;
        let n_items = get_usize(&mut r, "n_items overflows usize")?;
        let dim = get_usize(&mut r, "dim overflows usize")?;
        if dim == 0 {
            return Err(ArtifactError::Malformed("zero-width tables"));
        }
        let nlist = if version == 1 { 0 } else { get_usize(&mut r, "nlist overflows usize")? };
        if has_index && (nlist == 0 || nlist > n_items) {
            return Err(ArtifactError::Malformed("nlist out of 1..=n_items"));
        }
        if !has_index && nlist != 0 {
            return Err(ArtifactError::Malformed("nonzero nlist without index flag"));
        }
        // Total size, fully checked before any alloc-by-header.
        let total = Layout { flags, n_users, n_items, dim, nlist }
            .payload_len()
            .and_then(|p| p.checked_add(header_len + label_len))
            .ok_or(ArtifactError::Malformed("total size overflows usize"))?;
        if bytes.len() < total {
            return Err(truncated(total));
        }
        if bytes.len() > total {
            return Err(ArtifactError::Malformed("trailing bytes after payload"));
        }
        if fnv1a64(&bytes[CHECKSUM_START..]) != stored_sum {
            return Err(ArtifactError::ChecksumMismatch);
        }
        // Bytes are authentic from here on; semantic checks follow.
        let similarity = *SIMILARITIES
            .get(usize::from(similarity_byte))
            .ok_or(ArtifactError::Malformed("unknown similarity code"))?;
        let backbone = std::str::from_utf8(r.take(label_len)?)
            .map_err(|_| ArtifactError::Malformed("backbone label is not UTF-8"))?
            .to_string();
        let users = Matrix::from_vec(n_users, dim, r.vec(n_users * dim)?);
        let tables = if int8 {
            let scales: Vec<f32> = r.vec(n_items)?;
            if scales.iter().any(|s| !s.is_finite() || *s < 0.0) {
                return Err(ArtifactError::Malformed("quantization scale out of range"));
            }
            let items = QuantizedTable::from_parts(n_items, dim, r.vec(n_items * dim)?, scales);
            Tables::Int8 { users, items }
        } else {
            Tables::F32 { users, items: Matrix::from_vec(n_items, dim, r.vec(n_items * dim)?) }
        };
        let index = if has_index {
            let offsets = r.vec::<u64>(nlist + 1)?.into_iter().map(usize::try_from);
            let offsets = offsets
                .collect::<Result<_, _>>()
                .map_err(|_| ArtifactError::Malformed("list offset overflows usize"))?;
            let list_items = r.vec(n_items)?;
            let centroids = Matrix::from_vec(nlist, dim, r.vec(nlist * dim)?);
            Some(
                IvfIndex::from_parts(centroids, offsets, list_items)
                    .map_err(ArtifactError::Malformed)?,
            )
        } else {
            None
        };
        debug_assert_eq!(r.remaining(), 0);
        Ok(Self { backbone, similarity, tables, index })
    }

    /// Writes the artifact to `path` (atomic enough for our purposes: a
    /// single buffered write of the encoded stream).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let bytes = self.to_bytes();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(&bytes)?;
        f.flush()?;
        Ok(())
    }

    /// Reads an artifact from `path`, verifying the header and checksum.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_linalg::kernels::dot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(score: EvalScore) -> ModelArtifact {
        let mut rng = StdRng::seed_from_u64(9);
        let u = Matrix::gaussian(5, 7, 1.0, &mut rng);
        let i = Matrix::gaussian(11, 7, 1.0, &mut rng);
        ModelArtifact::from_embeddings("MF", &u, &i, score)
    }

    #[test]
    fn bytes_round_trip_is_bit_identical() {
        for score in [EvalScore::Dot, EvalScore::Cosine, EvalScore::NegSqDist] {
            let art = toy(score);
            let back = ModelArtifact::from_bytes(&art.to_bytes()).expect("decode");
            assert_eq!(back.backbone(), art.backbone());
            assert_eq!(back.similarity(), art.similarity());
            assert_eq!(back.users().as_slice(), art.users().as_slice());
            assert_eq!(back.items().as_slice(), art.items().as_slice());
        }
    }

    #[test]
    fn plain_f32_artifacts_still_write_format_v1() {
        let bytes = toy(EvalScore::Dot).to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 1);
    }

    #[test]
    fn quantized_round_trip_is_bit_identical() {
        let art = toy(EvalScore::Cosine).quantize();
        assert_eq!(art.precision(), Precision::Int8);
        let bytes = art.to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 2);
        let back = ModelArtifact::from_bytes(&bytes).expect("decode");
        assert_eq!(back.precision(), Precision::Int8);
        assert_eq!(back.items_i8().unwrap(), art.items_i8().unwrap());
        assert_eq!(back.users().as_slice(), art.users().as_slice());
        assert!(back.index().is_none());
    }

    #[test]
    fn indexed_round_trip_preserves_the_index() {
        for quantized in [false, true] {
            let mut art = toy(EvalScore::Dot);
            if quantized {
                art = art.quantize();
            }
            art.build_ivf(3);
            let back = ModelArtifact::from_bytes(&art.to_bytes()).expect("decode");
            assert_eq!(back.index().expect("index survives"), art.index().unwrap());
            assert_eq!(back.precision(), art.precision());
        }
    }

    #[test]
    fn quantize_keeps_scores_close() {
        let art = toy(EvalScore::Cosine);
        let q8 = art.quantize();
        let (mut exact, mut approx) = (Vec::new(), Vec::new());
        for u in 0..art.n_users() as u32 {
            art.score_catalogue_into(u, &mut exact);
            q8.score_catalogue_into(u, &mut approx);
            for (a, b) in exact.iter().zip(approx.iter()) {
                // Unit-norm rows, d=7: quantization noise ≲ d·(scale/2) ≈ 0.03.
                assert!((a - b).abs() < 0.05, "user {u}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn score_items_matches_catalogue_at_both_precisions() {
        for art in [toy(EvalScore::Cosine), toy(EvalScore::Cosine).quantize()] {
            let mut all = Vec::new();
            art.score_catalogue_into(3, &mut all);
            let ids: Vec<u32> = (0..art.n_items() as u32).collect();
            let mut listed = Vec::new();
            art.score_items_into(3, &ids, &mut listed);
            assert_eq!(listed, all);
        }
    }

    /// Listed scores carry the catalogue scan's bits, for f32 and int8
    /// tables: even and odd catalogues (the last row of an odd one has no
    /// partner, and an int8 one's last group of eight is short), odd and
    /// even lists, repeats, and the last row anywhere in the list. CI runs
    /// this under scalar, portable and native dispatch.
    #[test]
    fn score_items_carries_the_catalogue_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mut all, mut listed) = (Vec::new(), Vec::new());
        let shapes = [(1usize, 3usize), (2, 8), (11, 7), (64, 65), (65, 64), (129, 9), (13, 16)];
        for (n, d) in shapes {
            let u = Matrix::gaussian(4, d, 1.0, &mut rng);
            let i = Matrix::gaussian(n, d, 1.0, &mut rng);
            let f32_art = ModelArtifact::from_embeddings("MF", &u, &i, EvalScore::Dot);
            let last = n as u32 - 1;
            let lists: [Vec<u32>; 6] = [
                (0..n as u32).collect(),
                (0..n as u32).rev().collect(),
                vec![last],
                vec![last, 0, last, last],
                (0..n as u32).step_by(3).chain([last, 0]).collect(),
                (0..n as u32).filter(|&j| j % 2 == 1).chain([0]).collect(),
            ];
            for art in [f32_art.quantize(), f32_art] {
                for user in 0..4 {
                    art.score_catalogue_into(user, &mut all);
                    for ids in &lists {
                        art.score_items_into(user, ids, &mut listed);
                        assert_eq!(listed.len(), ids.len());
                        for (&id, &got) in ids.iter().zip(&listed) {
                            let (got, want) = (got.to_bits(), all[id as usize].to_bits());
                            let p = art.precision();
                            assert_eq!(got, want, "{p:?} n {n} d {d} item {id} of {ids:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn query_into_returns_the_scoring_row() {
        let art = toy(EvalScore::Dot);
        let mut q = Vec::new();
        art.query_into(2, &mut q);
        assert_eq!(q.as_slice(), art.users().row(2));
        let q8 = art.quantize();
        q8.query_into(2, &mut q);
        let mut scores_via_q = Vec::new();
        q8.score_catalogue_query_into(&q, &mut scores_via_q);
        let mut scores_direct = Vec::new();
        q8.score_catalogue_into(2, &mut scores_direct);
        assert_eq!(scores_via_q, scores_direct);
    }

    #[test]
    fn cosine_tables_are_prenormalized() {
        let art = toy(EvalScore::Cosine);
        for r in 0..art.n_items() {
            let n = dot(art.items().row(r), art.items().row(r)).sqrt();
            assert!((n - 1.0).abs() < 1e-5, "row {r} norm {n}");
        }
    }

    #[test]
    fn negsqdist_bakes_the_augmentation() {
        let art = toy(EvalScore::NegSqDist);
        assert_eq!(art.dim(), 8, "CML artifacts store d + 1");
        // Augmented dot ranks like negative distance: last user column is -1.
        assert!(art.users().row(0)[7] == -1.0);
    }

    #[test]
    fn score_catalogue_matches_score_items() {
        let art = toy(EvalScore::Cosine);
        let mut all = Vec::new();
        art.score_catalogue_into(3, &mut all);
        assert_eq!(all.len(), art.n_items());
        let ids: Vec<u32> = (0..art.n_items() as u32).collect();
        let mut listed = Vec::new();
        art.score_items_into(3, &ids, &mut listed);
        assert_eq!(listed, all);
    }

    #[test]
    fn multi_query_catalogue_scores_are_the_per_query_bits() {
        for art in [toy(EvalScore::NegSqDist), toy(EvalScore::Cosine).quantize()] {
            let n = art.n_items();
            for users in [&[4u32][..], &[0, 3], &[1, 2, 4], &[4, 0, 2, 3], &[3, 1, 0, 4, 2]] {
                let qs: Vec<&[f32]> = users.iter().map(|&u| art.users().row(u as usize)).collect();
                let mut got = vec![f32::NAN; 3];
                art.score_catalogue_queries_into(&qs, &mut got);
                assert_eq!(got.len(), users.len() * n);
                let mut want = Vec::new();
                for (&u, got) in users.iter().zip(got.chunks_exact(n)) {
                    art.score_catalogue_into(u, &mut want);
                    let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(&want), "{:?}: user {u}", art.precision());
                }
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = toy(EvalScore::Dot).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(ModelArtifact::from_bytes(&bytes), Err(ArtifactError::BadMagic)));
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = toy(EvalScore::Dot).to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ArtifactError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_flipped_payload_byte() {
        for art in [toy(EvalScore::Dot), toy(EvalScore::Dot).quantize()] {
            let mut bytes = art.to_bytes();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40;
            assert!(matches!(
                ModelArtifact::from_bytes(&bytes),
                Err(ArtifactError::ChecksumMismatch)
            ));
        }
    }

    #[test]
    fn rejects_corrupted_header_field() {
        let mut bytes = toy(EvalScore::Dot).to_bytes();
        // Inflate n_users: either the length check or the checksum must trip.
        bytes[20] ^= 0x01;
        assert!(ModelArtifact::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let bytes = toy(EvalScore::Dot).to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, HEADER_LEN_V1 - 1, 3] {
            assert!(
                matches!(
                    ModelArtifact::from_bytes(&bytes[..cut]),
                    Err(ArtifactError::Truncated { .. })
                ),
                "cut at {cut} must be rejected as truncated"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = toy(EvalScore::Dot).to_bytes();
        bytes.push(0);
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ArtifactError::Malformed("trailing bytes after payload"))
        ));
    }

    #[test]
    fn rejects_unknown_similarity() {
        let mut bytes = toy(EvalScore::Dot).to_bytes();
        bytes[16] = 7;
        // Re-stamp the checksum so the similarity check itself is reached.
        let sum = fnv1a64(&bytes[CHECKSUM_START..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ArtifactError::Malformed("unknown similarity code"))
        ));
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let mut art = toy(EvalScore::Cosine);
        art.build_default_ivf();
        let art = art.quantize();
        let dir = std::env::temp_dir().join("bsl-artifact-unit");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("toy.bsla");
        art.save(&path).expect("save");
        let back = ModelArtifact::load(&path).expect("load");
        assert_eq!(back.items_i8().unwrap(), art.items_i8().unwrap());
        assert_eq!(back.index().unwrap(), art.index().unwrap());
        std::fs::remove_file(&path).ok();
    }
}
