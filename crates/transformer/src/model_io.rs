//! Binary serialization of model weights.
//!
//! The paper's host uploads a trained checkpoint to HBM once and streams it
//! layer by layer; a deployable library therefore needs a compact on-disk
//! weight format. This is a simple versioned little-endian container:
//! magic, version, config header, a CRC-32 table with one entry per stored
//! matrix (the integrity envelope of DESIGN.md §9, computed at export time),
//! then every matrix as `(rows: u32, cols: u32, f32 payload)` in a fixed
//! traversal order. Every matrix record is verified against its stored CRC
//! on load, so a corrupted checkpoint fails typed instead of producing
//! silently wrong weights.
//!
//! [`from_bytes`] decodes untrusted bytes, so it returns an [`IoError`] for
//! every input and never panics: it reads through one bounds-checked
//! cursor, refuses a header [`TransformerConfig::try_validate`] rejects,
//! requires each record to have the shape the header implies at its
//! position, and checks each payload against its geometry before
//! allocating the matrix.

use crate::config::TransformerConfig;
use crate::weights::{
    AttentionWeights, DecoderWeights, EncoderWeights, FfnWeights, LayerNormWeights, ModelWeights,
};
use asr_tensor::crc32;
use asr_tensor::encoding::{self, StripeEncoding, WeightEncoding};
use asr_tensor::Matrix;
use std::fmt;

/// File magic: "TASR".
const MAGIC: u32 = 0x5441_5352;
/// Format version. v2 added the per-stripe CRC table; v1 files (no
/// checksums) are rejected rather than trusted.
const VERSION: u32 = 2;
/// v3 stores each matrix in a wire encoding ([`WeightEncoding`], DESIGN.md
/// §16): the header gains an encoding descriptor and every record carries
/// its codec metadata, with the CRC table computed over the **encoded**
/// record bytes. v2 files keep loading unchanged (dense f32 is the identity
/// encoding), and [`to_bytes_encoded`] with [`WeightEncoding::Dense`]
/// delegates to [`to_bytes`] so the dense wire format stays byte-identical.
const VERSION_ENCODED: u32 = 3;

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Wrong magic number.
    BadMagic(u32),
    /// Unsupported version.
    BadVersion(u32),
    /// Payload ended early.
    Truncated,
    /// The config header describes no valid model: it fails
    /// [`TransformerConfig::try_validate`], a dimension exceeds the format's
    /// cap, or it implies more matrices than the CRC table can count.
    BadConfig(String),
    /// A matrix record's shape is not the one the config header implies at
    /// its position.
    BadShape(u32, u32),
    /// The stored stripe-CRC table does not cover every matrix the config
    /// header promises (missing or malformed table).
    MissingCrcs {
        /// Entries the config header requires.
        expected: u32,
        /// Entries the file stores.
        found: u32,
    },
    /// A matrix record's payload does not match its stored CRC.
    CrcMismatch {
        /// Index of the failing record in traversal order.
        stripe: u32,
        /// CRC stored in the table.
        stored: u32,
        /// CRC computed over the record as read.
        computed: u32,
    },
    /// A v3 encoding descriptor or record could not be decoded: unknown
    /// codec tag, invalid or non-canonical codec parameters, or a payload
    /// that does not fit its record's geometry.
    BadEncoding(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::BadMagic(m) => write!(f, "bad magic 0x{:08x}", m),
            IoError::BadVersion(v) => write!(f, "unsupported version {}", v),
            IoError::Truncated => write!(f, "truncated payload"),
            IoError::BadConfig(reason) => write!(f, "bad config header: {}", reason),
            IoError::BadShape(r, c) => write!(f, "bad matrix shape {}x{}", r, c),
            IoError::MissingCrcs { expected, found } => {
                write!(f, "stripe CRC table has {} entries, config requires {}", found, expected)
            }
            IoError::CrcMismatch { stripe, stored, computed } => write!(
                f,
                "stripe {} CRC mismatch: stored 0x{:08x}, computed 0x{:08x}",
                stripe, stored, computed
            ),
            IoError::BadEncoding(reason) => write!(f, "bad stripe encoding: {}", reason),
        }
    }
}

impl std::error::Error for IoError {}

/// Hard cap on a model dimension (`d_model`, `d_ff`, vocabulary), to
/// reject corrupt headers before any record is read.
const MAX_DIM: usize = 1 << 20;

/// Number of matrix records (and therefore CRC-table entries) a checkpoint
/// with this configuration must contain, in traversal order; `None` when
/// that does not fit the table's `u32` count.
fn stripe_count(cfg: &TransformerConfig) -> Option<u32> {
    let att = cfg.n_heads.checked_mul(6)?.checked_add(2)?;
    let enc = cfg.n_encoders.checked_mul(att.checked_add(8)?)?;
    let dec = cfg.n_decoders.checked_mul(att.checked_mul(2)?.checked_add(10)?)?;
    u32::try_from(enc.checked_add(dec)?.checked_add(3)?).ok()
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A v2 record: `rows || cols || f32 payload`.
fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u32(buf, m.rows() as u32);
    put_u32(buf, m.cols() as u32);
    for &x in m.as_slice() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// A v3 record: `rows || cols || codec meta || payload_len || payload`.
fn put_encoded(buf: &mut Vec<u8>, m: &Matrix, spec: WeightEncoding) {
    let (enc, payload) = encoding::encode(m, spec);
    put_u32(buf, m.rows() as u32);
    put_u32(buf, m.cols() as u32);
    match &enc {
        StripeEncoding::DenseF32 | StripeEncoding::BlockCirculant { .. } => {}
        StripeEncoding::Int8 { scale } => buf.extend_from_slice(&scale.to_le_bytes()),
        StripeEncoding::SparseTiles { bitmap, .. } => {
            put_u32(buf, bitmap.len() as u32);
            buf.extend_from_slice(bitmap);
        }
    }
    put_u32(buf, payload.len() as u32);
    buf.extend_from_slice(&payload);
}

/// Header descriptor for a v3 file: `(tag, p1, p2)` little-endian u32s
/// right after the config words.
fn spec_descriptor(spec: WeightEncoding) -> (u32, u32, u32) {
    match spec {
        WeightEncoding::Dense => (0, 0, 0),
        WeightEncoding::Int8 => (1, 0, 0),
        WeightEncoding::BlockCirculant { block } => (2, block as u32, 0),
        WeightEncoding::SparseTiles { tile, occupancy_pct } => (3, tile as u32, occupancy_pct),
    }
}

/// Parse a v3 descriptor. A parameter the codec does not use must be zero,
/// so every accepted descriptor is the one [`spec_descriptor`] writes.
fn spec_from_descriptor(tag: u32, p1: u32, p2: u32) -> Result<WeightEncoding, IoError> {
    let spec = match tag {
        0 => WeightEncoding::Dense,
        1 => WeightEncoding::Int8,
        2 => WeightEncoding::BlockCirculant { block: p1 as usize },
        3 => WeightEncoding::SparseTiles { tile: p1 as usize, occupancy_pct: p2 },
        other => return Err(IoError::BadEncoding(format!("unknown codec tag {}", other))),
    };
    spec.validate().map_err(IoError::BadEncoding)?;
    if spec_descriptor(spec) != (tag, p1, p2) {
        return Err(IoError::BadEncoding(format!(
            "descriptor ({}, {}, {}) sets a parameter codec {} does not use",
            tag, p1, p2, spec
        )));
    }
    Ok(spec)
}

/// Write a container: magic, version, the six config words, the v3
/// descriptor words (none for v2), then the stripe-CRC table and every
/// matrix record in traversal order. Each table entry is the CRC-32 of its
/// record's exact bytes, filled in once the record is written.
fn write_container(
    cfg: &TransformerConfig,
    w: &ModelWeights,
    version: u32,
    descriptor: &[u32],
    mut put_record: impl FnMut(&mut Vec<u8>, &Matrix),
) -> Vec<u8> {
    let stripes = w.matrices();
    debug_assert_eq!(Some(stripes.len() as u32), stripe_count(cfg));
    let mut buf = Vec::new();
    put_u32(&mut buf, MAGIC);
    put_u32(&mut buf, version);
    for v in [cfg.n_encoders, cfg.n_decoders, cfg.d_model, cfg.n_heads, cfg.d_ff, cfg.vocab_size] {
        put_u32(&mut buf, v as u32);
    }
    for &v in descriptor {
        put_u32(&mut buf, v);
    }
    put_u32(&mut buf, stripes.len() as u32);
    let table = buf.len();
    buf.resize(table + 4 * stripes.len(), 0);
    for (i, m) in stripes.into_iter().enumerate() {
        let start = buf.len();
        put_record(&mut buf, m);
        let crc = crc32(&buf[start..]);
        buf[table + 4 * i..table + 4 * i + 4].copy_from_slice(&crc.to_le_bytes());
    }
    buf
}

/// Serialize a model's configuration and weights to bytes.
pub fn to_bytes(cfg: &TransformerConfig, w: &ModelWeights) -> Vec<u8> {
    write_container(cfg, w, VERSION, &[], put_matrix)
}

/// Serialize a model with its weights in a wire encoding (v3 container).
/// The CRC table covers the **encoded** record bytes, what actually
/// travels.
///
/// [`WeightEncoding::Dense`] delegates to [`to_bytes`]: the dense format IS
/// the v2 file, byte for byte, so every existing reader keeps working.
pub fn to_bytes_encoded(
    cfg: &TransformerConfig,
    w: &ModelWeights,
    spec: WeightEncoding,
) -> Result<Vec<u8>, IoError> {
    if spec == WeightEncoding::Dense {
        return Ok(to_bytes(cfg, w));
    }
    spec.validate().map_err(IoError::BadEncoding)?;
    let (tag, p1, p2) = spec_descriptor(spec);
    Ok(write_container(cfg, w, VERSION_ENCODED, &[tag, p1, p2], |buf, m| put_encoded(buf, m, spec)))
}

/// Bounds-checked reader over untrusted bytes. [`Cursor::take`] is the one
/// place a short input becomes [`IoError::Truncated`].
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(IoError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, IoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// The record walk: the container's cursor, its stored CRC table, and the
/// v3 encoding (`None` for a v2 file).
struct Records<'a> {
    cur: Cursor<'a>,
    crcs: Cursor<'a>,
    stripe: u32,
    spec: Option<WeightEncoding>,
}

impl Records<'_> {
    /// Read the next record, which must be `rows × cols`; verify the stored
    /// CRC over the record's exact bytes, then decode its payload.
    fn matrix(&mut self, rows: usize, cols: usize) -> Result<Matrix, IoError> {
        let start = self.cur.rest;
        let (r, c) = (self.cur.u32()?, self.cur.u32()?);
        if (r as usize, c as usize) != (rows, cols) {
            return Err(IoError::BadShape(r, c));
        }
        let enc = match self.spec {
            None | Some(WeightEncoding::Dense) => StripeEncoding::DenseF32,
            Some(WeightEncoding::Int8) => {
                StripeEncoding::Int8 { scale: f32::from_bits(self.cur.u32()?) }
            }
            Some(WeightEncoding::BlockCirculant { block }) => {
                StripeEncoding::BlockCirculant { block }
            }
            Some(WeightEncoding::SparseTiles { tile, .. }) => {
                let len = self.cur.u32()? as usize;
                StripeEncoding::SparseTiles { tile, bitmap: self.cur.take(len)?.to_vec() }
            }
        };
        // A v2 record's payload length is its shape's; a v3 record states it.
        let len = match self.spec {
            None => rows.saturating_mul(cols).saturating_mul(4),
            Some(_) => self.cur.u32()? as usize,
        };
        let payload = self.cur.take(len)?;
        let stored = self.crcs.u32()?;
        let computed = crc32(&start[..start.len() - self.cur.rest.len()]);
        if stored != computed {
            return Err(IoError::CrcMismatch { stripe: self.stripe, stored, computed });
        }
        self.stripe += 1;
        encoding::decode(&enc, rows, cols, payload).map_err(|e| IoError::BadEncoding(e.to_string()))
    }

    fn attention(&mut self, cfg: &TransformerConfig) -> Result<AttentionWeights, IoError> {
        let (d, dk) = (cfg.d_model, cfg.d_k());
        let mut heads = |rows| -> Result<Vec<Matrix>, IoError> {
            (0..cfg.n_heads).map(|_| self.matrix(rows, dk)).collect()
        };
        Ok(AttentionWeights {
            w_q: heads(d)?,
            w_k: heads(d)?,
            w_v: heads(d)?,
            b_q: heads(1)?,
            b_k: heads(1)?,
            b_v: heads(1)?,
            w_a: self.matrix(d, d)?,
            b_a: self.matrix(1, d)?,
        })
    }

    fn ffn(&mut self, cfg: &TransformerConfig) -> Result<FfnWeights, IoError> {
        let (d, f) = (cfg.d_model, cfg.d_ff);
        Ok(FfnWeights {
            w1: self.matrix(d, f)?,
            b1: self.matrix(1, f)?,
            w2: self.matrix(f, d)?,
            b2: self.matrix(1, d)?,
        })
    }

    fn ln(&mut self, cfg: &TransformerConfig) -> Result<LayerNormWeights, IoError> {
        Ok(LayerNormWeights { w: self.matrix(1, cfg.d_model)?, b: self.matrix(1, cfg.d_model)? })
    }
}

/// Deserialize a model from bytes. Accepts v2 (dense f32) and v3 (encoded)
/// containers; weights are decoded at load, so callers always receive plain
/// f32 matrices regardless of the wire encoding.
pub fn from_bytes(bytes: &[u8]) -> Result<(TransformerConfig, ModelWeights), IoError> {
    let mut cur = Cursor { rest: bytes };
    let magic = cur.u32()?;
    if magic != MAGIC {
        return Err(IoError::BadMagic(magic));
    }
    let version = cur.u32()?;
    if version != VERSION && version != VERSION_ENCODED {
        return Err(IoError::BadVersion(version));
    }
    let mut word = || cur.u32().map(|v| v as usize);
    let cfg = TransformerConfig {
        n_encoders: word()?,
        n_decoders: word()?,
        d_model: word()?,
        n_heads: word()?,
        d_ff: word()?,
        vocab_size: word()?,
    };
    cfg.try_validate().map_err(IoError::BadConfig)?;
    if cfg.d_model.max(cfg.d_ff).max(cfg.vocab_size) > MAX_DIM {
        return Err(IoError::BadConfig(format!("a dimension exceeds the cap {}", MAX_DIM)));
    }
    let spec = if version == VERSION_ENCODED {
        let (tag, p1, p2) = (cur.u32()?, cur.u32()?, cur.u32()?);
        Some(spec_from_descriptor(tag, p1, p2)?)
    } else {
        None
    };
    let expected = stripe_count(&cfg)
        .ok_or_else(|| IoError::BadConfig("more matrices than a u32 counts".into()))?;
    let found = cur.u32()?;
    if found != expected {
        return Err(IoError::MissingCrcs { expected, found });
    }
    let crcs = Cursor { rest: cur.take((found as usize).saturating_mul(4))? };
    let mut rec = Records { cur, crcs, stripe: 0, spec };
    let encoders = (0..cfg.n_encoders)
        .map(|_| {
            Ok(EncoderWeights {
                mha: rec.attention(&cfg)?,
                ln1: rec.ln(&cfg)?,
                ffn: rec.ffn(&cfg)?,
                ln2: rec.ln(&cfg)?,
            })
        })
        .collect::<Result<_, IoError>>()?;
    let decoders = (0..cfg.n_decoders)
        .map(|_| {
            Ok(DecoderWeights {
                masked_mha: rec.attention(&cfg)?,
                ln1: rec.ln(&cfg)?,
                cross_mha: rec.attention(&cfg)?,
                ln2: rec.ln(&cfg)?,
                ffn: rec.ffn(&cfg)?,
                ln3: rec.ln(&cfg)?,
            })
        })
        .collect::<Result<_, IoError>>()?;
    let (d, v) = (cfg.d_model, cfg.vocab_size);
    let weights = ModelWeights {
        encoders,
        decoders,
        embedding: rec.matrix(v, d)?,
        out_proj: rec.matrix(d, v)?,
        out_bias: rec.matrix(1, v)?,
    };
    Ok((cfg, weights))
}

/// Write a model to a file.
pub fn save(
    path: &std::path::Path,
    cfg: &TransformerConfig,
    w: &ModelWeights,
) -> std::io::Result<()> {
    std::fs::write(path, to_bytes(cfg, w))
}

/// Write a model to a file in a wire encoding (v3; Dense stays v2).
pub fn save_encoded(
    path: &std::path::Path,
    cfg: &TransformerConfig,
    w: &ModelWeights,
    spec: WeightEncoding,
) -> std::io::Result<()> {
    let bytes = to_bytes_encoded(cfg, w, spec)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    std::fs::write(path, bytes)
}

/// Read a model from a file.
pub fn load(path: &std::path::Path) -> std::io::Result<(TransformerConfig, ModelWeights)> {
    let data = std::fs::read(path)?;
    from_bytes(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Little-endian `u32` words, the unit every header field is written in.
    fn words(ws: &[u32]) -> Vec<u8> {
        ws.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn roundtrip_through_bytes() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 42);
        let bytes = to_bytes(&cfg, &w);
        let (cfg2, w2) = from_bytes(&bytes).unwrap();
        assert_eq!(cfg, cfg2);
        assert_eq!(w, w2);
    }

    #[test]
    fn roundtrip_through_file() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 7);
        let path = std::env::temp_dir().join("tasr_model_io_test.bin");
        save(&path, &cfg, &w).unwrap();
        let (cfg2, w2) = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(cfg, cfg2);
        assert_eq!(w, w2);
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // CRC-32 and length of every container the tiny seed-42 model
        // writes. A format change fails here even when the writer and the
        // reader change alike, which no round trip can see.
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 42);
        let v2 = to_bytes(&cfg, &w);
        assert_eq!((asr_tensor::crc32(&v2), v2.len()), (0x111f_0c83, 129_372));
        for (spec, crc, len) in [
            (WeightEncoding::Int8, 0x853f_bc15, 34_643),
            (WeightEncoding::BlockCirculant { block: 4 }, 0xc401_66c3, 38_524),
            (WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 100 }, 0x1b34_31d8, 130_764),
        ] {
            let v3 = to_bytes_encoded(&cfg, &w, spec).unwrap();
            assert_eq!((asr_tensor::crc32(&v3), v3.len()), (crc, len), "{}", spec);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut v = words(&[0xdeadbeef, VERSION]);
        v.extend([0; 64]);
        assert!(matches!(from_bytes(&v), Err(IoError::BadMagic(0xdeadbeef))));
    }

    #[test]
    fn bad_version_rejected() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let mut v = to_bytes(&cfg, &w);
        v[4] = 99; // bump version
        assert!(matches!(from_bytes(&v), Err(IoError::BadVersion(_))));
    }

    #[test]
    fn truncated_payload_rejected() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let bytes = to_bytes(&cfg, &w);
        assert!(matches!(from_bytes(&bytes[..bytes.len() / 2]), Err(IoError::Truncated)));
    }

    #[test]
    fn v1_files_without_crc_table_rejected() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let mut v = to_bytes(&cfg, &w);
        v[4] = 1; // pretend to be the pre-CRC format
        assert!(matches!(from_bytes(&v), Err(IoError::BadVersion(1))));
    }

    #[test]
    fn missing_crc_entries_rejected() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let mut v = to_bytes(&cfg, &w);
        v[32] ^= 1; // stripe count lives right after the 32-byte file header
        match from_bytes(&v) {
            Err(IoError::MissingCrcs { expected, found }) => {
                assert_eq!(Some(expected), stripe_count(&cfg));
                assert_ne!(found, expected);
            }
            other => panic!("expected MissingCrcs, got {:?}", other),
        }
    }

    #[test]
    fn truncated_crc_table_rejected() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let bytes = to_bytes(&cfg, &w);
        // cut mid-table: count promises stripe_count entries, only one fits
        assert!(matches!(from_bytes(&bytes[..40]), Err(IoError::Truncated)));
    }

    #[test]
    fn corrupted_payload_byte_rejected() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let mut v = to_bytes(&cfg, &w);
        let n = v.len();
        v[n - 3] ^= 0x40; // single bit deep inside the last matrix payload
        match from_bytes(&v) {
            Err(IoError::CrcMismatch { stripe, stored, computed }) => {
                assert_eq!(Some(stripe), stripe_count(&cfg).map(|n| n - 1));
                assert_ne!(stored, computed);
            }
            other => panic!("expected CrcMismatch, got {:?}", other),
        }
    }

    #[test]
    fn corrupted_stored_crc_rejected() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let mut v = to_bytes(&cfg, &w);
        v[36] ^= 0xff; // first CRC table entry
        match from_bytes(&v) {
            Err(IoError::CrcMismatch { stripe, .. }) => assert_eq!(stripe, 0),
            other => panic!("expected CrcMismatch, got {:?}", other),
        }
    }

    #[test]
    fn header_without_encoders_or_heads_rejected() {
        // No layers and no heads leave only the three output matrices, each
        // 1 x 1 at d_model = vocab = 1, so the file is complete and its
        // CRCs hold; such a config's d_k() would divide by zero.
        let record = words(&[1, 1, 0]);
        let mut v = words(&[MAGIC, VERSION, 0, 0, 1, 0, 1, 1, 3]);
        v.extend(words(&[crc32(&record); 3]));
        v.extend(record.repeat(3));
        assert!(matches!(from_bytes(&v), Err(IoError::BadConfig(_))));
    }

    #[test]
    fn stripe_count_does_not_wrap() {
        // 2^31 + 1 heads in one encoder make 6h + 13 = 3 * 2^32 + 19
        // records, which a u32 wraps to 19; the 19-entry table of this
        // 112-byte file once matched it and sent the reader to allocate
        // 2^31 + 1 heads.
        let heads = (1 << 31) + 1;
        let mut v = words(&[MAGIC, VERSION, 1, 0, 32, heads, 64, 31, 19]);
        v.extend(words(&[0; 19]));
        assert_eq!(v.len(), 112);
        assert!(matches!(from_bytes(&v), Err(IoError::BadConfig(_))));
        let cfg = TransformerConfig {
            n_encoders: 1,
            n_decoders: 0,
            n_heads: heads as usize,
            ..TransformerConfig::tiny()
        };
        assert_eq!(stripe_count(&cfg), None);
    }

    #[test]
    fn encoded_payload_is_checked_against_its_geometry_before_allocating() {
        // One head at d_model = 2^20: the first record, W_Q of head 0, is
        // 2^20 x 2^20 (4 TiB decoded) with an empty block-circulant payload
        // and a correct CRC.
        let record = words(&[1 << 20, 1 << 20, 0]);
        let mut v = words(&[MAGIC, VERSION_ENCODED, 1, 0, 1 << 20, 1, 1, 4, 2, 4, 0, 19]);
        v.extend(words(&[crc32(&record)]));
        v.extend(words(&[0; 18]));
        v.extend(&record);
        assert_eq!(v.len(), 136);
        assert!(matches!(from_bytes(&v), Err(IoError::BadEncoding(_))));
    }

    #[test]
    fn record_must_have_the_shape_its_position_implies() {
        // Record 0 (W_Q of head 0) is 32 x 8. Relabelled 16 x 16 it still
        // holds 256 floats, and with its CRC entry recomputed only the
        // shape check stands between it and a matmul shape panic.
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 42);
        let mut v = to_bytes(&cfg, &w);
        let rec0 = 36 + 4 * stripe_count(&cfg).unwrap() as usize;
        v[rec0..rec0 + 8].copy_from_slice(&words(&[16, 16]));
        let crc = crc32(&v[rec0..rec0 + 8 + 256 * 4]);
        v[36..40].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(from_bytes(&v), Err(IoError::BadShape(16, 16))));
    }

    #[test]
    fn encoded_dense_is_byte_identical_to_v2() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 42);
        let v2 = to_bytes(&cfg, &w);
        let dense = to_bytes_encoded(&cfg, &w, WeightEncoding::Dense).unwrap();
        assert_eq!(v2, dense, "Dense must stay the v2 wire format exactly");
    }

    #[test]
    fn encoded_sparse_roundtrips_bit_identical() {
        // Sparse tiling is lossless whatever the occupancy, so the full
        // model must survive a v3 write/read untouched.
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 13);
        let spec = WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 100 };
        let bytes = to_bytes_encoded(&cfg, &w, spec).unwrap();
        let (cfg2, w2) = from_bytes(&bytes).unwrap();
        assert_eq!(cfg, cfg2);
        assert_eq!(w, w2);
    }

    #[test]
    fn encoded_int8_shrinks_and_decodes_like_the_codec() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 21);
        let v2 = to_bytes(&cfg, &w);
        let v3 = to_bytes_encoded(&cfg, &w, WeightEncoding::Int8).unwrap();
        assert!(v3.len() < v2.len() / 3, "int8 container {} vs dense {}", v3.len(), v2.len());
        let (_, w2) = from_bytes(&v3).unwrap();
        // Decode-at-load must match the shared codec matrix by matrix.
        for (orig, got) in w.matrices().into_iter().zip(w2.matrices()) {
            let (enc, payload) = encoding::encode(orig, WeightEncoding::Int8);
            let want = encoding::decode(&enc, orig.rows(), orig.cols(), &payload).unwrap();
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn encoded_file_roundtrips_through_disk() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 3);
        let path = std::env::temp_dir().join("tasr_model_io_encoded_test.bin");
        save_encoded(&path, &cfg, &w, WeightEncoding::BlockCirculant { block: 4 }).unwrap();
        let (cfg2, w2) = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(cfg, cfg2);
        assert_eq!(w2.matrices().len(), w.matrices().len());
    }

    #[test]
    fn corrupted_encoded_byte_rejected_by_the_stored_crc() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let mut v = to_bytes_encoded(&cfg, &w, WeightEncoding::Int8).unwrap();
        let n = v.len();
        v[n - 3] ^= 0x40; // deep inside the last encoded payload
        match from_bytes(&v) {
            Err(IoError::CrcMismatch { stripe, stored, computed }) => {
                assert_eq!(Some(stripe), stripe_count(&cfg).map(|n| n - 1));
                assert_ne!(stored, computed);
            }
            other => panic!("expected CrcMismatch, got {:?}", other),
        }
    }

    #[test]
    fn unknown_codec_tag_rejected_typed() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let mut v = to_bytes_encoded(&cfg, &w, WeightEncoding::Int8).unwrap();
        v[32] = 9; // descriptor tag lives right after the 32-byte header
        assert!(matches!(from_bytes(&v), Err(IoError::BadEncoding(_))));
    }

    #[test]
    fn unused_codec_parameter_rejected_typed() {
        // Int8 ignores both descriptor parameters; a file that sets one is
        // not one this writer produced.
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let mut v = to_bytes_encoded(&cfg, &w, WeightEncoding::Int8).unwrap();
        v[36] = 4; // p1, the word after the tag
        assert!(matches!(from_bytes(&v), Err(IoError::BadEncoding(_))));
    }

    #[test]
    fn size_matches_weight_accounting() {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, 1);
        let bytes = to_bytes(&cfg, &w);
        // payload = weights + 8-byte header per matrix + 32-byte file header;
        // it must be within a percent of the raw weight bytes
        let raw = w.size_bytes();
        assert!(bytes.len() as u64 > raw);
        assert!((bytes.len() as u64) < raw + raw / 20 + 1024);
    }
}
