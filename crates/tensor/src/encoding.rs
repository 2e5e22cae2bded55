//! The shared weight-stripe codec: "bytes on the wire" as a first-class
//! typed quantity, distinct from a tensor's logical shape.
//!
//! Every layer that moves weights — `model_io` containers, the plan
//! lowering's `LoadStripe` byte counts, the functional loader's CRC
//! envelope — consumes this one codec instead of re-deriving
//! `rows × cols × 4` dense math. Two types split the concern:
//!
//! * [`WeightEncoding`] is the *configuration-level spec* — which codec a
//!   design point streams its weights in, plus the analytic assumptions
//!   (block size, tile size, assumed occupancy) a planner needs before any
//!   real tensor exists;
//! * [`StripeEncoding`] is the *data-level record* — what an encoded stripe
//!   actually carries (the int8 scale, the measured occupancy bitmap), the
//!   metadata [`decode`] needs to reconstruct the matrix from the wire
//!   bytes.
//!
//! The encodings follow the compression literature the accelerator draws
//! on: int8 weight streaming (the thesis's fixed-precision future work),
//! FTRANS-style block-circulant compression (each `block × block` tile
//! collapses to one compressed row), and AccelTran-style sparse tiles (a
//! one-bit-per-tile occupancy bitmap plus only the nonzero tiles' payload).
//! Dense f32 and sparse tiles are lossless — decode is bit-identical to
//! the source. Int8 round-trips exactly through
//! [`QuantizedMatrix::quantize`] + dequantize. Block-circulant is lossy in
//! general and exact only for tiles that already are circulant.

use crate::crc32::Crc32;
use crate::matrix::Matrix;
use crate::quant::QuantizedMatrix;
use std::fmt;

/// Configuration-level choice of weight-stripe codec: what a design point
/// streams over HBM and what the analytic planner prices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WeightEncoding {
    /// Uncompressed f32, four bytes per weight — the paper's design, and the
    /// default everywhere.
    #[default]
    Dense,
    /// Per-tensor symmetric int8: one byte per weight plus a per-stripe
    /// scale riding in the record header.
    Int8,
    /// FTRANS-style block-circulant compression: every full
    /// `block × block` tile stores only its `block`-long compressed row.
    BlockCirculant {
        /// Circulant tile side; each full tile compresses `block×` .
        block: usize,
    },
    /// AccelTran-style sparse tiles: a one-bit-per-tile occupancy bitmap,
    /// then only the nonzero tiles' dense payload.
    SparseTiles {
        /// Square tile side the occupancy bitmap is measured at.
        tile: usize,
        /// Assumed fraction of nonzero tiles, percent — the analytic
        /// planner's occupancy model. The functional codec measures the
        /// real bitmap at encode time.
        occupancy_pct: u32,
    },
}

impl WeightEncoding {
    /// Stable discriminant for CRC digests and container headers.
    pub fn tag(&self) -> u8 {
        match self {
            WeightEncoding::Dense => 0,
            WeightEncoding::Int8 => 1,
            WeightEncoding::BlockCirculant { .. } => 2,
            WeightEncoding::SparseTiles { .. } => 3,
        }
    }

    /// Fold the spec's identity (tag + parameters) into a CRC: schedule
    /// stripe CRCs carry it, so stripes of different encodings never match.
    pub fn digest_into(&self, crc: &mut Crc32) {
        crc.update(&[self.tag()]);
        match self {
            WeightEncoding::Dense | WeightEncoding::Int8 => {}
            WeightEncoding::BlockCirculant { block } => {
                crc.update(&(*block as u64).to_le_bytes());
            }
            WeightEncoding::SparseTiles { tile, occupancy_pct } => {
                crc.update(&(*tile as u64).to_le_bytes());
                crc.update(&occupancy_pct.to_le_bytes());
            }
        }
    }

    /// Analytic bytes on the wire for `weights` logical weights — the one
    /// helper every layer prices HBM traffic through.
    ///
    /// Dense is exact; int8 is one byte per weight (scales ride in record
    /// headers); block-circulant and sparse-tiles are the planner's
    /// aggregate model (edge-tile remainders and per-record framing are
    /// below its resolution — the functional codec carries the real
    /// per-matrix layout).
    pub fn encoded_len(&self, weights: u64) -> u64 {
        match *self {
            WeightEncoding::Dense => 4 * weights,
            WeightEncoding::Int8 => weights,
            WeightEncoding::BlockCirculant { block } => 4 * weights.div_ceil((block as u64).max(1)),
            WeightEncoding::SparseTiles { tile, occupancy_pct } => {
                let tile_elems = ((tile * tile) as u64).max(1);
                let n_tiles = weights.div_ceil(tile_elems);
                let payload = 4 * weights * occupancy_pct as u64 / 100;
                payload + n_tiles.div_ceil(8)
            }
        }
    }

    /// Fraction of PSA tile work a `Compute` lowering may skip because the
    /// phase's weight tiles are zero (sparse tiles only; everything else
    /// computes the full schedule).
    pub fn zero_tile_fraction(&self) -> f64 {
        match self {
            WeightEncoding::SparseTiles { occupancy_pct, .. } => {
                1.0 - (*occupancy_pct).min(100) as f64 / 100.0
            }
            _ => 0.0,
        }
    }

    /// Parameter sanity for config validation.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            WeightEncoding::Dense | WeightEncoding::Int8 => Ok(()),
            WeightEncoding::BlockCirculant { block } => {
                if *block < 2 {
                    return Err(format!("block-circulant block {} must be >= 2", block));
                }
                Ok(())
            }
            WeightEncoding::SparseTiles { tile, occupancy_pct } => {
                if *tile < 1 {
                    return Err("sparse tile side must be >= 1".into());
                }
                if *occupancy_pct > 100 {
                    return Err(format!("tile occupancy {}% outside 0..=100", occupancy_pct));
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for WeightEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightEncoding::Dense => write!(f, "dense"),
            WeightEncoding::Int8 => write!(f, "int8"),
            WeightEncoding::BlockCirculant { block } => write!(f, "bc:{}", block),
            WeightEncoding::SparseTiles { tile, occupancy_pct } => {
                write!(f, "sparse:{}@{}", tile, occupancy_pct)
            }
        }
    }
}

/// Data-level encoding record attached to one encoded stripe: everything
/// [`decode`] needs beyond the wire bytes themselves.
#[derive(Debug, Clone, PartialEq)]
pub enum StripeEncoding {
    /// f32 little-endian payload, `rows · cols · 4` bytes.
    DenseF32,
    /// One i8 byte per weight at this per-tensor symmetric scale.
    Int8 {
        /// Dequantization scale (`x ≈ q · scale`), fixed at encode time.
        scale: f32,
    },
    /// Compressed rows of `block × block` circulant tiles (edge remainders
    /// dense).
    BlockCirculant {
        /// Circulant tile side.
        block: usize,
    },
    /// Only the nonzero tiles' dense payload; the measured occupancy
    /// bitmap (one bit per tile, row-major tile order, LSB first) says
    /// which.
    SparseTiles {
        /// Square tile side.
        tile: usize,
        /// Measured occupancy bitmap.
        bitmap: Vec<u8>,
    },
}

impl StripeEncoding {
    /// Stable discriminant, matching [`WeightEncoding::tag`].
    pub fn tag(&self) -> u8 {
        match self {
            StripeEncoding::DenseF32 => 0,
            StripeEncoding::Int8 { .. } => 1,
            StripeEncoding::BlockCirculant { .. } => 2,
            StripeEncoding::SparseTiles { .. } => 3,
        }
    }

    /// Whether decode reconstructs the source bit-for-bit for *any* input
    /// (int8 and block-circulant only round-trip their own codomain).
    pub fn is_lossless(&self) -> bool {
        matches!(self, StripeEncoding::DenseF32 | StripeEncoding::SparseTiles { .. })
    }

    /// Fraction of tiles present (1.0 for non-sparse encodings).
    pub fn occupancy(&self, rows: usize, cols: usize) -> f64 {
        match self {
            StripeEncoding::SparseTiles { tile, bitmap } => {
                let n = tile_grid(rows, cols, *tile);
                if n == 0 {
                    return 1.0;
                }
                let set: u32 = bitmap.iter().map(|b| b.count_ones()).sum();
                set as f64 / n as f64
            }
            _ => 1.0,
        }
    }
}

/// Codec failure: the encoding record and the wire bytes disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What disagreed.
    pub reason: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stripe codec error: {}", self.reason)
    }
}

impl std::error::Error for CodecError {}

fn err(reason: impl Into<String>) -> CodecError {
    CodecError { reason: reason.into() }
}

/// Total tiles in the `tile`-sided grid over a `rows × cols` matrix
/// (edge tiles clipped, still one bitmap bit each).
fn tile_grid(rows: usize, cols: usize, tile: usize) -> usize {
    rows.div_ceil(tile.max(1)) * cols.div_ceil(tile.max(1))
}

fn put_f32s(out: &mut Vec<u8>, vals: impl IntoIterator<Item = f32>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encode a matrix under a configuration-level spec, returning the
/// data-level record and the wire bytes a `LoadStripe` would move.
pub fn encode(m: &Matrix, spec: WeightEncoding) -> (StripeEncoding, Vec<u8>) {
    match spec {
        WeightEncoding::Dense => {
            let mut bytes = Vec::with_capacity(m.len() * 4);
            put_f32s(&mut bytes, m.as_slice().iter().copied());
            (StripeEncoding::DenseF32, bytes)
        }
        WeightEncoding::Int8 => {
            let q = QuantizedMatrix::quantize(m);
            let mut bytes = Vec::with_capacity(m.len());
            for i in 0..m.rows() {
                bytes.extend(q.row(i).iter().map(|&v| v as u8));
            }
            (StripeEncoding::Int8 { scale: q.scale }, bytes)
        }
        WeightEncoding::BlockCirculant { block } => {
            let block = block.max(2);
            let mut bytes = Vec::new();
            for_each_tile(m.rows(), m.cols(), block, |r0, c0, nr, nc| {
                if nr == block && nc == block {
                    // Full tile: project onto the nearest circulant — each
                    // compressed-row entry is the mean of its diagonal.
                    for k in 0..block {
                        let sum: f32 = (0..block)
                            .map(|i| m.as_slice()[(r0 + i) * m.cols() + c0 + (i + k) % block])
                            .sum();
                        bytes.extend_from_slice(&(sum / block as f32).to_le_bytes());
                    }
                } else {
                    // Edge remainder: stored dense.
                    for i in 0..nr {
                        put_f32s(
                            &mut bytes,
                            m.as_slice()[(r0 + i) * m.cols() + c0..(r0 + i) * m.cols() + c0 + nc]
                                .iter()
                                .copied(),
                        );
                    }
                }
            });
            (StripeEncoding::BlockCirculant { block }, bytes)
        }
        WeightEncoding::SparseTiles { tile, .. } => {
            let tile = tile.max(1);
            let mut bitmap = vec![0u8; tile_grid(m.rows(), m.cols(), tile).div_ceil(8)];
            let mut bytes = Vec::new();
            let mut idx = 0usize;
            for_each_tile(m.rows(), m.cols(), tile, |r0, c0, nr, nc| {
                let occupied = (0..nr).any(|i| {
                    m.as_slice()[(r0 + i) * m.cols() + c0..(r0 + i) * m.cols() + c0 + nc]
                        .iter()
                        .any(|&v| v != 0.0)
                });
                if occupied {
                    bitmap[idx / 8] |= 1 << (idx % 8);
                    for i in 0..nr {
                        put_f32s(
                            &mut bytes,
                            m.as_slice()[(r0 + i) * m.cols() + c0..(r0 + i) * m.cols() + c0 + nc]
                                .iter()
                                .copied(),
                        );
                    }
                }
                idx += 1;
            });
            (StripeEncoding::SparseTiles { tile, bitmap }, bytes)
        }
    }
}

/// Decode wire bytes back into a `rows × cols` matrix under a data-level
/// record. Lossless records reconstruct the source bit-for-bit; int8
/// reconstructs exactly `quantize(m).dequantize()`.
///
/// The payload is checked against the record's geometry before the matrix
/// is allocated, and a shape too large to allocate fails typed: a
/// compressed record can claim far more weights than it carries.
pub fn decode(
    enc: &StripeEncoding,
    rows: usize,
    cols: usize,
    bytes: &[u8],
) -> Result<Matrix, CodecError> {
    let elems = rows.checked_mul(cols).ok_or_else(|| too_large(rows, cols))?;
    match enc {
        StripeEncoding::DenseF32 => {
            expect_len("dense", bytes, elems.checked_mul(4), rows, cols)?;
            let data = bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            Ok(Matrix::from_vec(rows, cols, data))
        }
        StripeEncoding::Int8 { scale } => {
            expect_len("int8", bytes, Some(elems), rows, cols)?;
            let data = bytes.iter().map(|&b| b as i8 as f32 * scale).collect();
            Ok(Matrix::from_vec(rows, cols, data))
        }
        StripeEncoding::BlockCirculant { block } => {
            let block = (*block).max(2);
            // Every full tile stores `block` floats instead of `block²`;
            // edge remainders are dense.
            let full_tiles = (rows / block) * (cols / block);
            let floats = elems - full_tiles * block * (block - 1);
            expect_len("block-circulant", bytes, floats.checked_mul(4), rows, cols)?;
            let mut m = try_zeros(rows, cols)?;
            let mut off = 0usize;
            for_each_tile(rows, cols, block, |r0, c0, nr, nc| {
                let need = if nr == block && nc == block { block } else { nr * nc };
                let vals: Vec<f32> = bytes[off..off + need * 4]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                off += need * 4;
                if nr == block && nc == block {
                    for i in 0..nr {
                        for j in 0..nc {
                            // tile[i][j] = c[(j - i) mod block]; i, j < block.
                            m.as_mut_slice()[(r0 + i) * cols + c0 + j] =
                                vals[(j + block - i) % block];
                        }
                    }
                } else {
                    for i in 0..nr {
                        for j in 0..nc {
                            m.as_mut_slice()[(r0 + i) * cols + c0 + j] = vals[i * nc + j];
                        }
                    }
                }
            });
            Ok(m)
        }
        StripeEncoding::SparseTiles { tile, bitmap } => {
            let tile = (*tile).max(1);
            let n_tiles = tile_grid(rows, cols, tile);
            if bitmap.len() != n_tiles.div_ceil(8) {
                return Err(err(format!(
                    "occupancy bitmap {} bytes, {} tiles need {}",
                    bitmap.len(),
                    n_tiles,
                    n_tiles.div_ceil(8)
                )));
            }
            let present = |idx: usize| bitmap[idx / 8] >> (idx % 8) & 1 == 1;
            let (mut floats, mut idx) = (0usize, 0usize);
            for_each_tile(rows, cols, tile, |_, _, nr, nc| {
                if present(idx) {
                    floats += nr * nc;
                }
                idx += 1;
            });
            expect_len("sparse-tile", bytes, floats.checked_mul(4), rows, cols)?;
            let mut m = try_zeros(rows, cols)?;
            let (mut off, mut idx) = (0usize, 0usize);
            for_each_tile(rows, cols, tile, |r0, c0, nr, nc| {
                let here = present(idx);
                idx += 1;
                if !here {
                    return;
                }
                for i in 0..nr {
                    for j in 0..nc {
                        let c = &bytes[off + (i * nc + j) * 4..off + (i * nc + j) * 4 + 4];
                        m.as_mut_slice()[(r0 + i) * cols + c0 + j] =
                            f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                    }
                }
                off += nr * nc * 4;
            });
            Ok(m)
        }
    }
}

fn too_large(rows: usize, cols: usize) -> CodecError {
    err(format!("{}x{} matrix is too large to allocate", rows, cols))
}

/// Check a payload's length against what its record's geometry implies
/// (`None`: the implied length overflows), before anything is allocated.
fn expect_len(
    kind: &str,
    bytes: &[u8],
    want: Option<usize>,
    rows: usize,
    cols: usize,
) -> Result<(), CodecError> {
    let want = want.ok_or_else(|| too_large(rows, cols))?;
    if bytes.len() != want {
        return Err(err(format!(
            "{} payload {} bytes, shape {}x{} needs {}",
            kind,
            bytes.len(),
            rows,
            cols,
            want
        )));
    }
    Ok(())
}

/// A zeroed `rows × cols` matrix, or a typed error where the allocator
/// refuses the size instead of aborting the process.
fn try_zeros(rows: usize, cols: usize) -> Result<Matrix, CodecError> {
    let mut data = Vec::new();
    data.try_reserve_exact(rows * cols).map_err(|_| too_large(rows, cols))?;
    data.resize(rows * cols, 0.0);
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Visit the `side`-sided tile grid over a `rows × cols` matrix in
/// row-major tile order, clipping edge tiles.
fn for_each_tile(
    rows: usize,
    cols: usize,
    side: usize,
    mut f: impl FnMut(usize, usize, usize, usize),
) {
    let side = side.max(1);
    let mut r0 = 0;
    while r0 < rows {
        let nr = side.min(rows - r0);
        let mut c0 = 0;
        while c0 < cols {
            let nc = side.min(cols - c0);
            f(r0, c0, nr, nc);
            c0 = c0.saturating_add(side);
        }
        r0 = r0.saturating_add(side);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn dense_roundtrip_is_bit_identical() {
        let m = init::uniform(7, 13, -2.0, 2.0, 3);
        let (enc, bytes) = encode(&m, WeightEncoding::Dense);
        assert_eq!(enc, StripeEncoding::DenseF32);
        assert_eq!(bytes.len(), m.len() * 4);
        assert_eq!(decode(&enc, 7, 13, &bytes).unwrap(), m);
    }

    #[test]
    fn int8_roundtrip_matches_quantize_dequantize_exactly() {
        let m = init::uniform(9, 16, -1.5, 1.5, 11);
        let (enc, bytes) = encode(&m, WeightEncoding::Int8);
        assert_eq!(bytes.len(), m.len());
        let got = decode(&enc, 9, 16, &bytes).unwrap();
        let want = QuantizedMatrix::quantize(&m).dequantize();
        assert_eq!(got, want, "int8 codec must be the QuantizedMatrix round-trip, bit for bit");
    }

    #[test]
    fn sparse_tiles_roundtrip_is_bit_identical_and_skips_zero_tiles() {
        let mut m = init::uniform(8, 12, -1.0, 1.0, 5);
        // Zero two whole 4x4 tiles.
        for i in 0..4 {
            for j in 0..4 {
                m.as_mut_slice()[i * 12 + j] = 0.0;
                m.as_mut_slice()[(4 + i) * 12 + 8 + j] = 0.0;
            }
        }
        let (enc, bytes) = encode(&m, WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 100 });
        let StripeEncoding::SparseTiles { tile, ref bitmap } = enc else { panic!() };
        assert_eq!(tile, 4);
        assert_eq!(bitmap.iter().map(|b| b.count_ones()).sum::<u32>(), 4, "2 of 6 tiles zero");
        assert_eq!(bytes.len(), 4 * 16 * 4, "only present tiles carry payload");
        assert!((enc.occupancy(8, 12) - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(decode(&enc, 8, 12, &bytes).unwrap(), m);
    }

    #[test]
    fn sparse_tiles_cover_clipped_edges_losslessly() {
        let m = init::uniform(5, 7, -1.0, 1.0, 9);
        let (enc, bytes) = encode(&m, WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 50 });
        assert_eq!(decode(&enc, 5, 7, &bytes).unwrap(), m);
    }

    #[test]
    fn block_circulant_is_exact_on_circulant_tiles_and_compresses() {
        // A constant matrix is circulant in every tile, so the diagonal
        // means reproduce it exactly.
        let m = Matrix::filled(8, 8, 0.75);
        let (enc, bytes) = encode(&m, WeightEncoding::BlockCirculant { block: 4 });
        assert_eq!(bytes.len(), 4 * 4 * 4, "4 tiles x 4 compressed-row f32s");
        assert_eq!(decode(&enc, 8, 8, &bytes).unwrap(), m);
    }

    #[test]
    fn block_circulant_keeps_edge_remainders_dense() {
        let m = init::uniform(5, 6, -1.0, 1.0, 2);
        let (enc, bytes) = encode(&m, WeightEncoding::BlockCirculant { block: 4 });
        let got = decode(&enc, 5, 6, &bytes).unwrap();
        // Rows 4.. and cols 4.. are remainders: bit-identical.
        for i in 0..5 {
            for j in 0..6 {
                if i >= 4 || j >= 4 {
                    assert_eq!(got.as_slice()[i * 6 + j], m.as_slice()[i * 6 + j]);
                }
            }
        }
    }

    #[test]
    fn decode_rejects_mismatched_payloads_typed() {
        let m = init::uniform(4, 4, -1.0, 1.0, 1);
        let (enc, bytes) = encode(&m, WeightEncoding::Dense);
        assert!(decode(&enc, 4, 4, &bytes[..bytes.len() - 4]).is_err());
        let (enc, bytes) = encode(&m, WeightEncoding::SparseTiles { tile: 2, occupancy_pct: 100 });
        assert!(decode(&enc, 4, 4, &bytes[..bytes.len() - 4]).is_err());
        let StripeEncoding::SparseTiles { tile, mut bitmap } = enc else { panic!() };
        bitmap.push(0);
        assert!(decode(&StripeEncoding::SparseTiles { tile, bitmap }, 4, 4, &bytes).is_err());
    }

    #[test]
    fn decode_checks_the_payload_before_allocating() {
        // 2^20 x 2^20 weights (4 TiB decoded) claimed by an empty
        // block-circulant payload: refused from the geometry alone.
        let bc = StripeEncoding::BlockCirculant { block: 4 };
        assert!(decode(&bc, 1 << 20, 1 << 20, &[]).is_err());
        // One all-zero sparse tile rightly carries no payload, but its
        // 2^31 x 2^31 shape is more than any allocation can hold.
        let sparse = StripeEncoding::SparseTiles { tile: 1 << 31, bitmap: vec![0] };
        assert!(decode(&sparse, 1 << 31, 1 << 31, &[]).is_err());
        assert!(decode(&StripeEncoding::DenseF32, usize::MAX, 2, &[]).is_err());
    }

    #[test]
    fn analytic_lengths_match_the_codec_for_exact_cases() {
        let weights = 64u64 * 64;
        assert_eq!(WeightEncoding::Dense.encoded_len(weights), weights * 4);
        assert_eq!(WeightEncoding::Int8.encoded_len(weights), weights);
        assert_eq!(
            WeightEncoding::BlockCirculant { block: 8 }.encoded_len(weights),
            4 * weights / 8
        );
        // Sparse at 100% occupancy: dense payload plus the bitmap.
        let spec = WeightEncoding::SparseTiles { tile: 8, occupancy_pct: 100 };
        assert_eq!(spec.encoded_len(weights), weights * 4 + (weights / 64).div_ceil(8));
    }

    #[test]
    fn spec_validation_rejects_bad_parameters() {
        assert!(WeightEncoding::BlockCirculant { block: 1 }.validate().is_err());
        assert!(WeightEncoding::SparseTiles { tile: 0, occupancy_pct: 50 }.validate().is_err());
        assert!(WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 101 }.validate().is_err());
        assert!(WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 100 }.validate().is_ok());
    }
}
