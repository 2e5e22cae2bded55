//! Codec pins for the typed stripe encodings: lossless round-trips are
//! bit-identical, int8 reproduces the quantized backend's weights exactly,
//! the v3 container's CRC-over-encoded-bytes catches any single-byte record
//! corruption, and the decode session's elision ledger balances under every
//! wire encoding.
//!
//! Case counts honour `PROPTEST_CASES` (the CI deep-proptest job exports
//! 512); tier-1 runs use the per-block defaults.

use asr_accel::integrity::{run_functional_decode, small_config, FunctionalFaults};
use asr_tensor::encoding::{decode, encode};
use asr_tensor::quant::QuantizedMatrix;
use asr_tensor::{init, Matrix, WeightEncoding};
use asr_transformer::model_io::{from_bytes, to_bytes_encoded, IoError};
use asr_transformer::weights::ModelWeights;
use proptest::prelude::*;

/// Per-block case count: `PROPTEST_CASES` when set, else the tier-1 default.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A random dense matrix with a contiguous run of tiles zeroed out, so the
/// sparse codec has genuinely empty tiles to elide.
fn with_zero_tiles(mut m: Matrix, tile: usize, zero_seed: u64) -> Matrix {
    let (rows, cols) = m.shape();
    let tiles_r = rows.div_ceil(tile);
    let tiles_c = cols.div_ceil(tile);
    let n_tiles = tiles_r * tiles_c;
    for t in 0..n_tiles {
        // Deterministic pseudo-random kill mask over tiles.
        if (zero_seed.wrapping_mul(2654435761).wrapping_add(t as u64 * 40503)).is_multiple_of(3) {
            let (tr, tc) = (t / tiles_c, t % tiles_c);
            for r in (tr * tile)..((tr + 1) * tile).min(rows) {
                for c in (tc * tile)..((tc + 1) * tile).min(cols) {
                    m.as_mut_slice()[r * cols + c] = 0.0;
                }
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(env_cases(16))]

    // Dense is the identity codec: encode/decode round-trips any matrix
    // bit-for-bit, and the wire length is exactly rows*cols*4.
    #[test]
    fn dense_roundtrip_is_bit_identical(
        rows in 1usize..=24,
        cols in 1usize..=24,
        seed in 1u64..1000,
    ) {
        let m = init::uniform(rows, cols, -2.0, 2.0, seed);
        let (enc, wire) = encode(&m, WeightEncoding::Dense);
        prop_assert_eq!(wire.len(), rows * cols * 4);
        let back = decode(&enc, rows, cols, &wire).unwrap();
        prop_assert_eq!(bits(&back), bits(&m));
    }

    // Sparse tiling is lossless at any occupancy: zeroing a random subset
    // of tiles shrinks the payload but the round-trip stays bit-identical,
    // including signed zeros inside surviving tiles.
    #[test]
    fn sparse_roundtrip_is_bit_identical_with_random_zero_tiles(
        rows in 1usize..=24,
        cols in 1usize..=24,
        tile in 1usize..=8,
        seed in 1u64..1000,
        zero_seed in 0u64..1000,
    ) {
        let m = with_zero_tiles(init::uniform(rows, cols, -2.0, 2.0, seed), tile, zero_seed);
        let spec = WeightEncoding::SparseTiles { tile, occupancy_pct: 100 };
        let (enc, wire) = encode(&m, spec);
        prop_assert!(wire.len() <= rows * cols * 4);
        let back = decode(&enc, rows, cols, &wire).unwrap();
        prop_assert_eq!(bits(&back), bits(&m));
    }

    // The int8 wire format is the quantized backend's exact weight view:
    // decode(encode(m)) == quantize(m).dequantize(), bit for bit, and the
    // payload is one byte per weight.
    #[test]
    fn int8_roundtrip_matches_the_quantized_backend(
        rows in 1usize..=24,
        cols in 1usize..=24,
        seed in 1u64..1000,
    ) {
        let m = init::uniform(rows, cols, -2.0, 2.0, seed);
        let (enc, wire) = encode(&m, WeightEncoding::Int8);
        prop_assert_eq!(wire.len(), rows * cols);
        let back = decode(&enc, rows, cols, &wire).unwrap();
        let reference = QuantizedMatrix::quantize(&m).dequantize();
        prop_assert_eq!(bits(&back), bits(&reference));
    }

    // CRC over the ENCODED record bytes: flipping any bit of any byte in
    // the v3 container's record region must surface as a typed load error —
    // never as silently different weights.
    #[test]
    fn v3_container_detects_any_corrupted_record_byte(
        spec in prop::sample::select(vec![
            WeightEncoding::Int8,
            WeightEncoding::BlockCirculant { block: 4 },
            WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 100 },
        ]),
        seed in 1u64..100,
        back_off in 1usize..4096,
        xor in 1u8..=255,
    ) {
        let cfg = asr_transformer::TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, seed);
        let mut bytes = to_bytes_encoded(&cfg, &w, spec).unwrap();
        // Records sit at the tail of the container; corrupt a byte counted
        // from the end so the flip always lands inside a record payload.
        let idx = bytes.len() - 1 - (back_off % (bytes.len() / 2));
        bytes[idx] ^= xor;
        match from_bytes(&bytes) {
            Err(IoError::CrcMismatch { .. })
            | Err(IoError::BadEncoding(_))
            | Err(IoError::Truncated)
            | Err(IoError::BadShape(..)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {}", other),
            Ok(_) => prop_assert!(false, "corrupted byte {} escaped the CRC table", idx),
        }
    }
}

proptest! {
    #![proptest_config(env_cases(3))]

    // The decode session's elision ledger balances under every wire
    // encoding: fetched + elided covers exactly the scheduled traffic
    // (cold + per-steady-step), and the reuse counters partition the offers.
    // Lossless encodings must also leave the transcript bit-identical to
    // the dense run.
    #[test]
    fn elision_ledger_balances_under_every_encoding(
        spec in prop::sample::select(vec![
            WeightEncoding::Dense,
            WeightEncoding::Int8,
            WeightEncoding::BlockCirculant { block: 4 },
            WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 100 },
        ]),
        model_seed in 1u64..50,
        beam in 1usize..=2,
    ) {
        let dense_cfg = small_config();
        let reference =
            run_functional_decode(&dense_cfg, model_seed, 11, 5, 4, beam, &FunctionalFaults::none())
                .unwrap();
        let mut cfg = small_config();
        cfg.encoding = spec;
        let run =
            run_functional_decode(&cfg, model_seed, 11, 5, 4, beam, &FunctionalFaults::none())
                .unwrap();
        let scheduled =
            run.cold_load_bytes + run.steady_load_bytes * (run.steps as u64 - 1);
        prop_assert_eq!(run.fetched_load_bytes + run.elided_load_bytes, scheduled);
        prop_assert_eq!(run.reuse.offered, run.reuse.elided_loads + run.reuse.stale);
        prop_assert_eq!(run.counters.escaped, 0);
        if matches!(spec, WeightEncoding::Dense | WeightEncoding::SparseTiles { .. }) {
            prop_assert_eq!(run.tokens, reference.tokens);
        }
    }
}
