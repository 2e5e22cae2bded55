//! Model-level property tests: causality, normalisation, FLOPs laws.

use asr_tensor::backend::ReferenceBackend;
use asr_tensor::{init, WeightEncoding};
use asr_transformer::decoder::decoder_forward;
use asr_transformer::encoder::encoder_forward;
use asr_transformer::model_io::{from_bytes, to_bytes_encoded};
use asr_transformer::weights::{DecoderWeights, EncoderWeights, ModelWeights, WeightStripe};
use asr_transformer::{flops, Model, TransformerConfig};
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` when set (the CI deep-proptest job exports
/// 512), else the tier-1 default. The vendored proptest does not read the
/// environment itself, so the config expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(env_cases(24))]

    #[test]
    fn encoder_output_always_finite(seed in 0u64..500, s in 1usize..10, scale in 0.1f32..5.0) {
        let cfg = TransformerConfig::tiny();
        let w = EncoderWeights::seeded(&cfg, seed);
        let x = init::uniform(s, cfg.d_model, -scale, scale, seed + 1);
        let y = encoder_forward(&x, &w, &ReferenceBackend);
        prop_assert!(y.as_slice().iter().all(|v| v.is_finite()));
        prop_assert_eq!(y.shape(), (s, cfg.d_model));
    }

    #[test]
    fn decoder_causality_under_random_perturbation(
        seed in 0u64..200, t in 2usize..8, row in 0usize..8, delta in -3.0f32..3.0
    ) {
        let row = row % t;
        let cfg = TransformerConfig::tiny();
        let w = DecoderWeights::seeded(&cfg, seed);
        let mem = init::uniform(6, cfg.d_model, -1.0, 1.0, seed + 1);
        let x = init::uniform(t, cfg.d_model, -1.0, 1.0, seed + 2);
        let y1 = decoder_forward(&x, &mem, &w, &ReferenceBackend);
        let mut x2 = x.clone();
        for v in x2.row_mut(row) {
            *v += delta;
        }
        let y2 = decoder_forward(&x2, &mem, &w, &ReferenceBackend);
        // rows strictly BEFORE the perturbed row must be unchanged
        for i in 0..row {
            for j in 0..cfg.d_model {
                prop_assert!((y1[(i, j)] - y2[(i, j)]).abs() < 1e-4,
                    "row {} affected by perturbation at row {}", i, row);
            }
        }
    }

    #[test]
    fn greedy_decode_tokens_always_in_vocab(seed in 0u64..100) {
        let model = Model::seeded(TransformerConfig::tiny(), seed);
        let x = init::uniform(4, model.config.d_model, -2.0, 2.0, seed + 1);
        let mem = model.encode(&x, &ReferenceBackend);
        let toks = model.greedy_decode(&mem, 6, &ReferenceBackend);
        prop_assert!(toks.iter().all(|&t| t < model.config.vocab_size));
        prop_assert!(toks.len() >= 2 && toks.len() <= 7);
    }

    #[test]
    fn flops_monotone_in_every_dimension(s in 2usize..40) {
        let base = TransformerConfig::paper_base();
        prop_assert!(flops::model_flops(s, &base) > flops::model_flops(s - 1, &base));
        let mut wider = base;
        wider.d_ff *= 2;
        prop_assert!(flops::model_flops(s, &wider) > flops::model_flops(s, &base));
        let mut deeper = base;
        deeper.n_encoders += 1;
        prop_assert!(flops::model_flops(s, &deeper) > flops::model_flops(s, &base));
    }

    #[test]
    fn weight_bytes_independent_of_seed(seed1 in 0u64..50, seed2 in 50u64..100) {
        let cfg = TransformerConfig::tiny();
        let a = EncoderWeights::seeded(&cfg, seed1);
        let b = EncoderWeights::seeded(&cfg, seed2);
        prop_assert_eq!(a.size_bytes(), b.size_bytes());
    }

    #[test]
    fn model_io_roundtrip_any_seed(seed in 0u64..50) {
        let cfg = TransformerConfig::tiny();
        let w = asr_transformer::weights::ModelWeights::seeded(&cfg, seed);
        let bytes = asr_transformer::model_io::to_bytes(&cfg, &w);
        let (cfg2, w2) = from_bytes(&bytes).unwrap();
        prop_assert_eq!(cfg, cfg2);
        prop_assert_eq!(w, w2);
    }

    // The CRC envelope catches ANY single-bit flip, anywhere in any weight
    // stripe — mantissa, exponent, or sign byte alike — and flipping the bit
    // back restores the envelope (the stripe itself is untouched).
    #[test]
    fn any_single_bit_flip_in_any_stripe_breaks_the_crc(
        seed in 0u64..200,
        stripe_sel in 0usize..1_000_000,
        bit_sel in 0usize..1_000_000_000,
    ) {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, seed);
        let mats = w.matrices();
        let si = stripe_sel % mats.len();
        let mut stripe = WeightStripe::export(format!("W{}", si), mats[si]);
        prop_assert!(stripe.crc_ok(), "freshly exported stripe must verify");
        let nbits = stripe.bytes.len() * 8;
        let b = bit_sel % nbits;
        stripe.bytes[b / 8] ^= 1 << (b % 8);
        prop_assert!(!stripe.crc_ok(), "flip of bit {} in stripe {} escaped the CRC", b, si);
        stripe.bytes[b / 8] ^= 1 << (b % 8);
        prop_assert!(stripe.crc_ok(), "undoing the flip must restore the envelope");
    }

    // CRC32 detects any error burst confined to 32 bits, so an arbitrary
    // nonzero XOR smeared over one byte can never slip through either.
    #[test]
    fn any_single_byte_xor_in_any_stripe_breaks_the_crc(
        seed in 0u64..200,
        stripe_sel in 0usize..1_000_000,
        byte_sel in 0usize..1_000_000_000,
        xor in 1u8..=255,
    ) {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, seed);
        let mats = w.matrices();
        let si = stripe_sel % mats.len();
        let mut stripe = WeightStripe::export(format!("W{}", si), mats[si]);
        let bi = byte_sel % stripe.bytes.len();
        stripe.bytes[bi] ^= xor;
        prop_assert!(!stripe.crc_ok(), "xor {:#04x} at byte {} of stripe {} escaped the CRC", xor, bi, si);
    }

    // `model_io::from_bytes` decodes untrusted bytes. A valid tiny v2 or v3
    // file cut at any length, or with any header word overwritten (config,
    // v3 descriptor, CRC count), must come back as a typed error: never
    // `Ok`, a panic or an abort. The cut is drawn log-uniformly, so about
    // half the cuts fall in the header and CRC table, not all among the
    // records.
    // Sparse tiles sit out: their occupancy parameter is the planner's,
    // and a load rightly ignores it.
    #[test]
    fn model_io_refuses_any_cut_or_rewritten_header(
        spec in prop::sample::select(vec![
            WeightEncoding::Dense,
            WeightEncoding::Int8,
            WeightEncoding::BlockCirculant { block: 4 },
        ]),
        seed in 0u64..50,
        cut_frac in 0.0f64..1.0,
        word_sel in 0usize..12,
        xor in 1u32..=u32::MAX,
    ) {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, seed);
        let file = to_bytes_encoded(&cfg, &w, spec).unwrap();
        let cut = ((file.len() + 1) as f64).powf(cut_frac) as usize - 1;
        prop_assert!(from_bytes(&file[..cut]).is_err(), "{} file cut to {} bytes loaded", spec, cut);
        // v2 has 9 header words before its CRC table; v3 adds 3 descriptor words.
        let words = if spec == WeightEncoding::Dense { 9 } else { 12 };
        let i = 4 * (word_sel % words);
        let word = u32::from_le_bytes([file[i], file[i + 1], file[i + 2], file[i + 3]]) ^ xor;
        let mut bad = file;
        bad[i..i + 4].copy_from_slice(&word.to_le_bytes());
        prop_assert!(
            from_bytes(&bad).is_err(),
            "{} file with header word {} set to {:#x} loaded", spec, i / 4, word
        );
    }
}
