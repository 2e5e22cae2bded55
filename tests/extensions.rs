//! Integration tests over the extension surface: fixed point, streaming,
//! KV-cached decoding, checkpoints, the runtime cross-check and the
//! schedule verifier.

use transformer_asr_accel::accel::arch::{simulate, Architecture};
use transformer_asr_accel::accel::quant::{self, QuantizedBackend};
use transformer_asr_accel::accel::{pipeline, run_plan, verify, AccelConfig, ExecPlan};
use transformer_asr_accel::frontend::{dataset, FbankExtractor};
use transformer_asr_accel::tensor::backend::ReferenceBackend;
use transformer_asr_accel::tensor::init;
use transformer_asr_accel::tensor::stats::sqnr_db;
use transformer_asr_accel::transformer::beam::{beam_search, BeamConfig};
use transformer_asr_accel::transformer::cache::greedy_decode_cached;
use transformer_asr_accel::transformer::streaming::{encode_streaming, StreamingConfig};
use transformer_asr_accel::transformer::{model_io, Model, TransformerConfig};

fn tiny_model() -> Model {
    Model::seeded(TransformerConfig::tiny(), 2024)
}

#[test]
fn checkpoint_roundtrip_preserves_transcriptions() {
    let model = tiny_model();
    let bytes = model_io::to_bytes(&model.config, &model.weights);
    let (cfg2, w2) = model_io::from_bytes(bytes).unwrap();
    let reloaded = Model { config: cfg2, weights: w2 };

    let x = init::uniform(5, model.config.d_model, -1.0, 1.0, 9);
    let mem_a = model.encode(&x, &ReferenceBackend);
    let mem_b = reloaded.encode(&x, &ReferenceBackend);
    assert_eq!(
        model.greedy_decode(&mem_a, 10, &ReferenceBackend),
        reloaded.greedy_decode(&mem_b, 10, &ReferenceBackend)
    );
}

#[test]
fn greedy_cached_and_beam1_all_agree() {
    let model = tiny_model();
    let x = init::uniform(6, model.config.d_model, -1.0, 1.0, 3);
    let mem = model.encode(&x, &ReferenceBackend);
    let greedy = model.greedy_decode(&mem, 10, &ReferenceBackend);
    let cached = greedy_decode_cached(&model, &mem, 10, &ReferenceBackend);
    let beam1 = beam_search(
        &model,
        &mem,
        &BeamConfig { beam: 1, max_len: 10, length_penalty: 0.0 },
        &ReferenceBackend,
    );
    assert_eq!(greedy, cached);
    assert_eq!(greedy, beam1[0].tokens);
}

#[test]
fn int8_model_stays_close_in_sqnr_terms() {
    let model = tiny_model();
    let x = init::uniform(6, model.config.d_model, -1.0, 1.0, 4);
    let f32_out = model.encode(&x, &ReferenceBackend);
    let int8_out = model.encode(&x, &QuantizedBackend);
    let sqnr = sqnr_db(&f32_out, &int8_out);
    assert!(sqnr > 20.0, "encoder SQNR through int8 path: {} dB", sqnr);
}

#[test]
fn int8_accelerator_beats_fp32_and_fits() {
    let r = quant::report(&AccelConfig::paper_default());
    assert!(r.speedup > 2.0);
    assert!(r.int8_lut_pct < 50.0);
    let q = quant::int8_config(&AccelConfig::paper_default());
    // and the int8 schedule still verifies
    let sim = simulate(&q, Architecture::A3, 32);
    assert!(verify::verify(&sim).is_empty());
}

#[test]
fn runtime_and_bespoke_simulators_agree_for_int8_too() {
    let q = quant::int8_config(&AccelConfig::paper_default());
    let bespoke = simulate(&q, Architecture::A3, 32).latency_s;
    let plan = ExecPlan::lower(&q, Architecture::A3, 32, 1, q.integrity).unwrap();
    let via_runtime = run_plan(&q, &plan).makespan_s;
    assert!((bespoke - via_runtime).abs() / bespoke < 0.01);
}

#[test]
fn all_simulated_schedules_verify_clean() {
    for s in [4usize, 8, 16, 32] {
        let mut cfg = AccelConfig::paper_default();
        cfg.max_seq_len = s;
        for arch in Architecture::ALL {
            let r = simulate(&cfg, arch, s);
            assert!(verify::verify(&r).is_empty(), "{:?} at s={}", arch, s);
        }
    }
}

#[test]
fn streaming_first_chunk_is_causal_end_to_end() {
    let model = tiny_model();
    let utt = dataset::utterance(4.0, 8);
    let ex = FbankExtractor::paper_default();
    let sub = transformer_asr_accel::frontend::Subsampler::paper_default(model.config.d_model, 1);
    let enc_in = sub.forward(&ex.extract(&utt.audio));
    let cfg = StreamingConfig { chunk: 4, left_context: 0 };
    let streamed =
        encode_streaming(&model, &enc_in, &cfg, &ReferenceBackend).expect("valid streaming config");
    assert_eq!(streamed.rows(), enc_in.rows());
    assert!(streamed.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn pipelined_throughput_reported_in_section_5_1_6_band() {
    let (r, _) = pipeline::run_pipeline(&AccelConfig::paper_default(), Architecture::A3, 32, 12);
    assert!((r.throughput_seq_per_s - 11.42).abs() < 0.4, "{} seq/s", r.throughput_seq_per_s);
}
