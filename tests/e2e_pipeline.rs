//! Cross-crate end-to-end pipeline tests: audio in, characters out, with the
//! functional path running on the systolic units.

use transformer_asr_accel::accel::{AccelConfig, HostController, SystolicBackend};
use transformer_asr_accel::frontend::dataset;
use transformer_asr_accel::frontend::noise::ErrorModel;
use transformer_asr_accel::frontend::{FbankExtractor, Subsampler};
use transformer_asr_accel::tensor::backend::ReferenceBackend;
use transformer_asr_accel::transformer::{Model, TransformerConfig};

fn tiny_rig() -> (AccelConfig, Model, Subsampler, FbankExtractor) {
    let mut cfg = AccelConfig::paper_default();
    cfg.model = TransformerConfig::tiny();
    cfg.parallel_heads = 4;
    cfg.max_seq_len = 16;
    let model = Model::seeded(cfg.model, 99);
    let sub = Subsampler::paper_default(cfg.model.d_model, 5);
    let ex = FbankExtractor::paper_default();
    (cfg, model, sub, ex)
}

#[test]
fn audio_to_text_runs_and_is_deterministic() {
    let (cfg, model, sub, ex) = tiny_rig();
    let host = HostController::new(cfg).unwrap();
    let utt = dataset::utterance(3.0, 17);
    let em = ErrorModel::paper_operating_point();
    let r1 = host.process_utterance(&utt, &model, &sub, &ex, &em, 4).unwrap();
    let r2 = host.process_utterance(&utt, &model, &sub, &ex, &em, 4).unwrap();
    assert_eq!(r1.model_text, r2.model_text);
    assert_eq!(r1.recognized_text, r2.recognized_text);
    assert_eq!(r1.input_len, r2.input_len);
    assert!(r1.n_frames > 200);
}

#[test]
fn systolic_and_reference_transcriptions_agree() {
    // The accelerator dataflow must not change the recognized tokens.
    let (_, model, sub, ex) = tiny_rig();
    let utt = dataset::utterance(2.0, 23);
    let features = ex.extract(&utt.audio);
    let enc_in = sub.forward(&features);
    let x = enc_in.submatrix(0, 0, enc_in.rows().min(8), enc_in.cols());

    let mem_ref = model.encode(&x, &ReferenceBackend);
    let mem_sys = model.encode(&x, &SystolicBackend::paper_default());
    let t_ref = model.greedy_decode(&mem_ref, 12, &ReferenceBackend);
    let t_sys = model.greedy_decode(&mem_sys, 12, &SystolicBackend::paper_default());
    assert_eq!(t_ref, t_sys);
}

#[test]
fn longer_audio_longer_sequence() {
    let (cfg, model, sub, ex) = tiny_rig();
    let host = HostController::new(cfg).unwrap();
    let em = ErrorModel::perfect();
    let short =
        host.process_utterance(&dataset::utterance(2.0, 1), &model, &sub, &ex, &em, 1).unwrap();
    let long =
        host.process_utterance(&dataset::utterance(6.0, 1), &model, &sub, &ex, &em, 1).unwrap();
    assert!(long.n_frames > short.n_frames * 2);
    assert!(long.input_len >= short.input_len);
}

#[test]
fn perfect_channel_recognizes_exactly() {
    let (cfg, model, sub, ex) = tiny_rig();
    let host = HostController::new(cfg).unwrap();
    let utt = dataset::utterance(2.5, 31);
    let r = host.process_utterance(&utt, &model, &sub, &ex, &ErrorModel::perfect(), 2).unwrap();
    assert_eq!(r.recognized_text, utt.transcript);
}

#[test]
fn latency_report_consistency() {
    let host = HostController::new(AccelConfig::paper_default()).unwrap();
    let r = host.latency_report(20);
    assert_eq!(r.seq_len, 32); // padded
    assert!((r.total_s - (r.preprocessing_s + r.accelerator_s)).abs() < 1e-12);
    assert!((r.throughput_seq_per_s * r.accelerator_s - 1.0).abs() < 1e-9);
    assert!(r.gflops_per_s > 0.0 && r.gflops_per_joule > 0.0);
}
