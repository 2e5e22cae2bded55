//! Quickstart: one utterance through the whole system.
//!
//! Synthesizes a LibriSpeech-style utterance, extracts fbank features, runs
//! the conv front end and the Transformer on the systolic functional units,
//! and prints the Fig 5.1-style stage log plus the §5.1.6 latency report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use transformer_asr_accel::accel::{AccelConfig, HostController};
use transformer_asr_accel::frontend::dataset;
use transformer_asr_accel::frontend::noise::ErrorModel;
use transformer_asr_accel::frontend::wer::wer;
use transformer_asr_accel::frontend::{FbankExtractor, Subsampler};
use transformer_asr_accel::transformer::{Model, TransformerConfig};

fn main() {
    println!("stage 0: Data preparation");
    let utt = dataset::utterance(8.0, 42);
    println!("  synthesized {}: {:.2} s of 16 kHz audio", utt.id, utt.audio.duration_s());
    println!("  ground truth: {}", utt.transcript);

    // A structurally identical tiny model keeps the functional pass fast;
    // swap in TransformerConfig::paper_base() for the full 4-GFLOP stack.
    let mut cfg = AccelConfig::paper_default();
    cfg.model = TransformerConfig::tiny();
    cfg.parallel_heads = 4;
    cfg.max_seq_len = 32;

    let host = HostController::new(cfg.clone()).expect("valid configuration");
    let model = Model::seeded(cfg.model, 7);
    let subsampler = Subsampler::paper_default(cfg.model.d_model, 1);
    let extractor = FbankExtractor::paper_default();

    println!("stage 1: Feature Generation");
    println!("stage 2: Conv subsampling");
    println!("stage 3: Decoding (Transformer on the systolic backend)");
    let r = host
        .process_utterance(
            &utt,
            &model,
            &subsampler,
            &extractor,
            &ErrorModel::paper_operating_point(),
            11,
        )
        .expect("model shape matches the configuration");
    println!("  {} fbank frames -> encoder sequence length {}", r.n_frames, r.input_len);
    println!("Recognized text: {}", r.recognized_text);
    println!("  (WER vs ground truth: {:.1}%)", 100.0 * wer(&utt.transcript, &r.recognized_text));

    // The paper-size accelerator's latency story for this input length.
    let paper_host =
        HostController::new(AccelConfig::paper_default()).expect("paper default config is valid");
    let lat = paper_host.latency_report(r.input_len.min(32));
    println!("\nPaper-size accelerator model (padded to s = {}):", lat.seq_len);
    println!("  preprocessing : {:7.2} ms", lat.preprocessing_s * 1e3);
    println!("  accelerator   : {:7.2} ms", lat.accelerator_s * 1e3);
    println!("  end-to-end    : {:7.2} ms  (paper: ~120 ms)", lat.total_s * 1e3);
    println!("  throughput    : {:7.2} sequences/s", lat.throughput_seq_per_s);
    println!("Finished");
}
