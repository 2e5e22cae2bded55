//! `offline_paper`: closed-loop recognition of a seeded corpus at paper
//! scale (`paper_base` on the systolic backend), one client, through the
//! library's ESPnet-shaped stages: frontend → trim to 32 rows → encode →
//! KV-cached beam search.

use crate::analytic;
use crate::metrics::Metrics;
use crate::stats::{best_of, percentile, sorted, Dist, SplitMix64};
use crate::trace::{CountingBackend, KernelTotals, Tracer};
use crate::Run;
use asr_accel::plan::PhaseKind;
use asr_accel::{
    calib, decode_analytics, walk_cost, AccelConfig, Architecture, ExecPlan, HostController,
    SystolicBackend,
};
use asr_frontend::dataset;
use asr_frontend::pipeline::FrontendPipeline;
use asr_frontend::vocab::TokenId;
use asr_frontend::{FbankExtractor, Subsampler, Waveform};
use asr_systolic::abft::IntegrityLevel;
use asr_tensor::Matrix;
use asr_transformer::beam::{beam_search_cached, BeamConfig};
use asr_transformer::encoder::encoder_forward;
use asr_transformer::Model;
use std::hint::black_box;
use std::time::Instant;

/// Model weights are fixed; the workload seed picks only words and audio.
const MODEL_SEED: u64 = 7;
/// Frontend (conv subsampler) seed, fixed like the model.
const FRONTEND_SEED: u64 = 3;
/// Target audio durations, seconds: encoder lengths s ≈ 4, 16, 30. The
/// seeded word draw moves each actual length by a step or two. Three
/// utterances leave time for two or three repetitions of each in a run.
const TARGET_SECONDS: [f64; 3] = [1.9, 7.0, 13.2];
/// Set-up samples per run, spread evenly over it.
const SETUP_SAMPLES: usize = 4;
/// Encoder rows the bitstream is built for (`process_utterance` trims here).
const MAX_ROWS: usize = 32;
/// Decode-length cap. The seeded model never emits `<eos>`, so the
/// reference length + 1 stands in for a trained model's stop.
const MAX_DECODE: usize = 64;
/// Beam width of `BeamConfig::default_asr()`.
const BEAM: usize = 4;

/// One corpus utterance.
struct Utt {
    audio: Waveform,
    /// Decode steps of the host run: reference length + 1, capped.
    max_len: usize,
    /// Decode steps of the modeled run: reference length + 1, uncapped
    /// (the cap only keeps host samples short).
    ref_steps: usize,
}

fn corpus(seed: u64) -> Vec<Utt> {
    let mut rng = SplitMix64::new(seed);
    TARGET_SECONDS
        .iter()
        .map(|&secs| {
            let u = dataset::utterance(secs, rng.next_u64());
            let ref_steps = u.transcript.len() + 1;
            Utt { audio: u.audio, max_len: ref_steps.min(MAX_DECODE), ref_steps }
        })
        .collect()
}

/// Everything recognition needs; building it is the workload's set-up.
struct System {
    cfg: AccelConfig,
    model: Model,
    frontend: FrontendPipeline,
    extractor: FbankExtractor,
    subsampler: Subsampler,
    backend: SystolicBackend,
    host: HostController,
}

/// Model seeding, the frontend, the backend and the first plan lowering.
fn setup() -> System {
    let cfg = AccelConfig::paper_default();
    let model = Model::seeded(cfg.model, MODEL_SEED);
    let d = cfg.model.d_model;
    let frontend = FrontendPipeline::paper_default(d, FRONTEND_SEED);
    // The traced run calls the pipeline's two stages one at a time; these
    // are the stages `FrontendPipeline::paper_default` holds.
    let extractor = FbankExtractor::paper_default();
    let subsampler = Subsampler::paper_default(d, FRONTEND_SEED);
    let backend = SystolicBackend::new(&cfg);
    let host = HostController::new(cfg.clone()).expect("paper configuration is valid");
    black_box(
        ExecPlan::lower(&cfg, Architecture::A3, MAX_ROWS, 1, IntegrityLevel::Off)
            .expect("paper plan lowers"),
    );
    System { cfg, model, frontend, extractor, subsampler, backend, host }
}

fn trim(encoder_input: &Matrix) -> Matrix {
    let s = encoder_input.rows().clamp(1, MAX_ROWS);
    encoder_input.submatrix(0, 0, s, encoder_input.cols())
}

fn beam_config(max_len: usize) -> BeamConfig {
    BeamConfig { max_len, ..BeamConfig::default_asr() }
}

/// One untraced recognition through the library's entry points.
struct Recognition {
    tokens: Vec<TokenId>,
    rows: usize,
    audio_s: f64,
    /// Host seconds of its consecutive segments: frontend, encode, then the
    /// decode cut into KV-cache set-up and one segment per beam step.
    segments: Vec<f64>,
}

/// Untraced recognition, timed segment by segment. The decode is cut where
/// the kernel first multiplies by the marker weight (see [`recognize_traced`]).
fn recognize(sys: &System, utt: &Utt, kb: &CountingBackend, epoch: Instant) -> Recognition {
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let t0 = Instant::now();
    let out = sys.frontend.process(&utt.audio);
    let x = trim(&out.encoder_input);
    let t1 = Instant::now();
    let memory = sys.model.encode(&x, kb);
    let t2 = Instant::now();
    kb.take_marks();
    let hyps = beam_search_cached(&sys.model, &memory, &beam_config(utt.max_len), kb);
    let t3 = Instant::now();
    let mut cuts = vec![ns(t0), ns(t1), ns(t2)];
    cuts.extend(kb.take_marks());
    cuts.push(ns(t3));
    let segments = cuts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e9).collect();
    Recognition {
        tokens: hyps[0].tokens.clone(),
        rows: x.rows(),
        audio_s: out.audio_seconds,
        segments,
    }
}

/// Best host seconds of one utterance over its repetitions: the sum of each
/// segment's fastest repetition (every segment is an identical sample each
/// time), or the fastest whole repetition if the segments did not line up.
fn best_seconds(reps: &[Vec<f64>]) -> f64 {
    let n = reps[0].len();
    if reps.iter().all(|r| r.len() == n) {
        (0..n).map(|j| reps.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min)).sum()
    } else {
        reps.iter().map(|r| r.iter().sum::<f64>()).fold(f64::INFINITY, f64::min)
    }
}

/// Traced recognition: the same stages called one by one under spans. The
/// decode span is cut into KV-cache set-up and beam steps where the kernel
/// first multiplies by the first decoder layer's first query weight, which
/// every step does first.
fn recognize_traced(
    sys: &System,
    utt: &Utt,
    id: u64,
    tr: &mut Tracer,
    kb: &CountingBackend,
) -> Vec<TokenId> {
    tr.span("offline.utterance", id, Some(kb), |tr| {
        let feats = tr.span("frontend.fbank", id, Some(kb), |_| sys.extractor.extract(&utt.audio));
        let enc_in =
            tr.span("frontend.subsample", id, Some(kb), |_| sys.subsampler.forward(&feats));
        let x = trim(&enc_in);
        let memory = tr.span("transformer.encode", id, Some(kb), |tr| {
            let mut x = x;
            for layer in &sys.model.weights.encoders {
                x = tr.span("transformer.encoder_layer", id, Some(kb), |_| {
                    encoder_forward(&x, layer, kb)
                });
            }
            x
        });
        kb.take_marks();
        let hyps = tr.span("transformer.decode", id, Some(kb), |_| {
            beam_search_cached(&sys.model, &memory, &beam_config(utt.max_len), kb)
        });
        let d = tr.last("transformer.decode").expect("decode span recorded");
        let (start, end) = (tr.spans()[d].start_ns, tr.spans()[d].end_ns);
        let marks = kb.take_marks();
        if let Some(&first) = marks.first() {
            tr.record("transformer.kv_init", id, start, first, d);
            for (i, &m) in marks.iter().enumerate() {
                let next = marks.get(i + 1).copied().unwrap_or(end);
                tr.record("transformer.decode_step", id, m, next, d);
            }
        }
        hyps[0].tokens.clone()
    })
}

/// Host seconds of a traced utterance's segments: its stage spans, with
/// the decode span replaced by its KV-cache and step spans.
fn segment_s(tr: &Tracer, utterance: usize) -> Vec<f64> {
    let spans = tr.spans();
    let children = |p: usize| spans.iter().enumerate().filter(move |(_, s)| s.parent == Some(p));
    let mut out = Vec::new();
    for (i, s) in children(utterance) {
        if s.name == "transformer.decode" {
            out.extend(children(i).map(|(_, c)| c.ms() / 1e3));
        } else {
            out.push(s.ms() / 1e3);
        }
    }
    out
}

/// Modeled recognition latency of one utterance, seconds: host
/// preprocessing (§5.1.6 calibration), the encoder phases of the plan the
/// walker prices, then the beam decode steps (cold step + steady steps).
fn modeled_utterance_s(sys: &System, s: usize, steps: usize) -> f64 {
    let cfg = &sys.cfg;
    let pre = sys.host.latency_report(s).preprocessing_s;
    let plan = ExecPlan::lower(cfg, Architecture::A3, s, 1, IntegrityLevel::Off)
        .expect("utterance plan lowers");
    let cost = walk_cost(cfg, &plan);
    let encoder_end = plan
        .phases
        .iter()
        .zip(&cost.phase_compute_end_s)
        .filter(|(p, _)| matches!(p.kind, PhaseKind::Encoder))
        .map(|(_, &t)| t)
        .fold(0.0, f64::max);
    let da =
        decode_analytics(cfg, Architecture::A3, s, BEAM, steps, steps / 2, IntegrityLevel::Off)
            .expect("decode plan lowers");
    pre + encoder_end + da.cold.latency_s + (steps - 1) as f64 * da.steady.latency_s
}

pub fn run(run: &mut Run, m: &mut Metrics) {
    let utts = corpus(run.seed);
    let t0 = Instant::now();
    let sys = setup();
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];

    let epoch = run.start;
    let marker = &sys.model.weights.decoders[0].masked_mha.w_q[0];
    let kb = CountingBackend::new(sys.backend, epoch, marker);
    let mut tr = Tracer::new(epoch);

    // Warm-up, excluded: a two-step recognition of the shortest utterance,
    // on the bare backend and through the wrapper, which must agree bit for
    // bit.
    let short = Utt { audio: utts[0].audio.clone(), max_len: 2, ref_steps: 2 };
    let bare =
        sys.model.encode(&trim(&sys.frontend.process(&short.audio).encoder_input), &sys.backend);
    let bare = beam_search_cached(&sys.model, &bare, &beam_config(2), &sys.backend);
    if recognize(&sys, &short, &kb, epoch).tokens != bare[0].tokens {
        run.fail("the counting wrapper changed a hypothesis".into());
    }

    let n = utts.len();
    let mut reps: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n];
    let mut traced_reps: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n];
    let mut hyp: Vec<Option<Vec<TokenId>>> = vec![None; n];
    let mut rows = vec![0usize; n];
    let mut audio_s = vec![0f64; n];
    let mut pass_kernel: Vec<KernelTotals> = Vec::new();
    let mut last_s = vec![0f64; n];
    let mut setups_done = 1usize;

    // Round robin over the corpus. After the first pass, an utterance starts
    // only if its last repetition would still fit in the run; the traced run
    // keeps whole passes, so per-pass counts stay comparable.
    'passes: for pass in 0.. {
        let mut pass_k = KernelTotals::default();
        if pass > 0 && m.traced() && last_s.iter().sum::<f64>() > run.seconds_left() {
            break;
        }
        for (i, utt) in utts.iter().enumerate() {
            if pass > 0 && !m.traced() && last_s[i] > run.seconds_left() {
                break 'passes;
            }
            // Set-up is re-measured at even intervals, between samples.
            if setups_done < SETUP_SAMPLES
                && run.elapsed_frac() >= setups_done as f64 / SETUP_SAMPLES as f64
            {
                let t = Instant::now();
                black_box(setup());
                setup_s.push(t.elapsed().as_secs_f64());
                setups_done += 1;
            }
            let t = Instant::now();
            let k0 = kb.totals();
            let r = recognize(&sys, utt, &kb, epoch);
            let untraced_k = kb.totals().since(k0);
            run.attempted += 1;
            (rows[i], audio_s[i]) = (r.rows, r.audio_s);
            reps[i].push(r.segments);
            let mut check = |tokens: Vec<TokenId>, what: &str| match &hyp[i] {
                None => hyp[i] = Some(tokens),
                Some(first) if *first != tokens => {
                    run.failed += 1;
                    run.fail(format!("utterance {i}: {what} hypothesis differs from the first"));
                }
                Some(_) => {}
            };
            check(r.tokens, "repeated");
            if m.traced() {
                let tokens = recognize_traced(&sys, utt, i as u64, &mut tr, &kb);
                let d = tr.last("offline.utterance").expect("utterance span recorded");
                traced_reps[i].push(segment_s(&tr, d));
                let traced_k = tr.spans()[d].kernel;
                pass_k = pass_k.plus(traced_k);
                check(tokens, "traced");
                if !traced_k.same_work(untraced_k) {
                    run.fail(format!("utterance {i}: traced and untraced kernel work differ"));
                }
            }
            last_s[i] = t.elapsed().as_secs_f64();
        }
        if m.traced() {
            pass_kernel.push(pass_k);
        }
    }

    let best: Vec<f64> = reps.iter().map(|r| best_seconds(r)).collect();
    let modeled_ms: Vec<f64> = utts
        .iter()
        .zip(&rows)
        .map(|(u, &s)| modeled_utterance_s(&sys, s, u.ref_steps) * 1e3)
        .collect();
    for i in 0..n {
        run.note(format!(
            "utterance {i}: s={:2} steps={:3} (host {:2}) audio={:6.3} s  host best {:8.1} ms \
             of {}  modeled {:8.3} ms",
            rows[i],
            utts[i].ref_steps,
            utts[i].max_len,
            audio_s[i],
            best[i] * 1e3,
            reps[i].len(),
            modeled_ms[i],
        ));
    }
    run.digest(&format!("{hyp:?}{rows:?}"));
    run.digest(&format!("{:?}", modeled_ms.iter().map(|v| v.to_bits()).collect::<Vec<_>>()));

    let rtf = best.iter().sum::<f64>() / audio_s.iter().sum::<f64>();
    run.named("host_rtf", rtf);
    if !m.traced() {
        run.named("setup_s", best_of(&setup_s));
        run.named("modeled_e2e_ms", sys.host.latency_report(MAX_ROWS).total_s * 1e3);
        run.named("modeled_ms_per_token", analytic::paper_decode(&sys.cfg).steady_ms_per_token);
        run.named("modeled_utt_per_s", analytic::batch8(&sys.cfg).0);
        m.set("setup_s", best_of(&setup_s));
        m.set("mean_ms", modeled_ms.iter().sum::<f64>() / n as f64);
        m.set("p99_ms", percentile(&sorted(&modeled_ms), 0.99));
        m.set("capacity_per_s", n as f64 / (modeled_ms.iter().sum::<f64>() / 1e3));
        run.note(format!("set-up samples (s): {setup_s:?}"));
        return;
    }

    // ---- traced run: per-layer metrics from the spans ----
    m.set("host.rtf", rtf);
    if pass_kernel.windows(2).any(|w| !w[0].same_work(w[1])) {
        run.fail(format!("kernel counts differ between corpus passes: {:?}", pass_kernel));
    }
    let spans = tr.spans();
    let self_ms = tr.self_ms();
    let passes = pass_kernel.len() as f64;
    let put = |m: &mut Metrics, name: &str, d: Dist| {
        m.set(&format!("{name}_ms"), d.median);
        m.set(&format!("{name}_ms_min"), d.min);
    };
    let fbank = tr.dist_ms("frontend.fbank");
    put(m, "frontend.fbank", fbank);
    put(m, "frontend.subsample", tr.dist_ms("frontend.subsample"));
    m.set("frontend.samples", fbank.n as f64);
    m.set("frontend.calib_ms", calib::preprocessing_latency_s(MAX_ROWS) * 1e3);
    put(m, "transformer.encode", tr.dist_ms("transformer.encode"));
    let layer = tr.dist_ms("transformer.encoder_layer");
    put(m, "transformer.encoder_layer", layer);
    m.set("transformer.encoder_layer_samples", layer.n as f64);
    put(m, "transformer.kv_init", tr.dist_ms("transformer.kv_init"));
    put(m, "transformer.decode", tr.dist_ms("transformer.decode"));
    let step = tr.dist_ms("transformer.decode_step");
    put(m, "transformer.decode_step", step);
    m.set("transformer.decode_step_samples", step.n as f64);
    m.set("transformer.decode_steps", step.n as f64 / passes);
    let decode_self: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "transformer.decode")
        .map(|s| s.ms() - s.kernel.busy_ns as f64 / 1e6)
        .collect();
    put(m, "transformer.decode_self", Dist::of(&decode_self));

    let k = pass_kernel[0];
    m.set("systolic.calls", k.calls as f64);
    m.set("systolic.gmac", k.macs as f64 / 1e9);
    m.set("systolic.mb_moved", k.bytes as f64 / 1e6);
    let sum = |name: &str| {
        spans.iter().filter(|s| s.name == name).fold((0u64, 0u64, 0f64), |(macs, ns, ms), s| {
            (macs + s.kernel.macs, ns + s.kernel.busy_ns, ms + s.ms())
        })
    };
    let (_, utt_busy_ns, utt_ms) = sum("offline.utterance");
    m.set("systolic.busy_ms", utt_busy_ns as f64 / 1e6 / passes);
    m.set("systolic.share", utt_busy_ns as f64 / 1e6 / utt_ms);
    let (enc_macs, enc_ns, _) = sum("transformer.encode");
    let (dec_macs, dec_ns, _) = sum("transformer.decode");
    m.set("systolic.encode_gflops", 2.0 * enc_macs as f64 / enc_ns as f64);
    m.set("systolic.decode_gflops", 2.0 * dec_macs as f64 / dec_ns as f64);

    let traced_best: f64 = traced_reps.iter().map(|r| best_seconds(r)).sum();
    let plain_best: f64 = best.iter().sum();
    m.set("trace.overhead_pct", (traced_best / plain_best - 1.0) * 100.0);
    let utt_self: f64 = spans
        .iter()
        .zip(&self_ms)
        .filter(|(s, _)| s.name == "offline.utterance")
        .map(|(_, &v)| v)
        .sum();
    run.note(format!(
        "traced: {} passes, utterance self time {:.3} ms of {:.1} ms",
        passes, utt_self, utt_ms
    ));
    run.write_trace(&tr);
}
