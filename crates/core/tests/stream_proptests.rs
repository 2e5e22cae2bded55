//! Property tests for fault-tolerant streaming sessions (DESIGN.md §13):
//! chunked-vs-offline bit identity when one window spans the input,
//! mid-stream-failover bit identity at any chunk-boundary cut under seeded
//! silent faults, poisoned-state rejection, resident-weight elision
//! accounting, and the pool's zero-drop guarantee around a faulty card.
#![recursion_limit = "1024"]

use asr_accel::integrity::{
    resume_functional_stream, run_functional_plan, run_functional_stream, small_config,
    FunctionalFaults,
};
use asr_accel::plan::{walk_cost, ExecPlan};
use asr_accel::stream::{ChunkOutcome, StreamConfig, StreamPool};
use asr_accel::{AccelConfig, AccelError, Architecture};
use asr_systolic::abft::IntegrityLevel;
use asr_tensor::backend::ReferenceBackend;
use asr_tensor::{init, Matrix, WeightEncoding};
use asr_transformer::streaming::{encode_streaming, push_chunk, StreamState, StreamingConfig};
use asr_transformer::weights::ModelWeights;
use asr_transformer::{Model, TransformerConfig};
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` when set (the CI deep-proptest job exports
/// 512), else the tier-1 default. The vendored proptest does not read the
/// environment itself, so the config expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// Flip the lowest mantissa bit of a matrix's first element.
fn flip_low_bit(m: &mut Matrix) {
    let v = &mut m.as_mut_slice()[0];
    *v = f32::from_bits(v.to_bits() ^ 1);
}

fn func_cfg() -> AccelConfig {
    let mut c = small_config();
    c.integrity = IntegrityLevel::DetectAndRecompute;
    c
}

/// The timing path's config: paper shapes at the streaming window length.
fn timing_cfg() -> AccelConfig {
    let mut c = AccelConfig::paper_default();
    c.max_seq_len = 8;
    c.encoding = WeightEncoding::Int8;
    c
}

proptest! {
    #![proptest_config(env_cases(8))]

    // The failover identity: for ANY session geometry, ANY chunk-boundary
    // cut, and ANY seeded silent-fault plan, shipping the CRC'd carryover
    // state to a spare and replaying only the remaining rows reproduces the
    // uninterrupted stream bit for bit — final state CRCs included.
    #[test]
    fn resumed_stream_is_bit_identical_at_any_chunk_cut(
        fault_seed in 0u64..1024,
        model_seed in 1u64..16,
        chunk in 1usize..=4,
        lc_pick in 0usize..=4,
        s_pick in 2usize..=8,
        cut_pick in 0usize..64,
    ) {
        let cfg = func_cfg();
        let left_context = lc_pick.min(cfg.max_seq_len - chunk);
        let s = s_pick;
        let n_stripes = ModelWeights::seeded(&cfg.model, model_seed).matrices().len();
        let faults = FunctionalFaults::seeded(fault_seed, n_stripes, cfg.psa.cols);
        let features = init::uniform(s, cfg.model.d_model, -0.5, 0.5, model_seed ^ 0x5eed);

        let full =
            run_functional_stream(&cfg, model_seed, &features, chunk, left_context, &faults)
                .unwrap();
        let max_chunks = s.div_ceil(chunk);
        let prefix_rows = (cut_pick % max_chunks) * chunk;

        let state = if prefix_rows == 0 {
            StreamState::open(&StreamingConfig { chunk, left_context }).unwrap()
        } else {
            let prefix = features.submatrix(0, 0, prefix_rows, features.cols());
            run_functional_stream(&cfg, model_seed, &prefix, chunk, left_context, &faults)
                .unwrap()
                .final_state
        };
        let resumed =
            resume_functional_stream(&cfg, model_seed, &state, &features, &faults).unwrap();
        prop_assert_eq!(resumed.start_row, prefix_rows);
        let suffix = full.encoder_out.submatrix(
            prefix_rows,
            0,
            s - prefix_rows,
            full.encoder_out.cols(),
        );
        prop_assert_eq!(&resumed.encoder_out, &suffix, "resumed suffix must match");
        prop_assert_eq!(resumed.final_state.crc, full.final_state.crc);
    }

    // The transformer-level failover identity: ship the carryover state —
    // every layer's cached keys and values — after ANY number of chunks,
    // resume with `push_chunk`, and every later row and the final state
    // match the uninterrupted stream bit for bit.
    #[test]
    fn transformer_push_chunk_resumes_bit_identically_at_any_cut(
        model_seed in 1u64..16,
        chunk in 1usize..=4,
        left_context in 0usize..=6,
        s in 1usize..=10,
        cut_pick in 0usize..64,
    ) {
        let model = Model::seeded(TransformerConfig::tiny(), model_seed);
        let features = init::uniform(s, model.config.d_model, -0.5, 0.5, model_seed ^ 0x5eed);
        let cfg = StreamingConfig { chunk, left_context };
        let chunk_at = |i: usize| {
            let start = i * chunk;
            features.submatrix(start, 0, chunk.min(s - start), features.cols())
        };
        let n_chunks = s.div_ceil(chunk);
        let push = |state: &StreamState, i: usize| {
            push_chunk(&model, state, &chunk_at(i), &ReferenceBackend).unwrap()
        };
        let uninterrupted = encode_streaming(&model, &features, &cfg, &ReferenceBackend).unwrap();
        let open = StreamState::open(&cfg).unwrap();
        let full_final = (0..n_chunks).fold(open.clone(), |st, i| push(&st, i).1);

        let cut = cut_pick % (n_chunks + 1);
        let shipped = (0..cut).fold(open, |st, i| push(&st, i).1);
        prop_assert!(shipped.verify().is_ok());
        let mut state = shipped.clone();
        for i in cut..n_chunks {
            let (rows, next) = push(&state, i);
            let expect = uninterrupted.submatrix(i * chunk, 0, rows.rows(), rows.cols());
            prop_assert_eq!(&rows, &expect, "chunk {} after a cut at {}", i, cut);
            state = next;
        }
        prop_assert_eq!(&state, &full_final);
    }

    // Chunked-vs-offline identity: a chunk that spans the whole input is
    // one attention window, so the stream must reproduce the offline batch
    // encoder bit for bit at every model seed and length.
    #[test]
    fn full_window_stream_matches_offline_bits(
        model_seed in 1u64..32,
        s in 1usize..=8,
    ) {
        let cfg = func_cfg();
        let features = init::uniform(s, cfg.model.d_model, -0.5, 0.5, model_seed ^ 0x5eed);
        let stream =
            run_functional_stream(&cfg, model_seed, &features, s, 0, &FunctionalFaults::none())
                .unwrap();
        let plan = ExecPlan::lower(&cfg, Architecture::A2, s, 1, cfg.integrity).unwrap();
        let offline = run_functional_plan(
            &cfg, &plan, model_seed, &[model_seed ^ 0x5eed], &FunctionalFaults::none(),
        )
        .unwrap();
        prop_assert_eq!(stream.chunks, 1);
        prop_assert_eq!(&stream.encoder_out, &offline.utterances[0].encoder_out);
    }

    // A poisoned carryover state must NEVER silently resume, whichever
    // field was tampered with — cursor, chunk index, one bit of a cached
    // key or value, or the CRC itself.
    #[test]
    fn poisoned_stream_state_never_resumes(
        model_seed in 1u64..16,
        tamper in 0usize..5,
    ) {
        let cfg = func_cfg();
        let features = init::uniform(6, cfg.model.d_model, -0.5, 0.5, model_seed ^ 0x5eed);
        let run =
            run_functional_stream(&cfg, model_seed, &features, 2, 2, &FunctionalFaults::none())
                .unwrap();
        let mut state = run.final_state;
        match tamper {
            0 => state.emitted_rows = state.emitted_rows.wrapping_sub(1),
            1 => state.chunk_idx += 1,
            2 => flip_low_bit(&mut state.kv[0].k[0]),
            3 => flip_low_bit(state.kv.last_mut().unwrap().v.last_mut().unwrap()),
            _ => state.crc ^= 0xdead_beef,
        }
        let err = resume_functional_stream(&cfg, model_seed, &state, &features, &FunctionalFaults::none())
            .unwrap_err();
        prop_assert!(matches!(err, AccelError::CheckpointRejected { .. }), "{}", err);
    }

    // Transformer-level counterpart: encode_streaming over a full-input
    // chunk equals the offline encoder exactly; any other geometry keeps
    // the output shape and finiteness (bounded divergence is reported, not
    // hidden).
    #[test]
    fn transformer_streaming_keeps_shape_and_pins_the_full_window_identity(
        model_seed in 1u64..16,
        chunk in 1usize..=8,
        left_context in 0usize..=8,
        s in 1usize..=8,
    ) {
        let model = Model::seeded(TransformerConfig::tiny(), model_seed);
        let features = init::uniform(s, model.config.d_model, -0.5, 0.5, model_seed);
        let cfg = StreamingConfig { chunk, left_context };
        let streamed = encode_streaming(&model, &features, &cfg, &ReferenceBackend).unwrap();
        prop_assert_eq!(streamed.rows(), s);
        prop_assert_eq!(streamed.cols(), model.config.d_model);
        prop_assert!(streamed.as_slice().iter().all(|v| v.is_finite()));
        if chunk >= s {
            let offline = model.encode(&features, &ReferenceBackend);
            prop_assert_eq!(&streamed, &offline, "one window must equal offline");
        }
    }

    // Resident-reuse accounting: offering a plan its own pinned stripe set
    // elides exactly those loads (bytes conserved), keeps every compute,
    // and never prices the warm plan above the cold one. A corrupted CRC
    // downgrades its stripe to a reload — counted stale, never elided.
    #[test]
    fn resident_reuse_elides_exactly_the_matching_stripes(
        arch_pick in 0usize..3,
        s in 1usize..=8,
        slots in 0usize..=6,
        corrupt_pick in 0usize..2,
    ) {
        let corrupt = corrupt_pick == 1;
        let cfg = timing_cfg();
        let arch = [Architecture::A1, Architecture::A2, Architecture::A3][arch_pick];
        let cold = ExecPlan::lower(&cfg, arch, s, 1, cfg.integrity).unwrap();
        let mut pinned = cold.pinned_stripes(slots);
        let n_pinned = pinned.len();
        let corrupted = corrupt && !pinned.is_empty();
        if corrupted {
            pinned[0].crc ^= 0xdead_beef;
        }
        let warm = ExecPlan::lower_batch(&cfg, arch, &[s], cfg.integrity, &pinned).unwrap();
        prop_assert_eq!(warm.counts().computes, cold.counts().computes);
        if n_pinned == 0 {
            prop_assert!(warm.reuse.is_none());
            return Ok(());
        }
        let reuse = warm.reuse.unwrap();
        let expect_elided = n_pinned - usize::from(corrupted);
        prop_assert_eq!(reuse.offered, n_pinned);
        prop_assert_eq!(reuse.elided_loads, expect_elided);
        prop_assert_eq!(reuse.stale, usize::from(corrupted));
        let expect_bytes: u64 = cold
            .phases
            .iter()
            .take(n_pinned)
            .skip(usize::from(corrupted))
            .map(|p| p.bytes)
            .sum();
        prop_assert_eq!(reuse.elided_load_bytes, expect_bytes);
        prop_assert_eq!(warm.counts().loads, cold.counts().loads - expect_elided);
        prop_assert!(
            walk_cost(&cfg, &warm).latency_s <= walk_cost(&cfg, &cold).latency_s + 1e-12,
            "a warm plan must never cost more than a cold one"
        );
    }
}

proptest! {
    #![proptest_config(env_cases(4))]

    // The pool's zero-drop guarantee: with at most one faulty card and at
    // least one healthy one, NO session ever dies — failed chunks replay on
    // a spare (exactly one replay per failover), and every submitted chunk
    // is accounted for as served, shed, or replayed-then-served.
    #[test]
    fn one_faulty_card_never_drops_a_stream(
        fault_seed in 0u64..64,
        devices in 2usize..=3,
        streams in 1usize..=4,
    ) {
        let mut cfg = StreamConfig::new(devices, fault_seed, streams, 0.120);
        cfg.chunks_per_stream = 4;
        cfg.chunk_interval_s = 0.080;
        let report = StreamPool::run(cfg).unwrap();
        prop_assert_eq!(report.streams_dropped, 0, "one bad card must never kill a session");
        prop_assert_eq!(report.streams_survived, report.streams);
        prop_assert_eq!(
            report.chunks_replayed, report.failovers,
            "only the unfinished chunk replays, never the stream"
        );
        let accounted = report.chunks_served + report.stale_shed + report.backpressure_shed;
        prop_assert_eq!(accounted, report.chunks_total, "every chunk must be accounted for");
        prop_assert!(report.records.iter().all(|r| !matches!(
            r.outcome,
            ChunkOutcome::SessionDropped
        )));
        if fault_seed != 0 && streams > (fault_seed as usize) % devices {
            // The broken card exists and at least one stream homes there.
            prop_assert!(report.failovers > 0, "the faulty card must trigger failover");
        }
    }
}
