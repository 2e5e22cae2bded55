//! Deterministic fault injection for the runtime model.
//!
//! Real Alveo deployments fail in well-known ways: an HBM AXI burst errors
//! out, a kernel wedges and never raises its done interrupt, a memory
//! controller drops pseudo-channels after an ECC storm, or a whole SLR goes
//! dark after a clock-domain upset. This module
//! models those events as a *plan*: a seeded, deterministic list of faults
//! that the [`crate::runtime::Runtime`] consults every time a command is
//! enqueued. Determinism matters — the same `(plan, schedule)` pair must
//! produce bit-identical timelines on every run, so recovery policies can be
//! regression-tested like any other schedule.
//!
//! Faults come in two flavours:
//!
//! * **Transient** ([`FaultKind::HbmLoadError`], [`FaultKind::KernelHang`],
//!   [`FaultKind::HbmStall`]) — strike commands
//!   whose label contains a substring, for the first `failing_attempts`
//!   attempts of that command. Re-enqueueing the same label on the same
//!   queue counts as the next attempt, so a retry policy eventually gets a
//!   clean run.
//! * **Structural** ([`FaultKind::EngineDropout`], [`FaultKind::SlrDropout`],
//!   [`FaultKind::ChannelDegrade`]) — permanent from their trigger point
//!   onward: every later command on the dead unit fails instantly (or, for
//!   channel degradation, runs slower). Retrying is pointless; the host must
//!   degrade — see `asr-accel::host_runtime::run_plan_with_recovery`.
//! * **Silent** ([`FaultKind::HbmBitFlip`], [`FaultKind::DmaCorruption`],
//!   [`FaultKind::PsaStickyLane`]) — the command *completes normally* but the
//!   data is wrong: a flipped bit in a loaded weight stripe, a corrupted DMA
//!   payload byte, or a PSA lane whose accumulator output is stuck offset.
//!   Nothing in the runtime's status path reports them; only the integrity
//!   layer (CRC stripe envelope + ABFT checksums, DESIGN.md §9) can notice.
//!   The recoverability contract extends to them: every drawn silent fault is
//!   detectable by those checks (bit flips stay within the CRC's guaranteed
//!   detection classes, sticky-lane deltas are far above the ABFT tolerance)
//!   and clears within two refetch attempts.

/// One fault in a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// An HBM burst read errors out: loads whose label contains `label` fail
    /// on their first `failing_attempts` attempts. The failure is detected
    /// halfway through the nominal transfer (the AXI response arrives after
    /// the burst is already in flight).
    HbmLoadError {
        /// Substring matched against the command label.
        label: String,
        /// Attempts that fail before the command succeeds.
        failing_attempts: u32,
    },
    /// An HBM load runs `factor`× slower than nominal (controller refresh
    /// storms, row-conflict pathologies). Completes successfully unless it
    /// outlasts its watchdog budget.
    HbmStall {
        /// Substring matched against the command label.
        label: String,
        /// Slowdown multiplier (> 1).
        factor: f64,
    },
    /// A kernel wedges and never completes. Only the watchdog can turn this
    /// into a [`crate::runtime::CommandStatus::TimedOut`]; without one the
    /// makespan is infinite.
    KernelHang {
        /// Substring matched against the command label.
        label: String,
        /// Attempts that hang before the kernel runs clean.
        failing_attempts: u32,
    },
    /// The DMA engine behind queue `queue` dies: from its `from_command`-th
    /// enqueued command onward, everything on that queue fails instantly
    /// with [`crate::runtime::FailureCause::EngineDead`].
    EngineDropout {
        /// Queue (engine) name, e.g. `"maxi-1"`.
        queue: String,
        /// Per-queue command ordinal (0-based) at which the engine dies.
        from_command: usize,
    },
    /// A whole SLR goes dark: from the `from_command`-th kernel launch
    /// onward, kernels placed on SLR `slr` fail instantly with
    /// [`crate::runtime::FailureCause::SlrDead`].
    SlrDropout {
        /// SLR index (0 or 1 on the U50).
        slr: usize,
        /// Global kernel-launch ordinal (0-based) at which the SLR dies.
        from_command: usize,
    },
    /// The HBM controller loses `lost` pseudo-channels: from the
    /// `from_load`-th HBM load onward, every load runs with
    /// `max(1, channels - lost)` effective channels.
    ChannelDegrade {
        /// Channels lost.
        lost: u32,
        /// Global HBM-load ordinal (0-based) at which degradation begins.
        from_load: usize,
    },
    /// *Silent*: one bit of one `f32` word in a loaded weight stripe flips in
    /// HBM. The load completes with nominal timing and `Completed` status —
    /// only a stripe CRC check can see it. Strikes loads whose label contains
    /// `label` for the first `failing_attempts` attempts (a refetch reads a
    /// clean copy once the transient upset has been scrubbed).
    HbmBitFlip {
        /// Substring matched against the command label.
        label: String,
        /// Word index into the stripe (applied modulo the stripe length).
        word: usize,
        /// Bit within the word (0..=22: mantissa bits, so the corrupted
        /// value stays finite and slips past NaN/Inf guards).
        bit: u8,
        /// Attempts whose payload arrives corrupted.
        failing_attempts: u32,
    },
    /// *Silent*: a DMA burst delivers one corrupted payload byte (the low
    /// mantissa byte of word `word` is XORed with `xor`). Completes normally;
    /// detectable only by the stripe CRC envelope.
    DmaCorruption {
        /// Substring matched against the command label.
        label: String,
        /// Word index into the stripe (applied modulo the stripe length).
        word: usize,
        /// Non-zero XOR mask applied to the word's low mantissa byte.
        xor: u8,
        /// Attempts whose payload arrives corrupted.
        failing_attempts: u32,
    },
    /// *Silent*: a sticky arithmetic fault in one PSA column lane — every
    /// output element the lane produces is offset by `delta`. Kernels still
    /// report success; only an ABFT checksum column over the product can see
    /// it, and only block-level recompute can repair it.
    PsaStickyLane {
        /// Column lane index (0-based, < PSA columns).
        lane: usize,
        /// Additive offset on the lane's accumulator output (finite, > 0,
        /// and far above the ABFT detection tolerance).
        delta: f32,
    },
}

impl FaultKind {
    /// Short human tag used in timeline fault markers.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::HbmLoadError { .. } => "hbm-load-error",
            FaultKind::HbmStall { .. } => "hbm-stall",
            FaultKind::KernelHang { .. } => "kernel-hang",
            FaultKind::EngineDropout { .. } => "engine-dropout",
            FaultKind::SlrDropout { .. } => "slr-dropout",
            FaultKind::ChannelDegrade { .. } => "channel-degrade",
            FaultKind::HbmBitFlip { .. } => "hbm-bit-flip",
            FaultKind::DmaCorruption { .. } => "dma-corruption",
            FaultKind::PsaStickyLane { .. } => "psa-sticky-lane",
        }
    }

    /// True for faults that corrupt data while the command still reports
    /// success — invisible to the status path, visible only to integrity
    /// checks.
    pub fn is_silent(&self) -> bool {
        matches!(
            self,
            FaultKind::HbmBitFlip { .. }
                | FaultKind::DmaCorruption { .. }
                | FaultKind::PsaStickyLane { .. }
        )
    }
}

/// A deterministic set of faults to inject into one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<FaultKind>,
}

/// Knobs for [`FaultPlan::seeded`]: expected fault counts per class over one
/// 18-layer pass (≈ 24 loads / 24 kernels at A3 granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability a transient HBM load error is drawn.
    pub p_load_error: f64,
    /// Probability an HBM stall is drawn.
    pub p_stall: f64,
    /// Probability a kernel hang is drawn.
    pub p_hang: f64,
    /// Probability a load-engine dropout is drawn.
    pub p_engine_dropout: f64,
    /// Probability an SLR dropout is drawn.
    pub p_slr_dropout: f64,
    /// Probability a channel degradation is drawn.
    pub p_channel_degrade: f64,
    /// Probability a silent HBM bit flip is drawn.
    pub p_bit_flip: f64,
    /// Probability a silent DMA payload corruption is drawn.
    pub p_dma_corrupt: f64,
    /// Probability a sticky PSA lane fault is drawn.
    pub p_psa_sticky: f64,
    /// Ordinal range faults are placed in (commands 0..span).
    pub span: usize,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            p_load_error: 0.8,
            p_stall: 0.5,
            p_hang: 0.5,
            p_engine_dropout: 0.35,
            p_slr_dropout: 0.25,
            p_channel_degrade: 0.35,
            p_bit_flip: 0.4,
            p_dma_corrupt: 0.3,
            p_psa_sticky: 0.3,
            span: 24,
        }
    }
}

impl FaultProfile {
    /// A profile that draws *only* silent faults, each with certainty — used
    /// to exercise the integrity path without the loud-fault recovery ladder
    /// interleaving.
    pub fn silent_only() -> Self {
        FaultProfile {
            p_load_error: 0.0,
            p_stall: 0.0,
            p_hang: 0.0,
            p_engine_dropout: 0.0,
            p_slr_dropout: 0.0,
            p_channel_degrade: 0.0,
            p_bit_flip: 1.0,
            p_dma_corrupt: 1.0,
            p_psa_sticky: 1.0,
            span: 24,
        }
    }
}

/// SplitMix64 — tiny, seedable, and good enough for fault placement.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl FaultPlan {
    /// The empty plan: no faults, runtime behaviour bit-identical to a
    /// runtime constructed without a plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in the plan.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Add a fault (builder style).
    pub fn with(mut self, fault: FaultKind) -> Self {
        self.faults.push(fault);
        self
    }

    /// Add a fault in place.
    pub fn push(&mut self, fault: FaultKind) {
        self.faults.push(fault);
    }

    /// Draw a deterministic plan from a seed with the default profile.
    ///
    /// Every fault drawn is *recoverable*: transient faults fail at most two
    /// attempts (a retry policy with ≥ 3 attempts always clears them) and
    /// structural faults leave at least one engine, one SLR, and one HBM
    /// channel alive, so the degradation ladder always has a rung to stand on.
    pub fn seeded(seed: u64) -> Self {
        Self::seeded_with(seed, &FaultProfile::default())
    }

    /// Draw a deterministic plan from a seed and an explicit profile.
    pub fn seeded_with(seed: u64, profile: &FaultProfile) -> Self {
        let mut rng = SplitMix64(seed ^ 0x00FA_017F_A017);
        let mut plan = FaultPlan::none();
        let span = profile.span.max(1);

        if rng.chance(profile.p_load_error) {
            // Strike a specific load by ordinal-ish label: the host labels
            // loads "LW<phase>", so hit whichever phase the draw picks by
            // matching the whole class and bounding the attempts.
            let attempts = 1 + (rng.next() % 2) as u32; // 1..=2 failing attempts
            plan.push(FaultKind::HbmLoadError { label: "LW".into(), failing_attempts: attempts });
        }
        if rng.chance(profile.p_stall) {
            let factor = 1.5 + (rng.next() % 4) as f64 * 0.5; // 1.5..=3.0
            plan.push(FaultKind::HbmStall { label: "LW".into(), factor });
        }
        if rng.chance(profile.p_hang) {
            let attempts = 1 + (rng.next() % 2) as u32;
            plan.push(FaultKind::KernelHang { label: "C".into(), failing_attempts: attempts });
        }
        if rng.chance(profile.p_engine_dropout) {
            // Only ever kill engine 1 so a survivor (maxi-0) always remains.
            let from = (rng.next() as usize) % span;
            plan.push(FaultKind::EngineDropout { queue: "maxi-1".into(), from_command: from });
        }
        if rng.chance(profile.p_slr_dropout) {
            // Only ever kill SLR 1 so SLR 0 (the HBM-attached one) survives.
            let from = (rng.next() as usize) % span;
            plan.push(FaultKind::SlrDropout { slr: 1, from_command: from });
        }
        if rng.chance(profile.p_channel_degrade) {
            let from = (rng.next() as usize) % span;
            plan.push(FaultKind::ChannelDegrade { lost: 1, from_load: from });
        }
        // Silent faults are drawn after every loud class so that adding them
        // did not perturb which loud faults a given seed produces.
        if rng.chance(profile.p_bit_flip) {
            let attempts = 1 + (rng.next() % 2) as u32; // 1..=2 corrupt fetches
            let word = (rng.next() % 4096) as usize;
            let bit = (rng.next() % 23) as u8; // mantissa-only: value stays finite
            plan.push(FaultKind::HbmBitFlip {
                label: "LW".into(),
                word,
                bit,
                failing_attempts: attempts,
            });
        }
        if rng.chance(profile.p_dma_corrupt) {
            let attempts = 1 + (rng.next() % 2) as u32;
            let word = (rng.next() % 4096) as usize;
            let xor = 1 + (rng.next() % 255) as u8; // never zero: always corrupts
            plan.push(FaultKind::DmaCorruption {
                label: "LW".into(),
                word,
                xor,
                failing_attempts: attempts,
            });
        }
        if rng.chance(profile.p_psa_sticky) {
            let lane = (rng.next() % 64) as usize;
            let delta = 0.5 + (rng.next() % 8) as f32 * 0.5; // 0.5..=4.0 ≫ ABFT tolerance
            plan.push(FaultKind::PsaStickyLane { lane, delta });
        }
        plan
    }

    /// True when the plan contains at least one silent (data-corrupting)
    /// fault.
    pub fn has_silent_faults(&self) -> bool {
        self.faults.iter().any(FaultKind::is_silent)
    }

    /// Compose two plans: every fault of `other` appended after this plan's.
    /// Composition is how node-scoped fault domains are built — a device's
    /// own plan merged with a fault that strikes the whole node at once
    /// (see [`correlated_hbm_burst`]).
    pub fn merged(mut self, other: &FaultPlan) -> Self {
        self.faults.extend(other.faults.iter().cloned());
        self
    }
}

/// A *correlated* silent-corruption burst across every device of one node:
/// the same upset (one shared memory controller, one power rail brown-out)
/// flips the same mantissa bit of the same word in the same stripe class on
/// all `devices` cards at once. Unlike [`FaultPlan::seeded`]'s independent
/// per-card draws, the returned plans are identical by construction — which
/// is exactly what makes the failure *correlated*: intra-node failover
/// cannot route around it, only a different node (or the integrity layer's
/// refetch) can. Every draw stays within the recoverable envelope
/// (≤ 2 corrupt fetches, mantissa-only flips).
pub fn correlated_hbm_burst(seed: u64, devices: usize) -> Vec<FaultPlan> {
    let mut rng = SplitMix64(seed ^ 0x00C0_44E1_A7ED);
    let word = (rng.next() % 4096) as usize;
    let bit = (rng.next() % 23) as u8;
    let attempts = 1 + (rng.next() % 2) as u32;
    let burst = FaultPlan::none().with(FaultKind::HbmBitFlip {
        label: "LW".into(),
        word,
        bit,
        failing_attempts: attempts,
    });
    vec![burst; devices]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..32u64 {
            assert_eq!(FaultPlan::seeded(seed), FaultPlan::seeded(seed));
        }
        // and not all identical
        assert!((0..32u64).map(FaultPlan::seeded).any(|p| p != FaultPlan::seeded(0)));
    }

    #[test]
    fn merged_plans_compose_in_order() {
        let a = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LW".into(), failing_attempts: 1 });
        let b = FaultPlan::none()
            .with(FaultKind::KernelHang { label: "C".into(), failing_attempts: 2 });
        let m = a.clone().merged(&b);
        assert_eq!(m.faults().len(), 2);
        assert_eq!(m.faults()[0], a.faults()[0]);
        assert_eq!(m.faults()[1], b.faults()[0]);
        // Merging the empty plan is the identity in both directions.
        assert_eq!(a.clone().merged(&FaultPlan::none()), a);
        assert_eq!(FaultPlan::none().merged(&b), b);
    }

    #[test]
    fn correlated_burst_is_identical_across_the_node_and_recoverable() {
        for seed in 1..64u64 {
            let plans = correlated_hbm_burst(seed, 4);
            assert_eq!(plans.len(), 4);
            for p in &plans {
                // Correlation: every card sees the same upset.
                assert_eq!(p, &plans[0], "seed {}", seed);
                assert!(p.has_silent_faults());
                let [FaultKind::HbmBitFlip { bit, failing_attempts, .. }] = p.faults() else {
                    panic!("seed {}: burst must be a single silent bit flip", seed);
                };
                assert!(*bit < 23, "mantissa-only");
                assert!(*failing_attempts <= 2, "within the recoverable envelope");
            }
            // Determinism, and different seeds move the upset around.
            assert_eq!(plans, correlated_hbm_burst(seed, 4));
        }
        let distinct = (1..64u64).map(|s| correlated_hbm_burst(s, 1)).collect::<Vec<_>>();
        assert!(distinct.iter().any(|p| p != &distinct[0]));
    }

    #[test]
    fn seeded_plans_are_recoverable() {
        for seed in 0..256u64 {
            for f in FaultPlan::seeded(seed).faults() {
                match f {
                    FaultKind::HbmLoadError { failing_attempts, .. }
                    | FaultKind::KernelHang { failing_attempts, .. } => {
                        assert!(*failing_attempts <= 2, "seed {}: {:?}", seed, f);
                    }
                    FaultKind::HbmStall { factor, .. } => assert!(*factor > 1.0),
                    FaultKind::EngineDropout { queue, .. } => assert_eq!(queue, "maxi-1"),
                    FaultKind::SlrDropout { slr, .. } => assert_eq!(*slr, 1),
                    FaultKind::ChannelDegrade { lost, .. } => assert!(*lost < 2),
                    FaultKind::HbmBitFlip { bit, failing_attempts, .. } => {
                        // Mantissa-only flip (stays finite → truly silent) and
                        // clears within two refetches.
                        assert!(*bit <= 22, "seed {}: {:?}", seed, f);
                        assert!(*failing_attempts <= 2, "seed {}: {:?}", seed, f);
                    }
                    FaultKind::DmaCorruption { xor, failing_attempts, .. } => {
                        assert_ne!(*xor, 0, "seed {}: zero XOR never corrupts", seed);
                        assert!(*failing_attempts <= 2, "seed {}: {:?}", seed, f);
                    }
                    FaultKind::PsaStickyLane { lane, delta } => {
                        // Within the 2×64 PSA and far above the ABFT tolerance.
                        assert!(*lane < 64, "seed {}: {:?}", seed, f);
                        assert!(delta.is_finite() && *delta >= 0.5, "seed {}: {:?}", seed, f);
                    }
                }
            }
        }
    }

    #[test]
    fn silent_draws_do_not_perturb_loud_draws() {
        // Appending the silent classes must not have changed which loud
        // faults a seed produces: drawing with all-silent probabilities at
        // zero reproduces the loud prefix of the default plan exactly.
        let loud_only = FaultProfile {
            p_bit_flip: 0.0,
            p_dma_corrupt: 0.0,
            p_psa_sticky: 0.0,
            ..FaultProfile::default()
        };
        for seed in 0..64u64 {
            let full = FaultPlan::seeded(seed);
            let loud: Vec<_> = full.faults().iter().filter(|f| !f.is_silent()).cloned().collect();
            assert_eq!(FaultPlan::seeded_with(seed, &loud_only).faults(), &loud[..]);
        }
    }

    #[test]
    fn silent_only_profile_draws_all_three_classes() {
        for seed in [0u64, 1, 7, 42] {
            let plan = FaultPlan::seeded_with(seed, &FaultProfile::silent_only());
            assert_eq!(plan.faults().len(), 3);
            assert!(plan.faults().iter().all(FaultKind::is_silent));
            assert!(plan.has_silent_faults());
        }
        assert!(!FaultPlan::none().has_silent_faults());
    }

    #[test]
    fn builder_accumulates() {
        let p = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWE3".into(), failing_attempts: 1 })
            .with(FaultKind::SlrDropout { slr: 1, from_command: 4 });
        assert_eq!(p.faults().len(), 2);
        assert!(!p.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
