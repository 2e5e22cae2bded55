//! Algorithm-based fault tolerance (ABFT) for the PSA matmul primitive.
//!
//! Classic Huang–Abraham checksum encoding: for `C = A·B`, the column sums of
//! `C` must equal the checksum row `(eᵀA)·B`. The PSA computes `C` one column
//! tile at a time (width `w`), so the check is applied *per tile*: one extra
//! accumulated row per tile buys detection over every element the tile
//! produced, and a mismatch localises the error to that tile. Recompute is
//! then a single re-run of the failing tile through [`Psa::matmul_region`] —
//! the same block primitive the normal path uses — so a repaired tile is
//! bit-identical to a clean run by construction (DESIGN.md §9).
//!
//! The comparison tolerance is the sound worst-case bound on sequential f32
//! accumulation: `γ_m · S_j` with `γ_m ≈ m·ε` and
//! `S_j = Σ_k (Σ_i |a_ik|) · |b_kj|`, evaluated in f64. An injected
//! sticky-lane offset `δ ≥ 0.5` shifts the column sum by `l·δ`, orders of
//! magnitude above the bound at any operand scale, so detection never relies
//! on tuning.

use crate::psa::Psa;
use asr_fpga_sim::Cycles;
use asr_tensor::{MatMul, Matrix};
use std::sync::Mutex;

/// How much integrity checking the datapath performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityLevel {
    /// No checks: silent corruption propagates to the output.
    #[default]
    Off,
    /// CRC + ABFT checks run and report; detected corruption fails typed
    /// (fail-stop) but nothing is repaired.
    Detect,
    /// Checks run and every detected corruption is repaired: weight stripes
    /// are refetched, failing PSA tiles are recomputed on a healthy block.
    DetectAndRecompute,
}

impl IntegrityLevel {
    /// True when CRC/ABFT checks execute at all.
    pub fn checks_enabled(self) -> bool {
        self != IntegrityLevel::Off
    }

    /// True when detected corruption is repaired rather than fail-stopped.
    pub fn recomputes(self) -> bool {
        self == IntegrityLevel::DetectAndRecompute
    }

    /// CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            IntegrityLevel::Off => "off",
            IntegrityLevel::Detect => "detect",
            IntegrityLevel::DetectAndRecompute => "detect-recompute",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(IntegrityLevel::Off),
            "detect" => Some(IntegrityLevel::Detect),
            "detect-recompute" | "detect-and-recompute" => Some(IntegrityLevel::DetectAndRecompute),
            _ => None,
        }
    }
}

/// A sticky arithmetic fault on one PSA column lane: every output element the
/// lane produces arrives offset by `delta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneFault {
    /// Column lane index within the PSA (0-based, < width).
    pub lane: usize,
    /// Additive offset on the lane's accumulator output.
    pub delta: f32,
}

/// Counters over everything a [`CheckedPsa`] computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbftStats {
    /// Column tiles whose checksum was verified.
    pub checked_tiles: u64,
    /// Tiles the injected lane fault actually corrupted.
    pub corrupted_tiles: u64,
    /// Tiles whose checksum mismatched.
    pub detected: u64,
    /// Tiles recomputed on a healthy block.
    pub recomputed: u64,
}

/// A matmul engine every PSA product can route through: the plain [`Psa`] or
/// the ABFT-wrapped [`CheckedPsa`].
pub trait PsaMatmul {
    /// Compute `a · b` with the PSA accumulation order.
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix;
}

impl PsaMatmul for Psa {
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        Psa::matmul(self, a, b)
    }
}

/// A PSA with the ABFT checksum check (and optional injected lane fault)
/// wrapped around every column tile it computes.
#[derive(Debug)]
pub struct CheckedPsa {
    psa: Psa,
    level: IntegrityLevel,
    fault: Option<LaneFault>,
    stats: Mutex<AbftStats>,
}

impl CheckedPsa {
    /// Wrap a PSA at an integrity level, fault-free.
    pub fn new(psa: Psa, level: IntegrityLevel) -> Self {
        CheckedPsa { psa, level, fault: None, stats: Mutex::new(AbftStats::default()) }
    }

    /// Wrap a PSA with a sticky lane fault injected.
    pub fn with_fault(psa: Psa, level: IntegrityLevel, fault: Option<LaneFault>) -> Self {
        if let Some(f) = fault {
            assert!(
                f.lane < psa.config.cols,
                "lane {} outside {}-wide PSA",
                f.lane,
                psa.config.cols
            );
            assert!(f.delta.is_finite(), "lane fault delta must be finite");
        }
        CheckedPsa { psa, level, fault, stats: Mutex::new(AbftStats::default()) }
    }

    /// The integrity level this engine runs at.
    pub fn level(&self) -> IntegrityLevel {
        self.level
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> AbftStats {
        *self.stats.lock().unwrap()
    }

    /// Compute `a · b`, injecting the lane fault into each tile it lands in
    /// and running the per-tile checksum check at `Detect` and above.
    ///
    /// At `Off` with no fault, and at any level on clean tiles, the output is
    /// bit-identical to [`Psa::matmul`]: the check is a pure observer and the
    /// recompute path re-runs the identical block primitive.
    pub fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(
            a.cols(),
            b.rows(),
            "psa matmul shape mismatch: {}x{} * {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let (l, _m) = a.shape();
        let n = b.cols();
        let w = self.psa.config.cols;
        let mut out = Matrix::zeros(l, n);
        let sums = checksum_rows(a);
        for j0 in (0..n).step_by(w) {
            let je = (j0 + w).min(n);
            self.psa.matmul_region(a, b, &mut out, j0, je);

            if let Some(f) = self.fault {
                let j = j0 + f.lane;
                if j < je {
                    for i in 0..l {
                        out[(i, j)] += f.delta;
                    }
                    self.stats.lock().unwrap().corrupted_tiles += 1;
                }
            }

            if self.level.checks_enabled() {
                let clean = tile_checksum_ok(&sums, b, &out, j0, je);
                let mut stats = self.stats.lock().unwrap();
                stats.checked_tiles += 1;
                if !clean {
                    stats.detected += 1;
                    if self.level.recomputes() {
                        drop(stats);
                        // Localized repair: zero and re-run only this tile on
                        // a healthy block — no lane fault applied.
                        for i in 0..l {
                            for v in &mut out.row_mut(i)[j0..je] {
                                *v = 0.0;
                            }
                        }
                        self.psa.matmul_region(a, b, &mut out, j0, je);
                        self.stats.lock().unwrap().recomputed += 1;
                    }
                }
            }
        }
        out
    }
}

impl MatMul for CheckedPsa {
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        CheckedPsa::matmul(self, a, b)
    }
    fn name(&self) -> &'static str {
        "systolic-psa-abft"
    }
}

impl PsaMatmul for CheckedPsa {
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        CheckedPsa::matmul(self, a, b)
    }
}

///// Per-`k` checksum sums of `A`: `sum[k] = Σ_i a_ik` (the Huang–Abraham
/// checksum row `eᵀA`) and `abs[k] = Σ_i |a_ik|` (the error-bound scale).
fn checksum_rows(a: &Matrix) -> Vec<(f64, f64)> {
    let (l, m) = a.shape();
    let mut sums = vec![(0.0f64, 0.0f64); m];
    for i in 0..l {
        for (k, &v) in a.row(i).iter().enumerate() {
            sums[k].0 += v as f64;
            sums[k].1 += (v as f64).abs();
        }
    }
    sums
}

/// Verify one output column tile against the checksum row.
fn tile_checksum_ok(sums: &[(f64, f64)], b: &Matrix, out: &Matrix, j0: usize, je: usize) -> bool {
    let m = b.rows();
    let l = out.rows();
    // Worst-case sequential-accumulation rounding bound γ_m ≈ m·ε, doubled
    // for the checksum side's own (much smaller) error.
    let gamma = 2.0 * m as f64 * f32::EPSILON as f64;
    for j in j0..je {
        let mut expected = 0.0f64;
        let mut scale = 0.0f64;
        for (k, &(sum_k, abs_k)) in sums.iter().enumerate().take(m) {
            let bkj = b[(k, j)] as f64;
            expected += sum_k * bkj;
            scale += abs_k * bkj.abs();
        }
        let mut actual = 0.0f64;
        for i in 0..l {
            actual += out[(i, j)] as f64;
        }
        if (actual - expected).abs() > gamma * scale + 1e-12 {
            return false;
        }
    }
    true
}

/// Extra PSA cycles the checksum row costs for an `(l × m) · (m × n)`
/// product: one additional accumulated row-wave per column tile, independent
/// of `l`.
pub fn checksum_pass_cycles(psa: &Psa, m: usize, n: usize) -> Cycles {
    let cfg = &psa.config;
    let tiles = n.div_ceil(cfg.cols) as u64;
    Cycles(tiles * (m as u64 * cfg.ii + cfg.drain()))
}

/// Cycles to recompute one failing column tile: every row wave of that tile
/// re-runs.
pub fn tile_recompute_cycles(psa: &Psa, l: usize, m: usize) -> Cycles {
    let cfg = &psa.config;
    let waves = l.div_ceil(cfg.rows) as u64;
    Cycles(waves * (m as u64 * cfg.ii + cfg.drain()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_tensor::init;

    fn operands(l: usize, m: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
        (init::uniform(l, m, -1.0, 1.0, seed), init::uniform(m, n, -1.0, 1.0, seed + 1))
    }

    #[test]
    fn level_parsing_and_defaults() {
        assert_eq!(IntegrityLevel::default(), IntegrityLevel::Off);
        for lvl in [IntegrityLevel::Off, IntegrityLevel::Detect, IntegrityLevel::DetectAndRecompute]
        {
            assert_eq!(IntegrityLevel::parse(lvl.name()), Some(lvl));
        }
        assert_eq!(
            IntegrityLevel::parse("detect-and-recompute"),
            Some(IntegrityLevel::DetectAndRecompute)
        );
        assert_eq!(IntegrityLevel::parse("paranoid"), None);
        assert!(!IntegrityLevel::Off.checks_enabled());
        assert!(IntegrityLevel::Detect.checks_enabled() && !IntegrityLevel::Detect.recomputes());
        assert!(IntegrityLevel::DetectAndRecompute.recomputes());
    }

    #[test]
    fn clean_engine_is_bit_identical_at_every_level_with_zero_detections() {
        let psa = Psa::paper_default();
        for &(l, m, n) in &[(1, 1, 1), (2, 64, 64), (5, 33, 70), (32, 512, 64), (3, 7, 129)] {
            let (a, b) = operands(l, m, n, (l * 31 + n) as u64);
            let clean = psa.matmul(&a, &b);
            for lvl in
                [IntegrityLevel::Off, IntegrityLevel::Detect, IntegrityLevel::DetectAndRecompute]
            {
                let eng = CheckedPsa::new(psa, lvl);
                assert_eq!(CheckedPsa::matmul(&eng, &a, &b), clean, "level {:?}", lvl);
                let stats = eng.stats();
                assert_eq!(stats.detected, 0, "false positive at {:?} on {}x{}x{}", lvl, l, m, n);
                assert_eq!(stats.recomputed, 0);
            }
        }
    }

    #[test]
    fn lane_fault_at_off_escapes_silently() {
        let psa = Psa::paper_default();
        let (a, b) = operands(6, 48, 130, 9);
        let fault = Some(LaneFault { lane: 3, delta: 1.0 });
        let eng = CheckedPsa::with_fault(psa, IntegrityLevel::Off, fault);
        let wrong = CheckedPsa::matmul(&eng, &a, &b);
        assert_ne!(wrong, psa.matmul(&a, &b), "fault must corrupt the output");
        let stats = eng.stats();
        // n = 130 on a 64-wide PSA => 3 tiles; lane 3 lands in the two full
        // tiles but not the 2-wide tail tile (128 + 3 >= 130).
        assert_eq!(stats.corrupted_tiles, 2);
        assert_eq!(stats.checked_tiles, 0, "no checks run at Off");
        assert_eq!(stats.detected, 0);
    }

    #[test]
    fn detect_flags_every_corrupted_tile_but_leaves_output_wrong() {
        let psa = Psa::paper_default();
        let (a, b) = operands(6, 48, 130, 9);
        let fault = Some(LaneFault { lane: 60, delta: 0.5 });
        let eng = CheckedPsa::with_fault(psa, IntegrityLevel::Detect, fault);
        let wrong = CheckedPsa::matmul(&eng, &a, &b);
        assert_ne!(wrong, psa.matmul(&a, &b), "Detect observes, it does not repair");
        let stats = eng.stats();
        // lane 60 exists in the two full tiles but not the 2-wide tail tile.
        assert_eq!(stats.corrupted_tiles, 2);
        assert_eq!(stats.detected, 2);
        assert_eq!(stats.recomputed, 0);
    }

    #[test]
    fn recompute_restores_bit_identity() {
        let psa = Psa::paper_default();
        for &(l, m, n) in &[(1, 8, 64), (6, 48, 130), (32, 512, 64)] {
            let (a, b) = operands(l, m, n, (l + m + n) as u64);
            let clean = psa.matmul(&a, &b);
            let fault = Some(LaneFault { lane: 0, delta: 2.5 });
            let eng = CheckedPsa::with_fault(psa, IntegrityLevel::DetectAndRecompute, fault);
            assert_eq!(CheckedPsa::matmul(&eng, &a, &b), clean, "{}x{}x{}", l, m, n);
            let stats = eng.stats();
            assert!(stats.corrupted_tiles > 0);
            assert_eq!(stats.detected, stats.corrupted_tiles, "every corruption detected");
            assert_eq!(stats.recomputed, stats.detected, "every detection repaired");
        }
    }

    #[test]
    fn overhead_cycle_formulas() {
        let psa = Psa::paper_default();
        // One checksum wave per tile: 2 tiles of (m·ii + drain).
        assert_eq!(checksum_pass_cycles(&psa, 64, 128), Cycles(2 * (64 * 12 + 66)));
        // Checksum cost is independent of l; recompute cost is not.
        assert_eq!(tile_recompute_cycles(&psa, 32, 64), Cycles(16 * (64 * 12 + 66)));
        assert!(tile_recompute_cycles(&psa, 2, 64) < tile_recompute_cycles(&psa, 32, 64));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn lane_outside_psa_width_panics() {
        let _ = CheckedPsa::with_fault(
            Psa::paper_default(),
            IntegrityLevel::Detect,
            Some(LaneFault { lane: 64, delta: 1.0 }),
        );
    }
}
