//! The six matmul scheduling schemes MM1–MM6 (Table 4.2, Figs 4.3–4.7).
//!
//! Every matrix multiplication in the model is routed onto the PSA pool
//! through one of these schemes:
//!
//! | kind | operands (`s` = sequence length) | routing |
//! |------|----------------------------------|---------|
//! | MM1  | `s×512 · 512×64`   | 8 column/row stripes on ONE PSA, pipelined adder (Fig 4.3) |
//! | MM2  | `s×64  · 64×s`     | one PSA, operands padded to the PSA width (Fig 4.4) |
//! | MM3  | `s×s   · s×64`     | one PSA, padded (Fig 4.4) |
//! | MM4  | `s×512 · 512×512`  | split across ALL 8 PSAs on both SLRs (Fig 4.5) |
//! | MM5  | `s×512 · 512×2048` | all 8 PSAs, `512×1024` weights per SLR (Fig 4.6) |
//! | MM6  | `s×2048 · 2048×512`| all 8 PSAs, `1024×512` weights per SLR (Fig 4.7) |

use crate::config::AccelConfig;
use asr_fpga_sim::Cycles;

/// Which of the paper's six matmul schemes an operation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmKind {
    /// Q/K/V linear projection.
    Mm1,
    /// `Q · Kᵀ` attention scores.
    Mm2,
    /// `softmax(scores) · V`.
    Mm3,
    /// MHA output projection (`W_A`).
    Mm4,
    /// FFN first layer (`W_1F`).
    Mm5,
    /// FFN second layer (`W_2F`).
    Mm6,
}

impl MmKind {
    /// All six kinds in paper order.
    pub const ALL: [MmKind; 6] =
        [MmKind::Mm1, MmKind::Mm2, MmKind::Mm3, MmKind::Mm4, MmKind::Mm5, MmKind::Mm6];

    /// Operand and output dimensions for sequence length `s`
    /// (Table 4.2 row): `((l, m), (m, n), (l, n))`.
    pub fn dims(
        self,
        s: usize,
        cfg: &AccelConfig,
    ) -> ((usize, usize), (usize, usize), (usize, usize)) {
        let d = cfg.model.d_model;
        let dk = cfg.model.d_k();
        let dff = cfg.model.d_ff;
        match self {
            MmKind::Mm1 => ((s, d), (d, dk), (s, dk)),
            MmKind::Mm2 => ((s, dk), (dk, s), (s, s)),
            MmKind::Mm3 => ((s, s), (s, dk), (s, dk)),
            MmKind::Mm4 => ((s, d), (d, d), (s, d)),
            MmKind::Mm5 => ((s, d), (d, dff), (s, dff)),
            MmKind::Mm6 => ((s, dff), (dff, d), (s, d)),
        }
    }

    /// The paper figure describing this scheme.
    pub fn figure(self) -> &'static str {
        match self {
            MmKind::Mm1 => "Fig 4.3",
            MmKind::Mm2 | MmKind::Mm3 => "Fig 4.4",
            MmKind::Mm4 => "Fig 4.5",
            MmKind::Mm5 => "Fig 4.6",
            MmKind::Mm6 => "Fig 4.7",
        }
    }

    /// Whether the scheme occupies the whole PSA pool (MM4–MM6) or a single
    /// PSA within one attention head (MM1–MM3).
    pub fn uses_whole_pool(self) -> bool {
        matches!(self, MmKind::Mm4 | MmKind::Mm5 | MmKind::Mm6)
    }
}

/// ABFT checksum-pass overhead for `passes` PSA passes of inner dim `m` and
/// output width `n` — zero when the configured [`IntegrityLevel`] runs no
/// checks, so the paper's unprotected cycle counts are untouched at `Off`.
///
/// [`IntegrityLevel`]: asr_systolic::abft::IntegrityLevel
pub(crate) fn integrity_overhead(cfg: &AccelConfig, m: usize, n: usize, passes: u64) -> Cycles {
    if !cfg.integrity.checks_enabled() {
        return Cycles(0);
    }
    let psa = cfg.psa_engine();
    Cycles(asr_systolic::abft::checksum_pass_cycles(&psa, m, n).get() * passes)
}

/// Cycles of one MM1 on a single PSA: `d_model/psa.cols` stripe passes plus
/// one exposed pipelined-adder latency (Fig 4.3).
pub fn mm1_cycles(cfg: &AccelConfig, s: usize) -> Cycles {
    let psa = cfg.psa_engine();
    let dk = cfg.model.d_k();
    let stripes = (cfg.model.d_model / cfg.psa.cols).max(1) as u64;
    Cycles(psa.cycles(s, cfg.psa.cols, dk).get() * stripes)
        + cfg.adder.cycles(s, dk)
        + integrity_overhead(cfg, cfg.psa.cols, dk, stripes)
}

/// Cycles of MM2 (= MM3) for `rows` queries over `keys` keys: the small
/// product padded to the PSA width (Fig 4.4), one pass on one PSA.
pub fn mm2_cycles(cfg: &AccelConfig, rows: usize, keys: usize) -> Cycles {
    let psa = cfg.psa_engine();
    let w = cfg.psa.cols;
    // both the inner dim and output width are padded up to the PSA width
    let (m, n) = (w.max(cfg.model.d_k()), w.max(keys.min(w)));
    psa.cycles(rows, m, n) + integrity_overhead(cfg, m, n, 1)
}

/// Cycles of MM3 — identical shape to MM2 after padding.
pub fn mm3_cycles(cfg: &AccelConfig, rows: usize, keys: usize) -> Cycles {
    mm2_cycles(cfg, rows, keys)
}

/// Cycles of MM4 distributed over the whole pool (Fig 4.5): each PSA takes
/// one `s×64 · 64×512` slice; the partial products accumulate through the
/// pipelined adders.
pub fn mm4_cycles(cfg: &AccelConfig, s: usize) -> Cycles {
    let psa = cfg.psa_engine();
    let d = cfg.model.d_model;
    let slice_m = d / cfg.n_psas();
    psa.cycles(s, slice_m, d) + cfg.adder.cycles(s, d) + integrity_overhead(cfg, slice_m, d, 1)
}

/// Cycles of MM5 over the whole pool (Fig 4.6): per SLR the `512×1024`
/// weight half is split into four `256×512` blocks, one per PSA.
pub fn mm5_cycles(cfg: &AccelConfig, s: usize) -> Cycles {
    let psa = cfg.psa_engine();
    let d = cfg.model.d_model;
    let dff = cfg.model.d_ff;
    // Shipped decomposition (Fig 4.6): each PSA computes (s × d/2)·(d/2 × dff/4),
    // i.e. (s×256)·(256×512) in the paper's dimensions.
    let inner = d / 2;
    let out = dff / cfg.psas_per_slr;
    psa.cycles(s, inner, out) + cfg.adder.cycles(s, out) + integrity_overhead(cfg, inner, out, 1)
}

/// Cycles of MM6 over the whole pool (Fig 4.7): like MM5 plus the cross-SLR
/// final accumulation of the two `s×512` halves — one SLR's partial sum
/// crosses the inter-SLR AXI-stream before the final adder pass.
pub fn mm6_cycles(cfg: &AccelConfig, s: usize) -> Cycles {
    let psa = cfg.psa_engine();
    let d = cfg.model.d_model;
    let dff = cfg.model.d_ff;
    let inner = dff / cfg.n_psas(); // 2048/8 = 256 per PSA chunk
    let isc = asr_fpga_sim::isc::IscSpec::u50();
    let crossing = Cycles(isc.transfer_cycles((s * d) as u64 * 4));
    psa.cycles(s, inner, d)
        + cfg.adder.cycles(s, d)
        + crossing
        + cfg.adder.cycles(s, d)
        + integrity_overhead(cfg, inner, d, 1)
}

/// Cycle cost of a kind at sequence length `s` under the shipped routing.
pub fn mm_cycles(kind: MmKind, cfg: &AccelConfig, s: usize) -> Cycles {
    match kind {
        MmKind::Mm1 => mm1_cycles(cfg, s),
        MmKind::Mm2 => mm2_cycles(cfg, s, s),
        MmKind::Mm3 => mm3_cycles(cfg, s, s),
        MmKind::Mm4 => mm4_cycles(cfg, s),
        MmKind::Mm5 => mm5_cycles(cfg, s),
        MmKind::Mm6 => mm6_cycles(cfg, s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn dims_reproduce_table_4_2() {
        let c = cfg();
        let s = 7;
        assert_eq!(MmKind::Mm1.dims(s, &c), ((7, 512), (512, 64), (7, 64)));
        assert_eq!(MmKind::Mm2.dims(s, &c), ((7, 64), (64, 7), (7, 7)));
        assert_eq!(MmKind::Mm3.dims(s, &c), ((7, 7), (7, 64), (7, 64)));
        assert_eq!(MmKind::Mm4.dims(s, &c), ((7, 512), (512, 512), (7, 512)));
        assert_eq!(MmKind::Mm5.dims(s, &c), ((7, 512), (512, 2048), (7, 2048)));
        assert_eq!(MmKind::Mm6.dims(s, &c), ((7, 2048), (2048, 512), (7, 512)));
    }

    #[test]
    fn dims_chain_is_composable() {
        // Output of each MM feeds the next in the block diagrams: inner dims line up.
        let c = cfg();
        for kind in MmKind::ALL {
            let ((l, m), (m2, n), (lo, no)) = kind.dims(13, &c);
            assert_eq!(m, m2, "{:?}", kind);
            assert_eq!((l, n), (lo, no), "{:?}", kind);
        }
    }

    #[test]
    fn figure_references_match_paper() {
        assert_eq!(MmKind::Mm1.figure(), "Fig 4.3");
        assert_eq!(MmKind::Mm2.figure(), "Fig 4.4");
        assert_eq!(MmKind::Mm6.figure(), "Fig 4.7");
    }

    #[test]
    fn pool_usage_split() {
        assert!(!MmKind::Mm1.uses_whole_pool());
        assert!(!MmKind::Mm3.uses_whole_pool());
        assert!(MmKind::Mm4.uses_whole_pool());
        assert!(MmKind::Mm5.uses_whole_pool());
    }

    #[test]
    fn mm1_is_eight_stripes_plus_one_add() {
        let c = cfg();
        let psa = c.psa_engine();
        let expect = Cycles(psa.cycles(32, 64, 64).get() * 8) + c.adder.cycles(32, 64);
        assert_eq!(mm1_cycles(&c, 32), expect);
    }

    #[test]
    fn mm2_mm3_equal_after_padding() {
        let c = cfg();
        for s in [4, 8, 16, 32] {
            assert_eq!(mm2_cycles(&c, s, s), mm3_cycles(&c, s, s));
        }
    }

    #[test]
    fn ffn_mms_dominate() {
        // §5.1.4: the FFN block ("larger matrix multiplication operations")
        // costs about double the MHA block; at the MM level MM5 > MM4.
        let c = cfg();
        assert!(mm5_cycles(&c, 32) > mm4_cycles(&c, 32));
        assert!(mm6_cycles(&c, 32) > mm4_cycles(&c, 32));
    }

    #[test]
    fn all_mm_cycles_monotone_in_s() {
        let c = cfg();
        for kind in MmKind::ALL {
            assert!(mm_cycles(kind, &c, 32) >= mm_cycles(kind, &c, 4), "{:?} not monotone", kind);
        }
    }

    #[test]
    fn integrity_checks_cost_cycles_but_off_is_free() {
        use asr_systolic::abft::IntegrityLevel;
        let off = cfg();
        let mut detect = cfg();
        detect.integrity = IntegrityLevel::Detect;
        for kind in MmKind::ALL {
            let base = mm_cycles(kind, &off, 32);
            let checked = mm_cycles(kind, &detect, 32);
            assert!(checked > base, "{:?}: ABFT pass must cost cycles", kind);
            // the checksum row rides the existing wave structure: well under
            // one extra wave-set per pass
            assert!(checked.get() < base.get() * 2, "{:?}: overhead out of range", kind);
        }
        // DetectAndRecompute budgets the same checksum pass; recompute cycles
        // are charged per detected tile at execution time, not statically.
        let mut dr = cfg();
        dr.integrity = IntegrityLevel::DetectAndRecompute;
        assert_eq!(mm_cycles(MmKind::Mm4, &dr, 32), mm_cycles(MmKind::Mm4, &detect, 32));
    }

    #[test]
    fn mm5_matches_shipped_decomposition() {
        // (s×256)·(256×512) per PSA + one adder pass.
        let c = cfg();
        let psa = c.psa_engine();
        assert_eq!(mm5_cycles(&c, 32), psa.cycles(32, 256, 512) + c.adder.cycles(32, 512));
    }
}
