//! Device presets: the Alveo U50 and its two Super Logic Regions.

use crate::clock::Clock;
use crate::hbm::HbmSpec;
use crate::resources::ResourceVector;

/// Identity of one card in a multi-device pool.
///
/// The serving tier (`asr-accel::serve`) runs a pool of simulated cards and
/// needs a stable, orderable identity to route requests, attribute health
/// scores, and exclude a failed card from a request's failover attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(usize);

impl DeviceId {
    /// Identity of the `i`-th card in a pool.
    pub fn new(i: usize) -> DeviceId {
        DeviceId(i)
    }

    /// Numeric pool index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Identifier of a Super Logic Region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlrId {
    /// SLR0 — the die slice with the HBM stacks attached.
    Slr0,
    /// SLR1 — reachable from HBM only through the inter-SLR (ISC/AXI-stream) path.
    Slr1,
}

impl SlrId {
    /// Both SLRs in index order.
    pub const ALL: [SlrId; 2] = [SlrId::Slr0, SlrId::Slr1];

    /// Numeric index (0 or 1).
    pub fn index(self) -> usize {
        match self {
            SlrId::Slr0 => 0,
            SlrId::Slr1 => 1,
        }
    }

    /// The SLR with the given index.
    ///
    /// # Panics
    /// Panics if `i > 1` — the U50 has exactly two SLRs.
    pub fn from_index(i: usize) -> SlrId {
        match i {
            0 => SlrId::Slr0,
            1 => SlrId::Slr1,
            _ => panic!("no SLR{} on this device", i),
        }
    }

    /// The other SLR of the pair (the failover target).
    pub fn sibling(self) -> SlrId {
        match self {
            SlrId::Slr0 => SlrId::Slr1,
            SlrId::Slr1 => SlrId::Slr0,
        }
    }

    /// Whether HBM is directly attached (true only for SLR0 on the U50).
    pub fn has_direct_hbm(self) -> bool {
        matches!(self, SlrId::Slr0)
    }
}

/// A whole accelerator card.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Marketing name, e.g. "Alveo U50".
    pub name: String,
    /// Fabric resources per SLR (the U50 splits them approximately equally).
    pub slr_resources: [ResourceVector; 2],
    /// Kernel clock.
    pub clock: Clock,
    /// HBM subsystem.
    pub hbm: HbmSpec,
    /// Board power draw under load, in watts (for energy-efficiency accounting).
    pub board_power_w: f64,
}

impl DeviceSpec {
    /// Total fabric resources across both SLRs.
    pub fn total_resources(&self) -> ResourceVector {
        self.slr_resources[0] + self.slr_resources[1]
    }

    /// Resources of one SLR.
    pub fn slr(&self, id: SlrId) -> ResourceVector {
        self.slr_resources[id.index()]
    }
}

/// The Alveo U50 data-center accelerator card (paper §2.2.4).
///
/// Totals from the thesis: 2688 BRAM_18K, 5952 DSP slices, 1,743,360 FFs (the
/// thesis's "1743K registers"), 871,680 LUTs; split evenly between the two
/// SLRs. 8 GB HBM2 over 32 pseudo-channels; typical 75 W board power.
pub fn alveo_u50() -> DeviceSpec {
    let half = ResourceVector::new(2688 / 2, 5952 / 2, 1_743_360 / 2, 871_680 / 2);
    DeviceSpec {
        name: "Alveo U50".to_string(),
        slr_resources: [half, half],
        clock: Clock::u50_kernel(),
        hbm: HbmSpec::u50(),
        board_power_w: 75.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u50_totals_match_paper_table_5_2() {
        let dev = alveo_u50();
        let total = dev.total_resources();
        assert_eq!(total, ResourceVector::new(2688, 5952, 1_743_360, 871_680));
    }

    #[test]
    fn slrs_split_evenly() {
        let dev = alveo_u50();
        assert_eq!(dev.slr(SlrId::Slr0), dev.slr(SlrId::Slr1));
    }

    #[test]
    fn only_slr0_has_hbm() {
        assert!(SlrId::Slr0.has_direct_hbm());
        assert!(!SlrId::Slr1.has_direct_hbm());
    }

    #[test]
    fn clock_is_300mhz() {
        assert!((alveo_u50().clock.hz - 300e6).abs() < 1.0);
    }

    #[test]
    fn device_ids_order_and_render() {
        assert!(DeviceId::new(0) < DeviceId::new(3));
        assert_eq!(DeviceId::new(2).index(), 2);
        assert_eq!(DeviceId::new(1).to_string(), "dev1");
    }

    #[test]
    fn slr_indices() {
        assert_eq!(SlrId::Slr0.index(), 0);
        assert_eq!(SlrId::Slr1.index(), 1);
        assert_eq!(SlrId::ALL.len(), 2);
    }
}
