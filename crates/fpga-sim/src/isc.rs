//! Inter-SLR communication (ISC) model.
//!
//! On the U50 only SLR0 has the HBM stacks attached; SLR1 reaches memory and
//! exchanges partial results through the inter-SLR AXI-stream interface
//! (paper §2.2.4, "HBM Communication with both SLRs"). The paper's schedules
//! are designed to *mitigate* this traffic (§4.6: "mitigating inter-SLR
//! communication") — the model here quantifies what each crossing costs so
//! the schedule's cross-SLR accumulations (MM6's final halves, the Add-Norm
//! concatenation) can be charged.

/// The inter-SLR AXI-stream link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IscSpec {
    /// Stream width in bytes per cycle (512-bit AXI-stream = 64 B).
    pub bytes_per_cycle: u64,
    /// Link clock, Hz.
    pub clock_hz: f64,
    /// Fixed handshake latency per transfer, cycles.
    pub setup_cycles: u64,
}

impl IscSpec {
    /// U50 preset: one 512-bit AXI-stream crossing at the 300 MHz kernel clock.
    pub fn u50() -> Self {
        IscSpec { bytes_per_cycle: 64, clock_hz: 300e6, setup_cycles: 16 }
    }

    /// Cycles to move `bytes` across the SLR boundary.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.setup_cycles + bytes.div_ceil(self.bytes_per_cycle)
    }

    /// Transfer time in seconds.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        self.transfer_cycles(bytes) as f64 / self.clock_hz
    }

    /// Sustained bandwidth, bytes/second.
    pub fn bandwidth(&self) -> f64 {
        self.bytes_per_cycle as f64 * self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u50_link_is_19_gb_per_s() {
        // 64 B/cycle at 300 MHz = 19.2 GB/s
        let isc = IscSpec::u50();
        assert!((isc.bandwidth() - 19.2e9).abs() < 1e6);
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(IscSpec::u50().transfer_cycles(0), 0);
    }

    #[test]
    fn small_transfer_dominated_by_setup() {
        let isc = IscSpec::u50();
        assert_eq!(isc.transfer_cycles(8), 16 + 1);
    }

    #[test]
    fn activation_crossing_is_microseconds() {
        // An s=32 x 512 f32 activation half (32 KB) crosses in ~1.7 us —
        // negligible against millisecond-scale blocks, which is exactly the
        // paper's design point.
        let isc = IscSpec::u50();
        let t = isc.transfer_time_s(32 * 512 * 4 / 2);
        assert!(t < 3e-6, "crossing took {} s", t);
        assert!(t > 0.5e-6);
    }

    #[test]
    fn cycles_monotone_in_bytes() {
        let isc = IscSpec::u50();
        assert!(isc.transfer_cycles(1 << 20) > isc.transfer_cycles(1 << 10));
    }
}
