//! High-Bandwidth Memory transfer model.
//!
//! The U50 exposes 8 GB of HBM2 over 32 pseudo-channels. A kernel's M-AXI
//! port reads weights from one (A1/A2) or two (A3) channels in burst mode.
//! The model is a classic latency + size/bandwidth pipe per channel; reads
//! issued to distinct channels proceed in parallel (paper §5.1.6: "Each
//! kernel loads weights from 2 HBM channels in parallel ... to hide the
//! communication latency").
//!
//! The *effective* per-channel bandwidth is a calibration constant: raw HBM2
//! runs at ~14.4 GB/s per pseudo-channel, but a 512-bit M-AXI burst engine at
//! 300 MHz sustains far less. `asr-accel::calib` picks the value that puts the
//! Fig 5.2 load/compute crossover at s ≈ 18.

/// HBM subsystem description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmSpec {
    /// Number of pseudo-channels.
    pub channels: u32,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Effective sustained read bandwidth of one pseudo-channel through a
    /// kernel M-AXI port, in bytes/second.
    pub channel_bw_bytes_per_s: f64,
    /// Fixed per-transfer latency (address setup + first-beat latency), seconds.
    pub transfer_latency_s: f64,
}

impl HbmSpec {
    /// Alveo U50 preset: 32 pseudo-channels × 256 MB.
    ///
    /// The effective channel bandwidth is set so one encoder's 12.6 MB weight
    /// set loads in the ~2.4 ms the paper's Fig 5.2 implies (see
    /// `asr-accel::calib` for the derivation): ~2.65 GB/s per channel, two
    /// channels per kernel.
    pub fn u50() -> Self {
        HbmSpec {
            channels: 32,
            capacity_bytes: 8 * 1024 * 1024 * 1024,
            channel_bw_bytes_per_s: 2.65e9,
            transfer_latency_s: 2.0e-6,
        }
    }

    /// Time to read `bytes` through `parallel_channels` channels, seconds.
    ///
    /// The transfer is striped evenly across the channels; the fixed latency
    /// is paid once (channels issue concurrently).
    pub fn read_time_s(&self, bytes: u64, parallel_channels: u32) -> f64 {
        assert!(parallel_channels >= 1, "need at least one channel");
        assert!(
            parallel_channels <= self.channels,
            "requested {} channels but device has {}",
            parallel_channels,
            self.channels
        );
        if bytes == 0 {
            return 0.0;
        }
        let per_channel = (bytes as f64) / (parallel_channels as f64);
        self.transfer_latency_s + per_channel / self.channel_bw_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_channels_load_faster() {
        let hbm = HbmSpec::u50();
        let one = hbm.read_time_s(12_600_000, 1);
        let two = hbm.read_time_s(12_600_000, 2);
        let four = hbm.read_time_s(12_600_000, 4);
        assert!(two < one && four < two);
        // striping is nearly linear (latency is tiny versus transfer time)
        assert!((one / two - 2.0).abs() < 0.01);
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(HbmSpec::u50().read_time_s(0, 1), 0.0);
    }

    #[test]
    fn encoder_weight_load_is_millisecond_scale() {
        // One encoder = ~12.6 MB of f32 weights; through 2 channels this must
        // land in the low-millisecond range the paper's Fig 5.2 shows.
        let t = HbmSpec::u50().read_time_s(12_600_000, 2);
        assert!(t > 1.0e-3 && t < 4.0e-3, "load time {} s out of range", t);
    }

    #[test]
    #[should_panic(expected = "need at least one channel")]
    fn zero_channels_panics() {
        let _ = HbmSpec::u50().read_time_s(1, 0);
    }

    #[test]
    #[should_panic(expected = "but device has")]
    fn too_many_channels_panics() {
        let _ = HbmSpec::u50().read_time_s(1, 33);
    }

    #[test]
    fn capacity_is_8gb() {
        assert_eq!(HbmSpec::u50().capacity_bytes, 8 * 1024 * 1024 * 1024);
    }
}
