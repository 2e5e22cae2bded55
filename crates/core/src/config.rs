//! Accelerator configuration: the knobs Chapter 4 calls out as flexible
//! ("we can appropriately determine the number and the dimensions of the
//! systolic arrays ... providing scalability on the parallelism front").

use crate::calib;
use crate::error::AccelError;
use asr_fpga_sim::device::{alveo_u50, DeviceSpec};
use asr_systolic::abft::IntegrityLevel;
use asr_systolic::adder::PipelinedAdder;
use asr_systolic::psa::{Psa, PsaConfig};
use asr_tensor::WeightEncoding;
use asr_transformer::TransformerConfig;

/// Full accelerator configuration.
#[derive(Debug, Clone)]
pub struct AccelConfig {
    /// Target device.
    pub device: DeviceSpec,
    /// PSA geometry and unroll penalty.
    pub psa: PsaConfig,
    /// PSAs placed on each of the two SLRs; the pool is twice this
    /// ([`Self::n_psas`]).
    pub psas_per_slr: usize,
    /// The per-PSA pipelined adder.
    pub adder: PipelinedAdder,
    /// Attention heads computed concurrently (Table 5.3 row 1 = 8); they
    /// share the pool evenly ([`Self::psas_per_head`]).
    pub parallel_heads: usize,
    /// Model the accelerator serves.
    pub model: TransformerConfig,
    /// Maximum (padded) sequence length the bitstream was built for.
    pub max_seq_len: usize,
    /// Weight-stripe codec the design streams over HBM
    /// ([`asr_tensor::encoding`], DESIGN.md §16). Defaults to
    /// [`WeightEncoding::Dense`], which reproduces the paper's byte
    /// traffic exactly; every other encoding shrinks `LoadStripe` bytes
    /// through [`Self::encoded_bytes`].
    pub encoding: WeightEncoding,
    /// Silent-data-corruption defense level: CRC checks on weight loads and
    /// ABFT checksums on PSA matmuls (DESIGN.md §9). Defaults to
    /// [`IntegrityLevel::Off`], which reproduces the paper's unprotected
    /// datapath bit-for-bit.
    pub integrity: IntegrityLevel,
    /// Version of the weight set flashed on the device. Purely an identity
    /// tag — it never changes timing — but every lowered `LoadStripe`,
    /// resident stripe, and checkpoint carries it, so work banked under one
    /// weight set can never be silently reused under another (DESIGN.md
    /// §14 rolling upgrades).
    pub weight_version: u64,
}

impl AccelConfig {
    /// The shipped design: Alveo U50, eight 2×64 PSAs (4/SLR), 8 parallel
    /// heads with 1 PSA each, built for `s = 32`.
    pub fn paper_default() -> Self {
        AccelConfig {
            device: alveo_u50(),
            psa: calib::paper_psa(),
            psas_per_slr: calib::PSAS_PER_SLR,
            adder: PipelinedAdder::paper_default(),
            parallel_heads: 8,
            model: TransformerConfig::paper_base(),
            max_seq_len: 32,
            encoding: WeightEncoding::Dense,
            integrity: IntegrityLevel::Off,
            weight_version: 0,
        }
    }

    /// A PSA engine built from this configuration.
    pub fn psa_engine(&self) -> Psa {
        Psa::new(self.psa)
    }

    /// Total PSA blocks: [`Self::psas_per_slr`] on each of the two SLRs.
    pub fn n_psas(&self) -> usize {
        2 * self.psas_per_slr
    }

    /// PSAs each concurrent head gets: the pool shared evenly by
    /// [`Self::parallel_heads`] (Table 5.3 row 1 = 1).
    pub fn psas_per_head(&self) -> usize {
        self.n_psas() / self.parallel_heads
    }

    /// Check that the configuration is internally consistent.
    ///
    /// Errors instead of panicking so the host can refuse a bad
    /// configuration (or a bad degraded reconfiguration) gracefully.
    pub fn validate(&self) -> Result<(), AccelError> {
        self.model.try_validate().map_err(AccelError::Config)?;
        if self.psas_per_slr < 1 {
            return Err(AccelError::Config("need at least one PSA".into()));
        }
        if self.psa.rows < 1 || self.psa.cols < 1 {
            return Err(AccelError::Config(format!(
                "a {}x{} PSA is empty",
                self.psa.rows, self.psa.cols
            )));
        }
        if self.parallel_heads < 1 || self.parallel_heads > self.model.n_heads {
            return Err(AccelError::Config(format!(
                "parallel_heads {} outside 1..={}",
                self.parallel_heads, self.model.n_heads
            )));
        }
        if !self.n_psas().is_multiple_of(self.parallel_heads) {
            return Err(AccelError::Config(format!(
                "{} parallel heads cannot share the {}-PSA pool evenly",
                self.parallel_heads,
                self.n_psas()
            )));
        }
        if !self.model.n_heads.is_multiple_of(self.parallel_heads) {
            return Err(AccelError::Config(format!(
                "head count {} must divide into parallel groups of {}",
                self.model.n_heads, self.parallel_heads
            )));
        }
        if self.max_seq_len < 1 {
            return Err(AccelError::Config("max_seq_len must be at least 1".into()));
        }
        self.encoding.validate().map_err(AccelError::Config)?;
        Ok(())
    }

    /// HBM bytes `weights` logical weights move under this configuration's
    /// stripe encoding — the single byte-count helper every layer (the
    /// phase lists, the analytic walker, serve capacity) prices weight
    /// traffic through instead of re-deriving it locally.
    pub fn encoded_bytes(&self, weights: u64) -> u64 {
        self.encoding.encoded_len(weights)
    }

    /// Number of sequential head passes the MHA schedule needs.
    pub fn head_passes(&self) -> usize {
        self.model.n_heads / self.parallel_heads
    }

    /// Effective sequence length after padding (the bitstream computes at the
    /// fixed built length, §5.1.5: "For a given input sequence of length i,
    /// where i < s, the input is padded up to s"). An input longer than the
    /// built length is refused with [`AccelError::InvalidInput`].
    pub fn padded_seq_len(&self, input_len: usize) -> Result<usize, AccelError> {
        if input_len > self.max_seq_len {
            return Err(AccelError::InvalidInput { input_len, max_seq_len: self.max_seq_len });
        }
        Ok(self.max_seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let c = AccelConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.n_psas(), 8);
        assert_eq!(c.psas_per_slr, 4);
        assert_eq!(c.head_passes(), 1);
    }

    #[test]
    fn dse_variants_are_valid() {
        for (heads, per_head) in [(8, 1), (4, 2), (2, 4), (1, 8)] {
            let mut c = AccelConfig::paper_default();
            c.parallel_heads = heads;
            c.validate().unwrap();
            assert_eq!(c.psas_per_head(), per_head);
            assert_eq!(c.head_passes(), 8 / heads);
        }
    }

    #[test]
    fn a_pool_the_heads_cannot_split_is_a_config_error() {
        let mut c = AccelConfig::paper_default();
        c.psas_per_slr = 3;
        c.parallel_heads = 4;
        let err = c.validate().unwrap_err();
        assert!(matches!(&err, AccelError::Config(msg) if msg.contains("6-PSA pool")), "{}", err);
    }

    #[test]
    fn a_zero_dimension_psa_is_a_config_error() {
        for (rows, cols) in [(0, 64), (2, 0)] {
            let mut c = AccelConfig::paper_default();
            c.psa.rows = rows;
            c.psa.cols = cols;
            let err = c.validate().unwrap_err();
            let want = format!("a {rows}x{cols} PSA is empty");
            assert!(matches!(&err, AccelError::Config(msg) if *msg == want), "{}", err);
        }
    }

    #[test]
    fn checked_padding_errors_instead_of_panicking() {
        let c = AccelConfig::paper_default();
        assert_eq!(c.padded_seq_len(4).unwrap(), 32);
        assert!(matches!(
            c.padded_seq_len(33),
            Err(AccelError::InvalidInput { input_len: 33, max_seq_len: 32 })
        ));
    }

    #[test]
    fn padding_goes_to_built_length() {
        let c = AccelConfig::paper_default();
        assert_eq!(c.padded_seq_len(4).unwrap(), 32);
        assert_eq!(c.padded_seq_len(32).unwrap(), 32);
    }

    #[test]
    fn encoded_bytes_default_dense_is_the_raw_product() {
        let c = AccelConfig::paper_default();
        assert_eq!(c.encoding, WeightEncoding::Dense);
        assert_eq!(c.encoded_bytes(1000), 4000);
        let mut q = c.clone();
        q.encoding = WeightEncoding::Int8;
        assert_eq!(q.encoded_bytes(1000), 1000);
    }

    #[test]
    fn bad_encoding_parameters_are_config_errors() {
        let mut c = AccelConfig::paper_default();
        c.encoding = WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 150 };
        let err = c.validate().unwrap_err();
        assert!(matches!(&err, AccelError::Config(msg) if msg.contains("occupancy")), "{}", err);
        c.encoding = WeightEncoding::BlockCirculant { block: 1 };
        assert!(c.validate().is_err());
        c.encoding = WeightEncoding::BlockCirculant { block: 8 };
        c.validate().unwrap();
    }
}
