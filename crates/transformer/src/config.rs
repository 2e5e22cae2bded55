//! Model hyper-parameters.

/// Transformer shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Encoder layers in the stack (paper: 12).
    pub n_encoders: usize,
    /// Decoder layers in the stack (paper: 6).
    pub n_decoders: usize,
    /// Embedding width `d_model` (paper: 512).
    pub d_model: usize,
    /// Attention heads `h` (paper: 8).
    pub n_heads: usize,
    /// FFN hidden width `d_ff` (paper: 2048).
    pub d_ff: usize,
    /// Output vocabulary size (character set).
    pub vocab_size: usize,
}

impl TransformerConfig {
    /// The thesis's deployed model: ESPnet `transformer_base` on LibriSpeech.
    pub fn paper_base() -> Self {
        TransformerConfig {
            n_encoders: 12,
            n_decoders: 6,
            d_model: 512,
            n_heads: 8,
            d_ff: 2048,
            vocab_size: 31,
        }
    }

    /// A small configuration for fast unit tests — same structure, tiny dims.
    pub fn tiny() -> Self {
        TransformerConfig {
            n_encoders: 2,
            n_decoders: 1,
            d_model: 32,
            n_heads: 4,
            d_ff: 64,
            vocab_size: 31,
        }
    }

    /// Per-head dimensionality `d_k = d_model / h` (paper: 64).
    pub fn d_k(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Attention scaling factor `1/sqrt(d_k)` (Eq 3.1).
    pub fn attention_scale(&self) -> f32 {
        1.0 / (self.d_k() as f32).sqrt()
    }

    /// Check that the configuration is internally consistent.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.n_encoders < 1 {
            return Err("need at least one encoder".into());
        }
        if self.n_heads < 1 {
            return Err("need at least one head".into());
        }
        if self.d_model < 1 || self.d_ff < 1 || self.vocab_size < 4 {
            return Err("model dimensions must be positive (vocab >= 4)".into());
        }
        if !self.d_model.is_multiple_of(self.n_heads) {
            return Err(format!(
                "d_model {} not divisible by {} heads",
                self.d_model, self.n_heads
            ));
        }
        Ok(())
    }

    /// Panic unless the configuration is internally consistent.
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            panic!("{}", msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_base_matches_thesis() {
        let c = TransformerConfig::paper_base();
        assert_eq!(c.n_encoders, 12);
        assert_eq!(c.n_decoders, 6);
        assert_eq!(c.d_model, 512);
        assert_eq!(c.n_heads, 8);
        assert_eq!(c.d_k(), 64);
        assert_eq!(c.d_ff, 2048);
        c.validate();
    }

    #[test]
    fn attention_scale_is_eighth() {
        // 1/sqrt(64) = 0.125
        assert!((TransformerConfig::paper_base().attention_scale() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn tiny_is_valid() {
        TransformerConfig::tiny().validate();
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_heads_panics() {
        let mut c = TransformerConfig::tiny();
        c.n_heads = 5;
        c.validate();
    }
}
