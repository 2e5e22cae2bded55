//! Pluggable matmul backend.
//!
//! `asr-transformer` computes the model through this trait so the very same
//! forward pass can run on the reference CPU kernels or on the systolic-array
//! functional units of `asr-systolic` (which is how we check that the
//! accelerator's dataflow is numerically faithful).

use crate::matrix::Matrix;
use crate::ops;

/// A matrix-multiplication engine.
pub trait MatMul: Send + Sync {
    /// Compute `a * b`.
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix;

    /// Human-readable backend name (for reports and bench labels).
    fn name(&self) -> &'static str;
}

/// Single-threaded cache-blocked reference backend.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReferenceBackend;

impl MatMul for ReferenceBackend {
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        ops::matmul_blocked(a, b)
    }
    fn name(&self) -> &'static str {
        "reference-blocked"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_usable() {
        let backend: Box<dyn MatMul> = Box::new(ReferenceBackend);
        let a = Matrix::identity(3);
        assert_eq!(backend.matmul(&a, &a), a);
    }
}
