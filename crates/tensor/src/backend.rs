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

/// Row-band backend over [`ops::matmul_parallel`] (the real CPU baseline
/// execution path; its bands run on the calling thread).
#[derive(Debug, Default, Clone, Copy)]
pub struct ParallelBackend;

impl MatMul for ParallelBackend {
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        ops::matmul_parallel(a, b)
    }
    fn name(&self) -> &'static str {
        "cpu-parallel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::assert_close;
    use crate::init;

    #[test]
    fn backends_agree() {
        let a = init::uniform(9, 33, -1.0, 1.0, 1);
        let b = init::uniform(33, 17, -1.0, 1.0, 2);
        let r = ReferenceBackend.matmul(&a, &b);
        let p = ParallelBackend.matmul(&a, &b);
        assert_close(&p, &r, 1e-4);
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(ReferenceBackend.name(), ParallelBackend.name());
    }

    #[test]
    fn trait_object_usable() {
        let backends: Vec<Box<dyn MatMul>> =
            vec![Box::new(ReferenceBackend), Box::new(ParallelBackend)];
        let a = Matrix::identity(3);
        for b in &backends {
            assert_eq!(b.matmul(&a, &a), a);
        }
    }
}
