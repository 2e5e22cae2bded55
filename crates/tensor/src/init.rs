//! Deterministic seeded weight/input initialisation.
//!
//! The paper uses ESPnet-trained LibriSpeech weights; we have no checkpoint, so
//! every experiment draws weights from a seeded ChaCha8 stream. Determinism
//! matters more than distribution here — the accelerator's latency is
//! shape-dependent only — but Xavier-style scaling keeps activations in a
//! numerically reasonable range through 18 layers.

use crate::matrix::Matrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Uniform entries in `[lo, hi)` from seed.
///
/// Entry `i` is `rng.gen_range(lo..hi)` of the `i`-th stream word: the
/// words are drawn in bulk and put through the same expression, 24 high
/// bits scaled to `[0, 1)`, then `lo + u * (hi - lo)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> Matrix {
    assert!(lo < hi, "uniform: empty range [{}, {})", lo, hi);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (scale, span) = (1.0 / (1u32 << 24) as f32, hi - lo);
    let mut data = vec![0.0; rows * cols];
    let mut words = [0u32; 256];
    for chunk in data.chunks_mut(words.len()) {
        let words = &mut words[..chunk.len()];
        rng.fill_u32(words);
        for (x, &w) in chunk.iter_mut().zip(words.iter()) {
            *x = lo + ((w >> 8) as f32 * scale) * span;
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// Xavier/Glorot-uniform init: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier(rows: usize, cols: usize, seed: u64) -> Matrix {
    let a = (6.0 / (rows as f32 + cols as f32)).sqrt();
    uniform(rows, cols, -a, a, seed)
}

/// Standard-normal entries (Box–Muller over the seeded stream).
pub fn normal(rows: usize, cols: usize, mean: f32, std: f32, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut spare: Option<f32> = None;
    Matrix::from_fn(rows, cols, |_, _| {
        if let Some(z) = spare.take() {
            return mean + std * z;
        }
        let (u1, u2): (f32, f32) = (rng.gen_range(1e-10..1.0f32), rng.gen());
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        spare = Some(r * theta.sin());
        mean + std * r * theta.cos()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::crc32;

    /// The reference draw: one `gen_range` call per entry.
    fn uniform_per_element(n: usize, lo: f32, hi: f32, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }

    /// CRC-32 of the entries' little-endian bit patterns.
    fn bits_crc(m: &Matrix) -> u32 {
        let bytes: Vec<u8> = m.as_slice().iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
        crc32(&bytes)
    }

    #[test]
    fn bulk_uniform_is_the_per_element_draw_bit_for_bit() {
        // Lengths around the 256-word refill, which is also the bulk chunk.
        for n in [1, 63, 64, 65, 255, 256, 257, 4099] {
            for (lo, hi, seed) in [(-1.0, 1.0, 11), (0.9, 1.1, 12), (-0.05, 0.05, 13)] {
                let bulk = uniform(1, n, lo, hi, seed);
                let want = uniform_per_element(n, lo, hi, seed);
                let same =
                    bulk.as_slice().iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "n {n}, [{lo}, {hi}), seed {seed}");
            }
        }
    }

    #[test]
    fn seeded_matrices_keep_their_pinned_bits() {
        assert_eq!(bits_crc(&xavier(512, 64, 7)), 0x34ff_cfd8);
        assert_eq!(bits_crc(&xavier(512, 2048, 8)), 0xbadd_bf55);
        assert_eq!(bits_crc(&xavier(1, 64, 9)), 0x39d1_3339);
        assert_eq!(bits_crc(&uniform(3, 5, -1.0, 1.0, 11)), 0xd410_6e2f);
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = uniform(4, 4, -1.0, 1.0, 11);
        let b = uniform(4, 4, -1.0, 1.0, 11);
        let c = uniform(4, 4, -1.0, 1.0, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_bounds() {
        let m = uniform(32, 32, -0.5, 0.25, 3);
        assert!(m.as_slice().iter().all(|&x| (-0.5..0.25).contains(&x)));
    }

    #[test]
    fn xavier_scale_shrinks_with_fanin() {
        let big = xavier(512, 2048, 1);
        let small = xavier(4, 4, 1);
        assert!(big.max_abs() < small.max_abs());
        assert!(big.max_abs() <= (6.0f32 / 2560.0).sqrt() + 1e-6);
    }

    #[test]
    fn normal_moments_are_roughly_right() {
        let m = normal(100, 100, 2.0, 0.5, 77);
        let n = m.len() as f32;
        let mean = m.sum() / n;
        let var = m.as_slice().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
        assert!((mean - 2.0).abs() < 0.05, "mean {}", mean);
        assert!((var - 0.25).abs() < 0.05, "var {}", var);
    }
}
