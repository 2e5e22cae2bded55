//! Kernel clock: cycle counting and cycle ↔ wall-time conversion.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A number of kernel clock cycles.
///
/// Newtype over `u64` so cycle arithmetic cannot silently mix with byte
/// counts or nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Raw cycle count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Saturating subtraction (a stall of negative length is zero).
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two cycle counts.
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        assert!(self.0 >= rhs.0, "Cycles underflow: {} - {}", self.0, rhs.0);
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

/// A fixed-frequency kernel clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    /// Frequency in hertz.
    pub hz: f64,
}

impl Clock {
    /// Construct from a frequency in MHz.
    pub fn mhz(mhz: f64) -> Self {
        assert!(mhz > 0.0, "clock frequency must be positive");
        Clock { hz: mhz * 1e6 }
    }

    /// The paper's 300 MHz operating point (§5.1).
    pub fn u50_kernel() -> Self {
        Clock::mhz(300.0)
    }

    /// Duration of one cycle in seconds.
    pub fn period_s(&self) -> f64 {
        1.0 / self.hz
    }

    /// Convert a cycle count to seconds.
    pub fn to_seconds(&self, c: Cycles) -> f64 {
        c.0 as f64 * self.period_s()
    }

    /// Convert a cycle count to milliseconds.
    pub fn to_ms(&self, c: Cycles) -> f64 {
        self.to_seconds(c) * 1e3
    }

    /// Convert a duration in seconds to whole cycles (rounded up).
    pub fn from_seconds(&self, s: f64) -> Cycles {
        assert!(s >= 0.0, "negative duration");
        Cycles((s * self.hz).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles(10);
        let b = Cycles(3);
        assert_eq!(a + b, Cycles(13));
        assert_eq!(a - b, Cycles(7));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a * 4, Cycles(40));
        let total: Cycles = [a, b, Cycles(1)].into_iter().sum();
        assert_eq!(total, Cycles(14));
    }

    #[test]
    #[should_panic(expected = "Cycles underflow")]
    fn sub_underflow_panics() {
        let _ = Cycles(1) - Cycles(2);
    }

    #[test]
    fn clock_roundtrip_at_300mhz() {
        let clk = Clock::u50_kernel();
        assert!((clk.period_s() - 3.3333e-9).abs() < 1e-12);
        // 300_000 cycles at 300 MHz = 1 ms
        assert!((clk.to_ms(Cycles(300_000)) - 1.0).abs() < 1e-9);
        assert_eq!(clk.from_seconds(1e-3), Cycles(300_000));
    }

    #[test]
    fn from_seconds_rounds_up() {
        let clk = Clock::mhz(100.0); // 10 ns period
        assert_eq!(clk.from_seconds(25e-9), Cycles(3));
    }
}
