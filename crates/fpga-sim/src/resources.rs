//! FPGA resource vectors: BRAM_18K, DSP slices, flip-flops, LUTs.
//!
//! The paper's design-space section (§5.1.4) is a resource story — the design
//! is LUT-bound, DSP utilization is deliberately low — so resource accounting
//! is first-class here: vectors add, compare against budgets, and report the
//! utilization percentages of Table 5.2.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// A bundle of the four primary FPGA fabric resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceVector {
    /// 18 Kb block-RAM units.
    pub bram_18k: u64,
    /// DSP48 slices.
    pub dsp: u64,
    /// Flip-flops.
    pub ff: u64,
    /// Look-up tables.
    pub lut: u64,
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector { bram_18k: 0, dsp: 0, ff: 0, lut: 0 };

    /// Construct from the four counts.
    pub fn new(bram_18k: u64, dsp: u64, ff: u64, lut: u64) -> Self {
        Self { bram_18k, dsp, ff, lut }
    }

    /// True when every component fits inside `budget`.
    pub fn fits_within(&self, budget: &ResourceVector) -> bool {
        self.bram_18k <= budget.bram_18k
            && self.dsp <= budget.dsp
            && self.ff <= budget.ff
            && self.lut <= budget.lut
    }

    /// Component-wise utilization of `self` against `budget`, in percent.
    ///
    /// Returns `(bram%, dsp%, ff%, lut%)`.
    pub fn utilization_pct(&self, budget: &ResourceVector) -> (f64, f64, f64, f64) {
        fn pct(used: u64, avail: u64) -> f64 {
            if avail == 0 {
                if used == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                100.0 * used as f64 / avail as f64
            }
        }
        (
            pct(self.bram_18k, budget.bram_18k),
            pct(self.dsp, budget.dsp),
            pct(self.ff, budget.ff),
            pct(self.lut, budget.lut),
        )
    }

    /// The most-utilized component against `budget` — the binding constraint.
    pub fn binding_constraint(&self, budget: &ResourceVector) -> (&'static str, f64) {
        let (b, d, f, l) = self.utilization_pct(budget);
        let mut best = ("BRAM_18K", b);
        for cand in [("DSP", d), ("FF", f), ("LUT", l)] {
            if cand.1 > best.1 {
                best = cand;
            }
        }
        best
    }

    /// Checked subtraction of an allocation from a remaining budget.
    pub fn checked_sub(&self, rhs: &ResourceVector) -> Option<ResourceVector> {
        Some(ResourceVector {
            bram_18k: self.bram_18k.checked_sub(rhs.bram_18k)?,
            dsp: self.dsp.checked_sub(rhs.dsp)?,
            ff: self.ff.checked_sub(rhs.ff)?,
            lut: self.lut.checked_sub(rhs.lut)?,
        })
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            bram_18k: self.bram_18k + rhs.bram_18k,
            dsp: self.dsp + rhs.dsp,
            ff: self.ff + rhs.ff,
            lut: self.lut + rhs.lut,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for ResourceVector {
    type Output = ResourceVector;
    fn mul(self, k: u64) -> ResourceVector {
        ResourceVector {
            bram_18k: self.bram_18k * k,
            dsp: self.dsp * k,
            ff: self.ff * k,
            lut: self.lut * k,
        }
    }
}

impl Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> ResourceVector {
        iter.fold(ResourceVector::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BRAM_18K={} DSP={} FF={} LUT={}", self.bram_18k, self.dsp, self.ff, self.lut)
    }
}

/// An allocation tracker over a fixed budget: allocations fail rather than
/// silently over-subscribe (the "unsynthesizable design" failure mode the
/// paper mentions when pushing DSP utilization).
#[derive(Debug, Clone)]
pub struct ResourceBudget {
    total: ResourceVector,
    used: ResourceVector,
}

/// Error returned when an allocation does not fit the remaining budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverSubscribed {
    /// The allocation that failed.
    pub requested: ResourceVector,
    /// Budget remaining at the time of the request.
    pub remaining: ResourceVector,
}

impl fmt::Display for OverSubscribed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resource over-subscription: requested [{}] but only [{}] remain",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for OverSubscribed {}

impl ResourceBudget {
    /// Fresh budget of `total` resources.
    pub fn new(total: ResourceVector) -> Self {
        Self { total, used: ResourceVector::ZERO }
    }

    /// Try to allocate `req`; on success the budget shrinks.
    pub fn allocate(&mut self, req: ResourceVector) -> Result<(), OverSubscribed> {
        let after = self.used + req;
        if after.fits_within(&self.total) {
            self.used = after;
            Ok(())
        } else {
            Err(OverSubscribed { requested: req, remaining: self.remaining() })
        }
    }

    /// Resources still available.
    pub fn remaining(&self) -> ResourceVector {
        self.total.checked_sub(&self.used).expect("used never exceeds total")
    }

    /// Resources allocated so far.
    pub fn used(&self) -> ResourceVector {
        self.used
    }

    /// Total budget.
    pub fn total(&self) -> ResourceVector {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(b: u64, d: u64, f: u64, l: u64) -> ResourceVector {
        ResourceVector::new(b, d, f, l)
    }

    #[test]
    fn add_and_scale() {
        let a = rv(1, 2, 3, 4);
        let b = rv(10, 20, 30, 40);
        assert_eq!(a + b, rv(11, 22, 33, 44));
        assert_eq!(a * 3, rv(3, 6, 9, 12));
        let s: ResourceVector = [a, a, a].into_iter().sum();
        assert_eq!(s, a * 3);
    }

    #[test]
    fn fits_is_componentwise() {
        let budget = rv(10, 10, 10, 10);
        assert!(rv(10, 10, 10, 10).fits_within(&budget));
        assert!(!rv(11, 0, 0, 0).fits_within(&budget));
        assert!(!rv(0, 0, 0, 11).fits_within(&budget));
    }

    #[test]
    fn utilization_matches_table_5_2_shape() {
        // Paper Table 5.2: used 1202/1348/1191892/765828 of 2688/5952/1743360/871680.
        let used = rv(1202, 1348, 1_191_892, 765_828);
        let avail = rv(2688, 5952, 1_743_360, 871_680);
        let (b, d, f, l) = used.utilization_pct(&avail);
        assert!((b - 44.72).abs() < 0.1);
        assert!((d - 22.65).abs() < 0.1);
        assert!((f - 68.37).abs() < 0.1);
        assert!((l - 87.86).abs() < 0.1);
        // The paper's stated constraint: the design is LUT-bound.
        assert_eq!(used.binding_constraint(&avail).0, "LUT");
    }

    #[test]
    fn budget_allocates_until_exhausted() {
        let mut b = ResourceBudget::new(rv(4, 4, 4, 4));
        assert!(b.allocate(rv(2, 2, 2, 2)).is_ok());
        assert!(b.allocate(rv(2, 2, 2, 2)).is_ok());
        let err = b.allocate(rv(1, 0, 0, 0)).unwrap_err();
        assert_eq!(err.remaining, ResourceVector::ZERO);
        assert_eq!(b.used(), rv(4, 4, 4, 4));
    }

    #[test]
    fn failed_allocation_leaves_budget_unchanged() {
        let mut b = ResourceBudget::new(rv(4, 4, 4, 4));
        b.allocate(rv(1, 1, 1, 1)).unwrap();
        let before = b.remaining();
        assert!(b.allocate(rv(100, 0, 0, 0)).is_err());
        assert_eq!(b.remaining(), before);
    }

    #[test]
    fn checked_sub_none_on_underflow() {
        assert!(rv(1, 1, 1, 1).checked_sub(&rv(2, 0, 0, 0)).is_none());
        assert_eq!(rv(3, 3, 3, 3).checked_sub(&rv(1, 2, 3, 0)), Some(rv(2, 1, 0, 3)));
    }

    #[test]
    fn zero_budget_utilization() {
        let (b, ..) = ResourceVector::ZERO.utilization_pct(&ResourceVector::ZERO);
        assert_eq!(b, 0.0);
    }
}
