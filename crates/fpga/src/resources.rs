//! FPGA resource accounting — the substrate behind Table III.
//!
//! §V-c: the U280 "features an FPGA chip with 1.3 million LUTs, 2.72
//! million registers, 9,024 DSP slices, 2,016 Block RAMs … and 960
//! UltraRAMs", divided into three SLRs; "the SLR region 0 consists of
//! 355K LUTs, 725K CLB register, 490 Block RAM Tile, 320 UltraRAM, and
//! 2733 DSPs".

use std::ops::{Add, AddAssign, Sub};

/// A bundle of FPGA resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceVec {
    /// CLB look-up tables.
    pub luts: u64,
    /// CLB registers (flip-flops).
    pub(crate) regs: u64,
    /// Block RAM tiles.
    pub bram: u64,
    /// UltraRAM blocks.
    pub uram: u64,
    /// DSP slices.
    pub(crate) dsp: u64,
}

/// Whole-chip resources of the XCU280 (§V-c).
pub const U280_TOTAL: ResourceVec = ResourceVec {
    luts: 1_304_000,
    regs: 2_720_000,
    bram: 2_016,
    uram: 960,
    dsp: 9_024,
};

/// SLR 0 — the region hosting the DFX partition (§IV-C, §V-c).
pub const SLR0: ResourceVec = ResourceVec {
    luts: 355_000,
    regs: 725_000,
    bram: 490,
    uram: 320,
    dsp: 2_733,
};

impl ResourceVec {
    /// Does `self` fit inside `budget`?
    pub(crate) fn fits_in(&self, budget: &ResourceVec) -> bool {
        self.luts <= budget.luts
            && self.regs <= budget.regs
            && self.bram <= budget.bram
            && self.uram <= budget.uram
            && self.dsp <= budget.dsp
    }

    /// Percentage utilization of each class against `total`, as
    /// (luts, regs, bram, uram, dsp) in percent.
    pub fn percent_of(&self, total: &ResourceVec) -> (f64, f64, f64, f64, f64) {
        let pct = |a: u64, b: u64| {
            if b == 0 {
                0.0
            } else {
                100.0 * a as f64 / b as f64
            }
        };
        (
            pct(self.luts, total.luts),
            pct(self.regs, total.regs),
            pct(self.bram, total.bram),
            pct(self.uram, total.uram),
            pct(self.dsp, total.dsp),
        )
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, o: ResourceVec) -> ResourceVec {
        ResourceVec {
            luts: self.luts + o.luts,
            regs: self.regs + o.regs,
            bram: self.bram + o.bram,
            uram: self.uram + o.uram,
            dsp: self.dsp + o.dsp,
        }
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, o: ResourceVec) {
        *self = *self + o;
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    fn sub(self, o: ResourceVec) -> ResourceVec {
        ResourceVec {
            luts: self.luts.saturating_sub(o.luts),
            regs: self.regs.saturating_sub(o.regs),
            bram: self.bram.saturating_sub(o.bram),
            uram: self.uram.saturating_sub(o.uram),
            dsp: self.dsp.saturating_sub(o.dsp),
        }
    }
}

/// Table III, upper half: static-region accelerators (utilization
/// relative to the full U280).
pub const STRAW_STATIC: ResourceVec = ResourceVec {
    luts: 78_555,
    regs: 224_000,
    bram: 190,
    uram: 26,
    dsp: 0,
};

/// Straw2 static accelerator (Table III).
pub const STRAW2_STATIC: ResourceVec = ResourceVec {
    luts: 82_334,
    regs: 313_000,
    bram: 165,
    uram: 35,
    dsp: 0,
};

/// Reed-Solomon encoder static accelerator (Table III).
pub const RS_ENCODER_STATIC: ResourceVec = ResourceVec {
    luts: 92_355,
    regs: 582_000,
    bram: 215,
    uram: 52,
    dsp: 0,
};

/// Table III, lower half: reconfigurable modules in SLR0 (utilization
/// relative to SLR0).  RM 1 = List bucket.
pub(crate) const RM_LIST: ResourceVec = ResourceVec {
    luts: 52_335,
    regs: 92_456,
    bram: 85,
    uram: 22,
    dsp: 0,
};

/// RM 2 = Tree bucket (LUT count reconstructed from the 15.93 % figure).
pub(crate) const RM_TREE: ResourceVec = ResourceVec {
    luts: 56_551,
    regs: 97_523,
    bram: 82,
    uram: 26,
    dsp: 0,
};

/// RM 3 = Uniform bucket.
pub(crate) const RM_UNIFORM: ResourceVec = ResourceVec {
    luts: 62_456,
    regs: 112_000,
    bram: 78,
    uram: 29,
    dsp: 0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_accelerators_fit_the_chip() {
        let total = STRAW_STATIC + STRAW2_STATIC + RS_ENCODER_STATIC;
        assert!(total.fits_in(&U280_TOTAL));
    }

    #[test]
    fn each_rm_fits_slr0() {
        for rm in [RM_LIST, RM_TREE, RM_UNIFORM] {
            assert!(rm.fits_in(&SLR0));
        }
    }

    #[test]
    fn table_iii_percentages_match_paper() {
        // Straw static: 6.2 % LUTs of U280.
        let (l, r, b, u, _) = STRAW_STATIC.percent_of(&U280_TOTAL);
        assert!((l - 6.2).abs() < 0.25, "straw luts {l}%");
        assert!((r - 8.59).abs() < 0.4, "straw regs {r}%");
        assert!((b - 9.42).abs() < 0.2, "straw bram {b}%");
        assert!((u - 2.71).abs() < 0.1, "straw uram {u}%");

        // RS encoder: 7.08 % LUTs, 22.32 % regs (paper prints 582K regs
        // against 2.72 M → 21.4 %; the paper's 22.32 % implies its
        // denominator was ~2.607 M — both within tolerance).
        let (l, r, ..) = RS_ENCODER_STATIC.percent_of(&U280_TOTAL);
        assert!((l - 7.08).abs() < 0.2, "rs luts {l}%");
        assert!((r - 22.32).abs() < 1.2, "rs regs {r}%");

        // RM 3 Uniform: 17.59 % of SLR0 LUTs.
        let (l, ..) = RM_UNIFORM.percent_of(&SLR0);
        assert!((l - 17.59).abs() < 0.2, "uniform luts {l}%");

        // RM 2 Tree: 15.93 % of SLR0 LUTs (reconstructed count).
        let (l, ..) = RM_TREE.percent_of(&SLR0);
        assert!((l - 15.93).abs() < 0.2, "tree luts {l}%");
    }

    #[test]
    fn arithmetic() {
        let a = STRAW_STATIC + STRAW2_STATIC;
        assert_eq!(a.luts, 78_555 + 82_334);
        let d = a - STRAW_STATIC;
        assert_eq!(d, STRAW2_STATIC);
        let mut acc = ResourceVec::default();
        acc += RM_LIST;
        assert_eq!(acc, RM_LIST);
    }

    #[test]
    fn fits_is_per_class() {
        let too_much_bram = ResourceVec {
            bram: SLR0.bram + 1,
            ..ResourceVec::default()
        };
        assert!(!too_much_bram.fits_in(&SLR0));
    }
}
