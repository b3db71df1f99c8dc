//! Card power model (§V-c).
//!
//! The paper measured two full-load scenarios with xbutil/xbtest:
//! ≈ **195 W** with all accelerators resident in the static region (no
//! partial reconfiguration) and ≈ **170 W** when the three bucket
//! accelerators share one DFX partition (only one resident at a time).
//! The model decomposes those totals into per-block contributions so the
//! harness can regenerate both numbers and explore intermediate
//! configurations.

/// Per-block power contributions in watts at full load.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Static power: chip leakage + HBM + board (fans, regulators).
    pub(crate) base_w: f64,
    /// QDMA + PCIe hard block activity.
    pub(crate) qdma_w: f64,
    /// RTL TCP/IP + CMAC at 260 MHz.
    pub(crate) network_w: f64,
    /// Straw static accelerator.
    pub(crate) straw_w: f64,
    /// Straw2 static accelerator.
    pub(crate) straw2_w: f64,
    /// Reed-Solomon encoder.
    pub(crate) rs_w: f64,
    /// One resident bucket RM (List/Tree/Uniform are within a watt of
    /// each other).
    pub(crate) rm_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        // Decomposition chosen so the two paper scenarios reproduce
        // exactly; individual splits follow the resource footprints of
        // Table III (RS encoder is the largest single accelerator).
        PowerModel {
            base_w: 68.5,
            qdma_w: 22.0,
            network_w: 18.0,
            straw_w: 14.0,
            straw2_w: 15.0,
            rs_w: 20.0,
            rm_w: 12.5,
        }
    }
}

impl PowerModel {
    /// Full load, *without* partial reconfiguration: all three bucket
    /// accelerators are resident in static region simultaneously.
    pub fn full_load_static_w(&self) -> f64 {
        self.base_w
            + self.qdma_w
            + self.network_w
            + self.straw_w
            + self.straw2_w
            + self.rs_w
            + 3.0 * self.rm_w // List + Tree + Uniform all resident
    }

    /// Full load *with* partial reconfiguration: one RM resident.
    pub fn full_load_dfx_w(&self) -> f64 {
        self.base_w
            + self.qdma_w
            + self.network_w
            + self.straw_w
            + self.straw2_w
            + self.rs_w
            + self.rm_w
    }

    /// Idle power (clocks running, no traffic): base plus a fraction of
    /// the interface blocks.
    pub fn idle_w(&self) -> f64 {
        self.base_w + 0.35 * (self.qdma_w + self.network_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenarios_reproduce() {
        let p = PowerModel::default();
        assert!(
            (p.full_load_static_w() - 195.0).abs() < 1.0,
            "static: {}",
            p.full_load_static_w()
        );
        assert!(
            (p.full_load_dfx_w() - 170.0).abs() < 1.0,
            "dfx: {}",
            p.full_load_dfx_w()
        );
    }

    #[test]
    fn dfx_saves_power() {
        let p = PowerModel::default();
        let saving = p.full_load_static_w() - p.full_load_dfx_w();
        assert!((24.0..26.0).contains(&saving), "saving {saving} W");
    }
}
