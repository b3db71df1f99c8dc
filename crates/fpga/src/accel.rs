//! Cycle-accurate accelerator models wrapping the real algorithms.
//!
//! §IV-B: the accelerators are Verilog FSMs whose *cycles* count "the
//! number of clock cycles required to complete four key operations: rule
//! evaluation, hash computation, data mapping, and replication", and
//! Table I gives, for each kernel, the profiled software time, the RTL
//! cycle count and latency, the measured wall time on the physical FPGA
//! (including host↔card transfer), and the source line counts.
//!
//! The models here execute the *actual* CRUSH / Reed-Solomon code from
//! `deliba-crush` / `deliba-ec` — so hardware and software paths agree
//! bit-for-bit — while consuming the cycle budgets of Table I.

use crate::clock::{ClockDomain, ACCEL_CLOCK};
use deliba_crush::{CrushMap, DeviceId};
use deliba_ec::ReedSolomon;
use deliba_sim::SimDuration;

/// The six accelerator kernels of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccelKind {
    /// Straw bucket selection.
    Straw,
    /// Straw2 bucket selection.
    Straw2,
    /// List bucket selection.
    List,
    /// Tree bucket selection.
    Tree,
    /// Uniform bucket selection.
    Uniform,
    /// Reed-Solomon encoder.
    RsEncoder,
}

/// One row of Table I.
#[derive(Debug, Clone, Copy)]
pub struct TableIRow {
    /// Kernel.
    pub kind: AccelKind,
    /// Profiled software execution time (Ceph kernel client), µs.
    pub sw_exec_us: f64,
    /// Contribution of this kernel to total runtime, percent.
    pub runtime_share_pct: f64,
    /// RTL cycles (min, max).
    pub rtl_cycles: (u64, u64),
    /// Vivado-reported latency (min, max), µs.
    pub rtl_latency_us: (f64, f64),
    /// Measured wall time on the physical U280 including transfers, µs.
    pub hw_exec_us: f64,
    /// Source lines of C in the Ceph kernel implementation.
    pub sloc_c: u32,
    /// Source lines of Verilog in the RTL implementation.
    pub sloc_verilog: u32,
}

/// Table I of the paper, verbatim.
pub const TABLE_I: [TableIRow; 6] = [
    TableIRow {
        kind: AccelKind::Straw,
        sw_exec_us: 55.0,
        runtime_share_pct: 80.0,
        rtl_cycles: (105, 105),
        rtl_latency_us: (0.345, 0.355),
        hw_exec_us: 49.0,
        sloc_c: 256,
        sloc_verilog: 880,
    },
    TableIRow {
        kind: AccelKind::Straw2,
        sw_exec_us: 48.0,
        runtime_share_pct: 80.0,
        rtl_cycles: (155, 155),
        rtl_latency_us: (0.315, 0.315),
        hw_exec_us: 51.0,
        sloc_c: 256,
        sloc_verilog: 806,
    },
    TableIRow {
        kind: AccelKind::List,
        sw_exec_us: 35.0,
        runtime_share_pct: 80.0,
        rtl_cycles: (40, 40),
        rtl_latency_us: (0.161, 0.161),
        hw_exec_us: 56.0,
        sloc_c: 197,
        sloc_verilog: 770,
    },
    TableIRow {
        kind: AccelKind::Tree,
        sw_exec_us: 22.0,
        runtime_share_pct: 85.0,
        rtl_cycles: (130, 130),
        rtl_latency_us: (0.115, 0.115),
        hw_exec_us: 31.0,
        sloc_c: 241,
        sloc_verilog: 780,
    },
    TableIRow {
        kind: AccelKind::Uniform,
        sw_exec_us: 9.0,
        runtime_share_pct: 72.0,
        rtl_cycles: (40, 50),
        rtl_latency_us: (0.180, 0.180),
        hw_exec_us: 19.0,
        sloc_c: 237,
        sloc_verilog: 745,
    },
    TableIRow {
        kind: AccelKind::RsEncoder,
        sw_exec_us: 65.0,
        runtime_share_pct: 70.0,
        rtl_cycles: (150, 150),
        rtl_latency_us: (0.345, 0.345),
        hw_exec_us: 85.0,
        sloc_c: 280,
        sloc_verilog: 960,
    },
];

/// Look up a kernel's Table I row.
pub fn table_i(kind: AccelKind) -> &'static TableIRow {
    TABLE_I
        .iter()
        .find(|r| r.kind == kind)
        .expect("all kinds present")
}

/// HLS→RTL improvement factors reported in §IV-B: "approximately 38.61 %
/// in terms of clock cycles" and "overall latency reduction of
/// approximately 45.71 %".  DeLiBA-1/-2 used the HLS accelerators, so
/// their models scale the RTL numbers back up by these factors.
pub const HLS_CYCLE_INFLATION: f64 = 1.0 / (1.0 - 0.3861);
/// Latency inflation of the HLS generation.
pub const HLS_LATENCY_INFLATION: f64 = 1.0 / (1.0 - 0.4571);

/// The four FSM stages of a CRUSH accelerator (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmStage {
    /// Evaluate the CRUSH rule program.
    RuleEval,
    /// rjenkins hash computation.
    HashCompute,
    /// Map the draw onto a bucket item.
    DataMap,
    /// Iterate replicas / emit result.
    Replicate,
}

/// Per-stage cycle budget for a kernel, summing to Table I's RTL cycles.
/// The split reflects the structure: hashing dominates straw-family
/// kernels, tree descent dominates the tree kernel.
pub fn stage_cycles(kind: AccelKind) -> [(FsmStage, u64); 4] {
    let total = table_i(kind).rtl_cycles.1;
    // Fractions per stage (rule, hash, map, replicate).
    let (r, h, m) = match kind {
        AccelKind::Straw | AccelKind::Straw2 => (10, 60, 20),
        AccelKind::List => (8, 50, 30),
        AccelKind::Tree => (8, 40, 40),
        AccelKind::Uniform => (15, 45, 25),
        AccelKind::RsEncoder => (10, 20, 50), // "hash" = GF coefficient fetch
    };
    let rule = total * r / 100;
    let hash = total * h / 100;
    let map = total * m / 100;
    let rep = total - rule - hash - map;
    [
        (FsmStage::RuleEval, rule),
        (FsmStage::HashCompute, hash),
        (FsmStage::DataMap, map),
        (FsmStage::Replicate, rep),
    ]
}

/// A CRUSH placement accelerator (any of the five bucket kernels).
#[derive(Debug, Clone)]
pub struct CrushAccelerator {
    /// Which kernel this instance implements.
    pub kind: AccelKind,
    clock: ClockDomain,
    ops: u64,
    cycles_consumed: u64,
}

impl CrushAccelerator {
    /// Instance clocked at the DeLiBA-K accelerator clock.
    pub fn new(kind: AccelKind) -> Self {
        assert!(kind != AccelKind::RsEncoder, "use RsEncoderAccel");
        CrushAccelerator {
            kind,
            clock: ACCEL_CLOCK,
            ops: 0,
            cycles_consumed: 0,
        }
    }

    /// Pure pipeline latency of one placement (RTL generation).
    pub fn rtl_latency(&self) -> SimDuration {
        SimDuration::from_micros_f64(table_i(self.kind).rtl_latency_us.1)
    }

    /// Pipeline latency of the HLS generation (DeLiBA-1/-2).
    pub fn hls_latency(&self) -> SimDuration {
        self.rtl_latency() * HLS_LATENCY_INFLATION
    }

    /// Cycle count of one placement.
    pub fn rtl_cycles(&self) -> u64 {
        table_i(self.kind).rtl_cycles.1
    }

    /// Run one placement: executes the real CRUSH rule and charges the
    /// cycle budget.  Returns the devices and the time consumed.
    pub fn place(
        &mut self,
        map: &CrushMap,
        rule: u32,
        x: u32,
        num: usize,
    ) -> (Vec<DeviceId>, SimDuration) {
        let devices = map.do_rule(rule, x, num);
        (devices, self.charge_place())
    }

    /// Charge one placement without running the selection — the caller
    /// already has the devices (e.g. from the epoch-keyed placement
    /// cache).  Counters and timing advance exactly as [`place`] would:
    /// the RTL pipeline consumes its fixed Table I cycle budget per
    /// operation regardless of the inputs, so the charge is
    /// input-independent by construction.
    ///
    /// [`place`]: CrushAccelerator::place
    pub fn charge_place(&mut self) -> SimDuration {
        let cycles = self.rtl_cycles();
        self.ops += 1;
        self.cycles_consumed += cycles;
        self.clock.cycles(cycles)
    }

    /// Step the FSM through its stages, returning the per-stage trace
    /// (stage, cycles, cumulative time) — the view a cycle-accurate
    /// simulator of the Verilog would produce.
    pub fn fsm_trace(&self) -> Vec<(FsmStage, u64, SimDuration)> {
        let mut acc = 0u64;
        stage_cycles(self.kind)
            .into_iter()
            .map(|(stage, cycles)| {
                acc += cycles;
                (stage, cycles, self.clock.cycles(acc))
            })
            .collect()
    }

    /// (placements performed, cycles consumed).
    pub fn counters(&self) -> (u64, u64) {
        (self.ops, self.cycles_consumed)
    }
}

/// The Reed-Solomon encoder accelerator.
///
/// The 256-bit AXI-stream datapath moves 32 bytes/cycle (§IV-A), so a
/// block of `n` bytes streams in ⌈n/32⌉ cycles after the 150-cycle
/// pipeline fill of Table I.
#[derive(Debug)]
pub struct RsEncoderAccel {
    rs: ReedSolomon,
    clock: ClockDomain,
    ops: u64,
    bytes: u64,
}

/// Datapath width in bytes (256-bit bus, §IV-A).
pub const DATAPATH_BYTES: u64 = 32;

impl RsEncoderAccel {
    /// Encoder for an RS(k, m) profile.
    pub fn new(k: usize, m: usize) -> Self {
        RsEncoderAccel {
            rs: ReedSolomon::new(k, m),
            clock: ACCEL_CLOCK,
            ops: 0,
            bytes: 0,
        }
    }

    /// The codec (for chunk-size math at call sites).
    pub fn codec(&self) -> &ReedSolomon {
        &self.rs
    }

    /// Encode `data`, returning the shards and the time consumed:
    /// pipeline fill + streaming beats.
    pub fn encode(&mut self, data: &[u8]) -> (Vec<Vec<u8>>, SimDuration) {
        let shards = self.rs.encode(data);
        let beats = (data.len() as u64).div_ceil(DATAPATH_BYTES);
        let cycles = table_i(AccelKind::RsEncoder).rtl_cycles.1 + beats;
        self.ops += 1;
        self.bytes += data.len() as u64;
        (shards, self.clock.cycles(cycles))
    }

    /// Latency of the HLS-generation encoder for the same block.
    pub fn hls_encode_time(&self, len: usize) -> SimDuration {
        let beats = (len as u64).div_ceil(DATAPATH_BYTES);
        let cycles = table_i(AccelKind::RsEncoder).rtl_cycles.1 + beats;
        self.clock.cycles((cycles as f64 * HLS_CYCLE_INFLATION) as u64)
    }

    /// (encode operations, payload bytes encoded).
    pub fn counters(&self) -> (u64, u64) {
        (self.ops, self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deliba_crush::MapBuilder;

    #[test]
    fn table_i_lookup() {
        assert_eq!(table_i(AccelKind::Straw2).rtl_cycles, (155, 155));
        assert_eq!(table_i(AccelKind::Uniform).sw_exec_us, 9.0);
        assert_eq!(table_i(AccelKind::RsEncoder).sloc_verilog, 960);
    }

    #[test]
    fn stage_cycles_sum_to_total() {
        for row in TABLE_I {
            let stages = stage_cycles(row.kind);
            let sum: u64 = stages.iter().map(|(_, c)| c).sum();
            assert_eq!(sum, row.rtl_cycles.1, "{:?}", row.kind);
            assert!(stages.iter().all(|&(_, c)| c > 0), "{:?}", row.kind);
        }
    }

    #[test]
    fn accelerator_output_matches_software_crush() {
        // The core fidelity property: hardware path and software path
        // compute identical placements.
        let map = MapBuilder::new().build(8, 4);
        let mut accel = CrushAccelerator::new(AccelKind::Straw2);
        for x in 0..500u32 {
            let (hw, _) = accel.place(&map, 0, x, 3);
            let sw = map.do_rule(0, x, 3);
            assert_eq!(hw, sw, "x={x}");
        }
        let (ops, cycles) = accel.counters();
        assert_eq!(ops, 500);
        assert_eq!(cycles, 500 * 155);
    }

    #[test]
    fn charge_place_advances_counters_like_place() {
        let map = MapBuilder::new().build(8, 4);
        let mut full = CrushAccelerator::new(AccelKind::Straw2);
        let mut charged = CrushAccelerator::new(AccelKind::Straw2);
        for x in 0..100u32 {
            let (_, d_full) = full.place(&map, 0, x, 3);
            let d_charge = charged.charge_place();
            assert_eq!(d_full, d_charge, "x={x}");
        }
        assert_eq!(full.counters(), charged.counters());
    }

    #[test]
    fn placement_time_matches_cycle_budget() {
        let map = MapBuilder::new().build(4, 4);
        let mut accel = CrushAccelerator::new(AccelKind::Tree);
        let (_, d) = accel.place(&map, 0, 1, 3);
        // 130 cycles at 235 MHz ≈ 553 ns.
        assert!((500..620).contains(&d.as_nanos()), "{d}");
    }

    #[test]
    fn hls_generation_is_slower() {
        let a = CrushAccelerator::new(AccelKind::Straw);
        assert!(a.hls_latency() > a.rtl_latency());
        let ratio = a.hls_latency().as_nanos() as f64 / a.rtl_latency().as_nanos() as f64;
        assert!((ratio - HLS_LATENCY_INFLATION).abs() < 0.01);
    }

    #[test]
    fn fsm_trace_is_cumulative() {
        let a = CrushAccelerator::new(AccelKind::Straw2);
        let trace = a.fsm_trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0].0, FsmStage::RuleEval);
        assert_eq!(trace[3].0, FsmStage::Replicate);
        for w in trace.windows(2) {
            assert!(w[1].2 > w[0].2, "cumulative time must increase");
        }
        assert_eq!(trace[3].2, ACCEL_CLOCK.cycles(155));
    }

    #[test]
    fn rs_accel_matches_software_encoder() {
        let mut accel = RsEncoderAccel::new(4, 2);
        let data: Vec<u8> = (0..4096).map(|i| (i % 253) as u8).collect();
        let (hw_shards, d) = accel.encode(&data);
        let sw_shards = ReedSolomon::new(4, 2).encode(&data);
        assert_eq!(hw_shards, sw_shards);
        // 150 + 128 beats = 278 cycles ≈ 1.18 µs.
        assert!((1_000..1_400).contains(&d.as_nanos()), "{d}");
    }

    #[test]
    fn rs_time_scales_with_block_size() {
        let mut accel = RsEncoderAccel::new(4, 2);
        let (_, small) = accel.encode(&vec![0u8; 4096]);
        let (_, large) = accel.encode(&vec![0u8; 128 * 1024]);
        assert!(large > small * 8, "streaming beats dominate large blocks");
        assert!(accel.hls_encode_time(4096) > small);
    }

    #[test]
    #[should_panic(expected = "use RsEncoderAccel")]
    fn crush_accel_rejects_rs_kind() {
        CrushAccelerator::new(AccelKind::RsEncoder);
    }
}
