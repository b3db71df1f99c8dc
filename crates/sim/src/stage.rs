//! Per-I/O stage-span tracing.
//!
//! The paper's claims (Table II, Fig. 2's six cumulative optimizations)
//! are *attributions* of per-I/O time to pipeline stages.  A
//! [`StageTracer`] holds one latency [`Histogram`] per [`Stage`] so an
//! engine can decompose every simulated I/O's critical path — API
//! crossings, MQ scheduling, DMA, accelerator, network, OSD service —
//! and a harness can print a Table-II-style breakdown.  It is the
//! stage plane of the [`Observer`](crate::Observer).
//!
//! Convention: the tracer records **all** stages for every traced I/O,
//! zeros included (a read records a zero `Accel` encode span, DeLiBA-K
//! records a zero `BlkMq` span under bypass).  That keeps every stage's
//! sample count equal to the op count, so per-stage means add up to the
//! end-to-end mean exactly — the invariant the shape-locked regression
//! tests pin.

use crate::metrics::Histogram;
use crate::time::SimDuration;

/// One stage of the I/O pipeline, in critical-path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Submission API work: library per-I/O cost, payload copies, the
    /// latency share of the non-offloadable client protocol.
    Submit,
    /// User/kernel boundary crossings (syscalls, context switches).
    /// DeLiBA-1 pays 6 per I/O; DeLiBA-K's registered io_uring rings
    /// amortize the enter to ≈1 per batch (charged inside `Submit`'s
    /// per-I/O io_uring cost), leaving this span zero.
    RingEnter,
    /// Multi-queue block-layer scheduler (mq-deadline insertion and
    /// dispatch).  Exactly zero when the DMQ bypass is active.
    BlkMq,
    /// Driver submission: bypass tag allocation plus descriptor
    /// post/doorbell (UIFD + QDMA on DeLiBA-K, XDMA-style on earlier
    /// generations).
    Uifd,
    /// Host→card DMA transfer, including queueing on the PCIe pipe.
    QdmaH2C,
    /// Placement and erasure-coding kernels — on-card RTL/HLS when
    /// accelerated, host software (CRUSH/RS) in the baseline.
    Accel,
    /// Transmit-side network: TCP stack pipeline fill plus client→OSD
    /// wire and store-and-forward time.
    NetTx,
    /// OSD service time: media access, replication fan-out and commit
    /// acknowledgement gathering at the cluster.
    OsdService,
    /// Receive-side network: OSD→client wire time for the response.
    NetRx,
    /// Card→host DMA transfer of read payloads.
    QdmaC2H,
    /// Completion delivery: interrupt or polled CQ reap, plus the
    /// per-class fitted residual.
    Complete,
}

impl Stage {
    /// All stages, in critical-path order.
    pub const ALL: [Stage; 11] = [
        Stage::Submit,
        Stage::RingEnter,
        Stage::BlkMq,
        Stage::Uifd,
        Stage::QdmaH2C,
        Stage::Accel,
        Stage::NetTx,
        Stage::OsdService,
        Stage::NetRx,
        Stage::QdmaC2H,
        Stage::Complete,
    ];

    /// Number of stages.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case label (used as the JSON key).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Submit => "submit",
            Stage::RingEnter => "ring_enter",
            Stage::BlkMq => "blk_mq",
            Stage::Uifd => "uifd",
            Stage::QdmaH2C => "qdma_h2c",
            Stage::Accel => "accel",
            Stage::NetTx => "net_tx",
            Stage::OsdService => "osd_service",
            Stage::NetRx => "net_rx",
            Stage::QdmaC2H => "qdma_c2h",
            Stage::Complete => "complete",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&s| s == self).expect("stage in ALL")
    }
}

/// Per-stage latency histograms plus an op counter.
#[derive(Debug, Clone)]
pub struct StageTracer {
    spans: Vec<Histogram>,
    ops: u64,
}

impl Default for StageTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl StageTracer {
    /// Empty tracer.
    pub fn new() -> Self {
        StageTracer {
            spans: (0..Stage::COUNT).map(|_| Histogram::new()).collect(),
            ops: 0,
        }
    }

    /// Record one span for `stage` (zeros are meaningful — see the
    /// module convention).
    pub fn record(&mut self, stage: Stage, span: SimDuration) {
        self.spans[stage.index()].record(span);
    }

    /// Mark one traced I/O as fully recorded (call once per op, after
    /// all its stage spans).
    pub fn record_op(&mut self) {
        self.ops += 1;
    }

    /// Fully-traced operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The histogram of one stage.
    pub fn histogram(&self, stage: Stage) -> &Histogram {
        &self.spans[stage.index()]
    }

    /// Mean span of `stage` in µs (over all traced ops, zeros included).
    pub fn mean_us(&self, stage: Stage) -> f64 {
        self.spans[stage.index()].mean_us()
    }

    /// Sum of per-stage means, µs.  Equals the end-to-end mean latency
    /// of the traced ops exactly (spans telescope the critical path).
    pub fn stage_sum_us(&self) -> f64 {
        Stage::ALL.iter().map(|&s| self.mean_us(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_order_and_labels_are_stable() {
        assert_eq!(Stage::COUNT, 11);
        let labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "submit",
                "ring_enter",
                "blk_mq",
                "uifd",
                "qdma_h2c",
                "accel",
                "net_tx",
                "osd_service",
                "net_rx",
                "qdma_c2h",
                "complete"
            ]
        );
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn stage_means_sum_to_end_to_end_mean() {
        let mut tracer = StageTracer::new();
        // Two ops with known spans; unused stages record zero.
        for (submit, osd) in [(10_000u64, 40_000u64), (20_000, 50_000)] {
            for &s in &Stage::ALL {
                let span = match s {
                    Stage::Submit => SimDuration::from_nanos(submit),
                    Stage::OsdService => SimDuration::from_nanos(osd),
                    _ => SimDuration::ZERO,
                };
                tracer.record(s, span);
            }
            tracer.record_op();
        }
        assert_eq!(tracer.ops(), 2);
        // (10+40 + 20+50)/2 = 60 µs.
        assert!((tracer.stage_sum_us() - 60.0).abs() < 1e-9);
        assert!((tracer.mean_us(Stage::Submit) - 15.0).abs() < 1e-9);
        assert_eq!(tracer.mean_us(Stage::BlkMq), 0.0);
    }
}
