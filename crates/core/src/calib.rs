//! Calibration constants of the host-path model.
//!
//! Every constant is either taken directly from the paper (Table I
//! software profiles, §III crossing/copy counts) or fitted once so the
//! 4 kB latencies of Table II and the software baselines of Figs. 3–4
//! reproduce within a few percent.  The *structure* of the model — which
//! generation pays which cost — lives in
//! [`crate::generation::Generation`]; only magnitudes live here.

use deliba_sim::SimDuration;

// ---------------------------------------------------------------------
// Host CPU path
// ---------------------------------------------------------------------

/// One user/kernel crossing (syscall entry/exit or context switch with
/// cache pollution).  Classic measured range is 1–2 µs on Skylake-E
/// with KPTI.
pub(crate) const CROSSING: SimDuration = SimDuration(1_500);

/// Host memcpy bandwidth for payload copies (one core, streaming):
/// ≈ 13 GB/s → ns per KiB.
pub(crate) const COPY_NS_PER_KIB: u64 = 79;

/// io_uring submission+reap cost per I/O on the pinned core (SQE fill,
/// poller wakeup share, CQE reap) — what remains after batching removes
/// the syscalls.  A calibrated stand-in for Fig. 2 circle ① (charged to
/// the `submit` stage): no ring is simulated.  No paper figure measures
/// it alone; Table II's DeLiBA-K cells are pinned by [`residual`] on top
/// of it.
pub(crate) const URING_PER_IO: SimDuration = SimDuration(800);

/// NBD daemon request handling per I/O (event loop, socket framing)
/// *excluding* crossings/copies, which are charged separately.
pub(crate) const NBD_PER_IO: SimDuration = SimDuration(5_000);

/// Fraction of a *read's* round trip during which the NBD daemon is
/// actually held.  The daemon can hand a read off to the socket and poll
/// other work while data is in flight, so reads overlap partially;
/// writes hold the daemon until the commit ack (synchronous semantics).
/// Fitted so DeLiBA-2's 4 kB random-read throughput sits at the ≈18 K
/// IOPS the paper's 3.2× headline implies.
pub const NBD_READ_HOLD_FRACTION: f64 = 0.65;

/// Non-offloadable Ceph client protocol work per read I/O
/// (messenger, header crc, RBD bookkeeping) on the submitting core.
/// Fitted so DeLiBA-K peaks near the paper's ≈ 59 K IOPS with three
/// instances (§VI: "our 59K IOPS").
pub(crate) const CLIENT_PROTO_READ: SimDuration = SimDuration(47_000);

/// Same for writes — higher: replication bookkeeping, data crc.
/// Fitted against DeLiBA-K's 145 MB/s ≈ 35 K IOPS 4 kB random writes.
pub(crate) const CLIENT_PROTO_WRITE: SimDuration = SimDuration(80_000);

/// Per-KiB host CPU on the write path (crc32c over payload ≈ 1.8 GB/s).
pub(crate) const WRITE_CRC_NS_PER_KIB: u64 = 750;

/// Per-KiB host CPU on the read path (verify crc at half rate of
/// compute).
pub(crate) const READ_CRC_NS_PER_KIB: u64 = 200;

/// Fraction of the client protocol CPU that sits on the latency-critical
/// path of a single read.  The rest is pipelined work (batched crc,
/// mempool upkeep, messenger dispatch for *other* ops) that consumes the
/// core but overlaps the wire time of the measured I/O — the standard
/// distinction between service demand (bounds IOPS) and critical-path
/// latency.
pub(crate) const PROTO_LATENCY_SHARE_READ: f64 = 0.18;

/// Same for writes — lower: most write-side bookkeeping (crc
/// computation, replication accounting) happens after the payload has
/// left for the wire.
pub(crate) const PROTO_LATENCY_SHARE_WRITE: f64 = 0.10;

// ---------------------------------------------------------------------
// Block layer
// ---------------------------------------------------------------------

/// MQ scheduler insertion + dispatch cost (mq-deadline bookkeeping),
/// the whole `blk_mq` stage of DeLiBA-1/-2.  A calibrated stand-in: no
/// block layer is simulated.  No paper figure measures it alone; the
/// Table II D1/D2 cells are pinned by [`residual`] on top of it.
pub(crate) const MQ_SCHED: SimDuration = SimDuration(2_500);

/// DMQ bypass cost (tag alloc + direct dispatch only), charged to
/// DeLiBA-K's `uifd` stage so its `blk_mq` stage is exactly zero
/// (Fig. 2 circle ②).  A calibrated stand-in: no tag set is simulated,
/// and no paper figure measures it alone.
pub(crate) const MQ_BYPASS: SimDuration = SimDuration(300);

// ---------------------------------------------------------------------
// Driver + DMA
// ---------------------------------------------------------------------

/// QDMA descriptor post + doorbell + fetch per I/O (DeLiBA-K UIFD),
/// charged to the `uifd` stage (Fig. 2 circle ③).  A calibrated
/// stand-in: no descriptor ring is simulated, and no paper figure
/// measures it alone; only the payload's PCIe transfer is timed
/// (`deliba_qdma::PciePipes`).
pub(crate) const QDMA_DESC: SimDuration = SimDuration(500);

/// XDMA-style single-queue DMA engine per I/O (DeLiBA-1/-2): one shared
/// queue, heavier per-transfer setup.  The `uifd` stage of the older
/// generations; a calibrated stand-in like [`QDMA_DESC`], measured by no
/// paper figure on its own.
pub(crate) const XDMA_DESC: SimDuration = SimDuration(1_700);

/// Effective PCIe Gen3 x16 data bandwidth (after TLP overhead).
pub const PCIE_GBYTES_PER_SEC: f64 = 12.0;

// ---------------------------------------------------------------------
// Completion path
// ---------------------------------------------------------------------

/// MSI-X interrupt + softirq + wakeup of the waiting thread.
pub(crate) const IRQ_COMPLETION: SimDuration = SimDuration(4_000);

/// Polled CQ completion (cache-hot flag check).
pub(crate) const POLLED_COMPLETION: SimDuration = SimDuration(300);

// ---------------------------------------------------------------------
// Host network processing (software TCP generations only)
// ---------------------------------------------------------------------

/// Extra per-I/O latency when the TCP stack runs on the host:
/// NIC interrupt, softirq scheduling, socket wakeups — over and above
/// the per-segment CPU charged by `deliba-net`.
pub(crate) const SW_NET_ROUND: SimDuration = SimDuration(14_000);

// ---------------------------------------------------------------------
// Software placement / coding costs (Table I, column 2)
// ---------------------------------------------------------------------

/// CRUSH straw2 software execution per I/O (Table I: 48 µs).
pub(crate) const SW_CRUSH: SimDuration = SimDuration(48_000);

/// Reed-Solomon encode software execution per I/O (Table I: 65 µs,
/// measured at 4 kB; scales with size via [`SW_RS_NS_PER_KIB`]).
pub(crate) const SW_RS_BASE: SimDuration = SimDuration(65_000);

/// Software RS per-KiB term beyond the 4 kB measurement point.
pub(crate) const SW_RS_NS_PER_KIB: u64 = 600;

/// Per-class residual, fitted once against Table II after all
/// structural terms are charged.  Residuals absorb path costs the model
/// does not decompose (D1's HLS communication-library round trips under
/// random access are the dominant contributor; note the paper's own D1
/// row is anomalous in that random writes are *faster* than random
/// reads).  Structure — who wins, and by how much across generations and
/// block sizes — comes from the structural terms; these constants only
/// pin the Table II anchor cells.
pub(crate) fn residual(generation: crate::Generation, write: bool, random: bool) -> SimDuration {
    let us = match (generation, write, random) {
        (crate::Generation::DeLiBA1, false, false) => 0,
        (crate::Generation::DeLiBA1, true, false) => 16,
        (crate::Generation::DeLiBA1, false, true) => 33,
        (crate::Generation::DeLiBA1, true, true) => 2,
        (crate::Generation::DeLiBA2, false, false) => 0,
        (crate::Generation::DeLiBA2, true, false) => 10,
        (crate::Generation::DeLiBA2, false, true) => 1,
        (crate::Generation::DeLiBA2, true, true) => 0,
        (crate::Generation::DeLiBAK, false, false) => 5,
        (crate::Generation::DeLiBAK, true, false) => 9,
        (crate::Generation::DeLiBAK, false, true) => 2,
        (crate::Generation::DeLiBAK, true, true) => 7,
    };
    SimDuration::from_micros(us)
}

/// Payload copy time for `bytes` over `copies` host copies.
pub(crate) fn copy_time(bytes: u64, copies: u32) -> SimDuration {
    SimDuration::from_nanos(bytes.div_ceil(1024) * COPY_NS_PER_KIB * copies as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_time_scales() {
        // 4 KiB × 6 copies ≈ 1.9 µs; 128 KiB × 6 ≈ 60 µs.
        assert_eq!(copy_time(4096, 6).as_nanos(), 4 * 79 * 6);
        let large = copy_time(128 * 1024, 6);
        assert!((55_000..70_000).contains(&large.as_nanos()), "{large}");
    }

    #[test]
    fn pcie_faster_than_network_for_4k() {
        let mut pcie = deliba_qdma::PciePipes::new(PCIE_GBYTES_PER_SEC);
        let t = pcie
            .h2c_transfer(deliba_sim::SimTime::ZERO, 4096)
            .saturating_since(deliba_sim::SimTime::ZERO);
        assert!(t.as_nanos() < 1_500, "{t}");
    }

    #[test]
    fn structural_cost_ordering() {
        assert!(MQ_BYPASS < MQ_SCHED);
        assert!(QDMA_DESC < XDMA_DESC);
        assert!(POLLED_COMPLETION < IRQ_COMPLETION);
        assert!(URING_PER_IO < NBD_PER_IO);
    }

    #[test]
    fn random_read_residuals_shrink_across_generations() {
        // The anchor class of Table II (the paper's headline latency
        // comparison) is 4 kB random reads.
        let rr = |g| residual(g, false, true);
        assert!(rr(crate::Generation::DeLiBA1) > rr(crate::Generation::DeLiBA2));
        assert!(rr(crate::Generation::DeLiBA1) > rr(crate::Generation::DeLiBAK));
    }

    #[test]
    fn residuals_are_small_corrections() {
        // Residuals must stay an order of magnitude below the cells they
        // correct — the structural model carries the result.
        for g in [
            crate::Generation::DeLiBA1,
            crate::Generation::DeLiBA2,
            crate::Generation::DeLiBAK,
        ] {
            for write in [false, true] {
                for random in [false, true] {
                    assert!(residual(g, write, random) <= SimDuration::from_micros(33));
                }
            }
        }
    }
}
