//! One io_uring instance: SQ + CQ + mode + statistics.
//!
//! The lifecycle mirrors the real API surface described in §III-A:
//! `io_uring_setup` → queue SQEs → `io_uring_enter` to submit the whole
//! batch in one system call.  In **kernel-polled** mode (what DeLiBA-K
//! uses) a kernel-side poller thread drains the SQ continuously, so
//! submission needs no syscall at all once the poller is awake — the
//! statistics kept here (`syscalls`, `submitted`) are exactly what the
//! host-path cost model in `deliba-core` charges for.

use crate::entry::{Cqe, Sqe, SqeFlags};
use crate::registry::BufRegistry;
use crate::spsc::{self, Consumer, Producer};

/// errno returned for SQEs cancelled because an earlier linked SQE
/// failed.
pub const ECANCELED: i32 = 125;

/// Operating mode of an instance (paper §III-A names all three and states
/// DeLiBA-K uses kernel-polled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingMode {
    /// Completion via interrupt: each submission costs a syscall, each
    /// completion an interrupt.
    InterruptDriven,
    /// Application polls the CQ; submission still costs a syscall.
    Polled,
    /// Kernel poller thread drains the SQ: no syscalls in steady state.
    KernelPolled,
}

/// Errors from `IoUring::setup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupError {
    /// Requested ring size of zero.
    ZeroEntries,
}

/// Result of one `enter` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnterResult {
    /// SQEs handed to the kernel side by this call.
    pub submitted: u32,
    /// CQEs that became available.
    pub completed: u32,
}

/// The "kernel" side an instance submits to — implemented by test
/// doubles, including any `FnMut(&Sqe, &mut BufRegistry) -> Cqe` closure.
pub trait Completer {
    /// Process one SQE, returning its CQE.
    fn complete(&mut self, sqe: &Sqe, bufs: &mut BufRegistry) -> Cqe;
}

/// A function-based completer for tests and examples.
impl<F: FnMut(&Sqe, &mut BufRegistry) -> Cqe> Completer for F {
    fn complete(&mut self, sqe: &Sqe, bufs: &mut BufRegistry) -> Cqe {
        self(sqe, bufs)
    }
}

/// One io_uring instance.
pub struct IoUring {
    sq_prod: Producer<Sqe>,
    sq_cons: Consumer<Sqe>,
    cq_prod: Producer<Cqe>,
    cq_cons: Consumer<Cqe>,
    mode: RingMode,
    /// Registered fixed buffers.
    pub bufs: BufRegistry,
    // Statistics.
    syscalls: u64,
    submitted: u64,
    completed: u64,
    sq_full_events: u64,
}

impl IoUring {
    /// `io_uring_setup(entries, mode)`: SQ of `entries`, CQ of
    /// `2 × entries` (the kernel's default sizing).
    pub fn setup(entries: u32, mode: RingMode) -> Result<Self, SetupError> {
        if entries == 0 {
            return Err(SetupError::ZeroEntries);
        }
        let (sq_prod, sq_cons) = spsc::ring(entries as usize);
        let (cq_prod, cq_cons) = spsc::ring(2 * entries as usize);
        Ok(IoUring {
            sq_prod,
            sq_cons,
            cq_prod,
            cq_cons,
            mode,
            bufs: BufRegistry::new(),
            syscalls: 0,
            submitted: 0,
            completed: 0,
            sq_full_events: 0,
        })
    }

    /// Operating mode.
    pub fn mode(&self) -> RingMode {
        self.mode
    }

    /// Queue an SQE (does not submit).  Returns `false` when the SQ is
    /// full; the caller must `enter` (or wait for the kernel poller) and
    /// retry.
    pub fn prepare(&mut self, sqe: Sqe) -> bool {
        match self.sq_prod.push(sqe) {
            Ok(()) => true,
            Err(_) => {
                self.sq_full_events += 1;
                false
            }
        }
    }

    /// SQEs currently queued but not yet consumed by the kernel side.
    pub fn sq_pending(&self) -> usize {
        self.sq_cons.len()
    }

    /// `io_uring_enter`: hand all queued SQEs to the completer in one
    /// call.  In kernel-polled mode this models one *poller wakeup* (no
    /// syscall is charged in steady state; see [`IoUring::syscalls`]).
    ///
    /// Link semantics match the kernel: an `IO_LINK` chain executes in
    /// order and a failure cancels the rest of the chain with
    /// `-ECANCELED`; `IO_DRAIN` is trivially satisfied here because this
    /// model completes submissions in order.
    pub fn enter(&mut self, completer: &mut dyn Completer) -> EnterResult {
        if self.mode != RingMode::KernelPolled {
            self.syscalls += 1;
        }
        let mut res = EnterResult::default();
        // True while we are inside a failed IO_LINK chain.
        let mut chain_cancelled = false;
        while let Some(sqe) = self.sq_cons.pop() {
            let cqe = if chain_cancelled {
                Cqe::err(sqe.user_data, ECANCELED)
            } else {
                completer.complete(&sqe, &mut self.bufs)
            };
            let links_next = sqe.flags.contains(SqeFlags::IO_LINK);
            if !cqe.is_ok() && links_next {
                chain_cancelled = true;
            } else if !links_next {
                // Chain boundary: reset cancellation.
                chain_cancelled = false;
            }
            res.submitted += 1;
            // The CQ is sized 2× the SQ and drained by the application;
            // overflow would mean the app stopped reaping. Surface that
            // loudly instead of silently dropping completions.
            self.cq_prod
                .push(cqe)
                .unwrap_or_else(|_| panic!("CQ overflow: application stopped reaping"));
            res.completed += 1;
        }
        self.submitted += res.submitted as u64;
        self.completed += res.completed as u64;
        res
    }

    /// Harvest one completion, if available (free in polled modes).
    pub fn peek_cqe(&mut self) -> Option<Cqe> {
        self.cq_cons.pop()
    }

    /// Harvest up to `max` completions.
    pub fn peek_cqes(&mut self, max: usize) -> Vec<Cqe> {
        self.cq_cons.pop_batch(max)
    }

    /// Harvest up to `max` completions into caller scratch: `out` is
    /// cleared and filled.  Returns the count; an empty completion ring
    /// allocates nothing.
    pub fn peek_cqes_into(&mut self, max: usize, out: &mut Vec<Cqe>) -> usize {
        self.cq_cons.pop_batch_into(max, out)
    }

    /// Total "syscalls" performed (enter calls in non-kernel-polled
    /// modes).
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Total SQEs submitted.
    pub fn total_submitted(&self) -> u64 {
        self.submitted
    }

    /// Total CQEs produced.
    pub fn total_completed(&self) -> u64 {
        self.completed
    }

    /// Times `prepare` found the SQ full.
    pub fn sq_full_events(&self) -> u64 {
        self.sq_full_events
    }

    /// Mean SQEs per enter call — the batching amortization factor that
    /// drives DeLiBA-K's syscall reduction.  Returns `None` in
    /// kernel-polled mode (no syscalls at all).
    pub fn batching_factor(&self) -> Option<f64> {
        if self.mode == RingMode::KernelPolled {
            None
        } else if self.syscalls == 0 {
            Some(0.0)
        } else {
            Some(self.submitted as f64 / self.syscalls as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Opcode;

    fn echo_completer() -> impl FnMut(&Sqe, &mut BufRegistry) -> Cqe {
        |sqe: &Sqe, _bufs: &mut BufRegistry| Cqe::ok(sqe.user_data, sqe.len)
    }

    #[test]
    fn setup_validates_entries() {
        assert_eq!(
            IoUring::setup(0, RingMode::Polled).err(),
            Some(SetupError::ZeroEntries)
        );
        assert!(IoUring::setup(32, RingMode::KernelPolled).is_ok());
    }

    #[test]
    fn single_submit_completes() {
        let mut ring = IoUring::setup(8, RingMode::Polled).unwrap();
        assert!(ring.prepare(Sqe::nop(7)));
        let res = ring.enter(&mut echo_completer());
        assert_eq!(res.submitted, 1);
        let cqe = ring.peek_cqe().unwrap();
        assert_eq!(cqe.user_data, 7);
        assert!(cqe.is_ok());
        assert!(ring.peek_cqe().is_none());
    }

    #[test]
    fn batching_amortizes_syscalls() {
        let mut ring = IoUring::setup(64, RingMode::Polled).unwrap();
        for batch in 0..10 {
            for i in 0..32 {
                assert!(ring.prepare(Sqe::read(0, 0, 0, 4096, batch * 32 + i)));
            }
            ring.enter(&mut echo_completer());
            assert_eq!(ring.peek_cqes(usize::MAX).len(), 32);
        }
        assert_eq!(ring.syscalls(), 10);
        assert_eq!(ring.total_submitted(), 320);
        assert_eq!(ring.batching_factor(), Some(32.0));
    }

    #[test]
    fn kernel_polled_mode_charges_no_syscalls() {
        let mut ring = IoUring::setup(16, RingMode::KernelPolled).unwrap();
        for i in 0..8 {
            ring.prepare(Sqe::nop(i));
        }
        ring.enter(&mut echo_completer());
        assert_eq!(ring.syscalls(), 0);
        assert_eq!(ring.batching_factor(), None);
        assert_eq!(ring.total_completed(), 8);
    }

    #[test]
    fn sq_full_backpressure() {
        let mut ring = IoUring::setup(4, RingMode::Polled).unwrap();
        for i in 0..4 {
            assert!(ring.prepare(Sqe::nop(i)));
        }
        assert!(!ring.prepare(Sqe::nop(99)), "SQ must be full");
        assert_eq!(ring.sq_full_events(), 1);
        ring.enter(&mut echo_completer());
        assert!(ring.prepare(Sqe::nop(99)), "space after enter");
    }

    #[test]
    fn completer_sees_payload_via_registered_buffers() {
        let mut ring = IoUring::setup(8, RingMode::Polled).unwrap();
        let idx = ring.bufs.register(bytes::BytesMut::zeroed(4096));
        ring.bufs.fill(idx, b"payload!");
        ring.prepare(Sqe::write(0, 0, idx, 8, 1));
        let mut seen = Vec::new();
        let mut completer = |sqe: &Sqe, bufs: &mut BufRegistry| {
            assert_eq!(sqe.opcode, Opcode::Write);
            seen = bufs.snapshot(sqe.buf_index, sqe.len as usize).unwrap().to_vec();
            Cqe::ok(sqe.user_data, sqe.len)
        };
        ring.enter(&mut completer);
        assert_eq!(seen, b"payload!");
    }

    #[test]
    fn read_completion_fills_buffer() {
        let mut ring = IoUring::setup(8, RingMode::Polled).unwrap();
        let idx = ring.bufs.register(bytes::BytesMut::zeroed(16));
        ring.prepare(Sqe::read(0, 0, idx, 9, 2));
        let mut completer = |sqe: &Sqe, bufs: &mut BufRegistry| {
            let n = bufs.fill(sqe.buf_index, b"from-disk");
            Cqe::ok(sqe.user_data, n as u32)
        };
        ring.enter(&mut completer);
        let cqe = ring.peek_cqe().unwrap();
        assert_eq!(cqe.result, 9);
        assert_eq!(&ring.bufs.get(idx).unwrap()[..9], b"from-disk");
    }

    #[test]
    fn linked_chain_cancels_after_failure() {
        let mut ring = IoUring::setup(16, RingMode::Polled).unwrap();
        // Chain: A (link) → B (link) → C; then independent D.
        let mut a = Sqe::read(0, 0, 0, 512, 1);
        a.flags = a.flags.union(SqeFlags::IO_LINK);
        let mut b = Sqe::read(0, 512, 0, 512, 2);
        b.flags = b.flags.union(SqeFlags::IO_LINK);
        let c = Sqe::read(0, 1024, 0, 512, 3);
        let d = Sqe::read(0, 2048, 0, 512, 4);
        for sqe in [a, b, c, d] {
            assert!(ring.prepare(sqe));
        }
        // A fails → B and C cancelled, D unaffected.
        let mut completer = |sqe: &Sqe, _: &mut BufRegistry| {
            if sqe.user_data == 1 {
                Cqe::err(sqe.user_data, 5)
            } else {
                Cqe::ok(sqe.user_data, sqe.len)
            }
        };
        ring.enter(&mut completer);
        let cqes = ring.peek_cqes(8);
        assert_eq!(cqes.len(), 4);
        assert_eq!(cqes[0].result, -5);
        assert_eq!(cqes[1].result, -ECANCELED);
        assert_eq!(cqes[2].result, -ECANCELED);
        assert!(cqes[3].is_ok(), "ops after the chain run normally");
    }

    #[test]
    fn peek_cqes_into_reuses_scratch() {
        let mut ring = IoUring::setup(8, RingMode::Polled).unwrap();
        let mut out = vec![Cqe::ok(99, 0)]; // stale contents must be cleared
        assert_eq!(ring.peek_cqes_into(4, &mut out), 0);
        assert!(out.is_empty());
        for i in 0..3 {
            ring.prepare(Sqe::nop(i));
        }
        ring.enter(&mut echo_completer());
        assert_eq!(ring.peek_cqes_into(2, &mut out), 2);
        assert_eq!(out.len(), 2);
        assert_eq!(ring.peek_cqes_into(2, &mut out), 1);
        assert_eq!(out[0].user_data, 2);
    }

    #[test]
    fn successful_chain_runs_fully() {
        let mut ring = IoUring::setup(16, RingMode::Polled).unwrap();
        let mut a = Sqe::nop(1);
        a.flags = a.flags.union(SqeFlags::IO_LINK);
        let b = Sqe::nop(2);
        ring.prepare(a);
        ring.prepare(b);
        ring.enter(&mut echo_completer());
        assert!(ring.peek_cqes(4).iter().all(|c| c.is_ok()));
    }

    #[test]
    fn failure_without_link_does_not_cancel() {
        let mut ring = IoUring::setup(16, RingMode::Polled).unwrap();
        ring.prepare(Sqe::nop(1)); // no link flag
        ring.prepare(Sqe::nop(2));
        let mut completer = |sqe: &Sqe, _: &mut BufRegistry| {
            if sqe.user_data == 1 {
                Cqe::err(sqe.user_data, 5)
            } else {
                Cqe::ok(sqe.user_data, sqe.len)
            }
        };
        ring.enter(&mut completer);
        let cqes = ring.peek_cqes(4);
        assert_eq!(cqes[0].result, -5);
        assert!(cqes[1].is_ok());
    }

    #[test]
    fn error_completions_propagate() {
        let mut ring = IoUring::setup(8, RingMode::Polled).unwrap();
        ring.prepare(Sqe::read(0, u64::MAX, 0, 4096, 3));
        let mut completer =
            |sqe: &Sqe, _: &mut BufRegistry| Cqe::err(sqe.user_data, 5 /* EIO */);
        ring.enter(&mut completer);
        let cqe = ring.peek_cqe().unwrap();
        assert!(!cqe.is_ok());
        assert_eq!(cqe.result, -5);
    }
}
