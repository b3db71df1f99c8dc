//! UIFD — the DeLiBA-K Unified I/O FPGA Driver.
//!
//! "The DMQ layer … forwards the I/O requests to a newly developed
//! driver named the DeLiBA-K Unified I/O FPGA Driver … At its core, the
//! UIFD implements multiple hardware queues using AMD's QDMA driver to
//! talk to the actual FPGA cards via PCIe.  … Each io_uring instance,
//! bound to a specific CPU core, aligns directly with a corresponding
//! per-hardware queue" (§III-B).
//!
//! This is the *functional* driver: block requests dispatched from the
//! DMQ become QDMA descriptors in the queue set aligned with their
//! hardware context; payload bytes genuinely flow host memory →
//! descriptor engine → (accelerator) → completion ring → host memory.
//! The engine charges its timing elsewhere; here correctness and
//! structure are the point, and the integration tests drive real data
//! through the full path.

use deliba_blkmq::{BlockRequest, MultiQueue, ReqOp, SchedPolicy};
use deliba_qdma::{
    DescriptorEngine, EngineConfig as QdmaConfig, Descriptor, IfType, QueueSet, SparseMemory,
};
use deliba_sim::{InstantKind, Observer, SimTime, TraceLayer};

/// Base host address where per-tag DMA buffers live.
const BUF_BASE: u64 = 0x1000_0000;
/// Spacing between per-tag buffers (max I/O = 1 MiB).
const BUF_STRIDE: u64 = 1 << 20;

/// The unified driver: DMQ + QDMA + host memory.
pub struct Uifd {
    /// The DMQ multi-queue fabric.
    pub mq: MultiQueue,
    /// The QDMA descriptor/streaming engines.
    pub qdma: DescriptorEngine,
    /// Host DMA-able memory.
    pub host_mem: SparseMemory,
    nr_queues: usize,
    trace: Observer,
}

impl Uifd {
    /// A driver with `nr_queues` aligned core↔hctx↔QDMA-queue triples
    /// (DeLiBA-K uses 3) and `tag_depth` in-flight requests.
    pub fn new(nr_queues: usize, tag_depth: u16, if_type: IfType) -> Self {
        let mq = MultiQueue::new(nr_queues, nr_queues, tag_depth, SchedPolicy::None);
        let mut qdma = DescriptorEngine::new(QdmaConfig::default());
        for q in 0..nr_queues as u16 {
            qdma.add_queue(QueueSet::new(q, if_type, 0));
        }
        Uifd {
            mq,
            qdma,
            host_mem: SparseMemory::new(),
            nr_queues,
            trace: Observer::off(),
        }
    }

    /// Attach the run's observer (full-depth recording marks each
    /// DMQ dispatch and QDMA descriptor post; the lane is the hardware
    /// context / queue id).
    pub fn set_trace(&mut self, trace: Observer) {
        self.trace = trace;
    }

    /// DeLiBA-K's shape: 3 queues, 256 tags (the H2C concurrency limit).
    pub fn deliba_k_default() -> Self {
        Self::new(3, 256, IfType::Replication)
    }

    /// Number of aligned queues.
    pub fn nr_queues(&self) -> usize {
        self.nr_queues
    }

    /// Host buffer address for a driver tag.
    pub fn buf_addr(tag: u16) -> u64 {
        BUF_BASE + tag as u64 * BUF_STRIDE
    }

    /// Submit one block request from `cpu`: write the payload (for
    /// writes) into the tag's DMA buffer and queue it in the DMQ.
    pub fn submit(&mut self, req: BlockRequest, payload: Option<&[u8]>) -> bool {
        if let (ReqOp::Write, Some(data)) = (req.op, payload) {
            debug_assert_eq!(data.len(), req.nr_bytes as usize);
            // Stage into a per-CPU bounce slot keyed by the request
            // token; the dispatch step re-homes the payload to the
            // driver-tag buffer once a tag is assigned (in DeLiBA-K the
            // registered io_uring buffer itself plays this role, so no
            // extra copy happens on the real system).
            self.host_mem.write(Self::stage_addr(&req), data);
        }
        self.mq.insert(req)
    }

    /// Bounce-slot address for a not-yet-tagged request: disjoint per
    /// CPU and per in-flight token.
    fn stage_addr(req: &BlockRequest) -> u64 {
        const STAGE_BASE: u64 = 0x80_0000_0000;
        STAGE_BASE
            + ((req.cpu as u64) << 32)
            + (req.user_data % 2048) * BUF_STRIDE
    }

    /// Dispatch pending requests of hardware context `hctx` into its
    /// QDMA queue set as descriptors.  Returns the dispatched requests
    /// (tags assigned).
    pub fn dispatch(&mut self, hctx: usize, now_ns: u64, max: usize) -> Vec<BlockRequest> {
        let mut reqs = Vec::new();
        self.dispatch_into(hctx, now_ns, max, &mut reqs);
        reqs
    }

    /// [`dispatch`](Self::dispatch) into caller scratch: `out` is cleared
    /// and filled with the dispatched requests (tags assigned).  Returns
    /// the count; an idle context allocates nothing.
    pub fn dispatch_into(
        &mut self,
        hctx: usize,
        now_ns: u64,
        max: usize,
        out: &mut Vec<BlockRequest>,
    ) -> usize {
        self.mq.dispatch_into(hctx, now_ns, max, out);
        let tracing = self.trace.full();
        for req in out.iter() {
            let tag = req.tag.expect("dispatched requests carry tags");
            let qid = hctx as u16;
            if tracing {
                let at = SimTime::from_nanos(now_ns);
                self.trace.instant_lane(
                    at,
                    TraceLayer::BlkMq,
                    hctx as u32,
                    InstantKind::BlkMqDispatch,
                    tag as u64,
                );
                self.trace.instant_lane(
                    at,
                    TraceLayer::Qdma,
                    qid as u32,
                    InstantKind::DescriptorPost,
                    req.user_data,
                );
            }
            let q = self.qdma.queue_mut(qid).expect("queue exists");
            match req.op {
                ReqOp::Write => {
                    // Re-home staged payload to the tag buffer, then post
                    // an H2C descriptor pointing at it.
                    let data = self.host_mem.read(Self::stage_addr(req), req.nr_bytes as usize);
                    self.host_mem.write(Self::buf_addr(tag), &data);
                    q.h2c
                        .post(
                            Descriptor::h2c(
                                Self::buf_addr(tag),
                                req.nr_bytes,
                                IfType::Replication,
                                0,
                            )
                            .with_user(req.user_data),
                        )
                        .expect("ring sized to tag depth");
                }
                ReqOp::Read | ReqOp::Flush => {
                    // Post a C2H descriptor for the data to land in.
                    q.c2h
                        .post(
                            Descriptor::c2h(
                                Self::buf_addr(tag),
                                req.nr_bytes.max(512),
                                IfType::Replication,
                                0,
                            )
                            .with_user(req.user_data),
                        )
                        .expect("ring sized to tag depth");
                }
            }
        }
        out.len()
    }

    /// Drive the card side once: fetch H2C descriptors and return the
    /// payload beats (what the accelerators would consume).
    pub fn service_card(&mut self) -> Vec<deliba_qdma::engine::H2cBeat> {
        self.qdma.service_h2c(&self.host_mem)
    }

    /// [`service_card`](Self::service_card) into caller scratch: `beats`
    /// is cleared and filled; an idle card allocates nothing.
    pub fn service_card_into(&mut self, beats: &mut Vec<deliba_qdma::engine::H2cBeat>) {
        self.qdma.service_h2c_into(&self.host_mem, beats);
    }

    /// Deliver read data arriving from the network back to the host
    /// buffer of queue `qid` and post the completion.
    pub fn deliver_read(&mut self, qid: u16, payload: &[u8], user: u64) -> bool {
        self.qdma
            .service_c2h(&mut self.host_mem, qid, payload, user)
            .is_ok()
    }

    /// Acknowledge a write completion (no C2H data phase).
    pub fn complete_write(&mut self, qid: u16, len: u32, user: u64) -> bool {
        self.qdma.complete_h2c(qid, len, user)
    }

    /// Reap completions of a queue and release the block-layer tags.
    pub fn reap(&mut self, qid: u16, reqs: &[BlockRequest]) -> Vec<u64> {
        let q = self.qdma.queue_mut(qid).expect("queue exists");
        let cmpts = q.reap_completions(usize::MAX);
        let mut done = Vec::new();
        for c in cmpts {
            if let Some(req) = reqs.iter().find(|r| r.user_data == c.user) {
                self.mq.complete(req);
            }
            done.push(c.user);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_req(cpu: usize, sector: u64, bytes: u32, user: u64) -> BlockRequest {
        BlockRequest::new(ReqOp::Write, sector, bytes, cpu, 0, user)
    }

    fn read_req(cpu: usize, sector: u64, bytes: u32, user: u64) -> BlockRequest {
        BlockRequest::new(ReqOp::Read, sector, bytes, cpu, 0, user)
    }

    #[test]
    fn default_shape_matches_paper() {
        let u = Uifd::deliba_k_default();
        assert_eq!(u.nr_queues(), 3);
        assert_eq!(u.mq.nr_hw_queues(), 3);
        assert_eq!(u.mq.tags().depth(), 256);
        // Core↔hctx alignment is 1:1.
        for cpu in 0..3 {
            assert_eq!(u.mq.hctx_of_cpu(cpu), cpu);
        }
    }

    #[test]
    fn write_payload_flows_to_card() {
        let mut u = Uifd::deliba_k_default();
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        assert!(!u.submit(write_req(0, 0, 4096, 77), Some(&data)));
        let reqs = u.dispatch(0, 0, 16);
        assert_eq!(reqs.len(), 1);
        let beats = u.service_card();
        assert_eq!(beats.len(), 1);
        assert_eq!(beats[0].user, 77);
        assert_eq!(&beats[0].data[..], &data[..], "payload intact at the card");
        // Completion path releases the tag.
        assert!(u.complete_write(0, 4096, 77));
        assert_eq!(u.reap(0, &reqs), vec![77]);
        assert_eq!(u.mq.tags().in_use(), 0);
    }

    #[test]
    fn read_data_lands_in_host_buffer() {
        let mut u = Uifd::deliba_k_default();
        u.submit(read_req(1, 64, 4096, 88), None);
        let reqs = u.dispatch(1, 0, 16);
        assert_eq!(reqs.len(), 1);
        let tag = reqs[0].tag.unwrap();
        // "Network" data arrives for queue 1.
        let remote: Vec<u8> = (0..4096).map(|i| (i % 7) as u8).collect();
        assert!(u.deliver_read(1, &remote, 88));
        assert_eq!(&u.host_mem.read(Uifd::buf_addr(tag), 4096)[..], &remote[..]);
        assert_eq!(u.reap(1, &reqs), vec![88]);
    }

    #[test]
    fn queues_are_independent_per_core() {
        let mut u = Uifd::deliba_k_default();
        for cpu in 0..3usize {
            let data = vec![cpu as u8; 1024];
            u.submit(write_req(cpu, 1000 * cpu as u64, 1024, cpu as u64), Some(&data));
        }
        for hctx in 0..3 {
            let reqs = u.dispatch(hctx, 0, 16);
            assert_eq!(reqs.len(), 1, "each core's request on its own hctx");
        }
        let beats = u.service_card();
        assert_eq!(beats.len(), 3);
        // Each beat's payload matches its origin core.
        for beat in beats {
            assert!(beat.data.iter().all(|&b| b == beat.user as u8));
        }
    }

    #[test]
    fn scratch_dispatch_and_service_match_allocating_path() {
        let mut u = Uifd::deliba_k_default();
        let data: Vec<u8> = (0..2048).map(|i| (i % 13) as u8).collect();
        u.submit(write_req(0, 0, 2048, 5), Some(&data));
        let mut reqs = Vec::new();
        let mut beats = Vec::new();
        assert_eq!(u.dispatch_into(0, 0, 16, &mut reqs), 1);
        assert!(reqs[0].tag.is_some());
        u.service_card_into(&mut beats);
        assert_eq!(beats.len(), 1);
        assert_eq!(&beats[0].data[..], &data[..]);
        // Idle round trips leave the scratch empty, not stale.
        assert_eq!(u.dispatch_into(0, 0, 16, &mut reqs), 0);
        u.service_card_into(&mut beats);
        assert!(reqs.is_empty() && beats.is_empty());
    }

    #[test]
    fn tag_depth_backpressures_dispatch() {
        let mut u = Uifd::new(1, 4, IfType::Replication);
        for i in 0..8u64 {
            u.submit(write_req(0, i * 100, 512, i), Some(&[0u8; 512]));
        }
        let first = u.dispatch(0, 0, 16);
        assert_eq!(first.len(), 4, "tag depth caps in-flight");
        u.service_card();
        for r in &first {
            u.complete_write(0, 512, r.user_data);
        }
        u.reap(0, &first);
        let second = u.dispatch(0, 0, 16);
        assert_eq!(second.len(), 4);
    }
}
