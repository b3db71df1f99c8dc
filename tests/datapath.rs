//! Structural datapath integration: io_uring → DMQ → QDMA with real
//! bytes, multi-queue alignment, tenancy isolation, DFX under load.

use deliba_k::blkmq::{BlockRequest, ReqOp};
use deliba_k::cluster::OsdMap;
use deliba_k::core::Uifd;
use deliba_k::fpga::{AlveoU280, RmId};
use deliba_k::crush::{BucketAlg, MapBuilder};
use deliba_k::qdma::{FunctionMap, IfType};
use deliba_k::sim::SimTime;
use deliba_k::uring::{Cqe, Sqe, UringGroup};

#[test]
fn three_instance_group_drives_three_uifd_queues() {
    let mut group = UringGroup::deliba_k_default(64);
    let mut uifd = Uifd::deliba_k_default();

    // 30 writes round-robin across the three instances.
    let payloads: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i; 2048]).collect();
    for (i, p) in payloads.iter().enumerate() {
        let idx = group.prepare_rr(Sqe::write(0, (i as u64) * 4096 * 1024, 0, 2048, i as u64));
        assert!(idx.is_some());
        let _ = p;
    }

    // Kernel poll: each instance's SQEs become block requests on its
    // pinned core.
    let mut per_core: Vec<Vec<BlockRequest>> = vec![Vec::new(); 3];
    for inst in 0..3 {
        let core = group.core_of(inst).0;
        let payloads = payloads.clone();
        let reqs_cell = std::cell::RefCell::new(Vec::new());
        group
            .instance_mut(inst)
            .enter(&mut |sqe: &Sqe, _bufs: &mut deliba_k::uring::BufRegistry| {
                let req = BlockRequest::new(
                    ReqOp::Write,
                    sqe.offset / 512,
                    sqe.len,
                    core,
                    0,
                    sqe.user_data,
                );
                reqs_cell.borrow_mut().push((req, sqe.user_data));
                Cqe::ok(sqe.user_data, sqe.len)
            });
        for (req, ud) in reqs_cell.into_inner() {
            uifd.submit(req, Some(&payloads[ud as usize]));
            per_core[core].push(req);
        }
    }
    assert!(per_core.iter().all(|v| v.len() == 10), "round-robin spread");

    // Each hctx dispatches only its own core's requests into its own
    // QDMA queue.
    for hctx in 0..3 {
        let reqs = uifd.dispatch(hctx, 0, 64);
        assert_eq!(reqs.len(), 10, "hctx {hctx}");
    }
    // The 32 KiB reorder buffer admits 16 × 2 KiB per sweep; repeated
    // sweeps drain the rest — exactly the H2C engine's modeled limit.
    let mut beats = Vec::new();
    for _ in 0..4 {
        beats.extend(uifd.service_card());
    }
    assert_eq!(beats.len(), 30);
    for beat in &beats {
        assert!(beat.data.iter().all(|&b| b == beat.user as u8), "payload integrity");
    }
}

#[test]
fn sriov_isolation_for_multi_tenancy() {
    // §III: multi-tenancy was a hard requirement; QDMA's SR-IOV
    // partitions the 2048 queue sets between a bare-metal PF and VM VFs.
    let mut fm = FunctionMap::new();
    fm.add_pf(0, 1024).unwrap();
    fm.add_vf(64, 0, 256).unwrap(); // VM tenant A
    fm.add_vf(65, 0, 256).unwrap(); // VM tenant B
    // Tenants cannot reach each other's queues or the PF's.
    assert!(fm.can_access(64, 1024));
    assert!(!fm.can_access(64, 1281), "tenant A must not reach tenant B");
    assert!(!fm.can_access(64, 0), "tenant must not reach the PF");
    assert!(!fm.can_access(0, 1100), "passthrough: PF must not reach VFs");
    assert_eq!(fm.free_queues(), 2048 - 1536);
}

#[test]
fn replication_and_ec_queue_types_coexist() {
    let mut uifd_rep = Uifd::new(2, 64, IfType::Replication);
    let mut uifd_ec = Uifd::new(2, 64, IfType::ErasureCoding);
    for (uifd, label) in [(&mut uifd_rep, "rep"), (&mut uifd_ec, "ec")] {
        uifd.submit(
            BlockRequest::new(ReqOp::Write, 0, 1024, 0, 0, 7),
            Some(&[7u8; 1024]),
        );
        let reqs = uifd.dispatch(0, 0, 8);
        assert_eq!(reqs.len(), 1, "{label}");
        let beats = uifd.service_card();
        assert_eq!(beats.len(), 1, "{label}");
    }
}

#[test]
fn dfx_swap_preserves_placement_correctness_under_load() {
    // The engine's placement path during a swap (Straw2 fallback) and
    // after it (specialized kernel): the devices come from the map's
    // epoch-keyed cache and equal software CRUSH whichever kernel the
    // card is charged for.
    let map = OsdMap::new(MapBuilder::new().host_alg(BucketAlg::Tree).build(8, 4));
    let mut card = AlveoU280::deliba_k_default();
    let done = card.reconfigure(SimTime::ZERO, RmId::Tree).unwrap();
    let mut devs = Vec::new();

    for x in 0..300u32 {
        // Interleave placements before and after the swap completes.
        let now = if x % 2 == 0 {
            SimTime::from_nanos(x as u64)
        } else {
            done + deliba_k::sim::SimDuration::from_nanos(x as u64)
        };
        map.do_rule_cached(0, x, 3, &mut devs);
        let (_, kernel) = card.place_prefetched(now, Some(RmId::Tree));
        assert_eq!(devs, map.crush().do_rule(0, x, 3), "x={x} via {kernel:?}");
    }
    assert!(card.dfx_fallbacks() > 0, "some placements ran during the swap");
}

#[test]
fn tag_backpressure_propagates_to_submission() {
    // With a tiny tag set, dispatch stalls until completions free tags —
    // the block layer's end-to-end flow control.
    let mut uifd = Uifd::new(1, 8, IfType::Replication);
    for i in 0..32u64 {
        uifd.submit(
            BlockRequest::new(ReqOp::Write, i * 64, 512, 0, 0, i),
            Some(&[i as u8; 512]),
        );
    }
    let mut completed = 0;
    let mut rounds = 0;
    while completed < 32 {
        rounds += 1;
        assert!(rounds < 32, "livelock");
        let reqs = uifd.dispatch(0, 0, 64);
        assert!(reqs.len() <= 8, "never more in flight than tags");
        uifd.service_card();
        for r in &reqs {
            uifd.complete_write(0, 512, r.user_data);
        }
        completed += uifd.reap(0, &reqs).len();
    }
    assert_eq!(uifd.mq.tags().in_use(), 0);
}
