//! The UIFD datapath end-to-end: io_uring → DMQ → QDMA → accelerator.
//!
//! ```text
//! cargo run --release --example uifd_datapath
//! ```
//!
//! Drives real bytes through the structural stack the paper builds:
//! SQEs enter a kernel-polled io_uring instance, become block requests
//! in the scheduler-bypassing DMQ, turn into 128-byte QDMA descriptors,
//! and the descriptor engine streams the payload to the card — where
//! the CRUSH accelerator is charged for the placement the cluster map
//! resolves for it.

use deliba_k::blkmq::{BlockRequest, ReqOp};
use deliba_k::cluster::OsdMap;
use deliba_k::core::Uifd;
use deliba_k::crush::MapBuilder;
use deliba_k::fpga::accel::table_i;
use deliba_k::fpga::AlveoU280;
use deliba_k::sim::SimTime;
use deliba_k::uring::{Cqe, IoUring, RingMode, Sqe};

fn main() {
    // 1. The application side: one kernel-polled io_uring instance with
    //    a registered buffer (the zero-copy path).
    let mut ring = IoUring::setup(64, RingMode::KernelPolled).expect("setup");
    let buf = ring.bufs.register(bytes::BytesMut::zeroed(4096));
    let payload: Vec<u8> = (0..4096).map(|i| (i * 31 % 256) as u8).collect();
    ring.bufs.fill(buf, &payload);
    assert!(ring.prepare(Sqe::write(0, 0x10_0000, buf, 4096, 1001)));
    println!("SQE queued (kernel-polled: no syscall will be charged)");

    // 2. The kernel side: UIFD with 3 aligned core↔hctx↔QDMA queues.
    let mut uifd = Uifd::deliba_k_default();

    // The io_uring "kernel poller" turns SQEs into block requests.
    let mut submitted = Vec::new();
    ring.enter(&mut |sqe: &Sqe, bufs: &mut deliba_k::uring::BufRegistry| {
        let data = bufs.snapshot(sqe.buf_index, sqe.len as usize).unwrap();
        let req = BlockRequest::new(
            ReqOp::Write,
            sqe.offset / 512,
            sqe.len,
            0, // submitting CPU 0 → hctx 0 → QDMA queue 0
            0,
            sqe.user_data,
        );
        uifd.submit(req, Some(&data));
        submitted.push(req);
        Cqe::ok(sqe.user_data, sqe.len)
    });
    println!("UIFD accepted the request on CPU 0 (DMQ bypass, no scheduler)");

    // 3. Dispatch: DMQ hands the request a driver tag and posts a
    //    128-byte H2C descriptor into QDMA queue 0.
    let dispatched = uifd.dispatch(0, 0, 16);
    println!(
        "dispatched {} request(s); driver tag {:?}; QDMA H2C pending: {}",
        dispatched.len(),
        dispatched[0].tag,
        uifd.qdma.queue(0).unwrap().h2c.pending(),
    );

    // 4. The descriptor engine fetches and streams the payload.
    let beats = uifd.service_card();
    assert_eq!(beats.len(), 1);
    assert_eq!(&beats[0].data[..], &payload[..], "payload bit-exact at the card");
    println!("descriptor engine streamed {} bytes to the card", beats[0].data.len());

    // 5. The CRUSH placement for the object this write belongs to: the
    //    map's epoch-keyed cache resolves the OSDs, and the card is
    //    charged the placement kernel's cycles.
    let map = OsdMap::new(MapBuilder::new().build(2, 16)); // the paper's 32-OSD testbed
    let mut osds = Vec::new();
    map.do_rule_cached(0, 0xD3B5, 2, &mut osds);
    let mut card = AlveoU280::deliba_k_default();
    let (time, kernel) = card.place_prefetched(SimTime::ZERO, None);
    println!(
        "{kernel:?} accelerator placed the object on OSDs {osds:?} in {time} ({} cycles at 235 MHz)",
        table_i(kernel).rtl_cycles.1
    );
    assert_eq!(
        osds,
        map.crush().do_rule(0, 0xD3B5, 2),
        "identical to software CRUSH"
    );

    // 6. Completion: post through the completion engine, reap, release
    //    the tag, and the CQE is already in the application's CQ.
    uifd.complete_write(0, 4096, 1001);
    let done = uifd.reap(0, &dispatched);
    assert_eq!(done, vec![1001]);
    let cqe = ring.peek_cqe().expect("completion available");
    assert!(cqe.is_ok());
    println!(
        "completion reaped (user_data {}), tags in use: {}",
        cqe.user_data,
        uifd.mq.tags().in_use()
    );
    println!("\nfull datapath verified: SQE → DMQ → QDMA descriptor → card → CQE");
}
