//! Property tests for the simulation substrate: clock monotonicity,
//! queueing-resource conservation, histogram accuracy bounds, and the
//! event queue's pop-order equivalence with a reference heap.

use deliba_sim::{Bandwidth, Histogram, LaneQueue, Server, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Largest scheduling delta, ns.
const MAX_DELTA: u64 = 5_000;

/// The reference queue `LaneQueue` must pop identically to: one
/// `BinaryHeap` ordered by `(at, seq)`, where `seq` counts schedules, so
/// simultaneous events pop in scheduling order.  It offers the calls the
/// differential property test makes and is correct rather than fast.
struct RefQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    next_seq: u64,
    now: SimTime,
}

impl RefQueue {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn schedule_at(&mut self, at: SimTime, payload: u64) {
        self.heap.push(Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let Reverse((at, _, payload)) = self.heap.pop()?;
        self.now = at;
        Some((at, payload))
    }

    /// `schedule_at` then `pop`: what the fused call must equal.
    fn schedule_at_then_pop(&mut self, at: SimTime, payload: u64) -> (SimTime, u64) {
        self.schedule_at(at, payload);
        self.pop().expect("just scheduled")
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }
}

/// One step of a mixed queue history thrown at both `LaneQueue` and
/// the reference heap.
#[derive(Debug, Clone)]
enum QOp {
    /// Schedule `now + delta`.
    Schedule { delta: u64 },
    /// Pop the minimum from both queues.
    Pop,
    /// Fused schedule + pop (the closed loop's hot call).
    Fused { delta: u64 },
}

/// Half the draws land on a few instants (FIFO ties); the rest spread
/// up to [`MAX_DELTA`], so later schedules often land before earlier
/// ones.
fn delta() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, 0u64..=MAX_DELTA]
}

/// Schedules are listed twice, so they outweigh pops two to one and
/// the queue grows deep.
fn qop() -> impl Strategy<Value = QOp> {
    prop_oneof![
        delta().prop_map(|delta| QOp::Schedule { delta }),
        delta().prop_map(|delta| QOp::Schedule { delta }),
        Just(QOp::Pop),
        delta().prop_map(|delta| QOp::Fused { delta }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events always pop in nondecreasing time order, FIFO on ties.
    #[test]
    fn event_queue_monotone(
        times in proptest::collection::vec(0u64..1_000, 1..200),
    ) {
        let mut q: LaneQueue<usize> = LaneQueue::new(0, 0);
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(0, SimTime::from_nanos(t), i);
        }
        let mut last_t = 0;
        let mut last_seq_at_t = 0;
        let mut popped = 0;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t.as_nanos() >= last_t);
            if t.as_nanos() == last_t {
                prop_assert!(idx > last_seq_at_t || popped == 0, "FIFO tie-break");
            }
            last_t = t.as_nanos();
            last_seq_at_t = idx;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// A FIFO server never overlaps requests and never idles while work
    /// is queued (work-conserving): total busy time == Σ service.
    #[test]
    fn server_work_conserving(
        jobs in proptest::collection::vec((0u64..10_000, 1u64..1_000), 1..100),
    ) {
        let mut s = Server::new();
        let mut jobs = jobs;
        jobs.sort_by_key(|&(a, _)| a); // arrivals in time order
        let mut total = 0u64;
        let mut prev_finish = 0u64;
        for (arrive, service) in jobs {
            let (start, finish) = s.begin(
                SimTime::from_nanos(arrive),
                SimDuration::from_nanos(service),
            );
            // No overlap with the previous job, no start before arrival.
            prop_assert!(start.as_nanos() >= arrive);
            prop_assert!(start.as_nanos() >= prev_finish);
            // Work conserving: starts exactly at max(arrival, prev end).
            prop_assert_eq!(start.as_nanos(), arrive.max(prev_finish));
            prop_assert_eq!(finish.as_nanos() - start.as_nanos(), service);
            prev_finish = finish.as_nanos();
            total += service;
        }
        prop_assert_eq!(s.busy_time().as_nanos(), total);
    }

    /// Bandwidth transfers conserve bytes and never beat the line rate.
    #[test]
    fn bandwidth_never_beats_line_rate(
        transfers in proptest::collection::vec(1u64..100_000, 1..50),
    ) {
        let rate = 1e9; // 1 GB/s
        let mut bw = Bandwidth::new(rate, SimDuration::ZERO);
        let mut last = SimTime::ZERO;
        let mut total = 0u64;
        for &bytes in &transfers {
            last = bw.transfer(SimTime::ZERO, bytes);
            total += bytes;
        }
        prop_assert_eq!(bw.bytes_moved(), total);
        let min_ns = (total as f64 / rate * 1e9).floor() as u64;
        prop_assert!(last.as_nanos() + 1 >= min_ns,
            "finished {} < physical minimum {}", last.as_nanos(), min_ns);
    }

    /// Histogram quantiles stay within the documented ~3.1 % relative
    /// error for any sample set.
    #[test]
    fn histogram_error_bounded(
        samples in proptest::collection::vec(1u64..1_000_000, 1..300),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact_max = *sorted.last().unwrap();
        prop_assert_eq!(h.quantile(1.0), exact_max as f64);
        let exact_median = sorted[(sorted.len() - 1) / 2];
        let got = h.quantile_ns(0.5);
        let err = (got as f64 - exact_median as f64).abs() / exact_median as f64;
        prop_assert!(err < 0.05, "median {} vs {} (err {})", got, exact_median, err);
        // Mean is exact (tracked outside the buckets).
        let exact_mean: f64 = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean_ns() - exact_mean).abs() < 1e-6);
    }

    /// The interpolated `Histogram::quantile` stays within one
    /// sub-bucket (`exact/32 + 1` ns) of a sorted-vector reference
    /// model at every quantile the reports use, and is monotone in `q`.
    #[test]
    fn interpolated_quantile_matches_reference_model(
        samples in proptest::collection::vec(1u64..10_000_000, 1..400),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let mut last = f64::NEG_INFINITY;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            // Same rank convention as the histogram: ceil(q·n), 1-based.
            let rank = ((q * n).ceil() as usize).max(1);
            let exact = sorted[rank - 1] as f64;
            let est = h.quantile(q);
            let bound = exact / 32.0 + 1.0;
            prop_assert!(
                (est - exact).abs() <= bound,
                "q={} est={} exact={} bound={}", q, est, exact, bound
            );
            prop_assert!(est >= last, "quantile must be monotone in q");
            prop_assert!(
                est >= *sorted.first().unwrap() as f64
                    && est <= *sorted.last().unwrap() as f64,
                "estimate clamped to the observed range"
            );
            last = est;
        }
    }

    /// For any mixed history — schedules, pops and fused calls —
    /// `LaneQueue` pops exactly the reference heap's `(at, seq)` order.
    #[test]
    fn pop_order_matches_reference_heap(
        ops in proptest::collection::vec(qop(), 1..1_001),
    ) {
        let mut q: LaneQueue<u64> = LaneQueue::new(0, 0);
        let mut reference = RefQueue::new();
        let mut id = 0u64;
        for op in ops {
            match op {
                QOp::Schedule { delta } => {
                    let at = q.now() + SimDuration::from_nanos(delta);
                    q.schedule_at(0, at, id);
                    reference.schedule_at(at, id);
                    id += 1;
                }
                QOp::Pop => prop_assert_eq!(q.pop(), reference.pop()),
                QOp::Fused { delta } => {
                    let at = q.now() + SimDuration::from_nanos(delta);
                    prop_assert_eq!(
                        q.schedule_at_then_pop(0, at, id),
                        reference.schedule_at_then_pop(at, id)
                    );
                    id += 1;
                }
            }
            prop_assert_eq!(q.len(), reference.heap.len());
            prop_assert_eq!(q.peek_time(), reference.peek_time());
            prop_assert_eq!(q.now(), reference.now);
        }
        while let Some(e) = reference.pop() {
            prop_assert_eq!(q.pop(), Some(e));
        }
        prop_assert!(q.is_empty());
    }
}
