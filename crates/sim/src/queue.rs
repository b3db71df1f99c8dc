//! The engine's event queue: [`LaneQueue`], one 4-ary min-heap.  The
//! engine's lanes each keep about one event pending, so a heap over
//! per-lane minima would sift over as many records as this one does.
//! Pop order is a pure function of `(SimTime, seq)`; `seq` counts
//! schedules, so simultaneous events fire in FIFO order, and the
//! `pop_order_matches_reference_heap` proptest checks it against a heap.

use crate::time::SimTime;

/// Heap arity: 4 halves the depth of a binary heap.
const ARITY: usize = 4;

/// A min-ordered event queue with FIFO tie-breaking.  The constructor's
/// `_shards` and the schedule calls' `_shard` name the lane an event
/// belongs to; the queue does not read them.
pub struct LaneQueue<E> {
    /// `((at, seq), slot)` records ordered by their unique `(at, seq)`.
    heap: Vec<((SimTime, u64), u32)>,
    /// Payloads by slot, so sifts move 24-byte records; popped slots go on `free`.
    slots: Vec<E>,
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
}

impl<E: Copy> LaneQueue<E> {
    /// Empty queue at t = 0; neither argument is read, so pass 0.
    pub fn new(_shards: usize, _capacity: usize) -> Self {
        LaneQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&((at, _), _)| at)
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past.
    pub fn schedule_at(&mut self, _shard: usize, at: SimTime, payload: E) {
        let key = (at, self.take_seq(at));
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(payload);
            self.slots.len() as u32 - 1
        });
        self.slots[slot as usize] = payload;
        self.heap.push((key, slot));
        self.sift_up(self.heap.len() - 1);
    }

    /// Pop the next event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let ((at, _), slot) = self.heap.swap_remove(0);
        self.sift_down(0);
        self.free.push(slot);
        self.now = at;
        Some((at, self.slots[slot as usize]))
    }

    /// Semantically `schedule_at(shard, at, payload)` followed by
    /// `pop().unwrap()`, fused.  An event strictly earlier than the top
    /// is the minimum and comes straight back (its seq is maximal, so it
    /// loses every tie); otherwise it takes over the top's record and
    /// slot, the top is returned, and one `sift_down` follows.
    pub fn schedule_at_then_pop(&mut self, _shard: usize, at: SimTime, payload: E) -> (SimTime, E) {
        let key = (at, self.take_seq(at));
        let out = match self.heap.first_mut() {
            Some((top, slot)) if top.0 <= at => {
                let (rat, _) = std::mem::replace(top, key);
                let out = std::mem::replace(&mut self.slots[*slot as usize], payload);
                self.sift_down(0);
                (rat, out)
            }
            _ => (at, payload),
        };
        self.now = out.0;
        out
    }

    /// Check that `at` is not in the past; take the next sequence number.
    fn take_seq(&mut self, at: SimTime) -> u64 {
        assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        self.next_seq += 1;
        self.next_seq - 1
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let moved = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].0 < moved.0 {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = moved;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let Some(&moved) = self.heap.get(i) else { return };
        let mut first = i * ARITY + 1;
        while first < len {
            let (mut min_c, mut min_key) = (first, self.heap[first].0);
            for c in first + 1..(first + ARITY).min(len) {
                let k = self.heap[c].0;
                if k < min_key {
                    min_c = c;
                    min_key = k;
                }
            }
            if moved.0 < min_key {
                break;
            }
            self.heap[i] = self.heap[min_c];
            i = min_c;
            first = i * ARITY + 1;
        }
        self.heap[i] = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn events_pop_in_time_order() {
        let mut q: LaneQueue<u32> = LaneQueue::new(4, 0);
        q.schedule_at(0, SimTime(30), 3);
        q.schedule_at(1, SimTime(10), 1);
        q.schedule_at(2, SimTime(20), 2);
        assert_eq!(q.pop().unwrap(), (SimTime(10), 1));
        assert_eq!(q.pop().unwrap(), (SimTime(20), 2));
        assert_eq!(q.pop().unwrap(), (SimTime(30), 3));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime(30));
    }

    #[test]
    fn simultaneous_events_pop_in_scheduling_order() {
        let mut q: LaneQueue<u32> = LaneQueue::new(7, 0);
        for i in 0..100 {
            q.schedule_at((i as usize * 3) % 7, SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i, "FIFO order for equal timestamps");
        }
    }

    #[test]
    fn later_scheduled_earlier_event_pops_first() {
        let mut q: LaneQueue<u32> = LaneQueue::new(2, 0);
        q.schedule_at(0, SimTime(50), 1);
        q.schedule_at(0, SimTime(40), 2);
        q.schedule_at(1, SimTime(45), 3);
        assert_eq!(q.pop().unwrap(), (SimTime(40), 2));
        assert_eq!(q.pop().unwrap(), (SimTime(45), 3));
        assert_eq!(q.pop().unwrap(), (SimTime(50), 1));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q: LaneQueue<()> = LaneQueue::new(2, 0);
        q.schedule_at(0, SimTime(10), ());
        q.pop();
        q.schedule_at(1, SimTime(5), ());
    }

    #[test]
    fn fused_reschedule_keeps_time_monotone() {
        // The closed-loop shape: one event per lane, each pop
        // reschedules its own lane strictly later.
        let mut q: LaneQueue<usize> = LaneQueue::new(3, 0);
        for s in 0..3 {
            q.schedule_at(s, SimTime(10 + s as u64), s);
        }
        let mut t = SimTime::ZERO;
        for step in 0..1000 {
            let (at, _) = q.schedule_at_then_pop(step % 3, q.now() + SimDuration(30), step % 3);
            assert!(at >= t, "time monotone");
            t = at;
            assert_eq!(q.len(), 3);
        }
    }

    #[test]
    fn len_tracks_through_fused_calls() {
        let mut q: LaneQueue<u32> = LaneQueue::new(2, 0);
        q.schedule_at(0, SimTime(10), 0);
        q.schedule_at(1, SimTime(20), 1);
        assert_eq!(q.len(), 2);
        // Replaces the top: pops the event at 10, keeps the new one.
        let (at, _) = q.schedule_at_then_pop(1, SimTime(30), 2);
        assert_eq!(at, SimTime(10));
        assert_eq!(q.len(), 2);
        // Direct return: the new event is the minimum.
        let (at, v) = q.schedule_at_then_pop(0, SimTime(15), 3);
        assert_eq!((at, v), (SimTime(15), 3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn fused_tie_pops_the_older_event() {
        // Equal times pop in scheduling order, so a fused call at
        // exactly the top's time returns the queued event and keeps
        // the new one.
        let mut q: LaneQueue<u32> = LaneQueue::new(2, 0);
        q.schedule_at(0, SimTime(10), 1);
        assert_eq!(q.schedule_at_then_pop(1, SimTime(10), 2), (SimTime(10), 1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime(10), 2)));
    }
}
