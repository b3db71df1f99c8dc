//! The engine's event queue.
//!
//! [`LaneQueue`] splits the pending-event set into per-lane (or
//! per-OSD) **shards** and merges their frontiers through a small 4-ary
//! min-heap.  The motivating observation is the closed-loop engine's
//! schedule profile: every lane keeps at most a handful of outstanding
//! events, each lane's successors are (almost always) later than the
//! event that spawned them, and cross-lane interleavings only matter at
//! the merge point.  Sharding turns the global heap's `O(log n)` sift
//! over the *whole* pending set into
//!
//! * an `O(1)` head/overflow update inside one shard, plus
//! * an `O(log s)` sift over the *shard frontier* (`s` = shards with
//!   pending work, typically far smaller than the event count).
//!
//! # Determinism is the invariant, not a goal
//!
//! Pop order is a pure function of the global `(SimTime, seq)` key —
//! a single monotonically increasing sequence number spans all shards,
//! so simultaneous events fire in exactly the FIFO scheduling order of
//! one global heap.  The `sharded_pop_order_matches_single_heap`
//! property test holds the queue to a reference `BinaryHeap`'s pop order
//! on random histories.
//!
//! # Shard layout
//!
//! Each shard keeps its earliest event inline in `head` (no pointer
//! chase on the merge path) and the rest in `overflow`, a `VecDeque`
//! kept sorted by `(at, seq)` via a back-scan insert — the monotone
//! pushes that dominate closed-loop traffic append in `O(1)`.  The
//! frontier heap stores `(at, seq, shard)` records without a position
//! index; the rare earlier-than-head push finds its entry with a linear
//! scan before the key-decrease.

use crate::time::SimTime;
use std::collections::VecDeque;

/// One frontier-heap record: the shard's earliest key plus the shard id.
#[derive(Clone, Copy)]
struct Frontier {
    at: SimTime,
    seq: u64,
    shard: u32,
}

impl Frontier {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Frontier-heap arity: 4 keeps parent and children within one or two
/// cache lines and halves the depth of a binary layout.
const ARITY: usize = 4;

/// One shard: earliest event inline, the rest sorted in `overflow`.
struct Shard<E> {
    head: Option<(SimTime, u64, E)>,
    /// Later events, sorted ascending by `(at, seq)`.
    overflow: VecDeque<(SimTime, u64, E)>,
}

impl<E> Shard<E> {
    fn new() -> Self {
        Shard {
            head: None,
            overflow: VecDeque::new(),
        }
    }

    /// Sorted insert.  `seq` is globally maximal at insert time, so the
    /// position depends on `at` alone: after every entry at `≤ at`,
    /// before the first at `> at`.  Monotone pushes append in `O(1)`.
    #[inline]
    fn insert_overflow(&mut self, at: SimTime, seq: u64, payload: E) {
        let mut i = self.overflow.len();
        while i > 0 && self.overflow[i - 1].0 > at {
            i -= 1;
        }
        self.overflow.insert(i, (at, seq, payload));
    }
}

/// A min-ordered queue of timestamped events, sharded by lane, with
/// deterministic global FIFO tie-breaking: pop order is the `(at, seq)`
/// order of one global heap for every schedule history.
pub struct LaneQueue<E> {
    shards: Vec<Shard<E>>,
    /// 4-ary min-heap over the non-empty shards' head keys.
    frontier: Vec<Frontier>,
    next_seq: u64,
    now: SimTime,
    len: usize,
}

impl<E> LaneQueue<E> {
    /// Empty queue with `shards` shards at t = 0.  `_capacity` is not
    /// read: shards grow on demand, so callers may pass 0.
    pub fn new(shards: usize, _capacity: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        LaneQueue {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            frontier: Vec::with_capacity(shards),
            next_seq: 0,
            now: SimTime::ZERO,
            len: 0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events across all shards.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Timestamp of the next pending event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.frontier.first().map(|f| f.at)
    }

    /// Schedule `payload` on `shard` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past or `shard` is out of range.
    pub fn schedule_at(&mut self, shard: usize, at: SimTime, payload: E) {
        assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_entry(shard, at, seq, payload);
    }

    /// Pop the globally next event, advancing virtual time to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.frontier.is_empty() {
            return None;
        }
        Some(self.pop_root())
    }

    /// Semantically `schedule_at(shard, at, payload)` followed by
    /// `pop().unwrap()`, fused.  When the popped root and the pushed
    /// event share a shard — the closed-loop common case, where a lane's
    /// completion reschedules the same lane — the frontier root is
    /// rewritten in place and one `sift_down` replaces the push's
    /// `sift_up` plus the pop's `swap_remove` + `sift_down`.
    pub fn schedule_at_then_pop(&mut self, shard: usize, at: SimTime, payload: E) -> (SimTime, E) {
        assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        let root = match self.frontier.first() {
            // Strictly earlier than every head: the new event is the
            // global minimum (its seq is maximal, so it never wins a
            // tie) and comes straight back without touching the shards.
            Some(f) if at < f.at => None,
            Some(f) => Some(*f),
            None => None,
        };
        let Some(root) = root else {
            self.next_seq += 1;
            self.now = at;
            return (at, payload);
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = root.shard as usize;
        let (rat, _rseq, out) = self.shards[s]
            .head
            .take()
            .expect("frontier entry points at a live shard head");
        debug_assert!(rat >= self.now, "clock went backwards");
        self.now = rat;
        if s == shard {
            let sh = &mut self.shards[s];
            match sh.overflow.front() {
                // The overflow front is the shard's new head iff its
                // time is ≤ `at` (equal times favour the smaller seq).
                Some(f) if f.0 <= at => {
                    let next = sh.overflow.pop_front().expect("front just observed");
                    sh.insert_overflow(at, seq, payload);
                    self.frontier[0] = Frontier { at: next.0, seq: next.1, shard: root.shard };
                    sh.head = Some(next);
                }
                _ => {
                    sh.head = Some((at, seq, payload));
                    self.frontier[0] = Frontier { at, seq, shard: root.shard };
                }
            }
            self.sift_down(0);
        } else {
            self.remove_root(root);
            self.len -= 1;
            self.push_entry(shard, at, seq, payload);
        }
        (rat, out)
    }

    /// Insert an already-sequenced event into its shard, maintaining
    /// the frontier.
    fn push_entry(&mut self, shard: usize, at: SimTime, seq: u64, payload: E) {
        let sh = &mut self.shards[shard];
        match &sh.head {
            None => {
                sh.head = Some((at, seq, payload));
                self.frontier.push(Frontier { at, seq, shard: shard as u32 });
                self.sift_up(self.frontier.len() - 1);
            }
            // Earlier than the head (seq is maximal, so only a strictly
            // earlier time displaces it): the old head moves to the
            // overflow front and the frontier entry's key decreases.
            Some((hat, _, _)) if at < *hat => {
                let old = sh.head.take().expect("head just observed");
                sh.overflow.push_front(old);
                sh.head = Some((at, seq, payload));
                let i = self
                    .frontier
                    .iter()
                    .position(|f| f.shard == shard as u32)
                    .expect("non-empty shard has a frontier entry");
                self.frontier[i] = Frontier { at, seq, shard: shard as u32 };
                self.sift_up(i);
            }
            Some(_) => sh.insert_overflow(at, seq, payload),
        }
        self.len += 1;
    }

    fn pop_root(&mut self) -> (SimTime, E) {
        let root = self.frontier[0];
        let s = root.shard as usize;
        let (at, _seq, payload) = self.shards[s]
            .head
            .take()
            .expect("frontier entry points at a live shard head");
        debug_assert!(at >= self.now, "clock went backwards");
        self.now = at;
        self.len -= 1;
        self.remove_root(root);
        (at, payload)
    }

    /// Replace the frontier root after its shard's head was consumed:
    /// promote the shard's overflow front, or drop the shard from the
    /// frontier when it drained.
    #[inline]
    fn remove_root(&mut self, root: Frontier) {
        let s = root.shard as usize;
        match self.shards[s].overflow.pop_front() {
            Some(next) => {
                self.frontier[0] = Frontier { at: next.0, seq: next.1, shard: root.shard };
                self.shards[s].head = Some(next);
                self.sift_down(0);
            }
            None => {
                self.frontier.swap_remove(0);
                if !self.frontier.is_empty() {
                    self.sift_down(0);
                }
            }
        }
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let moved = self.frontier[i];
        let key = moved.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.frontier[parent].key() <= key {
                break;
            }
            self.frontier[i] = self.frontier[parent];
            i = parent;
        }
        self.frontier[i] = moved;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let moved = self.frontier[i];
        let key = moved.key();
        let len = self.frontier.len();
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            let end = (first + ARITY).min(len);
            let mut min_c = first;
            let mut min_key = self.frontier[first].key();
            for c in first + 1..end {
                let k = self.frontier[c].key();
                if k < min_key {
                    min_c = c;
                    min_key = k;
                }
            }
            if key <= min_key {
                break;
            }
            self.frontier[i] = self.frontier[min_c];
            i = min_c;
        }
        self.frontier[i] = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn events_pop_in_time_order_across_shards() {
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
    fn simultaneous_events_fifo_across_shards() {
        // The global seq spans shards, so same-instant events fire in
        // scheduling order no matter which shard holds them.
        let mut q: LaneQueue<u32> = LaneQueue::new(7, 0);
        for i in 0..100 {
            q.schedule_at((i as usize * 3) % 7, SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i, "FIFO order for equal timestamps");
        }
    }

    #[test]
    fn earlier_than_head_push_displaces_head() {
        let mut q: LaneQueue<u32> = LaneQueue::new(2, 0);
        q.schedule_at(0, SimTime(50), 1);
        q.schedule_at(0, SimTime(40), 2); // decreases shard 0's frontier key
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
    fn fused_same_shard_round_trips() {
        // The closed-loop shape: one event per shard, each pop
        // reschedules its own shard strictly later.
        let mut q: LaneQueue<usize> = LaneQueue::new(3, 0);
        for s in 0..3 {
            q.schedule_at(s, SimTime(10 + s as u64), s);
        }
        let mut t = SimTime::ZERO;
        for step in 0..1000 {
            let (at, lane) = q.schedule_at_then_pop(step % 3, q.now() + SimDuration(30), step % 3);
            assert!(at >= t, "time monotone");
            t = at;
            let _ = lane;
            assert_eq!(q.len(), 3);
        }
    }

    #[test]
    fn len_tracks_through_fused_calls() {
        let mut q: LaneQueue<u32> = LaneQueue::new(2, 0);
        q.schedule_at(0, SimTime(10), 0);
        q.schedule_at(1, SimTime(20), 1);
        assert_eq!(q.len(), 2);
        // Cross-shard fused call: pops shard 0's head, pushes on 1.
        let (at, _) = q.schedule_at_then_pop(1, SimTime(30), 2);
        assert_eq!(at, SimTime(10));
        assert_eq!(q.len(), 2);
        // Direct-return fused call: new event is the global minimum.
        let (at, v) = q.schedule_at_then_pop(0, SimTime(15), 3);
        assert_eq!((at, v), (SimTime(15), 3));
        assert_eq!(q.len(), 2);
    }
}
