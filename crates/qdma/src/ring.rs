//! Descriptor rings with producer/consumer index protocol.
//!
//! QDMA rings follow the PIDX/CIDX convention: the driver writes
//! descriptors and advances the *producer index* (a doorbell write); the
//! hardware fetches descriptors, advances the *consumer index*, and
//! writes it back through the status descriptor so the driver can reclaim
//! slots.  One slot is always left empty to distinguish full from empty.

use crate::descriptor::Descriptor;

/// A single descriptor ring.
#[derive(Debug, Clone)]
pub struct DescriptorRing {
    slots: Vec<Option<Descriptor>>,
    /// Driver-owned producer index (next slot to write).
    pidx: u16,
    /// Hardware-owned consumer index (next slot to fetch).
    cidx: u16,
    posted: u64,
    fetched: u64,
}

impl DescriptorRing {
    /// Ring with `size` slots (power of two, ≥ 2).
    pub fn new(size: u16) -> Self {
        assert!(size >= 2 && size.is_power_of_two(), "ring size {size}");
        DescriptorRing {
            slots: vec![None; size as usize],
            pidx: 0,
            cidx: 0,
            posted: 0,
            fetched: 0,
        }
    }

    /// Ring capacity in slots (one is reserved).
    pub fn capacity(&self) -> usize {
        self.slots.len() - 1
    }

    /// Entries posted but not yet fetched.
    pub fn pending(&self) -> usize {
        let size = self.slots.len() as u16;
        (self.pidx.wrapping_sub(self.cidx) % size) as usize
    }

    /// Free slots available to the driver.
    pub fn free_slots(&self) -> usize {
        self.capacity() - self.pending()
    }

    /// Current producer index (what the doorbell write would carry).
    pub fn pidx(&self) -> u16 {
        self.pidx
    }

    /// Current consumer index (what the status writeback reports).
    pub fn cidx(&self) -> u16 {
        self.cidx
    }

    /// Lifetime counters: (posted, fetched).
    pub fn counters(&self) -> (u64, u64) {
        (self.posted, self.fetched)
    }

    /// Driver side: post one descriptor.  Fails (returning it) when the
    /// ring is full.
    pub fn post(&mut self, desc: Descriptor) -> Result<(), Descriptor> {
        if self.free_slots() == 0 {
            return Err(desc);
        }
        let idx = self.pidx as usize % self.slots.len();
        debug_assert!(self.slots[idx].is_none(), "slot reuse before fetch");
        self.slots[idx] = Some(desc);
        self.pidx = self.pidx.wrapping_add(1) % self.slots.len() as u16;
        self.posted += 1;
        Ok(())
    }

    /// Hardware side: fetch one descriptor, advancing CIDX.  The
    /// allocation-free primitive the batch fetches are built on.
    pub fn fetch_one(&mut self) -> Option<Descriptor> {
        if self.pending() == 0 {
            return None;
        }
        let idx = self.cidx as usize % self.slots.len();
        let desc = self.slots[idx].take().expect("pending slot must be filled");
        self.cidx = self.cidx.wrapping_add(1) % self.slots.len() as u16;
        self.fetched += 1;
        Some(desc)
    }

    /// Hardware side: fetch up to `max` descriptors into caller scratch.
    /// `out` is cleared and filled; returns the count.  No allocation,
    /// even when the ring is empty.
    pub fn fetch_into(&mut self, max: usize, out: &mut Vec<Descriptor>) -> usize {
        out.clear();
        while out.len() < max {
            let Some(desc) = self.fetch_one() else { break };
            out.push(desc);
        }
        out.len()
    }

    /// Hardware side: fetch up to `max` descriptors, advancing CIDX.
    pub fn fetch(&mut self, max: usize) -> Vec<Descriptor> {
        let mut out = Vec::new();
        self.fetch_into(max, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::IfType;

    fn desc(len: u32) -> Descriptor {
        Descriptor::h2c(0x1000, len, IfType::Replication, 0)
    }

    #[test]
    fn capacity_reserves_one_slot() {
        let r = DescriptorRing::new(8);
        assert_eq!(r.capacity(), 7);
        assert_eq!(r.free_slots(), 7);
    }

    #[test]
    fn post_fetch_fifo() {
        let mut r = DescriptorRing::new(8);
        for i in 0..5 {
            r.post(desc(i * 512)).unwrap();
        }
        assert_eq!(r.pending(), 5);
        let batch = r.fetch(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].len, 0);
        assert_eq!(batch[2].len, 1024);
        assert_eq!(r.pending(), 2);
        assert_eq!(r.counters(), (5, 3));
    }

    #[test]
    fn full_ring_rejects() {
        let mut r = DescriptorRing::new(4);
        for _ in 0..3 {
            r.post(desc(512)).unwrap();
        }
        assert!(r.post(desc(512)).is_err());
        r.fetch(1);
        assert!(r.post(desc(512)).is_ok());
    }

    #[test]
    fn wraparound_indices() {
        let mut r = DescriptorRing::new(4);
        for round in 0..100u32 {
            r.post(desc(round)).unwrap();
            r.post(desc(round + 1000)).unwrap();
            let b = r.fetch(2);
            assert_eq!(b.len(), 2);
            assert_eq!(b[0].len, round);
            assert_eq!(b[1].len, round + 1000);
        }
        assert_eq!(r.counters(), (200, 200));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "ring size")]
    fn non_power_of_two_rejected() {
        DescriptorRing::new(6);
    }

    #[test]
    fn fetch_one_matches_fetch() {
        let mut a = DescriptorRing::new(8);
        let mut b = DescriptorRing::new(8);
        for i in 0..5 {
            a.post(desc(i)).unwrap();
            b.post(desc(i)).unwrap();
        }
        for _ in 0..5 {
            assert_eq!(a.fetch_one(), b.fetch(1).into_iter().next());
        }
        assert_eq!(a.fetch_one(), None);
        assert!(b.fetch(1).is_empty());
        assert_eq!(a.counters(), b.counters());
        assert_eq!((a.pidx(), a.cidx()), (b.pidx(), b.cidx()));
    }

    #[test]
    fn fetch_into_reuses_scratch() {
        let mut r = DescriptorRing::new(8);
        let mut out = Vec::new();
        assert_eq!(r.fetch_into(4, &mut out), 0);
        assert!(out.is_empty());
        for i in 0..5 {
            r.post(desc(i)).unwrap();
        }
        assert_eq!(r.fetch_into(3, &mut out), 3);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].len, 2);
        // Scratch is cleared on reuse, not appended to.
        assert_eq!(r.fetch_into(10, &mut out), 2);
        assert_eq!(out.len(), 2);
        assert_eq!(r.counters(), (5, 5));
    }
}
