//! RBD: the virtual-disk layer.
//!
//! A RADOS Block Device image is a linear virtual disk striped over
//! fixed-size RADOS objects (default 4 MiB, "order 22").  The UIFD
//! includes "a DeLiBA-K specific Ceph RBD virtual disk driver" (§III-B);
//! this module provides the address math that driver performs: mapping a
//! block-device byte extent onto the object extents beneath it.

use crate::object::ObjectId;

/// Default object size: 4 MiB.
pub const DEFAULT_OBJECT_SIZE: u64 = 4 * 1024 * 1024;

/// One (object, offset, length) fragment of a virtual-disk extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Backing object.
    pub(crate) oid: ObjectId,
    /// Offset within the object.
    pub offset: u64,
    /// Fragment length.
    pub len: u64,
}

/// An RBD image.
#[derive(Debug, Clone)]
pub struct RbdImage {
    /// Pool holding the image's objects.
    pub pool: u32,
    /// Image identifier (hashed into object names).
    pub(crate) image_id: u64,
    /// Virtual disk size in bytes.
    pub(crate) size: u64,
    /// Stripe object size in bytes (power of two).
    pub object_size: u64,
}

impl RbdImage {
    /// An image of `size` bytes with 4 MiB objects.
    pub fn new(pool: u32, image_id: u64, size: u64) -> Self {
        Self::with_object_size(pool, image_id, size, DEFAULT_OBJECT_SIZE)
    }

    /// An image with explicit object size.
    pub(crate) fn with_object_size(pool: u32, image_id: u64, size: u64, object_size: u64) -> Self {
        assert!(object_size.is_power_of_two(), "object size must be 2^n");
        assert!(size > 0);
        RbdImage {
            pool,
            image_id,
            size,
            object_size,
        }
    }

    /// Object name for stripe `index` — a SplitMix-style mix of image id
    /// and index so names spread over the PG space.
    fn object_name(&self, index: u64) -> u64 {
        let mut z = self
            .image_id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The backing object of a virtual-disk byte offset.
    pub fn object_of(&self, offset: u64) -> (ObjectId, u64) {
        assert!(offset < self.size, "offset beyond image");
        let index = offset / self.object_size;
        (
            ObjectId::new(self.pool, self.object_name(index)),
            offset % self.object_size,
        )
    }

    /// Split a virtual extent `[offset, offset + len)` into per-object
    /// fragments (what the RBD driver turns one block request into).
    pub fn extents(&self, offset: u64, len: u64) -> Vec<Extent> {
        assert!(len > 0, "zero-length extent");
        assert!(
            offset + len <= self.size,
            "extent beyond image end: {offset}+{len} > {}",
            self.size
        );
        let mut out = Vec::new();
        let mut cur = offset;
        let mut remaining = len;
        while remaining > 0 {
            let (oid, obj_off) = self.object_of(cur);
            let span = (self.object_size - obj_off).min(remaining);
            out.push(Extent {
                oid,
                offset: obj_off,
                len: span,
            });
            cur += span;
            remaining -= span;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> RbdImage {
        RbdImage::new(1, 42, 1 << 30) // 1 GiB
    }

    #[test]
    fn small_io_is_single_extent() {
        let img = image();
        let e = img.extents(4096, 4096);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].offset, 4096);
        assert_eq!(e[0].len, 4096);
    }

    #[test]
    fn object_boundary_split() {
        let img = image();
        let e = img.extents(DEFAULT_OBJECT_SIZE - 1024, 4096);
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].len, 1024);
        assert_eq!(e[1].offset, 0);
        assert_eq!(e[1].len, 3072);
        assert_ne!(e[0].oid, e[1].oid);
    }

    #[test]
    fn extents_cover_exactly() {
        let img = image();
        for (off, len) in [(0u64, 10u64 << 20), (123_456, 8 << 20), (4096, 512)] {
            let ex = img.extents(off, len);
            let total: u64 = ex.iter().map(|e| e.len).sum();
            assert_eq!(total, len);
            // Contiguity: each fragment ends at an object boundary except
            // the last.
            for f in &ex[..ex.len() - 1] {
                assert_eq!(f.offset + f.len, img.object_size);
            }
        }
    }

    #[test]
    fn names_deterministic_and_spread() {
        let img = image();
        let (a1, _) = img.object_of(0);
        let (a2, _) = img.object_of(0);
        assert_eq!(a1, a2);
        // Adjacent stripes get well-separated names.
        let names: Vec<u64> = (0..64)
            .map(|i| img.object_of(i * DEFAULT_OBJECT_SIZE).0.name)
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "no name collisions");
    }

    #[test]
    fn different_images_do_not_collide() {
        let a = RbdImage::new(1, 7, 1 << 30);
        let b = RbdImage::new(1, 8, 1 << 30);
        let overlap = (0..128u64)
            .filter(|&i| {
                a.object_of(i * DEFAULT_OBJECT_SIZE).0 == b.object_of(i * DEFAULT_OBJECT_SIZE).0
            })
            .count();
        assert_eq!(overlap, 0);
    }

    #[test]
    #[should_panic(expected = "beyond image")]
    fn out_of_range_rejected() {
        image().extents(1 << 30, 1);
    }
}
