//! Objects and object stores.
//!
//! Objects are stored page-sparsely (4 KiB pages) so that partial writes
//! into large RBD objects cost only the bytes actually written — the
//! same reason BlueStore never rewrites whole objects for small I/O.

use bytes::Bytes;
use std::collections::BTreeMap;

/// Page granularity of the store.
const PAGE: usize = 4096;

/// A RADOS-style object identifier: pool + 64-bit object name hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId {
    /// Owning pool.
    pub pool: u32,
    /// Object name (already hashed; RBD object names hash the image id
    /// and stripe index).
    pub name: u64,
}

impl ObjectId {
    /// Construct.
    pub fn new(pool: u32, name: u64) -> Self {
        ObjectId { pool, name }
    }

    /// The 32-bit placement seed CRUSH hashes (Ceph uses the low bits of
    /// the name hash).
    pub fn placement_seed(&self) -> u32 {
        (self.name ^ (self.name >> 32)) as u32
    }
}

/// A stored object: sparse pages + logical length + version.
#[derive(Debug, Clone, Default)]
struct StoredObject {
    pages: BTreeMap<u32, Box<[u8; PAGE]>>,
    len: usize,
    version: u64,
}

impl StoredObject {
    fn write_at(&mut self, offset: usize, data: &[u8]) {
        let mut cur = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let page_no = (cur / PAGE) as u32;
            let in_page = cur % PAGE;
            let n = rest.len().min(PAGE - in_page);
            let page = self
                .pages
                .entry(page_no)
                .or_insert_with(|| Box::new([0u8; PAGE]));
            page[in_page..in_page + n].copy_from_slice(&rest[..n]);
            cur += n;
            rest = &rest[n..];
        }
        self.len = self.len.max(offset + data.len());
        self.version += 1;
    }

    /// Replace the whole object with `data`, recycling page allocations.
    /// Pages the new contents cover are overwritten in place (tail
    /// zero-filled); pages beyond the new extent are dropped so sparse
    /// reads past the end still see zeros.
    fn replace(&mut self, data: &[u8]) {
        let npages = data.len().div_ceil(PAGE) as u32;
        // Drop pages past the new extent (split_off keeps the prefix).
        let tail = self.pages.split_off(&npages);
        drop(tail);
        for (i, chunk) in data.chunks(PAGE).enumerate() {
            let page = self
                .pages
                .entry(i as u32)
                .or_insert_with(|| Box::new([0u8; PAGE]));
            page[..chunk.len()].copy_from_slice(chunk);
            if chunk.len() < PAGE {
                page[chunk.len()..].fill(0);
            }
        }
        self.len = data.len();
        self.version += 1;
    }

    fn read_at(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(offset, &mut out);
        out
    }

    /// Fill `out` (already zeroed, `out.len()` bytes) from `offset`.
    fn read_into(&self, offset: usize, out: &mut [u8]) {
        let len = out.len();
        let mut cur = offset;
        let mut filled = 0;
        while filled < len {
            let page_no = (cur / PAGE) as u32;
            let in_page = cur % PAGE;
            let n = (len - filled).min(PAGE - in_page);
            if let Some(page) = self.pages.get(&page_no) {
                out[filled..filled + n].copy_from_slice(&page[in_page..in_page + n]);
            }
            cur += n;
            filled += n;
        }
    }

    /// Byte equality over `[0, len)` without copying: absent (sparse)
    /// pages read as zeros, and bytes of the last page past `len` are
    /// ignored.
    fn same_content(&self, other: &StoredObject) -> bool {
        let len = self.len;
        if len != other.len {
            return false;
        }
        (0..len.div_ceil(PAGE)).all(|p| {
            let n = PAGE.min(len - p * PAGE);
            let a = self.pages.get(&(p as u32)).map(|pg| &pg[..n]);
            let b = other.pages.get(&(p as u32)).map(|pg| &pg[..n]);
            match (a, b) {
                (Some(a), Some(b)) => a == b,
                (Some(z), None) | (None, Some(z)) => z.iter().all(|&b| b == 0),
                (None, None) => true,
            }
        })
    }
}

/// One OSD's (or one shard's) object store.
#[derive(Debug, Default, Clone)]
pub struct ObjectStore {
    objects: BTreeMap<ObjectId, StoredObject>,
}

impl ObjectStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write (replace) a whole object; returns the new version.  An
    /// existing object's page allocations are reused rather than freed
    /// and reallocated — full-object overwrites (EC shards, replication
    /// full writes) are the store's hottest path.
    pub fn write(&mut self, id: ObjectId, data: &[u8]) -> u64 {
        let obj = self.objects.entry(id).or_default();
        obj.replace(data);
        obj.version
    }

    /// Partial overwrite at `offset`, extending the object if needed;
    /// returns the new version.
    pub fn write_at(&mut self, id: ObjectId, offset: usize, data: &[u8]) -> u64 {
        let obj = self.objects.entry(id).or_default();
        obj.write_at(offset, data);
        obj.version
    }

    /// Read the whole object.
    pub fn read(&self, id: ObjectId) -> Option<Bytes> {
        let obj = self.objects.get(&id)?;
        Some(Bytes::from(obj.read_at(0, obj.len)))
    }

    /// Read `len` bytes at `offset` (zero-filled past the end, like a
    /// sparse RBD object).
    pub fn read_at(&self, id: ObjectId, offset: usize, len: usize) -> Bytes {
        let mut out = Vec::new();
        self.read_at_into(id, offset, len, &mut out);
        Bytes::from(out)
    }

    /// [`ObjectStore::read_at`] into a caller-supplied buffer — the
    /// allocation-free form the engine's closed loop uses (`out` is
    /// resized to `len` and fully overwritten).
    pub fn read_at_into(&self, id: ObjectId, offset: usize, len: usize, out: &mut Vec<u8>) {
        out.clear();
        out.resize(len, 0);
        if let Some(obj) = self.objects.get(&id) {
            obj.read_into(offset, out);
        }
    }

    /// Current version of an object (None if absent).
    pub fn version(&self, id: ObjectId) -> Option<u64> {
        self.objects.get(&id).map(|o| o.version)
    }

    /// Stored length of an object (None if absent).
    pub fn peek_len(&self, id: ObjectId) -> Option<usize> {
        self.objects.get(&id).map(|o| o.len)
    }

    /// Remove an object.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        self.objects.remove(&id).is_some()
    }

    /// Object count.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Do object `id` here and object `other_id` in `other` hold the
    /// same bytes?  Compares the stored pages in place (deep scrub's
    /// copy-free check); false when the lengths differ or either
    /// object is absent.
    pub fn same_content(&self, id: ObjectId, other: &ObjectStore, other_id: ObjectId) -> bool {
        match (self.objects.get(&id), other.objects.get(&other_id)) {
            (Some(a), Some(b)) => a.same_content(b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_version_cycle() {
        let mut s = ObjectStore::new();
        let id = ObjectId::new(1, 42);
        assert_eq!(s.write(id, b"v1"), 1);
        assert_eq!(s.write(id, b"v2"), 2);
        assert_eq!(&s.read(id).unwrap()[..], b"v2");
        assert_eq!(s.version(id), Some(2));
        assert!(s.remove(id));
        assert!(s.read(id).is_none());
    }

    #[test]
    fn write_replaces_whole_object() {
        let mut s = ObjectStore::new();
        let id = ObjectId::new(0, 9);
        s.write(id, &[0xAA; 10_000]);
        s.write(id, b"short");
        assert_eq!(s.peek_len(id), Some(5));
        assert_eq!(&s.read(id).unwrap()[..], b"short");
    }

    #[test]
    fn write_at_extends_and_overwrites() {
        let mut s = ObjectStore::new();
        let id = ObjectId::new(0, 1);
        s.write_at(id, 4, b"abcd");
        assert_eq!(&s.read(id).unwrap()[..], b"\0\0\0\0abcd");
        s.write_at(id, 0, b"XY");
        assert_eq!(&s.read(id).unwrap()[..], b"XY\0\0abcd");
        assert_eq!(s.version(id), Some(2));
    }

    #[test]
    fn sparse_high_offset_write_is_cheap() {
        let mut s = ObjectStore::new();
        let id = ObjectId::new(0, 3);
        // Write 4 KiB at the end of a 4 MiB object: only one page plus
        // bookkeeping may exist.
        s.write_at(id, 4 * 1024 * 1024 - 4096, &[7u8; 4096]);
        assert_eq!(s.peek_len(id), Some(4 * 1024 * 1024));
        let r = s.read_at(id, 4 * 1024 * 1024 - 4096, 4096);
        assert!(r.iter().all(|&b| b == 7));
        // Middle of the object reads zeros.
        let mid = s.read_at(id, 1024 * 1024, 64);
        assert!(mid.iter().all(|&b| b == 0));
    }

    #[test]
    fn cross_page_write_read() {
        let mut s = ObjectStore::new();
        let id = ObjectId::new(0, 4);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        s.write_at(id, 1000, &data);
        assert_eq!(&s.read_at(id, 1000, 10_000)[..], &data[..]);
    }

    #[test]
    fn read_at_is_sparse() {
        let mut s = ObjectStore::new();
        let id = ObjectId::new(0, 2);
        s.write(id, b"hello");
        let r = s.read_at(id, 3, 6);
        assert_eq!(&r[..], b"lo\0\0\0\0");
        // Absent object reads zeros.
        let r = s.read_at(ObjectId::new(0, 99), 0, 4);
        assert_eq!(&r[..], b"\0\0\0\0");
    }

    #[test]
    fn placement_seed_mixes_pools_and_names() {
        let a = ObjectId::new(1, 100).placement_seed();
        let b = ObjectId::new(1, 101).placement_seed();
        assert_ne!(a, b);
    }

    #[test]
    fn counters() {
        let mut s = ObjectStore::new();
        let id = ObjectId::new(0, 1);
        s.write(id, &[0u8; 100]);
        s.read(id);
        s.read_at(id, 0, 50);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn same_content_treats_holes_as_zero_pages() {
        let (a, b) = (ObjectId::new(0, 1), ObjectId::new(0, 2));
        let mut s = ObjectStore::new();
        // `a` has a hole at page 0; `b` stores that page explicitly.
        s.write_at(a, PAGE, &[5u8; 100]);
        s.write_at(b, 0, &[0u8; PAGE]);
        s.write_at(b, PAGE, &[5u8; 100]);
        assert!(s.same_content(a, &s, b));
        assert!(s.same_content(b, &s, a));
        // A non-zero byte in the explicit page breaks the equality.
        s.write_at(b, 17, &[1]);
        assert!(!s.same_content(a, &s, b));
        assert!(!s.same_content(b, &s, a));
    }

    #[test]
    fn same_content_compares_lengths_and_the_partial_last_page() {
        let id = ObjectId::new(0, 1);
        let data: Vec<u8> = (0..PAGE + 10).map(|i| (i % 251) as u8).collect();
        let (mut x, mut y) = (ObjectStore::new(), ObjectStore::new());
        x.write(id, &data);
        y.write(id, &data);
        assert!(x.same_content(id, &y, id));
        // A flip inside the 10-byte tail of the last page is seen.
        let mut flipped = data.clone();
        flipped[PAGE + 9] ^= 0x80;
        y.write(id, &flipped);
        assert!(!x.same_content(id, &y, id));
        // Equal bytes but one byte longer (a trailing zero): unequal.
        let mut longer = data.clone();
        longer.push(0);
        y.write(id, &longer);
        assert!(!x.same_content(id, &y, id));
        assert!(!y.same_content(id, &x, id));
        // Shrinking back to the same bytes restores equality.
        y.write(id, &data);
        assert!(x.same_content(id, &y, id));
    }

    #[test]
    fn same_content_is_false_for_an_absent_object() {
        let (id, missing) = (ObjectId::new(0, 1), ObjectId::new(0, 9));
        let mut s = ObjectStore::new();
        s.write(id, &[]);
        assert!(s.same_content(id, &s, id));
        assert!(!s.same_content(id, &s, missing));
        assert!(!s.same_content(missing, &s, id));
        assert!(!s.same_content(missing, &s, missing));
    }
}
