//! Objects and object stores.
//!
//! Objects are stored page-sparsely (4 KiB pages) so that partial writes
//! into large RBD objects cost only the bytes actually written — the
//! same reason BlueStore never rewrites whole objects for small I/O.
//!
//! Pages are reference-counted and copy-on-write, so the copies of one
//! replicated object can hold the same page allocations: a replica
//! write takes the primary's pages for every page it covers whole
//! (`ObjectStore::write_at_from`), and backfill or a scrub repair
//! shares the whole source copy (`ObjectStore::copy_from`).  Every
//! mutation either replaces a page it covers whole or unshares the page
//! first (`Rc::make_mut`), so a write or a bit flip on one copy never
//! reaches another.  Pointer-identical pages are therefore equal by
//! construction, which is what lets [`ObjectStore::same_content`] skip
//! them; every other page is compared byte for byte.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Page granularity of the store.
const PAGE: usize = 4096;

/// One stored page, shared between copies until one of them writes it.
type Page = Rc<[u8; PAGE]>;

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

/// The hasher of maps keyed by [`ObjectId`]: each word is folded in
/// with one multiply and a rotate, and the rotate moves the product's
/// well-mixed high bits down to the low bits a table indexes by.
///
/// It drops std's SipHash protection against keys crafted to collide.
/// That is safe here because an object name is never raw outside
/// input: every name the program stores is already a SplitMix output
/// of its own hashing (`RbdImage::object_name`, and the engine's
/// per-write EC object names).
#[derive(Debug, Default, Clone, Copy)]
pub struct OidHasher(u64);

impl Hasher for OidHasher {
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by [`ObjectId`], hashed with [`OidHasher`].  For
/// maps that are only looked up, never walked in id order.
pub type OidMap<V> = HashMap<ObjectId, V, BuildHasherDefault<OidHasher>>;

/// A fresh page holding `bytes` followed by zeros.
fn new_page(bytes: &[u8]) -> Page {
    if bytes.len() == PAGE {
        // A whole page: one allocation and one copy, no zeroing first.
        return Rc::<[u8]>::from(bytes).try_into().expect("one page");
    }
    let mut page = Rc::new([0u8; PAGE]);
    Rc::get_mut(&mut page).expect("fresh page")[..bytes.len()].copy_from_slice(bytes);
    page
}

/// A stored object: sparse pages + logical length + version.
///
/// The page table is sorted by page number and sized exactly by its
/// first write, so a one-page object costs one 16-byte entry and a
/// sparse high-offset write stores only the pages it touches.  Absent
/// pages read as zeros.
#[derive(Debug, Clone, Default)]
struct StoredObject {
    pages: Vec<(u32, Page)>,
    len: usize,
    version: u64,
}

impl StoredObject {
    /// Table index of the first stored page numbered `>= page_no`.
    fn lower_bound(&self, page_no: u32) -> usize {
        self.pages.partition_point(|&(p, _)| p < page_no)
    }

    /// Does table index `i` hold page `page_no`?
    fn holds(&self, i: usize, page_no: u32) -> bool {
        self.pages.get(i).is_some_and(|&(p, _)| p == page_no)
    }

    /// The stored page `page_no`, if any.
    fn page(&self, page_no: u32) -> Option<&Page> {
        let i = self.lower_bound(page_no);
        self.holds(i, page_no).then(|| &self.pages[i].1)
    }

    /// Store `page` as page `page_no`, whose slot is table index `i`.
    fn set_page(&mut self, i: usize, page_no: u32, page: Page) {
        if self.holds(i, page_no) {
            self.pages[i].1 = page;
        } else {
            self.pages.insert(i, (page_no, page));
        }
    }

    /// Set page `page_no` (slot `i`) to `bytes` followed by zeros.  A
    /// page no other copy holds is overwritten in place; a shared page
    /// is replaced, so its other holders keep their bytes.
    fn put_page(&mut self, i: usize, page_no: u32, bytes: &[u8]) {
        let held = self.pages.get_mut(i).filter(|(p, _)| *p == page_no);
        match held.and_then(|(_, page)| Rc::get_mut(page)) {
            Some(page) => {
                page[..bytes.len()].copy_from_slice(bytes);
                page[bytes.len()..].fill(0);
            }
            None => self.set_page(i, page_no, new_page(bytes)),
        }
    }

    /// Write `data` at `offset`.  With `src` (a copy that already holds
    /// `data` at this extent), every page the extent covers whole is
    /// shared from `src` instead of copied; the partial edge pages are
    /// always copied from `data`, unsharing them first.
    fn write_at(&mut self, offset: usize, data: &[u8], src: Option<&StoredObject>) {
        if !data.is_empty() {
            let first = (offset / PAGE) as u32;
            let last = ((offset + data.len() - 1) / PAGE) as u32;
            let mut i = self.lower_bound(first);
            let missing = (last - first + 1) as usize - (self.lower_bound(last + 1) - i);
            // A table's first write sizes it exactly (a one-page object
            // keeps one entry); later growth is amortised, so filling a
            // large object page by page copies the table O(log n) times.
            if self.pages.is_empty() {
                self.pages.reserve_exact(missing);
            } else {
                self.pages.reserve(missing);
            }
            let mut cur = offset;
            let mut rest = data;
            while !rest.is_empty() {
                let page_no = (cur / PAGE) as u32;
                let in_page = cur % PAGE;
                let n = rest.len().min(PAGE - in_page);
                match src.and_then(|s| s.page(page_no)).filter(|_| n == PAGE) {
                    Some(shared) => {
                        debug_assert_eq!(&shared[..], &rest[..PAGE], "source holds the data");
                        self.set_page(i, page_no, Rc::clone(shared));
                    }
                    None if n == PAGE => self.put_page(i, page_no, &rest[..PAGE]),
                    None => {
                        if !self.holds(i, page_no) {
                            self.set_page(i, page_no, new_page(&[]));
                        }
                        let page = Rc::make_mut(&mut self.pages[i].1);
                        page[in_page..in_page + n].copy_from_slice(&rest[..n]);
                    }
                }
                i += 1;
                cur += n;
                rest = &rest[n..];
            }
        }
        self.len = self.len.max(offset + data.len());
        self.version += 1;
    }

    /// Replace the whole object with `data`, recycling page allocations
    /// no other copy shares.  Pages the new contents cover are
    /// overwritten (tail zero-filled); pages beyond the new extent are
    /// dropped so sparse reads past the end still see zeros.
    fn replace(&mut self, data: &[u8]) {
        let npages = data.len().div_ceil(PAGE);
        let keep = self.lower_bound(npages as u32);
        self.pages.truncate(keep);
        self.pages.reserve_exact(npages - keep);
        for (i, chunk) in data.chunks(PAGE).enumerate() {
            self.put_page(i, i as u32, chunk);
        }
        self.len = data.len();
        self.version += 1;
    }

    /// Replace the whole object with `src`'s bytes by sharing every one
    /// of its pages.
    fn share_all(&mut self, src: &StoredObject) {
        self.pages.clear();
        self.pages.reserve_exact(src.pages.len());
        self.pages
            .extend(src.pages.iter().map(|(p, page)| (*p, Rc::clone(page))));
        self.len = src.len;
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
        let mut i = self.lower_bound((offset / PAGE) as u32);
        while filled < len {
            let page_no = (cur / PAGE) as u32;
            let in_page = cur % PAGE;
            let n = (len - filled).min(PAGE - in_page);
            if self.holds(i, page_no) {
                out[filled..filled + n].copy_from_slice(&self.pages[i].1[in_page..in_page + n]);
                i += 1;
            }
            cur += n;
            filled += n;
        }
    }

    /// Byte equality over `[0, len)` without copying: absent (sparse)
    /// pages read as zeros, bytes of the last page past `len` are
    /// ignored, and a page both copies share is equal without a look.
    fn same_content(&self, other: &StoredObject) -> bool {
        let len = self.len;
        if len != other.len {
            return false;
        }
        let bytes = |p: u32| PAGE.min(len.saturating_sub(p as usize * PAGE));
        let zero = |&(p, ref page): &(u32, Page)| page[..bytes(p)].iter().all(|&b| b == 0);
        let (a, b) = (&self.pages, &other.pages);
        let (mut i, mut j) = (0, 0);
        loop {
            let order = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.0.cmp(&y.0),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => return true,
            };
            let equal = match order {
                Ordering::Equal => {
                    let ((p, x), (_, y)) = (&a[i], &b[j]);
                    i += 1;
                    j += 1;
                    Rc::ptr_eq(x, y) || x[..bytes(*p)] == y[..bytes(*p)]
                }
                Ordering::Less => {
                    i += 1;
                    zero(&a[i - 1])
                }
                Ordering::Greater => {
                    j += 1;
                    zero(&b[j - 1])
                }
            };
            if !equal {
                return false;
            }
        }
    }
}

/// One OSD's (or one shard's) object store.  Every access is by id,
/// so the objects sit in a hash map; the walks that need id order go
/// over the cluster's directories instead.
#[derive(Debug, Default, Clone)]
pub struct ObjectStore {
    objects: OidMap<StoredObject>,
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
        obj.write_at(offset, data, None);
        obj.version
    }

    /// [`ObjectStore::write_at`] on a replica: `primary` already holds
    /// `data` at `offset` in its copy of `id`, so every page the extent
    /// covers whole is shared from there rather than copied, and only
    /// the partial edge pages are copied from `data`.  Returns the new
    /// version.
    pub(crate) fn write_at_from(
        &mut self,
        id: ObjectId,
        offset: usize,
        data: &[u8],
        primary: &ObjectStore,
    ) -> u64 {
        let obj = self.objects.entry(id).or_default();
        obj.write_at(offset, data, primary.objects.get(&id));
        obj.version
    }

    /// Replace object `id` with `src`'s copy of it, sharing every page
    /// (backfill and scrub repair).  Returns the new version, or `None`
    /// (nothing written) when `src` does not hold the object.
    pub(crate) fn copy_from(&mut self, id: ObjectId, src: &ObjectStore) -> Option<u64> {
        let from = src.objects.get(&id)?;
        let obj = self.objects.entry(id).or_default();
        obj.share_all(from);
        Some(obj.version)
    }

    /// Read the whole object.
    pub fn read(&self, id: ObjectId) -> Option<Vec<u8>> {
        let obj = self.objects.get(&id)?;
        Some(obj.read_at(0, obj.len))
    }

    /// Read `len` bytes at `offset` (zero-filled past the end, like a
    /// sparse RBD object).
    pub fn read_at(&self, id: ObjectId, offset: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.read_at_into(id, offset, len, &mut out);
        out
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
    fn many_sequentially_named_objects_read_back() {
        let mut s = ObjectStore::new();
        for i in 0..10_000u64 {
            s.write(ObjectId::new(0, i), &i.to_le_bytes());
        }
        assert_eq!(s.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(s.read(ObjectId::new(0, i)), Some(i.to_le_bytes().to_vec()));
        }
        assert!(s.read(ObjectId::new(1, 0)).is_none());
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
    /// Bytes of page `page_no` of `id` in `s`, as a shared pointer.
    fn page_of(s: &ObjectStore, id: ObjectId, page_no: u32) -> Page {
        Rc::clone(s.objects[&id].page(page_no).expect("page stored"))
    }

    /// A three-page object in `primary` and a copy in `replica` that
    /// shares every page.
    fn shared_pair() -> (ObjectStore, ObjectStore, ObjectId, Vec<u8>) {
        let id = ObjectId::new(0, 1);
        let data: Vec<u8> = (0..3 * PAGE).map(|i| (i % 253) as u8 + 1).collect();
        let (mut primary, mut replica) = (ObjectStore::new(), ObjectStore::new());
        primary.write(id, &data);
        assert_eq!(replica.copy_from(id, &primary), Some(1));
        for p in 0..3 {
            assert!(Rc::ptr_eq(
                &page_of(&primary, id, p),
                &page_of(&replica, id, p)
            ));
        }
        assert!(primary.same_content(id, &replica, id));
        (primary, replica, id, data)
    }

    #[test]
    fn a_mutation_of_a_shared_page_never_reaches_the_other_copy() {
        type Mutation = fn(&mut ObjectStore, ObjectId);
        let mutations: [(&str, Mutation); 4] = [
            ("partial write_at", |s, id| {
                s.write_at(id, PAGE + 100, &[0xEE; 50]);
            }),
            ("whole-page write_at", |s, id| {
                s.write_at(id, PAGE, &[0xEE; PAGE]);
            }),
            ("replace", |s, id| {
                s.write(id, &[0xEE; 2 * PAGE + 7]);
            }),
            ("one-byte flip", |s, id| {
                let b = s.read_at(id, 2 * PAGE + 9, 1)[0];
                s.write_at(id, 2 * PAGE + 9, &[b ^ 0x01]);
            }),
        ];
        for (name, mutate) in mutations {
            // Mutate either side of the pair: neither copy owns the pages.
            for mutate_replica in [true, false] {
                let (mut primary, mut replica, id, data) = shared_pair();
                let (changed, other) = if mutate_replica {
                    (&mut replica, &mut primary)
                } else {
                    (&mut primary, &mut replica)
                };
                mutate(changed, id);
                assert_eq!(&other.read(id).unwrap()[..], &data[..], "{name}");
                assert!(!other.same_content(id, changed, id), "{name}");
                assert!(!changed.same_content(id, other, id), "{name}");
            }
        }
    }

    #[test]
    fn a_replica_write_shares_whole_pages_and_copies_the_edges() {
        let id = ObjectId::new(0, 2);
        let data: Vec<u8> = (0..3 * PAGE).map(|i| (i % 241) as u8).collect();
        let (mut primary, mut replica) = (ObjectStore::new(), ObjectStore::new());
        // Unaligned: pages 0 and 3 are partial, pages 1 and 2 whole.
        let offset = 100;
        assert_eq!(primary.write_at(id, offset, &data), 1);
        assert_eq!(replica.write_at_from(id, offset, &data, &primary), 1);
        for (p, shared) in [(0, false), (1, true), (2, true), (3, false)] {
            let same = Rc::ptr_eq(&page_of(&primary, id, p), &page_of(&replica, id, p));
            assert_eq!(same, shared, "page {p}");
        }
        assert_eq!(replica.read(id), primary.read(id));
        assert_eq!(&replica.read_at(id, offset, data.len())[..], &data[..]);
        assert!(primary.same_content(id, &replica, id));
        // The table holds exactly the four pages written.
        assert_eq!(replica.objects[&id].pages.capacity(), 4);
        // A later whole-page overwrite on the replica replaces the
        // shared page; the primary keeps its bytes.
        replica.write_at(id, PAGE, &[9; PAGE]);
        assert_eq!(
            &primary.read_at(id, PAGE, PAGE)[..],
            &data[PAGE - offset..2 * PAGE - offset]
        );
    }

    #[test]
    fn separately_written_equal_pages_compare_equal() {
        let id = ObjectId::new(0, 3);
        let data: Vec<u8> = (0..2 * PAGE + 5).map(|i| (i % 7) as u8).collect();
        let (mut x, mut y) = (ObjectStore::new(), ObjectStore::new());
        x.write(id, &data);
        y.write_at(id, 0, &data);
        assert!(!Rc::ptr_eq(&page_of(&x, id, 0), &page_of(&y, id, 0)));
        assert!(x.same_content(id, &y, id));
        assert!(y.same_content(id, &x, id));
    }

    #[test]
    fn copy_from_an_absent_object_writes_nothing() {
        let (id, missing) = (ObjectId::new(0, 1), ObjectId::new(0, 9));
        let (mut x, mut y) = (ObjectStore::new(), ObjectStore::new());
        x.write(id, b"abc");
        assert_eq!(y.copy_from(missing, &x), None);
        assert!(y.is_empty());
        // A copy over an existing object bumps its version and takes
        // the source's length and holes.
        y.write(id, &[1; 3 * PAGE]);
        assert_eq!(y.copy_from(id, &x), Some(2));
        assert_eq!(&y.read(id).unwrap()[..], b"abc");
    }
}
