//! Reusable verb buffers: a size-classed free list of page buffers and
//! the [`PageBuf`] checkout guard.
//!
//! Every one-sided READ used to allocate a fresh `Vec<u8>` for its
//! payload — at millions of simulated verbs per wall second the
//! allocator, not the event loop, dominated the profile. The arena keeps
//! returned buffers on power-of-two free lists; a steady-state descent
//! (READ page → inspect → drop) recycles the same handful of buffers and
//! performs zero heap allocations.
//!
//! ## Ownership and guard rules
//!
//! * [`BufArena::checkout`] hands out a [`PageBuf`] holding exactly the
//!   requested length; its bytes are *uninitialised in value* (recycled
//!   contents) — the verb layer always overwrites the full buffer before
//!   returning it to a caller.
//! * Dropping a `PageBuf` returns its storage to the arena (bounded per
//!   size class; surplus buffers free normally). Buffers may outlive any
//!   await point and be held across operations — the arena is not
//!   borrowed, so there is no lifetime coupling to the cluster.
//! * [`PageBuf::detached`] / `From<Vec<u8>>` wrap plain vectors with no
//!   arena (setup paths, caches, tests); dropping those frees normally.
//! * `Clone` checks a fresh buffer out of the owning arena (or detaches),
//!   so clones never alias.
//!
//! The arena is strictly single-threaded (`Rc`), like the simulation that
//! owns it; parallel sweep cells each build their own cluster and arena.

use std::cell::RefCell;
use std::rc::Rc;

/// Free buffers are binned by power-of-two capacity: class `c` holds
/// vectors of capacity `1 << c`. 25 classes cover up to 16 MiB.
const NUM_CLASSES: usize = 25;

/// At most this many free buffers are retained per class; extras are
/// dropped. Bounds arena memory at a few MiB for page-sized classes.
const MAX_FREE_PER_CLASS: usize = 128;

#[derive(Default)]
struct ArenaInner {
    free: Vec<Vec<Vec<u8>>>,
    checkouts: u64,
    reuses: u64,
}

fn class_of(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros() as usize
}

/// A single-threaded pool of reusable byte buffers.
#[derive(Clone, Default)]
pub struct BufArena {
    inner: Rc<RefCell<ArenaInner>>,
}

impl BufArena {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        BufArena::default()
    }

    /// Check out a buffer of exactly `len` bytes. Contents are recycled
    /// garbage; the caller must overwrite before exposing them.
    pub fn checkout(&self, len: usize) -> PageBuf {
        let class = class_of(len);
        assert!(
            class < NUM_CLASSES,
            "buffer of {len} bytes exceeds arena classes"
        );
        let mut inner = self.inner.borrow_mut();
        inner.checkouts += 1;
        let data = if let Some(mut v) = inner.free.get_mut(class).and_then(Vec::pop) {
            inner.reuses += 1;
            // Capacity is the class size ≥ len: truncate (no-op for u8)
            // or zero-extend only the delta from the buffer's last use.
            v.resize(len, 0);
            v
        } else {
            let mut v = Vec::with_capacity(1 << class);
            v.resize(len, 0);
            v
        };
        PageBuf {
            data,
            arena: Some(Rc::clone(&self.inner)),
        }
    }

    /// Check out a buffer initialised with a copy of `bytes`.
    pub fn checkout_copy(&self, bytes: &[u8]) -> PageBuf {
        let mut buf = self.checkout(bytes.len());
        buf.copy_from_slice(bytes);
        buf
    }

    /// Total checkouts and how many were served from the free list.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.checkouts, inner.reuses)
    }
}

fn arena_put(inner: &Rc<RefCell<ArenaInner>>, v: Vec<u8>) {
    let class = class_of(v.capacity());
    // Only recycle exact class-sized capacities (everything the arena
    // itself hands out); odd capacities from detached conversions drop.
    if v.capacity() != (1usize << class) || class >= NUM_CLASSES {
        return;
    }
    let mut inner = inner.borrow_mut();
    if inner.free.len() <= class {
        inner.free.resize_with(class + 1, Vec::new);
    }
    let bin = &mut inner.free[class];
    if bin.len() < MAX_FREE_PER_CLASS {
        bin.push(v);
    }
}

/// An owned byte buffer, returned to its arena on drop.
///
/// Dereferences to `[u8]`, so existing page-view code (`LeafNodeRef`,
/// `kind_of`, slice indexing) works unchanged.
pub struct PageBuf {
    data: Vec<u8>,
    arena: Option<Rc<RefCell<ArenaInner>>>,
}

impl PageBuf {
    /// Wrap a plain vector with no arena backing (setup paths, tests);
    /// dropping frees normally.
    pub fn detached(data: Vec<u8>) -> Self {
        PageBuf { data, arena: None }
    }
}

impl From<Vec<u8>> for PageBuf {
    fn from(data: Vec<u8>) -> Self {
        PageBuf::detached(data)
    }
}

impl Drop for PageBuf {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            arena_put(&arena, std::mem::take(&mut self.data));
        }
    }
}

impl std::ops::Deref for PageBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for PageBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for PageBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Clone for PageBuf {
    fn clone(&self) -> Self {
        match &self.arena {
            Some(arena) => {
                let a = BufArena {
                    inner: Rc::clone(arena),
                };
                a.checkout_copy(&self.data)
            }
            None => PageBuf::detached(self.data.clone()),
        }
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageBuf")
            .field("len", &self.data.len())
            .field("arena", &self.arena.is_some())
            .finish()
    }
}

impl PartialEq for PageBuf {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl Eq for PageBuf {}

impl PartialEq<Vec<u8>> for PageBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.data == *other
    }
}

impl PartialEq<PageBuf> for Vec<u8> {
    fn eq(&self, other: &PageBuf) -> bool {
        *self == other.data
    }
}

impl PartialEq<[u8]> for PageBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.data == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PageBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.data == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_is_len_exact_and_reused_after_drop() {
        let arena = BufArena::new();
        let a = arena.checkout(1024);
        assert_eq!(a.len(), 1024);
        drop(a);
        let b = arena.checkout(1024);
        assert_eq!(b.len(), 1024);
        let (checkouts, reuses) = arena.stats();
        assert_eq!(checkouts, 2);
        assert_eq!(reuses, 1, "second checkout must hit the free list");
    }

    #[test]
    fn size_classes_do_not_mix_small_into_large() {
        let arena = BufArena::new();
        drop(arena.checkout(64));
        // A 1 KiB checkout must not get the 64-byte buffer back.
        let big = arena.checkout(1024);
        assert_eq!(big.len(), 1024);
        let (_, reuses) = arena.stats();
        assert_eq!(reuses, 0);
    }

    #[test]
    fn same_class_different_len_resizes() {
        let arena = BufArena::new();
        {
            let mut a = arena.checkout(1000);
            a[999] = 77; // garbage a later, longer checkout must not leak...
        }
        let b = arena.checkout(1024); // same class (1024)
        assert_eq!(b.len(), 1024);
        // The zero-extended tail is defined (resize zero-fills the delta).
        assert_eq!(b[1023], 0);
    }

    #[test]
    fn clone_does_not_alias() {
        let arena = BufArena::new();
        let mut a = arena.checkout(16);
        a.copy_from_slice(&[9; 16]);
        let mut b = a.clone();
        b[0] = 1;
        assert_eq!(a[0], 9);
        assert_eq!(&b[1..], &[9; 15]);
    }

    #[test]
    fn detached_roundtrip_and_eq() {
        let v = vec![1u8, 2, 3];
        let p = PageBuf::from(v.clone());
        assert_eq!(p, v);
        assert_eq!(v, p);
        assert_eq!(p, [1u8, 2, 3]);
    }

    #[test]
    fn free_list_is_bounded() {
        let arena = BufArena::new();
        let bufs: Vec<_> = (0..200).map(|_| arena.checkout(64)).collect();
        drop(bufs);
        let free = arena.inner.borrow().free[class_of(64)].len();
        assert!(free <= MAX_FREE_PER_CLASS);
    }
}
