//! Binary page layout shared by every node type.
//!
//! A page is a fixed-size byte array (default 1024 B, the paper's `P`).
//! All nodes share a 40-byte header:
//!
//! ```text
//! offset  size  field
//! 0       8     version_lock   (bit 0 = lock bit, rest = version counter)
//! 8       1     kind           (0 = inner, 1 = leaf)
//! 9       1     level          (0 = leaf level)
//! 10      2     count          (number of entries)
//! 12      4     padding
//! 16      8     high_key       (inclusive upper bound; KEY_MAX = +inf)
//! 24      8     right_sibling  (Ptr; 0 = null)
//! 32      8     left_sibling   (Ptr; 0 = null)
//! 40      ...   entries
//! ```
//!
//! Inner and leaf entries are 16 bytes: `(key: u64, word: u64)` where the
//! word is a child [`Ptr`] (inner) or a value with the top bit reserved as
//! the *delete bit* (leaf).
//!
//! The `(version, lock-bit)` word implements the paper's optimistic lock
//! coupling: an even word is unlocked; CAS to `word | 1` locks; the unlock
//! fetch-and-add of 1 clears the bit and bumps the version in one atomic
//! step (§3.2, Listing 3/4).

/// Index key type. The full `u64` range is usable except `u64::MAX`,
/// reserved as the +infinity high-key sentinel.
pub type Key = u64;

/// Leaf value type; only the low 63 bits are usable (see [`MAX_VALUE`]).
pub type Value = u64;

/// Largest storable value: the value word's top bit is the delete bit.
pub const MAX_VALUE: Value = (1 << 63) - 1;

/// High-key sentinel meaning "+infinity" (rightmost node on its level).
pub const KEY_MAX: Key = u64::MAX;

/// Delete bit within a leaf entry's value word.
pub(crate) const DELETE_BIT: u64 = 1 << 63;

/// Opaque node pointer stored in pages. The encoding is owned by the
/// caller (a local page id, or an RDMA remote pointer); `0` is null.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Ptr(pub u64);

impl Ptr {
    /// The null pointer.
    pub const NULL: Ptr = Ptr(0);

    /// Whether this pointer is null.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Raw bits.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Header field offsets.
pub(crate) mod off {
    pub const VERSION_LOCK: usize = 0;
    pub const KIND: usize = 8;
    pub const LEVEL: usize = 9;
    pub const COUNT: usize = 10;
    pub const HIGH_KEY: usize = 16;
    pub const RIGHT_SIBLING: usize = 24;
    pub const LEFT_SIBLING: usize = 32;
    pub const ENTRIES: usize = 40;
}

/// Size of the common node header in bytes.
pub const HEADER_SIZE: usize = off::ENTRIES;

/// Size of an inner/leaf entry in bytes (8-byte key + 8-byte word).
pub const ENTRY_SIZE: usize = 16;

/// Describes page geometry: entry capacities for a given page size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageLayout {
    page_size: usize,
}

impl PageLayout {
    /// The paper's default page size `P = 1024` bytes.
    pub const DEFAULT_PAGE_SIZE: usize = 1024;

    /// Create a layout. `page_size` must fit the header plus at least two
    /// entries (a node must be splittable).
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size >= HEADER_SIZE + 2 * ENTRY_SIZE,
            "page size {page_size} too small"
        );
        PageLayout { page_size }
    }

    /// Page size in bytes.
    pub fn page_size(self) -> usize {
        self.page_size
    }

    /// Max entries per leaf or inner node (the paper's fanout `M`).
    pub fn entry_capacity(self) -> usize {
        (self.page_size - HEADER_SIZE) / ENTRY_SIZE
    }

    /// Allocate a zeroed page buffer of this size.
    pub fn alloc_page(self) -> Box<[u8]> {
        vec![0u8; self.page_size].into_boxed_slice()
    }
}

impl Default for PageLayout {
    fn default() -> Self {
        PageLayout::new(Self::DEFAULT_PAGE_SIZE)
    }
}

/// Helpers for the `(version, lock-bit)` word.
///
/// Layout of the 8-byte word at page offset 0:
///
/// ```text
/// bit  0      : lock bit
/// bits 1..=47 : version counter (bumped by every unlock / lease break)
/// bits 48..=55: owner id of the current/last lock holder (client id & 0xff)
/// bits 56..=63: lease epoch, bumped every time an orphaned lock is broken
/// ```
///
/// The classic OLC cycle `v --CAS--> locked_by(v, me) --FAA(+1)--> v'`
/// still works: the FAA of 1 clears the lock bit and carries into the
/// version counter, leaving the (now stale) owner bits untouched. Stale
/// owner bits in an *unlocked* word are harmless — the protocol always
/// compares full words, and the next acquire CAS overwrites the owner
/// field. The lease epoch lets recovery distinguish "holder unlocked and
/// someone re-locked" from "contender broke my orphaned lease".
pub mod lock_word {
    /// Bits holding the version counter and the lock bit.
    pub const VERSION_LOCK_MASK: u64 = (1 << OWNER_SHIFT) - 1;
    /// Shift of the owner-id field.
    pub const OWNER_SHIFT: u32 = 48;
    /// Bits holding the owner id.
    pub const OWNER_MASK: u64 = 0xff << OWNER_SHIFT;
    /// Shift of the lease-epoch field.
    pub const EPOCH_SHIFT: u32 = 56;
    /// Bits holding the lease epoch.
    pub const EPOCH_MASK: u64 = 0xff << EPOCH_SHIFT;

    /// Whether the lock bit is set.
    pub fn is_locked(word: u64) -> bool {
        word & 1 == 1
    }

    /// The word with the lock bit set (the CAS target when locking
    /// without recording an owner — legacy shape, owner field untouched).
    pub fn locked(word: u64) -> u64 {
        word | 1
    }

    /// The word with the lock bit set and `owner` recorded (the CAS
    /// target when locking with lease support).
    pub fn locked_by(word: u64, owner: u64) -> u64 {
        (word & !OWNER_MASK) | ((owner & 0xff) << OWNER_SHIFT) | 1
    }

    /// The owner-id field (only meaningful while the word is locked).
    pub fn owner_of(word: u64) -> u64 {
        (word & OWNER_MASK) >> OWNER_SHIFT
    }

    /// The lease-epoch field.
    pub fn epoch_of(word: u64) -> u64 {
        (word & EPOCH_MASK) >> EPOCH_SHIFT
    }

    /// The version counter (bits 1..=47).
    pub fn version_of(word: u64) -> u64 {
        (word & VERSION_LOCK_MASK) >> 1
    }

    /// The word after the unlocking fetch-and-add of 1: the lock bit is
    /// cleared and the carry bumps the version counter (§3.2).
    pub fn unlocked_next(word: u64) -> u64 {
        debug_assert!(is_locked(word), "unlocking an unlocked word");
        word + 1
    }

    /// The word after a contender breaks an expired lease via CAS:
    /// lock bit cleared, version bumped (so optimistic readers restart),
    /// owner cleared, lease epoch bumped.
    pub fn break_lease(word: u64) -> u64 {
        debug_assert!(is_locked(word), "breaking an unlocked word");
        let version_lock = ((word & VERSION_LOCK_MASK) + 1) & VERSION_LOCK_MASK;
        let epoch = (epoch_of(word) + 1) & 0xff;
        version_lock | (epoch << EPOCH_SHIFT)
    }

    /// Whether a CAS `expected -> new` has the shape of a lock acquire:
    /// unlocked to locked, version and epoch unchanged, any owner.
    pub fn is_acquire(expected: u64, new: u64) -> bool {
        !is_locked(expected)
            && is_locked(new)
            && (new & VERSION_LOCK_MASK) == (expected & VERSION_LOCK_MASK) | 1
            && (new & EPOCH_MASK) == expected & EPOCH_MASK
    }

    /// Whether a CAS `expected -> new` has the shape of a lease break.
    pub fn is_lease_break(expected: u64, new: u64) -> bool {
        is_locked(expected) && new == break_lease(expected)
    }
}

// ---- little-endian field access -------------------------------------------

pub(crate) fn read_u64(page: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(page[off..off + 8].try_into().expect("8-byte field"))
}

pub(crate) fn write_u64(page: &mut [u8], off: usize, v: u64) {
    page[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

pub(crate) fn read_u16(page: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(page[off..off + 2].try_into().expect("2-byte field"))
}

pub(crate) fn write_u16(page: &mut [u8], off: usize, v: u16) {
    page[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_matches_paper() {
        let l = PageLayout::default();
        assert_eq!(l.page_size(), 1024);
        // (1024 - 40) / 16 = 61 entries; same regime as the paper's
        // M = P/(3K) = 42 (heights differ by < 1 level at realistic N).
        assert_eq!(l.entry_capacity(), 61);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_page_rejected() {
        let _ = PageLayout::new(64);
    }

    #[test]
    fn lock_word_cycle() {
        let v0 = 0u64;
        assert!(!lock_word::is_locked(v0));
        let locked = lock_word::locked(v0);
        assert!(lock_word::is_locked(locked));
        let v1 = lock_word::unlocked_next(locked);
        assert!(!lock_word::is_locked(v1));
        assert!(v1 > v0, "version must advance across a lock cycle");
    }

    #[test]
    fn lock_word_owner_encoding() {
        let v0 = 6u64; // version 3, unlocked
        let locked = lock_word::locked_by(v0, 0x2a);
        assert!(lock_word::is_locked(locked));
        assert_eq!(lock_word::owner_of(locked), 0x2a);
        assert_eq!(lock_word::version_of(locked), 3);
        assert!(lock_word::is_acquire(v0, locked));
        // The FAA(+1) unlock clears the lock bit, bumps the version and
        // leaves the stale owner bits behind.
        let v1 = lock_word::unlocked_next(locked);
        assert!(!lock_word::is_locked(v1));
        assert_eq!(lock_word::version_of(v1), 4);
        assert_eq!(lock_word::owner_of(v1), 0x2a);
        // Re-acquiring overwrites the stale owner.
        let relocked = lock_word::locked_by(v1, 0x07);
        assert_eq!(lock_word::owner_of(relocked), 0x07);
        assert!(lock_word::is_acquire(v1, relocked));
    }

    #[test]
    fn lock_word_lease_break() {
        let locked = lock_word::locked_by(2, 0x11);
        let broken = lock_word::break_lease(locked);
        assert!(!lock_word::is_locked(broken));
        assert_eq!(lock_word::version_of(broken), 2, "version bumped");
        assert_eq!(lock_word::owner_of(broken), 0, "owner cleared");
        assert_eq!(lock_word::epoch_of(broken), 1, "epoch bumped");
        assert!(lock_word::is_lease_break(locked, broken));
        assert!(!lock_word::is_lease_break(locked, locked));
        assert!(!lock_word::is_acquire(locked, broken));
        // A plain unlock is not a lease break.
        assert!(!lock_word::is_lease_break(
            locked,
            lock_word::unlocked_next(locked)
        ));
    }

    #[test]
    fn ptr_null() {
        assert!(Ptr::NULL.is_null());
        assert!(!Ptr(7).is_null());
        assert_eq!(Ptr(7).raw(), 7);
    }

    #[test]
    fn field_round_trip() {
        let mut page = vec![0u8; 64];
        write_u64(&mut page, 16, 0xdead_beef_cafe_f00d);
        assert_eq!(read_u64(&page, 16), 0xdead_beef_cafe_f00d);
        write_u16(&mut page, 10, 999);
        assert_eq!(read_u16(&page, 10), 999);
    }

    #[test]
    fn alloc_page_zeroed() {
        let l = PageLayout::default();
        let page = l.alloc_page();
        assert_eq!(page.len(), 1024);
        assert!(page.iter().all(|&b| b == 0));
    }
}
