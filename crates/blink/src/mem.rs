//! Flat page memory whose pages outlive their owner.
//!
//! A memory server's registered region (`rdma::MemPool`) and a local
//! tree's page buffer ([`crate::LocalTree`]) are the same thing: one
//! zero-filled byte buffer that grows to the byte. [`PageMemory`] is that
//! buffer, with one policy on top. A NAM memory server registers its
//! region once and keeps it for its whole life; the simulator, which
//! builds one cell's cluster after another on a thread, gets the same by
//! not handing a large buffer back to the allocator when its owner
//! drops. The buffer is parked on a per-thread spare list instead, and
//! the next region on that thread that must grow swaps it in, so a later
//! cell builds in memory that is already resident: no first-touch fault
//! while loading, no `munmap` at teardown (DESIGN.md §17.3).
//!
//! Nothing can observe the reuse: every byte a region grows by reads
//! zero, exactly as in a fresh allocation.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::ops::{Deref, DerefMut};

/// Smallest buffer worth parking. Smaller buffers come from malloc's
/// heap, which already reuses them.
const MIN_SPARE: usize = 1 << 20;

/// Most buffers parked per thread; parking one more frees the smallest.
const MAX_SPARES: usize = 16;

thread_local! {
    static SPARES: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Bytes parked on this thread's spare list: memory that dropped regions
/// left resident for the next region to grow into.
pub fn spare_bytes() -> usize {
    SPARES
        .try_with(|s| s.borrow().iter().map(Vec::capacity).sum())
        .unwrap_or(0)
}

/// Put `buf` on this thread's spare list if it is large enough; otherwise,
/// and during thread-local teardown, free it.
fn park(buf: Vec<u8>) {
    if buf.capacity() < MIN_SPARE {
        return;
    }
    let _ = SPARES.try_with(|s| {
        let Ok(mut spares) = s.try_borrow_mut() else {
            return;
        };
        spares.push(buf);
        if spares.len() > MAX_SPARES {
            spares.sort_unstable_by_key(|b| Reverse(b.capacity()));
            spares.pop();
        }
    });
}

/// Take the largest parked buffer, if it holds more than `capacity`.
fn take_larger_than(capacity: usize) -> Option<Vec<u8>> {
    SPARES
        .try_with(|s| {
            let mut spares = s.try_borrow_mut().ok()?;
            let largest = (0..spares.len()).max_by_key(|&i| spares[i].capacity())?;
            (spares[largest].capacity() > capacity).then(|| spares.swap_remove(largest))
        })
        .ok()
        .flatten()
}

/// A flat, zero-filled byte buffer that grows to the byte and, once
/// large, is recycled on its thread when dropped (see the module docs).
#[derive(Default)]
pub struct PageMemory {
    bytes: Vec<u8>,
}

impl PageMemory {
    /// An empty region; it holds no memory until it grows.
    pub const fn new() -> Self {
        PageMemory { bytes: Vec::new() }
    }

    /// Grow to `len` bytes (never shrink), zero-filling the new tail.
    /// Growth past the buffer's capacity first swaps in the largest
    /// parked buffer that is bigger, copying the bytes across and
    /// parking the old buffer; only when none is bigger does the buffer
    /// reallocate.
    pub fn grow_to(&mut self, len: usize) {
        if len <= self.bytes.len() {
            return;
        }
        if len > self.bytes.capacity() {
            if let Some(mut spare) = take_larger_than(self.bytes.capacity()) {
                spare.clear();
                spare.extend_from_slice(&self.bytes);
                park(std::mem::replace(&mut self.bytes, spare));
            }
        }
        self.bytes.resize(len, 0);
    }

    /// Forget every byte; the buffer stays with the region.
    pub fn clear(&mut self) {
        self.bytes.clear();
    }
}

impl Deref for PageMemory {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl DerefMut for PageMemory {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }
}

impl Drop for PageMemory {
    fn drop(&mut self) {
        park(std::mem::take(&mut self.bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` on a thread of its own, so it starts with no spares.
    fn fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::scope(|s| {
            s.spawn(f);
        });
    }

    fn region(len: usize, fill: u8) -> PageMemory {
        let mut m = PageMemory::new();
        m.grow_to(len);
        m.fill(fill);
        m
    }

    #[test]
    fn grows_to_the_byte_with_zeros_and_keeps_contents() {
        fresh_thread(|| {
            let mut m = PageMemory::new();
            for (len, fill) in [
                (8, 1u8),
                (1000, 2),
                (3 << 20, 3),
                (3 << 20, 4),
                (5 << 20, 5),
            ] {
                let old = m.len();
                m.grow_to(len);
                assert_eq!(m.len(), len.max(old));
                assert!(m[old..].iter().all(|&b| b == 0), "grown tail not zero");
                m[old..].fill(fill);
            }
            m.grow_to(4);
            assert_eq!(m.len(), 5 << 20, "never shrinks");
            assert!(m[..8].iter().all(|&b| b == 1));
            assert!(m[8..1000].iter().all(|&b| b == 2));
            assert!(m[1000..3 << 20].iter().all(|&b| b == 3));
            assert!(m[3 << 20..].iter().all(|&b| b == 5));
        });
    }

    /// A region grown after a large one was dropped takes its buffer,
    /// and what it grew by reads zero although the buffer was dirty.
    #[test]
    fn a_dropped_large_buffer_is_taken_by_the_next_growth() {
        fresh_thread(|| {
            let old = region(2 << 20, 0xAB);
            let addr = old.as_ptr();
            drop(old);
            assert_eq!(spare_bytes(), 2 << 20);
            let mut m = PageMemory::new();
            m.grow_to(100);
            assert_eq!(m.as_ptr(), addr, "the parked buffer was not reused");
            assert_eq!(spare_bytes(), 0);
            m.grow_to(2 << 20);
            assert!(m.iter().all(|&b| b == 0), "recycled bytes leaked through");
            assert_eq!(m.as_ptr(), addr);
        });
    }

    /// Swapping in a bigger spare copies the region across and parks the
    /// buffer it replaced.
    #[test]
    fn growth_past_capacity_swaps_in_a_bigger_spare() {
        fresh_thread(|| {
            drop(region(8 << 20, 0xAB));
            let mut a = region(1 << 20, 0);
            let mut b = region(1 << 20, 7);
            assert_eq!(spare_bytes(), 0, "the first growth took the spare");
            drop(a);
            a = PageMemory::new();
            a.grow_to(16);
            assert_eq!(spare_bytes(), 0);
            // `b` outgrows its 1 MiB: nothing bigger is parked, it reallocates.
            b.grow_to((1 << 20) + 1);
            assert!(b[..1 << 20].iter().all(|&x| x == 7));
            assert_eq!(b[1 << 20], 0);
            drop(a);
            let parked = spare_bytes();
            assert!(parked >= 8 << 20, "the 8 MiB buffer was not parked");
            b.grow_to(6 << 20);
            assert!(b[..1 << 20].iter().all(|&x| x == 7));
            assert!(b[1 << 20..].iter().all(|&x| x == 0));
            assert!(spare_bytes() < parked, "the bigger spare was not taken");
            assert!(
                spare_bytes() >= 2 << 20,
                "the replaced buffer was not parked"
            );
        });
    }

    #[test]
    fn small_buffers_are_never_parked() {
        fresh_thread(|| {
            drop(region(MIN_SPARE - 1, 1));
            drop(region(4096, 1));
            drop(PageMemory::new());
            assert_eq!(spare_bytes(), 0);
        });
    }

    /// The list holds at most `MAX_SPARES` buffers, keeping the largest.
    #[test]
    fn the_spare_list_is_capped() {
        fresh_thread(|| {
            // Held until all are built, so none grows into another's buffer.
            let big = region(2 << 20, 1);
            let small: Vec<_> = (0..MAX_SPARES + 4).map(|_| region(1 << 20, 1)).collect();
            drop(big);
            drop(small);
            assert_eq!(spare_bytes(), (2 << 20) + (MAX_SPARES - 1) * (1 << 20));
        });
    }

    thread_local! {
        static HELD: RefCell<Option<PageMemory>> = const { RefCell::new(None) };
    }

    /// A region owned by another thread-local may drop after the spare
    /// list is gone; it is then freed, not parked, and nothing panics (a
    /// panic in a thread-local destructor aborts the process).
    #[test]
    fn dropping_during_thread_local_teardown_is_harmless() {
        fresh_thread(|| {
            // Thread-locals are destroyed in reverse order of first use:
            // touch `HELD` before the spare list so the list goes first.
            HELD.with(|h| assert!(h.borrow().is_none()));
            let m = region(2 << 20, 1);
            assert_eq!(spare_bytes(), 0);
            HELD.with(|h| *h.borrow_mut() = Some(m));
        });
    }
}
