//! A memory server's RDMA-registered memory region.
//!
//! Backed by one flat [`PageMemory`] with a bump allocator (`RDMA_ALLOC`
//! in the paper's Listing 4). Offsets start at 8 so that offset 0 never
//! names a live object and the all-zero [`crate::RemotePtr`] stays NULL.
//!
//! The region is exactly as long as the allocator's watermark: a pool
//! pays, in zero-filled and therefore resident memory, for the bytes it
//! hands out and for nothing around them. Amortising growth, and reusing
//! the memory of pools dropped earlier on the thread, is
//! [`PageMemory`]'s business.

use blink::mem::PageMemory;

/// Registered memory of one memory server.
pub struct MemPool {
    /// `mem.len() == next`, except that a pool nothing has been allocated
    /// in, restored to or replayed into holds no bytes at all.
    mem: PageMemory,
    next: u64,
}

impl MemPool {
    /// Alignment of every allocation (atomics operate on 8-byte words).
    pub const ALIGN: u64 = 8;

    /// Create an empty pool; it grows by exactly what is allocated.
    pub fn new() -> Self {
        MemPool {
            mem: PageMemory::new(),
            next: Self::ALIGN, // offset 0 reserved for NULL
        }
    }

    /// Bump-allocate `size` bytes; returns the offset.
    pub fn alloc(&mut self, size: u64) -> u64 {
        let off = self.next;
        self.grow_to((off + size).div_ceil(Self::ALIGN) * Self::ALIGN);
        off
    }

    /// Advance the watermark to `next` (never backwards), zero-filling
    /// the region up to it.
    fn grow_to(&mut self, next: u64) {
        self.next = self.next.max(next);
        self.mem.grow_to(self.next as usize);
    }

    /// Bytes currently allocated (high-water mark).
    pub fn allocated(&self) -> u64 {
        self.next
    }

    fn check(&self, off: u64, len: usize) {
        assert!(
            off.checked_add(len as u64)
                .is_some_and(|end| end <= self.next),
            "access [{off}, {off}+{len}) beyond allocated {}",
            self.next
        );
    }

    /// Copy `dst.len()` bytes out of the region at `off`.
    pub fn copy_out(&self, off: u64, dst: &mut [u8]) {
        self.check(off, dst.len());
        dst.copy_from_slice(&self.mem[off as usize..off as usize + dst.len()]);
    }

    /// Tell the host CPU that the `len` bytes at `off` are about to be
    /// copied out, so their cache lines load while the simulator runs
    /// other clients' events (DESIGN.md §17.2). Total: a range that is
    /// not inside the pool is ignored — the bounds check of a READ is
    /// [`MemPool::copy_out`]'s, at completion, where the range may have
    /// become valid — and a prefetch reads no value and cannot fault, so
    /// nothing the simulation computes can depend on it. Does nothing off
    /// x86_64 and under Miri.
    #[inline]
    pub fn hint(&self, off: u64, len: usize) {
        const LINE: usize = 64;
        let range = usize::try_from(off)
            .ok()
            .and_then(|start| self.mem.get(start..start.checked_add(len)?));
        let Some(bytes) = range else { return };
        // One touch per line stride, plus the line the last byte sits on:
        // the range starts anywhere in its first line.
        for byte in bytes.iter().step_by(LINE).chain(bytes.last()) {
            prefetch(byte);
        }
    }

    /// Copy `src` into the region at `off`.
    pub fn copy_in(&mut self, off: u64, src: &[u8]) {
        self.slice_mut(off, src.len()).copy_from_slice(src);
    }

    /// The `len` allocated bytes at `off`, to be written where they live.
    pub fn slice_mut(&mut self, off: u64, len: usize) -> &mut [u8] {
        self.check(off, len);
        &mut self.mem[off as usize..off as usize + len]
    }

    /// Read one aligned 8-byte word.
    pub fn read_u64(&self, off: u64) -> u64 {
        debug_assert_eq!(off % 8, 0, "atomics require 8-byte alignment");
        self.check(off, 8);
        u64::from_le_bytes(
            self.mem[off as usize..off as usize + 8]
                .try_into()
                .expect("8 bytes"),
        )
    }

    /// Write one aligned 8-byte word.
    pub fn write_u64(&mut self, off: u64, v: u64) {
        debug_assert_eq!(off % 8, 0, "atomics require 8-byte alignment");
        self.check(off, 8);
        self.mem[off as usize..off as usize + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Atomic compare-and-swap on one word; returns the previous value
    /// (the swap happened iff it equals `expected`).
    pub fn cas(&mut self, off: u64, expected: u64, new: u64) -> u64 {
        let old = self.read_u64(off);
        if old == expected {
            self.write_u64(off, new);
        }
        old
    }

    /// Atomic fetch-and-add on one word; returns the previous value.
    pub fn fetch_add(&mut self, off: u64, add: u64) -> u64 {
        let old = self.read_u64(off);
        self.write_u64(off, old.wrapping_add(add));
        old
    }

    // ---- durability hooks (checkpoint images + crash recovery) ----

    /// Snapshot the allocated region for a checkpoint image: every byte
    /// up to the watermark (none for a pool nothing was allocated in).
    pub fn image(&self) -> Vec<u8> {
        self.mem.to_vec()
    }

    /// Lose all contents, as a crash with volatile DRAM does: the region
    /// empties and the allocator resets.
    pub fn wipe(&mut self) {
        self.mem.clear();
        self.next = Self::ALIGN;
    }

    /// Restore from a checkpoint image: contents become exactly `image`
    /// and the allocator watermark becomes `allocated`.
    pub fn restore(&mut self, image: &[u8], allocated: u64) {
        debug_assert!(image.len() as u64 <= allocated.max(Self::ALIGN));
        self.wipe();
        self.grow_to(allocated);
        self.mem[..image.len()].copy_from_slice(image);
    }

    /// Replay-apply a logged write. Unlike [`MemPool::copy_in`] this may
    /// land beyond the current watermark: the log interleaves writes and
    /// allocator advances, and a fuzzy checkpoint image can predate the
    /// alloc record covering a write that follows it.
    pub fn replay_write(&mut self, off: u64, src: &[u8]) {
        // An end past `u64::MAX` grows nothing: the write is beyond any
        // watermark, and `copy_in` reports it.
        let end = off
            .checked_add(src.len() as u64)
            .and_then(|end| end.checked_next_multiple_of(Self::ALIGN));
        if let Some(end) = end {
            self.grow_to(end);
        }
        self.copy_in(off, src);
    }

    /// Replay-apply a logged allocator advance: the watermark becomes at
    /// least `next` (max-merge makes re-application idempotent).
    pub fn replay_alloc_to(&mut self, next: u64) {
        self.grow_to(next);
    }

    /// Length of the backing vector.
    #[cfg(test)]
    fn backing_len(&self) -> usize {
        self.mem.len()
    }
}

impl Default for MemPool {
    fn default() -> Self {
        Self::new()
    }
}

/// Start loading the cache line `byte` sits on into every cache level.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline(always)]
fn prefetch(byte: &u8) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: `_mm_prefetch` is a safe function that is only `unsafe` to
    // call where its target feature, `sse`, may be missing; SSE is part
    // of the x86_64 baseline, so every CPU this cfg compiles for has it.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(byte).cast()) }
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
fn prefetch(_: &u8) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_never_returns_zero_and_aligns() {
        let mut p = MemPool::new();
        let a = p.alloc(10);
        let b = p.alloc(1);
        let c = p.alloc(8);
        assert_ne!(a, 0);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert_eq!(c % 8, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn copy_round_trip() {
        let mut p = MemPool::new();
        let off = p.alloc(16);
        p.copy_in(off, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        p.copy_out(off, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn word_ops() {
        let mut p = MemPool::new();
        let off = p.alloc(8);
        p.write_u64(off, 7);
        assert_eq!(p.read_u64(off), 7);
        assert_eq!(p.cas(off, 7, 9), 7);
        assert_eq!(p.read_u64(off), 9);
        assert_eq!(p.cas(off, 7, 11), 9, "failed CAS leaves value");
        assert_eq!(p.read_u64(off), 9);
        assert_eq!(p.fetch_add(off, 1), 9);
        assert_eq!(p.read_u64(off), 10);
    }

    #[test]
    fn growth_preserves_content() {
        let mut p = MemPool::new();
        let off = p.alloc(8);
        p.write_u64(off, 0xabcd);
        for _ in 0..100 {
            p.alloc(1 << 16);
        }
        assert_eq!(p.read_u64(off), 0xabcd);
    }

    #[test]
    fn wipe_then_restore_round_trips() {
        let mut p = MemPool::new();
        let off = p.alloc(32);
        p.copy_in(off, &[5; 32]);
        let image = p.image();
        let mark = p.allocated();
        p.wipe();
        assert_eq!(p.allocated(), MemPool::ALIGN, "crash resets the allocator");
        p.restore(&image, mark);
        let mut out = [0u8; 32];
        p.copy_out(off, &mut out);
        assert_eq!(out, [5; 32]);
        assert_eq!(p.allocated(), mark);
    }

    #[test]
    fn replay_writes_may_outrun_the_watermark() {
        let mut p = MemPool::new();
        // A write whose alloc record the checkpoint image already
        // absorbed: replay must grow the region rather than panic.
        p.replay_write(1 << 16, &9u64.to_le_bytes());
        assert_eq!(p.read_u64(1 << 16), 9);
        p.replay_alloc_to(1 << 18);
        assert_eq!(p.allocated(), 1 << 18);
        // Re-application is idempotent (max-merge).
        p.replay_alloc_to(1 << 16);
        assert_eq!(p.allocated(), 1 << 18);
    }

    #[test]
    fn pages_are_written_in_place() {
        let mut p = MemPool::new();
        let a = p.alloc(16);
        let b = p.alloc(16);
        p.slice_mut(b, 16).fill(7);
        p.slice_mut(a, 16)[8..].copy_from_slice(&3u64.to_le_bytes());
        assert_eq!(p.read_u64(a), 0);
        assert_eq!(p.read_u64(a + 8), 3);
        assert_eq!(p.read_u64(b), u64::from_le_bytes([7; 8]));
    }

    /// `hint` is total and reads nothing: no range, however wrong, makes
    /// it panic or changes what the pool holds.
    #[test]
    fn hint_accepts_any_range_and_changes_nothing() {
        let untouched = MemPool::new();
        untouched.hint(0, 1024);
        untouched.hint(MemPool::ALIGN, 8);
        assert_eq!(untouched.image(), Vec::<u8>::new());
        assert_eq!(untouched.allocated(), MemPool::ALIGN);

        let mut p = MemPool::new();
        let off = p.alloc(200);
        p.slice_mut(off, 200).fill(7);
        let (image, mark) = (p.image(), p.allocated());
        for (off, len) in [
            (off, 200),          // in the pool, several lines
            (off + 3, 1),        // in the pool, unaligned
            (off, 0),            // nothing to load
            (mark, 0),           // empty, at the watermark
            (off, 201),          // runs past the watermark
            (mark, 64),          // starts at the watermark
            (mark + 4096, 1024), // past the watermark
            (u64::MAX - 8, 64),  // `off + len` overflows
            (off, usize::MAX),   // `off + len` overflows
            (u64::MAX, usize::MAX),
        ] {
            p.hint(off, len);
            assert_eq!(p.allocated(), mark, "hint({off}, {len})");
            assert!(p.image() == image, "hint({off}, {len}) changed the pool");
        }
    }

    /// A dirty, dropped region's buffer, parked for the next pool.
    fn park_dirty(len: usize) {
        let mut dirty = PageMemory::new();
        dirty.grow_to(len);
        dirty.fill(0xAB);
    }

    /// A pool grown in the buffer of a dropped region reads zero
    /// everywhere below its watermark, before and after a crash.
    #[test]
    fn recycled_memory_reads_zero() {
        std::thread::scope(|s| {
            s.spawn(|| {
                park_dirty(4 << 20);
                let mut p = MemPool::new();
                p.alloc(100);
                assert_eq!(
                    blink::mem::spare_bytes(),
                    0,
                    "the pool did not reuse the buffer"
                );
                p.alloc(3 << 20);
                let one = p.allocated() + 1000;
                p.replay_write(one, &[1]);
                p.replay_alloc_to(p.allocated() + (1 << 20));
                let mut image = p.image();
                assert_eq!(image.len() as u64, p.allocated());
                assert_eq!(std::mem::take(&mut image[one as usize]), 1);
                assert!(image.iter().all(|&b| b == 0));
                p.wipe();
                p.alloc(2 << 20);
                assert!(p.image().iter().all(|&b| b == 0));
            });
        });
    }

    proptest::proptest! {
        /// Under any interleaving of allocation, replay, crash, restore
        /// and starting over in the memory of a dropped pool, the pool
        /// holds exactly the bytes below its watermark — no slack, none
        /// of a recycled buffer's old bytes — and growth never disturbs
        /// earlier contents.
        #[test]
        fn backing_is_exactly_the_watermark(
            ops in proptest::collection::vec((0u8..6, 8u64..20_000, 0u64..700), 1..80),
        ) {
            let align = |n: u64| n.div_ceil(MemPool::ALIGN) * MemPool::ALIGN;
            park_dirty(1 << 20);
            let mut p = MemPool::new();
            // Reference: the bytes below the watermark, empty while the
            // pool is untouched.
            let mut model: Vec<u8> = Vec::new();
            let mut mark = MemPool::ALIGN;
            for (i, &(kind, a, b)) in ops.iter().enumerate() {
                let fill = i as u8 + 1;
                match kind {
                    0 => {
                        let off = p.alloc(b);
                        proptest::prop_assert_eq!(off, mark);
                        mark = align(off + b);
                        model.resize(mark as usize, 0);
                        p.slice_mut(off, b as usize).fill(fill);
                        model[off as usize..(off + b) as usize].fill(fill);
                    }
                    1 => {
                        // An end that need not be 8-aligned: the word it
                        // falls in must be whole and readable.
                        let data = vec![fill; b as usize % 40 + 1];
                        p.replay_write(a, &data);
                        let end = a + data.len() as u64;
                        mark = mark.max(align(end));
                        model.resize(mark as usize, 0);
                        model[a as usize..end as usize].fill(fill);
                        let last = (end - 1) / 8 * 8;
                        let want = model[last as usize..last as usize + 8].try_into().unwrap();
                        proptest::prop_assert_eq!(p.read_u64(last), u64::from_le_bytes(want));
                    }
                    2 => {
                        p.replay_alloc_to(align(a));
                        mark = mark.max(align(a));
                        model.resize(mark as usize, 0);
                    }
                    3 => {
                        p.wipe();
                        model.clear();
                        mark = MemPool::ALIGN;
                    }
                    4 => {
                        p = MemPool::new();
                        model.clear();
                        mark = MemPool::ALIGN;
                    }
                    _ => {
                        let (image, allocated) = (p.image(), p.allocated());
                        p.wipe();
                        p.restore(&image, allocated);
                        model.resize(mark as usize, 0);
                    }
                }
                proptest::prop_assert_eq!(p.allocated(), mark);
                proptest::prop_assert_eq!(p.backing_len(), model.len());
                proptest::prop_assert!(p.image() == model, "contents diverged at op {}", i);
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond allocated")]
    fn oob_read_panics() {
        let p = MemPool::new();
        let mut buf = [0u8; 8];
        p.copy_out(1 << 20, &mut buf);
    }

    /// `off + len` past `u64::MAX` is out of bounds, not an arithmetic
    /// overflow (a debug-build panic; in release, a wrapped end that
    /// passes the check).
    #[test]
    #[should_panic(expected = "beyond allocated")]
    fn access_past_u64_max_is_beyond_allocated() {
        let mut p = MemPool::new();
        p.alloc(64);
        p.copy_out(u64::MAX - 3, &mut [0u8; 8]);
    }

    /// The same for an offset decoded from a WAL record.
    #[test]
    #[should_panic(expected = "beyond allocated")]
    fn replay_past_u64_max_is_beyond_allocated() {
        let mut p = MemPool::new();
        p.alloc(64);
        p.replay_write(u64::MAX - 3, &[1; 8]);
    }
}
