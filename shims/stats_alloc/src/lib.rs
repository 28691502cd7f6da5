//! Offline shim for the `stats_alloc` crate.
//!
//! A [`GlobalAlloc`] wrapper that counts every allocation,
//! deallocation and reallocation it forwards, plus a [`Region`] that
//! reports the change in those counters since it was opened. Install
//! it as a test binary's global allocator to pin how many heap
//! operations a code path performs:
//!
//! ```ignore
//! use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};
//! use std::alloc::System;
//!
//! #[global_allocator]
//! static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;
//!
//! let region = Region::new(GLOBAL);
//! // ... code under test ...
//! assert_eq!(region.change().allocations, 0);
//! ```
//!
//! The counters are process-wide: every thread's allocations land in
//! them, so a test binary that measures with a [`Region`] should hold
//! a single test. See `shims/README.md` for the shim policy.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Counters of the heap operations an allocator has forwarded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Stats {
    /// Calls to `alloc` and `alloc_zeroed`.
    pub allocations: usize,
    /// Calls to `dealloc`.
    pub deallocations: usize,
    /// Calls to `realloc`.
    pub reallocations: usize,
    /// Bytes handed out by `alloc` and `alloc_zeroed`.
    pub bytes_allocated: usize,
    /// Bytes returned through `dealloc`.
    pub bytes_deallocated: usize,
    /// Net growth of reallocated blocks (negative when they shrank).
    pub bytes_reallocated: isize,
}

/// A global allocator wrapping `T` that counts what it forwards.
#[derive(Debug, Default)]
pub struct StatsAlloc<T: GlobalAlloc> {
    allocations: AtomicUsize,
    deallocations: AtomicUsize,
    reallocations: AtomicUsize,
    bytes_allocated: AtomicUsize,
    bytes_deallocated: AtomicUsize,
    bytes_reallocated: AtomicIsize,
    inner: T,
}

/// The system allocator, instrumented.
pub static INSTRUMENTED_SYSTEM: StatsAlloc<System> = StatsAlloc::system();

impl StatsAlloc<System> {
    /// An instrumented system allocator.
    pub const fn system() -> Self {
        Self::new(System)
    }
}

impl<T: GlobalAlloc> StatsAlloc<T> {
    /// Wraps `inner` with zeroed counters.
    pub const fn new(inner: T) -> Self {
        StatsAlloc {
            allocations: AtomicUsize::new(0),
            deallocations: AtomicUsize::new(0),
            reallocations: AtomicUsize::new(0),
            bytes_allocated: AtomicUsize::new(0),
            bytes_deallocated: AtomicUsize::new(0),
            bytes_reallocated: AtomicIsize::new(0),
            inner,
        }
    }

    /// The counters so far. Each field is read on its own, so a
    /// snapshot taken while other threads allocate is not atomic as a
    /// whole.
    pub fn stats(&self) -> Stats {
        Stats {
            allocations: self.allocations.load(Ordering::SeqCst),
            deallocations: self.deallocations.load(Ordering::SeqCst),
            reallocations: self.reallocations.load(Ordering::SeqCst),
            bytes_allocated: self.bytes_allocated.load(Ordering::SeqCst),
            bytes_deallocated: self.bytes_deallocated.load(Ordering::SeqCst),
            bytes_reallocated: self.bytes_reallocated.load(Ordering::SeqCst),
        }
    }

    fn note_alloc(&self, size: usize) {
        self.allocations.fetch_add(1, Ordering::SeqCst);
        self.bytes_allocated.fetch_add(size, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards to `inner`, itself a `GlobalAlloc`,
// with the caller's arguments unchanged; the counters are atomics and
// never allocate, so the wrapper upholds exactly the contract `inner`
// does. As in the real crate, the impl is on a reference, which is
// what a `#[global_allocator]` static holds.
unsafe impl<'a, T: GlobalAlloc + 'a> GlobalAlloc for &'a StatsAlloc<T> {
    // SAFETY: an `unsafe fn` of the trait; the caller's contract is
    // passed on to `inner` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        // for `layout`, which is passed through unchanged.
        unsafe { self.inner.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { self.inner.alloc_zeroed(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.deallocations.fetch_add(1, Ordering::SeqCst);
        self.bytes_deallocated
            .fetch_add(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `inner`, which made every block) with `layout`.
        unsafe { self.inner.dealloc(ptr, layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.reallocations.fetch_add(1, Ordering::SeqCst);
        let delta = new_size as isize - layout.size() as isize;
        self.bytes_reallocated.fetch_add(delta, Ordering::SeqCst);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `inner`) with `layout`, and that `new_size` is
        // valid for `layout`'s alignment.
        unsafe { self.inner.realloc(ptr, layout, new_size) }
    }
}

/// Measures the heap operations performed between its creation (or
/// last reset) and a call to [`change`](Region::change).
#[derive(Debug)]
pub struct Region<'a, T: GlobalAlloc + 'a> {
    alloc: &'a StatsAlloc<T>,
    initial: Stats,
}

impl<'a, T: GlobalAlloc + 'a> Region<'a, T> {
    /// Opens a region on `alloc`, starting from its current counters.
    pub fn new(alloc: &'a StatsAlloc<T>) -> Self {
        Region {
            alloc,
            initial: alloc.stats(),
        }
    }

    /// The counters when the region opened (or was last reset).
    pub fn initial(&self) -> &Stats {
        &self.initial
    }

    /// What changed since the region opened (or was last reset).
    pub fn change(&self) -> Stats {
        self.alloc.stats() - self.initial
    }

    /// [`change`](Region::change), then [`reset`](Region::reset).
    pub fn change_and_reset(&mut self) -> Stats {
        let now = self.alloc.stats();
        let change = now - self.initial;
        self.initial = now;
        change
    }

    /// Restarts the region from the allocator's current counters.
    pub fn reset(&mut self) {
        self.initial = self.alloc.stats();
    }
}

impl Add for Stats {
    type Output = Stats;

    fn add(mut self, rhs: Stats) -> Stats {
        self += rhs;
        self
    }
}

impl AddAssign for Stats {
    fn add_assign(&mut self, rhs: Stats) {
        self.allocations += rhs.allocations;
        self.deallocations += rhs.deallocations;
        self.reallocations += rhs.reallocations;
        self.bytes_allocated += rhs.bytes_allocated;
        self.bytes_deallocated += rhs.bytes_deallocated;
        self.bytes_reallocated += rhs.bytes_reallocated;
    }
}

impl Sub for Stats {
    type Output = Stats;

    fn sub(mut self, rhs: Stats) -> Stats {
        self -= rhs;
        self
    }
}

impl SubAssign for Stats {
    fn sub_assign(&mut self, rhs: Stats) {
        self.allocations -= rhs.allocations;
        self.deallocations -= rhs.deallocations;
        self.reallocations -= rhs.reallocations;
        self.bytes_allocated -= rhs.bytes_allocated;
        self.bytes_deallocated -= rhs.bytes_deallocated;
        self.bytes_reallocated -= rhs.bytes_reallocated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_counts_forwarded_operations() {
        // One allocator per test: tests run in parallel.
        static COUNTED: StatsAlloc<System> = StatsAlloc::system();
        let counted = &COUNTED;
        let region = Region::new(counted);
        let layout = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: `layout` has non-zero size; the block is grown with a
        // valid size for its alignment and freed with the layout it
        // was last given, all through the same allocator.
        unsafe {
            let p = counted.alloc(layout);
            assert!(!p.is_null());
            let q = counted.realloc(p, layout, 128);
            assert!(!q.is_null());
            counted.dealloc(q, Layout::from_size_align(128, 8).unwrap());
        }
        let change = region.change();
        assert_eq!(change.allocations, 1);
        assert_eq!(change.reallocations, 1);
        assert_eq!(change.deallocations, 1);
        assert_eq!(change.bytes_allocated, 64);
        assert_eq!(change.bytes_reallocated, 64);
        assert_eq!(change.bytes_deallocated, 128);
    }

    #[test]
    fn change_and_reset_restarts_the_region() {
        static COUNTED: StatsAlloc<System> = StatsAlloc::system();
        let counted = &COUNTED;
        let mut region = Region::new(counted);
        let layout = Layout::from_size_align(16, 8).unwrap();
        // SAFETY: non-zero size; freed with the same layout.
        unsafe { counted.dealloc(counted.alloc_zeroed(layout), layout) };
        assert_eq!(region.change_and_reset().allocations, 1);
        assert_eq!(region.change(), Stats::default());
    }
}
