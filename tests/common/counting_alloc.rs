//! A per-thread counting global allocator for the budget suites.
//!
//! A test binary opts in with
//! `#[path = "common/counting_alloc.rs"] mod counting_alloc;` — the
//! module installs itself as the binary's `#[global_allocator]`, so it
//! is deliberately not part of `common/mod.rs`, which every other test
//! binary includes. The counters are per thread (the test harness runs
//! tests in parallel), so each test sees only what its own calls asked
//! for.
#![allow(dead_code)] // each test binary reads a subset of the counters

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A reallocation of a block this large is an output vector regrowing
/// (every table a reader keeps on the suites' inputs is far smaller).
pub const LARGE: usize = 256 * 1024;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGE_REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

/// `System` plus per-thread counts of allocations and bytes requested.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the added work touches only
// const-initialised thread-local cells, which neither allocate nor
// register destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods of this impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        if layout.size() >= LARGE {
            LARGE_REALLOCS.with(|c| c.set(c.get() + 1));
        }
        // SAFETY: `ptr` came from `System` via the methods of this impl
        // and the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What the calling thread has asked of the allocator so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// `realloc`s of a block of at least [`LARGE`] bytes.
    pub large_reallocs: u64,
}

pub fn now() -> Counts {
    Counts {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        large_reallocs: LARGE_REALLOCS.with(Cell::get),
    }
}

/// Runs `f` and returns its result with what it asked of the allocator.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = now();
    let out = f();
    let after = now();
    (
        out,
        Counts {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
            large_reallocs: after.large_reallocs - before.large_reallocs,
        },
    )
}
