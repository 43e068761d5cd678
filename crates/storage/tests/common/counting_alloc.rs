//! A counting global allocator for the footprint and allocation pins, shared
//! by `#[path]`. Each pin is one `#[test]` in its own binary, so the
//! counters see nothing but that scenario.

// each pin reads the counter it needs
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Allocations made so far (a reallocation counts as one).
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Bytes allocated and not yet freed, right now.
pub fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

/// Allocations made so far, right now.
pub fn allocs() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counters are bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
