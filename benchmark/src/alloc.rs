//! The process allocator: the system allocator, or `mpil-alloc`'s
//! counting one while a traced run asks for allocation counts.
//!
//! Counting bumps shared atomics on every allocation, which 50 service
//! threads would feel; the end-to-end (untraced) runs therefore go
//! straight to the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use mpil_alloc::CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Turns allocation counting on or off; read the counts with
/// `mpil_alloc::snapshot()`.
pub fn count(on: bool) {
    // Relaxed: the flag publishes no other data, it only picks which of
    // two equivalent allocators bumps a statistic.
    COUNTING.store(on, Ordering::Relaxed);
}

pub struct SwitchAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// directly or through `CountingAlloc` (which itself only forwards to
// `System` after bumping counters). A block is therefore always
// allocated and freed by `System`, whichever way the flag pointed at
// either moment, and `System` upholds the `GlobalAlloc` contract.
unsafe impl GlobalAlloc for SwitchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `layout`'s validity; forwarded as is.
        unsafe {
            if COUNTING.load(Ordering::Relaxed) {
                CountingAlloc.alloc(layout)
            } else {
                System.alloc(layout)
            }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        unsafe {
            if COUNTING.load(Ordering::Relaxed) {
                CountingAlloc.alloc_zeroed(layout)
            } else {
                System.alloc_zeroed(layout)
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through one of the arms above,
        // with this `layout`.
        unsafe {
            if COUNTING.load(Ordering::Relaxed) {
                CountingAlloc.dealloc(ptr, layout)
            } else {
                System.dealloc(ptr, layout)
            }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` obeys the trait contract.
        unsafe {
            if COUNTING.load(Ordering::Relaxed) {
                CountingAlloc.realloc(ptr, layout, new_size)
            } else {
                System.realloc(ptr, layout, new_size)
            }
        }
    }
}
