//! # mpil-alloc
//!
//! A counting wrapper around the system allocator, used to *enforce*
//! (not just claim) the allocation-free steady state of the simulation
//! message plane: `scale_run` reports allocations per event, and the
//! conformance suite asserts that a warmed-up gossip shuffle round
//! performs ~zero heap allocations.
//!
//! Install it as the global allocator in a binary or test target:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mpil_alloc::CountingAlloc = mpil_alloc::CountingAlloc;
//! ```
//!
//! then bracket the region of interest with [`snapshot`] and diff the
//! two snapshots with [`AllocSnapshot::since`]. The counters are
//! process-global relaxed atomics: cheap enough to leave on for whole
//! benchmark runs, and exact in single-threaded sections (which is what
//! the deterministic simulators are). If the allocator is *not*
//! installed, the counters simply stay at zero.
//!
//! Process-global also means: a test binary with several measuring
//! tests must serialise them (one `static Mutex<()>` each test holds
//! for its whole body). `cargo test` runs a binary's tests on parallel
//! threads, so an unserialised window is charged with its neighbours'
//! set-up allocations and the reading moves with thread timing.
//!
//! This is the one crate in the workspace that needs `unsafe`: the
//! [`GlobalAlloc`] trait is unsafe by definition. The implementation
//! adds nothing but counter bumps around `std::alloc::System`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Delegates every operation to
/// [`std::alloc::System`], bumping process-global counters on the way
/// through. `realloc` counts as one allocation event (it may move the
/// block) plus the grown byte delta.
pub struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds
// the `GlobalAlloc` contract; the counter bumps touch nothing else.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `layout`'s validity per the trait
        // contract; we forward it untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a prior alloc through this
        // allocator, which delegated to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: as in `dealloc`; `new_size` obeys the trait contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A point-in-time reading of the global counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events (`alloc`, `alloc_zeroed`, `realloc`) so far.
    pub allocs: u64,
    /// Deallocation events so far.
    pub deallocs: u64,
    /// Bytes requested by allocation events so far (growth only for
    /// `realloc`).
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas accumulated since `earlier` (saturating, so a
    /// stale pair never underflows).
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            deallocs: self.deallocs.saturating_sub(earlier.deallocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Reads the global counters. All zeros unless [`CountingAlloc`] is
/// installed as the `#[global_allocator]` of the running binary.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so the counters
    // stay flat; install-side behavior is covered by the scale_run
    // binary and the harness alloc_free conformance test.
    #[test]
    fn snapshots_diff_cleanly() {
        let a = AllocSnapshot {
            allocs: 10,
            deallocs: 4,
            bytes: 1024,
        };
        let b = AllocSnapshot {
            allocs: 25,
            deallocs: 9,
            bytes: 2048,
        };
        assert_eq!(
            b.since(a),
            AllocSnapshot {
                allocs: 15,
                deallocs: 5,
                bytes: 1024
            }
        );
        assert_eq!(a.since(b), AllocSnapshot::default(), "saturates, not wraps");
    }

    #[test]
    fn uninstalled_counters_are_stable() {
        let before = snapshot();
        let v: Vec<u64> = (0..64).collect();
        std::hint::black_box(&v);
        drop(v);
        let after = snapshot();
        assert_eq!(after.since(before), AllocSnapshot::default());
    }
}
