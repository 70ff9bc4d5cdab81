//! A counting global allocator: allocator calls, bytes requested, live
//! bytes and the live-bytes peak. The benchmark binary installs it so the
//! simulation's allocation traffic and peak heap are read from outside
//! the program.
//!
//! The counters are relaxed atomics: they publish no other data, and the
//! measured simulation runs on the main thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

fn grow(by: u64) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every operation is forwarded unchanged to `System`; the
// bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        grow(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        grow(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        if new_size as u64 >= layout.size() as u64 {
            grow((new_size - layout.size()) as u64);
        } else {
            LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls and bytes requested so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub calls: u64,
    pub bytes: u64,
}

pub fn counts() -> Counts {
    Counts {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

impl Counts {
    pub fn since(self, before: Counts) -> Counts {
        Counts {
            calls: self.calls - before.calls,
            bytes: self.bytes - before.bytes,
        }
    }
}

/// Restart peak tracking from the current live heap; returns that level.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The largest live heap since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
