//! A counting global allocator: the heap bytes the program holds, as it
//! requested them.
//!
//! The process's resident-set peak (`VmHWM`) depends on the system
//! allocator's state — the same pass reads 32 MiB in one process and
//! 49 MiB in the next — while requested bytes repeat exactly for the same
//! inputs. Their peak still jumps wherever a growing buffer doubles its
//! capacity, so the end-to-end memory metric is the held bytes averaged
//! over the run's cycles, which moves smoothly with the input size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Forwards to [`System`], counting the bytes each call requests.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static BASE: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters around the call.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Makes the current live bytes the base that [`held`] and [`peak`]
/// count from.
pub fn reset() {
    let live = LIVE.load(Relaxed);
    BASE.store(live, Relaxed);
    PEAK.store(live, Relaxed);
}

/// Live bytes above the base.
pub fn held() -> usize {
    LIVE.load(Relaxed).saturating_sub(BASE.load(Relaxed))
}

/// The highest live byte count since the last [`reset`], above the base.
pub fn peak() -> usize {
    PEAK.load(Relaxed).saturating_sub(BASE.load(Relaxed))
}
