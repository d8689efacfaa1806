//! The traced benchmark binary: per-layer metrics, with a counting global
//! allocator so spans report heap allocations beside wall time.

use perfbench::trace::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations counted so far (statistics only: `Relaxed` publishes
/// nothing else).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Whether allocations are being counted.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Delegates to the system allocator, counting every allocation and
/// reallocation while enabled.
struct Counting;

impl Counting {
    fn count() {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() -> std::process::ExitCode {
    perfbench::main_with(Some(Tracer {
        count: || ALLOCS.load(Ordering::Relaxed),
        set_enabled: |on| ENABLED.store(on, Ordering::Relaxed),
    }))
}
