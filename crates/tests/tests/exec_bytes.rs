//! Honest bytes for the live view: `Incremental::approx_bytes` must be
//! within 20% of the heap that `Incremental::new` really keeps, on the
//! instance shape of the `exec-delta` benchmark (1,000 medical chains of
//! 8 antigens: 10,000 nodes, 9,000 edges).
//!
//! A counting `#[global_allocator]` sees every allocation of the process,
//! so this file is its own test binary and holds one test.

use gts_exec::Incremental;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes of the process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, whose
// own guarantees therefore hold; the count beside it touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn approx_bytes_is_within_a_fifth_of_what_incremental_new_keeps() {
    let (vocab, _, _, t0) = gts_corpus::medical_fixture();
    // A first, small view sets up whatever the process keeps once (the
    // metrics registry, the thread budget), so the count below holds the
    // view alone.
    drop(Incremental::new(&t0, &gts_corpus::medical_instance(&vocab, 2, 8)));
    let g = gts_corpus::medical_instance(&vocab, 1_000, 8);
    assert_eq!((g.num_nodes(), g.num_edges()), (10_000, 9_000));

    let before = LIVE.load(Ordering::SeqCst);
    let inc = Incremental::new(&t0, &g);
    let kept = (LIVE.load(Ordering::SeqCst) - before) as f64;
    let claimed = inc.approx_bytes() as f64;
    eprintln!("Incremental::new keeps {kept} bytes; approx_bytes says {claimed}");
    assert!(
        (claimed - kept).abs() <= 0.2 * kept,
        "approx_bytes {claimed} is off by more than 20% from the {kept} bytes kept"
    );
}
