//! Honest bytes for the live view: `Incremental::approx_bytes` must be
//! within 20% of the heap that `Incremental::new` really keeps, on the
//! instance shape of the `exec-delta` benchmark (1,000 medical chains of
//! 8 antigens: 10,000 nodes, 9,000 edges).
//!
//! The heap is counted by the allocator of `counting/mod.rs`, which sees
//! every allocation of the process, so this file holds one test.

mod counting;

use gts_exec::Incremental;

#[test]
fn approx_bytes_is_within_a_fifth_of_what_incremental_new_keeps() {
    let (vocab, _, _, t0) = gts_corpus::medical_fixture();
    // A first, small view sets up whatever the process keeps once (the
    // metrics registry, the thread budget), so the count below holds the
    // view alone.
    drop(Incremental::new(&t0, &gts_corpus::medical_instance(&vocab, 2, 8)));
    let g = gts_corpus::medical_instance(&vocab, 1_000, 8);
    assert_eq!((g.num_nodes(), g.num_edges()), (10_000, 9_000));

    let before = counting::live();
    let inc = Incremental::new(&t0, &g);
    let kept = (counting::live() - before) as f64;
    let claimed = inc.approx_bytes() as f64;
    eprintln!("Incremental::new keeps {kept} bytes; approx_bytes says {claimed}");
    assert!(
        (claimed - kept).abs() <= 0.2 * kept,
        "approx_bytes {claimed} is off by more than 20% from the {kept} bytes kept"
    );
}
