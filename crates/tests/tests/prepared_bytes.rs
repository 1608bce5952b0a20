//! Honest bytes for the prepared schema TBoxes a session keeps:
//! `SchemaTboxes::approx_bytes`, which `CacheStats::approx_bytes` adds to
//! the memo's figure, must be within 20% of the heap that preparing
//! `T̂_{S°}` really keeps, on the Booleanized source schema of the FHIR
//! corpus family.
//!
//! The heap is counted by the allocator of `counting/mod.rs`, which sees
//! every allocation of the process, so this file holds one test.

mod counting;

use gts_core::containment::{booleanize, SchemaTboxes};
use gts_core::query::{C2rpq, Uc2rpq, Var};
use gts_corpus::{scenario, Family, Params};

#[test]
fn approx_bytes_is_within_a_fifth_of_what_a_prepared_schema_tbox_keeps() {
    let sc = scenario(Family::Fhir, &Params::quick());
    let mut vocab = sc.vocab.clone();
    let source = sc.schema(&sc.primary.source).expect("the primary source schema");
    // A binary question's S°: the source schema with two markers.
    let pair = Uc2rpq::single(C2rpq::new(2, vec![Var(0), Var(1)], vec![]));
    let s_deg = booleanize(&pair, &pair, source, &mut vocab).schema;
    // A first, small preparation sets up whatever the process keeps once
    // (the metrics registry, the span machinery), so the count below
    // holds the prepared TBox alone.
    SchemaTboxes::default().get(&gts_core::schema::Schema::new());

    let tboxes = SchemaTboxes::default();
    let before = counting::live();
    let prepared = tboxes.get(&s_deg);
    let kept = (counting::live() - before) as f64;
    let claimed = tboxes.approx_bytes() as f64;
    eprintln!(
        "preparing T̂_S° ({} CIs) keeps {kept} bytes; approx_bytes says {claimed}",
        prepared.len()
    );
    assert!(prepared.len() > 100, "a schema TBox of some size");
    assert!(
        (claimed - kept).abs() <= 0.2 * kept,
        "approx_bytes {claimed} is off by more than 20% from the {kept} bytes kept"
    );
}
