//! Honest bytes for the prepared schema TBoxes a session keeps:
//! `SchemaTboxes::approx_bytes`, which `CacheStats::approx_bytes` adds to
//! the memo's figure, must be within 20% of the heap that preparing
//! `T̂_{S°}` really keeps, on the Booleanized source schema of the FHIR
//! corpus family, and of the heap that dropping a `SchemaTboxes` frees
//! once the FHIR family's questions have filled its completion memos.
//!
//! The heap is counted by the allocator of `counting/mod.rs`, which sees
//! every allocation of the process, so this file holds one test.

mod counting;

use gts_core::containment::{
    booleanize, contains_with, ContainmentError, ContainmentOptions, PreparedTbox, SchemaTboxes,
};
use gts_core::graph::Vocab;
use gts_core::query::{C2rpq, Uc2rpq, Var};
use gts_core::schema::Schema;
use gts_core::{
    elicit_schema_with, equivalence_with, type_check_with, ContainmentOracle, Decision,
};
use gts_corpus::{scenario, Expectation, Family, Params};

/// Answers every question through `contains_with` over one shared
/// `SchemaTboxes`, as a session does.
struct Shared<'a> {
    schema: &'a Schema,
    vocab: &'a mut Vocab,
    tboxes: &'a SchemaTboxes,
}

impl ContainmentOracle for Shared<'_> {
    fn contains(&mut self, p: &Uc2rpq, q: &Uc2rpq) -> Result<Decision, ContainmentError> {
        let opts = ContainmentOptions::default();
        let ans = contains_with(p, q, self.schema, self.vocab, &opts, self.tboxes)?;
        Ok(Decision { holds: ans.holds, certified: ans.certified })
    }
}

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

    // The same `SchemaTboxes` with its completion memos filled by the
    // family's questions. Their bytes are what dropping it frees; the
    // memos of the unary and binary S° of the primary source, which most
    // questions meet, are what those TBoxes free beyond an unfilled
    // preparation of the same S°.
    let unary = Uc2rpq::single(C2rpq::new(1, vec![Var(0)], vec![]));
    let s_unary = booleanize(&unary, &unary, source, &mut vocab).schema;
    let held = [prepared, tboxes.get(&s_unary)];
    let schema = |name: &str| sc.schema(name).expect("a corpus schema");
    let transform = |name: &str| sc.transform(name).expect("a corpus transform");
    for e in &sc.expectations {
        match e {
            Expectation::TypeCheck { transform: t, source, target, .. } => {
                let oracle =
                    &mut Shared { schema: schema(source), vocab: &mut vocab, tboxes: &tboxes };
                type_check_with(transform(t), schema(target), oracle).expect("a type check");
            }
            Expectation::Equivalence { left, right, source, .. } => {
                let oracle =
                    &mut Shared { schema: schema(source), vocab: &mut vocab, tboxes: &tboxes };
                equivalence_with(transform(left), transform(right), oracle)
                    .expect("an equivalence");
            }
        }
    }
    let oracle = &mut Shared { schema: source, vocab: &mut vocab, tboxes: &tboxes };
    elicit_schema_with(transform(&sc.primary.transform), oracle).expect("an elicitation");
    for (t, s) in held.iter().zip([&s_deg, &s_unary]) {
        assert!(std::sync::Arc::ptr_eq(t, &tboxes.get(s)), "T̂_S° is still kept");
    }

    let mut unfilled_kept = 0;
    let mut claimed_memo = 0;
    for (t, s) in held.iter().zip([&s_deg, &s_unary]) {
        let before = counting::live();
        let unfilled = PreparedTbox::new(&s.hat_tbox());
        unfilled_kept += counting::live() - before;
        claimed_memo += t.approx_bytes() - unfilled.approx_bytes();
    }
    let completions: usize = held.iter().map(|t| t.completions()).sum();
    let claimed = tboxes.approx_bytes() as f64;
    let before = counting::live();
    drop(tboxes);
    let others = before - counting::live();
    let before = counting::live();
    drop(held);
    let ours = before - counting::live();
    let (kept, kept_memo) = ((others + ours) as f64, (ours - unfilled_kept) as f64);
    let claimed_memo = claimed_memo as f64;
    eprintln!(
        "the filled SchemaTboxes frees {kept} bytes, approx_bytes says {claimed}; the \
         {completions} completions memoized over the primary source hold {kept_memo}, \
         approx_bytes says {claimed_memo}"
    );
    assert!(completions > 5, "the memos hold completions");
    for (claimed, kept) in [(claimed, kept), (claimed_memo, kept_memo)] {
        assert!(
            (claimed - kept).abs() <= 0.2 * kept,
            "approx_bytes {claimed} is off by more than 20% from the {kept} bytes freed"
        );
    }
}
