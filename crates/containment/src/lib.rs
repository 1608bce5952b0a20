//! # gts-containment
//!
//! Containment of UC2RPQs in acyclic UC2RPQs modulo schema — the
//! EXPTIME-complete problem at the heart of *Static Analysis of Graph
//! Database Transformations* (PODS 2023, Theorem 5.1), assembled from the
//! paper's reductions:
//!
//! * [`booleanize`] — Lemma D.1 (marker labels pin answer tuples);
//! * [`hat_union`] — the relativization `P → P̂` of Theorem 5.6;
//! * [`rollup_negation`] — Lemma C.2 (acyclic queries to Horn TBoxes);
//! * [`complete`] — finmod-cycle reversal / Theorem 5.4 (finite ↔
//!   unrestricted satisfiability);
//! * `entail` — CI entailment via Corollary E.7, for the completion sweep;
//! * [`contains`] — the top-level decision procedure;
//! * `oracle` helpers — brute-force finite differential oracles.
//!
//! ```
//! use gts_graph::Vocab;
//! use gts_query::{Atom, C2rpq, Regex, Uc2rpq, Var};
//! use gts_schema::{Mult, Schema};
//! use gts_containment::{contains, ContainmentOptions};
//!
//! let mut v = Vocab::new();
//! let a = v.node_label("A");
//! let r = v.edge_label("r");
//! let mut s = Schema::new();
//! s.set_edge(a, r, a, Mult::Star, Mult::Star);
//! let q = Uc2rpq::single(C2rpq::new(2, vec![Var(0), Var(1)], vec![Atom {
//!     x: Var(0), y: Var(1), regex: Regex::edge(r),
//! }]));
//! let ans = contains(&q, &q, &s, &mut v, &ContainmentOptions::default()).unwrap();
//! assert!(ans.holds && ans.certified);
//! ```

#![warn(missing_docs)]

mod booleanize;
mod cache;
mod completion;
mod contains;
mod entail;
mod hatp;
mod nre;
mod oracle;
mod rollup;
mod tbox_containment;
mod witness;

pub use booleanize::{booleanize, Booleanized};
pub use cache::{OracleCache, OracleCacheStats};
pub use completion::{complete, complete_with, Completion, CompletionConfig};
pub use contains::{
    contains, satisfiable_modulo_schema, ContainmentAnswer, ContainmentError, ContainmentOptions,
};
pub use hatp::{hat_query, hat_regex, hat_union};
pub use nre::{contains_nre, nest_tbox};
pub use oracle::{
    assert_consistent_with_oracle, counterexample_by_sampling, counterexample_exhaustive,
    is_counterexample,
};
pub use rollup::{rollup_component, rollup_negation, Rollup, RollupError};
pub use tbox_containment::{contains_finite_modulo_tbox, finitely_satisfiable_modulo_tbox};
pub use witness::{
    finite_counterexample, finite_counterexample_nre, sample_counterexample, FiniteCounterexample,
    WitnessConfig,
};
