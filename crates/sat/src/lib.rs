//! # gts-sat
//!
//! The satisfiability engine of the `gts` workspace: unrestricted (finite
//! or infinite) satisfiability of Boolean C2RPQs modulo Horn-ALCIF
//! TBoxes — the computational core that *Static Analysis of Graph Database
//! Transformations* (PODS 2023) reduces everything to (Theorem 6.1,
//! Appendix E).
//!
//! The implementation follows the proof of the `|p|`-sparse-model property
//! (Theorem 6.3) rather than the paper's nondeterministic skeleton-guessing
//! presentation: candidate cores (query match + witnessing paths) are
//! enumerated and chased deterministically, and the remaining existential
//! obligations are discharged by one Horn reasoner, [`HornFixpoint`]: the
//! least fixpoint of the TBox's canonical models, which is the paper's
//! pre-type elimination (Lemma E.5/E.6) without choices — Horn-ALCIF has
//! canonical models. The completion's entailment sweep asks the same
//! fixpoint. See DESIGN.md §3.2 for the complete/certified-answer
//! contract.
//!
//! ```
//! use gts_dl::{HornTbox, HornCi};
//! use gts_graph::{LabelSet, EdgeSym, EdgeLabel, NodeLabel};
//! use gts_query::{C2rpq, Atom, Var, Regex};
//! use gts_sat::{decide, Budget};
//!
//! // A ⊑ ∃r.A is satisfiable together with ∃x. A(x) — by an infinite
//! // chain (a finite model does not exist when each node must be fresh).
//! let mut tbox = HornTbox::new();
//! tbox.push(HornCi::Exists {
//!     lhs: LabelSet::singleton(0),
//!     role: EdgeSym::fwd(EdgeLabel(0)),
//!     rhs: LabelSet::singleton(0),
//! });
//! let query = C2rpq::new(1, vec![], vec![Atom {
//!     x: Var(0), y: Var(0), regex: Regex::node(NodeLabel(0)),
//! }]);
//! assert!(decide(&tbox, &query, &Budget::default()).is_sat());
//! ```

#![warn(missing_docs)]

mod budget;
mod chase;
mod engine;
mod entail;
mod types;

pub use budget::{Budget, UnknownReason, Verdict, Witness};
pub use chase::{ChaseFail, Core};
pub use engine::{decide, decide_in_ctx, universal_constraints_hold};
pub use entail::{HornFixpoint, Successors};
pub use types::{RuleIndex, TypeId, TypeUniverse};
