//! # gts-query
//!
//! Conjunctive two-way regular path queries for the `gts` workspace —
//! the query language of *Static Analysis of Graph Database
//! Transformations* (PODS 2023, Section 3):
//!
//! * [`Regex`] — two-way regular expressions over node tests `Γ` and edge
//!   symbols `Σ±`, with reversal and the nesting operator `p[q]` of
//!   Appendix F;
//! * [`Nfa`] — Glushkov position automata with graph-product evaluation,
//!   language-finiteness analysis, and exhaustive word enumeration (the
//!   workhorse of the satisfiability engine);
//! * [`C2rpq`] / [`Uc2rpq`] — queries and unions, the acyclicity check on
//!   query multigraphs, and a complete evaluator over finite graphs (also
//!   the brute-force oracle for containment tests).
//!
//! ```
//! use gts_graph::Vocab;
//! use gts_query::{Regex, C2rpq, Atom, Var};
//!
//! // Example 3.2: vaccines with the antigens they target directly or
//! // through cross-reaction.
//! let mut v = Vocab::new();
//! let dt = v.edge_label("designTarget");
//! let cr = v.edge_label("crossReacting");
//! let q = C2rpq::new(2, vec![Var(0), Var(1)], vec![Atom {
//!     x: Var(0),
//!     y: Var(1),
//!     regex: Regex::edge(dt).then(Regex::edge(cr).star()),
//! }]);
//! assert!(q.is_acyclic());
//! ```

#![warn(missing_docs)]

mod c2rpq;
mod nfa;
mod nre;
mod regex;

pub use c2rpq::{Atom, C2rpq, Uc2rpq, Var};
pub use nfa::Nfa;
pub use nre::{lower_nre, FlattenError, LoweredNre, NestTable, Nre, NreAtom, NreC2rpq, NreUc2rpq};
pub use regex::{AtomSym, Regex};
