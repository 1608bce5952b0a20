//! # gts-engine
//!
//! Cached, batchable execution of the paper's static analyses (*Static
//! Analysis of Graph Database Transformations*, PODS 2023, Section 4 /
//! Appendix B). The three analyses — type checking, equivalence, schema
//! elicitation — all bottom out in the same containment-modulo-schema
//! oracle (`gts-containment`); this crate owns the shared substrate those
//! reductions would otherwise rebuild per call:
//!
//! * [`AnalysisSession`] — per-(schema, vocabulary) state: the source
//!   schema, engine budgets, and a containment memo keyed on
//!   canonicalized query pairs, shared by every analysis (and every
//!   session clone) so repeated questions are hash lookups;
//! * [`Batch`] — many requests ([`Request::TypeCheck`] /
//!   [`Request::Equivalence`] / [`Request::Elicit`]) executed across a
//!   `std::thread` worker pool with a work-stealing-free sharded queue,
//!   all workers warming one memo;
//! * [`Json`] — the workspace's one JSON document model (defined in
//!   `gts-obs`, re-exported here) for machine-readable results
//!   (`gts batch`, `gts client`, the serve wire protocol).
//!
//! ## Quickstart
//!
//! ```
//! use gts_core::prelude::*;
//! use gts_engine::AnalysisSession;
//!
//! // A one-label schema with an r-self-loop, and the identity-style
//! // transformation copying nodes and edges.
//! let mut vocab = Vocab::new();
//! let a = vocab.node_label("A");
//! let r = vocab.edge_label("r");
//! let mut schema = Schema::new();
//! schema.set_edge(a, r, a, Mult::Star, Mult::Star);
//! let mut t = Transformation::new();
//! t.add_node_rule(
//!     a,
//!     C2rpq::new(1, vec![Var(0)], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }]),
//! );
//! t.add_edge_rule(
//!     r,
//!     (a, 1),
//!     (a, 1),
//!     C2rpq::new(
//!         2,
//!         vec![Var(0), Var(1)],
//!         vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
//!     ),
//! );
//!
//! // A session owns the schema-wide shared state; analyses route every
//! // containment question through its memo.
//! let mut session = AnalysisSession::new(schema.clone(), vocab);
//! let check = session.type_check(&t, &schema).unwrap();
//! assert!(check.holds && check.certified);
//!
//! // Re-analysis replays cached verdicts instead of re-deciding them.
//! session.type_check(&t, &schema).unwrap();
//! let stats = session.stats();
//! assert!(stats.hits > 0);
//! assert_eq!(stats.hit_rate() > 0.0, true);
//! ```

#![warn(missing_docs)]

mod batch;
pub mod disk;
pub mod identity;
mod session;

pub use batch::{Batch, BatchResult, Request, Verdict};
pub use disk::{DiskBinding, FlushReport, HydrateReport};
pub use gts_obs::{Json, JsonError};
pub use session::{AnalysisSession, CacheStats};
