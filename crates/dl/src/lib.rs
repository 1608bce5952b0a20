//! # gts-dl
//!
//! The description-logic substrate of the `gts` workspace: the ALCIF
//! concept language of *Static Analysis of Graph Database Transformations*
//! (PODS 2023, Section 3), its Horn fragment in the six normal forms used by
//! every reduction in the paper, and the `L0` fragment that corresponds
//! one-to-one to graph schemas with participation constraints.
//!
//! Concept names are identified with node labels (both live in a
//! [`gts_graph::Vocab`]); conjunctions `K` of concept names are
//! [`gts_graph::LabelSet`] bitsets.
//!
//! ```
//! use gts_graph::{Vocab, LabelSet, EdgeSym};
//! use gts_dl::{HornTbox, HornCi};
//!
//! let mut v = Vocab::new();
//! let pathogen = v.node_label("Pathogen");
//! let antigen = v.node_label("Antigen");
//! let exhibits = EdgeSym::fwd(v.edge_label("exhibits"));
//!
//! // Pathogen ⊑ ∃exhibits.Antigen   (Example 3.3 of the paper)
//! let mut tbox = HornTbox::new();
//! tbox.push(HornCi::Exists {
//!     lhs: LabelSet::singleton(pathogen.0),
//!     role: exhibits,
//!     rhs: LabelSet::singleton(antigen.0),
//! });
//! assert_eq!(tbox.used_labels(), LabelSet::from_iter([pathogen.0, antigen.0]));
//! ```

#![warn(missing_docs)]

mod concept;
mod horn;
mod l0;

pub use concept::{Concept, ConceptInclusion};
pub use horn::{datalog_satisfies, HornCi, HornTbox, Violation};
pub use l0::{L0Kind, L0Statement, L0Tbox};
