//! # gts-graph
//!
//! Foundation crate of the `gts` workspace — the data model of
//! *Static Analysis of Graph Database Transformations* (PODS 2023):
//! finite labeled directed multigraphs over interned vocabularies of node
//! labels (Γ) and edge labels (Σ), plus the bitset label algebra and the
//! fast hash maps shared by every decision procedure upstream.
//!
//! ```
//! use gts_graph::{Graph, Vocab, EdgeSym};
//!
//! let mut vocab = Vocab::new();
//! let vaccine = vocab.node_label("Vaccine");
//! let antigen = vocab.node_label("Antigen");
//! let targets = vocab.edge_label("designTarget");
//!
//! let mut g = Graph::new();
//! let v = g.add_labeled_node([vaccine]);
//! let a = g.add_labeled_node([antigen]);
//! g.add_edge(v, targets, a);
//!
//! assert_eq!(g.successors(v, EdgeSym::fwd(targets)).count(), 1);
//! assert_eq!(g.successors(a, EdgeSym::bwd(targets)).count(), 1);
//! ```

#![warn(missing_docs)]

mod bitset;
mod delta;
mod fxhash;
mod graph;
mod vocab;

pub use bitset::LabelSet;
pub use delta::{DeltaEffects, DeltaTarget, GraphDelta};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use graph::{Graph, NodeId};
pub use vocab::{EdgeLabel, EdgeSym, NodeLabel, Vocab};
