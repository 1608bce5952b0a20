//! # gts-exec
//!
//! A high-performance execution engine for the paper's graph
//! transformations (*Static Analysis of Graph Database Transformations*,
//! PODS 2023, Section 4) over concrete finite instances — the *dynamic*
//! counterpart to the static analyses of `gts-core`/`gts-engine`.
//!
//! The naive semantics ([`gts_core::Transformation::apply`]) re-runs an
//! NFA product per candidate node pair through hash-backed adjacency.
//! This crate replaces that hot path with:
//!
//! * [`IndexedGraph`] — a CSR-style index built once per instance:
//!   forward/reverse adjacency per edge label plus per-label node
//!   bitsets, read-only during evaluation (only [`Incremental`], which
//!   keeps a transformation's output live under deltas, patches it);
//! * [`Relation`] — RPQ evaluation by frontier-based BFS over the
//!   product of the graph with the atom's Glushkov automaton
//!   ([`gts_query::Nfa`]), with [`gts_graph::LabelSet`] bitset
//!   frontiers and an anchored-source prefilter;
//! * [`execute`] / [`execute_with`] — whole-transformation execution
//!   with per-rule parallelism over a sharded `std::thread` worker pool
//!   (the same work-stealing-free pattern as `gts-engine`'s batches),
//!   deterministic regardless of thread count;
//! * the **differential harness** ([`differential_type_check`],
//!   [`differential_equivalence`]) — samples random conforming
//!   instances, executes the transformations, and cross-checks the
//!   observed outputs against the static verdicts, reporting any
//!   counterexample instance.
//!
//! ## Quickstart
//!
//! ```
//! use gts_core::prelude::*;
//! use gts_exec::{execute, IndexedGraph, output_facts, ExecOptions};
//!
//! let mut vocab = Vocab::new();
//! let t0 = medical_transformation(&mut vocab);
//! let vaccine = vocab.find_node_label("Vaccine").unwrap();
//! let antigen = vocab.find_node_label("Antigen").unwrap();
//! let dt = vocab.find_edge_label("designTarget").unwrap();
//!
//! let mut g = Graph::new();
//! let v = g.add_labeled_node([vaccine]);
//! let a = g.add_labeled_node([antigen]);
//! g.add_edge(v, dt, a);
//!
//! // Indexed execution agrees with the naive semantics, fact for fact.
//! let out = execute(&t0, &g);
//! assert_eq!(out.num_nodes(), 2);
//! let idx = IndexedGraph::build(&g);
//! assert_eq!(output_facts(&idx, &t0, &ExecOptions::default()), t0.output_facts(&g));
//! ```

#![warn(missing_docs)]

mod delta;
mod exec;
mod harness;
mod index;
mod rpq;

pub use delta::{
    DeltaOutcome, DeltaStrategy, Incremental, FALLBACK_FRONTIER_DIVISOR, FALLBACK_TOUCH_DIVISOR,
    MIN_FALLBACK_TOUCHED,
};
pub use exec::{
    eval_c2rpq, eval_rule_bodies, eval_uc2rpq, execute, execute_and_facts, execute_indexed,
    execute_with, output_facts, EdgeFact, ExecOptions, NodeFact, DEFAULT_MIN_PARALLEL_WORK,
};
pub use harness::{
    differential_equivalence, differential_type_check, Disagreement, HarnessConfig, HarnessReport,
};
pub use index::{IndexBuildOptions, IndexError, IndexedGraph};
pub use rpq::{NodeCol, NodeColIter, Relation};
