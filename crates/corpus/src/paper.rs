//! Fixtures of the paper's figures beyond the `medical` family: the
//! Figure 2 / Example 5.2 containment instance and the chain schemas of
//! the Theorem 5.1 scaling study.

use gts_core::prelude::*;

/// The Figure 2 fixture: schema `S`, queries `P` and `Q` of Example 5.2,
/// plus the loosened schema where containment fails.
pub struct Fig2Fixture {
    /// Vocabulary.
    pub vocab: Vocab,
    /// The schema with the incoming-`s` functionality.
    pub schema: Schema,
    /// The loosened schema (functionality dropped).
    pub loose: Schema,
    /// `P = ∃x. r(x,x)`.
    pub p: Uc2rpq,
    /// `Q = ∃x,y. (r·s⁺·r)(x,y)`.
    pub q: Uc2rpq,
}

/// Builds the Figure 2 fixture.
pub fn fig2() -> Fig2Fixture {
    let mut vocab = Vocab::new();
    let a = vocab.node_label("A");
    let s_edge = vocab.edge_label("s");
    let r_edge = vocab.edge_label("r");
    let mut schema = Schema::new();
    schema.set_edge(a, s_edge, a, Mult::Plus, Mult::Opt);
    schema.set_edge(a, r_edge, a, Mult::Star, Mult::Star);
    let mut loose = Schema::new();
    loose.set_edge(a, s_edge, a, Mult::Plus, Mult::Star);
    loose.set_edge(a, r_edge, a, Mult::Star, Mult::Star);
    let p = Uc2rpq::single(C2rpq::new(
        1,
        vec![],
        vec![Atom { x: Var(0), y: Var(0), regex: Regex::edge(r_edge) }],
    ));
    let splus = Regex::edge(s_edge).then(Regex::edge(s_edge).star());
    let q = Uc2rpq::single(C2rpq::new(
        2,
        vec![],
        vec![Atom {
            x: Var(0),
            y: Var(1),
            regex: Regex::edge(r_edge).then(splus).then(Regex::edge(r_edge)),
        }],
    ));
    Fig2Fixture { vocab, schema, loose, p, q }
}

/// A chain schema with `n` labels `L0 → L1 → … → L(n-1)` (one mandatory
/// `next` edge each).
fn chain_schema(n: usize, vocab: &mut Vocab) -> Schema {
    let labels: Vec<NodeLabel> = (0..n).map(|i| vocab.node_label(&format!("L{i}"))).collect();
    let next = vocab.edge_label("next");
    let mut s = Schema::new();
    for i in 0..n.saturating_sub(1) {
        s.set_edge(labels[i], next, labels[i + 1], Mult::One, Mult::Star);
    }
    if let Some(&last) = labels.last() {
        s.add_node_label(last);
    }
    s
}

/// A containment instance over the chain schema `L0 → L1 → … → L(n-1)`
/// (one mandatory `next` edge each): does a `k`-step `next` path from
/// `L0` end in a node with an outgoing `next` edge? (Holds iff
/// `k + 1 < n`.)
pub fn chain_instance(n: usize, k: usize, vocab: &mut Vocab) -> (Schema, Uc2rpq, Uc2rpq) {
    let schema = chain_schema(n, vocab);
    let l0 = vocab.node_label("L0");
    let next = vocab.edge_label("next");
    let steps = Regex::concat_all((0..k).map(|_| Regex::edge(next)));
    let p = Uc2rpq::single(C2rpq::new(
        2,
        vec![Var(0)],
        vec![Atom { x: Var(0), y: Var(1), regex: Regex::node(l0).then(steps) }],
    ));
    let q = Uc2rpq::single(C2rpq::new(
        3,
        vec![Var(0)],
        vec![Atom {
            x: Var(0),
            y: Var(1),
            regex: Regex::node(l0).then(Regex::concat_all((0..k + 1).map(|_| Regex::edge(next)))),
        }],
    ));
    (schema, p, q)
}
