//! Booleanization of containment instances (Lemma D.1).
//!
//! Containment of `n`-ary queries reduces to Boolean containment by
//! extending the schema with fresh *marker* labels `X_1 … X_n` and fresh
//! edge labels `r_1 … r_n`, and adding to both queries an atom
//! `∃y_i. (X_i · r_i)(y_i, x_i)` per free variable: a counterexample tuple
//! is "pinned" by marker nodes that the original regular expressions cannot
//! traverse.
//!
//! The markers are the reserved names `X{i}#` and `rX{i}#`, interned once
//! per vocabulary: `#` starts a comment in `.gts` text, so no parsed label
//! is one, and the labels other reductions mint are `{hint}#{n}`. So the
//! questions of one arity over one schema and vocabulary share one `S°`,
//! and the preparation of `T̂_{S°}` with it ([`crate::SchemaTboxes`]).

use gts_graph::{EdgeLabel, EdgeSym, NodeLabel, Vocab};
use gts_query::{Atom, C2rpq, Regex, Uc2rpq, Var};
use gts_schema::{Mult, Schema};

/// Result of Booleanization: the extended schema and the two Boolean
/// queries, plus the fresh markers (useful for diagnostics).
pub struct Booleanized {
    /// The schema `S°` over `Γ_S ∪ {X_i}` and `Σ_S ∪ {r_i}`.
    pub schema: Schema,
    /// `P°` (Boolean).
    pub p: Uc2rpq,
    /// `Q°` (Boolean).
    pub q: Uc2rpq,
    /// The marker node labels `X_i`.
    pub markers: Vec<NodeLabel>,
    /// The marker edge labels `r_i`.
    pub marker_edges: Vec<EdgeLabel>,
}

/// Booleanizes a containment instance `P(x̄) ⊆_S Q(x̄)` (Lemma D.1).
///
/// Panics if the two queries disagree on arity (an empty union adopts the
/// other side's arity).
pub fn booleanize(p: &Uc2rpq, q: &Uc2rpq, s: &Schema, vocab: &mut Vocab) -> Booleanized {
    let arity = p.arity().or(q.arity()).unwrap_or(0);
    if let (Some(ap), Some(aq)) = (p.arity(), q.arity()) {
        assert_eq!(ap, aq, "containment requires queries of equal arity");
    }

    let mut schema = s.clone();
    let mut markers = Vec::with_capacity(arity);
    let mut marker_edges = Vec::with_capacity(arity);
    for i in 0..arity {
        let x = vocab.node_label(&format!("X{i}#"));
        let r = vocab.edge_label(&format!("rX{i}#"));
        debug_assert!(
            !s.node_labels().contains(&x) && !s.edge_labels().contains(&r),
            "the schema already holds a marker label"
        );
        markers.push(x);
        marker_edges.push(r);
        schema.add_node_label(x);
        schema.add_edge_label(r);
        // A marker node has at most one outgoing r_i edge, to any original
        // label; original nodes may be pointed at by arbitrarily many
        // markers. All other marker edges stay implicitly 0.
        for &b in s.node_labels() {
            schema.set(x, EdgeSym::fwd(r), b, Mult::Opt);
            schema.set(b, EdgeSym::bwd(r), x, Mult::Star);
        }
    }

    let pin = |q: &Uc2rpq| Uc2rpq {
        disjuncts: q.disjuncts.iter().map(|d| pin_disjunct(d, &markers, &marker_edges)).collect(),
    };
    Booleanized { p: pin(p), q: pin(q), schema, markers, marker_edges }
}

fn pin_disjunct(d: &C2rpq, markers: &[NodeLabel], marker_edges: &[EdgeLabel]) -> C2rpq {
    let mut atoms = d.atoms.clone();
    let mut num_vars = d.num_vars;
    for (i, &fv) in d.free.iter().enumerate() {
        let y = Var(num_vars);
        num_vars += 1;
        atoms.push(Atom {
            x: y,
            y: fv,
            regex: Regex::node(markers[i]).then(Regex::edge(marker_edges[i])),
        });
    }
    C2rpq::new(num_vars, Vec::new(), atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::Graph;

    fn setup() -> (Vocab, Schema, Uc2rpq) {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let b = v.node_label("B");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, b, Mult::Star, Mult::Star);
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        (v, s, q)
    }

    #[test]
    fn booleanization_produces_boolean_queries() {
        let (mut v, s, q) = setup();
        let b = booleanize(&q, &q, &s, &mut v);
        assert!(b.p.is_boolean());
        assert!(b.q.is_boolean());
        assert_eq!(b.markers.len(), 2);
        // One pin atom per free variable was added.
        assert_eq!(b.p.disjuncts[0].atoms.len(), 3);
    }

    #[test]
    fn booleanization_preserves_acyclicity() {
        let (mut v, s, q) = setup();
        let b = booleanize(&q, &q, &s, &mut v);
        assert!(b.q.is_acyclic());
    }

    #[test]
    fn pinned_query_matches_on_marked_graphs_only() {
        let (mut v, s, q) = setup();
        let a = v.find_node_label("A").unwrap();
        let bb = v.find_node_label("B").unwrap();
        let r = v.find_edge_label("r").unwrap();
        let boolz = booleanize(&q, &q, &s, &mut v);

        // Unmarked graph: the pinned query does not hold.
        let mut g = Graph::new();
        let n0 = g.add_labeled_node([a]);
        let n1 = g.add_labeled_node([bb]);
        g.add_edge(n0, r, n1);
        assert!(!boolz.p.holds(&g));

        // Mark (n0, n1): now it holds, and the graph conforms to S°.
        let m0 = g.add_labeled_node([boolz.markers[0]]);
        let m1 = g.add_labeled_node([boolz.markers[1]]);
        g.add_edge(m0, boolz.marker_edges[0], n0);
        g.add_edge(m1, boolz.marker_edges[1], n1);
        assert!(boolz.p.holds(&g));
        assert_eq!(boolz.schema.conforms(&g), Ok(()));
    }

    #[test]
    fn extended_schema_contains_base_conforming_graphs() {
        let (mut v, s, q) = setup();
        let boolz = booleanize(&q, &q, &s, &mut v);
        // Every graph conforming to S conforms to S° (markers optional).
        assert!(s.contains_in(&boolz.schema));
    }

    /// Two questions of one arity share `S°`, and the second interns no
    /// label.
    #[test]
    fn markers_are_interned_once() {
        let (mut v, s, q) = setup();
        let first = booleanize(&q, &q, &s, &mut v);
        let labels = (v.num_node_labels(), v.num_edge_labels());
        let second = booleanize(&q, &q, &s, &mut v);
        assert_eq!((v.num_node_labels(), v.num_edge_labels()), labels);
        assert_eq!(first.schema, second.schema);
        assert_eq!(first.markers, second.markers);
        assert_eq!(v.node_name(first.markers[1]), "X1#");
        assert_eq!(v.edge_name(first.marker_edges[0]), "rX0#");
    }

    #[test]
    fn zero_arity_is_identity_on_queries() {
        let mut v = Vocab::new();
        let r = v.edge_label("r");
        let s = Schema::new();
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let b = booleanize(&q, &q, &s, &mut v);
        assert_eq!(b.p, q);
        assert!(b.markers.is_empty());
    }
}
