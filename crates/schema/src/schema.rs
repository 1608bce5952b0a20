//! Graph schemas with participation constraints (Section 3).
//!
//! A schema is a triple `S = (Γ_S, Σ_S, δ_S)` where `δ_S` maps each
//! `(A, R, B) ∈ Γ_S × Σ±_S × Γ_S` to a multiplicity in `{?, 1, +, *, 0}`;
//! absent entries are implicitly `0` (Example 3.1). A finite graph conforms
//! to `S` iff every node carries exactly one label, from `Γ_S`, every edge
//! label is in `Σ_S`, and every count of labeled `R`-successors matches
//! `δ_S`.

use crate::Mult;
use gts_dl::{HornCi, HornTbox, L0Kind, L0Statement, L0Tbox};
use gts_graph::{EdgeLabel, EdgeSym, FxHashMap, Graph, LabelSet, NodeId, NodeLabel, Vocab};

/// Why a graph fails to conform to a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConformanceError {
    /// A node does not carry exactly one label from `Γ_S`.
    BadNodeLabels {
        /// The offending node.
        node: NodeId,
        /// How many allowed labels it carries.
        count: usize,
    },
    /// An edge uses a label outside `Σ_S`.
    EdgeLabelNotAllowed {
        /// Edge source.
        src: NodeId,
        /// The offending label.
        label: EdgeLabel,
        /// Edge target.
        tgt: NodeId,
    },
    /// A participation constraint `δ_S(a, sym, b)` is violated.
    MultiplicityViolated {
        /// The constrained node.
        node: NodeId,
        /// Its label `A`.
        a: NodeLabel,
        /// The edge symbol `R`.
        sym: EdgeSym,
        /// The successor label `B`.
        b: NodeLabel,
        /// Observed count of labeled successors.
        count: usize,
        /// The multiplicity required by the schema.
        expected: Mult,
    },
}

/// A graph schema with participation constraints.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schema {
    node_labels: Vec<NodeLabel>,
    edge_labels: Vec<EdgeLabel>,
    delta: FxHashMap<(NodeLabel, EdgeSym, NodeLabel), Mult>,
}

impl Schema {
    /// An empty schema (accepts only the empty graph).
    pub fn new() -> Self {
        Schema::default()
    }

    /// Declares a node label in `Γ_S` (idempotent).
    pub fn add_node_label(&mut self, l: NodeLabel) {
        if !self.node_labels.contains(&l) {
            self.node_labels.push(l);
            self.node_labels.sort();
        }
    }

    /// Declares an edge label in `Σ_S` (idempotent).
    pub fn add_edge_label(&mut self, l: EdgeLabel) {
        if !self.edge_labels.contains(&l) {
            self.edge_labels.push(l);
            self.edge_labels.sort();
        }
    }

    /// Sets `δ_S(a, sym, b) = m`, declaring the labels as needed.
    pub fn set(&mut self, a: NodeLabel, sym: EdgeSym, b: NodeLabel, m: Mult) {
        self.add_node_label(a);
        self.add_node_label(b);
        self.add_edge_label(sym.label);
        if m == Mult::Zero {
            self.delta.remove(&(a, sym, b));
        } else {
            self.delta.insert((a, sym, b), m);
        }
    }

    /// Declares an `r`-edge from `A`-nodes to `B`-nodes with forward
    /// multiplicity `fwd = δ(A, r, B)` and backward multiplicity
    /// `bwd = δ(B, r⁻, A)` — the two annotations of an edge in a schema
    /// diagram like Figure 1.
    pub fn set_edge(&mut self, a: NodeLabel, r: EdgeLabel, b: NodeLabel, fwd: Mult, bwd: Mult) {
        self.set(a, EdgeSym::fwd(r), b, fwd);
        self.set(b, EdgeSym::bwd(r), a, bwd);
    }

    /// Looks up `δ_S(a, sym, b)` (implicitly `0` when absent or when the
    /// labels are not part of the schema).
    pub fn mult(&self, a: NodeLabel, sym: EdgeSym, b: NodeLabel) -> Mult {
        self.delta.get(&(a, sym, b)).copied().unwrap_or(Mult::Zero)
    }

    /// The declared node labels `Γ_S` (sorted).
    pub fn node_labels(&self) -> &[NodeLabel] {
        &self.node_labels
    }

    /// The declared edge labels `Σ_S` (sorted).
    pub fn edge_labels(&self) -> &[EdgeLabel] {
        &self.edge_labels
    }

    /// `Γ_S` as a label set.
    pub fn node_label_set(&self) -> LabelSet {
        LabelSet::from_iter(self.node_labels.iter().map(|l| l.0))
    }

    /// Approximate heap bytes: the label lists and the `δ` table (an entry
    /// per key and value, plus about one control byte and load-factor
    /// slack).
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<((NodeLabel, EdgeSym, NodeLabel), Mult)>() + 8;
        self.node_labels.capacity() * std::mem::size_of::<NodeLabel>()
            + self.edge_labels.capacity() * std::mem::size_of::<EdgeLabel>()
            + self.delta.capacity() * entry
    }

    /// All symbols in `Σ±_S`.
    pub fn syms(&self) -> impl Iterator<Item = EdgeSym> + '_ {
        self.edge_labels.iter().flat_map(|&l| [EdgeSym::fwd(l), EdgeSym::bwd(l)])
    }

    /// `true` iff `l ∈ Γ_S`.
    pub fn has_node_label(&self, l: NodeLabel) -> bool {
        self.node_labels.binary_search(&l).is_ok()
    }

    /// `true` iff `l ∈ Σ_S`.
    pub fn has_edge_label(&self, l: EdgeLabel) -> bool {
        self.edge_labels.binary_search(&l).is_ok()
    }

    /// Checks conformance of a finite graph (Section 3).
    pub fn conforms(&self, g: &Graph) -> Result<(), ConformanceError> {
        // 1) every node has exactly one label, and it is allowed.
        for n in g.nodes() {
            let labels = g.labels(n);
            let allowed = labels.iter().filter(|&l| self.has_node_label(NodeLabel(l))).count();
            if labels.len() != 1 || allowed != 1 {
                return Err(ConformanceError::BadNodeLabels { node: n, count: allowed });
            }
        }
        // 2) every edge label is allowed.
        for (src, l, tgt) in g.edges() {
            if !self.has_edge_label(l) {
                return Err(ConformanceError::EdgeLabelNotAllowed { src, label: l, tgt });
            }
        }
        // 3) participation constraints.
        for n in g.nodes() {
            let a = NodeLabel(g.labels(n).first().expect("checked above"));
            for sym in self.syms() {
                for &b in &self.node_labels {
                    let count = g.count_labeled_successors(n, sym, b);
                    let expected = self.mult(a, sym, b);
                    if !expected.allows(count) {
                        return Err(ConformanceError::MultiplicityViolated {
                            node: n,
                            a,
                            sym,
                            b,
                            count,
                            expected,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Syntactic schema containment `L(self) ⊆ L(other)` via the order `≼`
    /// (Proposition B.3, generalized to `Γ_self ⊆ Γ_other`).
    pub fn contains_in(&self, other: &Schema) -> bool {
        let gamma_ok = self.node_labels.iter().all(|l| other.has_node_label(*l));
        let sigma_ok = self.edge_labels.iter().all(|l| other.has_edge_label(*l));
        if !gamma_ok || !sigma_ok {
            return false;
        }
        // For every source label that graphs of `self` may use, every
        // constraint of `other` must be ≽ the (possibly implicit 0)
        // constraint of `self`.
        for &a in &self.node_labels {
            for sym in other.syms() {
                for &b in other.node_labels() {
                    if !self.mult(a, sym, b).leq(other.mult(a, sym, b)) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Schema equivalence: mutual containment.
    pub fn equivalent(&self, other: &Schema) -> bool {
        self.contains_in(other) && other.contains_in(self)
    }

    /// The `L0` TBox `T_S` corresponding to the schema (Appendix B):
    /// `∃` for multiplicities `{1, +}`, `∃≤1` for `{1, ?, 0}`, `∄` for `{0}`.
    pub fn to_l0(&self) -> L0Tbox {
        let mut t = L0Tbox::new();
        for &a in &self.node_labels {
            for sym in self.syms() {
                for &b in &self.node_labels {
                    let m = self.mult(a, sym, b);
                    if matches!(m, Mult::One | Mult::Plus) {
                        t.insert(L0Statement { lhs: a, kind: L0Kind::Exists, role: sym, rhs: b });
                    }
                    if matches!(m, Mult::One | Mult::Opt | Mult::Zero) {
                        t.insert(L0Statement {
                            lhs: a,
                            kind: L0Kind::AtMostOne,
                            role: sym,
                            rhs: b,
                        });
                    }
                    if m == Mult::Zero {
                        t.insert(L0Statement {
                            lhs: a,
                            kind: L0Kind::NotExists,
                            role: sym,
                            rhs: b,
                        });
                    }
                }
            }
        }
        t
    }

    /// Reconstructs the unique schema over (`node_labels`, `edge_labels`)
    /// whose `L0` TBox is `t` (Appendix B); `None` if `t` is incoherent.
    pub fn from_l0(
        t: &L0Tbox,
        node_labels: &[NodeLabel],
        edge_labels: &[EdgeLabel],
    ) -> Option<Schema> {
        if !t.is_coherent() {
            return None;
        }
        let mut s = Schema::new();
        for &l in node_labels {
            s.add_node_label(l);
        }
        for &l in edge_labels {
            s.add_edge_label(l);
        }
        for &a in node_labels {
            for sym in edge_labels.iter().flat_map(|&l| [EdgeSym::fwd(l), EdgeSym::bwd(l)]) {
                for &b in node_labels {
                    let has =
                        |kind: L0Kind| t.contains(&L0Statement { lhs: a, kind, role: sym, rhs: b });
                    let m = if has(L0Kind::NotExists) {
                        Mult::Zero
                    } else if has(L0Kind::Exists) && has(L0Kind::AtMostOne) {
                        Mult::One
                    } else if has(L0Kind::Exists) {
                        Mult::Plus
                    } else if has(L0Kind::AtMostOne) {
                        Mult::Opt
                    } else {
                        Mult::Star
                    };
                    s.set(a, sym, b, m);
                }
            }
        }
        Some(s)
    }

    /// The Horn TBox `T̂_S` of Theorem 5.6: `T_S` plus pairwise disjointness
    /// `A ⊓ B ⊑ ⊥` of the labels in `Γ_S` (ensuring *at most* one label per
    /// node; *at least* one is enforced on the query side).
    pub fn hat_tbox(&self) -> HornTbox {
        let labels = &self.node_labels;
        let disjoint = labels.iter().enumerate().flat_map(|(i, &a)| {
            labels[i + 1..]
                .iter()
                .map(move |&b| HornCi::Bottom { lhs: LabelSet::from_iter([a.0, b.0]) })
        });
        HornTbox::from_cis(self.to_l0().stmts.iter().map(L0Statement::to_horn).chain(disjoint))
    }

    /// Renders the schema as a `δ` table using `vocab`.
    pub fn render(&self, vocab: &Vocab) -> String {
        let mut lines = vec![format!(
            "Γ = {{{}}}  Σ = {{{}}}",
            self.node_labels.iter().map(|&l| vocab.node_name(l)).collect::<Vec<_>>().join(", "),
            self.edge_labels.iter().map(|&l| vocab.edge_name(l)).collect::<Vec<_>>().join(", ")
        )];
        let mut entries: Vec<_> = self.delta.iter().collect();
        entries.sort_by_key(|((a, sym, b), _)| (*a, *sym, *b));
        for ((a, sym, b), m) in entries {
            lines.push(format!(
                "δ({}, {}, {}) = {}",
                vocab.node_name(*a),
                vocab.sym_name(*sym),
                vocab.node_name(*b),
                m
            ));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_dl::Concept;

    /// The schema S0 of Figure 1 (medical knowledge graph).
    pub fn medical_s0(v: &mut Vocab) -> Schema {
        let vaccine = v.node_label("Vaccine");
        let antigen = v.node_label("Antigen");
        let pathogen = v.node_label("Pathogen");
        let dt = v.edge_label("designTarget");
        let cr = v.edge_label("crossReacting");
        let ex = v.edge_label("exhibits");
        let mut s = Schema::new();
        s.set_edge(vaccine, dt, antigen, Mult::One, Mult::Star);
        s.set_edge(antigen, cr, antigen, Mult::Star, Mult::Star);
        s.set_edge(pathogen, ex, antigen, Mult::Plus, Mult::Star);
        s
    }

    fn medical_graph(v: &mut Vocab) -> Graph {
        let vaccine = v.node_label("Vaccine");
        let antigen = v.node_label("Antigen");
        let pathogen = v.node_label("Pathogen");
        let dt = v.edge_label("designTarget");
        let cr = v.edge_label("crossReacting");
        let ex = v.edge_label("exhibits");
        let mut g = Graph::new();
        let vac = g.add_labeled_node([vaccine]);
        let a1 = g.add_labeled_node([antigen]);
        let a2 = g.add_labeled_node([antigen]);
        let p = g.add_labeled_node([pathogen]);
        g.add_edge(vac, dt, a1);
        g.add_edge(a1, cr, a2);
        g.add_edge(p, ex, a1);
        g.add_edge(p, ex, a2);
        g
    }

    #[test]
    fn example_3_1_delta_entries() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let vaccine = v.find_node_label("Vaccine").unwrap();
        let antigen = v.find_node_label("Antigen").unwrap();
        let pathogen = v.find_node_label("Pathogen").unwrap();
        let dt = v.find_edge_label("designTarget").unwrap();
        let ex = v.find_edge_label("exhibits").unwrap();
        assert_eq!(s.mult(vaccine, EdgeSym::fwd(dt), antigen), Mult::One);
        assert_eq!(s.mult(antigen, EdgeSym::bwd(dt), vaccine), Mult::Star);
        // Implicitly forbidden edges are 0 (Example 3.1).
        assert_eq!(s.mult(vaccine, EdgeSym::fwd(ex), pathogen), Mult::Zero);
        assert_eq!(s.mult(pathogen, EdgeSym::bwd(ex), vaccine), Mult::Zero);
    }

    #[test]
    fn conforming_medical_graph() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let g = medical_graph(&mut v);
        assert_eq!(s.conforms(&g), Ok(()));
    }

    #[test]
    fn missing_design_target_violates() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let vaccine = v.find_node_label("Vaccine").unwrap();
        let mut g = Graph::new();
        g.add_labeled_node([vaccine]);
        let err = s.conforms(&g).unwrap_err();
        assert!(matches!(
            err,
            ConformanceError::MultiplicityViolated { expected: Mult::One, count: 0, .. }
        ));
    }

    #[test]
    fn pathogen_needs_at_least_one_antigen() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let pathogen = v.find_node_label("Pathogen").unwrap();
        let mut g = Graph::new();
        g.add_labeled_node([pathogen]);
        assert!(s.conforms(&g).is_err());
    }

    #[test]
    fn two_design_targets_violate() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let mut g = medical_graph(&mut v);
        let dt = v.find_edge_label("designTarget").unwrap();
        // vac already targets a1; add a second target a2.
        g.add_edge(NodeId(0), dt, NodeId(2));
        assert!(matches!(
            s.conforms(&g).unwrap_err(),
            ConformanceError::MultiplicityViolated { count: 2, .. }
        ));
    }

    #[test]
    fn unlabeled_or_multiply_labeled_nodes_rejected() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let mut g = Graph::new();
        g.add_node();
        assert!(matches!(s.conforms(&g).unwrap_err(), ConformanceError::BadNodeLabels { .. }));

        let mut g2 = Graph::new();
        let vaccine = v.find_node_label("Vaccine").unwrap();
        let antigen = v.find_node_label("Antigen").unwrap();
        g2.add_labeled_node([vaccine, antigen]);
        assert!(matches!(s.conforms(&g2).unwrap_err(), ConformanceError::BadNodeLabels { .. }));
    }

    #[test]
    fn foreign_edge_label_rejected() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let mut g = medical_graph(&mut v);
        let foreign = v.edge_label("foreign");
        g.add_edge(NodeId(0), foreign, NodeId(1));
        assert!(matches!(
            s.conforms(&g).unwrap_err(),
            ConformanceError::EdgeLabelNotAllowed { .. }
        ));
    }

    #[test]
    fn containment_reflexive_and_star_widening() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        assert!(s.contains_in(&s));
        let vaccine = v.find_node_label("Vaccine").unwrap();
        let antigen = v.find_node_label("Antigen").unwrap();
        let dt = v.find_edge_label("designTarget").unwrap();
        let mut wider = s.clone();
        wider.set(vaccine, EdgeSym::fwd(dt), antigen, Mult::Star);
        assert!(s.contains_in(&wider));
        assert!(!wider.contains_in(&s));
        assert!(!s.equivalent(&wider));
        assert!(s.equivalent(&s.clone()));
    }

    #[test]
    fn l0_roundtrip_is_identity() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let t = s.to_l0();
        assert!(t.is_coherent());
        let s2 = Schema::from_l0(&t, s.node_labels(), s.edge_labels()).unwrap();
        assert!(s.equivalent(&s2));
        assert_eq!(s, s2);
    }

    #[test]
    fn example_3_3_statements_present() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let pathogen = v.find_node_label("Pathogen").unwrap();
        let antigen = v.find_node_label("Antigen").unwrap();
        let vaccine = v.find_node_label("Vaccine").unwrap();
        let ex = v.find_edge_label("exhibits").unwrap();
        let t = s.to_l0();
        // Pathogen ⊑ ∃exhibits.Antigen
        assert!(t.contains(&L0Statement {
            lhs: pathogen,
            kind: L0Kind::Exists,
            role: EdgeSym::fwd(ex),
            rhs: antigen
        }));
        // Vaccine ⊑ ∄exhibits.Antigen (implicitly forbidden edge)
        assert!(t.contains(&L0Statement {
            lhs: vaccine,
            kind: L0Kind::NotExists,
            role: EdgeSym::fwd(ex),
            rhs: antigen
        }));
    }

    /// Proposition B.1: G conforms to S iff G ⊨ T_S, G ⊨ ⊤⊑⊔Γ_S, and the
    /// labels of Γ_S are pairwise disjoint on G.
    #[test]
    fn proposition_b1() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let good = medical_graph(&mut v);
        let mut bad = Graph::new();
        bad.add_labeled_node([v.find_node_label("Pathogen").unwrap()]);

        for (g, expect) in [(&good, true), (&bad, false)] {
            let tbox = s.to_l0().to_horn();
            // General ALCIF semantics of T_S (the semantic oracle).
            let horn_ok = tbox.cis.iter().all(|ci| ci.to_general().satisfied_by(g));
            // Horn model checker must agree with the oracle.
            assert_eq!(tbox.check_graph(g).is_ok(), horn_ok);
            // ⊤ ⊑ ⊔Γ_S as a general concept inclusion.
            let cover_concept = s
                .node_labels()
                .iter()
                .fold(Concept::Bottom, |acc, &l| Concept::or(acc, Concept::Atom(l)));
            let cover = g.nodes().all(|n| cover_concept.holds_at(g, n));
            let disjoint = g.nodes().all(|n| {
                g.labels(n).iter().filter(|&l| s.has_node_label(NodeLabel(l))).count() <= 1
            });
            assert_eq!(horn_ok && cover && disjoint, expect);
            assert_eq!(s.conforms(g).is_ok(), expect);
        }
    }

    #[test]
    fn hat_tbox_adds_disjointness() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let hat = s.hat_tbox();
        let bottoms = hat.cis.iter().filter(|c| matches!(c, HornCi::Bottom { .. })).count();
        // 3 labels → 3 unordered pairs.
        assert_eq!(bottoms, 3);
    }

    #[test]
    fn render_is_stable() {
        let mut v = Vocab::new();
        let s = medical_s0(&mut v);
        let r = s.render(&v);
        assert!(r.contains("δ(Vaccine, designTarget, Antigen) = 1"));
        // Labels render in interning order (Vaccine was interned first).
        assert!(r.contains("Γ = {Vaccine, Antigen, Pathogen}"));
    }
}
