//! Horn-ALCIF TBoxes in the six normal forms of Section 3:
//!
//! `K ⊑ A`, `K ⊑ ⊥`, `K ⊑ ∀R.K'`, `K ⊑ ∃R.K'`, `K ⊑ ∄R.K'`, `K ⊑ ∃≤1 R.K'`,
//!
//! where `K, K'` are conjunctions of concept names (represented as
//! [`LabelSet`]s; the empty set is `⊤`) and `R ∈ Σ±`. This is the fragment
//! the whole pipeline runs on: schema TBoxes (Appendix B), rolled-up query
//! TBoxes (Appendix C), and their completions (Section 5) are all Horn.

use crate::concept::{Concept, ConceptInclusion};
use gts_graph::{EdgeSym, FxHashSet, Graph, LabelSet, NodeId, NodeLabel, Vocab};

/// A Horn-ALCIF concept inclusion in normal form.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HornCi {
    /// `K ⊑ A`.
    SubAtom {
        /// Conjunction on the left.
        lhs: LabelSet,
        /// Concept name implied.
        rhs: NodeLabel,
    },
    /// `K ⊑ ⊥`.
    Bottom {
        /// Conjunction that must be unsatisfied everywhere.
        lhs: LabelSet,
    },
    /// `K ⊑ ∀R.K'`.
    AllValues {
        /// Conjunction on the left.
        lhs: LabelSet,
        /// Role (possibly inverse).
        role: EdgeSym,
        /// Conjunction forced on every `R`-successor.
        rhs: LabelSet,
    },
    /// `K ⊑ ∃R.K'`.
    Exists {
        /// Conjunction on the left.
        lhs: LabelSet,
        /// Role (possibly inverse).
        role: EdgeSym,
        /// Conjunction some `R`-successor must satisfy.
        rhs: LabelSet,
    },
    /// `K ⊑ ∄R.K'` (no `R`-successor satisfies `K'`).
    NotExists {
        /// Conjunction on the left.
        lhs: LabelSet,
        /// Role (possibly inverse).
        role: EdgeSym,
        /// Forbidden successor conjunction.
        rhs: LabelSet,
    },
    /// `K ⊑ ∃≤1 R.K'` (at most one `R`-successor satisfies `K'`).
    AtMostOne {
        /// Conjunction on the left.
        lhs: LabelSet,
        /// Role (possibly inverse).
        role: EdgeSym,
        /// Counted successor conjunction.
        rhs: LabelSet,
    },
}

impl HornCi {
    /// The left-hand conjunction of any normal form.
    pub fn lhs(&self) -> &LabelSet {
        match self {
            HornCi::SubAtom { lhs, .. }
            | HornCi::Bottom { lhs }
            | HornCi::AllValues { lhs, .. }
            | HornCi::Exists { lhs, .. }
            | HornCi::NotExists { lhs, .. }
            | HornCi::AtMostOne { lhs, .. } => lhs,
        }
    }

    /// Translates to a general [`ConceptInclusion`] (for the semantic
    /// oracle in tests).
    pub fn to_general(&self) -> ConceptInclusion {
        let names = |s: &LabelSet| Concept::names(s.iter().map(NodeLabel));
        match self {
            HornCi::SubAtom { lhs, rhs } => {
                ConceptInclusion { lhs: names(lhs), rhs: Concept::Atom(*rhs) }
            }
            HornCi::Bottom { lhs } => ConceptInclusion { lhs: names(lhs), rhs: Concept::Bottom },
            HornCi::AllValues { lhs, role, rhs } => {
                ConceptInclusion { lhs: names(lhs), rhs: Concept::all(*role, names(rhs)) }
            }
            HornCi::Exists { lhs, role, rhs } => ConceptInclusion {
                lhs: names(lhs),
                rhs: Concept::Exists(*role, Box::new(names(rhs))),
            },
            HornCi::NotExists { lhs, role, rhs } => {
                ConceptInclusion { lhs: names(lhs), rhs: Concept::not_exists(*role, names(rhs)) }
            }
            HornCi::AtMostOne { lhs, role, rhs } => ConceptInclusion {
                lhs: names(lhs),
                rhs: Concept::AtMostOne(*role, Box::new(names(rhs))),
            },
        }
    }

    /// Renders the inclusion using `vocab`.
    pub fn render(&self, vocab: &Vocab) -> String {
        let k = |s: &LabelSet| {
            if s.is_empty() {
                "⊤".to_owned()
            } else {
                s.iter()
                    .map(|l| vocab.node_name(NodeLabel(l)).to_owned())
                    .collect::<Vec<_>>()
                    .join("⊓")
            }
        };
        match self {
            HornCi::SubAtom { lhs, rhs } => {
                format!("{} ⊑ {}", k(lhs), vocab.node_name(*rhs))
            }
            HornCi::Bottom { lhs } => format!("{} ⊑ ⊥", k(lhs)),
            HornCi::AllValues { lhs, role, rhs } => {
                format!("{} ⊑ ∀{}.{}", k(lhs), vocab.sym_name(*role), k(rhs))
            }
            HornCi::Exists { lhs, role, rhs } => {
                format!("{} ⊑ ∃{}.{}", k(lhs), vocab.sym_name(*role), k(rhs))
            }
            HornCi::NotExists { lhs, role, rhs } => {
                format!("{} ⊑ ∄{}.{}", k(lhs), vocab.sym_name(*role), k(rhs))
            }
            HornCi::AtMostOne { lhs, role, rhs } => {
                format!("{} ⊑ ∃≤1{}.{}", k(lhs), vocab.sym_name(*role), k(rhs))
            }
        }
    }
}

/// A violation of a Horn TBox by a finite graph, for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Index of the violated CI in the TBox.
    pub ci_index: usize,
    /// A node witnessing the violation.
    pub node: NodeId,
}

/// A Horn-ALCIF TBox: a set of normal-form concept inclusions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HornTbox {
    /// The concept inclusions.
    pub cis: Vec<HornCi>,
}

impl HornTbox {
    /// An empty TBox.
    pub fn new() -> Self {
        HornTbox::default()
    }

    /// Adds a CI if not already present (keeps the TBox set-like).
    pub fn push(&mut self, ci: HornCi) -> bool {
        if self.cis.contains(&ci) {
            false
        } else {
            self.cis.push(ci);
            true
        }
    }

    /// A TBox of `cis`, keeping each CI's first occurrence: the CIs and
    /// order a [`HornTbox::push`] loop gives, deduplicated by hash instead
    /// of by a scan per CI.
    pub fn from_cis<I: IntoIterator<Item = HornCi>>(cis: I) -> HornTbox {
        let mut cis: Vec<HornCi> = cis.into_iter().collect();
        let keep: Vec<bool> = {
            let mut seen: FxHashSet<&HornCi> = FxHashSet::default();
            cis.iter().map(|ci| seen.insert(ci)).collect()
        };
        let mut keep = keep.into_iter();
        cis.retain(|_| keep.next().unwrap_or(false));
        HornTbox { cis }
    }

    /// Union of several TBoxes.
    pub fn merged<'a, I: IntoIterator<Item = &'a HornTbox>>(parts: I) -> HornTbox {
        HornTbox::from_cis(parts.into_iter().flat_map(|p| p.cis.iter().cloned()))
    }

    /// Number of CIs.
    pub fn len(&self) -> usize {
        self.cis.len()
    }

    /// `true` iff the TBox has no CIs.
    pub fn is_empty(&self) -> bool {
        self.cis.is_empty()
    }

    /// Number of at-most constraints (the parameter `ℓ` of Theorem 6.1).
    pub fn num_at_most(&self) -> usize {
        self.cis.iter().filter(|ci| matches!(ci, HornCi::AtMostOne { .. })).count()
    }

    /// All concept names mentioned anywhere in the TBox.
    pub fn used_labels(&self) -> LabelSet {
        let mut s = LabelSet::new();
        for ci in &self.cis {
            s.union_with(ci.lhs());
            match ci {
                HornCi::SubAtom { rhs, .. } => {
                    s.insert(rhs.0);
                }
                HornCi::AllValues { rhs, .. }
                | HornCi::Exists { rhs, .. }
                | HornCi::NotExists { rhs, .. }
                | HornCi::AtMostOne { rhs, .. } => s.union_with(rhs),
                HornCi::Bottom { .. } => {}
            }
        }
        s
    }

    /// All Σ± symbols mentioned in the TBox.
    pub fn used_roles(&self) -> Vec<EdgeSym> {
        let mut roles: Vec<EdgeSym> = Vec::new();
        for ci in &self.cis {
            if let HornCi::AllValues { role, .. }
            | HornCi::Exists { role, .. }
            | HornCi::NotExists { role, .. }
            | HornCi::AtMostOne { role, .. } = ci
            {
                if !roles.contains(role) {
                    roles.push(*role);
                }
            }
        }
        roles
    }

    /// Checks every CI on every node of a finite graph; returns the first
    /// violation found, if any.
    pub fn check_graph(&self, g: &Graph) -> Result<(), Violation> {
        for (ci_index, ci) in self.cis.iter().enumerate() {
            for node in g.nodes() {
                if !ci.lhs().is_subset(g.labels(node)) {
                    continue;
                }
                let ok = match ci {
                    HornCi::SubAtom { rhs, .. } => g.has_label(node, *rhs),
                    HornCi::Bottom { .. } => false,
                    HornCi::AllValues { role, rhs, .. } => {
                        g.successors(node, *role).all(|n| rhs.is_subset(g.labels(n)))
                    }
                    HornCi::Exists { role, rhs, .. } => {
                        g.successors(node, *role).any(|n| rhs.is_subset(g.labels(n)))
                    }
                    HornCi::NotExists { role, rhs, .. } => {
                        !g.successors(node, *role).any(|n| rhs.is_subset(g.labels(n)))
                    }
                    HornCi::AtMostOne { role, rhs, .. } => {
                        g.successors(node, *role).filter(|&n| rhs.is_subset(g.labels(n))).count()
                            <= 1
                    }
                };
                if !ok {
                    return Err(Violation { ci_index, node });
                }
            }
        }
        Ok(())
    }

    /// Renders all CIs, one per line.
    pub fn render(&self, vocab: &Vocab) -> String {
        self.cis.iter().map(|ci| ci.render(vocab)).collect::<Vec<_>>().join("\n")
    }
}

/// Checks whether a finite graph satisfies a *Datalog-fragment* Horn TBox
/// under the least valuation of the `mutable` concept names (Lemma C.2's
/// notion of satisfaction for rolled-up TBoxes).
///
/// The TBox may only use `SubAtom`, `AllValues`, and `Bottom` CIs whenever a
/// mutable label is involved; returns `None` if it falls outside that
/// fragment. Otherwise computes the least fixpoint of the positive rules
/// starting from `g`'s labels and reports whether all `Bottom` denials hold.
pub fn datalog_satisfies(tbox: &HornTbox, g: &Graph, mutable: &LabelSet) -> Option<bool> {
    // Validate the fragment: Exists/NotExists/AtMostOne may not mention
    // mutable labels (they could not be handled by a least-fixpoint
    // argument), and SubAtom/AllValues may only *derive* mutable labels.
    for ci in &tbox.cis {
        match ci {
            HornCi::SubAtom { rhs, .. } => {
                if !mutable.contains(rhs.0) {
                    return None;
                }
            }
            HornCi::AllValues { rhs, .. } => {
                if !rhs.is_subset(mutable) {
                    return None;
                }
            }
            HornCi::Bottom { .. } => {}
            _ => return None,
        }
    }
    let mut labels: Vec<LabelSet> = g.nodes().map(|n| g.labels(n).clone()).collect();
    loop {
        let mut changed = false;
        for ci in &tbox.cis {
            match ci {
                HornCi::SubAtom { lhs, rhs } => {
                    for n in g.nodes() {
                        if lhs.is_subset(&labels[n.0 as usize])
                            && labels[n.0 as usize].insert(rhs.0)
                        {
                            changed = true;
                        }
                    }
                }
                HornCi::AllValues { lhs, role, rhs } => {
                    for n in g.nodes() {
                        if lhs.is_subset(&labels[n.0 as usize]) {
                            for m in g.successors(n, *role) {
                                let before = labels[m.0 as usize].len();
                                labels[m.0 as usize].union_with(rhs);
                                if labels[m.0 as usize].len() != before {
                                    changed = true;
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
    Some(tbox.cis.iter().all(|ci| match ci {
        HornCi::Bottom { lhs } => g.nodes().all(|n| !lhs.is_subset(&labels[n.0 as usize])),
        _ => true,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::Vocab;

    struct Fix {
        v: Vocab,
        a: NodeLabel,
        b: NodeLabel,
        r: EdgeSym,
    }

    fn fix() -> Fix {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let b = v.node_label("B");
        let r = EdgeSym::fwd(v.edge_label("r"));
        Fix { v, a, b, r }
    }

    fn set(labels: &[NodeLabel]) -> LabelSet {
        LabelSet::from_iter(labels.iter().map(|l| l.0))
    }

    #[test]
    fn at_most_constraints_are_counted() {
        let f = fix();
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[f.a]), role: f.r, rhs: set(&[f.b]) });
        t.push(HornCi::AtMostOne { lhs: set(&[f.a]), role: f.r, rhs: set(&[f.b]) });
        assert_eq!(t.num_at_most(), 1);
    }

    #[test]
    fn check_graph_agrees_with_general_semantics() {
        let f = fix();
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[f.a]), role: f.r, rhs: set(&[f.b]) });
        t.push(HornCi::AtMostOne { lhs: set(&[f.a]), role: f.r, rhs: set(&[f.b]) });

        let mut g = Graph::new();
        let n0 = g.add_labeled_node([f.a]);
        let n1 = g.add_labeled_node([f.b]);
        g.add_edge(n0, f.r.label, n1);

        assert!(t.check_graph(&g).is_ok());
        for ci in &t.cis {
            assert!(ci.to_general().satisfied_by(&g));
        }

        let n2 = g.add_labeled_node([f.b]);
        g.add_edge(n0, f.r.label, n2);
        let viol = t.check_graph(&g).unwrap_err();
        assert_eq!(viol.node, n0);
        assert!(!t.cis[viol.ci_index].to_general().satisfied_by(&g));
    }

    #[test]
    fn push_deduplicates() {
        let f = fix();
        let mut t = HornTbox::new();
        assert!(t.push(HornCi::Bottom { lhs: set(&[f.a]) }));
        assert!(!t.push(HornCi::Bottom { lhs: set(&[f.a]) }));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn from_cis_and_merged_match_the_push_loop() {
        let f = fix();
        let ci = |i: u32| match i % 3 {
            0 => HornCi::Bottom { lhs: set(&[NodeLabel(i)]) },
            1 => HornCi::SubAtom { lhs: set(&[f.a]), rhs: NodeLabel(i) },
            _ => HornCi::Exists { lhs: set(&[NodeLabel(i)]), role: f.r, rhs: set(&[f.b]) },
        };
        // Duplicates within each part and across the parts.
        let parts = [
            HornTbox { cis: [5, 1, 5, 2, 7, 1].map(ci).to_vec() },
            HornTbox { cis: [2, 8, 0, 8, 5].map(ci).to_vec() },
            HornTbox::new(),
            HornTbox { cis: [0, 9, 7].map(ci).to_vec() },
        ];
        let mut pushed = HornTbox::new();
        for ci in parts.iter().flat_map(|p| &p.cis) {
            pushed.push(ci.clone());
        }
        assert_eq!(pushed.cis, [5, 1, 2, 7, 8, 0, 9].map(ci).to_vec());
        assert_eq!(HornTbox::merged(&parts), pushed);
        let flat = parts.iter().flat_map(|p| p.cis.iter().cloned());
        assert_eq!(HornTbox::from_cis(flat), pushed);
        assert_eq!(HornTbox::from_cis([]), HornTbox::new());
    }

    #[test]
    fn datalog_least_model() {
        // ⊤⊑q0, q0⊑∀r.q1, q1⊓B⊑q2, q2⊑⊥ : violated iff some r-successor has B.
        let f = fix();
        let mut v = f.v.clone();
        let q0 = v.fresh_node_label("q");
        let q1 = v.fresh_node_label("q");
        let q2 = v.fresh_node_label("q");
        let mutable = set(&[q0, q1, q2]);
        let mut t = HornTbox::new();
        t.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: q0 });
        t.push(HornCi::AllValues { lhs: set(&[q0]), role: f.r, rhs: set(&[q1]) });
        t.push(HornCi::SubAtom { lhs: set(&[q1, f.b]), rhs: q2 });
        t.push(HornCi::Bottom { lhs: set(&[q2]) });

        let mut g = Graph::new();
        let n0 = g.add_labeled_node([f.a]);
        let n1 = g.add_labeled_node([f.a]);
        g.add_edge(n0, f.r.label, n1);
        assert_eq!(datalog_satisfies(&t, &g, &mutable), Some(true));

        g.add_label(n1, f.b);
        assert_eq!(datalog_satisfies(&t, &g, &mutable), Some(false));

        // Outside the fragment: an Exists CI.
        t.push(HornCi::Exists { lhs: set(&[f.a]), role: f.r, rhs: set(&[f.b]) });
        assert_eq!(datalog_satisfies(&t, &g, &mutable), None);
    }
}
