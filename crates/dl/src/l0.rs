//! The fragment `L0` of Horn-ALCIF (Section 4 / Appendix B):
//! statements `A ⊑ ∃R.B`, `A ⊑ ∄R.B`, `A ⊑ ∃≤1 R.B` with *single* concept
//! names on both sides. Coherent `L0` TBoxes are in one-to-one
//! correspondence with graph schemas (Proposition B.1/B.4); this is the
//! interface between schemas and the description-logic machinery.

use crate::horn::{HornCi, HornTbox};
use gts_graph::{EdgeSym, LabelSet, NodeLabel, Vocab};
use std::collections::BTreeSet;

/// The three statement kinds of `L0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum L0Kind {
    /// `A ⊑ ∃R.B`.
    Exists,
    /// `A ⊑ ∄R.B`.
    NotExists,
    /// `A ⊑ ∃≤1 R.B`.
    AtMostOne,
}

/// An `L0` statement `A ⊑ (kind) R.B`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct L0Statement {
    /// Left concept name `A`.
    pub lhs: NodeLabel,
    /// Statement kind.
    pub kind: L0Kind,
    /// Role `R ∈ Σ±`.
    pub role: EdgeSym,
    /// Right concept name `B`.
    pub rhs: NodeLabel,
}

impl L0Statement {
    /// Translates into a Horn-ALCIF normal form CI.
    pub fn to_horn(&self) -> HornCi {
        let lhs = LabelSet::singleton(self.lhs.0);
        let rhs = LabelSet::singleton(self.rhs.0);
        match self.kind {
            L0Kind::Exists => HornCi::Exists { lhs, role: self.role, rhs },
            L0Kind::NotExists => HornCi::NotExists { lhs, role: self.role, rhs },
            L0Kind::AtMostOne => HornCi::AtMostOne { lhs, role: self.role, rhs },
        }
    }

    /// Renders the statement using `vocab`.
    pub fn render(&self, vocab: &Vocab) -> String {
        let op = match self.kind {
            L0Kind::Exists => "∃",
            L0Kind::NotExists => "∄",
            L0Kind::AtMostOne => "∃≤1",
        };
        format!(
            "{} ⊑ {}{}.{}",
            vocab.node_name(self.lhs),
            op,
            vocab.sym_name(self.role),
            vocab.node_name(self.rhs)
        )
    }
}

/// An `L0` TBox — an ordered set of statements (ordering gives canonical
/// renderings and cheap equality).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct L0Tbox {
    /// The statements.
    pub stmts: BTreeSet<L0Statement>,
}

impl L0Tbox {
    /// An empty `L0` TBox.
    pub fn new() -> Self {
        L0Tbox::default()
    }

    /// Inserts a statement.
    pub fn insert(&mut self, s: L0Statement) -> bool {
        self.stmts.insert(s)
    }

    /// Membership test.
    pub fn contains(&self, s: &L0Statement) -> bool {
        self.stmts.contains(s)
    }

    /// Coherence (Appendix B): no contradictory `∃`/`∄` pair, and `∄`
    /// implies the corresponding `∃≤1` is present.
    pub fn is_coherent(&self) -> bool {
        for s in &self.stmts {
            match s.kind {
                L0Kind::Exists => {
                    if self.contains(&L0Statement { kind: L0Kind::NotExists, ..*s }) {
                        return false;
                    }
                }
                L0Kind::NotExists => {
                    if !self.contains(&L0Statement { kind: L0Kind::AtMostOne, ..*s }) {
                        return false;
                    }
                }
                L0Kind::AtMostOne => {}
            }
        }
        true
    }

    /// Translates into a Horn-ALCIF TBox.
    pub fn to_horn(&self) -> HornTbox {
        HornTbox::from_cis(self.stmts.iter().map(L0Statement::to_horn))
    }

    /// Renders all statements, one per line.
    pub fn render(&self, vocab: &Vocab) -> String {
        self.stmts.iter().map(|s| s.render(vocab)).collect::<Vec<_>>().join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt(kind: L0Kind) -> L0Statement {
        L0Statement {
            lhs: NodeLabel(0),
            kind,
            role: EdgeSym::fwd(gts_graph::EdgeLabel(0)),
            rhs: NodeLabel(1),
        }
    }

    #[test]
    fn coherence_rejects_contradiction() {
        let mut t = L0Tbox::new();
        t.insert(stmt(L0Kind::Exists));
        assert!(t.is_coherent());
        t.insert(stmt(L0Kind::NotExists));
        assert!(!t.is_coherent());
    }

    #[test]
    fn coherence_requires_at_most_with_not_exists() {
        let mut t = L0Tbox::new();
        t.insert(stmt(L0Kind::NotExists));
        assert!(!t.is_coherent());
        t.insert(stmt(L0Kind::AtMostOne));
        assert!(t.is_coherent());
    }

    #[test]
    fn horn_translation_shapes() {
        let mut t = L0Tbox::new();
        t.insert(stmt(L0Kind::Exists));
        t.insert(stmt(L0Kind::AtMostOne));
        let h = t.to_horn();
        assert_eq!(h.len(), 2);
        assert!(h.cis.iter().any(|c| matches!(c, HornCi::Exists { .. })));
        assert!(h.cis.iter().any(|c| matches!(c, HornCi::AtMostOne { .. })));
    }

    #[test]
    fn rendering() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let b = v.node_label("B");
        let r = v.edge_label("r");
        let s = L0Statement { lhs: a, kind: L0Kind::AtMostOne, role: EdgeSym::bwd(r), rhs: b };
        assert_eq!(s.render(&v), "A ⊑ ∃≤1r⁻.B");
    }
}
