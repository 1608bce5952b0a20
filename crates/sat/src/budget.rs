//! Resource budgets and three-valued verdicts for the satisfiability
//! engine.
//!
//! The paper's Theorem E.3 procedure is (nondeterministic) EXPTIME; a
//! deterministic implementation must search, and the search is bounded by
//! explicit budgets. The engine never guesses: `Sat` comes with a checkable
//! finite core, `Unsat` is only reported when the search space was covered
//! *exhaustively* (all atom languages finite and fully enumerated, no cap
//! hit), and anything else is `Unknown` with the binding budget.

use gts_graph::Graph;

/// Search budgets for [`crate::decide`].
#[derive(Clone, Debug)]
pub struct Budget {
    /// Maximum total number of *edge* symbols across all witnessing words
    /// of one connected query component (the iterative-deepening bound of
    /// the core search).
    pub max_total_edge_syms: usize,
    /// Maximum number of symbols (node tests + edges) of a single
    /// witnessing word.
    pub max_word_syms: usize,
    /// Cap on enumerated words per atom.
    pub max_words_per_atom: usize,
    /// Cap on chased cores per component.
    pub max_cores: usize,
    /// Cap on the nodes of the canonical-model fixpoint
    /// ([`crate::HornFixpoint`]), counted over every question it serves.
    pub max_candidates: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_total_edge_syms: 8,
            max_word_syms: 40,
            max_words_per_atom: 600,
            max_cores: 50_000,
            max_candidates: 60_000,
        }
    }
}

impl Budget {
    /// The budget as a cache-key tuple — every field that bounds the
    /// search, in declaration order. All caches keyed by budget must use
    /// this (adding a field here updates them all at once).
    pub fn cache_key(&self) -> [usize; 5] {
        [
            self.max_total_edge_syms,
            self.max_word_syms,
            self.max_words_per_atom,
            self.max_cores,
            self.max_candidates,
        ]
    }

    /// A generous budget for stress tests and benchmarks.
    pub fn large() -> Budget {
        Budget {
            max_total_edge_syms: 12,
            max_word_syms: 60,
            max_words_per_atom: 4_000,
            max_cores: 500_000,
            max_candidates: 400_000,
        }
    }
}

/// Which budget was exhausted (making a negative answer uncertified).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// Some atom's language is infinite — word enumeration cannot be
    /// exhaustive at any finite bound.
    InfiniteLanguage,
    /// The per-atom word cap or word-length cap was hit.
    WordBudget,
    /// The core cap was hit.
    CoreBudget,
    /// The canonical-model fixpoint's node cap was hit.
    CandidateBudget,
}

/// A satisfiability witness: the finite core of a `|p|`-sparse model.
///
/// Every node of the core satisfies all universal constraints of the TBox,
/// and each remaining `∃`-requirement is met by a witness tree of the
/// canonical-model fixpoint (possibly infinite, finitely branching, folded
/// into finitely many keyed nodes) hung off the node — the pre-type
/// elimination of Lemma E.5/E.6 without choices. Witnesses an at-most CI
/// forces onto a core neighbour are that neighbour, whose labels in the
/// core include their targets.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The core graph (match image plus witnessing paths, after chasing).
    pub core: Graph,
}

/// The engine's verdict.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Satisfiable, with a core witness.
    Sat(Witness),
    /// Certified unsatisfiable (exhaustive search).
    Unsat,
    /// Budget exhausted without a certificate.
    Unknown(UnknownReason),
}

impl Verdict {
    /// `true` for `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, Verdict::Sat(_))
    }

    /// `true` for certified `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, Verdict::Unsat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_reasonable() {
        let b = Budget::default();
        assert!(b.max_total_edge_syms >= 4);
        assert!(b.max_cores >= 1000);
        assert!(Budget::large().max_cores > b.max_cores);
    }

    #[test]
    fn verdict_predicates() {
        assert!(Verdict::Unsat.is_unsat());
        assert!(!Verdict::Unsat.is_sat());
        assert!(Verdict::Sat(Witness { core: Graph::new() }).is_sat());
        assert!(!Verdict::Unknown(UnknownReason::WordBudget).is_sat());
    }
}
