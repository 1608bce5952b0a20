//! The schema TBox `T̂_{S°}` of Theorem 5.6, prepared once and shared by
//! the completions of every containment question over one `S°`.
//!
//! `T̂_{S°}` depends only on the Booleanized schema, and every analysis asks
//! many questions over one source schema; with stable marker labels
//! ([`crate::booleanize`]) they share one `S°` per arity. A
//! [`PreparedTbox`] holds the rule index of `T̂_{S°}` and what each
//! completion round reads off its CIs in CI order (the seeds of the type
//! universe and the used roles), so a round indexes only its own CIs: the
//! negation choice's `T¬Q`, the auxiliary rules, and the reversals added
//! so far. [`SchemaTboxes`] keeps one prepared TBox per `S°` for its
//! owner, an `AnalysisSession` or a single [`crate::contains`] call; it
//! drops with its owner.

use gts_dl::{HornCi, HornTbox};
use gts_graph::{EdgeSym, FxHashSet, LabelSet};
use gts_sat::{RuleIndex, TypeUniverse};
use gts_schema::Schema;
use std::sync::{Arc, Mutex, PoisonError};

/// A TBox prepared as the shared base of many completions: its rule index
/// (the one copy of its CIs), the distinct left- and right-hand sides of
/// its `∃` and at-most CIs in CI order, and its roles in CI order. A
/// completion over it works on an *overlay*, the CIs beyond the base, and
/// reads as the completion of the base's CIs followed by the overlay's.
#[derive(Default)]
pub struct PreparedTbox {
    index: RuleIndex,
    seeds: Vec<LabelSet>,
    roles: Vec<EdgeSym>,
}

impl PreparedTbox {
    /// Prepares `tbox`.
    pub fn new(tbox: &HornTbox) -> Self {
        let mut seen: FxHashSet<&LabelSet> = FxHashSet::default();
        let seeds = quantified(&tbox.cis).filter(|s| seen.insert(s)).cloned().collect();
        PreparedTbox { index: RuleIndex::new(tbox), seeds, roles: tbox.used_roles() }
    }

    /// Number of CIs of the base.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` iff the base has no CIs.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// `true` iff `ci` is one of the base's CIs (exact).
    pub(crate) fn holds(&self, ci: &HornCi) -> bool {
        self.index.holds(ci)
    }

    /// The overlay of `parts` over this base: their CIs in order, each
    /// kept at its first occurrence and only when the base lacks it — the
    /// CIs [`HornTbox::merged`] adds to the base's.
    pub fn overlay<'a>(&self, parts: impl IntoIterator<Item = &'a HornTbox>) -> HornTbox {
        HornTbox::from_cis(
            parts.into_iter().flat_map(|p| &p.cis).filter(|ci| !self.holds(ci)).cloned(),
        )
    }

    /// An empty type universe over the base followed by `overlay`,
    /// indexing `overlay` only.
    pub(crate) fn universe(&self, overlay: &HornTbox) -> TypeUniverse {
        TypeUniverse::layered(&self.index, &overlay.cis)
    }

    /// The base's CIs followed by `overlay`'s: the TBox the completion of
    /// `overlay` over this base reads as.
    pub fn merged(&self, overlay: &HornTbox) -> HornTbox {
        HornTbox { cis: self.index.cis().chain(overlay.cis.iter().cloned()).collect() }
    }

    /// The left- and right-hand sides of the `∃` and at-most CIs of the
    /// base followed by `overlay`, in CI order (the base's without
    /// repeats).
    pub(crate) fn seeds<'a>(&'a self, overlay: &'a HornTbox) -> impl Iterator<Item = &'a LabelSet> {
        self.seeds.iter().chain(quantified(&overlay.cis))
    }

    /// [`HornTbox::used_roles`] of the base followed by `overlay`.
    pub(crate) fn roles(&self, overlay: &HornTbox) -> Vec<EdgeSym> {
        let mut roles = self.roles.clone();
        for role in overlay.used_roles() {
            if !roles.contains(&role) {
                roles.push(role);
            }
        }
        roles
    }

    /// Approximate heap bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.index.approx_bytes()
            + self.seeds.capacity() * std::mem::size_of::<LabelSet>()
            + self.seeds.iter().map(LabelSet::approx_bytes).sum::<usize>()
            + self.roles.capacity() * std::mem::size_of::<EdgeSym>()
    }
}

/// The left- and right-hand sides of the `∃` and at-most CIs of `cis`, in
/// CI order: the type universe's seeds beyond the schema labels.
fn quantified(cis: &[HornCi]) -> impl Iterator<Item = &LabelSet> {
    cis.iter()
        .flat_map(|ci| match ci {
            HornCi::Exists { lhs, rhs, .. } | HornCi::AtMostOne { lhs, rhs, .. } => {
                [Some(lhs), Some(rhs)]
            }
            _ => [None, None],
        })
        .flatten()
}

/// At most this many prepared TBoxes are kept: one owner meets one `S°`
/// per arity, and one more per arity for every clone whose vocabulary
/// interned the marker labels at other ids. Past the cap the oldest goes.
const CAP: usize = 8;

/// The prepared `T̂_{S°}` of each Booleanized schema `S°` its owner's
/// containment calls met, keyed by `S°` itself: clones of a session own
/// separate vocabularies and may intern the marker labels at different
/// ids, so an `S°` of one never finds a TBox over the other's ids. Clones
/// of a `SchemaTboxes` share its entries.
#[derive(Clone, Default)]
pub struct SchemaTboxes(Arc<Mutex<Vec<Entry>>>);

/// A Booleanized schema and its prepared `T̂_{S°}`.
type Entry = (Schema, Arc<PreparedTbox>);

impl SchemaTboxes {
    /// The prepared `T̂_{S°}` of the Booleanized schema `s`, prepared (in
    /// a `schema_tbox` span) on first use.
    pub fn get(&self, s: &Schema) -> Arc<PreparedTbox> {
        // Each update inserts or removes one finished entry, so a poisoned
        // list is still valid.
        let lock = || self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let find = |entries: &[Entry]| {
            entries.iter().find(|(key, _)| key == s).map(|(_, t)| Arc::clone(t))
        };
        if let Some(hit) = find(&lock()) {
            return hit;
        }
        let prepared = {
            let _span = gts_obs::span("schema_tbox");
            Arc::new(PreparedTbox::new(&s.hat_tbox()))
        };
        let mut entries = lock();
        // Another clone may have prepared it meanwhile.
        if let Some(hit) = find(&entries) {
            return hit;
        }
        if entries.len() == CAP {
            entries.remove(0);
        }
        entries.push((s.clone(), Arc::clone(&prepared)));
        prepared
    }

    /// Number of prepared TBoxes kept.
    pub fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// `true` iff none is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes of the kept TBoxes and their keys.
    pub fn approx_bytes(&self) -> usize {
        let entries = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        entries.capacity() * std::mem::size_of::<Entry>()
            + entries.iter().map(|(s, t)| s.approx_bytes() + t.approx_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::{EdgeLabel, NodeLabel};

    fn set(labels: &[u32]) -> LabelSet {
        LabelSet::from_iter(labels.iter().copied())
    }

    #[test]
    fn an_overlay_holds_what_merged_adds_to_the_base() {
        let r = EdgeSym::fwd(EdgeLabel(0));
        let base = HornTbox {
            cis: vec![
                HornCi::Exists { lhs: set(&[0]), role: r, rhs: set(&[1]) },
                HornCi::Bottom { lhs: set(&[0, 1]) },
                HornCi::AtMostOne { lhs: set(&[1]), role: r.inv(), rhs: set(&[0]) },
            ],
        };
        let choice = HornTbox {
            cis: vec![
                HornCi::SubAtom { lhs: set(&[0]), rhs: NodeLabel(2) },
                HornCi::Bottom { lhs: set(&[0, 1]) },
                HornCi::SubAtom { lhs: set(&[0]), rhs: NodeLabel(2) },
            ],
        };
        let extra = HornTbox {
            cis: vec![
                HornCi::AtMostOne { lhs: set(&[1]), role: r.inv(), rhs: set(&[0]) },
                HornCi::Exists { lhs: set(&[2]), role: r, rhs: set(&[0]) },
            ],
        };
        let prepared = PreparedTbox::new(&base);
        let overlay = prepared.overlay([&choice, &extra]);
        assert_eq!(prepared.merged(&overlay), HornTbox::merged([&base, &choice, &extra]));
        let flat = HornTbox::merged([&base, &choice, &extra]);
        assert_eq!(prepared.roles(&overlay), flat.used_roles());
        let seeds: Vec<&LabelSet> = prepared.seeds(&overlay).collect();
        assert_eq!(seeds, [&set(&[0]), &set(&[1]), &set(&[2]), &set(&[0])]);
    }

    #[test]
    fn schema_tboxes_key_on_the_schema() {
        let mut s = Schema::new();
        s.add_node_label(NodeLabel(0));
        let tboxes = SchemaTboxes::default();
        let first = tboxes.get(&s);
        assert!(Arc::ptr_eq(&first, &tboxes.clone().get(&s)), "clones share entries");
        let mut other = s.clone();
        other.add_node_label(NodeLabel(1));
        let second = tboxes.get(&other);
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(second.merged(&HornTbox::new()), other.hat_tbox());
        assert_eq!(tboxes.len(), 2);
        assert!(tboxes.approx_bytes() > first.approx_bytes() + second.approx_bytes());
        for n in 2..2 + CAP as u32 {
            other.add_node_label(NodeLabel(n));
            tboxes.get(&other);
        }
        assert_eq!(tboxes.len(), CAP, "the oldest entries went");
    }
}
