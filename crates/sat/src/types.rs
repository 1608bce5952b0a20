//! Interned node *types*: TBox-closed, consistent label sets.
//!
//! Every node of a candidate model carries a label set closed under the
//! `K ⊑ A` rules of the TBox and not triggering any `K ⊑ ⊥` rule. The
//! engine interns these closed sets so that the realizability fixpoint can
//! key its candidates by small integers.
//!
//! The universe *owns* its TBox (behind an [`Arc`]), so it can outlive the
//! `decide` call that built it — this is what lets one solver context
//! (see [`crate::decide_in_ctx`]) share interned types, saturation
//! fixpoints, and dead-type verdicts across the decides its owner runs.

use gts_dl::{HornCi, HornTbox};
use gts_graph::{EdgeSym, FxHashMap, FxHashSet, LabelSet};
use std::sync::Arc;

/// CIs of one TBox grouped by kind (and by role where it pays), built once
/// per universe so every rule application scans only the relevant rules
/// instead of the whole CI list. Semantics match the corresponding
/// `HornTbox` methods exactly, including result order (flat lists keep CI
/// order).
#[derive(Clone, Default)]
struct TboxIndex {
    subatoms: Vec<(LabelSet, u32)>,
    bottoms: Vec<LabelSet>,
    allvalues_by_role: FxHashMap<EdgeSym, Vec<(LabelSet, LabelSet)>>,
    exists: Vec<(EdgeSym, LabelSet, LabelSet)>,
    notexists_by_role: FxHashMap<EdgeSym, Vec<(LabelSet, LabelSet)>>,
    atmost: Vec<(EdgeSym, LabelSet, LabelSet)>,
}

impl TboxIndex {
    fn build(tbox: &HornTbox) -> TboxIndex {
        let mut idx = TboxIndex::default();
        for ci in &tbox.cis {
            match ci {
                HornCi::SubAtom { lhs, rhs } => idx.subatoms.push((lhs.clone(), rhs.0)),
                HornCi::Bottom { lhs } => idx.bottoms.push(lhs.clone()),
                HornCi::AllValues { lhs, role, rhs } => {
                    idx.allvalues_by_role.entry(*role).or_default().push((lhs.clone(), rhs.clone()))
                }
                HornCi::Exists { lhs, role, rhs } => {
                    idx.exists.push((*role, lhs.clone(), rhs.clone()))
                }
                HornCi::NotExists { lhs, role, rhs } => {
                    idx.notexists_by_role.entry(*role).or_default().push((lhs.clone(), rhs.clone()))
                }
                HornCi::AtMostOne { lhs, role, rhs } => {
                    idx.atmost.push((*role, lhs.clone(), rhs.clone()))
                }
            }
        }
        idx
    }

    /// `HornTbox::closure` over the index.
    fn closure(&self, seed: &LabelSet) -> Option<LabelSet> {
        let mut cur = seed.clone();
        loop {
            let mut changed = false;
            for (lhs, rhs) in &self.subatoms {
                if lhs.is_subset(&cur) && cur.insert(*rhs) {
                    changed = true;
                }
            }
            if self.bottoms.iter().any(|lhs| lhs.is_subset(&cur)) {
                return None;
            }
            if !changed {
                return Some(cur);
            }
        }
    }

    /// `HornTbox::propagate` over the index.
    fn propagate(&self, src: &LabelSet, role: EdgeSym) -> LabelSet {
        let mut out = LabelSet::new();
        if let Some(rules) = self.allvalues_by_role.get(&role) {
            for (lhs, rhs) in rules {
                if lhs.is_subset(src) {
                    out.union_with(rhs);
                }
            }
        }
        out
    }

    /// `HornTbox::edge_forbidden` over the index.
    fn edge_forbidden(&self, src: &LabelSet, role: EdgeSym, tgt: &LabelSet) -> bool {
        let fwd = self.notexists_by_role.get(&role).is_some_and(|rules| {
            rules.iter().any(|(lhs, rhs)| lhs.is_subset(src) && rhs.is_subset(tgt))
        });
        fwd || self.notexists_by_role.get(&role.inv()).is_some_and(|rules| {
            rules.iter().any(|(lhs, rhs)| lhs.is_subset(tgt) && rhs.is_subset(src))
        })
    }

    /// `HornTbox::requirements` over the index (same dedup and order).
    fn requirements(&self, set: &LabelSet) -> Vec<(EdgeSym, LabelSet)> {
        let mut reqs: Vec<(EdgeSym, LabelSet)> = Vec::new();
        for (role, lhs, rhs) in &self.exists {
            if lhs.is_subset(set) && !reqs.iter().any(|(r, k)| r == role && k == rhs) {
                reqs.push((*role, rhs.clone()));
            }
        }
        reqs
    }

    /// `HornTbox::at_most` over the index (same dedup and order).
    fn at_most(&self, set: &LabelSet) -> Vec<(EdgeSym, LabelSet)> {
        let mut out: Vec<(EdgeSym, LabelSet)> = Vec::new();
        for (role, lhs, rhs) in &self.atmost {
            if lhs.is_subset(set) && !out.iter().any(|(r, k)| r == role && k == rhs) {
                out.push((*role, rhs.clone()));
            }
        }
        out
    }
}

/// An interned closed label set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TypeId(pub u32);

/// Interning table of closed types, with a closure memo and the
/// *saturation* fixpoint (see [`TypeUniverse::saturate`]).
#[derive(Clone)]
pub struct TypeUniverse {
    tbox: Arc<HornTbox>,
    index: TboxIndex,
    sets: Vec<LabelSet>,
    by_set: FxHashMap<LabelSet, TypeId>,
    closure_memo: FxHashMap<LabelSet, Option<TypeId>>,
    /// Current saturation approximation per type (monotonically growing).
    sat: FxHashMap<TypeId, TypeId>,
    /// Types whose requirements are unfulfillable (no model has a node of
    /// this type).
    dead: FxHashSet<TypeId>,
    /// Per-type `∃`-requirements (`HornTbox::requirements` is a full CI
    /// scan; types are probed repeatedly across calls).
    reqs_memo: FxHashMap<TypeId, Arc<Vec<(gts_graph::EdgeSym, LabelSet)>>>,
    /// Per-type at-most constraints.
    at_most_memo: FxHashMap<TypeId, Arc<Vec<(gts_graph::EdgeSym, LabelSet)>>>,
    /// `HornTbox::propagate` memo over arbitrary (possibly unclosed) label
    /// sets — the chase's hottest operation. Keyed by source set first so
    /// probes hash one set and never clone.
    propagate_memo: FxHashMap<LabelSet, Vec<(gts_graph::EdgeSym, Arc<LabelSet>)>>,
    /// `HornTbox::edge_forbidden` memo, keyed by source set.
    forbidden_memo: FxHashMap<LabelSet, Vec<(gts_graph::EdgeSym, LabelSet, bool)>>,
    /// `HornTbox::at_most` memo over arbitrary label sets.
    at_most_set_memo: FxHashMap<LabelSet, Arc<Vec<(gts_graph::EdgeSym, LabelSet)>>>,
}

impl TypeUniverse {
    /// Creates an empty universe over a clone of `tbox`.
    pub fn new(tbox: &HornTbox) -> Self {
        Self::with_arc(Arc::new(tbox.clone()))
    }

    /// Creates an empty universe sharing `tbox`.
    pub fn with_arc(tbox: Arc<HornTbox>) -> Self {
        let index = TboxIndex::build(&tbox);
        TypeUniverse {
            tbox,
            index,
            sets: Vec::new(),
            by_set: FxHashMap::default(),
            closure_memo: FxHashMap::default(),
            sat: FxHashMap::default(),
            dead: FxHashSet::default(),
            reqs_memo: FxHashMap::default(),
            at_most_memo: FxHashMap::default(),
            propagate_memo: FxHashMap::default(),
            forbidden_memo: FxHashMap::default(),
            at_most_set_memo: FxHashMap::default(),
        }
    }

    /// The TBox this universe closes under.
    pub fn tbox(&self) -> &HornTbox {
        &self.tbox
    }

    /// A shareable reference to the TBox (for callers that need it while
    /// mutating the universe).
    pub fn tbox_arc(&self) -> Arc<HornTbox> {
        Arc::clone(&self.tbox)
    }

    /// Memoized [`HornTbox::requirements`] of a type's label set.
    pub fn requirements_of(&mut self, t: TypeId) -> Arc<Vec<(gts_graph::EdgeSym, LabelSet)>> {
        if let Some(r) = self.reqs_memo.get(&t) {
            return Arc::clone(r);
        }
        let r = Arc::new(self.index.requirements(&self.sets[t.0 as usize]));
        self.reqs_memo.insert(t, Arc::clone(&r));
        r
    }

    /// Memoized [`HornTbox::at_most`] of a type's label set.
    pub fn at_most_of(&mut self, t: TypeId) -> Arc<Vec<(gts_graph::EdgeSym, LabelSet)>> {
        if let Some(r) = self.at_most_memo.get(&t) {
            return Arc::clone(r);
        }
        let r = Arc::new(self.index.at_most(&self.sets[t.0 as usize]));
        self.at_most_memo.insert(t, Arc::clone(&r));
        r
    }

    /// Memoized [`HornTbox::propagate`] over an arbitrary label set.
    pub fn propagate_set(&mut self, set: &LabelSet, role: gts_graph::EdgeSym) -> Arc<LabelSet> {
        if let Some(rows) = self.propagate_memo.get(set) {
            if let Some((_, p)) = rows.iter().find(|(r, _)| *r == role) {
                return Arc::clone(p);
            }
        }
        let p = Arc::new(self.index.propagate(set, role));
        self.propagate_memo.entry(set.clone()).or_default().push((role, Arc::clone(&p)));
        p
    }

    /// Memoized [`HornTbox::edge_forbidden`].
    pub fn edge_forbidden_memo(
        &mut self,
        src: &LabelSet,
        role: gts_graph::EdgeSym,
        tgt: &LabelSet,
    ) -> bool {
        if let Some(rows) = self.forbidden_memo.get(src) {
            if let Some((_, _, b)) = rows.iter().find(|(r, t, _)| *r == role && t == tgt) {
                return *b;
            }
        }
        let b = self.index.edge_forbidden(src, role, tgt);
        self.forbidden_memo.entry(src.clone()).or_default().push((role, tgt.clone(), b));
        b
    }

    /// Memoized [`HornTbox::at_most`] over an arbitrary label set.
    pub fn at_most_set(&mut self, set: &LabelSet) -> Arc<Vec<(gts_graph::EdgeSym, LabelSet)>> {
        if let Some(r) = self.at_most_set_memo.get(set) {
            return Arc::clone(r);
        }
        let r = Arc::new(self.index.at_most(set));
        self.at_most_set_memo.insert(set.clone(), Arc::clone(&r));
        r
    }

    /// Closes `seed` under the TBox and interns the result; `None` if the
    /// closure is inconsistent (`K ⊑ ⊥` fires).
    pub fn close(&mut self, seed: &LabelSet) -> Option<TypeId> {
        if let Some(&id) = self.closure_memo.get(seed) {
            return id;
        }
        let closed = self.index.closure(seed);
        let id = closed.map(|set| self.intern_closed(set));
        self.closure_memo.insert(seed.clone(), id);
        id
    }

    fn intern_closed(&mut self, set: LabelSet) -> TypeId {
        if let Some(&id) = self.by_set.get(&set) {
            return id;
        }
        let id = TypeId(self.sets.len() as u32);
        self.sets.push(set.clone());
        self.by_set.insert(set, id);
        id
    }

    /// The label set of a type.
    pub fn labels(&self, id: TypeId) -> &LabelSet {
        &self.sets[id.0 as usize]
    }

    /// *Saturates* a type: the least fixpoint adding every label that is
    /// forced on a node of this type in **every** model. A `K ⊑ ∃R.K'`
    /// requirement forces *some* `R`-successor `w ⊇ close(K' ∪ ∀-push)`,
    /// and `∀R⁻`-rules firing on (the saturation of) that minimal witness
    /// push labels back onto the node itself. Returns `None` when the
    /// requirements are unfulfillable (an inconsistent forced witness):
    /// no model contains a node of this type.
    ///
    /// Soundness of the lower bound: any actual witness `w` has at least
    /// the minimal witness's labels, saturation is monotone, and
    /// `propagate` is monotone — so the absorbed push-back is forced.
    ///
    /// The per-type result depends only on the TBox and the type itself
    /// (the fixpoint merely amortizes shared children), so cached
    /// saturations replay exactly across `decide` calls.
    ///
    /// Registered types are always at their fixpoint between calls, so a
    /// repeat `saturate` is a hash lookup; a new type runs the fixpoint
    /// over the *new cohort* only (itself plus children registered during
    /// this call). Existing entries cannot be affected: any type whose
    /// requirement-closure child is `c` registered `c` when it was itself
    /// saturated, so a newly registered type is never a child of an
    /// already-saturated one.
    pub fn saturate(&mut self, t: TypeId) -> Option<TypeId> {
        if self.sat.contains_key(&t) {
            return if self.dead.contains(&t) { None } else { Some(self.sat[&t]) };
        }
        // Memo miss: run (and time) the actual fixpoint computation.
        let _span = gts_obs::span("saturate");
        if !gts_obs::enabled() {
            return self.saturate_fixpoint(t);
        }
        let start = std::time::Instant::now();
        let out = self.saturate_fixpoint(t);
        static HIST: std::sync::OnceLock<gts_obs::Histogram> = std::sync::OnceLock::new();
        HIST.get_or_init(|| {
            gts_obs::global().histogram(
                "gts_sat_saturate_micros",
                "Latency of type-saturation fixpoint computations (memo misses)",
                &[],
            )
        })
        .record(start.elapsed().as_micros() as u64);
        out
    }

    fn saturate_fixpoint(&mut self, t: TypeId) -> Option<TypeId> {
        let mut cohort: Vec<TypeId> = vec![t];
        self.sat.insert(t, t);
        loop {
            let mut changed = false;
            let before = cohort.len();
            for idx in 0.. {
                if idx >= cohort.len() {
                    break;
                }
                let orig = cohort[idx];
                if self.dead.contains(&orig) {
                    continue;
                }
                let cur = self.sat[&orig];
                let labels = self.labels(cur).clone();
                let mut grown = labels.clone();
                let mut died = false;
                let reqs = self.requirements_of(cur);
                for (role, kp) in reqs.iter() {
                    let role = *role;
                    let mut seed = (*self.propagate_set(&labels, role)).clone();
                    seed.union_with(kp);
                    let child = match self.close(&seed) {
                        Some(c) => c,
                        None => {
                            died = true;
                            break;
                        }
                    };
                    // Register the child; use its current approximation.
                    if let std::collections::hash_map::Entry::Vacant(e) = self.sat.entry(child) {
                        e.insert(child);
                        cohort.push(child);
                    }
                    if self.dead.contains(&child) {
                        died = true;
                        break;
                    }
                    let child_cur = self.sat[&child];
                    let child_labels = self.labels(child_cur).clone();
                    let push_back = self.propagate_set(&child_labels, role.inv());
                    grown.union_with(&push_back);
                }
                if died {
                    self.dead.insert(orig);
                    changed = true;
                    continue;
                }
                // `cur` is interned (hence closed), so the closure changed
                // the labels iff it changed the type id.
                match self.close(&grown) {
                    None => {
                        self.dead.insert(orig);
                        changed = true;
                    }
                    Some(closed_id) => {
                        if closed_id != cur {
                            self.sat.insert(orig, closed_id);
                            changed = true;
                        }
                    }
                }
            }
            if !changed && cohort.len() == before {
                break;
            }
        }
        if self.dead.contains(&t) {
            None
        } else {
            Some(self.sat[&t])
        }
    }

    /// Number of interned types.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` iff no types were interned yet.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_dl::HornCi;
    use gts_graph::NodeLabel;

    #[test]
    fn closure_interns_canonically() {
        let mut t = HornTbox::new();
        t.push(HornCi::SubAtom { lhs: LabelSet::singleton(0), rhs: NodeLabel(1) });
        let mut u = TypeUniverse::new(&t);
        let a = u.close(&LabelSet::singleton(0)).unwrap();
        let b = u.close(&LabelSet::from_iter([0, 1])).unwrap();
        assert_eq!(a, b);
        assert_eq!(u.len(), 1);
        assert!(u.labels(a).contains(1));
    }

    #[test]
    fn inconsistent_seed_returns_none() {
        let mut t = HornTbox::new();
        t.push(HornCi::Bottom { lhs: LabelSet::singleton(0) });
        let mut u = TypeUniverse::new(&t);
        assert!(u.close(&LabelSet::singleton(0)).is_none());
        assert!(u.close(&LabelSet::new()).is_some());
        // Memoized second call.
        assert!(u.close(&LabelSet::singleton(0)).is_none());
    }

    #[test]
    fn repeat_saturation_is_stable() {
        // A ⊑ ∃r.B, B ⊑ ∀r⁻.C : saturating A absorbs C.
        let mut t = HornTbox::new();
        t.push(HornCi::Exists {
            lhs: LabelSet::singleton(0),
            role: gts_graph::EdgeSym::fwd(gts_graph::EdgeLabel(0)),
            rhs: LabelSet::singleton(1),
        });
        t.push(HornCi::AllValues {
            lhs: LabelSet::singleton(1),
            role: gts_graph::EdgeSym::bwd(gts_graph::EdgeLabel(0)),
            rhs: LabelSet::singleton(2),
        });
        let mut u = TypeUniverse::new(&t);
        let a = u.close(&LabelSet::singleton(0)).unwrap();
        let s1 = u.saturate(a).unwrap();
        assert!(u.labels(s1).contains(2));
        // The converged fast path returns the same answer.
        let s2 = u.saturate(a).unwrap();
        assert_eq!(s1, s2);
    }
}
