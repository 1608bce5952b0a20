//! Interned node *types*: TBox-closed, consistent label sets.
//!
//! Every node of a candidate model carries a label set closed under the
//! `K ⊑ A` rules of the TBox and not triggering any `K ⊑ ⊥` rule. The
//! engine interns these closed sets so that the realizability fixpoint can
//! key its candidates by small integers.
//!
//! The universe holds the TBox only as its rule index, shared behind an
//! [`Arc`]: it can outlive the `decide` call that built it — this is what
//! lets one solver context (see [`crate::decide_in_ctx`]) share interned
//! types, saturation fixpoints, and dead-type verdicts across the decides
//! its owner runs — and [`TypeUniverse::fresh`] starts an empty universe
//! over the same index instead of indexing the TBox again.
//!
//! The index also carries the rule lists derived from it: a label set's
//! requirement and at-most lists are computed once for every universe
//! over that index. A completion round, its parallel workers and the
//! universe it hands to the final decides thus derive each list once
//! between them. `∄`-checks read the role-grouped rules directly and keep
//! no memo.

use gts_dl::{HornCi, HornTbox};
use gts_graph::{EdgeSym, FxHashMap, FxHashSet, LabelSet};
use std::sync::{Arc, Mutex, PoisonError};

/// `(role, K')` pairs of the `∃` or at-most rules firing on a label set.
type RuleList = Arc<Vec<(EdgeSym, LabelSet)>>;

/// A TBox's rule index and the rule lists derived from it. Every universe
/// over this base — a completion round's, each parallel worker's clone,
/// and the fresh one handed to the final decides — reads a requirement or
/// at-most list from here, so a label set's lists are derived once per
/// TBox, not once per universe.
#[derive(Default)]
struct Base {
    index: TboxIndex,
    /// [`HornTbox::requirements`], per label set.
    reqs: Mutex<FxHashMap<LabelSet, RuleList>>,
    /// [`HornTbox::at_most`], per label set.
    at_most: Mutex<FxHashMap<LabelSet, RuleList>>,
}

/// CIs of one TBox grouped by kind (and by role where it pays), built once
/// per TBox so every rule application scans only the relevant rules
/// instead of the whole CI list; semantics match the corresponding
/// `HornTbox` methods exactly, including result order (flat lists keep CI
/// order).
#[derive(Default)]
struct TboxIndex {
    subatoms: Vec<(LabelSet, u32)>,
    bottoms: Vec<LabelSet>,
    allvalues_by_role: FxHashMap<EdgeSym, Vec<(LabelSet, LabelSet)>>,
    /// `Exists` CIs in CI order, with their positions per role.
    exists: Vec<(EdgeSym, LabelSet, LabelSet)>,
    exists_by_role: FxHashMap<EdgeSym, Vec<usize>>,
    notexists_by_role: FxHashMap<EdgeSym, Vec<(LabelSet, LabelSet)>>,
    /// `AtMostOne` CIs in CI order, with their positions per role.
    atmost: Vec<(EdgeSym, LabelSet, LabelSet)>,
    atmost_by_role: FxHashMap<EdgeSym, Vec<usize>>,
}

impl TboxIndex {
    fn add(&mut self, ci: HornCi) {
        match ci {
            HornCi::SubAtom { lhs, rhs } => self.subatoms.push((lhs, rhs.0)),
            HornCi::Bottom { lhs } => self.bottoms.push(lhs),
            HornCi::AllValues { lhs, role, rhs } => {
                self.allvalues_by_role.entry(role).or_default().push((lhs, rhs))
            }
            HornCi::Exists { lhs, role, rhs } => {
                self.exists_by_role.entry(role).or_default().push(self.exists.len());
                self.exists.push((role, lhs, rhs));
            }
            HornCi::NotExists { lhs, role, rhs } => {
                self.notexists_by_role.entry(role).or_default().push((lhs, rhs))
            }
            HornCi::AtMostOne { lhs, role, rhs } => {
                self.atmost_by_role.entry(role).or_default().push(self.atmost.len());
                self.atmost.push((role, lhs, rhs));
            }
        }
    }

    /// One pass of the `K ⊑ A` rules over `cur`; `true` iff it grew.
    fn apply_subatoms(&self, cur: &mut LabelSet) -> bool {
        let mut changed = false;
        for (lhs, rhs) in &self.subatoms {
            if lhs.is_subset(cur) && cur.insert(*rhs) {
                changed = true;
            }
        }
        changed
    }

    fn bottom_fires(&self, cur: &LabelSet) -> bool {
        self.bottoms.iter().any(|lhs| lhs.is_subset(cur))
    }

    /// Adds the `∀`-pushes to `out`.
    fn propagate_into(&self, src: &LabelSet, role: EdgeSym, out: &mut LabelSet) {
        for (lhs, rhs) in self.allvalues_by_role.get(&role).into_iter().flatten() {
            if lhs.is_subset(src) {
                out.union_with(rhs);
            }
        }
    }

    fn edge_forbidden(&self, src: &LabelSet, role: EdgeSym, tgt: &LabelSet) -> bool {
        let fires = |role: EdgeSym, from: &LabelSet, to: &LabelSet| {
            self.notexists_by_role.get(&role).is_some_and(|rules| {
                rules.iter().any(|(lhs, rhs)| lhs.is_subset(from) && rhs.is_subset(to))
            })
        };
        fires(role, src, tgt) || fires(role.inv(), tgt, src)
    }

    /// `(lhs, rhs)` of the rules on `role`, in CI order.
    fn on_role<'a>(
        rules: &'a [(EdgeSym, LabelSet, LabelSet)],
        by_role: &'a FxHashMap<EdgeSym, Vec<usize>>,
        role: EdgeSym,
    ) -> impl Iterator<Item = (&'a LabelSet, &'a LabelSet)> {
        by_role.get(&role).into_iter().flatten().map(|&i| (&rules[i].1, &rules[i].2))
    }
}

/// Appends the `(role, K')` of the `rules` firing on `set` to `out`, in
/// rule order, skipping pairs already present.
fn push_firing(
    out: &mut Vec<(EdgeSym, LabelSet)>,
    rules: &[(EdgeSym, LabelSet, LabelSet)],
    set: &LabelSet,
) {
    for (role, lhs, rhs) in rules {
        if lhs.is_subset(set) && !out.iter().any(|(r, k)| r == role && k == rhs) {
            out.push((*role, rhs.clone()));
        }
    }
}

/// An interned closed label set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TypeId(pub u32);

/// Interning table of closed types, with a closure memo and the
/// *saturation* fixpoint (see [`TypeUniverse::saturate`]).
#[derive(Clone)]
pub struct TypeUniverse {
    /// The rule index of the TBox this universe was built over and its
    /// derived rule lists, shared with every [`TypeUniverse::fresh`] one.
    base: Arc<Base>,
    sets: Vec<LabelSet>,
    by_set: FxHashMap<LabelSet, TypeId>,
    closure_memo: FxHashMap<LabelSet, Option<TypeId>>,
    /// Current saturation approximation per type (monotonically growing).
    sat: FxHashMap<TypeId, TypeId>,
    /// Types whose requirements are unfulfillable (no model has a node of
    /// this type).
    dead: FxHashSet<TypeId>,
    /// `HornTbox::propagate` memo over arbitrary (possibly unclosed) label
    /// sets — the chase's hottest operation. Keyed by source set first so
    /// probes hash one set and never clone.
    propagate_memo: FxHashMap<LabelSet, Vec<(EdgeSym, Arc<LabelSet>)>>,
}

impl std::fmt::Debug for TypeUniverse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypeUniverse").field("types", &self.sets.len()).finish_non_exhaustive()
    }
}

impl TypeUniverse {
    /// Creates an empty universe over `tbox`, indexing its CIs.
    pub fn new(tbox: &HornTbox) -> Self {
        let mut base = Base::default();
        for ci in &tbox.cis {
            base.index.add(ci.clone());
        }
        Self::over(Arc::new(base))
    }

    /// An empty universe over this universe's TBox, sharing its index and
    /// rule lists. Interned types and memos are not carried over, so it
    /// numbers its types as [`TypeUniverse::new`] would.
    pub fn fresh(&self) -> Self {
        Self::over(Arc::clone(&self.base))
    }

    fn over(base: Arc<Base>) -> Self {
        TypeUniverse {
            base,
            sets: Vec::new(),
            by_set: FxHashMap::default(),
            closure_memo: FxHashMap::default(),
            sat: FxHashMap::default(),
            dead: FxHashSet::default(),
            propagate_memo: FxHashMap::default(),
        }
    }

    /// `(lhs, rhs)` of every `K ⊑ ∃role.K'` CI, in CI order.
    pub fn exists_on(&self, role: EdgeSym) -> impl Iterator<Item = (&LabelSet, &LabelSet)> {
        let index = &self.base.index;
        TboxIndex::on_role(&index.exists, &index.exists_by_role, role)
    }

    /// `(lhs, rhs)` of every `K ⊑ ∃≤1 role.K'` CI, in CI order.
    pub fn at_most_on(&self, role: EdgeSym) -> impl Iterator<Item = (&LabelSet, &LabelSet)> {
        let index = &self.base.index;
        TboxIndex::on_role(&index.atmost, &index.atmost_by_role, role)
    }

    /// [`HornTbox::requirements`] of a type's label set.
    pub fn requirements_of(&self, t: TypeId) -> RuleList {
        self.firing(&self.base.reqs, |l| &l.exists, &self.sets[t.0 as usize])
    }

    /// [`HornTbox::at_most`] of a type's label set.
    pub fn at_most_of(&self, t: TypeId) -> RuleList {
        self.at_most_set(&self.sets[t.0 as usize])
    }

    /// Memoized [`HornTbox::propagate`] over an arbitrary label set.
    pub fn propagate_set(&mut self, set: &LabelSet, role: EdgeSym) -> Arc<LabelSet> {
        if let Some(rows) = self.propagate_memo.get(set) {
            if let Some((_, p)) = rows.iter().find(|(r, _)| *r == role) {
                return Arc::clone(p);
            }
        }
        let mut out = LabelSet::new();
        self.base.index.propagate_into(set, role, &mut out);
        let p = Arc::new(out);
        self.propagate_memo.entry(set.clone()).or_default().push((role, Arc::clone(&p)));
        p
    }

    /// [`HornTbox::edge_forbidden`], read off the role-grouped `∄` rules.
    pub fn edge_forbidden(&self, src: &LabelSet, role: EdgeSym, tgt: &LabelSet) -> bool {
        self.base.index.edge_forbidden(src, role, tgt)
    }

    /// [`HornTbox::at_most`] over an arbitrary label set.
    pub fn at_most_set(&self, set: &LabelSet) -> RuleList {
        self.firing(&self.base.at_most, |l| &l.atmost, set)
    }

    /// The deduplicated `(role, K')` of the `rules` firing on `set`, in CI
    /// order: [`HornTbox::requirements`] over `exists`,
    /// [`HornTbox::at_most`] over `atmost`, memoized in the base's `shared`
    /// lists.
    fn firing(
        &self,
        shared: &Mutex<FxHashMap<LabelSet, RuleList>>,
        rules: fn(&TboxIndex) -> &[(EdgeSym, LabelSet, LabelSet)],
        set: &LabelSet,
    ) -> RuleList {
        // Each update inserts one finished list, so a poisoned map is
        // still valid.
        let lock = || shared.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = lock().get(set) {
            return Arc::clone(hit);
        }
        let mut out = Vec::new();
        push_firing(&mut out, rules(&self.base.index), set);
        Arc::clone(lock().entry(set.clone()).or_insert_with(|| Arc::new(out)))
    }

    /// [`HornTbox::closure`].
    fn closure(&self, seed: &LabelSet) -> Option<LabelSet> {
        let mut cur = seed.clone();
        loop {
            let changed = self.base.index.apply_subatoms(&mut cur);
            if self.base.index.bottom_fires(&cur) {
                return None;
            }
            if !changed {
                return Some(cur);
            }
        }
    }

    /// Closes `seed` under the TBox and interns the result; `None` if the
    /// closure is inconsistent (`K ⊑ ⊥` fires).
    pub fn close(&mut self, seed: &LabelSet) -> Option<TypeId> {
        if let Some(&id) = self.closure_memo.get(seed) {
            return id;
        }
        let closed = self.closure(seed);
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
