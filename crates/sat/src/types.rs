//! Interned node *types*: TBox-closed, consistent label sets.
//!
//! Every node of a candidate model carries a label set closed under the
//! `K ⊑ A` rules of the TBox and not triggering any `K ⊑ ⊥` rule. The
//! engine interns these closed sets so that the canonical-model fixpoint
//! ([`crate::HornFixpoint`]) can key its nodes by small integers.
//!
//! The universe holds the TBox only as its rule index, shared behind an
//! [`Arc`]: it can outlive the `decide` call that built it — this is what
//! lets one solver context (see [`crate::decide_in_ctx`]) share interned
//! types across the decides its owner runs — and [`TypeUniverse::fresh`]
//! starts an empty universe over the same index instead of indexing the
//! TBox again.
//!
//! The index also carries the rule lists derived from it: a label set's
//! requirement and at-most lists are computed once for every universe
//! over that index. A completion round, its parallel workers and the
//! universe it hands to the final decides thus derive each list once
//! between them. `∄`-checks read the role-grouped rules directly and keep
//! no memo.
//!
//! An index can sit on a shared lower layer, a [`RuleIndex`] built once
//! for a TBox that many others extend ([`TypeUniverse::layered`]): each
//! universe then indexes only the CIs beyond it, and reads the lower
//! layer's rules first, so every list keeps the CI order of the two
//! TBoxes concatenated.

use gts_dl::{HornCi, HornTbox};
use gts_graph::{EdgeSym, FxHashMap, LabelSet, NodeLabel};
use std::sync::{Arc, Mutex, PoisonError};

/// `(role, K')` pairs of the `∃` or at-most rules firing on a label set.
type RuleList = Arc<Vec<(EdgeSym, LabelSet)>>;

/// A layer's `∃` or at-most CIs as `(role, K, K')` in CI order, with their
/// positions per role.
type Lists<'a> = (&'a [(EdgeSym, LabelSet, LabelSet)], &'a FxHashMap<EdgeSym, Vec<usize>>);

/// A TBox's rule index and the rule lists derived from it. Every universe
/// over this base — a completion round's, each parallel worker's clone,
/// and the fresh one handed to the final decides — reads a requirement or
/// at-most list from here, so a label set's lists are derived once per
/// TBox, not once per universe.
#[derive(Default)]
struct Base {
    index: TboxIndex,
    /// The `∃`-requirements firing on a label set, per label set.
    reqs: Mutex<FxHashMap<LabelSet, RuleList>>,
    /// The at-most CIs firing on a label set, per label set.
    at_most: Mutex<FxHashMap<LabelSet, RuleList>>,
}

/// Where a CI sits in its layer's lists: its kind and position (within
/// its role's list where the kind is grouped by role). A layer keeps one
/// per CI, in CI order, so [`RuleIndex::cis`] reads the CIs back without a
/// second copy.
#[derive(Clone, Copy)]
enum Slot {
    SubAtom(u32),
    Bottom(u32),
    AllValues(EdgeSym, u32),
    Exists(u32),
    NotExists(EdgeSym, u32),
    AtMostOne(u32),
}

/// CIs of one TBox grouped by kind (and by role where it pays), built once
/// per TBox so every rule application scans only the relevant rules
/// instead of the whole CI list; flat lists keep CI order.
///
/// An index may sit on a shared `lower` layer whose CIs come before its
/// own: every read goes through the lower layer first, so the two read as
/// the one index of the lower layer's CIs followed by this one's — the CI
/// order of [`HornTbox::merged`].
#[derive(Default)]
struct TboxIndex {
    lower: Option<Arc<TboxIndex>>,
    /// This layer's CIs in CI order, as places in the lists below.
    order: Vec<Slot>,
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
    /// An index of `cis` over `lower`.
    fn build<'a>(lower: Option<Arc<TboxIndex>>, cis: impl IntoIterator<Item = &'a HornCi>) -> Self {
        let mut index = TboxIndex { lower, ..TboxIndex::default() };
        for ci in cis {
            index.add(ci.clone());
        }
        index
    }

    fn add(&mut self, ci: HornCi) {
        let at = |len: usize| len as u32;
        let slot = match ci {
            HornCi::SubAtom { lhs, rhs } => {
                self.subatoms.push((lhs, rhs.0));
                Slot::SubAtom(at(self.subatoms.len() - 1))
            }
            HornCi::Bottom { lhs } => {
                self.bottoms.push(lhs);
                Slot::Bottom(at(self.bottoms.len() - 1))
            }
            HornCi::AllValues { lhs, role, rhs } => {
                let rules = self.allvalues_by_role.entry(role).or_default();
                rules.push((lhs, rhs));
                Slot::AllValues(role, at(rules.len() - 1))
            }
            HornCi::Exists { lhs, role, rhs } => {
                self.exists_by_role.entry(role).or_default().push(self.exists.len());
                self.exists.push((role, lhs, rhs));
                Slot::Exists(at(self.exists.len() - 1))
            }
            HornCi::NotExists { lhs, role, rhs } => {
                let rules = self.notexists_by_role.entry(role).or_default();
                rules.push((lhs, rhs));
                Slot::NotExists(role, at(rules.len() - 1))
            }
            HornCi::AtMostOne { lhs, role, rhs } => {
                self.atmost_by_role.entry(role).or_default().push(self.atmost.len());
                self.atmost.push((role, lhs, rhs));
                Slot::AtMostOne(at(self.atmost.len() - 1))
            }
        };
        self.order.push(slot);
    }

    /// The lower layer, if any, then this one.
    fn layers(&self) -> impl Iterator<Item = &TboxIndex> {
        self.lower.as_deref().into_iter().chain(std::iter::once(self))
    }

    /// One pass of the `K ⊑ A` rules over `cur`; `true` iff it grew.
    fn apply_subatoms(&self, cur: &mut LabelSet) -> bool {
        let mut changed = false;
        for layer in self.layers() {
            for (lhs, rhs) in &layer.subatoms {
                if lhs.is_subset(cur) && cur.insert(*rhs) {
                    changed = true;
                }
            }
        }
        changed
    }

    fn bottom_fires(&self, cur: &LabelSet) -> bool {
        self.layers().any(|layer| layer.bottoms.iter().any(|lhs| lhs.is_subset(cur)))
    }

    /// Adds the `∀`-pushes to `out`.
    fn propagate_into(&self, src: &LabelSet, role: EdgeSym, out: &mut LabelSet) {
        for layer in self.layers() {
            for (lhs, rhs) in layer.allvalues_by_role.get(&role).into_iter().flatten() {
                if lhs.is_subset(src) {
                    out.union_with(rhs);
                }
            }
        }
    }

    fn edge_forbidden(&self, src: &LabelSet, role: EdgeSym, tgt: &LabelSet) -> bool {
        let fires = |role: EdgeSym, from: &LabelSet, to: &LabelSet| {
            self.layers().any(|layer| {
                layer.notexists_by_role.get(&role).is_some_and(|rules| {
                    rules.iter().any(|(lhs, rhs)| lhs.is_subset(from) && rhs.is_subset(to))
                })
            })
        };
        fires(role, src, tgt) || fires(role.inv(), tgt, src)
    }

    /// `(lhs, rhs)` of the rules on `role` of every layer, in CI order;
    /// `kind` picks the `exists` or the `atmost` lists of a layer.
    fn on_role(
        &self,
        kind: fn(&TboxIndex) -> Lists<'_>,
        role: EdgeSym,
    ) -> impl Iterator<Item = (&LabelSet, &LabelSet)> {
        self.layers().flat_map(move |layer| layer.on_layer(kind, role))
    }

    fn exists_lists(&self) -> Lists<'_> {
        (&self.exists, &self.exists_by_role)
    }

    fn atmost_lists(&self) -> Lists<'_> {
        (&self.atmost, &self.atmost_by_role)
    }

    /// `true` iff this layer (not its lower one) holds `ci`.
    fn holds(&self, ci: &HornCi) -> bool {
        let pair = |rules: Option<&Vec<(LabelSet, LabelSet)>>, lhs: &LabelSet, rhs: &LabelSet| {
            rules.into_iter().flatten().any(|(l, r)| l == lhs && r == rhs)
        };
        match ci {
            HornCi::SubAtom { lhs, rhs } => {
                self.subatoms.iter().any(|(l, r)| l == lhs && *r == rhs.0)
            }
            HornCi::Bottom { lhs } => self.bottoms.contains(lhs),
            HornCi::AllValues { lhs, role, rhs } => {
                pair(self.allvalues_by_role.get(role), lhs, rhs)
            }
            HornCi::NotExists { lhs, role, rhs } => {
                pair(self.notexists_by_role.get(role), lhs, rhs)
            }
            HornCi::Exists { lhs, role, rhs } => {
                self.on_layer(Self::exists_lists, *role).any(|(l, r)| l == lhs && r == rhs)
            }
            HornCi::AtMostOne { lhs, role, rhs } => {
                self.on_layer(Self::atmost_lists, *role).any(|(l, r)| l == lhs && r == rhs)
            }
        }
    }

    /// [`TboxIndex::on_role`] over this layer alone.
    fn on_layer(
        &self,
        kind: fn(&TboxIndex) -> Lists<'_>,
        role: EdgeSym,
    ) -> impl Iterator<Item = (&LabelSet, &LabelSet)> {
        let (rules, by_role) = kind(self);
        by_role.get(&role).into_iter().flatten().map(move |&i| (&rules[i].1, &rules[i].2))
    }

    /// This layer's CIs, in CI order.
    fn cis(&self) -> impl Iterator<Item = HornCi> + '_ {
        self.order.iter().map(|&slot| match slot {
            Slot::SubAtom(i) => {
                let (lhs, rhs) = &self.subatoms[i as usize];
                HornCi::SubAtom { lhs: lhs.clone(), rhs: NodeLabel(*rhs) }
            }
            Slot::Bottom(i) => HornCi::Bottom { lhs: self.bottoms[i as usize].clone() },
            Slot::AllValues(role, i) => {
                let (lhs, rhs) = &self.allvalues_by_role[&role][i as usize];
                HornCi::AllValues { lhs: lhs.clone(), role, rhs: rhs.clone() }
            }
            Slot::Exists(i) => {
                let (role, lhs, rhs) = &self.exists[i as usize];
                HornCi::Exists { lhs: lhs.clone(), role: *role, rhs: rhs.clone() }
            }
            Slot::NotExists(role, i) => {
                let (lhs, rhs) = &self.notexists_by_role[&role][i as usize];
                HornCi::NotExists { lhs: lhs.clone(), role, rhs: rhs.clone() }
            }
            Slot::AtMostOne(i) => {
                let (role, lhs, rhs) = &self.atmost[i as usize];
                HornCi::AtMostOne { lhs: lhs.clone(), role: *role, rhs: rhs.clone() }
            }
        })
    }

    /// Approximate heap bytes of this layer (not its lower one): the
    /// lists, their label sets, and the role tables.
    fn approx_bytes(&self) -> usize {
        let set = |s: &LabelSet| s.approx_bytes();
        let pair = std::mem::size_of::<(LabelSet, LabelSet)>();
        let triple = std::mem::size_of::<(EdgeSym, LabelSet, LabelSet)>();
        // A hash table entry: the key, the value's `Vec` header, and about
        // one control byte plus load-factor slack.
        let entry = |value: usize| std::mem::size_of::<EdgeSym>() + value + 8;
        let by_role_pairs = |m: &FxHashMap<EdgeSym, Vec<(LabelSet, LabelSet)>>| -> usize {
            m.values()
                .map(|v| {
                    entry(std::mem::size_of::<Vec<()>>())
                        + v.capacity() * pair
                        + v.iter().map(|(l, r)| set(l) + set(r)).sum::<usize>()
                })
                .sum()
        };
        let by_role_positions = |m: &FxHashMap<EdgeSym, Vec<usize>>| -> usize {
            m.values().map(|v| entry(std::mem::size_of::<Vec<()>>()) + v.capacity() * 8).sum()
        };
        self.order.capacity() * std::mem::size_of::<Slot>()
            + self.subatoms.capacity() * std::mem::size_of::<(LabelSet, u32)>()
            + self.subatoms.iter().map(|(l, _)| set(l)).sum::<usize>()
            + self.bottoms.capacity() * std::mem::size_of::<LabelSet>()
            + self.bottoms.iter().map(set).sum::<usize>()
            + (self.exists.capacity() + self.atmost.capacity()) * triple
            + self.exists.iter().chain(&self.atmost).map(|(_, l, r)| set(l) + set(r)).sum::<usize>()
            + by_role_pairs(&self.allvalues_by_role)
            + by_role_pairs(&self.notexists_by_role)
            + by_role_positions(&self.exists_by_role)
            + by_role_positions(&self.atmost_by_role)
    }
}

/// The rule index of a fixed TBox, built once and shared: the lower layer
/// of the universes of every TBox that extends it
/// ([`TypeUniverse::layered`]). It is the only copy of the TBox it
/// indexes: [`RuleIndex::cis`] reads the CIs back in order and
/// [`RuleIndex::holds`] tests membership.
#[derive(Clone, Default)]
pub struct RuleIndex(Arc<TboxIndex>);

impl RuleIndex {
    /// Indexes the CIs of `tbox`.
    pub fn new(tbox: &HornTbox) -> Self {
        RuleIndex(Arc::new(TboxIndex::build(None, &tbox.cis)))
    }

    /// Number of indexed CIs.
    pub fn len(&self) -> usize {
        self.0.order.len()
    }

    /// `true` iff no CI is indexed.
    pub fn is_empty(&self) -> bool {
        self.0.order.is_empty()
    }

    /// `true` iff `ci` is one of the indexed CIs (an exact test: a scan of
    /// the CIs of its kind, and of its role where they are grouped so).
    pub fn holds(&self, ci: &HornCi) -> bool {
        self.0.holds(ci)
    }

    /// The indexed CIs, in the order of the TBox they were indexed from.
    pub fn cis(&self) -> impl Iterator<Item = HornCi> + '_ {
        self.0.cis()
    }

    /// Approximate heap bytes of the index.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<TboxIndex>() + self.0.approx_bytes()
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

/// Interning table of closed types, with closure and propagation memos.
#[derive(Clone)]
pub struct TypeUniverse {
    /// The rule index of the TBox this universe was built over and its
    /// derived rule lists, shared with every [`TypeUniverse::fresh`] one.
    base: Arc<Base>,
    sets: Vec<LabelSet>,
    by_set: FxHashMap<LabelSet, TypeId>,
    closure_memo: FxHashMap<LabelSet, Option<TypeId>>,
    /// `∀`-push memo over arbitrary (possibly unclosed) label sets — the
    /// chase's hottest operation. Keyed by source set first so probes hash
    /// one set and never clone.
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
        Self::layered(&RuleIndex::default(), &tbox.cis)
    }

    /// Creates an empty universe over the CIs of `lower` followed by
    /// `upper`, indexing `upper` only: every rule list reads as the one
    /// [`TypeUniverse::new`] builds over the two concatenated.
    pub fn layered(lower: &RuleIndex, upper: &[HornCi]) -> Self {
        let lower = (!lower.is_empty()).then(|| Arc::clone(&lower.0));
        let base = Base { index: TboxIndex::build(lower, upper), ..Base::default() };
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
            propagate_memo: FxHashMap::default(),
        }
    }

    /// `(lhs, rhs)` of every `K ⊑ ∃role.K'` CI, in CI order.
    pub fn exists_on(&self, role: EdgeSym) -> impl Iterator<Item = (&LabelSet, &LabelSet)> {
        self.base.index.on_role(TboxIndex::exists_lists, role)
    }

    /// `(lhs, rhs)` of every `K ⊑ ∃≤1 role.K'` CI, in CI order.
    pub fn at_most_on(&self, role: EdgeSym) -> impl Iterator<Item = (&LabelSet, &LabelSet)> {
        self.base.index.on_role(TboxIndex::atmost_lists, role)
    }

    /// The deduplicated `(role, K')` of the `K ⊑ ∃role.K'` CIs firing on a
    /// type's label set, in CI order.
    pub fn requirements_of(&self, t: TypeId) -> RuleList {
        self.firing(&self.base.reqs, TboxIndex::exists_lists, &self.sets[t.0 as usize])
    }

    /// The deduplicated `(role, K')` of the `K ⊑ ∃≤1 role.K'` CIs firing
    /// on a type's label set, in CI order.
    pub fn at_most_of(&self, t: TypeId) -> RuleList {
        self.at_most_set(&self.sets[t.0 as usize])
    }

    /// The labels the `∀`-CIs firing on `set` force on every
    /// `role`-successor, memoized over arbitrary label sets.
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

    /// `true` iff an edge from a `src`-node to a `role`-successor `tgt`
    /// violates a `∄`-CI (checked in both directions), read off the
    /// role-grouped `∄` rules.
    pub fn edge_forbidden(&self, src: &LabelSet, role: EdgeSym, tgt: &LabelSet) -> bool {
        self.base.index.edge_forbidden(src, role, tgt)
    }

    /// [`TypeUniverse::at_most_of`] over an arbitrary label set.
    pub fn at_most_set(&self, set: &LabelSet) -> RuleList {
        self.firing(&self.base.at_most, TboxIndex::atmost_lists, set)
    }

    /// The deduplicated `(role, K')` of the rules of `kind` firing on
    /// `set`, in CI order across the layers: the requirements over the
    /// `exists` lists, the at-most CIs over the `atmost` lists, memoized
    /// in the base's `shared` lists.
    fn firing(
        &self,
        shared: &Mutex<FxHashMap<LabelSet, RuleList>>,
        kind: fn(&TboxIndex) -> Lists<'_>,
        set: &LabelSet,
    ) -> RuleList {
        // Each update inserts one finished list, so a poisoned map is
        // still valid.
        let lock = || shared.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = lock().get(set) {
            return Arc::clone(hit);
        }
        let mut out = Vec::new();
        for layer in self.base.index.layers() {
            push_firing(&mut out, kind(layer).0, set);
        }
        Arc::clone(lock().entry(set.clone()).or_insert_with(|| Arc::new(out)))
    }

    /// `seed` closed under the `K ⊑ A` CIs; `None` when a `K ⊑ ⊥` CI
    /// fires.
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

    /// One CI of every kind, over two roles, with a duplicate `(role, K')`
    /// across kinds: enough to see every list's order.
    fn mixed_tbox() -> HornTbox {
        let r = gts_graph::EdgeSym::fwd(gts_graph::EdgeLabel(0));
        let set = |l: &[u32]| LabelSet::from_iter(l.iter().copied());
        let cis = vec![
            HornCi::Exists { lhs: set(&[0]), role: r, rhs: set(&[1]) },
            HornCi::AtMostOne { lhs: set(&[0]), role: r.inv(), rhs: set(&[2]) },
            HornCi::NotExists { lhs: set(&[1]), role: r, rhs: set(&[0]) },
            HornCi::SubAtom { lhs: set(&[1, 2]), rhs: NodeLabel(3) },
            HornCi::AllValues { lhs: set(&[0]), role: r, rhs: set(&[2]) },
            HornCi::Bottom { lhs: set(&[2, 3]) },
            HornCi::Exists { lhs: set(&[2]), role: r, rhs: set(&[1]) },
            HornCi::AllValues { lhs: set(&[3]), role: r.inv(), rhs: set(&[0]) },
            HornCi::AtMostOne { lhs: set(&[]), role: r, rhs: set(&[1]) },
            HornCi::NotExists { lhs: set(&[2]), role: r.inv(), rhs: set(&[2]) },
            HornCi::Exists { lhs: set(&[0]), role: r.inv(), rhs: set(&[0]) },
        ];
        HornTbox { cis }
    }

    #[test]
    fn a_rule_index_reads_its_cis_back_in_order_and_tests_membership() {
        let t = mixed_tbox();
        let index = RuleIndex::new(&t);
        assert_eq!(index.len(), t.len());
        assert_eq!(index.cis().collect::<Vec<_>>(), t.cis);
        for ci in &t.cis {
            assert!(index.holds(ci), "{ci:?}");
        }
        let r = gts_graph::EdgeSym::fwd(gts_graph::EdgeLabel(0));
        let absent = HornCi::Exists { lhs: LabelSet::singleton(1), role: r, rhs: LabelSet::new() };
        assert!(!index.holds(&absent));
        assert!(!index.holds(&HornCi::Bottom { lhs: LabelSet::singleton(2) }));
        assert!(index.approx_bytes() > 0);
    }

    /// Every split of a TBox into a lower layer and an upper one reads as
    /// the flat index: the same rule lists in the same order, closures,
    /// pushes and `∄`-checks.
    #[test]
    fn a_layered_universe_reads_as_the_flat_one() {
        let t = mixed_tbox();
        let r = gts_graph::EdgeSym::fwd(gts_graph::EdgeLabel(0));
        let sets: Vec<LabelSet> = (0u32..16)
            .map(|bits| LabelSet::from_iter((0..4).filter(|i| bits & (1 << i) != 0)))
            .collect();
        for split in 0..=t.len() {
            let lower = RuleIndex::new(&HornTbox { cis: t.cis[..split].to_vec() });
            let mut layered = TypeUniverse::layered(&lower, &t.cis[split..]);
            let mut flat = TypeUniverse::new(&t);
            for role in [r, r.inv()] {
                assert_eq!(
                    layered.exists_on(role).collect::<Vec<_>>(),
                    flat.exists_on(role).collect::<Vec<_>>()
                );
                assert_eq!(
                    layered.at_most_on(role).collect::<Vec<_>>(),
                    flat.at_most_on(role).collect::<Vec<_>>()
                );
            }
            for s in &sets {
                let (a, b) = (layered.close(s), flat.close(s));
                assert_eq!(
                    a.map(|id| layered.labels(id).clone()),
                    b.map(|id| flat.labels(id).clone())
                );
                if let (Some(a), Some(b)) = (a, b) {
                    assert_eq!(layered.requirements_of(a), flat.requirements_of(b));
                    assert_eq!(layered.at_most_of(a), flat.at_most_of(b));
                }
                for role in [r, r.inv()] {
                    assert_eq!(layered.propagate_set(s, role), flat.propagate_set(s, role));
                    for tgt in &sets {
                        assert_eq!(
                            layered.edge_forbidden(s, role, tgt),
                            flat.edge_forbidden(s, role, tgt)
                        );
                    }
                }
            }
        }
    }
}
