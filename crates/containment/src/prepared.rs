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
//!
//! A completion is a function of its base, its overlay and the options
//! that bound it, and the questions of one analysis ask many `P` against
//! few `Q°`; with state labels named by their place in `Q°`
//! ([`crate::rollup_negation`]) their overlays repeat. So each prepared
//! TBox also memoizes the completions over it ([`PreparedTbox::complete`]):
//! the `T*` overlay and its `complete` flag, not the type universe, which
//! a hit rebuilds over the memoized CIs.

use crate::completion::{complete_over, Completion};
use crate::contains::ContainmentOptions;
use gts_dl::{HornCi, HornTbox};
use gts_graph::{EdgeSym, FxHashSet, FxHasher, LabelSet};
use gts_sat::{RuleIndex, TypeUniverse};
use gts_schema::Schema;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// A TBox prepared as the shared base of many completions: its rule index
/// (the one copy of its CIs), the distinct left- and right-hand sides of
/// its `∃` and at-most CIs in CI order, its roles in CI order, and the
/// completions run over it. A completion over it works on an *overlay*,
/// the CIs beyond the base, and reads as the completion of the base's CIs
/// followed by the overlay's.
#[derive(Default)]
pub struct PreparedTbox {
    index: RuleIndex,
    seeds: Vec<LabelSet>,
    roles: Vec<EdgeSym>,
    completions: Mutex<Vec<Completed>>,
}

/// At most this many completions are memoized per prepared TBox; past the
/// cap the oldest goes.
const MEMO_CAP: usize = 64;

/// A memoized completion. Its key is the input overlay, which is the
/// first `input` CIs of `t_star` (a completion only appends reversals),
/// with the seed labels and the options that bound the completion; its
/// value is the `T*` overlay and its `complete` flag.
struct Completed {
    hash: u64,
    input: usize,
    schema_labels: LabelSet,
    bounds: Bounds,
    t_star: Arc<HornTbox>,
    complete: bool,
}

/// The options that shape a completion: the budget of its fixpoints and
/// its caps. The shard count does not change the result.
type Bounds = ([usize; 5], usize, usize);

fn bounds(opts: &ContainmentOptions) -> Bounds {
    (opts.budget.cache_key(), opts.completion.max_nodes, opts.completion.max_rounds)
}

impl Completed {
    fn is(&self, hash: u64, overlay: &[HornCi], labels: &LabelSet, bounds: &Bounds) -> bool {
        self.hash == hash
            && self.bounds == *bounds
            && self.t_star.cis[..self.input] == *overlay
            && self.schema_labels == *labels
    }

    fn approx_bytes(&self) -> usize {
        let ci_sides = |ci: &HornCi| match ci {
            HornCi::SubAtom { lhs, .. } | HornCi::Bottom { lhs } => lhs.approx_bytes(),
            HornCi::AllValues { lhs, rhs, .. }
            | HornCi::NotExists { lhs, rhs, .. }
            | HornCi::Exists { lhs, rhs, .. }
            | HornCi::AtMostOne { lhs, rhs, .. } => lhs.approx_bytes() + rhs.approx_bytes(),
        };
        // The `Arc`'s block holds its two counts and the TBox.
        self.schema_labels.approx_bytes()
            + std::mem::size_of::<(usize, usize, HornTbox)>()
            + self.t_star.cis.capacity() * std::mem::size_of::<HornCi>()
            + self.t_star.cis.iter().map(ci_sides).sum::<usize>()
    }
}

impl PreparedTbox {
    /// Prepares `tbox`.
    pub fn new(tbox: &HornTbox) -> Self {
        let mut seen: FxHashSet<&LabelSet> = FxHashSet::default();
        let seeds = quantified(&tbox.cis).filter(|s| seen.insert(s)).cloned().collect();
        PreparedTbox {
            index: RuleIndex::new(tbox),
            seeds,
            roles: tbox.used_roles(),
            completions: Mutex::default(),
        }
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

    /// The completion of `overlay` over this base ([`complete_over`]) as
    /// an empty type universe over `T*` and the completion's `complete`
    /// flag. A completion asked before with the same overlay, seed labels
    /// and bounding options is not run again: its `T*` overlay is indexed
    /// anew over the base. Counts each lookup in
    /// `gts_containment_completion_cache_total{outcome}`.
    pub(crate) fn complete(
        &self,
        overlay: HornTbox,
        schema_labels: &LabelSet,
        opts: &ContainmentOptions,
    ) -> (TypeUniverse, bool) {
        let bounds = bounds(opts);
        let mut hasher = FxHasher::default();
        overlay.cis.hash(&mut hasher);
        let hash = hasher.finish();
        // Each update inserts or removes one finished entry, so a poisoned
        // memo is still valid.
        let lock = || self.completions.lock().unwrap_or_else(PoisonError::into_inner);
        let find = |memo: &[Completed], overlay: &[HornCi]| {
            memo.iter()
                .find(|c| c.is(hash, overlay, schema_labels, &bounds))
                .map(|c| (Arc::clone(&c.t_star), c.complete))
        };
        let hit = find(&lock(), &overlay.cis);
        count_lookup(hit.is_some());
        if let Some((t_star, complete)) = hit {
            return (self.universe(&t_star), complete);
        }
        let input = overlay.len();
        let Completion { tbox: t_star, complete, universe, .. } = complete_over(
            self,
            overlay,
            schema_labels,
            &opts.budget,
            &opts.completion,
            opts.threads,
        );
        let mut memo = lock();
        // Another caller may have completed it meanwhile.
        if find(&memo, &t_star.cis[..input]).is_none() {
            if memo.len() == MEMO_CAP {
                memo.remove(0);
            }
            let (schema_labels, t_star) = (schema_labels.clone(), Arc::new(t_star));
            memo.push(Completed { hash, input, schema_labels, bounds, t_star, complete });
        }
        (universe, complete)
    }

    /// Number of memoized completions.
    pub fn completions(&self) -> usize {
        self.completions.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Approximate heap bytes, the memoized completions included.
    pub fn approx_bytes(&self) -> usize {
        let memo = self.completions.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::size_of::<Self>()
            + self.index.approx_bytes()
            + self.seeds.capacity() * std::mem::size_of::<LabelSet>()
            + self.seeds.iter().map(LabelSet::approx_bytes).sum::<usize>()
            + self.roles.capacity() * std::mem::size_of::<EdgeSym>()
            + memo.capacity() * std::mem::size_of::<Completed>()
            + memo.iter().map(Completed::approx_bytes).sum::<usize>()
    }
}

/// Counts one memo lookup of [`PreparedTbox::complete`].
fn count_lookup(hit: bool) {
    static CELLS: std::sync::OnceLock<[gts_obs::Counter; 2]> = std::sync::OnceLock::new();
    let [hits, misses] = CELLS.get_or_init(|| {
        let name = "gts_containment_completion_cache_total";
        let help = "Completion memo lookups by outcome";
        let reg = gts_obs::global();
        [
            reg.counter(name, help, &[("outcome", "hit")]),
            reg.counter(name, help, &[("outcome", "miss")]),
        ]
    });
    if hit { hits } else { misses }.inc();
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
/// containment calls met, with the completions memoized over it, keyed
/// by `S°` itself: clones of a session own separate vocabularies and may
/// intern the marker labels at different ids, so an `S°` of one never
/// finds a TBox over the other's ids. Clones of a `SchemaTboxes` share
/// its entries.
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

    /// Approximate heap bytes of the kept TBoxes, their memoized
    /// completions and their keys.
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

    /// More distinct `Q°` over one `S°` than the memo holds leave it full,
    /// and a memoized or evicted completion decides as a fresh call does.
    #[test]
    fn the_completion_memo_keeps_its_cap_and_its_verdicts() {
        use crate::contains::{contains, contains_with};
        use gts_graph::Vocab;
        use gts_query::{Atom, C2rpq, Regex, Uc2rpq, Var};
        use gts_schema::Mult;

        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        // The Boolean query "an r-path of n edges".
        let path = |n: u32| {
            let atoms = (0..n).map(|i| Atom { x: Var(i), y: Var(i + 1), regex: Regex::edge(r) });
            Uc2rpq::single(C2rpq::new(n + 1, vec![], atoms.collect()))
        };
        let p = path(2);
        let tboxes = SchemaTboxes::default();
        let opts = ContainmentOptions::default();
        let mut ask = |n: u32| {
            let q = path(n);
            let memo = contains_with(&p, &q, &s, &mut v, &opts, &tboxes).unwrap();
            let fresh = contains(&p, &q, &s, &mut v.clone(), &opts).unwrap();
            assert_eq!((memo.holds, memo.certified), (fresh.holds, fresh.certified), "n = {n}");
            memo.holds
        };
        // n = 2 is P itself, settled without a completion.
        let lengths: Vec<u32> = (1..=MEMO_CAP as u32 + 4).filter(|&n| n != 2).collect();
        let verdicts: Vec<bool> = lengths.iter().map(|&n| ask(n)).collect();
        assert!(verdicts[0] && !verdicts[1], "a shorter path holds, a longer one does not");
        // Boolean questions leave S° = S.
        let prepared = tboxes.get(&s);
        assert_eq!(prepared.completions(), MEMO_CAP, "the oldest completions went");
        // The newest are hits, the oldest are completed again: same verdicts.
        for &n in lengths.iter().rev().take(3).chain(&lengths[..3]) {
            ask(n);
        }
        assert_eq!(prepared.completions(), MEMO_CAP);
    }
}
