//! Canonical models of a Horn-ALCIF TBox, as one least fixpoint: the
//! engine's only realizability check, and the completion sweep's
//! entailment oracle.
//!
//! Horn-ALCIF has canonical models: a consistent premise `K` has a model
//! whose root carries exactly the labels every model forces on a
//! `K`-node, and which maps homomorphically into every model at any
//! `K`-node. This is the paper's pre-type elimination (Lemma E.5/E.6,
//! Theorem E.3) without choices. So `T ⊨ K ⊑ ∃R.K'` iff the root of `K`'s
//! canonical model has an `R`-neighbour covering `K'` (or `K` is
//! unsatisfiable). For `T ⊨ K ⊑ ∃≤1 R.K'` the canonical model of a
//! `K`-node with one pinned `R`-child starting from `K'` is read instead:
//! two such children are forced equal iff an at-most CI firing on the
//! node counts the child, so the entailment holds iff that structure dies
//! or some such CI applies — the Corollary E.7 encoding with fresh labels
//! `B ⊓ B' ⊑ ⊥`, answered without them.
//!
//! [`HornFixpoint`] computes these canonical models over one
//! [`TypeUniverse`], shared by every question asked of it (Kazakov's
//! consequence-based Horn-SHIQ reasoning works the same way). A canonical
//! model is a tree whose nodes are keyed by where they hang: the root by
//! its premise, a witness by `(role, parent type, start type)`. Equal
//! keys have equal subtrees, so the fixpoint memoizes per key and the tree
//! folds into a finite graph. A node's labels grow by these rules until
//! nothing changes:
//!
//! * **closure** under `K ⊑ A`; `K ⊑ ⊥` kills the node;
//! * **requirements**: each `∃`-CI firing on the node gets a witness
//!   starting from its target plus the node's `∀`-push over the role, and
//!   a witness's `∀`-push over the inverse role flows back;
//! * **functional merging**: witnesses over one role that all meet the
//!   counted concept of an at-most CI firing on the node merge into one;
//! * **neighbour at-most**: when a fixed neighbour of the node (a
//!   witness's parent) also meets it over that role, those witnesses are
//!   the neighbour, which takes their targets;
//! * **death**: a dead witness, or a `∄`-CI on an edge in either
//!   direction, kills the node.
//!
//! Every rule derives only what every model forces, so a derived label
//! (or death) is sound at every stage; at the fixpoint the unravelled tree
//! satisfies every CI, so it is a model, and a label it lacks is not
//! entailed.
//!
//! The engine asks the same fixpoint about the nodes of a chased
//! candidate core ([`HornFixpoint::settle`]): a core node is evaluated as
//! a fixpoint node whose fixed neighbours are its core neighbours, so its
//! witnesses may merge into any of them. Core nodes are not memoized —
//! their neighbourhoods differ per core — but their witnesses are.
//!
//! The fixpoint stops only when it would hold more than
//! [`Budget::max_candidates`] nodes. The cap counts every node the
//! fixpoint ever built, across all the questions it served; once hit,
//! the approximations are no model and every later question is left
//! unsettled too.

use crate::budget::{Budget, UnknownReason};
use crate::types::{TypeId, TypeUniverse};
use gts_graph::{EdgeSym, FxHashMap, LabelSet};

/// Where a node of a canonical model hangs: the fixpoint's memo key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    /// The root of a premise's canonical model, from the closed premise.
    /// `pinned` adds one child `(role, start)` that merges with no
    /// sibling: the `K'`-successor of an at-most question.
    Root { start: TypeId, pinned: Option<(EdgeSym, TypeId)> },
    /// A witness reached over `role` from a parent of type `parent`,
    /// from the closure of its seed and the parent's `∀`-push.
    Child { role: EdgeSym, parent: TypeId, start: TypeId },
}

/// One node of the fixpoint: its current approximation, which only grows.
pub(crate) struct Node {
    key: Key,
    /// The labels derived so far, as a closed type.
    pub(crate) ty: TypeId,
    /// No model has a node here.
    dead: bool,
    /// Labels forced on the parent: the `∀`-push over the inverse role,
    /// plus the targets of the requirements the parent fulfils.
    up: LabelSet,
    /// The witnesses of the last evaluation, `(role, node)`; a root's
    /// pinned child comes last.
    children: Vec<(EdgeSym, usize)>,
    /// Nodes whose evaluation read this one.
    readers: Vec<usize>,
}

/// The `R`-neighbours of a premise's canonical root, by role; `None` when
/// the premise is unsatisfiable.
pub struct Successors(Option<Vec<(EdgeSym, LabelSet)>>);

impl Successors {
    /// `T ⊨ K ⊑ ∃role.K'` for the premise these are the successors of.
    pub fn cover(&self, role: EdgeSym, kp: &LabelSet) -> bool {
        match &self.0 {
            None => true,
            Some(children) => children.iter().any(|(r, c)| *r == role && kp.is_subset(c)),
        }
    }
}

/// The canonical models of every premise and core node asked about over
/// one TBox, as one least fixpoint (see the module docs). The solver
/// context of [`crate::decide_in_ctx`].
pub struct HornFixpoint {
    /// The type interner over the TBox; the engine's chase runs on it too.
    pub(crate) u: TypeUniverse,
    pub(crate) nodes: Vec<Node>,
    index: FxHashMap<Key, usize>,
    /// Nodes to re-evaluate, and a membership flag per node.
    queue: Vec<usize>,
    queued: Vec<bool>,
    /// Node cap ([`Budget::max_candidates`]).
    cap: usize,
    /// Set once the cap was hit: the approximations are then no model,
    /// and every later question is unsettled too.
    exhausted: Option<UnknownReason>,
}

impl HornFixpoint {
    /// An empty fixpoint over the TBox of `universe`, reusing its
    /// interned types and memos.
    pub fn new(universe: TypeUniverse, budget: &Budget) -> Self {
        HornFixpoint {
            u: universe,
            nodes: Vec::new(),
            index: FxHashMap::default(),
            queue: Vec::new(),
            queued: Vec::new(),
            cap: budget.max_candidates,
            exhausted: None,
        }
    }

    /// The canonical root's successors for premise `k`.
    pub fn successors(&mut self, k: &LabelSet) -> Result<Successors, UnknownReason> {
        let Some(root) = self.root(k, None)? else { return Ok(Successors(None)) };
        let children = self.nodes[root]
            .children
            .iter()
            .map(|&(role, c)| (role, self.u.labels(self.nodes[c].ty).clone()))
            .collect();
        Ok(Successors(Some(children)))
    }

    /// `T ⊨ K ⊑ ∃R.K'` (unrestricted models).
    pub fn entails_exists(
        &mut self,
        k: &LabelSet,
        role: EdgeSym,
        kp: &LabelSet,
    ) -> Result<bool, UnknownReason> {
        Ok(self.successors(k)?.cover(role, kp))
    }

    /// `T ⊨ K ⊑ ∃≤1 R.K'` (unrestricted models): a `K`-node and a pinned
    /// `R`-child from `K'`, saturated jointly, either die or meet an
    /// at-most CI of the node that counts the child.
    pub fn entails_at_most_one(
        &mut self,
        k: &LabelSet,
        role: EdgeSym,
        kp: &LabelSet,
    ) -> Result<bool, UnknownReason> {
        let Some(root) = self.root(k, Some((role, kp)))? else { return Ok(true) };
        let node = &self.nodes[root];
        let &(_, child) = node.children.last().expect("a live root has its pinned child");
        let child = self.u.labels(self.nodes[child].ty);
        Ok(self
            .u
            .at_most_of(node.ty)
            .iter()
            .any(|(r, counted)| *r == role && counted.is_subset(child)))
    }

    /// The solved root for premise `k` (with the pinned child, if any);
    /// `None` when the structure has no model.
    pub(crate) fn root(
        &mut self,
        k: &LabelSet,
        pinned: Option<(EdgeSym, &LabelSet)>,
    ) -> Result<Option<usize>, UnknownReason> {
        if let Some(reason) = self.exhausted {
            return Err(reason);
        }
        let Some(start) = self.u.close(k) else { return Ok(None) };
        let pinned = match pinned {
            None => None,
            Some((role, kp)) => match self.u.close(kp) {
                Some(t) => Some((role, t)),
                None => return Ok(None),
            },
        };
        let root = self.node(Key::Root { start, pinned }).and_then(|root| {
            self.solve()?;
            Ok(root)
        });
        let root = self.exhaust_on_cap(root)?;
        Ok((!self.nodes[root].dead).then_some(root))
    }

    /// Settles a node of type `ty` whose fixed neighbours are
    /// `neighbours`, `(role from the node, neighbour type)`: a core node
    /// of the engine. Every `∃`-requirement of the node gets a witness,
    /// which merges into a neighbour when an at-most CI of the node counts
    /// both over the same role. Returns the node's grown type and what it
    /// forces on each neighbour (the `∀`-push and the targets of the
    /// witnesses merged into it), or `None` when no model has the node
    /// with these neighbours.
    pub(crate) fn settle(
        &mut self,
        ty: TypeId,
        neighbours: &[(EdgeSym, TypeId)],
    ) -> Result<Option<(TypeId, Vec<LabelSet>)>, UnknownReason> {
        if let Some(reason) = self.exhausted {
            return Err(reason);
        }
        let settled = self.settle_from(ty, neighbours);
        self.exhaust_on_cap(settled)
    }

    fn settle_from(
        &mut self,
        mut ty: TypeId,
        neighbours: &[(EdgeSym, TypeId)],
    ) -> Result<Option<(TypeId, Vec<LabelSet>)>, UnknownReason> {
        loop {
            // Death is final whether or not the witnesses are solved yet.
            let Some(Expansion { labels, up, .. }) = self.expand(None, ty, neighbours, None)?
            else {
                return Ok(None);
            };
            // New witnesses were queued: solve them and read them again.
            if !self.queue.is_empty() {
                self.solve()?;
                continue;
            }
            match self.u.close(&labels) {
                None => return Ok(None),
                Some(t) if t == ty => return Ok(Some((ty, up))),
                Some(t) => ty = t,
            }
        }
    }

    /// Marks the fixpoint exhausted when `out` hit the node cap.
    fn exhaust_on_cap<T>(&mut self, out: Result<T, UnknownReason>) -> Result<T, UnknownReason> {
        if let Err(reason) = out {
            self.exhausted = Some(reason);
        }
        out
    }

    /// The node for `key`, created (and queued) on first use.
    fn node(&mut self, key: Key) -> Result<usize, UnknownReason> {
        if let Some(&n) = self.index.get(&key) {
            return Ok(n);
        }
        if self.nodes.len() >= self.cap {
            return Err(UnknownReason::CandidateBudget);
        }
        let ty = match key {
            Key::Root { start, .. } | Key::Child { start, .. } => start,
        };
        let n = self.nodes.len();
        self.nodes.push(Node {
            key,
            ty,
            dead: false,
            up: LabelSet::new(),
            children: Vec::new(),
            readers: Vec::new(),
        });
        self.queued.push(false);
        self.index.insert(key, n);
        self.enqueue(n);
        Ok(n)
    }

    fn enqueue(&mut self, n: usize) {
        if !self.queued[n] {
            self.queued[n] = true;
            self.queue.push(n);
        }
    }

    /// Re-evaluates queued nodes until none changes.
    fn solve(&mut self) -> Result<(), UnknownReason> {
        while let Some(n) = self.queue.pop() {
            self.queued[n] = false;
            self.eval(n)?;
        }
        Ok(())
    }

    /// One evaluation of node `n` against its witnesses' current
    /// approximations; queues its readers when it changed.
    fn eval(&mut self, n: usize) -> Result<(), UnknownReason> {
        if self.nodes[n].dead {
            return Ok(());
        }
        // A witness's one fixed neighbour is its parent.
        let (parent, pinned) = match self.nodes[n].key {
            Key::Root { pinned, .. } => (None, pinned),
            Key::Child { role, parent, .. } => (Some((role.inv(), parent)), None),
        };
        let mut ty = self.nodes[n].ty;
        // Grow the node until its witnesses, re-keyed on its new type, add
        // nothing more.
        let grown = loop {
            let Some(Expansion { labels, up, children }) =
                self.expand(Some(n), ty, parent.as_slice(), pinned)?
            else {
                break None;
            };
            match self.u.close(&labels) {
                None => break None,
                Some(t) if t == ty => break Some((up.into_iter().next(), children)),
                Some(t) => ty = t,
            }
        };
        let node = &mut self.nodes[n];
        let changed = match grown {
            None => {
                node.dead = true;
                node.children.clear();
                true
            }
            Some((up, children)) => {
                let up = up.unwrap_or_default();
                node.children = children;
                let changed = ty != node.ty || !up.is_subset(&node.up);
                node.ty = ty;
                node.up.union_with(&up);
                changed
            }
        };
        if changed {
            for r in std::mem::take(&mut self.nodes[n].readers) {
                self.enqueue(r);
            }
        }
        Ok(())
    }

    /// The witnesses of a node of type `ty` with fixed `neighbours`,
    /// merged; `None` when the node dies. `reader` is the fixpoint node
    /// being evaluated, if it is one.
    fn expand(
        &mut self,
        reader: Option<usize>,
        ty: TypeId,
        neighbours: &[(EdgeSym, TypeId)],
        pinned: Option<(EdgeSym, TypeId)>,
    ) -> Result<Option<Expansion>, UnknownReason> {
        let labels = self.u.labels(ty).clone();
        let mut up: Vec<LabelSet> = neighbours
            .iter()
            .map(|&(role, _)| (*self.u.propagate_set(&labels, role)).clone())
            .collect();
        let at_most = self.u.at_most_of(ty);
        let mut groups: Vec<(EdgeSym, LabelSet)> = self.u.requirements_of(ty).to_vec();
        let mut children = loop {
            let mut children = Vec::with_capacity(groups.len() + 1);
            for (role, seed) in &groups {
                let Some(c) = self.child(reader, ty, &labels, *role, seed)? else {
                    return Ok(None);
                };
                children.push((*role, c));
            }
            match self.merge(&at_most, neighbours, &groups, &children) {
                None => break children,
                Some(Merge::IntoNeighbour(k, members)) => {
                    for &g in members.iter().rev() {
                        up[k].union_with(&groups.remove(g).1);
                    }
                }
                Some(Merge::Siblings(members)) => {
                    for &g in members[1..].iter().rev() {
                        let (_, seed) = groups.remove(g);
                        groups[members[0]].1.union_with(&seed);
                    }
                }
            }
        };
        if let Some((role, start)) = pinned {
            let seed = self.u.labels(start).clone();
            let Some(c) = self.child(reader, ty, &labels, role, &seed)? else { return Ok(None) };
            children.push((role, c));
        }
        let mut grown = labels;
        for &(role, c) in &children {
            let child = &self.nodes[c];
            if self.u.edge_forbidden(self.u.labels(ty), role, self.u.labels(child.ty)) {
                return Ok(None);
            }
            grown.union_with(&child.up);
        }
        Ok(Some(Expansion { labels: grown, up, children }))
    }

    /// The first merge the at-most CIs `at_most` of a node force on its
    /// witness `groups` (`children` are their nodes, in order), given its
    /// fixed `neighbours`.
    fn merge(
        &self,
        at_most: &[(EdgeSym, LabelSet)],
        neighbours: &[(EdgeSym, TypeId)],
        groups: &[(EdgeSym, LabelSet)],
        children: &[(EdgeSym, usize)],
    ) -> Option<Merge> {
        for (role, counted) in at_most {
            let members: Vec<usize> = (0..groups.len())
                .filter(|&g| {
                    groups[g].0 == *role
                        && counted.is_subset(self.u.labels(self.nodes[children[g].1].ty))
                })
                .collect();
            if members.is_empty() {
                continue;
            }
            let counted_neighbour = neighbours
                .iter()
                .position(|&(r, t)| r == *role && counted.is_subset(self.u.labels(t)));
            if let Some(k) = counted_neighbour {
                return Some(Merge::IntoNeighbour(k, members));
            }
            if members.len() > 1 {
                return Some(Merge::Siblings(members));
            }
        }
        None
    }

    /// The witness node over `role` from `seed` for a node of type `ty`
    /// (labels `labels`), recording `reader` as its reader; `None` when
    /// the witness cannot exist.
    fn child(
        &mut self,
        reader: Option<usize>,
        ty: TypeId,
        labels: &LabelSet,
        role: EdgeSym,
        seed: &LabelSet,
    ) -> Result<Option<usize>, UnknownReason> {
        let mut start = (*self.u.propagate_set(labels, role)).clone();
        start.union_with(seed);
        let Some(start) = self.u.close(&start) else { return Ok(None) };
        let c = self.node(Key::Child { role, parent: ty, start })?;
        let child = &mut self.nodes[c];
        if child.dead {
            return Ok(None);
        }
        if let Some(n) = reader {
            if !child.readers.contains(&n) {
                child.readers.push(n);
            }
        }
        Ok(Some(c))
    }
}

/// One evaluation of a node: its labels with everything its witnesses
/// push back, what it forces on each fixed neighbour, and its witnesses.
struct Expansion {
    labels: LabelSet,
    up: Vec<LabelSet>,
    children: Vec<(EdgeSym, usize)>,
}

/// A merge forced on a node's witnesses, by their positions (ascending).
enum Merge {
    /// These witnesses are the fixed neighbour at this position.
    IntoNeighbour(usize, Vec<usize>),
    /// These witnesses are one node.
    Siblings(Vec<usize>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_dl::{HornCi, HornTbox};
    use gts_graph::{EdgeLabel, NodeLabel};

    fn set(labels: &[u32]) -> LabelSet {
        LabelSet::from_iter(labels.iter().copied())
    }
    fn sym(i: u32) -> EdgeSym {
        EdgeSym::fwd(EdgeLabel(i))
    }
    fn fixpoint(t: &HornTbox) -> HornFixpoint {
        HornFixpoint::new(TypeUniverse::new(t), &Budget::default())
    }
    fn exists(f: &mut HornFixpoint, k: &[u32], role: EdgeSym, kp: &[u32]) -> bool {
        f.entails_exists(&set(k), role, &set(kp)).unwrap()
    }
    fn at_most(f: &mut HornFixpoint, k: &[u32], role: EdgeSym, kp: &[u32]) -> bool {
        f.entails_at_most_one(&set(k), role, &set(kp)).unwrap()
    }
    /// Settles a `k`-node with fixed `neighbours`: what it forces on each,
    /// or `None` when it dies.
    fn settle(
        f: &mut HornFixpoint,
        k: &[u32],
        neighbours: &[(EdgeSym, &[u32])],
    ) -> Option<Vec<LabelSet>> {
        let ty = f.u.close(&set(k)).unwrap();
        let neighbours: Vec<(EdgeSym, TypeId)> =
            neighbours.iter().map(|&(r, l)| (r, f.u.close(&set(l)).unwrap())).collect();
        f.settle(ty, &neighbours).unwrap().map(|(_, up)| up)
    }

    /// `A ⊑ ∃r.A` — an infinite chain, alive from a lone node and from a
    /// node with a core neighbour.
    #[test]
    fn infinite_chain_is_realizable() {
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[0]) });
        let mut f = fixpoint(&t);
        assert!(settle(&mut f, &[0], &[]).is_some());
        assert!(settle(&mut f, &[0], &[(sym(0).inv(), &[0])]).is_some());
    }

    /// `A ⊑ ∃r.B, B ⊑ ⊥` — the required witness is inconsistent.
    #[test]
    fn inconsistent_witness_fails() {
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::Bottom { lhs: set(&[1]) });
        assert!(settle(&mut fixpoint(&t), &[0], &[]).is_none());
    }

    /// `A ⊑ ∃r.B, A ⊑ ∃≤1 r.⊤`: an `r`-neighbour is the witness, and takes
    /// `B`; a neighbour over another role takes nothing.
    #[test]
    fn neighbor_satisfies_requirement() {
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0), rhs: LabelSet::new() });
        t.push(HornCi::Bottom { lhs: set(&[1, 2]) });
        let mut f = fixpoint(&t);
        let up = settle(&mut f, &[0], &[(sym(1), &[]), (sym(0), &[])]).unwrap();
        assert_eq!(up, [LabelSet::new(), set(&[1])]);
        assert!(settle(&mut f, &[0], &[(sym(0), &[1])]).is_some());
        // A C-neighbour takes B too; closing it then refutes the core.
        assert_eq!(settle(&mut f, &[0], &[(sym(0), &[2])]), Some(vec![set(&[1])]));
    }

    /// `A ⊑ ∃r.B, A ⊑ ∃r.C, A ⊑ ∃≤1 r.⊤` forces `B` and `C` into one
    /// witness, which `B ⊓ C ⊑ ⊥` kills.
    #[test]
    fn requirement_grouping_merges_children() {
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[2]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0), rhs: LabelSet::new() });
        assert!(settle(&mut fixpoint(&t), &[0], &[]).is_some());
        t.push(HornCi::Bottom { lhs: set(&[1, 2]) });
        assert!(settle(&mut fixpoint(&t), &[0], &[]).is_none());
    }

    #[test]
    fn no_requirements_is_trivially_extendable() {
        let mut f = fixpoint(&HornTbox::new());
        assert_eq!(settle(&mut f, &[], &[(sym(0), &[])]), Some(vec![LabelSet::new()]));
        assert!(f.nodes.is_empty(), "nothing to witness");
    }

    /// Example 5.5's schema part with its marker: `A ⊑ ∃s.A`,
    /// `A⊓B ⊑ ∃s⁻.(A⊓B)`, `A ⊑ ∃≤1 s⁻.A`, `A ⊑ ∀s.B`. The `s`-witness
    /// `{A, B}` of an `A`-node needs an `s⁻`-witness, which the at-most CI
    /// makes its parent; the parent takes `A ⊓ B`. So an `A`-node lives,
    /// as `{A, B}` (the integers with `s` as successor are a model).
    #[test]
    fn the_parent_takes_the_witness_an_at_most_ci_counts() {
        let s = sym(0);
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: s, rhs: set(&[0]) });
        t.push(HornCi::Exists { lhs: set(&[0, 1]), role: s.inv(), rhs: set(&[0, 1]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: s.inv(), rhs: set(&[0]) });
        t.push(HornCi::AllValues { lhs: set(&[0]), role: s, rhs: set(&[1]) });
        let mut f = fixpoint(&t);
        let root = f.root(&set(&[0]), None).unwrap().expect("an A-node has a model");
        assert_eq!(f.u.labels(f.nodes[root].ty), &set(&[0, 1]));
        // So must a fixed {A}-parent over s.
        let up = settle(&mut f, &[0, 1], &[(s.inv(), &[0])]).unwrap();
        assert_eq!(up, [set(&[0, 1])], "the parent must take A ⊓ B");
    }

    #[test]
    fn direct_ci_is_entailed() {
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        let mut f = fixpoint(&t);
        assert!(exists(&mut f, &[0], sym(0), &[1]));
        // Weakening the target keeps entailment.
        assert!(exists(&mut f, &[0], sym(0), &[]));
        // Strengthening the premise keeps entailment.
        assert!(exists(&mut f, &[0, 1], sym(0), &[1]));
        // A stronger target is not entailed.
        assert!(!exists(&mut f, &[0], sym(0), &[0, 1]));
        // Nothing about other roles.
        assert!(!exists(&mut f, &[0], sym(1), &[1]));
    }

    #[test]
    fn entailment_through_propagation() {
        // A ⊑ ∃r.B and A ⊑ ∀r.C entail A ⊑ ∃r.(B⊓C).
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::AllValues { lhs: set(&[0]), role: sym(0), rhs: set(&[2]) });
        assert!(exists(&mut fixpoint(&t), &[0], sym(0), &[1, 2]));
    }

    #[test]
    fn unsatisfiable_premise_entails_vacuously() {
        let mut t = HornTbox::new();
        t.push(HornCi::Bottom { lhs: set(&[0]) });
        let mut f = fixpoint(&t);
        assert!(exists(&mut f, &[0], sym(0), &[5]));
        assert!(at_most(&mut f, &[0], sym(0), &[5]));
    }

    #[test]
    fn forbidden_forced_edge_kills_the_premise() {
        // A ⊑ ∃r.B and B ⊑ ∄r⁻.A: no model has an A-node.
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::NotExists { lhs: set(&[1]), role: sym(0).inv(), rhs: set(&[0]) });
        let mut f = fixpoint(&t);
        assert!(exists(&mut f, &[0], sym(1), &[7]));
        assert!(!exists(&mut f, &[1], sym(1), &[7]));
    }

    #[test]
    fn at_most_direct_and_weakened() {
        let mut t = HornTbox::new();
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        let mut f = fixpoint(&t);
        assert!(at_most(&mut f, &[0], sym(0), &[1]));
        // Counting a *larger* conjunction (fewer successors) stays ≤ 1.
        assert!(at_most(&mut f, &[0], sym(0), &[1, 0]));
        // Counting a smaller conjunction (more successors) is not entailed.
        assert!(!at_most(&mut f, &[0], sym(0), &[]));
        // Unconstrained premise is not entailed.
        assert!(!at_most(&mut f, &[1], sym(0), &[1]));
    }

    #[test]
    fn semantic_entailment_beyond_fast_path() {
        // ∄r.⊤ entails ∃≤1 r.K' for any K', though no at-most CI says so.
        let mut t = HornTbox::new();
        t.push(HornCi::NotExists { lhs: set(&[0]), role: sym(0), rhs: LabelSet::new() });
        assert!(at_most(&mut fixpoint(&t), &[0], sym(0), &[]));
    }

    /// Inverse at-most: `A ⊑ ∃r.B, B ⊑ ∃r⁻.D, B ⊑ ∃≤1 r⁻.⊤, A⊓D ⊑ G,
    /// G ⊑ ∀r.E ⊨ A ⊑ ∃r.(B⊓E)`. The `r⁻`-witness of the `B`-child is
    /// its parent, which takes `D`, then `G`, and pushes `E` back down.
    #[test]
    fn inverse_at_most_merges_the_witness_into_the_parent() {
        let [a, b, d, g, e] = [0, 1, 2, 3, 4];
        let r = sym(0);
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[a]), role: r, rhs: set(&[b]) });
        t.push(HornCi::Exists { lhs: set(&[b]), role: r.inv(), rhs: set(&[d]) });
        t.push(HornCi::AtMostOne { lhs: set(&[b]), role: r.inv(), rhs: LabelSet::new() });
        t.push(HornCi::SubAtom { lhs: set(&[a, d]), rhs: NodeLabel(g) });
        t.push(HornCi::AllValues { lhs: set(&[g]), role: r, rhs: set(&[e]) });
        let mut f = fixpoint(&t);
        assert!(exists(&mut f, &[a], r, &[b, e]));
        // Without the premise A the parent never meets G.
        assert!(!exists(&mut f, &[d], r, &[b]));
    }

    /// Functional merge: `A ⊑ ∃r.B, A ⊑ ∃r.C, A ⊑ ∃≤1 r.⊤ ⊨
    /// A ⊑ ∃r.(B⊓C)` — the two witnesses are one.
    #[test]
    fn functional_merge_joins_the_witnesses() {
        let r = sym(0);
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: r, rhs: set(&[1]) });
        t.push(HornCi::Exists { lhs: set(&[0]), role: r, rhs: set(&[2]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: r, rhs: LabelSet::new() });
        let mut f = fixpoint(&t);
        assert!(exists(&mut f, &[0], r, &[1, 2]));
        assert!(at_most(&mut f, &[0], r, &[]));
        // Counting only B-successors leaves the C-witness unmerged.
        let mut t2 = t.clone();
        t2.cis.pop();
        t2.push(HornCi::AtMostOne { lhs: set(&[0]), role: r, rhs: set(&[1]) });
        assert!(!exists(&mut fixpoint(&t2), &[0], r, &[1, 2]));
    }

    /// Joint at-most: `B ⊑ ∀r⁻.M, M ⊑ ∃≤1 r.B ⊨ A ⊑ ∃≤1 r.B`. A
    /// `B`-child pushes `M` onto its parent, whose at-most CI then counts
    /// it; only the joint saturation of the pair sees that.
    #[test]
    fn joint_saturation_answers_at_most() {
        let [a, b, m] = [0, 1, 2];
        let r = sym(0);
        let mut t = HornTbox::new();
        t.push(HornCi::AllValues { lhs: set(&[b]), role: r.inv(), rhs: set(&[m]) });
        t.push(HornCi::AtMostOne { lhs: set(&[m]), role: r, rhs: set(&[b]) });
        let mut f = fixpoint(&t);
        assert!(at_most(&mut f, &[a], r, &[b]));
        assert!(!at_most(&mut f, &[a], r, &[a]));
        assert!(!at_most(&mut f, &[a], r.inv(), &[b]));
    }

    /// `A ⊑ ∃r.A` unravels into an infinite chain; the fixpoint folds it
    /// into one node keyed on itself.
    #[test]
    fn cyclic_requirements_fold() {
        let r = sym(0);
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: r, rhs: set(&[0]) });
        t.push(HornCi::AllValues { lhs: set(&[0]), role: r.inv(), rhs: set(&[1]) });
        let mut f = fixpoint(&t);
        assert!(exists(&mut f, &[0], r, &[0, 1]));
        assert!(!exists(&mut f, &[0], r, &[2]));
        assert!(f.nodes.len() <= 3, "{} nodes", f.nodes.len());
    }

    #[test]
    fn the_node_cap_leaves_the_question_unsettled() {
        let r = sym(0);
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: r, rhs: set(&[1]) });
        t.push(HornCi::Exists { lhs: set(&[1]), role: r, rhs: set(&[0]) });
        let budget = Budget { max_candidates: 1, ..Budget::default() };
        let mut f = HornFixpoint::new(TypeUniverse::new(&t), &budget);
        assert_eq!(
            f.entails_exists(&set(&[0]), r, &set(&[1])),
            Err(UnknownReason::CandidateBudget)
        );
        // Every later question is unsettled too.
        assert!(f.entails_exists(&set(&[1]), r, &set(&[0])).is_err());
    }
}
