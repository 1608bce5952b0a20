//! Unrestricted entailment of the completion's Horn-ALCIF concept
//! inclusions, read off canonical models.
//!
//! Horn-ALCIF has canonical models: a consistent premise `K` has a model
//! whose root carries exactly the labels every model forces on a
//! `K`-node, and which maps homomorphically into every model at any
//! `K`-node. So `T ⊨ K ⊑ ∃R.K'` iff the root of `K`'s canonical model has
//! an `R`-neighbour covering `K'` (or `K` is unsatisfiable). For
//! `T ⊨ K ⊑ ∃≤1 R.K'` the canonical model of a `K`-node with one pinned
//! `R`-child starting from `K'` is read instead: two such children are
//! forced equal iff an at-most CI firing on the node counts the child,
//! so the entailment holds iff that structure dies or some such CI
//! applies — the Corollary E.7 encoding with fresh labels `B ⊓ B' ⊑ ⊥`,
//! answered without them.
//!
//! [`HornFixpoint`] computes these canonical models as one least
//! fixpoint over a completion round's [`TypeUniverse`], shared by every
//! question of the round's sweep (Kazakov's consequence-based Horn-SHIQ
//! reasoning works the same way). A canonical model is a tree whose
//! nodes are keyed by where they hang: the root by its premise, a witness
//! by `(role, parent type, start type)`. Equal keys have equal subtrees,
//! so the fixpoint memoizes per key and the tree folds into a finite
//! graph. A node's labels grow by these rules until nothing changes:
//!
//! * **closure** under `K ⊑ A`; `K ⊑ ⊥` kills the node;
//! * **requirements**: each `∃`-CI firing on the node gets a witness
//!   starting from its target plus the node's `∀`-push over the role, and
//!   a witness's `∀`-push over the inverse role flows back;
//! * **functional merging**: witnesses over one role that all meet the
//!   counted concept of an at-most CI firing on the node merge into one;
//! * **inverse at-most**: when the parent also meets it and the role
//!   points back to the parent, those witnesses are the parent, which
//!   takes their targets;
//! * **death**: a dead witness, or a `∄`-CI on an edge in either
//!   direction, kills the node.
//!
//! Every rule derives only what every model forces, so a derived label
//! (or death) is sound; at the fixpoint the unravelled tree satisfies
//! every CI, so it is a model, and a label it lacks is not entailed. The
//! fixpoint settles every question it finishes. It stops — the sweep's
//! round then reports itself incomplete — only when it would hold more
//! than [`Budget::max_candidates`] nodes.

use gts_graph::{EdgeSym, FxHashMap, LabelSet};
use gts_sat::{Budget, TypeId, TypeUniverse, UnknownReason};

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
struct Node {
    key: Key,
    /// The labels derived so far, as a closed type.
    ty: TypeId,
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

/// The canonical models of every premise asked about over one TBox, as
/// one least fixpoint (see the module docs).
pub struct HornFixpoint {
    u: TypeUniverse,
    nodes: Vec<Node>,
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
    fn root(
        &mut self,
        k: &LabelSet,
        pinned: Option<(EdgeSym, &LabelSet)>,
    ) -> Result<Option<usize>, UnknownReason> {
        if let Some(reason) = self.exhausted {
            count_unsettled(None);
            return Err(reason);
        }
        let t0 = gts_obs::enabled().then(std::time::Instant::now);
        let Some(start) = self.u.close(k) else { return Ok(None) };
        let pinned = match pinned {
            None => None,
            Some((role, kp)) => match self.u.close(kp) {
                Some(t) => Some((role, t)),
                None => return Ok(None),
            },
        };
        let solved = self.node(Key::Root { start, pinned }).and_then(|root| {
            self.solve()?;
            Ok(root)
        });
        match solved {
            Ok(root) => Ok((!self.nodes[root].dead).then_some(root)),
            Err(reason) => {
                self.exhausted = Some(reason);
                count_unsettled(t0);
                Err(reason)
            }
        }
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
        let (parent, pinned) = match self.nodes[n].key {
            Key::Root { pinned, .. } => (None, pinned),
            Key::Child { role, parent, .. } => (Some((role, parent)), None),
        };
        let mut ty = self.nodes[n].ty;
        // Grow the node until its witnesses, re-keyed on its new type, add
        // nothing more.
        let grown = loop {
            let Some(Expansion { labels, up, children }) = self.expand(n, ty, parent, pinned)?
            else {
                break None;
            };
            match self.u.close(&labels) {
                None => break None,
                Some(t) if t == ty => break Some((up, children)),
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

    /// The witnesses of a node of type `ty` hanging from `parent`, merged;
    /// `None` when the node dies.
    fn expand(
        &mut self,
        n: usize,
        ty: TypeId,
        parent: Option<(EdgeSym, TypeId)>,
        pinned: Option<(EdgeSym, TypeId)>,
    ) -> Result<Option<Expansion>, UnknownReason> {
        let labels = self.u.labels(ty).clone();
        let mut up = match parent {
            Some((role, _)) => (*self.u.propagate_set(&labels, role.inv())).clone(),
            None => LabelSet::new(),
        };
        let at_most = self.u.at_most_of(ty);
        let mut groups: Vec<(EdgeSym, LabelSet)> = self.u.requirements_of(ty).to_vec();
        let mut children = loop {
            let mut children = Vec::with_capacity(groups.len() + 1);
            for (role, seed) in &groups {
                let Some(c) = self.child(n, ty, &labels, *role, seed)? else { return Ok(None) };
                children.push((*role, c));
            }
            match self.merge(&at_most, parent, &groups, &children) {
                None => break children,
                Some(Merge::IntoParent(members)) => {
                    for &g in members.iter().rev() {
                        up.union_with(&groups.remove(g).1);
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
            let Some(c) = self.child(n, ty, &labels, role, &seed)? else { return Ok(None) };
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
    /// witness `groups` (`children` are their nodes, in order).
    fn merge(
        &self,
        at_most: &[(EdgeSym, LabelSet)],
        parent: Option<(EdgeSym, TypeId)>,
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
            let parent_counted = parent.is_some_and(|(up_role, p)| {
                up_role.inv() == *role && counted.is_subset(self.u.labels(p))
            });
            if parent_counted {
                return Some(Merge::IntoParent(members));
            }
            if members.len() > 1 {
                return Some(Merge::Siblings(members));
            }
        }
        None
    }

    /// The witness node over `role` from `seed` for node `n` of type `ty`
    /// (labels `labels`), recording `n` as its reader; `None` when the
    /// witness cannot exist.
    fn child(
        &mut self,
        n: usize,
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
        if !child.readers.contains(&n) {
            child.readers.push(n);
        }
        Ok(Some(c))
    }
}

/// Counts a question the fixpoint left unsettled in
/// `gts_containment_probe_micros`, with the time it took to give up
/// (`None`: it gave up at once).
fn count_unsettled(t0: Option<std::time::Instant>) {
    static HIST: std::sync::OnceLock<gts_obs::Histogram> = std::sync::OnceLock::new();
    HIST.get_or_init(|| {
        gts_obs::global().histogram(
            "gts_containment_probe_micros",
            "Completion entailment questions the canonical-model fixpoint left unsettled",
            &[],
        )
    })
    .record(t0.map_or(0, |t0| t0.elapsed().as_micros() as u64));
}

/// One evaluation of a node: its labels with everything its witnesses
/// push back, what it forces on its parent, and its witnesses.
struct Expansion {
    labels: LabelSet,
    up: LabelSet,
    children: Vec<(EdgeSym, usize)>,
}

/// A merge forced on a node's witnesses, by their positions (ascending).
enum Merge {
    /// These witnesses are the parent.
    IntoParent(Vec<usize>),
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
    /// Saturation alone never gives the parent `D`.
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
        let mut u = TypeUniverse::new(&t);
        let sat = u.close(&set(&[a])).and_then(|ty| u.saturate(ty)).unwrap();
        assert!(!u.labels(sat).contains(d), "saturation does not see the merge");
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
