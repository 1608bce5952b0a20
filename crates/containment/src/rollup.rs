//! Rolling-up acyclic queries into Horn TBoxes (Lemma C.2, Appendix C).
//!
//! For a Boolean acyclic *connected* C2RPQ `C`, we build a Horn-ALCIF TBox
//! `T¬C` over new concept names (one per Glushkov automaton state) such
//! that a graph admits a valuation of the new names satisfying `T¬C` iff
//! it does **not** satisfy `C`. The construction orients the query tree
//! toward a leaf variable and simulates each atom's automaton along the
//! tree, exactly as in Example C.1.
//!
//! The state names are reserved names given by their place in `Q`:
//! `q{d}.{c}.{e}.{s}#` is NFA state `s` of expression `e` of component `c`
//! of disjunct `d`, interned once per vocabulary (`#` starts a comment in
//! `.gts` text, as for [`crate::booleanize`]'s markers). So `T¬Q` is a
//! function of `Q` alone: a repeated `Q°` rolls up to the same TBox, which
//! lets [`crate::PreparedTbox`] reuse its completion, and re-asking adds no
//! label to the vocabulary. Two queries share names, which is sound as
//! long as no TBox holds the states of two roll-ups: each containment call
//! rolls up one `Q°` and completes one choice of it at a time.
//!
//! Implementation notes beyond the paper (DESIGN.md §3.4):
//! * rule (3) needs one Horn CI per element of the product of the
//!   children's final-state sets (capped, with a clear error);
//! * `¬(C1 ∧ C2)` for a *disconnected* query is not Horn — the negation is
//!   distributed into one TBox per choice of refuted component per
//!   disjunct ([`rollup_negation`]);
//! * trivial self-atoms (`A(x,x)`, `ε(x,x)`, `∅(x,x)`) at one variable are
//!   merged into a single node-test expression and attached as a leaf
//!   child, which avoids circular seeding dependencies between siblings.

use gts_dl::{HornCi, HornTbox};
use gts_graph::{FxHashMap, LabelSet, NodeLabel, Vocab};
use gts_query::{AtomSym, C2rpq, Nfa, Regex, Uc2rpq, Var};

/// Cap on the product of children's final-state sets in rule (3).
const MAX_FINAL_COMBOS: usize = 4096;
/// Cap on the number of negation choices for a disconnected union.
const MAX_CHOICES: usize = 64;

/// Why rolling-up failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RollupError {
    /// The query is not acyclic (rolling-up requires a tree shape).
    NotAcyclic,
    /// Rule (3)'s final-state product exceeded the cap (4096).
    TooManyFinalCombos,
    /// The disconnected-negation choice product exceeded the cap (64).
    TooManyChoices,
}

/// The rolled-up TBox of one connected component, with its state concept
/// names.
#[derive(Clone, Debug)]
pub struct Rollup {
    /// The Horn TBox `T¬C`.
    pub tbox: HornTbox,
    /// The automaton-state concept names: the reserved names of the
    /// component's place, the same on every call for the same query.
    pub state_labels: LabelSet,
}

/// An expression node of the rolled-up tree: either an oriented query atom
/// or the merged self-loop decorations of one variable.
struct Expr {
    /// Variable where the run starts (children attach here).
    source: Var,
    /// Variable where the run ends (toward the root); equals `source` for
    /// decorations.
    target: Var,
    /// Regex read from source to target.
    regex: Regex,
    /// `true` for merged self-loop decorations (they never have children).
    decoration: bool,
}

/// Rolls up the negation of one connected component of a Boolean acyclic
/// C2RPQ, given the component's variables and atom indices. `place` is
/// the component's `(disjunct, component)` position in its UC2RPQ, which
/// names its states.
pub fn rollup_component(
    q: &C2rpq,
    vars: &[Var],
    atom_idxs: &[usize],
    place: (usize, usize),
    vocab: &mut Vocab,
) -> Result<Rollup, RollupError> {
    let mut tbox = HornTbox::new();
    let mut state_labels = LabelSet::new();

    if atom_idxs.is_empty() {
        // A lone variable asserts ∃x.⊤; its negation requires emptiness.
        tbox.push(HornCi::Bottom { lhs: LabelSet::new() });
        return Ok(Rollup { tbox, state_labels });
    }

    // Split into tree atoms (x ≠ y) and per-variable self decorations.
    let mut tree_atoms: Vec<usize> = Vec::new();
    let mut self_regex: FxHashMap<Var, Regex> = FxHashMap::default();
    for &i in atom_idxs {
        let a = &q.atoms[i];
        if a.x == a.y {
            // Acyclicity guarantees self-atoms are trivial (node tests /
            // ε / ∅); their concatenation at one node is their conjunction.
            let entry = self_regex.entry(a.x).or_insert(Regex::Epsilon);
            *entry = std::mem::replace(entry, Regex::Epsilon).then(a.regex.clone());
        } else {
            tree_atoms.push(i);
        }
    }

    // Exprs: oriented tree atoms + decorations.
    let mut exprs: Vec<Expr> = Vec::new();

    let root: Var;
    if tree_atoms.is_empty() {
        // Single variable with only decorations.
        root = vars[0];
    } else {
        // Variable adjacency over tree atoms.
        let mut degree: FxHashMap<Var, usize> = FxHashMap::default();
        for &i in &tree_atoms {
            *degree.entry(q.atoms[i].x).or_default() += 1;
            *degree.entry(q.atoms[i].y).or_default() += 1;
        }
        root = *vars
            .iter()
            .find(|v| degree.get(v).copied().unwrap_or(0) == 1)
            .ok_or(RollupError::NotAcyclic)?;
        // BFS depths from the root through tree atoms.
        let mut depth: FxHashMap<Var, usize> = FxHashMap::default();
        depth.insert(root, 0);
        let mut queue = vec![root];
        while let Some(v) = queue.pop() {
            let d = depth[&v];
            for &i in &tree_atoms {
                let a = &q.atoms[i];
                for (from, to) in [(a.x, a.y), (a.y, a.x)] {
                    if from == v && !depth.contains_key(&to) {
                        depth.insert(to, d + 1);
                        queue.push(to);
                    }
                }
            }
        }
        if depth.len() != vars.len() {
            return Err(RollupError::NotAcyclic); // disconnected input
        }
        for &i in &tree_atoms {
            let a = &q.atoms[i];
            if depth[&a.y] < depth[&a.x] {
                exprs.push(Expr {
                    source: a.x,
                    target: a.y,
                    regex: a.regex.clone(),
                    decoration: false,
                });
            } else {
                exprs.push(Expr {
                    source: a.y,
                    target: a.x,
                    regex: a.regex.reverse(),
                    decoration: false,
                });
            }
        }
    }
    for (&v, re) in &self_regex {
        exprs.push(Expr { source: v, target: v, regex: re.clone(), decoration: true });
    }

    // Automata and state concepts per expression.
    let nfas: Vec<Nfa> = exprs.iter().map(|e| Nfa::from_regex(&e.regex)).collect();
    let mut states: FxHashMap<(usize, usize), NodeLabel> = FxHashMap::default();
    let (d, c) = place;
    for (ei, nfa) in nfas.iter().enumerate() {
        for s in 0..nfa.num_states() {
            let l = vocab.node_label(&format!("q{d}.{c}.{ei}.{s}#"));
            state_labels.insert(l.0);
            states.insert((ei, s), l);
        }
    }

    // (1)/(2): automaton transitions.
    for (ei, nfa) in nfas.iter().enumerate() {
        for s in 0..nfa.num_states() {
            let qs = states[&(ei, s)];
            for &(sym, s2) in nfa.transitions(s) {
                let qs2 = states[&(ei, s2)];
                match sym {
                    AtomSym::Edge(r) => {
                        tbox.push(HornCi::AllValues {
                            lhs: LabelSet::singleton(qs.0),
                            role: r,
                            rhs: LabelSet::singleton(qs2.0),
                        });
                    }
                    AtomSym::Node(a) => {
                        tbox.push(HornCi::SubAtom {
                            lhs: LabelSet::from_iter([qs.0, a.0]),
                            rhs: qs2,
                        });
                    }
                }
            }
        }
    }

    // Children of a tree expression e: the expressions anchored (target) at
    // e's source. Decorations never have children.
    let children_of = |ei: usize| -> Vec<usize> {
        if exprs[ei].decoration {
            return Vec::new();
        }
        (0..exprs.len()).filter(|&fi| fi != ei && exprs[fi].target == exprs[ei].source).collect()
    };

    // (3): initial-state seeding per expression.
    for ei in 0..exprs.len() {
        let children = children_of(ei);
        let finals_per_child: Vec<Vec<usize>> = children
            .iter()
            .map(|&c| (0..nfas[c].num_states()).filter(|&s| nfas[c].is_final(s)).collect())
            .collect();
        let combos: usize = finals_per_child.iter().map(|f| f.len().max(1)).product();
        if combos > MAX_FINAL_COMBOS {
            return Err(RollupError::TooManyFinalCombos);
        }
        let init = states[&(ei, nfas[ei].initial())];
        let mut combo: Vec<usize> = Vec::new();
        seed_combos(&children, &finals_per_child, &states, init, &mut combo, &mut tbox);
    }

    // (4): denial at the root. The root's incoming expressions are those
    // anchored at the root: the unique up tree-atom (the root has tree
    // degree ≤ 1) plus possibly the root's decoration. Forbid every
    // combination of their final states.
    let root_exprs: Vec<usize> = (0..exprs.len()).filter(|&ei| exprs[ei].target == root).collect();
    let finals_per_root: Vec<Vec<usize>> = root_exprs
        .iter()
        .map(|&c| (0..nfas[c].num_states()).filter(|&s| nfas[c].is_final(s)).collect())
        .collect();
    let combos: usize = finals_per_root.iter().map(|f| f.len().max(1)).product();
    if combos > MAX_FINAL_COMBOS {
        return Err(RollupError::TooManyFinalCombos);
    }
    let mut combo: Vec<usize> = Vec::new();
    deny_combos(&root_exprs, &finals_per_root, &states, &mut combo, &mut tbox);

    Ok(Rollup { tbox, state_labels })
}

fn seed_combos(
    children: &[usize],
    finals_per_child: &[Vec<usize>],
    states: &FxHashMap<(usize, usize), NodeLabel>,
    init: NodeLabel,
    combo: &mut Vec<usize>,
    tbox: &mut HornTbox,
) {
    if combo.len() == children.len() {
        let lhs = LabelSet::from_iter(combo.iter().zip(children).map(|(&f, &c)| states[&(c, f)].0));
        tbox.push(HornCi::SubAtom { lhs, rhs: init });
        return;
    }
    let idx = combo.len();
    for &f in &finals_per_child[idx] {
        combo.push(f);
        seed_combos(children, finals_per_child, states, init, combo, tbox);
        combo.pop();
    }
    // A child whose automaton has no final state can never be satisfied;
    // the seed never fires, so nothing is emitted for this branch.
}

fn deny_combos(
    root_exprs: &[usize],
    finals_per_root: &[Vec<usize>],
    states: &FxHashMap<(usize, usize), NodeLabel>,
    combo: &mut Vec<usize>,
    tbox: &mut HornTbox,
) {
    if combo.len() == root_exprs.len() {
        let lhs =
            LabelSet::from_iter(combo.iter().zip(root_exprs).map(|(&f, &c)| states[&(c, f)].0));
        tbox.push(HornCi::Bottom { lhs });
        return;
    }
    let idx = combo.len();
    for &f in &finals_per_root[idx] {
        combo.push(f);
        deny_combos(root_exprs, finals_per_root, states, combo, tbox);
        combo.pop();
    }
}

/// Rolls up the negation `¬Q` of a Boolean acyclic UC2RPQ as a *set of
/// Horn TBoxes*: `¬Q` holds (together with other constraints) iff some
/// returned TBox is satisfied. Each TBox refutes one choice of component
/// per disjunct; the state labels of all components are pooled in the
/// second result.
pub fn rollup_negation(
    q: &Uc2rpq,
    vocab: &mut Vocab,
) -> Result<(Vec<HornTbox>, LabelSet), RollupError> {
    if !q.is_acyclic() {
        return Err(RollupError::NotAcyclic);
    }
    let mut all_states = LabelSet::new();
    // Per disjunct, the rolled-up TBox of each of its components.
    let mut per_disjunct: Vec<Vec<HornTbox>> = Vec::new();
    for (di, d) in q.disjuncts.iter().enumerate() {
        let mut comp_tboxes = Vec::new();
        for (ci, (vars, atom_idxs)) in d.connected_components().into_iter().enumerate() {
            let rolled = rollup_component(d, &vars, &atom_idxs, (di, ci), vocab)?;
            all_states.union_with(&rolled.state_labels);
            comp_tboxes.push(rolled.tbox);
        }
        if comp_tboxes.is_empty() {
            // A disjunct with no variables is the always-true query ⊤, so
            // ¬Q is unsatisfiable: the impossible TBox ⊤ ⊑ ⊥ (only the
            // empty graph satisfies it, and even there the disjunct holds;
            // P̂ ∧ ⊤⊑⊥ is then correctly unsatisfiable whenever P̂ needs a
            // node, and a node-free P̂ is contained in ⊤ anyway).
            let mut t = HornTbox::new();
            t.push(HornCi::Bottom { lhs: LabelSet::new() });
            comp_tboxes.push(t);
        }
        per_disjunct.push(comp_tboxes);
    }
    let num_choices: usize = per_disjunct.iter().map(|c| c.len()).product();
    if num_choices > MAX_CHOICES {
        return Err(RollupError::TooManyChoices);
    }
    // Cartesian product of component choices across disjuncts.
    let mut choices: Vec<HornTbox> = vec![HornTbox::new()];
    for comp_tboxes in &per_disjunct {
        let mut next = Vec::with_capacity(choices.len() * comp_tboxes.len());
        for base in &choices {
            for t in comp_tboxes {
                next.push(HornTbox::merged([base, t]));
            }
        }
        choices = next;
    }
    Ok((choices, all_states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_dl::datalog_satisfies;
    use gts_graph::Graph;
    use gts_query::Atom;

    /// Differential oracle: for every sampled graph G,
    /// `G ⊭ Q  iff  some choice-TBox is satisfied under its least
    /// valuation` (Lemma C.2).
    fn check_rollup_against_eval(q: &Uc2rpq, graphs: &[Graph], vocab: &mut Vocab) {
        let (choices, states) = rollup_negation(q, vocab).unwrap();
        for (gi, g) in graphs.iter().enumerate() {
            let not_q = !q.holds(g);
            let refuted = choices.iter().any(|t| datalog_satisfies(t, g, &states) == Some(true));
            assert_eq!(not_q, refuted, "rollup disagrees with evaluation on graph {gi}");
        }
    }

    fn example_c1(vocab: &mut Vocab) -> C2rpq {
        // Q0 = ∃x0..x3. (a·b*·c)(x2,x1) ∧ A(x1,x1) ∧ ε(x3,x1) ∧ a⁻(x1,x0)
        let a = vocab.edge_label("a");
        let b = vocab.edge_label("b");
        let c = vocab.edge_label("c");
        let la = vocab.node_label("A");
        C2rpq::new(
            4,
            vec![],
            vec![
                Atom {
                    x: Var(2),
                    y: Var(1),
                    regex: Regex::edge(a).then(Regex::edge(b).star()).then(Regex::edge(c)),
                },
                Atom { x: Var(1), y: Var(1), regex: Regex::node(la) },
                Atom { x: Var(3), y: Var(1), regex: Regex::Epsilon },
                Atom { x: Var(1), y: Var(0), regex: Regex::sym(gts_graph::EdgeSym::bwd(a)) },
            ],
        )
    }

    #[test]
    fn example_c1_rollup_matches_evaluation() {
        let mut vocab = Vocab::new();
        let q = example_c1(&mut vocab);
        assert!(q.is_acyclic());
        let a = vocab.find_edge_label("a").unwrap();
        let b = vocab.find_edge_label("b").unwrap();
        let c = vocab.find_edge_label("c").unwrap();
        let la = vocab.find_node_label("A").unwrap();

        // Graph 1: a path matching the query: x2 -a→ m -b→ m2 -c→ x1(A),
        // plus x0 with an a-edge x0 -a→ x1.
        let mut g1 = Graph::new();
        let x2 = g1.add_node();
        let m = g1.add_node();
        let m2 = g1.add_node();
        let x1 = g1.add_labeled_node([la]);
        let x0 = g1.add_node();
        g1.add_edge(x2, a, m);
        g1.add_edge(m, b, m2);
        g1.add_edge(m2, c, x1);
        g1.add_edge(x0, a, x1);

        // Graph 2: same but x1 lacks the A label.
        let mut g2 = Graph::new();
        let y2 = g2.add_node();
        let n = g2.add_node();
        let n2 = g2.add_node();
        let y1 = g2.add_node();
        let y0 = g2.add_node();
        g2.add_edge(y2, a, n);
        g2.add_edge(n, b, n2);
        g2.add_edge(n2, c, y1);
        g2.add_edge(y0, a, y1);

        // Graph 3: b-loop variant (b* with two steps).
        let mut g3 = g1.clone();
        let extra = g3.add_node();
        g3.add_edge(m2, b, extra);

        let u = Uc2rpq::single(example_c1(&mut vocab));
        assert!(u.holds(&g1));
        assert!(!u.holds(&g2));
        check_rollup_against_eval(&u, &[g1, g2, g3, Graph::new()], &mut vocab);
    }

    #[test]
    fn single_edge_query_rollup() {
        let mut vocab = Vocab::new();
        let r = vocab.edge_label("r");
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let mut g_yes = Graph::new();
        let n0 = g_yes.add_node();
        let n1 = g_yes.add_node();
        g_yes.add_edge(n0, r, n1);
        let mut g_no = Graph::new();
        g_no.add_node();
        check_rollup_against_eval(&q, &[g_yes, g_no, Graph::new()], &mut vocab);
    }

    #[test]
    fn pure_node_test_query_rollup() {
        // ∃x. A(x) ∧ B(x): two decorations at a single variable.
        let mut vocab = Vocab::new();
        let a = vocab.node_label("A");
        let b = vocab.node_label("B");
        let q = Uc2rpq::single(C2rpq::new(
            1,
            vec![],
            vec![
                Atom { x: Var(0), y: Var(0), regex: Regex::node(a) },
                Atom { x: Var(0), y: Var(0), regex: Regex::node(b) },
            ],
        ));
        let mut g_ab = Graph::new();
        g_ab.add_labeled_node([a, b]);
        let mut g_a = Graph::new();
        g_a.add_labeled_node([a]);
        let mut g_split = Graph::new();
        g_split.add_labeled_node([a]);
        g_split.add_labeled_node([b]);
        check_rollup_against_eval(&q, &[g_ab, g_a, g_split, Graph::new()], &mut vocab);
    }

    #[test]
    fn decorated_internal_variable() {
        // ∃x,y,z. r(x,y) ∧ A(y) ∧ s(y,z): decoration on an inner node.
        let mut vocab = Vocab::new();
        let r = vocab.edge_label("r");
        let s = vocab.edge_label("s");
        let a = vocab.node_label("A");
        let q = Uc2rpq::single(C2rpq::new(
            3,
            vec![],
            vec![
                Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) },
                Atom { x: Var(1), y: Var(1), regex: Regex::node(a) },
                Atom { x: Var(1), y: Var(2), regex: Regex::edge(s) },
            ],
        ));
        let build = |with_label: bool| {
            let mut g = Graph::new();
            let x = g.add_node();
            let y = if with_label { g.add_labeled_node([a]) } else { g.add_node() };
            let z = g.add_node();
            g.add_edge(x, r, y);
            g.add_edge(y, s, z);
            g
        };
        check_rollup_against_eval(&q, &[build(true), build(false)], &mut vocab);
    }

    #[test]
    fn union_rollup_conjoins_negations() {
        let mut vocab = Vocab::new();
        let r = vocab.edge_label("r");
        let s = vocab.edge_label("s");
        let q = Uc2rpq {
            disjuncts: vec![
                C2rpq::new(2, vec![], vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }]),
                C2rpq::new(2, vec![], vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(s) }]),
            ],
        };
        let mut g_r = Graph::new();
        let a = g_r.add_node();
        let b = g_r.add_node();
        g_r.add_edge(a, r, b);
        let mut g_s = Graph::new();
        let c = g_s.add_node();
        let d = g_s.add_node();
        g_s.add_edge(c, s, d);
        let mut g_none = Graph::new();
        g_none.add_node();
        check_rollup_against_eval(&q, &[g_r, g_s, g_none, Graph::new()], &mut vocab);
    }

    #[test]
    fn disconnected_query_produces_choices() {
        let mut vocab = Vocab::new();
        let r = vocab.edge_label("r");
        let s = vocab.edge_label("s");
        // Q = r(x0,x1) ∧ s(x2,x3): two components → two choices.
        let q = Uc2rpq::single(C2rpq::new(
            4,
            vec![],
            vec![
                Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) },
                Atom { x: Var(2), y: Var(3), regex: Regex::edge(s) },
            ],
        ));
        let (choices, states) = rollup_negation(&q, &mut vocab).unwrap();
        assert_eq!(choices.len(), 2);
        // Graph with only an r-edge: Q fails (no s-edge) → some choice
        // satisfied.
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, r, b);
        assert!(!q.holds(&g));
        assert!(choices.iter().any(|t| datalog_satisfies(t, &g, &states) == Some(true)));
        // Graph with both edges: Q holds → no choice satisfied.
        let mut g2 = Graph::new();
        let a2 = g2.add_node();
        let b2 = g2.add_node();
        let c2 = g2.add_node();
        let d2 = g2.add_node();
        g2.add_edge(a2, r, b2);
        g2.add_edge(c2, s, d2);
        assert!(q.holds(&g2));
        assert!(!choices.iter().any(|t| datalog_satisfies(t, &g2, &states) == Some(true)));
    }

    #[test]
    fn cyclic_query_is_rejected() {
        let mut vocab = Vocab::new();
        let r = vocab.edge_label("r");
        let q = Uc2rpq::single(C2rpq::new(
            1,
            vec![],
            vec![Atom { x: Var(0), y: Var(0), regex: Regex::edge(r) }],
        ));
        assert_eq!(rollup_negation(&q, &mut vocab).unwrap_err(), RollupError::NotAcyclic);
    }

    #[test]
    fn two_way_atoms_roll_up_via_reversal() {
        let mut vocab = Vocab::new();
        let r = vocab.edge_label("r");
        // Q = r⁻(x0, x1): an inverse edge from x0's perspective.
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::sym(gts_graph::EdgeSym::bwd(r)) }],
        ));
        let mut g = Graph::new();
        let n0 = g.add_node();
        let n1 = g.add_node();
        g.add_edge(n1, r, n0); // r⁻(n0, n1) holds
        check_rollup_against_eval(&q, &[g, Graph::new()], &mut vocab);
    }

    #[test]
    fn star_query_rollup_matches_evaluation_on_chains() {
        // Q = (r·s*)(x, y): unbounded witnessing paths.
        let mut vocab = Vocab::new();
        let r = vocab.edge_label("r");
        let s = vocab.edge_label("s");
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r).then(Regex::edge(s).star()) }],
        ));
        let mut graphs = Vec::new();
        for chain in 0..3 {
            let mut g = Graph::new();
            let mut cur = g.add_node();
            let nxt = g.add_node();
            g.add_edge(cur, r, nxt);
            cur = nxt;
            for _ in 0..chain {
                let nxt = g.add_node();
                g.add_edge(cur, s, nxt);
                cur = nxt;
            }
            graphs.push(g);
        }
        // An s-only chain does not match.
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, s, b);
        graphs.push(g);
        check_rollup_against_eval(&q, &graphs, &mut vocab);
    }
}
