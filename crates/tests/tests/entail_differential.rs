//! The completion's entailment questions answered two ways: by the
//! canonical-model fixpoint the sweep uses (`HornFixpoint`) and by the
//! engine deciding the Corollary E.7 encodings, which this file keeps as
//! the oracle:
//!
//! * `T ⊨ K ⊑ ∃R.K'` iff `∃x.(K·B)(x,x)` is unsatisfiable modulo
//!   `T ∪ {K' ⊑ ∀R⁻.B', B⊓B' ⊑ ⊥}`;
//! * `T ⊨ K ⊑ ∃≤1 R.K'` iff `K(x) ∧ R·(K'·B)(x,y) ∧ R·(K'·B')(x,z)` is
//!   unsatisfiable modulo `T ∪ {B⊓B' ⊑ ⊥}`,
//!
//! with `B`, `B'` fresh. Every question a completion round's sweep asks —
//! over every round of the six corpus families' questions, and over the
//! random TBoxes of `solver_cache.rs` — must get equal answers wherever the
//! engine is certain. The fixpoint must settle every question; the count
//! of questions the engine leaves `Unknown` is printed.
//!
//! The engine decides through the same canonical-model fixpoint, but on
//! another TBox and another query shape, so the two answers are not one
//! computation. Where the fixpoint answers "not entailed" and the engine
//! "entailed", a finite model search (`finite_model`, independent of
//! both) looks for a countermodel; such questions are counted as refuted
//! engine answers, and there must be none. The same search checks every
//! certified `Unsat` the engine gives a seed label of a converged corpus
//! completion.
//!
//! The same rounds check the completion's layering: every completion the
//! corpus runs over a prepared `T̂_{S°}`, and the random TBoxes split into
//! a prepared base and an overlay, must complete exactly as the flat
//! merged TBox does over an empty base — the same rounds in the same
//! order, the same `T*` CI for CI, the same flags, and the same verdicts.

use gts_core::containment::{
    complete, complete_over, record_rounds, Completion, CompletionConfig, PreparedTbox, Round,
};
use gts_core::prelude::*;
use gts_core::sat::{decide_in_ctx, HornFixpoint, TypeUniverse, Verdict};
use gts_corpus::{scenario, Expectation, Family, Params};
use gts_engine::AnalysisSession;
use gts_graph::{FxHashMap, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::OnceLock;

fn set(labels: &[u32]) -> LabelSet {
    LabelSet::from_iter(labels.iter().copied())
}

/// The Corollary E.7 encodings over one TBox, one engine fixpoint per
/// extended TBox (`(R, K')` for `∃`, one for at-most).
struct Oracle {
    /// The TBox with the clash `B ⊓ B' ⊑ ⊥` pushed onto it.
    clashed: HornTbox,
    fresh: (NodeLabel, NodeLabel),
    budget: Budget,
    exists_ctxs: FxHashMap<(EdgeSym, LabelSet), HornFixpoint>,
    at_most_ctx: Option<HornFixpoint>,
}

impl Oracle {
    /// `fresh` must occur neither in `t` nor in any asked label set.
    fn new(t: &HornTbox, fresh: (NodeLabel, NodeLabel)) -> Self {
        let mut clashed = t.clone();
        clashed.push(HornCi::Bottom { lhs: LabelSet::from_iter([fresh.0 .0, fresh.1 .0]) });
        Oracle {
            clashed,
            fresh,
            budget: Budget::default(),
            exists_ctxs: FxHashMap::default(),
            at_most_ctx: None,
        }
    }

    fn tests(set: &LabelSet) -> Regex {
        Regex::concat_all(set.iter().map(|l| Regex::node(NodeLabel(l))))
    }

    /// `Some(entailed)`, or `None` when the engine is not certain.
    fn answer(ctx: &mut HornFixpoint, q: &C2rpq, budget: &Budget) -> Option<bool> {
        match decide_in_ctx(ctx, q, budget) {
            Verdict::Unsat => Some(true),
            Verdict::Sat(_) => Some(false),
            Verdict::Unknown(_) => None,
        }
    }

    fn exists(&mut self, k: &LabelSet, role: EdgeSym, kp: &LabelSet) -> Option<bool> {
        let (b, b2) = self.fresh;
        let mut tests = k.clone();
        tests.insert(b.0);
        let q =
            C2rpq::new(1, vec![], vec![Atom { x: Var(0), y: Var(0), regex: Self::tests(&tests) }]);
        let ctx = self.exists_ctxs.entry((role, kp.clone())).or_insert_with(|| {
            let mut t = self.clashed.clone();
            t.push(HornCi::AllValues { lhs: kp.clone(), role: role.inv(), rhs: set(&[b2.0]) });
            HornFixpoint::new(TypeUniverse::new(&t), &self.budget)
        });
        Self::answer(ctx, &q, &self.budget)
    }

    fn at_most(&mut self, k: &LabelSet, role: EdgeSym, kp: &LabelSet) -> Option<bool> {
        let step = |marker: NodeLabel| {
            let mut tgt = kp.clone();
            tgt.insert(marker.0);
            Regex::sym(role).then(Self::tests(&tgt))
        };
        let q = C2rpq::new(
            3,
            vec![],
            vec![
                Atom { x: Var(0), y: Var(0), regex: Self::tests(k) },
                Atom { x: Var(0), y: Var(1), regex: step(self.fresh.0) },
                Atom { x: Var(0), y: Var(2), regex: step(self.fresh.1) },
            ],
        );
        let ctx = self.at_most_ctx.get_or_insert_with(|| {
            HornFixpoint::new(TypeUniverse::new(&self.clashed), &self.budget)
        });
        Self::answer(ctx, &q, &self.budget)
    }
}

#[derive(Default, Debug)]
struct Tally {
    rounds: usize,
    questions: usize,
    /// Questions the engine left `Unknown` (and the fixpoint decided).
    engine_unknown: usize,
    /// Questions the fixpoint left unsettled.
    fixpoint_unsettled: usize,
    /// Certain engine answers a finite countermodel refutes.
    engine_refuted: usize,
}

/// A finite model of `t` with at most `max_nodes` nodes that extends `g`
/// and keeps `goal`, found by chasing `t` over `g` with a choice at each
/// unmet `∃`-CI: an existing node (tried first) or a fresh one becomes the
/// witness. Labels and edges only grow, so a violated universal CI or
/// goal prunes the branch. `steps` bounds the search.
fn finite_model(
    t: &HornTbox,
    mut g: Graph,
    max_nodes: usize,
    goal: &dyn Fn(&Graph) -> bool,
    steps: &mut usize,
) -> Option<Graph> {
    if *steps == 0 {
        return None;
    }
    *steps -= 1;
    if !chase_universal(t, &mut g) || !goal(&g) {
        return None;
    }
    let unmet = t.cis.iter().find_map(|ci| {
        let HornCi::Exists { lhs, role, rhs } = ci else { return None };
        g.nodes().find_map(|n| {
            let met = g.successors(n, *role).any(|m| rhs.is_subset(g.labels(m)));
            (lhs.is_subset(g.labels(n)) && !met).then_some((n, *role, rhs.clone()))
        })
    });
    let Some((n, role, rhs)) = unmet else {
        assert!(t.check_graph(&g).is_ok(), "the search returns models only");
        return Some(g);
    };
    let fresh = (g.num_nodes() < max_nodes).then_some(NodeId(g.num_nodes() as u32));
    for w in g.nodes().chain(fresh) {
        let mut h = g.clone();
        if Some(w) == fresh {
            h.add_node();
        }
        h.add_label_set(w, &rhs);
        if role.inverse {
            h.add_edge(w, role.label, n);
        } else {
            h.add_edge(n, role.label, w);
        }
        if let Some(model) = finite_model(t, h, max_nodes, goal, steps) {
            return Some(model);
        }
    }
    None
}

/// Closes `g` under the `K ⊑ A` and `∀` CIs of `t`; `false` when a `⊥`,
/// `∄` or at-most CI is violated (it stays violated as `g` grows).
fn chase_universal(t: &HornTbox, g: &mut Graph) -> bool {
    loop {
        let mut grew = false;
        for ci in &t.cis {
            for n in g.nodes().collect::<Vec<_>>() {
                if !ci.lhs().is_subset(g.labels(n)) {
                    continue;
                }
                let counted = |role: EdgeSym, rhs: &LabelSet, g: &Graph| {
                    g.successors(n, role).filter(|&m| rhs.is_subset(g.labels(m))).count()
                };
                match ci {
                    HornCi::SubAtom { rhs, .. } => grew |= g.add_label(n, *rhs),
                    HornCi::AllValues { role, rhs, .. } => {
                        for m in g.successors(n, *role).collect::<Vec<_>>() {
                            grew |= !rhs.is_subset(g.labels(m));
                            g.add_label_set(m, rhs);
                        }
                    }
                    HornCi::Bottom { .. } => return false,
                    HornCi::NotExists { role, rhs, .. } if counted(*role, rhs, g) > 0 => {
                        return false
                    }
                    HornCi::AtMostOne { role, rhs, .. } if counted(*role, rhs, g) > 1 => {
                        return false
                    }
                    _ => {}
                }
            }
        }
        if !grew {
            return true;
        }
    }
}

/// A finite countermodel to the engine's "entailed": a model of `t` where
/// a `K`-node has no `R`-neighbour covering `K'` (`at_most` false), or two
/// distinct ones (`at_most` true).
fn refutes_engine(t: &HornTbox, k: &LabelSet, role: EdgeSym, kp: &LabelSet, at_most: bool) -> bool {
    let mut g = Graph::new();
    let x = g.add_node();
    g.add_label_set(x, k);
    let mut steps = 200_000;
    if at_most {
        for _ in 0..2 {
            let y = g.add_node();
            g.add_label_set(y, kp);
            if role.inverse {
                g.add_edge(y, role.label, x);
            } else {
                g.add_edge(x, role.label, y);
            }
        }
        finite_model(t, g, 5, &|_| true, &mut steps).is_some()
    } else {
        let goal = |g: &Graph| !g.successors(x, role).any(|m| kp.is_subset(g.labels(m)));
        finite_model(t, g, 4, &goal, &mut steps).is_some()
    }
}

/// `K ⊑ ∃R.K'` (`false`) or `K ⊑ ∃≤1 R.K'` (`true`).
type Question<'a> = (&'a LabelSet, EdgeSym, &'a LabelSet, bool);

/// Asks every question of one round's sweep both ways: `K ⊑ ∃R.K'` for
/// every pair of `nodes` and every role with an `∃`-CI, then
/// `K' ⊑ ∃≤1 R⁻.K` wherever the first holds.
fn check_round(t: &HornTbox, nodes: &[LabelSet]) -> Tally {
    let mut tally = Tally { rounds: 1, ..Tally::default() };
    let mut used = t.used_labels();
    for n in nodes {
        used.union_with(n);
    }
    let top = used.iter().max().map_or(0, |l| l + 1);
    let mut oracle = Oracle::new(t, (NodeLabel(top), NodeLabel(top + 1)));
    let mut fixpoint = HornFixpoint::new(TypeUniverse::new(t), &Budget::default());
    let mut compare = |fix: Result<bool, _>, engine: Option<bool>, question: Question| {
        tally.questions += 1;
        let Ok(fix) = fix else {
            tally.fixpoint_unsettled += 1;
            return None;
        };
        match engine {
            Some(true)
                if !fix && refutes_engine(t, question.0, question.1, question.2, question.3) =>
            {
                tally.engine_refuted += 1
            }
            Some(engine) => assert_eq!(fix, engine, "round {:?}: {question:?}", t.cis),
            None => tally.engine_unknown += 1,
        }
        Some(fix)
    };
    let roles: Vec<EdgeSym> = t
        .used_roles()
        .into_iter()
        .filter(|&r| t.cis.iter().any(|ci| matches!(ci, HornCi::Exists { role, .. } if *role == r)))
        .collect();
    for k in nodes {
        for &role in &roles {
            for kp in nodes {
                let fwd = compare(
                    fixpoint.entails_exists(k, role, kp),
                    oracle.exists(k, role, kp),
                    (k, role, kp, false),
                );
                if fwd == Some(true) {
                    compare(
                        fixpoint.entails_at_most_one(kp, role.inv(), k),
                        oracle.at_most(kp, role.inv(), k),
                        (kp, role.inv(), k, true),
                    );
                }
            }
        }
    }
    tally
}

/// The distinct rounds among `rounds`.
fn distinct<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> Vec<&'a Round> {
    let mut seen = HashSet::new();
    rounds.into_iter().filter(|r| seen.insert((r.tbox.cis.clone(), r.nodes.clone()))).collect()
}

/// [`check_round`] over every round, fanned out, summed.
fn check_rounds(rounds: &[&Round]) -> Tally {
    gts_obs::par::map(rounds, |r| check_round(&r.tbox, &r.nodes)).into_iter().fold(
        Tally::default(),
        |a, b| Tally {
            rounds: a.rounds + b.rounds,
            questions: a.questions + b.questions,
            engine_unknown: a.engine_unknown + b.engine_unknown,
            fixpoint_unsettled: a.fixpoint_unsettled + b.fixpoint_unsettled,
            engine_refuted: a.engine_refuted + b.engine_refuted,
        },
    )
}

/// Every round of every completion the corpus families' questions run:
/// each pinned type-check and equivalence, and the elicitation of each
/// primary transform. Recorded once for the tests that share it.
fn corpus_rounds() -> &'static [Round] {
    static ROUNDS: OnceLock<Vec<Round>> = OnceLock::new();
    ROUNDS.get_or_init(|| {
        // Each family on its own thread, recording the rounds it runs there.
        let rounds = gts_obs::par::map(Family::ALL, |family| {
            record_rounds(|| {
                let sc = scenario(family, &Params::quick());
                let session = |source: &str| {
                    AnalysisSession::new(sc.schema(source).unwrap().clone(), sc.vocab.clone())
                };
                for exp in &sc.expectations {
                    match exp {
                        Expectation::TypeCheck { transform, source, target, .. } => {
                            let t = sc.transform(transform).unwrap();
                            let _ = session(source).type_check(t, sc.schema(target).unwrap());
                        }
                        Expectation::Equivalence { left, right, source, .. } => {
                            let (l, r) =
                                (sc.transform(left).unwrap(), sc.transform(right).unwrap());
                            let _ = session(source).equivalence(l, r);
                        }
                    }
                }
                let t = sc.transform(&sc.primary.transform).unwrap();
                let _ = session(&sc.primary.source).elicit(t);
            })
            .1
        });
        rounds.into_iter().flatten().collect()
    })
}

/// Every corpus round's sweep questions, asked both ways. Rounds repeated
/// across questions are asked once.
#[test]
fn corpus_rounds_agree_with_the_e7_encodings() {
    let tally = check_rounds(&distinct(corpus_rounds()));
    println!("corpus: {tally:?}");
    assert!(tally.rounds > 0 && tally.questions > 0);
    assert_eq!(tally.engine_refuted, 0, "on the corpus the engine and the fixpoint agree");
    assert_eq!(tally.fixpoint_unsettled, 0, "the fixpoint settles every corpus question");
}

/// Every converged completion of the corpus — the last round of each
/// recorded completion, whose TBox is its `T*` — asked `∃x.A(x)` for each
/// seed label `A`. A certified `Unsat` must survive a finite model search
/// of `T*` (at most 4 nodes, from one `A`-node): such a model would be a
/// finite model of the completed TBox with an `A`-node, refuting it.
#[test]
fn corpus_seed_label_refutations_have_no_small_model() {
    let rounds = corpus_rounds();
    let next_index = rounds.iter().skip(1).map(|r| r.index).chain([0]);
    let mut seen = HashSet::new();
    let finals: Vec<&Round> = rounds
        .iter()
        .zip(next_index)
        .filter(|(r, next)| {
            *next == 0 && seen.insert((r.tbox.cis.clone(), r.schema_labels.clone()))
        })
        .map(|(r, _)| r)
        .collect();
    let max_rounds = CompletionConfig::default().max_rounds;
    assert!(finals.iter().all(|r| r.index + 1 < max_rounds), "every corpus completion converges");
    let budget = Budget::default();
    let tallies = gts_obs::par::map(&finals, |round| {
        let mut fixpoint = HornFixpoint::new(TypeUniverse::new(&round.tbox), &budget);
        let (mut asked, mut refuted, mut unknown) = (0, 0, 0);
        for l in round.schema_labels.iter() {
            let q = C2rpq::new(
                1,
                vec![],
                vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(NodeLabel(l)) }],
            );
            asked += 1;
            match decide_in_ctx(&mut fixpoint, &q, &budget) {
                Verdict::Unsat => {
                    refuted += 1;
                    let mut g = Graph::new();
                    g.add_labeled_node([NodeLabel(l)]);
                    let mut steps = 20_000;
                    let model = finite_model(&round.tbox, g, 4, &|_| true, &mut steps);
                    assert!(model.is_none(), "∃x.{l}(x) has a finite model of {:?}", round.tbox);
                }
                Verdict::Unknown(_) => unknown += 1,
                Verdict::Sat(_) => {}
            }
        }
        (asked, refuted, unknown)
    });
    let (asked, refuted, unknown) =
        tallies.into_iter().fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    println!(
        "corpus: {} converged completions, {asked} seed labels, {refuted} certified unsatisfiable \
         (none with a model of at most 4 nodes), {unknown} unknown",
        finals.len()
    );
    assert!(asked > 0);
}

/// A random Horn TBox as in `solver_cache.rs`: every CI kind, inverse
/// roles, conjunctions of up to two names.
fn random_tbox<R: Rng>(num_labels: u32, num_roles: u32, num_cis: usize, rng: &mut R) -> HornTbox {
    let label = |rng: &mut R| rng.gen_range(0..num_labels);
    let conj = |rng: &mut R| -> LabelSet {
        let n = rng.gen_range(0..=2);
        LabelSet::from_iter((0..n).map(|_| rng.gen_range(0..num_labels)))
    };
    let role = |rng: &mut R| {
        let r = EdgeLabel(rng.gen_range(0..num_roles));
        if rng.gen_bool(0.3) {
            EdgeSym::bwd(r)
        } else {
            EdgeSym::fwd(r)
        }
    };
    let mut t = HornTbox::new();
    for _ in 0..num_cis {
        t.push(match rng.gen_range(0..6) {
            0 => HornCi::SubAtom { lhs: conj(rng), rhs: NodeLabel(label(rng)) },
            1 => HornCi::Bottom { lhs: set(&[label(rng), label(rng)]) },
            2 => HornCi::AllValues { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
            3 => HornCi::Exists { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
            4 => HornCi::NotExists { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
            _ => HornCi::AtMostOne { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
        });
    }
    t
}

/// Every round of the completions of `solver_cache.rs`'s random TBoxes
/// (its seeds 100..130), and of more seeds of the same shape.
#[test]
fn random_tbox_rounds_agree_with_the_e7_encodings() {
    let (_, rounds) = record_rounds(|| {
        for seed in 100..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let tbox = random_tbox(4, 2, rng.gen_range(3..9), &mut rng);
            complete(&tbox, &set(&[0, 1, 2, 3]), &Budget::default(), &CompletionConfig::default());
        }
    });
    let tally = check_rounds(&distinct(&rounds));
    println!("random TBoxes: {tally:?}");
    println!("random TBoxes: the engine left {} questions unknown", tally.engine_unknown);
    assert_eq!(tally.fixpoint_unsettled, 0, "the fixpoint settles every random question");
    assert_eq!(tally.engine_refuted, 0, "no finite countermodel refutes an engine answer");
}

/// Completes the input of `round` (a round 0) twice: layered over its
/// base prepared, and flat over an empty base. Both must run the same
/// rounds (TBox and types), reach the same `T*` in the same CI order with
/// the same flags, and give the same verdict on `∃x.A(x)` for every seed
/// label `A`. Returns how many rounds the completion ran.
fn layered_matches_flat(round: &Round) -> usize {
    let (budget, cfg) = (Budget::default(), CompletionConfig::default());
    let (labels, base_len) = (&round.schema_labels, round.base);
    let base = PreparedTbox::new(&HornTbox { cis: round.tbox.cis[..base_len].to_vec() });
    let overlay = HornTbox { cis: round.tbox.cis[base_len..].to_vec() };
    let (layered, layered_rounds) =
        record_rounds(|| complete_over(&base, overlay, labels, &budget, &cfg, 1));
    let (flat, flat_rounds) = record_rounds(|| complete(&round.tbox, labels, &budget, &cfg));
    let shape = |rounds: &[Round]| -> Vec<(Vec<HornCi>, usize, Vec<LabelSet>)> {
        rounds.iter().map(|r| (r.tbox.cis.clone(), r.index, r.nodes.clone())).collect()
    };
    assert_eq!(shape(&layered_rounds), shape(&flat_rounds), "the rounds differ");
    assert_eq!(base.merged(&layered.tbox), flat.tbox, "T* differs");
    assert_eq!((layered.added, layered.complete), (flat.added, flat.complete));
    let verdicts = |c: Completion| {
        let mut ctx = HornFixpoint::new(c.universe, &budget);
        let verdict = |l: u32| {
            let q = C2rpq::new(
                1,
                vec![],
                vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(NodeLabel(l)) }],
            );
            format!("{:?}", decide_in_ctx(&mut ctx, &q, &budget))
        };
        labels.iter().map(verdict).collect::<Vec<_>>()
    };
    assert_eq!(verdicts(layered), verdicts(flat), "the verdicts differ");
    flat_rounds.len()
}

/// Every completion the corpus runs, re-run layered and flat.
#[test]
fn corpus_completions_layered_match_flat() {
    let mut seen = HashSet::new();
    let inputs: Vec<&Round> = corpus_rounds()
        .iter()
        .filter(|r| {
            r.index == 0 && seen.insert((r.tbox.cis.clone(), r.base, r.schema_labels.clone()))
        })
        .collect();
    assert!(inputs.iter().all(|r| r.base > 0), "every corpus completion runs over T̂_S");
    let rounds: usize = gts_obs::par::map(&inputs, |r| layered_matches_flat(r)).into_iter().sum();
    println!("corpus: {} completions, {rounds} rounds, layered = flat", inputs.len());
}

/// The random TBoxes of the round check, each split at every point into
/// a prepared base and an overlay.
#[test]
fn random_completions_layered_match_flat() {
    let mut completions = 0;
    for seed in 100..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let tbox = random_tbox(4, 2, rng.gen_range(3..9), &mut rng);
        for split in 0..=tbox.len() {
            let base = PreparedTbox::new(&HornTbox { cis: tbox.cis[..split].to_vec() });
            let overlay = base.overlay([&HornTbox { cis: tbox.cis[split..].to_vec() }]);
            let round = Round {
                tbox: base.merged(&overlay),
                base: base.len(),
                schema_labels: set(&[0, 1, 2, 3]),
                index: 0,
                nodes: Vec::new(),
            };
            layered_matches_flat(&round);
            completions += 1;
        }
    }
    println!("random TBoxes: {completions} completions, layered = flat");
}

/// `⊤ ⊑ A, A ⊑ ∃r.(B⊓C), A⊓C ⊑ ∃r⁻.(A⊓C), A⊓C ⊑ ∃≤1 r.(A⊓C)` has the
/// one-node model `{A, B, C}` with an `r`-loop. A `C`-node's
/// `∃r⁻`-witness must take the `C`-node itself as its `∃r`-witness, which
/// then gains `B`: a witness merging into a neighbour that grows. The
/// engine, which fixed its neighbours' types before it decided through
/// the canonical-model fixpoint, certified `∃x.A(x)` unsatisfiable here.
#[test]
fn sat_engine_finds_the_one_node_model() {
    let r = EdgeSym::fwd(EdgeLabel(0));
    let [a, b, c] = [0, 1, 2];
    let mut t = HornTbox::new();
    t.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: NodeLabel(a) });
    t.push(HornCi::Exists { lhs: set(&[a]), role: r, rhs: set(&[b, c]) });
    t.push(HornCi::Exists { lhs: set(&[a, c]), role: r.inv(), rhs: set(&[a, c]) });
    t.push(HornCi::AtMostOne { lhs: set(&[a, c]), role: r, rhs: set(&[a, c]) });
    let mut model = Graph::new();
    let n = model.add_labeled_node([a, b, c].map(NodeLabel));
    model.add_edge(n, EdgeLabel(0), n);
    assert!(t.check_graph(&model).is_ok(), "the one-node model");
    let q = C2rpq::new(
        1,
        vec![],
        vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(NodeLabel(a)) }],
    );
    assert!(gts_core::sat::decide(&t, &q, &Budget::default()).is_sat(), "∃x.A(x) has a model");
    // The fixpoint: A is satisfiable, with an r-successor {A, B, C}.
    let mut fix = HornFixpoint::new(TypeUniverse::new(&t), &Budget::default());
    assert_eq!(fix.entails_exists(&set(&[a]), r, &set(&[a, b, c])), Ok(true));
    assert_eq!(fix.entails_exists(&set(&[a]), r.inv(), &LabelSet::new()), Ok(false));
    assert!(refutes_engine(&t, &set(&[a]), r.inv(), &LabelSet::new(), false));
}

/// The three shapes plain saturation (the engine's old realizability
/// check) got wrong, each against the oracle too: the engine decides all
/// three.
#[test]
fn saturation_gaps_match_the_oracle() {
    let r = EdgeSym::fwd(EdgeLabel(0));
    let fresh = (NodeLabel(20), NodeLabel(21));
    let ask = |t: &HornTbox| {
        (HornFixpoint::new(TypeUniverse::new(t), &Budget::default()), Oracle::new(t, fresh))
    };

    // Inverse at-most: A ⊑ ∃r.B, B ⊑ ∃r⁻.D, B ⊑ ∃≤1 r⁻.⊤, A⊓D ⊑ G,
    // G ⊑ ∀r.E ⊨ A ⊑ ∃r.(B⊓E).
    let [a, b, d, g, e] = [0, 1, 2, 3, 4];
    let mut t = HornTbox::new();
    t.push(HornCi::Exists { lhs: set(&[a]), role: r, rhs: set(&[b]) });
    t.push(HornCi::Exists { lhs: set(&[b]), role: r.inv(), rhs: set(&[d]) });
    t.push(HornCi::AtMostOne { lhs: set(&[b]), role: r.inv(), rhs: LabelSet::new() });
    t.push(HornCi::SubAtom { lhs: set(&[a, d]), rhs: NodeLabel(g) });
    t.push(HornCi::AllValues { lhs: set(&[g]), role: r, rhs: set(&[e]) });
    let (mut fix, mut oracle) = ask(&t);
    assert_eq!(fix.entails_exists(&set(&[a]), r, &set(&[b, e])), Ok(true));
    assert_eq!(oracle.exists(&set(&[a]), r, &set(&[b, e])), Some(true));

    // Functional merge: A ⊑ ∃r.B, A ⊑ ∃r.C, A ⊑ ∃≤1 r.⊤ ⊨ A ⊑ ∃r.(B⊓C).
    let [a, b, c] = [0, 1, 2];
    let mut t = HornTbox::new();
    t.push(HornCi::Exists { lhs: set(&[a]), role: r, rhs: set(&[b]) });
    t.push(HornCi::Exists { lhs: set(&[a]), role: r, rhs: set(&[c]) });
    t.push(HornCi::AtMostOne { lhs: set(&[a]), role: r, rhs: LabelSet::new() });
    let (mut fix, mut oracle) = ask(&t);
    assert_eq!(fix.entails_exists(&set(&[a]), r, &set(&[b, c])), Ok(true));
    assert_eq!(oracle.exists(&set(&[a]), r, &set(&[b, c])), Some(true), "the engine merges");

    // Joint at-most: B ⊑ ∀r⁻.M, M ⊑ ∃≤1 r.B ⊨ A ⊑ ∃≤1 r.B.
    let [a, b, m] = [0, 1, 2];
    let mut t = HornTbox::new();
    t.push(HornCi::AllValues { lhs: set(&[b]), role: r.inv(), rhs: set(&[m]) });
    t.push(HornCi::AtMostOne { lhs: set(&[m]), role: r, rhs: set(&[b]) });
    let (mut fix, mut oracle) = ask(&t);
    assert_eq!(fix.entails_at_most_one(&set(&[a]), r, &set(&[b])), Ok(true));
    assert_eq!(oracle.at_most(&set(&[a]), r, &set(&[b])), Some(true));
}
