//! The paper's three static analyses (Section 4, Appendix B), each a
//! polynomial Turing reduction to containment modulo schema:
//!
//! * [`label_coverage`] — `(T,S) ⊨ ⊤ ⊑ ⊔Γ_T` (Lemma B.6): every output
//!   node gets a label;
//! * [`type_check`] — Lemma B.2: `T(G) ⊨ S'` for all `G ⊨ S`;
//! * [`equivalence`] — Lemma B.8: `T1(G) = T2(G)` for all `G ⊨ S`;
//! * [`elicit_schema`] — Lemma B.5: the containment-minimal target schema.
//!
//! Every decision carries a `certified` flag inherited from the
//! containment engine (see DESIGN.md §3.2).

use crate::transform::{Rule, Transformation};
use gts_containment::{contains, ContainmentError, ContainmentOptions};
use gts_dl::{L0Kind, L0Statement, L0Tbox};
use gts_graph::{EdgeSym, FxHashMap, Graph, NodeLabel, Vocab};
use gts_query::{Atom, C2rpq, Regex, Uc2rpq, Var};
use gts_schema::Schema;

/// A two-valued answer with a certification flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The answer.
    pub holds: bool,
    /// `true` iff the answer is backed by exhaustive search certificates
    /// throughout the reduction.
    pub certified: bool,
}

impl Decision {
    fn and(self, other: Decision) -> Decision {
        Decision { holds: self.holds && other.holds, certified: self.certified && other.certified }
    }
}

/// Why an analysis could not produce an answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The transformation is ill-formed.
    Transform(crate::transform::TransformError),
    /// The containment engine rejected an instance.
    Containment(ContainmentError),
    /// Two transformations use one label's constructor with different
    /// arities (constructors are global per label).
    CtorArityMismatch(NodeLabel),
    /// Elicitation failed: some output graph has an unlabeled node, so no
    /// schema fits (Section 4).
    UnlabeledOutputs,
    /// Elicitation derived an incoherent statement set (only possible when
    /// uncertified sub-answers were wrong).
    IncoherentElicitation,
}

impl From<ContainmentError> for AnalysisError {
    fn from(e: ContainmentError) -> Self {
        AnalysisError::Containment(e)
    }
}

/// The containment-modulo-schema oracle every analysis bottoms out in.
///
/// All three analyses (and trimming) interrogate a *fixed source schema*
/// through exactly two questions: `P ⊆_S Q` and "is `q` satisfiable modulo
/// `S`". Abstracting them behind a trait lets the same analysis code run
/// against the direct decision procedure ([`DirectOracle`]) or a memoizing
/// session (`gts-engine`'s `AnalysisSession`) without change.
pub trait ContainmentOracle {
    /// Decides `p ⊆_S q` modulo the oracle's source schema.
    fn contains(&mut self, p: &Uc2rpq, q: &Uc2rpq) -> Result<Decision, ContainmentError>;

    /// Satisfiability of `q` modulo the source schema; returns
    /// `(satisfiable, certified)`. The default routes through
    /// [`ContainmentOracle::contains`] against the empty union, so caching
    /// oracles cover it for free.
    fn satisfiable(&mut self, q: &C2rpq) -> Result<(bool, bool), ContainmentError> {
        let d = self.contains(&Uc2rpq::single(q.clone()), &Uc2rpq::empty())?;
        Ok((!d.holds, d.certified))
    }
}

/// The cold-path oracle: every question runs the full decision procedure
/// of `gts-containment` (Booleanize → roll up → complete → decide), with
/// no state shared between questions.
pub struct DirectOracle<'a> {
    schema: &'a Schema,
    vocab: &'a mut Vocab,
    opts: &'a ContainmentOptions,
}

impl<'a> DirectOracle<'a> {
    /// An oracle answering questions modulo `schema`.
    pub fn new(schema: &'a Schema, vocab: &'a mut Vocab, opts: &'a ContainmentOptions) -> Self {
        DirectOracle { schema, vocab, opts }
    }
}

impl ContainmentOracle for DirectOracle<'_> {
    fn contains(&mut self, p: &Uc2rpq, q: &Uc2rpq) -> Result<Decision, ContainmentError> {
        let ans = contains(p, q, self.schema, self.vocab, self.opts)?;
        Ok(Decision { holds: ans.holds, certified: ans.certified })
    }
    // `satisfiable` uses the trait default, which is definitionally
    // `satisfiable_modulo_schema` — keeping one path guarantees warm and
    // cold agree.
}

/// Removes rules whose bodies are unsatisfiable modulo `S` (Appendix B:
/// transformations are w.l.o.g. *trimmed*). Returns the trimmed
/// transformation and a certification flag.
pub fn trim(
    t: &Transformation,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<(Transformation, bool), AnalysisError> {
    trim_with(t, &mut DirectOracle::new(s, vocab, opts))
}

/// [`trim`] against an arbitrary [`ContainmentOracle`].
pub fn trim_with(
    t: &Transformation,
    oracle: &mut dyn ContainmentOracle,
) -> Result<(Transformation, bool), AnalysisError> {
    let mut out = Transformation::new();
    let mut certified = true;
    for rule in &t.rules {
        let body = match rule {
            Rule::Node(r) => &r.body,
            Rule::Edge(r) => &r.body,
        };
        let (sat, cert) = oracle.satisfiable(body)?;
        certified &= cert;
        // An uncertified "unsatisfiable" must keep the rule (conservative).
        if sat || !cert {
            out.rules.push(rule.clone());
        }
    }
    Ok((out, certified))
}

/// Conjoins `qe` onto `qa`, identifying the first `shared` free variables
/// of `qe` with the free variables of `qa`. Returns the combined query
/// (free variables = `qa`'s) and the images of `qe`'s remaining free
/// variables.
fn conjoin(qa: &C2rpq, qe: &C2rpq, shared: usize) -> (C2rpq, Vec<Var>) {
    assert!(qa.free.len() >= shared && qe.free.len() >= shared);
    let mut map: FxHashMap<Var, Var> = FxHashMap::default();
    for j in 0..shared {
        map.insert(qe.free[j], qa.free[j]);
    }
    let mut next = qa.num_vars;
    let mut resolve = |v: Var, map: &mut FxHashMap<Var, Var>| -> Var {
        if let Some(&m) = map.get(&v) {
            return m;
        }
        let fresh = Var(next);
        next += 1;
        map.insert(v, fresh);
        fresh
    };
    let mut atoms = qa.atoms.clone();
    for a in &qe.atoms {
        let x = resolve(a.x, &mut map);
        let y = resolve(a.y, &mut map);
        atoms.push(Atom { x, y, regex: a.regex.clone() });
    }
    let tail: Vec<Var> = qe.free[shared..].iter().map(|&v| resolve(v, &mut map)).collect();
    (C2rpq::new(next, qa.free.clone(), atoms), tail)
}

/// Restricts a union's answer variables to the first `k` (the rest become
/// existential).
fn truncate_free(u: &Uc2rpq, k: usize) -> Uc2rpq {
    Uc2rpq {
        disjuncts: u
            .disjuncts
            .iter()
            .map(|d| C2rpq::new(d.num_vars, d.free[..k].to_vec(), d.atoms.clone()))
            .collect(),
    }
}

/// Lemma B.6: `(T,S) ⊨ ⊤ ⊑ ⊔Γ_T` iff
/// `∃ȳ.Q_{A,R,B}(x̄,ȳ) ⊆_S Q_A(x̄)` for all `A, B ∈ Γ_T`, `R ∈ Σ±_T`.
pub fn label_coverage(
    t: &Transformation,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<Decision, AnalysisError> {
    label_coverage_with(t, &mut DirectOracle::new(s, vocab, opts))
}

/// [`label_coverage`] against an arbitrary [`ContainmentOracle`].
pub fn label_coverage_with(
    t: &Transformation,
    oracle: &mut dyn ContainmentOracle,
) -> Result<Decision, AnalysisError> {
    let labels = t.node_labels();
    let mut decision = Decision { holds: true, certified: true };
    for &a in &labels {
        let k = t.ctor_arity(a).unwrap_or(0);
        let qa = t.q_node(a);
        for &edge in &t.edge_labels() {
            for sym in [EdgeSym::fwd(edge), EdgeSym::bwd(edge)] {
                for &b in &labels {
                    let qe = t.q_edge(a, sym, b);
                    if qe.disjuncts.is_empty() {
                        continue;
                    }
                    let lhs = truncate_free(&qe, k);
                    decision = decision.and(oracle.contains(&lhs, &qa)?);
                    if !decision.holds && decision.certified {
                        return Ok(decision);
                    }
                }
            }
        }
    }
    Ok(decision)
}

/// Lemma B.7, first form: `(T,S) ⊨ A ⊑ ∃R.B` iff
/// `Q_A(x̄) ⊆_S ∃ȳ.Q_{A,R,B}(x̄,ȳ)`.
fn stmt_exists(
    t: &Transformation,
    a: NodeLabel,
    r: EdgeSym,
    b: NodeLabel,
    oracle: &mut dyn ContainmentOracle,
) -> Result<Decision, AnalysisError> {
    let k = t.ctor_arity(a).unwrap_or(0);
    let qa = t.q_node(a);
    let rhs = truncate_free(&t.q_edge(a, r, b), k);
    Ok(oracle.contains(&qa, &rhs)?)
}

/// Lemma B.7, second form: `(T,S) ⊨ A ⊑ ∄R.B` iff
/// `∃ȳ.Q_A(x̄) ∧ Q_{A,R,B}(x̄,ȳ)` is unsatisfiable modulo `S`.
fn stmt_not_exists(
    t: &Transformation,
    a: NodeLabel,
    r: EdgeSym,
    b: NodeLabel,
    oracle: &mut dyn ContainmentOracle,
) -> Result<Decision, AnalysisError> {
    let k = t.ctor_arity(a).unwrap_or(0);
    let qa = t.q_node(a);
    let qe = t.q_edge(a, r, b);
    let mut disjuncts = Vec::new();
    for da in &qa.disjuncts {
        for de in &qe.disjuncts {
            let (mut c, _) = conjoin(da, de, k);
            c.free.clear(); // Boolean emptiness test
            disjuncts.push(c);
        }
    }
    let lhs = Uc2rpq { disjuncts };
    Ok(oracle.contains(&lhs, &Uc2rpq::empty())?)
}

/// Lemma B.7, third form: `(T,S) ⊨ A ⊑ ∃≤1 R.B` iff
/// `∃x̄.Q_A(x̄) ∧ Q_{A,R,B}(x̄,ȳ) ∧ Q_{A,R,B}(x̄,z̄) ⊆_S ⋀_i ε(ȳ_i, z̄_i)`
/// (injective constructors make tuple equality the right notion).
fn stmt_at_most_one(
    t: &Transformation,
    a: NodeLabel,
    r: EdgeSym,
    b: NodeLabel,
    oracle: &mut dyn ContainmentOracle,
) -> Result<Decision, AnalysisError> {
    let k = t.ctor_arity(a).unwrap_or(0);
    let m = t.ctor_arity(b).unwrap_or(0);
    let qa = t.q_node(a);
    let qe = t.q_edge(a, r, b);
    let mut disjuncts = Vec::new();
    for da in &qa.disjuncts {
        for d1 in &qe.disjuncts {
            for d2 in &qe.disjuncts {
                let (c1, ys) = conjoin(da, d1, k);
                let (mut c2, zs) = conjoin(&c1, d2, k);
                c2.free = ys.iter().chain(zs.iter()).copied().collect();
                disjuncts.push(c2);
            }
        }
    }
    let lhs = Uc2rpq { disjuncts };
    // RHS: ⋀_i ε(y_i, z_i) over 2m answer variables.
    let eps_atoms: Vec<Atom> = (0..m)
        .map(|i| Atom { x: Var(i as u32), y: Var((m + i) as u32), regex: Regex::Epsilon })
        .collect();
    let rhs =
        Uc2rpq::single(C2rpq::new((2 * m) as u32, (0..2 * m as u32).map(Var).collect(), eps_atoms));
    Ok(oracle.contains(&lhs, &rhs)?)
}

/// Lemma B.2: type checking. `T(G)` conforms to `S'` for every `G ⊨ S` iff
/// `Γ_T ⊆ Γ_{S'}`, `Σ_T ⊆ Σ_{S'}`, `(T,S) ⊨ ⊤⊑⊔Γ_T`, and `(T,S) ⊨ T_{S'}`.
pub fn type_check(
    t: &Transformation,
    s: &Schema,
    s_prime: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<Decision, AnalysisError> {
    type_check_with(t, s_prime, &mut DirectOracle::new(s, vocab, opts))
}

/// [`type_check`] against an arbitrary [`ContainmentOracle`] (whose source
/// schema plays the role of `S`).
pub fn type_check_with(
    t: &Transformation,
    s_prime: &Schema,
    oracle: &mut dyn ContainmentOracle,
) -> Result<Decision, AnalysisError> {
    t.validate().map_err(AnalysisError::Transform)?;
    let (t, trim_cert) = trim_with(t, oracle)?;
    let mut decision = Decision { holds: true, certified: trim_cert };

    // Head labels must be allowed by the target schema.
    if !t.node_labels().iter().all(|l| s_prime.has_node_label(*l))
        || !t.edge_labels().iter().all(|l| s_prime.has_edge_label(*l))
    {
        return Ok(Decision { holds: false, certified: decision.certified });
    }

    // Every output node must get (exactly one) label.
    let cover = label_coverage_with(&t, oracle)?;
    decision = decision.and(cover);
    if !decision.holds {
        return Ok(decision);
    }

    // (T,S) ⊨ T_{S'}: check each L0 statement via Lemma B.7; statements
    // whose lhs label is never constructed are vacuous.
    let gamma_t = t.node_labels();
    for stmt in &s_prime.to_l0().stmts {
        if !gamma_t.contains(&stmt.lhs) {
            continue;
        }
        let d = match stmt.kind {
            L0Kind::Exists => stmt_exists(&t, stmt.lhs, stmt.role, stmt.rhs, oracle)?,
            L0Kind::NotExists => stmt_not_exists(&t, stmt.lhs, stmt.role, stmt.rhs, oracle)?,
            L0Kind::AtMostOne => stmt_at_most_one(&t, stmt.lhs, stmt.role, stmt.rhs, oracle)?,
        };
        decision = decision.and(d);
        if !decision.holds && decision.certified {
            return Ok(decision);
        }
    }
    Ok(decision)
}

/// Lemma B.8: equivalence of two transformations modulo a source schema.
pub fn equivalence(
    t1: &Transformation,
    t2: &Transformation,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<Decision, AnalysisError> {
    equivalence_with(t1, t2, &mut DirectOracle::new(s, vocab, opts))
}

/// [`equivalence`] against an arbitrary [`ContainmentOracle`].
pub fn equivalence_with(
    t1: &Transformation,
    t2: &Transformation,
    oracle: &mut dyn ContainmentOracle,
) -> Result<Decision, AnalysisError> {
    t1.validate().map_err(AnalysisError::Transform)?;
    t2.validate().map_err(AnalysisError::Transform)?;
    // Constructors are global: arities must agree on shared labels.
    for l in t1.node_labels() {
        if let (Some(a1), Some(a2)) = (t1.ctor_arity(l), t2.ctor_arity(l)) {
            if a1 != a2 {
                return Err(AnalysisError::CtorArityMismatch(l));
            }
        }
    }
    let (t1, c1) = trim_with(t1, oracle)?;
    let (t2, c2) = trim_with(t2, oracle)?;
    let mut decision = Decision { holds: true, certified: c1 && c2 };

    // (1) Same head labels after trimming.
    if t1.node_labels() != t2.node_labels() || t1.edge_labels() != t2.edge_labels() {
        return Ok(Decision { holds: false, certified: decision.certified });
    }
    // (2) Q_A equivalent for every node label.
    let both = |p: &Uc2rpq,
                q: &Uc2rpq,
                oracle: &mut dyn ContainmentOracle|
     -> Result<Decision, AnalysisError> {
        let fwd = oracle.contains(p, q)?;
        let bwd = oracle.contains(q, p)?;
        Ok(fwd.and(bwd))
    };
    for a in t1.node_labels() {
        decision = decision.and(both(&t1.q_node(a), &t2.q_node(a), oracle)?);
        if !decision.holds && decision.certified {
            return Ok(decision);
        }
    }
    // (3) Q_{A,r,B} equivalent for every head edge label (forward symbols
    // suffice: the inverse groupings are the same rule sets reordered).
    for a in t1.node_labels() {
        for r in t1.edge_labels() {
            for b in t1.node_labels() {
                let qa = t1.q_edge(a, EdgeSym::fwd(r), b);
                let qb = t2.q_edge(a, EdgeSym::fwd(r), b);
                if qa.disjuncts.is_empty() && qb.disjuncts.is_empty() {
                    continue;
                }
                decision = decision.and(both(&qa, &qb, oracle)?);
                if !decision.holds && decision.certified {
                    return Ok(decision);
                }
            }
        }
    }
    Ok(decision)
}

/// A verified counterexample for a failed transformation analysis: an
/// input graph conforming to the source schema on which the property
/// visibly fails.
#[derive(Clone, Debug)]
pub struct AnalysisCounterexample {
    /// The input graph `G ⊨ S`.
    pub input: Graph,
    /// The transformation output `T(G)` (for type checking: the graph
    /// violating the target schema; for equivalence: `T1(G)`).
    pub output: Graph,
}

/// Searches (by random sampling of conforming inputs) for a verified
/// counterexample to type checking: a `G ⊨ S` with `T(G) ⊭ S'`. Returns
/// only verified witnesses; `None` means none was found within `samples`
/// attempts — which does *not* prove type checking succeeds (use
/// [`type_check`] for that).
pub fn type_check_counterexample<R: rand::Rng>(
    t: &Transformation,
    s: &Schema,
    s_prime: &Schema,
    samples: usize,
    size_per_label: usize,
    rng: &mut R,
) -> Option<AnalysisCounterexample> {
    for _ in 0..samples {
        let g = gts_schema::random_conforming_graph(s, size_per_label, 3, rng)?;
        let out = t.apply(&g);
        if s_prime.conforms(&out).is_err() {
            return Some(AnalysisCounterexample { input: g, output: out });
        }
    }
    None
}

/// Searches (by random sampling) for a verified counterexample to
/// equivalence: a `G ⊨ S` on which the two transformations' output *fact
/// sets* differ ([`Transformation::output_facts`]). `None` does not prove
/// equivalence (use [`equivalence`]).
pub fn equivalence_counterexample<R: rand::Rng>(
    t1: &Transformation,
    t2: &Transformation,
    s: &Schema,
    samples: usize,
    size_per_label: usize,
    rng: &mut R,
) -> Option<AnalysisCounterexample> {
    for _ in 0..samples {
        let g = gts_schema::random_conforming_graph(s, size_per_label, 3, rng)?;
        if t1.output_facts(&g) != t2.output_facts(&g) {
            let output = t1.apply(&g);
            return Some(AnalysisCounterexample { input: g, output });
        }
    }
    None
}

/// The result of schema elicitation.
#[derive(Clone, Debug)]
pub struct Elicited {
    /// The containment-minimal target schema over `(Γ_T, Σ_T)`.
    pub schema: Schema,
    /// `true` iff every entailment test was certified.
    pub certified: bool,
}

/// Lemma B.5: elicits the containment-minimal target schema capturing
/// `{T(G) | G ⊨ S}`. Errors with [`AnalysisError::UnlabeledOutputs`] when
/// some output node would carry no label.
pub fn elicit_schema(
    t: &Transformation,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<Elicited, AnalysisError> {
    elicit_schema_with(t, &mut DirectOracle::new(s, vocab, opts))
}

/// [`elicit_schema`] against an arbitrary [`ContainmentOracle`].
pub fn elicit_schema_with(
    t: &Transformation,
    oracle: &mut dyn ContainmentOracle,
) -> Result<Elicited, AnalysisError> {
    t.validate().map_err(AnalysisError::Transform)?;
    let (t, trim_cert) = trim_with(t, oracle)?;
    let mut certified = trim_cert;

    let cover = label_coverage_with(&t, oracle)?;
    certified &= cover.certified;
    if !cover.holds {
        return Err(AnalysisError::UnlabeledOutputs);
    }

    let gamma = t.node_labels();
    let sigma = t.edge_labels();
    let mut l0 = L0Tbox::new();
    for &a in &gamma {
        for &r in &sigma {
            for sym in [EdgeSym::fwd(r), EdgeSym::bwd(r)] {
                for &b in &gamma {
                    let ex = stmt_exists(&t, a, sym, b, oracle)?;
                    let nx = stmt_not_exists(&t, a, sym, b, oracle)?;
                    let am = stmt_at_most_one(&t, a, sym, b, oracle)?;
                    certified &= ex.certified && nx.certified && am.certified;
                    if ex.holds {
                        l0.insert(L0Statement { lhs: a, kind: L0Kind::Exists, role: sym, rhs: b });
                    }
                    if nx.holds {
                        l0.insert(L0Statement {
                            lhs: a,
                            kind: L0Kind::NotExists,
                            role: sym,
                            rhs: b,
                        });
                    }
                    if am.holds {
                        l0.insert(L0Statement {
                            lhs: a,
                            kind: L0Kind::AtMostOne,
                            role: sym,
                            rhs: b,
                        });
                    }
                }
            }
        }
    }
    let schema =
        Schema::from_l0(&l0, &gamma, &sigma).ok_or(AnalysisError::IncoherentElicitation)?;
    Ok(Elicited { schema, certified })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::medical_transformation;
    use gts_schema::Mult;

    /// The schemas S0 and S1 of Figure 1.
    pub fn medical_schemas(v: &mut Vocab) -> (Schema, Schema) {
        let vaccine = v.node_label("Vaccine");
        let antigen = v.node_label("Antigen");
        let pathogen = v.node_label("Pathogen");
        let dt = v.edge_label("designTarget");
        let cr = v.edge_label("crossReacting");
        let ex = v.edge_label("exhibits");
        let targets = v.edge_label("targets");
        let mut s0 = Schema::new();
        s0.set_edge(vaccine, dt, antigen, Mult::One, Mult::Star);
        s0.set_edge(antigen, cr, antigen, Mult::Star, Mult::Star);
        s0.set_edge(pathogen, ex, antigen, Mult::Plus, Mult::Star);
        let mut s1 = Schema::new();
        s1.set_edge(vaccine, dt, antigen, Mult::One, Mult::Star);
        s1.set_edge(vaccine, targets, antigen, Mult::Plus, Mult::Star);
        s1.set_edge(pathogen, ex, antigen, Mult::Plus, Mult::Star);
        (s0, s1)
    }

    fn opts() -> ContainmentOptions {
        ContainmentOptions::default()
    }

    #[test]
    fn example_4_4_label_coverage_holds() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let (s0, _) = medical_schemas(&mut v);
        let d = label_coverage(&t, &s0, &mut v, &opts()).unwrap();
        assert!(d.holds, "T0 labels every constructed node");
        assert!(d.certified);
    }

    #[test]
    fn coverage_fails_with_unlabeled_targets() {
        // An edge rule constructing nodes of a label with no node rule.
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let b = v.node_label("B");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let unary =
            C2rpq::new(1, vec![Var(0)], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }]);
        let binary = C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        );
        let mut t = Transformation::new();
        t.add_node_rule(a, unary);
        t.add_edge_rule(r, (a, 1), (b, 1), binary); // B-nodes never labeled
        let d = label_coverage(&t, &s, &mut v, &opts()).unwrap();
        assert!(!d.holds);
        assert!(d.certified);
        // Elicitation therefore errors.
        assert_eq!(
            elicit_schema(&t, &s, &mut v, &opts()).unwrap_err(),
            AnalysisError::UnlabeledOutputs
        );
    }

    #[test]
    fn example_1_1_type_check_t0_against_s1() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let (s0, s1) = medical_schemas(&mut v);
        let d = type_check(&t, &s0, &s1, &mut v, &opts()).unwrap();
        assert!(d.holds, "T0 outputs conform to the evolved schema S1");
        assert!(d.certified);
    }

    #[test]
    fn type_check_fails_against_source_schema() {
        // T0's outputs have `targets` edges, which S0 forbids.
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let (s0, _) = medical_schemas(&mut v);
        let d = type_check(&t, &s0, &s0, &mut v, &opts()).unwrap();
        assert!(!d.holds);
    }

    #[test]
    fn type_check_fails_with_wrong_multiplicity() {
        // Strengthen S1: every vaccine targets exactly one antigen — false,
        // cross-reaction can add more.
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let (s0, mut s1) = medical_schemas(&mut v);
        let vaccine = v.find_node_label("Vaccine").unwrap();
        let antigen = v.find_node_label("Antigen").unwrap();
        let targets = v.find_edge_label("targets").unwrap();
        s1.set_edge(vaccine, targets, antigen, Mult::One, Mult::Star);
        let d = type_check(&t, &s0, &s1, &mut v, &opts()).unwrap();
        assert!(!d.holds, "targets is not functional under cross-reaction");
    }

    #[test]
    fn equivalence_is_reflexive_and_detects_difference() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let (s0, _) = medical_schemas(&mut v);
        let d = equivalence(&t, &t, &s0, &mut v, &opts()).unwrap();
        assert!(d.holds && d.certified);

        // Drop the `targets` rule: no longer equivalent.
        let mut t2 = t.clone();
        t2.rules.remove(3);
        let d2 = equivalence(&t, &t2, &s0, &mut v, &opts()).unwrap();
        assert!(!d2.holds);
    }

    #[test]
    fn equivalence_modulo_schema_can_collapse_rules() {
        // Over a schema where crossReacting is forbidden, designTarget and
        // designTarget·crossReacting* are equivalent bodies.
        let mut v = Vocab::new();
        let vaccine = v.node_label("Vaccine");
        let antigen = v.node_label("Antigen");
        let dt = v.edge_label("designTarget");
        let cr = v.edge_label("crossReacting");
        let targets = v.edge_label("targets");
        let mut s = Schema::new();
        s.set_edge(vaccine, dt, antigen, Mult::One, Mult::Star);
        s.add_edge_label(cr); // declared but forbidden
        let unary = |l: NodeLabel| {
            C2rpq::new(1, vec![Var(0)], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(l) }])
        };
        let binary = |re: Regex| {
            C2rpq::new(2, vec![Var(0), Var(1)], vec![Atom { x: Var(0), y: Var(1), regex: re }])
        };
        let mut t1 = Transformation::new();
        t1.add_node_rule(vaccine, unary(vaccine))
            .add_node_rule(antigen, unary(antigen))
            .add_edge_rule(targets, (vaccine, 1), (antigen, 1), binary(Regex::edge(dt)));
        let mut t2 = Transformation::new();
        t2.add_node_rule(vaccine, unary(vaccine))
            .add_node_rule(antigen, unary(antigen))
            .add_edge_rule(
                targets,
                (vaccine, 1),
                (antigen, 1),
                binary(Regex::edge(dt).then(Regex::edge(cr).star())),
            );
        let d = equivalence(&t1, &t2, &s, &mut v, &opts()).unwrap();
        assert!(d.holds, "cross-reaction is vacuous when the schema forbids it");
        assert!(d.certified);
    }

    #[test]
    fn example_4_5_elicited_schema_requires_targets() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let (s0, s1) = medical_schemas(&mut v);
        let e = elicit_schema(&t, &s0, &mut v, &opts()).unwrap();
        assert!(e.certified);
        let vaccine = v.find_node_label("Vaccine").unwrap();
        let antigen = v.find_node_label("Antigen").unwrap();
        let targets = v.find_edge_label("targets").unwrap();
        let dt = v.find_edge_label("designTarget").unwrap();
        // Example 4.5: Vaccine ⊑ ∃targets.Antigen is entailed.
        assert!(
            e.schema.mult(vaccine, EdgeSym::fwd(targets), antigen).min_count() >= 1,
            "every vaccine targets at least one antigen:\n{}",
            e.schema.render(&v)
        );
        // designTarget stays functional.
        assert_eq!(e.schema.mult(vaccine, EdgeSym::fwd(dt), antigen), Mult::One);
        // The elicited schema is contained in the evolved schema S1
        // (minimality: it is at least as tight).
        assert!(e.schema.contains_in(&s1), "elicited:\n{}", e.schema.render(&v));
    }

    #[test]
    fn trim_removes_unsatisfiable_rules() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let b = v.node_label("B");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        s.add_node_label(b);
        let good =
            C2rpq::new(1, vec![Var(0)], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }]);
        // B-nodes have no r-edges under S: body unsatisfiable.
        let bad = C2rpq::new(
            2,
            vec![Var(0)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::node(b).then(Regex::edge(r)) }],
        );
        let mut t = Transformation::new();
        t.add_node_rule(a, good);
        t.add_node_rule(a, bad);
        let (trimmed, certified) = trim(&t, &s, &mut v, &opts()).unwrap();
        assert!(certified);
        assert_eq!(trimmed.rules.len(), 1);
    }
}
