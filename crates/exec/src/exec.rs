//! The rule executor: indexed C2RPQ evaluation and whole-transformation
//! execution with per-rule parallelism.
//!
//! Rule bodies are evaluated atom-by-atom into [`Relation`]s (one
//! product-BFS each over the atom's Glushkov automaton) and joined
//! by backtracking with bitset candidate intersection. A
//! [`Transformation`] is executed by evaluating all rule bodies — in
//! shards over [`gts_obs::par`], the one fan-out every parallel section
//! shares — and assembling the output graph single-threaded in rule
//! order, so the result is deterministic regardless of thread count.

use crate::index::IndexedGraph;
use crate::rpq::{NodeCol, Relation};
use gts_core::{Rule, Transformation};
use gts_graph::{EdgeLabel, FxHashMap, FxHashSet, Graph, NodeId, NodeLabel};
use gts_query::{C2rpq, Nfa, Uc2rpq};
use std::collections::BTreeSet;

/// A node fact `A(f_A(t̄))` over constructor keys.
pub type NodeFact = (NodeLabel, Vec<NodeId>);
/// An edge fact `r(f(t̄), f'(t̄'))` over constructor keys.
pub type EdgeFact = (NodeFact, EdgeLabel, NodeFact);

/// Execution options.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Shards for rule-body evaluation. `0` (the default) deals the rules
    /// into one shard per core once the estimated work (`rules × (nodes +
    /// edges)`) clears this host's measured cutoff, and runs inline below
    /// it, where fanning out costs more than the evaluation saves. `1`
    /// runs inline; `n` deals the rules into `n` shards (at most one per
    /// rule). Shards run on the caller plus the extra threads
    /// [`gts_obs::par`]'s process-wide budget has free.
    pub threads: usize,
}

/// Floor of the measured sharding cutoff: roughly "a multi-rule
/// transformation over a ≥2k-element instance".
pub const DEFAULT_MIN_PARALLEL_WORK: usize = 8_192;

/// This host's sharding crossover, measured once per process in a few
/// milliseconds: the estimated work (`rules × elements`) below which
/// sharding cannot recoup its fan-out overhead (with a 2× safety margin),
/// clamped to `[DEFAULT_MIN_PARALLEL_WORK, 2^22]`. On a single-core host
/// auto mode never shards, so the figure goes unread there.
fn min_parallel_work() -> usize {
    static CELL: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CELL.get_or_init(|| {
        let cores = gts_obs::par::cores();
        // Cost of one full-width map of empty shards.
        let spawn_overhead_micros = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                gts_obs::par::map(0..cores, std::hint::black_box);
                t0.elapsed().as_micros() as u64
            })
            .min()
            .unwrap_or(0);
        // Synthetic chain: `A · r` over a labeled 4k-node chain — a
        // linear-time single-atom evaluation whose cost per element
        // approximates the executor's scan-dominated regime.
        let n: usize = 4_096;
        let mut vocab = gts_graph::Vocab::new();
        let a = vocab.node_label("CalibA");
        let r = vocab.edge_label("calib_r");
        let mut g = Graph::new();
        let first = g.add_labeled_node([a]);
        let mut prev = first;
        for _ in 1..n {
            let next = g.add_labeled_node([a]);
            g.add_edge(prev, r, next);
            prev = next;
        }
        let idx = IndexedGraph::build(&g);
        let q = C2rpq::new(
            2,
            vec![gts_query::Var(0), gts_query::Var(1)],
            vec![gts_query::Atom {
                x: gts_query::Var(0),
                y: gts_query::Var(1),
                regex: gts_query::Regex::node(a).then(gts_query::Regex::edge(r)),
            }],
        );
        let eval_nanos = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                std::hint::black_box(eval_c2rpq(&idx, &q));
                t0.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap_or(0);
        let elements = (g.num_nodes() + g.num_edges()) as f64;
        let eval_nanos_per_element = (eval_nanos as f64 / elements).max(0.1);
        // Sharding across c cores saves ~work·t_elem·(1 − 1/c) and costs
        // the spawn overhead; cut over at twice the break-even point.
        let saved_frac = 1.0 - 1.0 / cores.max(2) as f64;
        let break_even =
            (spawn_overhead_micros as f64 * 1_000.0) / (eval_nanos_per_element * saved_frac);
        ((2.0 * break_even) as usize).clamp(DEFAULT_MIN_PARALLEL_WORK, 1 << 22)
    })
}

/// Evaluates a C2RPQ over the index, returning the sorted, deduplicated
/// answer tuples (aligned with [`C2rpq::free`]). Agrees with
/// [`C2rpq::eval`] on every graph (the property suites enforce this).
pub fn eval_c2rpq(idx: &IndexedGraph, q: &C2rpq) -> Vec<Vec<NodeId>> {
    let rels: Vec<Relation> =
        q.atoms.iter().map(|a| Relation::build(idx, &Nfa::from_regex(&a.regex))).collect();
    eval_c2rpq_with(idx, q, &rels.iter().collect::<Vec<_>>())
}

/// [`eval_c2rpq`] over pre-built atom relations (one reference per atom,
/// so the incremental engine can share one relation between rules) — the
/// entry point that patches relations in place instead of rebuilding them
/// per evaluation.
pub(crate) fn eval_c2rpq_with(
    idx: &IndexedGraph,
    q: &C2rpq,
    rels: &[&Relation],
) -> Vec<Vec<NodeId>> {
    if rels.iter().any(|r| r.is_empty()) && !q.atoms.is_empty() {
        return Vec::new();
    }
    // Fast paths for single-atom bodies whose answer tuple is exactly the
    // atom's endpoints — the shape of every copy and rewire rule. The
    // relation already is the (distinct) answer set; skip the join.
    if let [a] = q.atoms.as_slice() {
        let rel = &rels[0];
        if a.x != a.y && q.num_vars == 2 {
            if q.free == [a.x, a.y] {
                return rel.iter_pairs().map(|(u, v)| vec![u, v]).collect();
            }
            if q.free == [a.y, a.x] {
                let mut out: Vec<Vec<NodeId>> = rel.iter_pairs().map(|(u, v)| vec![v, u]).collect();
                out.sort();
                return out;
            }
            if q.free.is_empty() {
                return vec![Vec::new()]; // non-empty relation: ∃x,y. φ(x,y)
            }
        }
        if a.x == a.y && q.num_vars == 1 {
            let mut diagonal = rel.src_support().iter().filter(|&u| rel.contains(u, u));
            if q.free == [a.x] {
                return diagonal.map(|u| vec![NodeId(u)]).collect();
            }
            if q.free.is_empty() {
                return if diagonal.next().is_some() { vec![Vec::new()] } else { Vec::new() };
            }
        }
    }
    let mut answers: FxHashSet<Vec<NodeId>> = FxHashSet::default();
    let mut asg: Vec<Option<u32>> = vec![None; q.num_vars as usize];
    backtrack(idx, q, rels, 0, &mut asg, &mut answers);
    let mut out: Vec<Vec<NodeId>> = answers.into_iter().collect();
    out.sort();
    out
}

fn backtrack(
    idx: &IndexedGraph,
    q: &C2rpq,
    rels: &[&Relation],
    var: u32,
    asg: &mut Vec<Option<u32>>,
    answers: &mut FxHashSet<Vec<NodeId>>,
) {
    if var == q.num_vars {
        answers
            .insert(q.free.iter().map(|v| NodeId(asg[v.0 as usize].expect("assigned"))).collect());
        return;
    }
    // Candidate narrowing: atoms connecting `var` to an already-assigned
    // variable contribute their (sorted CSR) relation column; every other
    // atom touching `var` contributes its column-support bitset (a value
    // with no pair in some touching relation can never extend). The
    // shortest column seeds the domain; the rest filter it.
    let mut columns: Vec<&[u32]> = Vec::new();
    let mut supports: Vec<&NodeCol> = Vec::new();
    for (i, a) in q.atoms.iter().enumerate() {
        if a.x.0 == var {
            if a.y.0 < var {
                columns.push(rels[i].sources_of(asg[a.y.0 as usize].expect("assigned")));
            } else {
                supports.push(rels[i].src_support());
            }
        }
        if a.y.0 == var {
            if a.x.0 < var {
                columns.push(rels[i].targets_of(asg[a.x.0 as usize].expect("assigned")));
            } else {
                supports.push(rels[i].tgt_support());
            }
        }
    }
    let domain: Vec<u32> = if let Some(seed) = columns.iter().min_by_key(|c| c.len()).copied() {
        seed.iter()
            .copied()
            .filter(|&v| {
                columns.iter().all(|c| std::ptr::eq(*c, seed) || c.binary_search(&v).is_ok())
                    && supports.iter().all(|s| s.contains(v))
            })
            .collect()
    } else if !supports.is_empty() {
        let (first, rest) = supports.split_first().expect("non-empty");
        first.iter().filter(|&v| rest.iter().all(|s| s.contains(v))).collect()
    } else {
        idx.all_nodes().iter().collect()
    };
    'outer: for node in domain {
        asg[var as usize] = Some(node);
        // Validate exactly the atoms whose last endpoint is `var` —
        // earlier atoms were validated when their own last endpoint was
        // assigned and have not changed since.
        for (i, a) in q.atoms.iter().enumerate() {
            if a.x.0.max(a.y.0) == var {
                let (ux, uy) = (
                    asg[a.x.0 as usize].expect("assigned"),
                    asg[a.y.0 as usize].expect("assigned"),
                );
                if !rels[i].contains(ux, uy) {
                    asg[var as usize] = None;
                    continue 'outer;
                }
            }
        }
        backtrack(idx, q, rels, var + 1, asg, answers);
        asg[var as usize] = None;
    }
}

/// Union evaluation: sorted, deduplicated answers across all disjuncts.
pub fn eval_uc2rpq(idx: &IndexedGraph, u: &Uc2rpq) -> Vec<Vec<NodeId>> {
    let mut out: BTreeSet<Vec<NodeId>> = BTreeSet::new();
    for q in &u.disjuncts {
        out.extend(eval_c2rpq(idx, q));
    }
    out.into_iter().collect()
}

/// Evaluates every rule body of `t` over the index; returns one sorted
/// tuple list per rule, in rule order. This is the parallel section of
/// [`execute_with`]: rules are dealt round-robin into shards that share
/// only the immutable index.
pub fn eval_rule_bodies(
    idx: &IndexedGraph,
    t: &Transformation,
    opts: &ExecOptions,
) -> Vec<Vec<Vec<NodeId>>> {
    let _span = gts_obs::span("rule_eval");
    let start = gts_obs::enabled().then(std::time::Instant::now);
    let out = eval_rule_bodies_inner(idx, t, opts);
    if let Some(t0) = start {
        phase_metrics().rule_eval.record(t0.elapsed().as_micros() as u64);
    }
    out
}

fn eval_rule_bodies_inner(
    idx: &IndexedGraph,
    t: &Transformation,
    opts: &ExecOptions,
) -> Vec<Vec<Vec<NodeId>>> {
    let bodies: Vec<&C2rpq> = t
        .rules
        .iter()
        .map(|rule| match rule {
            Rule::Node(r) => &r.body,
            Rule::Edge(r) => &r.body,
        })
        .collect();
    let instance_size = idx.num_nodes() + idx.num_edges();
    let shards = gts_obs::par::shards(opts.threads, || {
        bodies.len().saturating_mul(instance_size.max(1)) >= min_parallel_work()
    });
    gts_obs::par::map_dealt(bodies, shards, |shard| {
        shard.into_iter().map(|body| eval_c2rpq(idx, body)).collect()
    })
}

/// Executes the transformation over a pre-built index.
pub fn execute_indexed(idx: &IndexedGraph, t: &Transformation, opts: &ExecOptions) -> Graph {
    let per_rule = eval_rule_bodies(idx, t, opts);
    assemble(t, &per_rule)
}

/// Executes `t` on `g` through the indexed engine with explicit options.
pub fn execute_with(t: &Transformation, g: &Graph, opts: &ExecOptions) -> Graph {
    execute_indexed(&IndexedGraph::build(g), t, opts)
}

/// Executes `t` on `g` through the indexed engine with default options
/// (automatic thread count). Produces a graph equal to
/// [`Transformation::apply`] up to constructed-node renaming; compare via
/// [`output_facts`] / [`Transformation::output_facts`].
pub fn execute(t: &Transformation, g: &Graph) -> Graph {
    execute_with(t, g, &ExecOptions::default())
}

/// Assembles the output graph from per-rule tuples, in rule order with
/// sorted tuples — fully deterministic. Unary constructors (the common
/// case: copy rules) are interned through a dedicated map with an inline
/// key, avoiding one heap allocation per constructed-node lookup.
pub(crate) fn assemble(t: &Transformation, per_rule: &[Vec<Vec<NodeId>>]) -> Graph {
    let _span = gts_obs::span("assembly");
    let start = gts_obs::enabled().then(std::time::Instant::now);
    let out = assemble_inner(t, per_rule);
    if let Some(t0) = start {
        phase_metrics().assembly.record(t0.elapsed().as_micros() as u64);
    }
    out
}

/// The per-phase latency histograms of the executor, resolved once
/// (`gts_exec_phase_micros{phase=…}` in the global registry).
pub(crate) struct PhaseMetrics {
    pub(crate) index_build: gts_obs::Histogram,
    pub(crate) rule_eval: gts_obs::Histogram,
    pub(crate) assembly: gts_obs::Histogram,
    pub(crate) index_patch: gts_obs::Histogram,
    pub(crate) delta_apply: gts_obs::Histogram,
}

pub(crate) fn phase_metrics() -> &'static PhaseMetrics {
    static CELLS: std::sync::OnceLock<PhaseMetrics> = std::sync::OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = gts_obs::global();
        let name = "gts_exec_phase_micros";
        let help = "Executor phase latency (index build/patch, rule evaluation, assembly, delta)";
        PhaseMetrics {
            index_build: reg.histogram(name, help, &[("phase", "index_build")]),
            rule_eval: reg.histogram(name, help, &[("phase", "rule_eval")]),
            assembly: reg.histogram(name, help, &[("phase", "assembly")]),
            index_patch: reg.histogram(name, help, &[("phase", "index_patch")]),
            delta_apply: reg.histogram(name, help, &[("phase", "delta_apply")]),
        }
    })
}

fn assemble_inner(t: &Transformation, per_rule: &[Vec<Vec<NodeId>>]) -> Graph {
    let mut out = Graph::new();
    let total: usize = per_rule.iter().map(Vec::len).sum();
    let mut ctor1: FxHashMap<(NodeLabel, NodeId), NodeId> = FxHashMap::default();
    let mut ctorn: FxHashMap<(NodeLabel, Vec<NodeId>), NodeId> = FxHashMap::default();
    ctor1.reserve(total);
    let mut construct = |out: &mut Graph, label: NodeLabel, args: &[NodeId]| -> NodeId {
        match args {
            [arg] => *ctor1.entry((label, *arg)).or_insert_with(|| out.add_node()),
            _ => *ctorn.entry((label, args.to_vec())).or_insert_with(|| out.add_node()),
        }
    };
    for (rule, tuples) in t.rules.iter().zip(per_rule) {
        match rule {
            Rule::Node(r) => {
                for tuple in tuples {
                    let node = construct(&mut out, r.label, tuple);
                    out.add_label(node, r.label);
                }
            }
            Rule::Edge(r) => {
                for tuple in tuples {
                    let (x, y) = tuple.split_at(r.src_arity);
                    let src = construct(&mut out, r.src_label, x);
                    let tgt = construct(&mut out, r.tgt_label, y);
                    out.add_edge(src, r.edge, tgt);
                }
            }
        }
    }
    out
}

/// Executes the transformation over a pre-built index, returning both
/// the output graph and its canonical facts while evaluating each rule
/// body only once (what the differential harness wants per instance).
pub fn execute_and_facts(
    idx: &IndexedGraph,
    t: &Transformation,
    opts: &ExecOptions,
) -> (Graph, (BTreeSet<NodeFact>, BTreeSet<EdgeFact>)) {
    let per_rule = eval_rule_bodies(idx, t, opts);
    (assemble(t, &per_rule), facts_of(t, &per_rule))
}

/// The output of `t` on the indexed graph as canonical facts over
/// constructor keys — directly comparable with
/// [`Transformation::output_facts`], which is how the differential
/// harness checks indexed-vs-naive agreement and output equality.
pub fn output_facts(
    idx: &IndexedGraph,
    t: &Transformation,
    opts: &ExecOptions,
) -> (BTreeSet<NodeFact>, BTreeSet<EdgeFact>) {
    let per_rule = eval_rule_bodies(idx, t, opts);
    facts_of(t, &per_rule)
}

/// Canonical facts of pre-evaluated rule tuples.
fn facts_of(
    t: &Transformation,
    per_rule: &[Vec<Vec<NodeId>>],
) -> (BTreeSet<NodeFact>, BTreeSet<EdgeFact>) {
    let mut nodes = BTreeSet::new();
    let mut edges = BTreeSet::new();
    for (rule, tuples) in t.rules.iter().zip(per_rule) {
        match rule {
            Rule::Node(r) => {
                for tuple in tuples {
                    nodes.insert((r.label, tuple.clone()));
                }
            }
            Rule::Edge(r) => {
                for tuple in tuples {
                    let (x, y) = tuple.split_at(r.src_arity);
                    edges.insert(((r.src_label, x.to_vec()), r.edge, (r.tgt_label, y.to_vec())));
                }
            }
        }
    }
    (nodes, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_core::medical_transformation;
    use gts_graph::Vocab;
    use gts_query::{Atom, Regex, Var};

    fn medical_graph(v: &mut Vocab) -> Graph {
        let vaccine = v.node_label("Vaccine");
        let antigen = v.node_label("Antigen");
        let pathogen = v.node_label("Pathogen");
        let dt = v.edge_label("designTarget");
        let cr = v.edge_label("crossReacting");
        let ex = v.edge_label("exhibits");
        let mut g = Graph::new();
        let vac = g.add_labeled_node([vaccine]);
        let a1 = g.add_labeled_node([antigen]);
        let a2 = g.add_labeled_node([antigen]);
        let a3 = g.add_labeled_node([antigen]);
        let p = g.add_labeled_node([pathogen]);
        g.add_edge(vac, dt, a1);
        g.add_edge(a1, cr, a2);
        g.add_edge(a2, cr, a3);
        g.add_edge(p, ex, a1);
        g.add_edge(p, ex, a2);
        g.add_edge(p, ex, a3);
        g
    }

    #[test]
    fn eval_agrees_with_naive_on_example_3_2() {
        let mut v = Vocab::new();
        let g = medical_graph(&mut v);
        let vaccine = v.find_node_label("Vaccine").unwrap();
        let antigen = v.find_node_label("Antigen").unwrap();
        let dt = v.find_edge_label("designTarget").unwrap();
        let cr = v.find_edge_label("crossReacting").unwrap();
        let re = Regex::node(vaccine)
            .then(Regex::edge(dt))
            .then(Regex::edge(cr).star())
            .then(Regex::node(antigen));
        let q = C2rpq::new(2, vec![Var(0), Var(1)], vec![Atom { x: Var(0), y: Var(1), regex: re }]);
        let idx = IndexedGraph::build(&g);
        let indexed = eval_c2rpq(&idx, &q);
        let naive: BTreeSet<Vec<NodeId>> = q.eval(&g).into_iter().collect();
        assert_eq!(indexed, naive.into_iter().collect::<Vec<_>>());
        assert_eq!(indexed.len(), 3);
    }

    #[test]
    fn multi_atom_join_agrees_with_naive() {
        let mut v = Vocab::new();
        let g = medical_graph(&mut v);
        let pathogen = v.find_node_label("Pathogen").unwrap();
        let ex = v.find_edge_label("exhibits").unwrap();
        let cr = v.find_edge_label("crossReacting").unwrap();
        // q(x, z) = ∃y. Pathogen(x) ∧ exhibits(x, y) ∧ crossReacting(y, z)
        let q = C2rpq::new(
            3,
            vec![Var(0), Var(2)],
            vec![
                Atom { x: Var(0), y: Var(0), regex: Regex::node(pathogen) },
                Atom { x: Var(0), y: Var(1), regex: Regex::edge(ex) },
                Atom { x: Var(1), y: Var(2), regex: Regex::edge(cr) },
            ],
        );
        let idx = IndexedGraph::build(&g);
        let indexed = eval_c2rpq(&idx, &q);
        let mut naive: Vec<Vec<NodeId>> = q.eval(&g).into_iter().collect();
        naive.sort();
        assert_eq!(indexed, naive);
        assert!(!indexed.is_empty());
    }

    #[test]
    fn execute_matches_apply_on_example_4_1() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let g = medical_graph(&mut v);
        let out = execute(&t, &g);
        let naive = t.apply(&g);
        assert_eq!(out.num_nodes(), naive.num_nodes());
        assert_eq!(out.num_edges(), naive.num_edges());
        let idx = IndexedGraph::build(&g);
        assert_eq!(output_facts(&idx, &t, &ExecOptions::default()), t.output_facts(&g));
    }

    #[test]
    fn threaded_execution_is_deterministic() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let g = medical_graph(&mut v);
        let one = execute_with(&t, &g, &ExecOptions { threads: 1 });
        let four = execute_with(&t, &g, &ExecOptions { threads: 4 });
        // Determinism is exact graph equality, not just fact equality.
        assert_eq!(one.num_nodes(), four.num_nodes());
        assert_eq!(
            one.edges().collect::<Vec<_>>(),
            four.edges().collect::<Vec<_>>(),
            "thread count must not change the output graph"
        );
    }

    #[test]
    fn empty_transformation_and_empty_graph() {
        let t = Transformation::new();
        let g = Graph::new();
        assert_eq!(execute(&t, &g).num_nodes(), 0);
        let mut v = Vocab::new();
        let t0 = medical_transformation(&mut v);
        assert_eq!(execute(&t0, &Graph::new()).num_nodes(), 0);
    }

    #[test]
    fn boolean_body_yields_empty_tuple() {
        // A node rule with a Boolean body constructs one constant node iff
        // the body holds.
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let mark = v.node_label("NonEmpty");
        let q = C2rpq::new(1, vec![], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }]);
        let mut t = Transformation::new();
        t.add_node_rule(mark, q);
        let mut g = Graph::new();
        g.add_labeled_node([a]);
        assert_eq!(execute(&t, &g).num_nodes(), 1);
        assert_eq!(execute(&t, &Graph::new()).num_nodes(), 0);
    }
}
