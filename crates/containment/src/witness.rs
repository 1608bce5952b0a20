//! Extraction of *verified finite counterexamples* for failed
//! containments.
//!
//! The decision procedure refutes `P ⊆_S Q` with a core of a (possibly
//! infinite) model of the completed TBox — evidence that a finite
//! counterexample exists (Theorem 5.4), but not the counterexample
//! itself. This module turns that evidence into an actual finite graph a
//! user can look at:
//!
//! 1. strip the engine core back to schema vocabulary (dropping marker
//!    nodes of the Booleanization, remembering the answer tuple they pin);
//! 2. *repair* the remaining participation debt — greedily satisfy every
//!    unmet `1`/`+` constraint by reusing an existing target when the
//!    inverse multiplicity allows it, creating fresh nodes otherwise;
//! 3. verify the result end to end (`G ⊨ S`, `t ∈ P(G)`, `t ∉ Q(G)`) by
//!    direct evaluation — an unverified repair is discarded;
//! 4. fall back to random sampling of conforming graphs.
//!
//! Everything returned is verified; `None` means "not found within the
//! configured effort", never "no counterexample exists".

use crate::booleanize::booleanize;
use crate::contains::{ContainmentError, ContainmentOptions};
use crate::hatp::hat_union;
use crate::oracle::is_counterexample;
use crate::prepared::PreparedTbox;
use crate::rollup::rollup_negation;
use gts_graph::{EdgeSym, FxHashMap, Graph, NodeId, NodeLabel, Vocab};
use gts_query::Uc2rpq;
use gts_sat::{decide_in_ctx, HornFixpoint, Verdict};
use gts_schema::{Mult, Schema};
use rand::seq::SliceRandom;
use rand::Rng;

/// A verified finite counterexample to `P ⊆_S Q`.
#[derive(Clone, Debug)]
pub struct FiniteCounterexample {
    /// A finite graph conforming to `S`.
    pub graph: Graph,
    /// An answer tuple in `P(G) \ Q(G)` (empty for Boolean queries).
    pub tuple: Vec<NodeId>,
}

/// Effort knobs for [`finite_counterexample`].
#[derive(Clone, Debug)]
pub struct WitnessConfig {
    /// Maximum fresh nodes the repair loop may create.
    pub max_extra_nodes: usize,
    /// Maximum repair iterations.
    pub max_repair_iters: usize,
    /// Random conforming graphs to sample in the fallback.
    pub samples: usize,
    /// Size parameter for the sampled graphs.
    pub sample_size_per_label: usize,
}

impl Default for WitnessConfig {
    fn default() -> Self {
        WitnessConfig {
            max_extra_nodes: 64,
            max_repair_iters: 512,
            samples: 200,
            sample_size_per_label: 3,
        }
    }
}

/// Searches for a verified finite counterexample to `P(x̄) ⊆_S Q(x̄)`.
/// Returns `Ok(None)` when containment holds (or no counterexample was
/// found within the configured effort).
pub fn finite_counterexample<R: Rng>(
    p: &Uc2rpq,
    q: &Uc2rpq,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
    cfg: &WitnessConfig,
    rng: &mut R,
) -> Result<Option<FiniteCounterexample>, ContainmentError> {
    let p_pruned = Uc2rpq {
        disjuncts: p.disjuncts.iter().filter(|d| !q.disjuncts.contains(d)).cloned().collect(),
    };
    if p_pruned.disjuncts.is_empty() {
        return Ok(None);
    }

    // Replicate the containment pipeline, keeping the Booleanization's
    // marker labels in scope so the engine core can be decoded; each
    // choice completes over T̂_S as `contains` does, and a repeated choice
    // is found in the prepared TBox's memo.
    let b = booleanize(&p_pruned, q, s, vocab);
    let (choices, _states) = rollup_negation(&b.q, vocab).map_err(ContainmentError::Rollup)?;
    let p_hat = hat_union(&b.p, &b.schema);
    let hat_ts = PreparedTbox::new(&b.schema.hat_tbox());
    let schema_label_set = b.schema.node_label_set();

    let mut saw_sat_or_unknown = false;
    for choice in &choices {
        let (universe, _) = hat_ts.complete(hat_ts.overlay([choice]), &schema_label_set, opts);
        let mut fixpoint = HornFixpoint::new(universe, &opts.budget);
        for pd in &p_hat.disjuncts {
            match decide_in_ctx(&mut fixpoint, pd, &opts.budget) {
                Verdict::Sat(w) => {
                    saw_sat_or_unknown = true;
                    if let Some(cex) =
                        repair_core(&w.core, s, &b.markers, &b.marker_edges, p, q, cfg, rng)
                    {
                        return Ok(Some(cex));
                    }
                }
                Verdict::Unknown(_) => saw_sat_or_unknown = true,
                Verdict::Unsat => {}
            }
        }
    }
    if !saw_sat_or_unknown {
        return Ok(None); // containment certified: no counterexample exists
    }
    // Fallback: random sampling.
    Ok(sample_counterexample(p, q, s, cfg, rng))
}

/// NRE variant of [`finite_counterexample`]. When `q` is flattenable the
/// exact repair-guided pipeline applies; a star-nested `q` falls back to
/// verified random sampling (evaluating the nested query by
/// materialization), since the repair decoder works on the plain
/// vocabulary only. Returned counterexamples are always verified.
pub fn finite_counterexample_nre<R: Rng>(
    p: &gts_query::NreUc2rpq,
    q: &gts_query::NreUc2rpq,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
    cfg: &WitnessConfig,
    rng: &mut R,
) -> Result<Option<FiniteCounterexample>, ContainmentError> {
    let p_flat = p.flatten().map_err(ContainmentError::Flatten)?;
    if let Ok(q_flat) = q.flatten() {
        return finite_counterexample(&p_flat, &q_flat, s, vocab, opts, cfg, rng);
    }
    // Star-nested right-hand side: verified sampling with NRE evaluation.
    for _ in 0..cfg.samples {
        let Some(g) = gts_schema::random_conforming_graph(s, cfg.sample_size_per_label, 3, rng)
        else {
            continue;
        };
        let qa = q.eval(&g, vocab);
        if let Some(tuple) = p_flat.eval(&g).into_iter().find(|t| !qa.contains(t)) {
            return Ok(Some(FiniteCounterexample { graph: g, tuple }));
        }
    }
    Ok(None)
}

/// Random-sampling search (also used as the fallback above).
pub fn sample_counterexample<R: Rng>(
    p: &Uc2rpq,
    q: &Uc2rpq,
    s: &Schema,
    cfg: &WitnessConfig,
    rng: &mut R,
) -> Option<FiniteCounterexample> {
    for _ in 0..cfg.samples {
        if let Some(g) = gts_schema::random_conforming_graph(s, cfg.sample_size_per_label, 3, rng) {
            if is_counterexample(p, q, &g) {
                let qa = q.eval(&g);
                let tuple = p.eval(&g).into_iter().find(|t| !qa.contains(t))?;
                return Some(FiniteCounterexample { graph: g, tuple });
            }
        }
    }
    None
}

/// Decodes an engine core (over the Booleanized vocabulary) and repairs it
/// into a conforming finite graph; returns only verified counterexamples.
#[allow(clippy::too_many_arguments)]
fn repair_core<R: Rng>(
    core: &Graph,
    s: &Schema,
    markers: &[NodeLabel],
    marker_edges: &[gts_graph::EdgeLabel],
    p: &Uc2rpq,
    q: &Uc2rpq,
    cfg: &WitnessConfig,
    rng: &mut R,
) -> Option<FiniteCounterexample> {
    let gamma = s.node_label_set();

    // 1) map core nodes: schema-labeled nodes are kept; marker nodes pin
    //    the answer tuple; everything else is dropped.
    let mut map: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    let mut g = Graph::new();
    for u in core.nodes() {
        let schema_labels: Vec<u32> =
            core.labels(u).iter().filter(|l| gamma.contains(*l)).collect();
        if let [one] = schema_labels.as_slice() {
            let id = g.add_labeled_node([NodeLabel(*one)]);
            map.insert(u, id);
        }
    }
    let mut tuple = Vec::with_capacity(markers.len());
    for (i, &x) in markers.iter().enumerate() {
        let marker_node = core.nodes().find(|&u| core.has_label(u, x))?;
        let pinned = core.successors(marker_node, EdgeSym::fwd(marker_edges[i])).next()?;
        tuple.push(*map.get(&pinned)?);
    }
    for (src, label, tgt) in core.edges() {
        if !s.has_edge_label(label) {
            continue;
        }
        if let (Some(&ms), Some(&mt)) = (map.get(&src), map.get(&tgt)) {
            g.add_edge(ms, label, mt);
        }
    }

    // 2) repair participation debt.
    let mut extra = 0usize;
    for _ in 0..cfg.max_repair_iters {
        let Some((u, a, sym, b_label)) = first_unmet(&g, s) else { break };
        // Existing targets that can absorb one more incoming edge.
        let allowed_in = s.mult(b_label, sym.inv(), a);
        let mut candidates: Vec<NodeId> = g
            .nodes()
            .filter(|&w| g.has_label(w, b_label))
            .filter(|&w| !has_sym_edge(&g, u, sym, w))
            .filter(|&w| match allowed_in {
                Mult::Star | Mult::Plus => true,
                Mult::One | Mult::Opt => g.count_labeled_successors(w, sym.inv(), a) == 0,
                Mult::Zero => false,
            })
            .collect();
        candidates.shuffle(rng);
        if let Some(&w) = candidates.first() {
            add_sym_edge(&mut g, u, sym, w);
        } else if extra < cfg.max_extra_nodes && allowed_in != Mult::Zero {
            let w = g.add_labeled_node([b_label]);
            extra += 1;
            add_sym_edge(&mut g, u, sym, w);
        } else {
            return None;
        }
    }

    // 3) verify end to end.
    if s.conforms(&g).is_err() {
        return None;
    }
    let pa = p.eval(&g);
    let qa = q.eval(&g);
    if pa.contains(&tuple) && !qa.contains(&tuple) {
        Some(FiniteCounterexample { graph: g, tuple })
    } else {
        None
    }
}

/// First unmet `1`/`+` participation requirement, if any.
fn first_unmet(g: &Graph, s: &Schema) -> Option<(NodeId, NodeLabel, EdgeSym, NodeLabel)> {
    for u in g.nodes() {
        let a = NodeLabel(g.labels(u).first()?);
        for sym in s.syms() {
            for &b in s.node_labels() {
                if matches!(s.mult(a, sym, b), Mult::One | Mult::Plus)
                    && g.count_labeled_successors(u, sym, b) == 0
                {
                    return Some((u, a, sym, b));
                }
            }
        }
    }
    None
}

fn has_sym_edge(g: &Graph, u: NodeId, sym: EdgeSym, w: NodeId) -> bool {
    if sym.inverse {
        g.has_edge(w, sym.label, u)
    } else {
        g.has_edge(u, sym.label, w)
    }
}

fn add_sym_edge(g: &mut Graph, u: NodeId, sym: EdgeSym, w: NodeId) {
    if sym.inverse {
        g.add_edge(w, sym.label, u);
    } else {
        g.add_edge(u, sym.label, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_query::{Atom, C2rpq, Regex, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// Figure 1 vocabulary: Targets ⊄ Direct must yield a verified
    /// counterexample that conforms to S0 (in particular every Vaccine has
    /// its designTarget and every Pathogen exhibits something).
    #[test]
    fn medical_counterexample_is_verified() {
        let mut v = Vocab::new();
        let vaccine = v.node_label("Vaccine");
        let antigen = v.node_label("Antigen");
        let pathogen = v.node_label("Pathogen");
        let dt = v.edge_label("designTarget");
        let cr = v.edge_label("crossReacting");
        let ex = v.edge_label("exhibits");
        let mut s = Schema::new();
        s.set_edge(vaccine, dt, antigen, Mult::One, Mult::Star);
        s.set_edge(antigen, cr, antigen, Mult::Star, Mult::Star);
        s.set_edge(pathogen, ex, antigen, Mult::Plus, Mult::Star);

        let targets = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom {
                x: Var(0),
                y: Var(1),
                regex: Regex::edge(dt).then(Regex::edge(cr).star()),
            }],
        ));
        let direct = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(dt) }],
        ));
        let cex = finite_counterexample(
            &targets,
            &direct,
            &s,
            &mut v,
            &Default::default(),
            &WitnessConfig::default(),
            &mut rng(),
        )
        .unwrap()
        .expect("Targets ⊄ Direct: a counterexample must be found");
        // Re-verify independently.
        assert!(s.conforms(&cex.graph).is_ok());
        assert!(targets.eval(&cex.graph).contains(&cex.tuple));
        assert!(!direct.eval(&cex.graph).contains(&cex.tuple));
        // The tuple's witness must use at least one crossReacting hop.
        assert!(cex.graph.edges().any(|(_, l, _)| l == cr));
    }

    /// A containment that holds yields no counterexample.
    #[test]
    fn contained_queries_have_no_counterexample() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let wide = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r).then(Regex::edge(r).star()) }],
        ));
        let none = finite_counterexample(
            &q,
            &wide,
            &s,
            &mut v,
            &Default::default(),
            &WitnessConfig::default(),
            &mut rng(),
        )
        .unwrap();
        assert!(none.is_none());
    }

    /// NRE counterexamples: a star-nested right-hand side refuted by a
    /// sampled conforming graph, verified by nested evaluation.
    #[test]
    fn nre_counterexample_with_star_nest() {
        use gts_query::{Nre, NreAtom, NreC2rpq, NreUc2rpq};
        let mut v = Vocab::new();
        let person = v.node_label("Person");
        let post = v.node_label("Post");
        let follows = v.edge_label("follows");
        let likes = v.edge_label("likes");
        let mut s = Schema::new();
        s.set_edge(person, follows, person, Mult::Star, Mult::Star);
        s.set_edge(person, likes, post, Mult::Star, Mult::Star);
        // P: a follows-edge exists. Q: a follow-chain through likers —
        // not entailed when likes is optional.
        let p = NreUc2rpq::single(NreC2rpq::new(
            2,
            vec![],
            vec![NreAtom { x: Var(0), y: Var(1), nre: Nre::edge(follows) }],
        ));
        let step = Nre::edge(follows).then(Nre::nest(Nre::edge(likes)));
        let q = NreUc2rpq::single(NreC2rpq::new(
            2,
            vec![],
            vec![NreAtom { x: Var(0), y: Var(1), nre: step.clone().then(step.star()) }],
        ));
        let cex = finite_counterexample_nre(
            &p,
            &q,
            &s,
            &mut v,
            &Default::default(),
            &WitnessConfig::default(),
            &mut rng(),
        )
        .unwrap()
        .expect("counterexample exists (a follows-edge to a non-liker)");
        assert!(s.conforms(&cex.graph).is_ok());
        assert!(p.flatten().unwrap().eval(&cex.graph).contains(&cex.tuple));
        assert!(!q.eval(&cex.graph, &mut v).contains(&cex.tuple));
    }

    /// Boolean queries: Example 5.2's variant *without* the inverse
    /// functionality is refutable by a finite graph (an r-loop plus an
    /// s-cycle): the extractor must produce one.
    #[test]
    fn boolean_counterexample_with_cycles() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let sl = v.edge_label("s");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, sl, a, Mult::Plus, Mult::Star);
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let p = Uc2rpq::single(C2rpq::new(
            1,
            vec![],
            vec![Atom { x: Var(0), y: Var(0), regex: Regex::edge(r) }],
        ));
        let splus = Regex::edge(sl).then(Regex::edge(sl).star());
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom {
                x: Var(0),
                y: Var(1),
                regex: Regex::edge(r).then(splus).then(Regex::edge(r)),
            }],
        ));
        let cex = finite_counterexample(
            &p,
            &q,
            &s,
            &mut v,
            &Default::default(),
            &WitnessConfig::default(),
            &mut rng(),
        )
        .unwrap()
        .expect("finite counterexample exists");
        assert!(cex.tuple.is_empty());
        assert!(s.conforms(&cex.graph).is_ok());
        assert!(p.holds(&cex.graph));
        assert!(!q.holds(&cex.graph));
    }
}
