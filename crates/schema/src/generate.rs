//! Workload generators: random schemas and random graphs conforming to a
//! schema. These feed the property tests (differential oracles need a
//! supply of conforming inputs) and the benchmark harness (the paper has no
//! datasets; conforming graphs of scalable size are the workload).

use crate::{Mult, Schema};
use gts_graph::{EdgeSym, FxHashMap, Graph, NodeId, NodeLabel, Vocab};
use rand::prelude::*;

/// Configuration for [`random_schema`].
#[derive(Clone, Debug)]
pub struct SchemaGenConfig {
    /// Number of node labels to create.
    pub num_node_labels: usize,
    /// Number of edge labels to create.
    pub num_edge_labels: usize,
    /// Probability that a `(A, r, B)` triple gets a non-zero constraint.
    pub edge_density: f64,
    /// Allow `1`/`+` (lower-bound) multiplicities. Disabling them makes
    /// conforming graphs trivial to generate (useful to avoid discards in
    /// property tests).
    pub allow_lower_bounds: bool,
}

impl Default for SchemaGenConfig {
    fn default() -> Self {
        SchemaGenConfig {
            num_node_labels: 3,
            num_edge_labels: 2,
            edge_density: 0.4,
            allow_lower_bounds: true,
        }
    }
}

/// Generates a random schema. Labels are named `L0, L1, …` / `e0, e1, …`.
pub fn random_schema<R: Rng>(cfg: &SchemaGenConfig, vocab: &mut Vocab, rng: &mut R) -> Schema {
    let labels: Vec<NodeLabel> =
        (0..cfg.num_node_labels).map(|i| vocab.node_label(&format!("L{i}"))).collect();
    let edges: Vec<_> =
        (0..cfg.num_edge_labels).map(|i| vocab.edge_label(&format!("e{i}"))).collect();
    let mut s = Schema::new();
    for &l in &labels {
        s.add_node_label(l);
    }
    for &e in &edges {
        s.add_edge_label(e);
    }
    let upper = [Mult::Opt, Mult::Star];
    let lower = [Mult::One, Mult::Plus, Mult::Opt, Mult::Star];
    for &a in &labels {
        for &r in &edges {
            for &b in &labels {
                if rng.gen_bool(cfg.edge_density) {
                    let fwd = if cfg.allow_lower_bounds {
                        *lower.choose(rng).unwrap()
                    } else {
                        *upper.choose(rng).unwrap()
                    };
                    // Keep the reverse direction upper-bound-free so that a
                    // conforming graph always exists (greedy generation).
                    s.set_edge(a, r, b, fwd, Mult::Star);
                }
            }
        }
    }
    s
}

/// Generates a random finite graph conforming to `schema`, with roughly
/// `size_per_label` nodes per node label. Returns `None` if the repair loop
/// fails within `attempts` tries (e.g. jointly unsatisfiable `1`/`1`
/// constraints with mismatched node counts).
pub fn random_conforming_graph<R: Rng>(
    schema: &Schema,
    size_per_label: usize,
    attempts: usize,
    rng: &mut R,
) -> Option<Graph> {
    for _ in 0..attempts.max(1) {
        if let Some(g) = try_generate(schema, size_per_label, rng) {
            return Some(g);
        }
    }
    None
}

fn try_generate<R: Rng>(schema: &Schema, size_per_label: usize, rng: &mut R) -> Option<Graph> {
    // 1) node counts: requested size, bumped to ≥1 for labels required as
    //    witnesses of some lower-bound constraint of a populated label.
    let labels = schema.node_labels().to_vec();
    let mut count: FxHashMap<NodeLabel, usize> =
        labels.iter().map(|&l| (l, size_per_label)).collect();
    loop {
        let mut changed = false;
        for &a in &labels {
            if count[&a] == 0 {
                continue;
            }
            for sym in schema.syms() {
                for &b in &labels {
                    if schema.mult(a, sym, b).min_count() > 0 && count[&b] == 0 {
                        count.insert(b, 1);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut g = Graph::new();
    let mut pool: FxHashMap<NodeLabel, Vec<NodeId>> = FxHashMap::default();
    for &l in &labels {
        let nodes: Vec<NodeId> = (0..count[&l]).map(|_| g.add_labeled_node([l])).collect();
        pool.insert(l, nodes);
    }

    // 2) satisfy lower bounds greedily, respecting upper bounds on the
    //    opposite side.
    for &a in &labels {
        for sym in schema.syms() {
            for &b in &labels {
                let need = schema.mult(a, sym, b).min_count();
                if need == 0 {
                    continue;
                }
                let rev_cap = schema.mult(b, sym.inv(), a).max_count();
                let targets = pool[&b].clone();
                if targets.is_empty() {
                    return None;
                }
                for &src in &pool[&a] {
                    let have = g.count_labeled_successors(src, sym, b);
                    if have >= need {
                        continue;
                    }
                    // Pick a target with remaining reverse capacity.
                    let mut shuffled = targets.clone();
                    shuffled.shuffle(rng);
                    let mut placed = false;
                    for tgt in shuffled {
                        let tgt_in = g.count_labeled_successors(tgt, sym.inv(), a);
                        if rev_cap.is_none_or(|c| tgt_in < c) {
                            let (s_node, t_node) = orient(sym, src, tgt);
                            if g.add_edge(s_node, sym.label, t_node) {
                                placed = true;
                                break;
                            }
                        }
                    }
                    if !placed {
                        return None;
                    }
                }
            }
        }
    }

    // 3) sprinkle optional edges where both sides allow more.
    for &a in &labels {
        for sym in schema.syms().filter(|s| !s.inverse) {
            for &b in &labels {
                let fwd = schema.mult(a, sym, b);
                if fwd == Mult::Zero {
                    continue;
                }
                for &src in &pool[&a] {
                    if !rng.gen_bool(0.3) {
                        continue;
                    }
                    let have = g.count_labeled_successors(src, sym, b);
                    if fwd.max_count().is_some_and(|c| have >= c) {
                        continue;
                    }
                    if let Some(&tgt) = pool[&b].choose(rng) {
                        let rev = schema.mult(b, sym.inv(), a);
                        let tgt_in = g.count_labeled_successors(tgt, sym.inv(), a);
                        if rev.max_count().is_none_or(|c| tgt_in < c) {
                            g.add_edge(src, sym.label, tgt);
                        }
                    }
                }
            }
        }
    }

    schema.conforms(&g).ok().map(|_| g)
}

fn orient(sym: EdgeSym, src: NodeId, tgt: NodeId) -> (NodeId, NodeId) {
    if sym.inverse {
        (tgt, src)
    } else {
        (src, tgt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn medical(v: &mut Vocab) -> Schema {
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
        s
    }

    #[test]
    fn generated_medical_graphs_conform() {
        let mut v = Vocab::new();
        let s = medical(&mut v);
        let mut rng = StdRng::seed_from_u64(42);
        for size in [1, 3, 10] {
            let g = random_conforming_graph(&s, size, 5, &mut rng)
                .expect("medical schema is satisfiable");
            assert_eq!(s.conforms(&g), Ok(()));
            assert!(g.num_nodes() >= 3 * size);
        }
    }

    #[test]
    fn random_schemas_admit_conforming_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ok = 0;
        for _ in 0..20 {
            let mut v = Vocab::new();
            let s = random_schema(&SchemaGenConfig::default(), &mut v, &mut rng);
            if let Some(g) = random_conforming_graph(&s, 3, 10, &mut rng) {
                assert_eq!(s.conforms(&g), Ok(()));
                ok += 1;
            }
        }
        // The generator's schemas keep reverse multiplicities at `*`, so
        // generation should essentially always succeed.
        assert!(ok >= 18, "only {ok}/20 generations succeeded");
    }

    /// Exact node/edge counts at the scales the scenario corpus and the
    /// differential harness sample at. The generator is deterministic
    /// given a seed; silent drift here would invisibly change every
    /// corpus fixture and every workload built on one downstream.
    #[test]
    fn generated_graph_sizes_are_pinned_at_corpus_scales() {
        let mut v = Vocab::new();
        let s = medical(&mut v);
        let mut rng = StdRng::seed_from_u64(2026);
        for (size, want) in [(10, (30, 25)), (40, (120, 102)), (100, (300, 246))] {
            let g = random_conforming_graph(&s, size, 5, &mut rng).expect("satisfiable");
            assert_eq!(
                (g.num_nodes(), g.num_edges()),
                want,
                "size_per_label {size}: generator output drifted"
            );
        }
    }

    #[test]
    fn empty_schema_yields_empty_graph() {
        let s = Schema::new();
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_conforming_graph(&s, 3, 1, &mut rng).unwrap();
        assert_eq!(g.num_nodes(), 0);
    }
}
