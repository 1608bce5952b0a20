//! The on-disk graph-instance format used by `gts run`.
//!
//! A deliberately minimal, line-based format — one concrete graph per
//! file, no schemas or queries — so instances can be produced by other
//! tools (or generators) without a `.gts` wrapper:
//!
//! ```text
//! # Blank lines and `#` comments are ignored.
//! node v1 Vaccine          # node <name> [Label ...]   (zero or more labels)
//! node a1 Antigen
//! node x                   # an unlabeled node
//! edge v1 designTarget a1  # edge <src> <label> <tgt>
//! ```
//!
//! Labels are resolved against (and interned into) the caller's
//! [`Vocab`], so an instance file composes with the vocabulary of the
//! `.gts` file whose transformation it feeds. [`print_instance`] renders
//! any graph back into the format; parse∘print is the identity on graphs
//! (the round-trip tests below and the CLI suite enforce this).

use crate::parse::NamedGraph;
use gts_core::graph::{Graph, GraphDelta, LabelSet, NodeId, NodeLabel, Vocab};
use std::collections::HashMap;

/// Parses the instance format. Node and edge labels are interned into
/// `vocab`; errors carry 1-based line numbers.
pub fn parse_instance(src: &str, vocab: &mut Vocab) -> Result<NamedGraph, String> {
    let mut graph = Graph::new();
    let mut names: Vec<(String, NodeId)> = Vec::new();
    let mut by_name: HashMap<String, NodeId> = HashMap::new();
    for (i, raw_line) in src.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let mut words = line.split_whitespace();
        match words.next() {
            Some("node") => {
                let name = words
                    .next()
                    .ok_or_else(|| format!("line {lineno}: `node` needs a name"))?
                    .to_owned();
                if by_name.contains_key(&name) {
                    return Err(format!("line {lineno}: duplicate node `{name}`"));
                }
                let id = graph.add_node();
                for label in words {
                    graph.add_label(id, vocab.node_label(label));
                }
                by_name.insert(name.clone(), id);
                names.push((name, id));
            }
            Some("edge") => {
                let mut field = |what: &str| {
                    words
                        .next()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("line {lineno}: `edge` needs {what}"))
                };
                let src_name = field("a source node")?;
                let label = field("an edge label")?;
                let tgt_name = field("a target node")?;
                if let Some(extra) = words.next() {
                    return Err(format!("line {lineno}: unexpected trailing `{extra}`"));
                }
                let src = *by_name
                    .get(&src_name)
                    .ok_or_else(|| format!("line {lineno}: undeclared node `{src_name}`"))?;
                let tgt = *by_name
                    .get(&tgt_name)
                    .ok_or_else(|| format!("line {lineno}: undeclared node `{tgt_name}`"))?;
                graph.add_edge(src, vocab.edge_label(&label), tgt);
            }
            Some(other) => {
                return Err(format!("line {lineno}: expected `node` or `edge`, found `{other}`"))
            }
            None => unreachable!("blank lines are skipped"),
        }
    }
    Ok(NamedGraph { graph, names })
}

/// Parses the on-disk graph-delta format (`gts run --delta FILE`)
/// against an already-parsed instance. One
/// operation per line, names resolved against the instance's node names:
///
/// ```text
/// # Blank lines and `#` comments are ignored.
/// add node a4 Antigen       # fresh node (the name must be new)
/// del node a1               # tombstone: labels and incident edges go
/// add edge a2 crossReacting a4
/// del edge v1 designTarget a1
/// add label a2 Covered      # node-label changes
/// del label a2 Antigen
/// ```
///
/// Fresh nodes are appended to `named.names` (ids continue after the
/// instance's, matching [`GraphDelta`]'s application order), so later
/// lines — and the caller's output rendering — can refer to them.
pub fn parse_delta(
    src: &str,
    vocab: &mut Vocab,
    named: &mut NamedGraph,
) -> Result<GraphDelta, String> {
    let mut by_name: HashMap<String, NodeId> =
        named.names.iter().map(|(n, id)| (n.clone(), *id)).collect();
    let mut delta = GraphDelta::default();
    let first_new = named.graph.num_nodes() as u32;
    for (i, raw_line) in src.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let mut words = line.split_whitespace();
        let op = match (words.next(), words.next()) {
            (Some(verb @ ("add" | "del")), Some(what)) => (verb, what),
            _ => return Err(format!("line {lineno}: expected `add|del node|edge|label ...`")),
        };
        let mut field = |what: &str| {
            words
                .next()
                .map(str::to_owned)
                .ok_or_else(|| format!("line {lineno}: `{} {}` needs {what}", op.0, op.1))
        };
        match op {
            ("add", "node") => {
                let name = field("a name")?;
                if by_name.contains_key(&name) {
                    return Err(format!("line {lineno}: node `{name}` already exists"));
                }
                let id = NodeId(first_new + delta.added_nodes.len() as u32);
                let labels = LabelSet::from_iter(words.by_ref().map(|l| vocab.node_label(l).0));
                delta.added_nodes.push(labels);
                by_name.insert(name.clone(), id);
                named.names.push((name, id));
            }
            ("add" | "del", "edge") => {
                let src_name = field("a source node")?;
                let label = field("an edge label")?;
                let tgt_name = field("a target node")?;
                let resolve = |n: &str| {
                    by_name
                        .get(n)
                        .copied()
                        .ok_or_else(|| format!("line {lineno}: undeclared node `{n}`"))
                };
                let e = (resolve(&src_name)?, vocab.edge_label(&label), resolve(&tgt_name)?);
                if op.0 == "add" {
                    delta.added_edges.push(e);
                } else {
                    delta.removed_edges.push(e);
                }
            }
            ("del", "node") => {
                let name = field("a name")?;
                let id = *by_name
                    .get(&name)
                    .ok_or_else(|| format!("line {lineno}: undeclared node `{name}`"))?;
                delta.removed_nodes.push(id);
            }
            ("add" | "del", "label") => {
                let name = field("a node")?;
                let label = field("a node label")?;
                let id = *by_name
                    .get(&name)
                    .ok_or_else(|| format!("line {lineno}: undeclared node `{name}`"))?;
                let l = vocab.node_label(&label);
                if op.0 == "add" {
                    delta.added_labels.push((id, l));
                } else {
                    delta.removed_labels.push((id, l));
                }
            }
            (verb, what) => {
                return Err(format!(
                    "line {lineno}: unknown operation `{verb} {what}` (expected node|edge|label)"
                ))
            }
        }
        if let Some(extra) = words.next() {
            return Err(format!("line {lineno}: unexpected trailing `{extra}`"));
        }
    }
    Ok(delta)
}

/// Renders a named graph in the instance format (canonical: nodes in
/// declaration order, then edges in per-source insertion order). Nodes
/// missing from the name table are declared too, under generated names
/// (`nI`, underscore-prefixed on collision with a user name), so the
/// output always re-parses to the same graph.
pub fn print_instance(g: &NamedGraph, vocab: &Vocab) -> String {
    let mut out = String::new();
    let mut by_id: Vec<Option<String>> = vec![None; g.graph.num_nodes()];
    let mut used: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for (name, id) in &g.names {
        by_id[id.0 as usize].get_or_insert_with(|| name.clone());
        used.insert(name.as_str());
    }
    let mut fresh: Vec<(String, NodeId)> = Vec::new();
    for (i, slot) in by_id.iter_mut().enumerate() {
        if slot.is_none() {
            let mut name = format!("n{i}");
            while used.contains(name.as_str()) {
                name.insert(0, '_');
            }
            *slot = Some(name.clone());
            fresh.push((name, NodeId(i as u32)));
        }
    }
    let declare = |out: &mut String, name: &str, id: NodeId| {
        out.push_str("node ");
        out.push_str(name);
        for l in g.graph.labels(id).iter() {
            out.push(' ');
            out.push_str(vocab.node_name(NodeLabel(l)));
        }
        out.push('\n');
    };
    for (name, id) in &g.names {
        declare(&mut out, name, *id);
    }
    for (name, id) in &fresh {
        declare(&mut out, name, *id);
    }
    for (src, label, tgt) in g.graph.edges() {
        let (s, t) = (
            by_id[src.0 as usize].as_deref().expect("all nodes named"),
            by_id[tgt.0 as usize].as_deref().expect("all nodes named"),
        );
        out.push_str(&format!("edge {s} {} {t}\n", vocab.edge_name(label)));
    }
    out
}

/// Renders a bare graph in the instance format with generated node names
/// `n0, n1, …` (e.g. for transformation outputs).
pub fn raw_instance(g: &Graph, vocab: &Vocab) -> String {
    let named = NamedGraph {
        graph: g.clone(),
        names: g.nodes().map(|id| (format!("n{}", id.0), id)).collect(),
    };
    print_instance(&named, vocab)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a small medical instance
node v1 Vaccine
node a1 Antigen
node a2 Antigen Covered   # two labels
node x                    # unlabeled

edge v1 designTarget a1
edge a1 crossReacting a2
";

    #[test]
    fn parses_nodes_edges_labels_and_comments() {
        let mut vocab = Vocab::new();
        let g = parse_instance(SAMPLE, &mut vocab).unwrap();
        assert_eq!(g.graph.num_nodes(), 4);
        assert_eq!(g.graph.num_edges(), 2);
        assert_eq!(g.names.len(), 4);
        let a2 = g.names[2].1;
        assert_eq!(g.graph.labels(a2).len(), 2);
        let x = g.names[3].1;
        assert!(g.graph.labels(x).is_empty());
        assert!(vocab.find_edge_label("crossReacting").is_some());
    }

    #[test]
    fn round_trip_is_identity() {
        let mut vocab = Vocab::new();
        let g = parse_instance(SAMPLE, &mut vocab).unwrap();
        let printed = print_instance(&g, &vocab);
        let g2 = parse_instance(&printed, &mut vocab).unwrap();
        assert_eq!(print_instance(&g2, &vocab), printed, "printing must be a fixpoint");
        assert_eq!(g.graph.num_nodes(), g2.graph.num_nodes());
        assert_eq!(g.graph.edges().collect::<Vec<_>>(), g2.graph.edges().collect::<Vec<_>>());
        for (a, b) in g.names.iter().zip(&g2.names) {
            assert_eq!(a, b);
            assert_eq!(g.graph.labels(a.1), g2.graph.labels(b.1));
        }
    }

    #[test]
    fn raw_instance_round_trips() {
        let mut vocab = Vocab::new();
        let g = parse_instance(SAMPLE, &mut vocab).unwrap();
        let raw = raw_instance(&g.graph, &vocab);
        let g2 = parse_instance(&raw, &mut vocab).unwrap();
        assert_eq!(g2.graph.num_nodes(), 4);
        assert_eq!(g2.graph.num_edges(), 2);
        assert!(raw.contains("node n2 Antigen Covered"), "{raw}");
    }

    #[test]
    fn partially_named_graphs_print_completely_and_avoid_collisions() {
        use gts_core::graph::Graph;
        let mut vocab = Vocab::new();
        let a = vocab.node_label("A");
        let r = vocab.edge_label("r");
        let mut graph = Graph::new();
        let n0 = graph.add_labeled_node([a]);
        let n1 = graph.add_node();
        graph.add_edge(n1, r, n0);
        // The single user name collides with the generated scheme: the
        // unnamed node must still be declared, under a fresh name.
        let named = NamedGraph { graph, names: vec![("n1".into(), n0)] };
        let printed = print_instance(&named, &vocab);
        assert!(printed.contains("node _n1\n"), "{printed}");
        let mut v2 = Vocab::new();
        let re = parse_instance(&printed, &mut v2).unwrap();
        assert_eq!(re.graph.num_nodes(), 2);
        assert_eq!(re.graph.num_edges(), 1);
        // The edge must go unnamed → named, not become a self-loop on the
        // colliding name.
        let r2 = v2.find_edge_label("r").unwrap();
        let (user, fresh) = (re.names[0].1, re.names[1].1);
        assert!(re.graph.has_edge(fresh, r2, user), "{printed}");
    }

    const SAMPLE_DELTA: &str = "\
# splice a node in, cut the old chain
add node a3 Antigen Covered
add edge a2 crossReacting a3
del edge a1 crossReacting a2
del label a2 Covered
add label a1 Covered
del node x
";

    #[test]
    fn parses_deltas_against_instance_names() {
        let mut vocab = Vocab::new();
        let mut g = parse_instance(SAMPLE, &mut vocab).unwrap();
        let base_nodes = g.graph.num_nodes();
        let delta = parse_delta(SAMPLE_DELTA, &mut vocab, &mut g).unwrap();
        assert_eq!(delta.added_nodes.len(), 1);
        assert_eq!(delta.added_nodes[0].len(), 2);
        assert_eq!(delta.added_edges.len(), 1);
        assert_eq!(delta.removed_edges.len(), 1);
        assert_eq!(delta.added_labels.len(), 1);
        assert_eq!(delta.removed_labels.len(), 1);
        assert_eq!(delta.removed_nodes, vec![g.names[3].1]);
        // The fresh node got the next id and is name-addressable.
        let (name, id) = g.names.last().unwrap();
        assert_eq!((name.as_str(), id.0), ("a3", base_nodes as u32));
        assert_eq!(delta.added_edges[0].2, *id);
        // The delta applies cleanly to the instance it was parsed against.
        let mut patched = g.graph.clone();
        delta.apply_in_place(&mut patched).unwrap();
        assert_eq!(patched.num_nodes(), base_nodes + 1);
    }

    #[test]
    fn delta_errors_carry_line_numbers() {
        let mut vocab = Vocab::new();
        for (src, needle) in [
            ("tweak a", "line 1: expected `add|del"),
            ("add blob a r b", "unknown operation `add blob`"),
            ("add node v1", "node `v1` already exists"),
            ("del node ghost", "undeclared node `ghost`"),
            ("add edge v1 r ghost", "undeclared node `ghost`"),
            ("del edge v1 designTarget", "needs a target"),
            ("add label a1", "needs a node label"),
            ("del edge v1 designTarget a1 extra", "trailing `extra`"),
        ] {
            let mut g = parse_instance(SAMPLE, &mut vocab).unwrap();
            let err = parse_delta(src, &mut vocab, &mut g).unwrap_err();
            assert!(err.contains(needle), "source {src:?}: {err}");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut vocab = Vocab::new();
        for (src, needle) in [
            ("node", "line 1: `node` needs a name"),
            ("node a\nnode a", "line 2: duplicate node `a`"),
            ("edge a r b", "undeclared node `a`"),
            ("node a\nedge a r", "needs a target"),
            ("node a\nedge a r a extra", "trailing `extra`"),
            ("nodes a", "expected `node` or `edge`"),
        ] {
            let err = parse_instance(src, &mut vocab).unwrap_err();
            assert!(err.contains(needle), "source {src:?}: {err}");
        }
    }
}
