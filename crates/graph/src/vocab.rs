//! Interned vocabularies of node labels (Γ) and edge labels (Σ).
//!
//! The paper fixes recursively enumerable sets Γ of node labels and Σ of edge
//! labels (Section 3); concept names of the description logic ALCIF are
//! identified with node labels. We intern both into `u32` newtypes so that
//! every downstream structure (graphs, schemas, queries, TBoxes) manipulates
//! plain integers and bitsets.

use crate::fxhash::FxHashMap;
use crate::LabelSet;
use std::fmt;

/// An interned node label / DL concept name (an index into a [`Vocab`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeLabel(pub u32);

/// An interned edge label / DL role name (an index into a [`Vocab`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeLabel(pub u32);

impl fmt::Debug for NodeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "γ{}", self.0)
    }
}

impl fmt::Debug for EdgeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{}", self.0)
    }
}

/// An element of Σ± — an edge label in forward (`r`) or inverse (`r⁻`)
/// direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeSym {
    /// The underlying edge label.
    pub label: EdgeLabel,
    /// `true` for the inverse direction `r⁻`.
    pub inverse: bool,
}

impl EdgeSym {
    /// Forward symbol `r`.
    pub fn fwd(label: EdgeLabel) -> Self {
        EdgeSym { label, inverse: false }
    }

    /// Inverse symbol `r⁻`.
    pub fn bwd(label: EdgeLabel) -> Self {
        EdgeSym { label, inverse: true }
    }

    /// The opposite direction: `(r)⁻ = r⁻`, `(r⁻)⁻ = r`.
    pub fn inv(self) -> Self {
        EdgeSym { label: self.label, inverse: !self.inverse }
    }
}

impl fmt::Debug for EdgeSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{}{}", self.label.0, if self.inverse { "⁻" } else { "" })
    }
}

#[derive(Default, Clone)]
struct Interner {
    names: Vec<String>,
    by_name: FxHashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    fn get(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// An interned vocabulary: finite, growable slices of Γ and Σ.
///
/// All structures in this workspace store label *ids*; a `Vocab` is needed
/// only when translating to or from human-readable names. Fresh auxiliary
/// labels (e.g. the nest labels of the NRE lowering) are minted with
/// [`Vocab::fresh_node_label`].
#[derive(Default, Clone)]
pub struct Vocab {
    nodes: Interner,
    edges: Interner,
}

impl Vocab {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Vocab::default()
    }

    /// Interns (or looks up) a node label by name.
    pub fn node_label(&mut self, name: &str) -> NodeLabel {
        NodeLabel(self.nodes.intern(name))
    }

    /// Interns (or looks up) an edge label by name.
    pub fn edge_label(&mut self, name: &str) -> EdgeLabel {
        EdgeLabel(self.edges.intern(name))
    }

    /// Looks up a node label without interning.
    pub fn find_node_label(&self, name: &str) -> Option<NodeLabel> {
        self.nodes.get(name).map(NodeLabel)
    }

    /// Looks up an edge label without interning.
    pub fn find_edge_label(&self, name: &str) -> Option<EdgeLabel> {
        self.edges.get(name).map(EdgeLabel)
    }

    /// Mints a fresh node label guaranteed to be distinct from all existing
    /// ones. `hint` is used to build a readable unique name.
    pub fn fresh_node_label(&mut self, hint: &str) -> NodeLabel {
        let mut n = self.nodes.len();
        loop {
            let name = format!("{hint}#{n}");
            if self.nodes.get(&name).is_none() {
                return NodeLabel(self.nodes.intern(&name));
            }
            n += 1;
        }
    }

    /// Mints a fresh edge label guaranteed to be distinct from all existing
    /// ones.
    pub fn fresh_edge_label(&mut self, hint: &str) -> EdgeLabel {
        let mut n = self.edges.len();
        loop {
            let name = format!("{hint}#{n}");
            if self.edges.get(&name).is_none() {
                return EdgeLabel(self.edges.intern(&name));
            }
            n += 1;
        }
    }

    /// Human-readable name of a node label.
    pub fn node_name(&self, l: NodeLabel) -> &str {
        self.nodes.name(l.0)
    }

    /// Human-readable name of an edge label.
    pub fn edge_name(&self, l: EdgeLabel) -> &str {
        self.edges.name(l.0)
    }

    /// Renders an Σ± symbol (`r` or `r⁻`).
    pub fn sym_name(&self, s: EdgeSym) -> String {
        if s.inverse {
            format!("{}⁻", self.edge_name(s.label))
        } else {
            self.edge_name(s.label).to_owned()
        }
    }

    /// Renders a label set as `{A, B, …}`.
    pub fn set_name(&self, s: &LabelSet) -> String {
        let mut out = String::from("{");
        for (i, l) in s.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(self.node_name(NodeLabel(l)));
        }
        out.push('}');
        out
    }

    /// Number of interned node labels.
    pub fn num_node_labels(&self) -> usize {
        self.nodes.len()
    }

    /// Number of interned edge labels.
    pub fn num_edge_labels(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all interned node labels.
    pub fn node_labels(&self) -> impl Iterator<Item = NodeLabel> {
        (0..self.nodes.len() as u32).map(NodeLabel)
    }

    /// Iterates over all interned edge labels.
    pub fn edge_labels(&self) -> impl Iterator<Item = EdgeLabel> {
        (0..self.edges.len() as u32).map(EdgeLabel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.node_label("Vaccine");
        let b = v.node_label("Vaccine");
        assert_eq!(a, b);
        assert_eq!(v.node_name(a), "Vaccine");
        assert_eq!(v.num_node_labels(), 1);
    }

    #[test]
    fn node_and_edge_namespaces_are_separate() {
        let mut v = Vocab::new();
        let n = v.node_label("x");
        let e = v.edge_label("x");
        assert_eq!(n.0, 0);
        assert_eq!(e.0, 0);
        assert_eq!(v.node_name(n), v.edge_name(e));
    }

    #[test]
    fn fresh_labels_never_collide() {
        let mut v = Vocab::new();
        v.node_label("q#0");
        let f = v.fresh_node_label("q");
        assert_ne!(v.node_name(f), "q#0");
        let g = v.fresh_node_label("q");
        assert_ne!(f, g);
    }

    #[test]
    fn edge_sym_inverse_involution() {
        let mut v = Vocab::new();
        let r = v.edge_label("r");
        let s = EdgeSym::fwd(r);
        assert_eq!(s.inv().inv(), s);
        assert_eq!(v.sym_name(s.inv()), "r⁻");
    }

    #[test]
    fn set_rendering() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let b = v.node_label("B");
        let s = LabelSet::from_iter([a.0, b.0]);
        assert_eq!(v.set_name(&s), "{A, B}");
    }
}
