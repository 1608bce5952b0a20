//! The `medical` family: Example 4.1 / Figure 1, the paper's running
//! example. [`medical_fixture`] is the raw fixture the integration
//! suites build on; [`medical_instance`] scales its chain-shaped
//! instances.

use crate::{dsl, Expectation, Instance, Params, Primary, Scenario};
use gts_core::prelude::*;
use gts_core::{medical_transformation, Transformation};
use rand::rngs::StdRng;
use rand::Rng;

/// The raw Example 4.1 fixture: vocabulary, source schema `S0`, evolved
/// target `S1`, and the migration `T0`. Interning order is the contract:
/// Vaccine, Antigen, Pathogen, designTarget, crossReacting, exhibits,
/// targets.
pub fn medical_fixture() -> (Vocab, Schema, Schema, Transformation) {
    let mut vocab = Vocab::new();
    let t0 = medical_transformation(&mut vocab);
    let vaccine = vocab.node_label("Vaccine");
    let antigen = vocab.node_label("Antigen");
    let pathogen = vocab.node_label("Pathogen");
    let dt = vocab.edge_label("designTarget");
    let cr = vocab.edge_label("crossReacting");
    let ex = vocab.edge_label("exhibits");
    let targets = vocab.edge_label("targets");
    let mut s0 = Schema::new();
    s0.set_edge(vaccine, dt, antigen, Mult::One, Mult::Star);
    s0.set_edge(antigen, cr, antigen, Mult::Star, Mult::Star);
    s0.set_edge(pathogen, ex, antigen, Mult::Plus, Mult::Star);
    let mut s1 = Schema::new();
    s1.set_edge(vaccine, dt, antigen, Mult::One, Mult::Star);
    s1.set_edge(vaccine, targets, antigen, Mult::Plus, Mult::Star);
    s1.set_edge(pathogen, ex, antigen, Mult::Plus, Mult::Star);
    (vocab, s0, s1, t0)
}

/// A scalable S0-conforming instance over [`medical_fixture`]'s
/// vocabulary: `chains` disjoint crossReacting-chains of `chain_len`
/// antigens, each with one vaccine design-targeting the chain head and
/// one pathogen exhibiting it. The `targets` rule of `T0`
/// (`designTarget·crossReacting*`) is RPQ-heavy on this family: every
/// vaccine's answer set is its whole chain. Chain `c` occupies node ids
/// `c·(chain_len+2)..`: vaccine, pathogen, then the antigens in order.
pub fn medical_instance(vocab: &Vocab, chains: usize, chain_len: usize) -> Graph {
    let vaccine = vocab.find_node_label("Vaccine").expect("fixture label");
    let antigen = vocab.find_node_label("Antigen").expect("fixture label");
    let pathogen = vocab.find_node_label("Pathogen").expect("fixture label");
    let dt = vocab.find_edge_label("designTarget").expect("fixture label");
    let cr = vocab.find_edge_label("crossReacting").expect("fixture label");
    let ex = vocab.find_edge_label("exhibits").expect("fixture label");
    let mut g = Graph::new();
    for _ in 0..chains {
        let v = g.add_labeled_node([vaccine]);
        let p = g.add_labeled_node([pathogen]);
        let mut prev = None;
        for _ in 0..chain_len.max(1) {
            let a = g.add_labeled_node([antigen]);
            match prev {
                None => {
                    g.add_edge(v, dt, a);
                    g.add_edge(p, ex, a);
                }
                Some(prev) => {
                    g.add_edge(prev, cr, a);
                }
            }
            prev = Some(a);
        }
    }
    g
}

pub(crate) fn build(params: &Params, rng: &mut StdRng) -> Scenario {
    let (vocab, s0, s1, t0) = medical_fixture();
    let vaccine = vocab.find_node_label("Vaccine").expect("fixture label");
    let antigen = vocab.find_node_label("Antigen").expect("fixture label");
    let pathogen = vocab.find_node_label("Pathogen").expect("fixture label");
    let dt = vocab.find_edge_label("designTarget").expect("fixture label");
    let cr = vocab.find_edge_label("crossReacting").expect("fixture label");
    let ex = vocab.find_edge_label("exhibits").expect("fixture label");

    // A redaction that forgets the cross-reactivity closure: `targets`
    // copies only the design target. Still S1-typeable (one target per
    // vaccine satisfies the `+` bound) but inequivalent to T0 modulo S0 —
    // any crossReacting chain of length ≥ 2 distinguishes them.
    let mut redact = Transformation::new();
    redact
        .add_node_rule(vaccine, dsl::unary(vaccine))
        .add_node_rule(antigen, dsl::unary(antigen))
        .add_edge_rule(dt, (vaccine, 1), (antigen, 1), dsl::binary(Regex::edge(dt)))
        .add_edge_rule(
            vocab.find_edge_label("targets").expect("fixture label"),
            (vaccine, 1),
            (antigen, 1),
            dsl::binary(Regex::edge(dt)),
        )
        .add_node_rule(pathogen, dsl::unary(pathogen))
        .add_edge_rule(ex, (pathogen, 1), (antigen, 1), dsl::binary(Regex::edge(ex)));

    // The primary instance: crossReacting chains, sized by `scale`
    // (each chain is 1 vaccine + 1 pathogen + `chain_len` antigens).
    let chain_len = 8usize;
    let chained = medical_instance(&vocab, (params.scale / (chain_len + 2)).max(1), chain_len);

    // A second, randomized shape: star-shaped cross-reactivity with
    // shared antigens, to keep the executor honest on non-chain inputs.
    let mut star = Graph::new();
    let hubs = (params.scale / 12).max(1);
    for _ in 0..hubs {
        let v = star.add_labeled_node([vaccine]);
        let p = star.add_labeled_node([pathogen]);
        let hub = star.add_labeled_node([antigen]);
        star.add_edge(v, dt, hub);
        star.add_edge(p, ex, hub);
        for _ in 0..rng.gen_range(1..=4) {
            let spoke = star.add_labeled_node([antigen]);
            star.add_edge(hub, cr, spoke);
            if rng.gen_bool(0.5) {
                star.add_edge(p, ex, spoke);
            }
        }
    }

    Scenario {
        family: crate::Family::Medical,
        params: *params,
        vocab,
        schemas: vec![("S0".into(), s0), ("S1".into(), s1)],
        transforms: vec![("T0".into(), t0), ("Redact".into(), redact)],
        queries: Vec::new(),
        instances: vec![
            Instance { name: "chains".into(), schema: "S0".into(), graph: chained },
            Instance { name: "stars".into(), schema: "S0".into(), graph: star },
        ],
        expectations: vec![
            Expectation::TypeCheck {
                transform: "T0".into(),
                source: "S0".into(),
                target: "S1".into(),
                holds: true,
                certified: true,
            },
            Expectation::TypeCheck {
                transform: "T0".into(),
                source: "S0".into(),
                target: "S0".into(),
                holds: false,
                certified: true,
            },
            Expectation::TypeCheck {
                transform: "Redact".into(),
                source: "S0".into(),
                target: "S1".into(),
                holds: true,
                certified: true,
            },
            Expectation::Equivalence {
                left: "T0".into(),
                right: "T0".into(),
                source: "S0".into(),
                holds: true,
                certified: true,
            },
            Expectation::Equivalence {
                left: "T0".into(),
                right: "Redact".into(),
                source: "S0".into(),
                holds: false,
                certified: true,
            },
        ],
        primary: Primary {
            source: "S0".into(),
            transform: "T0".into(),
            target: "S1".into(),
            instance: "chains".into(),
        },
    }
}
