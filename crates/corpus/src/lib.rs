//! # gts-corpus
//!
//! A deterministic, seeded generator of named scenario families — the
//! correctness and performance substrate every bench and harness in this
//! workspace measures against. Each [`Family`] produces a [`Scenario`]:
//! schemas, a suite of transformations (migrations, redactions,
//! denormalizations), conforming instances at a parameterized node
//! scale, and expected-verdict annotations that the static analyses must
//! reproduce and the differential harness cross-checks dynamically.
//!
//! The families:
//!
//! * [`Family::Medical`] — the paper's Example 4.1 / Figure 1 fixture
//!   ([`medical_fixture`], scaled by [`medical_instance`]);
//! * [`Family::Fhir`] — a FHIR-style clinical-records migration
//!   (Patient/Encounter/Observation/Practitioner/Condition) with a
//!   derived `observed` shortcut and a practitioner redaction;
//! * [`Family::Social`] — an LDBC-like social network
//!   (Person/Forum/Post/Comment) whose denormalization traverses inverse
//!   steps (`hasCreator⁻ · containerOf⁻`);
//! * [`Family::Retail`] — a retail/orders star schema flattened by a
//!   three-hop `bought` derivation over mandatory (`+`/`1`)
//!   participations;
//! * [`Family::Stress`] — adversarial deep-alternation/star RPQ bodies
//!   over a small relay schema, including nested-loop tests;
//! * [`Family::Hardness`] — the EXPTIME reduction schema of Theorem F.1
//!   (`gts-hardness`), with a generic copy transformation and encoded
//!   accepting-run instances.
//!
//! Generation is a pure function of `(family, Params { seed, scale })`:
//! the same inputs produce byte-identical vocabularies, schemas,
//! transformations, and instances, which the proptest suite pins.

#![warn(missing_docs)]

use gts_core::prelude::*;
use gts_core::Transformation;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod fhir;
mod hardn;
mod medical;
mod paper;
mod retail;
mod social;
mod stress;

pub use medical::{medical_fixture, medical_instance};
pub use paper::{chain_instance, fig2, Fig2Fixture};

/// The named scenario families of the corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Example 4.1 / Figure 1 — the paper's medical knowledge graph.
    Medical,
    /// FHIR-style clinical-records migration and redaction.
    Fhir,
    /// LDBC-like social network denormalization (inverse-heavy).
    Social,
    /// Retail/orders denormalization over mandatory participations.
    Retail,
    /// Deep-alternation/star RPQ stressors.
    Stress,
    /// EXPTIME hardness-reduction schemas from `gts-hardness`.
    Hardness,
}

impl Family {
    /// All families, in canonical order.
    pub const ALL: [Family; 6] = [
        Family::Medical,
        Family::Fhir,
        Family::Social,
        Family::Retail,
        Family::Stress,
        Family::Hardness,
    ];

    /// The canonical lower-case name (CLI `--family` argument).
    pub fn name(self) -> &'static str {
        match self {
            Family::Medical => "medical",
            Family::Fhir => "fhir",
            Family::Social => "social",
            Family::Retail => "retail",
            Family::Stress => "stress",
            Family::Hardness => "hardness",
        }
    }

    /// Parses a family name (as produced by [`Family::name`]).
    pub fn from_name(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }

    /// A one-line description for `gts corpus list`.
    pub fn description(self) -> &'static str {
        match self {
            Family::Medical => "Example 4.1 medical knowledge graph (the paper's baseline)",
            Family::Fhir => "FHIR-style clinical records: migration + practitioner redaction",
            Family::Social => "LDBC-like social network: inverse-step denormalization",
            Family::Retail => "retail/orders star schema: three-hop bought derivation",
            Family::Stress => "deep alternation/star RPQ stressors over a relay schema",
            Family::Hardness => "EXPTIME reduction schema (Theorem F.1) with copy suite",
        }
    }
}

/// Generation parameters: everything a scenario depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Seed for all randomized choices (instance shapes).
    pub seed: u64,
    /// Approximate node count of the primary instance.
    pub scale: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params { seed: 0xC0_FF_EE, scale: 60 }
    }
}

impl Params {
    /// The quick profile used by CI smoke runs.
    pub fn quick() -> Params {
        Params { scale: 24, ..Params::default() }
    }
}

/// A named conforming instance of one of the scenario's schemas.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Instance name (also the fixture-file stem on emit).
    pub name: String,
    /// Name of the schema this instance conforms to.
    pub schema: String,
    /// The graph itself.
    pub graph: Graph,
}

/// An expected verdict of a static analysis over the scenario, the
/// ground truth the corpus pins: `gts corpus check` reruns the analysis
/// and compares, and the differential harness cross-checks the claim
/// dynamically on sampled instances.
///
/// `holds` is the *semantic* truth — what execution over conforming
/// instances exhibits. `certified` records whether the decision
/// procedure certifies that answer at default budgets: when `true`, the
/// static verdict must equal `holds` and be certified; when `false`,
/// only the (lack of) certification is pinned — the uncertified static
/// answer carries no guarantee, and may even disagree with `holds`
/// (the `stress` family ships exactly such a frontier case, which the
/// differential harness then refutes dynamically). A `certified: false`
/// annotation is a ratchet: if the oracle later learns to certify the
/// verdict, the corpus check fails and the annotation gets upgraded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// `transform : source → target` type-checks (or semantically does
    /// not).
    TypeCheck {
        /// Transformation name.
        transform: String,
        /// Source schema name.
        source: String,
        /// Target schema name.
        target: String,
        /// Whether the property semantically holds.
        holds: bool,
        /// Whether the static verdict is certified at default budgets.
        certified: bool,
    },
    /// `left ≡ right` modulo `source` (or semantically not).
    Equivalence {
        /// Left transformation name.
        left: String,
        /// Right transformation name.
        right: String,
        /// Source schema name.
        source: String,
        /// Whether the property semantically holds.
        holds: bool,
        /// Whether the static verdict is certified at default budgets.
        certified: bool,
    },
}

impl Expectation {
    /// The semantic ground truth of this expectation.
    pub fn holds(&self) -> bool {
        match self {
            Expectation::TypeCheck { holds, .. } | Expectation::Equivalence { holds, .. } => *holds,
        }
    }

    /// Whether the static analysis certifies this verdict.
    pub fn certified(&self) -> bool {
        match self {
            Expectation::TypeCheck { certified, .. }
            | Expectation::Equivalence { certified, .. } => *certified,
        }
    }
}

/// The scenario's headline workload, the one benches sweep: a
/// type-checkable migration plus an instance to execute it on.
#[derive(Clone, Debug)]
pub struct Primary {
    /// Source schema name.
    pub source: String,
    /// Transformation name.
    pub transform: String,
    /// Target schema name.
    pub target: String,
    /// Primary instance name (conforms to `source`).
    pub instance: String,
}

/// A fully generated scenario: one family at one `(seed, scale)`.
#[derive(Clone)]
pub struct Scenario {
    /// The generating family.
    pub family: Family,
    /// The generation parameters.
    pub params: Params,
    /// Vocabulary interning every label, in a fixed order.
    pub vocab: Vocab,
    /// Named schemas, in render order.
    pub schemas: Vec<(String, Schema)>,
    /// Named transformations, in render order.
    pub transforms: Vec<(String, Transformation)>,
    /// Named queries (currently only the hardness family ships any).
    pub queries: Vec<(String, Uc2rpq)>,
    /// Conforming instances.
    pub instances: Vec<Instance>,
    /// Expected analysis verdicts.
    pub expectations: Vec<Expectation>,
    /// The headline bench workload.
    pub primary: Primary,
}

impl Scenario {
    /// Looks up a schema by name.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.schemas.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Looks up a transformation by name.
    pub fn transform(&self, name: &str) -> Option<&Transformation> {
        self.transforms.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Looks up an instance by name.
    pub fn instance(&self, name: &str) -> Option<&Instance> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// Checks that every instance conforms to its declared schema.
    pub fn check_conformance(&self) -> Result<(), String> {
        for inst in &self.instances {
            let schema = self.schema(&inst.schema).ok_or_else(|| {
                format!("instance {} names unknown schema {}", inst.name, inst.schema)
            })?;
            schema
                .conforms(&inst.graph)
                .map_err(|e| format!("instance {} violates {}: {e:?}", inst.name, inst.schema))?;
        }
        Ok(())
    }

    /// Checks that every transformation validates.
    pub fn check_transforms(&self) -> Result<(), String> {
        for (name, t) in &self.transforms {
            t.validate().map_err(|e| format!("transform {name} is ill-formed: {e:?}"))?;
        }
        Ok(())
    }
}

/// Generates the scenario of `family` at `params`. Deterministic: the
/// same inputs yield bit-identical output (pinned under proptest).
pub fn scenario(family: Family, params: &Params) -> Scenario {
    // Salt the seed per family so `--seed N` sweeps don't hand every
    // family correlated instance shapes.
    let salt = family.name().bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    let mut rng = StdRng::seed_from_u64(params.seed ^ salt);
    match family {
        Family::Medical => medical::build(params, &mut rng),
        Family::Fhir => fhir::build(params, &mut rng),
        Family::Social => social::build(params, &mut rng),
        Family::Retail => retail::build(params, &mut rng),
        Family::Stress => stress::build(params, &mut rng),
        Family::Hardness => hardn::build(params, &mut rng),
    }
}

/// Shared rule-body helpers used by every family builder.
pub(crate) mod dsl {
    use gts_core::prelude::*;

    /// `(A)(x)` — the unary label-test body of a copy node rule.
    pub fn unary(label: NodeLabel) -> C2rpq {
        C2rpq::new(1, vec![Var(0)], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(label) }])
    }

    /// `re(x, y)` — the binary body of an edge rule.
    pub fn binary(re: Regex) -> C2rpq {
        C2rpq::new(2, vec![Var(0), Var(1)], vec![Atom { x: Var(0), y: Var(1), regex: re }])
    }

    /// `(A · r · B)(x, y)` — a label-guarded single-edge copy body.
    pub fn guarded(a: NodeLabel, r: EdgeLabel, b: NodeLabel) -> C2rpq {
        binary(Regex::node(a).then(Regex::edge(r)).then(Regex::node(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_roundtrip() {
        for f in Family::ALL {
            assert_eq!(Family::from_name(f.name()), Some(f));
        }
        assert_eq!(Family::from_name("nonesuch"), None);
    }

    #[test]
    fn every_family_builds_validates_and_conforms() {
        let params = Params::quick();
        for f in Family::ALL {
            let sc = scenario(f, &params);
            assert_eq!(sc.family, f);
            sc.check_transforms().unwrap_or_else(|e| panic!("{}: {e}", f.name()));
            sc.check_conformance().unwrap_or_else(|e| panic!("{}: {e}", f.name()));
            assert!(!sc.expectations.is_empty(), "{} has no expectations", f.name());
            assert!(sc.schema(&sc.primary.source).is_some(), "{} primary source", f.name());
            assert!(sc.schema(&sc.primary.target).is_some(), "{} primary target", f.name());
            assert!(
                sc.transform(&sc.primary.transform).is_some(),
                "{} primary transform",
                f.name()
            );
            assert!(sc.instance(&sc.primary.instance).is_some(), "{} primary instance", f.name());
        }
    }

    #[test]
    fn primary_instances_track_the_scale_knob() {
        for f in Family::ALL {
            let small = scenario(f, &Params { seed: 7, scale: 20 });
            let large = scenario(f, &Params { seed: 7, scale: 120 });
            let n_small = small.instance(&small.primary.instance).unwrap().graph.num_nodes();
            let n_large = large.instance(&large.primary.instance).unwrap().graph.num_nodes();
            assert!(
                n_large > n_small,
                "{}: scale 120 gave {n_large} nodes vs {n_small} at scale 20",
                f.name()
            );
        }
    }

    #[test]
    fn expectations_hold_dynamically_on_shipped_instances() {
        // The static analyses are cross-checked in crates/tests; here we
        // sanity-check the *annotations themselves* against the shipped
        // instances: a holds=true type check may never be violated by an
        // instance the corpus itself generated.
        let params = Params::quick();
        for f in Family::ALL {
            let sc = scenario(f, &params);
            for exp in &sc.expectations {
                if let Expectation::TypeCheck { transform, source, target, holds: true, .. } = exp {
                    let t = sc.transform(transform).unwrap();
                    let tgt = sc.schema(target).unwrap();
                    for inst in sc.instances.iter().filter(|i| &i.schema == source) {
                        let out = t.apply(&inst.graph);
                        assert_eq!(
                            tgt.conforms(&out),
                            Ok(()),
                            "{}: {transform} on {} breaks {target}",
                            f.name(),
                            inst.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixtures_are_well_formed() {
        let (_, _, _, t0) = medical_fixture();
        assert!(t0.validate().is_ok());
        let f = fig2();
        assert!(f.q.is_acyclic());
        let mut v = Vocab::new();
        let (s, p, q) = chain_instance(4, 1, &mut v);
        assert!(!s.node_labels().is_empty());
        assert!(p.is_acyclic() && q.is_acyclic());
    }

    #[test]
    fn medical_instances_conform_and_scale() {
        let (vocab, s0, _, t0) = medical_fixture();
        let g = medical_instance(&vocab, 4, 8);
        assert_eq!(g.num_nodes(), 4 * (2 + 8));
        assert_eq!(s0.conforms(&g), Ok(()));
        // RPQ-heavy: every vaccine targets its whole chain.
        let out = t0.apply(&g);
        let targets = vocab.find_edge_label("targets").unwrap();
        assert_eq!(out.edges().filter(|(_, l, _)| *l == targets).count(), 4 * 8);
    }

    #[test]
    fn chain_instance_containment_semantics() {
        // k+1 < n → every k-step endpoint still has an outgoing edge.
        let opts = ContainmentOptions::default();
        let mut v = Vocab::new();
        let (s, p, q) = chain_instance(4, 1, &mut v);
        let ans = contains(&p, &q, &s, &mut v, &opts).unwrap();
        assert!(ans.holds && ans.certified);
        let mut v2 = Vocab::new();
        let (s2, p2, q2) = chain_instance(4, 3, &mut v2);
        let ans2 = contains(&p2, &q2, &s2, &mut v2, &opts).unwrap();
        assert!(!ans2.holds);
    }
}
