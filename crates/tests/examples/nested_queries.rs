//! Nested regular path queries (NREs) — the Section 7 "Extending queries"
//! extension — on a social-network graph.
//!
//! Demonstrates: evaluation of nests (including under `*`), exact
//! flattening into plain C2RPQs, schema-aware containment with a nested
//! right-hand side, and NRE rule bodies in executable transformations.
//!
//! Run with `cargo run -p gts-tests --example nested_queries`.

use gts_core::containment::{contains_nre, ContainmentOptions};
use gts_core::prelude::*;
use gts_core::query::{Nre, NreAtom, NreC2rpq, NreUc2rpq, Var};
use gts_core::schema::Mult;

pub fn main() {
    let mut v = Vocab::new();
    let person = v.node_label("Person");
    let post = v.node_label("Post");
    let influencer = v.node_label("Influencer");
    let follows = v.edge_label("follows");
    let likes = v.edge_label("likes");

    // Schema: Person −follows→ Person, Person −likes→ Post.
    let mut s = Schema::new();
    s.set_edge(person, follows, person, Mult::Star, Mult::Star);
    s.set_edge(person, likes, post, Mult::Star, Mult::Star);

    // A small network: alice → bob → carol → dave; bob and carol like a
    // post, dave does not.
    let mut g = Graph::new();
    let alice = g.add_labeled_node([person]);
    let bob = g.add_labeled_node([person]);
    let carol = g.add_labeled_node([person]);
    let dave = g.add_labeled_node([person]);
    let meme = g.add_labeled_node([post]);
    g.add_edge(alice, follows, bob);
    g.add_edge(bob, follows, carol);
    g.add_edge(carol, follows, dave);
    g.add_edge(bob, likes, meme);
    g.add_edge(carol, likes, meme);

    // ⟨likes⟩ — "is a liker" — used as a test inside a path.
    let liker = Nre::nest(Nre::edge(likes));

    // Q1: follow-chains passing only through likers: (follows·⟨likes⟩)⁺.
    let step = Nre::edge(follows).then(liker.clone());
    let chain = step.clone().then(step.clone().star());
    println!("Q1 = {}\n", chain.render(&v));
    let pairs = chain.pairs(&g, &mut v);
    let mut sorted: Vec<_> = pairs.iter().collect();
    sorted.sort();
    println!("chains through likers in the demo graph:");
    for (x, y) in sorted {
        println!("  n{} ⇝ n{}", x.0, y.0);
    }
    println!(
        "(dave appears in no chain: each step ends in the ⟨likes⟩ test, \
              and dave likes nothing)\n"
    );

    // Flattening: the nest NOT under a star flattens exactly.
    let one_step = NreC2rpq::new(
        2,
        vec![Var(0), Var(1)],
        vec![NreAtom { x: Var(0), y: Var(1), nre: step.clone() }],
    );
    let flat = one_step.flatten().expect("no nest under star here");
    println!(
        "flattened (follows·⟨likes⟩)(x,y) into {} plain conjunct(s), {} atoms",
        flat.len(),
        flat[0].atoms.len()
    );
    println!("  {}\n", flat[0].render(&v));

    // Containment modulo schema with a *star-nested* right-hand side,
    // where flattening is impossible — the lowering pipeline handles it.
    let p = NreUc2rpq::single(NreC2rpq::new(
        3,
        vec![],
        vec![
            NreAtom { x: Var(0), y: Var(1), nre: Nre::edge(follows) },
            NreAtom { x: Var(1), y: Var(2), nre: Nre::edge(likes) },
        ],
    ));
    let q = NreUc2rpq::single(NreC2rpq::new(
        2,
        vec![],
        vec![NreAtom { x: Var(0), y: Var(1), nre: chain.clone() }],
    ));
    let ans = contains_nre(&p, &q, &s, &mut v, &ContainmentOptions::default()).unwrap();
    println!(
        "∃ follows∧likes  ⊆_S  ∃ (follows·⟨likes⟩)⁺ ?  {} ({})",
        if ans.holds { "yes" } else { "no" },
        if ans.certified { "certified" } else { "uncertified" }
    );

    // With likes forced by the schema, even a bare follows-edge entails
    // the nested chain.
    let mut s_forced = Schema::new();
    s_forced.set_edge(person, follows, person, Mult::Star, Mult::Star);
    s_forced.set_edge(person, likes, post, Mult::One, Mult::Star);
    let bare = NreUc2rpq::single(NreC2rpq::new(
        2,
        vec![],
        vec![NreAtom { x: Var(0), y: Var(1), nre: Nre::edge(follows) }],
    ));
    let ans2 = contains_nre(&bare, &q, &s_forced, &mut v, &ContainmentOptions::default()).unwrap();
    println!(
        "with δ(Person,likes,Post)=1:  ∃ follows  ⊆_S  ∃ (follows·⟨likes⟩)⁺ ?  {} ({})\n",
        if ans2.holds { "yes" } else { "no" },
        if ans2.certified { "certified" } else { "uncertified" }
    );
    assert!(ans2.holds && ans2.certified, "a forced likes-edge witnesses every nest");

    // NRE rule bodies: mark followed likers as Influencer copies.
    let mut t = Transformation::new();
    t.add_node_rule_nre(
        influencer,
        NreC2rpq::new(
            2,
            vec![Var(0)],
            vec![
                NreAtom { x: Var(1), y: Var(0), nre: Nre::edge(follows) },
                NreAtom { x: Var(0), y: Var(0), nre: liker },
            ],
        ),
    )
    .expect("flattenable body");
    t.validate().unwrap();
    let out = t.apply(&g);
    println!(
        "transformation `Influencer(f(x)) ← follows(y,x) ∧ ⟨likes⟩(x)` \
         creates {} influencer node(s) (bob and carol)",
        out.num_nodes()
    );
    assert_eq!(out.num_nodes(), 2);
}
