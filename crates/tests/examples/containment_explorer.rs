//! Query containment modulo schema, hands-on: reproduces the paper's
//! Example 5.2 (Figure 2), where finite and unrestricted containment
//! *differ*, and shows the completion (cycle reversing, Example 5.5)
//! bridging the gap.
//!
//! ```sh
//! cargo run -p gts-tests --example containment_explorer
//! ```

use gts_containment::{complete, rollup_negation, CompletionConfig};
use gts_core::prelude::*;
use gts_dl::HornTbox;

pub fn main() {
    let mut vocab = Vocab::new();
    let a = vocab.node_label("A");
    let s_edge = vocab.edge_label("s");
    let r_edge = vocab.edge_label("r");

    // The schema S of Figure 2: every node has at least one outgoing and
    // at most one incoming s-edge; r-edges are unrestricted.
    let mut schema = Schema::new();
    schema.set_edge(a, s_edge, a, Mult::Plus, Mult::Opt);
    schema.set_edge(a, r_edge, a, Mult::Star, Mult::Star);
    println!("Schema S (Figure 2):\n{}\n", schema.render(&vocab));

    // P = ∃x. r(x,x)        (an r-self-loop exists)
    // Q = ∃x,y. (r·s⁺·r)(x,y)
    let p = Uc2rpq::single(C2rpq::new(
        1,
        vec![],
        vec![Atom { x: Var(0), y: Var(0), regex: Regex::edge(r_edge) }],
    ));
    let splus = Regex::edge(s_edge).then(Regex::edge(s_edge).star());
    let q = Uc2rpq::single(C2rpq::new(
        2,
        vec![],
        vec![Atom {
            x: Var(0),
            y: Var(1),
            regex: Regex::edge(r_edge).then(splus).then(Regex::edge(r_edge)),
        }],
    ));
    println!("P: {}", p.render(&vocab));
    println!("Q: {}\n", q.render(&vocab));

    // ── The finite-model intuition (Example 5.2) ───────────────────────
    // In a finite graph conforming to S, the s-edges form disjoint cycles
    // (G0 in Figure 2), so from any r-self-loop node an s-cycle leads back
    // to it: follow r, go around the cycle, take r again — Q holds.
    let mut g0 = Graph::new();
    let nodes: Vec<_> = (0..3).map(|_| g0.add_labeled_node([a])).collect();
    for i in 0..3 {
        g0.add_edge(nodes[i], s_edge, nodes[(i + 1) % 3]);
    }
    g0.add_edge(nodes[0], r_edge, nodes[0]);
    assert!(schema.conforms(&g0).is_ok());
    assert!(p.holds(&g0) && q.holds(&g0));
    println!("Finite witness G0 (3-cycle of s + r-loop): P ✓, Q ✓ — no counterexample here.");

    // ── The decision (Theorem 5.1) ─────────────────────────────────────
    let opts = ContainmentOptions::default();
    let ans = contains(&p, &q, &schema, &mut vocab, &opts).unwrap();
    println!(
        "\nDecision: P ⊆_S Q over finite graphs: holds={} certified={}",
        ans.holds, ans.certified
    );
    assert!(ans.holds && ans.certified);

    // ── Peek under the hood: the completion at work (Example 5.5) ──────
    // The containment holds *only because of cycle reversing*: the infinite
    // s-tree G∞ of Figure 2 satisfies P but not Q, so naive unrestricted
    // reasoning would refute the containment. We rebuild the TBox manually
    // and show what the completion adds.
    let (choices, _) = rollup_negation(&q, &mut vocab).unwrap();
    let t = HornTbox::merged([&schema.hat_tbox(), &choices[0]]);
    let completion =
        complete(&t, &schema.node_label_set(), &Budget::default(), &CompletionConfig::default());
    println!(
        "\nCompletion of T̂_S ∪ T¬Q: {} concept inclusions added by finmod-cycle reversal:",
        completion.added
    );
    for ci in completion.tbox.cis.iter().skip(t.len()) {
        println!("  {}", ci.render(&vocab));
    }

    // ── Contrast: drop the at-most constraint and containment fails ────
    let mut loose_schema = Schema::new();
    loose_schema.set_edge(a, s_edge, a, Mult::Plus, Mult::Star);
    loose_schema.set_edge(a, r_edge, a, Mult::Star, Mult::Star);
    let ans2 = contains(&p, &q, &loose_schema, &mut vocab, &opts).unwrap();
    println!("\nWithout δ(A, s⁻, A) = ? : holds={} certified={}", ans2.holds, ans2.certified);
    assert!(!ans2.holds);

    // And here a finite counterexample genuinely exists: an r-loop node
    // whose s-edge leads away into a separate s-cycle.
    let mut cex = Graph::new();
    let u = cex.add_labeled_node([a]);
    let w = cex.add_labeled_node([a]);
    cex.add_edge(u, r_edge, u);
    cex.add_edge(u, s_edge, w);
    cex.add_edge(w, s_edge, w);
    assert!(loose_schema.conforms(&cex).is_ok());
    assert!(p.holds(&cex) && !q.holds(&cex));
    println!("Finite counterexample found for the loosened schema — as theory predicts.");
}
