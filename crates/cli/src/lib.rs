//! # gts-cli
//!
//! The `.gts` text format and command-line interface of the `gts`
//! workspace: a human-writable syntax for schemas with participation
//! constraints, graph transformations with (nested-)C2RPQ rule bodies,
//! graphs, and queries — plus the `gts` binary that runs the paper's
//! three static analyses (type checking, equivalence, schema elicitation)
//! and query containment on such files. `gts batch` runs the full
//! analysis suite of many files through `gts-engine`'s cached sessions
//! and emits machine-readable JSON.
//!
//! ```
//! use gts_cli::GtsFile;
//!
//! let src = r#"
//! schema S {
//!   node Person
//!   edge Person -knows-> Person [*, *]
//! }
//! query Knows(x, y) { (knows)(x, y) }
//! "#;
//! let file = GtsFile::parse(src).unwrap();
//! assert_eq!(file.schemas.len(), 1);
//! assert!(file.query("Knows").is_some());
//! ```

#![warn(missing_docs)]

mod commands;
mod corpus_cmd;
mod instance;
mod lex;
mod parse;
mod print;
mod remote;

pub use commands::{run, Outcome};
pub use corpus_cmd::{instance_fixtures, scenario_file};
pub use instance::{parse_delta, parse_instance, print_instance, raw_instance};
pub use lex::{lex, ParseError, Tok, Token};
pub use parse::{GtsFile, NamedGraph};
pub use print::{
    c2rpq_body_str, graph_block, mult_str, nre_body_str, nre_str, raw_graph_block, render_file,
    schema_block, transform_block,
};
pub use remote::frontend;

#[cfg(test)]
mod tests {
    use super::*;

    const MEDICAL: &str = r#"
# Figure 1 of the paper: the medical knowledge graph.
schema S0 {
  node Vaccine
  node Antigen
  node Pathogen
  edge Vaccine -designTarget-> Antigen [1, *]
  edge Antigen -crossReacting-> Antigen [*, *]
  edge Pathogen -exhibits-> Antigen [+, *]
}

schema S1 {
  node Vaccine
  node Antigen
  node Pathogen
  edge Vaccine -designTarget-> Antigen [1, *]
  edge Vaccine -targets-> Antigen [+, *]
  edge Pathogen -exhibits-> Antigen [+, *]
}

transform T0 {
  Vaccine(f(x)) <- (Vaccine)(x)
  Antigen(f(x)) <- (Antigen)(x)
  designTarget(Vaccine(x), Antigen(y)) <- (designTarget)(x, y)
  targets(Vaccine(x), Antigen(y)) <- (designTarget . crossReacting*)(x, y)
  Pathogen(f(x)) <- (Pathogen)(x)
  exhibits(Pathogen(x), Antigen(y)) <- (exhibits)(x, y)
}

graph G {
  v1 : Vaccine
  a1 : Antigen
  a2 : Antigen
  p1 : Pathogen
  v1 -designTarget-> a1
  a1 -crossReacting-> a2
  p1 -exhibits-> a1
  p1 -exhibits-> a2
}

query Targets(x, y) {
  (designTarget . crossReacting*)(x, y)
}

query Direct(x, y) {
  (designTarget)(x, y)
}
"#;

    fn read_mem(src: &'static str) -> impl Fn(&str) -> Result<String, String> {
        move |_path| Ok(src.to_owned())
    }

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_medical_file() {
        let f = GtsFile::parse(MEDICAL).unwrap();
        assert_eq!(f.schemas.len(), 2);
        assert_eq!(f.transforms.len(), 1);
        assert_eq!(f.graphs.len(), 1);
        assert_eq!(f.queries.len(), 2);
        let t = f.transform("T0").unwrap();
        assert_eq!(t.rules.len(), 6);
        let g = f.graph("G").unwrap();
        assert_eq!(g.graph.num_nodes(), 4);
        assert_eq!(g.graph.num_edges(), 4);
    }

    #[test]
    fn round_trip_is_stable() {
        let f = GtsFile::parse(MEDICAL).unwrap();
        let once = render_file(&f);
        let f2 = GtsFile::parse(&once).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{once}"));
        let twice = render_file(&f2);
        assert_eq!(once, twice, "canonical rendering must be a fixpoint");
    }

    #[test]
    fn cli_type_check_passes_against_s1() {
        let out =
            run(&args("check mem.gts --transform T0 --source S0 --target S1"), &read_mem(MEDICAL));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("HOLDS"));
        assert!(out.output.contains("certified"));
    }

    #[test]
    fn cli_type_check_fails_against_s0() {
        // S0 has no `targets` edge label: type checking must fail.
        let out =
            run(&args("check mem.gts --transform T0 --source S0 --target S0"), &read_mem(MEDICAL));
        assert_eq!(out.code, 1, "{}", out.output);
        assert!(out.output.contains("FAILS"));
    }

    #[test]
    fn cli_containment_on_queries() {
        // Direct ⊆ Targets, but not the other way (crossReacting exists).
        let out =
            run(&args("contains mem.gts --p Direct --q Targets --schema S0"), &read_mem(MEDICAL));
        assert_eq!(out.code, 0, "{}", out.output);
        let out2 =
            run(&args("contains mem.gts --p Targets --q Direct --schema S0"), &read_mem(MEDICAL));
        assert_eq!(out2.code, 1, "{}", out2.output);
        assert!(out2.output.contains("graph Counterexample"), "{}", out2.output);
        assert!(out2.output.contains("witness tuple"), "{}", out2.output);
    }

    #[test]
    fn cli_apply_and_conform() {
        let out = run(&args("apply mem.gts --transform T0 --graph G"), &read_mem(MEDICAL));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("targets"), "{}", out.output);
        // The input graph conforms to S0.
        let c = run(&args("conform mem.gts --graph G --schema S0"), &read_mem(MEDICAL));
        assert_eq!(c.code, 0, "{}", c.output);
        // It does not conform to S1 (no targets edges yet → Vaccine
        // violates the `+` on targets).
        let c2 = run(&args("conform mem.gts --graph G --schema S1"), &read_mem(MEDICAL));
        assert_eq!(c2.code, 1, "{}", c2.output);
    }

    const INSTANCE: &str = "\
# the Figure 1 instance, in the standalone instance format
node v1 Vaccine
node a1 Antigen
node a2 Antigen
node p1 Pathogen
edge v1 designTarget a1
edge a1 crossReacting a2
edge p1 exhibits a1
edge p1 exhibits a2
";

    fn read_two(path: &str) -> Result<String, String> {
        match path {
            "mem.gts" => Ok(MEDICAL.to_owned()),
            "inst.graph" => Ok(INSTANCE.to_owned()),
            other => Err(format!("cannot read {other}")),
        }
    }

    #[test]
    fn cli_run_executes_an_instance_end_to_end() {
        let out = run(&args("run mem.gts --transform T0 --instance inst.graph"), &read_two);
        assert_eq!(out.code, 0, "{}", out.output);
        // The derived closure edge is present, crossReacting is gone.
        assert!(out.output.contains("targets"), "{}", out.output);
        assert!(!out.output.contains("crossReacting"), "{}", out.output);
        // The output is itself a parseable instance.
        let mut vocab = gts_core::graph::Vocab::new();
        let reparsed = parse_instance(&out.output, &mut vocab).unwrap();
        assert_eq!(reparsed.graph.num_nodes(), 4);
    }

    #[test]
    fn cli_run_checks_output_conformance() {
        let ok = run(
            &args("run mem.gts --transform T0 --instance inst.graph --check-schema S1"),
            &read_two,
        );
        assert_eq!(ok.code, 0, "{}", ok.output);
        assert!(ok.output.contains("output conforms"), "{}", ok.output);
        // S0 has no `targets` label: the very same output violates it.
        let bad = run(
            &args("run mem.gts --transform T0 --instance inst.graph --check-schema S0"),
            &read_two,
        );
        assert_eq!(bad.code, 1, "{}", bad.output);
        assert!(bad.output.contains("output violation"), "{}", bad.output);
    }

    #[test]
    fn cli_run_dot_with_check_keeps_valid_dot() {
        let out = run(
            &args("run mem.gts --transform T0 --instance inst.graph --dot --check-schema S1"),
            &read_two,
        );
        assert_eq!(out.code, 0, "{}", out.output);
        // The conformance comment must land on its own line after `}`.
        assert!(out.output.contains("}\n# output conforms"), "{}", out.output);
    }

    #[test]
    fn cli_run_naive_and_indexed_agree() {
        let indexed =
            run(&args("run mem.gts --transform T0 --instance inst.graph --threads 2"), &read_two);
        let naive =
            run(&args("run mem.gts --transform T0 --instance inst.graph --naive"), &read_two);
        assert_eq!(indexed.code, 0);
        assert_eq!(naive.code, 0);
        // Same fact counts (node ids may differ between the engines).
        assert_eq!(indexed.output.lines().count(), naive.output.lines().count());
    }

    #[test]
    fn cli_run_reports_instance_parse_errors() {
        let read = |path: &str| -> Result<String, String> {
            match path {
                "mem.gts" => Ok(MEDICAL.to_owned()),
                _ => Ok("node a\nedge a nope".to_owned()),
            }
        };
        let out = run(&args("run mem.gts --transform T0 --instance bad.graph"), &read);
        assert_eq!(out.code, 2, "{}", out.output);
        assert!(out.output.contains("line 2"), "{}", out.output);
    }

    #[test]
    fn cli_run_delta_matches_a_run_on_the_hand_patched_instance() {
        // Chunk 1 splices a fresh antigen after a1; chunk 2 reconnects it
        // to a2 and drops one exhibits edge. The fresh name `a3` resolves
        // across the `---` boundary.
        const DELTA: &str = "\
add node a3 Antigen
del edge a1 crossReacting a2
add edge a1 crossReacting a3
---
add edge a3 crossReacting a2
del edge p1 exhibits a1
";
        const PATCHED: &str = "\
node v1 Vaccine
node a1 Antigen
node a2 Antigen
node p1 Pathogen
node a3 Antigen
edge v1 designTarget a1
edge a1 crossReacting a3
edge a3 crossReacting a2
edge p1 exhibits a2
";
        let read = |path: &str| -> Result<String, String> {
            match path {
                "patched.graph" => Ok(PATCHED.to_owned()),
                "d.delta" => Ok(DELTA.to_owned()),
                other => read_two(other),
            }
        };
        let patched =
            run(&args("run mem.gts --transform T0 --instance inst.graph --delta d.delta"), &read);
        assert_eq!(patched.code, 0, "{}", patched.output);
        let (trailers, body): (Vec<&str>, Vec<&str>) =
            patched.output.lines().partition(|l| l.starts_with("# delta #"));
        assert_eq!(trailers.len(), 2, "{}", patched.output);
        let full = run(&args("run mem.gts --transform T0 --instance patched.graph"), &read);
        assert_eq!(full.code, 0, "{}", full.output);
        assert_eq!(body, full.output.lines().collect::<Vec<_>>());
        assert!(full.output.contains("targets"), "{}", full.output);
    }

    #[test]
    fn cli_elicit_prints_a_schema() {
        let out = run(&args("elicit mem.gts --transform T0 --source S0"), &read_mem(MEDICAL));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("schema Elicited"), "{}", out.output);
        assert!(out.output.contains("targets"), "{}", out.output);
    }

    #[test]
    fn cli_equivalence_self() {
        let out = run(&args("equiv mem.gts --t1 T0 --t2 T0 --source S0"), &read_mem(MEDICAL));
        assert_eq!(out.code, 0, "{}", out.output);
    }

    #[test]
    fn cli_batch_emits_json() {
        let out = run(&args("batch mem.gts --threads 2"), &read_mem(MEDICAL));
        // T0 does not type check against the source schema S0, so the
        // suite contains failing verdicts → exit code 1.
        assert_eq!(out.code, 1, "{}", out.output);
        // One JSON document with a per-request entry and cache counters.
        assert!(out.output.contains("\"file\": \"mem.gts\""), "{}", out.output);
        assert!(out.output.contains("\"check T0: S0 -> S1\""), "{}", out.output);
        assert!(out.output.contains("\"elicit T0 from S0\""), "{}", out.output);
        assert!(out.output.contains("\"containment_cache\""), "{}", out.output);
        assert!(out.output.contains("\"hit_rate\""), "{}", out.output);
        // The S0→S1 type check holds (Example 1.1) and the elicited
        // schema mentions the derived `targets` edge.
        assert!(out.output.contains("targets"), "{}", out.output);
    }

    #[test]
    fn cli_batch_stats_emits_the_session_block() {
        let out = run(&args("batch mem.gts --stats"), &read_mem(MEDICAL));
        assert_eq!(out.code, 1, "{}", out.output);
        assert!(out.output.contains("\"session\""), "{}", out.output);
        assert!(out.output.contains("\"approx_bytes\""), "{}", out.output);
        assert!(out.output.contains("\"entries\""), "{}", out.output);
        // Without --stats the occupancy block stays out of the document.
        let plain = run(&args("batch mem.gts"), &read_mem(MEDICAL));
        assert!(!plain.output.contains("\"approx_bytes\""), "{}", plain.output);
    }

    #[test]
    fn cli_client_requires_files_or_a_verb() {
        // No server is listening here: the connect itself must fail
        // cleanly with a usage-style error (exit 2).
        let out = run(&args("client --addr 127.0.0.1:9 --verb ping"), &read_mem(MEDICAL));
        assert_eq!(out.code, 2, "{}", out.output);
        assert!(out.output.contains("cannot connect"), "{}", out.output);
    }

    #[test]
    fn cli_batch_requires_files() {
        let out = run(&args("batch"), &read_mem(MEDICAL));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("at least one"), "{}", out.output);
    }

    #[test]
    fn cli_cache_dir_persists_verdicts_across_runs() {
        let dir = std::env::temp_dir().join(format!("gts-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = format!(
            "check mem.gts --transform T0 --source S0 --target S1 --cache-dir {}",
            dir.display()
        );
        let first = run(&args(&cmd), &read_mem(MEDICAL));
        assert_eq!(first.code, 0, "{}", first.output);
        let stores = std::fs::read_dir(&dir).unwrap().count();
        assert!(stores >= 1, "a .gtsc store landed on disk");
        // The warm run replays the identical verdict from disk.
        let second = run(&args(&cmd), &read_mem(MEDICAL));
        assert_eq!(second.code, 0, "{}", second.output);
        assert_eq!(first.output, second.output);
        // --no-cache vetoes --cache-dir: no store is touched or created.
        let off = std::env::temp_dir().join(format!("gts-cli-nocache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&off);
        let cmd_off = format!(
            "check mem.gts --transform T0 --source S0 --target S1 --cache-dir {} --no-cache",
            off.display()
        );
        let out = run(&args(&cmd_off), &read_mem(MEDICAL));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(!off.exists(), "--no-cache must not create a cache directory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cli_usage_errors() {
        let out = run(&args("frobnicate mem.gts"), &read_mem(MEDICAL));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("usage"));
        let out2 = run(&args("check mem.gts --transform T0"), &read_mem(MEDICAL));
        assert_eq!(out2.code, 2);
        assert!(out2.output.contains("--source"));
    }

    #[test]
    fn nre_queries_parse_and_run() {
        let src = r#"
schema S {
  node Person
  node Post
  edge Person -follows-> Person [*, *]
  edge Person -likes-> Post [*, *]
}
query FollowsLiker(x, y) { (follows . <likes>)(x, y) }
query FollowsThenLikes(x, z) { (follows)(x, y), (likes)(y, z) }
"#;
        let f = GtsFile::parse(src).unwrap();
        let q = f.query("FollowsLiker").unwrap();
        assert_eq!(q.disjuncts[0].atoms[0].nre.nest_depth(), 1);
        // Not directly comparable (different arities), but both parse and
        // the nested one renders back with angle brackets.
        let rendered = render_file(&f);
        assert!(rendered.contains("<likes>"), "{rendered}");
    }

    #[test]
    fn cli_literal_safety() {
        let src = r#"
schema S {
  node Product
  node Price
  edge Product -hasPrice-> Price [1, *]
}
transform Good { Price(f(x)) <- (Price)(x) }
transform Bad { Price(f(x)) <- (Product)(x) }
"#;
        let read = move |_p: &str| Ok(src.to_owned());
        let ok = run(&args("safety mem.gts --transform Good --source S --literals Price"), &read);
        assert_eq!(ok.code, 0, "{}", ok.output);
        let bad = run(&args("safety mem.gts --transform Bad --source S --literals Price"), &read);
        assert_eq!(bad.code, 1, "{}", bad.output);
        assert!(bad.output.contains("SourceNotLiteral"), "{}", bad.output);
        let unknown =
            run(&args("safety mem.gts --transform Bad --source S --literals Nope"), &read);
        assert_eq!(unknown.code, 2);
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = GtsFile::parse("schema S {\n  node 42\n}").unwrap_err();
        assert_eq!(err.line, 2);
        let err2 = GtsFile::parse("query Q(x) { (undeclared)(x) }").unwrap_err();
        assert!(err2.msg.contains("undeclared"));
    }

    #[test]
    fn regex_postfix_operators_parse() {
        use gts_core::query::Nre;
        let src = "node A\nedge r\nedge s\n\
                   query Q(x, y) { (r+ . A? . (r . s)^-)(x, y) }";
        let f = GtsFile::parse(src).unwrap();
        let q = &f.query("Q").unwrap().disjuncts[0].atoms[0].nre;
        let r = f.vocab.find_edge_label("r").unwrap();
        let s = f.vocab.find_edge_label("s").unwrap();
        let a = f.vocab.find_node_label("A").unwrap();
        use gts_core::graph::EdgeSym;
        let expected = Nre::edge(r)
            .then(Nre::edge(r).star()) // r+
            .then(Nre::node(a).or(Nre::Epsilon)) // A?
            .then(Nre::sym(EdgeSym::bwd(s)).then(Nre::sym(EdgeSym::bwd(r)))); // (r·s)⁻
        assert_eq!(q, &expected);
    }

    #[test]
    fn bare_edge_labels_in_schemas_round_trip() {
        // An edge label with no allowed placement still belongs to Σ_S
        // (used e.g. to forbid a label everywhere).
        let src = "schema S {\n  node A\n  edge forbidden\n}";
        let f = GtsFile::parse(src).unwrap();
        let s = f.schema("S").unwrap();
        assert_eq!(s.edge_labels().len(), 1);
        let rendered = render_file(&f);
        assert!(rendered.contains("edge forbidden"), "{rendered}");
        let f2 = GtsFile::parse(&rendered).unwrap();
        assert_eq!(f2.schema("S").unwrap().edge_labels().len(), 1);
    }

    #[test]
    fn multi_label_graph_nodes_round_trip() {
        let src = "node A\nnode B\ngraph G {\n  n : A : B\n  m : _\n}";
        let f = GtsFile::parse(src).unwrap();
        let g = f.graph("G").unwrap();
        assert_eq!(g.graph.labels(g.names[0].1).len(), 2);
        assert!(g.graph.labels(g.names[1].1).is_empty());
        let rendered = render_file(&f);
        assert!(rendered.contains("n : A : B"), "{rendered}");
        assert!(rendered.contains("m : _"), "{rendered}");
        let f2 = GtsFile::parse(&rendered).unwrap();
        assert_eq!(render_file(&f2), rendered);
    }
}
