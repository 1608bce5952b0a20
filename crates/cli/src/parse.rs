//! Recursive-descent parser for the `.gts` text format.
//!
//! A file is a sequence of items:
//!
//! ```text
//! node Extra                         # standalone label declarations
//! edge helper
//!
//! schema S0 {
//!   node Vaccine
//!   node Antigen
//!   edge Vaccine -designTarget-> Antigen [1, *]
//! }
//!
//! transform T0 {
//!   Vaccine(f(x)) <- (Vaccine)(x)
//!   targets(Vaccine(x), Antigen(y)) <- (designTarget . crossReacting*)(x, y)
//! }
//!
//! graph G {
//!   v1 : Vaccine
//!   a1 : Antigen
//!   v1 -designTarget-> a1
//! }
//!
//! query Reaches(x, y) {
//!   (designTarget . <exhibits^->)(x, y)     # NRE nest: ⟨exhibits⁻⟩
//! }
//! ```
//!
//! Regular expressions: `.` concatenation, `|` alternation, postfix `*`,
//! `+` (one or more), `?` (optional), `^-`/`⁻` (two-way reversal),
//! `<φ>` nesting tests, `eps`/`empty` constants, and node/edge labels
//! resolved against the declarations seen so far (declaration order
//! matters). Repeated `query NAME` blocks with the same name and arity
//! form a union.
//!
//! Rules whose bodies contain nests are flattened at parse time
//! ([`gts_core::query::NreC2rpq::flatten`]); nests under `*` in rule
//! bodies are therefore rejected here (they remain available to
//! [`gts_core::containment::contains_nre`] on the right-hand side).

use crate::lex::{lex, ParseError, Tok, Token};
use gts_core::graph::{EdgeLabel, Graph, NodeId, NodeLabel, Vocab};
use gts_core::query::{Nre, NreAtom, NreC2rpq, NreUc2rpq, Var};
use gts_core::schema::{Mult, Schema};
use gts_core::Transformation;
use std::collections::HashMap;

/// A named graph with its node-name table.
#[derive(Clone, Debug)]
pub struct NamedGraph {
    /// The graph.
    pub graph: Graph,
    /// Node names in declaration order.
    pub names: Vec<(String, NodeId)>,
}

impl std::fmt::Debug for GtsFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GtsFile")
            .field("schemas", &self.schemas.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .field("transforms", &self.transforms.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .field("graphs", &self.graphs.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .field("queries", &self.queries.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .finish()
    }
}

/// A parsed `.gts` file.
#[derive(Default)]
pub struct GtsFile {
    /// The shared vocabulary (labels interned in declaration order).
    pub vocab: Vocab,
    /// Named schemas, in file order.
    pub schemas: Vec<(String, Schema)>,
    /// Named transformations, in file order.
    pub transforms: Vec<(String, Transformation)>,
    /// Named graphs, in file order.
    pub graphs: Vec<(String, NamedGraph)>,
    /// Named queries (repeated names form unions), in first-seen order.
    pub queries: Vec<(String, NreUc2rpq)>,
}

impl GtsFile {
    /// Parses a `.gts` source text.
    pub fn parse(src: &str) -> Result<GtsFile, ParseError> {
        let toks = lex(src)?;
        Parser::new(toks).file()
    }

    /// Looks up a schema by name.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.schemas.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Looks up a transformation by name.
    pub fn transform(&self, name: &str) -> Option<&Transformation> {
        self.transforms.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Looks up a graph by name.
    pub fn graph(&self, name: &str) -> Option<&NamedGraph> {
        self.graphs.iter().find(|(n, _)| n == name).map(|(_, g)| g)
    }

    /// Looks up a query by name.
    pub fn query(&self, name: &str) -> Option<&NreUc2rpq> {
        self.queries.iter().find(|(n, _)| n == name).map(|(_, q)| q)
    }
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    vocab: Vocab,
    nodes: HashMap<String, NodeLabel>,
    edges: HashMap<String, EdgeLabel>,
    out: GtsFile,
    /// Open `(`/`<` groups around the regex being parsed.
    depth: usize,
}

/// Nesting guard: a regex with more open groups than this is rejected
/// rather than risking a stack overflow on hostile input.
const MAX_REGEX_DEPTH: usize = 128;

impl Parser {
    fn new(toks: Vec<Token>) -> Parser {
        Parser {
            toks,
            pos: 0,
            vocab: Vocab::new(),
            nodes: HashMap::new(),
            edges: HashMap::new(),
            out: GtsFile::default(),
            depth: 0,
        }
    }

    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let t = self.peek();
        Err(ParseError { line: t.line, col: t.col, msg: msg.into() })
    }

    fn expect(&mut self, kind: Tok) -> Result<Token, ParseError> {
        if self.peek().kind == kind {
            Ok(self.next())
        } else {
            self.err(format!("expected {kind}, found {}", self.peek().kind))
        }
    }

    fn eat(&mut self, kind: Tok) -> bool {
        if self.peek().kind == kind {
            self.next();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            Tok::Ident(s) => {
                let s = s.clone();
                self.next();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn node_label(&mut self, name: &str) -> NodeLabel {
        if let Some(&l) = self.nodes.get(name) {
            return l;
        }
        let l = self.vocab.node_label(name);
        self.nodes.insert(name.to_owned(), l);
        l
    }

    fn edge_label(&mut self, name: &str) -> EdgeLabel {
        if let Some(&l) = self.edges.get(name) {
            return l;
        }
        let l = self.vocab.edge_label(name);
        self.edges.insert(name.to_owned(), l);
        l
    }

    fn file(mut self) -> Result<GtsFile, ParseError> {
        loop {
            match &self.peek().kind {
                Tok::Eof => break,
                Tok::Ident(kw) => match kw.as_str() {
                    "node" => {
                        self.next();
                        let n = self.ident()?;
                        self.node_label(&n);
                    }
                    "edge" => {
                        self.next();
                        let n = self.ident()?;
                        self.edge_label(&n);
                    }
                    "schema" => self.schema_block()?,
                    "transform" | "transformation" => self.transform_block()?,
                    "graph" => self.graph_block()?,
                    "query" => self.query_block()?,
                    other => {
                        return self.err(format!(
                            "expected `schema`, `transform`, `graph`, `query`, `node`, or \
                             `edge`, found `{other}`"
                        ))
                    }
                },
                other => {
                    return self.err(format!("expected a top-level item, found {other}"));
                }
            }
        }
        self.out.vocab = self.vocab;
        Ok(self.out)
    }

    fn mult(&mut self) -> Result<Mult, ParseError> {
        let t = self.next();
        match t.kind {
            Tok::Number(0) => Ok(Mult::Zero),
            Tok::Number(1) => Ok(Mult::One),
            Tok::Question => Ok(Mult::Opt),
            Tok::Plus => Ok(Mult::Plus),
            Tok::Star => Ok(Mult::Star),
            other => Err(ParseError {
                line: t.line,
                col: t.col,
                msg: format!("expected a multiplicity (`0`, `1`, `?`, `+`, `*`), found {other}"),
            }),
        }
    }

    fn schema_block(&mut self) -> Result<(), ParseError> {
        self.next(); // `schema`
        let name = self.ident()?;
        if self.out.schema(&name).is_some() {
            return self.err(format!("duplicate schema `{name}`"));
        }
        self.expect(Tok::LBrace)?;
        let mut s = Schema::new();
        loop {
            if self.eat(Tok::RBrace) {
                break;
            }
            let kw = self.ident()?;
            match kw.as_str() {
                "node" => {
                    let n = self.ident()?;
                    let l = self.node_label(&n);
                    s.add_node_label(l);
                }
                "edge" => {
                    // `edge A -r-> B [m_out, m_in]`, or a bare `edge r`
                    // declaring an edge label with no allowed placement.
                    let first = self.ident()?;
                    if self.peek().kind != Tok::Minus {
                        let l = self.edge_label(&first);
                        s.add_edge_label(l);
                        continue;
                    }
                    let a = self.node_label(&first);
                    self.expect(Tok::Minus)?;
                    let r = self.ident()?;
                    let r = self.edge_label(&r);
                    self.expect(Tok::Arrow)?;
                    let b = self.ident()?;
                    let b = self.node_label(&b);
                    let (m_out, m_in) = if self.eat(Tok::LBracket) {
                        let fwd = self.mult()?;
                        self.expect(Tok::Comma)?;
                        let bwd = self.mult()?;
                        self.expect(Tok::RBracket)?;
                        (fwd, bwd)
                    } else {
                        (Mult::Star, Mult::Star)
                    };
                    s.set_edge(a, r, b, m_out, m_in);
                }
                other => {
                    return self
                        .err(format!("expected `node` or `edge` in schema body, found `{other}`"))
                }
            }
        }
        self.out.schemas.push((name, s));
        Ok(())
    }

    fn transform_block(&mut self) -> Result<(), ParseError> {
        self.next(); // `transform`
        let name = self.ident()?;
        if self.out.transform(&name).is_some() {
            return self.err(format!("duplicate transform `{name}`"));
        }
        self.expect(Tok::LBrace)?;
        let mut t = Transformation::new();
        loop {
            if self.eat(Tok::RBrace) {
                break;
            }
            self.rule(&mut t)?;
        }
        self.out.transforms.push((name, t));
        Ok(())
    }

    /// One rule: `A(f(x̄)) <- body` or `r(A(x̄), B(ȳ)) <- body`.
    fn rule(&mut self, t: &mut Transformation) -> Result<(), ParseError> {
        let head = self.ident()?;
        self.expect(Tok::LParen)?;
        let inner1 = self.ident()?;
        self.expect(Tok::LParen)?;
        let args1 = self.var_names()?;
        self.expect(Tok::RParen)?;

        enum Head {
            Node { label: String, args: Vec<String> },
            Edge { edge: String, src: (String, Vec<String>), tgt: (String, Vec<String>) },
        }
        let h = if self.eat(Tok::Comma) {
            let inner2 = self.ident()?;
            self.expect(Tok::LParen)?;
            let args2 = self.var_names()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::RParen)?;
            Head::Edge { edge: head, src: (inner1, args1), tgt: (inner2, args2) }
        } else {
            self.expect(Tok::RParen)?;
            Head::Node { label: head, args: args1 }
        };
        self.expect(Tok::LArrow)?;

        // Free variables in head order.
        let free_names: Vec<String> = match &h {
            Head::Node { args, .. } => args.clone(),
            Head::Edge { src, tgt, .. } => src.1.iter().chain(tgt.1.iter()).cloned().collect(),
        };
        let mut vars: HashMap<String, Var> = HashMap::new();
        for n in &free_names {
            if vars.contains_key(n) {
                return self.err(format!("duplicate head variable `{n}`"));
            }
            vars.insert(n.clone(), Var(vars.len() as u32));
        }
        let free: Vec<Var> = free_names.iter().map(|n| vars[n]).collect();

        let atoms = self.body(&mut vars)?;
        let body = NreC2rpq::new(vars.len() as u32, free, atoms);

        let line = self.peek().line;
        let col = self.peek().col;
        let flatten_err = |e| ParseError {
            line,
            col,
            msg: format!(
                "cannot flatten rule body ({e:?}); nests under `*` are not allowed in rules"
            ),
        };
        match h {
            Head::Node { label, args: _ } => {
                let l = self.node_label(&label);
                t.add_node_rule_nre(l, body).map_err(flatten_err)?;
            }
            Head::Edge { edge, src, tgt } => {
                let e = self.edge_label(&edge);
                let sl = self.node_label(&src.0);
                let tl = self.node_label(&tgt.0);
                t.add_edge_rule_nre(e, (sl, src.1.len()), (tl, tgt.1.len()), body)
                    .map_err(flatten_err)?;
            }
        }
        Ok(())
    }

    fn var_names(&mut self) -> Result<Vec<String>, ParseError> {
        let mut out = vec![self.ident()?];
        while self.eat(Tok::Comma) {
            out.push(self.ident()?);
        }
        Ok(out)
    }

    /// Rule/query body: `atom (, atom)*` with `atom = (regex)(x[, y])`.
    fn body(&mut self, vars: &mut HashMap<String, Var>) -> Result<Vec<NreAtom>, ParseError> {
        let mut atoms = vec![self.atom(vars)?];
        while self.eat(Tok::Comma) {
            atoms.push(self.atom(vars)?);
        }
        Ok(atoms)
    }

    fn atom(&mut self, vars: &mut HashMap<String, Var>) -> Result<NreAtom, ParseError> {
        self.expect(Tok::LParen)?;
        let nre = self.regex()?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::LParen)?;
        let xn = self.ident()?;
        let x = Self::var(vars, xn);
        let y = if self.eat(Tok::Comma) {
            let yn = self.ident()?;
            Self::var(vars, yn)
        } else {
            x
        };
        self.expect(Tok::RParen)?;
        Ok(NreAtom { x, y, nre })
    }

    /// Interns a body variable, allocating the next index for new names.
    fn var(vars: &mut HashMap<String, Var>, name: String) -> Var {
        let next = Var(vars.len() as u32);
        *vars.entry(name).or_insert(next)
    }

    /// Regex grammar: `alt := cat ('|' cat)*`, `cat := post ('.' post)*`,
    /// `post := prim ('*' | '+' | '?' | '^-')*`,
    /// `prim := ident | eps | empty | '(' alt ')' | '<' alt '>'`.
    fn regex(&mut self) -> Result<Nre, ParseError> {
        let mut out = self.regex_cat()?;
        while self.eat(Tok::Pipe) {
            out = out.or(self.regex_cat()?);
        }
        Ok(out)
    }

    fn regex_cat(&mut self) -> Result<Nre, ParseError> {
        let mut out = self.regex_post()?;
        while self.eat(Tok::Dot) {
            out = out.then(self.regex_post()?);
        }
        Ok(out)
    }

    fn regex_post(&mut self) -> Result<Nre, ParseError> {
        let mut out = self.regex_prim()?;
        loop {
            match self.peek().kind {
                Tok::Star => {
                    self.next();
                    out = out.star();
                }
                Tok::Plus => {
                    self.next();
                    out = out.clone().then(out.star());
                }
                Tok::Question => {
                    self.next();
                    out = out.or(Nre::Epsilon);
                }
                Tok::Inv => {
                    self.next();
                    out = out.reverse();
                }
                _ => break,
            }
        }
        Ok(out)
    }

    fn regex_prim(&mut self) -> Result<Nre, ParseError> {
        match self.peek().kind.clone() {
            Tok::LParen => self.regex_group(Tok::RParen),
            Tok::LAngle => Ok(Nre::nest(self.regex_group(Tok::RAngle)?)),
            Tok::Ident(name) => {
                self.next();
                match name.as_str() {
                    "eps" => Ok(Nre::Epsilon),
                    "empty" => Ok(Nre::Empty),
                    _ => {
                        if let Some(&l) = self.nodes.get(&name) {
                            Ok(Nre::node(l))
                        } else if let Some(&l) = self.edges.get(&name) {
                            Ok(Nre::edge(l))
                        } else {
                            self.err(format!(
                                "undeclared label `{name}` (declare it in a schema or with \
                                 `node {name}` / `edge {name}`)"
                            ))
                        }
                    }
                }
            }
            other => self.err(format!("expected a regular expression, found {other}")),
        }
    }

    /// The body of a `(…)` or `<…>` group, up to its `close` token.
    fn regex_group(&mut self, close: Tok) -> Result<Nre, ParseError> {
        if self.depth == MAX_REGEX_DEPTH {
            return self
                .err(format!("regular expression nests deeper than {MAX_REGEX_DEPTH} groups"));
        }
        self.next();
        self.depth += 1;
        let r = self.regex();
        self.depth -= 1;
        let r = r?;
        self.expect(close)?;
        Ok(r)
    }

    fn graph_block(&mut self) -> Result<(), ParseError> {
        self.next(); // `graph`
        let name = self.ident()?;
        if self.out.graph(&name).is_some() {
            return self.err(format!("duplicate graph `{name}`"));
        }
        self.expect(Tok::LBrace)?;
        let mut g = Graph::new();
        let mut names: Vec<(String, NodeId)> = Vec::new();
        let mut by_name: HashMap<String, NodeId> = HashMap::new();
        loop {
            if self.eat(Tok::RBrace) {
                break;
            }
            let n = self.ident()?;
            if self.eat(Tok::Colon) {
                // node declaration: `n : Label [: Label …]` or `n : _`
                // (unlabeled).
                if by_name.contains_key(&n) {
                    return self.err(format!("duplicate node `{n}`"));
                }
                let label = self.ident()?;
                let id = if label == "_" {
                    g.add_node()
                } else {
                    let l = self.node_label(&label);
                    let id = g.add_labeled_node([l]);
                    while self.eat(Tok::Colon) {
                        let extra = self.ident()?;
                        let l = self.node_label(&extra);
                        g.add_label(id, l);
                    }
                    id
                };
                by_name.insert(n.clone(), id);
                names.push((n, id));
            } else {
                // edge: `a -r-> b`
                self.expect(Tok::Minus)?;
                let r = self.ident()?;
                let r = self.edge_label(&r);
                self.expect(Tok::Arrow)?;
                let m = self.ident()?;
                let src = match by_name.get(&n) {
                    Some(&id) => id,
                    None => return self.err(format!("undeclared node `{n}`")),
                };
                let tgt = match by_name.get(&m) {
                    Some(&id) => id,
                    None => return self.err(format!("undeclared node `{m}`")),
                };
                g.add_edge(src, r, tgt);
            }
        }
        self.out.graphs.push((name, NamedGraph { graph: g, names }));
        Ok(())
    }

    fn query_block(&mut self) -> Result<(), ParseError> {
        self.next(); // `query`
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let free_names =
            if self.peek().kind == Tok::RParen { Vec::new() } else { self.var_names()? };
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        let mut vars: HashMap<String, Var> = HashMap::new();
        for n in &free_names {
            if vars.contains_key(n) {
                return self.err(format!("duplicate query variable `{n}`"));
            }
            vars.insert(n.clone(), Var(vars.len() as u32));
        }
        let free: Vec<Var> = free_names.iter().map(|n| vars[n]).collect();
        let atoms = self.body(&mut vars)?;
        self.expect(Tok::RBrace)?;
        let q = NreC2rpq::new(vars.len() as u32, free, atoms);
        if let Some((_, u)) = self.out.queries.iter_mut().find(|(n, _)| *n == name) {
            if u.disjuncts[0].free.len() != q.free.len() {
                return self.err(format!("query `{name}` redeclared with a different arity"));
            }
            u.disjuncts.push(q);
        } else {
            self.out.queries.push((name, NreUc2rpq::single(q)));
        }
        Ok(())
    }
}
