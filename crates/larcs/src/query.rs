//! The memoized query layer: a salsa-style database over the LaRCS
//! front end.
//!
//! [`Db`] exposes the front end as three queries — lex → parse →
//! elaborate — each memoized on a *content* fingerprint of its inputs
//! rather than on identity:
//!
//! - **lex** is keyed on the source bytes and produces the token stream
//!   plus its layout-insensitive
//!   [`token_fingerprint`](crate::lexer::token_fingerprint);
//! - **parse** is keyed on the token fingerprint, so reformatting or
//!   commenting never re-parses;
//! - **elaborate** is keyed on (tokens, params, limits) for the whole
//!   graph, and *per rule* on ([`RuleId`](crate::ast::RuleId), params,
//!   node table, limits) via [`ElabCache`] — editing one comphase
//!   re-expands only the rules whose canonical text changed.
//!
//! Regularity analysis is not a query: MAPPER's dispatch asks for each
//! finding on the graph when an arm can use it
//! ([`crate::analyze`](mod@crate::analyze)).
//!
//! Because the cached path replays exactly the same rule fragments
//! through exactly the same assembly as the batch path
//! ([`crate::elaborate`]), an incremental result is byte-identical to a
//! from-scratch compile of the same source — property-tested in
//! `tests/prop_query.rs`, which also counts one fragment miss per
//! single-rule edit.
//!
//! One deliberate aliasing rule: two sources with identical token streams
//! share one cached [`Program`], whose `src`/spans reflect the layout
//! first seen. Diagnostics are always rendered against the cached
//! program's own `src`, so they stay self-consistent; only the
//! whitespace of the excerpt may differ from the caller's copy.
//!
//! Errors are never cached — a failing input re-runs the failing stage.

use crate::ast::Program;
use crate::elaborate::{elaborate_with_cache, ElabCache, ElabOptions};
use crate::error::LarcsError;
use crate::format::format_program;
use crate::lexer::{lex, token_fingerprint, Fnv, Spanned};
use crate::parser::parse_tokens;
use oregami_graph::TaskGraph;
use std::collections::HashMap;
use std::sync::Arc;

/// Hit/miss counters per query, for tests and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Token streams served from cache.
    pub lex_hits: u64,
    /// Sources actually tokenized.
    pub lex_misses: u64,
    /// Programs served from cache (same token fingerprint).
    pub parse_hits: u64,
    /// Token streams actually parsed.
    pub parse_misses: u64,
    /// Task graphs served from cache.
    pub graph_hits: u64,
    /// Graphs actually assembled (their rules may still have hit the
    /// per-rule fragment cache — see [`Db::elab_cache`]).
    pub graph_misses: u64,
}

/// Cache-size bounds; each map is cleared wholesale when it outgrows its
/// cap (content-keyed entries are cheap to recompute, so wholesale
/// clearing beats LRU bookkeeping here).
const MAX_TOKEN_ENTRIES: usize = 1024;
const MAX_PROGRAM_ENTRIES: usize = 1024;
const MAX_GRAPH_ENTRIES: usize = 4096;

/// The incremental front-end database. Owns every cache; all queries
/// take `&mut self` (they may fill caches) and return shared handles.
///
/// A `Db` is cheap to create but valuable to keep: an interactive
/// session, the daemon, and the CLI all hold one across edits.
#[derive(Debug, Default)]
pub struct Db {
    /// src fingerprint -> (token fingerprint, tokens).
    tokens: HashMap<u64, (u64, Arc<Vec<Spanned>>)>,
    /// token fingerprint -> parsed program.
    programs: HashMap<u64, Arc<Program>>,
    /// (token fp, env fp, opts fp) -> elaborated graph.
    graphs: HashMap<(u64, u64, u64), Arc<TaskGraph>>,
    elab: ElabCache,
    stats: QueryStats,
}

fn src_fingerprint(source: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(source.as_bytes());
    h.finish()
}

fn params_fingerprint(params: &[(&str, i64)]) -> u64 {
    let mut pairs: Vec<(&str, i64)> = params.to_vec();
    pairs.sort_unstable();
    let mut h = Fnv::new();
    for (name, value) in pairs {
        h.bytes(name.as_bytes());
        h.byte(0xff);
        h.u64(value as u64);
    }
    h.finish()
}

impl Db {
    /// An empty database.
    pub fn new() -> Db {
        Db::default()
    }

    /// Query: the token stream of `source` and its content fingerprint.
    fn tokens_query(&mut self, source: &str) -> Result<(u64, Arc<Vec<Spanned>>), LarcsError> {
        let src_fp = src_fingerprint(source);
        if let Some((tok_fp, toks)) = self.tokens.get(&src_fp) {
            self.stats.lex_hits += 1;
            return Ok((*tok_fp, toks.clone()));
        }
        self.stats.lex_misses += 1;
        let toks = lex(source).map_err(|e| e.with_source(source))?;
        let tok_fp = token_fingerprint(&toks);
        if self.tokens.len() >= MAX_TOKEN_ENTRIES {
            self.tokens.clear();
        }
        let toks = Arc::new(toks);
        self.tokens.insert(src_fp, (tok_fp, toks.clone()));
        Ok((tok_fp, toks))
    }

    /// Query: the parsed [`Program`] of `source`. Sources that differ only
    /// in whitespace/comments share one cached program (see module docs).
    pub fn program(&mut self, source: &str) -> Result<Arc<Program>, LarcsError> {
        let (tok_fp, toks) = self.tokens_query(source)?;
        if let Some(p) = self.programs.get(&tok_fp) {
            self.stats.parse_hits += 1;
            return Ok(p.clone());
        }
        self.stats.parse_misses += 1;
        let program = parse_tokens(source, (*toks).clone()).map_err(|e| e.with_source(source))?;
        if self.programs.len() >= MAX_PROGRAM_ENTRIES {
            self.programs.clear();
        }
        let program = Arc::new(program);
        self.programs.insert(tok_fp, program.clone());
        Ok(program)
    }

    /// Query: the elaborated task graph of `source` under `params`, with
    /// default limits.
    pub fn compile(
        &mut self,
        source: &str,
        params: &[(&str, i64)],
    ) -> Result<Arc<TaskGraph>, LarcsError> {
        self.compile_with(source, params, &ElabOptions::default())
    }

    /// Query: the elaborated task graph under explicit limits.
    fn compile_with(
        &mut self,
        source: &str,
        params: &[(&str, i64)],
        opts: &ElabOptions,
    ) -> Result<Arc<TaskGraph>, LarcsError> {
        let (tok_fp, _) = self.tokens_query(source)?;
        let key = (tok_fp, params_fingerprint(params), opts.fingerprint());
        if let Some(g) = self.graphs.get(&key) {
            self.stats.graph_hits += 1;
            return Ok(g.clone());
        }
        let program = self.program(source)?;
        self.stats.graph_misses += 1;
        let graph = elaborate_with_cache(&program, params, opts, Some(&mut self.elab))
            .map_err(|e| e.with_source(&program.src))?;
        if self.graphs.len() >= MAX_GRAPH_ENTRIES {
            self.graphs.clear();
        }
        let graph = Arc::new(graph);
        self.graphs.insert(key, graph.clone());
        Ok(graph)
    }

    /// Query: `source` rendered in canonical form (`larcs fmt`). Output
    /// depends only on the token stream, so it is stable under the
    /// program-sharing aliasing described in the module docs.
    pub fn fmt(&mut self, source: &str) -> Result<String, LarcsError> {
        let program = self.program(source)?;
        Ok(format_program(&program))
    }

    /// Splices a replacement rule into `source` and returns the edited
    /// source, validated to reparse.
    ///
    /// `phase_name`/`rule_idx` address the rule (0-based within its
    /// comphase); `new_rule_text` is the replacement text — a complete
    /// `forall ... { ... }` comprehension or bare edge declaration.
    pub fn edit_rule(
        &mut self,
        source: &str,
        phase_name: &str,
        rule_idx: usize,
        new_rule_text: &str,
    ) -> Result<String, LarcsError> {
        // The cached program for this token stream may carry a different
        // layout's spans; splicing needs spans into *this* source text.
        let cached = self.program(source)?;
        let program = if cached.src == source {
            cached
        } else {
            Arc::new(crate::parser::parse(source).map_err(|e| e.with_source(source))?)
        };
        let phase_idx = program.comphase_index(phase_name).ok_or_else(|| {
            LarcsError::elab(format!("edit: unknown comphase '{phase_name}'"))
        })?;
        let rules = &program.comphases[phase_idx].rules;
        let rule = rules.get(rule_idx).ok_or_else(|| {
            LarcsError::elab(format!(
                "edit: comphase '{phase_name}' has {} rules, no rule #{rule_idx}",
                rules.len()
            ))
        })?;
        let mut edited = String::with_capacity(source.len() + new_rule_text.len());
        edited.push_str(&source[..rule.span.start as usize]);
        edited.push_str(new_rule_text);
        edited.push_str(&source[rule.span.end as usize..]);
        // validate: the edited source must still parse
        self.program(&edited)?;
        Ok(edited)
    }

    /// Query hit/miss counters.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Zeroes the query counters (caches are kept).
    pub fn reset_stats(&mut self) {
        self.stats = QueryStats::default();
    }

    /// The per-rule elaboration cache (fragment/skeleton hit counters).
    pub fn elab_cache(&self) -> &ElabCache {
        &self.elab
    }

    /// Drops every cache (counters survive).
    pub fn clear(&mut self) {
        self.tokens.clear();
        self.programs.clear();
        self.graphs.clear();
        self.elab.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use crate::parser::parse;

    const SRC: &str = "algorithm t(n);\n\
        nodetype x: 0..n-1;\n\
        comphase fwd: forall i in 0..n-2 { x(i) -> x(i+1); }\n\
        comphase bwd: forall i in 0..n-2 { x(i+1) -> x(i); }\n\
        phaseexpr (fwd; bwd);\n";

    const PARAMS: &[(&str, i64)] = &[("n", 16)];

    #[test]
    fn compile_matches_batch_and_caches() {
        let mut db = Db::new();
        let g1 = db.compile(SRC, PARAMS).unwrap();
        let batch = elaborate(&parse(SRC).unwrap(), PARAMS, &ElabOptions::default()).unwrap();
        assert_eq!(*g1, batch);
        let s0 = db.stats();
        assert_eq!((s0.lex_misses, s0.parse_misses, s0.graph_misses), (1, 1, 1));
        // identical call: pure cache hit at the graph level
        let g2 = db.compile(SRC, PARAMS).unwrap();
        assert!(Arc::ptr_eq(&g1, &g2));
        let s1 = db.stats();
        assert_eq!(s1.graph_hits, 1);
        assert_eq!(s1.parse_misses, 1);
    }

    #[test]
    fn whitespace_edit_skips_parse_and_elaboration() {
        let mut db = Db::new();
        db.compile(SRC, PARAMS).unwrap();
        let elab_misses = db.elab_cache().misses;
        let spaced = SRC.replace("comphase fwd:", "comphase   fwd:   -- a comment\n");
        let g = db.compile(&spaced, PARAMS).unwrap();
        let s = db.stats();
        assert_eq!(s.lex_misses, 2, "different bytes must re-lex");
        assert_eq!(s.parse_misses, 1, "same tokens must not re-parse");
        assert_eq!(s.graph_hits, 1, "same tokens + params must not re-elaborate");
        assert_eq!(db.elab_cache().misses, elab_misses);
        assert_eq!(
            *g,
            elaborate(&parse(SRC).unwrap(), PARAMS, &ElabOptions::default()).unwrap()
        );
    }

    #[test]
    fn single_rule_edit_re_expands_only_that_rule() {
        let mut db = Db::new();
        db.compile(SRC, PARAMS).unwrap();
        let base_misses = db.elab_cache().misses;
        assert_eq!(base_misses, 2); // fwd + bwd expanded once
        let edited = db
            .edit_rule(SRC, "bwd", 0, "forall i in 0..n-2 { x(i+1) -> x(i) volume 2; }")
            .unwrap();
        let g = db.compile(&edited, PARAMS).unwrap();
        // only the edited rule re-expanded; fwd's fragment was reused
        assert_eq!(db.elab_cache().misses, base_misses + 1);
        assert_eq!(db.elab_cache().hits, 1);
        // and the result is byte-identical to a batch compile of the edit
        let batch = elaborate(&parse(&edited).unwrap(), PARAMS, &ElabOptions::default()).unwrap();
        assert_eq!(*g, batch);
        assert!(batch.comm_phases[1].edges.iter().all(|e| e.volume == 2));
    }

    #[test]
    fn edit_rule_validates_addressing_and_syntax() {
        let mut db = Db::new();
        assert!(db.edit_rule(SRC, "nope", 0, "x(0) -> x(1);").is_err());
        assert!(db.edit_rule(SRC, "fwd", 7, "x(0) -> x(1);").is_err());
        let err = db.edit_rule(SRC, "fwd", 0, "forall i in { oops").unwrap_err();
        assert_eq!(err.stage(), crate::error::Stage::Parse);
    }

    #[test]
    fn errors_render_source_excerpts() {
        let mut db = Db::new();
        let bad_parse = "algorithm t(n);\nnodetype x 0..n-1;";
        let err = db.compile(bad_parse, &[("n", 4)]).unwrap_err();
        let shown = err.to_string();
        assert!(shown.contains("-->") && shown.contains('^'), "{shown}");
        let bad_elab = "algorithm t(n);\n\
                        nodetype x: 0..n-1;\n\
                        comphase c: forall i in 0..n-1 { x(i) -> x(i+1); }";
        let err = db.compile(bad_elab, &[("n", 4)]).unwrap_err();
        let shown = err.to_string();
        assert!(shown.contains("-->") && shown.contains('^'), "{shown}");
        // errors are not cached: the same bad input fails again identically
        let again = db.compile(bad_elab, &[("n", 4)]).unwrap_err();
        assert_eq!(err, again);
    }

    #[test]
    fn fmt_query_is_a_fixed_point() {
        let mut db = Db::new();
        let f = db.fmt(SRC).unwrap();
        assert!(f.starts_with("algorithm t(n);"));
        // fmt of the formatted output is a fixed point
        assert_eq!(db.fmt(&f).unwrap(), f);
    }
}
