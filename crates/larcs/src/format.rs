//! Pretty-printing LaRCS programs back to canonical source.
//!
//! The formatter emits canonical source text whose parse is structurally
//! identical to the input AST (`parse(format(p))` formats back to the
//! same string — idempotence and round-trip stability are property-tested
//! in `tests/prop_fmt.rs`). It backs the `larcs fmt` CLI (`--fmt`) and
//! daemon op, and [`format_rule`] is how the parser computes each rule's
//! layout-insensitive [`RuleId`].

use crate::ast::*;
use crate::expr::{BinOp, CmpOp};
use crate::intern::StringInterner;
use std::fmt::Write as _;

/// Renders a whole program as canonical LaRCS source.
pub fn format_program(p: &Program) -> String {
    let ast = &p.ast;
    let it = &p.interner;
    let mut s = String::new();
    let params: Vec<&str> = p.params.iter().map(|i| it.resolve(i.sym)).collect();
    let _ = writeln!(s, "algorithm {}({});", p.name_str(), params.join(", "));
    if !p.imports.is_empty() {
        let imports: Vec<&str> = p.imports.iter().map(|i| it.resolve(i.sym)).collect();
        let _ = writeln!(s, "import {};", imports.join(", "));
    }
    for nt in &p.nodetypes {
        let ranges: Vec<String> = nt
            .ranges
            .iter()
            .map(|&(lo, hi)| format!("{}..{}", format_expr(ast, it, lo), format_expr(ast, it, hi)))
            .collect();
        let spec = if ranges.len() == 1 {
            ranges[0].clone()
        } else {
            format!("({})", ranges.join(", "))
        };
        let mut attrs = String::new();
        if nt.node_symmetric {
            attrs.push_str(" nodesymmetric");
        }
        if let Some(f) = nt.family {
            let _ = write!(attrs, " family({})", it.resolve(f));
        }
        let _ = writeln!(s, "nodetype {}: {spec}{attrs};", it.resolve(nt.name.sym));
    }
    for cp in &p.comphases {
        let _ = writeln!(s, "comphase {}:", it.resolve(cp.name.sym));
        for rule in &cp.rules {
            format_rule_into(&mut s, ast, it, rule, "  ");
        }
    }
    for ep in &p.exephases {
        match ep.cost {
            Some(c) => {
                let _ = writeln!(
                    s,
                    "exephase {} cost {};",
                    it.resolve(ep.name.sym),
                    format_expr(ast, it, c)
                );
            }
            None => {
                let _ = writeln!(s, "exephase {};", it.resolve(ep.name.sym));
            }
        }
    }
    if let Some(pe) = p.phase_expr {
        let _ = writeln!(s, "phaseexpr {};", format_pexp(ast, it, pe));
    }
    s
}

/// Renders one rule in canonical form (no trailing newline). This text is
/// what gets fingerprinted into the rule's `RuleId`, so it depends only on
/// the rule's structure — never on layout or position.
pub fn format_rule(ast: &Ast, it: &StringInterner, rule: &Rule) -> String {
    let mut s = String::new();
    format_rule_into(&mut s, ast, it, rule, "");
    // drop the trailing newline for a self-contained snippet
    while s.ends_with('\n') {
        s.pop();
    }
    s
}

fn format_rule_into(s: &mut String, ast: &Ast, it: &StringInterner, rule: &Rule, indent: &str) {
    if rule.binders.is_empty() {
        for e in &rule.edges {
            let _ = writeln!(s, "{indent}{}", format_edge(ast, it, e));
        }
    } else {
        let binders: Vec<String> = rule
            .binders
            .iter()
            .map(|b| {
                format!(
                    "{} in {}..{}",
                    it.resolve(b.var.sym),
                    format_expr(ast, it, b.lo),
                    format_expr(ast, it, b.hi)
                )
            })
            .collect();
        let guard = rule
            .guard
            .map(|g| format!(" where {}", format_bool(ast, it, g)))
            .unwrap_or_default();
        let _ = writeln!(s, "{indent}forall {}{guard} {{", binders.join(", "));
        for e in &rule.edges {
            let _ = writeln!(s, "{indent}  {}", format_edge(ast, it, e));
        }
        let _ = writeln!(s, "{indent}}}");
    }
}

/// Renders an edge declaration (with trailing semicolon).
fn format_edge(ast: &Ast, it: &StringInterner, e: &EdgeDecl) -> String {
    let src: Vec<String> = e.src_args.iter().map(|&a| format_expr(ast, it, a)).collect();
    let dst: Vec<String> = e.dst_args.iter().map(|&a| format_expr(ast, it, a)).collect();
    let vol = e
        .volume
        .map(|v| format!(" volume {}", format_expr(ast, it, v)))
        .unwrap_or_default();
    format!(
        "{}({}) -> {}({}){vol};",
        it.resolve(e.src_type.sym),
        src.join(", "),
        it.resolve(e.dst_type.sym),
        dst.join(", ")
    )
}

/// Renders an integer expression, parenthesising conservatively (every
/// binary node gets parentheses, so precedence never needs reconstructing).
fn format_expr(ast: &Ast, it: &StringInterner, e: ExprId) -> String {
    match ast.expr(e) {
        ExprKind::Const(v) => v.to_string(),
        ExprKind::Var(v) => it.resolve(v).to_string(),
        ExprKind::Neg(inner) => format!("(-{})", format_expr(ast, it, inner)),
        ExprKind::Bin(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "mod",
                BinOp::Pow => "**",
            };
            format!("({} {sym} {})", format_expr(ast, it, a), format_expr(ast, it, b))
        }
    }
}

/// Renders a boolean guard.
fn format_bool(ast: &Ast, it: &StringInterner, b: BExpId) -> String {
    match ast.bexp(b) {
        BExpKind::Cmp(op, a, c) => {
            let sym = match op {
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
            };
            format!("{} {sym} {}", format_expr(ast, it, a), format_expr(ast, it, c))
        }
        BExpKind::And(a, c) => {
            format!("({} and {})", format_bool(ast, it, a), format_bool(ast, it, c))
        }
        BExpKind::Or(a, c) => {
            format!("({} or {})", format_bool(ast, it, a), format_bool(ast, it, c))
        }
        BExpKind::Not(a) => format!("not ({})", format_bool(ast, it, a)),
    }
}

/// Renders a phase expression (parenthesised to be precedence-proof).
fn format_pexp(ast: &Ast, it: &StringInterner, p: PExpId) -> String {
    match ast.pexp(p) {
        PExpKind::Eps => "eps".to_string(),
        PExpKind::Name(n) => it.resolve(n).to_string(),
        PExpKind::Seq(a, b) => {
            format!("({}; {})", format_pexp(ast, it, a), format_pexp(ast, it, b))
        }
        PExpKind::Par(a, b) => {
            format!("({} || {})", format_pexp(ast, it, a), format_pexp(ast, it, b))
        }
        PExpKind::Repeat(a, k) => {
            format!("({})^{}", format_pexp(ast, it, a), format_expr(ast, it, k))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, programs};

    /// Structural round-trip: the formatted source parses back to an AST
    /// that elaborates to the identical task graph.
    fn roundtrip(src: &str, params: &[(&str, i64)]) {
        let p1 = parse(src).unwrap();
        let formatted = format_program(&p1);
        let p2 = parse(&formatted)
            .unwrap_or_else(|e| panic!("formatted source must reparse: {e}\n{formatted}"));
        let g1 = crate::elaborate(&p1, params, &crate::ElabOptions::default()).unwrap();
        let g2 = crate::elaborate(&p2, params, &crate::ElabOptions::default()).unwrap();
        assert_eq!(g1.num_tasks(), g2.num_tasks());
        assert_eq!(g1.node_symmetric, g2.node_symmetric);
        assert_eq!(g1.family, g2.family);
        for (a, b) in g1.comm_phases.iter().zip(&g2.comm_phases) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.edges, b.edges);
        }
        assert_eq!(g1.exec_phases, g2.exec_phases);
        assert_eq!(g1.phase_expr, g2.phase_expr);
    }

    #[test]
    fn all_builtin_programs_roundtrip() {
        for (name, src, params) in programs::all_programs() {
            let _ = name;
            roundtrip(&src, &params);
        }
    }

    #[test]
    fn formatting_is_idempotent_on_builtins() {
        for (name, src, _) in programs::all_programs() {
            let once = format_program(&parse(&src).unwrap());
            let twice = format_program(&parse(&once).unwrap());
            assert_eq!(once, twice, "formatter not idempotent on {name}");
        }
    }

    #[test]
    fn formatted_output_is_readable() {
        let p = parse(&programs::nbody()).unwrap();
        let out = format_program(&p);
        assert!(out.starts_with("algorithm nbody(n, s);"));
        assert!(out.contains("import msgsize;"));
        assert!(out.contains("nodetype body: 0..(n - 1) nodesymmetric;"));
        assert!(out.contains("comphase ring:"));
        assert!(out.contains("phaseexpr"));
    }

    #[test]
    fn negation_and_guards_survive() {
        let src = "algorithm t(n);\n\
                   nodetype x: 0..n-1;\n\
                   comphase c: forall i in 0..n-1 where not (i == 0) and i != n-1 {\n\
                     x(i) -> x(i-1) volume -1*-3;\n\
                   }";
        roundtrip(src, &[("n", 5)]);
    }

    #[test]
    fn unary_negation_formats_compactly() {
        let p = parse("algorithm t(); exephase e cost -3;").unwrap();
        let out = format_program(&p);
        assert!(out.contains("exephase e cost (-3);"), "{out}");
        let again = format_program(&parse(&out).unwrap());
        assert_eq!(out, again);
    }
}
