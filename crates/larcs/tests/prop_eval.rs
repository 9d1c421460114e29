//! The expression evaluator against the one it replaced: over random
//! integer and boolean expressions — overflow, division and `mod` by zero,
//! negative exponents and unbound variables included — `Ast::eval` and
//! `Ast::eval_bool` return the same value, or the same error (message and
//! span), as a test-side copy of the `HashMap`-environment evaluator.

use oregami_larcs::ast::{Ast, BExpId, BExpKind, ExprId, ExprKind};
use oregami_larcs::expr::{BinOp, CmpOp, Env};
use oregami_larcs::{LarcsError, Span, StringInterner, Symbol};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// The previous evaluator, verbatim but for one deliberate difference:
/// `i64::MIN / -1` and `i64::MIN mod -1`, which panicked there, are the
/// overflow errors the evaluator now reports.
mod oracle {
    use super::*;

    pub fn eval(
        ast: &Ast,
        id: ExprId,
        env: &HashMap<Symbol, i64>,
        interner: &StringInterner,
    ) -> Result<i64, LarcsError> {
        let span = ast.expr_span(id);
        match ast.expr(id) {
            ExprKind::Const(v) => Ok(v),
            ExprKind::Var(sym) => env.get(&sym).copied().ok_or_else(|| {
                LarcsError::elab_at(
                    span,
                    format!("unbound variable '{}'", interner.resolve(sym)),
                )
            }),
            ExprKind::Neg(e) => eval(ast, e, env, interner)?
                .checked_neg()
                .ok_or_else(|| LarcsError::elab_at(span, "arithmetic overflow")),
            ExprKind::Bin(op, a, b) => {
                let x = eval(ast, a, env, interner)?;
                let y = eval(ast, b, env, interner)?;
                let overflow =
                    || LarcsError::elab_at(span, format!("arithmetic overflow in {x} {op:?} {y}"));
                match op {
                    BinOp::Add => x.checked_add(y).ok_or_else(overflow),
                    BinOp::Sub => x.checked_sub(y).ok_or_else(overflow),
                    BinOp::Mul => x.checked_mul(y).ok_or_else(overflow),
                    BinOp::Div => {
                        if y == 0 {
                            Err(LarcsError::elab_at(span, "division by zero"))
                        } else {
                            x.checked_div_euclid(y).ok_or_else(overflow)
                        }
                    }
                    BinOp::Mod => {
                        if y == 0 {
                            Err(LarcsError::elab_at(span, "mod by zero"))
                        } else {
                            x.checked_rem_euclid(y).ok_or_else(overflow)
                        }
                    }
                    BinOp::Pow => {
                        if y < 0 {
                            Err(LarcsError::elab_at(span, format!("negative exponent {y}")))
                        } else {
                            let exp = u32::try_from(y).map_err(|_| overflow())?;
                            x.checked_pow(exp).ok_or_else(overflow)
                        }
                    }
                }
            }
        }
    }

    pub fn eval_bool(
        ast: &Ast,
        id: BExpId,
        env: &HashMap<Symbol, i64>,
        interner: &StringInterner,
    ) -> Result<bool, LarcsError> {
        match ast.bexp(id) {
            BExpKind::Cmp(op, a, b) => {
                let x = eval(ast, a, env, interner)?;
                let y = eval(ast, b, env, interner)?;
                Ok(match op {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                })
            }
            BExpKind::And(a, b) => {
                Ok(eval_bool(ast, a, env, interner)? && eval_bool(ast, b, env, interner)?)
            }
            BExpKind::Or(a, b) => {
                Ok(eval_bool(ast, a, env, interner)? || eval_bool(ast, b, env, interner)?)
            }
            BExpKind::Not(a) => Ok(!eval_bool(ast, a, env, interner)?),
        }
    }
}

/// Values that reach every edge: zero, ±1, small exponents and the
/// extremes, plus anything at all.
fn value(rng: &mut StdRng) -> i64 {
    const EDGES: [i64; 10] = [0, 1, -1, 2, -2, 3, 62, 63, i64::MIN, i64::MAX];
    match rng.random_range(0..4) {
        0 => rng.random_range(i64::MIN..=i64::MAX),
        1 => rng.random_range(-70i64..=70),
        _ => EDGES[rng.random_range(0..EDGES.len())],
    }
}

/// A random arena of expressions over the variables `a`, `b`, `c` (bound)
/// and `u` (never bound). Every node gets its own span, so an error
/// anchored at the wrong subexpression shows.
struct Gen {
    rng: StdRng,
    ast: Ast,
    interner: StringInterner,
    vars: Vec<Symbol>,
    next_span: u32,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        let mut interner = StringInterner::new();
        let vars = ["a", "b", "c", "u"].map(|v| interner.intern(v)).to_vec();
        Gen {
            rng: StdRng::seed_from_u64(seed),
            ast: Ast::new(),
            interner,
            vars,
            next_span: 0,
        }
    }

    fn span(&mut self) -> Span {
        self.next_span += 2;
        Span::new(self.next_span, self.next_span + 1)
    }

    fn expr(&mut self, depth: u32) -> ExprId {
        let kind = match self.rng.random_range(0..if depth == 0 { 2 } else { 6 }) {
            0 => ExprKind::Const(value(&mut self.rng)),
            1 => ExprKind::Var(self.vars[self.rng.random_range(0..self.vars.len())]),
            2 => ExprKind::Neg(self.expr(depth - 1)),
            _ => {
                const OPS: [BinOp; 6] = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Mod,
                    BinOp::Pow,
                ];
                let op = OPS[self.rng.random_range(0..OPS.len())];
                ExprKind::Bin(op, self.expr(depth - 1), self.expr(depth - 1))
            }
        };
        let span = self.span();
        self.ast.alloc_expr(kind, span)
    }

    fn bexp(&mut self, depth: u32) -> BExpId {
        let kind = match self.rng.random_range(0..if depth == 0 { 1 } else { 4 }) {
            0 => {
                const OPS: [CmpOp; 6] = [
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                    CmpOp::Eq,
                    CmpOp::Ne,
                ];
                let op = OPS[self.rng.random_range(0..OPS.len())];
                BExpKind::Cmp(op, self.expr(3), self.expr(3))
            }
            1 => BExpKind::And(self.bexp(depth - 1), self.bexp(depth - 1)),
            2 => BExpKind::Or(self.bexp(depth - 1), self.bexp(depth - 1)),
            _ => BExpKind::Not(self.bexp(depth - 1)),
        };
        let span = self.span();
        self.ast.alloc_bexp(kind, span)
    }

    /// The same bindings of `a`, `b`, `c` in both environment types.
    fn envs(&mut self) -> (Env, HashMap<Symbol, i64>) {
        let pairs: Vec<(Symbol, i64)> = self.vars[..3]
            .iter()
            .map(|&v| (v, value(&mut self.rng)))
            .collect();
        (pairs.iter().copied().collect(), pairs.into_iter().collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn eval_equals_the_hashmap_evaluator(seed in any::<u64>(), depth in 0u32..6) {
        let mut g = Gen::new(seed);
        let e = g.expr(depth);
        let (env, map) = g.envs();
        prop_assert_eq!(
            g.ast.eval(e, &env, &g.interner),
            oracle::eval(&g.ast, e, &map, &g.interner)
        );
    }

    #[test]
    fn eval_bool_equals_the_hashmap_evaluator(seed in any::<u64>(), depth in 0u32..4) {
        let mut g = Gen::new(seed);
        let guard = g.bexp(depth);
        let (env, map) = g.envs();
        let ours = g.ast.eval_bool(guard, &env, &g.interner);
        let theirs = oracle::eval_bool(&g.ast, guard, &map, &g.interner);
        prop_assert_eq!(
            ours.as_ref().map_err(ToString::to_string),
            theirs.as_ref().map_err(ToString::to_string)
        );
        prop_assert_eq!(ours, theirs);
    }
}

/// The generator reaches every error the evaluator can raise, so the
/// properties above compare them all.
#[test]
fn the_generator_reaches_every_error() {
    let mut seen = [false; 6];
    for seed in 0..20_000u64 {
        let mut g = Gen::new(seed);
        let e = g.expr(3);
        let (env, _) = g.envs();
        if let Err(err) = g.ast.eval(e, &env, &g.interner) {
            let m = err.message();
            for (k, needle) in [
                "unbound variable",
                "arithmetic overflow in",
                "division by zero",
                "mod by zero",
                "negative exponent",
            ]
            .iter()
            .enumerate()
            {
                seen[k] |= m.starts_with(needle);
            }
            seen[5] |= m == "arithmetic overflow";
        }
    }
    assert_eq!(
        seen, [true; 6],
        "unbound / overflow / div 0 / mod 0 / negative exponent / negation"
    );
}
