//! Integer and boolean expression evaluation over the arena AST, and
//! syntactic affinity analysis.
//!
//! LaRCS communication functions are "simple functions ... [that] may
//! involve arithmetic expressions, for-loops, while-loops, imported
//! parameters, and other LaRCS variables". Expressions here are integer
//! arithmetic over parameters and binder variables with `+ - * / % mod div
//! **`; `mod`/`%` are Euclidean (always nonnegative), `/`/`div` are the
//! matching floor division, and `**` is exponentiation (used e.g. for
//! binomial-tree strides `2**j`).
//!
//! Evaluation errors carry the span of the offending (sub)expression, so
//! a division by zero deep inside a guard underlines exactly the term
//! that divided.

use crate::ast::{Ast, BExpKind, ExprId, BExpId, ExprKind};
use crate::error::LarcsError;
use crate::intern::{StringInterner, Symbol};

/// Binary integer operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` or `div` (floor division).
    Div,
    /// `%` or `mod` (Euclidean remainder).
    Mod,
    /// `**` (exponentiation).
    Pow,
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// Variable bindings for evaluation: a dense slot table indexed by
/// [`Symbol::index`], so a lookup at a binder point is one bounds-checked
/// load rather than a hash.
#[derive(Clone, Debug, Default)]
pub struct Env {
    slots: Vec<Option<i64>>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// The value bound to `sym`, if any.
    pub fn get(&self, sym: Symbol) -> Option<i64> {
        self.slots.get(sym.index()).copied().flatten()
    }

    /// Whether `sym` is bound.
    pub fn contains(&self, sym: Symbol) -> bool {
        self.get(sym).is_some()
    }

    /// Binds `sym` to `value`, returning the value it replaces.
    pub fn insert(&mut self, sym: Symbol, value: i64) -> Option<i64> {
        let i = sym.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i].replace(value)
    }

    /// Unbinds `sym`, returning its value.
    pub fn remove(&mut self, sym: Symbol) -> Option<i64> {
        self.slots.get_mut(sym.index()).and_then(Option::take)
    }
}

impl FromIterator<(Symbol, i64)> for Env {
    /// Later bindings of the same symbol replace earlier ones.
    fn from_iter<I: IntoIterator<Item = (Symbol, i64)>>(pairs: I) -> Env {
        let mut env = Env::new();
        for (sym, value) in pairs {
            env.insert(sym, value);
        }
        env
    }
}

/// Why an evaluation stopped: the offending subexpression and what went
/// wrong there. The recursion passes this small `Copy` value up; it
/// becomes a [`LarcsError`] once, at the public boundary.
#[derive(Clone, Copy, Debug)]
struct Fault {
    at: ExprId,
    kind: FaultKind,
}

#[derive(Clone, Copy, Debug)]
enum FaultKind {
    /// A variable with no binding.
    Unbound(Symbol),
    /// Negating `i64::MIN`.
    NegOverflow,
    /// `x op y` does not fit in an `i64`.
    Overflow(BinOp, i64, i64),
    /// `/` or `mod` by zero.
    ByZero(BinOp),
    /// `x ** y` with `y < 0`.
    NegativeExponent(i64),
}

impl Fault {
    /// The diagnostic, anchored at the offending subexpression's span.
    #[cold]
    fn into_error(self, ast: &Ast, interner: &StringInterner) -> LarcsError {
        let message = match self.kind {
            FaultKind::Unbound(sym) => {
                format!("unbound variable '{}'", interner.resolve(sym))
            }
            FaultKind::NegOverflow => "arithmetic overflow".to_string(),
            FaultKind::Overflow(op, x, y) => format!("arithmetic overflow in {x} {op:?} {y}"),
            FaultKind::ByZero(BinOp::Mod) => "mod by zero".to_string(),
            FaultKind::ByZero(_) => "division by zero".to_string(),
            FaultKind::NegativeExponent(y) => format!("negative exponent {y}"),
        };
        LarcsError::elab_at(ast.expr_span(self.at), message)
    }
}

impl Ast {
    /// Evaluates expression `id` under `env`; errors (unbound variables,
    /// division by zero, negative exponents, overflow) are anchored at
    /// the offending subexpression's span.
    #[inline]
    pub fn eval(
        &self,
        id: ExprId,
        env: &Env,
        interner: &StringInterner,
    ) -> Result<i64, LarcsError> {
        self.eval_in(id, env)
            .map_err(|fault| fault.into_error(self, interner))
    }

    /// Evaluates a boolean guard under `env`. `and` and `or` short-circuit:
    /// an error in an operand that is never read is never raised.
    #[inline]
    pub fn eval_bool(
        &self,
        id: BExpId,
        env: &Env,
        interner: &StringInterner,
    ) -> Result<bool, LarcsError> {
        self.eval_bool_in(id, env)
            .map_err(|fault| fault.into_error(self, interner))
    }

    /// One node. Constants and variables answer in place, so the
    /// recursion descends only into operators.
    #[inline(always)]
    fn eval_in(&self, id: ExprId, env: &Env) -> Result<i64, Fault> {
        match self.expr(id) {
            ExprKind::Const(v) => Ok(v),
            ExprKind::Var(sym) => env.get(sym).ok_or(Fault {
                at: id,
                kind: FaultKind::Unbound(sym),
            }),
            ExprKind::Neg(e) => self.eval_neg(id, e, env),
            ExprKind::Bin(op, a, b) => self.eval_bin(id, op, a, b, env),
        }
    }

    fn eval_neg(&self, id: ExprId, e: ExprId, env: &Env) -> Result<i64, Fault> {
        self.eval_in(e, env)?.checked_neg().ok_or(Fault {
            at: id,
            kind: FaultKind::NegOverflow,
        })
    }

    fn eval_bin(
        &self,
        id: ExprId,
        op: BinOp,
        a: ExprId,
        b: ExprId,
        env: &Env,
    ) -> Result<i64, Fault> {
        let x = self.eval_in(a, env)?;
        let y = self.eval_in(b, env)?;
        let fault = |kind| Fault { at: id, kind };
        let overflow = fault(FaultKind::Overflow(op, x, y));
        match op {
            BinOp::Add => x.checked_add(y).ok_or(overflow),
            BinOp::Sub => x.checked_sub(y).ok_or(overflow),
            BinOp::Mul => x.checked_mul(y).ok_or(overflow),
            BinOp::Div | BinOp::Mod if y == 0 => Err(fault(FaultKind::ByZero(op))),
            // `i64::MIN / -1` is the one quotient that overflows
            BinOp::Div => x.checked_div_euclid(y).ok_or(overflow),
            BinOp::Mod => x.checked_rem_euclid(y).ok_or(overflow),
            BinOp::Pow if y < 0 => Err(fault(FaultKind::NegativeExponent(y))),
            BinOp::Pow => u32::try_from(y)
                .ok()
                .and_then(|exp| x.checked_pow(exp))
                .ok_or(overflow),
        }
    }

    fn eval_bool_in(&self, id: BExpId, env: &Env) -> Result<bool, Fault> {
        Ok(match self.bexp(id) {
            BExpKind::Cmp(op, a, b) => {
                let x = self.eval_in(a, env)?;
                let y = self.eval_in(b, env)?;
                match op {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                }
            }
            BExpKind::And(a, b) => self.eval_bool_in(a, env)? && self.eval_bool_in(b, env)?,
            BExpKind::Or(a, b) => self.eval_bool_in(a, env)? || self.eval_bool_in(b, env)?,
            BExpKind::Not(a) => !self.eval_bool_in(a, env)?,
        })
    }

    /// Collects the free variables of expression `id` (deduplicated, in
    /// first-occurrence order).
    fn free_vars(&self, id: ExprId, out: &mut Vec<Symbol>) {
        match self.expr(id) {
            ExprKind::Const(_) => {}
            ExprKind::Var(sym) => {
                if !out.contains(&sym) {
                    out.push(sym);
                }
            }
            ExprKind::Neg(e) => self.free_vars(e, out),
            ExprKind::Bin(_, a, b) => {
                self.free_vars(a, out);
                self.free_vars(b, out);
            }
        }
    }

    /// **Syntactic affinity check** (paper §4.2.1): is the expression an
    /// affine function of the variables in `vars` (with coefficients that
    /// may involve other variables, e.g. parameters)?
    ///
    /// Affine means: sums/differences of terms, where each term is either
    /// free of `vars` or a product of something free of `vars` with a
    /// single bare variable from `vars`. `mod`, `div`, and `**` over a
    /// `vars` operand are non-affine.
    pub fn is_affine_in(&self, id: ExprId, vars: &[Symbol]) -> bool {
        let uses = |e: ExprId| -> bool {
            let mut fv = Vec::new();
            self.free_vars(e, &mut fv);
            fv.iter().any(|v| vars.contains(v))
        };
        match self.expr(id) {
            ExprKind::Const(_) => true,
            ExprKind::Var(_) => true,
            ExprKind::Neg(e) => self.is_affine_in(e, vars),
            ExprKind::Bin(BinOp::Add | BinOp::Sub, a, b) => {
                self.is_affine_in(a, vars) && self.is_affine_in(b, vars)
            }
            ExprKind::Bin(BinOp::Mul, a, b) => {
                // at most one side may involve the lattice variables, and
                // that side must itself be affine
                match (uses(a), uses(b)) {
                    (false, false) => true,
                    (true, false) => self.is_affine_in(a, vars),
                    (false, true) => self.is_affine_in(b, vars),
                    (true, true) => false,
                }
            }
            ExprKind::Bin(BinOp::Div | BinOp::Mod | BinOp::Pow, a, b) => {
                // non-affine whenever a lattice variable is involved
                !uses(a) && !uses(b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Span;

    /// Tiny builder for constructing arena expressions in tests.
    struct B {
        ast: Ast,
        interner: StringInterner,
    }

    impl B {
        fn new() -> B {
            B { ast: Ast::new(), interner: StringInterner::new() }
        }
        fn var(&mut self, s: &str) -> ExprId {
            let sym = self.interner.intern(s);
            self.ast.alloc_expr(ExprKind::Var(sym), Span::DUMMY)
        }
        fn konst(&mut self, v: i64) -> ExprId {
            self.ast.alloc_expr(ExprKind::Const(v), Span::DUMMY)
        }
        fn bin(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
            self.ast.alloc_expr(ExprKind::Bin(op, a, b), Span::DUMMY)
        }
        fn env(&mut self, pairs: &[(&str, i64)]) -> Env {
            pairs
                .iter()
                .map(|&(k, v)| (self.interner.intern(k), v))
                .collect()
        }
        fn eval(&self, id: ExprId, env: &Env) -> Result<i64, LarcsError> {
            self.ast.eval(id, env, &self.interner)
        }
    }

    #[test]
    fn arithmetic_eval() {
        // (i + 1) mod n with i=7, n=8 => 0
        let mut b = B::new();
        let i = b.var("i");
        let one = b.konst(1);
        let sum = b.bin(BinOp::Add, i, one);
        let n = b.var("n");
        let e = b.bin(BinOp::Mod, sum, n);
        let env = b.env(&[("i", 7), ("n", 8)]);
        assert_eq!(b.eval(e, &env).unwrap(), 0);
    }

    #[test]
    fn euclidean_mod_and_floor_div() {
        let mut b = B::new();
        let m3 = b.konst(-3);
        let eight = b.konst(8);
        let m = b.bin(BinOp::Mod, m3, eight);
        assert_eq!(b.eval(m, &Env::new()).unwrap(), 5);
        let m3b = b.konst(-3);
        let two = b.konst(2);
        let d = b.bin(BinOp::Div, m3b, two);
        assert_eq!(b.eval(d, &Env::new()).unwrap(), -2);
    }

    #[test]
    fn pow() {
        let mut b = B::new();
        let two = b.konst(2);
        let j = b.var("j");
        let e = b.bin(BinOp::Pow, two, j);
        let env = b.env(&[("j", 10)]);
        assert_eq!(b.eval(e, &env).unwrap(), 1024);
        let env = b.env(&[("j", -1)]);
        assert!(b.eval(e, &env).is_err());
    }

    #[test]
    fn unbound_and_zero_division_errors() {
        let mut b = B::new();
        let z = b.var("zzz");
        assert!(b.eval(z, &Env::new()).is_err());
        let one = b.konst(1);
        let zero = b.konst(0);
        let d = b.bin(BinOp::Div, one, zero);
        assert!(b.eval(d, &Env::new()).is_err());
        let m = b.bin(BinOp::Mod, one, zero);
        assert!(b.eval(m, &Env::new()).is_err());
    }

    #[test]
    fn overflow_detected() {
        let mut b = B::new();
        let max = b.konst(i64::MAX);
        let two = b.konst(2);
        let e = b.bin(BinOp::Mul, max, two);
        assert!(b.eval(e, &Env::new()).is_err());
        let ten = b.konst(10);
        let forty = b.konst(40);
        let p = b.bin(BinOp::Pow, ten, forty);
        assert!(b.eval(p, &Env::new()).is_err());
    }

    #[test]
    fn min_over_minus_one_is_an_overflow_error_not_a_panic() {
        // -(2**62)*2 is i64::MIN; its quotient and remainder by -1 overflow
        let range = "algorithm t();\n\
                     nodetype x: 0..(-(2**62)*2) / (0-1);\n\
                     comphase c: x(0) -> x(1);";
        let err = crate::compile(range, &[]).unwrap_err();
        assert!(err.message().starts_with("arithmetic overflow in"), "{err}");
        let guard = "algorithm t();\n\
                     nodetype x: 0..1;\n\
                     comphase c: forall i in 0..1 where ((-(2**62)*2) mod (0-1)) == 0 \
                     { x(i) -> x(i); }";
        let err = crate::compile(guard, &[]).unwrap_err();
        assert!(err.message().starts_with("arithmetic overflow in"), "{err}");
    }

    #[test]
    fn dense_env_rebinds_and_unbinds() {
        let mut i = StringInterner::new();
        let (a, b) = (i.intern("a"), i.intern("b"));
        let mut env = Env::new();
        assert_eq!(env.get(b), None);
        assert_eq!(env.insert(b, 7), None);
        assert_eq!(env.insert(b, 8), Some(7));
        assert!(env.contains(b) && !env.contains(a));
        assert_eq!(env.remove(b), Some(8));
        assert_eq!(env.remove(a), None);
        let env: Env = [(a, 1), (a, 2)].into_iter().collect();
        assert_eq!(env.get(a), Some(2));
    }

    #[test]
    fn free_vars_collected_once() {
        let mut b = B::new();
        let i = b.var("i");
        let i2 = b.var("i");
        let n = b.var("n");
        let prod = b.bin(BinOp::Mul, i2, n);
        let e = b.bin(BinOp::Add, i, prod);
        let mut fv = Vec::new();
        b.ast.free_vars(e, &mut fv);
        let names: Vec<&str> = fv.iter().map(|&s| b.interner.resolve(s)).collect();
        assert_eq!(names, vec!["i", "n"]);
    }

    #[test]
    fn affine_checks() {
        let mut b = B::new();
        let vi = b.interner.intern("i");
        let vj = b.interner.intern("j");
        let vars = [vi, vj];
        // i + 2*j + n : affine
        let i = b.var("i");
        let two = b.konst(2);
        let j = b.var("j");
        let twoj = b.bin(BinOp::Mul, two, j);
        let n = b.var("n");
        let tail = b.bin(BinOp::Add, twoj, n);
        let a = b.bin(BinOp::Add, i, tail);
        assert!(b.ast.is_affine_in(a, &vars));
        // n*i : affine (parameter coefficient)
        let n2 = b.var("n");
        let i2 = b.var("i");
        let prod = b.bin(BinOp::Mul, n2, i2);
        assert!(b.ast.is_affine_in(prod, &vars));
        // i*j : not affine
        let i3 = b.var("i");
        let j2 = b.var("j");
        let ij = b.bin(BinOp::Mul, i3, j2);
        assert!(!b.ast.is_affine_in(ij, &vars));
        // (i+1) mod n : not affine
        let i4 = b.var("i");
        let one = b.konst(1);
        let sum = b.bin(BinOp::Add, i4, one);
        let n3 = b.var("n");
        let m = b.bin(BinOp::Mod, sum, n3);
        assert!(!b.ast.is_affine_in(m, &vars));
        // (n+1)/2 : affine (no lattice vars at all)
        let n4 = b.var("n");
        let one2 = b.konst(1);
        let s2 = b.bin(BinOp::Add, n4, one2);
        let two2 = b.konst(2);
        let d = b.bin(BinOp::Div, s2, two2);
        assert!(b.ast.is_affine_in(d, &vars));
    }

    #[test]
    fn guards_eval() {
        use crate::ast::BExpKind;
        let mut b = B::new();
        let i = b.var("i");
        let n = b.var("n");
        let lt = b.ast.alloc_bexp(BExpKind::Cmp(CmpOp::Lt, i, n), Span::DUMMY);
        let i2 = b.var("i");
        let three = b.konst(3);
        let eq = b.ast.alloc_bexp(BExpKind::Cmp(CmpOp::Eq, i2, three), Span::DUMMY);
        let noteq = b.ast.alloc_bexp(BExpKind::Not(eq), Span::DUMMY);
        let g = b.ast.alloc_bexp(BExpKind::And(lt, noteq), Span::DUMMY);
        let ev = |b: &mut B, i_val, n_val| {
            let env = b.env(&[("i", i_val), ("n", n_val)]);
            b.ast.eval_bool(g, &env, &b.interner).unwrap()
        };
        assert!(ev(&mut b, 2, 5));
        assert!(!ev(&mut b, 3, 5));
        assert!(!ev(&mut b, 6, 5));
    }
}
