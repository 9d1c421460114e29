//! Abstract syntax of LaRCS programs: interned identifiers, arena
//! allocation, and byte spans.
//!
//! All expression-shaped nodes (integer expressions, boolean guards,
//! phase expressions) live in flat arenas inside [`Ast`], addressed by
//! typed `u32` indices. Declarations reference arena ids and interned
//! [`Symbol`]s, and every node records the [`Span`] of its source text
//! so diagnostics can underline it. Each rule additionally carries a
//! [`RuleId`] — a fingerprint of its canonically formatted text that is
//! insensitive to whitespace, comments, and its position in the file —
//! which is what lets the query layer reuse a rule's elaboration across
//! edits elsewhere in the program.

use crate::error::Span;
use crate::expr::{BinOp, CmpOp};
use crate::intern::{StringInterner, Symbol};

/// Index of an integer expression in `Ast::exprs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExprId(pub u32);

/// Index of a boolean expression in `Ast::bexps`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BExpId(pub u32);

/// Index of a phase expression in `Ast::pexps`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PExpId(pub u32);

/// Stable identity of a rule: an FNV-1a fingerprint of its canonical
/// formatted text. Two rules with the same structure (identifiers,
/// constants, operators) share an id regardless of layout or location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RuleId(pub u64);

/// An integer expression node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal.
    Const(i64),
    /// Parameter, import, or binder variable.
    Var(Symbol),
    /// Binary operation.
    Bin(BinOp, ExprId, ExprId),
    /// Unary negation.
    Neg(ExprId),
}

/// A boolean expression node (rule guards).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BExpKind {
    /// Comparison of two integer expressions.
    Cmp(CmpOp, ExprId, ExprId),
    /// Conjunction.
    And(BExpId, BExpId),
    /// Disjunction.
    Or(BExpId, BExpId),
    /// Negation.
    Not(BExpId),
}

/// A phase expression node; names are resolved against the comm/exec
/// phase declarations during elaboration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PExpKind {
    /// `eps` — idle.
    Eps,
    /// A phase name (communication or execution).
    Name(Symbol),
    /// `r ; s`
    Seq(PExpId, PExpId),
    /// `r ^ e`
    Repeat(PExpId, ExprId),
    /// `r || s`
    Par(PExpId, PExpId),
}

/// The expression arenas of one program.
#[derive(Clone, Debug, Default)]
pub struct Ast {
    exprs: Vec<ExprKind>,
    expr_spans: Vec<Span>,
    bexps: Vec<BExpKind>,
    bexp_spans: Vec<Span>,
    pexps: Vec<PExpKind>,
    pexp_spans: Vec<Span>,
}

impl Ast {
    /// An empty arena set.
    pub fn new() -> Ast {
        Ast::default()
    }

    /// Allocates an integer expression node.
    pub fn alloc_expr(&mut self, kind: ExprKind, span: Span) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(kind);
        self.expr_spans.push(span);
        id
    }

    /// Allocates a boolean expression node.
    pub fn alloc_bexp(&mut self, kind: BExpKind, span: Span) -> BExpId {
        let id = BExpId(self.bexps.len() as u32);
        self.bexps.push(kind);
        self.bexp_spans.push(span);
        id
    }

    /// Allocates a phase expression node.
    pub fn alloc_pexp(&mut self, kind: PExpKind, span: Span) -> PExpId {
        let id = PExpId(self.pexps.len() as u32);
        self.pexps.push(kind);
        self.pexp_spans.push(span);
        id
    }

    /// The node behind an expression id.
    pub fn expr(&self, id: ExprId) -> ExprKind {
        self.exprs[id.0 as usize]
    }

    /// The node behind a boolean expression id.
    pub fn bexp(&self, id: BExpId) -> BExpKind {
        self.bexps[id.0 as usize]
    }

    /// The node behind a phase expression id.
    pub fn pexp(&self, id: PExpId) -> PExpKind {
        self.pexps[id.0 as usize]
    }

    /// The source span of an expression.
    pub fn expr_span(&self, id: ExprId) -> Span {
        self.expr_spans[id.0 as usize]
    }

    /// The source span of a boolean expression.
    pub fn bexp_span(&self, id: BExpId) -> Span {
        self.bexp_spans[id.0 as usize]
    }

    /// The source span of a phase expression.
    pub fn pexp_span(&self, id: PExpId) -> Span {
        self.pexp_spans[id.0 as usize]
    }
}

/// An interned identifier with its source span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ident {
    /// The interned name.
    pub sym: Symbol,
    /// Where it was written.
    pub span: Span,
}

/// A complete LaRCS program: the source it was parsed from, the string
/// table, the expression arenas, and the declaration list.
#[derive(Clone, Debug)]
pub struct Program {
    /// The exact source text (diagnostics render excerpts from it).
    pub src: String,
    /// Identifier table.
    pub interner: StringInterner,
    /// Expression arenas.
    pub ast: Ast,
    /// Algorithm name from the `algorithm` header.
    pub name: Ident,
    /// Formal parameters (bound at elaboration time).
    pub params: Vec<Ident>,
    /// Variables imported from the host-language source (also bound at
    /// elaboration time; the paper's "imported variables").
    pub imports: Vec<Ident>,
    /// Node type declarations.
    pub nodetypes: Vec<NodeTypeDecl>,
    /// Communication phase declarations, in source order (the edge colors).
    pub comphases: Vec<CommPhaseDecl>,
    /// Execution phase declarations.
    pub exephases: Vec<ExecPhaseDecl>,
    /// The phase expression, if declared.
    pub phase_expr: Option<PExpId>,
}

impl Program {
    /// The string behind an interned symbol.
    pub fn str(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// The algorithm name as text.
    pub fn name_str(&self) -> &str {
        self.str(self.name.sym)
    }

    /// Index of the comphase called `name`, if declared.
    pub fn comphase_index(&self, name: &str) -> Option<usize> {
        let sym = self.interner.get(name)?;
        self.comphases.iter().position(|cp| cp.name.sym == sym)
    }
}

/// `nodetype body: 0..n-1 nodesymmetric;` — a node type with a labeling
/// scheme (one range per label dimension) and optional attributes.
#[derive(Clone, Debug)]
pub struct NodeTypeDecl {
    /// Type name, used in edge declarations.
    pub name: Ident,
    /// The whole declaration's source span.
    pub span: Span,
    /// One `(lo, hi)` inclusive range per label dimension.
    pub ranges: Vec<(ExprId, ExprId)>,
    /// `nodesymmetric` attribute (a promise the mapper may exploit).
    pub node_symmetric: bool,
    /// `family(name)` attribute declaring a well-known graph family.
    pub family: Option<Symbol>,
}

/// `comphase ring: <rules>` — one communication phase.
#[derive(Clone, Debug)]
pub struct CommPhaseDecl {
    /// Phase name (referenced by the phase expression).
    pub name: Ident,
    /// Edge-generating rules.
    pub rules: Vec<Rule>,
}

/// A single edge-generating rule: either a bare edge or a
/// `forall <binders> [where <guard>] { <edges> }` comprehension.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Structural fingerprint (see [`RuleId`]); the query layer's
    /// elaboration cache key.
    pub id: RuleId,
    /// The rule's full source span (`forall ... }` or the bare edge).
    pub span: Span,
    /// Iteration binders `i in lo..hi` (later binders may reference earlier
    /// ones).
    pub binders: Vec<Binder>,
    /// Optional guard; the edges are generated only where it holds.
    pub guard: Option<BExpId>,
    /// Edge templates instantiated for every binder combination.
    pub edges: Vec<EdgeDecl>,
}

/// `i in lo..hi` (inclusive bounds).
#[derive(Clone, Debug)]
pub struct Binder {
    /// Variable name.
    pub var: Ident,
    /// Lower bound.
    pub lo: ExprId,
    /// Upper bound (inclusive).
    pub hi: ExprId,
}

/// `body(i) -> body((i+1) mod n) volume msgsize;`
#[derive(Clone, Debug)]
pub struct EdgeDecl {
    /// The whole edge declaration's span.
    pub span: Span,
    /// Source node type.
    pub src_type: Ident,
    /// Source label tuple.
    pub src_args: Vec<ExprId>,
    /// Destination node type.
    pub dst_type: Ident,
    /// Destination label tuple.
    pub dst_args: Vec<ExprId>,
    /// Message volume (defaults to 1).
    pub volume: Option<ExprId>,
}

/// `exephase compute1 cost 50;`
#[derive(Clone, Debug)]
pub struct ExecPhaseDecl {
    /// Phase name (referenced by the phase expression).
    pub name: Ident,
    /// Cost estimate (defaults to 1).
    pub cost: Option<ExprId>,
}
