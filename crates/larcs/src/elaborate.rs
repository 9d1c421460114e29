//! Elaboration: instantiating a parsed LaRCS program with concrete
//! parameter values to produce the task graph.
//!
//! This is the LaRCS "compiler" of the paper: the compact parametric
//! description (independent of `n`) is expanded into the weighted, colored
//! task graph `G = (V, E_1, ..., E_c)` that MAPPER and METRICS operate on.
//!
//! Elaboration is split into two halves so the query layer can memoize
//! the expensive one per rule:
//!
//! 1. **Fragment expansion** (`expand_rule_fragment`) iterates one
//!    rule's binder cross-product and produces its edge list as plain
//!    `(src, dst, volume)` triples. A fragment depends only on the rule's
//!    canonical text ([`RuleId`]), the parameter environment, the node
//!    type table, and the limits — so it can be keyed and cached across
//!    edits to *other* parts of the program.
//! 2. **Assembly** replays the fragments into a `TaskGraph` in
//!    declaration order, applying the same global edge cap the
//!    non-caching path applies.
//!
//! Both the batch entry point [`elaborate`] and the cached one
//! ([`elaborate_with_cache`], used by [`crate::query::Db`]) run the exact
//! same expansion and assembly code, which is what makes incremental
//! results byte-identical to batch results by construction.

use crate::ast::*;
use crate::error::LarcsError;
use crate::expr::Env;
use crate::intern::Symbol;
use crate::lexer::Fnv;
use oregami_graph::{
    task_graph::Cost, Family, PhaseExpr, TaskGraph, TaskId, TaskNode,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Elaboration limits and defaults.
#[derive(Clone, Debug)]
pub struct ElabOptions {
    /// Maximum number of task nodes (guards against runaway parameters).
    pub max_nodes: usize,
    /// Maximum number of communication edges across all phases.
    pub max_edges: usize,
    /// Maximum total binder iterations per rule (guards against rules like
    /// `forall i in 0..2**60 where ...` whose guard rejects everything: no
    /// edges are ever emitted, so the edge cap alone would never fire and
    /// elaboration would spin effectively forever).
    pub max_iterations: u64,
    /// Volume used when an edge declares none.
    pub default_volume: u64,
    /// Cost used when an execution phase declares none.
    pub default_cost: u64,
}

impl Default for ElabOptions {
    fn default() -> Self {
        ElabOptions {
            max_nodes: 1 << 20,
            max_edges: 1 << 23,
            max_iterations: 1 << 26,
            default_volume: 1,
            default_cost: 1,
        }
    }
}

impl ElabOptions {
    /// Content fingerprint, part of every fragment/skeleton cache key.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.max_nodes as u64);
        h.u64(self.max_edges as u64);
        h.u64(self.max_iterations);
        h.u64(self.default_volume);
        h.u64(self.default_cost);
        h.finish()
    }
}

/// The expanded edge list of one rule: `(src, dst, volume)` triples in
/// emission order, with node endpoints already resolved to task indices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleFragment {
    /// Edges in the order the rule emits them.
    pub edges: Vec<(usize, usize, u64)>,
}

/// Cache key for one rule's fragment. The rule is identified by its
/// layout-insensitive [`RuleId`]; the rest pins down everything else the
/// expansion reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct FragmentKey {
    rule: RuleId,
    /// Fingerprint of the parameter/import environment.
    env_fp: u64,
    /// Fingerprint of the node type table (names, ranges, offsets).
    types_fp: u64,
    /// Fingerprint of the [`ElabOptions`].
    opts_fp: u64,
}

/// Memoization state for [`elaborate_with_cache`]: per-rule fragments and
/// per-shape node skeletons. Owned by [`crate::query::Db`]; plain
/// [`elaborate`] runs cache-free.
#[derive(Debug, Default)]
pub struct ElabCache {
    fragments: HashMap<FragmentKey, Arc<RuleFragment>>,
    /// Node-skeleton graphs (nodes + family + symmetry, no phases) keyed
    /// by the evaluated node type table. Node materialization formats a
    /// string label per task, which would otherwise dominate incremental
    /// re-elaboration.
    skeletons: HashMap<u64, Arc<TaskGraph>>,
    /// Fragment cache hits.
    pub hits: u64,
    /// Fragment cache misses (rules actually expanded).
    pub misses: u64,
    /// Skeleton cache hits.
    pub skeleton_hits: u64,
    /// Skeleton cache misses (node sets actually materialized).
    pub skeleton_misses: u64,
}

/// Bound on retained fragments; the cache is cleared wholesale beyond it
/// (an edit session touches a handful of rules, so this never fires in
/// normal use).
const MAX_FRAGMENTS: usize = 4096;
/// Bound on retained node skeletons.
const MAX_SKELETONS: usize = 64;

impl ElabCache {
    /// An empty cache.
    pub fn new() -> ElabCache {
        ElabCache::default()
    }

    /// Drops all cached fragments and skeletons (counters survive).
    pub fn clear(&mut self) {
        self.fragments.clear();
        self.skeletons.clear();
    }
}

struct NodeType {
    /// Starting task id of this type's block.
    offset: usize,
    /// Inclusive (lo, hi) per dimension.
    ranges: Vec<(i64, i64)>,
    /// Extent per dimension.
    dims: Vec<usize>,
}

impl NodeType {
    /// One row-major step: folds coordinate `c` of dimension `d` into the
    /// partial index `acc`, if `c` is in range.
    ///
    /// All arithmetic is checked: the index is bounded by [`Self::count`]
    /// (itself validated against `max_nodes` at declaration time), so
    /// overflow here would indicate a corrupted table rather than user
    /// error, but a `None` beats a wrap in either case.
    fn step(&self, acc: usize, d: usize, c: i64) -> Option<usize> {
        let (lo, hi) = self.ranges[d];
        if c < lo || c > hi {
            return None;
        }
        let step = usize::try_from(c.checked_sub(lo)?).ok()?;
        acc.checked_mul(self.dims[d])?.checked_add(step)
    }

    /// Total node count, or `None` on overflow (e.g. two dimensions of
    /// `2**62` each — the product wraps `usize` long before any allocation
    /// would fail).
    fn count(&self) -> Option<usize> {
        self.dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
    }
}

/// The evaluated node type table, dense by type-name symbol, with what
/// the skeleton and the fragment keys read off it.
struct NodeTable {
    /// Indexed by [`Symbol::index`] of the type name.
    types: Vec<Option<NodeType>>,
    /// The declared family, when a single nodetype declares one.
    family: Option<Family>,
    /// Every nodetype declared `nodesymmetric`.
    all_symmetric: bool,
    /// Fingerprint of names, ranges and attributes.
    fp: u64,
}

impl NodeTable {
    fn get(&self, sym: Symbol) -> Option<&NodeType> {
        self.types.get(sym.index())?.as_ref()
    }
}

/// Elaborates `program` with the given parameter/import bindings.
///
/// Every declared parameter and import must be bound; unknown bindings are
/// rejected (they are almost always typos).
pub fn elaborate(
    program: &Program,
    params: &[(&str, i64)],
    opts: &ElabOptions,
) -> Result<TaskGraph, LarcsError> {
    elaborate_with_cache(program, params, opts, None)
}

/// [`elaborate`], with an optional memoization cache. With `Some(cache)`,
/// rule fragments and the node skeleton are reused across calls whenever
/// their inputs are unchanged; the produced graph is identical to the
/// cache-free result because both paths replay the same fragments through
/// the same assembly.
pub fn elaborate_with_cache(
    program: &Program,
    params: &[(&str, i64)],
    opts: &ElabOptions,
    mut cache: Option<&mut ElabCache>,
) -> Result<TaskGraph, LarcsError> {
    let (env, env_fp) = bind_params(program, params)?;
    let table = node_table(program, &env, opts)?;
    let mut tg = skeleton(program, &table, cache.as_deref_mut());
    // every rule fills in its own id
    let key = FragmentKey {
        rule: RuleId(0),
        env_fp,
        types_fp: table.fp,
        opts_fp: opts.fingerprint(),
    };
    add_comphases(program, &mut tg, &table, &env, opts, key, cache)?;
    add_exephases(program, &mut tg, &env, opts)?;
    if let Some(pe) = program.phase_expr {
        tg.phase_expr = Some(resolve_pexp(program, pe, &tg, &env)?);
    }
    tg.validate().map_err(LarcsError::elab)?;
    Ok(tg)
}

/// The parameter environment: every declared parameter and import bound
/// to its value, and the environment's fingerprint.
fn bind_params(program: &Program, params: &[(&str, i64)]) -> Result<(Env, u64), LarcsError> {
    let it = &program.interner;
    // Env is keyed on interned symbols; a binding whose name was never
    // interned cannot possibly be a declared parameter.
    let mut env = Env::new();
    for &(name, value) in params {
        let sym = it.get(name).filter(|s| {
            program.params.iter().any(|p| p.sym == *s)
                || program.imports.iter().any(|p| p.sym == *s)
        });
        let sym = sym.ok_or_else(|| {
            LarcsError::elab(format!(
                "'{name}' is not a parameter or import of algorithm '{}'",
                program.name_str()
            ))
        })?;
        if env.insert(sym, value).is_some() {
            return Err(LarcsError::elab(format!("'{name}' bound twice")));
        }
    }
    for declared in program.params.iter().chain(&program.imports) {
        if !env.contains(declared.sym) {
            return Err(LarcsError::elab_at(
                declared.span,
                format!(
                    "parameter '{}' of algorithm '{}' is unbound",
                    it.resolve(declared.sym),
                    program.name_str()
                ),
            ));
        }
    }
    // Name/value pairs sorted by name (every one is bound exactly once),
    // so the fingerprint is stable across re-parses that intern symbols
    // in a different order.
    let mut pairs = params.to_vec();
    pairs.sort_unstable();
    let mut h = Fnv::new();
    for (name, value) in pairs {
        h.bytes(name.as_bytes());
        h.byte(0xff);
        h.u64(value as u64);
    }
    Ok((env, h.finish()))
}

/// Evaluates every nodetype's ranges under `env` and lays the types out
/// as consecutive blocks of task ids.
fn node_table(program: &Program, env: &Env, opts: &ElabOptions) -> Result<NodeTable, LarcsError> {
    if program.nodetypes.is_empty() {
        return Err(LarcsError::elab("program declares no nodetype"));
    }
    let it = &program.interner;
    let mut table = NodeTable {
        types: Vec::new(),
        family: None,
        all_symmetric: true,
        fp: 0,
    };
    let mut shape = Fnv::new();
    shape.bytes(program.name_str().as_bytes());
    shape.byte(0xff);
    let mut total_nodes = 0usize;
    for decl in &program.nodetypes {
        let decl_name = it.resolve(decl.name.sym);
        if table.get(decl.name.sym).is_some() {
            return Err(LarcsError::elab_at(
                decl.name.span,
                format!("nodetype '{decl_name}' declared twice"),
            ));
        }
        let nt = eval_node_type(program, decl, env, opts, total_nodes)?;
        let count = nt
            .count()
            .filter(|&c| c <= opts.max_nodes.saturating_sub(total_nodes))
            .ok_or_else(|| {
                LarcsError::elab_at(
                    decl.span,
                    format!("too many task nodes (> {})", opts.max_nodes),
                )
            })?;
        total_nodes += count;
        table.all_symmetric &= decl.node_symmetric;
        shape.bytes(decl_name.as_bytes());
        shape.byte(0xff);
        shape.byte(decl.node_symmetric as u8);
        for &(lo, hi) in &nt.ranges {
            h_i64(&mut shape, lo);
            h_i64(&mut shape, hi);
        }
        if let Some(fam) = decl.family {
            let fam_name = it.resolve(fam);
            shape.bytes(fam_name.as_bytes());
            shape.byte(0xff);
            if program.nodetypes.len() == 1 {
                table.family = family_from_decl(fam_name, &nt.dims);
                if table.family.is_none() {
                    return Err(LarcsError::elab_at(
                        decl.span,
                        format!("family '{fam_name}' does not match the nodetype's shape"),
                    ));
                }
            }
        }
        let slot = decl.name.sym.index();
        if slot >= table.types.len() {
            table.types.resize_with(slot + 1, || None);
        }
        table.types[slot] = Some(nt);
    }
    table.fp = shape.finish();
    Ok(table)
}

/// One nodetype's block of task ids from `offset`: its ranges evaluated
/// under `env`, each extent checked against the node limit.
fn eval_node_type(
    program: &Program,
    decl: &NodeTypeDecl,
    env: &Env,
    opts: &ElabOptions,
    offset: usize,
) -> Result<NodeType, LarcsError> {
    let it = &program.interner;
    let decl_name = it.resolve(decl.name.sym);
    let mut ranges = Vec::with_capacity(decl.ranges.len());
    let mut dims = Vec::with_capacity(decl.ranges.len());
    for &(lo_e, hi_e) in &decl.ranges {
        let lo = program.ast.eval(lo_e, env, it)?;
        let hi = program.ast.eval(hi_e, env, it)?;
        if hi < lo {
            return Err(LarcsError::elab_at(
                decl.span,
                format!("nodetype '{decl_name}': empty range {lo}..{hi}"),
            ));
        }
        // `hi - lo` can overflow i64 for adversarial bounds (e.g.
        // `-2**62 .. 2**62`), so the extent is computed checked and
        // capped immediately — long before any allocation.
        let extent = hi
            .checked_sub(lo)
            .and_then(|d| d.checked_add(1))
            .and_then(|e| usize::try_from(e).ok())
            .filter(|&e| e <= opts.max_nodes)
            .ok_or_else(|| {
                LarcsError::elab_at(
                    decl.span,
                    format!(
                        "nodetype '{decl_name}': too many task nodes \
                         (range {lo}..{hi} exceeds the node limit {})",
                        opts.max_nodes
                    ),
                )
            })?;
        ranges.push((lo, hi));
        dims.push(extent);
    }
    Ok(NodeType {
        offset,
        ranges,
        dims,
    })
}

/// The node skeleton (nodes and attributes, no phases), from the cache
/// when this table's shape was materialised before.
fn skeleton(program: &Program, table: &NodeTable, cache: Option<&mut ElabCache>) -> TaskGraph {
    let Some(cache) = cache else {
        return materialise_nodes(program, table);
    };
    if let Some(skel) = cache.skeletons.get(&table.fp) {
        cache.skeleton_hits += 1;
        return (**skel).clone();
    }
    let tg = materialise_nodes(program, table);
    cache.skeleton_misses += 1;
    if cache.skeletons.len() >= MAX_SKELETONS {
        cache.skeletons.clear();
    }
    cache.skeletons.insert(table.fp, Arc::new(tg.clone()));
    tg
}

/// Every nodetype's tasks, in declaration order and row-major within a
/// type.
fn materialise_nodes(program: &Program, table: &NodeTable) -> TaskGraph {
    let mut tg = TaskGraph::new(program.name_str());
    for decl in &program.nodetypes {
        let decl_name = program.str(decl.name.sym);
        let nt = table
            .get(decl.name.sym)
            .expect("every nodetype is in the table");
        let count = nt.count().expect("count validated above");
        let mut coords: Vec<i64> = nt.ranges.iter().map(|&(lo, _)| lo).collect();
        for _ in 0..count {
            if coords.len() == 1 {
                tg.add_node(TaskNode::scalar(decl_name, coords[0]));
            } else {
                tg.add_node(TaskNode::tuple(decl_name, coords.clone()));
            }
            // increment row-major
            for d in (0..coords.len()).rev() {
                coords[d] += 1;
                if coords[d] <= nt.ranges[d].1 {
                    break;
                }
                coords[d] = nt.ranges[d].0;
            }
        }
    }
    tg.node_symmetric = table.all_symmetric;
    tg.family = table.family;
    tg
}

/// Adds every comphase, in declaration order: each rule's fragment
/// (cached under `key` with the rule's id filled in, or expanded) is
/// replayed into the phase under the global edge cap.
fn add_comphases(
    program: &Program,
    tg: &mut TaskGraph,
    table: &NodeTable,
    env: &Env,
    opts: &ElabOptions,
    key: FragmentKey,
    mut cache: Option<&mut ElabCache>,
) -> Result<(), LarcsError> {
    if program.comphases.is_empty() {
        return Err(LarcsError::elab("program declares no comphase"));
    }
    let too_many_edges = || LarcsError::elab(format!("too many edges (> {})", opts.max_edges));
    let mut edges = 0usize;
    for decl in &program.comphases {
        let phase_name = program.str(decl.name.sym);
        if tg.phase_by_name(phase_name).is_some() {
            return Err(LarcsError::elab_at(
                decl.name.span,
                format!("comphase '{phase_name}' declared twice"),
            ));
        }
        let phase = tg.add_phase(phase_name);
        for rule in &decl.rules {
            let key = FragmentKey {
                rule: rule.id,
                ..key
            };
            let cached = cache.as_deref_mut().and_then(|c| {
                let hit = c.fragments.get(&key).cloned();
                c.hits += u64::from(hit.is_some());
                hit
            });
            let fragment = match cached {
                Some(f) => f,
                None => {
                    let f = Arc::new(expand_rule_fragment(
                        program, rule, table, env, opts, phase_name,
                    )?);
                    if let Some(c) = cache.as_deref_mut() {
                        c.misses += 1;
                        if c.fragments.len() >= MAX_FRAGMENTS {
                            c.fragments.clear();
                        }
                        c.fragments.insert(key, f.clone());
                    }
                    f
                }
            };
            if edges + fragment.edges.len() > opts.max_edges {
                return Err(too_many_edges());
            }
            edges += fragment.edges.len();
            tg.comm_phases[phase.index()]
                .edges
                .reserve(fragment.edges.len());
            for &(src, dst, volume) in &fragment.edges {
                tg.add_edge(phase, TaskId::new(src), TaskId::new(dst), volume);
            }
        }
    }
    Ok(())
}

/// Adds every exephase with its cost evaluated under `env`.
fn add_exephases(
    program: &Program,
    tg: &mut TaskGraph,
    env: &Env,
    opts: &ElabOptions,
) -> Result<(), LarcsError> {
    for decl in &program.exephases {
        let name = program.str(decl.name.sym);
        if tg.exec_by_name(name).is_some() || tg.phase_by_name(name).is_some() {
            return Err(LarcsError::elab_at(
                decl.name.span,
                format!("phase name '{name}' declared twice"),
            ));
        }
        let cost = match decl.cost {
            Some(e) => {
                let v = program.ast.eval(e, env, &program.interner)?;
                u64::try_from(v).map_err(|_| {
                    LarcsError::elab_at(
                        program.ast.expr_span(e),
                        format!("exephase '{name}': negative cost {v}"),
                    )
                })?
            }
            None => opts.default_cost,
        };
        tg.add_exec_phase(name, Cost::Uniform(cost));
    }
    Ok(())
}

fn h_i64(h: &mut Fnv, v: i64) {
    h.u64(v as u64);
}

/// Maps a `family(...)` attribute plus the nodetype's dimension extents to
/// a concrete [`Family`].
fn family_from_decl(name: &str, dims: &[usize]) -> Option<Family> {
    let count: usize = dims.iter().product();
    let log2 = |x: usize| -> Option<usize> {
        if x.is_power_of_two() {
            Some(x.trailing_zeros() as usize)
        } else {
            None
        }
    };
    match (name, dims.len()) {
        ("ring", 1) => Some(Family::Ring(count)),
        ("chain", 1) => Some(Family::Chain(count)),
        ("complete", 1) => Some(Family::Complete(count)),
        ("star", 1) => Some(Family::Star(count)),
        ("hypercube", 1) => log2(count).map(Family::Hypercube),
        ("binomialtree", 1) => log2(count).map(Family::BinomialTree),
        ("fullbinarytree", 1) => {
            // count = 2^(h+1) - 1
            log2(count + 1).and_then(|k| k.checked_sub(1)).map(Family::FullBinaryTree)
        }
        ("mesh2d", 2) => Some(Family::Mesh2D(dims[0], dims[1])),
        ("torus2d", 2) => Some(Family::Torus2D(dims[0], dims[1])),
        ("butterfly", 2) => {
            // dims = [d+1 levels, 2^d rows]
            log2(dims[1]).filter(|&d| dims[0] == d + 1).map(Family::Butterfly)
        }
        _ => None,
    }
}

/// Expands one rule into its edge fragment: iterates the binder
/// cross-product, applies the guard, and records the edges. Depends only
/// on the rule, the environment, the node type table, and the limits —
/// never on edges emitted by other rules — which is what makes the result
/// cacheable under [`FragmentKey`].
fn expand_rule_fragment(
    program: &Program,
    rule: &Rule,
    types: &NodeTable,
    base_env: &Env,
    opts: &ElabOptions,
    phase_name: &str,
) -> Result<RuleFragment, LarcsError> {
    let mut fragment = RuleFragment::default();
    let mut env = base_env.clone();
    let mut iters = 0u64;
    rec(
        program, rule, types, &mut env, opts, phase_name, 0, &mut iters, &mut fragment,
    )?;
    return Ok(fragment);

    #[allow(clippy::too_many_arguments)] // recursion threads the whole elaboration state
    fn rec(
        program: &Program,
        rule: &Rule,
        types: &NodeTable,
        env: &mut Env,
        opts: &ElabOptions,
        phase_name: &str,
        depth: usize,
        iters: &mut u64,
        fragment: &mut RuleFragment,
    ) -> Result<(), LarcsError> {
        let it = &program.interner;
        if depth == rule.binders.len() {
            if let Some(guard) = rule.guard {
                if !program.ast.eval_bool(guard, env, it)? {
                    return Ok(());
                }
            }
            for edge in &rule.edges {
                let src = resolve_endpoint(program, edge, &edge.src_type, &edge.src_args, types, env, phase_name)?;
                let dst = resolve_endpoint(program, edge, &edge.dst_type, &edge.dst_args, types, env, phase_name)?;
                let volume = match edge.volume {
                    Some(e) => {
                        let v = program.ast.eval(e, env, it)?;
                        u64::try_from(v).map_err(|_| {
                            LarcsError::elab_at(
                                program.ast.expr_span(e),
                                format!("comphase '{phase_name}': negative volume {v}"),
                            )
                        })?
                    }
                    None => opts.default_volume,
                };
                if fragment.edges.len() >= opts.max_edges {
                    return Err(LarcsError::elab(format!(
                        "too many edges (> {})",
                        opts.max_edges
                    )));
                }
                fragment.edges.push((src, dst, volume));
            }
            return Ok(());
        }
        let binder = &rule.binders[depth];
        let lo = program.ast.eval(binder.lo, env, it)?;
        let hi = program.ast.eval(binder.hi, env, it)?;
        let shadowed = env.get(binder.var.sym);
        for v in lo..=hi {
            // A rule whose guard rejects everything emits no edges, so the
            // edge cap alone cannot stop `forall i in 0..2**60`; this
            // counter bounds the total work a single rule may do.
            *iters += 1;
            if *iters > opts.max_iterations {
                return Err(LarcsError::elab(format!(
                    "comphase '{phase_name}': rule iterates more than {} times \
                     (binder ranges too large)",
                    opts.max_iterations
                ))
                .or_span(rule.span));
            }
            env.insert(binder.var.sym, v);
            rec(program, rule, types, env, opts, phase_name, depth + 1, iters, fragment)?;
        }
        match shadowed {
            Some(old) => env.insert(binder.var.sym, old),
            None => env.remove(binder.var.sym),
        };
        Ok(())
    }
}

/// The task index of one edge endpoint. The row-major index is folded
/// while the label arguments are evaluated, first to last, so an
/// evaluation error still wins over a range error; the coordinates are
/// collected only to name an out-of-range label.
fn resolve_endpoint(
    program: &Program,
    edge: &EdgeDecl,
    type_name: &Ident,
    args: &[ExprId],
    types: &NodeTable,
    env: &Env,
    phase_name: &str,
) -> Result<usize, LarcsError> {
    let it = &program.interner;
    let nt = types.get(type_name.sym).ok_or_else(|| {
        LarcsError::elab_at(
            type_name.span,
            format!(
                "comphase '{phase_name}': unknown nodetype '{}'",
                it.resolve(type_name.sym)
            ),
        )
    })?;
    let mut idx = (args.len() == nt.ranges.len()).then_some(0usize);
    for (d, &a) in args.iter().enumerate() {
        let c = program.ast.eval(a, env, it)?;
        idx = idx.and_then(|acc| nt.step(acc, d, c));
    }
    if let Some(i) = idx.and_then(|i| nt.offset.checked_add(i)) {
        return Ok(i);
    }
    let coords: Vec<i64> = args
        .iter()
        .map(|&a| program.ast.eval(a, env, it))
        .collect::<Result<_, _>>()?;
    Err(LarcsError::elab_at(
        edge.span,
        format!(
            "comphase '{phase_name}': label {}({coords:?}) out of range \
             (add a 'where' guard to exclude boundary cases)",
            it.resolve(type_name.sym)
        ),
    ))
}

fn resolve_pexp(
    program: &Program,
    pe: PExpId,
    tg: &TaskGraph,
    env: &Env,
) -> Result<PhaseExpr, LarcsError> {
    let it = &program.interner;
    Ok(match program.ast.pexp(pe) {
        PExpKind::Eps => PhaseExpr::Idle,
        PExpKind::Name(sym) => {
            let name = it.resolve(sym);
            if let Some(p) = tg.phase_by_name(name) {
                PhaseExpr::Comm(p)
            } else if let Some(e) = tg.exec_by_name(name) {
                PhaseExpr::Exec(e)
            } else {
                return Err(LarcsError::elab_at(
                    program.ast.pexp_span(pe),
                    format!("phase expression references unknown phase '{name}'"),
                ));
            }
        }
        PExpKind::Seq(a, b) => PhaseExpr::seq(
            resolve_pexp(program, a, tg, env)?,
            resolve_pexp(program, b, tg, env)?,
        ),
        PExpKind::Par(a, b) => PhaseExpr::par(
            resolve_pexp(program, a, tg, env)?,
            resolve_pexp(program, b, tg, env)?,
        ),
        PExpKind::Repeat(a, count) => {
            let k = program.ast.eval(count, env, it)?;
            let k = u64::try_from(k).map_err(|_| {
                LarcsError::elab_at(
                    program.ast.expr_span(count),
                    format!("negative repetition count {k} in phase expression"),
                )
            })?;
            PhaseExpr::repeat(resolve_pexp(program, a, tg, env)?, k)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(src: &str, params: &[(&str, i64)]) -> Result<TaskGraph, LarcsError> {
        elaborate(&parse(src).unwrap(), params, &ElabOptions::default())
    }

    #[test]
    fn nbody_elaborates_to_paper_graph() {
        let g = crate::compile(
            &crate::programs::nbody(),
            &[("n", 15), ("s", 3), ("msgsize", 8)],
        )
        .unwrap();
        assert_eq!(g.num_tasks(), 15);
        assert_eq!(g.num_phases(), 2);
        // ring: 15 edges i -> (i+1) mod 15
        let ring = &g.comm_phases[0];
        assert_eq!(ring.name, "ring");
        assert_eq!(ring.edges.len(), 15);
        for e in &ring.edges {
            assert_eq!(e.dst.0, (e.src.0 + 1) % 15);
            assert_eq!(e.volume, 8);
        }
        // chordal: i -> (i + (n+1)/2) mod n = i + 8 mod 15
        let chordal = &g.comm_phases[1];
        assert_eq!(chordal.edges.len(), 15);
        for e in &chordal.edges {
            assert_eq!(e.dst.0, (e.src.0 + 8) % 15);
        }
        assert!(g.node_symmetric);
        assert!(g.phase_expr.is_some());
        // phase expr: ((ring; compute1)^((n-1)/2); chordal; compute2)^s
        let mult = g.phase_expr.as_ref().unwrap().comm_multiplicities();
        assert_eq!(mult, vec![7 * 3, 3]);
    }

    #[test]
    fn unbound_parameter_rejected() {
        let err = crate::compile(&crate::programs::nbody(), &[("n", 8)]).unwrap_err();
        assert!(err.to_string().contains("unbound"));
    }

    #[test]
    fn unknown_parameter_rejected() {
        let err = crate::compile(
            &crate::programs::nbody(),
            &[("n", 8), ("s", 1), ("msgsize", 1), ("typo", 3)],
        )
        .unwrap_err();
        assert!(err.to_string().contains("typo"));
    }

    #[test]
    fn out_of_range_label_reports_guard_hint() {
        let src = "algorithm t(n);\n\
                   nodetype x: 0..n-1;\n\
                   comphase c: forall i in 0..n-1 { x(i) -> x(i+1); }";
        let err = compile(src, &[("n", 4)]).unwrap_err();
        assert!(err.to_string().contains("out of range"));
        // the diagnostic underlines the offending edge declaration
        let shown = err.with_source(src).to_string();
        assert!(shown.contains("x(i) -> x(i+1);"), "{shown}");
        assert!(shown.contains('^'), "{shown}");
    }

    #[test]
    fn guard_excludes_boundary() {
        let src = "algorithm t(n);\n\
                   nodetype x: 0..n-1;\n\
                   comphase c: forall i in 0..n-1 where i < n-1 { x(i) -> x(i+1); }";
        let g = compile(src, &[("n", 4)]).unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn two_dimensional_mesh_stencil() {
        let g = crate::compile(&crate::programs::jacobi(), &[("n", 4), ("iters", 10)]).unwrap();
        assert_eq!(g.num_tasks(), 16);
        assert_eq!(g.num_phases(), 4); // north south east west
        for p in &g.comm_phases {
            assert_eq!(p.edges.len(), 12, "phase {}", p.name); // 4x3 directed
        }
        let w = g.collapse();
        // collapsed: 24 undirected mesh adjacencies
        assert_eq!(w.num_edges(), 24);
    }

    #[test]
    fn binder_dependent_ranges() {
        // lower-triangular pattern: forall i, j in 0..i
        let src = "algorithm t(n);\n\
                   nodetype x: 0..n-1;\n\
                   comphase c: forall i in 1..n-1, j in 0..i-1 { x(j) -> x(i); }";
        let g = compile(src, &[("n", 4)]).unwrap();
        assert_eq!(g.num_edges(), 6); // C(4,2)
    }

    #[test]
    fn family_attribute_maps_to_family() {
        let src = "algorithm r(n);\n\
                   nodetype t: 0..n-1 nodesymmetric family(ring);\n\
                   comphase c: forall i in 0..n-1 { t(i) -> t((i+1) mod n); }";
        let g = compile(src, &[("n", 6)]).unwrap();
        assert_eq!(g.family, Some(Family::Ring(6)));
    }

    #[test]
    fn family_shape_mismatch_rejected() {
        let src = "algorithm r(n);\n\
                   nodetype t: 0..n-1 family(hypercube);\n\
                   comphase c: forall i in 0..n-1 { t(i) -> t((i+1) mod n); }";
        assert!(compile(src, &[("n", 6)]).is_err()); // 6 not a power of 2
    }

    #[test]
    fn negative_volume_rejected() {
        let src = "algorithm t(n);\n\
                   nodetype x: 0..n-1;\n\
                   comphase c: x(0) -> x(1) volume 0-5;";
        assert!(compile(src, &[("n", 2)]).unwrap_err().to_string().contains("negative volume"));
    }

    #[test]
    fn node_blowup_guarded() {
        let src = "algorithm t(n);\n\
                   nodetype x: 0..n-1;\n\
                   comphase c: x(0) -> x(1);";
        let opts = ElabOptions {
            max_nodes: 100,
            ..ElabOptions::default()
        };
        let err = elaborate(&parse(src).unwrap(), &[("n", 1000)], &opts).unwrap_err();
        assert!(err.to_string().contains("too many task nodes"));
    }

    #[test]
    fn astronomically_large_ranges_rejected_cheaply() {
        // hypercube(62)-scale node counts: the extent alone exceeds the
        // node cap, and must be rejected before any allocation.
        let src = "algorithm t(n);\n\
                   nodetype x: 0..n;\n\
                   comphase c: x(0) -> x(1);";
        let err = compile(src, &[("n", 1i64 << 62)]).unwrap_err();
        assert!(err.to_string().contains("node limit"), "{err}");
        // A range whose width overflows i64 entirely.
        let src = "algorithm t();\n\
                   nodetype x: 0-2**62..2**62;\n\
                   comphase c: x(0) -> x(1);";
        let err = compile(src, &[]).unwrap_err();
        assert!(err.to_string().contains("node limit"), "{err}");
        // A multi-dimensional count that overflows usize via the product
        // even though each extent alone fits.
        let src = "algorithm t(n);\n\
                   nodetype x: (0..n, 0..n, 0..n, 0..n);\n\
                   comphase c: x(0,0,0,0) -> x(1,0,0,0);";
        let err = compile(src, &[("n", (1i64 << 20) - 1)]).unwrap_err();
        assert!(err.to_string().contains("too many task nodes"), "{err}");
    }

    #[test]
    fn unproductive_giant_binder_ranges_rejected() {
        // The guard rejects every tuple, so no edge is ever emitted and the
        // edge cap would never fire; the iteration budget must.
        let src = "algorithm t(n);\n\
                   nodetype x: 0..3;\n\
                   comphase c: forall i in 0..n where i < 0 { x(0) -> x(1); }";
        let opts = ElabOptions {
            max_iterations: 10_000,
            ..ElabOptions::default()
        };
        let err = elaborate(&parse(src).unwrap(), &[("n", 1i64 << 50)], &opts).unwrap_err();
        assert!(err.to_string().contains("iterates more than"), "{err}");
        // The diagnostic names the offending rule by underlining it.
        let shown = err.with_source(src).to_string();
        assert!(shown.contains("forall i in 0..n"), "{shown}");
        // Well-behaved rules stay untouched by the budget.
        let ok = "algorithm t(n);\n\
                  nodetype x: 0..n-1;\n\
                  comphase c: forall i in 0..n-1 where i < n-1 { x(i) -> x(i+1); }";
        assert!(elaborate(&parse(ok).unwrap(), &[("n", 100)], &opts).is_ok());
    }

    #[test]
    fn phase_expr_unknown_name_rejected() {
        let src = "algorithm t(n);\n\
                   nodetype x: 0..n-1;\n\
                   comphase c: x(0) -> x(1);\n\
                   phaseexpr c; nope;";
        assert!(compile(src, &[("n", 2)])
            .unwrap_err()
            .to_string()
            .contains("unknown phase"));
    }

    #[test]
    fn exec_cost_defaults_and_expressions() {
        let src = "algorithm t(n);\n\
                   nodetype x: 0..n-1;\n\
                   comphase c: x(0) -> x(1);\n\
                   exephase a;\n\
                   exephase b cost 3*n;";
        let g = compile(src, &[("n", 4)]).unwrap();
        assert_eq!(g.exec_phases[0].cost, Cost::Uniform(1));
        assert_eq!(g.exec_phases[1].cost, Cost::Uniform(12));
    }

    #[test]
    fn multiple_nodetypes_get_disjoint_ids() {
        let src = "algorithm t(n);\n\
                   nodetype a: 0..n-1;\n\
                   nodetype b: 0..n-1;\n\
                   comphase c: forall i in 0..n-1 { a(i) -> b(i); }";
        let g = compile(src, &[("n", 3)]).unwrap();
        assert_eq!(g.num_tasks(), 6);
        for e in &g.comm_phases[0].edges {
            assert_eq!(e.dst.0, e.src.0 + 3);
        }
        assert_eq!(g.nodes[0].label, "a(0)");
        assert_eq!(g.nodes[3].label, "b(0)");
    }

    #[test]
    fn cached_elaboration_is_identical_and_reuses_fragments() {
        let src = crate::programs::sor();
        let program = parse(&src).unwrap();
        let params: &[(&str, i64)] = &[("n", 8), ("iters", 4)];
        let opts = ElabOptions::default();
        let batch = elaborate(&program, params, &opts).unwrap();
        let mut cache = ElabCache::new();
        let g1 = elaborate_with_cache(&program, params, &opts, Some(&mut cache)).unwrap();
        assert_eq!(g1, batch);
        let first_misses = cache.misses;
        assert_eq!(cache.hits, 0);
        assert!(first_misses > 0);
        // second elaboration: every fragment and the skeleton come from cache
        let g2 = elaborate_with_cache(&program, params, &opts, Some(&mut cache)).unwrap();
        assert_eq!(g2, batch);
        assert_eq!(cache.misses, first_misses);
        assert_eq!(cache.hits, first_misses);
        assert_eq!(cache.skeleton_hits, 1);
        // different params invalidate (env_fp changes)
        let g3 = elaborate_with_cache(
            &program,
            &[("n", 9), ("iters", 4)],
            &opts,
            Some(&mut cache),
        )
        .unwrap();
        assert_eq!(g3, elaborate(&program, &[("n", 9), ("iters", 4)], &opts).unwrap());
        assert!(cache.misses > first_misses);
    }
}
