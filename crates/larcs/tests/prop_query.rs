//! Property-based validation of the incremental query layer: a
//! persistent [`Db`] fed an arbitrary editing session must be
//! indistinguishable from batch recompilation — byte-identical task
//! graphs after every edit — while whitespace-only edits cost nothing
//! beyond a lex (no reparse, no rule re-expansion, no graph rebuild).

use oregami_larcs::{compile, programs, Db};
use proptest::prelude::*;
use std::sync::Arc;

/// Replacement text for rule `d` of `comphase color{c}` in the 32-rule
/// `sormulticolor` builtin, with a tweakable volume — the generator's
/// shape, so every edit stays well-formed and addressable.
fn rule_text(c: usize, d: usize, vol: u64) -> String {
    let (guard, edge) = match d {
        0 => ("i > 0", "cell(i,j) -> cell(i-1,j)"),
        1 => ("i < n-1", "cell(i,j) -> cell(i+1,j)"),
        2 => ("j > 0", "cell(i,j) -> cell(i,j-1)"),
        _ => ("j < n-1", "cell(i,j) -> cell(i,j+1)"),
    };
    format!(
        "forall i in 0..n-1, j in 0..n-1 where (2*i+j) mod 8 == {c} and {guard} \
         {{ {edge} volume {vol}; }}"
    )
}

/// Re-lays-out `src` with per-line horizontal padding and blank-line
/// insertions. Pads never touch the interior of a line, so the token
/// stream — and therefore the parse fingerprint — is unchanged.
fn reindent(src: &str, pads: &[(String, usize)]) -> String {
    let mut out = String::new();
    for (i, line) in src.lines().enumerate() {
        let (pad, blanks) = &pads[i % pads.len()];
        for _ in 0..*blanks {
            out.push('\n');
        }
        out.push_str(pad);
        out.push_str(line);
        out.push_str(pad);
        out.push('\n');
    }
    out
}

/// Line range `(start, end)` of the `forall` rules of `comphase
/// color{c}` in the generated layout (one rule per line).
fn phase_block(src: &str, c: usize) -> (usize, usize) {
    let lines: Vec<&str> = src.lines().collect();
    let header = format!("comphase color{c}:");
    let h = lines
        .iter()
        .position(|l| l.trim() == header)
        .unwrap_or_else(|| panic!("no {header}"));
    let mut end = h + 1;
    while end < lines.len() && lines[end].trim_start().starts_with("forall") {
        end += 1;
    }
    (h + 1, end)
}

fn insert_rule(src: &str, c: usize, text: &str) -> String {
    let (_, end) = phase_block(src, c);
    let mut out: Vec<String> = src.lines().map(str::to_string).collect();
    out.insert(end, format!("  {text}"));
    out.join("\n") + "\n"
}

fn delete_rule(src: &str, c: usize) -> String {
    let (start, end) = phase_block(src, c);
    if end - start <= 1 {
        return src.to_string(); // keep every comphase populated
    }
    let mut out: Vec<String> = src.lines().map(str::to_string).collect();
    out.remove(end - 1);
    out.join("\n") + "\n"
}

/// A single-rule edit re-expands exactly the edited rule: over a session
/// that edits every one of `sormulticolor`'s 32 rules (some twice, with a
/// new volume), the rule-fragment cache takes one miss per edit and
/// serves the other 31 rules from cache.
#[test]
fn single_rule_edit_re_expands_exactly_one_fragment() {
    let params = [("n", 8i64), ("iters", 2)];
    let mut db = Db::new();
    let mut src = programs::sor_multicolor();
    db.compile(&src, &params).unwrap();
    let (hits0, misses0) = (db.elab_cache().hits, db.elab_cache().misses);
    let edits = 40;
    for e in 0..edits {
        let (c, d) = (e % 32 / 4, e % 4);
        let vol = (e % 7 + 2) as u64;
        src = db
            .edit_rule(&src, &format!("color{c}"), d, &rule_text(c, d, vol))
            .unwrap();
        let inc = db.compile(&src, &params).unwrap();
        assert_eq!(*inc, compile(&src, &params).unwrap());
    }
    assert_eq!(
        db.elab_cache().misses - misses0,
        edits as u64,
        "one fragment miss per edit"
    );
    assert_eq!(db.elab_cache().hits - hits0, 31 * edits as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of single-rule edits through the persistent Db
    /// compiles to exactly the graph a from-scratch batch compile of the
    /// same source produces — structural equality, every step.
    #[test]
    fn random_rule_edits_match_batch(
        edits in proptest::collection::vec((0usize..8, 0usize..4, 1u64..9), 1..8),
        n in 3i64..8,
    ) {
        let params = [("n", n), ("iters", 2)];
        let mut db = Db::new();
        let mut src = programs::sor_multicolor();
        for (c, d, vol) in edits {
            let phase = format!("color{c}");
            src = db.edit_rule(&src, &phase, d, &rule_text(c, d, vol)).unwrap();
            let inc = db.compile(&src, &params).unwrap();
            let batch = compile(&src, &params).unwrap();
            prop_assert_eq!(&*inc, &batch);
        }
    }

    /// Structural edits too: adding and deleting whole rules (plain
    /// source splices that grow or shrink a comphase) keep the
    /// persistent Db byte-identical with batch at every step.
    #[test]
    fn rule_additions_and_deletions_match_batch(
        ops in proptest::collection::vec((0usize..8, 0usize..4, 1u64..9, any::<bool>()), 1..8),
    ) {
        let params = [("n", 4i64), ("iters", 2)];
        let mut db = Db::new();
        let mut src = programs::sor_multicolor();
        db.compile(&src, &params).unwrap();
        for (c, d, vol, add) in ops {
            src = if add {
                insert_rule(&src, c, &rule_text(c, d, vol))
            } else {
                delete_rule(&src, c)
            };
            let inc = db.compile(&src, &params).unwrap();
            let batch = compile(&src, &params).unwrap();
            prop_assert_eq!(&*inc, &batch);
        }
    }

    /// Whitespace-only edits are pure cache hits: no new parse, no rule
    /// re-expansion, no graph rebuild — the exact same Arc comes back.
    #[test]
    fn whitespace_only_edits_are_pure_cache_hits(
        pads in proptest::collection::vec(("[ \\t]{0,4}", 0usize..3), 4..32),
        n in 3i64..8,
    ) {
        let params = [("n", n), ("iters", 2)];
        let mut db = Db::new();
        let src = programs::sor_multicolor();
        let base = db.compile(&src, &params).unwrap();
        let stats0 = db.stats();
        let elab0 = db.elab_cache().misses;

        let spaced = reindent(&src, &pads);
        let cached = db.compile(&spaced, &params).unwrap();

        let stats1 = db.stats();
        prop_assert_eq!(stats1.parse_misses, stats0.parse_misses);
        prop_assert_eq!(stats1.graph_misses, stats0.graph_misses);
        prop_assert_eq!(db.elab_cache().misses, elab0);
        prop_assert!(Arc::ptr_eq(&base, &cached));
    }

    /// Interleaved sessions: rule edits and reindentations in any order
    /// still match batch, and the reindentation steps never add parse
    /// misses on top of what the rule edits cost.
    #[test]
    fn mixed_edit_sessions_stay_consistent(
        steps in proptest::collection::vec(
            prop_oneof![
                (0usize..8, 0usize..4, 1u64..9).prop_map(|(c, d, v)| (true, c, d, v)),
                (0usize..4, 0usize..3, 1u64..5).prop_map(|(a, b, v)| (false, a, b, v)),
            ],
            1..6,
        ),
    ) {
        let params = [("n", 4i64), ("iters", 2)];
        let mut db = Db::new();
        let mut src = programs::sor_multicolor();
        db.compile(&src, &params).unwrap();
        for (is_rule_edit, a, b, v) in steps {
            if is_rule_edit {
                let phase = format!("color{a}");
                src = db.edit_rule(&src, &phase, b, &rule_text(a, b, v)).unwrap();
            } else {
                let pads = vec![(" ".repeat(a), b), (String::new(), 0)];
                let before = db.stats().parse_misses;
                src = reindent(&src, &pads);
                db.compile(&src, &params).unwrap();
                prop_assert_eq!(db.stats().parse_misses, before);
            }
            let inc = db.compile(&src, &params).unwrap();
            let batch = compile(&src, &params).unwrap();
            prop_assert_eq!(&*inc, &batch);
        }
    }

    /// Undo is free: returning to any previously compiled source is a
    /// graph-cache hit handing back the very Arc compiled the first time.
    #[test]
    fn revisiting_a_source_is_a_graph_cache_hit(
        c in 0usize..8, d in 0usize..4, vol in 1u64..9,
    ) {
        let params = [("n", 4i64), ("iters", 2)];
        let mut db = Db::new();
        let src = programs::sor_multicolor();
        let original = db.compile(&src, &params).unwrap();
        let phase = format!("color{c}");
        let edited = db.edit_rule(&src, &phase, d, &rule_text(c, d, vol)).unwrap();
        db.compile(&edited, &params).unwrap();

        let misses_before = db.stats().graph_misses;
        let back = db.compile(&src, &params).unwrap();
        prop_assert_eq!(db.stats().graph_misses, misses_before);
        prop_assert!(Arc::ptr_eq(&original, &back));
    }
}
