//! Diagnostics for the LaRCS compiler: byte spans, severities, labeled
//! source excerpts with caret underlines, and the [`LarcsError`]
//! compatibility wrapper the rest of the workspace consumes.
//!
//! Every stage (lexer, parser, elaborate, analyze) produces a
//! [`Diagnostic`] carrying at least one labeled [`Span`]; the public
//! entry points attach the source text so the rendered error shows the
//! offending line with a `^^^` underline instead of a bare `line:col`.

use std::fmt;

/// A byte-offset range into the source text (`start..end`, end exclusive).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: u32,
    /// Byte offset one past the last byte.
    pub end: u32,
}

impl Span {
    /// A span carrying no location (used only as a placeholder while a
    /// node is under construction; finished diagnostics never carry it).
    pub const DUMMY: Span = Span { start: u32::MAX, end: u32::MAX };

    /// A new span over `start..end`.
    pub fn new(start: u32, end: u32) -> Span {
        Span { start, end }
    }

    /// A zero-width span at `offset`.
    pub fn point(offset: u32) -> Span {
        Span { start: offset, end: offset }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        if self.is_dummy() {
            return other;
        }
        if other.is_dummy() {
            return self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Whether this is the placeholder span.
    fn is_dummy(self) -> bool {
        self.start == u32::MAX && self.end == u32::MAX
    }
}

/// Source position (1-based line and column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Pos {
    /// The line/column of byte `offset` within `src` (columns count
    /// bytes, which coincides with characters for LaRCS's ASCII syntax).
    pub fn of(src: &str, offset: u32) -> Pos {
        let offset = (offset as usize).min(src.len());
        let before = &src.as_bytes()[..offset];
        let line = before.iter().filter(|&&b| b == b'\n').count() as u32 + 1;
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap_or(0);
        Pos { line, col: (offset - line_start) as u32 + 1 }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Compilation cannot proceed.
    Error,
    /// Advisory (e.g. analyze's regularity lints).
    Warning,
}

/// Which pipeline stage produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Tokenizer.
    Lex,
    /// Parser.
    Parse,
    /// Elaboration (parameter binding, rule expansion).
    Elab,
    /// Regularity analysis.
    Analyze,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Lex => "lex",
            Stage::Parse => "parse",
            Stage::Elab => "elaboration",
            Stage::Analyze => "analyze",
        }
    }
}

/// One underlined region of the source, with an explanation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Label {
    /// What to underline.
    pub span: Span,
    /// Short message printed after the carets (may be empty).
    pub message: String,
}

/// A structured compiler diagnostic: severity, stage, message, labeled
/// spans, and free-form notes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Producing stage.
    pub stage: Stage,
    /// The headline message.
    pub message: String,
    /// Underlined source regions (the first is the primary location).
    pub labels: Vec<Label>,
    /// Additional free-form notes appended after the excerpt.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            stage,
            message: message.into(),
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A new warning diagnostic.
    pub fn warning(stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic { severity: Severity::Warning, ..Diagnostic::error(stage, message) }
    }

    /// Adds a labeled span (builder style).
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Diagnostic {
        self.labels.push(Label { span, message: message.into() });
        self
    }

    /// Adds a note (builder style).
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// The primary (first) labeled span, if any non-dummy one exists.
    fn primary_span(&self) -> Option<Span> {
        self.labels.iter().map(|l| l.span).find(|s| !s.is_dummy())
    }

    /// Renders the diagnostic against its source text: headline, `-->`
    /// location, and one caret-underlined excerpt per label.
    ///
    /// ```text
    /// parse error: expected ';', found '('
    ///  --> 2:12
    ///   |
    /// 2 | nodetype x (0..n-1);
    ///   |            ^ expected ';' here
    /// ```
    pub fn render(&self, source: &str) -> String {
        use std::fmt::Write as _;
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let mut out = String::new();
        let _ = write!(out, "{} {}: {}", self.stage.name(), sev, self.message);
        for label in &self.labels {
            if label.span.is_dummy() {
                continue;
            }
            let pos = Pos::of(source, label.span.start);
            let line_start = source[..(label.span.start as usize).min(source.len())]
                .rfind('\n')
                .map(|p| p + 1)
                .unwrap_or(0);
            let line_end = source[line_start..]
                .find('\n')
                .map(|p| line_start + p)
                .unwrap_or(source.len());
            let line_text = &source[line_start..line_end];
            let gutter = pos.line.to_string();
            let pad = " ".repeat(gutter.len());
            let col0 = (label.span.start as usize).saturating_sub(line_start);
            // clamp the underline to the excerpted line; zero-width spans
            // (e.g. at <eof>) still get one caret
            let width = (label.span.end.max(label.span.start + 1) as usize)
                .min(line_end.max(line_start + col0 + 1))
                .saturating_sub(label.span.start as usize)
                .max(1);
            let _ = write!(out, "\n {pad}--> {pos}\n {pad} |");
            let _ = write!(out, "\n {gutter} | {line_text}");
            let _ = write!(
                out,
                "\n {pad} | {}{}",
                " ".repeat(col0),
                "^".repeat(width)
            );
            if !label.message.is_empty() {
                let _ = write!(out, " {}", label.message);
            }
        }
        for note in &self.notes {
            let _ = write!(out, "\n note: {note}");
        }
        out
    }
}

/// Any error from lexing, parsing, elaborating, or analyzing a LaRCS
/// program. A thin wrapper over [`Diagnostic`]: once the producing stage
/// attaches the source text (via [`LarcsError::with_source`]), `Display`
/// shows the full caret-underlined excerpt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LarcsError {
    diag: Diagnostic,
    rendered: Option<String>,
}

impl LarcsError {
    /// Wraps a diagnostic.
    pub fn new(diag: Diagnostic) -> LarcsError {
        LarcsError { diag, rendered: None }
    }

    /// Lexical error at `span`.
    pub fn lex(span: Span, msg: impl Into<String>) -> LarcsError {
        let msg = msg.into();
        LarcsError::new(Diagnostic::error(Stage::Lex, msg).with_label(span, ""))
    }

    /// Syntax error at `span`.
    pub fn parse(span: Span, msg: impl Into<String>) -> LarcsError {
        let msg = msg.into();
        LarcsError::new(Diagnostic::error(Stage::Parse, msg).with_label(span, ""))
    }

    /// Elaboration error with no better location than the whole program
    /// (prefer [`LarcsError::elab_at`]).
    pub fn elab(msg: impl Into<String>) -> LarcsError {
        LarcsError::new(Diagnostic::error(Stage::Elab, msg))
    }

    /// Elaboration error anchored at `span`.
    pub fn elab_at(span: Span, msg: impl Into<String>) -> LarcsError {
        LarcsError::new(Diagnostic::error(Stage::Elab, msg).with_label(span, ""))
    }

    /// Attaches the source text, rendering the excerpt `Display` shows.
    pub fn with_source(mut self, source: &str) -> LarcsError {
        self.rendered = Some(self.diag.render(source));
        self
    }

    /// Adds/overrides the primary label span if none is set yet.
    pub fn or_span(mut self, span: Span) -> LarcsError {
        if self.diag.primary_span().is_none() && !span.is_dummy() {
            self.diag.labels.insert(0, Label { span, message: String::new() });
        }
        self
    }

    /// The underlying structured diagnostic.
    pub fn diagnostic(&self) -> &Diagnostic {
        &self.diag
    }

    /// The producing stage.
    pub fn stage(&self) -> Stage {
        self.diag.stage
    }

    /// The headline message (without location or excerpt).
    pub fn message(&self) -> &str {
        &self.diag.message
    }

    /// The primary span, if located.
    pub fn span(&self) -> Option<Span> {
        self.diag.primary_span()
    }
}

impl fmt::Display for LarcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.rendered {
            Some(r) => f.write_str(r),
            None => write!(
                f,
                "{} error: {}",
                self.diag.stage.name(),
                self.diag.message
            ),
        }
    }
}

impl std::error::Error for LarcsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_of_counts_lines_and_columns() {
        let src = "ab\ncde\nf";
        assert_eq!(Pos::of(src, 0), Pos { line: 1, col: 1 });
        assert_eq!(Pos::of(src, 1), Pos { line: 1, col: 2 });
        assert_eq!(Pos::of(src, 3), Pos { line: 2, col: 1 });
        assert_eq!(Pos::of(src, 5), Pos { line: 2, col: 3 });
        assert_eq!(Pos::of(src, 7), Pos { line: 3, col: 1 });
        // past the end clamps
        assert_eq!(Pos::of(src, 999), Pos { line: 3, col: 2 });
    }

    #[test]
    fn render_underlines_the_span() {
        let src = "algorithm t();\nnodetype x (0..3);\n";
        let d = Diagnostic::error(Stage::Parse, "expected ':'")
            .with_label(Span::new(26, 27), "here");
        let r = d.render(src);
        assert!(r.contains("parse error: expected ':'"), "{r}");
        assert!(r.contains("--> 2:12"), "{r}");
        assert!(r.contains("nodetype x (0..3);"), "{r}");
        assert!(r.contains("^ here"), "{r}");
    }

    #[test]
    fn display_with_and_without_source() {
        let e = LarcsError::parse(Span::new(0, 4), "expected ';'");
        assert_eq!(e.to_string(), "parse error: expected ';'");
        let e = e.with_source("abcd efgh");
        let s = e.to_string();
        assert!(s.contains("^^^^"), "{s}");
        assert!(s.contains("--> 1:1"), "{s}");
        assert_eq!(
            LarcsError::elab("boom").to_string(),
            "elaboration error: boom"
        );
    }

    #[test]
    fn span_join_and_dummy() {
        let a = Span::new(3, 5);
        let b = Span::new(10, 12);
        assert_eq!(a.to(b), Span::new(3, 12));
        assert_eq!(Span::DUMMY.to(b), b);
        assert_eq!(a.to(Span::DUMMY), a);
        assert!(Span::DUMMY.is_dummy());
    }

    #[test]
    fn zero_width_span_renders_one_caret() {
        let d = Diagnostic::error(Stage::Lex, "eof").with_label(Span::point(3), "end");
        let r = d.render("abc");
        assert!(r.contains("^ end"), "{r}");
    }
}
