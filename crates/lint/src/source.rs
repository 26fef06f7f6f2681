//! Source-file model: lexed tokens plus the path/region classification the
//! rules scope themselves by.
//!
//! Two orthogonal classifications exist:
//!
//! * **Path class** — where the file lives. Anything under a `tests/`,
//!   `benches/`, `examples/` or `fixtures/` directory is test/driver code
//!   and exempt from the runtime-determinism rules; `vendor/` is never
//!   lexed at all (the stand-ins mimic external crates, their internals are
//!   not ours to police).
//! * **Test regions** — `#[cfg(test)]` items inside production files. The
//!   brace-matched span of each such item is recorded as line ranges, and
//!   every rule checks `file.in_test_region(line)` before reporting.

use crate::annotations::Annotation;
use crate::lexer::{lex, Comment, Lexed, Spanned, Tok};

/// Which crate a path belongs to, as a lint-relevant coarse class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PathClass {
    /// Library / binary source of a first-party crate.
    Source,
    /// Integration tests, benches, examples, fixtures: driver code.
    TestOrBench,
}

/// One file, lexed and classified, ready for the rules.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Crate name derived from the path (`core`, `sim`, ..., or `repro`
    /// for the umbrella's own `src`/`tests`).
    pub krate: String,
    class: PathClass,
    pub tokens: Vec<Spanned>,
    pub comments: Vec<Comment>,
    /// Allow-annotations parsed from the comments.
    pub annotations: Vec<Annotation>,
    /// 1-indexed inclusive line ranges covered by `#[cfg(test)]` items.
    test_regions: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes `text` as the file at workspace-relative `path`.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let Lexed { tokens, comments } = lex(text);
        let test_regions = find_test_regions(&tokens);
        let mut code_lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
        code_lines.dedup();
        let annotations = crate::annotations::parse(path, &comments, &code_lines);
        SourceFile {
            path: path.to_string(),
            krate: crate_of(path),
            class: classify(path),
            tokens,
            comments,
            annotations,
            test_regions,
        }
    }

    /// Whether `line` falls inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// Whether the whole file is exempt driver/test code by path.
    pub fn is_test_code(&self) -> bool {
        self.class == PathClass::TestOrBench
    }

    /// Ident text at token index `i`, if it is an ident.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i).map(|s| &s.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether token `i` is the punct `p`.
    pub fn punct(&self, i: usize, p: u8) -> bool {
        matches!(self.tokens.get(i).map(|s| &s.tok), Some(Tok::Punct(q)) if *q == p)
    }

    /// Line of token `i` (0 if out of range — only possible on empty files).
    pub fn line(&self, i: usize) -> u32 {
        self.tokens.get(i).map(|s| s.line).unwrap_or(0)
    }

    /// Whether any comment whose text contains `needle` ends on `line`
    /// itself or within the `above` lines immediately before it.
    pub fn comment_near(&self, line: u32, above: u32, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|c| c.end_line <= line && c.end_line + above >= line && c.text.contains(needle))
    }

    /// Index of the token closing the balanced `(...)` group opened at
    /// token `open` (which must be `(`), or `tokens.len()` if unterminated.
    pub fn close_paren(&self, open: usize) -> usize {
        debug_assert!(self.punct(open, b'('));
        let mut depth = 0usize;
        for i in open..self.tokens.len() {
            if let Tok::Punct(p) = self.tokens[i].tok {
                match p {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            return i;
                        }
                    }
                    _ => {}
                }
            }
        }
        self.tokens.len()
    }
}

fn classify(path: &str) -> PathClass {
    let test_dirs = ["tests/", "benches/", "examples/", "fixtures/"];
    if test_dirs
        .iter()
        .any(|d| path.starts_with(d) || path.contains(&format!("/{d}")))
    {
        PathClass::TestOrBench
    } else {
        PathClass::Source
    }
}

fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    "repro".to_string()
}

/// Finds the line spans of `#[cfg(test)]` items by token-pattern: the
/// attribute sequence `# [ cfg ( test ) ]`, then any further attributes,
/// then the annotated item, whose extent is the balanced `{...}` block (or
/// the terminating `;` for block-less items like `use`).
fn find_test_regions(tokens: &[Spanned]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let ident =
        |i: usize, s: &str| matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Ident(x)) if x == s);
    let punct =
        |i: usize, p: u8| matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(q)) if *q == p);

    let mut i = 0;
    while i + 6 < tokens.len() {
        if punct(i, b'#')
            && punct(i + 1, b'[')
            && ident(i + 2, "cfg")
            && punct(i + 3, b'(')
            && ident(i + 4, "test")
            && punct(i + 5, b')')
            && punct(i + 6, b']')
        {
            let start_line = tokens[i].line;
            // skip past this and any further attributes
            let mut j = i + 7;
            while punct(j, b'#') && punct(j + 1, b'[') {
                let mut depth = 0usize;
                while j < tokens.len() {
                    if punct(j, b'[') {
                        depth += 1;
                    } else if punct(j, b']') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            // find the item extent: first `{` before any top-level `;`
            let mut end = None;
            let mut k = j;
            while k < tokens.len() {
                if punct(k, b';') {
                    end = Some(tokens[k].line);
                    break;
                }
                if punct(k, b'{') {
                    let mut depth = 0usize;
                    while k < tokens.len() {
                        if punct(k, b'{') {
                            depth += 1;
                        } else if punct(k, b'}') {
                            depth -= 1;
                            if depth == 0 {
                                end = Some(tokens[k].line);
                                break;
                            }
                        }
                        k += 1;
                    }
                    break;
                }
                k += 1;
            }
            let end_line =
                end.unwrap_or_else(|| tokens.last().map(|t| t.line).unwrap_or(start_line));
            regions.push((start_line, end_line));
            i = k.max(j);
        }
        i += 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_region() {
        let src = "fn real() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(3));
        assert!(f.in_test_region(5));
        assert!(f.in_test_region(6));
        assert!(!f.in_test_region(7));
    }

    #[test]
    fn cfg_test_use_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn real() {}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.in_test_region(2));
        assert!(!f.in_test_region(3));
    }

    #[test]
    fn stacked_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn t() {}\n}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.in_test_region(4));
    }

    #[test]
    fn path_classes() {
        assert_eq!(classify("crates/core/src/lib.rs"), PathClass::Source);
        assert_eq!(classify("crates/core/tests/t.rs"), PathClass::TestOrBench);
        assert_eq!(
            classify("crates/bench/benches/b.rs"),
            PathClass::TestOrBench
        );
        assert_eq!(classify("examples/e.rs"), PathClass::TestOrBench);
        assert_eq!(classify("tests/t.rs"), PathClass::TestOrBench);
        assert_eq!(classify("src/lib.rs"), PathClass::Source);
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/sim/src/rng.rs"), "sim");
        assert_eq!(crate_of("src/lib.rs"), "repro");
        assert_eq!(crate_of("tests/t.rs"), "repro");
    }

    #[test]
    fn comment_near_window() {
        let src = "// ORDERING: doc\nx.load(o);\n\n\ny.load(o);\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.comment_near(2, 1, "ORDERING:"));
        assert!(!f.comment_near(5, 1, "ORDERING:"));
    }
}
