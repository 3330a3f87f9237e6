//! Scope model: path classification plus the per-file token model the
//! rule packs run against.
//!
//! Classification decides *which* rules apply to a file (by crate and
//! path); the [`FileModel`] resolves *where* inside the file they apply —
//! brace depth, `#[cfg(test)]` regions, imports of unordered containers,
//! and the `let`/parameter bindings whose values are `HashMap`/`HashSet`.
//! Together they replace the regex-and-line-mask guesswork of ft-lint v1
//! with token-accurate answers.

use crate::lexer::{self, Kind, Lexed, Token};
use std::collections::BTreeSet;

/// How strictly a file is checked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// Full rule set (library code of the strict crates).
    Strict,
    /// Portable rules only (float-eq plus the determinism/concurrency
    /// packs where their crate filters apply).
    Lib,
    /// No rules (tests, benches, examples, binaries, fixtures).
    Exempt,
}

/// Crates whose library code is held to the full rule set.
pub const STRICT_CRATES: &[&str] = &[
    "ft-graph",
    "ft-lp",
    "ft-mcf",
    "ft-core",
    "ft-metrics",
    "ft-des",
    "ft-serve",
    "ft-obs",
    "ft-lint",
];

/// Crates whose outputs must be bit-identical across thread counts and
/// runs — the determinism pack's `unordered-iter` rule applies here.
pub const DETERMINISTIC_CRATES: &[&str] = &["ft-graph", "ft-mcf", "ft-des", "ft-sim", "ft-metrics"];

/// Crates allowed to read wall clocks (`wallclock` rule exemption):
/// observability is *about* real time.
pub const WALLCLOCK_CRATES: &[&str] = &["ft-obs"];

/// The one file allowed to inspect thread counts and identities: the
/// deterministic worker pool itself.
pub const THREAD_SOURCE_FILE: &str = "crates/ft-graph/src/par.rs";

/// Path components that exempt a file wholesale.
const EXEMPT_DIRS: &[&str] = &["tests", "benches", "examples", "bin", "fixtures", "target"];

/// Classifies a workspace-relative path (`/`-separated).
pub fn classify(path: &str) -> Scope {
    let parts: Vec<&str> = path.split('/').collect();
    if parts.iter().any(|p| EXEMPT_DIRS.contains(p)) {
        return Scope::Exempt;
    }
    if !path.ends_with(".rs") {
        return Scope::Exempt;
    }
    if parts.first() == Some(&"crates") && parts.get(2) == Some(&"src") {
        let krate = parts.get(1).copied().unwrap_or("");
        if STRICT_CRATES.contains(&krate) {
            return Scope::Strict;
        }
        // a crate's `src/main.rs` is binary code, exempt like other bins
        if parts.last() == Some(&"main.rs") {
            return Scope::Exempt;
        }
        return Scope::Lib;
    }
    if parts.first() == Some(&"src") {
        if parts.last() == Some(&"main.rs") {
            return Scope::Exempt;
        }
        return Scope::Lib;
    }
    Scope::Exempt
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…`), or
/// `None` for the root `src/` tree.
pub fn crate_of(path: &str) -> Option<&str> {
    let mut parts = path.split('/');
    (parts.next() == Some("crates"))
        .then(|| parts.next().unwrap_or(""))
        .filter(|s| !s.is_empty())
}

/// Token-level model of one source file: the lexed stream plus the
/// resolved facts the rule packs consult.
pub struct FileModel<'a> {
    /// The lexed token stream (trivia included).
    pub lexed: Lexed<'a>,
    /// Indices into `lexed.tokens` of the non-trivia (code) tokens.
    pub code: Vec<usize>,
    /// Brace depth *before* each code token (`code`-parallel).
    pub depth: Vec<usize>,
    /// Whether each code token sits inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// `line_has_comment[line - 1]` — the 1-based line carries a comment.
    pub line_has_comment: Vec<bool>,
    /// Names that denote unordered containers in this file: `HashMap`,
    /// `HashSet`, plus any `use … as` aliases of them.
    pub unordered_types: BTreeSet<String>,
    /// Variables bound (by `let` or parameter) to an unordered container.
    pub unordered_vars: BTreeSet<String>,
}

impl<'a> FileModel<'a> {
    /// Lexes `src` and resolves the file-level facts.
    pub fn build(src: &'a str) -> FileModel<'a> {
        let lexed = lexer::lex(src);
        let mut code = Vec::new();
        let mut depth = Vec::new();
        let mut line_has_comment = vec![false; lexed.line_count()];
        let mut d = 0usize;
        for (i, t) in lexed.tokens.iter().enumerate() {
            if t.kind.is_trivia() {
                let first = t.line;
                let extra = lexed.text(t).matches('\n').count();
                for line in first..=first + extra {
                    if let Some(slot) = line_has_comment.get_mut(line - 1) {
                        *slot = true;
                    }
                }
                continue;
            }
            let text = lexed.text(t);
            if text == "}" {
                d = d.saturating_sub(1);
            }
            depth.push(if text == "}" { d + 1 } else { d });
            if text == "{" {
                d += 1;
            }
            code.push(i);
        }
        let mut model = FileModel {
            lexed,
            code,
            depth,
            in_test: Vec::new(),
            line_has_comment,
            unordered_types: BTreeSet::new(),
            unordered_vars: BTreeSet::new(),
        };
        model.in_test = model.resolve_test_regions();
        model.unordered_types = model.resolve_unordered_types();
        model.unordered_vars = model.resolve_unordered_vars();
        model
    }

    /// Number of code tokens.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the file has no code tokens.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The `j`-th code token.
    pub fn tok(&self, j: usize) -> Option<&Token> {
        self.code.get(j).and_then(|&i| self.lexed.tokens.get(i))
    }

    /// The source text of the `j`-th code token (empty when out of range).
    pub fn text(&self, j: usize) -> &'a str {
        self.tok(j).map_or("", |t| self.lexed.text(t))
    }

    /// The kind of the `j`-th code token ([`Kind::Punct`] out of range —
    /// a kind no rule dispatches on for matching identifiers).
    pub fn kind(&self, j: usize) -> Kind {
        self.tok(j).map_or(Kind::Punct, |t| t.kind)
    }

    /// Whether code token `j` equals `text` exactly.
    pub fn is(&self, j: usize, text: &str) -> bool {
        self.text(j) == text
    }

    /// Whether any comment sits on the token's line or the line above
    /// (the bounds-comment convention of the `index-bounds` rule).
    pub fn commented_nearby(&self, j: usize) -> bool {
        let Some(t) = self.tok(j) else { return false };
        let line = t.line;
        let on = |l: usize| l >= 1 && self.line_has_comment.get(l - 1).copied().unwrap_or(false);
        on(line) || on(line.saturating_sub(1))
    }

    /// Marks code tokens covered by `#[cfg(test)]` items (attribute
    /// through the end of the annotated item's braces or semicolon).
    fn resolve_test_regions(&self) -> Vec<bool> {
        let n = self.len();
        let mut skip = vec![false; n];
        let mut j = 0usize;
        while j < n {
            if !(self.is(j, "#") && self.is(j + 1, "[")) {
                j += 1;
                continue;
            }
            // scan the attribute to its matching `]`, collecting content
            let mut k = j + 2;
            let mut brackets = 1usize;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while k < n && brackets > 0 {
                match self.text(k) {
                    "[" => brackets += 1,
                    "]" => brackets -= 1,
                    "cfg" => saw_cfg = true,
                    "test" => saw_test = true,
                    _ => {}
                }
                k += 1;
            }
            if !(saw_cfg && saw_test) {
                j = k;
                continue;
            }
            // the annotated item runs to the first `;` before any brace,
            // or through the matching `}` of its first brace block
            let mut braces = 0usize;
            let mut end = k;
            while end < n {
                match self.text(end) {
                    "{" => braces += 1,
                    "}" => {
                        braces = braces.saturating_sub(1);
                        if braces == 0 {
                            break;
                        }
                    }
                    ";" if braces == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            for slot in skip.iter_mut().take((end + 1).min(n)).skip(j) {
                *slot = true;
            }
            j = end + 1;
        }
        skip
    }

    /// Unordered container type names visible in this file: the std names
    /// plus `use … HashMap as Alias` renames.
    fn resolve_unordered_types(&self) -> BTreeSet<String> {
        let mut names: BTreeSet<String> = ["HashMap", "HashSet"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut j = 0usize;
        while j < self.len() {
            if !self.is(j, "use") {
                j += 1;
                continue;
            }
            // within the use statement, `HashMap as X` aliases X
            let mut k = j + 1;
            while k < self.len() && !self.is(k, ";") {
                if matches!(self.text(k), "HashMap" | "HashSet")
                    && self.is(k + 1, "as")
                    && self.kind(k + 2) == Kind::Ident
                {
                    names.insert(self.text(k + 2).to_string());
                }
                k += 1;
            }
            j = k;
        }
        names
    }

    /// Variables bound to unordered containers, resolved from `let`
    /// statements and function parameters whose type or initializer
    /// mentions an unordered type name.
    fn resolve_unordered_vars(&self) -> BTreeSet<String> {
        let mut vars = BTreeSet::new();
        let n = self.len();
        let mut j = 0usize;
        while j < n {
            // `let [mut] name … ;` — statement mentions an unordered type?
            if self.is(j, "let") {
                let mut k = j + 1;
                if self.is(k, "mut") {
                    k += 1;
                }
                if self.kind(k) == Kind::Ident {
                    let name = self.text(k);
                    let stmt_depth = self.depth.get(j).copied().unwrap_or(0);
                    let mut m = k + 1;
                    let mut unordered = false;
                    while m < n {
                        let t = self.text(m);
                        if t == ";" && self.depth.get(m).copied().unwrap_or(0) == stmt_depth {
                            break;
                        }
                        if self.unordered_types.contains(t) {
                            unordered = true;
                        }
                        m += 1;
                    }
                    if unordered {
                        vars.insert(name.to_string());
                    }
                    j = m;
                    continue;
                }
            }
            // `fn name(…)` — parameters typed as unordered containers
            if self.is(j, "fn") && self.kind(j + 1) == Kind::Ident {
                let mut k = j + 2;
                // skip generics to the parameter list
                while k < n && !self.is(k, "(") && !self.is(k, "{") && !self.is(k, ";") {
                    k += 1;
                }
                if self.is(k, "(") {
                    let mut parens = 1usize;
                    let mut m = k + 1;
                    let mut param_name: Option<String> = None;
                    let mut param_unordered = false;
                    while m < n && parens > 0 {
                        match self.text(m) {
                            "(" | "[" => parens += 1,
                            ")" | "]" => parens -= 1,
                            "," if parens == 1 => {
                                if let (Some(p), true) = (param_name.take(), param_unordered) {
                                    vars.insert(p);
                                }
                                param_unordered = false;
                            }
                            ":" if parens == 1 => {
                                // the token before the top-level colon is
                                // the parameter name
                                if m >= 1 && self.kind(m - 1) == Kind::Ident {
                                    param_name = Some(self.text(m - 1).to_string());
                                }
                            }
                            t => {
                                if self.unordered_types.contains(t) {
                                    param_unordered = true;
                                }
                            }
                        }
                        m += 1;
                    }
                    if let (Some(p), true) = (param_name.take(), param_unordered) {
                        vars.insert(p);
                    }
                    j = m;
                    continue;
                }
            }
            j += 1;
        }
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes() {
        assert_eq!(classify("crates/ft-lp/src/simplex.rs"), Scope::Strict);
        assert_eq!(classify("crates/ft-lint/src/lexer.rs"), Scope::Strict);
        assert_eq!(classify("crates/ft-control/src/advisor.rs"), Scope::Lib);
        assert_eq!(classify("src/cli.rs"), Scope::Lib);
        assert_eq!(classify("src/main.rs"), Scope::Exempt);
        assert_eq!(classify("crates/ft-lp/tests/x.rs"), Scope::Exempt);
        assert_eq!(
            classify("crates/ft-experiments/src/bin/fig7.rs"),
            Scope::Exempt
        );
        assert_eq!(
            classify("crates/ft-lint/fixtures/violating/panics.rs"),
            Scope::Exempt
        );
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/ft-sim/src/lib.rs"), Some("ft-sim"));
        assert_eq!(crate_of("src/cli.rs"), None);
    }

    #[test]
    fn test_regions_cover_mod_tests() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {}\n}\nfn h() {}\n";
        let m = FileModel::build(src);
        let texts: Vec<(&str, bool)> = (0..m.len()).map(|j| (m.text(j), m.in_test[j])).collect();
        let g = texts.iter().find(|(t, _)| *t == "g").unwrap();
        assert!(g.1, "{texts:?}");
        let h = texts.iter().find(|(t, _)| *t == "h").unwrap();
        assert!(!h.1, "{texts:?}");
    }

    #[test]
    fn cfg_test_fn_item() {
        let src = "#[cfg(test)]\nfn only_in_tests() { x.unwrap(); }\nfn real() {}\n";
        let m = FileModel::build(src);
        let unwrap_idx = (0..m.len()).find(|&j| m.is(j, "unwrap")).unwrap();
        assert!(m.in_test[unwrap_idx]);
        let real_idx = (0..m.len()).find(|&j| m.is(j, "real")).unwrap();
        assert!(!m.in_test[real_idx]);
    }

    #[test]
    fn unordered_bindings_resolved() {
        let src = "use std::collections::{HashMap, HashSet as Uniq};\n\
                   fn f(seen: &Uniq<u32>, plain: &[u32]) {\n\
                       let mut m: HashMap<u32, u32> = HashMap::new();\n\
                       let ordered = std::collections::BTreeMap::new();\n\
                       let n = plain.len();\n\
                   }\n";
        let m = FileModel::build(src);
        assert!(m.unordered_vars.contains("m"));
        assert!(m.unordered_vars.contains("seen"));
        assert!(!m.unordered_vars.contains("ordered"));
        assert!(!m.unordered_vars.contains("n"));
        assert!(!m.unordered_vars.contains("plain"));
        assert!(m.unordered_types.contains("Uniq"));
    }

    #[test]
    fn comment_lines_marked() {
        let src = "let a = 1; // c\nlet b = 2;\n/* multi\nline */ let d = 3;\n";
        let m = FileModel::build(src);
        // trailing newline yields a final empty line with no comment
        assert_eq!(m.line_has_comment, vec![true, false, true, true, false]);
    }

    #[test]
    fn depth_tracks_braces() {
        let src = "fn f() { if x { y(); } }\n";
        let m = FileModel::build(src);
        let y = (0..m.len()).find(|&j| m.is(j, "y")).unwrap();
        assert_eq!(m.depth[y], 2);
        let f = (0..m.len()).find(|&j| m.is(j, "f")).unwrap();
        assert_eq!(m.depth[f], 0);
    }
}
