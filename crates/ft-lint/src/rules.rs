//! The rule packs, applied to the token stream of [`crate::lexer`] via
//! the resolved [`crate::scope::FileModel`].
//!
//! Three packs:
//!
//! * **hygiene** — the v1 rules, now scope-aware: `panic`,
//!   `index-bounds`, `float-eq`, `truncating-cast`, `missing-doc`.
//! * **determinism** — constructs that make output depend on hash seeds,
//!   wall clocks, or thread schedules: `unordered-iter`, `wallclock`,
//!   `thread-dependent`. These guard the repo's core invariant:
//!   bit-identical results across `FT_THREADS` (DESIGN.md §10).
//! * **concurrency** — synchronization hazards: `relaxed-sync`,
//!   `lock-across-blocking`, `static-mut`.
//!
//! Every rule has a stable id (used by `lint-allow.toml` and the JSON/
//! SARIF reports) and an entry in [`RULES`]; the fixture corpus under
//! `tests/fixtures/` holds one positive and one negative case per id.

use crate::lexer::Kind;
use crate::scope::{
    classify, crate_of, FileModel, Scope, DETERMINISTIC_CRATES, THREAD_SOURCE_FILE,
    WALLCLOCK_CRATES,
};

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column of the offending token.
    pub col: usize,
    /// Stable rule id (used by `lint-allow.toml`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
    /// The offending source line, trimmed (allowlist `contains` matches it).
    pub excerpt: String,
}

/// Catalog entry describing one rule (drives the SARIF rule table and the
/// DESIGN.md catalog).
pub struct RuleInfo {
    /// Stable rule id.
    pub id: &'static str,
    /// Which pack the rule ships in.
    pub pack: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// The full rule catalog. Every id here has a positive and a negative
/// fixture under `tests/fixtures/` (enforced by the golden test).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "panic",
        pack: "hygiene",
        summary: "no panic!/unreachable!/.unwrap()/.expect() in strict library code",
    },
    RuleInfo {
        id: "index-bounds",
        pack: "hygiene",
        summary: "arithmetic index expressions need a bounds comment",
    },
    RuleInfo {
        id: "float-eq",
        pack: "hygiene",
        summary: "no ==/!= against float literals",
    },
    RuleInfo {
        id: "truncating-cast",
        pack: "hygiene",
        summary: "no narrowing `as` casts on indices; use try_into or id32",
    },
    RuleInfo {
        id: "missing-doc",
        pack: "hygiene",
        summary: "every pub fn in strict library code carries a doc comment",
    },
    RuleInfo {
        id: "unordered-iter",
        pack: "determinism",
        summary: "no iteration over HashMap/HashSet in deterministic crates",
    },
    RuleInfo {
        id: "wallclock",
        pack: "determinism",
        summary: "no Instant::now/SystemTime outside ft-obs",
    },
    RuleInfo {
        id: "thread-dependent",
        pack: "determinism",
        summary: "no thread-count/thread-id dependence outside ft_graph::par",
    },
    RuleInfo {
        id: "relaxed-sync",
        pack: "concurrency",
        summary: "no Ordering::Relaxed loads/stores as synchronization outside ft-obs",
    },
    RuleInfo {
        id: "lock-across-blocking",
        pack: "concurrency",
        summary: "no lock guard held across send/recv/join/sleep",
    },
    RuleInfo {
        id: "static-mut",
        pack: "concurrency",
        summary: "no static mut; use atomics or locks",
    },
];

/// Looks up a rule's catalog entry.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Narrowing integer target types of the `truncating-cast` rule.
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Iteration methods that observe a container's (unordered) order.
const ORDER_OBSERVING: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Atomic methods where `Ordering::Relaxed` implies the atomic is being
/// used for synchronization rather than counting; `fetch_add`/`fetch_sub`
/// counters are exempt (the ft-obs metrics idiom).
const SYNC_ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
];

/// Blocking calls a lock guard must not be held across.
const BLOCKING_METHODS: &[&str] = &["send", "recv", "join"];

/// Checks one file, returning its violations (before allowlisting).
pub fn check_file(path: &str, src: &str) -> Vec<Violation> {
    let scope = classify(path);
    if scope == Scope::Exempt {
        return Vec::new();
    }
    let m = FileModel::build(src);
    let krate = crate_of(path);
    let mut ctx = Ctx {
        path,
        m: &m,
        out: Vec::new(),
    };
    if scope == Scope::Strict {
        ctx.panic_rule();
        ctx.index_bounds();
        ctx.truncating_cast();
        ctx.missing_doc();
    }
    ctx.float_eq();
    if krate.is_some_and(|k| DETERMINISTIC_CRATES.contains(&k)) {
        ctx.unordered_iter();
    }
    if !krate.is_some_and(|k| WALLCLOCK_CRATES.contains(&k)) {
        ctx.wallclock();
    }
    if path != THREAD_SOURCE_FILE {
        ctx.thread_dependent();
    }
    if krate != Some("ft-obs") {
        ctx.relaxed_sync();
    }
    ctx.lock_across_blocking();
    ctx.static_mut();
    let mut out = ctx.out;
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Shared state of the per-file rule passes.
struct Ctx<'a, 'b> {
    path: &'a str,
    m: &'a FileModel<'b>,
    out: Vec<Violation>,
}

impl Ctx<'_, '_> {
    /// Records a violation anchored at code token `j`.
    fn report(&mut self, j: usize, rule: &'static str, message: String) {
        let (line, col) = self.m.tok(j).map_or((1, 1), |t| (t.line, t.col));
        self.out.push(Violation {
            path: self.path.to_string(),
            line,
            col,
            rule,
            message,
            excerpt: self.m.lexed.line_text(line).to_string(),
        });
    }

    /// Whether token `j` is inside a `#[cfg(test)]` region.
    fn skipped(&self, j: usize) -> bool {
        self.m.in_test.get(j).copied().unwrap_or(false)
    }

    /// `panic` — panicking constructs in strict library code.
    fn panic_rule(&mut self) {
        let m = self.m;
        for j in 0..m.len() {
            if self.skipped(j) {
                continue;
            }
            let t = m.text(j);
            if matches!(t, "panic" | "unreachable" | "todo" | "unimplemented") && m.is(j + 1, "!") {
                self.report(
                    j,
                    "panic",
                    format!("`{t}!` in library code; return a Result instead"),
                );
            }
            if m.is(j, ".") && matches!(m.text(j + 1), "unwrap" | "expect") && m.is(j + 2, "(") {
                let name = m.text(j + 1);
                self.report(
                    j + 1,
                    "panic",
                    format!("`.{name}()` in library code; return a Result instead"),
                );
            }
        }
    }

    /// `index-bounds` — `v[i + 1]`-style arithmetic indexing without a
    /// bounds comment on the same or previous line.
    fn index_bounds(&mut self) {
        let m = self.m;
        for j in 1..m.len() {
            if self.skipped(j) || !m.is(j, "[") {
                continue;
            }
            // an index expression follows a value token; `[` after `(`,
            // `=`, `,`, … opens a slice/array literal instead
            let prev = m.text(j - 1);
            let prev_is_value =
                matches!(m.kind(j - 1), Kind::Ident) && prev != "mut" || prev == "]" || prev == ")";
            if !prev_is_value {
                continue;
            }
            let mut depth = 1usize;
            let mut k = j + 1;
            let mut arithmetic: Option<usize> = None;
            while k < m.len() && depth > 0 {
                match m.text(k) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "+" | "*" | "%" | "-" => {
                        // only binary uses count: `v[i + 1]` yes,
                        // `v[*cursor]` (deref) and `v[-x]` (negation) no
                        let binary = matches!(m.kind(k - 1), Kind::Ident | Kind::Int | Kind::Float)
                            || m.is(k - 1, ")")
                            || m.is(k - 1, "]");
                        if binary {
                            arithmetic = arithmetic.or(Some(k));
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            if let Some(op) = arithmetic {
                if !m.commented_nearby(j) {
                    let expr: String = (j + 1..k.saturating_sub(1))
                        .map(|i| m.text(i))
                        .collect::<Vec<_>>()
                        .join(" ");
                    let _ = op;
                    self.report(
                        j,
                        "index-bounds",
                        format!(
                            "arithmetic index `[{expr}]` without a bounds comment on this or the previous line"
                        ),
                    );
                }
            }
        }
    }

    /// `float-eq` — `==`/`!=` where either operand is a float literal.
    fn float_eq(&mut self) {
        let m = self.m;
        for j in 0..m.len() {
            if self.skipped(j) || !(m.is(j, "==") || m.is(j, "!=")) {
                continue;
            }
            let left = j.checked_sub(1).map_or(Kind::Punct, |p| m.kind(p));
            let right = m.kind(j + 1);
            // a unary minus before the literal still compares a float
            let right_neg = m.is(j + 1, "-") && m.kind(j + 2) == Kind::Float;
            if left == Kind::Float || right == Kind::Float || right_neg {
                self.report(
                    j,
                    "float-eq",
                    "`==`/`!=` against a float literal; compare with an epsilon or integers"
                        .to_string(),
                );
            }
        }
    }

    /// `truncating-cast` — `as u32`-style narrowing casts.
    fn truncating_cast(&mut self) {
        let m = self.m;
        for j in 0..m.len() {
            if self.skipped(j) || !m.is(j, "as") {
                continue;
            }
            let ty = m.text(j + 1);
            if NARROW_CASTS.contains(&ty) {
                self.report(
                    j,
                    "truncating-cast",
                    format!(
                        "truncating `as {ty}` cast; use try_into() or a checked helper (ft_graph::id32)"
                    ),
                );
            }
        }
    }

    /// `missing-doc` — `pub fn` without a doc comment.
    fn missing_doc(&mut self) {
        let m = self.m;
        for j in 0..m.len() {
            if self.skipped(j) || !m.is(j, "pub") {
                continue;
            }
            // pub(crate)/pub(super) are internal API, no doc required
            if m.is(j + 1, "(") {
                continue;
            }
            let mut k = j + 1;
            while matches!(m.text(k), "const" | "unsafe" | "async" | "extern") {
                k += 1;
            }
            if !m.is(k, "fn") || m.kind(k + 1) != Kind::Ident {
                continue;
            }
            let name = m.text(k + 1);
            if !self.documented(j) {
                self.report(
                    k + 1,
                    "missing-doc",
                    format!("public function `{name}` has no doc comment"),
                );
            }
        }
    }

    /// Whether the item whose first code token is `j` has a doc comment,
    /// walking back over attributes in the *full* token stream.
    fn documented(&self, j: usize) -> bool {
        let m = self.m;
        let Some(&start) = m.code.get(j) else {
            return false;
        };
        let mut i = start;
        loop {
            if i == 0 {
                return false;
            }
            i -= 1;
            let Some(t) = m.lexed.tokens.get(i) else {
                return false;
            };
            match t.kind {
                Kind::LineComment { doc } | Kind::BlockComment { doc } => {
                    if doc {
                        return true;
                    }
                    // plain comments between doc and item are fine; keep
                    // walking
                }
                _ => {
                    // walk back over one attribute `#[…]`: from its `]`
                    // to the `#`, then continue above it
                    if m.lexed.text(t) == "]" {
                        let mut brackets = 1usize;
                        while i > 0 && brackets > 0 {
                            i -= 1;
                            match m.lexed.tokens.get(i).map(|t| m.lexed.text(t)) {
                                Some("]") => brackets += 1,
                                Some("[") => brackets -= 1,
                                _ => {}
                            }
                        }
                        // the `#` before the `[`
                        i = i.saturating_sub(1);
                        // i now sits on `#` (or as far back as we got);
                        // the loop continues above the attribute
                        continue;
                    }
                    return false;
                }
            }
        }
    }

    /// `unordered-iter` — iteration over a HashMap/HashSet in the
    /// deterministic crates.
    fn unordered_iter(&mut self) {
        let m = self.m;
        for j in 0..m.len() {
            if self.skipped(j) || m.kind(j) != Kind::Ident {
                continue;
            }
            let name = m.text(j);
            if !m.unordered_vars.contains(name) {
                continue;
            }
            // v.iter() / v.keys() / … — order-observing method call
            if m.is(j + 1, ".") && ORDER_OBSERVING.contains(&m.text(j + 2)) && m.is(j + 3, "(") {
                let method = m.text(j + 2);
                self.report(
                    j,
                    "unordered-iter",
                    format!(
                        "`{name}.{method}()` iterates an unordered container in a deterministic crate; \
                         use BTreeMap/BTreeSet or sort the keys first"
                    ),
                );
                continue;
            }
            // for x in [&[mut]] v — direct loop over the container
            let mut p = j;
            while p > 0 && (m.is(p - 1, "&") || m.is(p - 1, "mut")) {
                p -= 1;
            }
            if p > 0 && m.is(p - 1, "in") {
                self.report(
                    j,
                    "unordered-iter",
                    format!(
                        "`for … in {name}` iterates an unordered container in a deterministic crate; \
                         use BTreeMap/BTreeSet or sort the keys first"
                    ),
                );
            }
        }
    }

    /// `wallclock` — wall-clock reads outside the observability crate.
    fn wallclock(&mut self) {
        let m = self.m;
        for j in 0..m.len() {
            if self.skipped(j) {
                continue;
            }
            if m.is(j, "Instant") && m.is(j + 1, "::") && m.is(j + 2, "now") {
                self.report(
                    j,
                    "wallclock",
                    "`Instant::now()` outside ft-obs; deterministic code must not read wall clocks"
                        .to_string(),
                );
            }
            if m.is(j, "SystemTime") {
                self.report(
                    j,
                    "wallclock",
                    "`SystemTime` outside ft-obs; deterministic code must not read wall clocks"
                        .to_string(),
                );
            }
        }
    }

    /// `thread-dependent` — thread-count or thread-identity dependence
    /// outside the worker pool.
    fn thread_dependent(&mut self) {
        let m = self.m;
        for j in 0..m.len() {
            if self.skipped(j) {
                continue;
            }
            if m.is(j, "available_parallelism") {
                self.report(
                    j,
                    "thread-dependent",
                    "`available_parallelism` outside ft_graph::par; take the worker count from the pool"
                        .to_string(),
                );
            }
            if m.kind(j) == Kind::Str && m.text(j).contains("FT_THREADS") {
                self.report(
                    j,
                    "thread-dependent",
                    "`FT_THREADS` read outside ft_graph::par; take the worker count from the pool"
                        .to_string(),
                );
            }
            if m.is(j, "current")
                && m.is(j + 1, "(")
                && m.is(j + 2, ")")
                && m.is(j + 3, ".")
                && m.is(j + 4, "id")
            {
                self.report(
                    j,
                    "thread-dependent",
                    "thread-id inspection outside ft_graph::par makes behaviour schedule-dependent"
                        .to_string(),
                );
            }
        }
    }

    /// `relaxed-sync` — `Ordering::Relaxed` on load/store/swap/CAS used as
    /// a synchronization flag.
    fn relaxed_sync(&mut self) {
        let m = self.m;
        for j in 0..m.len() {
            if self.skipped(j) || !SYNC_ATOMIC_METHODS.contains(&m.text(j)) || !m.is(j + 1, "(") {
                continue;
            }
            // only method-call positions: `.load(…)`, not a free fn
            if j == 0 || !m.is(j - 1, ".") {
                continue;
            }
            let mut parens = 1usize;
            let mut k = j + 2;
            while k < m.len() && parens > 0 {
                match m.text(k) {
                    "(" => parens += 1,
                    ")" => parens -= 1,
                    "Relaxed" => {
                        let method = m.text(j);
                        self.report(
                            j,
                            "relaxed-sync",
                            format!(
                                "`{method}` with `Ordering::Relaxed` used for synchronization; \
                                 use Acquire/Release/SeqCst (Relaxed is for ft-obs counters)"
                            ),
                        );
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }

    /// `lock-across-blocking` — a `let`-bound lock guard alive across a
    /// blocking call (send/recv/join/sleep), detected per token window
    /// from the binding to the end of its block or an explicit `drop`.
    fn lock_across_blocking(&mut self) {
        let m = self.m;
        for j in 0..m.len() {
            if self.skipped(j) || !m.is(j, "let") {
                continue;
            }
            let mut k = j + 1;
            if m.is(k, "mut") {
                k += 1;
            }
            if m.kind(k) != Kind::Ident || !m.is(k + 1, "=") {
                continue;
            }
            let guard = m.text(k);
            // `let v = *m.lock();` copies the value out — no guard lives on
            if m.is(k + 2, "*") {
                continue;
            }
            // find the end of the statement and check the initializer
            // ends in `.lock()` / `.read()` / `.write()`
            let stmt_depth = m.depth.get(j).copied().unwrap_or(0);
            let mut e = k + 2;
            while e < m.len() {
                if m.is(e, ";") && m.depth.get(e).copied().unwrap_or(0) == stmt_depth {
                    break;
                }
                e += 1;
            }
            let is_guard = e >= 4
                && m.is(e - 1, ")")
                && m.is(e - 2, "(")
                && matches!(m.text(e - 3), "lock" | "read" | "write")
                && m.is(e - 4, ".");
            if !is_guard {
                continue;
            }
            // window: from the statement end to the end of the enclosing
            // block or an explicit drop(guard)
            let mut w = e + 1;
            while w < m.len() {
                let d = m.depth.get(w).copied().unwrap_or(0);
                if m.is(w, "}") && d <= stmt_depth {
                    break;
                }
                if m.is(w, "drop") && m.is(w + 1, "(") && m.is(w + 2, guard) && m.is(w + 3, ")") {
                    break;
                }
                let blocking =
                    (m.is(w, ".") && BLOCKING_METHODS.contains(&m.text(w + 1)) && m.is(w + 2, "("))
                        .then(|| m.text(w + 1))
                        .or_else(|| (m.is(w, "sleep") && m.is(w + 1, "(")).then_some("sleep"));
                if let Some(call) = blocking {
                    self.report(
                        w,
                        "lock-across-blocking",
                        format!(
                            "guard `{guard}` (bound at line {}) is still held across `{call}`; \
                             drop it first or narrow the critical section",
                            m.tok(j).map_or(0, |t| t.line)
                        ),
                    );
                    break;
                }
                w += 1;
            }
        }
    }

    /// `static-mut` — mutable statics.
    fn static_mut(&mut self) {
        let m = self.m;
        for j in 0..m.len() {
            if self.skipped(j) {
                continue;
            }
            if m.is(j, "static") && m.is(j + 1, "mut") {
                self.report(
                    j,
                    "static-mut",
                    "`static mut` is unsynchronized shared state; use an atomic or a lock"
                        .to_string(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        check_file(path, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unwrap_in_strict_lib_flagged() {
        let v = rules_of("crates/ft-lp/src/x.rs", "fn f() { let _ = a.unwrap(); }\n");
        assert!(v.contains(&"panic"), "{v:?}");
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let v = rules_of(
            "crates/ft-lp/src/x.rs",
            "fn f() { let _ = a.unwrap_or(0); }\n",
        );
        assert!(!v.contains(&"panic"), "{v:?}");
    }

    #[test]
    fn test_module_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { a.unwrap(); }\n}\n";
        assert!(rules_of("crates/ft-lp/src/x.rs", src).is_empty());
    }

    #[test]
    fn string_contents_ignored() {
        let v = rules_of(
            "crates/ft-lp/src/x.rs",
            "fn f() { let s = \"don't .unwrap() me\"; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_eq_flagged_in_any_lib() {
        let v = rules_of(
            "crates/ft-control/src/x.rs",
            "fn f(x: f64) -> bool { x == 0.0 }\n",
        );
        assert_eq!(v, vec!["float-eq"]);
    }

    #[test]
    fn integer_eq_not_flagged() {
        assert!(rules_of(
            "crates/ft-control/src/x.rs",
            "fn f(x: u32) -> bool { x == 0 }\n"
        )
        .is_empty());
    }

    #[test]
    fn range_pattern_not_float_eq() {
        let v = rules_of(
            "crates/ft-control/src/x.rs",
            "fn f(x: u32) -> bool { matches!(x, 0..=4) }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn truncating_cast_flagged_widening_ok() {
        assert!(rules_of(
            "crates/ft-graph/src/x.rs",
            "fn f(i: usize) -> u32 { i as u32 }\n"
        )
        .contains(&"truncating-cast"));
        assert!(rules_of(
            "crates/ft-graph/src/x.rs",
            "fn f(i: u32) -> f64 { i as f64 }\n"
        )
        .is_empty());
    }

    #[test]
    fn arithmetic_index_needs_comment() {
        let bad = "fn f(v: &[u32], i: usize) -> u32 { v[i + 1] }\n";
        let good = "fn f(v: &[u32], i: usize) -> u32 {\n    // bounds: i + 1 < v.len() by caller contract\n    v[i + 1]\n}\n";
        assert!(rules_of("crates/ft-graph/src/x.rs", bad).contains(&"index-bounds"));
        assert!(rules_of("crates/ft-graph/src/x.rs", good).is_empty());
    }

    #[test]
    fn plain_index_and_array_literal_ok() {
        assert!(rules_of(
            "crates/ft-graph/src/x.rs",
            "fn f(v: &[u32], i: usize) -> u32 { v[i] }\n"
        )
        .is_empty());
        assert!(rules_of(
            "crates/ft-graph/src/x.rs",
            "fn f() -> [u32; 2] { [1 + 1, 2] }\n"
        )
        .is_empty());
    }

    #[test]
    fn pub_fn_doc_rules() {
        assert!(rules_of("crates/ft-lp/src/x.rs", "pub fn naked() {}\n").contains(&"missing-doc"));
        assert!(rules_of(
            "crates/ft-lp/src/x.rs",
            "/// Documented.\npub fn clothed() {}\n"
        )
        .is_empty());
        assert!(rules_of(
            "crates/ft-lp/src/x.rs",
            "/// Documented.\n#[inline]\npub fn with_attr() {}\n"
        )
        .is_empty());
        assert!(rules_of("crates/ft-lp/src/x.rs", "pub(crate) fn internal() {}\n").is_empty());
    }

    #[test]
    fn unordered_iteration_flagged_in_det_crates_only() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for (k, v) in &m { let _ = (k, v); }\n}\n";
        assert!(rules_of("crates/ft-sim/src/x.rs", src).contains(&"unordered-iter"));
        assert!(!rules_of("crates/ft-control/src/x.rs", src).contains(&"unordered-iter"));
    }

    #[test]
    fn unordered_lookup_not_flagged() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }\n";
        assert!(!rules_of("crates/ft-mcf/src/x.rs", src).contains(&"unordered-iter"));
    }

    #[test]
    fn wallclock_scoping() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert!(rules_of("crates/ft-mcf/src/x.rs", src).contains(&"wallclock"));
        assert!(!rules_of("crates/ft-obs/src/x.rs", src).contains(&"wallclock"));
    }

    #[test]
    fn thread_dependence_scoping() {
        let src = "fn n() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }\n";
        assert!(rules_of("crates/ft-mcf/src/x.rs", src).contains(&"thread-dependent"));
        assert!(!rules_of("crates/ft-graph/src/par.rs", src).contains(&"thread-dependent"));
        let env = "fn n() { let _ = std::env::var(\"FT_THREADS\"); }\n";
        assert!(rules_of("crates/ft-serve/src/x.rs", env).contains(&"thread-dependent"));
    }

    #[test]
    fn relaxed_sync_scoping() {
        let flag = "fn f(b: &std::sync::atomic::AtomicBool) -> bool { b.load(std::sync::atomic::Ordering::Relaxed) }\n";
        assert!(rules_of("crates/ft-serve/src/x.rs", flag).contains(&"relaxed-sync"));
        assert!(!rules_of("crates/ft-obs/src/x.rs", flag).contains(&"relaxed-sync"));
        let counter = "fn f(c: &std::sync::atomic::AtomicU64) { c.fetch_add(1, std::sync::atomic::Ordering::Relaxed); }\n";
        assert!(!rules_of("crates/ft-serve/src/x.rs", counter).contains(&"relaxed-sync"));
    }

    #[test]
    fn lock_across_blocking_detected() {
        let bad = "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n    let g = m.lock();\n    tx.send(*g);\n}\n";
        assert!(rules_of("crates/ft-serve/src/x.rs", bad).contains(&"lock-across-blocking"));
        let dropped = "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n    let g = m.lock();\n    let v = *g;\n    drop(g);\n    tx.send(v);\n}\n";
        assert!(!rules_of("crates/ft-serve/src/x.rs", dropped).contains(&"lock-across-blocking"));
        let temporary = "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n    let v = *m.lock();\n    tx.send(v);\n}\n";
        assert!(!rules_of("crates/ft-serve/src/x.rs", temporary).contains(&"lock-across-blocking"));
    }

    #[test]
    fn static_mut_flagged() {
        assert!(
            rules_of("crates/ft-core/src/x.rs", "static mut X: u32 = 0;\n").contains(&"static-mut")
        );
        assert!(rules_of(
            "crates/ft-core/src/x.rs",
            "static X: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);\n"
        )
        .is_empty());
    }

    #[test]
    fn catalog_is_complete() {
        for v in ["panic", "unordered-iter", "lock-across-blocking"] {
            assert!(rule_info(v).is_some());
        }
        assert_eq!(RULES.len(), 11);
    }
}
