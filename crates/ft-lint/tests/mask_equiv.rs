//! Property test: the v2 lexer's [`ft_lint::lexer::mask_text`] agrees
//! with the retired v1 `mask.rs` scanner on comment/string stripping.
//!
//! The old masking pass lives on here verbatim (module [`reference`]) as
//! the oracle: for generated token soups — snippets of idents, literals,
//! comments, lifetimes, and operators joined by random separators — both
//! passes must produce the same masked text. Known, deliberate
//! divergences are handled explicitly: `br"…"` byte raw strings (which
//! the old scanner never understood) are excluded from the generator,
//! and the oracle carries one normalized v1 bugfix (see
//! `char_literal_len`) where v2's behaviour is the intended one.

use proptest::prelude::*;

/// The v1 `mask.rs` implementation, kept as the reference oracle.
mod reference {
    /// States of the masking scanner.
    enum State {
        Code,
        LineComment,
        BlockComment { depth: usize },
        Str,
        RawStr { hashes: usize },
        Char,
    }

    /// Masks `src`: comments and the interiors of string/char literals
    /// become spaces, everything else is copied through.
    pub fn mask(src: &str) -> String {
        let bytes = src.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut state = State::Code;
        let mut i = 0usize;
        while i < bytes.len() {
            let b = bytes[i];
            if b == b'\n' {
                out.push(b'\n');
                if let State::LineComment = state {
                    state = State::Code;
                }
                i += 1;
                continue;
            }
            match state {
                State::Code => {
                    if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        state = State::LineComment;
                        out.push(b' ');
                        i += 1;
                    } else if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        state = State::BlockComment { depth: 1 };
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b == b'"' {
                        state = State::Str;
                        out.push(b'"');
                        i += 1;
                    } else if b == b'r'
                        && !prev_is_ident(&out)
                        && raw_str_hashes(&bytes[i..]).is_some()
                    {
                        let hashes = raw_str_hashes(&bytes[i..]).unwrap_or(0);
                        state = State::RawStr { hashes };
                        out.resize(out.len() + 2 + hashes, b' ');
                        i += 2 + hashes;
                    } else if b == b'b'
                        && !prev_is_ident(&out)
                        && i + 1 < bytes.len()
                        && bytes[i + 1] == b'"'
                    {
                        out.extend_from_slice(b" \"");
                        state = State::Str;
                        i += 2;
                    } else if b == b'\'' && char_literal_len(&bytes[i..]).is_some() {
                        state = State::Char;
                        out.push(b'\'');
                        i += 1;
                    } else {
                        out.push(b);
                        i += 1;
                    }
                }
                State::LineComment => {
                    out.push(b' ');
                    i += 1;
                }
                State::BlockComment { depth } => {
                    if b == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        out.extend_from_slice(b"  ");
                        i += 2;
                        if depth == 1 {
                            state = State::Code;
                        } else {
                            state = State::BlockComment { depth: depth - 1 };
                        }
                    } else if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        out.extend_from_slice(b"  ");
                        i += 2;
                        state = State::BlockComment { depth: depth + 1 };
                    } else {
                        out.push(b' ');
                        i += 1;
                    }
                }
                State::Str => {
                    if b == b'\\' && i + 1 < bytes.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                        // an escaped newline keeps the string open; restore
                        // the line structure the two-space push just broke
                        if bytes[i - 1] == b'\n' {
                            let len = out.len();
                            out[len - 1] = b'\n';
                        }
                    } else if b == b'"' {
                        out.push(b'"');
                        state = State::Code;
                        i += 1;
                    } else {
                        out.push(b' ');
                        i += 1;
                    }
                }
                State::RawStr { hashes } => {
                    if b == b'"' && closes_raw(&bytes[i..], hashes) {
                        out.resize(out.len() + 1 + hashes, b' ');
                        i += 1 + hashes;
                        state = State::Code;
                    } else {
                        out.push(b' ');
                        i += 1;
                    }
                }
                State::Char => {
                    if b == b'\\' && i + 1 < bytes.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b == b'\'' {
                        out.push(b'\'');
                        state = State::Code;
                        i += 1;
                    } else {
                        out.push(b' ');
                        i += 1;
                    }
                }
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    /// Whether the last emitted byte continues an identifier (so `r` in
    /// `for` or `attr` is not the start of a raw string).
    fn prev_is_ident(out: &[u8]) -> bool {
        out.last()
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
    }

    /// If `bytes` starts a raw string literal (`r"`, `r#"`, …), returns
    /// the number of `#`s.
    fn raw_str_hashes(bytes: &[u8]) -> Option<usize> {
        if bytes.first() != Some(&b'r') {
            return None;
        }
        let mut h = 0;
        while bytes.get(1 + h) == Some(&b'#') {
            h += 1;
        }
        (bytes.get(1 + h) == Some(&b'"')).then_some(h)
    }

    /// Whether a `"` at the start of `bytes` closes a raw string opened
    /// with `hashes` hashes.
    fn closes_raw(bytes: &[u8], hashes: usize) -> bool {
        (1..=hashes).all(|j| bytes.get(j) == Some(&b'#'))
    }

    /// Distinguishes a char literal from a lifetime: returns the
    /// literal's length if `bytes` (starting at `'`) opens a char
    /// literal.
    fn char_literal_len(bytes: &[u8]) -> Option<usize> {
        if bytes.len() < 3 {
            return None;
        }
        if bytes[1] == b'\\' {
            let limit = bytes.len().min(12);
            return (2..limit).find(|&j| bytes[j] == b'\'').map(|j| j + 1);
        }
        let limit = bytes.len().min(6);
        let close = (2..limit).find(|&j| bytes[j] == b'\'')?;
        let inner = &bytes[1..close];
        // v1 bugfix applied to the oracle: an unescaped char literal holds
        // exactly one scalar. The shipped v1 accepted any short run, so
        // `<'a, 'b>` paired two lifetimes into a bogus literal — the one
        // known case where v2 is deliberately better, normalized here so
        // the oracle checks the intended (not the buggy) v1 semantics.
        let one_char = std::str::from_utf8(inner).is_ok_and(|s| s.chars().count() == 1);
        if !one_char {
            return None;
        }
        Some(close + 1)
    }
}

/// Building blocks of the generated token soups. Each snippet is a short,
/// self-contained fragment; soups concatenate them with random
/// separators, so literals, comments, and operators collide in arbitrary
/// orders.
const SNIPPETS: &[&str] = &[
    "let x = 1;",
    "fn f(a: u32) -> u32 { a + 1 }",
    "// line comment with unwrap() inside",
    "/// doc comment",
    "//// divider comment",
    "//! inner doc",
    "/* block comment */",
    "/* nested /* inner */ done */",
    "\"plain string\"",
    "\"escaped \\\" quote\"",
    "\"two\\nlines\"",
    "\"string with // no comment\"",
    "\"multi\nline\"",
    "r\"raw string\"",
    "r#\"raw with # and \" inside\"#",
    "b\"byte string\"",
    "'x'",
    "'\\n'",
    "'\\u{1F600}'",
    "b'q'",
    "<'a, 'static>",
    "&'a str",
    "1.5e3 + 0x1f - 0b101",
    "1..2",
    "v[i % n]",
    "m.insert(k, v);",
    "#[inline]",
    "x == 0.5",
    "a::<B>() => c -> d",
    "let pi_approx = 3.14159;",
    "/* comment with \" quote and 'tick */",
    "match t { _ => 0 }",
];

/// Separators between snippets. The empty separator forces adjacent
/// fragments to collide lexically.
const SEPARATORS: &[&str] = &[" ", "\n", "\t", "", " \n "];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lexer_mask_matches_v1_mask(
        picks in proptest::collection::vec((0usize..SNIPPETS.len(), 0usize..SEPARATORS.len()), 0..40)
    ) {
        let mut soup = String::new();
        for (s, sep) in &picks {
            soup.push_str(SNIPPETS[*s]);
            soup.push_str(SEPARATORS[*sep]);
        }
        let old = reference::mask(&soup);
        let new = ft_lint::lexer::mask_text(&soup);
        prop_assert_eq!(
            &old, &new,
            "mask divergence on soup {:?}\n  v1: {:?}\n  v2: {:?}",
            soup, old, new
        );
    }
}

#[test]
fn masks_agree_on_own_sources() {
    // the strongest fixed corpus we have: every source file of this crate
    for f in [
        "lexer.rs",
        "scope.rs",
        "rules.rs",
        "allow.rs",
        "report.rs",
        "lib.rs",
    ] {
        let path = format!("{}/src/{}", env!("CARGO_MANIFEST_DIR"), f);
        let src = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            reference::mask(&src),
            ft_lint::lexer::mask_text(&src),
            "divergence on {path}"
        );
    }
}
