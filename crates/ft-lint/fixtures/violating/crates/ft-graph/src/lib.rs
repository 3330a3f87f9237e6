// Fixture: one violation of every ft-lint rule, in strict-crate library
// position. `ftctl lint --root crates/ft-lint/fixtures/violating`
// must exit non-zero with five findings.

/// Rule 1: panicking constructs in library code.
pub fn rule_panic(v: Option<u32>) -> u32 {
    v.unwrap()
}

/// Rule 2: float equality against a literal.
pub fn rule_float_eq(x: f64) -> bool {
    x == 0.0
}

/// Rule 3: truncating cast on an index.
pub fn rule_cast(i: usize) -> u32 {
    i as u32
}

/// Rule 4 target: the undocumented function below.
pub fn rule_index(v: &[u32], i: usize) -> u32 {
    v[i + 1]
}

pub fn rule_missing_doc() {}
