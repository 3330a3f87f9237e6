// Fixture: the clean counterpart of every rule in `../../../violating`.
// `ftctl lint --root crates/ft-lint/fixtures/clean` must exit 0.

/// Rule 1: fallible code returns a Result (or defaults).
pub fn rule_panic(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}

/// Rule 2: epsilon comparison.
pub fn rule_float_eq(x: f64) -> bool {
    x.abs() < 1e-12
}

/// Rule 3: checked conversion.
pub fn rule_cast(i: usize) -> Option<u32> {
    u32::try_from(i).ok()
}

/// Rule 4: arithmetic index with a bounds comment.
pub fn rule_index(v: &[u32], i: usize) -> u32 {
    // bounds: caller guarantees i + 1 < v.len()
    v[i + 1]
}

/// Rule 5: documented public function.
pub fn rule_doc() {}

#[cfg(test)]
mod tests {
    /// Tests are exempt: unwrap freely.
    #[test]
    fn exempt() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
