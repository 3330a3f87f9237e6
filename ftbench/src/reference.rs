//! Correctness gates and the reference outputs they compare against.
//!
//! Every operation a run performs is gated. With a reference for the run's
//! seed (`reference/seed<N>.json`, compiled in), each λ must fall inside
//! the FPTAS certified band of its reference value and each DES completion
//! checksum must equal its reference exactly. Without one, the gates check
//! self-consistency only: a repeated input must reproduce its output bit for
//! bit. A failed gate counts toward the run's `failed` total.

use crate::json::{quote, Json};
use std::collections::BTreeMap;

/// Deterministic outputs of the workloads for one seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    /// λ per solved instance, keyed `<workload>/<instance>`.
    pub lambda: BTreeMap<String, f64>,
    /// DES completion checksum per simulation workload.
    pub checksum: BTreeMap<String, u64>,
}

/// The reference files shipped with the benchmark.
const BUILTIN: [(u64, &str); 2] = [
    (1, include_str!("../reference/seed1.json")),
    (2, include_str!("../reference/seed2.json")),
];

impl Reference {
    /// The compiled-in reference for `seed`, if one was recorded.
    pub fn builtin(seed: u64) -> Result<Option<Reference>, String> {
        BUILTIN
            .iter()
            .find(|(s, _)| *s == seed)
            .map(|(_, text)| Reference::parse(text))
            .transpose()
    }

    /// Parses a reference document. Checksums are strings because they
    /// do not fit a JSON number exactly.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let doc = Json::parse(text).map_err(|e| format!("reference: {e}"))?;
        let section = |key: &str| {
            doc.get(key)
                .and_then(Json::obj)
                .ok_or_else(|| format!("reference: missing object {key:?}"))
        };
        let mut r = Reference::default();
        for (k, v) in section("lambda")? {
            let l = v
                .num()
                .ok_or_else(|| format!("reference: lambda {k:?} is not a number"))?;
            r.lambda.insert(k.clone(), l);
        }
        for (k, v) in section("checksum")? {
            let c = v
                .str()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("reference: checksum {k:?} is not a u64 string"))?;
            r.checksum.insert(k.clone(), c);
        }
        Ok(r)
    }

    /// Renders the document [`Reference::parse`] reads.
    pub fn to_json(&self) -> String {
        let lambdas: Vec<String> = self
            .lambda
            .iter()
            .map(|(k, v)| format!("    {}: {v}", quote(k)))
            .collect();
        let sums: Vec<String> = self
            .checksum
            .iter()
            .map(|(k, v)| format!("    {}: \"{v}\"", quote(k)))
            .collect();
        format!(
            "{{\n  \"lambda\": {{\n{}\n  }},\n  \"checksum\": {{\n{}\n  }}\n}}\n",
            lambdas.join(",\n"),
            sums.join(",\n")
        )
    }

    /// Adds everything in `other`.
    pub fn merge(&mut self, other: Reference) {
        self.lambda.extend(other.lambda);
        self.checksum.extend(other.checksum);
    }
}

/// At most this many gate messages are kept; the count is always exact.
const MAX_MESSAGES: usize = 20;

/// Gates a run's outputs and records them.
#[derive(Debug)]
pub struct Gate<'r> {
    reference: Option<&'r Reference>,
    /// Outputs seen so far: the first value per key.
    pub observed: Reference,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a gate or returned an error.
    pub failed: u64,
    /// The first gate messages.
    pub failures: Vec<String>,
}

impl<'r> Gate<'r> {
    /// A gate comparing against `reference` (self-consistency only when
    /// `None`).
    pub fn new(reference: Option<&'r Reference>) -> Gate<'r> {
        Gate {
            reference,
            observed: Reference::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records one checked operation: `Err` counts as a failure.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failures.len() < MAX_MESSAGES {
                self.failures.push(msg);
            }
        }
    }

    /// Gates one FPTAS λ: finite and positive, converged, bit-identical to
    /// any earlier λ for the same key, and — with a reference — within the
    /// certified band λ/λ_ref ∈ [1−3ε, 1/(1−3ε)].
    pub fn lambda(&mut self, key: &str, lambda: f64, budget_exhausted: bool, epsilon: f64) {
        let outcome = self.lambda_outcome(key, lambda, budget_exhausted, epsilon);
        self.check(outcome);
    }

    fn lambda_outcome(
        &mut self,
        key: &str,
        lambda: f64,
        budget_exhausted: bool,
        epsilon: f64,
    ) -> Result<(), String> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(format!("{key}: lambda {lambda} is not finite and positive"));
        }
        if budget_exhausted {
            return Err(format!(
                "{key}: FPTAS step budget exhausted (lambda {lambda})"
            ));
        }
        match self.observed.lambda.get(key) {
            Some(&seen) if seen.to_bits() != lambda.to_bits() => {
                return Err(format!(
                    "{key}: lambda {lambda} differs from {seen} earlier"
                ));
            }
            Some(_) => {}
            None => {
                self.observed.lambda.insert(key.to_string(), lambda);
            }
        }
        if let Some(&want) = self.reference.and_then(|r| r.lambda.get(key)) {
            let band = 1.0 - 3.0 * epsilon;
            let ratio = lambda / want;
            if !(ratio >= band && ratio <= 1.0 / band) {
                return Err(format!(
                    "{key}: lambda {lambda} outside the certified band of reference {want}"
                ));
            }
        }
        Ok(())
    }

    /// Gates one DES completion checksum: equal to any earlier checksum
    /// for the key and to the reference; `extra` carries the workload's own
    /// conditions (no unfinished flows, conversion re-routes happened).
    pub fn checksum(&mut self, key: &str, checksum: u64, extra: Result<(), String>) {
        let outcome = extra.and_then(|()| {
            let seen = *self
                .observed
                .checksum
                .entry(key.to_string())
                .or_insert(checksum);
            let want = self.reference.and_then(|r| r.checksum.get(key)).copied();
            match (seen == checksum, want) {
                (false, _) => Err(format!(
                    "{key}: checksum {checksum} differs from {seen} earlier"
                )),
                (true, Some(w)) if w != checksum => Err(format!(
                    "{key}: checksum {checksum} differs from reference {w}"
                )),
                _ => Ok(()),
            }
        });
        self.check(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips() {
        let mut r = Reference::default();
        r.lambda.insert("a/0".into(), 0.012345678901234);
        r.checksum.insert("sim".into(), u64::MAX - 7);
        assert_eq!(Reference::parse(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn builtin_references_parse() {
        for seed in [1, 2] {
            let r = Reference::builtin(seed).unwrap().unwrap();
            assert!(!r.lambda.is_empty() && !r.checksum.is_empty());
        }
        assert!(Reference::builtin(3).unwrap().is_none());
    }

    #[test]
    fn lambda_gate_band_and_consistency() {
        let mut r = Reference::default();
        r.lambda.insert("x".into(), 1.0);
        let mut g = Gate::new(Some(&r));
        g.lambda("x", 0.6, false, 0.15); // inside [0.55, 1.818]
        g.lambda("x", 0.6, false, 0.15);
        assert_eq!((g.attempted, g.failed), (2, 0));
        g.lambda("x", 0.61, false, 0.15); // not bit-identical to 0.6
        g.lambda("y", 0.5, true, 0.15); // budget exhausted
        g.lambda("z", f64::NAN, false, 0.15);
        assert_eq!((g.attempted, g.failed), (5, 3));
        let mut g = Gate::new(Some(&r));
        g.lambda("x", 0.5, false, 0.15); // below the band
        assert_eq!(g.failed, 1);
    }

    #[test]
    fn checksum_gate() {
        let mut r = Reference::default();
        r.checksum.insert("s".into(), 7);
        let mut g = Gate::new(Some(&r));
        g.checksum("s", 7, Ok(()));
        g.checksum("s", 8, Ok(()));
        g.checksum("s", 7, Err("unfinished flows".into()));
        assert_eq!((g.attempted, g.failed), (3, 2));
        let mut g = Gate::new(None);
        g.checksum("s", 8, Ok(()));
        assert_eq!(g.failed, 0);
    }
}
