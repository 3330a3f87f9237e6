//! Flat-tree configuration and validation.

use ft_topo::ClosParams;
use std::fmt;

/// The Pod-core wiring pattern (§2.3, Figure 4).
///
/// Per edge index `j`, each Pod's `h/r` connectors (m blade-B, then n
/// blade-A, then aggregation connectors) are mapped to the group of `h/r`
/// core switches starting at a per-Pod rotation offset, wrapping within the
/// group.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum WiringPattern {
    /// Pattern 1: blade-B blocks packed continuously Pod by Pod — Pod `p`
    /// starts at offset `p·m`.
    Pattern1,
    /// Pattern 2: one extra core switch of advance per Pod — Pod `p` starts
    /// at offset `p·(m+1)`.
    Pattern2,
    /// The paper's §3.2 rule: Pattern 2 when the fat-tree parameter is a
    /// multiple of 4 (where Pattern 1's rotation repeats quickly and
    /// reduces wiring diversity), else Pattern 1. Resolved against the
    /// group size at build time.
    PaperRule,
    /// Pick the pattern that best preserves Property 1 (uniform server
    /// distribution over cores), breaking ties toward more distinct per-Pod
    /// offsets (the paper's diversity argument). The literal Pattern 2
    /// rotation degenerates when `(m+1)` divides the group size — every Pod
    /// lands on the same offset and some cores receive only servers, which
    /// can even disconnect the fabric — so `Auto` is the default for
    /// library-constructed configurations (deviation documented in
    /// DESIGN.md).
    Auto,
}

impl WiringPattern {
    /// Rotation offset of Pod `p` within a core group of size `g` for
    /// blade-B width `m`.
    ///
    /// Returns `None` for `PaperRule` and `Auto`: they are selection
    /// policies, not concrete rotations — resolve them with
    /// [`FlatTreeConfig::resolved_pattern`] first.
    pub fn offset(self, p: usize, m: usize, g: usize) -> Option<usize> {
        debug_assert!(g > 0);
        match self {
            WiringPattern::Pattern1 => Some((p * m) % g),
            WiringPattern::Pattern2 => Some((p * (m + 1)) % g),
            WiringPattern::PaperRule | WiringPattern::Auto => None,
        }
    }

    /// Blade-B coverage statistics of a concrete pattern: how many Pods'
    /// blade-B connectors land on each group position, summarized as
    /// `(max − min, distinct offsets)`.
    ///
    /// Selection policies (`PaperRule`, `Auto`) have no rotation of their
    /// own and report the degenerate `(usize::MAX, 0)`.
    pub fn coverage(self, m: usize, g: usize, pods: usize) -> (usize, usize) {
        let mut counts = vec![0usize; g];
        let mut offsets = std::collections::HashSet::new();
        for p in 0..pods {
            let Some(off) = self.offset(p, m, g) else {
                return (usize::MAX, 0);
            };
            offsets.insert(off);
            for t in 0..m.min(g) {
                // bounds: the % g keeps the slot inside counts (len g)
                counts[(off + t) % g] += 1;
            }
        }
        let max = counts.iter().max().copied().unwrap_or(0);
        let min = counts.iter().min().copied().unwrap_or(0);
        (max - min, offsets.len())
    }
}

/// How adjacent Pods' side connectors are chained (§2.5).
///
/// The paper wires the left blade B of Pod `p+1` to the right blade B of
/// Pod `p` but leaves the boundary unspecified; a ring keeps every Pod
/// symmetric (Pod 0's left blade pairs with the last Pod's right blade).
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum InterPodWiring {
    /// Close the Pod chain into a ring (default; requires ≥ 2 Pods for any
    /// pairing to exist).
    Ring,
    /// Leave the chain open: the first Pod's left blade and the last Pod's
    /// right blade stay unpaired (their 6-port converters cannot take
    /// side/cross configurations).
    Path,
}

/// Errors from flat-tree construction and conversion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlatTreeError {
    /// The underlying Clos parameters are invalid.
    BadClos(String),
    /// `m + n` exceeds what the Pod geometry supports.
    TooManyConverters {
        /// Requested 6-port converters per edge/agg pair.
        m: usize,
        /// Requested 4-port converters per edge/agg pair.
        n: usize,
        /// The binding limit: `min(servers_per_edge, h/r)`.
        limit: usize,
    },
    /// A custom conversion assigned incompatible configurations to a
    /// side-connected converter pair.
    IncompatiblePair {
        /// Flattened 6-port converter index of the offending converter.
        six_index: usize,
    },
    /// A side/cross configuration was requested for a 6-port converter that
    /// has no peer (middle column, or chain boundary under
    /// [`InterPodWiring::Path`]).
    UnpairedSide {
        /// Flattened 6-port converter index.
        six_index: usize,
    },
    /// A per-Pod mode list had the wrong length.
    BadModeLength {
        /// Modes supplied.
        got: usize,
        /// Pods in the network.
        want: usize,
    },
    /// A wiring computation received an unresolved pattern policy
    /// (`PaperRule`/`Auto`) where a concrete rotation was required.
    UnresolvedPattern(WiringPattern),
    /// A mode name other than `clos`, `local-rg`/`local` and
    /// `global-rg`/`global`.
    UnknownMode(String),
    /// A profiling sweep produced no candidate configurations.
    EmptySweep {
        /// The fat-tree parameter being profiled.
        k: usize,
    },
    /// An internal invariant was violated while assembling a network —
    /// indicates a bug in the wiring math, not bad input.
    Internal(String),
}

impl fmt::Display for FlatTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatTreeError::BadClos(msg) => write!(f, "invalid Clos parameters: {msg}"),
            FlatTreeError::TooManyConverters { m, n, limit } => write!(
                f,
                "m + n = {} exceeds the per-pair limit {limit} (m = {m}, n = {n})",
                m + n
            ),
            FlatTreeError::IncompatiblePair { six_index } => write!(
                f,
                "6-port converter {six_index} and its peer have incompatible side configurations"
            ),
            FlatTreeError::UnpairedSide { six_index } => write!(
                f,
                "6-port converter {six_index} has no side peer but was configured side/cross"
            ),
            FlatTreeError::BadModeLength { got, want } => {
                write!(
                    f,
                    "per-Pod mode list has {got} entries, network has {want} Pods"
                )
            }
            FlatTreeError::UnresolvedPattern(p) => {
                write!(
                    f,
                    "wiring pattern {p:?} must be resolved to a concrete rotation first"
                )
            }
            FlatTreeError::UnknownMode(name) => {
                write!(f, "unknown mode {name:?} (use clos | local-rg | global-rg)")
            }
            FlatTreeError::EmptySweep { k } => {
                write!(f, "profiling sweep for k = {k} produced no candidates")
            }
            FlatTreeError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for FlatTreeError {}

/// Full configuration of a flat-tree network.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct FlatTreeConfig {
    /// The underlying Clos geometry (the paper's `d`, `r`, `h`, Pods,
    /// servers per edge switch).
    pub clos: ClosParams,
    /// 6-port converters per edge/aggregation pair — the number of servers
    /// relocatable to *core* switches (§2.4).
    pub m: usize,
    /// 4-port converters per edge/aggregation pair — the number of servers
    /// relocatable to *aggregation* switches.
    pub n: usize,
    /// Pod-core wiring pattern.
    pub wiring: WiringPattern,
    /// Inter-Pod side-connector chaining.
    pub inter_pod: InterPodWiring,
}

impl FlatTreeConfig {
    /// The paper's evaluated configuration for fat-tree parameter `k`
    /// (§3.2): `m = k/8`, `n = 2k/8` (rounded to the closest integer),
    /// pattern per the paper's rule, ring inter-Pod wiring.
    pub fn for_fat_tree_k(k: usize) -> Result<Self, FlatTreeError> {
        let m = round_div(k, 8).max(1);
        let n = round_div(2 * k, 8).max(1);
        Self::for_fat_tree_k_mn(k, m, n)
    }

    /// Fat-tree-based flat-tree with explicit `m`, `n` (used by the §3.2
    /// profiling sweep).
    pub fn for_fat_tree_k_mn(k: usize, m: usize, n: usize) -> Result<Self, FlatTreeError> {
        let clos = ClosParams::fat_tree(k).map_err(|e| FlatTreeError::BadClos(e.to_string()))?;
        let cfg = FlatTreeConfig {
            clos,
            m,
            n,
            wiring: WiringPattern::Auto,
            inter_pod: InterPodWiring::Ring,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks geometric feasibility.
    pub fn validate(&self) -> Result<(), FlatTreeError> {
        self.clos
            .validate()
            .map_err(|e| FlatTreeError::BadClos(e.to_string()))?;
        // Each converter consumes one server slot on the edge switch and
        // one core connector of the edge's group.
        let limit = self.clos.servers_per_edge.min(self.clos.group_size());
        if self.m + self.n > limit {
            return Err(FlatTreeError::TooManyConverters {
                m: self.m,
                n: self.n,
                limit,
            });
        }
        Ok(())
    }

    /// The wiring pattern with selection policies resolved to a concrete
    /// rotation.
    ///
    /// * [`WiringPattern::PaperRule`]: Pattern 2 when k ≡ 0 (mod 4) —
    ///   equivalently when the group size `h/r = k/2` is even — else
    ///   Pattern 1 (§3.2).
    /// * [`WiringPattern::Auto`]: the pattern with the more uniform blade-B
    ///   coverage (Property 1); ties broken by more distinct per-Pod
    ///   offsets, then by the paper's rule.
    pub fn resolved_pattern(&self) -> WiringPattern {
        let g = self.clos.group_size();
        let paper_choice = if g.is_multiple_of(2) {
            WiringPattern::Pattern2
        } else {
            WiringPattern::Pattern1
        };
        match self.wiring {
            WiringPattern::PaperRule => paper_choice,
            WiringPattern::Auto => {
                let (s1, d1) = WiringPattern::Pattern1.coverage(self.m, g, self.clos.pods);
                let (s2, d2) = WiringPattern::Pattern2.coverage(self.m, g, self.clos.pods);
                match (s1.cmp(&s2), d1.cmp(&d2)) {
                    (std::cmp::Ordering::Less, _) => WiringPattern::Pattern1,
                    (std::cmp::Ordering::Greater, _) => WiringPattern::Pattern2,
                    (_, std::cmp::Ordering::Greater) => WiringPattern::Pattern1,
                    (_, std::cmp::Ordering::Less) => WiringPattern::Pattern2,
                    _ => paper_choice,
                }
            }
            p => p,
        }
    }
}

/// `round(a / b)` with half-away-from-zero rounding, as the paper's
/// "rounded to the closest integer if fractional".
pub(crate) fn round_div(a: usize, b: usize) -> usize {
    ((a as f64) / (b as f64)).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mn_values() {
        // k = 8 → m = 1, n = 2; k = 16 → m = 2, n = 4; k = 4 → rounding
        let c8 = FlatTreeConfig::for_fat_tree_k(8).unwrap();
        assert_eq!((c8.m, c8.n), (1, 2));
        let c16 = FlatTreeConfig::for_fat_tree_k(16).unwrap();
        assert_eq!((c16.m, c16.n), (2, 4));
        let c4 = FlatTreeConfig::for_fat_tree_k(4).unwrap();
        assert_eq!((c4.m, c4.n), (1, 1));
        let c6 = FlatTreeConfig::for_fat_tree_k(6).unwrap();
        assert_eq!((c6.m, c6.n), (1, 2));
    }

    #[test]
    fn mn_limit_enforced() {
        // k = 8: limit = k/2 = 4
        assert!(FlatTreeConfig::for_fat_tree_k_mn(8, 2, 2).is_ok());
        let err = FlatTreeConfig::for_fat_tree_k_mn(8, 3, 2).unwrap_err();
        assert!(matches!(
            err,
            FlatTreeError::TooManyConverters { limit: 4, .. }
        ));
    }

    #[test]
    fn paper_rule_resolution() {
        // k = 8 → group size 4 (even) → Pattern 2
        let mut c = FlatTreeConfig::for_fat_tree_k(8).unwrap();
        c.wiring = WiringPattern::PaperRule;
        assert_eq!(c.resolved_pattern(), WiringPattern::Pattern2);
        // k = 6 → group size 3 (odd) → Pattern 1
        let mut c = FlatTreeConfig::for_fat_tree_k(6).unwrap();
        c.wiring = WiringPattern::PaperRule;
        assert_eq!(c.resolved_pattern(), WiringPattern::Pattern1);
        // explicit patterns resolve to themselves
        let mut c2 = c;
        c2.wiring = WiringPattern::Pattern1;
        assert_eq!(c2.resolved_pattern(), WiringPattern::Pattern1);
    }

    #[test]
    fn auto_avoids_degenerate_pattern2() {
        // k = 8, m = 1: Pattern 2's step (m+1 = 2) divides g = 4 → only
        // half the group positions would ever receive blade-B connectors.
        // Auto must fall back to Pattern 1 (a full rotation).
        let c = FlatTreeConfig::for_fat_tree_k(8).unwrap();
        assert_eq!(c.wiring, WiringPattern::Auto);
        assert_eq!(c.resolved_pattern(), WiringPattern::Pattern1);
        // k = 32, m = 4: step 5 is coprime to g = 16 → Pattern 2 wins the
        // diversity tie-break (both are uniform, Pattern 2 has 16 distinct
        // offsets vs Pattern 1's 4).
        let c = FlatTreeConfig::for_fat_tree_k(32).unwrap();
        assert_eq!(c.resolved_pattern(), WiringPattern::Pattern2);
    }

    #[test]
    fn coverage_statistics() {
        // m = 1, g = 4, 8 pods: pattern 1 rotates fully (spread 0, 4
        // offsets), pattern 2 hits only even positions (spread 4, 2
        // offsets)
        assert_eq!(WiringPattern::Pattern1.coverage(1, 4, 8), (0, 4));
        assert_eq!(WiringPattern::Pattern2.coverage(1, 4, 8), (4, 2));
    }

    #[test]
    fn unresolved_offset_is_none() {
        assert_eq!(WiringPattern::Auto.offset(0, 1, 4), None);
        assert_eq!(WiringPattern::PaperRule.offset(2, 1, 4), None);
    }

    #[test]
    fn pattern_offsets() {
        // pattern 1 advances by m, pattern 2 by m+1, both mod g
        assert_eq!(WiringPattern::Pattern1.offset(3, 2, 8), Some(6));
        assert_eq!(WiringPattern::Pattern1.offset(5, 2, 8), Some(2));
        assert_eq!(WiringPattern::Pattern2.offset(3, 2, 8), Some(1));
        assert_eq!(WiringPattern::Pattern2.offset(0, 2, 8), Some(0));
    }

    #[test]
    fn round_div_half_up() {
        assert_eq!(round_div(4, 8), 1); // 0.5 → 1
        assert_eq!(round_div(6, 8), 1); // 0.75 → 1
        assert_eq!(round_div(10, 8), 1); // 1.25 → 1
        assert_eq!(round_div(12, 8), 2); // 1.5 → 2
    }

    #[test]
    fn invalid_clos_propagates() {
        assert!(matches!(
            FlatTreeConfig::for_fat_tree_k(7),
            Err(FlatTreeError::BadClos(_))
        ));
    }

    #[test]
    fn error_display() {
        let e = FlatTreeError::TooManyConverters {
            m: 3,
            n: 2,
            limit: 4,
        };
        assert!(e.to_string().contains("m + n = 5"));
    }
}
