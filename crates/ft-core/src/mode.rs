//! Operation modes: per-Pod topology selection (§2.1, §3.4).

use crate::config::FlatTreeError;

/// The topology a single Pod participates in.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum PodMode {
    /// Original Clos connections (all converters default).
    Clos,
    /// Approximated local random graph inside the Pod (Figure 2d): 4-port
    /// local, 6-port default — half the servers move to aggregation
    /// switches, edge–core links appear, Pod-core wiring stays Clos-like.
    LocalRandom,
    /// Part of the approximated global random graph (Figure 2c): 4-port
    /// local, 6-port side/cross by row parity — servers spread over edge,
    /// aggregation *and* core switches, Pods interconnect directly.
    GlobalRandom,
}

/// A whole-network operation mode.
#[derive(Clone, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum Mode {
    /// Every Pod in [`PodMode::Clos`]: reproduces the fat-tree exactly.
    Clos,
    /// Every Pod in [`PodMode::GlobalRandom`].
    GlobalRandom,
    /// Every Pod in [`PodMode::LocalRandom`].
    LocalRandom,
    /// Arbitrary per-Pod assignment (the §3.4 hybrid operation; zones are
    /// contiguous runs of Pods sharing a mode).
    Hybrid(Vec<PodMode>),
}

impl std::str::FromStr for PodMode {
    type Err = FlatTreeError;

    /// Parses a mode name: `clos`, `local-rg` (or `local`), `global-rg`
    /// (or `global`).
    fn from_str(s: &str) -> Result<PodMode, FlatTreeError> {
        match s {
            "clos" => Ok(PodMode::Clos),
            "local-rg" | "local" => Ok(PodMode::LocalRandom),
            "global-rg" | "global" => Ok(PodMode::GlobalRandom),
            other => Err(FlatTreeError::UnknownMode(other.to_string())),
        }
    }
}

/// Every Pod in the one mode.
impl From<PodMode> for Mode {
    fn from(mode: PodMode) -> Mode {
        match mode {
            PodMode::Clos => Mode::Clos,
            PodMode::LocalRandom => Mode::LocalRandom,
            PodMode::GlobalRandom => Mode::GlobalRandom,
        }
    }
}

impl Mode {
    /// Expands to one [`PodMode`] per Pod.
    pub fn pod_modes(&self, pods: usize) -> Result<Vec<PodMode>, FlatTreeError> {
        match self {
            Mode::Clos => Ok(vec![PodMode::Clos; pods]),
            Mode::GlobalRandom => Ok(vec![PodMode::GlobalRandom; pods]),
            Mode::LocalRandom => Ok(vec![PodMode::LocalRandom; pods]),
            Mode::Hybrid(v) => {
                if v.len() != pods {
                    Err(FlatTreeError::BadModeLength {
                        got: v.len(),
                        want: pods,
                    })
                } else {
                    Ok(v.clone())
                }
            }
        }
    }

    /// A two-zone hybrid: the first `global_pods` Pods run global-random,
    /// the rest local-random (the §3.4 evaluation setup).
    pub fn two_zone(pods: usize, global_pods: usize) -> Mode {
        assert!(global_pods <= pods, "zone larger than network");
        let mut v = vec![PodMode::GlobalRandom; global_pods];
        v.extend(vec![PodMode::LocalRandom; pods - global_pods]);
        Mode::Hybrid(v)
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Mode::Clos => "clos".into(),
            Mode::GlobalRandom => "global-rg".into(),
            Mode::LocalRandom => "local-rg".into(),
            Mode::Hybrid(v) => {
                let g = v.iter().filter(|&&m| m == PodMode::GlobalRandom).count();
                let l = v.iter().filter(|&&m| m == PodMode::LocalRandom).count();
                let c = v.len() - g - l;
                format!("hybrid(g={g},l={l},c={c})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_modes_expand() {
        assert_eq!(Mode::Clos.pod_modes(3).unwrap(), vec![PodMode::Clos; 3]);
        assert_eq!(
            Mode::GlobalRandom.pod_modes(2).unwrap(),
            vec![PodMode::GlobalRandom; 2]
        );
    }

    #[test]
    fn hybrid_length_checked() {
        let m = Mode::Hybrid(vec![PodMode::Clos, PodMode::LocalRandom]);
        assert!(m.pod_modes(2).is_ok());
        assert!(matches!(
            m.pod_modes(3),
            Err(FlatTreeError::BadModeLength { got: 2, want: 3 })
        ));
    }

    #[test]
    fn two_zone_layout() {
        let m = Mode::two_zone(5, 2);
        let v = m.pod_modes(5).unwrap();
        assert_eq!(&v[..2], &[PodMode::GlobalRandom; 2]);
        assert_eq!(&v[2..], &[PodMode::LocalRandom; 3]);
    }

    #[test]
    fn pod_mode_names_parse() {
        for (name, mode) in [
            ("clos", PodMode::Clos),
            ("local-rg", PodMode::LocalRandom),
            ("local", PodMode::LocalRandom),
            ("global-rg", PodMode::GlobalRandom),
            ("global", PodMode::GlobalRandom),
        ] {
            assert_eq!(name.parse::<PodMode>(), Ok(mode), "{name}");
        }
        for bad in ["", "Clos", "clos ", "global-RG", "hybrid:cg", "rg"] {
            assert_eq!(
                bad.parse::<PodMode>(),
                Err(FlatTreeError::UnknownMode(bad.to_string()))
            );
        }
        assert_eq!(Mode::from(PodMode::LocalRandom), Mode::LocalRandom);
    }

    #[test]
    fn labels() {
        assert_eq!(Mode::Clos.label(), "clos");
        assert_eq!(Mode::two_zone(4, 1).label(), "hybrid(g=1,l=3,c=0)");
    }

    #[test]
    #[should_panic(expected = "zone larger")]
    fn two_zone_bounds() {
        let _ = Mode::two_zone(2, 3);
    }
}
