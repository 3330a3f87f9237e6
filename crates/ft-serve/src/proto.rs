//! FTQ/1 — the flat-tree query protocol.
//!
//! A versioned, line-delimited text protocol. One request per line:
//!
//! ```text
//! request  = [ "ftq/1" SP ] verb *( SP key "=" value )
//! verb     = "topo" | "paths" | "throughput" | "plan" | "convert"
//!          | "stats" | "metrics" | "shutdown"
//! reply    = "OK" SP verb *( SP key "=" value )
//!          | "ERR" SP code SP message
//! ```
//!
//! Values never contain whitespace; replies are always a single line so the
//! framing is symmetric in both directions — with one documented exception:
//! `metrics` replies with `OK metrics lines=<n>` followed by exactly `n`
//! Prometheus-style exposition lines (`name{label="v"} value`), so a client
//! reads the header line, then `n` more. The version token is optional
//! on requests (interactive convenience); any other `ftq/<v>` token is
//! rejected with `unsupported-version`.
//!
//! Mode/zone specifications (`mode=`/`to=`) accept the uniform names
//! `clos`, `local-rg` (or `local`), `global-rg` (or `global`), or a per-Pod
//! hybrid layout `hybrid:<letters>` with one letter per Pod: `c` (Clos),
//! `l` (local random), `g` (global random) — e.g. `hybrid:ggggllcc`. The
//! canonical cache key is always the expanded letter string.

use crate::error::ServeError;
use ft_core::{Mode, PodMode};
use ft_metrics::SolverKind;
use ft_workload::{Locality, TrafficPattern};
use std::collections::HashMap;

/// Default FPTAS ε for `throughput` requests that omit `eps=`.
pub const DEFAULT_EPSILON: f64 = 0.1;
/// Default cluster size for `throughput` workloads.
pub const DEFAULT_CLUSTER: usize = 16;
/// Default shutdown drain deadline in milliseconds.
pub const DEFAULT_SHUTDOWN_DEADLINE_MS: u64 = 5_000;

/// A mode/zone specification as written on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModeSpec {
    /// All Pods share one topology.
    Uniform(PodMode),
    /// Explicit per-Pod assignment.
    Hybrid(Vec<PodMode>),
}

impl ModeSpec {
    /// Parses a wire spec (see the module grammar).
    pub fn parse(s: &str) -> Result<ModeSpec, ServeError> {
        if let Ok(mode) = s.parse() {
            return Ok(ModeSpec::Uniform(mode));
        }
        let Some(letters) = s.strip_prefix("hybrid:") else {
            return Err(ServeError::BadMode(format!(
                "unknown mode spec {s:?} (use clos | local-rg | global-rg | hybrid:<c/l/g per pod>)"
            )));
        };
        let mut pods = Vec::with_capacity(letters.len());
        for ch in letters.chars() {
            pods.push(match ch {
                'c' => PodMode::Clos,
                'l' => PodMode::LocalRandom,
                'g' => PodMode::GlobalRandom,
                other => {
                    return Err(ServeError::BadMode(format!(
                        "bad pod letter {other:?} in hybrid spec (use c, l or g)"
                    )))
                }
            });
        }
        if pods.is_empty() {
            return Err(ServeError::BadMode(
                "hybrid spec names zero pods".to_string(),
            ));
        }
        Ok(ModeSpec::Hybrid(pods))
    }

    /// Resolves the spec against a network of `pods` Pods.
    pub fn to_mode(&self, pods: usize) -> Result<Mode, ServeError> {
        match self {
            ModeSpec::Uniform(mode) => Ok((*mode).into()),
            ModeSpec::Hybrid(v) => {
                if v.len() != pods {
                    return Err(ServeError::BadMode(format!(
                        "hybrid spec names {} pods, network has {pods}",
                        v.len()
                    )));
                }
                Ok(Mode::Hybrid(v.clone()))
            }
        }
    }
}

/// The canonical per-Pod letter string for a resolved [`Mode`] — the cache
/// key under which materializations are stored.
pub fn layout_letters(mode: &Mode, pods: usize) -> String {
    let assignment = match mode {
        Mode::Clos => vec![PodMode::Clos; pods],
        Mode::LocalRandom => vec![PodMode::LocalRandom; pods],
        Mode::GlobalRandom => vec![PodMode::GlobalRandom; pods],
        Mode::Hybrid(v) => v.clone(),
    };
    assignment
        .iter()
        .map(|m| match m {
            PodMode::Clos => 'c',
            PodMode::LocalRandom => 'l',
            PodMode::GlobalRandom => 'g',
        })
        .collect()
}

/// A parsed FTQ/1 request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Equipment/topology summary for a (possibly hypothetical) layout.
    Topo {
        /// Layout to summarize; `None` = the service's current layout.
        mode: Option<ModeSpec>,
    },
    /// Average server-pair path lengths (network-wide and intra-Pod).
    Paths {
        /// Layout to evaluate; `None` = the service's current layout.
        mode: Option<ModeSpec>,
    },
    /// FPTAS concurrent-flow throughput λ under a generated workload.
    Throughput {
        /// Layout to evaluate; `None` = the service's current layout.
        mode: Option<ModeSpec>,
        /// FPTAS approximation parameter.
        epsilon: f64,
        /// Traffic pattern within clusters.
        pattern: TrafficPattern,
        /// Servers per cluster.
        cluster: usize,
        /// Placement locality.
        locality: Locality,
        /// Workload placement seed.
        seed: u64,
        /// FPTAS instance: the full commodity list or its symmetry
        /// quotient (batched | aggregated).
        solver: SolverKind,
    },
    /// Converter-diff preview for a conversion (no state change).
    Plan {
        /// Target layout.
        to: ModeSpec,
    },
    /// Apply a conversion via the controller (invalidates the cache).
    Convert {
        /// Target layout.
        to: ModeSpec,
    },
    /// Metrics snapshot (single `key=value` line).
    Stats,
    /// Prometheus-style metrics exposition (the multi-line reply — see the
    /// module grammar for the framing).
    Metrics,
    /// Graceful drain: reject new work, wait for in-flight requests.
    Shutdown {
        /// Drain deadline in milliseconds.
        deadline_ms: u64,
    },
}

impl Request {
    /// The verb this request answers to (used in `OK <verb> …` replies and
    /// metrics keys).
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Topo { .. } => "topo",
            Request::Paths { .. } => "paths",
            Request::Throughput { .. } => "throughput",
            Request::Plan { .. } => "plan",
            Request::Convert { .. } => "convert",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown { .. } => "shutdown",
        }
    }
}

fn split_args(tokens: &[&str]) -> Result<HashMap<String, String>, ServeError> {
    let mut args = HashMap::new();
    for tok in tokens {
        let Some((k, v)) = tok.split_once('=') else {
            return Err(ServeError::BadRequest(format!(
                "expected key=value argument, got {tok:?}"
            )));
        };
        if k.is_empty() || v.is_empty() {
            return Err(ServeError::BadRequest(format!(
                "empty key or value in {tok:?}"
            )));
        }
        if args.insert(k.to_string(), v.to_string()).is_some() {
            return Err(ServeError::BadRequest(format!("duplicate argument {k:?}")));
        }
    }
    Ok(args)
}

fn parse_f64(args: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, ServeError> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ServeError::BadRequest(format!("{key}= must be a number, got {v:?}"))),
    }
}

fn parse_u64(args: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, ServeError> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            ServeError::BadRequest(format!("{key}= must be a non-negative integer, got {v:?}"))
        }),
    }
}

fn parse_mode_arg(
    args: &HashMap<String, String>,
    key: &str,
) -> Result<Option<ModeSpec>, ServeError> {
    args.get(key).map(|s| ModeSpec::parse(s)).transpose()
}

fn reject_unknown(args: &HashMap<String, String>, allowed: &[&str]) -> Result<(), ServeError> {
    for k in args.keys() {
        if !allowed.contains(&k.as_str()) {
            return Err(ServeError::BadRequest(format!(
                "unknown argument {k:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

/// Parses one FTQ/1 request line.
pub fn parse(line: &str) -> Result<Request, ServeError> {
    let mut tokens: Vec<&str> = line.split_whitespace().collect();
    if let Some(first) = tokens.first() {
        let lower = first.to_ascii_lowercase();
        if let Some(rest) = lower.strip_prefix("ftq/") {
            if rest != "1" {
                return Err(ServeError::UnsupportedVersion(first.to_string()));
            }
            tokens.remove(0);
        }
    }
    let Some((&verb, rest)) = tokens.split_first() else {
        return Err(ServeError::BadRequest("empty request line".to_string()));
    };
    let args = split_args(rest)?;
    match verb {
        "topo" => {
            reject_unknown(&args, &["mode"])?;
            Ok(Request::Topo {
                mode: parse_mode_arg(&args, "mode")?,
            })
        }
        "paths" => {
            reject_unknown(&args, &["mode"])?;
            Ok(Request::Paths {
                mode: parse_mode_arg(&args, "mode")?,
            })
        }
        "throughput" => {
            reject_unknown(
                &args,
                &[
                    "mode", "eps", "pattern", "cluster", "locality", "seed", "solver",
                ],
            )?;
            let epsilon = parse_f64(&args, "eps", DEFAULT_EPSILON)?;
            if !(epsilon > 0.0 && epsilon < 0.5) {
                return Err(ServeError::BadRequest(format!(
                    "eps= must be in (0, 0.5), got {epsilon}"
                )));
            }
            let pattern = match args.get("pattern").map(String::as_str) {
                None | Some("all-to-all") => TrafficPattern::AllToAll,
                Some("hotspot") => TrafficPattern::HotSpot,
                Some("permutation") => TrafficPattern::Permutation,
                Some(other) => {
                    return Err(ServeError::BadRequest(format!(
                        "unknown pattern {other:?} (use hotspot | all-to-all | permutation)"
                    )))
                }
            };
            let locality = match args.get("locality").map(String::as_str) {
                None | Some("none") => Locality::None,
                Some("strong") => Locality::Strong,
                Some("weak") => Locality::Weak,
                Some(other) => {
                    return Err(ServeError::BadRequest(format!(
                        "unknown locality {other:?} (use strong | weak | none)"
                    )))
                }
            };
            let solver = match args.get("solver").map(String::as_str) {
                None | Some("batched") => SolverKind::Batched,
                Some("aggregated") => SolverKind::Aggregated,
                Some(other) => {
                    return Err(ServeError::BadRequest(format!(
                        "unknown solver {other:?} (use batched | aggregated)"
                    )))
                }
            };
            let cluster_u64 = parse_u64(&args, "cluster", DEFAULT_CLUSTER as u64)?;
            if cluster_u64 < 2 {
                return Err(ServeError::BadRequest(format!(
                    "cluster= must be at least 2, got {cluster_u64}"
                )));
            }
            Ok(Request::Throughput {
                mode: parse_mode_arg(&args, "mode")?,
                epsilon,
                pattern,
                cluster: usize::try_from(cluster_u64)
                    .map_err(|_| ServeError::BadRequest("cluster= out of range".to_string()))?,
                locality,
                seed: parse_u64(&args, "seed", 1)?,
                solver,
            })
        }
        "plan" | "convert" => {
            reject_unknown(&args, &["to"])?;
            let to = args
                .get("to")
                .ok_or_else(|| ServeError::BadRequest(format!("{verb} requires to=<mode>")))
                .and_then(|s| ModeSpec::parse(s))?;
            if verb == "plan" {
                Ok(Request::Plan { to })
            } else {
                Ok(Request::Convert { to })
            }
        }
        "stats" => {
            reject_unknown(&args, &[])?;
            Ok(Request::Stats)
        }
        "metrics" => {
            reject_unknown(&args, &[])?;
            Ok(Request::Metrics)
        }
        "shutdown" => {
            reject_unknown(&args, &["deadline_ms"])?;
            Ok(Request::Shutdown {
                deadline_ms: parse_u64(&args, "deadline_ms", DEFAULT_SHUTDOWN_DEADLINE_MS)?,
            })
        }
        other => Err(ServeError::UnknownVerb(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse() {
        assert_eq!(parse("stats").unwrap(), Request::Stats);
        assert_eq!(parse("metrics").unwrap(), Request::Metrics);
        assert!(parse("metrics verbose=1").is_err());
        assert_eq!(parse("ftq/1 paths").unwrap(), Request::Paths { mode: None });
        assert_eq!(
            parse("FTQ/1 topo mode=clos").unwrap(),
            Request::Topo {
                mode: Some(ModeSpec::Uniform(PodMode::Clos))
            }
        );
        assert_eq!(
            parse("shutdown deadline_ms=250").unwrap(),
            Request::Shutdown { deadline_ms: 250 }
        );
    }

    #[test]
    fn throughput_defaults_and_overrides() {
        let Request::Throughput {
            epsilon,
            pattern,
            cluster,
            locality,
            seed,
            mode,
            solver,
        } = parse("throughput").unwrap()
        else {
            panic!("wrong variant");
        };
        assert!((epsilon - DEFAULT_EPSILON).abs() < 1e-12);
        assert_eq!(pattern, TrafficPattern::AllToAll);
        assert_eq!(cluster, DEFAULT_CLUSTER);
        assert_eq!(locality, Locality::None);
        assert_eq!(seed, 1);
        assert_eq!(solver, SolverKind::Batched);
        assert!(mode.is_none());

        let r = parse(
            "throughput mode=global-rg eps=0.2 pattern=hotspot cluster=8 locality=weak seed=9 \
             solver=aggregated",
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Throughput {
                mode: Some(ModeSpec::Uniform(PodMode::GlobalRandom)),
                epsilon: 0.2,
                pattern: TrafficPattern::HotSpot,
                cluster: 8,
                locality: Locality::Weak,
                seed: 9,
                solver: SolverKind::Aggregated,
            }
        );
        assert!(matches!(
            parse("throughput solver=simplex"),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn sharded_solver_is_a_bad_request() {
        let Err(ServeError::BadRequest(msg)) = parse("throughput solver=sharded") else {
            panic!("solver=sharded must be rejected as a bad request");
        };
        assert_eq!(
            msg,
            r#"unknown solver "sharded" (use batched | aggregated)"#
        );
    }

    #[test]
    fn hybrid_specs() {
        let spec = ModeSpec::parse("hybrid:gglc").unwrap();
        assert_eq!(
            spec,
            ModeSpec::Hybrid(vec![
                PodMode::GlobalRandom,
                PodMode::GlobalRandom,
                PodMode::LocalRandom,
                PodMode::Clos
            ])
        );
        assert!(spec.to_mode(4).is_ok());
        assert!(matches!(spec.to_mode(8), Err(ServeError::BadMode(_))));
        assert!(ModeSpec::parse("hybrid:").is_err());
        assert!(ModeSpec::parse("hybrid:ggx").is_err());
        assert!(ModeSpec::parse("mesh").is_err());
    }

    #[test]
    fn layout_letters_round_trip() {
        assert_eq!(layout_letters(&Mode::Clos, 4), "cccc");
        assert_eq!(layout_letters(&Mode::two_zone(4, 2), 4), "ggll");
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(matches!(parse(""), Err(ServeError::BadRequest(_))));
        assert!(matches!(
            parse("frobnicate"),
            Err(ServeError::UnknownVerb(_))
        ));
        assert!(matches!(
            parse("ftq/2 stats"),
            Err(ServeError::UnsupportedVersion(_))
        ));
        assert!(matches!(
            parse("paths positional"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            parse("paths mode=clos mode=clos"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            parse("paths nope=1"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            parse("throughput eps=0.9"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            parse("throughput eps=nan"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(parse("convert"), Err(ServeError::BadRequest(_))));
    }
}
