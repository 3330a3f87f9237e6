//! Differential oracles for the max-min rate allocator.
//!
//! `max_min_rates` fills on flat per-slot arrays. The first oracle below
//! is the `BTreeMap` allocator it replaced, kept as the reference: one map
//! entry per directed link, the bottleneck found by a full ascending scan
//! with a strict `<`, and the bottleneck's flows frozen in flow order.
//! Both must produce the same rate bits on every path set. Equal fair
//! shares are common here, and which link wins them decides whether the
//! other link's share is recomputed from already-charged capacity, which
//! can move it by an ulp — so a change to the tie-break shows up as a bit
//! difference long before it shows in an aggregate.
//!
//! The `BTreeMap` oracle loops forever on a path that repeats a link (its
//! per-link count wraps), so the paths generated for it cross each link at
//! most once.
//!
//! The second oracle is `max_min_rates` itself: the incremental `MaxMin`
//! is driven through random add / remove / re-route / park sequences and,
//! after every step, must give each flow the rate bits a one-shot solve
//! of the current path set gives it.

use ft_control::{EcmpRoutes, KspRoutes, ServerPath};
use ft_core::{FlatTree, FlatTreeConfig, Mode};
use ft_graph::{EdgeId, NodeId};
use ft_sim::{max_min_rates, DirectedLink, MaxMin};
use ft_topo::{fat_tree, Network};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The `BTreeMap` progressive-filling allocator (the reference).
fn oracle_rates(paths: &[Vec<DirectedLink>], capacity: f64) -> Vec<f64> {
    let n = paths.len();
    let mut rate = vec![f64::INFINITY; n];
    let mut link_flows: BTreeMap<DirectedLink, Vec<usize>> = BTreeMap::new();
    for (f, path) in paths.iter().enumerate() {
        for &dl in path {
            link_flows.entry(dl).or_default().push(f);
        }
    }
    let mut remaining_cap: BTreeMap<DirectedLink, f64> =
        link_flows.keys().map(|&l| (l, capacity)).collect();
    let mut frozen = vec![false; n];
    let mut active_on_link: BTreeMap<DirectedLink, usize> =
        link_flows.iter().map(|(&l, fs)| (l, fs.len())).collect();
    loop {
        let mut bottleneck: Option<(DirectedLink, f64)> = None;
        for (&l, &cnt) in &active_on_link {
            if cnt == 0 {
                continue;
            }
            let share = remaining_cap[&l] / cnt as f64;
            if bottleneck.is_none_or(|(_, s)| share < s) {
                bottleneck = Some((l, share));
            }
        }
        let Some((link, share)) = bottleneck else {
            break;
        };
        let flows: Vec<usize> = link_flows[&link]
            .iter()
            .copied()
            .filter(|&f| !frozen[f])
            .collect();
        for f in flows {
            frozen[f] = true;
            rate[f] = share;
            for &dl in &paths[f] {
                if let Some(cap) = remaining_cap.get_mut(&dl) {
                    *cap = (*cap - share).max(0.0);
                }
                if let Some(cnt) = active_on_link.get_mut(&dl) {
                    *cnt -= 1;
                }
            }
        }
    }
    rate
}

/// Asserts bit equality of every rate, naming the first differing flow.
fn assert_same_bits(paths: &[Vec<DirectedLink>], capacity: f64, what: &str) {
    let got = max_min_rates(paths, capacity);
    let want = oracle_rates(paths, capacity);
    assert_eq!(got.len(), want.len(), "{what}: rate count");
    for (f, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: flow {f} rate {g} vs oracle {w} (path {:?})",
            paths[f]
        );
    }
}

/// Path sets biased toward ties: up to 24 flows over at most 3 edges
/// (6 link directions), with 1–4 links each, so many links carry the same
/// number of flows and equal fair shares meet in the bottleneck scan.
/// Each path crosses a link at most once.
fn arb_tied_paths() -> impl Strategy<Value = Vec<Vec<DirectedLink>>> {
    (1u32..4).prop_flat_map(|edges| {
        proptest::collection::vec(
            proptest::collection::vec((0..edges, any::<bool>()), 0..5),
            1..25,
        )
        .prop_map(|flows| {
            flows
                .into_iter()
                .map(|links| {
                    let mut seen = BTreeSet::new();
                    links
                        .into_iter()
                        .map(|(e, forward)| DirectedLink {
                            edge: EdgeId(e),
                            forward,
                        })
                        .filter(|dl| seen.insert(*dl))
                        .collect()
                })
                .collect()
        })
    })
}

/// Wider path sets: up to 16 flows over up to 12 sparse edge ids.
fn arb_wide_paths() -> impl Strategy<Value = Vec<Vec<DirectedLink>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..12, any::<bool>()), 1..6),
        1..17,
    )
    .prop_map(|flows| {
        flows
            .into_iter()
            .map(|links| {
                let mut seen = BTreeSet::new();
                links
                    .into_iter()
                    .map(|(e, forward)| DirectedLink {
                        edge: EdgeId(3 * e + 1),
                        forward,
                    })
                    .filter(|dl| seen.insert(*dl))
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn tied_path_sets_match_oracle_bits(paths in arb_tied_paths(), cap in 0usize..4) {
        let capacity = [1.0, 0.1, 3.0, 10.0 / 3.0][cap];
        let got = max_min_rates(&paths, capacity);
        let want = oracle_rates(&paths, capacity);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn wide_path_sets_match_oracle_bits(paths in arb_wide_paths(), capacity in 0.25..4.0f64) {
        let got = max_min_rates(&paths, capacity);
        let want = oracle_rates(&paths, capacity);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}

/// Directed links of a switch path, oriented as the DES orients them.
fn directed(p: &ServerPath) -> Vec<DirectedLink> {
    p.edges
        .iter()
        .zip(p.switches.windows(2))
        .map(|(&edge, w)| DirectedLink {
            edge,
            forward: w[0].0 < w[1].0,
        })
        .collect()
}

/// Switch pairs of a deterministic server workload: every server talks to
/// the servers 1, 5 and 17 positions ahead of it (mod 64), resolved to
/// attachment switches.
fn switch_pairs(net: &Network) -> Vec<(NodeId, NodeId)> {
    let servers: Vec<NodeId> = net.servers().take(64).collect();
    let mut pairs = Vec::new();
    for (i, &s) in servers.iter().enumerate() {
        for off in [1, 5, 17] {
            let d = servers[(i + off) % servers.len()];
            pairs.push((net.attachment(s), net.attachment(d)));
        }
    }
    pairs
}

/// Compares the allocators on growing prefixes of the workload's paths
/// (the DES re-solves on every change of the active set).
fn check_router(
    name: &str,
    pairs: &[(NodeId, NodeId)],
    route: impl Fn(NodeId, NodeId, u64) -> Option<ServerPath>,
) {
    let paths: Vec<Vec<DirectedLink>> = pairs
        .iter()
        .enumerate()
        .map(|(h, &(a, b))| route(a, b, h as u64).map_or_else(Vec::new, |p| directed(&p)))
        .collect();
    assert!(paths.iter().filter(|p| !p.is_empty()).count() > pairs.len() / 2);
    for n in (1..=paths.len()).step_by(7).chain([paths.len()]) {
        assert_same_bits(&paths[..n], 1.0, &format!("{name}, first {n} flows"));
    }
    assert_same_bits(&paths, 2.5, &format!("{name}, capacity 2.5"));
}

#[test]
fn fat_tree_k8_router_paths_match_oracle_bits() {
    let net = fat_tree(8).unwrap();
    let view = net.switch_view();
    let pairs = switch_pairs(&net);
    let ecmp = EcmpRoutes::compute_on(&view).unwrap();
    check_router("fat-tree k=8 ECMP", &pairs, |a, b, h| ecmp.path(a, b, h));
    let ksp = KspRoutes::new_on(&view, 8);
    check_router("fat-tree k=8 KSP", &pairs, |a, b, h| ksp.path(a, b, h));
}

#[test]
fn flat_tree_k8_global_rg_router_paths_match_oracle_bits() {
    let cfg = FlatTreeConfig::for_fat_tree_k(8).unwrap();
    let net = FlatTree::new(cfg)
        .unwrap()
        .materialize(&Mode::GlobalRandom)
        .unwrap();
    let view = net.switch_view();
    let pairs = switch_pairs(&net);
    let ecmp = EcmpRoutes::compute_on(&view).unwrap();
    check_router("flat-tree k=8 global-RG ECMP", &pairs, |a, b, h| {
        ecmp.path(a, b, h)
    });
    let ksp = KspRoutes::new_on(&view, 8);
    check_router("flat-tree k=8 global-RG KSP", &pairs, |a, b, h| {
        ksp.path(a, b, h)
    });
}

/// One change to the incremental allocator's flow set. Flow picks are
/// taken modulo the current flow count; a change that needs a flow when
/// there is none adds one instead.
#[derive(Clone, Debug)]
enum Change {
    Add(Option<Vec<DirectedLink>>),
    Remove(usize),
    Reroute(usize, Option<Vec<DirectedLink>>),
    /// Re-route onto the links the flow already crosses.
    Same(usize),
    Park(usize),
}

/// Paths for the sequences: each draws its 0–4 links (repeats allowed,
/// empty = same-switch) from one of `groups` disjoint blocks of `span`
/// edges, so the flows form several link-sharing components; with
/// `giant`, one path in four draws from every block and merges them.
fn arb_seq_path(
    groups: u32,
    span: u32,
    giant: bool,
) -> impl Strategy<Value = Option<Vec<DirectedLink>>> {
    (
        0..groups,
        0u32..4,
        0u32..8,
        proptest::collection::vec((0..groups * span, any::<bool>()), 0..5),
    )
        .prop_map(move |(group, spread, park, links)| {
            let all = giant && spread == 0;
            let path = links
                .into_iter()
                .map(|(e, forward)| DirectedLink {
                    edge: EdgeId(if all { e } else { group * span + e % span }),
                    forward,
                })
                .collect();
            (park != 0).then_some(path)
        })
}

/// Steps of one to four changes each, over a random block layout.
fn arb_steps() -> impl Strategy<Value = Vec<Vec<Change>>> {
    (1u32..5, 1u32..4, any::<bool>()).prop_flat_map(|(groups, span, giant)| {
        let change = (0u32..8, any::<usize>(), arb_seq_path(groups, span, giant)).prop_map(
            |(kind, pick, path)| match kind {
                0..=2 => Change::Add(path),
                3 => Change::Remove(pick),
                4 | 5 => Change::Reroute(pick, path),
                6 => Change::Same(pick),
                _ => Change::Park(pick),
            },
        );
        proptest::collection::vec(proptest::collection::vec(change, 1..5), 1..40)
    })
}

/// Applies `change` to the allocator and to the model path list alike.
fn apply(alloc: &mut MaxMin, model: &mut Vec<Option<Vec<DirectedLink>>>, change: Change) {
    let n = model.len();
    match change {
        Change::Add(p) => {
            alloc.push(p.clone());
            model.push(p);
        }
        _ if n == 0 => {
            alloc.push(None);
            model.push(None);
        }
        Change::Remove(f) => {
            alloc.swap_remove(f % n);
            model.swap_remove(f % n);
        }
        Change::Reroute(f, p) => {
            alloc.set_path(f % n, p.clone());
            model[f % n] = p;
        }
        Change::Same(f) => {
            let p = model[f % n].clone();
            alloc.set_path(f % n, p);
        }
        Change::Park(f) => {
            alloc.set_path(f % n, None);
            model[f % n] = None;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn incremental_matches_one_shot_bits(steps in arb_steps(), cap in 0usize..4) {
        let capacity = [1.0, 0.1, 3.0, 10.0 / 3.0][cap];
        let mut alloc = MaxMin::new(capacity);
        let mut model: Vec<Option<Vec<DirectedLink>>> = Vec::new();
        for (step, changes) in steps.into_iter().enumerate() {
            for change in changes {
                apply(&mut alloc, &mut model, change);
            }
            alloc.solve();
            let paths: Vec<Vec<DirectedLink>> =
                model.iter().map(|p| p.clone().unwrap_or_default()).collect();
            let want = max_min_rates(&paths, capacity);
            prop_assert_eq!(alloc.len(), model.len());
            for (f, (p, w)) in model.iter().zip(&want).enumerate() {
                let w = if p.is_some() { *w } else { 0.0 };
                prop_assert_eq!(alloc.path(f), p.as_deref());
                prop_assert_eq!(
                    alloc.rates()[f].to_bits(),
                    w.to_bits(),
                    "step {}, flow {}: {} vs one-shot {} (paths {:?})",
                    step,
                    f,
                    alloc.rates()[f],
                    w,
                    model
                );
            }
        }
    }
}
