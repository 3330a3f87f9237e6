//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of flows, each pinned to a directed path over network links,
//! and unit capacity per link *direction* (full-duplex links, matching the
//! paper's throughput model), progressive filling raises every flow's rate
//! uniformly, freezes the flows crossing the first saturating link at their
//! fair share, removes that capacity, and repeats — the textbook max-min
//! allocation that per-flow-fair transport (TCP-ish) approximates.
//!
//! The filling loop runs on flat arrays indexed by the directed-link
//! *slot* `2·edge + forward` (DESIGN.md §14.2): remaining capacity and a
//! count of unfrozen crossings per slot, a CSR of member flows per slot
//! filled in flow order, and an ascending list of the slots that still
//! carry unfrozen flows. Slot order is [`DirectedLink`]'s `Ord`, so the
//! bottleneck scan meets links in the order a `BTreeMap` keyed by
//! `DirectedLink` would.

use ft_graph::EdgeId;

/// A directed traversal of an undirected link: the edge id plus the
/// direction (`forward` = from the lower node id to the higher).
///
/// The derived `Ord` (edge, then `false < true`) is the order of the
/// allocator's slots `2·edge + forward`: the progressive-filling loop
/// breaks fair-share ties by that order, which never depends on a hash
/// seed (bit-identical rates across runs and `FT_THREADS`, DESIGN.md
/// §10).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DirectedLink {
    /// Underlying undirected edge.
    pub edge: EdgeId,
    /// Traversal direction.
    pub forward: bool,
}

impl DirectedLink {
    /// Dense index of this link direction: `2·edge + forward`, ascending
    /// in the derived `Ord`.
    fn slot(self) -> usize {
        2 * self.edge.index() + usize::from(self.forward)
    }
}

/// Computes max-min fair rates.
///
/// `paths[f]` is the directed-link list of flow `f` (empty = same-switch
/// flow, which gets `f64::INFINITY`). `capacity` is per link direction.
/// Returns one rate per flow.
///
/// A path that lists the same directed link more than once is charged per
/// crossing: each crossing counts toward the link's fair-share divisor and
/// takes the flow's rate from its capacity, so `[a, a]` alone on `a` gets
/// half the capacity.
///
/// Ties between equal fair shares go to the lowest [`DirectedLink`]; the
/// flows on the bottleneck freeze in flow order. Memory is linear in the
/// largest edge id named plus the number of crossings.
///
/// # Panics
/// Panics when `capacity` is not positive.
pub fn max_min_rates(paths: &[Vec<DirectedLink>], capacity: f64) -> Vec<f64> {
    assert!(capacity > 0.0, "capacity must be positive");
    let mut rate = vec![f64::INFINITY; paths.len()];
    let slots = paths
        .iter()
        .flatten()
        .map(|l| l.slot() + 1)
        .max()
        .unwrap_or(0);

    // Unfrozen crossings per slot, then the member flows of each slot as
    // a CSR (`members[start[s]..start[s + 1]]`), filled in flow order.
    let mut unfrozen = vec![0u32; slots];
    for l in paths.iter().flatten() {
        unfrozen[l.slot()] += 1;
    }
    let mut start = Vec::with_capacity(slots + 1);
    let mut total = 0usize;
    start.push(0);
    for &c in &unfrozen {
        total += c as usize;
        start.push(total);
    }
    let mut cursor = start.clone();
    let mut members = vec![0usize; total];
    for (f, path) in paths.iter().enumerate() {
        for l in path {
            let s = l.slot();
            members[cursor[s]] = f;
            cursor[s] += 1;
        }
    }
    let mut remaining = vec![capacity; slots];
    let mut live: Vec<usize> = (0..slots).filter(|&s| unfrozen[s] > 0).collect();
    let mut frozen = vec![false; paths.len()];

    while !live.is_empty() {
        // The bottleneck: the smallest fair share among slots still
        // carrying unfrozen flows; the first (lowest) slot wins ties.
        let mut bottleneck = live[0];
        let mut share = remaining[bottleneck] / f64::from(unfrozen[bottleneck]);
        for &s in &live[1..] {
            let x = remaining[s] / f64::from(unfrozen[s]);
            if x < share {
                (bottleneck, share) = (s, x);
            }
        }
        // Freeze every unfrozen flow on the bottleneck at `share`, and
        // charge that rate to every link those flows cross.
        for &f in &members[start[bottleneck]..start[bottleneck + 1]] {
            if frozen[f] {
                continue;
            }
            frozen[f] = true;
            rate[f] = share;
            for l in &paths[f] {
                let s = l.slot();
                remaining[s] = (remaining[s] - share).max(0.0);
                unfrozen[s] -= 1;
            }
        }
        live.retain(|&s| unfrozen[s] > 0);
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn dl(e: u32, forward: bool) -> DirectedLink {
        DirectedLink {
            edge: EdgeId(e),
            forward,
        }
    }

    #[test]
    fn single_flow_full_capacity() {
        let rates = max_min_rates(&[vec![dl(0, true)]], 1.0);
        assert_eq!(rates, vec![1.0]);
    }

    #[test]
    fn two_flows_share_bottleneck() {
        let rates = max_min_rates(&[vec![dl(0, true)], vec![dl(0, true)]], 1.0);
        assert_eq!(rates, vec![0.5, 0.5]);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let rates = max_min_rates(&[vec![dl(0, true)], vec![dl(0, false)]], 1.0);
        assert_eq!(rates, vec![1.0, 1.0]);
    }

    #[test]
    fn classic_max_min_example() {
        // three links A, B, C; flows: f0 over A+B, f1 over B, f2 over C.
        // B is the bottleneck for f0, f1 → 0.5 each; f2 gets all of C → 1.
        let rates = max_min_rates(
            &[
                vec![dl(0, true), dl(1, true)],
                vec![dl(1, true)],
                vec![dl(2, true)],
            ],
            1.0,
        );
        assert_eq!(rates, vec![0.5, 0.5, 1.0]);
    }

    #[test]
    fn freed_capacity_goes_to_survivors() {
        // f0 over A+B, f1 over A only, f2 over B only.
        // A: f0,f1; B: f0,f2 — both links fair share 0.5 → f0 frozen 0.5,
        // then f1 and f2 each get the remaining 0.5 of their links… wait:
        // after freezing all three at the simultaneous bottleneck 0.5, all
        // rates are 0.5? No: f1 only crosses A. After f0 frozen at 0.5, A
        // has 0.5 left for f1 alone → f1 = 0.5? A initially carries f0 and
        // f1 (share 0.5). Both A and B saturate simultaneously → everyone
        // 0.5. Max-min indeed gives (0.5, 0.5, 0.5).
        let rates = max_min_rates(
            &[
                vec![dl(0, true), dl(1, true)],
                vec![dl(0, true)],
                vec![dl(1, true)],
            ],
            1.0,
        );
        assert_eq!(rates, vec![0.5, 0.5, 0.5]);
    }

    #[test]
    fn unequal_bottlenecks() {
        // f0 shares link0 with f1 and f2 (3 flows → 1/3 each); f3 alone on
        // link1 gets 1.0.
        let rates = max_min_rates(
            &[
                vec![dl(0, true)],
                vec![dl(0, true)],
                vec![dl(0, true)],
                vec![dl(1, true)],
            ],
            1.0,
        );
        for r in &rates[..3] {
            assert!((r - 1.0 / 3.0).abs() < 1e-12);
        }
        assert_eq!(rates[3], 1.0);
    }

    #[test]
    fn long_flow_vs_short_flows() {
        // f0 crosses links 0 and 1; f1 on link 0; f2 on link 1.
        // plus f3 also on link 0. Link0: f0,f1,f3 (share 1/3), link1:
        // f0,f2 (share 1/2). Bottleneck link0 freezes f0,f1,f3 at 1/3;
        // link1 then has 2/3 left for f2 → 2/3.
        let rates = max_min_rates(
            &[
                vec![dl(0, true), dl(1, true)],
                vec![dl(0, true)],
                vec![dl(1, true)],
                vec![dl(0, true)],
            ],
            1.0,
        );
        assert!((rates[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((rates[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((rates[2] - 2.0 / 3.0).abs() < 1e-12);
        assert!((rates[3] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_path_infinite_rate() {
        let rates = max_min_rates(&[vec![], vec![dl(0, true)]], 1.0);
        assert!(rates[0].is_infinite());
        assert_eq!(rates[1], 1.0);
    }

    #[test]
    fn no_flows() {
        assert!(max_min_rates(&[], 1.0).is_empty());
    }

    #[test]
    fn all_paths_empty() {
        // A workload of pure same-switch flows never touches a link: every
        // flow is unconstrained and the filling loop must still terminate.
        let rates = max_min_rates(&[vec![], vec![], vec![]], 1.0);
        assert_eq!(rates.len(), 3);
        assert!(rates.iter().all(|r| r.is_infinite()));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = max_min_rates(&[vec![dl(0, true)]], 0.0);
    }

    #[test]
    fn repeated_link_is_charged_per_crossing() {
        // a path naming one link twice counts two crossings: the link's
        // fair share halves and the flow pays its rate on both
        let rates = max_min_rates(&[vec![dl(0, true), dl(0, true)]], 1.0);
        assert_eq!(rates, vec![0.5]);
        let rates = max_min_rates(&[vec![dl(0, true), dl(0, true)], vec![dl(0, true)]], 1.0);
        assert_eq!(rates, vec![1.0 / 3.0, 1.0 / 3.0]);
    }

    #[test]
    fn slot_order_is_directed_link_order() {
        // the bottleneck scan walks slots upward; that must be the
        // derived `Ord`, which the tie-break is specified against
        let mut links = vec![
            dl(3, true),
            dl(0, true),
            dl(3, false),
            dl(1, false),
            dl(0, false),
        ];
        let mut by_slot = links.clone();
        links.sort();
        by_slot.sort_by_key(|l| l.slot());
        assert_eq!(links, by_slot);
    }

    #[test]
    fn single_saturated_link_shared_by_all_flows() {
        // Every flow crosses the same directed link: one progressive-filling
        // round freezes all of them at exactly 1/n, the link ends exactly
        // full, and no flow is starved or favored.
        let n = 7;
        let paths: Vec<Vec<DirectedLink>> = (0..n).map(|_| vec![dl(0, true)]).collect();
        let rates = max_min_rates(&paths, 1.0);
        assert_eq!(rates.len(), n);
        for r in &rates {
            assert!((r - 1.0 / n as f64).abs() < 1e-12, "unfair share {r}");
        }
        let total: f64 = rates.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-12,
            "link not exactly saturated: {total}"
        );
    }

    #[test]
    fn capacity_scales_rates() {
        let rates = max_min_rates(&[vec![dl(0, true)], vec![dl(0, true)]], 10.0);
        assert_eq!(rates, vec![5.0, 5.0]);
    }

    #[test]
    fn total_on_each_link_within_capacity() {
        // randomized-ish structural check with overlapping paths
        let paths: Vec<Vec<DirectedLink>> = vec![
            vec![dl(0, true), dl(1, true), dl(2, true)],
            vec![dl(0, true), dl(2, false)],
            vec![dl(1, true)],
            vec![dl(2, true), dl(1, false)],
            vec![dl(0, true)],
        ];
        let rates = max_min_rates(&paths, 1.0);
        let mut load: HashMap<DirectedLink, f64> = HashMap::new();
        for (f, p) in paths.iter().enumerate() {
            for &l in p {
                *load.entry(l).or_insert(0.0) += rates[f];
            }
        }
        for (&l, &total) in &load {
            assert!(total <= 1.0 + 1e-9, "link {l:?} overloaded: {total}");
        }
        // and every flow has a bottleneck: some link on its path is full
        for (f, p) in paths.iter().enumerate() {
            let bottlenecked = p.iter().any(|l| load[l] > 1.0 - 1e-9);
            assert!(bottlenecked, "flow {f} rate {} not maximal", rates[f]);
        }
    }
}
