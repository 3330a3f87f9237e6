//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of flows, each pinned to a directed path over network links,
//! and unit capacity per link *direction* (full-duplex links, matching the
//! paper's throughput model), progressive filling raises every flow's rate
//! uniformly, freezes the flows crossing the first saturating link at their
//! fair share, removes that capacity, and repeats — the textbook max-min
//! allocation that per-flow-fair transport (TCP-ish) approximates.
//!
//! [`MaxMin`] keeps the allocation across changes to the flow set
//! (DESIGN.md §14.2). It owns every flow's path and rate and, per
//! directed-link *slot* `2·edge + forward`, the list of flows crossing
//! it. Adding, removing or re-routing a flow marks the slots its old and
//! new paths cross; [`MaxMin::solve`] collects the flows reachable from
//! the marked slots through shared slots — the link-sharing components
//! the changes reach — and runs the filling rounds over those flows only.
//! Components share no slot, so no bottleneck choice or charge in one
//! reaches another, and every other flow's rate already equals what a
//! full re-solve would give it, bit for bit. [`max_min_rates`] is the
//! one-shot entry point over the same loop.
//!
//! The filling rounds run on flat per-slot arrays: remaining capacity and
//! a count of unfrozen crossings, plus an ascending list of the slots that
//! still carry unfrozen flows. Slot order is [`DirectedLink`]'s `Ord`, so
//! the bottleneck scan meets links in the order a `BTreeMap` keyed by
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
/// Ties between equal fair shares go to the lowest [`DirectedLink`].
/// Memory is linear in the largest edge id named plus the number of
/// crossings.
///
/// # Panics
/// Panics when `capacity` is not positive.
pub fn max_min_rates(paths: &[Vec<DirectedLink>], capacity: f64) -> Vec<f64> {
    let mut alloc = MaxMin::new(capacity);
    for p in paths {
        alloc.push(Some(p.clone()));
    }
    alloc.solve();
    alloc.rates
}

/// Max-min fair rates kept across changes to the flow set.
///
/// Flows are numbered `0..len()`. [`MaxMin::push`] appends one,
/// [`MaxMin::swap_remove`] moves the last into the removed one's place,
/// and [`MaxMin::set_path`] re-routes one; a `None` path parks the flow
/// at rate 0. [`MaxMin::rates`] are the rates as of the last
/// [`MaxMin::solve`]: a flow pushed since reads 0 and a re-routed one
/// keeps its old rate until then. After every solve each flow's rate
/// equals, bit for bit, what [`max_min_rates`] gives it on the current
/// paths (parked flows 0).
///
/// Memory is linear in the flow count, the number of crossings and the
/// largest slot named; a solve touches only the flows it re-solves and
/// their slots.
#[derive(Debug)]
pub struct MaxMin {
    capacity: f64,
    /// Each flow's path; `None` = parked.
    paths: Vec<Option<Vec<DirectedLink>>>,
    rates: Vec<f64>,
    /// The flows crossing each slot, once per crossing, in no order.
    crossing: Vec<Vec<usize>>,
    /// Slots whose flows changed since the last solve (may repeat).
    marked: Vec<usize>,
    /// A flow got a path without slots (parked or empty) since the last
    /// solve, so its rate is stale.
    pathless: bool,
    // Solve scratch, reused across solves. Per flow: reached by the walk
    // and not yet frozen (all false between solves). Per slot: seen by
    // the walk, capacity left, unfrozen crossings (all 0 between solves).
    pending: Vec<bool>,
    seen: Vec<bool>,
    remaining: Vec<f64>,
    unfrozen: Vec<u32>,
    /// The slots the walk reaches; then the live slots of the rounds.
    slots: Vec<usize>,
}

impl MaxMin {
    /// An empty allocation with `capacity` per link direction.
    ///
    /// # Panics
    /// Panics when `capacity` is not positive.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        MaxMin {
            capacity,
            paths: Vec::new(),
            rates: Vec::new(),
            crossing: Vec::new(),
            marked: Vec::new(),
            pathless: false,
            pending: Vec::new(),
            seen: Vec::new(),
            remaining: Vec::new(),
            unfrozen: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when there are no flows.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Rate of every flow as of the last [`MaxMin::solve`].
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Path of flow `f`; `None` when it is parked.
    pub fn path(&self, f: usize) -> Option<&[DirectedLink]> {
        self.paths[f].as_deref()
    }

    /// Appends a flow at index `len()`, at rate 0 until the next solve.
    pub fn push(&mut self, path: Option<Vec<DirectedLink>>) {
        self.paths.push(path);
        self.rates.push(0.0);
        self.pending.push(false);
        self.link(self.paths.len() - 1);
    }

    /// Re-routes flow `f` (`None` parks it). Its rate is kept until the
    /// next solve.
    pub fn set_path(&mut self, f: usize, path: Option<Vec<DirectedLink>>) {
        self.unlink(f);
        self.paths[f] = path;
        self.link(f);
    }

    /// Removes flow `f`; the last flow takes its index.
    pub fn swap_remove(&mut self, f: usize) {
        self.unlink(f);
        let last = self.paths.len() - 1;
        if f != last {
            for l in links(&self.paths[last]) {
                let on = &mut self.crossing[l.slot()];
                if let Some(i) = on.iter().position(|&g| g == last) {
                    on[i] = f;
                }
            }
        }
        self.paths.swap_remove(f);
        self.rates.swap_remove(f);
        self.pending.pop();
    }

    /// Adds flow `f` to the crossing list of every slot its path names
    /// and marks them, growing the slot arrays to the largest slot named.
    fn link(&mut self, f: usize) {
        let path = links(&self.paths[f]);
        self.pathless |= path.is_empty();
        for l in path {
            let s = l.slot();
            if s >= self.crossing.len() {
                self.crossing.resize_with(s + 1, Vec::new);
                self.seen.resize(s + 1, false);
                self.remaining.resize(s + 1, 0.0);
                self.unfrozen.resize(s + 1, 0);
            }
            self.crossing[s].push(f);
            self.marked.push(s);
        }
    }

    /// Takes flow `f` off the crossing list of every slot its path names
    /// (one entry per crossing) and marks them.
    fn unlink(&mut self, f: usize) {
        for l in links(&self.paths[f]) {
            let s = l.slot();
            let on = &mut self.crossing[s];
            if let Some(i) = on.iter().position(|&g| g == f) {
                on.swap_remove(i);
            }
            self.marked.push(s);
        }
    }

    /// Re-solves the link-sharing components the changes since the last
    /// solve reach; every other rate stays as it is.
    pub fn solve(&mut self) {
        let MaxMin {
            capacity,
            paths,
            rates,
            crossing,
            marked,
            pathless,
            pending,
            seen,
            remaining,
            unfrozen,
            slots,
        } = self;
        if std::mem::take(pathless) {
            for (r, p) in rates.iter_mut().zip(paths.iter()) {
                match p.as_deref() {
                    None => *r = 0.0,
                    Some([]) => *r = f64::INFINITY,
                    Some(_) => {}
                }
            }
        }

        // The walk: from the marked slots through every flow crossing a
        // reached slot to the slots that flow crosses, counting each
        // reached flow's crossings on the way.
        for s in marked.drain(..) {
            if !seen[s] {
                seen[s] = true;
                slots.push(s);
            }
        }
        let mut next = 0;
        while let Some(&s) = slots.get(next) {
            next += 1;
            remaining[s] = *capacity;
            for &f in &crossing[s] {
                if pending[f] {
                    continue;
                }
                pending[f] = true;
                for l in links(&paths[f]) {
                    let t = l.slot();
                    unfrozen[t] += 1;
                    if !seen[t] {
                        seen[t] = true;
                        slots.push(t);
                    }
                }
            }
        }
        for &s in slots.iter() {
            seen[s] = false;
        }
        slots.sort_unstable();
        slots.retain(|&s| unfrozen[s] > 0);

        // The filling rounds over the reached slots.
        while let Some(&first) = slots.first() {
            // The bottleneck: the smallest fair share among slots still
            // carrying unfrozen flows; the first (lowest) slot wins ties.
            let mut bottleneck = first;
            let mut share = remaining[first] / f64::from(unfrozen[first]);
            for &s in &slots[1..] {
                let x = remaining[s] / f64::from(unfrozen[s]);
                if x < share {
                    (bottleneck, share) = (s, x);
                }
            }
            // Freeze every unfrozen flow on the bottleneck at `share`, and
            // charge that rate to every link those flows cross. Every
            // charge of a round is `share`, so the order flows freeze in
            // does not change a bit.
            for &f in &crossing[bottleneck] {
                if !pending[f] {
                    continue;
                }
                pending[f] = false;
                rates[f] = share;
                for l in links(&paths[f]) {
                    let s = l.slot();
                    remaining[s] = (remaining[s] - share).max(0.0);
                    unfrozen[s] -= 1;
                }
            }
            slots.retain(|&s| unfrozen[s] > 0);
        }
    }
}

/// The links of a path; none for a parked flow.
fn links(path: &Option<Vec<DirectedLink>>) -> &[DirectedLink] {
    path.as_deref().unwrap_or(&[])
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
    fn rates_change_only_at_solve() {
        // a pushed flow reads 0 and a re-routed or parked one keeps its
        // rate until the next solve (the DES arms harvests between them)
        let mut a = MaxMin::new(1.0);
        a.push(Some(vec![dl(0, true)]));
        a.push(Some(vec![dl(0, true)]));
        assert_eq!(a.rates(), [0.0, 0.0]);
        a.solve();
        assert_eq!(a.rates(), [0.5, 0.5]);
        a.set_path(0, Some(vec![dl(1, true)]));
        a.set_path(1, None);
        assert_eq!(a.rates(), [0.5, 0.5]);
        assert_eq!(a.path(1), None);
        a.solve();
        assert_eq!(a.rates(), [1.0, 0.0]);
        a.swap_remove(0);
        a.push(Some(vec![]));
        a.solve();
        assert_eq!(a.rates(), [0.0, f64::INFINITY]);
        assert_eq!(a.len(), 2);
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
