//! The topology family of the paper's evaluation (§3.1): the fat-tree and
//! the three networks built from its equipment.

use crate::config::{FlatTreeConfig, FlatTreeError};
use crate::flattree::FlatTree;
use crate::mode::PodMode;
use ft_topo::{
    fat_tree, jellyfish_matching_fat_tree, two_stage_random_graph, Network, TopologyError,
    TwoStageParams,
};

/// One topology of the evaluation. Each is built from fat-tree(k)'s
/// equipment: the same switches, ports and servers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topology {
    /// The k-ary fat-tree itself.
    FatTree,
    /// The Jellyfish random graph (Singla et al.).
    RandomGraph,
    /// The two-stage random graph of Figures 6 and 8.
    TwoStage,
    /// The flat-tree with the profiled (m, n) of
    /// [`FlatTreeConfig::for_fat_tree_k`], every Pod in one mode.
    FlatTree(PodMode),
}

impl Topology {
    /// Builds the topology for fat-tree parameter `k`. `seed` drives the
    /// two random graphs; the fat-tree and the flat-tree ignore it.
    ///
    /// # Errors
    /// `k` is not a valid fat-tree parameter, or the flat-tree's (m, n)
    /// does not fit it.
    pub fn build(self, k: usize, seed: u64) -> Result<Network, FlatTreeError> {
        let bad_k = |e: TopologyError| FlatTreeError::BadClos(e.to_string());
        match self {
            Topology::FatTree => fat_tree(k).map_err(bad_k),
            Topology::RandomGraph => jellyfish_matching_fat_tree(k, seed).map_err(bad_k),
            Topology::TwoStage => TwoStageParams::matching_fat_tree(k)
                .and_then(|params| two_stage_random_graph(params, seed))
                .map_err(bad_k),
            Topology::FlatTree(mode) => {
                FlatTree::new(FlatTreeConfig::for_fat_tree_k(k)?)?.materialize(&mode.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_k_is_an_error() {
        for t in [
            Topology::FatTree,
            Topology::RandomGraph,
            Topology::TwoStage,
            Topology::FlatTree(PodMode::GlobalRandom),
        ] {
            assert!(t.build(3, 1).is_err(), "{t:?}");
        }
    }
}
