//! The centralized network controller (§2.6).
//!
//! Owns a [`FlatTree`] plus its current converter state, and exposes the
//! operations a data center operator performs:
//!
//! * **convert** to a target [`Mode`] (planning first, then applying),
//! * **organize zones** and convert to the induced hybrid mode,
//! * **query routing** appropriate to the active topology — ECMP in Clos
//!   mode, k-shortest paths otherwise,
//! * **consult the advisor** with traffic measurements.
//!
//! The controller is a state machine over *logical* topologies; pushing
//! configurations to physical converter hardware is represented by the
//! [`ReconfigPlan`]s it returns (realization technology is out of scope,
//! as in the paper).

use crate::plan::{plan_transition, ReconfigPlan};
use crate::routing::{EcmpRoutes, KspRoutes};
use crate::zones::{zones_to_mode, Zone, ZoneError};
use ft_core::{ConverterStates, FlatTree, FlatTreeConfig, FlatTreeError, Mode};
use ft_graph::GraphError;
use ft_topo::Network;

/// Routing appropriate for the active mode.
pub enum ActiveRouting {
    /// ECMP over the Clos equal-cost paths.
    Ecmp(EcmpRoutes),
    /// k-shortest paths (k = 8, following Jellyfish) for random-graph
    /// modes.
    Ksp(KspRoutes),
}

/// Errors surfaced by controller operations.
#[derive(Debug)]
pub enum ControlError {
    /// Underlying flat-tree error.
    FlatTree(FlatTreeError),
    /// Zone layout error.
    Zone(ZoneError),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::FlatTree(e) => write!(f, "{e}"),
            ControlError::Zone(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<FlatTreeError> for ControlError {
    fn from(e: FlatTreeError) -> Self {
        ControlError::FlatTree(e)
    }
}

impl From<ZoneError> for ControlError {
    fn from(e: ZoneError) -> Self {
        ControlError::Zone(e)
    }
}

/// The centralized flat-tree controller.
pub struct Controller {
    ft: FlatTree,
    mode: Mode,
    states: ConverterStates,
    network: Network,
    /// Conversions applied since construction (telemetry).
    conversions: usize,
}

impl Controller {
    /// Boots a controller over a new flat-tree, starting in Clos mode (the
    /// deployment state: a flat-tree is physically built as a Clos network
    /// and converted from there).
    pub fn new(cfg: FlatTreeConfig) -> Result<Self, ControlError> {
        let ft = FlatTree::new(cfg)?;
        let mode = Mode::Clos;
        let states = ft.resolve(&mode)?;
        let network = ft.materialize_states(&states)?;
        Ok(Controller {
            ft,
            mode,
            states,
            network,
            conversions: 0,
        })
    }

    /// The architecture under control.
    pub fn flat_tree(&self) -> &FlatTree {
        &self.ft
    }

    /// The active mode.
    pub fn mode(&self) -> &Mode {
        &self.mode
    }

    /// The active converter states.
    pub fn states(&self) -> &ConverterStates {
        &self.states
    }

    /// The current logical topology.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Conversions applied so far.
    pub fn conversions(&self) -> usize {
        self.conversions
    }

    /// Plans (without applying) the conversion to a target mode.
    pub fn plan(&self, to: &Mode) -> Result<ReconfigPlan, ControlError> {
        let target = self.ft.resolve(to)?;
        Ok(plan_transition(&self.ft, &self.states, &target)?)
    }

    /// Converts to the target mode: plans, applies, re-materializes.
    /// Returns the executed plan.
    pub fn convert(&mut self, to: Mode) -> Result<ReconfigPlan, ControlError> {
        let target = self.ft.resolve(&to)?;
        let plan = plan_transition(&self.ft, &self.states, &target)?;
        self.network = self.ft.materialize(&to)?;
        self.states = target;
        self.mode = to;
        if !plan.is_noop() {
            self.conversions += 1;
        }
        Ok(plan)
    }

    /// Organizes the network into zones and converts to the induced hybrid
    /// mode.
    pub fn organize_zones(&mut self, zones: &[Zone]) -> Result<ReconfigPlan, ControlError> {
        let mode = zones_to_mode(zones, self.ft.config().clos.pods)?;
        self.convert(mode)
    }

    /// Routing for the current topology: ECMP in Clos mode, 8-shortest
    /// paths otherwise (§2.6). Fails only when the fabric has too many
    /// switches for ECMP's `u16` distance rows.
    pub fn routing(&self) -> Result<ActiveRouting, GraphError> {
        Ok(match self.mode {
            Mode::Clos => ActiveRouting::Ecmp(EcmpRoutes::compute(&self.network)?),
            _ => ActiveRouting::Ksp(KspRoutes::new(&self.network, 8)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::PodMode;
    use ft_topo::fat_tree;

    fn controller() -> Controller {
        Controller::new(FlatTreeConfig::for_fat_tree_k(8).unwrap()).unwrap()
    }

    #[test]
    fn boots_in_clos_mode() {
        let c = controller();
        assert_eq!(c.mode(), &Mode::Clos);
        assert_eq!(
            c.network().graph().canonical_edges(),
            fat_tree(8).unwrap().graph().canonical_edges()
        );
        assert_eq!(c.conversions(), 0);
    }

    #[test]
    fn convert_roundtrip_restores_topology() {
        let mut c = controller();
        let before = c.network().graph().canonical_edges();
        let p1 = c.convert(Mode::GlobalRandom).unwrap();
        assert!(!p1.is_noop());
        assert_ne!(c.network().graph().canonical_edges(), before);
        let p2 = c.convert(Mode::Clos).unwrap();
        assert_eq!(c.network().graph().canonical_edges(), before);
        assert_eq!(c.conversions(), 2);
        // the reverse plan mirrors the forward plan
        assert_eq!(p1.links_added, p2.links_removed);
        assert_eq!(p1.links_removed, p2.links_added);
    }

    #[test]
    fn noop_conversion_not_counted() {
        let mut c = controller();
        let p = c.convert(Mode::Clos).unwrap();
        assert!(p.is_noop());
        assert_eq!(c.conversions(), 0);
    }

    #[test]
    fn plan_does_not_mutate() {
        let c = controller();
        let _ = c.plan(&Mode::LocalRandom).unwrap();
        assert_eq!(c.mode(), &Mode::Clos);
    }

    #[test]
    fn organize_zones_applies_hybrid() {
        let mut c = controller();
        let zones = [
            Zone::new("batch", 0..3, PodMode::GlobalRandom),
            Zone::new("web", 3..8, PodMode::LocalRandom),
        ];
        let plan = c.organize_zones(&zones).unwrap();
        assert!(!plan.is_noop());
        match c.mode() {
            Mode::Hybrid(v) => {
                assert_eq!(v[0], PodMode::GlobalRandom);
                assert_eq!(v[7], PodMode::LocalRandom);
            }
            other => panic!("expected hybrid, got {other:?}"),
        }
        c.network().validate().unwrap();
    }

    #[test]
    fn routing_kind_follows_mode() {
        let mut c = controller();
        assert!(matches!(c.routing(), Ok(ActiveRouting::Ecmp(_))));
        c.convert(Mode::GlobalRandom).unwrap();
        assert!(matches!(c.routing(), Ok(ActiveRouting::Ksp(_))));
    }

    #[test]
    fn zone_error_propagates() {
        let mut c = controller();
        let zones = [Zone::new("a", 0..20, PodMode::Clos)];
        assert!(matches!(
            c.organize_zones(&zones),
            Err(ControlError::Zone(_))
        ));
        assert_eq!(c.mode(), &Mode::Clos, "failed op must not change state");
    }
}
