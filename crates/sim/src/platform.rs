//! The [`Platform`] abstraction: anything the simulation kernel can drive.

use mseh_core::{PowerUnit, SmartNetwork, StepReport};
use mseh_env::EnvConditions;
use mseh_node::EnergyStatus;
use mseh_units::{Joules, Seconds, Watts};

/// A complete energy platform the kernel can step: the conventional
/// [`PowerUnit`] and the future-work [`SmartNetwork`] both qualify, so
/// every experiment can run against either architecture unchanged.
pub trait Platform {
    /// The platform's name.
    fn name(&self) -> &str;

    /// Advances one interval, serving `load` at the output rail.
    fn step(&mut self, env: &EnvConditions, dt: Seconds, load: Watts) -> StepReport;

    /// The energy status visible to the node (clamped to the platform's
    /// monitoring capability).
    fn energy_status(&self) -> EnergyStatus;

    /// Actual stored energy across all storage devices.
    fn total_stored_energy(&self) -> Joules;

    /// Total internal storage dissipation (for the conservation audit).
    fn storage_losses(&self) -> Joules;

    /// Total actual storage capacity; a drop between control windows is
    /// reported to observers as a fault firing.
    fn storage_capacity(&self) -> Joules;

    /// Cumulative `(fired, cleared)` fault counts across the platform's
    /// devices (storage, harvesters, converters).
    ///
    /// The runner polls this at control-window edges so injected faults
    /// that fire *and* clear within one window — invisible to the
    /// capacity-drop check — still produce their `FaultFire` /
    /// `FaultClear` event pair. Platforms without fault-injection
    /// wrappers report `(0, 0)`.
    fn fault_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Energy currently stranded by active faults (stored content that
    /// physically exists but cannot be delivered). Zero when no fault
    /// wrapper is active.
    fn stranded_energy(&self) -> Joules {
        Joules::ZERO
    }

    /// The platform's step split into its harvest and settle halves:
    /// `Some(unit)` when [`step`](Self::step) is exactly
    /// [`PowerUnit::harvest`] followed by [`PowerUnit::settle`] on
    /// `unit`.
    ///
    /// Contract: the harvest half depends only on how the platform was
    /// built, the environment and the step widths — never on the load
    /// or the store state. Engines may therefore solve it once on one
    /// driver platform and [`PowerUnit::replay`] it on every
    /// identically built twin. Default: `None`, "cannot split" —
    /// platforms and forwarding wrappers that only implement `step`
    /// keep the per-platform path.
    fn split_step(&mut self) -> Option<&mut PowerUnit> {
        None
    }

    /// Whether this platform's shape matches the fleet engine's
    /// monomorphized dense-lane class (one channel-backed harvester
    /// port, one primary-buffer store, no shared-port fabric), so a
    /// boxed [`crate::FleetGroup`] may opt its members into the batched
    /// struct-of-arrays kernels via [`crate::FleetGroup::with_dense_class`].
    /// Default: `false` — only shapes the lane kernels provably
    /// replicate may opt in.
    fn supports_dense_kernels(&self) -> bool {
        false
    }
}

impl Platform for PowerUnit {
    fn name(&self) -> &str {
        PowerUnit::name(self)
    }

    fn step(&mut self, env: &EnvConditions, dt: Seconds, load: Watts) -> StepReport {
        PowerUnit::step(self, env, dt, load)
    }

    fn energy_status(&self) -> EnergyStatus {
        PowerUnit::energy_status(self)
    }

    fn total_stored_energy(&self) -> Joules {
        PowerUnit::total_stored_energy(self)
    }

    fn storage_losses(&self) -> Joules {
        PowerUnit::storage_losses(self)
    }

    fn storage_capacity(&self) -> Joules {
        PowerUnit::storage_capacity(self)
    }

    fn fault_counts(&self) -> (u64, u64) {
        PowerUnit::fault_counts(self)
    }

    fn stranded_energy(&self) -> Joules {
        PowerUnit::stranded_energy(self)
    }

    fn supports_dense_kernels(&self) -> bool {
        PowerUnit::supports_dense_kernels(self)
    }

    fn split_step(&mut self) -> Option<&mut PowerUnit> {
        Some(self)
    }
}

impl Platform for SmartNetwork {
    fn name(&self) -> &str {
        "smart harvester network"
    }

    fn step(&mut self, env: &EnvConditions, dt: Seconds, load: Watts) -> StepReport {
        SmartNetwork::step(self, env, dt, load)
    }

    fn energy_status(&self) -> EnergyStatus {
        SmartNetwork::energy_status(self)
    }

    fn total_stored_energy(&self) -> Joules {
        SmartNetwork::stored_energy(self)
    }

    fn storage_losses(&self) -> Joules {
        SmartNetwork::storage_losses(self)
    }

    fn storage_capacity(&self) -> Joules {
        SmartNetwork::storage_capacity(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::{PortRequirement, StoreRole};
    use mseh_power::DcDcConverter;
    use mseh_storage::Supercap;
    use mseh_units::Volts;

    fn unit() -> PowerUnit {
        PowerUnit::builder("trait test")
            .store_port(
                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(Supercap::edlc_22f())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build()
    }

    #[test]
    fn power_unit_is_a_platform() {
        let mut p: Box<dyn Platform> = Box::new(unit());
        assert_eq!(p.name(), "trait test");
        let env = EnvConditions::quiescent(Seconds::ZERO);
        let r = p.step(&env, Seconds::new(1.0), Watts::ZERO);
        assert_eq!(r.harvested, Joules::ZERO);
        assert_eq!(p.total_stored_energy(), Joules::ZERO);
    }

    #[test]
    fn smart_network_is_a_platform() {
        let net = SmartNetwork::new(Box::new(DcDcConverter::buck_boost_3v3()));
        let p: Box<dyn Platform> = Box::new(net);
        assert_eq!(p.name(), "smart harvester network");
    }
}
