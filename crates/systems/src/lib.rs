//! The seven multi-source harvesting platforms of the survey's Table I,
//! as ready-to-simulate [`mseh_core::PowerUnit`] models.
//!
//! | Id | Platform | Module |
//! |---|---|---|
//! | A | Smart Power Unit (Magno et al., DATE 2012) | [`system_a`] |
//! | B | Plug-and-Play (Weddell et al., SECON 2009) | [`system_b`] |
//! | C | AmbiMax (Park & Chou, SECON 2006) | [`system_c`] |
//! | D | MPWiNode (Morais et al., 2008) | [`system_d`] |
//! | E | Maxim MAX17710 Eval Kit | [`system_e`] |
//! | F | Cymbet EnerChip EVAL-09 | [`system_f`] |
//! | G | MicroStrain EH-Link | [`system_g`] |
//!
//! The [`prometheus`] module additionally models the survey's historical
//! single-source baseline (not a Table-I column) for before/after
//! comparisons.
//!
//! Each model's Table-I row (port counts, swappability, monitoring tier,
//! interface, quiescent current, device kinds, commercial flag) is
//! *computed* by [`mseh_core::classify`] and checked against the paper's
//! values in that module's tests — the table the benchmarks print is a
//! measurement, not a transcription.
//!
//! # Examples
//!
//! ```
//! use mseh_systems::{all_systems, SystemId};
//! use mseh_core::{classify, render_table};
//!
//! let records: Vec<_> = all_systems()
//!     .iter()
//!     .map(|unit| classify(unit))
//!     .collect();
//! let table = render_table(&records);
//! assert!(table.contains("Smart Power Unit"));
//! assert!(table.contains("6 (shared)"));
//! assert_eq!(SystemId::ALL.len(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interfaced;
pub mod parts;
pub mod prometheus;
pub mod resilience;
mod survey;
pub mod system_a;
pub mod system_b;
pub mod system_c;
pub mod system_d;
pub mod system_e;
pub mod system_f;
pub mod system_g;

pub use interfaced::InterfacedStorage;
pub use survey::{site_survey, SurveyReport, SurveyRow};

use mseh_core::PowerUnit;

/// Identifies one of the surveyed platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemId {
    /// Smart Power Unit.
    A,
    /// Plug-and-Play.
    B,
    /// AmbiMax.
    C,
    /// MPWiNode.
    D,
    /// Maxim MAX17710 Eval.
    E,
    /// Cymbet EVAL-09.
    F,
    /// MicroStrain EH-Link.
    G,
}

impl SystemId {
    /// All seven platforms in Table-I order.
    pub const ALL: [SystemId; 7] = [
        SystemId::A,
        SystemId::B,
        SystemId::C,
        SystemId::D,
        SystemId::E,
        SystemId::F,
        SystemId::G,
    ];

    /// Builds the platform model.
    pub fn build(self) -> PowerUnit {
        match self {
            SystemId::A => system_a::build(),
            SystemId::B => system_b::build(),
            SystemId::C => system_c::build(),
            SystemId::D => system_d::build(),
            SystemId::E => system_e::build(),
            SystemId::F => system_f::build(),
            SystemId::G => system_g::build(),
        }
    }

    /// The platform's Table-I display name.
    pub fn display_name(self) -> &'static str {
        match self {
            SystemId::A => system_a::NAME,
            SystemId::B => system_b::NAME,
            SystemId::C => system_c::NAME,
            SystemId::D => system_d::NAME,
            SystemId::E => system_e::NAME,
            SystemId::F => system_f::NAME,
            SystemId::G => system_g::NAME,
        }
    }
}

impl core::fmt::Display for SystemId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "System {self:?} ({})", self.display_name())
    }
}

/// Builds all seven platforms in Table-I order.
pub fn all_systems() -> Vec<PowerUnit> {
    SystemId::ALL.iter().map(|id| id.build()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::classify;
    use mseh_env::Environment;
    use mseh_units::{Seconds, Watts};

    /// Every attached store's state, formatted so equal strings mean
    /// bit-equal values.
    fn store_state(unit: &PowerUnit) -> Vec<String> {
        unit.store_ports()
            .iter()
            .filter_map(|p| p.device())
            .map(|d| {
                format!(
                    "{:?} {:?} {:?} {:?}",
                    d.voltage(),
                    d.stored_energy(),
                    d.losses(),
                    d.capacity()
                )
            })
            .collect()
    }

    #[test]
    fn harvest_then_settle_is_step_for_every_system() {
        let dt = Seconds::new(60.0);
        for id in SystemId::ALL {
            for env in [
                Environment::outdoor_temperate(7),
                Environment::indoor_office(7),
            ] {
                let mut stepped = id.build();
                let mut split = id.build();
                for i in 0..1440u32 {
                    let conditions = env.conditions(Seconds::new(f64::from(i) * 60.0));
                    // Bursts that drain the stores between long idle
                    // stretches that let them recharge.
                    let load = Watts::from_milli(if i % 7 < 2 { 8.0 } else { 0.05 });
                    let a = stepped.step(&conditions, dt, load);
                    let harvest = split.harvest(&conditions, dt);
                    let b = split.settle(harvest, dt, load);
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{id} step {i}");
                }
                assert_eq!(
                    format!("{:?}", stepped.totals()),
                    format!("{:?}", split.totals()),
                    "{id}"
                );
                assert_eq!(store_state(&stepped), store_state(&split), "{id}");
            }
        }
    }

    #[test]
    fn seven_distinct_platforms() {
        let systems = all_systems();
        assert_eq!(systems.len(), 7);
        let mut names: Vec<&str> = systems.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn display_names_match_builds() {
        for id in SystemId::ALL {
            assert_eq!(id.build().name(), id.display_name());
            assert!(id.to_string().contains(id.display_name()));
        }
    }

    #[test]
    fn quiescent_ordering_matches_table_one() {
        // Table I: E (<1) < C (<5) ≈ A (5) < B (7) < F (20) < G (<32) < D (75).
        let q: Vec<f64> = SystemId::ALL
            .iter()
            .map(|id| classify(&id.build()).quiescent.as_micro())
            .collect();
        let (a, b, c, d, e, f, g) = (q[0], q[1], q[2], q[3], q[4], q[5], q[6]);
        assert!(e < c && e < a, "E lowest: {q:?}");
        assert!(a < b, "A < B: {q:?}");
        assert!(b < f, "B < F: {q:?}");
        assert!(f < g, "F < G: {q:?}");
        assert!(g < d, "G < D: {q:?}");
    }

    #[test]
    fn only_commercial_products_are_e_f_g() {
        let commercial: Vec<bool> = SystemId::ALL
            .iter()
            .map(|id| classify(&id.build()).commercial)
            .collect();
        assert_eq!(commercial, [false, false, false, false, true, true, true]);
    }

    #[test]
    fn only_a_and_f_offer_digital_interfaces() {
        let digital: Vec<bool> = SystemId::ALL
            .iter()
            .map(|id| classify(&id.build()).digital_interface)
            .collect();
        assert_eq!(digital, [true, false, false, false, false, true, false]);
    }

    #[test]
    fn only_d_and_g_fix_the_node_to_the_power_unit() {
        let swappable_node: Vec<bool> = SystemId::ALL
            .iter()
            .map(|id| classify(&id.build()).swappable_sensor_node)
            .collect();
        assert_eq!(swappable_node, [true, true, true, false, true, true, false]);
    }
}
