//! RF rectenna: antenna plus rectifier with power-dependent conversion
//! efficiency.

use crate::kind::HarvesterKind;
use crate::thevenin::Thevenin;
use crate::transducer::Transducer;
use mseh_env::EnvConditions;
use mseh_units::{Amps, Ohms, Volts, Watts};

/// An RF energy-harvesting rectenna.
///
/// The defining nonlinearity of RF harvesting is the rectifier's
/// efficiency collapse at low input power (diode threshold): conversion
/// efficiency rises from near zero below the sensitivity floor toward a
/// peak efficiency at strong input. The model uses a smooth logistic in
/// log-power between those limits, matching published rectenna curves.
///
/// # Examples
///
/// ```
/// use mseh_harvesters::{Rectenna, Transducer};
/// use mseh_env::EnvConditions;
/// use mseh_units::{Seconds, Watts};
///
/// let rf = Rectenna::rectenna_915mhz();
/// let mut env = EnvConditions::quiescent(Seconds::ZERO);
/// env.rf_incident = Watts::from_micro(100.0);
/// assert!(rf.mpp(&env).power().as_micro() > 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rectenna {
    name: String,
    /// Peak rectification efficiency at strong input.
    peak_eta: f64,
    /// Incident power at which efficiency reaches half its peak.
    half_power: Watts,
    /// Logistic steepness in decades of input power.
    steepness: f64,
    /// Output-side internal resistance.
    r_int: Ohms,
}

impl Rectenna {
    /// Creates a rectenna model.
    ///
    /// # Panics
    ///
    /// Panics if `peak_eta` is outside `(0, 1]` or the other parameters are
    /// non-positive.
    pub fn new(
        name: impl Into<String>,
        peak_eta: f64,
        half_power: Watts,
        steepness: f64,
        r_int: Ohms,
    ) -> Self {
        assert!(
            peak_eta > 0.0 && peak_eta <= 1.0,
            "peak efficiency must be in (0, 1]"
        );
        assert!(
            half_power.value() > 0.0,
            "half-power point must be positive"
        );
        assert!(
            steepness > 0.0 && r_int.value() > 0.0,
            "parameters must be positive"
        );
        Self {
            name: name.into(),
            peak_eta,
            half_power,
            steepness,
            r_int,
        }
    }

    /// A 915 MHz rectenna of the class in the Cymbet/Maxim evaluation kits:
    /// 55 % peak efficiency, half-efficiency at 10 µW incident.
    pub fn rectenna_915mhz() -> Self {
        Self::new(
            "915 MHz rectenna",
            0.55,
            Watts::from_micro(10.0),
            1.2,
            Ohms::from_kilo(1.0),
        )
    }

    /// Rectification efficiency at incident power `p_in`.
    pub fn efficiency(&self, p_in: Watts) -> f64 {
        if p_in.value() <= 0.0 {
            return 0.0;
        }
        let decades = (p_in.value() / self.half_power.value()).log10();
        self.peak_eta / (1.0 + (-self.steepness * decades * core::f64::consts::LN_10).exp())
    }

    /// Harvested DC power available at incident power `p_in`.
    pub fn harvested(&self, p_in: Watts) -> Watts {
        p_in * self.efficiency(p_in)
    }

    fn source(&self, env: &EnvConditions) -> Thevenin {
        Thevenin::from_max_power(self.harvested(env.rf_incident), self.r_int)
    }
}

impl Transducer for Rectenna {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> HarvesterKind {
        HarvesterKind::RfRectenna
    }

    fn current_at(&self, v: Volts, env: &EnvConditions) -> Amps {
        self.source(env).current_at(v)
    }

    fn open_circuit_voltage(&self, env: &EnvConditions) -> Volts {
        self.source(env).voc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_units::Seconds;

    fn env(rf_uw: f64) -> EnvConditions {
        let mut e = EnvConditions::quiescent(Seconds::ZERO);
        e.rf_incident = Watts::from_micro(rf_uw);
        e
    }

    #[test]
    fn efficiency_sigmoid_shape() {
        let r = Rectenna::rectenna_915mhz();
        // Half the peak at the half-power point.
        let at_half = r.efficiency(Watts::from_micro(10.0));
        assert!((at_half - 0.275).abs() < 1e-9, "{at_half}");
        // Near peak at strong input.
        assert!(r.efficiency(Watts::from_milli(10.0)) > 0.5);
        // Collapsed at nanowatt input.
        assert!(r.efficiency(Watts::from_nano(10.0)) < 0.02);
        assert_eq!(r.efficiency(Watts::ZERO), 0.0);
    }

    #[test]
    fn efficiency_monotone_in_power() {
        let r = Rectenna::rectenna_915mhz();
        let mut prev = 0.0;
        for exp in -9..-1 {
            let eta = r.efficiency(Watts::new(10f64.powi(exp)));
            assert!(eta >= prev);
            prev = eta;
        }
    }

    #[test]
    fn harvested_power_reaches_load() {
        let r = Rectenna::rectenna_915mhz();
        let e = env(100.0);
        let expected = r.harvested(Watts::from_micro(100.0));
        let mpp = r.mpp(&e);
        assert!(
            (mpp.power() - expected).abs().value() < 1e-6 * expected.value(),
            "{} vs {expected}",
            mpp.power()
        );
    }

    #[test]
    fn no_field_no_output() {
        let r = Rectenna::rectenna_915mhz();
        assert_eq!(r.open_circuit_voltage(&env(0.0)), Volts::ZERO);
    }

    #[test]
    #[should_panic(expected = "peak efficiency")]
    fn rejects_super_unity_efficiency() {
        Rectenna::new("bad", 1.2, Watts::from_micro(1.0), 1.0, Ohms::new(1.0));
    }
}
