//! Vibration harvesters: resonant piezoelectric and electromagnetic
//! (inductive) transducers.
//!
//! Both are second-order resonators: they deliver their rated power only
//! when the ambient excitation is close to the design frequency, the
//! behaviour that makes vibration harvesting strongly deployment-specific
//! (the survey's motivation for interface circuits in System B).

use crate::kind::HarvesterKind;
use crate::thevenin::Thevenin;
use crate::transducer::Transducer;
use mseh_env::EnvConditions;
use mseh_units::{Amps, GAccel, Hertz, Ohms, Volts, Watts};

/// A resonant vibration harvester (piezoelectric cantilever or
/// electromagnetic proof-mass generator).
///
/// Power at the rated acceleration and resonance equals `rated_power`;
/// off-resonance response follows a Lorentzian with quality factor `q`,
/// and power scales with the square of acceleration (linear transducer).
/// The rectified electrical side is a Thevenin source whose internal
/// impedance distinguishes piezo (high, tens of kΩ) from electromagnetic
/// (low, tens–hundreds of Ω) devices.
///
/// # Examples
///
/// ```
/// use mseh_harvesters::{VibrationHarvester, Transducer};
/// use mseh_env::EnvConditions;
/// use mseh_units::{Seconds, GAccel, Hertz};
///
/// let piezo = VibrationHarvester::piezo_cantilever();
/// let mut env = EnvConditions::quiescent(Seconds::ZERO);
/// env.vibration_amp = GAccel::new(0.5);
/// env.vibration_freq = Hertz::new(100.0); // at resonance
/// assert!(piezo.mpp(&env).power().as_micro() > 50.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VibrationHarvester {
    name: String,
    kind: HarvesterKind,
    /// Electrical power at `rated_accel` and resonance.
    rated_power: Watts,
    /// Acceleration at which `rated_power` is reached.
    rated_accel: GAccel,
    /// Mechanical resonance frequency.
    resonance: Hertz,
    /// Resonator quality factor (bandwidth = f/Q).
    q: f64,
    /// Rectified-side internal resistance.
    r_int: Ohms,
}

impl VibrationHarvester {
    /// Creates a resonant harvester.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(
        name: impl Into<String>,
        kind: HarvesterKind,
        rated_power: Watts,
        rated_accel: GAccel,
        resonance: Hertz,
        q: f64,
        r_int: Ohms,
    ) -> Self {
        assert!(rated_power.value() > 0.0, "rated power must be positive");
        assert!(
            rated_accel.value() > 0.0,
            "rated acceleration must be positive"
        );
        assert!(resonance.value() > 0.0, "resonance must be positive");
        assert!(
            q > 0.0 && r_int.value() > 0.0,
            "Q and resistance must be positive"
        );
        Self {
            name: name.into(),
            kind,
            rated_power,
            rated_accel,
            resonance,
            q,
            r_int,
        }
    }

    /// A PZT cantilever in the EH-Link class: 250 µW at 0.5 g / 100 Hz,
    /// Q = 25, 20 kΩ source impedance.
    pub fn piezo_cantilever() -> Self {
        Self::new(
            "PZT cantilever",
            HarvesterKind::Piezoelectric,
            Watts::from_micro(250.0),
            GAccel::new(0.5),
            Hertz::new(100.0),
            25.0,
            Ohms::from_kilo(20.0),
        )
    }

    /// An electromagnetic proof-mass generator: 1 mW at 0.5 g / 60 Hz,
    /// broader resonance (Q = 10), 150 Ω coil.
    pub fn electromagnetic() -> Self {
        Self::new(
            "electromagnetic generator",
            HarvesterKind::Electromagnetic,
            Watts::from_milli(1.0),
            GAccel::new(0.5),
            Hertz::new(60.0),
            10.0,
            Ohms::new(150.0),
        )
    }

    /// Lorentzian frequency response in `[0, 1]` (1 at resonance).
    pub fn frequency_response(&self, f: Hertz) -> f64 {
        if f.value() <= 0.0 {
            return 0.0;
        }
        let fr = self.resonance.value();
        let detune = (f.value() / fr - fr / f.value()) * self.q;
        1.0 / (1.0 + detune * detune)
    }

    /// Available electrical power under `env`.
    pub fn available_power(&self, env: &EnvConditions) -> Watts {
        let a = env.vibration_amp.value();
        if a <= 0.0 {
            return Watts::ZERO;
        }
        let accel_factor = (a / self.rated_accel.value()).powi(2);
        self.rated_power * accel_factor * self.frequency_response(env.vibration_freq)
    }

    fn source(&self, env: &EnvConditions) -> Thevenin {
        Thevenin::from_max_power(self.available_power(env), self.r_int)
    }
}

impl Transducer for VibrationHarvester {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> HarvesterKind {
        self.kind
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

    fn env(amp: f64, freq: f64) -> EnvConditions {
        let mut e = EnvConditions::quiescent(Seconds::ZERO);
        e.vibration_amp = GAccel::new(amp);
        e.vibration_freq = Hertz::new(freq);
        e
    }

    #[test]
    fn rated_power_at_rated_conditions() {
        let h = VibrationHarvester::piezo_cantilever();
        let p = h.available_power(&env(0.5, 100.0));
        assert!((p.as_micro() - 250.0).abs() < 1e-9, "{p}");
        let mpp = h.mpp(&env(0.5, 100.0));
        assert!(
            (mpp.power().as_micro() - 250.0).abs() < 0.5,
            "{}",
            mpp.power()
        );
    }

    #[test]
    fn power_quadratic_in_acceleration() {
        let h = VibrationHarvester::piezo_cantilever();
        let p1 = h.available_power(&env(0.25, 100.0)).value();
        let p2 = h.available_power(&env(0.5, 100.0)).value();
        assert!((p2 / p1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn off_resonance_response_collapses() {
        let h = VibrationHarvester::piezo_cantilever();
        assert!((h.frequency_response(Hertz::new(100.0)) - 1.0).abs() < 1e-12);
        // 10 % detune with Q=25 → strong attenuation.
        let detuned = h.frequency_response(Hertz::new(110.0));
        assert!(detuned < 0.05, "{detuned}");
        assert_eq!(h.frequency_response(Hertz::ZERO), 0.0);
    }

    #[test]
    fn response_symmetric_in_log_frequency() {
        let h = VibrationHarvester::piezo_cantilever();
        let above = h.frequency_response(Hertz::new(120.0));
        let below = h.frequency_response(Hertz::new(100.0 * 100.0 / 120.0));
        assert!((above - below).abs() < 1e-12);
    }

    #[test]
    fn still_environment_yields_nothing() {
        let h = VibrationHarvester::electromagnetic();
        let e = env(0.0, 60.0);
        assert_eq!(h.available_power(&e), Watts::ZERO);
        assert_eq!(h.open_circuit_voltage(&e), Volts::ZERO);
    }

    #[test]
    fn electromagnetic_is_low_impedance() {
        let em = VibrationHarvester::electromagnetic();
        let pz = VibrationHarvester::piezo_cantilever();
        let e_em = env(0.5, 60.0);
        let e_pz = env(0.5, 100.0);
        // At equal (rated) power fraction, the EM device has the much lower
        // open-circuit voltage because Voc = 2√(P·R).
        let voc_ratio =
            pz.open_circuit_voltage(&e_pz).value() / em.open_circuit_voltage(&e_em).value();
        assert!(voc_ratio > 3.0, "{voc_ratio}");
        assert_eq!(em.kind(), HarvesterKind::Electromagnetic);
        assert_eq!(pz.kind(), HarvesterKind::Piezoelectric);
    }

    #[test]
    #[should_panic(expected = "rated power")]
    fn rejects_zero_power() {
        VibrationHarvester::new(
            "bad",
            HarvesterKind::Piezoelectric,
            Watts::ZERO,
            GAccel::new(1.0),
            Hertz::new(100.0),
            10.0,
            Ohms::new(1.0),
        );
    }
}
