//! The [`EnvConditions`] snapshot: everything a harvester can sense at one
//! instant.

use mseh_units::{Celsius, GAccel, Hertz, Lux, MetersPerSecond, Seconds, Watts, WattsPerSqM};

/// A snapshot of every ambient quantity the modelled harvesters transduce.
///
/// Channels a scenario does not model are left at their quiescent defaults
/// (zero irradiance, ambient-equal hot surface, …), so any harvester can be
/// evaluated against any scenario — it simply produces nothing when its
/// source is absent, which is exactly the situation the survey's
/// multi-source argument addresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvConditions {
    /// Instant the snapshot describes (simulation time since epoch).
    pub time: Seconds,
    /// Solar irradiance on the panel plane (outdoor).
    pub irradiance: WattsPerSqM,
    /// Illuminance (indoor artificial light).
    pub illuminance: Lux,
    /// Wind speed at harvester height.
    pub wind: MetersPerSecond,
    /// Ambient air temperature.
    pub ambient: Celsius,
    /// Hottest accessible surface (pipe, machine casing) for a TEG's hot
    /// side. Equal to `ambient` when no gradient source is present.
    pub hot_surface: Celsius,
    /// Vibration acceleration amplitude at the dominant frequency.
    pub vibration_amp: GAccel,
    /// Dominant vibration frequency.
    pub vibration_freq: Hertz,
    /// Incident RF power at the reference antenna aperture.
    pub rf_incident: Watts,
    /// Water-flow speed past a micro hydro rotor.
    pub water_flow: MetersPerSecond,
}

impl EnvConditions {
    /// A "dead calm" snapshot at `time`: 20 °C, dark, still, silent.
    ///
    /// ```
    /// use mseh_env::EnvConditions;
    /// use mseh_units::Seconds;
    ///
    /// let c = EnvConditions::quiescent(Seconds::ZERO);
    /// assert_eq!(c.irradiance.value(), 0.0);
    /// assert_eq!(c.ambient.value(), 20.0);
    /// assert_eq!(c.thermal_gradient().value(), 0.0);
    /// ```
    pub fn quiescent(time: Seconds) -> Self {
        let ambient = Celsius::new(20.0);
        Self {
            time,
            irradiance: WattsPerSqM::ZERO,
            illuminance: Lux::ZERO,
            wind: MetersPerSecond::ZERO,
            ambient,
            hot_surface: ambient,
            vibration_amp: GAccel::ZERO,
            vibration_freq: Hertz::ZERO,
            rf_incident: Watts::ZERO,
            water_flow: MetersPerSecond::ZERO,
        }
    }

    /// The hot-surface-to-ambient temperature difference available to a
    /// thermoelectric generator.
    pub fn thermal_gradient(&self) -> mseh_units::KelvinDiff {
        self.hot_surface.diff(self.ambient)
    }

    /// Effective irradiance a photovoltaic cell sees: outdoor irradiance
    /// plus the irradiance-equivalent of indoor illuminance.
    pub fn effective_irradiance(&self) -> WattsPerSqM {
        self.irradiance + self.illuminance.to_irradiance_indoor()
    }
}

impl Default for EnvConditions {
    fn default() -> Self {
        Self::quiescent(Seconds::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_has_no_energy() {
        let c = EnvConditions::quiescent(Seconds::new(5.0));
        assert_eq!(c.time.value(), 5.0);
        assert_eq!(c.effective_irradiance(), WattsPerSqM::ZERO);
        assert_eq!(c.thermal_gradient().value(), 0.0);
        assert_eq!(c.wind, MetersPerSecond::ZERO);
        assert_eq!(c.rf_incident, Watts::ZERO);
    }

    #[test]
    fn effective_irradiance_combines_indoor_and_outdoor() {
        let mut c = EnvConditions::quiescent(Seconds::ZERO);
        c.irradiance = WattsPerSqM::new(100.0);
        c.illuminance = Lux::new(600.0); // 5 W/m² indoor-equivalent
        assert!((c.effective_irradiance().value() - 105.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_sign_follows_hot_surface() {
        let mut c = EnvConditions::quiescent(Seconds::ZERO);
        c.hot_surface = Celsius::new(55.0);
        assert_eq!(c.thermal_gradient().value(), 35.0);
        c.hot_surface = Celsius::new(10.0);
        assert_eq!(c.thermal_gradient().value(), -10.0);
    }
}
