//! Scheduled converter brownouts: a [`PowerStage`] wrapper that goes
//! dark during injected fault windows.

use crate::stage::PowerStage;
use mseh_units::{Seconds, Volts, Watts};

/// A power stage that browns out on a schedule: during each
/// `(start, end)` window it refuses every input voltage and passes no
/// power, modelling a converter whose controller resets, latches off
/// under a transient, or loses its bias supply.
///
/// The schedule runs on *operating time* accumulated through
/// [`advance`](PowerStage::advance) — the platform forwards its step
/// width there — so windows are relative to the run that ages the
/// stage. `mseh_sim`'s `FaultSchedule::windows()` produces compatible
/// window lists (this crate sits below the simulator and cannot name
/// that type).
///
/// Quiescent draw persists through a brownout: the dead converter's
/// bias network still loads the bus.
///
/// # Examples
///
/// ```
/// use mseh_power::{BrownoutConverter, DcDcConverter, PowerStage};
/// use mseh_units::{Seconds, Volts, Watts};
///
/// let mut stage = BrownoutConverter::new(
///     Box::new(DcDcConverter::buck_boost_3v3()),
///     vec![(Seconds::new(100.0), Seconds::new(160.0))],
/// );
/// assert!(stage.accepts_input_voltage(Volts::new(2.5)));
/// stage.advance(Seconds::new(100.0));
/// assert!(stage.is_browned_out());
/// assert!(!stage.accepts_input_voltage(Volts::new(2.5)));
/// stage.advance(Seconds::new(60.0));
/// assert!(stage.accepts_input_voltage(Volts::new(2.5)));
/// assert_eq!(stage.fault_fire_count(), 1);
/// assert_eq!(stage.fault_clear_count(), 1);
/// ```
pub struct BrownoutConverter {
    inner: Box<dyn PowerStage>,
    name: String,
    windows: Vec<(Seconds, Seconds)>,
    age: Seconds,
}

impl BrownoutConverter {
    /// Wraps `inner` with the given sorted, non-overlapping brownout
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics if any window is malformed (negative start, `end ≤ start`)
    /// or the windows are unsorted / overlapping.
    pub fn new(inner: Box<dyn PowerStage>, windows: Vec<(Seconds, Seconds)>) -> Self {
        let mut prev_end = Seconds::new(f64::NEG_INFINITY);
        for &(start, end) in &windows {
            assert!(start.value() >= 0.0, "brownout start must be non-negative");
            assert!(end > start, "brownout end must follow its start");
            assert!(
                start >= prev_end,
                "brownout windows must be sorted and non-overlapping"
            );
            prev_end = end;
        }
        let name = format!("{} (brownout-scheduled)", inner.name());
        Self {
            inner,
            name,
            windows,
            age: Seconds::ZERO,
        }
    }

    /// Whether the stage is currently inside a brownout window (the
    /// start instant is down; the end instant is back up).
    pub fn is_browned_out(&self) -> bool {
        self.windows
            .iter()
            .any(|&(start, end)| self.age >= start && self.age < end)
    }

    /// Operating time accumulated so far.
    pub fn age(&self) -> Seconds {
        self.age
    }
}

impl PowerStage for BrownoutConverter {
    fn name(&self) -> &str {
        &self.name
    }

    fn quiescent(&self) -> Watts {
        self.inner.quiescent()
    }

    fn accepts_input_voltage(&self, v_in: Volts) -> bool {
        !self.is_browned_out() && self.inner.accepts_input_voltage(v_in)
    }

    fn output_voltage(&self) -> Volts {
        self.inner.output_voltage()
    }

    fn output_for_input(&self, p_in: Watts, v_in: Volts) -> Watts {
        if self.is_browned_out() {
            Watts::ZERO
        } else {
            self.inner.output_for_input(p_in, v_in)
        }
    }

    fn input_for_output(&self, p_out: Watts, v_in: Volts) -> Watts {
        if self.is_browned_out() {
            Watts::ZERO
        } else {
            self.inner.input_for_output(p_out, v_in)
        }
    }

    fn advance(&mut self, dt: Seconds) {
        self.age += dt;
        self.inner.advance(dt);
    }

    fn fault_fire_count(&self) -> u64 {
        self.windows
            .iter()
            .take_while(|&&(start, _)| start <= self.age)
            .count() as u64
    }

    fn fault_clear_count(&self) -> u64 {
        self.windows
            .iter()
            .filter(|&&(_, end)| end <= self.age)
            .count() as u64
    }

    fn is_time_invariant(&self) -> bool {
        // The transfer function flips with operating time as windows fire
        // and clear, so channel results must never replay across an
        // `advance`.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::converter::DcDcConverter;

    fn stage() -> BrownoutConverter {
        BrownoutConverter::new(
            Box::new(DcDcConverter::buck_boost_3v3()),
            vec![
                (Seconds::new(10.0), Seconds::new(20.0)),
                (Seconds::new(50.0), Seconds::new(55.0)),
            ],
        )
    }

    #[test]
    fn passes_power_outside_windows_and_none_inside() {
        let mut s = stage();
        let v = Volts::new(2.5);
        let p = Watts::from_milli(10.0);
        let healthy = s.output_for_input(p, v);
        assert!(healthy.value() > 0.0);
        s.advance(Seconds::new(12.0));
        assert!(s.is_browned_out());
        assert_eq!(s.output_for_input(p, v), Watts::ZERO);
        assert_eq!(s.input_for_output(p, v), Watts::ZERO);
        assert!(!s.accepts_input_voltage(v));
        // Housekeeping persists through the brownout.
        assert!(s.quiescent().value() > 0.0);
        s.advance(Seconds::new(10.0));
        assert!(!s.is_browned_out());
        assert_eq!(s.output_for_input(p, v), healthy);
    }

    #[test]
    fn counts_fires_and_clears() {
        let mut s = stage();
        assert_eq!((s.fault_fire_count(), s.fault_clear_count()), (0, 0));
        s.advance(Seconds::new(15.0));
        assert_eq!((s.fault_fire_count(), s.fault_clear_count()), (1, 0));
        s.advance(Seconds::new(45.0)); // past both windows
        assert_eq!((s.fault_fire_count(), s.fault_clear_count()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "sorted and non-overlapping")]
    fn rejects_overlapping_windows() {
        BrownoutConverter::new(
            Box::new(DcDcConverter::buck_boost_3v3()),
            vec![
                (Seconds::new(10.0), Seconds::new(30.0)),
                (Seconds::new(20.0), Seconds::new(40.0)),
            ],
        );
    }
}
