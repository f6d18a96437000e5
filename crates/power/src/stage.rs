//! The [`PowerStage`] trait — any block that moves power between two
//! voltage domains (converters, regulators, diode input stages).

use mseh_units::{Seconds, Volts, Watts};

/// A power-processing stage between an input and an output voltage domain.
///
/// Quiescent draw is reported separately from conversion efficiency: the
/// survey's System A vs. System B comparison is exactly the trade between
/// a high-efficiency, higher-quiescent switching stage and a low-quiescent
/// linear stage, so the two costs must stay distinguishable.
pub trait PowerStage: Send + Sync {
    /// Human-readable stage name.
    fn name(&self) -> &str;

    /// Continuous housekeeping power drawn whether or not power flows.
    fn quiescent(&self) -> Watts;

    /// Whether the stage can operate from `v_in`.
    fn accepts_input_voltage(&self, v_in: Volts) -> bool;

    /// The regulated output voltage (or the pass-through voltage for
    /// unregulated stages, which return `v_in`-independent nominal).
    fn output_voltage(&self) -> Volts;

    /// Output power delivered when `p_in` flows in at `v_in`
    /// (zero when `v_in` is outside the stage's window). Excludes
    /// quiescent draw — the caller accounts that against the bus.
    fn output_for_input(&self, p_in: Watts, v_in: Volts) -> Watts;

    /// Input power required to deliver `p_out` at `v_in`.
    ///
    /// Must be consistent with [`output_for_input`] (round-trip within
    /// numeric tolerance); property-tested in `tests/`.
    ///
    /// [`output_for_input`]: PowerStage::output_for_input
    fn input_for_output(&self, p_out: Watts, v_in: Volts) -> Watts;

    /// Advances the stage's internal clock by `dt`.
    ///
    /// Most stages are stateless and ignore this; scheduled-fault
    /// wrappers (converter brownouts) use it to track operating time.
    /// Callers that step a platform should forward their step width here.
    fn advance(&mut self, dt: Seconds) {
        let _ = dt;
    }

    /// Number of scheduled faults (brownouts) this stage has fired.
    fn fault_fire_count(&self) -> u64 {
        0
    }

    /// Number of fired faults that have cleared.
    fn fault_clear_count(&self) -> u64 {
        0
    }

    /// Whether the stage's transfer behaviour is independent of its
    /// internal clock — i.e. `output_for_input`/`input_for_output` give
    /// the same answer before and after any `advance`. Scheduled-fault
    /// wrappers (brownouts) override this to `false`; a channel with a
    /// time-varying stage is never replayed from a harvest table.
    fn is_time_invariant(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-ratio stage to exercise trait-object use.
    struct Half;

    impl PowerStage for Half {
        fn name(&self) -> &str {
            "half"
        }
        fn quiescent(&self) -> Watts {
            Watts::from_micro(1.0)
        }
        fn accepts_input_voltage(&self, v_in: Volts) -> bool {
            v_in.value() > 0.0
        }
        fn output_voltage(&self) -> Volts {
            Volts::new(3.3)
        }
        fn output_for_input(&self, p_in: Watts, _v: Volts) -> Watts {
            p_in * 0.5
        }
        fn input_for_output(&self, p_out: Watts, _v: Volts) -> Watts {
            p_out * 2.0
        }
    }

    #[test]
    fn object_safe_and_consistent() {
        let stage: Box<dyn PowerStage> = Box::new(Half);
        let p = Watts::from_milli(10.0);
        let v = Volts::new(5.0);
        let out = stage.output_for_input(p, v);
        let back = stage.input_for_output(out, v);
        assert!((back - p).abs().value() < 1e-12);
        assert_eq!(stage.name(), "half");
    }
}
