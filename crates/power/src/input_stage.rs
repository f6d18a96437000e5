//! A complete input-conditioning channel: protection stage, operating-point
//! controller and front-end converter between one harvester and the
//! storage bus.

use crate::mppt::{OperatingPointController, WindowChoice};
use crate::stage::PowerStage;
use mseh_env::EnvConditions;
use mseh_harvesters::Transducer;
use mseh_units::{Seconds, Volts, Watts};

/// The outcome of one input-channel step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HarvestStep {
    /// Operating voltage held at the harvester terminals.
    pub operating_voltage: Volts,
    /// Raw power extracted from the transducer.
    pub extracted: Watts,
    /// Power delivered onto the storage bus after all stages.
    pub delivered: Watts,
    /// Controller + converter housekeeping drawn from the bus.
    pub overhead: Watts,
}

impl HarvestStep {
    /// Net power contribution to the bus (delivered minus overhead); may
    /// be negative when the channel's housekeeping exceeds its harvest.
    pub fn net(&self) -> Watts {
        self.delivered - self.overhead
    }
}

/// One harvester input channel of a power unit.
///
/// Pipeline per step: the controller picks the operating voltage → the
/// transducer yields power at that point → the protection stage and the
/// front-end converter each take their share → the result lands on the
/// bus, while controller and converter housekeeping are charged against
/// it.
///
/// # Examples
///
/// ```
/// use mseh_power::{InputChannel, PerturbObserve, DcDcConverter, IdealDiode};
/// use mseh_harvesters::PvModule;
/// use mseh_env::EnvConditions;
/// use mseh_units::{Seconds, WattsPerSqM};
///
/// let mut channel = InputChannel::new(
///     Box::new(PvModule::outdoor_panel_half_watt()),
///     Box::new(PerturbObserve::new()),
///     Box::new(IdealDiode::nanopower()),
///     Box::new(DcDcConverter::mppt_front_end_5v()),
/// );
/// let mut env = EnvConditions::quiescent(Seconds::ZERO);
/// env.irradiance = WattsPerSqM::new(800.0);
/// let mut last = Default::default();
/// for _ in 0..100 {
///     last = channel.step(&env, Seconds::new(1.0));
/// }
/// let step: mseh_power::HarvestStep = last;
/// assert!(step.net().value() > 0.0);
/// ```
pub struct InputChannel {
    harvester: Box<dyn Transducer>,
    controller: Box<dyn OperatingPointController>,
    protection: Box<dyn PowerStage>,
    converter: Box<dyn PowerStage>,
    /// Scratch for batched window solves: per-lane open-circuit voltages.
    lane_voc: Vec<f64>,
}

impl InputChannel {
    /// Assembles a channel from its four blocks.
    pub fn new(
        harvester: Box<dyn Transducer>,
        controller: Box<dyn OperatingPointController>,
        protection: Box<dyn PowerStage>,
        converter: Box<dyn PowerStage>,
    ) -> Self {
        Self {
            harvester,
            controller,
            protection,
            converter,
            lane_voc: Vec::new(),
        }
    }

    /// The transducer on this channel.
    pub fn harvester(&self) -> &dyn Transducer {
        self.harvester.as_ref()
    }

    /// The operating-point controller on this channel.
    pub fn controller(&self) -> &dyn OperatingPointController {
        self.controller.as_ref()
    }

    /// Replaces the harvester (a hardware swap), returning the old one.
    pub fn swap_harvester(&mut self, new: Box<dyn Transducer>) -> Box<dyn Transducer> {
        core::mem::replace(&mut self.harvester, new)
    }

    /// Whether, *from the channel's current state*, two [`step`] calls
    /// with identical `(env, dt)` are guaranteed to return bit-identical
    /// [`HarvestStep`]s and leave the channel in the same state — the
    /// replay contract.
    ///
    /// This holds when the controller's choice is a pure function of
    /// `(env, dt)` in its current state
    /// ([`is_env_pure`](OperatingPointController::is_env_pure)) and every
    /// block in the chain is time-invariant. Dense fleet groups and dense
    /// policy arenas use this to prove that a per-window harvest table,
    /// solved once on one representative channel, reproduces each
    /// member's per-step channel outputs exactly.
    ///
    /// [`step`]: InputChannel::step
    pub fn is_replayable(&self, dt: Seconds) -> bool {
        self.controller.is_env_pure(dt) && self.is_time_invariant()
    }

    /// Whether harvester, protection and converter are all
    /// time-invariant.
    fn is_time_invariant(&self) -> bool {
        self.harvester.is_time_invariant()
            && self.protection.is_time_invariant()
            && self.converter.is_time_invariant()
    }

    /// Rebuilds the harvester in place through `wrap` — simulation
    /// instrumentation (fault injection, derating) around whatever is
    /// plugged in, as opposed to the hardware swap above.
    pub fn wrap_harvester(
        &mut self,
        wrap: impl FnOnce(Box<dyn Transducer>) -> Box<dyn Transducer>,
    ) {
        // A transducer must sit in the slot while `wrap` runs; a dead
        // placeholder stands in and is dropped on return.
        struct Placeholder;
        impl Transducer for Placeholder {
            fn name(&self) -> &str {
                "placeholder"
            }
            fn kind(&self) -> mseh_harvesters::HarvesterKind {
                mseh_harvesters::HarvesterKind::Photovoltaic
            }
            fn current_at(&self, _v: Volts, _env: &EnvConditions) -> mseh_units::Amps {
                mseh_units::Amps::ZERO
            }
            fn open_circuit_voltage(&self, _env: &EnvConditions) -> Volts {
                Volts::ZERO
            }
        }
        let old = core::mem::replace(&mut self.harvester, Box::new(Placeholder));
        self.harvester = wrap(old);
    }

    /// Rebuilds the front-end converter in place through `wrap` (e.g.
    /// a scheduled-brownout wrapper).
    pub fn wrap_converter(
        &mut self,
        wrap: impl FnOnce(Box<dyn PowerStage>) -> Box<dyn PowerStage>,
    ) {
        struct Placeholder;
        impl PowerStage for Placeholder {
            fn name(&self) -> &str {
                "placeholder"
            }
            fn quiescent(&self) -> Watts {
                Watts::ZERO
            }
            fn accepts_input_voltage(&self, _v: Volts) -> bool {
                false
            }
            fn output_voltage(&self) -> Volts {
                Volts::ZERO
            }
            fn output_for_input(&self, _p: Watts, _v: Volts) -> Watts {
                Watts::ZERO
            }
            fn input_for_output(&self, _p: Watts, _v: Volts) -> Watts {
                Watts::ZERO
            }
        }
        let old = core::mem::replace(&mut self.converter, Box::new(Placeholder));
        self.converter = wrap(old);
    }

    /// Cumulative `(fired, cleared)` fault counts across the channel's
    /// blocks (harvester dropouts + converter/protection brownouts).
    pub fn fault_counts(&self) -> (u64, u64) {
        (
            self.harvester.fault_fire_count()
                + self.converter.fault_fire_count()
                + self.protection.fault_fire_count(),
            self.harvester.fault_clear_count()
                + self.converter.fault_clear_count()
                + self.protection.fault_clear_count(),
        )
    }

    /// The housekeeping the channel draws even when its source is dead
    /// (converter + protection standing draw; the controller gates itself
    /// off). This is the channel's contribution to the platform's
    /// quiescent current.
    pub fn idle_overhead(&self) -> Watts {
        self.converter.quiescent() + self.protection.quiescent()
    }

    /// Runs the channel for `dt` under `env`: every call solves.
    pub fn step(&mut self, env: &EnvConditions, dt: Seconds) -> HarvestStep {
        // Stages with internal clocks (scheduled-brownout wrappers) age
        // by operating time.
        self.protection.advance(dt);
        self.converter.advance(dt);
        let v_op = self
            .controller
            .choose_voltage(self.harvester.as_ref(), env, dt);
        self.finish_step(v_op, env)
    }

    /// Completes a step whose operating voltage is already chosen — the
    /// post-controller half of [`step`](Self::step), shared
    /// verbatim by the scalar path and the batched window lanes so the
    /// two stay bit-identical by construction.
    fn finish_step(&self, v_op: Volts, env: &EnvConditions) -> HarvestStep {
        if v_op.value() <= 0.0 {
            // Dead source: the channel sleeps; only converter housekeeping
            // persists (controllers gate themselves off).
            return HarvestStep {
                overhead: self.idle_overhead(),
                ..HarvestStep::default()
            };
        }
        let extracted =
            self.harvester.power_at(v_op, env) * (1.0 - self.controller.sampling_loss_fraction());
        let after_protection = self.protection.output_for_input(extracted, v_op);
        let delivered = self.converter.output_for_input(after_protection, v_op);
        HarvestStep {
            operating_voltage: v_op,
            extracted,
            delivered,
            overhead: self.controller.overhead()
                + self.converter.quiescent()
                + self.protection.quiescent(),
        }
    }

    /// Whether [`window_lanes`](Self::window_lanes) can stand in for
    /// per-node [`step`](Self::step) calls at width `dt`: the chain must
    /// have every block time-invariant *and* the controller must state a
    /// source-free [`WindowChoice`] — with a batch Voc kernel on the
    /// harvester when that choice needs one.
    pub fn supports_window_lanes(&self, dt: Seconds) -> bool {
        let batchable = match self.controller.window_choice(dt) {
            Some(WindowChoice::FractionOfVoc(_)) => self.harvester.voc_batch().is_some(),
            Some(WindowChoice::Fixed(_)) => true,
            None => false,
        };
        batchable && self.is_time_invariant()
    }

    /// One control window for a whole population: writes into `out[i]`
    /// exactly the [`HarvestStep`] a replayable per-node channel's
    /// [`step`](Self::step) would return for `envs[i]` at width `dt`,
    /// solving the operating points in one struct-of-arrays pass. The
    /// fraction-of-Voc rule batches through the harvester's
    /// [`voc_batch`](mseh_harvesters::Transducer::voc_batch) kernel, so
    /// every lane is bit-identical to the scalar solve.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ or the channel does not
    /// [`support`](Self::supports_window_lanes) width `dt`.
    pub fn window_lanes(&mut self, envs: &[EnvConditions], dt: Seconds, out: &mut [HarvestStep]) {
        assert_eq!(envs.len(), out.len());
        let choice = self
            .controller
            .window_choice(dt)
            .expect("window_lanes requires a source-free window choice");
        // Mirror the per-window `step` call the scalar driver makes.
        self.protection.advance(dt);
        self.converter.advance(dt);
        match choice {
            WindowChoice::Fixed(v) => {
                for (slot, env) in out.iter_mut().zip(envs) {
                    *slot = self.finish_step(v, env);
                }
            }
            WindowChoice::FractionOfVoc(k) => {
                let mut lane_voc = core::mem::take(&mut self.lane_voc);
                lane_voc.resize(envs.len(), 0.0);
                self.harvester
                    .voc_batch()
                    .expect("FractionOfVoc windows require a harvester batch kernel")
                    .voc_lanes(envs, &mut lane_voc);
                for i in 0..envs.len() {
                    // Same arithmetic as the scalar `Voc * k` in FOCV.
                    let v_op = Volts::new(lane_voc[i]) * k;
                    out[i] = self.finish_step(v_op, &envs[i]);
                }
                self.lane_voc = lane_voc;
            }
        }
    }

    /// The fractional closer step for a whole population: a step of width
    /// `frac` shorter than the control window. Where the controller's
    /// [`WindowChoice`] still resolves at this width the step is just a
    /// narrow window; otherwise each lane holds `held[i]` — its own
    /// previous window's operating voltage — exactly as the scalar
    /// controller's stale-hold contract does.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn frac_lanes(
        &mut self,
        envs: &[EnvConditions],
        held: &[Volts],
        frac: Seconds,
        out: &mut [HarvestStep],
    ) {
        assert_eq!(envs.len(), held.len());
        assert_eq!(envs.len(), out.len());
        if self.controller.window_choice(frac).is_some() {
            self.window_lanes(envs, frac, out);
            return;
        }
        self.protection.advance(frac);
        self.converter.advance(frac);
        for i in 0..envs.len() {
            out[i] = self.finish_step(held[i], &envs[i]);
        }
    }
}

impl core::fmt::Debug for InputChannel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("InputChannel")
            .field("harvester", &self.harvester.name())
            .field("controller", &self.controller.name())
            .field("protection", &self.protection.name())
            .field("converter", &self.converter.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::converter::DcDcConverter;
    use crate::diode::IdealDiode;
    use crate::mppt::{FixedPoint, PerturbObserve};
    use mseh_harvesters::{PvModule, Teg};
    use mseh_units::{Celsius, WattsPerSqM};

    fn sunny() -> EnvConditions {
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.irradiance = WattsPerSqM::new(800.0);
        env
    }

    fn pv_channel(controller: Box<dyn OperatingPointController>) -> InputChannel {
        InputChannel::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            controller,
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        )
    }

    #[test]
    fn mppt_channel_out_harvests_fixed_in_bright_sun() {
        let env = sunny();
        let mut mppt = pv_channel(Box::new(PerturbObserve::new()));
        // Fixed point chosen poorly relative to bright-sun MPP (~5 V).
        let mut fixed = pv_channel(Box::new(FixedPoint::new(Volts::new(3.0))));
        let (mut p_mppt, mut p_fixed) = (Watts::ZERO, Watts::ZERO);
        for _ in 0..300 {
            p_mppt = mppt.step(&env, Seconds::new(1.0)).net();
            p_fixed = fixed.step(&env, Seconds::new(1.0)).net();
        }
        assert!(p_mppt > p_fixed, "{p_mppt} vs {p_fixed}");
    }

    #[test]
    fn dead_source_costs_only_housekeeping() {
        let mut ch = pv_channel(Box::new(PerturbObserve::new()));
        let night = EnvConditions::quiescent(Seconds::ZERO);
        let step = ch.step(&night, Seconds::new(1.0));
        assert_eq!(step.delivered, Watts::ZERO);
        assert_eq!(step.extracted, Watts::ZERO);
        assert!(step.overhead.value() > 0.0);
        assert!(step.net().value() < 0.0);
    }

    #[test]
    fn swap_replaces_harvester() {
        let mut ch = pv_channel(Box::new(FixedPoint::new(Volts::new(0.4))));
        let old = ch.swap_harvester(Box::new(Teg::module_40mm()));
        assert_eq!(old.name(), "0.5 W polycrystalline panel");
        assert_eq!(ch.harvester().name(), "40 mm BiTe TEG");
        // The TEG channel now responds to thermal gradients.
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.hot_surface = Celsius::new(70.0);
        let step = ch.step(&env, Seconds::new(1.0));
        assert!(step.extracted.value() > 0.0);
    }

    #[test]
    fn delivered_never_exceeds_extracted() {
        let mut ch = pv_channel(Box::new(PerturbObserve::new()));
        let env = sunny();
        for _ in 0..100 {
            let step = ch.step(&env, Seconds::new(1.0));
            assert!(step.delivered <= step.extracted + Watts::new(1e-15));
        }
    }

    #[test]
    fn debug_lists_blocks() {
        let ch = pv_channel(Box::new(PerturbObserve::new()));
        let s = format!("{ch:?}");
        assert!(s.contains("polycrystalline"));
        assert!(s.contains("perturb-and-observe"));
    }

    /// The bits of every field, so equality below is bit-identity.
    fn bits(hs: HarvestStep) -> [u64; 4] {
        [
            hs.operating_voltage.value().to_bits(),
            hs.extracted.value().to_bits(),
            hs.delivered.value().to_bits(),
            hs.overhead.value().to_bits(),
        ]
    }

    /// The replay contract per-window harvest tables rest on: from a
    /// settled state where the channel reports replayable, `step` calls
    /// with identical `(env, dt)` return bit-identical results and leave
    /// the channel state unchanged. A channel is settled by one `step` at
    /// `dt`, then makes `calls` identical calls and a probe at a shorter
    /// width and dimmer light (which for FOCV returns its held state).
    /// Returns every result, bit-cast.
    fn replay_run(
        build: &dyn Fn() -> InputChannel,
        dt: Seconds,
        calls: usize,
    ) -> (Vec<[u64; 4]>, [u64; 4]) {
        let env = sunny();
        let mut dim = env;
        dim.irradiance = WattsPerSqM::new(50.0);
        let mut ch = build();
        ch.step(&env, dt);
        let steps = (0..calls)
            .map(|_| {
                assert!(ch.is_replayable(dt), "dt = {dt:?}");
                bits(ch.step(&env, dt))
            })
            .collect();
        (steps, bits(ch.step(&dim, Seconds::new(0.5))))
    }

    #[test]
    fn env_pure_channels_replay_identical_inputs_bit_identically() {
        use crate::mppt::FractionalVoc;
        let fixed = || pv_channel(Box::new(FixedPoint::new(Volts::new(3.0))));
        let focv = || pv_channel(Box::new(FractionalVoc::pv_standard()));
        let cases: [(&dyn Fn() -> InputChannel, &[f64]); 2] = [
            (&fixed, &[0.5, 1.0, 30.0, 60.0]),
            // FOCV only at widths reaching its 30 s sample interval.
            (&focv, &[30.0, 60.0, 3600.0]),
        ];
        for (build, widths) in cases {
            for &w in widths {
                let dt = Seconds::new(w);
                // Two identical calls agree, and a third agrees with both.
                let (steps, after_two) = replay_run(build, dt, 2);
                assert_eq!(steps[0], steps[1], "dt = {w}");
                let (third, after_three) = replay_run(build, dt, 3);
                assert_eq!(third[..2], steps[..], "dt = {w}");
                assert_eq!(third[2], steps[0], "dt = {w}");
                // The state after one, two or three calls is the same:
                // the probe that follows sees no difference.
                let (_, after_one) = replay_run(build, dt, 1);
                assert_eq!(after_one, after_two, "dt = {w}");
                assert_eq!(after_two, after_three, "dt = {w}");
            }
        }
        // Hidden state is never env-pure: FOCV below its interval holds a
        // stale voltage, and P&O dithers at any width.
        let mut settled = focv();
        settled.step(&sunny(), Seconds::new(60.0));
        assert!(settled.is_replayable(Seconds::new(60.0)));
        assert!(!settled.is_replayable(Seconds::new(1.0)));
        assert!(!settled.controller().is_env_pure(Seconds::new(1.0)));
        let mut po = pv_channel(Box::new(PerturbObserve::new()));
        for w in [1.0, 60.0] {
            po.step(&sunny(), Seconds::new(w));
            assert!(!po.controller().is_env_pure(Seconds::new(w)));
            assert!(!po.is_replayable(Seconds::new(w)));
        }
    }

    #[test]
    fn perturb_observe_keeps_perturbing_under_constant_sun() {
        // P&O dithers around the MPP — its choice is history, not
        // environment.
        let mut ch = pv_channel(Box::new(PerturbObserve::new()));
        let env = sunny();
        let mut last = Volts::ZERO;
        let mut moved = false;
        for _ in 0..10 {
            let step = ch.step(&env, Seconds::new(1.0));
            if step.operating_voltage != last {
                moved = last.value() > 0.0 || moved;
            }
            last = step.operating_voltage;
        }
        assert!(moved, "P&O should keep perturbing under constant sun");
    }

    #[test]
    fn window_lanes_match_fresh_scalar_channels_bitwise() {
        use crate::mppt::FractionalVoc;
        let dt = Seconds::new(60.0);
        // A spread of windows including a dark lane (dead-source branch).
        let envs: Vec<EnvConditions> = (0..9)
            .map(|i| {
                let mut env = EnvConditions::quiescent(Seconds::new(60.0 * i as f64));
                if i != 4 {
                    env.irradiance = WattsPerSqM::new(120.0 * i as f64 + 35.0);
                }
                env
            })
            .collect();
        let builds: [fn() -> InputChannel; 2] = [
            || pv_channel(Box::new(FractionalVoc::pv_standard())),
            || pv_channel(Box::new(FixedPoint::new(Volts::new(3.0)))),
        ];
        for build in builds {
            let mut batched = build();
            assert!(batched.supports_window_lanes(dt));
            let mut out = vec![HarvestStep::default(); envs.len()];
            batched.window_lanes(&envs, dt, &mut out);
            for (i, env) in envs.iter().enumerate() {
                // Each lane must equal a fresh replayable channel's first
                // window step on that lane's environment.
                let scalar = build().step(env, dt);
                assert_eq!(out[i], scalar, "lane {i}");
            }
        }
    }

    #[test]
    fn frac_lanes_hold_matches_scalar_fractional_step_bitwise() {
        use crate::mppt::FractionalVoc;
        let dt = Seconds::new(60.0);
        let frac = Seconds::new(7.5); // below the 30 s FOCV interval
        let window_envs: Vec<EnvConditions> = (0..5)
            .map(|i| {
                let mut env = EnvConditions::quiescent(Seconds::new(60.0 * i as f64));
                if i != 2 {
                    env.irradiance = WattsPerSqM::new(700.0 - 90.0 * i as f64);
                }
                env
            })
            .collect();
        // Conditions shift before the closer step; FOCV must keep holding.
        let frac_envs: Vec<EnvConditions> = window_envs
            .iter()
            .map(|e| {
                let mut env = *e;
                env.irradiance = WattsPerSqM::new(e.irradiance.value() * 0.5);
                env
            })
            .collect();
        let build = || pv_channel(Box::new(FractionalVoc::pv_standard()));
        let mut batched = build();
        let mut window = vec![HarvestStep::default(); window_envs.len()];
        batched.window_lanes(&window_envs, dt, &mut window);
        let held: Vec<Volts> = window.iter().map(|hs| hs.operating_voltage).collect();
        let mut out = vec![HarvestStep::default(); window_envs.len()];
        batched.frac_lanes(&frac_envs, &held, frac, &mut out);
        for i in 0..window_envs.len() {
            let mut scalar = build();
            let w = scalar.step(&window_envs[i], dt);
            assert_eq!(w, window[i], "lane {i} window");
            let f = scalar.step(&frac_envs[i], frac);
            assert_eq!(f, out[i], "lane {i} closer");
            if window_envs[i].irradiance.value() > 0.0 {
                assert_eq!(f.operating_voltage, w.operating_voltage, "hold broken");
            }
        }
        // A closer step spanning the interval resamples instead.
        let wide = Seconds::new(45.0);
        let mut resampled = vec![HarvestStep::default(); window_envs.len()];
        batched.frac_lanes(&frac_envs, &held, wide, &mut resampled);
        for i in 0..window_envs.len() {
            let mut scalar = build();
            scalar.step(&window_envs[i], dt);
            assert_eq!(scalar.step(&frac_envs[i], wide), resampled[i], "lane {i}");
        }
    }

    #[test]
    fn window_lane_support_requires_batchable_chain() {
        use crate::mppt::FractionalVoc;
        let dt = Seconds::new(60.0);
        // P&O has no source-free window rule.
        assert!(!pv_channel(Box::new(PerturbObserve::new())).supports_window_lanes(dt));
        // FOCV below its sample interval holds hidden state.
        let focv = pv_channel(Box::new(FractionalVoc::pv_standard()));
        assert!(!focv.supports_window_lanes(Seconds::new(1.0)));
        assert!(focv.supports_window_lanes(dt));
        // FOCV over a harvester without a batch Voc kernel cannot batch.
        let no_kernel = InputChannel::new(
            Box::new(mseh_harvesters::Rectenna::rectenna_915mhz()),
            Box::new(FractionalVoc::thevenin_standard()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        );
        assert!(!no_kernel.supports_window_lanes(dt));
        // Time-varying stages (scheduled brownouts) break replayability.
        let mut wrapped = pv_channel(Box::new(FixedPoint::new(Volts::new(3.0))));
        wrapped.wrap_converter(|inner| {
            Box::new(crate::BrownoutConverter::new(
                inner,
                vec![(Seconds::from_hours(1.0), Seconds::from_hours(1.1))],
            ))
        });
        assert!(!wrapped.supports_window_lanes(dt));
    }
}
