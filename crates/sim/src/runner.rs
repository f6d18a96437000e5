//! The simulation runner: drives a [`Platform`] + node + policy against an
//! environment, recording time series and enforcing energy conservation.

use crate::cancel::{tripped, CancelToken};
use crate::observe::{SimEvent, SimObserver, StepEnergies};
use crate::platform::Platform;
use mseh_env::{EnvConditions, EnvSampler, Trace};
use mseh_node::{DutyCyclePolicy, SensorNode};
use mseh_units::{DutyCycle, Joules, Seconds, Volts};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Step width (quasi-static power-flow per step).
    pub dt: Seconds,
    /// Total simulated span.
    pub duration: Seconds,
    /// Simulation time at which the run begins (lets consecutive runs on
    /// the same platform continue through the environment's calendar
    /// instead of replaying day zero).
    pub start_at: Seconds,
    /// How often the node's policy re-decides its duty cycle.
    pub control_interval: Seconds,
    /// Whether to record full time series (store voltage, harvest, duty).
    pub record: bool,
}

impl SimConfig {
    /// One week at 60 s steps, 10-minute control windows, no recording.
    pub fn week() -> Self {
        Self::over(Seconds::from_days(7.0))
    }

    /// One day at 60 s steps with recording on.
    pub fn day_recorded() -> Self {
        Self {
            record: true,
            ..Self::over(Seconds::from_days(1.0))
        }
    }

    /// Custom span at 60 s steps, starting at simulation time zero.
    pub fn over(duration: Seconds) -> Self {
        Self {
            dt: Seconds::new(60.0),
            duration,
            start_at: Seconds::ZERO,
            control_interval: Seconds::from_minutes(10.0),
            record: false,
        }
    }

    /// Shifts the run's start time (continuing a platform through the
    /// environment's calendar across multiple runs).
    pub fn starting_at(mut self, start: Seconds) -> Self {
        self.start_at = start;
        self
    }
}

/// Recorded time series from a run (present when
/// [`SimConfig::record`] is set).
#[derive(Debug, Clone, PartialEq)]
pub struct SimTraces {
    /// Store terminal voltage over time.
    pub store_voltage: Trace,
    /// Harvested bus power over time (per-step average).
    pub harvest_power: Trace,
    /// Duty cycle chosen by the policy over time.
    pub duty: Trace,
}

/// Aggregate results of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total simulated time.
    pub duration: Seconds,
    /// Fraction of load energy actually served.
    pub uptime: f64,
    /// Data samples produced (scaled by served fraction per step).
    pub samples: f64,
    /// Total bus energy harvested.
    pub harvested: Joules,
    /// Total energy delivered to the load.
    pub delivered: Joules,
    /// Total unserved load energy.
    pub shortfall: Joules,
    /// Total output-stage conversion loss while serving the load.
    pub converter_losses: Joules,
    /// Number of steps with any shortfall.
    pub brownout_steps: u64,
    /// Longest run of consecutive brown-out steps.
    pub longest_outage_steps: u64,
    /// Minimum store voltage seen.
    pub min_store_voltage: Volts,
    /// Residual of the bus-level conservation audit, as a fraction of
    /// total throughput (should be ≈0; asserted below 1e-6 in debug).
    pub audit_residual: f64,
    /// Recorded traces, when enabled.
    pub traces: Option<SimTraces>,
}

impl SimResult {
    /// Whether the run had zero unserved load.
    pub fn zero_downtime(&self) -> bool {
        self.brownout_steps == 0
    }
}

/// Runs `platform` + `node` + `policy` against `env` under `config`.
///
/// Each step: (control window edge) the policy reads the platform's
/// energy status and picks a duty cycle → the node's average power at
/// that duty becomes the load → the platform moves power.
///
/// # Energy conservation
///
/// The runner audits the bus identity
/// `harvested + discharged = charged + spilled + served demand`
/// accumulated over the whole run, and the storage identity
/// `charged − discharged − losses = Δstored`. The combined residual is
/// returned in [`SimResult::audit_residual`] and asserted small when
/// debug assertions are on.
///
/// # Examples
///
/// ```
/// use mseh_sim::{run_simulation, SimConfig};
/// use mseh_core::{PowerUnit, StoreRole, PortRequirement};
/// use mseh_power::DcDcConverter;
/// use mseh_storage::Supercap;
/// use mseh_node::{SensorNode, FixedDuty};
/// use mseh_env::Environment;
/// use mseh_units::{DutyCycle, Seconds, Volts};
///
/// let mut cap = Supercap::edlc_22f();
/// cap.set_voltage(Volts::new(2.5));
/// let mut unit = PowerUnit::builder("quick")
///     .store_port(
///         PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
///         Some(Box::new(cap)), StoreRole::PrimaryBuffer, true)
///     .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
///     .build();
/// let result = run_simulation(
///     &mut unit,
///     &Environment::indoor_office(1),
///     &SensorNode::submilliwatt_class(),
///     &mut FixedDuty::new(DutyCycle::saturating(0.05)),
///     SimConfig::over(Seconds::from_hours(2.0)),
/// );
/// assert!(result.uptime > 0.9);
/// ```
pub fn run_simulation(
    platform: &mut dyn Platform,
    env: &dyn EnvSampler,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    config: SimConfig,
) -> SimResult {
    run_simulation_observed(platform, env, node, policy, config, &mut [])
}

/// [`run_simulation`] with an attached set of [`SimObserver`]s.
///
/// Every observer receives the full [`SimEvent`] stream: run and
/// control-window boundaries, per-step `Harvest`/`ConversionLoss`,
/// `StoreCharge`/`StoreDischarge`/`Shortfall` when non-zero, a
/// `PolicyChange` whenever the duty choice moves between windows, and a
/// `FaultFire` when the platform's storage capacity drops (checked at
/// window granularity, so a mid-window failure is reported at the next
/// window edge or at run end).
///
/// Passing an empty slice is exactly [`run_simulation`]: the kernel
/// skips event construction entirely, so the bare hot loop pays one
/// branch per step.
pub fn run_simulation_observed(
    platform: &mut dyn Platform,
    env: &dyn EnvSampler,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    config: SimConfig,
    observers: &mut [&mut dyn SimObserver],
) -> SimResult {
    run_simulation_core(platform, env, node, policy, config, observers, None)
        .expect("a run without a cancel token cannot be cancelled")
}

/// [`run_simulation_observed`] with a cooperative [`CancelToken`].
///
/// The token is checked once per control window; a tripped token makes
/// the kernel stop before starting the next window and return `None`
/// (partial results are discarded, never returned torn). An
/// un-cancelled run returns exactly what [`run_simulation_observed`]
/// would — the checkpoint is a read-only branch, so results are
/// bit-identical.
pub fn run_simulation_cancellable(
    platform: &mut dyn Platform,
    env: &dyn EnvSampler,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    config: SimConfig,
    observers: &mut [&mut dyn SimObserver],
    cancel: &CancelToken,
) -> Option<SimResult> {
    run_simulation_core(platform, env, node, policy, config, observers, Some(cancel))
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_simulation_core(
    platform: &mut dyn Platform,
    env: &dyn EnvSampler,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    config: SimConfig,
    observers: &mut [&mut dyn SimObserver],
    cancel: Option<&CancelToken>,
) -> Option<SimResult> {
    assert!(config.dt.value() > 0.0, "dt must be positive");
    assert!(
        config.duration >= config.dt,
        "duration must cover at least one step"
    );

    // Truncate to whole steps and close the horizon with an explicit
    // fractional step: rounding the count would simulate up to half a
    // step past (or short of) the requested span, and ceiling always
    // overshoots. The dust guard keeps exact multiples (e.g. one day of
    // 60 s steps) from growing a ~1e-13 s ghost step.
    let full_steps = (config.duration.value() / config.dt.value()).floor() as u64;
    let frac_dt = {
        let rem = config.duration.value() - full_steps as f64 * config.dt.value();
        (rem > config.dt.value() * 1e-9).then(|| Seconds::new(rem))
    };
    let steps = full_steps + u64::from(frac_dt.is_some());
    let control_every = (config.control_interval.value() / config.dt.value())
        .round()
        .max(1.0) as u64;

    let initial_stored = platform.total_stored_energy();
    let initial_losses = platform.storage_losses();

    fn emit(observers: &mut [&mut dyn SimObserver], event: SimEvent) {
        for obs in observers.iter_mut() {
            obs.on_event(&event);
        }
    }
    // When nobody is listening the hot loop must stay bare: events are
    // only constructed behind this flag.
    let observing = !observers.is_empty();
    let mut prev_duty: Option<DutyCycle> = None;
    let mut prev_capacity = platform.storage_capacity();
    let mut prev_faults = platform.fault_counts();
    let mut prev_failovers = policy.failover_count();

    // Polls the platform's fault counters (and capacity, as a fallback
    // signal for unscheduled degradation) and emits the FaultFire /
    // FaultClear events accrued since the previous poll. Count-based
    // reporting catches faults that fire *and* clear inside one control
    // window, which a capacity-drop check alone cannot see.
    fn poll_faults(
        observers: &mut [&mut dyn SimObserver],
        platform: &dyn Platform,
        t: Seconds,
        prev_capacity: &mut Joules,
        prev_faults: &mut (u64, u64),
    ) {
        let capacity = platform.storage_capacity();
        let (fires, clears) = platform.fault_counts();
        let lost = (*prev_capacity - capacity).max(Joules::ZERO);
        let restored = (capacity - *prev_capacity).max(Joules::ZERO);
        if fires > prev_faults.0 {
            // The capacity drop (if any) is attributed to the first new
            // firing; a same-window fire+clear nets to zero capacity
            // change and reports zero.
            for k in 0..fires - prev_faults.0 {
                for obs in observers.iter_mut() {
                    obs.on_event(&SimEvent::FaultFire {
                        time: t,
                        lost_capacity: if k == 0 { lost } else { Joules::ZERO },
                    });
                }
            }
        } else if capacity.value() < prev_capacity.value() {
            // No counter moved but capacity still fell: unscheduled
            // degradation (e.g. a bare FailingStorage), reported as
            // before.
            for obs in observers.iter_mut() {
                obs.on_event(&SimEvent::FaultFire {
                    time: t,
                    lost_capacity: lost,
                });
            }
        }
        if clears > prev_faults.1 {
            for k in 0..clears - prev_faults.1 {
                for obs in observers.iter_mut() {
                    obs.on_event(&SimEvent::FaultClear {
                        time: t,
                        restored_capacity: if k == 0 { restored } else { Joules::ZERO },
                    });
                }
            }
        }
        *prev_capacity = capacity;
        *prev_faults = (fires, clears);
    }
    if observing {
        emit(
            observers,
            SimEvent::RunStart {
                time: config.start_at,
            },
        );
    }

    let mut samples = 0.0;
    let mut harvested = Joules::ZERO;
    let mut delivered = Joules::ZERO;
    let mut shortfall = Joules::ZERO;
    let mut demanded = Joules::ZERO;
    let mut charged = Joules::ZERO;
    let mut discharged = Joules::ZERO;
    let mut spilled = Joules::ZERO;
    let mut overheads = Joules::ZERO;
    let mut converter_losses = Joules::ZERO;
    let mut brownout_steps = 0u64;
    let mut outage_run = 0u64;
    let mut longest_outage = 0u64;
    let mut min_v = Volts::new(f64::INFINITY);

    let mut traces = config.record.then(|| SimTraces {
        store_voltage: Trace::with_capacity("store_voltage_v", steps as usize),
        harvest_power: Trace::with_capacity("harvest_power_w", steps as usize),
        duty: Trace::with_capacity("duty_cycle", steps as usize),
    });

    // The loop advances one control window at a time: the policy's duty
    // choice — and everything derived purely from it (the node's average
    // load and per-step demand) — is loop-invariant inside a window, so
    // it is computed once on the window edge instead of every step.
    // Ambient conditions for the whole window are sampled in one
    // batched `conditions_into` call so samplers can amortize per-step
    // trig/noise setup.
    let time_at =
        |i: u64| -> Seconds { config.start_at + Seconds::new(i as f64 * config.dt.value()) };
    let window_cap = control_every.min(steps) as usize;
    let mut times: Vec<Seconds> = Vec::with_capacity(window_cap);
    let mut conditions: Vec<EnvConditions> = Vec::with_capacity(window_cap);
    // One compact record per step accumulates here for the whole window
    // and goes out in one `on_step_records` call per observer — a
    // single dynamic dispatch per window, from which each observer
    // derives exactly the per-step events of one-at-a-time emission.
    let mut step_records: Vec<StepEnergies> =
        Vec::with_capacity(if observing { window_cap } else { 0 });

    let mut window_start = 0u64;
    while window_start < steps {
        // Cancellation checkpoint: at most one control window of work
        // happens after the token trips, and a cancelled run never
        // returns a torn partial result.
        if tripped(cancel) {
            return None;
        }
        let window_end = (window_start + control_every).min(steps);
        let duty = policy.choose(node, &platform.energy_status().at(time_at(window_start)));
        let load = node.average_power(duty);
        let demand = node.step(duty, config.dt);
        let load_energy = load * config.dt;

        if observing {
            let t_win = time_at(window_start);
            emit(
                observers,
                SimEvent::WindowStart {
                    time: t_win,
                    duty,
                    load,
                    stored: platform.total_stored_energy(),
                    losses: platform.storage_losses(),
                },
            );
            if let Some(prev) = prev_duty {
                if prev != duty {
                    emit(
                        observers,
                        SimEvent::PolicyChange {
                            time: t_win,
                            from: prev,
                            to: duty,
                        },
                    );
                }
            }
            // Fault counters and capacity are polled at window
            // granularity so the hot loop stays untouched.
            poll_faults(
                observers,
                platform,
                t_win,
                &mut prev_capacity,
                &mut prev_faults,
            );
            let failovers = policy.failover_count();
            if failovers > prev_failovers {
                emit(observers, SimEvent::FailoverEngaged { time: t_win, duty });
                prev_failovers = failovers;
            }
        }
        prev_duty = Some(duty);

        times.clear();
        times.extend((window_start..window_end).map(time_at));
        env.conditions_into(&times, &mut conditions);

        for (j, &t) in times.iter().enumerate() {
            // The final step may be fractional (when the duration is not
            // an exact multiple of dt); everything per-step scales by
            // its actual width.
            let (step_dt, step_samples, step_load_energy) = match frac_dt {
                Some(frac) if window_start + j as u64 == full_steps => {
                    (frac, node.step(duty, frac).samples, load * frac)
                }
                _ => (config.dt, demand.samples, load_energy),
            };
            let report = platform.step(&conditions[j], step_dt, load);

            harvested += report.harvested;
            delivered += report.delivered;
            shortfall += report.shortfall;
            charged += report.charged;
            discharged += report.discharged;
            spilled += report.spilled;
            overheads += report.overhead;
            converter_losses += report.converter_loss;
            demanded += step_load_energy;

            if observing {
                step_records.push(StepEnergies {
                    time: t,
                    harvested: report.harvested,
                    converter_loss: report.converter_loss,
                    overhead: report.overhead,
                    charged: report.charged,
                    discharged: report.discharged,
                    shortfall: report.shortfall,
                });
            }

            let served_fraction = if report.shortfall.value() > 0.0 {
                let full = (report.delivered + report.shortfall).value();
                if full > 0.0 {
                    report.delivered.value() / full
                } else {
                    0.0
                }
            } else {
                1.0
            };
            samples += step_samples * served_fraction;

            if report.shortfall.value() > 1e-12 {
                brownout_steps += 1;
                outage_run += 1;
                longest_outage = longest_outage.max(outage_run);
            } else {
                outage_run = 0;
            }
            min_v = min_v.min(report.store_voltage);

            if let Some(tr) = traces.as_mut() {
                tr.store_voltage.push(t, report.store_voltage.value());
                tr.harvest_power
                    .push(t, (report.harvested / step_dt).value());
                tr.duty.push(t, duty.value());
            }
        }

        if observing {
            // Flush the window's buffered step records before closing
            // it, so every observer sees the step events ahead of the
            // WindowEnd edge, exactly as with per-event emission.
            for obs in observers.iter_mut() {
                obs.on_step_records(&step_records);
            }
            step_records.clear();
            let t_end = if window_end == steps {
                config.start_at + config.duration
            } else {
                time_at(window_end)
            };
            emit(
                observers,
                SimEvent::WindowEnd {
                    time: t_end,
                    stored: platform.total_stored_energy(),
                    losses: platform.storage_losses(),
                },
            );
        }
        window_start = window_end;
    }

    if observing {
        let t_end = config.start_at + config.duration;
        // Catch faults and failovers during the final window.
        poll_faults(
            observers,
            platform,
            t_end,
            &mut prev_capacity,
            &mut prev_faults,
        );
        if policy.failover_count() > prev_failovers {
            let duty = prev_duty.unwrap_or(DutyCycle::ZERO);
            emit(observers, SimEvent::FailoverEngaged { time: t_end, duty });
        }
        emit(observers, SimEvent::RunEnd { time: t_end });
    }

    // Audit. Bus: harvested + discharged − charged − spilled = served
    // demand (load input + overheads − unserved). We don't observe
    // unserved bus energy directly, but the storage identity closes the
    // loop: charged − discharged − storage losses = Δstored.
    let d_stored = platform.total_stored_energy() - initial_stored;
    let d_losses = platform.storage_losses() - initial_losses;
    let storage_residual = (charged - discharged - d_losses - d_stored).value();
    let throughput = (harvested + discharged + charged).value().max(1.0);
    let audit_residual = storage_residual.abs() / throughput;
    debug_assert!(
        audit_residual < 1e-6,
        "storage conservation violated: residual {storage_residual} J"
    );

    let uptime = if demanded.value() > 0.0 {
        1.0 - (shortfall.value() / demanded.value()).clamp(0.0, 1.0)
    } else {
        1.0
    };

    Some(SimResult {
        duration: config.duration,
        uptime,
        samples,
        harvested,
        delivered,
        shortfall,
        converter_losses,
        brownout_steps,
        longest_outage_steps: longest_outage,
        min_store_voltage: min_v,
        audit_residual,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::{PortRequirement, PowerUnit, StoreRole};
    use mseh_env::Environment;
    use mseh_harvesters::PvModule;
    use mseh_node::FixedDuty;
    use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
    use mseh_storage::Supercap;
    use mseh_units::DutyCycle;

    fn solar_unit() -> PowerUnit {
        let channel = InputChannel::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            Box::new(FractionalVoc::pv_standard()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        );
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(1.8));
        PowerUnit::builder("solar test")
            .harvester_port(
                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                Some(channel),
                true,
            )
            .store_port(
                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(cap)),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build()
    }

    #[test]
    fn day_run_harvests_and_serves() {
        let mut unit = solar_unit();
        let env = Environment::outdoor_temperate(3);
        let node = SensorNode::submilliwatt_class();
        let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
        let result = run_simulation(
            &mut unit,
            &env,
            &node,
            &mut policy,
            SimConfig::over(Seconds::from_days(1.0)),
        );
        assert!(result.harvested.value() > 10.0, "{:?}", result.harvested);
        assert!(result.uptime > 0.9, "uptime {}", result.uptime);
        assert!(result.samples > 0.0);
        assert!(result.audit_residual < 1e-6);
    }

    #[test]
    fn recording_produces_traces() {
        let mut unit = solar_unit();
        let env = Environment::outdoor_temperate(3);
        let node = SensorNode::submilliwatt_class();
        let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
        let result = run_simulation(
            &mut unit,
            &env,
            &node,
            &mut policy,
            SimConfig::day_recorded(),
        );
        let traces = result.traces.expect("recording enabled");
        assert_eq!(traces.store_voltage.len(), 1440);
        assert_eq!(traces.harvest_power.len(), 1440);
        // Noon harvest exceeds midnight harvest.
        let noon = traces.harvest_power.sample(Seconds::from_hours(12.5));
        let night = traces.harvest_power.sample(Seconds::from_hours(1.0));
        assert!(noon > night, "noon {noon} vs night {night}");
    }

    #[test]
    fn over_demanding_load_causes_brownouts() {
        let mut unit = solar_unit();
        let env = Environment::indoor_office(3); // nearly no PV energy
        let node = SensorNode::milliwatt_class();
        let mut policy = FixedDuty::new(DutyCycle::ONE);
        let result = run_simulation(
            &mut unit,
            &env,
            &node,
            &mut policy,
            SimConfig::over(Seconds::from_days(1.0)),
        );
        assert!(result.brownout_steps > 0);
        assert!(!result.zero_downtime());
        assert!(result.uptime < 1.0);
        assert!(result.longest_outage_steps > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let env = Environment::outdoor_temperate(9);
        let node = SensorNode::submilliwatt_class();
        let run = || {
            let mut unit = solar_unit();
            let mut policy = FixedDuty::new(DutyCycle::saturating(0.1));
            run_simulation(
                &mut unit,
                &env,
                &node,
                &mut policy,
                SimConfig::over(Seconds::from_hours(6.0)),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.harvested, b.harvested);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.uptime, b.uptime);
    }

    #[test]
    fn fractional_final_step_closes_the_horizon() {
        // duration = 10.5 dt must simulate exactly 10.5 dt of load — 10
        // full steps plus one half step — not 11 dt (the old ceil) or a
        // rounded count.
        let dt = Seconds::new(60.0);
        let node = SensorNode::submilliwatt_class();
        let run = |duration: Seconds| {
            let mut cap = Supercap::edlc_22f();
            cap.set_voltage(Volts::new(2.5));
            let mut unit = PowerUnit::builder("frac horizon")
                .store_port(
                    PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                    Some(Box::new(cap)),
                    StoreRole::PrimaryBuffer,
                    true,
                )
                .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                .build();
            let mut policy = FixedDuty::new(DutyCycle::ONE);
            run_simulation(
                &mut unit,
                &Environment::indoor_office(1),
                &node,
                &mut policy,
                SimConfig {
                    dt,
                    duration,
                    start_at: Seconds::ZERO,
                    control_interval: Seconds::from_minutes(10.0),
                    record: true,
                },
            )
        };

        let frac = run(Seconds::new(60.0 * 10.5));
        let whole = run(Seconds::new(60.0 * 10.0));
        assert_eq!(frac.uptime, 1.0, "store-fed load must be fully served");
        assert_eq!(whole.uptime, 1.0);

        // 10 full steps + 1 fractional step.
        let traces = frac.traces.expect("recording enabled");
        assert_eq!(traces.store_voltage.len(), 11);
        let last_t = traces.store_voltage.iter().last().unwrap().0;
        assert_eq!(last_t, Seconds::new(60.0 * 10.0));

        // Served energy scales with the true horizon: exactly 5% more
        // than the 10-step run, not 10% (which ceil would give).
        let ratio = frac.delivered.value() / whole.delivered.value();
        assert!((ratio - 1.05).abs() < 1e-9, "delivered ratio {ratio}");
        let sample_ratio = frac.samples / whole.samples;
        assert!(
            (sample_ratio - 1.05).abs() < 1e-9,
            "samples ratio {sample_ratio}"
        );

        // Exact multiples grow no ghost step.
        let exact = run(Seconds::from_days(1.0));
        assert_eq!(exact.traces.expect("recording").store_voltage.len(), 1440);
    }

    #[test]
    fn cancellable_run_matches_plain_run_and_honours_the_token() {
        let env = Environment::outdoor_temperate(5);
        let node = SensorNode::submilliwatt_class();
        let config = SimConfig::over(Seconds::from_hours(4.0));

        let mut unit = solar_unit();
        let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
        let plain = run_simulation(&mut unit, &env, &node, &mut policy, config);

        let mut unit = solar_unit();
        let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
        let token = CancelToken::new();
        let cancellable = run_simulation_cancellable(
            &mut unit,
            &env,
            &node,
            &mut policy,
            config,
            &mut [],
            &token,
        )
        .expect("token never tripped");
        assert_eq!(plain, cancellable);

        // A pre-tripped token stops the run before any window.
        let mut unit = solar_unit();
        let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
        token.cancel();
        assert!(run_simulation_cancellable(
            &mut unit,
            &env,
            &node,
            &mut policy,
            config,
            &mut [],
            &token,
        )
        .is_none());
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_zero_dt() {
        let mut unit = solar_unit();
        let env = Environment::outdoor_temperate(1);
        let node = SensorNode::submilliwatt_class();
        let mut policy = FixedDuty::new(DutyCycle::ZERO);
        run_simulation(
            &mut unit,
            &env,
            &node,
            &mut policy,
            SimConfig {
                dt: Seconds::ZERO,
                duration: Seconds::new(10.0),
                start_at: Seconds::ZERO,
                control_interval: Seconds::new(1.0),
                record: false,
            },
        );
    }
}
