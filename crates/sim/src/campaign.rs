//! Resilience campaigns: run a platform through N seeded fault
//! scenarios and measure availability.
//!
//! [`run_resilience_campaign`] is the fault-injection counterpart of
//! the seed ensemble: each seed builds a [`FaultScenario`] (platform
//! with injected fault wrappers + environment + policy + the injected
//! [`FaultSchedule`]), the scenarios fan out across the thread pool,
//! and the summary reports the metrics the survey's redundancy argument
//! actually turns on — uptime under k faults, time-to-detect,
//! time-to-recover, energy stranded, longest outage — bit-identical at
//! any thread count.
//!
//! Each scenario runs in segments of
//! [`CampaignConfig::check_interval`]; between segments an optional
//! recovery hook can repair the platform (hot-swap a spare store
//! through the management path), modelling a maintenance visit or an
//! autonomous re-route.

use crate::cancel::{tripped, CancelToken};
use crate::ensemble::Spread;
use crate::fault::FaultSchedule;
use crate::observe::{AuditReport, ConservationAuditor, SimObserver};
use crate::parallel::{par_map_with, thread_count};
use crate::platform::Platform;
use crate::runner::{run_simulation_core, SimConfig};
use mseh_env::Environment;
use mseh_node::{DutyCyclePolicy, SensorNode};
use mseh_units::{DutyCycle, Joules, Seconds};

/// Configuration of a resilience campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// The per-scenario simulation configuration (shared by all seeds).
    pub sim: SimConfig,
    /// Segment length between recovery-hook invocations. Should divide
    /// the duration evenly; a final remainder shorter than one step is
    /// dropped.
    pub check_interval: Seconds,
}

impl CampaignConfig {
    /// A campaign over `duration` with the default step/control widths
    /// and hourly recovery checks.
    pub fn over(duration: Seconds) -> Self {
        Self {
            sim: SimConfig::over(duration),
            check_interval: Seconds::from_hours(1.0),
        }
    }

    /// Sets the recovery-check segment length.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive.
    pub fn with_check_interval(mut self, interval: Seconds) -> Self {
        assert!(interval.value() > 0.0, "check interval must be positive");
        self.check_interval = interval;
        self
    }
}

/// One seeded fault scenario: a prepared platform (fault wrappers
/// already injected), its environment and policy, the injected fault
/// timeline (for detection-latency metrics), and an optional
/// between-segments recovery hook.
pub struct FaultScenario<P> {
    /// The platform under test, with fault wrappers installed.
    pub platform: P,
    /// The environment driving the scenario.
    pub env: Environment,
    /// The duty-cycle policy (possibly a `FailoverPolicy` wrapper).
    pub policy: Box<dyn DutyCyclePolicy>,
    /// The injected fault timeline, referenced when computing
    /// time-to-detect (the platform wrappers hold clones of it).
    pub schedule: FaultSchedule,
    /// Invoked between segments with the platform and the current
    /// simulation time; returns `true` when it performed a repair
    /// (counted as a recovery and as a recovery signal for
    /// time-to-recover).
    #[allow(clippy::type_complexity)]
    pub recovery: Option<Box<dyn FnMut(&mut P, Seconds) -> bool>>,
}

impl<P> FaultScenario<P> {
    /// A scenario with no recovery hook.
    pub fn new(
        platform: P,
        env: Environment,
        policy: Box<dyn DutyCyclePolicy>,
        schedule: FaultSchedule,
    ) -> Self {
        Self {
            platform,
            env,
            policy,
            schedule,
            recovery: None,
        }
    }

    /// Attaches a between-segments recovery hook.
    pub fn with_recovery(mut self, hook: impl FnMut(&mut P, Seconds) -> bool + 'static) -> Self {
        self.recovery = Some(Box::new(hook));
        self
    }
}

/// Availability metrics from one fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario's seed.
    pub seed: u64,
    /// Fraction of demanded load energy served across the horizon.
    pub uptime: f64,
    /// Total energy delivered to the load.
    pub delivered: Joules,
    /// Total unserved load energy.
    pub shortfall: Joules,
    /// Faults fired across the platform's devices.
    pub faults_fired: u64,
    /// Fired faults that cleared (devices recovered on their own).
    pub faults_cleared: u64,
    /// Times the policy engaged its failover path.
    pub failovers: u64,
    /// Times the recovery hook reported a repair.
    pub recoveries: u64,
    /// Delay from the first injected fault to its first observation
    /// (`FaultFire` at a control-window edge); `None` when the schedule
    /// is empty or nothing was detected.
    pub time_to_detect: Option<Seconds>,
    /// Delay from the first detection to the first recovery signal
    /// (`FaultClear`, `FailoverEngaged`, or a hook repair); `None` when
    /// nothing recovered.
    pub time_to_recover: Option<Seconds>,
    /// Peak energy stranded by active faults (sampled at segment
    /// boundaries).
    pub energy_stranded: Joules,
    /// Longest contiguous run of shortfall steps.
    pub longest_outage: Seconds,
    /// The per-window conservation audit across the whole scenario,
    /// held through every fault and recovery.
    pub audit: AuditReport,
}

/// Aggregate results of a resilience campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// The seeds, in the order their outcomes appear.
    pub seeds: Vec<u64>,
    /// Per-seed outcomes, seed-aligned.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Uptime across seeds.
    pub uptime: Spread,
    /// Longest outage (seconds) across seeds.
    pub longest_outage_s: Spread,
    /// Peak stranded energy (joules) across seeds.
    pub stranded_j: Spread,
    /// Mean time-to-detect over the seeds where a fault was detected.
    pub mean_time_to_detect: Option<Seconds>,
    /// Mean time-to-recover over the seeds where recovery happened.
    pub mean_time_to_recover: Option<Seconds>,
    /// Faults fired, summed over all scenarios.
    pub total_faults: u64,
    /// Fault clears, summed over all scenarios.
    pub total_clears: u64,
    /// Failover engagements, summed over all scenarios.
    pub total_failovers: u64,
    /// Hook repairs, summed over all scenarios.
    pub total_recoveries: u64,
    /// The worst per-window audit residual across all scenarios.
    pub worst_audit_relative: f64,
}

/// Tracks availability signals from the event stream: first detection,
/// first recovery signal, and outage runs stitched across segment
/// boundaries (the campaign re-enters the runner per segment, so
/// contiguity is judged by event-time gaps, not per-run step counts).
struct AvailabilityTracker {
    dt: f64,
    first_fire: Option<f64>,
    first_recovery: Option<f64>,
    outage_start: Option<f64>,
    last_shortfall: f64,
    longest_outage: f64,
}

impl AvailabilityTracker {
    fn new(dt: Seconds) -> Self {
        Self {
            dt: dt.value(),
            first_fire: None,
            first_recovery: None,
            outage_start: None,
            last_shortfall: f64::NEG_INFINITY,
            longest_outage: 0.0,
        }
    }

    fn note_recovery(&mut self, t: Seconds) {
        if self.first_fire.is_some() && self.first_recovery.is_none() {
            self.first_recovery = Some(t.value());
        }
    }
}

impl SimObserver for AvailabilityTracker {
    fn on_fault_fire(&mut self, time: Seconds, _lost: Joules) {
        if self.first_fire.is_none() {
            self.first_fire = Some(time.value());
        }
    }

    fn on_fault_clear(&mut self, time: Seconds, _restored: Joules) {
        self.note_recovery(time);
    }

    fn on_failover_engaged(&mut self, time: Seconds, _duty: DutyCycle) {
        self.note_recovery(time);
    }

    fn on_shortfall(&mut self, time: Seconds, _energy: Joules) {
        let t = time.value();
        // Steps are dt apart; a gap beyond 1.5 dt means served steps
        // (or a fractional final step) separated two outages.
        if self.outage_start.is_none() || t - self.last_shortfall > 1.5 * self.dt {
            self.outage_start = Some(t);
        }
        self.last_shortfall = t;
        let start = self.outage_start.expect("set above");
        self.longest_outage = self.longest_outage.max(t + self.dt - start);
    }
}

/// Runs one prepared scenario through the segmented kernel. Returns
/// `None` when `cancel` trips mid-scenario (checked between segments
/// and, via the kernel checkpoint, once per control window).
fn run_scenario<P: Platform>(
    seed: u64,
    mut scenario: FaultScenario<P>,
    node: &SensorNode,
    config: CampaignConfig,
    cancel: Option<&CancelToken>,
) -> Option<ScenarioOutcome> {
    let sim = config.sim;
    let mut tracker = AvailabilityTracker::new(sim.dt);
    let mut auditor = ConservationAuditor::new();
    let mut delivered = Joules::ZERO;
    let mut shortfall = Joules::ZERO;
    let mut recoveries = 0u64;
    let mut peak_stranded = Joules::ZERO;

    let total = sim.duration.value();
    let check = config.check_interval.value();
    let mut covered = 0.0;
    while total - covered >= sim.dt.value() {
        let seg = check.min(total - covered);
        let seg_config = SimConfig {
            duration: Seconds::new(seg),
            ..sim.starting_at(sim.start_at + Seconds::new(covered))
        };
        let result = run_simulation_core(
            &mut scenario.platform,
            &scenario.env,
            node,
            scenario.policy.as_mut(),
            seg_config,
            &mut [&mut tracker, &mut auditor],
            cancel,
        )?;
        delivered += result.delivered;
        shortfall += result.shortfall;
        covered += seg;
        peak_stranded = peak_stranded.max(scenario.platform.stranded_energy());
        if covered < total {
            if let Some(hook) = scenario.recovery.as_mut() {
                let now = sim.start_at + Seconds::new(covered);
                if hook(&mut scenario.platform, now) {
                    recoveries += 1;
                    tracker.note_recovery(now);
                }
            }
        }
    }

    let demanded = delivered + shortfall;
    let uptime = if demanded.value() > 0.0 {
        1.0 - (shortfall.value() / demanded.value()).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let (faults_fired, faults_cleared) = scenario.platform.fault_counts();
    let time_to_detect = match (scenario.schedule.first_fault(), tracker.first_fire) {
        (Some(injected), Some(seen)) => Some(Seconds::new((seen - injected.value()).max(0.0))),
        _ => None,
    };
    let time_to_recover = match (tracker.first_fire, tracker.first_recovery) {
        (Some(fire), Some(rec)) => Some(Seconds::new((rec - fire).max(0.0))),
        _ => None,
    };

    Some(ScenarioOutcome {
        seed,
        uptime,
        delivered,
        shortfall,
        faults_fired,
        faults_cleared,
        failovers: scenario.policy.failover_count(),
        recoveries,
        time_to_detect,
        time_to_recover,
        energy_stranded: peak_stranded,
        longest_outage: Seconds::new(tracker.longest_outage),
        audit: auditor.report(),
    })
}

/// Runs `make_scenario(seed)` for every seed, fanned across the shared
/// thread pool, and aggregates availability metrics.
///
/// Scenarios are pure functions of their seed and every draw is
/// precomputed (the stochastic [`FaultSchedule`] draws at
/// construction), so the summary is bit-for-bit identical at any
/// thread count.
///
/// # Panics
///
/// Panics if `seeds` is empty.
///
/// # Examples
///
/// ```
/// use mseh_sim::{
///     run_resilience_campaign, CampaignConfig, FaultScenario, FaultSchedule,
///     IntermittentStorage,
/// };
/// use mseh_core::{PowerUnit, StoreRole, PortRequirement};
/// use mseh_power::DcDcConverter;
/// use mseh_storage::Supercap;
/// use mseh_node::{SensorNode, FixedDuty};
/// use mseh_env::Environment;
/// use mseh_units::{DutyCycle, Seconds, Volts};
///
/// let summary = run_resilience_campaign(
///     &[1, 2, 3],
///     |seed| {
///         let mut cap = Supercap::edlc_22f();
///         cap.set_voltage(Volts::new(2.5));
///         let schedule = FaultSchedule::stochastic(
///             seed,
///             Seconds::from_hours(2.0),
///             Seconds::from_minutes(30.0),
///             Seconds::from_hours(6.0),
///         );
///         let mut unit = PowerUnit::builder("campaign demo")
///             .store_port(
///                 PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
///                 Some(Box::new(cap)), StoreRole::PrimaryBuffer, true)
///             .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
///             .build();
///         unit.instrument_store(0, |inner| {
///             Box::new(IntermittentStorage::new(inner, schedule.clone()))
///         });
///         FaultScenario::new(
///             unit,
///             Environment::indoor_office(seed),
///             Box::new(FixedDuty::new(DutyCycle::saturating(0.02))),
///             schedule,
///         )
///     },
///     &SensorNode::submilliwatt_class(),
///     CampaignConfig::over(Seconds::from_hours(6.0)),
/// );
/// assert_eq!(summary.outcomes.len(), 3);
/// assert!(summary.total_faults > 0);
/// assert!(summary.worst_audit_relative < 1e-6);
/// ```
pub fn run_resilience_campaign<P, F>(
    seeds: &[u64],
    make_scenario: F,
    node: &SensorNode,
    config: CampaignConfig,
) -> CampaignSummary
where
    P: Platform,
    F: Fn(u64) -> FaultScenario<P> + Sync,
{
    run_resilience_campaign_with_threads(thread_count(), seeds, make_scenario, node, config)
}

/// [`run_resilience_campaign`] with an explicit worker count (`1` runs
/// inline on the calling thread).
///
/// # Panics
///
/// Panics if `seeds` is empty or `threads` is zero.
pub fn run_resilience_campaign_with_threads<P, F>(
    threads: usize,
    seeds: &[u64],
    make_scenario: F,
    node: &SensorNode,
    config: CampaignConfig,
) -> CampaignSummary
where
    P: Platform,
    F: Fn(u64) -> FaultScenario<P> + Sync,
{
    assert!(!seeds.is_empty(), "need at least one seed");
    let outcomes = par_map_with(threads, seeds, |&seed| {
        run_scenario(seed, make_scenario(seed), node, config, None)
            .expect("a run without a cancel token cannot be cancelled")
    });
    summarize_campaign(seeds, outcomes)
}

/// [`run_resilience_campaign`] as a daemon-facing entry point:
/// validation errors come back as `Err` instead of panicking, a
/// cooperative [`CancelToken`] stops the campaign within one control
/// window of compute per in-flight scenario (`Ok(None)`), and an
/// optional `progress` callback reports `(completed, total)` scenario
/// counts as workers finish them.
///
/// `threads == 0` selects [`thread_count`]. An un-cancelled campaign is
/// bit-identical to [`run_resilience_campaign_with_threads`] at any
/// thread count.
pub fn run_resilience_campaign_cancellable<P, F>(
    threads: usize,
    seeds: &[u64],
    make_scenario: F,
    node: &SensorNode,
    config: CampaignConfig,
    cancel: &CancelToken,
    progress: Option<&(dyn Fn(u64, u64) + Sync)>,
) -> Result<Option<CampaignSummary>, String>
where
    P: Platform,
    F: Fn(u64) -> FaultScenario<P> + Sync,
{
    if seeds.is_empty() {
        return Err("campaign needs at least one seed".into());
    }
    let sim = config.sim;
    if !(sim.dt.value().is_finite() && sim.dt.value() > 0.0) {
        return Err(format!("dt must be positive and finite, got {}", sim.dt));
    }
    if !sim.duration.value().is_finite() || sim.duration < sim.dt {
        return Err(format!(
            "duration {} must be finite and cover at least one step of {}",
            sim.duration, sim.dt
        ));
    }
    if !(config.check_interval.value().is_finite() && config.check_interval.value() > 0.0) {
        return Err(format!(
            "check interval must be positive and finite, got {}",
            config.check_interval
        ));
    }
    let threads = if threads == 0 {
        thread_count()
    } else {
        threads
    };
    // Counted and reported under one lock, so concurrent workers report
    // strictly increasing counts.
    let done = std::sync::Mutex::new(0u64);
    let total = seeds.len() as u64;
    let outcomes = par_map_with(threads, seeds, |&seed| {
        if tripped(Some(cancel)) {
            return None;
        }
        let outcome = run_scenario(seed, make_scenario(seed), node, config, Some(cancel));
        if outcome.is_some() {
            let mut done = done.lock().unwrap_or_else(|e| e.into_inner());
            *done += 1;
            if let Some(report) = progress {
                report(*done, total);
            }
        }
        outcome
    });
    let outcomes: Option<Vec<ScenarioOutcome>> = outcomes.into_iter().collect();
    Ok(outcomes.map(|outcomes| summarize_campaign(seeds, outcomes)))
}

fn summarize_campaign(seeds: &[u64], outcomes: Vec<ScenarioOutcome>) -> CampaignSummary {
    let uptimes: Vec<f64> = outcomes.iter().map(|o| o.uptime).collect();
    let outages: Vec<f64> = outcomes.iter().map(|o| o.longest_outage.value()).collect();
    let stranded: Vec<f64> = outcomes.iter().map(|o| o.energy_stranded.value()).collect();
    let mean_of = |values: Vec<f64>| -> Option<Seconds> {
        if values.is_empty() {
            None
        } else {
            Some(Seconds::new(
                values.iter().sum::<f64>() / values.len() as f64,
            ))
        }
    };
    let detects: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.time_to_detect.map(|t| t.value()))
        .collect();
    let recovers: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.time_to_recover.map(|t| t.value()))
        .collect();
    CampaignSummary {
        seeds: seeds.to_vec(),
        uptime: Spread::of(&uptimes),
        longest_outage_s: Spread::of(&outages),
        stranded_j: Spread::of(&stranded),
        mean_time_to_detect: mean_of(detects),
        mean_time_to_recover: mean_of(recovers),
        total_faults: outcomes.iter().map(|o| o.faults_fired).sum(),
        total_clears: outcomes.iter().map(|o| o.faults_cleared).sum(),
        total_failovers: outcomes.iter().map(|o| o.failovers).sum(),
        total_recoveries: outcomes.iter().map(|o| o.recoveries).sum(),
        worst_audit_relative: outcomes
            .iter()
            .map(|o| o.audit.worst_relative)
            .fold(0.0, f64::max),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::IntermittentStorage;
    use mseh_core::{PortRequirement, PowerUnit, StoreRole};
    use mseh_power::DcDcConverter;
    use mseh_storage::Supercap;
    use mseh_units::{DutyCycle, Volts};

    fn unit_with_fault(schedule: FaultSchedule) -> PowerUnit {
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(2.5));
        let mut unit = PowerUnit::builder("campaign test")
            .store_port(
                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(cap)),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build();
        assert!(unit.instrument_store(0, |inner| {
            Box::new(IntermittentStorage::new(inner, schedule))
        }));
        unit
    }

    fn scenario(seed: u64) -> FaultScenario<PowerUnit> {
        let schedule = FaultSchedule::stochastic(
            seed,
            Seconds::from_hours(1.5),
            Seconds::from_minutes(40.0),
            Seconds::from_hours(6.0),
        );
        FaultScenario::new(
            unit_with_fault(schedule.clone()),
            Environment::indoor_office(seed),
            Box::new(mseh_node::FixedDuty::new(DutyCycle::saturating(0.05))),
            schedule,
        )
    }

    #[test]
    fn campaign_reports_faults_and_stays_conserved() {
        let summary = run_resilience_campaign_with_threads(
            1,
            &[7, 8, 9],
            scenario,
            &SensorNode::submilliwatt_class(),
            CampaignConfig::over(Seconds::from_hours(6.0)),
        );
        assert_eq!(summary.outcomes.len(), 3);
        assert!(summary.total_faults > 0, "{summary:?}");
        assert!(summary.worst_audit_relative < 1e-6, "{summary:?}");
        // Detection happens at the window edge after the injected time.
        let detect = summary.mean_time_to_detect.expect("faults detected");
        assert!(detect.value() >= 0.0);
        for outcome in &summary.outcomes {
            assert!(outcome.uptime >= 0.0 && outcome.uptime <= 1.0);
            assert_eq!(
                outcome.faults_fired,
                outcome.faults_cleared + u64::from(outcome.faults_fired > outcome.faults_cleared)
            );
        }
    }

    #[test]
    fn recovery_hook_runs_between_segments() {
        let mut summary_recoveries = 0;
        // A hook that always claims a repair: one call per interior
        // segment boundary.
        let summary = run_resilience_campaign_with_threads(
            1,
            &[3],
            |seed| scenario(seed).with_recovery(|_unit, _now| true),
            &SensorNode::submilliwatt_class(),
            CampaignConfig::over(Seconds::from_hours(3.0))
                .with_check_interval(Seconds::from_hours(1.0)),
        );
        summary_recoveries += summary.total_recoveries;
        assert_eq!(summary_recoveries, 2);
    }

    #[test]
    fn cancellable_campaign_matches_plain_and_honours_the_token() {
        let node = SensorNode::submilliwatt_class();
        let config = CampaignConfig::over(Seconds::from_hours(3.0));
        let plain = run_resilience_campaign_with_threads(1, &[7, 8], scenario, &node, config);
        let token = CancelToken::new();
        let same =
            run_resilience_campaign_cancellable(1, &[7, 8], scenario, &node, config, &token, None)
                .expect("valid config")
                .expect("token never tripped");
        assert_eq!(plain, same);

        token.cancel();
        let cancelled =
            run_resilience_campaign_cancellable(1, &[7, 8], scenario, &node, config, &token, None)
                .expect("valid config");
        assert!(cancelled.is_none());

        let empty = run_resilience_campaign_cancellable(
            1,
            &[],
            scenario,
            &node,
            config,
            &CancelToken::new(),
            None,
        );
        assert!(empty.is_err());
    }

    #[test]
    fn progress_counts_strictly_increase_to_the_total() {
        let seeds = [7, 8, 9, 10, 11];
        let node = SensorNode::submilliwatt_class();
        let config = CampaignConfig::over(Seconds::from_hours(1.0));
        for threads in [1, 2, 3] {
            let reports = std::sync::Mutex::new(Vec::new());
            let progress = |done: u64, total: u64| {
                assert_eq!(total, seeds.len() as u64);
                reports.lock().unwrap().push(done);
            };
            run_resilience_campaign_cancellable(
                threads,
                &seeds,
                scenario,
                &node,
                config,
                &CancelToken::new(),
                Some(&progress),
            )
            .expect("valid config")
            .expect("token never tripped");
            let reports = reports.into_inner().unwrap();
            assert!(
                reports.windows(2).all(|w| w[0] < w[1]),
                "{threads} threads: {reports:?}"
            );
            assert_eq!(reports.last(), Some(&(seeds.len() as u64)));
        }
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_empty_seed_list() {
        run_resilience_campaign_with_threads(
            1,
            &[],
            scenario,
            &SensorNode::submilliwatt_class(),
            CampaignConfig::over(Seconds::from_hours(1.0)),
        );
    }
}
