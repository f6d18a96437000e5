//! Policy-evaluation arena: lockstep multi-policy tournaments over a
//! shared environment trace.
//!
//! The survey's future-work proposal is intelligence co-located with
//! the harvesting subsystem; choosing *which* intelligence means
//! evaluating N candidate policies over M seeded scenarios. Run
//! naively that is N×M full simulations — yet every one of those runs
//! re-samples the same seeded [`Environment`] and re-solves the same
//! harvest operating points, because harvest is independent of the
//! load the policy schedules. The arena amortizes that shared work:
//! per (scenario, seed) it samples the environment **once**, builds
//! the per-step harvest table **once** (the fleet engine's
//! [`build_harvest_table`], sound by the replay contract of
//! [`mseh_power::InputChannel::is_replayable`]), and steps all N policy
//! lanes in lockstep against it, with per-lane store state held
//! struct-of-arrays so the batched solve kernels
//! ([`mseh_storage::SupercapLanes`], [`mseh_storage::BatteryLanes`])
//! apply across policy lanes exactly as they do across fleet nodes.
//!
//! Boxed platforms get the same amortization when they can split their
//! step ([`Platform::split_step`]): per seed one driver platform streams
//! the environment one control window at a time through its harvest
//! half, filling a table of two `f64` per step (bus harvest and
//! overhead), and every lane replays that table through its own settle
//! half — lanes never solve a harvest, and no per-step condition rows
//! are kept. The driver takes every step an independent run takes, so
//! no replay contract is needed beyond [`Platform::split_step`]'s.
//! Platforms that cannot split (forwarding wrappers that implement only
//! `step`) step lane by lane against the seed's sampled condition rows.
//!
//! # Bit-identity
//!
//! Under the default per-step cadence every lane's trajectory is
//! bit-identical to an independent [`run_simulation`] of that policy
//! against the same scenario — same iterate sequence, full-summary
//! equality — because the lane arithmetic is the fleet engine's, which
//! carries that contract already. Seeds fan out across threads via the
//! sharded [`par_map_with`] merge and fold in seed order, so results
//! are bit-identical at any thread count. Rankings therefore reflect
//! policy behaviour alone, never scheduling.
//!
//! # Examples
//!
//! ```
//! use mseh_sim::{run_arena, ArenaConfig, ArenaSpec, Contender, DenseClass, DenseStore};
//! use mseh_env::Environment;
//! use mseh_node::{FixedDuty, SensorNode, VoltageThreshold};
//! use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
//! use mseh_harvesters::PvModule;
//! use mseh_storage::Supercap;
//! use mseh_units::{DutyCycle, Seconds};
//!
//! let spec = ArenaSpec::dense(
//!     "pv shoot-out",
//!     SensorNode::submilliwatt_class(),
//!     DenseClass::new(
//!         || InputChannel::new(
//!             Box::new(PvModule::outdoor_panel_half_watt()),
//!             Box::new(FractionalVoc::pv_standard()),
//!             Box::new(IdealDiode::nanopower()),
//!             Box::new(DcDcConverter::mppt_front_end_5v()),
//!         ),
//!         DcDcConverter::buck_boost_3v3(),
//!         DenseStore::Supercap(Supercap::edlc_22f()),
//!     ),
//!     |seed| Environment::outdoor_temperate(seed),
//! )
//! .with_contender(Contender::new("fixed-5%", |_| {
//!     Box::new(FixedDuty::new(DutyCycle::saturating(0.05)))
//! }))
//! .with_contender(Contender::new("ladder", |_| {
//!     Box::new(VoltageThreshold::supercap_ladder())
//! }))
//! .with_seeds(&[1, 2]);
//! let out = run_arena(&spec, ArenaConfig::over(Seconds::from_hours(2.0)));
//! assert_eq!(out.summary.standings.len(), 2);
//! assert_eq!(out.summary.standings[0].rank, 1);
//! ```

use crate::cancel::{tripped, CancelToken};
use crate::fleet::dense_lanes::{run_battery_lanes, run_supercap_lanes, LanePopulation};
use crate::fleet::{
    build_harvest_table, percentile, simulate_node, simulate_node_dense, DenseClass,
    DenseSolveTier, DenseStore, EnvCadence, FleetControl, HarvestSource, NodeOutcome,
    PlatformFactory, PolicyFactory, StepPlan, UptimePercentiles,
};
use crate::parallel::{par_map_with, thread_count};
use crate::platform::Platform;
#[cfg(doc)]
use crate::runner::run_simulation;
use crate::runner::{SimConfig, SimResult};
use mseh_core::{BusHarvest, PowerUnit};
use mseh_env::{EnvConditions, EnvSampler, Environment, JitterFactors};
use mseh_node::{
    DayProfileForecast, DutyCyclePolicy, EnergyNeutral, FailoverPolicy, FixedDuty,
    ForecastDutySelect, HillClimbDuty, SensorNode, VoltageThreshold,
};
use mseh_power::HarvestStep;
use mseh_units::{DutyCycle, Joules, Seconds, Volts};

/// Builds the scenario environment from a seed.
pub type EnvFactory = dyn Fn(u64) -> Environment + Send + Sync;

/// One policy entered in the tournament: a display name plus a factory
/// that builds a fresh policy instance per (scenario, seed). The
/// factory receives the scenario seed, so stochastic policies (e.g.
/// [`HillClimbDuty`]) derive their randomness deterministically per
/// seed — the bit-identity contract's requirement.
pub struct Contender {
    name: String,
    policy: Box<PolicyFactory>,
}

impl Contender {
    /// Declares a contender.
    pub fn new(
        name: &str,
        policy: impl Fn(u64) -> Box<dyn DutyCyclePolicy> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            policy: Box::new(policy),
        }
    }

    /// The contender's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the policy instance this contender enters for a scenario
    /// seed — what each arena lane runs, exposed so harnesses can
    /// reproduce a lane with an independent [`run_simulation`].
    pub fn build(&self, seed: u64) -> Box<dyn DutyCyclePolicy> {
        (self.policy)(seed)
    }
}

impl core::fmt::Debug for Contender {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Contender")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// The hardware every policy lane runs on.
enum ArenaPlatform {
    /// Arbitrary platforms behind dynamic dispatch, rebuilt per
    /// (scenario seed, lane) by the factory. Lanes replay one driver's
    /// harvest table when the platform can split its step, and step
    /// against sampled rows otherwise; both are bit-identical to
    /// standalone runs.
    Boxed(Box<PlatformFactory>),
    /// The monomorphized single-channel/single-store shape: lanes
    /// share one harvest table and step on the batched
    /// struct-of-arrays kernels.
    Dense(Box<DenseClass>),
}

/// The tournament definition: one scenario (node, platform shape, and
/// seeded environment family), N contender policies, and K seeds.
/// Every (contender, seed) pair becomes one policy lane.
pub struct ArenaSpec {
    name: String,
    node: SensorNode,
    platform: ArenaPlatform,
    env: Box<EnvFactory>,
    contenders: Vec<Contender>,
    seeds: Vec<u64>,
}

impl ArenaSpec {
    /// A scenario on boxed platforms: `platform` builds each lane's
    /// unit from the scenario seed (every lane of a seed gets an
    /// identically-built platform — heterogeneity belongs to the
    /// policies under test, not the hardware).
    pub fn boxed(
        name: &str,
        node: SensorNode,
        platform: impl Fn(u64) -> Box<dyn Platform> + Send + Sync + 'static,
        env: impl Fn(u64) -> Environment + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            node,
            platform: ArenaPlatform::Boxed(Box::new(platform)),
            env: Box::new(env),
            contenders: Vec::new(),
            seeds: vec![0],
        }
    }

    /// A scenario on the dense single-channel/single-store shape:
    /// lanes replay one shared harvest table and step batched. The
    /// declaration is trusted exactly as [`crate::DenseGroup`]'s is.
    pub fn dense(
        name: &str,
        node: SensorNode,
        class: DenseClass,
        env: impl Fn(u64) -> Environment + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            node,
            platform: ArenaPlatform::Dense(Box::new(class)),
            env: Box::new(env),
            contenders: Vec::new(),
            seeds: vec![0],
        }
    }

    /// Enters one contender.
    pub fn with_contender(mut self, contender: Contender) -> Self {
        self.contenders.push(contender);
        self
    }

    /// Enters a batch of contenders (e.g. [`default_contenders`]).
    pub fn with_contenders(mut self, contenders: impl IntoIterator<Item = Contender>) -> Self {
        self.contenders.extend(contenders);
        self
    }

    /// Sets the scenario seeds (default: the single seed `0`). Each
    /// seed samples its own environment trace; rankings aggregate
    /// across all of them.
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// The scenario's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entered contenders, in declaration order.
    pub fn contenders(&self) -> &[Contender] {
        &self.contenders
    }

    /// The scenario seeds.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Total policy lanes: contenders × seeds.
    pub fn lanes(&self) -> u64 {
        self.contenders.len() as u64 * self.seeds.len() as u64
    }
}

impl core::fmt::Debug for ArenaSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ArenaSpec")
            .field("name", &self.name)
            .field("contenders", &self.contenders.len())
            .field("seeds", &self.seeds)
            .finish_non_exhaustive()
    }
}

/// Configuration of one arena run.
#[derive(Debug, Clone, Copy)]
pub struct ArenaConfig {
    /// Per-lane stepping parameters. `record` is ignored: lanes never
    /// keep per-step traces.
    pub sim: SimConfig,
    /// Worker threads fanning out over seeds (`0` = [`thread_count`]).
    /// Results are bit-identical at any value.
    pub threads: usize,
    /// How often lanes re-sample scenario conditions. The default
    /// [`EnvCadence::PerStep`] is bit-identical to standalone
    /// [`run_simulation`] runs; [`EnvCadence::PerWindow`] is the
    /// fleet-scale semantic (dense scenarios then require a replayable
    /// channel, as dense fleet groups do).
    pub cadence: EnvCadence,
    /// Solve tier for dense scenarios (default
    /// [`DenseSolveTier::Batched`], bit-identical to
    /// [`DenseSolveTier::Scalar`]).
    pub dense_tier: DenseSolveTier,
    /// Also return a full [`SimResult`] per lane, in seed-major lane
    /// order (`seed_index × contenders + contender_index`).
    pub keep_lane_results: bool,
}

impl ArenaConfig {
    /// Arena defaults over `duration`: 60 s steps, 10-minute control
    /// windows, per-step cadence (standalone-run bit-identity), auto
    /// threads, batched dense tier.
    pub fn over(duration: Seconds) -> Self {
        Self {
            sim: SimConfig::over(duration),
            threads: 0,
            cadence: EnvCadence::PerStep,
            dense_tier: DenseSolveTier::Batched,
            keep_lane_results: false,
        }
    }

    /// Sets an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Switches to per-window condition sampling (the fleet-scale
    /// semantic; no longer bit-identical to standalone runs).
    pub fn windowed_env(mut self) -> Self {
        self.cadence = EnvCadence::PerWindow;
        self
    }

    /// Sets the dense-lane solve tier.
    pub fn with_dense_tier(mut self, tier: DenseSolveTier) -> Self {
        self.dense_tier = tier;
        self
    }

    /// Keeps a full per-lane [`SimResult`] vector on the result.
    pub fn keep_lane_results(mut self) -> Self {
        self.keep_lane_results = true;
        self
    }
}

/// One contender's aggregate line in the final ranking, folded across
/// all scenario seeds in seed order (bit-identical at any thread
/// count).
#[derive(Debug, Clone, PartialEq)]
pub struct ContenderStanding {
    /// The contender's display name.
    pub name: String,
    /// 1-based rank after sorting (1 = winner).
    pub rank: usize,
    /// Energy-weighted served fraction across all seeds:
    /// `1 − shortfall / demanded`.
    pub served_fraction: f64,
    /// Distribution of the contender's per-seed uptimes.
    pub uptime: UptimePercentiles,
    /// Total bus energy harvested across seeds.
    pub harvested: Joules,
    /// Total energy delivered to the load.
    pub delivered: Joules,
    /// Total unserved load energy.
    pub shortfall: Joules,
    /// Total load energy demanded.
    pub demanded: Joules,
    /// Total output-stage conversion loss.
    pub converter_losses: Joules,
    /// Energy stranded by active faults at run end, summed over seeds.
    pub stranded_energy: Joules,
    /// Total application samples delivered (shortfall-weighted).
    pub samples: f64,
    /// Steps with any shortfall, summed over seeds.
    pub brownout_steps: u64,
    /// Longest consecutive-shortfall run in any seed.
    pub longest_outage_steps: u64,
    /// Minimum store voltage seen in any seed.
    pub min_store_voltage: Volts,
    /// Seeds this contender finished with zero brown-out steps
    /// (energy-neutral under the survey's operating criterion).
    pub energy_neutral_seeds: u64,
    /// Failover-mode entries counted by the policy (non-zero only for
    /// [`FailoverPolicy`]-wrapped contenders).
    pub failovers: u64,
    /// Worst single-lane conservation residual for this contender.
    pub worst_audit: f64,
}

/// Aggregate results of an arena run. All totals fold per-lane results
/// in (seed, contender) order, so they are bit-identical at any thread
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaSummary {
    /// Contenders entered.
    pub contenders: u64,
    /// Scenario seeds evaluated.
    pub seeds: u64,
    /// Policy lanes simulated (`contenders × seeds`).
    pub lanes: u64,
    /// Steps each lane took (including the fractional closer, if any).
    pub steps_per_lane: u64,
    /// Simulated span per lane.
    pub duration: Seconds,
    /// Contender lines ranked best first (rank 1 at index 0): by
    /// served fraction, then mean uptime, then samples delivered, then
    /// name.
    pub standings: Vec<ContenderStanding>,
    /// Arena-aggregated conservation residual: |Σ signed per-lane
    /// residuals| over total storage throughput (≈0; < 1e-6 asserted
    /// in debug builds).
    pub audit_relative: f64,
}

/// Everything an arena run returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaResult {
    /// Rankings and aggregates over all lanes.
    pub summary: ArenaSummary,
    /// Per-lane results when [`ArenaConfig::keep_lane_results`] is
    /// set, in seed-major lane order.
    pub lane_results: Option<Vec<SimResult>>,
}

/// The stock tournament roster: the survey's incumbent fixed ladders
/// and reactive controllers plus the adaptive extensions — forecast
/// budgeting and selection over a learned diurnal profile, seeded
/// hill-climbing duty search, and a failover-wrapped incumbent.
pub fn default_contenders() -> Vec<Contender> {
    vec![
        Contender::new("fixed-2%", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.02)))
        }),
        Contender::new("fixed-10%", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.10)))
        }),
        Contender::new("fixed-50%", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.50)))
        }),
        Contender::new("voltage-ladder", |_| {
            Box::new(VoltageThreshold::supercap_ladder())
        }),
        Contender::new("energy-neutral", |_| Box::new(EnergyNeutral::new())),
        Contender::new("failover(energy-neutral)", |_| {
            Box::new(FailoverPolicy::new(Box::new(EnergyNeutral::new())))
        }),
        Contender::new("forecast-budget-12h", |_| {
            Box::new(DayProfileForecast::new(Seconds::from_hours(12.0)))
        }),
        Contender::new("forecast-select-12h", |_| {
            Box::new(ForecastDutySelect::new(Seconds::from_hours(12.0)))
        }),
        Contender::new("hill-climb", |seed| Box::new(HillClimbDuty::new(seed))),
    ]
}

/// One finished policy lane: the node-level outcome plus the policy's
/// own failover count read back after the run.
struct LaneOutcome {
    outcome: NodeOutcome,
    failovers: u64,
}

/// Runs the tournament described by `spec` under `config`.
///
/// # Panics
///
/// Panics on an empty roster or seed list, a non-positive `dt`, or a
/// duration shorter than one step. Long-running embeddings that must
/// survive a malformed spec (the `mseh serve` daemon) use
/// [`run_arena_controlled`], which reports those as `Err` instead.
pub fn run_arena(spec: &ArenaSpec, config: ArenaConfig) -> ArenaResult {
    match run_arena_controlled(spec, config, FleetControl::default()) {
        Ok(Some(result)) => result,
        Ok(None) => unreachable!("no cancel token was installed"),
        Err(message) => panic!("{message}"),
    }
}

/// [`run_arena`] as a daemon-facing entry point: spec/config validation
/// errors come back as `Err` instead of panicking, and a
/// [`FleetControl`] supplies optional cooperative cancellation
/// (`Ok(None)` when the token trips — partial results are discarded,
/// never returned torn) and progress reporting (counts are lanes). An
/// un-cancelled run returns exactly [`run_arena`]'s result, bit for
/// bit.
pub fn run_arena_controlled(
    spec: &ArenaSpec,
    config: ArenaConfig,
    control: FleetControl<'_>,
) -> Result<Option<ArenaResult>, String> {
    let cancel = control.cancel;
    let n = spec.contenders.len();
    if n == 0 {
        return Err("arena needs at least one contender".into());
    }
    if spec.seeds.is_empty() {
        return Err("arena needs at least one seed".into());
    }
    let sim = config.sim;
    if !(sim.dt.value().is_finite() && sim.dt.value() > 0.0) {
        return Err(format!("dt must be positive and finite, got {}", sim.dt));
    }
    if !sim.duration.value().is_finite() || sim.duration < sim.dt {
        return Err(format!(
            "duration must cover at least one step and be finite, got {} at dt {}",
            sim.duration, sim.dt
        ));
    }
    if !(sim.control_interval.value().is_finite() && sim.control_interval.value() > 0.0) {
        return Err(format!(
            "control interval must be positive and finite, got {}",
            sim.control_interval
        ));
    }

    let plan = StepPlan::from_sim(sim, config.cadence);
    let times = plan.table_times();
    let lanes_total = spec.lanes();
    let threads = if config.threads == 0 {
        thread_count()
    } else {
        config.threads
    };

    // One shard per scenario seed: the row solves its harvest once —
    // the shared table (dense) or one driver platform (boxed) — and
    // steps all N policy lanes against it. Rows fold back in seed
    // order, so thread count never touches a bit. Lanes are counted and
    // reported under one lock, so concurrent rows report strictly
    // increasing counts.
    let done_lanes = std::sync::Mutex::new(0u64);
    let seed_indices: Vec<usize> = (0..spec.seeds.len()).collect();
    let run_row = |&si: &usize| -> Vec<LaneOutcome> {
        let seed = spec.seeds[si];
        let mut row: Vec<LaneOutcome> = Vec::with_capacity(n);
        if tripped(cancel) {
            return row;
        }
        let env = (spec.env)(seed);
        let mut policies: Vec<Box<dyn DutyCyclePolicy>> =
            spec.contenders.iter().map(|c| (c.policy)(seed)).collect();

        match &spec.platform {
            ArenaPlatform::Dense(class) => {
                // The shared work: one channel drives the full step
                // sequence; every lane replays the table.
                let mut rows: Vec<EnvConditions> = Vec::new();
                env.conditions_into(&times, &mut rows);
                let mut table: Vec<HarvestStep> = Vec::new();
                if build_harvest_table(
                    &mut (class.channel)(),
                    &rows,
                    &JitterFactors::IDENTITY,
                    false,
                    &plan,
                    cancel,
                    &mut table,
                )
                .is_none()
                {
                    return row;
                }
                if config.dense_tier == DenseSolveTier::Scalar {
                    // Reference tier: per-lane scalar store calls
                    // against the shared table.
                    for policy in policies.iter_mut() {
                        let outcome = match &class.store {
                            DenseStore::Supercap(s) => simulate_node_dense(
                                s,
                                &class.output,
                                class.supervisor_overhead,
                                class.monitoring,
                                &spec.node,
                                policy.as_mut(),
                                &table,
                                &plan,
                                cancel,
                            ),
                            DenseStore::Battery(b) => simulate_node_dense(
                                b,
                                &class.output,
                                class.supervisor_overhead,
                                class.monitoring,
                                &spec.node,
                                policy.as_mut(),
                                &table,
                                &plan,
                                cancel,
                            ),
                        };
                        match outcome {
                            Some(o) => row.push(LaneOutcome {
                                outcome: o,
                                failovers: 0,
                            }),
                            None => return row,
                        }
                    }
                } else {
                    // Batched tier: all policy lanes step as one
                    // struct-of-arrays population.
                    let mut out: Vec<NodeOutcome> = Vec::with_capacity(n);
                    let mut pop = LanePopulation {
                        node: &spec.node,
                        output: &class.output,
                        supervisor_overhead: class.supervisor_overhead,
                        monitoring: class.monitoring,
                        policies: &mut policies,
                    };
                    let ok = match &class.store {
                        DenseStore::Supercap(template) => {
                            run_supercap_lanes(&mut pop, template, &table, &plan, cancel, &mut out)
                        }
                        DenseStore::Battery(template) => {
                            run_battery_lanes(&mut pop, template, &table, &plan, cancel, &mut out)
                        }
                    };
                    if !ok {
                        return row;
                    }
                    row.extend(out.into_iter().map(|o| LaneOutcome {
                        outcome: o,
                        failovers: 0,
                    }));
                }
            }
            ArenaPlatform::Boxed(factory) => {
                // A driver that can split solves every step's harvest
                // half once; lanes replay its table. A driver that cannot
                // split becomes the first lane, and lanes step against
                // sampled rows instead.
                let mut driver = factory(seed);
                let mut table: Vec<BusHarvest> = Vec::new();
                let split = match driver.split_step() {
                    Some(unit) => {
                        if build_bus_table(unit, &env, &plan, cancel, &mut table).is_none() {
                            return row;
                        }
                        true
                    }
                    None => false,
                };
                let mut spare = (!split).then_some(driver);
                let mut rows: Vec<EnvConditions> = Vec::new();
                for policy in policies.iter_mut() {
                    let mut platform = spare.take().unwrap_or_else(|| factory(seed));
                    let source = if split && platform.split_step().is_some() {
                        HarvestSource::Replay { table: &table }
                    } else {
                        if rows.is_empty() {
                            env.conditions_into(&times, &mut rows);
                        }
                        HarvestSource::Env {
                            rows: &rows,
                            factors: &JitterFactors::IDENTITY,
                            jittered: false,
                        }
                    };
                    match simulate_node(
                        platform.as_mut(),
                        &spec.node,
                        policy.as_mut(),
                        &source,
                        &plan,
                        cancel,
                    ) {
                        Some(o) => row.push(LaneOutcome {
                            outcome: o,
                            failovers: 0,
                        }),
                        None => return row,
                    }
                }
            }
        }

        // Read failover counts back from the policies themselves.
        for (lane, policy) in row.iter_mut().zip(policies.iter()) {
            lane.failovers = policy.failover_count();
        }

        if let Some(report) = control.progress {
            let mut done = done_lanes.lock().unwrap_or_else(|e| e.into_inner());
            *done += n as u64;
            report(*done, lanes_total);
        }
        row
    };

    let rows_out = par_map_with(threads.max(1), &seed_indices, run_row);

    // A tripped token may have left rows short; partial results are
    // discarded wholesale rather than folded torn.
    let completed: u64 = rows_out.iter().map(|r| r.len() as u64).sum();
    if tripped(cancel) || completed != lanes_total {
        return Ok(None);
    }

    // Per-contender fold across seeds, in seed order.
    struct Agg {
        harvested: Joules,
        delivered: Joules,
        shortfall: Joules,
        demanded: Joules,
        converter_losses: Joules,
        stranded: Joules,
        samples: f64,
        brownout_steps: u64,
        longest_outage: u64,
        min_v: Volts,
        neutral_seeds: u64,
        failovers: u64,
        worst_audit: f64,
        uptimes: Vec<f64>,
    }
    let mut aggs: Vec<Agg> = (0..n)
        .map(|_| Agg {
            harvested: Joules::ZERO,
            delivered: Joules::ZERO,
            shortfall: Joules::ZERO,
            demanded: Joules::ZERO,
            converter_losses: Joules::ZERO,
            stranded: Joules::ZERO,
            samples: 0.0,
            brownout_steps: 0,
            longest_outage: 0,
            min_v: Volts::new(f64::INFINITY),
            neutral_seeds: 0,
            failovers: 0,
            worst_audit: 0.0,
            uptimes: Vec::with_capacity(spec.seeds.len()),
        })
        .collect();

    let mut residual_signed = 0.0;
    let mut throughput = 0.0;
    let mut lane_results = config
        .keep_lane_results
        .then(|| Vec::with_capacity(lanes_total as usize));

    for row in &rows_out {
        for (ci, lane) in row.iter().enumerate() {
            let o = &lane.outcome;
            let a = &mut aggs[ci];
            a.harvested += o.harvested;
            a.delivered += o.delivered;
            a.shortfall += o.shortfall;
            a.demanded += o.demanded;
            a.converter_losses += o.converter_losses;
            a.stranded += o.stranded;
            a.samples += o.samples;
            a.brownout_steps += o.brownout_steps;
            a.longest_outage = a.longest_outage.max(o.longest_outage_steps);
            a.min_v = a.min_v.min(o.min_store_voltage);
            a.neutral_seeds += u64::from(o.brownout_steps == 0);
            a.failovers += lane.failovers;
            a.worst_audit = a.worst_audit.max(o.audit_residual);
            a.uptimes.push(o.uptime);

            residual_signed += o.residual_signed;
            throughput += o.throughput;
            if let Some(results) = lane_results.as_mut() {
                results.push(o.to_sim_result(plan.duration));
            }
        }
    }

    let mut standings: Vec<ContenderStanding> = aggs
        .into_iter()
        .zip(&spec.contenders)
        .map(|(a, c)| {
            let mut sorted = a.uptimes.clone();
            sorted.sort_by(f64::total_cmp);
            let mean = a.uptimes.iter().sum::<f64>() / a.uptimes.len() as f64;
            let uptime = UptimePercentiles {
                min: sorted[0],
                p05: percentile(&sorted, 0.05),
                p25: percentile(&sorted, 0.25),
                p50: percentile(&sorted, 0.50),
                p75: percentile(&sorted, 0.75),
                p95: percentile(&sorted, 0.95),
                max: sorted[sorted.len() - 1],
                mean,
            };
            let served_fraction = if a.demanded.value() > 0.0 {
                1.0 - (a.shortfall.value() / a.demanded.value()).clamp(0.0, 1.0)
            } else {
                1.0
            };
            ContenderStanding {
                name: c.name.clone(),
                rank: 0,
                served_fraction,
                uptime,
                harvested: a.harvested,
                delivered: a.delivered,
                shortfall: a.shortfall,
                demanded: a.demanded,
                converter_losses: a.converter_losses,
                stranded_energy: a.stranded,
                samples: a.samples,
                brownout_steps: a.brownout_steps,
                longest_outage_steps: a.longest_outage,
                min_store_voltage: a.min_v,
                energy_neutral_seeds: a.neutral_seeds,
                failovers: a.failovers,
                worst_audit: a.worst_audit,
            }
        })
        .collect();

    // Rank: served fraction, then mean uptime, then samples delivered,
    // then name — all total orders, so the ranking is deterministic.
    standings.sort_by(|a, b| {
        b.served_fraction
            .total_cmp(&a.served_fraction)
            .then(b.uptime.mean.total_cmp(&a.uptime.mean))
            .then(b.samples.total_cmp(&a.samples))
            .then(a.name.cmp(&b.name))
    });
    for (i, s) in standings.iter_mut().enumerate() {
        s.rank = i + 1;
    }

    let audit_relative = residual_signed.abs() / throughput.max(1.0);
    debug_assert!(
        audit_relative < 1e-6,
        "arena-aggregated conservation residual {residual_signed} J"
    );

    Ok(Some(ArenaResult {
        summary: ArenaSummary {
            contenders: n as u64,
            seeds: spec.seeds.len() as u64,
            lanes: lanes_total,
            steps_per_lane: plan.steps,
            duration: plan.duration,
            standings,
            audit_relative,
        },
        lane_results,
    }))
}

/// Streams one seed's environment through `driver`'s harvest half one
/// control window at a time, filling the per-step table boxed lanes
/// replay. The driver takes exactly the step sequence an independent
/// run takes — every step, at the plan's widths — so its channel state
/// ends where each lane's own would. Returns `None` when `cancel` trips,
/// checked once per window.
fn build_bus_table(
    driver: &mut PowerUnit,
    env: &Environment,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<BusHarvest>,
) -> Option<()> {
    out.clear();
    out.reserve(plan.steps as usize);
    let mut times: Vec<Seconds> = Vec::with_capacity(plan.control_every as usize);
    let mut window: Vec<EnvConditions> = Vec::with_capacity(plan.control_every as usize);
    let mut window_start = 0u64;
    while window_start < plan.steps {
        if tripped(cancel) {
            return None;
        }
        let window_end = (window_start + plan.control_every).min(plan.steps);
        times.clear();
        match plan.cadence {
            EnvCadence::PerStep => {
                times.extend((window_start..window_end).map(|j| plan.time_at(j)))
            }
            EnvCadence::PerWindow => times.push(plan.time_at(window_start)),
        }
        env.conditions_into(&times, &mut window);
        for j in window_start..window_end {
            let step_dt = match plan.frac_dt {
                Some(frac) if j == plan.full_steps => frac,
                _ => plan.dt,
            };
            let conditions = match plan.cadence {
                EnvCadence::PerStep => &window[(j - window_start) as usize],
                EnvCadence::PerWindow => &window[0],
            };
            out.push(driver.harvest(conditions, step_dt));
        }
        window_start = window_end;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::runner::run_simulation;
    use mseh_core::{
        IntelligenceLocation, InterfaceKind, PortRequirement, PowerUnit, StoreRole, Supervisor,
    };
    use mseh_harvesters::PvModule;
    use mseh_node::MonitoringLevel;
    use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
    use mseh_storage::Supercap;
    use mseh_units::Volts;

    fn solar_channel() -> InputChannel {
        InputChannel::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            Box::new(FractionalVoc::pv_standard()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        )
    }

    fn solar_cap() -> Supercap {
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(1.8));
        cap
    }

    fn full_supervisor() -> Supervisor {
        Supervisor {
            location: IntelligenceLocation::PowerUnit,
            monitoring: MonitoringLevel::Full,
            interface: InterfaceKind::Digital { two_way: false },
            overhead: mseh_units::Watts::ZERO,
        }
    }

    fn solar_unit() -> PowerUnit {
        PowerUnit::builder("arena node")
            .harvester_port(
                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                Some(solar_channel()),
                true,
            )
            .store_port(
                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(solar_cap())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .supervisor(full_supervisor())
            .build()
    }

    /// The dense declaration of exactly the hardware in [`solar_unit`].
    fn solar_class() -> DenseClass {
        DenseClass::new(
            solar_channel,
            DcDcConverter::buck_boost_3v3(),
            DenseStore::Supercap(solar_cap()),
        )
        .with_monitoring(MonitoringLevel::Full)
    }

    fn mixed_roster() -> Vec<Contender> {
        vec![
            Contender::new("fixed-2%", |_| {
                Box::new(FixedDuty::new(DutyCycle::saturating(0.02)))
            }),
            Contender::new("fixed-20%", |_| {
                Box::new(FixedDuty::new(DutyCycle::saturating(0.20)))
            }),
            Contender::new("ladder", |_| Box::new(VoltageThreshold::supercap_ladder())),
            Contender::new("energy-neutral", |_| Box::new(EnergyNeutral::new())),
            Contender::new("hill-climb", |seed| Box::new(HillClimbDuty::new(seed))),
        ]
    }

    fn boxed_spec() -> ArenaSpec {
        ArenaSpec::boxed(
            "boxed",
            SensorNode::submilliwatt_class(),
            |_| Box::new(solar_unit()),
            Environment::outdoor_temperate,
        )
        .with_contenders(mixed_roster())
        .with_seeds(&[11, 12, 13])
    }

    fn dense_spec() -> ArenaSpec {
        ArenaSpec::dense(
            "dense",
            SensorNode::submilliwatt_class(),
            solar_class(),
            Environment::outdoor_temperate,
        )
        .with_contenders(mixed_roster())
        .with_seeds(&[11, 12, 13])
    }

    #[test]
    fn every_lane_matches_its_independent_run() {
        let horizon = Seconds::from_hours(3.0);
        let out = run_arena(
            &boxed_spec(),
            ArenaConfig::over(horizon).keep_lane_results(),
        );
        let lanes = out.lane_results.expect("kept");
        let spec = boxed_spec();
        for (si, &seed) in spec.seeds().iter().enumerate() {
            for (ci, contender) in spec.contenders().iter().enumerate() {
                let mut platform = solar_unit();
                let mut policy = (contender.policy)(seed);
                let reference = run_simulation(
                    &mut platform,
                    &Environment::outdoor_temperate(seed),
                    &SensorNode::submilliwatt_class(),
                    policy.as_mut(),
                    SimConfig::over(horizon),
                );
                assert_eq!(
                    lanes[si * spec.contenders().len() + ci],
                    reference,
                    "lane ({seed}, {})",
                    contender.name()
                );
            }
        }
    }

    /// Forwards every [`Platform`] query to a [`PowerUnit`] but does not
    /// offer [`Platform::split_step`], so arenas take the per-lane path.
    struct StepOnly(PowerUnit);

    impl Platform for StepOnly {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn step(
            &mut self,
            env: &EnvConditions,
            dt: Seconds,
            load: mseh_units::Watts,
        ) -> mseh_core::StepReport {
            self.0.step(env, dt, load)
        }
        fn energy_status(&self) -> mseh_node::EnergyStatus {
            self.0.energy_status()
        }
        fn total_stored_energy(&self) -> Joules {
            self.0.total_stored_energy()
        }
        fn storage_losses(&self) -> Joules {
            self.0.storage_losses()
        }
        fn storage_capacity(&self) -> Joules {
            self.0.storage_capacity()
        }
    }

    fn step_only_spec() -> ArenaSpec {
        ArenaSpec::boxed(
            "step only",
            SensorNode::submilliwatt_class(),
            |_| Box::new(StepOnly(solar_unit())),
            Environment::outdoor_temperate,
        )
        .with_contenders(mixed_roster())
        .with_seeds(&[11, 12, 13])
    }

    /// Three hours, and three hours plus half a step (a fractional
    /// closing step).
    const HORIZONS: [f64; 2] = [3.0 * 3600.0, 3.0 * 3600.0 + 30.0];

    #[test]
    fn replayed_lanes_match_independent_runs_at_any_thread_count() {
        let spec = boxed_spec();
        for horizon in HORIZONS.map(Seconds::new) {
            for threads in [1, 2, 3] {
                let out = run_arena(
                    &spec,
                    ArenaConfig::over(horizon)
                        .with_threads(threads)
                        .keep_lane_results(),
                );
                let lanes = out.lane_results.expect("kept");
                for (si, &seed) in spec.seeds().iter().enumerate() {
                    for (ci, contender) in spec.contenders().iter().enumerate() {
                        let reference = run_simulation(
                            &mut solar_unit(),
                            &Environment::outdoor_temperate(seed),
                            &SensorNode::submilliwatt_class(),
                            contender.build(seed).as_mut(),
                            SimConfig::over(horizon),
                        );
                        assert_eq!(
                            lanes[si * spec.contenders().len() + ci],
                            reference,
                            "{horizon} {threads} threads lane ({seed}, {})",
                            contender.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn replayed_lanes_match_the_per_lane_path_under_both_cadences() {
        for horizon in HORIZONS.map(Seconds::new) {
            for windowed in [false, true] {
                let per_lane = {
                    let config = ArenaConfig::over(horizon)
                        .with_threads(1)
                        .keep_lane_results();
                    let config = if windowed {
                        config.windowed_env()
                    } else {
                        config
                    };
                    run_arena(&step_only_spec(), config)
                };
                for threads in [1, 2, 3] {
                    let config = ArenaConfig::over(horizon)
                        .with_threads(threads)
                        .keep_lane_results();
                    let config = if windowed {
                        config.windowed_env()
                    } else {
                        config
                    };
                    let replayed = run_arena(&boxed_spec(), config);
                    let label = format!("{horizon} windowed={windowed} {threads} threads");
                    assert_eq!(replayed.lane_results, per_lane.lane_results, "{label}");
                    assert_eq!(replayed.summary, per_lane.summary, "{label}");
                }
            }
        }
    }

    #[test]
    fn progress_counts_strictly_increase_to_the_total() {
        let spec = boxed_spec().with_seeds(&[11, 12, 13, 14, 15]);
        for threads in [1, 2, 3] {
            let reports = std::sync::Mutex::new(Vec::new());
            let progress = |done: u64, total: u64| {
                assert_eq!(total, spec.lanes());
                reports.lock().unwrap().push(done);
            };
            run_arena_controlled(
                &spec,
                ArenaConfig::over(Seconds::from_hours(1.0)).with_threads(threads),
                FleetControl {
                    cancel: None,
                    progress: Some(&progress),
                },
            )
            .expect("valid spec")
            .expect("not cancelled");
            let reports = reports.into_inner().unwrap();
            assert!(
                reports.windows(2).all(|w| w[0] < w[1]),
                "{threads} threads: {reports:?}"
            );
            assert_eq!(reports.last(), Some(&spec.lanes()));
        }
    }

    #[test]
    fn cancellation_during_the_table_build_returns_none() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// An output stage that trips the shared token on the
        /// `trip_at`-th `advance` across every platform built.
        struct Tripwire {
            inner: DcDcConverter,
            token: CancelToken,
            advances: Arc<AtomicU64>,
            trip_at: u64,
        }
        impl mseh_power::PowerStage for Tripwire {
            fn name(&self) -> &str {
                "tripwire"
            }
            fn quiescent(&self) -> mseh_units::Watts {
                self.inner.quiescent()
            }
            fn accepts_input_voltage(&self, v_in: Volts) -> bool {
                self.inner.accepts_input_voltage(v_in)
            }
            fn output_voltage(&self) -> Volts {
                self.inner.output_voltage()
            }
            fn output_for_input(&self, p: mseh_units::Watts, v: Volts) -> mseh_units::Watts {
                self.inner.output_for_input(p, v)
            }
            fn input_for_output(&self, p: mseh_units::Watts, v: Volts) -> mseh_units::Watts {
                self.inner.input_for_output(p, v)
            }
            fn advance(&mut self, _dt: Seconds) {
                if self.advances.fetch_add(1, Ordering::SeqCst) + 1 == self.trip_at {
                    self.token.cancel();
                }
            }
        }

        let token = CancelToken::new();
        let advances = Arc::new(AtomicU64::new(0));
        // One seed, 3 h at 60 s: 180 driver steps in 10-step windows;
        // trip inside the third window.
        let spec = {
            let (token, advances) = (token.clone(), Arc::clone(&advances));
            ArenaSpec::boxed(
                "tripwire",
                SensorNode::submilliwatt_class(),
                move |_| {
                    let mut unit = solar_unit();
                    let (token, advances) = (token.clone(), Arc::clone(&advances));
                    unit.instrument_output_stage(move |_| {
                        Box::new(Tripwire {
                            inner: DcDcConverter::buck_boost_3v3(),
                            token,
                            advances,
                            trip_at: 25,
                        })
                    });
                    Box::new(unit)
                },
                Environment::outdoor_temperate,
            )
            .with_contenders(mixed_roster())
            .with_seeds(&[11])
        };
        let out = run_arena_controlled(
            &spec,
            ArenaConfig::over(Seconds::from_hours(3.0)),
            FleetControl {
                cancel: Some(&token),
                progress: None,
            },
        )
        .expect("valid spec");
        assert!(out.is_none());
        // The driver stopped at the next window edge; no lane stepped.
        assert_eq!(advances.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn dense_lanes_match_boxed_lanes_bitwise() {
        let horizon = Seconds::from_hours(3.0);
        let config = ArenaConfig::over(horizon).keep_lane_results();
        let dense = run_arena(&dense_spec(), config);
        let boxed = run_arena(&boxed_spec(), config);
        assert_eq!(dense.lane_results, boxed.lane_results);
        assert_eq!(dense.summary.standings, boxed.summary.standings);
    }

    #[test]
    fn dense_tiers_agree_bitwise() {
        let horizon = Seconds::from_hours(2.0);
        let batched = run_arena(
            &dense_spec(),
            ArenaConfig::over(horizon).keep_lane_results(),
        );
        let scalar = run_arena(
            &dense_spec(),
            ArenaConfig::over(horizon)
                .with_dense_tier(DenseSolveTier::Scalar)
                .keep_lane_results(),
        );
        assert_eq!(batched.lane_results, scalar.lane_results);
        assert_eq!(batched.summary, scalar.summary);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let reference = run_arena(
            &dense_spec(),
            ArenaConfig::over(Seconds::from_hours(2.0)).with_threads(1),
        );
        for threads in [2, 3, 7] {
            let out = run_arena(
                &dense_spec(),
                ArenaConfig::over(Seconds::from_hours(2.0)).with_threads(threads),
            );
            assert_eq!(out.summary, reference.summary, "{threads} threads");
        }
    }

    #[test]
    fn standings_rank_by_served_fraction() {
        // A starving load: the big fixed duty must brown out, the tiny
        // one serves nearly everything.
        let spec = ArenaSpec::boxed(
            "starved",
            SensorNode::milliwatt_class(),
            |_| Box::new(solar_unit()),
            Environment::indoor_office,
        )
        .with_contender(Contender::new("greedy", |_| {
            Box::new(FixedDuty::new(DutyCycle::ONE))
        }))
        .with_contender(Contender::new("frugal", |_| {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.01)))
        }))
        .with_seeds(&[5]);
        let out = run_arena(&spec, ArenaConfig::over(Seconds::from_hours(6.0)));
        let s = &out.summary.standings;
        assert_eq!(s[0].name, "frugal");
        assert_eq!(s[0].rank, 1);
        assert_eq!(s[1].name, "greedy");
        assert_eq!(s[1].rank, 2);
        assert!(s[0].served_fraction > s[1].served_fraction);
    }

    #[test]
    fn cancellation_returns_none() {
        let token = CancelToken::new();
        token.cancel();
        let out = run_arena_controlled(
            &dense_spec(),
            ArenaConfig::over(Seconds::from_hours(2.0)),
            FleetControl {
                cancel: Some(&token),
                progress: None,
            },
        )
        .expect("valid spec");
        assert!(out.is_none());
    }

    #[test]
    fn rejects_empty_roster_and_seeds() {
        let no_contenders = ArenaSpec::dense(
            "empty",
            SensorNode::submilliwatt_class(),
            solar_class(),
            Environment::outdoor_temperate,
        );
        assert!(run_arena_controlled(
            &no_contenders,
            ArenaConfig::over(Seconds::from_hours(1.0)),
            FleetControl::default(),
        )
        .is_err());
        let no_seeds = dense_spec().with_seeds(&[]);
        assert!(run_arena_controlled(
            &no_seeds,
            ArenaConfig::over(Seconds::from_hours(1.0)),
            FleetControl::default(),
        )
        .is_err());
    }

    #[test]
    fn default_roster_is_adaptive_and_distinct() {
        let roster = default_contenders();
        assert!(roster.len() >= 8);
        let mut names: Vec<&str> = roster.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), roster.len(), "duplicate contender names");
        for want in [
            "forecast-budget-12h",
            "forecast-select-12h",
            "hill-climb",
            "failover(energy-neutral)",
        ] {
            assert!(roster.iter().any(|c| c.name() == want), "missing {want}");
        }
    }

    #[test]
    fn failover_counts_surface_in_standings() {
        // A harsh indoor scenario collapses the store under an
        // aggressive inner policy; the wrapper's trips must surface.
        let spec = ArenaSpec::boxed(
            "failover probe",
            SensorNode::milliwatt_class(),
            |_| Box::new(solar_unit()),
            Environment::indoor_office,
        )
        .with_contender(Contender::new("failover(greedy)", |_| {
            Box::new(FailoverPolicy::new(Box::new(FixedDuty::new(
                DutyCycle::ONE,
            ))))
        }))
        .with_seeds(&[3]);
        let out = run_arena(&spec, ArenaConfig::over(Seconds::from_hours(12.0)));
        let standing = &out.summary.standings[0];
        assert!(
            standing.failovers > 0,
            "expected failover trips, got {standing:?}"
        );
    }
}
