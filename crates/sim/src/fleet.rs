//! Fleet-scale simulation: thousands-to-millions of heterogeneous nodes
//! stepped in one run.
//!
//! The survey's deployments are not single nodes: a structural-health or
//! agricultural network (System D's MPWiNode, System G's Enviromote) is a
//! *population* of harvesting platforms scattered over a handful of sites,
//! each node seeing slightly different conditions. The fleet engine models
//! exactly that:
//!
//! * a small set of **sites** (seeded [`Environment`]s), whose condition
//!   fields are sampled once per site into a contiguous table and shared
//!   read-only by every member node;
//! * **groups** of nodes per site (platform class × policy × load),
//!   each node built from a per-node seed so populations can be
//!   heterogeneous;
//! * optional per-node **jitter** ([`EnvJitter`]): seeded multiplicative
//!   spread on each ambient channel, so co-sited nodes decorrelate the
//!   way shaded/sun-struck panels on neighbouring poles do.
//!
//! Nodes never interact, so the engine shards the population across the
//! crate's scoped worker pool, heaviest shards first, and merges
//! per-shard results in shard order. Every per-node trajectory is a pure
//! function of the spec and config, which makes the whole run
//! **bit-identical at any thread count
//! and any shard size** — the same guarantee the ensemble runner gives,
//! extended to populations.
//!
//! # Environment cadence
//!
//! [`EnvCadence::PerStep`] gives each step its own snapshot and is
//! bit-identical to running [`crate::run_simulation`] once per node.
//! [`EnvCadence::PerWindow`] samples each site once per control window
//! and holds that snapshot (including its `time` field) for every step in
//! the window — the fleet-scale semantic: condition fields move at
//! control cadence. Where every channel is replayable, a window's
//! harvest is solved once and replayed for its remaining steps: dense
//! groups through a shared harvest table (see below), boxed nodes that
//! can split their step ([`Platform::split_step`]) by replaying their
//! window head's harvest. Bit-identical either way, by the replay
//! contract of [`InputChannel::is_replayable`].
//!
//! # The dense lane
//!
//! Most survey deployments are populations of one *shape*: a single
//! harvester channel feeding a single buffer through one output
//! converter. [`DenseGroup`] declares that shape with concrete types, and
//! the engine runs it on a monomorphized fast path: the expensive
//! operating-point solve is hoisted out of the per-node loop (one
//! representative channel is driven once per control window and its
//! [`HarvestStep`]s fanned out to every member — exact by the replay
//! contract: an env-pure controller on a time-invariant chain gives
//! identical outputs and state for identical `(env, dt)`, see
//! [`InputChannel::is_replayable`]), while the per-step store balance
//! runs over the concrete storage type with no dynamic dispatch. A dense
//! node is bit-identical to the same hardware built as a
//! [`mseh_core::PowerUnit`] in a boxed [`FleetGroup`] — the tests assert
//! it — the lane only removes redundant work, never changes arithmetic.
//!
//! Dense groups additionally step on a **batched struct-of-arrays
//! tier** ([`DenseSolveTier`]): contiguous runs of member nodes become
//! lanes of one [`mseh_storage::SupercapLanes`] or
//! [`mseh_storage::BatteryLanes`] population, and the per-step store
//! updates run as masked whole-lane passes over contiguous `f64`
//! arrays instead of one call per node (supercap energy→voltage Newton
//! inversions as fixed-iteration batch passes, battery self-discharge
//! as one `powf` per distinct idle `dt` lane-wide). The batch kernels
//! replicate the scalar iterate sequence exactly (see
//! [`mseh_units::BatchSolve`]), so the batched tier is bit-identical to
//! the scalar one. Boxed [`FleetGroup`]s
//! whose members match a monomorphized class can borrow the same
//! kernels via [`FleetGroup::with_dense_class`].
//!
//! # Examples
//!
//! ```
//! use mseh_sim::{run_fleet, FleetConfig, FleetGroup, FleetSpec};
//! use mseh_core::{PortRequirement, PowerUnit, StoreRole};
//! use mseh_env::Environment;
//! use mseh_node::{FixedDuty, SensorNode};
//! use mseh_power::DcDcConverter;
//! use mseh_storage::Supercap;
//! use mseh_units::{DutyCycle, Seconds, Volts};
//!
//! let mut spec = FleetSpec::new();
//! let site = spec.add_site(Environment::indoor_office(42));
//! spec.add_group(
//!     FleetGroup::new(
//!         "buffered nodes",
//!         100,
//!         site,
//!         SensorNode::submilliwatt_class(),
//!         |_seed| {
//!             let mut cap = Supercap::edlc_22f();
//!             cap.set_voltage(Volts::new(2.5));
//!             Box::new(
//!                 PowerUnit::builder("node")
//!                     .store_port(
//!                         PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
//!                         Some(Box::new(cap)),
//!                         StoreRole::PrimaryBuffer,
//!                         true,
//!                     )
//!                     .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
//!                     .build(),
//!             )
//!         },
//!         |_seed| Box::new(FixedDuty::new(DutyCycle::saturating(0.05))),
//!     )
//!     .with_seed(7),
//! );
//! let out = run_fleet(&spec, FleetConfig::over(Seconds::from_hours(2.0)));
//! assert_eq!(out.summary.population, 100);
//! assert!(out.summary.audit_relative < 1e-6);
//! ```

use crate::cancel::{tripped, CancelToken};
use crate::parallel::{par_map_with, thread_count};
use crate::platform::Platform;
use crate::runner::{SimConfig, SimResult};
use mseh_core::BusHarvest;
use mseh_env::rng::{Noise, StreamId};
use mseh_env::{EnvConditions, EnvJitter, EnvSampler, Environment, JitterFactors};
use mseh_node::{DutyCyclePolicy, EnergyStatus, MonitoringLevel, SensorNode};
use mseh_power::{DcDcConverter, HarvestStep, InputChannel, PowerStage};
use mseh_storage::{Battery, Storage, Supercap};
use mseh_units::{Joules, Ratio, Seconds, Volts, Watts};
use std::cmp::Reverse;

pub(crate) mod dense_lanes;

/// Stream on each group's seed from which per-node seeds are drawn
/// (disjoint from the environment's reserved streams and the jitter
/// streams 100+, which run on the *node* seed).
const NODE_SEED_STREAM: StreamId = StreamId(90);

/// How often member nodes re-sample their site's conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvCadence {
    /// A fresh snapshot every step — bit-identical to running
    /// [`crate::run_simulation`] once per node against the site.
    PerStep,
    /// One snapshot per control window, held (including its `time`
    /// field) for every step in the window. This is the fleet-scale
    /// semantic: conditions move at control cadence. A replayable
    /// channel ([`InputChannel::is_replayable`]) then returns the same
    /// [`HarvestStep`] for every step in the window, which is what lets
    /// the engine solve each window's harvest once and replay it.
    PerWindow,
}

/// How the dense lane solves its per-node storage updates.
///
/// [`Scalar`](Self::Scalar) and [`Batched`](Self::Batched) are
/// bit-identical by contract: the batch kernels replicate the scalar
/// iterate sequence under a convergence mask instead of inventing a new
/// numerical scheme (see [`mseh_units::BatchSolve`]), and the tests
/// assert full [`FleetSummary`] equality between the tiers.
///
/// The tier governs every [`DenseGroup`] — supercap-store *and*
/// battery-store — plus boxed [`FleetGroup`]s opted in via
/// [`FleetGroup::with_dense_class`]. Groups the gate cannot cover (jittered under per-step cadence, or a channel without
/// window-lane support) fall back to the scalar path — same results,
/// scalar speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseSolveTier {
    /// Per-node scalar [`mseh_storage::Storage`] calls — the reference
    /// path.
    Scalar,
    /// Struct-of-arrays Newton passes over contiguous lanes (fixed
    /// iteration schedule under a convergence mask, no per-node early
    /// exit). Bit-identical to [`Scalar`](Self::Scalar).
    Batched,
}

/// Builds one node's platform from its per-node seed.
pub type PlatformFactory = dyn Fn(u64) -> Box<dyn Platform> + Send + Sync;
/// Builds one node's duty-cycle policy from its per-node seed.
pub type PolicyFactory = dyn Fn(u64) -> Box<dyn DutyCyclePolicy> + Send + Sync;

/// A homogeneous slice of the fleet: `count` nodes of one platform class
/// at one site, sharing a load model and policy kind. Per-node seeds let
/// the factories introduce intra-group heterogeneity.
pub struct FleetGroup {
    name: String,
    count: usize,
    site: usize,
    seed: u64,
    jitter: EnvJitter,
    node: SensorNode,
    platform: Box<PlatformFactory>,
    policy: Box<PolicyFactory>,
    // Boxed: the class template embeds a full store and would otherwise
    // dominate every FleetGroup's footprint (clippy: large_enum_variant
    // on GroupEntry).
    dense_class: Option<Box<DenseClass>>,
}

impl FleetGroup {
    /// A group of `count` nodes at site index `site`, with no jitter and
    /// group seed 0. The factories receive each node's derived seed.
    pub fn new(
        name: &str,
        count: usize,
        site: usize,
        node: SensorNode,
        platform: impl Fn(u64) -> Box<dyn Platform> + Send + Sync + 'static,
        policy: impl Fn(u64) -> Box<dyn DutyCyclePolicy> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            count,
            site,
            seed: 0,
            jitter: EnvJitter::NONE,
            node,
            platform: Box::new(platform),
            policy: Box::new(policy),
            dense_class: None,
        }
    }

    /// Sets the group seed from which per-node seeds are derived.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-node environment jitter applied to the site's
    /// conditions (seeded per node; [`EnvJitter::NONE`] is bit-exact
    /// pass-through).
    pub fn with_jitter(mut self, jitter: EnvJitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Opts the group's members into the dense lane kernels by
    /// declaring the monomorphized class they all match (see
    /// [`DenseClass`]). When the batched gate is open
    /// ([`DenseSolveTier`] other than scalar; jittered groups
    /// additionally need per-window cadence and a window-batchable
    /// channel) the engine solves the members on the struct-of-arrays
    /// kernels instead of boxed [`Platform::step`] calls, keeping boxed
    /// per-node bookkeeping (per-node seeds, policies and jitter
    /// factors are derived exactly as the boxed path derives them).
    ///
    /// The declaration is a contract: every member the factory builds
    /// must match the class. The engine verifies the first member at
    /// run start — the platform must report
    /// [`Platform::supports_dense_kernels`] and its storage books must
    /// match the declared template bit for bit — and rejects the run
    /// otherwise; heterogeneity beyond member 0 is the caller's
    /// responsibility. Summaries equal the plain boxed path's in full.
    pub fn with_dense_class(mut self, class: DenseClass) -> Self {
        self.dense_class = Some(Box::new(class));
        self
    }

    /// The group's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes in the group.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl core::fmt::Debug for FleetGroup {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FleetGroup")
            .field("name", &self.name)
            .field("count", &self.count)
            .field("site", &self.site)
            .field("seed", &self.seed)
            .field("jitter", &self.jitter)
            .finish_non_exhaustive()
    }
}

/// Builds a dense-lane group's input channel. Every member node shares
/// one channel definition (that homogeneity is what lets the engine
/// hoist the operating-point solve out of the per-node loop);
/// intra-group spread comes from [`EnvJitter`], not the factory.
pub type ChannelFactory = dyn Fn() -> InputChannel + Send + Sync;

/// The concrete storage buffer of a dense-lane group, cloned per node
/// from the template (including its initial state of charge).
#[derive(Debug, Clone)]
pub enum DenseStore {
    /// A supercapacitor buffer.
    Supercap(Supercap),
    /// A battery buffer.
    Battery(Battery),
}

/// The monomorphized dense-lane class a boxed [`FleetGroup`] declares
/// its members match so they may borrow the batched struct-of-arrays
/// kernels ([`FleetGroup::with_dense_class`]): the concrete channel,
/// output converter and store template plus the supervisor overhead and
/// monitoring tier — the same parts a [`DenseGroup`] declares directly.
///
/// Defaults match [`DenseGroup::new`]: zero supervisor overhead and
/// [`MonitoringLevel::Full`] reporting; override with the builders to
/// mirror the members' actual supervisor.
pub struct DenseClass {
    pub(crate) channel: Box<ChannelFactory>,
    pub(crate) output: DcDcConverter,
    pub(crate) store: DenseStore,
    pub(crate) supervisor_overhead: Watts,
    pub(crate) monitoring: MonitoringLevel,
}

impl DenseClass {
    /// Declares a class from its concrete parts. The channel factory
    /// must build the same channel every member's platform carries;
    /// the store template must match each member's device bit for bit
    /// (the engine cross-checks capacity, stored energy and losses
    /// against member 0 at run start).
    pub fn new(
        channel: impl Fn() -> InputChannel + Send + Sync + 'static,
        output: DcDcConverter,
        store: DenseStore,
    ) -> Self {
        Self {
            channel: Box::new(channel),
            output,
            store,
            supervisor_overhead: Watts::ZERO,
            monitoring: MonitoringLevel::Full,
        }
    }

    /// Sets the supervisory standing draw (the members'
    /// `Supervisor::overhead`).
    pub fn with_supervisor_overhead(mut self, overhead: Watts) -> Self {
        self.supervisor_overhead = overhead;
        self
    }

    /// Sets the monitoring tier (the members' `Supervisor::monitoring`;
    /// the lane kernels model no sense-ADC quantization, which the
    /// platform probe enforces).
    pub fn with_monitoring(mut self, monitoring: MonitoringLevel) -> Self {
        self.monitoring = monitoring;
        self
    }
}

impl core::fmt::Debug for DenseClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DenseClass")
            .field("store", &self.store)
            .field("supervisor_overhead", &self.supervisor_overhead)
            .field("monitoring", &self.monitoring)
            .finish_non_exhaustive()
    }
}

/// A homogeneous platform class on the fleet's **dense lane**: `count`
/// nodes of the survey's most common shape — one harvester channel, one
/// buffer, one output converter — stepped by a monomorphized kernel with
/// the channel solve shared across the group.
///
/// Semantics are identical to a [`FleetGroup`] whose platform is a
/// [`mseh_core::PowerUnit`] with the same parts and a default supervisor
/// (override the overhead and monitoring tier with
/// [`with_supervisor_overhead`](Self::with_supervisor_overhead) /
/// [`with_monitoring`](Self::with_monitoring)). Under
/// [`EnvCadence::PerWindow`] the channel must be replayable
/// ([`InputChannel::is_replayable`]) — true for the gated controllers
/// (fixed-point, fractional-V_oc with its sample interval inside `dt`);
/// the engine asserts it at run start.
pub struct DenseGroup {
    name: String,
    count: usize,
    site: usize,
    seed: u64,
    jitter: EnvJitter,
    node: SensorNode,
    channel: Box<ChannelFactory>,
    output: DcDcConverter,
    store: DenseStore,
    supervisor_overhead: Watts,
    monitoring: MonitoringLevel,
    policy: Box<PolicyFactory>,
}

impl DenseGroup {
    /// A dense group of `count` nodes at site index `site`, with no
    /// jitter, group seed 0, zero supervisor overhead and
    /// [`MonitoringLevel::Full`] energy reporting.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        count: usize,
        site: usize,
        node: SensorNode,
        channel: impl Fn() -> InputChannel + Send + Sync + 'static,
        output: DcDcConverter,
        store: DenseStore,
        policy: impl Fn(u64) -> Box<dyn DutyCyclePolicy> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            count,
            site,
            seed: 0,
            jitter: EnvJitter::NONE,
            node,
            channel: Box::new(channel),
            output,
            store,
            supervisor_overhead: Watts::ZERO,
            monitoring: MonitoringLevel::Full,
            policy: Box::new(policy),
        }
    }

    /// Sets the group seed from which per-node seeds are derived.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-node environment jitter (jittered dense nodes drive
    /// their own channel once per window instead of sharing the group
    /// table).
    pub fn with_jitter(mut self, jitter: EnvJitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the supervisory standing draw (the boxed equivalent's
    /// `Supervisor::overhead`).
    pub fn with_supervisor_overhead(mut self, overhead: Watts) -> Self {
        self.supervisor_overhead = overhead;
        self
    }

    /// Sets the monitoring tier the policy's [`EnergyStatus`] is clamped
    /// to (the boxed equivalent's `Supervisor::monitoring`; no sense-ADC
    /// quantization on the dense lane).
    pub fn with_monitoring(mut self, monitoring: MonitoringLevel) -> Self {
        self.monitoring = monitoring;
        self
    }

    /// The group's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes in the group.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl core::fmt::Debug for DenseGroup {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DenseGroup")
            .field("name", &self.name)
            .field("count", &self.count)
            .field("site", &self.site)
            .field("seed", &self.seed)
            .field("jitter", &self.jitter)
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

/// One population entry of a [`FleetSpec`]: either lane.
#[derive(Debug)]
pub enum GroupEntry {
    /// Arbitrary platforms behind dynamic dispatch ([`FleetGroup`]).
    Boxed(FleetGroup),
    /// The monomorphized single-channel/single-store lane
    /// ([`DenseGroup`], boxed: its inline store model dwarfs the
    /// boxed lane's pointers, and entries are per-group, not per-node).
    Dense(Box<DenseGroup>),
}

impl GroupEntry {
    /// The group's display name.
    pub fn name(&self) -> &str {
        match self {
            GroupEntry::Boxed(g) => &g.name,
            GroupEntry::Dense(g) => &g.name,
        }
    }

    /// Number of nodes in the group.
    pub fn count(&self) -> usize {
        match self {
            GroupEntry::Boxed(g) => g.count,
            GroupEntry::Dense(g) => g.count,
        }
    }

    /// The group's site index.
    pub fn site(&self) -> usize {
        match self {
            GroupEntry::Boxed(g) => g.site,
            GroupEntry::Dense(g) => g.site,
        }
    }
}

/// The fleet's population: sites plus node groups assigned to them.
/// Global node indices run in group declaration order (group 0's nodes
/// first), which fixes the deterministic merge order.
#[derive(Debug, Default)]
pub struct FleetSpec {
    sites: Vec<Environment>,
    groups: Vec<GroupEntry>,
}

impl FleetSpec {
    /// An empty spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a site environment, returning its index for
    /// [`FleetGroup::new`]'s `site` argument.
    pub fn add_site(&mut self, env: Environment) -> usize {
        self.sites.push(env);
        self.sites.len() - 1
    }

    /// Appends a boxed-lane node group. Panics if the group references
    /// an unknown site.
    pub fn add_group(&mut self, group: FleetGroup) -> &mut Self {
        self.check_site(&group.name, group.site);
        self.groups.push(GroupEntry::Boxed(group));
        self
    }

    /// Appends a dense-lane node group. Panics if the group references
    /// an unknown site.
    pub fn add_dense_group(&mut self, group: DenseGroup) -> &mut Self {
        self.check_site(&group.name, group.site);
        self.groups.push(GroupEntry::Dense(Box::new(group)));
        self
    }

    fn check_site(&self, name: &str, site: usize) {
        assert!(
            site < self.sites.len(),
            "group '{}' references site {} but only {} site(s) exist",
            name,
            site,
            self.sites.len()
        );
    }

    /// Total node count across all groups.
    pub fn population(&self) -> u64 {
        self.groups.iter().map(|g| g.count() as u64).sum()
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Registered groups, in declaration (= global node) order.
    pub fn groups(&self) -> &[GroupEntry] {
        &self.groups
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Per-node stepping parameters. `record` is ignored: fleets never
    /// keep per-step traces.
    pub sim: SimConfig,
    /// Worker threads (`0` = [`thread_count`], which honours
    /// `MSEH_THREADS`). Results are bit-identical at any value.
    pub threads: usize,
    /// Nodes per shard (`0` = 1024). Results are bit-identical at any
    /// value. Shards dispatch heaviest-first (per-node-path nodes, then
    /// jittered batched nodes, by a cost read from the spec), so this
    /// sets only the work granularity, not the balance.
    pub shard_size: usize,
    /// How often member nodes re-sample site conditions.
    pub cadence: EnvCadence,
    /// Also return a full [`SimResult`] per node (memory scales with
    /// population).
    pub keep_node_results: bool,
    /// How many worst-uptime nodes to list in
    /// [`FleetSummary::stragglers`].
    pub stragglers: usize,
    /// Solve tier for dense groups and opted-in boxed groups (default
    /// [`DenseSolveTier::Batched`], bit-identical to
    /// [`DenseSolveTier::Scalar`]).
    pub dense_tier: DenseSolveTier,
}

impl FleetConfig {
    /// Fleet defaults over `duration`: 60 s steps, 10-minute control
    /// windows, per-window cadence, auto threads, 1024-node shards,
    /// 8 stragglers.
    pub fn over(duration: Seconds) -> Self {
        Self {
            sim: SimConfig::over(duration),
            threads: 0,
            shard_size: 0,
            cadence: EnvCadence::PerWindow,
            keep_node_results: false,
            stragglers: 8,
            dense_tier: DenseSolveTier::Batched,
        }
    }

    /// Switches to per-step sampling (bit-identical to per-node
    /// [`crate::run_simulation`] runs).
    pub fn exact_env(mut self) -> Self {
        self.cadence = EnvCadence::PerStep;
        self
    }

    /// Sets an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the shard width in nodes.
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size;
        self
    }

    /// Sets the dense-lane solve tier.
    pub fn with_dense_tier(mut self, tier: DenseSolveTier) -> Self {
        self.dense_tier = tier;
        self
    }
}

/// Percentiles of the per-node uptime distribution (nearest-rank over
/// the population).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UptimePercentiles {
    /// Worst node.
    pub min: f64,
    /// 5th percentile.
    pub p05: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Best node.
    pub max: f64,
    /// Population mean.
    pub mean: f64,
}

/// One entry in the worst-uptime straggler list.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Global node index (group declaration order).
    pub node: u64,
    /// Name of the node's group.
    pub group: String,
    /// The node's site index.
    pub site: usize,
    /// The node's uptime (fraction of load energy served).
    pub uptime: f64,
    /// Steps with any shortfall.
    pub brownout_steps: u64,
}

/// Aggregate results of a fleet run. All totals fold per-node results in
/// global node order, so they are bit-identical at any thread count and
/// shard size.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Nodes simulated.
    pub population: u64,
    /// Steps each node took (including the fractional closer, if any).
    pub steps_per_node: u64,
    /// `population × steps_per_node` — the run's total work.
    pub node_steps: u64,
    /// Simulated span.
    pub duration: Seconds,
    /// Fraction of nodes with zero brown-out steps (energy-neutral under
    /// the survey's operating criterion).
    pub energy_neutral_fraction: f64,
    /// Distribution of per-node uptimes.
    pub uptime: UptimePercentiles,
    /// Fleet-level served fraction: `1 − shortfall / demanded`
    /// (energy-weighted, unlike the per-node mean).
    pub served_fraction: f64,
    /// Total bus energy harvested across the fleet.
    pub harvested: Joules,
    /// Total energy delivered to loads.
    pub delivered: Joules,
    /// Total unserved load energy.
    pub shortfall: Joules,
    /// Total load energy demanded.
    pub demanded: Joules,
    /// Total output-stage conversion loss.
    pub converter_losses: Joules,
    /// Energy stranded by active faults at run end, fleet-wide.
    pub stranded_energy: Joules,
    /// Minimum store voltage seen by any node.
    pub min_store_voltage: Volts,
    /// Fleet-aggregated conservation residual: |Σ signed per-node
    /// residuals| over total storage throughput (≈0; < 1e-6 asserted in
    /// debug builds).
    pub audit_relative: f64,
    /// Worst single node's relative audit residual.
    pub worst_node_audit: f64,
    /// The `config.stragglers` worst-uptime nodes, worst first (ties by
    /// node index).
    pub stragglers: Vec<Straggler>,
}

/// Everything a fleet run returns.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Aggregates over the whole population.
    pub summary: FleetSummary,
    /// Per-node results when [`FleetConfig::keep_node_results`] is set
    /// (global node order; `traces` always `None`).
    pub node_results: Option<Vec<SimResult>>,
}

/// Shared, immutable step plan derived from the config (mirrors the
/// single-run kernel's step arithmetic exactly).
pub(crate) struct StepPlan {
    pub(crate) dt: Seconds,
    pub(crate) start_at: Seconds,
    pub(crate) duration: Seconds,
    pub(crate) full_steps: u64,
    pub(crate) frac_dt: Option<Seconds>,
    pub(crate) steps: u64,
    pub(crate) control_every: u64,
    pub(crate) cadence: EnvCadence,
}

impl StepPlan {
    fn new(config: &FleetConfig) -> Self {
        Self::from_sim(config.sim, config.cadence)
    }

    /// Builds the plan straight from a [`SimConfig`] plus the sampling
    /// cadence — shared with the policy arena, which has no
    /// [`FleetConfig`].
    pub(crate) fn from_sim(sim: SimConfig, cadence: EnvCadence) -> Self {
        assert!(sim.dt.value() > 0.0, "dt must be positive");
        assert!(
            sim.duration >= sim.dt,
            "duration must cover at least one step"
        );
        // Identical step arithmetic to run_simulation: whole steps plus
        // an explicit fractional closer, with the same dust guard.
        let full_steps = (sim.duration.value() / sim.dt.value()).floor() as u64;
        let frac_dt = {
            let rem = sim.duration.value() - full_steps as f64 * sim.dt.value();
            (rem > sim.dt.value() * 1e-9).then(|| Seconds::new(rem))
        };
        let steps = full_steps + u64::from(frac_dt.is_some());
        let control_every = (sim.control_interval.value() / sim.dt.value())
            .round()
            .max(1.0) as u64;
        Self {
            dt: sim.dt,
            start_at: sim.start_at,
            duration: sim.duration,
            full_steps,
            frac_dt,
            steps,
            control_every,
            cadence,
        }
    }

    #[inline]
    pub(crate) fn time_at(&self, i: u64) -> Seconds {
        self.start_at + Seconds::new(i as f64 * self.dt.value())
    }

    /// Sample times for one site's condition table under the plan's
    /// cadence.
    pub(crate) fn table_times(&self) -> Vec<Seconds> {
        match self.cadence {
            EnvCadence::PerStep => (0..self.steps).map(|i| self.time_at(i)).collect(),
            EnvCadence::PerWindow => (0..self.steps)
                .step_by(self.control_every as usize)
                .map(|w| self.time_at(w))
                .collect(),
        }
    }
}

/// Everything the summary fold needs from one node, in plain scalars so
/// shards stay cheap to ship back.
#[derive(Clone)]
pub(crate) struct NodeOutcome {
    pub(crate) uptime: f64,
    pub(crate) samples: f64,
    pub(crate) harvested: Joules,
    pub(crate) delivered: Joules,
    pub(crate) shortfall: Joules,
    pub(crate) demanded: Joules,
    pub(crate) converter_losses: Joules,
    pub(crate) brownout_steps: u64,
    pub(crate) longest_outage_steps: u64,
    pub(crate) min_store_voltage: Volts,
    pub(crate) audit_residual: f64,
    pub(crate) residual_signed: f64,
    pub(crate) throughput: f64,
    pub(crate) stranded: Joules,
}

impl NodeOutcome {
    pub(crate) fn to_sim_result(&self, duration: Seconds) -> SimResult {
        SimResult {
            duration,
            uptime: self.uptime,
            samples: self.samples,
            harvested: self.harvested,
            delivered: self.delivered,
            shortfall: self.shortfall,
            converter_losses: self.converter_losses,
            brownout_steps: self.brownout_steps,
            longest_outage_steps: self.longest_outage_steps,
            min_store_voltage: self.min_store_voltage,
            audit_residual: self.audit_residual,
            traces: None,
        }
    }
}

/// Where [`simulate_node`] gets each step's harvest.
pub(crate) enum HarvestSource<'a> {
    /// Step the platform itself against the sampled condition rows,
    /// jittered by `factors` when `jittered`.
    Env {
        rows: &'a [EnvConditions],
        factors: &'a JitterFactors,
        jittered: bool,
    },
    /// Replay the per-step harvest halves an identically built driver
    /// solved (see [`Platform::split_step`]).
    Replay { table: &'a [BusHarvest] },
}

/// Runs one node's full trajectory. The loop body replicates
/// `run_simulation`'s unobserved hot path step for step — same window
/// structure, same accumulator order, same audit — so a per-step-cadence
/// fleet node is bit-identical to a standalone run. Returns `None` when
/// `cancel` trips, checked once per control window.
///
/// Under [`EnvCadence::PerWindow`] every full-width step of a window
/// sees the window head's conditions, so a platform that can split its
/// step and whose harvest is replayable after the head step
/// ([`PowerUnit::is_harvest_replayable`](mseh_core::PowerUnit::is_harvest_replayable))
/// replays the head's harvest for the rest of the window instead of
/// solving it again — bit-identical by the replay contract.
pub(crate) fn simulate_node(
    platform: &mut dyn Platform,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    source: &HarvestSource<'_>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
) -> Option<NodeOutcome> {
    let initial_stored = platform.total_stored_energy();
    let initial_losses = platform.storage_losses();

    let mut samples = 0.0;
    let mut harvested = Joules::ZERO;
    let mut delivered = Joules::ZERO;
    let mut shortfall = Joules::ZERO;
    let mut demanded = Joules::ZERO;
    let mut charged = Joules::ZERO;
    let mut discharged = Joules::ZERO;
    let mut brownout_steps = 0u64;
    let mut outage_run = 0u64;
    let mut longest_outage = 0u64;
    let mut converter_losses = Joules::ZERO;
    let mut min_v = Volts::new(f64::INFINITY);

    let mut window_ordinal = 0usize;
    let mut window_start = 0u64;
    while window_start < plan.steps {
        if tripped(cancel) {
            return None;
        }
        let window_end = (window_start + plan.control_every).min(plan.steps);
        let duty = policy.choose(
            node,
            &platform.energy_status().at(plan.time_at(window_start)),
        );
        let load = node.average_power(duty);
        let demand = node.step(duty, plan.dt);
        let load_energy = load * plan.dt;
        // The window head's harvest, once it is known to be replayable.
        let mut head: Option<BusHarvest> = None;

        for j in window_start..window_end {
            let (step_dt, step_samples, step_load_energy) = match plan.frac_dt {
                Some(frac) if j == plan.full_steps => {
                    (frac, node.step(duty, frac).samples, load * frac)
                }
                _ => (plan.dt, demand.samples, load_energy),
            };
            let report = match *source {
                HarvestSource::Env {
                    rows,
                    factors,
                    jittered,
                } => {
                    let base = match plan.cadence {
                        EnvCadence::PerStep => &rows[j as usize],
                        EnvCadence::PerWindow => &rows[window_ordinal],
                    };
                    let local;
                    let env = if jittered {
                        local = factors.apply(base);
                        &local
                    } else {
                        base
                    };
                    let head_step = plan.cadence == EnvCadence::PerWindow
                        && j == window_start
                        && step_dt == plan.dt;
                    match (platform.split_step(), head) {
                        (Some(unit), Some(harvest)) if step_dt == plan.dt => {
                            unit.replay(harvest, step_dt, load)
                        }
                        (Some(unit), _) if head_step => {
                            let harvest = unit.harvest(env, step_dt);
                            head = unit.is_harvest_replayable(step_dt).then_some(harvest);
                            unit.settle(harvest, step_dt, load)
                        }
                        _ => platform.step(env, step_dt, load),
                    }
                }
                HarvestSource::Replay { table } => platform
                    .split_step()
                    .expect("a replayed platform splits like its driver")
                    .replay(table[j as usize], step_dt, load),
            };

            harvested += report.harvested;
            delivered += report.delivered;
            shortfall += report.shortfall;
            charged += report.charged;
            discharged += report.discharged;
            converter_losses += report.converter_loss;
            demanded += step_load_energy;

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
        }
        window_start = window_end;
        window_ordinal += 1;
    }

    let d_stored = platform.total_stored_energy() - initial_stored;
    let d_losses = platform.storage_losses() - initial_losses;
    let residual_signed = (charged - discharged - d_losses - d_stored).value();
    let throughput = (harvested + discharged + charged).value().max(1.0);
    let audit_residual = residual_signed.abs() / throughput;
    debug_assert!(
        audit_residual < 1e-6,
        "fleet node violated storage conservation: residual {residual_signed} J"
    );

    let uptime = if demanded.value() > 0.0 {
        1.0 - (shortfall.value() / demanded.value()).clamp(0.0, 1.0)
    } else {
        1.0
    };

    Some(NodeOutcome {
        uptime,
        samples,
        harvested,
        delivered,
        shortfall,
        demanded,
        converter_losses,
        brownout_steps,
        longest_outage_steps: longest_outage,
        min_store_voltage: min_v,
        audit_residual,
        residual_signed,
        throughput,
        stranded: platform.stranded_energy(),
    })
}

/// Drives one representative channel through the run's full step
/// sequence, materializing the per-step [`HarvestStep`] table a dense
/// node replays.
///
/// Soundness: under [`EnvCadence::PerStep`] the driver performs exactly
/// the member step sequence. Under [`EnvCadence::PerWindow`] every step
/// of a window sees the same `(env, dt)`, and the replay contract
/// applies: an env-pure controller on a time-invariant chain
/// ([`InputChannel::is_replayable`], asserted once the controller has
/// settled after its first solve) gives identical outputs and leaves
/// identical state for identical `(env, dt)`. Copying the window's
/// first step over its repeats therefore preserves both the per-step
/// outputs and the channel state bit for bit. The fractional closing
/// step always gets its own call (its `dt` differs). Returns `None` when
/// `cancel` trips, checked once per control window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_harvest_table(
    channel: &mut InputChannel,
    rows: &[EnvConditions],
    factors: &JitterFactors,
    jittered: bool,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<HarvestStep>,
) -> Option<()> {
    out.clear();
    out.reserve(plan.steps as usize);
    let mut probed = false;
    let mut window_ordinal = 0usize;
    let mut window_start = 0u64;
    while window_start < plan.steps {
        if tripped(cancel) {
            return None;
        }
        let window_end = (window_start + plan.control_every).min(plan.steps);
        for j in window_start..window_end {
            let step_dt = match plan.frac_dt {
                Some(frac) if j == plan.full_steps => frac,
                _ => plan.dt,
            };
            let replay =
                plan.cadence == EnvCadence::PerWindow && j > window_start && step_dt == plan.dt;
            if replay {
                out.push(out[window_start as usize]);
                continue;
            }
            let base = match plan.cadence {
                EnvCadence::PerStep => &rows[j as usize],
                EnvCadence::PerWindow => &rows[window_ordinal],
            };
            let local;
            let env = if jittered {
                local = factors.apply(base);
                &local
            } else {
                base
            };
            out.push(channel.step(env, step_dt));
            if !probed && plan.cadence == EnvCadence::PerWindow {
                probed = true;
                assert!(
                    channel.is_replayable(plan.dt),
                    "dense group requires a replayable channel under per-window \
                     cadence (env-pure controller with its sample interval inside \
                     dt, time-invariant chain); use EnvCadence::PerStep or a boxed \
                     FleetGroup for this platform"
                );
            }
        }
        window_start = window_end;
        window_ordinal += 1;
    }
    Some(())
}

/// Runs one dense-lane node: the per-step arithmetic of
/// `PowerUnit::step` specialized to the one-channel/one-store shape,
/// monomorphized over the concrete storage type, with the channel's
/// work already materialized in `harvest`. Mirrors [`simulate_node`]'s
/// accumulator order exactly so lane choice never changes a result.
/// Returns `None` when `cancel` trips, checked once per control window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_node_dense<S: Storage + Clone>(
    template: &S,
    output: &DcDcConverter,
    supervisor_overhead: Watts,
    monitoring: MonitoringLevel,
    node: &SensorNode,
    policy: &mut dyn DutyCyclePolicy,
    harvest: &[HarvestStep],
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
) -> Option<NodeOutcome> {
    let mut store = template.clone();
    // The boxed path's recognized capacity defaults to the device's
    // datasheet capacity at attach time.
    let recognized = store.capacity();
    let initial_stored = store.stored_energy();
    let initial_losses = store.losses();
    let mut last_harvest = Watts::ZERO;

    let mut samples = 0.0;
    let mut harvested = Joules::ZERO;
    let mut delivered = Joules::ZERO;
    let mut shortfall = Joules::ZERO;
    let mut demanded = Joules::ZERO;
    let mut charged = Joules::ZERO;
    let mut discharged = Joules::ZERO;
    let mut brownout_steps = 0u64;
    let mut outage_run = 0u64;
    let mut longest_outage = 0u64;
    let mut converter_losses = Joules::ZERO;
    let mut min_v = Volts::new(f64::INFINITY);

    let mut window_start = 0u64;
    while window_start < plan.steps {
        if tripped(cancel) {
            return None;
        }
        let window_end = (window_start + plan.control_every).min(plan.steps);
        // `PowerUnit::energy_status` for a single primary store: actual
        // SoC over the device capacity, believed stored energy over the
        // recognized capacity, clamped to the monitoring tier.
        let status = {
            let cap = store.capacity();
            let soc_actual = if cap.value() > 0.0 {
                store.stored_energy().value() / cap.value()
            } else {
                0.0
            };
            EnergyStatus::full(
                store.voltage(),
                Ratio::new(soc_actual),
                recognized * soc_actual,
                last_harvest,
            )
            .clamped_to(monitoring)
        };
        let duty = policy.choose(node, &status.at(plan.time_at(window_start)));
        let load = node.average_power(duty);
        let demand = node.step(duty, plan.dt);
        let load_energy = load * plan.dt;

        for j in window_start..window_end {
            let (step_dt, step_samples, step_load_energy) = match plan.frac_dt {
                Some(frac) if j == plan.full_steps => {
                    (frac, node.step(duty, frac).samples, load * frac)
                }
                _ => (plan.dt, demand.samples, load_energy),
            };
            let hs = &harvest[j as usize];

            // --- PowerUnit::step, specialized ---
            let harvested_w = hs.delivered;
            let overhead_w = supervisor_overhead + output.quiescent() + hs.overhead;
            last_harvest = harvested_w;

            let store_v = store.voltage();
            let (load_in_w, servable) = if load.value() > 0.0 {
                if output.accepts_input_voltage(store_v) {
                    (output.input_for_output(load, store_v), true)
                } else {
                    (Watts::ZERO, false)
                }
            } else {
                (Watts::ZERO, true)
            };

            let e_h = harvested_w * step_dt;
            let e_load_in = load_in_w * step_dt;
            let e_ov = overhead_w * step_dt;
            let step_demand = e_load_in + e_ov;

            let mut step_charged = Joules::ZERO;
            let mut step_discharged = Joules::ZERO;
            let mut unmet = Joules::ZERO;
            if e_h >= step_demand {
                let surplus = e_h - step_demand;
                if surplus.value() > 0.0 {
                    step_charged = store.charge(surplus / step_dt, step_dt);
                }
            } else {
                let deficit = step_demand - e_h;
                if deficit.value() > 0.0 {
                    step_discharged = store.discharge(deficit / step_dt, step_dt);
                }
                unmet = (deficit - step_discharged).max(Joules::ZERO);
            }

            let (step_delivered, step_shortfall, step_conv_loss) = if !servable {
                (Joules::ZERO, load * step_dt, Joules::ZERO)
            } else if e_load_in.value() > 0.0 {
                let load_unmet = unmet.min(e_load_in);
                let served_in = e_load_in - load_unmet;
                let served = (served_in / e_load_in).clamp(0.0, 1.0);
                let full_load = load * step_dt;
                let step_delivered = full_load * served;
                (
                    step_delivered,
                    full_load * (1.0 - served),
                    (served_in - step_delivered).max(Joules::ZERO),
                )
            } else {
                (Joules::ZERO, Joules::ZERO, Joules::ZERO)
            };

            store.idle(step_dt);
            let report_v = store.voltage();
            // --- end PowerUnit::step ---

            harvested += e_h;
            delivered += step_delivered;
            shortfall += step_shortfall;
            charged += step_charged;
            discharged += step_discharged;
            converter_losses += step_conv_loss;
            demanded += step_load_energy;

            let served_fraction = if step_shortfall.value() > 0.0 {
                let full = (step_delivered + step_shortfall).value();
                if full > 0.0 {
                    step_delivered.value() / full
                } else {
                    0.0
                }
            } else {
                1.0
            };
            samples += step_samples * served_fraction;

            if step_shortfall.value() > 1e-12 {
                brownout_steps += 1;
                outage_run += 1;
                longest_outage = longest_outage.max(outage_run);
            } else {
                outage_run = 0;
            }
            min_v = min_v.min(report_v);
        }
        window_start = window_end;
    }

    let d_stored = store.stored_energy() - initial_stored;
    let d_losses = store.losses() - initial_losses;
    let residual_signed = (charged - discharged - d_losses - d_stored).value();
    let throughput = (harvested + discharged + charged).value().max(1.0);
    let audit_residual = residual_signed.abs() / throughput;
    debug_assert!(
        audit_residual < 1e-6,
        "dense fleet node violated storage conservation: residual {residual_signed} J"
    );

    let uptime = if demanded.value() > 0.0 {
        1.0 - (shortfall.value() / demanded.value()).clamp(0.0, 1.0)
    } else {
        1.0
    };

    Some(NodeOutcome {
        uptime,
        samples,
        harvested,
        delivered,
        shortfall,
        demanded,
        converter_losses,
        brownout_steps,
        longest_outage_steps: longest_outage,
        min_store_voltage: min_v,
        audit_residual,
        residual_signed,
        throughput,
        stranded: Joules::ZERO,
    })
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// External control of a [`run_fleet_controlled`] run: a cooperative
/// cancellation token and a progress callback, both optional. The
/// default value is "no control" — exactly [`run_fleet`]'s behaviour.
#[derive(Default, Clone, Copy)]
pub struct FleetControl<'a> {
    /// Checked at control-window granularity by every lane; a tripped
    /// token makes the run return `Ok(None)` within one control window
    /// of compute per in-flight node.
    pub cancel: Option<&'a CancelToken>,
    /// Called with `(nodes_completed, population)` as shards finish.
    /// Completion order is scheduling-dependent, but the reported
    /// counts are monotone and the final call always reports the full
    /// population.
    pub progress: Option<&'a (dyn Fn(u64, u64) + Sync)>,
}

impl core::fmt::Debug for FleetControl<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FleetControl")
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.map(|_| "Fn"))
            .finish()
    }
}

/// Runs the whole fleet described by `spec` under `config`.
///
/// Per-node trajectories are pure functions of the spec (group seed →
/// node seed → platform, policy, jitter) and the shared per-site
/// condition tables, and the summary folds per-node outcomes in global
/// node order — so the output is bit-identical at any
/// [`FleetConfig::threads`] and [`FleetConfig::shard_size`].
///
/// # Panics
///
/// Panics on an empty population, a non-positive `dt`, or a duration
/// shorter than one step. Long-running embeddings that must survive a
/// malformed spec (the `mseh serve` daemon) use
/// [`run_fleet_controlled`], which reports those as `Err` instead.
pub fn run_fleet(spec: &FleetSpec, config: FleetConfig) -> FleetResult {
    match run_fleet_controlled(spec, config, FleetControl::default()) {
        Ok(Some(result)) => result,
        Ok(None) => unreachable!("no cancel token was installed"),
        Err(message) => panic!("{message}"),
    }
}

/// Verifies a boxed group's declared [`DenseClass`] against its
/// member-0 platform before the batched gate opens: the platform must
/// report the dense-kernel shape
/// ([`Platform::supports_dense_kernels`]) and its storage books must
/// match the declared template bit for bit. Factories receive per-node
/// seeds, so the engine can only spot-check the first member cheaply;
/// the opt-in contract is that every member matches the class.
fn validate_dense_class(g: &FleetGroup, class: &DenseClass) -> Result<(), String> {
    let node_seed = Noise::new(g.seed).bits(NODE_SEED_STREAM, 0);
    let platform = (g.platform)(node_seed);
    if !platform.supports_dense_kernels() {
        return Err(format!(
            "group '{}': platform '{}' cannot borrow the dense kernels (the class needs exactly \
             one channel-backed harvester port, one primary-buffer store, no shared ports and no \
             sense-ADC status quantization)",
            g.name,
            platform.name(),
        ));
    }
    let store: &dyn Storage = match &class.store {
        DenseStore::Supercap(s) => s,
        DenseStore::Battery(b) => b,
    };
    let checks = [
        ("capacity", platform.storage_capacity(), store.capacity()),
        (
            "stored energy",
            platform.total_stored_energy(),
            store.stored_energy(),
        ),
        ("losses", platform.storage_losses(), store.losses()),
    ];
    for (what, got, want) in checks {
        if got.value().to_bits() != want.value().to_bits() {
            return Err(format!(
                "group '{}': declared dense-class store {what} {want} does not match the member \
                 platform's {got}",
                g.name,
            ));
        }
    }
    if platform.fault_counts() != (0, 0) || platform.stranded_energy() != Joules::ZERO {
        return Err(format!(
            "group '{}': platforms with active fault-injection wrappers cannot borrow the dense \
             kernels",
            g.name,
        ));
    }
    Ok(())
}

/// [`run_fleet`] as a daemon-facing entry point: spec/config validation
/// errors come back as `Err` instead of panicking, and a
/// [`FleetControl`] supplies optional cooperative cancellation
/// (`Ok(None)` when the token trips — partial results are discarded,
/// never returned torn) and progress reporting. An un-cancelled run
/// returns exactly [`run_fleet`]'s result, bit for bit.
pub fn run_fleet_controlled(
    spec: &FleetSpec,
    config: FleetConfig,
    control: FleetControl<'_>,
) -> Result<Option<FleetResult>, String> {
    let cancel = control.cancel;
    let population = spec.population();
    if population == 0 {
        return Err("fleet population must be non-empty".into());
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
    let plan = StepPlan::new(&config);

    // One contiguous condition table per site, sampled through the same
    // batched `conditions_into` contract the single-run kernel uses
    // (bit-identical to per-instant sampling), shared read-only by every
    // shard.
    let times = plan.table_times();
    let tables: Vec<Vec<EnvConditions>> = spec
        .sites
        .iter()
        .map(|site| {
            let mut rows = Vec::new();
            site.conditions_into(&times, &mut rows);
            rows
        })
        .collect();

    // Group spans in global node order.
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(spec.groups.len());
    let mut cursor = 0u64;
    for g in &spec.groups {
        spans.push((cursor, cursor + g.count() as u64));
        cursor += g.count() as u64;
    }

    // Dense groups — supercap- and battery-store — step on the
    // struct-of-arrays batched tier unless the config pins `Scalar`,
    // and boxed groups with a declared [`DenseClass`] borrow the same
    // kernels. Unjittered groups always qualify (their lanes replay the
    // shared harvest table); jittered groups need a window-batchable
    // channel under per-window cadence — probed once per group — and
    // otherwise fall back to their scalar path. An opted-in boxed group
    // whose member platform contradicts its declared class is a spec
    // error, caught here before any node steps.
    let mut batched: Vec<bool> = Vec::with_capacity(spec.groups.len());
    for entry in &spec.groups {
        let open = match entry {
            GroupEntry::Dense(g) if config.dense_tier != DenseSolveTier::Scalar => {
                g.jitter.is_none()
                    || (plan.cadence == EnvCadence::PerWindow
                        && (g.channel)().supports_window_lanes(plan.dt))
            }
            GroupEntry::Boxed(g) if config.dense_tier != DenseSolveTier::Scalar => {
                match &g.dense_class {
                    Some(class) => {
                        let open = g.jitter.is_none()
                            || (plan.cadence == EnvCadence::PerWindow
                                && (class.channel)().supports_window_lanes(plan.dt));
                        if open {
                            validate_dense_class(g, class)?;
                        }
                        open
                    }
                    None => false,
                }
            }
            _ => false,
        };
        batched.push(open);
    }

    // Un-jittered dense classes share one harvest table group-wide: the
    // driver channel solves each control window once and every member
    // replays it. Jittered dense nodes drive their own channel inside
    // the shard (their conditions differ), still once per window.
    // Opted-in boxed groups get a table only when their batched gate is
    // open — otherwise they run plain boxed and never read it.
    let build_group_table = |factory: &ChannelFactory, site: usize| -> Option<Vec<HarvestStep>> {
        let mut table = Vec::new();
        build_harvest_table(
            &mut factory(),
            &tables[site],
            &JitterFactors::IDENTITY,
            false,
            &plan,
            cancel,
            &mut table,
        )
        .map(|()| table)
    };
    let mut dense_tables: Vec<Option<Vec<HarvestStep>>> = Vec::with_capacity(spec.groups.len());
    for (gi, entry) in spec.groups.iter().enumerate() {
        dense_tables.push(match entry {
            GroupEntry::Dense(g) if g.jitter.is_none() => {
                match build_group_table(g.channel.as_ref(), g.site) {
                    Some(built) => Some(built),
                    None => return Ok(None),
                }
            }
            GroupEntry::Boxed(g) if batched[gi] && g.jitter.is_none() => {
                let class = g
                    .dense_class
                    .as_ref()
                    .expect("batched boxed group declared a dense class");
                match build_group_table(class.channel.as_ref(), g.site) {
                    Some(built) => Some(built),
                    None => return Ok(None),
                }
            }
            _ => None,
        });
    }

    let shard_size = if config.shard_size == 0 {
        1024
    } else {
        config.shard_size
    } as u64;
    let shards: Vec<(u64, u64)> = (0..population)
        .step_by(shard_size as usize)
        .map(|lo| (lo, (lo + shard_size).min(population)))
        .collect();
    let threads = if config.threads == 0 {
        thread_count()
    } else {
        config.threads
    };

    // Heaviest-first dispatch: the pool claims work in list order, so a
    // costly shard left at the tail would run alone while the other
    // workers idle. Rank shards by a cost read from the spec — nodes on
    // the per-node path, then jittered batched nodes (each builds its
    // own harvest table), both descending, then node order. Outcomes go
    // back to shard order before the fold, which never sees this order.
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by_cached_key(|&s| {
        let (lo, hi) = shards[s];
        let (mut per_node, mut jittered) = (0u64, 0u64);
        let mut gi = spans.partition_point(|&(_, end)| end <= lo);
        while gi < spans.len() && spans[gi].0 < hi {
            let overlap = hi.min(spans[gi].1) - lo.max(spans[gi].0);
            let jitter = match &spec.groups[gi] {
                GroupEntry::Boxed(g) => g.jitter,
                GroupEntry::Dense(g) => g.jitter,
            };
            if !batched[gi] {
                per_node += overlap;
            } else if !jitter.is_none() {
                jittered += overlap;
            }
            gi += 1;
        }
        (Reverse(per_node), Reverse(jittered), s)
    });

    // Counted and reported under one lock, so concurrent shards report
    // strictly increasing counts.
    let done_nodes = std::sync::Mutex::new(0u64);
    let run_shard = |&(lo, hi): &(u64, u64)| -> Vec<NodeOutcome> {
        let mut out = Vec::with_capacity((hi - lo) as usize);
        // Scratch harvest table reused by jittered dense nodes.
        let mut scratch: Vec<HarvestStep> = Vec::new();
        // First group containing `lo`, advanced linearly as the shard
        // walks the global index range.
        let mut gi = spans.partition_point(|&(_, end)| end <= lo);
        let mut cursor = lo;
        while cursor < hi {
            // A tripped token makes the shard bail with a short vector;
            // the caller discards everything and returns `Ok(None)`.
            if tripped(cancel) {
                return out;
            }
            while spans[gi].1 <= cursor {
                gi += 1;
            }
            let run_end = hi.min(spans[gi].1);
            // Batched struct-of-arrays tier: the shard's contiguous run
            // of this dense class — a dense group of either store kind,
            // or a boxed group opted in via its declared class — steps
            // as one lane population. Run composition never changes
            // results — every lane's arithmetic is independent of its
            // companions — so shard and thread geometry stay
            // bit-irrelevant.
            if batched[gi] {
                let (view, store) = match &spec.groups[gi] {
                    GroupEntry::Dense(g) => (
                        dense_lanes::DenseView {
                            seed: g.seed,
                            jitter: g.jitter,
                            node: &g.node,
                            channel: g.channel.as_ref(),
                            output: &g.output,
                            supervisor_overhead: g.supervisor_overhead,
                            monitoring: g.monitoring,
                            policy: g.policy.as_ref(),
                        },
                        &g.store,
                    ),
                    GroupEntry::Boxed(g) => {
                        let class = g
                            .dense_class
                            .as_ref()
                            .expect("batched boxed group declared a dense class");
                        (
                            dense_lanes::DenseView {
                                seed: g.seed,
                                jitter: g.jitter,
                                node: &g.node,
                                channel: class.channel.as_ref(),
                                output: &class.output,
                                supervisor_overhead: class.supervisor_overhead,
                                monitoring: class.monitoring,
                                policy: g.policy.as_ref(),
                            },
                            &class.store,
                        )
                    }
                };
                let site = spec.groups[gi].site();
                let shared = dense_tables[gi].as_deref();
                let ok = match store {
                    DenseStore::Supercap(template) => dense_lanes::simulate_supercap_run(
                        &view,
                        template,
                        spans[gi].0,
                        cursor,
                        run_end,
                        &tables[site],
                        shared,
                        &plan,
                        cancel,
                        &mut out,
                    ),
                    DenseStore::Battery(template) => dense_lanes::simulate_battery_run(
                        &view,
                        template,
                        spans[gi].0,
                        cursor,
                        run_end,
                        &tables[site],
                        shared,
                        &plan,
                        cancel,
                        &mut out,
                    ),
                };
                if !ok {
                    return out;
                }
                cursor = run_end;
                continue;
            }
            for n in cursor..run_end {
                let within = n - spans[gi].0;
                match &spec.groups[gi] {
                    GroupEntry::Boxed(g) => {
                        let node_seed = Noise::new(g.seed).bits(NODE_SEED_STREAM, within);
                        let factors = JitterFactors::derive(g.jitter, node_seed);
                        let jittered = !g.jitter.is_none();
                        let mut platform = (g.platform)(node_seed);
                        let mut policy = (g.policy)(node_seed);
                        let source = HarvestSource::Env {
                            rows: &tables[g.site],
                            factors: &factors,
                            jittered,
                        };
                        match simulate_node(
                            platform.as_mut(),
                            &g.node,
                            policy.as_mut(),
                            &source,
                            &plan,
                            cancel,
                        ) {
                            Some(outcome) => out.push(outcome),
                            None => return out,
                        }
                    }
                    GroupEntry::Dense(g) => {
                        let node_seed = Noise::new(g.seed).bits(NODE_SEED_STREAM, within);
                        let mut policy = (g.policy)(node_seed);
                        let table: &[HarvestStep] = match &dense_tables[gi] {
                            Some(table) => table,
                            None => {
                                let factors = JitterFactors::derive(g.jitter, node_seed);
                                if build_harvest_table(
                                    &mut (g.channel)(),
                                    &tables[g.site],
                                    &factors,
                                    true,
                                    &plan,
                                    cancel,
                                    &mut scratch,
                                )
                                .is_none()
                                {
                                    return out;
                                }
                                &scratch
                            }
                        };
                        let outcome = match &g.store {
                            DenseStore::Supercap(s) => simulate_node_dense(
                                s,
                                &g.output,
                                g.supervisor_overhead,
                                g.monitoring,
                                &g.node,
                                policy.as_mut(),
                                table,
                                &plan,
                                cancel,
                            ),
                            DenseStore::Battery(b) => simulate_node_dense(
                                b,
                                &g.output,
                                g.supervisor_overhead,
                                g.monitoring,
                                &g.node,
                                policy.as_mut(),
                                table,
                                &plan,
                                cancel,
                            ),
                        };
                        match outcome {
                            Some(outcome) => out.push(outcome),
                            None => return out,
                        }
                    }
                }
            }
            cursor = run_end;
        }
        if let Some(report) = control.progress {
            let mut done = done_nodes.lock().unwrap_or_else(|e| e.into_inner());
            *done += hi - lo;
            report(*done, population);
        }
        out
    };
    let dispatched = par_map_with(threads.max(1), &order, |&s| run_shard(&shards[s]));
    let mut shard_outcomes: Vec<Vec<NodeOutcome>> = shards.iter().map(|_| Vec::new()).collect();
    for (s, outcomes) in order.into_iter().zip(dispatched) {
        shard_outcomes[s] = outcomes;
    }

    // A tripped token may have left some shards short; partial results
    // are discarded wholesale rather than folded torn.
    let completed: u64 = shard_outcomes.iter().map(|s| s.len() as u64).sum();
    if tripped(cancel) || completed != population {
        return Ok(None);
    }

    // Fold in global node order (shard order = node order), so the
    // floating-point accumulation is independent of shard boundaries.
    let mut harvested = Joules::ZERO;
    let mut delivered = Joules::ZERO;
    let mut shortfall = Joules::ZERO;
    let mut demanded = Joules::ZERO;
    let mut converter_losses = Joules::ZERO;
    let mut stranded = Joules::ZERO;
    let mut residual_signed = 0.0;
    let mut throughput = 0.0;
    let mut worst_node_audit = 0.0f64;
    let mut min_v = Volts::new(f64::INFINITY);
    let mut neutral = 0u64;
    let mut uptimes: Vec<f64> = Vec::with_capacity(population as usize);
    let mut node_results = config
        .keep_node_results
        .then(|| Vec::with_capacity(population as usize));

    for outcome in shard_outcomes.iter().flatten() {
        harvested += outcome.harvested;
        delivered += outcome.delivered;
        shortfall += outcome.shortfall;
        demanded += outcome.demanded;
        converter_losses += outcome.converter_losses;
        stranded += outcome.stranded;
        residual_signed += outcome.residual_signed;
        throughput += outcome.throughput;
        worst_node_audit = worst_node_audit.max(outcome.audit_residual);
        min_v = min_v.min(outcome.min_store_voltage);
        neutral += u64::from(outcome.brownout_steps == 0);
        uptimes.push(outcome.uptime);
        if let Some(results) = node_results.as_mut() {
            results.push(outcome.to_sim_result(plan.duration));
        }
    }

    let mean = uptimes.iter().sum::<f64>() / population as f64;
    let mut sorted = uptimes.clone();
    sorted.sort_by(f64::total_cmp);
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

    let stragglers = worst_uptimes(&uptimes, config.stragglers)
        .into_iter()
        .map(|(u, n)| {
            let gi = spans.partition_point(|&(_, end)| end <= n);
            let outcome = {
                let shard = (n / shard_size) as usize;
                &shard_outcomes[shard][(n % shard_size) as usize]
            };
            Straggler {
                node: n,
                group: spec.groups[gi].name().to_string(),
                site: spec.groups[gi].site(),
                uptime: u,
                brownout_steps: outcome.brownout_steps,
            }
        })
        .collect();

    let audit_relative = residual_signed.abs() / throughput.max(1.0);
    debug_assert!(
        audit_relative < 1e-6,
        "fleet-aggregated conservation residual {residual_signed} J"
    );
    let served_fraction = if demanded.value() > 0.0 {
        1.0 - (shortfall.value() / demanded.value()).clamp(0.0, 1.0)
    } else {
        1.0
    };

    Ok(Some(FleetResult {
        summary: FleetSummary {
            population,
            steps_per_node: plan.steps,
            node_steps: population * plan.steps,
            duration: plan.duration,
            energy_neutral_fraction: neutral as f64 / population as f64,
            uptime,
            served_fraction,
            harvested,
            delivered,
            shortfall,
            demanded,
            converter_losses,
            stranded_energy: stranded,
            min_store_voltage: min_v,
            audit_relative,
            worst_node_audit,
            stragglers,
        },
        node_results,
    }))
}

/// The `k` worst `(uptime, node)` pairs, worst first: uptimes by
/// `total_cmp`, ties broken by node index. Selects the `k` before
/// sorting them, so the serial tail costs O(n + k log k), not a full
/// sort of the population.
fn worst_uptimes(uptimes: &[f64], k: usize) -> Vec<(f64, u64)> {
    let order = |a: &(f64, u64), b: &(f64, u64)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let mut ranked: Vec<(f64, u64)> = uptimes
        .iter()
        .enumerate()
        .map(|(i, &u)| (u, i as u64))
        .collect();
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k, order);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(order);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_simulation;
    use mseh_core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
    use mseh_harvesters::PvModule;
    use mseh_node::{FixedDuty, VoltageThreshold};
    use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
    use mseh_storage::Supercap;
    use mseh_units::{DutyCycle, Volts};

    fn duty() -> DutyCycle {
        DutyCycle::saturating(0.05)
    }

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

    fn solar_unit_supervised(supervisor: Option<Supervisor>) -> PowerUnit {
        let mut builder = PowerUnit::builder("fleet node")
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
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()));
        if let Some(s) = supervisor {
            builder = builder.supervisor(s);
        }
        builder.build()
    }

    fn solar_unit() -> PowerUnit {
        solar_unit_supervised(None)
    }

    /// The dense-lane declaration of exactly the hardware in
    /// [`solar_unit`] (default supervisor: zero overhead, no
    /// monitoring).
    fn solar_dense(name: &str, count: usize, site: usize, node: SensorNode) -> DenseGroup {
        DenseGroup::new(
            name,
            count,
            site,
            node,
            solar_channel,
            DcDcConverter::buck_boost_3v3(),
            DenseStore::Supercap(solar_cap()),
            |_| Box::new(FixedDuty::new(duty())),
        )
        .with_monitoring(MonitoringLevel::None)
    }

    fn small_spec(count: usize, jitter: EnvJitter) -> FleetSpec {
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        spec.add_group(
            FleetGroup::new(
                "pv",
                count,
                site,
                SensorNode::submilliwatt_class(),
                |_| Box::new(solar_unit()),
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_seed(5)
            .with_jitter(jitter),
        );
        spec
    }

    #[test]
    fn one_node_per_step_fleet_matches_run_simulation() {
        let horizon = Seconds::from_hours(3.0);
        let out = run_fleet(
            &small_spec(1, EnvJitter::NONE),
            FleetConfig {
                keep_node_results: true,
                ..FleetConfig::over(horizon)
            }
            .exact_env(),
        );
        let mut platform = solar_unit();
        let mut policy = FixedDuty::new(duty());
        let reference = run_simulation(
            &mut platform,
            &Environment::outdoor_temperate(11),
            &SensorNode::submilliwatt_class(),
            &mut policy,
            SimConfig::over(horizon),
        );
        let node = &out.node_results.expect("kept")[0];
        assert_eq!(*node, reference);
        assert_eq!(out.summary.harvested, reference.harvested);
        assert_eq!(out.summary.uptime.mean, reference.uptime);
    }

    #[test]
    fn bit_identical_across_threads_and_shard_sizes() {
        let run = |threads: usize, shard: usize| {
            run_fleet(
                &small_spec(37, EnvJitter::relative(0.2)),
                FleetConfig {
                    threads,
                    shard_size: shard,
                    ..FleetConfig::over(Seconds::from_hours(2.0))
                },
            )
            .summary
        };
        let reference = run(1, 37);
        for (threads, shard) in [(2, 5), (4, 64), (3, 1)] {
            assert_eq!(run(threads, shard), reference, "{threads}t/{shard}s");
        }

        // Mixed lanes dispatch out of node order: the boxed group, last
        // in the spec, fills its own 64-node shard and runs first, and
        // at shard 7 it also shares a shard with the dense tail.
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        spec.add_dense_group(
            solar_dense("jittered", 40, site, SensorNode::submilliwatt_class())
                .with_seed(3)
                .with_jitter(EnvJitter::relative(0.2)),
        );
        spec.add_dense_group(solar_dense(
            "uniform",
            24,
            site,
            SensorNode::submilliwatt_class(),
        ));
        spec.add_group(
            FleetGroup::new(
                "boxed",
                64,
                site,
                SensorNode::milliwatt_class(),
                |_| Box::new(solar_unit()),
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_seed(9)
            .with_jitter(EnvJitter::relative(0.3)),
        );
        let population = spec.population();
        let run = |threads: usize, shard: usize| {
            let reports = std::sync::Mutex::new(Vec::new());
            let progress = |done: u64, total: u64| {
                assert_eq!(total, population);
                reports.lock().unwrap().push(done);
            };
            let out = run_fleet_controlled(
                &spec,
                FleetConfig {
                    threads,
                    shard_size: shard,
                    keep_node_results: true,
                    stragglers: 16,
                    ..FleetConfig::over(Seconds::from_hours(2.0))
                },
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
                "{threads}t/{shard}s progress {reports:?}"
            );
            assert_eq!(reports.last(), Some(&population));
            out
        };
        let reference = run(1, 0);
        assert_eq!(reference.summary.stragglers.len(), 16);
        for threads in [1, 2, 3] {
            for shard in [0, 7, 64] {
                let out = run(threads, shard);
                assert_eq!(out.summary, reference.summary, "{threads}t/{shard}s");
                assert_eq!(
                    out.node_results, reference.node_results,
                    "{threads}t/{shard}s"
                );
            }
        }
    }

    #[test]
    fn worst_uptimes_matches_a_full_sort_with_ties() {
        // Tied uptimes (including ±0.0, which `total_cmp` orders) must
        // fall back to node index exactly as a full sort does.
        let uptimes = [
            0.5, 0.25, 1.0, 0.25, 0.0, -0.0, 0.5, 0.25, 1.0, 0.0, 0.75, 0.25,
        ];
        let mut reference: Vec<(f64, u64)> = uptimes
            .iter()
            .enumerate()
            .map(|(i, &u)| (u, i as u64))
            .collect();
        reference.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for k in 0..=uptimes.len() + 2 {
            let got = worst_uptimes(&uptimes, k);
            let want = &reference[..k.min(uptimes.len())];
            assert_eq!(got.len(), want.len(), "k={k}");
            for (g, w) in got.iter().zip(want) {
                assert_eq!((g.0.to_bits(), g.1), (w.0.to_bits(), w.1), "k={k}");
            }
        }
    }

    #[test]
    fn per_window_cadence_audits() {
        let out = run_fleet(
            &small_spec(4, EnvJitter::NONE),
            FleetConfig::over(Seconds::from_hours(4.0)),
        );
        assert!(out.summary.audit_relative < 1e-6);
    }

    #[test]
    fn stragglers_are_worst_uptime_nodes() {
        let mut spec = FleetSpec::new();
        let dark = spec.add_site(Environment::indoor_office(3));
        let sunny = spec.add_site(Environment::outdoor_temperate(3));
        // Milliwatt loads indoors brown out; submilliwatt outdoors don't.
        spec.add_group(FleetGroup::new(
            "starved",
            3,
            dark,
            SensorNode::milliwatt_class(),
            |_| Box::new(solar_unit()),
            |_| Box::new(FixedDuty::new(DutyCycle::ONE)),
        ));
        spec.add_group(FleetGroup::new(
            "healthy",
            3,
            sunny,
            SensorNode::submilliwatt_class(),
            |_| Box::new(solar_unit()),
            |_| Box::new(FixedDuty::new(duty())),
        ));
        let out = run_fleet(
            &spec,
            FleetConfig {
                stragglers: 3,
                ..FleetConfig::over(Seconds::from_hours(6.0))
            },
        );
        assert_eq!(out.summary.stragglers.len(), 3);
        for s in &out.summary.stragglers {
            assert_eq!(s.group, "starved", "{s:?}");
            assert!(s.uptime < 1.0);
        }
        assert!(out.summary.energy_neutral_fraction <= 0.5);
    }

    #[test]
    #[should_panic(expected = "population must be non-empty")]
    fn rejects_empty_fleet() {
        let mut spec = FleetSpec::new();
        spec.add_site(Environment::indoor_office(1));
        run_fleet(&spec, FleetConfig::over(Seconds::from_hours(1.0)));
    }

    #[test]
    fn one_node_dense_fleet_matches_run_simulation() {
        let horizon = Seconds::from_hours(3.0);
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        spec.add_dense_group(solar_dense(
            "pv dense",
            1,
            site,
            SensorNode::submilliwatt_class(),
        ));
        let out = run_fleet(
            &spec,
            FleetConfig {
                keep_node_results: true,
                ..FleetConfig::over(horizon)
            }
            .exact_env(),
        );
        let mut platform = solar_unit();
        let mut policy = FixedDuty::new(duty());
        let reference = run_simulation(
            &mut platform,
            &Environment::outdoor_temperate(11),
            &SensorNode::submilliwatt_class(),
            &mut policy,
            SimConfig::over(horizon),
        );
        let node = &out.node_results.expect("kept")[0];
        assert_eq!(*node, reference);
    }

    #[test]
    fn dense_lane_is_bit_identical_to_boxed_lane() {
        let horizon = Seconds::from_hours(4.0);
        let build = |dense: bool| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(11));
            if dense {
                spec.add_dense_group(
                    solar_dense("pv", 6, site, SensorNode::submilliwatt_class())
                        .with_seed(5)
                        .with_jitter(EnvJitter::relative(0.2)),
                );
            } else {
                spec.add_group(
                    FleetGroup::new(
                        "pv",
                        6,
                        site,
                        SensorNode::submilliwatt_class(),
                        |_| Box::new(solar_unit()),
                        |_| Box::new(FixedDuty::new(duty())),
                    )
                    .with_seed(5)
                    .with_jitter(EnvJitter::relative(0.2)),
                );
            }
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn dense_status_replication_drives_policies_like_boxed() {
        // Full monitoring plus supervisor overhead: a voltage-threshold
        // policy must see an identical EnergyStatus on both lanes, and
        // the overhead must drain the books identically.
        let horizon = Seconds::from_hours(4.0);
        let overhead = Watts::new(40e-6);
        let dense = {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(23));
            spec.add_dense_group(
                DenseGroup::new(
                    "pv supervised",
                    3,
                    site,
                    SensorNode::submilliwatt_class(),
                    solar_channel,
                    DcDcConverter::buck_boost_3v3(),
                    DenseStore::Supercap(solar_cap()),
                    |_| Box::new(VoltageThreshold::supercap_ladder()),
                )
                .with_supervisor_overhead(overhead),
            );
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        let boxed = {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(23));
            let mut supervisor = Supervisor::none();
            supervisor.monitoring = MonitoringLevel::Full;
            supervisor.overhead = overhead;
            spec.add_group(FleetGroup::new(
                "pv supervised",
                3,
                site,
                SensorNode::submilliwatt_class(),
                move |_| Box::new(solar_unit_supervised(Some(supervisor))),
                |_| Box::new(VoltageThreshold::supercap_ladder()),
            ));
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        assert_eq!(dense, boxed);
    }

    #[test]
    fn dense_battery_group_runs_and_audits() {
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(31));
        let mut nimh = Battery::nimh_aa_pair();
        nimh.set_soc(0.5);
        spec.add_dense_group(
            DenseGroup::new(
                "pv + nimh",
                50,
                site,
                SensorNode::submilliwatt_class(),
                solar_channel,
                DcDcConverter::buck_boost_3v3(),
                DenseStore::Battery(nimh),
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_seed(9)
            .with_jitter(EnvJitter::relative(0.1)),
        );
        let out = run_fleet(&spec, FleetConfig::over(Seconds::from_hours(24.0)));
        assert_eq!(out.summary.population, 50);
        assert!(out.summary.audit_relative < 1e-6);
        assert!(out.summary.worst_node_audit < 1e-6);
        assert!(out.summary.harvested.value() > 0.0);
    }

    #[test]
    fn mixed_lane_fleet_is_bit_identical_across_geometry() {
        let mut nimh = Battery::nimh_aa_pair();
        nimh.set_soc(0.6);
        let build = || {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(17));
            spec.add_group(
                FleetGroup::new(
                    "boxed pv",
                    7,
                    site,
                    SensorNode::submilliwatt_class(),
                    |_| Box::new(solar_unit()),
                    |_| Box::new(FixedDuty::new(duty())),
                )
                .with_seed(1)
                .with_jitter(EnvJitter::relative(0.15)),
            );
            spec.add_dense_group(
                solar_dense("dense pv", 9, site, SensorNode::submilliwatt_class())
                    .with_seed(2)
                    .with_jitter(EnvJitter::relative(0.15)),
            );
            spec
        };
        let nimh_group = |spec: &mut FleetSpec, nimh: &Battery| {
            spec.add_dense_group(DenseGroup::new(
                "dense nimh",
                5,
                0,
                SensorNode::submilliwatt_class(),
                solar_channel,
                DcDcConverter::buck_boost_3v3(),
                DenseStore::Battery(nimh.clone()),
                |_| Box::new(FixedDuty::new(duty())),
            ));
        };
        let run = |threads: usize, shard: usize| {
            let mut spec = build();
            nimh_group(&mut spec, &nimh);
            run_fleet(
                &spec,
                FleetConfig {
                    threads,
                    shard_size: shard,
                    ..FleetConfig::over(Seconds::from_hours(2.0))
                },
            )
            .summary
        };
        let reference = run(1, 21);
        for (threads, shard) in [(2, 4), (4, 1024), (3, 1)] {
            assert_eq!(run(threads, shard), reference, "{threads}t/{shard}s");
        }
    }

    #[test]
    fn dense_battery_batched_matches_scalar_bitwise() {
        let mut nimh = Battery::nimh_aa_pair();
        nimh.set_soc(0.5);
        let build = |jitter: EnvJitter| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(31));
            spec.add_dense_group(
                DenseGroup::new(
                    "pv + nimh",
                    23,
                    site,
                    SensorNode::submilliwatt_class(),
                    solar_channel,
                    DcDcConverter::buck_boost_3v3(),
                    DenseStore::Battery(nimh.clone()),
                    // Heterogeneous duties: the uniform fast path must
                    // materialize the full population on divergence.
                    |seed| {
                        let d = 0.02 + 0.06 * (seed % 5) as f64 / 5.0;
                        Box::new(FixedDuty::new(DutyCycle::saturating(d)))
                    },
                )
                .with_seed(9)
                .with_jitter(jitter),
            );
            spec
        };
        let run = |spec: &FleetSpec, tier: DenseSolveTier| {
            run_fleet(
                spec,
                FleetConfig {
                    dense_tier: tier,
                    ..FleetConfig::over(Seconds::from_hours(3.0))
                },
            )
            .summary
        };
        let plain = build(EnvJitter::NONE);
        assert_eq!(
            run(&plain, DenseSolveTier::Batched),
            run(&plain, DenseSolveTier::Scalar)
        );
        let jittered = build(EnvJitter::relative(0.2));
        assert_eq!(
            run(&jittered, DenseSolveTier::Batched),
            run(&jittered, DenseSolveTier::Scalar)
        );
    }

    #[test]
    fn boxed_group_with_dense_class_matches_plain_boxed() {
        let horizon = Seconds::from_hours(4.0);
        let build = |opt_in: bool, jitter: EnvJitter| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(11));
            let mut group = FleetGroup::new(
                "pv",
                6,
                site,
                SensorNode::submilliwatt_class(),
                |_| Box::new(solar_unit()),
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_seed(5)
            .with_jitter(jitter);
            if opt_in {
                group = group.with_dense_class(
                    DenseClass::new(
                        solar_channel,
                        DcDcConverter::buck_boost_3v3(),
                        DenseStore::Supercap(solar_cap()),
                    )
                    .with_monitoring(MonitoringLevel::None),
                );
            }
            spec.add_group(group);
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        for jitter in [EnvJitter::NONE, EnvJitter::relative(0.2)] {
            assert_eq!(build(true, jitter), build(false, jitter), "{jitter:?}");
        }
    }

    #[test]
    fn boxed_battery_opt_in_matches_plain_boxed() {
        let mut nimh = Battery::nimh_aa_pair();
        nimh.set_soc(0.6);
        let horizon = Seconds::from_hours(3.0);
        let build = |opt_in: bool| {
            let template = nimh.clone();
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::outdoor_temperate(17));
            let mut group = FleetGroup::new(
                "pv + nimh",
                5,
                site,
                SensorNode::submilliwatt_class(),
                move |_| {
                    Box::new(
                        PowerUnit::builder("fleet battery node")
                            .harvester_port(
                                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                                Some(solar_channel()),
                                true,
                            )
                            .store_port(
                                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                                Some(Box::new(template.clone())),
                                StoreRole::PrimaryBuffer,
                                true,
                            )
                            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                            .build(),
                    )
                },
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_seed(3);
            if opt_in {
                let template = nimh.clone();
                group = group.with_dense_class(
                    DenseClass::new(
                        solar_channel,
                        DcDcConverter::buck_boost_3v3(),
                        DenseStore::Battery(template),
                    )
                    .with_monitoring(MonitoringLevel::None),
                );
            }
            spec.add_group(group);
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn dense_class_contradictions_are_spec_errors() {
        let config = FleetConfig::over(Seconds::from_hours(1.0));
        // Probe failure: a store-only unit has no channel-backed
        // harvester port, so it cannot match any dense class.
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        spec.add_group(
            FleetGroup::new(
                "no harvester",
                2,
                site,
                SensorNode::submilliwatt_class(),
                |_| {
                    Box::new(
                        PowerUnit::builder("store only")
                            .store_port(
                                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                                Some(Box::new(solar_cap())),
                                StoreRole::PrimaryBuffer,
                                true,
                            )
                            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                            .build(),
                    )
                },
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_dense_class(
                DenseClass::new(
                    solar_channel,
                    DcDcConverter::buck_boost_3v3(),
                    DenseStore::Supercap(solar_cap()),
                )
                .with_monitoring(MonitoringLevel::None),
            ),
        );
        let err = run_fleet_controlled(&spec, config, FleetControl::default())
            .expect_err("probe must reject the shape");
        assert!(err.contains("cannot borrow the dense kernels"), "{err}");

        // Book mismatch: a declared template at a different state of
        // charge than the members' actual device.
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        let mut wrong = solar_cap();
        wrong.set_voltage(Volts::new(2.5));
        spec.add_group(
            FleetGroup::new(
                "pv",
                2,
                site,
                SensorNode::submilliwatt_class(),
                |_| Box::new(solar_unit()),
                |_| Box::new(FixedDuty::new(duty())),
            )
            .with_dense_class(
                DenseClass::new(
                    solar_channel,
                    DcDcConverter::buck_boost_3v3(),
                    DenseStore::Supercap(wrong),
                )
                .with_monitoring(MonitoringLevel::None),
            ),
        );
        let err = run_fleet_controlled(&spec, config, FleetControl::default())
            .expect_err("book mismatch must reject");
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn mid_run_fault_fire_cannot_replay_stale_battery_keep_fraction() {
        use crate::fault::{FaultSchedule, IntermittentStorage};
        use mseh_storage::BatteryLanes;

        // Sim level: a battery-store node whose cell fails open mid-run
        // and recovers. The battery's memoized idle keep fraction is
        // exercised on both sides of the FaultFire/FaultClear edges —
        // the books must close and the fault must actually bite.
        let horizon = Seconds::from_hours(6.0);
        let build = |faulted: bool| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(Environment::indoor_office(7));
            spec.add_group(FleetGroup::new(
                "battery node",
                1,
                site,
                SensorNode::milliwatt_class(),
                move |_| {
                    let mut nimh = Battery::nimh_aa_pair();
                    nimh.set_soc(0.8);
                    let store: Box<dyn Storage> = if faulted {
                        Box::new(IntermittentStorage::new(
                            Box::new(nimh),
                            FaultSchedule::one_shot_recovering(
                                Seconds::from_hours(2.0),
                                Seconds::from_hours(1.0),
                            ),
                        ))
                    } else {
                        Box::new(nimh)
                    };
                    Box::new(
                        PowerUnit::builder("battery node")
                            .harvester_port(
                                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                                Some(solar_channel()),
                                true,
                            )
                            .store_port(
                                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                                Some(store),
                                StoreRole::PrimaryBuffer,
                                true,
                            )
                            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                            .build(),
                    )
                },
                |_| Box::new(FixedDuty::new(DutyCycle::saturating(0.5))),
            ));
            run_fleet(&spec, FleetConfig::over(horizon)).summary
        };
        let faulted = build(true);
        let healthy = build(false);
        assert!(faulted.audit_relative < 1e-6, "{}", faulted.audit_relative);
        assert!(healthy.audit_relative < 1e-6, "{}", healthy.audit_relative);
        assert_ne!(faulted.delivered, healthy.delivered, "fault must bite");

        // Lane level: the FaultFire edge contract for the lane-shared
        // keep memo — an edge that degrades the cell's self-discharge
        // must never replay the pre-fault keep fraction. The embedding
        // flushes at the edge (`invalidate_idle_memo`) and the re-key on
        // the new rate covers the rest.
        let mut template = Battery::nimh_aa_pair();
        template.set_soc(0.8);
        let n = 3;
        let mut lanes = BatteryLanes::from_template(&template, n);
        let zeros = vec![0.0; n];
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        let dt = 60.0;
        lanes.step(&zeros, &zeros, dt, &mut a, &mut b); // warm the memo
        let degraded = 0.45;
        lanes.invalidate_idle_memo(); // the FaultFire edge flush
        lanes.set_self_discharge_month(degraded);
        lanes.step(&zeros, &zeros, dt, &mut a, &mut b);
        let mut reference = template.clone();
        reference.idle(Seconds::new(dt));
        reference.set_self_discharge_month(degraded);
        reference.idle(Seconds::new(dt));
        for i in 0..n {
            assert_eq!(
                lanes.stored_energy(i).to_bits(),
                reference.stored_energy().value().to_bits(),
                "lane {i} replayed a stale keep fraction"
            );
        }
    }

    #[test]
    fn controlled_run_matches_plain_run_and_honours_the_token() {
        let spec = small_spec(5, EnvJitter::relative(0.2));
        let config = FleetConfig::over(Seconds::from_hours(2.0));
        let plain = run_fleet(&spec, config).summary;
        let token = CancelToken::new();
        let controlled = run_fleet_controlled(
            &spec,
            config,
            FleetControl {
                cancel: Some(&token),
                progress: None,
            },
        )
        .expect("valid spec")
        .expect("token never tripped");
        assert_eq!(controlled.summary, plain);

        token.cancel();
        let cancelled = run_fleet_controlled(
            &spec,
            config,
            FleetControl {
                cancel: Some(&token),
                progress: None,
            },
        )
        .expect("valid spec");
        assert!(cancelled.is_none(), "tripped token must yield Ok(None)");
    }

    #[test]
    fn controlled_run_reports_errors_instead_of_panicking() {
        let empty = FleetSpec::new();
        let config = FleetConfig::over(Seconds::from_hours(1.0));
        let err =
            run_fleet_controlled(&empty, config, FleetControl::default()).expect_err("empty fleet");
        assert!(err.contains("population must be non-empty"), "{err}");

        let spec = small_spec(1, EnvJitter::NONE);
        let bad_duration = FleetConfig::over(Seconds::new(-5.0));
        let err = run_fleet_controlled(&spec, bad_duration, FleetControl::default())
            .expect_err("negative duration");
        assert!(err.contains("duration"), "{err}");

        let mut bad_dt = FleetConfig::over(Seconds::from_hours(1.0));
        bad_dt.sim.dt = Seconds::new(0.0);
        let err =
            run_fleet_controlled(&spec, bad_dt, FleetControl::default()).expect_err("zero dt");
        assert!(err.contains("dt must be positive"), "{err}");
    }

    #[test]
    fn cancelling_a_dense_fleet_mid_run_yields_none() {
        let mut spec = FleetSpec::new();
        let site = spec.add_site(Environment::outdoor_temperate(11));
        spec.add_dense_group(solar_dense(
            "pv dense",
            16,
            site,
            SensorNode::submilliwatt_class(),
        ));
        let token = CancelToken::new();
        let hits = std::sync::atomic::AtomicU64::new(0);
        // Trip the token from the progress hook after the first shard —
        // remaining shards must bail and the run must report Ok(None).
        let trip = |_done: u64, _total: u64| {
            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            token.cancel();
        };
        let out = run_fleet_controlled(
            &spec,
            FleetConfig {
                threads: 2,
                shard_size: 4,
                ..FleetConfig::over(Seconds::from_hours(2.0))
            },
            FleetControl {
                cancel: Some(&token),
                progress: Some(&trip),
            },
        )
        .expect("valid spec");
        assert!(out.is_none(), "cancelled fleet must yield Ok(None)");
        assert!(hits.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    }
}
