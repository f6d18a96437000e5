//! Struct-of-arrays stepping for contiguous runs of dense nodes.
//!
//! A shard-local run of one dense class's members becomes a lane
//! population: stored state, losses and staged energy targets live in
//! contiguous `Vec<f64>`s ([`SupercapLanes`] for supercap buffers,
//! [`BatteryLanes`] for battery buffers) and the per-step store updates
//! execute as masked whole-lane passes instead of one `Storage` call
//! per node. Harvest solves batch the same way: un-jittered runs replay
//! the group-wide harvest table, jittered runs drive the group
//! channel's [`mseh_power::InputChannel::window_lanes`] once per
//! control window across every lane's jittered snapshot.
//!
//! Jittered members the window-lane gate cannot cover (per-step
//! cadence, or a channel without `supports_window_lanes`) build their
//! own harvest table and step as one-lane populations of the same
//! runner.
//!
//! The runner is generic over the store lane type ([`StoreLanes`]) and
//! over where its class parameters come from ([`DenseView`]): a
//! [`DenseGroup`](super::DenseGroup) on the dense lane, or a boxed
//! [`FleetGroup`](super::FleetGroup) whose members opted into the
//! kernels via [`DenseClass`](super::DenseClass). The policy arena
//! drives the same core through [`run_lanes`], supplying one policy per
//! lane instead of seeding them from a factory.
//!
//! # Uniform fast path
//!
//! An un-jittered run starts with every lane in the template state,
//! reading the same shared harvest table. While every lane's policy
//! returns bit-identical duties the trajectories cannot diverge, so the
//! runner steps a single representative lane (every policy is still
//! driven each window — policy state must evolve exactly as boxed) and
//! materializes the full population from it on the first divergent
//! duty ([`SupercapLanes::replicate_lane0`]). Homogeneous-policy groups
//! collapse to one lane of arithmetic; heterogeneous groups pay at most
//! one window of single-lane work before falling back to full-width
//! stepping. Jittered runs never take the fast path (their harvests
//! differ per lane from the first window).
//!
//! # Bit-identity
//!
//! The boxed path is the reference: every pass replicates
//! `PowerUnit::settle` for the one-channel/one-store shape — same
//! operation order, same guard branches — the store kernels replicate
//! the scalar `Storage` iterate sequence, and each lane books its steps
//! through the same [`NodeBooks`] a boxed node does. Each lane's
//! iterates are independent of its companions, so a lane is
//! bit-identical to the same hardware built as a boxed `PowerUnit`
//! *and* independent of how shards split a group into runs. The uniform
//! fast path and the one-lane per-node path preserve this: a one-lane
//! population's iterates equal any lane of a wider one. The fleet and
//! arena tests assert all of it against boxed twins.

use super::{build_harvest_table, ChannelFactory, DenseStore, PolicyFactory, NODE_SEED_STREAM};
use crate::cancel::{tripped, CancelToken};
use crate::kernel::{NodeBooks, NodeOutcome, StepPlan};
use mseh_core::StepReport;
use mseh_env::rng::Noise;
use mseh_env::{EnvConditions, EnvJitter, JitterFactors};
use mseh_node::{DutyCyclePolicy, EnergyStatus, MonitoringLevel, SensorNode};
use mseh_power::{DcDcConverter, HarvestStep, InputChannel, PowerStage};
use mseh_storage::{BatteryLanes, Storage, SupercapLanes};
use mseh_units::{DutyCycle, Joules, Ratio, Volts, Watts};

/// The class parameters the generic runner needs, borrowed from either
/// a [`DenseGroup`](super::DenseGroup) or a boxed
/// [`FleetGroup`](super::FleetGroup) + [`DenseClass`](super::DenseClass)
/// pair — the two lanes share the kernels verbatim.
pub(super) struct DenseView<'a> {
    pub(super) seed: u64,
    pub(super) jitter: EnvJitter,
    pub(super) node: &'a SensorNode,
    pub(super) channel: &'a ChannelFactory,
    pub(super) output: &'a DcDcConverter,
    pub(super) supervisor_overhead: Watts,
    pub(super) monitoring: MonitoringLevel,
    pub(super) policy: &'a PolicyFactory,
}

impl DenseView<'_> {
    /// The lane population of this class driving `policies`.
    fn population<'p>(
        &'p self,
        policies: &'p mut [Box<dyn DutyCyclePolicy>],
    ) -> LanePopulation<'p> {
        LanePopulation {
            node: self.node,
            output: self.output,
            supervisor_overhead: self.supervisor_overhead,
            monitoring: self.monitoring,
            policies,
        }
    }
}

/// Where a fleet run's members get their harvests.
pub(super) enum MemberHarvest {
    /// Every member replays the class-wide table the engine built once
    /// per group (un-jittered members).
    Shared(Vec<HarvestStep>),
    /// The group channel's `window_lanes` solves each control window
    /// once across every member's jittered snapshot. The engine has
    /// checked per-window cadence and
    /// [`InputChannel::supports_window_lanes`] for the plan's `dt`.
    WindowLanes,
    /// Each member builds its own table ([`build_harvest_table`]) and
    /// steps as a one-lane population: jittered members the window-lane
    /// gate cannot cover.
    PerNode,
}

/// The node-side parameters of one lane population, with one policy
/// per lane. The fleet derives the policies from a class factory and
/// per-node seeds; the arena supplies one per contender. Policies are
/// borrowed mutably so callers can read post-run policy state (e.g.
/// failover counts) after the population finishes.
pub(crate) struct LanePopulation<'a> {
    pub(crate) node: &'a SensorNode,
    pub(crate) output: &'a DcDcConverter,
    pub(crate) supervisor_overhead: Watts,
    pub(crate) monitoring: MonitoringLevel,
    pub(crate) policies: &'a mut [Box<dyn DutyCyclePolicy>],
}

/// Where a lane population's harvests come from.
pub(crate) enum LaneHarvest<'a> {
    /// Every lane replays one class-wide per-step harvest table.
    /// Populations in this mode start on the uniform fast path.
    Shared(&'a [HarvestStep]),
    /// Each lane sees its own jittered snapshot of the window's base
    /// conditions; the channel is driven once per window via
    /// `window_lanes` across all lanes. The caller has verified
    /// [`mseh_power::InputChannel::supports_window_lanes`] for the
    /// plan's `dt`.
    Jittered {
        channel: Box<InputChannel>,
        factors: Vec<JitterFactors>,
        rows: &'a [EnvConditions],
    },
}

/// The store-side lane kernel the generic runner drives: one whole-lane
/// masked step plus per-lane state reads, bit-identical to the scalar
/// `Storage` sequence by each implementation's contract.
trait StoreLanes: Sized {
    fn voltage(&self, i: usize) -> f64;
    fn stored_energy(&self, i: usize) -> f64;
    fn losses(&self, i: usize) -> f64;
    fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    );
    fn replicate_lane0(&self, lanes: usize) -> Self;
}

impl StoreLanes for SupercapLanes {
    fn voltage(&self, i: usize) -> f64 {
        SupercapLanes::voltage(self, i)
    }
    fn stored_energy(&self, i: usize) -> f64 {
        SupercapLanes::stored_energy(self, i)
    }
    fn losses(&self, i: usize) -> f64 {
        SupercapLanes::losses(self, i)
    }
    fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    ) {
        SupercapLanes::step(self, charge_w, discharge_w, dt, charged, discharged)
    }
    fn replicate_lane0(&self, lanes: usize) -> Self {
        SupercapLanes::replicate_lane0(self, lanes)
    }
}

impl StoreLanes for BatteryLanes {
    fn voltage(&self, i: usize) -> f64 {
        BatteryLanes::voltage(self, i)
    }
    fn stored_energy(&self, i: usize) -> f64 {
        BatteryLanes::stored_energy(self, i)
    }
    fn losses(&self, i: usize) -> f64 {
        BatteryLanes::losses(self, i)
    }
    fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    ) {
        BatteryLanes::step(self, charge_w, discharge_w, dt, charged, discharged)
    }
    fn replicate_lane0(&self, lanes: usize) -> Self {
        BatteryLanes::replicate_lane0(self, lanes)
    }
}

/// Steps global nodes `lo..hi` of one dense class as lane populations,
/// pushing their [`NodeOutcome`]s onto `out` in node order: derives
/// per-node seeds, policies and jitter factors exactly as the boxed
/// path does, then hands the members to [`run_lanes`] as `harvest`
/// says. Returns `false` when `cancel` trips.
#[allow(clippy::too_many_arguments)]
pub(super) fn simulate_dense_run(
    view: &DenseView<'_>,
    store: &DenseStore,
    harvest: &MemberHarvest,
    group_start: u64,
    lo: u64,
    hi: u64,
    rows: &[EnvConditions],
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    let node_seed = |i: usize| {
        let within = lo - group_start + i as u64;
        Noise::new(view.seed).bits(NODE_SEED_STREAM, within)
    };
    let factors = |i: usize| JitterFactors::derive(view.jitter, node_seed(i));
    let mut policies: Vec<Box<dyn DutyCyclePolicy>> = (0..(hi - lo) as usize)
        .map(|i| (view.policy)(node_seed(i)))
        .collect();

    match harvest {
        MemberHarvest::Shared(table) => run_lanes(
            &mut view.population(&mut policies),
            store,
            LaneHarvest::Shared(table),
            plan,
            cancel,
            out,
        ),
        MemberHarvest::WindowLanes => {
            let jittered = LaneHarvest::Jittered {
                channel: Box::new((view.channel)()),
                factors: (0..policies.len()).map(factors).collect(),
                rows,
            };
            run_lanes(
                &mut view.population(&mut policies),
                store,
                jittered,
                plan,
                cancel,
                out,
            )
        }
        MemberHarvest::PerNode => {
            let mut table = Vec::new();
            for (i, policy) in policies.chunks_mut(1).enumerate() {
                let built = build_harvest_table(
                    &mut (view.channel)(),
                    rows,
                    &factors(i),
                    true,
                    plan,
                    cancel,
                    &mut table,
                );
                if built.is_none()
                    || !run_lanes(
                        &mut view.population(policy),
                        store,
                        LaneHarvest::Shared(&table),
                        plan,
                        cancel,
                        out,
                    )
                {
                    return false;
                }
            }
            true
        }
    }
}

/// Steps a lane population of one store class, pushing one
/// [`NodeOutcome`] per lane onto `out` in lane order. Returns `false`
/// — with no outcomes pushed — when `cancel` trips, checked once per
/// control window.
pub(crate) fn run_lanes(
    pop: &mut LanePopulation<'_>,
    store: &DenseStore,
    harvest: LaneHarvest<'_>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    match store {
        DenseStore::Supercap(template) => run_lane_population(
            pop,
            SupercapLanes::from_template(template, 1),
            template,
            harvest,
            plan,
            cancel,
            out,
        ),
        DenseStore::Battery(template) => run_lane_population(
            pop,
            BatteryLanes::from_template(template, 1),
            template,
            harvest,
            plan,
            cancel,
            out,
        ),
    }
}

/// The generic lane runner: steps one [`LanePopulation`] as a
/// [`StoreLanes`] population, one lane per policy, every lane starting
/// from `template`'s state.
///
/// [`LaneHarvest::Shared`] populations replay the class-wide table and
/// start on the uniform fast path (see the module docs).
/// [`LaneHarvest::Jittered`] populations drive the channel once per
/// window over per-lane jittered snapshots.
#[allow(clippy::too_many_arguments)]
fn run_lane_population<L: StoreLanes>(
    pop: &mut LanePopulation<'_>,
    solo: L,
    template: &dyn Storage,
    harvest: LaneHarvest<'_>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    let lanes_n = pop.policies.len();
    // The boxed path's recognized capacity defaults to the device's
    // datasheet capacity at attach time.
    let cap = template.capacity();
    let recognized = cap;
    let initial_stored = template.stored_energy().value();
    let initial_losses = template.losses().value();

    let empty_rows: &[EnvConditions] = &[];
    let (shared, mut channel, factors, rows) = match harvest {
        LaneHarvest::Shared(table) => (Some(table), None, Vec::new(), empty_rows),
        LaneHarvest::Jittered {
            channel,
            factors,
            rows,
        } => (None, Some(channel), factors, rows),
    };

    // Uniform fast path: un-jittered lanes all start in the template
    // state and read the same table, so step one lane until the
    // policies produce a divergent duty.
    let mut uniform = shared.is_some();
    let mut lanes = if uniform {
        solo
    } else {
        solo.replicate_lane0(lanes_n)
    };
    // Lanes actually stepped this window (1 while uniform).
    let mut active = if uniform { 1 } else { lanes_n };

    let mut books: Vec<NodeBooks> = vec![NodeBooks::new(); lanes_n];
    // Each lane's last bus harvest, reported in its next status.
    let mut last_harvest: Vec<Watts> = vec![Watts::ZERO; lanes_n];

    let mut jenvs: Vec<EnvConditions> = Vec::new();
    let mut whs: Vec<HarvestStep> = vec![HarvestStep::default(); lanes_n];
    let mut fhs: Vec<HarvestStep> = vec![HarvestStep::default(); lanes_n];
    // Each lane's current window operating voltage, held across the
    // fractional closer exactly as a scalar controller holds its last
    // resample.
    let mut held: Vec<Volts> = vec![Volts::ZERO; lanes_n];

    // Per-window scratch from the policy prologue.
    let mut duties: Vec<DutyCycle> = vec![DutyCycle::ZERO; lanes_n];
    let mut loads: Vec<Watts> = vec![Watts::ZERO; lanes_n];
    let mut wsamples: Vec<f64> = vec![0.0; lanes_n];
    // Per-step staging for the batched store transfer.
    let mut charge_w = vec![0.0f64; lanes_n];
    let mut discharge_w = vec![0.0f64; lanes_n];
    let mut charged_o = vec![0.0f64; lanes_n];
    let mut discharged_o = vec![0.0f64; lanes_n];
    let mut harvested_l = vec![Joules::ZERO; lanes_n];
    let mut deficit_l = vec![Joules::ZERO; lanes_n];
    let mut e_load_in_l = vec![Joules::ZERO; lanes_n];
    let mut servable_l = vec![true; lanes_n];

    // `PowerUnit::energy_status` for a single primary store: actual SoC
    // over the device capacity, believed stored energy over the
    // recognized capacity, clamped to the monitoring tier.
    let status_of = |lanes: &L, i: usize, last_harvest: Watts| {
        let soc_actual = if cap.value() > 0.0 {
            lanes.stored_energy(i) / cap.value()
        } else {
            0.0
        };
        EnergyStatus::full(
            Volts::new(lanes.voltage(i)),
            Ratio::new(soc_actual),
            recognized * soc_actual,
            last_harvest,
        )
        .clamped_to(pop.monitoring)
    };

    let mut window_ordinal = 0usize;
    let mut window_start = 0u64;
    while window_start < plan.steps {
        if tripped(cancel) {
            return false;
        }
        let window_end = (window_start + plan.control_every).min(plan.steps);
        let at = plan.time_at(window_start);

        // Policy prologue, per lane. While uniform, every lane's state
        // bit-equals lane 0's, so one status serves all policies — each
        // of which is still driven, so stateful policies evolve exactly
        // as on the boxed path — and the population materializes on the
        // first divergent duty.
        if uniform {
            let timed = status_of(&lanes, 0, last_harvest[0]).at(at);
            let mut diverged = false;
            for i in 0..lanes_n {
                duties[i] = pop.policies[i].choose(pop.node, &timed);
                if duties[i].value().to_bits() != duties[0].value().to_bits() {
                    diverged = true;
                }
            }
            if diverged {
                lanes = lanes.replicate_lane0(lanes_n);
                let (b0, h0) = (books[0].clone(), last_harvest[0]);
                books.fill(b0);
                last_harvest.fill(h0);
                active = lanes_n;
                uniform = false;
            }
        } else {
            for i in 0..lanes_n {
                let status = status_of(&lanes, i, last_harvest[i]);
                duties[i] = pop.policies[i].choose(pop.node, &status.at(at));
            }
        }
        for i in 0..active {
            loads[i] = pop.node.average_power(duties[i]);
            wsamples[i] = pop.node.step(duties[i], plan.dt).samples;
        }

        // Harvest for the window: batched channel solve across lanes
        // (jittered) — the shared-table case reads per step below.
        if let Some(ch) = channel.as_mut() {
            let base = &rows[window_ordinal];
            jenvs.clear();
            jenvs.extend(factors.iter().map(|f| f.apply(base)));
            if window_start < plan.full_steps {
                ch.window_lanes(&jenvs, plan.dt, &mut whs);
                for i in 0..lanes_n {
                    held[i] = whs[i].operating_voltage;
                }
            }
        }

        for j in window_start..window_end {
            let frac_step = plan.frac_dt.is_some() && j == plan.full_steps;
            let step_dt = plan.step_dt(j);
            if frac_step {
                if let Some(ch) = channel.as_mut() {
                    ch.frac_lanes(&jenvs, &held, step_dt, &mut fhs);
                }
            }

            // Pass A — the pre-transfer half of `PowerUnit::settle`:
            // resolve the lane's harvest, read the store voltage, stage
            // the charge/discharge request.
            for i in 0..active {
                let hs: &HarvestStep = match shared {
                    Some(table) => &table[j as usize],
                    None if frac_step => &fhs[i],
                    None => &whs[i],
                };
                let load = loads[i];

                let harvested_w = hs.delivered;
                let overhead_w = pop.supervisor_overhead + pop.output.quiescent() + hs.overhead;
                last_harvest[i] = harvested_w;

                let store_v = Volts::new(lanes.voltage(i));
                let (load_in_w, servable) = if load.value() > 0.0 {
                    if pop.output.accepts_input_voltage(store_v) {
                        (pop.output.input_for_output(load, store_v), true)
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

                charge_w[i] = 0.0;
                discharge_w[i] = 0.0;
                deficit_l[i] = Joules::ZERO;
                if e_h >= step_demand {
                    let surplus = e_h - step_demand;
                    if surplus.value() > 0.0 {
                        charge_w[i] = (surplus / step_dt).value();
                    }
                } else {
                    let deficit = step_demand - e_h;
                    if deficit.value() > 0.0 {
                        discharge_w[i] = (deficit / step_dt).value();
                    }
                    deficit_l[i] = deficit;
                }
                harvested_l[i] = e_h;
                e_load_in_l[i] = e_load_in;
                servable_l[i] = servable;
            }

            // Batched transfer + idle: masked passes over the lanes,
            // bit-identical to per-lane `charge`/`discharge`/`idle`
            // (see `SupercapLanes::step` / `BatteryLanes::step`).
            lanes.step(
                &charge_w[..active],
                &discharge_w[..active],
                step_dt.value(),
                &mut charged_o[..active],
                &mut discharged_o[..active],
            );

            // Pass B — the post-transfer half: the shortfall split, then
            // the step's report into the lane's books.
            for i in 0..active {
                let load = loads[i];
                let (step_samples, step_load_energy) = if frac_step {
                    (pop.node.step(duties[i], step_dt).samples, load * step_dt)
                } else {
                    (wsamples[i], load * plan.dt)
                };
                let discharged = Joules::new(discharged_o[i]);
                let unmet = (deficit_l[i] - discharged).max(Joules::ZERO);
                let e_load_in = e_load_in_l[i];

                let (delivered, shortfall, converter_loss) = if !servable_l[i] {
                    (Joules::ZERO, load * step_dt, Joules::ZERO)
                } else if e_load_in.value() > 0.0 {
                    let load_unmet = unmet.min(e_load_in);
                    let served_in = e_load_in - load_unmet;
                    let served = (served_in / e_load_in).clamp(0.0, 1.0);
                    let full_load = load * step_dt;
                    let delivered = full_load * served;
                    (
                        delivered,
                        full_load * (1.0 - served),
                        (served_in - delivered).max(Joules::ZERO),
                    )
                } else {
                    (Joules::ZERO, Joules::ZERO, Joules::ZERO)
                };

                // The books read neither `overhead` nor `spilled`.
                let report = StepReport {
                    harvested: harvested_l[i],
                    delivered,
                    shortfall,
                    charged: Joules::new(charged_o[i]),
                    discharged,
                    converter_loss,
                    store_voltage: Volts::new(lanes.voltage(i)),
                    ..StepReport::default()
                };
                books[i].record(&report, step_samples, step_load_energy);
            }
        }
        window_start = window_end;
        window_ordinal += 1;
    }

    let close = |i: usize| {
        let d_stored = Joules::new(lanes.stored_energy(i) - initial_stored);
        let d_losses = Joules::new(lanes.losses(i) - initial_losses);
        books[i].close(d_stored, d_losses, Joules::ZERO)
    };
    if uniform {
        // Never diverged: every member's trajectory is lane 0's.
        let outcome = close(0);
        out.extend(std::iter::repeat_n(outcome, lanes_n));
    } else {
        out.extend((0..lanes_n).map(close));
    }
    true
}
