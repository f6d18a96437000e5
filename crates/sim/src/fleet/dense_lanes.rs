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
//! The runner is generic over the store lane type ([`StoreLanes`]) and
//! over where its class parameters come from ([`DenseView`]): a
//! [`DenseGroup`](super::DenseGroup) on the dense lane, or a boxed
//! [`FleetGroup`](super::FleetGroup) whose members opted into the
//! kernels via [`DenseClass`](super::DenseClass). The policy arena
//! drives the same core through [`run_lane_population`], supplying one
//! policy per lane instead of seeding them from a factory.
//!
//! # Uniform fast path
//!
//! An un-jittered run starts with every lane in the template state,
//! reading the same shared harvest table. While every lane's policy
//! returns bit-identical duties the trajectories cannot diverge, so the
//! runner steps a single representative lane (every policy is still
//! driven each window — policy state must evolve exactly as scalar) and
//! materializes the full population from it on the first divergent
//! duty ([`SupercapLanes::replicate_lane0`]). Homogeneous-policy groups
//! collapse to one lane of arithmetic; heterogeneous groups pay at most
//! one window of single-lane work before falling back to full-width
//! stepping. Jittered runs never take the fast path (their harvests
//! differ per lane from the first window).
//!
//! # Bit-identity
//!
//! Every pass replicates the scalar path's exact arithmetic — same
//! operation order, same guard branches, same accumulator sequence as
//! [`simulate_node_dense`](super::simulate_node_dense) — and each
//! lane's iterates are independent of its companions, so the result is
//! bit-identical to the scalar tier *and* independent of how shards
//! split a group into runs. The uniform fast path preserves this: a
//! one-lane population's iterates equal any lane of a wider one. The
//! fleet tests assert all of it.

use super::{ChannelFactory, NodeOutcome, PolicyFactory, StepPlan, NODE_SEED_STREAM};
use crate::cancel::{tripped, CancelToken};
use mseh_env::rng::Noise;
use mseh_env::{EnvConditions, EnvJitter, JitterFactors};
use mseh_node::{DutyCyclePolicy, EnergyStatus, MonitoringLevel, SensorNode};
use mseh_power::{DcDcConverter, HarvestStep, InputChannel, PowerStage};
use mseh_storage::{Battery, BatteryLanes, Storage, Supercap, SupercapLanes};
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

/// Per-lane running totals, mirroring `simulate_node_dense`'s locals.
#[derive(Clone)]
struct LaneAcc {
    samples: f64,
    harvested: Joules,
    delivered: Joules,
    shortfall: Joules,
    demanded: Joules,
    charged: Joules,
    discharged: Joules,
    brownout_steps: u64,
    outage_run: u64,
    longest_outage: u64,
    converter_losses: Joules,
    min_v: Volts,
    last_harvest: Watts,
}

impl LaneAcc {
    fn new() -> Self {
        Self {
            samples: 0.0,
            harvested: Joules::ZERO,
            delivered: Joules::ZERO,
            shortfall: Joules::ZERO,
            demanded: Joules::ZERO,
            charged: Joules::ZERO,
            discharged: Joules::ZERO,
            brownout_steps: 0,
            outage_run: 0,
            longest_outage: 0,
            converter_losses: Joules::ZERO,
            min_v: Volts::new(f64::INFINITY),
            last_harvest: Watts::ZERO,
        }
    }
}

/// Steps global nodes `lo..hi` of a supercap-store dense class as one
/// lane population, pushing their [`NodeOutcome`]s onto `out` in node
/// order. See [`run_lane_population`] for the shared semantics.
#[allow(clippy::too_many_arguments)]
pub(super) fn simulate_supercap_run(
    view: &DenseView<'_>,
    template: &Supercap,
    group_start: u64,
    lo: u64,
    hi: u64,
    rows: &[EnvConditions],
    shared: Option<&[HarvestStep]>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    simulate_dense_run(
        view,
        SupercapLanes::from_template(template, 1),
        template.capacity(),
        template.stored_energy().value(),
        template.losses().value(),
        group_start,
        lo,
        hi,
        rows,
        shared,
        plan,
        cancel,
        out,
    )
}

/// Steps global nodes `lo..hi` of a battery-store dense class as one
/// lane population, pushing their [`NodeOutcome`]s onto `out` in node
/// order. See [`run_lane_population`] for the shared semantics.
#[allow(clippy::too_many_arguments)]
pub(super) fn simulate_battery_run(
    view: &DenseView<'_>,
    template: &Battery,
    group_start: u64,
    lo: u64,
    hi: u64,
    rows: &[EnvConditions],
    shared: Option<&[HarvestStep]>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    simulate_dense_run(
        view,
        BatteryLanes::from_template(template, 1),
        template.capacity(),
        template.stored_energy().value(),
        template.losses().value(),
        group_start,
        lo,
        hi,
        rows,
        shared,
        plan,
        cancel,
        out,
    )
}

/// Fleet-facing wrapper: derives per-node seeds, policies, and (for
/// jittered runs) the group channel + per-lane jitter factors, then
/// hands the population to [`run_lane_population`].
#[allow(clippy::too_many_arguments)]
fn simulate_dense_run<L: StoreLanes>(
    view: &DenseView<'_>,
    solo: L,
    cap: Joules,
    initial_stored: f64,
    initial_losses: f64,
    group_start: u64,
    lo: u64,
    hi: u64,
    rows: &[EnvConditions],
    shared: Option<&[HarvestStep]>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    let lanes_n = (hi - lo) as usize;
    let node_seed = |i: usize| {
        let within = lo - group_start + i as u64;
        Noise::new(view.seed).bits(NODE_SEED_STREAM, within)
    };

    let mut policies: Vec<Box<dyn DutyCyclePolicy>> =
        (0..lanes_n).map(|i| (view.policy)(node_seed(i))).collect();

    // Jittered runs drive the group channel once per window over every
    // lane's jittered snapshot; the per-lane factors replicate the
    // scalar path's per-node derivation.
    let harvest = match shared {
        Some(table) => LaneHarvest::Shared(table),
        None => {
            let factors: Vec<JitterFactors> = (0..lanes_n)
                .map(|i| JitterFactors::derive(view.jitter, node_seed(i)))
                .collect();
            LaneHarvest::Jittered {
                channel: Box::new((view.channel)()),
                factors,
                rows,
            }
        }
    };

    let mut pop = LanePopulation {
        node: view.node,
        output: view.output,
        supervisor_overhead: view.supervisor_overhead,
        monitoring: view.monitoring,
        policies: &mut policies,
    };
    run_lane_population(
        &mut pop,
        solo,
        cap,
        initial_stored,
        initial_losses,
        harvest,
        plan,
        cancel,
        out,
    )
}

/// Steps a policy-lane population of a supercap-store class against a
/// shared harvest table, pushing one [`NodeOutcome`] per lane onto
/// `out` in lane order. Arena-facing analogue of
/// [`simulate_supercap_run`]: lanes are one-per-policy rather than
/// one-per-node.
pub(crate) fn run_supercap_lanes(
    pop: &mut LanePopulation<'_>,
    template: &Supercap,
    table: &[HarvestStep],
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    run_lane_population(
        pop,
        SupercapLanes::from_template(template, 1),
        template.capacity(),
        template.stored_energy().value(),
        template.losses().value(),
        LaneHarvest::Shared(table),
        plan,
        cancel,
        out,
    )
}

/// Steps a policy-lane population of a battery-store class against a
/// shared harvest table. Arena-facing analogue of
/// [`simulate_battery_run`].
pub(crate) fn run_battery_lanes(
    pop: &mut LanePopulation<'_>,
    template: &Battery,
    table: &[HarvestStep],
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    run_lane_population(
        pop,
        BatteryLanes::from_template(template, 1),
        template.capacity(),
        template.stored_energy().value(),
        template.losses().value(),
        LaneHarvest::Shared(table),
        plan,
        cancel,
        out,
    )
}

/// The generic lane runner: steps one [`LanePopulation`] as a
/// [`StoreLanes`] population, one lane per policy.
///
/// [`LaneHarvest::Shared`] populations replay the class-wide table
/// and start on the uniform fast path (see the module docs). [`LaneHarvest::Jittered`] populations
/// drive the channel once per window over per-lane jittered snapshots.
///
/// Returns `false` — with no outcomes pushed — when `cancel` trips,
/// checked once per control window.
#[allow(clippy::too_many_arguments)]
fn run_lane_population<L: StoreLanes>(
    pop: &mut LanePopulation<'_>,
    solo: L,
    cap: Joules,
    initial_stored: f64,
    initial_losses: f64,
    harvest: LaneHarvest<'_>,
    plan: &StepPlan,
    cancel: Option<&CancelToken>,
    out: &mut Vec<NodeOutcome>,
) -> bool {
    let lanes_n = pop.policies.len();
    let recognized = cap;

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

    let mut acc: Vec<LaneAcc> = (0..lanes_n).map(|_| LaneAcc::new()).collect();

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
    let mut deficit_l = vec![Joules::ZERO; lanes_n];
    let mut e_load_in_l = vec![Joules::ZERO; lanes_n];
    let mut servable_l = vec![true; lanes_n];

    let mut window_ordinal = 0usize;
    let mut window_start = 0u64;
    while window_start < plan.steps {
        if tripped(cancel) {
            return false;
        }
        let window_end = (window_start + plan.control_every).min(plan.steps);

        // Policy prologue, per lane: the exact `EnergyStatus` the scalar
        // dense path composes from its store. While uniform, every
        // lane's state bit-equals lane 0's, so one status serves all
        // policies — each of which is still driven, so stateful
        // policies evolve exactly as scalar — and the population
        // materializes on the first divergent duty.
        if uniform {
            let soc_actual = if cap.value() > 0.0 {
                lanes.stored_energy(0) / cap.value()
            } else {
                0.0
            };
            let status = EnergyStatus::full(
                Volts::new(lanes.voltage(0)),
                Ratio::new(soc_actual),
                recognized * soc_actual,
                acc[0].last_harvest,
            )
            .clamped_to(pop.monitoring);
            let timed = status.at(plan.time_at(window_start));
            let mut diverged = false;
            for i in 0..lanes_n {
                duties[i] = pop.policies[i].choose(pop.node, &timed);
                if duties[i].value().to_bits() != duties[0].value().to_bits() {
                    diverged = true;
                }
            }
            if diverged {
                lanes = lanes.replicate_lane0(lanes_n);
                let a0 = acc[0].clone();
                for a in acc.iter_mut().skip(1) {
                    *a = a0.clone();
                }
                active = lanes_n;
                uniform = false;
            }
            for i in 0..active {
                loads[i] = pop.node.average_power(duties[i]);
                wsamples[i] = pop.node.step(duties[i], plan.dt).samples;
            }
        } else {
            for i in 0..lanes_n {
                let soc_actual = if cap.value() > 0.0 {
                    lanes.stored_energy(i) / cap.value()
                } else {
                    0.0
                };
                let status = EnergyStatus::full(
                    Volts::new(lanes.voltage(i)),
                    Ratio::new(soc_actual),
                    recognized * soc_actual,
                    acc[i].last_harvest,
                )
                .clamped_to(pop.monitoring);
                let duty = pop.policies[i].choose(pop.node, &status.at(plan.time_at(window_start)));
                duties[i] = duty;
                loads[i] = pop.node.average_power(duty);
                wsamples[i] = pop.node.step(duty, plan.dt).samples;
            }
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
            let step_dt = if frac_step {
                plan.frac_dt.expect("frac step implies frac_dt")
            } else {
                plan.dt
            };
            if frac_step {
                if let Some(ch) = channel.as_mut() {
                    ch.frac_lanes(&jenvs, &held, step_dt, &mut fhs);
                }
            }

            // Pass A — the pre-transfer half of the scalar step: resolve
            // the lane's harvest, read the store voltage, stage the
            // charge/discharge request.
            for i in 0..active {
                let hs: &HarvestStep = match shared {
                    Some(table) => &table[j as usize],
                    None if frac_step => &fhs[i],
                    None => &whs[i],
                };
                let load = loads[i];

                let harvested_w = hs.delivered;
                let overhead_w = pop.supervisor_overhead + pop.output.quiescent() + hs.overhead;
                acc[i].last_harvest = harvested_w;

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
                e_load_in_l[i] = e_load_in;
                servable_l[i] = servable;
                acc[i].harvested += e_h;
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

            // Pass B — the post-transfer half: shortfall split, sample
            // accounting, outage tracking. Accumulator order matches the
            // scalar step exactly.
            for i in 0..active {
                let load = loads[i];
                let (step_samples, step_load_energy) = if frac_step {
                    (pop.node.step(duties[i], step_dt).samples, load * step_dt)
                } else {
                    (wsamples[i], load * plan.dt)
                };
                let step_charged = Joules::new(charged_o[i]);
                let step_discharged = Joules::new(discharged_o[i]);
                let unmet = (deficit_l[i] - step_discharged).max(Joules::ZERO);
                let e_load_in = e_load_in_l[i];

                let (step_delivered, step_shortfall, step_conv_loss) = if !servable_l[i] {
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

                let a = &mut acc[i];
                a.delivered += step_delivered;
                a.shortfall += step_shortfall;
                a.charged += step_charged;
                a.discharged += step_discharged;
                a.converter_losses += step_conv_loss;
                a.demanded += step_load_energy;

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
                a.samples += step_samples * served_fraction;

                if step_shortfall.value() > 1e-12 {
                    a.brownout_steps += 1;
                    a.outage_run += 1;
                    a.longest_outage = a.longest_outage.max(a.outage_run);
                } else {
                    a.outage_run = 0;
                }
                a.min_v = a.min_v.min(Volts::new(lanes.voltage(i)));
            }
        }
        window_start = window_end;
        window_ordinal += 1;
    }

    let fold = |a: &LaneAcc, i: usize| -> NodeOutcome {
        let d_stored = lanes.stored_energy(i) - initial_stored;
        let d_losses = lanes.losses(i) - initial_losses;
        let residual_signed = a.charged.value() - a.discharged.value() - d_losses - d_stored;
        let throughput = (a.harvested + a.discharged + a.charged).value().max(1.0);
        let audit_residual = residual_signed.abs() / throughput;
        debug_assert!(
            audit_residual < 1e-6,
            "dense fleet node violated storage conservation: residual {residual_signed} J"
        );
        let uptime = if a.demanded.value() > 0.0 {
            1.0 - (a.shortfall.value() / a.demanded.value()).clamp(0.0, 1.0)
        } else {
            1.0
        };
        NodeOutcome {
            uptime,
            samples: a.samples,
            harvested: a.harvested,
            delivered: a.delivered,
            shortfall: a.shortfall,
            demanded: a.demanded,
            converter_losses: a.converter_losses,
            brownout_steps: a.brownout_steps,
            longest_outage_steps: a.longest_outage,
            min_store_voltage: a.min_v,
            audit_residual,
            residual_signed,
            throughput,
            stranded: Joules::ZERO,
        }
    };

    if uniform {
        // Never diverged: every member's trajectory is lane 0's.
        let outcome = fold(&acc[0], 0);
        for _ in 0..lanes_n {
            out.push(outcome.clone());
        }
    } else {
        for (i, a) in acc.iter().enumerate() {
            out.push(fold(a, i));
        }
    }
    true
}
