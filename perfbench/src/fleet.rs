//! `fleet-mixed`: one heterogeneous deployment under the default
//! `FleetConfig` (auto threads, default shards, per-window cadence).
//!
//! Jittered dense battery and supercap groups over three sites take most
//! of the time; an un-jittered dense group on the uniform fast path
//! carries many node-steps in little time; jittered boxed Table-I
//! System C and A groups run the boxed single-run path as a minority.
//! Four variants of the deployment (site and group seeds derived from
//! the workload seed) run in turn until the measured time is spent, so one
//! run's figures do not hang on one draw of the weather; every repeat of a
//! variant must reproduce its first run bit for bit.

use crate::stats::{mix, sorted, tail, Report, ResultsDigest};
use crate::trace::{
    build_system, shard_close, shard_touch, traced_unit, Slot, Tally, TracedPolicy,
};
use crate::{
    books_close, emit, median, secs, setup_time, Breakdown, Options, END_TO_END, PER_LAYER,
};
use mseh::env::{EnvJitter, Environment};
use mseh::harvesters::PvModule;
use mseh::node::{DutyCyclePolicy, FixedDuty, SensorNode, VoltageThreshold};
use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh::sim::{
    run_fleet, run_fleet_controlled, thread_count, DenseGroup, DenseStore, FleetConfig,
    FleetControl, FleetGroup, FleetSpec, FleetSummary,
};
use mseh::storage::{Battery, Supercap};
use mseh::systems::resilience::{natural_node, natural_policy};
use mseh::systems::SystemId;
use mseh::units::{DutyCycle, Seconds, Volts};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Simulated days per fleet run.
pub const DAYS: f64 = 0.25;
/// Jittered dense battery nodes per site.
pub const DENSE_BATTERY_PER_SITE: usize = 3_000;
/// Jittered dense supercap nodes per site.
pub const DENSE_SUPERCAP_PER_SITE: usize = 3_000;
/// Un-jittered dense nodes (uniform fast path), before the padding that
/// aligns the System C group to a shard boundary.
pub const DENSE_UNIFORM: usize = 40_000;
/// Jittered boxed System A nodes.
pub const BOXED_A: usize = 500;
/// Jittered boxed System C nodes: one default shard's worth, placed last
/// and aligned so it fills exactly one shard — the shape in which one
/// worker runs the whole boxed group while the other idles.
pub const BOXED_C: usize = 1_000;
/// The engine's default shard width (`FleetConfig::shard_size == 0`).
const DEFAULT_SHARD: usize = 1024;
/// Deployment variants run in turn.
pub const VARIANTS: usize = 4;

/// The spec's node counts by lane kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Composition {
    /// Nodes on the dense lanes.
    pub dense: u64,
    /// Nodes on the boxed path.
    pub boxed: u64,
}

fn pv_channel() -> InputChannel {
    InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

/// Wraps a policy factory so its products are traced and each call marks
/// the shard it runs in.
fn policy_factory(
    make: impl Fn(u64) -> Box<dyn DutyCyclePolicy> + Send + Sync + 'static,
    sink: Option<&Arc<Tally>>,
) -> Box<dyn Fn(u64) -> Box<dyn DutyCyclePolicy> + Send + Sync> {
    match sink {
        None => Box::new(make),
        Some(sink) => {
            let sink = Arc::clone(sink);
            Box::new(move |seed| {
                shard_touch();
                TracedPolicy::boxed(make(seed), &sink)
            })
        }
    }
}

/// A dense PV + NiMH group at half charge with a fixed 5 % duty.
pub fn dense_battery(
    name: &str,
    count: usize,
    site: usize,
    seed: u64,
    sink: Option<&Arc<Tally>>,
) -> DenseGroup {
    let mut battery = Battery::nimh_aa_pair();
    battery.set_soc(0.5);
    let duty = DutyCycle::saturating(0.05);
    let policy = policy_factory(move |_| Box::new(FixedDuty::new(duty)), sink);
    DenseGroup::new(
        name,
        count,
        site,
        SensorNode::submilliwatt_class(),
        pv_channel,
        DcDcConverter::buck_boost_3v3(),
        DenseStore::Battery(battery),
        move |s| policy(s),
    )
    .with_seed(seed)
}

/// A dense PV + EDLC group pre-charged to 1.8 V on the voltage ladder.
pub fn dense_supercap(
    name: &str,
    count: usize,
    site: usize,
    seed: u64,
    sink: Option<&Arc<Tally>>,
) -> DenseGroup {
    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(1.8));
    let policy = policy_factory(|_| Box::new(VoltageThreshold::supercap_ladder()), sink);
    DenseGroup::new(
        name,
        count,
        site,
        SensorNode::submilliwatt_class(),
        pv_channel,
        DcDcConverter::buck_boost_3v3(),
        DenseStore::Supercap(cap),
        move |s| policy(s),
    )
    .with_seed(seed)
}

/// A jittered boxed group of Table-I system `id` with its natural load
/// and policy.
pub fn boxed(
    id: SystemId,
    count: usize,
    site: usize,
    seed: u64,
    sink: Option<&Arc<Tally>>,
) -> FleetGroup {
    let policy = policy_factory(move |_| natural_policy(id), sink);
    let group = match sink {
        None => FleetGroup::new(
            &format!("boxed System {id:?}"),
            count,
            site,
            natural_node(id),
            move |_| Box::new(id.build()),
            move |s| policy(s),
        ),
        Some(sink) => {
            let sink = Arc::clone(sink);
            FleetGroup::new(
                &format!("boxed System {id:?}"),
                count,
                site,
                natural_node(id),
                move |_| {
                    shard_touch();
                    Box::new(traced_unit(build_system(id, &sink), &sink))
                },
                move |s| policy(s),
            )
        }
    };
    group.with_seed(seed).with_jitter(EnvJitter::relative(0.2))
}

/// The deployment for `seed`; traced factories report into `sink`.
pub fn spec(seed: u64, sink: Option<&Arc<Tally>>) -> (FleetSpec, Composition) {
    let mut spec = FleetSpec::new();
    let sites = [
        spec.add_site(Environment::outdoor_temperate(mix(seed, 1))),
        spec.add_site(Environment::agricultural(mix(seed, 2))),
        spec.add_site(Environment::outdoor_winter(mix(seed, 3))),
    ];
    let jitter = EnvJitter::relative(0.15);
    for (k, &site) in sites.iter().enumerate() {
        let salt = 10 + 2 * k as u64;
        spec.add_dense_group(
            dense_battery(
                "dense PV+NiMH (jittered)",
                DENSE_BATTERY_PER_SITE,
                site,
                mix(seed, salt),
                sink,
            )
            .with_jitter(jitter),
        );
        spec.add_dense_group(
            dense_supercap(
                "dense PV+EDLC (jittered)",
                DENSE_SUPERCAP_PER_SITE,
                site,
                mix(seed, salt + 1),
                sink,
            )
            .with_jitter(jitter),
        );
    }
    let before = 3 * (DENSE_BATTERY_PER_SITE + DENSE_SUPERCAP_PER_SITE) + DENSE_UNIFORM + BOXED_A;
    let uniform = DENSE_UNIFORM + (DEFAULT_SHARD - before % DEFAULT_SHARD) % DEFAULT_SHARD;
    spec.add_dense_group(dense_battery(
        "dense PV+NiMH (uniform)",
        uniform,
        sites[0],
        mix(seed, 30),
        sink,
    ));
    spec.add_group(boxed(SystemId::A, BOXED_A, sites[0], mix(seed, 41), sink));
    spec.add_group(boxed(SystemId::C, BOXED_C, sites[0], mix(seed, 40), sink));
    let boxed_nodes = (BOXED_C + BOXED_A) as u64;
    let composition = Composition {
        dense: spec.population() - boxed_nodes,
        boxed: boxed_nodes,
    };
    (spec, composition)
}

/// Digest of a fleet summary's physical fields.
pub fn digest(summary: &FleetSummary) -> u64 {
    let mut d = ResultsDigest::default();
    for v in [
        summary.harvested.value(),
        summary.delivered.value(),
        summary.shortfall.value(),
        summary.served_fraction,
        summary.uptime.mean,
        summary.uptime.min,
    ] {
        d.f64(v);
    }
    d.value()
}

/// One fleet run's figures.
#[derive(Debug, Clone)]
pub struct Op {
    /// Which deployment variant ran.
    pub variant: usize,
    /// Wall seconds of the `run_fleet` call.
    pub wall_s: f64,
    /// Seconds spent checking after it.
    pub check_s: f64,
    /// Node-steps simulated.
    pub node_steps: u64,
    /// Digest of the summary.
    pub digest: u64,
    /// Whether the books closed.
    pub books_ok: bool,
    /// `(start, end)` of each shard relative to the call's start,
    /// seconds (traced runs only).
    pub shards: Vec<(f64, f64)>,
}

/// Runs the deployment variants in turn until `seconds` are spent.
pub fn measure(seed: u64, seconds: f64, sink: Option<&Arc<Tally>>) -> (Vec<Op>, f64, Composition) {
    let variants: Vec<(FleetSpec, Composition)> = (0..VARIANTS)
        .map(|v| spec(mix(seed, 100 + v as u64), sink))
        .collect();
    let config = FleetConfig::over(Seconds::from_days(DAYS));
    // One untimed, untraced run first, so allocator growth and first-touch
    // page faults are not measured and nothing lands in the tally.
    drop(run_fleet(&spec(mix(seed, 100), None).0, config));
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.is_empty() || secs(start) < seconds {
        let variant = ops.len() % VARIANTS;
        let spec = &variants[variant].0;
        let shards: Mutex<Vec<(Instant, Instant)>> = Mutex::new(Vec::new());
        let progress = |_done: u64, _total: u64| {
            let end = Instant::now();
            if let Some(start) = shard_close() {
                shards
                    .lock()
                    .expect("shard list poisoned")
                    .push((start, end));
            }
        };
        shard_close();
        let begin = Instant::now();
        let result = match sink {
            None => run_fleet(spec, config),
            Some(_) => run_fleet_controlled(
                spec,
                config,
                FleetControl {
                    cancel: None,
                    progress: Some(&progress),
                },
            )
            .expect("valid fleet spec")
            .expect("no cancel token"),
        };
        let wall_s = secs(begin);
        let checked = Instant::now();
        let s = &result.summary;
        let books_ok = books_close(s.audit_relative) && books_close(s.worst_node_audit);
        let shards = shards
            .into_inner()
            .expect("shard list poisoned")
            .into_iter()
            .map(|(a, b)| ((a - begin).as_secs_f64(), (b - begin).as_secs_f64()))
            .collect();
        ops.push(Op {
            variant,
            wall_s,
            check_s: 0.0,
            node_steps: s.node_steps,
            digest: digest(s),
            books_ok,
            shards,
        });
        drop(result);
        ops.last_mut().expect("pushed").check_s = secs(checked);
    }
    (ops, secs(start), variants[0].1)
}

/// Digest of each variant's first run, in variant order.
fn first_digests(ops: &[Op]) -> Vec<u64> {
    ops.iter().take(VARIANTS).map(|o| o.digest).collect()
}

fn failures(ops: &[Op]) -> u64 {
    ops.iter()
        .filter(|op| !op.books_ok || op.digest != ops[op.variant].digest)
        .count() as u64
}

fn rate(ops: &[Op]) -> f64 {
    ops.iter().map(|o| o.node_steps).sum::<u64>() as f64 / ops.iter().map(|o| o.wall_s).sum::<f64>()
}

/// Batches of spec builds timed for `setup_s`.
const SETUP_BATCHES: usize = 7;

/// The `fleet-mixed` workload.
pub fn run(opts: Options) -> Report {
    let mut report = Report::default();
    if !opts.trace {
        let setup_s = setup_time(SETUP_BATCHES, 100, || spec(mix(opts.seed, 100), None));
        let (ops, _, composition) = measure(opts.seed, opts.seconds, None);
        report.attempted = ops.len() as u64;
        report.failed = failures(&ops);
        let walls: Vec<f64> = ops.iter().map(|o| o.wall_s * 1e3).collect();
        let walls_sorted = sorted(&walls);
        let (level, tail_ms) =
            tail(&walls_sorted).unwrap_or((1.0, *walls_sorted.last().unwrap_or(&0.0)));
        report.note(format!(
            "fleet-mixed: {} runs of {} variants of {} nodes ({} dense, {} boxed) x {} days, results_digest {:016x}",
            ops.len(),
            VARIANTS,
            composition.dense + composition.boxed,
            composition.dense,
            composition.boxed,
            DAYS,
            first_digests(&ops)
                .iter()
                .fold(ResultsDigest::default(), |mut d, &x| {
                    d.u64(x);
                    d
                })
                .value()
        ));
        report.note(format!(
            "op_tail_ms is p{:.1} of {} fleet runs",
            level * 100.0,
            ops.len()
        ));
        report.note(format!("fleet run walls (ms): {:.1?}", walls));
        let ok_frac = report.ok_frac();
        emit(
            &mut report,
            &END_TO_END,
            &[
                ("setup_s", setup_s),
                ("peak_rss_mb", crate::stats::peak_rss_mib()),
                ("ok_frac", ok_frac),
                (
                    "steps_per_s",
                    median(
                        &ops.iter()
                            .map(|o| o.node_steps as f64 / o.wall_s)
                            .collect::<Vec<_>>(),
                    ),
                ),
                ("ops_per_s", 1e3 / median(&walls)),
                ("op_p50_ms", median(&walls)),
                ("op_tail_ms", tail_ms),
            ],
        );
        return report;
    }

    let (plain, _, _) = measure(opts.seed, opts.seconds / 2.0, None);
    let sink = Tally::shared();
    let (traced, traced_wall, composition) = measure(opts.seed, opts.seconds / 2.0, Some(&sink));
    report.attempted = (plain.len() + traced.len()) as u64;
    report.failed = failures(&plain) + failures(&traced);
    report.mismatch = first_digests(&plain)
        .iter()
        .zip(first_digests(&traced))
        .any(|(a, b)| *a != b);
    report.note(format!(
        "traced vs untraced: {}",
        if report.mismatch {
            "MISMATCH"
        } else {
            "bit-identical"
        }
    ));

    let shard_count = traced.iter().map(|o| o.shards.len()).max().unwrap_or(1);
    let workers = thread_count().min(shard_count).max(1) as f64;
    let shard_s: Vec<f64> = traced
        .iter()
        .flat_map(|o| o.shards.iter().map(|(a, b)| b - a))
        .collect();
    let shard_sum: f64 = shard_s.iter().sum();
    let first = |o: &Op| o.shards.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let last = |o: &Op| o.shards.iter().map(|s| s.1).fold(0.0, f64::max);
    let tables_s: f64 = traced.iter().map(&first).sum();
    let merge_s: f64 = traced.iter().map(|o| o.wall_s - last(o)).sum();
    let span_s: f64 = traced.iter().map(|o| last(o) - first(o)).sum();
    let walls: f64 = traced.iter().map(|o| o.wall_s).sum();
    let children =
        sink.seconds(Slot::StepNs) + sink.seconds(Slot::PolicyNs) + sink.seconds(Slot::BuildNs);
    let lanes_self = shard_sum - children;
    let core_self =
        sink.seconds(Slot::StepNs) - sink.seconds(Slot::StoreNs) - sink.seconds(Slot::StageNs);
    let breakdown = Breakdown {
        wall_s: traced_wall,
        capacity_s: walls * workers + traced.iter().map(|o| o.check_s).sum::<f64>(),
        parts: vec![
            ("systems.build", sink.seconds(Slot::BuildNs)),
            ("core.step (self)", core_self),
            ("storage.step", sink.seconds(Slot::StoreNs)),
            ("power.output_stage", sink.seconds(Slot::StageNs)),
            ("node.policy", sink.seconds(Slot::PolicyNs)),
            ("sim.fleet lanes (self)", lanes_self),
            ("sim.fleet tables+merge+idle", walls * workers - shard_sum),
        ],
    };
    for line in breakdown.lines() {
        report.note(line);
    }
    report.note(format!(
        "fleet: {} shards over {} runs; tables {:.4} s, merge {:.4} s, shard span {:.4} s",
        shard_s.len(),
        traced.len(),
        tables_s,
        merge_s,
        span_s
    ));
    let total = (composition.dense + composition.boxed) as f64;
    let plain_cost = plain.iter().map(|o| o.wall_s).sum::<f64>() / plain.len() as f64;
    let traced_cost = walls / traced.len() as f64;
    emit(
        &mut report,
        &PER_LAYER,
        &[
            ("core.step_self_s", core_self),
            ("core.step_calls", sink.get(Slot::StepCalls) as f64),
            ("storage.step_s", sink.seconds(Slot::StoreNs)),
            ("storage.calls", sink.get(Slot::StoreCalls) as f64),
            ("power.output_stage_s", sink.seconds(Slot::StageNs)),
            ("node.policy_s", sink.seconds(Slot::PolicyNs)),
            ("node.policy_calls", sink.get(Slot::PolicyCalls) as f64),
            ("systems.build_s", sink.seconds(Slot::BuildNs)),
            ("sim.fleet.node_steps_per_s", rate(&plain)),
            ("sim.fleet.shard_s.p50", median(&shard_s)),
            (
                "sim.fleet.shard_s.max",
                sorted(&shard_s).last().copied().unwrap_or(0.0),
            ),
            ("sim.fleet.idle_frac", 1.0 - shard_sum / (workers * span_s)),
            ("sim.fleet.lanes_self_s", lanes_self),
            ("sim.fleet.tables_s", tables_s),
            ("sim.fleet.merge_s", merge_s),
            ("sim.fleet.dense_share", composition.dense as f64 / total),
            ("sim.fleet.boxed_share", composition.boxed as f64 / total),
            (
                "trace.overhead_pct",
                100.0 * (traced_cost / plain_cost - 1.0),
            ),
            ("trace.unattributed_frac", breakdown.unattributed_frac()),
        ],
    );
    report
}
