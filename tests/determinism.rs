//! Determinism contracts of the simulation engine.
//!
//! Two families of guarantees live here:
//!
//! 1. **Parallel-engine determinism** — fanning an ensemble across
//!    worker threads must be observationally invisible: bit-for-bit the
//!    same `SimResult`s, in the same seed order, as the sequential path.
//! 2. **Rerun determinism across transitions** — a run that hot-swaps a
//!    harvester or crosses a fault's fire and clear edges is a pure
//!    function of its inputs: a rerun is bit-equal, and the energy books
//!    stay closed through every transition.

use mseh::core::{PortRequirement, PowerUnit, StoreRole};
use mseh::env::Environment;
use mseh::harvesters::{FlowTurbine, HarvesterKind, PvModule};
use mseh::node::{FixedDuty, SensorNode};
use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh::sim::{
    run_seed_ensemble, run_seed_ensemble_seq, run_seed_ensemble_with_threads, run_simulation,
    run_simulation_observed, ConservationAuditor, FaultSchedule, GlitchingHarvester, SimConfig,
    SimResult,
};
use mseh::storage::Supercap;
use mseh::systems::{system_b, SystemId};
use mseh::units::{DutyCycle, Seconds, Volts};

const SEEDS: [u64; 8] = [1, 7, 42, 300, 4096, 65535, 123456, 987654321];

fn rig() -> PowerUnit {
    let pv = InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    );
    let wind = InputChannel::new(
        Box::new(FlowTurbine::micro_wind()),
        Box::new(FractionalVoc::thevenin_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    );
    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(2.0));
    PowerUnit::builder("determinism rig")
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(pv),
            true,
        )
        .harvester_port(
            PortRequirement::any_in_window("wind", Volts::ZERO, Volts::new(12.0)),
            Some(wind),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("cap", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(cap)),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .build()
}

fn ensemble_at(threads: Option<usize>, record: bool) -> mseh::sim::EnsembleSummary {
    let config = SimConfig {
        record,
        ..SimConfig::over(Seconds::from_hours(18.0))
    };
    let make_platform = |_| rig();
    let make_policy = |_| FixedDuty::new(DutyCycle::saturating(0.05));
    let node = SensorNode::submilliwatt_class();
    match threads {
        Some(n) => run_seed_ensemble_with_threads(
            n,
            &SEEDS,
            make_platform,
            Environment::outdoor_temperate,
            make_policy,
            &node,
            config,
        ),
        None => run_seed_ensemble_seq(
            &SEEDS,
            make_platform,
            Environment::outdoor_temperate,
            make_policy,
            &node,
            config,
        ),
    }
}

/// The parallel ensemble returns bit-for-bit the same `SimResult`s as
/// the sequential path for the same seeds, at every worker count —
/// including full recorded traces.
#[test]
fn parallel_ensemble_is_bit_identical_to_sequential() {
    let sequential = ensemble_at(None, true);
    assert_eq!(sequential.runs.len(), SEEDS.len());
    for threads in [1, 2, 3, 4, 8] {
        let parallel = ensemble_at(Some(threads), true);
        // Whole-summary equality covers every SimResult field (energy
        // books, uptime, outage stats, traces) and the spreads.
        assert_eq!(parallel, sequential, "threads = {threads}");
    }
}

/// One worker equals many workers: `MSEH_THREADS=1`-style execution is
/// not a special case.
#[test]
fn single_thread_equals_multi_thread() {
    let one = ensemble_at(Some(1), false);
    let many = ensemble_at(Some(8), false);
    assert_eq!(one, many);
}

/// The default entry point (pool-sized by `MSEH_THREADS` /
/// `available_parallelism`) agrees with the sequential reference too.
#[test]
fn default_pool_matches_sequential() {
    let config = SimConfig::over(Seconds::from_hours(6.0));
    let node = SensorNode::submilliwatt_class();
    let default = run_seed_ensemble(
        &SEEDS,
        |_| rig(),
        Environment::outdoor_temperate,
        |_| FixedDuty::new(DutyCycle::saturating(0.05)),
        &node,
        config,
    );
    let sequential = run_seed_ensemble_seq(
        &SEEDS,
        |_| rig(),
        Environment::outdoor_temperate,
        |_| FixedDuty::new(DutyCycle::saturating(0.05)),
        &node,
        config,
    );
    assert_eq!(default, sequential);
    assert_eq!(default.seeds, SEEDS.to_vec());
    // Different seeds genuinely differ (the equality above is not
    // vacuous): at least two runs harvested different totals.
    assert!(default.harvested.max > default.harvested.min);
}

// ---------------------------------------------------------------------
// Hot-swap and fault transitions
// ---------------------------------------------------------------------

/// Runs System B for six hours, hot-swaps the wind module for a second
/// PV module on the plug-and-play port, rebuilds the remaining channel
/// through the wrap path, then continues another six hours through the
/// environment's calendar.
fn hot_swap_sequence() -> (SimResult, SimResult) {
    let mut b = SystemId::B.build();
    let env = Environment::outdoor_temperate(99);
    let node = SensorNode::submilliwatt_class();
    let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
    let config = SimConfig {
        record: true,
        ..SimConfig::over(Seconds::from_hours(6.0))
    };
    let before = run_simulation(&mut b, &env, &node, &mut policy, config);

    // Hot-swap: the wind module leaves and a fresh PV module takes the
    // port.
    b.detach_harvester(1).expect("wind module attached");
    let (channel, sheet) = system_b::harvester_module(HarvesterKind::Photovoltaic);
    b.attach_harvester(1, channel, Volts::new(4.1), Some(&sheet))
        .expect("plug-and-play port accepts the module");
    // Rebuild the surviving channel through the wrap path: same device.
    assert!(b.instrument_harvester(0, |h| h));

    let after = run_simulation(
        &mut b,
        &env,
        &node,
        &mut policy,
        config.starting_at(Seconds::from_hours(6.0)),
    );
    (before, after)
}

/// Hot-swapping a harvester mid-run keeps both segments' books closed,
/// and a rerun of the whole sequence is bit-equal, traces included.
#[test]
fn hot_swap_mid_run_conserves_and_reruns_bit_identically() {
    let (before, after) = hot_swap_sequence();
    assert!(
        before.audit_residual < 1e-6,
        "pre-swap audit {}",
        before.audit_residual
    );
    assert!(
        after.audit_residual < 1e-6,
        "post-swap audit {}",
        after.audit_residual
    );
    assert_eq!(hot_swap_sequence(), (before, after), "rerun diverged");
}

/// Runs the two-source rig with a glitching PV harvester (one dropout
/// firing at hour 4, clearing at hour 7) under a conservation audit.
fn glitching_run() -> (SimResult, (u64, u64), f64) {
    let mut unit = rig();
    let schedule =
        FaultSchedule::one_shot_recovering(Seconds::from_hours(4.0), Seconds::from_hours(3.0));
    assert!(unit.instrument_harvester(0, |inner| {
        Box::new(GlitchingHarvester::new(inner, schedule))
    }));
    let mut auditor = ConservationAuditor::new();
    let config = SimConfig {
        record: true,
        ..SimConfig::over(Seconds::from_hours(18.0))
    };
    let result = run_simulation_observed(
        &mut unit,
        &Environment::outdoor_temperate(7),
        &SensorNode::submilliwatt_class(),
        &mut FixedDuty::new(DutyCycle::saturating(0.05)),
        config,
        &mut [&mut auditor],
    );
    (result, unit.fault_counts(), auditor.report().worst_relative)
}

/// A fault firing and clearing mid-run surfaces both edges, the books
/// stay closed through both transitions, and a rerun is bit-equal.
#[test]
fn fault_fire_and_clear_conserve_and_rerun_bit_identically() {
    let (run, faults, audit) = glitching_run();
    assert_eq!(faults, (1, 1), "dropout must fire and clear");
    assert!(audit < 1e-6, "audit {audit}");
    let (rerun, _, _) = glitching_run();
    assert_eq!(run, rerun, "faulted rerun diverged");
}
