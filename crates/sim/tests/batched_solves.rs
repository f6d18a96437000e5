//! Dense lanes against their boxed reference.
//!
//! The contract under test: a dense group's struct-of-arrays lanes are
//! bit-identical to the same hardware built as boxed
//! [`mseh_core::PowerUnit`]s — same harvest, same uptime distribution,
//! same audit, same stragglers — across harvester classes, controllers,
//! store kinds and parameter sets, jitter settings, sampling cadences
//! and run geometry, because the batch kernels replicate the scalar
//! iterate sequence under a convergence mask rather than inventing a
//! new numerical scheme. Every comparison is full-summary equality.

use mseh_core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh_env::{EnvJitter, Environment};
use mseh_harvesters::{FlowTurbine, PvModule, Rectenna, Teg};
use mseh_node::{DutyCyclePolicy, FixedDuty, MonitoringLevel, SensorNode, VoltageThreshold};
use mseh_power::{DcDcConverter, FixedPoint, FractionalVoc, IdealDiode, InputChannel};
use mseh_sim::{run_fleet, DenseGroup, DenseStore, FleetConfig, FleetGroup, FleetSpec};
use mseh_storage::{Battery, Storage, Supercap};
use mseh_units::{DutyCycle, Seconds, Volts};

/// One dense platform preset per Table-I system: the seven surveyed
/// harvester-class / controller / buffer combinations, reduced to the
/// dense lane's one-channel/one-store shape.
const PRESETS: usize = 7;

/// An extra preset whose channel the window-lane gate cannot cover: a
/// wind turbine behind a Thevenin-fraction tracker (turbines expose no
/// batched open-circuit-voltage kernel). Jittered groups of it step as
/// one-lane populations over per-node harvest tables.
const NO_WINDOW_LANES: usize = PRESETS;

fn channel_for(preset: usize) -> InputChannel {
    let (harvester, controller): (_, Box<dyn mseh_power::OperatingPointController>) = match preset {
        // A: Smart Power Unit — large PV behind fractional-Voc MPPT.
        0 => (
            Box::new(PvModule::outdoor_panel_two_watt()) as Box<dyn mseh_harvesters::Transducer>,
            Box::new(FractionalVoc::pv_standard()),
        ),
        // B: Plug-and-Play — small PV, quiescent-lean fixed point.
        1 => (
            Box::new(PvModule::outdoor_panel_half_watt()) as _,
            Box::new(FixedPoint::new(Volts::new(3.2))),
        ),
        // C: AmbiMax — wind column (fixed point: turbines expose no
        // batched Voc kernel, the gate must still accept them).
        2 => (
            Box::new(FlowTurbine::micro_wind()) as _,
            Box::new(FixedPoint::new(Volts::new(3.0))),
        ),
        // D: MPWiNode — half-watt PV with fractional-Voc.
        3 => (
            Box::new(PvModule::outdoor_panel_half_watt()) as _,
            Box::new(FractionalVoc::pv_standard()),
        ),
        // E: MAX17710 eval — TEG with a Thevenin-fraction tracker.
        4 => (
            Box::new(Teg::module_40mm()) as _,
            Box::new(FractionalVoc::thevenin_standard()),
        ),
        // F: EnerChip eval — indoor amorphous PV, fixed point.
        5 => (
            Box::new(PvModule::amorphous_indoor()) as _,
            Box::new(FixedPoint::new(Volts::new(2.4))),
        ),
        // G: EH-Link — RF rectenna column, fixed point.
        6 => (
            Box::new(Rectenna::rectenna_915mhz()) as _,
            Box::new(FixedPoint::new(Volts::new(1.8))),
        ),
        NO_WINDOW_LANES => (
            Box::new(FlowTurbine::micro_wind()) as _,
            Box::new(FractionalVoc::thevenin_standard()),
        ),
        _ => unreachable!("no preset {preset}"),
    };
    InputChannel::new(
        harvester,
        controller,
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

fn cap_for(preset: usize) -> Supercap {
    let mut cap = match preset % 3 {
        0 => Supercap::edlc_22f(),
        1 => Supercap::lithium_ion_capacitor_40f(),
        _ => Supercap::edlc_1f(),
    };
    cap.set_voltage(Volts::new(
        cap.min_voltage().value() + 0.7 * (cap.max_voltage() - cap.min_voltage()).value(),
    ));
    cap
}

/// Battery analog of [`cap_for`]: the surveyed chemistries at partial
/// state of charge (the primary cell rides along to prove the lanes
/// honour the charge-refusal mask too).
fn batt_for(preset: usize) -> Battery {
    let mut batt = match preset % 4 {
        0 => Battery::lipo_400mah(),
        1 => Battery::nimh_aa_pair(),
        2 => Battery::thin_film_50uah(),
        _ => Battery::li_primary_aa(),
    };
    batt.set_soc(0.3 + 0.1 * (preset % 5) as f64);
    batt
}

fn site_for(preset: usize, seed: u64) -> Environment {
    match preset {
        // TEG and rectenna presets need a gradient / an RF field.
        4 | 6 => Environment::indoor_industrial(seed),
        5 => Environment::indoor_office(seed),
        _ => Environment::outdoor_temperate(seed),
    }
}

#[derive(Debug, Clone, Copy)]
enum Store {
    Supercap,
    Battery,
}

fn store_for(preset: usize, store: Store) -> DenseStore {
    match store {
        Store::Supercap => DenseStore::Supercap(cap_for(preset)),
        Store::Battery => DenseStore::Battery(batt_for(preset)),
    }
}

/// The boxed twin of a dense preset: a `PowerUnit` with the preset's
/// channel and store, the dense lane's output converter, and the dense
/// group's default supervisor (zero overhead, full monitoring).
fn boxed_twin(preset: usize, store: &DenseStore) -> PowerUnit {
    let store: Box<dyn Storage> = match store {
        DenseStore::Supercap(cap) => Box::new(cap.clone()),
        DenseStore::Battery(batt) => Box::new(batt.clone()),
    };
    let mut supervisor = Supervisor::none();
    supervisor.monitoring = MonitoringLevel::Full;
    PowerUnit::builder("boxed twin")
        .harvester_port(
            PortRequirement::any_in_window("h", Volts::ZERO, Volts::new(50.0)),
            Some(channel_for(preset)),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(50.0)),
            Some(store),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .supervisor(supervisor)
        .build()
}

/// One group of `count` preset nodes: dense lanes, or (`boxed`) their
/// boxed twins under the same seeds, policies and jitter.
fn spec_for(
    preset: usize,
    store: Store,
    seed: u64,
    jitter: EnvJitter,
    count: usize,
    boxed: bool,
) -> FleetSpec {
    let mut spec = FleetSpec::new();
    let site = spec.add_site(site_for(preset, seed));
    let node = SensorNode::submilliwatt_class();
    let template = store_for(preset, store);
    let policy = move |node_seed: u64| -> Box<dyn DutyCyclePolicy> {
        if preset.is_multiple_of(2) {
            Box::new(VoltageThreshold::supercap_ladder())
        } else {
            Box::new(FixedDuty::new(DutyCycle::saturating(
                0.02 + 0.08 * (node_seed % 7) as f64 / 7.0,
            )))
        }
    };
    if boxed {
        spec.add_group(
            FleetGroup::new(
                "preset",
                count,
                site,
                node,
                move |_| Box::new(boxed_twin(preset, &template)),
                policy,
            )
            .with_seed(seed ^ 0x5EED)
            .with_jitter(jitter),
        );
    } else {
        spec.add_dense_group(
            DenseGroup::new(
                "preset",
                count,
                site,
                node,
                move || channel_for(preset),
                DcDcConverter::buck_boost_3v3(),
                template,
                policy,
            )
            .with_seed(seed ^ 0x5EED)
            .with_jitter(jitter)
            .with_monitoring(MonitoringLevel::Full),
        );
    }
    spec
}

/// A duration whose fractional closer lands mid-window (10 s closer
/// after 2 h of whole steps), shorter than the fractional-Voc sample
/// interval so the hold path of the batched closer is exercised too.
fn horizon() -> Seconds {
    Seconds::from_hours(2.0) + Seconds::new(10.0)
}

/// Asserts dense ≡ boxed in full summary equality for `preset` over
/// both jitter settings, both cadences and two seeds.
fn assert_dense_matches_boxed(preset: usize, store: Store) {
    for jitter in [EnvJitter::NONE, EnvJitter::relative(0.25)] {
        for exact_env in [false, true] {
            let mut config = FleetConfig::over(horizon());
            if exact_env {
                config = config.exact_env();
            }
            for seed in [11u64, 1999] {
                let dense = run_fleet(&spec_for(preset, store, seed, jitter, 9, false), config);
                let boxed = run_fleet(&spec_for(preset, store, seed, jitter, 9, true), config);
                assert_eq!(
                    dense.summary, boxed.summary,
                    "{store:?} preset {preset}, seed {seed}, {jitter:?}, exact_env {exact_env}"
                );
            }
        }
    }
}

#[test]
fn supercap_lanes_match_boxed_twins_across_presets() {
    for preset in 0..PRESETS {
        // Guard against vacuity: every preset's channel must clear the
        // window-lane gate, or the jittered per-window runs would take
        // the per-node table path instead of the batched channel solve.
        assert!(
            channel_for(preset).supports_window_lanes(Seconds::new(60.0)),
            "preset {preset} is not window-batchable"
        );
        assert_dense_matches_boxed(preset, Store::Supercap);
    }
}

#[test]
fn battery_lanes_match_boxed_twins_across_presets() {
    for preset in 0..PRESETS {
        assert!(
            channel_for(preset).supports_window_lanes(Seconds::new(60.0)),
            "preset {preset} is not window-batchable"
        );
        assert_dense_matches_boxed(preset, Store::Battery);
    }
}

#[test]
fn one_lane_per_node_tables_match_boxed_twins() {
    // Guard against vacuity: the channel must fail the window-lane gate,
    // so the jittered group steps one-lane populations under both
    // cadences.
    assert!(
        !channel_for(NO_WINDOW_LANES).supports_window_lanes(Seconds::new(60.0)),
        "the turbine + Thevenin-fraction channel became window-batchable"
    );
    for store in [Store::Supercap, Store::Battery] {
        assert_dense_matches_boxed(NO_WINDOW_LANES, store);
    }
}

#[test]
fn battery_lanes_are_invariant_to_run_geometry() {
    let spec = spec_for(1, Store::Battery, 31, EnvJitter::relative(0.2), 13, false);
    let reference = run_fleet(
        &spec,
        FleetConfig::over(horizon())
            .with_threads(1)
            .with_shard_size(13),
    )
    .summary;
    for (threads, shard) in [(2usize, 1usize), (4, 3), (3, 1024), (1, 5)] {
        let got = run_fleet(
            &spec,
            FleetConfig::over(horizon())
                .with_threads(threads)
                .with_shard_size(shard),
        )
        .summary;
        assert_eq!(got, reference, "{threads} threads, shard {shard}");
    }
}

#[test]
fn supercap_lanes_are_invariant_to_run_geometry() {
    // Shard size 1 forces single-lane runs, 3 splits the group mid-run,
    // 1024 gives one run for the whole group: the lane population's
    // composition must never leak into any lane's bits.
    let spec = spec_for(0, Store::Supercap, 31, EnvJitter::relative(0.2), 13, false);
    let reference = run_fleet(
        &spec,
        FleetConfig::over(horizon())
            .with_threads(1)
            .with_shard_size(13),
    )
    .summary;
    for (threads, shard) in [(2usize, 1usize), (4, 3), (3, 1024), (1, 5)] {
        let got = run_fleet(
            &spec,
            FleetConfig::over(horizon())
                .with_threads(threads)
                .with_shard_size(shard),
        )
        .summary;
        assert_eq!(got, reference, "{threads} threads, shard {shard}");
    }
}

#[test]
fn percentiles_and_stragglers_stay_ordered() {
    let spec = spec_for(0, Store::Supercap, 23, EnvJitter::relative(0.3), 17, false);
    let s = run_fleet(
        &spec,
        FleetConfig {
            stragglers: 6,
            ..FleetConfig::over(horizon())
        },
    )
    .summary;
    let u = &s.uptime;
    let ladder = [u.min, u.p05, u.p25, u.p50, u.p75, u.p95, u.max];
    assert!(
        ladder.windows(2).all(|w| w[0] <= w[1]),
        "percentile ladder not monotone: {ladder:?}"
    );
    assert!(u.min <= u.mean && u.mean <= u.max);
    assert_eq!(s.stragglers.len(), 6);
    assert!(
        s.stragglers
            .windows(2)
            .all(|w| (w[0].uptime, w[0].node) < (w[1].uptime, w[1].node)
                || (w[0].uptime == w[1].uptime && w[0].node < w[1].node)),
        "stragglers must be sorted by (uptime, node index)"
    );
    assert_eq!(s.stragglers[0].uptime, u.min);
}
