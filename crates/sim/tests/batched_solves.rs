//! Tier-equivalence properties of the dense lane's batched
//! struct-of-arrays solves.
//!
//! The contract under test: [`DenseSolveTier::Batched`] is bit-identical
//! to [`DenseSolveTier::Scalar`] — same harvest, same uptime
//! distribution, same audit, same stragglers — across harvester classes,
//! controllers, supercap parameter sets, jitter settings and run
//! geometry, because the batch kernels replicate the scalar iterate
//! sequence under a convergence mask rather than inventing a new
//! numerical scheme. Every comparison is full-summary equality.

use mseh_env::{EnvJitter, Environment};
use mseh_harvesters::{FlowTurbine, PvModule, Rectenna, Teg};
use mseh_node::{FixedDuty, MonitoringLevel, SensorNode, VoltageThreshold};
use mseh_power::{DcDcConverter, FixedPoint, FractionalVoc, IdealDiode, InputChannel};
use mseh_sim::{
    run_fleet, DenseGroup, DenseSolveTier, DenseStore, FleetConfig, FleetSpec, FleetSummary,
};
use mseh_storage::{Battery, Storage, Supercap};
use mseh_units::{DutyCycle, Seconds, Volts};

/// One dense platform preset per Table-I system: the seven surveyed
/// harvester-class / controller / buffer combinations, reduced to the
/// dense lane's one-channel/one-supercap shape.
const PRESETS: usize = 7;

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
        _ => (
            Box::new(Rectenna::rectenna_915mhz()) as _,
            Box::new(FixedPoint::new(Volts::new(1.8))),
        ),
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

fn spec_for(preset: usize, seed: u64, jitter: EnvJitter, count: usize) -> FleetSpec {
    spec_with_store(
        preset,
        seed,
        jitter,
        count,
        DenseStore::Supercap(cap_for(preset)),
    )
}

fn battery_spec_for(preset: usize, seed: u64, jitter: EnvJitter, count: usize) -> FleetSpec {
    spec_with_store(
        preset,
        seed,
        jitter,
        count,
        DenseStore::Battery(batt_for(preset)),
    )
}

fn spec_with_store(
    preset: usize,
    seed: u64,
    jitter: EnvJitter,
    count: usize,
    store: DenseStore,
) -> FleetSpec {
    let mut spec = FleetSpec::new();
    let site = spec.add_site(site_for(preset, seed));
    let group = DenseGroup::new(
        "preset",
        count,
        site,
        SensorNode::submilliwatt_class(),
        move || channel_for(preset),
        DcDcConverter::buck_boost_3v3(),
        store,
        move |node_seed| {
            if preset.is_multiple_of(2) {
                Box::new(VoltageThreshold::supercap_ladder())
            } else {
                Box::new(FixedDuty::new(DutyCycle::saturating(
                    0.02 + 0.08 * (node_seed % 7) as f64 / 7.0,
                )))
            }
        },
    )
    .with_seed(seed ^ 0x5EED)
    .with_jitter(jitter)
    .with_monitoring(MonitoringLevel::Full);
    spec.add_dense_group(group);
    spec
}

/// A duration whose fractional closer lands mid-window (10 s closer
/// after 2 h of whole steps), shorter than the fractional-Voc sample
/// interval so the hold path of the batched closer is exercised too.
fn horizon() -> Seconds {
    Seconds::from_hours(2.0) + Seconds::new(10.0)
}

fn run_tier(spec: &FleetSpec, tier: DenseSolveTier) -> FleetSummary {
    run_fleet(spec, FleetConfig::over(horizon()).with_dense_tier(tier)).summary
}

#[test]
fn batched_matches_scalar_bitwise_across_presets_unjittered() {
    for preset in 0..PRESETS {
        for seed in [11u64, 4242] {
            let spec = spec_for(preset, seed, EnvJitter::NONE, 9);
            let scalar = run_tier(&spec, DenseSolveTier::Scalar);
            let batched = run_tier(&spec, DenseSolveTier::Batched);
            assert_eq!(batched, scalar, "preset {preset}, seed {seed}");
        }
    }
}

#[test]
fn batched_matches_scalar_bitwise_across_presets_jittered() {
    for preset in 0..PRESETS {
        // Guard against vacuity: every preset's channel must clear the
        // window-batchable gate, or the jittered run silently falls back
        // to the scalar dense path and this test compares it to itself.
        assert!(
            channel_for(preset).supports_window_lanes(Seconds::new(60.0)),
            "preset {preset} is not window-batchable"
        );
        for seed in [7u64, 1999] {
            let spec = spec_for(preset, seed, EnvJitter::relative(0.25), 8);
            let scalar = run_tier(&spec, DenseSolveTier::Scalar);
            let batched = run_tier(&spec, DenseSolveTier::Batched);
            assert_eq!(batched, scalar, "preset {preset}, seed {seed}");
        }
    }
}

#[test]
fn battery_batched_matches_scalar_bitwise_across_presets_unjittered() {
    for preset in 0..PRESETS {
        for seed in [11u64, 4242] {
            let spec = battery_spec_for(preset, seed, EnvJitter::NONE, 9);
            let scalar = run_tier(&spec, DenseSolveTier::Scalar);
            let batched = run_tier(&spec, DenseSolveTier::Batched);
            assert_eq!(batched, scalar, "preset {preset}, seed {seed}");
        }
    }
}

#[test]
fn battery_batched_matches_scalar_bitwise_across_presets_jittered() {
    for preset in 0..PRESETS {
        assert!(
            channel_for(preset).supports_window_lanes(Seconds::new(60.0)),
            "preset {preset} is not window-batchable"
        );
        for seed in [7u64, 1999] {
            let spec = battery_spec_for(preset, seed, EnvJitter::relative(0.25), 8);
            let scalar = run_tier(&spec, DenseSolveTier::Scalar);
            let batched = run_tier(&spec, DenseSolveTier::Batched);
            assert_eq!(batched, scalar, "preset {preset}, seed {seed}");
        }
    }
}

#[test]
fn battery_batched_tier_is_invariant_to_run_geometry() {
    let spec = battery_spec_for(1, 31, EnvJitter::relative(0.2), 13);
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
fn batched_tier_is_invariant_to_run_geometry() {
    // Shard size 1 forces single-lane runs, 3 splits the group mid-run,
    // 1024 gives one run for the whole group: the lane population's
    // composition must never leak into any lane's bits.
    let spec = spec_for(0, 31, EnvJitter::relative(0.2), 13);
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
fn percentiles_and_stragglers_stay_ordered_on_every_tier() {
    for tier in [DenseSolveTier::Scalar, DenseSolveTier::Batched] {
        let spec = spec_for(0, 23, EnvJitter::relative(0.3), 17);
        let s = run_fleet(
            &spec,
            FleetConfig {
                stragglers: 6,
                ..FleetConfig::over(horizon())
            }
            .with_dense_tier(tier),
        )
        .summary;
        let u = &s.uptime;
        let ladder = [u.min, u.p05, u.p25, u.p50, u.p75, u.p95, u.max];
        assert!(
            ladder.windows(2).all(|w| w[0] <= w[1]),
            "{tier:?}: percentile ladder not monotone: {ladder:?}"
        );
        assert!(u.min <= u.mean && u.mean <= u.max, "{tier:?}");
        assert_eq!(s.stragglers.len(), 6, "{tier:?}");
        assert!(
            s.stragglers
                .windows(2)
                .all(|w| (w[0].uptime, w[0].node) < (w[1].uptime, w[1].node)
                    || (w[0].uptime == w[1].uptime && w[0].node < w[1].node)),
            "{tier:?}: stragglers must be sorted by (uptime, node index)"
        );
        assert_eq!(s.stragglers[0].uptime, u.min, "{tier:?}");
    }
}
