//! Integration: the fleet engine's determinism and conservation
//! contracts, checked against the single-run kernel and across every
//! execution geometry (threads × shard sizes).

use mseh::core::{PowerUnit, StepReport};
use mseh::env::{EnvConditions, EnvJitter, Environment};
use mseh::node::{EnergyStatus, FixedDuty, SensorNode, VoltageThreshold};
use mseh::sim::{
    run_fleet, run_simulation, FleetConfig, FleetGroup, FleetSpec, Platform, SimConfig,
};
use mseh::systems::SystemId;
use mseh::units::{DutyCycle, Joules, Seconds, Watts};

/// The environment each platform was designed for (same mapping as the
/// all-systems suite).
fn natural_environment(id: SystemId) -> Environment {
    match id {
        SystemId::A | SystemId::C => Environment::outdoor_temperate(99),
        SystemId::D => Environment::agricultural(99),
        _ => Environment::indoor_industrial(99),
    }
}

fn natural_node(id: SystemId) -> SensorNode {
    match id {
        SystemId::A | SystemId::C | SystemId::D => SensorNode::milliwatt_class(),
        _ => SensorNode::submilliwatt_class(),
    }
}

fn duty() -> DutyCycle {
    DutyCycle::saturating(0.05)
}

/// (a) A one-node per-step fleet is bit-identical to `run_simulation`
/// for every Table-I system in its natural deployment.
#[test]
fn one_node_fleet_matches_single_run_for_all_systems() {
    let horizon = Seconds::from_hours(6.0);
    for id in SystemId::ALL {
        let mut spec = FleetSpec::new();
        let site = spec.add_site(natural_environment(id));
        spec.add_group(FleetGroup::new(
            id.display_name(),
            1,
            site,
            natural_node(id),
            move |_| Box::new(id.build()),
            |_| Box::new(FixedDuty::new(duty())),
        ));
        let fleet = run_fleet(
            &spec,
            FleetConfig {
                keep_node_results: true,
                ..FleetConfig::over(horizon)
            }
            .exact_env(),
        );

        let mut unit = id.build();
        let mut policy = FixedDuty::new(duty());
        let reference = run_simulation(
            &mut unit,
            &natural_environment(id),
            &natural_node(id),
            &mut policy,
            SimConfig::over(horizon),
        );

        let node = &fleet.node_results.expect("kept")[0];
        assert_eq!(*node, reference, "{}", id.display_name());
        assert_eq!(fleet.summary.harvested, reference.harvested);
        assert_eq!(fleet.summary.shortfall, reference.shortfall);
        assert_eq!(fleet.summary.uptime.mean, reference.uptime);
        assert_eq!(fleet.summary.min_store_voltage, reference.min_store_voltage);
    }
}

/// A unit behind a forwarding platform that only implements `step`, so
/// the fleet engine cannot split it and solves every step's harvest.
struct StepOnly(PowerUnit);

impl Platform for StepOnly {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn step(&mut self, env: &EnvConditions, dt: Seconds, load: Watts) -> StepReport {
        self.0.step(env, dt, load)
    }
    fn energy_status(&self) -> EnergyStatus {
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

/// Under per-window cadence a boxed node that can split its step
/// replays the window head's harvest while its unit reports the harvest
/// replayable. For every Table-I system, jittered and with a fractional
/// closing step inside the last window, that equals solving every step
/// in full.
#[test]
fn per_window_head_replay_matches_solving_every_step() {
    let horizon = Seconds::from_hours(6.0) + Seconds::new(150.0);
    let mut replayable = 0;
    for id in SystemId::ALL {
        let run = |split: bool| {
            let mut spec = FleetSpec::new();
            let site = spec.add_site(natural_environment(id));
            spec.add_group(
                FleetGroup::new(
                    id.display_name(),
                    3,
                    site,
                    natural_node(id),
                    move |_| {
                        if split {
                            Box::new(id.build())
                        } else {
                            Box::new(StepOnly(id.build()))
                        }
                    },
                    |_| Box::new(VoltageThreshold::supercap_ladder()),
                )
                .with_seed(5)
                .with_jitter(EnvJitter::relative(0.1)),
            );
            let config = FleetConfig {
                keep_node_results: true,
                ..FleetConfig::over(horizon)
            };
            run_fleet(&spec, config)
        };
        assert_eq!(run(true), run(false), "{}", id.display_name());

        let mut unit = id.build();
        let dt = FleetConfig::over(horizon).sim.dt;
        unit.harvest(&natural_environment(id).conditions(Seconds::ZERO), dt);
        replayable += usize::from(unit.is_harvest_replayable(dt));
    }
    // Non-vacuity: some systems really take the replay path.
    assert!(replayable > 0, "no Table-I system replays its harvest");
}

/// A mixed two-site, three-group fleet used by the geometry and audit
/// checks below.
fn mixed_spec() -> FleetSpec {
    let mut spec = FleetSpec::new();
    let outdoor = spec.add_site(Environment::outdoor_temperate(7));
    let indoor = spec.add_site(Environment::indoor_industrial(7));
    spec.add_group(
        FleetGroup::new(
            "solar mppt",
            120,
            outdoor,
            SensorNode::milliwatt_class(),
            |_| Box::new(SystemId::C.build()),
            |_| Box::new(FixedDuty::new(duty())),
        )
        .with_seed(1)
        .with_jitter(EnvJitter::relative(0.15)),
    );
    spec.add_group(
        FleetGroup::new(
            "industrial multi-source",
            100,
            indoor,
            SensorNode::submilliwatt_class(),
            |_| Box::new(SystemId::B.build()),
            |_| Box::new(VoltageThreshold::supercap_ladder()),
        )
        .with_seed(2)
        .with_jitter(EnvJitter::relative(0.1).with_temperature(2.0)),
    );
    spec.add_group(
        FleetGroup::new(
            "backup-buffered",
            80,
            indoor,
            SensorNode::submilliwatt_class(),
            |_| Box::new(SystemId::F.build()),
            |_| Box::new(FixedDuty::new(duty())),
        )
        .with_seed(3),
    );
    spec
}

/// (b) The fleet is bit-identical across thread counts and shard sizes,
/// under both cadences and with jitter active.
#[test]
fn fleet_is_bit_identical_across_threads_and_shards() {
    let spec = mixed_spec();
    let horizon = Seconds::from_hours(2.0);
    for exact in [false, true] {
        let run = |threads: usize, shard: usize| {
            let mut config = FleetConfig::over(horizon)
                .with_threads(threads)
                .with_shard_size(shard);
            if exact {
                config = config.exact_env();
            }
            run_fleet(&spec, config).summary
        };
        let reference = run(1, 300);
        for (threads, shard) in [(2, 1000), (4, 64), (2, 7), (3, 1)] {
            let got = run(threads, shard);
            assert_eq!(got, reference, "exact={exact} {threads}t/{shard}s");
        }
    }
}

/// (c) The fleet-aggregated conservation audit closes below 1e-6 of
/// throughput on a mixed population, and the summary's books are
/// internally consistent.
#[test]
fn fleet_summary_conserves_energy() {
    let out = run_fleet(&mixed_spec(), FleetConfig::over(Seconds::from_hours(8.0)));
    let s = &out.summary;
    assert_eq!(s.population, 300);
    assert_eq!(s.node_steps, 300 * s.steps_per_node);
    assert!(
        s.audit_relative < 1e-6,
        "aggregate residual {}",
        s.audit_relative
    );
    assert!(
        s.worst_node_audit < 1e-6,
        "worst node {}",
        s.worst_node_audit
    );
    // Energy books: delivered + shortfall never exceeds demand by more
    // than rounding, and uptime statistics live in [0, 1].
    assert!(s.delivered.value() <= s.demanded.value() * (1.0 + 1e-9));
    for u in [
        s.uptime.min,
        s.uptime.p05,
        s.uptime.p50,
        s.uptime.p95,
        s.uptime.max,
        s.uptime.mean,
        s.served_fraction,
        s.energy_neutral_fraction,
    ] {
        assert!((0.0..=1.0).contains(&u), "{u}");
    }
    assert!(s.uptime.min <= s.uptime.p50 && s.uptime.p50 <= s.uptime.max);
    // Stragglers are the worst nodes, worst first.
    assert_eq!(s.stragglers.len(), 8);
    assert_eq!(s.stragglers[0].uptime, s.uptime.min);
    for pair in s.stragglers.windows(2) {
        assert!(pair[0].uptime <= pair[1].uptime);
    }
}

/// The dense lane's single-channel node shape, shared by the two tests
/// below: PV behind an FOCV MPPT front end into a NiMH pair.
fn dense_channel() -> mseh::power::InputChannel {
    use mseh::harvesters::PvModule;
    use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
    InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

fn dense_battery_group(count: usize, site: usize) -> mseh::sim::DenseGroup {
    use mseh::power::DcDcConverter;
    use mseh::sim::{DenseGroup, DenseStore};
    let mut battery = mseh::storage::Battery::nimh_aa_pair();
    battery.set_soc(0.5);
    DenseGroup::new(
        "dense solar+NiMH",
        count,
        site,
        SensorNode::submilliwatt_class(),
        dense_channel,
        DcDcConverter::buck_boost_3v3(),
        DenseStore::Battery(battery),
        |_| Box::new(FixedDuty::new(duty())),
    )
}

/// (d) A one-node dense-lane fleet under per-step sampling is
/// bit-identical to `run_simulation` on the equivalent boxed platform.
#[test]
fn one_node_dense_fleet_matches_single_run() {
    use mseh::core::{PortRequirement, PowerUnit, StoreRole};
    use mseh::power::DcDcConverter;
    use mseh::units::Volts;

    let horizon = Seconds::from_hours(24.0);
    let env = Environment::outdoor_temperate(77);
    let mut spec = FleetSpec::new();
    let site = spec.add_site(env.clone());
    spec.add_dense_group(
        dense_battery_group(1, site).with_monitoring(mseh::node::MonitoringLevel::None),
    );
    let fleet = run_fleet(
        &spec,
        FleetConfig {
            keep_node_results: true,
            ..FleetConfig::over(horizon)
        }
        .exact_env(),
    );

    let mut battery = mseh::storage::Battery::nimh_aa_pair();
    battery.set_soc(0.5);
    let mut unit = PowerUnit::builder("dense reference")
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(dense_channel()),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("NiMH", Volts::ZERO, Volts::new(3.5)),
            Some(Box::new(battery)),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .build();
    let mut policy = FixedDuty::new(duty());
    let reference = run_simulation(
        &mut unit,
        &env,
        &SensorNode::submilliwatt_class(),
        &mut policy,
        SimConfig::over(horizon),
    );

    assert_eq!(fleet.node_results.expect("kept")[0], reference);
}

/// (e) Dense-lane groups riding next to boxed groups keep the fleet
/// summary invariant across threads × shard sizes, jitter included.
#[test]
fn dense_lane_is_geometry_invariant_and_conserves() {
    let mut spec = FleetSpec::new();
    let site = spec.add_site(Environment::outdoor_temperate(11));
    spec.add_group(
        FleetGroup::new(
            "boxed solar mppt",
            60,
            site,
            SensorNode::milliwatt_class(),
            |_| Box::new(SystemId::C.build()),
            |_| Box::new(FixedDuty::new(duty())),
        )
        .with_seed(1)
        .with_jitter(EnvJitter::relative(0.15)),
    );
    spec.add_dense_group(
        dense_battery_group(80, site)
            .with_seed(2)
            .with_jitter(EnvJitter::relative(0.1)),
    );

    let horizon = Seconds::from_hours(2.0);
    let run = |threads: usize, shard: usize| {
        run_fleet(
            &spec,
            FleetConfig::over(horizon)
                .with_threads(threads)
                .with_shard_size(shard),
        )
        .summary
    };
    let reference = run(1, 50);
    assert_eq!(reference.population, 140);
    assert!(reference.audit_relative < 1e-6);
    assert!(reference.worst_node_audit < 1e-6);
    for (threads, shard) in [(3, 7), (4, 1000), (2, 1)] {
        assert_eq!(run(threads, shard), reference, "{threads}t/{shard}s");
    }
}
