//! Fleet simulation: a 170 000-node mixed deployment across three sites,
//! stepped in one deterministic run. Five boxed groups carry the
//! survey's Table-I platforms; two dense-lane groups show the
//! struct-of-arrays fast path carrying a 50 000-node battery-class
//! metering rollout and a 20 000-node supercap-class sensor strip —
//! the latter solved by batched Newton lane passes — in the same run.
//!
//! ```sh
//! cargo run --release --example fleet
//! ```
//!
//! Set `MSEH_FLEET_HOURS` to lengthen the horizon (default 2 h keeps the
//! example quick) and `MSEH_THREADS` to pin the worker pool.

use mseh::env::{EnvJitter, Environment};
use mseh::harvesters::PvModule;
use mseh::node::{FixedDuty, SensorNode, VoltageThreshold};
use mseh::power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh::sim::{run_fleet, DenseGroup, DenseStore, FleetConfig, FleetGroup, FleetSpec};
use mseh::storage::{Battery, Supercap};
use mseh::systems::SystemId;
use mseh::units::{DutyCycle, Seconds, Volts};
use std::time::Instant;

fn main() {
    let hours: f64 = std::env::var("MSEH_FLEET_HOURS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);

    // Three sites, five platform groups — a caricature of the survey's
    // deployments: solar MPPT platforms on an outdoor test field,
    // multi-source and backup-buffered platforms on a factory floor, and
    // water-flow nodes along an irrigation channel.
    let mut spec = FleetSpec::new();
    let field = spec.add_site(Environment::outdoor_temperate(2013));
    let factory = spec.add_site(Environment::indoor_industrial(2013));
    let canal = spec.add_site(Environment::agricultural(2013));

    let duty = DutyCycle::saturating(0.05);
    spec.add_group(
        FleetGroup::new(
            "field / solar MPPT (System C)",
            40_000,
            field,
            SensorNode::milliwatt_class(),
            |_| Box::new(SystemId::C.build()),
            move |_| Box::new(FixedDuty::new(duty)),
        )
        .with_seed(1)
        .with_jitter(EnvJitter::relative(0.2)),
    );
    spec.add_group(
        FleetGroup::new(
            "field / hybrid store (System A)",
            10_000,
            field,
            SensorNode::milliwatt_class(),
            |_| Box::new(SystemId::A.build()),
            move |_| Box::new(FixedDuty::new(duty)),
        )
        .with_seed(2)
        .with_jitter(EnvJitter::relative(0.2)),
    );
    spec.add_group(
        FleetGroup::new(
            "factory / multi-source (System B)",
            25_000,
            factory,
            SensorNode::submilliwatt_class(),
            |_| Box::new(SystemId::B.build()),
            |_| Box::new(VoltageThreshold::supercap_ladder()),
        )
        .with_seed(3)
        .with_jitter(EnvJitter::relative(0.1).with_temperature(3.0)),
    );
    spec.add_group(
        FleetGroup::new(
            "factory / backup-buffered (System F)",
            10_000,
            factory,
            SensorNode::submilliwatt_class(),
            |_| Box::new(SystemId::F.build()),
            move |_| Box::new(FixedDuty::new(duty)),
        )
        .with_seed(4),
    );
    spec.add_group(
        FleetGroup::new(
            "canal / water flow (System D)",
            15_000,
            canal,
            SensorNode::milliwatt_class(),
            |_| Box::new(SystemId::D.build()),
            move |_| Box::new(FixedDuty::new(duty)),
        )
        .with_seed(5)
        .with_jitter(EnvJitter::relative(0.15)),
    );
    // The dense lane: single-channel PV + NiMH battery nodes, grouped
    // struct-of-arrays so the inner solve runs over one homogeneous
    // slice with a shared per-window harvest table.
    let mut meter_battery = Battery::nimh_aa_pair();
    meter_battery.set_soc(0.5);
    spec.add_dense_group(
        DenseGroup::new(
            "field / metering rollout (dense solar+NiMH)",
            50_000,
            field,
            SensorNode::submilliwatt_class(),
            || {
                InputChannel::new(
                    Box::new(PvModule::outdoor_panel_half_watt()),
                    Box::new(FractionalVoc::pv_standard()),
                    Box::new(IdealDiode::nanopower()),
                    Box::new(DcDcConverter::mppt_front_end_5v()),
                )
            },
            DcDcConverter::buck_boost_3v3(),
            DenseStore::Battery(meter_battery),
            move |_| Box::new(FixedDuty::new(duty)),
        )
        .with_seed(6),
    );
    // A supercap-class dense lane: the EDLC voltage update is a Newton
    // solve every step, which the lanes run as masked struct-of-arrays
    // passes over the whole population — bit-identical to the same
    // nodes built as boxed platforms.
    let mut strip_cap = Supercap::edlc_22f();
    strip_cap.set_voltage(Volts::new(1.8));
    spec.add_dense_group(
        DenseGroup::new(
            "factory / sensor strip (dense solar+EDLC)",
            20_000,
            factory,
            SensorNode::submilliwatt_class(),
            || {
                InputChannel::new(
                    Box::new(PvModule::amorphous_indoor()),
                    Box::new(FractionalVoc::pv_standard()),
                    Box::new(IdealDiode::nanopower()),
                    Box::new(DcDcConverter::mppt_front_end_5v()),
                )
            },
            DcDcConverter::buck_boost_3v3(),
            DenseStore::Supercap(strip_cap),
            |_| Box::new(VoltageThreshold::supercap_ladder()),
        )
        .with_seed(7),
    );

    println!(
        "fleet: {} nodes, {} sites, {:.1} h horizon",
        spec.population(),
        spec.site_count(),
        hours
    );

    let started = Instant::now();
    let out = run_fleet(&spec, FleetConfig::over(Seconds::from_hours(hours)));
    let elapsed = started.elapsed().as_secs_f64();
    let s = &out.summary;

    println!(
        "stepped {} node-steps in {:.2} s ({:.1} M node-steps/s)",
        s.node_steps,
        elapsed,
        s.node_steps as f64 / elapsed / 1e6
    );
    println!();
    println!(
        "energy-neutral nodes : {:.1} %",
        s.energy_neutral_fraction * 100.0
    );
    println!(
        "uptime               : min {:.4}  p05 {:.4}  p50 {:.4}  p95 {:.4}  mean {:.4}",
        s.uptime.min, s.uptime.p05, s.uptime.p50, s.uptime.p95, s.uptime.mean
    );
    println!("served fraction      : {:.6}", s.served_fraction);
    println!(
        "harvested {:.1} J, delivered {:.1} J, shortfall {:.1} J",
        s.harvested.value(),
        s.delivered.value(),
        s.shortfall.value()
    );
    println!(
        "stranded energy {:.3} J, conservation residual {:.2e} (worst node {:.2e})",
        s.stranded_energy.value(),
        s.audit_relative,
        s.worst_node_audit
    );
    println!();
    println!("worst nodes:");
    for straggler in &s.stragglers {
        println!(
            "  node {:>6}  uptime {:.4}  brownouts {:>4}  [{}]",
            straggler.node, straggler.uptime, straggler.brownout_steps, straggler.group
        );
    }
}
