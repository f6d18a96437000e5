//! Wrapped against unwrapped identity: tracing forwards every call that
//! can change the simulated path, so traced results equal untraced ones
//! bit for bit on every Table-I system and every engine the benchmark
//! traces.

use mseh::env::Environment;
use mseh::sim::{
    run_arena, run_fleet, run_fleet_controlled, run_resilience_campaign, run_simulation,
    ArenaConfig, CampaignConfig, FleetConfig, FleetControl, FleetSpec, SimConfig,
};
use mseh::systems::resilience::{
    natural_environment, natural_node, natural_policy, resilience_scenario,
};
use mseh::systems::SystemId;
use mseh::units::Seconds;
use mseh_perfbench::fleet::{boxed, dense_battery, dense_supercap, digest};
use mseh_perfbench::survey::{arena_spec, traced_scenario, Sinks};
use mseh_perfbench::trace::{shard_close, traced_unit, Slot, Tally, TracedEnv, TracedPolicy};
use std::sync::Arc;

#[test]
fn single_runs_match_on_every_system() {
    let config = SimConfig::over(Seconds::from_days(1.0));
    for id in SystemId::ALL {
        let env = natural_environment(id, 7);
        let node = natural_node(id);
        let plain = run_simulation(
            &mut id.build(),
            &env,
            &node,
            natural_policy(id).as_mut(),
            config,
        );

        let sink = Tally::shared();
        let mut unit = traced_unit(id.build(), &sink);
        let mut policy = TracedPolicy::boxed(natural_policy(id), &sink);
        let traced = {
            let env = TracedEnv::new(&env, &sink);
            run_simulation(&mut unit, &env, &node, policy.as_mut(), config)
        };
        drop((unit, policy));
        assert_eq!(plain, traced, "System {id:?}");
        assert_eq!(sink.get(Slot::StepCalls), 1440, "System {id:?}");
        assert!(sink.get(Slot::StoreCalls) > 0, "System {id:?}");
        assert!(sink.get(Slot::StageCalls) > 0, "System {id:?}");
        assert!(sink.get(Slot::EnvCalls) > 0, "System {id:?}");
        assert!(sink.get(Slot::PolicyCalls) > 0, "System {id:?}");
    }
}

#[test]
fn campaigns_match_on_every_system() {
    let horizon = Seconds::from_hours(12.0);
    let seeds = [3, 4];
    for id in SystemId::ALL {
        let node = natural_node(id);
        let config = CampaignConfig::over(horizon);
        let plain = run_resilience_campaign(
            &seeds,
            |s| resilience_scenario(id, s, horizon),
            &node,
            config,
        );
        let sink = Tally::shared();
        let traced = run_resilience_campaign(
            &seeds,
            |s| traced_scenario(id, s, horizon, &sink),
            &node,
            config,
        );
        assert_eq!(plain.outcomes, traced.outcomes, "System {id:?}");
        assert_eq!(sink.get(Slot::BuildCalls), 2, "System {id:?}");
    }
}

#[test]
fn boxed_arena_matches() {
    let seeds = [5];
    let config = ArenaConfig::over(Seconds::from_hours(6.0));
    let plain = run_arena(&arena_spec(SystemId::B, &seeds, None), config);
    let sinks = Sinks::default();
    let traced = run_arena(&arena_spec(SystemId::B, &seeds, Some(&sinks)), config);
    assert_eq!(plain.summary.standings, traced.summary.standings);
    let lanes = plain.summary.lanes as usize;
    assert_eq!(
        sinks.arena.lifetimes().len(),
        lanes,
        "one traced platform per lane"
    );
}

fn small_fleet(sink: Option<&Arc<Tally>>) -> FleetSpec {
    let mut spec = FleetSpec::new();
    let site = spec.add_site(Environment::outdoor_temperate(9));
    spec.add_dense_group(
        dense_battery("battery", 12, site, 1, sink)
            .with_jitter(mseh::env::EnvJitter::relative(0.1)),
    );
    spec.add_dense_group(dense_supercap("supercap", 12, site, 2, sink));
    spec.add_group(boxed(SystemId::C, 6, site, 3, sink));
    spec.add_group(boxed(SystemId::A, 6, site, 4, sink));
    spec
}

#[test]
fn fleets_match_and_every_shard_is_timed() {
    let config = FleetConfig {
        shard_size: 8,
        ..FleetConfig::over(Seconds::from_hours(6.0))
    };
    let plain = run_fleet(&small_fleet(None), config);
    let sink = Tally::shared();
    let shards = std::sync::Mutex::new(0usize);
    let progress = |_: u64, _: u64| {
        if shard_close().is_some() {
            *shards.lock().expect("counter") += 1;
        }
    };
    let traced = run_fleet_controlled(
        &small_fleet(Some(&sink)),
        config,
        FleetControl {
            cancel: None,
            progress: Some(&progress),
        },
    )
    .expect("valid spec")
    .expect("not cancelled");
    assert_eq!(digest(&plain.summary), digest(&traced.summary));
    assert_eq!(plain.summary.uptime, traced.summary.uptime);
    assert_eq!(
        *shards.lock().expect("counter"),
        36 / 8 + 1,
        "a start and end for every shard"
    );
    assert_eq!(
        sink.get(Slot::BuildCalls),
        12,
        "boxed members are built traced"
    );
}
