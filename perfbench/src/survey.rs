//! `survey-sweep`: the designer's study of Table I.
//!
//! One round runs every surveyed system in each of the five named
//! environments with its natural load and policy (fanned out over the
//! library's `par_map` pool), each system's resilience campaign over
//! several seeds, and a boxed policy arena on the full-monitoring
//! systems A, B and F. Rounds repeat, each on seeds derived from the
//! workload seed, until the measured time is spent.

use crate::stats::{mix, sorted, tail, Report, ResultsDigest};
use crate::trace::{
    build_system, traced_unit, Slot, Tally, TracedEnv, TracedPlatform, TracedPolicy,
};
use crate::{
    books_close, emit, median, secs, setup_time, steps_in, Breakdown, Options, END_TO_END,
    PER_LAYER,
};
use mseh::core::PowerUnit;
use mseh::daemon::make_env;
use mseh::env::Environment;
use mseh::node::{DutyCyclePolicy, SensorNode};
use mseh::sim::{
    default_contenders, par_map, run_arena, run_resilience_campaign, run_simulation, thread_count,
    ArenaConfig, ArenaSpec, CampaignConfig, Contender, FaultScenario, Platform, SimConfig,
};
use mseh::systems::resilience::{
    natural_environment, natural_node, natural_policy, resilience_scenario,
};
use mseh::systems::SystemId;
use mseh::units::Seconds;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The five named deployment environments (the daemon's spellings).
pub const ENVS: [&str; 5] = ["outdoor", "winter", "indoor", "office", "agricultural"];
/// Days per single run.
pub const SINGLE_DAYS: f64 = 30.0;
/// Seeds per resilience campaign.
pub const CAMPAIGN_SEEDS: usize = 8;
/// Days per campaign scenario.
pub const CAMPAIGN_DAYS: f64 = 7.0;
/// The full-monitoring systems raced in the arena.
pub const ARENA_SYSTEMS: [SystemId; 3] = [SystemId::A, SystemId::B, SystemId::F];
/// Scenario seeds per arena.
pub const ARENA_SEEDS: usize = 4;
/// Days per arena lane.
pub const ARENA_DAYS: f64 = 14.0;
/// Batches of round preparations timed for `setup_s`.
const SETUP_BATCHES: usize = 7;

/// Where traced wrappers report, one tally per engine.
#[derive(Debug, Default)]
pub struct Sinks {
    /// Single runs.
    pub single: Arc<Tally>,
    /// Resilience campaigns.
    pub campaign: Arc<Tally>,
    /// Policy arenas.
    pub arena: Arc<Tally>,
}

/// A prepared single run; the platform and policy are taken by the
/// worker that runs it.
struct SingleJob {
    env: Environment,
    node: SensorNode,
    parts: Mutex<Option<Parts>>,
}

/// A single run's platform and policy.
type Parts = (Box<dyn Platform + Send>, Box<dyn DutyCyclePolicy>);

/// One round's figures.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Seconds spent preparing the single runs' platforms and policies.
    pub prep_s: f64,
    /// Wall seconds of the single-run, campaign and arena phases.
    pub walls: [f64; 3],
    /// Simulated steps of the three phases (lane-steps for the arena).
    pub steps: [u64; 3],
    /// Thread-seconds spent inside `run_simulation` calls.
    pub single_busy_s: f64,
    /// Seconds spent checking results after the phases.
    pub check_s: f64,
    /// Latency of each engine call, milliseconds.
    pub op_ms: Vec<f64>,
    /// Engine calls whose books did not close.
    pub failed: u64,
    /// Digest of the physical results.
    pub digest: u64,
}

impl Round {
    /// Engine calls made.
    pub fn ops(&self) -> u64 {
        self.op_ms.len() as u64
    }
}

fn single_jobs(round_seed: u64, sinks: Option<&Sinks>) -> Vec<SingleJob> {
    let mut jobs = Vec::with_capacity(SystemId::ALL.len() * ENVS.len());
    for (si, id) in SystemId::ALL.into_iter().enumerate() {
        for (ei, kind) in ENVS.iter().enumerate() {
            let env_seed = mix(round_seed, (si * ENVS.len() + ei) as u64);
            let env = make_env(kind, env_seed).expect("named environment");
            let parts: Parts = match sinks {
                None => (Box::new(id.build()), natural_policy(id)),
                Some(s) => (
                    Box::new(traced_unit(build_system(id, &s.single), &s.single)),
                    TracedPolicy::boxed(natural_policy(id), &s.single),
                ),
            };
            jobs.push(SingleJob {
                env,
                node: natural_node(id),
                parts: Mutex::new(Some(parts)),
            });
        }
    }
    jobs
}

/// `resilience_scenario` with its platform and policy traced into `sink`
/// (the scenario build is timed as a `systems` build).
pub fn traced_scenario(
    id: SystemId,
    seed: u64,
    horizon: Seconds,
    sink: &Arc<Tally>,
) -> FaultScenario<TracedPlatform<PowerUnit>> {
    let start = Instant::now();
    let plain = resilience_scenario(id, seed, horizon);
    sink.add(Slot::BuildNs, start.elapsed().as_nanos() as u64);
    sink.add(Slot::BuildCalls, 1);
    FaultScenario {
        platform: traced_unit(plain.platform, sink),
        env: plain.env,
        policy: TracedPolicy::boxed(plain.policy, sink),
        schedule: plain.schedule,
        recovery: plain.recovery.map(|mut hook| {
            Box::new(move |p: &mut TracedPlatform<PowerUnit>, t: Seconds| hook(p.inner_mut(), t))
                as Box<dyn FnMut(&mut TracedPlatform<PowerUnit>, Seconds) -> bool>
        }),
    }
}

/// The boxed arena on system `id` racing `default_contenders()`, traced
/// into `sinks.arena` when given.
pub fn arena_spec(id: SystemId, seeds: &[u64], sinks: Option<&Sinks>) -> ArenaSpec {
    let env = move |s| natural_environment(id, s);
    let spec = match sinks {
        None => ArenaSpec::boxed(
            &id.to_string(),
            natural_node(id),
            move |_| Box::new(id.build()),
            env,
        )
        .with_contenders(default_contenders()),
        Some(s) => {
            let sink = Arc::clone(&s.arena);
            let contenders = default_contenders().into_iter().map(|c| {
                let sink = Arc::clone(&s.arena);
                let name = c.name().to_string();
                Contender::new(&name, move |seed| TracedPolicy::boxed(c.build(seed), &sink))
            });
            ArenaSpec::boxed(
                &id.to_string(),
                natural_node(id),
                move |_| Box::new(traced_unit(build_system(id, &sink), &sink)),
                env,
            )
            .with_contenders(contenders)
        }
    };
    spec.with_seeds(seeds)
}

/// Runs one round on seeds derived from `round_seed`.
pub fn run_round(round_seed: u64, sinks: Option<&Sinks>) -> Round {
    let mut round = Round::default();
    let mut digest = ResultsDigest::default();

    let start = Instant::now();
    let jobs = single_jobs(round_seed, sinks);
    round.prep_s = secs(start);

    // Single runs, fanned out over the library pool.
    let config = SimConfig::over(Seconds::from_days(SINGLE_DAYS));
    let start = Instant::now();
    let results = par_map(&jobs, |job| {
        let (mut platform, mut policy) = job
            .parts
            .lock()
            .expect("job slot poisoned")
            .take()
            .expect("each job runs once");
        let begin = Instant::now();
        let result = match sinks {
            None => run_simulation(
                platform.as_mut(),
                &job.env,
                &job.node,
                policy.as_mut(),
                config,
            ),
            Some(s) => {
                let env = TracedEnv::new(&job.env, &s.single);
                run_simulation(platform.as_mut(), &env, &job.node, policy.as_mut(), config)
            }
        };
        let busy = secs(begin);
        drop((platform, policy));
        (result, busy)
    });
    round.walls[0] = secs(start);
    for (result, busy) in &results {
        round.single_busy_s += busy;
        round.op_ms.push(busy * 1e3);
        round.steps[0] += steps_in(SINGLE_DAYS);
        if !books_close(result.audit_residual) {
            round.failed += 1;
        }
        for v in [
            result.harvested.value(),
            result.delivered.value(),
            result.shortfall.value(),
            result.uptime,
        ] {
            digest.f64(v);
        }
    }

    // Resilience campaigns: the glitched channel reports time-varying,
    // so it runs uncached with the default golden-section MPP search.
    let horizon = Seconds::from_days(CAMPAIGN_DAYS);
    let start = Instant::now();
    for (si, id) in SystemId::ALL.into_iter().enumerate() {
        let seeds: Vec<u64> = (0..CAMPAIGN_SEEDS)
            .map(|k| mix(round_seed, 1000 + (si * CAMPAIGN_SEEDS + k) as u64))
            .collect();
        let node = natural_node(id);
        let config = CampaignConfig::over(horizon);
        let begin = Instant::now();
        let summary = match sinks {
            None => run_resilience_campaign(
                &seeds,
                |s| resilience_scenario(id, s, horizon),
                &node,
                config,
            ),
            Some(s) => run_resilience_campaign(
                &seeds,
                |seed| traced_scenario(id, seed, horizon, &s.campaign),
                &node,
                config,
            ),
        };
        round.op_ms.push(secs(begin) * 1e3);
        round.steps[1] += seeds.len() as u64 * steps_in(CAMPAIGN_DAYS);
        if !books_close(summary.worst_audit_relative) || summary.outcomes.len() != seeds.len() {
            round.failed += 1;
        }
        for o in &summary.outcomes {
            for v in [o.uptime, o.delivered.value(), o.shortfall.value()] {
                digest.f64(v);
            }
        }
    }
    round.walls[1] = secs(start);

    // The boxed policy arena.
    let start = Instant::now();
    for (ai, id) in ARENA_SYSTEMS.into_iter().enumerate() {
        let seeds: Vec<u64> = (0..ARENA_SEEDS)
            .map(|k| mix(round_seed, 2000 + (ai * ARENA_SEEDS + k) as u64))
            .collect();
        let spec = arena_spec(id, &seeds, sinks);
        let begin = Instant::now();
        let result = run_arena(&spec, ArenaConfig::over(Seconds::from_days(ARENA_DAYS)));
        round.op_ms.push(secs(begin) * 1e3);
        let s = &result.summary;
        round.steps[2] += s.lanes * s.steps_per_lane;
        if !books_close(s.audit_relative) {
            round.failed += 1;
        }
        for st in &s.standings {
            for v in [
                st.served_fraction,
                st.uptime.mean,
                st.harvested.value(),
                st.delivered.value(),
                st.shortfall.value(),
            ] {
                digest.f64(v);
            }
        }
    }
    round.walls[2] = secs(start);
    round.digest = digest.value();
    round
}

/// Rounds run for `seconds` (at least one), the round index salting
/// each round's seeds.
pub fn measure(seed: u64, seconds: f64, sinks: Option<&Sinks>) -> (Vec<Round>, f64) {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || secs(start) < seconds {
        let begin = Instant::now();
        let mut round = run_round(mix(seed, rounds.len() as u64), sinks);
        let phases = round.prep_s + round.walls.iter().sum::<f64>();
        round.check_s = (secs(begin) - phases).max(0.0);
        rounds.push(round);
    }
    (rounds, secs(start))
}

fn engine_wall(rounds: &[Round]) -> f64 {
    rounds.iter().map(|r| r.walls.iter().sum::<f64>()).sum()
}

fn total_steps(rounds: &[Round]) -> u64 {
    rounds.iter().map(|r| r.steps.iter().sum::<u64>()).sum()
}

fn phase_rate(rounds: &[Round], phase: usize) -> f64 {
    let steps: u64 = rounds.iter().map(|r| r.steps[phase]).sum();
    let wall: f64 = rounds.iter().map(|r| r.walls[phase]).sum();
    steps as f64 / wall
}

fn tally_books(report: &mut Report, rounds: &[Round]) {
    report.attempted += rounds.iter().map(Round::ops).sum::<u64>();
    report.failed += rounds.iter().map(|r| r.failed).sum::<u64>();
}

/// The `survey-sweep` workload.
pub fn run(opts: Options) -> Report {
    let mut report = Report::default();
    if !opts.trace {
        let setup_s = setup_time(SETUP_BATCHES, 4, || single_jobs(opts.seed, None));
        let (rounds, _) = measure(opts.seed, opts.seconds, None);
        tally_books(&mut report, &rounds);
        let ops: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.op_ms.iter().copied())
            .collect();
        let ops_sorted = sorted(&ops);
        let (level, tail_ms) =
            tail(&ops_sorted).unwrap_or((1.0, *ops_sorted.last().unwrap_or(&0.0)));
        let round_rate = |r: &Round, work: f64| work / r.walls.iter().sum::<f64>();
        let steps_rates: Vec<f64> = rounds
            .iter()
            .map(|r| round_rate(r, r.steps.iter().sum::<u64>() as f64))
            .collect();
        let ops_rates: Vec<f64> = rounds
            .iter()
            .map(|r| round_rate(r, r.ops() as f64))
            .collect();
        report.note(format!(
            "survey-sweep: {} rounds, {} engine calls, results_digest {:016x} (round 0)",
            rounds.len(),
            ops.len(),
            rounds[0].digest
        ));
        report.note(format!(
            "engine rates: single {:.0} steps/s, campaign {:.0} steps/s, arena {:.0} lane-steps/s",
            phase_rate(&rounds, 0),
            phase_rate(&rounds, 1),
            phase_rate(&rounds, 2)
        ));
        report.note(format!("round rates (steps/s): {steps_rates:.0?}"));
        report.note(format!(
            "op_tail_ms is p{:.1} of {} engine calls",
            level * 100.0,
            ops.len()
        ));
        let ok_frac = report.ok_frac();
        emit(
            &mut report,
            &END_TO_END,
            &[
                ("setup_s", setup_s),
                ("peak_rss_mb", crate::stats::peak_rss_mib()),
                ("ok_frac", ok_frac),
                ("steps_per_s", median(&steps_rates)),
                ("ops_per_s", median(&ops_rates)),
                ("op_p50_ms", median(&ops)),
                ("op_tail_ms", tail_ms),
            ],
        );
        return report;
    }

    let (plain, _) = measure(opts.seed, opts.seconds / 2.0, None);
    let sinks = Sinks::default();
    let (traced, traced_wall) = measure(opts.seed, opts.seconds / 2.0, Some(&sinks));
    tally_books(&mut report, &plain);
    tally_books(&mut report, &traced);
    let shared = plain.len().min(traced.len());
    for k in 0..shared {
        if plain[k].digest != traced[k].digest {
            report.mismatch = true;
        }
    }
    report.note(format!(
        "traced vs untraced: {shared} rounds compared, {}",
        if report.mismatch {
            "MISMATCH"
        } else {
            "bit-identical"
        }
    ));

    let threads = thread_count();
    let w_single = threads.min(SystemId::ALL.len() * ENVS.len()) as f64;
    let w_campaign = threads.min(CAMPAIGN_SEEDS) as f64;
    let w_arena = threads.min(ARENA_SEEDS) as f64;
    let sum = |f: &dyn Fn(&Round) -> f64| traced.iter().map(f).sum::<f64>();
    let (single, campaign, arena) = (&sinks.single, &sinks.campaign, &sinks.arena);
    let all = [single, campaign, arena];
    let total = |slot: Slot| all.iter().map(|t| t.seconds(slot)).sum::<f64>();
    let count = |slot: Slot| all.iter().map(|t| t.get(slot)).sum::<u64>() as f64;
    let children =
        |t: &Tally| t.seconds(Slot::EnvNs) + t.seconds(Slot::StepNs) + t.seconds(Slot::PolicyNs);

    let core_self = total(Slot::StepNs) - total(Slot::StoreNs) - total(Slot::StageNs);
    let single_busy = sum(&|r| r.single_busy_s);
    let runner_self = single_busy - children(single);
    let parallel_idle = sum(&|r| r.walls[0]) * w_single - single_busy;
    let campaign_self =
        sum(&|r| r.walls[1]) * w_campaign - children(campaign) - campaign.seconds(Slot::BuildNs);
    let arena_self =
        sum(&|r| r.walls[2]) * w_arena - children(arena) - arena.seconds(Slot::BuildNs);
    let breakdown = Breakdown {
        wall_s: traced_wall,
        capacity_s: sum(&|r| r.prep_s + r.check_s)
            + sum(&|r| r.walls[0]) * w_single
            + sum(&|r| r.walls[1]) * w_campaign
            + sum(&|r| r.walls[2]) * w_arena,
        parts: vec![
            ("systems.build", total(Slot::BuildNs)),
            ("env.sample", total(Slot::EnvNs)),
            ("core.step (self)", core_self),
            ("storage.step", total(Slot::StoreNs)),
            ("power.output_stage", total(Slot::StageNs)),
            ("node.policy", total(Slot::PolicyNs)),
            ("sim.runner (self)", runner_self),
            ("sim.parallel (idle)", parallel_idle),
            ("sim.campaign (self)", campaign_self),
            ("sim.arena (self)", arena_self),
        ],
    };
    for line in breakdown.lines() {
        report.note(line);
    }
    let lanes: Vec<f64> = arena
        .lifetimes()
        .iter()
        .map(|&ns| ns as f64 * 1e-9)
        .collect();
    let lanes_sorted = sorted(&lanes);
    let plain_cost = engine_wall(&plain) / total_steps(&plain) as f64;
    let traced_cost = engine_wall(&traced) / total_steps(&traced) as f64;
    emit(
        &mut report,
        &PER_LAYER,
        &[
            ("env.sample_s", total(Slot::EnvNs)),
            ("env.sample_calls", count(Slot::EnvCalls)),
            ("core.step_self_s", core_self),
            ("core.step_calls", count(Slot::StepCalls)),
            ("storage.step_s", total(Slot::StoreNs)),
            ("storage.calls", count(Slot::StoreCalls)),
            ("power.output_stage_s", total(Slot::StageNs)),
            ("node.policy_s", total(Slot::PolicyNs)),
            ("node.policy_calls", count(Slot::PolicyCalls)),
            ("systems.build_s", total(Slot::BuildNs)),
            ("sim.runner.self_s", runner_self),
            ("sim.runner.steps_per_s", phase_rate(&plain, 0)),
            ("sim.campaign.self_s", campaign_self),
            ("sim.campaign.steps_per_s", phase_rate(&plain, 1)),
            ("sim.arena.self_s", arena_self),
            ("sim.arena.lane_steps_per_s", phase_rate(&plain, 2)),
            ("sim.arena.lane_s.p50", median(&lanes)),
            (
                "sim.arena.lane_s.max",
                lanes_sorted.last().copied().unwrap_or(0.0),
            ),
            (
                "sim.parallel.idle_frac",
                parallel_idle / (sum(&|r| r.walls[0]) * w_single),
            ),
            (
                "trace.overhead_pct",
                100.0 * (traced_cost / plain_cost - 1.0),
            ),
            ("trace.unattributed_frac", breakdown.unattributed_frac()),
        ],
    );
    report
}
