//! The `mseh serve` job catalog: turns declarative, datasheet-style
//! job specs into runs over the surveyed reference systems.
//!
//! The daemon machinery itself (TCP listener, bounded queue,
//! subscriber streams) lives in [`mseh_sim::serve`] and is generic
//! over a [`JobRunner`]; this module supplies the runner that knows
//! the survey's catalog — [`SystemId`] platforms, the named
//! environments, and the duty-cycle policies — so new rigs load over
//! the wire without recompiling.
//!
//! # Job kinds
//!
//! | kind | spec fields | runs |
//! |---|---|---|
//! | `single` | `system`, `env`, `days`, `seed`, `policy` | one [`run_simulation`] |
//! | `campaign` | `system`, `days`, `seed`, `seeds` | a resilience campaign |
//! | `fleet` | `system`, `env`, `days`, `seed`, `population`, `policy`, `jitter`, `dense_tier`, `shard_size` | a fleet run |
//! | `arena` | `system`, `env`, `days`, `seed`, `seeds`, `roster` | a policy arena |
//!
//! Every field is optional except `system`; defaults mirror the CLI.
//! All validation happens in `prepare` — a malformed spec becomes an
//! `err code=bad_spec` reply and never reaches a worker.
//!
//! [`run_simulation`]: mseh_sim::run_simulation

use mseh_env::{EnvJitter, Environment};
use mseh_node::{
    DayProfileForecast, DutyCyclePolicy, EnergyNeutral, FixedDuty, ForecastDutySelect,
    HillClimbDuty, VoltageThreshold,
};
use mseh_sim::serve::protocol::Digest;
use mseh_sim::serve::{JobContext, JobOutput, JobRunner, JobSpec, PreparedJob};
use mseh_sim::{
    default_contenders, run_arena_controlled, run_fleet_controlled,
    run_resilience_campaign_cancellable, run_simulation_cancellable, ArenaConfig, ArenaSpec,
    ArenaSummary, CampaignConfig, CampaignSummary, Contender, DenseSolveTier, FleetConfig,
    FleetControl, FleetGroup, FleetSpec, FleetSummary, SimConfig, SimObserver, SimResult,
};
use mseh_systems::resilience::{natural_node, resilience_scenario};
use mseh_systems::SystemId;
use mseh_units::{DutyCycle, Joules, Seconds};

/// Longest accepted job horizon, days — a guard against jobs sized to
/// occupy a worker forever.
const MAX_DAYS: f64 = 3660.0;
/// Largest accepted fleet population per job.
const MAX_POPULATION: u64 = 1_000_000;
/// Largest accepted campaign seed count.
const MAX_SEEDS: u64 = 4096;
/// Largest accepted fleet shard size (one shard is one worker task; a
/// larger value degrades progress streaming, not correctness).
const MAX_SHARD_SIZE: u64 = 1 << 20;
/// Largest accepted arena roster.
const MAX_CONTENDERS: usize = 256;

/// Parses a surveyed system id (`A`..`G`, case-insensitive).
pub fn parse_system(s: &str) -> Result<SystemId, String> {
    Ok(match s {
        "A" | "a" => SystemId::A,
        "B" | "b" => SystemId::B,
        "C" | "c" => SystemId::C,
        "D" | "d" => SystemId::D,
        "E" | "e" => SystemId::E,
        "F" | "f" => SystemId::F,
        "G" | "g" => SystemId::G,
        other => return Err(format!("unknown system {other:?} (use A..G)")),
    })
}

/// Builds a named deployment environment with `seed`.
pub fn make_env(kind: &str, seed: u64) -> Result<Environment, String> {
    Ok(match kind {
        "outdoor" => Environment::outdoor_temperate(seed),
        "winter" => Environment::outdoor_winter(seed),
        "indoor" => Environment::indoor_industrial(seed),
        "office" => Environment::indoor_office(seed),
        "agricultural" | "agri" => Environment::agricultural(seed),
        other => return Err(format!("unknown env {other:?}")),
    })
}

/// Builds a duty-cycle policy from its CLI/wire spelling
/// (`ladder | neutral | forecast | fixed:<duty 0..1>`).
pub fn make_policy(spec: &str) -> Result<Box<dyn DutyCyclePolicy>, String> {
    if let Some(duty) = spec.strip_prefix("fixed:") {
        let d: f64 = duty.parse().map_err(|e| format!("fixed duty: {e}"))?;
        if !(0.0..=1.0).contains(&d) {
            return Err(format!("duty {d} outside 0..1"));
        }
        return Ok(Box::new(FixedDuty::new(DutyCycle::saturating(d))));
    }
    Ok(match spec {
        "ladder" => Box::new(VoltageThreshold::supercap_ladder()),
        "neutral" => Box::new(EnergyNeutral::new()),
        "forecast" => Box::new(DayProfileForecast::new(Seconds::from_hours(14.0))),
        other => return Err(format!("unknown policy {other:?}")),
    })
}

/// Builds one arena contender from its CLI/wire spelling: every
/// [`make_policy`] spelling works, plus `select` (forecast-driven duty
/// selection) and `hillclimb` (seeded duty search, reseeded per
/// scenario seed so rankings average over its exploration noise).
pub fn make_contender(spec: &str) -> Result<Contender, String> {
    match spec {
        "select" => Ok(Contender::new("select", |_| {
            Box::new(ForecastDutySelect::new(Seconds::from_hours(14.0)))
        })),
        "hillclimb" => Ok(Contender::new("hillclimb", |seed| {
            Box::new(HillClimbDuty::new(seed))
        })),
        other => {
            make_policy(other)?;
            let spelling = other.to_string();
            Ok(Contender::new(other, move |_| {
                make_policy(&spelling).expect("validated spelling")
            }))
        }
    }
}

/// Builds an arena roster from its CLI/wire spelling: `default` (the
/// stock [`default_contenders`] tournament) or a comma-separated list
/// of [`make_contender`] spellings with no duplicates.
pub fn make_roster(spec: &str) -> Result<Vec<Contender>, String> {
    if spec == "default" {
        return Ok(default_contenders());
    }
    let mut roster = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err("empty contender in roster".into());
        }
        if roster.iter().any(|c: &Contender| c.name() == entry) {
            return Err(format!("duplicate contender {entry:?} in roster"));
        }
        roster.push(make_contender(entry)?);
    }
    if roster.len() > MAX_CONTENDERS {
        return Err(format!(
            "roster must have at most {MAX_CONTENDERS} contenders, got {}",
            roster.len()
        ));
    }
    Ok(roster)
}

/// Parses a dense solve tier from its CLI/wire spelling
/// (`scalar | batched`). The tier governs dense and opted-in groups;
/// boxed groups without a dense class ignore it, so the digest of a
/// plain boxed fleet is tier-invariant. Both tiers are bit-identical.
pub fn parse_dense_tier(spec: &str) -> Result<DenseSolveTier, String> {
    match spec {
        "scalar" => Ok(DenseSolveTier::Scalar),
        "batched" => Ok(DenseSolveTier::Batched),
        other => Err(format!(
            "unknown dense tier {other:?} (use scalar or batched)"
        )),
    }
}

/// Bit-exact digest of a single run's summary — the `digest` in a
/// `single` job's determinism receipt. Two digests agree iff the runs
/// are bit-identical on every summarized quantity.
pub fn digest_single(result: &SimResult) -> u64 {
    Digest::new()
        .f64(result.duration.value())
        .f64(result.uptime)
        .f64(result.samples)
        .f64(result.harvested.value())
        .f64(result.delivered.value())
        .f64(result.shortfall.value())
        .f64(result.converter_losses.value())
        .u64(result.brownout_steps)
        .u64(result.longest_outage_steps)
        .f64(result.min_store_voltage.value())
        .f64(result.audit_residual)
        .finish()
}

/// Bit-exact digest of a campaign summary (receipt `digest` for
/// `campaign` jobs).
pub fn digest_campaign(summary: &CampaignSummary) -> u64 {
    let mut digest = Digest::new()
        .f64(summary.uptime.mean)
        .f64(summary.uptime.min)
        .f64(summary.uptime.max)
        .f64(summary.longest_outage_s.mean)
        .f64(summary.stranded_j.max)
        .u64(summary.total_faults)
        .u64(summary.total_clears)
        .u64(summary.total_failovers)
        .u64(summary.total_recoveries)
        .f64(summary.worst_audit_relative);
    for outcome in &summary.outcomes {
        digest = digest
            .u64(outcome.seed)
            .f64(outcome.uptime)
            .f64(outcome.delivered.value())
            .f64(outcome.shortfall.value());
    }
    digest.finish()
}

/// Bit-exact digest of a fleet summary (receipt `digest` for `fleet`
/// jobs).
pub fn digest_fleet(summary: &FleetSummary) -> u64 {
    Digest::new()
        .u64(summary.population)
        .u64(summary.steps_per_node)
        .f64(summary.duration.value())
        .f64(summary.energy_neutral_fraction)
        .f64(summary.uptime.mean)
        .f64(summary.uptime.min)
        .f64(summary.uptime.p50)
        .f64(summary.uptime.max)
        .f64(summary.served_fraction)
        .f64(summary.harvested.value())
        .f64(summary.delivered.value())
        .f64(summary.shortfall.value())
        .f64(summary.demanded.value())
        .f64(summary.converter_losses.value())
        .f64(summary.min_store_voltage.value())
        .f64(summary.audit_relative)
        .finish()
}

/// Bit-exact digest of an arena summary (receipt `digest` for `arena`
/// jobs): run geometry plus every standing, in rank order.
pub fn digest_arena(summary: &ArenaSummary) -> u64 {
    let mut digest = Digest::new()
        .u64(summary.contenders)
        .u64(summary.seeds)
        .u64(summary.lanes)
        .u64(summary.steps_per_lane)
        .f64(summary.duration.value())
        .f64(summary.audit_relative);
    for s in &summary.standings {
        digest = digest
            .str(&s.name)
            .u64(s.rank as u64)
            .f64(s.served_fraction)
            .f64(s.uptime.mean)
            .f64(s.uptime.min)
            .f64(s.uptime.max)
            .f64(s.harvested.value())
            .f64(s.delivered.value())
            .f64(s.shortfall.value())
            .f64(s.samples)
            .u64(s.brownout_steps)
            .u64(s.energy_neutral_seeds)
            .u64(s.failovers);
    }
    digest.finish()
}

/// The survey's [`JobRunner`]: validates specs against the reference
/// catalog and builds cancellable runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemCatalog;

impl JobRunner for SystemCatalog {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob, String> {
        reject_unknown_fields(spec)?;
        match spec.kind.as_str() {
            "single" => prepare_single(spec),
            "campaign" => prepare_campaign(spec),
            "fleet" => prepare_fleet(spec),
            "arena" => prepare_arena(spec),
            other => Err(format!(
                "unknown job kind {other:?} (use single, campaign, fleet, or arena)"
            )),
        }
    }
}

fn allowed_fields(kind: &str) -> &'static [&'static str] {
    match kind {
        "single" => &["system", "env", "days", "seed", "policy"],
        "campaign" => &["system", "days", "seed", "seeds"],
        "fleet" => &[
            "system",
            "env",
            "days",
            "seed",
            "population",
            "policy",
            "jitter",
            "dense_tier",
            "shard_size",
        ],
        "arena" => &["system", "env", "days", "seed", "seeds", "roster"],
        _ => &[],
    }
}

fn reject_unknown_fields(spec: &JobSpec) -> Result<(), String> {
    let allowed = allowed_fields(&spec.kind);
    if let Some((key, _)) = spec
        .fields
        .iter()
        .find(|(k, _)| !allowed.contains(&k.as_str()))
    {
        return Err(format!(
            "unknown field {key:?} for kind {} (allowed: {})",
            spec.kind,
            allowed.join(", ")
        ));
    }
    let mut seen: Vec<&str> = Vec::new();
    for (key, _) in &spec.fields {
        if seen.contains(&key.as_str()) {
            return Err(format!("duplicate field {key:?}"));
        }
        seen.push(key);
    }
    Ok(())
}

fn parse_days(spec: &JobSpec, default: f64) -> Result<f64, String> {
    let days: f64 = match spec.get("days") {
        None => default,
        Some(v) => v.parse().map_err(|e| format!("days: {e}"))?,
    };
    if !days.is_finite() || days <= 0.0 || days > MAX_DAYS {
        return Err(format!("days must be in (0, {MAX_DAYS}], got {days}"));
    }
    Ok(days)
}

fn parse_u64_field(spec: &JobSpec, key: &str, default: u64) -> Result<u64, String> {
    match spec.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("{key}: {e}")),
    }
}

/// Window-batched progress events for `single` jobs: one `event` line
/// every `every` control windows (the kernel already batches its
/// observer callbacks at window edges).
struct ProgressEmitter<'a> {
    ctx: &'a JobContext,
    windows: u64,
    total: u64,
    every: u64,
}

impl SimObserver for ProgressEmitter<'_> {
    fn on_window_end(&mut self, _time: Seconds, _stored: Joules, _losses: Joules) {
        self.windows += 1;
        if self.windows.is_multiple_of(self.every) {
            self.ctx.emit(&[
                ("windows", self.windows.to_string()),
                ("total_windows", self.total.to_string()),
            ]);
        }
    }
}

fn prepare_single(spec: &JobSpec) -> Result<PreparedJob, String> {
    let system = parse_system(spec.get("system").ok_or("missing system field")?)?;
    let seed = parse_u64_field(spec, "seed", 42)?;
    let days = parse_days(spec, 2.0)?;
    let env_kind = spec.get("env").unwrap_or("outdoor").to_string();
    make_env(&env_kind, seed)?;
    let policy_spec = spec.get("policy").unwrap_or("ladder").to_string();
    make_policy(&policy_spec)?;

    Ok(PreparedJob {
        seed,
        run: Box::new(move |ctx| {
            let environment = make_env(&env_kind, seed).expect("validated in prepare");
            let mut policy = make_policy(&policy_spec).expect("validated in prepare");
            let mut unit = system.build();
            let node = natural_node(system);
            let config = SimConfig::over(Seconds::from_days(days));
            let total = (config.duration.value() / config.control_interval.value()).ceil() as u64;
            let mut progress = ProgressEmitter {
                ctx,
                windows: 0,
                total,
                every: (total / 8).max(1),
            };
            let result = run_simulation_cancellable(
                &mut unit,
                &environment,
                &node,
                policy.as_mut(),
                config,
                &mut [&mut progress],
                ctx.cancel_token(),
            );
            let Some(result) = result else {
                return Ok(None);
            };
            Ok(Some(JobOutput {
                digest: digest_single(&result),
                fields: vec![
                    ("uptime".into(), format!("{:.6}", result.uptime)),
                    ("samples".into(), format!("{:.1}", result.samples)),
                    (
                        "harvested_j".into(),
                        format!("{:.6}", result.harvested.value()),
                    ),
                    (
                        "delivered_j".into(),
                        format!("{:.6}", result.delivered.value()),
                    ),
                    (
                        "shortfall_j".into(),
                        format!("{:.6}", result.shortfall.value()),
                    ),
                    ("brownout_steps".into(), result.brownout_steps.to_string()),
                    (
                        "min_store_v".into(),
                        format!("{:.4}", result.min_store_voltage.value()),
                    ),
                    ("audit".into(), format!("{:.3e}", result.audit_residual)),
                ],
            }))
        }),
    })
}

fn prepare_campaign(spec: &JobSpec) -> Result<PreparedJob, String> {
    let system = parse_system(spec.get("system").ok_or("missing system field")?)?;
    let seed = parse_u64_field(spec, "seed", 1)?;
    let count = parse_u64_field(spec, "seeds", 4)?;
    if count == 0 || count > MAX_SEEDS {
        return Err(format!("seeds must be in 1..={MAX_SEEDS}, got {count}"));
    }
    let days = parse_days(spec, 1.0)?;

    Ok(PreparedJob {
        seed,
        run: Box::new(move |ctx| {
            let horizon = Seconds::from_days(days);
            let seeds: Vec<u64> = (seed..seed.saturating_add(count)).collect();
            let node = natural_node(system);
            let emit = |done: u64, total: u64| {
                ctx.emit(&[
                    ("scenarios", done.to_string()),
                    ("total_scenarios", total.to_string()),
                ]);
            };
            let summary = run_resilience_campaign_cancellable(
                0,
                &seeds,
                |s| resilience_scenario(system, s, horizon),
                &node,
                CampaignConfig::over(horizon),
                ctx.cancel_token(),
                Some(&emit),
            )?;
            let Some(summary) = summary else {
                return Ok(None);
            };
            Ok(Some(JobOutput {
                digest: digest_campaign(&summary),
                fields: vec![
                    ("scenarios".into(), summary.outcomes.len().to_string()),
                    ("uptime_mean".into(), format!("{:.6}", summary.uptime.mean)),
                    ("uptime_min".into(), format!("{:.6}", summary.uptime.min)),
                    ("faults".into(), summary.total_faults.to_string()),
                    ("clears".into(), summary.total_clears.to_string()),
                    ("failovers".into(), summary.total_failovers.to_string()),
                    ("recoveries".into(), summary.total_recoveries.to_string()),
                    (
                        "worst_audit".into(),
                        format!("{:.3e}", summary.worst_audit_relative),
                    ),
                ],
            }))
        }),
    })
}

fn prepare_fleet(spec: &JobSpec) -> Result<PreparedJob, String> {
    let system = parse_system(spec.get("system").ok_or("missing system field")?)?;
    let seed = parse_u64_field(spec, "seed", 7)?;
    let days = parse_days(spec, 1.0)?;
    let population = parse_u64_field(spec, "population", 64)?;
    if population == 0 || population > MAX_POPULATION {
        return Err(format!(
            "population must be in 1..={MAX_POPULATION}, got {population}"
        ));
    }
    let env_kind = spec.get("env").unwrap_or("outdoor").to_string();
    make_env(&env_kind, seed)?;
    let policy_spec = spec.get("policy").unwrap_or("ladder").to_string();
    make_policy(&policy_spec)?;
    let jitter: f64 = match spec.get("jitter") {
        None => 0.0,
        Some(v) => v.parse().map_err(|e| format!("jitter: {e}"))?,
    };
    if !jitter.is_finite() || !(0.0..=1.0).contains(&jitter) {
        return Err(format!("jitter must be in 0..=1, got {jitter}"));
    }
    let dense_tier = match spec.get("dense_tier") {
        None => DenseSolveTier::Batched,
        Some(v) => parse_dense_tier(v)?,
    };
    let shard_size = parse_u64_field(spec, "shard_size", 16)?;
    if shard_size == 0 || shard_size > MAX_SHARD_SIZE {
        return Err(format!(
            "shard_size must be in 1..={MAX_SHARD_SIZE}, got {shard_size}"
        ));
    }

    Ok(PreparedJob {
        seed,
        run: Box::new(move |ctx| {
            let Some(result) = run_fleet_controlled(
                &build_fleet_spec(system, &env_kind, seed, population, &policy_spec, jitter),
                fleet_config(days, dense_tier, shard_size as usize),
                FleetControl {
                    cancel: Some(ctx.cancel_token()),
                    progress: Some(&|done: u64, total: u64| {
                        ctx.emit(&[
                            ("nodes", done.to_string()),
                            ("total_nodes", total.to_string()),
                        ]);
                    }),
                },
            )?
            else {
                return Ok(None);
            };
            let s = &result.summary;
            let fields = vec![
                ("population".into(), s.population.to_string()),
                ("uptime_mean".into(), format!("{:.6}", s.uptime.mean)),
                ("uptime_min".into(), format!("{:.6}", s.uptime.min)),
                (
                    "neutral_fraction".into(),
                    format!("{:.6}", s.energy_neutral_fraction),
                ),
                ("harvested_j".into(), format!("{:.6}", s.harvested.value())),
                ("delivered_j".into(), format!("{:.6}", s.delivered.value())),
                ("audit".into(), format!("{:.3e}", s.audit_relative)),
            ];
            Ok(Some(JobOutput {
                digest: digest_fleet(s),
                fields,
            }))
        }),
    })
}

fn prepare_arena(spec: &JobSpec) -> Result<PreparedJob, String> {
    let system = parse_system(spec.get("system").ok_or("missing system field")?)?;
    let seed = parse_u64_field(spec, "seed", 17)?;
    let count = parse_u64_field(spec, "seeds", 4)?;
    if count == 0 || count > MAX_SEEDS {
        return Err(format!("seeds must be in 1..={MAX_SEEDS}, got {count}"));
    }
    let days = parse_days(spec, 1.0)?;
    let env_kind = spec.get("env").unwrap_or("outdoor").to_string();
    make_env(&env_kind, seed)?;
    let roster_spec = spec.get("roster").unwrap_or("default").to_string();
    make_roster(&roster_spec)?;

    Ok(PreparedJob {
        seed,
        run: Box::new(move |ctx| {
            let arena = build_arena_spec(system, &env_kind, seed, count, &roster_spec)
                .expect("validated in prepare");
            let Some(result) = run_arena_controlled(
                &arena,
                ArenaConfig::over(Seconds::from_days(days)),
                FleetControl {
                    cancel: Some(ctx.cancel_token()),
                    progress: Some(&|done: u64, total: u64| {
                        ctx.emit(&[
                            ("lanes", done.to_string()),
                            ("total_lanes", total.to_string()),
                        ]);
                    }),
                },
            )?
            else {
                return Ok(None);
            };
            let s = &result.summary;
            let top = &s.standings[0];
            Ok(Some(JobOutput {
                digest: digest_arena(s),
                fields: vec![
                    ("contenders".into(), s.contenders.to_string()),
                    ("seeds".into(), s.seeds.to_string()),
                    ("lanes".into(), s.lanes.to_string()),
                    ("winner".into(), top.name.clone()),
                    (
                        "winner_served".into(),
                        format!("{:.6}", top.served_fraction),
                    ),
                    ("winner_uptime".into(), format!("{:.6}", top.uptime.mean)),
                    ("audit".into(), format!("{:.3e}", s.audit_relative)),
                ],
            }))
        }),
    })
}

/// The exact [`ArenaSpec`] an `arena` job runs — public so tests and
/// the CLI can reproduce a wire job via [`mseh_sim::run_arena`]
/// directly and assert digest equality. Scenario seeds are the `count`
/// consecutive values from `seed`; each lane's platform is a fresh
/// build of the surveyed system.
pub fn build_arena_spec(
    system: SystemId,
    env_kind: &str,
    seed: u64,
    count: u64,
    roster: &str,
) -> Result<ArenaSpec, String> {
    let contenders = make_roster(roster)?;
    make_env(env_kind, seed)?;
    let env_kind = env_kind.to_string();
    let seeds: Vec<u64> = (0..count).map(|i| seed.wrapping_add(i)).collect();
    Ok(ArenaSpec::boxed(
        &format!("{system}"),
        natural_node(system),
        move |_| Box::new(system.build()),
        move |s| make_env(&env_kind, s).expect("validated env"),
    )
    .with_contenders(contenders)
    .with_seeds(&seeds))
}

/// The exact [`FleetSpec`] a `fleet` job runs — public so tests can
/// reproduce a wire job via [`mseh_sim::run_fleet`] directly and
/// assert digest equality.
pub fn build_fleet_spec(
    system: SystemId,
    env_kind: &str,
    seed: u64,
    population: u64,
    policy_spec: &str,
    jitter: f64,
) -> FleetSpec {
    let mut fleet = FleetSpec::new();
    let site = fleet.add_site(make_env(env_kind, seed).expect("validated env"));
    let policy_spec = policy_spec.to_string();
    let mut group = FleetGroup::new(
        &format!("{system}"),
        population as usize,
        site,
        natural_node(system),
        move |_| Box::new(system.build()),
        move |_| make_policy(&policy_spec).expect("validated policy"),
    )
    .with_seed(seed);
    if jitter > 0.0 {
        group = group.with_jitter(EnvJitter::relative(jitter));
    }
    fleet.add_group(group);
    fleet
}

/// The exact [`FleetConfig`] a `fleet` job runs under (the wire
/// default shard size of 16 is kept small so progress events arrive
/// while the job streams).
pub fn fleet_config(days: f64, dense_tier: DenseSolveTier, shard_size: usize) -> FleetConfig {
    FleetConfig {
        shard_size,
        dense_tier,
        ..FleetConfig::over(Seconds::from_days(days))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: &str, fields: &[(&str, &str)]) -> JobSpec {
        JobSpec {
            kind: kind.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        }
    }

    #[test]
    fn validates_specs_eagerly() {
        let catalog = SystemCatalog;
        assert!(catalog.prepare(&spec("single", &[("system", "B")])).is_ok());
        assert!(catalog.prepare(&spec("single", &[])).is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "Z")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("days", "-1")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("days", "nan")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("env", "mars")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("policy", "wat")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("single", &[("system", "A"), ("dys", "3")]))
            .is_err());
        assert!(catalog
            .prepare(&spec(
                "single",
                &[("system", "A"), ("seed", "1"), ("seed", "2")]
            ))
            .is_err());
        assert!(catalog
            .prepare(&spec("fleet", &[("system", "A"), ("population", "0")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("campaign", &[("system", "A"), ("seeds", "0")]))
            .is_err());
        assert!(catalog.prepare(&spec("mystery", &[])).is_err());
        // Solve-tier and shard-geometry knobs: fleet-only, range-checked.
        assert!(catalog
            .prepare(&spec(
                "fleet",
                &[
                    ("system", "A"),
                    ("dense_tier", "scalar"),
                    ("shard_size", "8")
                ]
            ))
            .is_ok());
        assert!(catalog
            .prepare(&spec("fleet", &[("system", "A"), ("dense_tier", "warp")]))
            .is_err());
        assert!(catalog
            .prepare(&spec(
                "fleet",
                &[("system", "A"), ("dense_tier", "interp:4096")]
            ))
            .is_err());
        assert!(catalog
            .prepare(&spec("fleet", &[("system", "A"), ("shard_size", "0")]))
            .is_err());
        assert!(catalog
            .prepare(&spec(
                "single",
                &[("system", "A"), ("dense_tier", "batched")]
            ))
            .is_err());
    }

    #[test]
    fn validates_arena_specs_eagerly() {
        let catalog = SystemCatalog;
        assert!(catalog.prepare(&spec("arena", &[("system", "B")])).is_ok());
        assert!(catalog
            .prepare(&spec(
                "arena",
                &[("system", "B"), ("roster", "ladder,neutral,hillclimb")]
            ))
            .is_ok());
        assert!(catalog.prepare(&spec("arena", &[])).is_err());
        assert!(catalog
            .prepare(&spec("arena", &[("system", "B"), ("seeds", "0")]))
            .is_err());
        assert!(catalog
            .prepare(&spec("arena", &[("system", "B"), ("roster", "warp")]))
            .is_err());
        assert!(catalog
            .prepare(&spec(
                "arena",
                &[("system", "B"), ("roster", "ladder,ladder")]
            ))
            .is_err());
        assert!(catalog
            .prepare(&spec(
                "arena",
                &[("system", "B"), ("roster", "ladder,,neutral")]
            ))
            .is_err());
        // Fleet-only knobs stay fleet-only.
        assert!(catalog
            .prepare(&spec("arena", &[("system", "B"), ("population", "8")]))
            .is_err());
    }

    #[test]
    fn rosters_construct() {
        assert!(make_roster("default").unwrap().len() >= 8);
        let roster = make_roster("ladder,fixed:0.1,select,hillclimb").unwrap();
        assert_eq!(roster.len(), 4);
        assert_eq!(roster[1].name(), "fixed:0.1");
        assert!(make_roster("").is_err());
        assert!(make_roster("fixed:2").is_err());
    }

    #[test]
    fn arena_digest_is_value_sensitive() {
        let arena = build_arena_spec(SystemId::B, "indoor", 3, 2, "ladder,fixed:0.05").unwrap();
        let out = mseh_sim::run_arena(&arena, ArenaConfig::over(Seconds::from_hours(2.0)));
        let d1 = digest_arena(&out.summary);
        let mut tweaked = out.summary;
        tweaked.standings[0].served_fraction += 1e-12;
        assert_ne!(d1, digest_arena(&tweaked));
    }

    #[test]
    fn dense_tier_spellings_round_trip() {
        assert_eq!(parse_dense_tier("scalar"), Ok(DenseSolveTier::Scalar));
        assert_eq!(parse_dense_tier("batched"), Ok(DenseSolveTier::Batched));
        // Unknown spellings are rejected with the list of valid tiers.
        for removed in ["interp:512", "interp:", "BATCHED", ""] {
            let err = parse_dense_tier(removed).expect_err(removed);
            assert!(err.contains("scalar") && err.contains("batched"), "{err}");
        }
    }

    #[test]
    fn digests_are_value_sensitive() {
        let mut unit = SystemId::B.build();
        let result = mseh_sim::run_simulation(
            &mut unit,
            &make_env("indoor", 3).unwrap(),
            &natural_node(SystemId::B),
            make_policy("ladder").unwrap().as_mut(),
            SimConfig::over(Seconds::from_hours(2.0)),
        );
        let d1 = digest_single(&result);
        let mut tweaked = result;
        tweaked.uptime += 1e-12;
        assert_ne!(d1, digest_single(&tweaked));
    }
}
