//! Discrete-time simulation kernel for multi-source harvesting platforms.
//!
//! The kernel drives a [`Platform`] (a [`mseh_core::PowerUnit`] or
//! [`mseh_core::SmartNetwork`]) against a seeded
//! [`mseh_env::Environment`], with a [`mseh_node::SensorNode`] as the
//! load and a [`mseh_node::DutyCyclePolicy`] closing the energy-awareness
//! loop. Power flow is solved quasi-statically per step (the standard
//! approach for long-horizon energy-harvesting simulation), and the run's
//! energy books are audited: the storage conservation identity must close
//! to numerical precision or the run fails in debug builds.
//!
//! [`sweep`] and friends support the experiment harness: parameter grids,
//! threshold search (minimum buffer size) and crossover location (where
//! MPPT starts paying off).
//!
//! Ensembles and sweeps fan out across a dependency-free scoped worker
//! pool ([`par_map`]; `MSEH_THREADS` sets the width, default
//! [`std::thread::available_parallelism`]). Because every run is a pure
//! function of its seed, parallel output is bit-for-bit identical to
//! sequential output at any thread count.
//!
//! # Examples
//!
//! ```
//! use mseh_sim::{run_simulation, SimConfig};
//! use mseh_core::{PowerUnit, StoreRole, PortRequirement};
//! use mseh_power::{InputChannel, FractionalVoc, DcDcConverter, IdealDiode};
//! use mseh_harvesters::PvModule;
//! use mseh_storage::Supercap;
//! use mseh_node::{SensorNode, VoltageThreshold};
//! use mseh_env::Environment;
//! use mseh_units::{Seconds, Volts};
//!
//! let channel = InputChannel::new(
//!     Box::new(PvModule::outdoor_panel_half_watt()),
//!     Box::new(FractionalVoc::pv_standard()),
//!     Box::new(IdealDiode::nanopower()),
//!     Box::new(DcDcConverter::mppt_front_end_5v()),
//! );
//! let mut unit = PowerUnit::builder("doc demo")
//!     .harvester_port(
//!         PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
//!         Some(channel), true)
//!     .store_port(
//!         PortRequirement::any_in_window("buf", Volts::ZERO, Volts::new(3.0)),
//!         Some(Box::new(Supercap::edlc_22f())), StoreRole::PrimaryBuffer, true)
//!     .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
//!     .build();
//!
//! let result = run_simulation(
//!     &mut unit,
//!     &Environment::outdoor_temperate(42),
//!     &SensorNode::submilliwatt_class(),
//!     &mut VoltageThreshold::supercap_ladder(),
//!     SimConfig::over(Seconds::from_days(2.0)),
//! );
//! assert!(result.harvested.value() > 0.0);
//! assert!(result.audit_residual < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod campaign;
mod cancel;
mod ensemble;
mod fault;
mod fleet;
mod metrics;
mod observe;
mod parallel;
mod platform;
mod runner;
pub mod serve;
mod sweep;

pub use arena::{
    default_contenders, run_arena, run_arena_controlled, ArenaConfig, ArenaResult, ArenaSpec,
    ArenaSummary, Contender, ContenderStanding, EnvFactory,
};
pub use campaign::{
    run_resilience_campaign, run_resilience_campaign_cancellable,
    run_resilience_campaign_with_threads, CampaignConfig, CampaignSummary, FaultScenario,
    ScenarioOutcome,
};
pub use cancel::CancelToken;
pub use ensemble::{
    run_seed_ensemble, run_seed_ensemble_instrumented, run_seed_ensemble_seq,
    run_seed_ensemble_with_threads, EnsembleSummary, InstrumentedEnsemble, Spread,
};
pub use fault::{
    DegradingHarvester, FailingStorage, FaultSchedule, GlitchingHarvester, IntermittentStorage,
};
pub use fleet::{
    run_fleet, run_fleet_controlled, ChannelFactory, DenseClass, DenseGroup, DenseSolveTier,
    DenseStore, EnvCadence, FleetConfig, FleetControl, FleetGroup, FleetResult, FleetSpec,
    FleetSummary, GroupEntry, PlatformFactory, PolicyFactory, Straggler, UptimePercentiles,
};
pub use metrics::{
    CounterHandle, GaugeHandle, HistogramHandle, HistogramSnapshot, MetricsRegistry,
    DEFAULT_BUCKETS,
};
pub use observe::{
    AuditReport, ConservationAuditor, EventSink, MetricsObserver, RingRecorder, SimEvent,
    SimObserver, SinkFormat, StepEnergies, Tandem,
};
pub use parallel::{par_map, par_map_instrumented, par_map_with, thread_count};
pub use platform::Platform;
pub use runner::{
    run_simulation, run_simulation_cancellable, run_simulation_observed, SimConfig, SimResult,
    SimTraces,
};
pub use sweep::{
    crossover, day_grid, first_meeting, geometric_grid, par_sweep, par_sweep_with_threads, sweep,
    SweepPoint,
};
