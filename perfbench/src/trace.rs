//! Forwarding wrappers that time calls into each layer from outside the
//! program.
//!
//! Every wrapper forwards every trait method — defaulted ones included —
//! to the value it wraps, so a wrapped run takes exactly the path of the
//! unwrapped one (the identity tests assert bit-equal results). Each
//! wrapper keeps per-run totals in its own fields and adds them to a
//! shared [`Tally`] when it is dropped, so no per-call span is stored
//! and no counter is shared between threads while a run steps.
//!
//! No wrapper touches the harvester: the transducer-level hooks are
//! slated for deletion, so the harvest solve is reported inside the
//! power unit's self time ([`Slot::StepNs`] minus the store and
//! output-stage spans).

use mseh::core::{PowerUnit, StepReport};
use mseh::env::{EnvConditions, EnvSampler};
use mseh::node::{DutyCyclePolicy, EnergyStatus, MonitoringLevel, SensorNode};
use mseh::power::PowerStage;
use mseh::sim::Platform;
use mseh::storage::{Storage, StorageKind};
use mseh::systems::SystemId;
use mseh::units::{DutyCycle, Joules, Ratio, Seconds, Volts, Watts};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One per-run total kept by the wrappers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Nanoseconds inside `EnvSampler::conditions{,_into}`.
    EnvNs,
    /// Environment sampler calls.
    EnvCalls,
    /// Nanoseconds inside `Platform::step` and `Platform::energy_status`.
    StepNs,
    /// `Platform::step` calls.
    StepCalls,
    /// Nanoseconds inside `Storage::{charge, discharge, idle}`.
    StoreNs,
    /// Storage `charge`/`discharge`/`idle` calls.
    StoreCalls,
    /// Nanoseconds inside `PowerStage::{output_for_input, input_for_output, advance}`.
    StageNs,
    /// Output-stage transfer calls.
    StageCalls,
    /// Nanoseconds inside `DutyCyclePolicy::choose`.
    PolicyNs,
    /// Policy `choose` calls.
    PolicyCalls,
    /// Nanoseconds inside `SystemId::build`.
    BuildNs,
    /// Platforms built.
    BuildCalls,
}

const SLOTS: usize = 12;

/// Per-run totals for one context (single runs, campaigns, arenas or
/// fleets), filled as wrappers drop.
#[derive(Debug, Default)]
pub struct Tally {
    values: [AtomicU64; SLOTS],
    lifetimes: Mutex<Vec<u64>>,
}

impl Tally {
    /// A fresh, shareable tally.
    pub fn shared() -> Arc<Tally> {
        Arc::new(Tally::default())
    }

    /// Adds `value` to `slot`.
    pub fn add(&self, slot: Slot, value: u64) {
        self.values[slot as usize].fetch_add(value, Ordering::Relaxed);
    }

    /// The current total of `slot`.
    pub fn get(&self, slot: Slot) -> u64 {
        self.values[slot as usize].load(Ordering::Relaxed)
    }

    /// The current total of a nanosecond `slot`, in seconds.
    pub fn seconds(&self, slot: Slot) -> f64 {
        self.get(slot) as f64 * 1e-9
    }

    /// Lifetimes (ns, construction to drop) of every traced platform
    /// dropped so far — one per arena lane in the arena context.
    pub fn lifetimes(&self) -> Vec<u64> {
        self.lifetimes
            .lock()
            .expect("lifetime list poisoned")
            .clone()
    }
}

fn since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

thread_local! {
    /// When the fleet shard running on this thread built its first node.
    static SHARD_OPEN: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Marks the start of a fleet shard on this thread, if none is open: the
/// engine builds each member's platform and policy through the group
/// factories as the shard reaches it, so the first factory call of a
/// shard is its start.
pub fn shard_touch() {
    SHARD_OPEN.with(|open| {
        if open.get().is_none() {
            open.set(Some(Instant::now()));
        }
    });
}

/// Closes this thread's open shard (called from the fleet progress
/// callback, which the engine runs on the worker as each shard ends).
pub fn shard_close() -> Option<Instant> {
    SHARD_OPEN.with(Cell::take)
}

/// Times one `SystemId::build` into `sink`.
pub fn build_system(id: SystemId, sink: &Tally) -> PowerUnit {
    let start = Instant::now();
    let unit = id.build();
    sink.add(Slot::BuildNs, since(start));
    sink.add(Slot::BuildCalls, 1);
    unit
}

/// Wraps every populated store and the output stage of `unit` so their
/// calls are timed into `sink` (through `PowerUnit::instrument_store`
/// and `PowerUnit::instrument_output_stage`).
fn instrument(unit: &mut PowerUnit, sink: &Arc<Tally>) {
    let ports: Vec<usize> = unit
        .store_ports()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.device().is_some())
        .map(|(i, _)| i)
        .collect();
    for port in ports {
        let store_sink = Arc::clone(sink);
        let wrapped = unit.instrument_store(port, move |inner| {
            Box::new(TracedStore {
                inner,
                sink: store_sink,
                ns: 0,
                calls: 0,
            })
        });
        assert!(wrapped, "populated store port {port} must accept a wrapper");
    }
    let stage_sink = Arc::clone(sink);
    unit.instrument_output_stage(move |inner| {
        Box::new(TracedStage {
            inner,
            sink: stage_sink,
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        })
    });
}

/// A power unit with every layer below it instrumented, behind a
/// forwarding [`Platform`].
pub fn traced_unit(unit: PowerUnit, sink: &Arc<Tally>) -> TracedPlatform<PowerUnit> {
    let mut unit = unit;
    instrument(&mut unit, sink);
    TracedPlatform::new(unit, sink)
}

/// Forwarding [`Platform`] timing `step` and `energy_status`.
pub struct TracedPlatform<P: Platform> {
    inner: P,
    sink: Arc<Tally>,
    born: Instant,
    ns: Cell<u64>,
    calls: u64,
}

impl<P: Platform> TracedPlatform<P> {
    /// Wraps `inner`, reporting into `sink` on drop.
    pub fn new(inner: P, sink: &Arc<Tally>) -> Self {
        Self {
            inner,
            sink: Arc::clone(sink),
            born: Instant::now(),
            ns: Cell::new(0),
            calls: 0,
        }
    }

    /// The wrapped platform.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P: Platform> Drop for TracedPlatform<P> {
    fn drop(&mut self) {
        self.sink.add(Slot::StepNs, self.ns.get());
        self.sink.add(Slot::StepCalls, self.calls);
        if let Ok(mut lifetimes) = self.sink.lifetimes.lock() {
            lifetimes.push(since(self.born));
        }
    }
}

impl<P: Platform> Platform for TracedPlatform<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step(&mut self, env: &EnvConditions, dt: Seconds, load: Watts) -> StepReport {
        let start = Instant::now();
        let report = self.inner.step(env, dt, load);
        self.ns.set(self.ns.get() + since(start));
        self.calls += 1;
        report
    }

    fn energy_status(&self) -> EnergyStatus {
        let start = Instant::now();
        let status = self.inner.energy_status();
        self.ns.set(self.ns.get() + since(start));
        status
    }

    fn total_stored_energy(&self) -> Joules {
        self.inner.total_stored_energy()
    }

    fn storage_losses(&self) -> Joules {
        self.inner.storage_losses()
    }

    fn storage_capacity(&self) -> Joules {
        self.inner.storage_capacity()
    }

    fn fault_counts(&self) -> (u64, u64) {
        self.inner.fault_counts()
    }

    fn stranded_energy(&self) -> Joules {
        self.inner.stranded_energy()
    }

    fn supports_dense_kernels(&self) -> bool {
        self.inner.supports_dense_kernels()
    }
}

/// Forwarding [`Storage`] timing the three state-changing calls.
struct TracedStore {
    inner: Box<dyn Storage>,
    sink: Arc<Tally>,
    ns: u64,
    calls: u64,
}

impl TracedStore {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Storage) -> R) -> R {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        self.ns += since(start);
        self.calls += 1;
        out
    }
}

impl Drop for TracedStore {
    fn drop(&mut self) {
        self.sink.add(Slot::StoreNs, self.ns);
        self.sink.add(Slot::StoreCalls, self.calls);
    }
}

impl Storage for TracedStore {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> StorageKind {
        self.inner.kind()
    }
    fn voltage(&self) -> Volts {
        self.inner.voltage()
    }
    fn stored_energy(&self) -> Joules {
        self.inner.stored_energy()
    }
    fn capacity(&self) -> Joules {
        self.inner.capacity()
    }
    fn min_voltage(&self) -> Volts {
        self.inner.min_voltage()
    }
    fn max_voltage(&self) -> Volts {
        self.inner.max_voltage()
    }
    fn is_rechargeable(&self) -> bool {
        self.inner.is_rechargeable()
    }
    fn max_charge_power(&self) -> Watts {
        self.inner.max_charge_power()
    }
    fn max_discharge_power(&self) -> Watts {
        self.inner.max_discharge_power()
    }
    fn charge(&mut self, power: Watts, dt: Seconds) -> Joules {
        self.timed(|s| s.charge(power, dt))
    }
    fn discharge(&mut self, power: Watts, dt: Seconds) -> Joules {
        self.timed(|s| s.discharge(power, dt))
    }
    fn idle(&mut self, dt: Seconds) {
        self.timed(|s| s.idle(dt))
    }
    fn losses(&self) -> Joules {
        self.inner.losses()
    }
    fn soc(&self) -> Ratio {
        self.inner.soc()
    }
    fn is_depleted(&self) -> bool {
        self.inner.is_depleted()
    }
    fn fault_fire_count(&self) -> u64 {
        self.inner.fault_fire_count()
    }
    fn fault_clear_count(&self) -> u64 {
        self.inner.fault_clear_count()
    }
    fn stranded_energy(&self) -> Joules {
        self.inner.stranded_energy()
    }
}

/// Forwarding [`PowerStage`] timing the transfer calls and `advance`.
/// The trait takes `&self` for transfers and must be `Sync`, so the
/// totals are atomics; each instance is stepped by one thread at a time,
/// so they are never contended.
struct TracedStage {
    inner: Box<dyn PowerStage>,
    sink: Arc<Tally>,
    ns: AtomicU64,
    calls: AtomicU64,
}

impl TracedStage {
    fn record(&self, start: Instant) {
        self.ns.fetch_add(since(start), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for TracedStage {
    fn drop(&mut self) {
        self.sink.add(Slot::StageNs, *self.ns.get_mut());
        self.sink.add(Slot::StageCalls, *self.calls.get_mut());
    }
}

impl PowerStage for TracedStage {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn quiescent(&self) -> Watts {
        self.inner.quiescent()
    }
    fn accepts_input_voltage(&self, v_in: Volts) -> bool {
        self.inner.accepts_input_voltage(v_in)
    }
    fn output_voltage(&self) -> Volts {
        self.inner.output_voltage()
    }
    fn output_for_input(&self, p_in: Watts, v_in: Volts) -> Watts {
        let start = Instant::now();
        let out = self.inner.output_for_input(p_in, v_in);
        self.record(start);
        out
    }
    fn input_for_output(&self, p_out: Watts, v_in: Volts) -> Watts {
        let start = Instant::now();
        let out = self.inner.input_for_output(p_out, v_in);
        self.record(start);
        out
    }
    fn advance(&mut self, dt: Seconds) {
        let start = Instant::now();
        self.inner.advance(dt);
        self.record(start);
    }
    fn fault_fire_count(&self) -> u64 {
        self.inner.fault_fire_count()
    }
    fn fault_clear_count(&self) -> u64 {
        self.inner.fault_clear_count()
    }
    fn is_time_invariant(&self) -> bool {
        self.inner.is_time_invariant()
    }
}

/// Forwarding [`EnvSampler`] timing both sampling entry points.
pub struct TracedEnv<'a> {
    inner: &'a dyn EnvSampler,
    sink: Arc<Tally>,
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl<'a> TracedEnv<'a> {
    /// Wraps `inner`, reporting into `sink` on drop.
    pub fn new(inner: &'a dyn EnvSampler, sink: &Arc<Tally>) -> Self {
        Self {
            inner,
            sink: Arc::clone(sink),
            ns: Cell::new(0),
            calls: Cell::new(0),
        }
    }

    fn record(&self, start: Instant) {
        self.ns.set(self.ns.get() + since(start));
        self.calls.set(self.calls.get() + 1);
    }
}

impl Drop for TracedEnv<'_> {
    fn drop(&mut self) {
        self.sink.add(Slot::EnvNs, self.ns.get());
        self.sink.add(Slot::EnvCalls, self.calls.get());
    }
}

impl EnvSampler for TracedEnv<'_> {
    fn conditions(&self, t: Seconds) -> EnvConditions {
        let start = Instant::now();
        let out = self.inner.conditions(t);
        self.record(start);
        out
    }

    fn conditions_into(&self, times: &[Seconds], out: &mut Vec<EnvConditions>) {
        let start = Instant::now();
        self.inner.conditions_into(times, out);
        self.record(start);
    }
}

/// Forwarding [`DutyCyclePolicy`] timing `choose`.
pub struct TracedPolicy {
    inner: Box<dyn DutyCyclePolicy>,
    sink: Arc<Tally>,
    ns: u64,
    calls: u64,
}

impl TracedPolicy {
    /// Wraps `inner`, reporting into `sink` on drop.
    pub fn boxed(inner: Box<dyn DutyCyclePolicy>, sink: &Arc<Tally>) -> Box<dyn DutyCyclePolicy> {
        Box::new(Self {
            inner,
            sink: Arc::clone(sink),
            ns: 0,
            calls: 0,
        })
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        self.sink.add(Slot::PolicyNs, self.ns);
        self.sink.add(Slot::PolicyCalls, self.calls);
    }
}

impl DutyCyclePolicy for TracedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn required_monitoring(&self) -> MonitoringLevel {
        self.inner.required_monitoring()
    }

    fn choose(&mut self, node: &SensorNode, status: &EnergyStatus) -> DutyCycle {
        let start = Instant::now();
        let duty = self.inner.choose(node, status);
        self.ns += since(start);
        self.calls += 1;
        duty
    }

    fn failover_count(&self) -> u64 {
        self.inner.failover_count()
    }
}
