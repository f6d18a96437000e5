//! Failure injection: wrappers that make energy devices fail or degrade
//! on schedule, for resilience experiments.
//!
//! Deployed harvesting hardware fails: cells wear out and go open
//! circuit, panels soil and lose output, contacts corrode and come back
//! after a thermal cycle. The survey's multi-*source* redundancy
//! argument extends naturally to multi-*device* resilience, and these
//! wrappers let any platform be tested against it without touching the
//! device models.
//!
//! The timeline of a fault campaign is a [`FaultSchedule`]: a sorted
//! list of `(fire, clear)` windows built deterministically (one-shot,
//! periodic, or seeded-stochastic — the stochastic variant precomputes
//! its draws at construction so runs stay bit-identical). The schedule
//! drives [`IntermittentStorage`] (fails open, then recovers),
//! [`GlitchingHarvester`] (output dropouts) and — in `mseh_power`,
//! which cannot see this crate — the converter brownout wrapper, via
//! [`FaultSchedule::windows`].

use mseh_env::rng::{Noise, StreamId};
use mseh_env::EnvConditions;
use mseh_harvesters::{HarvesterKind, Transducer};
use mseh_storage::{Storage, StorageKind};
use mseh_units::{Amps, Joules, Seconds, Volts, Watts};
use std::sync::atomic::{AtomicU64, Ordering};

/// The noise stream used for stochastic fault timelines (disjoint from
/// the environment's streams, so fault draws never perturb weather).
const FAULT_STREAM: StreamId = StreamId(64);

/// A deterministic fault timeline: sorted, non-overlapping
/// `(fire, clear)` windows during which the wrapped device is down.
///
/// Time is whatever clock the consuming wrapper runs on —
/// [`IntermittentStorage`] accumulates *operating time* from its
/// `charge`/`discharge`/`idle` calls (so a schedule is relative to the
/// run that ages it), while [`GlitchingHarvester`] reads the *absolute
/// simulation timestamp* from the sampled conditions (transducers are
/// stateless). A permanent fault has an infinite clear time.
///
/// # Examples
///
/// ```
/// use mseh_sim::FaultSchedule;
/// use mseh_units::Seconds;
///
/// let s = FaultSchedule::periodic(
///     Seconds::from_hours(6.0),  // first fault
///     Seconds::from_hours(12.0), // repeat period
///     Seconds::from_hours(1.0),  // down-time per fault
///     Seconds::from_days(1.0),   // horizon
/// );
/// assert_eq!(s.windows().len(), 2);
/// assert!(s.is_down(Seconds::from_hours(6.5)));
/// assert!(!s.is_down(Seconds::from_hours(8.0)));
/// assert_eq!(s.fired_by(Seconds::from_days(1.0)), 2);
/// assert_eq!(s.cleared_by(Seconds::from_days(1.0)), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    windows: Vec<(Seconds, Seconds)>,
}

impl FaultSchedule {
    /// A schedule with no faults.
    pub fn none() -> Self {
        Self {
            windows: Vec::new(),
        }
    }

    /// One permanent fault at `at` (never clears).
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative.
    pub fn one_shot(at: Seconds) -> Self {
        Self::from_windows(vec![(at, Seconds::new(f64::INFINITY))])
    }

    /// One fault at `at` that clears after `down_for`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative or `down_for` is not positive.
    pub fn one_shot_recovering(at: Seconds, down_for: Seconds) -> Self {
        assert!(down_for.value() > 0.0, "down time must be positive");
        Self::from_windows(vec![(at, at + down_for)])
    }

    /// Intermittent faults at `first`, `first + period`, … within
    /// `horizon`, each lasting `down_for`.
    ///
    /// # Panics
    ///
    /// Panics if `first` is negative, `down_for` is not positive, or
    /// `period ≤ down_for` (windows would overlap).
    pub fn periodic(first: Seconds, period: Seconds, down_for: Seconds, horizon: Seconds) -> Self {
        assert!(down_for.value() > 0.0, "down time must be positive");
        assert!(period > down_for, "period must exceed down time");
        let mut windows = Vec::new();
        let mut k = 0u32;
        loop {
            let fire = first + Seconds::new(k as f64 * period.value());
            if fire >= horizon {
                break;
            }
            windows.push((fire, fire + down_for));
            k += 1;
        }
        Self::from_windows(windows)
    }

    /// A seeded-stochastic timeline over `horizon`: exponentially
    /// distributed up-times (mean `mean_up`) alternating with
    /// exponentially distributed down-times (mean `mean_down`).
    ///
    /// All draws happen here, at construction, from a counter-based
    /// generator — the schedule is a pure function of its arguments, so
    /// campaigns stay bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if either mean is not positive.
    pub fn stochastic(seed: u64, mean_up: Seconds, mean_down: Seconds, horizon: Seconds) -> Self {
        assert!(mean_up.value() > 0.0, "mean up-time must be positive");
        assert!(mean_down.value() > 0.0, "mean down-time must be positive");
        let noise = Noise::new(seed);
        let mut exp = {
            let mut counter = 0u64;
            move |mean: f64| {
                let u = noise.uniform(FAULT_STREAM, counter);
                counter += 1;
                -mean * (1.0 - u).ln()
            }
        };
        let mut windows = Vec::new();
        let mut t = exp(mean_up.value());
        while t < horizon.value() {
            let down = exp(mean_down.value()).max(1e-3);
            windows.push((Seconds::new(t), Seconds::new(t + down)));
            t += down + exp(mean_up.value()).max(1e-3);
        }
        Self::from_windows(windows)
    }

    /// Builds a schedule from explicit windows.
    ///
    /// # Panics
    ///
    /// Panics if any window is malformed (negative fire time,
    /// `clear ≤ fire`) or the windows are unsorted / overlapping.
    pub fn from_windows(windows: Vec<(Seconds, Seconds)>) -> Self {
        let mut prev_clear = Seconds::new(f64::NEG_INFINITY);
        for &(fire, clear) in &windows {
            assert!(fire.value() >= 0.0, "fault time must be non-negative");
            assert!(clear > fire, "clear time must follow fire time");
            assert!(
                fire >= prev_clear,
                "fault windows must be sorted and non-overlapping"
            );
            prev_clear = clear;
        }
        Self { windows }
    }

    /// Whether the device is down at `t` (the fire instant is down; the
    /// clear instant is back up, matching the wrappers' age-then-check
    /// convention).
    pub fn is_down(&self, t: Seconds) -> bool {
        self.windows
            .iter()
            .any(|&(fire, clear)| t >= fire && t < clear)
    }

    /// Faults fired at or before `t`.
    pub fn fired_by(&self, t: Seconds) -> u64 {
        self.windows
            .iter()
            .take_while(|&&(fire, _)| fire <= t)
            .count() as u64
    }

    /// Faults cleared at or before `t`.
    pub fn cleared_by(&self, t: Seconds) -> u64 {
        self.windows
            .iter()
            .filter(|&&(_, clear)| clear <= t)
            .count() as u64
    }

    /// The first fault's fire time, if the schedule has any.
    pub fn first_fault(&self) -> Option<Seconds> {
        self.windows.first().map(|&(fire, _)| fire)
    }

    /// The raw `(fire, clear)` windows, sorted by fire time.
    pub fn windows(&self) -> &[(Seconds, Seconds)] {
        &self.windows
    }

    /// Whether the schedule contains no faults.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

/// A storage device that fails open at a scheduled point in its service
/// life: after `fails_after` of accumulated operating time it stops
/// accepting and delivering energy (its content is stranded).
///
/// Time accrues through [`charge`](Storage::charge),
/// [`discharge`](Storage::discharge) and [`idle`](Storage::idle) calls,
/// so wall-clock in the simulation is what ages it.
///
/// # Examples
///
/// ```
/// use mseh_sim::FailingStorage;
/// use mseh_storage::{Supercap, Storage};
/// use mseh_units::{Seconds, Volts, Watts};
///
/// let mut cap = Supercap::edlc_22f();
/// cap.set_voltage(Volts::new(2.5));
/// let mut device = FailingStorage::new(Box::new(cap), Seconds::from_hours(1.0));
/// assert!(!device.has_failed());
/// device.idle(Seconds::from_hours(2.0));
/// assert!(device.has_failed());
/// assert_eq!(device.discharge(Watts::new(1.0), Seconds::new(10.0)).value(), 0.0);
/// ```
pub struct FailingStorage {
    inner: Box<dyn Storage>,
    name: String,
    fails_after: Seconds,
    age: Seconds,
}

impl FailingStorage {
    /// Wraps `inner` with a scheduled open-circuit failure.
    ///
    /// # Panics
    ///
    /// Panics if `fails_after` is not positive.
    pub fn new(inner: Box<dyn Storage>, fails_after: Seconds) -> Self {
        assert!(fails_after.value() > 0.0, "failure time must be positive");
        let name = format!("{} (fails at {fails_after})", inner.name());
        Self {
            inner,
            name,
            fails_after,
            age: Seconds::ZERO,
        }
    }

    /// Whether the device has failed.
    pub fn has_failed(&self) -> bool {
        self.age >= self.fails_after
    }

    fn advance(&mut self, dt: Seconds) {
        self.age += dt;
    }
}

impl Storage for FailingStorage {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> StorageKind {
        self.inner.kind()
    }

    fn voltage(&self) -> Volts {
        if self.has_failed() {
            Volts::ZERO
        } else {
            self.inner.voltage()
        }
    }

    fn stored_energy(&self) -> Joules {
        // Stranded energy still physically exists; report zero *usable*
        // energy so SoC-driven policies see the loss.
        if self.has_failed() {
            Joules::ZERO
        } else {
            self.inner.stored_energy()
        }
    }

    fn capacity(&self) -> Joules {
        if self.has_failed() {
            Joules::ZERO
        } else {
            self.inner.capacity()
        }
    }

    fn min_voltage(&self) -> Volts {
        self.inner.min_voltage()
    }

    fn max_voltage(&self) -> Volts {
        self.inner.max_voltage()
    }

    fn max_charge_power(&self) -> Watts {
        if self.has_failed() {
            Watts::ZERO
        } else {
            self.inner.max_charge_power()
        }
    }

    fn max_discharge_power(&self) -> Watts {
        if self.has_failed() {
            Watts::ZERO
        } else {
            self.inner.max_discharge_power()
        }
    }

    fn charge(&mut self, power: Watts, dt: Seconds) -> Joules {
        self.advance(dt);
        if self.has_failed() {
            Joules::ZERO
        } else {
            self.inner.charge(power, dt)
        }
    }

    fn discharge(&mut self, power: Watts, dt: Seconds) -> Joules {
        self.advance(dt);
        if self.has_failed() {
            Joules::ZERO
        } else {
            self.inner.discharge(power, dt)
        }
    }

    fn idle(&mut self, dt: Seconds) {
        self.advance(dt);
        if !self.has_failed() {
            self.inner.idle(dt);
        }
    }

    fn losses(&self) -> Joules {
        // On failure the stranded content becomes a permanent loss; fold
        // it into the ledger so the conservation audit still closes.
        if self.has_failed() {
            self.inner.losses() + self.inner.stored_energy()
        } else {
            self.inner.losses()
        }
    }

    fn fault_fire_count(&self) -> u64 {
        u64::from(self.has_failed())
    }

    fn stranded_energy(&self) -> Joules {
        if self.has_failed() {
            self.inner.stored_energy()
        } else {
            Joules::ZERO
        }
    }
}

/// A storage device that fails open on a [`FaultSchedule`] and recovers
/// when each window clears: a corroded contact, a cell with an
/// intermittent internal open, a connector that thermal cycling
/// reseats.
///
/// The schedule runs on *operating time* accumulated through
/// [`charge`](Storage::charge), [`discharge`](Storage::discharge) and
/// [`idle`](Storage::idle), so a schedule built for a run measures time
/// from that run's start regardless of `SimConfig::start_at`.
///
/// While down the device reports zero voltage, stored energy and
/// capacity, and refuses all transfer; the stranded content is folded
/// into [`losses`](Storage::losses) so the conservation audit keeps
/// closing (when the fault clears the fold reverses — a legal negative
/// loss delta — and the surviving content is usable again). Leakage
/// continues throughout: the cell doesn't stop self-discharging just
/// because its terminal went open.
///
/// # Examples
///
/// ```
/// use mseh_sim::{FaultSchedule, IntermittentStorage};
/// use mseh_storage::{Storage, Supercap};
/// use mseh_units::{Seconds, Volts, Watts};
///
/// let mut cap = Supercap::edlc_22f();
/// cap.set_voltage(Volts::new(2.5));
/// let schedule = FaultSchedule::one_shot_recovering(
///     Seconds::new(100.0),
///     Seconds::new(50.0),
/// );
/// let mut dev = IntermittentStorage::new(Box::new(cap), schedule);
/// dev.idle(Seconds::new(100.0));
/// assert!(dev.is_down());
/// assert_eq!(dev.discharge(Watts::new(1.0), Seconds::new(10.0)).value(), 0.0);
/// dev.idle(Seconds::new(40.0));
/// assert!(!dev.is_down());
/// assert!(dev.stored_energy().value() > 0.0);
/// assert_eq!(dev.fault_fire_count(), 1);
/// assert_eq!(dev.fault_clear_count(), 1);
/// ```
pub struct IntermittentStorage {
    inner: Box<dyn Storage>,
    name: String,
    schedule: FaultSchedule,
    age: Seconds,
}

impl IntermittentStorage {
    /// Wraps `inner` with a scheduled fail-open / recover timeline.
    pub fn new(inner: Box<dyn Storage>, schedule: FaultSchedule) -> Self {
        let name = format!("{} (intermittent)", inner.name());
        Self {
            inner,
            name,
            schedule,
            age: Seconds::ZERO,
        }
    }

    /// Whether the device is currently inside a fault window.
    pub fn is_down(&self) -> bool {
        self.schedule.is_down(self.age)
    }

    /// Operating time accumulated so far.
    pub fn age(&self) -> Seconds {
        self.age
    }

    /// The injected fault timeline.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    fn advance(&mut self, dt: Seconds) {
        self.age += dt;
    }
}

impl Storage for IntermittentStorage {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> StorageKind {
        self.inner.kind()
    }

    fn voltage(&self) -> Volts {
        if self.is_down() {
            Volts::ZERO
        } else {
            self.inner.voltage()
        }
    }

    fn stored_energy(&self) -> Joules {
        if self.is_down() {
            Joules::ZERO
        } else {
            self.inner.stored_energy()
        }
    }

    fn capacity(&self) -> Joules {
        if self.is_down() {
            Joules::ZERO
        } else {
            self.inner.capacity()
        }
    }

    fn min_voltage(&self) -> Volts {
        self.inner.min_voltage()
    }

    fn max_voltage(&self) -> Volts {
        self.inner.max_voltage()
    }

    fn max_charge_power(&self) -> Watts {
        if self.is_down() {
            Watts::ZERO
        } else {
            self.inner.max_charge_power()
        }
    }

    fn max_discharge_power(&self) -> Watts {
        if self.is_down() {
            Watts::ZERO
        } else {
            self.inner.max_discharge_power()
        }
    }

    fn charge(&mut self, power: Watts, dt: Seconds) -> Joules {
        self.advance(dt);
        if self.is_down() {
            self.inner.idle(dt);
            Joules::ZERO
        } else {
            self.inner.charge(power, dt)
        }
    }

    fn discharge(&mut self, power: Watts, dt: Seconds) -> Joules {
        self.advance(dt);
        if self.is_down() {
            self.inner.idle(dt);
            Joules::ZERO
        } else {
            self.inner.discharge(power, dt)
        }
    }

    fn idle(&mut self, dt: Seconds) {
        self.advance(dt);
        self.inner.idle(dt);
    }

    fn losses(&self) -> Joules {
        // While down the stranded content is carried in the loss ledger
        // (Δstored and Δlosses cancel at both edges of the window), so
        // the per-window conservation identity closes through the fault
        // and through the recovery.
        if self.is_down() {
            self.inner.losses() + self.inner.stored_energy()
        } else {
            self.inner.losses()
        }
    }

    fn fault_fire_count(&self) -> u64 {
        self.schedule.fired_by(self.age)
    }

    fn fault_clear_count(&self) -> u64 {
        self.schedule.cleared_by(self.age)
    }

    fn stranded_energy(&self) -> Joules {
        if self.is_down() {
            self.inner.stored_energy()
        } else {
            Joules::ZERO
        }
    }
}

/// A harvester whose output drops to zero during scheduled windows — a
/// shaded panel, an unplugged turbine, a vibration source whose machine
/// was switched off.
///
/// Transducers are stateless, so the schedule runs on the *absolute
/// simulation timestamp* carried in the sampled conditions (unlike
/// [`IntermittentStorage`], whose clock is run-relative operating
/// time). During a dropout both the I–V curve and the open-circuit
/// voltage collapse to zero, so MPPT controllers see a dead source and
/// the input channel goes to sleep.
pub struct GlitchingHarvester {
    inner: Box<dyn Transducer>,
    name: String,
    schedule: FaultSchedule,
    /// High-water mark of the timestamps seen, as `f64` bits — the
    /// fired/cleared counts must be readable through `&self`, and for
    /// non-negative floats the IEEE-754 bit pattern orders like the
    /// value, so `fetch_max` on bits tracks the latest time observed.
    seen_bits: AtomicU64,
}

impl GlitchingHarvester {
    /// Wraps `inner` with scheduled output dropouts.
    pub fn new(inner: Box<dyn Transducer>, schedule: FaultSchedule) -> Self {
        let name = format!("{} (glitching)", inner.name());
        Self {
            inner,
            name,
            schedule,
            seen_bits: AtomicU64::new(0),
        }
    }

    /// The injected dropout timeline.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    fn observe(&self, t: Seconds) -> bool {
        let v = t.value();
        if v > 0.0 {
            self.seen_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
        }
        self.schedule.is_down(t)
    }

    fn seen(&self) -> Seconds {
        Seconds::new(f64::from_bits(self.seen_bits.load(Ordering::Relaxed)))
    }
}

impl Transducer for GlitchingHarvester {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> HarvesterKind {
        self.inner.kind()
    }

    fn current_at(&self, v: Volts, env: &EnvConditions) -> Amps {
        if self.observe(env.time) {
            Amps::ZERO
        } else {
            self.inner.current_at(v, env)
        }
    }

    fn open_circuit_voltage(&self, env: &EnvConditions) -> Volts {
        if self.observe(env.time) {
            Volts::ZERO
        } else {
            self.inner.open_circuit_voltage(env)
        }
    }

    fn fault_fire_count(&self) -> u64 {
        self.schedule.fired_by(self.seen())
    }

    fn fault_clear_count(&self) -> u64 {
        self.schedule.cleared_by(self.seen())
    }

    fn is_time_invariant(&self) -> bool {
        // Output depends on the absolute timestamp through the dropout
        // schedule; channel results must never replay across this wrapper.
        false
    }
}

/// A harvester whose output derates linearly over its service life —
/// panel soiling, bearing wear, electrode fatigue.
///
/// Derating is driven by the *simulation timestamp* in the sampled
/// conditions (transducers are stateless), falling from 100 % at `t = 0`
/// to `floor` at `lifetime` and holding there.
pub struct DegradingHarvester {
    inner: Box<dyn Transducer>,
    name: String,
    lifetime: Seconds,
    floor: f64,
}

impl DegradingHarvester {
    /// Wraps `inner` with linear derating to `floor` (a fraction of
    /// nominal output) over `lifetime`.
    ///
    /// # Panics
    ///
    /// Panics if `lifetime` is not positive or `floor` is outside
    /// `[0, 1]`.
    pub fn new(inner: Box<dyn Transducer>, lifetime: Seconds, floor: f64) -> Self {
        assert!(lifetime.value() > 0.0, "lifetime must be positive");
        assert!((0.0..=1.0).contains(&floor), "floor must be in [0, 1]");
        let name = format!("{} (degrading)", inner.name());
        Self {
            inner,
            name,
            lifetime,
            floor,
        }
    }

    /// The output factor at time `t`.
    pub fn derating(&self, t: Seconds) -> f64 {
        let progress = (t.value() / self.lifetime.value()).clamp(0.0, 1.0);
        1.0 - (1.0 - self.floor) * progress
    }
}

impl Transducer for DegradingHarvester {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> HarvesterKind {
        self.inner.kind()
    }

    fn current_at(&self, v: Volts, env: &EnvConditions) -> Amps {
        self.inner.current_at(v, env) * self.derating(env.time)
    }

    fn open_circuit_voltage(&self, env: &EnvConditions) -> Volts {
        self.inner.open_circuit_voltage(env)
    }

    fn is_time_invariant(&self) -> bool {
        // Derating is a function of the absolute timestamp.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_harvesters::PvModule;
    use mseh_storage::Supercap;
    use mseh_units::WattsPerSqM;

    fn charged_cap() -> Box<dyn Storage> {
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(2.5));
        Box::new(cap)
    }

    #[test]
    fn storage_works_until_the_scheduled_failure() {
        let mut dev = FailingStorage::new(charged_cap(), Seconds::from_hours(1.0));
        let got = dev.discharge(Watts::from_milli(100.0), Seconds::new(60.0));
        assert!(got.value() > 0.0);
        assert!(!dev.has_failed());
        dev.idle(Seconds::from_hours(1.0));
        assert!(dev.has_failed());
        assert_eq!(
            dev.charge(Watts::new(1.0), Seconds::new(60.0)),
            Joules::ZERO
        );
        assert_eq!(dev.voltage(), Volts::ZERO);
        assert_eq!(dev.capacity(), Joules::ZERO);
        assert!(dev.is_depleted());
    }

    #[test]
    fn stranded_energy_lands_in_losses() {
        let mut dev = FailingStorage::new(charged_cap(), Seconds::new(10.0));
        let stored_before = dev.stored_energy();
        assert!(stored_before.value() > 0.0);
        let losses_before = dev.losses();
        dev.idle(Seconds::new(20.0));
        // The content is stranded: reported stored goes to zero and the
        // ledger absorbs it, keeping conservation closed.
        assert_eq!(dev.stored_energy(), Joules::ZERO);
        assert!(dev.losses() >= losses_before + stored_before * 0.9);
    }

    #[test]
    fn degrading_harvester_fades_to_floor() {
        let pv = DegradingHarvester::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            Seconds::from_days(100.0),
            0.4,
        );
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.irradiance = WattsPerSqM::new(800.0);
        let fresh = pv.mpp(&env).power();
        env.time = Seconds::from_days(50.0);
        let mid = pv.mpp(&env).power();
        env.time = Seconds::from_days(500.0);
        let old = pv.mpp(&env).power();
        assert!(mid < fresh);
        assert!(old < mid);
        // Holds at the floor: ~40 % of fresh.
        assert!((old.value() / fresh.value() - 0.4).abs() < 0.05);
        assert_eq!(pv.derating(Seconds::ZERO), 1.0);
    }

    #[test]
    fn age_accrues_across_mixed_operations() {
        // Service life is wall-clock through *any* operation: charge,
        // discharge and idle all age the device by their dt.
        let mut dev = FailingStorage::new(charged_cap(), Seconds::new(100.0));
        assert!(
            dev.charge(Watts::from_milli(10.0), Seconds::new(30.0))
                .value()
                > 0.0
        );
        assert!(
            dev.discharge(Watts::from_milli(10.0), Seconds::new(30.0))
                .value()
                > 0.0
        );
        dev.idle(Seconds::new(30.0));
        // 30 + 30 + 30 = 90 s of the 100 s life: still healthy and
        // still serving energy.
        assert!(!dev.has_failed());
        assert!(dev.voltage().value() > 0.0);
        assert!(dev.capacity().value() > 0.0);

        // The next 10 s discharge crosses the line mid-operation.
        let last = dev.discharge(Watts::from_milli(10.0), Seconds::new(10.0));
        assert!(dev.has_failed());
        assert_eq!(last, Joules::ZERO);
        assert_eq!(dev.voltage(), Volts::ZERO);
    }

    #[test]
    fn operation_landing_exactly_on_the_boundary_is_dead() {
        // Aging happens before the failure check, so the operation whose
        // dt lands age exactly on `fails_after` already sees a failed
        // device: the step *containing* the failure delivers nothing,
        // rather than one full step of post-mortem service.
        let mut dev = FailingStorage::new(charged_cap(), Seconds::new(60.0));
        assert_eq!(
            dev.charge(Watts::from_milli(10.0), Seconds::new(60.0)),
            Joules::ZERO
        );
        assert!(dev.has_failed());

        // Same boundary via discharge.
        let mut dev = FailingStorage::new(charged_cap(), Seconds::new(60.0));
        assert_eq!(
            dev.discharge(Watts::from_milli(10.0), Seconds::new(60.0)),
            Joules::ZERO
        );
        assert!(dev.has_failed());

        // One femtosecond short of the boundary still works.
        let mut dev = FailingStorage::new(charged_cap(), Seconds::new(60.0));
        let got = dev.discharge(Watts::from_milli(10.0), Seconds::new(60.0 - 1e-9));
        assert!(!dev.has_failed());
        assert!(got.value() > 0.0);
    }

    #[test]
    #[should_panic(expected = "failure time")]
    fn rejects_zero_failure_time() {
        FailingStorage::new(charged_cap(), Seconds::ZERO);
    }

    #[test]
    fn schedule_constructors_agree_on_edges() {
        let s = FaultSchedule::periodic(
            Seconds::new(10.0),
            Seconds::new(100.0),
            Seconds::new(5.0),
            Seconds::new(250.0),
        );
        assert_eq!(s.windows().len(), 3);
        // Fire instant is down, clear instant is back up.
        assert!(s.is_down(Seconds::new(10.0)));
        assert!(!s.is_down(Seconds::new(15.0)));
        assert_eq!(s.fired_by(Seconds::new(110.0)), 2);
        assert_eq!(s.cleared_by(Seconds::new(110.0)), 1);
        assert_eq!(s.first_fault(), Some(Seconds::new(10.0)));

        let permanent = FaultSchedule::one_shot(Seconds::new(7.0));
        assert!(permanent.is_down(Seconds::new(1e12)));
        assert_eq!(permanent.cleared_by(Seconds::new(1e12)), 0);

        assert!(FaultSchedule::none().is_empty());
        assert_eq!(FaultSchedule::none().first_fault(), None);
    }

    #[test]
    fn stochastic_schedule_is_a_pure_function_of_its_seed() {
        let horizon = Seconds::from_days(7.0);
        let up = Seconds::from_hours(4.0);
        let down = Seconds::from_minutes(30.0);
        let a = FaultSchedule::stochastic(42, up, down, horizon);
        let b = FaultSchedule::stochastic(42, up, down, horizon);
        assert_eq!(a, b);
        assert_ne!(a, FaultSchedule::stochastic(43, up, down, horizon));
        assert!(!a.is_empty(), "a week at 4 h mean up-time draws faults");
        // Every drawn window is well-formed and inside the horizon.
        for &(fire, clear) in a.windows() {
            assert!(fire.value() >= 0.0 && clear > fire);
            assert!(fire < horizon);
        }
    }

    #[test]
    #[should_panic(expected = "sorted and non-overlapping")]
    fn rejects_overlapping_windows() {
        FaultSchedule::from_windows(vec![
            (Seconds::new(0.0), Seconds::new(10.0)),
            (Seconds::new(5.0), Seconds::new(20.0)),
        ]);
    }

    #[test]
    fn intermittent_storage_conserves_through_fire_and_clear() {
        let schedule = FaultSchedule::one_shot_recovering(Seconds::new(60.0), Seconds::new(30.0));
        let mut dev = IntermittentStorage::new(charged_cap(), schedule);
        let book = |d: &IntermittentStorage| d.stored_energy() + d.losses();
        let before = book(&dev);

        // Healthy half-minute of discharge: books grow only by what left.
        let got = dev.discharge(Watts::from_milli(50.0), Seconds::new(30.0));
        assert!(got.value() > 0.0);
        let healthy = book(&dev);
        assert!((before.value() - got.value() - healthy.value()).abs() < 1e-9);

        // Into the fault window: refuses service, strands the content in
        // the loss ledger, books unchanged apart from ongoing leakage.
        assert_eq!(
            dev.charge(Watts::new(1.0), Seconds::new(40.0)),
            Joules::ZERO
        );
        assert!(dev.is_down());
        assert_eq!(dev.stored_energy(), Joules::ZERO);
        assert_eq!(dev.voltage(), Volts::ZERO);
        assert_eq!(dev.capacity(), Joules::ZERO);
        assert!(dev.stranded_energy().value() > 0.0);
        assert!((book(&dev).value() - healthy.value()).abs() < 1e-6);

        // Past the clear: content comes back, stranded returns to zero,
        // and the ledger delta reverses (legal negative Δlosses).
        dev.idle(Seconds::new(30.0));
        assert!(!dev.is_down());
        assert!(dev.stored_energy().value() > 0.0);
        assert_eq!(dev.stranded_energy(), Joules::ZERO);
        assert!((book(&dev).value() - healthy.value()).abs() < 1e-6);
        assert_eq!(dev.fault_fire_count(), 1);
        assert_eq!(dev.fault_clear_count(), 1);
    }

    #[test]
    fn glitching_harvester_drops_out_and_counts() {
        let schedule = FaultSchedule::one_shot_recovering(Seconds::new(100.0), Seconds::new(50.0));
        let pv = GlitchingHarvester::new(Box::new(PvModule::outdoor_panel_half_watt()), schedule);
        let mut env = EnvConditions::quiescent(Seconds::new(10.0));
        env.irradiance = WattsPerSqM::new(800.0);
        assert!(pv.mpp(&env).power().value() > 0.0);
        assert_eq!(pv.fault_fire_count(), 0);

        env.time = Seconds::new(120.0);
        assert_eq!(pv.mpp(&env).power(), Watts::ZERO);
        assert_eq!(pv.open_circuit_voltage(&env), Volts::ZERO);
        assert_eq!(pv.fault_fire_count(), 1);
        assert_eq!(pv.fault_clear_count(), 0);

        env.time = Seconds::new(160.0);
        assert!(pv.mpp(&env).power().value() > 0.0);
        assert_eq!(pv.fault_clear_count(), 1);
        assert!(pv.name().contains("glitching"));
    }
}
