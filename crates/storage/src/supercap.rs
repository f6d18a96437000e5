//! Supercapacitor model with voltage-dependent capacitance, ESR and
//! voltage-dependent leakage — the model structure of Weddell et al.,
//! "Accurate supercapacitor modeling for energy-harvesting wireless sensor
//! nodes" (ref \[9\] of the survey). The same structure with a narrowed
//! voltage window models the lithium-ion capacitor of ref \[10\].

use crate::kind::StorageKind;
use crate::storage::Storage;
use mseh_units::{BatchSolve, Farads, Joules, Ohms, Seconds, Volts, Watts};

/// An electric double-layer capacitor (or lithium-ion capacitor).
///
/// * capacitance rises with voltage: `C(V) = C₀ + k·V` (ref \[9\] shows the
///   constant-C model misestimates usable energy by >10 %);
/// * equivalent series resistance dissipates `I²·R` during transfer;
/// * leakage current scales with voltage (`V / R_leak`).
///
/// # Examples
///
/// ```
/// use mseh_storage::{Supercap, Storage};
/// use mseh_units::{Watts, Seconds};
///
/// let mut cap = Supercap::edlc_22f();
/// let taken = cap.charge(Watts::from_milli(50.0), Seconds::from_minutes(10.0));
/// assert!(taken.value() > 0.0);
/// assert!(cap.voltage().value() > cap.min_voltage().value());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Supercap {
    name: String,
    kind: StorageKind,
    /// Base capacitance C₀.
    c0: Farads,
    /// Voltage-dependence slope, F/V.
    k_v: f64,
    /// Equivalent series resistance.
    esr: Ohms,
    /// Leakage resistance (leakage current = V / R_leak).
    r_leak: Ohms,
    /// Discharge cutoff voltage.
    v_min: Volts,
    /// Rated (maximum) voltage.
    v_max: Volts,
    /// Present terminal voltage.
    v: Volts,
    /// Accumulated internal dissipation.
    losses: Joules,
}

impl Supercap {
    /// Creates a supercapacitor.
    ///
    /// # Panics
    ///
    /// Panics if the voltage window is inverted, the capacitance is
    /// non-positive, or a resistance is non-positive.
    pub fn new(
        name: impl Into<String>,
        c0: Farads,
        k_v: f64,
        esr: Ohms,
        r_leak: Ohms,
        v_min: Volts,
        v_max: Volts,
    ) -> Self {
        assert!(c0.value() > 0.0, "capacitance must be positive");
        assert!(k_v >= 0.0, "capacitance slope must be non-negative");
        assert!(
            esr.value() > 0.0 && r_leak.value() > 0.0,
            "resistances must be positive"
        );
        assert!(
            v_max.value() > v_min.value() && v_min.value() >= 0.0,
            "voltage window must satisfy 0 <= v_min < v_max"
        );
        Self {
            name: name.into(),
            kind: StorageKind::Supercapacitor,
            c0,
            k_v,
            esr,
            r_leak,
            v_min,
            v_max,
            v: v_min,
            losses: Joules::ZERO,
        }
    }

    /// A 22 F / 2.7 V EDLC with 60 mΩ ESR — the buffer class AmbiMax and
    /// the Plug-and-Play architecture use.
    pub fn edlc_22f() -> Self {
        Self::new(
            "22 F / 2.7 V EDLC",
            Farads::new(22.0),
            1.5,
            Ohms::from_milli(60.0),
            Ohms::from_kilo(15.0),
            Volts::new(0.8),
            Volts::new(2.7),
        )
    }

    /// A small 1 F / 5.5 V dual-cell EDLC (output-buffer scale).
    pub fn edlc_1f() -> Self {
        Self::new(
            "1 F / 5.5 V EDLC",
            Farads::new(1.0),
            0.05,
            Ohms::from_milli(200.0),
            Ohms::from_kilo(50.0),
            Volts::new(1.0),
            Volts::new(5.5),
        )
    }

    /// A 40 F lithium-ion capacitor, 2.2–3.8 V window (ref \[10\]): hybrid
    /// energy density with capacitor-like cycling.
    pub fn lithium_ion_capacitor_40f() -> Self {
        let mut cap = Self::new(
            "40 F lithium-ion capacitor",
            Farads::new(40.0),
            0.8,
            Ohms::from_milli(50.0),
            Ohms::from_kilo(100.0),
            Volts::new(2.2),
            Volts::new(3.8),
        );
        cap.kind = StorageKind::LithiumIonCapacitor;
        cap
    }

    /// Capacitance at voltage `v`.
    pub fn capacitance_at(&self, v: Volts) -> Farads {
        Farads::new(self.c0.value() + self.k_v * v.value())
    }

    /// The energy↔voltage inversion kernel for this capacitor's
    /// parameters, detached from the mutable cell state so it can run
    /// standalone or across struct-of-arrays lanes (see [`BatchSolve`]).
    #[inline]
    pub fn solver(&self) -> SupercapSolver {
        SupercapSolver {
            a: self.v_min.value(),
            c0: self.c0.value(),
            k: self.k_v,
            v_max: self.v_max.value(),
        }
    }

    /// Usable energy between `v_min` and `v`:
    /// `∫ C(u)·u du = C₀(v²−v_min²)/2 + k(v³−v_min³)/3`.
    #[inline]
    fn energy_between(&self, lo: Volts, hi: Volts) -> Joules {
        Joules::new(self.solver().energy_between(lo.value(), hi.value()))
    }

    /// Inverts the energy integral: the voltage at which the usable energy
    /// above `v_min` equals `e`. Delegates to [`SupercapSolver::solve_one`]
    /// so the scalar path and the batched lanes share one kernel.
    #[inline]
    fn voltage_for_energy(&self, e: Joules) -> Volts {
        Volts::new(self.solver().solve_one(e.value()))
    }

    /// Fraction of transferred power lost in the ESR at the present
    /// voltage, for a transfer at power `p`.
    #[inline]
    fn esr_loss_ratio(&self, p: Watts) -> f64 {
        let v_eff = self.v.value().max(0.2);
        let i = p.value() / v_eff;
        (i * self.esr.value() / v_eff).min(0.5)
    }

    /// Sets the state of charge directly (clamped to the voltage window) —
    /// for initializing scenarios.
    pub fn set_voltage(&mut self, v: Volts) {
        self.v = v.clamp(self.v_min, self.v_max);
    }
}

impl Storage for Supercap {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> StorageKind {
        self.kind
    }

    #[inline]
    fn voltage(&self) -> Volts {
        self.v
    }

    #[inline]
    fn stored_energy(&self) -> Joules {
        self.energy_between(self.v_min, self.v)
    }

    #[inline]
    fn capacity(&self) -> Joules {
        self.energy_between(self.v_min, self.v_max)
    }

    fn min_voltage(&self) -> Volts {
        self.v_min
    }

    fn max_voltage(&self) -> Volts {
        self.v_max
    }

    fn max_charge_power(&self) -> Watts {
        if self.v >= self.v_max {
            return Watts::ZERO;
        }
        // Current limit set by ESR heating: allow up to 2 A-equivalent
        // scaled by capacitance (small caps accept less).
        let i_max = (self.c0.value() / 10.0).clamp(0.05, 2.0);
        Volts::new(self.v.value().max(0.2)) * mseh_units::Amps::new(i_max)
    }

    fn max_discharge_power(&self) -> Watts {
        if self.stored_energy().value() <= 0.0 {
            return Watts::ZERO;
        }
        let i_max = (self.c0.value() / 10.0).clamp(0.05, 2.0);
        self.v * mseh_units::Amps::new(i_max)
    }

    #[inline]
    fn charge(&mut self, power: Watts, dt: Seconds) -> Joules {
        let p = power.min(self.max_charge_power()).max(Watts::ZERO);
        if p.value() == 0.0 || dt.value() <= 0.0 {
            return Joules::ZERO;
        }
        let ratio = self.esr_loss_ratio(p);
        let gross = p * dt;
        let mut net = gross * (1.0 - ratio);
        let headroom = self.energy_between(self.v, self.v_max);
        let mut taken = gross;
        if net > headroom {
            net = headroom;
            taken = net / (1.0 - ratio);
        }
        let stored = self.stored_energy() + net;
        self.v = self.voltage_for_energy(stored);
        self.losses += taken - net;
        taken
    }

    #[inline]
    fn discharge(&mut self, power: Watts, dt: Seconds) -> Joules {
        let p = power.min(self.max_discharge_power()).max(Watts::ZERO);
        if p.value() == 0.0 || dt.value() <= 0.0 {
            return Joules::ZERO;
        }
        let ratio = self.esr_loss_ratio(p);
        let mut internal = (p * dt) / (1.0 - ratio);
        let available = self.stored_energy();
        if internal > available {
            internal = available;
        }
        let delivered = internal * (1.0 - ratio);
        self.v = self.voltage_for_energy(available - internal);
        self.losses += internal - delivered;
        delivered
    }

    #[inline]
    fn idle(&mut self, dt: Seconds) {
        if dt.value() <= 0.0 {
            return;
        }
        // Leakage power V²/R_leak, integrated quasi-statically.
        let leak = self.v.power_into(self.r_leak) * dt;
        let remaining = (self.stored_energy() - leak).max(Joules::ZERO);
        let actually_leaked = self.stored_energy() - remaining;
        self.v = self.voltage_for_energy(remaining);
        self.losses += actually_leaked;
    }

    #[inline]
    fn losses(&self) -> Joules {
        self.losses
    }
}

/// Newton iteration budget shared by the scalar and batched solvers.
const NEWTON_ITERS: usize = 64;
/// Bisection iteration budget for the non-convergence fallback.
const BISECT_ITERS: usize = 64;
/// Lanes per batch block — sized so the convergence mask fits one `u64`.
const LANE_BLOCK: usize = 64;

/// The energy→voltage inversion for one supercapacitor parameter set:
/// given a usable energy above `v_min`, find the terminal voltage.
///
/// The integral is convex and increasing (`k_v ≥ 0`), so Newton from the
/// flat-capacitance estimate `√(v_min² + 2e/C₀)` converges monotonically
/// after at most one overshoot for realistic parameters. Degenerate
/// parameter sets (a vanishing `C₀` under a dominant `k_v` slope puts the
/// starting estimate orders of magnitude above the root) can exhaust the
/// iteration budget or trip the derivative guard; those lanes fall back
/// to bracketed bisection over the full voltage window instead of
/// silently clamping a non-converged iterate. The result is clamped to
/// the voltage window, matching the old bisection's behaviour for
/// energies beyond the capacity.
///
/// The batched path ([`BatchSolve::solve_lanes`]) replicates this exact
/// per-lane iterate sequence under a convergence mask, so batched and
/// scalar results are bit-identical by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupercapSolver {
    /// Discharge cutoff voltage (the energy zero).
    a: f64,
    /// Base capacitance C₀, farads.
    c0: f64,
    /// Capacitance slope, F/V.
    k: f64,
    /// Rated voltage (clamp ceiling).
    v_max: f64,
}

impl SupercapSolver {
    /// Usable energy between voltages `lo` and `hi` (joules).
    #[inline]
    pub fn energy_between(&self, lo: f64, hi: f64) -> f64 {
        self.c0 * (hi * hi - lo * lo) / 2.0 + self.k * (hi * hi * hi - lo * lo * lo) / 3.0
    }

    /// Usable energy above the cutoff at voltage `v` (joules).
    #[inline]
    pub fn stored_energy(&self, v: f64) -> f64 {
        self.energy_between(self.a, v)
    }

    /// Guard path: bracketed bisection over the full voltage window.
    /// Only reached when Newton fails to converge, so its cost never
    /// shows on realistic parameter sets.
    fn bisect(&self, target: f64) -> f64 {
        let (mut lo, mut hi) = (self.a, self.v_max);
        for _ in 0..BISECT_ITERS {
            let mid = 0.5 * (lo + hi);
            if self.stored_energy(mid) - target > 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// One batch block of at most [`LANE_BLOCK`] lanes: masked Newton with
    /// a fixed iteration budget. Lanes freeze at the iterate where the
    /// scalar early-exit would fire; there is no per-lane exit from the
    /// round loop, only the all-lanes-retired condition.
    fn solve_block(&self, xs: &[f64], active: &[bool], out: &mut [f64]) {
        debug_assert!(xs.len() <= LANE_BLOCK);
        let n = xs.len();
        let mut v = [0.0f64; LANE_BLOCK];
        let mut pending: u64 = 0;
        let mut needs_bisect: u64 = 0;
        for i in 0..n {
            if !active[i] {
                continue;
            }
            if xs[i] <= 0.0 {
                v[i] = self.a;
            } else {
                v[i] = (self.a * self.a + 2.0 * xs[i] / self.c0).sqrt();
                pending |= 1 << i;
            }
        }
        let mut round = 0;
        while pending != 0 && round < NEWTON_ITERS {
            for i in 0..n {
                let bit = 1u64 << i;
                if pending & bit == 0 {
                    continue;
                }
                let vi = v[i];
                let fp = (self.c0 + self.k * vi) * vi;
                if fp <= 0.0 || !fp.is_finite() {
                    pending &= !bit;
                    needs_bisect |= bit;
                    continue;
                }
                let next = vi - (self.stored_energy(vi) - xs[i]) / fp;
                if !next.is_finite() {
                    pending &= !bit;
                    needs_bisect |= bit;
                    continue;
                }
                v[i] = next;
                if (next - vi).abs() <= 2.0 * f64::EPSILON * vi.abs() {
                    pending &= !bit;
                }
            }
            round += 1;
        }
        // Budget exhausted without meeting the convergence test.
        needs_bisect |= pending;
        for i in 0..n {
            if !active[i] {
                continue;
            }
            let vi = if needs_bisect & (1 << i) != 0 {
                self.bisect(xs[i])
            } else {
                v[i]
            };
            out[i] = vi.clamp(self.a, self.v_max);
        }
    }
}

impl BatchSolve for SupercapSolver {
    type Input = f64;

    fn solve_one(&self, target: f64) -> f64 {
        if target <= 0.0 {
            return self.a;
        }
        let mut v = (self.a * self.a + 2.0 * target / self.c0).sqrt();
        let mut converged = false;
        for _ in 0..NEWTON_ITERS {
            let fp = (self.c0 + self.k * v) * v;
            if fp <= 0.0 || !fp.is_finite() {
                break;
            }
            let next = v - (self.stored_energy(v) - target) / fp;
            if !next.is_finite() {
                break;
            }
            if (next - v).abs() <= 2.0 * f64::EPSILON * v.abs() {
                v = next;
                converged = true;
                break;
            }
            v = next;
        }
        if !converged {
            v = self.bisect(target);
        }
        v.clamp(self.a, self.v_max)
    }

    fn solve_lanes(&self, xs: &[f64], active: &[bool], out: &mut [f64]) {
        assert_eq!(xs.len(), active.len());
        assert_eq!(xs.len(), out.len());
        // Uniform broadcast: a homogeneous population (unjittered fleet
        // lanes under a seed-independent policy) presents one distinct
        // target per step, so one solve serves every lane. Same input →
        // same bits, so the bit-identity contract holds trivially.
        let mut first = None;
        let mut uniform = true;
        for i in 0..xs.len() {
            if !active[i] {
                continue;
            }
            match first {
                None => first = Some(i),
                Some(f0) => {
                    if xs[i].to_bits() != xs[f0].to_bits() {
                        uniform = false;
                        break;
                    }
                }
            }
        }
        let Some(f0) = first else { return };
        if uniform {
            let v = self.solve_one(xs[f0]);
            for i in 0..xs.len() {
                if active[i] {
                    out[i] = v;
                }
            }
            return;
        }
        let mut offset = 0;
        while offset < xs.len() {
            let end = (offset + LANE_BLOCK).min(xs.len());
            self.solve_block(
                &xs[offset..end],
                &active[offset..end],
                &mut out[offset..end],
            );
            offset = end;
        }
    }
}

/// Struct-of-arrays state for a population of identical-parameter
/// supercapacitors — the storage side of the fleet's batched dense lane.
///
/// Holds per-lane terminal voltage and accumulated losses as contiguous
/// `Vec<f64>` slices and applies one fleet step (charge **or** discharge,
/// then idle leakage) across all lanes at once, batching the two
/// `voltage_for_energy` Newton inversions through [`SupercapSolver`].
///
/// # Bit-identity contract
///
/// After any sequence of [`step`](Self::step) calls, lane `i`'s voltage,
/// losses and returned energies are bit-identical to driving a private
/// clone of the template through the scalar [`Storage`] calls
/// `charge`/`discharge`/`idle` with the same per-step requests.
#[derive(Debug, Clone)]
pub struct SupercapLanes {
    solver: SupercapSolver,
    /// Equivalent series resistance, ohms.
    esr: f64,
    /// Leakage resistance, ohms.
    r_leak: f64,
    /// ESR-heating current limit, amps (see `max_charge_power`).
    i_max: f64,
    /// Per-lane terminal voltage, volts.
    v: Vec<f64>,
    /// Per-lane accumulated internal dissipation, joules.
    losses: Vec<f64>,
    /// Per-step solve targets (scratch, reused across steps).
    targets: Vec<f64>,
    /// Per-step solve mask (scratch, reused across steps).
    active: Vec<bool>,
}

impl SupercapLanes {
    /// A population of `lanes` clones of `template`, all starting at the
    /// template's present voltage and accumulated losses.
    pub fn from_template(template: &Supercap, lanes: usize) -> Self {
        Self {
            solver: template.solver(),
            esr: template.esr.value(),
            r_leak: template.r_leak.value(),
            i_max: (template.c0.value() / 10.0).clamp(0.05, 2.0),
            v: vec![template.v.value(); lanes],
            losses: vec![template.losses.value(); lanes],
            targets: vec![0.0; lanes],
            active: vec![false; lanes],
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Lane `i`'s terminal voltage, volts.
    #[inline]
    pub fn voltage(&self, i: usize) -> f64 {
        self.v[i]
    }

    /// Lane `i`'s usable energy above the cutoff, joules.
    #[inline]
    pub fn stored_energy(&self, i: usize) -> f64 {
        self.solver.stored_energy(self.v[i])
    }

    /// Lane `i`'s accumulated internal dissipation, joules.
    #[inline]
    pub fn losses(&self, i: usize) -> f64 {
        self.losses[i]
    }

    /// Usable capacity of the full voltage window, joules.
    pub fn capacity(&self) -> f64 {
        self.solver.energy_between(self.solver.a, self.solver.v_max)
    }

    /// Discharge cutoff voltage, volts.
    pub fn min_voltage(&self) -> f64 {
        self.solver.a
    }

    /// Rated voltage, volts.
    pub fn max_voltage(&self) -> f64 {
        self.solver.v_max
    }

    /// The shared inversion kernel.
    pub fn solver(&self) -> &SupercapSolver {
        &self.solver
    }

    /// A new population of `lanes` copies of lane 0's state (solver
    /// parameters carried over). Used by the
    /// dense runner's uniform fast path: while every lane provably
    /// shares lane 0's inputs only lane 0 is stepped, and the full
    /// population is materialized from it on the first divergence.
    pub fn replicate_lane0(&self, lanes: usize) -> Self {
        let mut copy = self.clone();
        copy.v = vec![self.v[0]; lanes];
        copy.losses = vec![self.losses[0]; lanes];
        copy.targets = vec![0.0; lanes];
        copy.active = vec![false; lanes];
        copy
    }

    /// One fleet step across all lanes: lane `i` charges at `charge_w[i]`
    /// watts when that is positive, else discharges at `discharge_w[i]`
    /// watts when positive, then idles for `dt` seconds. Accepted charge
    /// energy lands in `charged[i]` and delivered discharge energy in
    /// `discharged[i]` (joules; zero for lanes with no request), exactly
    /// as the scalar `charge`/`discharge` return values.
    pub fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    ) {
        let n = self.v.len();
        assert_eq!(charge_w.len(), n);
        assert_eq!(discharge_w.len(), n);
        assert_eq!(charged.len(), n);
        assert_eq!(discharged.len(), n);
        charged[..n].fill(0.0);
        discharged[..n].fill(0.0);
        if dt <= 0.0 {
            return;
        }
        // Pass 1 — scalar prologue per lane: clamp the request, split the
        // ESR loss, stage the Newton target. Mirrors `Supercap::charge` /
        // `Supercap::discharge` up to (but excluding) the inversion.
        for i in 0..n {
            let v = self.v[i];
            self.active[i] = false;
            if charge_w[i] > 0.0 {
                let p_max = if v >= self.solver.v_max {
                    0.0
                } else {
                    v.max(0.2) * self.i_max
                };
                let p = charge_w[i].min(p_max).max(0.0);
                if p == 0.0 {
                    continue;
                }
                let v_eff = v.max(0.2);
                let amps = p / v_eff;
                let ratio = (amps * self.esr / v_eff).min(0.5);
                let gross = p * dt;
                let mut net = gross * (1.0 - ratio);
                let headroom = self.solver.energy_between(v, self.solver.v_max);
                let mut taken = gross;
                if net > headroom {
                    net = headroom;
                    taken = net / (1.0 - ratio);
                }
                self.targets[i] = self.solver.stored_energy(v) + net;
                self.active[i] = true;
                self.losses[i] += taken - net;
                charged[i] = taken;
            } else if discharge_w[i] > 0.0 {
                let available = self.solver.stored_energy(v);
                let p_max = if available <= 0.0 {
                    0.0
                } else {
                    v * self.i_max
                };
                let p = discharge_w[i].min(p_max).max(0.0);
                if p == 0.0 {
                    continue;
                }
                let v_eff = v.max(0.2);
                let amps = p / v_eff;
                let ratio = (amps * self.esr / v_eff).min(0.5);
                let mut internal = (p * dt) / (1.0 - ratio);
                if internal > available {
                    internal = available;
                }
                let delivered = internal * (1.0 - ratio);
                self.targets[i] = available - internal;
                self.active[i] = true;
                self.losses[i] += internal - delivered;
                discharged[i] = delivered;
            }
        }
        // Pass 2 — batched transfer inversion over the staged lanes.
        self.solver
            .solve_lanes(&self.targets, &self.active, &mut self.v);
        // Pass 3 — idle-leak prologue: every lane leaks V²/R_leak·dt off
        // its post-transfer state, exactly as `Supercap::idle`.
        for i in 0..n {
            let v = self.v[i];
            let leak = v * v / self.r_leak * dt;
            let stored = self.solver.stored_energy(v);
            let remaining = (stored - leak).max(0.0);
            self.losses[i] += stored - remaining;
            self.targets[i] = remaining;
            self.active[i] = true;
        }
        // Pass 4 — batched leak inversion over all lanes.
        self.solver
            .solve_lanes(&self.targets, &self.active, &mut self.v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_at_cutoff() {
        let cap = Supercap::edlc_22f();
        assert_eq!(cap.voltage(), Volts::new(0.8));
        assert_eq!(cap.stored_energy(), Joules::ZERO);
        assert!(cap.is_depleted());
        assert!(cap.capacity().value() > 50.0); // 22 F window holds >50 J
    }

    #[test]
    fn charge_raises_voltage_and_respects_ceiling() {
        let mut cap = Supercap::edlc_22f();
        // Pump far more than capacity.
        for _ in 0..200 {
            cap.charge(Watts::new(2.0), Seconds::new(60.0));
        }
        assert!((cap.voltage() - cap.max_voltage()).abs().value() < 1e-3);
        let e = cap.stored_energy();
        assert!((e - cap.capacity()).abs().value() < 1e-3 * cap.capacity().value());
        // Full cap refuses further charge.
        assert_eq!(cap.max_charge_power(), Watts::ZERO);
    }

    #[test]
    fn discharge_returns_energy_and_respects_floor() {
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(2.5));
        let before = cap.stored_energy();
        let delivered = cap.discharge(Watts::new(1.0), Seconds::new(10.0));
        assert!(delivered.value() > 0.0);
        assert!(cap.stored_energy() < before);
        // Draining far beyond the content stops at the cutoff.
        for _ in 0..10_000 {
            cap.discharge(Watts::new(2.0), Seconds::new(60.0));
        }
        assert!(cap.voltage() >= cap.min_voltage());
        assert!(cap.stored_energy().value() >= 0.0);
    }

    #[test]
    fn roundtrip_loses_energy_in_esr() {
        let mut cap = Supercap::edlc_22f();
        let taken = cap.charge(Watts::new(1.0), Seconds::new(100.0));
        let delivered = cap.discharge(Watts::new(1.0), Seconds::new(1000.0));
        assert!(delivered < taken, "{delivered} vs {taken}");
        assert!(cap.losses().value() > 0.0);
        // Conservation: taken = delivered + losses + remaining.
        let residual =
            taken.value() - delivered.value() - cap.losses().value() - cap.stored_energy().value();
        assert!(residual.abs() < 1e-6 * taken.value(), "residual {residual}");
    }

    #[test]
    fn leakage_drains_idle_cap() {
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(2.5));
        let before = cap.stored_energy();
        cap.idle(Seconds::from_hours(24.0));
        let after = cap.stored_energy();
        assert!(after < before);
        // 2.5 V across 15 kΩ ≈ 0.42 mW ⇒ ~36 J/day; cap holds ~60 J.
        let leaked = (before - after).value();
        assert!((10.0..40.0).contains(&leaked), "leaked {leaked}");
    }

    #[test]
    fn voltage_dependent_capacitance() {
        let cap = Supercap::edlc_22f();
        let c_low = cap.capacitance_at(Volts::new(1.0));
        let c_high = cap.capacitance_at(Volts::new(2.5));
        assert!(c_high.value() > c_low.value());
        assert!((c_high.value() - (22.0 + 1.5 * 2.5)).abs() < 1e-12);
    }

    #[test]
    fn lic_has_narrow_window_and_kind() {
        let lic = Supercap::lithium_ion_capacitor_40f();
        assert_eq!(lic.kind(), StorageKind::LithiumIonCapacitor);
        assert_eq!(lic.min_voltage(), Volts::new(2.2));
        assert_eq!(lic.max_voltage(), Volts::new(3.8));
        assert!(lic.is_rechargeable());
    }

    #[test]
    fn energy_voltage_inversion_consistent() {
        let cap = Supercap::edlc_22f();
        for i in 0..20 {
            let v = Volts::new(0.8 + i as f64 * 0.095);
            let e = cap.energy_between(cap.v_min, v);
            let back = cap.voltage_for_energy(e);
            assert!((back - v).abs().value() < 1e-6, "{back} vs {v}");
        }
    }

    /// Splitmix64 — a tiny deterministic generator for the identity tests.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn pathological_parameters_fall_back_to_bisection() {
        // A vanishing C₀ under a dominant k_v slope puts the Newton start
        // `√(2e/C₀)` ~15 orders of magnitude above the cubic root, so the
        // ~(2/3)-per-step contraction cannot land within 64 iterations.
        // The old solver fell out of the loop and silently clamped the
        // huge iterate to v_max, reporting a full capacitor for a nearly
        // empty one; the bisection fallback must find the actual root.
        let cap = Supercap::new(
            "pathological",
            Farads::new(1e-30),
            1e3,
            Ohms::from_milli(1.0),
            Ohms::from_kilo(1000.0),
            Volts::new(0.0),
            Volts::new(5.0),
        );
        let target = Joules::new(1.0);
        // k·v³/3 = e  ⇒  v = (3e/k)^(1/3)
        let expected = (3.0 / 1e3f64).cbrt();
        let v = cap.voltage_for_energy(target);
        assert!(
            (v.value() - expected).abs() < 1e-9,
            "got {v}, expected {expected}"
        );
        // The inversion must roundtrip, not saturate at the rail.
        let back = cap.energy_between(cap.v_min, v);
        assert!((back.value() - 1.0).abs() < 1e-6, "roundtrip {back}");
        assert!(v.value() < 4.9, "must not clamp to v_max");
    }

    #[test]
    fn batched_solve_matches_scalar_bitwise() {
        for cap in [
            Supercap::edlc_22f(),
            Supercap::edlc_1f(),
            Supercap::lithium_ion_capacitor_40f(),
        ] {
            let solver = cap.solver();
            let capacity = cap.capacity().value();
            let mut state = 0x00C0_FFEE_u64;
            // Random targets spanning empty, negative, in-window, and
            // beyond-capacity, plus a masked-off lane pattern.
            let xs: Vec<f64> = (0..257)
                .map(|i| match i % 7 {
                    0 => 0.0,
                    1 => -0.25 * capacity,
                    2 => 1.5 * capacity,
                    _ => splitmix(&mut state) * capacity,
                })
                .collect();
            let active: Vec<bool> = (0..xs.len()).map(|i| i % 11 != 3).collect();
            let mut out = vec![f64::NAN; xs.len()];
            solver.solve_lanes(&xs, &active, &mut out);
            for i in 0..xs.len() {
                if active[i] {
                    assert_eq!(
                        out[i].to_bits(),
                        solver.solve_one(xs[i]).to_bits(),
                        "{}: lane {i} target {}",
                        cap.name(),
                        xs[i]
                    );
                } else {
                    assert!(out[i].is_nan(), "inactive lane {i} touched");
                }
            }
        }
    }

    #[test]
    fn lanes_step_matches_scalar_storage_ops_bitwise() {
        let mut template = Supercap::edlc_22f();
        template.set_voltage(Volts::new(1.9));
        let n = 37;
        let mut lanes = SupercapLanes::from_template(&template, n);
        let mut scalars: Vec<Supercap> = (0..n).map(|_| template.clone()).collect();
        let mut state = 0xDEAD_BEEFu64;
        let dt = 60.0;
        let (mut cw, mut dw) = (vec![0.0; n], vec![0.0; n]);
        let (mut ch, mut dis) = (vec![0.0; n], vec![0.0; n]);
        for step in 0..300 {
            for i in 0..n {
                cw[i] = 0.0;
                dw[i] = 0.0;
                let r = splitmix(&mut state);
                if r < 0.45 {
                    cw[i] = splitmix(&mut state) * 0.6;
                } else if r < 0.9 {
                    dw[i] = splitmix(&mut state) * 0.6;
                }
            }
            lanes.step(&cw, &dw, dt, &mut ch, &mut dis);
            for i in 0..n {
                let c_ref = if cw[i] > 0.0 {
                    scalars[i].charge(Watts::new(cw[i]), Seconds::new(dt))
                } else {
                    Joules::ZERO
                };
                let d_ref = if dw[i] > 0.0 {
                    scalars[i].discharge(Watts::new(dw[i]), Seconds::new(dt))
                } else {
                    Joules::ZERO
                };
                scalars[i].idle(Seconds::new(dt));
                assert_eq!(
                    ch[i].to_bits(),
                    c_ref.value().to_bits(),
                    "step {step} lane {i} charged"
                );
                assert_eq!(
                    dis[i].to_bits(),
                    d_ref.value().to_bits(),
                    "step {step} lane {i} discharged"
                );
                assert_eq!(
                    lanes.voltage(i).to_bits(),
                    scalars[i].voltage().value().to_bits(),
                    "step {step} lane {i} voltage"
                );
                assert_eq!(
                    lanes.losses(i).to_bits(),
                    scalars[i].losses().value().to_bits(),
                    "step {step} lane {i} losses"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "voltage window")]
    fn rejects_inverted_window() {
        Supercap::new(
            "bad",
            Farads::new(1.0),
            0.0,
            Ohms::new(0.1),
            Ohms::new(1000.0),
            Volts::new(3.0),
            Volts::new(2.0),
        );
    }
}
