//! Struct-of-arrays battery state for the fleet's batched dense lane.

use crate::battery::Battery;
use crate::storage::Storage;

/// Struct-of-arrays state for a population of identical-parameter
/// batteries — the storage side of the fleet's batched dense lane for
/// [`Battery`]-backed groups.
///
/// Holds per-lane stored energy and accumulated losses as contiguous
/// `Vec<f64>` slices and applies one fleet step (charge **or**
/// discharge, then idle self-discharge) across all lanes at once. The
/// idle pass shares a single `powf` evaluation per distinct
/// `(dt, rate)` bit-pattern lane-wide through the same
/// `(dt bits, rate bits)`-keyed memo the scalar [`Battery::idle`]
/// carries per device.
///
/// # Bit-identity contract
///
/// After any sequence of [`step`](Self::step) calls, lane `i`'s
/// voltage, stored energy, losses and returned energies are
/// bit-identical to driving a private clone of the template through the
/// scalar [`Storage`] calls `charge`/`discharge`/`idle` with the same
/// per-step requests. (Cycle-counting throughput is not tracked per
/// lane: it is not observable through the fleet kernel.)
///
/// # Memo invalidation
///
/// The shared keep-factor memo is keyed on the bits of both `dt` and
/// the self-discharge rate, and
/// [`set_self_discharge_month`](Self::set_self_discharge_month) /
/// [`invalidate_idle_memo`](Self::invalidate_idle_memo) drop it
/// eagerly, so a rate change can never replay a stale `powf`.
#[derive(Debug, Clone)]
pub struct BatteryLanes {
    /// Usable capacity, joules (shared by every lane).
    capacity: f64,
    /// OCV curve as (SoC, volts) knots, SoC ascending.
    ocv_curve: Vec<(f64, f64)>,
    /// Fraction of charged energy actually stored.
    eta_charge: f64,
    /// Fraction of internal energy delivered on discharge.
    eta_discharge: f64,
    /// Self-discharge fraction per 30 days.
    self_discharge_month: f64,
    /// Whether the chemistry accepts charge at all.
    rechargeable: bool,
    /// C-rate charge limit as watts (`c_rate · capacity / 3600`).
    p_chg_max: f64,
    /// C-rate discharge limit as watts.
    p_dis_max: f64,
    /// Per-lane stored energy, joules.
    energy: Vec<f64>,
    /// Per-lane accumulated internal dissipation, joules.
    losses: Vec<f64>,
    /// Lane-shared keep-factor memo: `(dt bits, rate bits)` →
    /// `(1 − r)^months`, one `powf` per distinct key for the whole
    /// population instead of one per device.
    keep_memo: Option<((u64, u64), f64)>,
}

impl BatteryLanes {
    /// A population of `lanes` clones of `template`, all starting at the
    /// template's present stored energy and accumulated losses.
    pub fn from_template(template: &Battery, lanes: usize) -> Self {
        let (curve, eta_c, eta_d, rate, c_chg, c_dis) = template.lane_params();
        let capacity = template.capacity().value();
        Self {
            capacity,
            ocv_curve: curve.to_vec(),
            eta_charge: eta_c,
            eta_discharge: eta_d,
            self_discharge_month: rate,
            rechargeable: template.is_rechargeable(),
            // Same expressions as the scalar `max_charge_power` /
            // `max_discharge_power`, hoisted: the limits depend only on
            // shared parameters.
            p_chg_max: c_chg * capacity / 3600.0,
            p_dis_max: c_dis * capacity / 3600.0,
            energy: vec![template.stored_energy().value(); lanes],
            losses: vec![template.losses().value(); lanes],
            keep_memo: None,
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.energy.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.energy.is_empty()
    }

    /// Lane `i`'s open-circuit terminal voltage, volts (the scalar
    /// OCV-curve interpolation over state of charge).
    #[inline]
    pub fn voltage(&self, i: usize) -> f64 {
        self.ocv_at(self.energy[i] / self.capacity)
    }

    /// Lane `i`'s stored energy, joules.
    #[inline]
    pub fn stored_energy(&self, i: usize) -> f64 {
        self.energy[i]
    }

    /// Lane `i`'s accumulated internal dissipation, joules.
    #[inline]
    pub fn losses(&self, i: usize) -> f64 {
        self.losses[i]
    }

    /// Usable capacity, joules.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Overrides the self-discharge rate (fraction per 30 days) and
    /// drops the shared keep-factor memo, mirroring
    /// [`Battery::set_self_discharge_month`].
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a fraction in `[0, 1)`.
    pub fn set_self_discharge_month(&mut self, rate: f64) {
        assert!(
            (0.0..1.0).contains(&rate),
            "self-discharge must be a fraction below 1"
        );
        self.self_discharge_month = rate;
        self.keep_memo = None;
    }

    /// Drops the shared keep-factor memo unconditionally (a hot-swap or
    /// fault-edge flush). The next idle pass re-evaluates the `powf`
    /// from the current parameters.
    pub fn invalidate_idle_memo(&mut self) {
        self.keep_memo = None;
    }

    /// A new population of `lanes` copies of lane 0's state (parameters
    /// and the shared keep-factor memo carried over). Used by the dense
    /// runner's uniform fast path: while every lane provably shares
    /// lane 0's inputs only lane 0 is stepped, and the full population
    /// is materialized from it on the first divergence.
    pub fn replicate_lane0(&self, lanes: usize) -> Self {
        let mut copy = self.clone();
        copy.energy = vec![self.energy[0]; lanes];
        copy.losses = vec![self.losses[0]; lanes];
        copy
    }

    /// Piecewise-linear OCV lookup — the scalar `Battery::ocv_at`
    /// sequence verbatim.
    fn ocv_at(&self, soc: f64) -> f64 {
        let soc = soc.clamp(0.0, 1.0);
        let first = self.ocv_curve[0];
        if soc <= first.0 {
            return first.1;
        }
        for pair in self.ocv_curve.windows(2) {
            let (s0, v0) = pair[0];
            let (s1, v1) = pair[1];
            if soc <= s1 {
                return v0 + (v1 - v0) * (soc - s0) / (s1 - s0);
            }
        }
        self.ocv_curve.last().expect("non-empty curve").1
    }

    /// The lane-shared keep factor for one idle interval, via the memo.
    fn keep_for(&mut self, dt: f64) -> f64 {
        let key = (dt.to_bits(), self.self_discharge_month.to_bits());
        match self.keep_memo {
            Some((memo_key, memo_keep)) if memo_key == key => memo_keep,
            _ => {
                let months = dt / (30.0 * 86_400.0);
                let keep = (1.0 - self.self_discharge_month).powf(months);
                self.keep_memo = Some((key, keep));
                keep
            }
        }
    }

    /// One fleet step across all lanes: lane `i` charges at
    /// `charge_w[i]` watts when that is positive, else discharges at
    /// `discharge_w[i]` watts when positive, then idles for `dt`
    /// seconds. Accepted charge energy lands in `charged[i]` and
    /// delivered discharge energy in `discharged[i]` (joules; zero for
    /// lanes with no request), exactly as the scalar
    /// `charge`/`discharge` return values.
    pub fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    ) {
        let n = self.energy.len();
        assert_eq!(charge_w.len(), n);
        assert_eq!(discharge_w.len(), n);
        assert_eq!(charged.len(), n);
        assert_eq!(discharged.len(), n);
        charged[..n].fill(0.0);
        discharged[..n].fill(0.0);
        if dt <= 0.0 {
            return;
        }
        // Pass 1 — charge: the scalar `Battery::charge` sequence per
        // lane (clamp to the C-rate acceptance, split the coulombic
        // loss, clamp to headroom).
        for i in 0..n {
            let p_max = if !self.rechargeable || self.energy[i] >= self.capacity {
                0.0
            } else {
                self.p_chg_max
            };
            let p = charge_w[i].min(p_max).max(0.0);
            if p == 0.0 {
                continue;
            }
            let gross = p * dt;
            let mut net = gross * self.eta_charge;
            let headroom = self.capacity - self.energy[i];
            let mut taken = gross;
            if net > headroom {
                net = headroom;
                taken = net / self.eta_charge;
            }
            self.energy[i] += net;
            self.losses[i] += taken - net;
            charged[i] = taken;
        }
        // Pass 2 — discharge: the scalar `Battery::discharge` sequence
        // per lane. The fleet runner stages charge XOR discharge, so at
        // most one of the two passes touches a given lane.
        for i in 0..n {
            let p_max = if self.energy[i] <= 0.0 {
                0.0
            } else {
                self.p_dis_max
            };
            let p = discharge_w[i].min(p_max).max(0.0);
            if p == 0.0 {
                continue;
            }
            let mut internal = (p * dt) / self.eta_discharge;
            if internal > self.energy[i] {
                internal = self.energy[i];
            }
            let delivered = internal * self.eta_discharge;
            self.energy[i] -= internal;
            self.losses[i] += internal - delivered;
            discharged[i] = delivered;
        }
        // Pass 3 — idle: one `powf` for the whole population per
        // distinct `(dt, rate)` bit-pattern. The factor is resolved
        // lazily so an all-empty population never warms the memo (the
        // scalar guard order).
        let mut keep_cached: Option<f64> = None;
        for i in 0..n {
            if self.energy[i] <= 0.0 {
                continue;
            }
            let keep = match keep_cached {
                Some(k) => k,
                None => {
                    let k = self.keep_for(dt);
                    keep_cached = Some(k);
                    k
                }
            };
            let remaining = self.energy[i] * keep;
            self.losses[i] += self.energy[i] - remaining;
            self.energy[i] = remaining;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_units::{Seconds, Watts};

    /// Splitmix64 — a tiny deterministic generator for the identity
    /// tests.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn presets() -> Vec<Battery> {
        let mut half = Battery::nimh_aa_pair();
        half.set_soc(0.5);
        vec![
            Battery::lipo_400mah(),
            half,
            Battery::thin_film_50uah(),
            Battery::li_primary_aa(),
        ]
    }

    #[test]
    fn lanes_match_scalar_batteries_bitwise() {
        for template in presets() {
            let n = 13;
            let mut lanes = BatteryLanes::from_template(&template, n);
            let mut scalars: Vec<Battery> = (0..n).map(|_| template.clone()).collect();
            let cap = template.capacity().value();
            let p_scale = cap / 3600.0; // around the 1 C power
            let mut state = 0xB477_u64 ^ cap.to_bits();
            let mut charge_w = vec![0.0; n];
            let mut discharge_w = vec![0.0; n];
            let mut charged = vec![f64::NAN; n];
            let mut discharged = vec![f64::NAN; n];
            for step in 0..400 {
                // Step widths cycle through a few magnitudes so the memo
                // is exercised (repeats) and re-keyed (changes).
                let dt = match step % 5 {
                    0..=2 => 60.0,
                    3 => 1.5,
                    _ => 600.0,
                };
                for i in 0..n {
                    let r = splitmix(&mut state);
                    // Charge, discharge, or idle — including requests far
                    // beyond the C-rate clamps and zero-power lanes.
                    let (c, d) = match (i + step) % 4 {
                        0 => (r * 3.0 * p_scale, 0.0),
                        1 => (0.0, r * 3.0 * p_scale),
                        2 => (0.0, 0.0),
                        _ => (r * 0.2 * p_scale, 0.0),
                    };
                    charge_w[i] = c;
                    discharge_w[i] = d;
                }
                lanes.step(&charge_w, &discharge_w, dt, &mut charged, &mut discharged);
                for (i, s) in scalars.iter_mut().enumerate() {
                    let dt_s = Seconds::new(dt);
                    let mut taken = 0.0;
                    let mut delivered = 0.0;
                    if charge_w[i] > 0.0 {
                        taken = s.charge(Watts::new(charge_w[i]), dt_s).value();
                    } else if discharge_w[i] > 0.0 {
                        delivered = s.discharge(Watts::new(discharge_w[i]), dt_s).value();
                    }
                    s.idle(dt_s);
                    assert_eq!(
                        charged[i].to_bits(),
                        taken.to_bits(),
                        "{}: charged, lane {i}, step {step}",
                        template.name()
                    );
                    assert_eq!(
                        discharged[i].to_bits(),
                        delivered.to_bits(),
                        "{}: discharged, lane {i}, step {step}",
                        template.name()
                    );
                    assert_eq!(
                        lanes.stored_energy(i).to_bits(),
                        s.stored_energy().value().to_bits(),
                        "{}: energy, lane {i}, step {step}",
                        template.name()
                    );
                    assert_eq!(
                        lanes.losses(i).to_bits(),
                        s.losses().value().to_bits(),
                        "{}: losses, lane {i}, step {step}",
                        template.name()
                    );
                    assert_eq!(
                        lanes.voltage(i).to_bits(),
                        s.voltage().value().to_bits(),
                        "{}: voltage, lane {i}, step {step}",
                        template.name()
                    );
                }
            }
        }
    }

    #[test]
    fn shared_memo_never_replays_a_stale_keep_factor() {
        // Warm the lane-shared memo at the preset rate, then mutate the
        // rate and idle with the same dt: the population must match
        // never-memoized scalar references bit for bit. This is the
        // lane-table variant of the scalar regression in `battery.rs`.
        let mut template = Battery::lipo_400mah();
        template.set_soc(1.0);
        let n = 5;
        let dt = Seconds::from_days(30.0).value();
        let zeros = vec![0.0; n];
        let mut sink_a = vec![0.0; n];
        let mut sink_b = vec![0.0; n];

        let mut lanes = BatteryLanes::from_template(&template, n);
        lanes.step(&zeros, &zeros, dt, &mut sink_a, &mut sink_b); // memoizes keep(dt, 0.03)
        lanes.set_self_discharge_month(0.20);
        lanes.step(&zeros, &zeros, dt, &mut sink_a, &mut sink_b);

        let mut reference = template.clone();
        reference.idle(Seconds::new(dt));
        reference.set_self_discharge_month(0.20);
        let keep = (1.0f64 - 0.20).powf(dt / (30.0 * 86_400.0));
        let expected = reference.stored_energy().value() * keep;
        for i in 0..n {
            assert_eq!(
                lanes.stored_energy(i).to_bits(),
                expected.to_bits(),
                "lane {i} replayed a stale keep factor"
            );
        }
    }

    #[test]
    fn explicit_invalidation_forces_a_fresh_powf() {
        let mut template = Battery::nimh_aa_pair();
        template.set_soc(0.8);
        let n = 3;
        let dt = 3600.0;
        let zeros = vec![0.0; n];
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        let mut lanes = BatteryLanes::from_template(&template, n);
        lanes.step(&zeros, &zeros, dt, &mut a, &mut b);
        lanes.invalidate_idle_memo();
        lanes.step(&zeros, &zeros, dt, &mut a, &mut b);
        // Flushing must be purely an effect on the cache, never on the
        // books: two idles at the same rate equal the scalar pair.
        let mut s = template.clone();
        s.idle(Seconds::new(dt));
        s.idle(Seconds::new(dt));
        assert_eq!(
            lanes.stored_energy(0).to_bits(),
            s.stored_energy().value().to_bits()
        );
    }

    #[test]
    fn replicate_expands_lane_zero_bitwise() {
        let mut template = Battery::lipo_400mah();
        template.set_soc(0.4);
        let mut solo = BatteryLanes::from_template(&template, 1);
        let charge_w = [0.1];
        let zeros = [0.0];
        let mut a = [0.0];
        let mut b = [0.0];
        solo.step(&charge_w, &zeros, 60.0, &mut a, &mut b);
        let n = 6;
        let lanes = solo.replicate_lane0(n);
        assert_eq!(lanes.len(), n);
        for i in 0..n {
            assert_eq!(
                lanes.stored_energy(i).to_bits(),
                solo.stored_energy(0).to_bits()
            );
            assert_eq!(lanes.losses(i).to_bits(), solo.losses(0).to_bits());
            assert_eq!(lanes.voltage(i).to_bits(), solo.voltage(0).to_bits());
        }
    }

    #[test]
    fn primary_cells_refuse_charge_in_lanes_too() {
        let template = Battery::li_primary_aa();
        let n = 2;
        let mut lanes = BatteryLanes::from_template(&template, n);
        let charge_w = vec![1.0; n];
        let zeros = vec![0.0; n];
        let mut charged = vec![f64::NAN; n];
        let mut discharged = vec![f64::NAN; n];
        lanes.step(&charge_w, &zeros, 100.0, &mut charged, &mut discharged);
        let mut reference = template.clone();
        assert_eq!(
            reference
                .charge(Watts::new(1.0), Seconds::new(100.0))
                .value(),
            0.0
        );
        reference.idle(Seconds::new(100.0));
        for (i, c) in charged.iter().enumerate() {
            assert_eq!(*c, 0.0);
            assert_eq!(
                lanes.stored_energy(i).to_bits(),
                reference.stored_energy().value().to_bits()
            );
        }
    }
}
