//! Photovoltaic cell: the single-diode model with shunt resistance.
//!
//! Photovoltaic cells are "the most commonly-used harvester type" in the
//! surveyed systems; their strongly irradiance-dependent maximum-power
//! point is what makes MPPT worthwhile in Systems A and C, and what the
//! fixed-point compromise of System B trades away (experiment E3).

use crate::batch::VocBatch;
use crate::kind::HarvesterKind;
use crate::transducer::Transducer;
use mseh_env::EnvConditions;
use mseh_units::{Amps, BatchSolve, Volts, WattsPerSqM};

/// Boltzmann constant over elementary charge, V/K.
const K_OVER_Q: f64 = 8.617_333_262e-5;

/// Newton iteration budget of the Voc solve (scalar and batched alike).
const NEWTON_ITERS: usize = 32;

/// Bisection iteration budget of the guard fallback.
const BISECT_ITERS: usize = 64;

/// Lanes per batched solve block: one `u64` mask word.
const LANE_BLOCK: usize = 64;

/// A photovoltaic module modelled with the single-diode equation
///
/// `I(V) = I_ph − I_0·(exp(V / (n·N_s·V_t)) − 1) − V / R_sh`
///
/// where the photocurrent `I_ph` scales linearly with effective irradiance
/// and the thermal voltage `V_t` follows the cell temperature.
///
/// # Examples
///
/// ```
/// use mseh_harvesters::{PvModule, Transducer};
/// use mseh_env::EnvConditions;
/// use mseh_units::{Seconds, WattsPerSqM};
///
/// let pv = PvModule::outdoor_panel_half_watt();
/// let mut env = EnvConditions::quiescent(Seconds::ZERO);
/// env.irradiance = WattsPerSqM::new(1000.0);
/// let mpp = pv.mpp(&env);
/// // A "0.5 W" panel delivers about half a watt at standard conditions.
/// assert!((mpp.power().value() - 0.5).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PvModule {
    name: String,
    /// Short-circuit current at standard test conditions (1000 W/m²).
    isc_stc: Amps,
    /// Open-circuit voltage at standard test conditions.
    voc_stc: Volts,
    /// Number of series cells.
    n_series: u32,
    /// Diode ideality factor.
    ideality: f64,
    /// Shunt resistance (Ω); dominates behaviour at indoor light levels.
    r_shunt: f64,
    /// Diode saturation current, a pure function of the datasheet
    /// parameters, precomputed at construction so the I–V hot path pays
    /// one `exp` instead of two.
    i0: f64,
}

impl PvModule {
    /// Creates a module from datasheet STC figures.
    ///
    /// # Panics
    ///
    /// Panics if any electrical parameter is non-positive.
    pub fn new(
        name: impl Into<String>,
        isc_stc: Amps,
        voc_stc: Volts,
        n_series: u32,
        ideality: f64,
        r_shunt: f64,
    ) -> Self {
        assert!(isc_stc.value() > 0.0, "Isc must be positive");
        assert!(voc_stc.value() > 0.0, "Voc must be positive");
        assert!(n_series > 0, "need at least one cell");
        assert!(
            ideality > 0.0 && r_shunt > 0.0,
            "diode parameters must be positive"
        );
        // Calibrate the saturation current so I(Voc_stc) = 0 at STC and
        // 25 °C.
        let vt_stc = ideality * n_series as f64 * K_OVER_Q * 298.15;
        let leak = voc_stc.value() / r_shunt;
        let i0 = (isc_stc.value() - leak) / ((voc_stc.value() / vt_stc).exp() - 1.0);
        Self {
            name: name.into(),
            isc_stc,
            voc_stc,
            n_series,
            ideality,
            r_shunt,
            i0,
        }
    }

    /// A small outdoor polycrystalline panel rated ≈0.5 W:
    /// Isc 115 mA, Voc 6.0 V, 10 series cells.
    pub fn outdoor_panel_half_watt() -> Self {
        Self::new(
            "0.5 W polycrystalline panel",
            Amps::from_milli(115.0),
            Volts::new(6.0),
            10,
            1.3,
            2_000.0,
        )
    }

    /// A larger 2 W panel for the Smart Power Unit scale.
    pub fn outdoor_panel_two_watt() -> Self {
        Self::new(
            "2 W polycrystalline panel",
            Amps::from_milli(400.0),
            Volts::new(7.0),
            12,
            1.3,
            1_000.0,
        )
    }

    /// An amorphous-silicon indoor cell optimised for lux-level light:
    /// Isc 12 mA at STC (µA-scale under office lighting), Voc 4.2 V,
    /// 7 series cells.
    pub fn amorphous_indoor() -> Self {
        Self::new(
            "amorphous indoor cell",
            Amps::from_milli(12.0),
            Volts::new(4.2),
            7,
            1.8,
            60_000.0,
        )
    }

    /// Photocurrent at the given effective irradiance.
    fn photocurrent(&self, g: WattsPerSqM) -> f64 {
        (self.isc_stc.value() * g.value() / 1000.0).max(0.0)
    }

    /// Junction thermal voltage stack `n·N_s·V_t` at the ambient
    /// temperature.
    fn vt_stack(&self, env: &EnvConditions) -> f64 {
        self.ideality * self.n_series as f64 * K_OVER_Q * env.ambient.to_kelvin()
    }

    /// The detached Voc root-solve kernel: every constant the solve needs
    /// and nothing else. Scalar [`open_circuit_voltage`] solves and the
    /// batched [`VocBatch`] lanes both run through this one kernel, which
    /// is what keeps them bit-identical by construction.
    ///
    /// [`open_circuit_voltage`]: Transducer::open_circuit_voltage
    pub fn voc_solver(&self) -> PvVocSolver {
        PvVocSolver {
            i0: self.i0,
            r_shunt: self.r_shunt,
            hi: self.voc_stc.value() * 1.5,
        }
    }

    fn solve_voc(&self, iph: f64, vt: f64) -> f64 {
        self.voc_solver().solve_one((iph, vt))
    }
}

/// The open-circuit-voltage root solve of a [`PvModule`], detached from
/// the module: the root of `f(V) = I_ph − I_0·(exp(V/vt) − 1) − V/R_sh`
/// by guarded Newton from the high side.
///
/// `f` is decreasing and concave, so from any point at or above the root
/// Newton descends monotonically onto it with quadratic convergence. The
/// ideal-diode closed form `vt·ln(1 + I_ph/I_0)` (shunt ignored) sits
/// just above the root (`f` there is exactly `−V/R_sh < 0`), making it a
/// deterministic near-root start. The start point is a pure function of
/// the inputs — never of solve history — so results are reproducible
/// bit-for-bit across runs.
///
/// The input of one solve is the pair `(iph, vt)`: photocurrent and
/// junction thermal-voltage stack, the only per-environment quantities
/// the root depends on. [`BatchSolve::solve_lanes`] runs the same Newton
/// arithmetic across 64-lane blocks under a convergence mask — a lane
/// that converges freezes at exactly the iterate the scalar solve would
/// have returned, a lane that trips a guard falls back to the same
/// bisection, and a lane that exhausts the iteration budget keeps its
/// last iterate (the scalar behaviour), so every lane is bit-identical
/// to [`BatchSolve::solve_one`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvVocSolver {
    i0: f64,
    r_shunt: f64,
    /// Search ceiling `1.5·Voc_stc`.
    hi: f64,
}

impl PvVocSolver {
    /// Bisection fallback over `[0, hi]`, the guard path when Newton
    /// leaves the bracket (degenerate parameters).
    fn bisect(&self, iph: f64, vt: f64) -> f64 {
        let (mut lo, mut hi) = (0.0, self.hi);
        for _ in 0..BISECT_ITERS {
            let mid = 0.5 * (lo + hi);
            let f = iph - self.i0 * ((mid / vt).exp() - 1.0) - mid / self.r_shunt;
            if f > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Masked Newton over one block of at most 64 lanes. Bit `i` of
    /// `mask` selects lane `i`; unselected lanes' `out` slots are left
    /// untouched.
    fn solve_block(&self, xs: &[(f64, f64)], mask: u64, out: &mut [f64]) {
        debug_assert!(xs.len() <= LANE_BLOCK);
        if self.i0 <= 0.0 || !self.i0.is_finite() {
            for (i, &(iph, vt)) in xs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    out[i] = self.bisect(iph, vt);
                }
            }
            return;
        }
        let mut v = [0.0f64; LANE_BLOCK];
        let mut pending = mask;
        let mut needs_bisect = 0u64;
        for (i, &(iph, vt)) in xs.iter().enumerate() {
            if pending & (1 << i) != 0 {
                v[i] = (vt * (iph / self.i0).ln_1p()).min(self.hi);
            }
        }
        for _ in 0..NEWTON_ITERS {
            if pending == 0 {
                break;
            }
            let mut lanes = pending;
            while lanes != 0 {
                let i = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let (iph, vt) = xs[i];
                let e = (v[i] / vt).exp();
                let f = iph - self.i0 * (e - 1.0) - v[i] / self.r_shunt;
                let fp = -self.i0 * e / vt - 1.0 / self.r_shunt;
                let next = v[i] - f / fp;
                if !next.is_finite() || next < 0.0 || next > self.hi {
                    needs_bisect |= 1 << i;
                    pending &= !(1 << i);
                    continue;
                }
                if (next - v[i]).abs() <= 1e-12 * v[i].abs().max(1e-3) {
                    v[i] = next;
                    pending &= !(1 << i);
                    continue;
                }
                v[i] = next;
            }
        }
        // Lanes still pending after the budget keep their last iterate —
        // exactly what the scalar loop returns when it falls through.
        for (i, &(iph, vt)) in xs.iter().enumerate() {
            let bit = 1u64 << i;
            if mask & bit == 0 {
                continue;
            }
            out[i] = if needs_bisect & bit != 0 {
                self.bisect(iph, vt)
            } else {
                v[i]
            };
        }
    }
}

impl BatchSolve for PvVocSolver {
    type Input = (f64, f64);

    fn solve_one(&self, (iph, vt): (f64, f64)) -> f64 {
        if self.i0 <= 0.0 || !self.i0.is_finite() {
            return self.bisect(iph, vt);
        }
        let mut v = (vt * (iph / self.i0).ln_1p()).min(self.hi);
        for _ in 0..NEWTON_ITERS {
            let e = (v / vt).exp();
            let f = iph - self.i0 * (e - 1.0) - v / self.r_shunt;
            let fp = -self.i0 * e / vt - 1.0 / self.r_shunt;
            let next = v - f / fp;
            if !next.is_finite() || next < 0.0 || next > self.hi {
                return self.bisect(iph, vt);
            }
            if (next - v).abs() <= 1e-12 * v.abs().max(1e-3) {
                return next;
            }
            v = next;
        }
        v
    }

    fn solve_lanes(&self, xs: &[(f64, f64)], active: &[bool], out: &mut [f64]) {
        assert_eq!(xs.len(), active.len());
        assert_eq!(xs.len(), out.len());
        // Uniform broadcast: an unjittered fleet group hands every lane
        // the same snapshot, so one solve fans out to all of them.
        let mut uniform: Option<(u64, u64)> = None;
        let mut all_same = true;
        for (i, &(iph, vt)) in xs.iter().enumerate() {
            if !active[i] {
                continue;
            }
            let bits = (iph.to_bits(), vt.to_bits());
            match uniform {
                None => uniform = Some(bits),
                Some(u) if u == bits => {}
                Some(_) => {
                    all_same = false;
                    break;
                }
            }
        }
        if all_same {
            if let Some((iph, vt)) = uniform {
                let v = self.solve_one((f64::from_bits(iph), f64::from_bits(vt)));
                for (i, slot) in out.iter_mut().enumerate() {
                    if active[i] {
                        *slot = v;
                    }
                }
            }
            return;
        }
        for ((xs, active), out) in xs
            .chunks(LANE_BLOCK)
            .zip(active.chunks(LANE_BLOCK))
            .zip(out.chunks_mut(LANE_BLOCK))
        {
            let mut mask = 0u64;
            for (i, &a) in active.iter().enumerate() {
                if a {
                    mask |= 1 << i;
                }
            }
            if mask != 0 {
                self.solve_block(xs, mask, out);
            }
        }
    }
}

impl VocBatch for PvModule {
    fn voc_lanes(&self, envs: &[EnvConditions], out: &mut [f64]) {
        assert_eq!(envs.len(), out.len());
        let solver = self.voc_solver();
        let mut xs = [(0.0f64, 0.0f64); LANE_BLOCK];
        let mut active = [false; LANE_BLOCK];
        for (envs, out) in envs.chunks(LANE_BLOCK).zip(out.chunks_mut(LANE_BLOCK)) {
            for (i, env) in envs.iter().enumerate() {
                let iph = self.photocurrent(env.effective_irradiance());
                if iph <= 0.0 {
                    // Dead lane: the scalar path returns exactly zero
                    // without consulting the solver.
                    out[i] = 0.0;
                    active[i] = false;
                } else {
                    xs[i] = (iph, self.vt_stack(env));
                    active[i] = true;
                }
            }
            solver.solve_lanes(&xs[..envs.len()], &active[..envs.len()], out);
        }
    }
}

impl Transducer for PvModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> HarvesterKind {
        HarvesterKind::Photovoltaic
    }

    fn current_at(&self, v: Volts, env: &EnvConditions) -> Amps {
        if v.value() < 0.0 {
            return Amps::ZERO;
        }
        let iph = self.photocurrent(env.effective_irradiance());
        if iph <= 0.0 {
            return Amps::ZERO;
        }
        let vt = self.vt_stack(env);
        let diode = self.i0 * ((v.value() / vt).exp() - 1.0);
        let shunt = v.value() / self.r_shunt;
        Amps::new((iph - diode - shunt).max(0.0))
    }

    fn open_circuit_voltage(&self, env: &EnvConditions) -> Volts {
        let iph = self.photocurrent(env.effective_irradiance());
        if iph <= 0.0 {
            return Volts::ZERO;
        }
        Volts::new(self.solve_voc(iph, self.vt_stack(env)))
    }

    fn voc_batch(&self) -> Option<&dyn VocBatch> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_units::{Celsius, Lux, Seconds};

    fn stc() -> EnvConditions {
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.irradiance = WattsPerSqM::new(1000.0);
        env.ambient = Celsius::new(25.0);
        env.hot_surface = env.ambient;
        env
    }

    #[test]
    fn stc_endpoints_match_datasheet() {
        let pv = PvModule::outdoor_panel_half_watt();
        let env = stc();
        let isc = pv.short_circuit_current(&env);
        assert!((isc.as_milli() - 115.0).abs() < 1.0, "{isc}");
        let voc = pv.open_circuit_voltage(&env);
        assert!((voc.value() - 6.0).abs() < 0.05, "{voc}");
    }

    #[test]
    fn mpp_power_near_rating_with_sane_fill_factor() {
        let pv = PvModule::outdoor_panel_half_watt();
        let env = stc();
        let mpp = pv.mpp(&env);
        let p = mpp.power().value();
        assert!((0.40..0.62).contains(&p), "MPP power {p}");
        // Fill factor for silicon should be 0.6–0.85.
        let ff = p / (6.0 * 0.115);
        assert!((0.6..0.85).contains(&ff), "fill factor {ff}");
        // MPP voltage around 75–90 % of Voc.
        let vr = mpp.voltage.value() / 6.0;
        assert!((0.7..0.95).contains(&vr), "v_mpp/voc {vr}");
    }

    #[test]
    fn current_scales_linearly_with_irradiance() {
        let pv = PvModule::outdoor_panel_half_watt();
        let mut env = stc();
        env.irradiance = WattsPerSqM::new(500.0);
        let half = pv.short_circuit_current(&env);
        env.irradiance = WattsPerSqM::new(1000.0);
        let full = pv.short_circuit_current(&env);
        assert!((full.value() / half.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn voc_drops_with_irradiance_logarithmically() {
        let pv = PvModule::outdoor_panel_half_watt();
        let mut env = stc();
        let voc_full = pv.open_circuit_voltage(&env).value();
        env.irradiance = WattsPerSqM::new(10.0);
        let voc_low = pv.open_circuit_voltage(&env).value();
        assert!(voc_low < voc_full);
        assert!(voc_low > 0.3 * voc_full, "voc_low {voc_low}");
    }

    #[test]
    fn dark_cell_is_dead() {
        let pv = PvModule::outdoor_panel_half_watt();
        let env = EnvConditions::quiescent(Seconds::ZERO);
        assert_eq!(pv.short_circuit_current(&env), Amps::ZERO);
        assert_eq!(pv.open_circuit_voltage(&env), Volts::ZERO);
        assert_eq!(pv.mpp(&env).power().value(), 0.0);
    }

    #[test]
    fn indoor_cell_yields_microwatts_under_office_light() {
        let pv = PvModule::amorphous_indoor();
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.illuminance = Lux::new(500.0);
        let p = pv.mpp(&env).power();
        // Office light should yield on the order of 1–100 µW.
        assert!((1e-6..2e-4).contains(&p.value()), "indoor MPP power {p}");
    }

    #[test]
    fn current_monotonically_non_increasing_in_voltage() {
        let pv = PvModule::outdoor_panel_half_watt();
        let env = stc();
        let mut prev = f64::MAX;
        for i in 0..=120 {
            let v = Volts::new(i as f64 * 0.05);
            let i_v = pv.current_at(v, &env).value();
            assert!(i_v <= prev + 1e-15, "I rose at {v}");
            prev = i_v;
        }
    }

    #[test]
    fn hotter_cell_has_lower_voc() {
        let pv = PvModule::outdoor_panel_half_watt();
        let mut env = stc();
        env.ambient = Celsius::new(60.0);
        let hot = pv.open_circuit_voltage(&env);
        env.ambient = Celsius::new(0.0);
        let cold = pv.open_circuit_voltage(&env);
        // With I0 fixed, a hotter junction raises Vt but the exp argument
        // shrinks — net effect in this model is a higher Voc bound; what we
        // require is simply a finite, positive sensitivity and no blow-up.
        assert!(hot.value() > 0.0 && cold.value() > 0.0);
        assert!((hot.value() - cold.value()).abs() < 2.5);
    }

    #[test]
    #[should_panic(expected = "Isc must be positive")]
    fn rejects_bad_parameters() {
        PvModule::new("bad", Amps::ZERO, Volts::new(1.0), 1, 1.0, 1.0);
    }

    #[test]
    fn repeated_conditions_solve_bit_identically() {
        let pv = PvModule::outdoor_panel_half_watt();
        let env = stc();
        let voc1 = pv.open_circuit_voltage(&env);
        let mpp1 = pv.mpp(&env);
        let voc2 = pv.open_circuit_voltage(&env);
        let mpp2 = pv.mpp(&env);
        assert_eq!(voc1.value().to_bits(), voc2.value().to_bits());
        assert_eq!(
            mpp1.voltage.value().to_bits(),
            mpp2.voltage.value().to_bits()
        );
        assert_eq!(
            mpp1.current.value().to_bits(),
            mpp2.current.value().to_bits()
        );
        // The solve never reads `env.time`: advancing the clock under
        // identical ambients gives the same bits.
        let mut later = env;
        later.time = Seconds::from_hours(3.0);
        let voc4 = pv.open_circuit_voltage(&later);
        assert_eq!(voc1.value().to_bits(), voc4.value().to_bits());
        // A changed condition gives a different solve.
        let mut warmer = env;
        warmer.ambient = Celsius::new(26.0);
        let voc3 = pv.open_circuit_voltage(&warmer);
        assert_ne!(voc1.value().to_bits(), voc3.value().to_bits());
    }

    #[test]
    fn newton_voc_matches_the_root_to_high_precision() {
        // The solved Voc must be an actual root of the unclamped diode
        // equation, at every light level and temperature regime.
        for (g, t) in [
            (1000.0, 25.0),
            (500.0, 0.0),
            (100.0, 60.0),
            (10.0, 25.0),
            (1.0, -10.0),
        ] {
            let pv = PvModule::outdoor_panel_half_watt();
            let mut env = stc();
            env.irradiance = WattsPerSqM::new(g);
            env.ambient = Celsius::new(t);
            let voc = pv.open_circuit_voltage(&env).value();
            let vt = pv.vt_stack(&env);
            let iph = pv.photocurrent(env.effective_irradiance());
            let f = iph - pv.i0 * ((voc / vt).exp() - 1.0) - voc / pv.r_shunt;
            assert!(
                f.abs() < 1e-9 * iph.max(1e-6),
                "residual {f} at G={g}, T={t}"
            );
        }
    }
}
