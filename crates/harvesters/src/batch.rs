//! Batched open-circuit-voltage solves for struct-of-arrays fleet lanes.
//!
//! The fleet engine's dense lanes evaluate one harvester model against
//! many per-node environment snapshots at once. [`VocBatch`] is the
//! object-safe surface it drives: a single pass that writes each lane's
//! open-circuit voltage into a contiguous output slice, without the
//! caller reaching into model internals.
//!
//! # Contract
//!
//! For every lane `i`, `voc_lanes` must produce **exactly** the bits
//! [`Transducer::open_circuit_voltage`](crate::Transducer::open_circuit_voltage)
//! would return for `envs[i]` — same iteration arithmetic, same guard
//! paths, same dead-source zeros. Batched and scalar simulation tiers
//! stay bit-identical
//! because the batch kernels replicate the scalar iterate sequence under
//! a convergence mask instead of inventing a new numerical scheme; see
//! [`BatchSolve`](mseh_units::BatchSolve) for the masking rules.

use mseh_env::EnvConditions;

/// A harvester that can solve open-circuit voltages for many environment
/// snapshots in one struct-of-arrays pass.
///
/// Object-safe on purpose: the fleet engine discovers the kernel through
/// [`Transducer::voc_batch`](crate::Transducer::voc_batch) on a
/// `&dyn Transducer` and never names the concrete model type.
pub trait VocBatch {
    /// Writes the open-circuit voltage for `envs[i]` into `out[i]`, for
    /// every lane.
    ///
    /// Each lane must match the scalar
    /// [`open_circuit_voltage`](crate::Transducer::open_circuit_voltage)
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `envs` and `out` differ in length.
    fn voc_lanes(&self, envs: &[EnvConditions], out: &mut [f64]);
}

#[cfg(test)]
mod tests {
    use crate::transducer::Transducer;
    use crate::{PvModule, Teg};
    use mseh_env::EnvConditions;
    use mseh_units::{Celsius, Lux, Seconds, WattsPerSqM};

    /// SplitMix64: deterministic test randomness without external crates.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A spread of environments exercising every solver path: dark lanes,
    /// indoor lux levels, full sun, hot and cold junctions.
    fn env_sweep(seed: u64, n: usize) -> Vec<EnvConditions> {
        let mut s = seed;
        (0..n)
            .map(|i| {
                let mut env = EnvConditions::quiescent(Seconds::new(i as f64));
                match i % 4 {
                    0 => {} // dead calm: dark, no gradient
                    1 => {
                        env.irradiance = WattsPerSqM::new(1200.0 * unit(&mut s));
                        env.ambient = Celsius::new(-10.0 + 60.0 * unit(&mut s));
                    }
                    2 => {
                        env.illuminance = Lux::new(900.0 * unit(&mut s));
                        env.hot_surface = Celsius::new(20.0 + 70.0 * unit(&mut s));
                    }
                    _ => {
                        env.irradiance = WattsPerSqM::new(600.0 * unit(&mut s));
                        env.illuminance = Lux::new(400.0 * unit(&mut s));
                        env.ambient = Celsius::new(35.0 * unit(&mut s));
                        // Reverse gradients included: hot side may be colder.
                        env.hot_surface =
                            Celsius::new(env.ambient.value() - 15.0 + 60.0 * unit(&mut s));
                    }
                }
                env
            })
            .collect()
    }

    fn assert_lanes_match_scalar(h: &dyn Transducer, seed: u64) {
        let envs = env_sweep(seed, 257); // deliberately not a lane-block multiple
        let batch = h.voc_batch().expect("harvester advertises a batch kernel");
        let mut out = vec![f64::NAN; envs.len()];
        batch.voc_lanes(&envs, &mut out);
        for (i, env) in envs.iter().enumerate() {
            let scalar = h.open_circuit_voltage(env).value();
            assert_eq!(
                out[i].to_bits(),
                scalar.to_bits(),
                "{}: lane {i} diverged ({} vs {scalar})",
                h.name(),
                out[i]
            );
        }
    }

    #[test]
    fn pv_lanes_match_scalar_bitwise() {
        for seed in [1u64, 77, 4096] {
            assert_lanes_match_scalar(&PvModule::outdoor_panel_half_watt(), seed);
            assert_lanes_match_scalar(&PvModule::outdoor_panel_two_watt(), seed);
            assert_lanes_match_scalar(&PvModule::amorphous_indoor(), seed);
        }
    }

    #[test]
    fn teg_lanes_match_scalar_bitwise() {
        for seed in [2u64, 99] {
            assert_lanes_match_scalar(&Teg::module_40mm(), seed);
            assert_lanes_match_scalar(&Teg::thin_film(), seed);
        }
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn mismatched_lane_lengths_panic() {
        let pv = PvModule::outdoor_panel_half_watt();
        let envs = env_sweep(9, 8);
        let mut out = vec![0.0; 7];
        pv.voc_batch().unwrap().voc_lanes(&envs, &mut out);
    }
}
