//! The per-node stepping pieces every engine shares: the step plan
//! (whole steps plus a fractional closer, grouped into control
//! windows), the per-node books that fold each step's report, and the
//! plain-scalar outcome the books close into.
//!
//! The single-run kernel, the fleet's boxed nodes, the fleet's and the
//! arena's struct-of-arrays lanes all drive their steps through these,
//! so the step arithmetic, the served-fraction and outage tracking and
//! the conservation audit are written once.

use crate::fleet::EnvCadence;
use crate::runner::{SimConfig, SimResult};
use mseh_core::StepReport;
use mseh_units::{Joules, Seconds, Volts};

/// Shared, immutable step plan derived from a [`SimConfig`].
pub(crate) struct StepPlan {
    pub(crate) dt: Seconds,
    pub(crate) start_at: Seconds,
    pub(crate) duration: Seconds,
    pub(crate) full_steps: u64,
    pub(crate) frac_dt: Option<Seconds>,
    pub(crate) steps: u64,
    pub(crate) control_every: u64,
    pub(crate) cadence: EnvCadence,
}

impl StepPlan {
    /// Builds the plan from a [`SimConfig`] plus the sampling cadence.
    pub(crate) fn from_sim(sim: SimConfig, cadence: EnvCadence) -> Self {
        assert!(sim.dt.value() > 0.0, "dt must be positive");
        assert!(
            sim.duration >= sim.dt,
            "duration must cover at least one step"
        );
        // Truncate to whole steps and close the horizon with an explicit
        // fractional step: rounding the count would simulate up to half
        // a step past (or short of) the requested span, and ceiling
        // always overshoots. The dust guard keeps exact multiples (e.g.
        // one day of 60 s steps) from growing a ~1e-13 s ghost step.
        let full_steps = (sim.duration.value() / sim.dt.value()).floor() as u64;
        let frac_dt = {
            let rem = sim.duration.value() - full_steps as f64 * sim.dt.value();
            (rem > sim.dt.value() * 1e-9).then(|| Seconds::new(rem))
        };
        let steps = full_steps + u64::from(frac_dt.is_some());
        let control_every = (sim.control_interval.value() / sim.dt.value())
            .round()
            .max(1.0) as u64;
        Self {
            dt: sim.dt,
            start_at: sim.start_at,
            duration: sim.duration,
            full_steps,
            frac_dt,
            steps,
            control_every,
            cadence,
        }
    }

    #[inline]
    pub(crate) fn time_at(&self, i: u64) -> Seconds {
        self.start_at + Seconds::new(i as f64 * self.dt.value())
    }

    /// Width of step `j`: `dt`, or the fractional closer's width when
    /// `j` is the closing step.
    #[inline]
    pub(crate) fn step_dt(&self, j: u64) -> Seconds {
        match self.frac_dt {
            Some(frac) if j == self.full_steps => frac,
            _ => self.dt,
        }
    }

    /// Sample times for one site's condition table under the plan's
    /// cadence.
    pub(crate) fn table_times(&self) -> Vec<Seconds> {
        match self.cadence {
            EnvCadence::PerStep => (0..self.steps).map(|i| self.time_at(i)).collect(),
            EnvCadence::PerWindow => (0..self.steps)
                .step_by(self.control_every as usize)
                .map(|w| self.time_at(w))
                .collect(),
        }
    }
}

/// Fraction of demanded load energy that was served:
/// `1 − shortfall / demanded`, or 1 when nothing was demanded.
pub(crate) fn served_fraction(shortfall: Joules, demanded: Joules) -> f64 {
    if demanded.value() > 0.0 {
        1.0 - (shortfall.value() / demanded.value()).clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// Relative conservation residual: |signed residual| over storage
/// throughput, floored at 1 J.
pub(crate) fn audit_relative(residual_signed: f64, throughput: f64) -> f64 {
    residual_signed.abs() / throughput.max(1.0)
}

/// Everything the summary folds need from one node, in plain scalars so
/// shards stay cheap to ship back.
#[derive(Clone)]
pub(crate) struct NodeOutcome {
    pub(crate) uptime: f64,
    pub(crate) samples: f64,
    pub(crate) harvested: Joules,
    pub(crate) delivered: Joules,
    pub(crate) shortfall: Joules,
    pub(crate) demanded: Joules,
    pub(crate) converter_losses: Joules,
    pub(crate) brownout_steps: u64,
    pub(crate) longest_outage_steps: u64,
    pub(crate) min_store_voltage: Volts,
    pub(crate) audit_residual: f64,
    pub(crate) residual_signed: f64,
    pub(crate) throughput: f64,
    pub(crate) stranded: Joules,
}

impl NodeOutcome {
    pub(crate) fn to_sim_result(&self, duration: Seconds) -> SimResult {
        SimResult {
            duration,
            uptime: self.uptime,
            samples: self.samples,
            harvested: self.harvested,
            delivered: self.delivered,
            shortfall: self.shortfall,
            converter_losses: self.converter_losses,
            brownout_steps: self.brownout_steps,
            longest_outage_steps: self.longest_outage_steps,
            min_store_voltage: self.min_store_voltage,
            audit_residual: self.audit_residual,
            traces: None,
        }
    }
}

/// One node's running books: every step's [`StepReport`] folds in
/// through [`record`](Self::record), and [`close`](Self::close) runs
/// the storage conservation audit and derives the uptime.
///
/// Each field accumulates in step order and independently of the
/// others, so any loop that records the same reports in the same order
/// gets the same bits.
#[derive(Clone)]
pub(crate) struct NodeBooks {
    samples: f64,
    harvested: Joules,
    delivered: Joules,
    shortfall: Joules,
    demanded: Joules,
    charged: Joules,
    discharged: Joules,
    converter_losses: Joules,
    brownout_steps: u64,
    outage_run: u64,
    longest_outage: u64,
    min_v: Volts,
}

impl NodeBooks {
    pub(crate) fn new() -> Self {
        Self {
            samples: 0.0,
            harvested: Joules::ZERO,
            delivered: Joules::ZERO,
            shortfall: Joules::ZERO,
            demanded: Joules::ZERO,
            charged: Joules::ZERO,
            discharged: Joules::ZERO,
            converter_losses: Joules::ZERO,
            brownout_steps: 0,
            outage_run: 0,
            longest_outage: 0,
            min_v: Volts::new(f64::INFINITY),
        }
    }

    /// Books one step: `step_samples` is the data the step would yield
    /// fully served (scaled here by the step's served fraction), and
    /// `step_load_energy` the load energy it demanded. Reads every
    /// report field except `overhead` and `spilled`.
    #[inline]
    pub(crate) fn record(
        &mut self,
        report: &StepReport,
        step_samples: f64,
        step_load_energy: Joules,
    ) {
        self.harvested += report.harvested;
        self.delivered += report.delivered;
        self.shortfall += report.shortfall;
        self.charged += report.charged;
        self.discharged += report.discharged;
        self.converter_losses += report.converter_loss;
        self.demanded += step_load_energy;

        let served = if report.shortfall.value() > 0.0 {
            let full = (report.delivered + report.shortfall).value();
            if full > 0.0 {
                report.delivered.value() / full
            } else {
                0.0
            }
        } else {
            1.0
        };
        self.samples += step_samples * served;

        if report.shortfall.value() > 1e-12 {
            self.brownout_steps += 1;
            self.outage_run += 1;
            self.longest_outage = self.longest_outage.max(self.outage_run);
        } else {
            self.outage_run = 0;
        }
        self.min_v = self.min_v.min(report.store_voltage);
    }

    /// Closes the books against the node's storage: `d_stored` and
    /// `d_losses` are the changes in stored energy and cumulative
    /// storage losses over the run, `stranded` the energy active faults
    /// hold at its end.
    ///
    /// The audit checks the storage identity
    /// `charged − discharged − losses = Δstored` and reports its
    /// residual relative to total throughput (asserted below 1e-6 in
    /// debug builds).
    pub(crate) fn close(
        &self,
        d_stored: Joules,
        d_losses: Joules,
        stranded: Joules,
    ) -> NodeOutcome {
        let residual_signed = (self.charged - self.discharged - d_losses - d_stored).value();
        let throughput = (self.harvested + self.discharged + self.charged)
            .value()
            .max(1.0);
        let audit_residual = audit_relative(residual_signed, throughput);
        debug_assert!(
            audit_residual < 1e-6,
            "storage conservation violated: residual {residual_signed} J"
        );
        NodeOutcome {
            uptime: served_fraction(self.shortfall, self.demanded),
            samples: self.samples,
            harvested: self.harvested,
            delivered: self.delivered,
            shortfall: self.shortfall,
            demanded: self.demanded,
            converter_losses: self.converter_losses,
            brownout_steps: self.brownout_steps,
            longest_outage_steps: self.longest_outage,
            min_store_voltage: self.min_v,
            audit_residual,
            residual_signed,
            throughput,
            stranded,
        }
    }
}
