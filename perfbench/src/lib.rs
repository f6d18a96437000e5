//! The repository benchmark: three workloads over the surveyed Table-I
//! platforms, timed end to end, plus a traced run that times each layer
//! from outside the program. See `README.md` beside this crate for the
//! metric → layer → workload table.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod serve;
pub mod stats;
pub mod survey;
pub mod trace;

use std::time::Instant;

/// One run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Measured seconds (a run completes the operation in flight).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Whether an energy-books residual closes below 1e-6 (NaN never does).
pub fn books_close(residual: f64) -> bool {
    residual.abs() < 1e-6
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Simulated 60 s steps in `days` (the kernel closes a fractional last
/// step, so a partial step counts as one).
pub fn steps_in(days: f64) -> u64 {
    (days * 1440.0).ceil() as u64
}

/// The median of `samples` (nearest rank), 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(samples), 0.5).unwrap_or(0.0)
}

/// Set-up time: the median over `batches` of the mean time to build
/// `per_batch` set-ups (batching keeps sub-millisecond set-ups above
/// timer and scheduler noise). Built values are dropped outside timing.
pub fn setup_time<T>(batches: usize, per_batch: usize, mut build: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            let built: Vec<T> = (0..per_batch).map(|_| build()).collect();
            let s = secs(start) / per_batch as f64;
            drop(built);
            s
        })
        .collect();
    median(&samples)
}

/// End-to-end metrics (untraced run), `(name, unit)`; every workload
/// reports every one.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("steps_per_s", "steps/s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics (traced run), `(name, unit)`; every workload
/// reports every one, 0 for a layer it does not run.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("env.sample_s", "s"),
    ("env.sample_calls", "count"),
    ("core.step_self_s", "s"),
    ("core.step_calls", "count"),
    ("storage.step_s", "s"),
    ("storage.calls", "count"),
    ("power.output_stage_s", "s"),
    ("node.policy_s", "s"),
    ("node.policy_calls", "count"),
    ("systems.build_s", "s"),
    ("sim.runner.self_s", "s"),
    ("sim.runner.steps_per_s", "steps/s"),
    ("sim.campaign.self_s", "s"),
    ("sim.campaign.steps_per_s", "steps/s"),
    ("sim.arena.self_s", "s"),
    ("sim.arena.lane_steps_per_s", "lane-steps/s"),
    ("sim.arena.lane_s.p50", "s"),
    ("sim.arena.lane_s.max", "s"),
    ("sim.parallel.idle_frac", "ratio"),
    ("sim.fleet.node_steps_per_s", "node-steps/s"),
    ("sim.fleet.shard_s.p50", "s"),
    ("sim.fleet.shard_s.max", "s"),
    ("sim.fleet.idle_frac", "ratio"),
    ("sim.fleet.lanes_self_s", "s"),
    ("sim.fleet.tables_s", "s"),
    ("sim.fleet.merge_s", "s"),
    ("sim.fleet.dense_share", "ratio"),
    ("sim.fleet.boxed_share", "ratio"),
    ("sim.serve.submit_ack_ms.p50", "ms"),
    ("sim.serve.recv_ms.p50", "ms"),
    ("daemon.prepare_ms.p50", "ms"),
    ("sim.serve.queue_wait_ms.p50", "ms"),
    ("sim.serve.queue_wait_ms.p99", "ms"),
    ("daemon.run_ms.single", "ms"),
    ("daemon.run_ms.campaign", "ms"),
    ("daemon.run_ms.fleet", "ms"),
    ("daemon.run_ms.arena", "ms"),
    ("sim.serve.deliver_ms.p50", "ms"),
    ("sim.serve.deliver_ms.p99", "ms"),
    ("sim.serve.worker_busy_frac", "ratio"),
    ("sim.serve.events_per_job", "count"),
    ("sim.serve.rejected", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_frac", "ratio"),
];

/// Copies `values` into `report` in the order of `table`; a name the
/// workload did not measure reports 0.
pub fn emit(
    report: &mut stats::Report,
    table: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) {
    for &(name, unit) in table {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        report.metric(name, value, unit);
    }
    for (name, _) in values {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
}

/// A thread-seconds breakdown: named parts against the capacity they
/// share, printed so the parts visibly add up to the traced wall time.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Traced wall time of the measured phase, seconds.
    pub wall_s: f64,
    /// Thread-seconds available: each span's wall time × the threads it
    /// fanned out over, summed.
    pub capacity_s: f64,
    /// `(layer, self thread-seconds)`.
    pub parts: Vec<(&'static str, f64)>,
}

impl Breakdown {
    /// Capacity minus every part, as a fraction of capacity.
    pub fn unattributed_frac(&self) -> f64 {
        if self.capacity_s <= 0.0 {
            return 0.0;
        }
        let attributed: f64 = self.parts.iter().map(|(_, s)| s).sum();
        (self.capacity_s - attributed) / self.capacity_s
    }

    /// The table printed beside the traced wall time.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "trace: wall {:.3} s, capacity {:.3} thread-s",
            self.wall_s, self.capacity_s
        )];
        for (name, s) in &self.parts {
            out.push(format!(
                "trace:   {name:<28} {s:>9.4} thread-s  {:>6.2} %",
                100.0 * s / self.capacity_s.max(1e-12)
            ));
        }
        out.push(format!(
            "trace:   {:<28} {:>9.4} thread-s  {:>6.2} %",
            "(unattributed)",
            self.capacity_s * self.unattributed_frac(),
            100.0 * self.unattributed_frac()
        ));
        out
    }
}
