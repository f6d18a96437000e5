//! The percentile helpers, the result line and the metric tables.

use mseh_perfbench::stats::{percentile, sorted, tail, Report};
use mseh_perfbench::{emit, END_TO_END, PER_LAYER};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

/// Samples strictly beyond `value`.
fn beyond(samples: &[f64], value: f64) -> usize {
    samples.iter().filter(|&&x| x > value).count()
}

#[test]
fn nearest_rank_percentiles() {
    let s = ramp(10);
    assert_eq!(percentile(&s, 0.5), Some(5.0));
    assert_eq!(percentile(&s, 0.91), Some(10.0));
    assert_eq!(percentile(&s, 0.01), Some(1.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(sorted(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
}

#[test]
fn tail_is_p99_once_ten_samples_lie_beyond_it() {
    let s = ramp(1000);
    let (level, value) = tail(&s).expect("enough samples");
    assert_eq!(level, 0.99);
    assert_eq!(beyond(&s, value), 10);

    let s = ramp(5000);
    let (level, value) = tail(&s).expect("enough samples");
    assert_eq!(level, 0.99);
    assert_eq!(beyond(&s, value), 50);
}

#[test]
fn smaller_samples_get_the_highest_percentile_with_ten_beyond() {
    for n in [20, 21, 57, 100, 999] {
        let s = ramp(n);
        let (level, value) = tail(&s).expect("at least twenty samples");
        assert_eq!(beyond(&s, value), 10, "n = {n}");
        assert!((0.5..0.99).contains(&level), "n = {n}: level {level}");
    }
    assert_eq!(tail(&ramp(19)), None, "no tail above the median");
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let mut report = Report {
        attempted: 3,
        ..Report::default()
    };
    report.metric("setup_s", 0.25, "s");
    report.metric("ops_per_s", 12.0, "ops/s");
    let line = report.result_line();
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
         {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
         \"ops_per_s\": {\"value\": 12.0, \"unit\": \"ops/s\"}}}"
    );
    report.failed = 1;
    assert!(!report.correct());
    assert!(report.result_line().starts_with("{\"correct\": false"));
}

#[test]
fn emit_fills_every_declared_metric() {
    let mut report = Report::default();
    emit(&mut report, &PER_LAYER, &[("core.step_self_s", 1.5)]);
    assert_eq!(report.metrics.len(), PER_LAYER.len());
    let core = report
        .metrics
        .iter()
        .find(|m| m.name == "core.step_self_s")
        .expect("declared");
    assert_eq!(core.value, 1.5);
    assert!(report
        .metrics
        .iter()
        .filter(|m| m.name != "core.step_self_s")
        .all(|m| m.value == 0.0));
}

/// The metric tables printed by the binary match `BENCHMARK.json`.
#[test]
fn tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let listed = |section: &str| -> Vec<(String, String)> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').expect("name closes")].to_string();
                let unit_at = entry.find("\"unit\": \"").expect("unit present") + 9;
                let unit = entry
                    [unit_at..unit_at + entry[unit_at..].find('"').expect("unit closes")]
                    .to_string();
                (name, unit)
            })
            .collect()
    };
    let expect = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expect(&END_TO_END));
    assert_eq!(listed("per_layer"), expect(&PER_LAYER));
}
