//! The closed-loop client against an in-process daemon running a tiny
//! job mix: every kind of job completes, its `done` digest matches the
//! in-process run, and the traced runner sees every job.

use mseh::daemon::SystemCatalog;
use mseh::sim::serve::JobRunner;
use mseh_perfbench::serve::{drive, field, start, verify, Job, TracedRunner};
use std::sync::Arc;

#[test]
fn tiny_mix_completes_and_matches_in_process_runs() {
    let runner = Arc::new(TracedRunner::new(SystemCatalog));
    let (handle, clients) =
        start(runner.clone() as Arc<dyn JobRunner>).expect("daemon on loopback");
    let (trips, _wall) = drive(clients, 42, 600.0, 10);
    handle.shutdown_and_wait();

    assert_eq!(trips.len(), 10);
    let indices: Vec<u64> = trips.iter().map(|t| t.job.index).collect();
    assert_eq!(
        indices,
        (0..10).collect::<Vec<_>>(),
        "jobs come back in index order"
    );
    let mut kinds: Vec<&str> = trips.iter().map(|t| t.job.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds, ["arena", "campaign", "fleet", "single"]);
    for trip in &trips {
        assert!(
            trip.succeeded(),
            "{} -> {} / {:?}",
            trip.job.wire(),
            trip.ack,
            trip.done
        );
        assert!(trip.latency_ms().expect("finished") > 0.0);
    }

    let (failed, _digest) = verify(&trips);
    assert_eq!(failed, 0, "every done digest equals the in-process run");

    let marks = runner.marks();
    for trip in &trips {
        let hash = field(&trip.ack, "spec_hash").expect("ack carries the spec hash");
        let hash = u64::from_str_radix(&hash, 16).expect("hex spec hash");
        let m = marks.get(&hash).expect("traced runner saw the job");
        let (run_start, run_end) = m.run.expect("the job ran");
        assert!(trip.sent <= m.prepare.0 && m.prepare.1 <= run_start && run_start <= run_end);
        assert!(run_end <= trip.done_at.expect("finished"));
    }
}

#[test]
fn specs_never_repeat_and_parse_on_the_wire() {
    let jobs: Vec<Job> = (0..200).map(|i| Job::nth(7, i)).collect();
    let mut wires: Vec<String> = jobs.iter().map(Job::wire).collect();
    wires.sort();
    wires.dedup();
    assert_eq!(wires.len(), jobs.len());
    assert_eq!(
        Job::nth(7, 3),
        Job::nth(7, 3),
        "jobs are pure functions of seed and index"
    );
    assert_ne!(Job::nth(7, 3), Job::nth(8, 3));
    let singles = jobs.iter().filter(|j| j.kind == "single").count();
    assert_eq!(singles, 140, "mostly single jobs");
}
