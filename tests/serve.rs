//! End-to-end tests of the `mseh serve` daemon over real TCP sockets,
//! driving the [`SystemCatalog`] job runner exactly as a remote client
//! would: submit → status → subscribe → result, plus the contract
//! checks the service mode promises — queue-full backpressure,
//! cooperative cancellation that leaves the worker pool reusable,
//! deterministic receipts on resubmission, and bit-identical digests
//! between a streamed job and the same scenario run in-process.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mseh::daemon::{
    build_arena_spec, build_fleet_spec, digest_arena, digest_fleet, digest_single, fleet_config,
    make_env, make_policy, SystemCatalog,
};
use mseh::node::SensorNode;
use mseh::sim::serve::protocol::parse_line;
use mseh::sim::serve::{serve, ServeConfig, ServerHandle};
use mseh::sim::{run_arena, run_fleet, run_simulation, ArenaConfig, DenseSolveTier, SimConfig};
use mseh::systems::SystemId;
use mseh::units::Seconds;

/// Starts a daemon on an ephemeral port with the real system catalog.
fn start(queue_capacity: usize, workers: usize) -> ServerHandle {
    serve(
        "127.0.0.1:0",
        Arc::new(SystemCatalog),
        ServeConfig {
            queue_capacity,
            workers,
            retry_after_ms: 50,
        },
    )
    .expect("bind ephemeral port")
}

/// A line-oriented protocol client on its own connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "server closed the connection");
        line.trim_end().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

/// Field lookup on a reply line (`ok id=job-1;state=queued` …).
fn field(reply: &str, key: &str) -> Option<String> {
    let req = parse_line(reply).expect("well-formed reply")?;
    req.get(key).map(str::to_string)
}

fn job_id(reply: &str) -> String {
    assert!(reply.starts_with("ok "), "expected ok reply, got {reply}");
    field(reply, "id").expect("id field")
}

/// Polls `status` until the job reaches `want` (or panics after 60 s).
fn wait_for_state(client: &mut Client, id: &str, want: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let reply = client.roundtrip(&format!("status id={id}"));
        let state = field(&reply, "state").expect("state field");
        if state == want {
            return reply;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {state}, wanted {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Submits and waits until `done`, returning the `result` reply.
fn run_to_result(client: &mut Client, submit: &str) -> String {
    let id = job_id(&client.roundtrip(submit));
    wait_for_state(client, &id, "done");
    let reply = client.roundtrip(&format!("result id={id}"));
    assert!(reply.starts_with("ok "), "result failed: {reply}");
    reply
}

/// The reply with its `id=` field blanked, for byte-comparisons
/// across resubmissions of the same spec.
fn without_id(reply: &str) -> String {
    let req = parse_line(reply).expect("reply parses").expect("non-empty");
    let mut out = req.verb;
    for (k, v) in &req.fields {
        if k == "id" {
            continue;
        }
        out.push_str(&format!(" {k}={v};"));
    }
    out
}

#[test]
fn lifecycle_submit_status_subscribe_result() {
    let handle = start(8, 2);
    let mut client = Client::connect(&handle);

    assert_eq!(client.roundtrip("ping"), "ok pong=1");

    let submit = "submit kind=single;system=B;env=indoor;days=0.2;seed=9;policy=neutral";
    let reply = client.roundtrip(submit);
    assert_eq!(field(&reply, "state").as_deref(), Some("queued"));
    let id = job_id(&reply);
    assert!(
        field(&reply, "spec_hash").is_some(),
        "receipt starts at submit"
    );

    // A second connection subscribes and sees events then the done line.
    let mut watcher = Client::connect(&handle);
    let ack = watcher.roundtrip(&format!("subscribe id={id}"));
    assert_eq!(field(&ack, "subscribed").as_deref(), Some("1"));
    let mut saw_event = false;
    loop {
        let line = watcher.recv();
        if line.starts_with("event ") {
            assert_eq!(field(&line, "id").as_deref(), Some(id.as_str()));
            saw_event = true;
        } else if line.starts_with("done ") {
            assert_eq!(field(&line, "state").as_deref(), Some("done"));
            assert!(field(&line, "digest").is_some());
            break;
        } else {
            panic!("unexpected stream line: {line}");
        }
    }
    assert!(saw_event, "subscriber saw no progress events");

    let result = client.roundtrip(&format!("result id={id}"));
    assert!(result.starts_with("ok "), "{result}");
    assert_eq!(field(&result, "state").as_deref(), Some("done"));
    assert_eq!(field(&result, "seed").as_deref(), Some("9"));
    assert!(field(&result, "uptime").is_some());

    handle.shutdown_and_wait();
}

#[test]
fn streamed_single_digest_matches_direct_run_bit_for_bit() {
    let handle = start(8, 2);
    let mut client = Client::connect(&handle);

    let result = run_to_result(
        &mut client,
        "submit kind=single;system=C;env=outdoor;days=0.25;seed=11;policy=ladder",
    );
    let wire_digest = field(&result, "digest").expect("digest field");

    // The same scenario, run in-process through the plain kernel.
    let mut unit = SystemId::C.build();
    let environment = make_env("outdoor", 11).unwrap();
    let mut policy = make_policy("ladder").unwrap();
    let node = SensorNode::milliwatt_class();
    let direct = run_simulation(
        &mut unit,
        &environment,
        &node,
        policy.as_mut(),
        SimConfig::over(Seconds::from_days(0.25)),
    );
    assert_eq!(
        wire_digest,
        format!("{:016x}", digest_single(&direct)),
        "daemon and direct kernel disagree bit-for-bit"
    );

    handle.shutdown_and_wait();
}

#[test]
fn streamed_fleet_digest_matches_direct_run_bit_for_bit() {
    let handle = start(8, 2);
    let mut client = Client::connect(&handle);

    let result = run_to_result(
        &mut client,
        "submit kind=fleet;system=E;env=office;days=0.1;seed=5;population=24;jitter=0.1",
    );
    let wire_digest = field(&result, "digest").expect("digest field");

    let spec = build_fleet_spec(SystemId::E, "office", 5, 24, "ladder", 0.1);
    let direct = run_fleet(&spec, fleet_config(0.1, DenseSolveTier::Batched, 16));
    assert_eq!(
        wire_digest,
        format!("{:016x}", digest_fleet(&direct.summary)),
        "daemon and direct fleet engine disagree bit-for-bit"
    );

    handle.shutdown_and_wait();
}

#[test]
fn batched_tier_fleet_job_digest_matches_direct_run_bit_for_bit() {
    let handle = start(8, 2);
    let mut client = Client::connect(&handle);

    // Explicit solve-tier and shard-geometry fields on the wire; the
    // in-process reproduction passes the same knobs straight to the
    // fleet engine and the digests must agree bit for bit.
    let result = run_to_result(
        &mut client,
        "submit kind=fleet;system=E;env=office;days=0.1;seed=5;population=24;jitter=0.1;\
         dense_tier=batched;shard_size=8",
    );
    let wire_digest = field(&result, "digest").expect("digest field");

    let spec = build_fleet_spec(SystemId::E, "office", 5, 24, "ladder", 0.1);
    let direct = run_fleet(&spec, fleet_config(0.1, DenseSolveTier::Batched, 8));
    assert_eq!(
        wire_digest,
        format!("{:016x}", digest_fleet(&direct.summary)),
        "batched-tier wire job and direct fleet engine disagree bit-for-bit"
    );

    handle.shutdown_and_wait();
}

#[test]
fn removed_interp_tier_is_rejected_and_daemon_keeps_serving() {
    let handle = start(8, 2);
    let mut client = Client::connect(&handle);

    // `interp:<n>` is not a tier: exactly one error line answers it, and
    // it names the valid tiers.
    let reply = client.roundtrip(
        "submit kind=fleet;system=E;env=office;days=0.1;seed=5;population=24;\
         dense_tier=interp:4096",
    );
    assert!(reply.starts_with("err "), "got {reply}");
    assert_eq!(field(&reply, "code").as_deref(), Some("bad_spec"));
    assert!(
        reply.contains("scalar") && reply.contains("batched"),
        "error must name the valid tiers: {reply}"
    );
    // Nothing else was queued behind the error: the next line answers
    // the next request.
    assert_eq!(client.roundtrip("ping"), "ok pong=1");

    // The daemon is still up and serves the next valid fleet job.
    let result = run_to_result(
        &mut client,
        "submit kind=fleet;system=E;env=office;days=0.1;seed=5;population=24;\
         dense_tier=batched",
    );
    assert_eq!(field(&result, "state").as_deref(), Some("done"));
    let spec = build_fleet_spec(SystemId::E, "office", 5, 24, "ladder", 0.0);
    let direct = run_fleet(&spec, fleet_config(0.1, DenseSolveTier::Batched, 16));
    assert_eq!(
        field(&result, "digest").expect("digest"),
        format!("{:016x}", digest_fleet(&direct.summary)),
    );

    handle.shutdown_and_wait();
}

#[test]
fn streamed_arena_digest_matches_direct_run_bit_for_bit() {
    let handle = start(8, 2);
    let mut client = Client::connect(&handle);

    let result = run_to_result(
        &mut client,
        "submit kind=arena;system=B;env=indoor;days=0.1;seed=9;seeds=2;\
         roster=ladder,neutral,fixed:0.05,hillclimb",
    );
    let wire_digest = field(&result, "digest").expect("digest field");

    let spec = build_arena_spec(
        SystemId::B,
        "indoor",
        9,
        2,
        "ladder,neutral,fixed:0.05,hillclimb",
    )
    .expect("valid arena spec");
    let direct = run_arena(&spec, ArenaConfig::over(Seconds::from_days(0.1)));
    assert_eq!(
        wire_digest,
        format!("{:016x}", digest_arena(&direct.summary)),
        "daemon and direct arena engine disagree bit-for-bit"
    );
    assert_eq!(
        field(&result, "winner").expect("winner field"),
        direct.summary.standings[0].name,
    );
    assert_eq!(field(&result, "lanes").as_deref(), Some("8"));

    handle.shutdown_and_wait();
}

#[test]
fn resubmitting_a_spec_yields_identical_receipts_and_summaries() {
    let handle = start(8, 1);
    let mut client = Client::connect(&handle);

    let submit = "submit kind=campaign;system=A;days=0.1;seed=3;seeds=3";
    let first = run_to_result(&mut client, submit);
    let second = run_to_result(&mut client, submit);

    assert_ne!(field(&first, "id"), field(&second, "id"));
    // Everything but the job id — receipt (seed, spec_hash, digest) and
    // the full summary — must match byte for byte.
    assert_eq!(without_id(&first), without_id(&second));

    // Field order on the wire must not change the receipt's spec hash.
    let reordered = run_to_result(
        &mut client,
        "submit kind=campaign;seeds=3;seed=3;days=0.1;system=A",
    );
    assert_eq!(field(&first, "spec_hash"), field(&reordered, "spec_hash"));
    assert_eq!(field(&first, "digest"), field(&reordered, "digest"));

    handle.shutdown_and_wait();
}

#[test]
fn full_queue_gets_backpressure_and_drains() {
    let handle = start(1, 1);
    let mut client = Client::connect(&handle);

    // One long job occupies the worker, one fills the queue.
    let long = "submit kind=single;system=A;days=2000;seed=1";
    let running = job_id(&client.roundtrip(long));
    wait_for_state(&mut client, &running, "running");
    let queued = job_id(&client.roundtrip("submit kind=single;system=A;days=2000;seed=2"));

    let reply = client.roundtrip("submit kind=single;system=A;days=2000;seed=3");
    assert!(reply.starts_with("err "), "{reply}");
    assert_eq!(field(&reply, "code").as_deref(), Some("queue_full"));
    assert_eq!(field(&reply, "retry_after_ms").as_deref(), Some("50"));

    // Cancelling the queued job frees capacity immediately; the next
    // submission is accepted.
    let reply = client.roundtrip(&format!("cancel id={queued}"));
    assert_eq!(field(&reply, "state").as_deref(), Some("cancelled"));
    let reply = client.roundtrip("submit kind=single;system=A;days=0.05;seed=4");
    assert!(
        reply.starts_with("ok "),
        "backpressure did not clear: {reply}"
    );
    let small = job_id(&reply);

    // Cancel the running job; the worker must come back and finish the
    // small job — the pool stays reusable after a mid-run cancel.
    let reply = client.roundtrip(&format!("cancel id={running}"));
    assert_eq!(field(&reply, "state").as_deref(), Some("cancelling"));
    wait_for_state(&mut client, &running, "cancelled");
    wait_for_state(&mut client, &small, "done");

    handle.shutdown_and_wait();
}

#[test]
fn cancelling_a_running_fleet_job_is_prompt_and_leaves_pool_reusable() {
    let handle = start(4, 1);
    let mut client = Client::connect(&handle);

    // A fleet big enough to still be running when cancel arrives.
    let id = job_id(
        &client.roundtrip("submit kind=fleet;system=A;env=outdoor;days=30;seed=2;population=4000"),
    );
    wait_for_state(&mut client, &id, "running");

    let asked = Instant::now();
    let reply = client.roundtrip(&format!("cancel id={id}"));
    assert_eq!(field(&reply, "state").as_deref(), Some("cancelling"));
    wait_for_state(&mut client, &id, "cancelled");
    // Generous wall-clock bound: the token is checked every control
    // window, so the cancel must land far faster than the full run.
    assert!(
        asked.elapsed() < Duration::from_secs(30),
        "cancel took {:?}",
        asked.elapsed()
    );

    // A cancelled job has no result — the reply says so.
    let reply = client.roundtrip(&format!("result id={id}"));
    assert_eq!(field(&reply, "code").as_deref(), Some("job_cancelled"));

    // The lone worker is free again: a fresh job runs to done.
    let result = run_to_result(
        &mut client,
        "submit kind=fleet;system=A;days=0.05;seed=8;population=8",
    );
    assert_eq!(field(&result, "state").as_deref(), Some("done"));

    handle.shutdown_and_wait();
}

#[test]
fn malformed_specs_get_protocol_errors_and_daemon_survives() {
    let handle = start(8, 1);
    let mut client = Client::connect(&handle);

    let bad = [
        // Unknown kind, missing system, unknown system.
        "submit kind=teleport",
        "submit kind=single",
        "submit kind=single;system=Z",
        // Unknown and duplicated fields.
        "submit kind=single;system=A;dys=3",
        "submit kind=single;system=A;seed=1;seed=2",
        // Out-of-range values that used to panic the fleet engine.
        "submit kind=fleet;system=A;population=0",
        "submit kind=fleet;system=A;days=0",
        "submit kind=fleet;system=A;days=nan",
        "submit kind=fleet;system=A;jitter=2",
        "submit kind=campaign;system=A;seeds=0",
        "submit kind=single;system=A;days=-1",
        // Solve-tier and shard knobs: bad spellings and ranges.
        "submit kind=fleet;system=A;dense_tier=warp",
        "submit kind=fleet;system=A;dense_tier=interp:64",
        "submit kind=fleet;system=A;shard_size=0",
        "submit kind=single;system=A;dense_tier=batched",
        // Arena specs: bad rosters, bad seed counts, fleet-only knobs.
        "submit kind=arena",
        "submit kind=arena;system=A;roster=warp",
        "submit kind=arena;system=A;roster=ladder,ladder",
        "submit kind=arena;system=A;seeds=0",
        "submit kind=arena;system=A;population=4",
    ];
    for line in bad {
        let reply = client.roundtrip(line);
        assert!(reply.starts_with("err "), "{line:?} got {reply}");
        assert_eq!(
            field(&reply, "code").as_deref(),
            Some("bad_spec"),
            "{line:?} got {reply}"
        );
    }

    // Wire-level garbage is an error too, not a disconnect.
    let reply = client.roundtrip("!!! not a verb");
    assert_eq!(field(&reply, "code").as_deref(), Some("bad_request"));
    let reply = client.roundtrip("submit kind");
    assert_eq!(field(&reply, "code").as_deref(), Some("bad_request"));

    // After all that abuse the daemon still schedules real work.
    assert_eq!(client.roundtrip("ping"), "ok pong=1");
    let result = run_to_result(&mut client, "submit kind=single;system=A;days=0.05;seed=1");
    assert_eq!(field(&result, "state").as_deref(), Some("done"));

    handle.shutdown_and_wait();
}
