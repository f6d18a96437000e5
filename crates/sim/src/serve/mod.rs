//! The `mseh serve` daemon: a long-running TCP service that queues,
//! runs, cancels, and streams simulation jobs.
//!
//! The service is generic over a [`JobRunner`]: the binary crate
//! supplies one that knows the reference-system catalog, while this
//! module owns everything protocol- and lifecycle-shaped — the
//! newline-delimited `key=value;` wire grammar ([`protocol`]), the
//! bounded job queue with explicit backpressure, per-job cancellation
//! tokens, and window-batched event streaming to subscribers.
//!
//! # Lifecycle
//!
//! ```text
//! submit ──▶ queued ──▶ running ──▶ done
//!               │           │   └──▶ failed   (run error / panic)
//!               └──────────▶└──────▶ cancelled
//! ```
//!
//! A full queue rejects `submit` with `err code=queue_full;
//! retry_after_ms=…` — jobs are never silently dropped and the
//! connection never hangs. `cancel` trips the job's [`CancelToken`];
//! every kernel loop checks it once per control window, so a running
//! fleet job stops within one window of compute per in-flight node.
//! Each finished job carries a determinism receipt (`seed`,
//! `spec_hash`, `digest`): re-submitting the same spec must reproduce
//! the same digest bit for bit.

pub mod protocol;
mod queue;
mod registry;
mod session;

pub use registry::JobState;

use crate::cancel::CancelToken;
use protocol::{fnv1a64, normalize_spec};
use registry::Shared;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A parsed job submission: the job kind (`single`, `campaign`,
/// `fleet`, …) and its declarative `key=value` spec fields in wire
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The `kind=` field of the `submit` line.
    pub kind: String,
    /// Every other spec field, in wire order.
    pub fields: Vec<(String, String)>,
}

impl JobSpec {
    /// First value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The 64-bit FNV-1a hash of the normalized spec (kind plus fields
    /// sorted by key) — the `spec_hash` of the job's determinism
    /// receipt.
    pub fn spec_hash(&self) -> u64 {
        fnv1a64(normalize_spec(&self.kind, &self.fields).as_bytes())
    }
}

/// What a finished job reports: a bit-exact summary digest (see
/// [`protocol::Digest`]) and flat `key=value` summary fields for the
/// `done`/`result` reply lines.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// FNV-1a digest over the summary's raw values; two runs of the
    /// same spec must produce equal digests.
    pub digest: u64,
    /// Summary fields appended to the `done` and `result` replies.
    pub fields: Vec<(String, String)>,
}

/// The closure a prepared job runs on a worker thread. `Ok(None)`
/// means the run observed its cancellation token and stopped.
pub type JobRun = Box<dyn FnOnce(&JobContext) -> Result<Option<JobOutput>, String> + Send>;

/// A validated job, ready to queue: its determinism seed and the run
/// closure.
pub struct PreparedJob {
    /// The seed recorded in the job's determinism receipt.
    pub seed: u64,
    /// The work itself, executed on a worker thread.
    pub run: JobRun,
}

impl std::fmt::Debug for PreparedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedJob")
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Turns declarative job specs into runnable work. Implementations
/// must validate eagerly: a malformed spec returns `Err` from
/// [`JobRunner::prepare`] (becoming a protocol error reply) and must
/// never panic the daemon.
pub trait JobRunner: Send + Sync {
    /// Validates `spec` and returns the prepared job, or a
    /// human-readable error for the `err code=bad_spec` reply.
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob, String>;
}

/// Handed to a running job: its cancellation token and the event
/// stream back to subscribers.
pub struct JobContext {
    pub(crate) id: String,
    pub(crate) cancel: CancelToken,
    pub(crate) shared: Arc<Shared>,
}

impl JobContext {
    /// The job's wire id (`job-N`).
    pub fn job_id(&self) -> &str {
        &self.id
    }

    /// The job's cancellation token, for threading into
    /// `run_simulation_cancellable` / `run_fleet_controlled` /
    /// `run_resilience_campaign_cancellable`.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Emits one `event` line to the job's subscribers (buffered for
    /// late subscribers). Emit at window-batched cadence, not per
    /// step.
    pub fn emit(&self, fields: &[(&str, String)]) {
        self.shared.append_event(&self.id, fields);
    }
}

impl std::fmt::Debug for JobContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobContext")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// A queued run: the closure plus the token `cancel`/shutdown trips.
pub(crate) struct StoredRun {
    pub(crate) run: JobRun,
    pub(crate) cancel: CancelToken,
}

/// Daemon sizing: queue bound, worker count, and the backpressure
/// retry hint.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum queued (not yet running) jobs; a full queue rejects
    /// `submit` with `err code=queue_full`.
    pub queue_capacity: usize,
    /// Worker threads draining the queue. Each job may itself fan out
    /// over the `par_map` pool, so a small number is usually right.
    pub workers: usize,
    /// The `retry_after_ms` hint in backpressure replies.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 8,
            workers: 2,
            retry_after_ms: 250,
        }
    }
}

/// A running daemon: its bound address and the threads to join on
/// shutdown.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begins shutdown: stops accepting, cancels queued jobs, trips
    /// running jobs' tokens. Idempotent; does not block.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has begun (via [`ServerHandle::shutdown`] or
    /// the wire `shutdown` verb).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Blocks until the daemon has fully stopped: the accept loop,
    /// every worker, and every client session have exited. Call after
    /// [`ServerHandle::shutdown`] (or after a client sent the wire
    /// `shutdown` verb) — waiting on a live daemon blocks until one
    /// arrives.
    pub fn wait(mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let sessions =
            std::mem::take(&mut *self.sessions.lock().unwrap_or_else(|e| e.into_inner()));
        for session in sessions {
            let _ = session.join();
        }
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::wait`].
    pub fn shutdown_and_wait(self) {
        self.shutdown();
        self.wait();
    }
}

/// Starts the daemon on `addr` (use port 0 for an ephemeral port) and
/// returns immediately; jobs are validated by `runner`. All threads —
/// the accept loop, `config.workers` queue workers, and one thread per
/// client connection — are owned by the returned handle.
pub fn serve(
    addr: &str,
    runner: Arc<dyn JobRunner>,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared::new(config.queue_capacity, config.retry_after_ms));
    let workers = queue::spawn_workers(&shared, config.workers);
    let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_shared = Arc::clone(&shared);
    let accept_sessions = Arc::clone(&sessions);
    let accept = std::thread::Builder::new()
        .name("mseh-serve-accept".to_string())
        .spawn(move || {
            while !accept_shared.is_shutting_down() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(false);
                        let shared = Arc::clone(&accept_shared);
                        let session_runner = Arc::clone(&runner);
                        let handle = std::thread::Builder::new()
                            .name("mseh-serve-session".to_string())
                            .spawn(move || {
                                session::handle_connection(stream, shared, session_runner);
                            });
                        if let Ok(handle) = handle {
                            let mut sessions =
                                accept_sessions.lock().unwrap_or_else(|e| e.into_inner());
                            // Reap closed sessions so the list tracks live
                            // connections, not every connection ever made.
                            sessions.retain(|s| !s.is_finished());
                            sessions.push(handle);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        })?;

    Ok(ServerHandle {
        local_addr,
        shared,
        listener: Some(accept),
        workers,
        sessions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// A runner whose jobs emit one event and finish with a digest
    /// derived from the spec — enough to exercise the full lifecycle
    /// without simulation plumbing.
    struct EchoRunner;

    impl JobRunner for EchoRunner {
        fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob, String> {
            if spec.kind != "echo" {
                return Err(format!("unknown kind {}", spec.kind));
            }
            if spec.get("boom").is_some() {
                return Err("boom rejected at prepare".into());
            }
            let seed: u64 = spec
                .get("seed")
                .unwrap_or("0")
                .parse()
                .map_err(|_| "seed must be an integer".to_string())?;
            let wait = spec.get("wait").is_some();
            let panic_in_run = spec.get("panic").is_some();
            let hash = spec.spec_hash();
            Ok(PreparedJob {
                seed,
                run: Box::new(move |ctx| {
                    if panic_in_run {
                        panic!("intentional test panic");
                    }
                    ctx.emit(&[("phase", "started".into())]);
                    while wait && !ctx.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    if ctx.is_cancelled() {
                        return Ok(None);
                    }
                    Ok(Some(JobOutput {
                        digest: hash,
                        fields: vec![("echo_seed".into(), seed.to_string())],
                    }))
                }),
            })
        }
    }

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            Self {
                reader,
                writer: stream,
            }
        }

        fn send(&mut self, line: &str) {
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("write");
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read");
            line.trim_end().to_string()
        }

        fn roundtrip(&mut self, line: &str) -> String {
            self.send(line);
            self.recv()
        }
    }

    fn start() -> (ServerHandle, Client) {
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(EchoRunner),
            ServeConfig {
                queue_capacity: 2,
                workers: 1,
                retry_after_ms: 99,
            },
        )
        .expect("bind");
        let client = Client::connect(handle.addr());
        (handle, client)
    }

    #[test]
    fn ping_and_unknown_verbs() {
        let (handle, mut client) = start();
        assert_eq!(client.roundtrip("ping"), "ok pong=1");
        assert!(client
            .roundtrip("frobnicate x=1")
            .starts_with("err code=unknown_verb"));
        assert!(client
            .roundtrip("submit kind")
            .starts_with("err code=bad_request"));
        handle.shutdown_and_wait();
    }

    #[test]
    fn submit_runs_to_done_with_receipt() {
        let (handle, mut client) = start();
        let reply = client.roundtrip("submit kind=echo;seed=42");
        assert!(reply.starts_with("ok id=job-"), "{reply}");
        let req = parse_reply(&reply);
        let id = req.get("id").unwrap().to_string();
        let spec_hash = req.get("spec_hash").unwrap().to_string();

        let result = wait_done(&mut client, &id);
        let fields = parse_reply(&result);
        assert_eq!(fields.get("state"), Some("done"));
        assert_eq!(fields.get("seed"), Some("42"));
        assert_eq!(fields.get("spec_hash"), Some(spec_hash.as_str()));
        assert_eq!(fields.get("echo_seed"), Some("42"));
        assert!(fields.get("digest").is_some());
        handle.shutdown_and_wait();
    }

    #[test]
    fn bad_specs_get_protocol_errors_and_daemon_survives() {
        let (handle, mut client) = start();
        assert!(client
            .roundtrip("submit kind=mystery")
            .starts_with("err code=bad_spec"));
        assert!(client
            .roundtrip("submit kind=echo;boom=1")
            .starts_with("err code=bad_spec"));
        assert!(client
            .roundtrip("submit kind=echo;seed=notanumber")
            .starts_with("err code=bad_spec"));
        // A job that panics mid-run becomes `failed`, not a dead daemon.
        let reply = client.roundtrip("submit kind=echo;panic=1");
        let id = parse_reply(&reply).get("id").unwrap().to_string();
        let mut state = String::new();
        for _ in 0..200 {
            state = client.roundtrip(&format!("result id={id}"));
            if !state.contains("not_finished") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(state.starts_with("err code=job_failed"), "{state}");
        // Daemon still alive and serving.
        assert_eq!(client.roundtrip("ping"), "ok pong=1");
        handle.shutdown_and_wait();
    }

    #[test]
    fn full_queue_replies_with_backpressure() {
        let (handle, mut client) = start();
        // One long job occupies the single worker; two more fill the
        // bounded queue; the fourth must bounce with retry-after.
        let blocker = parse_reply(&client.roundtrip("submit kind=echo;wait=1"))
            .get("id")
            .unwrap()
            .to_string();
        wait_for_state(&mut client, &blocker, "running");
        let q1 = client.roundtrip("submit kind=echo;seed=1;wait=1");
        let q2 = client.roundtrip("submit kind=echo;seed=2;wait=1");
        assert!(q1.starts_with("ok "), "{q1}");
        assert!(q2.starts_with("ok "), "{q2}");
        let bounced = client.roundtrip("submit kind=echo;seed=3");
        assert_eq!(bounced, "err code=queue_full;retry_after_ms=99");
        // Cancel everything so shutdown is quick.
        for req in [&blocker, &parse_id(&q1), &parse_id(&q2)] {
            client.send(&format!("cancel id={req}"));
            client.recv();
        }
        handle.shutdown_and_wait();
    }

    #[test]
    fn cancel_stops_a_running_job_and_frees_the_worker() {
        let (handle, mut client) = start();
        let id = parse_id(&client.roundtrip("submit kind=echo;wait=1"));
        wait_for_state(&mut client, &id, "running");
        let reply = client.roundtrip(&format!("cancel id={id}"));
        assert_eq!(reply, format!("ok id={id};state=cancelling"));
        wait_for_state(&mut client, &id, "cancelled");
        // Worker is reusable: a fresh job completes.
        let next = parse_id(&client.roundtrip("submit kind=echo;seed=9"));
        let done = wait_done(&mut client, &next);
        assert!(done.contains("state=done"), "{done}");
        handle.shutdown_and_wait();
    }

    #[test]
    fn subscribe_streams_events_then_done() {
        let (handle, mut client) = start();
        let id = parse_id(&client.roundtrip("submit kind=echo;seed=7"));
        let ack = client.roundtrip(&format!("subscribe id={id}"));
        assert_eq!(ack, format!("ok id={id};subscribed=1"));
        let mut saw_event = false;
        loop {
            let line = client.recv();
            if line.starts_with("event ") {
                saw_event = true;
                assert!(line.contains("phase=started"), "{line}");
            } else if line.starts_with("done ") {
                assert!(line.contains("state=done"), "{line}");
                break;
            } else {
                panic!("unexpected stream line {line}");
            }
        }
        assert!(saw_event);
        // Connection is back in request mode after the stream.
        assert_eq!(client.roundtrip("ping"), "ok pong=1");
        handle.shutdown_and_wait();
    }

    #[test]
    fn closed_sessions_are_reaped() {
        let (handle, mut client) = start();
        assert_eq!(client.roundtrip("ping"), "ok pong=1");
        drop(client);
        for _ in 0..200 {
            let mut client = Client::connect(handle.addr());
            assert_eq!(client.roundtrip("ping"), "ok pong=1");
        }
        let live = handle.sessions.lock().unwrap().len();
        assert!(
            live <= 32,
            "{live} session handles held after 201 closed sessions"
        );
        handle.shutdown_and_wait();
    }

    #[test]
    fn wire_shutdown_cancels_live_jobs_and_exits_cleanly() {
        let (handle, mut client) = start();
        let id = parse_id(&client.roundtrip("submit kind=echo;wait=1"));
        wait_for_state(&mut client, &id, "running");
        assert_eq!(client.roundtrip("shutdown"), "ok state=shutting_down");
        handle.wait();
    }

    #[test]
    fn finished_job_records_are_bounded_oldest_first() {
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(EchoRunner),
            ServeConfig {
                queue_capacity: 64,
                workers: 1,
                retry_after_ms: 1,
            },
        )
        .expect("bind");
        let mut client = Client::connect(handle.addr());
        let jobs = registry::MAX_FINISHED_JOBS + 100;
        let mut last = String::new();
        for seed in 0..jobs {
            loop {
                let reply = client.roundtrip(&format!("submit kind=echo;seed={seed}"));
                if reply.starts_with("ok ") {
                    last = parse_id(&reply);
                    break;
                }
                assert!(reply.starts_with("err code=queue_full"), "{reply}");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // One worker drains the queue in order, so the newest job
        // finishing means every job has.
        let done = wait_done(&mut client, &last);
        assert!(done.contains("state=done"), "{done}");
        assert_eq!(handle.shared.job_records(), registry::MAX_FINISHED_JOBS);
        assert!(client
            .roundtrip("result id=job-1")
            .starts_with("err code=unknown_job"));
        assert!(client
            .roundtrip("status id=job-1")
            .starts_with("err code=unknown_job"));
        handle.shutdown_and_wait();
    }

    fn parse_reply(line: &str) -> super::protocol::Request {
        super::protocol::parse_line(line).unwrap().unwrap()
    }

    fn parse_id(reply: &str) -> String {
        parse_reply(reply).get("id").expect("id field").to_string()
    }

    fn wait_for_state(client: &mut Client, id: &str, want: &str) {
        for _ in 0..400 {
            let reply = client.roundtrip(&format!("status id={id}"));
            if parse_reply(&reply).get("state") == Some(want) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never reached state {want}");
    }

    fn wait_done(client: &mut Client, id: &str) -> String {
        for _ in 0..400 {
            let reply = client.roundtrip(&format!("result id={id}"));
            if !reply.contains("code=not_finished") {
                return reply;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never finished");
    }
}
