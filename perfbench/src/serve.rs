//! `serve-mixed`: closed-loop clients against an in-process `mseh serve`
//! daemon running the survey's `SystemCatalog` on loopback with the
//! shipped `ServeConfig` defaults.
//!
//! Each client submits a job, subscribes to it, waits for its `done`
//! line, then submits the next. The seeded mix is mostly short `single`
//! jobs plus `campaign`, small `fleet` and small `arena` jobs; every spec
//! carries its own seed, so specs never repeat. After the timed phase
//! every job is run again in-process and its `done` digest must match.

use crate::stats::{mix, sorted, tail, Report, ResultsDigest};
use crate::survey::ENVS;
use crate::{
    books_close, emit, median, secs, setup_time, steps_in, Options, END_TO_END, PER_LAYER,
};
use mseh::daemon::{
    build_arena_spec, build_fleet_spec, digest_arena, digest_campaign, digest_fleet, digest_single,
    make_env, make_policy, parse_system, SystemCatalog,
};
use mseh::sim::serve::protocol::parse_line;
use mseh::sim::serve::{serve, JobRunner, JobSpec, PreparedJob, ServeConfig, ServerHandle};
use mseh::sim::{
    run_arena, run_fleet, run_resilience_campaign, run_simulation, ArenaConfig, CampaignConfig,
    FleetConfig, SimConfig,
};
use mseh::systems::resilience::{natural_node, resilience_scenario};
use mseh::systems::SystemId;
use mseh::units::Seconds;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop clients (one connection each). One client keeps at most
/// one job running, so one core stays free for the daemon's session and
/// accept threads and for whatever else the host runs; with two, both
/// cores are busy and the latency tail measures the host scheduler.
pub const CLIENTS: usize = 1;
/// Job kinds by job index, repeating: mostly `single`.
const PATTERN: [&str; 10] = [
    "single", "single", "single", "single", "single", "campaign", "single", "fleet", "single",
    "arena",
];
/// Policies a `single` job draws from.
const POLICIES: [&str; 3] = ["ladder", "neutral", "fixed:0.05"];
/// Jobs whose in-process results feed `results_digest`.
const DIGEST_JOBS: u64 = 20;

/// One job of the mix: its kind and wire fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Job index in the seeded sequence.
    pub index: u64,
    /// `single`, `campaign`, `fleet` or `arena`.
    pub kind: &'static str,
    /// Wire fields after `kind`.
    pub fields: Vec<(&'static str, String)>,
}

impl Job {
    /// Job `index` of the mix for `seed`. Job seeds stay below 2^40 so a
    /// campaign's consecutive seed range never saturates.
    pub fn nth(seed: u64, index: u64) -> Self {
        let r = mix(seed, index);
        let kind = PATTERN[(index % PATTERN.len() as u64) as usize];
        let system = format!("{:?}", SystemId::ALL[(r % 7) as usize]);
        let env = ENVS[((r >> 8) % 5) as usize].to_string();
        let job_seed = (mix(seed ^ 0x5eed, index) >> 24).to_string();
        let mut fields = vec![("system", system)];
        match kind {
            "single" => {
                fields.push(("env", env));
                fields.push(("days", (1 + (r >> 16) % 2).to_string()));
                fields.push(("seed", job_seed));
                fields.push(("policy", POLICIES[((r >> 20) % 3) as usize].to_string()));
            }
            "campaign" => {
                fields.push(("days", "0.5".into()));
                fields.push(("seed", job_seed));
                fields.push(("seeds", "2".into()));
            }
            "fleet" => {
                fields.push(("env", env));
                fields.push(("days", "0.5".into()));
                fields.push(("seed", job_seed));
                fields.push(("population", "24".into()));
                fields.push(("policy", "ladder".into()));
                fields.push(("jitter", "0.1".into()));
                // One shard: the job runs on its worker thread and does
                // not fan out over the second core.
                fields.push(("shard_size", "24".into()));
            }
            _ => {
                fields.push(("env", env));
                fields.push(("days", "0.5".into()));
                fields.push(("seed", job_seed));
                fields.push(("seeds", "1".into()));
                fields.push(("roster", "default".into()));
            }
        }
        Self {
            index,
            kind,
            fields,
        }
    }

    fn get(&self, key: &str) -> &str {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
            .expect("field present in every job of its kind")
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        self.get(key).parse().ok().expect("numeric field")
    }

    /// The `submit` request line.
    pub fn wire(&self) -> String {
        let mut line = format!("submit kind={}", self.kind);
        for (k, v) in &self.fields {
            line.push_str(&format!(";{k}={v}"));
        }
        line
    }

    /// Simulated steps the job runs (node-steps for fleets, lane-steps
    /// for arenas).
    pub fn steps(&self) -> u64 {
        let steps = steps_in(self.num("days"));
        match self.kind {
            "single" => steps,
            "campaign" => self.num::<u64>("seeds") * steps,
            "fleet" => self.num::<u64>("population") * steps,
            _ => mseh::sim::default_contenders().len() as u64 * self.num::<u64>("seeds") * steps,
        }
    }
}

/// What the same spec gives when run in-process.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproduced {
    /// The daemon's receipt digest of the result.
    pub digest: u64,
    /// Whether the result's books close.
    pub books_ok: bool,
    /// Physical fields for `results_digest`.
    pub physical: Vec<f64>,
}

/// Runs `job` in-process through the library, as the catalog would.
pub fn reproduce(job: &Job) -> Reproduced {
    let system = parse_system(job.get("system")).expect("valid system");
    let days: f64 = job.num("days");
    let seed: u64 = job.num("seed");
    let horizon = Seconds::from_days(days);
    match job.kind {
        "single" => {
            let env = make_env(job.get("env"), seed).expect("valid env");
            let mut policy = make_policy(job.get("policy")).expect("valid policy");
            let mut unit = system.build();
            let r = run_simulation(
                &mut unit,
                &env,
                &natural_node(system),
                policy.as_mut(),
                SimConfig::over(horizon),
            );
            Reproduced {
                digest: digest_single(&r),
                books_ok: books_close(r.audit_residual),
                physical: vec![
                    r.harvested.value(),
                    r.delivered.value(),
                    r.shortfall.value(),
                    r.uptime,
                ],
            }
        }
        "campaign" => {
            let count: u64 = job.num("seeds");
            let seeds: Vec<u64> = (seed..seed + count).collect();
            let s = run_resilience_campaign(
                &seeds,
                |k| resilience_scenario(system, k, horizon),
                &natural_node(system),
                CampaignConfig::over(horizon),
            );
            Reproduced {
                digest: digest_campaign(&s),
                books_ok: books_close(s.worst_audit_relative),
                physical: s
                    .outcomes
                    .iter()
                    .flat_map(|o| [o.uptime, o.delivered.value(), o.shortfall.value()])
                    .collect(),
            }
        }
        "fleet" => {
            let spec = build_fleet_spec(
                system,
                job.get("env"),
                seed,
                job.num("population"),
                job.get("policy"),
                job.num("jitter"),
            );
            let r = run_fleet(&spec, FleetConfig::over(horizon));
            let s = &r.summary;
            Reproduced {
                digest: digest_fleet(s),
                books_ok: books_close(s.audit_relative),
                physical: vec![
                    s.harvested.value(),
                    s.delivered.value(),
                    s.shortfall.value(),
                    s.served_fraction,
                    s.uptime.mean,
                ],
            }
        }
        _ => {
            let spec = build_arena_spec(
                system,
                job.get("env"),
                seed,
                job.num("seeds"),
                job.get("roster"),
            )
            .expect("valid arena spec");
            let r = run_arena(&spec, ArenaConfig::over(horizon));
            let s = &r.summary;
            Reproduced {
                digest: digest_arena(s),
                books_ok: books_close(s.audit_relative),
                physical: s
                    .standings
                    .iter()
                    .flat_map(|st| {
                        [
                            st.served_fraction,
                            st.uptime.mean,
                            st.harvested.value(),
                            st.delivered.value(),
                            st.shortfall.value(),
                        ]
                    })
                    .collect(),
            }
        }
    }
}

/// One reply line's field, if present.
pub fn field(line: &str, key: &str) -> Option<String> {
    parse_line(line).ok()??.get(key).map(str::to_string)
}

/// A line-protocol client on its own connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Client-side timestamps and replies of one job.
#[derive(Debug, Clone)]
pub struct Trip {
    /// The job sent.
    pub job: Job,
    /// When the `submit` line was written.
    pub sent: Instant,
    /// When its reply arrived.
    pub acked: Instant,
    /// When the `done` line arrived (`None` if the job never finished).
    pub done_at: Option<Instant>,
    /// The `submit` reply.
    pub ack: String,
    /// The `done` line.
    pub done: Option<String>,
    /// `event` lines streamed before `done`.
    pub events: u64,
}

impl Trip {
    /// Whether the job was accepted and finished in state `done`.
    pub fn succeeded(&self) -> bool {
        self.ack.starts_with("ok ")
            && self
                .done
                .as_deref()
                .is_some_and(|d| field(d, "state").as_deref() == Some("done"))
    }

    /// Submit-to-done latency, milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_at.map(|t| (t - self.sent).as_secs_f64() * 1e3)
    }
}

impl Client {
    /// Connects to the daemon at `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Submits `job`, subscribes to it and waits for its `done` line.
    pub fn run(&mut self, job: Job) -> io::Result<Trip> {
        let sent = Instant::now();
        self.send(&job.wire())?;
        let ack = self.recv()?;
        let acked = Instant::now();
        let mut trip = Trip {
            job,
            sent,
            acked,
            done_at: None,
            ack,
            done: None,
            events: 0,
        };
        let Some(id) = trip
            .ack
            .starts_with("ok ")
            .then(|| field(&trip.ack, "id"))
            .flatten()
        else {
            return Ok(trip);
        };
        self.send(&format!("subscribe id={id}"))?;
        loop {
            let line = self.recv()?;
            if line.starts_with("event") {
                trip.events += 1;
            } else if line.starts_with("done") {
                trip.done_at = Some(Instant::now());
                trip.done = Some(line);
                return Ok(trip);
            } else if !line.starts_with("ok ") {
                return Ok(trip);
            }
        }
    }
}

/// Runs `clients` closed loops until `seconds` pass or `max_jobs` jobs
/// have been handed out, whichever is first. Jobs are handed out in
/// index order, and each client finishes its job in flight. Returns the
/// trips in job-index order and the wall time.
pub fn drive(clients: Vec<Client>, seed: u64, seconds: f64, max_jobs: u64) -> (Vec<Trip>, f64) {
    let next = AtomicU64::new(0);
    let trips: Mutex<Vec<Trip>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for mut client in clients {
            let (next, trips) = (&next, &trips);
            scope.spawn(move || loop {
                if Instant::now() >= deadline {
                    return;
                }
                let index = next.fetch_add(1, Ordering::SeqCst);
                if index >= max_jobs {
                    return;
                }
                let job = Job::nth(seed, index);
                let trip = match client.run(job.clone()) {
                    Ok(trip) => trip,
                    Err(e) => Trip {
                        job,
                        sent: Instant::now(),
                        acked: Instant::now(),
                        done_at: None,
                        ack: format!("io error: {e}"),
                        done: None,
                        events: 0,
                    },
                };
                let broken = trip.ack.starts_with("io error");
                trips.lock().expect("trip list poisoned").push(trip);
                if broken {
                    return;
                }
            });
        }
    });
    let wall = secs(start);
    let mut trips = trips.into_inner().expect("trip list poisoned");
    trips.sort_by_key(|t| t.job.index);
    (trips, wall)
}

/// Server-side timestamps of one job, recorded by [`TracedRunner`].
#[derive(Debug, Clone, Copy)]
pub struct Marks {
    /// `prepare` entered and returned.
    pub prepare: (Instant, Instant),
    /// The job's run closure entered and returned on a worker.
    pub run: Option<(Instant, Instant)>,
}

/// A [`JobRunner`] that forwards to the catalog and timestamps each
/// job's `prepare` and run, keyed by spec hash.
pub struct TracedRunner<R> {
    inner: R,
    marks: Arc<Mutex<HashMap<u64, Marks>>>,
}

impl<R: JobRunner> TracedRunner<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            marks: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Marks recorded so far, by spec hash.
    pub fn marks(&self) -> HashMap<u64, Marks> {
        self.marks.lock().expect("marks poisoned").clone()
    }
}

impl<R: JobRunner> JobRunner for TracedRunner<R> {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob, String> {
        let begin = Instant::now();
        let prepared = self.inner.prepare(spec)?;
        let prepare = (begin, Instant::now());
        let hash = spec.spec_hash();
        self.marks
            .lock()
            .expect("marks poisoned")
            .insert(hash, Marks { prepare, run: None });
        let marks = Arc::clone(&self.marks);
        let run = prepared.run;
        Ok(PreparedJob {
            seed: prepared.seed,
            run: Box::new(move |ctx| {
                let begin = Instant::now();
                let out = run(ctx);
                let end = Instant::now();
                if let Some(m) = marks.lock().expect("marks poisoned").get_mut(&hash) {
                    m.run = Some((begin, end));
                }
                out
            }),
        })
    }
}

/// Starts a daemon with the shipped defaults and connects the clients.
pub fn start(runner: Arc<dyn JobRunner>) -> io::Result<(ServerHandle, Vec<Client>)> {
    let handle = serve("127.0.0.1:0", runner, ServeConfig::default())?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(handle.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((handle, clients))
}

/// Checks every trip against the in-process run of its spec. Returns
/// the failures and `results_digest` over the first jobs of the mix.
pub fn verify(trips: &[Trip]) -> (u64, u64) {
    let checks = mseh::sim::par_map(trips, |trip| {
        if !trip.succeeded() {
            return (false, Vec::new());
        }
        let again = reproduce(&trip.job);
        let served = trip.done.as_deref().and_then(|d| field(d, "digest"));
        let ok = served == Some(format!("{:016x}", again.digest)) && again.books_ok;
        (ok, again.physical)
    });
    let mut digest = ResultsDigest::default();
    for (trip, (_, physical)) in trips.iter().zip(&checks) {
        if trip.job.index < DIGEST_JOBS {
            for &v in physical {
                digest.f64(v);
            }
        }
    }
    let failed = checks.iter().filter(|(ok, _)| !ok).count() as u64;
    (failed, digest.value())
}

fn repeat_share(trips: &[Trip]) -> f64 {
    let hashes: Vec<String> = trips
        .iter()
        .filter_map(|t| field(&t.ack, "spec_hash"))
        .collect();
    let mut unique = hashes.clone();
    unique.sort();
    unique.dedup();
    (hashes.len() - unique.len()) as f64 / hashes.len().max(1) as f64
}

/// One closed-loop session: a fresh daemon, `seconds` of jobs, shutdown.
/// Returns the trips, the start of the timed phase, its wall time and
/// the peak RSS right after it.
fn session(runner: Arc<dyn JobRunner>, seed: u64, seconds: f64) -> (Vec<Trip>, Instant, f64, f64) {
    let mut daemon = Daemon::start(runner);
    let clients = std::mem::take(&mut daemon.clients);
    let start = Instant::now();
    let (trips, wall) = drive(clients, seed, seconds, u64::MAX);
    let rss = crate::stats::peak_rss_mib();
    drop(daemon);
    (trips, start, wall, rss)
}

/// Completions per second over the whole one-second windows of the timed
/// phase: `(median jobs/s, median steps/s)`.
fn windowed_rates(trips: &[Trip], start: Instant, wall: f64) -> (Vec<f64>, f64, f64) {
    let windows = (wall.floor() as usize).max(1);
    let mut jobs = vec![0.0; windows];
    let mut steps = vec![0.0; windows];
    for trip in trips.iter().filter(|t| t.succeeded()) {
        let Some(done) = trip.done_at else { continue };
        let w = (done - start).as_secs_f64().floor() as usize;
        if w < windows {
            jobs[w] += 1.0;
            steps[w] += trip.job.steps() as f64;
        }
    }
    let (jobs_per_s, steps_per_s) = (median(&jobs), median(&steps));
    (jobs, jobs_per_s, steps_per_s)
}

/// Batches of daemon start-ups timed for `setup_s`.
const SETUP_BATCHES: usize = 7;

/// A started daemon with its clients connected; dropping it disconnects
/// the clients and stops the daemon, waiting for every thread.
struct Daemon {
    handle: Option<ServerHandle>,
    clients: Vec<Client>,
}

impl Daemon {
    fn start(runner: Arc<dyn JobRunner>) -> Self {
        let (handle, clients) = start(runner).expect("start the daemon on loopback");
        Self {
            handle: Some(handle),
            clients,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown_and_wait();
        }
    }
}

/// The `serve-mixed` workload.
pub fn run(opts: Options) -> Report {
    let mut report = Report::default();
    if !opts.trace {
        let setup_s = setup_time(SETUP_BATCHES, 3, || Daemon::start(Arc::new(SystemCatalog)));
        let (trips, start, wall, rss) = session(Arc::new(SystemCatalog), opts.seed, opts.seconds);
        let (windows, jobs_per_s, steps_per_s) = windowed_rates(&trips, start, wall);
        report.note(format!("jobs per one-second window: {windows:?}"));
        let (failed, digest) = verify(&trips);
        if let Some(bad) = trips.iter().find(|t| !t.succeeded()) {
            report.note(format!(
                "first failed job: {} -> {}",
                bad.job.wire(),
                bad.ack
            ));
        }
        report.attempted = trips.len() as u64;
        report.failed = failed;
        let latencies: Vec<f64> = trips.iter().filter_map(Trip::latency_ms).collect();
        let latencies_sorted = sorted(&latencies);
        let (level, tail_ms) =
            tail(&latencies_sorted).unwrap_or((1.0, *latencies_sorted.last().unwrap_or(&0.0)));
        report.note(format!(
            "serve-mixed: {} jobs over {CLIENTS} clients in {wall:.3} s, results_digest {digest:016x} (first {DIGEST_JOBS} jobs)",
            trips.len()
        ));
        report.note(format!(
            "op_tail_ms is p{:.1} of {} latency samples; repeated spec_hash share {}",
            level * 100.0,
            latencies.len(),
            repeat_share(&trips)
        ));
        for kind in ["single", "campaign", "fleet", "arena"] {
            let of_kind: Vec<f64> = trips
                .iter()
                .filter(|t| t.job.kind == kind)
                .filter_map(Trip::latency_ms)
                .collect();
            let of_kind = sorted(&of_kind);
            report.note(format!(
                "latency {kind:<8}: {} jobs, p50 {:.3} ms, p99 {:.3} ms",
                of_kind.len(),
                median(&of_kind),
                crate::stats::percentile(&of_kind, 0.99).unwrap_or(0.0)
            ));
        }
        let ok_frac = report.ok_frac();
        emit(
            &mut report,
            &END_TO_END,
            &[
                ("setup_s", setup_s),
                ("peak_rss_mb", rss),
                ("ok_frac", ok_frac),
                ("steps_per_s", steps_per_s),
                ("ops_per_s", jobs_per_s),
                ("op_p50_ms", median(&latencies)),
                ("op_tail_ms", tail_ms),
            ],
        );
        return report;
    }

    let (plain, _, plain_wall, _) = session(Arc::new(SystemCatalog), opts.seed, opts.seconds / 2.0);
    let runner = Arc::new(TracedRunner::new(SystemCatalog));
    let (traced, _, traced_wall, _) = session(runner.clone(), opts.seed, opts.seconds / 2.0);
    let marks = runner.marks();
    let (failed_plain, _) = verify(&plain);
    let (failed_traced, _) = verify(&traced);
    report.attempted = (plain.len() + traced.len()) as u64;
    report.failed = failed_plain + failed_traced;
    let digest_of = |t: &Trip| t.done.as_deref().and_then(|d| field(d, "digest"));
    let shared = plain.len().min(traced.len());
    report.mismatch = (0..shared).any(|k| digest_of(&plain[k]) != digest_of(&traced[k]));
    report.note(format!(
        "traced vs untraced: {shared} jobs compared, {}",
        if report.mismatch {
            "MISMATCH"
        } else {
            "bit-identical"
        }
    ));

    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    let mut recv = Vec::new();
    let mut ack = Vec::new();
    let mut prepare = Vec::new();
    let mut wait = Vec::new();
    let mut deliver = Vec::new();
    let mut run_by_kind: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut events = 0u64;
    let mut rejected = 0u64;
    for trip in &traced {
        if !trip.ack.starts_with("ok ") {
            rejected += 1;
            continue;
        }
        let hash = field(&trip.ack, "spec_hash").and_then(|h| u64::from_str_radix(&h, 16).ok());
        let (Some(m), Some(done_at)) = (hash.and_then(|h| marks.get(&h)), trip.done_at) else {
            continue;
        };
        let Some((r0, r1)) = m.run else { continue };
        ack.push(ms(trip.sent, trip.acked));
        recv.push(ms(trip.sent, m.prepare.0));
        prepare.push(ms(m.prepare.0, m.prepare.1));
        wait.push(ms(m.prepare.1, r0));
        run_by_kind
            .entry(trip.job.kind)
            .or_default()
            .push(ms(r0, r1));
        deliver.push(ms(r1, done_at));
        events += trip.events;
    }
    let jobs = ack.len().max(1) as f64;
    let run_total: f64 = run_by_kind.values().flatten().sum();
    let workers = ServeConfig::default().workers as f64;
    let capacity = CLIENTS as f64 * traced_wall;
    let parts = [
        ("sim.serve recv+parse", recv.iter().sum::<f64>() / 1e3),
        ("daemon.prepare", prepare.iter().sum::<f64>() / 1e3),
        ("sim.serve queue wait", wait.iter().sum::<f64>() / 1e3),
        ("daemon.run (engines)", run_total / 1e3),
        ("sim.serve deliver", deliver.iter().sum::<f64>() / 1e3),
    ];
    let breakdown = crate::Breakdown {
        wall_s: traced_wall,
        capacity_s: capacity,
        parts: parts.to_vec(),
    };
    for line in breakdown.lines() {
        report.note(line);
    }
    report.note(
        "trace: serve capacity is client thread-seconds; the remainder is client time between jobs"
            .into(),
    );
    let p50 = |v: &[f64]| median(v);
    let p99 = |v: &[f64]| tail(&sorted(v)).map_or(0.0, |(_, x)| x);
    let run_p50 = |kind: &str| run_by_kind.get(kind).map_or(0.0, |v| median(v));
    let plain_cost = plain_wall / plain.len().max(1) as f64;
    let traced_cost = traced_wall / traced.len().max(1) as f64;
    emit(
        &mut report,
        &PER_LAYER,
        &[
            ("sim.serve.submit_ack_ms.p50", p50(&ack)),
            ("sim.serve.recv_ms.p50", p50(&recv)),
            ("daemon.prepare_ms.p50", p50(&prepare)),
            ("sim.serve.queue_wait_ms.p50", p50(&wait)),
            ("sim.serve.queue_wait_ms.p99", p99(&wait)),
            ("daemon.run_ms.single", run_p50("single")),
            ("daemon.run_ms.campaign", run_p50("campaign")),
            ("daemon.run_ms.fleet", run_p50("fleet")),
            ("daemon.run_ms.arena", run_p50("arena")),
            ("sim.serve.deliver_ms.p50", p50(&deliver)),
            ("sim.serve.deliver_ms.p99", p99(&deliver)),
            (
                "sim.serve.worker_busy_frac",
                run_total / 1e3 / (workers * traced_wall),
            ),
            ("sim.serve.events_per_job", events as f64 / jobs),
            ("sim.serve.rejected", rejected as f64),
            (
                "trace.overhead_pct",
                100.0 * (traced_cost / plain_cost - 1.0),
            ),
            ("trace.unattributed_frac", breakdown.unattributed_frac()),
        ],
    );
    report
}
