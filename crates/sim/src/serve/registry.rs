//! Shared daemon state: the bounded job queue, per-job records with
//! buffered event lines, subscriber channels, and lifecycle
//! transitions. One mutex guards the whole state; workers park on a
//! condvar when the queue is empty. Finished records are retained up to
//! [`MAX_FINISHED_JOBS`], oldest evicted first, so a long-lived daemon's
//! memory stays bounded.

use super::protocol::format_line;
use super::{JobOutput, StoredRun};
use crate::cancel::CancelToken;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

/// Terminal job records kept for `status`/`result`/`subscribe`; past
/// this, the oldest finished record is evicted and its id answers
/// `unknown_job`.
pub(crate) const MAX_FINISHED_JOBS: usize = 1024;

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Claimed by a worker and executing.
    Running,
    /// Finished; summary and receipt are available via `result`.
    Done,
    /// Stopped by `cancel` before completion.
    Cancelled,
    /// The run reported an error (or panicked); see the stored message.
    Failed,
}

impl JobState {
    /// The wire spelling of this state.
    pub fn as_wire(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

/// A message on a subscriber's channel.
pub(crate) enum StreamMsg {
    /// One buffered/live wire line (`event …` or `done …`).
    Line(String),
    /// The job reached a terminal state; no further lines follow.
    Done,
}

/// Why a submission was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// The bounded queue is at capacity; retry after the hinted delay.
    Full {
        /// Client-facing retry hint, milliseconds.
        retry_after_ms: u64,
    },
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
}

struct JobRecord {
    state: JobState,
    seed: u64,
    spec_hash: u64,
    cancel: CancelToken,
    /// Buffered `event`/`done` lines in emission order, replayed to
    /// late subscribers before live delivery.
    lines: Vec<String>,
    subscribers: Vec<mpsc::Sender<StreamMsg>>,
    /// Fields of the final reply (`result` verb), set on completion.
    final_fields: Option<Vec<(String, String)>>,
    error: Option<String>,
}

/// Point-in-time view of one job plus queue occupancy, for `status`
/// replies.
pub(crate) struct StatusSnapshot {
    pub state: JobState,
    pub queued: usize,
    pub running: usize,
}

/// Point-in-time view of a job's terminal output, for `result`
/// replies.
pub(crate) struct ResultSnapshot {
    pub state: JobState,
    pub final_fields: Option<Vec<(String, String)>>,
    pub error: Option<String>,
}

struct Inner {
    queue: VecDeque<String>,
    runs: HashMap<String, StoredRun>,
    jobs: HashMap<String, JobRecord>,
    /// Ids of terminal records, oldest finished first.
    finished: VecDeque<String>,
    next_id: u64,
    running: usize,
    shutdown: bool,
}

/// The daemon's shared state: one mutex, one worker-wakeup condvar.
pub(crate) struct Shared {
    capacity: usize,
    retry_after_ms: u64,
    inner: Mutex<Inner>,
    work: Condvar,
}

/// How a worker finished a job.
pub(crate) enum Outcome {
    Done(JobOutput),
    Cancelled,
    Failed(String),
}

impl Shared {
    pub(crate) fn new(capacity: usize, retry_after_ms: u64) -> Self {
        Self {
            capacity: capacity.max(1),
            retry_after_ms,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                runs: HashMap::new(),
                jobs: HashMap::new(),
                finished: VecDeque::new(),
                next_id: 1,
                running: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues a prepared run; errors when full or shutting down.
    pub(crate) fn submit(
        &self,
        seed: u64,
        spec_hash: u64,
        run: StoredRun,
    ) -> Result<String, SubmitError> {
        let mut inner = self.lock();
        if inner.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.queue.len() >= self.capacity {
            return Err(SubmitError::Full {
                retry_after_ms: self.retry_after_ms,
            });
        }
        let id = format!("job-{}", inner.next_id);
        inner.next_id += 1;
        inner.jobs.insert(
            id.clone(),
            JobRecord {
                state: JobState::Queued,
                seed,
                spec_hash,
                cancel: run.cancel.clone(),
                lines: Vec::new(),
                subscribers: Vec::new(),
                final_fields: None,
                error: None,
            },
        );
        inner.runs.insert(id.clone(), run);
        inner.queue.push_back(id.clone());
        self.work.notify_one();
        Ok(id)
    }

    /// Blocks until a job is available or shutdown; `None` means the
    /// worker should exit.
    pub(crate) fn claim(&self) -> Option<(String, StoredRun)> {
        let mut inner = self.lock();
        loop {
            if let Some(id) = inner.queue.pop_front() {
                let run = inner.runs.remove(&id).expect("queued job has a run");
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.state = JobState::Running;
                }
                inner.running += 1;
                return Some((id, run));
            }
            if inner.shutdown {
                return None;
            }
            inner = self.work.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn push_line(job: &mut JobRecord, line: String) {
        job.subscribers
            .retain(|tx| tx.send(StreamMsg::Line(line.clone())).is_ok());
        job.lines.push(line);
    }

    /// Appends a live `event` line and fans it out to subscribers.
    pub(crate) fn append_event(&self, id: &str, fields: &[(&str, String)]) {
        let mut inner = self.lock();
        if let Some(job) = inner.jobs.get_mut(id) {
            let mut all = vec![("id", id.to_string())];
            all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
            let line = format_line("event", &all);
            Self::push_line(job, line);
        }
    }

    /// Records a worker's outcome: terminal state, `done` line,
    /// subscriber completion, `result` fields.
    pub(crate) fn complete(&self, id: &str, outcome: Outcome) {
        let mut inner = self.lock();
        inner.running = inner.running.saturating_sub(1);
        Self::finish(&mut inner, id, outcome);
    }

    /// Moves a live record to its terminal state and retires it into
    /// the bounded finished list, evicting the oldest finished record
    /// past [`MAX_FINISHED_JOBS`].
    fn finish(inner: &mut Inner, id: &str, outcome: Outcome) {
        let Some(job) = inner.jobs.get_mut(id) else {
            return;
        };
        if job.state.is_terminal() {
            return;
        }
        Self::finish_record(id, job, outcome);
        inner.finished.push_back(id.to_string());
        while inner.finished.len() > MAX_FINISHED_JOBS {
            if let Some(oldest) = inner.finished.pop_front() {
                inner.jobs.remove(&oldest);
            }
        }
    }

    fn finish_record(id: &str, job: &mut JobRecord, outcome: Outcome) {
        let mut fields: Vec<(&str, String)> = vec![("id", id.to_string())];
        match outcome {
            Outcome::Done(output) => {
                job.state = JobState::Done;
                fields.push(("state", "done".into()));
                fields.push(("seed", job.seed.to_string()));
                fields.push(("spec_hash", format!("{:016x}", job.spec_hash)));
                fields.push(("digest", format!("{:016x}", output.digest)));
                for (k, v) in &output.fields {
                    fields.push((k.as_str(), v.clone()));
                }
                job.final_fields = Some(
                    fields
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), v.clone()))
                        .collect(),
                );
                let line = format_line("done", &fields);
                Self::push_line(job, line);
            }
            Outcome::Cancelled => {
                job.state = JobState::Cancelled;
                fields.push(("state", "cancelled".into()));
                fields.push(("seed", job.seed.to_string()));
                fields.push(("spec_hash", format!("{:016x}", job.spec_hash)));
                let line = format_line("done", &fields);
                Self::push_line(job, line);
            }
            Outcome::Failed(msg) => {
                job.state = JobState::Failed;
                fields.push(("state", "failed".into()));
                fields.push(("msg", msg.clone()));
                job.error = Some(msg);
                let line = format_line("done", &fields);
                Self::push_line(job, line);
            }
        }
        for tx in job.subscribers.drain(..) {
            let _ = tx.send(StreamMsg::Done);
        }
    }

    /// Requests cancellation. Queued jobs are cancelled on the spot;
    /// running jobs get their token tripped and finish within one
    /// control window. Returns the job's state after the request.
    pub(crate) fn cancel(&self, id: &str) -> Result<JobState, String> {
        let mut inner = self.lock();
        if !inner.jobs.contains_key(id) {
            return Err(format!("unknown job {id}"));
        }
        let queued_pos = inner.queue.iter().position(|q| q == id);
        if let Some(pos) = queued_pos {
            inner.queue.remove(pos);
            inner.runs.remove(id);
            Self::finish(&mut inner, id, Outcome::Cancelled);
            return Ok(JobState::Cancelled);
        }
        let job = inner.jobs.get_mut(id).expect("checked above");
        if !job.state.is_terminal() {
            job.cancel.cancel();
        }
        Ok(job.state)
    }

    /// Job state plus queue occupancy.
    pub(crate) fn status(&self, id: &str) -> Result<StatusSnapshot, String> {
        let inner = self.lock();
        let job = inner
            .jobs
            .get(id)
            .ok_or_else(|| format!("unknown job {id}"))?;
        Ok(StatusSnapshot {
            state: job.state,
            queued: inner.queue.len(),
            running: inner.running,
        })
    }

    /// The final `result` fields of a terminal job.
    pub(crate) fn result(&self, id: &str) -> Result<ResultSnapshot, String> {
        let inner = self.lock();
        let job = inner
            .jobs
            .get(id)
            .ok_or_else(|| format!("unknown job {id}"))?;
        Ok(ResultSnapshot {
            state: job.state,
            final_fields: job.final_fields.clone(),
            error: job.error.clone(),
        })
    }

    /// Registers a subscriber: returns the backlog of buffered lines
    /// and whether the job is already terminal (in which case `tx` was
    /// not retained and no `Done` will be sent).
    pub(crate) fn subscribe(
        &self,
        id: &str,
        tx: mpsc::Sender<StreamMsg>,
    ) -> Result<(Vec<String>, bool), String> {
        let mut inner = self.lock();
        let job = inner
            .jobs
            .get_mut(id)
            .ok_or_else(|| format!("unknown job {id}"))?;
        let backlog = job.lines.clone();
        let terminal = job.state.is_terminal();
        if !terminal {
            job.subscribers.push(tx);
        }
        Ok((backlog, terminal))
    }

    /// Flips the shutdown flag, cancels everything queued, trips every
    /// running job's token, and wakes all workers.
    pub(crate) fn begin_shutdown(&self) {
        let mut inner = self.lock();
        if inner.shutdown {
            return;
        }
        inner.shutdown = true;
        let queued: Vec<String> = inner.queue.drain(..).collect();
        inner.runs.clear();
        for id in queued {
            Self::finish(&mut inner, &id, Outcome::Cancelled);
        }
        for job in inner.jobs.values_mut() {
            if !job.state.is_terminal() {
                job.cancel.cancel();
            }
        }
        self.work.notify_all();
    }

    /// Whether shutdown has begun.
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.lock().shutdown
    }

    /// Job records currently held, live and finished.
    #[cfg(test)]
    pub(crate) fn job_records(&self) -> usize {
        self.lock().jobs.len()
    }
}
