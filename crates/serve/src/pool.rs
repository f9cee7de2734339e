//! The persistent explorer worker pool and its bounded job queue.
//!
//! Workers are spawned once at server start and live until shutdown —
//! no per-request thread spawning on the exploration path. The queue
//! is strictly bounded: a full queue rejects the push and the caller
//! sheds, which together with the admission ladder is what keeps the
//! backlog finite under any load.
//!
//! A panicking exploration is contained with `catch_unwind`: the
//! worker abandons the cache claim (so waiters can reclaim), replies
//! with an error, counts the panic, and goes back to the queue. One
//! poisoned kernel never wedges a worker or the pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lfm_obs::{Event, Sink, Value};
use lfm_sim::{run_rung, DeadlineClock, DegradeLevel, FaultPlan, LevelCaps, Program, Truncation};

use crate::cache::ReportCache;
use crate::level::SERVED_PCT_TRIALS;
use crate::protocol;
use crate::server::ServeStats;
use crate::trace::{push_span, SpanRec, Stage, Tracer};

/// One admitted check, queued for a worker.
#[derive(Debug)]
pub struct Job {
    /// Cache key (fingerprint mixed with the chaos seed).
    pub key: u64,
    /// Kernel id, echoed into the report.
    pub kernel: String,
    /// Variant slug, echoed into the report.
    pub variant: String,
    /// Program fingerprint, echoed into the report.
    pub fingerprint: u64,
    /// The program to explore.
    pub program: Program,
    /// Rung chosen by admission.
    pub level: DegradeLevel,
    /// Per-request wall budget, measured from `accepted_at`.
    pub deadline: Option<Duration>,
    /// When admission accepted the job (queue wait counts against the
    /// deadline — a deadline is a promise to the client, not to us).
    pub accepted_at: Instant,
    /// Where the connection handler waits for the outcome.
    pub reply: SyncSender<JobReply>,
}

/// What a worker hands back to the waiting connection handler: the
/// outcome plus the worker-side stage spans (queue wait, claim,
/// explore), so the handler can assemble one full request timeline
/// and decide — knowing the final total — whether to capture it.
#[derive(Debug)]
pub struct JobReply {
    /// The canonical report bytes, or the failure text.
    pub result: Result<Arc<str>, String>,
    /// Worker-side spans, `pid = 1 + worker index`. Empty when the
    /// tracer is fully inactive.
    pub spans: Vec<SpanRec>,
}

/// A bounded MPMC job queue with explicit close.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    takeable: Condvar,
    cap: usize,
}

#[derive(Debug)]
struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    /// An empty queue holding at most `cap` jobs.
    pub fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            takeable: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Capacity bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Current depth (racy by nature; admission uses it as a signal,
    /// not an invariant — the push itself re-checks the bound).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    /// `true` when no job is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues, or returns the job when the queue is full or closed —
    /// the caller sheds, it never blocks. The `Err` variant carries the
    /// whole job back on purpose: shedding must hand the rejected work
    /// to the caller, and boxing it would add an allocation to the one
    /// path that exists to stay cheap under overload.
    #[allow(clippy::result_large_err)]
    pub fn push(&self, job: Job) -> Result<(), Job> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed || inner.jobs.len() >= self.cap {
            return Err(job);
        }
        inner.jobs.push_back(job);
        self.takeable.notify_one();
        Ok(())
    }

    /// Blocks for the next job. `None` means the queue was closed and
    /// fully drained — the worker should exit. Jobs queued before the
    /// close are still handed out (that is the drain).
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.takeable.wait(inner).unwrap();
        }
    }

    /// Closes the queue: pushes fail from now on, pops drain what is
    /// left and then return `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        self.takeable.notify_all();
    }
}

/// Everything a worker thread needs, bundled once at pool start.
#[derive(Debug)]
pub struct WorkerCtx {
    /// The bounded job queue workers consume.
    pub queue: Arc<JobQueue>,
    /// The single-flight report cache workers fill.
    pub cache: Arc<ReportCache>,
    /// Shared serve counters and stage histograms.
    pub stats: Arc<ServeStats>,
    /// Session event sink (job / worker_panic events).
    pub sink: Arc<dyn Sink>,
    /// Sim-layer fault plan applied to every exploration.
    pub chaos: Option<FaultPlan>,
    /// Per-rung exploration budgets.
    pub caps: LevelCaps,
    /// Request tracer (worker-side spans share its epoch).
    pub tracer: Arc<Tracer>,
}

/// The worker threads.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` persistent threads consuming `ctx.queue`.
    pub fn start(workers: usize, ctx: WorkerCtx) -> WorkerPool {
        let ctx = Arc::new(ctx);
        let handles = (0..workers.max(1))
            .map(|index| {
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("lfm-serve-worker-{index}"))
                    .spawn(move || worker_loop(index, &ctx))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Waits for every worker to exit (close the queue first).
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(index: usize, ctx: &WorkerCtx) {
    // Trace track 0 belongs to the connection handlers.
    let pid = index as u64 + 1;
    while let Some(job) = ctx.queue.pop() {
        run_job(job, pid, ctx);
    }
}

/// Executes one job end to end. Never panics outward.
fn run_job(job: Job, pid: u64, ctx: &WorkerCtx) {
    let WorkerCtx {
        cache,
        stats,
        sink,
        chaos,
        caps,
        tracer,
        ..
    } = ctx;
    let (chaos, caps) = (*chaos, *caps);
    stats.jobs_executed.inc();
    let claimed = Instant::now();
    let mut spans = Vec::new();
    push_span(
        stats,
        tracer,
        &mut spans,
        Stage::QueueWait,
        pid,
        job.accepted_at,
        claimed,
    );
    // Time spent queued counts against the request's wall budget.
    let remaining = job
        .deadline
        .map(|d| d.saturating_sub(job.accepted_at.elapsed()));
    let explore_start = Instant::now();
    push_span(
        stats,
        tracer,
        &mut spans,
        Stage::WorkerClaim,
        pid,
        claimed,
        explore_start,
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_rung(
            &job.program,
            job.level,
            caps,
            SERVED_PCT_TRIALS,
            chaos,
            remaining,
            DeadlineClock::Wall,
        )
    }));
    push_span(
        stats,
        tracer,
        &mut spans,
        Stage::Explore,
        pid,
        explore_start,
        Instant::now(),
    );
    match outcome {
        Ok(out) => {
            let body = protocol::render_report(&job.kernel, &job.variant, job.fingerprint, &out);
            if sink.enabled() {
                sink.emit(&Event {
                    scope: "serve",
                    name: "job",
                    fields: &[
                        ("kernel", Value::Str(&job.kernel)),
                        ("variant", Value::Str(&job.variant)),
                        (
                            "level",
                            Value::U64(crate::admission::level_index(job.level) as u64),
                        ),
                        ("schedules", Value::U64(out.schedules_run)),
                        ("failures", Value::U64(out.counts.failures())),
                    ],
                });
            }
            // A deadline-truncated report reflects this request's wall
            // budget, not the program — caching it would serve one
            // caller's truncation to everyone forever. Reply with it,
            // but release the claim unfilled.
            let body = if out.truncation == Some(Truncation::WallDeadline) {
                stats.uncacheable.inc();
                cache.abandon(job.key);
                Arc::from(body)
            } else {
                cache.fill(job.key, body)
            };
            let _ = job.reply.send(JobReply {
                result: Ok(body),
                spans,
            });
        }
        Err(payload) => {
            stats.worker_panics.inc();
            cache.abandon(job.key);
            let reason = panic_text(payload.as_ref());
            if sink.enabled() {
                sink.emit(&Event {
                    scope: "serve",
                    name: "worker_panic",
                    fields: &[
                        ("kernel", Value::Str(&job.kernel)),
                        ("variant", Value::Str(&job.variant)),
                        ("reason", Value::Str(&reason)),
                    ],
                });
            }
            let _ = job.reply.send(JobReply {
                result: Err(format!("exploration panicked: {reason}")),
                spans,
            });
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    fn dummy_job(key: u64, reply: SyncSender<JobReply>) -> Job {
        let kernel = lfm_kernels::registry::by_id("toctou_flag").expect("kernel exists");
        let program = kernel.buggy();
        let fingerprint = lfm_sim::fingerprint(&program);
        Job {
            key,
            kernel: "toctou_flag".to_owned(),
            variant: "buggy".to_owned(),
            fingerprint,
            program,
            level: DegradeLevel::Exhaustive,
            deadline: None,
            accepted_at: Instant::now(),
            reply,
        }
    }

    #[test]
    fn queue_bounds_and_close_drain() {
        let queue = JobQueue::new(2);
        let (tx, _rx) = sync_channel(1);
        assert!(queue.push(dummy_job(1, tx.clone())).is_ok());
        assert!(queue.push(dummy_job(2, tx.clone())).is_ok());
        assert!(queue.push(dummy_job(3, tx.clone())).is_err(), "bounded");
        queue.close();
        assert!(queue.push(dummy_job(4, tx)).is_err(), "closed");
        assert!(queue.pop().is_some(), "drains job 1");
        assert!(queue.pop().is_some(), "drains job 2");
        assert!(queue.pop().is_none(), "then reports closed");
    }

    #[test]
    fn pool_executes_fills_cache_and_replies() {
        let queue = Arc::new(JobQueue::new(8));
        let cache = Arc::new(ReportCache::new());
        let stats = Arc::new(ServeStats::new());
        let sink: Arc<dyn Sink> = Arc::new(lfm_obs::NoopSink);
        let tracer = Arc::new(Tracer::new(true, None, Arc::clone(&sink)));
        let pool = WorkerPool::start(
            2,
            WorkerCtx {
                queue: Arc::clone(&queue),
                cache: Arc::clone(&cache),
                stats: Arc::clone(&stats),
                sink,
                chaos: None,
                caps: LevelCaps::default(),
                tracer,
            },
        );
        let (tx, rx) = sync_channel(1);
        // Claim like a handler would, then enqueue.
        assert!(matches!(
            cache.lookup_or_claim(77, Duration::from_secs(1)),
            crate::cache::Lookup::Claimed
        ));
        queue.push(dummy_job(77, tx)).unwrap();
        let reply = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("worker replies");
        let body = reply.result.expect("no panic");
        // The worker attributed its side of the timeline.
        let worker_stages: Vec<Stage> = reply.spans.iter().map(|s| s.stage).collect();
        assert_eq!(
            worker_stages,
            vec![Stage::QueueWait, Stage::WorkerClaim, Stage::Explore]
        );
        assert!(reply.spans.iter().all(|s| s.pid >= 1), "worker track");
        assert!(stats.stages[Stage::Explore.index()].count() >= 1);
        assert!(body.contains("\"kernel\":\"toctou_flag\""), "{body}");
        assert!(body.contains("\"failures\":"), "{body}");
        // The same bytes are now cached.
        match cache.lookup_or_claim(77, Duration::from_secs(1)) {
            crate::cache::Lookup::Hit(cached) => assert_eq!(&*cached, &*body),
            other => panic!("expected hit, got {other:?}"),
        }
        queue.close();
        pool.join();
        assert_eq!(stats.jobs_executed.get(), 1);
        assert_eq!(stats.worker_panics.get(), 0);
    }
}
