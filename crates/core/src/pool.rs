//! A deterministic fixed-worker job pool for sweep harnesses.
//!
//! Every AOCI experiment is a matrix of independent simulations — each
//! `AosSystem` run owns its program copy of state and advances its own
//! simulated clock, so cells of the (workload × policy × rep) grid share
//! nothing. This module makes that isolation an API: a **job** is a
//! `Send` descriptor evaluated by a pure-per-job function, the pool runs
//! jobs across a fixed number of OS threads (std scoped threads, no
//! dependencies), and results are returned **in job-list order** no matter
//! which worker finished first or in what interleaving. Anything merged
//! from the result vector in a deterministic fold is therefore
//! byte-identical for any worker count. The caller is one of the workers,
//! so with `workers == 1` it runs the one scheduling loop by itself and no
//! thread is spawned.
//!
//! The only observable difference between worker counts is wall-clock
//! time, which the pool measures per job so harnesses can report sweep
//! speedups ([`SweepStats`]). There is one scheduler,
//! [`JobPool::run_pipelines`]: chains of dependent stages without a barrier
//! per stage. A plain job list ([`JobPool::run`], [`JobPool::map`]) is one
//! pipeline of one stage on it.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One finished job: its output plus the wall-clock time it took.
#[derive(Clone, Debug)]
pub struct JobResult<R> {
    /// The job function's return value.
    pub output: R,
    /// Wall-clock duration of this job alone.
    pub wall: Duration,
}

/// Aggregate timing of one pool sweep, for speedup reporting.
#[derive(Clone, Copy, Debug)]
pub struct SweepStats {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Sum of per-job wall-clock times (serial-equivalent work).
    pub busy: Duration,
}

impl SweepStats {
    /// Observed speedup: serial-equivalent work over elapsed wall clock.
    /// `1.0` for a serial sweep (modulo scheduling overhead), approaching
    /// `workers` when the jobs balance perfectly.
    pub fn speedup(&self) -> f64 {
        if self.wall.is_zero() {
            1.0
        } else {
            self.busy.as_secs_f64() / self.wall.as_secs_f64()
        }
    }

    /// One-line human-readable summary for harness logs.
    pub fn render(&self) -> String {
        format!(
            "{} jobs on {} worker{}: wall={:.2?} busy={:.2?} speedup={:.2}x",
            self.jobs,
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            self.wall,
            self.busy,
            self.speedup()
        )
    }
}

/// A fixed-size worker pool over which a job list is swept.
#[derive(Clone, Copy, Debug)]
pub struct JobPool {
    workers: usize,
}

/// The message a caught panic carried, for re-raising it with context.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// One pipeline's slot in a [`Scheduler`].
struct Lane<S, R> {
    /// `None` only while a worker is inside `advance` with it.
    state: Option<S>,
    /// Stages yielded so far: jobs in flight belong to stage `stages - 1`.
    stages: usize,
    /// The current stage's results by job index (a caught panic as its
    /// message), and how many are missing.
    results: Vec<Option<Result<R, String>>>,
    missing: usize,
    /// Why the pipeline stopped early, if it did.
    failure: Option<String>,
}

/// What the workers of one [`JobPool::run_pipelines`] call share.
struct Scheduler<S, J, R> {
    lanes: Vec<Lane<S, R>>,
    /// Pipelines whose stage is complete, to be advanced — at first all of
    /// them, past the empty stage before stage 0.
    complete: VecDeque<usize>,
    /// Ready `(pipeline, job index, job)`s of every pipeline, first-in
    /// first-out.
    ready: VecDeque<(usize, usize, J)>,
    /// Pipelines that have neither finished nor failed.
    live: usize,
    jobs: usize,
    busy: Duration,
}

/// The default worker count: the machine's available parallelism (`1` when
/// it cannot be determined).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Default for JobPool {
    fn default() -> Self {
        JobPool::new(default_workers())
    }
}

impl JobPool {
    /// A pool with exactly `workers` threads (clamped to at least 1).
    /// With `JobPool::new(1)` the caller runs every job itself, in order.
    pub fn new(workers: usize) -> Self {
        JobPool { workers: workers.max(1) }
    }

    /// Number of worker threads this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every job and returns outputs **in job order**,
    /// together with sweep timing.
    ///
    /// `f` must be a pure function of its job (plus shared immutable
    /// captures): no ambient environment reads, no shared mutable state —
    /// the pool guarantees result *order*, the job function must guarantee
    /// result *values*, and together that makes any downstream merge
    /// independent of the worker count.
    ///
    /// # Panics
    ///
    /// If a job panics, the pool finishes the remaining jobs (so the
    /// failure is the same for any worker count), then re-raises the
    /// panic of the **first failing job in job order**, naming its index
    /// and carrying the original payload message.
    pub fn run<J, R, F>(&self, jobs: Vec<J>, f: F) -> (Vec<JobResult<R>>, SweepStats)
    where
        J: Send + Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        let n = jobs.len();
        // One pipeline of one stage: the first `advance` yields every job,
        // the second keeps the stage's outputs. A panicking job is caught
        // here, inside the job the scheduler sees, so the stage completes
        // and the payload is re-raised below with the job index attached.
        let (mut done, stats) = self.run_pipelines(
            vec![(Some(jobs.iter().collect::<Vec<&J>>()), Vec::new())],
            |(stage, outputs), finished| {
                *outputs = finished;
                stage.take()
            },
            |job| {
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| f(job)));
                (result, t.elapsed())
            },
        );
        let (_, outputs) = done.pop().expect("one pipeline in, one out");
        let mut results: Vec<JobResult<R>> = Vec::with_capacity(n);
        for (i, (result, wall)) in outputs.into_iter().enumerate() {
            match result {
                Ok(output) => results.push(JobResult { output, wall }),
                Err(payload) => {
                    panic!("pool job {i} of {n} panicked: {}", panic_message(&*payload))
                }
            }
        }
        (results, stats)
    }

    /// [`JobPool::run`] without the per-job timing wrapper: just the
    /// outputs, in job order.
    pub fn map<J, R, F>(&self, jobs: Vec<J>, f: F) -> Vec<R>
    where
        J: Send + Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        self.run(jobs, f).0.into_iter().map(|r| r.output).collect()
    }

    /// Runs independent **pipelines** of dependent stages; returns their
    /// final states in pipeline order, with the jobs' sweep timing.
    ///
    /// `advance(state, outputs)` is called first with no outputs and
    /// yields stage 0's jobs; each later call receives the finished
    /// stage's outputs **in job order**, whatever order they finished in,
    /// and yields the next stage's jobs, or `None` when the pipeline is
    /// done. Workers claim ready jobs of *any* pipeline first-in first-out
    /// and run them through `f`; the worker that finishes a stage's last
    /// job advances that pipeline, outside the shared lock, while the
    /// others keep running. No barrier spans pipelines.
    ///
    /// As in [`JobPool::run`], `f` and `advance` must be pure functions of
    /// their arguments. A state is touched by one worker at a time, in its
    /// pipeline's stage order, so the result is the same for any worker
    /// count and interleaving. The caller is one of the workers: one
    /// worker spawns nothing.
    ///
    /// # Panics
    ///
    /// A panic in a job or in `advance` stops only its own pipeline (the
    /// rest of a failing stage still runs); the others drain, then the
    /// **first failing pipeline in pipeline order** re-raises its panic,
    /// naming pipeline, stage and job.
    pub fn run_pipelines<S: Send, J: Send, R: Send>(
        &self,
        pipelines: Vec<S>,
        advance: impl Fn(&mut S, Vec<R>) -> Option<Vec<J>> + Sync,
        f: impl Fn(J) -> R + Sync,
    ) -> (Vec<S>, SweepStats) {
        let started = Instant::now();
        let lane =
            |s| Lane { state: Some(s), stages: 0, results: vec![], missing: 0, failure: None };
        let shared = Mutex::new(Scheduler {
            complete: (0..pipelines.len()).collect(),
            live: pipelines.len(),
            lanes: pipelines.into_iter().map(lane).collect(),
            ready: VecDeque::new(),
            jobs: 0,
            busy: Duration::ZERO,
        });
        let wake = Condvar::new();
        const UNPOISONED: &str = "jobs and `advance` run unlocked and caught";
        let caught = |p: usize, at: String, payload: Box<dyn Any + Send>| {
            format!("pool pipeline {p} {at} panicked: {}", panic_message(&*payload))
        };

        let worker = || {
            let mut guard = shared.lock().expect(UNPOISONED);
            loop {
                let s = &mut *guard;
                if let Some(p) = s.complete.pop_front() {
                    // Lane `p` is at rest until this worker queues its next stage.
                    let lane = &mut s.lanes[p];
                    let stage = lane.stages;
                    let mut state = lane.state.take().expect("one worker advances a pipeline");
                    let results = std::mem::take(&mut lane.results);
                    drop(guard);
                    let outputs: Result<Vec<R>, String> =
                        results.into_iter().map(|r| r.expect("stage complete")).collect();
                    let next = outputs.and_then(|outputs| {
                        catch_unwind(AssertUnwindSafe(|| advance(&mut state, outputs)))
                            .map_err(|e| caught(p, format!("advancing to stage {stage}"), e))
                    });
                    guard = shared.lock().expect(UNPOISONED);
                    let s = &mut *guard;
                    let lane = &mut s.lanes[p];
                    lane.state = Some(state);
                    match next {
                        Ok(Some(jobs)) => {
                            lane.stages += 1;
                            lane.missing = jobs.len();
                            lane.results.resize_with(jobs.len(), || None);
                            if jobs.is_empty() {
                                s.complete.push_back(p);
                            }
                            s.ready.extend(jobs.into_iter().enumerate().map(|(i, j)| (p, i, j)));
                        }
                        stopped => {
                            lane.failure = stopped.err();
                            s.live -= 1;
                        }
                    }
                    wake.notify_all();
                } else if let Some((p, i, job)) = s.ready.pop_front() {
                    drop(guard);
                    let t = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(|| f(job)));
                    let wall = t.elapsed();
                    guard = shared.lock().expect(UNPOISONED);
                    let s = &mut *guard;
                    s.jobs += 1;
                    s.busy += wall;
                    let lane = &mut s.lanes[p];
                    let stage = lane.stages - 1;
                    lane.results[i] =
                        Some(result.map_err(|e| caught(p, format!("stage {stage} job {i}"), e)));
                    lane.missing -= 1;
                    if lane.missing == 0 {
                        // Popped by this worker next: the lock stays held.
                        s.complete.push_back(p);
                    }
                } else if s.live == 0 {
                    return;
                } else {
                    guard = wake.wait(guard).expect(UNPOISONED);
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..self.workers {
                scope.spawn(worker);
            }
            worker();
        });

        let Scheduler { lanes, jobs, busy, .. } = shared.into_inner().expect(UNPOISONED);
        if let Some(failure) = lanes.iter().find_map(|l| l.failure.as_deref()) {
            panic!("{failure}");
        }
        let stats = SweepStats { jobs, workers: self.workers, wall: started.elapsed(), busy };
        (lanes.into_iter().map(|l| l.state.expect("every pipeline at rest")).collect(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_job_order_for_any_worker_count() {
        use std::sync::mpsc::channel;
        let jobs: Vec<u64> = (0..97).collect();
        for workers in [1, 2, 3, 8, 64] {
            // Given a second worker, job 0 finishes only after the last job
            // has started: at least 97 - 64 results are stored before its own.
            let (tx, rx) = channel();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            let out = JobPool::new(workers).map(jobs.clone(), |&j| {
                if j == 0 && workers > 1 {
                    rx.lock()
                        .unwrap()
                        .recv_timeout(Duration::from_secs(20))
                        .expect("the last job starts while job 0 is still running");
                }
                if j == 96 {
                    tx.lock().unwrap().send(()).unwrap();
                }
                j * j
            });
            assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn serial_and_parallel_agree_on_nontrivial_fold() {
        // A fold sensitive to order: concatenation.
        let jobs: Vec<usize> = (0..40).collect();
        let render = |pool: &JobPool| {
            pool.map(jobs.clone(), |&j| format!("{j}:{};", j % 7))
                .concat()
        };
        let serial = render(&JobPool::new(1));
        for workers in [2, 5, 16] {
            assert_eq!(render(&JobPool::new(workers)), serial, "workers={workers}");
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(JobPool::new(0).workers(), 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let (out, stats) = JobPool::new(4).run(Vec::<u32>::new(), |&j| j);
        assert!(out.is_empty());
        assert_eq!(stats.jobs, 0);
    }

    #[test]
    fn worker_panic_is_reported_with_job_index() {
        let jobs: Vec<u32> = (0..8).collect();
        // 64 workers and 8 jobs: the idle ones must wake up, not hang.
        for workers in [1, 4, 64] {
            let executed = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                JobPool::new(workers).map(jobs.clone(), |&j| {
                    executed.fetch_add(1, Ordering::SeqCst);
                    assert!(j != 5, "boom at {j}");
                    j
                })
            }));
            let payload = caught.expect_err("the job panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .expect("re-raised with a formatted message");
            assert!(msg.contains("pool job 5 of 8"), "workers={workers}: {msg}");
            assert!(msg.contains("boom at 5"), "workers={workers}: {msg}");
            // The failure surfaces after the sweep: every job still ran.
            assert_eq!(executed.load(Ordering::SeqCst), 8, "workers={workers}");
        }
    }

    /// A synthetic job, and its output: `(pipeline, stage, job)`.
    type Triple = (usize, usize, usize);

    /// A synthetic pipeline: `shape[k]` jobs in stage `k`; every
    /// `advance` logs the outputs it was handed.
    #[derive(Debug)]
    struct Chain {
        id: usize,
        shape: Vec<usize>,
        log: Vec<Vec<Triple>>,
    }

    /// Yields the next stage's jobs as `(pipeline, stage, job)` triples.
    fn next_stage(c: &mut Chain, outputs: Vec<Triple>) -> Option<Vec<Triple>> {
        c.log.push(outputs);
        let stage = c.log.len() - 1;
        let jobs = *c.shape.get(stage)?;
        Some((0..jobs).map(|j| (c.id, stage, j)).collect())
    }

    fn chains(shapes: &[&[usize]]) -> Vec<Chain> {
        let chain = |(id, s): (usize, &&[usize])| Chain { id, shape: s.to_vec(), log: Vec::new() };
        shapes.iter().enumerate().map(chain).collect()
    }

    #[test]
    fn advance_sees_outputs_in_job_order_and_every_job_runs_once() {
        // Among the shapes: a stage with no jobs, a pipeline with no stages.
        let shapes: [&[usize]; 5] = [&[3, 0, 2], &[], &[1, 1, 1, 1], &[7], &[0]];
        let total: usize = shapes.iter().flat_map(|s| s.iter()).sum();
        for workers in [1, 2, 3, 8] {
            let executed = AtomicUsize::new(0);
            let pool = JobPool::new(workers);
            let (done, stats) = pool.run_pipelines(chains(&shapes), next_stage, |job| {
                executed.fetch_add(1, Ordering::SeqCst);
                // Later jobs of a stage finish first when workers allow.
                std::thread::sleep(Duration::from_micros(50 * (7 - job.2 as u64)));
                job
            });
            assert_eq!(executed.load(Ordering::SeqCst), total, "workers={workers}");
            assert_eq!((stats.jobs, stats.workers), (total, workers));
            for (c, shape) in done.iter().zip(shapes) {
                // One `advance` to start, one per stage; each after the
                // first received exactly its stage's outputs, in job order.
                assert_eq!(c.log.len(), shape.len() + 1, "workers={workers}");
                assert!(c.log[0].is_empty());
                for (stage, &jobs) in shape.iter().enumerate() {
                    let want: Vec<_> = (0..jobs).map(|j| (c.id, stage, j)).collect();
                    assert_eq!(c.log[stage + 1], want, "workers={workers} pipeline={}", c.id);
                }
            }
        }
        let (none, stats) = JobPool::new(4).run_pipelines(Vec::<Chain>::new(), next_stage, |j| j);
        assert!(none.is_empty());
        assert_eq!(stats.jobs, 0);
    }

    #[test]
    fn a_pipeline_does_not_wait_for_another_pipelines_stage() {
        use std::sync::mpsc::channel;
        // Pipeline 0's only job blocks until pipeline 1's *stage-1* job has
        // started: behind a barrier after stage 0 that never happens.
        let (tx, rx) = channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let (done, _) = JobPool::new(2).run_pipelines(chains(&[&[1], &[1, 1]]), next_stage, |job| {
            match job {
                (0, 0, 0) => rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(20))
                    .expect("pipeline 1 reaches stage 1 while pipeline 0 is still in stage 0"),
                (1, 1, 0) => tx.lock().unwrap().send(()).unwrap(),
                _ => {}
            }
            job
        });
        assert_eq!(done[1].log.len(), 3);
    }

    #[test]
    fn no_job_of_a_stage_starts_before_the_previous_advance_returned() {
        use std::sync::atomic::AtomicBool;
        // `advanced[p][k]` is set as the last act of the `advance` that
        // yields stage `k` of pipeline `p`.
        let advanced: Vec<Vec<AtomicBool>> =
            (0..3).map(|_| (0..4).map(|_| AtomicBool::new(false)).collect()).collect();
        for workers in [1, 2, 3, 8] {
            advanced.iter().flatten().for_each(|a| a.store(false, Ordering::SeqCst));
            JobPool::new(workers).run_pipelines(
                chains(&[&[2, 3, 1, 2], &[1, 1, 1, 1], &[4, 4]]),
                |c: &mut Chain, outputs| {
                    let jobs = next_stage(c, outputs);
                    std::thread::sleep(Duration::from_micros(300));
                    if jobs.is_some() {
                        advanced[c.id][c.log.len() - 1].store(true, Ordering::SeqCst);
                    }
                    jobs
                },
                |job| {
                    assert!(advanced[job.0][job.1].load(Ordering::SeqCst), "workers={workers}");
                    job
                },
            );
        }
    }

    #[test]
    fn pipeline_panics_are_named_after_the_other_pipelines_drained() {
        // (what panics, the message that must come back)
        let cases = [
            ("job", "pool pipeline 1 stage 1 job 1 panicked: boom in job"),
            ("advance", "pool pipeline 1 advancing to stage 2 panicked: boom in advance"),
        ];
        for (what, want) in cases {
            // 8 workers and 1 pipeline: the 7 waiting must wake up, not hang.
            for (workers, others) in [(1, 2), (2, 2), (8, 2), (8, 0)] {
                let executed = AtomicUsize::new(0);
                let mut shapes: Vec<&[usize]> = vec![&[2, 2, 2]; others + 1];
                shapes[others.min(1)] = &[2, 3, 2];
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    JobPool::new(workers).run_pipelines(
                        chains(&shapes),
                        |c: &mut Chain, outputs| {
                            let fails = what == "advance" && c.shape[1] == 3 && c.log.len() == 2;
                            assert!(!fails, "boom in advance");
                            next_stage(c, outputs)
                        },
                        |job| {
                            executed.fetch_add(1, Ordering::SeqCst);
                            // Not the stage's last job: the rest of it still runs.
                            assert!(!(what == "job" && job == (others.min(1), 1, 1)), "boom in job");
                            job
                        },
                    )
                }));
                let payload = caught.expect_err("the panic must propagate");
                let msg = payload.downcast_ref::<String>().expect("re-raised as a formatted String");
                let want = want.replace("pipeline 1", &format!("pipeline {}", others.min(1)));
                assert_eq!(*msg, want, "workers={workers}");
                // The failing pipeline stops after stage 1 (all of it ran);
                // every other pipeline ran all six of its jobs.
                let ran = executed.load(Ordering::SeqCst);
                assert_eq!(ran, 5 + 6 * others, "{what} workers={workers}");
            }
        }
    }

    #[test]
    fn stats_account_every_job() {
        let (out, stats) = JobPool::new(3).run((0..10).collect::<Vec<u32>>(), |&j| j + 1);
        assert_eq!(stats.jobs, 10);
        assert_eq!(stats.workers, 3);
        assert_eq!(out.len(), 10);
        assert!(stats.busy >= out.iter().map(|r| r.wall).sum());
        assert!(stats.speedup() > 0.0);
    }
}
