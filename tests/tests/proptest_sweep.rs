//! Property-based tests on the sweep harness's job ordering: the job list
//! is a **pure function** of the (workload, policy, rep) extents, fully
//! independent of worker count, scheduling, or anything else — which is
//! the first of the three ordering layers behind byte-identical
//! `results/grid.json` output (see `crates/bench/src/grid.rs`).

use aoci_bench::{job_list, SweepJob};
use aoci_core::JobPool;
use proptest::prelude::*;

/// The full (workload × policy) cross product in canonical order.
fn cross(nw: usize, np: usize) -> Vec<(usize, usize)> {
    let mut cells = Vec::with_capacity(nw * np);
    for w in 0..nw {
        for p in 0..np {
            cells.push((w, p));
        }
    }
    cells
}

proptest! {
    /// For a full cross product, the job at index `i` is determined by
    /// arithmetic alone: workload-major, policy next, rep minor.
    #[test]
    fn job_index_is_pure_arithmetic(nw in 1usize..6, np in 1usize..6, reps in 1usize..5) {
        let jobs = job_list(&cross(nw, np), reps);
        prop_assert_eq!(jobs.len(), nw * np * reps);
        for (i, job) in jobs.iter().enumerate() {
            let expected = SweepJob {
                workload: i / (np * reps),
                policy: (i / reps) % np,
                rep: i % reps,
            };
            prop_assert_eq!(*job, expected, "index {}", i);
        }
    }

    /// The list is an exact enumeration: every (workload, policy, rep)
    /// triple appears exactly once, in strictly increasing canonical
    /// (lexicographic) order — no duplicates, no holes, no reordering.
    #[test]
    fn job_list_enumerates_each_triple_once(nw in 1usize..6, np in 1usize..6, reps in 1usize..5) {
        let jobs = job_list(&cross(nw, np), reps);
        let triples: Vec<_> = jobs.iter().map(|j| (j.workload, j.policy, j.rep)).collect();
        let mut sorted = triples.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&triples, &sorted, "canonical order is sorted + duplicate-free");
        prop_assert_eq!(triples.len(), nw * np * reps);
    }

    /// Rebuilding from the same extents yields the identical list, and a
    /// restriction to a subset of cells preserves the relative order of
    /// the surviving jobs (the cache-miss sweep is a filtered sweep).
    #[test]
    fn job_list_is_deterministic_and_restriction_is_a_subsequence(
        nw in 1usize..5,
        np in 1usize..5,
        reps in 1usize..4,
        keep in prop::collection::vec(any::<bool>(), 16..25),
    ) {
        let cells = cross(nw, np);
        prop_assert_eq!(job_list(&cells, reps), job_list(&cells, reps));
        let subset: Vec<_> = cells
            .iter()
            .enumerate()
            .filter(|(i, _)| keep[i % keep.len()])
            .map(|(_, &c)| c)
            .collect();
        let full = job_list(&cells, reps);
        let restricted = job_list(&subset, reps);
        // Every restricted job appears in the full list, in the same
        // relative order (subsequence check).
        let mut it = full.iter();
        for job in &restricted {
            prop_assert!(
                it.any(|j| j == job),
                "restricted job {:?} out of order w.r.t. the full list", job
            );
        }
    }

    /// The pool returns results in job-list order for any worker count:
    /// mapping the identity over a job list reproduces the list itself,
    /// whether the pool ran serially or across threads.
    #[test]
    fn pool_preserves_job_order(
        nw in 1usize..4,
        np in 1usize..4,
        reps in 1usize..4,
        workers in 1usize..9,
    ) {
        let jobs = job_list(&cross(nw, np), reps);
        let echoed = JobPool::new(workers).map(jobs.clone(), |&j| j);
        prop_assert_eq!(echoed, jobs);
    }

    /// Pipelines of dependent stages fold the same on any worker count as
    /// a plain loop with no pool at all. The fold is order-sensitive and a
    /// stage's jobs depend on everything folded before it, so outputs
    /// handed over out of job order, a job run twice or never, or a stage
    /// started early would all change the result.
    #[test]
    fn pipelines_fold_like_the_serial_loop(
        shapes in prop::collection::vec(prop::collection::vec(0usize..6, 0..5), 0..5),
        workers in 1usize..9,
    ) {
        // A pipeline's state: (jobs per stage, stages yielded, running hash).
        type Chain = (Vec<usize>, usize, u64);
        let advance = |c: &mut Chain, outputs: Vec<u64>| {
            for o in outputs {
                c.2 = c.2.wrapping_mul(0x0100_0000_01B3) ^ o;
            }
            let jobs = *c.0.get(c.1)? as u64;
            c.1 += 1;
            Some((0..jobs).map(|j| c.2.wrapping_add(j)).collect::<Vec<u64>>())
        };
        // Uneven yields, so a stage's jobs do not finish in claim order.
        let job = |j: u64| {
            (0..j % 4).for_each(|_| std::thread::yield_now());
            j.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
        };
        let chains = || shapes.iter().enumerate().map(|(p, s)| (s.clone(), 0, p as u64));

        let serial: Vec<u64> = chains()
            .map(|mut c| {
                let mut outputs = Vec::new();
                while let Some(jobs) = advance(&mut c, outputs) {
                    outputs = jobs.into_iter().map(job).collect();
                }
                c.2
            })
            .collect();
        let (done, stats) = JobPool::new(workers).run_pipelines(chains().collect(), advance, job);
        prop_assert_eq!(done.into_iter().map(|c| c.2).collect::<Vec<_>>(), serial);
        prop_assert_eq!(stats.jobs, shapes.iter().flatten().sum::<usize>());
    }
}
