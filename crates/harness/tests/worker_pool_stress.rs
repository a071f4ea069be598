//! Contention stress tests for the `WorkerPool` queue: one mutex over the
//! FIFO queue and its shutdown flag, one condvar. Floods of tiny jobs
//! (maximum queue contention), repeated shutdown/rebuild cycles (Drop
//! joins cleanly, no worker leaks), wake-ups from a fully idle pool (no
//! lost-notify deadlock), and concurrent submitters racing the workers
//! for the queue lock. Every test owns a completion counter; a hang here
//! is a scheduling bug, not a slow test.

use harness::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spins until `count` reaches `expect` or `deadline` passes.
fn wait_for(count: &AtomicUsize, expect: usize, deadline: Duration) -> bool {
    let start = Instant::now();
    while count.load(Ordering::SeqCst) < expect {
        if start.elapsed() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn flood_of_tiny_jobs_completes() {
    const JOBS: usize = 20_000;
    let pool = WorkerPool::new(8);
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..JOBS {
        let done = Arc::clone(&done);
        pool.submit(Box::new(move || {
            done.fetch_add(1, Ordering::SeqCst);
        }));
    }
    assert!(
        wait_for(&done, JOBS, Duration::from_secs(30)),
        "only {}/{JOBS} tiny jobs ran",
        done.load(Ordering::SeqCst)
    );
    drop(pool); // Drop joins every worker; a deadlock here hangs the test.
    assert_eq!(done.load(Ordering::SeqCst), JOBS);
}

#[test]
fn repeated_shutdown_and_rebuild() {
    const ROUNDS: usize = 25;
    const JOBS: usize = 200;
    let done = Arc::new(AtomicUsize::new(0));
    for round in 1..=ROUNDS {
        let pool = WorkerPool::new(4);
        for _ in 0..JOBS {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // Drop without waiting: shutdown must still drain nothing early —
        // workers only exit once the queue is empty, so every submitted
        // job runs before join returns.
        drop(pool);
        assert_eq!(
            done.load(Ordering::SeqCst),
            round * JOBS,
            "round {round} lost jobs across shutdown"
        );
    }
}

#[test]
fn idle_pool_wakes_on_submit() {
    let pool = WorkerPool::new(4);
    let done = Arc::new(AtomicUsize::new(0));
    let mut expected = 0;
    // Several waves separated by idle gaps long enough for every worker
    // to park on the condvar; each wave must still complete promptly
    // (lost wake-ups would strand jobs until shutdown).
    for wave in 0..5 {
        std::thread::sleep(Duration::from_millis(120));
        let wave_jobs = 16 + wave;
        for _ in 0..wave_jobs {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        expected += wave_jobs;
        assert!(
            wait_for(&done, expected, Duration::from_secs(10)),
            "wave {wave} stranded: {}/{expected}",
            done.load(Ordering::SeqCst)
        );
    }
}

#[test]
fn concurrent_submitters_race_the_pool() {
    const SUBMITTERS: usize = 6;
    const JOBS_EACH: usize = 2_000;
    let pool = Arc::new(WorkerPool::new(3));
    let done = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let pool = Arc::clone(&pool);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for i in 0..JOBS_EACH {
                    let done = Arc::clone(&done);
                    pool.submit(Box::new(move || {
                        // Vary job weight so workers finish out of step.
                        if (s + i) % 64 == 0 {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    }));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter panicked");
    }
    assert!(
        wait_for(&done, SUBMITTERS * JOBS_EACH, Duration::from_secs(30)),
        "lost jobs under contention: {}",
        done.load(Ordering::SeqCst)
    );
}

#[test]
fn zero_thread_request_clamps_to_one_worker() {
    let pool = WorkerPool::new(0);
    assert_eq!(pool.threads(), 1);
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..500 {
        let done = Arc::clone(&done);
        pool.submit(Box::new(move || {
            done.fetch_add(1, Ordering::SeqCst);
        }));
    }
    drop(pool);
    assert_eq!(done.load(Ordering::SeqCst), 500);
}
