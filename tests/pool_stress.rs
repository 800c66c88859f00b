//! Stress and correctness suite for the persistent thread pool behind
//! the vendored rayon shim.
//!
//! The pool's promises, each pinned here:
//! * order preservation — results concatenate in input order no matter
//!   which worker ran which chunk (10k tiny tasks);
//! * nested `par_map` from inside a task neither deadlocks nor reorders;
//! * a panic in one task propagates to the caller without poisoning the
//!   workers or leaking sibling outputs — the very next parallel call
//!   succeeds at full width;
//! * a task that panics inside `with_thread_parallelism_cap` hands the
//!   executing thread its previous cap back — a leaked `cap = 1` would
//!   silently serialise every later kernel that thread dispatches;
//! * `par_map` output bit-matches the serial `map` for random f64
//!   workloads at 1/2/4/8 threads (property test below);
//! * shutdown at process exit is clean — parked daemon workers hold no
//!   state that needs unwinding, so this whole binary exiting *is* the
//!   test.
//!
//! The width override is process-global, so every test (and every
//! proptest case) takes [`width_lock`] around it.

use proptest::prelude::*;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

fn width_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with the pool width overridden to `w`, restoring on exit
/// (including panicking exits, so later tests aren't stuck at `w`).
fn with_width<R>(w: usize, f: impl FnOnce() -> R) -> R {
    let _g = width_lock();
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            rayon::set_thread_count_override(None);
        }
    }
    let _r = Reset;
    rayon::set_thread_count_override(Some(w));
    f()
}

#[test]
fn ten_thousand_tiny_tasks_preserve_order() {
    for w in [2, 4, 8] {
        let out: Vec<usize> = with_width(w, || {
            (0..10_000).into_par_iter().map(|i| i * 7 + 1).collect()
        });
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 7 + 1, "width {w}, index {i}");
        }
    }
}

#[test]
fn nested_par_map_is_ordered_and_deadlock_free() {
    let out: Vec<Vec<usize>> = with_width(4, || {
        (0..64)
            .into_par_iter()
            .map(|i| (0..32).into_par_iter().map(|j| i * 100 + j).collect())
            .collect()
    });
    for (i, inner) in out.iter().enumerate() {
        for (j, v) in inner.iter().enumerate() {
            assert_eq!(*v, i * 100 + j);
        }
    }
}

#[test]
fn panic_propagates_without_poisoning_the_pool() {
    let result = std::panic::catch_unwind(|| {
        with_width(4, || {
            (0..1000usize)
                .into_par_iter()
                .map(|i| {
                    if i == 613 {
                        panic!("task 613 exploded");
                    }
                    i
                })
                .collect::<Vec<_>>()
        })
    });
    let payload = result.expect_err("the task panic must reach the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("task 613 exploded"), "payload: {msg:?}");

    // Workers survived: the next full-width job runs to completion with
    // every task executed exactly once.
    let ran = AtomicUsize::new(0);
    let out: Vec<usize> = with_width(4, || {
        (0..1000usize)
            .into_par_iter()
            .map(|i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i * 2
            })
            .collect()
    });
    assert_eq!(ran.load(Ordering::Relaxed), 1000);
    assert_eq!(out[999], 1998);
}

#[test]
fn panic_in_nested_job_leaves_outer_pool_usable() {
    let result = std::panic::catch_unwind(|| {
        with_width(4, || {
            (0..8usize)
                .into_par_iter()
                .map(|i| {
                    let inner: Vec<usize> = (0..16)
                        .into_par_iter()
                        .map(move |j| {
                            if i == 3 && j == 5 {
                                panic!("nested panic");
                            }
                            j
                        })
                        .collect();
                    inner.len()
                })
                .collect::<Vec<_>>()
        })
    });
    assert!(result.is_err());
    let out: Vec<usize> = with_width(4, || (0..100).into_par_iter().map(|i| i + 1).collect());
    assert_eq!(out[99], 100);
}

#[test]
fn panic_inside_scoped_cap_restores_the_threads_cap() {
    let pause = || std::thread::sleep(std::time::Duration::from_micros(200));
    // Every leaf panics under its own cap of 1, on whichever thread
    // claimed it (the pause lets the workers arrive).
    let result = std::panic::catch_unwind(|| {
        with_width(4, || {
            (0..64usize)
                .into_par_iter()
                .map(|i| {
                    rayon::with_thread_parallelism_cap(Some(1), || {
                        assert_eq!(rayon::current_num_threads(), 1);
                        pause();
                        panic!("leaf {i} exploded under the cap");
                    })
                })
                .collect::<Vec<()>>()
        })
    });
    assert!(result.is_err());

    // The next full-width job runs every task once, and every thread that
    // takes part — the caller included — dispatches at full width again.
    let ran = AtomicUsize::new(0);
    let seen: Vec<usize> = with_width(4, || {
        assert_eq!(rayon::current_num_threads(), 4, "caller's cap leaked");
        (0..64usize)
            .into_par_iter()
            .map(|_| {
                ran.fetch_add(1, Ordering::Relaxed);
                pause();
                rayon::current_num_threads()
            })
            .collect()
    });
    assert_eq!(ran.load(Ordering::Relaxed), 64);
    assert!(
        seen.iter().all(|&w| w == 4),
        "a thread kept cap 1: {seen:?}"
    );

    // Scopes nest: unwinding out of the inner one restores the outer cap,
    // not "uncapped".
    with_width(4, || {
        rayon::with_thread_parallelism_cap(Some(2), || {
            let inner = std::panic::catch_unwind(|| {
                rayon::with_thread_parallelism_cap(Some(1), || panic!("inner scope"))
            });
            assert!(inner.is_err());
            assert_eq!(rayon::current_num_threads(), 2);
        });
        assert_eq!(rayon::current_num_threads(), 4);
    });
}

#[test]
fn for_each_sees_every_item_exactly_once() {
    let hits: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
    with_width(8, || {
        (0..5000usize).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn pool_counters_account_for_work() {
    let before = rayon::pool_stats();
    with_width(4, || {
        let _: Vec<usize> = (0..4000).into_par_iter().map(|i| i).collect();
    });
    let after = rayon::pool_stats();
    assert!(after.jobs_submitted > before.jobs_submitted);
    assert!(after.tasks_executed > before.tasks_executed);
    // Busy-time is tracked per spawned worker.
    assert_eq!(after.busy_ns.len(), after.workers);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `par_map` must bit-match the serial `map` at every width — the
    // combinator layer's half of the workspace determinism contract.
    #[test]
    fn par_map_bit_matches_serial_map(xs in prop::collection::vec(-1e6f64..1e6, 0..512)) {
        let f = |x: f64| (x * 1.000_000_1).sin() * x + 0.5;
        let serial: Vec<u64> = xs.iter().map(|&x| f(x).to_bits()).collect();
        for w in [1usize, 2, 4, 8] {
            let par: Vec<u64> = with_width(w, || {
                xs.clone()
                    .into_par_iter()
                    .map(|x| f(x).to_bits())
                    .collect()
            });
            prop_assert_eq!(&par, &serial, "width {}", w);
        }
    }

    // Ordered `sum` reduction: bitwise equal to the sequential fold at
    // every width (upstream rayon does not even promise this).
    #[test]
    fn par_sum_bit_matches_serial_sum(xs in prop::collection::vec(-1e3f64..1e3, 0..512)) {
        let serial: f64 = xs.iter().map(|&x| x * 1.000_001).sum();
        for w in [1usize, 2, 4, 8] {
            let par: f64 = with_width(w, || {
                xs.par_iter().map(|&x| x * 1.000_001).sum()
            });
            prop_assert_eq!(par.to_bits(), serial.to_bits(), "width {}", w);
        }
    }
}
