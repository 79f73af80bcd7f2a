//! The worker pool behind every fan-out of `phoenix-core`.
//!
//! `par` is crate-private, so this file compiles its own copy of
//! `src/par.rs` and drives it directly; the last test drives the library's
//! pool through `CompileRequest`. Interleavings are forced with barriers
//! and channels. Every scenario that could deadlock runs on a spawned
//! thread under [`finishes`], so a deadlock fails the test instead of
//! hanging it.

#[path = "../src/par.rs"]
#[allow(dead_code)]
mod par;

use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// How long a scenario may take before it counts as deadlocked.
const HANG: Duration = Duration::from_secs(60);

/// Tests here hold pool workers on purpose, so they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The pool's size on this host: every core but the caller's.
fn workers() -> usize {
    thread::available_parallelism().map_or(1, |p| p.get()) - 1
}

/// Runs `scenario` on a spawned thread; fails instead of hanging if it
/// does not finish within [`HANG`], and re-raises its panic.
fn finishes<T: Send + 'static>(what: &str, scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(scenario)));
    });
    match rx.recv_timeout(HANG) {
        Ok(Ok(out)) => out,
        Ok(Err(payload)) => panic::resume_unwind(payload),
        Err(_) => panic!("{what} did not finish within {HANG:?}: deadlock"),
    }
}

/// A few hundred nanoseconds of deterministic work, so helpers get a
/// chance to claim indices.
fn work(i: usize) -> u64 {
    (0..256u64).fold(i as u64, |a, k| {
        a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k)
    })
}

/// Runs a two-index fan-out whose indices meet at a barrier, so a pool
/// worker must run one of them: proves a live helper on this host.
fn a_helper_takes_part() {
    if workers() == 0 {
        return;
    }
    let meet = Arc::new(Barrier::new(2));
    let out = finishes("a two-participant fan-out", move || {
        par::map(
            2,
            2,
            || (),
            move |_, i| {
                meet.wait();
                i
            },
        )
    });
    assert_eq!(out, vec![0, 1]);
}

#[test]
fn results_come_back_in_index_order() {
    let _serial = serial();
    for len in [0usize, 1, 1000] {
        for cap in [1usize, 2, 8] {
            let out = finishes("an index-order fan-out", move || {
                par::map(len, cap, || (), |_, i| (i, work(i)))
            });
            let expected: Vec<(usize, u64)> = (0..len).map(|i| (i, work(i))).collect();
            assert_eq!(out, expected, "len {len}, cap {cap}");
        }
    }
}

#[test]
fn each_participant_makes_its_state_once() {
    let _serial = serial();
    // Each state counts the indices its participant ran, so exactly one
    // index per participant reads 1; a state made per index would make
    // every index read 1.
    let out = finishes("a stateful fan-out", || {
        par::map(
            500,
            8,
            || 0usize,
            |ran, i| {
                *ran += 1;
                (i, *ran)
            },
        )
    });
    assert_eq!(
        out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
        (0..500).collect::<Vec<_>>()
    );
    let total_first_calls = out.iter().filter(|&&(_, ran)| ran == 1).count();
    assert!(
        (1..=workers() + 1).contains(&total_first_calls),
        "{total_first_calls} participants for a pool of {}",
        workers()
    );
}

#[test]
fn overlapping_callers_get_their_own_results() {
    let _serial = serial();
    let results = finishes("four overlapping callers", || {
        // Index 0 of every caller's job waits for the other three, so all
        // four fan-outs are in flight at once.
        let meet = Arc::new(Barrier::new(4));
        let callers: Vec<_> = (0..4usize)
            .map(|c| {
                let meet = Arc::clone(&meet);
                thread::spawn(move || {
                    par::map(
                        300,
                        8,
                        || (),
                        move |_, i| {
                            if i == 0 {
                                meet.wait();
                            }
                            (c, i, work(c * 1000 + i))
                        },
                    )
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|h| h.join().expect("caller panicked"))
            .collect::<Vec<_>>()
    });
    for (c, out) in results.into_iter().enumerate() {
        let expected: Vec<_> = (0..300).map(|i| (c, i, work(c * 1000 + i))).collect();
        assert_eq!(out, expected, "caller {c}");
    }
}

#[test]
fn items_that_fan_out_again_complete() {
    let _serial = serial();
    let out = finishes("nested fan-outs", || {
        par::map(
            12,
            0,
            || (),
            |_, i| {
                par::map(
                    12,
                    0,
                    || (),
                    move |_, j| {
                        par::map(4, 2, || (), move |_, k| i * 144 + j * 12 + k)
                            .into_iter()
                            .sum::<usize>()
                    },
                )
            },
        )
    });
    for (i, row) in out.iter().enumerate() {
        for (j, &sum) in row.iter().enumerate() {
            assert_eq!(sum, 4 * (i * 144 + j * 12) + 6, "item ({i}, {j})");
        }
    }
}

#[test]
fn a_panicking_item_re_raises_on_the_caller_and_workers_survive() {
    let _serial = serial();
    let quiet = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let caught = finishes("a fan-out with panicking items", || {
        panic::catch_unwind(|| {
            par::map(
                64,
                8,
                || (),
                |_, i| {
                    if i == 5 || i == 40 {
                        panic!("item {i}");
                    }
                    i
                },
            )
        })
    });
    // Both indices of this job run at once, so one panic is on a worker.
    let meet = Arc::new(Barrier::new(2.min(workers() + 1)));
    let on_worker = finishes("a fan-out panicking on a worker", move || {
        panic::catch_unwind(move || {
            par::map(
                2,
                2,
                || (),
                move |_, i| {
                    meet.wait();
                    panic!("paired item {i}");
                },
            )
        })
    });
    panic::set_hook(quiet);
    let message = |p: Box<dyn std::any::Any + Send>| p.downcast_ref::<String>().cloned();
    assert_eq!(message(caught.unwrap_err()).as_deref(), Some("item 5"));
    assert_eq!(
        message(on_worker.unwrap_err()).as_deref(),
        Some("paired item 0")
    );
    // The pool still has its workers, and they still take part.
    a_helper_takes_part();
    let out = finishes("a fan-out after panics", || {
        par::map(1000, 8, || (), |_, i| i)
    });
    assert_eq!(out, (0..1000).collect::<Vec<_>>());
    assert_eq!(par::started_workers(), workers());
}

#[test]
fn a_fan_out_completes_on_its_caller_while_every_worker_is_held() {
    let _serial = serial();
    let w = workers();
    // A job of w + 1 indices that each report their thread, then park until
    // released: it holds the caller and every pool worker.
    let (entered_tx, entered_rx) = mpsc::channel();
    let release = Arc::new(Barrier::new(w + 2));
    let holder = {
        let release = Arc::clone(&release);
        thread::spawn(move || {
            par::map(
                w + 1,
                w + 1,
                || (),
                move |_, _| {
                    entered_tx
                        .send(thread::current().id())
                        .expect("test is listening");
                    release.wait();
                },
            )
        })
    };
    let held: HashSet<ThreadId> = (0..=w)
        .map(|_| {
            entered_rx
                .recv_timeout(HANG)
                .expect("every worker joins the holding job")
        })
        .collect();
    assert_eq!(
        held.len(),
        w + 1,
        "the caller and {w} workers each hold one index"
    );
    let alone = finishes("a fan-out beside a held pool", || {
        let me = thread::current().id();
        par::map(200, 8, || (), move |_, i| (i, thread::current().id() == me))
    });
    assert_eq!(alone, (0..200).map(|i| (i, true)).collect::<Vec<_>>());
    release.wait();
    holder.join().expect("holding job completes");
}

#[test]
fn the_caller_waits_for_indices_its_helpers_claimed() {
    if workers() == 0 {
        return;
    }
    let _serial = serial();
    // Two indices meet at a barrier, so the caller runs one and a helper
    // the other. The helper's index then waits for a release the test sends
    // only after checking that the caller has not returned.
    let caller: Arc<OnceLock<ThreadId>> = Arc::new(OnceLock::new());
    let meet = Arc::new(Barrier::new(2));
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let (done_tx, done_rx) = mpsc::channel();
    {
        let caller = Arc::clone(&caller);
        thread::spawn(move || {
            caller.set(thread::current().id()).expect("set once");
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                par::map(
                    2,
                    2,
                    || (),
                    move |_, i| {
                        meet.wait();
                        if caller.get() != Some(&thread::current().id()) {
                            release_rx
                                .lock()
                                .expect("one helper")
                                .recv()
                                .expect("test releases the helper");
                        }
                        i
                    },
                )
            }));
            let _ = done_tx.send(run.is_ok_and(|out| out == vec![0, 1]));
        });
    }
    match done_rx.recv_timeout(Duration::from_millis(300)) {
        Err(RecvTimeoutError::Timeout) => {}
        other => panic!("the caller returned before its helper's index finished: {other:?}"),
    }
    release_tx.send(()).expect("helper is waiting");
    assert!(
        done_rx
            .recv_timeout(HANG)
            .expect("fan-out finishes once released"),
        "results out of order or lost"
    );
}

/// The pool threads of this process, by thread name.
#[cfg(target_os = "linux")]
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("phoenix-pool-"))
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn compiles_never_start_threads_beyond_the_pool() {
    use phoenix_core::{CompileRequest, DeviceRegistry, PhoenixOptions, Target};
    use phoenix_pauli::PauliString;

    let _serial = serial();
    let terms: Vec<(PauliString, f64)> = [
        "XXYZI", "ZZYXI", "IXYZZ", "YIZXX", "ZYIXZ", "XZZIY", "IIXYZ", "ZXIIY", "YYXXI",
    ]
    .iter()
    .enumerate()
    .map(|(i, l)| (l.parse().expect("valid label"), 0.1 * (i + 1) as f64))
    .collect();
    let registry = DeviceRegistry::new();
    let fleet: Vec<_> = ["line:5", "ring:5", "grid:2x3"]
        .iter()
        .map(|spec| registry.build(spec).expect("known device"))
        .collect();
    let options = PhoenixOptions {
        stage2_threads: 8,
        stage2_scan_threads: 2,
        fleet_threads: 0,
        ..PhoenixOptions::default()
    };
    // The copy of `par` compiled into this test has a pool of its own.
    let expected = workers() + par::started_workers();
    let counts = finishes("100 compiles", move || {
        let mut counts = Vec::new();
        for k in 0..100 {
            let request = CompileRequest::new(5, &terms).options(options.clone());
            if k % 10 == 0 {
                request.fleet(&fleet).expect("fleet compiles");
            } else {
                request.target(Target::Cnot).run().expect("compiles");
            }
            // A new thread takes its name once it first runs, so the count
            // is read only after the pool has served many jobs.
            if k == 49 || k == 99 {
                counts.push(pool_threads());
            }
        }
        counts
    });
    assert_eq!(
        counts,
        vec![expected; 2],
        "pool threads after compiles 50 and 100"
    );
}
