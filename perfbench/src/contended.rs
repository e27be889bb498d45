//! `router_contended`: caller threads sharing one `ConcurrentRouter`.
//!
//! Each caller holds a FIFO of tickets and loops one `route(fresh key)`
//! then one `release(oldest)`, so residency stays constant. The main
//! thread only cuts slices: it reads the callers' counters, the process CPU
//! clock and the router's gap statistics at slice boundaries.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use pba_stream::{ConcurrentRouter, Ticket};

use crate::serve::{preload, serving_router};
use crate::timed::{self, Slice};
use crate::trace::Tracer;
use crate::{host, key, Outcome, Sizes, BINS};

/// One in this many loop iterations times its route and its release.
const SAMPLE_EVERY: u64 = 32;

/// A caller's held tickets, oldest first, and its key counter.
#[derive(Debug)]
pub struct Caller {
    pub tickets: VecDeque<Ticket>,
    seed: u64,
    stream_id: u64,
    next_key: u64,
}

/// Callers for `count` threads.
pub fn callers(seed: u64, count: usize) -> Vec<Caller> {
    (0..count)
        .map(|c| Caller {
            tickets: VecDeque::new(),
            seed,
            stream_id: 100 + c as u64,
            next_key: 0,
        })
        .collect()
}

/// A counter on a cache line of its own, so callers do not share one.
#[repr(align(64))]
#[derive(Default)]
struct Padded(AtomicU64);

/// What the main thread reads while the callers run.
pub struct Probe<'a> {
    router: &'a ConcurrentRouter,
    ops: Vec<Padded>,
    failed: AtomicU64,
    samples: Vec<Mutex<Vec<u64>>>,
    stop: AtomicBool,
}

impl Probe<'_> {
    /// Calls (routes + releases) completed so far.
    fn ops(&self) -> u64 {
        self.ops.iter().map(|p| p.0.load(Ordering::Relaxed)).sum()
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    fn take_samples(&self) -> Vec<u64> {
        let mut all = Vec::new();
        for s in &self.samples {
            all.append(&mut s.lock().expect("sample buffer"));
        }
        all
    }

    /// One slice: the callers run for `len` while this thread sleeps.
    pub fn slice(&self, len: Duration) -> Slice {
        let (ops0, failed0) = (self.ops(), self.failed());
        let cpu0 = host::process_cpu_ns();
        let gap0 = self.router.gap_stats();
        self.take_samples();
        let started = Instant::now();
        std::thread::sleep(len);
        let wall = started.elapsed();
        let gap1 = self.router.gap_stats();
        Slice {
            wall,
            ops: self.ops() - ops0,
            failed: self.failed() - failed0,
            cpu_ns: host::process_cpu_ns() - cpu0,
            latencies_ns: self.take_samples(),
            gap_count: gap1.count() - gap0.count(),
            gap_sum: gap1.sum() - gap0.sum(),
            ..Slice::default()
        }
    }
}

/// Runs one thread per caller on `router` — fill each FIFO to `tickets`,
/// `warmup` loop iterations, then the route + release loop — while `main`
/// runs on this thread; stops the callers when `main` returns. With an
/// `epoch`, every call is recorded as a span; the callers' tracers are
/// returned.
pub fn drive<T>(
    router: &ConcurrentRouter,
    callers: &mut [Caller],
    tickets: usize,
    warmup: u64,
    epoch: Option<Instant>,
    main: impl FnOnce(&Probe) -> T,
) -> (T, Vec<Tracer>) {
    let probe = Probe {
        router,
        ops: (0..callers.len()).map(|_| Padded::default()).collect(),
        failed: AtomicU64::new(0),
        samples: (0..callers.len()).map(|_| Mutex::new(Vec::new())).collect(),
        stop: AtomicBool::new(false),
    };
    let ready = Barrier::new(callers.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .enumerate()
            .map(|(index, caller)| {
                let (probe, ready) = (&probe, &ready);
                scope.spawn(move || {
                    let mut tracer = epoch.map(|e| Tracer::new(e, (index as u64 + 1) << 40));
                    while caller.tickets.len() < tickets {
                        caller_step(probe, caller, index, false, None, false);
                    }
                    for _ in 0..warmup {
                        caller_step(probe, caller, index, true, None, false);
                    }
                    ready.wait();
                    let mut i = 0u64;
                    while !probe.stop.load(Ordering::Relaxed) {
                        i += 1;
                        let sample = i.is_multiple_of(SAMPLE_EVERY);
                        caller_step(probe, caller, index, true, tracer.as_mut(), sample);
                        probe.ops[index].0.fetch_add(2, Ordering::Relaxed);
                    }
                    tracer
                })
            })
            .collect();
        ready.wait();
        let out = main(&probe);
        probe.stop.store(true, Ordering::Relaxed);
        let tracers = handles
            .into_iter()
            .filter_map(|h| h.join().expect("caller thread panicked"))
            .collect();
        (out, tracers)
    })
}

/// One `route(fresh key)`, then (if `release`) one `release(oldest)`.
fn caller_step(
    probe: &Probe,
    caller: &mut Caller,
    index: usize,
    release: bool,
    mut tracer: Option<&mut Tracer>,
    sample: bool,
) {
    let k = key(caller.seed, caller.stream_id, caller.next_key);
    caller.next_key += 1;
    let t0 = Instant::now();
    let span = tracer.as_ref().map(|t| t.now());
    let routed = probe.router.route(k);
    if let (Some(t), Some(start)) = (tracer.as_mut(), span) {
        t.record("pba-stream.route", 0, start, 1);
    }
    let t1 = Instant::now();
    match routed {
        Ok(p) if p.bin < BINS => caller.tickets.push_back(p.ticket),
        _ => {
            probe.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    if !release {
        return;
    }
    let oldest = caller.tickets.pop_front().expect("a ticket is held");
    let t2 = Instant::now();
    let span = tracer.as_ref().map(|t| t.now());
    let released = probe.router.release(oldest);
    if let (Some(t), Some(start)) = (tracer.as_mut(), span) {
        t.record("pba-stream.release", 0, start, 1);
    }
    if sample {
        let mut samples = probe.samples[index].lock().expect("sample buffer");
        samples.push((t1 - t0).as_nanos() as u64);
        samples.push(t2.elapsed().as_nanos() as u64);
    }
    if released.is_err() {
        probe.failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// End checks on a quiescent router holding `preload` plus the callers'
/// tickets.
pub fn check(router: &ConcurrentRouter, preload: u64, callers: &[Caller]) -> Vec<String> {
    let mut failures = Vec::new();
    let held: u64 = callers.iter().map(|c| c.tickets.len() as u64).sum();
    let stats = router.stats();
    if stats.routed - stats.released != stats.resident {
        failures.push(format!(
            "routed {} - released {} != resident {}",
            stats.routed, stats.released, stats.resident
        ));
    }
    if stats.resident != preload + held {
        failures.push(format!(
            "resident {} != preload {preload} + held {held}",
            stats.resident
        ));
    }
    if !router.conserves_balls() {
        failures.push("router does not conserve balls".into());
    }
    failures
}

/// Runs `router_contended`. In traced mode the timed phase is split in an
/// untraced and a traced half.
pub fn run(seed: u64, seconds: f64, sizes: &Sizes, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut outcome = Outcome::default();
    let len = Duration::from_secs_f64(sizes.slice_s);
    let untraced_s = if tracer.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let mut setups = Vec::new();
    for i in 0..sizes.setups {
        let started = Instant::now();
        let (router, _registry) = serving_router(seed);
        preload(&router, seed, sizes.preload);
        let mut callers = callers(seed, host::nproc());
        let last = i + 1 == sizes.setups;
        let ((setup, setup_failed, timed), _) = drive(
            &router,
            &mut callers,
            sizes.tickets,
            sizes.warmup,
            None,
            |probe| {
                let setup = started.elapsed();
                let failed = probe.failed();
                let timed = last.then(|| {
                    timed::run::<()>("router_contended", untraced_s, || Ok(probe.slice(len)))
                });
                (setup, failed, timed)
            },
        );
        setups.push(setup.as_secs_f64());
        if setup_failed > 0 {
            outcome
                .failures
                .push(format!("{setup_failed} calls failed during set-up"));
        }
        if let Some(Ok(timed)) = timed {
            outcome.timed = timed;
        }
        if let (true, Some(tracer)) = (last, tracer.as_deref_mut()) {
            let (traced, tracers) = drive(
                &router,
                &mut callers,
                sizes.tickets,
                0,
                Some(tracer.epoch()),
                |probe| {
                    timed::run::<()>("router_contended traced", seconds / 2.0, || {
                        Ok(probe.slice(len))
                    })
                },
            );
            for t in tracers {
                tracer.absorb(t);
            }
            outcome.traced = traced.ok();
        }
        if last {
            outcome.peak_rss_mb = host::peak_rss_mb();
        }
        outcome
            .failures
            .extend(check(&router, sizes.preload, &callers));
    }
    outcome.setup_s = timed::median(setups);
    outcome
}
