//! The per-layer ledger of a traced run (layer = crate).
//!
//! Every figure comes from spans the benchmark records around its own calls
//! into one crate's public functions, or from counts those calls return.
//! The ledger does not depend on the workload of the run: it measures every
//! layer, so a traced run of any workload prints the whole ledger.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::{Duration, Instant};

use pba_algorithms::{
    HeavyAllocator, HeavyConfig, LightAllocator, ScheduledThresholdProtocol, VirtualBinMap,
};
use pba_model::engine::{run_agent_engine, EngineConfig};
use pba_model::outcome::{AllocationOutcome, Allocator};
use pba_model::rng::mix64;
use pba_net::codec::{write_ok_bin, write_ok_route};
use pba_net::{parse_request, Request};
use pba_stats::{log_log2, log_star};
use pba_stream::{ConcurrentRouter, Placement, RouteError, StreamAllocator, StreamConfig, Ticket};

use crate::contended::{self, callers, drive};
use crate::serve::{self, preload, serving_router, HALF};
use crate::timed::median;
use crate::trace::Tracer;
use crate::{host, key, Sizes, BINS};

/// Phase-2 seed derivation of `HeavyAllocator::allocate_traced`; the phase
/// split below must reproduce `allocate` exactly, which is checked.
const PHASE2_SEED_SALT: u64 = 0x5_1bba_11e5;

/// One ledger entry: name, value, unit.
pub type Entry = (&'static str, f64, &'static str);

pub fn heavy(parallel: bool) -> HeavyAllocator {
    HeavyAllocator::new(HeavyConfig {
        parallel,
        ..HeavyConfig::default()
    })
}

/// The envelopes `A_heavy`'s own tests hold every run to: a complete,
/// conserving allocation, excess at most 8, and at most
/// `⌈log log(m/n)⌉ + log* n + 8` rounds.
pub fn check(out: &AllocationOutcome, m: u64, n: usize, seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    if !out.is_complete(m) || !out.conserves_balls(m) {
        failures.push(format!(
            "seed {seed}: allocation incomplete or not conserving"
        ));
    }
    if out.excess(m) > 8 {
        failures.push(format!("seed {seed}: excess {} > 8", out.excess(m)));
    }
    let rounds = log_log2(m as f64 / n as f64).ceil() as usize + log_star(n as f64) as usize + 8;
    if out.rounds > rounds {
        failures.push(format!("seed {seed}: {} rounds > {rounds}", out.rounds));
    }
    failures
}

/// Replays the `serve_churn` request stream in-process, the way a reactor
/// executes one read: parse every line, group contiguous `RELEASE` and
/// `ROUTE` runs into `release_many` / `route_many`, render the replies.
/// Returns `(parse ns/line, render ns/reply, route_many ns/key,
/// release_many ns/ticket, mean group length)`.
fn replay(seed: u64, sizes: &Sizes, tracer: &mut Tracer, failures: &mut Vec<String>) -> [f64; 5] {
    let (router, _registry) = serving_router(seed);
    preload(&router, seed, sizes.preload);
    let mut parked: HashMap<u64, Ticket> = HashMap::new();
    let mut held: Vec<VecDeque<u64>> = vec![VecDeque::new(); serve::CONNS];
    let mut next_key = 0u64;
    let mut fresh = || {
        next_key += 1;
        key(seed, 7, next_key)
    };
    for fifo in &mut held {
        let keys: Vec<u64> = (0..sizes.tickets).map(|_| fresh()).collect();
        for p in router.route_many(&keys).expect("routing is infallible") {
            fifo.push_back(p.ticket.id());
            parked.insert(p.ticket.id(), p.ticket);
        }
    }
    let (mut wire, mut out) = (Vec::new(), Vec::new());
    let mut requests = Vec::with_capacity(2 * HALF);
    let (mut groups, mut grouped) = (0u64, 0u64);
    for w in 0..sizes.replay_windows {
        let fifo = &mut held[w % serve::CONNS];
        wire.clear();
        for _ in 0..HALF {
            let id = fifo.pop_front().expect("ticket held");
            wire.extend_from_slice(format!("RELEASE {id}\n").as_bytes());
        }
        for _ in 0..HALF {
            wire.extend_from_slice(format!("ROUTE {}\n", fresh()).as_bytes());
        }
        let window = tracer.reserve();
        let window_start = tracer.now();
        tracer.span("pba-net.parse", window, 2 * HALF as u64, || {
            requests.clear();
            for line in wire.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                requests.push(parse_request(line));
            }
        });
        let (mut released, mut placed): (Vec<Ticket>, Vec<Placement>) = (Vec::new(), Vec::new());
        let mut i = 0;
        while i < requests.len() {
            let run = requests[i..]
                .iter()
                .take_while(|r| std::mem::discriminant(*r) == std::mem::discriminant(&requests[i]))
                .count();
            groups += 1;
            grouped += run as u64;
            match requests[i] {
                Request::Release { .. } => {
                    let tickets: Vec<Ticket> = requests[i..i + run]
                        .iter()
                        .filter_map(|r| match r {
                            Request::Release { id } => parked.remove(id),
                            _ => None,
                        })
                        .collect();
                    let ok = tracer.span("pba-stream.release_many", window, run as u64, || {
                        router.release_many(&tickets)
                    });
                    if ok.is_err() || tickets.len() != run {
                        failures.push(format!("replay window {w}: a release failed"));
                    }
                    released.extend(tickets);
                }
                Request::Route { .. } => {
                    let keys: Vec<u64> = requests[i..i + run]
                        .iter()
                        .filter_map(|r| match r {
                            Request::Route { key } => Some(*key),
                            _ => None,
                        })
                        .collect();
                    let placements = tracer
                        .span("pba-stream.route_many", window, run as u64, || {
                            router.route_many(&keys)
                        })
                        .expect("routing is infallible");
                    for p in &placements {
                        if p.bin >= BINS {
                            failures.push(format!("replay window {w}: bin {} out of range", p.bin));
                        }
                        fifo.push_back(p.ticket.id());
                        parked.insert(p.ticket.id(), p.ticket);
                    }
                    placed.extend(placements);
                }
                other => failures.push(format!("replay window {w}: parsed {other:?}")),
            }
            i += run;
        }
        tracer.span("pba-net.render", window, 2 * HALF as u64, || {
            out.clear();
            for t in &released {
                write_ok_bin(&mut out, t.bin());
            }
            for p in &placed {
                write_ok_route(&mut out, p.bin, p.ticket.id());
            }
        });
        tracer.record_id(
            window,
            "ledger.replay_window",
            0,
            window_start,
            2 * HALF as u64,
        );
    }
    if !router.conserves_balls() {
        failures.push("replay router does not conserve balls".into());
    }
    [
        tracer.total("pba-net.parse").ns_per_item(),
        tracer.total("pba-net.render").ns_per_item(),
        tracer.total("pba-stream.route_many").ns_per_item(),
        tracer.total("pba-stream.release_many").ns_per_item(),
        grouped as f64 / groups.max(1) as f64,
    ]
}

/// One caller on this thread: blocks of 64 fresh routes then 64 releases of
/// the oldest tickets, each block one span. Returns `(route ns, release ns)`.
fn one_caller(
    name: (&'static str, &'static str),
    seed: u64,
    sizes: &Sizes,
    tracer: &mut Tracer,
    route: &mut dyn FnMut(u64) -> Result<Placement, RouteError>,
    release: &mut dyn FnMut(Ticket) -> Result<(), RouteError>,
    failures: &mut Vec<String>,
) -> (f64, f64) {
    const BLOCK: usize = 64;
    let mut fifo = VecDeque::new();
    let mut next_key = 0u64;
    let mut fresh = || {
        next_key += 1;
        key(seed, 9, next_key)
    };
    while fifo.len() < sizes.tickets {
        match route(fresh()) {
            Ok(p) if p.bin < BINS => fifo.push_back(p.ticket),
            _ => failures.push(format!("{}: a route failed", name.0)),
        }
    }
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs_f64(sizes.ledger_s) {
        let start = tracer.now();
        for _ in 0..BLOCK {
            match route(fresh()) {
                Ok(p) if p.bin < BINS => fifo.push_back(p.ticket),
                _ => failures.push(format!("{}: a route failed", name.0)),
            }
        }
        tracer.record(name.0, 0, start, BLOCK as u64);
        let start = tracer.now();
        for _ in 0..BLOCK {
            let t = fifo.pop_front().expect("ticket held");
            if release(t).is_err() {
                failures.push(format!("{}: a release failed", name.1));
            }
        }
        tracer.record(name.1, 0, start, BLOCK as u64);
    }
    for t in fifo {
        if release(t).is_err() {
            failures.push(format!("{}: a release failed", name.1));
        }
    }
    (
        tracer.total(name.0).ns_per_item(),
        tracer.total(name.1).ns_per_item(),
    )
}

/// Wall nanoseconds per call per caller of `callers` threads on `router`.
fn contended_ns(
    router: &ConcurrentRouter,
    seed: u64,
    threads: usize,
    sizes: &Sizes,
    failures: &mut Vec<String>,
) -> (f64, f64) {
    let mut cs = callers(seed, threads);
    let len = Duration::from_secs_f64(sizes.ledger_s);
    let (slice, _) = drive(
        router,
        &mut cs,
        sizes.tickets,
        sizes.warmup,
        None,
        |probe| probe.slice(len),
    );
    if slice.failed > 0 {
        failures.push(format!(
            "{} calls failed at {threads} callers",
            slice.failed
        ));
    }
    // Release every held ticket so the next measurement starts from the
    // preload alone.
    for c in &mut cs {
        for t in c.tickets.drain(..) {
            if router.release(t).is_err() {
                failures.push("a held ticket did not release".into());
            }
        }
    }
    let ns = threads as f64 * slice.wall.as_nanos() as f64 / slice.ops.max(1) as f64;
    let boundaries_per_kroute = slice.gap_count as f64 * 1e3 / (slice.ops / 2).max(1) as f64;
    (ns, boundaries_per_kroute)
}

/// The whole ledger. `serve_cpu` is the server CPU per request and client
/// replies per `read` of a `serve_churn` run, when the traced workload was
/// one.
pub fn ledger(
    seed: u64,
    sizes: &Sizes,
    tracer: &mut Tracer,
    serve_cpu: Option<(f64, f64)>,
    failures: &mut Vec<String>,
) -> io::Result<Vec<Entry>> {
    let mut entries = Vec::new();

    // pba-net and grouping: the replayed serve_churn stream.
    let mut t = Tracer::new(tracer.epoch(), 1 << 50);
    let [parse, render, route_many, release_many, group_len] =
        replay(seed, sizes, &mut t, failures);
    tracer.absorb(t);
    let (cpu_us, replies_per_read) = match serve_cpu {
        Some(measured) => measured,
        None => {
            let short = Sizes {
                setups: 1,
                ..sizes.clone()
            };
            let o = serve::run(seed, sizes.ledger_s * 2.0, &short, None)?;
            failures.extend(o.failures);
            (o.timed.cpu_us_per_op(), o.replies_per_read)
        }
    };
    let stages_us = (parse + render + (route_many + release_many) / 2.0) / 1e3;
    let residual = cpu_us - stages_us;
    println!(
        "# reconciliation server_cpu_us_per_req {cpu_us:.4} = parse {:.4} + route/release {:.4} + render {:.4} + residual(reactor, syscalls, kernel) {residual:.4}",
        parse / 1e3,
        (route_many + release_many) / 2e3,
        render / 1e3
    );
    entries.push(("pba-net.parse_ns_per_line", parse, "ns"));
    entries.push(("pba-net.render_ns_per_reply", render, "ns"));
    entries.push(("pba-net.residual_cpu_us_per_req", residual, "us"));
    entries.push(("pba-net.replies_per_client_read", replies_per_read, "count"));
    entries.push(("pba-stream.route_many_ns_per_key", route_many, "ns"));
    entries.push(("pba-stream.release_many_ns_per_ticket", release_many, "ns"));
    entries.push(("pba-stream.group_len_mean", group_len, "count"));

    // pba-stream single-call path: 1 caller, 2 callers, &mut twin.
    let (router, _registry) = serving_router(seed);
    preload(&router, seed, sizes.preload);
    let mut t = Tracer::new(tracer.epoch(), 2 << 50);
    let (route_ns, release_ns) = one_caller(
        ("pba-stream.route", "pba-stream.release"),
        seed,
        sizes,
        &mut t,
        &mut |k| router.route(k),
        &mut |ticket| router.release(ticket),
        failures,
    );
    tracer.absorb(t);
    let (one_ns, boundaries) = contended_ns(&router, seed, 1, sizes, failures);
    let (two_ns, _) = contended_ns(&router, seed, 2, sizes, failures);
    failures.extend(contended::check(&router, sizes.preload, &[]));
    let mut allocator = StreamAllocator::new(StreamConfig::new(BINS).seed(seed));
    let keys: Vec<u64> = (0..sizes.preload).map(|j| key(seed, 0, j)).collect();
    allocator.route_many(&keys).expect("routing is infallible");
    let allocator = std::cell::RefCell::new(allocator);
    let mut t = Tracer::new(tracer.epoch(), 3 << 50);
    let (allocator_ns, _) = one_caller(
        ("pba-stream.allocator_route", "pba-stream.allocator_release"),
        seed,
        sizes,
        &mut t,
        &mut |k| allocator.borrow_mut().route(k),
        &mut |ticket| allocator.borrow_mut().release(ticket),
        failures,
    );
    tracer.absorb(t);
    entries.push(("pba-stream.route_ns", route_ns, "ns"));
    entries.push(("pba-stream.release_ns", release_ns, "ns"));
    entries.push(("pba-stream.contention_x", two_ns / one_ns, "x"));
    entries.push(("pba-stream.allocator_route_ns", allocator_ns, "ns"));
    entries.push(("pba-stream.boundaries_per_kroute", boundaries, "count"));

    // pba-obs: instrumented against bare, 2 callers, alternating order.
    let bare = ConcurrentRouter::new(StreamConfig::new(BINS).seed(seed));
    preload(&bare, seed, sizes.preload);
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        with.push(contended_ns(&router, seed, 2, sizes, failures).0);
        without.push(contended_ns(&bare, seed, 2, sizes, failures).0);
    }
    entries.push((
        "pba-obs.instrumented_over_bare",
        median(with) / median(without),
        "x",
    ));

    // pba-algorithms and pba-model: A_heavy's two phases, split by hand.
    let (m, n) = (sizes.heavy_m, sizes.heavy_n);
    let alloc = heavy(true);
    let engine = EngineConfig {
        parallel: true,
        track_per_ball: false,
        record_rounds: true,
    };
    let (mut p1_ms, mut p2_ms, mut whole_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = [0.0; 4];
    let mut t = Tracer::new(tracer.epoch(), 4 << 50);
    for rep in 0..3u64 {
        let s = seed.wrapping_add(rep);
        let protocol = ScheduledThresholdProtocol::new(alloc.schedule_for(m, n));
        let start = t.now();
        let p1 = run_agent_engine(&protocol, m, n, s, &engine);
        t.record("pba-model.run_agent_engine", 0, start, p1.totals.requests);
        p1_ms.push((t.now() - start) as f64 / 1e6);
        let map = VirtualBinMap::sized_for(n, p1.remaining_balls.len() as u64);
        let light = LightAllocator::new(alloc.config.light);
        let start = t.now();
        let p2 = light.allocate_balls(
            &p1.remaining_balls,
            m,
            map.n_virtual(),
            mix64(s ^ PHASE2_SEED_SALT),
            false,
        );
        t.record("pba-algorithms.allocate_balls", 0, start, p1.remaining);
        p2_ms.push((t.now() - start) as f64 / 1e6);
        let start = t.now();
        let (out, trace) = alloc.allocate_traced(m, n, s);
        t.record("pba-algorithms.allocate", 0, start, m);
        whole_ms.push((t.now() - start) as f64 / 1e6);
        let mut loads = p1.loads.clone();
        map.fold_loads(&p2.loads, &mut loads);
        if loads != out.loads
            || p1.rounds != trace.phase1_rounds
            || p2.rounds != trace.phase2_rounds
            || p1.remaining != trace.leftover_after_phase1
        {
            failures.push(format!("seed {s}: phase split does not reproduce allocate"));
        }
        failures.extend(check(&out, m, n, s));
        if rep == 0 {
            counts = [
                trace.phase1_rounds as f64,
                trace.phase2_rounds as f64,
                trace.leftover_after_phase1 as f64,
                out.messages.requests as f64 / m as f64,
            ];
        }
    }
    let ns_per_request = t.total("pba-model.run_agent_engine").ns_per_item();
    tracer.absorb(t);
    let (p1_ms, p2_ms, whole_ms) = (median(p1_ms), median(p2_ms), median(whole_ms));
    println!(
        "# reconciliation allocate_ms {whole_ms:.3} vs phase1 {p1_ms:.3} + phase2 {p2_ms:.3} = {:.3}",
        p1_ms + p2_ms
    );
    entries.push(("pba-algorithms.phase1_ms", p1_ms, "ms"));
    entries.push(("pba-algorithms.phase2_ms", p2_ms, "ms"));
    entries.push(("pba-model.ns_per_request", ns_per_request, "ns"));
    entries.push(("pba-algorithms.phase1_rounds", counts[0], "count"));
    entries.push(("pba-algorithms.phase2_rounds", counts[1], "count"));
    entries.push(("pba-algorithms.leftover_after_phase1", counts[2], "count"));
    entries.push(("pba-model.requests_per_ball", counts[3], "count"));

    // The vendored rayon pool: sequential against parallel allocate.
    let sequential = heavy(false);
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    for rep in 0..3u64 {
        let s = seed.wrapping_add(10 + rep);
        let started = Instant::now();
        sequential.allocate(m, n, s);
        seq.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        alloc.allocate(m, n, s);
        par.push(started.elapsed().as_secs_f64());
    }
    entries.push((
        "pba-concurrent.parallel_speedup",
        median(seq) / median(par),
        "x",
    ));
    entries.push((
        "pba-concurrent.pool_threads",
        rayon::current_num_threads() as f64,
        "count",
    ));
    entries.push(("host.nproc", host::nproc() as f64, "count"));
    Ok(entries)
}
