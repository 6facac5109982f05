//! `analysis-service`: an open loop at one fixed offered rate, from one
//! generator thread, into `irr_service::Service` — compile time as a
//! compiler user waits for it. The analysis layers do all the work on
//! verdict-cache misses; nothing is executed.
//!
//! Traffic mix, in seeded blocks of 50 requests (see [`MIX`]):
//! - 32% unique programs that miss the verdict cache: randomized loop
//!   programs, and small sparse kernels of seed-varied sizes renamed
//!   apart (see [`SPARSE_DRAWS`]);
//! - 38% repeats of the five Table 2 benchmarks, which hit the cache;
//! - 30% malformed programs, whose correct answer is a typed parse
//!   error.
//!
//! Each request is timed from when it was due: the generator's lag in
//! sending it plus the service's own submit-to-response latency.

use crate::digest::Fnv;
use crate::report::Report;
use crate::sparse::tier_matches;
use crate::stats::{beyond, median, ms, quantile, ratio};
use crate::trace::{compile_traced, Clock};
use crate::host::{self, Ticks};
use crate::Args;
use irr_driver::{compile_source, DriverOptions};
use irr_exec::SplitMix64;
use irr_programs::sparse::{kernels, ExpectedTier, SparseProgram, SparseScale};
use irr_service::{
    AnalysisResponse, DegradeLevel, Service, ServiceConfig, ServiceError, StatsSnapshot, Submitted,
};
use irr_sparse::Structure;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Offered rate, requests per second.
pub const RATE: f64 = 1000.0;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Miss sources decomposed layer by layer in a traced run.
const LAYER_SAMPLE: usize = 400;

/// What a correct answer to a request looks like.
#[derive(Clone)]
enum Expect {
    /// A full-strength analysis.
    Analyzed,
    /// A full-strength analysis whose main loop lands on this tier.
    Tier(String, ExpectedTier),
    /// A full-strength analysis with every Table 3 loop parallel.
    Parallel(Vec<&'static str>),
    /// A typed parse error.
    ParseError,
}

struct Request {
    name: String,
    /// Shared: repeated programs are not copied per request.
    source: Rc<str>,
    expect: Expect,
    /// Whether the source can miss the verdict cache.
    unique: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Fuzz,
    Sparse,
    Table2,
    Malformed,
}

/// Requests of each class in every block of 50: the mix is exact in
/// every run, and the seed only orders each block and draws the
/// programs. 38% repeat a Table 2 benchmark, the verdict-cache hit
/// share this open loop was designed around (1000 req/s on two
/// workers); 30% are malformed, the malformed share of the service
/// load generator in `crates/bench/benches/service.rs`. The other 32%
/// miss the cache, two randomized programs to each sparse kernel: the
/// randomized programs vary the loop shapes the analyses see, the
/// sparse kernels bring the guarded and interprocedural ones.
const MIX: [(Class, usize); 4] = [
    (Class::Fuzz, 11),
    (Class::Sparse, 5),
    (Class::Table2, 19),
    (Class::Malformed, 15),
];

/// Matrix draws behind the sparse requests of one stream. Each draw
/// gives every library kernel; a sparse request renames one of them, so
/// its source is new to the verdict cache while the set-up generates
/// only a few hundred programs, not one per request.
const SPARSE_DRAWS: usize = 16;

/// The request stream of one run: `count` requests drawn from `seed`.
fn traffic(seed: u64, count: usize) -> Vec<Request> {
    let table2: Vec<(String, Rc<str>, Vec<&'static str>)> =
        irr_programs::all(irr_programs::Scale::Paper)
            .into_iter()
            .map(|b| (b.name.to_string(), Rc::from(b.source), b.irregular_labels))
            .collect();
    let malformed: Vec<(String, Rc<str>)> = irr_frontend::malformed_corpus(40)
        .into_iter()
        .filter(|c| irr_frontend::parse_program(&c.source).is_err())
        .map(|c| (c.name.to_string(), Rc::from(c.source)))
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x5e41_71ce);
    let sparse: Vec<SparseProgram> = (0..SPARSE_DRAWS)
        .flat_map(|_| {
            let n = rng.range_usize(32, 256);
            kernels(&SparseScale {
                n,
                nnz: n * rng.range_usize(4, 12),
                structure: if rng.range_usize(0, 1) == 0 {
                    Structure::Uniform
                } else {
                    Structure::PowerLaw
                },
                seed: rng.next_u64(),
            })
        })
        .collect();
    let mut out = Vec::with_capacity(count);
    let mut block: Vec<Class> = Vec::new();
    for i in 0..count {
        if block.is_empty() {
            block = MIX
                .iter()
                .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
                .collect();
            let order = crate::sparse::shuffled(block.len(), &mut rng);
            block = order.into_iter().map(|j| block[j]).collect();
        }
        let class = block.pop().expect("refilled above");
        let req = if class == Class::Fuzz {
            // A randomized loop program, renamed so it never repeats.
            let src = irr_programs::fuzz::random_loop_program(&mut rng).replacen(
                "program f\n",
                &format!("program f{i}\n"),
                1,
            );
            Request {
                name: format!("fuzz-{i}"),
                source: Rc::from(src),
                expect: Expect::Analyzed,
                unique: true,
            }
        } else if class == Class::Sparse {
            let k = &sparse[rng.range_usize(0, sparse.len() - 1)];
            // Rename the program so the source is unique to this request.
            let (prog, rest) = k.label.split_once('/').expect("PROG/doNN label");
            let lower = prog.to_ascii_lowercase();
            let src = k.source.replacen(
                &format!("program {lower}\n"),
                &format!("program {lower}r{i}\n"),
                1,
            );
            Request {
                name: format!("{}-{i}", k.name),
                source: Rc::from(src),
                expect: Expect::Tier(format!("{prog}R{i}/{rest}"), k.expected_tier),
                unique: true,
            }
        } else if class == Class::Table2 {
            let (name, src, labels) = &table2[rng.range_usize(0, table2.len() - 1)];
            Request {
                name: name.clone(),
                source: src.clone(),
                expect: Expect::Parallel(labels.clone()),
                unique: false,
            }
        } else {
            let (name, src) = &malformed[rng.range_usize(0, malformed.len() - 1)];
            Request {
                name: name.clone(),
                source: src.clone(),
                expect: Expect::ParseError,
                unique: true,
            }
        };
        out.push(req);
    }
    out
}

/// Checks one response against its expectation.
fn verify(expect: &Expect, resp: &AnalysisResponse) -> Result<(), String> {
    let analyzed = match (&resp.result, expect) {
        (Err(ServiceError::Parse(_)), Expect::ParseError) => return Ok(()),
        (Err(e), _) => return Err(format!("{}: {}", resp.name, e.reason_code())),
        (Ok(_), Expect::ParseError) => {
            return Err(format!("{}: malformed source was analyzed", resp.name))
        }
        (Ok(a), _) => a,
    };
    if analyzed.level != DegradeLevel::Full || analyzed.degraded.is_some() {
        return Err(format!(
            "{}: degraded answer ({})",
            resp.name,
            resp.reason_code()
        ));
    }
    let rep = &analyzed.report;
    match expect {
        Expect::Analyzed | Expect::ParseError => Ok(()),
        Expect::Tier(label, tier) => match rep.verdict(label) {
            Some(v) if tier_matches(*tier, &v.tier) => Ok(()),
            Some(v) => Err(format!("{}: {label} landed on {:?}", resp.name, v.tier)),
            None => Err(format!("{}: no verdict for {label}", resp.name)),
        },
        Expect::Parallel(labels) => match labels
            .iter()
            .find(|l| !rep.verdict(l).is_some_and(|v| v.parallel))
        {
            None => Ok(()),
            Some(l) => Err(format!("{}: Table 3 loop {l} not parallel", resp.name)),
        },
    }
}

struct Sent {
    idx: usize,
    lag_ms: f64,
    submit_us: Option<f64>,
    sub: Submitted,
}

struct Done {
    idx: usize,
    lag_ms: f64,
    submit_us: Option<f64>,
    service_ms: f64,
    ok: Result<(), String>,
}

/// Moves completed responses from the front of `pending` to `done`,
/// verifying each; with `wait`, blocks until every response is in.
fn collect(
    pending: &mut VecDeque<Sent>,
    reqs: &[Request],
    done: &mut Vec<Done>,
    last: &mut Instant,
    wait: bool,
) {
    while let Some(front) = pending.front() {
        let resp = match &front.sub {
            Submitted::Shed(_) => None,
            Submitted::Accepted(rx) if wait => Some(rx.recv().map_err(|_| ())),
            Submitted::Accepted(rx) => match rx.try_recv() {
                Ok(r) => Some(Ok(r)),
                Err(mpsc::TryRecvError::Empty) => return,
                Err(mpsc::TryRecvError::Disconnected) => Some(Err(())),
            },
        };
        let s = pending.pop_front().expect("front exists");
        let resp = match (s.sub, resp) {
            (Submitted::Shed(r), _) => *r,
            (_, Some(Ok(r))) => r,
            _ => AnalysisResponse {
                seq: u64::MAX,
                name: reqs[s.idx].name.clone(),
                latency: Duration::ZERO,
                result: Err(ServiceError::ReplyLost),
            },
        };
        *last = Instant::now();
        done.push(Done {
            idx: s.idx,
            lag_ms: s.lag_ms,
            submit_us: s.submit_us,
            service_ms: ms(resp.latency),
            ok: verify(&reqs[s.idx].expect, &resp),
        });
    }
}

/// One set-up: generate the stream, start the pool, and warm it with
/// the Table 2 programs and a few unique requests from another stream.
fn setup(seed: u64, count: usize, workers: usize) -> (Vec<Request>, Service, u64) {
    let reqs = traffic(seed, count);
    let mut h = Fnv::new();
    for r in &reqs {
        h.bytes(r.source.as_bytes());
    }
    let svc = Service::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    for b in irr_programs::all(irr_programs::Scale::Paper) {
        svc.analyze(b.name, &b.source);
    }
    for r in traffic(seed ^ 0xffff, 64).iter().filter(|r| r.unique) {
        svc.analyze(&r.name, &r.source);
    }
    (reqs, svc, h.finish())
}

pub fn run(args: &Args, workers: usize, report: &mut Report) {
    let count = (RATE * args.seconds as f64) as usize;
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut current = None;
    for _ in 0..SETUPS {
        // One set-up at a time: the previous stream and pool go first.
        if let Some((_, old)) = current.take() {
            let _ = Service::shutdown(old);
        }
        let t = Instant::now();
        let (reqs, svc, d) = setup(args.seed, count, workers);
        setup_s.push(t.elapsed().as_secs_f64());
        digests.push(d);
        current = Some((reqs, svc));
    }
    report.set("setup_s", median(&setup_s));
    report.note(format!("set-ups: {setup_s:?} s"));
    let (reqs, svc) = current.expect("at least one set-up");
    report.note(format!(
        "inputs: {count} requests at {RATE} req/s, {} unique, sources fnv={:016x}",
        reqs.iter().filter(|r| r.unique).count(),
        digests[0]
    ));
    if digests.iter().any(|d| *d != digests[0]) {
        report.problem("set-ups of one seed produced different requests".into());
    }
    let before = svc.stats();
    let reset = host::reset_peak_rss();

    let start = Instant::now();
    let mut pending: VecDeque<Sent> = VecDeque::new();
    let mut done: Vec<Done> = Vec::with_capacity(count);
    let mut last = start;
    // A reading at the start of every tenth of a second of the schedule,
    // and one when the last request is sent: the end-to-end figures come
    // from the quieter windows between them.
    let window = RATE as usize / 10;
    let mut marks: Vec<(Ticks, StatsSnapshot)> = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / RATE);
        // Collect what has completed while waiting for the next send;
        // the service stamps each response's latency itself, so when it
        // is collected does not change what is measured.
        collect(&mut pending, &reqs, &mut done, &mut last, false);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        if i % window == 0 {
            marks.push((Ticks::now(), svc.stats()));
        }
        let sent = Instant::now();
        let sub = svc.submit(&r.name, &r.source);
        let submit_us = args.trace.then(|| ms(sent.elapsed()) * 1e3);
        pending.push_back(Sent {
            idx: i,
            lag_ms: ms(sent - due),
            submit_us,
            sub,
        });
    }
    marks.push((Ticks::now(), svc.stats()));
    collect(&mut pending, &reqs, &mut done, &mut last, true);
    let elapsed = (last - start).as_secs_f64();
    let after = svc.shutdown();

    report.attempted = done.len() as u64;
    for d in &done {
        if let Err(e) = &d.ok {
            report.fail_op(e.clone());
        }
    }
    let total: Vec<f64> = done.iter().map(|d| d.lag_ms + d.service_ms).collect();
    let steal: Vec<f64> = marks.windows(2).map(|w| w[1].0.steal_since(w[0].0)).collect();
    let quiet = quietest(&steal);
    let in_quiet: Vec<f64> = done
        .iter()
        .zip(&total)
        .filter(|(d, _)| quiet.binary_search(&(d.idx / window)).is_ok())
        .map(|(_, t)| *t)
        .collect();
    let p50 = median(&in_quiet);
    let p90 = quantile(&in_quiet, 0.9);
    let p99 = quantile(&in_quiet, 0.99);
    report.set("latency_ms.p50", p50);
    report.set("latency_ms.p90", p90);
    report.set("bench.latency_ms.p99", p99);
    host::record_peak_rss(reset, report);
    let lag_max = done.iter().map(|d| d.lag_ms).fold(0.0, f64::max);
    // The tail beyond p90 follows the host's scheduling stalls more
    // than the program: show how far it moves from second to second.
    let second = RATE as usize;
    let per_second: Vec<f64> = total
        .chunks(second)
        .filter(|c| c.len() == second)
        .map(|c| quantile(c, 0.99))
        .collect();
    let delta = diff(&after, &before);
    // The offered rate fixes completions per wall second; the service's
    // capacity is what it completes per second its workers are busy.
    let (completed, busy_ns) = quiet.iter().fold((0, 0), |(c, b), &w| {
        let d = diff(&marks[w + 1].1, &marks[w].1);
        (c + d.completed, b + d.busy_ns)
    });
    report.set(
        "throughput_ops_s",
        ratio(completed as f64, busy_ns as f64 / 1e9),
    );
    let quiet_steal: Vec<f64> = quiet.iter().map(|&w| steal[w]).collect();
    report.note(format!(
        "quieter {} of {} windows of 0.1 s: {:.1}% stolen; all windows: {:.1}% stolen, p50 {:.3} ms, p90 {:.3} ms, {:.0} completions per busy second",
        quiet.len(),
        steal.len(),
        100.0 * median(&quiet_steal),
        100.0 * median(&steal),
        median(&total),
        quantile(&total, 0.9),
        ratio(done.len() as f64, delta.busy_ns as f64 / 1e9),
    ));
    report.note(format!(
        "latency: {} requests in the quieter windows, p50 {p50:.3} ms, p90 {p90:.3} ms ({} beyond), p99 {p99:.3} ms ({} beyond, per-second p99 {:.3}..{:.3} ms); generator lag max {lag_max:.3} ms",
        in_quiet.len(),
        beyond(&in_quiet, p90),
        beyond(&in_quiet, p99),
        quantile(&per_second, 0.0),
        quantile(&per_second, 1.0),
    ));
    report.note(format!(
        "service: {} completed, {} cache hits, {} misses, {} parse errors, {} degraded, {} shed, busy {:.1}% of {workers} workers",
        delta.completed,
        delta.cache_hits,
        delta.cache_misses,
        delta.parse_errors,
        delta.degraded,
        delta.shed_queue_full + delta.shed_shutdown,
        100.0 * ratio(delta.busy_ns as f64 / 1e9, elapsed * workers as f64)
    ));
    if delta.cache_hits == 0 || delta.cache_misses == 0 {
        report.problem("the verdict cache was not both hit and missed".into());
    }
    if args.trace {
        per_layer(&reqs, &done, &delta, lag_max, report);
    }
}

/// The windows that saw no more stolen CPU time than the first quartile
/// of the windows, given each window's stolen share. The hypervisor of a
/// shared guest preempts a vCPU for 10 ms or more at a time, and every
/// request due in the meantime waits for it: a window that overlaps a
/// preemption times the other guests more than the service.
fn quietest(steal: &[f64]) -> Vec<usize> {
    let cut = quantile(steal, 0.25);
    (0..steal.len()).filter(|&w| steal[w] <= cut).collect()
}

fn diff(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        submitted: a.submitted - b.submitted,
        shed_queue_full: a.shed_queue_full - b.shed_queue_full,
        shed_shutdown: a.shed_shutdown - b.shed_shutdown,
        completed: a.completed - b.completed,
        cache_hits: a.cache_hits - b.cache_hits,
        cache_misses: a.cache_misses - b.cache_misses,
        parse_errors: a.parse_errors - b.parse_errors,
        panics_caught: a.panics_caught - b.panics_caught,
        quarantined_served: a.quarantined_served - b.quarantined_served,
        degraded: a.degraded - b.degraded,
        fuel_exhaustions: a.fuel_exhaustions - b.fuel_exhaustions,
        wall_exhaustions: a.wall_exhaustions - b.wall_exhaustions,
        busy_ns: a.busy_ns - b.busy_ns,
    }
}

/// The traced run's per-layer metrics. The service's own layers come
/// from its counters and the timed submits; the analysis layers from
/// decomposing a seeded sample of the requests that missed the cache,
/// after the open loop, scaled to a per-request figure. The tracing
/// overhead is that sample's traced compile time against its untraced
/// compile time.
fn per_layer(
    reqs: &[Request],
    done: &[Done],
    delta: &StatsSnapshot,
    lag_max: f64,
    report: &mut Report,
) {
    let n = done.len().max(1) as f64;
    let submit: Vec<f64> = done.iter().filter_map(|d| d.submit_us).collect();
    report.set(
        "service.submit_us",
        ratio(submit.iter().sum(), submit.len() as f64),
    );
    let service: Vec<f64> = done.iter().map(|d| d.service_ms).collect();
    report.set("service.latency_ms.p50", median(&service));
    report.set("service.latency_ms.p99", quantile(&service, 0.99));
    report.set("service.busy_ms", delta.busy_ns as f64 / 1e6 / n);
    report.set(
        "service.cache_hit_frac",
        ratio(
            delta.cache_hits as f64,
            (delta.cache_hits + delta.cache_misses) as f64,
        ),
    );
    report.set("service.degraded", delta.degraded as f64 / n);
    report.set(
        "service.shed",
        (delta.shed_queue_full + delta.shed_shutdown) as f64 / n,
    );
    report.set("service.parse_errors", delta.parse_errors as f64 / n);
    report.set("bench.gen_lag_ms.max", lag_max);
    report.set("bench.failed_ops_frac", ratio(report.failed as f64, n));

    // Analysis layers over a sample of the misses.
    let misses: Vec<&Request> = done
        .iter()
        .map(|d| &reqs[d.idx])
        .filter(|r| r.unique)
        .collect();
    let mut rng = SplitMix64::new(0x001a_7e45);
    let sample: Vec<&Request> = (0..LAYER_SAMPLE.min(misses.len()))
        .map(|_| misses[rng.range_usize(0, misses.len() - 1)])
        .collect();
    let t = Instant::now();
    for r in &sample {
        let _ = compile_source(&r.source, DriverOptions::with_iaa());
    }
    let untraced = t.elapsed();
    let mut clock = Clock::new();
    let t = Instant::now();
    for r in &sample {
        clock.op += 1;
        let _ = compile_traced(&mut clock, &r.source, DriverOptions::with_iaa());
    }
    report.set(
        "bench.trace_overhead_frac",
        ratio(t.elapsed().as_secs_f64(), untraced.as_secs_f64()) - 1.0,
    );
    let sample = sample.len();
    // Per request: the sampled mean per miss, times the share of
    // requests that missed.
    let scale = ratio(misses.len() as f64, n) / sample.max(1) as f64;
    let totals = clock.totals_ms();
    for name in [
        "frontend.parse",
        "passes.inline",
        "passes.constprop",
        "passes.normalize",
        "passes.induction",
        "passes.forward_sub",
        "passes.dce",
        "passes.pipeline",
        "graph.hcg_build",
        "core.summaries",
        "core.evolution",
        "driver.compile",
    ] {
        report.set(
            &format!("{name}_ms"),
            totals.get(name).copied().unwrap_or(0.0) * scale,
        );
    }
    for (name, v) in &clock.counts {
        report.set(name, v * scale);
    }
    report.unreached("runtime.");
    report.unreached("exec.");
    report.unreached("kernel.");
}
