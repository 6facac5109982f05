//! Machinery shared by the two sparse workloads: a pool of generated
//! programs with their tree-walk references, one verified operation
//! (compile from source, run once under the hybrid dispatcher), and the
//! closed-loop driver that runs the pool in seeded rounds.

use crate::digest::{self, Fnv};
use crate::host::Ticks;
use crate::report::Report;
use crate::stats::{beyond, median, ms, quantile, ratio};
use crate::trace::{compile_traced, Clock, TimedDispatcher};
use irr_driver::{compile_source, CompilationReport, DispatchTier, DriverOptions};
use irr_exec::{ArrayData, ExecOutcome, Interp, LoopDispatcher, SplitMix64};
use irr_frontend::{Program, VarId};
use irr_programs::sparse::{ExpectedTier, SparseProgram};
use irr_runtime::{HybridConfig, HybridDispatcher, Telemetry};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// One program of a workload's pool, with everything needed to verify
/// an operation on it.
pub struct Case {
    pub prog: SparseProgram,
    /// `kernel/structure`, the row name in reports.
    pub tag: String,
    /// Output-and-store digests of the tree-walk reference run.
    pub reference: Vec<u64>,
    /// Tree-walk reference run times (one per set-up), in ms.
    pub treewalk_ms: Vec<f64>,
    /// The reference run's final store, kept for the native loops.
    pub ref_outcome: Option<ExecOutcome>,
    /// Variables excluded from the store comparison (privatized).
    pub privatized: HashSet<VarId>,
    /// The compiled program the reference ran (the pass pipeline is
    /// deterministic, so every operation's compile yields the same one).
    pub program: Program,
}

pub fn tier_matches(expected: ExpectedTier, tier: &DispatchTier) -> bool {
    matches!(
        (expected, tier),
        (
            ExpectedTier::CompileTimeParallel,
            DispatchTier::CompileTimeParallel
        ) | (
            ExpectedTier::RuntimeGuarded,
            DispatchTier::RuntimeGuarded(_)
        ) | (ExpectedTier::Sequential, DispatchTier::Sequential)
    )
}

/// Preset arrays resolved against a compiled program's symbols.
fn presets<'c>(prog: &'c SparseProgram, program: &Program) -> Vec<(VarId, &'c ArrayData)> {
    prog.presets
        .iter()
        .map(|(name, data)| {
            let var = program
                .symbols
                .lookup(name)
                .unwrap_or_else(|| panic!("{}: preset `{name}` not declared", prog.name));
            (var, data)
        })
        .collect()
}

/// A fresh interpreter over `program` with the case's presets installed.
pub fn interp<'p>(prog: &SparseProgram, program: &'p Program) -> Interp<'p> {
    let mut it = Interp::new(program);
    for (var, data) in presets(prog, program) {
        it.preset_array(var, data.clone());
    }
    it
}

/// Compiles a pool program and runs the tree-walk reference. Returns
/// the case, or the reason its verdict or run is unusable.
pub fn reference(prog: SparseProgram, tag: String, keep_store: bool) -> Result<Case, String> {
    let rep = compile_source(&prog.source, DriverOptions::with_iaa())
        .map_err(|e| format!("{tag}: does not parse: {e}"))?;
    check_tier(&prog, &rep).map_err(|e| format!("{tag}: {e}"))?;
    let t = Instant::now();
    let out = interp(&prog, &rep.program)
        .run()
        .map_err(|e| format!("{tag}: tree-walk reference failed: {e}"))?;
    let treewalk_ms = ms(t.elapsed());
    let privatized = digest::privatized(&rep);
    Ok(Case {
        reference: digest::outcome(&rep.program, &privatized, &out),
        privatized,
        tag,
        treewalk_ms: vec![treewalk_ms],
        ref_outcome: keep_store.then_some(out),
        program: rep.program,
        prog,
    })
}

fn check_tier(prog: &SparseProgram, rep: &CompilationReport) -> Result<(), String> {
    let v = rep
        .verdict(&prog.label)
        .ok_or_else(|| format!("no verdict for {}", prog.label))?;
    if tier_matches(prog.expected_tier, &v.tier) {
        Ok(())
    } else {
        Err(format!(
            "{} landed on {:?}, expected {:?}",
            prog.label, v.tier, prog.expected_tier
        ))
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Sets the pool up [`SETUPS`] times — generate the programs and run
/// their tree-walk references with `make`, then warm up with one
/// operation on each of the first `warm` cases — and reports the median
/// set-up time as `setup_s`. Every set-up of one seed must produce the
/// same sources, presets and reference results; the digests are
/// printed so a later run can show it measured the same inputs. Each
/// set-up drops the previous one's cases before it starts, so only one
/// pool is ever held. Returns the last set-up's cases with every
/// set-up's tree-walk times.
pub fn prepare(
    make: impl Fn() -> Vec<Result<Case, String>>,
    warm: usize,
    config: HybridConfig,
    report: &mut Report,
) -> Vec<Case> {
    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut treewalk: Vec<Vec<f64>> = Vec::new();
    let mut cases: Vec<Case> = Vec::new();
    for k in 0..SETUPS {
        drop(std::mem::take(&mut cases));
        let t = Instant::now();
        for c in make() {
            match c {
                Ok(c) => cases.push(c),
                Err(e) if k == 0 => report.problem(format!("setup: {e}")),
                Err(_) => {}
            }
        }
        let mut warmup = Report::default();
        for i in 0..warm.min(cases.len()) {
            run_op(&cases, i, config, None, &mut warmup);
        }
        times.push(t.elapsed().as_secs_f64());
        if warmup.failed > 0 && k == 0 {
            report.problem(format!("warm-up failed: {:?}", warmup.problems));
        }
        let refs: Vec<Vec<u64>> = cases.iter().map(|c| c.reference.clone()).collect();
        digests.push((input_digests(&cases), refs));
        treewalk.resize(cases.len(), Vec::new());
        for (tw, c) in treewalk.iter_mut().zip(&cases) {
            tw.extend(&c.treewalk_ms);
        }
    }
    for (c, tw) in cases.iter_mut().zip(treewalk) {
        c.treewalk_ms = tw;
    }
    report.set("setup_s", median(&times));
    let ((src, pre), _) = &digests[0];
    report.note(format!(
        "inputs: {} programs, sources fnv={src:016x} presets fnv={pre:016x}",
        cases.len()
    ));
    if digests.iter().any(|d| d != &digests[0]) {
        report.problem("set-ups of one seed produced different inputs or references".into());
    }
    cases
}

/// Digests of a pool's sources and preset arrays: one seed must always
/// give the same two values.
fn input_digests(cases: &[Case]) -> (u64, u64) {
    let (mut src, mut pre) = (Fnv::new(), Fnv::new());
    for c in cases {
        src.bytes(c.prog.source.as_bytes());
        for (name, data) in &c.prog.presets {
            pre.bytes(name.as_bytes());
            digest::array(&mut pre, data);
        }
    }
    (src.finish(), pre.finish())
}

/// The result of one operation.
pub struct Op {
    pub case: usize,
    pub tag: String,
    /// Source to executed loop, in ms.
    pub latency_ms: f64,
    /// `Interp::new` through the end of the run, in ms.
    pub exec_ms: f64,
    /// CPU time the hypervisor stole while the operation ran, in ms
    /// (untraced operations only).
    pub stolen_ms: f64,
    pub telemetry: Telemetry,
}

/// One operation: compile the case's source, check the main loop's
/// tier, run once under the hybrid dispatcher, and verify output and
/// final store against the tree-walk reference. With a clock, every
/// layer is timed and the wrapper's counts are checked against the
/// dispatcher's telemetry.
pub fn run_op(
    cases: &[Case],
    i: usize,
    config: HybridConfig,
    clock: Option<&mut Clock>,
    report: &mut Report,
) -> Op {
    let case = &cases[i];
    let opts = DriverOptions::with_iaa();
    let t0 = Instant::now();
    let (rep, outcome, t_exec, end, telemetry) = match clock {
        None => {
            let rep = compile_source(&case.prog.source, opts).expect("pool source parses");
            let t_exec = Instant::now();
            let mut d = HybridDispatcher::new(&rep, config);
            let out = interp(&case.prog, &rep.program).run_dispatched(&mut d);
            let end = Instant::now();
            (rep, out, t_exec, end, d.telemetry)
        }
        Some(clock) => {
            let rep = compile_traced(clock, &case.prog.source, opts).expect("pool source parses");
            let t_exec = Instant::now();
            let it = clock.time("exec.preset", || interp(&case.prog, &rep.program));
            let inner = HybridDispatcher::new(&rep, config);
            let t_run = Instant::now();
            let mut d = TimedDispatcher::new(inner, clock);
            let out = it.run_dispatched(&mut d as &mut dyn LoopDispatcher);
            let end = Instant::now();
            let tel = d.inner.telemetry;
            let check = self_check(&d, &tel);
            drop(d);
            clock.record("exec.run", t_run, end);
            let op = clock.op;
            let inside: f64 = ["runtime.dispatch", "exec.parallel", "exec.compiled"]
                .iter()
                .map(|l| clock.op_ms(op, l))
                .sum();
            let self_ms = ms(end - t_run) - inside;
            clock.count("exec.treewalk_self_ms", self_ms);
            if let Err(e) = check {
                report.problem(format!("{}: trace self-check: {e}", case.tag));
            }
            if self_ms < 0.0 {
                report.problem(format!("{}: negative tree-walk self time", case.tag));
            }
            (rep, out, t_exec, end, tel)
        }
    };
    let op = Op {
        case: i,
        tag: case.tag.clone(),
        latency_ms: ms(end - t0),
        exec_ms: ms(end - t_exec),
        stolen_ms: 0.0,
        telemetry,
    };
    report.attempted += 1;
    if let Err(e) = check_tier(&case.prog, &rep) {
        report.fail_op(format!("{}: {e}", case.tag));
        return op;
    }
    match outcome {
        Err(e) => report.fail_op(format!("{}: hybrid run failed: {e}", case.tag)),
        Ok(out) => {
            let got = digest::outcome(&rep.program, &case.privatized, &out);
            if let Some(d) = digest::differences(&rep.program, &got, &case.reference) {
                report.fail_op(format!(
                    "{}: hybrid differs from tree-walk in {d}",
                    case.tag
                ));
            }
        }
    }
    op
}

/// The traced run's self-check: the wrapper saw exactly the dispatches
/// the telemetry counted, and every parallel or compiled span was
/// closed by a commit or a fallback.
fn self_check(d: &TimedDispatcher<'_>, t: &Telemetry) -> Result<(), String> {
    let tiers = t.parallel_dispatches() + t.sequential_dispatches();
    let parallel_ends =
        t.strategy_write_log + t.strategy_in_place + t.strategy_concat + t.fallbacks();
    let compiled_ends = t.compiled_loops + t.compiled_fallbacks();
    if d.dispatches != tiers {
        Err(format!(
            "{} dispatches seen, tier counters sum to {tiers}",
            d.dispatches
        ))
    } else if d.parallel_spans != parallel_ends {
        Err(format!(
            "{} parallel spans, {parallel_ends} commits + fallbacks",
            d.parallel_spans
        ))
    } else if d.compiled_spans != compiled_ends {
        Err(format!(
            "{} compiled spans, {compiled_ends} entries + fallbacks",
            d.compiled_spans
        ))
    } else if d.unclosed() != 0 {
        Err(format!("{} spans left open", d.unclosed()))
    } else {
        Ok(())
    }
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.range_usize(0, i));
    }
    v
}

/// Sums the telemetry of a set of operations.
pub fn total<'a>(ops: impl IntoIterator<Item = &'a Op>) -> Telemetry {
    let mut t = Telemetry::default();
    for op in ops {
        let o = &op.telemetry;
        t.inspections_run += o.inspections_run;
        t.inspections_retired += o.inspections_retired;
        t.cache_hits += o.cache_hits;
        t.cache_invalidations += o.cache_invalidations;
        t.compile_time_parallel += o.compile_time_parallel;
        t.guarded_parallel += o.guarded_parallel;
        t.guarded_sequential += o.guarded_sequential;
        t.sequential_proven += o.sequential_proven;
        t.sequential_unknown_loop += o.sequential_unknown_loop;
        t.sequential_non_unit_step += o.sequential_non_unit_step;
        t.concat_parallel += o.concat_parallel;
        t.quarantined += o.quarantined;
        t.strategy_write_log += o.strategy_write_log;
        t.strategy_in_place += o.strategy_in_place;
        t.strategy_concat += o.strategy_concat;
        t.compiled_loops += o.compiled_loops;
        t.compiled_fallback_unsupported += o.compiled_fallback_unsupported;
        t.compiled_fallback_traced += o.compiled_fallback_traced;
        t.fallback_conflict += o.fallback_conflict;
        t.fallback_panic += o.fallback_panic;
        t.fallback_shape += o.fallback_shape;
        t.fallback_unsupported += o.fallback_unsupported;
        t.fallback_timeout += o.fallback_timeout;
        t.fallback_strategy += o.fallback_strategy;
    }
    t
}

/// What a closed-loop measurement produced.
pub struct Measured {
    pub untraced: Vec<Op>,
    pub traced: Vec<Op>,
    /// Wall time of each untraced round, in s.
    pub rounds_s: Vec<f64>,
    /// CPU time stolen during each untraced round, in s.
    pub rounds_stolen_s: Vec<f64>,
    pub clock: Clock,
}

/// Runs the pool in rounds — each round one seeded permutation of the
/// whole pool, so every run sees the same mix — until `seconds` have
/// passed, counting only complete rounds. A traced run alternates an
/// untraced and a traced round, so both see every program equally
/// often and their difference is the tracing overhead.
pub fn measure(
    cases: &[Case],
    config: HybridConfig,
    seed: u64,
    seconds: u64,
    traced: bool,
    report: &mut Report,
) -> Measured {
    let mut rng = SplitMix64::new(seed ^ 0x0_4d_0e_12);
    let mut m = Measured {
        untraced: Vec::new(),
        traced: Vec::new(),
        rounds_s: Vec::new(),
        rounds_stolen_s: Vec::new(),
        clock: Clock::new(),
    };
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < seconds as f64 || (traced && round % 2 == 1) {
        let order = shuffled(cases.len(), &mut rng);
        let trace_round = traced && round % 2 == 1;
        let ticks = Ticks::now();
        let t = Instant::now();
        for i in order {
            if trace_round {
                m.clock.op += 1;
                let op = run_op(cases, i, config, Some(&mut m.clock), report);
                m.traced.push(op);
            } else {
                let before = Ticks::now();
                let mut op = run_op(cases, i, config, None, report);
                op.stolen_ms = Ticks::now().stolen_ms_since(before);
                m.untraced.push(op);
            }
        }
        if !trace_round {
            m.rounds_s.push(t.elapsed().as_secs_f64());
            m.rounds_stolen_s
                .push(Ticks::now().stolen_ms_since(ticks) / 1e3);
        }
        round += 1;
    }
    m
}

/// The end-to-end metrics of an untraced measurement. Each program of
/// the pool runs once per round, and the pool's programs differ in cost
/// by two orders of magnitude, so the latency percentiles are taken over
/// the programs' median latencies: a percentile over the operations
/// themselves would land on the fastest or slowest run of whichever
/// program straddles it. Operations and rounds are timed net of the CPU
/// time the hypervisor stole while they ran: a vCPU preempted for a
/// 10 ms tick delays the operation on it by about that tick.
pub fn end_to_end(m: &Measured, report: &mut Report) {
    let (p50, p90, rows, lat) = over_programs(&m.untraced, true);
    let p99 = quantile(&lat, 0.99);
    report.set("latency_ms.p50", p50);
    report.set("latency_ms.p90", p90);
    report.set("bench.latency_ms.p99", p99);
    let per_round = m.untraced.len() / m.rounds_s.len().max(1);
    let net: Vec<f64> = m
        .rounds_s
        .iter()
        .zip(&m.rounds_stolen_s)
        .map(|(r, s)| r - s)
        .collect();
    report.set("throughput_ops_s", ratio(per_round as f64, median(&net)));
    let (wall_p50, wall_p90, _, _) = over_programs(&m.untraced, false);
    let stolen: f64 = m.rounds_stolen_s.iter().sum();
    let busy: f64 = m.rounds_s.iter().sum();
    report.note(format!(
        "rounds: {} of {per_round} ops, {:?} s, stolen {:?} s",
        m.rounds_s.len(),
        m.rounds_s
            .iter()
            .map(|r| (r * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        m.rounds_stolen_s
            .iter()
            .map(|s| (s * 1e2).round() / 1e2)
            .collect::<Vec<_>>()
    ));
    report.note(format!(
        "stolen: {stolen:.2} vCPU-s in {busy:.1} s of rounds; with it counted, p50 {wall_p50:.3} ms, p90 {wall_p90:.3} ms, median round {:.3} s",
        median(&m.rounds_s)
    ));
    report.note(format!(
        "median latency per program, net of stolen time (ms): {}",
        rows.iter()
            .map(|(v, k)| format!("{k}={v:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "latency over {} programs: p50 {p50:.3} ms, p90 {p90:.3} ms ({} of {} ops beyond); op p99 {p99:.3} ms ({} beyond)",
        rows.len(),
        beyond(&lat, p90),
        lat.len(),
        beyond(&lat, p99)
    ));
}

/// The p50 and p90 over programs of each program's median latency,
/// with the per-program medians in ascending order and the latencies
/// they were taken over; with `net`, latencies net of stolen time.
fn over_programs(ops: &[Op], net: bool) -> (f64, f64, Vec<(f64, &str)>, Vec<f64>) {
    let mut per_case: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for o in ops {
        let stolen = if net { o.stolen_ms } else { 0.0 };
        per_case
            .entry(&o.tag)
            .or_default()
            .push(o.latency_ms - stolen);
    }
    let mut rows: Vec<(f64, &str)> = per_case.iter().map(|(k, v)| (median(v), *k)).collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let centres: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let lat = per_case.into_values().flatten().collect();
    (median(&centres), quantile(&centres, 0.9), rows, lat)
}

/// The per-layer metrics of a traced measurement, per traced operation.
pub fn per_layer(m: &Measured, report: &mut Report) {
    let n = m.traced.len().max(1) as f64;
    let totals = m.clock.totals_ms();
    let layer = |name: &str| totals.get(name).copied().unwrap_or(0.0) / n;
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
        "runtime.dispatch",
        "exec.parallel",
        "exec.compiled",
        "exec.preset",
    ] {
        report.set(&format!("{name}_ms"), layer(name));
    }
    for (name, v) in &m.clock.counts {
        report.set(name, v / n);
    }
    let t = total(&m.traced);
    let per = |v: u64| v as f64 / n;
    report.set(
        "runtime.dispatches",
        per(t.parallel_dispatches() + t.sequential_dispatches()),
    );
    report.set("runtime.inspections", per(t.inspections_run));
    report.set("runtime.inspections_retired", per(t.inspections_retired));
    report.set("runtime.cache_hits", per(t.cache_hits));
    report.set("runtime.cache_invalidations", per(t.cache_invalidations));
    report.set(
        "runtime.cache_hit_frac",
        ratio(t.cache_hits as f64, t.guarded_dispatches() as f64),
    );
    report.set("exec.parallel_dispatches", per(t.parallel_dispatches()));
    report.set("exec.parallel_fallbacks", per(t.fallbacks()));
    let commits = t.strategy_write_log + t.strategy_in_place + t.strategy_concat;
    report.set(
        "exec.parallel_commit_frac",
        ratio(commits as f64, (commits + t.fallbacks()) as f64),
    );
    report.set("exec.strategy.write_log", per(t.strategy_write_log));
    report.set("exec.strategy.in_place", per(t.strategy_in_place));
    report.set("exec.strategy.concat", per(t.strategy_concat));
    report.set("exec.compiled_entries", per(t.compiled_loops));
    report.set("exec.compiled_fallbacks", per(t.compiled_fallbacks()));
    let untraced: f64 = m.untraced.iter().map(|o| o.latency_ms).sum();
    let traced: f64 = m.traced.iter().map(|o| o.latency_ms).sum();
    let rounds_u = m.untraced.len().max(1) as f64;
    report.set(
        "bench.trace_overhead_frac",
        ratio(traced / n, untraced / rounds_u) - 1.0,
    );
    let failed = report.failed as f64;
    report.set(
        "bench.failed_ops_frac",
        ratio(failed, report.attempted as f64),
    );
    breakdown(m, report);
}

/// Report lines: where a traced operation's time went, per op.
fn breakdown(m: &Measured, report: &mut Report) {
    let n = m.traced.len().max(1) as f64;
    let totals = m.clock.totals_ms();
    let op_ms: f64 = m.traced.iter().map(|o| o.latency_ms).sum::<f64>() / n;
    let get = |k: &str| totals.get(k).copied().unwrap_or(0.0) / n;
    let counts = |k: &str| m.clock.counts.get(k).copied().unwrap_or(0.0) / n;
    let analysis = get("frontend.parse")
        + get("passes.pipeline")
        + get("graph.hcg_build")
        + get("core.summaries")
        + get("core.evolution");
    let rows: BTreeMap<&str, f64> = [
        ("analysis layers (timed apart)", analysis),
        ("driver.compile", get("driver.compile")),
        ("exec.preset", get("exec.preset")),
        ("runtime.dispatch", get("runtime.dispatch")),
        ("exec.parallel", get("exec.parallel")),
        ("exec.compiled", get("exec.compiled")),
        ("exec.treewalk_self", counts("exec.treewalk_self_ms")),
    ]
    .into_iter()
    .collect();
    let sum: f64 = rows.values().sum();
    report.note(format!(
        "breakdown per traced op ({} ops, {:.3} ms each, spans cover {:.1}%):",
        m.traced.len(),
        op_ms,
        100.0 * ratio(sum, op_ms)
    ));
    for (k, v) in rows {
        report.note(format!(
            "  {k:<32} {v:>10.3} ms  {:>5.1}%",
            100.0 * ratio(v, op_ms)
        ));
    }
    // The span log of the slowest traced operation, spans of at least
    // 1% of it, in start order.
    let Some((slowest, lat)) = m
        .traced
        .iter()
        .enumerate()
        .map(|(k, o)| (k as u32 + 1, o.latency_ms))
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        return;
    };
    let mut spans: Vec<&crate::trace::Span> =
        m.clock.spans.iter().filter(|s| s.op == slowest).collect();
    spans.sort_by_key(|s| s.start);
    let Some(t0) = spans.first().map(|s| s.start) else {
        return;
    };
    report.note(format!(
        "slowest traced op: {} ({lat:.3} ms, {} spans)",
        m.traced[slowest as usize - 1].tag,
        spans.len()
    ));
    for s in spans.iter().filter(|s| ms(s.dur) >= lat / 100.0).take(12) {
        report.note(format!(
            "  +{:>9.3} ms  {:<20} {:>9.3} ms",
            ms(s.start - t0),
            s.layer,
            ms(s.dur)
        ));
    }
}
