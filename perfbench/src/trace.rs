//! Spans timed from the benchmark side of each layer's public entry
//! points. Nothing here reaches inside the program: the analysis layers
//! are timed by calling the driver's phases one by one, and the runtime
//! layers by wrapping the hybrid dispatcher in a [`LoopDispatcher`] of
//! the benchmark's own.
//!
//! Spans are kept in memory for the whole run and summarized when it
//! ends.

use crate::stats::ms;
use irr_core::{AnalysisCtx, EvolutionAnalysis, SummaryAnalysis};
use irr_driver::{compile, CompilationReport, DriverOptions};
use irr_exec::{ExecutionStrategy, FallbackReason, LoopDecision, LoopDispatcher, Store};
use irr_frontend::{parse_program, ParseError, StmtId};
use irr_graph::Hcg;
use irr_passes::{
    eliminate_dead_code, forward_substitute, inline_small_procedures, normalize_loops,
    propagate_constants, substitute_induction_variables,
};
use irr_runtime::HybridDispatcher;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval of one layer, within operation `op`.
pub struct Span {
    pub op: u32,
    pub layer: &'static str,
    pub start: Duration,
    pub dur: Duration,
}

/// The in-memory span log of one run, plus per-operation counters
/// taken at the same boundaries.
pub struct Clock {
    epoch: Instant,
    pub op: u32,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn record(&mut self, layer: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            op: self.op,
            layer,
            start: start - self.epoch,
            dur: end - start,
        });
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(layer, t, Instant::now());
        out
    }

    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// Total milliseconds per layer over the whole log.
    pub fn totals_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_insert(0.0) += ms(s.dur);
        }
        out
    }

    /// Milliseconds of `layer` within operation `op`.
    pub fn op_ms(&self, op: u32, layer: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.op == op)
            .filter(|s| s.layer == layer)
            .map(|s| ms(s.dur))
            .sum()
    }
}

/// Parses and compiles `src` as [`irr_driver::compile_source`] does,
/// timing each layer by calling its public entry point on a copy of
/// the program: the parser, each Fig. 15 pass in pipeline order, the
/// HCG build, the interprocedural summaries, and the value-evolution
/// walk. The report itself comes from one ordinary [`compile`] of the
/// parsed program, timed as `driver.compile`; its own `CompileStats`
/// give the property solver's share. `driver.self` is what `compile`
/// spends outside the layers timed here.
pub fn compile_traced(
    clock: &mut Clock,
    src: &str,
    opts: DriverOptions,
) -> Result<CompilationReport, ParseError> {
    let parsed = clock.time("frontend.parse", || parse_program(src))?;
    let mut p = parsed.clone();
    let t_pipeline = Instant::now();
    clock.time("passes.inline", || {
        inline_small_procedures(&mut p, opts.inline_limit)
    });
    clock.time("passes.constprop", || propagate_constants(&mut p));
    clock.time("passes.normalize", || normalize_loops(&mut p));
    clock.time("passes.induction", || {
        substitute_induction_variables(&mut p)
    });
    clock.time("passes.constprop", || propagate_constants(&mut p));
    clock.time("passes.forward_sub", || forward_substitute(&mut p));
    clock.time("passes.dce", || eliminate_dead_code(&mut p));
    clock.record("passes.pipeline", t_pipeline, Instant::now());
    let hcg = clock.time("graph.hcg_build", || Hcg::build(&p));
    std::hint::black_box(hcg.len());
    let ctx = AnalysisCtx::new(&p);
    let sa = clock.time("core.summaries", || SummaryAnalysis::new(&ctx));
    let evo = clock.time("core.evolution", || {
        EvolutionAnalysis::with_summaries(&ctx, &sa)
    });
    std::hint::black_box(&evo);
    let report = clock.time("driver.compile", || compile(parsed, opts));
    let op = clock.op;
    let outside = [
        "passes.pipeline",
        "graph.hcg_build",
        "core.summaries",
        "core.evolution",
    ]
    .iter()
    .map(|l| clock.op_ms(op, l))
    .sum::<f64>()
        + ms(report.stats.property_time);
    clock.count("core.property_ms", ms(report.stats.property_time));
    clock.count(
        "core.property_queries",
        report.stats.property_queries as f64,
    );
    clock.count("core.solver_nodes", report.stats.solver_nodes as f64);
    clock.count(
        "driver.self_ms",
        clock.op_ms(op, "driver.compile") - outside,
    );
    Ok(report)
}

#[derive(Clone, Copy)]
enum Open {
    Parallel(Instant),
    Compiled(Instant),
}

/// Wraps the hybrid dispatcher: times every `dispatch` call (cache
/// probe and inspectors) and every parallel or compiled execution,
/// from the decision to the callback that closes it.
pub struct TimedDispatcher<'a> {
    pub inner: HybridDispatcher,
    clock: &'a mut Clock,
    open: Vec<Open>,
    pub dispatches: u64,
    pub parallel_spans: u64,
    pub compiled_spans: u64,
}

impl<'a> TimedDispatcher<'a> {
    pub fn new(inner: HybridDispatcher, clock: &'a mut Clock) -> TimedDispatcher<'a> {
        TimedDispatcher {
            inner,
            clock,
            open: Vec::new(),
            dispatches: 0,
            parallel_spans: 0,
            compiled_spans: 0,
        }
    }

    fn close_parallel(&mut self) {
        let end = Instant::now();
        if let Some(&Open::Parallel(t)) = self.open.last() {
            self.open.pop();
            self.clock.record("exec.parallel", t, end);
        }
    }

    fn close_compiled(&mut self) {
        let end = Instant::now();
        if let Some(&Open::Compiled(t)) = self.open.last() {
            self.open.pop();
            self.clock.record("exec.compiled", t, end);
        }
    }

    /// Spans opened but not closed by the matching callback.
    pub fn unclosed(&self) -> usize {
        self.open.len()
    }
}

impl LoopDispatcher for TimedDispatcher<'_> {
    fn dispatch(
        &mut self,
        store: &Store,
        loop_stmt: StmtId,
        lo: i64,
        hi: i64,
        step: i64,
    ) -> LoopDecision {
        let t = Instant::now();
        let d = self.inner.dispatch(store, loop_stmt, lo, hi, step);
        let end = Instant::now();
        self.clock.record("runtime.dispatch", t, end);
        self.dispatches += 1;
        match d {
            LoopDecision::Parallel(_) => {
                self.parallel_spans += 1;
                self.open.push(Open::Parallel(end));
            }
            LoopDecision::Compiled => {
                self.compiled_spans += 1;
                self.open.push(Open::Compiled(end));
            }
            LoopDecision::Sequential => {}
        }
        d
    }

    fn parallel_failed(&mut self, loop_stmt: StmtId, reason: FallbackReason) {
        self.close_parallel();
        self.inner.parallel_failed(loop_stmt, reason);
    }

    fn parallel_committed(&mut self, loop_stmt: StmtId, strategy: ExecutionStrategy) {
        self.close_parallel();
        self.inner.parallel_committed(loop_stmt, strategy);
    }

    fn compiled_committed(&mut self, loop_stmt: StmtId) {
        self.close_compiled();
        self.inner.compiled_committed(loop_stmt);
    }

    fn compiled_fallback(&mut self, loop_stmt: StmtId, reason: FallbackReason) {
        self.close_compiled();
        self.inner.compiled_fallback(loop_stmt, reason);
    }
}
