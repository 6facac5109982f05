//! `sparse-oneshot`: every library kernel, on a uniform and a
//! power-law matrix, compiled from source and run once under the
//! hybrid dispatcher — the source → verdict → executed-loop path.
//! Closed loop, one client.

use crate::report::{Report, KERNELS};
use crate::sparse::{self, Case};
use crate::stats::{median, ms, ratio};
use crate::{host, native, Args};
use irr_exec::CompiledDispatch;
use irr_programs::sparse::{interproc_kernels, kernels, producer_kernels, SparseScale};
use irr_runtime::HybridConfig;
use irr_sparse::Structure;
use std::collections::BTreeMap;
use std::time::Instant;

/// Nonzeros per matrix: the index and value arrays of every kernel but
/// `rowgather` (which reads only row lengths) exceed a 2 MiB per-core L2.
const NNZ: usize = 1 << 18;

/// The pool: the 14 library kernels × {uniform, power-law}.
fn pool(seed: u64) -> Vec<(irr_programs::sparse::SparseProgram, String)> {
    let mut out = Vec::new();
    for (k, structure) in [Structure::Uniform, Structure::PowerLaw]
        .into_iter()
        .enumerate()
    {
        let scale = SparseScale {
            n: NNZ / 16,
            nnz: NNZ,
            structure,
            seed: seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(k as u64),
        };
        for p in kernels(&scale)
            .into_iter()
            .chain(producer_kernels(&scale))
            .chain(interproc_kernels(&scale))
        {
            let tag = format!("{}/{}", p.name, structure.tag());
            out.push((p, tag));
        }
    }
    out
}

pub fn run(args: &Args, config: HybridConfig, report: &mut Report) {
    report.note(format!(
        "pool: 14 kernels x {{uniform, power-law}} at {NNZ} nnz"
    ));
    let make = || {
        pool(args.seed)
            .into_iter()
            .map(|(p, tag)| {
                // Only the traced run's yardsticks read the stores.
                let keep = args.trace && native::has_loop(p.name);
                sparse::reference(p, tag, keep)
            })
            .collect()
    };
    let cases = sparse::prepare(make, 1, config, report);
    if cases.is_empty() {
        return;
    }
    let reset = host::reset_peak_rss();
    let m = sparse::measure(&cases, config, args.seed, args.seconds, args.trace, report);
    host::record_peak_rss(reset, report);
    sparse::end_to_end(&m, report);
    purpose(m.untraced.iter().chain(&m.traced), report);
    if args.trace {
        sparse::per_layer(&m, report);
        yardsticks(&cases, &m, report);
        report.unreached("service.");
        report.unreached("bench.gen_lag");
    }
}

/// The workload exists to cover every dispatch tier and every
/// execution strategy; a run that misses one is not correct.
fn purpose<'a>(ops: impl IntoIterator<Item = &'a sparse::Op>, report: &mut Report) {
    let t = sparse::total(ops);
    let cover = [
        ("compile-time-parallel tier", t.compile_time_parallel),
        (
            "runtime-guarded tier",
            t.guarded_parallel + t.guarded_sequential,
        ),
        ("sequential tier", t.sequential_proven),
        ("write-log strategy", t.strategy_write_log),
        ("in-place strategy", t.strategy_in_place),
        ("concat strategy", t.strategy_concat),
    ];
    report.note(format!(
        "coverage: {}",
        cover
            .iter()
            .map(|(n, c)| format!("{n}={c}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for (name, c) in cover {
        if c == 0 {
            report.problem(format!("no operation reached the {name}"));
        }
    }
}

/// The three engine yardsticks per kernel — hybrid (this run's
/// untraced executions), tree-walk (the set-up references), bytecode
/// (single-thread, verified against the reference) — plus the native
/// loop where one exists. A kernel's value is the mean over its two
/// matrices of the per-matrix medians.
fn yardsticks(cases: &[Case], m: &sparse::Measured, report: &mut Report) {
    let mut hybrid: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for op in &m.untraced {
        hybrid.entry(op.case).or_default().push(op.exec_ms);
    }
    let mut per_kernel: BTreeMap<&str, [Vec<f64>; 4]> = BTreeMap::new();
    for (i, case) in cases.iter().enumerate() {
        let row = per_kernel.entry(case.prog.name).or_default();
        row[0].push(median(hybrid.get(&i).map_or(&[][..], |v| v)));
        row[1].push(median(&case.treewalk_ms));
        match bytecode(case) {
            Ok(t) => row[2].push(t),
            Err(e) => report.problem(e),
        }
        match native::time(case, 5) {
            Ok(Some(t)) => row[3].push(t),
            Ok(None) => {}
            Err(e) => report.problem(e),
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let mut loses = 0;
    let mut line = Vec::new();
    for k in KERNELS {
        let Some(row) = per_kernel.get(k) else {
            report.problem(format!("kernel {k} missing from the pool"));
            continue;
        };
        let (hy, tw, bc) = (mean(&row[0]), mean(&row[1]), mean(&row[2]));
        report.set(&format!("kernel.{k}.hybrid_ms"), hy);
        report.set(&format!("kernel.{k}.treewalk_ms"), tw);
        report.set(&format!("kernel.{k}.bytecode_ms"), bc);
        if !row[3].is_empty() {
            report.set(&format!("kernel.{k}.native_ms"), mean(&row[3]));
        }
        let (base, name) = if tw <= bc {
            (tw, "treewalk")
        } else {
            (bc, "bytecode")
        };
        let r = ratio(hy, base);
        if r > 1.0 {
            loses += 1;
        }
        line.push(format!("{k}={r:.2}x of {name} {base:.1}ms"));
    }
    report.note(format!(
        "hybrid / min(treewalk, bytecode) per kernel: {}",
        line.join(" ")
    ));
    report.note(format!(
        "hybrid slower than the best single-thread engine on {loses} of {} kernels",
        KERNELS.len()
    ));
}

/// One single-thread bytecode run of a case, verified against the
/// tree-walk reference; returns its time in ms.
fn bytecode(case: &Case) -> Result<f64, String> {
    let t = Instant::now();
    let it = sparse::interp(&case.prog, &case.program);
    let mut d = CompiledDispatch::new();
    let out = it
        .run_dispatched(&mut d)
        .map_err(|e| format!("{}: bytecode run failed: {e}", case.tag))?;
    let elapsed = ms(t.elapsed());
    let got = crate::digest::outcome(&case.program, &case.privatized, &out);
    if let Some(d) = crate::digest::differences(&case.program, &got, &case.reference) {
        return Err(format!(
            "{}: bytecode differs from tree-walk in {d}",
            case.tag
        ));
    }
    Ok(elapsed)
}
