//! The repository benchmark: end-to-end and per-layer numbers for
//! three workloads, every operation's output verified.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sparse-oneshot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `sparse-oneshot`, `sparse-iterative`, `analysis-service`.
//! With `--trace 0` the result line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, timed from this
//! program around calls into each layer's public functions. The last
//! line of standard output is the result as one JSON object; the lines
//! before it describe the host, the inputs and the breakdown.

mod digest;
mod host;
mod iterative;
mod native;
mod oneshot;
mod report;
mod service;
mod sparse;
mod stats;
mod trace;

use report::Report;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = host::cores();
    let config = irr_runtime::HybridConfig {
        threads: cores,
        ..irr_runtime::HybridConfig::default()
    };
    let rate = (args.workload == "analysis-service").then_some(service::RATE);
    println!("{}", host::describe(&args.workload, args.seed, rate));
    println!(
        "config: hybrid threads={cores} service workers={cores} trace={}",
        u8::from(args.trace)
    );
    let mut report = Report::default();
    let ticks = host::Ticks::now();
    match args.workload.as_str() {
        "sparse-oneshot" => oneshot::run(&args, config, &mut report),
        "sparse-iterative" => iterative::run(&args, config, &mut report),
        "analysis-service" => service::run(&args, cores, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    let steal = host::Ticks::now().steal_since(ticks);
    report.set("bench.host_steal_frac", steal);
    report.note(format!(
        "host: {:.1}% of CPU time stolen by the hypervisor during the run",
        100.0 * steal
    ));
    for line in &report.notes {
        println!("{line}");
    }
    let result = report.result_line(args.trace);
    for p in &report.problems {
        println!("problem: {p}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}
