//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cca-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric, with `--trace 1`
//! every per-layer metric. Stdout ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0
//! only when every correctness gate held.

use std::process::ExitCode;

use cca_perfbench::{run, workload, Scale, THREADS, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cca-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = workload(&args.workload, Scale::Full).expect("name checked by parse_args");
    eprintln!(
        "cca-perfbench: workload {} seed {} seconds {} trace {} threads {} cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        THREADS,
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    );
    let result = run(&spec, args.seed, args.seconds, args.trace);
    for m in &result.metrics {
        println!(
            "# {:<40} {:>18.6} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            m.kind.label()
        );
    }
    for g in &result.gate_failures {
        eprintln!("cca-perfbench: correctness gate failed: {g}");
    }
    println!("{}", result.to_json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
