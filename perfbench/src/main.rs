//! The repository's benchmark: paper-scale Nylon on the direct kernel, and
//! four engines under one fault plan — timed end to end, counted per layer,
//! with every output checked. `nylon-paper-s2`, the same Nylon scenario on
//! two lockstep shards, is run by hand only (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <nylon-paper|nylon-paper-s2|engines-faults>
//!           --seed <n> --seconds <s> [--smoke] [--spans <file>]
//! ```
//!
//! Prints one JSON line: `correct`, `attempted`, `failed` and every metric
//! by name. `perfbench/run.py` builds this binary and turns that line into
//! the benchmark's result; see `perfbench/README.md`.

mod checks;
mod probe;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Registered only in the traced build: counts every allocation.
#[cfg(feature = "trace")]
#[global_allocator]
static ALLOC: nylon_bench::counting_alloc::CountingAlloc =
    nylon_bench::counting_alloc::CountingAlloc;

const WORKLOADS: [&str; 3] = ["nylon-paper", "nylon-paper-s2", "engines-faults"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    smoke: bool,
    spans: Option<String>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut smoke, mut spans) = (false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--spans" => spans = Some(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (known: {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        smoke,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "[perfbench] {} seed {} for {} s (telemetry {})",
        args.workload,
        args.seed,
        args.seconds,
        if nylon_obs::ENABLED { "compiled in" } else { "off" }
    );
    let out = match args.workload.as_str() {
        "nylon-paper" => workloads::run_nylon_paper(args.seed, args.seconds, args.smoke),
        "nylon-paper-s2" => workloads::run_nylon_paper_s2(args.seed, args.seconds, args.smoke),
        _ => workloads::run_engines_faults(args.seconds, args.smoke),
    };
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, out.spans.to_jsonl()) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut metrics = Vec::new();
    for (name, v) in &out.metrics {
        if !v.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({v})");
            return ExitCode::FAILURE;
        }
        metrics.push(format!("\"{name}\":{v}"));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
