//! The repository benchmark's workload runner.
//!
//! ```text
//! perfbench timed  --workload <name> --seed <n>
//! perfbench traced --workload <name> --seed <n>
//! ```
//!
//! `timed` builds and validates the workload's spec repeatedly (the
//! median is `setup_s`), runs the workload once with every observation
//! hook off (`run_s`), checks its outputs and prints one JSON line.
//! `traced` repeats the untraced run, then runs the workload again with
//! the telemetry registry, the profiler and (for cluster workloads) the
//! invariant watchdog attached, checks that both runs produced the same
//! report, times each layer's public entry points in isolation and
//! prints the per-layer metrics as one JSON line. `run.py` drives both
//! and prints the benchmark's result.

mod layers;
mod metric;
mod reference;
mod workloads;

use metric::{checks_json, median, metrics_json, quote};
use std::hint::black_box;
use std::time::Instant;
use workloads::{Outcome, Workload};

/// Set-up repeats until this much wall time has been spent on it.
const SETUP_BUDGET_S: f64 = 0.25;
/// ... and at least this many times.
const SETUP_MIN_REPS: usize = 15;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((mode, workload, seed)) => {
            let line = match mode.as_str() {
                "timed" => timed(workload, seed),
                _ => layers::traced(workload, seed),
            };
            println!("{line}");
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!("usage: perfbench <timed|traced> --workload <name> --seed <n>");
            std::process::exit(2);
        }
    }
}

fn parse(args: &[String]) -> Result<(String, Workload, u64), String> {
    let mode = args.first().ok_or("missing mode")?.clone();
    if mode != "timed" && mode != "traced" {
        return Err(format!("unknown mode {mode}"));
    }
    let mut workload = None;
    let mut seed = None;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        mode,
        workload.ok_or("missing --workload")?,
        seed.ok_or("missing --seed")?,
    ))
}

/// Median wall seconds of one set-up, over repeated set-ups.
pub fn setup_seconds(workload: Workload, seed: u64) -> (f64, usize) {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < SETUP_MIN_REPS || started.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let t = Instant::now();
        black_box(workloads::setup_once(workload, black_box(seed)));
        samples.push(t.elapsed().as_secs_f64());
    }
    let reps = samples.len();
    (median(&mut samples), reps)
}

/// One untraced run: wall seconds and the deterministic outcome.
pub fn untraced_run(workload: Workload, seed: u64) -> (f64, Outcome) {
    match workload {
        Workload::Cluster96Failover => {
            let spec = workloads::cluster96_spec(seed, workloads::HORIZON);
            let t = Instant::now();
            let run = spec.run().expect("cluster96 spec is valid");
            let run_s = t.elapsed().as_secs_f64();
            (run_s, workloads::cluster96_outcome(&run))
        }
        Workload::Fabric1m => {
            let spec = workloads::fabric_spec(seed, workloads::HORIZON);
            let t = Instant::now();
            let run = spec.run().expect("fabric spec is valid");
            let run_s = t.elapsed().as_secs_f64();
            (run_s, workloads::fabric_outcome(&run))
        }
        Workload::ChaosCampaign => {
            let t = Instant::now();
            let run = workloads::run_chaos(seed, |s| s);
            let run_s = t.elapsed().as_secs_f64();
            (run_s, workloads::chaos_outcome(&run))
        }
    }
}

fn timed(workload: Workload, seed: u64) -> String {
    let ref_before = reference::seconds();
    let (setup_s, setup_reps) = setup_seconds(workload, seed);
    let (run_s, outcome) = untraced_run(workload, seed);
    let host_factor = (ref_before + reference::seconds()) / 2.0 / reference::NOMINAL_PASS_S;
    format!(
        "{{\"mode\":\"timed\",\"workload\":{},\"seed\":{seed},\"setup_s\":{setup_s},\
         \"setup_reps\":{setup_reps},\"run_s\":{run_s},\"host_factor\":{host_factor},\
         \"correct\":{},\"checks\":{},\"sim\":{},\"digest\":\"{:016x}\"}}",
        quote(workload.name()),
        outcome.correct(),
        checks_json(&outcome.checks),
        metrics_json(&outcome.sim),
        outcome.digest,
    )
}
