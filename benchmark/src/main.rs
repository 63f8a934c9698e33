//! `fresca-benchmark` — one node, five workloads: the end-to-end and
//! per-layer benchmark every later performance claim is measured with.
//! It claims no gain; it is the ruler. See `benchmark/README.md`.
//!
//! ```text
//! fresca-benchmark --serve-bin PATH --results-dir DIR
//!     --workload NAME --seed N --seconds S --trace 0|1     one run, JSON last line
//!     [--seed N] [--seconds S] [--smoke] [--check-repeat]   the whole suite
//! ```

mod cpu;
mod driver;
mod hist;
mod layers;
mod metrics;
mod node;
mod oracle;
mod run;
mod trace;
mod workload;

use metrics::{json_num, Better, END_TO_END};
use run::{run_traced, run_untraced, Config, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Spec, SPECS};

/// The suite's measured window, seconds (`BENCHMARK.json`'s `run_seconds`).
const SUITE_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 2.0;

fn arg_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fresca-benchmark --serve-bin PATH --results-dir DIR \
         [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--smoke] [--check-repeat]\n\
         workloads: {}",
        SPECS.map(|s| s.name).join(", ")
    );
    ExitCode::from(2)
}

/// The last line of a single run: exactly the four keys of the contract.
fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.attempted,
        o.failed,
        o.metrics.to_json()
    )
}

fn print_metrics(spec: &Spec, o: &Outcome) {
    for (d, v) in o.metrics.iter() {
        println!("{:<18} {:<32} {:>16} {}", spec.name, d.name, json_num(v), d.unit);
    }
    println!("{:<18} {:<32} {:>16} count", spec.name, "attempted", o.attempted);
    println!("{:<18} {:<32} {:>16} count", spec.name, "failed", o.failed);
    for p in &o.problems {
        println!("{:<18} PROBLEM {p}", spec.name);
    }
}

/// Run every workload (untraced, then traced unless `smoke`); print every
/// metric by name with its unit. With `repeat`, each workload's untraced
/// run is made twice, back to back, and the two must agree: the sandbox's
/// own speed drifts by tens of percent over minutes, so two whole suites
/// minutes apart would compare the weather, not the benchmark. `false`
/// when any run was incorrect, had failed operations, or did not repeat.
fn suite(cfg: &Config, smoke: bool, repeat: bool) -> std::io::Result<bool> {
    let mut clean = true;
    for spec in &SPECS {
        println!("== {}: {}", spec.name, spec.why);
        let first = run_untraced(spec, cfg)?;
        print_metrics(spec, &first);
        clean &= first.correct() && first.failed == 0;
        if repeat {
            let second = run_untraced(spec, cfg)?;
            print_metrics(spec, &second);
            clean &= second.correct() && second.failed == 0 && agree(spec, &first, &second);
        }
        if !smoke {
            let traced = run_traced(spec, cfg)?;
            print_metrics(spec, &traced);
            clean &= traced.correct() && traced.failed == 0;
        }
    }
    Ok(clean)
}

/// `--check-repeat`: two runs on one build must agree, metric by metric,
/// within each end-to-end metric's own bound.
fn agree(spec: &Spec, a: &Outcome, b: &Outcome) -> bool {
    let mut ok = true;
    for d in &END_TO_END {
        let (x, y) = (a.metrics.get(d.name).unwrap_or(0.0), b.metrics.get(d.name).unwrap_or(0.0));
        let worse = match d.better {
            Better::Lower => (y - x) / x,
            Better::Higher => (x - y) / x,
        };
        // Either of the two runs may be "the parent".
        let drift = worse.abs();
        let verdict = if drift <= d.bound { "ok" } else { "DIFFERS" };
        println!(
            "repeat {:<18} {:<16} {:>14} {:>14} {:>+8.2}% (bound {:.0}%) {verdict}",
            spec.name,
            d.name,
            json_num(x),
            json_num(y),
            worse * 100.0,
            d.bound * 100.0
        );
        ok &= drift <= d.bound;
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(serve_bin), Some(results_dir)) =
        (arg_value(&args, "--serve-bin"), arg_value(&args, "--results-dir"))
    else {
        return usage();
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let parsed = (|| {
        let seed = arg_value(&args, "--seed").map_or(Ok(42), str::parse::<u64>).ok()?;
        let default_s = if smoke { SMOKE_SECONDS } else { SUITE_SECONDS };
        let seconds =
            arg_value(&args, "--seconds").map_or(Ok(default_s), str::parse::<f64>).ok()?;
        let trace = match arg_value(&args, "--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => return None,
        };
        (1.0..=60.0).contains(&seconds).then_some((seed, seconds, trace))
    })();
    let Some((seed, seconds, trace)) = parsed else {
        return usage();
    };
    let cfg = Config {
        serve_bin: PathBuf::from(serve_bin),
        results_dir: PathBuf::from(results_dir),
        seed,
        seconds,
        place: cpu::Placement::detect(),
    };

    let done = match arg_value(&args, "--workload") {
        Some(name) => {
            let Some(spec) = workload::spec(name) else {
                return usage();
            };
            let run = if trace { run_traced(spec, &cfg) } else { run_untraced(spec, &cfg) };
            run.map(|o| {
                for p in &o.problems {
                    eprintln!("{}: PROBLEM {p}", spec.name);
                }
                println!("{}", result_line(&o));
                o.correct()
            })
        }
        None => suite(&cfg, smoke, args.iter().any(|a| a == "--check-repeat")),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fresca-benchmark: FAILED (see PROBLEM lines)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fresca-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
