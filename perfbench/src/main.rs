//! Runner of the clockless end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Without
//! `--workload` it runs every workload, each in a fresh child process.
//! Exits 1 when any output disagrees with its reference or a call fails.

use std::path::Path;
use std::process::{Command, ExitCode};

use clockless_perfbench::inputs::DEFAULT_SEED;
use clockless_perfbench::workloads::NAMES;
use clockless_perfbench::{run, Outcome, Plan};

const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => args.workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload `{value}` (expected {})",
                    NAMES.join("|")
                ))
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Runs every workload in its own child process, so each reports its own
/// peak memory and starts from a cold process.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for name in NAMES {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot start the {name} run: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn report(args: &Args, workload: &str, outcome: &Outcome) {
    println!(
        "workload {workload} seed {} trace {}: {} calls in the {} phase",
        args.seed,
        u8::from(args.trace),
        outcome.samples,
        if args.trace { "traced" } else { "timed" },
    );
    println!(
        "  attempted {}  failed {}  fail_rate {}  wrong_outputs {}",
        outcome.attempted,
        outcome.failed,
        clockless_perfbench::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.wrong_outputs
    );
    if let Some(slowdown) = outcome.slowdown {
        println!(
            "  host slowdown {slowdown} (median; each cost below is divided by the slowdown when it was spent)"
        );
    }
    for m in &outcome.metrics {
        println!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.as_deref() else {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let plan = Plan {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match run(&plan, &out_dir) {
        Ok(outcome) => {
            report(&args, workload, &outcome);
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
