//! `clockless` — command-line driver for clock-free RT models.
//!
//! ```text
//! clockless run <model.rtl> [--json] [--trace] [--vcd <out.vcd>] [--transcript <sig,sig,…>]
//!               [--backend interpreted|compiled] [--opt 0|1|2] [--check <invariants.json>]
//! clockless check <model.rtl>
//! clockless mine <model.rtl>
//! clockless stats <model.rtl> [--json]
//! clockless fleet <spec.fleet | model.rtl…> [--jobs <N>] [--json] [--timing]
//!                 [--fail-fast] [--retries <N>] [--delta-budget <N>] [--wall-budget-ms <N>]
//!                 [--backend interpreted|compiled] [--opt 0|1|2]
//! clockless faults <model.rtl> [--seed <N>] [--classes <c,c,…>] [--max <N>] [--jobs <N>] [--json]
//!                  [--backend interpreted|compiled] [--opt 0|1|2] [--engine batched|legacy]
//!                  [--checkers off|golden|invariants|all]
//! clockless fuzz [--seed <N>] [--count <N>] [--json]
//! clockless serve [--socket <path>] [--jobs <N>] [--cache <N>]
//! clockless client <socket> [--payload]
//! clockless translate <model.rtl> [--scheme one|two] [--period-ns <N>]
//! clockless vhdl <model.rtl> [--clocked]
//! clockless explain "<tuple>"
//! ```
//!
//! `fleet` is fault-tolerant by default: failing jobs (build errors,
//! kernel errors, panics, blown budgets) are quarantined in the report
//! and the command exits 1, while the other jobs' results stay intact;
//! `--fail-fast` restores the abort-on-first-failure behaviour.
//! `faults` runs a seeded fault-injection campaign (classes: stuck,
//! drivers, drops, skews, inits, guards) and reports detection coverage;
//! `--engine` picks the mutant machinery — the plan-sharing batched
//! executor (default, one lowered plan, all mutants in lockstep) or the
//! legacy one-fleet-job-per-mutant path. Reports are byte-identical
//! across engines. `--checkers` arms the value-checking detection
//! layer on top of the baseline `ILLEGAL`/overflow detectors: `golden`
//! replays each mutant against the clean run's commit trace, `invariants`
//! re-asserts functional laws mined from the clean run, `all` does both
//! (closing the silent-corruption gap), `off` (default) keeps the
//! baseline-only verdicts.
//!
//! `fuzz` runs the seeded differential campaign of `clockless-verify`:
//! generated guarded/array/memory models and randomly synthesized HLS
//! schedules pushed through every oracle the repo has (backend
//! byte-identity, text and VHDL round trips, clocked and handshake
//! equivalence). Any divergence prints its seed and the command exits 1.
//!
//! `mine` learns those functional invariants from a model's clean run
//! and prints them as a deterministic JSON artifact; `run --check`
//! re-asserts a previously mined artifact against a (possibly edited)
//! model and fails the run on the first violation.
//!
//! `--backend` selects the execution engine — the interpreted delta
//! kernel (default) or the compiled phase-schedule walker. Both are
//! observationally byte-identical (`clockless-verify` enforces it), so
//! every report is the same either way; the compiled engine is simply
//! faster. On `fleet` the flag overrides any per-job `backend` spec
//! options. On `faults` it selects the legacy engine's machinery (its
//! golden run and mutant jobs); the batched engine is compiled
//! throughout, golden run included. `--opt` sets the compiled engine's optimization level
//! (default `2`): `0` walks the plain micro-op stream with every pass
//! off, `1` adds resolution specialization, `2` adds control-trajectory
//! folding and dead-spur elimination. Every level is byte-identical
//! too — the flag only changes how fast the same report is produced.
//! The interpreter ignores it.
//!
//! `serve` keeps the process resident as a simulation daemon: jobs
//! arrive as NDJSON lines (one JSON request per line — see
//! `docs/PROTOCOL.md`) over a Unix socket (`--socket`) or stdin/stdout,
//! models are lowered once into a plan cache, and every
//! `run`/`faults`/`fleet` payload is byte-identical to the matching
//! one-shot command. `client` is the bundled socket client (the image
//! has no `nc`): it pipes stdin to the daemon and prints response lines;
//! `--payload` unwraps success envelopes to their raw CLI documents.
//!
//! Every command but `serve` prints through one locked stdout handle. A
//! reader that closes the pipe early (`clockless faults m.rtl | head -1`)
//! ends the command quietly with status 0; any other failed write is an
//! error.
//!
//! Models use the declarative text format of `clockless_core::text`
//! (see `models/` for examples); files ending in `.vhd`/`.vhdl` are read
//! as VHDL source in the paper's subset instead.

use std::io::{self, Write};
use std::process::ExitCode;

use clockless::clocked::{check_clocked_equivalence, ClockScheme, ClockedDesign};
use clockless::core::text::parse_model;
use clockless::core::transcript::transcript;
use clockless::core::{Backend, ExecOptions, OptLevel, RtModel, RtSimulation, TransferTuple};
use clockless::fleet::BatchSpec;
use clockless::kernel::NS;
use clockless::serve::ClientError;
use clockless::verify::{cross_check, roundtrip_check};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  clockless run <model.rtl> [--json] [--trace] [--vcd <out.vcd>] [--transcript <sig,sig,…>]\n                \
         [--backend interpreted|compiled] [--opt 0|1|2] [--check <invariants.json>]\n  \
         clockless check <model.rtl>\n  \
         clockless mine <model.rtl>\n  \
         clockless stats <model.rtl> [--json]\n  \
         clockless fleet <spec.fleet | model.rtl…> [--jobs <N>] [--json] [--timing]\n                  \
         [--fail-fast] [--retries <N>] [--delta-budget <N>] [--wall-budget-ms <N>]\n                  \
         [--backend interpreted|compiled] [--opt 0|1|2]\n  \
         clockless faults <model.rtl> [--seed <N>] [--classes <c,c,…>] [--max <N>] [--jobs <N>] [--json]\n                   \
         [--backend interpreted|compiled] [--opt 0|1|2] [--engine batched|legacy]\n                   \
         [--checkers off|golden|invariants|all]\n  \
         clockless fuzz [--seed <N>] [--count <N>] [--json]\n  \
         clockless serve [--socket <path>] [--jobs <N>] [--cache <N>]\n  \
         clockless client <socket> [--payload]\n  \
         clockless translate <model.rtl> [--scheme one|two] [--period-ns <N>]\n  \
         clockless vhdl <model.rtl> [--clocked]\n  \
         clockless explain \"<tuple>\""
    );
    ExitCode::from(2)
}

/// Flags that take a value (so `positional_args` skips the value word).
const VALUED_FLAGS: [&str; 17] = [
    "--check",
    "--opt",
    "--count",
    "--checkers",
    "--jobs",
    "--retries",
    "--delta-budget",
    "--wall-budget-ms",
    "--seed",
    "--max",
    "--classes",
    "--backend",
    "--engine",
    "--socket",
    "--cache",
    "--vcd",
    "--transcript",
];

/// Result of looking up `--flag <value>` in the argument list.
enum FlagValue<T> {
    /// The flag is not present.
    Absent,
    /// The flag is present with a parseable value.
    Parsed(T),
    /// The flag is present but the value is missing or unparseable.
    Malformed,
}

fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> FlagValue<T> {
    match args.iter().position(|a| a == flag) {
        None => FlagValue::Absent,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(v) => FlagValue::Parsed(v),
            None => FlagValue::Malformed,
        },
    }
}

/// Positional inputs: everything after the subcommand that is neither a
/// flag nor the value following a valued flag.
fn positional_args(args: &[String]) -> Vec<&str> {
    let value_positions: Vec<usize> = VALUED_FLAGS
        .iter()
        .filter_map(|f| args.iter().position(|a| a == f).map(|i| i + 1))
        .collect();
    args.iter()
        .enumerate()
        .skip(1)
        .filter(|(i, a)| !a.starts_with("--") && !value_positions.contains(i))
        .map(|(_, a)| a.as_str())
        .collect()
}

fn load(path: &str) -> Result<RtModel, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".vhd") || path.ends_with(".vhdl") {
        // VHDL source in the paper's subset: parse + reconstruct.
        clockless::verify::model_from_vhdl(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        parse_model(&text).map_err(|e| format!("{path}:{e}"))
    }
}

/// Loads and validates a mined-invariant artifact for `--check`.
fn load_check_program(
    artifact: &str,
    model: &RtModel,
) -> Result<clockless::core::CheckProgram, String> {
    let text =
        std::fs::read_to_string(artifact).map_err(|e| format!("cannot read {artifact}: {e}"))?;
    let (mined_from, program) =
        clockless::verify::parse_artifact(&text).map_err(|e| format!("{artifact}: {e}"))?;
    if mined_from != model.name() {
        return Err(format!(
            "{artifact}: artifact was mined from `{mined_from}` but the model is `{}`",
            model.name()
        ));
    }
    Ok(program)
}

/// The `"check"` member spliced into the `--json` run report when
/// `--check` is given (the plain report stays byte-identical).
fn check_report_json(artifact: &str, report: &clockless::core::CheckReport) -> String {
    use clockless::core::json::escape;
    let mut violations = Vec::new();
    if let Some(v) = &report.invariant {
        violations.push(v.to_string());
    }
    if let Some(v) = &report.monitor {
        violations.push(v.to_string());
    }
    let rendered: Vec<String> = violations
        .iter()
        .map(|v| format!("\"{}\"", escape(v)))
        .collect();
    format!(
        "{{\"artifact\": \"{}\", \"status\": \"{}\", \"violations\": [{}]}}",
        escape(artifact),
        if report.is_clean() {
            "clean"
        } else {
            "violated"
        },
        rendered.join(", ")
    )
}

/// Why a command failed: a message for stderr, or a failed write of its
/// output.
enum Failure {
    Message(String),
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Message(msg)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Output(e)
    }
}

#[allow(clippy::too_many_arguments)]
fn cmd_run(
    out: &mut impl Write,
    path: &str,
    json: bool,
    trace: bool,
    vcd: Option<&str>,
    transcript_cols: Option<&str>,
    backend: Backend,
    opt: OptLevel,
    check: Option<&str>,
) -> Result<(), Failure> {
    let model = load(path)?;
    let options = ExecOptions {
        // JSON reports always trace: the document includes conflict
        // sites, and the serve daemon's `run` payload (always traced)
        // must diff clean against this output.
        trace: trace || json || vcd.is_some(),
        opt,
        ..Default::default()
    };
    let (outcome, verdict) = match check {
        Some(artifact) => {
            let program = load_check_program(artifact, &model)?;
            let (outcome, report) =
                clockless::core::execute_checked(&model, backend, &options, &program)
                    .map_err(|e| e.to_string())?;
            (outcome, Some((artifact, report)))
        }
        None => {
            let outcome = backend
                .execute(&model, &options)
                .map_err(|e| e.to_string())?;
            (outcome, None)
        }
    };
    let summary = &outcome.summary;

    if json {
        let doc = clockless::core::json::run_report(&model, summary);
        match &verdict {
            // Splice the check verdict in as a trailing member; without
            // `--check` the document is byte-identical to before.
            Some((artifact, report)) => {
                let body = doc.strip_suffix("\n}\n").expect("run report shape");
                write!(
                    out,
                    "{body},\n  \"check\": {}\n}}\n",
                    check_report_json(artifact, report)
                )?;
            }
            None => write!(out, "{doc}")?,
        }
        if let Some(file) = vcd {
            let doc = outcome.vcd().expect("traced run exports VCD");
            std::fs::write(file, doc).map_err(|e| format!("cannot write {file}: {e}"))?;
        }
        return match &verdict {
            Some((artifact, report)) if !report.is_clean() => {
                Err(format!("{artifact}: value checks failed").into())
            }
            _ => Ok(()),
        };
    }
    writeln!(
        out,
        "model `{}`: {} steps, {} transfers — {}",
        model.name(),
        model.cs_max(),
        model.tuples().len(),
        summary.stats
    )?;
    writeln!(out, "final register values:")?;
    for (name, value) in &summary.registers {
        writeln!(out, "  {name:<16} {value}")?;
    }
    if let Some(conflicts) = &summary.conflicts {
        write!(out, "{conflicts}")?;
    }
    if let Some(file) = vcd {
        let doc = outcome.vcd().expect("traced run exports VCD");
        std::fs::write(file, doc).map_err(|e| format!("cannot write {file}: {e}"))?;
        writeln!(out, "waveform written to {file}")?;
    }
    if let Some(cols) = transcript_cols {
        let names: Vec<&str> = cols.split(',').map(str::trim).collect();
        let table = transcript(&model, &names).map_err(|e| e.to_string())?;
        writeln!(out, "\nphase transcript:\n{table}")?;
    }
    if let Some((artifact, report)) = &verdict {
        if report.is_clean() {
            writeln!(out, "value checks against {artifact}: clean")?;
        } else {
            if let Some(v) = &report.invariant {
                writeln!(out, "value checks against {artifact}: {v}")?;
            }
            if let Some(v) = &report.monitor {
                writeln!(out, "value checks against {artifact}: {v}")?;
            }
            return Err(format!("{artifact}: value checks failed").into());
        }
    }
    Ok(())
}

fn cmd_mine(out: &mut impl Write, path: &str) -> Result<(), Failure> {
    let model = load(path)?;
    let artifact = clockless::verify::mine_artifact(&model).map_err(|e| e.to_string())?;
    write!(out, "{artifact}")?;
    Ok(())
}

fn cmd_check(out: &mut impl Write, path: &str) -> Result<(), Failure> {
    let model = load(path)?;
    let cc = cross_check(&model).map_err(|e| e.to_string())?;
    if cc.predicted.is_empty() && cc.dynamic_only.is_empty() {
        writeln!(out, "conflict analysis: clean (static and dynamic agree)")?;
        // The round trip is only meaningful on conflict-free schedules
        // (colliding routes make the reconstruction ambiguous).
        roundtrip_check(&model).map_err(|e| format!("semantics round trip failed: {e}"))?;
        writeln!(
            out,
            "tuple/process round trip: ok ({} tuples)",
            model.tuples().len()
        )?;
        let lints = clockless::verify::lint_model(&model);
        if lints.is_empty() {
            writeln!(out, "lints: clean")?;
        } else {
            writeln!(out, "lints ({}):", lints.len())?;
            for l in &lints {
                writeln!(out, "  warning: {l}")?;
            }
        }
        return Ok(());
    }
    writeln!(out, "static predictions ({}):", cc.predicted.len())?;
    for p in &cc.predicted {
        writeln!(out, "  {p}  -> visible at {}", p.visible_at())?;
    }
    if !cc.unconfirmed.is_empty() {
        return Err(format!(
            "{} static prediction(s) were not confirmed dynamically",
            cc.unconfirmed.len()
        )
        .into());
    }
    writeln!(
        out,
        "all predictions confirmed dynamically; {} additional dynamic site(s) are propagation",
        cc.dynamic_only.len()
    )?;
    Err(Failure::Message("model has resource conflicts".into()))
}

fn cmd_translate(
    out: &mut impl Write,
    path: &str,
    scheme: &str,
    period_ns: u64,
) -> Result<(), Failure> {
    let model = load(path)?;
    let scheme = match scheme {
        "one" => ClockScheme::OneCyclePerStep {
            period_fs: period_ns * NS,
        },
        "two" => ClockScheme::TwoCyclesPerStep {
            period_fs: period_ns * NS,
        },
        other => return Err(format!("unknown scheme `{other}` (expected one|two)").into()),
    };
    let design = ClockedDesign::translate(&model, scheme).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "translated `{}`: {} cycles @ {period_ns} ns, {} control signals",
        model.name(),
        design.total_cycles(),
        design.tables().control_signal_count()
    )?;
    let report = check_clocked_equivalence(&model, scheme).map_err(|e| e.to_string())?;
    if report.equivalent() {
        writeln!(out, "commit-trace equivalence vs. the clock-free model: ok")?;
        Ok(())
    } else {
        Err(format!("translation NOT equivalent:\n{report}").into())
    }
}

fn cmd_stats(out: &mut impl Write, path: &str, json: bool) -> Result<(), Failure> {
    let model = load(path)?;
    if json {
        // The JSON report includes kernel counters, so it runs the model.
        let mut sim = RtSimulation::new(&model).map_err(|e| e.to_string())?;
        sim.run_to_completion().map_err(|e| e.to_string())?;
        write!(out, "{}", sim.stats_report().to_json())?;
    } else {
        write!(out, "{}", clockless::core::model_stats(&model))?;
    }
    Ok(())
}

fn cmd_fleet(
    out: &mut impl Write,
    inputs: &[&str],
    jobs: usize,
    json: bool,
    timing: bool,
    config: &clockless::fleet::FleetConfig,
) -> Result<(), Failure> {
    let spec = match inputs {
        [] => {
            let msg = "fleet needs a .fleet spec or .rtl model files";
            return Err(Failure::Message(msg.into()));
        }
        [single] if single.ends_with(".fleet") => {
            BatchSpec::load(single).map_err(|e| e.to_string())?
        }
        paths => {
            if let Some(bad) = paths.iter().find(|p| p.ends_with(".fleet")) {
                return Err(format!("spec file {bad} cannot be mixed with model paths").into());
            }
            BatchSpec::from_rtl_paths(paths.iter().copied())
        }
    };
    let report =
        clockless::fleet::run_batch_with(&spec, jobs, config).map_err(|e| e.to_string())?;
    if json {
        write!(out, "{}", report.to_json(timing))?;
    } else {
        write!(out, "{report}")?;
        let conflicted = report.conflicted_jobs();
        if conflicted > 0 {
            writeln!(
                out,
                "{conflicted} job(s) reported resource conflicts (see --json for sites)"
            )?;
        }
    }
    let failed = report.failed_jobs();
    if failed > 0 {
        // The report (stdout) stays byte-identical at any worker count;
        // the failure signal goes to stderr + the exit code.
        return Err(format!("{failed} job(s) quarantined").into());
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn cmd_faults(
    out: &mut impl Write,
    path: &str,
    seed: Option<u64>,
    classes: Option<&str>,
    max: Option<usize>,
    jobs: usize,
    json: bool,
    backend: Backend,
    opt: OptLevel,
    engine: clockless::verify::CampaignEngine,
    checkers: clockless::verify::CheckerMode,
) -> Result<(), Failure> {
    let model = load(path)?;
    let mut config = clockless::verify::CampaignConfig {
        workers: jobs,
        max_faults: max,
        backend,
        opt,
        engine,
        checkers,
        ..Default::default()
    };
    if let Some(seed) = seed {
        config.seed = seed;
    }
    if let Some(list) = classes {
        for part in list.split(',') {
            config.classes.push(part.trim().parse()?);
        }
    }
    let report = clockless::verify::run_campaign(&model, &config).map_err(|e| e.to_string())?;
    if json {
        write!(out, "{}", report.to_json())?;
    } else {
        write!(out, "{report}")?;
    }
    Ok(())
}

fn cmd_fuzz(out: &mut impl Write, seed: u64, count: usize, json: bool) -> Result<(), Failure> {
    let report = clockless::verify::run_fuzz(seed, count);
    if json {
        write!(out, "{}", report.to_json())?;
    } else {
        write!(out, "{report}")?;
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!(
            "{} divergence(s) found (re-run with the printed seeds)",
            report.divergence_count
        )
        .into())
    }
}

fn cmd_serve(socket: Option<&str>, workers: usize, cache: usize) -> Result<(), String> {
    let daemon = clockless::serve::Daemon::new(clockless::serve::ServeConfig {
        workers,
        cache_capacity: cache,
    });
    match socket {
        Some(path) => {
            eprintln!(
                "clockless serve: listening on {path} (send {{\"op\":\"shutdown\"}} to stop)"
            );
            daemon
                .serve_unix(std::path::Path::new(path))
                .map_err(|e| format!("serve: {e}"))
        }
        None => {
            // stdio mode: one session over the process pipes.
            daemon.serve_stdio();
            Ok(())
        }
    }
}

fn cmd_client(socket: &str, payload_only: bool) -> Result<(), Failure> {
    // StdinLock is not Send (the client forwards input from a second
    // thread); a BufReader over the raw handle is.
    let input = std::io::BufReader::new(std::io::stdin());
    let socket = std::path::Path::new(socket);
    clockless::serve::run_client(socket, input, std::io::stdout(), payload_only).map_err(
        |e| match e {
            ClientError::Output(e) => Failure::Output(e),
            ClientError::Session(e) => Failure::Message(format!("client: {e}")),
        },
    )
}

fn cmd_vhdl(out: &mut impl Write, path: &str, clocked: bool) -> Result<(), Failure> {
    let model = load(path)?;
    let text = if clocked {
        let design =
            ClockedDesign::translate(&model, ClockScheme::default()).map_err(|e| e.to_string())?;
        clockless::clocked::emit_clocked_vhdl(&design).map_err(|e| e.to_string())?
    } else {
        clockless::core::emit_vhdl(&model).map_err(|e| e.to_string())?
    };
    write!(out, "{text}")?;
    Ok(())
}

fn cmd_explain(out: &mut impl Write, tuple: &str) -> Result<(), Failure> {
    let t: TransferTuple = tuple.parse().map_err(|e| format!("{e}"))?;
    writeln!(out, "tuple {t} expands into the transfer processes:")?;
    for spec in t.expand() {
        writeln!(out, "  {:<24} {spec}", spec.instance_name())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    // The daemon writes its responses from a thread of its own, so it
    // alone does not print through the locked handle below.
    if cmd == "serve" {
        let workers = match flag_value(&args, "--jobs") {
            FlagValue::Absent => 1,
            FlagValue::Parsed(n) if n >= 1 => n,
            _ => return usage(),
        };
        let cache = match flag_value(&args, "--cache") {
            FlagValue::Absent => 64,
            FlagValue::Parsed(n) if n >= 1 => n,
            _ => return usage(),
        };
        let socket = args
            .iter()
            .position(|a| a == "--socket")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str);
        return exit_status(cmd_serve(socket, workers, cache).map_err(Failure::Message));
    }
    let mut out = io::stdout().lock();
    let out = &mut out;
    let result = match cmd.as_str() {
        "run" => {
            let positional = positional_args(&args);
            let [path] = positional.as_slice() else {
                return usage();
            };
            let json = args.iter().any(|a| a == "--json");
            let trace = args.iter().any(|a| a == "--trace");
            let vcd = args
                .iter()
                .position(|a| a == "--vcd")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str);
            let cols = args
                .iter()
                .position(|a| a == "--transcript")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str);
            let backend = match flag_value(&args, "--backend") {
                FlagValue::Absent => Backend::default(),
                FlagValue::Parsed(b) => b,
                FlagValue::Malformed => return usage(),
            };
            let opt = match flag_value(&args, "--opt") {
                FlagValue::Absent => OptLevel::default(),
                FlagValue::Parsed(o) => o,
                FlagValue::Malformed => return usage(),
            };
            let check = args
                .iter()
                .position(|a| a == "--check")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str);
            cmd_run(out, path, json, trace, vcd, cols, backend, opt, check)
        }
        "check" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            cmd_check(out, path)
        }
        "mine" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            cmd_mine(out, path)
        }
        "stats" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let json = args.iter().any(|a| a == "--json");
            cmd_stats(out, path, json)
        }
        "fleet" => {
            let json = args.iter().any(|a| a == "--json");
            let timing = args.iter().any(|a| a == "--timing");
            let jobs = match flag_value(&args, "--jobs") {
                FlagValue::Absent => std::thread::available_parallelism().map_or(1, |n| n.get()),
                FlagValue::Parsed(n) if n >= 1 => n,
                _ => return usage(),
            };
            let mut config = clockless::fleet::FleetConfig {
                fail_fast: args.iter().any(|a| a == "--fail-fast"),
                ..clockless::fleet::FleetConfig::default()
            };
            match flag_value(&args, "--retries") {
                FlagValue::Absent => {}
                FlagValue::Parsed(n) => config.max_retries = n,
                FlagValue::Malformed => return usage(),
            }
            match flag_value(&args, "--delta-budget") {
                FlagValue::Absent => {}
                FlagValue::Parsed(n) => config.delta_budget = Some(n),
                FlagValue::Malformed => return usage(),
            }
            match flag_value(&args, "--wall-budget-ms") {
                FlagValue::Absent => {}
                FlagValue::Parsed(ms) => {
                    config.wall_budget = Some(std::time::Duration::from_millis(ms))
                }
                FlagValue::Malformed => return usage(),
            }
            match flag_value(&args, "--backend") {
                FlagValue::Absent => {}
                FlagValue::Parsed(b) => config.backend = Some(b),
                FlagValue::Malformed => return usage(),
            }
            match flag_value(&args, "--opt") {
                FlagValue::Absent => {}
                FlagValue::Parsed(o) => config.opt = o,
                FlagValue::Malformed => return usage(),
            }
            let positional = positional_args(&args);
            if positional.is_empty() {
                return usage();
            }
            cmd_fleet(out, &positional, jobs, json, timing, &config)
        }
        "faults" => {
            let json = args.iter().any(|a| a == "--json");
            let jobs = match flag_value(&args, "--jobs") {
                FlagValue::Absent => 1,
                FlagValue::Parsed(n) if n >= 1 => n,
                _ => return usage(),
            };
            let seed = match flag_value(&args, "--seed") {
                FlagValue::Absent => None,
                FlagValue::Parsed(n) => Some(n),
                FlagValue::Malformed => return usage(),
            };
            let max = match flag_value(&args, "--max") {
                FlagValue::Absent => None,
                FlagValue::Parsed(n) => Some(n),
                FlagValue::Malformed => return usage(),
            };
            let classes = args
                .iter()
                .position(|a| a == "--classes")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str);
            let backend = match flag_value(&args, "--backend") {
                FlagValue::Absent => Backend::default(),
                FlagValue::Parsed(b) => b,
                FlagValue::Malformed => return usage(),
            };
            let engine = match flag_value(&args, "--engine") {
                FlagValue::Absent => clockless::verify::CampaignEngine::default(),
                FlagValue::Parsed(e) => e,
                FlagValue::Malformed => return usage(),
            };
            let checkers = match flag_value(&args, "--checkers") {
                FlagValue::Absent => clockless::verify::CheckerMode::default(),
                FlagValue::Parsed(c) => c,
                FlagValue::Malformed => return usage(),
            };
            let opt = match flag_value(&args, "--opt") {
                FlagValue::Absent => OptLevel::default(),
                FlagValue::Parsed(o) => o,
                FlagValue::Malformed => return usage(),
            };
            let positional = positional_args(&args);
            let [path] = positional.as_slice() else {
                return usage();
            };
            cmd_faults(
                out, path, seed, classes, max, jobs, json, backend, opt, engine, checkers,
            )
        }
        "fuzz" => {
            let seed = match flag_value(&args, "--seed") {
                FlagValue::Absent => 0xC10C_1E55,
                FlagValue::Parsed(n) => n,
                FlagValue::Malformed => return usage(),
            };
            let count = match flag_value(&args, "--count") {
                FlagValue::Absent => 1000,
                FlagValue::Parsed(n) if n >= 1 => n,
                _ => return usage(),
            };
            let json = args.iter().any(|a| a == "--json");
            cmd_fuzz(out, seed, count, json)
        }
        "client" => {
            let positional = positional_args(&args);
            let [socket] = positional.as_slice() else {
                return usage();
            };
            let payload = args.iter().any(|a| a == "--payload");
            cmd_client(socket, payload)
        }
        "translate" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let scheme = args
                .iter()
                .position(|a| a == "--scheme")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .unwrap_or("one");
            let period_ns: u64 = args
                .iter()
                .position(|a| a == "--period-ns")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(10);
            cmd_translate(out, path, scheme, period_ns)
        }
        "vhdl" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let clocked = args.iter().any(|a| a == "--clocked");
            cmd_vhdl(out, path, clocked)
        }
        "explain" => {
            let Some(tuple) = args.get(1) else {
                return usage();
            };
            cmd_explain(out, tuple)
        }
        _ => return usage(),
    };
    let flushed = out.flush();
    exit_status(result.and_then(|()| Ok(flushed?)))
}

/// The exit status of a command's result. A closed stdout — a reader
/// such as `head` that has read enough — is no failure: the command
/// exits quietly with success.
fn exit_status(result: Result<(), Failure>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Output(e)) => {
            eprintln!("error: cannot write output: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
