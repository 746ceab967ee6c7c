//! End-to-end tests of the `clockless` CLI binary against the model
//! corpus in `models/`.

use std::path::Path;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clockless"))
}

fn repo_path(rel: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(rel)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn run_fig1_reports_result_and_stats() {
    let out = cli()
        .args(["run", &repo_path("models/fig1.rtl")])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R1"), "{stdout}");
    assert!(stdout.contains("7"), "{stdout}");
    assert!(stdout.contains("43 deltas"), "{stdout}");
}

#[test]
fn run_with_vcd_writes_waveform() {
    let vcd_path = std::env::temp_dir().join("clockless_cli_test.vcd");
    let out = cli()
        .args([
            "run",
            &repo_path("models/accumulate.rtl"),
            "--vcd",
            &vcd_path.to_string_lossy(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let vcd = std::fs::read_to_string(&vcd_path).expect("vcd written");
    assert!(vcd.contains("$enddefinitions"));
    let _ = std::fs::remove_file(&vcd_path);
}

#[test]
fn run_with_transcript_prints_phase_table() {
    let out = cli()
        .args([
            "run",
            &repo_path("models/fig1.rtl"),
            "--transcript",
            "B1,ADD,R1",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("phase transcript"), "{stdout}");
    assert!(stdout.contains("5.rb"), "{stdout}");
    assert!(stdout.contains("6.wa"), "{stdout}");
}

#[test]
fn transcript_with_unknown_signal_fails() {
    let out = cli()
        .args(["run", &repo_path("models/fig1.rtl"), "--transcript", "nope"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("names no register"), "{stderr}");
}

#[test]
fn check_clean_model_succeeds() {
    let out = cli()
        .args(["check", &repo_path("models/multiop.rtl")])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");
    assert!(stdout.contains("round trip: ok"), "{stdout}");
}

#[test]
fn check_conflicted_model_fails_with_localization() {
    let out = cli()
        .args(["check", &repo_path("models/conflict.rtl")])
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "conflicted model must fail the check"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bus `X`"), "{stdout}");
    assert!(stdout.contains("step 2 phase rb"), "{stdout}");
}

#[test]
fn translate_reports_equivalence() {
    for scheme in ["one", "two"] {
        let out = cli()
            .args([
                "translate",
                &repo_path("models/accumulate.rtl"),
                "--scheme",
                scheme,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("equivalence vs. the clock-free model: ok"),
            "{stdout}"
        );
    }
}

#[test]
fn translate_rejects_conflicted_model() {
    let out = cli()
        .args(["translate", &repo_path("models/conflict.rtl")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("two sources"), "{stderr}");
}

#[test]
fn explain_prints_the_paper_mapping() {
    let out = cli()
        .args(["explain", "(R1,B1,R2,B2,5,ADD,6,B1,R1)"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "R1_out_B1_5",
        "B1_ADD_in1_5",
        "R2_out_B2_5",
        "B2_ADD_in2_5",
        "ADD_out_B1_6",
        "B1_R1_in_6",
    ] {
        assert!(stdout.contains(name), "{stdout}");
    }
}

#[test]
fn bad_usage_exits_2() {
    let out = cli().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = cli().args(["frobnicate"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_file_reports_error() {
    let out = cli()
        .args(["run", "/nonexistent/nope.rtl"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn every_corpus_model_parses() {
    let dir = repo_path("models");
    let mut count = 0;
    for entry in std::fs::read_dir(dir).expect("models dir exists") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "rtl") {
            let text = std::fs::read_to_string(&path).expect("readable");
            clockless::core::text::parse_model(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            count += 1;
        }
    }
    assert!(count >= 4, "expected the corpus, found {count} models");
}

#[test]
fn vhdl_emits_the_paper_subset() {
    let out = cli()
        .args(["vhdl", &repo_path("models/fig1.rtl")])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("entity CONTROLLER is"), "{stdout}");
    assert!(stdout.contains("entity TRANS is"), "{stdout}");
    assert!(
        stdout.contains("R1_out_B1_5 : entity work.TRANS"),
        "{stdout}"
    );
}

#[test]
fn vhdl_clocked_emits_synthesizable_rtl() {
    let out = cli()
        .args(["vhdl", &repo_path("models/accumulate.rtl"), "--clocked"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rising_edge(clk)"), "{stdout}");
    assert!(stdout.contains("entity accumulate_clocked is"), "{stdout}");
}

#[test]
fn vhdl_files_are_imported_and_run() {
    let out = cli()
        .args(["run", &repo_path("models/fig1.vhd")])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R1               7"), "{stdout}");
}

#[test]
fn vhdl_roundtrip_through_the_cli() {
    // rtl -> vhdl -> run must equal rtl -> run.
    let vhdl = cli()
        .args(["vhdl", &repo_path("models/multiop.rtl")])
        .output()
        .expect("binary runs");
    assert!(vhdl.status.success());
    let tmp = std::env::temp_dir().join("clockless_multiop_roundtrip.vhd");
    std::fs::write(&tmp, &vhdl.stdout).expect("written");
    let via_vhdl = cli()
        .args(["run", &tmp.to_string_lossy()])
        .output()
        .expect("binary runs");
    assert!(via_vhdl.status.success(), "{via_vhdl:?}");
    let direct = cli()
        .args(["run", &repo_path("models/multiop.rtl")])
        .output()
        .expect("binary runs");
    let pick = |out: &std::process::Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .skip_while(|l| !l.contains("final register values"))
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(pick(&via_vhdl), pick(&direct));
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn stats_reports_utilization() {
    let out = cli()
        .args(["stats", &repo_path("models/accumulate.rtl")])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("occupancy"), "{stdout}");
    assert!(stdout.contains("module initiations"), "{stdout}");
}

#[test]
fn stats_json_reports_kernel_counters() {
    let out = cli()
        .args(["stats", &repo_path("models/fig1.rtl"), "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"model\": \"fig1\""), "{stdout}");
    assert!(stdout.contains("\"delta_cycles\": 43"), "{stdout}");
    assert!(stdout.contains("\"wake_filter_misses\""), "{stdout}");
    assert!(stdout.contains("\"process\": \"CONTROL\""), "{stdout}");
}

#[test]
fn check_reports_lints() {
    // A model with an unused bus gets a lint warning but still passes.
    let tmp = std::env::temp_dir().join("clockless_lint_test.rtl");
    std::fs::write(
        &tmp,
        "model linty steps 4\nregister A init 1\nregister T\nbus X\nbus Y\nbus UNUSED\n\
         module CP ops passa comb\ntransfer (A,X,-,-,2,CP,2,Y,T)\n",
    )
    .expect("written");
    let out = cli()
        .args(["check", &tmp.to_string_lossy()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bus `UNUSED` is never used"), "{stdout}");
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn iks_corpus_models_stay_in_sync_with_the_builders() {
    use clockless::iks::prelude::*;
    // models/iks_ik.rtl was generated from build_ik_chip for pose (1,1);
    // its body must match a fresh generation (headers aside).
    let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
    let chip = build_ik_chip(to_fx(1.0), to_fx(1.0), constants).expect("builds");
    let fresh = clockless::core::text::to_text(&chip.model);
    let committed = std::fs::read_to_string(repo_path("models/iks_ik.rtl")).expect("readable");
    let body: String = committed
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(body, fresh, "regenerate models/iks_ik.rtl");

    let samples = [to_fx(0.5), to_fx(1.5), to_fx(-1.0), to_fx(2.0)];
    let coeffs = [to_fx(2.0), to_fx(-0.5), to_fx(0.25), to_fx(1.0)];
    let model = clockless::iks::build_fir_chip(samples, coeffs).expect("builds");
    let fresh = clockless::core::text::to_text(&model);
    let committed = std::fs::read_to_string(repo_path("models/iks_fir.rtl")).expect("readable");
    let body: String = committed
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(body, fresh, "regenerate models/iks_fir.rtl");
}

#[test]
fn iks_corpus_model_solves_the_pose_via_the_cli_path() {
    use clockless::iks::prelude::*;
    // Loading the text-format chip and running it gives the golden angles.
    let text = std::fs::read_to_string(repo_path("models/iks_ik.rtl")).expect("readable");
    let model = clockless::core::text::parse_model(&text).expect("parses");
    let mut sim = clockless::core::RtSimulation::new(&model).expect("elaborates");
    let summary = sim.run_to_completion().expect("runs");
    let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
    let golden = solve_ik(to_fx(1.0), to_fx(1.0), &constants).expect("reachable");
    assert_eq!(summary.register("J0").unwrap().num(), Some(golden.theta1));
    assert_eq!(summary.register("J1").unwrap().num(), Some(golden.theta2));
}

#[test]
fn fleet_json_is_byte_identical_across_worker_counts() {
    let models = [
        repo_path("models/fig1.rtl"),
        repo_path("models/accumulate.rtl"),
        repo_path("models/multiop.rtl"),
        repo_path("models/conflict.rtl"),
    ];
    let run = |jobs: &str| {
        let mut cmd = cli();
        cmd.arg("fleet")
            .args(&models)
            .args(["--jobs", jobs, "--json"]);
        let out = cmd.output().expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(one, four, "fleet --json must not depend on worker count");
    let text = String::from_utf8_lossy(&one);
    assert!(text.contains("\"jobs\": 4"), "{text}");
    assert!(text.contains("\"conflicted_jobs\": 1"), "{text}");
    assert!(text.contains("ILLEGAL on bus `X`"), "{text}");
    // The deterministic rendering carries no machine-local wall times.
    assert!(!text.contains("wall_ns"), "{text}");
}

#[test]
fn fleet_runs_a_spec_file_with_stimulus_overrides() {
    let tmp = std::env::temp_dir().join("clockless_cli_fleet_spec");
    std::fs::create_dir_all(&tmp).expect("tmp dir");
    std::fs::copy(repo_path("models/fig1.rtl"), tmp.join("fig1.rtl")).expect("copied");
    std::fs::write(
        tmp.join("sweep.fleet"),
        "fleet cli_test\n\
         job base rtl fig1.rtl\n\
         job stim rtl fig1.rtl init R1=40 init R2=2\n\
         job sched hls fir 4\n",
    )
    .expect("written");
    let out = cli()
        .args([
            "fleet",
            &tmp.join("sweep.fleet").to_string_lossy(),
            "--jobs",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 jobs"), "{stdout}");
    for job in ["base", "stim", "sched"] {
        assert!(stdout.contains(job), "{stdout}");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn fleet_runs_the_committed_demo_spec() {
    // models/demo.fleet is the spec the README points at — keep it green.
    let out = cli()
        .args(["fleet", &repo_path("models/demo.fleet"), "--jobs", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 jobs"), "{stdout}");
    for job in ["fig1_stim", "fir_sched", "ik_pose"] {
        assert!(stdout.contains(job), "{stdout}");
    }
}

#[test]
fn fleet_malformed_spec_fails_with_line_number() {
    let tmp = std::env::temp_dir().join("clockless_cli_bad.fleet");
    std::fs::write(&tmp, "fleet bad\njob x hls fir not_a_number\n").expect("written");
    let out = cli()
        .args(["fleet", &tmp.to_string_lossy()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("spec line 2"), "{stderr}");
    assert!(stderr.contains("not a valid number"), "{stderr}");
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn fleet_without_inputs_is_a_usage_error() {
    let out = cli().args(["fleet"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = cli()
        .args(["fleet", "--jobs", "zero", &repo_path("models/fig1.rtl")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fleet_quarantines_failures_and_stays_deterministic() {
    // models/chaos.fleet mixes clean jobs with a panicking chaos probe
    // and a delta-budget blowout. Keep-going mode must finish the batch,
    // exit 1, and produce byte-identical JSON at any worker count.
    let run = |jobs: &str| {
        let out = cli()
            .args([
                "fleet",
                &repo_path("models/chaos.fleet"),
                "--jobs",
                jobs,
                "--json",
            ])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("2 job(s) quarantined"), "{stderr}");
        out.stdout
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(one, four, "quarantine JSON must not depend on worker count");
    let text = String::from_utf8_lossy(&one);
    assert!(text.contains("\"failed_jobs\": 2"), "{text}");
    assert!(text.contains("\"status\": \"panicked\""), "{text}");
    assert!(
        text.contains("\"status\": \"delta-budget-exceeded\""),
        "{text}"
    );
    // Clean jobs keep their results: the stimulated fig1 ends at 42.
    assert!(text.contains("\"name\": \"stim\""), "{text}");
    assert!(text.contains("\"value\": \"42\""), "{text}");
}

#[test]
fn fleet_fail_fast_aborts_on_the_panicking_job() {
    let out = cli()
        .args([
            "fleet",
            &repo_path("models/chaos.fleet"),
            "--jobs",
            "4",
            "--fail-fast",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("job `boom` panicked"), "{stderr}");
}

#[test]
fn faults_campaign_is_seed_reproducible() {
    let run = |jobs: &str| {
        let out = cli()
            .args([
                "faults",
                &repo_path("models/fig1.rtl"),
                "--seed",
                "7",
                "--jobs",
                jobs,
                "--json",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    let a = run("1");
    let b = run("4");
    assert_eq!(a, b, "same seed must give a byte-identical report");
    let text = String::from_utf8_lossy(&a);
    assert!(text.contains("\"seed\": 7"), "{text}");
    assert!(text.contains("\"injected_faults\": 9"), "{text}");
}

#[test]
fn faults_detects_every_injected_dual_driver_conflict() {
    let out = cli()
        .args([
            "faults",
            &repo_path("models/fig1.rtl"),
            "--classes",
            "stuck,drivers",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4 detected (100%)"), "{stdout}");
    assert!(stdout.contains("drivers  2/2 detected"), "{stdout}");
    assert!(stdout.contains("0 silent"), "{stdout}");
    // Conflicts are localized to step AND phase.
    assert!(stdout.contains("in step 5 phase rb"), "{stdout}");
}

#[test]
fn run_backend_compiled_matches_interpreted_byte_for_byte() {
    let run = |extra: &[&str]| {
        let mut cmd = cli();
        cmd.args(["run", &repo_path("models/fig1.rtl"), "--trace"])
            .args(extra);
        let out = cmd.output().expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    let interp = run(&["--backend", "interpreted"]);
    let compiled = run(&["--backend", "compiled"]);
    assert_eq!(interp, run(&[]), "interpreted is the default");
    assert_eq!(interp, compiled, "backends must print identical reports");
    // An unknown backend is a usage error.
    let out = cli()
        .args(["run", &repo_path("models/fig1.rtl"), "--backend", "jit"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fleet_backend_compiled_json_matches_interpreted() {
    let run = |backend: &str| {
        let out = cli()
            .args([
                "fleet",
                &repo_path("models/demo.fleet"),
                "--jobs",
                "2",
                "--json",
                "--backend",
                backend,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    assert_eq!(
        run("interpreted"),
        run("compiled"),
        "fleet --json must not depend on the backend"
    );
}

#[test]
fn faults_backend_compiled_json_matches_interpreted() {
    let run = |backend: &str| {
        let out = cli()
            .args([
                "faults",
                &repo_path("models/fig1.rtl"),
                "--seed",
                "7",
                "--json",
                "--backend",
                backend,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    assert_eq!(
        run("interpreted"),
        run("compiled"),
        "fault campaigns must not depend on the backend"
    );
}

#[test]
fn faults_rejects_unknown_classes() {
    let out = cli()
        .args([
            "faults",
            &repo_path("models/fig1.rtl"),
            "--classes",
            "meteor",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown fault class `meteor`"), "{stderr}");
}

// ------------------------------------------------ guarded/memory corpus goldens

/// `models/guarded.rtl` (mutually exclusive guards, a conjunction and a
/// negated guard over an array): the run report and the fully-checked
/// fault campaign are pinned byte-for-byte, on both backends.
#[test]
fn guarded_corpus_model_matches_goldens() {
    let run_golden = std::fs::read_to_string(repo_path("tests/golden/run_guarded.json"))
        .expect("golden present");
    let faults_golden = std::fs::read_to_string(repo_path("tests/golden/faults_guarded.json"))
        .expect("golden present");
    for backend in ["interpreted", "compiled"] {
        let out = cli()
            .args([
                "run",
                &repo_path("models/guarded.rtl"),
                "--json",
                "--backend",
                backend,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            run_golden,
            "run report drifted on backend {backend}"
        );
        let out = cli()
            .args([
                "faults",
                &repo_path("models/guarded.rtl"),
                "--json",
                "--checkers",
                "all",
                "--backend",
                backend,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            faults_golden,
            "faults report drifted on backend {backend}"
        );
    }
    // The guards class is exercised and, with the checkers armed, the
    // campaign leaves no silent corruption.
    assert!(
        faults_golden.contains("\"class\": \"guards\""),
        "{faults_golden}"
    );
    assert!(faults_golden.contains("\"silent\": 0"), "{faults_golden}");
}

/// `models/memory.rtl` (constant- and register-indexed memory words):
/// same pinning as the guarded model, plus the final-state spot checks
/// of the indexed read-modify-write walk.
#[test]
fn memory_corpus_model_matches_goldens() {
    let run_golden =
        std::fs::read_to_string(repo_path("tests/golden/run_memory.json")).expect("golden present");
    let faults_golden = std::fs::read_to_string(repo_path("tests/golden/faults_memory.json"))
        .expect("golden present");
    for backend in ["interpreted", "compiled"] {
        let out = cli()
            .args([
                "run",
                &repo_path("models/memory.rtl"),
                "--json",
                "--backend",
                backend,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            run_golden,
            "run report drifted on backend {backend}"
        );
        let out = cli()
            .args([
                "faults",
                &repo_path("models/memory.rtl"),
                "--json",
                "--checkers",
                "all",
                "--backend",
                backend,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            faults_golden,
            "faults report drifted on backend {backend}"
        );
    }
    // The indexed walk: M[0]=5 loads, increments, spills to M[IDX]=M[2],
    // doubles through the read-back, and the guarded spill hits M[3].
    assert!(
        run_golden.contains(r#"{"name": "ACC", "value": "12"}"#),
        "{run_golden}"
    );
    assert!(
        run_golden.contains(r#"{"name": "M[2]", "value": "6"}"#),
        "{run_golden}"
    );
    assert!(
        run_golden.contains(r#"{"name": "M[3]", "value": "12"}"#),
        "{run_golden}"
    );
}

// ------------------------------------------------------------ VCD goldens

/// `run --vcd` writes the same waveform, byte for byte, on every engine
/// and at every optimization level: the documents are pinned by
/// `tests/golden/run_<model>.vcd` (a clean run, a bus conflict, guarded
/// transfers over an array, and memory words).
#[test]
fn run_vcd_matches_goldens_on_every_backend_and_level() {
    for model in ["fig1", "conflict", "guarded", "memory"] {
        let golden = std::fs::read_to_string(repo_path(&format!("tests/golden/run_{model}.vcd")))
            .expect("golden present");
        for backend in ["interpreted", "compiled"] {
            for opt in ["0", "1", "2"] {
                let vcd_path = std::env::temp_dir().join(format!(
                    "clockless_cli_golden_{}_{model}_{backend}_{opt}.vcd",
                    std::process::id()
                ));
                let out = cli()
                    .args([
                        "run",
                        &repo_path(&format!("models/{model}.rtl")),
                        "--vcd",
                        &vcd_path.to_string_lossy(),
                        "--backend",
                        backend,
                        "--opt",
                        opt,
                    ])
                    .output()
                    .expect("binary runs");
                assert!(out.status.success(), "{out:?}");
                let vcd = std::fs::read_to_string(&vcd_path).expect("vcd written");
                let _ = std::fs::remove_file(&vcd_path);
                assert_eq!(vcd, golden, "{model} VCD drifted on {backend} -O{opt}");
            }
        }
    }
}

/// A reader that closes the pipe before the command writes (`| head -1`,
/// `| true`) ends the command quietly: status 0 and no panic. Write errors
/// other than a closed pipe still fail the command.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    for args in [
        ["run", "models/iks_ik.rtl", "--trace"],
        ["faults", "models/iks_ik.rtl", "--json"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = cli()
            .arg(args[0])
            .arg(repo_path(args[1]))
            .arg(args[2])
            .stdout(writer)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    if Path::new("/dev/full").exists() {
        let full = std::fs::File::options().write(true).open("/dev/full");
        let out = cli()
            .args(["run", &repo_path("models/fig1.rtl")])
            .stdout(full.expect("/dev/full opens"))
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot write output"), "{stderr}");
    }
}

/// `clockless client` copying a long response stream into a reader that
/// closed early (`| head -c 100`) ends quietly like every other command;
/// a client that cannot reach its daemon still fails.
#[test]
fn client_ends_quietly_on_a_closed_stdout() {
    use std::io::Write as _;
    use std::process::{Child, Output, Stdio};
    use std::time::{Duration, Instant};

    /// Stops the daemon when the test ends, passing or not.
    struct Daemon(Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    /// A client's output, failing the test if it does not exit in time.
    fn finish(mut client: Child) -> Output {
        let deadline = Instant::now() + Duration::from_secs(60);
        while client.try_wait().expect("client status").is_none() {
            if Instant::now() > deadline {
                let _ = client.kill();
                panic!("client did not exit");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        client.wait_with_output().expect("client output")
    }

    let dir = std::env::temp_dir().join(format!("clockless-cli-client-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let socket = dir.join("daemon.sock");
    let mut daemon = Daemon(
        cli()
            .args(["serve", "--socket", &socket.to_string_lossy()])
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon starts"),
    );
    for _ in 0..400 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let client = |stdout: Stdio, requests: &str| {
        let mut child = cli()
            .args(["client", &socket.to_string_lossy()])
            .stdin(Stdio::piped())
            .stdout(stdout)
            .stderr(Stdio::piped())
            .spawn()
            .expect("client starts");
        let mut stdin = child.stdin.take().expect("client stdin");
        // The client may end its session before reading every request.
        let _ = stdin.write_all(requests.as_bytes());
        drop(stdin);
        finish(child)
    };
    let model = repo_path("models/fig1.rtl");
    let requests: String = (1..=200)
        .map(|id| format!("{{\"id\":{id},\"op\":\"run\",\"path\":\"{model}\"}}\n"))
        .collect();

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = client(writer.into(), &requests);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{out:?}");
    assert!(stderr.is_empty(), "{stderr}");

    let missing = cli()
        .args(["client", &dir.join("missing.sock").to_string_lossy()])
        .stdin(Stdio::null())
        .output()
        .expect("client runs");
    assert_eq!(missing.status.code(), Some(1), "{missing:?}");
    let stderr = String::from_utf8_lossy(&missing.stderr);
    assert!(stderr.contains("client: "), "{stderr}");

    // The daemon outlives the closed session and still shuts down.
    let out = client(Stdio::piped(), "{\"id\":1,\"op\":\"shutdown\"}\n");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("bye"),
        "{out:?}"
    );
    assert!(daemon.0.wait().expect("daemon exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}
