//! Mined functional invariants: learning value laws from the clean run
//! and carrying them in a deterministic JSON artifact.
//!
//! Golden monitors ([`crate::monitor`]) compare a mutant against the one
//! recorded trajectory; invariants generalize it into *laws* that hold
//! at every delta of the clean run and are cheap to re-assert anywhere:
//!
//! * **Range** — each register stays inside its observed `[min, max]`.
//! * **Reachable** — registers with small domains (≤
//!   [`REACHABLE_MAX`] distinct numbers) only ever hold observed values.
//! * **Relations** — for each register pair, `a == b`, constant offset
//!   `a - b == k`, or `a <= b`, whichever held throughout.
//!
//! Mining is purely syntactic over the recorded [`MonitorTable`], read at
//! its change points: registers
//! whose trajectory is all-numeric contribute, in declaration order, so
//! the mined rule list — and the rendered artifact — is byte-stable for
//! a given model. [`render_artifact`] / [`parse_artifact`] round-trip
//! the rules through the workspace's hand-rolled JSON (no external
//! crates), powering `clockless mine` and `clockless run --check`.
//!
//! # Examples
//!
//! ```
//! use clockless_core::model::fig1_model;
//! use clockless_verify::invariants::{mine_artifact, parse_artifact};
//!
//! let model = fig1_model(3, 4);
//! let artifact = mine_artifact(&model)?;
//! let (name, program) = parse_artifact(&artifact)?;
//! assert_eq!(name, "fig1_example");
//! assert!(!program.invariants.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeSet;
use std::fmt::Write as _;

use clockless_core::check::{
    check_signals, record_table, CheckProgram, CheckSignal, CheckedError, Invariant, MonitorTable,
    SignalKind,
};
use clockless_core::json::{escape, Json};
use clockless_core::model::RtModel;
use clockless_core::value::Value;

/// Largest distinct-value count for which a `Reachable` set is mined.
pub const REACHABLE_MAX: usize = 16;

/// Mines the invariant list from a recorded clean-run table.
///
/// Only registers whose whole trajectory is numeric participate (bus
/// trajectories spend most deltas disconnected and carry no stable
/// law). Emission order is canonical: per-register rules in declaration
/// order (`Range`, then `Reachable` when the domain is small), then
/// pair relations for `i < j` (`Eq`, else `Offset`, else `Le` in
/// whichever direction held). Every rule is decided at the table's
/// change points: between two of them no value moves.
pub fn mine_invariants(signals: &[CheckSignal], table: &MonitorTable) -> Vec<Invariant> {
    // Per register, the `(delta, value)` change points of its trajectory
    // while it holds numbers: `None` once it holds anything else, and for
    // buses and memory words.
    let mut moves: Vec<Option<Vec<(u64, i64)>>> = (signals.iter())
        .map(|s| (s.kind == SignalKind::Register).then(Vec::new))
        .collect();
    table.replay(|d, changed, row| {
        for &i in changed {
            match (row[i], &mut moves[i]) {
                (Value::Num(v), Some(points)) => points.push((d, v)),
                (_, slot) => *slot = None,
            }
        }
    });
    // An empty table shows no register at all.
    let numeric: Vec<(usize, Vec<(u64, i64)>)> = (moves.into_iter().enumerate())
        .filter_map(|(sig, points)| Some((sig, points.filter(|p| !p.is_empty())?)))
        .collect();

    let mut rules = Vec::new();
    for (sig, points) in &numeric {
        let values: BTreeSet<i64> = points.iter().map(|p| p.1).collect();
        let (min, max) = (values.first(), values.last());
        let (min, max) = (*min.expect("a point"), *max.expect("a point"));
        rules.push(Invariant::Range {
            sig: *sig,
            min,
            max,
        });
        if values.len() <= REACHABLE_MAX {
            let values = values.into_iter().collect();
            rules.push(Invariant::Reachable { sig: *sig, values });
        }
    }
    for (p, (a, xs)) in numeric.iter().enumerate() {
        for (b, ys) in &numeric[p + 1..] {
            // The pair's values at each change point of either register:
            // between two of them neither moves.
            let at = |zs: &[(u64, i64)], d: u64| zs[zs.partition_point(|z| z.0 <= d) - 1].1;
            let pairs = || xs.iter().chain(ys).map(|&(d, _)| (at(xs, d), at(ys, d)));
            let (a, b, delta) = (*a, *b, xs[0].1.wrapping_sub(ys[0].1));
            if pairs().all(|(x, y)| x == y) {
                rules.push(Invariant::Eq { a, b });
            } else if pairs().all(|(x, y)| x.wrapping_sub(y) == delta) {
                rules.push(Invariant::Offset { a, b, delta });
            } else if pairs().all(|(x, y)| x <= y) {
                rules.push(Invariant::Le { a, b });
            } else if pairs().all(|(x, y)| y <= x) {
                rules.push(Invariant::Le { a: b, b: a });
            }
        }
    }
    rules
}

/// Records the clean run and mines a monitor-free invariant program.
///
/// # Errors
///
/// The clean run's own failure (see
/// [`record_table`]).
pub fn mine_program(model: &RtModel) -> Result<CheckProgram, CheckedError> {
    let signals = check_signals(model);
    let table = record_table(model, &signals)?;
    let invariants = mine_invariants(&signals, &table);
    Ok(CheckProgram {
        signals,
        monitor: None,
        invariants,
    })
}

/// Records, mines and renders the invariant artifact for `model` in one
/// step — the `clockless mine` payload.
///
/// # Errors
///
/// The clean run's own failure.
pub fn mine_artifact(model: &RtModel) -> Result<String, CheckedError> {
    let program = mine_program(model)?;
    Ok(render_artifact(model.name(), &program))
}

/// Renders an invariant program as the deterministic JSON artifact.
///
/// The document is byte-stable for a given model: signals in check
/// order, rules in mined order, integers only (no floats), two-space
/// indentation like every other report in the workspace.
pub fn render_artifact(model_name: &str, program: &CheckProgram) -> String {
    let name = |i: usize| escape(&program.signals[i].name);
    let mut out = String::new();
    out.push_str("{\n  \"invariants\": {\n");
    let _ = writeln!(out, "    \"model\": \"{}\",", escape(model_name));
    let _ = writeln!(out, "    \"signals\": {},", program.signals.len());
    let _ = writeln!(out, "    \"rules\": {}", program.invariants.len());
    out.push_str("  },\n  \"signals\": [");
    for (i, sig) in program.signals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"kind\": \"{}\"}}",
            escape(&sig.name),
            sig.kind
        );
    }
    out.push_str("\n  ],\n  \"rules\": [");
    for (i, rule) in program.invariants.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let pair = |kind: &str, a: usize, b: usize| {
            format!(
                "\"kind\": \"{kind}\", \"a\": \"{}\", \"b\": \"{}\"",
                name(a),
                name(b)
            )
        };
        let body = match rule {
            Invariant::Range { sig, min, max } => format!(
                "\"kind\": \"range\", \"signal\": \"{}\", \"min\": {min}, \"max\": {max}",
                name(*sig)
            ),
            Invariant::Reachable { sig, values } => {
                let values: Vec<String> = values.iter().map(i64::to_string).collect();
                let (sig, values) = (name(*sig), values.join(", "));
                format!("\"kind\": \"reachable\", \"signal\": \"{sig}\", \"values\": [{values}]")
            }
            Invariant::Eq { a, b } => pair("eq", *a, *b),
            Invariant::Le { a, b } => pair("le", *a, *b),
            Invariant::Offset { a, b, delta } => {
                format!("{}, \"delta\": {delta}", pair("offset", *a, *b))
            }
        };
        let _ = write!(out, "\n    {{{body}}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Parses an invariant artifact back into `(model name, program)`.
///
/// The returned program carries no monitor table — artifacts transport
/// mined laws only; golden monitors are always re-recorded in-process.
///
/// # Errors
///
/// A human-readable message on malformed JSON, unknown rule kinds,
/// unknown signal references, or out-of-range numbers.
pub fn parse_artifact(text: &str) -> Result<(String, CheckProgram), String> {
    let doc = Json::parse(text).map_err(|e| format!("invariant artifact: {e}"))?;
    let header = doc
        .get("invariants")
        .ok_or("invariant artifact: missing `invariants` header")?;
    let model = header
        .get("model")
        .and_then(Json::as_str)
        .ok_or("invariant artifact: missing `invariants.model`")?
        .to_string();

    let mut signals = Vec::new();
    for (i, entry) in doc
        .get("signals")
        .and_then(Json::as_array)
        .ok_or("invariant artifact: missing `signals` array")?
        .iter()
        .enumerate()
    {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("invariant artifact: signal {i}: missing `name`"))?;
        let kind = match entry.get("kind").and_then(Json::as_str) {
            Some("register") => SignalKind::Register,
            Some("memory word") => SignalKind::MemoryWord,
            Some("bus") => SignalKind::Bus,
            other => {
                return Err(format!(
                    "invariant artifact: signal `{name}`: bad kind {other:?} \
                     (expected register|memory word|bus)"
                ))
            }
        };
        signals.push(CheckSignal {
            name: name.to_string(),
            kind,
        });
    }
    let index = |rule: usize, key: &str, entry: &Json| -> Result<usize, String> {
        let name = entry
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("invariant artifact: rule {rule}: missing `{key}`"))?;
        signals
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| format!("invariant artifact: rule {rule}: unknown signal `{name}`"))
    };
    let int = |rule: usize, key: &str, entry: &Json| -> Result<i64, String> {
        entry
            .get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("invariant artifact: rule {rule}: missing integer `{key}`"))
    };

    let mut invariants = Vec::new();
    for (i, entry) in doc
        .get("rules")
        .and_then(Json::as_array)
        .ok_or("invariant artifact: missing `rules` array")?
        .iter()
        .enumerate()
    {
        let rule = match entry.get("kind").and_then(Json::as_str) {
            Some("range") => Invariant::Range {
                sig: index(i, "signal", entry)?,
                min: int(i, "min", entry)?,
                max: int(i, "max", entry)?,
            },
            Some("reachable") => {
                let values: Vec<i64> = entry
                    .get("values")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("invariant artifact: rule {i}: missing `values`"))?
                    .iter()
                    .map(Json::as_i64)
                    .collect::<Option<_>>()
                    .ok_or_else(|| {
                        format!("invariant artifact: rule {i}: non-integer reachable value")
                    })?;
                if !values.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!(
                        "invariant artifact: rule {i}: reachable values must be \
                         strictly ascending"
                    ));
                }
                Invariant::Reachable {
                    sig: index(i, "signal", entry)?,
                    values,
                }
            }
            Some("eq") => Invariant::Eq {
                a: index(i, "a", entry)?,
                b: index(i, "b", entry)?,
            },
            Some("le") => Invariant::Le {
                a: index(i, "a", entry)?,
                b: index(i, "b", entry)?,
            },
            Some("offset") => Invariant::Offset {
                a: index(i, "a", entry)?,
                b: index(i, "b", entry)?,
                delta: int(i, "delta", entry)?,
            },
            other => {
                return Err(format!(
                    "invariant artifact: rule {i}: bad kind {other:?} \
                     (expected range|reachable|eq|le|offset)"
                ))
            }
        };
        invariants.push(rule);
    }
    Ok((
        model,
        CheckProgram {
            signals,
            monitor: None,
            invariants,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockless_core::model::fig1_model;

    /// The table whose row at delta `d` is `rows[d]`.
    fn table_of(rows: &[Vec<Value>]) -> MonitorTable {
        let width = rows.first().map_or(0, Vec::len);
        let events = (rows.iter().enumerate())
            .flat_map(|(d, row)| row.iter().enumerate().map(move |(i, &v)| (d as u64, i, v)));
        MonitorTable::from_events(rows.len() as u64, vec![Value::Disc; width], events)
    }

    /// The table's row at every delta, expanded from its change points.
    fn dense_rows(table: &MonitorTable) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let hold = |rows: &mut Vec<Vec<Value>>, upto: u64| {
            while (rows.len() as u64) < upto {
                rows.push(rows.last().expect("delta 0 comes first").clone());
            }
        };
        table.replay(|d, _, row| {
            hold(&mut rows, d);
            rows.push(row.to_vec());
        });
        hold(&mut rows, table.deltas);
        rows
    }

    /// The reference miner: every register's full column, one value per
    /// delta, and every rule decided over whole columns.
    fn mine_dense(signals: &[CheckSignal], rows: &[Vec<Value>]) -> Vec<Invariant> {
        if signals.is_empty() || rows.is_empty() {
            return Vec::new();
        }
        let mut numeric: Vec<(usize, Vec<i64>)> = Vec::new();
        for (i, sig) in signals.iter().enumerate() {
            if sig.kind != SignalKind::Register {
                continue;
            }
            let column: Option<Vec<i64>> = rows.iter().map(|row| row[i].num()).collect();
            if let Some(column) = column {
                numeric.push((i, column));
            }
        }
        let mut rules = Vec::new();
        for (sig, column) in &numeric {
            let min = *column.iter().min().expect("non-empty trajectory");
            let max = *column.iter().max().expect("non-empty trajectory");
            rules.push(Invariant::Range {
                sig: *sig,
                min,
                max,
            });
            let distinct: BTreeSet<i64> = column.iter().copied().collect();
            if distinct.len() <= REACHABLE_MAX {
                rules.push(Invariant::Reachable {
                    sig: *sig,
                    values: distinct.into_iter().collect(),
                });
            }
        }
        for (p, (a, xs)) in numeric.iter().enumerate() {
            for (b, ys) in numeric.iter().skip(p + 1) {
                let pairs = || xs.iter().copied().zip(ys.iter().copied());
                if pairs().all(|(x, y)| x == y) {
                    rules.push(Invariant::Eq { a: *a, b: *b });
                } else if pairs().all(|(x, y)| x.wrapping_sub(y) == xs[0].wrapping_sub(ys[0])) {
                    rules.push(Invariant::Offset {
                        a: *a,
                        b: *b,
                        delta: xs[0].wrapping_sub(ys[0]),
                    });
                } else if pairs().all(|(x, y)| x <= y) {
                    rules.push(Invariant::Le { a: *a, b: *b });
                } else if pairs().all(|(x, y)| y <= x) {
                    rules.push(Invariant::Le { a: *b, b: *a });
                }
            }
        }
        rules
    }

    /// Every corpus model and both IKS chips, by label.
    fn corpus_models() -> Vec<(String, RtModel)> {
        let mut models: Vec<(String, RtModel)> = Vec::new();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models");
        for entry in std::fs::read_dir(dir).expect("models directory") {
            let path = entry.expect("entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("rtl") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable");
            let model = clockless_core::text::parse_model(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            models.push((path.display().to_string(), model));
        }
        assert!(
            models.len() >= 5,
            "corpus shrank to {} models",
            models.len()
        );
        use clockless_iks::prelude::*;
        let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
        let ik = build_ik_chip(to_fx(1.0), to_fx(1.0), constants)
            .expect("ik chip")
            .model;
        models.push(("ik chip".to_string(), ik));
        let samples = [to_fx(0.5), to_fx(1.5), to_fx(-1.0), to_fx(2.0)];
        let coeffs = [to_fx(2.0), to_fx(-0.5), to_fx(0.25), to_fx(1.0)];
        let fir = clockless_iks::build_fir_chip(samples, coeffs).expect("fir chip");
        models.push(("fir chip".to_string(), fir));
        models
    }

    /// Mining at change points finds, rule for rule, what the full-column
    /// reference finds: on the corpus, both IKS chips and the fuzz zoo's
    /// generators, and on random tables whose registers wander over a
    /// small palette with an occasional `DISC`.
    #[test]
    fn change_points_mine_what_full_columns_mine() {
        use crate::fuzz::{generate_hls_model, generate_model};
        let mut models = corpus_models();
        for seed in 0..8 {
            models.push((format!("zoo seed {seed}"), generate_model(seed)));
            models.push((format!("hls seed {seed}"), generate_hls_model(seed)));
        }
        let mut mined = 0;
        for (label, model) in &models {
            let signals = check_signals(model);
            let Ok(table) = record_table(model, &signals) else {
                continue;
            };
            let rules = mine_invariants(&signals, &table);
            assert_eq!(rules, mine_dense(&signals, &dense_rows(&table)), "{label}");
            mined += rules.len();
        }
        assert!(mined > 100, "only {mined} rules mined");

        // Registers of `REACHABLE_MAX` and of one more distinct values.
        let signals: Vec<CheckSignal> = (0..2)
            .map(|i| CheckSignal {
                name: format!("S{i}"),
                kind: SignalKind::Register,
            })
            .collect();
        let rows: Vec<Vec<Value>> = (0..=REACHABLE_MAX as i64)
            .map(|d| vec![Value::Num(d.min(REACHABLE_MAX as i64 - 1)), Value::Num(d)])
            .collect();
        let rules = mine_invariants(&signals, &table_of(&rows));
        assert_eq!(rules, mine_dense(&signals, &rows));
        let reachable = |sig| {
            rules.iter().any(|r| {
                *r == Invariant::Reachable {
                    sig,
                    values: (0..REACHABLE_MAX as i64 + i64::from(sig == 1)).collect(),
                }
            })
        };
        assert!(reachable(0) && !reachable(1), "{rules:?}");

        let mut rng = 0x5eed_u64;
        let mut next = move |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        let mut kinds = [0usize; 5];
        for trial in 0..2000 {
            let width = 1 + next(5) as usize;
            let signals: Vec<CheckSignal> = (0..width)
                .map(|i| CheckSignal {
                    name: format!("S{i}"),
                    kind: [SignalKind::Register, SignalKind::Bus][usize::from(next(5) == 0)],
                })
                .collect();
            let mut row: Vec<Value> = (0..width).map(|_| Value::Num(next(4) as i64)).collect();
            let mut rows = Vec::new();
            for _ in 0..1 + next(12) {
                for (i, v) in row.iter_mut().enumerate() {
                    *v = match next(9) {
                        0 if next(8) == 0 => Value::Disc,
                        0 => Value::Num(next(4) as i64 - 1),
                        // Follow the signal before, so relations survive.
                        1 if i > 0 => Value::Num(row_num(&rows, i - 1) + next(2) as i64),
                        _ => *v,
                    };
                }
                rows.push(row.clone());
            }
            let table = table_of(&rows);
            let rules = mine_invariants(&signals, &table);
            assert_eq!(
                rules,
                mine_dense(&signals, &rows),
                "trial {trial}: {rows:?}"
            );
            for rule in &rules {
                kinds[match rule {
                    Invariant::Range { .. } => 0,
                    Invariant::Reachable { .. } => 1,
                    Invariant::Eq { .. } => 2,
                    Invariant::Offset { .. } => 3,
                    Invariant::Le { .. } => 4,
                }] += 1;
            }
        }
        assert!(kinds.iter().all(|&k| k > 100), "{kinds:?}");
    }

    /// The number signal `i` held in the last of `rows`, or 0.
    fn row_num(rows: &[Vec<Value>], i: usize) -> i64 {
        rows.last().and_then(|row| row[i].num()).unwrap_or(0)
    }

    #[test]
    fn fig1_mines_the_expected_laws() {
        let model = fig1_model(3, 4);
        let program = mine_program(&model).expect("clean run");
        // Signal order: R1, R2 (registers), then B1, B2 (buses).
        let rendered: Vec<String> = program
            .invariants
            .iter()
            .map(|r| r.render(&program.signals))
            .collect();
        assert_eq!(
            rendered,
            ["R1 in [3, 7]", "R1 in {3, 7}", "R2 in [4, 4]", "R2 in {4}",],
            "canonical mined order"
        );
    }

    #[test]
    fn memory_word_signals_survive_the_artifact_round_trip() {
        let model = clockless_core::text::parse_model(
            "model mm steps 3\nregister IDX init 1\nregister R init 2\n\
             memory M[2] init 5\nbus B\nbus C\nmodule CP ops passa comb\n\
             transfer (M[0],B,-,-,1,CP,1,C,R)\n\
             transfer if R >= 0 then (R,B,-,-,2,CP,2,C,M[IDX])\n",
        )
        .unwrap();
        let artifact = mine_artifact(&model).expect("clean run");
        assert!(artifact.contains("\"memory word\""), "{artifact}");
        let (name, program) = parse_artifact(&artifact).expect("round trips");
        assert_eq!(name, "mm");
        assert!(program
            .signals
            .iter()
            .any(|s| s.name == "M[0]" && s.kind == SignalKind::MemoryWord));
        // Canonical: re-rendering the parsed program is byte-identical.
        assert_eq!(render_artifact(&name, &program), artifact);
    }

    #[test]
    fn relations_are_mined_in_priority_order() {
        use clockless_core::check::SignalKind::Register;
        let sig = |n: &str| CheckSignal {
            name: n.to_string(),
            kind: Register,
        };
        let signals = vec![sig("A"), sig("B"), sig("C"), sig("D")];
        // 3 deltas: A==B always; C = A + 10; D bounds A from above but
        // is neither equal nor a constant offset.
        let rows: &[[i64; 4]] = &[[1, 1, 11, 5], [2, 2, 12, 5], [1, 1, 11, 5]];
        let rows: Vec<Vec<Value>> = (rows.iter())
            .map(|row| row.iter().map(|&v| Value::Num(v)).collect())
            .collect();
        let table = table_of(&rows);
        let mined = mine_invariants(&signals, &table);
        let rendered: Vec<String> = mined.iter().map(|r| r.render(&signals)).collect();
        assert!(rendered.contains(&"A == B".to_string()));
        assert!(
            rendered.contains(&"C - A == 10".to_string())
                || rendered.contains(&"A - C == -10".to_string())
        );
        assert!(rendered.contains(&"A <= D".to_string()));
        // Eq wins over Offset (k = 0) and Le for the A/B pair.
        assert!(!rendered.contains(&"A - B == 0".to_string()));
        assert!(!rendered.contains(&"A <= B".to_string()));
    }

    #[test]
    fn non_numeric_trajectories_mine_nothing() {
        let signals = vec![CheckSignal {
            name: "R".to_string(),
            kind: SignalKind::Register,
        }];
        let table = table_of(&[vec![Value::Num(1)], vec![Value::Disc]]);
        assert!(mine_invariants(&signals, &table).is_empty());
        // A table of no delta shows no value at all.
        assert!(mine_invariants(&signals, &table_of(&[])).is_empty());
    }

    #[test]
    fn artifact_round_trips_byte_stably() {
        let model = fig1_model(3, 4);
        let artifact = mine_artifact(&model).expect("mines");
        let (name, program) = parse_artifact(&artifact).expect("parses");
        assert_eq!(name, "fig1_example");
        assert_eq!(program.invariants, mine_program(&model).unwrap().invariants);
        assert!(program.monitor.is_none());
        // Render(parse(render)) is the identity — the artifact is canonical.
        assert_eq!(render_artifact(&name, &program), artifact);
    }

    /// The mined laws are *sound by construction*: they were learned from
    /// the clean run, so re-asserting them (plus the golden monitor) on
    /// that same clean run must never fire — on either backend, for every
    /// model in the corpus and both IKS chips. A false positive here
    /// would poison every campaign verdict downstream.
    #[test]
    fn checkers_never_fire_on_clean_corpus_runs() {
        use crate::monitor::{build_checkers, CheckerMode};
        use clockless_core::{execute_checked, Backend, ExecOptions};

        for (label, model) in &corpus_models() {
            let program = build_checkers(model, CheckerMode::All)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .expect("All mode always yields a program");
            for backend in [Backend::Interpreted, Backend::Compiled] {
                let (_, report) =
                    execute_checked(model, backend, &ExecOptions::default(), &program)
                        .unwrap_or_else(|e| panic!("{label} ({backend:?}): {e}"));
                assert!(
                    report.is_clean(),
                    "{label} ({backend:?}): checker fired on the clean run: \
                     monitor={:?} invariant={:?}",
                    report.monitor,
                    report.invariant
                );
            }
        }
    }

    #[test]
    fn malformed_artifacts_are_rejected_with_context() {
        assert!(parse_artifact("not json").unwrap_err().contains("artifact"));
        let missing = r#"{"signals": [], "rules": []}"#;
        assert!(parse_artifact(missing).unwrap_err().contains("invariants"));
        let bad_rule = r#"{
            "invariants": {"model": "m", "signals": 1, "rules": 1},
            "signals": [{"name": "R", "kind": "register"}],
            "rules": [{"kind": "modulo", "signal": "R"}]
        }"#;
        assert!(parse_artifact(bad_rule).unwrap_err().contains("modulo"));
        let bad_sig = r#"{
            "invariants": {"model": "m", "signals": 1, "rules": 1},
            "signals": [{"name": "R", "kind": "register"}],
            "rules": [{"kind": "range", "signal": "Q", "min": 0, "max": 1}]
        }"#;
        assert!(parse_artifact(bad_sig).unwrap_err().contains("Q"));
    }
}
