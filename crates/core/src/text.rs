//! A small declarative text format for RT models.
//!
//! The paper describes models as VHDL source. We do not reproduce a VHDL
//! parser (see DESIGN.md); instead this line-oriented format captures the
//! same declarations so models can be written, versioned and diffed as
//! text:
//!
//! ```text
//! # the Fig. 1 example
//! model example steps 7
//! register R1 init 3
//! register R2 init 4
//! array A[4] init 0
//! memory M[8] init 0
//! bus B1
//! bus B2
//! module ADD ops add pipelined 1
//! transfer (R1,B1,R2,B2,5,ADD,6,B1,R1)
//! transfer if R1 /= 0 then (A[0],B1,M[2],B2,1,ADD,2,B1,R2)
//! ```
//!
//! Module timing is `comb`, `pipelined <latency>` or
//! `sequential <latency>`. Transfers use the paper's 9-tuple notation
//! (with the `MODULE:op` extension), optionally prefixed by a guard
//! `if <cond> then`. `array NAME[N]` declares `N` element registers
//! `NAME[0]`…, and a later `register NAME[i] [init <value>]` line sets
//! element `i`'s own initial value; `memory NAME[N]` declares an indexed
//! storage resource. `#` starts a comment.

use std::collections::HashMap;
use std::fmt;

use crate::model::{ModelError, RtModel};
use crate::op::Op;
use crate::resource::{ModuleDecl, ModuleTiming};
use crate::tuples::TransferTuple;
use crate::value::Value;

/// Error parsing a model description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// 1-based column of the offending token, or 0 when the error has no
    /// finer location than the line itself.
    pub col: usize,
    /// Description of the problem.
    pub msg: String,
}

impl ParseModelError {
    fn new(line: usize, msg: impl Into<String>) -> Self {
        ParseModelError {
            line,
            col: 0,
            msg: msg.into(),
        }
    }

    fn at(line: usize, col: usize, msg: impl Into<String>) -> Self {
        ParseModelError {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col == 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "line {}:{}: {}", self.line, self.col, self.msg)
        }
    }
}

impl std::error::Error for ParseModelError {}

impl From<(usize, ModelError)> for ParseModelError {
    fn from((line, e): (usize, ModelError)) -> Self {
        ParseModelError::new(line, e.to_string())
    }
}

/// Splits a line into whitespace-separated tokens with their byte
/// offsets, so errors can point at the offending column.
fn tokenize(line: &str) -> Vec<(usize, &str)> {
    let mut toks = Vec::new();
    let mut start = None;
    for (i, ch) in line.char_indices() {
        if ch.is_whitespace() {
            if let Some(s) = start.take() {
                toks.push((s, &line[s..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        toks.push((s, &line[s..]));
    }
    toks
}

/// Parses a `NAME[N]` storage spec; on failure returns the message and
/// the byte offset of the offending part within `spec`.
fn parse_storage_spec(spec: &str) -> Result<(&str, u32), (String, usize)> {
    let Some(open) = spec.find('[') else {
        return Err((format!("expected `NAME[N]`, found `{spec}`"), 0));
    };
    let name = &spec[..open];
    if name.is_empty() {
        return Err(("storage name must come before `[`".into(), 0));
    }
    let Some(idx) = spec[open + 1..].strip_suffix(']') else {
        return Err(("unclosed `[` in storage spec".into(), open));
    };
    let len: u32 = idx
        .parse()
        .map_err(|_| (format!("bad length `{idx}`"), open + 1))?;
    Ok((name, len))
}

/// Parses a model from its textual description.
///
/// # Errors
///
/// Returns a [`ParseModelError`] locating the first offending line; when
/// the offending token is known (malformed guards, storage indices, …)
/// the error additionally carries its 1-based column. Model validation
/// errors (unknown resources, wrong write step, …) are reported the same
/// way.
///
/// # Examples
///
/// ```
/// use clockless_core::text::parse_model;
///
/// let m = parse_model("
///     model tiny steps 3
///     register A init 1
///     register B
///     bus X
///     bus Y
///     module CP ops passa comb
///     transfer (A,X,-,-,2,CP,2,Y,B)
/// ")?;
/// assert_eq!(m.cs_max(), 3);
/// # Ok::<(), clockless_core::text::ParseModelError>(())
/// ```
pub fn parse_model(text: &str) -> Result<RtModel, ParseModelError> {
    let mut model: Option<RtModel> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let stripped = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        };
        let indent = stripped.len() - stripped.trim_start().len();
        let line = stripped.trim();
        if line.is_empty() {
            continue;
        }
        let toks = tokenize(line);
        let tokens: Vec<&str> = toks.iter().map(|&(_, t)| t).collect();
        // 1-based column of byte offset `off` within the trimmed line.
        let col = |off: usize| indent + off + 1;
        match tokens[0] {
            "model" => {
                if model.is_some() {
                    return Err(ParseModelError::new(lineno, "duplicate `model` line"));
                }
                let (name, steps) = match tokens.as_slice() {
                    [_, name, "steps", n] => (*name, *n),
                    _ => {
                        return Err(ParseModelError::new(
                            lineno,
                            "expected `model <name> steps <N>`",
                        ))
                    }
                };
                let steps: u32 = steps.parse().map_err(|_| {
                    ParseModelError::at(lineno, col(toks[3].0), format!("bad step count `{steps}`"))
                })?;
                model = Some(RtModel::new(name, steps));
            }
            "register" => {
                let m = model
                    .as_mut()
                    .ok_or_else(|| ParseModelError::new(lineno, "`model` line must come first"))?;
                let (name, init) = match tokens.as_slice() {
                    [_, name] => (*name, Value::Disc),
                    [_, name, "init", v] => {
                        let v: i64 = v.parse().map_err(|_| {
                            ParseModelError::at(
                                lineno,
                                col(toks[3].0),
                                format!("bad init value `{v}`"),
                            )
                        })?;
                        (*name, Value::Num(v))
                    }
                    _ => {
                        return Err(ParseModelError::new(
                            lineno,
                            "expected `register <name> [init <value>]`",
                        ))
                    }
                };
                // An element of a declared array: the line sets its init.
                let result = match m.register_by_name(name) {
                    Some(_) if m.is_array_element(name) => m.set_register_init(name, init),
                    _ => m.add_register_init(name, init).map(|_| ()),
                };
                result.map_err(|e| ParseModelError::at(lineno, col(toks[1].0), e.to_string()))?;
            }
            "array" | "memory" => {
                let directive = tokens[0];
                let m = model
                    .as_mut()
                    .ok_or_else(|| ParseModelError::new(lineno, "`model` line must come first"))?;
                let (spec, init) = match tokens.as_slice() {
                    [_, spec] => (*spec, Value::Disc),
                    [_, spec, "init", v] => {
                        let v: i64 = v.parse().map_err(|_| {
                            ParseModelError::at(
                                lineno,
                                col(toks[3].0),
                                format!("bad init value `{v}`"),
                            )
                        })?;
                        (*spec, Value::Num(v))
                    }
                    _ => {
                        return Err(ParseModelError::new(
                            lineno,
                            format!("expected `{directive} NAME[N] [init <value>]`"),
                        ))
                    }
                };
                let (name, len) = parse_storage_spec(spec)
                    .map_err(|(msg, off)| ParseModelError::at(lineno, col(toks[1].0 + off), msg))?;
                let result = if directive == "array" {
                    m.add_array(name, len, init)
                } else {
                    m.add_memory(name, len, init).map(|_| ())
                };
                result.map_err(|e| ParseModelError::at(lineno, col(toks[1].0), e.to_string()))?;
            }
            "bus" => {
                let m = model
                    .as_mut()
                    .ok_or_else(|| ParseModelError::new(lineno, "`model` line must come first"))?;
                match tokens.as_slice() {
                    [_, name] => m
                        .add_bus(*name)
                        .map_err(|e| ParseModelError::from((lineno, e)))?,
                    _ => return Err(ParseModelError::new(lineno, "expected `bus <name>`")),
                };
            }
            "module" => {
                let m = model
                    .as_mut()
                    .ok_or_else(|| ParseModelError::new(lineno, "`model` line must come first"))?;
                let (name, ops_str, timing_tokens) = match tokens.as_slice() {
                    [_, name, "ops", ops, rest @ ..] if !rest.is_empty() => (*name, *ops, rest),
                    _ => return Err(ParseModelError::new(
                        lineno,
                        "expected `module <name> ops <op[,op…]> <comb|pipelined N|sequential N>`",
                    )),
                };
                let ops = ops_str
                    .split(',')
                    .map(|s| s.parse::<Op>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| ParseModelError::at(lineno, col(toks[3].0), e.to_string()))?;
                let timing = match timing_tokens {
                    ["comb"] => ModuleTiming::Combinational,
                    ["pipelined", n] => ModuleTiming::Pipelined {
                        latency: n.parse().map_err(|_| {
                            ParseModelError::new(lineno, format!("bad latency `{n}`"))
                        })?,
                    },
                    ["sequential", n] => ModuleTiming::Sequential {
                        latency: n.parse().map_err(|_| {
                            ParseModelError::new(lineno, format!("bad latency `{n}`"))
                        })?,
                    },
                    _ => {
                        return Err(ParseModelError::new(
                            lineno,
                            "timing must be `comb`, `pipelined <N>` or `sequential <N>`",
                        ))
                    }
                };
                m.add_module(ModuleDecl {
                    name: name.to_string(),
                    ops,
                    timing,
                })
                .map_err(|e| ParseModelError::from((lineno, e)))?;
            }
            "transfer" => {
                let m = model
                    .as_mut()
                    .ok_or_else(|| ParseModelError::new(lineno, "`model` line must come first"))?;
                let after = &line["transfer".len()..];
                let tuple_off = "transfer".len() + (after.len() - after.trim_start().len());
                let tuple_text = after.trim();
                let tuple: TransferTuple =
                    tuple_text
                        .parse()
                        .map_err(|e: crate::tuples::ParseTupleError| {
                            ParseModelError::at(lineno, col(tuple_off + e.offset()), e.to_string())
                        })?;
                m.add_transfer(tuple)
                    .map_err(|e| ParseModelError::from((lineno, e)))?;
            }
            other => {
                return Err(ParseModelError::new(
                    lineno,
                    format!("unknown directive `{other}`"),
                ))
            }
        }
    }
    model.ok_or_else(|| ParseModelError::new(1, "no `model` line found"))
}

fn storage_line(out: &mut String, directive: &str, name: &str, len: u32, init: Value) {
    use std::fmt::Write as _;
    match init {
        Value::Num(n) => {
            let _ = writeln!(out, "{directive} {name}[{len}] init {n}");
        }
        // ILLEGAL init is unreachable for built models; keep loadable.
        Value::Disc | Value::Illegal => {
            let _ = writeln!(out, "{directive} {name}[{len}]");
        }
    }
}

/// Renders a model in the textual format; [`parse_model`] of the result
/// reproduces the model. Array element registers are folded back into
/// their `array` declaration (emitted where the first element sits in
/// declaration order), followed by a `register` line for each element
/// whose init differs from the declared one (a stimulus or fault edit
/// made by [`RtModel::set_register_init`]); memories follow the
/// registers.
pub fn to_text(model: &RtModel) -> String {
    use std::fmt::Write as _;

    // Map each array element register to its declaration and index.
    let mut elements: HashMap<String, (usize, u32)> = HashMap::new();
    for (ai, a) in model.arrays().iter().enumerate() {
        for i in 0..a.len {
            elements.insert(format!("{}[{}]", a.name, i), (ai, i));
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "model {} steps {}", model.name(), model.cs_max());
    for r in model.registers() {
        if let Some(&(ai, i)) = elements.get(&r.name) {
            let a = &model.arrays()[ai];
            if i == 0 {
                storage_line(&mut out, "array", &a.name, a.len, a.init);
            }
            // Elements are declared in order, right after one another.
            if r.init == a.init {
                continue;
            }
        }
        match r.init {
            Value::Num(n) => {
                let _ = writeln!(out, "register {} init {}", r.name, n);
            }
            // ILLEGAL init is unreachable for built models; keep loadable.
            Value::Disc | Value::Illegal => {
                let _ = writeln!(out, "register {}", r.name);
            }
        }
    }
    for m in model.memories() {
        storage_line(&mut out, "memory", &m.name, m.len, m.init);
    }
    for b in model.buses() {
        let _ = writeln!(out, "bus {}", b.name);
    }
    for m in model.modules() {
        let ops: Vec<String> = m.ops.iter().map(|o| o.mnemonic()).collect();
        let timing = match m.timing {
            ModuleTiming::Combinational => "comb".to_string(),
            ModuleTiming::Pipelined { latency } => format!("pipelined {latency}"),
            ModuleTiming::Sequential { latency } => format!("sequential {latency}"),
        };
        let _ = writeln!(out, "module {} ops {} {}", m.name, ops.join(","), timing);
    }
    for t in model.tuples() {
        let _ = writeln!(out, "transfer {t}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig1_model;

    #[test]
    fn fig1_roundtrips_through_text() {
        let m = fig1_model(3, 4);
        let text = to_text(&m);
        let m2 = parse_model(&text).unwrap();
        assert_eq!(m2.name(), m.name());
        assert_eq!(m2.cs_max(), m.cs_max());
        assert_eq!(m2.registers(), m.registers());
        assert_eq!(m2.buses(), m.buses());
        assert_eq!(m2.modules(), m.modules());
        assert_eq!(m2.tuples(), m.tuples());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let m =
            parse_model("# header\n\nmodel x steps 2\n  register A # trailing\n bus B\n").unwrap();
        assert_eq!(m.registers().len(), 1);
        assert_eq!(m.buses().len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_model("model x steps 2\nbogus Y\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.col, 0);
        assert!(err.to_string().contains("bogus"));
        assert!(err.to_string().starts_with("line 2: "));
    }

    #[test]
    fn model_line_must_come_first() {
        let err = parse_model("register A\nmodel x steps 2\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn validation_errors_surface_with_line() {
        let err = parse_model(
            "model x steps 9\nregister A\nbus B\nmodule ADD ops add pipelined 1\n\
             transfer (A,B,A,B,5,ADD,9,B,A)\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.msg.contains("write-back"));
    }

    #[test]
    fn sequential_and_multi_op_modules_parse() {
        let m = parse_model(
            "model x steps 4\nmodule ALU ops add,sub,shr comb\nmodule MUL ops mulfx12 sequential 2\n",
        )
        .unwrap();
        assert_eq!(m.modules()[0].ops.len(), 3);
        assert_eq!(
            m.modules()[1].timing,
            ModuleTiming::Sequential { latency: 2 }
        );
        assert_eq!(m.modules()[1].ops[0], Op::MulFx(12));
    }

    #[test]
    fn missing_model_line_is_error() {
        assert!(parse_model("# nothing here\n").is_err());
    }

    #[test]
    fn arrays_and_memories_parse_and_roundtrip() {
        let text = "model st steps 3\nregister R init 1\narray A[3] init 7\n\
                    memory M[4] init 0\nbus B\nbus C\nmodule CP ops passa comb\n\
                    transfer (A[1],B,-,-,1,CP,1,C,R)\n\
                    transfer if R /= 0 then (R,B,-,-,2,CP,2,C,M[2])\n";
        let m = parse_model(text).unwrap();
        assert_eq!(m.arrays().len(), 1);
        assert_eq!(m.memories().len(), 1);
        // 1 plain register + 3 array elements.
        assert_eq!(m.registers().len(), 4);
        assert!(m.register_by_name("A[2]").is_some());
        assert!(m.tuples()[1].guard.is_some());

        let rendered = to_text(&m);
        // Element registers fold back into the array line.
        assert!(rendered.contains("array A[3] init 7\n"), "{rendered}");
        assert!(!rendered.contains("register A[0]"), "{rendered}");
        assert!(rendered.contains("memory M[4] init 0\n"), "{rendered}");
        assert!(rendered.contains("if R /= 0 then "), "{rendered}");
        let m2 = parse_model(&rendered).unwrap();
        assert_eq!(m2.registers(), m.registers());
        assert_eq!(m2.arrays(), m.arrays());
        assert_eq!(m2.memories(), m.memories());
        assert_eq!(m2.tuples(), m.tuples());
    }

    #[test]
    fn edited_element_inits_roundtrip() {
        let text = "model st steps 1\narray V[3] init 7\nregister R init 1\narray W[2]\n";
        let mut m = parse_model(text).unwrap();
        m.set_register_init("V[2]", Value::Num(9)).unwrap();
        m.set_register_init("V[0]", Value::Disc).unwrap();
        m.set_register_init("W[1]", Value::Num(-4)).unwrap();
        let rendered = to_text(&m);
        assert!(
            rendered.contains(
                "array V[3] init 7\nregister V[0]\nregister V[2] init 9\n\
                 register R init 1\narray W[2]\nregister W[1] init -4\n"
            ),
            "{rendered}"
        );
        let m2 = parse_model(&rendered).unwrap();
        assert_eq!(m2.registers(), m.registers());
        assert_eq!(m2.arrays(), m.arrays());
        // Unedited models render as before: no element lines.
        assert_eq!(to_text(&parse_model(text).unwrap()).lines().count(), 4);
        // Re-declaring a plain register is still a duplicate, on its line.
        let err = parse_model("model a steps 1\nregister R\nregister R init 2\n").unwrap_err();
        assert_eq!(
            (err.line, err.msg.as_str()),
            (3, "duplicate resource name `R`")
        );
    }

    #[test]
    fn uninitialized_storage_defaults_to_disc() {
        let m = parse_model("model x steps 1\narray A[2]\nmemory M[2]\n").unwrap();
        assert_eq!(m.arrays()[0].init, Value::Disc);
        assert_eq!(m.memories()[0].init, Value::Disc);
    }

    /// The satellite diagnostic table: every malformed guard or index
    /// points at its exact line *and* column.
    #[test]
    fn malformed_guards_and_indices_locate_line_and_column() {
        // (source, expected line, expected 1-based column, msg fragment)
        let table: &[(&str, usize, usize, &str)] = &[
            // `array A3`: no bracket in the spec token.
            ("model x steps 1\narray A3\n", 2, 7, "expected `NAME[N]`"),
            // Unclosed bracket: column of the `[`.
            ("model x steps 1\nmemory M[4\n", 2, 9, "unclosed `[`"),
            // Non-numeric length: column of the index text.
            ("model x steps 1\narray A[x]\n", 2, 9, "bad length `x`"),
            // Missing name: column of the spec itself.
            ("model x steps 1\nmemory [4]\n", 2, 8, "storage name"),
            // Indented line: columns shift with the indentation.
            ("model x steps 1\n  array A[x]\n", 2, 11, "bad length `x`"),
            // Bad comparison operator inside a guard: the tuple text
            // starts at col 10, `??` sits 6 bytes into it (`if R1 `).
            (
                "model x steps 1\nregister R1\nbus B\nbus C\nmodule CP ops passa comb\n\
                 transfer if R1 ?? 0 then (R1,B,-,-,1,CP,1,C,R1)\n",
                6,
                16,
                "unknown comparison `??`",
            ),
            // Bad guard literal: `0x` is 8 bytes into the tuple text.
            (
                "model x steps 1\nregister R1\nbus B\nbus C\nmodule CP ops passa comb\n\
                 transfer if R1 = 0x then (R1,B,-,-,1,CP,1,C,R1)\n",
                6,
                18,
                "bad literal `0x`",
            ),
            // Guard without `then`: column of the tuple text.
            (
                "model x steps 1\nregister R1\nbus B\nbus C\nmodule CP ops passa comb\n\
                 transfer if R1 = 0 (R1,B,-,-,1,CP,1,C,R1)\n",
                6,
                10,
                "then",
            ),
        ];
        for &(src, line, column, frag) in table {
            let err = parse_model(src).unwrap_err();
            assert_eq!(err.line, line, "{src:?}: {err}");
            assert_eq!(err.col, column, "{src:?}: {err}");
            assert!(err.msg.contains(frag), "{src:?}: {err}");
            assert!(
                err.to_string()
                    .starts_with(&format!("line {line}:{column}: ")),
                "{err}"
            );
        }
    }

    #[test]
    fn storage_validation_errors_carry_lines() {
        let err = parse_model("model x steps 1\narray A[0]\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("at least one element"), "{err}");
        let err = parse_model("model x steps 1\nmemory M[2]\nmemory M[2]\n").unwrap_err();
        assert_eq!(err.line, 3);
    }

    /// A register named like a memory word is refused in either
    /// declaration order: both engines would read the memory word.
    #[test]
    fn registers_aliasing_memory_words_are_rejected_with_lines() {
        let transfer = "bus B\nmodule CP ops passa comb\ntransfer (M[9],B,-,-,1,CP,1,B,R)\n";
        let memory_first =
            format!("model a steps 1\nmemory M[4]\nregister M[9] init 1\nregister R\n{transfer}");
        let err = parse_model(&memory_first).unwrap_err();
        assert_eq!(
            (err.line, err.msg.as_str()),
            (3, "duplicate resource name `M[9]`")
        );
        let register_first =
            format!("model a steps 1\nregister M[9] init 1\nmemory M[4]\nregister R\n{transfer}");
        let err = parse_model(&register_first).unwrap_err();
        assert_eq!(
            (err.line, err.msg.as_str()),
            (3, "duplicate resource name `M`")
        );
        let word = "model a steps 1\nregister M[1] init 1\nmemory M[4]\n";
        assert_eq!(parse_model(word).unwrap_err().line, 3);
    }

    /// A plain register named like an element of a declared array is
    /// refused in either declaration order, at the offending name; the
    /// array's own elements keep taking per-element inits.
    #[test]
    fn registers_posing_as_array_elements_are_rejected_with_columns() {
        let array_first = "model a steps 1\narray V[2] init 0\nregister V[7] init 1\n";
        let err = parse_model(array_first).unwrap_err();
        assert_eq!(
            (err.line, err.col, err.msg.as_str()),
            (3, 10, "duplicate resource name `V[7]`")
        );
        assert_eq!(err.to_string(), "line 3:10: duplicate resource name `V[7]`");
        let register_first = "model a steps 1\nregister V[7] init 1\n  array V[2] init 0\n";
        let err = parse_model(register_first).unwrap_err();
        assert_eq!(
            (err.line, err.col, err.msg.as_str()),
            (3, 9, "duplicate resource name `V`")
        );
        let element = "model a steps 1\narray V[2] init 0\nregister V[1] init 9\n";
        let m = parse_model(element).unwrap();
        assert_eq!(m.registers()[1].init, Value::Num(9));
        assert!(m.is_array_element("V[1]"));
    }
}
