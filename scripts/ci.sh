#!/usr/bin/env bash
# Local CI gate, offline-safe: everything here resolves without registry
# access. Run from the repo root (or anywhere inside it).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release --offline
cargo test -q --offline

echo "== workspace tests"
cargo test -q --workspace --offline

echo "== examples build"
cargo build --examples --offline

echo "== rustdoc (workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== bench crate (build + unit tests; benches run via 'cargo bench')"
cargo test -q --manifest-path crates/bench/Cargo.toml --offline
cargo build --benches --manifest-path crates/bench/Cargo.toml --offline

echo "== perfbench smoke (every benchmark workload on the production path, one epoch each)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== fault-campaign smoke (stuck/drivers must detect, never corrupt silently)"
faults_out="$(./target/release/clockless faults models/fig1.rtl --classes stuck,drivers)"
grep -q "detected (100%)" <<<"$faults_out"
grep -q "0 silent" <<<"$faults_out"
grep -q "detected: ILLEGAL" <<<"$faults_out"

echo "== value-checker coverage gate (checkers all must close the silent-corruption gap)"
checked_out="$(./target/release/clockless faults models/fig1.rtl --checkers all)"
grep -q "9 detected (100%)" <<<"$checked_out"
grep -q "0 silent" <<<"$checked_out"
# Per-class floors: the baseline-blind classes must be fully covered,
# and the report must show the baseline they improved on.
grep -q "drops    1/1 detected (baseline 0)" <<<"$checked_out"
grep -q "skews    2/2 detected (baseline 0)" <<<"$checked_out"
grep -q "inits    2/2 detected (baseline 0)" <<<"$checked_out"
grep -q "value monitor" <<<"$checked_out"
# Sanity: with checkers off the same campaign leaves silent corruption.
unchecked_out="$(./target/release/clockless faults models/fig1.rtl)"
grep -q "5 silent" <<<"$unchecked_out"

echo "== mine/check round trip (mined invariants hold on the clean run, artifact is canonical)"
mine_dir="$(mktemp -d)"
./target/release/clockless mine models/fig1.rtl > "$mine_dir/inv.json"
grep -q '"kind": "range"' "$mine_dir/inv.json"
check_out="$(./target/release/clockless run models/fig1.rtl --check "$mine_dir/inv.json")"
grep -q "value checks against .*: clean" <<<"$check_out"
./target/release/clockless run models/fig1.rtl --check "$mine_dir/inv.json" --backend compiled >/dev/null
# A violated artifact must fail the run with the violation site.
sed 's/"max": 7/"max": 5/' "$mine_dir/inv.json" > "$mine_dir/bad.json"
bad_status=0
bad_out="$(./target/release/clockless run models/fig1.rtl --check "$mine_dir/bad.json" 2>&1)" || bad_status=$?
[ "$bad_status" -eq 1 ]
grep -q "invariant \`R1 in \[3, 5\]\` violated" <<<"$bad_out"
rm -rf "$mine_dir"

echo "== conflict check sweep (static predictions agree with the dynamic ILLEGALs)"
for model in models/*.rtl; do
  check_status=0
  check_out="$(./target/release/clockless check "$model" 2>&1)" || check_status=$?
  if [ "$(basename "$model")" = conflict.rtl ]; then
    # The corpus's deliberate clash: every prediction confirmed, exit 1.
    [ "$check_status" -eq 1 ]
    grep -q "all predictions confirmed dynamically" <<<"$check_out"
  else
    [ "$check_status" -eq 0 ]
    grep -q "static and dynamic agree" <<<"$check_out"
  fi
done

echo "== fleet quarantine smoke (hostile batch completes, failures quarantined)"
fleet_status=0
fleet_out="$(./target/release/clockless fleet models/chaos.fleet --jobs 4 2>&1)" || fleet_status=$?
[ "$fleet_status" -eq 1 ]
grep -q "2 job(s) quarantined" <<<"$fleet_out"
grep -q "panicked" <<<"$fleet_out"
grep -q "delta-budget-exceeded" <<<"$fleet_out"

echo "== backend sweep (compiled engine must be byte-identical to interpreted)"
for model in models/*.rtl; do
  interp_status=0 compiled_status=0
  interp_out="$(./target/release/clockless run "$model" --trace 2>&1)" || interp_status=$?
  compiled_out="$(./target/release/clockless run "$model" --trace --backend compiled 2>&1)" || compiled_status=$?
  [ "$interp_status" -eq "$compiled_status" ]
  [ "$interp_out" = "$compiled_out" ]
done
faults_interp="$(./target/release/clockless faults models/fig1.rtl --seed 7 --json)"
faults_compiled="$(./target/release/clockless faults models/fig1.rtl --seed 7 --json --backend compiled)"
[ "$faults_interp" = "$faults_compiled" ]

echo "== opt-level sweep (-O0/1/2 must be byte-identical end to end)"
for model in models/*.rtl; do
  o0_status=0
  o0_out="$(./target/release/clockless run "$model" --trace --backend compiled --opt 0 2>&1)" || o0_status=$?
  for lvl in 1 2; do
    lvl_status=0
    lvl_out="$(./target/release/clockless run "$model" --trace --backend compiled --opt "$lvl" 2>&1)" || lvl_status=$?
    [ "$o0_status" -eq "$lvl_status" ]
    [ "$o0_out" = "$lvl_out" ]
  done
done
# Campaign and fleet reports carry the same obligation: the optimized
# stream (solo and batched-lockstep alike) must not leak into the JSON.
faults_o0="$(./target/release/clockless faults models/iks_fir.rtl --json --backend compiled --opt 0)"
faults_o2="$(./target/release/clockless faults models/iks_fir.rtl --json --backend compiled --opt 2)"
[ "$faults_o0" = "$faults_o2" ]
# Every corpus campaign, checked or not, at every level: the lanes run
# each pass under the same per-lane masks as the solo stream.
for model in models/*.rtl; do
  for checkers in off all; do
    sweep_o0="$(./target/release/clockless faults "$model" --json --backend compiled --checkers "$checkers" --opt 0)"
    for lvl in 1 2; do
      sweep_lvl="$(./target/release/clockless faults "$model" --json --backend compiled --checkers "$checkers" --opt "$lvl")"
      [ "$sweep_o0" = "$sweep_lvl" ]
    done
  done
done
fleet_o0="$(./target/release/clockless fleet models/demo.fleet --jobs 2 --json --backend compiled --opt 0)"
fleet_o2="$(./target/release/clockless fleet models/demo.fleet --jobs 2 --json --backend compiled --opt 2)"
[ "$fleet_o0" = "$fleet_o2" ]

echo "== waveform sweep (run --vcd byte-identical across backends and -O levels)"
vcd_dir="$(mktemp -d)"
for model in models/*.rtl; do
  ./target/release/clockless run "$model" --vcd "$vcd_dir/interpreted.vcd" >/dev/null
  for lvl in 0 1 2; do
    ./target/release/clockless run "$model" --backend compiled --opt "$lvl" \
      --vcd "$vcd_dir/compiled.vcd" >/dev/null
    cmp "$vcd_dir/interpreted.vcd" "$vcd_dir/compiled.vcd"
  done
done
rm -rf "$vcd_dir"

echo "== campaign engine sweep (batched engine must be byte-identical to legacy)"
for model in models/*.rtl; do
  faults_batched="$(./target/release/clockless faults "$model" --json)"
  faults_legacy="$(./target/release/clockless faults "$model" --json --engine legacy)"
  [ "$faults_batched" = "$faults_legacy" ]
done
faults_batched_compiled="$(./target/release/clockless faults models/iks_fir.rtl --json --backend compiled)"
faults_legacy_compiled="$(./target/release/clockless faults models/iks_fir.rtl --json --engine legacy --backend compiled)"
[ "$faults_batched_compiled" = "$faults_legacy_compiled" ]
# Checked campaigns carry the same obligation: engines and backends must
# agree byte-for-byte with the value checkers armed, on every model.
for model in models/*.rtl; do
  checked_batched="$(./target/release/clockless faults "$model" --json --checkers all)"
  checked_legacy="$(./target/release/clockless faults "$model" --json --checkers all --engine legacy --jobs 3)"
  checked_compiled="$(./target/release/clockless faults "$model" --json --checkers all --backend compiled)"
  [ "$checked_batched" = "$checked_legacy" ]
  [ "$checked_batched" = "$checked_compiled" ]
done
# A lane stops feeding its checkers once every armed detector family has
# latched, so which lanes settle depends on the families armed: sweep
# each family alone too.
for model in models/*.rtl; do
  for checkers in golden invariants; do
    family_batched="$(./target/release/clockless faults "$model" --json --checkers "$checkers")"
    family_legacy="$(./target/release/clockless faults "$model" --json --checkers "$checkers" --engine legacy --jobs 3)"
    [ "$family_batched" = "$family_legacy" ]
  done
done
fleet_interp="$(./target/release/clockless fleet models/demo.fleet --jobs 2 --json)"
fleet_compiled="$(./target/release/clockless fleet models/demo.fleet --jobs 2 --json --backend compiled)"
[ "$fleet_interp" = "$fleet_compiled" ]

echo "== differential fuzz smoke (seeded zoo, zero divergences, reproducible report)"
fuzz_out="$(./target/release/clockless fuzz --seed 3238796885 --count 250)"
grep -q "fuzzed 250 models" <<<"$fuzz_out"
grep -q "no divergences" <<<"$fuzz_out"
fuzz_json="$(./target/release/clockless fuzz --seed 3238796885 --count 250 --json)"
fuzz_json2="$(./target/release/clockless fuzz --seed 3238796885 --count 250 --json)"
[ "$fuzz_json" = "$fuzz_json2" ]
grep -q '"divergence_count": 0' <<<"$fuzz_json"

echo "== serve smoke (daemon payloads byte-identical to one-shot CLI, clean shutdown)"
serve_sock="$(mktemp -d)/ci.sock"
./target/release/clockless serve --socket "$serve_sock" 2>/dev/null &
serve_pid=$!
for _ in $(seq 1 200); do [ -S "$serve_sock" ] && break; sleep 0.05; done
[ -S "$serve_sock" ]
serve_run="$(echo '{"id":1,"op":"run","path":"models/fig1.rtl"}' \
  | ./target/release/clockless client "$serve_sock" --payload)"
cli_run="$(./target/release/clockless run models/fig1.rtl --json)"
[ "$serve_run" = "$cli_run" ]
serve_faults="$(echo '{"id":2,"op":"faults","path":"models/fig1.rtl","seed":7}' \
  | ./target/release/clockless client "$serve_sock" --payload)"
cli_faults="$(./target/release/clockless faults models/fig1.rtl --seed 7 --json)"
[ "$serve_faults" = "$cli_faults" ]
serve_checked="$(echo '{"id":4,"op":"faults","path":"models/fig1.rtl","checkers":"all"}' \
  | ./target/release/clockless client "$serve_sock" --payload)"
cli_checked="$(./target/release/clockless faults models/fig1.rtl --json --checkers all)"
[ "$serve_checked" = "$cli_checked" ]
grep -q '"checkers": "all"' <<<"$serve_checked"
# A request pinning any -O level must return the exact default payload.
serve_run_o0="$(echo '{"id":5,"op":"run","path":"models/fig1.rtl","opt":0}' \
  | ./target/release/clockless client "$serve_sock" --payload)"
[ "$serve_run_o0" = "$cli_run" ]
echo '{"id":3,"op":"shutdown"}' | ./target/release/clockless client "$serve_sock" >/dev/null
wait "$serve_pid"
[ ! -e "$serve_sock" ]
rm -rf "$(dirname "$serve_sock")"

echo "CI OK"
