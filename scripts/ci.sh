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

echo "== fleet shared source (jobs sharing one file report what jobs on distinct copies do)"
share_dir="$(mktemp -d)"
for i in $(seq 1 9); do
  cp models/fig1.rtl "$share_dir/copy$i.rtl"
  opts="init R1=$i init R2=$((3 * i - 7))"
  [ "$i" -eq 9 ] && opts="steps 9 init R2=5"
  # A tight budget and a compiled job inside the interpreted group.
  [ "$i" -eq 4 ] && opts="$opts budget 20"
  [ "$i" -eq 6 ] && opts="$opts backend compiled"
  echo "job s$i rtl $PWD/models/fig1.rtl $opts" >> "$share_dir/shared.fleet"
  echo "job s$i rtl copy$i.rtl $opts" >> "$share_dir/copies.fleet"
done
# An array element's override, in a group of its own. With A = B no
# guard lets a transfer write H[1], so h3's override is its result.
for i in 1 2 3; do
  cp models/guarded.rtl "$share_dir/guarded$i.rtl"
  opts="init H[1]=$((5 * i))"
  [ "$i" -eq 3 ] && opts="init A=4 init B=4 $opts"
  echo "job h$i rtl $PWD/models/guarded.rtl $opts" >> "$share_dir/shared.fleet"
  echo "job h$i rtl guarded$i.rtl $opts" >> "$share_dir/copies.fleet"
done
# The budgeted job is quarantined (exit 1) on every engine and layout.
for backend in interpreted compiled; do
  shared_status=0 copies_status=0
  shared_json="$(./target/release/clockless fleet "$share_dir/shared.fleet" --jobs 2 --json --backend "$backend")" || shared_status=$?
  copies_json="$(./target/release/clockless fleet "$share_dir/copies.fleet" --jobs 2 --json --backend "$backend")" || copies_status=$?
  [ "$shared_status" -eq 1 ] && [ "$copies_status" -eq 1 ]
  [ "$shared_json" = "$copies_json" ]
  grep -q '"cs_max": 9' <<<"$shared_json"
  grep -q '"name": "s4", "status": "delta-budget-exceeded"' <<<"$shared_json"
  grep -q '{"name": "H\[1\]", "value": "15"}' <<<"$shared_json"
done
# Per-job backends (no batch-wide flag): the same report again.
default_status=0
default_json="$(./target/release/clockless fleet "$share_dir/shared.fleet" --jobs 2 --json)" || default_status=$?
[ "$default_status" -eq 1 ]
[ "$default_json" = "$copies_json" ]
rm -rf "$share_dir"

echo "== compiled admission (a run longer than the delta limit fails before its per-step tables exist)"
big_dir="$(mktemp -d)"
printf 'model big steps 4000000000\nregister A init 1\n' > "$big_dir/big.rtl"
big_status=0
big_out="$( (ulimit -v 4000000; ./target/release/clockless run "$big_dir/big.rtl" --backend compiled) 2>&1)" || big_status=$?
[ "$big_status" -eq 1 ]
grep -q "delta-cycle limit 100000000 exhausted" <<<"$big_out"
# The checked run compiles through its own branch.
printf '{"invariants": {"model": "big", "signals": 1, "rules": 1}, "signals": [{"name": "A", "kind": "register"}], "rules": [{"kind": "range", "signal": "A", "min": 1, "max": 1}]}\n' > "$big_dir/inv.json"
big_status=0
big_out="$( (ulimit -v 4000000; ./target/release/clockless run "$big_dir/big.rtl" --backend compiled --check "$big_dir/inv.json") 2>&1)" || big_status=$?
[ "$big_status" -eq 1 ]
grep -q "delta-cycle limit 100000000 exhausted" <<<"$big_out"
rm -rf "$big_dir"
# The daemon's plan cache lowers and checks the limit before it compiles:
# both requests fail with an error envelope, and the daemon still answers.
big_model='model big steps 4000000000\nregister A init 1\n'
big_status=0
big_out="$( (ulimit -v 4000000; printf '%s\n' \
  "{\"id\":1,\"op\":\"run\",\"model\":\"$big_model\",\"backend\":\"compiled\"}" \
  "{\"id\":2,\"op\":\"faults\",\"model\":\"$big_model\"}" \
  '{"id":3,"op":"ping"}' | ./target/release/clockless serve) 2>&1)" || big_status=$?
[ "$big_status" -eq 0 ]
[ "$(grep -c '"ok":false,"error":{"code":"build-failed","message":"delta-cycle limit 100000000 exhausted' <<<"$big_out")" -eq 2 ]
grep -q '"id":3,"op":"ping","ok":true,"payload":"pong\\n"' <<<"$big_out"
# A batched campaign's golden run is a compiled walk: it reports the
# kernel's error text at once, before anything grows with the steps.
big_dir="$(mktemp -d)"
printf 'model big steps 4000000000\nregister A init 1\n' > "$big_dir/big.rtl"
big_status=0
big_out="$( (ulimit -v 4000000; timeout 5 ./target/release/clockless faults "$big_dir/big.rtl") 2>&1)" || big_status=$?
[ "$big_status" -eq 1 ]
grep -q "golden run failed: delta-cycle limit 100000000 exhausted" <<<"$big_out"
rm -rf "$big_dir"

echo "== kernel admission (an interpreted run longer than the delta limit fails before it starts)"
big_dir="$(mktemp -d)"
printf 'model big steps 4000000000\nregister A init 1\n' > "$big_dir/big.rtl"
printf 'job b rtl big.rtl\njob c rtl big.rtl init A=2\n' > "$big_dir/big.fleet"
for cmd in "run $big_dir/big.rtl" "run $big_dir/big.rtl --trace" "check $big_dir/big.rtl" "fleet $big_dir/big.fleet --jobs 1"; do
  big_status=0
  # shellcheck disable=SC2086 # the command line splits into its words
  big_out="$( (ulimit -v 4000000; timeout 5 ./target/release/clockless $cmd) 2>&1)" || big_status=$?
  [ "$big_status" -eq 1 ]
  grep -q "delta-cycle limit 100000000 exhausted" <<<"$big_out"
done
[ "$(grep -c "quarantined: [bc] (run-failed): delta-cycle limit 100000000 exhausted" <<<"$big_out")" -eq 2 ]
# The daemon's fleet op quarantines both jobs and still answers.
big_status=0
big_out="$( (ulimit -v 4000000; printf '%s\n' \
  "{\"id\":1,\"op\":\"fleet\",\"path\":\"$big_dir/big.fleet\"}" \
  '{"id":2,"op":"ping"}' | timeout 5 ./target/release/clockless serve) 2>&1)" || big_status=$?
[ "$big_status" -eq 0 ]
[ "$(grep -o 'delta-cycle limit 100000000 exhausted' <<<"$big_out" | wc -l)" -eq 2 ]
grep -q '"id":2,"op":"ping","ok":true,"payload":"pong\\n"' <<<"$big_out"
rm -rf "$big_dir"

echo "== checker admission (checker tables and clocked routes grow with activity, not steps)"
huge_dir="$(mktemp -d)"
# 20 registers, no transfer: 12,000,001 deltas in which nothing changes.
{
  printf 'model huge steps 2000000\n'
  for i in $(seq 0 19); do printf 'register R%d init %d\n' "$i" "$i"; done
} > "$huge_dir/huge.rtl"
sed 's/steps 2000000/steps 2000/' "$huge_dir/huge.rtl" > "$huge_dir/short.rtl"
./target/release/clockless mine "$huge_dir/short.rtl" > "$huge_dir/short.json"
(ulimit -v 200000; ./target/release/clockless mine "$huge_dir/huge.rtl") > "$huge_dir/huge.json"
cmp "$huge_dir/short.json" "$huge_dir/huge.json"
# What is left in a batched campaign is the step-indexed compiled stream.
for checkers in golden invariants all; do
  huge_out="$( (ulimit -v 2000000; ./target/release/clockless faults "$huge_dir/huge.rtl" --checkers "$checkers") 2>&1)"
  grep -q "checkers $checkers): 40 faults, 40 detected" <<<"$huge_out"
done
# The daemon answers a checked campaign of the same model, then a ping.
huge_model="$(awk '{printf "%s\\n", $0}' "$huge_dir/huge.rtl")"
huge_status=0
huge_out="$( (ulimit -v 2000000; printf '%s\n' \
  "{\"id\":1,\"op\":\"faults\",\"model\":\"$huge_model\",\"checkers\":\"all\"}" \
  '{"id":2,"op":"ping"}' | timeout 60 ./target/release/clockless serve) 2>&1)" || huge_status=$?
[ "$huge_status" -eq 0 ]
grep -q '"id":1,"op":"faults","ok":true,"payload":"{\\n  \\"campaign\\": {\\"model\\": \\"huge\\"' <<<"$huge_out"
grep -q '"id":2,"op":"ping","ok":true,"payload":"pong\\n"' <<<"$huge_out"
# Clocked routing tables hold occupied steps only: the big model's
# VHDL has none, and its translation fails in its equivalence run.
printf 'model big steps 4000000000\nregister A init 1\n' > "$huge_dir/big.rtl"
big_out="$( (ulimit -v 4000000; timeout 5 ./target/release/clockless vhdl "$huge_dir/big.rtl" --clocked) 2>&1)"
grep -q "4000000000 steps, 0 control signals" <<<"$big_out"
big_status=0
big_out="$( (ulimit -v 4000000; timeout 5 ./target/release/clockless translate "$huge_dir/big.rtl") 2>&1)" || big_status=$?
[ "$big_status" -eq 1 ]
grep -q "delta-cycle limit 100000000 exhausted" <<<"$big_out"
sed 's/steps 7/steps 10000000/' models/fig1.rtl > "$huge_dir/long.rtl"
(ulimit -v 30720; ./target/release/clockless vhdl "$huge_dir/long.rtl" --clocked) > "$huge_dir/long.vhd"
grep -q "10000000 steps, 7 control signals" "$huge_dir/long.vhd"
# A reader that closes the pipe early ends the command quietly.
./target/release/clockless faults models/iks_ik.rtl 2>"$huge_dir/pipe.err" | true
[ "${PIPESTATUS[0]}" -eq 0 ]
[ ! -s "$huge_dir/pipe.err" ]
rm -rf "$huge_dir"

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
# The batched engine records its checker table from a compiled walk at
# the requested level; the legacy engine records it on the kernel.
for model in models/*.rtl; do
  for checkers in golden invariants all; do
    for lvl in 0 1; do
      level_batched="$(./target/release/clockless faults "$model" --json --checkers "$checkers" --opt "$lvl")"
      level_legacy="$(./target/release/clockless faults "$model" --json --checkers "$checkers" --opt "$lvl" --engine legacy)"
      [ "$level_batched" = "$level_legacy" ]
    done
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
# A client whose reader stops early (`| head -c 100`) exits 0, and the
# daemon answers the next session.
serve_runs="$(dirname "$serve_sock")/runs.ndjson"
for id in $(seq 1 200); do
  echo "{\"id\":$id,\"op\":\"run\",\"path\":\"models/fig1.rtl\"}"
done >"$serve_runs"
./target/release/clockless client "$serve_sock" <"$serve_runs" | head -c 100 >/dev/null \
  || { echo "client exited ${PIPESTATUS[0]} on a closed stdout"; exit 1; }
echo '{"id":3,"op":"shutdown"}' | ./target/release/clockless client "$serve_sock" >/dev/null
wait "$serve_pid"
[ ! -e "$serve_sock" ]
rm -rf "$(dirname "$serve_sock")"

echo "CI OK"
