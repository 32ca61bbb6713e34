#!/usr/bin/env bash
# End-to-end check of the run-budget CLI contract (ISSUE: obs v3):
#
#   1. a state-budget breach exits 3 with `stop_reason: "state_budget"`,
#      and serial/parallel runs (threads 1, 2, 4) report the SAME state
#      count at the same bound — the unified max_states semantics;
#   2. a deadline breach on the fig9 composition exits 3, prints a partial
#      obligation report with `stop_reason: "deadline"`, and (obs-on) the
#      --flight-recorder dump is schema-valid against
#      tools/flight_schema.json;
#   3. a violation found before any breach still exits 1: counterexamples
#      on partial graphs are real; a `refine` whose refinement check (not
#      its graph build) the deadline stops exits 3 and never reports a
#      refinement;
#   4. (obs-on) SIGTERM during a recorded run ends in exit 3 with
#      `stop_reason: "interrupted"` and a written dump;
#   5. (obs-on) --run-ledger appends one line per run, schema-valid
#      against tools/ledger_schema.json, with the breach's stop reason.
#
# Budget flags themselves (--deadline-ms/--rss-limit-mb/--max-states) must
# work in OPENTLA_OBS=OFF builds; in --obs-off mode the recorder/ledger
# probes are replaced by "rejected with exit 2" assertions.
#
# Usage: tools/check_budget_cli.sh <tlacheck-binary> [--obs-off]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
tlacheck="$(readlink -f "${1:?usage: check_budget_cli.sh <tlacheck-binary> [--obs-off]}")"
obs_off=0
[ "${2:-}" = "--obs-off" ] && obs_off=1
specs="${repo_root}/specs"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

fail() {
  echo "check_budget_cli: FAIL: $*" >&2
  exit 1
}

fig9=(compose
  --constraint "$specs/ag_queue/g.tla"
  --component "$specs/ag_queue/qe1.tla,$specs/ag_queue/qm1.tla"
  --component "$specs/ag_queue/qe2.tla,$specs/ag_queue/qm2.tla"
  --goal "$specs/ag_queue/qedbl.tla,$specs/ag_queue/qmdbl.tla"
  --witness 'q=q2 \o (IF z.sig # z.ack THEN <<z.val>> ELSE <<>>) \o q1')

# --- 1. State budget: exit 3, stop_reason, serial/parallel count parity. ---

counts=""
for t in 1 2 4; do
  rc=0
  out="$("$tlacheck" states "$specs/peterson.tla" --max-states 10 --threads "$t")" || rc=$?
  [ "$rc" -eq 3 ] || fail "states --max-states 10 --threads $t: expected exit 3, got $rc"
  grep -q 'stop_reason: "state_budget"' <<<"$out" \
    || fail "threads $t: missing stop_reason state_budget in: $out"
  n="$(sed -n 's/^\([0-9]*\) states.*/\1/p' <<<"$out")"
  [ "$n" = "10" ] || fail "threads $t: expected 10 states at the budget, got '$n'"
  counts="$counts $n"
done
echo "ok: state budget stops at the same count across threads:$counts"

# A generous budget must not trigger (exit 0, no stop_reason line).
rc=0
out="$("$tlacheck" states "$specs/peterson.tla" --max-states 100000)" || rc=$?
[ "$rc" -eq 0 ] || fail "generous --max-states: expected exit 0, got $rc"
grep -q 'stop_reason' <<<"$out" && fail "generous --max-states printed a stop_reason"
echo "ok: generous budget does not trigger"

# JSON output carries the stop_reason field only on a breach.
rc=0
"$tlacheck" states "$specs/peterson.tla" --max-states 10 --format json \
  > states.json || rc=$?
[ "$rc" -eq 3 ] || fail "states --format json at budget: expected exit 3, got $rc"
python3 - states.json <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
assert data["states"] == 10, data
assert data["stop_reason"] == "state_budget", data
PY
echo "ok: JSON partial result carries stop_reason"

# --- 2. Deadline breach on fig9: partial proof report, exit 3. ---

flight_args=()
if [ "$obs_off" -eq 0 ]; then
  flight_args=(--flight-recorder --flight-out flight.jsonl)
fi
rc=0
out="$("$tlacheck" "${fig9[@]}" --deadline-ms 1 "${flight_args[@]}" 2>stderr.txt)" || rc=$?
[ "$rc" -eq 3 ] || fail "fig9 --deadline-ms 1: expected exit 3, got $rc (stderr: $(cat stderr.txt))"
grep -q 'stop_reason: "deadline"' <<<"$out" \
  || fail "fig9 deadline run lacks stop_reason deadline: $out"
grep -q 'NOT PROVED (run budget stopped the proof)' <<<"$out" \
  || fail "fig9 deadline run lacks the partial-proof trailer: $out"
grep -q '\[?budget\]' <<<"$out" \
  || fail "fig9 deadline run marks no obligation inconclusive: $out"
echo "ok: fig9 deadline breach yields a partial proof report with exit 3"

if [ "$obs_off" -eq 0 ]; then
  [ -s flight.jsonl ] || fail "deadline breach wrote no flight-recorder dump"
  python3 - "$repo_root/tools/flight_schema.json" flight.jsonl <<'PY'
import json, sys
schema = json.load(open(sys.argv[1]))
event_shape, dump_shape = schema["oneOf"]
kinds = set(event_shape["properties"]["type"]["enum"])
lines = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
assert lines, "empty dump"
assert lines[-1]["type"] == "dump", lines[-1]
dump = lines[-1]
for key in dump_shape["required"]:
    assert key in dump, f"dump line missing {key}"
assert dump["reason"] == "budget_stop", dump
assert dump["written"] == len(lines) - 1, (dump, len(lines))
seqs = []
for ev in lines[:-1]:
    for key in event_shape["required"]:
        assert key in ev, f"event missing {key}: {ev}"
    assert ev["type"] in kinds, ev
    assert set(ev) <= set(event_shape["properties"]), ev
    seqs.append(ev["seq"])
assert seqs == sorted(seqs), "dump is not oldest-first"
assert any(ev["type"] == "budget" and ev["label"] == "deadline" for ev in lines[:-1]), \
    "no budget event with label deadline in the dump"
print(f"flight.jsonl: ok ({len(lines) - 1} events)")
PY
  echo "ok: flight-recorder dump is schema-valid"
fi

# --- 2b. A refine stopped inside the refinement check is inconclusive. ---
# The 1000-state low graph builds in milliseconds; each of the high
# module's steps evaluates a 301 x 301 quantifier, so the full check runs
# for seconds and the deadline lands inside check_refinement, after the
# build: the partial result names the complete graph.

cat > ticker.tla <<'EOF'
MODULE Ticker
VARIABLE x \in 0..999
INIT x = 0
NEXT x' = IF x = 999 THEN 0 ELSE x + 1
SUBSCRIPT <<x>>
EOF
cat > slow_ticker.tla <<'EOF'
MODULE SlowTicker
VARIABLE x \in 0..999
INIT x = 0
NEXT (x' = IF x = 999 THEN 0 ELSE x + 1) /\ \A a \in 0..300 : \A b \in 0..300 : a + b >= 0
SUBSCRIPT <<x>>
EOF
rc=0
out="$("$tlacheck" refine ticker.tla slow_ticker.tla --deadline-ms 300)" || rc=$?
[ "$rc" -eq 3 ] || fail "refine --deadline-ms 300: expected exit 3, got $rc: $out"
grep -q 'stop_reason: "deadline"' <<<"$out" || fail "refine under budget lacks stop_reason: $out"
grep -q 'after 1000 states' <<<"$out" || fail "refine stopped before its low graph was built: $out"
grep -q ' refines ' <<<"$out" && fail "budget-stopped refine claimed a refinement: $out"
echo "ok: a refinement check stopped by the budget is inconclusive (exit 3)"

# --- 3. A violation beats the budget: exit 1, not 3. ---

rc=0
"$tlacheck" check "$specs/counter.tla" --invariant 'x < 4' --deadline-ms 60000 \
  >/dev/null || rc=$?
[ "$rc" -eq 1 ] || fail "violation under an unbreached budget: expected exit 1, got $rc"
echo "ok: definite violations keep exit 1 under a budget"

if [ "$obs_off" -eq 1 ]; then
  # --- obs-off: live-obs flags rejected with exit 2, budgets still work. ---
  for flag in "--flight-recorder" "--serve-metrics 0" "--run-ledger ledger.jsonl"; do
    rc=0
    # shellcheck disable=SC2086
    "$tlacheck" states "$specs/counter.tla" $flag >/dev/null 2>err.txt || rc=$?
    [ "$rc" -eq 2 ] || fail "obs-off: '$flag' expected exit 2, got $rc"
    grep -q "OPENTLA_OBS=ON" err.txt || fail "obs-off: '$flag' error lacks the hint"
  done
  [ ! -e flight_recorder.jsonl ] || fail "obs-off run created flight_recorder.jsonl"
  [ ! -e ledger.jsonl ] || fail "obs-off run created ledger.jsonl"
  echo "ok: obs-off build rejects recorder/server/ledger flags with exit 2"
  echo "check_budget_cli: PASS (obs-off)"
  exit 0
fi

# --- 4. SIGTERM: graceful stop, stop_reason interrupted, dump written. ---

rm -f flight.jsonl
"$tlacheck" "${fig9[@]}" --flight-recorder --flight-out flight.jsonl \
  > sigterm_out.txt 2>/dev/null &
pid=$!
# Race-tolerant: if the run finishes before the signal lands, fall back to
# asserting the clean-completion exit instead.
sleep 0.05
kill -TERM "$pid" 2>/dev/null || true
rc=0
wait "$pid" || rc=$?
if [ "$rc" -eq 3 ]; then
  grep -q 'stop_reason: "interrupted"' sigterm_out.txt \
    || fail "SIGTERM run exited 3 without stop_reason interrupted"
  [ -s flight.jsonl ] || fail "SIGTERM run wrote no flight-recorder dump"
  grep -q '"type":"dump"' flight.jsonl || fail "SIGTERM dump lacks the trailer"
  echo "ok: SIGTERM ends in a graceful interrupted stop with a dump"
elif [ "$rc" -eq 0 ]; then
  echo "ok: SIGTERM race lost (run completed first); graceful path covered by exit-3 branch elsewhere"
else
  fail "SIGTERM run: expected exit 3 (or 0 on race), got $rc"
fi

# --- 5. The run ledger: one schema-valid line per run. ---

rm -f ledger.jsonl
rc=0
"$tlacheck" states "$specs/peterson.tla" --max-states 10 --run-ledger ledger.jsonl \
  >/dev/null || rc=$?
[ "$rc" -eq 3 ] || fail "ledger run: expected exit 3, got $rc"
rc=0
"$tlacheck" states "$specs/peterson.tla" --run-ledger ledger.jsonl >/dev/null || rc=$?
[ "$rc" -eq 0 ] || fail "second ledger run: expected exit 0, got $rc"
python3 - "$repo_root/tools/ledger_schema.json" ledger.jsonl <<'PY'
import json, re, sys
schema = json.load(open(sys.argv[1]))
lines = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
assert len(lines) == 2, f"expected 2 ledger lines, got {len(lines)}"
for rec in lines:
    for key in schema["required"]:
        assert key in rec, f"ledger line missing {key}: {rec}"
    assert set(rec) <= set(schema["properties"]), rec
    assert rec["schema"] == "opentla-run-ledger-v2", rec
    assert re.fullmatch(r"[0-9a-f]{16}", rec["spec_hash"]), rec
    assert rec["stop_reason"] in schema["properties"]["stop_reason"]["enum"], rec
breached, clean = lines
assert breached["stop_reason"] == "state_budget" and breached["exit_code"] == 3, breached
assert clean["stop_reason"] == "completed" and clean["exit_code"] == 0, clean
assert breached["spec_hash"] == clean["spec_hash"], "same spec must hash identically"
print("ledger.jsonl: ok (2 lines)")
PY
echo "ok: run ledger lines are schema-valid and carry the stop reason"

echo "check_budget_cli: PASS"
