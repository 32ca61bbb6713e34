#!/usr/bin/env bash
# End-to-end check of the run-budget CLI contract:
#
#   1. a state-budget breach exits 3 with `stop_reason: "state_budget"`,
#      and serial/parallel runs (threads 1, 2, 4) report the SAME state
#      count at the same bound — the unified max_states semantics;
#   2. a deadline breach on the fig9 composition exits 3 and prints a
#      partial obligation report with `stop_reason: "deadline"`; a
#      `refine` whose refinement check (not its graph build) the deadline
#      stops exits 3 and never reports a refinement;
#   3. a violation found before any breach still exits 1: counterexamples
#      on partial graphs are real;
#   4. SIGTERM in the middle of a budgeted refine ends in a graceful stop:
#      exit 3 with `stop_reason: "interrupted"` and no refinement claimed.
#
# Budget flags (--deadline-ms/--rss-limit-mb/--max-states) are a
# correctness feature, so every case runs the same in OPENTLA_OBS=OFF
# builds.
#
# Usage: tools/check_budget_cli.sh <tlacheck-binary>
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
tlacheck="$(readlink -f "${1:?usage: check_budget_cli.sh <tlacheck-binary>}")"
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

rc=0
out="$("$tlacheck" "${fig9[@]}" --deadline-ms 1 2>stderr.txt)" || rc=$?
[ "$rc" -eq 3 ] || fail "fig9 --deadline-ms 1: expected exit 3, got $rc (stderr: $(cat stderr.txt))"
grep -q 'stop_reason: "deadline"' <<<"$out" \
  || fail "fig9 deadline run lacks stop_reason deadline: $out"
grep -q 'NOT PROVED (run budget stopped the proof)' <<<"$out" \
  || fail "fig9 deadline run lacks the partial-proof trailer: $out"
grep -q '\[?budget\]' <<<"$out" \
  || fail "fig9 deadline run marks no obligation inconclusive: $out"
echo "ok: fig9 deadline breach yields a partial proof report with exit 3"

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

# --- 4. SIGTERM mid-check: graceful stop, stop_reason interrupted. ---
# The refine of 2b runs for seconds. --deadline-ms 600000 arms the budget,
# and with it the SIGINT/SIGTERM watch, without ever breaching it, so only
# the signal can end this run early. A binary that leaves SIGTERM at its
# default disposition is killed (exit 143) and fails here.

"$tlacheck" refine ticker.tla slow_ticker.tla --deadline-ms 600000 > sigterm_out.txt &
pid=$!
sleep 0.3
kill -TERM "$pid" || fail "refine finished before SIGTERM was sent: $(cat sigterm_out.txt)"
rc=0
wait "$pid" || rc=$?
[ "$rc" -eq 3 ] || fail "SIGTERM mid-refine: expected exit 3, got $rc: $(cat sigterm_out.txt)"
grep -q 'stop_reason: "interrupted"' sigterm_out.txt \
  || fail "SIGTERM run lacks stop_reason interrupted: $(cat sigterm_out.txt)"
grep -q ' refines ' sigterm_out.txt && fail "interrupted refine claimed a refinement"
echo "ok: SIGTERM mid-refine ends in a graceful interrupted stop (exit 3)"

echo "check_budget_cli: PASS"
