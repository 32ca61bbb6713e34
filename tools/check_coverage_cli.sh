#!/usr/bin/env bash
# End-to-end check of the `tlacheck coverage` subcommand and the live
# observability flags (--progress / --metrics-out):
#
#   1. coverage on a generated spec with a never-enabled action exits 1
#      and names the action (human and JSON formats);
#   2. coverage on a fully-covered bundled spec exits 0;
#   3. a live-obs run emits >=2 heartbeats to stderr, parseable JSON on
#      stdout, and an OpenMetrics exposition terminated by `# EOF`;
#   4. in --obs-off mode (binary built with -DOPENTLA_OBS=OFF), coverage
#      still works (it counts emissions directly, independent of the obs
#      registry), but the live-obs flags are rejected with exit 2, a clear
#      message, and no output files — step 3 is replaced by this probe.
#
# Usage: tools/check_coverage_cli.sh <tlacheck-binary> [--obs-off]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
tlacheck="${1:?usage: check_coverage_cli.sh <tlacheck-binary> [--obs-off]}"
obs_off=0
[ "${2:-}" = "--obs-off" ] && obs_off=1
specs="${repo_root}/specs"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "check_coverage_cli: FAIL: $*" >&2
  exit 1
}

# --- 1. A never-enabled action must be flagged with exit 1 and named. ---

cat > "$workdir/never.tla" <<'EOF'
MODULE Never
VARIABLE x \in 0..2
INIT x = 0
ACTION Step == x < 2 /\ x' = x + 1
ACTION Ghost == x = 9 /\ x' = 0
NEXT Step \/ Ghost
SUBSCRIPT <<x>>
EOF

rc=0
out="$("$tlacheck" coverage "$workdir/never.tla")" || rc=$?
[ "$rc" -eq 1 ] || fail "coverage on never.tla: expected exit 1, got $rc"
grep -q "Ghost" <<<"$out" || fail "coverage human output does not name Ghost"
grep -q "never fired" <<<"$out" || fail "coverage human output lacks 'never fired'"

rc=0
"$tlacheck" coverage "$workdir/never.tla" --format json > "$workdir/never.json" || rc=$?
[ "$rc" -eq 1 ] || fail "coverage --format json on never.tla: expected exit 1, got $rc"
python3 - "$workdir/never.json" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
assert data["never_fired"] == ["Ghost"], data["never_fired"]
ghost = [a for a in data["actions"] if a["name"] == "Ghost"]
assert len(ghost) == 1 and ghost[0]["never_fired"] and ghost[0]["fired"] == 0, ghost
step = [a for a in data["actions"] if a["name"] == "Step"]
assert step and not step[0]["never_fired"] and step[0]["fired"] > 0, step
PY
echo "ok: never-enabled action flagged (exit 1, named in both formats)"

# --- 1b. Guard-based enabled attribution: a guard that holds while the ---
# ---     action still cannot fire must show enabled_states > 0.        ---

cat > "$workdir/stuck.tla" <<'EOF'
MODULE Stuck
VARIABLE x \in 0..2
INIT x = 0
ACTION Step == x < 2 /\ x' = x + 1
ACTION Stuck == x = 0 /\ x' = x + 5
NEXT Step \/ Stuck
SUBSCRIPT <<x>>
EOF

rc=0
"$tlacheck" coverage "$workdir/stuck.tla" --format json > "$workdir/stuck.json" || rc=$?
[ "$rc" -eq 1 ] || fail "coverage on stuck.tla: expected exit 1, got $rc"
python3 - "$workdir/stuck.json" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
stuck = [a for a in data["actions"] if a["name"] == "Stuck"][0]
# The precondition x = 0 holds in a reachable state, so the guard-based
# attribution reports enabled_states > 0 even though the action can never
# fire (x + 5 always leaves the declared domain).
assert stuck["fired"] == 0 and stuck["never_fired"], stuck
assert stuck["enabled_states"] > 0, stuck
PY
echo "ok: guard-enabled-but-never-fired action reports enabled_states > 0"

# --- 2. A fully-covered bundled spec passes. ---

"$tlacheck" coverage "$specs/counter.tla" > /dev/null \
  || fail "coverage on counter.tla: expected exit 0, got $?"
echo "ok: covered spec exits 0"

# --- 4 (--obs-off). The OFF binary rejects live-obs flags cleanly. ---

if [ "$obs_off" -eq 1 ]; then
  off_metrics="$workdir/off_metrics.om"
  rc=0
  "$tlacheck" coverage "$specs/counter.tla" --progress=50 --metrics-out "$off_metrics" \
    > /dev/null 2> "$workdir/off.stderr" || rc=$?
  [ "$rc" -eq 2 ] || fail "OFF build: live-obs flags expected exit 2, got $rc"
  grep -q "OPENTLA_OBS" "$workdir/off.stderr" \
    || fail "OFF build: rejection message does not mention OPENTLA_OBS"
  [ ! -e "$off_metrics" ] || fail "OFF build: created $off_metrics despite rejecting the flags"
  echo "ok: OPENTLA_OBS=OFF binary rejects live-obs flags cleanly (exit 2, no files)"
  echo "check_coverage_cli: all checks passed (--obs-off mode)"
  exit 0
fi

# --- 3. Live-obs round trip: heartbeats + OpenMetrics. ---

metrics="$workdir/metrics.om"
stderr_log="$workdir/progress.stderr"
stdout_json="$workdir/coverage.json"

"$tlacheck" coverage "$specs/ag_queue/qedbl.tla" --format json \
  --progress=50 --metrics-out "$metrics" \
  > "$stdout_json" 2> "$stderr_log" \
  || fail "live-obs coverage run failed with $?"

python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$stdout_json" \
  || fail "stdout is not parseable JSON with --progress active"

beats="$(grep -c '^\[progress\]' "$stderr_log" || true)"
[ "$beats" -ge 2 ] || fail "expected >=2 heartbeats on stderr, saw $beats"

[ -s "$metrics" ] || fail "--metrics-out wrote no content"
tail -n 1 "$metrics" | grep -qx '# EOF' || fail "OpenMetrics file lacks '# EOF' terminator"
grep -q '^opentla_states_generated_total ' "$metrics" \
  || fail "OpenMetrics file lacks opentla_states_generated_total"
grep -q '^opentla_action_fired_total{action="IQEdbl"} ' "$metrics" \
  || fail "OpenMetrics file lacks the labeled action_fired sample for IQEdbl"
grep -q '^opentla_successor_fanout_bucket{le="+Inf"} ' "$metrics" \
  || fail "OpenMetrics file lacks the fanout +Inf bucket"
grep -q '^opentla_waste_ratio [0-9]' "$metrics" \
  || fail "OpenMetrics file lacks opentla_waste_ratio"
echo "ok: live-obs round trip (heartbeats, OpenMetrics)"

echo "check_coverage_cli: all checks passed"
