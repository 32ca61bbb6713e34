#!/usr/bin/env bash
# End-to-end check of the obs v4 profiling surface on `tlacheck profile`:
#
#   1. the human profile render carries the top-N span table (--top) with
#      the self/total/count columns and the per-domain memory-accounting
#      section (tracked_peak_bytes, bytes_per_state), and `profile compose`
#      on specs/ag_queue prints a waste_ratio of at most 1; the counters
#      table's composite_filter_checks row reads 0 for a plain `check` and
#      more than 0 for that composition; its trace records one product
#      exploration (ConstraintExplorer.explore) under fig9:2.1, which checks
#      H1's targets and H2a as it runs, and no walk of a built product;
#   2. --format folded emits the collapsed-stack format flamegraph.pl
#      consumes ("name[;name...] <count>" per line, nothing else), both
#      with a live sampler (--sample-hz) and from recorded spans alone;
#   3. --format trace carries the memory gauges as Chrome trace_event
#      "ph":"C" counter series (mem_<domain>, mem_tracked);
#   4. the wrapped subcommand's exit code is forwarded, and bad --top /
#      --sample-hz values are usage errors (exit 2);
#   5. in --obs-off mode (binary built with -DOPENTLA_OBS=OFF), profile
#      still runs (empty profile, exit 0) but --sample-hz is rejected
#      with exit 2 and a message naming OPENTLA_OBS=ON — steps 1-3 are
#      replaced by this probe.
#
# Usage: tools/check_profile_cli.sh <tlacheck-binary> [--obs-off]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
tlacheck="${1:?usage: check_profile_cli.sh <tlacheck-binary> [--obs-off]}"
obs_off=0
[ "${2:-}" = "--obs-off" ] && obs_off=1
specs="${repo_root}/specs"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "check_profile_cli: FAIL: $*" >&2
  exit 1
}

# --- 4 (shared). Bad option values are usage errors in every build. ---

rc=0
"$tlacheck" profile states "$specs/counter.tla" --top 0 > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "--top 0: expected exit 2, got $rc"
rc=0
"$tlacheck" profile states "$specs/counter.tla" --sample-hz 0 > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "--sample-hz 0: expected exit 2, got $rc"
echo "ok: non-positive --top / --sample-hz rejected as usage errors"

# --- 5 (--obs-off). The OFF binary rejects the sampler, keeps profile. ---

if [ "$obs_off" -eq 1 ]; then
  rc=0
  "$tlacheck" profile states "$specs/counter.tla" --sample-hz 100 \
    > /dev/null 2> "$workdir/off.stderr" || rc=$?
  [ "$rc" -eq 2 ] || fail "OFF build: --sample-hz expected exit 2, got $rc"
  grep -q "OPENTLA_OBS=ON" "$workdir/off.stderr" \
    || fail "OFF build: rejection message does not name OPENTLA_OBS=ON"
  # Without the sampler, profile still wraps the subcommand (empty render).
  "$tlacheck" profile states "$specs/counter.tla" --format folded \
    --out "$workdir/off.folded" > /dev/null \
    || fail "OFF build: plain profile run failed with $?"
  echo "ok: OPENTLA_OBS=OFF binary rejects --sample-hz cleanly (exit 2)"
  echo "check_profile_cli: all checks passed (--obs-off mode)"
  exit 0
fi

# --- 1. Human render: top-N table + memory-accounting section. ---

out="$("$tlacheck" profile check "$specs/peterson.tla" \
        --invariant '~(pc1 = 3 /\ pc2 = 3)' --top 3)" \
  || fail "profile check on peterson.tla failed with $?"
grep -q "profile (top" <<<"$out" || fail "human render lacks the top-N table header"
grep -q "self ms" <<<"$out" || fail "top-N table lacks the self-time column"
grep -q "total ms" <<<"$out" || fail "top-N table lacks the total-time column"
grep -q "StateGraph.explore" <<<"$out" || fail "top-N table lacks StateGraph.explore"
grep -q "memory (tracked bytes by domain):" <<<"$out" \
  || fail "human render lacks the memory-accounting section"
grep -q "state_store" <<<"$out" || fail "memory section lacks the state_store domain"
grep -q "tracked_peak_bytes" <<<"$out" || fail "memory section lacks tracked_peak_bytes"
grep -q "bytes_per_state" <<<"$out" || fail "memory section lacks bytes_per_state"
echo "ok: human render has the top-N span table and memory section"

# The composite filter's [N_j]_{v_j} checks: their row of the counters table.
filter_checks() {
  sed -n 's/^    composite_filter_checks  *\([0-9]*\)$/\1/p' <<<"$1"
}
checks="$(filter_checks "$out")"
[ "$checks" = "0" ] || fail "profile check on peterson.tla: composite_filter_checks '$checks', want 0"

# The waste ratio (candidates_generated over candidates_kept, both counted
# where the step generator's candidates are kept or dropped) is printed,
# so nobody divides the two by hand. It is at least 1; on the ag_queue
# composition with G every component's steps are generated alone, so no
# candidate is generated only to be filtered away: at most 1.
ag="$specs/ag_queue"
out="$("$tlacheck" profile compose --constraint "$ag/g.tla" \
        --component "$ag/qe1.tla,$ag/qm1.tla" --component "$ag/qe2.tla,$ag/qm2.tla" \
        --goal "$ag/qedbl.tla,$ag/qmdbl.tla" \
        --witness 'q=q2 \o (IF z.sig # z.ack THEN <<z.val>> ELSE <<>>) \o q1')" \
  || fail "profile compose on ag_queue failed with $?"
ratio="$(sed -n 's/^  waste_ratio \([0-9.]*\) (candidates_generated [0-9]* \/ candidates_kept [0-9]*)$/\1/p' <<<"$out")"
[ -n "$ratio" ] || fail "profile compose lacks the waste_ratio line"
python3 -c "import sys; sys.exit(0 if 0 < float('$ratio') <= 1.0 else 1)" \
  || fail "ag_queue compose waste_ratio $ratio is not in (0, 1]"
echo "ok: profile compose prints waste_ratio $ratio"
checks="$(filter_checks "$out")"
[ -n "$checks" ] && [ "$checks" -gt 0 ] \
  || fail "profile compose on ag_queue: composite_filter_checks '$checks', want > 0"
echo "ok: composite_filter_checks reads 0 for check, $checks for compose"

# One exploration of H1's product checks every target on it as it runs
# (formula (4): H1[QE1], H1[QE2] and H2a by Propositions 3/4): one
# exploration span, inside fig9:2.1 and outside every per-obligation span,
# and no walk of a built product.
"$tlacheck" profile compose --constraint "$ag/g.tla" \
  --component "$ag/qe1.tla,$ag/qm1.tla" --component "$ag/qe2.tla,$ag/qm2.tla" \
  --goal "$ag/qedbl.tla,$ag/qmdbl.tla" \
  --witness 'q=q2 \o (IF z.sig # z.ack THEN <<z.val>> ELSE <<>>) \o q1' \
  --format trace --out "$workdir/compose.json" > /dev/null \
  || fail "profile compose --format trace on ag_queue failed with $?"
python3 - "$workdir/compose.json" <<'PY' || fail "profile compose: the product is not one exploration under fig9:2.1"
import json, sys
spans = [e for e in json.load(open(sys.argv[1]))["traceEvents"] if e.get("ph") == "X"]
def named(name):
    return [e for e in spans if e["name"] == name]
def inside(inner, outer):
    return outer["ts"] <= inner["ts"] and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
explorations = named("ConstraintExplorer.explore")
assert len(explorations) == 1, f"{len(explorations)} product explorations, want 1"
h1 = named("fig9:2.1")
assert len(h1) == 1 and inside(explorations[0], h1[0]), "the exploration is not inside fig9:2.1"
steps = [e for e in spans if e["name"].startswith("fig9:2.1.") or e["name"] == "fig9:2.2"]
assert len(steps) == 4, [e["name"] for e in steps]
assert not any(inside(explorations[0], e) for e in steps), \
    "the exploration sits in one obligation's span"
walks = [e["name"] for e in spans
         if e["name"] in ("ConstraintExplorer.target_walk", "ConstraintExplorer.check_target")]
assert not walks, f"a walk of the built product remains: {walks}"
PY
echo "ok: profile compose records one product exploration under fig9:2.1"

# --- 2. Folded format: flamegraph.pl's collapsed-stack contract. ---

check_folded() {
  local folded="$1" label="$2"
  [ -s "$folded" ] || fail "$label: wrote no folded output"
  # Every line is "frame[;frame...] <count>" — flamegraph.pl's entire input
  # grammar. Anything else (headers, blank lines) would break rendering.
  grep -vqE '^[^ ;][^ ]*( [0-9]+)$' "$folded" \
    && fail "$label: non-collapsed line: $(grep -vE '^[^ ;][^ ]*( [0-9]+)$' "$folded" | head -1)"
  grep -q "StateGraph.explore" "$folded" \
    || fail "$label: folded stacks lack StateGraph.explore"
}

"$tlacheck" profile states "$specs/peterson.tla" --format folded \
  --sample-hz 500 --out "$workdir/sampled.folded" > /dev/null \
  || fail "folded run with --sample-hz failed with $?"
check_folded "$workdir/sampled.folded" "--sample-hz 500"

"$tlacheck" profile states "$specs/peterson.tla" --format folded \
  --out "$workdir/spans.folded" > /dev/null \
  || fail "folded run without sampler failed with $?"
check_folded "$workdir/spans.folded" "span-derived"
echo "ok: folded output is pure collapsed-stack format (sampled and span-derived)"

# --- 3. Trace format: memory gauges ride along as counter events. ---

"$tlacheck" profile states "$specs/counter.tla" --format trace \
  --out "$workdir/trace.json" > /dev/null \
  || fail "trace run failed with $?"
python3 - "$workdir/trace.json" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
counters = {e["name"] for e in data["traceEvents"] if e.get("ph") == "C"}
for want in ("mem_tracked", "mem_state_store", "mem_parser"):
    assert want in counters, f"missing counter series {want!r} (have {sorted(counters)})"
mem = [e for e in data["traceEvents"]
       if e.get("ph") == "C" and e["name"].startswith("mem_")]
for e in mem:
    if e["name"] == "mem_tracked":
        assert set(e["args"]) == {"peak_bytes", "bytes_per_state"}, e
        assert e["args"]["peak_bytes"] >= 0 and e["args"]["bytes_per_state"] >= 0, e
    else:
        assert set(e["args"]) == {"live_bytes", "peak_bytes"}, e
        assert e["args"]["peak_bytes"] >= e["args"]["live_bytes"] >= 0, e
PY
echo "ok: trace output carries mem_* counter events with live/peak args"

# --- 4. Exit-code forwarding with the profile renders active. ---

rc=0
"$tlacheck" profile check "$specs/counter.tla" --invariant 'x < 4' \
  --format folded --out "$workdir/violated.folded" > /dev/null || rc=$?
[ "$rc" -eq 1 ] || fail "violated invariant under profile: expected exit 1, got $rc"
[ -s "$workdir/violated.folded" ] || fail "folded output missing after violation exit"
echo "ok: wrapped exit code forwarded, folded output still written"

echo "check_profile_cli: all checks passed"
