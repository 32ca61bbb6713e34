#!/usr/bin/env bash
# Append one benchmark run to the longitudinal history file.
#
#   tools/bench_history.sh <BENCH_name.json> [history.jsonl]
#     (default history file: <repo>/bench/history.jsonl)
#
# Each call appends one JSONL line {ts, bench, wall_time_s, counters,
# gauges, tracked_peak_bytes, bytes_per_state} built from a bench
# binary's BENCH_<name>.json counter export (tools/bench_schema.json)
# plus the adjacent <name>.gbench.json google-benchmark report when one
# exists (wall_time_s = the summed real_time of its benchmarks; null
# otherwise). The line is written with a single O_APPEND write, so a
# killed run tears at most its own line.
#
# It then compares wall_time_s and bytes_per_state against the PREVIOUS
# entry for the same bench name and prints a warning to stderr when the
# run regressed by more than 20% on either. The warning never fails the
# script (exit 0): history is an observatory, not a gate — CI surfaces
# the message, a human decides.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
bench_json="${1:?usage: bench_history.sh <BENCH_name.json> [history.jsonl]}"
history="${2:-${repo_root}/bench/history.jsonl}"

[ -f "$bench_json" ] || { echo "bench_history: no such file: $bench_json" >&2; exit 1; }
mkdir -p "$(dirname "$history")"

python3 - "$bench_json" "$history" <<'PY'
import json, os, sys, time

bench_path, history_path = sys.argv[1], sys.argv[2]
data = json.load(open(bench_path))
name = data["bench"]

# Wall time: the google-benchmark JSON report written alongside the
# counter export by tools/ci_bench.sh (--benchmark_out). Optional.
gbench_path = os.path.join(os.path.dirname(os.path.abspath(bench_path)),
                           f"{name}.gbench.json")
wall = None
if os.path.exists(gbench_path):
    report = json.load(open(gbench_path))
    times = [b["real_time"] * {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
             [b.get("time_unit", "ns")]
             for b in report.get("benchmarks", [])
             if b.get("run_type", "iteration") == "iteration"]
    if times:
        wall = sum(times)

memory = data.get("memory", {})
entry = {
    "ts": int(time.time()),
    "bench": name,
    "wall_time_s": wall,
    "counters": data.get("counters", {}),
    "gauges": data.get("gauges", {}),
    "tracked_peak_bytes": memory.get("tracked_peak_bytes", 0),
    "bytes_per_state": memory.get("bytes_per_state", 0),
}

# Previous entry for the same bench, for the regression comparison.
prev = None
if os.path.exists(history_path):
    with open(history_path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn line from a killed run; skip, never fail
            if rec.get("bench") == name:
                prev = rec

line = json.dumps(entry, sort_keys=True)
fd = os.open(history_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
try:
    os.write(fd, (line + "\n").encode())
finally:
    os.close(fd)

warned = False
if (prev is not None and prev.get("wall_time_s") and wall
        and wall > prev["wall_time_s"] * 1.20):
    pct = 100.0 * (wall / prev["wall_time_s"] - 1.0)
    print(f"bench_history: WARNING: {name} wall time regressed "
          f"{pct:.1f}% ({prev['wall_time_s']:.3f}s -> {wall:.3f}s)",
          file=sys.stderr)
    warned = True
bps = entry["bytes_per_state"]
prev_bps = prev.get("bytes_per_state", 0) if prev is not None else 0
if prev_bps and bps and bps > prev_bps * 1.20:
    pct = 100.0 * (bps / prev_bps - 1.0)
    print(f"bench_history: WARNING: {name} bytes_per_state regressed "
          f"{pct:.1f}% ({prev_bps} -> {bps})", file=sys.stderr)
    warned = True
if not warned:
    print(f"bench_history: appended {name} "
          f"(wall={'%.3fs' % wall if wall else 'n/a'}, "
          f"bytes_per_state={bps}) to {history_path}")
PY
