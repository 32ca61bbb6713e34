#!/usr/bin/env bash
# Smoke-run every bench binary with a tiny min-time and validate the
# BENCH_<name>.json counter export each one writes against the checked-in
# schema (tools/bench_schema.json). Then repeat the run in the sanitized
# configuration so the instrumented hot paths get ASan/UBSan coverage too.
#
# Usage: tools/ci_bench.sh [build-dir [sanitize-build-dir]]
#   (defaults: build, build-sanitize — both are configured+built if needed)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
san_dir="${2:-${repo_root}/build-sanitize}"
schema="${repo_root}/tools/bench_schema.json"

# google-benchmark in this toolchain takes a plain double (seconds).
min_time="--benchmark_min_time=0.01"

validate() {
  # validate <json-file>: structural check against tools/bench_schema.json.
  # Hand-rolled (no jsonschema module dependency); the schema file is the
  # single source of truth for the required key sets.
  python3 - "$schema" "$1" <<'PY'
import json, re, sys

schema_path, data_path = sys.argv[1], sys.argv[2]
schema = json.load(open(schema_path))
data = json.load(open(data_path))

errors = []

def need(cond, msg):
    if not cond:
        errors.append(msg)

need(isinstance(data, dict), "top level is not an object")
for key in schema["required"]:
    need(key in data, f"missing top-level key '{key}'")
need(data.get("schema") == schema["properties"]["schema"]["const"],
     f"schema tag is {data.get('schema')!r}")
need(isinstance(data.get("bench"), str) and data.get("bench"),
     "bench name missing or empty")
def nonneg_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0

for section in ("counters", "gauges", "levels"):
    block = data.get(section)
    need(isinstance(block, dict), f"'{section}' is not an object")
    if not isinstance(block, dict):
        continue
    for key in schema["properties"][section]["required"]:
        need(key in block, f"missing {section} key '{key}'")
    for key, value in block.items():
        need(re.fullmatch(r"[a-z][a-z0-9_]*", key),
             f"{section} key '{key}' is not snake_case")
        need(nonneg_int(value),
             f"{section}['{key}'] = {value!r} is not a non-negative integer")

# labeled: {family: {label: count}}; label values are free-form spec names.
labeled = data.get("labeled")
need(isinstance(labeled, dict), "'labeled' is not an object")
if isinstance(labeled, dict):
    for key in schema["properties"]["labeled"]["required"]:
        need(key in labeled, f"missing labeled family '{key}'")
    for family, counts in labeled.items():
        need(re.fullmatch(r"[a-z][a-z0-9_]*", family),
             f"labeled family '{family}' is not snake_case")
        need(isinstance(counts, dict),
             f"labeled['{family}'] is not an object")
        if isinstance(counts, dict):
            for label, value in counts.items():
                need(nonneg_int(value),
                     f"labeled['{family}']['{label}'] = {value!r} is not a "
                     "non-negative integer")

# histograms: {name: {buckets: [32 ints], sum, count}}.
hist_schema = schema["properties"]["histograms"]
hists = data.get("histograms")
need(isinstance(hists, dict), "'histograms' is not an object")
if isinstance(hists, dict):
    for key in hist_schema["required"]:
        need(key in hists, f"missing histogram '{key}'")
    n_buckets = hist_schema["patternProperties"][
        "^[a-z][a-z0-9_]*$"]["properties"]["buckets"]["minItems"]
    for name, hist in hists.items():
        need(re.fullmatch(r"[a-z][a-z0-9_]*", name),
             f"histogram name '{name}' is not snake_case")
        need(isinstance(hist, dict), f"histograms['{name}'] is not an object")
        if not isinstance(hist, dict):
            continue
        buckets = hist.get("buckets")
        need(isinstance(buckets, list) and len(buckets) == n_buckets
             and all(nonneg_int(b) for b in buckets),
             f"histograms['{name}'].buckets is not a list of "
             f"{n_buckets} non-negative integers")
        need(nonneg_int(hist.get("sum")),
             f"histograms['{name}'].sum is not a non-negative integer")
        need(nonneg_int(hist.get("count")),
             f"histograms['{name}'].count is not a non-negative integer")
        if isinstance(buckets, list) and all(nonneg_int(b) for b in buckets):
            need(sum(buckets) == hist.get("count"),
                 f"histograms['{name}']: bucket total {sum(buckets)} != "
                 f"count {hist.get('count')!r}")
        for key in hist:
            need(key in ("buckets", "sum", "count"),
                 f"histograms['{name}'] has unexpected key '{key}'")

# waste_ratio: a derived, non-negative number.
waste = data.get("waste_ratio")
need(isinstance(waste, (int, float)) and not isinstance(waste, bool) and waste >= 0,
     f"waste_ratio = {waste!r} is not a non-negative number")

# memory: per-domain gauges + alloc-size histograms + tracked totals.
mem_schema = schema["properties"]["memory"]
mem = data.get("memory")
need(isinstance(mem, dict), "'memory' is not an object")
if isinstance(mem, dict):
    for key in mem_schema["required"]:
        need(key in mem, f"missing memory key '{key}'")
    for key in ("tracked_live_bytes", "tracked_peak_bytes", "bytes_per_state"):
        need(nonneg_int(mem.get(key)),
             f"memory['{key}'] = {mem.get(key)!r} is not a non-negative integer")
    dom_schema = mem_schema["properties"]["domains"]
    domains = mem.get("domains")
    need(isinstance(domains, dict), "memory.domains is not an object")
    if isinstance(domains, dict):
        for key in dom_schema["required"]:
            need(key in domains, f"missing memory domain '{key}'")
        n_buckets = dom_schema["patternProperties"][
            "^[a-z][a-z0-9_]*$"]["properties"]["alloc_size"][
            "properties"]["buckets"]["minItems"]
        for dname, dom in domains.items():
            need(re.fullmatch(r"[a-z][a-z0-9_]*", dname),
                 f"memory domain '{dname}' is not snake_case")
            need(isinstance(dom, dict), f"memory.domains['{dname}'] is not an object")
            if not isinstance(dom, dict):
                continue
            for key in ("live_bytes", "peak_bytes", "allocs"):
                need(nonneg_int(dom.get(key)),
                     f"memory.domains['{dname}'].{key} = {dom.get(key)!r} is not "
                     "a non-negative integer")
            alloc = dom.get("alloc_size")
            need(isinstance(alloc, dict),
                 f"memory.domains['{dname}'].alloc_size is not an object")
            if isinstance(alloc, dict):
                buckets = alloc.get("buckets")
                need(isinstance(buckets, list) and len(buckets) == n_buckets
                     and all(nonneg_int(b) for b in buckets),
                     f"memory.domains['{dname}'].alloc_size.buckets is not a list "
                     f"of {n_buckets} non-negative integers")
                need(nonneg_int(alloc.get("sum")),
                     f"memory.domains['{dname}'].alloc_size.sum is not a "
                     "non-negative integer")
                need(nonneg_int(alloc.get("count")),
                     f"memory.domains['{dname}'].alloc_size.count is not a "
                     "non-negative integer")
                if isinstance(buckets, list) and all(nonneg_int(b) for b in buckets):
                    need(sum(buckets) == alloc.get("count"),
                         f"memory.domains['{dname}'].alloc_size: bucket total "
                         f"{sum(buckets)} != count {alloc.get('count')!r}")
            for key in dom:
                need(key in ("live_bytes", "peak_bytes", "allocs", "alloc_size"),
                     f"memory.domains['{dname}'] has unexpected key '{key}'")
    for key in mem:
        need(key in mem_schema["properties"],
             f"memory has unexpected key '{key}'")

for key in data:
    need(key in schema["properties"], f"unexpected top-level key '{key}'")

if errors:
    print(f"{data_path}: SCHEMA VIOLATION", file=sys.stderr)
    for e in errors:
        print(f"  - {e}", file=sys.stderr)
    sys.exit(1)
print(f"{data_path}: ok")
PY
}

run_config() {
  # run_config <build-dir> <extra cmake flags...>. With record_history=1
  # (the regular configuration only — sanitized timings would skew the
  # series), every run is also appended to bench/history.jsonl via
  # tools/bench_history.sh, which warns on a >20% wall-time regression
  # against the previous entry.
  local dir="$1"
  shift
  cmake -B "$dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$dir" -j"$(nproc)"

  local outdir="$dir/bench-json"
  rm -rf "$outdir"
  mkdir -p "$outdir"

  local found=0
  local bench
  for bench in "$dir"/bench/bench_*; do
    [ -x "$bench" ] || continue
    found=1
    local name
    name="$(basename "$bench")"
    echo "== $name =="
    (cd "$outdir" && "$bench" "$min_time" \
       "--benchmark_out=${name}.gbench.json" --benchmark_out_format=json \
       >/dev/null)
    local json="$outdir/BENCH_${name}.json"
    if [ ! -f "$json" ]; then
      echo "error: $name did not write BENCH_${name}.json" >&2
      exit 1
    fi
    validate "$json"
    if [ "${record_history:-0}" -eq 1 ]; then
      "$repo_root/tools/bench_history.sh" "$json"
    fi
  done
  if [ "$found" -eq 0 ]; then
    echo "error: no bench binaries found under $dir/bench" >&2
    exit 1
  fi

  # The parallel-scaling bench once more, pinned to the 1- and 2-worker
  # series (serial engine + the smallest real worker pool), so both engines
  # demonstrably run and the re-written export still validates.
  local pbench="$dir/bench/bench_parallel_scaling"
  if [ ! -x "$pbench" ]; then
    echo "error: bench_parallel_scaling missing under $dir/bench" >&2
    exit 1
  fi
  echo "== bench_parallel_scaling (1 and 2 threads) =="
  (cd "$outdir" && "$pbench" "$min_time" '--benchmark_filter=/(1|2)$' >/dev/null)
  validate "$outdir/BENCH_bench_parallel_scaling.json"

  # The successor-pruning microbench must exist and have produced its
  # export above (its artifact carries the enumerated-vs-pruned counts the
  # PRUNING experiment records).
  if [ ! -x "$dir/bench/bench_successor_pruning" ]; then
    echo "error: bench_successor_pruning missing under $dir/bench" >&2
    exit 1
  fi
  if [ ! -f "$outdir/BENCH_bench_successor_pruning.json" ]; then
    echo "error: bench_successor_pruning did not export its counters" >&2
    exit 1
  fi

  # The independence microbench carries its own hard budget (the artifact
  # exits 1 if the static matrix costs >= 1% of exploring the fig9 H2b
  # product), so its export existing above means the budget held.
  if [ ! -x "$dir/bench/bench_independence" ]; then
    echo "error: bench_independence missing under $dir/bench" >&2
    exit 1
  fi
  if [ ! -f "$outdir/BENCH_bench_independence.json" ]; then
    echo "error: bench_independence did not export its counters" >&2
    exit 1
  fi

  # The memory-accounting microbench pins the headline bytes_per_state
  # (stability across runs + per-domain attribution; the MEMORY experiment
  # records its numbers).
  if [ ! -x "$dir/bench/bench_memory_accounting" ]; then
    echo "error: bench_memory_accounting missing under $dir/bench" >&2
    exit 1
  fi
  if [ ! -f "$outdir/BENCH_bench_memory_accounting.json" ]; then
    echo "error: bench_memory_accounting did not export its counters" >&2
    exit 1
  fi

  # The state-store microbench pins the map-vs-fingerprint store
  # comparison (intern throughput + bytes-per-state on the 10^5-state fig
  # spaces; the FPSTORE experiment records its numbers) and exercises the
  # probe-length histogram plus the spill path.
  if [ ! -x "$dir/bench/bench_state_store" ]; then
    echo "error: bench_state_store missing under $dir/bench" >&2
    exit 1
  fi
  if [ ! -f "$outdir/BENCH_bench_state_store.json" ]; then
    echo "error: bench_state_store did not export its counters" >&2
    exit 1
  fi

  # The analyze JSON surface: run the multi-module ag_queue analysis and
  # validate it against tools/analyze_schema.json (hand-rolled, same
  # no-jsonschema-dependency policy as validate()).
  echo "== tlacheck analyze (ag_queue, schema check) =="
  "$dir/tools/tlacheck" analyze \
    "$repo_root"/specs/ag_queue/g.tla \
    "$repo_root"/specs/ag_queue/qe1.tla "$repo_root"/specs/ag_queue/qm1.tla \
    "$repo_root"/specs/ag_queue/qe2.tla "$repo_root"/specs/ag_queue/qm2.tla \
    "$repo_root"/specs/ag_queue/qedbl.tla "$repo_root"/specs/ag_queue/qmdbl.tla \
    --format json > "$outdir/analyze_ag_queue.json"
  python3 - "$repo_root/tools/analyze_schema.json" \
    "$outdir/analyze_ag_queue.json" <<'PY'
import json, sys

schema = json.load(open(sys.argv[1]))
data = json.load(open(sys.argv[2]))

def check(value, shape, path):
    if "const" in shape:
        assert value == shape["const"], f"{path}: {value!r} != {shape['const']!r}"
        return
    t = shape.get("type")
    if t == "object":
        assert isinstance(value, dict), f"{path}: not an object"
        for key in shape.get("required", []):
            assert key in value, f"{path}: missing required '{key}'"
        props = shape.get("properties", {})
        if shape.get("additionalProperties") is False:
            for key in value:
                assert key in props, f"{path}: unexpected key '{key}'"
        for key, sub in props.items():
            if key in value:
                check(value[key], sub, f"{path}.{key}")
    elif t == "array":
        assert isinstance(value, list), f"{path}: not an array"
        if "items" in shape:
            for i, elem in enumerate(value):
                check(elem, shape["items"], f"{path}[{i}]")
    elif t == "string":
        assert isinstance(value, str), f"{path}: not a string"
    elif t == "integer":
        assert isinstance(value, int) and not isinstance(value, bool), f"{path}: not an integer"
    elif t == "number":
        assert isinstance(value, (int, float)) and not isinstance(value, bool), f"{path}: not a number"
    elif t == "boolean":
        assert isinstance(value, bool), f"{path}: not a boolean"

check(data, schema, "$")
ind = data["independence"]
assert ind["independent_pairs"] > 0 and ind["dependent_pairs"] > 0, ind
print(f"{sys.argv[2]}: ok "
      f"({ind['independent_pairs']}/{ind['independent_pairs'] + ind['dependent_pairs']} "
      "pairs independent)")
PY
}

echo "--- bench smoke: regular configuration ($build_dir) ---"
record_history=1
run_config "$build_dir"
record_history=0

echo "--- bench smoke: sanitized configuration ($san_dir) ---"
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
run_config "$san_dir" -DOPENTLA_SANITIZE=ON

echo "all bench exports validated against $(basename "$schema")"
