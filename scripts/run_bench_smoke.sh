#!/usr/bin/env bash
# Consolidated bench-smoke matrix for every committed ablation baseline:
#   PR 5  — flat-vs-btree merge backends (Table 4 axis)
#   PR 6  — batch rule-pipeline executor throughput (the tuple-at-a-time
#           baseline it was compared against is retired; its last numbers
#           stay in the committed BENCH_PR6.json)
#   PR 7  — incremental-vs-recompute maintenance pair
#   PR 10 — morsel-steal on/off on a hub-skewed TC plus a uniform control
# One micro_components run feeds the PR 5/6/7 JSONs; one fig_skew run
# (median of --benchmark_repetitions) feeds the PR 10 JSON. The per-PR
# files keep their historical names so existing baselines stay diffable,
# and everything is additionally folded into one combined artifact.
#
# Usage:
#   scripts/run_bench_smoke.sh                    # measure, write all JSONs
#   scripts/run_bench_smoke.sh --check FILE       # fail if the flat merge
#                                                 # path regressed >20% vs
#                                                 # the baseline FILE
#   scripts/run_bench_smoke.sh --check-pr6 FILE   # fail if the batch
#                                                 # pipeline executor
#                                                 # regressed >20% vs FILE
#   scripts/run_bench_smoke.sh --check-pr7 FILE   # fail if a single-edge
#                                                 # incremental insert
#                                                 # regressed >20% vs FILE or
#                                                 # its speedup over a scratch
#                                                 # recompute fell below 10x
#   scripts/run_bench_smoke.sh --check-pr10 FILE  # fail if the skew steal-on
#                                                 # or uniform steal-on run
#                                                 # regressed >20% vs FILE;
#                                                 # on hosts with >=2 CPUs
#                                                 # also fail if steal-on does
#                                                 # not beat steal-off >=1.3x
#                                                 # on the hub-skewed TC
#
# Environment:
#   BUILD_DIR=<dir>   build tree containing bench/micro_components and
#                     bench/fig_skew (default: build)
#   OUT=<file>        PR 5 output path  (default: BENCH_PR5.json)
#   OUT6=<file>       PR 6 output path  (default: BENCH_PR6.json)
#   OUT7=<file>       PR 7 output path  (default: BENCH_PR7.json)
#   OUT10=<file>      PR 10 output path (default: BENCH_PR10.json)
#   COMBINED=<file>   combined artifact (default: BENCH_SMOKE.json)
#   SKEW_REPS=<n>     fig_skew repetitions for the median (default: 5)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_PR5.json}"
OUT6="${OUT6:-BENCH_PR6.json}"
OUT7="${OUT7:-BENCH_PR7.json}"
OUT10="${OUT10:-BENCH_PR10.json}"
COMBINED="${COMBINED:-BENCH_SMOKE.json}"
SKEW_REPS="${SKEW_REPS:-5}"
BASELINE=""
BASELINE6=""
BASELINE7=""
BASELINE10=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --check)
      BASELINE="${2:?--check needs a baseline file}"
      shift 2
      ;;
    --check-pr6)
      BASELINE6="${2:?--check-pr6 needs a baseline file}"
      shift 2
      ;;
    --check-pr7)
      BASELINE7="${2:?--check-pr7 needs a baseline file}"
      shift 2
      ;;
    --check-pr10)
      BASELINE10="${2:?--check-pr10 needs a baseline file}"
      shift 2
      ;;
    *)
      echo "run_bench_smoke: unknown argument $1" >&2
      exit 2
      ;;
  esac
done

BENCH="$BUILD_DIR/bench/micro_components"
SKEW="$BUILD_DIR/bench/fig_skew"
for b in "$BENCH" "$SKEW"; do
  if [[ ! -x "$b" ]]; then
    echo "run_bench_smoke: $b not built (set BUILD_DIR?)" >&2
    exit 2
  fi
done

RAW="$(mktemp)"
RAW10="$(mktemp)"
trap 'rm -f "$RAW" "$RAW10"' EXIT

# One process, one JSON: the 1M-tuple kNone dedup merge on both backends,
# the min-merge ablation trio plus its flat twin, the batch rule-pipeline
# executor on the filter+probe workload, the incremental-vs-recompute TC
# maintenance pair, and the end-to-end TC run.
"$BENCH" \
  --benchmark_filter='BM_MergeNone(Flat|Btree)|BM_MergeMin(Indexed|IndexedNoCache|LinearScan|Flat)$|BM_PipelineBatch$|BM_EngineTcTraceOff|BM_EngineTcIncrementalInsert|BM_EngineTcScratchRecompute' \
  --benchmark_format=json --benchmark_out="$RAW" \
  --benchmark_out_format=json >&2

# The skew ablation pairs. Wall time on a multi-worker engine is noisy, so
# take the median of SKEW_REPS repetitions instead of one sample.
"$SKEW" \
  --benchmark_repetitions="$SKEW_REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json --benchmark_out="$RAW10" \
  --benchmark_out_format=json >&2

python3 - "$RAW" "$RAW10" "$OUT" "$OUT6" "$OUT7" "$OUT10" "$COMBINED" \
  "$BASELINE" "$BASELINE6" "$BASELINE7" "$BASELINE10" <<'PY'
import json, os, sys

(raw_path, raw10_path, out_path, out6_path, out7_path, out10_path,
 combined_path, baseline_path, baseline6_path, baseline7_path,
 baseline10_path) = sys.argv[1:12]
with open(raw_path) as f:
    raw = json.load(f)

by_name = {}
for b in raw.get("benchmarks", []):
    # Strip the /Arg suffix: BM_MergeNoneFlat/1048576 -> BM_MergeNoneFlat.
    by_name[b["name"].split("/")[0]] = b

def mtps(name):
    b = by_name.get(name)
    return round(b["items_per_second"] / 1e6, 3) if b else None

def to_ms(b):
    t = b["real_time"]
    unit = b.get("time_unit", "ns")
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
    return round(t * scale, 3)

def ms(name):
    b = by_name.get(name)
    return to_ms(b) if b is not None else None

flat = mtps("BM_MergeNoneFlat")
btree = mtps("BM_MergeNoneBtree")
result = {
    "bench": "merge-backend ablation (PR 5)",
    "workload": "1M-tuple kNone dedup merge, 4096-tuple batches, "
                "2^20-pair universe",
    "merge_none_flat_mtps": flat,
    "merge_none_btree_mtps": btree,
    "flat_over_btree": round(flat / btree, 2) if flat and btree else None,
    "merge_min_btree_indexed_mtps": mtps("BM_MergeMinIndexed"),
    "merge_min_btree_nocache_mtps": mtps("BM_MergeMinIndexedNoCache"),
    "merge_min_btree_linear_mtps": mtps("BM_MergeMinLinearScan"),
    "merge_min_flat_mtps": mtps("BM_MergeMinFlat"),
    "end_to_end_tc_ms": ms("BM_EngineTcTraceOff"),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(json.dumps(result, indent=2))

batch = mtps("BM_PipelineBatch")
result6 = {
    "bench": "batch pipeline executor (PR 6)",
    "workload": "256K driving rows through an int filter (~50% "
                "selectivity) and two hash-join probes, single-threaded; "
                "throughput in driving Mtuples/s",
    "pipeline_batch_mtps": batch,
    # End-to-end TC (gnp:300:0.01, 4 workers, DWS).
    "end_to_end_tc_ms": ms("BM_EngineTcTraceOff"),
}
with open(out6_path, "w") as f:
    json.dump(result6, f, indent=2)
    f.write("\n")
print(json.dumps(result6, indent=2))

inc = ms("BM_EngineTcIncrementalInsert")
scratch = ms("BM_EngineTcScratchRecompute")
result7 = {
    "bench": "incremental maintenance ablation (PR 7)",
    "workload": "single fresh-source edge insert into the maintained TC "
                "fixpoint of gnp:1000:0.003 (4 workers, DWS) vs a full "
                "from-scratch recompute of the same fixpoint",
    "incremental_insert_ms": inc,
    "scratch_recompute_ms": scratch,
    "incremental_speedup": round(scratch / inc, 1) if inc and scratch else None,
}
with open(out7_path, "w") as f:
    json.dump(result7, f, indent=2)
    f.write("\n")
print(json.dumps(result7, indent=2))

# --- PR 10: skew ablation (median-of-repetitions aggregates) --------------
with open(raw10_path) as f:
    raw10 = json.load(f)

def median_ms(prefix):
    for b in raw10.get("benchmarks", []):
        # Aggregate rows are named BM_SkewTcStealOn/real_time_median.
        if b["name"].startswith(prefix) and b["name"].endswith("_median"):
            return to_ms(b)
    return None

skew_on = median_ms("BM_SkewTcStealOn")
skew_off = median_ms("BM_SkewTcStealOff")
uni_on = median_ms("BM_UniformTcStealOn")
uni_off = median_ms("BM_UniformTcStealOff")
host_cpus = os.cpu_count() or 1
skew_speedup = round(skew_off / skew_on, 2) if skew_on and skew_off else None
uni_overhead = (round((uni_on - uni_off) / uni_off * 100, 1)
                if uni_on and uni_off else None)
result10 = {
    "bench": "skew-adaptive morsel stealing ablation (PR 10)",
    "workload": "TC over star-hub:1200 (Global, 4 workers, 64-tuple "
                "morsels) steal-on vs steal-off; uniform control is TC "
                "over gnp:300:0.01 (DWS, 4 workers, production steal "
                "defaults)",
    "host_cpus": host_cpus,
    "skew_steal_on_ms": skew_on,
    "skew_steal_off_ms": skew_off,
    # Wall-clock speedup of stealing on the adversarial hub workload.
    # Morsel offload is a parallelism mechanism: on a single-CPU host the
    # thieves share one core with the owner, so the honest expectation is
    # ~1.0x there and >=1.3x only once a second core exists to absorb the
    # published tail. The gate below enforces accordingly.
    "skew_speedup": skew_speedup,
    "uniform_steal_on_ms": uni_on,
    "uniform_steal_off_ms": uni_off,
    "uniform_overhead_pct": uni_overhead,
    "skew_speedup_gate":
        "enforced" if host_cpus >= 2 else "skipped (single-cpu host)",
}
with open(out10_path, "w") as f:
    json.dump(result10, f, indent=2)
    f.write("\n")
print(json.dumps(result10, indent=2))

combined = {"pr5": result, "pr6": result6, "pr7": result7, "pr10": result10}
with open(combined_path, "w") as f:
    json.dump(combined, f, indent=2)
    f.write("\n")

if baseline_path:
    with open(baseline_path) as f:
        base = json.load(f)
    base_flat = base.get("merge_none_flat_mtps")
    if base_flat and flat is not None and flat < 0.8 * base_flat:
        print(
            f"FAIL: flat merge path regressed: {flat} Mtuples/s vs "
            f"baseline {base_flat} (>20% slower)",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"check OK: flat {flat} Mtuples/s vs baseline {base_flat}")

if baseline6_path:
    with open(baseline6_path) as f:
        base6 = json.load(f)
    base_batch = base6.get("pipeline_batch_mtps")
    if base_batch and batch is not None and batch < 0.8 * base_batch:
        print(
            f"FAIL: batch pipeline executor regressed: {batch} Mtuples/s "
            f"vs baseline {base_batch} (>20% slower)",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"check OK: batch {batch} Mtuples/s vs baseline {base_batch}")

if baseline7_path:
    with open(baseline7_path) as f:
        base7 = json.load(f)
    base_inc = base7.get("incremental_insert_ms")
    if base_inc and inc is not None and inc > 1.2 * base_inc:
        print(
            f"FAIL: incremental insert regressed: {inc} ms vs baseline "
            f"{base_inc} ms (>20% slower)",
            file=sys.stderr,
        )
        sys.exit(1)
    speedup = result7["incremental_speedup"]
    if speedup is not None and speedup < 10:
        print(
            f"FAIL: incremental speedup {speedup}x over scratch recompute "
            f"is below the 10x floor",
            file=sys.stderr,
        )
        sys.exit(1)
    print(
        f"check OK: incremental {inc} ms vs baseline {base_inc} ms, "
        f"speedup {speedup}x"
    )

if baseline10_path:
    with open(baseline10_path) as f:
        base10 = json.load(f)
    for key, cur in (("skew_steal_on_ms", skew_on),
                     ("uniform_steal_on_ms", uni_on)):
        ref = base10.get(key)
        if ref and cur is not None and cur > 1.2 * ref:
            print(
                f"FAIL: {key} regressed: {cur} ms vs baseline {ref} ms "
                f"(>20% slower)",
                file=sys.stderr,
            )
            sys.exit(1)
    # The parallel-speedup claim needs parallel hardware: thieves must have
    # a core to run on for the published tail to execute concurrently.
    if host_cpus >= 2:
        if skew_speedup is None or skew_speedup < 1.3:
            print(
                f"FAIL: skew steal-on speedup {skew_speedup}x is below the "
                f"1.3x floor on a {host_cpus}-CPU host",
                file=sys.stderr,
            )
            sys.exit(1)
        print(f"check OK: skew steal speedup {skew_speedup}x (>=1.3x)")
    else:
        print(
            f"check OK: skew regression bounds hold; speedup floor skipped "
            f"on a single-CPU host (measured {skew_speedup}x)"
        )
PY
