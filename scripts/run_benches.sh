#!/usr/bin/env bash
# Runs every benchmark binary, passing --json so benches that support the
# machine-readable contract drop their BENCH_<name>.json next to the repo
# root, and --trace so the telemetry-instrumented benches additionally dump
# BENCH_<name>_trace.json (Chrome trace_event format, load at
# chrome://tracing). CI diffs the json and archives both; humans read the
# transcript.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

if [ ! -d "$BUILD_DIR" ]; then
  cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" -j"$JOBS"

: > bench_output.txt
for b in "$BUILD_DIR"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "===== $name =====" | tee -a bench_output.txt
  # Benches that have not adopted the --json/--trace contract either ignore
  # the flags or (google-benchmark binaries) reject them: retry bare.
  if ! "$b" --json "--trace=BENCH_${name}_trace.json" 2>&1 \
      | tee -a bench_output.txt; then
    echo "--- $name rejected --json/--trace; rerunning without them ---" \
      | tee -a bench_output.txt
    "$b" 2>&1 | tee -a bench_output.txt
  fi
done

echo
echo "json artifacts:"
ls -1 BENCH_*.json 2>/dev/null || echo "  (none)"

# Benches that have adopted the --json contract must actually have produced
# their artifact; a missing file means the contract regressed.
expected=(
  BENCH_fig5_traversal.json
  BENCH_baseline_compare.json
  BENCH_swap_latency.json
  BENCH_local_vs_remote.json
  BENCH_churn_recovery.json
  BENCH_prefetch_stall.json
  BENCH_crash_recovery.json
  BENCH_degraded_mode.json
  BENCH_tier_hierarchy.json
  BENCH_fleet_scale.json
  BENCH_overload_storm.json
)
# Telemetry-instrumented benches must also drop a span trace.
expected_traces=(
  BENCH_swap_latency_trace.json
  BENCH_local_vs_remote_trace.json
  BENCH_churn_recovery_trace.json
  BENCH_prefetch_stall_trace.json
  BENCH_degraded_mode_trace.json
  BENCH_tier_hierarchy_trace.json
  BENCH_overload_storm_trace.json
)
failed=0
for f in "${expected[@]}"; do
  if [ ! -f "$f" ]; then
    echo "missing expected artifact: $f (bench $f regressed the --json contract)" >&2
    failed=1
  fi
done
for f in "${expected_traces[@]}"; do
  if [ ! -f "$f" ]; then
    echo "missing expected trace: $f (bench regressed the --trace contract)" >&2
    failed=1
  fi
done

# A present-but-malformed artifact is worse than a missing one: CI would
# diff garbage. Validate every artifact structurally and name the offending
# bench on failure. Result tables must be valid JSON with a non-empty
# "rows" array; traces must be valid Chrome trace JSON with a non-empty
# "traceEvents" array.
if command -v python3 >/dev/null 2>&1; then
  for f in BENCH_*.json; do
    [ -f "$f" ] || continue
    if ! python3 - "$f" <<'PYEOF'
import json, sys
path = sys.argv[1]
bench = path.replace("BENCH_", "").replace("_trace.json", "").replace(".json", "")
try:
    with open(path) as fh:
        doc = json.load(fh)
except (OSError, ValueError) as err:
    sys.exit(f"bench '{bench}': malformed artifact {path}: {err}")
key = "traceEvents" if path.endswith("_trace.json") else "rows"
items = doc.get(key)
if not isinstance(items, list) or not items:
    sys.exit(f"bench '{bench}': artifact {path} has empty or missing '{key}'")
PYEOF
    then
      failed=1
    fi
  done
else
  # No python3: at least reject empty files.
  for f in BENCH_*.json; do
    [ -f "$f" ] || continue
    if [ ! -s "$f" ]; then
      echo "bench '$(basename "$f" .json)': artifact $f is empty" >&2
      failed=1
    fi
  done
fi

# Wire-format sweep contract: every (mode, write ratio) row must report
# bytes_on_link, it must be the sum of the out/in counters, and the delta
# mode must keep at most half of binary-full's bytes on the link at the 10%
# write ratio (the same gate the bench enforces in-process — re-checked here
# from the artifact so a silent bench regression cannot pass CI).
if command -v python3 >/dev/null 2>&1 && [ -f BENCH_swap_latency.json ]; then
  if ! python3 - BENCH_swap_latency.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as fh:
    rows = json.load(fh)["rows"]
sweep = [r for r in rows if r.get("table") == "wire_format_sweep"]
want = {(m, p) for m in ("xml", "binary", "delta")
        for p in (0, 10, 25, 50, 75, 100)}
have = {(r["mode"], r["write_pct"]) for r in sweep}
if have != want:
    sys.exit(f"swap_latency: wire_format_sweep rows mismatch: "
             f"missing {sorted(want - have)}, extra {sorted(have - want)}")
for r in sweep:
    if r["bytes_on_link"] != r["bytes_swapped_out"] + r["bytes_swapped_in"]:
        sys.exit(f"swap_latency: bytes_on_link != out + in in row {r}")
by_key = {(r["mode"], r["write_pct"]): r["bytes_on_link"] for r in sweep}
delta, binary = by_key[("delta", 10)], by_key[("binary", 10)]
if delta * 2 > binary:
    sys.exit(f"swap_latency: delta bytes_on_link at 10% writes ({delta}) "
             f"exceeds 50% of binary-full ({binary})")
print(f"wire-format gate: delta {delta} <= 50% of binary {binary} at "
      f"10% writes — ok")
PYEOF
  then
    failed=1
  fi
fi

# Tier-hierarchy contract: the gate row the bench computed in-process is
# re-checked from the artifact (the bare-rerun fallback above would mask a
# nonzero bench exit): p95 demand-fault stall must improve >= 5x over
# remote-only, fewer bytes must cross the radio, and neither configuration
# may leave a swapped cluster short of K remote replicas.
if command -v python3 >/dev/null 2>&1 && [ -f BENCH_tier_hierarchy.json ]; then
  if ! python3 - BENCH_tier_hierarchy.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as fh:
    rows = json.load(fh)["rows"]
by_config = {r["config"]: r for r in rows}
for config in ("remote-only", "tiered", "gate"):
    if config not in by_config:
        sys.exit(f"tier_hierarchy: missing '{config}' row")
gate = by_config["gate"]
for name in ("stall_gate", "radio_gate", "durability_gate", "values_gate"):
    if gate.get(name) != "ok":
        sys.exit(f"tier_hierarchy: {name} failed: {gate}")
remote, tiered = by_config["remote-only"], by_config["tiered"]
if tiered["p95_stall_us"] * 5 > remote["p95_stall_us"]:
    sys.exit(f"tier_hierarchy: p95 stall {tiered['p95_stall_us']} not 5x "
             f"better than remote-only {remote['p95_stall_us']}")
if tiered["radio_bytes"] >= remote["radio_bytes"]:
    sys.exit(f"tier_hierarchy: tiered radio bytes {tiered['radio_bytes']} "
             f"not below remote-only {remote['radio_bytes']}")
if tiered["replicas_short_of_k"] or remote["replicas_short_of_k"]:
    sys.exit("tier_hierarchy: a swapped cluster is short of K remote replicas")
print(f"tier gate: p95 {remote['p95_stall_us']} -> {tiered['p95_stall_us']} us, "
      f"radio {remote['radio_bytes']} -> {tiered['radio_bytes']} B — ok")
PYEOF
  then
    failed=1
  fi
fi

# Fleet-scale contract: re-check the gate row the bench computed in-process
# (the bare-rerun fallback above would mask a nonzero bench exit): the
# rendezvous placement must keep max/mean store fill <= 1.35, the indexed
# monitors must touch <= 10% of the per-poll replica records full registry
# scans would have examined over the same outage churn (the directory row's
# computed full-scan meter), and every cluster must be back at K replicas
# with none lost.
if command -v python3 >/dev/null 2>&1 && [ -f BENCH_fleet_scale.json ]; then
  if ! python3 - BENCH_fleet_scale.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as fh:
    rows = json.load(fh)["rows"]
by_config = {r["config"]: r for r in rows}
for config in ("directory", "walk", "gate"):
    if config not in by_config:
        sys.exit(f"fleet_scale: missing '{config}' row")
gate = by_config["gate"]
for name in ("balance_gate", "scan_gate", "recovery_gate"):
    if gate.get(name) != "ok":
        sys.exit(f"fleet_scale: {name} failed: {gate}")
directory = by_config["directory"]
if directory["devices"] < 500 or directory["stores"] < 200:
    sys.exit(f"fleet_scale: fleet too small: {directory['devices']} devices "
             f"x {directory['stores']} stores (need >= 500 x 200)")
if directory["balance_max_over_mean"] > 1.35:
    sys.exit(f"fleet_scale: balance {directory['balance_max_over_mean']} "
             f"exceeds 1.35")
if gate["scan_per_poll_ratio"] > 0.10:
    sys.exit(f"fleet_scale: per-poll churn scan ratio "
             f"{gate['scan_per_poll_ratio']} exceeds 0.10")
if directory["clusters_below_k"] or directory["clusters_lost"]:
    sys.exit(f"fleet_scale: {directory['clusters_below_k']} clusters below "
             f"K, {directory['clusters_lost']} lost after recovery")
print(f"fleet gate: balance {directory['balance_max_over_mean']:.3f}, "
      f"churn scans/poll {gate['incremental_scan_per_poll']:.0f} vs "
      f"baseline {gate['baseline_scan_per_poll']:.0f}, recovery "
      f"{directory['recovery_polls']} polls — ok")
PYEOF
  then
    failed=1
  fi
fi

# Overload-storm contract: re-check the three gates from the artifact (the
# bare-rerun fallback above would mask a nonzero bench exit). With the
# overload controls on, the demand-fault p95 stall must beat the unbounded
# baseline by >= 3x, retry amplification (wire attempts / logical calls over
# the storm window) must stay <= 2.0 while the unbudgeted baseline exceeds
# it, the controls-on run must actually shed, and both runs must converge
# back to K with no cluster lost.
if command -v python3 >/dev/null 2>&1 && [ -f BENCH_overload_storm.json ]; then
  if ! python3 - BENCH_overload_storm.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as fh:
    rows = json.load(fh)["rows"]
by_config = {r["config"]: r for r in rows}
for config in ("controls-on", "controls-off", "gate"):
    if config not in by_config:
        sys.exit(f"overload_storm: missing '{config}' row")
gate = by_config["gate"]
for name in ("stall_gate", "amplification_gate", "recovery_gate"):
    if gate.get(name) != "ok":
        sys.exit(f"overload_storm: {name} failed: {gate}")
on, off = by_config["controls-on"], by_config["controls-off"]
ratio = off["p95_stall_us"] / max(on["p95_stall_us"], 1)
if ratio < 3.0:
    sys.exit(f"overload_storm: p95 stall off/on {ratio:.2f}x below 3x "
             f"(off {off['p95_stall_us']} us, on {on['p95_stall_us']} us)")
if on["retry_amplification"] > 2.0:
    sys.exit(f"overload_storm: controls-on amplification "
             f"{on['retry_amplification']} exceeds 2.0")
if off["retry_amplification"] <= 2.0:
    sys.exit(f"overload_storm: controls-off amplification "
             f"{off['retry_amplification']} never exceeded 2.0 — the storm "
             f"did not stress the retry path")
if on["store_sheds"] == 0:
    sys.exit("overload_storm: controls-on run never shed — the storm did "
             "not saturate the pool")
for row in (on, off):
    if row["clusters_below_k"] or row["clusters_lost"]:
        sys.exit(f"overload_storm: {row['config']} ended with "
                 f"{row['clusters_below_k']} clusters below K, "
                 f"{row['clusters_lost']} lost")
    if row["recovery_polls"] < 0:
        sys.exit(f"overload_storm: {row['config']} never converged")
print(f"overload gate: p95 stall off/on {ratio:.2f}x, amplification "
      f"on {on['retry_amplification']:.2f} vs off "
      f"{off['retry_amplification']:.2f}, sheds {on['store_sheds']} — ok")
PYEOF
  then
    failed=1
  fi
fi

exit "$failed"
