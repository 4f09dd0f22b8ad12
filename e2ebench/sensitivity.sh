#!/usr/bin/env bash
# Sensitivity self-test: shows that the benchmark detects a slowdown the
# size of a real regression in one layer, and only where it should.
#
#   bash e2ebench/sensitivity.sh [delay] [seeds] [seconds]
#
# Runs analyst_mdrq and batch_scan for each seed, without and with
# --inject-delay (default 200us: ~20% of analyst_mdrq's median traced
# shard.router_ms, 0.9 ms on a 2-vCPU Xeon), alternating the two so
# drift of the machine hits both alike. It compares the medians of
# query_p50_ms with the bound BENCHMARK.json gives it. Expected:
# analyst_mdrq leaves the bound, batch_scan stays within it. Run from the
# repository root.
set -euo pipefail
delay="${1:-200us}"
seeds="${2:-5}"
seconds="${3:-15}"
out=".bench_build/sensitivity"
mkdir -p "$out"
for wl in analyst_mdrq batch_scan; do
  for d in 0s "$delay"; do
    : > "$out/$wl-$d.jsonl"
  done
done
for s in $(seq 1 "$seeds"); do
  for wl in analyst_mdrq batch_scan; do
    for d in 0s "$delay"; do
      bash e2ebench/run.sh --workload "$wl" --seed "$((1000 + s))" --seconds "$seconds" --trace 0 \
        --inject-delay "$d" | tail -n 1 >> "$out/$wl-$d.jsonl"
    done
  done
done
python3 - "$out" "$delay" <<'EOF'
import json, statistics, sys
out, delay = sys.argv[1], sys.argv[2]
bound = next(m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"] if m["name"] == "query_p50_ms")
def p50(wl, d):
    runs = [json.loads(l) for l in open(f"{out}/{wl}-{d}.jsonl")]
    assert all(r["correct"] for r in runs), f"{wl}: wrong answers"
    return statistics.median(r["metrics"]["query_p50_ms"]["value"] for r in runs)
ok = True
for wl, want_out in (("analyst_mdrq", True), ("batch_scan", False)):
    base, slow = p50(wl, "0s"), p50(wl, delay)
    change = slow / base - 1
    left = change > bound
    print(f"{wl:14s} query_p50_ms {base:.3f} -> {slow:.3f} ms ({change:+.1%}, bound {bound:.0%}): "
          f"{'leaves' if left else 'within'} the bound, expected {'leaves' if want_out else 'within'}")
    ok &= left == want_out
sys.exit(0 if ok else 1)
EOF
