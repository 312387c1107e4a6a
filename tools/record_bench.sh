#!/usr/bin/env bash
# Builds the Release tree and records an end-to-end perf study into
# BENCH_study.json at the repository root.  The file holds the measured
# stage timings for the default (grouped-sweep) pipeline, the same run with
# the reference per-config sweep mode, a scale-1.0 run (the pipeline's
# bounded-RSS claim, measured: its peak_rss_kb plus the spill tier/stage
# telemetry — spill_bytes_written/read and the spill_write/spill_read/sink
# stage times), and — when a pre-change baseline file is passed — the
# end-to-end speedup against it, so perf regressions show up as diffs.
#
# Usage: tools/record_bench.sh [scale] [threads] [baseline.json] [reps]
#   scale          workload scale (default 0.2)
#   threads        sweep worker threads (default 0 = hardware concurrency)
#   baseline.json  optional perf_study JSON from the pre-change tree; embedded
#                  verbatim and used for the end-to-end speedup figure.  For a
#                  fair comparison, record it the same way: best of `reps`
#                  runs of the pre-change perf_study.
#   reps           perf_study repetitions per case; the run with the lowest
#                  total is kept (default 3 — shared hosts show double-digit
#                  wall-clock noise, and the minimum is the run with the
#                  least interference)
#
# Requires jq (present in CI and the dev images).
set -euo pipefail

cd "$(dirname "$0")/.."
SCALE="${1:-0.2}"
THREADS="${2:-0}"
BASELINE="${3:-}"
REPS="${4:-3}"
BUILD=build-perf

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD" -j "$(nproc)" --target perf_study charisma_campaign > /dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

run_case_at() { # label scale reps sweep-mode [extra perf_study flags...]
                # -> $TMP/<label>.json (best of reps by total)
  local label="$1" scale="$2" reps="$3" sweep="$4"
  shift 4
  echo "[record_bench] measuring $label ($sweep sweep, scale=$scale threads=$THREADS, best of $reps)..."
  local best=""
  for rep in $(seq 1 "$reps"); do
    "$BUILD/bench/perf_study" --scale="$scale" --threads="$THREADS" \
        --sweep-mode="$sweep" "$@" \
        --out="$TMP/$label.rep$rep.json" > /dev/null 2> /dev/null
    local total
    total="$(jq '.stages_ms.total' "$TMP/$label.rep$rep.json")"
    echo "[record_bench]   rep $rep: total ${total} ms"
    if [ -z "$best" ] || \
       jq -e --argjson t "$total" '.stages_ms.total > $t' "$TMP/$label.json" \
           > /dev/null; then
      best="$rep"
      cp "$TMP/$label.rep$rep.json" "$TMP/$label.json"
    fi
  done
}

run_case() { # label sweep-mode [extra perf_study flags...]
  local label="$1" sweep="$2"
  shift 2
  run_case_at "$label" "$SCALE" "$REPS" "$sweep" "$@"
}

run_case current grouped
run_case per_config_sweep per-config
# The bounded-RSS headline: scale 1.0.  Two reps (minutes per rep): RSS —
# the primary figure of merit — does not jitter, but the stage times do, so
# take the best run like the scale-0.2 cases do.
run_case_at scale1 1.0 2 grouped

# Campaign throughput: two seed replications at the same scale, fanned over
# the requested worker threads (0 = hardware concurrency).
echo "[record_bench] measuring campaign throughput (2 seeds, threads=$THREADS)..."
CAMPAIGN_LINE="$("$BUILD/tools/charisma_campaign" --seeds=42,43 \
    --scales="$SCALE" --threads="$THREADS" | grep '^campaign: ')"
echo "[record_bench] $CAMPAIGN_LINE"
# "campaign: N studies, T threads, W s wall, R studies/min"
read -r CAMPAIGN_STUDIES CAMPAIGN_THREADS CAMPAIGN_WALL CAMPAIGN_RATE <<EOF
$(echo "$CAMPAIGN_LINE" | sed -E 's/^campaign: ([0-9]+) studies, ([0-9]+) threads, ([0-9.]+) s wall, ([0-9.]+) studies\/min$/\1 \2 \3 \4/')
EOF

if [ -n "$BASELINE" ]; then
  cp "$BASELINE" "$TMP/baseline.json"
else
  echo 'null' > "$TMP/baseline.json"
fi

jq -n \
  --slurpfile cur "$TMP/current.json" \
  --slurpfile sweep_ref "$TMP/per_config_sweep.json" \
  --slurpfile s1 "$TMP/scale1.json" \
  --slurpfile base "$TMP/baseline.json" \
  --arg kernel "$(uname -sr)" \
  --arg recorded "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  --argjson cores "$(nproc)" \
  --argjson campaign_studies "$CAMPAIGN_STUDIES" \
  --argjson campaign_threads "$CAMPAIGN_THREADS" \
  --argjson campaign_wall_s "$CAMPAIGN_WALL" \
  --argjson campaign_rate "$CAMPAIGN_RATE" \
  '{
     recorded_utc: $recorded,
     host: {kernel: $kernel, cores: $cores},
     current: $cur[0],
     per_config_sweep: $sweep_ref[0],
     "scale_1.0": {
       run: $s1[0],
       peak_rss_kb: $s1[0].peak_rss_kb,
       spill: {
         budget_mb: $s1[0].spill_budget_mb,
         bytes_written: $s1[0].spill_bytes_written,
         bytes_read: $s1[0].spill_bytes_read,
         blocks_mem: $s1[0].spill_blocks_mem,
         blocks_disk: $s1[0].spill_blocks_disk,
         write_ms: $s1[0].stages_ms.spill_write,
         read_ms: $s1[0].stages_ms.spill_read,
         digest_ms: $s1[0].stages_ms.digest,
         stall_ms: $s1[0].stages_ms.spill_stall
       }
     },
     baseline_pre_change: $base[0],
     campaign: {
       studies: $campaign_studies,
       threads: $campaign_threads,
       wall_seconds: $campaign_wall_s,
       studies_per_minute: $campaign_rate
     },
     speedup: {
       sweep_grouped_vs_per_config:
         ($sweep_ref[0].stages_ms.sweep / $cur[0].stages_ms.sweep),
       end_to_end_vs_baseline:
         (if $base[0] == null then null
          else $base[0].stages_ms.total / $cur[0].stages_ms.total end),
       sweep_stage_vs_baseline:
         (if $base[0] == null then null
          else $base[0].stages_ms.sweep / $cur[0].stages_ms.sweep end)
     }
   }' > BENCH_study.json

echo "[record_bench] wrote BENCH_study.json:"
cat BENCH_study.json
