#!/usr/bin/env bash
# Runs every benchmark binary in a sensible order (cheap reports first, the
# shared-grid tables together) and tees the combined output. Each table bench
# also writes a machine-readable BENCH_<name>.json (schema:
# docs/OBSERVABILITY.md) into MPASS_BENCH_DIR, and bench_micro writes its
# google-benchmark JSON record there as micro.json (the input of
# `mpass_prof compare`). Every bench also leaves its span profile there as
# <bench>.profile.json (MPASS_PROFILE; read it with `mpass_prof top`).
#
# Usage: scripts/run_all_benches.sh [output-file]
# Knobs: MPASS_N / MPASS_N_OFFLINE / MPASS_N_AV (samples per cell),
#        MPASS_THREADS (attack-grid thread-pool size; default: all cores),
#        MPASS_BENCH_DIR (per-bench JSON dir; default: bench_out),
#        MPASS_CACHE_DIR, MPASS_SEED, ...
#
# The offline grid (Tables I-III + functionality) and the AV grids (Fig. 3/4,
# Tables IV-VI) use separate sample-count knobs so the cheap offline tables
# can run at a larger N than the costlier AV experiments.
#
# pipefail matters: the bench group is piped through tee, and without it a
# failing bench binary would be masked by tee's exit status -- CI relies on
# this script's exit code.
set -euo pipefail
OUT="${1:-bench_output.txt}"
BENCH_DIR="$(dirname "$0")/../build/bench"
N_OFFLINE="${MPASS_N_OFFLINE:-${MPASS_N:-40}}"
N_AV="${MPASS_N_AV:-${MPASS_N:-25}}"
MPASS_THREADS="${MPASS_THREADS:-$(nproc 2>/dev/null || echo 1)}"
export MPASS_THREADS
MPASS_BENCH_DIR="${MPASS_BENCH_DIR:-bench_out}"
export MPASS_BENCH_DIR
mkdir -p "$MPASS_BENCH_DIR"

# run <bench> [args...]: one bench binary, profiled into MPASS_BENCH_DIR.
run() {
  local b="$1"
  shift
  MPASS_PROFILE="$MPASS_BENCH_DIR/$b.profile.json" "$BENCH_DIR/$b" "$@"
}

{
  echo "===== bench_detectors ====="
  run bench_detectors
  echo
  echo "===== bench_pem_sections ====="
  run bench_pem_sections
  echo
  for b in bench_table1_asr bench_table2_avq bench_table3_apr \
           bench_functionality; do
    echo "===== $b (N=$N_OFFLINE, threads=$MPASS_THREADS) ====="
    MPASS_N="$N_OFFLINE" run "$b"
    echo
  done
  for b in bench_fig3_av_asr bench_table4_obfuscation \
           bench_fig4_av_learning bench_table5_other_sec \
           bench_table6_random_data; do
    echo "===== $b (N=$N_AV, threads=$MPASS_THREADS) ====="
    MPASS_N="$N_AV" run "$b"
    echo
  done
  for b in bench_advtrain bench_ablation_ensemble bench_ablation_budget; do
    echo "===== $b ====="
    MPASS_N="$N_AV" run "$b"
    echo
  done
  echo "===== bench_micro ====="
  run bench_micro --benchmark_out="$MPASS_BENCH_DIR/micro.json" \
    --benchmark_out_format=json
} 2>&1 | tee "$OUT"
