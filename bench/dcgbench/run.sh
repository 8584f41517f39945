#!/usr/bin/env bash
# Run all four workloads untraced, then traced, and keep every output.
#
#   bench/dcgbench/run.sh [SEED] [SECONDS]
#
# Builds through run.py (Release + LTO into .bench_build). Every output
# file starts with a `machine` line naming the core count, CPU model,
# compiler and version, build type and LTO, so each record names the
# machine it was measured on. Outputs land in .bench_build/results/.
set -euo pipefail
cd "$(dirname "$0")/../.."

seed=${1:-1}
seconds=${2:-20}
out=.bench_build/results/$(date +%Y%m%dT%H%M%S)-seed$seed
mkdir -p "$out"

for trace in 0 1; do
    for w in sim-int sim-mem grid-figures serve-grid; do
        f=$out/$w-trace$trace.txt
        python3 bench/dcgbench/run.py --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" > "$f"
        echo "$w trace=$trace: $(tail -n 1 "$f")"
    done
done
echo "outputs in $out"
