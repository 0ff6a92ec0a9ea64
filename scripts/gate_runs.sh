#!/usr/bin/env bash
# Runs crowdbench the way `bench_gate` reads it: one run per workload
# with tracing off (`0`, the end-to-end metrics) or on (`1`, the layer
# shares), each run's final JSON line written to
# `.bench_out/gate/<workload>-trace<0|1>.json`. A run that fails a check
# exits non-zero. Run it from the repository root:
#
#   scripts/gate_runs.sh 1 && scripts/gate_runs.sh 0
#
# Run lengths, from the spread of repeated runs on a shared 2-vCPU host
# (the gate's bands are capped at 0.25, so a single run must stay well
# inside 1.25x its median):
# - crowd_tla 10 s, about twelve rotations of its four strategies. At
#   4 s single runs read up to 1.28x their median, at 8 s 1.27x.
# - crowd_sensitivity 12 s, about twenty sessions (two a second). At its
#   minimum of three sessions setup_s read 1.28x, at 6 s wait_ms_p90 1.27x.
# - crowd_repo its minimum of eleven rounds (`--seconds` below its
#   minimum run time, about 3.5 s): single runs stay within 1.16x.
set -euo pipefail
trace=${1:?usage: scripts/gate_runs.sh <0|1>}
mkdir -p .bench_out/gate
for run in crowd_tla:10 crowd_sensitivity:12 crowd_repo:0.5; do
  workload=${run%:*}
  cargo run --release --offline --quiet --manifest-path crowdbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds "${run#*:}" --trace "$trace" \
    | tee /dev/stderr | tail -n 1 > ".bench_out/gate/$workload-trace$trace.json"
done
