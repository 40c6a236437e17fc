#!/usr/bin/env bash
# Gates the EMS iteration counts of a traced perfbench run. Each
# `em.iterations.<config>` in the results file (the median number of EM
# map evaluations per estimate-sw trial) must be at most one third of the
# count the unaccelerated EMS loop recorded on the same seed, so a change
# that loses the SQUAREM acceleration fails. The counts are deterministic
# for a given seed, so this gates no timing.
#
# Usage, after a traced run on seed 1:
#   bash perfbench/run.sh --workload ingest-mixed --seed 1 --seconds 2 --trace 1
#   scripts/check_em_iterations.sh [.bench_out/ingest-mixed-seed1-trace.json]
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - "${1:-.bench_out/ingest-mixed-seed1-trace.json}" <<'PY'
import json, sys

# em.iterations.* of `--seed 1 --trace 1` with the unaccelerated EMS loop
# (the tree before SQUAREM). The gate is a third of each.
UNACCELERATED = {
    "beta-eps0.5": 913.0,
    "beta-eps1": 574.5,
    "beta-eps2.5": 270.0,
    "income-eps0.5": 2736.5,
    "income-eps1": 1919.5,
    "income-eps2.5": 830.5,
}

path = sys.argv[1]
with open(path) as f:
    metrics = json.load(f)["metrics"]
failed = False
for config, before in UNACCELERATED.items():
    name = f"em.iterations.{config}"
    ceiling = before / 3
    if name not in metrics:
        print(f"em iterations: {name} missing from {path}", file=sys.stderr)
        failed = True
        continue
    got = metrics[name]["value"]
    verdict = "ok" if got <= ceiling else "TOO MANY"
    print(f"em iterations: {config}: {got:g} (ceiling {ceiling:.1f}, "
          f"unaccelerated {before:g}) {verdict}")
    failed |= got > ceiling
if failed:
    print("em iterations: FAILED", file=sys.stderr)
    sys.exit(1)
PY
