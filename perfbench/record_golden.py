#!/usr/bin/env python3
"""Regenerate golden.json, the numbers the benchmark pins for recorded seeds.

    python3 perfbench/record_golden.py

Runs one checked pass of every workload for each seed in SEEDS and each
input draw a run of the default length reaches, and stores the
deterministic numbers its checks return (final success probabilities,
g_min, P_e) under "seed:draw". Refuses to record if any call fails its check. Run it only
when a change is meant to move these numbers, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import HERE, SRC, limit_blas_threads

SEEDS = range(5)
DRAWS = {"search_large": 5, "probe_attack": 5, "cli_small": 8}


def main() -> int:
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    golden: dict = {}
    for name in workloads.NAMES:
        for seed in SEEDS:
            for draw in range(DRAWS[name]):
                result = harness.run_pass(workloads.make(name, seed, draw))
                failed = [c for c in result.calls if c.error is not None]
                if failed:
                    print(f"{name} {seed}:{draw}: {failed[0].name} failed: {failed[0].error}", file=sys.stderr)
                    return 1
                golden.setdefault(name, {})[f"{seed}:{draw}"] = {c.name: c.values for c in result.calls if c.values}
                print(f"{name} {seed}:{draw}: {result.wall_s:.2f} s", flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
