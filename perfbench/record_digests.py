"""Write ``digests.json``: the canonical-result sha256 of one bar per
(workload, seed) for seeds ``0 .. SEEDS - 1``.

Run it only when a change is meant to move simulated results, and say
so in CHANGES.md::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json

import run

SEEDS = 64


def main() -> None:
    digests = {}
    for name, workload in sorted(run.WORKLOADS.items()):
        digests[name] = {
            str(seed): run.digest(run.run_bar(workload, seed).result) for seed in range(SEEDS)
        }
        print(name, "done", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
