"""Store the output digests of the benchmark workloads for a range of seeds.

    python3 bench/record_digests.py 0 19

Runs one untraced pass of every workload per seed and writes
``bench/digests.json``; bench/run.py then compares every pass with seeds
found there. A pass with a failed check stores nothing and makes the
script exit non-zero. Record digests only from a commit whose outputs
are known to be right: a later change that alters any output shows up
as a failed digest check.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def main(first: int, last: int) -> int:
    path = BENCH / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    status = 0
    for workload in workloads.WORKLOADS:
        stored = digests.setdefault(workload, {})
        for seed in range(first, last + 1):
            p = workloads.run_pass(workload, workloads.prepare(workload, seed))
            if p.failed:
                print(f"{workload} seed {seed}: {p.failed} failed checks", file=sys.stderr)
                status = 1
                continue
            stored[str(seed)] = p.digest
            print(f"{workload} seed {seed}: {p.digest}", flush=True)
    for workload, stored in digests.items():
        digests[workload] = dict(sorted(stored.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
