#!/usr/bin/env python3
"""Rewrite reference.json from one untraced pass of every workload.

Usage: python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known good (the tier-1 suite
passes apart from the documented criterion-5 failure); run.py then holds
every later pass to these digests and radii.  The digests do not depend
on the seed, which only relabels the candidates input, so seed 0 serves.
"""

from __future__ import annotations

import json

from run import REFERENCE, Runner
from workloads import WORKLOADS


def main() -> int:
    reference = {}
    for workload, jobs in WORKLOADS.items():
        result = Runner(0).spawn(workload)
        for job, res in zip(jobs, result["jobs"]):
            if res["exit"] != job.expected_exit or res["summary"] is None:
                raise SystemExit(f"{job.name}: exit {res['exit']}, {res['error']}")
            reference[job.name] = res["summary"]
    with open(REFERENCE, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
