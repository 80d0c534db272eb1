#!/usr/bin/env python3
"""Cold-pass benchmark of the `oddwheel` command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of `exhaustive`, `families`, `candidates` (see workloads.py),
or `all` to run the three in turn.  Run it from the root of a checkout;
the library is imported from `src/` there, on whichever kernel backend
imports (`oddwheel.kernels.HAVE_COMPILED`, recorded in the output).

A pass runs the workload's jobs, in order, in a fresh interpreter, so it
starts with empty enumeration caches and pays for every canonical form it
needs.  Passes repeat until S seconds have gone by (at least two), with
PYTHONHASHSEED=0 so that set and dict layouts, and the work that follows
from them, repeat.  Every job's exit status and output are checked
against reference.json.

With --trace 0 the last line reports, over the passes:
- wall_norm_s: median time of one pass, first `cli.main` call to last
  return, scaled to the reference CPU speed (see Speedometer in
  cold_pass.py); the unscaled wall_s and the speed are printed above it;
- setup_s: median seconds of a pass from interpreter start to `oddwheel`
  imported and the inputs written;
- peak_rss_mb: median peak resident memory of a pass process.
With --trace 1 the passes run under tracer.py and the last line reports
the per-layer metrics instead; `trace.overhead_s` is the traced minus the
untraced wall_norm_s, from one extra untraced pass.  The spans of the last
traced pass are written to .perfbench-out/.

Lines before the last give each metric with its sample count and
quartiles, the failed-job ratio, the output digests and the run
metadata (backend, version, Python, CPUs, seed, passes).  The process
exits 0 with a result, or non-zero without one when a pass cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from check import mismatches  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
# A run starts no pass that would end past this, whatever --seconds says;
# it fails only if MIN_PASSES passes do not fit.
RUN_LIMIT_S = 170.0
EXIT_BUDGET = 3


class PassError(RuntimeError):
    """A pass could not run to the end."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns pass interpreters for one run and keeps it inside its time
    limit."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.started = _monotonic()
        self._count = 0

    def left(self) -> float:
        return RUN_LIMIT_S - (_monotonic() - self.started)

    def spawn(self, workload: str, *flags: str) -> dict:
        self._count += 1
        workdir = OUT / f"work-{os.getpid()}-{self._count}"
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONHASHSEED="0")
        try:
            spawned_at = _monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "cold_pass.py"),
                 "--workload", workload, "--seed", str(self.seed),
                 "--spawned-at", repr(spawned_at), "--workdir", str(workdir),
                 *flags],
                capture_output=True, text=True, env=env, timeout=self.left(),
            )
        except subprocess.TimeoutExpired as exc:
            raise PassError(f"{workload} pass exceeded the run limit") from exc
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise PassError(
                f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        return json.loads(proc.stdout.splitlines()[-1])

    def passes(self, workload: str, seconds: float, *flags: str) -> list[dict]:
        """At least MIN_PASSES passes, then more until `seconds` have gone
        by or the last pass's duration, twice over, no longer fits in the
        run limit."""
        out = []
        start = _monotonic()
        last = 0.0
        while len(out) < MIN_PASSES or (
            _monotonic() - start < seconds and self.left() > 2 * last
        ):
            t0 = _monotonic()
            out.append(self.spawn(workload, *flags))
            last = _monotonic() - t0
        return out


def _spread(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} (1 sample)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})"


def _load_reference() -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


def _job_failures(result: dict, reference: dict) -> list[str]:
    """Why a job counts as failed; empty when it passed."""
    ref = reference.get(result["name"])
    if ref is None:
        return ["no reference entry"]
    rc = result["exit"]
    if rc is None:
        return [f"raised: {result['error']}"]
    if rc == EXIT_BUDGET:
        return ["hit its budget (exit 3)"]
    if rc != result["expected_exit"]:
        return [f"exit {rc}, expected {result['expected_exit']}"]
    if result["summary"] is None:
        return [f"output not readable: {result['error']}"]
    return mismatches(result["summary"], ref)


def _is_exact(name: str) -> bool:
    """Counts and ratios of counts repeat exactly; times do not."""
    return not (name.endswith("_s") or ".job_s." in name)


def _check_passes(workload: str, passes: list[dict], reference: dict):
    """Count failed jobs over all passes and collect each pass's output
    digest (a hash of its job digests and exit statuses)."""
    lines = []
    attempted = failed = 0
    digests: set[str] = set()
    for p in passes:
        pass_digest = hashlib.sha256()
        for job in p["jobs"]:
            attempted += 1
            why = _job_failures(job, reference)
            if why:
                failed += 1
                more = f"; and {len(why) - 3} more" if len(why) > 3 else ""
                lines.append(f"{workload} FAILED {job['name']}: "
                             f"{'; '.join(why[:3])}{more}")
            summary = job["summary"] or {}
            pass_digest.update(f"{job['name']}:{job['exit']}:"
                               f"{summary.get('digest')}\n".encode())
        digests.add(pass_digest.hexdigest())
    if len(digests) != 1:
        lines.append(f"{workload} FAILED: passes disagree on the output digest")
    return attempted, failed, digests, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(seed)
    traced = []
    if trace:
        untraced = [runner.spawn(workload)]  # only to measure the overhead
        spans_out = OUT / f"{workload}-seed{seed}.spans.jsonl"
        traced = runner.passes(workload, seconds, "--trace",
                               "--spans-out", str(spans_out))
    else:
        untraced = runner.passes(workload, seconds)
    passes = untraced + traced

    attempted, failed, digests, lines = _check_passes(
        workload, passes, _load_reference())
    correct = failed == 0 and len(digests) == 1
    lines.append(f"{workload} digest {min(digests)[:16]} "
                 f"(untraced {len(untraced)} passes, traced {len(traced)})")
    wall = [p["wall_s"] * p["speed"] for p in untraced]
    if trace:
        layers = _layer_metrics(traced)
        unsteady = [n for n in layers if _is_exact(n)
                    and len({p["layers"][n] for p in traced}) != 1]
        if unsteady:
            correct = False
            lines.append(f"{workload} FAILED: counts differ between traced "
                         f"passes: {', '.join(unsteady)}")
        traced_wall = [p["wall_s"] * p["speed"] for p in traced]
        layers["trace.overhead_s"] = statistics.median(traced_wall) - wall[0]
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in layers.items()}
        lines.append(f"{workload} traced wall_norm_s {_spread(traced_wall)} s")
        lines.append(f"{workload} untraced wall_norm_s {wall[0]:.6g} s")
        lines.append(f"{workload} trace.overhead_s "
                     f"{layers['trace.overhead_s']:.6g} s")
    else:
        series = {
            "wall_norm_s": (wall, "s"),
            "setup_s": ([p["setup_s"] for p in untraced], "s"),
            "peak_rss_mb": ([p["peak_rss_mb"] for p in untraced], "MB"),
        }
        metrics = {}
        for name, (values, unit) in series.items():
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(f"{workload} {name} {_spread(values)} {unit}")
        raw = [p["wall_s"] for p in untraced]
        speed = [p["speed"] for p in untraced]
        lines.append(f"{workload} wall_s {_spread(raw)} s (as measured)")
        lines.append(f"{workload} cpu_speed {_spread(speed)} x reference")
    lines.append(f"{workload} failed_ratio {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} jobs)")
    meta = dict(passes[0]["meta"])
    meta.update(
        workload=workload, seed=seed, trace=trace,
        python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
        passes=len(passes),
    )
    lines.append(f"{workload} meta {json.dumps(meta, sort_keys=True)}")
    return {"lines": lines, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _layer_metrics(traced: list[dict]) -> dict[str, float]:
    """Median over traced passes; counts, which repeat, as counted."""
    return {
        n: v if _is_exact(n) else statistics.median(p["layers"][n] for p in traced)
        for n, v in traced[0]["layers"].items()
    }


def _unit(name: str) -> str:
    if name.endswith("_s") or ".job_s." in name:
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name in ("walks.edge_visits", "spectral.matvec_ops"):
        return "count-computed"  # derived from sizes, not counted in code
    if name == "formats.bytes_out":
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oddwheel" / "__init__.py").is_file():
        print(f"error: no oddwheel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results.values():
        print("\n".join(res["lines"]))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, res in results.items()
                   for m, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
