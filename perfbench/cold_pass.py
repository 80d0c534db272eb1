"""One cold pass of a workload, in the fresh interpreter that runs this file.

Usage: python3 cold_pass.py --workload NAME --seed N --spawned-at T
           --workdir DIR [--trace] [--spans-out FILE]

`--spawned-at` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this interpreter; set-up time runs from there until
`oddwheel` is imported and the input files are written.  The pass then
checks that the enumeration caches are empty, runs the workload's jobs
through `oddwheel.cli.main` in order, and prints one JSON object: the
timings, the peak RSS, each job's exit status and output summary (see
check.py), and with --trace the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The calibration loop: SPIN_LOOPS rounds of interpreter work, timed every
# SPIN_EVERY_S seconds of a pass (see Speedometer).  REF_SPIN_S is its time
# on the host the benchmark was tuned on (2-vCPU Xeon, Python 3.11) at a
# quiet moment.
SPIN_LOOPS = 1500
SPIN_EVERY_S = 0.25
REF_SPIN_S = 0.6e-3


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _require_cold(enum_mod) -> None:
    """A pass that starts with warm enumeration caches would time free
    work; refuse to run it."""
    warm = [
        name
        for name in ("_all_cache", "_deletion_cache", "_degree_cache")
        if getattr(enum_mod, name)
    ]
    if warm:
        raise RuntimeError(f"pass is not cold: {', '.join(warm)} not empty")


def _pair(a: int, b: int) -> tuple[int, int]:
    return a ^ b, a & b


def _spin() -> float:
    """Time the calibration loop: calls, small tuples and sorts, the kind of
    interpreter work the library does (a loop of plain integer arithmetic
    tracked the library's slow-downs less closely)."""
    t0 = time.perf_counter()
    acc = []
    for i in range(SPIN_LOOPS):
        acc.append(_pair(i, i >> 1))
        if len(acc) > 64:
            acc.sort()
            acc = acc[32:]
    return time.perf_counter() - t0


class Speedometer:
    """Samples this CPU's current speed while a pass runs.

    On a shared host the speed of a core drifts by tens of percent over
    minutes, which swamps a change in pass time.  A SIGALRM handler times
    the calibration loop every SPIN_EVERY_S seconds, between bytecodes of
    the pass; `speed()` is the mean of REF_SPIN_S / loop time, 1.0 at the
    reference speed.  The loop costs about 0.3% of a pass.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(_spin())

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPIN_EVERY_S, SPIN_EVERY_S)
        self.samples.append(_spin())
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        return statistics.fmean(REF_SPIN_S / s for s in self.samples)


def _run_job(call, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(argv)
    except (Exception, SystemExit) as exc:  # a job that raises has failed
        return None, out.getvalue(), f"{err.getvalue()}raised {exc!r}"
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import oddwheel
    from oddwheel import cli, kernels
    from oddwheel import enumerate as enum_mod
    from oddwheel.formats import read_graph_text

    from workloads import ALL_JOB_NAMES, WORKLOADS, write_inputs

    graph_path = write_inputs(args.workload, args.seed, Path(args.workdir))
    setup_s = _monotonic() - args.spawned_at
    meta = {
        "backend": "compiled" if kernels.HAVE_COMPILED else "pure",
        "version": oddwheel.__version__,
    }
    _require_cold(enum_mod)
    jobs = WORKLOADS[args.workload]
    tracer = None
    call = cli.main
    if args.trace:
        from tracer import CLI, Tracer

        tracer = Tracer()
        tracer.install()

        def call(argv, main=cli.main):
            return tracer.run(CLI, main, argv)

    runs = []
    with Speedometer() as speedometer:
        first = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            rc, out, err = _run_job(call, job.command(graph_path))
            t1 = time.perf_counter()
            runs.append((job, rc, out, err, t1 - t0))
        wall_s = time.perf_counter() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["formats.bytes_out"] = sum(len(out.encode()) for _, _, out, _, _ in runs)
        job_s = {job.name: seconds for job, _, _, _, seconds in runs}
        for name in ALL_JOB_NAMES:  # jobs of other workloads took 0 s here
            layers[f"cli.job_s.{name}"] = job_s.get(name, 0.0)
        if args.spans_out:
            tracer.write_spans(args.spans_out)

    from check import summarise

    graph = None
    if graph_path is not None:
        graph = read_graph_text(Path(graph_path).read_text(encoding="ascii"))
    results = []
    for job, rc, out, err, _ in runs:
        entry = {"name": job.name, "exit": rc, "expected_exit": job.expected_exit,
                 "summary": None, "error": err[-500:]}
        if rc is not None:
            try:
                entry["summary"] = summarise(job.name, out, graph)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                entry["error"] += f" unreadable output: {exc!r}"
        results.append(entry)

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "speed": speedometer.speed(),
        "peak_rss_mb": peak_rss_mb,
        "jobs": results,
        "layers": layers,
        "meta": meta,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
