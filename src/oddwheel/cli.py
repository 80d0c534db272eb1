"""Command-line surface.

Exit status: 0 success/PASS, 1 FAIL, 2 usage error, 3 budget exhausted.
Graph inputs are files in graph6 or edge-list form (sniffed); outputs
honor --format.  All numeric output is full precision, locale-free.

`verify` and `brute-spex` take their claims, jobs and per-claim defaults
from `oddwheel.verify.CLAIMS`, the one place to register a claim; this
module only maps flags to job keywords.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from oddwheel import __version__
from oddwheel.detect import (
    DEFAULT_BUDGET,
    contains_cycle_of_length,
    contains_odd_wheel,
    is_star_free,
    longest_path_order,
)
from oddwheel.families import (
    FamilySpec,
    auto_left_sizes,
    bipartite_candidate,
    core_component,
    enumerate_family,
    matching_embedded_candidate,
    odd_wheel,
    primitive,
)
from oddwheel.formats import (
    FormatError,
    encode_edge_list,
    encode_graph6,
    read_graph_text,
)
from oddwheel.graphs import Graph, GraphError
from oddwheel.kernels import BudgetExceededError
from oddwheel.spectral import spectral_radius
from oddwheel.verify import CLAIMS, REQUIRED, run_claim
from oddwheel.walks import default_horizon, walk_compare, walk_profile

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return read_graph_text(fh.read())


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _graph_text(g: Graph, fmt: str) -> str:
    if fmt == "edgelist":
        return encode_edge_list(g)
    if fmt == "json":
        return json.dumps(
            {"order": g.order, "edges": [list(e) for e in g.edges()]},
            indent=2,
        ) + "\n"
    return encode_graph6(g) + "\n"


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=1e-10)
    sub.add_argument("--max-walk", type=int, default=None)
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument(
        "--format", choices=["graph6", "edgelist", "json"], default="graph6"
    )
    sub.add_argument("--out", default=None)
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddwheel",
        description="spectral extremal laboratory for odd-wheel-free graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="emit a named graph or candidate")
    p.add_argument(
        "what",
        choices=[
            "odd-wheel", "core", "complete", "cycle", "matching", "empty",
            "candidate", "matching-candidate",
        ],
    )
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--s", type=int, default=None,
                   help="side imbalance; omitted = residue-appropriate size")
    p.add_argument("--family", choices=["U", "V"], default=None)
    p.add_argument("--member", type=int, default=0,
                   help="index into the family enumeration for the embedding")
    p.add_argument("--no-r-edge", action="store_true")
    _common(p)

    p = subs.add_parser("check", help="odd-wheel / cycle / path / star queries")
    p.add_argument("kind", choices=["odd-wheel", "cycle", "path", "star"])
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--len", type=int, default=None, dest="length")
    _common(p)

    p = subs.add_parser("spectral", help="radius and Perron vector, JSON")
    p.add_argument("graph")
    _common(p)

    p = subs.add_parser("walks", help="walk profile to level L")
    p.add_argument("graph")
    _common(p)

    p = subs.add_parser("compare", help="walk-count order of two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    _common(p)

    p = subs.add_parser("enumerate", help="family members as a graph6 stream")
    p.add_argument("--kind", choices=["U", "V", "GFAM"], required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    _common(p)

    p = subs.add_parser("verify", help="run a verification job")
    p.add_argument("claim", choices=sorted(CLAIMS))
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--cap", type=int, default=None, dest="order_cap")
    p.add_argument("--base-order", type=int, default=None)
    p.add_argument("--t-size", type=int, default=None)
    p.add_argument("--h1", default=None, help="graph file for thm-3.1")
    p.add_argument("--h2", default=None, help="graph file for thm-3.1")
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--n-values", default=None,
                   help="comma-separated n list for claim-1-thm-1.4")
    _common(p)

    p = subs.add_parser("brute-spex", help="exhaustive small-n maximizers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _common(p)
    p.set_defaults(claim="brute-spex")

    subs.add_parser("info", help="kernel backend, version, platform, JSON")

    return parser


def _cmd_construct(args) -> int:
    what = args.what
    if what == "odd-wheel":
        if args.k is None:
            raise SystemExit2("--k required for odd-wheel")
        g = odd_wheel(args.k)
    elif what == "core":
        if args.k is None:
            raise SystemExit2("--k required for core")
        g = core_component(args.k)
    elif what in ("complete", "cycle", "matching", "empty"):
        if args.m is None:
            raise SystemExit2("--m required for primitives")
        g = primitive(what, args.m)
    elif what == "matching-candidate":
        if args.n is None:
            raise SystemExit2("--n required")
        g = matching_embedded_candidate(args.n)
    else:  # candidate
        if args.n is None or args.k is None:
            raise SystemExit2("--n and --k required for candidate")
        n, k = args.n, args.k
        family = args.family or ("V" if k % 2 == 0 and n % 4 == 2 else "U")
        if args.s is not None:
            left = n // 2 + args.s
        else:
            left = n // 2 if family == "V" else auto_left_sizes(n, k)[-1]
        pool = enumerate_family(
            FamilySpec(family, k, left), budget=args.budget
        )
        if not pool:
            raise SystemExit2(f"family {family}_{{{k},{left}}} is empty")
        if not 0 <= args.member < len(pool):
            raise SystemExit2(
                f"--member out of range (family has {len(pool)} members)"
            )
        inner = pool[args.member]
        g = bipartite_candidate(n, left, inner, not args.no_r_edge)
    _emit(_graph_text(g, args.format), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _read_graph(args.graph)
    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    if args.kind == "odd-wheel":
        if args.k is None:
            raise SystemExit2("--k required")
        found = contains_odd_wheel(g, args.k, budget)
        _emit(f"odd-wheel k={args.k}: {'present' if found else 'absent'}\n",
              args.out)
    elif args.kind == "cycle":
        if args.length is None:
            raise SystemExit2("--len required")
        found = contains_cycle_of_length(g, args.length, budget)
        _emit(f"cycle len={args.length}: "
              f"{'present' if found else 'absent'}\n", args.out)
    elif args.kind == "path":
        order = longest_path_order(g, budget)
        _emit(f"longest path order: {order}\n", args.out)
    else:
        if args.k is None:
            raise SystemExit2("--k required")
        _emit(f"star-free k={args.k}: {is_star_free(g, args.k)}\n", args.out)
    return EXIT_OK


def _cmd_spectral(args) -> int:
    g = _read_graph(args.graph)
    res = spectral_radius(g, args.tol)
    payload = {
        "radius": res.radius,
        "perron": list(res.perron),
        "residual": res.residual,
        "iterations": res.iterations,
        "note": res.note,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_walks(args) -> int:
    g = _read_graph(args.graph)
    levels = args.max_walk
    if levels is None:
        levels = default_horizon(g)
    profile = walk_profile(g, levels)
    if args.format == "json":
        text = json.dumps(
            {"levels": levels, "counts": [str(c) for c in profile.counts]},
            indent=2,
        ) + "\n"
    else:
        lines = ["level,count"]
        lines += [f"{i},{c}" for i, c in enumerate(profile.counts, start=1)]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    g1 = _read_graph(args.graph1)
    g2 = _read_graph(args.graph2)
    res = walk_compare(g1, g2, args.max_walk)
    if res.witness_level is None:
        _emit(f"{res.relation.value}\n", args.out)
    else:
        _emit(f"{res.relation.value} at level {res.witness_level}\n", args.out)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    members = enumerate_family(
        FamilySpec(args.kind, args.degree, args.order), budget=args.budget
    )
    text = "".join(_graph_text(g, args.format) for g in members)
    _emit(text, args.out)
    return EXIT_OK


def _claim_arg(args, name: str):
    """The value given for job keyword `name`, or None if its flag was
    omitted; graph files are read and --n-values (else --n) is a list."""
    if name in ("h1", "h2"):
        path = getattr(args, name)
        return None if path is None else _read_graph(path)
    if name == "n_values":
        if args.n_values:
            return [int(x) for x in args.n_values.split(",")]
        return None if args.n is None else [args.n]
    return getattr(args, name)


def _cmd_verify(args) -> int:
    claim = CLAIMS[args.claim]
    required = [name for name, v in claim.params.items() if v is REQUIRED]
    if any(getattr(args, name) is None for name in required):
        flags = " and ".join(f"--{name}" for name in required)
        raise SystemExit2(f"{args.claim} needs {flags}")
    kwargs = {}
    for name, default in claim.params.items():
        value = _claim_arg(args, name)
        kwargs[name] = default if value is None else value
    report = run_claim(args.claim, **kwargs)
    _emit(report.to_json() + "\n", args.out)
    if report.outcome == "PASS":
        return EXIT_OK
    if report.outcome == "BUDGET":
        return EXIT_BUDGET
    return EXIT_FAIL


def _cmd_info(args) -> int:
    payload = {
        "backend": "pure",
        "version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    _emit(json.dumps(payload, indent=2) + "\n", None)
    return EXIT_OK


class SystemExit2(Exception):
    """Usage error carrying the message for exit status 2."""


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "check": _cmd_check,
        "spectral": _cmd_spectral,
        "walks": _cmd_walks,
        "compare": _cmd_compare,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "brute-spex": _cmd_verify,
        "info": _cmd_info,
    }
    try:
        # The enumerators and the detectors reject a negative budget with a
        # ValueError; the command line rejects it first, naming the option.
        budget = getattr(args, "budget", None)
        if budget is not None and budget < 0:
            raise SystemExit2(f"--budget must be non-negative, got {budget}")
        return handlers[args.command](args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, FormatError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
