"""Command-line surface.

Exit status: 0 success/PASS, 1 FAIL, 2 usage error, 3 search or iteration
budget exhausted.  Graph inputs are files in graph6 or edge-list form
(sniffed); outputs honor --format.  All numeric output is full precision,
locale-free.

Each command takes only the flags its handler reads.  The flags of
`verify` and `brute-spex` are the job keywords in `oddwheel.verify.CLAIMS`,
the one place to register a claim; a claim rejects the flags of the others.
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
    G_KIND,
    U_KIND,
    V_KIND,
    auto_left_sizes,
    candidate,
    check_sides,
    core_component,
    enumerate_family,
    odd_wheel,
    primitive,
    standard_member,
)
from oddwheel.formats import encode_edge_list, encode_graph6, read_graph_text
from oddwheel.graphs import Graph
from oddwheel.kernels import BudgetExceededError
from oddwheel.spectral import DEFAULT_TOL, SpectralError, spectral_radius
from oddwheel.verify import CLAIMS, REQUIRED, run_claim
from oddwheel.walks import default_horizon, walk_compare, walk_profile

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
_EXIT_OF = {"PASS": EXIT_OK, "FAIL": EXIT_FAIL, "BUDGET": EXIT_BUDGET}


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


GRAPH_FORMATS = ["graph6", "edgelist", "json"]


class _GraphFile(str):
    """Graph file path, read in `_cmd_verify` so its errors say why."""


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


# A claim keyword's flag is `--` plus the keyword with dashes and its value
# an int, except as these two tables say.
_CLAIM_FLAGS = {"order_cap": "--cap"}
_CLAIM_TYPES = {
    "tol": float,
    "n_values": _int_list,
    "h1": _GraphFile,
    "h2": _GraphFile,
}


def _claim_flags(claims) -> dict[str, str]:
    """Flag of each job keyword of `claims`, in registration order."""
    return {
        name: _CLAIM_FLAGS.get(name, "--" + name.replace("_", "-"))
        for c in claims for name in c.params
    }


def _reject_unread(args, flags: dict[str, str], reads, what: str) -> None:
    """Reject each flag of `flags` (flag by destination, each defaulting
    to None) that is given although `what` does not read it."""
    unread = [
        flag for dest, flag in flags.items()
        if dest not in reads and getattr(args, dest, None) is not None
    ]
    if unread:
        raise ValueError(f"{what} does not take {', '.join(unread)}")


def _set_kind_flags(p: argparse.ArgumentParser, actions) -> None:
    # The flags that only some kinds of the command read, by destination;
    # each defaults to None, so a flag given shows.
    p.set_defaults(
        kind_flags={a.dest: a.option_strings[0] for a in actions}
    )


def _add_claim_flags(p: argparse.ArgumentParser, claims) -> None:
    # Each defaults to None, so an omitted flag takes the claim's default.
    for name, flag in _claim_flags(claims).items():
        p.add_argument(flag, dest=name, type=_CLAIM_TYPES.get(name, int))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddwheel",
        description="spectral extremal laboratory for odd-wheel-free graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="emit a named graph or candidate")
    p.set_defaults(run=_cmd_construct)
    p.add_argument(
        "what",
        choices=[
            "odd-wheel", "core", "complete", "cycle", "matching", "empty",
            "candidate",
        ],
    )
    _set_kind_flags(p, [
        p.add_argument("--k", type=int),
        p.add_argument("--m", type=int),
        p.add_argument("--n", type=int),
        p.add_argument(
            "--s", type=int,
            help="side imbalance; omitted = residue-appropriate size",
        ),
        p.add_argument("--family", choices=[U_KIND, V_KIND]),
        p.add_argument(
            "--member", type=int,
            help="index into the family enumeration for the embedding; "
                 "omitted = the standard member",
        ),
        p.add_argument("--no-r-edge", action="store_true", default=None),
        p.add_argument("--budget", type=int),
    ])
    p.add_argument("--format", choices=GRAPH_FORMATS, default="graph6")

    p = subs.add_parser("check", help="odd-wheel / cycle / path / star queries")
    p.set_defaults(run=_cmd_check)
    p.add_argument("kind", choices=["odd-wheel", "cycle", "path", "star"])
    p.add_argument("graph")
    _set_kind_flags(p, [
        p.add_argument("--k", type=int),
        p.add_argument("--len", type=int, dest="length"),
        p.add_argument("--budget", type=int,
                       help=f"node expansions; omitted = {DEFAULT_BUDGET}"),
    ])

    p = subs.add_parser("spectral", help="radius and Perron vector, JSON")
    p.set_defaults(run=_cmd_spectral)
    p.add_argument("graph")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = subs.add_parser("walks", help="walk profile to level L")
    p.set_defaults(run=_cmd_walks)
    p.add_argument("graph")
    p.add_argument("--max-walk", type=int)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = subs.add_parser("compare", help="walk-count order of two graphs")
    p.set_defaults(run=_cmd_compare)
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--max-walk", type=int)

    p = subs.add_parser("enumerate", help="family members as a graph6 stream")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument("--kind", choices=[U_KIND, V_KIND, G_KIND], required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--format", choices=GRAPH_FORMATS, default="graph6")

    p = subs.add_parser("verify", help="run a verification job")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("claim", choices=sorted(CLAIMS))
    _add_claim_flags(p, CLAIMS.values())

    p = subs.add_parser("brute-spex", help="exhaustive small-n maximizers")
    _add_claim_flags(p, [CLAIMS["brute-spex"]])
    p.set_defaults(run=_cmd_verify, claim="brute-spex")

    # Every command but info writes its result to --out, else stdout.
    for p in subs.choices.values():
        p.add_argument("--out")

    p = subs.add_parser("info", help="kernel backend, version, platform, JSON")
    p.set_defaults(run=_cmd_info)

    return parser


def _left_side(n: int, s: int) -> int:
    """|L| = n//2 + s, checked to leave both sides a vertex."""
    left = n // 2 + s
    if not 1 <= left <= n - 1:
        raise ValueError(
            f"--s {s} gives |L| = {left} at n={n}; |L| must be in 1..{n - 1}"
        )
    return left


def _cmd_construct(args) -> int:
    what = args.what
    if what in ("odd-wheel", "core"):
        _reject_unread(args, args.kind_flags, ("k",), what)
        if args.k is None:
            raise ValueError(f"--k required for {what}")
        g = (odd_wheel if what == "odd-wheel" else core_component)(args.k)
    elif what in ("complete", "cycle", "matching", "empty"):
        _reject_unread(args, args.kind_flags, ("m",), what)
        if args.m is None:
            raise ValueError("--m required for primitives")
        g = primitive(what, args.m)
    else:  # candidate; from k = 3 on, a family member on L and the R edge
        reads, label = ("n", "k", "s"), "the k=2 candidate"
        if args.k != 2:
            reads += ("family", "member", "no_r_edge")
            label = "candidate"
            if args.member is not None:
                # the budget bounds the family enumeration --member indexes
                reads += ("budget",)
                label = "candidate --member"
        _reject_unread(args, args.kind_flags, reads, label)
        if args.n is None or args.k is None:
            raise ValueError("--n and --k required for candidate")
        n, k, r_edge = args.n, args.k, not args.no_r_edge
        lefts = auto_left_sizes(n, k)  # rejects k < 2 before --s is read
        left = None if args.s is None else _left_side(n, args.s)
        member = None
        if k != 2:
            family = args.family or ("V" if len(lefts) == 2 else "U")
            if left is None:
                left = n // 2 if family == "V" else lefts[-1]
            check_sides(k, n, left, r_edge)
            try:
                pool = (
                    [standard_member(family, k, left)] if args.member is None
                    else enumerate_family(
                        FamilySpec(family, k, left), budget=args.budget
                    )
                )
            except ValueError as exc:
                raise ValueError(
                    f"no {family} member at |L| = {left} for k={k}: {exc}"
                ) from exc
            index = args.member or 0
            if not 0 <= index < len(pool):
                raise ValueError(
                    f"--member out of range (family has {len(pool)} members)"
                )
            member = pool[index]
        g = candidate(k, n, left, member, r_edge)
    _emit(_graph_text(g, args.format), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    _reject_unread(args, args.kind_flags, {
        "odd-wheel": ("k", "budget"),
        "cycle": ("length", "budget"),
        "path": ("budget",),
        "star": ("k",),
    }[args.kind], args.kind)
    g = _read_graph(args.graph)
    if args.kind in ("odd-wheel", "star") and args.k is None:
        raise ValueError("--k required")
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    if args.kind == "odd-wheel":
        found = contains_odd_wheel(g, args.k, budget)
        _emit(f"odd-wheel k={args.k}: {'present' if found else 'absent'}\n",
              args.out)
    elif args.kind == "cycle":
        if args.length is None:
            raise ValueError("--len required")
        found = contains_cycle_of_length(g, args.length, budget)
        _emit(f"cycle len={args.length}: "
              f"{'present' if found else 'absent'}\n", args.out)
    elif args.kind == "path":
        order = longest_path_order(g, budget)
        _emit(f"longest path order: {order}\n", args.out)
    else:
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
    levels = default_horizon(g) if args.max_walk is None else args.max_walk
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


def _cmd_verify(args) -> int:
    claim = CLAIMS[args.claim]
    flags = _claim_flags(CLAIMS.values())
    _reject_unread(args, flags, claim.params, args.claim)
    missing = [
        flags[name] for name, default in claim.params.items()
        if default is REQUIRED and getattr(args, name) is None
    ]
    if missing:
        raise ValueError(f"{args.claim} needs {' and '.join(missing)}")
    kwargs = {}
    for name, default in claim.params.items():
        value = getattr(args, name)
        if isinstance(value, _GraphFile):
            value = _read_graph(value)
        kwargs[name] = default if value is None else value
    report = run_claim(args.claim, **kwargs)
    _emit(report.to_json() + "\n", args.out)
    return _EXIT_OF[report.outcome]


def _cmd_info(args) -> int:
    payload = {
        "backend": "pure",
        "version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    _emit(json.dumps(payload, indent=2) + "\n", None)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2), or 0 after --help
        return exc.code
    try:
        # The enumerators and the detectors reject a negative budget with a
        # ValueError; the command line rejects it first, naming the option.
        budget = getattr(args, "budget", None)
        if budget is not None and budget < 0:
            raise ValueError(f"--budget must be non-negative, got {budget}")
        return args.run(args)
    # Usage errors; a GraphError or FormatError is also a ValueError.
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SpectralError as exc:  # its iteration budget, or a certificate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
